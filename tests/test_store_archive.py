"""Tests for the .aptrc archive writer/reader and trace round trips."""

import numpy as np
import pytest

from repro.core import ActorProf, ProfileFlags
from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.papi_trace import PAPITrace
from repro.core.physical import PhysicalTrace
from repro.core.query import query_trace
from repro.core.store.archive import (
    Archive,
    ArchiveError,
    ChunkRef,
    is_archive,
    load_logical,
    load_overall,
    load_papi,
    load_physical,
    load_run,
)
from repro.core.store.codec import PACK_MAX_WIDTH
from repro.core.store.frame import MemorySection
from repro.core.store.writer import ArchiveWriter, export_run
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec

from tests.archive_tools import read_footer, read_v3, rewrite_footer
from tests.query_oracle import row_walk_query
from tests.trace_oracle import same_trace


# ----------------------------------------------------------------------
# low-level writer/reader
# ----------------------------------------------------------------------

def test_empty_archive_roundtrip(tmp_path):
    path = ArchiveWriter(tmp_path / "empty.aptrc", meta={"app": "x"}).close()
    with Archive(path) as archive:
        assert archive.meta == {"app": "x"}
        assert archive.sections == ()


def test_section_roundtrip(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1, 2, 3], "y": [-1, 0, 1]},
                      attrs={"k": "v"})
    with Archive(tmp_path / "a.aptrc") as archive:
        section = archive.section("s")
        assert section.rows == 3
        assert set(section.columns) == {"x", "y"}
        assert section.attrs == {"k": "v"}
        assert section.column("x").tolist() == [1, 2, 3]
        assert section.column("y").tolist() == [-1, 0, 1]


def test_chunked_section_concatenates(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        s = w.begin_section("s", ("x",))
        s.write_chunk({"x": [1, 2]})
        s.write_chunk({"x": []})          # empty chunks are dropped
        s.write_chunk({"x": [3]})
        s.end(attrs={"done": 1})
    with Archive(tmp_path / "a.aptrc") as archive:
        section = archive.section("s")
        assert section.rows == 3
        assert section.column("x").tolist() == [1, 2, 3]
        assert section.attrs == {"done": 1}


def test_interleaved_sections(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        s1 = w.begin_section("one", ("x",))
        s2 = w.begin_section("two", ("y",))
        s1.write_chunk({"x": [1]})
        s2.write_chunk({"y": [10, 20]})
        s1.write_chunk({"x": [2]})
        # close() ends any still-open sections
    with Archive(tmp_path / "a.aptrc") as archive:
        assert archive.section("one").column("x").tolist() == [1, 2]
        assert archive.section("two").column("y").tolist() == [10, 20]


def test_ragged_chunk_rejected(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        s = w.begin_section("s", ("x", "y"))
        with pytest.raises(ArchiveError, match="ragged"):
            s.write_chunk({"x": [1, 2], "y": [1]})
        w.close()


def test_wrong_columns_rejected(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        s = w.begin_section("s", ("x",))
        with pytest.raises(ArchiveError, match="expects columns"):
            s.write_chunk({"z": [1]})
        w.close()


def test_duplicate_section_rejected(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1]})
        with pytest.raises(ArchiveError, match="duplicate"):
            w.begin_section("s", ("x",))


def test_missing_section_and_column_raise(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1]})
    with Archive(tmp_path / "a.aptrc") as archive:
        with pytest.raises(ArchiveError, match="no section"):
            archive.section("nope")
        with pytest.raises(ArchiveError, match="no column"):
            archive.section("s").column("nope")


def test_not_an_archive_raises(tmp_path):
    bogus = tmp_path / "bogus.aptrc"
    bogus.write_text("this is not an archive, it only dresses like one")
    with pytest.raises(ArchiveError, match="magic"):
        Archive(bogus)
    assert not is_archive(tmp_path / "missing.aptrc")
    assert not is_archive(tmp_path)


def test_truncated_archive_raises(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": list(range(100))})
    data = (tmp_path / "a.aptrc").read_bytes()
    clipped = tmp_path / "clipped.aptrc"
    clipped.write_bytes(data[:-5])
    with pytest.raises(ArchiveError, match="truncated|too small"):
        Archive(clipped)


def test_writer_extends_an_archive_without_touching_it(tmp_path):
    """``ArchiveWriter(extend=archive)``: old chunks stay where they
    were, meta and index carry over, new sections append; the source is
    only ever read — also when the ``with`` body raises."""
    source = tmp_path / "a.aptrc"
    with ArchiveWriter(source, meta={"app": "demo"}) as w:
        w.add_section("s", {"x": list(range(100))})
    before = source.read_bytes()
    with Archive(source) as archive:
        with ArchiveWriter(tmp_path / "b.aptrc", extend=archive) as w:
            w.add_section("extra", {"y": [7, 8, 9]})
            with pytest.raises(ArchiveError, match="duplicate"):
                w.begin_section("s", ("x",))
        with pytest.raises(RuntimeError):
            with ArchiveWriter(tmp_path / "c.aptrc", extend=archive) as w:
                w.add_section("extra", {"y": [1]})
                raise RuntimeError("boom")
        data_end = archive.data_end
    assert source.read_bytes() == before
    assert (tmp_path / "b.aptrc").read_bytes()[:data_end] == before[:data_end]
    with Archive(tmp_path / "b.aptrc") as extended:
        assert extended.meta == {"app": "demo"}
        assert extended.sections == ("s", "extra")
        assert extended.section("s").column("x").tolist() == list(range(100))
        assert extended.section("extra").column("y").tolist() == [7, 8, 9]
    with pytest.raises(ArchiveError):
        Archive(tmp_path / "c.aptrc")  # never got its footer


@pytest.mark.parametrize("damage", ["truncated", "not-an-archive"])
def test_extending_a_bad_input_creates_no_output(tmp_path, damage):
    """The extending writer starts from an *open* archive, so a bad
    input is rejected before any output file exists."""
    from repro.core.store.lod import backfill_pyramid

    bad = tmp_path / "bad.aptrc"
    if damage == "truncated":
        with ArchiveWriter(tmp_path / "ok.aptrc") as w:
            w.add_section("s", {"x": list(range(100))})
        bad.write_bytes((tmp_path / "ok.aptrc").read_bytes()[:-5])
    else:
        bad.write_text("this is not an archive, it only dresses like one")
    before = bad.read_bytes()
    with pytest.raises(ArchiveError):
        backfill_pyramid(bad, tmp_path / "out" / "filled.aptrc")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ArchiveError):
        backfill_pyramid(bad)
    assert bad.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir() if p.name != "ok.aptrc") \
        == ["bad.aptrc"]


def _two_chunk_archive(path):
    """Section ``s``: ``x`` packed (random 5-bit values), ``y`` varint."""
    rng = np.random.default_rng(0)
    with ArchiveWriter(path) as w:
        s = w.begin_section("s", ("x", "y"))
        for lo in (0, 100):
            s.write_chunk({"x": rng.integers(0, 32, 100),
                           "y": np.arange(lo, lo + 100) ** 3})
    return path


@pytest.mark.parametrize("column, encoding", [
    ("x", "pack:0:1:5"), ("y", "delta+varint+zlib")])
def test_corrupt_chunk_is_an_archive_error_with_a_location(
        tmp_path, column, encoding):
    """A payload the codec refuses surfaces as ``ArchiveError`` naming
    the file, section, column and chunk offset — never ``CodecError``."""
    path = _two_chunk_archive(tmp_path / "a.aptrc")
    _, footer = read_footer(path)
    entry = footer["sections"]["s"]["columns"][column][1]
    assert entry[2] == encoding
    entry[1] -= 1  # the chunk loses its last byte
    rewrite_footer(path, footer)
    with Archive(path) as archive:
        section = archive.section("s")
        intact, corrupt = section.chunk_refs(column)
        assert section.decode_chunk(column, intact).shape == (100,)
        with pytest.raises(ArchiveError, match=f"offset {entry[0]}"):
            section.decode_chunk(column, corrupt)
        with pytest.raises(ArchiveError) as excinfo:
            section.column(column)
    message = str(excinfo.value)
    assert all(part in message for part in (
        str(path), "'s'", repr(column), f"offset {entry[0]}"))


def test_chunk_reads_are_positional_and_a_short_one_is_located(tmp_path):
    """Chunks are read by offset, not through a shared file position, so
    interleaved folds over one open archive decode what they index; a
    file cut short under an open reader is a located ``ArchiveError``."""
    path = _two_chunk_archive(tmp_path / "a.aptrc")
    with Archive(path) as archive:
        section = archive.section("s")
        want = {name: section.column(name).tolist() for name in ("x", "y")}
        xs, ys = section.chunk_refs("x"), section.chunk_refs("y")
        archive._file.seek(0)  # a stray position must not matter
        got = [(section.decode_chunk("y", y), section.decode_chunk("x", x))
               for x, y in zip(reversed(xs), reversed(ys))][::-1]
        assert [v for _, x in got for v in x.tolist()] == want["x"]
        assert [v for y, _ in got for v in y.tolist()] == want["y"]
        with open(path, "r+b") as f:
            f.truncate(ys[1].offset + 1)
        with pytest.raises(ArchiveError, match="short read in section 's' "
                                               "column 'y'"):
            section.decode_chunk("y", ys[1])


@pytest.mark.parametrize("width, delta", [  # a width-0 chunk has no bytes
    (w, d) for w in range(PACK_MAX_WIDTH + 1) for d in (-1, 1) if w or d > 0])
def test_pack_chunk_one_byte_off_is_a_located_archive_error(
        tmp_path, width, delta):
    """Every pack width: a chunk entry one byte short or over names its
    offset in an ``ArchiveError``, whatever the codec's kernel."""
    rng = np.random.default_rng(width)
    path = tmp_path / "w.aptrc"
    with ArchiveWriter(path) as w:
        s = w.begin_section("s", ("x", "y"))  # y: bytes after a width 0
        for _ in range(2):
            k = rng.integers(0, 1 << width, 43)
            k[:2] = 0, (1 << width) - 1
            s.write_chunk({"x": 100 + 8 * k, "y": np.arange(43) ** 3})
    _, footer = read_footer(path)
    entry = footer["sections"]["s"]["columns"]["x"][0]
    assert entry[2] == (f"pack:100:8:{width}" if width else "pack:100:1:0")
    entry[1] += delta
    rewrite_footer(path, footer)
    with Archive(path) as archive:
        section = archive.section("s")
        with pytest.raises(ArchiveError, match=f"chunk at offset {entry[0]} "
                           "is corrupt: pack payload"):
            section.decode_chunk("x", section.chunk_refs("x")[0])


# read_footer spells a version-3 table as version-2 JSON entries, so the
# footer surgery below runs on version-2 files; the v3 table's own cases
# follow it.
@pytest.mark.parametrize("mutate, match", [
    (lambda e, end: e.__delitem__(slice(3, None)), "malformed chunk entry"),
    (lambda e, end: e.__setitem__(0, "8"), "malformed chunk entry"),
    (lambda e, end: e.__setitem__(3, 99.5), "malformed chunk entry"),
    (lambda e, end: e.__setitem__(2, None), "malformed chunk entry"),
    (lambda e, end: e.__setitem__(4, [0, 31]), "malformed chunk entry"),
    (lambda e, end: e.__setitem__(4, "abc"), "malformed chunk entry"),
    (lambda e, end: e.__setitem__(4, {"min": 0, "max": 31, "sum": 9}),
     "malformed chunk entry"),
    (lambda e, end: e.__setitem__(4, [0, 31, 1500, 7]),
     "malformed chunk entry"),
    (lambda e, end: e.__setitem__(0, -1), "out of bounds"),
    (lambda e, end: e.__setitem__(1, end - e[0] + 1), "out of bounds"),
    (lambda e, end: e.__setitem__(3, 2 ** 31 + 1), "out of bounds"),
    (lambda e, end: e.__setitem__(3, 99), "row groups disagree"),
])
def test_malformed_chunk_table_is_an_archive_error(tmp_path, mutate, match):
    path = _two_chunk_archive(tmp_path / "a.aptrc")
    data_end, footer = read_footer(path)
    mutate(footer["sections"]["s"]["columns"]["x"][0], data_end)
    rewrite_footer(path, footer)
    with Archive(path) as archive:  # the table is checked on first use
        with pytest.raises(ArchiveError, match=match):
            archive.section("s").column("y")


def test_tiny_file_cannot_request_a_huge_constant_column(tmp_path):
    """A width-0 chunk's count is backed by no payload bytes: it must
    agree with the section's rows and the other columns, and stay under
    the reader's per-chunk cap, before anything is allocated."""
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [7, 7, 7], "y": [1, 2, 3]})
    _, footer = read_footer(tmp_path / "a.aptrc")
    index = footer["sections"]["s"]
    assert index["columns"]["x"][0][1:3] == [0, "pack:7:1:0"]
    for rows, count, match in ((3, 2 ** 40, "out of bounds"),
                               (2 ** 40, 2 ** 40, "out of bounds"),
                               (3, 2 ** 30, "row groups disagree"),
                               (2 ** 30, 2 ** 30, "row groups disagree")):
        index["rows"], index["columns"]["x"][0][3] = rows, count
        path = rewrite_footer(tmp_path / "a.aptrc", footer,
                              out=tmp_path / f"{rows}-{count}.aptrc")
        assert path.stat().st_size < 300
        with Archive(path) as archive:
            with pytest.raises(ArchiveError, match=match):
                archive.section("s").column("x")


#: Word of ``_two_chunk_archive``'s v3 table where column ``x``'s first
#: chunk starts (after the ``[2 columns, 2 chunks, unweighted]`` header):
#: its offset, length, count, min, max and sum.
X0 = 3


def _set(word, value):
    def mutate(words, footer, data_end):
        words[word] = value(words, data_end) if callable(value) else value
        return words.tobytes()
    return mutate


def _encodings(edit):
    def mutate(words, footer, data_end):
        edit(footer["sections"]["s"]["columns"]["x"])
        return words.tobytes()
    return mutate


V3_CASES = {
    "truncated": (lambda w, f, end: w[:-1].tobytes(), "malformed chunk entry"),
    "odd length": (lambda w, f, end: w.tobytes()[:-3], "malformed chunk entry"),
    "trailing word": (lambda w, f, end: w.tobytes() + bytes(8),
                      "malformed chunk entry"),
    "column count": (_set(0, 3), "malformed chunk entry"),
    "huge chunk count": (_set(1, 2 ** 62), "malformed chunk entry"),
    "weighted flag": (_set(2, 2), "malformed chunk entry"),
    "negative offset": (_set(X0, -1), "out of bounds"),
    "past data_end": (_set(X0 + 1, lambda w, end: end - w[X0] + 1),
                      "out of bounds"),
    "huge count": (_set(X0 + 2, 2 ** 31 + 1), "out of bounds"),
    "disagreeing row groups": (_set(X0 + 2, 99), "row groups disagree"),
    "short encodings": (_encodings(lambda e: e.pop()), "malformed chunk entry"),
    "long encodings": (_encodings(lambda e: e.append(e[0])),
                       "malformed chunk entry"),
    "encoding not a string": (_encodings(lambda e: e.__setitem__(0, 5)),
                              "malformed chunk entry"),
}


@pytest.mark.parametrize("case", sorted(V3_CASES))
def test_malformed_v3_chunk_table_is_an_archive_error(tmp_path, case):
    """The binary table's own faults, each the per-entry reader's text: a
    table whose records do not tile it fails at open, a bad entry on the
    section's first use."""
    mutate, match = V3_CASES[case]
    path = _two_chunk_archive(tmp_path / "a.aptrc")
    data_end, footer, table = read_v3(path)
    words = np.frombuffer(table, "<i8").copy()
    assert footer["version"] == 3 and words[:3].tolist() == [2, 2, 0]
    rewrite_footer(path, footer, table=mutate(words, footer, data_end))
    with pytest.raises(ArchiveError, match=match):
        with Archive(path) as archive:
            archive.section("s").column("y")


@pytest.mark.parametrize("case", ["negative offset", "past data_end",
                                  "huge count", "disagreeing row groups"])
def test_v3_and_v2_tables_report_a_bad_entry_alike(tmp_path, case):
    """The same bad entry in the binary table and spelled as version-2
    JSON gives the same message, entry and all."""
    mutate, _ = V3_CASES[case]
    path = _two_chunk_archive(tmp_path / "a.aptrc")
    data_end, footer, table = read_v3(path)
    rewrite_footer(path, footer, table=mutate(
        np.frombuffer(table, "<i8").copy(), footer, data_end))
    twin = rewrite_footer(path, read_footer(path)[1], out=tmp_path / "v2.aptrc")
    messages = []
    for p in (path, twin):
        with Archive(p) as archive, pytest.raises(ArchiveError) as excinfo:
            archive.section("s").column("y")
        messages.append(str(excinfo.value).replace(str(p), "PATH"))
    assert messages[0] == messages[1]


def test_tiny_v3_file_cannot_request_a_huge_constant_column(tmp_path):
    """The v3 twin of the check below: a width-0 chunk's count in the
    binary table must agree with the section's rows and the other columns,
    and stay under the reader's cap, before anything is allocated."""
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [7, 7, 7], "y": [1, 2, 3]})
    _, footer, table = read_v3(tmp_path / "a.aptrc")
    words = np.frombuffer(table, "<i8").copy()
    assert footer["sections"]["s"]["columns"]["x"] == ["pack:7:1:0"]
    assert words[X0 + 1] == 0  # no payload bytes behind the x chunk
    for rows, count, match in ((3, 2 ** 40, "out of bounds"),
                               (2 ** 40, 2 ** 40, "out of bounds"),
                               (3, 2 ** 30, "row groups disagree"),
                               (2 ** 30, 2 ** 30, "row groups disagree")):
        footer["sections"]["s"]["rows"], words[X0 + 2] = rows, count
        path = rewrite_footer(tmp_path / "a.aptrc", footer,
                              out=tmp_path / f"{rows}-{count}.aptrc",
                              table=words.tobytes())
        assert path.stat().st_size < 300
        with Archive(path) as archive:
            with pytest.raises(ArchiveError, match=match):
                archive.section("s").column("x")


def test_malformed_section_index_is_an_archive_error(tmp_path):
    path = _two_chunk_archive(tmp_path / "a.aptrc")
    _, footer = read_footer(path)
    for sections in ({"s": []}, {"s": {"rows": "many"}}, ["s"]):
        bad = rewrite_footer(path, {**footer, "sections": sections},
                             out=tmp_path / "bad.aptrc")
        with pytest.raises(ArchiveError, match="section index malformed"):
            Archive(bad)
    for columns in (5, {"x": 5}, {"x": [5]}, {"x": [{}]}):
        bad = rewrite_footer(path, {**footer, "sections": {
            "s": {"rows": 0, "columns": columns}}}, out=tmp_path / "bad.aptrc")
        with Archive(bad) as archive:
            with pytest.raises(ArchiveError, match="malformed chunk entry"):
                archive.section("s").columns


def test_chunk_table_is_built_on_first_use(tmp_path):
    path = _two_chunk_archive(tmp_path / "a.aptrc")
    with Archive(path) as archive:
        section = archive.section("s")
        assert "_chunks" not in vars(section)
        assert section.rows == 200 and archive.sections == ("s",)
        assert "_chunks" not in vars(section)
        assert section.n_chunks == 2
        assert "_chunks" in vars(section)


def test_chunk_ref_is_an_immutable_value(tmp_path):
    """A chunk table entry is a value: read-only, hashable, equal to an
    entry with the same fields; the in-memory section's positional
    four-field form still builds one."""
    path = _two_chunk_archive(tmp_path / "a.aptrc")
    _, footer = read_footer(path)
    with Archive(path) as archive:
        refs = archive.section("s").chunk_refs("x")
    entry = footer["sections"]["s"]["columns"]["x"][0]
    assert refs[0] == ChunkRef(*entry[:4], tuple(entry[4]))
    assert hash(refs[0]) == hash(ChunkRef(*entry[:4], tuple(entry[4])))
    assert len({refs[0], refs[1], ChunkRef(*refs[0])}) == 2
    assert refs[0] != ChunkRef(*entry[:4])  # stats are part of the value
    with pytest.raises(AttributeError):
        refs[0].offset = 0
    memory = MemorySection({"src": np.arange(3), "count": np.ones(3, int)}, {})
    assert memory.chunk_refs("src") == (ChunkRef(0, 0, "memory", 3),)
    assert memory.chunk_refs("src")[0].stats is None
    assert query_trace(memory, "sends") == 3


def test_is_archive_by_suffix_and_magic(tmp_path):
    path = ArchiveWriter(tmp_path / "a.aptrc").close()
    assert is_archive(path)
    renamed = tmp_path / "disguised.bin"
    renamed.write_bytes(path.read_bytes())
    assert is_archive(renamed)  # magic sniffing, not just the suffix


# ----------------------------------------------------------------------
# laziness
# ----------------------------------------------------------------------

def test_open_decodes_nothing(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1, 2], "y": [3, 4]})
    with Archive(tmp_path / "a.aptrc") as archive:
        assert archive.decoded_columns == set()
        archive.section("s")           # getting a handle decodes nothing
        assert archive.decoded_columns == set()
        archive.section("s").column("y")
        assert archive.decoded_columns == {("s", "y")}


def test_column_decode_is_cached(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1, 2]})
    with Archive(tmp_path / "a.aptrc") as archive:
        a = archive.section("s").column("x")
        b = archive.section("s").column("x")
        assert a is b


def test_fully_read_column_is_held_once(tmp_path):
    """``Section.column`` keeps the concatenation only, ``decode_chunk``
    nothing: one array of a fully read column lives on the section."""
    path = _two_chunk_archive(tmp_path / "a.aptrc")
    with Archive(path) as archive:
        section = archive.section("s")
        first = section.decode_chunk("x", section.chunk_refs("x")[0])
        assert not section._cache
        whole = section.column("x")
        assert list(section._cache) == ["x"] and section._cache["x"] is whole
        arrays = [a for v in vars(section).values() if isinstance(v, dict)
                  for a in v.values() if isinstance(a, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is whole
        assert whole[:100].tolist() == first.tolist()
        assert whole.tolist() == np.concatenate(
            [section.decode_chunk("x", ref)
             for ref in section.chunk_refs("x")]).tolist()


# ----------------------------------------------------------------------
# whole-run export / load
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def profiled_run(tmp_path_factory):
    """One profiled run and its exported archive."""
    ap = ActorProf(ProfileFlags.all())

    class A(Actor):
        def __init__(self, ctx, arr):
            super().__init__(ctx)
            self.arr = arr

        def process(self, idx, sender):
            self.arr[idx] += 1

    async def program(ctx):
        arr = np.zeros(8, dtype=np.int64)
        a = A(ctx, arr)
        async with ctx.finish():
            a.start()
            for i in range(50):
                a.send(int(ctx.rng.integers(0, 8)),
                       int(ctx.rng.integers(0, ctx.n_pes)))
            a.done()
        return int(arr.sum())

    run_spmd(program, machine=MachineSpec(2, 4), profiler=ap, seed=11)
    path = tmp_path_factory.mktemp("store") / "run.aptrc"
    ap.export_archive(path, meta={"app": "cli-fixture", "scale": 0})
    return ap, path


def test_export_archive_meta(profiled_run):
    _ap, path = profiled_run
    with Archive(path) as archive:
        assert archive.meta["app"] == "cli-fixture"
        assert archive.meta["nodes"] == 2
        assert archive.meta["pes_per_node"] == 4
        assert archive.spec().n_pes == 8
        assert set(archive.sections) == {"logical", "physical", "papi",
                                         "overall"}


def test_spec_names_the_missing_footer_key(profiled_run, tmp_path):
    _ap, path = profiled_run
    _, footer = read_footer(path)
    del footer["meta"]["nodes"]
    with Archive(rewrite_footer(path, footer, tmp_path / "a.aptrc")) as archive:
        with pytest.raises(ArchiveError, match="footer metadata is missing "
                                               "'nodes'"):
            archive.spec()


def test_logical_roundtrip_exact(profiled_run):
    ap, path = profiled_run
    with Archive(path) as archive:
        got = load_logical(archive)
    assert same_trace(got, ap.logical)
    assert got.sample_interval == ap.logical.sample_interval
    assert got.spec == ap.logical.spec
    assert (got.matrix() == ap.logical.matrix()).all()
    assert (got.bytes_matrix() == ap.logical.bytes_matrix()).all()


def test_physical_roundtrip_exact(profiled_run):
    ap, path = profiled_run
    with Archive(path) as archive:
        got = load_physical(archive)
    assert same_trace(got, ap.physical)
    assert got.n_pes == ap.physical.n_pes
    assert (got.matrix() == ap.physical.matrix()).all()
    assert got.counts_by_type() == ap.physical.counts_by_type()


def test_papi_roundtrip_exact(profiled_run):
    ap, path = profiled_run
    with Archive(path) as archive:
        got = load_papi(archive)
    assert got.events == ap.papi_trace.events
    assert got.spec == ap.papi_trace.spec
    assert same_trace(got, ap.papi_trace)
    for pe in range(got.n_pes):
        assert np.array_equal(got.rows(pe), ap.papi_trace.rows(pe))
    for region in ("MAIN", "PROC"):
        assert (got.region_totals[region]
                == ap.papi_trace.region_totals[region]).all()


def test_overall_roundtrip_exact(profiled_run):
    ap, path = profiled_run
    with Archive(path) as archive:
        got = load_overall(archive)
    assert (got.t_main == ap.overall.t_main).all()
    assert (got.t_proc == ap.overall.t_proc).all()
    assert (got.t_total == ap.overall.t_total).all()
    assert (got.t_comm() == ap.overall.t_comm()).all()


def test_load_run_collects_all_kinds(profiled_run):
    _ap, path = profiled_run
    traces = load_run(path)
    assert traces.kinds() == ("logical", "physical", "papi", "overall")
    assert traces.meta["app"] == "cli-fixture"


def test_export_run_subset(tmp_path):
    overall = OverallProfile(4)
    overall.add_main(0, 10)
    overall.add_total(0, 100)
    path = export_run(tmp_path / "o.aptrc", overall=overall)
    traces = load_run(path)
    assert traces.kinds() == ("overall",)
    assert traces.meta["n_pes"] == 4


def test_export_run_needs_a_trace(tmp_path):
    with pytest.raises(ArchiveError, match="at least one trace"):
        export_run(tmp_path / "x.aptrc")


# ----------------------------------------------------------------------
# archive-backed queries: identical results, column-pruned reads
# ----------------------------------------------------------------------

QUERIES_LOGICAL = [
    "sends",
    "bytes",
    "sends where src == 0",
    "sends where src_node != dst_node",
    "bytes where size >= 8 group by src",
    "sends group by dst top 3",
    "sends where dst == src",
]

QUERIES_PHYSICAL = [
    "ops",
    "bytes",
    "ops where kind == local_send",
    "ops where kind != nonblock_progress group by kind",
    "bytes group by dst top 2",
    "ops where kind == no_such_kind",
]


@pytest.mark.parametrize("query", QUERIES_LOGICAL)
def test_archive_query_matches_in_memory_logical(profiled_run, query):
    ap, path = profiled_run
    with Archive(path) as archive:
        assert query_trace(archive.section("logical"), query) \
            == query_trace(ap.logical, query) \
            == row_walk_query(ap.logical, query)


@pytest.mark.parametrize("query", QUERIES_PHYSICAL)
def test_archive_query_matches_in_memory_physical(profiled_run, query):
    ap, path = profiled_run
    with Archive(path) as archive:
        assert query_trace(archive.section("physical"), query) \
            == query_trace(ap.physical, query) \
            == row_walk_query(ap.physical, query)


def test_query_reads_only_needed_columns(profiled_run):
    """The acceptance criterion: untouched sections stay un-decoded."""
    _ap, path = profiled_run
    with Archive(path) as archive:
        assert query_trace(archive.section("logical"), "sends") > 0
        assert query_trace(archive.section("logical"), "bytes") > 0
        # un-predicated aggregates are answered from footer chunk sums:
        # no payload bytes decoded at all
        assert archive.decoded_columns == set()
        query_trace(archive.section("logical"), "sends where src == 0")
        assert archive.decoded_columns == {("logical", "count"),
                                           ("logical", "src")}
        # physical / papi / overall sections were never touched
        touched_sections = {s for s, _c in archive.decoded_columns}
        assert touched_sections == {"logical"}


def test_pushdown_off_matches_pushdown_on(profiled_run):
    _ap, path = profiled_run
    with Archive(path) as archive:
        for target, queries in (("logical", QUERIES_LOGICAL),
                                ("physical", QUERIES_PHYSICAL)):
            for query in queries:
                section = archive.section(target)
                assert query_trace(section, query, pushdown=False) \
                    == query_trace(section, query)


def test_query_on_archive_object_is_an_error(profiled_run):
    from repro.core.query import QueryError

    _ap, path = profiled_run
    with Archive(path) as archive:
        with pytest.raises(QueryError, match="section"):
            query_trace(archive, "sends")


def test_kind_field_missing_on_logical_section(profiled_run):
    from repro.core.query import QueryError

    _ap, path = profiled_run
    with Archive(path) as archive:
        with pytest.raises(QueryError, match="does not exist"):
            query_trace(archive.section("logical"), "sends where kind == local_send")


# ----------------------------------------------------------------------
# heatmap parity (acceptance criterion)
# ----------------------------------------------------------------------

def test_heatmap_svg_identical_from_archive(profiled_run):
    from repro.core.viz.heatmap import heatmap_svg

    ap, path = profiled_run
    traces = load_run(path)
    assert heatmap_svg(traces.logical.matrix()) \
        == heatmap_svg(ap.logical.matrix())
    assert heatmap_svg(traces.physical.matrix()) \
        == heatmap_svg(ap.physical.matrix())
