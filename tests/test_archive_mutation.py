"""Byte mutations of the v3 goldens' footer: never a stray error.

Every truncation of a golden archive, every bit flip in the bytes after
its data region — the zlib stream holding the footer JSON and the binary
chunk table, then the trailer — and every cut of that stream under a
rewritten trailer either reads exactly as the golden does or raises
:class:`ArchiveError`: never ``zlib.error``, ``IndexError``,
``struct.error`` or ``MemoryError``, and never an allocation the file's
size does not bound.  (The chunk *payloads* carry no checksum: a flipped
payload bit can decode to other values, see ``docs/TRACE_STORE.md``.)

Tier-1 replays derandomized examples; the nightly ``store-nightly`` job
runs this file under ``HYPOTHESIS_PROFILE=randomized``.
"""

import tracemalloc
from functools import cache
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.query import query_trace
from repro.core.store.archive import TAIL_MAGIC, TRAILER, Archive, ArchiveError

from tests.archive_tools import read_v3

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDENS = {name: GOLDEN_DIR / f"{name}.aptrc" for name in ("histogram", "triangle")}
QUERIES = ["sends", "bytes", "sends where src == 1 group by dst",
           "bytes where dst_node != src_node group by src"]
#: zlib's largest expansion: no footer decompresses to more than this
#: many times its own bytes, so it bounds what a mutated footer can ask.
ZLIB_MAX_RATIO = 1032


def _answers(path: Path):
    """Everything a reader can be asked of an archive: metadata, every
    section's attrs, rows and decoded columns, and a few queries."""
    with Archive(path) as archive:
        out = {"meta": archive.meta}
        for name in archive.sections:
            section = archive.section(name)
            out[name] = (section.attrs, section.rows,
                         {c: section.column(c).tolist() for c in section.columns})
        out["queries"] = [query_trace(archive.section("logical"), q)
                          for q in QUERIES]
    return out


@cache
def _want(name: str):
    return _answers(GOLDENS[name])


@st.composite
def mutants(draw) -> tuple[str, bytes]:
    name = draw(st.sampled_from(sorted(GOLDENS)))
    data = GOLDENS[name].read_bytes()
    data_end = read_v3(GOLDENS[name])[0]
    tail = len(data) - TRAILER.size - len(TAIL_MAGIC)
    kind = draw(st.sampled_from(["truncate", "flip", "cut stream"]))
    if kind == "truncate":
        return name, data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        pos, bit = draw(st.integers(data_end, len(data) - 1)), draw(st.integers(0, 7))
        return name, data[:pos] + bytes([data[pos] ^ 1 << bit]) + data[pos + 1:]
    keep = draw(st.integers(0, tail - data_end - 1))
    return name, (data[:data_end + keep] + TRAILER.pack(data_end, keep)
                  + TAIL_MAGIC)


@given(mutants())
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_footer_reads_the_same_or_is_an_archive_error(tmp_path, mutant):
    name, data = mutant
    path = tmp_path / "m.aptrc"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        got = _answers(path)
    except ArchiveError:
        got = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert got is None or got == _want(name)
    assert peak <= ZLIB_MAX_RATIO * max(len(data), 1024)
