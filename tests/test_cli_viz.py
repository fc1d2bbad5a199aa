"""Tests for the ``actorprof viz`` / ``actorprof query`` subcommands,
the LOD line in ``actorprof runs show``, and the normalized CLI flags
(``--out`` everywhere)."""

import pytest

from repro.core.cli import main

from tests.test_golden_archives import GOLDEN_DIR


@pytest.fixture(scope="module")
def lod_archive(tmp_path_factory):
    """A run archived through the CLI — pyramid included by default."""
    path = tmp_path_factory.mktemp("cli") / "hist.aptrc"
    rc = main(["run", "histogram", "--updates", "400", "--table-size", "64",
               "--out", str(path)])
    assert rc == 0
    return path


# ----------------------------------------------------------------------
# actorprof viz
# ----------------------------------------------------------------------

def test_viz_writes_standalone_html(lod_archive, tmp_path, capsys):
    out = tmp_path / "page.html"
    rc = main(["viz", str(lod_archive), "--out", str(out)])
    assert rc == 0
    page = out.read_text()
    for view in ("gantt", "heatmap", "timeline"):
        assert f'id="view-{view}"' in page
    assert "<svg" in page and "<?xml" not in page
    assert "wrote" in capsys.readouterr().out


def test_viz_single_view_with_viewport(lod_archive, tmp_path):
    out = tmp_path / "zoom.html"
    rc = main(["viz", str(lod_archive), "--view", "heatmap",
               "--t0", "0", "--t1", "10000", "--res", "8",
               "--out", str(out)])
    assert rc == 0
    page = out.read_text()
    assert 'id="view-heatmap"' in page
    assert 'id="view-gantt"' not in page


def test_viz_server_mode_embeds_live_controls(lod_archive, tmp_path):
    out = tmp_path / "live.html"
    rc = main(["viz", str(lod_archive), "--server",
               "http://127.0.0.1:8750", "--out", str(out)])
    assert rc == 0
    page = out.read_text()
    assert "http://127.0.0.1:8750" in page
    assert "/viz/" in page  # the fetch URL template


def test_viz_backfill_then_render_legacy_archive(tmp_path, capsys):
    path = tmp_path / "legacy.aptrc"
    path.write_bytes((GOLDEN_DIR / "histogram.aptrc").read_bytes())
    out = tmp_path / "page.html"
    rc = main(["viz", str(path), "--backfill", "--out", str(out)])
    assert rc == 0
    assert "backfilled" in capsys.readouterr().out
    assert out.exists()
    # the archive now carries the pyramid for everything downstream
    from repro.core.store.archive import Archive
    from repro.core.store.lod import has_pyramid

    with Archive(path) as archive:
        assert has_pyramid(archive)


def test_viz_backfill_refuses_a_registered_run(tmp_path, capsys):
    """A registered archive's fingerprint is its identity: rewriting the
    file in place would leave the manifest describing bytes that are
    gone, so `--backfill` on a run id is refused — viz itself works."""
    from repro.core.store.registry import RunRegistry

    registry = tmp_path / "reg"
    assert main(["runs", "add", str(GOLDEN_DIR / "histogram.aptrc"),
                 "--registry", str(registry)]) == 0
    info = RunRegistry(registry).resolve("histogram")
    stored = info.path.read_bytes()
    capsys.readouterr()

    out = tmp_path / "page.html"
    rc = main(["viz", "histogram", "--backfill", "--registry", str(registry),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--backfill" in err and "runs add" in err and "copy" in err
    assert not out.exists()
    assert info.path.read_bytes() == stored
    assert RunRegistry(registry).resolve("histogram") == info
    assert info.size_bytes == len(stored)

    assert main(["viz", "histogram", "--registry", str(registry),
                 "--out", str(out)]) == 0
    assert out.exists()


def test_viz_errors_exit_2(tmp_path, capsys):
    rc = main(["viz", str(tmp_path / "missing.aptrc")])
    assert rc == 2
    assert "viz failed" in capsys.readouterr().err


# ----------------------------------------------------------------------
# actorprof query
# ----------------------------------------------------------------------

def test_query_subcommand_scalar_and_grouped(lod_archive, capsys):
    rc = main(["query", str(lod_archive), "sends"])
    assert rc == 0
    scalar = capsys.readouterr().out.strip()
    assert scalar.replace(",", "").isdigit()

    rc = main(["query", str(lod_archive), "sends group by dst top 2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and all(":" in line for line in lines)


def test_query_subcommand_matches_facade(lod_archive, capsys):
    import repro.api as api

    rc = main(["query", str(lod_archive), "bytes where src == 0"])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    with api.open_run(lod_archive) as run:
        assert printed == f"{run.query('bytes where src == 0'):,}"


def test_query_subcommand_bad_query_exits_2(lod_archive, capsys):
    rc = main(["query", str(lod_archive), "frobnicate everything"])
    assert rc == 2
    assert "query failed" in capsys.readouterr().err


# ----------------------------------------------------------------------
# runs show: LOD pyramid line
# ----------------------------------------------------------------------

def test_runs_show_reports_pyramid_levels(lod_archive, tmp_path, capsys):
    registry = str(tmp_path / "reg")
    assert main(["runs", "add", str(lod_archive), "--id", "demo",
                 "--registry", registry]) == 0
    capsys.readouterr()
    assert main(["runs", "show", "demo", "--registry", registry]) == 0
    out = capsys.readouterr().out
    assert "lod pyramid:" in out
    assert "time-resolved" in out
    assert "level(s)" in out


def test_runs_show_degrades_on_legacy_archives(tmp_path, capsys):
    registry = str(tmp_path / "reg")
    assert main(["runs", "add", str(GOLDEN_DIR / "histogram.aptrc"),
                 "--id", "old", "--registry", registry]) == 0
    capsys.readouterr()
    assert main(["runs", "show", "old", "--registry", registry]) == 0
    out = capsys.readouterr().out
    assert "lod pyramid: none" in out
    assert "--backfill" in out


# ----------------------------------------------------------------------
# normalized flags
# ----------------------------------------------------------------------

def test_run_out_flag_is_canonical(tmp_path, capsys):
    out = tmp_path / "a.aptrc"
    rc = main(["run", "histogram", "--updates", "100", "--table-size", "32",
               "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert "deprecated" not in capsys.readouterr().err
