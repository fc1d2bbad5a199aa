"""CLI entry points for the service: `actorprof serve` / `actorprof push`."""

import pytest

from repro.core.cli import _serve_parser, main
from repro.core.logical import LogicalTrace
from repro.core.store.writer import export_run
from repro.machine.spec import MachineSpec
from repro.serve import ServerConfig, ServerThread


def make_archive(path, seed: int = 0):
    spec = MachineSpec(1, 4)
    trace = LogicalTrace(spec)
    trace.record(0, 1, 64 + seed)
    return export_run(path, logical=trace, meta={"app": "demo"})


@pytest.fixture()
def server(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=True)
    with ServerThread(config) as srv:
        yield srv


def test_push_registers_and_dedups(server, tmp_path, capsys):
    archive = make_archive(tmp_path / "a.aptrc")
    address = f"127.0.0.1:{server.port}"
    assert main(["push", str(archive), "--server", address,
                 "--id", "alpha"]) == 0
    out = capsys.readouterr().out
    assert "registered as alpha" in out

    assert main(["push", str(archive), "--server", address]) == 0
    out = capsys.readouterr().out
    assert "deduplicated against alpha" in out


def test_push_degraded_note(server, tmp_path, capsys):
    spec = MachineSpec(1, 2)
    trace = LogicalTrace(spec)
    trace.record(0, 1, 8)
    archive = export_run(tmp_path / "d.aptrc", logical=trace,
                         meta={"degraded": True})
    address = f"127.0.0.1:{server.port}"
    assert main(["push", str(archive), "--server", address]) == 0
    assert "degraded" in capsys.readouterr().out


def test_push_missing_file_and_bad_server(tmp_path, capsys):
    assert main(["push", str(tmp_path / "ghost.aptrc")]) == 2
    assert "does not exist" in capsys.readouterr().err
    archive = make_archive(tmp_path / "a.aptrc")
    assert main(["push", str(archive), "--server", "host:notaport"]) == 2
    assert "bad --server" in capsys.readouterr().err


def test_push_unreachable_server_fails_cleanly(tmp_path, capsys):
    archive = make_archive(tmp_path / "a.aptrc")
    # a port from the dynamic range with nothing listening
    assert main(["push", str(archive), "--server", "127.0.0.1:1"]) == 2
    assert "push failed" in capsys.readouterr().err


def test_serve_parser_flags(tmp_path):
    args = _serve_parser().parse_args([
        "--port", "0", "--data-dir", str(tmp_path / "d"),
        "--shards", "8", "--workers", "2",
        "--cache-max-bytes", "0", "--max-active-ingests", "3",
        "--retry-after", "0.5", "--allow-remote-shutdown",
    ])
    assert args.port == 0 and args.shards == 8
    assert args.workers == 2
    assert args.cache_max_bytes == 0  # 0 → unbounded (None) in config
    assert args.allow_remote_shutdown
    assert args.registry is None
