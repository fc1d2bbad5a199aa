"""Tests for the on-disk run registry behind `actorprof runs`."""

import json

import pytest

from repro.core.overall import OverallProfile
from repro.core.store.registry import (
    RegistryError,
    RunRegistry,
    default_registry_root,
)
from repro.core.store.writer import export_run


@pytest.fixture()
def archive(tmp_path):
    overall = OverallProfile(4)
    overall.add_main(1, 7)
    overall.add_total(1, 50)
    return export_run(tmp_path / "sample.aptrc", overall=overall,
                      meta={"app": "demo"})


def test_add_and_list(tmp_path, archive):
    registry = RunRegistry(tmp_path / "reg")
    info = registry.add(archive)
    assert info.run_id == "sample"
    assert info.path.exists()
    assert info.meta["app"] == "demo"
    assert info.size_bytes == info.path.stat().st_size
    assert [i.run_id for i in registry.list()] == ["sample"]
    # the source archive was copied, not moved
    assert archive.exists()


def test_add_move(tmp_path, archive):
    registry = RunRegistry(tmp_path / "reg")
    registry.add(archive, move=True)
    assert not archive.exists()


def test_add_with_explicit_id_and_collision(tmp_path, archive):
    registry = RunRegistry(tmp_path / "reg")
    registry.add(archive, run_id="night-run")
    with pytest.raises(RegistryError, match="already registered"):
        registry.add(archive, run_id="night-run")
    # auto ids uniquify instead
    assert registry.add(archive).run_id == "sample"
    assert registry.add(archive).run_id == "sample-2"


def test_id_sanitization(tmp_path, archive):
    registry = RunRegistry(tmp_path / "reg")
    info = registry.add(archive, run_id="scale 16 / cyclic!")
    assert info.run_id == "scale-16-cyclic"


def test_get_resolve_and_prefix(tmp_path, archive):
    registry = RunRegistry(tmp_path / "reg")
    registry.add(archive, run_id="cyclic-1n")
    registry.add(archive, run_id="cyclic-2n")
    registry.add(archive, run_id="range-1n")
    assert registry.get("range-1n").run_id == "range-1n"
    assert registry.resolve("ra").run_id == "range-1n"
    with pytest.raises(RegistryError, match="ambiguous"):
        registry.resolve("cyclic")
    with pytest.raises(RegistryError, match="unknown run"):
        registry.get("nope")
    with pytest.raises(RegistryError, match="unknown run"):
        registry.resolve("nope")


def test_open_registered_archive(tmp_path, archive):
    registry = RunRegistry(tmp_path / "reg")
    registry.add(archive, run_id="r")
    with registry.open("r") as opened:
        assert opened.meta["app"] == "demo"
        assert opened.has_section("overall")


def test_remove(tmp_path, archive):
    registry = RunRegistry(tmp_path / "reg")
    info = registry.add(archive, run_id="gone")
    assert registry.remove("gone").run_id == "gone"
    assert not info.path.exists()
    assert registry.list() == []


def test_manifest_survives_reopen(tmp_path, archive):
    RunRegistry(tmp_path / "reg").add(archive, run_id="persisted")
    fresh = RunRegistry(tmp_path / "reg")
    assert [i.run_id for i in fresh.list()] == ["persisted"]


def test_empty_registry_lists_nothing(tmp_path):
    assert RunRegistry(tmp_path / "empty").list() == []


def test_corrupt_manifest_raises(tmp_path, archive):
    registry = RunRegistry(tmp_path / "reg")
    registry.add(archive)
    registry.manifest_path.write_text("{ not json")
    with pytest.raises(RegistryError, match="corrupt"):
        registry.list()


def test_unsupported_manifest_version(tmp_path):
    root = tmp_path / "reg"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"version": 99, "runs": {}}))
    with pytest.raises(RegistryError, match="version"):
        RunRegistry(root).list()


def test_add_non_archive_rejected(tmp_path):
    bogus = tmp_path / "bogus.aptrc"
    bogus.write_text("nope")
    with pytest.raises(RegistryError, match="cannot register"):
        RunRegistry(tmp_path / "reg").add(bogus)


def test_default_registry_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTORPROF_RUNS", str(tmp_path / "custom"))
    assert default_registry_root() == tmp_path / "custom"
    monkeypatch.delenv("ACTORPROF_RUNS")
    assert default_registry_root().name == "runs"


def test_describe_mentions_shape(tmp_path, archive):
    registry = RunRegistry(tmp_path / "reg")
    info = registry.add(archive, run_id="r")
    line = info.describe()
    assert "r" in line and "1x4 PEs" in line


def test_describe_names_the_workload(tmp_path, archive):
    """A descriptor's kind, a pre-descriptor name, or a hand-written
    meta's ``app``: whichever the archive records."""
    from tests.test_golden_archives import GOLDEN_DIR, V1_DIR

    registry = RunRegistry(tmp_path / "reg")
    lines = [registry.add(path, run_id=run_id).describe().split()
             for run_id, path in [("new", GOLDEN_DIR / "triangle.aptrc"),
                                  ("old", V1_DIR / "histogram.aptrc"),
                                  ("demo", archive)]]
    assert [line[1] for line in lines] == ["triangle", "histogram", "demo"]
