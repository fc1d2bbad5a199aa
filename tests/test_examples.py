"""The examples that define SPMD programs run end to end, at reduced
size and in a temporary working directory, so an API change cannot
break them silently."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, size_knob", [
    ("quickstart", "N_UPDATES"),
    ("selector_request_response", "LOOKUPS_PER_PE"),
])
def test_example_runs(name, size_knob, tmp_path, monkeypatch, capsys):
    module = load_example(name)
    monkeypatch.setattr(module, size_knob, 24)
    monkeypatch.chdir(tmp_path)
    module.main()  # each example asserts its own results
    assert capsys.readouterr().out
    if name == "quickstart":
        assert (tmp_path / "quickstart_traces" / "logical_heatmap.svg").exists()


def test_timeline_export_writes_both_views(tmp_path, monkeypatch, capsys):
    module = load_example("timeline_export")
    monkeypatch.chdir(tmp_path)
    module.main()  # asserts the timeline against the overall profile
    assert "cross-check" in capsys.readouterr().out
    for name in ("timeline.svg", "utilization.svg", "trace.json"):
        assert (tmp_path / "timeline_out" / name).stat().st_size > 0


def test_bale_kernels_example_runs(tmp_path, monkeypatch, capsys):
    module = load_example("bale_kernels")
    monkeypatch.chdir(tmp_path)
    module.main()  # every kernel validates its own result
    assert "all five kernels validated" in capsys.readouterr().out
