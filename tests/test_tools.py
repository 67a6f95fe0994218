"""tools/bench_snapshot.py writes a BENCH file of the committed shape."""

import importlib.util
import json
import shutil

from conftest import REPO_ROOT


def load_snapshot_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", REPO_ROOT / "tools" / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_snapshot_has_the_shape_of_the_committed_files(tmp_path,
                                                             monkeypatch):
    """Same keys as BENCH_4.json at every level above the metrics, numbered
    one past the highest existing file; the benchmark itself is stubbed."""
    tool = load_snapshot_tool()
    committed = json.loads((REPO_ROOT / "BENCH_4.json").read_text())
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copy(REPO_ROOT / "BENCH_4.json", tmp_path)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    calls = []

    def fake_run(name):
        calls.append(name)
        return ({**committed["env"], "workload": name},
                committed["workloads"][name])

    monkeypatch.setattr(tool, "run_workload", fake_run)
    assert tool.main(["--source", "stub"]) == 0
    out = json.loads((tmp_path / "BENCH_5.json").read_text())
    assert calls == list(committed["workloads"])
    assert out.keys() == committed.keys()
    assert out["command"] == committed["command"]
    assert out["env"] == committed["env"]
    assert out["workloads"] == committed["workloads"]
