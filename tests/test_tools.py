"""tools/bench_snapshot.py writes a BENCH file of the committed shape,
tools/untested_lines.py names the lines a run never executes, and
tools/arc_digest.py digests a config's run the same way every time."""

import importlib.util
import json
import shutil
import sys

from conftest import CONFIG_DIR, REPO_ROOT


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_snapshot_has_the_shape_of_the_committed_files(tmp_path,
                                                             monkeypatch):
    """Same keys as BENCH_4.json at every level above the metrics, plus the
    untraced runs under "untraced", numbered one past the highest existing
    file; the benchmark itself is stubbed."""
    tool = load_tool("bench_snapshot")
    committed = json.loads((REPO_ROOT / "BENCH_4.json").read_text())
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copy(REPO_ROOT / "BENCH_4.json", tmp_path)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    calls = []

    def untraced_result(name):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": len(name), "unit": "s"}}}

    def fake_run(name, trace):
        calls.append((name, trace))
        result = committed["workloads"][name] if trace else untraced_result(name)
        return {**committed["env"], "workload": name}, result

    monkeypatch.setattr(tool, "run_workload", fake_run)
    assert tool.main(["--source", "stub"]) == 0
    out = json.loads((tmp_path / "BENCH_5.json").read_text())
    assert calls == [(name, trace) for name in committed["workloads"]
                     for trace in (1, 0)]
    assert out.keys() == committed.keys() | {"untraced"}
    assert out["command"] == committed["command"]
    assert out["env"] == committed["env"]
    assert out["workloads"] == committed["workloads"]
    assert out["untraced"] == {
        "command": committed["command"].replace("--trace 1", "--trace 0"),
        "workloads": {name: untraced_result(name)
                      for name in committed["workloads"]},
    }


TOY = '''\
"""A toy module."""


def sign(x):
    if x > 0:
        return 1
    return -1
'''


def test_untested_lines_names_the_branch_not_taken(tmp_path):
    """Only the untaken return is reported, only files under the traced
    directory are recorded, and a tracer already installed comes back."""
    tool = load_tool("untested_lines")
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "toy.py").write_text(TOY)
    (pkg / "unused.py").write_text("X = 1\n")

    def run():
        spec = importlib.util.spec_from_file_location("toy", pkg / "toy.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sign(2) == 1

    def outer(frame, event, arg):
        return None

    sys.settrace(outer)
    try:
        executed = tool.trace_lines(run, pkg)
        assert sys.gettrace() is outer
    finally:
        sys.settrace(None)
    assert list(executed) == [str((pkg / "toy.py").resolve())]
    assert tool.report(executed, pkg) == [
        "toypkg/toy.py: 4/5  never ran: 7",
        "toypkg/unused.py: 0/1  never ran: 1",
        "total: 4/6",
    ]


def test_arc_digest_is_the_same_on_a_second_run():
    """Two runs of one config digest alike: no wall time, temporary path or
    other run-to-run detail reaches the hash."""
    tool = load_tool("arc_digest")
    path = CONFIG_DIR / "fig2_check.json"
    first = tool.config_digest(path)
    assert len(first) == 64 and int(first, 16) >= 0
    assert tool.config_digest(path) == first
