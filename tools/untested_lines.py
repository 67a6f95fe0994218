"""List the lines of src/syncon/ that a pytest run never executes.

    python3 tools/untested_lines.py [pytest arguments ...]

Run from anywhere inside a syncon checkout; with no arguments it runs the
whole of tests/ quietly (``-q -p no:cacheprovider``).  Pytest runs in this
process under ``sys.settrace``; only frames whose code lives under
``src/syncon/`` record their lines, so the rest of the run pays one cheap
call per function entry.  A line counts as executable when some compiled
code object of the module maps an instruction to it (``co_lines``), which
covers modules the run never imported.  The report prints, per module, the
executed and executable counts and the line numbers that never ran, then
the totals.  Standard library only: it needs no coverage package.  The
whole tier-1 suite takes about two minutes this way.
"""

from __future__ import annotations

import itertools
import os
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "syncon"
DEFAULT_PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some instruction of the compiled file belongs to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def trace_lines(run, root: Path) -> dict[str, set[int]]:
    """Call run() and return {absolute path: executed lines} for files under
    root.  The tracer in place before the call is restored afterwards."""
    prefix = os.path.join(os.path.realpath(root), "")
    # co_filename -> its real path when that lies under root, else None.
    paths: dict[str, str | None] = {}
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[paths[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            real = os.path.realpath(name)
            paths[name] = real if real.startswith(prefix) else None
            if paths[name] is not None:
                executed[real] = set()
        return None if paths[name] is None else local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return executed


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9"."""
    out = []
    for _, run in itertools.groupby(enumerate(lines), lambda p: p[1] - p[0]):
        run = [n for _, n in run]
        out.append(str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}")
    return ", ".join(out)


def report(executed: dict[str, set[int]], root: Path) -> list[str]:
    """One line per module under root, then the totals."""
    out = []
    total_run = total_exec = 0
    root = Path(os.path.realpath(root))
    for path in sorted(root.rglob("*.py")):
        lines = executable_lines(path)
        ran = executed.get(str(path), set()) & lines
        missing = sorted(lines - ran)
        total_run += len(ran)
        total_exec += len(lines)
        out.append(f"{path.relative_to(root.parent)}: {len(ran)}/{len(lines)}"
                   + (f"  never ran: {_ranges(missing)}" if missing else ""))
    out.append(f"total: {total_run}/{total_exec}")
    return out


def main(argv=None) -> int:
    args = list(DEFAULT_PYTEST_ARGS if not argv else argv)
    sys.path.insert(0, str(PACKAGE.parent))
    status = []
    executed = trace_lines(lambda: status.append(pytest.main(args)), PACKAGE)
    for line in report(executed, PACKAGE):
        print(line)
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
