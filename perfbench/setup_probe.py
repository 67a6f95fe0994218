"""Set a workload up in a fresh interpreter and stop at its first simulate.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the program, builds the workload from the seed, and starts its first
pass; the first call of ``simulate`` prints ``time.monotonic()`` and ends the
process.  The caller reads that clock against its own from before the spawn,
so the set-up time covers interpreter start, imports, config parsing and
closed-loop construction.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class Ready(BaseException):
    """Raised by the first simulate call; not an Exception, so the workload's
    own per-arc error handling lets it through."""


def main() -> int:
    import workloads
    from syncon import engine, harness

    def first_simulate(*args, **kwargs):
        raise Ready(time.monotonic())

    engine.simulate = harness.simulate = first_simulate
    try:
        workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).run_pass()
    except Ready as ready:
        print(repr(ready.args[0]))
        return 0
    print("the workload never called simulate", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
