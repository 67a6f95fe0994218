"""Host-speed calibration for the timed end-to-end metrics.

The machines this benchmark runs on share their cores with other tenants, and
the speed they give one thread drifts by up to 1.5x over tens of seconds.
That drift swamps run-to-run comparisons.  So a fixed kernel that uses none
of the program's code runs before and after every timed call and several
times a second during it, and each timed interval is scaled by
REFERENCE_S / (mean kernel time measured around and within it).  The scaled
figure reads as the time the call would take on a host that runs the kernel
in REFERENCE_S; raw times are reported alongside.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

# The kernel's median time on the baseline machine (see NOTES.md).
REFERENCE_S = 6.0e-3


def _kernel() -> np.ndarray:
    """300 RK4 steps of a small nonlinear ODE: the same mix of interpreter
    work, math calls and small-array numpy as the program's inner loops."""
    def f(v):
        return np.array([-v[0] + math.sin(v[1]), v[0] - 0.5 * v[1],
                         math.cos(v[2]) - v[2]])

    x = np.array([1.0, 0.0, 0.5])
    h = 0.01
    for _ in range(300):
        k1 = f(x)
        k2 = f(x + (0.5 * h) * k1)
        k3 = f(x + (0.5 * h) * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class Sampler:
    """Runs the kernel on demand (``mark``) and, while entered, every
    ``period`` seconds from a SIGALRM interval timer, so that long timed
    calls are calibrated by samples taken while they run.

    The timer handler runs in the main thread between bytecodes, so a sample
    never straddles a timestamp the main thread takes; ``calibrate`` removes
    the samples' own time from the interval they fell in.
    """

    def __init__(self, period: float):
        self.period = period
        # (start, end, kernel seconds) of every sample, in time order.
        self.samples: list[tuple[float, float, float]] = []
        self._old_handler = None

    def mark(self) -> None:
        t0 = perf_counter()
        k = kernel_seconds()
        self.samples.append((t0, perf_counter(), k))

    def __enter__(self) -> "Sampler":
        self._old_handler = signal.signal(signal.SIGALRM,
                                          lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def calibrate(self, start: float, end: float) -> tuple[float, float]:
        """(scale, seconds the samples took) for the interval [start, end].

        The scale uses the last sample before the interval, every sample in
        it, and the first sample after it.
        """
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        before = [s for s in self.samples if s[1] <= start][-1:]
        after = [s for s in self.samples if s[0] >= end][:1]
        ks = [k for _, _, k in before + inside + after]
        return (REFERENCE_S * len(ks) / sum(ks),
                sum(b - a for a, b, _ in inside))
