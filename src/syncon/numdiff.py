"""Central finite differences with relative step sizing.

The test suite's independent reference for the analytic derivatives; no
run path calls these.  The step for coordinate i is ``step * max(1, |x_i|)``
so the stencil stays sensible for both tiny and large coordinates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_STEP = 1e-6


def central_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                     step: float = DEFAULT_STEP) -> np.ndarray:
    """Jacobian of a vector function, one output row per component of fn."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(fn(xp), dtype=float)
                     - np.asarray(fn(xm), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


def central_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                     step: float = DEFAULT_STEP) -> np.ndarray:
    """Gradient of a scalar function by central differences: the one row of
    the Jacobian of [f]."""
    return central_jacobian(lambda v: [f(v)], x, step)[0]
