"""Shared paths, a worked toy system, and the acceptance-criteria summary hook.

Acceptance tests register one line per criterion through record_criterion;
the terminal summary prints them all, pass or fail, so a single glance at
the end of a pytest run shows where the gate stands.
"""

from __future__ import annotations

import pathlib

import numpy as np

from syncon.backstepping import BacksteppingParams
from syncon.smoothing import DecomposedFeedback, SmoothedParams
from syncon.synergy import AffinePlant, SynergisticQuadruple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"

# (criterion number, label, passed, detail), in registration order.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def toy_scalar_pieces():
    """A one-dimensional worked example with every piece written out.

    Plant xdot = u, feedback kappa = -x decomposed as varsigma = -x with a
    zero mixing matrix, so the tracker is inert and the integrator reference
    is kappa_bar = -x.  Handy for validating the composite formulas against
    hand-derived rates.  Returns (plant, q, d, sp, bp).
    """
    plant = AffinePlant(
        dim_x=1, dim_u=1,
        f=lambda x: np.zeros(1),
        g=lambda x: np.eye(1),
    )
    q = SynergisticQuadruple(
        V=lambda x, th: 0.5 * float(x[0] * x[0]),
        grad_V=lambda x, th: (np.array([x[0]]), np.zeros(1)),
        kappa=lambda x, th: np.array([-x[0]]),
        varpi=lambda x, th: np.zeros(1),
        Theta=np.array([[0.0]]),
        delta=0.1,
    )
    d = DecomposedFeedback(
        sigma=lambda x, th: np.zeros(1),
        varsigma=lambda x: np.array([-x[0]]),
        upsilon=lambda x: np.zeros((1, 1)),
        dim_tracker=1,
        c_kappa=0.0,
        d_sigma_dx=lambda x, th: np.zeros((1, 1)),
        d_sigma_dtheta=lambda x, th: np.zeros((1, 1)),
        d_varsigma_dx=lambda x: np.array([[-1.0]]),
    )
    sp = SmoothedParams(gamma_s=0.5, k_eta=5.0, delta_s=0.1)
    bp = BacksteppingParams(gamma_b=0.5, k_b=4.0, delta_b=0.1)
    return plant, q, d, sp, bp


def record_criterion(num: int, label: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((num, label, bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        mark = "PASS" if passed else "FAIL"
        line = f"[{mark}] criterion {num}: {label}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)
