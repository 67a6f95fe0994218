"""Shared paths, a worked toy system, and the acceptance-criteria summary hook.

Acceptance tests register one line per criterion through record_criterion;
the terminal summary prints them all, pass or fail, so a single glance at
the end of a pytest run shows where the gate stands.
"""

from __future__ import annotations

import importlib.util
import math
import pathlib

import numpy as np

from syncon.backstepping import BacksteppingParams
from syncon.navigation import switch_offset, switched_potential, tracked_input
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


def toy_state_offset_pieces():
    """A second one-dimensional worked example, whose offset reads x.

    Plant xdot = u, V = (x^2 + theta^2)/2, sigma = -0.5 x (1 + 0.5 sin theta),
    varsigma = -x, Upsilon = 1, kappa = varsigma + Upsilon sigma and varpi =
    -theta, over Theta = [0, 0.7] with gap 1.  The base family decreases
    along its flows, and d sigma/dx is not zero, so grad_x V_s differs from
    grad_x V.  Returns (plant, q, d, sp, bp).
    """
    plant = AffinePlant(
        dim_x=1, dim_u=1,
        f=lambda x: np.zeros(1),
        g=lambda x: np.eye(1),
    )

    def sigma(x, th):
        return np.array([-0.5 * x[0] * (1.0 + 0.5 * math.sin(th[0]))])

    q = SynergisticQuadruple(
        V=lambda x, th: 0.5 * float(x[0] ** 2 + th[0] ** 2),
        grad_V=lambda x, th: (np.array([x[0]]), np.array([th[0]])),
        kappa=lambda x, th: np.array([-x[0]]) + sigma(x, th),
        varpi=lambda x, th: np.array([-th[0]]),
        Theta=np.array([0.0, 0.7]),
        delta=1.0,
    )
    d = DecomposedFeedback(
        sigma=sigma,
        varsigma=lambda x: np.array([-x[0]]),
        upsilon=lambda x: np.eye(1),
        dim_tracker=1,
        c_kappa=0.5,
        d_sigma_dx=lambda x, th: np.array([[-0.5 * (1.0 + 0.5 * math.sin(th[0]))]]),
        d_sigma_dtheta=lambda x, th: np.array([[-0.25 * x[0] * math.cos(th[0])]]),
        d_varsigma_dx=lambda x: np.array([[-1.0]]),
    )
    sp = SmoothedParams(gamma_s=0.3, k_eta=0.05, delta_s=0.2)
    bp = BacksteppingParams(gamma_b=0.7, k_b=0.05, delta_b=0.2)
    return plant, q, d, sp, bp


def base_rate(plant, q, x, th):
    """The base loop's Vdot: grad_x V . (f + g kappa) + grad_theta V . varpi,
    the rate each layer's Lyapunov function must meet, less its penalties."""
    gx, gth = q.grad_V(x, th)
    xdot = plant.f(x) + plant.g(x) @ q.kappa(x, th)
    return float(gx @ xdot + gth @ q.varpi(x, th))


def loop_potential(world, gains, sp, bp, v, th):
    """A switched navigation loop's V at the packed state v = [p(, eta(, u)),
    ...] and angle th, built layer on layer from the public float helpers:
    the rotated potential, plus (gamma_s/2)||eta - sigma(th)||^2 when ``sp``
    is given, plus (gamma_b/2)||u - tracked input||^2 when ``bp`` is too.
    It follows the loops' order of operations, so it gives their bits."""
    V = switched_potential(world, gains, v[:2], th, check=False)
    if sp is None:
        return V
    e1, e2 = (np.asarray(v[2:4]) - switch_offset(world, th)).tolist()
    V = V + 0.5 * sp.gamma_s * (e1 * e1 + e2 * e2)
    if bp is None:
        return V
    f1, f2 = (np.asarray(v[4:6])
              - tracked_input(world, gains, v[:2], v[2:4])).tolist()
    return V + 0.5 * bp.gamma_b * (f1 * f1 + f2 * f2)


def load_tool(name):
    """The module of tools/<name>.py."""
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
