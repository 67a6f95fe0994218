"""Remove switching discontinuities from the applied input by tracking.

A synergistic feedback that decomposes as kappa = varsigma(x) + Upsilon(x)
sigma(x, theta) carries its entire theta-dependence in sigma.  Replacing
sigma by an integrator state eta that tracks it turns the applied input into
kappa_bar(x, eta) = varsigma(x) + Upsilon(x) eta, which no longer reads theta
and therefore stays continuous across switches.  The tracker input kappa_s
combines feedforward of sigma's time derivative, proportional tracking, and
a Lyapunov cross-term; the augmented family keeps the synergistic structure
with a reduced gap delta_s.

Bounds that make this work: with c_kappa a bound satisfying
max over Theta of ||sigma(x, theta) - sigma(x, theta_bar)||^2 <= 2 c_kappa
away from the target set, the tracker weight must satisfy
0 < gamma_s < delta / c_kappa and the reduced gap
0 < delta_s <= delta - gamma_s c_kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numdiff
from .errors import ParamBoundViolation
from .synergy import AffinePlant, SynergisticQuadruple


@dataclass
class DecomposedFeedback:
    """The pieces of kappa(x, theta) = varsigma(x) + Upsilon(x) sigma(x, theta).

    sigma           (x, theta) -> (s,) switch-dependent part
    varsigma        x -> (m,) switch-independent part
    upsilon         x -> (m, s) mixing matrix
    dim_tracker     s, the length of sigma's output
    c_kappa         spread bound for sigma across Theta (see module docstring)
    d_sigma_dx      optional (x, theta) -> (s, n); finite differences if None
    d_sigma_dtheta  optional (x, theta) -> (s, r); finite differences if None
    """

    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    varsigma: Callable[[np.ndarray], np.ndarray]
    upsilon: Callable[[np.ndarray], np.ndarray]
    dim_tracker: int
    c_kappa: float
    d_sigma_dx: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    d_sigma_dtheta: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim_tracker < 1:
            raise ValueError(f"dim_tracker must be >= 1, got {self.dim_tracker}")
        if not (self.c_kappa >= 0.0 and np.isfinite(self.c_kappa)):
            raise ValueError(f"c_kappa must be finite and >= 0, got {self.c_kappa}")

    def sigma_jac_x(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        if self.d_sigma_dx is not None:
            return np.asarray(self.d_sigma_dx(x, theta), dtype=float)
        return numdiff.central_jacobian(lambda xv: self.sigma(xv, theta), x)

    def sigma_jac_theta(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        if self.d_sigma_dtheta is not None:
            return np.asarray(self.d_sigma_dtheta(x, theta), dtype=float)
        return numdiff.central_jacobian(lambda tv: self.sigma(x, tv), theta)


@dataclass(frozen=True)
class SmoothedParams:
    """Tracker weight, tracker gain, and reduced synergy gap."""

    gamma_s: float
    k_eta: float
    delta_s: float

    def __post_init__(self):
        for name in ("gamma_s", "k_eta", "delta_s"):
            v = getattr(self, name)
            if not (v > 0.0 and np.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")


def validate_smoothed_params(q: SynergisticQuadruple, d: DecomposedFeedback,
                             p: SmoothedParams) -> None:
    """Check the admissibility bounds; raises ParamBoundViolation."""
    problems = []
    if d.c_kappa > 0.0:
        bound = q.delta / d.c_kappa
        if not p.gamma_s < bound:
            problems.append(
                f"gamma_s = {p.gamma_s:.6g} must be < delta / c_kappa = {bound:.6g}")
    slack = q.delta - p.gamma_s * d.c_kappa
    if not p.delta_s <= slack:
        problems.append(
            f"delta_s = {p.delta_s:.6g} must be <= delta - gamma_s * c_kappa "
            f"= {slack:.6g}")
    if problems:
        raise ParamBoundViolation("; ".join(problems))


def check_reconstruction(q: SynergisticQuadruple, d: DecomposedFeedback,
                         states: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """Worst mismatch of varsigma + Upsilon sigma against kappa over states."""
    worst = 0.0
    for x, theta in states:
        x = np.asarray(x, float)
        theta = np.atleast_1d(np.asarray(theta, float))
        rebuilt = (np.asarray(d.varsigma(x), float)
                   + np.asarray(d.upsilon(x), float)
                   @ np.asarray(d.sigma(x, theta), float))
        mismatch = rebuilt - np.asarray(q.kappa(x, theta), float)
        worst = max(worst, float(np.max(np.abs(mismatch))))
    return worst


def tracked_feedback(d: DecomposedFeedback, x: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Applied input varsigma(x) + Upsilon(x) eta; reads eta, never theta."""
    return (np.asarray(d.varsigma(x), dtype=float)
            + np.asarray(d.upsilon(x), dtype=float) @ np.asarray(eta, dtype=float))


def tracking_lyapunov(q: SynergisticQuadruple, d: DecomposedFeedback,
                      p: SmoothedParams, x: np.ndarray, eta: np.ndarray,
                      theta: np.ndarray) -> float:
    """V plus a weighted tracking penalty: V + (gamma_s/2) ||eta - sigma||^2."""
    err = np.asarray(eta, float) - np.asarray(d.sigma(x, theta), float)
    return float(q.V(x, theta) + 0.5 * p.gamma_s * float(err @ err))


def grad_tracking_lyapunov(q: SynergisticQuadruple, d: DecomposedFeedback,
                           p: SmoothedParams, x: np.ndarray, eta: np.ndarray,
                           theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the tracking Lyapunov function wrt x, eta, theta."""
    gx, gth = q.grad_V(x, theta)
    err = np.asarray(eta, float) - np.asarray(d.sigma(x, theta), float)
    jx = d.sigma_jac_x(x, theta)
    jth = d.sigma_jac_theta(x, theta)
    grad_x = np.asarray(gx, float).ravel() - p.gamma_s * (jx.T @ err)
    grad_eta = p.gamma_s * err
    grad_theta = np.asarray(gth, float).ravel() - p.gamma_s * (jth.T @ err)
    return grad_x, grad_eta, grad_theta


def sigma_time_derivative(plant: AffinePlant, q: SynergisticQuadruple,
                          d: DecomposedFeedback, x: np.ndarray, eta: np.ndarray,
                          theta: np.ndarray) -> np.ndarray:
    """Time derivative of sigma along the tracked closed loop.

    Chain rule through xdot = f + g kappa_bar and thetadot = varpi.
    """
    xdot = (np.asarray(plant.f(x), dtype=float)
            + np.asarray(plant.g(x), dtype=float) @ tracked_feedback(d, x, eta))
    return (d.sigma_jac_x(x, theta) @ xdot
            + d.sigma_jac_theta(x, theta) @ np.asarray(q.varpi(x, theta), dtype=float))


def tracker_control(plant: AffinePlant, q: SynergisticQuadruple,
                    d: DecomposedFeedback, p: SmoothedParams, x: np.ndarray,
                    eta: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Input driving eta: tracking + feedforward + Lyapunov cross-term."""
    err = np.asarray(eta, float) - np.asarray(d.sigma(x, theta), float)
    gx, _ = q.grad_V(x, theta)
    cross = (np.asarray(d.upsilon(x), float).T
             @ np.asarray(plant.g(x), float).T @ np.asarray(gx, float).ravel())
    return (-p.k_eta * err
            + sigma_time_derivative(plant, q, d, x, eta, theta)
            - cross / p.gamma_s)


def smoothed_quadruple(plant: AffinePlant, q: SynergisticQuadruple,
                       d: DecomposedFeedback,
                       p: SmoothedParams) -> tuple[AffinePlant, SynergisticQuadruple]:
    """Augment the plant with the tracker state and rebuild the quadruple.

    Returns (plant_s, q_s) over the augmented state xs = [x | eta]: the drift
    carries xdot = f + g kappa_bar with eta held, the new input channel
    drives eta directly, and q_s bundles the tracking Lyapunov function, the
    tracker control, the original varpi and Theta, and the reduced gap
    delta_s.  Compose with assemble_closed_loop to simulate.  Raises
    ParamBoundViolation when p violates its bounds.
    """
    validate_smoothed_params(q, d, p)
    n = plant.dim_x
    s = d.dim_tracker
    eye_s = np.eye(s)

    def f_s(xs: np.ndarray) -> np.ndarray:
        x = xs[:n]
        eta = xs[n:]
        xdot = (np.asarray(plant.f(x), dtype=float)
                + np.asarray(plant.g(x), dtype=float) @ tracked_feedback(d, x, eta))
        return np.concatenate([xdot, np.zeros(s)])

    def g_s(xs: np.ndarray) -> np.ndarray:
        out = np.zeros((n + s, s))
        out[n:, :] = eye_s
        return out

    safety = None
    if plant.safety_indicator is not None:
        parent_safety = plant.safety_indicator

        def safety(xs: np.ndarray) -> float:
            return parent_safety(xs[:n])

    def V_s(xs: np.ndarray, theta: np.ndarray) -> float:
        return tracking_lyapunov(q, d, p, xs[:n], xs[n:], theta)

    def grad_V_s(xs: np.ndarray, theta: np.ndarray):
        gx, geta, gth = grad_tracking_lyapunov(q, d, p, xs[:n], xs[n:], theta)
        return np.concatenate([gx, geta]), gth

    def kappa_s(xs: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return tracker_control(plant, q, d, p, xs[:n], xs[n:], theta)

    def varpi_s(xs: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return q.varpi(xs[:n], theta)

    plant_s = AffinePlant(dim_x=n + s, dim_u=s, f=f_s, g=g_s,
                          safety_indicator=safety)
    q_s = SynergisticQuadruple(V=V_s, grad_V=grad_V_s, kappa=kappa_s,
                               varpi=varpi_s, Theta=q.Theta.copy(), delta=p.delta_s)
    return plant_s, q_s
