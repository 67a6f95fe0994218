"""Push the smoothed feedback through one integrator.

For a plant whose physical input is itself a state u (an actuator integrator
udot = v), the tracked feedback kappa_bar becomes a reference that u must
follow.  The composite Lyapunov function adds a weighted following penalty,

    V_b = V_s + (gamma_b / 2) ||u - kappa_bar(x, eta)||^2,

and the new input v = kappa_b combines proportional following, feedforward of
kappa_bar's time derivative, and the Lyapunov cross-term g^T grad_x V_s,
which cancels the tracking stage's V_s along the following error.  The
feedforward needs the x-Jacobians of varsigma and of each column of
Upsilon, which the DecomposedFeedback carries next to sigma's.  The
augmented family keeps the synergistic structure with a gap
delta_b <= delta - gamma_s c_kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamBoundViolation
from .smoothing import (
    DecomposedFeedback,
    SmoothedParams,
    _PositiveParams,
    _reduced_gap_lines,
    grad_tracking_lyapunov,
    tracked_feedback,
    tracker_control,
    tracking_lyapunov,
)
from .synergy import AffinePlant, SynergisticQuadruple, augmented_family


@dataclass(frozen=True)
class BacksteppingParams(_PositiveParams):
    """Following weight, following gain, and the composite synergy gap."""

    gamma_b: float
    k_b: float
    delta_b: float


def validate_backstepping_params(delta: float, c_kappa: float,
                                 sp: SmoothedParams,
                                 bp: BacksteppingParams) -> None:
    """Check delta_b <= delta - gamma_s c_kappa; raises ParamBoundViolation.

    delta is the core gap and c_kappa the offset spread, as for
    validate_smoothed_params, which checks sp itself.
    """
    problems = _reduced_gap_lines("delta_b", bp.delta_b, delta, sp.gamma_s, c_kappa)
    if problems:
        raise ParamBoundViolation("; ".join(problems))


def _kappa_bar_jac_x(d: DecomposedFeedback, x: np.ndarray,
                     eta: np.ndarray) -> np.ndarray:
    """x-Jacobian of kappa_bar: d varsigma + sum_i eta_i d Upsilon_i."""
    out = np.array(d.d_varsigma_dx(x), dtype=float, copy=True)
    if d.d_upsilon_dx is not None:
        cols = d.d_upsilon_dx(x)
        for i, dcol in enumerate(cols):
            out += eta[i] * np.asarray(dcol, dtype=float)
    return out


def reference_time_derivative(plant: AffinePlant, q: SynergisticQuadruple,
                              d: DecomposedFeedback, sp: SmoothedParams,
                              x: np.ndarray, eta: np.ndarray, u: np.ndarray,
                              theta: np.ndarray, *,
                              etadot: np.ndarray | None = None) -> np.ndarray:
    """Time derivative of kappa_bar along the composite closed loop.

    etadot is the tracker control, computed here unless the caller already
    holds it, and xdot = f + g u with the integrator state u as the
    physical input.
    """
    if etadot is None:
        etadot = tracker_control(plant, q, d, sp, x, eta, theta)
    return (np.asarray(d.upsilon(x), dtype=float) @ etadot
            + _kappa_bar_jac_x(d, x, eta) @ plant.flow(x, u))


def backstep_lyapunov(q: SynergisticQuadruple, d: DecomposedFeedback,
                      sp: SmoothedParams, bp: BacksteppingParams,
                      x: np.ndarray, eta: np.ndarray, u: np.ndarray,
                      theta: np.ndarray) -> float:
    """Tracking Lyapunov function plus the integrator-following penalty."""
    err = np.asarray(u, float) - tracked_feedback(d, x, eta)
    return (tracking_lyapunov(q, d, sp, x, eta, theta)
            + 0.5 * bp.gamma_b * float(err @ err))


def backstep_control(plant: AffinePlant, q: SynergisticQuadruple,
                     d: DecomposedFeedback, sp: SmoothedParams,
                     bp: BacksteppingParams, x: np.ndarray, eta: np.ndarray,
                     u: np.ndarray, theta: np.ndarray, *,
                     etadot: np.ndarray | None = None) -> np.ndarray:
    """Integrator input: following + feedforward + Lyapunov cross-term.

    The cross term g^T grad_x V_s cancels the tracking stage's V_s along the
    following error u - kappa_bar; grad_x V_s equals grad_x V only where
    sigma does not depend on x.  etadot, the tracker control, goes to
    reference_time_derivative, which computes it unless the caller holds it.
    """
    err = np.asarray(u, float) - tracked_feedback(d, x, eta)
    gx, _, _ = grad_tracking_lyapunov(q, d, sp, x, eta, theta)
    cross = np.asarray(plant.g(x), float).T @ gx
    return (-bp.k_b * err
            + reference_time_derivative(plant, q, d, sp, x, eta, u, theta,
                                        etadot=etadot)
            - cross / bp.gamma_b)


def backstepped_quadruple(plant: AffinePlant, q: SynergisticQuadruple,
                          d: DecomposedFeedback, sp: SmoothedParams,
                          bp: BacksteppingParams
                          ) -> tuple[AffinePlant, SynergisticQuadruple]:
    """Augment with tracker and integrator states; rebuild the quadruple.

    Returns (plant_b, q_b) over xb = [x | eta | u], built by
    augmented_family.  The drift carries the physical flow xdot = f + g u
    and holds eta and u; two input channels drive them, and q_b's kappa is
    [tracker control kappa_s, integrator input kappa_b].  Compose with
    assemble_closed_loop to simulate.  Raises ParamBoundViolation when
    delta_b violates its bound.
    """
    validate_backstepping_params(q.delta, d.c_kappa, sp, bp)
    n = plant.dim_x
    s = d.dim_tracker

    def V_b(xb: np.ndarray, theta: np.ndarray) -> float:
        return backstep_lyapunov(q, d, sp, bp, xb[:n], xb[n:n + s],
                                 xb[n + s:], theta)

    def grad_V_b(xb: np.ndarray, theta: np.ndarray):
        x, eta, u = xb[:n], xb[n:n + s], xb[n + s:]
        gx, geta, gth = grad_tracking_lyapunov(q, d, sp, x, eta, theta)
        err = np.asarray(u, float) - tracked_feedback(d, x, eta)
        gx = gx - bp.gamma_b * (_kappa_bar_jac_x(d, x, eta).T @ err)
        geta = geta - bp.gamma_b * (np.asarray(d.upsilon(x), float).T @ err)
        gu = bp.gamma_b * err
        return np.concatenate([gx, geta, gu]), gth

    def kappa_b(xb: np.ndarray, theta: np.ndarray) -> np.ndarray:
        x, eta, u = xb[:n], xb[n:n + s], xb[n + s:]
        etadot = tracker_control(plant, q, d, sp, x, eta, theta)
        return np.concatenate([etadot, backstep_control(
            plant, q, d, sp, bp, x, eta, u, theta, etadot=etadot)])

    return augmented_family(plant, q, s + plant.dim_u, lambda xb: xb[n + s:],
                            V_b, grad_V_b, kappa_b, bp.delta_b)
