"""Unit tests for the integrator backstepping layer."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import base_rate, toy_scalar_pieces, toy_state_offset_pieces
from syncon import backstepping, numdiff
from syncon.backstepping import (
    BacksteppingParams,
    backstep_control,
    backstep_lyapunov,
    backstepped_quadruple,
    reference_time_derivative,
    validate_backstepping_params,
)
from syncon.errors import ParamBoundViolation
from syncon.smoothing import (
    DecomposedFeedback,
    SmoothedParams,
    tracked_feedback,
    tracker_control,
    validate_smoothed_params,
)
from syncon.synergy import AffinePlant, SynergisticQuadruple


def bent_family():
    """1-d pieces with a state-dependent mixing matrix.

    sigma = sin(theta) + 0.3 x, Upsilon = 1 + 0.1 x^2, so both Jacobian
    routes through the feedforward are exercised.
    """
    plant = AffinePlant(
        dim_x=1, dim_u=1,
        f=lambda x: np.array([0.5 * x[0]]),
        g=lambda x: np.eye(1),
    )

    def ups(x):
        return np.array([[1.0 + 0.1 * x[0] ** 2]])

    def sig(x, th):
        return np.array([math.sin(th[0]) + 0.3 * x[0]])

    q = SynergisticQuadruple(
        V=lambda x, th: 0.5 * float(x[0] ** 2 + th[0] ** 2),
        grad_V=lambda x, th: (np.array([x[0]]), np.array([th[0]])),
        kappa=lambda x, th: np.array([-x[0]]) + ups(x) @ sig(x, th),
        varpi=lambda x, th: np.array([-th[0]]),
        Theta=np.array([0.0, 0.7]),
        delta=1.0,
    )
    d = DecomposedFeedback(
        sigma=sig,
        varsigma=lambda x: np.array([-x[0]]),
        upsilon=ups,
        dim_tracker=1,
        c_kappa=2.0,
        d_sigma_dx=lambda x, th: np.array([[0.3]]),
        d_sigma_dtheta=lambda x, th: np.array([[math.cos(th[0])]]),
        d_varsigma_dx=lambda x: np.array([[-1.0]]),
        d_upsilon_dx=lambda x: [np.array([[0.2 * x[0]]])],
    )
    sp = SmoothedParams(gamma_s=0.3, k_eta=4.0, delta_s=0.2)
    bp = BacksteppingParams(gamma_b=0.7, k_b=3.0, delta_b=0.2)
    return plant, q, d, sp, bp


def test_backstepping_params_require_positive_entries():
    for bad in (dict(gamma_b=0.0, k_b=1.0, delta_b=0.1),
                dict(gamma_b=0.1, k_b=-2.0, delta_b=0.1),
                dict(gamma_b=0.1, k_b=1.0, delta_b=math.nan)):
        with pytest.raises(ValueError):
            BacksteppingParams(**bad)


def test_validate_backstepping_params_bound():
    plant, q, d, sp, bp = toy_scalar_pieces()
    # The toy spread bound is zero, so the slack is the full gap delta = 0.1.
    validate_backstepping_params(q.delta, d.c_kappa, sp, bp)
    with pytest.raises(ParamBoundViolation, match="delta_b"):
        validate_backstepping_params(
            q.delta, d.c_kappa, sp,
            BacksteppingParams(gamma_b=0.5, k_b=4.0, delta_b=0.11))


@pytest.mark.parametrize("make_bound, make_params, bound_line, positivity", [
    (lambda sp: validate_smoothed_params(0.1, 1.0, sp),
     lambda: SmoothedParams(gamma_s=0.05, k_eta=-1.0, delta_s=0.2),
     "delta_s = 0.2 must be <= delta - gamma_s * c_kappa = 0.05",
     "k_eta must be positive and finite, got -1.0"),
    (lambda sp: validate_backstepping_params(
        0.1, 1.0, sp, BacksteppingParams(gamma_b=1.0, k_b=1.0, delta_b=0.2)),
     lambda: BacksteppingParams(gamma_b=1.0, k_b=math.nan, delta_b=0.1),
     "delta_b = 0.2 must be <= delta - gamma_s * c_kappa = 0.05",
     "k_b must be positive and finite, got nan"),
], ids=["smoothed", "backstepped"])
def test_each_layer_words_its_bounds_the_same(make_bound, make_params,
                                               bound_line, positivity):
    """Both layers' reduced-gap bound lines and parameter positivity
    messages, word for word."""
    with pytest.raises(ParamBoundViolation) as info:
        make_bound(SmoothedParams(gamma_s=0.05, k_eta=1.0, delta_s=0.2))
    assert str(info.value) == bound_line
    with pytest.raises(ValueError) as info:
        make_params()
    assert str(info.value) == positivity


def test_toy_control_matches_hand_formula():
    plant, q, d, sp, bp = toy_scalar_pieces()
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-3, 3, 1)
        eta = rng.uniform(-2, 2, 1)
        u = rng.uniform(-3, 3, 1)
        got = backstep_control(plant, q, d, sp, bp, x, eta, u, np.zeros(1))
        # Following gain k_b = 4 on u + x, feedforward -u, cross-term x/gamma_b.
        expect = (-bp.k_b * (u[0] + x[0]) - u[0] - x[0] / bp.gamma_b)
        assert got[0] == pytest.approx(expect, abs=1e-12)

    got = backstep_control(plant, q, d, sp, bp,
                           np.array([2.0]), np.array([0.3]),
                           np.array([-1.0]), np.zeros(1))
    assert got[0] == pytest.approx(-7.0, abs=1e-12)


def test_composite_gradient_matches_finite_differences():
    plant, q, d, sp, bp = bent_family()
    _, q_b = backstepped_quadruple(plant, q, d, sp, bp)
    rng = np.random.default_rng(8)
    for _ in range(20):
        xb = rng.uniform(-2, 2, 3)
        th = rng.uniform(-1, 1, 1)
        gxb, gth = q_b.grad_V(xb, th)

        fd_x = numdiff.central_gradient(lambda v: q_b.V(v, th), xb)
        fd_t = numdiff.central_gradient(lambda v: q_b.V(xb, v), th)
        assert np.all(np.abs(gxb - fd_x) <= 1e-7 + 1e-6 * np.abs(fd_x))
        assert np.all(np.abs(gth - fd_t) <= 1e-7 + 1e-6 * np.abs(fd_t))


def test_reference_derivative_matches_time_differencing():
    plant, q, d, sp, bp = bent_family()
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(-2, 2, 1)
        eta = rng.uniform(-2, 2, 1)
        u = rng.uniform(-2, 2, 1)
        th = rng.uniform(-1, 1, 1)
        got = reference_time_derivative(plant, q, d, sp, x, eta, u, th)

        xdot = plant.f(x) + plant.g(x) @ u
        etadot = tracker_control(plant, q, d, sp, x, eta, th)
        fd = (tracked_feedback(d, x + h * xdot, eta + h * etadot)
              - tracked_feedback(d, x - h * xdot, eta - h * etadot)) / (2.0 * h)
        assert abs(float(got[0] - fd[0])) <= 1e-7 + 1e-5 * abs(float(fd[0]))


@pytest.mark.parametrize("pieces", [toy_scalar_pieces, toy_state_offset_pieces],
                         ids=["scalar", "state_offset"])
def test_toy_composite_flow_dissipates_at_the_book_rate(pieces):
    """Vdot_b is the base loop's rate less gamma_s k_eta ||eta - sigma||^2
    and gamma_b k_b ||u - kappa_bar||^2."""
    plant, q, d, sp, bp = pieces()
    plant_b, q_b = backstepped_quadruple(plant, q, d, sp, bp)
    rng = np.random.default_rng(12)
    for _ in range(25):
        xb = rng.uniform(-2, 2, 3)
        th = rng.uniform(-1, 1, 1)
        gxb, gth = q_b.grad_V(xb, th)
        flow = plant_b.f(xb) + plant_b.g(xb) @ q_b.kappa(xb, th)
        vdot = float(gxb @ flow + gth @ q_b.varpi(xb, th))

        x, eta, u = xb[:1], xb[1:2], xb[2:]
        err_s = eta - d.sigma(x, th)
        err_b = u - tracked_feedback(d, x, eta)
        expect = (base_rate(plant, q, x, th)
                  - sp.gamma_s * sp.k_eta * float(err_s @ err_s)
                  - bp.gamma_b * bp.k_b * float(err_b @ err_b))
        assert vdot == pytest.approx(expect, abs=1e-10)


def test_backstepped_quadruple_wiring():
    plant, q, d, sp, bp = bent_family()
    plant.safety_indicator = lambda x: float(x[0]) - 5.0
    plant_b, q_b = backstepped_quadruple(plant, q, d, sp, bp)

    assert plant_b.dim_x == 3
    assert plant_b.dim_u == 2
    assert q_b.delta == bp.delta_b
    assert np.array_equal(q_b.Theta, q.Theta)
    assert q_b.Theta is not q.Theta

    xb = np.array([0.5, -0.2, 0.8])
    th = np.array([0.3])
    # Physical state flows under the integrator value u, not the reference;
    # the drift holds eta and u.
    assert list(plant_b.f(xb)) == [0.5 * xb[0] + xb[2], 0.0, 0.0]
    # One input channel drives eta, the other u.
    assert plant_b.g(xb).tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    kappa = q_b.kappa(xb, th)
    assert kappa[0] == tracker_control(plant, q, d, sp, xb[:1], xb[1:2], th)[0]
    assert kappa[1] == backstep_control(plant, q, d, sp, bp, xb[:1], xb[1:2],
                                        xb[2:], th)[0]

    assert q_b.V(xb, th) == pytest.approx(
        backstep_lyapunov(q, d, sp, bp, xb[:1], xb[1:2], xb[2:], th))
    assert plant_b.safety_indicator(xb) == plant.safety_indicator(xb[:1])


def test_the_backstepped_input_runs_the_tracker_once(monkeypatch):
    """kappa_b hands the tracker control it computes for the eta channel to
    the integrator input, whose feedforward needs it too: one tracker call
    and two base gradients (the tracker's cross term and grad_x V_s) per
    input, with the bits of the public functions."""
    plant, q, d, sp, bp = toy_state_offset_pieces()
    calls = {"tracker": 0, "grad_V": 0}

    def counted_grad_V(x, th):
        calls["grad_V"] += 1
        return q.grad_V(x, th)

    def counted_tracker(*args):
        calls["tracker"] += 1
        return tracker_control(*args)

    _, q_b = backstepped_quadruple(
        plant, dataclasses.replace(q, grad_V=counted_grad_V), d, sp, bp)
    monkeypatch.setattr(backstepping, "tracker_control", counted_tracker)
    xb, th = np.array([0.4, -0.3, 0.9]), np.array([0.7])
    kappa = q_b.kappa(xb, th)
    assert calls == {"tracker": 1, "grad_V": 2}
    x, eta, u = xb[:1], xb[1:2], xb[2:]
    assert kappa.tolist() == [
        tracker_control(plant, q, d, sp, x, eta, th)[0],
        backstep_control(plant, q, d, sp, bp, x, eta, u, th)[0]]


def test_a_given_tracker_control_is_used_as_is():
    """backstep_control and reference_time_derivative compute the tracker
    control unless the caller passes it as etadot; the tracker's own value
    gives the same bits, and any other value is used instead."""
    plant, q, d, sp, bp = bent_family()
    rng = np.random.default_rng(13)
    for _ in range(10):
        x, eta, u, th = (rng.uniform(-2, 2, 1) for _ in range(4))
        etadot = tracker_control(plant, q, d, sp, x, eta, th)
        assert reference_time_derivative(
            plant, q, d, sp, x, eta, u, th, etadot=etadot).tolist() == \
            reference_time_derivative(plant, q, d, sp, x, eta, u, th).tolist()
        assert backstep_control(
            plant, q, d, sp, bp, x, eta, u, th, etadot=etadot).tolist() == \
            backstep_control(plant, q, d, sp, bp, x, eta, u, th).tolist()
        other = etadot + 1.0
        assert reference_time_derivative(
            plant, q, d, sp, x, eta, u, th, etadot=other).tolist() != \
            reference_time_derivative(plant, q, d, sp, x, eta, u, th).tolist()


def test_backstepped_quadruple_rejects_bad_gap():
    plant, q, d, sp, _ = bent_family()
    # Slack is delta - gamma_s c_kappa = 1 - 0.6 = 0.4.
    bad = BacksteppingParams(gamma_b=0.7, k_b=3.0, delta_b=0.5)
    with pytest.raises(ParamBoundViolation):
        backstepped_quadruple(plant, q, d, sp, bad)
