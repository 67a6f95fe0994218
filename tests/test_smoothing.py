"""Unit tests for the switch-tracking (input smoothing) layer."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import base_rate, toy_scalar_pieces, toy_state_offset_pieces
from syncon import numdiff
from syncon.errors import ParamBoundViolation
from syncon.smoothing import (
    DecomposedFeedback,
    SmoothedParams,
    check_reconstruction,
    grad_tracking_lyapunov,
    sigma_time_derivative,
    smoothed_quadruple,
    tracked_feedback,
    tracker_control,
    tracking_lyapunov,
    validate_smoothed_params,
)
from syncon.synergy import AffinePlant, SynergisticQuadruple


def sine_family():
    """1-d plant with sigma = sin(theta) + 0.3 x, for formula checks."""
    plant = AffinePlant(
        dim_x=1, dim_u=1,
        f=lambda x: np.array([0.5 * x[0]]),
        g=lambda x: np.eye(1),
    )
    q = SynergisticQuadruple(
        V=lambda x, th: 0.5 * float(x[0] ** 2 + th[0] ** 2),
        grad_V=lambda x, th: (np.array([x[0]]), np.array([th[0]])),
        kappa=lambda x, th: np.array([-x[0] + math.sin(th[0]) + 0.3 * x[0]]),
        varpi=lambda x, th: np.array([-th[0]]),
        Theta=np.array([0.0, 0.7]),
        delta=1.0,
    )
    d = DecomposedFeedback(
        sigma=lambda x, th: np.array([math.sin(th[0]) + 0.3 * x[0]]),
        varsigma=lambda x: np.array([-x[0]]),
        upsilon=lambda x: np.eye(1),
        dim_tracker=1,
        c_kappa=2.0,
        d_sigma_dx=lambda x, th: np.array([[0.3]]),
        d_sigma_dtheta=lambda x, th: np.array([[math.cos(th[0])]]),
        d_varsigma_dx=lambda x: np.array([[-1.0]]),
    )
    return plant, q, d


def test_smoothed_params_require_positive_entries():
    for bad in (dict(gamma_s=0.0, k_eta=1.0, delta_s=0.1),
                dict(gamma_s=0.1, k_eta=-1.0, delta_s=0.1),
                dict(gamma_s=0.1, k_eta=1.0, delta_s=math.inf)):
        with pytest.raises(ValueError):
            SmoothedParams(**bad)


def test_decomposed_feedback_checks_its_sizes():
    _, _, d = sine_family()
    with pytest.raises(ValueError, match="dim_tracker"):
        dataclasses.replace(d, dim_tracker=0)
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="c_kappa"):
            dataclasses.replace(d, c_kappa=bad)


def test_validate_smoothed_params_bounds():
    _, q, d = sine_family()  # delta = 1, c_kappa = 2 so gamma_s < 0.5
    validate_smoothed_params(q.delta, d.c_kappa, SmoothedParams(0.2, 5.0, 0.5))

    with pytest.raises(ParamBoundViolation, match="gamma_s"):
        validate_smoothed_params(q.delta, d.c_kappa, SmoothedParams(0.6, 5.0, 0.01))
    with pytest.raises(ParamBoundViolation, match="delta_s"):
        validate_smoothed_params(q.delta, d.c_kappa, SmoothedParams(0.2, 5.0, 0.7))

    # A zero spread bound leaves gamma_s unconstrained; only the reduced
    # gap must fit under delta.
    validate_smoothed_params(q.delta, 0.0, SmoothedParams(25.0, 5.0, 1.0))
    with pytest.raises(ParamBoundViolation, match="delta_s"):
        validate_smoothed_params(q.delta, 0.0, SmoothedParams(25.0, 5.0, 1.1))
    # A spread bound that is not finite leaves neither bound a meaning.
    with pytest.raises(ParamBoundViolation, match=r"^c_kappa = inf must be finite$"):
        validate_smoothed_params(q.delta, math.inf, SmoothedParams(0.2, 5.0, 0.5))


def test_reconstruction_is_exact_for_a_true_decomposition():
    _, q, d = sine_family()
    rng = np.random.default_rng(2)
    states = [(rng.uniform(-2, 2, 1), rng.uniform(-1, 1, 1)) for _ in range(20)]
    assert check_reconstruction(q, d, states) <= 1e-15

    d_off = dataclasses.replace(d, varsigma=lambda x: np.array([-x[0] + 0.01]))
    assert check_reconstruction(q, d_off, states) == pytest.approx(0.01)


def test_tracking_gradients_match_finite_differences():
    _, q, d = sine_family()
    sp = SmoothedParams(gamma_s=0.3, k_eta=4.0, delta_s=0.2)
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.uniform(-2, 2, 1)
        eta = rng.uniform(-2, 2, 1)
        th = rng.uniform(-1, 1, 1)
        gx, geta, gth = grad_tracking_lyapunov(q, d, sp, x, eta, th)

        packed = np.concatenate([x, eta, th])
        fd = numdiff.central_gradient(
            lambda v: tracking_lyapunov(q, d, sp, v[:1], v[1:2], v[2:]), packed)
        assert abs(gx[0] - fd[0]) <= 1e-7
        assert abs(geta[0] - fd[1]) <= 1e-7
        assert abs(gth[0] - fd[2]) <= 1e-7


def test_sigma_time_derivative_matches_time_differencing():
    plant, q, d = sine_family()
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(25):
        x = rng.uniform(-2, 2, 1)
        eta = rng.uniform(-2, 2, 1)
        th = rng.uniform(-1, 1, 1)
        got = sigma_time_derivative(plant, q, d, x, eta, th)

        xdot = plant.f(x) + plant.g(x) @ tracked_feedback(d, x, eta)
        thdot = q.varpi(x, th)
        fd = (d.sigma(x + h * xdot, th + h * thdot)
              - d.sigma(x - h * xdot, th - h * thdot)) / (2.0 * h)
        assert abs(float(got[0] - fd[0])) <= 1e-8 + 1e-6 * abs(float(fd[0]))


@pytest.mark.parametrize("pieces", [toy_scalar_pieces, toy_state_offset_pieces],
                         ids=["scalar", "state_offset"])
def test_toy_tracker_flow_dissipates_at_the_book_rate(pieces):
    """Vdot_s is the base loop's rate less gamma_s k_eta ||eta - sigma||^2."""
    plant, q, d, sp, _ = pieces()
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = rng.uniform(-2, 2, 1)
        eta = rng.uniform(-2, 2, 1)
        th = rng.uniform(-1, 1, 1)

        gx, geta, gth = grad_tracking_lyapunov(q, d, sp, x, eta, th)
        xdot = plant.f(x) + plant.g(x) @ tracked_feedback(d, x, eta)
        etadot = tracker_control(plant, q, d, sp, x, eta, th)
        vdot = float(gx @ xdot + geta @ etadot + gth @ q.varpi(x, th))

        err = eta - d.sigma(x, th)
        expect = (base_rate(plant, q, x, th)
                  - sp.gamma_s * sp.k_eta * float(err @ err))
        assert vdot == pytest.approx(expect, abs=1e-12)


def test_smoothed_quadruple_wiring():
    plant, q, d = sine_family()
    plant.safety_indicator = lambda x: float(x[0]) - 5.0
    sp = SmoothedParams(gamma_s=0.3, k_eta=4.0, delta_s=0.2)
    plant_s, q_s = smoothed_quadruple(plant, q, d, sp)

    assert plant_s.dim_x == 2
    assert plant_s.dim_u == 1
    assert q_s.delta == sp.delta_s
    assert np.array_equal(q_s.Theta, q.Theta)
    assert q_s.Theta is not q.Theta

    xs = np.array([0.7, -0.4])
    th = np.array([0.5])
    # Drift holds eta; the input channel drives only eta.
    drift = plant_s.f(xs)
    expect_xdot = plant.f(xs[:1]) + plant.g(xs[:1]) @ tracked_feedback(
        d, xs[:1], xs[1:])
    assert drift[0] == pytest.approx(float(expect_xdot[0]))
    assert drift[1] == 0.0
    g = plant_s.g(xs)
    assert g.shape == (2, 1)
    assert g[0, 0] == 0.0 and g[1, 0] == 1.0

    assert q_s.V(xs, th) == pytest.approx(
        tracking_lyapunov(q, d, sp, xs[:1], xs[1:], th))
    assert np.allclose(q_s.kappa(xs, th),
                       tracker_control(plant, q, d, sp, xs[:1], xs[1:], th))
    assert np.allclose(q_s.varpi(xs, th), q.varpi(xs[:1], th))
    assert plant_s.safety_indicator(xs) == plant.safety_indicator(xs[:1])


def test_smoothed_quadruple_rejects_bad_params():
    plant, q, d = sine_family()
    with pytest.raises(ParamBoundViolation):
        smoothed_quadruple(plant, q, d, SmoothedParams(0.6, 4.0, 0.01))
