"""Unit tests for the planar obstacle-avoidance construction."""

import ast
import dataclasses
import functools
import math
import re
import sys

import numpy as np
import pytest

from conftest import CONFIG_DIR, REPO_ROOT, load_tool, loop_potential
from syncon import engine, navigation, numdiff
from syncon.engine import SimConfig, simulate, step_flow
from syncon.errors import (
    DimensionMismatch,
    GainValidation,
    NoRootBracketed,
    NonFiniteState,
    NonPositiveDistance,
    OutsideFreeSpace,
    ParamBoundViolation,
    SynconError,
)
from syncon.navigation import (
    NavGains,
    NavigationWorld,
    _array_code,
    _channel_code,
    _d2phi,
    _dphi,
    _gradient_text,
    _phi,
    _switched_loop,
    _switched_text,
    backstep_closed_loop,
    decomposed_feedback,
    find_critical_point,
    gradient_closed_loop,
    hybrid_closed_loop,
    loop_channels,
    loop_gap,
    max_synergy_gap,
    nav_gradient,
    nav_hessian,
    nominal_controller,
    obstacle_distance,
    rotation_rate_bound,
    shell_projection,
    smooth_closed_loop,
    switch_offset,
    switch_offset_bound,
    switch_offset_rate,
    switched_gradient_p,
    switched_gradient_theta,
    switched_potential,
    tracked_input,
    validate_gains,
)
from syncon.harness import (
    build_closed_loop,
    governing_gap,
    initial_packed_state,
    load_config,
)
from syncon.smoothing import (
    SmoothedParams,
    check_reconstruction,
    smoothed_quadruple,
    tracked_feedback,
    tracking_lyapunov,
)
from syncon.backstepping import (
    BacksteppingParams,
    backstep_lyapunov,
    backstepped_quadruple,
)
from syncon.synergy import _tied, assemble_closed_loop, audit_quadruple, v_excess


def demo_world() -> NavigationWorld:
    return NavigationWorld(p_o=np.array([5.0, 0.0]), r_o=2.0, epsilon=0.1,
                           p_d=np.zeros(2), r_s=0.5, varrho=15.0)


def demo_gains() -> NavGains:
    return NavGains(k_p=12.0, k_theta=0.02, gamma_theta=2.0264,
                    theta_candidates=np.array([0.2]), delta=0.0365)


def demo_smoothed() -> SmoothedParams:
    return SmoothedParams(gamma_s=0.0659, k_eta=100.0, delta_s=0.0036)


def demo_backstep() -> BacksteppingParams:
    return BacksteppingParams(gamma_b=0.5, k_b=40.0, delta_b=0.0036)


def narrow_world() -> NavigationWorld:
    return NavigationWorld(p_o=np.array([4.0, 0.0]), r_o=1.0, epsilon=0.1,
                           p_d=np.zeros(2), r_s=1.0, varrho=16.0)


def narrow_gains() -> NavGains:
    return NavGains(k_p=4.0, k_theta=0.5, gamma_theta=0.8,
                    theta_candidates=np.array([0.2]), delta=0.015)


def sample_free_points(world, rng, n, margin=0.05, lo=-15.0, hi=15.0):
    pts = []
    while len(pts) < n:
        p = rng.uniform(lo, hi, 2)
        if obstacle_distance(world, p) >= world.epsilon + margin:
            pts.append(p)
    return pts


# -- skirt function ----------------------------------------------------------

def test_barrier_frozen_values():
    assert _phi(0.5, 1.0) == pytest.approx(0.25 * math.log(2.0), abs=1e-15)
    assert _phi(0.5, 1.0) == pytest.approx(0.17328679513998632, abs=1e-15)
    assert _dphi(0.5, 1.0) == pytest.approx(-1.1931471805599454, abs=1e-15)


def test_barrier_vanishes_twice_differentiably_at_the_rim():
    r_s = 0.5
    assert _phi(r_s, r_s) == 0.0
    assert _phi(2.0 * r_s, r_s) == 0.0
    assert _dphi(r_s, r_s) == 0.0
    assert _d2phi(r_s, r_s) == 0.0
    h = 1e-6
    assert abs(_phi(r_s - h, r_s)) <= 1e-14
    assert abs(_dphi(r_s - h, r_s)) <= 1e-8
    assert abs(_d2phi(r_s - h, r_s)) <= 1e-4


def test_barrier_derivatives_match_finite_differences():
    r_s = 0.7
    for z in (0.05, 0.2, 0.4, 0.65):
        fd_g = (_phi(z + 1e-7, r_s) - _phi(z - 1e-7, r_s)) / 2e-7
        assert _dphi(z, r_s) == pytest.approx(fd_g, abs=1e-6)
        fd_h = (_dphi(z + 1e-7, r_s) - _dphi(z - 1e-7, r_s)) / 2e-7
        assert _d2phi(z, r_s) == pytest.approx(fd_h, abs=1e-5)


# -- world and potential -----------------------------------------------------

def test_world_validation():
    with pytest.raises(ValueError):
        NavigationWorld(p_o=np.zeros(2), r_o=0.0, epsilon=0.1,
                        p_d=np.array([9.0, 0.0]), r_s=0.5, varrho=1.0)
    with pytest.raises(ValueError):
        NavigationWorld(p_o=np.zeros(2), r_o=2.0, epsilon=0.6,
                        p_d=np.array([9.0, 0.0]), r_s=0.5, varrho=1.0)
    with pytest.raises(ValueError):
        NavigationWorld(p_o=np.zeros(2), r_o=2.0, epsilon=0.0,
                        p_d=np.array([9.0, 0.0]), r_s=0.5, varrho=1.0)
    with pytest.raises(ValueError):
        NavigationWorld(p_o=np.zeros(2), r_o=2.0, epsilon=0.1,
                        p_d=np.array([2.4, 0.0]), r_s=0.5, varrho=1.0)
    with pytest.raises(ValueError):
        NavigationWorld(p_o=np.zeros(2), r_o=2.0, epsilon=0.1,
                        p_d=np.array([9.0, 0.0]), r_s=0.5, varrho=-1.0)


def test_a_wide_world_keeps_its_finite_span():
    """||p_d - p_o|| is taken without squaring: a span past 1.3e154, whose
    square overflows, is still finite.  A gain ceiling that overflows is
    reported by the validator that reads it, naming that ceiling."""
    wide = NavigationWorld(p_o=np.array([3e200, 0.0]), r_o=1e200, epsilon=0.1,
                           p_d=np.zeros(2), r_s=0.5, varrho=1.0)
    assert wide.dest_range == 3e200
    assert rotation_rate_bound(wide) == math.inf
    with pytest.raises(GainValidation) as info:
        validate_gains(wide, demo_gains())
    assert str(info.value) == (
        "4*r_o*||p_d - p_o||/pi^2 = inf must be finite to bound gamma_theta "
        "and delta")

    world = NavigationWorld(p_o=np.array([1e155, 0.0]), r_o=1.0, epsilon=0.1,
                            p_d=np.zeros(2), r_s=0.5, varrho=1.0)
    assert world.dest_range == 1e155
    assert math.isfinite(rotation_rate_bound(world))
    assert math.isfinite(max_synergy_gap(world, demo_gains()))
    validate_gains(world, demo_gains())
    assert switch_offset_bound(world, demo_gains()) == math.inf
    for build in (lambda: smooth_closed_loop(world, demo_gains(), demo_smoothed()),
                  lambda: backstep_closed_loop(world, demo_gains(), demo_smoothed(),
                                               demo_backstep())):
        with pytest.raises(ParamBoundViolation) as info:
            build()
        assert str(info.value) == "c_kappa = inf must be finite"


def test_obstacle_distance_sign():
    world = demo_world()
    assert obstacle_distance(world, np.array([12.0, 0.0])) == pytest.approx(5.0)
    assert obstacle_distance(world, np.array([5.0, 1.0])) == pytest.approx(-1.0)


def test_potential_guards_free_space():
    world = demo_world()
    gains = demo_gains()
    inside_margin = np.array([5.0 + world.r_o + 0.05, 0.0])
    with pytest.raises(OutsideFreeSpace):
        switched_potential(world, gains, inside_margin, 0.0)
    # The unguarded variant still evaluates anywhere with positive clearance.
    assert switched_potential(world, gains, inside_margin, 0.0,
                              check=False) > 0.0
    with pytest.raises(NonPositiveDistance):
        switched_potential(world, gains, world.p_o, 0.0, check=False)


def test_potential_is_plain_quadratic_outside_the_skirt():
    world = demo_world()
    p = np.array([12.0, 0.0])
    assert switched_potential(world, demo_gains(), p, 0.0) == 72.0
    assert np.allclose(nav_gradient(world, p), p - world.p_d)
    assert np.allclose(nav_hessian(world, p), np.eye(2))


def test_nav_gradient_and_hessian_match_finite_differences():
    world = demo_world()
    gains = demo_gains()
    rng = np.random.default_rng(21)
    pts = sample_free_points(world, rng, 120)
    checked = 0
    for p in pts:
        # The skirt rim is only C^2, so skip a hair-thin band around it
        # where differencing the Hessian is ill-posed.
        if abs(obstacle_distance(world, p) - world.r_s) < 1e-2:
            continue
        g = nav_gradient(world, p, check=False)
        fd_g = numdiff.central_gradient(
            lambda v: switched_potential(world, gains, v, 0.0, check=False),
            p)
        assert np.all(np.abs(g - fd_g) <= 1e-6 * (1.0 + np.abs(fd_g)))

        h = nav_hessian(world, p, check=False)
        fd_h = numdiff.central_jacobian(
            lambda v: nav_gradient(world, v, check=False), p)
        assert np.all(np.abs(h - fd_h) <= 1e-5 * (1.0 + np.abs(fd_h)))
        checked += 1
    assert checked >= 100


# -- rotated family ----------------------------------------------------------

def test_switched_potential_is_rotated_potential_plus_angle_penalty():
    world = demo_world()
    gains = demo_gains()
    rng = np.random.default_rng(17)
    for p in sample_free_points(world, rng, 30):
        th = rng.uniform(-0.3, 0.3)
        direct = switched_potential(world, gains, p, th, check=False)
        # T(p, theta) = p_o + R(theta) (p - p_o), then V_nav(T) + penalty
        c, s = math.cos(th), math.sin(th)
        w = p - world.p_o
        rot = world.p_o + np.array([c * w[0] - s * w[1], s * w[0] + c * w[1]])
        e = rot - world.p_d
        rebuilt = (0.5 * float(e @ e)
                   + world.varrho * _phi(obstacle_distance(world, rot),
                                         world.r_s)
                   + 0.5 * gains.gamma_theta * th * th)
        assert direct == pytest.approx(rebuilt, rel=1e-12, abs=1e-12)


def test_switched_potential_frozen_value():
    world = demo_world()
    gains = demo_gains()
    assert switched_potential(world, gains, np.array([12.0, 0.0]), 0.0) == 72.0


def test_switched_gradients_match_finite_differences():
    world = demo_world()
    gains = demo_gains()
    rng = np.random.default_rng(29)
    pts = sample_free_points(world, rng, 110)
    for p in pts:
        th = rng.uniform(-0.3, 0.3)
        gp = switched_gradient_p(world, gains, p, th, check=False)
        fd_p = numdiff.central_gradient(
            lambda v: switched_potential(world, gains, v, th, check=False), p)
        assert np.all(np.abs(gp - fd_p) <= 1e-6 * (1.0 + np.abs(fd_p)))

        gt = switched_gradient_theta(world, gains, p, th)
        fd_t = numdiff.central_gradient(
            lambda v: switched_potential(world, gains, p, float(v[0]),
                                         check=False), np.array([th]))
        assert abs(gt - fd_t[0]) <= 1e-6 * (1.0 + abs(fd_t[0]))


def test_switch_offset_identities():
    world = demo_world()
    assert np.allclose(switch_offset(world, 0.0), np.zeros(2))
    d = world.dest_range
    for th in (-0.4, -0.1, 0.2, 0.35):
        s = switch_offset(world, th)
        assert float(s @ s) == pytest.approx(2.0 * (1.0 - math.cos(th)) * d * d,
                                             rel=1e-12, abs=1e-12)
        fd = numdiff.central_gradient(
            lambda v, i=0: switch_offset(world, float(v[0]))[i],
            np.array([th]))
        rate = switch_offset_rate(world, th)
        assert abs(rate[0] - fd[0]) <= 1e-7
        fd = numdiff.central_gradient(
            lambda v: switch_offset(world, float(v[0]))[1], np.array([th]))
        assert abs(rate[1] - fd[0]) <= 1e-7


def test_position_gradient_splits_into_plain_descent_minus_offset():
    world = demo_world()
    gains = demo_gains()
    rng = np.random.default_rng(31)
    for p in sample_free_points(world, rng, 25):
        th = rng.uniform(-0.3, 0.3)
        fd_p = numdiff.central_gradient(
            lambda v: switched_potential(world, gains, v, th, check=False), p)
        split = nav_gradient(world, p, check=False) - switch_offset(world, th)
        assert np.all(np.abs(split - fd_p) <= 1e-6 * (1.0 + np.abs(fd_p)))


def test_switch_offset_bound_dominates_operational_spreads():
    world = demo_world()
    gains = demo_gains()
    d = world.dest_range
    c_kappa = switch_offset_bound(world, gains)
    assert c_kappa == pytest.approx((1.0 - math.cos(0.2)) * d * d, rel=1e-15)
    assert c_kappa == pytest.approx(0.49833555396895934, abs=1e-15)
    # Along the settling path theta runs from a candidate back to zero;
    # half the squared spread to that candidate never exceeds the bound.
    for tb in gains.theta_candidates:
        for t in np.linspace(0.0, 1.0, 21):
            diff = switch_offset(world, t * tb) - switch_offset(world, tb)
            assert 0.5 * float(diff @ diff) <= c_kappa + 1e-12


# -- gain bounds -------------------------------------------------------------

def test_rotation_rate_bound_and_gap_frozen_values():
    world = demo_world()
    gains = demo_gains()
    assert rotation_rate_bound(world) == pytest.approx(4.052847345693511,
                                                       abs=1e-12)
    gap = max_synergy_gap(world, gains)
    assert gap == pytest.approx(0.040528946913870226, abs=1e-12)
    by_hand = (2.0 * world.r_o * world.dest_range / math.pi ** 2
               - 0.5 * gains.gamma_theta) * min(abs(gains.theta_candidates)) ** 2
    assert gap == pytest.approx(by_hand, rel=1e-15)
    assert gains.delta <= gap


def test_nav_gains_reject_an_empty_candidate_list():
    for empty in ([], np.array([]), np.zeros((0, 1))):
        with pytest.raises(ValueError, match="nonempty"):
            dataclasses.replace(demo_gains(), theta_candidates=empty)


def test_validate_gains_flags_each_bound():
    world = demo_world()
    good = demo_gains()
    from syncon.navigation import validate_gains

    validate_gains(world, good)

    cases = [
        (dict(k_p=-1.0), "k_p"),
        (dict(k_theta=0.0), "k_theta"),
        (dict(gamma_theta=4.1), "gamma_theta"),
        (dict(gamma_theta=0.0), "gamma_theta"),
        (dict(theta_candidates=np.array([0.0])), "candidate angle"),
        (dict(theta_candidates=np.array([3.2])), "candidate angle"),
        (dict(delta=0.0), "delta"),
        (dict(delta=0.05), "delta"),
    ]
    for patch, fragment in cases:
        bad = dataclasses.replace(good, **patch)
        with pytest.raises(GainValidation, match=fragment):
            validate_gains(world, bad)

    # Several problems arrive in one aggregated report.
    bad = dataclasses.replace(good, k_p=-1.0, k_theta=-1.0)
    with pytest.raises(GainValidation) as err:
        validate_gains(world, bad)
    assert "k_p" in str(err.value) and "k_theta" in str(err.value)


def test_layer_bounds_match_the_generic_validators():
    """The loop builders reject exactly the layer parameters that the
    generic compositions reject for this family."""
    world = demo_world()
    gains = demo_gains()
    plant, q = nominal_controller(world, gains)
    d = decomposed_feedback(world, gains)

    def rejects(build):
        try:
            build()
        except ParamBoundViolation:
            return True
        return False

    seen = set()
    for gamma_s in (0.01, 0.0659, 0.0733, 0.2):
        for delta_s in (0.0036, 0.01, 0.04):
            for delta_b in (0.0036, 0.01, 0.04):
                sp = SmoothedParams(gamma_s=gamma_s, k_eta=100.0,
                                    delta_s=delta_s)
                bp = BacksteppingParams(gamma_b=0.5, k_b=40.0, delta_b=delta_b)
                tracker_bad = rejects(lambda: smoothed_quadruple(plant, q, d, sp))
                integrator_bad = rejects(
                    lambda: backstepped_quadruple(plant, q, d, sp, bp))
                assert rejects(lambda: smooth_closed_loop(world, gains, sp)) \
                    == tracker_bad
                assert rejects(lambda: backstep_closed_loop(world, gains, sp, bp)) \
                    == (tracker_bad or integrator_bad)
                seen.add((tracker_bad, integrator_bad))
    assert len(seen) == 4


# -- critical point ----------------------------------------------------------

def test_find_critical_point_frozen_clearance():
    world = demo_world()
    p_star = find_critical_point(world)
    z_star = obstacle_distance(world, p_star)
    assert z_star == pytest.approx(0.26902926425457707, abs=1e-9)
    # Collinear geometry: the saddle sits on the far side of the obstacle.
    assert p_star[0] == pytest.approx(world.p_o[0] + world.r_o + z_star,
                                      abs=1e-9)
    assert abs(p_star[1]) <= 1e-9
    assert np.linalg.norm(nav_gradient(world, p_star)) <= 1e-9


def test_find_critical_point_narrow_world():
    world = narrow_world()
    p_star = find_critical_point(world)
    assert p_star[0] == pytest.approx(5.694947385756899, abs=1e-9)
    assert abs(p_star[0] - 5.6865) <= 2e-2
    assert np.linalg.norm(nav_gradient(world, p_star)) <= 1e-8


def test_find_critical_point_requires_a_strong_skirt():
    weak = NavigationWorld(p_o=np.array([5.0, 0.0]), r_o=2.0, epsilon=0.1,
                           p_d=np.zeros(2), r_s=0.5, varrho=0.1)
    with pytest.raises(NoRootBracketed):
        find_critical_point(weak)


def test_find_critical_point_ends_on_a_wide_skirt():
    """Past z* = 8192 one ulp of the clearance is wider than the 1e-12
    bracket, so the bisection stops on adjacent floats instead."""
    world = NavigationWorld(p_o=np.zeros(2), r_o=1.0, epsilon=0.1,
                            p_d=np.array([-3e5, 0.0]), r_s=1e5, varrho=1.0)
    p_star = find_critical_point(world)
    z_star = obstacle_distance(world, p_star)
    assert world.epsilon < z_star < world.r_s
    assert p_star[0] == pytest.approx(30105.15276896443, rel=1e-12)
    assert p_star[1] == 0.0
    assert np.linalg.norm(nav_gradient(world, p_star)) <= 1e-8


def test_excess_frozen_values_at_start_and_saddle():
    world = demo_world()
    gains = demo_gains()
    _, q = nominal_controller(world, gains)
    start = np.array([12.0, 0.0])
    assert v_excess(q, start, np.zeros(1)) == pytest.approx(
        0.6571417755565392, abs=1e-12)
    p_star = find_critical_point(world)
    mu_star = v_excess(q, p_star, np.zeros(1))
    assert mu_star == pytest.approx(0.18561959107482195, abs=1e-9)
    assert mu_star > gains.delta
    assert mu_star >= max_synergy_gap(world, gains) - 1e-9
    # At the lone candidate itself the excess vanishes.
    assert v_excess(q, start, np.array([0.2])) == 0.0


# -- safety shell ------------------------------------------------------------

def test_shell_projection_leaves_safe_states_alone():
    world = demo_world()
    project = shell_projection(world)
    v = np.array([12.0, 0.0, 0.05])
    assert project(v) is v


def test_shell_projection_clamps_to_the_margin():
    world = demo_world()
    project = shell_projection(world)
    v = np.array([5.0 + world.r_o + 0.01, 0.0, 0.7])
    out = project(v)
    assert out is not v
    assert obstacle_distance(world, out[:2]) >= world.epsilon
    assert obstacle_distance(world, out[:2]) == pytest.approx(world.epsilon,
                                                              abs=1e-9)
    # Angular position and trailing coordinates are untouched.
    assert out[1] == 0.0
    assert out[2] == 0.7
    centered = project(np.array([5.0, 0.0, 0.0]))
    assert obstacle_distance(world, centered[:2]) >= world.epsilon


# -- fused loops against the generic composition -----------------------------

def assert_same_switching(fused, generic, v):
    assert fused.in_flow_set(v) == pytest.approx(generic.in_flow_set(v),
                                                 abs=1e-10)
    assert fused.in_jump_set(v) == pytest.approx(generic.in_jump_set(v),
                                                 abs=1e-10)
    cf = fused.jump_map(v)
    cg = generic.jump_map(v)
    assert len(cf) == len(cg)
    for a, b in zip(cf, cg):
        assert np.allclose(a, b, atol=1e-12)


def test_hybrid_loop_matches_generic_composition():
    world = demo_world()
    gains = demo_gains()
    fused = dataclasses.replace(hybrid_closed_loop(world, gains),
                                project_flow=None)
    plant, q = nominal_controller(world, gains)
    generic = assemble_closed_loop(plant, q)
    assert fused.dim == generic.dim == 3

    rng = np.random.default_rng(41)
    for p in sample_free_points(world, rng, 40):
        v = np.array([p[0], p[1], rng.uniform(-0.25, 0.25)])
        assert np.allclose(fused.flow_map(v), generic.flow_map(v),
                           rtol=1e-9, atol=1e-9)
        assert_same_switching(fused, generic, v)
        # The V and u channels the harness reads for this loop.
        assert switched_potential(world, gains, v[:2], v[2], check=False) \
            == pytest.approx(q.V(v[:2], v[2:]), rel=1e-14, abs=1e-14)
        assert np.allclose(
            -gains.k_p * switched_gradient_p(world, gains, v[:2], v[2],
                                             check=False),
            q.kappa(v[:2], v[2:]), rtol=1e-14, atol=1e-14)


def test_smooth_loop_matches_generic_composition():
    world = demo_world()
    gains = demo_gains()
    sp = demo_smoothed()
    fused = dataclasses.replace(smooth_closed_loop(world, gains, sp),
                                project_flow=None)
    plant, q = nominal_controller(world, gains)
    d = decomposed_feedback(world, gains)
    plant_s, q_s = smoothed_quadruple(plant, q, d, sp)
    generic = assemble_closed_loop(plant_s, q_s)
    assert fused.dim == generic.dim == 5

    rng = np.random.default_rng(43)
    for p in sample_free_points(world, rng, 30):
        v = np.concatenate([p, rng.normal(0.0, 3.0, 2),
                            rng.uniform(-0.25, 0.25, 1)])
        assert np.allclose(fused.flow_map(v), generic.flow_map(v),
                           rtol=1e-9, atol=1e-9)
        assert_same_switching(fused, generic, v)
        V = loop_potential(world, gains, sp, None, v, v[4])
        assert V == pytest.approx(q_s.V(v[:4], v[4:]), rel=1e-13, abs=1e-13)
        assert V == pytest.approx(
            tracking_lyapunov(q, d, sp, v[:2], v[2:4], v[4:]),
            rel=1e-13, abs=1e-13)
        assert np.allclose(tracked_input(world, gains, v[:2], v[2:4]),
                           tracked_feedback(d, v[:2], v[2:4]),
                           rtol=1e-13, atol=1e-13)


def test_smoothed_quadruple_gradient_matches_finite_differences():
    """The smoothed family's grad_V, which no loop calls, against central
    differences of its V, and its flows pass the audit's decrease check."""
    world, gains, sp = demo_world(), demo_gains(), demo_smoothed()
    plant, q = nominal_controller(world, gains)
    d = decomposed_feedback(world, gains)
    plant_s, q_s = smoothed_quadruple(plant, q, d, sp)
    rng = np.random.default_rng(47)
    states = []
    for p in sample_free_points(world, rng, 30):
        xs = np.concatenate([p, rng.uniform(-1.0, 1.0, 2)])
        th = rng.uniform(-0.25, 0.25, 1)
        states.append((xs, th))
        gx, gth = q_s.grad_V(xs, th)
        fd = numdiff.central_gradient(lambda v: q_s.V(v[:4], v[4:]),
                                      np.concatenate([xs, th]))
        assert np.allclose(np.concatenate([gx, gth]), fd,
                           rtol=1e-6, atol=1e-6)
    report = audit_quadruple(plant_s, q_s, states, critical_states=[])
    assert report.c3_pass, report.lines()
    assert report.n_states_checked == 30


def test_backstep_loop_matches_generic_composition():
    world = demo_world()
    gains = demo_gains()
    sp = demo_smoothed()
    bp = demo_backstep()
    fused = dataclasses.replace(backstep_closed_loop(world, gains, sp, bp),
                                project_flow=None)
    plant, q = nominal_controller(world, gains)
    d = decomposed_feedback(world, gains)
    plant_b, q_b = backstepped_quadruple(plant, q, d, sp, bp)
    generic = assemble_closed_loop(plant_b, q_b)
    assert fused.dim == generic.dim == 7

    rng = np.random.default_rng(47)
    for p in sample_free_points(world, rng, 25):
        v = np.concatenate([p, rng.normal(0.0, 3.0, 2),
                            rng.normal(0.0, 20.0, 2),
                            rng.uniform(-0.25, 0.25, 1)])
        ff = fused.flow_map(v)
        gf = generic.flow_map(v)
        assert np.all(np.abs(ff - gf) <= 1e-8 + 1e-8 * np.abs(gf))
        assert_same_switching(fused, generic, v)
        V = loop_potential(world, gains, sp, bp, v, v[6])
        assert V == pytest.approx(q_b.V(v[:6], v[6:]), rel=1e-13, abs=1e-13)
        assert V == pytest.approx(
            backstep_lyapunov(q, d, sp, bp, v[:2], v[2:4], v[4:6], v[6:]),
            rel=1e-13, abs=1e-13)


def skirt_states(world, gains, rng, n, width):
    """n seeded list states [px, py(, eta(, u)), theta]: the first half
    inside the skirt (clearance in (1e-6, r_s)), the rest outside.  u is
    drawn near its reference tracked_input, as along an arc, so the
    integrator term's low bits reach V."""
    states = []
    for i in range(n):
        z = rng.uniform(1e-6, world.r_s) if i < n // 2 \
            else rng.uniform(world.r_s, 10.0)
        ang = rng.uniform(-math.pi, math.pi)
        rho = world.r_o + z
        p = world.p_o + rho * np.array([math.cos(ang), math.sin(ang)])
        v = p.tolist()
        if width > 3:
            eta = rng.normal(0.0, 3.0, 2)
            v += eta.tolist()
        if width > 5:
            v += (tracked_input(world, gains, p, eta)
                  + rng.normal(0.0, 1.0, 2)).tolist()
        states.append(v + [rng.uniform(-0.4, 0.4)])
    return states


def test_fused_kernels_equal_the_scalar_helpers():
    """The loops' compiled flow maps and switching kernels give the bits (==,
    not approx) of the public float helpers and of the channel maps
    (loop_channels), inside and outside the skirt, in a world with no zero coordinate, with two
    candidates and with three.  A kernel handed a list appends each
    candidate's V to it, in Theta order."""
    world = dataclasses.replace(demo_world(), p_o=np.array([3.3, 5.1]),
                                p_d=np.array([0.3, 1.1]))
    two = dataclasses.replace(demo_gains(),
                              theta_candidates=np.array([-0.2, 0.2]))
    # The smallest candidate and the widest set bound delta and gamma_s.
    three = dataclasses.replace(demo_gains(),
                                theta_candidates=np.array([-0.3, 0.1, 0.25]),
                                delta=0.01)
    bp = demo_backstep()
    rng = np.random.default_rng(59)
    for gains, sp in ((two, demo_smoothed()),
                      (three, dataclasses.replace(demo_smoothed(),
                                                  gamma_s=0.004))):
        k_p, k_theta = gains.k_p, gains.k_theta
        loops = {
            "hybrid": (hybrid_closed_loop(world, gains), 3, gains.delta, None,
                       None),
            "smooth": (smooth_closed_loop(world, gains, sp), 5, sp.delta_s,
                       sp, None),
            "backstep": (backstep_closed_loop(world, gains, sp, bp), 7,
                         bp.delta_b, sp, bp),
        }
        smooth_spec = loops["smooth"][0]
        cands = gains.theta_candidates.tolist()
        for name, (spec, width, gap, lsp, lbp) in loops.items():
            channels = loop_channels(world, gains, gap, lsp, lbp)
            states = skirt_states(world, gains, rng, 200, width)
            inside = [obstacle_distance(world, v[:2]) < world.r_s
                      for v in states]
            assert 0 < sum(inside) < len(states)
            for v in states:
                own = loop_potential(world, gains, lsp, lbp, v, v[-1])
                values = [loop_potential(world, gains, lsp, lbp, v, t)
                          for t in cands]
                best = min(values)
                out = []
                assert spec.in_flow_set(v, out) == own - best - gap, name
                assert out == values, name
                assert spec.in_jump_set(v) == gap - (own - best), name
                V, _, mu, _, _ = channels(np.array([v]))
                assert spec.in_flow_set(v) + gap == mu[0], name
                assert V[0] == own, name
                flow = spec.flow_map(v)
                assert flow[-1] == -k_theta * switched_gradient_theta(
                    world, gains, v[:2], v[-1]), name
                if name == "hybrid":
                    assert flow[:2] == (-k_p * switched_gradient_p(
                        world, gains, v[:2], v[2], check=False)).tolist()
                elif name == "smooth":
                    assert flow[:2] == tracked_input(world, gains, v[:2],
                                                     v[2:4]).tolist()
                else:
                    # The integrator drives p; the tracker flows as in the
                    # smoothed loop at the same (p, eta, theta).
                    assert flow[:2] == v[4:6]
                    assert flow[2:4] == smooth_spec.flow_map(
                        v[:4] + v[-1:])[2:4]

    spec = gradient_closed_loop(world, two)
    for v in skirt_states(world, two, rng, 200, 3):
        assert spec.flow_map(v) == (-two.k_p * nav_gradient(
            world, v[:2], check=False)).tolist() + [0.0]


def off_axis_loops():
    """The world of test_fused_kernels_equal_the_scalar_helpers, with no
    zero coordinate, and (name, spec, width) for each navigation loop on it."""
    world = dataclasses.replace(demo_world(), p_o=np.array([3.3, 5.1]),
                                p_d=np.array([0.3, 1.1]))
    gains = dataclasses.replace(demo_gains(),
                                theta_candidates=np.array([-0.2, 0.2]))
    sp, bp = demo_smoothed(), demo_backstep()
    return world, gains, [
        ("hybrid", hybrid_closed_loop(world, gains), 3),
        ("smooth", smooth_closed_loop(world, gains, sp), 5),
        ("backstep", backstep_closed_loop(world, gains, sp, bp), 7),
        ("gradient", gradient_closed_loop(world, gains), 3)]


def call_path(spec, calls=None):
    """The spec with its flow map behind a wrapper, so step_flow calls it at
    each stage: functools.wraps copies the inlined step onto the wrapper,
    but the step is bound to the flow map it was built for.  Each call
    appends to ``calls`` when it is given."""
    flow = spec.flow_map

    @functools.wraps(flow)
    def wrapped(v):
        if calls is not None:
            calls.append(None)
        return flow(v)

    assert wrapped.rk4_step is flow.rk4_step
    return dataclasses.replace(spec, flow_map=wrapped)


def step_outcome(spec, v, h):
    """step_flow's result, or the type and message of the error it raised."""
    try:
        return step_flow(spec, v, h)
    except SynconError as exc:
        return type(exc), str(exc)


def test_the_inlined_step_equals_the_call_path():
    """Each loop's flow map carries an RK4 step with the flow inlined, which
    step_flow takes; it gives the bits (==) of the call kernel over the same
    flow map, or raises what that raises, inside and outside the skirt."""
    world, gains, loops = off_axis_loops()
    rng = np.random.default_rng(71)
    dt = 1e-3
    for name, spec, width in loops:
        assert spec.flow_map.rk4_step is not None, name
        called = call_path(spec)
        finished = 0
        for v in skirt_states(world, gains, rng, 60, width):
            for h in (dt, 0.37 * dt, 1.0):
                out = step_outcome(spec, v, h)
                assert out == step_outcome(called, v, h), (name, v, h)
                finished += type(out) is list
        assert finished >= 120, name


def test_an_inlined_arc_equals_the_call_path_arc():
    """One short run per loop, from an angle away from every candidate so
    that the switched loops jump first, gives the same bytes on both paths;
    the wrapped flow map is called four times per RK4 step."""
    world, gains, loops = off_axis_loops()
    cfg = SimConfig(dt=1e-3, t_max=0.2, method="rk4")
    for name, spec, width in loops:
        v = [9.0, 3.0, 0.5, -0.5, 1.0, 2.0][:width - 1] + [0.9]
        calls = []
        arc = simulate(spec, np.array(v), cfg)
        ref = simulate(call_path(spec, calls), np.array(v), cfg)
        assert (name == "gradient") == (arc.n_jumps == 0), name
        assert len(calls) == 4 * ref.stats["rk4_steps"] > 0, name
        assert arc.stats == ref.stats, name
        assert arc.termination == ref.termination, name
        assert len(arc.segments) == len(ref.segments), name
        for seg, rseg in zip(arc.segments, ref.segments):
            assert seg.j == rseg.j, name
            assert seg.ts.tobytes() == rseg.ts.tobytes(), name
            assert seg.xs.tobytes() == rseg.xs.tobytes(), name
        assert [(e.t, e.j_pre, e.x_pre.tobytes(), e.x_post.tobytes(),
                 e.n_candidates) for e in arc.jumps] == [
                (e.t, e.j_pre, e.x_pre.tobytes(), e.x_post.tobytes(),
                 e.n_candidates) for e in ref.jumps], name


# What a step of 1e300 from each shipped start raises, on either path.
HUGE_STEP_ERRORS = {
    "fig2_check": (NonPositiveDistance, "must be positive, got nan"),
    "fig5_backstep": (NonFiniteState, "RK4 stage state is not finite: "),
    "fig5_hybrid": (NonPositiveDistance, "must be positive, got nan"),
    "fig5_hybrid_offset": (NonFiniteState, "RK4 stage state is not finite: "),
    "fig5_nonhybrid": (NonPositiveDistance, "must be positive, got nan"),
    "fig5_smooth": (NonPositiveDistance, "must be positive, got nan"),
}


def test_the_inlined_step_raises_what_the_call_path_raises():
    """From each shipped start a step of 1e300 overflows a stage state: both
    paths raise the same error with the same message.  A stage state at a
    clearance at or below 1e-12 raises NonPositiveDistance on both."""
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert [p.stem for p in paths] == sorted(HUGE_STEP_ERRORS)
    for path in paths:
        cfg = load_config(path)
        spec = build_closed_loop(cfg)
        x = initial_packed_state(cfg).tolist()
        kind, text = HUGE_STEP_ERRORS[path.stem]
        out = step_outcome(spec, x, 1e300)
        assert out == step_outcome(call_path(spec), x, 1e300), path.stem
        assert out[0] is kind and text in out[1], path.stem

    world, gains, loops = off_axis_loops()
    pox, poy = world.p_o.tolist()
    for name, spec, width in loops:
        for p in ((pox + world.r_o, poy), (pox, poy - world.r_o + 5e-13)):
            v = [p[0], p[1], *[0.5] * (width - 3), 0.1]
            out = step_outcome(spec, v, 1e-3)
            assert out == step_outcome(call_path(spec), v, 1e-3), name
            assert out[0] is NonPositiveDistance, name


def two_sided_loops():
    """The demo world, its gains with Theta = [-0.2, 0.2], and (name, spec,
    width, sp, bp) for each of the three switched loops on them."""
    world = demo_world()
    gains = dataclasses.replace(demo_gains(),
                                theta_candidates=np.array([-0.2, 0.2]))
    sp, bp = demo_smoothed(), demo_backstep()
    return world, gains, [
        ("hybrid", hybrid_closed_loop(world, gains), 3, None, None),
        ("smooth", smooth_closed_loop(world, gains, sp), 5, sp, None),
        ("backstep", backstep_closed_loop(world, gains, sp, bp), 7, sp, bp)]


def test_the_switching_indicator_is_one_python_call():
    """Each loop's flow-set indicator is its fused kernel: an evaluation
    makes one Python-level call and no other, inside and outside the
    skirt.  The jump-set indicator is its negation, bit for bit, the sign of
    a zero included."""
    world, gains, loops = two_sided_loops()
    rng = np.random.default_rng(67)
    for name, spec, width, _, _ in loops:
        for v in skirt_states(world, gains, rng, 40, width):
            calls = []

            def profile(frame, event, arg):
                if event == "call":
                    calls.append(frame.f_code.co_name)

            sys.setprofile(profile)
            try:
                fi = spec.in_flow_set(v)
            finally:
                sys.setprofile(None)
            assert calls == ["in_flow_set"], name
            ji = spec.in_jump_set(v)
            assert np.float64(ji).tobytes() == np.float64(-fi).tobytes(), name


def test_tied_candidates_all_come_back_from_the_jump_map():
    """With p on the axis through p_o and p_d (and the tracker's eta2 at
    zero), the candidates -0.2 and 0.2 give the same V to the last bit: the
    jump map returns both, lowest index first, as synergy._tied picks them
    from the loop potential."""
    world, gains, loops = two_sided_loops()
    cands = gains.theta_candidates.tolist()
    for name, spec, width, sp, bp in loops:
        for px in (-3.0, 2.55, 7.3, 12.0):
            v = [px, 0.0, 0.7, 0.0, 1.5, -0.4][:width - 1] + [0.05]
            values = [loop_potential(world, gains, sp, bp, v, t) for t in cands]
            assert values[0] == values[1], name
            post = [c.tolist() for c in spec.jump_map(v)]
            assert post == [v[:-1] + [cands[i]] for i in _tied(values)], name
            assert [p[-1] for p in post] == [-0.2, 0.2], name


def scan_families():
    """(name, world, gains, spec, width, sp, bp): the demo world's hybrid
    loop with Theta = [-0.3, 0.2, 0.3] and with [-0.2, 0.2], and its
    smoothed and backstepped loops with [-0.2, 0.2]."""
    world, gains, loops = two_sided_loops()
    three = dataclasses.replace(gains,
                                theta_candidates=np.array([-0.3, 0.2, 0.3]))
    return [("hybrid3", world, three, hybrid_closed_loop(world, three), 3,
             None, None)] + [(name, world, gains, spec, width, sp, bp)
                             for name, spec, width, sp, bp in loops]


def test_the_candidate_scan_equals_the_scalar_helpers():
    """The kernel's straight-line scan over Theta gives, bit for bit, what
    the public potentials give: in_flow_set is V less the first least
    candidate V less the gap, ``out`` holds the candidates' V in Theta
    order, and the jump map returns the tied candidates in synergy._tied's
    order.  The states are drawn inside and outside the skirt, on the
    p_o-p_d axis, where candidates of equal magnitude tie, and at each
    candidate angle, where the own angle ties with it."""
    rng = np.random.default_rng(73)
    ties = 0
    for name, world, gains, spec, width, sp, bp in scan_families():
        cands = gains.theta_candidates.tolist()
        gap = loop_gap(gains, sp, bp)
        states = skirt_states(world, gains, rng, 40, width)
        for px in (-3.0, 2.55, 7.3, 12.0):
            states.append([px, 0.0, 0.7, 0.0, 1.5, -0.4][:width - 1] + [0.05])
        states += [v[:-1] + [t] for v in states[:]
                   for t in cands + [-cands[0]]]
        for v in states:
            own = loop_potential(world, gains, sp, bp, v, v[-1])
            values = [loop_potential(world, gains, sp, bp, v, t) for t in cands]
            out = []
            assert spec.in_flow_set(v, out) == own - min(values) - gap, name
            assert out == values, name
            post = [c.tolist() for c in spec.jump_map(v)]
            assert post == [v[:-1] + [cands[i]] for i in _tied(values)], name
            ties += v[-1] in cands and own == min(values)
    assert ties >= 100


def hybrid_reference_flow(world, gains):
    """The hybrid loop's flow map from the public float helpers, which give
    its bits, and never through a compiled body."""
    def flow(v):
        return [*(-gains.k_p * switched_gradient_p(world, gains, v[:2], v[2],
                                                   check=False)).tolist(),
                -gains.k_theta * switched_gradient_theta(world, gains, v[:2],
                                                         v[2])]
    return flow


def assert_steps_on_its_own_constants(world, gains, spec):
    """The loop's inlined step equals the call-path step over the helpers'
    flow map, and its kernel the helpers' V, at seeded states."""
    reference = hybrid_reference_flow(world, gains)
    kernel = engine._call_kernel(3, "rk4")
    for v in skirt_states(world, gains, np.random.default_rng(79), 12, 3):
        assert step_flow(spec, v, 1e-3) == kernel(reference, v, 1e-3)
        own = loop_potential(world, gains, None, None, v, v[-1])
        best = min(loop_potential(world, gains, None, None, v, t)
                   for t in gains.theta_candidates.tolist())
        assert spec.in_flow_set(v) == own - best - gains.delta


@pytest.mark.parametrize("order", [1, -1])
def test_loops_that_differ_in_one_constant_keep_their_own(order):
    """Two hybrid loops whose worlds differ only in r_o, and two whose gains
    differ only in k_p, built one after the other from an empty code cache
    in either order: each steps and switches on its own constants."""
    world, gains = demo_world(), demo_gains()
    pairs = [((world, gains), (dataclasses.replace(world, r_o=2.1), gains)),
             ((world, gains), (world, dataclasses.replace(gains, k_p=11.0)))]
    for pair in pairs:
        engine.compile_source.cache_clear()
        built = [(w, g, hybrid_closed_loop(w, g)) for w, g in pair[::order]]
        for w, g, spec in built:
            assert_steps_on_its_own_constants(w, g, spec)


def test_the_code_cache_is_bounded():
    """Past _CODE_CACHE loops, each with its own k_p, the cache holds no
    more code than its bound, and the first loop, evicted and built again,
    still steps on its own constants."""
    world, gains = demo_world(), demo_gains()
    engine.compile_source.cache_clear()
    gains_k = [dataclasses.replace(gains, k_p=10.0 + 0.01 * k)
               for k in range(engine._CODE_CACHE + 1)]
    loops = [hybrid_closed_loop(world, g) for g in gains_k]
    info = engine.compile_source.cache_info()
    assert info.currsize == info.maxsize == engine._CODE_CACHE
    # One flow per loop; the switching kernel reads no k_p, so one for all.
    assert info.misses == len(loops) + 1
    assert_steps_on_its_own_constants(world, gains_k[0], loops[0])
    assert_steps_on_its_own_constants(world, gains_k[0],
                                      hybrid_closed_loop(world, gains_k[0]))
    assert engine.compile_source.cache_info().misses == len(loops) + 2


def retyped(obj, to, *names):
    """obj with the named fields, or else every float field, passed through
    ``to``."""
    names = names or [f.name for f in dataclasses.fields(obj)
                      if type(getattr(obj, f.name)) is float]
    return dataclasses.replace(obj, **{n: to(getattr(obj, n)) for n in names})


def test_numpy_and_int_constants_build_the_float_loops():
    """NavigationWorld, NavGains and the layer parameters store Python
    floats, so loops built from np.float64 values, or from ints where the
    demo values are whole, share the float build's compiled flow map, step
    and switching kernel, and return the same Python floats."""
    parts = (demo_world(), demo_gains(), demo_smoothed(), demo_backstep())
    builds = [tuple(retyped(o, np.float64) for o in parts),
              (retyped(parts[0], int, "r_o", "varrho"),
               retyped(parts[1], int, "k_p"), retyped(parts[2], int, "k_eta"),
               retyped(parts[3], int, "k_b"))]

    def loops(world, gains, sp, bp):
        return [(hybrid_closed_loop(world, gains), 3),
                (smooth_closed_loop(world, gains, sp), 5),
                (backstep_closed_loop(world, gains, sp, bp), 7),
                (gradient_closed_loop(world, gains), 3)]

    rng = np.random.default_rng(83)
    for build in builds:
        for part in build:
            assert all(type(getattr(part, f.name)) is float
                       for f in dataclasses.fields(part)
                       if f.name not in ("p_o", "p_d", "theta_candidates"))
        for (ref, width), (spec, _) in zip(loops(*parts), loops(*build)):
            assert spec.flow_map.__code__ == ref.flow_map.__code__
            assert spec.flow_map.rk4_step.__func__.__code__ \
                == ref.flow_map.rk4_step.__func__.__code__
            assert spec.in_flow_set.__code__ == ref.in_flow_set.__code__
            states = skirt_states(parts[0], parts[1], rng, 6, width)
            for v in states:
                rates = spec.flow_map(v)
                assert rates == ref.flow_map(v)
                assert all(type(r) is float for r in rates)
                mu = spec.in_flow_set(v)
                assert type(mu) is float and mu == ref.in_flow_set(v)
            for v in states[3:]:  # outside the skirt, where a step is safe
                assert step_flow(spec, v, 1e-3) == step_flow(ref, v, 1e-3)


def test_loop_maps_guard_the_clearance():
    """Every loop map and float helper that reads the clearance raises
    NonPositiveDistance at or below 1e-12: on the rim, a hair outside it, at
    p_o and at NaN.  Every switched loop map raises the flow map's ValueError
    at a packed state of the wrong width.  A channel map tests every row of
    a stack and names the first bad row's clearance, and raises
    DimensionMismatch at a stack of the wrong width."""
    world = demo_world()
    gains = demo_gains()
    sp = demo_smoothed()
    bp = demo_backstep()
    pox, poy = world.p_o.tolist()
    points = [(pox + world.r_o, poy), (pox, poy - world.r_o),
              (pox + world.r_o + 5e-13, poy), (pox, poy),
              (math.nan, poy)]
    for p in points[:4]:
        assert not obstacle_distance(world, np.array(p)) > 1e-12
    loops = [
        (hybrid_closed_loop(world, gains), 3,
         ("flow_map", "in_flow_set", "in_jump_set", "jump_map")),
        (smooth_closed_loop(world, gains, sp), 5,
         ("flow_map", "in_flow_set", "in_jump_set", "jump_map")),
        (backstep_closed_loop(world, gains, sp, bp), 7,
         ("flow_map", "in_flow_set", "in_jump_set", "jump_map")),
        # The gradient loop's sets and jump map are constants.
        (gradient_closed_loop(world, gains), 3, ("flow_map",)),
    ]
    for spec, width, maps in loops:
        for p in points:
            v = [p[0], p[1], *[0.5] * (width - 3), 0.1]
            for fn in maps:
                with pytest.raises(NonPositiveDistance):
                    getattr(spec, fn)(v)
    # A packed state one entry short or long: the sets and the jump map
    # raise the flow map's unpacking error, as the kernel unpacks v alike.
    for spec, width, _ in loops[:3]:
        short = [9.0, 3.0, *[0.5] * (width - 3)]
        for v in (short, short + [0.1, 0.1]):
            with pytest.raises(ValueError) as flow_error:
                spec.flow_map(v)
            for fn in ("in_flow_set", "in_jump_set", "jump_map"):
                with pytest.raises(ValueError) as error:
                    getattr(spec, fn)(v)
                assert type(error.value) is ValueError
                assert str(error.value) == str(flow_error.value)
    helpers = [
        lambda p: switched_potential(world, gains, p, 0.1, check=False),
        lambda p: switched_gradient_p(world, gains, p, 0.1, check=False),
        lambda p: nav_gradient(world, p, check=False),
        lambda p: nav_hessian(world, p, check=False),
        lambda p: tracked_input(world, gains, p, np.array([0.5, 0.5])),
    ]
    for helper in helpers:
        for p in points:
            with pytest.raises(NonPositiveDistance):
                helper(np.array(p))
    layers = [(gains.delta, None, None), (sp.delta_s, sp, None),
              (bp.delta_b, sp, bp), (None, None, None)]
    good = (pox, poy + world.r_o + 1.0)
    for (_, width, _), (gap, lsp, lbp) in zip(loops, layers):
        channels = loop_channels(world, gains, gap, lsp, lbp)
        for p in points:
            xs = np.array([[*q, *[0.5] * (width - 3), 0.1]
                           for q in (good, p, points[0])])
            z = obstacle_distance(world, np.array(p))
            with pytest.raises(NonPositiveDistance,
                               match=re.escape(f"got {z:.6g}")):
                channels(xs)
        xs[1, :2] = good
        channels(xs[:2])
        for bad in (xs[:, 1:], np.hstack([xs, xs[:, :1]]), xs[0]):
            with pytest.raises(DimensionMismatch):
                channels(bad)


def mirrored_loops(world, gains):
    """The three switched loops with their states on the p_o-p_d axis.

    On that axis the rotated family and the tracker offset are symmetric in
    theta, so the candidates -0.2 and 0.2 tie exactly.
    """
    p = np.array([12.0, 0.0])
    eta = np.array([0.7, 0.0])
    u = np.array([-3.0, 1.5])
    return [
        (hybrid_closed_loop(world, gains), np.concatenate([p, [0.05]])),
        (smooth_closed_loop(world, gains, demo_smoothed()),
         np.concatenate([p, eta, [0.05]])),
        (backstep_closed_loop(world, gains, demo_smoothed(), demo_backstep()),
         np.concatenate([p, eta, u, [0.05]])),
    ]


@pytest.mark.parametrize("theta", [[-0.2, 0.2], [0.2, -0.2]])
def test_exact_tie_jumps_to_both_candidates_in_theta_order(theta):
    world = demo_world()
    gains = dataclasses.replace(demo_gains(),
                                theta_candidates=np.array(theta))
    for spec, v in mirrored_loops(world, gains):
        successors = spec.jump_map(v)
        assert [s[-1] for s in successors] == theta
        for s in successors:
            assert np.array_equal(s[:-1], v[:-1])


def test_gradient_loop_descends_and_never_jumps():
    world = demo_world()
    gains = demo_gains()
    spec = gradient_closed_loop(world, gains)
    assert spec.dim == 3

    v = np.array([9.0, 3.0, 0.0])
    flow = spec.flow_map(v)
    expect = -gains.k_p * nav_gradient(world, v[:2])
    assert np.allclose(flow[:2], expect)
    assert flow[2] == 0.0
    assert spec.in_flow_set(v) < 0.0
    assert spec.in_jump_set(v) > 0.0
    assert spec.jump_map(v) == []

    arc = simulate(spec, np.array([9.0, 3.0, 0.0]),
                   SimConfig(dt=0.001, t_max=2.0))
    assert arc.n_jumps == 0
    # Plain descent makes progress toward the destination.
    start = math.hypot(9.0, 3.0)
    assert math.hypot(*arc.final_state[:2]) < start


def test_decomposition_reconstructs_the_switched_feedback():
    world = demo_world()
    gains = demo_gains()
    _, q = nominal_controller(world, gains)
    d = decomposed_feedback(world, gains)
    rng = np.random.default_rng(53)
    states = [(p, np.array([rng.uniform(-0.25, 0.25)]))
              for p in sample_free_points(world, rng, 30)]
    assert check_reconstruction(q, d, states) <= 1e-12


# -- complementary indicators --------------------------------------------------

@pytest.mark.parametrize("name", ["fig5_hybrid", "fig5_smooth", "fig5_backstep",
                                  "fig5_nonhybrid"])
def test_complementary_loops_match_the_two_indicator_path(name):
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    spec = build_closed_loop(cfg)
    assert spec.complementary
    sim = dataclasses.replace(cfg.sim, t_max=1.0)
    x0 = initial_packed_state(cfg)
    paired = simulate(spec, x0, sim)
    general = simulate(dataclasses.replace(spec, complementary=False), x0, sim)

    assert paired.termination == general.termination
    assert len(paired.segments) == len(general.segments)
    for a, b in zip(paired.segments, general.segments):
        assert a.j == b.j
        assert np.array_equal(a.ts, b.ts)
        assert np.array_equal(a.xs, b.xs)
    assert len(paired.jumps) == len(general.jumps)
    for a, b in zip(paired.jumps, general.jumps):
        assert a.t == b.t
        assert np.array_equal(a.x_pre, b.x_pre)
        assert np.array_equal(a.x_post, b.x_post)
    # No boundary is located inside this horizon, so every evaluation is a
    # per-state one: one call where the two-indicator path makes two.
    assert paired.stats["locate_calls"] == 0
    assert general.stats["indicator_evals"] == 2 * paired.stats["indicator_evals"]


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_sample_channels_of_any_split_of_the_rows_are_the_whole_calls(path):
    """The channel map works row by row, so a run that computes the channels
    one block at a time gets the whole-arc call's bits: every row alone, and
    seeded random splits, over states around the obstacle that fall inside
    the skirt and beyond it."""
    cfg = load_config(path)
    gap = None if cfg.controller == "non_hybrid" else loop_gap(
        cfg.gains, cfg.smoothed, cfg.backstep)
    rng = np.random.default_rng(404)
    n = 300
    xs = np.tile(initial_packed_state(cfg), (n, 1))
    xs += rng.normal(0.0, 0.5, xs.shape)
    world = cfg.world
    angle = rng.uniform(-math.pi, math.pi, n)
    radius = world.r_o + rng.uniform(1e-3, 2.0 * world.r_s, n)
    xs[:, 0] = world.p_o[0] + radius * np.cos(angle)
    xs[:, 1] = world.p_o[1] + radius * np.sin(angle)
    channels = loop_channels(world, cfg.gains, gap, cfg.smoothed, cfg.backstep)
    whole = channels(xs)
    assert (whole[3] < world.r_s).any() and (whole[3] >= world.r_s).any()
    for cuts in (list(range(1, n)),
                 *(sorted(rng.choice(np.arange(1, n), k, replace=False).tolist())
                   for k in (1, 5, 40))):
        parts = [channels(xs[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        for k, got in enumerate(zip(*parts)):
            if whole[k] is None:
                assert all(part is None for part in got)
            else:
                assert np.concatenate(got).tobytes() == whole[k].tobytes()


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_a_folded_channel_map_leaves_the_state_columns_alone(path):
    """With p_d at the origin the map's p - p_d and the distance read the
    position columns themselves (literal_source drops - (0.0)), yet no
    channel shares memory with xs and xs keeps its bits."""
    cfg = load_config(path)
    assert cfg.world.p_d.tolist() == [0.0, 0.0]
    rng = np.random.default_rng(405)
    xs = np.tile(initial_packed_state(cfg), (64, 1))
    xs += rng.normal(0.0, 0.1, xs.shape)
    before = xs.tobytes()
    out = loop_channels(cfg.world, cfg.gains, governing_gap(cfg), cfg.smoothed,
                        cfg.backstep)(xs)
    assert xs.tobytes() == before
    assert not any(np.shares_memory(c, xs) for c in out if c is not None)


@pytest.fixture
def shipped_sources(monkeypatch):
    """Every source compiled for the loops of the shipped configs, the theta3
    loop and ring_sweep's loops (the digest tool's code line), as (loop,
    source) pairs: each loop's flow map with its inlined RK4 step, switching
    kernel (fig5_nonhybrid has none) and channel map.  Each world has a zero
    coordinate in p_d or p_o."""
    tool = load_tool("arc_digest")
    cfgs = {path.stem: load_config(path) for path in tool.config_paths()}
    cfgs["theta3"] = tool.theta3_config()
    cfgs.update(tool._workloads().ring_configs())
    sources = []
    real = engine.compile_source

    def recorded(source, filename):
        sources.append((name, source))
        return real(source, filename)

    monkeypatch.setattr(engine, "compile_source", recorded)
    monkeypatch.setattr(navigation, "compile_source", recorded)
    for name, cfg in cfgs.items():
        assert 0.0 in (*cfg.world.p_d.tolist(), *cfg.world.p_o.tolist())
        build_closed_loop(cfg)
        loop_channels(cfg.world, cfg.gains, governing_gap(cfg), cfg.smoothed,
                      cfg.backstep)
    assert len(sources) == 3 * len(cfgs) - 1
    return sources


def test_no_generated_source_subtracts_a_zero_literal(shipped_sources):
    assert not [name for name, s in shipped_sources if " - (0.0)" in s]


def skirt_passes(node) -> tuple[int, int]:
    """The log calls and the skirt tests under ``node``: if statements on
    z < r_s in scalar code, minimum(z, r_s) in channel code."""
    logs = tests = 0
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
            logs += n.func.id == "log"
            tests += n.func.id == "minimum" and ast.unparse(n.args[0]) == "z"
        elif isinstance(n, ast.If):
            tests += ast.unparse(n.test).startswith("z < ")
    return logs, tests


def test_every_generated_map_takes_the_skirt_once_per_state(shipped_sources):
    """Each flow map, switching kernel and channel map tests the skirt once
    and takes log(r_s / z) once, and the inlined RK4 step does so once in
    each of its four stages (each a try block) and nowhere else."""
    bad = []
    for name, source in shipped_sources:
        for fn in ast.parse(source).body:
            if fn.name == "kernel":
                stages = [skirt_passes(n) for n in fn.body
                          if isinstance(n, ast.Try)]
                ok = stages == [(1, 1)] * 4 and skirt_passes(fn) == (4, 4)
            else:
                ok = skirt_passes(fn) == (1, 1)
            bad += [] if ok else [(name, fn.name)]
    assert not bad


def test_the_package_and_its_generated_sources_parse_as_python_3_10(
        shipped_sources):
    """pyproject.toml admits Python 3.10, so every module of the package and
    every generated source of the shipped loops parses under 3.10's grammar
    (ast.parse's feature_version, which rejects 3.11 syntax such as
    except*).  Only syntax is covered: a regex feature or a library call
    that 3.10 lacks passes unseen."""
    paths = sorted((REPO_ROOT / "src" / "syncon").glob("*.py"))
    assert paths
    for label, text in [*((p.name, p.read_text()) for p in paths),
                        *shipped_sources]:
        try:
            ast.parse(text, feature_version=(3, 10))
        except SyntaxError as exc:
            pytest.fail(f"{label}: {exc}")


def skirt_edge_rows(world, width):
    """Packed states of the given width at p on the p_o-p_d axis whose
    clearance is r_s, with px one ulp below and above."""
    x = world.p_o[0] + world.r_o + world.r_s
    return np.array([[px, world.p_o[1], *[0.5] * (width - 3), 0.1]
                     for px in (math.nextafter(x, -math.inf), x,
                                math.nextafter(x, math.inf))])


@pytest.mark.parametrize("where", ["fig2_check", "demo"])
def test_channels_at_the_skirt_edge_equal_the_scalar_helpers(where):
    """At the clearance z = r_s, where the array rule's skirt branch meets
    the outside formulas, and at one ulp of p either side, every channel of
    every loop has the scalar helpers' bits: on fig2_check (p = (6, 0)) the
    hybrid and gradient loops, in the demo world all four."""
    from test_harness import scalar_channels
    if where == "fig2_check":
        cfg = load_config(CONFIG_DIR / "fig2_check.json")
        world, gains = cfg.world, cfg.gains
        layers = [(None, None)]
    else:
        world, gains = demo_world(), demo_gains()
        sp, bp = demo_smoothed(), demo_backstep()
        layers = [(None, None), (sp, None), (sp, bp)]
    loops = [(_switched_loop(world, gains, *lay), loop_gap(gains, *lay), *lay)
             for lay in layers]
    loops.append((gradient_closed_loop(world, gains), None, None, None))
    for spec, gap, sp, bp in loops:
        name = spec.dim, gap
        xs = skirt_edge_rows(world, spec.dim)
        V, u, mu, dobs, ddest = loop_channels(world, gains, gap, sp, bp)(xs)
        assert dobs[0] < world.r_s == dobs[1] < dobs[2], name
        ref = np.array([scalar_channels(world, gains, sp, bp, spec, gap, v)
                        for v in xs])
        got = np.column_stack([V, u, np.full(3, math.nan) if mu is None else mu,
                               dobs, ddest])
        assert np.array_equal(got, ref, equal_nan=True), name


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_channel_sources_test_no_array_but_the_clearance(path):
    """The array rule leaves each shipped loop's channel source straight-line
    code: no loop, no conditional expression, and only two if statements,
    the stack's width check and the clearance guard over every row.  The
    source runs V and the applied input only: it assigns none of the flow's
    other rates, nor what only they read."""
    cfg = load_config(path)
    if cfg.controller == "non_hybrid":
        loop = _gradient_text(cfg.world, cfg.gains)
    else:
        loop = _switched_text(cfg.world, cfg.gains, cfg.smoothed, cfg.backstep)
    tree = ast.parse(_channel_code(loop))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.For, ast.While, ast.IfExp,
                                     ast.comprehension))]
    width = len(initial_packed_state(cfg))
    assert [ast.unparse(node.test) for node in ast.walk(tree)
            if isinstance(node, ast.If)] == [
        f"xs.ndim != 2 or xs.shape[1] != {width}", "not (z > _Z_MIN).all()"]
    assigned = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not assigned & {"dth", "rx", "deta1", "deta2", "b", "nx", "ny",
                           "ndotu", "Hu1", "Hu2", "du1", "du2"}


@pytest.mark.parametrize("text", [
    "if z > r_s:\n    a = 0.0\n",
    "if z < r_s:\n    a = z\n",
    "if V_1 <= best:\n    best = V_1\n",
    "a = 1.0 if z < r_s else 0.0\nif th:\n    a = 2.0\n",
])
def test_the_array_rule_refuses_a_branch_it_has_no_rule_for(text):
    with pytest.raises(ValueError, match="^no array rule for 'if "):
        _array_code(text)


@pytest.mark.parametrize("field", ["r_o", "k_p", "gamma_s", "gamma_b"])
def test_an_int_beyond_float_range_is_a_value_error_naming_the_field(field):
    cfg = load_config(CONFIG_DIR / "fig5_backstep.json")
    built = {"r_o": cfg.world, "k_p": cfg.gains, "gamma_s": cfg.smoothed,
             "gamma_b": cfg.backstep}[field]
    with pytest.raises(ValueError, match=f"^{field} must be finite, got an int "
                                         "beyond float range$"):
        dataclasses.replace(built, **{field: 10 ** 400})
