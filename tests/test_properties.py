"""Property tests over drawn states, run with hypothesis.

Kept apart from the example-based tests so that those still run where
hypothesis is not installed.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syncon.backstepping import backstepped_quadruple
from syncon.errors import NonPositiveDistance
from syncon.navigation import (
    backstep_closed_loop,
    backstep_jacobians,
    backstep_potential,
    decomposed_feedback,
    hybrid_closed_loop,
    nominal_controller,
    obstacle_distance,
    smooth_closed_loop,
    switched_potential,
    tracking_potential,
)
from syncon.smoothing import smoothed_quadruple
from syncon.synergy import assemble_closed_loop
from test_navigation import demo_backstep, demo_gains, demo_smoothed, demo_world


# -- complementary indicators ------------------------------------------------

def _free_position(world, radius, angle):
    """A point at ``radius`` beyond the safety shell, in direction ``angle``."""
    r = world.r_o + world.epsilon + radius
    return world.p_o + r * np.array([math.cos(angle), math.sin(angle)])


_distances = st.floats(1e-3, 20.0)
_angles = st.floats(-math.pi, math.pi)
_thetas = st.floats(-0.5, 0.5)
_vectors = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))


def _assert_exact_negation(spec, v):
    assert spec.complementary
    assert spec.in_jump_set(v) == -spec.in_flow_set(v)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(radius=_distances, angle=_angles, theta=_thetas)
def test_hybrid_and_generic_indicators_negate_exactly(radius, angle, theta):
    world, gains = demo_world(), demo_gains()
    p = _free_position(world, radius, angle)
    v = np.array([p[0], p[1], theta])
    _assert_exact_negation(hybrid_closed_loop(world, gains), v)
    _assert_exact_negation(assemble_closed_loop(*nominal_controller(world, gains)), v)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(radius=_distances, angle=_angles, theta=_thetas, eta=_vectors)
def test_smooth_indicators_negate_exactly(radius, angle, theta, eta):
    world = demo_world()
    p = _free_position(world, radius, angle)
    spec = smooth_closed_loop(world, demo_gains(), demo_smoothed())
    _assert_exact_negation(spec, np.array([p[0], p[1], eta[0], eta[1], theta]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(radius=_distances, angle=_angles, theta=_thetas, eta=_vectors,
       u=_vectors)
def test_backstep_indicators_negate_exactly(radius, angle, theta, eta, u):
    world = demo_world()
    p = _free_position(world, radius, angle)
    spec = backstep_closed_loop(world, demo_gains(), demo_smoothed(),
                                demo_backstep())
    _assert_exact_negation(spec, np.array([p[0], p[1], eta[0], eta[1],
                                           u[0], u[1], theta]))


# -- loop maps against their definitions ---------------------------------------

@functools.cache
def _loops():
    """Each switched loop, unprojected, with its generic composition, its
    potential over packed states from the public helpers, and its gap.
    Two candidates, so that the indicator's minimum has a choice."""
    world = demo_world()
    gains = dataclasses.replace(demo_gains(),
                                theta_candidates=np.array([-0.2, 0.2]))
    sp, bp = demo_smoothed(), demo_backstep()
    plant, q = nominal_controller(world, gains)
    d = decomposed_feedback(world, gains)
    generic = {
        "hybrid": assemble_closed_loop(plant, q),
        "smooth": assemble_closed_loop(*smoothed_quadruple(plant, q, d, sp)),
        "backstep": assemble_closed_loop(*backstepped_quadruple(
            plant, q, d, sp, bp, backstep_jacobians(world, gains))),
    }
    fused = {
        "hybrid": hybrid_closed_loop(world, gains),
        "smooth": smooth_closed_loop(world, gains, sp),
        "backstep": backstep_closed_loop(world, gains, sp, bp),
    }
    potential = {
        "hybrid": lambda v, th: switched_potential(world, gains, v[:2], th,
                                                   check=False),
        "smooth": lambda v, th: tracking_potential(world, gains, sp, v[:2],
                                                   v[2:4], th),
        "backstep": lambda v, th: backstep_potential(world, gains, sp, bp,
                                                     v[:2], v[2:4], v[4:6], th),
    }
    gap = {"hybrid": gains.delta, "smooth": sp.delta_s, "backstep": bp.delta_b}
    return world, gains, {
        name: (dataclasses.replace(fused[name], project_flow=None),
               generic[name], potential[name], gap[name])
        for name in fused}


def _packed(name, p, eta, u, theta):
    parts = {"hybrid": [p], "smooth": [p, eta], "backstep": [p, eta, u]}[name]
    return np.concatenate(parts + [[theta]])


_loop_names = st.sampled_from(["hybrid", "smooth", "backstep"])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=_loop_names, radius=_distances, angle=_angles, theta=_thetas,
       eta=_vectors, u=_vectors)
def test_loop_flows_match_the_generic_compositions(name, radius, angle, theta,
                                                   eta, u):
    world, _, loops = _loops()
    fused, generic, _, _ = loops[name]
    v = _packed(name, _free_position(world, radius, angle), eta, u, theta)
    ff = fused.flow_map(v)
    gf = generic.flow_map(v)
    assert ff.shape == gf.shape == (fused.dim,)
    if name == "backstep":
        assert np.all(np.abs(ff - gf) <= 1e-8 + 1e-8 * np.abs(gf))
    else:
        assert np.allclose(ff, gf, rtol=1e-9, atol=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=_loop_names, radius=_distances, angle=_angles, theta=_thetas,
       eta=_vectors, u=_vectors)
def test_loop_indicators_are_excess_minus_gap_of_the_public_potentials(
        name, radius, angle, theta, eta, u):
    world, gains, loops = _loops()
    fused, _, potential, gap = loops[name]
    v = _packed(name, _free_position(world, radius, angle), eta, u, theta)
    best = min(potential(v, cand) for cand in gains.theta_candidates)
    excess = potential(v, theta) - best
    assert fused.in_flow_set(v) == excess - gap
    assert fused.in_jump_set(v) == gap - excess


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=_loop_names, clearance=st.floats(-2.0, 1e-12), angle=_angles,
       theta=_thetas, eta=_vectors, u=_vectors)
def test_loop_maps_raise_at_nonpositive_clearance(name, clearance, angle,
                                                  theta, eta, u):
    world, _, loops = _loops()
    fused, _, _, _ = loops[name]
    p = world.p_o + (world.r_o + clearance) * np.array([math.cos(angle),
                                                        math.sin(angle)])
    assume(obstacle_distance(world, p) <= 1e-12)
    v = _packed(name, p, eta, u, theta)
    with pytest.raises(NonPositiveDistance):
        fused.flow_map(v)
    with pytest.raises(NonPositiveDistance):
        fused.in_flow_set(v)
