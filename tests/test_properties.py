"""Property tests over drawn states, run with hypothesis.

Kept apart from the example-based tests so that those still run where
hypothesis is not installed.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from syncon.navigation import (
    backstep_closed_loop,
    hybrid_closed_loop,
    nominal_controller,
    smooth_closed_loop,
)
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
