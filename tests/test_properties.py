"""Property tests over drawn states and drawn scenario configs, run with
hypothesis.

Kept apart from the example-based tests so that those still run where
hypothesis is not installed.
"""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from syncon.backstepping import backstepped_quadruple
from syncon.errors import NonPositiveDistance, ParseError, ValidationError
from syncon.harness import (
    CONTROLLERS,
    FIELDS,
    ScenarioConfig,
    bound_violations,
    load_config,
    parse_config,
)
from syncon.navigation import (
    backstep_closed_loop,
    backstep_potential,
    decomposed_feedback,
    gradient_closed_loop,
    hybrid_closed_loop,
    nominal_controller,
    obstacle_distance,
    sample_channels,
    smooth_closed_loop,
    switched_potential,
    tracking_potential,
)
from syncon.smoothing import smoothed_quadruple
from syncon.synergy import TIE_TOL, assemble_closed_loop, switch_candidates
from test_harness import scalar_channels
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

# Candidate sets of one, two and three angles; with +-0.2 present, a state on
# the symmetry axis through p_o and p_d (py = 0, and eta2 = 0 for the
# tracker loops) ties the two exactly.
THETA_SETS = ((0.2,), (-0.2, 0.2), (-0.2, 0.19, 0.2))


@functools.cache
def _loops(thetas=(-0.2, 0.2)):
    """Each switched loop, unprojected, with its generic composition and
    quadruple, its potential over packed states from the public helpers,
    and its gap.  Two candidates by default, so that the indicator's
    minimum has a choice."""
    world = demo_world()
    gains = dataclasses.replace(demo_gains(),
                                theta_candidates=np.array(thetas))
    sp, bp = demo_smoothed(), demo_backstep()
    plant, q = nominal_controller(world, gains)
    d = decomposed_feedback(world, gains)
    quads = {
        "hybrid": (plant, q),
        "smooth": smoothed_quadruple(plant, q, d, sp),
        "backstep": backstepped_quadruple(plant, q, d, sp, bp),
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
               assemble_closed_loop(*quads[name]), potential[name], gap[name],
               quads[name][1])
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
    fused, generic, _, _, _ = loops[name]
    v = _packed(name, _free_position(world, radius, angle), eta, u, theta)
    ff = np.asarray(fused.flow_map(v))
    gf = np.asarray(generic.flow_map(v))
    assert ff.shape == gf.shape == (fused.dim,)
    if name == "backstep":
        assert np.all(np.abs(ff - gf) <= 1e-8 + 1e-8 * np.abs(gf))
    else:
        assert np.allclose(ff, gf, rtol=1e-9, atol=1e-9)


def _drawn_state(name, thetas, radius, angle, theta, eta, u, on_axis):
    """A packed state of loop ``name`` over the candidate set ``thetas``,
    on the symmetry axis when ``on_axis``, with its loop entry."""
    world, gains, loops = _loops(thetas)
    if on_axis:
        p = world.p_o + np.array([math.copysign(world.r_o + world.epsilon
                                                + radius, angle), 0.0])
        eta = (eta[0], 0.0)
    else:
        p = _free_position(world, radius, angle)
    return gains, loops[name], _packed(name, p, eta, u, theta)


_switching_draws = dict(name=_loop_names, thetas=st.sampled_from(THETA_SETS),
                        radius=_distances, angle=_angles, theta=_thetas,
                        eta=_vectors, u=_vectors, on_axis=st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**_switching_draws)
def test_loop_indicators_are_excess_minus_gap_of_the_public_potentials(
        name, thetas, radius, angle, theta, eta, u, on_axis):
    gains, (fused, _, potential, gap, _), v = _drawn_state(
        name, thetas, radius, angle, theta, eta, u, on_axis)
    best = min(potential(v, cand) for cand in gains.theta_candidates)
    excess = potential(v, theta) - best
    assert fused.in_flow_set(v) == excess - gap
    assert fused.in_jump_set(v) == gap - excess


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**_switching_draws)
def test_loop_jump_maps_match_the_generic_composition_and_switch_candidates(
        name, thetas, radius, angle, theta, eta, u, on_axis):
    """The same successors, in the same order: every candidate within
    TIE_TOL of the minimum, lowest index first."""
    gains, (fused, generic, potential, _, q), v = _drawn_state(
        name, thetas, radius, angle, theta, eta, u, on_axis)
    n = fused.dim - 1
    values = [potential(v, cand) for cand in gains.theta_candidates]
    expect = [cand for cand, val in zip(gains.theta_candidates.tolist(), values)
              if val - min(values) <= TIE_TOL]
    got = fused.jump_map(v)
    assert [w[n] for w in got] == expect
    assert all(np.array_equal(w[:n], v[:n]) for w in got)
    reference = generic.jump_map(v)
    assert len(got) == len(reference)
    assert all(np.array_equal(a, b) for a, b in zip(got, reference))
    switch = switch_candidates(q, v[:n], v[n:])
    assert len(switch) == len(got)
    assert all(np.array_equal(w[n:], c) for w, c in zip(got, switch))
    if on_axis and thetas == (-0.2, 0.2):
        assert [w[n] for w in got] == [-0.2, 0.2]  # an exact tie


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=_loop_names, thetas=st.sampled_from(THETA_SETS),
       clearance=st.floats(-2.0, 1e-12), angle=_angles, theta=_thetas,
       eta=_vectors, u=_vectors)
def test_loop_maps_raise_at_nonpositive_clearance(name, thetas, clearance,
                                                  angle, theta, eta, u):
    world, gains, loops = _loops(thetas)
    fused = loops[name][0]
    p = world.p_o + (world.r_o + clearance) * np.array([math.cos(angle),
                                                        math.sin(angle)])
    assume(obstacle_distance(world, p) <= 1e-12)
    v = _packed(name, p, eta, u, theta)
    for fn in (fused.flow_map, fused.in_flow_set, fused.in_jump_set,
               fused.jump_map):
        with pytest.raises(NonPositiveDistance):
            fn(v)
    _, gap, sp, bp = _channel_loops()[2][name]
    with pytest.raises(NonPositiveDistance):
        sample_channels(world, gains, np.stack([v, v]), gap, sp, bp)


# -- harness channels over stacked states -------------------------------------

@functools.cache
def _channel_loops():
    """Per loop: its unprojected spec and the (gap, sp, bp) that select it
    in sample_channels; the gradient loop has no gap."""
    world, gains, loops = _loops()
    sp, bp = demo_smoothed(), demo_backstep()
    layers = {"hybrid": (None, None), "smooth": (sp, None), "backstep": (sp, bp)}
    out = {name: (loops[name][0], loops[name][3]) + layers[name]
           for name in loops}
    out["gradient"] = (gradient_closed_loop(world, gains), None, None, None)
    return world, gains, out


# Clearances inside the skirt (z < r_s = 0.5 in the demo world) and beyond it.
_clearances = st.one_of(st.floats(1e-9, 0.5, exclude_max=True),
                        st.floats(0.5, 20.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["gradient", "hybrid", "smooth", "backstep"]),
       rows=st.lists(st.tuples(_clearances, _angles, _thetas, _vectors,
                               _vectors), min_size=1, max_size=6))
def test_sample_channels_equal_the_scalar_helpers(name, rows):
    world, gains, loops = _channel_loops()
    spec, gap, sp, bp = loops[name]
    xs = np.array([
        _packed("hybrid" if name == "gradient" else name,
                world.p_o + (world.r_o + z) * np.array([math.cos(a),
                                                        math.sin(a)]),
                eta, u, theta)
        for z, a, theta, eta, u in rows])
    V, u, mu, dobs, ddest = sample_channels(world, gains, xs, gap, sp, bp)
    ref = np.array([scalar_channels(world, gains, sp, bp, spec, gap, v)
                    for v in xs])
    assert np.array_equal(V, ref[:, 0])
    assert np.array_equal(u, ref[:, 1:3])
    assert mu is None if gap is None else np.array_equal(mu, ref[:, 3])
    assert np.array_equal(dobs, ref[:, 4])
    assert np.array_equal(ddest, ref[:, 5])


@pytest.mark.parametrize("name", ["gradient", "hybrid", "smooth", "backstep"])
def test_sample_channels_equal_the_scalar_helpers_across_the_skirt(name):
    """A dense seeded sweep through the skirt, where the log is evaluated.
    numpy's log and hypot differ from math's in the last place on a fraction
    of a percent of inputs, too rarely for the drawn stacks above to meet."""
    world, gains, loops = _channel_loops()
    spec, gap, sp, bp = loops[name]
    rng = np.random.default_rng(7)
    n = 2000
    z = rng.uniform(1e-9, 0.6, n)
    a = rng.uniform(-math.pi, math.pi, n)
    cols = [world.p_o[0] + (world.r_o + z) * np.cos(a),
            world.p_o[1] + (world.r_o + z) * np.sin(a)]
    cols += list(rng.uniform(-20.0, 20.0, (spec.dim - 3, n)))
    xs = np.stack(cols + [rng.uniform(-0.5, 0.5, n)], axis=1)
    V, u, mu, dobs, ddest = sample_channels(world, gains, xs, gap, sp, bp)
    ref = np.array([scalar_channels(world, gains, sp, bp, spec, gap, v)
                    for v in xs])
    got = np.column_stack([V, u, np.full(n, math.nan) if mu is None else mu,
                           dobs, ddest])
    assert np.array_equal(got, ref, equal_nan=True)


# -- scenario parsing over arbitrary JSON ---------------------------------------

# Values as json.load returns them: floats with +-inf and nan, and integers
# up to the 4300-digit limit of Python's int-string conversion, which
# json.load enforces (a longer literal is a ParseError, tested apart).
_big_ints = st.builds(lambda digits, sign: sign * 10 ** digits,
                      st.integers(0, 4299), st.sampled_from([1, -1]))
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _big_ints,
                          st.floats(), st.text(max_size=6))
_json = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=6)
# Field values: what the readers look into is a scalar or a flat list.
_field_values = st.one_of(_json_scalars, st.lists(_json_scalars, max_size=3))

_KEYS = {}
for _section, _key, *_ in FIELDS:
    _KEYS.setdefault(_section, []).append(_key)

# Objects with the table's sections and keys, plus an unknown one, and
# drawn values under them, so that the values reach every reader.
_tabled = st.fixed_dictionaries({}, optional={
    **{key: _field_values for key in _KEYS[""]},
    "controller": st.one_of(st.sampled_from(CONTROLLERS), _field_values),
    **{section: st.one_of(st.dictionaries(st.sampled_from(keys + ["bogus"]),
                                          _field_values, max_size=len(keys)),
                          _json)
       for section, keys in _KEYS.items() if section},
    "bogus": _field_values,
})


def _assert_admissible(cfg):
    assert isinstance(cfg, ScenarioConfig)
    assert bound_violations(cfg.world, cfg.gains, cfg.smoothed,
                            cfg.backstep) == []
    assert obstacle_distance(cfg.world, cfg.initial.p0) >= cfg.world.epsilon


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(raw=st.one_of(_json, _tabled))
def test_parse_config_returns_a_config_or_a_validation_error(raw):
    try:
        cfg = parse_config(raw, source="drawn")
    except ValidationError:
        return
    _assert_admissible(cfg)


_SHIPPED = {path.stem: path.read_text()
            for path in sorted(CONFIG_DIR.glob("*.json"))}


@st.composite
def _mutated_configs(draw):
    """A shipped config with one to three fields, list entries or sections,
    at paths from the field table, replaced by drawn values or deleted."""
    raw = json.loads(_SHIPPED[draw(st.sampled_from(sorted(_SHIPPED)))])
    for _ in range(draw(st.integers(1, 3))):
        section, key, *_ = draw(st.sampled_from(FIELDS))
        obj = raw.setdefault(section, {}) if section else raw
        if not isinstance(obj, dict):
            continue
        action = draw(st.sampled_from(["set", "delete", "entry", "section"]))
        if action == "set":
            obj[key] = draw(_field_values)
        elif action == "delete":
            obj.pop(key, None)
        elif action == "entry" and isinstance(obj.get(key), list) and obj[key]:
            obj[key][draw(st.integers(0, len(obj[key]) - 1))] = draw(_json_scalars)
        elif action == "section" and section:
            raw[section] = draw(_json)
    return raw


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(raw=_mutated_configs())
def test_load_config_of_mutated_shipped_configs_raises_only_its_own_errors(
        raw, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(raw))
    try:
        cfg = load_config(path)
    except (ValidationError, ParseError):
        return
    _assert_admissible(cfg)
