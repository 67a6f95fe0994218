"""Unit tests for the fixed-step hybrid integration engine."""

import dataclasses
import math

import numpy as np
import pytest

from syncon import engine
from syncon.engine import (
    STAT_KEYS,
    TERM_DEAD_END,
    TERM_J_MAX,
    TERM_T_MAX,
    HybridSystemSpec,
    SimConfig,
    apply_jump,
    locate_boundary,
    simulate,
    step_flow,
)
from syncon.errors import (
    CoverageViolation,
    DimensionMismatch,
    EmptyJumpSet,
    NoSignChange,
    NonFiniteState,
    NotInJumpSet,
)


def pure_flow_spec(f, project=None):
    """A spec that always flows and never jumps."""
    return HybridSystemSpec(
        dim=1,
        flow_map=f,
        jump_map=lambda v: [],
        in_flow_set=lambda v: -1.0,
        in_jump_set=lambda v: 1.0,
        project_flow=project,
    )


def always_jump_spec():
    """Overlapping sets everywhere; jumps halve the state."""
    return HybridSystemSpec(
        dim=1,
        flow_map=lambda v: np.zeros(1),
        jump_map=lambda v: [[0.5 * v[0]]],
        in_flow_set=lambda v: -1.0,
        in_jump_set=lambda v: -1.0,
    )


def reset_clock_spec():
    """Flow at unit rate until x = 1, then reset to zero."""
    return HybridSystemSpec(
        dim=1,
        flow_map=lambda v: np.ones(1),
        jump_map=lambda v: [np.zeros(1)],
        in_flow_set=lambda v: float(v[0] - 1.0),
        in_jump_set=lambda v: float(1.0 - v[0]),
    )


def test_step_flow_single_rk4_step_matches_exponential():
    spec = pure_flow_spec(lambda v: v)
    x1 = step_flow(spec, np.array([1.0]), 0.1)
    err = abs(float(x1[0]) - math.exp(0.1))
    assert err <= 1e-7


def test_step_flow_rejects_bad_step():
    spec = pure_flow_spec(lambda v: v)
    for h in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            step_flow(spec, np.array([1.0]), h)


def test_step_flow_rejects_nonfinite_result():
    spec = pure_flow_spec(lambda v: np.array([math.inf]))
    with pytest.raises(NonFiniteState):
        step_flow(spec, np.array([1.0]), 0.1)


def test_step_flow_names_the_step_of_an_overflowing_output():
    """The stage sum 6e308 overflows to inf; the error names the step size
    and the output."""
    spec = pure_flow_spec(lambda v: np.array([1e308]))
    with pytest.raises(NonFiniteState) as info:
        step_flow(spec, np.zeros(1), 0.25)
    assert str(info.value) == ("flow step output (h=0.25) is not finite: "
                               "array([inf])")


@pytest.mark.parametrize("at", range(3))
@pytest.mark.parametrize("bad", [1e308, -1e308, math.nan])
def test_step_flow_names_a_nonfinite_output_at_any_entry(at, bad):
    """The kernel's finiteness check on the sum of the output still finds a
    single bad entry, at every position: a stage sum that overflows to +-inf
    or a NaN, named with the step size and the whole output."""
    k = [0.0, 0.0, 0.0]
    k[at] = bad
    spec = dataclasses.replace(pure_flow_spec(lambda v: k), dim=3)
    expect = [0.0, 0.0, 0.0]
    expect[at] = math.copysign(math.inf, bad) if bad == bad else math.nan
    with pytest.raises(NonFiniteState) as info:
        step_flow(spec, [0.0, 0.0, 0.0], 0.25)
    assert str(info.value) == ("flow step output (h=0.25) is not finite: "
                               f"{np.array(expect)!r}")


def test_step_flow_accepts_finite_entries_whose_sum_overflows():
    """1e308 + 1e308 is inf, but each entry is finite: the step returns the
    state's bits under a zero flow and does not raise."""
    spec = dataclasses.replace(pure_flow_spec(lambda v: [0.0, 0.0, 0.0]), dim=3)
    x = [1e308, 1e308, 0.0]
    for start in (x, np.array(x)):
        out = step_flow(spec, start, 0.5)
        assert type(out) is list
        assert np.array(out).tobytes() == np.array(x).tobytes()


def test_every_callable_receives_a_list_of_floats():
    """The engine hands each map its state as a list of Python floats, also
    where the caller passed an ndarray, as the state or as the locator's
    step end: flow stages, indicators (locator probes included), projection
    and jump map."""
    seen = {}

    def record(name, fn):
        def wrapper(v):
            seen.setdefault(name, []).append(
                type(v) is list and all(type(a) is float for a in v))
            return fn(v)
        return wrapper

    base = reset_clock_spec()
    spec = dataclasses.replace(
        base, flow_map=record("flow", base.flow_map),
        jump_map=record("jump", base.jump_map),
        in_flow_set=record("flow set", base.in_flow_set),
        in_jump_set=record("jump set", base.in_jump_set),
        project_flow=record("project", lambda v: v))
    arc = simulate(spec, np.array([0.0]), SimConfig(dt=0.03, t_max=3.5))
    assert arc.n_jumps == 3 and arc.stats["locate_probes"] == 3
    step_flow(spec, np.array([0.5]), 0.1)
    locate_boundary(spec, np.array([0.9]), 0.2, spec.in_flow_set)
    locate_boundary(spec, np.array([0.9]), 0.2, spec.in_flow_set,
                    x_hi=np.array([1.1]))
    x_b, frac = locate_boundary(spec, np.array([0.9]), 0.1, spec.in_flow_set,
                                x_hi=np.array([1.0]))
    assert frac == 1.0 and type(x_b) is list and x_b == [1.0]
    apply_jump(spec, np.array([1.0]))
    assert sorted(seen) == ["flow", "flow set", "jump", "jump set", "project"]
    assert all(all(calls) for calls in seen.values())


class FloatArray(np.ndarray):
    """An ndarray subclass, as a flow map may return one."""


def float_array(k):
    return np.asarray(k, dtype=float).view(FloatArray)


@pytest.mark.parametrize("wrap", [list, tuple, np.array, float_array])
def test_a_flow_may_return_any_float_sequence(wrap):
    """A list, a tuple, an ndarray or an ndarray subclass out of the flow map
    give the same bits, through single steps and through a run that locates
    its boundary, and every stage state reaches the maps as a list of Python
    floats."""
    def field(v):
        assert type(v) is list and all(type(a) is float for a in v)
        x, y = v
        return [-0.5 * x - y, x - 0.5 * y]

    ref = HybridSystemSpec(dim=2, flow_map=field, jump_map=lambda v: [],
                           in_flow_set=lambda v: v[1] - 0.5,
                           in_jump_set=lambda v: 1.0)
    spec = dataclasses.replace(ref, flow_map=lambda v: wrap(field(v)))
    x0 = np.array([1.0, 0.25])
    out = step_flow(spec, x0, 0.1)
    assert type(out) is list and out == step_flow(ref, x0, 0.1)
    cfg = SimConfig(dt=0.05, t_max=5.0)
    got, expect = simulate(spec, x0, cfg), simulate(ref, x0, cfg)
    assert got.termination == expect.termination == TERM_DEAD_END
    assert got.stats == expect.stats and got.stats["locate_calls"] > 0
    (a,), (b,) = got.segments, expect.segments
    for u, w in ((a.ts, b.ts), (a.xs, b.xs)):
        assert u.dtype == w.dtype == float and u.shape == w.shape
        assert u.tobytes() == w.tobytes()


def test_step_flow_equals_the_vector_rk4_expression():
    """The float RK4 is x + (h/6)(k1 + 2 k2 + 2 k3 + k4), entry by entry, in
    the order of operations of the numpy expression: the bits agree.  The
    widths cover every shipped loop (3, 5, 7) and one wide kernel, and the
    flow returns a list, a tuple and an ndarray in turn."""
    rng = np.random.default_rng(7)
    wraps = (np.ndarray.tolist, lambda k: tuple(k.tolist()), lambda k: k)
    for dim in (1, 2, 3, 5, 7, 40):
        for i in range(25):
            A = rng.standard_normal((dim, dim))
            b = rng.standard_normal(dim)

            def f(v, A=A, b=b):
                return A @ v + b

            x = rng.standard_normal(dim)
            h = float(rng.uniform(1e-3, 0.5))
            k1 = f(x)
            k2 = f(x + (0.5 * h) * k1)
            k3 = f(x + (0.5 * h) * k2)
            k4 = f(x + h * k3)
            expect = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            spec = dataclasses.replace(
                pure_flow_spec(lambda v, f=f, wrap=wraps[i % 3]: wrap(f(v))),
                dim=dim)
            out = step_flow(spec, x, h)
            assert type(out) is list and all(type(a) is float for a in out)
            assert np.asarray(out).tobytes() == expect.tobytes()


@pytest.mark.parametrize("size", [1, 3])
def test_step_flow_rejects_a_flow_of_the_wrong_length(size):
    """Too short or too long, as an ndarray, a list or a tuple, at the first
    stage or a later one: the step raises DimensionMismatch instead of
    cutting the state to the shorter length or failing to unpack it."""
    for ones in (np.ones, lambda m: [1.0] * m, lambda m: (1.0,) * m):
        first = HybridSystemSpec(dim=2, flow_map=lambda v: ones(size),
                                 jump_map=lambda v: [],
                                 in_flow_set=lambda v: -1.0,
                                 in_jump_set=lambda v: 1.0)
        later = dataclasses.replace(
            first, flow_map=lambda v: ones(2) if v[0] == 0.0 else ones(size))
        for spec in (first, later):
            with pytest.raises(DimensionMismatch):
                step_flow(spec, np.zeros(2), 0.1)
            with pytest.raises(DimensionMismatch):
                simulate(spec, np.zeros(2), SimConfig(dt=0.1, t_max=1.0))


@pytest.mark.parametrize("wrap", [list, tuple, np.array,
                                  lambda k: (a for a in k)])
@pytest.mark.parametrize("size", [1, 3])
def test_a_flow_of_the_wrong_length_is_named(wrap, size):
    """A list, a tuple, an ndarray or a generator of the wrong length, at
    the first stage or a later one, is reported with its length."""
    first = HybridSystemSpec(dim=2, flow_map=lambda v: wrap([1.0] * size),
                             jump_map=lambda v: [],
                             in_flow_set=lambda v: -1.0,
                             in_jump_set=lambda v: 1.0)
    later = dataclasses.replace(
        first, flow_map=lambda v: wrap([1.0] * (2 if v[0] == 0.0 else size)))
    for spec in (first, later):
        with pytest.raises(DimensionMismatch,
                           match=f"^flow map returned dimension {size}, expected 2$"):
            step_flow(spec, [0.0, 0.0], 0.1)


def test_segments_hold_c_contiguous_float64_states():
    """Each segment's xs is a float64, C-contiguous (samples, dim) array
    holding the states in sample order: on a width-1 clock whose first
    segment is one sample (a jump at t = 0), and on a width-2 thermostat."""
    clock = simulate(reset_clock_spec(), np.array([1.0]),
                     SimConfig(dt=0.25, t_max=2.0))
    thermo = simulate(thermostat_spec(), np.array([1.0, 1.0]),
                      SimConfig(dt=0.05, t_max=1.0))
    assert len(clock.segments[0].ts) == 1 and clock.jumps[0].t == 0.0
    for arc, dim in ((clock, 1), (thermo, 2)):
        assert arc.n_jumps >= 2
        for seg in arc.segments:
            xs = seg.xs
            assert xs.dtype == np.float64 and xs.flags.c_contiguous
            assert xs.shape == (len(seg.ts), dim)
            assert xs.tobytes() == np.array(xs.tolist()).tobytes()
    assert clock.segments[0].xs.tolist() == [[1.0]]
    assert clock.segments[1].xs[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_a_state_of_the_wrong_width_is_named():
    """step_flow and locate_boundary compare the caller's state with
    spec.dim: a width-agnostic flow would step it, and a fixed-width one
    would be blamed for the caller's state."""
    for flow in (lambda v: [-a for a in v], lambda v: [-v[0], -v[1]]):
        spec = HybridSystemSpec(dim=2, flow_map=flow, jump_map=lambda v: [],
                                in_flow_set=lambda v: -1.0,
                                in_jump_set=lambda v: 1.0)
        for x in ([1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0]), [1.0]):
            width = len(x)
            with pytest.raises(DimensionMismatch,
                               match=f"^state has dimension {width}, expected 2"):
                step_flow(spec, x, 0.1)
            with pytest.raises(DimensionMismatch,
                               match=f"^x_inside has dimension {width}, expected 2"):
                locate_boundary(spec, x, 0.1, lambda v: float(v[0] - 0.5))
            with pytest.raises(DimensionMismatch,
                               match=f"^x_hi has dimension {width}, expected 2"):
                locate_boundary(spec, [0.0, 0.0], 0.1, lambda v: float(v[0] - 0.5),
                                x_hi=x)
            with pytest.raises(DimensionMismatch, match="^state has dimension"):
                apply_jump(spec, x)
    spec = pure_flow_spec(lambda v: [-v[0]], project=lambda v: [0.5, 0.5])
    with pytest.raises(DimensionMismatch, match="^projected state has dimension 2"):
        simulate(spec, np.array([1.0]), SimConfig(dt=0.1, t_max=1.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_step_flow_rejects_a_nonfinite_later_stage(bad):
    """A stage output that is not finite makes the step output non-finite;
    the first stage at x is finite here, only a later one is not."""
    spec = pure_flow_spec(
        lambda v: np.ones(1) if v[0] == 1.0 else np.array([bad]))
    with pytest.raises(NonFiniteState):
        step_flow(spec, np.array([1.0]), 0.1)
    with pytest.raises(NonFiniteState):
        simulate(spec, np.array([1.0]), SimConfig(dt=0.1, t_max=1.0))


@pytest.mark.parametrize("stage, lazy", [
    *[pytest.param(stage, False, id=str(stage)) for stage in (2, 3, 4)],
    *[pytest.param(stage, True, id=f"{stage}-lazy") for stage in (2, 3, 4)]])
def test_a_math_error_at_an_overflowed_stage_is_a_nonfinite_state(stage, lazy):
    """A step of h = 1e10 too large for the field overflows the given stage
    state to inf first, where math.cos raises ValueError: inside the flow
    map, or, when the flow map returns a generator (lazy), while the engine
    reads its output.  Either way the engine names the state.  The rate is 1
    at x = 0 and 2 at x = h/2, so the stage states run 0, h/2, h; the first
    state without a listed rate gets 1e300."""
    rates = dict([(0.0, 1.0), (5e9, 2.0)][:stage - 2])
    seen = []

    def f(v):
        seen.append(v[0])
        out = (math.cos(a) * 0.0 + rates.get(a, 1e300) for a in v)
        return out if lazy else list(out)

    spec = pure_flow_spec(f)
    with pytest.raises(NonFiniteState, match="stage state"):
        step_flow(spec, np.zeros(1), 1e10)
    assert len(seen) == stage and seen[-1] == math.inf
    assert all(map(math.isfinite, seen[:-1]))
    with pytest.raises(NonFiniteState, match="stage state"):
        simulate(spec, np.zeros(1), SimConfig(dt=1e10, t_max=1e11))


@pytest.mark.parametrize("f, x", [
    (lambda v: np.array([math.log(v[0])]), -1.0),
    (lambda v: np.array([math.exp(v[0])]), 1e3),
])
def test_a_math_error_at_a_finite_stage_propagates_unchanged(f, x):
    with pytest.raises((ValueError, OverflowError)) as err:
        step_flow(pure_flow_spec(f), np.array([x]), 0.1)
    assert type(err.value) in (ValueError, OverflowError)


def test_pure_flow_growth_error_shrinks_fourth_order():
    spec = pure_flow_spec(lambda v: v)
    errs = []
    for dt in (0.05, 0.025):
        arc = simulate(spec, np.array([1.0]), SimConfig(dt=dt, t_max=1.0))
        assert arc.termination == TERM_T_MAX
        assert abs(arc.segments[-1].ts[-1] - 1.0) <= 1e-12
        errs.append(abs(float(arc.final_state[0]) - math.e))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0


def test_pure_flow_decay_sample_layout():
    spec = pure_flow_spec(lambda v: [-v[0]])
    arc = simulate(spec, np.array([2.0]), SimConfig(dt=0.01, t_max=2.0))
    assert arc.termination == TERM_T_MAX
    assert arc.n_jumps == 0
    assert len(arc.segments) == 1
    ts = arc.segments[0].ts
    assert ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    assert abs(float(arc.final_state[0]) - 2.0 * math.exp(-2.0)) <= 1e-9


def test_zero_horizon_returns_initial_state():
    spec = pure_flow_spec(lambda v: v)
    arc = simulate(spec, np.array([3.0]), SimConfig(dt=0.1, t_max=0.0))
    assert arc.termination == TERM_T_MAX
    assert arc.segments[-1].ts[-1] == 0.0
    assert float(arc.final_state[0]) == 3.0


def test_jump_chain_halves_until_budget():
    arc = simulate(always_jump_spec(), np.array([1.0]),
                   SimConfig(dt=0.1, t_max=1.0, j_max=5))
    assert arc.termination == TERM_J_MAX
    assert arc.n_jumps == 5
    assert arc.segments[-1].j == 5
    assert abs(float(arc.final_state[0]) - 1.0 / 32.0) <= 1e-15
    for k, ev in enumerate(arc.jumps):
        assert ev.t == 0.0
        assert ev.j_pre == k
        assert ev.n_candidates == 1


def test_zeno_chain_warns_after_a_hundred_instant_jumps():
    with pytest.warns(RuntimeWarning):
        arc = simulate(always_jump_spec(), np.array([1.0]),
                       SimConfig(dt=0.1, t_max=1.0, j_max=150))
    assert arc.termination == TERM_J_MAX
    assert arc.n_jumps == 150
    assert any("jump" in note for note in arc.notes)


def test_short_jump_chain_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arc = simulate(always_jump_spec(), np.array([1.0]),
                       SimConfig(dt=0.1, t_max=1.0, j_max=5))
    assert arc.notes == []


def test_event_location_places_jumps_on_the_boundary():
    # dt does not divide the crossing time, so every event needs locating.
    arc = simulate(reset_clock_spec(), np.array([0.0]),
                   SimConfig(dt=0.03, t_max=3.5))
    assert arc.termination == TERM_T_MAX
    assert arc.n_jumps == 3
    for k, ev in enumerate(arc.jumps):
        assert abs(ev.t - (k + 1.0)) <= 1e-9
        assert abs(float(ev.x_pre[0]) - 1.0) <= 1e-9
        assert float(ev.x_post[0]) == 0.0
    assert len(arc.segments) == 4
    assert [seg.j for seg in arc.segments] == [0, 1, 2, 3]
    assert arc.total_samples == sum(len(seg.ts) for seg in arc.segments)
    ts = [t for t, _, _ in arc.iter_samples()]
    assert len(ts) == arc.total_samples


def test_simulate_is_deterministic():
    runs = []
    for _ in range(2):
        arc = simulate(reset_clock_spec(), np.array([0.0]),
                       SimConfig(dt=0.03, t_max=3.5))
        runs.append(np.array([[t, j, x[0]] for t, j, x in arc.iter_samples()]))
    assert np.array_equal(runs[0], runs[1])


def test_initial_state_outside_both_sets_raises():
    spec = HybridSystemSpec(
        dim=1,
        flow_map=lambda v: np.zeros(1),
        jump_map=lambda v: [v],
        in_flow_set=lambda v: 1.0,
        in_jump_set=lambda v: 1.0,
    )
    with pytest.raises(CoverageViolation):
        simulate(spec, np.array([0.0]), SimConfig(dt=0.1, t_max=1.0))


def test_jump_landing_outside_both_sets_raises():
    # The jump throws the state past the jump window [1, 1.2] and out of the
    # flow set x <= 1 at once.
    spec = HybridSystemSpec(
        dim=1,
        flow_map=lambda v: np.ones(1),
        jump_map=lambda v: [np.array([1.5])],
        in_flow_set=lambda v: float(v[0] - 1.0),
        in_jump_set=lambda v: max(float(1.0 - v[0]), float(v[0] - 1.2)),
    )
    with pytest.raises(CoverageViolation):
        simulate(spec, np.array([0.0]), SimConfig(dt=0.1, t_max=1.0))


def test_dead_end_when_flow_stalls_and_no_jump_allowed():
    spec = HybridSystemSpec(
        dim=1,
        flow_map=lambda v: np.ones(1),
        jump_map=lambda v: [v],
        in_flow_set=lambda v: float(v[0] - 1.0),
        in_jump_set=lambda v: 1.0,
    )
    arc = simulate(spec, np.array([0.0]), SimConfig(dt=0.1, t_max=5.0))
    assert arc.termination == TERM_DEAD_END
    assert abs(float(arc.final_state[0]) - 1.0) <= 1e-8
    assert arc.segments[-1].ts[-1] < 5.0


def test_priority_resolves_overlap():
    spec = always_jump_spec()
    jump_first = simulate(spec, np.array([1.0]),
                          SimConfig(dt=0.1, t_max=1.0, j_max=3))
    assert jump_first.termination == TERM_J_MAX
    assert jump_first.n_jumps == 3


def test_nonfinite_flow_raises_during_simulation():
    spec = pure_flow_spec(lambda v: np.array([math.inf]))
    with pytest.raises(NonFiniteState):
        simulate(spec, np.array([1.0]), SimConfig(dt=0.1, t_max=1.0))


def test_locate_boundary_fraction_on_linear_clock():
    spec = pure_flow_spec(lambda v: np.ones(1))
    x0 = np.zeros(1)
    x_b, frac = locate_boundary(spec, x0, 1.0, lambda v: float(v[0] - 0.2))
    assert abs(frac - 0.2) <= 1e-9
    assert abs(float(x_b[0]) - 0.2) <= 1e-9

    # Boundary met at the near endpoint: no bisection, zero fraction.
    x_b, frac = locate_boundary(spec, x0, 1.0, lambda v: float(v[0]))
    assert frac == 0.0
    assert float(x_b[0]) == 0.0

    # Boundary met at the far endpoint.
    x_b, frac = locate_boundary(spec, x0, 1.0, lambda v: float(v[0] - 1.0))
    assert frac == 1.0
    assert abs(float(x_b[0]) - 1.0) <= 1e-12

    with pytest.raises(NoSignChange):
        locate_boundary(spec, x0, 1.0, lambda v: float(v[0] - 2.0))


def test_locate_boundary_reuses_the_callers_step():
    spec = pure_flow_spec(lambda v: np.ones(1))
    x0 = np.zeros(1)

    def indicator(v):
        return float(v[0] - 0.2)

    fresh = dict.fromkeys(STAT_KEYS, 0)
    x_a, frac_a = locate_boundary(spec, x0, 1.0, indicator, stats=fresh)
    x_hi = step_flow(spec, x0, 1.0)
    reused = dict.fromkeys(STAT_KEYS, 0)
    x_b, frac_b = locate_boundary(spec, x0, 1.0, indicator, x_hi=x_hi,
                                  f_lo=indicator(x0), f_hi=indicator(x_hi),
                                  stats=reused)
    assert frac_a == frac_b
    assert np.array_equal(x_a, x_b)
    assert fresh["locate_calls"] == reused["locate_calls"] == 1
    assert reused["locate_probes"] == fresh["locate_probes"] - 1
    assert reused["rk4_steps"] == fresh["rk4_steps"] - 1
    assert reused["indicator_evals"] == fresh["indicator_evals"] - 2
    assert reused["rk4_steps"] == reused["locate_probes"] == reused["indicator_evals"]


def test_flow_steps_evaluate_indicators_once_per_state():
    spec = pure_flow_spec(lambda v: [-v[0]])
    cfg = SimConfig(dt=0.1, t_max=1.0)
    general = simulate(spec, np.array([1.0]), cfg)
    paired = simulate(dataclasses.replace(spec, complementary=True),
                      np.array([1.0]), cfg)
    assert np.array_equal(general.segments[0].ts, paired.segments[0].ts)
    assert np.array_equal(general.segments[0].xs, paired.segments[0].xs)
    # Ten steps: the initial state plus each step's end, one evaluation of
    # each indicator per state, or of the flow indicator alone.
    quiet = {"locate_calls": 0, "locate_probes": 0, "locate_misses": 0,
             "clamps": 0}
    assert general.stats == {"indicator_evals": 22, "rk4_steps": 10, **quiet}
    assert paired.stats == {"indicator_evals": 11, "rk4_steps": 10, **quiet}


def counting_reset_clock_spec(complementary):
    """reset_clock_spec whose indicators count their own calls."""
    calls = [0]
    base = reset_clock_spec()

    def counted(fn):
        def wrapper(v):
            calls[0] += 1
            return fn(v)
        return wrapper

    spec = dataclasses.replace(base, in_flow_set=counted(base.in_flow_set),
                               in_jump_set=counted(base.in_jump_set),
                               complementary=complementary)
    return spec, calls


def test_event_counts_on_the_reset_clock():
    cfg = SimConfig(dt=0.03, t_max=3.5)
    general_spec, general_calls = counting_reset_clock_spec(False)
    paired_spec, paired_calls = counting_reset_clock_spec(True)
    general = simulate(general_spec, np.array([0.0]), cfg)
    paired = simulate(paired_spec, np.array([0.0]), cfg)
    assert general.termination == paired.termination == TERM_T_MAX
    assert len(general.segments) == len(paired.segments) == 4
    for a, b in zip(general.segments, paired.segments):
        assert np.array_equal(a.ts, b.ts) and np.array_equal(a.xs, b.xs)
    for a, b in zip(general.jumps, paired.jumps):
        assert np.array_equal(a.x_pre, b.x_pre)
        assert np.array_equal(a.x_post, b.x_post)

    # 119 trial steps; 3 of them end in a boundary located by one probe each
    # (the indicator is linear in the step fraction, so the first secant
    # point is the root), each an RK4 step and one indicator call.  States
    # evaluated: the initial one, every trial step's end, each post-jump and
    # each located state.  The jump selection reuses the loop's jump
    # indicator.
    trial, located, probes = 119, 3, 3
    states = 1 + trial + general.n_jumps + located
    for arc, per_state, calls in ((general, 2, general_calls),
                                  (paired, 1, paired_calls)):
        assert arc.stats == {"indicator_evals": per_state * states + probes,
                             "rk4_steps": trial + probes,
                             "locate_calls": located,
                             "locate_probes": probes,
                             "locate_misses": 0,
                             "clamps": 0}
        assert calls[0] == arc.stats["indicator_evals"]


def test_simulate_reaches_its_steps_through_the_traced_names(monkeypatch):
    """A tracer patches engine.step_flow, engine.locate_boundary and
    engine._select_jump; simulate must call them by those names, so that
    the patched ones count every RK4 step (trial steps and locator probes),
    every location and every jump selection on the arc's stats."""
    calls = {}
    for name in ("step_flow", "locate_boundary", "_select_jump"):
        def counted(*args, _name=name, _fn=getattr(engine, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    arc = simulate(reset_clock_spec(), np.array([0.0]),
                   SimConfig(dt=0.03, t_max=3.5))
    assert arc.stats["locate_probes"] > 0 and arc.n_jumps > 0
    assert calls == {"step_flow": arc.stats["rk4_steps"],
                     "locate_boundary": arc.stats["locate_calls"],
                     "_select_jump": arc.n_jumps}


def test_apply_jump_selects_first_candidate():
    spec = HybridSystemSpec(
        dim=1,
        flow_map=lambda v: np.zeros(1),
        jump_map=lambda v: [np.array([10.0]), np.array([20.0])],
        in_flow_set=lambda v: -1.0,
        in_jump_set=lambda v: -1.0,
    )
    post = apply_jump(spec, np.array([0.0]))
    assert float(post[0]) == 10.0


def test_apply_jump_error_paths():
    base = dict(dim=1, flow_map=lambda v: np.zeros(1),
                in_flow_set=lambda v: -1.0)

    outside = HybridSystemSpec(jump_map=lambda v: [v],
                               in_jump_set=lambda v: 1.0, **base)
    with pytest.raises(NotInJumpSet):
        apply_jump(outside, np.array([0.0]))

    empty = HybridSystemSpec(jump_map=lambda v: [],
                             in_jump_set=lambda v: -1.0, **base)
    with pytest.raises(EmptyJumpSet):
        apply_jump(empty, np.array([0.0]))

    wrong_dim = HybridSystemSpec(jump_map=lambda v: [np.array([1.0, 2.0])],
                                 in_jump_set=lambda v: -1.0, **base)
    with pytest.raises(DimensionMismatch):
        apply_jump(wrong_dim, np.array([0.0]))


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), ()])
def test_a_jump_candidate_of_the_wrong_shape_is_named(shape):
    """A candidate with the right number of entries but not a flat vector
    of dim entries is a DimensionMismatch, from apply_jump and simulate."""
    def jump(v):
        return [np.resize(np.array([0.0, v[1]]), shape)]

    spec = HybridSystemSpec(dim=2, flow_map=lambda v: [0.0, 0.0],
                            jump_map=jump, in_flow_set=lambda v: 1.0,
                            in_jump_set=lambda v: -1.0)
    x0 = np.array([1.0, 2.0])
    with pytest.raises(DimensionMismatch, match=r"jump candidate has shape"):
        apply_jump(spec, x0)
    with pytest.raises(DimensionMismatch, match=r"jump candidate has shape"):
        simulate(spec, x0, SimConfig(dt=0.1, t_max=1.0))


def test_project_flow_clamps_samples_and_counts():
    floor = 0.5
    spec = pure_flow_spec(lambda v: -np.ones(1),
                          project=lambda v: np.maximum(v, floor))
    arc = simulate(spec, np.array([1.0]), SimConfig(dt=0.1, t_max=1.0))
    xs = np.array([x[0] for _, _, x in arc.iter_samples()])
    assert np.min(xs) >= floor - 1e-12
    assert abs(float(arc.final_state[0]) - floor) <= 1e-12
    assert arc.n_clamped >= 4
    assert arc.n_clamped == arc.stats["clamps"]
    # A clamped sample is a new state: its indicators are evaluated afresh.
    steps = arc.stats["rk4_steps"]
    assert arc.stats["indicator_evals"] == 2 * (1 + steps + arc.n_clamped)


def test_unused_projection_counts_nothing():
    spec = pure_flow_spec(lambda v: [-v[0]], project=lambda v: v)
    arc = simulate(spec, np.array([1.0]), SimConfig(dt=0.1, t_max=1.0))
    assert arc.n_clamped == 0


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=-0.1, t_max=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_max=-1.0)
    for t_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="non-negative and finite"):
            SimConfig(dt=0.1, t_max=t_max)
    for j_max in (-1, 2.5, True):
        with pytest.raises(ValueError, match="j_max"):
            SimConfig(dt=0.1, t_max=1.0, j_max=j_max)
    for event_tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="event_tol"):
            SimConfig(dt=0.1, t_max=1.0, event_tol=event_tol)
    with pytest.raises(TypeError, match="priority"):
        SimConfig(dt=0.1, t_max=1.0, priority="jump")
    assert SimConfig(dt=0.1, t_max=1.0, j_max=0).j_max == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg = SimConfig(dt=0.1, t_max=1.0)
        cfg.dt = 0.2


def _expm(a: np.ndarray, terms: int = 40) -> np.ndarray:
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def test_random_linear_flows_track_matrix_exponential():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = 0.5 * rng.standard_normal((2, 2))
        x0 = rng.standard_normal(2)
        exact = _expm(a) @ x0

        spec = HybridSystemSpec(
            dim=2,
            flow_map=lambda v, a=a: a @ v,
            jump_map=lambda v: [],
            in_flow_set=lambda v: -1.0,
            in_jump_set=lambda v: 1.0,
        )
        errs = []
        for dt in (0.05, 0.025):
            arc = simulate(spec, x0, SimConfig(dt=dt, t_max=1.0))
            errs.append(float(np.linalg.norm(arc.final_state - exact)))
        assert errs[1] <= 1e-6
        if errs[0] > 1e-12:
            assert errs[0] / errs[1] > 5.0


def nan_above_spec(cut):
    """Flow at unit rate; both indicators are NaN for x > cut."""
    def flow_ind(v):
        return math.nan if v[0] > cut else -1.0

    def jump_ind(v):
        return math.nan if v[0] > cut else 1.0

    return HybridSystemSpec(dim=1, flow_map=lambda v: np.ones(1),
                            jump_map=lambda v: [v], in_flow_set=flow_ind,
                            in_jump_set=jump_ind)


def test_a_nan_indicator_on_a_trial_step_raises():
    """NaN compares false against every threshold, so without the check the
    run flowed on to t_max as if the state were inside the flow set."""
    for complementary in (False, True):
        spec = dataclasses.replace(nan_above_spec(0.5),
                                   complementary=complementary)
        with pytest.raises(NonFiniteState, match="in_flow_set"):
            simulate(spec, np.zeros(1), SimConfig(dt=0.1, t_max=2.0))
    jump_only = dataclasses.replace(nan_above_spec(0.5),
                                    in_flow_set=lambda v: -1.0)
    with pytest.raises(NonFiniteState, match="in_jump_set"):
        simulate(jump_only, np.zeros(1), SimConfig(dt=0.1, t_max=2.0))


def test_a_nan_indicator_at_the_initial_state_raises():
    """Indicators NaN everywhere used to pass the initial coverage check."""
    with pytest.raises(NonFiniteState, match="in_flow_set"):
        simulate(nan_above_spec(-1.0), np.zeros(1), SimConfig(dt=0.1, t_max=1.0))
    # A finite flow indicator does not excuse a NaN jump indicator.
    spec = dataclasses.replace(nan_above_spec(-1.0), in_flow_set=lambda v: -1.0)
    with pytest.raises(NonFiniteState, match="in_jump_set"):
        simulate(spec, np.zeros(1), SimConfig(dt=0.1, t_max=1.0))


def test_apply_jump_at_a_nan_jump_indicator_raises():
    with pytest.raises(NonFiniteState, match="in_jump_set"):
        apply_jump(nan_above_spec(0.5), np.ones(1))


def test_a_nan_indicator_at_a_locator_probe_raises():
    """The ends of the step straddle the boundary, the probes land in a
    NaN gap."""
    spec = pure_flow_spec(lambda v: np.ones(1))

    def gappy(v):
        return float(v[0] - 0.5) if abs(v[0] - 0.5) > 0.4 else math.nan

    with pytest.raises(NonFiniteState, match="gappy"):
        locate_boundary(spec, np.zeros(1), 1.0, gappy)


def step_indicator(c):
    """A sign flip at x = c with no zero: no probe can meet event_tol."""
    return lambda v: -1.0 if v[0] < c else 1.0


def test_a_location_that_gives_up_is_counted():
    """Bisection needs 54 halvings to bring the bracket below 1e-16; the
    midpoint rule halves it at least every second probe.  At fractions of
    0.5 and above, adjacent floats are 1.1e-16 apart, so the bracket stops
    shrinking above the floor and only the no-float-inside test ends it."""
    spec = pure_flow_spec(lambda v: np.ones(1))
    for c in (1e-3, 0.3, 0.5, 0.7, 0.987654321, 1.0 - 2.0 ** -53):
        for sign in (1.0, -1.0):
            stats = dict.fromkeys(STAT_KEYS, 0)
            flip = step_indicator(c)
            x_b, frac = locate_boundary(spec, np.zeros(1), 1.0,
                                        lambda v: sign * flip(v), stats=stats)
            assert stats["locate_calls"] == stats["locate_misses"] == 1
            assert stats["locate_probes"] <= 2 * 54 + 2
            assert abs(frac - c) <= 1e-15
            assert float(x_b[0]) == frac

    clock = HybridSystemSpec(dim=1, flow_map=lambda v: np.ones(1),
                             jump_map=lambda v: [np.zeros(1)],
                             in_flow_set=step_indicator(0.27),
                             in_jump_set=lambda v: -step_indicator(0.27)(v))
    arc = simulate(clock, np.zeros(1), SimConfig(dt=0.1, t_max=1.0))
    assert arc.n_jumps == arc.stats["locate_calls"] == 3
    assert arc.stats["locate_misses"] == 3
    assert arc.stats["locate_probes"] <= 3 * (2 * 54 + 2)


def bisection_probes(f, tol):
    """Probes plain bisection of f over [0, 1] takes to meet tol or to run
    out of bracket."""
    lo, hi = 0.0, 1.0
    up = f(hi) > 0.0
    for n in range(1, 201):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= tol or hi - lo < 1e-16 or not lo < mid < hi:
            break
        if (f_mid > 0.0) == up:
            hi = mid
        else:
            lo = mid
    return n


@pytest.mark.parametrize("shape", [
    # Flat below the root and steep above it: without the midpoint rule,
    # secant steps would crawl along the flat side.
    lambda c: lambda s: (math.expm1(min(700.0, 1e4 * (s - c))) if s > c
                         else 1e-3 * (s - c)),
    lambda c: lambda s: math.tanh(1e15 * (s - c)),
    lambda c: lambda s: math.tanh(1e8 * (s - c) ** 3),
])
def test_locate_boundary_costs_at_most_twice_bisection(shape):
    spec = pure_flow_spec(lambda v: np.ones(1))  # the state is the fraction
    tol = 1e-10
    for c in np.linspace(0.05, 0.95, 19):
        f = shape(float(c))
        stats = dict.fromkeys(STAT_KEYS, 0)
        locate_boundary(spec, np.zeros(1), 1.0, lambda v: f(float(v[0])), tol,
                        stats=stats)
        assert stats["locate_probes"] <= 2 * bisection_probes(f, tol) + 2


@pytest.mark.parametrize("shape, may_miss", [
    (lambda c: lambda s: math.atan(50.0 * (s - c)), False),
    # Meeting event_tol needs |s - c| <= 1e-20, below the float spacing
    # near most roots, so a location may end at the floor as a miss.
    (lambda c: lambda s: math.copysign(math.sqrt(abs(s - c)), s - c), True),
])
def test_locate_boundary_stays_within_the_midpoint_rules_bound(shape,
                                                              may_miss):
    """At roots of 0.25, 0.5 and 0.75 bisection's midpoint lands on the
    root in two probes, so no multiple of bisection's count bounds the
    locator there.  The midpoint rule halves the bracket at least every
    second probe after the first, which bounds any location by 54 such
    pairs to reach the 1e-16 floor, plus the full step and the first
    probe."""
    spec = pure_flow_spec(lambda v: np.ones(1))  # the state is the fraction
    for c in (0.05, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9):
        f = shape(c)
        stats = dict.fromkeys(STAT_KEYS, 0)
        locate_boundary(spec, np.zeros(1), 1.0, lambda v: f(float(v[0])),
                        stats=stats)
        assert stats["locate_probes"] <= 2 * 54 + 2
        assert may_miss or stats["locate_misses"] == 0


def test_locate_boundary_takes_the_midpoint_when_the_far_end_is_inf():
    """The secant point through an infinite end is NaN."""
    spec = pure_flow_spec(lambda v: np.ones(1))

    def capped(v):
        return float(v[0] - 0.3) if v[0] < 0.9 else math.inf

    tol = 1e-10
    stats = dict.fromkeys(STAT_KEYS, 0)
    x_b, frac = locate_boundary(spec, np.zeros(1), 1.0, capped, tol, stats=stats)
    assert abs(capped(x_b)) <= tol
    assert abs(frac - 0.3) <= 1e-9
    assert stats["locate_misses"] == 0


def record_probes(monkeypatch):
    """Log each RK4 step the locator takes as ("probe", h) and each
    interpolant it computes as ("quadratic", lo, hi, s), in call order."""
    log = []
    step_flow, quadratic = engine.step_flow, engine._inverse_quadratic

    def logged_step(spec, x, h):
        log.append(("probe", h))
        return step_flow(spec, x, h)

    def logged_quadratic(a, f_a, b, f_b, c, f_c):
        s = quadratic(a, f_a, b, f_b, c, f_c)
        log.append(("quadratic", a, b, s))
        return s

    monkeypatch.setattr(engine, "step_flow", logged_step)
    monkeypatch.setattr(engine, "_inverse_quadratic", logged_quadratic)
    return log


def unit_clock_probes(f, tol=1e-10, stats=None):
    """Locate the root of f over the unit clock's step; returns the probes."""
    stats = dict.fromkeys(STAT_KEYS, 0) if stats is None else stats
    locate_boundary(pure_flow_spec(lambda v: np.ones(1)), [0.0], 1.0,
                    lambda v: f(v[0]), tol, stats=stats)
    return stats["locate_probes"]


def test_the_first_probe_is_the_secant_root(monkeypatch):
    """No probe has replaced an end yet, so there is no third point."""
    log = record_probes(monkeypatch)

    def f(s):
        return s ** 3 - 0.729

    unit_clock_probes(f)
    f_0, f_1 = f(0.0), f(1.0)
    assert log[:2] == [("probe", 1.0), ("probe", 1.0 - f_1 * 1.0 / (f_1 - f_0))]
    assert log[2][0] == "quadratic"


def test_a_repeated_indicator_value_gets_no_interpolant(monkeypatch):
    """Past a sign flip every replaced end repeats the value of the end that
    replaced it, so each probe is the secant root through the ends' values,
    which here is the midpoint."""
    log = record_probes(monkeypatch)
    stats = dict.fromkeys(STAT_KEYS, 0)
    unit_clock_probes(lambda s: -1.0 if s < 0.3 else 1.0, stats=stats)
    assert [entry[0] for entry in log] == ["probe"] * stats["locate_probes"]
    assert [h for _, h in log[1:4]] == [0.5, 0.25, 0.375]
    assert stats["locate_misses"] == 1


@pytest.mark.parametrize("c", [0.05, 0.07])
def test_the_fallback_probe_is_the_secant_root_through_the_true_values(
        monkeypatch, c):
    """Replaying the bracket from the logged probes: every probe that is
    neither an accepted interpolant nor the midpoint is the secant root
    through the bracket ends' own indicator values, with no end weighted."""
    step = engine.step_flow
    spec = pure_flow_spec(lambda v: np.ones(1))
    log = record_probes(monkeypatch)

    def f(s):
        return math.atan(50.0 * (s - c))

    def at(s):
        return f(step(spec, [0.0], s)[0])

    unit_clock_probes(f)
    assert log[0] == ("probe", 1.0)
    lo, hi, f_lo, f_hi = 0.0, 1.0, f(0.0), at(1.0)
    interpolant, secants = None, 0
    for entry in log[1:]:
        if entry[0] == "quadratic":
            interpolant = entry[3]
            continue
        s = entry[1]
        if not (s == interpolant and lo < s < hi or s == 0.5 * (lo + hi)):
            assert s == hi - f_hi * (hi - lo) / (f_hi - f_lo)
            secants += 1
        interpolant, f_s = None, at(s)
        if (f_s > 0.0) == (f_hi > 0.0):
            hi, f_hi = s, f_s
        else:
            lo, f_lo = s, f_s
    assert secants >= 2


@pytest.mark.parametrize("f, outside", [
    # A finite interpolant beyond the bracket.
    (lambda s: s ** 3 - 0.49 ** 3, lambda s: math.isfinite(s)),
    # At a subnormal scale the divided differences overflow.
    (lambda s: 1e-310 * (s ** 3 - 0.49 ** 3), lambda s: not math.isfinite(s)),
])
def test_an_interpolant_outside_the_bracket_gives_way_to_the_secant(
        monkeypatch, f, outside):
    log = record_probes(monkeypatch)
    unit_clock_probes(f, tol=0.0)
    misses = [k for k, entry in enumerate(log) if entry[0] == "quadratic"
              and not entry[1] < entry[3] < entry[2]]
    assert misses
    for k in misses:
        _, lo, hi, s = log[k]
        assert outside(s)
        kind, h = log[k + 1]
        assert kind == "probe" and lo < h < hi


@pytest.mark.parametrize("scale", [1e-160, 1e-310])
@pytest.mark.parametrize("shape", [
    lambda c: lambda s: s ** 3 - c ** 3,
    lambda c: lambda s: math.exp(5.0 * s) - math.exp(5.0 * c),
])
def test_a_tiny_indicator_is_located_without_error(scale, shape):
    """At 1e-160 the products of indicator differences in a Lagrange-form
    interpolant underflow to zero; at 1e-310 the divided differences
    overflow.  Either way the location ends within the midpoint rule's
    2 * 54 + 2 probes."""
    for c in (0.1, 0.3, 0.7, 0.9):
        f = shape(c)
        assert unit_clock_probes(lambda s: scale * f(s), tol=1e-10 * scale) \
            <= 2 * 54 + 2


# Mean probes over 48 roots in [0.03, 0.97], measured with the Illinois
# rule and its midpoint rule alone, before the interpolated probe.
ILLINOIS_MEAN_PROBES = [
    (lambda c: lambda s: s ** 3 - c ** 3, 16.2),
    (lambda c: lambda s: math.exp(5.0 * s) - math.exp(5.0 * c), 19.8),
    (lambda c: lambda s: (math.expm1(min(700.0, 1e4 * (s - c))) if s > c
                          else 1e-3 * (s - c)), 33.0),
]


@pytest.mark.parametrize("shape, illinois", ILLINOIS_MEAN_PROBES)
def test_the_interpolated_probe_beats_the_illinois_rule(shape, illinois):
    """Two thirds of the Illinois rule's mean; the interpolated probe took
    10.1, 11.7 and 4.1."""
    mean = np.mean([unit_clock_probes(shape(float(c)))
                    for c in np.linspace(0.03, 0.97, 48)])
    assert mean <= 2.0 / 3.0 * illinois


THERMO_LOW, THERMO_HIGH = 0.9, 1.1


def thermostat_spec():
    """Hysteresis thermostat over [x, q]: xdot = -x + 2q, heating (q = 1)
    switches off at 1.1 and cooling (q = 0) switches on at 0.9."""
    return HybridSystemSpec(
        dim=2,
        flow_map=lambda v: np.array([-v[0] + 2.0 * v[1], 0.0]),
        jump_map=lambda v: [np.array([v[0], 1.0 - v[1]])],
        in_flow_set=lambda v: v[0] - THERMO_HIGH if v[1] > 0.5 else THERMO_LOW - v[0],
        in_jump_set=lambda v: THERMO_HIGH - v[0] if v[1] > 0.5 else v[0] - THERMO_LOW,
    )


def thermostat_switch_times(x0, q0, count):
    """The first ``count`` switching times from a start inside the band."""
    first = math.log((2.0 - x0) / (2.0 - THERMO_HIGH)) if q0 else \
        math.log(x0 / THERMO_LOW)
    half = math.log(THERMO_HIGH / THERMO_LOW)
    return [first + k * half for k in range(count)]


def test_thermostat_switching_times_match_the_closed_form():
    """Each switch is located to event_tol in about two probes, and the
    switching times do not drift from the closed form over 100 switches."""
    rng = np.random.default_rng(811)
    spec = thermostat_spec()
    cfg = SimConfig(dt=0.01, t_max=20.0)
    locates = probes = 0
    for _ in range(6):
        x0, q0 = float(rng.uniform(THERMO_LOW, THERMO_HIGH)), int(rng.integers(2))
        arc = simulate(spec, np.array([x0, float(q0)]), cfg)
        expected = thermostat_switch_times(x0, q0, arc.n_jumps + 1)
        assert arc.n_jumps >= 90 and expected[-1] > cfg.t_max
        for ev, t in zip(arc.jumps, expected):
            assert abs(ev.t - t) <= 1e-8
            assert abs(spec.in_jump_set(ev.x_pre)) <= cfg.event_tol
        assert arc.stats["locate_misses"] == 0
        locates += arc.stats["locate_calls"]
        probes += arc.stats["locate_probes"]
    assert probes / locates <= 2.5


def test_a_first_probe_near_the_root_is_spared_the_midpoint(monkeypatch):
    """From (1.0, heating) at dt 0.01 the first switch falls at fraction
    0.536 of its step: the secant probe lands just past the root, beyond
    the middle, and the interpolant then meets it, with no midpoint
    between."""
    log = record_probes(monkeypatch)
    arc = simulate(thermostat_spec(), np.array([1.0, 1.0]),
                   SimConfig(dt=0.01, t_max=0.15))
    assert arc.n_jumps == arc.stats["locate_calls"] == 1
    assert arc.stats["locate_probes"] == 2
    # Eleven full steps, the last of them across the switch, then the probes.
    steps = [entry[1] for entry in log if entry[0] == "probe"]
    assert steps[:11] == [0.01] * 11
    first, second = (h / 0.01 for h in steps[11:13])
    assert 0.5 < second < first < 0.54


def test_located_states_on_a_nonlinear_flow_meet_event_tol():
    """A unit-rate rotation reset to (1, 0) when it reaches height sin(1):
    the indicator is nonlinear in the step fraction."""
    top = math.sin(1.0)
    spec = HybridSystemSpec(
        dim=2,
        flow_map=lambda v: np.array([-v[1], v[0]]),
        jump_map=lambda v: [np.array([1.0, 0.0])],
        in_flow_set=lambda v: float(v[1] - top),
        in_jump_set=lambda v: float(top - v[1]),
    )
    cfg = SimConfig(dt=0.03, t_max=5.5)
    arc = simulate(spec, np.array([1.0, 0.0]), cfg)
    assert arc.n_jumps == 5
    assert arc.stats["locate_calls"] == 5
    assert arc.stats["locate_misses"] == 0
    for k, ev in enumerate(arc.jumps):
        assert abs(spec.in_jump_set(ev.x_pre)) <= cfg.event_tol
        assert abs(ev.t - (k + 1.0)) <= 1e-7


def test_errors_name_the_list_state_as_an_array():
    """The engine holds its state as a list; its error texts still print the
    state as a float array."""
    with pytest.raises(NonFiniteState) as info:
        simulate(nan_above_spec(-1.0), np.zeros(1), SimConfig(dt=0.1, t_max=1.0))
    assert str(info.value) == "indicator in_flow_set is NaN at array([0.])"
    spec = nan_above_spec(0.5)
    with pytest.raises(NonFiniteState) as info:
        locate_boundary(spec, [0.0], 1.0, spec.in_flow_set)
    assert str(info.value) == "indicator flow_ind is NaN at array([1.])"
    # With no f_lo given, the indicator at x_inside is the first one read.
    with pytest.raises(NonFiniteState) as info:
        locate_boundary(spec, [1.0], 1.0, spec.in_flow_set)
    assert str(info.value) == "indicator flow_ind is NaN at array([1.])"
    empty = dataclasses.replace(spec, jump_map=lambda v: [],
                                in_jump_set=lambda v: -1.0)
    with pytest.raises(EmptyJumpSet) as info:
        apply_jump(empty, [0.25])
    assert str(info.value) == "jump map returned no candidates at array([0.25])"
