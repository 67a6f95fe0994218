"""Unit tests for the fixed-step hybrid integration engine."""

import dataclasses
import math

import numpy as np
import pytest

from syncon.engine import (
    STAT_KEYS,
    TERM_DEAD_END,
    TERM_J_MAX,
    TERM_T_MAX,
    HybridSystemSpec,
    Priority,
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
        jump_map=lambda v: [0.5 * v],
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


def test_step_flow_equals_the_vector_rk4_expression():
    """The float RK4 is x + (h/6)(k1 + 2 k2 + 2 k3 + k4), entry by entry, in
    the order of operations of the numpy expression: the bits agree."""
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 7):
        for _ in range(25):
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
            spec = dataclasses.replace(pure_flow_spec(f), dim=dim)
            assert np.array_equal(step_flow(spec, x, h), expect)


@pytest.mark.parametrize("size", [1, 3])
def test_step_flow_rejects_a_flow_of_the_wrong_length(size):
    """Too short or too long, at the first stage or a later one: the step
    raises instead of cutting the state to the shorter length."""
    first = HybridSystemSpec(dim=2, flow_map=lambda v: np.ones(size),
                             jump_map=lambda v: [],
                             in_flow_set=lambda v: -1.0,
                             in_jump_set=lambda v: 1.0)
    later = dataclasses.replace(
        first, flow_map=lambda v: np.ones(2) if v[0] == 0.0 else np.ones(size))
    for spec in (first, later):
        with pytest.raises(DimensionMismatch):
            step_flow(spec, np.zeros(2), 0.1)
        with pytest.raises(DimensionMismatch):
            simulate(spec, np.zeros(2), SimConfig(dt=0.1, t_max=1.0))


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


def test_a_math_error_at_an_overflowed_stage_is_a_nonfinite_state():
    """A step too large for the field overflows the second stage state to
    inf, where math.cos raises ValueError; the engine names the state."""
    spec = pure_flow_spec(lambda v: np.array([1e300 + math.cos(v[0])]))
    with pytest.raises(NonFiniteState, match="stage state"):
        step_flow(spec, np.zeros(1), 1e10)
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
        assert abs(arc.final_time - 1.0) <= 1e-12
        errs.append(abs(float(arc.final_state[0]) - math.e))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0


def test_pure_flow_decay_sample_layout():
    spec = pure_flow_spec(lambda v: -v)
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
    assert arc.final_time == 0.0
    assert float(arc.final_state[0]) == 3.0


def test_jump_chain_halves_until_budget():
    arc = simulate(always_jump_spec(), np.array([1.0]),
                   SimConfig(dt=0.1, t_max=1.0, j_max=5))
    assert arc.termination == TERM_J_MAX
    assert arc.n_jumps == 5
    assert arc.final_jump_counter == 5
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
    # dt does not divide the crossing time, so every event needs bisection.
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
    assert arc.final_time < 5.0


def test_priority_resolves_overlap():
    spec = always_jump_spec()
    jump_first = simulate(spec, np.array([1.0]),
                          SimConfig(dt=0.1, t_max=1.0, j_max=3,
                                    priority=Priority.JUMP))
    assert jump_first.termination == TERM_J_MAX
    assert jump_first.n_jumps == 3

    flow_first = simulate(spec, np.array([1.0]),
                          SimConfig(dt=0.1, t_max=1.0, j_max=3,
                                    priority=Priority.FLOW))
    assert flow_first.termination == TERM_T_MAX
    assert flow_first.n_jumps == 0


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
    spec = pure_flow_spec(lambda v: -v)
    cfg = SimConfig(dt=0.1, t_max=1.0)
    general = simulate(spec, np.array([1.0]), cfg)
    paired = simulate(dataclasses.replace(spec, complementary=True),
                      np.array([1.0]), cfg)
    assert np.array_equal(general.segments[0].ts, paired.segments[0].ts)
    assert np.array_equal(general.segments[0].xs, paired.segments[0].xs)
    # Ten steps: the initial state plus each step's end, one evaluation of
    # each indicator per state, or of the flow indicator alone.
    quiet = {"locate_calls": 0, "locate_probes": 0, "clamps": 0}
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

    # 119 trial steps; 3 of them end in a boundary located by 27 bisection
    # probes, each an RK4 step and one indicator call.  States evaluated: the
    # initial one, every trial step's end, each post-jump and each located
    # state.  The jump selection reuses the loop's jump indicator.
    trial, located, probes = 119, 3, 81
    states = 1 + trial + general.n_jumps + located
    for arc, per_state, calls in ((general, 2, general_calls),
                                  (paired, 1, paired_calls)):
        assert arc.stats == {"indicator_evals": per_state * states + probes,
                             "rk4_steps": trial + probes,
                             "locate_calls": located,
                             "locate_probes": probes,
                             "clamps": 0}
        assert calls[0] == arc.stats["indicator_evals"]


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
    spec = pure_flow_spec(lambda v: -v, project=lambda v: v)
    arc = simulate(spec, np.array([1.0]), SimConfig(dt=0.1, t_max=1.0))
    assert arc.n_clamped == 0


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=-0.1, t_max=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_max=-1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_max=1.0, j_max=-1)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_max=1.0, event_tol=0.0)
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
