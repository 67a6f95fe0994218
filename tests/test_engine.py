"""Unit tests for the fixed-step hybrid integration engine."""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from conftest import CONFIG_DIR, load_tool
from syncon import engine
from syncon.engine import (
    STAT_KEYS,
    TERM_DEAD_END,
    TERM_J_MAX,
    TERM_STEP_BUDGET,
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
    NonPositiveDistance,
    NotInJumpSet,
)
from syncon.harness import (
    build_closed_loop,
    initial_packed_state,
    load_config,
    parse_config,
)
from syncon.synergy import assemble_closed_loop


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


def test_literal_source_writes_each_finite_float_with_its_bits():
    """-0.0, the least subnormal, the largest float and a negative value
    under ** and under unary minus compile, with no name left to look up,
    to the bits of the floats themselves: the parentheses keep a negative
    literal whole."""
    consts = {"zero": -0.0, "tiny": 5e-324, "big": 1.7976931348623157e308,
              "neg": -2.5}
    source = engine.literal_source(
        "out = [zero, tiny, big, neg ** 2.0, -neg, 2.0 ** neg]", consts)
    code = compile(source, "<literals>", "exec")
    assert code.co_names == ("out",)
    namespace = {}
    exec(code, namespace)
    expect = [-0.0, 5e-324, 1.7976931348623157e308, 6.25, 2.5, 2.0 ** -2.5]
    assert np.array(namespace["out"]).tobytes() == np.array(expect).tobytes()


def test_literal_source_rewrites_whole_words_of_finite_floats_only():
    """r_s is rewritten where it is a whole word, not inside r_s2, nr_s or
    x_r_s; inf, nan, an int, an np.float64 and a function stay names."""
    assert engine.literal_source("y = r_s + r_s2 + nr_s + x_r_s * r_s",
                                 {"r_s": 0.5}) \
        == "y = (0.5) + r_s2 + nr_s + x_r_s * (0.5)"
    text = "y = fn(big + bad + k + half)"
    assert engine.literal_source(text, {
        "big": math.inf, "bad": math.nan, "k": 3, "half": np.float64(0.5),
        "fn": math.cos}) == text


# Constants for the zero-term rule: two +0.0, a -0.0, an int zero, an int
# and a float.
ZERO_TERMS = {"z": 0.0, "n": 0.0, "m": -0.0, "zi": 0, "k": 3, "a": 2.5}


def plain_words(text: str) -> str:
    """``text`` under the whole-word rule alone: every finite float of
    ZERO_TERMS written in, no term dropped."""
    literals = {"z": "(0.0)", "n": "(0.0)", "m": "(-0.0)", "a": "(2.5)"}
    return re.sub(r"\w+", lambda word: literals.get(word[0], word[0]), text)


@pytest.mark.parametrize("text, written", [
    ("r = x - z", "r = x"),
    ("r = x - z\nq = y - n\n", "r = x\nq = y\n"),
    ("r = f(x - z, y - n)", "r = f(x, y)"),
    ("r = [x - z] + y - z", "r = [x] + y"),
    ("r = x - z + y - n - w", "r = x + y - w"),
    ("r = x - z < y - n", "r = x < y"),
    ("r = x - z if c - z else y - z", "r = x if c else y"),
    ("r = x - z == y - n != w - z  # x - z", "r = x == y != w  # x"),
    ("r = x - a - z - n", "r = x - (2.5)"),
    ("r = k - x - z", "r = k - x"),
    ("r = k - z - n", "r = k - (0.0)"),
    ("r = a - z", "r = (2.5)"),
])
def test_literal_source_drops_a_whole_term_that_subtracts_plus_zero(
        text, written):
    """- name, where the name is +0.0, the term is whole and the word on its
    left is a float constant or a name, is not written at all; the other
    words are written in as the whole-word rule writes them."""
    assert engine.literal_source(text, ZERO_TERMS) == written


@pytest.mark.parametrize("text", [
    "r = x - m",
    "r = - z", "r = (- z)", "r = f(y, - z)", "r = y * - z", "r = y = - z",
    "return - z", "r = y if c else - z", "r = not - z",
    "r = x - z * k", "r = x - z / k", "r = x - z ** 2", "r = x - z[0]",
    "r = x - z.real", "r = x - z(q)",
    "r = z - x", "r = s * z", "r = z * c", "r = z + x", "r = x + z",
    "r = k - z", "r = 2 - z", "r = True - z", "r = 1.0 - z", "r = f(x) - z",
    "r = v[0] - z", "r = x - zi", "r = x - zz + z_1",
    "r = x - zor", "r = x - zif(x)", "r = y - nelse", "r = x - z_1",
    "r = x - z and y", "r = x - z or y", "r = x - z in y", "r = x - z;",
])
def test_literal_source_keeps_a_zero_that_is_no_whole_subtracted_term(text):
    """-0.0; a unary minus; a zero that is a factor, base or primary; a zero
    on the left, added or multiplied; a zero after an int, a bool, a number
    or a closing bracket; an int zero; a name that only begins with a zero's
    name; a term followed by a token that does not end it for the rule:
    each is written as the whole-word rule writes it, with no term
    dropped."""
    assert engine.literal_source(text, ZERO_TERMS) == plain_words(text)


def test_a_flow_body_that_assigns_a_float_constant_does_not_compile():
    """The literal is not an assignment target, so the body is refused
    instead of shadowing the constant."""
    with pytest.raises(SyntaxError):
        engine.compile_flow(("x",), "r_s = 2.0 * x\n", ("r_s",), {"r_s": 0.5})


def test_a_constant_that_shares_a_state_name_leaves_the_state_a_local():
    """The flow map and its inlined step read the state x, not the constant
    x, while k, which names no state, is written in as a literal."""
    flow = engine.compile_flow(("x", "y"), "d = k * x\n", ("d", "-y"),
                               {"x": 2.0, "y": 5.0, "k": 3.0})
    assert "k" not in flow.__code__.co_names
    assert flow([1.0, 4.0]) == [3.0, -4.0]

    def reference(v):
        return [3.0 * v[0], -v[1]]

    spec = dataclasses.replace(pure_flow_spec(flow), dim=2)
    assert step_flow(spec, [1.0, 4.0], 0.1) \
        == engine._call_kernel(2, "rk4")(reference, [1.0, 4.0], 0.1)


@pytest.mark.parametrize("state, constant", [
    *((name, None) for name in ("h", "half", "x0", "a0", "b0", "c0")),
    *(("s", name) for name in ("e", "w", "out", "y0")),
])
def test_a_state_or_constant_named_like_a_name_the_step_keeps_is_refused(
        state, constant):
    """A state named like one of the inlined step's own names would be
    overwritten between stages, and a function constant so named shadowed by
    the step's local; either is a ValueError naming the clash, not a step
    that gives other bits than flow(v) or raises UnboundLocalError."""
    name = constant or state
    body = f"r = -{state}" if constant is None else f"r = -{constant}({state})"
    consts = {} if constant is None else {constant: math.sin}
    with pytest.raises(ValueError, match=f"\\['{name}'\\] clash"):
        engine.compile_flow((state,), body, ("r",), consts)


@pytest.mark.parametrize("name, value", [
    ("x", math.sin), ("f", math.sin), ("x", math.inf), ("v", math.sin)])
def test_a_constant_named_like_a_step_argument_that_stays_a_name_is_refused(
        name, value):
    """A constant named f, v or x that is no finite float and names no state
    would read flow(v)'s or kernel(f, x, h)'s argument, not its own value,
    so it is a ValueError naming the clash."""
    with pytest.raises(ValueError, match=f"\\['{name}'\\] clash"):
        engine.compile_flow(("s",), f"r = -{name}(s) if callable({name}) "
                            f"else -{name} * s", ("r",), {name: value})


def test_a_float_constant_named_like_a_step_argument_is_written_in():
    """A finite float x is written in as a literal, so the flow map and its
    inlined step read 2.0, as the step that calls the flow map does."""
    flow = engine.compile_flow(("s",), "r = -x * s\n", ("r",), {"x": 2.0})
    spec = dataclasses.replace(pure_flow_spec(flow), dim=1)
    assert flow([0.5]) == [-1.0]
    assert step_flow(spec, [0.5], 0.1) == engine._call_kernel(1, "rk4")(
        lambda v: [-2.0 * v[0]], [0.5], 0.1)


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
                     SimConfig(dt=0.25, t_max=2.0, method="rk4"))
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


def double_reset_spec(dim):
    """A unit clock c with dim - 1 decaying passengers y' = c - y/2, each
    offset by its index: at c = 1 it jumps to c = 2, still in the jump set,
    then at once to c = 0, leaving a one-sample segment between the jumps."""
    def flow(v):
        c = v[0]
        return [1.0] + [c - 0.5 * y + 0.25 * i for i, y in enumerate(v[1:])]

    return HybridSystemSpec(
        dim=dim, flow_map=flow,
        jump_map=lambda v: [[2.0 if v[0] < 1.5 else 0.0, *v[1:]]],
        in_flow_set=lambda v: v[0] - 1.0,
        in_jump_set=lambda v: 1.0 - v[0])


@pytest.mark.parametrize("dim", [1, 7])
def test_segment_states_equal_a_step_flow_replay(dim):
    """The flat per-segment buffer reshapes into each segment's states in
    sample order: every segment, the one-sample segments right after a jump
    included, is a C-contiguous float64 (samples, dim) array equal to a
    replay of step_flow from its first state, and starts at the post-state
    of the jump before it."""
    spec = double_reset_spec(dim)
    x0 = [0.0] + [0.5 * i - 1.0 for i in range(1, dim)]
    arc = simulate(spec, np.array(x0), SimConfig(dt=0.25, t_max=2.5,
                                                 method="rk4"))
    assert [len(seg.ts) for seg in arc.segments] == [5, 1, 5, 1, 3]
    for k, seg in enumerate(arc.segments):
        xs = seg.xs
        assert xs.dtype == np.float64 and xs.flags.c_contiguous
        assert xs.shape == (len(seg.ts), dim)
        x = (x0 if k == 0 else arc.jumps[k - 1].x_post.tolist())
        replay = [x]
        for _ in range(len(seg.ts) - 1):
            replay.append(step_flow(spec, replay[-1], 0.25))
        assert xs.tolist() == replay


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
        arc = simulate(spec, np.array([1.0]), SimConfig(dt=dt, t_max=1.0,
                                                        method="rk4"))
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


@pytest.mark.parametrize("method, t_max, dt, top, x0", [
    ("dopri5", 1.5794140572310205, 1.6317165044924318, 2.0, 1.570823911861948),
    ("rk4", 27035.926099497152, 24519.927806462016, 24889.715048055456,
     16509.151759530778),
    ("rk4", 2.9080807079267204, 3.345722813757634, 2.73567552307469,
     1.9034628206554782),
])
def test_a_run_ends_exactly_at_t_max_with_one_sample_there(method, t_max, dt,
                                                            top, x0):
    """A clock x' = 1 reset to 0 at x = top jumps once, before t_max / 2 and
    less than dt before t_max, so t + (t_max - t) rounds away from t_max;
    the run still ends with one sample, at t_max itself."""
    spec = HybridSystemSpec(dim=1, flow_map=lambda v: [1.0],
                            jump_map=lambda v: [[0.0]],
                            in_flow_set=lambda v: v[0] - top,
                            in_jump_set=lambda v: top - v[0])
    arc = simulate(spec, np.array([x0]),
                   SimConfig(dt=dt, t_max=t_max, method=method))
    assert arc.termination == TERM_T_MAX and arc.n_jumps == 1
    assert arc.segments[-1].ts.tolist() == [arc.jumps[0].t, t_max]


@pytest.mark.parametrize("method", engine.METHODS)
@pytest.mark.parametrize("dt, t_max, samples",
                         [(0.1, 1.0, 11), (0.34, 17.0, 51), (0.4, 20.0, 51),
                          (0.3, 0.9, 4), (0.3, 17.1, 58),
                          (1e-3, 10.0, 10001), (5e-4, 10.0, 20001)])
def test_an_end_within_the_stop_margin_is_snapped_to_t_max(method, dt, t_max,
                                                           samples):
    """On x' = -x the last grid time k * dt can round to an ulp short of
    t_max (0.8999999999999999 = 3 * 0.3; 17.099999999999998 = 57 * 0.3,
    where 1e-15 below 17.1 rounds to 17.1 itself): that end is t_max, so
    the run ends with one sample there and none an ulp before it.  Summing
    dt would end 0.34 * 50 at 16.999999999999996 and dt 1e-3 and 5e-4 some
    1e-13 short of 10, outside the margin."""
    arc = simulate(pure_flow_spec(lambda v: [-v[0]]), np.array([1.0]),
                   SimConfig(dt=dt, t_max=t_max, method=method))
    ts = arc.segments[-1].ts
    assert arc.termination == TERM_T_MAX
    assert ts[-1] == t_max and ts[-2] < t_max - dt / 2
    assert len(ts) == samples


@pytest.mark.parametrize("method", engine.METHODS)
def test_samples_sit_on_one_grid_from_each_origin(method):
    """Sample k of a segment is at origin + k * dt, where the origin is the
    segment's first time: the start, or a jump at a time off the grid.
    Only each segment's last sample, the located state before its jump or
    t_max, is off the grid.  The flow-only arc is x' = -x from 0.5; the
    clock x' = 1 from 0 is reset to 0 at x = 0.77, so it jumps every 0.77,
    and its first dopri5 step, of dt, ends on the grid and stays a grid
    sample.  Summing dt instead puts sample 6 at 0.6000000000000001."""
    clock = HybridSystemSpec(dim=1, flow_map=lambda v: [1.0],
                             jump_map=lambda v: [[0.0]],
                             in_flow_set=lambda v: v[0] - 0.77,
                             in_jump_set=lambda v: 0.77 - v[0])
    dt = 0.1
    for spec, x0, jumps in ((pure_flow_spec(lambda v: [-v[0]]), 0.5, 0),
                            (clock, 0.0, 3)):
        arc = simulate(spec, np.array([x0]),
                       SimConfig(dt=dt, t_max=3.0, method=method))
        assert arc.termination == TERM_T_MAX and arc.n_jumps == jumps
        for seg in arc.segments:
            ts = seg.ts.tolist()
            assert ts[:-1] == [ts[0] + k * dt for k in range(len(ts) - 1)]
        assert ts[-1] == 3.0


def test_jump_chain_halves_until_budget():
    for method in engine.METHODS:
        arc = simulate(always_jump_spec(), np.array([1.0]),
                       SimConfig(dt=0.1, t_max=1.0, j_max=5, method=method))
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


def test_simulate_is_deterministic():
    runs = []
    for _ in range(2):
        arc = simulate(reset_clock_spec(), np.array([0.0]),
                       SimConfig(dt=0.03, t_max=3.5))
        runs.append(np.concatenate([
            np.column_stack([seg.ts, np.full(len(seg.ts), seg.j), seg.xs[:, 0]])
            for seg in arc.segments]))
    assert np.array_equal(runs[0], runs[1])


def test_initial_state_outside_both_sets_raises():
    spec = HybridSystemSpec(
        dim=1,
        flow_map=lambda v: np.zeros(1),
        jump_map=lambda v: [v],
        in_flow_set=lambda v: 1.0,
        in_jump_set=lambda v: 1.0,
    )
    for method in engine.METHODS:
        with pytest.raises(CoverageViolation):
            simulate(spec, np.array([0.0]),
                     SimConfig(dt=0.1, t_max=1.0, method=method))


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
    for method in engine.METHODS:
        with pytest.raises(CoverageViolation):
            simulate(spec, np.array([0.0]),
                     SimConfig(dt=0.1, t_max=1.0, method=method))


def test_dead_end_when_flow_stalls_and_no_jump_allowed():
    spec = HybridSystemSpec(
        dim=1,
        flow_map=lambda v: np.ones(1),
        jump_map=lambda v: [v],
        in_flow_set=lambda v: float(v[0] - 1.0),
        in_jump_set=lambda v: 1.0,
    )
    for method in engine.METHODS:
        arc = simulate(spec, np.array([0.0]),
                       SimConfig(dt=0.1, t_max=5.0, method=method))
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
    cfg = SimConfig(dt=0.1, t_max=1.0, method="rk4")
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
    cfg = SimConfig(dt=0.03, t_max=3.5, method="rk4")
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
    engine._select_jump; simulate must call them by those names, under
    either method, so that the patched ones count every step (under rk4
    trial steps and locator probes, under dopri5 every step tried), every
    location and every jump selection on the arc's stats."""
    calls = {}
    for name in ("step_flow", "locate_boundary", "_select_jump"):
        def counted(*args, _name=name, _fn=getattr(engine, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    for method in engine.METHODS:
        calls.clear()
        arc = simulate(reset_clock_spec(), np.array([0.0]),
                       SimConfig(dt=0.03, t_max=3.5, method=method))
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
    arc = simulate(spec, np.array([1.0]), SimConfig(dt=0.1, t_max=1.0,
                                                    method="rk4"))
    xs = np.concatenate([seg.xs[:, 0] for seg in arc.segments])
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
    for method in ("RK4", "euler", None):
        with pytest.raises(ValueError, match="method must be one of"):
            SimConfig(dt=0.1, t_max=1.0, method=method)
    assert SimConfig(dt=0.1, t_max=1.0).method == "dopri5"
    assert SimConfig(dt=0.1, t_max=1.0, j_max=0).j_max == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg = SimConfig(dt=0.1, t_max=1.0)
        cfg.dt = 0.2


def test_sim_config_stores_python_floats():
    """np.float64 and int settings are stored as Python floats and give the
    float settings' arc byte for byte, jump times included; an int beyond
    float range is a ValueError that names its field."""
    def arc_bytes(cfg):
        arc = simulate(reset_clock_spec(), np.array([0.0]), cfg)
        return ([(seg.j, seg.ts.tobytes(), seg.xs.tobytes())
                 for seg in arc.segments],
                [(repr(ev.t), ev.j_pre, ev.x_pre.tobytes(), ev.x_post.tobytes())
                 for ev in arc.jumps], arc.stats, arc.termination)

    for dt, t_max, event_tol in ((np.float64(0.03), np.float64(3.5),
                                  np.float64(1e-10)), (1, 3, 1e-10)):
        cfg = SimConfig(dt=dt, t_max=t_max, event_tol=event_tol)
        assert [type(v) for v in (cfg.dt, cfg.t_max, cfg.event_tol)] == [float] * 3
        assert arc_bytes(cfg) == arc_bytes(SimConfig(
            dt=float(dt), t_max=float(t_max), event_tol=float(event_tol)))
    assert type(SimConfig(dt=1, t_max=3, event_tol=1).event_tol) is float
    for name in ("dt", "t_max", "event_tol"):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SimConfig(**{"dt": 0.1, "t_max": 1.0, name: 10 ** 400})


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
            arc = simulate(spec, x0, SimConfig(dt=dt, t_max=1.0, method="rk4"))
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
    for method in engine.METHODS:
        cfg = SimConfig(dt=0.1, t_max=2.0, method=method)
        for complementary in (False, True):
            spec = dataclasses.replace(nan_above_spec(0.5),
                                       complementary=complementary)
            with pytest.raises(NonFiniteState, match="in_flow_set"):
                simulate(spec, np.zeros(1), cfg)
        jump_only = dataclasses.replace(nan_above_spec(0.5),
                                        in_flow_set=lambda v: -1.0)
        with pytest.raises(NonFiniteState, match="in_jump_set"):
            simulate(jump_only, np.zeros(1), cfg)


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
    shrinking above the floor and only the no-float-inside test ends it.
    A location that gives up returns a state inside the indicator's set,
    the path's own state at the fraction it returns, so the clock's missed
    entries into its jump set all jump, under either method."""
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
            assert x_b == step_flow(spec, [0.0], frac)
            assert sign * flip(x_b) < 0

    clock = HybridSystemSpec(dim=1, flow_map=lambda v: np.ones(1),
                             jump_map=lambda v: [np.zeros(1)],
                             in_flow_set=step_indicator(0.27),
                             in_jump_set=lambda v: -step_indicator(0.27)(v))
    for method in engine.METHODS:
        arc = simulate(clock, np.zeros(1),
                       SimConfig(dt=0.1, t_max=1.0, method=method))
        assert arc.termination == TERM_T_MAX
        assert arc.n_jumps == arc.stats["locate_calls"] == 3
        assert arc.stats["locate_misses"] == 3
        assert arc.stats["locate_probes"] <= 3 * (2 * 54 + 2)
    # A missed exit from the flow set, with no jump set, stays inside the
    # flow set: the run ends as a dead end there, not outside both sets.
    no_jump = dataclasses.replace(clock, in_jump_set=lambda v: 1.0)
    for method in engine.METHODS:
        arc = simulate(no_jump, np.zeros(1),
                       SimConfig(dt=0.1, t_max=1.0, method=method))
        assert arc.termination == TERM_DEAD_END
        assert arc.stats["locate_misses"] == 2
        assert no_jump.in_flow_set(arc.final_state.tolist()) < 0


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

    def logged_step(spec, x, h, **kwargs):
        log.append(("probe", h))
        return step_flow(spec, x, h, **kwargs)

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
                   SimConfig(dt=0.01, t_max=0.15, method="rk4"))
    assert arc.n_jumps == arc.stats["locate_calls"] == 1
    assert arc.stats["locate_probes"] == 2
    # Eleven full steps, the last of them across the switch, then the probes.
    steps = [entry[1] for entry in log if entry[0] == "probe"]
    assert steps[:11] == [0.01] * 11
    first, second = (h / 0.01 for h in steps[11:13])
    assert 0.5 < second < first < 0.54


RK4_THERMOSTAT_RUNS = [
    ((1.0, 1.0),
     [(0.1053605155632104, (1.0999999999072496, 1.0)),
      (0.30603121095130026, (0.900000000005894, 0.0)),
      (0.5067019064183508, (1.0999999999941061, 1.0)),
      (0.7073726018854011, (0.900000000005894, 0.0)),
      (0.9080432973524516, (1.0999999999941061, 1.0))],
     (1.0033591063542093, 0.0), [12, 22, 22, 22, 22, 11]),
    ((0.95, 0.0),
     [(0.054067221177368494, (0.9000000000874063, 0.0)),
      (0.25473791657031697, (1.0999999999941061, 1.0)),
      (0.4554086120373672, (0.900000000005894, 0.0)),
      (0.6560793075044177, (1.0999999999941061, 1.0)),
      (0.856750002971468, (0.900000000005894, 0.0))],
     (1.046808848953234, 1.0), [7, 22, 22, 22, 22, 16]),
]


@pytest.mark.parametrize("x0, switches, final, lengths", RK4_THERMOSTAT_RUNS)
def test_rk4_crossings_keep_their_bits(x0, switches, final, lengths):
    """The rk4 path through located crossings, pinned bit for bit: every
    switch time and pre-jump state, the final state, the samples per
    segment and the counts, on the thermostat at dt 0.01 to t = 1."""
    arc = simulate(thermostat_spec(), np.array(x0),
                   SimConfig(dt=0.01, t_max=1.0, method="rk4"))
    assert arc.termination == TERM_T_MAX
    assert [(ev.t, tuple(ev.x_pre.tolist())) for ev in arc.jumps] == switches
    assert tuple(arc.final_state.tolist()) == final
    assert arc.segments[-1].ts[-1] == 1.0
    assert [len(seg.ts) for seg in arc.segments] == lengths
    assert arc.stats == {"indicator_evals": 242, "rk4_steps": 115,
                         "locate_calls": 5, "locate_probes": 10,
                         "locate_misses": 0, "clamps": 0}


def test_an_rk4_dead_end_keeps_its_bits():
    """x' = 1 - x^2 from 0 on x <= 1/2 with no jump: under rk4 the crossing
    at atanh(1/2) is located and kept, and the next step's location finds no
    flow from it, so the run ends there as a dead end."""
    spec = HybridSystemSpec(dim=1, flow_map=lambda v: [1.0 - v[0] * v[0]],
                            jump_map=lambda v: [v],
                            in_flow_set=lambda v: v[0] - 0.5,
                            in_jump_set=lambda v: 1.0)
    arc = simulate(spec, np.array([0.0]),
                   SimConfig(dt=0.1, t_max=5.0, method="rk4"))
    assert arc.termination == TERM_DEAD_END
    assert arc.segments[-1].ts[-3:].tolist() == [0.4, 0.5, 0.5493069032623348]
    assert arc.final_state.tolist() == [0.5000000000479897]
    assert arc.stats == {"indicator_evals": 21, "rk4_steps": 10,
                         "locate_calls": 2, "locate_probes": 3,
                         "locate_misses": 0, "clamps": 0}


DOPRI5_THERMOSTAT_RUNS = [
    ((1.0, 1.0),
     [(0.10536051551977155, (1.0999999999072496, 1.0)),
      (0.306031210903884, (0.9000000000000822, 0.0)),
      (0.5067019063638704, (1.0999999999941055, 1.0)),
      (0.7073726018269182, (0.9000000000001134, 0.0)),
      (0.9080432972868765, (1.0999999999941057, 1.0)),
      (1.1087139927499248, (0.9000000000001134, 0.0)),
      (1.3093846882098832, (1.0999999999941057, 1.0)),
      (1.5100553836729316, (0.9000000000001133, 0.0)),
      (1.7107260791328902, (1.0999999999941057, 1.0)),
      (1.9113967745959384, (0.9000000000001134, 0.0)),
      (2.1120674700558966, (1.0999999999941057, 1.0)),
      (2.312738165518945, (0.9000000000001134, 0.0)),
      (2.5134088609789034, (1.0999999999941057, 1.0)),
      (2.7140795564419515, (0.9000000000001134, 0.0)),
      (2.91475025190191, (1.0999999999941057, 1.0)),
      (3.1154209473649583, (0.9000000000001133, 0.0)),
      (3.316091642824917, (1.0999999999941057, 1.0)),
      (3.516762338287965, (0.9000000000001134, 0.0)),
      (3.7174330337479233, (1.0999999999941055, 1.0)),
      (3.918103729210971, (0.9000000000001134, 0.0)),
      (4.118774424670929, (1.0999999999941055, 1.0)),
      (4.319445120133977, (0.9000000000001134, 0.0)),
      (4.520115815593935, (1.0999999999941055, 1.0)),
      (4.720786511056983, (0.9000000000001134, 0.0)),
      (4.921457206516941, (1.0999999999941055, 1.0))],
     (1.0169087479232133, 0.0),
     [12] + [22] * 24 + [9],
     {"indicator_evals": 1420, "rk4_steps": 138, "locate_calls": 25,
      "locate_probes": 50, "locate_misses": 0, "clamps": 0,
      "rejected_steps": 0},
     "d1bd83068addaced77d817cb2bd56edaea362c27f2fdda25bc8e4eaf4907d0de"),
    ((0.95, 0.0),
     [(0.05406722117353279, (0.9000000000822306, 0.0)),
      (0.2547379165588449, (1.0999999999941057, 1.0)),
      (0.4554086120218931, (0.9000000000001134, 0.0)),
      (0.6560793074818513, (1.0999999999941055, 1.0)),
      (0.8567500029448993, (0.9000000000001134, 0.0)),
      (1.0574206984048575, (1.0999999999941057, 1.0)),
      (1.2580913938679055, (0.9000000000001134, 0.0)),
      (1.4587620893278637, (1.0999999999941055, 1.0)),
      (1.6594327847909118, (0.9000000000001134, 0.0)),
      (1.86010348025087, (1.0999999999941055, 1.0)),
      (2.060774175713918, (0.9000000000001133, 0.0)),
      (2.261444871173876, (1.0999999999941055, 1.0)),
      (2.4621155666369243, (0.9000000000001134, 0.0)),
      (2.6627862620968825, (1.0999999999941055, 1.0)),
      (2.8634569575599307, (0.9000000000001134, 0.0)),
      (3.064127653019889, (1.0999999999941057, 1.0)),
      (3.264798348482937, (0.9000000000001134, 0.0)),
      (3.4654690439428952, (1.0999999999941057, 1.0)),
      (3.666139739405944, (0.9000000000001134, 0.0)),
      (3.866810434865902, (1.0999999999941057, 1.0)),
      (4.067481130328949, (0.9000000000001134, 0.0)),
      (4.268151825788907, (1.0999999999941057, 1.0)),
      (4.468822521251955, (0.9000000000001134, 0.0)),
      (4.669493216711912, (1.0999999999941055, 1.0)),
      (4.87016391217496, (0.9000000000001133, 0.0))],
     (1.0339366894228506, 1.0),
     [7] + [22] * 24 + [14],
     {"indicator_evals": 1422, "rk4_steps": 139, "locate_calls": 25,
      "locate_probes": 50, "locate_misses": 0, "clamps": 0,
      "rejected_steps": 0},
     "75ca2cf27584ca1b92efcce953d6d759befbc4c89ffb5b4bdc0d8df72cdab3a7"),
]


def arc_sha256(arc):
    """The SHA-256 of every segment's times and then states, in order."""
    digest = hashlib.sha256()
    for seg in arc.segments:
        digest.update(seg.ts.tobytes())
        digest.update(seg.xs.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("x0, switches, final, lengths, stats, sha",
                         DOPRI5_THERMOSTAT_RUNS)
def test_dopri5_crossings_keep_their_bits(x0, switches, final, lengths, stats,
                                          sha):
    """The dopri5 path through located crossings, pinned bit for bit: every
    switch time and pre-jump state, the final state, the samples per
    segment, the counts and the bytes of every segment, on the thermostat
    at dt 0.01 to t = 5."""
    arc = simulate(thermostat_spec(), np.array(x0), SimConfig(dt=0.01, t_max=5.0))
    assert arc.termination == TERM_T_MAX
    assert [(ev.t, tuple(ev.x_pre.tolist())) for ev in arc.jumps] == switches
    assert tuple(arc.final_state.tolist()) == final
    assert arc.segments[-1].ts[-1] == 5.0
    assert [len(seg.ts) for seg in arc.segments] == lengths
    assert arc.stats == stats
    assert arc_sha256(arc) == sha


def test_dopri5_moved_samples_keep_their_bits(monkeypatch):
    """The dopri5 path through samples that project_flow moves, pinned bit
    for bit with a sink at SINK_ROWS 2: the thermostat heating through
    (1.05, 1.08) has each sample there pulled back by a tenth of its excess
    over 1.05, and goes on from the moved sample; the sink's blocks join to
    the arc."""
    def damp(v):
        if v[1] > 0.5 and 1.05 < v[0] < 1.08:
            return [1.05 + 0.9 * (v[0] - 1.05), v[1]]
        return v

    monkeypatch.setattr(engine, "SINK_ROWS", 2)
    spec = dataclasses.replace(thermostat_spec(), project_flow=damp)
    blocks = []
    arc = simulate(spec, np.array([1.0, 1.0]), SimConfig(dt=0.01, t_max=2.0),
                   sink=lambda *block: blocks.append(block))
    assert arc.termination == TERM_T_MAX
    assert [(ev.t, tuple(ev.x_pre.tolist())) for ev in arc.jumps] == [
        (0.11066645731841623, (1.0999999999941752, 1.0)),
        (0.31133715278156665, (0.9000000000000509, 0.0)),
        (0.5188513833142981, (1.0999999999477774, 1.0)),
        (0.7195220787352672, (0.9000000000000564, 0.0)),
        (0.9270363092679954, (1.0999999999477772, 1.0)),
        (1.1277070046889643, (0.9000000000000565, 0.0)),
        (1.3352212352216923, (1.0999999999477772, 1.0)),
        (1.535891930642661, (0.9000000000000564, 0.0)),
        (1.7434061611753888, (1.0999999999477774, 1.0)),
        (1.9440768565963575, (0.9000000000000564, 0.0))]
    assert arc.final_state.tolist() == [0.959827009435702, 1.0]
    assert [len(seg.ts) for seg in arc.segments] == [13] + [22] * 9 + [7]
    assert arc.stats == {"indicator_evals": 582, "rk4_steps": 65,
                         "locate_calls": 10, "locate_probes": 20,
                         "locate_misses": 0, "clamps": 19,
                         "rejected_steps": 0}
    assert arc_sha256(arc) == \
        "8c88fbff35fedf0c808ced75f2126616fa2e5c6be7c498a28990b5b92472b69c"
    assert len(blocks) == 110
    assert [j for j, _, _ in blocks] == sorted(j for j, _, _ in blocks)
    for seg in arc.segments:
        mine = [(ts, xs) for j, ts, xs in blocks if j == seg.j]
        assert np.concatenate([ts for ts, _ in mine]).tobytes() == seg.ts.tobytes()
        assert np.concatenate([xs for _, xs in mine]).tobytes() == seg.xs.tobytes()


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


def sink_runs():
    """(spec, x0, config) of the four navigation loops over 1.2 s (1 200 to
    2 400 samples, a jump at t = 0 for the switched ones) and of the
    thermostat, a width-2 spec that jumps every few samples."""
    runs = []
    for name in ("fig5_hybrid", "fig5_smooth", "fig5_backstep", "fig5_nonhybrid"):
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        runs.append((build_closed_loop(cfg), initial_packed_state(cfg),
                     dataclasses.replace(cfg.sim, t_max=1.2)))
    runs.append((thermostat_spec(), np.array([1.0, 1.0]),
                 SimConfig(dt=0.05, t_max=5.0)))
    return runs


def arc_record(arc):
    """Every sample, jump, the termination and the stats of an arc."""
    return ([(seg.j, seg.ts.tobytes(), seg.xs.tobytes()) for seg in arc.segments],
            [(ev.t, ev.j_pre, ev.x_pre.tobytes(), ev.x_post.tobytes(),
              ev.n_candidates) for ev in arc.jumps],
            arc.termination, arc.stats, arc.notes)


@pytest.mark.parametrize("sink_rows", [1024, 7, 2])
def test_a_sink_is_handed_the_arc_in_chunks_and_changes_nothing(monkeypatch,
                                                                sink_rows):
    """With a sink the arc is bit for bit the one without.  The sink is
    handed each segment's samples in order, as arrays, in blocks of
    SINK_ROWS and then the rest when the segment closes, so the blocks,
    joined, are the arc's times, states and jump counters."""
    monkeypatch.setattr(engine, "SINK_ROWS", sink_rows)
    longest = 0
    for spec, x0, cfg in sink_runs():
        chunks = []
        arc = simulate(spec, x0, cfg, sink=lambda *chunk: chunks.append(chunk))
        assert arc_record(arc) == arc_record(simulate(spec, x0, cfg))
        for seg in arc.segments:
            n = len(seg.ts)
            longest = max(longest, n)
            sizes = [sink_rows] * (n // sink_rows) + [n % sink_rows] * (n % sink_rows > 0)
            mine, chunks = chunks[:len(sizes)], chunks[len(sizes):]
            assert [(j, ts.shape, xs.shape) for j, ts, xs in mine] == \
                [(seg.j, (size,), (size, spec.dim)) for size in sizes]
            assert all(ts.dtype == xs.dtype == float and xs.flags.c_contiguous
                       for _, ts, xs in mine)
            assert np.concatenate([ts for _, ts, _ in mine]).tobytes() == \
                seg.ts.tobytes()
            assert np.concatenate([xs for _, _, xs in mine]).tobytes() == \
                seg.xs.tobytes()
        assert chunks == []
    assert longest > 2 * 1024


# -- dopri5 ------------------------------------------------------------------

def growth_spec():
    """x' = x on one entry, always flowing."""
    return pure_flow_spec(lambda v: v)


def dopri5_step(spec, x, h):
    """(y, rates at y, error ratio, dense coefficients) of one dopri5 step."""
    return step_flow(spec, x, h, kernel=engine.step_kernel(spec, "dopri5"))


def test_the_dopri5_step_is_fifth_order_with_a_fourth_order_estimate():
    """On x' = x from 1, halving h divides the step's local error by about
    2**6 and its error estimate by about 2**5; its last rate is the flow at
    its result (FSAL), and a step given that rate makes one flow call
    fewer with the same bits."""
    spec = growth_spec()
    (y1, r1, e1, _), (y2, r2, e2, _) = (dopri5_step(spec, [1.0], h)
                                        for h in (0.2, 0.1))
    ratio = abs(y1[0] - math.exp(0.2)) / abs(y2[0] - math.exp(0.1))
    assert 48.0 <= ratio <= 80.0
    assert 20.0 <= e1 / e2 <= 40.0
    assert r1 == y1 and r2 == y2
    calls = []
    counted = pure_flow_spec(lambda v: calls.append(None) or v)
    kernel = engine.step_kernel(counted, "dopri5")
    fresh = step_flow(counted, y1, 0.1, kernel=kernel)
    assert len(calls) == 7
    assert step_flow(counted, y1, 0.1, kernel=kernel, rate=r1) == fresh
    assert len(calls) == 13


def test_the_dense_output_follows_the_exponential_inside_the_step():
    """The continuous extension on x' = x meets e**(s h) at interior
    fractions to within its fifth-order local error, which halving h
    divides by about 2**5; it starts at x and ends at the step's result."""
    spec = growth_spec()
    dense = engine._dense_kernel(1)
    errs = {}
    for h in (0.2, 0.1):
        y, _, _, cont = dopri5_step(spec, [1.0], h)
        errs[h] = [abs(dense([1.0], cont, s)[0] - math.exp(s * h))
                   for s in (0.25, 0.5, 0.75)]
        assert dense([1.0], cont, 0.0) == [1.0]
        assert abs(dense([1.0], cont, 1.0)[0] - y[0]) <= 4e-16
    assert max(errs[0.1]) <= 1e-8
    assert all(16.0 <= a / b <= 48.0 for a, b in zip(errs[0.2], errs[0.1]))


def test_dopri5_switch_times_meet_the_closed_form_at_every_digest_start():
    """Under dopri5, every switch of the thermostat from the digest's 18
    starts lies within 1e-8 of the closed form, located on the step's
    interpolant: no locator probe is an RK4 step."""
    tool = load_tool("arc_digest")
    workloads = tool._workloads()
    for x0, spec, sim in tool.thermostat_runs():
        sim = dataclasses.replace(sim, t_max=10.0)
        assert sim.method == "dopri5"
        arc = simulate(spec, x0, sim)
        closed = workloads.thermostat_switch_times(float(x0[0]), int(x0[1]),
                                                   sim.t_max)
        assert [round(ev.t, 6) for ev in arc.jumps] == \
            [round(t, 6) for t in closed]
        assert max(abs(ev.t - t) for ev, t in zip(arc.jumps, closed)) <= 1e-8
        assert arc.termination == TERM_T_MAX
        assert arc.stats["rk4_steps"] < arc.total_samples / 3
        assert arc.stats["locate_misses"] == 0


def test_a_domain_error_at_a_stage_rejects_the_step():
    """A stage that raises a DomainError (NonPositiveDistance here) throws
    the step away and halves it.  fig5_hybrid's loop at dt 0.01, where an
    RK4 step's stage reaches into the obstacle, and at dt 1, where a dopri5
    stage does, runs to t_max under dopri5 and ends where the rk4 run at
    the shipped dt 1e-3 does.  NonFiniteState is not retried."""
    cfg = load_config(CONFIG_DIR / "fig5_hybrid.json")
    spec, x0 = build_closed_loop(cfg), initial_packed_state(cfg)
    with pytest.raises(NonPositiveDistance):
        simulate(spec, x0, dataclasses.replace(cfg.sim, dt=0.01))
    shipped = simulate(spec, x0, cfg.sim)
    flow, raised = spec.flow_map, []

    def counted(v):
        try:
            return flow(v)
        except NonPositiveDistance:
            raised.append(v)
            raise

    counted_spec = dataclasses.replace(spec, flow_map=counted)
    for dt in (0.01, 1.0):
        arc = simulate(counted_spec, x0,
                       dataclasses.replace(cfg.sim, dt=dt, method="dopri5"))
        assert arc.termination == TERM_T_MAX
        assert arc.stats["rejected_steps"] > 0
        assert np.max(np.abs(arc.final_state - shipped.final_state)) <= 1e-7
    assert raised

    def blows_up(v):
        if v[0] > 1.5:
            raise NonFiniteState("flow is not finite")
        return [1.0]

    with pytest.raises(NonFiniteState):
        simulate(pure_flow_spec(blows_up), np.array([0.0]),
                 SimConfig(dt=0.5, t_max=2.0))


def test_a_dead_end_at_a_steps_end_keeps_that_state():
    """x' = 1 on x <= 1 with no jump, its flow map defined up to 1 + 1e-9:
    from 0.5 the first dopri5 step of dt = 1 is halved, ends on the
    boundary at t = 0.5, off the dt grid, and every step from there leaves
    the domain or the flow set, so the run ends as a dead end there, with
    that state kept as the arc's last sample."""
    def flow(v):
        if v[0] > 1.0 + 1e-9:
            raise NonPositiveDistance("past the boundary")
        return [1.0]

    spec = HybridSystemSpec(dim=1, flow_map=flow, jump_map=lambda v: [],
                            in_flow_set=lambda v: v[0] - 1.0,
                            in_jump_set=lambda v: 1.0)
    arc = simulate(spec, np.array([0.5]), SimConfig(dt=1.0, t_max=5.0))
    assert arc.termination == TERM_DEAD_END
    assert arc.segments[-1].ts.tolist() == [0.0, 0.5]
    assert abs(arc.final_state[0] - 1.0) <= 1e-12
    assert arc.stats["rejected_steps"] >= 2


def test_dopri5_projects_each_sample_and_goes_on_from_a_moved_one():
    """x' = -1 from 1 with samples clamped at 0.5: each sample below the
    floor is projected onto it and counted, and the flow goes on from the
    clamped sample."""
    floor = 0.5
    spec = pure_flow_spec(lambda v: [-1.0],
                          project=lambda v: np.maximum(v, floor))
    arc = simulate(spec, np.array([1.0]), SimConfig(dt=0.1, t_max=1.0))
    xs = arc.segments[0].xs[:, 0]
    assert np.min(xs) == floor and xs[-1] == floor
    assert arc.n_clamped == arc.stats["clamps"] >= 4
    assert np.allclose(xs[:6], [1.0, 0.9, 0.8, 0.7, 0.6, 0.5], atol=1e-12)


def test_locate_boundary_along_a_path_probes_its_points():
    """Given a path, the locator probes its points instead of partial RK4
    steps: on the unit clock the path s -> [s] gives the same probes, with
    no step counted, also when it must take x_hi from the path itself."""
    clock = pure_flow_spec(lambda v: [1.0])

    def f(v):
        return v[0] ** 3 - 0.3 ** 3

    stepped, along = (dict.fromkeys(STAT_KEYS, 0) for _ in range(2))
    x_rk4, s_rk4 = locate_boundary(clock, [0.0], 1.0, f, stats=stepped)
    x_path, s_path = locate_boundary(clock, [0.0], 1.0, f, stats=along,
                                     path=lambda s: [s])
    assert (x_path, s_path) == (x_rk4, s_rk4)
    assert along["locate_probes"] == stepped["locate_probes"]
    assert along["rk4_steps"] == 0 < stepped["rk4_steps"]


def test_a_run_too_fast_for_its_grid_ends_on_the_step_budget():
    """The wide-skirt world (fig5_hybrid's gains, r_s 1e5, p_d (-3e5, 0),
    p0 (2e5, 10), dt 1e-3), whose angle runs away at about 1.2e9/s, ends
    under dopri5 with the recorded step_budget termination and a note, not
    a crawl to t_max."""
    raw = json.loads((CONFIG_DIR / "fig5_hybrid.json").read_text())
    raw["world"].update(r_s=1e5, p_d=[-3e5, 0.0])
    raw["initial"]["p0"] = [2e5, 10.0]
    cfg = parse_config(raw)
    arc = simulate(build_closed_loop(cfg), initial_packed_state(cfg),
                   dataclasses.replace(cfg.sim, method="dopri5"))
    assert arc.termination == TERM_STEP_BUDGET
    steps = arc.stats["rk4_steps"]
    # The budget at t < dt after the jump at t = 0, the first step past it.
    assert 2 * engine._STEP_BUDGET <= steps <= 3 * engine._STEP_BUDGET
    assert arc.notes and arc.notes[-1].startswith(f"{steps} steps tried by t=")
    assert arc.segments[-1].ts[-1] < 1e-3


def test_dopri5_reruns_are_bit_identical():
    """Two dopri5 runs of the thermostat, and of the generic backstepped
    composition, give the same bytes, stats and notes."""
    cfg = load_config(CONFIG_DIR / "fig5_backstep.json")
    plant, fam, x0 = load_tool("arc_digest").generic_runs(cfg)["backstepped"]
    runs = [(thermostat_spec(), np.array([1.0, 0.0]), SimConfig(0.01, 5.0)),
            (assemble_closed_loop(plant, fam), x0, SimConfig(1e-3, 0.1))]
    for spec, x, sim in runs:
        a, b = simulate(spec, x, sim), simulate(spec, x, sim)
        assert a.stats == b.stats and a.notes == b.notes
        assert a.termination == b.termination
        for sa, sb in zip(a.segments, b.segments, strict=True):
            assert sa.ts.tobytes() == sb.ts.tobytes()
            assert sa.xs.tobytes() == sb.xs.tobytes()
        assert [(e.t, e.x_post.tobytes()) for e in a.jumps] == \
            [(e.t, e.x_post.tobytes()) for e in b.jumps]
