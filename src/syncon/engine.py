"""Fixed-step simulator for dynamics that mix continuous flow with jumps.

A system owns two regimes: a flow map ``xdot = F(x)`` that applies while the
flow-set indicator is non-positive, and a jump map ``x+ in G(x)`` that applies
while the jump-set indicator is non-positive.  Indicators are signed reals:
values <= 0 mean "inside the set", and their zero level set is the boundary.
The two sets must jointly cover every reachable state; a state outside both
(beyond ``event_tol``) is a modelling error, not a normal termination.  Where
both sets hold the engine jumps.  In a closed loop whose flow set is
{mu <= delta} and jump set {mu >= delta} that is only their shared boundary,
where the switch is due, so the HyEQ Toolbox's default rule is the only rule
here: flowing first there would only add steps and boundary locations.

Solutions live on a hybrid time domain (t, j): flow advances t along segments
of constant jump counter j, and each jump increments j while t stands still.
Integration is explicit fixed-step 4th-order Runge-Kutta, as straight-line
code generated from one template and compiled on first use: the step
unpacks the state into n float locals, builds every stage state and the
result in the order of operations of the vector formula
x + (h/6)(k1 + 2 k2 + 2 k3 + k4), so its bits equal the numpy expression's,
and checks its own result's finiteness through the sum of the entries, so a
step costs no further pass over the state.  Each stage runs a flow body,
straight-line code over named state entries, in place.  A flow map that
compile_flow built from a body carries the step with that body inlined, and
step_flow takes it; any other flow map, a wrapper around such a one
included, takes the step for its width whose body calls it and converts an
ndarray output itself.

Inside the engine a state is a list of ``dim`` Python floats: the flow map, the
indicators, the jump map and the projection each receive one, and must not
modify it.  A list passed to step_flow, locate_boundary or apply_jump is taken
as is, so it must hold Python floats; any other sequence is read as a float
array; a state of any width but ``dim`` raises DimensionMismatch.  The flow map
may return any sequence of ``dim`` floats; any other length fails the call
body's unpack and raises DimensionMismatch too.  The arc still holds float
ndarrays, each segment's states one C-contiguous (samples, dim) array filled by
np.fromiter.  When a step crosses a set boundary the crossing is located on the
step fraction, re-integrating the partial step at each probe, so every accepted
sample respects its set within ``event_tol``; a location that gives up short of
it is counted on the arc.  Each probe interpolates, else takes the secant root,
else the midpoint, and the midpoint rule brings the bracket to its 1e-16 floor
within 2 * 54 + 2 probes; ``locate_boundary`` states the rules.  An indicator
that is NaN raises NonFiniteState.  Everything here is deterministic: the same
spec, state and config produce bit-identical arcs.

The indicators are evaluated once per state: the pair computed at the end of
an accepted step is carried into the next iteration, and is recomputed only
after a jump, a located boundary state, or a projection that moved the
sample.  A spec whose producer declares ``complementary=True`` promises
``in_jump_set(x) == -in_flow_set(x)`` exactly, for every x; the engine then
calls only ``in_flow_set`` and negates it, in line at the end of each trial
step.  The arc's ``stats`` mapping counts the work done.  ``simulate`` reaches
``step_flow``, ``locate_boundary`` and ``_select_jump`` through this module's
names, so a tracer that replaces them sees every step.
"""

from __future__ import annotations

import functools
import math
import textwrap
import warnings
from dataclasses import dataclass, field
from itertools import chain
from types import MethodType
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CoverageViolation,
    DimensionMismatch,
    EmptyJumpSet,
    NoSignChange,
    NonFiniteState,
    NotInJumpSet,
)

# Termination reasons stored on HybridArc.termination.
TERM_T_MAX = "t_max"
TERM_J_MAX = "j_max"
TERM_DEAD_END = "dead_end"

# Consecutive zero-flow-time jumps tolerated before a rate warning is issued.
# This is a diagnostic for near-Zeno behaviour; the hard stop is j_max.
ZENO_WARN_AFTER = 100

_PROGRESS_EPS = 1e-15

# Probe cap in locate_boundary; whatever the interpolated or secant probe
# does, the midpoint rule halves the bracket at least every second probe
# after the first, so 200 probes outlast the 1e-16 bracket floor.
_MAX_PROBES = 200

# Counters kept on HybridArc.stats, all integers filled by the engine itself.
#   indicator_evals  calls of in_flow_set / in_jump_set
#   rk4_steps        RK4 steps, trial steps and locator probes alike
#   locate_calls     boundary locations started
#   locate_probes    partial steps integrated while locating a boundary
#   locate_misses    locations that ran out of bracket or of probes with the
#                    indicator still beyond event_tol
#   clamps           accepted samples that project_flow moved
STAT_KEYS = ("indicator_evals", "rk4_steps", "locate_calls", "locate_probes",
             "locate_misses", "clamps")


def _new_stats() -> dict[str, int]:
    return dict.fromkeys(STAT_KEYS, 0)


@dataclass(frozen=True)
class SimConfig:
    """Integrator settings.

    dt         fixed flow step (final step of a segment may be shorter)
    t_max      flow-time horizon
    j_max      jump budget, an int; exceeding it ends the run, it is not an
               error
    event_tol  tolerance on set-indicator values at accepted samples, finite

    Where both sets hold, the engine jumps; there is no setting for it.
    """

    dt: float
    t_max: float
    j_max: int = 10_000
    event_tol: float = 1e-10

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_max >= 0.0 and np.isfinite(self.t_max)):
            raise ValueError(
                f"t_max must be non-negative and finite, got {self.t_max}")
        if not isinstance(self.j_max, int) or isinstance(self.j_max, bool) \
                or self.j_max < 0:
            raise ValueError(
                f"j_max must be a non-negative integer, got {self.j_max!r}")
        if not (self.event_tol > 0.0 and np.isfinite(self.event_tol)):
            raise ValueError(
                f"event_tol must be positive and finite, got {self.event_tol}")


@dataclass
class HybridSystemSpec:
    """A simulable hybrid system over flat state vectors of length ``dim``.

    flow_map      state -> time derivative, used while flowing; takes a list
                  of dim floats and returns any sequence of dim floats
    jump_map      state -> ordered list of candidate post-states; the engine
                  deterministically applies the first candidate, so producers
                  put their preferred selection at index 0
    in_flow_set   state -> signed indicator, <= 0 inside the flow set
    in_jump_set   state -> signed indicator, <= 0 inside the jump set
    project_flow  optional hook applied to each accepted flow sample; used to
                  clamp one-step constraint overshoot back onto an admissible
                  set.  Projections are counted on the arc.
    complementary the producer's promise that in_jump_set(x) is exactly
                  -in_flow_set(x) for every x, as when both are built as
                  +-(excess - gap); the engine then evaluates only
                  in_flow_set.  Under round-to-nearest fl(a - b) == -fl(b - a),
                  so such a pair qualifies; only the sign of a zero may differ,
                  which no tolerance test sees.  The navigation loops and
                  synergy.assemble_closed_loop set it.  in_jump_set stays
                  required for apply_jump, boundary location into the jump
                  set and direct callers.  Leave it False unless the negation
                  is exact.
    """

    dim: int
    flow_map: Callable[[list[float]], Sequence[float]]
    jump_map: Callable[[list[float]], list]
    in_flow_set: Callable[[list[float]], float]
    in_jump_set: Callable[[list[float]], float]
    project_flow: Callable[[list[float]], Sequence[float]] | None = None
    complementary: bool = False


@dataclass
class FlowSegment:
    """Samples of one flow interval at constant jump counter j."""

    j: int
    ts: np.ndarray
    xs: np.ndarray  # shape (len(ts), dim)


@dataclass
class JumpEvent:
    """One recorded jump.  n_candidates > 1 marks an argmin tie."""

    t: float
    j_pre: int
    x_pre: np.ndarray
    x_post: np.ndarray
    n_candidates: int = 1


@dataclass
class HybridArc:
    """A simulated solution: flow segments separated by jumps.

    ``stats`` holds the engine's counts for the run, keyed by STAT_KEYS.
    """

    segments: list[FlowSegment]
    jumps: list[JumpEvent]
    termination: str
    stats: dict[str, int] = field(default_factory=_new_stats)
    notes: list[str] = field(default_factory=list)

    @property
    def n_clamped(self) -> int:
        return self.stats["clamps"]

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)

    @property
    def final_state(self) -> np.ndarray:
        return self.segments[-1].xs[-1]

    @property
    def total_samples(self) -> int:
        return sum(len(seg.ts) for seg in self.segments)

    def iter_samples(self) -> Iterator[tuple[float, int, np.ndarray]]:
        """Yield (t, j, state) over all segments in hybrid-time order."""
        for seg in self.segments:
            for k in range(len(seg.ts)):
                yield float(seg.ts[k]), seg.j, seg.xs[k]


def _state(x, dim: int, what: str) -> list[float]:
    """x as the engine's state: a list as is, anything else via a float
    ndarray; DimensionMismatch, naming x by what, unless it has dim entries."""
    if type(x) is not list:
        x = np.asarray(x, dtype=float).tolist()
    if len(x) != dim:
        raise DimensionMismatch(f"{what} has dimension {len(x)}, expected {dim}")
    return x


def _require_finite(x, what: str, *args) -> None:
    """NonFiniteState unless x is finite; x is named by what.format(*args),
    formatted only then."""
    if not all(map(math.isfinite, x)):
        raise NonFiniteState(f"{what.format(*args)} is not finite: {np.asarray(x, float)!r}")


def _nan_indicator(indicator: Callable | str, x) -> NonFiniteState:
    """The error for an indicator, a callable or its name, that is NaN at x."""
    name = getattr(indicator, "__name__", indicator)
    return NonFiniteState(f"indicator {name} is NaN at {np.asarray(x, float)!r}")


# Every RK4 kernel is generated by _flow_code from a flow body, which each
# stage runs in place: the stage state is assigned to the body's state names,
# and the rates are read into the stage's derivatives (a0 ... at the first
# stage, d0 ... at the last).  A math-domain or overflow error at a stage
# state that has already left the reals (a step too large for the field) is
# NonFiniteState; at a finite state it propagates as is.
_STAGE = """\
{assign}    try:
{body}    except (ValueError, OverflowError):
        _require_finite([{names}], "RK4 stage state")
        raise
{read}"""

# The flow body of the kernel that calls a flow map f of width {n}: it takes
# f's output as a list (tolist for an ndarray), and an output that fails to
# unpack raises DimensionMismatch.  Reading the output is part of the stage,
# so an error it raises at a stage state that is not finite is NonFiniteState.
_CALL_BODY = """\
k = f([{state}])
if type(k) is not list:
    k = k.tolist() if isinstance(k, ndarray) else list(k)
try:
    [{rates}] = k
except ValueError:
    raise DimensionMismatch(
        f"flow map returned dimension {{len(k)}}, expected {n}") from None
"""


@functools.cache
def _flow_code(state: tuple[str, ...], body: str, rates: tuple[str, ...]):
    """The compiled source that defines ``flow(v)`` and ``kernel(f, x, h)``,
    the RK4 step over lists of n = len(state) Python floats as
    straight-line code with the body run in place at each stage.

    The kernel is x + (h/6)(k1 + 2 k2 + 2 k3 + k4), computed for each entry
    in the order of operations of the vector expression, so it is
    bit-identical to it.  x is unpacked into locals and the result is a list
    display, so a step runs no per-entry loop.  The result is checked
    through the sum e of its entries: a sum of finite floats is finite or
    overflows to inf, and an inf or NaN entry makes it inf or NaN, so the
    entries are checked one by one, raising NonFiniteState, only when
    ``e - e`` is not zero.
    """
    n = len(state)
    names = ", ".join(state)
    body = body.rstrip() + "\n"

    def listed(prefix, sep=", "):
        return sep.join(f"{prefix}{i}" for i in range(n))

    def stage(k, scale=None, by=None):
        entries = (f"x{i}" if by is None else f"x{i} + {scale} * {by}{i}"
                   for i in range(n))
        return _STAGE.format(
            assign="".join(f"    {v} = {e}\n" for v, e in zip(state, entries)),
            body=textwrap.indent(body, " " * 8), names=names,
            read="".join(f"    {k}{i} = {r}\n" for i, r in enumerate(rates)))

    result = "".join(
        f"    y{i} = x{i} + w * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})\n"
        for i in range(n))
    source = (f"def flow(v):\n    [{names}] = v\n"
              + textwrap.indent(body, "    ")
              + f"    return [{', '.join(rates)}]\n\n\n"
              "def kernel(f, x, h):\n"
              f"    [{listed('x')}] = x\n"
              "    half = 0.5 * h\n"
              + stage("a") + stage("b", "half", "a")
              + stage("c", "half", "b") + stage("d", "h", "c")
              + "    w = h / 6.0\n"
              + result
              + f"    out = [{listed('y')}]\n"
              f"    e = {listed('y', ' + ')}\n"
              "    if e - e != 0.0:\n"
              '        _require_finite(out, "flow step output (h={:g})", h)\n'
              "    return out\n")
    return compile(source, f"<flow body, width {n}>", "exec")


@functools.cache
def _rk4_kernel(n: int) -> Callable[[Callable, list[float], float], list[float]]:
    """The RK4 step over lists of n floats whose flow body, _CALL_BODY,
    calls the flow map f at each stage, compiled once per width."""
    state = tuple(f"s{i}" for i in range(n))
    rates = tuple(f"k{i}" for i in range(n))
    body = _CALL_BODY.format(state=", ".join(state), rates=", ".join(rates), n=n)
    namespace = {"_require_finite": _require_finite,
                 "DimensionMismatch": DimensionMismatch, "ndarray": np.ndarray}
    exec(_flow_code(state, body, rates), namespace)
    return namespace["kernel"]


def compile_flow(state: Sequence[str], body: str, rates: Sequence[str],
                 constants: dict) -> Callable[[list[float]], list[float]]:
    """The flow map of a flow body, carrying its RK4 step with the body
    inlined at each stage.

    ``body`` is straight-line Python that reads the state entries by the names
    ``state``, in order, and the names in ``constants``, and leaves the n
    derivatives in the expressions ``rates``, one per entry.  It must assign no
    state name and none of the names the kernel keeps across its stages: h,
    half, and x, a, b, c or d followed by digits.  The returned ``flow(v)``
    unpacks v into the state names, runs the body and returns the rates as a
    list.  Its ``rk4_step(x, h)`` attribute is the RK4 kernel of
    ``_flow_code``, bound to ``flow``, whose stages run the body in place
    instead of calling it: the same operations on the same floats, so the same
    bits and the same errors as the kernel whose body calls the flow map,
    without a call, a list and an unpack per stage.  step_flow takes it only
    for the flow map it is bound to, so a wrapper that copies the attribute
    (functools.wraps) takes the call path like any other.  The source is
    compiled once per (state, body, rates); each call only runs it in a
    namespace of its own constants.
    """
    namespace = {"_require_finite": _require_finite, **constants}
    exec(_flow_code(tuple(state), body, tuple(rates)), namespace)
    flow = namespace["flow"]
    flow.rk4_step = MethodType(namespace["kernel"], flow)
    return flow


def step_flow(spec: HybridSystemSpec, x, h: float) -> list[float]:
    """One explicit RK4 step of size h along the flow map, as a list: the
    flow map's own inlined step (compile_flow) when it has one, else the
    step whose flow body calls it (_rk4_kernel)."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step size must be positive and finite, got {h}")
    if type(x) is not list or len(x) != spec.dim:
        x = _state(x, spec.dim, "state")
    f = spec.flow_map
    step = getattr(f, "rk4_step", None)
    if step is not None and step.__self__ is f:
        return step(x, h)
    return _rk4_kernel(spec.dim)(f, x, h)


def _inverse_quadratic(a: float, f_a: float, b: float, f_b: float,
                       c: float, f_c: float) -> float:
    """The zero of the quadratic in the indicator value that takes f_a, f_b
    and f_c, which must be distinct, to a, b and c: Newton's divided
    differences of the inverse.  Differences of distinct floats are never
    zero, so nothing here divides by zero; where the arithmetic overflows or
    underflows the result may be inf or NaN."""
    d_ab = (b - a) / (f_b - f_a)
    d_bc = (c - b) / (f_c - f_b)
    return a - f_a * (d_ab - f_b * (d_bc - d_ab) / (f_c - f_a))


def locate_boundary(spec: HybridSystemSpec, x_inside, h: float,
                    indicator: Callable[[list[float]], float],
                    event_tol: float = 1e-10, *,
                    x_hi: list[float] | None = None,
                    f_lo: float | None = None,
                    f_hi: float | None = None,
                    stats: dict[str, int] | None = None) -> tuple[list[float], float]:
    """Find the boundary crossing of ``indicator`` within one flow step.

    Searches the step fraction in [0, 1], re-integrating the partial RK4
    step from ``x_inside`` at each probe, until the indicator magnitude at
    the probe state is within ``event_tol``.  Three rules place a probe.
    It goes to Brent's inverse quadratic interpolant through the bracket
    ends and the end the previous probe replaced, at their true indicator
    values.  Without such a third point, with a value repeated, or with the
    interpolant not strictly inside the bracket (an overflow makes it inf or
    NaN), it goes to the secant root through the ends' true values instead.
    It goes to the midpoint when that root is not strictly inside either,
    and after any probe that did not halve the bracket, unless that was the
    first probe and it at least halved |indicator| at the end it replaced.
    The interpolant meets a smooth event in about two probes; after the
    first probe at least every second probe halves the bracket, so a
    location takes at most 2 * 54 + 2 probes to reach the 1e-16 floor.  The
    endpoints must straddle the zero level set, otherwise NoSignChange is
    raised.  Returns the boundary state (a list) and the located fraction.
    A bracket narrower than 1e-16, or with no float inside, or
    ``_MAX_PROBES`` probes end the search at the last probe and count a
    ``locate_misses``; a NaN indicator raises NonFiniteState.

    A caller that already holds the full step ``x_hi = step_flow(spec,
    x_inside, h)`` or the indicator values at its ends (``f_lo`` at
    ``x_inside``, ``f_hi`` at ``x_hi``) passes them in and they are not
    computed again; they must be exactly what this function would compute.
    Work done here is added to ``stats`` when it is given.
    """
    if stats is None:
        stats = _new_stats()
    stats["locate_calls"] += 1
    x_inside = _state(x_inside, spec.dim, "x_inside")
    if f_lo is None:
        f_lo = float(indicator(x_inside))
        stats["indicator_evals"] += 1
        if f_lo != f_lo:
            raise _nan_indicator(indicator, x_inside)
    if abs(f_lo) <= event_tol:
        return x_inside, 0.0
    if x_hi is None:
        x_hi = step_flow(spec, x_inside, h)
        stats["rk4_steps"] += 1
        stats["locate_probes"] += 1
    else:
        x_hi = _state(x_hi, spec.dim, "x_hi")
    if f_hi is None:
        f_hi = float(indicator(x_hi))
        stats["indicator_evals"] += 1
        if f_hi != f_hi:
            raise _nan_indicator(indicator, x_hi)
    if abs(f_hi) <= event_tol:
        return x_hi, 1.0
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoSignChange(
            f"indicator does not change sign over the step: {f_lo:.6g} -> {f_hi:.6g}")
    # Interpolate through c, the end the previous probe replaced, else take
    # the secant root, else the midpoint: the docstring states the rules.
    lo, hi = 0.0, 1.0
    c = f_c = None
    halved = True
    for probe in range(_MAX_PROBES):
        width = hi - lo
        if not halved:
            s = 0.5 * (lo + hi)
        else:
            s = math.nan
            if c is not None and f_c != f_lo and f_c != f_hi:
                s = _inverse_quadratic(lo, f_lo, hi, f_hi, c, f_c)
            if not lo < s < hi:
                s = hi - f_hi * width / (f_hi - f_lo)
                if not lo < s < hi:
                    s = 0.5 * (lo + hi)
        x_s = step_flow(spec, x_inside, s * h)
        f_s = float(indicator(x_s))
        stats["rk4_steps"] += 1
        stats["locate_probes"] += 1
        stats["indicator_evals"] += 1
        if f_s != f_s:
            raise _nan_indicator(indicator, x_s)
        if abs(f_s) <= event_tol:
            return x_s, s
        if width < 1e-16 or not lo < s < hi:
            break
        if (f_s > 0.0) == (f_hi > 0.0):
            c, f_c = hi, f_hi
            hi, f_hi = s, f_s
        else:
            c, f_c = lo, f_lo
            lo, f_lo = s, f_s
        halved = (hi - lo <= 0.5 * width
                  or probe == 0 and abs(f_s) <= 0.5 * abs(f_c))
    stats["locate_misses"] += 1
    return x_s, s


def _select_jump(spec: HybridSystemSpec, x: list[float], event_tol: float,
                 ji: float | None = None) -> tuple[np.ndarray, int]:
    """The first jump candidate at x and the candidate count.  ``ji`` is the
    jump-set indicator at x when the caller already holds it."""
    if ji is None:
        ji = float(spec.in_jump_set(x))
        if ji != ji:
            raise _nan_indicator("in_jump_set", x)
    if ji > event_tol:
        raise NotInJumpSet(
            f"jump requested outside the jump set (indicator {ji:.6g} > {event_tol:g})")
    candidates = spec.jump_map(x)
    if len(candidates) == 0:
        raise EmptyJumpSet(f"jump map returned no candidates at {np.asarray(x, float)!r}")
    post = np.asarray(candidates[0], dtype=float)
    if post.shape != (spec.dim,):
        raise DimensionMismatch(
            f"jump candidate has shape {post.shape}, expected ({spec.dim},)")
    _require_finite(post, "jump output")
    return post, len(candidates)


def apply_jump(spec: HybridSystemSpec, x: np.ndarray,
               event_tol: float = 1e-10) -> np.ndarray:
    """Apply the jump map at x, returning the selected post-state."""
    return _select_jump(spec, _state(x, spec.dim, "state"), event_tol)[0]


def _indicator_pair(spec: HybridSystemSpec, v: list[float],
                    stats: dict[str, int]) -> tuple[float, float]:
    """(in_flow_set, in_jump_set) at v, each checked for NaN; a complementary
    spec's jump indicator is the negated flow indicator."""
    f = float(spec.in_flow_set(v))
    if f != f:
        raise _nan_indicator("in_flow_set", v)
    if spec.complementary:
        stats["indicator_evals"] += 1
        return f, -f
    g = float(spec.in_jump_set(v))
    if g != g:
        raise _nan_indicator("in_jump_set", v)
    stats["indicator_evals"] += 2
    return f, g


def simulate(spec: HybridSystemSpec, x0: np.ndarray, cfg: SimConfig) -> HybridArc:
    """Integrate the hybrid system from x0 over hybrid time.

    The run ends when flow time reaches ``cfg.t_max``, when one more jump
    would exceed ``cfg.j_max``, or at a dead end where the state can neither
    flow (the flow field exits the flow set immediately) nor jump.  All three
    are normal terminations, recorded on the arc.  A state outside both sets
    raises CoverageViolation.
    """
    dim = spec.dim
    x = _state(np.ravel(x0), dim, "x0")
    _require_finite(x, "initial state")
    tol = cfg.event_tol
    dt = cfg.dt
    t_max = cfg.t_max
    t_stop = t_max - _PROGRESS_EPS
    in_flow_set = spec.in_flow_set
    in_jump_set = spec.in_jump_set
    project_flow = spec.project_flow
    complementary = spec.complementary
    stats = _new_stats()
    # Trial steps; each also evaluates the indicators once at its end.
    steps = 0

    # (fi, ji) are the indicators at x; None once x has moved to a state
    # where they have not been evaluated yet.
    fi, ji = _indicator_pair(spec, x, stats)
    if fi > tol and ji > tol:
        raise CoverageViolation(
            f"initial state is in neither set (flow {fi:.6g}, jump {ji:.6g})")

    t = 0.0
    j = 0
    segments: list[FlowSegment] = []
    jumps: list[JumpEvent] = []
    notes: list[str] = []
    # The open segment's samples; no state list is modified, so none is copied.
    seg_t = [t]
    seg_x = [x]
    consecutive_jumps = 0
    zeno_warned = False
    termination = TERM_T_MAX

    def close_segment() -> None:
        n = len(seg_x)
        xs = np.fromiter(chain.from_iterable(seg_x), float, n * dim).reshape(n, dim)
        segments.append(FlowSegment(j, np.array(seg_t), xs))

    while True:
        if fi is None:
            fi, ji = _indicator_pair(spec, x, stats)
        if ji <= tol:
            if j >= cfg.j_max:
                termination = TERM_J_MAX
                break
            x_post, n_cand = _select_jump(spec, x, tol, ji=ji)
            jumps.append(JumpEvent(t=t, j_pre=j, x_pre=np.array(x, dtype=float),
                                   x_post=x_post.copy(), n_candidates=n_cand))
            close_segment()
            j += 1
            x = x_post.tolist()
            fi = ji = None
            seg_t = [t]
            seg_x = [x]
            consecutive_jumps += 1
            if consecutive_jumps > ZENO_WARN_AFTER and not zeno_warned:
                msg = (f"{consecutive_jumps} consecutive jumps without flow-time "
                       f"progress at t={t:.6g}; solution may be Zeno")
                warnings.warn(msg, RuntimeWarning, stacklevel=2)
                notes.append(msg)
                zeno_warned = True
            continue
        consecutive_jumps = 0

        if fi > tol:
            raise CoverageViolation(
                f"state in neither set at t={t:.6g}, j={j} "
                f"(flow {fi:.6g}, jump {ji:.6g})")
        if t >= t_stop:
            termination = TERM_T_MAX
            break

        h = t_max - t
        if not h < dt:
            h = dt
        x_trial = step_flow(spec, x, h)
        steps += 1
        fi_trial = float(in_flow_set(x_trial))
        if fi_trial != fi_trial:
            raise _nan_indicator("in_flow_set", x_trial)
        if complementary:
            ji_trial = -fi_trial
        else:
            ji_trial = float(in_jump_set(x_trial))
            if ji_trial != ji_trial:
                raise _nan_indicator("in_jump_set", x_trial)

        indicator = None
        if ji_trial <= -tol:
            # Entered the jump set mid-step: stop at the earliest entry point.
            indicator, f_lo, f_hi = in_jump_set, ji, ji_trial
        elif fi_trial > tol:
            # Left the flow set mid-step: stop on its boundary.
            indicator, f_lo, f_hi = in_flow_set, fi, fi_trial

        if indicator is None:
            x_new, t_new = x_trial, t + h
            fi, ji = fi_trial, ji_trial
        else:
            x_b, frac = locate_boundary(spec, x, h, indicator, tol, x_hi=x_trial,
                                        f_lo=f_lo, f_hi=f_hi, stats=stats)
            if frac * h <= _PROGRESS_EPS:
                # No flow from a boundary state outside the jump set: x, fi
                # and ji are unchanged, so the solution cannot be continued.
                termination = TERM_DEAD_END
                break
            x_new, t_new = x_b, t + frac * h
            fi = ji = None

        if project_flow is not None:
            # A projection that hands back its input object did not move it.
            x_proj = project_flow(x_new)
            if x_proj is not x_new and not np.array_equal(x_proj, x_new):
                stats["clamps"] += 1
                x_new = _state(x_proj, dim, "projected state")
                fi = ji = None
        x = x_new
        t = t_new
        seg_t.append(t)
        seg_x.append(x)

    close_segment()
    stats["rk4_steps"] += steps
    stats["indicator_evals"] += steps if complementary else 2 * steps
    return HybridArc(segments=segments, jumps=jumps, termination=termination,
                     stats=stats, notes=notes)
