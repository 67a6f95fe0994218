"""Simulator for dynamics that mix continuous flow with jumps.

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
SimConfig.method picks the integrator.  Under "dopri5", the default, steps
are explicit Dormand-Prince 5(4) pairs with error control (RTOL, ATOL) and
FSAL; ``dt`` is only the output grid, whose samples come from each step's
continuous extension, and a step whose stage raises a DomainError is
rejected and shortened.  Under "rk4", the reference path that the scenario
runs (harness) and the frozen references use, steps are fixed 4th-order
Runge-Kutta steps of ``dt``.  Both steps are straight-line code that one
generator writes from a tableau, held as data, and compiles on first use:
the step unpacks the state into n float locals, builds every stage state and
the result from the tableau's vector formula (for RK4 x + (h/6)(k1 + 2 k2 +
2 k3 + k4), in its order of operations, so its bits equal the numpy
expression's), and checks its own result's finiteness through the sum of the
entries, so a step costs no further pass over the state.  Each stage runs a
flow body, straight-line code over named state entries, in place.  A flow
map that compile_flow built from a body carries the RK4 step with that body
inlined and its float constants written in as literals (literal_source, one
whole-word rule over the text, so a body may neither assign a constant's
name nor spell it in a string), and rk4 runs take it; any other flow map, a
wrapper around such a one included, and every dopri5 run, take the step for
its width whose body calls the flow map and converts an ndarray output
itself.  simulate resolves the step once per run (step_kernel).

Inside the engine a state is a list of ``dim`` Python floats: the flow map, the
indicators, the jump map and the projection each receive one, and must not
modify it.  A list passed to step_flow, locate_boundary or apply_jump is taken
as is, so it must hold Python floats; any other sequence is read as a float
array; a state of any width but ``dim`` raises DimensionMismatch.  The flow map
may return any sequence of ``dim`` floats; any other length fails the call
body's unpack and raises DimensionMismatch too.  The arc still holds float
ndarrays: simulate appends each accepted state's floats to one flat list,
and turns the list into a block of arrays, each sample's time in ts and its
state in a row of the C-contiguous (samples, dim) array xs, once per
SINK_ROWS samples and when the segment closes; a segment's arrays are its
blocks' joined.  A caller that passes simulate a ``sink`` is handed the
blocks while the run goes on: ``sink(j, ts, xs)`` gets each segment's blocks
in order, as they are made, so the calls' samples, joined, are the arc's.
The sink must not modify them.  simulate runs one loop for both methods,
whose head and crossing handler they share; only the step differs.  Both
sample one grid, origin + k * dt after the start, each jump and each located
state, each time rounded once, so every rk4 step is dt but a run's last.
The head stops the run at t_max less a margin, max(_PROGRESS_EPS, 4 ulps of
t_max), which stays above zero on long horizons, where 1e-15 alone rounds
away; a grid time inside the margin is t_max itself, so a run that reaches
t_max ends with one sample there.  Under dopri5 one walk checks an accepted
step's grid samples in order and keeps each interior one in line; it stops
at the first sample that needs more than a keep (a crossing, a jump due, a
sample the projection moves, or the step's end), and one tail handles that
sample with its indicators already evaluated.  When a step crosses a set
boundary the crossing is located on the step fraction, under rk4
re-integrating the partial step at each probe (locate_boundary's default
path), under dopri5 on the step's interpolant, so every accepted sample
respects its set within ``event_tol``; a location that gives up short of it
is counted on the arc and ends inside its indicator's set, so a missed
entry still jumps.  Each probe interpolates, else takes the secant root,
else the midpoint, and the midpoint rule brings the bracket to its 1e-16
floor within 2 * 54 + 2 probes; ``locate_boundary`` states the rules.  An
indicator that is NaN raises NonFiniteState.  Everything here is
deterministic: the same spec, state and config produce bit-identical arcs.

The indicators are evaluated once per state checked: the pair computed at
the end of an accepted step (under dopri5, at its last sample or its end) is
carried into the next iteration, and is recomputed only after a jump, a
located boundary state, or a projection that moved the sample.  A spec
whose producer declares ``complementary=True`` promises ``in_jump_set(x) ==
-in_flow_set(x)`` exactly, for every x; the engine then calls only
``in_flow_set`` and negates it, in line at each state a step checks.  The
arc's ``stats`` mapping counts the work done.  ``simulate`` reaches
``step_flow``, ``locate_boundary`` and ``_select_jump`` through this module's
names, so a tracer that replaces them sees every step.
"""

from __future__ import annotations

import functools
import keyword
import math
import re
import textwrap
import warnings
from dataclasses import dataclass, field
from types import MethodType
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CoverageViolation,
    DimensionMismatch,
    DomainError,
    EmptyJumpSet,
    NoSignChange,
    NonFiniteState,
    NotInJumpSet,
)

# Termination reasons stored on HybridArc.termination.
TERM_T_MAX = "t_max"
TERM_J_MAX = "j_max"
TERM_DEAD_END = "dead_end"
TERM_STEP_BUDGET = "step_budget"

# Integration methods, SimConfig.method's values.
METHODS = ("dopri5", "rk4")

# Consecutive zero-flow-time jumps tolerated before a rate warning is issued.
# This is a diagnostic for near-Zeno behaviour; the hard stop is j_max.
ZENO_WARN_AFTER = 100

_PROGRESS_EPS = 1e-15

# Probe cap in locate_boundary; whatever the interpolated or secant probe
# does, the midpoint rule halves the bracket at least every second probe
# after the first, so 200 probes outlast the 1e-16 bracket floor.
_MAX_PROBES = 200

# Most samples in one of simulate's blocks (one call of its sink); at least 2.
SINK_ROWS = 1024

# The dopri5 step-size rule (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.4): the next step is the last times _SAFETY * err ** -0.2, held to
# [_SHRINK_MOST, _GROW_MOST], and at most the last right after a rejection;
# a step whose stage raises a DomainError is halved.  A run may try
# _STEP_BUDGET steps at its start, per dt of flow time and per jump; one
# that has tried more by time t after j jumps ends (TERM_STEP_BUDGET): a
# flow that needs steps that short, over and over, changes faster than the
# dt grid can show, or is stiff for an explicit pair, and the rule ends it
# within _STEP_BUDGET * (1 + t_max / dt + j_max) steps.
_SAFETY = 0.9
_SHRINK_MOST = 0.2
_GROW_MOST = 10.0
_STEP_BUDGET = 4096

# Counters kept on HybridArc.stats, all integers filled by the engine itself.
#   indicator_evals  calls of in_flow_set / in_jump_set
#   rk4_steps        step_flow calls: under rk4, every step, trial steps and
#                    locator probes alike (each accepted, unless its end
#                    crossed a boundary, when a located partial step is
#                    kept); under dopri5, every step tried, accepted or
#                    rejected
#   locate_calls     boundary locations started
#   locate_probes    probes while locating a boundary: partial RK4 steps
#                    integrated, or points of the dopri5 step's interpolant
#   locate_misses    locations that ran out of bracket or of probes with the
#                    indicator still beyond event_tol
#   clamps           accepted samples that project_flow moved
# A dopri5 arc adds rejected_steps, the steps of rk4_steps that were tried
# and thrown away, for their error or a DomainError at a stage; the rest
# were accepted.
STAT_KEYS = ("indicator_evals", "rk4_steps", "locate_calls", "locate_probes",
             "locate_misses", "clamps")


def _new_stats() -> dict[str, int]:
    return dict.fromkeys(STAT_KEYS, 0)


def float_field(name: str, value) -> float:
    """float(value), the value of the field called name; an int beyond
    float range raises a ValueError that names the field."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an int beyond float "
                         "range") from None


@dataclass(frozen=True)
class SimConfig:
    """Integrator settings.

    dt         the sample spacing: under rk4 the fixed flow step (a run's
               last may be shorter, to end at t_max), under dopri5 only the
               grid the interpolant is sampled on, not a bound on the step
    t_max      flow-time horizon
    j_max      jump budget, an int; exceeding it ends the run, it is not an
               error
    event_tol  tolerance on set-indicator values at accepted samples, finite
    method     "dopri5", error-controlled Dormand-Prince 5(4) steps with
               dense output, to the tolerances RTOL and ATOL (the default);
               or "rk4", fixed steps of dt, the reference path that scenario
               runs (harness) take

    dt, t_max and event_tol are stored as Python floats.  Where both sets
    hold, the engine jumps; there is no setting for it.
    """

    dt: float
    t_max: float
    j_max: int = 10_000
    event_tol: float = 1e-10
    method: str = "dopri5"

    def __post_init__(self):
        for name in ("dt", "t_max", "event_tol"):
            given = getattr(self, name)
            value = float_field(name, given)
            least = "non-negative" if name == "t_max" else "positive"
            if not (0.0 < value < math.inf or value == 0.0 and name == "t_max"):
                raise ValueError(f"{name} must be {least} and finite, got {given}")
            object.__setattr__(self, name, value)
        if not isinstance(self.j_max, int) or isinstance(self.j_max, bool) \
                or self.j_max < 0:
            raise ValueError(
                f"j_max must be a non-negative integer, got {self.j_max!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got "
                             f"{self.method!r}")


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

    ``stats`` holds the engine's counts for the run, keyed by STAT_KEYS,
    with rejected_steps too for a dopri5 run.
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


# The flow body as each stage of a _flow_code kernel runs it, in place.  A
# math-domain or overflow error at a stage state that has already left the
# reals (a step too large for the field) is NonFiniteState; at a finite state
# it propagates as is.
_STAGE = """\
    try:
{body}    except (ValueError, OverflowError):
        _require_finite([{names}], "{method} stage state")
        raise
"""

# The classical RK4 tableau (Butcher 2016, ch. 3) as _flow_code reads it: the
# step-size scales; each stage's rate prefix with the (scale, earlier rate
# prefix) terms its state adds to x; and the weights, a common factor times
# small integers, so the result keeps the bits of x + h/6 (a + 2b + 2c + d).
_RK4 = (
    {"half": "0.5 * h"},
    {"a": (), "b": (("half", "a"),), "c": (("half", "b"),), "d": (("h", "c"),)},
    ("h / 6.0", (1, 2, 2, 1)),
)

# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980): each stage's coefficients on the earlier stages' rates, the last
# stage's state being the fifth-order result, whose rate is the next step's
# first (FSAL); the error weights, fifth- less fourth-order; and the weights
# of the continuous extension's last coefficient (Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.6, as in their dopri5).
_DP_STAGES = (
    (), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERROR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
             22 / 525, -1 / 40)
_DP_DENSE = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
             -10690763975 / 1880347072, 701980252875 / 199316789632,
             -1453857185 / 822651844, 69997945 / 29380423)


def _dopri5_tableau() -> tuple:
    """_DP_STAGES, _DP_ERROR and _DP_DENSE in _RK4's form, over stages a to
    g: no scales; each stage with its (coefficient, earlier rate prefix)
    terms, the coefficient a float literal and h a common factor; and, in
    place of the weights, the error combination q and the dense
    combination r.  Each quotient of integers is correctly rounded."""
    def terms(coefs) -> tuple:
        return tuple((repr(c), p) for p, c in zip("abcdefg", coefs) if c)

    return ({}, dict(zip("abcdefg", map(terms, _DP_STAGES))),
            {"q": terms(_DP_ERROR), "r": terms(_DP_DENSE)})


_DOPRI5 = _dopri5_tableau()

# The error tolerances of a dopri5 step, relative and absolute: a step is
# accepted when the root mean square over the entries of its error estimate,
# each over ATOL + RTOL * max(|x_i|, |y_i|), is at most 1.  Chosen from
# tools/converged_reference.py's table (README, CHANGES.md).
RTOL = 1e-10
ATOL = 1e-12

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


# The names an _RK4 kernel of _flow_code keeps across its stages or binds
# after them: h, the scale half, the weight w, the check e, the result out,
# and x (the stage states' base), a to d (the rates) and y (the result)
# followed by an entry index.  A state so named would overwrite the kernel's
# value between stages, and a constant left a name (not a finite float)
# would read the kernel's local in place of its own value, so compile_flow
# refuses both.  The arguments of flow(v) and kernel(f, x, h) other than h
# (_ARGUMENTS) are harmless as states, which the body unpacks over them,
# but a constant so named that stays a name and names no state would read
# the argument, so compile_flow refuses that constant too.
_KEPT = re.compile(r"h|half|w|e|out|[xabcdy]\d+")
_ARGUMENTS = ("f", "v", "x")


def _flow_code(state: tuple[str, ...], body: str, rates: tuple[str, ...],
               tableau: tuple = _RK4) -> str:
    """The source that defines ``flow(v)`` and ``kernel(f, x, h)``, the step
    of ``tableau`` (_RK4 or _DOPRI5) over lists of n = len(state) Python
    floats, as straight-line code with the body run in place at each stage.

    Each stage state and the result follow, entry by entry, the order of
    operations of the tableau's vector formula, so the RK4 step is
    bit-identical to it.  x is unpacked into locals and the result is a list
    display, so a step runs no per-entry loop.  The result is checked
    through the sum e of its entries: a sum of finite floats is finite or
    overflows to inf, and an inf or NaN entry makes it inf or NaN, so the
    entries are checked one by one, raising NonFiniteState, only when
    ``e - e`` is not zero.

    The _DOPRI5 kernel is ``kernel(f, x, h, rate=None)``: ``rate``, the
    rates at x when the caller holds them (the last step's FSAL stage),
    spares the first stage.  It returns the fifth-order result y, the rates
    at y, the error ratio (the root mean square of the error estimate over
    ATOL + RTOL * max(|x_i|, |y_i|); at most 1 accepts the step) and the
    continuous extension's coefficients, four per entry, that
    _dense_kernel's ``dense`` reads.
    """
    scales, stages, weights = tableau
    fsal = type(weights) is dict
    n = len(state)
    names = ", ".join(state)
    body = body.rstrip() + "\n"
    staged = _STAGE.format(body=textwrap.indent(body, " " * 8), names=names,
                           method="DOPRI5" if fsal else "RK4")

    def listed(prefix, sep=", "):
        return sep.join(f"{prefix}{i}" for i in range(n))

    def combined(v, i, terms, base=None):
        """v = base plus the terms at entry i; under FSAL, h times their sum."""
        sums = [f"{c} * {p}{i}" for c, p in terms]
        if fsal and sums:
            sums = [f"h * ({' + '.join(sums)})"]
        return f"    {v} = " + " + ".join([base] * (base is not None) + sums) + "\n"

    code = [f"    [{listed('x')}] = x\n"]
    code += (f"    {name} = {value}\n" for name, value in scales.items())
    for k, terms in stages.items():
        stage = [combined(v, i, terms, f"x{i}") for i, v in enumerate(state)]
        stage.append(staged)
        stage += (f"    {k}{i} = {r}\n" for i, r in enumerate(rates))
        if fsal and not terms:
            code += ["    if rate is None:\n",
                     textwrap.indent("".join(stage), "    "),
                     f"    else:\n        [{listed(k)}] = rate\n"]
        else:
            code += stage
    if fsal:
        last = list(stages)[-1]
        for v, terms in weights.items():
            code += (combined(f"{v}{i}", i, terms) for i in range(n))
        code += (f"    p{i} = {v} - x{i}\n    m{i} = h * a{i} - p{i}\n"
                 f"    u{i} = abs(x{i})\n    w{i} = abs({v})\n"
                 f"    if u{i} < w{i}:\n        u{i} = w{i}\n"
                 f"    w{i} = q{i} / ({ATOL!r} + {RTOL!r} * u{i})\n"
                 for i, v in enumerate(state))
        out = f"[{names}]"
        tail = ("    err = sqrt((" + " + ".join(f"w{i} * w{i}" for i in range(n))
                + f") / {float(n)!r})\n"
                "    return out, [" + listed(last) + "], err, ["
                + ", ".join(f"p{i}, m{i}, p{i} - h * {last}{i} - m{i}, r{i}"
                            for i in range(n)) + "]\n")
        check = " + ".join(state)
    else:
        factor, weights = weights
        code.append(f"    w = {factor}\n")
        code += (f"    y{i} = x{i} + w * (" + " + ".join(
            f"{k}{i}" if b == 1 else f"{float(b)!r} * {k}{i}"
            for k, b in zip(stages, weights)) + ")\n" for i in range(n))
        out, tail, check = f"[{listed('y')}]", "    return out\n", listed("y", " + ")
    signature = "f, x, h, rate=None" if fsal else "f, x, h"
    return (f"def flow(v):\n    [{names}] = v\n"
            + textwrap.indent(body, "    ")
            + f"    return [{', '.join(rates)}]\n\n\n"
            f"def kernel({signature}):\n" + "".join(code)
            + f"    out = {out}\n"
            f"    e = {check}\n"
            "    if e - e != 0.0:\n"
            '        _require_finite(out, "flow step output (h={:g})", h)\n'
            + tail)


@functools.cache
def _call_kernel(n: int, method: str) -> Callable:
    """The step of ``method`` whose flow body, _CALL_BODY, calls the flow map
    f at each stage, compiled once per width n and method outside
    compile_source's cache: ``kernel(f, x, h)`` for rk4 (_RK4), and for
    dopri5 (_DOPRI5) ``kernel(f, x, h, rate=None)``, returning (y, rates at
    y, error ratio, dense coefficients) (_flow_code)."""
    state = tuple(f"s{i}" for i in range(n))
    rates = tuple(f"k{i}" for i in range(n))
    body = _CALL_BODY.format(state=", ".join(state), rates=", ".join(rates), n=n)
    namespace = {"_require_finite": _require_finite, "sqrt": math.sqrt,
                 "DimensionMismatch": DimensionMismatch, "ndarray": np.ndarray}
    tableau = _DOPRI5 if method == "dopri5" else _RK4
    exec(compile(_flow_code(state, body, rates, tableau),
                 f"<flow body, width {n}>", "exec"), namespace)
    return namespace["kernel"]


@functools.cache
def _dense_kernel(n: int) -> Callable[[list[float], list[float], float], list[float]]:
    """``dense(x, cont, s)``: the continuous extension of the dopri5 step from
    x with coefficients cont (the kernel's last output) at the fraction s of
    the step, x + s (p + (1 - s) (m + s (o + (1 - s) r))) entry by entry,
    as straight-line code; s = 0 gives x."""
    state = ", ".join(f"x{i}" for i in range(n))
    entries = ", ".join(f"p{i}, m{i}, o{i}, r{i}" for i in range(n))
    source = (f"def dense(x, cont, s):\n    [{state}] = x\n"
              f"    [{entries}] = cont\n    u = 1.0 - s\n    return ["
              + ", ".join(f"x{i} + s * (p{i} + u * (m{i} + s * (o{i} + u * r{i})))"
                          for i in range(n)) + "]\n")
    namespace = {}
    exec(compile(source, f"<dense output, width {n}>", "exec"), namespace)
    return namespace["dense"]


# Where a `` - name`` term ends: at a closing bracket, a comma, a sign, a
# comparison, if, else, a comment or a line's end.
_TERM_END = r"(?= *(?:[-+)\],<>=!#\n]|(?:if|else)\b|$))"

# A name that the whole-word rule can write in: one word, as \w reads it.
_WORD = re.compile(r"\w+")


def literal_source(text: str, constants: dict) -> str:
    """``text``, Python source, with each whole word that ``constants``
    binds to a finite Python float written as that float's repr in
    parentheses.  repr round-trips, so the literal has the float's bits, and
    compiled code loads it as a constant instead of looking a name up; the
    compiler folds an operation on two literals into the bits the operation
    gives at run time.  A constant of any other type, inf and nan included,
    stays a name, and so does one found inside a longer word.  The rule
    reads words, not syntax: a text that assigns such a name fails to
    compile, as a literal is no target, and the name spelled inside a
    string literal is rewritten there too.

    The same rule drops each term `` - name`` whose name is bound to +0.0,
    where the term is whole (the name is a whole word and the next token
    ends the term: a closing bracket, a comma, a sign, a comparison, if,
    else, a comment, a line's end) and the word that ends just before the
    term is a float: a float constant, or a name that is no keyword and no
    constant kept a name.  x - (+0.0) is x for every float x, -0.0, the
    infinities and NaN included (IEEE 754), and so entry by entry for a
    float array, but the compiler folds no such subtraction from a
    variable; so each drop is one float operation less at run time, with
    the same bits.  A signalling NaN alone differs: the subtraction quiets
    it, the dropped term passes it as it came.  Everything else stays as the
    whole-word rule writes it: -0.0; a unary minus; a zero that is a factor,
    base or primary (- z * k, - z ** 2, - z[0], - z.a, - z(...)) or on the
    left of a minus; a zero added or multiplied, as +0.0 + -0.0 is +0.0 and
    a zero times a negative is -0.0; a zero after an int or bool, where the
    subtraction makes a float, or after a number, which the compiler folds
    with the literal; one after a closing bracket, where no word ends; and
    a term followed by any other token (and, or, in, ...).

    One re.sub does both: its pattern names the float constants and the
    +0.0 terms, so only their sites call back into Python, and a text with
    no +0.0 constant has no term to drop."""
    floats = {name: f"({value!r})" for name, value in constants.items()
              if type(value) is float and math.isfinite(value)
              and _WORD.fullmatch(name)}
    if not floats:
        return text
    zeros = "|".join(name for name, value in floats.items()
                     if value == "(0.0)" and name.isidentifier())

    def written(match) -> str:
        start = begin = match.start()
        while begin and (text[begin - 1].isalnum() or text[begin - 1] == "_"):
            begin -= 1
        word = match[0]
        if word[0] != " ":
            return word if begin < start else floats[word]
        left = text[begin:start]
        if left in floats or (left not in constants and left.isidentifier()
                              and not keyword.iskeyword(left)):
            return ""
        return " - (0.0)"

    pattern = "(?:" + "|".join(floats) + r")\b"
    if zeros:
        pattern += rf"| - (?:{zeros})\b{_TERM_END}"
    return re.sub(pattern, written, text)


# Code objects of compile_source, keyed on the source, which carries each
# build's constants as literals; the bound keeps a sweep over many worlds
# from holding one set of code objects per world.
_CODE_CACHE = 32


@functools.lru_cache(maxsize=_CODE_CACHE)
def compile_source(source: str, filename: str):
    """The code object of the module ``source``, compiled once while it is
    among the last _CODE_CACHE compiled."""
    return compile(source, filename, "exec")


def compile_flow(state: Sequence[str], body: str, rates: Sequence[str],
                 constants: dict) -> Callable[[list[float]], list[float]]:
    """The flow map of a flow body, carrying its RK4 step with the body
    inlined at each stage.

    ``body`` is straight-line Python that reads the state entries by the names
    ``state``, in order, and the names in ``constants``, and leaves the n
    derivatives in the expressions ``rates``, one per entry.  It computes on
    floats, as the navigation fragments do: the state entries and the rates
    are Python floats, so literal_source may drop a term that subtracts a
    +0.0 constant from a name.  It must assign no state name and none of the
    names the kernel keeps (_KEPT): h, the tableau's scale half, w, e and
    out, and x, a, b, c, d or y followed by digits.  A state or a constant so
    named raises ValueError naming it, as does a constant named f, v or x
    (_ARGUMENTS) that names no state and is no finite float, since the flow
    map or its step would read its own argument of that name.  The
    returned ``flow(v)`` unpacks v into the state names, runs the body and
    returns the rates as a list.  Its ``rk4_step(x, h)`` attribute is the
    _RK4 step that ``_flow_code`` generates, bound to ``flow``, whose stages
    run the body in place instead of calling it: the same operations on the
    same floats, so the same bits and the same errors as the kernel whose
    body calls the flow map, without a call, a list and an unpack per stage.
    step_flow takes it only for the flow map it is bound to, so a wrapper
    that copies the attribute (functools.wraps) takes the call path like any
    other.  The finite float constants are written into the body and the
    rates as literals (literal_source), so the body must not assign one or
    spell one inside a string; the others, such as functions, are names in
    the flow map's namespace.  A constant named like a state entry is not
    written in: the entry stays a local, and the flow reads the state.
    """
    state = tuple(state)
    floats = {k: v for k, v in constants.items() if k not in state}
    clash = [name for name in (*state, *constants) if _KEPT.fullmatch(name)]
    clash += [name for name in _ARGUMENTS
              if name in floats and literal_source(name, floats) == name]
    if clash:
        raise ValueError(f"names {clash} clash with the inlined step's own")
    source = _flow_code(state, literal_source(body, floats),
                        tuple(literal_source(r, floats) for r in rates))
    namespace = {"_require_finite": _require_finite, **constants}
    exec(compile_source(source, f"<flow body, width {len(state)}>"), namespace)
    flow = namespace["flow"]
    flow.rk4_step = MethodType(namespace["kernel"], flow)
    return flow


def step_kernel(spec: HybridSystemSpec, method: str) -> Callable:
    """The step of ``method`` along spec's flow map, for step_flow's
    ``kernel``.  For rk4, ``kernel(x, h)``: the flow map's own inlined step
    (compile_flow) when it has one, else the step whose flow body calls it
    (_call_kernel).  For dopri5, ``kernel(x, h, rate=None)``, the step that
    calls the flow map, even one compile_flow built."""
    f = spec.flow_map
    if method == "rk4":
        step = getattr(f, "rk4_step", None)
        if step is not None and step.__self__ is f:
            return step
    return functools.partial(_call_kernel(spec.dim, method), f)


def step_flow(spec: HybridSystemSpec, x, h: float, *,
              kernel: Callable | None = None, rate: list[float] | None = None):
    """One explicit step of the _RK4 tableau of size h along the flow map, as
    a list: the flow map's own inlined step (compile_flow) when it has one,
    else the step whose flow body calls it (_call_kernel).

    A caller that resolved the step once (step_kernel) passes it as
    ``kernel``, with x a list of dim floats and h positive and finite, which
    are then not checked; a dopri5 kernel's return (_flow_code) is returned
    as is, and ``rate``, the rates at x when known, is passed on to it."""
    if kernel is not None:
        return kernel(x, h) if rate is None else kernel(x, h, rate)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step size must be positive and finite, got {h}")
    if type(x) is not list or len(x) != spec.dim:
        x = _state(x, spec.dim, "state")
    return step_kernel(spec, "rk4")(x, h)


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
                    stats: dict[str, int] | None = None,
                    path: Callable[[float], list[float]] | None = None
                    ) -> tuple[list[float], float]:
    """Find the boundary crossing of ``indicator`` within one flow step.

    Searches the step fraction in [0, 1], taking the state ``path(s)`` at
    each probe fraction s, until the indicator magnitude at the probe state
    is within ``event_tol``.  Without ``path``, the path re-integrates the
    partial RK4 step, ``path(s) = step_flow(spec, x_inside, s * h)``, and
    counts each such step in ``rk4_steps``; simulate passes a dopri5 step's
    interpolant, with h the span it covers.  Three rules place a probe.
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
    ``_MAX_PROBES`` probes end the search as a ``locate_misses``, at the last
    probe, else the bracket end, where the indicator is negative; a NaN
    indicator raises NonFiniteState.

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
    if path is None:
        def path(s: float) -> list[float]:
            stats["rk4_steps"] += 1
            return step_flow(spec, x_inside, s * h)
    if x_hi is None:
        x_hi = path(1.0)
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
    lo, hi, x_lo = 0.0, 1.0, x_inside
    c = f_c = None
    halved = True
    # Each probe evaluates the indicator once; both counts go to stats at
    # the end.  A probe within event_tol, or NaN, ends the search.
    for probes in range(1, _MAX_PROBES + 1):
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
        x_s = path(s)
        f_s = float(indicator(x_s))
        if not abs(f_s) > event_tol or width < 1e-16 or not lo < s < hi:
            break
        if (f_s > 0.0) == (f_hi > 0.0):
            c, f_c = hi, f_hi
            hi, f_hi, x_hi = s, f_s, x_s
        else:
            c, f_c = lo, f_lo
            lo, f_lo, x_lo = s, f_s, x_s
        halved = (hi - lo <= 0.5 * width
                  or probes == 1 and abs(f_s) <= 0.5 * abs(f_c))
    stats["locate_probes"] += probes
    stats["indicator_evals"] += probes
    if f_s != f_s:
        raise _nan_indicator(indicator, x_s)
    if abs(f_s) > event_tol:
        stats["locate_misses"] += 1
        if f_s > 0.0:
            return (x_lo, lo) if f_lo < 0.0 else (x_hi, hi)
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
    _require_finite(post.tolist(), "jump output")
    return post, len(candidates)


def apply_jump(spec: HybridSystemSpec, x: np.ndarray,
               event_tol: float = 1e-10) -> np.ndarray:
    """Apply the jump map at x, returning the selected post-state."""
    return _select_jump(spec, _state(x, spec.dim, "state"), event_tol)[0]


def _interpolant(dense: Callable, x: list[float], cont: list[float],
                 s0: float, s1: float) -> Callable[[float], list[float]]:
    """locate_boundary's path over the dopri5 step from x with coefficients
    cont between its fractions s0 (u = 0) and s1 (u = 1)."""
    return lambda u: dense(x, cont, s0 + u * (s1 - s0))


def simulate(spec: HybridSystemSpec, x0: np.ndarray, cfg: SimConfig, *,
             sink: Callable[[int, np.ndarray, np.ndarray], object] | None = None
             ) -> HybridArc:
    """Integrate the hybrid system from x0 over hybrid time.

    The run ends when flow time reaches ``cfg.t_max``, when one more jump
    would exceed ``cfg.j_max``, at a dead end where the state can neither
    flow (the flow field exits the flow set immediately) nor jump, or, under
    dopri5, when the steps tried outrun the step budget (_STEP_BUDGET; a
    note says where).  All are normal terminations, recorded on the arc.  A
    state outside both sets raises CoverageViolation.  ``sink``, when given,
    is called with each block of samples as the run makes it (see the module
    docstring); an error it raises ends the run.

    One loop serves both methods; only the step differs.  Both sample the
    module docstring's grid, and end a run that reaches t_max with one
    sample there.  Under rk4 each step of dt (a run's last one shorter where
    t_max is off the grid) is checked against both sets at its end, and
    kept as a sample.  Under dopri5 the steps are error-controlled (RTOL,
    ATOL); a step whose stage raises a DomainError is rejected and halved,
    and a step that would end inside the stop margin ends at t_max.  Each
    accepted step's grid samples come from its interpolant, and each is
    checked against both sets and projected; the step's end, when it is not
    a sample, is checked against both sets but not projected, as the next
    step's start.  So a crossing is bracketed inside one step, and located
    on its interpolant.  Under either method, simulate reaches each step,
    location and jump selection through step_flow, locate_boundary and
    _select_jump.
    """
    dim = spec.dim
    x = _state(np.ravel(x0), dim, "x0")
    _require_finite(x, "initial state")
    tol = cfg.event_tol
    dt = cfg.dt
    t_max = cfg.t_max
    t_stop = t_max - max(_PROGRESS_EPS, 4 * math.ulp(t_max))
    in_flow_set = spec.in_flow_set
    in_jump_set = spec.in_jump_set
    project_flow = spec.project_flow
    complementary = spec.complementary
    kernel = step_kernel(spec, cfg.method)
    stats = _new_stats()
    # Steps tried; under rk4 each also evaluates the indicators once at its end.
    steps = 0
    # States checked against both sets, but for the rk4 steps' ends.
    checks = 0

    t = 0.0
    j = 0
    segments: list[FlowSegment] = []
    jumps: list[JumpEvent] = []
    notes: list[str] = []
    # The open segment's blocks, and its samples since the last: their times,
    # and their states' floats in one flat list, so no state list is kept.
    seg_t = [t]
    seg_x = x.copy()
    blocks = []
    rows = SINK_ROWS
    consecutive_jumps = 0
    zeno_warned = False
    termination = TERM_T_MAX

    def add_block() -> None:
        # One buffer, the times and then the states' floats; np.fromiter
        # with its dtype and count given builds it faster than np.array.
        n = len(seg_t)
        both = np.fromiter(seg_t + seg_x, float, n * (dim + 1))
        ts, xs = both[:n], both[n:].reshape(n, dim)
        blocks.append((ts, xs))
        if sink is not None:
            sink(j, ts, xs)

    def close_segment() -> None:
        if seg_t:
            add_block()
        ts, xs = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
        segments.append(FlowSegment(j, ts, xs))

    # The defaults keep spec, tol, project_flow and stats plain locals of
    # simulate, not cells shared with these functions.
    def jump(x: list[float], t: float, ji: float, spec=spec,
             tol=tol) -> list[float]:
        """Jump from x at time t, where the jump indicator is ji: record it,
        close the segment and open the next; returns the post-state."""
        nonlocal j, seg_t, seg_x, blocks, consecutive_jumps, zeno_warned
        x_post, n_cand = _select_jump(spec, x, tol, ji=ji)
        jumps.append(JumpEvent(t=t, j_pre=j, x_pre=np.array(x, dtype=float),
                               x_post=x_post.copy(), n_candidates=n_cand))
        # A segment that kept a sample after its first has flowed.
        consecutive_jumps = 1 if blocks or len(seg_t) > 1 else consecutive_jumps + 1
        close_segment()
        j += 1
        x = x_post.tolist()
        seg_t = [t]
        seg_x = x.copy()
        blocks = []
        if consecutive_jumps > ZENO_WARN_AFTER and not zeno_warned:
            msg = (f"{consecutive_jumps} consecutive jumps without flow-time "
                   f"progress at t={t:.6g}; solution may be Zeno")
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
            notes.append(msg)
            zeno_warned = True
        return x

    def keep(t: float, x: list[float], project_flow=project_flow,
             stats=stats) -> list[float]:
        """Keep the sample x at time t, projected (not when project_flow is
        passed as None); returns the kept state, x itself unless the
        projection moved it."""
        nonlocal seg_t, seg_x
        if project_flow is not None:
            x_proj = project_flow(x)
            if x_proj is not x and not np.array_equal(x_proj, x):
                stats["clamps"] += 1
                x = _state(x_proj, dim, "projected state")
        seg_t.append(t)
        seg_x += x
        if len(seg_t) == SINK_ROWS:
            add_block()
            seg_t, seg_x = [], []
        return x

    rk4 = cfg.method == "rk4"
    dense = _dense_kernel(dim)
    h = dt          # the next dopri5 step to try
    grow = True     # False right after a rejection: the next step may not grow
    rate = None     # the flow map at x, when the last step's FSAL stage holds it
    # Grid sample k is at origin + k * dt, rounded once: the origin is the
    # start, a jump or a state kept off the grid, and k the last one kept.
    origin, k = t, 0
    rejected = 0
    allow = 0.0     # the step budget when last computed; it grows with t and j
    # (fi, ji) are the indicators at x; None until they are evaluated there.
    fi = ji = None
    while True:
        if fi is None:
            fi = float(in_flow_set(x))
            if fi != fi:
                raise _nan_indicator("in_flow_set", x)
            if complementary:
                ji = -fi
            else:
                ji = float(in_jump_set(x))
                if ji != ji:
                    raise _nan_indicator("in_jump_set", x)
            checks += 1
        if ji <= tol:
            if j >= cfg.j_max:
                termination = TERM_J_MAX
                break
            x = jump(x, t, ji)
            fi = ji = rate = None
            origin, k = t, 0
            continue

        if fi > tol:
            raise CoverageViolation(
                f"state in neither set at t={t:.6g}, j={j} "
                f"(flow {fi:.6g}, jump {ji:.6g})")
        if t >= t_stop:
            break

        if rk4:
            t1 = origin + (k + 1) * dt  # the step's end
            hs = dt
            if not t1 < t_stop:
                hs = min(dt, t_max - t)
                t1 = t_max
            xc = step_flow(spec, x, hs, kernel=kernel)
            steps += 1
            f_c = float(in_flow_set(xc))
            if f_c != f_c:
                raise _nan_indicator("in_flow_set", xc)
            if complementary:
                g_c = -f_c
            else:
                g_c = float(in_jump_set(xc))
                if g_c != g_c:
                    raise _nan_indicator("in_jump_set", xc)
            if not (g_c <= -tol or f_c > tol):
                t, k = t1, k + 1
                fi, ji = f_c, g_c
                if project_flow is not None:
                    # A projection that hands back its input object did not
                    # move it.
                    x_proj = project_flow(xc)
                    if x_proj is not xc and not np.array_equal(x_proj, xc):
                        stats["clamps"] += 1
                        xc = _state(x_proj, dim, "projected state")
                        fi = ji = None
                x = xc
                seg_t.append(t)
                seg_x += x
                if len(seg_t) == rows:
                    add_block()
                    seg_t, seg_x = [], []
                continue
            lo_x, lo_t, lo_f, lo_g = x, t, fi, ji
            span, path = hs, None
        else:
            # The budget only grows, so it is recomputed only when the steps
            # tried reach its last value.
            if steps >= allow:
                allow = _STEP_BUDGET * (1.0 + t / dt + j)
                if steps >= allow:
                    termination = TERM_STEP_BUDGET
                    notes.append(f"{steps} steps tried by t={t:.6g} after {j} "
                                 f"jump(s), the last asking for h={h:.6g}: over "
                                 f"the budget of {_STEP_BUDGET} per dt={dt:g} "
                                 "of flow time, per jump and at the start")
                    if t > origin + k * dt:
                        keep(t, x)
                    break

            t1 = t + h  # the step's end; one in the margin ends the run
            hs = h
            if t1 >= t_stop:
                hs = t_max - t
                t1 = t_max
            try:
                y, rate_y, err, cont = step_flow(spec, x, hs, kernel=kernel,
                                                 rate=rate)
            except DomainError:
                steps += 1
                rejected += 1
                h = 0.5 * hs
                grow = False
                continue
            steps += 1
            if not err <= 1.0:  # NaN too
                rejected += 1
                h = hs * max(_SHRINK_MOST, _SAFETY * err ** -0.2)
                grow = False
                continue
            fac = _SAFETY * err ** -0.2 if err else _GROW_MOST
            if fac > _GROW_MOST:
                fac = _GROW_MOST
            h = hs * (fac if grow or fac < 1.0 else 1.0)
            grow = True

            # The walk: check the step's grid samples, then its end, from lo,
            # the last state checked, keeping each interior sample in line;
            # stop at a crossing, a jump due, a projection that moves a
            # sample, or the step's end.
            lo_x, lo_t, lo_f, lo_g = x, t, fi, ji
            while True:
                tc = origin + (k + 1) * dt  # the next grid sample, or t_max
                if tc >= t_stop:
                    tc = t_max
                xc = dense(x, cont, (tc - t) / hs) if tc < t1 else y
                f_c = float(in_flow_set(xc))
                if f_c != f_c:
                    raise _nan_indicator("in_flow_set", xc)
                if complementary:
                    g_c = -f_c
                else:
                    g_c = float(in_jump_set(xc))
                    if g_c != g_c:
                        raise _nan_indicator("in_jump_set", xc)
                checks += 1
                if g_c <= tol or f_c > tol or xc is y:
                    break
                if project_flow is not None:
                    x_proj = project_flow(xc)
                    if x_proj is not xc and not np.array_equal(x_proj, xc):
                        break
                seg_t.append(tc)
                seg_x += xc
                if len(seg_t) == rows:
                    add_block()
                    seg_t, seg_x = [], []
                lo_x = xc
                lo_t, k = tc, k + 1
                lo_f = f_c
                lo_g = g_c

            # The tail: the sample the walk stopped at, its indicators known.
            off_grid = xc is y and tc != t1  # the step's end, off the grid
            if off_grid:
                tc = t1
                if not (g_c <= tol or f_c > tol):
                    # Inside the flow set, with no jump due: the next step's
                    # start.
                    x, t, fi, ji, rate = y, t1, f_c, g_c, rate_y
                    continue
            if not (g_c <= -tol or f_c > tol):
                # A jump due, the step's end on the grid, or a sample that
                # the walk's projection moved: keep it, and go on from it.
                if g_c <= tol or xc is y:
                    x = keep(tc, xc)
                else:
                    stats["clamps"] += 1
                    x = keep(tc, _state(x_proj, dim, "projected state"),
                             project_flow=None)
                t = tc
                origin, k = (t, 0) if off_grid else (origin, k + 1)
                if x is xc:
                    fi, ji = f_c, g_c
                    rate = rate_y if xc is y else None
                else:
                    fi = ji = rate = None
                continue
            span = tc - lo_t
            path = _interpolant(dense, x, cont, (lo_t - t) / hs,
                                1.0 if xc is y else (tc - t) / hs)

        # The flow crossed a set boundary between lo, the last state checked,
        # and xc, span later: locate the crossing along path (under rk4,
        # locate_boundary's partial RK4 steps), into the jump set first.
        if g_c <= -tol:
            indicator, f_lo, f_hi = in_jump_set, lo_g, g_c
        else:
            indicator, f_lo, f_hi = in_flow_set, lo_f, f_c
        x_b, frac = locate_boundary(spec, lo_x, span, indicator, tol, x_hi=xc,
                                    f_lo=f_lo, f_hi=f_hi, stats=stats, path=path)
        if frac * span <= _PROGRESS_EPS:
            # No flow from lo, a boundary state outside the jump set.
            termination = TERM_DEAD_END
            if lo_t > origin + k * dt:
                keep(lo_t, lo_x)
            break
        t = lo_t + frac * span
        x = keep(t, x_b)
        origin, k = t, 0
        fi = ji = rate = None

    close_segment()
    if rk4:
        checks += steps
    else:
        stats["rejected_steps"] = rejected
    stats["rk4_steps"] += steps
    stats["indicator_evals"] += checks if complementary else 2 * checks
    return HybridArc(segments=segments, jumps=jumps, termination=termination,
                     stats=stats, notes=notes)
