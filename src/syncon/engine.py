"""Fixed-step simulator for dynamics that mix continuous flow with jumps.

A system owns two regimes: a flow map ``xdot = F(x)`` that applies while the
flow-set indicator is non-positive, and a jump map ``x+ in G(x)`` that applies
while the jump-set indicator is non-positive.  Indicators are signed reals:
values <= 0 mean "inside the set", and their zero level set is the boundary.
The two sets must jointly cover every reachable state; a state outside both
(beyond ``event_tol``) is a modelling error, not a normal termination.

Solutions live on a hybrid time domain (t, j): flow advances t along segments
of constant jump counter j, and each jump increments j while t stands still.
Integration is explicit fixed-step 4th-order Runge-Kutta, computed entry by
entry over Python floats in the order of operations of the vector formula
x + (h/6)(k1 + 2 k2 + 2 k3 + k4).  Inside the engine a state is a list of
``dim`` Python floats: the flow map, the indicators, the jump map and the
projection each receive one, and must not modify it.  A list passed to
step_flow, locate_boundary or apply_jump is taken as is, so it must hold
Python floats; any other sequence is read as a float array.  The flow map may
return any sequence of ``dim`` floats; any other length raises
DimensionMismatch.  The arc still holds float ndarrays.  When a step crosses
a set boundary the crossing is located on the step fraction by a safeguarded
Illinois (modified regula falsi) iteration, re-integrating the partial step
at each probe, so every accepted sample respects its set within
``event_tol``; a location that gives up short of it is counted on the arc.
An indicator that is NaN raises NonFiniteState.  Everything here is
deterministic: the same spec, state and config produce bit-identical arcs.

The indicators are evaluated once per state: the pair computed at the end of
an accepted step is carried into the next iteration, and is recomputed only
after a jump, a located boundary state, or a projection that moved the
sample.  A spec whose producer declares ``complementary=True`` promises
``in_jump_set(x) == -in_flow_set(x)`` exactly, for every x; the engine then
calls only ``in_flow_set`` and negates it.  The arc's ``stats`` mapping
counts the work done.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
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

# Probe cap in locate_boundary; the midpoint rule halves the bracket at least
# every second probe, so 200 probes outlast the 1e-16 bracket floor.
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


class Priority(Enum):
    """Which regime wins where the flow and jump sets overlap."""

    JUMP = "jump"
    FLOW = "flow"


@dataclass(frozen=True)
class SimConfig:
    """Integrator settings.

    dt         fixed flow step (final step of a segment may be shorter)
    t_max      flow-time horizon
    j_max      jump budget; exceeding it ends the run, it is not an error
    event_tol  tolerance on set-indicator values at accepted samples
    priority   regime choice on the overlap of the two sets
    """

    dt: float
    t_max: float
    j_max: int = 10_000
    event_tol: float = 1e-10
    priority: Priority = Priority.JUMP

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_max >= 0.0 and np.isfinite(self.t_max)):
            raise ValueError(f"t_max must be non-negative, got {self.t_max}")
        if self.j_max < 0:
            raise ValueError(f"j_max must be non-negative, got {self.j_max}")
        if not (self.event_tol > 0.0):
            raise ValueError(f"event_tol must be positive, got {self.event_tol}")


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
    def final_time(self) -> float:
        return float(self.segments[-1].ts[-1])

    @property
    def final_jump_counter(self) -> int:
        return self.segments[-1].j

    @property
    def total_samples(self) -> int:
        return sum(len(seg.ts) for seg in self.segments)

    def iter_samples(self) -> Iterator[tuple[float, int, np.ndarray]]:
        """Yield (t, j, state) over all segments in hybrid-time order."""
        for seg in self.segments:
            for k in range(len(seg.ts)):
                yield float(seg.ts[k]), seg.j, seg.xs[k]


def _state(x) -> list[float]:
    """x as the engine's state: a list as is, anything else via a float ndarray."""
    return x if type(x) is list else np.asarray(x, dtype=float).tolist()


def _require_finite(x, what: str, *args) -> None:
    """NonFiniteState unless x is finite; x is named by what.format(*args),
    formatted only then."""
    if not all(map(math.isfinite, x)):
        raise NonFiniteState(f"{what.format(*args)} is not finite: {np.asarray(x, float)!r}")


def _nan_indicator(indicator: Callable | str, x) -> NonFiniteState:
    """The error for an indicator, a callable or its name, that is NaN at x."""
    name = getattr(indicator, "__name__", indicator)
    return NonFiniteState(f"indicator {name} is NaN at {np.asarray(x, float)!r}")


def _stage(f: Callable, x: list[float], n: int) -> list[float]:
    """The flow map at x, as a list of n floats.

    A math-domain or overflow error from a flow map evaluated at a stage
    state that has already left the reals (a step too large for the field)
    is reported as NonFiniteState; at a finite state it propagates as is.
    """
    try:
        k = f(x)
    except (ValueError, OverflowError):
        _require_finite(x, "RK4 stage state")
        raise
    if type(k) is not list:
        k = k.tolist() if isinstance(k, np.ndarray) else list(k)
    if len(k) != n:
        raise DimensionMismatch(f"flow map returned dimension {len(k)}, expected {n}")
    return k


def _rk4(f: Callable, x: list[float], h: float) -> list[float]:
    """x + (h/6)(k1 + 2 k2 + 2 k3 + k4), entry by entry over Python floats,
    in the same order of operations as the vector expression."""
    n = len(x)
    half = 0.5 * h
    k1 = _stage(f, x, n)
    k2 = _stage(f, [a + half * b for a, b in zip(x, k1)], n)
    k3 = _stage(f, [a + half * b for a, b in zip(x, k2)], n)
    k4 = _stage(f, [a + h * b for a, b in zip(x, k3)], n)
    w = h / 6.0
    return [a + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def step_flow(spec: HybridSystemSpec, x, h: float) -> list[float]:
    """One explicit RK4 step of size h along the flow map, as a list."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step size must be positive and finite, got {h}")
    out = _rk4(spec.flow_map, _state(x), h)
    _require_finite(out, "flow step output (h={:g})", h)
    return out


def locate_boundary(spec: HybridSystemSpec, x_inside, h: float,
                    indicator: Callable[[list[float]], float],
                    event_tol: float = 1e-10, *,
                    x_hi: list[float] | None = None,
                    f_lo: float | None = None,
                    f_hi: float | None = None,
                    stats: dict[str, int] | None = None) -> tuple[list[float], float]:
    """Find the boundary crossing of ``indicator`` within one flow step.

    Searches the step fraction in [0, 1] with the Illinois rule, safeguarded
    by midpoint probes, re-integrating the partial RK4 step from
    ``x_inside`` at each probe, until the indicator magnitude at the probe
    state is within ``event_tol``.  The endpoints must straddle the zero
    level set, otherwise NoSignChange is raised.  Returns the boundary state
    (a list) and the located fraction.  A bracket narrower than 1e-16, or with
    no float inside, or ``_MAX_PROBES`` probes end the search at the last probe
    and count a ``locate_misses``; a NaN indicator raises NonFiniteState.

    A caller that already holds the full step ``x_hi = step_flow(spec,
    x_inside, h)`` or the indicator values at its ends (``f_lo`` at
    ``x_inside``, ``f_hi`` at ``x_hi``) passes them in and they are not
    computed again; they must be exactly what this function would compute.
    Work done here is added to ``stats`` when it is given.
    """
    if stats is None:
        stats = _new_stats()
    stats["locate_calls"] += 1
    x_inside = _state(x_inside)
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
        x_hi = _state(x_hi)
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
    # Illinois iteration on the step fraction: probe at the secant root of
    # the bracket ends; when one end is kept twice in a row, halve its stored
    # value.  A NaN secant point, one not strictly inside, or a previous probe
    # that did not halve the bracket gets the midpoint instead.
    lo, hi = 0.0, 1.0
    last = None     # the end the previous probe replaced
    halved = True
    for _ in range(_MAX_PROBES):
        width = hi - lo
        s = hi - f_hi * width / (f_hi - f_lo)
        if not (halved and lo < s < hi):
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
            hi, f_hi = s, f_s
            if last == "hi":
                f_lo *= 0.5
            last = "hi"
        else:
            lo, f_lo = s, f_s
            if last == "lo":
                f_hi *= 0.5
            last = "lo"
        halved = hi - lo <= 0.5 * width
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
    if post.size != spec.dim:
        raise DimensionMismatch(
            f"jump candidate has dimension {post.size}, expected {spec.dim}")
    _require_finite(post, "jump output")
    return post, len(candidates)


def apply_jump(spec: HybridSystemSpec, x: np.ndarray,
               event_tol: float = 1e-10) -> np.ndarray:
    """Apply the jump map at x, returning the selected post-state."""
    return _select_jump(spec, _state(x), event_tol)[0]


def simulate(spec: HybridSystemSpec, x0: np.ndarray, cfg: SimConfig) -> HybridArc:
    """Integrate the hybrid system from x0 over hybrid time.

    The run ends when flow time reaches ``cfg.t_max``, when one more jump
    would exceed ``cfg.j_max``, or at a dead end where the state can neither
    flow (the flow field exits the flow set immediately) nor jump.  All three
    are normal terminations, recorded on the arc.  A state outside both sets
    raises CoverageViolation.
    """
    x = np.array(x0, dtype=float).ravel().tolist()
    if len(x) != spec.dim:
        raise DimensionMismatch(f"x0 has dimension {len(x)}, expected {spec.dim}")
    _require_finite(x, "initial state")
    tol = cfg.event_tol
    stats = _new_stats()
    complementary = spec.complementary
    evals_per_state = 1 if complementary else 2

    def indicators(v: list[float]) -> tuple[float, float]:
        stats["indicator_evals"] += evals_per_state
        f = float(spec.in_flow_set(v))
        if f != f:
            raise _nan_indicator("in_flow_set", v)
        if complementary:
            return f, -f
        g = float(spec.in_jump_set(v))
        if g != g:
            raise _nan_indicator("in_jump_set", v)
        return f, g

    # (fi, ji) are the indicators at x; None once x has moved to a state
    # where they have not been evaluated yet.
    fi, ji = indicators(x)
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
    flow_blocked = False
    termination = TERM_T_MAX

    def close_segment() -> None:
        segments.append(FlowSegment(j, np.array(seg_t), np.array(seg_x, dtype=float)))

    while True:
        if fi is None:
            fi, ji = indicators(x)
        jump_now = ji <= tol and (cfg.priority is Priority.JUMP
                                  or fi > tol or flow_blocked)

        if jump_now:
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
            flow_blocked = False
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
        if flow_blocked:
            # On the flow-set boundary with an outward field and no jump
            # available: the solution cannot be continued.
            termination = TERM_DEAD_END
            break
        if t >= cfg.t_max - _PROGRESS_EPS:
            termination = TERM_T_MAX
            break

        h = min(cfg.dt, cfg.t_max - t)
        x_trial = step_flow(spec, x, h)
        stats["rk4_steps"] += 1
        fi_trial, ji_trial = indicators(x_trial)

        indicator = None
        if cfg.priority is Priority.JUMP and ji > tol and ji_trial <= -tol:
            # Entered the jump set mid-step: stop at the earliest entry point.
            indicator, f_lo, f_hi = spec.in_jump_set, ji, ji_trial
        elif fi_trial > tol:
            # Left the flow set mid-step: stop on its boundary.
            indicator, f_lo, f_hi = spec.in_flow_set, fi, fi_trial

        if indicator is None:
            x_new, t_new = x_trial, t + h
            fi, ji = fi_trial, ji_trial
        else:
            x_b, frac = locate_boundary(spec, x, h, indicator, tol, x_hi=x_trial,
                                        f_lo=f_lo, f_hi=f_hi, stats=stats)
            if frac * h <= _PROGRESS_EPS:
                flow_blocked = True
                continue
            x_new, t_new = x_b, t + frac * h
            fi = ji = None

        if spec.project_flow is not None:
            # A projection that hands back its input object did not move it.
            x_proj = spec.project_flow(x_new)
            if x_proj is not x_new and not np.array_equal(x_proj, x_new):
                stats["clamps"] += 1
                x_new = _state(x_proj)
                fi = ji = None
        x = x_new
        t = t_new
        seg_t.append(t)
        seg_x.append(x)

    close_segment()
    return HybridArc(segments=segments, jumps=jumps, termination=termination,
                     stats=stats, notes=notes)
