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
x + (h/6)(k1 + 2 k2 + 2 k3 + k4).  The flow map receives each stage state as
a float ndarray of length ``dim`` and must return a float ndarray of length
``dim``; its output is read with ``tolist()``, and any other length raises
DimensionMismatch.  When a step crosses a set boundary the crossing is
located by bisection on the step fraction, re-integrating the partial step,
so every accepted sample respects its set within ``event_tol``.  Everything
here is deterministic: the same spec, state and config produce bit-identical
arcs.

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
from typing import Callable, Iterator

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

# Bisection cap in locate_boundary; 200 halvings outlast the 1e-16 bracket
# floor on any step fraction.
_MAX_BISECTIONS = 200

# Counters kept on HybridArc.stats, all integers filled by the engine itself.
#   indicator_evals  calls of in_flow_set / in_jump_set
#   rk4_steps        RK4 steps, trial steps and bisection probes alike
#   locate_calls     boundary locations started
#   locate_probes    partial steps integrated while locating a boundary
#   clamps           accepted samples that project_flow moved
STAT_KEYS = ("indicator_evals", "rk4_steps", "locate_calls", "locate_probes",
             "clamps")


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

    flow_map      state -> time derivative, used while flowing; takes a float
                  ndarray of length dim and returns one of length dim
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
    flow_map: Callable[[np.ndarray], np.ndarray]
    jump_map: Callable[[np.ndarray], list]
    in_flow_set: Callable[[np.ndarray], float]
    in_jump_set: Callable[[np.ndarray], float]
    project_flow: Callable[[np.ndarray], np.ndarray] | None = None
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


def _require_finite(x: np.ndarray, what: str) -> None:
    if not all(map(math.isfinite, x.tolist())):
        raise NonFiniteState(f"{what} is not finite: {x!r}")


def _stage(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
           n: int) -> list[float]:
    """The flow map at x, as a list of n floats.

    A math-domain or overflow error from a flow map evaluated at a stage
    state that has already left the reals (a step too large for the field)
    is reported as NonFiniteState; at a finite state it propagates as is.
    """
    try:
        k = f(x).tolist()
    except (ValueError, OverflowError):
        _require_finite(x, "RK4 stage state")
        raise
    if len(k) != n:
        raise DimensionMismatch(f"flow map returned dimension {len(k)}, expected {n}")
    return k


def _rk4(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    """x + (h/6)(k1 + 2 k2 + 2 k3 + k4), entry by entry over Python floats,
    in the same order of operations as the vector expression."""
    x0 = x.tolist()
    n = len(x0)
    half = 0.5 * h
    k1 = _stage(f, x, n)
    k2 = _stage(f, np.array([a + half * b for a, b in zip(x0, k1)]), n)
    k3 = _stage(f, np.array([a + half * b for a, b in zip(x0, k2)]), n)
    k4 = _stage(f, np.array([a + h * b for a, b in zip(x0, k3)]), n)
    w = h / 6.0
    return np.array([a + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(x0, k1, k2, k3, k4)])


def step_flow(spec: HybridSystemSpec, x: np.ndarray, h: float) -> np.ndarray:
    """One explicit RK4 step of size h along the flow map."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step size must be positive and finite, got {h}")
    out = _rk4(spec.flow_map, np.asarray(x, dtype=float), h)
    _require_finite(out, f"flow step output (h={h:g})")
    return out


def locate_boundary(spec: HybridSystemSpec, x_inside: np.ndarray, h: float,
                    indicator: Callable[[np.ndarray], float],
                    event_tol: float = 1e-10, *,
                    x_hi: np.ndarray | None = None,
                    f_lo: float | None = None,
                    f_hi: float | None = None,
                    stats: dict[str, int] | None = None) -> tuple[np.ndarray, float]:
    """Find the boundary crossing of ``indicator`` within one flow step.

    Bisects the step fraction in [0, 1], re-integrating the partial RK4 step
    from ``x_inside`` at each probe, until the indicator magnitude at the
    probe state is within ``event_tol``.  The endpoints must straddle the
    zero level set, otherwise NoSignChange is raised.  Returns the boundary
    state and the located fraction.

    A caller that already holds the full step ``x_hi = step_flow(spec,
    x_inside, h)`` or the indicator values at its ends (``f_lo`` at
    ``x_inside``, ``f_hi`` at ``x_hi``) passes them in and they are not
    computed again; they must be exactly what this function would compute.
    Work done here is added to ``stats`` when it is given.
    """
    if stats is None:
        stats = _new_stats()
    stats["locate_calls"] += 1
    x_inside = np.asarray(x_inside, dtype=float)
    if f_lo is None:
        f_lo = float(indicator(x_inside))
        stats["indicator_evals"] += 1
    if abs(f_lo) <= event_tol:
        return x_inside.copy(), 0.0
    if x_hi is None:
        x_hi = step_flow(spec, x_inside, h)
        stats["rk4_steps"] += 1
        stats["locate_probes"] += 1
    if f_hi is None:
        f_hi = float(indicator(x_hi))
        stats["indicator_evals"] += 1
    if abs(f_hi) <= event_tol:
        return x_hi, 1.0
    if f_lo * f_hi > 0.0:
        raise NoSignChange(
            f"indicator does not change sign over the step: {f_lo:.6g} -> {f_hi:.6g}")
    lo, hi = 0.0, 1.0
    x_mid = x_hi
    mid = 1.0
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        x_mid = step_flow(spec, x_inside, mid * h)
        f_mid = float(indicator(x_mid))
        stats["rk4_steps"] += 1
        stats["locate_probes"] += 1
        stats["indicator_evals"] += 1
        if abs(f_mid) <= event_tol or (hi - lo) < 1e-16:
            return x_mid, mid
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi = mid
        else:
            lo = mid
    return x_mid, mid


def _select_jump(spec: HybridSystemSpec, x: np.ndarray, event_tol: float,
                 ji: float | None = None) -> tuple[np.ndarray, int]:
    """The first jump candidate at x and the candidate count.  ``ji`` is the
    jump-set indicator at x when the caller already holds it."""
    if ji is None:
        ji = float(spec.in_jump_set(x))
    if ji > event_tol:
        raise NotInJumpSet(
            f"jump requested outside the jump set (indicator {ji:.6g} > {event_tol:g})")
    candidates = spec.jump_map(x)
    if len(candidates) == 0:
        raise EmptyJumpSet(f"jump map returned no candidates at {x!r}")
    post = np.asarray(candidates[0], dtype=float)
    if post.size != spec.dim:
        raise DimensionMismatch(
            f"jump candidate has dimension {post.size}, expected {spec.dim}")
    _require_finite(post, "jump output")
    return post, len(candidates)


def apply_jump(spec: HybridSystemSpec, x: np.ndarray,
               event_tol: float = 1e-10) -> np.ndarray:
    """Apply the jump map at x, returning the selected post-state."""
    post, _ = _select_jump(spec, np.asarray(x, dtype=float), event_tol)
    return post


def simulate(spec: HybridSystemSpec, x0: np.ndarray, cfg: SimConfig) -> HybridArc:
    """Integrate the hybrid system from x0 over hybrid time.

    The run ends when flow time reaches ``cfg.t_max``, when one more jump
    would exceed ``cfg.j_max``, or at a dead end where the state can neither
    flow (the flow field exits the flow set immediately) nor jump.  All three
    are normal terminations, recorded on the arc.  A state outside both sets
    raises CoverageViolation.
    """
    x = np.array(x0, dtype=float).ravel()
    if x.size != spec.dim:
        raise DimensionMismatch(f"x0 has dimension {x.size}, expected {spec.dim}")
    _require_finite(x, "initial state")
    tol = cfg.event_tol
    stats = _new_stats()
    complementary = spec.complementary
    evals_per_state = 1 if complementary else 2

    def indicators(v: np.ndarray) -> tuple[float, float]:
        stats["indicator_evals"] += evals_per_state
        f = float(spec.in_flow_set(v))
        return f, (-f if complementary else float(spec.in_jump_set(v)))

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
    seg_t = [t]
    seg_x = [x.copy()]
    consecutive_jumps = 0
    zeno_warned = False
    flow_blocked = False
    termination = TERM_T_MAX

    def close_segment() -> None:
        segments.append(FlowSegment(j=j, ts=np.array(seg_t), xs=np.array(seg_x)))

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
            jumps.append(JumpEvent(t=t, j_pre=j, x_pre=x.copy(),
                                   x_post=x_post.copy(), n_candidates=n_cand))
            close_segment()
            j += 1
            x = x_post
            fi = ji = None
            seg_t = [t]
            seg_x = [x.copy()]
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
                x_new = np.asarray(x_proj, dtype=float)
                fi = ji = None
        x = x_new
        t = t_new
        seg_t.append(t)
        seg_x.append(x.copy())

    close_segment()
    return HybridArc(segments=segments, jumps=jumps, termination=termination,
                     stats=stats, notes=notes)
