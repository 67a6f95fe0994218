"""Synergistic switching feedback: quadruples, sets, and closed-loop assembly.

The central object bundles a family of Lyapunov-like functions V(x, theta)
indexed by a switching variable theta, the feedback kappa(x, theta), the
switching-variable flow varpi(x, theta), a finite candidate set Theta, and a
gap delta > 0.  Flow is allowed while V at the current theta is within delta
of the best candidate; once the excess reaches delta, theta jumps to a
minimizer, which drops V by at least delta.  Because V cannot increase along
flows and loses at least delta per jump, jumps are finite and chattering is
excluded by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .engine import HybridSystemSpec
from .errors import DimensionMismatch, SynconError

# Candidates whose V value is within TIE_TOL of the minimum count as tied;
# ties are broken by lowest index in Theta.
TIE_TOL = 1e-12

# Largest sampled directional derivative of V along flows that the audit
# still counts as a decrease (condition c3).
_C3_TOL = 1e-9


@dataclass
class SynergisticQuadruple:
    """Feedback family (V, kappa, varpi, Theta) with synergy gap delta.

    V        (x, theta) -> scalar, non-negative on its domain
    grad_V   (x, theta) -> (grad wrt x, grad wrt theta)
    kappa    (x, theta) -> input vector for the plant
    varpi    (x, theta) -> flow of the switching variable
    Theta    candidate switching values, shape (L, r), duplicate-free
    delta    synergy gap, > 0
    """

    V: Callable[[np.ndarray, np.ndarray], float]
    grad_V: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    kappa: Callable[[np.ndarray, np.ndarray], np.ndarray]
    varpi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    Theta: np.ndarray
    delta: float

    def __post_init__(self):
        theta = np.atleast_2d(np.asarray(self.Theta, dtype=float))
        if theta.shape[0] == 1 and theta.shape[1] > 1 and np.asarray(self.Theta).ndim == 1:
            # A flat list of scalars is a column of 1-d candidates.
            theta = theta.T
        if theta.size == 0:
            raise ValueError("Theta must contain at least one candidate")
        for a in range(theta.shape[0]):
            for b in range(a + 1, theta.shape[0]):
                if np.array_equal(theta[a], theta[b]):
                    raise ValueError(f"Theta contains duplicate candidates at {a} and {b}")
        self.Theta = theta
        if not (self.delta > 0.0 and np.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")

    @property
    def n_candidates(self) -> int:
        return self.Theta.shape[0]

    @property
    def dim_theta(self) -> int:
        return self.Theta.shape[1]


@dataclass
class AffinePlant:
    """Control-affine plant xdot = f(x) + g(x) u on an admissible set.

    f and g read x alone; a feedback that reads the switching variable
    enters through u.  safety_indicator, when present, is a signed distance
    to the boundary of the admissible state set: <= 0 means admissible.
    """

    dim_x: int
    dim_u: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    safety_indicator: Callable[[np.ndarray], float] | None = None


def _candidate_values(q: SynergisticQuadruple, x: np.ndarray) -> list[float]:
    """V(x, theta_bar) for every row of q.Theta, in Theta order."""
    return [q.V(x, cand) for cand in q.Theta]


def _tied(cands: Sequence[float]) -> list[int]:
    """Indices of the candidate values within TIE_TOL of their minimum, in
    order."""
    vmin = min(cands)
    return [i for i, v in enumerate(cands) if v - vmin <= TIE_TOL]


def v_excess(q: SynergisticQuadruple, x: np.ndarray, theta: np.ndarray) -> float:
    """How far V(x, theta) sits above the best candidate at x.

    Non-negative whenever theta itself belongs to Theta; the zero level says
    the current switching value is already optimal.
    """
    return q.V(x, theta) - min(_candidate_values(q, x))


def switch_candidates(q: SynergisticQuadruple, x: np.ndarray,
                      theta: np.ndarray) -> list[np.ndarray]:
    """All candidates within TIE_TOL of the minimum, in Theta order.

    The engine applies the first entry, so ties resolve to the lowest index.
    """
    return [q.Theta[i].copy() for i in _tied(_candidate_values(q, x))]


def switching_system(values, Theta: np.ndarray, gap: float, flow_map,
                     dim_x: int, project_flow=None) -> HybridSystemSpec:
    """The switching rule of every synergistic loop, over packed [x | theta].

    ``values(v)`` is the loop's potential at the packed state v, with x =
    v[:dim_x] and theta the rest: it returns (V(x, theta), [V(x, theta_bar)
    for each row theta_bar of Theta, in Theta order]).  Theta holds the
    candidates as rows, shape (L, r).  The loop flows while V(x, theta) is
    within ``gap`` of the best candidate and jumps otherwise, freezing x and
    moving theta to every candidate within TIE_TOL of the minimum, lowest
    index first.  The two indicators are exact negations of each other, so
    the spec is complementary.  ``flow_map`` is used as given.
    """
    n = dim_x
    Theta = np.asarray(Theta, dtype=float)

    def jump(v) -> list[np.ndarray]:
        x = v[:n]
        return [np.concatenate([x, Theta[i]]) for i in _tied(values(v)[1])]

    def in_flow_set(v) -> float:
        own, cands = values(v)
        return own - min(cands) - gap

    def in_jump_set(v) -> float:
        own, cands = values(v)
        return gap - (own - min(cands))

    return HybridSystemSpec(dim=n + Theta.shape[1], flow_map=flow_map,
                            jump_map=jump, in_flow_set=in_flow_set,
                            in_jump_set=in_jump_set,
                            project_flow=project_flow, complementary=True)


def assemble_closed_loop(plant: AffinePlant,
                         q: SynergisticQuadruple) -> HybridSystemSpec:
    """Wire a plant and a quadruple into a simulable hybrid system.

    State layout is [x | theta] with x of length plant.dim_x.  Flow applies
    kappa to the plant and varpi to the switching variable; jumps and the
    sets follow switching_system with gap q.delta, on a ``values`` that
    calls q.V once at the state's own theta and once per row of q.Theta.
    Output dimensions of kappa and varpi are checked on first use and raise
    DimensionMismatch.  Both read the list state as one ndarray for q's maps.
    """
    n = plant.dim_x
    r = q.dim_theta
    f, g, kappa, varpi = plant.f, plant.g, q.kappa, q.varpi
    checked = False

    def flow(v) -> np.ndarray:
        nonlocal checked
        v = np.asarray(v, dtype=float)
        x, th = v[:n], v[n:]
        u = np.asarray(kappa(x, th), dtype=float)
        w = np.asarray(varpi(x, th), dtype=float)
        if not checked:
            if u.size != plant.dim_u:
                raise DimensionMismatch(
                    f"kappa returned dimension {u.size}, plant expects {plant.dim_u}")
            if w.size != r:
                raise DimensionMismatch(
                    f"varpi returned dimension {w.size}, Theta has dimension {r}")
            checked = True
        xdot = np.asarray(f(x), dtype=float) + np.asarray(g(x), dtype=float) @ u
        return np.concatenate([xdot, w])

    def values(v):
        v = np.asarray(v, dtype=float)
        return q.V(v[:n], v[n:]), _candidate_values(q, v[:n])

    return switching_system(values, q.Theta, q.delta, flow, n)


def augmented_family(plant: AffinePlant, q: SynergisticQuadruple, extra: int,
                     applied: Callable[[np.ndarray], np.ndarray], V, grad_V,
                     kappa, delta: float
                     ) -> tuple[AffinePlant, SynergisticQuadruple]:
    """Lift (plant, q) by ``extra`` appended states z, each with its own input.

    The lifted plant lives on [x | z]: its drift is plant.f(x) + plant.g(x)
    applied([x | z]) with z held, its input matrix is the identity on z's
    rows, and its safety indicator is plant's, read on x.  The lifted family
    is (V, grad_V, kappa) over [x | z], with q's varpi read on x, a copy of
    q.Theta, and gap delta.  Smoothing (z = eta) and backstepping (z = [eta
    | u]) are each one call.
    """
    n = plant.dim_x
    f, g, safe = plant.f, plant.g, plant.safety_indicator
    held = np.zeros(extra)

    def f_aug(xz: np.ndarray) -> np.ndarray:
        x = xz[:n]
        xdot = (np.asarray(f(x), dtype=float)
                + np.asarray(g(x), dtype=float) @ applied(xz))
        return np.concatenate([xdot, held])

    lifted = AffinePlant(
        dim_x=n + extra, dim_u=extra, f=f_aug,
        g=lambda xz: np.eye(n + extra, extra, -n),
        safety_indicator=None if safe is None else lambda xz: safe(xz[:n]))
    return lifted, SynergisticQuadruple(
        V=V, grad_V=grad_V, kappa=kappa,
        varpi=lambda xz, theta: q.varpi(xz[:n], theta),
        Theta=q.Theta.copy(), delta=delta)


def latin_hypercube(rng: np.random.Generator, n: int, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """n stratified draws in the box [lo, hi], one stratum per row and axis."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    strata = np.tile(np.arange(n, dtype=float), (d, 1))
    strata = rng.permuted(strata, axis=1).T
    u = (strata + rng.random((n, d))) / n
    return lo + u * (hi - lo)


@dataclass
class AuditReport:
    """Sampled evidence for the quadruple conditions.

    Decrease along flows (c3) and the gap at supplied critical states (c4)
    are checked directly.  Non-negativity of V (c2) is spot-checked at the
    sampled states.  Radial growth of V (c1) is probed along a handful of
    rays; that probe is a heuristic indicator, not a verification, and is
    reported in the notes without gating ``passed``.
    """

    c3_worst: float
    c3_pass: bool
    c4_margin: float
    c4_pass: bool
    v_min: float
    c2_pass: bool
    c1_rays_checked: int
    c1_rays_growing: int
    n_states_checked: int
    argmin_ties: int
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.c2_pass and self.c3_pass and self.c4_pass

    def lines(self) -> list[str]:
        def mark(ok: bool) -> str:
            return "PASS" if ok else "FAIL"

        out = [
            f"[{mark(self.c3_pass)}] decrease along flows: worst directional "
            f"derivative {self.c3_worst:.6g} over {self.n_states_checked} states",
            f"[{mark(self.c4_pass)}] gap at critical states: min excess minus "
            f"delta = {self.c4_margin:.6g}",
            f"[{mark(self.c2_pass)}] non-negativity: min sampled V = {self.v_min:.6g}",
            f"[note] radial growth probe (heuristic): {self.c1_rays_growing}/"
            f"{self.c1_rays_checked} rays increasing",
            f"[note] argmin ties observed: {self.argmin_ties}",
        ]
        out.extend(f"[note] {n}" for n in self.notes)
        return out


def _directional_derivative(plant: AffinePlant, q: SynergisticQuadruple,
                            x: np.ndarray, theta: np.ndarray) -> float:
    gx, gth = q.grad_V(x, theta)
    u = np.asarray(q.kappa(x, theta), dtype=float)
    xdot = (np.asarray(plant.f(x), dtype=float)
            + np.asarray(plant.g(x), dtype=float) @ u)
    w = np.asarray(q.varpi(x, theta), dtype=float)
    return float(np.dot(np.asarray(gx, float).ravel(), xdot.ravel())
                 + np.dot(np.asarray(gth, float).ravel(), w.ravel()))


def audit_quadruple(plant: AffinePlant, q: SynergisticQuadruple,
                    sample_states: Sequence[tuple[np.ndarray, np.ndarray]],
                    critical_states: Sequence[tuple[np.ndarray, np.ndarray]],
                    box: tuple[np.ndarray, np.ndarray] | None = None,
                    n_samples: int = 0,
                    seed: int = 0) -> AuditReport:
    """Sample the quadruple conditions and report margins.

    ``sample_states`` are explicit (x, theta) pairs; ``box`` adds ``n_samples``
    Latin-hypercube draws over the packed [x | theta] space, seeded for
    reproducibility.  Draws outside the plant's admissible set (positive
    safety indicator) are skipped.  ``critical_states`` should hold the
    undesired critical points; the gap check requires their excess to clear
    delta strictly.
    """
    n = plant.dim_x
    states = [(np.asarray(x, float), np.atleast_1d(np.asarray(th, float)))
              for x, th in sample_states]
    skipped = 0
    if box is not None and n_samples > 0:
        rng = np.random.default_rng(seed)
        lo, hi = (np.asarray(b, dtype=float) for b in box)
        for row in latin_hypercube(rng, n_samples, lo, hi):
            x, th = row[:n], row[n:]
            if plant.safety_indicator is not None and plant.safety_indicator(x) > 0.0:
                skipped += 1
                continue
            states.append((x, th))

    c3_worst = -np.inf
    v_min = np.inf
    ties = 0
    for x, th in states:
        c3_worst = max(c3_worst, _directional_derivative(plant, q, x, th))
        v_min = min(v_min, float(q.V(x, th)))
        if len(switch_candidates(q, x, th)) > 1:
            ties += 1

    c4_margin = np.inf
    for x, th in critical_states:
        x = np.asarray(x, float)
        th = np.atleast_1d(np.asarray(th, float))
        c4_margin = min(c4_margin, v_excess(q, x, th) - q.delta)

    # Radial growth probe: V should grow along rays leaving the first
    # critical state (or the origin-like mean of the samples).
    rng = np.random.default_rng(seed + 1)
    if critical_states:
        base = np.concatenate([np.asarray(critical_states[0][0], float).ravel(),
                               np.atleast_1d(np.asarray(critical_states[0][1], float))])
    elif states:
        base = np.concatenate([states[0][0], states[0][1]])
    else:
        base = np.zeros(n + q.dim_theta)
    rays_checked = 0
    rays_growing = 0
    for _ in range(8):
        direction = rng.standard_normal(base.size)
        direction /= np.linalg.norm(direction)
        values = []
        for radius in (1.0, 2.0, 4.0, 8.0):
            pt = base + radius * direction
            x, th = pt[:n], pt[n:]
            if plant.safety_indicator is not None and plant.safety_indicator(x) > 0.0:
                break
            try:
                values.append(float(q.V(x, th)))
            except SynconError:
                break
        if len(values) == 4:
            rays_checked += 1
            if values[-1] > values[0]:
                rays_growing += 1

    notes = []
    if skipped:
        notes.append(f"{skipped} box draws outside the admissible set were skipped")

    return AuditReport(
        c3_worst=float(c3_worst),
        c3_pass=bool(c3_worst <= _C3_TOL),
        c4_margin=float(c4_margin),
        c4_pass=bool(c4_margin > 0.0),
        v_min=float(v_min) if states else float("nan"),
        c2_pass=bool(not states or v_min >= -1e-12),
        c1_rays_checked=rays_checked,
        c1_rays_growing=rays_growing,
        n_states_checked=len(states),
        argmin_ties=ties,
        notes=notes,
    )
