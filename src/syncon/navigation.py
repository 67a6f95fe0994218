"""Planar obstacle avoidance with a rotation-indexed potential family.

A disc obstacle of radius r_o sits between the start and the destination
p_d.  The base potential combines a quadratic pull toward p_d with a
repulsive skirt that activates within distance r_s of the disc,

    V_nav(p) = ||p - p_d||^2 / 2 + varrho phi(d_o(p)),

with d_o(p) = ||p - p_o|| - r_o and phi(z) = (z - r_s)^2 ln(r_s / z) on
(0, r_s], zero beyond.  phi and its first two derivatives vanish at r_s, so
V_nav is twice continuously differentiable in the free space, but it keeps a
saddle point behind the obstacle where attraction and repulsion balance.

The switched family rotates the pull around the obstacle by a logic angle,

    V(p, theta) = ||T(p, theta) - p_d||^2 / 2 + varrho phi(d_o(p))
                  + gamma_theta theta^2 / 2,
    T(p, theta) = p_o + R(theta) (p - p_o),

and a candidate set Theta of nonzero angles lets the supervisor jump away
from the saddle: at the saddle of V_nav the rotated members are lower by a
computable margin, so a synergy gap delta below that margin makes the family
synergistic and destroys the stuck point.

Closed loops come in four flavors, each returned as a ready-to-simulate
HybridSystemSpec:

    hybrid_closed_loop     p controlled directly, switched feedback
    smooth_closed_loop     feedback routed through a tracker, continuous input
    backstep_closed_loop   tracker plus an actuator integrator
    gradient_closed_loop   plain gradient descent on V_nav, never switches

Each navigation formula is stated once on the run path, as a text fragment
of straight-line float code (under "closed loops" below).  _switched_text
gathers a switched loop's pieces the way the paper layers them: the
smoothed loop is the hybrid loop plus the tracker eta, the backstepped loop
the smoothed loop plus the actuator integrator u; each layer's bounds and
gap are stated once, in layer_checks and loop_gap.  The pieces compile
three ways, each with the loop's float constants written in as literals
(engine.literal_source), each map running only the pieces it reads
(_LoopText): the flow's into the flow map and its inlined RK4 step
(engine.compile_flow); V's into the switching kernel in_flow_set,
straight-line code with no loop over Theta (_kernel_code); and V's with the
applied input's into the harness's per-sample channels, run once over the
numpy columns of a stack of states through one array rule (loop_channels,
_array_code).
The float helpers (switched_potential, switched_gradient_p/theta,
nav_gradient, nav_hessian, switch_offset, switch_offset_rate,
tracked_input), small scalar kernels behind nominal_controller,
decomposed_feedback, find_critical_point and the harness's checks, are the
tests' independent statement of each formula.  All give the same bits,
which tests/test_navigation.py pins with == (test_fused_kernels_equal_the_
scalar_helpers, test_channels_at_the_skirt_edge_equal_the_scalar_helpers).
The generic compositions (assemble_closed_loop over nominal_controller,
smoothed_quadruple and backstepped_quadruple) give the same flows at many
times the cost, so they serve as the tests' reference.
"""

from __future__ import annotations

import functools
import math
import re
import textwrap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backstepping import BacksteppingParams, validate_backstepping_params
from .engine import (
    HybridSystemSpec,
    compile_flow,
    compile_source,
    float_field,
    literal_source,
)
from .errors import (
    DimensionMismatch,
    GainValidation,
    NonPositiveDistance,
    NoRootBracketed,
    OutsideFreeSpace,
)
from .smoothing import (
    DecomposedFeedback,
    SmoothedParams,
    validate_smoothed_params,
)
from .synergy import AffinePlant, SynergisticQuadruple, switching_system

_Z_MIN = 1e-12
_SHELL_TOL = 1e-9
_PI_SQ = math.pi * math.pi


@dataclass(frozen=True)
class NavigationWorld:
    """Obstacle disc, safety shell, skirt width, and destination.

    The destination must lie outside the skirt, ||p_d - p_o|| > r_o + r_s,
    so the potential is exactly quadratic near it, and at a finite distance
    (a gain ceiling that overflows is reported by the validator that reads
    it); the safety margin epsilon must leave room inside the skirt,
    0 < epsilon < r_s.  The radii and varrho are stored as Python floats.
    """

    p_o: np.ndarray
    r_o: float
    epsilon: float
    p_d: np.ndarray
    r_s: float
    varrho: float

    def __post_init__(self):
        for name in ("r_o", "epsilon", "r_s", "varrho"):
            object.__setattr__(self, name, float_field(name, getattr(self, name)))
        object.__setattr__(self, "p_o", np.asarray(self.p_o, dtype=float).reshape(2))
        object.__setattr__(self, "p_d", np.asarray(self.p_d, dtype=float).reshape(2))
        # Plain-float copies of p_o, p_d and p_o - p_d for the scalar kernels.
        pox, poy = self.p_o.tolist()
        pdx, pdy = self.p_d.tolist()
        object.__setattr__(self, "_po", (pox, poy))
        object.__setattr__(self, "_pd", (pdx, pdy))
        object.__setattr__(self, "_q", (pox - pdx, poy - pdy))
        if not (self.r_o > 0.0 and math.isfinite(self.r_o)):
            raise ValueError(f"r_o must be positive, got {self.r_o}")
        if not (self.varrho > 0.0 and math.isfinite(self.varrho)):
            raise ValueError(f"varrho must be positive, got {self.varrho}")
        if not (0.0 < self.epsilon < self.r_s):
            raise ValueError(
                f"epsilon must satisfy 0 < epsilon < r_s, got epsilon = "
                f"{self.epsilon}, r_s = {self.r_s}")
        span = self.dest_range
        if not math.isfinite(span):
            raise ValueError(f"||p_d - p_o|| must be finite, got {span}")
        if not span > self.r_o + self.r_s:
            raise ValueError(
                f"destination must clear the skirt: ||p_d - p_o|| = "
                f"{span:.6g} must exceed r_o + r_s = "
                f"{self.r_o + self.r_s:.6g}")

    @property
    def dest_range(self) -> float:
        """Distance from the obstacle center to the destination."""
        return math.hypot(*self._q)


@dataclass(frozen=True)
class NavGains:
    """Feedback gains and switching parameters for the rotated family; the
    scalars are stored as Python floats, the candidates as a float array."""

    k_p: float
    k_theta: float
    gamma_theta: float
    theta_candidates: np.ndarray
    delta: float

    def __post_init__(self):
        for name in ("k_p", "k_theta", "gamma_theta", "delta"):
            object.__setattr__(self, name, float_field(name, getattr(self, name)))
        cand = np.atleast_1d(np.asarray(self.theta_candidates, dtype=float))
        if cand.ndim != 1 or cand.size == 0:
            raise ValueError("theta_candidates must be a nonempty 1-d sequence")
        if len(set(cand.tolist())) != cand.size:
            raise ValueError(f"candidate angles must be distinct, got {cand.tolist()}")
        object.__setattr__(self, "theta_candidates", cand)

    @property
    def theta_mag_min(self) -> float:
        return float(np.min(np.abs(self.theta_candidates)))

    @property
    def theta_mag_max(self) -> float:
        return float(np.max(np.abs(self.theta_candidates)))


def rotation_rate_bound(world: NavigationWorld) -> float:
    """Upper limit 4 r_o ||p_d - p_o|| / pi^2 on the angle penalty weight."""
    return 4.0 * world.r_o * world.dest_range / _PI_SQ


def max_synergy_gap(world: NavigationWorld, gains: NavGains) -> float:
    """Largest admissible gap for the candidate set.

    (2 r_o ||p_d - p_o|| / pi^2 - gamma_theta / 2) min |theta_bar|^2; the
    smallest candidate angle is the binding one because the margin the
    rotation buys at the saddle shrinks quadratically with the angle.
    """
    coeff = 2.0 * world.r_o * world.dest_range / _PI_SQ - 0.5 * gains.gamma_theta
    return coeff * gains.theta_mag_min ** 2


def switch_offset_bound(world: NavigationWorld, gains: NavGains) -> float:
    """Half the worst squared offset spread between rest and a candidate.

    ||sigma(theta) - sigma(theta_bar)||^2 = 2 (1 - cos(theta - theta_bar))
    ||p_d - p_o||^2, so switches between the settled angle 0 and the largest
    candidate give (1 - cos max|theta_bar|) ||p_d - p_o||^2.
    """
    d = world.dest_range
    return (1.0 - math.cos(gains.theta_mag_max)) * d * d


def validate_gains(world: NavigationWorld, gains: NavGains) -> None:
    """Check every gain bound at once; raises GainValidation listing failures."""
    problems = []
    if not gains.k_p > 0.0:
        problems.append(f"k_p = {gains.k_p:.6g} must be positive")
    if not gains.k_theta > 0.0:
        problems.append(f"k_theta = {gains.k_theta:.6g} must be positive")
    gt_max = rotation_rate_bound(world)
    if not math.isfinite(gt_max):
        problems.append(f"4*r_o*||p_d - p_o||/pi^2 = {gt_max:.6g} must be "
                        f"finite to bound gamma_theta and delta")
    elif not 0.0 < gains.gamma_theta < gt_max:
        problems.append(
            f"gamma_theta = {gains.gamma_theta:.6g} must lie in (0, "
            f"4*r_o*||p_d - p_o||/pi^2 = {gt_max:.6g})")
    bad_angles = [tb for tb in gains.theta_candidates
                  if not 0.0 < abs(tb) < math.pi]
    for tb in bad_angles:
        problems.append(
            f"candidate angle {tb:.6g} must have magnitude in (0, pi)")
    if not gains.delta > 0.0:
        problems.append(f"delta = {gains.delta:.6g} must be positive")
    elif 0.0 < gains.gamma_theta < gt_max < math.inf and not bad_angles:
        gap = max_synergy_gap(world, gains)  # finite: < 2*r_o*||p_d - p_o||
        if gains.delta > gap:
            problems.append(
                f"delta = {gains.delta:.6g} must not exceed "
                f"(2*r_o*||p_d - p_o||/pi^2 - gamma_theta/2)"
                f"*min|theta_bar|^2 = {gap:.6g}")
    if problems:
        raise GainValidation("; ".join(problems))


def layer_checks(world: NavigationWorld, gains: NavGains,
                 sp: SmoothedParams | None, bp: BacksteppingParams | None):
    """The bound checks of the layers ``sp`` and ``bp`` select, in order,
    each a callable raising a SynconError that joins its broken bounds with
    "; ": validate_gains; with a tracker, validate_smoothed_params at c_kappa
    = switch_offset_bound; with an integrator too, validate_backstepping_params
    if c_kappa is finite (validate_smoothed_params names one that is not)."""
    yield functools.partial(validate_gains, world, gains)
    if sp is None:
        return
    c_kappa = switch_offset_bound(world, gains)
    yield functools.partial(validate_smoothed_params, gains.delta, c_kappa, sp)
    if bp is not None and math.isfinite(c_kappa):
        yield functools.partial(validate_backstepping_params, gains.delta,
                                c_kappa, sp, bp)


def loop_gap(gains: NavGains, sp: SmoothedParams | None,
             bp: BacksteppingParams | None) -> float:
    """The gap of the switched loop the layers ``sp`` and ``bp`` select:
    delta_b with an integrator, delta_s with a tracker alone, else delta."""
    if bp is not None:
        return bp.delta_b
    if sp is not None:
        return sp.delta_s
    return gains.delta


# -- repulsive skirt ---------------------------------------------------------

def _phi(z: float, r_s: float) -> float:
    if z >= r_s:
        return 0.0
    d = z - r_s
    return d * d * math.log(r_s / z)


def _dphi(z: float, r_s: float) -> float:
    if z >= r_s:
        return 0.0
    d = z - r_s
    return 2.0 * d * math.log(r_s / z) - d * d / z


def _d2phi(z: float, r_s: float) -> float:
    if z >= r_s:
        return 0.0
    d = z - r_s
    return 2.0 * math.log(r_s / z) - 4.0 * d / z + d * d / (z * z)


def _check_z(z: float) -> None:
    if not z > _Z_MIN:
        raise NonPositiveDistance(
            f"distance to the obstacle boundary must be positive, got {z:.6g}")


# -- base potential ----------------------------------------------------------
#
# The potentials and gradients are written once, as scalar kernels over
# Python floats (the underscored functions below).  The public helpers
# unpack their arguments and call them; the loops' fragments further down
# repeat their order of operations inline.

def obstacle_distance(world: NavigationWorld, p: np.ndarray) -> float:
    """Signed clearance ||p - p_o|| - r_o (negative inside the disc)."""
    p = np.asarray(p, dtype=float)
    return math.hypot(p[0] - world.p_o[0], p[1] - world.p_o[1]) - world.r_o


def _require_free(world: NavigationWorld, z: float) -> None:
    _check_z(z)
    if z < world.epsilon - _SHELL_TOL:
        raise OutsideFreeSpace(
            f"point is {z:.6g} from the obstacle, inside the safety margin "
            f"epsilon = {world.epsilon:.6g}")


def _xy(p) -> tuple[float, float]:
    return float(p[0]), float(p[1])


def _radial(world: NavigationWorld, px: float, py: float, check: bool = False):
    """(wx, wy, rho, z): p - p_o, its length and the clearance rho - r_o.

    Raises NonPositiveDistance unless z > 1e-12, and with ``check`` also
    OutsideFreeSpace inside the safety margin.
    """
    pox, poy = world._po
    wx = px - pox
    wy = py - poy
    rho = math.hypot(wx, wy)
    z = rho - world.r_o
    _require_free(world, z) if check else _check_z(z)
    return wx, wy, rho, z


def _grad(world: NavigationWorld, px: float, py: float, wx: float, wy: float,
          rho: float, z: float):
    """(gx, gy, a): grad V_nav(p) and its skirt weight a = varrho phi'(z)/rho."""
    pdx, pdy = world._pd
    a = world.varrho * _dphi(z, world.r_s) / rho
    return px - pdx + a * wx, py - pdy + a * wy, a


def nav_gradient(world: NavigationWorld, p: np.ndarray, check: bool = True) -> np.ndarray:
    px, py = _xy(p)
    gx, gy, _ = _grad(world, px, py, *_radial(world, px, py, check))
    return np.array([gx, gy])


def nav_hessian(world: NavigationWorld, p: np.ndarray, check: bool = True) -> np.ndarray:
    """Second derivative I + varrho (phi'' n n^T + (phi'/rho)(I - n n^T))."""
    px, py = _xy(p)
    wx, wy, rho, z = _radial(world, px, py, check)
    _, _, a = _grad(world, px, py, wx, wy, rho, z)
    # I + a I + b n n^T, with n = (p - p_o)/rho
    b = world.varrho * _d2phi(z, world.r_s) - a
    nx = wx / rho
    ny = wy / rho
    return np.array([
        [1.0 + a + b * nx * nx, b * nx * ny],
        [b * nx * ny, 1.0 + a + b * ny * ny],
    ])


# -- rotated family ----------------------------------------------------------

def _offset(world: NavigationWorld, c: float, s: float):
    """(sx, sy, rx, ry): the offset sigma(theta) and its theta-derivative,
    from c = cos(theta) and s = sin(theta)."""
    qx, qy = world._q
    return (qx - (c * qx + s * qy), qy - (c * qy - s * qx),
            s * qx - c * qy, c * qx + s * qy)


def _angle_terms(world: NavigationWorld, gains: NavGains, th: float):
    """The part of a loop's V fixed by the logic angle th: (c, s, pen, sx,
    sy) with c = cos th, s = sin th, the penalty gamma_theta th^2/2 and the
    offset sigma(th)."""
    c = math.cos(th)
    s = math.sin(th)
    sx, sy, _, _ = _offset(world, c, s)
    return c, s, 0.5 * gains.gamma_theta * th * th, sx, sy


def switched_potential(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                       theta: float, check: bool = True) -> float:
    """Rotated pull plus skirt plus angle penalty, V(p, theta)."""
    px, py = _xy(p)
    wx, wy, _, z = _radial(world, px, py, check)
    c, s, pen, _, _ = _angle_terms(world, gains, float(theta))
    pox, poy = world._po
    pdx, pdy = world._pd
    ex = pox + c * wx - s * wy - pdx  # T(p, theta) - p_d
    ey = poy + s * wx + c * wy - pdy
    return 0.5 * (ex * ex + ey * ey) + world.varrho * _phi(z, world.r_s) + pen


def tracked_input(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                  eta: np.ndarray) -> np.ndarray:
    """Applied input k_p (eta - grad V_nav(p)) of the tracker-mediated loops."""
    px, py = _xy(p)
    gx, gy, _ = _grad(world, px, py, *_radial(world, px, py))
    eta1, eta2 = _xy(eta)
    return np.array([gains.k_p * (eta1 - gx), gains.k_p * (eta2 - gy)])


def switched_gradient_p(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                        theta: float, check: bool = True) -> np.ndarray:
    """p-gradient of the rotated potential: nav gradient minus the offset."""
    px, py = _xy(p)
    gx, gy, _ = _grad(world, px, py, *_radial(world, px, py, check))
    sx, sy, _, _ = _offset(world, math.cos(theta), math.sin(theta))
    return np.array([gx - sx, gy - sy])


def switched_gradient_theta(world: NavigationWorld, gains: NavGains,
                            p: np.ndarray, theta: float) -> float:
    """theta-derivative of the rotated potential."""
    px, py = _xy(p)
    pox, poy = world._po
    _, _, rx, ry = _offset(world, math.cos(theta), math.sin(theta))
    return gains.gamma_theta * float(theta) - ((px - pox) * rx + (py - poy) * ry)


def switch_offset(world: NavigationWorld, theta: float) -> np.ndarray:
    """Input offset (I - R(theta)^T)(p_o - p_d) the rotation induces.

    Vanishes at theta = 0, so the switched feedback reduces to the plain
    descent direction when the logic angle has settled.
    """
    return np.array(_offset(world, math.cos(theta), math.sin(theta))[:2])


def switch_offset_rate(world: NavigationWorld, theta: float) -> np.ndarray:
    """Derivative of the offset in theta."""
    return np.array(_offset(world, math.cos(theta), math.sin(theta))[2:])


# -- critical point ----------------------------------------------------------

def find_critical_point(world: NavigationWorld) -> np.ndarray:
    """Locate the saddle of the base potential behind the obstacle.

    On the ray from the destination through the obstacle center, at distance
    r_o + z beyond the center, the gradient reduces to the scalar balance

        h(z) = ||p_o - p_d|| + r_o + z + varrho phi'(z),

    which is -inf as z -> 0 and positive at r_s, so the saddle clearance is
    the root of h.  Bisection brackets it to 1e-12 inside (epsilon, r_s), or
to adjacent floats where those are wider (z* of 8192 and beyond);
    a few Newton steps on the full gradient then polish the point.  Raises
    NoRootBracketed when the skirt is too weak to balance the pull inside
    the bracket (no stuck point in the guaranteed free space).
    """
    d = world.dest_range
    varrho = world.varrho
    r_s = world.r_s

    def h(z: float) -> float:
        return d + world.r_o + z + varrho * _dphi(z, r_s)

    lo = world.epsilon
    hi = r_s * (1.0 - 1e-9)
    if not h(lo) < 0.0 < h(hi):
        raise NoRootBracketed(
            f"h(z) = ||p_o - p_d|| + r_o + z + varrho*phi'(z) does not change "
            f"sign on ({lo:.6g}, {hi:.6g}); no balance point in the shell")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats: a wide skirt
            break
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    z_star = 0.5 * (lo + hi)

    u = (world.p_o - world.p_d) / d
    p_star = world.p_o + (world.r_o + z_star) * u
    p_try = p_star.copy()
    for _ in range(5):
        g = nav_gradient(world, p_try, check=False)
        step = np.linalg.solve(nav_hessian(world, p_try, check=False), g)
        p_try = p_try - step
    z_try = obstacle_distance(world, p_try)
    if (world.epsilon < z_try < world.r_s
            and np.linalg.norm(nav_gradient(world, p_try, check=False))
            <= np.linalg.norm(nav_gradient(world, p_star, check=False))):
        p_star = p_try
    return p_star


# -- safety shell ------------------------------------------------------------

def shell_projection(world: NavigationWorld):
    """Projection onto clearance >= epsilon for use as an engine flow hook.

    Acts on any packed state, a list of floats or a float ndarray, whose
    first two entries are the position; points that dip inside the margin are
    pushed radially back onto it, in a new list.  A point outside the margin
    comes back as the same object.
    """
    r_min = (world.r_o + world.epsilon) * (1.0 + 1e-12)
    pox, poy = world._po

    def project(v):
        wx = v[0] - pox
        wy = v[1] - poy
        rho = math.hypot(wx, wy)
        if rho >= r_min:
            return v
        out = list(v)
        if rho <= _Z_MIN:
            out[:2] = pox + r_min, poy
        else:
            f = r_min / rho
            out[:2] = pox + f * wx, poy + f * wy
        return out

    return project


# -- controller constructions ------------------------------------------------

def nominal_controller(world: NavigationWorld,
                       gains: NavGains) -> tuple[AffinePlant, SynergisticQuadruple]:
    """Single integrator plant with the switched family and its feedback."""
    validate_gains(world, gains)
    k_p = gains.k_p
    k_theta = gains.k_theta

    plant = AffinePlant(
        dim_x=2, dim_u=2,
        f=lambda x: np.zeros(2),
        g=lambda x: np.eye(2),
        safety_indicator=lambda x: world.epsilon - obstacle_distance(world, x),
    )

    def V(x, th):
        return switched_potential(world, gains, x, float(th[0]), check=False)

    def grad_V(x, th):
        gp = switched_gradient_p(world, gains, x, float(th[0]), check=False)
        gt = switched_gradient_theta(world, gains, x, float(th[0]))
        return gp, np.array([gt])

    def kappa(x, th):
        return -k_p * switched_gradient_p(world, gains, x, float(th[0]),
                                          check=False)

    def varpi(x, th):
        return np.array([-k_theta * switched_gradient_theta(world, gains, x,
                                                            float(th[0]))])

    q = SynergisticQuadruple(
        V=V, grad_V=grad_V, kappa=kappa, varpi=varpi,
        Theta=gains.theta_candidates.reshape(-1, 1).copy(),
        delta=gains.delta,
    )
    return plant, q


def decomposed_feedback(world: NavigationWorld, gains: NavGains) -> DecomposedFeedback:
    """Split the switched feedback into state part plus mixed offset.

    kappa = varsigma(x) + Upsilon sigma(theta) with varsigma the plain
    descent input, Upsilon = k_p I, and sigma the rotation-induced offset.
    """
    k_p = gains.k_p
    return DecomposedFeedback(
        sigma=lambda x, th: switch_offset(world, float(th[0])),
        varsigma=lambda x: -k_p * nav_gradient(world, x, check=False),
        upsilon=lambda x: k_p * np.eye(2),
        dim_tracker=2,
        c_kappa=switch_offset_bound(world, gains),
        d_sigma_dx=lambda x, th: np.zeros((2, 2)),
        d_sigma_dtheta=lambda x, th: switch_offset_rate(
            world, float(th[0])).reshape(2, 1),
        d_varsigma_dx=lambda x: -k_p * nav_hessian(world, x, check=False),
    )


# -- closed loops ------------------------------------------------------------
#
# No fragment assigns a constant's name (engine.literal_source).  They read
# the paper's gains by name (-k_p, 0.5 * gamma_s, k_p / gamma_s): the
# compiler folds an operation on two literals into the bits it gives at run
# time.  They repeat the scalar kernels' order of operations, signed zeros
# included: outside the skirt the weight a is 0.0, the +0.0 that _grad's
# varrho*0.0/rho gives there, as varrho > 0 and rho > r_o.  A world
# coordinate is subtracted as a whole term after a name (py - poy, px - pdx
# + a * wx, the tails - pdx and - pdy of ex and ey), so where it is +0.0
# (p_d at the origin, p_o on an axis, as in every shipped world) the rule
# drops the term, with the same bits, as x - (+0.0) is x.  A zero
# coordinate added or on the left of a minus stays, as in poy + s * wx and
# qy - (c * qy - s * qx): +0.0 + y is +0.0, not y, at y = -0.0, and
# +0.0 - y is +0.0, not -y, at y = +0.0.

# p - p_o, rho and the clearance z (_radial); grad V_nav(p) = (gx, gy) with
# the skirt weight a (_grad); the skirt term vphi = varrho phi(z) of V.
_RADIAL = """\
wx = px - pox
wy = py - poy
rho = hypot(wx, wy)
z = rho - r_o
if not z > _Z_MIN:
    _check_z(z)
"""

_GRADIENT = """\
if z < r_s:
    d = z - r_s
    lg = log(r_s / z)
    a = varrho * (2.0 * d * lg - d * d / z) / rho
else:
    a = 0.0
gx = px - pdx + a * wx
gy = py - pdy + a * wy
"""

_SKIRT = """\
if z < r_s:
    d = z - r_s
    lg = log(r_s / z)
    vphi = varrho * (d * d * lg)
else:
    vphi = varrho * 0.0
"""

# cos and sin of the logic angle th; the offset sigma = (sx, sy) (_offset);
# its theta-derivative (rx, ry) and the angle rate dth.
_ANGLE = """\
c = cos(th)
s = sin(th)
"""

_OFFSET = """\
ry = c * qx + s * qy
sx = qx - ry
sy = qy - (c * qy - s * qx)
"""

_ROTATION_FLOW = """\
rx = s * qx - c * qy
dth = -k_theta * (gamma_theta * th - (wx * rx + wy * ry))
"""

# The hybrid loop's input -k_p (g - sigma).
_HYBRID_FLOW = """\
dpx = -k_p * (gx - sx)
dpy = -k_p * (gy - sy)
"""

# The tracker's flow; the tracked input r = k_p (eta - g), the smoothed
# loop's applied input and the backstepped loop's reference.
_TRACKER_FLOW = """\
deta1 = -k_eta * (eta1 - sx) + rx * dth - k_p / gamma_s * (gx - sx)
deta2 = -k_eta * (eta2 - sy) + ry * dth - k_p / gamma_s * (gy - sy)
"""

_TRACKED = """\
r1 = k_p * (eta1 - gx)
r2 = k_p * (eta2 - gy)
"""

# The integrator's flow, with H u for H = I + a I + b n n^T (nav_hessian),
# written radially.
_INTEGRATOR_FLOW = """\
if z < r_s:
    b = varrho * (2.0 * lg - 4.0 * d / z + d * d / (z * z)) - a
else:
    b = varrho * 0.0 - a
nx = wx / rho
ny = wy / rho
ndotu = nx * u1 + ny * u2
Hu1 = (1.0 + a) * u1 + b * ndotu * nx
Hu2 = (1.0 + a) * u2 + b * ndotu * ny
du1 = -k_b * (u1 - r1) + (k_p * deta1 - k_p * Hu1) - (gx - sx) / gamma_b
du2 = -k_b * (u2 - r2) + (k_p * deta2 - k_p * Hu2) - (gy - sy) / gamma_b
"""

# V's terms: the integrator's (gamma_b/2)||u - r||^2 and the penalty; at the
# angle terms (c, s, pen, sx, sy), the rotated pull, skirt and penalty, and
# the tracker's term; the gradient loop's V_nav(p).
_FOLLOWING = """\
f1 = u1 - r1
f2 = u2 - r2
integ = 0.5 * gamma_b * (f1 * f1 + f2 * f2)
"""

_PENALTY = "pen = 0.5 * gamma_theta * th * th\n"

_VALUE = """\
ex = pox + c * wx - s * wy - pdx
ey = poy + s * wx + c * wy - pdy
V = 0.5 * (ex * ex + ey * ey) + vphi + pen
"""

_TRACKER_VALUE = """\
e1 = eta1 - sx
e2 = eta2 - sy
V = V + 0.5 * gamma_s * (e1 * e1 + e2 * e2)
"""

_NAV_VALUE = """\
ex = px - pdx
ey = py - pdy
V = 0.5 * (ex * ex + ey * ey) + vphi
"""

_KERNEL = """\
def in_flow_set(v, out=None):
    [{state}] = v
{body}    if out is not None:
        out.extend(({values},))
    return V - best - gap
"""


class _LoopText(NamedTuple):
    """A loop's pieces: the names its fragments read, its state names, its
    flow fragments and rates, which the flow map reads; the fragments of V's
    terms free of the candidates (``body``) and of V at an angle
    (``value``), and the candidates' angle terms (_angle_terms), which the
    kernel reads; and the fragments that the applied input, p's rate
    (``rates[:2]``), needs beyond V's (``applied``), which the channels
    read after V's."""

    consts: dict
    state: tuple[str, ...]
    flow: tuple[str, ...]
    rates: tuple[str, ...]
    body: tuple[str, ...]
    value: str
    terms: tuple[tuple[float, ...], ...]
    applied: tuple[str, ...]


def _value_code(loop: _LoopText) -> str:
    """V's text: the body and V at the own angle, then, for a switched loop,
    each candidate's V_k, ``value`` with candidate k's angle terms written in
    as literals (literal_source) and V renamed V_k, with best the least
    V_k so far; the first of equal values is the least, as with min."""
    text = "".join(loop.body) + loop.value
    for k, at in enumerate(loop.terms):
        text += re.sub(r"\bV\b", f"V_{k}", literal_source(
            loop.value, dict(zip(("c", "s", "pen", "sx", "sy"), at))))
        text += f"if V_{k} < best:\n    best = V_{k}\n" if k else "best = V_0\n"
    return text


def _kernel_code(loop: _LoopText) -> str:
    """The source of a switched loop's in_flow_set(v, out=None): V at the
    own angle, less the least candidate V (_value_code), less ``gap``; it
    extends a list ``out`` by the candidates' V in Theta order."""
    return _KERNEL.format(
        state=", ".join(loop.state),
        body=textwrap.indent(_value_code(loop), "    "),
        values=", ".join(f"V_{k}" for k in range(len(loop.terms))))


def _flow_constants(world: NavigationWorld, gains: NavGains) -> dict:
    """The names the fragments read: the world and gain constants, the math
    functions and the clearance guard."""
    (pox, poy), (pdx, pdy), (qx, qy) = world._po, world._pd, world._q
    return dict(pox=pox, poy=poy, pdx=pdx, pdy=pdy, qx=qx, qy=qy,
                r_o=world.r_o, r_s=world.r_s, varrho=world.varrho,
                k_p=gains.k_p, k_theta=gains.k_theta,
                gamma_theta=gains.gamma_theta, hypot=math.hypot,
                log=math.log, cos=math.cos, sin=math.sin, _Z_MIN=_Z_MIN,
                _check_z=_check_z)


def _switched_text(world: NavigationWorld, gains: NavGains,
                   sp: SmoothedParams | None,
                   bp: BacksteppingParams | None) -> _LoopText:
    """The pieces of the switched loop the layers ``sp`` and ``bp`` select,
    each layer adding its state names and fragments; gap is loop_gap.  The
    applied input is the hybrid loop's -k_p (g - sigma), the smoothed
    loop's tracked input k_p (eta - g) (_TRACKED), which the backstepped
    loop's V reads as the integrator's reference, and the backstepped
    loop's state u."""
    consts = _flow_constants(world, gains)
    consts["gap"] = loop_gap(gains, sp, bp)
    state = ("px", "py")
    flow = (_RADIAL, _GRADIENT, _ANGLE, _OFFSET, _ROTATION_FLOW)
    body = (_RADIAL, _SKIRT, _ANGLE)
    value = _VALUE
    if sp is None:
        flow += (_HYBRID_FLOW,)
        rates = ("dpx", "dpy")
        applied = (_GRADIENT, _OFFSET, _HYBRID_FLOW)
    else:
        state += ("eta1", "eta2")
        flow += (_TRACKER_FLOW, _TRACKED)
        body += (_OFFSET,)
        value += _TRACKER_VALUE
        rates = ("r1", "r2", "deta1", "deta2")
        applied = (_GRADIENT, _TRACKED)
        consts.update(k_eta=sp.k_eta, gamma_s=sp.gamma_s)
    if bp is not None:
        state += ("u1", "u2")
        flow += (_INTEGRATOR_FLOW,)
        body += (_GRADIENT, _TRACKED, _FOLLOWING)
        value += "V = V + integ\n"
        rates = ("u1", "u2", "deta1", "deta2", "du1", "du2")
        applied = ()
        consts.update(k_b=bp.k_b, gamma_b=bp.gamma_b)
    terms = tuple(_angle_terms(world, gains, t)
                  for t in gains.theta_candidates.tolist())
    return _LoopText(consts, (*state, "th"), flow, (*rates, "dth"),
                     body + (_PENALTY,), value, terms, applied)


def _gradient_text(world: NavigationWorld, gains: NavGains) -> _LoopText:
    """The pieces of the gradient loop: its flow, -k_p grad V_nav, and V_nav;
    its applied input needs the gradient beyond V_nav's pieces."""
    return _LoopText(_flow_constants(world, gains), ("px", "py", "th"),
                     (_RADIAL, _GRADIENT), ("-k_p * gx", "-k_p * gy", "0.0"),
                     (_RADIAL, _SKIRT), _NAV_VALUE, (), (_GRADIENT,))


def _switched_loop(world: NavigationWorld, gains: NavGains,
                   sp: SmoothedParams | None,
                   bp: BacksteppingParams | None) -> HybridSystemSpec:
    """The switched loop of the layers ``sp`` and ``bp`` select: hybrid
    (neither), smoothed (``sp``) or backstepped (both), with its flow map and
    kernel compiled from its pieces once layer_checks have passed; the first
    check that fails raises."""
    for check in layer_checks(world, gains, sp, bp):
        check()
    loop = _switched_text(world, gains, sp, bp)
    source = literal_source(_kernel_code(loop), loop.consts)
    kernel = dict(loop.consts)
    exec(compile_source(source, f"<switching kernel, width {len(loop.state)}>"),
         kernel)
    return switching_system(kernel["in_flow_set"],
                            gains.theta_candidates.reshape(-1, 1),
                            compile_flow(loop.state, "".join(loop.flow),
                                         loop.rates, loop.consts),
                            len(loop.state) - 1, shell_projection(world))


def hybrid_closed_loop(world: NavigationWorld, gains: NavGains) -> HybridSystemSpec:
    """Switched feedback applied directly; state [px, py, theta]."""
    return _switched_loop(world, gains, None, None)


def smooth_closed_loop(world: NavigationWorld, gains: NavGains,
                       sp: SmoothedParams) -> HybridSystemSpec:
    """Tracker-mediated loop with continuous input; [px, py, eta1, eta2, theta].

    The tracker flow pulls eta to the offset sigma, feeds its drift forward
    and adds the Lyapunov cross-term; the physical input is the tracked
    feedback k_p (eta - grad V_nav).
    """
    return _switched_loop(world, gains, sp, None)


def backstep_closed_loop(world: NavigationWorld, gains: NavGains,
                         sp: SmoothedParams,
                         bp: BacksteppingParams) -> HybridSystemSpec:
    """Loop with tracker and actuator integrator; [p, eta, u, theta] packed.

    The tracker flows as in smooth_closed_loop; the integrator tracks the
    reference k_p (eta - grad V_nav) with its time derivative, which needs
    H u for H the base-potential Hessian I + a I + b n n^T (nav_hessian),
    written radially.
    """
    return _switched_loop(world, gains, sp, bp)


def gradient_closed_loop(world: NavigationWorld, gains: NavGains) -> HybridSystemSpec:
    """Plain descent on the base potential; never jumps.  [px, py, theta]."""
    loop = _gradient_text(world, gains)
    flow = compile_flow(loop.state, "".join(loop.flow), loop.rates, loop.consts)
    return HybridSystemSpec(
        dim=3,
        flow_map=flow,
        jump_map=lambda v: [],
        in_flow_set=lambda v: -1.0,
        in_jump_set=lambda v: 1.0,
        project_flow=shell_projection(world),
        complementary=True,
    )


# -- channels ----------------------------------------------------------------

def _mapped(fn, *cols: np.ndarray) -> np.ndarray:
    """fn applied entry by entry over Python floats."""
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), dtype=float,
                       count=len(cols[0]))


def _log(x: np.ndarray) -> np.ndarray:
    """math.log over the entries of x, 0.0 where an entry is 1.0."""
    out = np.zeros_like(x)
    out[x != 1.0] = _mapped(math.log, x[x != 1.0])
    return out


_ARRAY_NAMES = dict(log=_log, hypot=functools.partial(_mapped, math.hypot),
                    cos=functools.partial(_mapped, math.cos),
                    sin=functools.partial(_mapped, math.sin),
                    minimum=np.minimum, stack=np.stack,
                    DimensionMismatch=DimensionMismatch)

_ARRAY_RULES = (
    (r"^if not (\w+) > _Z_MIN:\n    _check_z\(\1\)$",
     r"if not (\1 > _Z_MIN).all():\n    _check_z(\1[~(\1 > _Z_MIN)][0])"),
    (r"^if (V_\d+) < best:\n    best = \1$", r"best = minimum(best, \1)"),
    (r"^if z < r_s:\n((?:    .*\n)+)else:\n(?:    .*\n)+",
     lambda m: "zc = minimum(z, r_s)\n" + re.sub(r"\bz\b", "zc",
                                                 textwrap.dedent(m[1]))),
)


def _array_code(text: str) -> str:
    """The array rule: ``text``, fragments of float code, run once over numpy
    columns with the bits they give each row.  numpy's + - * / round like
    Python's; log, hypot, cos and sin are math's over the entries
    (_ARRAY_NAMES; numpy's differ in the last place on some inputs).  The
    rewrites (_ARRAY_RULES): the clearance guard tests every row and passes
    the first bad row's clearance to _check_z; "if V_k < best: best = V_k"
    becomes a minimum; an "if z < r_s:" skirt branch runs its inside
    formulas alone on zc = min(z, r_s), where at zc = r_s, d = +0.0 and
    log(1.0) = 0.0 give the outside formulas' bits, as phi and its first two
    derivatives vanish at r_s.  Any other if or else raises ValueError."""
    for pattern, repl in _ARRAY_RULES:
        text = re.sub(pattern, repl, text, flags=re.M)
    for line in text.splitlines():
        if (re.match(r"(if|elif|else)\b", line)
                and not re.fullmatch(r"if not \(\w+ > _Z_MIN\)\.all\(\):", line)):
            raise ValueError(f"no array rule for {line!r}")
    return text


_CHANNELS = """\
def channels(xs):
    if xs.ndim != 2 or xs.shape[1] != {width}:
        raise DimensionMismatch(
            f"states have shape {{xs.shape}}, expected (n, {width})")
    [{state}] = xs.T
{body}    return V, stack(({u}), 1), {mu}, z, hypot(px - pdx, py - pdy)
"""


def _channel_code(loop: _LoopText) -> str:
    """The source of a loop's channels(xs): V's text (_value_code) and the
    applied input's fragments, through the array rule, then the distance to
    p_d; the flow's other rates are not computed.  mu is (V - best - gap) +
    gap, in_flow_set's value plus the gap."""
    text = _array_code(_value_code(loop) + "".join(loop.applied))
    return _CHANNELS.format(
        width=len(loop.state), state=", ".join(loop.state),
        body=textwrap.indent(text, "    "), u=", ".join(loop.rates[:2]),
        mu="V - best - gap + gap" if loop.terms else "None")


def loop_channels(world: NavigationWorld, gains: NavGains, gap: float | None,
                  sp: SmoothedParams | None, bp: BacksteppingParams | None):
    """``channels(xs)``: (V, u, mu, dobs, ddest) at each row of ``xs``, packed
    states of shape (n, dim), of the gradient loop when ``gap`` is None, else
    of the switched loop ``sp`` and ``bp`` select with gap ``gap``: V, the
    rate u of p (shape (n, 2)), the excess mu = in_flow_set + gap (None for
    the gradient loop), the clearance and the distance to p_d, each with the
    bits the loop's maps and the float helpers give that row.  A clearance at
    or below 1e-12 raises NonPositiveDistance, another width
    DimensionMismatch.  The map runs V's pieces and the applied input's
    (_channel_code), not the flow: the loop's other rates are never
    computed."""
    if gap is None:
        loop = _gradient_text(world, gains)
    else:
        loop = _switched_text(world, gains, sp, bp)
    namespace = {**loop.consts, "gap": gap, **_ARRAY_NAMES}
    exec(compile_source(literal_source(_channel_code(loop), namespace),
                        f"<channels, width {len(loop.state)}>"), namespace)
    return namespace["channels"]
