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

Each potential is stated once per path.  On the run path, one builder,
_switched_loop, makes all three switched loops the way the paper layers
them: the smoothed loop is the hybrid loop plus the tracker eta, the
backstepped loop the smoothed loop plus the actuator integrator u.  Each
layer's bounds, gap and packed width are stated once, in layer_checks,
loop_gap and _packed_width, which the builder and the harness read (the
width through sample_channels).  Each formula is written once, as a text
fragment of straight-line float code, and the builder adds the state names
and fragments of each layer present.  engine.compile_flow compiles the flow
fragments into the flow map and an RK4 step with the flow inlined at each
stage; _kernel_code compiles the V fragments into the switching kernel,
in_flow_set for synergy.switching_system, which evaluates V at the state's
own angle and at each candidate.  The gradient loop, which never switches,
has the clearance and gradient fragments alone for its flow.
Post-processing reads the harness's V, u, excess and clearance channels
from sample_channels, the same formulas over a stack of states as numpy
arrays (_loop_v and _angle_terms take arrays too).  The float helpers
(switched_potential, switched_gradient_p/theta, nav_gradient, nav_hessian,
switch_offset, switch_offset_rate, tracked_input) are built from small
scalar kernels and serve nominal_controller, decomposed_feedback,
find_critical_point and the harness's checks.  All three follow one order
of operations and give the same bits: tests/test_navigation.py's
test_fused_kernels_equal_the_scalar_helpers pins the flow maps and kernels
against the float helpers and against sample_channels with ==, inside and
outside the skirt, test_the_inlined_step_equals_the_call_path pins the
inlined step against the engine's call kernel, and
test_loop_maps_guard_the_clearance pins the clearance guard and the
state width.
The generic compositions (assemble_closed_loop over nominal_controller,
smoothed_quadruple and backstepped_quadruple) give the same flows at many
times the cost, so they serve as the tests' reference.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass

import numpy as np

from .backstepping import BacksteppingParams, validate_backstepping_params
from .engine import HybridSystemSpec, compile_flow
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
    0 < epsilon < r_s.
    """

    p_o: np.ndarray
    r_o: float
    epsilon: float
    p_d: np.ndarray
    r_s: float
    varrho: float

    def __post_init__(self):
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
    """Feedback gains and switching parameters for the rotated family."""

    k_p: float
    k_theta: float
    gamma_theta: float
    theta_candidates: np.ndarray
    delta: float

    def __post_init__(self):
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


def _packed_width(sp: SmoothedParams | None, bp: BacksteppingParams | None) -> int:
    """Width of [p | eta | u], ahead of theta, in the loop ``sp`` and ``bp`` select."""
    return 2 if sp is None else 4 if bp is None else 6


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


def _angle_terms(world: NavigationWorld, gains: NavGains, th, cos=math.cos,
                 sin=math.sin):
    """The part of a loop's V fixed by the logic angle th: (c, s, pen, sx,
    sy) with c = cos th, s = sin th, the penalty gamma_theta th^2/2 and the
    offset sigma(th)."""
    c = cos(th)
    s = sin(th)
    sx, sy, _, _ = _offset(world, c, s)
    return c, s, 0.5 * gains.gamma_theta * th * th, sx, sy


def _loop_v(world: NavigationWorld, sp: SmoothedParams | None, st, at):
    """A switched loop's V from its state terms and angle terms: the rotated
    pull, skirt and penalty, plus (gamma_s/2)||eta - sigma||^2 when ``sp`` is
    given and the integrator term when there is one.  Over floats, or over
    numpy arrays of states."""
    wx, wy, vphi, eta, integ = st
    c, s, pen, sx, sy = at
    pox, poy = world._po
    pdx, pdy = world._pd
    ex = pox + c * wx - s * wy - pdx  # T(p, theta) - p_d
    ey = poy + s * wx + c * wy - pdy
    V = 0.5 * (ex * ex + ey * ey) + vphi + pen
    if sp is None:
        return V
    e1 = eta[0] - sx
    e2 = eta[1] - sy
    V = V + 0.5 * sp.gamma_s * (e1 * e1 + e2 * e2)
    return V if integ is None else V + integ


def _tracked(gains: NavGains, eta1: float, eta2: float, gx: float, gy: float):
    """Applied input k_p (eta - g) of the tracker loops, g = grad V_nav(p)."""
    return gains.k_p * (eta1 - gx), gains.k_p * (eta2 - gy)


def switched_potential(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                       theta: float, check: bool = True) -> float:
    """Rotated pull plus skirt plus angle penalty, V(p, theta)."""
    px, py = _xy(p)
    wx, wy, _, z = _radial(world, px, py, check)
    st = (wx, wy, world.varrho * _phi(z, world.r_s), None, None)
    return _loop_v(world, None, st, _angle_terms(world, gains, float(theta)))


def tracked_input(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                  eta: np.ndarray) -> np.ndarray:
    """Applied input k_p (eta - grad V_nav(p)) of the tracker-mediated loops."""
    px, py = _xy(p)
    gx, gy, _ = _grad(world, px, py, *_radial(world, px, py))
    return np.array(_tracked(gains, *_xy(eta), gx, gy))


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


# -- sample channels ---------------------------------------------------------
#
# The harness's per-sample channels over a whole stack of packed states.
# numpy's + - * / round exactly like Python floats, so each array expression
# below follows the order of operations of the scalar kernel it mirrors and
# gives the same bits.  log, hypot, cos and sin are math's, mapped over the
# entries: numpy's own differ from math's in the last place on a fraction of
# a percent of inputs.

def _mapped(fn, *cols: np.ndarray) -> np.ndarray:
    """fn applied entry by entry over Python floats."""
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), dtype=float,
                       count=len(cols[0]))


def sample_channels(world: NavigationWorld, gains: NavGains, xs: np.ndarray,
                    gap: float | None, sp: SmoothedParams | None,
                    bp: BacksteppingParams | None):
    """(V, u, mu, dobs, ddest) of a loop at each row of ``xs``.

    ``xs`` stacks packed states, shape (n, dim).  The loop is the gradient
    loop when ``gap`` is None, otherwise the switched loop that ``sp`` and
    ``bp`` select: hybrid (neither), smoothed (``sp``) or backstepped
    (both), with ``gap`` its switching gap.  V is the loop's potential, u
    (shape (n, 2)) the applied input, mu = in_flow_set + gap the switching
    excess (None for the gradient loop), dobs the obstacle clearance and
    ddest the distance to p_d.  Every entry has the bits of the loop's flow
    map and switching kernel and of the float helpers at that row; a
    clearance at or below 1e-12 raises NonPositiveDistance.
    """
    n_x = _packed_width(sp, bp)
    if xs.ndim != 2 or xs.shape[1] != n_x + 1:
        raise DimensionMismatch(
            f"states have shape {xs.shape}, expected (n, {n_x + 1})")
    cols = xs.T
    px, py, th = cols[0], cols[1], cols[-1]
    pox, poy = world._po
    pdx, pdy = world._pd
    r_s = world.r_s
    # _radial
    wx = px - pox
    wy = py - poy
    rho = _mapped(math.hypot, wx, wy)
    z = rho - world.r_o
    low = ~(z > _Z_MIN)
    if low.any():
        _check_z(float(z[low.argmax()]))
    # _phi and _dphi, zero from r_s outward
    phi = np.zeros_like(z)
    dphi = np.zeros_like(z)
    skirt = z < r_s
    if skirt.any():
        zs = z[skirt]
        d = zs - r_s
        log = _mapped(math.log, r_s / zs)
        phi[skirt] = d * d * log
        dphi[skirt] = 2.0 * d * log - d * d / zs
    vphi = world.varrho * phi
    # _grad, with p - p_d
    ex = px - pdx
    ey = py - pdy
    a = world.varrho * dphi / rho
    gx = ex + a * wx
    gy = ey + a * wy
    ddest = _mapped(math.hypot, ex, ey)

    if gap is None:
        # V_nav(p) and -k_p nav_gradient
        V = 0.5 * (ex * ex + ey * ey) + vphi
        u = np.stack([-gains.k_p * gx, -gains.k_p * gy], axis=1)
        return V, u, None, z, ddest

    eta = None if sp is None else cols[2:4]
    integ = None
    if bp is not None:
        # (gamma_b/2)||u - k_p (eta - g)||^2
        r1, r2 = _tracked(gains, *eta, gx, gy)
        f1 = cols[4] - r1
        f2 = cols[5] - r2
        integ = 0.5 * bp.gamma_b * (f1 * f1 + f2 * f2)
    st = (wx, wy, vphi, eta, integ)
    own = _angle_terms(world, gains, th, functools.partial(_mapped, math.cos),
                       functools.partial(_mapped, math.sin))
    V = _loop_v(world, sp, st, own)
    best = np.min([_loop_v(world, sp, st, _angle_terms(world, gains, t))
                   for t in gains.theta_candidates.tolist()], axis=0)
    mu = V - best - gap + gap  # (excess - gap) + gap, as in_flow_set + gap
    if sp is None:
        sx, sy = own[3:]
        u = np.stack([-gains.k_p * (gx - sx), -gains.k_p * (gy - sy)], axis=1)
    elif bp is None:
        u = np.stack(_tracked(gains, *eta, gx, gy), axis=1)
    else:
        u = xs[:, 4:6]
    return V, u, mu, z, ddest


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
# Each loop's flow and switching kernel are written once, as text fragments
# compiled into the flow map with its inlined RK4 step (engine.compile_flow)
# and into the kernel (_kernel_code).  They repeat the scalar kernels' order
# of operations, down to the skirt weight varrho*0.0/rho outside the skirt
# (as in _grad), so that they give the helpers' bits, signed zeros included.

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
    a = varrho * 0.0 / rho
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
dth = nk_theta * (gamma_theta * th - (wx * rx + wy * ry))
"""

# The hybrid loop's input -k_p (g - sigma).
_HYBRID_FLOW = """\
dpx = nk_p * (gx - sx)
dpy = nk_p * (gy - sy)
"""

# The tracker's flow and the tracked input r = k_p (eta - g).
_TRACKER_FLOW = """\
deta1 = nk_eta * (eta1 - sx) + rx * dth - kp_gs * (gx - sx)
deta2 = nk_eta * (eta2 - sy) + ry * dth - kp_gs * (gy - sy)
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
du1 = nk_b * (u1 - r1) + (k_p * deta1 - k_p * Hu1) - (gx - sx) / gamma_b
du2 = nk_b * (u2 - r2) + (k_p * deta2 - k_p * Hu2) - (gy - sy) / gamma_b
"""

# V's terms (_loop_v): the integrator's (gamma_b/2)||u - k_p (eta - g)||^2,
# free of theta; at the angle terms (c, s, pen, sx, sy), the rotated pull,
# skirt and penalty, and the tracker's term.
_FOLLOWING = """\
f1 = u1 - k_p * (eta1 - gx)
f2 = u2 - k_p * (eta2 - gy)
integ = half_gb * (f1 * f1 + f2 * f2)
"""

_VALUE = """\
ex = pox + c * wx - s * wy - pdx
ey = poy + s * wx + c * wy - pdy
V = 0.5 * (ex * ex + ey * ey) + vphi + pen
"""

_TRACKER_VALUE = """\
e1 = eta1 - sx
e2 = eta2 - sy
V = V + half_gs * (e1 * e1 + e2 * e2)
"""

_KERNEL = """\
def in_flow_set(v, out=None):
    [{state}] = v
{body}    pen = half_gt * th * th
{value}    own = V
    best = None
    for c, s, pen, sx, sy in cands:
{candidate}        if out is not None:
            out.append(V)
        if best is None or V < best:
            best = V
    return own - best - gap
"""


@functools.cache
def _kernel_code(state: tuple[str, ...], body: str, value: str):
    """The compiled source of the switching kernel in_flow_set(v, out=None).
    It unpacks v into ``state`` and runs ``body``: the terms of V that do not
    depend on theta, and the own angle's.  It returns V from ``value`` at the
    own angle, less its least value over the (c, s, pen, sx, sy) in
    ``cands``, less ``gap``, and appends each candidate's V to a list
    ``out``."""
    source = _KERNEL.format(state=", ".join(state),
                            body=textwrap.indent(body, "    "),
                            value=textwrap.indent(value, "    "),
                            candidate=textwrap.indent(value, " " * 8))
    return compile(source, f"<switching kernel, width {len(state)}>", "exec")


def _flow_constants(world: NavigationWorld, gains: NavGains) -> dict:
    """The names the fragments read: the world and gain constants, the math
    functions and the clearance guard."""
    (pox, poy), (pdx, pdy), (qx, qy) = world._po, world._pd, world._q
    return dict(pox=pox, poy=poy, pdx=pdx, pdy=pdy, qx=qx, qy=qy,
                r_o=world.r_o, r_s=world.r_s, varrho=world.varrho,
                k_p=gains.k_p, nk_p=-gains.k_p, nk_theta=-gains.k_theta,
                gamma_theta=gains.gamma_theta, hypot=math.hypot,
                log=math.log, cos=math.cos, sin=math.sin, _Z_MIN=_Z_MIN,
                _check_z=_check_z)


def _switched_loop(world: NavigationWorld, gains: NavGains,
                   sp: SmoothedParams | None,
                   bp: BacksteppingParams | None) -> HybridSystemSpec:
    """The switched loop of the layers ``sp`` and ``bp`` select: hybrid
    (neither), smoothed (``sp``) or backstepped (both), after the checks of
    layer_checks have passed; the first that fails raises.  Each layer
    present adds its state names and fragments to the flow map (compile_flow)
    and to the switching kernel in_flow_set(v, out=None), V(v) - best
    candidate V - loop_gap (_kernel_code), both run in a namespace of the
    loop's constants."""
    for check in layer_checks(world, gains, sp, bp):
        check()
    consts = _flow_constants(world, gains)
    consts.update(half_gt=0.5 * gains.gamma_theta, gap=loop_gap(gains, sp, bp),
                  cands=[_angle_terms(world, gains, t)
                         for t in gains.theta_candidates.tolist()])
    state = ("px", "py")
    flow = _RADIAL + _GRADIENT + _ANGLE + _OFFSET + _ROTATION_FLOW
    body = _RADIAL + _SKIRT + _ANGLE
    value = _VALUE
    if sp is None:
        flow += _HYBRID_FLOW
        rates = ("dpx", "dpy")
    else:
        state += ("eta1", "eta2")
        flow += _TRACKER_FLOW
        body += _OFFSET
        value += _TRACKER_VALUE
        rates = ("r1", "r2", "deta1", "deta2")
        consts.update(nk_eta=-sp.k_eta, kp_gs=gains.k_p / sp.gamma_s,
                      half_gs=0.5 * sp.gamma_s)
    if bp is not None:
        state += ("u1", "u2")
        flow += _INTEGRATOR_FLOW
        body += _GRADIENT + _FOLLOWING
        value += "V = V + integ\n"
        rates = ("u1", "u2", "deta1", "deta2", "du1", "du2")
        consts.update(nk_b=-bp.k_b, gamma_b=bp.gamma_b,
                      half_gb=0.5 * bp.gamma_b)
    state += ("th",)
    kernel = dict(consts)
    exec(_kernel_code(state, body, value), kernel)
    return switching_system(kernel["in_flow_set"],
                            gains.theta_candidates.reshape(-1, 1),
                            compile_flow(state, flow, (*rates, "dth"), consts),
                            _packed_width(sp, bp), shell_projection(world))


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
    flow = compile_flow(("px", "py", "th"), _RADIAL + _GRADIENT,
                        ("nk_p * gx", "nk_p * gy", "0.0"),
                        _flow_constants(world, gains))
    return HybridSystemSpec(
        dim=3,
        flow_map=flow,
        jump_map=lambda v: [],
        in_flow_set=lambda v: -1.0,
        in_jump_set=lambda v: 1.0,
        project_flow=shell_projection(world),
        complementary=True,
    )
