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

The three switched loops share one switching rule, synergy.switching_system,
applied to the loop's potential: switched_potential, tracking_potential or
backstep_potential.  Each formula is written once, as a scalar kernel over
Python floats; the loop maps and the public helpers both call it.  The
harness's V, u, excess and clearance channels come from sample_channels, the
same formulas over a stack of states as numpy arrays, bit-equal to the
kernels at every state.  The generic compositions (assemble_closed_loop over
nominal_controller, smoothed_quadruple and backstepped_quadruple) give the
same flows, but a generic flow call costs about 3-6x (hybrid), 15-27x
(smooth) and 20-43x (backstep) a kernel one (2-core Xeon, Python 3.11,
numpy 2.4), so they serve as the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backstepping import (
    BacksteppingParams,
    FeedbackJacobians,
    validate_backstepping_params,
)
from .engine import HybridSystemSpec
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
    so the potential is exactly quadratic near it, and the safety margin
    epsilon must leave room inside the skirt, 0 < epsilon < r_s.
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
        if not self.dest_range > self.r_o + self.r_s:
            raise ValueError(
                f"destination must clear the skirt: ||p_d - p_o|| = "
                f"{self.dest_range:.6g} must exceed r_o + r_s = "
                f"{self.r_o + self.r_s:.6g}")

    @property
    def dest_range(self) -> float:
        """Distance from the obstacle center to the destination."""
        return float(np.linalg.norm(self.p_d - self.p_o))


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


def validate_gains(world: NavigationWorld, gains: NavGains) -> None:
    """Check every gain bound at once; raises GainValidation listing failures."""
    problems = []
    if not gains.k_p > 0.0:
        problems.append(f"k_p = {gains.k_p:.6g} must be positive")
    if not gains.k_theta > 0.0:
        problems.append(f"k_theta = {gains.k_theta:.6g} must be positive")
    gt_max = rotation_rate_bound(world)
    if not 0.0 < gains.gamma_theta < gt_max:
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
    elif 0.0 < gains.gamma_theta < gt_max and not bad_angles:
        gap = max_synergy_gap(world, gains)
        if gains.delta > gap:
            problems.append(
                f"delta = {gains.delta:.6g} must not exceed "
                f"(2*r_o*||p_d - p_o||/pi^2 - gamma_theta/2)"
                f"*min|theta_bar|^2 = {gap:.6g}")
    if problems:
        raise GainValidation("; ".join(problems))


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


def barrier(z: float, r_s: float) -> float:
    """Skirt potential (z - r_s)^2 ln(r_s / z), zero from r_s outward."""
    _check_z(z)
    return _phi(z, r_s)


def barrier_grad(z: float, r_s: float) -> float:
    _check_z(z)
    return _dphi(z, r_s)


def barrier_hess(z: float, r_s: float) -> float:
    _check_z(z)
    return _d2phi(z, r_s)


# -- base potential ----------------------------------------------------------
#
# The potentials, gradients and flow terms are written once, as scalar
# kernels over Python floats (the underscored functions below).  The loop
# maps unpack their state with tolist() and call them; the public helpers
# unpack their arguments and call the same kernels, so both compute the
# same bits.

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


def _hess(world: NavigationWorld, wx: float, wy: float, rho: float, z: float,
          a: float):
    """(b, nx, ny) of the Hessian I + a I + b n n^T, with n = (p - p_o)/rho."""
    return world.varrho * _d2phi(z, world.r_s) - a, wx / rho, wy / rho


def nav_potential(world: NavigationWorld, p: np.ndarray, check: bool = True) -> float:
    """Quadratic pull plus skirt: ||p - p_d||^2 / 2 + varrho phi(d_o(p))."""
    p = np.asarray(p, dtype=float)
    z = obstacle_distance(world, p)
    _require_free(world, z) if check else _check_z(z)
    ex = p[0] - world.p_d[0]
    ey = p[1] - world.p_d[1]
    return 0.5 * (ex * ex + ey * ey) + world.varrho * _phi(z, world.r_s)


def nav_gradient(world: NavigationWorld, p: np.ndarray, check: bool = True) -> np.ndarray:
    px, py = _xy(p)
    gx, gy, _ = _grad(world, px, py, *_radial(world, px, py, check))
    return np.array([gx, gy])


def nav_hessian(world: NavigationWorld, p: np.ndarray, check: bool = True) -> np.ndarray:
    """Second derivative I + varrho (phi'' n n^T + (phi'/rho)(I - n n^T))."""
    px, py = _xy(p)
    wx, wy, rho, z = _radial(world, px, py, check)
    _, _, a = _grad(world, px, py, wx, wy, rho, z)
    b, nx, ny = _hess(world, wx, wy, rho, z, a)
    return np.array([
        [1.0 + a + b * nx * nx, b * nx * ny],
        [b * nx * ny, 1.0 + a + b * ny * ny],
    ])


# -- rotated family ----------------------------------------------------------

def rotate_about_obstacle(world: NavigationWorld, p: np.ndarray,
                          theta: float) -> np.ndarray:
    """Rotate p around the obstacle center by theta."""
    p = np.asarray(p, dtype=float)
    c = math.cos(theta)
    s = math.sin(theta)
    wx = p[0] - world.p_o[0]
    wy = p[1] - world.p_o[1]
    return np.array([world.p_o[0] + c * wx - s * wy,
                     world.p_o[1] + s * wx + c * wy])


def _offset(world: NavigationWorld, c: float, s: float):
    """(sx, sy, rx, ry): the offset sigma(theta) and its theta-derivative,
    from c = cos(theta) and s = sin(theta)."""
    qx, qy = world._q
    return (qx - (c * qx + s * qy), qy - (c * qy - s * qx),
            s * qx - c * qy, c * qx + s * qy)


def _theta_grad(gains: NavGains, th: float, wx: float, wy: float, rx: float,
                ry: float) -> float:
    """theta-derivative of V(p, theta), from p - p_o and the offset rate."""
    return gains.gamma_theta * th - (wx * rx + wy * ry)


def _switched_v(world: NavigationWorld, gains: NavGains, px: float, py: float,
                th: float, check: bool = False):
    """V(p, theta) with the terms the other kernels reuse:
    (V, cos theta, sin theta, wx, wy, rho, z)."""
    wx, wy, rho, z = _radial(world, px, py, check)
    c = math.cos(th)
    s = math.sin(th)
    pox, poy = world._po
    pdx, pdy = world._pd
    ex = pox + c * wx - s * wy - pdx
    ey = poy + s * wx + c * wy - pdy
    V = (0.5 * (ex * ex + ey * ey) + world.varrho * _phi(z, world.r_s)
         + 0.5 * gains.gamma_theta * th * th)
    return V, c, s, wx, wy, rho, z


def _tracking_v(world: NavigationWorld, gains: NavGains, sp: SmoothedParams,
                px: float, py: float, eta1: float, eta2: float, th: float):
    """Smoothed loop's V, with (wx, wy, rho, z) for reuse."""
    V, c, s, wx, wy, rho, z = _switched_v(world, gains, px, py, th)
    sx, sy, _, _ = _offset(world, c, s)
    e1 = eta1 - sx
    e2 = eta2 - sy
    return V + 0.5 * sp.gamma_s * (e1 * e1 + e2 * e2), wx, wy, rho, z


def _tracked(gains: NavGains, eta1: float, eta2: float, gx: float, gy: float):
    """Applied input k_p (eta - g) of the tracker loops, g = grad V_nav(p)."""
    return gains.k_p * (eta1 - gx), gains.k_p * (eta2 - gy)


def _tracker_rate(gains: NavGains, sp: SmoothedParams, eta1: float,
                  eta2: float, gx: float, gy: float, sx: float, sy: float,
                  rx: float, ry: float, varpi: float):
    """Tracker flow: pull to sigma, feedforward of its drift, Lyapunov
    cross-term."""
    c = gains.k_p / sp.gamma_s
    return (-sp.k_eta * (eta1 - sx) + rx * varpi - c * (gx - sx),
            -sp.k_eta * (eta2 - sy) + ry * varpi - c * (gy - sy))


def _backstep_v(world: NavigationWorld, gains: NavGains, sp: SmoothedParams,
                bp: BacksteppingParams, px: float, py: float, eta1: float,
                eta2: float, u1: float, u2: float, th: float) -> float:
    V, wx, wy, rho, z = _tracking_v(world, gains, sp, px, py, eta1, eta2, th)
    gx, gy, _ = _grad(world, px, py, wx, wy, rho, z)
    r1, r2 = _tracked(gains, eta1, eta2, gx, gy)
    f1 = u1 - r1
    f2 = u2 - r2
    return V + 0.5 * bp.gamma_b * (f1 * f1 + f2 * f2)


def _descent(world: NavigationWorld, gains: NavGains, px: float, py: float,
             th: float):
    """Per-state terms of the switched flows: (gx, gy, sx, sy, rx, ry, gt,
    wx, wy, rho, z, a), with g = grad V_nav(p), s the offset, r its rate, gt
    the theta-derivative of V and a the skirt weight of grad V_nav."""
    wx, wy, rho, z = _radial(world, px, py)
    gx, gy, a = _grad(world, px, py, wx, wy, rho, z)
    sx, sy, rx, ry = _offset(world, math.cos(th), math.sin(th))
    gt = _theta_grad(gains, th, wx, wy, rx, ry)
    return gx, gy, sx, sy, rx, ry, gt, wx, wy, rho, z, a


def switched_potential(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                       theta: float, check: bool = True) -> float:
    return _switched_v(world, gains, *_xy(p), float(theta), check)[0]


def tracking_potential(world: NavigationWorld, gains: NavGains,
                       sp: SmoothedParams, p: np.ndarray, eta: np.ndarray,
                       theta: float) -> float:
    """Smoothed loop's V: switched potential + (gamma_s/2)||eta - sigma(theta)||^2.

    Unchecked, like the loop maps: only the barrier's own domain is enforced.
    """
    return _tracking_v(world, gains, sp, *_xy(p), *_xy(eta), float(theta))[0]


def tracked_input(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                  eta: np.ndarray) -> np.ndarray:
    """Applied input k_p (eta - grad V_nav(p)) of the tracker-mediated loops."""
    px, py = _xy(p)
    gx, gy, _ = _grad(world, px, py, *_radial(world, px, py))
    return np.array(_tracked(gains, *_xy(eta), gx, gy))


def backstep_potential(world: NavigationWorld, gains: NavGains,
                       sp: SmoothedParams, bp: BacksteppingParams,
                       p: np.ndarray, eta: np.ndarray, u: np.ndarray,
                       theta: float) -> float:
    """Backstepped loop's V: tracking potential + (gamma_b/2)||u - tracked input||^2."""
    return _backstep_v(world, gains, sp, bp, *_xy(p), *_xy(eta), *_xy(u),
                       float(theta))


def switched_gradient_p(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                        theta: float, check: bool = True) -> np.ndarray:
    """p-gradient of the rotated potential: nav gradient minus the offset."""
    px, py = _xy(p)
    gx, gy, _ = _grad(world, px, py, *_radial(world, px, py, check))
    sx, sy, _, _ = _offset(world, math.cos(theta), math.sin(theta))
    return np.array([gx - sx, gy - sy])


def switched_gradient_theta(world: NavigationWorld, gains: NavGains,
                            p: np.ndarray, theta: float) -> float:
    px, py = _xy(p)
    pox, poy = world._po
    _, _, rx, ry = _offset(world, math.cos(theta), math.sin(theta))
    return _theta_grad(gains, float(theta), px - pox, py - poy, rx, ry)


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
    ddest the distance to p_d.  Every entry equals the scalar helpers' value
    at that row; a clearance at or below 1e-12 raises NonPositiveDistance.
    """
    n_x = 2 if sp is None else 4 if bp is None else 6
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
        # nav_potential and -k_p nav_gradient
        V = 0.5 * (ex * ex + ey * ey) + vphi
        u = np.stack([-gains.k_p * gx, -gains.k_p * gy], axis=1)
        return V, u, None, z, ddest

    if bp is not None:
        r1, r2 = _tracked(gains, cols[2], cols[3], gx, gy)
        f1 = cols[4] - r1
        f2 = cols[5] - r2
        integrator = 0.5 * bp.gamma_b * (f1 * f1 + f2 * f2)

    def potential(t, c, s):
        """The loop's V at logic angle t, with c = cos t and s = sin t."""
        tx = pox + c * wx - s * wy - pdx  # T(p, t) - p_d
        ty = poy + s * wx + c * wy - pdy
        V = 0.5 * (tx * tx + ty * ty) + vphi + 0.5 * gains.gamma_theta * t * t
        if sp is None:
            return V
        sx, sy = _offset(world, c, s)[:2]
        e1 = cols[2] - sx
        e2 = cols[3] - sy
        V = V + 0.5 * sp.gamma_s * (e1 * e1 + e2 * e2)
        return V if bp is None else V + integrator

    c = _mapped(math.cos, th)
    s = _mapped(math.sin, th)
    V = potential(th, c, s)
    best = np.min([potential(t, math.cos(t), math.sin(t))
                   for t in gains.theta_candidates.tolist()], axis=0)
    mu = V - best - gap + gap  # (excess - gap) + gap, as in_flow_set + gap
    if sp is None:
        sx, sy = _offset(world, c, s)[:2]
        u = np.stack([-gains.k_p * (gx - sx), -gains.k_p * (gy - sy)], axis=1)
    elif bp is None:
        u = np.stack(_tracked(gains, cols[2], cols[3], gx, gy), axis=1)
    else:
        u = xs[:, 4:6]
    return V, u, mu, z, ddest


def switch_offset_bound(world: NavigationWorld, gains: NavGains) -> float:
    """Half the worst squared offset spread between rest and a candidate.

    ||sigma(theta) - sigma(theta_bar)||^2 = 2 (1 - cos(theta - theta_bar))
    ||p_d - p_o||^2, so switches between the settled angle 0 and the largest
    candidate give (1 - cos max|theta_bar|) ||p_d - p_o||^2.
    """
    d = world.dest_range
    return (1.0 - math.cos(gains.theta_mag_max)) * d * d


# -- critical point ----------------------------------------------------------

def find_critical_point(world: NavigationWorld) -> np.ndarray:
    """Locate the saddle of the base potential behind the obstacle.

    On the ray from the destination through the obstacle center, at distance
    r_o + z beyond the center, the gradient reduces to the scalar balance

        h(z) = ||p_o - p_d|| + r_o + z + varrho phi'(z),

    which is -inf as z -> 0 and positive at r_s, so the saddle clearance is
    the root of h.  Bisection brackets it to 1e-12 inside (epsilon, r_s);
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

    Acts on any packed state whose first two entries are the position;
    points that dip inside the margin are pushed radially back onto it, in a
    copy.  A point outside the margin comes back as the same object.
    """
    r_min = (world.r_o + world.epsilon) * (1.0 + 1e-12)
    pox, poy = world._po

    def project(v: np.ndarray) -> np.ndarray:
        px, py = v.tolist()[:2]
        wx = px - pox
        wy = py - poy
        rho = math.hypot(wx, wy)
        if rho >= r_min:
            return v
        out = v.copy()
        if rho <= _Z_MIN:
            out[0] = pox + r_min
            out[1] = poy
        else:
            f = r_min / rho
            out[0] = pox + f * wx
            out[1] = poy + f * wy
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
    )


def backstep_jacobians(world: NavigationWorld, gains: NavGains) -> FeedbackJacobians:
    """Analytic x-Jacobians of the decomposed feedback (Upsilon is constant)."""
    k_p = gains.k_p
    return FeedbackJacobians(
        d_varsigma_dx=lambda x: -k_p * nav_hessian(world, x, check=False),
        d_upsilon_dx=None,
    )


# -- closed loops ------------------------------------------------------------
#
# Each switched loop below is a flow map plus its potential, both over the
# scalar kernels above, handed to synergy.switching_system for the sets and
# the jump map.  Tests pin the flows against the generic compositions.

def hybrid_closed_loop(world: NavigationWorld, gains: NavGains) -> HybridSystemSpec:
    """Switched feedback applied directly; state [px, py, theta]."""
    validate_gains(world, gains)
    k_p = gains.k_p
    k_theta = gains.k_theta

    def flow(v):
        px, py, th = v.tolist()
        gx, gy, sx, sy, _, _, gt = _descent(world, gains, px, py, th)[:7]
        return np.array([-k_p * (gx - sx), -k_p * (gy - sy), -k_theta * gt])

    return switching_system(
        lambda x, th: _switched_v(world, gains, *x.tolist(), float(th[0]))[0],
        gains.theta_candidates.reshape(-1, 1), gains.delta, flow, 2,
        shell_projection(world))


def smooth_closed_loop(world: NavigationWorld, gains: NavGains,
                       sp: SmoothedParams) -> HybridSystemSpec:
    """Tracker-mediated loop with continuous input; [px, py, eta1, eta2, theta]."""
    validate_gains(world, gains)
    validate_smoothed_params(gains.delta, switch_offset_bound(world, gains), sp)
    k_theta = gains.k_theta

    def flow(v):
        px, py, eta1, eta2, th = v.tolist()
        gx, gy, sx, sy, rx, ry, gt = _descent(world, gains, px, py, th)[:7]
        varpi = -k_theta * gt
        # physical input is the tracked feedback k_p (eta - g_nav)
        u1, u2 = _tracked(gains, eta1, eta2, gx, gy)
        e1, e2 = _tracker_rate(gains, sp, eta1, eta2, gx, gy, sx, sy, rx, ry,
                               varpi)
        return np.array([u1, u2, e1, e2, varpi])

    return switching_system(
        lambda x, th: _tracking_v(world, gains, sp, *x.tolist(),
                                  float(th[0]))[0],
        gains.theta_candidates.reshape(-1, 1), sp.delta_s, flow, 4,
        shell_projection(world))


def backstep_closed_loop(world: NavigationWorld, gains: NavGains,
                         sp: SmoothedParams,
                         bp: BacksteppingParams) -> HybridSystemSpec:
    """Loop with tracker and actuator integrator; [p, eta, u, theta] packed."""
    validate_gains(world, gains)
    c_kappa = switch_offset_bound(world, gains)
    validate_smoothed_params(gains.delta, c_kappa, sp)
    validate_backstepping_params(gains.delta, c_kappa, sp, bp)
    k_p = gains.k_p
    k_theta = gains.k_theta
    gamma_b = bp.gamma_b
    k_b = bp.k_b

    def flow(v):
        px, py, eta1, eta2, u1, u2, th = v.tolist()
        gx, gy, sx, sy, rx, ry, gt, wx, wy, rho, z, a = _descent(
            world, gains, px, py, th)
        varpi = -k_theta * gt
        ks1, ks2 = _tracker_rate(gains, sp, eta1, eta2, gx, gy, sx, sy, rx,
                                 ry, varpi)
        # reference kappa_bar = k_p (eta - g_nav) and its time derivative,
        # with H u for H the base-potential Hessian, written radially
        ref1, ref2 = _tracked(gains, eta1, eta2, gx, gy)
        b, nx, ny = _hess(world, wx, wy, rho, z, a)
        ndotu = nx * u1 + ny * u2
        Hu1 = (1.0 + a) * u1 + b * ndotu * nx
        Hu2 = (1.0 + a) * u2 + b * ndotu * ny
        dref1 = k_p * ks1 - k_p * Hu1
        dref2 = k_p * ks2 - k_p * Hu2
        return np.array([
            u1,
            u2,
            ks1,
            ks2,
            -k_b * (u1 - ref1) + dref1 - (gx - sx) / gamma_b,
            -k_b * (u2 - ref2) + dref2 - (gy - sy) / gamma_b,
            varpi,
        ])

    return switching_system(
        lambda x, th: _backstep_v(world, gains, sp, bp, *x.tolist(),
                                  float(th[0])),
        gains.theta_candidates.reshape(-1, 1), bp.delta_b, flow, 6,
        shell_projection(world))


def gradient_closed_loop(world: NavigationWorld, gains: NavGains) -> HybridSystemSpec:
    """Plain descent on the base potential; never jumps.  [px, py, theta]."""
    k_p = gains.k_p

    def flow(v):
        px, py, _ = v.tolist()
        gx, gy, _ = _grad(world, px, py, *_radial(world, px, py))
        return np.array([-k_p * gx, -k_p * gy, 0.0])

    return HybridSystemSpec(
        dim=3,
        flow_map=flow,
        jump_map=lambda v: [],
        in_flow_set=lambda v: -1.0,
        in_jump_set=lambda v: 1.0,
        project_flow=shell_projection(world),
    )
