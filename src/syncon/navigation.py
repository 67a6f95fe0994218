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
backstep_potential.  The harness reads those same potentials, and
tracked_input, for its V and u channels.  Only the flow maps are hand-fused.
The generic compositions (assemble_closed_loop over nominal_controller,
smoothed_quadruple and backstepped_quadruple) give the same flows, but a
generic flow call costs about 1.1-1.6x (hybrid), 4-8x (smooth) and 7-12x
(backstep) a fused one (2-core Xeon, Python 3.11, numpy 2.4), so they serve
as the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backstepping import BacksteppingParams, FeedbackJacobians
from .engine import HybridSystemSpec
from .errors import (
    GainValidation,
    NonPositiveDistance,
    NoRootBracketed,
    OutsideFreeSpace,
    ParamBoundViolation,
)
from .smoothing import DecomposedFeedback, SmoothedParams
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
    for tb in gains.theta_candidates:
        if not 0.0 < abs(tb) < math.pi:
            problems.append(
                f"candidate angle {tb:.6g} must have magnitude in (0, pi)")
    if not gains.delta > 0.0:
        problems.append(f"delta = {gains.delta:.6g} must be positive")
    elif 0.0 < gains.gamma_theta < gt_max:
        gap = max_synergy_gap(world, gains)
        if gains.delta > gap:
            problems.append(
                f"delta = {gains.delta:.6g} must not exceed "
                f"(2*r_o*||p_d - p_o||/pi^2 - gamma_theta/2)"
                f"*min|theta_bar|^2 = {gap:.6g}")
    if problems:
        raise GainValidation("; ".join(problems))


def validate_layer_params(world: NavigationWorld, gains: NavGains,
                          sp: SmoothedParams,
                          bp: BacksteppingParams | None = None) -> None:
    """Check the tracker bounds, and the integrator bound when bp is given.

    These are the bounds of validate_smoothed_params and
    validate_backstepping_params for this family, whose gap is gains.delta
    and whose offset spread is c_kappa = switch_offset_bound(world, gains):
    gamma_s < delta / c_kappa, and delta_s and delta_b at most
    delta - gamma_s c_kappa.  Raises ParamBoundViolation listing every
    bound broken.
    """
    c_kappa = switch_offset_bound(world, gains)
    slack = gains.delta - sp.gamma_s * c_kappa
    problems = []
    if c_kappa > 0.0 and not sp.gamma_s < gains.delta / c_kappa:
        problems.append(
            f"gamma_s = {sp.gamma_s:.6g} must be < delta / c_kappa = "
            f"{gains.delta / c_kappa:.6g}")
    if not sp.delta_s <= slack:
        problems.append(
            f"delta_s = {sp.delta_s:.6g} must be <= delta - gamma_s * c_kappa "
            f"= {slack:.6g}")
    if bp is not None and not bp.delta_b <= slack:
        problems.append(
            f"delta_b = {bp.delta_b:.6g} must be <= delta - gamma_s * c_kappa "
            f"= {slack:.6g}")
    if problems:
        raise ParamBoundViolation("; ".join(problems))


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


def nav_potential(world: NavigationWorld, p: np.ndarray, check: bool = True) -> float:
    """Quadratic pull plus skirt: ||p - p_d||^2 / 2 + varrho phi(d_o(p))."""
    p = np.asarray(p, dtype=float)
    z = obstacle_distance(world, p)
    _require_free(world, z) if check else _check_z(z)
    ex = p[0] - world.p_d[0]
    ey = p[1] - world.p_d[1]
    return 0.5 * (ex * ex + ey * ey) + world.varrho * _phi(z, world.r_s)


def nav_gradient(world: NavigationWorld, p: np.ndarray, check: bool = True) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    wx = p[0] - world.p_o[0]
    wy = p[1] - world.p_o[1]
    rho = math.hypot(wx, wy)
    z = rho - world.r_o
    _require_free(world, z) if check else _check_z(z)
    c = world.varrho * _dphi(z, world.r_s) / rho
    return np.array([p[0] - world.p_d[0] + c * wx, p[1] - world.p_d[1] + c * wy])


def nav_hessian(world: NavigationWorld, p: np.ndarray, check: bool = True) -> np.ndarray:
    """Second derivative I + varrho (phi'' n n^T + (phi'/rho)(I - n n^T))."""
    p = np.asarray(p, dtype=float)
    wx = p[0] - world.p_o[0]
    wy = p[1] - world.p_o[1]
    rho = math.hypot(wx, wy)
    z = rho - world.r_o
    _require_free(world, z) if check else _check_z(z)
    nx = wx / rho
    ny = wy / rho
    a = world.varrho * _dphi(z, world.r_s) / rho
    b = world.varrho * _d2phi(z, world.r_s) - a
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


def switched_potential(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                       theta: float, check: bool = True) -> float:
    p = np.asarray(p, dtype=float)
    wx = p[0] - world.p_o[0]
    wy = p[1] - world.p_o[1]
    rho = math.hypot(wx, wy)
    z = rho - world.r_o
    _require_free(world, z) if check else _check_z(z)
    c = math.cos(theta)
    s = math.sin(theta)
    ex = world.p_o[0] + c * wx - s * wy - world.p_d[0]
    ey = world.p_o[1] + s * wx + c * wy - world.p_d[1]
    return (0.5 * (ex * ex + ey * ey) + world.varrho * _phi(z, world.r_s)
            + 0.5 * gains.gamma_theta * theta * theta)


def tracking_potential(world: NavigationWorld, gains: NavGains,
                       sp: SmoothedParams, p: np.ndarray, eta: np.ndarray,
                       theta: float) -> float:
    """Smoothed loop's V: switched potential + (gamma_s/2)||eta - sigma(theta)||^2.

    Unchecked, like the loop maps: only the barrier's own domain is enforced.
    """
    sig = switch_offset(world, theta)
    e1 = eta[0] - sig[0]
    e2 = eta[1] - sig[1]
    return (switched_potential(world, gains, p, theta, check=False)
            + 0.5 * sp.gamma_s * (e1 * e1 + e2 * e2))


def tracked_input(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                  eta: np.ndarray) -> np.ndarray:
    """Applied input k_p (eta - grad V_nav(p)) of the tracker-mediated loops."""
    g = nav_gradient(world, p, check=False)
    return np.array([gains.k_p * (eta[0] - g[0]), gains.k_p * (eta[1] - g[1])])


def backstep_potential(world: NavigationWorld, gains: NavGains,
                       sp: SmoothedParams, bp: BacksteppingParams,
                       p: np.ndarray, eta: np.ndarray, u: np.ndarray,
                       theta: float) -> float:
    """Backstepped loop's V: tracking potential + (gamma_b/2)||u - tracked input||^2."""
    ref = tracked_input(world, gains, p, eta)
    f1 = u[0] - ref[0]
    f2 = u[1] - ref[1]
    return (tracking_potential(world, gains, sp, p, eta, theta)
            + 0.5 * bp.gamma_b * (f1 * f1 + f2 * f2))


def switched_gradient_p(world: NavigationWorld, gains: NavGains, p: np.ndarray,
                        theta: float, check: bool = True) -> np.ndarray:
    """p-gradient of the rotated potential: nav gradient minus the offset."""
    g = nav_gradient(world, p, check=check)
    return g - switch_offset(world, theta)


def switched_gradient_theta(world: NavigationWorld, gains: NavGains,
                            p: np.ndarray, theta: float) -> float:
    p = np.asarray(p, dtype=float)
    wx = p[0] - world.p_o[0]
    wy = p[1] - world.p_o[1]
    dx, dy = switch_offset_rate(world, theta)
    return gains.gamma_theta * theta - (wx * dx + wy * dy)


def switch_offset(world: NavigationWorld, theta: float) -> np.ndarray:
    """Input offset (I - R(theta)^T)(p_o - p_d) the rotation induces.

    Vanishes at theta = 0, so the switched feedback reduces to the plain
    descent direction when the logic angle has settled.
    """
    qx = world.p_o[0] - world.p_d[0]
    qy = world.p_o[1] - world.p_d[1]
    c = math.cos(theta)
    s = math.sin(theta)
    return np.array([qx - (c * qx + s * qy), qy - (c * qy - s * qx)])


def switch_offset_rate(world: NavigationWorld, theta: float) -> np.ndarray:
    """Derivative of the offset in theta."""
    qx = world.p_o[0] - world.p_d[0]
    qy = world.p_o[1] - world.p_d[1]
    c = math.cos(theta)
    s = math.sin(theta)
    return np.array([s * qx - c * qy, c * qx + s * qy])


def switch_offset_bound(world: NavigationWorld, gains: NavGains) -> float:
    """Half the worst squared offset spread between rest and a candidate.

    ||sigma(theta) - sigma(theta_bar)||^2 = 2 (1 - cos(theta - theta_bar))
    ||p_d - p_o||^2, so switches between the settled angle 0 and the largest
    candidate give (1 - cos max|theta_bar|) ||p_d - p_o||^2.
    """
    d = world.dest_range
    return (1.0 - math.cos(gains.theta_mag_max)) * d * d


# -- critical point ----------------------------------------------------------

def find_critical_point(world: NavigationWorld, tol: float = 1e-12,
                        refine: bool = True) -> np.ndarray:
    """Locate the saddle of the base potential behind the obstacle.

    On the ray from the destination through the obstacle center, at distance
    r_o + z beyond the center, the gradient reduces to the scalar balance

        h(z) = ||p_o - p_d|| + r_o + z + varrho phi'(z),

    which is -inf as z -> 0 and positive at r_s, so the saddle clearance is
    the root of h.  Bisection brackets it inside (epsilon, r_s); a few
    Newton steps on the full gradient then polish the point.  Raises
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    z_star = 0.5 * (lo + hi)

    u = (world.p_o - world.p_d) / d
    p_star = world.p_o + (world.r_o + z_star) * u
    if refine:
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
    points that dip inside the margin are pushed radially back onto it.
    """
    r_min = (world.r_o + world.epsilon) * (1.0 + 1e-12)
    pox = world.p_o[0]
    poy = world.p_o[1]

    def project(v: np.ndarray) -> np.ndarray:
        wx = v[0] - pox
        wy = v[1] - poy
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
# Each switched loop below is a hand-fused flow map plus its potential, handed
# to synergy.switching_system for the sets and the jump map.  The flows inline
# the controller formulas in scalar arithmetic; tests pin them against the
# generic compositions.

def hybrid_closed_loop(world: NavigationWorld, gains: NavGains,
                       project: bool = True) -> HybridSystemSpec:
    """Switched feedback applied directly; state [px, py, theta]."""
    validate_gains(world, gains)
    k_p = gains.k_p
    k_theta = gains.k_theta

    def flow(v):
        p = v[:2]
        th = v[2]
        gp = switched_gradient_p(world, gains, p, th, check=False)
        gt = switched_gradient_theta(world, gains, p, th)
        return np.array([-k_p * gp[0], -k_p * gp[1], -k_theta * gt])

    return switching_system(
        lambda x, th: switched_potential(world, gains, x, th[0], check=False),
        gains.theta_candidates.reshape(-1, 1), gains.delta, flow, 2,
        shell_projection(world) if project else None)


def smooth_closed_loop(world: NavigationWorld, gains: NavGains,
                       sp: SmoothedParams,
                       project: bool = True) -> HybridSystemSpec:
    """Tracker-mediated loop with continuous input; [px, py, eta1, eta2, theta]."""
    validate_gains(world, gains)
    validate_layer_params(world, gains, sp)
    k_p = gains.k_p
    k_theta = gains.k_theta
    gamma_s = sp.gamma_s
    k_eta = sp.k_eta

    def flow(v):
        p = v[:2]
        eta = v[2:4]
        th = v[4]
        g_nav = nav_gradient(world, p, check=False)
        sig = switch_offset(world, th)
        rate = switch_offset_rate(world, th)
        varpi = -k_theta * switched_gradient_theta(world, gains, p, th)
        # physical input is the tracked feedback -k_p g_nav + k_p eta
        px_dot = k_p * (eta[0] - g_nav[0])
        py_dot = k_p * (eta[1] - g_nav[1])
        # tracker: pull to sigma, feedforward its drift, Lyapunov cross-term
        gsx = g_nav[0] - sig[0]
        gsy = g_nav[1] - sig[1]
        e1 = eta[0] - sig[0]
        e2 = eta[1] - sig[1]
        return np.array([
            px_dot,
            py_dot,
            -k_eta * e1 + rate[0] * varpi - (k_p / gamma_s) * gsx,
            -k_eta * e2 + rate[1] * varpi - (k_p / gamma_s) * gsy,
            varpi,
        ])

    return switching_system(
        lambda x, th: tracking_potential(world, gains, sp, x[:2], x[2:4], th[0]),
        gains.theta_candidates.reshape(-1, 1), sp.delta_s, flow, 4,
        shell_projection(world) if project else None)


def backstep_closed_loop(world: NavigationWorld, gains: NavGains,
                         sp: SmoothedParams, bp: BacksteppingParams,
                         project: bool = True) -> HybridSystemSpec:
    """Loop with tracker and actuator integrator; [p, eta, u, theta] packed."""
    validate_gains(world, gains)
    validate_layer_params(world, gains, sp, bp)
    k_p = gains.k_p
    k_theta = gains.k_theta
    gamma_s = sp.gamma_s
    k_eta = sp.k_eta
    gamma_b = bp.gamma_b
    k_b = bp.k_b
    varrho = world.varrho
    r_s = world.r_s

    def flow(v):
        p = v[:2]
        eta = v[2:4]
        u = v[4:6]
        th = v[6]
        g_nav = nav_gradient(world, p, check=False)
        sig = switch_offset(world, th)
        rate = switch_offset_rate(world, th)
        varpi = -k_theta * switched_gradient_theta(world, gains, p, th)
        gsx = g_nav[0] - sig[0]
        gsy = g_nav[1] - sig[1]
        kappa_s1 = -k_eta * (eta[0] - sig[0]) + rate[0] * varpi - (k_p / gamma_s) * gsx
        kappa_s2 = -k_eta * (eta[1] - sig[1]) + rate[1] * varpi - (k_p / gamma_s) * gsy
        # reference kappa_bar = -k_p g_nav + k_p eta and its time derivative
        ref1 = k_p * (eta[0] - g_nav[0])
        ref2 = k_p * (eta[1] - g_nav[1])
        # H u with H the base-potential Hessian, written radially
        wx = p[0] - world.p_o[0]
        wy = p[1] - world.p_o[1]
        rho = math.hypot(wx, wy)
        z = rho - world.r_o
        a = varrho * _dphi(z, r_s) / rho
        b = varrho * _d2phi(z, r_s) - a
        nx = wx / rho
        ny = wy / rho
        ndotu = nx * u[0] + ny * u[1]
        Hu1 = (1.0 + a) * u[0] + b * ndotu * nx
        Hu2 = (1.0 + a) * u[1] + b * ndotu * ny
        dref1 = k_p * kappa_s1 - k_p * Hu1
        dref2 = k_p * kappa_s2 - k_p * Hu2
        return np.array([
            u[0],
            u[1],
            kappa_s1,
            kappa_s2,
            -k_b * (u[0] - ref1) + dref1 - gsx / gamma_b,
            -k_b * (u[1] - ref2) + dref2 - gsy / gamma_b,
            varpi,
        ])

    return switching_system(
        lambda x, th: backstep_potential(world, gains, sp, bp, x[:2], x[2:4],
                                         x[4:6], th[0]),
        gains.theta_candidates.reshape(-1, 1), bp.delta_b, flow, 6,
        shell_projection(world) if project else None)


def gradient_closed_loop(world: NavigationWorld, gains: NavGains,
                         project: bool = True) -> HybridSystemSpec:
    """Plain descent on the base potential; never jumps.  [px, py, theta]."""
    k_p = gains.k_p

    def flow(v):
        g = nav_gradient(world, v[:2], check=False)
        return np.array([-k_p * g[0], -k_p * g[1], 0.0])

    return HybridSystemSpec(
        dim=3,
        flow_map=flow,
        jump_map=lambda v: [],
        in_flow_set=lambda v: -1.0,
        in_jump_set=lambda v: 1.0,
        project_flow=shell_projection(world) if project else None,
    )
