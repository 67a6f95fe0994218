"""Scenario configs, runs, trace records, CSV/SVG output, consistency checks.

A scenario is a JSON file naming one of four controllers and the world,
gains, initial condition, and integration settings to drive it with.
Parsing is strict: unknown fields anywhere are rejected, every numeric
bound is validated, and all problems are reported at once in a
ValidationError so a config can be fixed in one pass.

run_scenario simulates the closed loop and post-processes the arc into
flat per-sample channels (position, logic angle, tracker, applied input,
Lyapunov value, switching excess, clearances) ready for CSV export or the
hand-rolled SVG plot.  check_scenario re-derives every parameter bound,
locates the stuck point of the base potential, and audits the switched
family on a sampled box, producing a line-per-check report.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .backstepping import BacksteppingParams, validate_backstepping_params
from .engine import HybridArc, Priority, SimConfig, simulate
from .errors import ParseError, SynconError, ValidationError
from .navigation import (
    NavGains,
    NavigationWorld,
    backstep_closed_loop,
    backstep_potential,
    decomposed_feedback,
    find_critical_point,
    gradient_closed_loop,
    hybrid_closed_loop,
    max_synergy_gap,
    nav_gradient,
    nav_potential,
    nominal_controller,
    obstacle_distance,
    rotation_rate_bound,
    smooth_closed_loop,
    switch_offset_bound,
    switched_gradient_p,
    switched_potential,
    tracked_input,
    tracking_potential,
    validate_gains,
)
from .smoothing import (
    SmoothedParams,
    check_reconstruction,
    validate_smoothed_params,
)
from .synergy import audit_quadruple, v_excess

# The benchmark's tracer patches these generic functions on this module by
# name, so they stay importable here; the run path no longer calls them.
from .backstepping import backstep_lyapunov  # noqa: F401
from .smoothing import tracked_feedback, tracking_lyapunov  # noqa: F401

CONTROLLERS = ("hybrid", "smooth_hybrid", "non_hybrid", "backstepped")

CSV_HEADER = "t,j,px,py,theta,eta1,eta2,ux,uy,V,mu,dobs,ddest"

_SVG_WIDTH = 640  # pixels; the height follows the scene's aspect ratio

_CORE_GAIN_KEYS = ("k_p", "k_theta", "gamma_theta", "Theta", "delta")
_SMOOTH_GAIN_KEYS = ("gamma_s", "k_eta", "delta_s")
_BACKSTEP_GAIN_KEYS = ("gamma_b", "k_b", "delta_b")


@dataclass(frozen=True)
class InitialState:
    p0: np.ndarray
    theta0: float = 0.0
    eta0: np.ndarray | None = None
    u0: np.ndarray | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario, ready to build and simulate."""

    name: str
    controller: str
    world: NavigationWorld
    gains: NavGains
    initial: InitialState
    sim: SimConfig
    smoothed: SmoothedParams | None = None
    backstep: BacksteppingParams | None = None
    seed: int = 0
    expected: dict | None = None


def _is_number(value) -> bool:
    """A JSON number: int or float, but not bool (which subclasses int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_pair(value, path: str, problems: list) -> np.ndarray | None:
    if not (isinstance(value, list) and len(value) == 2
            and all(_is_number(v) for v in value)):
        problems.append(f"{path}: expected a pair of numbers, got {value!r}")
        return None
    arr = np.array(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        problems.append(f"{path}: entries must be finite, got {value!r}")
        return None
    return arr


def _as_float(value, path: str, problems: list) -> float | None:
    if not _is_number(value):
        problems.append(f"{path}: expected a number, got {value!r}")
        return None
    v = float(value)
    if not math.isfinite(v):
        problems.append(f"{path}: must be finite, got {value!r}")
        return None
    return v


def _reject_unknown(raw: dict, allowed, path: str, problems: list) -> None:
    for key in raw:
        if key not in allowed:
            problems.append(f"{path}{key}: unknown field")


def parse_config(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    """Validate a raw scenario mapping; raises ValidationError on any defect."""
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ValidationError([f"{source}: top level must be an object"])
    _reject_unknown(raw, ("name", "controller", "world", "gains", "initial",
                          "sim", "seed", "expected"), "", problems)

    name = raw.get("name")
    if not isinstance(name, str) or not name:
        problems.append("name: required nonempty string")
        name = "<unnamed>"
    controller = raw.get("controller")
    if controller not in CONTROLLERS:
        problems.append(
            f"controller: must be one of {', '.join(CONTROLLERS)}, got {controller!r}")
        controller = "hybrid"

    world = None
    wraw = raw.get("world")
    if not isinstance(wraw, dict):
        problems.append("world: required object")
    else:
        _reject_unknown(wraw, ("p_o", "r_o", "epsilon", "p_d", "r_s", "varrho"),
                        "world.", problems)
        vals = {}
        for key in ("r_o", "epsilon", "r_s", "varrho"):
            if key not in wraw:
                problems.append(f"world.{key}: required")
            else:
                vals[key] = _as_float(wraw[key], f"world.{key}", problems)
        for key in ("p_o", "p_d"):
            if key not in wraw:
                problems.append(f"world.{key}: required")
            else:
                vals[key] = _as_pair(wraw[key], f"world.{key}", problems)
        if len(vals) == 6 and all(v is not None for v in vals.values()):
            try:
                world = NavigationWorld(**vals)
            except ValueError as exc:
                problems.append(f"world: {exc}")

    gains = None
    smoothed = None
    backstep = None
    graw = raw.get("gains")
    wants_smooth = controller in ("smooth_hybrid", "backstepped")
    wants_backstep = controller == "backstepped"
    if not isinstance(graw, dict):
        problems.append("gains: required object")
    else:
        allowed = list(_CORE_GAIN_KEYS)
        if wants_smooth:
            allowed += _SMOOTH_GAIN_KEYS
        if wants_backstep:
            allowed += _BACKSTEP_GAIN_KEYS
        _reject_unknown(graw, allowed, "gains.", problems)
        core = {}
        for key in ("k_p", "k_theta", "gamma_theta", "delta"):
            if key not in graw:
                problems.append(f"gains.{key}: required")
            else:
                core[key] = _as_float(graw[key], f"gains.{key}", problems)
        cand = graw.get("Theta")
        if cand is None:
            problems.append("gains.Theta: required")
        elif (isinstance(cand, list) and cand
              and all(_is_number(v) for v in cand)):
            core["theta_candidates"] = np.array(cand, dtype=float)
        else:
            problems.append(
                f"gains.Theta: expected a nonempty list of angles, got {cand!r}")
        if len(core) == 5 and all(v is not None for v in core.values()):
            try:
                gains = NavGains(**core)
            except ValueError as exc:
                problems.append(f"gains.Theta: {exc}")
            if gains is not None and world is not None:
                try:
                    validate_gains(world, gains)
                except SynconError as exc:
                    problems.extend(f"gains: {part}"
                                    for part in str(exc).split("; "))
        if wants_smooth:
            sm = {}
            for key in _SMOOTH_GAIN_KEYS:
                if key not in graw:
                    problems.append(f"gains.{key}: required for {controller}")
                else:
                    sm[key] = _as_float(graw[key], f"gains.{key}", problems)
            if len(sm) == 3 and all(v is not None for v in sm.values()):
                try:
                    smoothed = SmoothedParams(gamma_s=sm["gamma_s"],
                                              k_eta=sm["k_eta"],
                                              delta_s=sm["delta_s"])
                except ValueError as exc:
                    problems.append(f"gains: {exc}")
        if wants_backstep:
            bs = {}
            for key in _BACKSTEP_GAIN_KEYS:
                if key not in graw:
                    problems.append(f"gains.{key}: required for {controller}")
                else:
                    bs[key] = _as_float(graw[key], f"gains.{key}", problems)
            if len(bs) == 3 and all(v is not None for v in bs.values()):
                try:
                    backstep = BacksteppingParams(gamma_b=bs["gamma_b"],
                                                 k_b=bs["k_b"],
                                                 delta_b=bs["delta_b"])
                except ValueError as exc:
                    problems.append(f"gains: {exc}")
    if world is not None and gains is not None and smoothed is not None:
        c_kappa = switch_offset_bound(world, gains)
        try:
            validate_smoothed_params(gains.delta, c_kappa, smoothed)
        except SynconError as exc:
            problems.extend(f"gains: {part}" for part in str(exc).split("; "))
        if backstep is not None:
            try:
                validate_backstepping_params(gains.delta, c_kappa, smoothed,
                                             backstep)
            except SynconError as exc:
                problems.append(f"gains: {exc}")

    initial = None
    iraw = raw.get("initial")
    if not isinstance(iraw, dict):
        problems.append("initial: required object")
    else:
        allowed = ["p0", "theta0"]
        if wants_smooth:
            allowed.append("eta0")
        if wants_backstep:
            allowed.append("u0")
        _reject_unknown(iraw, allowed, "initial.", problems)
        p0 = None
        if "p0" not in iraw:
            problems.append("initial.p0: required")
        else:
            p0 = _as_pair(iraw["p0"], "initial.p0", problems)
        theta0 = 0.0
        if "theta0" in iraw:
            theta0 = _as_float(iraw["theta0"], "initial.theta0", problems) or 0.0
        eta0 = np.zeros(2) if wants_smooth else None
        if wants_smooth and "eta0" in iraw:
            eta0 = _as_pair(iraw["eta0"], "initial.eta0", problems)
        u0 = None
        if wants_backstep and iraw.get("u0") is not None:
            u0 = _as_pair(iraw["u0"], "initial.u0", problems)
        if p0 is not None and world is not None:
            if obstacle_distance(world, p0) < world.epsilon:
                problems.append(
                    f"initial.p0: clearance {obstacle_distance(world, p0):.6g} "
                    f"is inside the safety margin epsilon = {world.epsilon}")
        if p0 is not None:
            initial = InitialState(p0=p0, theta0=theta0, eta0=eta0, u0=u0)

    sim = None
    sraw = raw.get("sim", {})
    if not isinstance(sraw, dict):
        problems.append("sim: must be an object")
    else:
        _reject_unknown(sraw, ("dt", "t_max", "j_max", "event_tol", "priority"),
                        "sim.", problems)
        kwargs = {"dt": 1e-3, "t_max": 10.0, "j_max": 10_000,
                  "event_tol": 1e-10}
        for key in ("dt", "t_max", "event_tol"):
            if key in sraw:
                v = _as_float(sraw[key], f"sim.{key}", problems)
                if v is not None:
                    kwargs[key] = v
        if "j_max" in sraw:
            if isinstance(sraw["j_max"], bool) or not isinstance(sraw["j_max"], int):
                problems.append(f"sim.j_max: expected an integer, got {sraw['j_max']!r}")
            else:
                kwargs["j_max"] = sraw["j_max"]
        priority = Priority.JUMP
        if "priority" in sraw:
            if sraw["priority"] not in ("jump", "flow"):
                problems.append(
                    f"sim.priority: must be 'jump' or 'flow', got {sraw['priority']!r}")
            else:
                priority = Priority(sraw["priority"])
        try:
            sim = SimConfig(priority=priority, **kwargs)
        except ValueError as exc:
            problems.append(f"sim: {exc}")

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        problems.append(f"seed: expected a non-negative integer, got {seed!r}")
        seed = 0

    expected = raw.get("expected")
    if expected is not None:
        if not isinstance(expected, dict):
            problems.append("expected: must be an object")
            expected = None
        else:
            _reject_unknown(expected, ("saddle_x", "saddle_tol"), "expected.",
                            problems)
            for key in expected:
                _as_float(expected[key], f"expected.{key}", problems)

    if problems:
        raise ValidationError([f"{source}: {p}" for p in problems])
    return ScenarioConfig(name=name, controller=controller, world=world,
                          gains=gains, initial=initial, sim=sim,
                          smoothed=smoothed, backstep=backstep, seed=seed,
                          expected=expected)


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(raw, source=str(path))


# -- building and running ----------------------------------------------------

def build_closed_loop(cfg: ScenarioConfig):
    if cfg.controller == "hybrid":
        return hybrid_closed_loop(cfg.world, cfg.gains)
    if cfg.controller == "smooth_hybrid":
        return smooth_closed_loop(cfg.world, cfg.gains, cfg.smoothed)
    if cfg.controller == "backstepped":
        return backstep_closed_loop(cfg.world, cfg.gains, cfg.smoothed,
                                    cfg.backstep)
    return gradient_closed_loop(cfg.world, cfg.gains)


def initial_packed_state(cfg: ScenarioConfig) -> np.ndarray:
    init = cfg.initial
    if cfg.controller in ("hybrid", "non_hybrid"):
        return np.array([init.p0[0], init.p0[1], init.theta0])
    eta0 = init.eta0 if init.eta0 is not None else np.zeros(2)
    if cfg.controller == "smooth_hybrid":
        return np.array([init.p0[0], init.p0[1], eta0[0], eta0[1], init.theta0])
    u0 = init.u0
    if u0 is None:
        u0 = tracked_input(cfg.world, cfg.gains, init.p0, eta0)
    return np.array([init.p0[0], init.p0[1], eta0[0], eta0[1],
                     u0[0], u0[1], init.theta0])


def _column_fns(cfg: ScenarioConfig):
    """Per-sample extractors (V, applied input) of the simulated loop."""
    world, gains = cfg.world, cfg.gains
    k_p = gains.k_p
    if cfg.controller == "hybrid":
        return (lambda v: switched_potential(world, gains, v[:2], v[2], check=False),
                lambda v: -k_p * switched_gradient_p(world, gains, v[:2], v[2],
                                                     check=False))
    if cfg.controller == "smooth_hybrid":
        sp = cfg.smoothed
        return (lambda v: tracking_potential(world, gains, sp, v[:2], v[2:4], v[4]),
                lambda v: tracked_input(world, gains, v[:2], v[2:4]))
    if cfg.controller == "backstepped":
        sp, bp = cfg.smoothed, cfg.backstep
        return (lambda v: backstep_potential(world, gains, sp, bp, v[:2], v[2:4],
                                             v[4:6], v[6]),
                lambda v: v[4:6].copy())
    return (lambda v: nav_potential(world, v[:2], check=False),
            lambda v: -k_p * nav_gradient(world, v[:2], check=False))


def governing_gap(cfg: ScenarioConfig) -> float | None:
    """Per-jump decrease floor of the controller actually simulated."""
    if cfg.controller == "hybrid":
        return cfg.gains.delta
    if cfg.controller == "smooth_hybrid":
        return cfg.smoothed.delta_s
    if cfg.controller == "backstepped":
        return cfg.backstep.delta_b
    return None


@dataclass
class JumpRow:
    t: float
    j_pre: int
    mu_pre: float
    V_pre: float
    V_post: float


@dataclass
class RunRecord:
    """One simulated scenario flattened into per-sample channels."""

    config: ScenarioConfig
    t: np.ndarray
    j: np.ndarray
    p: np.ndarray
    theta: np.ndarray | None
    eta: np.ndarray | None
    u: np.ndarray
    V: np.ndarray
    mu: np.ndarray | None
    dobs: np.ndarray
    ddest: np.ndarray
    jumps: list[JumpRow]
    termination: str
    gap: float | None
    n_clamped: int
    wall_time: float
    arc: HybridArc = field(repr=False, default=None)

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)

    @property
    def final_distance(self) -> float:
        return float(self.ddest[-1])

    @property
    def min_clearance(self) -> float:
        return float(np.min(self.dobs))

    def summary_lines(self) -> list[str]:
        cfg = self.config
        lines = [
            f"scenario {cfg.name} ({cfg.controller}): {self.termination} at "
            f"t = {self.t[-1]:.6g} after {self.n_jumps} jump(s)",
            f"  final distance to destination = {self.final_distance:.6g}",
            f"  final value V = {self.V[-1]:.6g}",
            f"  min obstacle clearance = {self.min_clearance:.6g} "
            f"(margin epsilon = {cfg.world.epsilon})",
            f"  samples = {len(self.t)}, clamped = {self.n_clamped}, "
            f"wall = {self.wall_time:.2f} s",
        ]
        if self.theta is not None:
            lines.insert(2, f"  final logic angle = {float(self.theta[-1]):.6g}")
        return lines


def run_scenario(cfg: ScenarioConfig) -> RunRecord:
    """Simulate one scenario and post-process the arc into channels."""
    start = time.perf_counter()
    spec = build_closed_loop(cfg)
    x0 = initial_packed_state(cfg)
    arc = simulate(spec, x0, cfg.sim)

    V_fn, u_fn = _column_fns(cfg)
    gap = governing_gap(cfg)
    mu_fn = None
    if gap is not None:
        in_flow = spec.in_flow_set
        mu_fn = lambda v: in_flow(v) + gap

    has_eta = cfg.controller in ("smooth_hybrid", "backstepped")
    has_theta = cfg.controller != "non_hybrid"
    world = cfg.world

    ts, js, ps, thetas, etas, us, Vs, mus, dobs, ddest = \
        [], [], [], [], [], [], [], [], [], []
    for t, j, x in arc.iter_samples():
        ts.append(t)
        js.append(j)
        ps.append((x[0], x[1]))
        if has_theta:
            thetas.append(x[-1])
        if has_eta:
            etas.append((x[2], x[3]))
        us.append(np.asarray(u_fn(x), dtype=float))
        Vs.append(V_fn(x))
        if mu_fn is not None:
            mus.append(mu_fn(x))
        dobs.append(obstacle_distance(world, x[:2]))
        ddest.append(math.hypot(x[0] - world.p_d[0], x[1] - world.p_d[1]))

    jump_rows = []
    for ev in arc.jumps:
        mu_pre = mu_fn(ev.x_pre) if mu_fn is not None else math.nan
        jump_rows.append(JumpRow(t=ev.t, j_pre=ev.j_pre, mu_pre=mu_pre,
                                 V_pre=V_fn(ev.x_pre), V_post=V_fn(ev.x_post)))

    return RunRecord(
        config=cfg,
        t=np.array(ts), j=np.array(js, dtype=int), p=np.array(ps),
        theta=np.array(thetas) if has_theta else None,
        eta=np.array(etas) if has_eta else None,
        u=np.array(us), V=np.array(Vs),
        mu=np.array(mus) if mu_fn is not None else None,
        dobs=np.array(dobs), ddest=np.array(ddest),
        jumps=jump_rows, termination=arc.termination, gap=gap,
        n_clamped=arc.n_clamped, wall_time=time.perf_counter() - start,
        arc=arc,
    )


# -- exports -----------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(record: RunRecord, path) -> None:
    """Write the per-sample channels; absent channels stay empty.

    The format is deterministic: the same config produces byte-identical
    output on every run.
    """
    rows = [CSV_HEADER]
    n = len(record.t)
    for i in range(n):
        theta = _fmt(record.theta[i]) if record.theta is not None else ""
        eta1 = _fmt(record.eta[i, 0]) if record.eta is not None else ""
        eta2 = _fmt(record.eta[i, 1]) if record.eta is not None else ""
        mu = _fmt(record.mu[i]) if record.mu is not None else ""
        rows.append(",".join([
            _fmt(record.t[i]), str(int(record.j[i])),
            _fmt(record.p[i, 0]), _fmt(record.p[i, 1]),
            theta, eta1, eta2,
            _fmt(record.u[i, 0]), _fmt(record.u[i, 1]),
            _fmt(record.V[i]), mu,
            _fmt(record.dobs[i]), _fmt(record.ddest[i]),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def write_svg(record: RunRecord, path) -> None:
    """Render the planar trajectory with the obstacle, shell, and skirt."""
    world = record.config.world
    r_skirt = world.r_o + world.r_s
    xs = np.concatenate([record.p[:, 0],
                         [world.p_o[0] - r_skirt, world.p_o[0] + r_skirt,
                          world.p_d[0]]])
    ys = np.concatenate([record.p[:, 1],
                         [world.p_o[1] - r_skirt, world.p_o[1] + r_skirt,
                          world.p_d[1]]])
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    pad = 0.08 * max(xmax - xmin, ymax - ymin, 1.0)
    xmin -= pad
    xmax += pad
    ymin -= pad
    ymax += pad
    scale = _SVG_WIDTH / (xmax - xmin)
    height = int(round((ymax - ymin) * scale))

    def sx(x): return (x - xmin) * scale
    def sy(y): return (ymax - y) * scale

    def circle(cx, cy, r, style):
        return (f'<circle cx="{sx(cx):.2f}" cy="{sy(cy):.2f}" '
                f'r="{r * scale:.2f}" {style}/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_SVG_WIDTH} {height}">',
        f'<rect width="{_SVG_WIDTH}" height="{height}" fill="#ffffff"/>',
        circle(world.p_o[0], world.p_o[1], r_skirt,
               'fill="#fdeeda" stroke="none"'),
        circle(world.p_o[0], world.p_o[1], world.r_o + world.epsilon,
               'fill="none" stroke="#c0392b" stroke-width="1" '
               'stroke-dasharray="5,4"'),
        circle(world.p_o[0], world.p_o[1], world.r_o,
               'fill="#9aa0a6" stroke="#5f6368" stroke-width="1.5"'),
    ]
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in record.p)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1a73e8" '
                 f'stroke-width="1.8"/>')
    for row in record.jumps:
        idx = int(np.searchsorted(record.t, row.t))
        idx = min(idx, len(record.t) - 1)
        parts.append(circle(record.p[idx, 0], record.p[idx, 1], 2.5 / scale,
                            'fill="#f9ab00" stroke="#b06000" stroke-width="1"'))
    parts.append(circle(record.p[0, 0], record.p[0, 1], 3.5 / scale,
                        'fill="#188038" stroke="none"'))
    d = 5.0
    parts.append(f'<g stroke="#d93025" stroke-width="2">'
                 f'<line x1="{sx(world.p_d[0]) - d:.2f}" y1="{sy(world.p_d[1]) - d:.2f}" '
                 f'x2="{sx(world.p_d[0]) + d:.2f}" y2="{sy(world.p_d[1]) + d:.2f}"/>'
                 f'<line x1="{sx(world.p_d[0]) - d:.2f}" y1="{sy(world.p_d[1]) + d:.2f}" '
                 f'x2="{sx(world.p_d[0]) + d:.2f}" y2="{sy(world.p_d[1]) - d:.2f}"/></g>')
    parts.append(f'<text x="10" y="20" font-family="sans-serif" font-size="14" '
                 f'fill="#202124">{record.config.name} '
                 f'({record.config.controller})</text>')
    parts.append('</svg>')
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# -- consistency checks ------------------------------------------------------

@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str


@dataclass
class ConsistencyReport:
    items: list[CheckItem]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        return [f"[{'PASS' if it.passed else 'FAIL'}] {it.name}: {it.detail}"
                for it in self.items]


def audit_box(cfg: ScenarioConfig):
    """Sampling box over [p | theta] covering the scene with margin."""
    pts = np.stack([cfg.world.p_o, cfg.world.p_d, cfg.initial.p0])
    lo_p = pts.min(axis=0) - 2.0
    hi_p = pts.max(axis=0) + 2.0
    tmax = cfg.gains.theta_mag_max + 0.3
    return (np.array([lo_p[0], lo_p[1], -tmax]),
            np.array([hi_p[0], hi_p[1], tmax]))


def check_scenario(cfg: ScenarioConfig, n_audit_samples: int = 200) -> ConsistencyReport:
    """Re-derive every bound of the scenario and audit the switched family."""
    world, gains = cfg.world, cfg.gains
    items: list[CheckItem] = []
    dest = world.dest_range

    items.append(CheckItem(
        "world geometry", dest > world.r_o + world.r_s,
        f"||p_d - p_o|| = {dest:.6g} > r_o + r_s = {world.r_o + world.r_s:.6g}; "
        f"0 < epsilon = {world.epsilon:.6g} < r_s = {world.r_s:.6g}"))

    gt_max = rotation_rate_bound(world)
    items.append(CheckItem(
        "angle weight bound", 0.0 < gains.gamma_theta < gt_max,
        f"gamma_theta = {gains.gamma_theta:.6g} in (0, "
        f"4*r_o*||p_d - p_o||/pi^2 = {gt_max:.6g})"))

    items.append(CheckItem(
        "candidate angles",
        bool(np.all((np.abs(gains.theta_candidates) > 0)
                    & (np.abs(gains.theta_candidates) < math.pi))),
        f"all |theta_bar| in (0, pi): {gains.theta_candidates.tolist()}"))

    gap_max = max_synergy_gap(world, gains)
    items.append(CheckItem(
        "synergy gap bound", 0.0 < gains.delta <= gap_max,
        f"delta = {gains.delta:.6g} <= (2*r_o*||p_d - p_o||/pi^2 - "
        f"gamma_theta/2)*min|theta_bar|^2 = {gap_max:.6g}"))

    c_kappa = switch_offset_bound(world, gains)
    if cfg.smoothed is not None:
        sp = cfg.smoothed
        ok = (sp.gamma_s * c_kappa < gains.delta
              and sp.delta_s <= gains.delta - sp.gamma_s * c_kappa)
        items.append(CheckItem(
            "tracker weight bounds", ok,
            f"c_kappa = (1 - cos max|theta_bar|)*||p_d - p_o||^2 = "
            f"{c_kappa:.6g}; gamma_s = {sp.gamma_s:.6g} < delta/c_kappa = "
            f"{gains.delta / c_kappa:.6g}; delta_s = {sp.delta_s:.6g} <= "
            f"delta - gamma_s*c_kappa = {gains.delta - sp.gamma_s * c_kappa:.6g}"))
    else:
        items.append(CheckItem(
            "offset spread", True,
            f"c_kappa = (1 - cos max|theta_bar|)*||p_d - p_o||^2 = {c_kappa:.6g}"))

    if cfg.backstep is not None and cfg.smoothed is not None:
        slack = gains.delta - cfg.smoothed.gamma_s * c_kappa
        items.append(CheckItem(
            "integrator gap bound", 0.0 < cfg.backstep.delta_b <= slack,
            f"delta_b = {cfg.backstep.delta_b:.6g} <= delta - gamma_s*c_kappa "
            f"= {slack:.6g}"))

    plant, q = nominal_controller(world, gains)
    try:
        p_star = find_critical_point(world)
        g_norm = float(np.linalg.norm(nav_gradient(world, p_star)))
        z_star = obstacle_distance(world, p_star)
        items.append(CheckItem(
            "stuck point", g_norm <= 1e-8,
            f"p* = ({p_star[0]:.6g}, {p_star[1]:.6g}), clearance z* = "
            f"{z_star:.6g}, ||grad V_nav(p*)|| = {g_norm:.3g}"))
        mu_star = v_excess(q, p_star, np.zeros(1))
        items.append(CheckItem(
            "excess at stuck point",
            mu_star > gains.delta and mu_star >= gap_max - 1e-9,
            f"mu(p*, 0) = {mu_star:.6g} exceeds delta = {gains.delta:.6g} "
            f"and the gap ceiling {gap_max:.6g}"))
        critical = [(p_star, np.zeros(1))]
    except SynconError as exc:
        items.append(CheckItem("stuck point", False, str(exc)))
        critical = []

    if cfg.smoothed is not None:
        d = decomposed_feedback(world, gains)
        rng = np.random.default_rng(cfg.seed)
        states = []
        while len(states) < 25:
            p = rng.uniform(-1.0, 1.0, 2) * (dest + 4.0)
            if obstacle_distance(world, p) > world.epsilon:
                th = rng.uniform(-gains.theta_mag_max, gains.theta_mag_max)
                states.append((p, np.array([th])))
        worst = check_reconstruction(q, d, states)
        items.append(CheckItem(
            "feedback reconstruction", worst <= 1e-9,
            f"max |varsigma + Upsilon sigma - kappa| = {worst:.3g} over "
            f"{len(states)} states"))

    if critical:
        lo, hi = audit_box(cfg)
        report = audit_quadruple(
            plant, q,
            sample_states=[(cfg.initial.p0.copy(), np.zeros(1))] + critical,
            critical_states=critical,
            box=(lo, hi), n_samples=n_audit_samples, seed=cfg.seed)
        items.append(CheckItem(
            "family audit", report.passed,
            f"worst flow derivative = {report.c3_worst:.3g}, critical excess "
            f"margin = {report.c4_margin:.3g}, min sampled V = {report.v_min:.3g}"))

    if cfg.expected is not None and "saddle_x" in cfg.expected and critical:
        tol = cfg.expected.get("saddle_tol", 1e-2)
        err = abs(critical[0][0][0] - cfg.expected["saddle_x"])
        items.append(CheckItem(
            "expected stuck point", err <= tol,
            f"|p*_x - {cfg.expected['saddle_x']}| = {err:.3g} <= {tol}"))

    return ConsistencyReport(items)


def compare_records(records: list[RunRecord]) -> list[str]:
    """Side-by-side terminal metrics, one line per run."""
    lines = [f"{'scenario':24s} {'controller':14s} {'jumps':>5s} "
             f"{'dist':>10s} {'V':>10s} {'min d_o':>9s} {'wall':>7s}"]
    for rec in records:
        lines.append(
            f"{rec.config.name:24s} {rec.config.controller:14s} "
            f"{rec.n_jumps:5d} {rec.final_distance:10.4g} "
            f"{float(rec.V[-1]):10.4g} {rec.min_clearance:9.4g} "
            f"{rec.wall_time:6.2f}s")
    return lines
