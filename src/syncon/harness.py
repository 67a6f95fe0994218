"""Scenario configs, runs, trace records, CSV/SVG output, consistency checks.

A scenario is a JSON file naming one of four controllers and the world,
gains, initial condition, and integration settings to drive it with.
Parsing is strict and driven by one table, FIELDS, of every field's
section, key, reader, controllers and default: unknown fields anywhere are
rejected, every parameter bound is checked by the layer chain
(navigation.layer_checks, read by bound_violations), and all problems are
reported at once in a ValidationError so a config can be fixed in one pass.

run_scenario simulates the closed loop and post-processes the arc into
flat per-sample channels (position, logic angle, tracker, applied input,
Lyapunov value, switching excess, clearances) ready for CSV export or the
hand-rolled SVG plot.  The channels are computed as arrays over the stacked
states of the whole arc (navigation.sample_channels), with numpy arithmetic
in the scalar kernels' order of operations and math's log, hypot, cos and
sin, so every value, and every exported byte, is what the per-sample scalar
helpers give.  write_csv formats bounded chunks of rows, on two cores.

check_scenario reports the parameter bounds from the same validators,
locates the stuck point of the base potential, and audits the switched
family on a sampled box, producing a line-per-check report.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .backstepping import BacksteppingParams
from .engine import HybridArc, SimConfig, simulate
from .errors import NoRootBracketed, ParseError, SynconError, ValidationError
from .navigation import (
    NavGains,
    NavigationWorld,
    backstep_closed_loop,
    decomposed_feedback,
    find_critical_point,
    gradient_closed_loop,
    hybrid_closed_loop,
    layer_checks,
    loop_gap,
    max_synergy_gap,
    nav_gradient,
    nominal_controller,
    obstacle_distance,
    sample_channels,
    smooth_closed_loop,
    tracked_input,
)
from .smoothing import SmoothedParams, check_reconstruction
from .synergy import audit_quadruple, v_excess

# The benchmark's tracer patches these generic functions on this module by
# name, so they stay importable here; the run path no longer calls them.
from .backstepping import backstep_lyapunov  # noqa: F401
from .smoothing import tracked_feedback, tracking_lyapunov  # noqa: F401

CONTROLLERS = ("hybrid", "smooth_hybrid", "non_hybrid", "backstepped")

CSV_HEADER = "t,j,px,py,theta,eta1,eta2,ux,uy,V,mu,dobs,ddest"

_SVG_WIDTH = 640  # pixels; the height follows the scene's aspect ratio

_CSV_CHUNK_ROWS = 1024  # rows formatted per write


@dataclass(frozen=True)
class InitialState:
    p0: np.ndarray
    theta0: float = 0.0
    eta0: np.ndarray | None = None
    u0: np.ndarray | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario, ready to build and simulate: ``smoothed``
    is set exactly for smooth_hybrid and backstepped, ``backstep`` for
    backstepped alone (ValueError otherwise), and the run reads these
    layers, not the controller name."""

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

    def __post_init__(self):
        if ((self.smoothed is None) == (self.controller in _SMOOTHED)
                or (self.backstep is None) == (self.controller in _BACKSTEPPED)):
            raise ValueError(f"controller {self.controller} does not match its layers")


# -- field readers: each returns the parsed value or raises ValueError -------

def _is_number(value) -> bool:
    """A JSON number: int or float, but not bool (which subclasses int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> float | None:
    """float(value), or None for inf, nan and ints too large for a float."""
    try:
        v = float(value)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def _number(value) -> float:
    if not _is_number(value):
        raise ValueError(f"expected a number, got {value!r}")
    v = _finite(value)
    if v is None:
        raise ValueError(f"must be finite, got {value!r}")
    return v


def _positive(value) -> float:
    v = _number(value)
    if not v > 0.0:
        raise ValueError(f"must be positive, got {value!r}")
    return v


def _numbers(value, pair: bool) -> np.ndarray:
    """A pair of numbers, or (pair False) a nonempty list of angles."""
    if not (isinstance(value, list) and (len(value) == 2 if pair else value)
            and all(_is_number(v) for v in value)):
        what = "a pair of numbers" if pair else "a nonempty list of angles"
        raise ValueError(f"expected {what}, got {value!r}")
    entries = [_finite(v) for v in value]
    if None in entries:
        raise ValueError(f"entries must be finite, got {value!r}")
    return np.array(entries)


_pair = functools.partial(_numbers, pair=True)
_angles = functools.partial(_numbers, pair=False)


def _optional_pair(value) -> np.ndarray | None:
    return None if value is None else _pair(value)


def _name(value) -> str:
    if not (isinstance(value, str) and value):
        raise ValueError("required nonempty string")
    return value


def _controller(value) -> str:
    if value not in CONTROLLERS:
        raise ValueError(
            f"must be one of {', '.join(CONTROLLERS)}, got {value!r}")
    return value


def _count(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _seed(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


# -- the scenario schema -----------------------------------------------------

_REQUIRED = object()  # default of a field the config must give
_OPTIONAL = object()  # default of a field that stays unset when absent

_SMOOTHED = ("smooth_hybrid", "backstepped")
_BACKSTEPPED = ("backstepped",)

# One row per field: (section, key, reader, controllers that take it,
# default).  Section "" is the top level.  A default other than the two
# markers is a JSON value, read as if the config had given it.  Rows are in
# report order.  The keys of world, gains, initial and sim are the field
# names of the objects built from them, but for Theta (theta_candidates).
FIELDS = (
    ("", "name", _name, CONTROLLERS, None),
    ("", "controller", _controller, CONTROLLERS, None),
    ("world", "r_o", _number, CONTROLLERS, _REQUIRED),
    ("world", "epsilon", _number, CONTROLLERS, _REQUIRED),
    ("world", "r_s", _number, CONTROLLERS, _REQUIRED),
    ("world", "varrho", _number, CONTROLLERS, _REQUIRED),
    ("world", "p_o", _pair, CONTROLLERS, _REQUIRED),
    ("world", "p_d", _pair, CONTROLLERS, _REQUIRED),
    ("gains", "k_p", _number, CONTROLLERS, _REQUIRED),
    ("gains", "k_theta", _number, CONTROLLERS, _REQUIRED),
    ("gains", "gamma_theta", _number, CONTROLLERS, _REQUIRED),
    ("gains", "delta", _number, CONTROLLERS, _REQUIRED),
    ("gains", "Theta", _angles, CONTROLLERS, _REQUIRED),
    ("gains", "gamma_s", _number, _SMOOTHED, _REQUIRED),
    ("gains", "k_eta", _number, _SMOOTHED, _REQUIRED),
    ("gains", "delta_s", _number, _SMOOTHED, _REQUIRED),
    ("gains", "gamma_b", _number, _BACKSTEPPED, _REQUIRED),
    ("gains", "k_b", _number, _BACKSTEPPED, _REQUIRED),
    ("gains", "delta_b", _number, _BACKSTEPPED, _REQUIRED),
    ("initial", "p0", _pair, CONTROLLERS, _REQUIRED),
    ("initial", "theta0", _number, CONTROLLERS, 0.0),
    ("initial", "eta0", _pair, _SMOOTHED, [0.0, 0.0]),
    ("initial", "u0", _optional_pair, _BACKSTEPPED, None),
    ("sim", "dt", _number, CONTROLLERS, 1e-3),
    ("sim", "t_max", _number, CONTROLLERS, 10.0),
    ("sim", "event_tol", _number, CONTROLLERS, 1e-10),
    ("sim", "j_max", _count, CONTROLLERS, 10_000),
    ("", "seed", _seed, CONTROLLERS, 0),
    ("expected", "saddle_x", _number, CONTROLLERS, _OPTIONAL),
    ("expected", "saddle_tol", _positive, CONTROLLERS, _OPTIONAL),
)

# What each section reads as when absent, as for fields; the one absent by
# default, "expected", may also be null.
_SECTIONS = {"world": _REQUIRED, "gains": _REQUIRED, "initial": _REQUIRED,
             "sim": {}, "expected": None}


def _open_section(raw: dict, section: str, controller: str,
                  problems: list) -> dict | None:
    """The section's mapping, its unknown keys reported; None if absent."""
    absent = _SECTIONS.get(section)
    obj = raw.get(section, absent) if section else raw
    if obj is None and absent is None:
        return None
    if not isinstance(obj, dict):
        problems.append(f"{section}: required object" if absent is _REQUIRED
                        else f"{section}: must be an object")
        return None
    allowed = {key for sec, key, _, controllers, _ in FIELDS
               if sec == section and controller in controllers}
    if not section:
        allowed.update(_SECTIONS)
    prefix = f"{section}." if section else ""
    problems.extend(f"{prefix}{key}: unknown field"
                    for key in obj if key not in allowed)
    return obj


def _read_fields(raw: dict, controller: str, problems: list) -> dict:
    """Every field the controller takes that reads, by path.

    Unknown keys, absent required fields and type and finiteness faults
    are appended to problems in table order.
    """
    values = {}
    sections = {}
    for section, key, reader, controllers, default in FIELDS:
        if controller not in controllers:
            continue
        if section not in sections:
            sections[section] = _open_section(raw, section, controller, problems)
        obj = sections[section]
        if obj is None:
            continue
        path = f"{section}.{key}" if section else key
        value = obj.get(key, default)
        if value is _REQUIRED:
            problems.append(f"{path}: required" if controllers == CONTROLLERS
                            else f"{path}: required for {controller}")
        elif value is not _OPTIONAL:
            try:
                values[path] = reader(value)
            except ValueError as exc:
                problems.append(f"{path}: {exc}")
    return values


def _make(cls, section: str, values: dict, problems: list,
          where: str | None = None, **keys):
    """cls from the parsed fields of section named as its own fields (or as
    keys maps them); None if one without a default did not read, or if cls
    rejects them."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        path = f"{section}.{keys.get(f.name, f.name)}"
        if path in values:
            kwargs[f.name] = values[path]
        elif f.default is dataclasses.MISSING:
            return None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        problems.append(f"{where or section}: {exc}")
        return None


def bound_violations(world: NavigationWorld, gains: NavGains,
                     smoothed: SmoothedParams | None = None,
                     backstep: BacksteppingParams | None = None) -> list[str]:
    """One line per broken bound, from navigation.layer_checks in order."""
    lines = []
    for check in layer_checks(world, gains, smoothed, backstep):
        try:
            check()
        except SynconError as exc:
            lines.extend(str(exc).split("; "))
    return lines


def parse_config(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    """Validate a raw scenario mapping; raises ValidationError on any defect."""
    if not isinstance(raw, dict):
        raise ValidationError([f"{source}: top level must be an object"])
    problems: list[str] = []
    # An unknown controller is reported; the rest is read as for "hybrid".
    controller = raw.get("controller")
    if controller not in CONTROLLERS:
        controller = "hybrid"
    values = _read_fields(raw, controller, problems)

    world = _make(NavigationWorld, "world", values, problems)
    gains = _make(NavGains, "gains", values, problems, where="gains.Theta",
                  theta_candidates="Theta")
    smoothed = _make(SmoothedParams, "gains", values, problems)
    backstep = _make(BacksteppingParams, "gains", values, problems)
    sim = _make(SimConfig, "sim", values, problems)
    initial = _make(InitialState, "initial", values, problems)
    if world is not None and gains is not None:
        problems.extend(f"gains: {line}" for line in
                        bound_violations(world, gains, smoothed, backstep))
    if world is not None and initial is not None:
        clearance = obstacle_distance(world, initial.p0)
        if clearance < world.epsilon:
            problems.append(
                f"initial.p0: clearance {clearance:.6g} is inside the safety "
                f"margin epsilon = {world.epsilon}")

    if problems:
        raise ValidationError([f"{source}: {p}" for p in problems])
    return ScenarioConfig(name=values["name"], controller=controller,
                          world=world, gains=gains, initial=initial, sim=sim,
                          smoothed=smoothed, backstep=backstep,
                          seed=values["seed"], expected=raw.get("expected"))


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer literal past Python's digit limit,
            # or nesting deeper than the recursion limit.
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
    parts = [init.p0]
    if cfg.smoothed is not None:
        parts.append(init.eta0)
    if cfg.backstep is not None:
        u0 = init.u0
        if u0 is None:
            u0 = tracked_input(cfg.world, cfg.gains, init.p0, init.eta0)
        parts.append(u0)
    return np.concatenate(parts + [[init.theta0]])


def governing_gap(cfg: ScenarioConfig) -> float | None:
    """Per-jump decrease floor: navigation.loop_gap, None for non_hybrid."""
    if cfg.controller == "non_hybrid":
        return None
    return loop_gap(cfg.gains, cfg.smoothed, cfg.backstep)


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

    gap = governing_gap(cfg)
    segments = arc.segments
    xs = np.concatenate([seg.xs for seg in segments])
    V, u, mu, dobs, ddest = sample_channels(cfg.world, cfg.gains, xs, gap,
                                            cfg.smoothed, cfg.backstep)
    jump_rows = []
    if arc.jumps:
        # Jump k closes segment k on x_pre and opens segment k + 1 on x_post,
        # so its channels are the samples on either side of that segment end.
        post = np.cumsum([len(seg.ts) for seg in segments[:-1]])
        jump_rows = [JumpRow(t=ev.t, j_pre=ev.j_pre, mu_pre=m, V_pre=vp, V_post=vq)
                     for ev, m, vp, vq in zip(arc.jumps, mu[post - 1].tolist(),
                                              V[post - 1].tolist(), V[post].tolist())]

    return RunRecord(
        config=cfg,
        t=np.concatenate([seg.ts for seg in segments]),
        j=np.concatenate([np.full(len(seg.ts), seg.j, dtype=int)
                          for seg in segments]),
        p=xs[:, :2], theta=None if gap is None else xs[:, -1],
        eta=None if cfg.smoothed is None else xs[:, 2:4],
        u=u, V=V, mu=mu, dobs=dobs, ddest=ddest,
        jumps=jump_rows, termination=arc.termination, gap=gap,
        n_clamped=arc.n_clamped, wall_time=time.perf_counter() - start,
        arc=arc,
    )


# -- exports -----------------------------------------------------------------

def write_csv(record: RunRecord, path) -> None:
    """Write the per-sample channels; absent channels stay empty.

    Floats are printed with %.17g, so the same config produces
    byte-identical output on every run.  Rows are formatted with one format
    string, _CSV_CHUNK_ROWS at a time, which bounds the text this process
    holds at once.  From two chunks on, a forked worker formats the second
    half of the rows into a pipe while this process writes the first, then
    the pipe is copied in: the same bytes.  The worker joins its whole half
    and writes it once, since this process reads the pipe only after its
    own half: a worker that wrote each chunk would stall on the full pipe
    (64 KiB on Linux, less than one chunk) and format nothing meanwhile.
    The worker is held to the usable CPUs other than the one this process
    runs on, since a scheduler need not move a forked child off its
    parent's CPU; this process is never pinned.  With one usable CPU,
    another live thread (the child could deadlock), no os.sched_setaffinity
    or no readable /proc/self/stat, or where os.fork fails, one process
    writes them all.

    threading.active_count() sees Python threads only, not a native pool
    such as OpenBLAS's; Python 3.12 and later warn when such a process
    forks.  The threshold and the pinning were measured on one 2-core host
    whose cpuset does not balance load, under Python 3.11 only: there the
    forked export took 10% less time at 2048 rows and 26-41% less from
    4096 to 32768 rows.
    """
    eta, j = record.eta, record.j
    columns = [record.t, j, record.p[:, 0], record.p[:, 1], record.theta,
               None if eta is None else eta[:, 0],
               None if eta is None else eta[:, 1],
               record.u[:, 0], record.u[:, 1], record.V, record.mu,
               record.dobs, record.ddest]
    row = ",".join("" if col is None else "%d" if col is j else "%.17g"
                   for col in columns) + "\n"
    present = [col for col in columns if col is not None]

    def chunks(lo, hi):  # rows lo:hi, _CSV_CHUNK_ROWS formatted to a string
        for a in range(lo, hi, _CSV_CHUNK_ROWS):
            b = min(a + _CSV_CHUNK_ROWS, hi)
            yield "".join([row % v for v in zip(*[c[a:b].tolist() for c in present])])

    n = len(record.t)
    here = (_cpu_now() if n >= 2 * _CSV_CHUNK_ROWS
            and threading.active_count() == 1 else None)
    others = [] if here is None else sorted(os.sched_getaffinity(0) - {here})
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        worker = _fork_csv_worker(chunks(n // 2, n), others) if others else None
        if worker is None:
            fh.writelines(chunks(0, n))
            return
        pid, pipe = worker
        try:
            fh.writelines(chunks(0, n // 2))
            fh.flush()
            shutil.copyfileobj(pipe, fh.buffer)
        finally:
            pipe.close()  # a worker still writing then exits
            status = os.waitpid(pid, 0)[1]
    if status:
        raise OSError(f"{path}: the CSV worker ended with wait status {status}"
                      " (its traceback is on stderr)")


def _cpu_now() -> int | None:
    """The CPU this process is running on, read from /proc/self/stat
    (field 39, after the parenthesised command name); None where
    os.sched_setaffinity is missing or the file cannot be read."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _fork_csv_worker(texts, cpus):
    """(pid, pipe) of a forked worker, held to cpus, that joins the strings
    texts yields and writes them to a pipe; pipe is its read end, a binary
    file.  None where os.fork fails (a process limit, no memory).

    The worker touches no file object of the caller and always ends in
    os._exit, so no buffer the caller holds is written twice.  A worker that
    fails writes its traceback to file descriptor 2 and exits with status 1.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(r)  # so that it gets EPIPE once the caller closes
            os.sched_setaffinity(0, cpus)
            with open(w, "w") as out:
                out.write("".join(texts))
            os._exit(0)
        except BaseException:
            import traceback  # only a failing worker needs it
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(1)
    os.close(w)  # the worker's copy is the only writer
    return pid, open(r, "rb")


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
    pts = " ".join([f"{x:.2f},{y:.2f}" for x, y in
                    zip(sx(record.p[:, 0]).tolist(), sy(record.p[:, 1]).tolist())])
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
    title = f"{record.config.name} ({record.config.controller})"
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts.append(f'<text x="10" y="20" font-family="sans-serif" font-size="14" '
                 f'fill="#202124">{title}</text>')
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


def nominal_family(cfg: ScenarioConfig):
    """(plant, q, critical, note): cfg's nominal switched family, the
    critical states for its audit, and why they are empty.

    critical holds the stuck point of the base potential at theta = 0, and
    note is None; where find_critical_point brackets no stuck point,
    critical is empty and note is its reason.
    """
    plant, q = nominal_controller(cfg.world, cfg.gains)
    try:
        p_star = find_critical_point(cfg.world)
    except NoRootBracketed as exc:
        return plant, q, [], str(exc)
    return plant, q, [(p_star, np.zeros(1))], None


def check_scenario(cfg: ScenarioConfig, n_audit_samples: int = 200) -> ConsistencyReport:
    """Check the parameter bounds, the stuck point and the switched family."""
    world, gains = cfg.world, cfg.gains
    items: list[CheckItem] = []
    dest = world.dest_range

    broken = bound_violations(world, gains, cfg.smoothed, cfg.backstep)
    items.append(CheckItem("parameter bounds", not broken,
                           "; ".join(broken) or "every layer bound holds"))

    gap_max = max_synergy_gap(world, gains)
    plant, q, critical, note = nominal_family(cfg)
    if critical:
        p_star = critical[0][0]
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
    else:
        items.append(CheckItem("stuck point", False, note))

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
