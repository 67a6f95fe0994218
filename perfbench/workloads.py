"""The three benchmark workloads and the checks that gate their arcs.

Each workload is built from a seed, sets itself up (``setup``), and then runs
identical passes (``run_pass``).  A pass times only calls into the program;
the checks on each arc run between timed calls and are not counted.
``run_pass(begin_arc)`` calls ``begin_arc(key)`` right before each arc.

    demo_scenarios  the six shipped configs through ``syncon run --csv --svg``
                    and ``syncon check``, called in-process via ``cli.main``
    ring_sweep      seeded starts on a ring around p_d, simulated with the
                    hybrid and smooth loops (two-candidate family) at a short
                    horizon; ``engine.simulate`` only
    event_storm     seeded two-mode hysteresis thermostats through
                    ``engine.simulate``; every switch is located by bisection

Why each workload was chosen, and which layer each should stress, is in
NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from syncon import cli, engine, harness, navigation, smoothing

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

TERMINATIONS = (engine.TERM_T_MAX, engine.TERM_J_MAX, engine.TERM_DEAD_END)

# Largest rise of V between consecutive flow samples that still counts as
# "non-increasing"; the same allowance as acceptance criterion 4.
V_RISE_TOL = 1e-6
# Slack on the per-jump drop of V and on the clearance floor.
GAP_TOL = 1e-9
CLEARANCE_TOL = 1e-9
# Largest per-component distance of an endpoint from its recorded reference.
ENDPOINT_TOL = 1e-6
# Largest distance of a thermostat switching time from its closed form.
SWITCH_TIME_TOL = 1e-5

DEMO_CONFIGS = ("fig2_check", "fig5_backstep", "fig5_hybrid",
                "fig5_hybrid_offset", "fig5_nonhybrid", "fig5_smooth")

RING_RADIUS = 12.0
RING_GRID = 96          # reference endpoints exist for each grid angle
RING_STARTS = 12        # starts per pass, equally spaced on the grid
RING_THETA = [-0.2, 0.2]
RING_LOOPS = {          # loop -> (shipped config it derives from, horizon)
    "hybrid": ("fig5_hybrid", 1.5),
    "smooth": ("fig5_smooth", 0.5),
}

THERMO_LOW, THERMO_HIGH = 0.9, 1.1
THERMO_DT = 0.01
THERMO_T_MAX = 50.0
THERMO_ARCS = 16        # thermostats per pass


@dataclass
class ArcResult:
    """One timed arc: its input key, times, size, and any failed checks."""

    key: str
    seconds: float
    # Time of further timed calls that belong to the pass but not the arc;
    # they start where the arc ends.
    extra_s: float = 0.0
    # perf_counter() at the start of the arc.
    start: float = 0.0
    samples: int = 0
    jumps: int = 0
    problems: list[str] = field(default_factory=list)
    # Exact outputs that must repeat from pass to pass.
    fingerprint: tuple = ()


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def endpoint_problems(got: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return ["no reference endpoint recorded"]
    out = []
    if set(got) != set(ref):
        return [f"endpoint fields {sorted(got)} differ from reference {sorted(ref)}"]
    for name, value in ref.items():
        if not abs(got[name] - value) <= ENDPOINT_TOL:
            out.append(f"endpoint {name} = {got[name]!r}, reference {value!r} "
                       f"(tolerance {ENDPOINT_TOL:g})")
    return out


def lyapunov_problems(j: np.ndarray, V: np.ndarray, jump_drops, gap,
                      clearance: float, epsilon: float) -> list[str]:
    """V non-increasing along flow samples, each jump dropping V by the gap,
    and the clearance floor."""
    out = []
    same = j[1:] == j[:-1]
    if same.any():
        rise = float(np.max(np.diff(V)[same]))
        if rise > V_RISE_TOL:
            out.append(f"V rises by {rise:.3g} along a flow")
    for drop in jump_drops:
        if gap is None or drop < gap - GAP_TOL:
            out.append(f"jump drops V by {drop:.6g}, gap {gap}")
    if clearance < epsilon - CLEARANCE_TOL:
        out.append(f"clearance {clearance:.6g} below epsilon {epsilon}")
    return out


def csv_columns(text: str) -> dict[str, np.ndarray] | None:
    """Columns of a ``syncon run --csv`` file by header name; empty cells
    are NaN.  None when the header is not the expected one."""
    lines = text.splitlines()
    if not lines or lines[0] != harness.CSV_HEADER:
        return None
    rows = np.array([[float(c) if c else math.nan for c in line.split(",")]
                     for line in lines[1:]])
    return {c: rows[:, i] for i, c in enumerate(lines[0].split(","))}


def demo_endpoint(col: dict[str, np.ndarray]) -> dict[str, float]:
    """Last-sample state channels of a demo CSV, skipping absent ones."""
    names = ("px", "py", "theta", "eta1", "eta2", "ux", "uy", "V")
    return {c: float(col[c][-1]) for c in names if not math.isnan(col[c][-1])}


def ring_endpoint(arc: engine.HybridArc) -> dict[str, float]:
    return {f"x{i}": float(v) for i, v in enumerate(arc.final_state)}


class DemoScenarios:
    """All six shipped configs, run and checked the way users run them."""

    name = "demo_scenarios"

    def __init__(self, seed: int):
        order = np.random.default_rng(seed).permutation(len(DEMO_CONFIGS))
        self.configs = [DEMO_CONFIGS[i] for i in order]
        self.reference = load_reference()["demo_scenarios"]
        self.raw = {}
        for name in self.configs:
            with open(CONFIG_DIR / f"{name}.json") as fh:
                self.raw[name] = json.load(fh)
        self.out_dir = OUT_DIR / "demo"
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def setup(self, wrap_spec=None):
        """Nothing to build ahead: every ``syncon run`` parses and builds."""

    def run_pass(self, begin_arc=None) -> list[ArcResult]:
        arcs = []
        for name in self.configs:
            if begin_arc:
                begin_arc(name)
            cfg_path = str(CONFIG_DIR / f"{name}.json")
            csv_path = self.out_dir / f"{name}.csv"
            svg_path = self.out_dir / f"{name}.svg"
            argv = ["run", cfg_path, "--csv", str(csv_path), "--svg", str(svg_path)]
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink):
                    t0 = perf_counter()
                    rc = cli.main(argv)
                    t1 = perf_counter()
                    rc_check = cli.main(["check", cfg_path])
                    t2 = perf_counter()
            except Exception as exc:  # an escaping exception is a failed arc
                arcs.append(ArcResult(name, 0.0, problems=[f"raised {exc!r}"]))
                continue
            arc = ArcResult(name, t1 - t0, extra_s=t2 - t1, start=t0)
            if rc != 0 or rc_check != 0:
                arc.problems.append(f"exit codes run={rc} check={rc_check}")
            else:
                self._check_outputs(name, sink.getvalue(), csv_path, svg_path,
                                    arc)
            arcs.append(arc)
        return arcs

    def _check_outputs(self, name, summary: str, csv_path: Path,
                       svg_path: Path, arc: ArcResult) -> None:
        found = re.search(r": (\S+) at t = ", summary)
        if found is None or found.group(1) not in TERMINATIONS:
            arc.problems.append("summary names no recorded termination")
        text = csv_path.read_text()
        svg = svg_path.read_text()
        col = csv_columns(text)
        if col is None:
            arc.problems.append("CSV header is missing")
            return
        raw = self.raw[name]
        j = col["j"].astype(int)
        V = col["V"]
        pre = np.flatnonzero(j[1:] != j[:-1])
        drops = V[pre] - V[pre + 1]
        gains = raw["gains"]
        gap = {"hybrid": gains["delta"], "smooth_hybrid": gains.get("delta_s"),
               "backstepped": gains.get("delta_b")}.get(raw["controller"])
        arc.samples = len(j)
        arc.jumps = int(j[-1])
        if abs(col["t"][-1] - raw["sim"]["t_max"]) > 1e-9:
            arc.problems.append(f"arc ends at t = {col['t'][-1]!r}, not t_max")
        arc.problems += lyapunov_problems(
            j, V, drops, gap, float(np.min(col["dobs"])), raw["world"]["epsilon"])
        arc.problems += endpoint_problems(demo_endpoint(col),
                                          self.reference.get(name))
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
                and "<polyline" in svg):
            arc.problems.append("SVG is malformed")
        arc.fingerprint = (arc.samples, arc.jumps, len(text), len(svg),
                           text[text.rstrip().rfind("\n") + 1:])


def ring_configs() -> dict:
    """Parsed configs of the ring loops, derived from the shipped ones."""
    cfgs = {}
    for loop, (base, t_max) in RING_LOOPS.items():
        with open(CONFIG_DIR / f"{base}.json") as fh:
            raw = json.load(fh)
        raw["name"] = f"ring_{loop}"
        raw["gains"]["Theta"] = RING_THETA
        raw["sim"]["t_max"] = t_max
        cfgs[loop] = harness.parse_config(raw, source=raw["name"])
    return cfgs


def ring_start(cfg, k: int) -> np.ndarray:
    """Packed initial state of grid start k on the ring around p_d."""
    ang = 2.0 * math.pi * k / RING_GRID
    x0 = harness.initial_packed_state(cfg)
    x0[0] = cfg.world.p_d[0] + RING_RADIUS * math.cos(ang)
    x0[1] = cfg.world.p_d[1] + RING_RADIUS * math.sin(ang)
    return x0


def ring_arc_values(loop: str, cfg, q, d, arc: engine.HybridArc):
    """(j, V) per sample and the V drop of each jump, from public maps."""
    world, gains = cfg.world, cfg.gains
    if loop == "hybrid":
        def V(x):
            return navigation.switched_potential(world, gains, x[:2], x[2],
                                                 check=False)
    else:
        sp = cfg.smoothed

        def V(x):
            return smoothing.tracking_lyapunov(q, d, sp, x[:2], x[2:4], x[4:])
    js = np.concatenate([np.full(len(seg.ts), seg.j) for seg in arc.segments])
    Vs = np.array([V(x) for seg in arc.segments for x in seg.xs])
    drops = [V(ev.x_pre) - V(ev.x_post) for ev in arc.jumps]
    return js, Vs, drops


class RingSweep:
    """Seeded ring starts through both loops; one spec per loop, reused."""

    name = "ring_sweep"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        step = RING_GRID // RING_STARTS
        offset = int(rng.integers(step))
        ks = [offset + step * i for i in range(RING_STARTS)]
        self.starts = [(loop, k) for k in rng.permutation(ks)
                       for loop in RING_LOOPS]
        self.reference = load_reference()["ring_sweep"]
        self.setup()

    def setup(self, wrap_spec=None):
        """Parse the derived configs and build one closed loop per loop."""
        self.cfgs = ring_configs()
        self.specs = {loop: harness.build_closed_loop(cfg)
                      for loop, cfg in self.cfgs.items()}
        cfg = self.cfgs["smooth"]
        self.q = navigation.nominal_controller(cfg.world, cfg.gains)[1]
        self.d = navigation.decomposed_feedback(cfg.world, cfg.gains)

    def run_pass(self, begin_arc=None) -> list[ArcResult]:
        arcs = []
        for loop, k in self.starts:
            cfg = self.cfgs[loop]
            x0 = ring_start(cfg, k)
            key = f"{loop}@{k}"
            if begin_arc:
                begin_arc(key)
            try:
                t0 = perf_counter()
                arc = engine.simulate(self.specs[loop], x0, cfg.sim)
                t1 = perf_counter()
            except Exception as exc:  # an escaping exception is a failed arc
                arcs.append(ArcResult(key, 0.0, problems=[f"raised {exc!r}"]))
                continue
            res = ArcResult(key, t1 - t0, start=t0, samples=arc.total_samples,
                            jumps=arc.n_jumps)
            if arc.termination not in TERMINATIONS:
                res.problems.append(f"no recorded termination: {arc.termination!r}")
            js, Vs, drops = ring_arc_values(loop, cfg, self.q, self.d, arc)
            xs = np.concatenate([seg.xs for seg in arc.segments])
            clearance = float(np.min(np.hypot(xs[:, 0] - cfg.world.p_o[0],
                                              xs[:, 1] - cfg.world.p_o[1]))
                              - cfg.world.r_o)
            gap = cfg.gains.delta if loop == "hybrid" else cfg.smoothed.delta_s
            res.problems += lyapunov_problems(js, Vs, drops, gap, clearance,
                                              cfg.world.epsilon)
            res.problems += endpoint_problems(ring_endpoint(arc),
                                              self.reference.get(key))
            res.fingerprint = (res.samples, res.jumps, arc.termination,
                               arc.final_state.tobytes())
            arcs.append(res)
        return arcs


def thermostat_spec() -> engine.HybridSystemSpec:
    """Two-mode hysteresis thermostat over [x, q]: xdot = -x + 2q.

    Heating (q = 1) flows while x <= 1.1 and switches off at 1.1; cooling
    (q = 0) flows while x >= 0.9 and switches on at 0.9.
    """
    def flow(v):
        return np.array([-v[0] + 2.0 * v[1], 0.0])

    def jump(v):
        return [np.array([v[0], 1.0 - v[1]])]

    def in_flow(v):
        return v[0] - THERMO_HIGH if v[1] > 0.5 else THERMO_LOW - v[0]

    def in_jump(v):
        return THERMO_HIGH - v[0] if v[1] > 0.5 else v[0] - THERMO_LOW

    return engine.HybridSystemSpec(dim=2, flow_map=flow, jump_map=jump,
                                   in_flow_set=in_flow, in_jump_set=in_jump)


def thermostat_switch_times(x0: float, q0: int, t_max: float) -> list[float]:
    """Closed-form switching times of the thermostat from (x0, q0).

    Heating from a to b takes ln((2 - a)/(2 - b)), cooling from a to b takes
    ln(a/b); both halves of the 0.9 <-> 1.1 cycle take ln(11/9).
    """
    half = math.log(THERMO_HIGH / THERMO_LOW)
    if q0 == 1:
        outside = x0 >= THERMO_HIGH
        first = math.log(x0 / THERMO_LOW) if outside else \
            math.log((2.0 - x0) / (2.0 - THERMO_HIGH))
    else:
        outside = x0 <= THERMO_LOW
        first = math.log((2.0 - x0) / (2.0 - THERMO_HIGH)) if outside else \
            math.log(x0 / THERMO_LOW)
    times = [0.0] if outside else []
    t = first
    while t <= t_max:
        times.append(t)
        t += half
    return times


class EventStorm:
    """Seeded thermostats from random temperatures and modes."""

    name = "event_storm"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inits = [(float(rng.uniform(0.5, 1.5)), int(rng.integers(2)))
                      for _ in range(THERMO_ARCS)]
        self.sim = engine.SimConfig(dt=THERMO_DT, t_max=THERMO_T_MAX)
        self.setup()

    def setup(self, wrap_spec=None):
        spec = thermostat_spec()
        self.spec = wrap_spec(spec, "model") if wrap_spec else spec

    def run_pass(self, begin_arc=None) -> list[ArcResult]:
        arcs = []
        for x0, q0 in self.inits:
            key = f"x0={x0!r},q0={q0}"
            if begin_arc:
                begin_arc(key)
            try:
                t0 = perf_counter()
                arc = engine.simulate(self.spec, np.array([x0, float(q0)]),
                                      self.sim)
                t1 = perf_counter()
            except Exception as exc:  # an escaping exception is a failed arc
                arcs.append(ArcResult(key, 0.0, problems=[f"raised {exc!r}"]))
                continue
            res = ArcResult(key, t1 - t0, start=t0, samples=arc.total_samples,
                            jumps=arc.n_jumps)
            if arc.termination != engine.TERM_T_MAX:
                res.problems.append(f"termination {arc.termination!r}, not t_max")
            t_max = self.sim.t_max
            got = [ev.t for ev in arc.jumps]
            expected = thermostat_switch_times(x0, q0, t_max + SWITCH_TIME_TOL)
            # A switch within the tolerance of t_max may land on either side.
            if len(expected) == len(got) + 1 \
                    and expected[-1] > t_max - SWITCH_TIME_TOL:
                expected.pop()
            if len(got) != len(expected):
                res.problems.append(f"{len(got)} switches, closed form "
                                    f"{len(expected)}")
            else:
                err = max((abs(a - b) for a, b in zip(got, expected)), default=0.0)
                if err > SWITCH_TIME_TOL:
                    res.problems.append(f"switching time off by {err:.3g}")
            res.fingerprint = (res.samples, res.jumps, arc.final_state.tobytes())
            arcs.append(res)
        return arcs


WORKLOADS = {w.name: w for w in (DemoScenarios, RingSweep, EventStorm)}
