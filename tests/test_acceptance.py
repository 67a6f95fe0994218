"""Acceptance gate: end-to-end checks over the shipped scenario configs.

Each criterion test registers a PASS/FAIL line (printed in the terminal
summary) before asserting, so the gate's standing is visible even when a
criterion is red.  Two criteria are known-red at the shipped horizons: the
demo gains settle the logic angle at rate k_theta * gamma_theta of about
0.04/s, so the position cannot close on the destination within t_max = 10.
The long-horizon companion tests below show both closed loops arriving and
the angle settling when run to t = 160; the sweep tests probe robustness
from a ring of start positions.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import CONFIG_DIR, load_tool, record_criterion, toy_scalar_pieces
from syncon.backstepping import backstepped_quadruple
from syncon.engine import HybridSystemSpec, SimConfig, simulate, step_flow
from syncon.harness import (
    build_closed_loop,
    check_scenario,
    load_config,
    run_scenario,
    write_csv,
)
from syncon.navigation import (
    _dphi,
    _phi,
    decomposed_feedback,
    find_critical_point,
    hybrid_closed_loop,
    max_synergy_gap,
    nav_gradient,
    nominal_controller,
    obstacle_distance,
    smooth_closed_loop,
    switch_offset_bound,
    switched_gradient_p,
    switched_gradient_theta,
    switched_potential,
)
from syncon.smoothing import (
    sigma_time_derivative,
    tracked_feedback,
    tracking_lyapunov,
)
from syncon.backstepping import reference_time_derivative
from syncon.synergy import assemble_closed_loop
from syncon import numdiff

SCENARIOS = ("fig5_hybrid", "fig5_smooth", "fig5_nonhybrid", "fig5_backstep",
             "fig5_hybrid_offset", "fig2_check")


@pytest.fixture(scope="module")
def records():
    return {name: run_scenario(load_config(CONFIG_DIR / f"{name}.json"))
            for name in SCENARIOS}


@pytest.fixture(scope="module")
def long_records(records):
    """Continue the two fig5 closed loops from t = 10 out to t = 160."""
    out = {}
    for name in ("fig5_hybrid", "fig5_smooth"):
        rec = records[name]
        spec = build_closed_loop(rec.config)
        arc2 = simulate(spec, rec.arc.final_state,
                        SimConfig(dt=0.01, t_max=150.0))
        world = rec.config.world
        t2 = np.concatenate([seg.ts for seg in arc2.segments])
        xs2 = np.concatenate([seg.xs for seg in arc2.segments])
        dist2 = [math.hypot(x[0] - world.p_d[0], x[1] - world.p_d[1])
                 for x in xs2]
        out[name] = (
            np.concatenate([rec.t, 10.0 + t2]),
            np.concatenate([rec.ddest, dist2]),
            np.concatenate([rec.theta, xs2[:, -1]]),
        )
    return out


def reversed_spec(spec: HybridSystemSpec) -> HybridSystemSpec:
    """Same flow integrated backward, for central differences in time."""
    return HybridSystemSpec(
        dim=spec.dim,
        flow_map=lambda v: [-a for a in spec.flow_map(v)],
        jump_map=lambda v: [],
        in_flow_set=lambda v: -1.0,
        in_jump_set=lambda v: 1.0,
    )


def flow_samples(arc, in_flow, t_min=0.5, stride=500, boundary=-1e-5):
    """Interior flow samples of an arc, past the initial transient."""
    ts = np.concatenate([seg.ts for seg in arc.segments])[::stride]
    xs = np.concatenate([seg.xs for seg in arc.segments])[::stride]
    return [x.copy() for t, x in zip(ts, xs)
            if t >= t_min and in_flow(x) <= boundary]


def test_criterion_1_stuck_point_location():
    cfg = load_config(CONFIG_DIR / "fig2_check.json")
    start = time.perf_counter()
    p_star = find_critical_point(cfg.world)
    elapsed = time.perf_counter() - start
    err = abs(float(p_star[0]) - 5.6865)
    g_norm = float(np.linalg.norm(nav_gradient(cfg.world, p_star)))
    ok = err <= 2e-2 and g_norm <= 1e-8 and elapsed < 1.0
    record_criterion(
        1, "stuck point of the narrow-clearance world", ok,
        f"p*_x = {p_star[0]:.6f}, offset {err:.2e} <= 2e-2, "
        f"||grad|| = {g_norm:.1e} <= 1e-8, {elapsed * 1e3:.0f} ms")
    assert err <= 2e-2
    assert g_norm <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_parameter_chain():
    start = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "fig5_smooth.json")
    world, gains, sp = cfg.world, cfg.gains, cfg.smoothed

    gap_max = max_synergy_gap(world, gains)
    by_hand = ((2.0 * world.r_o * world.dest_range / math.pi ** 2
                - 0.5 * gains.gamma_theta)
               * float(np.min(np.abs(gains.theta_candidates))) ** 2)
    c_kappa = switch_offset_bound(world, gains)
    ck_hand = (1.0 - math.cos(0.2)) * world.dest_range ** 2

    report = check_scenario(cfg, n_audit_samples=60)
    elapsed = time.perf_counter() - start

    checks = {
        "gap formula self-consistent": abs(gap_max - by_hand) <= 1e-12,
        "gap value": abs(gap_max - 0.040529) <= 1e-6,
        "delta under the ceiling": gains.delta <= gap_max,
        "offset bound self-consistent": abs(c_kappa - ck_hand) <= 1e-12,
        "offset bound value": abs(c_kappa - 0.498337) <= 2e-6,
        "gamma_s bound": sp.gamma_s < gains.delta / c_kappa,
        "delta_s bound": sp.delta_s <= gains.delta - sp.gamma_s * c_kappa,
        "scenario check": report.passed,
        "runtime": elapsed < 1.0,
    }
    record_criterion(
        2, "parameter chain of the demo scenario", all(checks.values()),
        f"gap ceiling = {gap_max:.9f}, c_kappa = {c_kappa:.9f}, "
        f"slack = {gains.delta - sp.gamma_s * c_kappa:.6f} >= "
        f"delta_s = {sp.delta_s}, check {'ok' if report.passed else 'FAILED'}, "
        f"{elapsed * 1e3:.0f} ms")
    for name, ok in checks.items():
        assert ok, name


def test_criterion_3_reach_and_contrast(records):
    hy = records["fig5_hybrid"]
    sm = records["fig5_smooth"]
    nh = records["fig5_nonhybrid"]

    hy_reach = float(np.min(hy.ddest))
    sm_reach = float(np.min(sm.ddest))
    nh_grad = float(np.linalg.norm(nav_gradient(nh.config.world, nh.p[-1],
                                                check=False)))
    wall = hy.wall_time + sm.wall_time + nh.wall_time

    ok_jumps = hy.n_jumps >= 1 and sm.n_jumps >= 1
    ok_plain = nh.final_distance > 1.0 and nh_grad <= 1e-6
    ok_wall = wall < 5.0
    ok_reach = hy_reach <= 0.05 and sm_reach <= 0.05
    record_criterion(
        3, "arrival inside t = 10 plus the stalled plain-descent contrast",
        ok_reach and ok_jumps and ok_plain and ok_wall,
        f"hybrid dist(10) = {hy.final_distance:.3f}, smooth dist(10) = "
        f"{sm.final_distance:.3f} (threshold 0.05); jumps {hy.n_jumps}/"
        f"{sm.n_jumps}; plain dist = {nh.final_distance:.2f} > 1 with "
        f"||grad|| = {nh_grad:.1e}; wall {wall:.2f} s < 5. The angle decays "
        f"at k_theta*gamma_theta ~ 0.04/s, so arrival takes t ~ 80; the "
        f"long-horizon companion tests show both loops converging by t = 90")
    assert ok_jumps
    assert ok_plain
    assert ok_wall
    assert hy_reach <= 0.05, (
        f"hybrid closest approach {hy_reach:.3f} misses the 0.05 threshold "
        f"inside t_max = 10; see test_long_horizon_hybrid_converges")
    assert sm_reach <= 0.05, (
        f"smooth closest approach {sm_reach:.3f} misses the 0.05 threshold "
        f"inside t_max = 10; see test_long_horizon_smooth_converges")


def test_criterion_4_lyapunov_bookkeeping(records):
    worst_rise = -math.inf
    worst_drop_slack = math.inf
    ok = True
    for name, rec in records.items():
        dv = np.diff(rec.V)
        flowing = np.diff(rec.j) == 0
        rise = float(np.max(dv[flowing])) if np.any(flowing) else 0.0
        worst_rise = max(worst_rise, rise)
        if rise > 1e-6:
            ok = False
        if rec.gap is not None:
            for row in rec.jumps:
                slack = (row.V_pre - row.V_post) - (rec.gap - 1e-6)
                worst_drop_slack = min(worst_drop_slack, slack)
                if slack < 0.0:
                    ok = False
            v_init = rec.V[0]
            if rec.jumps and rec.jumps[0].t == 0.0 and rec.jumps[0].j_pre == 0:
                v_init = rec.jumps[0].V_pre
            if rec.n_jumps > math.ceil(v_init / rec.gap):
                ok = False
    record_criterion(
        4, "value function bookkeeping on every shipped arc", ok,
        f"worst flow-sample increase = {worst_rise:.2e} (allowed 1e-6); "
        f"worst jump-drop slack over the floor = {worst_drop_slack:.3f}")
    assert ok
    assert worst_rise <= 1e-6
    assert worst_drop_slack >= 0.0


def test_criterion_5_safety_margin(records):
    ok = True
    details = []
    for name, rec in records.items():
        eps = rec.config.world.epsilon
        margin = rec.min_clearance
        details.append(f"{name}: {margin:.3f}")
        if margin < eps - 1e-9:
            ok = False
    record_criterion(
        5, "obstacle clearance stays above the margin", ok,
        "min clearance " + ", ".join(details))
    assert ok


def test_criterion_6_derivative_checks(records):
    cfg = records["fig5_hybrid"].config
    world, gains = cfg.world, cfg.gains
    rng = np.random.default_rng(19)

    # Part one: pointwise gradients against central differences.
    n_states = 0
    worst_rel = 0.0
    while n_states < 110:
        p = rng.uniform(-15.0, 15.0, 2)
        if obstacle_distance(world, p) < world.epsilon + 0.05:
            continue
        th = float(rng.uniform(-0.25, 0.25))
        gp = switched_gradient_p(world, gains, p, th, check=False)
        fd_p = numdiff.central_gradient(
            lambda v: switched_potential(world, gains, v, th, check=False), p)
        rel = float(np.max(np.abs(gp - fd_p) / (1.0 + np.abs(fd_p))))
        worst_rel = max(worst_rel, rel)

        gt = switched_gradient_theta(world, gains, p, th)
        fd_t = numdiff.central_gradient(
            lambda v: switched_potential(world, gains, p, float(v[0]),
                                         check=False), np.array([th]))
        worst_rel = max(worst_rel,
                        abs(gt - fd_t[0]) / (1.0 + abs(fd_t[0])))

        z = float(rng.uniform(0.02, 1.2 * world.r_s))
        h = 1e-7
        fd_b = (_phi(z + h, world.r_s) - _phi(z - h, world.r_s)) / (2 * h)
        worst_rel = max(worst_rel,
                        abs(_dphi(z, world.r_s) - fd_b) / (1.0 + abs(fd_b)))
        n_states += 1
    ok_point = worst_rel <= 1e-6

    # Part two: feedforward time derivatives along the simulated flows,
    # differenced with short local integrator steps.
    h = 1e-5
    plant, q = nominal_controller(world, gains)
    d = decomposed_feedback(world, gains)

    sm = records["fig5_smooth"]
    spec_s = build_closed_loop(sm.config)
    back_s = reversed_spec(spec_s)
    worst_sigma = 0.0
    pts = flow_samples(sm.arc, spec_s.in_flow_set)
    assert len(pts) >= 15
    for v in pts:
        got = sigma_time_derivative(plant, q, d, v[:2], v[2:4], v[4:])
        vp = step_flow(spec_s, v, h)
        vm = step_flow(back_s, v, h)
        fd = (d.sigma(vp[:2], vp[4:]) - d.sigma(vm[:2], vm[4:])) / (2.0 * h)
        rel = float(np.max(np.abs(got - fd) / (1.0 + np.abs(fd))))
        worst_sigma = max(worst_sigma, rel)

    bs = records["fig5_backstep"]
    sp = bs.config.smoothed
    spec_b = build_closed_loop(bs.config)
    back_b = reversed_spec(spec_b)
    worst_ref = 0.0
    pts = flow_samples(bs.arc, spec_b.in_flow_set)
    assert len(pts) >= 15
    for v in pts:
        got = reference_time_derivative(plant, q, d, sp,
                                        v[:2], v[2:4], v[4:6], v[6:])
        vp = step_flow(spec_b, v, h)
        vm = step_flow(back_b, v, h)
        fd = (tracked_feedback(d, vp[:2], vp[2:4])
              - tracked_feedback(d, vm[:2], vm[2:4])) / (2.0 * h)
        rel = float(np.max(np.abs(got - fd) / (1.0 + np.abs(fd))))
        worst_ref = max(worst_ref, rel)

    ok = ok_point and worst_sigma <= 1e-4 and worst_ref <= 1e-4
    record_criterion(
        6, "analytic derivatives against finite differences", ok,
        f"{n_states} pointwise states, worst rel {worst_rel:.1e} <= 1e-6; "
        f"offset feedforward worst rel {worst_sigma:.1e}, reference "
        f"feedforward worst rel {worst_ref:.1e} (allowed 1e-4)")
    assert ok_point
    assert worst_sigma <= 1e-4
    assert worst_ref <= 1e-4


def test_criterion_7_smooth_input_continuity(records):
    sm = records["fig5_smooth"]
    d = decomposed_feedback(sm.config.world, sm.config.gains)
    assert sm.n_jumps >= 1
    worst_step = 0.0
    for ev in sm.arc.jumps:
        u_pre = tracked_feedback(d, ev.x_pre[:2], ev.x_pre[2:4])
        u_post = tracked_feedback(d, ev.x_post[:2], ev.x_post[2:4])
        worst_step = max(worst_step, float(np.linalg.norm(u_post - u_pre)))
    theta_end = abs(float(sm.theta[-1]))
    ok_cont = worst_step <= 1e-9
    ok_settle = theta_end <= 1e-3
    record_criterion(
        7, "applied input continuity across switches", ok_cont and ok_settle,
        f"worst input step over {sm.n_jumps} jump(s) = {worst_step:.1e} "
        f"<= 1e-9; |theta| at t = 10 is {theta_end:.3f} (threshold 1e-3, met "
        f"only past t ~ 134; see test_long_horizon_smooth_converges)")
    assert ok_cont
    assert ok_settle, (
        f"the logic angle is still {theta_end:.3f} at the shipped horizon "
        f"t = 10; it settles below 1e-3 around t = 134 on the long run")


def test_criterion_8_backstepping_demo(records):
    plant, q, d, sp, bp = toy_scalar_pieces()
    plant_b, q_b = backstepped_quadruple(plant, q, d, sp, bp)
    spec = assemble_closed_loop(plant_b, q_b)
    arc = simulate(spec, np.array([1.5, 0.0, 0.0, 0.0]),
                   SimConfig(dt=1e-3, t_max=5.0))
    toy_V = np.array([q_b.V(x[:3], x[3:]) for seg in arc.segments
                      for x in seg.xs])
    toy_rise = float(np.max(np.diff(toy_V)))
    xe = arc.final_state
    toy_follow = abs(float(xe[2]) - float(tracked_feedback(
        d, xe[:1], xe[1:2])[0]))

    bs = records["fig5_backstep"]
    nav_d = decomposed_feedback(bs.config.world, bs.config.gains)
    dv = np.diff(bs.V)
    nav_rise = float(np.max(dv[np.diff(bs.j) == 0]))
    drops_ok = all(row.V_pre - row.V_post >= bs.gap - 1e-6
                   for row in bs.jumps)
    ref_end = tracked_feedback(nav_d, bs.p[-1], bs.eta[-1])
    nav_follow = float(np.linalg.norm(bs.u[-1] - ref_end))

    ok = (toy_rise <= 1e-6 and toy_follow <= 1e-3 and arc.n_jumps == 0
          and nav_rise <= 1e-6 and drops_ok and nav_follow <= 1e-3)
    record_criterion(
        8, "integrator backstepping on the toy and planar loops", ok,
        f"toy: worst rise {toy_rise:.1e}, terminal follow error "
        f"{toy_follow:.1e}; planar: worst rise {nav_rise:.1e}, "
        f"{bs.n_jumps} jump(s) all dropping the floor, terminal follow "
        f"error {nav_follow:.1e} (allowed 1e-3)")
    assert arc.n_jumps == 0
    assert toy_rise <= 1e-6
    assert toy_follow <= 1e-3
    assert nav_rise <= 1e-6
    assert drops_ok
    assert nav_follow <= 1e-3


def test_criterion_9_integrator_order_and_determinism(records, tmp_path):
    spec = HybridSystemSpec(
        dim=1,
        flow_map=lambda v: v,
        jump_map=lambda v: [],
        in_flow_set=lambda v: -1.0,
        in_jump_set=lambda v: 1.0,
    )
    errs = []
    for dt in (0.05, 0.025):
        arc = simulate(spec, np.array([1.0]),
                       SimConfig(dt=dt, t_max=1.0, method="rk4"))
        errs.append(abs(float(arc.final_state[0]) - math.e))
    ratio = errs[0] / errs[1]
    ok_order = 8.0 <= ratio <= 32.0

    rec = records["fig5_nonhybrid"]
    a = tmp_path / "first.csv"
    b = tmp_path / "second.csv"
    write_csv(rec, a)
    write_csv(run_scenario(rec.config), b)
    ok_bytes = a.read_bytes() == b.read_bytes()

    record_criterion(
        9, "integrator order and byte-stable exports", ok_order and ok_bytes,
        f"halving dt shrinks the endpoint error {ratio:.1f}x (expected "
        f"16x within a factor 2); repeated runs export identical CSV bytes: "
        f"{ok_bytes}")
    assert ok_order
    assert ok_bytes


# -- committed regression record ---------------------------------------------

def assert_matches(got, want, rel, where):
    """got equals want, a loaded record: strings and counts exactly, floats
    within a relative rel."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], rel, f"{where}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, rel, f"{where}[{k}]")
    elif type(want) is float:
        assert abs(got - want) <= rel * abs(want), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_arcs_match_the_committed_record(records):
    """A fresh run of tools/arc_digest.py's runs against tests/arc_record.json
    (tools/arc_record.py): counts exactly, and floats within a relative 1e-12
    on the navigation loops, which call libm, so a different libm passes.
    The thermostat's flow, sets, jumps and locator use only correctly
    rounded arithmetic, so its floats must match bit for bit: a last-bit
    change to an RK4 weight or to the locator's secant moves no recorded
    float by more than about 3e-14 relative, which only that check sees."""
    tool = load_tool("arc_record")
    committed = json.loads(tool.RECORD.read_text())
    assert committed["configs"].keys() == records.keys()
    fresh = tool.record(records)
    assert fresh.keys() == committed.keys()
    for group, rel in (("configs", 1e-12), ("thermostat", 0.0),
                       ("generic", 1e-12)):
        assert_matches(fresh[group], committed[group], rel, group)


# -- long-horizon companions -------------------------------------------------

def test_long_horizon_hybrid_converges(long_records):
    t, dist, theta = long_records["fig5_hybrid"]
    reached = np.where(dist <= 0.05)[0]
    assert reached.size, "never reached the destination by t = 160"
    assert t[reached[0]] <= 90.0

    above = np.where(np.abs(theta) > 1e-3)[0]
    assert above.size and above[-1] < len(t) - 1
    assert t[above[-1]] <= 155.0

    assert dist[-1] <= 0.05
    assert abs(theta[-1]) <= 1e-3


def test_long_horizon_smooth_converges(long_records):
    t, dist, theta = long_records["fig5_smooth"]
    reached = np.where(dist <= 0.05)[0]
    assert reached.size, "never reached the destination by t = 160"
    assert t[reached[0]] <= 90.0

    above = np.where(np.abs(theta) > 1e-3)[0]
    assert above.size and above[-1] < len(t) - 1
    assert t[above[-1]] <= 155.0

    assert dist[-1] <= 0.05
    assert abs(theta[-1]) <= 1e-3


# -- start sweeps (repo-chosen robustness thresholds) ------------------------

def test_hybrid_ring_sweep():
    cfg = load_config(CONFIG_DIR / "fig5_hybrid.json")
    world, gains = cfg.world, cfg.gains
    spec = hybrid_closed_loop(world, gains)
    sim = SimConfig(dt=1e-3, t_max=8.0)
    for k in range(20):
        ang = 2.0 * math.pi * k / 20.0
        p0 = world.p_d + 12.0 * np.array([math.cos(ang), math.sin(ang)])
        arc = simulate(spec, np.array([p0[0], p0[1], 0.0]), sim)

        vs, clear = [], math.inf
        for x in np.concatenate([seg.xs for seg in arc.segments]):
            vs.append(switched_potential(world, gains, x[:2], x[2],
                                         check=False))
            clear = min(clear, obstacle_distance(world, x[:2]))
        vs = np.array(vs)
        rising = np.diff(vs)
        # Jumps drop the value, so any sample-to-sample rise is a flow rise.
        assert float(np.max(rising)) <= 1e-6, f"start angle {ang:.2f}"
        assert vs[-1] <= 0.25, f"start angle {ang:.2f}: V = {vs[-1]:.3f}"
        assert arc.n_jumps <= 3, f"start angle {ang:.2f}"
        assert clear >= world.epsilon - 1e-9, f"start angle {ang:.2f}"


def test_smooth_ring_sweep():
    cfg = load_config(CONFIG_DIR / "fig5_smooth.json")
    world, gains, sp = cfg.world, cfg.gains, cfg.smoothed
    _, q = nominal_controller(world, gains)
    d = decomposed_feedback(world, gains)
    spec = smooth_closed_loop(world, gains, sp)
    sim = SimConfig(dt=5e-4, t_max=8.0)
    for k in range(0, 20, 4):
        ang = 2.0 * math.pi * k / 20.0
        p0 = world.p_d + 12.0 * np.array([math.cos(ang), math.sin(ang)])
        arc = simulate(spec, np.array([p0[0], p0[1], 0.0, 0.0, 0.0]), sim)

        clear = math.inf
        for x in np.concatenate([seg.xs for seg in arc.segments]):
            clear = min(clear, obstacle_distance(world, x[:2]))
        xe = arc.final_state
        v_end = tracking_lyapunov(q, d, sp, xe[:2], xe[2:4], xe[4:])
        assert v_end <= 0.25, f"start angle {ang:.2f}: V = {v_end:.3f}"
        assert arc.n_jumps <= 3, f"start angle {ang:.2f}"
        assert clear >= world.epsilon - 1e-9, f"start angle {ang:.2f}"
