"""Unit tests for config parsing, scenario runs, exports, and the CLI."""

import copy
import dataclasses
import errno
import importlib.util
import json
import math
import os
import re
import sys
import threading
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import CONFIG_DIR, REPO_ROOT, loop_potential
from syncon import harness
from syncon.cli import main
from syncon.engine import SimConfig, simulate
from syncon.errors import (
    DimensionMismatch,
    NonPositiveDistance,
    ParseError,
    ValidationError,
)
from syncon.harness import (
    CSV_HEADER,
    build_closed_loop,
    check_scenario,
    compare_records,
    governing_gap,
    initial_packed_state,
    load_config,
    parse_config,
    run_scenario,
    write_csv,
    write_svg,
)
from syncon.navigation import (
    _phi,
    decomposed_feedback,
    nav_gradient,
    nominal_controller,
    obstacle_distance,
    sample_channels,
    switched_gradient_p,
    tracked_input,
)
from syncon.smoothing import tracked_feedback
from syncon.synergy import v_excess


def hybrid_raw(t_max=0.5):
    return {
        "name": "unit-hybrid",
        "controller": "hybrid",
        "world": {"p_o": [5.0, 0.0], "r_o": 2.0, "epsilon": 0.1,
                  "p_d": [0.0, 0.0], "r_s": 0.5, "varrho": 15.0},
        "gains": {"k_p": 12.0, "k_theta": 0.02, "gamma_theta": 2.0264,
                  "Theta": [0.2], "delta": 0.0365},
        "initial": {"p0": [12.0, 0.0]},
        "sim": {"dt": 0.001, "t_max": t_max},
    }


def smooth_raw(t_max=0.2):
    raw = hybrid_raw(t_max)
    raw["name"] = "unit-smooth"
    raw["controller"] = "smooth_hybrid"
    raw["gains"].update({"gamma_s": 0.0659, "k_eta": 100.0, "delta_s": 0.0036})
    raw["sim"]["dt"] = 0.0005
    return raw


def backstep_raw(t_max=0.2):
    raw = smooth_raw(t_max)
    raw["name"] = "unit-backstep"
    raw["controller"] = "backstepped"
    raw["gains"].update({"gamma_b": 0.5, "k_b": 40.0, "delta_b": 0.0036})
    raw["initial"]["p0"] = [8.0, 6.0]
    return raw


def non_hybrid_raw(t_max=0.5):
    raw = hybrid_raw(t_max)
    raw["name"] = "unit-plain"
    raw["controller"] = "non_hybrid"
    return raw


SHIPPED = sorted(CONFIG_DIR.glob("*.json"))


def short_shipped(path, t_max=0.5):
    """A shipped config cut to a short horizon."""
    raw = json.loads(path.read_text())
    raw["sim"]["t_max"] = t_max
    return parse_config(raw, source=path.name)


def scalar_channels(world, gains, sp, bp, spec, gap, v):
    """(V, ux, uy, mu, dobs, ddest) at one packed state, from the public
    scalar helpers and the loop's own flow-set indicator; mu is nan for the
    gradient loop (gap None)."""
    p, th = v[:2], v[-1]
    if gap is None:
        # V_nav(p) = ||p - p_d||^2 / 2 + varrho phi(d_o(p))
        ex = p[0] - world.p_d[0]
        ey = p[1] - world.p_d[1]
        V = (0.5 * (ex * ex + ey * ey)
             + world.varrho * _phi(obstacle_distance(world, p), world.r_s))
        u = -gains.k_p * nav_gradient(world, p, check=False)
    else:
        V = loop_potential(world, gains, sp, bp, v, th)
        if sp is None:
            u = -gains.k_p * switched_gradient_p(world, gains, p, th,
                                                 check=False)
        elif bp is None:
            u = tracked_input(world, gains, p, v[2:4])
        else:
            u = v[4:6]
    mu = math.nan if gap is None else spec.in_flow_set(v) + gap
    return (V, u[0], u[1], mu, obstacle_distance(world, p),
            math.hypot(p[0] - world.p_d[0], p[1] - world.p_d[1]))


def violations_of(raw):
    with pytest.raises(ValidationError) as err:
        parse_config(raw, source="test")
    return err.value.violations


# -- parsing -----------------------------------------------------------------

def test_parse_valid_hybrid_config():
    cfg = parse_config(hybrid_raw())
    assert cfg.name == "unit-hybrid"
    assert cfg.controller == "hybrid"
    assert np.allclose(cfg.world.p_o, [5.0, 0.0])
    assert cfg.gains.delta == 0.0365
    assert cfg.initial.theta0 == 0.0
    assert cfg.initial.eta0 is None
    assert cfg.sim.dt == 0.001
    assert cfg.sim.j_max == 10_000
    assert cfg.smoothed is None
    assert cfg.backstep is None
    assert cfg.seed == 0


def test_parse_fills_sim_defaults():
    raw = hybrid_raw()
    del raw["sim"]
    cfg = parse_config(raw)
    assert cfg.sim.dt == 1e-3
    assert cfg.sim.t_max == 10.0
    assert cfg.sim.event_tol == 1e-10


def test_parse_smooth_and_backstep_params():
    cfg = parse_config(smooth_raw())
    assert cfg.smoothed is not None
    assert cfg.smoothed.k_eta == 100.0
    assert np.allclose(cfg.initial.eta0, np.zeros(2))

    cfg = parse_config(backstep_raw())
    assert cfg.backstep is not None
    assert cfg.backstep.k_b == 40.0
    assert cfg.initial.u0 is None


def test_parse_rejects_unknown_fields_everywhere():
    for patch in (
        lambda r: r.update(bogus=1),
        lambda r: r["world"].update(bogus=1),
        lambda r: r["gains"].update(bogus=1),
        lambda r: r["initial"].update(bogus=1),
        lambda r: r["sim"].update(bogus=1),
    ):
        raw = hybrid_raw()
        patch(raw)
        problems = violations_of(raw)
        assert any("bogus" in p and "unknown field" in p for p in problems)


def test_parse_rejects_layer_params_on_lower_controllers():
    raw = hybrid_raw()
    raw["gains"]["gamma_s"] = 0.0659
    assert any("gamma_s" in p for p in violations_of(raw))

    raw = hybrid_raw()
    raw["initial"]["eta0"] = [0.0, 0.0]
    assert any("eta0" in p for p in violations_of(raw))

    raw = smooth_raw()
    raw["initial"]["u0"] = [0.0, 0.0]
    assert any("u0" in p for p in violations_of(raw))

    raw = smooth_raw()
    raw["gains"]["gamma_b"] = 0.5
    assert any("gamma_b" in p for p in violations_of(raw))


def test_parse_requires_layer_params_for_higher_controllers():
    raw = smooth_raw()
    del raw["gains"]["k_eta"]
    assert any("k_eta" in p and "required" in p for p in violations_of(raw))

    raw = backstep_raw()
    del raw["gains"]["delta_b"]
    assert any("delta_b" in p and "required" in p for p in violations_of(raw))


def test_parse_rejects_missing_and_mistyped_fields():
    raw = hybrid_raw()
    del raw["world"]["r_o"]
    assert any("world.r_o" in p for p in violations_of(raw))

    raw = hybrid_raw()
    raw["gains"]["k_p"] = "fast"
    assert any("gains.k_p" in p for p in violations_of(raw))

    raw = hybrid_raw()
    raw["gains"]["k_p"] = True
    assert any("gains.k_p" in p for p in violations_of(raw))

    raw = hybrid_raw()
    raw["initial"]["p0"] = [1.0]
    assert any("initial.p0" in p for p in violations_of(raw))

    raw = hybrid_raw()
    raw["sim"]["j_max"] = 2.5
    assert any("sim.j_max" in p for p in violations_of(raw))

    raw = hybrid_raw()
    raw["controller"] = "bang_bang"
    assert any("controller" in p for p in violations_of(raw))

    raw = hybrid_raw()
    # Jumps win wherever both sets hold; there is no setting for it.
    raw["sim"]["priority"] = "jump"
    assert any("sim.priority: unknown field" in p for p in violations_of(raw))

    raw = hybrid_raw()
    raw["expected"] = {"saddle_y": 1.0}
    assert any("saddle_y" in p for p in violations_of(raw))


def test_parse_rejects_gain_bound_violations():
    raw = hybrid_raw()
    raw["gains"]["delta"] = 0.05  # above the synergy-gap ceiling
    assert any("delta" in p for p in violations_of(raw))

    raw = smooth_raw()
    raw["gains"]["gamma_s"] = 0.2  # above delta / c_kappa
    assert any("gamma_s" in p for p in violations_of(raw))


@pytest.mark.parametrize("raw_fn", [hybrid_raw, smooth_raw, backstep_raw,
                                    non_hybrid_raw])
def test_parse_rejects_duplicate_candidates(raw_fn, tmp_path, capsys):
    raw = raw_fn()
    raw["gains"]["Theta"] = [0.2, 0.2]
    problems = violations_of(raw)
    assert any(p.startswith("test: gains.Theta:") and "distinct" in p
               for p in problems)

    path = tmp_path / "dup.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert "gains.Theta" in capsys.readouterr().err


def test_parse_rejects_a_huge_candidate_angle_without_overflow(tmp_path,
                                                               capsys):
    """The gap ceiling squares the smallest angle; it is only computed once
    every angle has passed the (0, pi) check."""
    raw = hybrid_raw()
    raw["gains"]["Theta"] = [1e308]
    problems = violations_of(raw)
    assert any("candidate angle 1e+308" in p for p in problems)
    assert not any("min|theta_bar|^2" in p for p in problems)

    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert "candidate angle" in capsys.readouterr().err


def test_parse_reports_tracker_and_integrator_bounds_together():
    raw = backstep_raw()
    raw["gains"]["gamma_s"] = 0.2  # above delta / c_kappa
    raw["gains"]["delta_b"] = 0.5  # above delta - gamma_s c_kappa
    problems = violations_of(raw)
    assert any("gamma_s" in p for p in problems)
    assert any("delta_b" in p for p in problems)


@pytest.mark.parametrize("section, key, value", [
    ("initial", "p0", ["12", "0.5"]),
    ("initial", "p0", [True, False]),
    ("gains", "Theta", "0.3"),
    ("gains", "Theta", 0.5),
    ("gains", "Theta", [True, -0.4]),
    ("gains", "Theta", ["0.2"]),
    ("gains", "Theta", None),
])
def test_parse_rejects_non_numbers_in_pairs_and_theta(section, key, value):
    raw = hybrid_raw()
    raw[section][key] = value
    assert any(p.startswith(f"test: {section}.{key}:") for p in violations_of(raw))


HUGE = 10 ** 400  # a JSON integer too large for a float


@pytest.mark.parametrize("path, prefix", [
    (("gains", "k_p"), "gains.k_p: must be finite, got 1000"),
    (("world", "p_o", 0), "world.p_o: entries must be finite, got [1000"),
    (("gains", "Theta", 0), "gains.Theta: entries must be finite, got [1000"),
    (("initial", "theta0"), "initial.theta0: must be finite, got 1000"),
    (("expected", "saddle_x"), "expected.saddle_x: must be finite, got 1000"),
])
def test_parse_reports_integers_too_large_for_a_float(path, prefix, tmp_path,
                                                      capsys):
    raw = json.loads((CONFIG_DIR / "fig2_check.json").read_text())
    obj = raw
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = HUGE
    assert [p[:len(prefix) + 6] for p in violations_of(raw)] == [
        "test: " + prefix]

    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and prefix in err


DELETE = object()
EDGE_VALUES = [None, True, "x", 0, -0.0, -1, 1e-300, 1e308, -1e308, math.inf,
               -math.inf, math.nan, HUGE, -HUGE, [], [1.0, 2.0], {}, DELETE]


def edge_mutations(raw):
    """Copies of raw with one field, list entry or section of the field
    table set to each edge value, or deleted."""
    for section, key, *_ in harness.FIELDS:
        # Paths from the top level; "" stands for the top level itself.
        paths = [(section, key)] + ([("", section)] if section else [])
        value = raw.get(section, {}).get(key) if section else raw.get(key)
        if isinstance(value, list):
            paths += [(section, key, i) for i in range(len(value))]
        for path in paths:
            for new in EDGE_VALUES:
                out = copy.deepcopy(raw)
                obj = out
                for step in path[:-1]:
                    if step != "":
                        obj = obj.setdefault(step, {})
                if new is DELETE:
                    if not isinstance(path[-1], int):
                        obj.pop(path[-1], None)
                else:
                    obj[path[-1]] = new
                yield out


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_edge_values_in_any_field_give_a_config_or_a_validation_error(path):
    for raw in edge_mutations(json.loads(path.read_text())):
        try:
            cfg = parse_config(raw, source="test")
        except ValidationError:
            continue
        if cfg.expected and "saddle_tol" in cfg.expected:
            assert cfg.expected["saddle_tol"] > 0.0


@pytest.mark.parametrize("tol", [0, -1.0])
def test_parse_rejects_a_saddle_tol_at_or_below_zero(tol):
    """With such a tolerance check's stuck-point item could never pass."""
    raw = json.loads((CONFIG_DIR / "fig2_check.json").read_text())
    raw["expected"]["saddle_tol"] = tol
    assert violations_of(raw) == [
        f"test: expected.saddle_tol: must be positive, got {tol!r}"]


def test_parse_accepts_a_positive_saddle_tol():
    raw = json.loads((CONFIG_DIR / "fig2_check.json").read_text())
    raw["expected"]["saddle_tol"] = 0.05
    assert parse_config(raw, source="test").expected["saddle_tol"] == 0.05


def test_parse_reports_an_unknown_expected_key_once():
    raw = hybrid_raw()
    raw["expected"] = {"saddle_y": "x"}
    assert violations_of(raw) == ["test: expected.saddle_y: unknown field"]


def test_parse_rejects_a_world_whose_span_overflows(tmp_path, capsys):
    """||p_d - p_o|| = inf would make every gain ceiling inf."""
    raw = hybrid_raw()
    raw["world"]["p_o"] = [1e308, 0.0]
    raw["world"]["p_d"] = [-1e308, 0.0]
    assert violations_of(raw) == [
        "test: world: ||p_d - p_o|| must be finite, got inf"]

    path = tmp_path / "span.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert "||p_d - p_o|| must be finite" in capsys.readouterr().err


def test_parse_names_a_gain_ceiling_that_overflows():
    """A finite span can still overflow a ceiling: 4*r_o*||p_d - p_o||/pi^2
    with r_o = 2 and a span of 1e308, or c_kappa, which grows with the
    squared span, at 1e155.  Each is one violation that names it."""
    raw = json.loads((CONFIG_DIR / "fig5_hybrid.json").read_text())
    raw["world"]["p_o"] = [1e308, 0.0]
    assert violations_of(raw) == [
        "test: gains: 4*r_o*||p_d - p_o||/pi^2 = inf must be finite to bound "
        "gamma_theta and delta"]
    for raw in (smooth_raw(), backstep_raw()):
        raw["world"]["p_o"] = [1e155, 0.0]
        assert violations_of(raw) == ["test: gains: c_kappa = inf must be finite"]


def test_field_table_matches_the_readme_list():
    """Every field the parser reads is named in README's config list, under
    its section's bullet, or as a bullet of its own at the top level."""
    text = (REPO_ROOT / "README.md").read_text()
    listing = text.split("## Scenario configs", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for chunk in re.split(r"^- ", listing, flags=re.M)[1:]:
        head = re.match(r"`(\w+)`", chunk)
        if head:
            bullets[head.group(1)] = chunk
    for section, key, *_ in harness.FIELDS:
        if section:
            assert f"`{key}`" in bullets.get(section, ""), (section, key)
        else:
            assert key in bullets, key


def test_shipped_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 6
    for path in paths:
        load_config(path)


@pytest.mark.parametrize("seed", [-1, True])
def test_parse_rejects_a_seed_that_is_not_a_non_negative_integer(seed, tmp_path,
                                                                  capsys):
    raw = hybrid_raw()
    raw["seed"] = seed
    assert any(p.startswith("test: seed: expected a non-negative integer")
               for p in violations_of(raw))

    path = tmp_path / "seed.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path), "--samples", "10"]) == 2
    assert "seed" in capsys.readouterr().err


def test_readme_config_example_parses():
    text = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    cfg = parse_config(json.loads(blocks[0]), source="README.md")
    assert cfg.controller == "hybrid"


def test_parse_rejects_unsafe_start():
    raw = hybrid_raw()
    raw["initial"]["p0"] = [5.0 + 2.0 + 0.05, 0.0]
    assert any("initial.p0" in p and "clearance" in p for p in violations_of(raw))


def test_parse_reports_all_problems_at_once():
    raw = hybrid_raw()
    raw["bogus"] = 1
    del raw["world"]["varrho"]
    raw["gains"]["k_theta"] = "slow"
    problems = violations_of(raw)
    assert len(problems) >= 3
    assert any("bogus" in p for p in problems)
    assert any("varrho" in p for p in problems)
    assert any("k_theta" in p for p in problems)
    assert all(p.startswith("test: ") for p in problems)


def test_load_config_raises_parse_error_on_bad_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    with pytest.raises(ParseError):
        load_config(bad)


@pytest.mark.parametrize("text", [
    '{"seed": ' + "1" * 4301 + "}",  # past Python's int-string digit limit
    "[" * 100_000 + "]" * 100_000,  # past the recursion limit
])
def test_load_config_raises_parse_error_on_unreadable_json(text, tmp_path):
    path = tmp_path / "unreadable.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="not valid JSON"):
        load_config(path)


def test_load_config_roundtrips_a_file(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(hybrid_raw()))
    cfg = load_config(path)
    assert cfg.name == "unit-hybrid"


# -- initial state and gap mapping -------------------------------------------

def test_initial_packed_state_layouts():
    cfg = parse_config(hybrid_raw())
    assert np.allclose(initial_packed_state(cfg), [12.0, 0.0, 0.0])

    cfg = parse_config(smooth_raw())
    assert np.allclose(initial_packed_state(cfg), [12.0, 0.0, 0.0, 0.0, 0.0])

    cfg = parse_config(backstep_raw())
    packed = initial_packed_state(cfg)
    d = decomposed_feedback(cfg.world, cfg.gains)
    matched = tracked_feedback(d, cfg.initial.p0, np.zeros(2))
    assert np.allclose(packed[:4], [8.0, 6.0, 0.0, 0.0])
    assert np.allclose(packed[4:6], matched)
    assert packed[6] == 0.0

    raw = backstep_raw()
    raw["initial"]["u0"] = [1.0, -2.0]
    cfg = parse_config(raw)
    assert np.allclose(initial_packed_state(cfg)[4:6], [1.0, -2.0])


def test_governing_gap_per_controller():
    assert governing_gap(parse_config(hybrid_raw())) == 0.0365
    assert governing_gap(parse_config(smooth_raw())) == 0.0036
    assert governing_gap(parse_config(backstep_raw())) == 0.0036
    assert governing_gap(parse_config(non_hybrid_raw())) is None


# -- running and exports -----------------------------------------------------

def test_run_scenario_record_shape_and_channels():
    cfg = parse_config(hybrid_raw(t_max=0.5))
    rec = run_scenario(cfg)
    n = len(rec.t)
    assert rec.termination == "t_max"
    assert np.all(np.diff(rec.t) >= 0)
    assert rec.p.shape == (n, 2)
    assert rec.theta.shape == (n,)
    assert rec.eta is None
    assert rec.u.shape == (n, 2)
    assert len(rec.V) == n and len(rec.mu) == n
    assert len(rec.dobs) == n and len(rec.ddest) == n
    assert rec.gap == 0.0365

    # Distance channels agree with the stored positions.
    k = n // 2
    assert rec.ddest[k] == pytest.approx(np.linalg.norm(rec.p[k]))
    world = cfg.world
    assert rec.dobs[k] == pytest.approx(
        np.linalg.norm(rec.p[k] - world.p_o) - world.r_o)

    # The excess channel matches the family definition.
    _, q = nominal_controller(cfg.world, cfg.gains)
    mu = v_excess(q, rec.p[k], np.array([rec.theta[k]]))
    assert rec.mu[k] == pytest.approx(mu, abs=1e-12)

    # Starting collinear behind the obstacle, the switch fires at once.
    assert rec.n_jumps == 1
    row = rec.jumps[0]
    assert row.t == 0.0
    assert row.V_pre - row.V_post >= rec.gap
    assert rec.j[-1] == 1


def test_run_scenario_non_hybrid_channels_absent():
    rec = run_scenario(parse_config(non_hybrid_raw(t_max=0.3)))
    assert rec.theta is None
    assert rec.eta is None
    assert rec.mu is None
    assert rec.gap is None
    assert rec.n_jumps == 0


def test_csv_export_layout_and_determinism(tmp_path):
    cfg = parse_config(hybrid_raw(t_max=0.2))
    rec = run_scenario(cfg)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(rec, a)
    write_csv(run_scenario(cfg), b)
    assert a.read_bytes() == b.read_bytes()

    lines = a.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rec.t) + 1
    row = lines[1].split(",")
    assert len(row) == 13
    assert float(row[2]) == 12.0
    assert row[5] == "" and row[6] == ""  # no tracker channel for hybrid

    rec2 = run_scenario(parse_config(non_hybrid_raw(t_max=0.2)))
    c = tmp_path / "c.csv"
    write_csv(rec2, c)
    row = c.read_text().splitlines()[1].split(",")
    assert row[4] == "" and row[10] == ""  # no angle, no excess


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_run_scenario_channels_equal_the_scalar_helpers(path):
    """The channels are computed over stacked states; each entry must have
    the bits the per-sample scalar helpers give at that sample."""
    cfg = short_shipped(path)
    rec = run_scenario(cfg)
    spec = build_closed_loop(cfg)
    gap = governing_gap(cfg)

    def ref(v):
        return scalar_channels(cfg.world, cfg.gains, cfg.smoothed, cfg.backstep,
                               spec, gap, v)

    samples = list(rec.arc.iter_samples())
    xs = np.array([x for _, _, x in samples])
    V, ux, uy, mu, dobs, ddest = np.array([ref(x) for x in xs]).T
    assert np.array_equal(rec.t, [t for t, _, _ in samples])
    assert np.array_equal(rec.j, [j for _, j, _ in samples])
    assert np.array_equal(rec.p, xs[:, :2])
    assert np.array_equal(rec.u, np.stack([ux, uy], axis=1))
    for got, want in ((rec.V, V), (rec.dobs, dobs), (rec.ddest, ddest)):
        assert np.array_equal(got, want)
    if gap is None:
        assert rec.mu is None and rec.theta is None
    else:
        assert np.array_equal(rec.mu, mu)
        assert np.array_equal(rec.theta, xs[:, -1])

    assert len(rec.jumps) == rec.arc.n_jumps
    for row, ev in zip(rec.jumps, rec.arc.jumps):
        pre, post = ref(ev.x_pre), ref(ev.x_post)
        assert (row.t, row.j_pre) == (ev.t, ev.j_pre)
        assert (row.V_pre, row.mu_pre, row.V_post) == (pre[0], pre[3], post[0])


@pytest.mark.parametrize("raw_fn", [hybrid_raw, smooth_raw, backstep_raw,
                                    non_hybrid_raw])
@pytest.mark.parametrize("clearance", [5e-13, 0.0, -0.5])
def test_sample_channels_raise_at_nonpositive_clearance(raw_fn, clearance):
    cfg = parse_config(raw_fn())
    world = cfg.world
    xs = np.tile(initial_packed_state(cfg), (3, 1))
    xs[1, :2] = world.p_o + [world.r_o + clearance, 0.0]
    assert obstacle_distance(world, xs[1, :2]) <= 1e-12
    with pytest.raises(NonPositiveDistance):
        sample_channels(world, cfg.gains, xs, governing_gap(cfg), cfg.smoothed,
                        cfg.backstep)
    xs[1, :2] = world.p_o + [world.r_o + 1e-6, 0.0]
    sample_channels(world, cfg.gains, xs, governing_gap(cfg), cfg.smoothed,
                    cfg.backstep)
    with pytest.raises(DimensionMismatch):
        sample_channels(world, cfg.gains, xs[:, 1:], governing_gap(cfg),
                        cfg.smoothed, cfg.backstep)


def per_row_csv(rec) -> bytes:
    """The CSV written one row at a time, one %.17g field after another."""
    eta = rec.eta
    columns = [rec.p[:, 0], rec.p[:, 1], rec.theta,
               None if eta is None else eta[:, 0],
               None if eta is None else eta[:, 1],
               rec.u[:, 0], rec.u[:, 1], rec.V, rec.mu, rec.dobs, rec.ddest]
    lines = [CSV_HEADER]
    for i in range(len(rec.t)):
        lines.append(",".join([f"{rec.t[i]:.17g}", str(int(rec.j[i]))] + [
            "" if col is None else f"{col[i]:.17g}" for col in columns]))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_exports_equal_the_per_row_and_per_point_formatting(path, tmp_path,
                                                            monkeypatch):
    # More rows than one default chunk holds on every config.
    rec = run_scenario(short_shipped(path, t_max=1.2))
    assert len(rec.t) > harness._CSV_CHUNK_ROWS
    expected = per_row_csv(rec)
    write_csv(rec, tmp_path / "a.csv")
    assert (tmp_path / "a.csv").read_bytes() == expected
    # Many chunks, the last one short.
    monkeypatch.setattr(harness, "_CSV_CHUNK_ROWS", 7)
    write_csv(rec, tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_bytes() == expected

    write_svg(rec, tmp_path / "a.svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    root = ET.fromstring((tmp_path / "a.svg").read_text())
    world = rec.config.world
    r = world.r_o + world.r_s
    xs = np.concatenate([rec.p[:, 0], [world.p_o[0] - r, world.p_o[0] + r,
                                       world.p_d[0]]])
    ys = np.concatenate([rec.p[:, 1], [world.p_o[1] - r, world.p_o[1] + r,
                                       world.p_d[1]]])
    pad = 0.08 * max(float(xs.max()) - float(xs.min()),
                     float(ys.max()) - float(ys.min()), 1.0)
    xmin = float(xs.min()) - pad
    ymax = float(ys.max()) + pad
    scale = 640 / (float(xs.max()) + pad - xmin)
    points = " ".join(f"{(x - xmin) * scale:.2f},{(ymax - y) * scale:.2f}"
                      for x, y in rec.p)
    assert root.find(".//s:polyline", ns).get("points") == points


# -- the CSV export on two cores ----------------------------------------------

CHUNK = harness._CSV_CHUNK_ROWS
CPU_NOW = harness._cpu_now
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@pytest.fixture(scope="module")
def smooth_record():
    """fig5_smooth over t = 1.2: 2401 rows, every channel present."""
    return run_scenario(short_shipped(CONFIG_DIR / "fig5_smooth.json", t_max=1.2))


@pytest.fixture
def pins(monkeypatch, tmp_path):
    """A host with two usable CPUs and this process on CPU 0.  Returns the
    os.sched_setaffinity calls made so far, "<pid> <cpus>" each; they are
    logged to a file, so a worker's calls are seen too."""
    log = tmp_path / "pins.txt"
    log.write_text("")

    def pin(pid, cpus):
        with open(log, "a") as fh:
            fh.write(f"{pid} {sorted(cpus)}\n")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)
    monkeypatch.setattr(harness, "_cpu_now", lambda: 0)
    return lambda: log.read_text().splitlines()


@pytest.fixture
def forks(monkeypatch, pins):
    """The os.fork calls write_csv makes."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def first_rows(rec, n):
    """The record cut to its first n samples, every channel alike."""
    names = ("t", "j", "p", "theta", "eta", "u", "V", "mu", "dobs", "ddest")
    return dataclasses.replace(rec, **{name: getattr(rec, name)[:n] for name in names
                                       if getattr(rec, name) is not None})


class FailingSlices:
    """A channel whose row slices raise where ``fails(first row)`` holds."""

    def __init__(self, values, fails):
        self.values, self.fails = values, fails

    def __getitem__(self, rows):
        if self.fails(rows.start):
            raise ValueError(f"rows from {rows.start} refused")
        return self.values[rows]


@needs_fork
@pytest.mark.parametrize("rows, chunk_rows, n_forks", [
    (2 * CHUNK - 1, CHUNK, 0),
    (2 * CHUNK, CHUNK, 1),
    (2401, CHUNK, 1),
    (13, 7, 0),
    (2401, 7, 1),  # both halves many chunks, each ending short
])
def test_csv_halves_give_the_per_row_bytes(smooth_record, forks, pins,
                                           monkeypatch, tmp_path, rows,
                                           chunk_rows, n_forks):
    """A record of two chunks or more is formatted by two processes, one
    below that by one; the bytes are the per-row formatting's either way.
    Only the worker is pinned, to the CPU this process is not on."""
    monkeypatch.setattr(harness, "_CSV_CHUNK_ROWS", chunk_rows)
    rec = first_rows(smooth_record, rows)
    write_csv(rec, tmp_path / "a.csv")
    assert (tmp_path / "a.csv").read_bytes() == per_row_csv(rec)
    assert len(forks) == n_forks
    assert pins() == ["0 [1]"] * n_forks
    assert_no_child()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2
                    or harness._cpu_now() is None,
                    reason="needs os.sched_setaffinity, /proc/self/stat and "
                           "two usable CPUs")
def test_the_worker_runs_off_the_callers_cpu(smooth_record, monkeypatch,
                                             tmp_path):
    """With the real calls, the worker is held to the usable CPUs but the
    one the caller was running on, and the caller's own set is untouched."""
    log = tmp_path / "worker.txt"
    seen = []
    pin = os.sched_setaffinity

    def logged(pid, cpus):
        pin(pid, cpus)
        log.write_text(repr(sorted(os.sched_getaffinity(0))))

    monkeypatch.setattr(harness, "_cpu_now",
                        lambda: seen.append(CPU_NOW()) or seen[-1])
    monkeypatch.setattr(os, "sched_setaffinity", logged)
    before = os.sched_getaffinity(0)
    write_csv(smooth_record, tmp_path / "a.csv")
    assert os.sched_getaffinity(0) == before
    assert seen[0] in before
    assert log.read_text() == repr(sorted(before - {seen[0]}))
    assert (tmp_path / "a.csv").read_bytes() == per_row_csv(smooth_record)
    assert_no_child()


def test_no_cpu_is_read_where_proc_cannot_be(monkeypatch):
    def refused(*args, **kwargs):
        raise FileNotFoundError("/proc/self/stat")

    monkeypatch.setattr(harness, "open", refused, raising=False)
    assert harness._cpu_now() is None


@needs_fork
@pytest.mark.parametrize("cannot", ["thread", "one_cpu", "no_pinning",
                                    "no_cpu_reading"])
def test_csv_is_written_in_one_process_where_a_worker_cannot_run(
        smooth_record, forks, monkeypatch, tmp_path, cannot):
    """Another live thread (a child forked then may deadlock), one usable
    CPU, or no os.sched_setaffinity or no CPU reading to hold the worker
    off this process's CPU: no worker, and the same bytes."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if cannot == "thread":
        thread.start()
    elif cannot == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif cannot == "no_pinning":  # the real reading, which checks for it
        monkeypatch.setattr(harness, "_cpu_now", CPU_NOW)
        monkeypatch.delattr(os, "sched_setaffinity")
    else:
        monkeypatch.setattr(harness, "_cpu_now", lambda: None)
    try:
        write_csv(smooth_record, tmp_path / "a.csv")
    finally:
        release.set()
    if cannot == "thread":
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert (tmp_path / "a.csv").read_bytes() == per_row_csv(smooth_record)
    assert forks == []
    assert_no_child()


@needs_fork
def test_csv_is_written_in_one_process_where_fork_fails(smooth_record, pins,
                                                       monkeypatch, tmp_path):
    """A fork refused at a process limit leaves no pipe end open and no CPU
    pinned: this process writes every row, and the bytes are the same."""
    def refused():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []
    monkeypatch.setattr(os, "fork", refused)
    write_csv(smooth_record, tmp_path / "a.csv")
    assert (tmp_path / "a.csv").read_bytes() == per_row_csv(smooth_record)
    assert pins() == []
    if fds:
        assert len(os.listdir("/proc/self/fd")) == len(fds)
    assert_no_child()


@needs_fork
def test_a_failing_csv_worker_raises_an_oserror(smooth_record, forks, tmp_path,
                                                capfd):
    """Only the worker formats rows n//2 on, so a channel that fails there
    fails the worker: its traceback goes to stderr, and write_csv raises
    OSError naming its status."""
    mid = len(smooth_record.t) // 2
    rec = dataclasses.replace(
        smooth_record, V=FailingSlices(smooth_record.V, lambda a: a >= mid))
    with pytest.raises(OSError, match="wait status 256"):
        write_csv(rec, tmp_path / "a.csv")
    assert len(forks) == 1
    assert f"ValueError: rows from {mid} refused" in capfd.readouterr().err
    assert_no_child()


@needs_fork
def test_a_failure_in_the_callers_half_reaps_the_worker(smooth_record, forks,
                                                        tmp_path):
    """The caller's own error propagates; its worker, with more text than
    a pipe buffers, is not left blocked on the pipe."""
    mid = len(smooth_record.t) // 2
    rec = dataclasses.replace(
        smooth_record, V=FailingSlices(smooth_record.V, lambda a: a < mid))
    with pytest.raises(ValueError, match="rows from 0 refused"):
        write_csv(rec, tmp_path / "a.csv")
    assert len(forks) == 1
    assert_no_child()


@needs_fork
def test_an_unwritable_csv_path_raises_before_any_fork(smooth_record, forks,
                                                       tmp_path):
    with pytest.raises(IsADirectoryError):
        write_csv(smooth_record, tmp_path)
    assert forks == []
    assert_no_child()


@needs_fork
def test_the_csv_worker_flushes_no_buffer_of_the_caller(smooth_record, forks,
                                                        tmp_path):
    """Text the caller has buffered but not flushed is written once."""
    with open(tmp_path / "log.txt", "w") as log:
        log.write("buffered\n")
        write_csv(smooth_record, tmp_path / "a.csv")
    assert len(forks) == 1
    assert (tmp_path / "log.txt").read_text() == "buffered\n"
    assert_no_child()


def test_the_shell_projection_holds_the_margin_on_the_exact_flow():
    """A weak skirt lets the hybrid loop press on the epsilon-shell.  Clamps
    grow about tenfold as dt shrinks tenfold: the arc spends a fixed time
    on the shell, so the exact flow enters it and the projection, not the
    barrier, keeps the clearance at epsilon."""
    clamps = []
    for dt in (1e-3, 1e-4):
        raw = hybrid_raw(t_max=4.0)
        raw["world"]["varrho"] = 2.0
        raw["sim"]["dt"] = dt
        rec = run_scenario(parse_config(raw))
        assert rec.min_clearance >= rec.config.world.epsilon
        clamps.append(rec.n_clamped)
    assert clamps[0] > 0
    assert clamps[1] >= 5 * clamps[0]


def test_svg_export_is_wellformed(tmp_path):
    rec = run_scenario(parse_config(hybrid_raw(t_max=0.2)))
    out = tmp_path / "traj.svg"
    write_svg(rec, out)
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert root.findall(".//s:polyline", ns)
    assert len(root.findall(".//s:circle", ns)) >= 4
    assert root.findall(".//s:text", ns)


def test_compare_records_tabulates_each_run():
    recs = [run_scenario(parse_config(hybrid_raw(t_max=0.2))),
            run_scenario(parse_config(non_hybrid_raw(t_max=0.2)))]
    lines = compare_records(recs)
    assert len(lines) == 3
    assert "unit-hybrid" in lines[1]
    assert "unit-plain" in lines[2]


# -- consistency checks ------------------------------------------------------

def test_check_scenario_passes_on_shipped_config():
    cfg = load_config(CONFIG_DIR / "fig5_hybrid.json")
    report = check_scenario(cfg, n_audit_samples=60)
    assert report.passed, "\n".join(report.lines())
    names = [item.name for item in report.items]
    assert names[0] == "parameter bounds"
    assert "stuck point" in names
    assert "family audit" in names


def test_check_scenario_reports_broken_bounds_in_one_item():
    """A config built past the parser gets the parser's own bound lines."""
    cfg = load_config(CONFIG_DIR / "fig5_backstep.json")
    smoothed = dataclasses.replace(cfg.smoothed, gamma_s=0.2)
    backstep = dataclasses.replace(cfg.backstep, delta_b=0.5)
    cfg = dataclasses.replace(cfg, smoothed=smoothed, backstep=backstep)
    report = check_scenario(cfg, n_audit_samples=20)
    failing = [it for it in report.items if not it.passed]
    assert [it.name for it in failing] == ["parameter bounds"]
    raw = json.loads((CONFIG_DIR / "fig5_backstep.json").read_text())
    raw["gains"].update(gamma_s=0.2, delta_b=0.5)
    assert failing[0].detail.split("; ") == [
        p.removeprefix("test: gains: ") for p in violations_of(raw)]


def test_check_reports_a_missing_stuck_point_and_skips_the_audit(tmp_path,
                                                                capsys):
    """A skirt too weak to balance the pull (h(epsilon) > 0) leaves no
    stuck point to find: check fails on that item alone and runs no audit,
    and the audit command notes the missing point and audits the box with
    no critical states."""
    raw = json.loads((CONFIG_DIR / "fig5_hybrid.json").read_text())
    raw["world"]["varrho"] = 0.1
    report = check_scenario(parse_config(raw), n_audit_samples=20)
    assert [(it.name, it.passed) for it in report.items] == [
        ("parameter bounds", True), ("stuck point", False)]
    assert "does not change sign" in report.items[1].detail
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path), "--samples", "20"]) == 1
    out = capsys.readouterr().out
    assert out.count("[FAIL]") == 1 and "[FAIL] stuck point" in out
    assert main(["audit", str(path), "--samples", "20"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("[note] no stuck point: h(z) = ")
    assert "does not change sign" in captured.out
    assert "[FAIL]" not in captured.out and captured.err == ""


def test_check_and_audit_end_on_a_wide_skirt(tmp_path, capsys):
    """A skirt so wide that the stuck point's clearance exceeds 8192, which
    the parser accepts: both commands find the point and report."""
    raw = hybrid_raw()
    raw["world"].update(p_o=[0.0, 0.0], r_o=1.0, r_s=1e5, varrho=1.0,
                        p_d=[-3e5, 0.0])
    raw["initial"]["p0"] = [2e5, 10.0]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path), "--samples", "20"]) == 0
    assert "[PASS] stuck point: p* = (30105.2, 0)" in capsys.readouterr().out
    assert main(["audit", str(path), "--samples", "20"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_check_scenario_fails_on_wrong_expected_saddle():
    cfg = load_config(CONFIG_DIR / "fig2_check.json")
    bad = copy.deepcopy(cfg.expected)
    bad["saddle_x"] = 99.0
    cfg = type(cfg)(**{**cfg.__dict__, "expected": bad})
    report = check_scenario(cfg, n_audit_samples=40)
    assert not report.passed
    failing = [it for it in report.items if not it.passed]
    assert [it.name for it in failing] == ["expected stuck point"]


# -- command line ------------------------------------------------------------

def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "short.json"
    cfg_path.write_text(json.dumps(hybrid_raw(t_max=0.2)))
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    code = main(["run", str(cfg_path), "--csv", str(csv_path),
                 "--svg", str(svg_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario unit-hybrid" in out
    assert csv_path.exists() and svg_path.exists()

    code = main(["run", str(cfg_path), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_check_and_audit_pass_on_shipped_config(capsys):
    code = main(["check", str(CONFIG_DIR / "fig5_hybrid.json"),
                 "--samples", "60"])
    assert code == 0
    assert "[PASS]" in capsys.readouterr().out

    code = main(["audit", str(CONFIG_DIR / "fig5_hybrid.json"),
                 "--samples", "80", "--seed", "3"])
    assert code == 0
    assert "[PASS]" in capsys.readouterr().out


def test_cli_audit_rejects_a_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", str(CONFIG_DIR / "fig5_hybrid.json"), "--seed", "-3"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_cli_compare_lists_every_config(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(hybrid_raw(t_max=0.2)))
    b.write_text(json.dumps(non_hybrid_raw(t_max=0.2)))
    code = main(["compare", str(a), str(b)])
    assert code == 0
    out = capsys.readouterr().out
    assert "unit-hybrid" in out and "unit-plain" in out
    # One config is enough, as the help says.
    assert main(["compare", str(a)]) == 0
    out = capsys.readouterr().out
    assert "unit-hybrid" in out and "unit-plain" not in out


def test_cli_error_paths_exit_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["run", str(bad)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err

    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + json.dumps(hybrid_raw()).encode("utf-16-le"))
    code = main(["run", str(utf16)])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    invalid = tmp_path / "invalid.json"
    raw = hybrid_raw()
    raw["gains"]["k_p"] = -1.0
    invalid.write_text(json.dumps(raw))
    code = main(["run", str(invalid)])
    assert code == 2
    assert "k_p" in capsys.readouterr().err

    for name in ("fig5_hybrid", "fig5_smooth", "fig5_backstep"):
        # Steps so large that an RK4 stage state overflows to inf.
        raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        raw["sim"] = {"dt": 1e200, "t_max": 2e201}
        huge = tmp_path / f"{name}.json"
        huge.write_text(json.dumps(raw))
        assert main(["run", str(huge)]) == 2
        assert capsys.readouterr().err.startswith("error: RK4 stage state")

    for command in ("check", "audit"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(CONFIG_DIR / "fig5_hybrid.json"),
                  "--samples", "-5"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


# -- benchmark tracer --------------------------------------------------------

def load_spans():
    path = REPO_ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_patches_names_that_resolve():
    """perfbench/spans.py replaces program functions by name; every name it
    patches must still exist, and the loop builders must be looked up on the
    harness module at call time, or traced runs read zero calls."""
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()  # looks up every patched name on its module
        targets = list(tracer._patched)
        build_closed_loop(parse_config(hybrid_raw()))
        assert tracer.calls("navigation.build") == 1
    finally:
        tracer.uninstall()
    for module, attr, original in targets:
        assert getattr(module, attr) is original


def load_workloads(monkeypatch):
    path = REPO_ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def arc_bytes(arc):
    """Every sample, jump, the termination and the stats of an arc."""
    return ([(seg.j, seg.ts.tobytes(), seg.xs.tobytes()) for seg in arc.segments],
            [(ev.t, ev.j_pre, ev.x_pre.tobytes(), ev.x_post.tobytes(),
              ev.n_candidates) for ev in arc.jumps],
            arc.termination, arc.stats)


def test_traced_specs_give_the_same_arcs(monkeypatch):
    """The benchmark tracer rebuilds each spec with dataclasses.replace and
    wrapped callables; the traced spec must simulate bit for bit alike."""
    tracer = load_spans().Tracer()
    runs = []
    for raw in (hybrid_raw(0.2), smooth_raw(0.2), backstep_raw(0.2),
                non_hybrid_raw(0.2)):
        cfg = parse_config(raw)
        runs.append((build_closed_loop(cfg), initial_packed_state(cfg), cfg.sim))
    workloads = load_workloads(monkeypatch)
    runs.append((workloads.thermostat_spec(), np.array([1.0, 1.0]),
                 SimConfig(dt=workloads.THERMO_DT, t_max=5.0)))
    for spec, x0, sim in runs:
        traced = tracer.wrap_spec(spec, "test")
        assert traced.flow_map is not spec.flow_map
        assert arc_bytes(simulate(traced, x0, sim)) == \
            arc_bytes(simulate(spec, x0, sim))


def test_benchmark_workloads_pass_their_own_gate(monkeypatch, tmp_path):
    """perfbench/workloads.py drives the program through its public names;
    one arc per ring loop, one thermostat and fig2_check through the CLI
    (one jump, and its ``expected`` check) must still pass its checks."""
    workloads = load_workloads(monkeypatch)
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)

    ring = workloads.RingSweep(811)
    loops = list(workloads.RING_LOOPS)
    ring.starts = [next(s for s in ring.starts if s[0] == loop) for loop in loops]
    storm = workloads.EventStorm(811)
    storm.inits = storm.inits[:1]
    demo = workloads.DemoScenarios(811)
    demo.configs = ["fig2_check"]
    arcs = ring.run_pass() + storm.run_pass() + demo.run_pass()
    assert len(arcs) == len(loops) + 2
    for arc in arcs:
        assert arc.problems == [], arc.key
    assert arcs[-1].jumps == 1
    assert (tmp_path / "demo" / "fig2_check.csv").is_file()
