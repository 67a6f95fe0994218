"""Unit tests for config parsing, scenario runs, exports, and the CLI."""

import copy
import importlib.util
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import CONFIG_DIR, REPO_ROOT
from syncon.cli import main
from syncon.engine import Priority
from syncon.errors import ParseError, ValidationError
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
from syncon.navigation import decomposed_feedback, nominal_controller
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
    assert cfg.sim.priority is Priority.JUMP
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
    raw["sim"]["priority"] = "both"
    assert any("sim.priority" in p for p in violations_of(raw))

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


def test_parse_reports_tracker_and_integrator_bounds_together():
    raw = backstep_raw()
    raw["gains"]["gamma_s"] = 0.2  # above delta / c_kappa
    raw["gains"]["delta_b"] = 0.5  # above delta - gamma_s c_kappa
    problems = violations_of(raw)
    assert any("gamma_s" in p for p in problems)
    assert any("delta_b" in p for p in problems)


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
    assert "stuck point" in names
    assert "family audit" in names


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


def test_cli_compare_lists_every_config(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(hybrid_raw(t_max=0.2)))
    b.write_text(json.dumps(non_hybrid_raw(t_max=0.2)))
    code = main(["compare", str(a), str(b)])
    assert code == 0
    out = capsys.readouterr().out
    assert "unit-hybrid" in out and "unit-plain" in out


def test_cli_error_paths_exit_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["run", str(bad)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err

    invalid = tmp_path / "invalid.json"
    raw = hybrid_raw()
    raw["gains"]["k_p"] = -1.0
    invalid.write_text(json.dumps(raw))
    code = main(["run", str(invalid)])
    assert code == 2
    assert "k_p" in capsys.readouterr().err


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
