"""Unit tests for the synergistic quadruple layer."""

import dataclasses

import numpy as np
import pytest

from syncon.engine import SimConfig, simulate
from syncon.errors import DimensionMismatch, NonPositiveDistance
from syncon.synergy import (
    TIE_TOL,
    AffinePlant,
    SynergisticQuadruple,
    assemble_closed_loop,
    audit_quadruple,
    latin_hypercube,
    switch_candidates,
    v_excess,
)


def scalar_family(delta=1.0, kappa_sign=-1.0):
    """V = (x - theta)^2 over candidates theta in {-1, +1}.

    kappa_sign = -1 gives the stabilizing feedback; +1 flips it so V grows
    along flows, which the audit should flag.
    """
    q = SynergisticQuadruple(
        V=lambda x, th: float((x[0] - th[0]) ** 2),
        grad_V=lambda x, th: (np.array([2.0 * (x[0] - th[0])]),
                              np.array([-2.0 * (x[0] - th[0])])),
        kappa=lambda x, th: kappa_sign * np.array([x[0] - th[0]]),
        varpi=lambda x, th: np.zeros(1),
        Theta=np.array([-1.0, 1.0]),
        delta=delta,
    )
    plant = AffinePlant(dim_x=1, dim_u=1,
                        f=lambda x: np.zeros(1),
                        g=lambda x: np.eye(1))
    return plant, q


def test_flat_theta_list_becomes_a_column():
    _, q = scalar_family()
    assert q.Theta.shape == (2, 1)
    assert q.n_candidates == 2
    assert q.dim_theta == 1


def test_two_dim_candidates_keep_their_shape():
    q = SynergisticQuadruple(
        V=lambda x, th: float(th @ th),
        grad_V=lambda x, th: (np.zeros(1), 2.0 * th),
        kappa=lambda x, th: np.zeros(1),
        varpi=lambda x, th: np.zeros(2),
        Theta=np.array([[0.0, 1.0], [1.0, 0.0]]),
        delta=0.5,
    )
    assert q.Theta.shape == (2, 2)
    assert q.dim_theta == 2


def test_quadruple_rejects_bad_candidate_sets():
    def build(theta, delta=1.0):
        return SynergisticQuadruple(
            V=lambda x, th: 0.0,
            grad_V=lambda x, th: (np.zeros(1), np.zeros(1)),
            kappa=lambda x, th: np.zeros(1),
            varpi=lambda x, th: np.zeros(1),
            Theta=theta,
            delta=delta,
        )

    with pytest.raises(ValueError):
        build(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        build(np.zeros((0, 1)))
    with pytest.raises(ValueError):
        build(np.array([1.0]), delta=0.0)
    with pytest.raises(ValueError):
        build(np.array([1.0]), delta=-0.5)
    with pytest.raises(ValueError):
        build(np.array([1.0]), delta=float("nan"))


def test_excess_and_best_value():
    _, q = scalar_family()
    x = np.array([1.0])
    assert v_excess(q, x, np.array([-1.0])) == 4.0
    assert v_excess(q, x, np.array([1.0])) == 0.0
    # Excess is V relative to the best member, so a theta outside the
    # candidate set can even sit below it.
    assert v_excess(q, np.array([0.5]), np.array([0.5])) == -0.25


def test_indicators_partition_the_state_space():
    plant, q = scalar_family(delta=1.0)
    spec = assemble_closed_loop(plant, q)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, 1)
        th = np.array([rng.choice([-1.0, 1.0])])
        v = np.concatenate([x, th])
        fi = spec.in_flow_set(v)
        ji = spec.in_jump_set(v)
        assert fi == v_excess(q, x, th) - q.delta
        assert fi + ji == pytest.approx(0.0, abs=1e-15)
        assert fi <= 0.0 or ji <= 0.0


def test_tie_breaking_follows_candidate_order():
    _, q = scalar_family()
    # x = 0 is equidistant from both candidates: exact tie, both reported,
    # lowest index first.
    cands = switch_candidates(q, np.zeros(1), np.array([-1.0]))
    assert len(cands) == 2
    assert cands[0][0] == -1.0
    assert cands[1][0] == 1.0

    # Offsetting x by more than the tie tolerance keeps only the winner.
    cands = switch_candidates(q, np.array([1e-5]), np.array([-1.0]))
    assert len(cands) == 1
    assert cands[0][0] == 1.0

    # An offset far below the tolerance still counts as a tie.
    shift = 1e-14
    vals = [q.V(np.array([shift]), q.Theta[i]) for i in range(2)]
    assert abs(vals[0] - vals[1]) < TIE_TOL
    cands = switch_candidates(q, np.array([shift]), np.array([-1.0]))
    assert len(cands) == 2


def test_closed_loop_jump_drops_v_by_at_least_delta():
    plant, q = scalar_family(delta=1.0)
    spec = assemble_closed_loop(plant, q)
    assert spec.dim == 2

    arc = simulate(spec, np.array([1.0, -1.0]), SimConfig(dt=0.01, t_max=6.0))
    assert arc.n_jumps == 1
    ev = arc.jumps[0]
    v_pre = q.V(ev.x_pre[:1], ev.x_pre[1:])
    v_post = q.V(ev.x_post[:1], ev.x_post[1:])
    assert v_pre - v_post >= q.delta
    # The plant state freezes across the switch; only theta moves.
    assert ev.x_pre[0] == ev.x_post[0]
    assert ev.x_post[1] == 1.0
    # Afterwards the loop settles on the selected candidate.
    assert abs(float(arc.final_state[0]) - 1.0) <= 1e-2


def test_closed_loop_checks_feedback_dimensions():
    plant, q = scalar_family()
    q_bad_u = SynergisticQuadruple(
        V=q.V, grad_V=q.grad_V, kappa=lambda x, th: np.zeros(2),
        varpi=q.varpi, Theta=q.Theta.copy(), delta=q.delta)
    spec = assemble_closed_loop(plant, q_bad_u)
    with pytest.raises(DimensionMismatch):
        simulate(spec, np.array([0.5, 1.0]), SimConfig(dt=0.01, t_max=0.1))

    q_bad_w = SynergisticQuadruple(
        V=q.V, grad_V=q.grad_V, kappa=q.kappa,
        varpi=lambda x, th: np.zeros(3), Theta=q.Theta.copy(), delta=q.delta)
    spec = assemble_closed_loop(plant, q_bad_w)
    with pytest.raises(DimensionMismatch):
        simulate(spec, np.array([0.5, 1.0]), SimConfig(dt=0.01, t_max=0.1))


def test_latin_hypercube_stratifies_each_axis():
    rng = np.random.default_rng(11)
    n = 16
    draws = latin_hypercube(rng, n, np.array([0.0, -2.0]), np.array([1.0, 2.0]))
    assert draws.shape == (n, 2)
    assert np.all(draws >= [0.0, -2.0]) and np.all(draws <= [1.0, 2.0])
    # Exactly one draw per stratum per axis.
    for col, lo, hi in ((0, 0.0, 1.0), (1, -2.0, 2.0)):
        strata = np.floor((draws[:, col] - lo) / (hi - lo) * n).astype(int)
        assert sorted(strata) == list(range(n))

    again = latin_hypercube(np.random.default_rng(11), n,
                            np.array([0.0, -2.0]), np.array([1.0, 2.0]))
    assert np.array_equal(draws, again)


def test_audit_passes_for_the_stabilizing_family():
    plant, q = scalar_family(delta=1.0)
    # At x = 0 both candidates give V = 1: two tied states.
    samples = [(np.array([x]), np.array([th]))
               for x in (-2.0, -0.5, 0.0, 0.5, 2.0) for th in (-1.0, 1.0)]
    report = audit_quadruple(plant, q, samples,
                             critical_states=[(np.array([1.0]), np.array([-1.0]))])
    assert report.passed
    assert report.c3_worst <= 1e-9
    assert report.c4_margin == pytest.approx(3.0)
    assert report.v_min >= 0.0
    assert report.n_states_checked == len(samples)
    assert report.argmin_ties == 2
    assert any(line.startswith("[PASS]") for line in report.lines())


def test_audit_flags_increasing_v_along_flows():
    plant, q = scalar_family(kappa_sign=1.0)
    samples = [(np.array([2.0]), np.array([1.0]))]
    report = audit_quadruple(plant, q, samples, critical_states=[])
    assert not report.c3_pass
    assert report.c3_worst > 0.0
    assert not report.passed


def test_audit_flags_insufficient_critical_excess():
    plant, q = scalar_family(delta=1.0)
    # theta = 1 is already the best candidate at x = 0.5, so the excess is
    # zero and falls a full delta short of clearing the gap.
    report = audit_quadruple(plant, q, [],
                             critical_states=[(np.array([0.5]), np.array([1.0]))])
    assert not report.c4_pass
    assert report.c4_margin == pytest.approx(-1.0)


def test_audit_box_sampling_skips_inadmissible_draws():
    plant, q = scalar_family()
    plant.safety_indicator = lambda x: float(x[0])  # x > 0 is out of bounds
    report = audit_quadruple(
        plant, q, [], critical_states=[],
        box=(np.array([-2.0, -1.0]), np.array([2.0, 1.0])),
        n_samples=40, seed=5)
    assert 0 < report.n_states_checked < 40
    assert any("skipped" in note for note in report.notes)


def test_audit_probes_rays_from_zero_and_stops_at_a_domain_error():
    """With no state at all the rays leave the origin of [x | theta]; a ray
    whose V raises a SynconError is dropped, not propagated."""
    plant, q = scalar_family()
    report = audit_quadruple(plant, q, [], critical_states=[])
    assert report.n_states_checked == 0
    assert report.c1_rays_checked == report.c1_rays_growing == 8
    assert report.passed

    def V(x, th):
        if abs(x[0]) > 3.0 or abs(th[0]) > 3.0:
            raise NonPositiveDistance("outside the domain")
        return float((x[0] - th[0]) ** 2)

    report = audit_quadruple(plant, dataclasses.replace(q, V=V), [],
                             critical_states=[])
    assert report.c1_rays_checked == 0
    assert report.passed
