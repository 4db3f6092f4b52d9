from dataclasses import replace

import numpy as np
import pytest

from conftest import admissible_targets
from refractor.errors import Infeasible, ValidationError
from refractor.norms import MediumPair, norm_gradient
from refractor.solver import (Refractor, SourceDensity, TargetMeasure,
                              dilate, refractor_map, refractor_measure,
                              rho_values, solve_discrete)
from refractor.transport import (CostMatrix, assignment_agreement, build_cost,
                                 c_concavity_defect, certificate,
                                 check_c_concavity, plan_objective,
                                 solve_ot_exact)

Z = np.array([0.0, 0.0, 1.0])


def source_and_pair(nodes, n1=1.5, n2=1.0, angle=0.25):
    pair = MediumPair.isotropic(n1, n2)
    src = SourceDensity.from_cap(pair.n1, Z, angle, nodes)
    return pair, src


def solved_instance(n1=1.5, n2=1.0, nodes=400, count=5, seed=3, tol=1e-2):
    pair = MediumPair.isotropic(n1, n2)
    src = SourceDensity.from_cap(pair.n1, Z, 0.25, nodes)
    rng = np.random.default_rng(seed)
    if n1 > n2:
        dirs = admissible_targets(pair, src, count, 0.15, rng)
    else:
        ths = 0.10 * np.sqrt(rng.uniform(size=count))
        phs = rng.uniform(0, 2 * np.pi, count)
        dirs = np.stack([np.sin(ths) * np.cos(phs),
                         np.sin(ths) * np.sin(phs), np.cos(ths)], axis=-1)
    g = rng.uniform(0.5, 1.5, count)
    g *= src.total / g.sum()
    tgt = TargetMeasure.of(pair.n2, dirs, g)
    refr = solve_discrete(pair, src, tgt, b1=1.0, tol=tol)
    return pair, src, tgt, refr


def test_cost_zero_at_orthogonal():
    pair = MediumPair.isotropic(1.5, 1.0)
    # a node orthogonal to p2(m) has cost log(1) = 0; craft it directly
    src = SourceDensity.from_cap(pair.n1, np.array([1.0, 0.0, 0.0]), 0.01, 50)
    assert src.count == 50
    tgt = TargetMeasure.of(pair.n2, np.array([Z]), np.array([src.total]))
    cost = build_cost(pair, src, tgt)
    # nodes are near e_x which is orthogonal to p2(m) = e_z
    assert np.max(np.abs(cost.entries)) <= 0.02


def test_cost_isotropic_formula_and_bound():
    pair, src, tgt, _ = solved_instance()
    cost = build_cost(pair, src, tgt)
    kappa = pair.kappa
    x_hat = src.nodes * 1.5
    m_hat = tgt.directions * 1.0
    expect = np.log(1.0 / (1.0 - kappa * (x_hat @ m_hat.T)))
    assert np.allclose(cost.entries, expect, atol=1e-12)
    assert np.max(cost.entries) <= np.log(1.0 / (1.0 - kappa)) + 1e-12
    assert np.all(np.isfinite(cost.entries))


def test_single_target_plan():
    pair, src = source_and_pair(300)
    tgt = TargetMeasure.of(pair.n2, np.array([Z]), np.array([src.total]))
    cost = build_cost(pair, src, tgt)
    plan = solve_ot_exact(cost, src, tgt)
    assert np.allclose(plan[:, 0], src.weights, rtol=1e-9)


def test_hand_instance_dominant_support():
    # 2x2 with a clearly cheapest diagonal: the min-cost plan is diagonal
    pair, src = source_and_pair(60)
    entries = np.full((src.count, 2), 5.0)
    entries[: src.count // 2, 0] = 0.1
    entries[src.count // 2:, 1] = 0.1
    cost = CostMatrix(entries=entries)
    g = np.array([float(np.sum(src.weights[: src.count // 2])),
                  float(np.sum(src.weights[src.count // 2:]))])
    tgt = TargetMeasure.of(pair.n2, np.array([Z, [0.05, 0.0, 0.9987]]), g)
    plan = solve_ot_exact(cost, src, tgt)
    assert np.allclose(plan[: src.count // 2, 0],
                       src.weights[: src.count // 2], rtol=1e-9)
    assert np.allclose(plan[src.count // 2:, 1],
                       src.weights[src.count // 2:], rtol=1e-9)


def test_refractor_plan_is_optimal_case1():
    pair, src, tgt, refr = solved_instance()
    rep = refractor_measure(refr, src)
    cost = build_cost(pair, src, tgt)
    plan = solve_ot_exact(cost, src, tgt, masses=rep.masses)
    obj_lp = plan_objective(cost, plan)
    obj_rf = plan_objective(cost, rep.plan)
    assert abs(obj_rf - obj_lp) <= 1e-9 * abs(obj_lp)
    cert = certificate(refr, src, rep, cost)
    assert cert["agrees"] is True
    assert abs(cert["objective"] - obj_lp) <= 1e-9 * abs(obj_lp)
    # the minimization direction is essential: maximizing disagrees
    fl = CostMatrix(entries=-cost.entries)
    obj_max = -plan_objective(fl, solve_ot_exact(fl, src, tgt,
                                                 masses=rep.masses))
    assert obj_max > obj_lp * (1.0 + 1e-6)
    # moving one node to a target off its argmin breaks the certificate
    # even with consistent masses: the duality gap opens
    j = int(np.argmax(src.weights))
    k = (rep.assignment[j] + 1) % tgt.count
    moved = rep.plan.copy()
    moved[j] = 0.0
    moved[j, k] = src.weights[j]
    bad = replace(rep, plan=moved, masses=moved.sum(axis=0))
    cert = certificate(refr, src, bad, cost)
    assert cert["agrees"] is False
    assert cert["duality_gap_rel"] > 1e-9


def test_refractor_plan_is_optimal_case2():
    pair, src, tgt, refr = solved_instance(n1=1.0, n2=1.5, seed=4)
    rep = refractor_measure(refr, src)
    cost = build_cost(pair, src, tgt)
    plan = solve_ot_exact(cost, src, tgt, masses=rep.masses)
    obj_lp = plan_objective(cost, plan)
    obj_rf = plan_objective(cost, rep.plan)
    assert abs(obj_rf - obj_lp) <= 1e-9 * abs(obj_lp)
    cert = certificate(refr, src, rep, cost)
    assert cert["agrees"] is True
    assert cert["min_slack"] >= -1e-12  # excluded arcs count as +inf
    assert abs(cert["objective"] - obj_lp) <= 1e-9 * abs(obj_lp)


def test_refractor_plan_is_the_measure_split():
    # 2-D, mirror-symmetric about the cap axis: the on-axis node ties
    # exactly between the two targets
    pair = MediumPair.isotropic(1.5, 1.0, dim=2)
    src = SourceDensity.from_cap(pair.n1, np.array([0.0, 1.0]), 0.25, 41)
    t = 0.1
    dirs = np.array([[np.sin(t), np.cos(t)], [-np.sin(t), np.cos(t)]])
    tgt = TargetMeasure.of(pair.n2, dirs, np.full(2, src.total / 2))
    refr = Refractor(pair, tgt, np.array([1.0, 1.0]))
    rep = refractor_measure(refr, src)
    plan = rep.plan
    j = src.count // 2
    assert src.nodes[j, 0] == 0.0
    assert np.array_equal(plan.sum(axis=1), src.weights)
    assert np.array_equal(plan.sum(axis=0), rep.masses)
    assert np.array_equal(plan[j], np.full(2, src.weights[j] / 2))
    assert refractor_map(refr, src.nodes[j]) == (0, 1)
    assert np.count_nonzero(rep.tie_counts > 1) == 1


def test_assignment_agreement():
    pair, src, tgt, refr = solved_instance(seed=5)
    rep = refractor_measure(refr, src)
    cost = build_cost(pair, src, tgt)
    plan = solve_ot_exact(cost, src, tgt, masses=rep.masses)
    agree = assignment_agreement(refr, src, plan, cost)
    assert agree["mismatch_mass"] <= 1e-3 * src.total
    assert agree["tie_band_mass"] <= 1e-3 * src.total
    assert agree["objective_gap_rel"] <= 1e-9


def test_dilation_leaves_assignment():
    pair, src, tgt, refr = solved_instance(seed=6)
    rep = refractor_measure(refr, src)
    for C in (0.5, 2.0, 10.0):
        rep_d = refractor_measure(dilate(refr, C), src)
        assert np.array_equal(rep.assignment, rep_d.assignment)


def test_c_concavity_solved_refractor():
    pair, src, tgt, refr = solved_instance(seed=7)
    assert check_c_concavity(refr, src)
    pair2, src2, tgt2, refr2 = solved_instance(n1=1.0, n2=1.5, seed=8)
    assert check_c_concavity(refr2, src2)


def test_c_concavity_corrupted_radius_still_min_structure():
    pair, src, tgt, refr = solved_instance(seed=9)
    radii = refr.radii.copy()
    radii[2] *= 1.05  # large enough to move cell boundaries past nodes
    corrupted = Refractor(pair, tgt, radii)
    assert check_c_concavity(corrupted, src)  # still a min of surfaces
    rep = refractor_measure(corrupted, src)
    assert rep.residual > refractor_measure(refr, src).residual
    # the certificate of refr must not pass with u taken from other radii
    cost = build_cost(pair, src, tgt)
    cert = certificate(refr, src, replace(refractor_measure(refr, src),
                                          min_radii=rep.min_radii), cost)
    assert cert["agrees"] is False
    assert cert["min_slack"] < -1e-6


def test_c_concavity_random_profile_fails():
    pair, src, tgt, refr = solved_instance(seed=10)
    cost = build_cost(pair, src, tgt)
    rng = np.random.default_rng(0)
    log_rho = np.log(rho_values(refr, src.nodes))
    log_rho += rng.uniform(0.0, 0.05, size=log_rho.shape)
    assert c_concavity_defect(cost, log_rho) > 1e-6


def test_case2_masked_arcs():
    pair, src, tgt, refr = solved_instance(n1=1.0, n2=1.5, seed=11)
    cost = build_cost(pair, src, tgt)
    assert np.all(cost.feasible)
    # widen the instance past the x.p2(m) > 1 cone so arcs drop out
    wide = SourceDensity.from_cap(pair.n1, Z, 0.9, 300)
    cost_w = build_cost(pair, wide, tgt)
    assert np.any(~cost_w.feasible)
    assert np.all(cost_w.entries[~cost_w.feasible] == np.inf)
    assert np.all(np.isfinite(cost_w.entries[cost_w.feasible]))


def test_infeasible_disconnected():
    pair, src = source_and_pair(50)
    entries = np.full((src.count, 2), np.inf)
    entries[:, 0] = 1.0  # target 1 unreachable but must receive half
    cost = CostMatrix(entries=entries)
    tgt = TargetMeasure.of(pair.n2, np.array([Z, [0.05, 0.0, 0.9987]]),
                           np.full(2, src.total / 2))
    with pytest.raises(Infeasible):
        solve_ot_exact(cost, src, tgt)


def test_budget_guard():
    pair, src = source_and_pair(60)
    tgt = TargetMeasure.of(pair.n2, np.array([Z]), np.array([src.total]))
    big = CostMatrix(entries=np.zeros((2001, 3)))
    with pytest.raises(ValidationError):
        solve_ot_exact(big, src, tgt)
