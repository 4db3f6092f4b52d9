"""Materials-to-design pipeline: permittivity/permeability tensors in, a
verified energy-redistributing interface out."""

import numpy as np
import pytest

from conftest import admissible_targets
from refractor.fresnel import FresnelMaterial, induced_norm
from refractor.norms import MediumPair, Regime, norm_gradient
from refractor.snell import check_constraint, refract
from refractor.solver import (SourceDensity, TargetMeasure, refractor_measure,
                              solve_discrete)
from refractor.transport import (assignment_agreement, build_cost,
                                 certificate, solve_ot_exact)

Z = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def material_pipeline():
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    # dense medium: anisotropic, single sheet (mu = a1 * eps)
    eps1 = q @ np.diag([2.6, 2.3, 2.4]) @ q.T
    a1 = 0.4
    mat1 = FresnelMaterial(eps1, a1 * eps1)
    # lighter medium: mildly anisotropic
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    eps2 = q2 @ np.diag([1.05, 0.95, 1.0]) @ q2.T
    a2 = 1.0
    mat2 = FresnelMaterial(eps2, a2 * eps2)
    pair = MediumPair(induced_norm(mat1), induced_norm(mat2))
    assert pair.regime is Regime.CASE_I

    src = SourceDensity.from_cap(pair.n1, Z, 0.22, 4000)
    dirs = admissible_targets(pair, src, 4, 0.1, rng)
    g = rng.uniform(0.5, 1.5, 4)
    g *= src.total / g.sum()
    tgt = TargetMeasure.of(pair.n2, dirs, g)
    refr = solve_discrete(pair, src, tgt, b1=1.0, tol=1e-3)
    return pair, src, tgt, refr


def test_pipeline_energy_balance(material_pipeline):
    pair, src, tgt, refr = material_pipeline
    rep = refractor_measure(refr, src)
    assert rep.residual <= 1e-3
    assert np.sum(rep.masses) == pytest.approx(src.total, rel=1e-12)


def test_pipeline_ray_trace(material_pipeline):
    # every traced ray obeys the refraction law into its assigned target
    pair, src, tgt, refr = material_pipeline
    rep = refractor_measure(refr, src)
    p1 = norm_gradient(pair.n1, src.nodes)
    p2m = norm_gradient(pair.n2, tgt.directions)
    for j in range(0, src.count, 37):
        i = rep.assignment[j]
        nu = p1[j] - p2m[i]
        ev = refract(pair, src.nodes[j], nu / np.linalg.norm(nu))
        assert np.linalg.norm(ev.m - tgt.directions[i]) <= 1e-9
        assert check_constraint(pair, src.nodes[j], ev.m)


def test_pipeline_transport_agreement(material_pipeline):
    pair, src, tgt, refr = material_pipeline
    assert certificate(refr, src, refractor_measure(refr, src))["agrees"]
    # downsampled verification against the exact plan
    small = SourceDensity.from_cap(pair.n1, Z, 0.22, 400)
    g = tgt.masses * (small.total / np.sum(tgt.masses))
    tgt_small = TargetMeasure.of(pair.n2, tgt.directions, g)
    refr_small = solve_discrete(pair, small, tgt_small, b1=1.0, tol=1.5e-2)
    rep = refractor_measure(refr_small, small)
    cost = build_cost(pair, small, tgt_small)
    plan = solve_ot_exact(cost, small, tgt_small, masses=rep.masses)
    agree = assignment_agreement(refr_small, small, plan, cost)
    assert agree["mismatch_mass"] <= 1e-3 * small.total
    assert agree["objective_gap_rel"] <= 1e-9
