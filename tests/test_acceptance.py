"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (admissible_targets, random_ellipsoidal_pair, src_env,
                      sweep_alone)
from refractor import solver
from refractor.errors import NoRefraction
from refractor.fresnel import (FresnelMaterial, induced_norm, phi_psi,
                               sheet_radii, single_sheet_check)
from refractor.norms import (MediumPair, Norm, Regime, norm_eval,
                             norm_gradient)
from refractor.snell import fermat_path, refract
from refractor.solver import (SourceDensity, TargetMeasure,
                              refractor_measure, solve_discrete)
from refractor.surfaces import UniformSurface, surface_normal
from refractor.theory import (dilate, lipschitz_bound,
                              max_difference_quotient)
from refractor.transport import (assignment_agreement, build_cost,
                                 plan_objective, solve_ot_exact)

REPO = Path(__file__).resolve().parents[1]
Z = np.array([0.0, 0.0, 1.0])


def _pass(num, name, detail):
    print(f"ACCEPTANCE {num} [{name}]: PASS ({detail})")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_norm_duality_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for make in (
        lambda: Norm.ellipsoidal(np.eye(3) + 0.3 * rng.standard_normal((3, 3))),
        lambda: Norm.lq(1.0 + rng.uniform(0.3, 3.0), dim=3),
    ):
        n = make()
        x = rng.standard_normal((1000, 3))
        xs = x / norm_eval(n, x)[:, None]
        # Euler identity
        worst = max(worst, float(np.max(np.abs(
            np.sum(x * norm_gradient(n, x), axis=-1) - norm_eval(n, x)))))
        # p* o p = Id on the unit sphere
        back = norm_gradient(n.dual(), norm_gradient(n, xs))
        worst = max(worst, float(np.max(np.linalg.norm(back - xs, axis=-1))))
        # N** = N
        worst = max(worst, float(np.max(np.abs(
            norm_eval(n.dual().dual(), x) - norm_eval(n, x)))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    _pass(1, "norm duality", f"max error {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_snell_fermat_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    done = 0
    while done < 500:
        pair = random_ellipsoidal_pair(rng)
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        P0 = 0.3 * rng.standard_normal(3)
        X = P0 - nu * rng.uniform(0.5, 2.0) + 0.4 * rng.standard_normal(3)
        Y = P0 + nu * rng.uniform(0.5, 2.0) + 0.4 * rng.standard_normal(3)
        if (X - P0) @ nu >= -1e-3 or (Y - P0) @ nu <= 1e-3:
            continue
        P = fermat_path(pair.n1, pair.n2, X, Y, (P0, nu))
        x = (P - X) / norm_eval(pair.n1, P - X)
        m_leg = (Y - P) / norm_eval(pair.n2, Y - P)
        try:
            ev = refract(pair, x, nu)
        except NoRefraction:
            continue
        worst = max(worst, float(np.linalg.norm(ev.m - m_leg)))
        done += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-7
    assert elapsed < 30.0
    _pass(2, "Snell-Fermat equivalence",
          f"500 geometries, max |m - Fermat leg| {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def scalar_snell_direction(n1, n2, x_hat, nu):
    cos1 = float(x_hat @ nu)
    t = x_hat - cos1 * nu
    st = np.linalg.norm(t)
    sin2 = (n1 / n2) * st
    if sin2 > 1.0:
        return None
    cos2 = np.sqrt(1.0 - sin2 * sin2)
    t_hat = t / st if st > 0 else t
    return sin2 * t_hat + cos2 * nu


def test_criterion_3_isotropic_reduction():
    nu = Z
    worst = 0.0
    for n1, n2 in ((1.5, 1.0), (1.0, 1.5)):
        pair = MediumPair.isotropic(n1, n2)
        theta_max = np.arcsin(min(1.0, n2 / n1)) - 1e-9 if n1 > n2 \
            else np.pi / 2 - 1e-9
        for theta in np.linspace(0.0, theta_max, 1000):
            x_hat = np.array([np.sin(theta), 0.0, np.cos(theta)])
            oracle = scalar_snell_direction(n1, n2, x_hat, nu)
            ev = refract(pair, x_hat / n1, nu)
            worst = max(worst, float(np.linalg.norm(ev.m_unit() - oracle)))
    assert worst <= 1e-9

    # total-refraction boundary, Case I: the largest refractable incidence
    pair = MediumPair.isotropic(1.5, 1.0)
    lo, hi = 0.0, np.pi / 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        x_hat = np.array([np.sin(mid), 0.0, np.cos(mid)])
        try:
            refract(pair, x_hat / 1.5, nu)
            lo = mid
        except NoRefraction:
            hi = mid
    x_hat = np.array([np.sin(lo), 0.0, np.cos(lo)])
    ev = refract(pair, x_hat / 1.5, nu)
    thr1 = float(x_hat @ ev.m_unit())
    assert abs(thr1 - 1.0 / 1.5) <= 1e-6

    # Case II reaches its threshold at grazing incidence
    pair = MediumPair.isotropic(1.0, 1.5)
    ev = refract(pair, np.array([1.0, 0.0, 0.0]), nu)
    thr2 = float(np.array([1.0, 0.0, 0.0]) @ ev.m_unit())
    assert abs(thr2 - 1.0 / 1.5) <= 1e-6
    _pass(3, "isotropic reduction",
          f"scalar-law max error {worst:.2e}; thresholds "
          f"{thr1:.8f}/{thr2:.8f} vs 2/3")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_uniform_surface_round_trip():
    rng = np.random.default_rng(104)
    worst = 0.0
    traced = 0
    for case2 in (False, True):
        pair = MediumPair.isotropic(1.0, 1.5) if case2 \
            else MediumPair.isotropic(1.5, 1.0)
        dirs = SourceDensity.from_cap(pair.n1, Z, 0.22, 300)
        for _ in range(50):
            th = 0.12 * np.sqrt(rng.uniform())
            ph = rng.uniform(0, 2 * np.pi)
            mdir = np.array([np.sin(th) * np.cos(ph),
                             np.sin(th) * np.sin(ph), np.cos(th)])
            s = UniformSurface(pair, mdir, b=rng.uniform(0.3, 3.0))
            nodes = dirs.nodes
            if case2:
                nodes = nodes[nodes @ s.p2m > 1.0 + 1e-9]
            else:
                nodes = nodes[norm_gradient(pair.n1, nodes) @ s.m >= 1.0 + 1e-9]
            _, unit = surface_normal(s, nodes)
            for x, nu in zip(nodes, unit):
                ev = refract(pair, x, nu)
                worst = max(worst, float(np.linalg.norm(ev.m - s.m)))
                traced += 1
    assert worst <= 1e-9
    _pass(4, "uniform-surface round trip",
          f"{traced} rays over 100 surfaces, max |m - target| {worst:.2e}")


# ---------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def desk_scale_solutions():
    results = {}
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()

    pair_iso = MediumPair.isotropic(1.5, 1.0)
    src_iso = SourceDensity.from_cap(pair_iso.n1, Z, 0.25, 20_000)
    dirs = admissible_targets(pair_iso, src_iso, 5, 0.15, rng)
    g = rng.uniform(0.5, 1.5, 5)
    g *= src_iso.total / g.sum()
    tgt_iso = TargetMeasure.of(pair_iso.n2, dirs, g)
    results["iso"] = (pair_iso, src_iso, tgt_iso,
                      solve_discrete(pair_iso, src_iso, tgt_iso, 1.0, 1e-3))

    pair_an = MediumPair(Norm.ellipsoidal(np.diag([1.7, 1.55, 1.6])),
                         Norm.ellipsoidal(np.diag([1.0, 0.95, 1.05])))
    src_an = SourceDensity.from_cap(pair_an.n1, Z, 0.25, 20_000)
    dirs = admissible_targets(pair_an, src_an, 5, 0.1, rng)
    g = rng.uniform(0.5, 1.5, 5)
    g *= src_an.total / g.sum()
    tgt_an = TargetMeasure.of(pair_an.n2, dirs, g)
    results["aniso"] = (pair_an, src_an, tgt_an,
                        solve_discrete(pair_an, src_an, tgt_an, 1.0, 1e-3))
    results["solve_seconds"] = time.perf_counter() - t0
    return results


def test_criterion_5_energy_balance(desk_scale_solutions):
    t0 = time.perf_counter()
    for key in ("iso", "aniso"):
        pair, src, tgt, refr = desk_scale_solutions[key]
        rep = refractor_measure(refr, src)
        assert rep.residual <= 1e-3
        assert refr.info.sweeps <= solver.FILL_ROUNDS
        # the sweep alone, from its own start, designs what Newton designs
        refr2 = sweep_alone(pair, src, tgt, 1.0, 1e-3)
        rel = float(np.max(np.abs(refr2.radii - refr.radii) / refr.radii))
        assert rel <= 1e-2
    elapsed = desk_scale_solutions["solve_seconds"] + time.perf_counter() - t0
    assert elapsed <= 120.0
    _pass(5, "energy balance",
          f"iso+aniso 2e4 nodes, residuals <= 1e-3, re-solve radii agree, "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_ot_agreement():
    pair = MediumPair.isotropic(1.5, 1.0)
    src = SourceDensity.from_cap(pair.n1, Z, 0.25, 500)
    rng = np.random.default_rng(106)
    dirs = admissible_targets(pair, src, 5, 0.15, rng)
    g = rng.uniform(0.5, 1.5, 5)
    g *= src.total / g.sum()
    tgt = TargetMeasure.of(pair.n2, dirs, g)
    # tol matched to the 500-node quadrature resolution
    refr = solve_discrete(pair, src, tgt, 1.0, tol=1e-2)
    rep = refractor_measure(refr, src)
    cost = build_cost(pair, src, tgt)
    plan = solve_ot_exact(cost, src, tgt, masses=rep.masses)
    agree = assignment_agreement(refr, src, plan, cost)
    assert agree["mismatch_mass"] <= 1e-3 * src.total
    assert agree["tie_band_mass"] <= 1e-3 * src.total
    gap = abs(plan_objective(cost, plan)
              - plan_objective(cost, rep.plan))
    assert gap <= 1e-9 * abs(plan_objective(cost, plan))
    for C in (0.5, 2.0, 10.0):
        rep_d = refractor_measure(dilate(refr, C), src)
        assert np.array_equal(rep.assignment, rep_d.assignment)
        assert np.array_equal(rep.tie_counts, rep_d.tie_counts)
    _pass(6, "transport agreement",
          f"mismatch {agree['mismatch_mass']:.2e}, tie band "
          f"{agree['tie_band_mass']:.2e} of total {src.total:.3e}; "
          "dilations leave the assignment bit-identical")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_fresnel_algebra():
    rng = np.random.default_rng(107)
    worst_det = 0.0
    worst_gap = 0.0
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        eps = q @ np.diag(rng.uniform(0.25, 4.0, 3)) @ q.T
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mu = q2 @ np.diag(rng.uniform(0.25, 4.0, 3)) @ q2.T
        mat = FresnelMaterial(eps, mu)
        t1, t2, t3 = mat.taus
        p = rng.standard_normal((1000, 3))
        p /= np.linalg.norm(p, axis=-1, keepdims=True)
        phi, psi = phi_psi(mat, p)
        M = np.zeros((1000, 3, 3))
        M[:, 0, 0] = t1 - p[:, 1] ** 2 - p[:, 2] ** 2
        M[:, 1, 1] = t2 - p[:, 0] ** 2 - p[:, 2] ** 2
        M[:, 2, 2] = t3 - p[:, 0] ** 2 - p[:, 1] ** 2
        M[:, 0, 1] = M[:, 1, 0] = p[:, 0] * p[:, 1]
        M[:, 0, 2] = M[:, 2, 0] = p[:, 0] * p[:, 2]
        M[:, 1, 2] = M[:, 2, 1] = p[:, 1] * p[:, 2]
        det = np.linalg.det(M) / (t1 * t2 * t3)
        worst_det = max(worst_det, float(np.max(np.abs(
            det - (1.0 - 2.0 * phi + psi)))))
        worst_gap = min(worst_gap, float(np.min(phi * phi - psi)))
    assert worst_det <= 1e-9
    assert worst_gap >= -1e-12

    mat = FresnelMaterial(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    for u, (ri, ro) in (((1.0, 0, 0), (np.sqrt(2.0), np.sqrt(3.0))),
                        ((0, 1.0, 0), (1.0, np.sqrt(3.0))),
                        ((0, 0, 1.0), (1.0, np.sqrt(2.0)))):
        s = sheet_radii(mat, np.array(u))
        assert abs(s.r_inner - ri) <= 1e-12
        assert abs(s.r_outer - ro) <= 1e-12

    m1 = FresnelMaterial(np.eye(3) / 0.49, np.eye(3))   # a1 = 0.49, n1 = 1/0.7
    m2 = FresnelMaterial(np.eye(3), np.eye(3))          # a2 = 1, n2 = 1
    assert single_sheet_check(m1) and single_sheet_check(m2)
    pair = MediumPair(induced_norm(m1), induced_norm(m2))
    assert abs(pair.kappa - 0.7) <= 1e-12  # n2/n1 = sqrt(a1/a2)
    _pass(7, "Fresnel algebra",
          f"1e5 samples: det identity {worst_det:.2e}, min(Phi^2-Psi) "
          f"{worst_gap:.2e}; axis radii exact to 1e-12; kappa = n2/n1")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_lipschitz_bound(desk_scale_solutions):
    for key in ("iso", "aniso"):
        pair, src, tgt, refr = desk_scale_solutions[key]
        quot = max_difference_quotient(refr, src, pairs=200_000, seed=8)
        bound = lipschitz_bound(refr, src)
        assert quot <= bound * (1.0 + 1e-6)
    _pass(8, "Lipschitz bound",
          f"sampled quotient {quot:.4f} <= bound {bound:.4f}")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_determinism_across_threads(tmp_path):
    problem = REPO / "problems" / "iso_5targets.json"
    blobs = []
    # OpenBLAS's pool is the only thread pool the program has
    for threads in ("1", "2"):
        sol = tmp_path / f"sol_{threads}.json"
        csv = tmp_path / f"rep_{threads}.csv"
        mesh = tmp_path / f"mesh_{threads}.obj"
        res = subprocess.run(
            [sys.executable, "-m", "refractor.cli", "design", str(problem),
             "-o", str(sol), "--report", str(csv), "--mesh", str(mesh)],
            capture_output=True, text=True,
            env={**src_env(), "OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        blobs.append(sol.read_bytes() + csv.read_bytes() + mesh.read_bytes())
    assert blobs[0] == blobs[1]
    _pass(9, "thread determinism",
          "design with OPENBLAS_NUM_THREADS=1 and =2 emitted "
          "byte-identical JSON/CSV/OBJ")
