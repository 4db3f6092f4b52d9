import json

import numpy as np
import pytest

from refractor.errors import NotProportional, ValidationError
from refractor.fresnel import (FresnelMaterial, induced_norm, phi_psi,
                               sheet_radii, single_sheet_check)
from refractor.norms import MediumPair, Regime, norm_eval
from refractor.problems import (dumps17, load_json_object, parse_material,
                                parse_norm, write_norm)


def ortho(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q


def random_spd(rng, lo=0.25, hi=4.0):
    q = ortho(rng)
    return q @ np.diag(rng.uniform(lo, hi, 3)) @ q.T


def det_identity_residual(mat, p):
    """Raw-determinant oracle for 1 - 2 Phi + Psi."""
    t1, t2, t3 = mat.taus
    M = np.array([
        [t1 - p[1] ** 2 - p[2] ** 2, p[0] * p[1], p[0] * p[2]],
        [p[1] * p[0], t2 - p[0] ** 2 - p[2] ** 2, p[1] * p[2]],
        [p[2] * p[0], p[2] * p[1], t3 - p[0] ** 2 - p[1] ** 2],
    ])
    phi, psi = phi_psi(mat, p)
    return abs(np.linalg.det(M) / (t1 * t2 * t3) - (1.0 - 2.0 * phi + psi))


def test_tau_reduction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        eps = random_spd(rng)
        mu = random_spd(rng)
        mat = FresnelMaterial(eps, mu)
        rebuilt = mat.O @ np.diag(mat.taus) @ mat.O.T
        assert np.allclose(rebuilt, mat.tau, atol=1e-12)
        assert np.all(mat.taus > 0)
        assert np.all(np.diff(mat.taus) >= 0)


def test_phi_psi_zero():
    mat = FresnelMaterial(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    phi, psi = phi_psi(mat, np.zeros(3))
    assert phi == 0.0 and psi == 0.0


def test_phi_psi_printed_values():
    mat = FresnelMaterial(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    phi, psi = phi_psi(mat, np.array([1.0, 0.0, 0.0]))
    assert phi == pytest.approx(5.0 / 12.0, abs=1e-15)
    assert psi == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_phi_psi_isotropic():
    eps, mu = 3.0, 2.0
    mat = FresnelMaterial.isotropic(eps, mu)
    rng = np.random.default_rng(1)
    p = rng.standard_normal((100, 3))
    phi, psi = phi_psi(mat, p)
    n2 = np.sum(p * p, axis=-1)
    assert np.allclose(phi, (mu / eps) * n2, rtol=1e-12)
    assert np.allclose(psi, phi * phi, rtol=1e-12)


def test_sheet_radii_tau123_axes():
    mat = FresnelMaterial(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    cases = {
        (1.0, 0.0, 0.0): (np.sqrt(2.0), np.sqrt(3.0)),
        (0.0, 1.0, 0.0): (1.0, np.sqrt(3.0)),
        (0.0, 0.0, 1.0): (1.0, np.sqrt(2.0)),
    }
    for u, (ri, ro) in cases.items():
        s = sheet_radii(mat, np.array(u))
        assert s.r_inner == pytest.approx(ri, abs=1e-12)
        assert s.r_outer == pytest.approx(ro, abs=1e-12)


def test_sheet_radii_isotropic_coincide():
    mat = FresnelMaterial.isotropic(4.0, 1.0)
    s = sheet_radii(mat, np.array([0.3, -0.5, 0.8]))
    assert s.r_inner == pytest.approx(s.r_outer, rel=1e-14)
    assert s.r_inner == pytest.approx(2.0, rel=1e-14)  # r^2 = eps/mu


def test_sheet_radii_root_residual():
    rng = np.random.default_rng(2)
    for _ in range(50):
        mat = FresnelMaterial(random_spd(rng), random_spd(rng))
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        s = sheet_radii(mat, u)
        pu = mat.O.T @ u
        for r in (s.r_inner, s.r_outer):
            phi, psi = phi_psi(mat, r * pu)
            assert abs(1.0 - 2.0 * phi + psi) <= 1e-9
        assert s.r_inner <= s.r_outer + 1e-15


def test_determinant_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        mat = FresnelMaterial(random_spd(rng), random_spd(rng))
        for _ in range(20):
            p = rng.standard_normal(3)
            p /= np.linalg.norm(p)
            worst = max(worst, det_identity_residual(mat, p))
    assert worst <= 1e-9


def test_phi_squared_dominates_psi():
    rng = np.random.default_rng(4)
    for _ in range(100):
        mat = FresnelMaterial(random_spd(rng), random_spd(rng))
        p = rng.standard_normal((1000, 3))
        p /= np.linalg.norm(p, axis=-1, keepdims=True)
        phi, psi = phi_psi(mat, p)
        assert np.min(phi * phi - psi) >= -1e-12 * float(np.max(1.0 + phi * phi))


def test_sheet_nesting_vs_single_sheet():
    mat2 = FresnelMaterial(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    assert not single_sheet_check(mat2)
    rng = np.random.default_rng(5)
    pg = rng.standard_normal((1000, 3))
    phi, psi = phi_psi(mat2, pg)
    assert np.min(phi * phi - psi) > 0.0  # strict off a measure-zero set
    u = rng.standard_normal((200, 3))
    gaps = []
    for ui in u:
        s = sheet_radii(mat2, ui)
        gaps.append(s.r_outer - s.r_inner)
    assert np.min(gaps) >= 0.0
    assert np.median(gaps) > 1e-3  # genuinely two sheets off the axes

    eps = random_spd(rng)
    mat1 = FresnelMaterial(eps, 3.0 * eps)
    assert single_sheet_check(mat1)
    for ui in u[:50]:
        s = sheet_radii(mat1, ui)
        # tangent roots amplify roundoff by sqrt(eps_machine)
        assert s.r_outer - s.r_inner <= 1e-6 * s.r_outer


def test_rotation_equivariance():
    rng = np.random.default_rng(6)
    eps = random_spd(rng)
    mu = random_spd(rng)
    mat = FresnelMaterial(eps, mu)
    for _ in range(10):
        Q = ortho(rng)
        mat_rot = FresnelMaterial(Q @ eps @ Q.T, Q @ mu @ Q.T)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        s = sheet_radii(mat, u)
        s_rot = sheet_radii(mat_rot, Q @ u)
        assert s_rot.r_inner == pytest.approx(s.r_inner, rel=1e-9)
        assert s_rot.r_outer == pytest.approx(s.r_outer, rel=1e-9)


def test_inner_sheet_convex_sampled():
    # midpoint test on random chords of the inner sheet
    mat = FresnelMaterial(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        u1, u2 = rng.standard_normal((2, 3))
        u1 /= np.linalg.norm(u1)
        u2 /= np.linalg.norm(u2)
        p1 = sheet_radii(mat, u1).r_inner * u1
        p2 = sheet_radii(mat, u2).r_inner * u2
        mid = 0.5 * (p1 + p2)
        nm = np.linalg.norm(mid)
        if nm < 1e-12:
            continue
        r_mid = sheet_radii(mat, mid / nm).r_inner
        assert r_mid >= nm - 1e-12


def test_induced_norm_isotropic():
    a = 0.25  # n = 1/sqrt(a) = 2
    mat = FresnelMaterial((1.0 / a) * np.eye(3), np.eye(3))
    n = induced_norm(mat)
    x = np.array([0.3, -0.4, 0.5])
    assert norm_eval(n, x) == pytest.approx(2.0 * np.linalg.norm(x), rel=1e-14)


def test_induced_norm_diag_example():
    mu = np.diag([4.0, 1.0, 1.0])
    mat = FresnelMaterial(mu, mu)  # a = 1
    n = induced_norm(mat)
    assert np.allclose(n.A, np.diag([1.0, 2.0, 2.0]), atol=1e-12)


def test_induced_dual_norm_formula():
    rng = np.random.default_rng(8)
    mu = random_spd(rng)
    a = 0.7
    mat = FresnelMaterial(mu / a, mu)
    n = induced_norm(mat)
    vals, vecs = np.linalg.eigh(mu)
    mu_half = (vecs * np.sqrt(vals)) @ vecs.T
    det_mu_half = np.sqrt(np.linalg.det(mu))
    for _ in range(20):
        p = rng.standard_normal(3)
        expect = np.linalg.norm(np.sqrt(a) * (mu_half @ p) / det_mu_half)
        assert norm_eval(n.dual(), p) == pytest.approx(expect, rel=1e-12)


def test_not_proportional():
    with pytest.raises(NotProportional):
        induced_norm(FresnelMaterial(np.diag([1.0, 2.0, 3.0]), np.eye(3)))


def test_pair_kappa_isotropic():
    m1 = FresnelMaterial(np.eye(3), np.eye(3))          # a1 = 1, n1 = 1
    m2 = FresnelMaterial(0.25 * np.eye(3), np.eye(3))   # a2 = 4, n2 = 1/2
    pair = MediumPair(induced_norm(m1), induced_norm(m2))
    assert pair.kappa == pytest.approx(0.5, abs=1e-15)
    assert pair.regime is Regime.CASE_I
    swapped = MediumPair(induced_norm(m2), induced_norm(m1))
    assert swapped.regime is Regime.CASE_II
    assert swapped.kappa == pytest.approx(2.0, abs=1e-15)


def test_pair_kappa_product_formula():
    rng = np.random.default_rng(9)
    mu1, mu2 = random_spd(rng), random_spd(rng)
    a1, a2 = 0.8, 1.7
    m1 = FresnelMaterial(mu1 / a1, mu1)
    m2 = FresnelMaterial(mu2 / a2, mu2)
    n1, n2 = induced_norm(m1), induced_norm(m2)
    # A2 A1^{-1} = sqrt(a1/a2) det(mu2^{1/2})/det(mu1^{1/2}) mu2^{-1/2} mu1^{1/2}
    def half(M, e):
        vals, vecs = np.linalg.eigh(M)
        return (vecs * vals ** e) @ vecs.T
    prod = np.sqrt(a1 / a2) * (np.sqrt(np.linalg.det(mu2) / np.linalg.det(mu1))
                               ) * half(mu2, -0.5) @ half(mu1, 0.5)
    assert np.allclose(n2.A @ np.linalg.inv(n1.A), prod, atol=1e-10)


def test_spd_validation():
    with pytest.raises(ValidationError):
        FresnelMaterial(np.diag([1.0, -1.0, 1.0]), np.eye(3))
    with pytest.raises(ValidationError):
        FresnelMaterial(np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]),
                        np.eye(3))


def test_json_round_trip(tmp_path):
    # a material written by problems' dumps17 reads back through
    # parse_material, and its induced norm through write_norm / parse_norm
    mat = FresnelMaterial(np.diag([1.0, 2.0, 3.0]), 2.0 * np.eye(3))
    text = dumps17({"eps": mat.eps, "mu": mat.mu_perm})
    back = parse_material(json.loads(text), "material")
    assert np.allclose(back.taus, mat.taus, rtol=1e-15)
    norm = induced_norm(FresnelMaterial(mat.eps, 2.0 * mat.eps))
    path = tmp_path / "norm.json"
    write_norm(path, norm)
    assert repr(parse_norm(load_json_object(path), "norm")) == repr(norm)
