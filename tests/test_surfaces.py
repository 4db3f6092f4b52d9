import numpy as np
import pytest

from refractor.errors import OutOfDomain, ValidationError
from refractor.geometry import cap_triangulation, fibonacci_cap
from refractor.norms import MediumPair, Norm, Regime, norm_eval, norm_gradient
from refractor.snell import refract
from refractor.surfaces import (UniformSurface, radius_bounds, support_test,
                                surface_normal, surface_radius,
                                surface_to_obj)

Z = np.array([0.0, 0.0, 1.0])


def domain_nodes(pair, m, count=500, angle=0.35, seed=0):
    """Cap nodes on Sigma1 filtered to the surface's admissible domain."""
    dirs = fibonacci_cap(Z, angle, count)
    nodes = dirs / norm_eval(pair.n1, dirs)[:, None]
    p2m = norm_gradient(pair.n2, m)
    if pair.regime.value == "CaseI":
        keep = norm_gradient(pair.n1, nodes) @ m >= 1.0 + 1e-9
    else:
        keep = nodes @ p2m > 1.0 + 1e-9
    return nodes[keep]


def fit_quadric(points):
    """Least-squares general quadric through the points: returns (residual,
    eigenvalues of the quadratic-form part)."""
    x, y, z = points.T
    cols = np.stack([x * x, y * y, z * z, x * y, x * z, y * z, x, y, z,
                     np.ones_like(x)], axis=1)
    _, svals, vt = np.linalg.svd(cols, full_matrices=False)
    coef = vt[-1]
    resid = svals[-1] / np.linalg.norm(points)
    Q = np.array([[coef[0], coef[3] / 2, coef[4] / 2],
                  [coef[3] / 2, coef[1], coef[5] / 2],
                  [coef[4] / 2, coef[5] / 2, coef[2]]])
    return resid, np.linalg.eigvalsh(Q)


def test_radius_denominator_one():
    pair = MediumPair.isotropic(1.5, 1.0)
    m = Z / 1.0
    s = UniformSurface(pair, m, b=0.7)
    # x orthogonal to p2(m) has denominator exactly 1 (outside the Case I
    # domain, so check the raw formula)
    x = np.array([1.0, 0.0, 0.0]) / 1.5
    assert x @ s.p2m == pytest.approx(0.0, abs=1e-15)
    assert s.b / (1.0 - x @ s.p2m) == pytest.approx(0.7)


def test_radius_bounds_case1():
    pair = MediumPair.isotropic(1.5, 1.0)
    s = UniformSurface(pair, Z, b=1.3)
    nodes = domain_nodes(pair, s.m)
    rho = surface_radius(s, nodes)
    lo, hi = radius_bounds(s)
    assert np.all(rho >= lo - 1e-12)
    assert np.all(rho <= hi + 1e-12)


def test_case1_isotropic_surface_is_ellipsoid():
    pair = MediumPair.isotropic(1.5, 1.0)
    s = UniformSurface(pair, Z, b=1.0)
    nodes = domain_nodes(pair, s.m, count=200, angle=0.6)
    pts = surface_radius(s, nodes)[:, None] * nodes
    resid, eig = fit_quadric(pts)
    assert resid <= 1e-9
    assert np.all(eig > 0) or np.all(eig < 0)  # definite: an ellipsoid


def test_case2_isotropic_surface_is_hyperboloid():
    pair = MediumPair.isotropic(1.0, 1.5)
    s = UniformSurface(pair, Z / 1.5, b=1.0)
    nodes = domain_nodes(pair, s.m, count=200, angle=0.5)
    pts = surface_radius(s, nodes)[:, None] * nodes
    resid, eig = fit_quadric(pts)
    assert resid <= 1e-9
    assert np.any(eig > 0) and np.any(eig < 0)  # mixed signature


def test_radius_out_of_domain():
    pair = MediumPair.isotropic(1.5, 1.0)
    s = UniformSurface(pair, Z, b=1.0)
    x = np.array([1.0, 0.0, 0.0]) / 1.5  # orthogonal to m
    with pytest.raises(OutOfDomain):
        surface_radius(s, x)
    pair2 = MediumPair.isotropic(1.0, 1.5)
    s2 = UniformSurface(pair2, Z / 1.5, b=1.0)
    with pytest.raises(OutOfDomain):
        surface_radius(s2, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("pair", [MediumPair.isotropic(1.5, 1.0),
                                  MediumPair.isotropic(1.0, 1.5)],
                         ids=["case1", "case2"])
def test_zero_direction_rejected(pair):
    # a zero m is malformed input, not a point outside the domain
    with pytest.raises(ValidationError, match="direction must be nonzero"):
        UniformSurface(pair, np.zeros(3), b=1.0)


def test_normal_collinear_at_normal_incidence():
    pair = MediumPair.isotropic(1.5, 1.0)
    s = UniformSurface(pair, Z, b=1.0)
    raw, unit = surface_normal(s, Z / 1.5)
    assert np.allclose(unit, Z, atol=1e-12)


def test_normal_round_trip_through_refract():
    rng = np.random.default_rng(0)
    for pair in (MediumPair.isotropic(1.5, 1.0),
                 MediumPair.isotropic(1.0, 1.5)):
        mdir = np.array([0.12, -0.08, 1.0])
        m = mdir / norm_eval(pair.n2, mdir)
        s = UniformSurface(pair, m, b=1.0)
        nodes = domain_nodes(pair, s.m, count=150, angle=0.3,
                             seed=int(rng.integers(1000)))
        raw, unit = surface_normal(s, nodes)
        for x, nu in zip(nodes, unit):
            ev = refract(pair, x, nu)
            assert np.linalg.norm(ev.m - s.m) <= 1e-9


A1 = np.array([[1.7, 0.1, 0.0], [0.05, 1.55, 0.1], [0.0, 0.1, 1.6]])
A2 = np.array([[1.0, 0.0, 0.05], [0.0, 0.95, 0.0], [0.1, 0.0, 1.05]])
NORMAL_PAIRS = {
    "case1-isotropic": lambda: MediumPair.isotropic(1.5, 1.0),
    "case2-isotropic": lambda: MediumPair.isotropic(1.0, 1.5),
    "case1-ellipsoidal": lambda: MediumPair(Norm.ellipsoidal(A1),
                                            Norm.ellipsoidal(A2)),
    "case2-ellipsoidal": lambda: MediumPair(Norm.ellipsoidal(A2),
                                            Norm.ellipsoidal(A1)),
    "case1-lq": lambda: MediumPair(Norm.lq(3.0), Norm.isotropic(0.5)),
    "case2-lq": lambda: MediumPair(Norm.isotropic(0.5), Norm.lq(3.0)),
}


@pytest.mark.parametrize("make", NORMAL_PAIRS.values(),
                         ids=NORMAL_PAIRS.keys())
def test_normal_dot_identities(make):
    # on Sigma1 x Sigma2 the Snell normal nu = sign (p1(x) - p2(m)) has
    # nu.x = denominators and nu.m = margins (Euler's identity); the first
    # is at least 1 - kappa in Case I, the second 1 - 1/kappa in Case II
    pair = make()
    s = UniformSurface(pair, np.array([0.05, -0.03, 1.0]), b=1.0)
    nodes = domain_nodes(pair, s.m)
    assert len(nodes) >= 100
    raw, _ = surface_normal(s, nodes)
    x_dot_nu, m_dot_nu = np.sum(nodes * raw, axis=-1), raw @ s.m
    assert np.max(np.abs(x_dot_nu - pair.denominators(nodes, s.m))) <= 1e-12
    assert np.max(np.abs(m_dot_nu - pair.margins(nodes, s.m))) <= 1e-12
    # a (J, N) table is column-major, as the solve's fill reads it
    table = pair.denominators(nodes, np.array([s.m, -s.m]))
    assert table.flags["F_CONTIGUOUS"] and table.shape == (len(nodes), 2)
    assert np.array_equal(table[:, 0], pair.denominators(nodes, s.m))
    if pair.regime is Regime.CASE_I:
        assert np.min(x_dot_nu) >= 1.0 - pair.kappa - 1e-12
    else:
        assert np.min(m_dot_nu) >= 1.0 - 1.0 / pair.kappa - 1e-12


def test_support_self():
    pair = MediumPair.isotropic(1.5, 1.0)
    s = UniformSurface(pair, Z, b=1.0)
    nodes = domain_nodes(pair, s.m)
    rho = surface_radius(s, nodes)
    for i0 in (0, len(nodes) // 2, len(nodes) - 1):
        assert support_test(s, nodes, rho, i0)


def test_support_min_of_two():
    pair = MediumPair.isotropic(1.5, 1.0)
    m2dir = np.array([0.1, 0.0, 1.0])
    s1 = UniformSurface(pair, Z, b=1.0)
    s2 = UniformSurface(pair, m2dir / norm_eval(pair.n2, m2dir), b=1.02)
    nodes = domain_nodes(pair, s1.m)
    h1 = surface_radius(s1, nodes)
    h2 = surface_radius(s2, nodes)
    rho = np.minimum(h1, h2)
    for i0 in range(0, len(nodes), 37):
        winner = s1 if h1[i0] <= h2[i0] else s2
        loser = s2 if h1[i0] <= h2[i0] else s1
        assert support_test(winner, nodes, rho, i0)
        if abs(h1[i0] - h2[i0]) > 1e-6:
            assert not support_test(loser, nodes, rho, i0)


def test_support_perturbation_breaks():
    pair = MediumPair.isotropic(1.5, 1.0)
    s = UniformSurface(pair, Z, b=1.0)
    nodes = domain_nodes(pair, s.m)
    rho = surface_radius(s, nodes)
    rho2 = rho.copy()
    rho2[5] += 1e-3
    assert not support_test(s, nodes, rho2, 5)


def test_dilation_in_b():
    pair = MediumPair.isotropic(1.5, 1.0)
    nodes = domain_nodes(pair, Z)
    s1 = UniformSurface(pair, Z, b=1.0)
    s3 = UniformSurface(pair, Z, b=3.0)
    assert np.allclose(3.0 * surface_radius(s1, nodes),
                       surface_radius(s3, nodes), rtol=1e-15)
    r1, u1 = surface_normal(s1, nodes)
    r3, u3 = surface_normal(s3, nodes)
    assert np.array_equal(u1, u3)


def test_obj_export(tmp_path):
    pair = MediumPair.isotropic(1.5, 1.0)
    s = UniformSurface(pair, Z, b=1.0)
    dirs = fibonacci_cap(Z, 0.25, 120)
    nodes = dirs / norm_eval(pair.n1, dirs)[:, None]
    tris = cap_triangulation(0.25, 120, 3)
    path = tmp_path / "patch.obj"
    surface_to_obj(s, nodes, tris, path)
    text = path.read_text().splitlines()
    assert text[0] == "o surface"
    assert sum(1 for l in text if l.startswith("v ")) == 120
    assert sum(1 for l in text if l.startswith("f ")) == len(tris)
    # deterministic bytes
    path2 = tmp_path / "patch2.obj"
    surface_to_obj(s, nodes, tris, path2)
    assert path.read_bytes() == path2.read_bytes()
