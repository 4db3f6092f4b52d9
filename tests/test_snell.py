import numpy as np
import pytest

from conftest import random_ellipsoidal_pair
from refractor.errors import ConstraintViolation, NoRefraction
from refractor.norms import MediumPair, Norm, norm_eval, norm_gradient
from refractor.snell import check_constraint, fermat_path, refract


def scalar_snell_direction(n1, n2, x_hat, nu):
    """Classical-law oracle: rotate x_hat so sin(theta2) = (n1/n2) sin(theta1)."""
    cos1 = float(x_hat @ nu)
    t = x_hat - cos1 * nu
    st = np.linalg.norm(t)
    sin2 = (n1 / n2) * st
    if sin2 > 1.0:
        return None
    cos2 = np.sqrt(1.0 - sin2 * sin2)
    t_hat = t / st if st > 0 else t
    return sin2 * t_hat + cos2 * nu


def test_normal_incidence():
    pair = MediumPair.isotropic(1.5, 1.0)
    ev = refract(pair, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(ev.m, [0.0, 0.0, 1.0], atol=1e-14)
    assert ev.lam == pytest.approx(-0.5, abs=1e-14)


def test_forty_five_degrees_vs_scalar_law():
    pair = MediumPair.isotropic(1.0, 1.5)
    s = np.sin(np.pi / 4)
    ev = refract(pair, np.array([s, 0.0, s]), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(ev.m_unit(), [0.47140, 0.0, 0.88192], atol=1e-4)


def test_event_invariants_anisotropic():
    pair = MediumPair(Norm.ellipsoidal(np.eye(3)),
                      Norm.ellipsoidal(np.diag([0.5, 0.5, 0.4])))
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(400):
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        x = rng.standard_normal(3)
        if x @ nu < 0:
            x = -x
        x /= norm_eval(pair.n1, x)
        try:
            ev = refract(pair, x, nu)
        except NoRefraction:  # steep Case I incidence totally reflects
            continue
        hits += 1
        assert norm_eval(pair.n1, ev.x) == pytest.approx(1.0, abs=1e-10)
        assert norm_eval(pair.n2, ev.m) == pytest.approx(1.0, abs=1e-10)
        d = norm_gradient(pair.n2, ev.m) - norm_gradient(pair.n1, ev.x)
        rejection = d - (d @ ev.nu) * ev.nu
        assert np.linalg.norm(rejection) <= 1e-9
        assert ev.x @ ev.nu >= -1e-12
        assert ev.m @ ev.nu >= -1e-12
        assert check_constraint(pair, ev.x, ev.m)
    assert hits >= 40


def quadratic_roots(pair, p1, nu):
    """Discriminant and roots of |A2^{-T}(p1 + lam nu)|^2 = 1, the closed
    form of N2*(p1 + lam nu) = 1 for an ellipsoidal N2."""
    B = np.linalg.inv(pair.n2.A).T
    u, v = B @ p1, B @ nu
    a, b, c = v @ v, 2.0 * (u @ v), u @ u - 1.0
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(max(disc, 0.0))
    return disc, ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a))


def test_unique_admissible_root():
    # the quadratic as an oracle: refract returns its larger root, the
    # rejected root always lands on the wrong side (m.nu < 0), and there is
    # no refraction exactly when the discriminant is negative
    rng = np.random.default_rng(1)
    counts = {"refracted": 0, "none": 0}
    for dim in (2, 3):
        for scales in ((1.6, 0.9), (0.9, 1.6)):  # Case I, Case II
            pair = random_ellipsoidal_pair(rng, dim, *scales)
            for _ in range(100):
                nu = rng.standard_normal(dim)
                nu /= np.linalg.norm(nu)
                x = rng.standard_normal(dim)
                if x @ nu < 0:
                    x = -x
                x /= norm_eval(pair.n1, x)
                p1 = norm_gradient(pair.n1, x)
                disc, lams = quadratic_roots(pair, p1, nu)
                if abs(disc) < 1e-9:
                    continue
                if disc < 0.0:
                    with pytest.raises(NoRefraction):
                        refract(pair, x, nu)
                    counts["none"] += 1
                    continue
                lo, hi = (float(norm_gradient(pair.n2.dual(), p1 + lam * nu) @ nu)
                          for lam in lams)
                assert lo < 0.0 < hi
                assert refract(pair, x, nu).lam == pytest.approx(lams[1], rel=1e-12)
                counts["refracted"] += 1
    assert min(counts.values()) >= 40


# the critical angle of iso(1.5) -> iso(1.0), exactly and within 1e-16, 1e-12
CRITICAL_ANGLES = np.arcsin(2.0 / 3.0) + np.array([0.0, -1e-16, 1e-16,
                                                   -1e-12, 1e-12])


def test_total_reflection_raises():
    pair = MediumPair.isotropic(1.5, 1.0)  # critical angle asin(2/3)
    nu = np.array([0.0, 0.0, 1.0])
    theta = np.arcsin(2.0 / 3.0) + 0.05
    x = np.array([np.sin(theta), 0.0, np.cos(theta)])
    with pytest.raises(NoRefraction):
        refract(pair, x, nu)
    # at tangency Newton ends on either side of the double root, never at
    # the step cap (NonConvergence)
    for theta in CRITICAL_ANGLES:
        x = np.array([np.sin(theta), 0.0, np.cos(theta)])
        try:
            ev = refract(pair, x, nu)
        except NoRefraction:
            continue
        assert ev.m @ nu >= 0.0


def test_wrong_side_raises():
    pair = MediumPair.isotropic(1.5, 1.0)
    with pytest.raises(ConstraintViolation):
        refract(pair, np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0]))


def test_grazing_incidence_allowed():
    pair = MediumPair.isotropic(1.0, 1.5)
    ev = refract(pair, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    # grazing input refracts at the critical exit angle: x.m = n1/n2
    assert ev.x @ ev.m_unit() == pytest.approx(1.0 / 1.5, abs=1e-9)


def test_isotropic_reduction_dense_angles():
    for n1, n2 in ((1.5, 1.0), (1.0, 1.5)):
        pair = MediumPair.isotropic(n1, n2)
        nu = np.array([0.0, 0.0, 1.0])
        for theta in np.linspace(0.0, np.arcsin(min(1.0, n2 / n1)) - 1e-6, 200):
            x_hat = np.array([np.sin(theta), 0.0, np.cos(theta)])
            oracle = scalar_snell_direction(n1, n2, x_hat, nu)
            ev = refract(pair, x_hat / n1, nu)
            assert np.linalg.norm(ev.m_unit() - oracle) <= 1e-9
    # at tangency m.nu carries the square root of rounding: a returned ray
    # is grazing to 1e-7, and rounding may decide for NoRefraction instead
    pair = MediumPair.isotropic(1.5, 1.0)
    for theta in CRITICAL_ANGLES:
        x_hat = np.array([np.sin(theta), 0.0, np.cos(theta)])
        oracle = scalar_snell_direction(1.5, 1.0, x_hat, nu)
        try:
            ev = refract(pair, x_hat / 1.5, nu)
        except NoRefraction:
            continue
        assert ev.m @ nu >= 0.0
        assert np.linalg.norm(ev.m_unit() - oracle) <= 1e-7


def test_lq_refraction_invariants():
    pair = MediumPair(Norm.lq(4.0, dim=3), Norm.ellipsoidal(0.55 * np.eye(3)))
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(60):
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        x = rng.standard_normal(3)
        if x @ nu < 0:
            x = -x
        x /= norm_eval(pair.n1, x)
        try:
            ev = refract(pair, x, nu)
        except NoRefraction:
            continue
        hits += 1
        d = norm_gradient(pair.n2, ev.m) - norm_gradient(pair.n1, ev.x)
        assert np.linalg.norm(d - (d @ nu) * nu) <= 1e-9
        assert ev.m @ nu >= -1e-12
    assert hits >= 5


def test_lq_target_refraction():
    # an lq N2 takes the same Newton root finder as an ellipsoidal one
    pair = MediumPair(Norm.ellipsoidal(1.8 * np.eye(3)), Norm.lq(4.0, dim=3))
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(60):
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        x = rng.standard_normal(3)
        if x @ nu < 0:
            x = -x
        x /= norm_eval(pair.n1, x)
        try:
            ev = refract(pair, x, nu)
        except NoRefraction:
            continue
        hits += 1
        assert norm_eval(pair.n2, ev.m) == pytest.approx(1.0, abs=1e-9)
        d = norm_gradient(pair.n2, ev.m) - norm_gradient(pair.n1, ev.x)
        assert np.linalg.norm(d - (d @ nu) * nu) <= 1e-8
    assert hits >= 5


def test_lq_target_near_axis_precision():
    # p2* of an lq(3) N2 is only Holder-1/2 on its axes, so m there carries
    # the square root of lambda's error: lambda must be exact to rounding
    pair = MediumPair(Norm.isotropic(0.5), Norm.lq(3.0, dim=3))  # Case II
    rng = np.random.default_rng(6)
    e3 = np.array([0.0, 0.0, 1.0])
    for _ in range(400):
        m = e3 + 1e-3 * rng.uniform(-1.0, 1.0, 3)
        m /= norm_eval(pair.n2, m)
        x = e3 + 0.2 * rng.standard_normal(3)
        x /= norm_eval(pair.n1, x)
        nu = norm_gradient(pair.n2, m) - norm_gradient(pair.n1, x)
        ev = refract(pair, x, nu / np.linalg.norm(nu))
        assert np.linalg.norm(ev.m - m) <= 1e-8


# --------------------------------------------------------------- fermat path

def test_fermat_equal_media_straight_line():
    # equal media have no regime; fermat_path takes the two norms
    n = Norm.isotropic(1.2)
    X = np.array([-0.4, 0.2, -1.0])
    Y = np.array([0.7, -0.1, 1.5])
    nu = np.array([0.0, 0.0, 1.0])
    P = fermat_path(n, n, X, Y, (np.zeros(3), nu))
    s = -X[2] / (Y[2] - X[2])
    assert np.allclose(P, X + s * (Y - X), atol=1e-9)


def test_fermat_axis_symmetry():
    pair = MediumPair(Norm.ellipsoidal(np.diag([1.4, 1.4, 1.9])),
                      Norm.ellipsoidal(np.diag([0.8, 0.8, 1.1])))
    P = fermat_path(pair.n1, pair.n2, np.array([0.0, 0.0, -1.0]),
                    np.array([0.0, 0.0, 1.0]),
                    (np.zeros(3), np.array([0.0, 0.0, 1.0])))
    assert np.allclose(P, np.zeros(3), atol=1e-9)


def test_fermat_matches_refract():
    rng = np.random.default_rng(4)
    count = 0
    while count < 50:
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
        assert np.linalg.norm(ev.m - m_leg) <= 1e-7
        count += 1


def test_fermat_minimum_is_global():
    # sampled plane points never beat the Newton minimizer
    rng = np.random.default_rng(5)
    pair = random_ellipsoidal_pair(rng)
    nu = np.array([0.0, 0.0, 1.0])
    X = np.array([0.3, -0.2, -1.0])
    Y = np.array([-0.5, 0.4, 0.8])
    P = fermat_path(pair.n1, pair.n2, X, Y, (np.zeros(3), nu))
    F0 = norm_eval(pair.n1, P - X) + norm_eval(pair.n2, Y - P)
    for _ in range(500):
        Q = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
        FQ = norm_eval(pair.n1, Q - X) + norm_eval(pair.n2, Y - Q)
        assert FQ >= F0 - 1e-12


def test_constraint_isotropic_threshold():
    pair = MediumPair.isotropic(1.5, 1.0)
    z = np.array([0.0, 0.0, 1.0])
    for c, expect in ((2.0 / 3.0 + 1e-9, True), (2.0 / 3.0 - 1e-6, False)):
        m_hat = np.array([np.sqrt(1 - c * c), 0.0, c])
        assert check_constraint(pair, z / 1.5, m_hat) is expect
