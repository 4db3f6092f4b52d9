import numpy as np
import pytest

from refractor.errors import RegimeViolation, ValidationError, ZeroVector
from refractor.geometry import fibonacci_sphere
from refractor.norms import (MediumPair, Norm, Regime, _ratio_extrema,
                             contrast_kappa, norm_eval, norm_gradient)
from refractor.problems import load_json_object, parse_norm, write_norm


def test_eval_scaled_identity():
    n = Norm.ellipsoidal(2.0 * np.eye(3))
    assert norm_eval(n, [1.0, 0.0, 0.0]) == pytest.approx(2.0)


def test_eval_diagonal():
    n = Norm.ellipsoidal(np.diag([1.0, 2.0]))
    assert norm_eval(n, [3.0, 4.0]) == pytest.approx(np.sqrt(73.0))


def test_eval_lq():
    n = Norm.lq(4.0, dim=2)
    assert norm_eval(n, [1.0, 1.0]) == pytest.approx(2.0 ** 0.25)


def test_gradient_isotropic_formula():
    # p(x) = n * x/|x| for an isotropic medium
    n = Norm.ellipsoidal(1.5 * np.eye(3))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(3)
        expect = 1.5 * x / np.linalg.norm(x)
        assert np.allclose(norm_gradient(n, x), expect, atol=1e-12)


def test_gradient_axis_point():
    n = Norm.ellipsoidal(np.diag([1.0, 2.0]))
    assert np.allclose(norm_gradient(n, [1.0, 0.0]), [1.0, 0.0], atol=1e-14)


def test_gradient_lq_finite_differences():
    n = Norm.lq(4.0, dim=2)
    x = np.array([1.0, 1.0])
    h = 1e-5
    fd = np.empty(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd[i] = (norm_eval(n, x + e) - norm_eval(n, x - e)) / (2 * h)
    assert np.allclose(norm_gradient(n, x), fd, atol=1e-7)


def test_gradient_zero_vector_raises():
    n = Norm.ellipsoidal(np.eye(3))
    with pytest.raises(ZeroVector):
        norm_gradient(n, np.zeros(3))


def test_dual_eval_diagonal():
    n = Norm.ellipsoidal(np.diag([1.0, 2.0]))
    assert norm_eval(n.dual(), [0.0, 1.0]) == pytest.approx(0.5)


def test_dual_eval_isotropic():
    n = Norm.ellipsoidal(1.5 * np.eye(3))
    y = np.array([0.3, -0.4, 1.1])
    assert norm_eval(n.dual(), y) == pytest.approx(np.linalg.norm(y) / 1.5)


def test_dual_eval_sampling_oracle():
    # N*(y) = sup_{N(x)=1} |x.y|, brute-forced over dense sphere samples
    rng = np.random.default_rng(1)
    A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    n = Norm.ellipsoidal(A)
    x = rng.standard_normal((100_000, 3))
    x /= norm_eval(n, x)[:, None]
    for _ in range(5):
        y = rng.standard_normal(3)
        brute = np.max(np.abs(x @ y))
        assert norm_eval(n.dual(), y) == pytest.approx(brute, rel=1e-3)
        assert norm_eval(n.dual(), y) >= brute - 1e-12


def test_dual_gradient_round_trip_ellipsoidal():
    rng = np.random.default_rng(2)
    A = np.eye(3) + 0.25 * rng.standard_normal((3, 3))
    n = Norm.ellipsoidal(A)
    x = rng.standard_normal((100, 3))
    x /= norm_eval(n, x)[:, None]
    back = norm_gradient(n.dual(), norm_gradient(n, x))
    assert np.max(np.linalg.norm(back - x, axis=-1)) <= 1e-10


def test_dual_gradient_finite_differences():
    rng = np.random.default_rng(3)
    A = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    n = Norm.ellipsoidal(A)
    y = rng.standard_normal(3)
    h = 1e-6
    fd = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd[i] = (norm_eval(n.dual(), y + e) - norm_eval(n.dual(), y - e)) / (2 * h)
    assert np.allclose(norm_gradient(n.dual(), y), fd, atol=1e-8)


def test_dual_gradient_isotropic_scale():
    n = Norm.ellipsoidal(2.0 * np.eye(3))
    y = np.array([0.0, 0.0, 3.0])
    # p*(y) = y / (n^2 |y|) * n = unit vector / n at dual-sphere points
    assert np.allclose(norm_gradient(n.dual(), y), [0.0, 0.0, 0.5], atol=1e-14)


def test_lq_round_trip():
    n = Norm.lq(4.0, dim=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 3))
    x /= norm_eval(n, x)[:, None]
    back = norm_gradient(n.dual(), norm_gradient(n, x))
    assert np.max(np.linalg.norm(back - x, axis=-1)) <= 1e-10


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("make", [
    lambda rng: Norm.ellipsoidal(np.eye(3) + 0.3 * rng.standard_normal((3, 3))),
    lambda rng: Norm.lq(1.0 + rng.uniform(0.5, 3.0), dim=3),
])
def test_homogeneity_euler_degree_zero(make):
    rng = np.random.default_rng(5)
    n = make(rng)
    x = rng.standard_normal((1000, 3))
    lam = rng.uniform(0.1, 10.0, size=(1000, 1))
    # absolute homogeneity
    assert np.max(np.abs(norm_eval(n, lam * x) - lam[:, 0] * norm_eval(n, x))) <= 1e-10
    assert np.max(np.abs(norm_eval(n, -x) - norm_eval(n, x))) <= 1e-10
    # Euler identity x.p(x) = N(x)
    p = norm_gradient(n, x)
    assert np.max(np.abs(np.sum(x * p, axis=-1) - norm_eval(n, x))) <= 1e-10
    # gradient is homogeneous of degree zero
    assert np.max(np.abs(norm_gradient(n, lam * x) - p)) <= 1e-10


def test_bidual_is_norm():
    rng = np.random.default_rng(6)
    A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    n = Norm.ellipsoidal(A)
    bidual = n.dual().dual()
    x = rng.standard_normal((500, 3))
    assert np.max(np.abs(norm_eval(bidual, x) - norm_eval(n, x))) <= 1e-10
    nq = Norm.lq(3.0, dim=3)
    assert np.max(np.abs(norm_eval(nq.dual().dual(), x) - norm_eval(nq, x))) <= 1e-10


def test_supporting_plane_inequality():
    # for x on Sigma and nu* = p(x0): x.nu* <= 1 with equality only at x0
    rng = np.random.default_rng(7)
    A = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    n = Norm.ellipsoidal(A)
    x = rng.standard_normal((2000, 3))
    x /= norm_eval(n, x)[:, None]
    x0 = x[0]
    nu_star = norm_gradient(n, x0)
    vals = x @ nu_star
    assert np.max(vals) <= 1.0 + 1e-12
    away = np.linalg.norm(x - x0, axis=-1) > 1e-6
    assert np.max(vals[away]) < 1.0


def test_kappa_isotropic():
    k, regime = contrast_kappa(Norm.isotropic(1.5), Norm.isotropic(1.0))
    assert k == pytest.approx(1.0 / 1.5, abs=1e-14)
    assert regime is Regime.CASE_I
    # tiny and huge indices are valid media: only the ratio matters
    for n1, n2, regime in ((1e-5, 0.5e-5, Regime.CASE_I),
                           (1e5, 2e5, Regime.CASE_II)):
        pair = MediumPair.isotropic(n1, n2)
        assert pair.kappa == pytest.approx(n2 / n1, rel=1e-14)
        assert pair.regime is regime


def test_kappa_diagonal():
    k, regime = contrast_kappa(Norm.ellipsoidal(np.eye(3)),
                               Norm.ellipsoidal(np.diag([0.5, 1 / 3, 0.25])))
    assert k == pytest.approx(0.5, abs=1e-15)
    assert regime is Regime.CASE_I


def assert_search_finds_svd(n1, n2):
    # the lattice-plus-ascent search that non-ellipsoidal pairs use
    s = np.linalg.svd(n2.A @ np.linalg.inv(n1.A), compute_uv=False)
    (sup, _), (inf, _) = _ratio_extrema(n1, n2)
    assert sup == pytest.approx(s[0], rel=1e-12, abs=0)
    assert inf == pytest.approx(s[-1], rel=1e-12, abs=0)


def test_kappa_sampling_never_exceeds_svd():
    rng = np.random.default_rng(8)
    for dim in [3] * 3 + [2, 3] * 4:
        A1 = np.eye(dim) * 1.5 + 0.2 * rng.standard_normal((dim, dim))
        A2 = np.eye(dim) * 0.8 + 0.1 * rng.standard_normal((dim, dim))
        n1, n2 = Norm.ellipsoidal(A1), Norm.ellipsoidal(A2)
        assert_search_finds_svd(n1, n2)
        try:
            k, regime = contrast_kappa(n1, n2)
        except RegimeViolation:
            continue
        x = rng.standard_normal((1_000_000, dim))
        x /= norm_eval(n1, x)[:, None]
        sampled = norm_eval(n2, x)
        if regime is Regime.CASE_I:
            assert np.max(sampled) <= k + 1e-9
        else:
            assert np.min(sampled) >= k - 1e-9
    # strongly anisotropic pairs, on which plain steepest ascent stalls, and
    # an isotropic pair, whose constant ratio makes every gradient vanish
    for dim in (2, 3):
        assert_search_finds_svd(Norm.isotropic(1.5, dim),
                                Norm.isotropic(1.0, dim))
    for dim in (2, 3) * 10:
        assert_search_finds_svd(*(Norm.ellipsoidal(
            np.eye(dim) + 0.4 * rng.standard_normal((dim, dim)))
            for _ in range(2)))


def test_kappa_scaling_monotone():
    rng = np.random.default_rng(9)
    A1 = np.eye(3) * 1.5 + 0.1 * rng.standard_normal((3, 3))
    A2 = np.eye(3) * 0.8 + 0.1 * rng.standard_normal((3, 3))
    k, _ = contrast_kappa(Norm.ellipsoidal(A1), Norm.ellipsoidal(A2))
    c = 0.5
    k2, _ = contrast_kappa(Norm.ellipsoidal(A1), Norm.ellipsoidal(c * A2))
    assert k2 == pytest.approx(c * k, rel=1e-14)


def test_kappa_lq_matches_sampling():
    n1 = Norm.lq(4.0, dim=3)
    n2 = Norm.ellipsoidal(0.55 * np.eye(3))
    k, regime = contrast_kappa(n1, n2)
    assert regime is Regime.CASE_I
    rng = np.random.default_rng(10)
    x = rng.standard_normal((500_000, 3))
    x /= norm_eval(n1, x)[:, None]
    sampled = float(np.max(norm_eval(n2, x)))
    assert k >= sampled - 1e-9
    assert k == pytest.approx(sampled, rel=1e-4)
    # lq -> iso, iso -> lq, lq -> lq and ellipsoidal <-> lq: the search is
    # never less extreme than a dense lattice of 400k directions
    t = np.pi * (np.arange(400_000) + 0.5) / 400_000
    dense = {2: np.stack([np.cos(t), np.sin(t)], axis=-1),
             3: fibonacci_sphere(400_000)}
    for dim in (2, 3):
        lq3, iso = Norm.lq(3.0, dim), Norm.isotropic(0.5, dim)
        ell = Norm.ellipsoidal(np.eye(dim)
                               + 0.3 * rng.standard_normal((dim, dim)))
        for n1, n2 in [(lq3, iso), (iso, lq3), (Norm.lq(1.5, dim), lq3),
                       (Norm.lq(6.0, dim), Norm.lq(1.2, dim)),
                       (ell, Norm.lq(1.7, dim)), (Norm.lq(2.5, dim), ell)]:
            ratio = norm_eval(n2, dense[dim]) / norm_eval(n1, dense[dim])
            (sup, _), (inf, _) = _ratio_extrema(n1, n2)
            assert sup >= np.max(ratio) - 1e-12
            assert inf <= np.min(ratio) + 1e-12


def test_regime_violation():
    with pytest.raises(RegimeViolation):
        contrast_kappa(Norm.ellipsoidal(np.eye(3)),
                       Norm.ellipsoidal(np.diag([0.5, 1.0, 2.0])))


@pytest.mark.parametrize("dim", [2, 3])
def test_touching_pair_has_no_regime(dim):
    # N2/N1 = |x|_4 / |x|_1.5 <= 1 with equality on the axes: not Case I
    with pytest.raises(RegimeViolation, match="neither Case I nor Case II"):
        MediumPair(Norm.lq(1.5, dim), Norm.lq(4.0, dim))


def test_medium_pair_case2():
    pair = MediumPair.isotropic(1.0, 1.5)
    assert pair.regime is Regime.CASE_II
    assert pair.kappa == pytest.approx(1.5, abs=1e-14)


def test_json_round_trip(tmp_path):
    # the norm file problems writes is the norm object problems reads
    path = tmp_path / "norm.json"
    for n in (Norm.ellipsoidal(np.diag([1.0, 2.0, 0.5])), Norm.lq(4.0, dim=3)):
        write_norm(path, n)
        back = parse_norm(load_json_object(path), "norm")
        assert repr(back) == repr(n)
        x = np.array([0.2, -1.3, 0.7])
        assert norm_eval(back, x) == pytest.approx(norm_eval(n, x), abs=1e-15)


def test_construction_validation():
    # invertibility is scale-free: a condition number above 1e12 is refused
    # whatever det A is, and a non-finite A is named as such
    for A, message in ((np.zeros((3, 3)), "invertible"),
                       (np.diag([1e-7, 1.0, 1e7]), "invertible"),
                       (np.diag([np.nan, 1.0, 1.0]), "A must be finite"),
                       (np.diag([1.0, np.inf]), "A must be finite")):
        with pytest.raises(ValidationError, match=message):
            Norm.ellipsoidal(A)
    with pytest.raises(ValidationError):
        Norm.lq(1.0, dim=3)
    with pytest.raises(ValidationError):
        Norm("ellipsoidal", 4, A=np.eye(4))
