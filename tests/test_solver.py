import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_targets, random_ellipsoidal_pair
from refractor.errors import (InfeasibleTarget, NonConvergence,
                              ValidationError)
from refractor.norms import (MediumPair, Norm, norm_eval, norm_gradient)
from refractor.snell import refract
from refractor.solver import (Refractor, SourceDensity, TargetDensity,
                              TargetMeasure, approximate_measure, dilate,
                              lipschitz_bound, max_difference_quotient,
                              refractor_map, refractor_measure, rho_values,
                              solve_discrete)
from refractor.transport import build_cost, certificate

Z = np.array([0.0, 0.0, 1.0])


def cap_targets_iso(pair, count, spread, seed, src):
    rng = np.random.default_rng(seed)
    return admissible_targets(pair, src, count, spread, rng)


def small_instance(n1=1.5, n2=1.0, nodes=1500, count=4, seed=0, angle=0.25):
    pair = MediumPair.isotropic(n1, n2)
    src = SourceDensity.from_cap(pair.n1, Z, angle, nodes)
    rng = np.random.default_rng(seed)
    dirs = admissible_targets(pair, src, count, 0.15, rng) if n1 > n2 else None
    if dirs is None:
        # Case II admissibility: x.p2(m) > 1 needs tight alignment
        dirs = []
        for k in range(count):
            th = 0.10 * np.sqrt(rng.uniform())
            ph = rng.uniform(0, 2 * np.pi)
            dirs.append([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)])
        dirs = np.asarray(dirs)
    g = rng.uniform(0.5, 1.5, count)
    g *= src.total / g.sum()
    tgt = TargetMeasure.of(pair.n2, dirs, g)
    return pair, src, tgt


# ------------------------------------------------------------- source density

def test_cap_quadrature_total_matches_cap_area():
    # Sigma1 of an isotropic medium is the sphere of radius 1/n; the mapped
    # cap area 2 pi (1 - cos angle)/n^2 is an independent quadrature oracle
    n1 = 1.5
    angle = 0.3
    src = SourceDensity.from_cap(Norm.isotropic(n1), Z, angle, 20_000)
    exact = 2.0 * np.pi * (1.0 - np.cos(angle)) / n1 ** 2
    assert src.total == pytest.approx(exact, rel=2e-3)
    assert np.all(src.weights > 0)
    assert np.max(np.abs(norm_eval(Norm.isotropic(n1), src.nodes) - 1)) <= 1e-12


def test_cap_quadrature_cosine_density():
    n1 = 1.5
    angle = 0.4
    src = SourceDensity.from_cap(Norm.isotropic(n1), Z, angle, 20_000,
                                 density="cosine")
    exact = np.pi * np.sin(angle) ** 2 / n1 ** 2
    assert src.total == pytest.approx(exact, rel=2e-3)


def test_cap_quadrature_anisotropic_jacobian():
    # ellipsoid area via dense-triangle oracle at a finer lattice
    A = np.diag([1.3, 1.6, 1.5])
    norm1 = Norm.ellipsoidal(A)
    src = SourceDensity.from_cap(norm1, Z, 0.3, 8000)
    src_fine = SourceDensity.from_cap(norm1, Z, 0.3, 64_000)
    assert src.total == pytest.approx(src_fine.total, rel=3e-3)


def test_cap_2d():
    src = SourceDensity.from_cap(Norm.isotropic(1.5, dim=2),
                                 np.array([0.0, 1.0]), 0.3, 200)
    # arc length of the cap on the radius-1/n circle
    assert src.total == pytest.approx(2 * 0.3 / 1.5, rel=1e-2)


# ------------------------------------------------------------ map and measure

def test_single_target_maps_everything():
    pair, src, _ = small_instance(count=4)
    tgt = TargetMeasure.of(pair.n2, np.array([Z]), np.array([src.total]))
    r = Refractor(pair, tgt, np.array([1.0]))
    rep = refractor_measure(r, src)
    assert rep.masses[0] == pytest.approx(src.total, rel=1e-12)
    assert refractor_map(r, src.nodes[17]) == 0


def test_symmetric_pair_splits_evenly():
    pair = MediumPair.isotropic(1.5, 1.0)
    src = SourceDensity.from_cap(pair.n1, Z, 0.25, 4001)
    t = 0.1
    dirs = np.array([[np.sin(t), 0, np.cos(t)], [-np.sin(t), 0, np.cos(t)]])
    tgt = TargetMeasure.of(pair.n2, dirs, np.full(2, src.total / 2))
    r = Refractor(pair, tgt, np.array([1.0, 1.0]))
    rep = refractor_measure(r, src)
    assert rep.masses[0] == pytest.approx(rep.masses[1], rel=2e-2)


def test_map_matches_bruteforce():
    pair, src, tgt = small_instance(nodes=400)
    rng = np.random.default_rng(5)
    r = Refractor(pair, tgt, rng.uniform(0.9, 1.1, tgt.count))
    p2m = norm_gradient(pair.n2, tgt.directions)
    for j in range(0, src.count, 17):
        x = src.nodes[j]
        h = r.radii / (1.0 - p2m @ x)
        assert refractor_map(r, x) == int(np.argmin(h))


def test_measure_matches_naive_double_loop():
    pair, src, tgt = small_instance(nodes=300, count=3, seed=2)
    rng = np.random.default_rng(6)
    r = Refractor(pair, tgt, rng.uniform(0.9, 1.1, 3))
    rep = refractor_measure(r, src)
    masses = np.zeros(3)
    assign = np.empty(src.count, dtype=int)
    for j in range(src.count):  # independent uncached reimplementation
        best, bi = np.inf, -1
        for i in range(3):
            p2m = norm_gradient(pair.n2, tgt.directions[i])
            h = r.radii[i] / (1.0 - float(src.nodes[j] @ p2m))
            if h < best:
                best, bi = h, i
        masses[bi] += src.weights[j]
        assign[j] = bi
    assert np.array_equal(rep.assignment, assign)
    assert np.allclose(rep.masses, masses, rtol=1e-12)


def test_measure_conservation():
    pair, src, tgt = small_instance(nodes=2000, count=5, seed=3)
    rng = np.random.default_rng(7)
    r = Refractor(pair, tgt, rng.uniform(0.8, 1.2, 5))
    rep = refractor_measure(r, src)
    assert np.sum(rep.masses) == pytest.approx(src.total, rel=1e-12)


# -------------------------------------------------------------------- solving

def test_solve_single_target():
    pair, src, _ = small_instance()
    tgt = TargetMeasure.of(pair.n2, np.array([Z]), np.array([src.total]))
    r = solve_discrete(pair, src, tgt, b1=0.8, tol=1e-3)
    assert r.radii[0] == 0.8
    assert refractor_measure(r, src).masses[0] == pytest.approx(src.total)


def bisection_oracle_two_targets(pair, src, tgt, b1, tol=1e-10):
    """Independent 1-D bisection on b2 for a two-target instance."""
    p2m = norm_gradient(pair.n2, tgt.directions)
    dots = src.nodes @ p2m.T
    case2 = pair.regime.value == "CaseII"
    denom = (dots - 1.0) if case2 else (1.0 - dots)

    def mass2(b2):
        H = np.where(denom > 0, np.array([b1, b2]) / np.where(denom > 0, denom, 1.0), np.inf)
        return float(np.sum(src.weights[H[:, 1] < H[:, 0]]))

    lo, hi = 1e-9 * b1, 1e3 * b1  # mass2 decreasing in b2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass2(mid) > tgt.masses[1]:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_two_symmetric_targets_matches_oracle():
    pair = MediumPair.isotropic(1.5, 1.0)
    src = SourceDensity.from_cap(pair.n1, Z, 0.25, 3000)
    t = 0.08
    dirs = np.array([[np.sin(t), 0, np.cos(t)], [-np.sin(t), 0, np.cos(t)]])
    tgt = TargetMeasure.of(pair.n2, dirs, np.full(2, src.total / 2))
    r = solve_discrete(pair, src, tgt, b1=1.0, tol=2e-3)
    oracle_b2 = bisection_oracle_two_targets(pair, src, tgt, 1.0)
    assert r.radii[1] == pytest.approx(oracle_b2, rel=5e-3)
    # symmetry: equal masses need nearly equal radii
    assert r.radii[1] == pytest.approx(1.0, rel=2e-2)


def test_solve_caseII_single_target():
    pair = MediumPair.isotropic(1.0, 1.5)
    src = SourceDensity.from_cap(pair.n1, Z, 0.20, 800)
    tgt = TargetMeasure.of(pair.n2, np.array([Z]), np.array([src.total]))
    r = solve_discrete(pair, src, tgt, b1=0.6, tol=1e-3)
    assert r.radii[0] == 0.6
    assert refractor_measure(r, src).masses[0] == pytest.approx(src.total)


def test_solve_caseII_two_targets_matches_oracle():
    pair = MediumPair.isotropic(1.0, 1.5)
    src = SourceDensity.from_cap(pair.n1, Z, 0.20, 3000)
    t = 0.06
    dirs = np.array([[np.sin(t), 0, np.cos(t)], [-np.sin(t), 0, np.cos(t)]])
    tgt = TargetMeasure.of(pair.n2, dirs, np.full(2, src.total / 2))
    r = solve_discrete(pair, src, tgt, b1=1.0, tol=2e-3)
    oracle_b2 = bisection_oracle_two_targets(pair, src, tgt, 1.0)
    assert r.radii[1] == pytest.approx(oracle_b2, rel=5e-3)


def test_solve_residual_and_refinement():
    pair, src, tgt = small_instance(nodes=2500, count=5, seed=4)
    r = solve_discrete(pair, src, tgt, b1=1.0, tol=1e-3)
    assert refractor_measure(r, src).residual <= 1e-3
    # doubling nodes, residual against the same relative masses stays small
    src2 = SourceDensity.from_cap(pair.n1, Z, 0.25, 5000)
    g2 = tgt.masses * (src2.total / tgt.masses.sum())
    tgt2 = TargetMeasure.of(pair.n2, tgt.directions, g2)
    r2 = solve_discrete(pair, src2, tgt2, b1=1.0, tol=1e-3)
    assert refractor_measure(r2, src2).residual <= 1e-3


def test_solve_other_initialization_agrees():
    pair, src, tgt = small_instance(nodes=2500, count=5, seed=5)
    r1 = solve_discrete(pair, src, tgt, b1=1.0, tol=1e-3)
    r2 = solve_discrete(pair, src, tgt, b1=1.0, tol=1e-3, init_factor=2.0)
    assert np.max(np.abs(r2.radii - r1.radii) / r1.radii) <= 1e-2


def test_solve_caseII_ray_trace_round_trip():
    pair, src, tgt = small_instance(n1=1.0, n2=1.5, nodes=1200, count=3,
                                    seed=6, angle=0.2)
    r = solve_discrete(pair, src, tgt, b1=1.0, tol=2e-3)
    rep = refractor_measure(r, src)
    p1 = norm_gradient(pair.n1, src.nodes)
    p2m = norm_gradient(pair.n2, tgt.directions)
    for j in range(0, src.count, 29):
        i = rep.assignment[j]
        nu = p2m[i] - p1[j]  # Case II outward normal of the active surface
        ev = refract(pair, src.nodes[j], nu / np.linalg.norm(nu))
        assert np.linalg.norm(ev.m - tgt.directions[i]) <= 1e-9


def test_monotonicity_property():
    pair, src, tgt = small_instance(nodes=1500, count=4, seed=7)
    rng = np.random.default_rng(8)
    r = Refractor(pair, tgt, rng.uniform(0.9, 1.1, 4))
    base = refractor_measure(r, src).masses
    for i in range(1, 4):
        radii = r.radii.copy()
        radii[i] *= 0.97
        pert = refractor_measure(Refractor(pair, tgt, radii), src).masses
        assert pert[i] >= base[i] - 1e-15
        others = np.delete(np.arange(4), i)
        assert np.all(pert[others] <= base[others] + 1e-15)


def test_dilation_invariance():
    pair, src, tgt = small_instance(nodes=1500, count=4, seed=9)
    r = solve_discrete(pair, src, tgt, b1=1.0, tol=2e-3)
    rep = refractor_measure(r, src)
    for C in (1.0, 0.5, 2.0, 10.0):
        rd = dilate(r, C)
        repd = refractor_measure(rd, src)
        assert np.array_equal(rep.assignment, repd.assignment)
        assert np.array_equal(rep.tie_counts, repd.tie_counts)
    # normalize through a point
    x0 = src.nodes[src.count // 2]
    R0 = 2.5
    C = R0 / float(rho_values(r, x0)[0])
    assert rho_values(dilate(r, C), x0)[0] == pytest.approx(R0, rel=1e-14)


def test_lipschitz_bound_holds():
    pair, src, tgt = small_instance(nodes=2500, count=5, seed=10)
    r = solve_discrete(pair, src, tgt, b1=1.0, tol=1e-3)
    quot = max_difference_quotient(r, src, pairs=100_000, seed=0)
    assert quot <= lipschitz_bound(r, src) * (1.0 + 1e-6)


def test_nonconvergence_below_resolution():
    pair, src, tgt = small_instance(nodes=120, count=3, seed=11)
    with pytest.raises(NonConvergence):
        solve_discrete(pair, src, tgt, b1=1.0, tol=1e-9, max_sweeps=60)


def test_infeasible_targets_rejected():
    pair = MediumPair.isotropic(1.5, 1.0)
    src = SourceDensity.from_cap(pair.n1, Z, 0.25, 500)
    # a target orthogonal to the cap axis violates m.p1(x) >= 1
    dirs = np.array([Z, [1.0, 0.0, 0.0]])
    tgt = TargetMeasure.of(pair.n2, dirs, np.full(2, src.total / 2))
    with pytest.raises(InfeasibleTarget):
        solve_discrete(pair, src, tgt, b1=1.0)


def test_balance_required():
    pair, src, tgt = small_instance(nodes=300)
    bad = TargetMeasure.of(pair.n2, tgt.directions, tgt.masses * 1.01)
    with pytest.raises(ValidationError):
        solve_discrete(pair, src, bad, b1=1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"init_factor": float("nan")}, "init_factor must be finite"),
    ({"init_factor": float("inf")}, "init_factor must be finite"),
    ({"init_factor": 0.5}, "init_factor must be finite and >= 1"),
    ({"tol": float("nan")}, "tol must be finite and positive"),
    ({"max_sweeps": 0}, "max_sweeps must be >= 1"),
    ({"b1": float("nan")}, "b1 must be finite and positive, got nan"),
    ({"b1": float("inf")}, "b1 must be finite and positive, got inf"),
])
def test_invalid_solve_arguments(kwargs, message):
    pair, src, tgt = small_instance(nodes=300)
    with pytest.raises(ValidationError, match=message):
        solve_discrete(pair, src, tgt, **{"b1": 1.0, **kwargs})


def test_convergence_log_monotone_after_warmup():
    pair, src, tgt = small_instance(nodes=2000, count=5, seed=12)
    r = solve_discrete(pair, src, tgt, b1=1.0, tol=1e-3)
    hist = r.info.residual_history
    assert len(hist) >= 2
    for a, b in zip(hist[1:], hist[2:]):
        assert b <= a * (1.0 + 1e-9)


def test_solve_2d_matches_oracle():
    pair = MediumPair.isotropic(1.5, 1.0, dim=2)
    axis = np.array([0.0, 1.0])
    src = SourceDensity.from_cap(pair.n1, axis, 0.3, 800)
    t = 0.07
    dirs = np.array([[np.sin(t), np.cos(t)], [-np.sin(t), np.cos(t)]])
    tgt = TargetMeasure.of(pair.n2, dirs,
                           np.array([0.4, 0.6]) * src.total)
    r = solve_discrete(pair, src, tgt, b1=1.0, tol=3e-3)
    assert refractor_measure(r, src).residual <= 3e-3
    oracle_b2 = bisection_oracle_two_targets(pair, src, tgt, 1.0)
    assert r.radii[1] == pytest.approx(oracle_b2, rel=1e-2)


def test_case1_domain_covers_all_admissible_targets():
    # admissibility makes every node lie in every target surface's domain
    from refractor.surfaces import UniformSurface, surface_radius

    pair, src, tgt = small_instance(nodes=600, count=4, seed=13)
    for i in range(tgt.count):
        s = UniformSurface(pair, tgt.directions[i], 1.0)
        rho = surface_radius(s, src.nodes)  # raises OutOfDomain on failure
        assert np.all(rho > 0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case2=st.booleans(),
       dim=st.sampled_from([2, 3]), ellipsoidal=st.booleans(),
       nodes=st.integers(200, 1500), count=st.integers(1, 5),
       C=st.floats(0.1, 10.0))
def test_design_invariants(seed, case2, dim, ellipsoidal, nodes, count, C):
    # one solve_discrete for both regimes, 2D and 3D, isotropic and
    # ellipsoidal: energy balance, the residual, the duality certificate
    # and dilation invariance of the masses
    rng = np.random.default_rng(seed)
    n1, n2 = (1.0, 1.5) if case2 else (1.5, 1.0)
    pair = random_ellipsoidal_pair(rng, dim, n1, n2) if ellipsoidal \
        else MediumPair.isotropic(n1, n2, dim)
    axis = np.eye(dim)[-1]
    src = SourceDensity.from_cap(pair.n1, axis, 0.2, nodes)
    dirs = admissible_targets(pair, src, count, 0.1, rng)
    g = rng.uniform(0.5, 1.5, count)
    tgt = TargetMeasure.of(pair.n2, dirs, g * (src.total / g.sum()))
    # keep the tolerance above the quadrature resolution
    tol = max(3e-3, 1.3 * (count - 1) * np.max(src.weights) / src.total)
    r = solve_discrete(pair, src, tgt, b1=1.0, tol=tol)
    rep = refractor_measure(r, src)
    assert np.sum(rep.masses) == pytest.approx(src.total, rel=1e-12)
    assert rep.residual <= tol
    assert certificate(r, src, rep, build_cost(pair, src, tgt))["agrees"]
    dilated = refractor_measure(dilate(r, C), src).masses
    assert np.allclose(dilated, rep.masses, rtol=1e-12, atol=0)


# -------------------------------------------------- continuous approximation

def test_approximate_measure_symmetric_four():
    spec = TargetDensity(norm2=Norm.isotropic(1.0), axis=Z, angle=0.2,
                         total_mass=8.0)
    tgt = approximate_measure(spec, 4)
    assert tgt.count == 4
    assert np.allclose(tgt.masses, 2.0, rtol=1e-12)
    assert np.sum(tgt.masses) == pytest.approx(8.0, rel=1e-14)


def test_approximate_measure_single_centroid():
    spec = TargetDensity(norm2=Norm.isotropic(2.0), axis=Z, angle=0.3,
                         total_mass=1.0)
    tgt = approximate_measure(spec, 1)
    assert tgt.count == 1
    # symmetric cap centroid is the axis, mapped to Sigma2
    assert np.allclose(tgt.directions[0], Z / 2.0, atol=1e-9)


def test_approximate_measure_refinement_cauchy():
    pair = MediumPair.isotropic(1.5, 1.0)
    src = SourceDensity.from_cap(pair.n1, Z, 0.25, 6000)
    diffs = []
    prev = None
    for N in (2, 8, 32):
        spec = TargetDensity(norm2=pair.n2, axis=Z, angle=0.10,
                             total_mass=src.total)
        tgt = approximate_measure(spec, N)
        # keep the residual tolerance above the quadrature resolution
        tol = max(3e-3, 1.3 * (N - 1) * np.max(src.weights) / src.total)
        r = solve_discrete(pair, src, tgt, b1=1.0, tol=tol)
        rho = rho_values(r, src.nodes)
        if prev is not None:
            diffs.append(float(np.max(np.abs(rho - prev))))
        prev = rho
    assert diffs[1] <= diffs[0]
