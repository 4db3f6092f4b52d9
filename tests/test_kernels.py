import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refractor import kernels


@pytest.fixture
def instance():
    rng = np.random.default_rng(0)
    denom = 1.0 - rng.uniform(-0.6, 0.6, (5000, 7))
    b = rng.uniform(0.5, 2.0, 7)
    w = rng.uniform(0.1, 1.0, 5000)
    return denom, b, w


def test_case2_infeasible_nodes_dropped():
    # Case II: a node with no feasible target is flagged -1, is not counted
    # as a tie, and its weight is dropped from every bin
    rng = np.random.default_rng(1)
    denom = rng.uniform(0.8, 1.8, (3000, 4)) - 1.0
    b = rng.uniform(0.5, 2.0, 4)
    w = rng.uniform(0.1, 1.0, 3000)
    plan, winner, ntie, hmin = kernels.tally(denom, b, w)
    masses = plan.sum(axis=0)
    infeas = winner == -1
    assert np.any(infeas)
    assert np.all(ntie[infeas] == 0)
    assert np.sum(masses) == pytest.approx(np.sum(w[~infeas]), rel=1e-12)


def test_tie_split():
    # two identical targets: every node ties, weight splits in half
    denom = 1.0 - np.array([[0.2, 0.2], [0.5, 0.5], [-0.1, -0.1]])
    b = np.array([1.0, 1.0])
    w = np.array([2.0, 4.0, 6.0])
    plan, winner, ntie, hmin = kernels.tally(denom, b, w)
    masses = plan.sum(axis=0)
    assert np.all(ntie == 2)
    assert np.allclose(masses, [6.0, 6.0])
    assert np.array_equal(winner, [0, 0, 0])  # lowest index wins argmin


def test_conservation(instance):
    denom, b, w = instance
    plan, winner, ntie, hmin = kernels.tally(denom, b, w)
    masses = plan.sum(axis=0)
    assert np.sum(masses) == pytest.approx(np.sum(w), rel=1e-12)


def thresholds_oracle(denom, b, i):
    # from scratch: min over the other targets' heights, times i's denom
    H = kernels.heights(denom, b)
    H[:, i] = np.inf
    den_i = denom[:, i]
    with np.errstate(invalid="ignore"):  # inf * 0 where den_i is 0
        return np.where(den_i > 0.0, H.min(axis=1) * den_i, -np.inf)


def test_thresholds_semantics(instance):
    # node j is in cell i at radius beta iff beta <= s_j
    denom, b, w = instance
    i = 2
    top = kernels.Top2.of(denom, b)
    s = kernels.win_thresholds(denom, top, i)
    assert np.array_equal(s, thresholds_oracle(denom, b, i))
    for beta in (0.3, 0.9, 1.7):
        b2 = b.copy()
        b2[i] = beta
        _, winner, _, _ = kernels.tally(denom, b2, w)
        in_cell = winner == i
        predicted = s >= beta
        # ties at exact equality may differ; exclude the boundary
        off = np.abs(s - beta) > 1e-12 * np.abs(beta)
        assert np.array_equal(in_cell[off], predicted[off])


@st.composite
def shrinking_runs(draw):
    """A random (J, N) instance, Case I or II, with zero and negative
    denominators and target columns duplicated in whole or on some rows
    (exact ties), plus a sequence of radius updates that never grow a
    radius."""
    J = draw(st.integers(1, 40))
    N = draw(st.integers(1, 6))
    case2 = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dots = rng.uniform(-0.5, 1.5, (J, N))  # denominators of both signs
    dots[rng.random((J, N)) < 0.15] = 1.0  # zero denominators
    b = rng.uniform(0.5, 2.0, N)
    twin = np.arange(N)
    for k in range(1, N):
        if rng.random() < 0.4:
            twin[k] = rng.integers(0, k)
            rows = rng.random(J) < 0.5 if rng.random() < 0.5 else slice(None)
            dots[rows, k] = dots[rows, twin[k]]
            b[k] = b[twin[k]]
    steps = draw(st.lists(
        st.tuples(st.integers(0, N - 1),
                  st.sampled_from(["keep", "tie", 0.5, 0.9, 1e-3])),
        max_size=25))
    return dots, b, twin, case2, steps


def top2_oracle(denom, b):
    # the state read off the whole (J, N) heights matrix at once: argmin,
    # then the min of the row with the winner's height struck out
    H = kernels.heights(denom, b)
    rows = np.arange(H.shape[0])
    win = np.argmin(H, axis=1).astype(np.int64)
    first = H[rows, win]
    H[rows, win] = np.inf
    return win, first, H.min(axis=1)


@settings(max_examples=300, deadline=None)
@given(shrinking_runs())
def test_top2_fold_matches_argmin_oracle(run):
    # folding the columns in one at a time through lower gives the argmin
    # state bit for bit: ties to the earlier target, duplicated heights as
    # the second best, unreached rows at winner 0 and +inf
    dots, b, twin, case2, steps = run
    denom = (dots - 1.0) if case2 else (1.0 - dots)
    for a, c in zip(kernels.Top2.of(denom, b), top2_oracle(denom, b)):
        assert a.dtype == c.dtype
        assert np.array_equal(a, c)


@settings(max_examples=300, deadline=None)
@given(shrinking_runs())
def test_maintained_thresholds_are_exact(run):
    dots, b, twin, case2, steps = run
    denom = (dots - 1.0) if case2 else (1.0 - dots)
    top = kernels.Top2.of(denom, b)
    for i, step in steps:
        if step == "tie":  # take the twin's radius when it is smaller
            b[i] = min(b[i], b[twin[i]])
        elif step != "keep":
            b[i] *= step
        kernels.lower(top, kernels.heights(denom[:, i], b[i]), i)
        H = kernels.heights(denom, b)
        assert np.array_equal(top.first, H.min(axis=1))
        assert np.array_equal(H[np.arange(len(H)), top.win], top.first)
        for k in range(len(b)):
            assert np.array_equal(kernels.win_thresholds(denom, top, k),
                                  thresholds_oracle(denom, b, k))


@settings(max_examples=300, deadline=None)
@given(shrinking_runs())
def test_masses_match_tally_bit_for_bit(run):
    # the sweep's masses from the maintained state equal the full tally's
    # column sums exactly, ties and unreached nodes included
    dots, b, twin, case2, steps = run
    denom = (dots - 1.0) if case2 else (1.0 - dots)
    w = np.random.default_rng(len(steps)).uniform(0.1, 1.0, len(denom))
    top = kernels.Top2.of(denom, b)
    for i, step in [(0, "keep")] + steps:
        if step == "tie":
            b[i] = min(b[i], b[twin[i]])
        elif step != "keep":
            b[i] *= step
        kernels.lower(top, kernels.heights(denom[:, i], b[i]), i)
        assert np.array_equal(kernels.masses(top, denom, b, w),
                              kernels.tally(denom, b, w)[0].sum(axis=0))


def test_masses_match_tally_at_scale():
    # numpy adds a long single column pairwise and the columns of a wider
    # plan in node order; both must come out the same bits, with tied rows
    # and without any
    rng = np.random.default_rng(3)
    for ties, N in itertools.product((True, False), (1, 2, 7)):
        denom = 1.0 - rng.uniform(-0.6, 0.6, (20_000, N))
        b = rng.uniform(0.5, 2.0, N)
        if ties:
            # the last target ties the first on every other row, so tied
            # rows sit in among untied ones
            denom[::2, -1] = denom[::2, 0]
            b[-1] = b[0]
        w = rng.uniform(0.1, 1.0, 20_000)
        top = kernels.Top2.of(denom, b)
        assert np.array_equal(kernels.masses(top, denom, b, w),
                              kernels.tally(denom, b, w)[0].sum(axis=0))


# ------------------------------------------------ simplex-soup Jacobian


def segment_masses(phi, m_T):
    """The cell masses of one segment of mass m_T, whose targets' phi are
    (2, N) at its ends and affine in between: cell i is the interval of
    s in [0, 1] where phi_i >= phi_l for every l."""
    out = np.zeros(phi.shape[1])
    for i in range(phi.shape[1]):
        lo, hi = 0.0, 1.0
        for gap in (phi[:, i:i + 1] - phi).T:  # phi_i - phi_l at both ends
            if gap.min() < 0.0:  # >= 0 only on one side of its root
                root = gap[0] / (gap[0] - gap[1])
                if gap[0] < 0.0:
                    lo = max(lo, root)
                if gap[1] < 0.0:
                    hi = min(hi, root)
        out[i] = m_T * max(hi - lo, 0.0)
    return out


def soup_masses(denom, b, nodes, tris, f):
    """Cell masses of the simplex soup, clipped exactly: each flat triangle
    (segment) holds its area (length) times the mean vertex density,
    uniformly, and cell i is where phi_i = denom_i / b_i is largest.  A
    segment is clipped by `segment_masses`; a triangle by the half-planes
    phi_i >= phi_l one at a time (Sutherland-Hodgman) in barycentric
    coordinates, where its area is 1/2."""
    N = denom.shape[1]
    out = np.zeros(N)
    for tri in tris:
        x = nodes[tri]
        phi = denom[tri] / b  # (vertices, N): affine in between
        if len(tri) == 2:
            out += segment_masses(phi, np.linalg.norm(x[1] - x[0])
                                  * f[tri].mean())
            continue
        m_T = 0.5 * np.linalg.norm(np.cross(x[1] - x[0], x[2] - x[0])) \
            * f[tri].mean()
        for i in range(N):
            poly = list(np.eye(3))
            for l in range(N):
                if l == i or not poly:
                    continue
                gap = phi[:, i] - phi[:, l]
                clipped = []
                for P, Q in zip(poly, poly[1:] + poly[:1]):
                    gp, gq = P @ gap, Q @ gap
                    if gp >= 0.0:
                        clipped.append(P)
                    if (gp >= 0.0) != (gq >= 0.0):
                        clipped.append(P + gp / (gp - gq) * (Q - P))
                poly = clipped
            if len(poly) >= 3:
                u, v = np.array(poly)[:, 1], np.array(poly)[:, 2]
                area = 0.5 * abs(np.dot(u, np.roll(v, -1))
                                 - np.dot(v, np.roll(u, -1)))
                out[i] += 2.0 * m_T * area
    return out


def soup_instance(media, case2, count, seed, dim=3):
    """A cap (an arc in 2D) of 300 nodes, `count` admissible targets and
    radii near balance: the sweep's at a coarse tolerance, jittered."""
    from conftest import admissible_instance, media_pairs, sweep_alone
    from refractor.solver import TargetMeasure

    rng = np.random.default_rng(seed)
    pair, src, dirs = admissible_instance(media_pairs(media, case2, dim, rng),
                                          rng, 0.2, 300, count, 0.1)
    g = rng.uniform(0.5, 1.5, count)
    tgt = TargetMeasure.of(pair.n2, dirs, g * (src.total / g.sum()))
    b = sweep_alone(pair, src, tgt, 1.0, tol=0.05).radii
    b[1:] *= np.exp(1e-6 * rng.standard_normal(count - 1))
    return pair.denominators(src.nodes, tgt.directions), b, src


SOUP_CASES = [
    ("isotropic", False, 4, 0, 3), ("isotropic", True, 3, 1, 3),
    ("ellipsoidal", False, 5, 2, 3), ("ellipsoidal", True, 4, 3, 3),
    ("lq", False, 4, 4, 3), ("lq", True, 3, 5, 3),
    ("isotropic", False, 5, 6, 2), ("isotropic", True, 4, 7, 2),
    ("ellipsoidal", False, 5, 8, 2), ("ellipsoidal", True, 4, 9, 2),
    ("lq", False, 5, 10, 2), ("lq", True, 4, 13, 2),
]
# Case II lq targets crowd the axis, where some draws tie two of them to
# about 1e-10 (seed 12: entries near 1e7, which a central difference cannot
# resolve in double precision) or let the jitter empty a cell (seed 11)
# a 3D row's id is its first four values, a 2D row's has "-2d" added
SOUP_IDS = ["-".join(map(str, case[:4])) + ("-2d" if case[4] == 2 else "")
            for case in SOUP_CASES]


@pytest.mark.parametrize("media, case2, count, seed, dim", SOUP_CASES,
                         ids=SOUP_IDS)
def test_soup_jacobian_matches_clipped_masses(media, case2, count, seed, dim):
    # the Jacobian is symmetric, its rows sum to zero, its off-diagonal
    # entries are >= 0, and it is the derivative of the exactly clipped
    # soup masses in log b (central differences), on triangles and on
    # segments
    denom, b, src = soup_instance(media, case2, count, seed, dim)
    win = kernels.Top2.of(np.asfortranarray(denom), b).win
    H = kernels.soup_jacobian(np.asfortranarray(denom), b, win, src.tris,
                              src.tri_masses)
    scale = np.abs(H).max()
    assert np.array_equal(H, H.T)
    assert np.all(np.abs(H.sum(axis=1)) <= 1e-12 * scale)
    assert np.all(H[~np.eye(count, dtype=bool)] >= 0.0)
    assert np.all(np.diag(H) < 0.0)  # every cell has a boundary
    M = soup_masses(denom, b, src.nodes, src.tris, src.f)
    assert M.sum() == pytest.approx(src.total, rel=1e-12)
    # a step h moves a segment's crossing by about h H_ik / m_T of its
    # length, which near-tied targets make large: a 2D step is scaled to
    # the matrix, to keep every crossing on its segment
    h = 1e-6 if dim == 3 else 1e-5 * src.total / scale
    for k in range(count):
        step = np.where(np.arange(count) == k, h, 0.0)
        fd = (soup_masses(denom, b * np.exp(step), src.nodes, src.tris, src.f)
              - soup_masses(denom, b * np.exp(-step), src.nodes, src.tris,
                            src.f)) / (2.0 * h)
        assert np.allclose(fd, H[:, k], rtol=0, atol=1e-6 * scale)


def recomputed_mixed(nodes, f):
    """`kernels._mixed` with each mixed triangle's (segment's) mass
    recomputed from its vertices (cross product or edge length, then the
    mean vertex density) instead of gathered from
    `SourceDensity.tri_masses`."""
    def mixed(win, tris, tri_masses):
        win = win[tris]
        tri = tris[np.flatnonzero((win != win[:, :1]).any(axis=1))].T
        x = nodes[tri]
        e = x[1] - x[0]
        if len(tri) == 2:
            return tri, (np.sqrt(np.sum(e * e, axis=1))
                         * (f[tri[0]] + f[tri[1]]) / 2.0)
        h = x[2] - x[0]
        cross = (e[:, [1, 2, 0]] * h[:, [2, 0, 1]]
                 - e[:, [2, 0, 1]] * h[:, [1, 2, 0]])
        return tri, (np.sqrt(np.sum(cross * cross, axis=1))
                     * (f[tri[0]] + f[tri[1]] + f[tri[2]]) / 6.0)
    return mixed


@pytest.mark.parametrize("media, case2, count, seed, dim", SOUP_CASES,
                         ids=SOUP_IDS)
def test_soup_jacobian_reads_the_recomputed_masses(monkeypatch, media, case2,
                                                   count, seed, dim):
    # the masses the quadrature keeps are the ones the vertices give, so the
    # Jacobian is bit for bit the one that recomputes them
    denom, b, src = soup_instance(media, case2, count, seed, dim)
    denom = np.asfortranarray(denom)
    win = kernels.Top2.of(denom, b).win
    kept = kernels.soup_jacobian(denom, b, win, src.tris, src.tri_masses)
    monkeypatch.setattr(kernels, "_mixed", recomputed_mixed(src.nodes, src.f))
    assert np.array_equal(
        kept, kernels.soup_jacobian(denom, b, win, src.tris, src.tri_masses))


def floor_candidates(phi, win):
    """The looser candidate bound: targets whose largest vertex phi reaches
    max_l min_v phi_l (win is not read)."""
    floor = phi.min(axis=1).max(axis=0)
    return np.nonzero((phi.max(axis=1) >= floor).T)


def lq_instance_50():
    """iso(0.5) -> lq(3) on a 3000-node cap with 50 targets, at radii
    designed to a coarse tolerance."""
    from conftest import admissible_instance, media_pairs
    from refractor.solver import TargetMeasure, solve_discrete

    rng = np.random.default_rng(6)
    pair, src, dirs = admissible_instance(media_pairs("lq", True, 3, rng),
                                          rng, 0.2, 3000, 50, 0.1)
    g = rng.uniform(0.5, 1.5, 50)
    tgt = TargetMeasure.of(pair.n2, dirs, g * (src.total / g.sum()))
    b = solve_discrete(pair, src, tgt, 1.0, tol=0.05).radii
    return pair.denominators(src.nodes, tgt.directions), b, src


@pytest.mark.parametrize("case", SOUP_CASES + ["lq_50"])
def test_soup_jacobian_candidates_match_the_floor_bound(monkeypatch, case):
    # keeping only targets that reach every vertex winner's phi at some
    # vertex drops no boundary: the matrix is the looser bound's within
    # 1e-12 of its largest entry, from fewer candidates
    denom, b, src = lq_instance_50() if case == "lq_50" else \
        soup_instance(*case)
    denom = np.asfortranarray(denom)
    win = kernels.Top2.of(denom, b).win
    counts, candidates = [], kernels._candidates

    def counting(bound):
        def count(phi, win):
            t, k = bound(phi, win)
            counts.append(t.size)
            return t, k
        return count

    H = {}
    for name, bound in (("vertex", candidates), ("floor", floor_candidates)):
        monkeypatch.setattr(kernels, "_candidates", counting(bound))
        H[name] = kernels.soup_jacobian(denom, b, win, src.tris,
                                        src.tri_masses)
    scale = np.abs(H["floor"]).max()
    assert np.all(np.abs(H["vertex"] - H["floor"]) <= 1e-12 * scale)
    assert counts[0] <= counts[1]
    if denom.shape[1] == 50:
        assert counts[0] < counts[1] / 2
