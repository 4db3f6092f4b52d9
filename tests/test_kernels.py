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
    top = kernels.Top2.of(kernels.heights(denom, b))
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
    denominators and duplicated target columns (exact ties), plus a
    sequence of radius updates that never grow a radius."""
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
            dots[:, k] = dots[:, twin[k]]
            b[k] = b[twin[k]]
    steps = draw(st.lists(
        st.tuples(st.integers(0, N - 1),
                  st.sampled_from(["keep", "tie", 0.5, 0.9, 1e-3])),
        max_size=25))
    return dots, b, twin, case2, steps


@settings(max_examples=300, deadline=None)
@given(shrinking_runs())
def test_maintained_thresholds_are_exact(run):
    dots, b, twin, case2, steps = run
    denom = (dots - 1.0) if case2 else (1.0 - dots)
    top = kernels.Top2.of(kernels.heights(denom, b))
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
