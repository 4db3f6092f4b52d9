import numpy as np
import pytest

from refractor import kernels


@pytest.fixture
def instance():
    rng = np.random.default_rng(0)
    dots = rng.uniform(-0.6, 0.6, (5000, 7))
    b = rng.uniform(0.5, 2.0, 7)
    w = rng.uniform(0.1, 1.0, 5000)
    return dots, b, w


def test_case2_infeasible_nodes_dropped():
    # Case II: a node with no feasible target is flagged -1, is not counted
    # as a tie, and its weight is dropped from every bin
    rng = np.random.default_rng(1)
    dots = rng.uniform(0.8, 1.8, (3000, 4))
    b = rng.uniform(0.5, 2.0, 4)
    w = rng.uniform(0.1, 1.0, 3000)
    masses, winner, ntie, hmin = kernels.tally(dots, b, w, case2=True)
    infeas = winner == -1
    assert np.any(infeas)
    assert np.all(ntie[infeas] == 0)
    assert np.sum(masses) == pytest.approx(np.sum(w[~infeas]), rel=1e-12)


def test_tie_split():
    # two identical targets: every node ties, weight splits in half
    dots = np.array([[0.2, 0.2], [0.5, 0.5], [-0.1, -0.1]])
    b = np.array([1.0, 1.0])
    w = np.array([2.0, 4.0, 6.0])
    masses, winner, ntie, hmin = kernels.tally(dots, b, w)
    assert np.all(ntie == 2)
    assert np.allclose(masses, [6.0, 6.0])
    assert np.array_equal(winner, [0, 0, 0])  # lowest index wins argmin


def test_conservation(instance):
    dots, b, w = instance
    masses, winner, ntie, hmin = kernels.tally(dots, b, w)
    assert np.sum(masses) == pytest.approx(np.sum(w), rel=1e-12)


def test_thresholds_semantics(instance):
    # node j is in cell i at radius beta iff beta <= s_j
    dots, b, w = instance
    i = 2
    s = kernels.win_thresholds(dots, b, i)
    for beta in (0.3, 0.9, 1.7):
        b2 = b.copy()
        b2[i] = beta
        _, winner, _, _ = kernels.tally(dots, b2, w)
        in_cell = winner == i
        predicted = s >= beta
        # ties at exact equality may differ; exclude the boundary
        off = np.abs(s - beta) > 1e-12 * np.abs(beta)
        assert np.array_equal(in_cell[off], predicted[off])
