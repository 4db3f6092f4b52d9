"""Min-envelope kernels of the design solver.

A refractor is the min-envelope rho(x) = min_i h_i(x) of uniformly
refracting surfaces, h_i(x) = b_i / denom_i(x) with denom = 1 - x.p2(m_i)
in Case I and x.p2(m_i) - 1 in Case II.  The regime is read only in
``MediumPair.denominators``; every kernel takes its (J, N) denominators and
never asks which regime they came from.  ``heights`` is the one place
b / denom is evaluated.  ``tally`` scores every node against every target
and splits its weight over the tied ones: that (J, N) split is the
refractor's transport plan, whose column sums the sweep balances and which
``verify`` prices.  Everything is vectorized numpy and deterministic.

The design sweep also keeps, per node, the envelope's winner and its best
and second-best heights (``Top2``).  Target i's cell threshold needs only
the minimum over the other targets, which is the second-best height where
i wins and the best height elsewhere, so ``win_thresholds`` is O(J) rather
than a fresh (J, N) pass.  The state stays exact because radii only shrink
during a solve: after b_i shrinks, ``lower`` folds target i's new column of
heights into it with the floating-point minima a rebuild would take, so
thresholds are bit-identical to a rebuild's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["heights", "tally", "Top2", "win_thresholds", "lower",
           "active_backend", "TIE_RTOL"]

TIE_RTOL = 1e-12  # surfaces within this relative height of the minimum tie


def active_backend() -> str:
    # recorded in the benchmark's environment block
    return "numpy"


def heights(denom, b):
    """h = b / denom, +inf where denom <= 0 (the surface does not reach
    that node); a fresh C-order array, denom is left as it is."""
    with np.errstate(divide="ignore"):
        h = np.divide(b, denom, order="C")
    h[denom <= 0.0] = np.inf
    return h


def tally(denom, b, w):
    """Score nodes against targets and split their weights over ties.

    denom: (J, N) denominators; b: (N,) radii; w: (J,) node weights.
    Returns (plan, winner, ntie, hmin): plan (J, N) holds each node's weight
    split equally over the ntie targets tied within TIE_RTOL relative (a zero
    row where none is feasible) and its column sums are the cell masses;
    winner is each node's argmin target (-1 where none is feasible).
    """
    H = heights(denom, b)
    hmin = H.min(axis=1)
    winner = np.argmin(H, axis=1).astype(np.int64)
    feasible = np.isfinite(hmin)
    winner[~feasible] = -1
    tie = H <= hmin[:, None] * (1.0 + TIE_RTOL)
    tie[~feasible] = False
    ntie = tie.sum(axis=1).astype(np.int64)
    share = np.where(ntie > 0, w / np.maximum(ntie, 1), 0.0)
    return share[:, None] * tie, winner, ntie, hmin


class Top2(NamedTuple):
    """Per-node min-envelope state: the winning target and the best and
    second-best heights (+inf where fewer surfaces reach the node)."""

    win: np.ndarray     # (J,) int64, an argmin target of each node
    first: np.ndarray   # (J,) min_k h_k
    second: np.ndarray  # (J,) min over k != win of h_k

    @classmethod
    def of(cls, H) -> "Top2":
        """The state of a (J, N) heights matrix, which is overwritten."""
        rows = np.arange(H.shape[0])
        win = np.argmin(H, axis=1).astype(np.int64)
        first = H[rows, win]
        H[rows, win] = np.inf
        return cls(win, first, H.min(axis=1))


def win_thresholds(denom, top: Top2, i: int):
    """Per-node radius thresholds for target i at fixed other radii.

    denom: (J, N) denominators; top: the state at the current radii.  Node j
    belongs to target i's cell iff b_i <= s_j with s_j the returned
    threshold (min over other targets of h, times i's denominator); -inf
    marks nodes i can never win, +inf nodes only i can serve.
    """
    den_i = denom[:, i]
    reach = den_i > 0.0
    s = np.where(top.win == i, top.second, top.first)
    np.multiply(s, den_i, out=s, where=reach)
    s[~reach] = -np.inf
    return s


def lower(top: Top2, h_i, i: int) -> None:
    """Update the state in place after radius i shrinks; h_i: (J,) target
    i's new heights.

    Exact only when no height grew: a grown radius could hand a node's win
    to a surface the state no longer knows.
    """
    win, first, second = top
    # where i wins, its old height leaves the pair; +inf stands in for it
    first[win == i] = np.inf
    np.minimum(second, np.maximum(first, h_i), out=second)
    win[h_i < first] = i
    np.minimum(first, h_i, out=first)
