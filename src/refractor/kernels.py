"""Min-envelope kernels of the design solver.

A refractor is the min-envelope rho(x) = min_i h_i(x) of uniformly
refracting surfaces, h_i(x) = b_i / denom_i(x) with denom = 1 - x.p2(m_i)
in Case I and x.p2(m_i) - 1 in Case II.  The regime is read only in
``MediumPair.denominators``; every kernel takes its (J, N) denominators and
never asks which regime they came from.  ``heights`` evaluates b / denom
where a surface may miss nodes.  ``tally`` scores every node against every
target and splits its weight over the tied ones: that (J, N) split is the
refractor's transport plan, whose column sums are the cell masses and which
``verify`` prices.  It runs over all J nodes only there, in
``refractor_measure``; ``design`` reports the sweep's own masses.
Everything is vectorized numpy and deterministic.

The design sweep also keeps, per node, the envelope's winner and its best
and second-best heights (``Top2``).  Target i's cell threshold needs only
the minimum over the other targets, which is the second-best height where
i wins and the best height elsewhere, so ``win_thresholds`` is O(J) rather
than a fresh (J, N) pass.  ``lower`` is the only code that computes the
state: it folds one target's column of heights in, which is exact while no
height grows.  ``Top2.of`` folds every column into the empty state, where
every height is +inf, and after b_i shrinks the sweep folds in target i's
new column, with the floating-point minima a rebuild would take, so
thresholds are bit-identical to a rebuild's.  The sweep reads its cell
masses from the same state (``masses``): an untied node sends its whole
weight to its winner, and only the few tied rows go through ``tally``, so
no sweep makes a (J, N) pass.

``Top2.take`` and ``Top2.put`` copy out and write back the state of any
subset of rows, and ``lower`` updates whatever state it is given, so an
update can read and write only the rows its new radius can reach (the
solver's bands).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["heights", "tally", "Top2", "masses", "win_thresholds", "lower",
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
    second-best heights (+inf where fewer surfaces reach the node).

    ``lower`` alone computes it, so its rules live there: the earlier
    target wins a tie, a tied height counts as the second best, and a node
    no surface reaches keeps winner 0 at height +inf."""

    win: np.ndarray     # (J,) int64, an argmin target of each node
    first: np.ndarray   # (J,) min_k h_k
    second: np.ndarray  # (J,) min over k != win of h_k

    @classmethod
    def of(cls, denom, b) -> "Top2":
        """The state at radii b of (J, N) denominators: the empty state
        (no surface reaches any node) with every target's column of heights
        folded in through ``lower``, one at a time."""
        J = denom.shape[0]
        top = cls(np.zeros(J, np.int64), np.full(J, np.inf),
                  np.full(J, np.inf))
        for i in range(denom.shape[1]):
            lower(top, heights(denom[:, i], b[i]), i)
        return top

    def take(self, rows) -> "Top2":
        """A copy of the state of the nodes rows."""
        return Top2(*(a.take(rows) for a in self))

    def put(self, rows, part: "Top2") -> None:
        """Write part, the state of the nodes rows, back in place."""
        for a, p in zip(self, part):
            a[rows] = p


def masses(top: Top2, denom, b, w):
    """The column sums of ``tally(denom, b, w)``'s plan, bit for bit, at the
    radii b that top describes.

    A node whose second-best height lies above the tie band sends its whole
    weight to its winner; only the other rows are tallied.  numpy adds a
    (J, N >= 2) plan's columns in node order, and so does the bincount here;
    a single column it adds pairwise, and so does the N = 1 branch.
    """
    untied = top.second > top.first * (1.0 + TIE_RTOL)
    if denom.shape[1] == 1:
        return np.where(untied, w, 0.0)[:, None].sum(axis=0)
    tied = np.flatnonzero(~untied)
    plan = tally(denom[tied], b, w[tied])[0]
    r, c = np.nonzero(plan)
    # the tied shares go in among the untied weights, in node order
    at = np.searchsorted(np.flatnonzero(untied), tied[r])
    return np.bincount(np.insert(top.win[untied], at, c),
                       np.insert(w[untied], at, plan[r, c]),
                       minlength=denom.shape[1])


def win_thresholds(denom, top: Top2, i: int):
    """Per-node radius thresholds for target i at fixed other radii.

    denom: (J, N) denominators; top: the state at the current radii.  Node
    j belongs to target i's cell iff b_i <= s_j with s_j the returned
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
    """Update the state in place after radius i shrinks; h_i: target i's
    new heights at the nodes top describes.

    Exact only when no height grew: a grown radius could hand a node's win
    to a surface the state no longer knows.  A node whose new height is not
    below its second-best keeps its state, so top need only describe the
    nodes with h_i < second.
    """
    win, first, second = top
    # where i wins, its old height leaves the pair; +inf stands in for it
    first[win == i] = np.inf
    np.minimum(second, np.maximum(first, h_i), out=second)
    win[h_i < first] = i
    np.minimum(first, h_i, out=first)
