"""The fill rounds that give every empty cell its whole mass so that
`solver._newton` can start (`fill_cells`); `solver` imports it only when a
start leaves a cell empty.  A radius of +inf (a surface out of reach) is
an empty cell like any other.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import InfeasibleTarget
from .solver import _note

FILL_ROUNDS = 1_000  # a fill's budget of rounds


def _fill_radius(s: np.ndarray, w: np.ndarray, b_i: float, g_i: float,
                 half_width: float, i: int, w_mean: float) -> float:
    """Target i's new radius, read off its node thresholds s and weights w:
    node j is in the cell iff b_i <= s_j, so with s sorted downward the cell
    holds fill[k] for b_i in (s[k+1], s[k]].  At the first k with fill[k] >=
    g_i - half_width, b_i goes mid-gap, where no node ties, or, if node k
    jumps past g_i + half_width, just above s[k], leaving the cell
    under-filled: overfilling cannot be undone.  b_i never grows; the
    solve's state is exact only while radii shrink.

    Only the top of the profile is sorted: one partition cuts it at the
    m-th largest threshold, m being the nodes already in the cell plus
    twice the deficit in mean node weights w_mean, and m grows 4-fold until
    k's group of equal thresholds ends above the cut."""
    inside = s >= b_i
    deficit = g_i - half_width - float(w[inside].sum())
    m = np.count_nonzero(inside) + 2 + int(2.0 * max(deficit, 0.0) / w_mean)
    while True:
        # the cut takes every threshold equal to it: no group is split
        cut = np.partition(s, -m)[-m] if m < s.size else -np.inf
        cand = np.flatnonzero(s >= cut)
        order = cand[np.argsort(s[cand])[::-1]]
        top = s[order]
        fill = np.cumsum(w[order])
        k = int(np.searchsorted(fill, g_i - half_width))
        # done once k's group ends above the cut, so the gap below is known
        if cand.size == s.size or (k < cand.size and top[k] > top[-1]):
            break
        m *= 4
    # the nodes i cannot reach (-inf) sort last, so they never count for k
    if k == s.size or top[k] == -np.inf:
        raise InfeasibleTarget(
            f"target {i} cannot absorb its mass: the nodes it reaches carry "
            f"{np.sum(w[s > -np.inf]):.6g} < {g_i - half_width:.6g}")
    # equal thresholds join together: the cell at s_k holds all s >= s_k
    k = int(np.count_nonzero(top >= top[k])) - 1
    if fill[k] > g_i + half_width:
        return min(b_i, float(top[k]) * (1.0 + 1e-15))
    below = top[k + 1] if k + 1 < top.size else -np.inf
    return min(b_i, 0.5 * (float(top[k]) + max(float(below), 0.0)))


def fill_cells(denom, top, b, masses, g, src, delta, info):
    """Fill rounds in place on radii b, their state top and masses: each
    lowers every empty cell k (M_k <= 0), the anchor's too, toward its whole
    mass g_k +- delta_c / 2, delta_c = 0.9 delta / max(1, N - 1), or toward
    the weight R_k of the nodes it reaches if less (InfeasibleTarget once
    R_k < g_k - delta), by ``kernels.win_thresholds``, `_fill_radius` and
    ``kernels.lower`` (info.updates counts them), then tallies and appends
    `_note`'s residual to info.residual_history.  Returns (masses, rounds
    run, why): why is None once no cell is empty, "stagnated" after a
    round that moved no radius, or "budget" after FILL_ROUNDS."""
    w, half_width = src.weights, 0.45 * delta / max(1, g.size - 1)
    w_mean = w.mean()
    for n in range(FILL_ROUNDS + 1):
        cells = np.flatnonzero(masses <= 0.0)
        if not cells.size:
            return masses, n, None
        if n == FILL_ROUNDS:
            return masses, n, "budget"
        before = b.copy()
        for k in cells:
            s = kernels.win_thresholds(denom, top, k)
            # a cell further short of g_k than delta makes `_fill_radius` raise
            reached = s > -np.inf
            reach = src.total if reached.all() else float(w[reached].sum())
            aim = min(g[k], max(reach, g[k] - delta + half_width))
            # a radius that does not move leaves the state as it is
            b[k] = _fill_radius(s, w, b[k], aim, half_width, k, w_mean)
            kernels.lower(top, kernels.heights(denom[:, k], b[k]), k)
        info.updates += cells.size
        if np.array_equal(b, before):
            return masses, n + 1, "stagnated"
        masses = kernels.masses(top, denom, b, src.weights)
        info.residual_history.append(_note(info, masses, g, src.total))

