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
``refractor_measure``; ``design`` reports its solve's own masses.
Everything is vectorized numpy and deterministic.

The design keeps, per node, the envelope's winner and its best and
second-best heights (``Top2``), from which ``masses`` reads the cell masses
without a (J, N) pass: an untied node sends its whole weight to its
winner, and only the few tied rows go through ``tally``.  ``lower`` alone
computes the state, folding in one target's column of heights, exact
while no height grows: ``Top2.of`` folds every column into the empty state
(at a start and at each Newton trial), and after b_i shrinks a fill round
(``solver.fill_cells``) folds in i's new column, with the minima a rebuild
would take.  Target i's cell threshold is then the second-best height where
i wins and the best elsewhere, so ``win_thresholds`` is O(J).

``soup_jacobian`` is the derivative of the cell masses in log b for the
simplex-soup measure on the cap mesh (triangles in 3D, arc segments in
2D), which the Newton solve steps with; it reads only the simplices whose
vertices have different winners.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["heights", "tally", "Top2", "masses", "win_thresholds", "lower",
           "soup_jacobian", "active_backend", "TIE_RTOL", "CLOSE_RTOL"]

TIE_RTOL = 1e-12  # surfaces within this relative height of the minimum tie
CLOSE_RTOL = 16.0 * TIE_RTOL  # denominators this close make surfaces tie


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
    if not tied.size:  # each weight goes to its winner
        return np.bincount(top.win, w, minlength=denom.shape[1])
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
    below its second-best keeps its state.
    """
    win, first, second = top
    # where i wins, its old height leaves the pair; +inf stands in for it
    first[win == i] = np.inf
    np.minimum(second, np.maximum(first, h_i), out=second)
    win[h_i < first] = i
    np.minimum(first, h_i, out=first)


def _ranges(start, count):
    """start[r] + 0..count[r]-1 for every r, concatenated, and r for each."""
    r = np.repeat(np.arange(start.size), count)
    return r, start[r] + np.arange(r.size) - np.repeat(np.cumsum(count)
                                                       - count, count)


def _mixed(win, tris, tri_masses):
    """The simplices with vertices of different winners, and their masses."""
    first = win[tris[:, 0]]
    mixed = np.logical_or.reduce([first != win[v] for v in tris.T[1:]])
    t = np.flatnonzero(mixed)
    return tris[t].T, tri_masses[t]


def _candidates(phi, win):
    """(simplex, target) entries, grouped by simplex, of the targets k
    with phi_k >= phi_w at some vertex for each vertex winner w; phi is
    (N, vertices, T) and win (vertices, T).  Cell k needs phi_k >= phi_w
    somewhere on the simplex, and an affine function >= 0 somewhere on a
    simplex is >= 0 at one of its vertices.  The winners are always kept."""
    cols = np.arange(phi.shape[2])
    keep = np.ones((phi.shape[0], phi.shape[2]), bool)
    for w in win:
        # phi_w at the vertices, (vertices, T)
        keep &= (phi >= phi[w, :, cols].T).any(axis=1)
    return np.nonzero(keep.T)


def soup_jacobian(denom, b, win, tris, tri_masses):
    """dM_i / dlog b_k of the simplex-soup measure, (N, N): each flat
    simplex of the mesh tris, a triangle or (in 2D) a segment, holds its
    mass m_T (`SourceDensity.tri_masses`) uniformly.  denom: the nodes'
    (J, N) denominators; win: a winner of each node at radii b.

    phi_k = denom_k / b_k is affine on a flat simplex, and cell i is where
    phi_i is largest, so only simplices whose vertices have different
    winners hold cell boundaries.  Raising log b_k lowers phi_k by phi_k,
    which moves the boundary phi_i = phi_k into cell k by
    phi_k / |grad(phi_i - phi_k)|.  On a segment, of length 1 in its chart,
    that boundary is a point s*, and dM_i / dlog b_k is
    m_T phi_k(s*) / |psi_0 - psi_1|, psi = phi_i - phi_k at its ends.  On a
    triangle, of area 1/2 in barycentric coordinates, it is a chord, and
    dM_i / dlog b_k is 2 m_T times the integral of phi_k / |grad psi| along
    it.  Either counts only where phi_i = phi_k is the largest, which only
    targets whose phi reaches each vertex winner's at some vertex can be.
    The matrix is symmetric, >= 0 off the diagonal, with zero row sums."""
    N = denom.shape[1]
    tri, m_T = _mixed(win, tris, tri_masses)
    V, T = tri.shape
    # phi at the vertices, (N, V, T): a gather from each target's column
    phi = np.take(denom.T, tri, axis=1)
    phi /= b[:, None, None]
    t, k = _candidates(phi, win[tri])
    size = np.bincount(t, minlength=T)  # candidates, by simplex
    start = np.cumsum(size) - size
    # an entry's vertex values, (V, entries): phi[at[entries] + vert]
    at, vert = k * (V * T) + t, np.arange(0, V * T, T)[:, None]
    phi = phi.ravel()
    # every pair of candidate entries a < c of one simplex: targets i, j
    entry = np.arange(t.size)
    a, c = _ranges(entry + 1, start[t] + size[t] - entry - 1)
    psi = phi[at[a] + vert] - phi[at[c] + vert]
    npos = np.count_nonzero(psi > 0.0, axis=0)
    cross = (npos > 0) & (npos < V)
    a, c, psi, npos = a[cross], c[cross], psi[:, cross], npos[cross]
    tp, i, j = t[a], k[a], k[c]
    # each other candidate l of the pair's simplex: d = phi_i - phi_l
    pair, l = _ranges(start[tp], size[tp])
    keep = (l != a[pair]) & (l != c[pair])
    pair, l = pair[keep], l[keep]
    d = phi[at[a[pair]] + vert] - phi[at[l] + vert]
    phij = phi[at[c] + vert]
    if V == 2:
        # s* counts where no other candidate lies above phi_i
        s = psi[0] / (psi[0] - psi[1])
        above = (1.0 - s[pair]) * d[0] + s[pair] * d[1] < 0.0
        top = np.bincount(pair[above], minlength=a.size) == 0
        val = (m_T[tp] * top * ((1.0 - s) * phij[0] + s * phij[1])
               / np.abs(psi[0] - psi[1]))
    else:
        val = _chord_values(psi, npos, d, pair, phij, m_T[tp])
    H = np.bincount(i * N + j, val, N * N).reshape(N, N)
    H += H.T
    H[np.diag_indices(N)] = -H.sum(axis=1)
    return H


def _chord_values(psi, npos, d, pair, phij, m_T):
    """`soup_jacobian`'s values on triangles, from its pairs' vertex
    values."""
    # the chord runs from edge (o, o+1) to edge (o, o+2), o being the vertex
    # alone on its side of it; p and q are its ends, in barycentric
    # coordinates
    rows = np.arange(npos.size)
    o = np.where(npos == 1, psi.argmax(axis=0), psi.argmin(axis=0))
    po, pa, pc = (psi[(o + n) % 3, rows] for n in range(3))
    ta, tc = po / (po - pa), po / (po - pc)
    p, q = np.zeros((3, rows.size)), np.zeros((3, rows.size))
    p[o, rows], p[(o + 1) % 3, rows] = 1.0 - ta, ta
    q[o, rows], q[(o + 2) % 3, rows] = 1.0 - tc, tc
    # clip it to where phi_i is largest: each other candidate l keeps the
    # s in [0, 1] where (1 - s) d(p) + s d(q) >= 0
    dp, dq = np.sum(d * p[:, pair], axis=0), np.sum(d * q[:, pair], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = dp / (dp - dq)
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    np.maximum.at(lo, pair, np.where(dp < 0.0, np.where(dq >= 0.0, root,
                                                        1.0), 0.0))
    np.minimum.at(hi, pair, np.where(dq < 0.0, np.where(dp >= 0.0, root,
                                                        0.0), 1.0))
    # |q - p| / |grad psi| in the chart (lambda_(o+1), lambda_(o+2)) is
    # |psi_o| / ((psi_o - psi_(o+1)) (psi_o - psi_(o+2))); times the clipped
    # length and phi_j at its midpoint
    fp, fq = np.sum(phij * p, axis=0), np.sum(phij * q, axis=0)
    mid = 0.5 * (lo + hi)
    return (2.0 * m_T * np.abs(po) / ((po - pa) * (po - pc))
            * np.maximum(hi - lo, 0.0) * (fp + mid * (fq - fp)))
