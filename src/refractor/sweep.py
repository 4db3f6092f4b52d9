"""The monotone radius sweep: the fallback of designs whose Newton start
fails.

Every surface except the first starts inactive, above the anchor's at every
node; then each sweep shrinks the radius of each under-filled target, which
can only grow its cell and shrink the others'.  Radii only shrink, so the
``kernels.Top2`` state stays exact.  `solver.solve_discrete` imports this
module only when it runs the sweep, and `solver._newton_start` only to
repair an empty cell with `_fill_radius`.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import InfeasibleTarget, NonConvergence
from .solver import Refractor, _newton

BAND_RANK = 3      # a band's floor: the threshold ranked 3x the cell's nodes
BAND_SHARE = 0.25  # the largest share of the nodes a band is kept for


def _fill_radius(s: np.ndarray, w: np.ndarray, b_i: float, g_i: float,
                 half_band: float, i: int, w_mean: float,
                 floor: float = -np.inf) -> float | None:
    """Target i's new radius, read off its node thresholds s and weights w:
    node j is in the cell iff b_i <= s_j, so with s sorted downward the cell
    holds fill[k] for b_i in (s[k+1], s[k]].  At the first k with fill[k] >=
    g_i - half_band, b_i goes mid-gap, where no node ties, or, if node k
    jumps past g_i + half_band, just above s[k], leaving the cell
    under-filled: overfilling cannot be undone.  b_i never grows; the
    solve's state is exact only while radii shrink.

    Only the top of the profile is sorted: one partition cuts it at the
    m-th largest threshold, m being the nodes already in the cell plus
    twice the deficit in mean node weights w_mean, and m grows 4-fold until
    k's group of equal thresholds ends above the cut.

    s and w may hold only a band of the nodes, in node order: a superset
    of those whose threshold reaches floor <= b_i.  The answer is then
    exact while the cut stays at or above floor and the answer needs no
    threshold past the band's last; otherwise None (a miss) is returned.
    With floor = -inf they hold every node."""
    inside = s >= b_i
    deficit = g_i - half_band - float(w[inside].sum())
    m = np.count_nonzero(inside) + 2 + int(2.0 * max(deficit, 0.0) / w_mean)
    while True:
        # the cut takes every threshold equal to it: no group is split
        cut = np.partition(s, -m)[-m] if m < s.size else -np.inf
        if cut < floor:
            return None
        cand = np.flatnonzero(s >= cut)
        order = cand[np.argsort(s[cand])[::-1]]
        top = s[order]
        fill = np.cumsum(w[order])
        k = int(np.searchsorted(fill, g_i - half_band))
        # done once k's group ends above the cut, so the gap below is known
        if cand.size == s.size or (k < cand.size and top[k] > top[-1]):
            break
        m *= 4
    # a band that ends before the cell fills, or before the threshold below
    # k's group, cannot see the nodes past its floor: a miss
    banded = floor > -np.inf
    # the nodes i cannot reach (-inf) sort last, so they never count for k
    if k == s.size or top[k] == -np.inf:
        if banded:
            return None
        raise InfeasibleTarget(
            f"target {i} cannot absorb its mass: the nodes it reaches carry "
            f"{np.sum(w[s > -np.inf]):.6g} < {g_i - half_band:.6g}")
    # equal thresholds join together: the cell at s_k holds all s >= s_k
    k = int(np.count_nonzero(top >= top[k])) - 1
    if fill[k] > g_i + half_band:
        return min(b_i, float(top[k]) * (1.0 + 1e-15))
    if banded and k + 1 == top.size:
        return None
    below = top[k + 1] if k + 1 < top.size else -np.inf
    return min(b_i, 0.5 * (float(top[k]) + max(float(below), 0.0)))


def _band(s: np.ndarray, second: np.ndarray, den_i: np.ndarray,
          b_i: float, w: np.ndarray):
    """Target i's band after a full pass: (floor, rows, w[rows],
    den_i[rows]), or None where it would hold over BAND_SHARE of the
    nodes, which the full pass reads about as fast.

    The floor is the threshold ranked BAND_RANK times the cell's node count
    at b_i, so b_i > floor > 0; rows are the nodes with second * den_i >=
    floor (a relative 1e-12 below it, for the rounding of b_i / den_i), so
    den_i > 0 on every row.  Heights only fall, so second * den_i, a bound
    above node j's threshold, only falls: rows keep every node whose
    threshold reaches the floor and every node ``kernels.lower`` changes at
    a radius >= floor.  A cut below it misses; the full pass rebuilds it."""
    rank = BAND_RANK * (np.count_nonzero(s >= b_i) + 1)
    if rank > BAND_SHARE * s.size:
        return None
    floor = float(np.partition(s, -rank)[-rank])
    if floor == -np.inf:  # fewer than rank nodes are reached
        return None
    c = np.multiply(second, den_i, where=den_i > 0.0,
                    out=np.full(s.size, -np.inf))
    rows = np.flatnonzero(c >= floor * (1.0 - 1e-12))
    if rows.size > BAND_SHARE * s.size:
        return None
    return floor, rows, w[rows], den_i[rows]


def run(pair, src, tgt, denom, b1: float, tol: float, max_sweeps: int,
        info) -> Refractor:
    """The sweep from its own start on the checked problem and its
    column-major denominators: a Refractor carrying info, or
    NonConvergence.  It tries `solver._newton` once, the first time every
    cell holds mass; if that fails it goes on where it paused."""
    g, w, N = tgt.masses, src.weights, tgt.count
    delta = tol * src.total
    # every other surface starts above the anchor's at every node, inactive
    b = np.empty(N)
    b[0] = b1
    for i in range(1, N):
        feas = denom[:, i] > 0.0
        if not np.any(feas):
            raise InfeasibleTarget(f"target {i} is feasible for no node")
        ratio = float(np.max(denom[feas, i] / denom[feas, 0]))
        b[i] = b1 * ratio * (1.0 + 1e-6)

    delta_c = 0.9 * delta / max(1, N - 1)
    half_band = 0.5 * delta_c
    w_mean = w.mean()
    # radii only shrink from here on, which keeps this state exact
    with np.errstate(over="ignore"):
        top = kernels.Top2.of(denom, b)
    bands = [None] * N  # per target: `_band` of its last full pass
    newton = True  # until tried once

    for sweep in range(max_sweeps):
        masses = kernels.masses(top, denom, b, w)
        resid = float(np.max(np.abs(masses - g)))
        info.sweeps = sweep
        info.residual = resid / src.total
        info.residual_history.append(resid / src.total)
        if resid <= delta:
            info.masses = masses
            return Refractor(pair, tgt, b, info=info)
        if newton and np.all(masses > 0.0):
            newton = False
            radii = _newton(denom, src, g, b, top, masses, delta, info)
            if radii is not None:
                return Refractor(pair, tgt, radii, info=info)
        moved = False
        for i in range(1, N):
            if masses[i] >= g[i] - delta_c:
                continue
            info.updates += 1
            # the band's pass, or the full pass on a miss, which rebuilds it
            new_b = part = None
            if bands[i] is not None:
                floor, rows, w_b, den_b = bands[i]
                part = top.take(rows)
                # win_thresholds on the part; den_b > 0 on every band row
                s = np.where(part.win == i, part.second, part.first) * den_b
                new_b = _fill_radius(s, w_b, b[i], g[i], half_band, i,
                                     w_mean, floor)
            if new_b is None:
                info.band_misses += 1
                s = kernels.win_thresholds(denom, top, i)
                new_b = _fill_radius(s, w, b[i], g[i], half_band, i, w_mean)
                bands[i] = _band(s, top.second, denom[:, i], new_b, w)
                part = None
            if new_b < b[i]:
                b[i] = new_b
                if part is None:
                    kernels.lower(top, kernels.heights(denom[:, i], new_b), i)
                else:
                    # new_b > floor: the band holds every node lower changes
                    kernels.lower(part, new_b / den_b, i)
                    top.put(rows, part)
                moved = True
        if not moved:
            # no radius moved, so every later sweep would repeat this one
            stop, sweeps = "stagnated", sweep + 1
            why = f"the sweep stagnated after {sweeps} sweeps"
            break
    else:
        stop, sweeps = "budget", max_sweeps
        why = f"after {max_sweeps} sweeps"
    deficit = (g - masses) / src.total
    under, over = int(np.argmax(deficit)), int(np.argmin(deficit))
    raise NonConvergence(
        f"residual {info.residual:.3e} > tol {tol:.3e}: {why}; most "
        f"under-filled: target {under} (deficit {deficit[under]:+.3e} of the "
        f"total), most over-filled: target {over} ({deficit[over]:+.3e}) "
        "(tolerance is below the quadrature resolution?)",
        stop=stop, sweeps=sweeps, deficit=deficit)
