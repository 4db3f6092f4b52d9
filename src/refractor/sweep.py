"""The monotone radius sweep: the fallback of designs whose Newton start
fails.

Every surface except the first starts inactive, above the anchor's at every
node; then each sweep shrinks the radius of each under-filled target, which
can only grow its cell and shrink the others'.  Each update reads target
i's thresholds at all J nodes (``kernels.win_thresholds``), picks the new
radius off them (`_fill_radius`) and folds the new heights into the state
(``kernels.lower``).  Radii only shrink, so the ``kernels.Top2`` state
stays exact.  `solver.solve_discrete` imports this module only when it runs
the sweep, and `solver._repair` only to repair an empty cell with
`_fill_radius`.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import InfeasibleTarget, NonConvergence
from .solver import Refractor, _newton


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
    half_width = 0.5 * delta_c
    w_mean = w.mean()
    # radii only shrink from here on, which keeps this state exact
    with np.errstate(over="ignore"):
        top = kernels.Top2.of(denom, b)
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
            radii = _newton(denom, src, g, b, top, masses, delta, info)[0]
            if radii is not None:
                return Refractor(pair, tgt, radii, info=info)
        moved = False
        for i in range(1, N):
            if masses[i] >= g[i] - delta_c:
                continue
            info.updates += 1
            s = kernels.win_thresholds(denom, top, i)
            new_b = _fill_radius(s, w, b[i], g[i], half_width, i, w_mean)
            if new_b < b[i]:
                b[i] = new_b
                kernels.lower(top, kernels.heights(denom[:, i], new_b), i)
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
