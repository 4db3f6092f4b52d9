"""Min-envelope kernels of the design solver.

A refractor is the min-envelope rho(x) = min_i h_i(x) of uniformly
refracting surfaces, h_i(x) = b_i / denom_i(x) with denom = 1 - x.p2(m_i)
in Case I and x.p2(m_i) - 1 in Case II.  ``heights`` is the one place that
formula is evaluated; ``tally`` and ``win_thresholds``, where the solver
spends nearly all of its time, score every node against every target
through it.  Everything is vectorized numpy and deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["heights", "tally", "win_thresholds", "active_backend", "TIE_RTOL"]

TIE_RTOL = 1e-12  # surfaces within this relative height of the minimum tie


def active_backend() -> str:
    # recorded in the benchmark's environment block
    return "numpy"


def _denominators(dots, case2: bool):
    return (dots - 1.0) if case2 else (1.0 - dots)


def heights(dots, b, case2: bool = False):
    """h = b / denom for node/target dots, +inf where denom <= 0 (the
    surface does not reach that node)."""
    denom = _denominators(dots, case2)
    reach = denom > 0.0
    # in place: every (J, N) temporary is paged in afresh on each call
    h = np.divide(b, denom, out=denom, where=reach)
    h[~reach] = np.inf
    return h


def tally(dots, b, w, case2: bool = False):
    """Score nodes against targets and tally the refractor measure.

    dots: (J, N) array of x_j . p2(m_i); b: (N,) radii; w: (J,) node weights.
    Returns (masses, winner, ntie, hmin) where winner is the argmin target of
    each node (-1 if no target is feasible), ntie the number of targets tied
    within TIE_RTOL relative, and masses the weights split equally over ties.
    """
    H = heights(np.asarray(dots, dtype=float), b, case2)
    hmin = H.min(axis=1)
    winner = np.argmin(H, axis=1).astype(np.int64)
    feasible = np.isfinite(hmin)
    winner[~feasible] = -1
    tie = H <= hmin[:, None] * (1.0 + TIE_RTOL)
    tie[~feasible] = False
    ntie = tie.sum(axis=1).astype(np.int64)
    share = np.where(ntie > 0, w / np.maximum(ntie, 1), 0.0)
    masses = (share[:, None] * tie).sum(axis=0)
    return masses, winner, ntie, hmin


def win_thresholds(dots, b, i: int, case2: bool = False):
    """Per-node radius thresholds for target i at fixed other radii.

    Node j belongs to target i's cell iff b_i <= s_j with s_j the returned
    threshold (min over other targets of h, times i's denominator); -inf
    marks nodes i can never win, +inf nodes only i can serve.
    """
    dots = np.asarray(dots, dtype=float)
    H = heights(dots, b, case2)
    H[:, i] = np.inf
    den_i = _denominators(dots[:, i], case2)
    return np.where(den_i > 0.0, H.min(axis=1) * den_i, -np.inf)
