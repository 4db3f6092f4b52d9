"""Semi-discrete refractor design.

Given a quadrature discretization of the source energy f on a cap of the
wave-front sphere of medium I and target directions m_1..m_N in medium II
with prescribed masses g_1..g_N, find radii b_1..b_N so that the min-envelope

    rho(x) = min_i h_{b_i, m_i}(x),    h = b / (1 - x.p2(m))   (Case I)
                                       h = b / (x.p2(m) - 1)   (Case II)

pushes the source energy onto the targets: M_i = g_i up to the requested
residual.  b_1 pins the scale (solutions are unique up to dilations).  In
3D, damped Newton steps on the simplex-soup Jacobian design from a closed-form
start, checked for empty cells.  Where that start fails, and in 2D, the
monotone sweep designs: start with every surface except the first inactive,
then repeatedly shrink the radius of each under-filled target, which can
only grow its cell and shrink the others'.  In 3D the sweep pauses once
every cell holds mass for one more Newton attempt, and goes on where it
paused if that fails too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InfeasibleTarget, NonConvergence, ValidationError
from .geometry import (cap_triangulation, fibonacci_cap, node_area_weights,
                       rotate_z_to, short_matmul, write_obj)
from .norms import MediumPair, Norm, Regime, norm_eval, norm_gradient

__all__ = [
    "SourceDensity", "TargetMeasure", "TargetDensity", "Refractor",
    "RefractorMeasureReport", "SolveInfo", "refractor_map",
    "refractor_measure", "solve_discrete", "approximate_measure", "dilate",
    "rho_values", "refractor_to_obj",
    "lipschitz_bound", "max_difference_quotient", "check_admissibility",
]

_DENSITIES = {
    "uniform": lambda dirs, axis: np.ones(dirs.shape[0]),
    "cosine": lambda dirs, axis: short_matmul(dirs, axis),
}


@dataclass(frozen=True)
class SourceDensity:
    """Quadrature of f dx on a cap of Sigma1: nodes x_j (N1(x_j) = 1),
    positive weights w_j, plus the triangulation of the Euclidean directions
    the nodes were built from (for meshes, edge difference quotients and
    the simplex soup of the 3D Newton steps) and the soup's masses."""

    nodes: np.ndarray      # (J, n) on Sigma1
    weights: np.ndarray    # (J,) positive
    tris: np.ndarray       # node triangles (segments when n = 2)
    total: float
    f: np.ndarray          # (J,) the density at the nodes
    tri_masses: np.ndarray  # per triangle: its area times the mean of f at
    #                         its vertices (per segment: its length times it)

    @classmethod
    def from_cap(cls, norm1: Norm, axis, angle: float, node_count: int,
                 density: str = "uniform") -> "SourceDensity":
        """Ring-lattice quadrature of the cap {y.axis >= cos(angle)}
        (`fibonacci_cap`, triangulated by `cap_triangulation`), mapped onto
        Sigma1 by x = y / N1(y); node weights are local mapped triangle
        areas times the density, and the triangle masses come from the same
        areas."""
        if density not in _DENSITIES:
            raise ValidationError(f"unknown density {density!r}")
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        dirs = fibonacci_cap(axis, angle, node_count)
        tris = cap_triangulation(angle, node_count, axis.shape[0])
        f = _DENSITIES[density](dirs, axis)
        # x = y / N1(y), written over the directions
        nodes = np.divide(dirs, norm_eval(norm1, dirs)[:, None], out=dirs)
        area, size = node_area_weights(nodes, tris)
        w = f * area
        if np.any(w <= 0.0):
            raise ValidationError("source weights must be positive")
        # a doubled area times the sum of three vertex values, over 6 (a
        # length times the sum of two, over 2)
        mass = f[tris[:, 0]]
        for v in tris.T[1:]:
            mass += f[v]
        mass *= size
        mass /= 6.0 if tris.shape[1] == 3 else 2.0
        return cls(nodes=nodes, weights=w, tris=tris,
                   total=float(np.sum(w)), f=f, tri_masses=mass)

    @property
    def count(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class TargetMeasure:
    """Discrete target: distinct directions m_i on Sigma2 with positive
    masses g_i."""

    directions: np.ndarray  # (N, n) on Sigma2
    masses: np.ndarray      # (N,) positive

    @classmethod
    def of(cls, norm2: Norm, directions, masses) -> "TargetMeasure":
        dirs = np.asarray(directions, dtype=float)
        size = norm_eval(norm2, dirs)
        zero = np.flatnonzero(size == 0.0)
        if zero.size:
            raise ValidationError(f"target {int(zero[0])} direction must be "
                                  "nonzero")
        dirs = dirs / size[:, None]
        masses = np.asarray(masses, dtype=float)
        if np.any(masses <= 0.0):
            raise ValidationError("target masses must be positive")
        if dirs.shape[0] != masses.shape[0]:
            raise ValidationError("directions/masses length mismatch")
        # no two directions within 1e-12, in O(N) memory: on a unit axis v,
        # |(m_a - m_b).v| <= |m_a - m_b|, so sorted by projection only
        # neighbours closer than 1e-12 (plus rounding) can be that close
        v = np.sqrt(np.arange(2.0, dirs.shape[1] + 2.0))
        proj = dirs @ (v / np.linalg.norm(v))
        order = np.argsort(proj)
        proj, ranked = proj[order], dirs[order]
        reach = 1e-12 + 1e-14 * float(np.abs(dirs).max(initial=0.0))
        for k in range(1, proj.size):
            pairs = np.flatnonzero(proj[k:] - proj[:-k] < reach)
            if not pairs.size:
                break
            dist = np.linalg.norm(ranked[pairs + k] - ranked[pairs], axis=-1)
            if float(dist.min()) < 1e-12:
                raise ValidationError("target directions must be distinct")
        return cls(directions=dirs, masses=masses)

    @property
    def count(self) -> int:
        return self.directions.shape[0]


@dataclass(frozen=True)
class TargetDensity:
    """Continuous target density on a cap of Sigma2, for discretization."""

    norm2: Norm
    axis: np.ndarray
    angle: float
    total_mass: float
    density: str = "uniform"   # a name in _DENSITIES

    def values(self, dirs: np.ndarray) -> np.ndarray:
        axis = np.asarray(self.axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        return _DENSITIES[self.density](dirs, axis)


@dataclass
class SolveInfo:
    sweeps: int = 0
    newton_steps: int = 0  # accepted steps of the 3D Newton solve
    newton_trials: int = 0  # its trial steps, accepted or rejected, in every
    #                         Newton run: each rebuilds the Top2 state
    residual: float = np.inf
    residual_history: list = field(default_factory=list)
    updates: int = 0      # target-radius updates (and start repairs)
    band_misses: int = 0  # updates that took the full pass over all J nodes
    masses: np.ndarray | None = None  # the cell masses at the radii


class Refractor:
    """Target directions plus radii defining rho(x) = min_i h_{b_i, m_i}(x)."""

    __slots__ = ("pair", "target", "radii", "info")

    def __init__(self, pair: MediumPair, target: TargetMeasure, radii,
                 info: SolveInfo | None = None):
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (target.count,):
            raise ValidationError("one radius per target required")
        if not np.all(np.isfinite(radii) & (radii > 0.0)):
            raise ValidationError("radii must be finite and positive")
        self.pair = pair
        self.target = target
        self.radii = radii
        self.info = info

    def denom(self, nodes: np.ndarray) -> np.ndarray:
        return self.pair.denominators(nodes, self.target.directions)


@dataclass(frozen=True)
class RefractorMeasureReport:
    """Per-target masses of a refractor, max relative residual against the
    target masses, and the node-to-target assignment: the (J, N) plan from
    kernels.tally (tied nodes split their weight equally), whose column sums
    are the masses, plus the argmin indices and tie counts."""

    masses: np.ndarray
    residual: float
    plan: np.ndarray         # (J, N) node weight sent to each target
    assignment: np.ndarray
    tie_counts: np.ndarray
    min_radii: np.ndarray    # rho(x_j) for each node


def rho_values(r: Refractor, nodes) -> np.ndarray:
    """rho(x) = min_i h_{b_i, m_i}(x) for nodes on Sigma1."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    return kernels.heights(r.denom(nodes), r.radii).min(axis=1)


def refractor_map(r: Refractor, x):
    """Supporting target(s) of the node x: the argmin index, or the sorted
    tuple of indices tied within kernels.TIE_RTOL relative."""
    x = np.asarray(x, dtype=float)
    x = x / norm_eval(r.pair.n1, x)
    plan, winner = kernels.tally(r.denom(x[None, :]), r.radii, np.ones(1))[:2]
    if winner[0] < 0:
        raise InfeasibleTarget("node is infeasible for every target")
    ties = np.flatnonzero(plan[0])
    if ties.size == 1:
        return int(ties[0])
    return tuple(int(i) for i in ties)


def refractor_measure(r: Refractor, src: SourceDensity) -> RefractorMeasureReport:
    """Push the source quadrature through the refractor map.

    M_i collects the weights of the nodes assigned to target i; ties split
    equally.  The residual is max_i |M_i - g_i| / total.
    """
    plan, winner, ntie, hmin = kernels.tally(r.denom(src.nodes), r.radii,
                                             src.weights)
    if np.any(winner < 0):
        bad = int(np.flatnonzero(winner < 0)[0])
        raise InfeasibleTarget(f"node {bad} is infeasible for every target")
    masses = plan.sum(axis=0)
    resid = float(np.max(np.abs(masses - r.target.masses))) / src.total
    return RefractorMeasureReport(masses=masses, residual=resid, plan=plan,
                                  assignment=winner, tie_counts=ntie,
                                  min_radii=hmin)


def check_admissibility(pair: MediumPair, src: SourceDensity,
                        tgt: TargetMeasure) -> None:
    """Validate nu.m >= 0 (`MediumPair.margins`) over every (node, target)
    pair, warning below 1e-6.  Only Case I can fail it, as m.p1(x) >= 1:
    Case II's margin is at least 1 - 1/kappa.  nu.x > 0, the sign of the
    denominators, is checked by the solve."""
    margins = pair.margins(src.nodes, tgt.directions)
    low = float(margins.min())
    if low < -1e-12:
        j, i = np.unravel_index(np.argmin(margins), margins.shape)
        raise InfeasibleTarget(
            f"admissibility m.p1(x) >= 1 fails: node {j}, target {i}, "
            f"value {1.0 + low:.12g}")
    if low < 1e-6:
        warnings.warn("admissibility is within 1e-6 of grazing; the "
                      "discrete problem may be ill-conditioned",
                      stacklevel=2)


def _check_balance(src: SourceDensity, tgt: TargetMeasure) -> None:
    if abs(float(np.sum(tgt.masses)) - src.total) > 1e-12 * src.total:
        raise ValidationError(
            f"mass balance violated: sum g = {np.sum(tgt.masses)!r}, "
            f"source total = {src.total!r}")


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
    exact while the cut stays at or above floor; below it, None (a miss)
    is returned.  With floor = -inf they hold every node."""
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
    # the nodes i cannot reach (-inf) sort last, so they never count for k
    if k == s.size or top[k] == -np.inf:
        raise InfeasibleTarget(
            f"target {i} cannot absorb its mass: the nodes it reaches carry "
            f"{np.sum(w[s > -np.inf]):.6g} < {g_i - half_band:.6g}")
    # equal thresholds join together: the cell at s_k holds all s >= s_k
    k = int(np.count_nonzero(top >= top[k])) - 1
    if fill[k] > g_i + half_band:
        return min(b_i, float(top[k]) * (1.0 + 1e-15))
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


NEWTON_STEPS = 30           # a Newton run's budget of steps
NEWTON_MIN_TAU = 2.0 ** -12  # its smallest damping factor


def _newton(denom, src: SourceDensity, g, b, top, masses, delta,
            info: SolveInfo):
    """Damped Newton steps on the node residual from radii b, their state
    top and their masses, every one positive: (radii, masses, residuals)
    once max|M - g| <= delta, or None.  The arrays given are left as they
    are; the residuals are those of the accepted steps.  Each trial step
    adds one to info.newton_trials.

    The variables are eta = log(b / b_1), eta_1 = 0 pinned, and the radii
    b_1 exp(eta), so radii[0] is b_1 exactly.  Each step solves H d = g - M
    over targets 2..N, H being `kernels.soup_jacobian`, and halves tau from
    1 until, at eta + tau d, every cell holds at least eps0, half the least
    of the start's masses and of g, and the node residual falls to
    (1 - tau / 2) times its last value (Kitagawa, Merigot and Thibert's
    damping), so it falls strictly.  A singular system, tau <
    NEWTON_MIN_TAU or NEWTON_STEPS steps without convergence give None.
    """
    b1 = b[0]
    eta = np.log(b / b1)
    err = float(np.max(np.abs(masses - g)))
    eps0 = 0.5 * min(float(masses.min()), float(g.min()))
    residuals = []
    for _ in range(NEWTON_STEPS):
        if err <= delta:
            return b, masses, residuals
        H = kernels.soup_jacobian(denom, b, top.win, src.tris,
                                  src.tri_masses)
        try:
            d = np.linalg.solve(H[1:, 1:], (g - masses)[1:])
        except np.linalg.LinAlgError:
            return None
        tau = 1.0
        while tau >= NEWTON_MIN_TAU:
            # a non-finite step fails the test below and halves tau
            with np.errstate(over="ignore", invalid="ignore"):
                eta_t = np.r_[0.0, eta[1:] + tau * d]
                b_t = b1 * np.exp(eta_t)
                info.newton_trials += 1
                top_t = kernels.Top2.of(denom, b_t)
                m_t = kernels.masses(top_t, denom, b_t, src.weights)
            err_t = float(np.max(np.abs(m_t - g)))
            if m_t.min() >= eps0 and err_t <= (1.0 - 0.5 * tau) * err:
                break
            tau *= 0.5
        else:
            return None
        eta, b, top, masses, err = eta_t, b_t, top_t, m_t, err_t
        residuals.append(err / src.total)
    return (b, masses, residuals) if err <= delta else None


def _start(pair: MediumPair, src: SourceDensity, tgt: TargetMeasure,
           b1: float) -> np.ndarray:
    """The closed-form radii that the 3D Newton solve starts from, with
    b[0] = b1 exactly.

    With x^ the Euclidean direction of a node and q^_k that of p2(m_k),
    -log denom_k(x) is const + 2 s beta0 x^.q^_k to second order in the
    angle between them, beta0 = kappa / (2 |1 - kappa|) and s the pair's
    sign.  So log b_k = -2 beta0 q^_k.v makes the cells the spherical
    Voronoi cells of the q^_k over the points c - s (R / theta)(x^ - a):
    a is the cap's axis and theta its half-angle, c the normalised mean of
    the q^_k and R = 1.5 max_k |q^_k - c|, so the cap's image covers every
    target.  v is (theta / R) c + s a."""
    q = norm_gradient(pair.n2, tgt.directions)
    q /= np.linalg.norm(q, axis=1)[:, None]
    x = src.nodes / np.linalg.norm(src.nodes, axis=1)[:, None]
    a = x.sum(axis=0)
    a /= np.linalg.norm(a)
    theta = float(np.arccos(np.clip(short_matmul(x, a).min(), -1.0, 1.0)))
    c = q.sum(axis=0)
    c /= np.linalg.norm(c)
    R = 1.5 * float(np.linalg.norm(q - c, axis=1).max())
    v = (theta / R if R > 0.0 else 0.0) * c + pair.sign * a
    beta0 = pair.kappa / (2.0 * abs(1.0 - pair.kappa))
    with np.errstate(over="ignore"):
        return b1 * np.exp(-2.0 * beta0 * short_matmul(q - q[0], v))


def _newton_start(pair: MediumPair, src: SourceDensity,
                  tgt: TargetMeasure, denom, b1: float, delta: float,
                  info: SolveInfo):
    """Newton from `_start`'s radii: a Refractor that carries info, or None
    where the start leaves a cell empty or Newton fails (info then counts
    only the trial steps).

    A cell k >= 2 the start leaves empty is repaired once, by the sweep's
    update (`_fill_radius` on `kernels.win_thresholds`) aimed at half its
    mass; radii only shrink there, so the state stays exact.  An empty
    anchor cell, an empty cell after the repair or a target that cannot
    absorb that mass give None."""
    g, w = tgt.masses, src.weights
    b = _start(pair, src, tgt, b1)
    if not np.all(np.isfinite(b) & (b > 0.0)):
        return None
    top = kernels.Top2.of(denom, b)
    masses = kernels.masses(top, denom, b, w)
    if masses[0] <= 0.0:
        return None
    empty = np.flatnonzero(masses <= 0.0)
    for k in empty:
        s = kernels.win_thresholds(denom, top, k)
        try:
            b[k] = _fill_radius(s, w, b[k], 0.5 * g[k], 0.25 * g[k], k,
                                w.mean())
        except InfeasibleTarget:
            return None
        kernels.lower(top, kernels.heights(denom[:, k], b[k]), k)
    if empty.size:
        masses = kernels.masses(top, denom, b, w)
        if masses.min() <= 0.0:
            return None
    start = float(np.max(np.abs(masses - g))) / src.total
    done = _newton(denom, src, g, b, top, masses, delta, info)
    if done is None:
        return None
    radii, info.masses, residuals = done
    info.newton_steps = len(residuals)
    info.residual_history = [start] + residuals
    info.residual = info.residual_history[-1]
    info.updates = info.band_misses = empty.size
    return Refractor(pair, tgt, radii, info=info)


def solve_discrete(pair: MediumPair, src: SourceDensity, tgt: TargetMeasure,
                   b1: float, tol: float = 1e-3,
                   max_sweeps: int = 10_000) -> Refractor:
    """Design in either regime: unique radii (b_1 fixed) with residual
    <= tol * total.

    In 3D, damped Newton steps (`_newton`) start from a closed-form start,
    checked for empty cells (`_newton_start`).  If that fails, the sweep
    (`_sweep`) runs from its own start, pauses the first time every cell
    holds mass and tries Newton once more; if that fails too, the sweep
    resumes from where it paused, so its stops, messages and errors are the
    sweep's own.  2D problems are designed by the sweep alone.
    """
    return _sweep(pair, src, tgt, b1, tol, max_sweeps, newton=pair.dim == 3)


def _sweep(pair: MediumPair, src: SourceDensity, tgt: TargetMeasure,
           b1: float, tol: float = 1e-3, max_sweeps: int = 10_000,
           init_factor: float = 1.0, newton: bool = False) -> Refractor:
    """The monotone radius sweep of `solve_discrete`.  With newton it first
    tries Newton from the closed-form start, and then, from the sweep's
    own start, tries the Newton finish once, the first time every cell
    holds mass.

    init_factor >= 1 scales the inactive-surface initialization; any value
    keeps the construction admissible, so re-solving with a different factor
    probes uniqueness at the quadrature scale.
    """
    if not (np.isfinite(b1) and b1 > 0.0):
        raise ValidationError(f"b1 must be finite and positive, got {b1!r}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be finite and positive, got {tol!r}")
    if max_sweeps < 1:
        raise ValidationError(f"max_sweeps must be >= 1, got {max_sweeps!r}")
    if not (np.isfinite(init_factor) and init_factor >= 1.0):
        raise ValidationError("init_factor must be finite and >= 1 to start "
                              f"admissibly, got {init_factor!r}")
    _check_balance(src, tgt)
    check_admissibility(pair, src, tgt)

    g = tgt.masses
    w = src.weights
    N = tgt.count
    # column-major: the sweep reads one target's column at a time
    denom = np.asfortranarray(pair.denominators(src.nodes, tgt.directions))

    bad = np.flatnonzero(denom[:, 0] <= 0.0)
    if bad.size:
        unreached = int(np.sum(np.all(denom[bad] <= 0.0, axis=1)))
        raise InfeasibleTarget(
            f"{bad.size} nodes (first: {int(bad[0])}) are outside the anchor "
            f"target's domain, {unreached} of them outside every target's; "
            "the construction needs the anchor m_1 to reach every node")
    # the anchor's surface is the envelope at the sweep's start; an extreme
    # b1 overflows b1 / denom, which this check names
    with np.errstate(over="ignore"):
        first = b1 / denom[:, 0]
    if not np.all((first >= np.finfo(float).tiny) & (first < np.inf)):
        raise ValidationError(f"b1 = {b1!r} puts start heights b1 / denom "
                              "outside the normal float range")
    delta = tol * src.total
    info = SolveInfo()
    if newton:
        done = _newton_start(pair, src, tgt, denom, b1, delta, info)
        if done is not None:
            return done

    # every other surface starts above the anchor's at every node, inactive
    b = np.empty(N)
    b[0] = b1
    for i in range(1, N):
        feas = denom[:, i] > 0.0
        if not np.any(feas):
            raise InfeasibleTarget(f"target {i} is feasible for no node")
        ratio = float(np.max(denom[feas, i] / denom[feas, 0]))
        b[i] = b1 * ratio * (1.0 + 1e-6) * init_factor

    delta_c = 0.9 * delta / max(1, N - 1)
    half_band = 0.5 * delta_c
    w_mean = w.mean()
    # radii only shrink from here on, which keeps this state exact
    with np.errstate(over="ignore"):
        top = kernels.Top2.of(denom, b)
    bands = [None] * N  # per target: `_band` of its last full pass

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
            newton = False  # tried once
            done = _newton(denom, src, g, b, top, masses, delta, info)
            if done is not None:
                radii, info.masses, residuals = done
                info.newton_steps = len(residuals)
                info.residual = residuals[-1]
                info.residual_history += residuals
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


# perfbench/spans.py looks this name up on the module
solve_discrete_caseII = solve_discrete


def approximate_measure(density_spec: TargetDensity,
                        count: int) -> TargetMeasure:
    """Discretize a continuous cap density into `count` weighted directions.

    The cap chart (z = cos angle-from-axis, azimuth phi) is stratified into
    equal-area cells (rings of equal z-height, split into sectors); each cell
    contributes its local density integral as mass, placed at its density
    centroid mapped onto Sigma2.  Masses are rescaled to total_mass exactly.
    """
    if count < 1:
        raise ValidationError("count must be positive")
    spec = density_spec
    subgrid = 8  # samples per cell side
    axis = np.asarray(spec.axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    dim = axis.shape[0]
    R = rotate_z_to(axis)

    if dim == 2:
        edges = np.linspace(-spec.angle, spec.angle, count + 1)
        dirs_of = lambda th: np.stack([np.sin(th), np.cos(th)], axis=-1) @ R.T
        pts, ms = [], []
        for k in range(count):
            th = np.linspace(edges[k], edges[k + 1], subgrid * subgrid + 1)
            th = 0.5 * (th[:-1] + th[1:])
            d = dirs_of(th)
            f = spec.values(d)
            ms.append(float(np.sum(f)) * (edges[k + 1] - edges[k]) / th.size)
            y = (f[:, None] * d).sum(axis=0)
            pts.append(y / np.linalg.norm(y))
    else:
        z_lo = np.cos(spec.angle)
        if count == 1:
            rings, sectors = 1, [1]
        else:
            rings = max(1, int(round(np.sqrt(count / 4.0))))
            base = count // rings
            sectors = [base + (1 if k < count % rings else 0)
                       for k in range(rings)]
        z_edges = np.linspace(z_lo, 1.0, rings + 1)
        pts, ms = [], []
        for k in range(rings):
            nk = sectors[k]
            phi_edges = np.linspace(0.0, 2.0 * np.pi, nk + 1)
            zg = np.linspace(z_edges[k], z_edges[k + 1], subgrid + 1)
            zg = 0.5 * (zg[:-1] + zg[1:])
            for sct in range(nk):
                pg = np.linspace(phi_edges[sct], phi_edges[sct + 1], subgrid + 1)
                pg = 0.5 * (pg[:-1] + pg[1:])
                Z, P = np.meshgrid(zg, pg, indexing="ij")
                rr = np.sqrt(np.maximum(0.0, 1.0 - Z * Z))
                d = np.stack([rr * np.cos(P), rr * np.sin(P), Z], axis=-1)
                d = d.reshape(-1, 3) @ R.T
                f = spec.values(d)
                cell_area = (z_edges[k + 1] - z_edges[k]) * \
                    (phi_edges[sct + 1] - phi_edges[sct])
                ms.append(float(np.sum(f)) * cell_area / f.size)
                y = (f[:, None] * d).sum(axis=0)
                pts.append(y / np.linalg.norm(y))
    ms = np.asarray(ms)
    ms = ms * (spec.total_mass / float(np.sum(ms)))
    return TargetMeasure.of(spec.norm2, np.asarray(pts), ms)


def dilate(r: Refractor, C: float) -> Refractor:
    """Scale every radius by C > 0; the refractor map is unchanged."""
    if C <= 0.0:
        raise ValidationError("dilation factor must be positive")
    return Refractor(r.pair, r.target, r.radii * C, info=r.info)


def lipschitz_bound(r: Refractor, src: SourceDensity) -> float:
    """(max rho) (max_i |p2(m_i)|) / (1 - kappa), the Case I Lipschitz bound."""
    if r.pair.regime is not Regime.CASE_I:
        raise ValidationError("the Lipschitz bound formula is Case I only")
    rho = rho_values(r, src.nodes)
    p2m = norm_gradient(r.pair.n2, r.target.directions)
    return float(np.max(rho)) * float(
        np.max(np.linalg.norm(p2m, axis=-1))) / (1.0 - r.pair.kappa)


def max_difference_quotient(r: Refractor, src: SourceDensity,
                            pairs: int = 200_000, seed: int = 0) -> float:
    """Max sampled |rho(x) - rho(x')| / |x - x'| over node pairs (all
    triangulation edges plus random pairs)."""
    rho = rho_values(r, src.nodes)
    nodes = src.nodes
    quot = 0.0
    if src.tris.size:
        if src.tris.shape[1] == 3:
            e = np.vstack([src.tris[:, [0, 1]], src.tris[:, [1, 2]],
                           src.tris[:, [0, 2]]])
        else:
            e = src.tris
        d = np.linalg.norm(nodes[e[:, 0]] - nodes[e[:, 1]], axis=-1)
        dv = np.abs(rho[e[:, 0]] - rho[e[:, 1]])
        quot = float(np.max(dv / np.maximum(d, 1e-300)))
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, src.count, size=pairs)
    jj = rng.integers(0, src.count, size=pairs)
    keep = ii != jj
    d = np.linalg.norm(nodes[ii[keep]] - nodes[jj[keep]], axis=-1)
    dv = np.abs(rho[ii[keep]] - rho[jj[keep]])
    return max(quot, float(np.max(dv / np.maximum(d, 1e-300))))


def refractor_to_obj(r: Refractor, src: SourceDensity, path) -> None:
    """Export the designed surface rho(x) x over the source triangulation."""
    rho = rho_values(r, src.nodes)
    write_obj(path, rho[:, None] * src.nodes, src.tris, name="refractor")
