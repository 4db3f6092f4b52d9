"""Semi-discrete refractor design.

Given a quadrature discretization of the source energy f on a cap of the
wave-front sphere of medium I and target directions m_1..m_N in medium II
with prescribed masses g_1..g_N, find radii b_1..b_N so that the min-envelope

    rho(x) = min_i h_{b_i, m_i}(x),    h = b / (1 - x.p2(m))   (Case I)
                                       h = b / (x.p2(m) - 1)   (Case II)

pushes the source energy onto the targets: M_i = g_i up to the requested
residual.  b_1 pins the scale (solutions are unique up to dilations).
One descent designs, in 2D and 3D, from a closed-form start or, where that
fails, from the anchor alone (every other surface out of reach, b = +inf):
fill rounds (`fill_cells`) fill every empty cell to its whole mass, a
dilation restores b_1, and damped Newton steps on the simplex-soup
Jacobian finish.

The records are named tuples, and `SolveInfo` and `Refractor` slotted
classes, so importing this module generates no code.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import InfeasibleTarget, NonConvergence, ValidationError
from .geometry import (cap_triangulation, fibonacci_cap, node_area_weights,
                       short_matmul, write_obj)
from .norms import MediumPair, Norm, norm_eval, norm_gradient

__all__ = [
    "SourceDensity", "TargetMeasure", "Refractor", "RefractorMeasureReport",
    "SolveInfo", "refractor_map", "refractor_measure", "solve_discrete",
    "rho_values", "refractor_to_obj", "check_admissibility",
]

_DENSITIES = {
    "uniform": lambda dirs, axis: np.ones(dirs.shape[0]),
    "cosine": lambda dirs, axis: short_matmul(dirs, axis),
}


class SourceDensity(NamedTuple):
    """Quadrature of f dx on a cap of Sigma1: nodes x_j (N1(x_j) = 1),
    positive weights w_j, plus the triangulation of the Euclidean directions
    the nodes were built from (for meshes, edge difference quotients and
    the simplex soup of the Newton steps) and the soup's masses."""

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


def _near_pairs(points, reach):
    """Index arrays (a, c) per neighbour offset, whose row pairs hold every
    pair of points closer than reach, in O(N) memory: on a unit axis v,
    |(p_a - p_c).v| <= |p_a - p_c|, so only neighbours by projection can."""
    v = np.sqrt(np.arange(2.0, points.shape[1] + 2.0))
    proj = points @ (v / np.linalg.norm(v))
    order = np.argsort(proj)
    proj = proj[order]
    for k in range(1, proj.size):
        pairs = np.flatnonzero(proj[k:] - proj[:-k] < reach)
        if not pairs.size:
            return
        yield order[pairs], order[pairs + k]


class TargetMeasure(NamedTuple):
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
        # no two directions within 1e-12, in O(N) memory
        reach = 1e-12 + 1e-14 * float(np.abs(dirs).max(initial=0.0))
        for a, c in _near_pairs(dirs, reach):
            if np.linalg.norm(dirs[c] - dirs[a], axis=-1).min() < 1e-12:
                raise ValidationError("target directions must be distinct")
        return cls(directions=dirs, masses=masses)

    @property
    def count(self) -> int:
        return self.directions.shape[0]


class SolveInfo:
    """A solve's counters, residuals and cell masses, filled in as it goes;
    fallback is None, or why the closed-form start gave up: "repair" (its
    fill stopped short), or `_newton`'s "singular", "damping" or
    "budget"."""

    __slots__ = ("sweeps", "newton_steps", "newton_trials", "residual",
                 "residual_history", "updates", "fallback", "masses",
                 "closest")

    def __init__(self):
        self.sweeps = 0       # fill rounds of the last start
        self.newton_steps = 0   # accepted steps of the Newton solve
        # its trial steps, accepted or rejected, in every Newton run: each
        # rebuilds the Top2 state
        self.newton_trials = 0
        self.residual = np.inf
        self.residual_history = []
        self.updates = 0      # target-radius updates (and start repairs)
        self.fallback = None
        self.masses = None    # the cell masses at the radii
        self.closest = None   # (g - M) / total at the lowest residual seen


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


class RefractorMeasureReport(NamedTuple):
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


ADMISSIBILITY_NODES = 4096  # nodes per block of `check_admissibility`
ADMISSIBILITY_TARGETS = 4   # targets per block


def check_admissibility(pair: MediumPair, src: SourceDensity,
                        tgt: TargetMeasure) -> None:
    """Validate nu.m >= 0 (`MediumPair.margins`) over every (node, target)
    pair, warning below 1e-6.  Only Case I can fail it, as m.p1(x) >= 1:
    Case II's margin is at least 1 - 1/kappa.  nu.x > 0, the sign of the
    denominators, is checked by the solve.

    No (J, N) array is made: the dots m.p1(x) are summed term by term, as
    `short_matmul` sums them, into one buffer, a block of
    ADMISSIBILITY_TARGETS targets by ADMISSIBILITY_NODES nodes at a time.
    The margin sign (d - 1) is monotone in the dot d, also in floating
    point, so the least margin is the margin of the least dot in Case I
    (the greatest in Case II), bit for bit.  A failure names the first
    (node, target) at that margin in row-major order."""
    dirs = np.asarray(tgt.directions, dtype=float)
    J, N = src.count, dirs.shape[0]
    buf = np.empty(min(J, ADMISSIBILITY_NODES)
                   * min(N, ADMISSIBILITY_TARGETS))
    term = np.empty_like(buf)
    extreme = np.min if pair.sign > 0 else np.max
    low = np.inf
    for lo in range(0, J, ADMISSIBILITY_NODES):
        nodes = src.nodes[lo:lo + ADMISSIBILITY_NODES]
        cols = np.ascontiguousarray(norm_gradient(pair.n1, nodes).T)
        for t in range(0, N, ADMISSIBILITY_TARGETS):
            m = dirs[t:t + ADMISSIBILITY_TARGETS, :, None]  # (k, n, 1)
            shape = (m.shape[0], cols.shape[1])
            dot = buf[:shape[0] * shape[1]].reshape(shape)
            tmp = term[:dot.size].reshape(shape)
            np.multiply(cols[0], m[:, 0], out=dot)
            for c in range(1, cols.shape[0]):
                dot += np.multiply(cols[c], m[:, c], out=tmp)
            low = min(low, (float(extreme(dot)) - 1.0) * pair.sign)
    if low < -1e-12:
        for lo in range(0, J, ADMISSIBILITY_NODES):
            margins = pair.margins(src.nodes[lo:lo + ADMISSIBILITY_NODES],
                                   dirs)
            hit = np.flatnonzero(margins == low)  # row-major
            if hit.size:
                j, i = divmod(int(hit[0]), N)
                raise InfeasibleTarget(
                    f"admissibility m.p1(x) >= 1 fails: node {lo + j}, "
                    f"target {i}, value {1.0 + low:.12g}")
    if low < 1e-6:
        warnings.warn("admissibility is within 1e-6 of grazing; the "
                      "discrete problem may be ill-conditioned",
                      stacklevel=2)


def _check_balance(src: SourceDensity, tgt: TargetMeasure) -> None:
    if abs(float(np.sum(tgt.masses)) - src.total) > 1e-12 * src.total:
        raise ValidationError(
            f"mass balance violated: sum g = {np.sum(tgt.masses)!r}, "
            f"source total = {src.total!r}")


NEWTON_STEPS = 30           # a Newton run's budget of steps
NEWTON_MIN_TAU = 2.0 ** -12  # its smallest damping factor


def _note(info: SolveInfo, masses, g, total: float) -> float:
    """The node residual max|M - g| / total of masses; their deficits
    (g - M) / total go to info.closest if it is the lowest yet."""
    deficit = (g - masses) / total
    resid = float(np.abs(deficit).max())
    if info.closest is None or resid < np.abs(info.closest).max():
        info.closest = deficit
    return resid


def _newton(denom, src: SourceDensity, g, b, win, masses, delta,
            info: SolveInfo):
    """Damped Newton steps on the node residual from radii b, a winner win
    of each node there (all of the state that the steps read) and the cell
    masses, every one positive: (radii, None) once max|M - g| <= delta, or
    (None, why it gave up).  The arrays given are left as they are.  Each trial step adds one to info.newton_trials and each accepted
    one appends `_note`'s residual to info.residual_history; on success
    info takes the masses, the steps and the last residual.

    The variables are eta = log(b / b_1), eta_1 = 0 pinned, and the radii
    b_1 exp(eta), so radii[0] is b_1 exactly.  Each step solves H d = g - M
    over targets 2..N, H being `kernels.soup_jacobian`, and halves tau from
    1 until, at eta + tau d, every radius is a positive float, every cell
    holds at least eps0, half the least of the start's masses and of g,
    and the node residual meets delta or falls to (1 - tau / 2) times its
    last value (Kitagawa, Merigot and Thibert's damping), so it falls
    strictly.  It gives up on a singular system ("singular"), tau <
    NEWTON_MIN_TAU ("damping") or NEWTON_STEPS steps without convergence
    ("budget").
    """
    b1 = b[0]
    eta = np.log(b / b1)
    err = float(np.max(np.abs(masses - g)))
    eps0 = 0.5 * min(float(masses.min()), float(g.min()))
    first = len(info.residual_history)
    for _ in range(NEWTON_STEPS):
        if err <= delta:
            break
        H = kernels.soup_jacobian(denom, b, win, src.tris, src.tri_masses)
        try:
            d = np.linalg.solve(H[1:, 1:], (g - masses)[1:])
        except np.linalg.LinAlgError:
            return None, "singular"
        tau = 1.0
        while tau >= NEWTON_MIN_TAU:
            # a non-finite or underflowed step fails the test and halves tau
            with np.errstate(over="ignore", invalid="ignore"):
                eta_t = np.r_[0.0, eta[1:] + tau * d]
                b_t = b1 * np.exp(eta_t)
                info.newton_trials += 1
                top_t = kernels.Top2.of(denom, b_t)
                m_t = kernels.masses(top_t, denom, b_t, src.weights)
            err_t = float(np.max(np.abs(m_t - g)))
            if (b_t.min() > 0.0 and m_t.min() >= eps0
                    and err_t <= max(delta, (1.0 - 0.5 * tau) * err)):
                break
            tau *= 0.5
        else:
            return None, "damping"
        eta, b, win, masses, err = eta_t, b_t, top_t.win, m_t, err_t
        info.residual_history.append(_note(info, masses, g, src.total))
    if err > delta:
        return None, "budget"
    info.masses, info.newton_steps = masses, len(info.residual_history) - first
    info.residual = info.residual_history[-1]
    return b, None


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


def _start(pair: MediumPair, src: SourceDensity, tgt: TargetMeasure,
           b1: float) -> np.ndarray:
    """The closed-form radii that the Newton solve starts from, with
    b[0] = b1 exactly, in 2D and 3D.

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


def _descend(denom, src: SourceDensity, g, b, delta, info: SolveInfo):
    """`_newton` from radii b (changed in place) once every cell holds
    mass: (radii, None, None), or (None, who, why) if "the sweep" (the fill)
    or "Newton" stopped short.  The residual history restarts at b's.  An
    empty cell starts `fill_cells`, which lowers every empty cell toward its
    whole mass; a dilation by b_1 / b[0], which moves no cell, then
    restores b_1 exactly."""
    b1 = b[0]
    with np.errstate(over="ignore"):
        top = kernels.Top2.of(denom, b)
    masses = kernels.masses(top, denom, b, src.weights)
    info.residual_history, info.sweeps = [_note(info, masses, g, src.total)], 0
    if masses.min() <= 0.0:
        masses, info.sweeps, why = fill_cells(denom, top, b, masses, g, src,
                                              delta, info)
        if why is not None:
            return None, "the sweep", why
        b *= b1 / b[0]
        b[0] = b1
    radii, why = _newton(denom, src, g, b, top.win, masses, delta, info)
    return radii, "Newton", why


def _check_separated(pair: MediumPair, src: SourceDensity,
                     tgt: TargetMeasure, denom) -> None:
    """Refuse two targets whose denominators agree within CLOSE_RTOL
    relative at every node either reaches, so that their surfaces tie
    wherever they win (`kernels.CLOSE_RTOL`).  They differ by
    x.(p2(m_a) - p2(m_b)), at most |p2(m_a) - p2(m_b)| max|x|, and
    |denom| <= 1 + |x| |p2(m)|."""
    rtol, p = kernels.CLOSE_RTOL, norm_gradient(pair.n2, tgt.directions)
    xmax = float(np.linalg.norm(src.nodes, axis=1).max())
    reach = rtol * (1.0 / xmax + float(np.linalg.norm(p, axis=1).max()))
    for near in _near_pairs(p, reach):
        for a, c in zip(*np.sort(near, axis=0).tolist()):
            d = denom[:, [a, c]]
            reached = d[d > 0.0]
            gap = float(np.linalg.norm(p[a] - p[c])) * xmax
            if reached.size and gap <= rtol * float(reached.min()):
                raise ValidationError(
                    f"targets {a} and {c} cannot be told apart: their "
                    f"denominators agree within {rtol:.2g} relative at "
                    "every node")


def solve_discrete(pair: MediumPair, src: SourceDensity, tgt: TargetMeasure,
                   b1: float, tol: float = 1e-3) -> Refractor:
    """Design in either regime and dimension: unique radii (b_1 fixed) with
    residual <= tol * total, by `_descend` from `_start`'s radii (+inf, out
    of reach, where not a positive float) or else from the anchor alone,
    with one fill rule (`fill_cells`)."""
    if not (np.isfinite(b1) and b1 > 0.0):
        raise ValidationError(f"b1 must be finite and positive, got {b1!r}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be finite and positive, got {tol!r}")
    _check_balance(src, tgt)
    check_admissibility(pair, src, tgt)

    # column-major (`MediumPair.denominators`): a fill reads it by column
    denom = pair.denominators(src.nodes, tgt.directions)

    bad = np.flatnonzero(denom[:, 0] <= 0.0)
    if bad.size:
        unreached = int(np.sum(np.all(denom[bad] <= 0.0, axis=1)))
        raise InfeasibleTarget(
            f"{bad.size} nodes (first: {int(bad[0])}) are outside the anchor "
            f"target's domain, {unreached} of them outside every target's; "
            "the construction needs the anchor m_1 to reach every node")
    # the anchor's surface is the envelope of the anchor-alone start; an
    # extreme b1 overflows b1 / denom, which this check names
    with np.errstate(over="ignore"):
        first = b1 / denom[:, 0]
    if not np.all((first >= np.finfo(float).tiny) & (first < np.inf)):
        raise ValidationError(f"b1 = {b1!r} puts start heights b1 / denom "
                              "outside the normal float range")
    _check_separated(pair, src, tgt, denom)
    info = SolveInfo()
    g, delta = tgt.masses, tol * src.total
    b = _start(pair, src, tgt, b1)
    # a radius out of float range (or NaN) is a surface out of reach
    b[~(b > 0.0)] = np.inf
    radii, who, why = _descend(denom, src, g, b, delta, info)
    info.fallback = "repair" if who == "the sweep" else why
    if radii is None:
        # the anchor alone: every other surface out of reach
        b = np.r_[b1, np.full(tgt.count - 1, np.inf)]
        radii, who, why = _descend(denom, src, g, b, delta, info)
    if radii is not None:
        return Refractor(pair, tgt, radii, info=info)
    d = info.closest
    under, over = int(np.argmax(d)), int(np.argmin(d))
    raise NonConvergence(
        f"residual {np.abs(d).max():.3e} > tol {tol:.3e}: {who} stopped "
        f"({why}) after {info.sweeps} sweeps; most under-filled: target "
        f"{under} (deficit {d[under]:+.3e} of the total), most over-filled: "
        f"target {over} ({d[over]:+.3e}) (tolerance is below the quadrature "
        "resolution?)", stop=why, sweeps=info.sweeps, deficit=d)


# perfbench/spans.py looks this name up on the module
solve_discrete_caseII = solve_discrete


def refractor_to_obj(r: Refractor, src: SourceDensity, path) -> None:
    """Export the designed surface rho(x) x over the source triangulation."""
    rho = rho_values(r, src.nodes)
    write_obj(path, rho[:, None] * src.nodes, src.tris, name="refractor")
