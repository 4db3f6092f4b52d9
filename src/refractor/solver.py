"""Semi-discrete refractor design.

Given a quadrature discretization of the source energy f on a cap of the
wave-front sphere of medium I and target directions m_1..m_N in medium II
with prescribed masses g_1..g_N, find radii b_1..b_N so that the min-envelope

    rho(x) = min_i h_{b_i, m_i}(x),    h = b / (1 - x.p2(m))   (Case I)
                                       h = b / (x.p2(m) - 1)   (Case II)

pushes the source energy onto the targets: M_i = g_i up to the requested
residual.  b_1 pins the scale (solutions are unique up to dilations).  The
construction is monotone: start with every surface except the first inactive,
then repeatedly shrink the radius of each under-filled target, which can only
grow its cell and shrink the others'.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InfeasibleTarget, NonConvergence, ValidationError
from .geometry import (cap_triangulation, fibonacci_cap, node_area_weights,
                       write_obj)
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
    "cosine": lambda dirs, axis: dirs @ axis,
}


@dataclass(frozen=True)
class SourceDensity:
    """Quadrature of f dx on a cap of Sigma1: nodes x_j (N1(x_j) = 1),
    positive weights w_j, plus the triangulation of the Euclidean directions
    the nodes were built from (for meshes and edge difference quotients)."""

    nodes: np.ndarray      # (J, n) on Sigma1
    weights: np.ndarray    # (J,) positive
    tris: np.ndarray       # node triangles (segments when n = 2)
    total: float

    @classmethod
    def from_cap(cls, norm1: Norm, axis, angle: float, node_count: int,
                 density: str = "uniform") -> "SourceDensity":
        """Ring-lattice quadrature of the cap {y.axis >= cos(angle)}
        (`fibonacci_cap`, triangulated by `cap_triangulation`), mapped onto
        Sigma1 by x = y / N1(y); node weights are local mapped triangle
        areas times the density."""
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        dirs = fibonacci_cap(axis, angle, node_count)
        tris = cap_triangulation(dirs, axis)
        nodes = dirs / norm_eval(norm1, dirs)[:, None]
        if density not in _DENSITIES:
            raise ValidationError(f"unknown density {density!r}")
        f = _DENSITIES[density](dirs, axis)
        w = f * node_area_weights(nodes, tris)
        if np.any(w <= 0.0):
            raise ValidationError("source weights must be positive")
        return cls(nodes=nodes, weights=w, tris=tris,
                   total=float(np.sum(w)))

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
        if dirs.shape[0] > 1:
            dist = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=-1)
            dist = dist + 1e9 * np.eye(dirs.shape[0])
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
    residual: float = np.inf
    residual_history: list = field(default_factory=list)


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
    """Validate Case I admissibility over every (node, target) pair:
    min m.p1(x) >= 1, with a grazing warning below 1 + 1e-6.  Case II's
    x.p2(m) > 1 is the sign of the denominators, which the solve checks.
    """
    if pair.regime is Regime.CASE_I:
        p1 = norm_gradient(pair.n1, src.nodes)
        vals = p1 @ tgt.directions.T
        vmin = float(vals.min())
        if vmin < 1.0 - 1e-12:
            j, i = np.unravel_index(np.argmin(vals), vals.shape)
            raise InfeasibleTarget(
                f"admissibility m.p1(x) >= 1 fails: node {j}, target {i}, "
                f"value {vmin:.12g}")
        if vmin < 1.0 + 1e-6:
            warnings.warn("admissibility is within 1e-6 of grazing; the "
                          "discrete problem may be ill-conditioned",
                          stacklevel=2)


def _check_balance(src: SourceDensity, tgt: TargetMeasure) -> None:
    if abs(float(np.sum(tgt.masses)) - src.total) > 1e-12 * src.total:
        raise ValidationError(
            f"mass balance violated: sum g = {np.sum(tgt.masses)!r}, "
            f"source total = {src.total!r}")


def _mass_profile(s: np.ndarray, w: np.ndarray):
    """Sorted threshold profile: returns a callable M(b) = sum of w over
    nodes with threshold s >= b (piecewise-constant, nonincreasing in b)."""
    order = np.argsort(s)
    s_sorted = s[order]
    suffix = np.concatenate([np.cumsum(w[order][::-1])[::-1], [0.0]])

    def M(b: float) -> float:
        k = int(np.searchsorted(s_sorted, b, side="left"))
        return float(suffix[k])

    return M


def solve_discrete(pair: MediumPair, src: SourceDensity, tgt: TargetMeasure,
                   b1: float, tol: float = 1e-3, max_sweeps: int = 10_000,
                   init_factor: float = 1.0) -> Refractor:
    """Design in either regime: unique radii (b_1 fixed) with residual
    <= tol * total.

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

    # every other surface starts above the anchor's at every node, inactive
    bad = np.flatnonzero(denom[:, 0] <= 0.0)
    if bad.size:
        unreached = int(np.sum(np.all(denom[bad] <= 0.0, axis=1)))
        raise InfeasibleTarget(
            f"{bad.size} nodes (first: {int(bad[0])}) are outside the anchor "
            f"target's domain, {unreached} of them outside every target's; "
            "the construction needs the anchor m_1 to reach every node")
    b = np.empty(N)
    b[0] = b1
    for i in range(1, N):
        feas = denom[:, i] > 0.0
        if not np.any(feas):
            raise InfeasibleTarget(f"target {i} is feasible for no node")
        ratio = float(np.max(denom[feas, i] / denom[feas, 0]))
        b[i] = b1 * ratio * (1.0 + 1e-6) * init_factor

    delta = tol * src.total
    delta_c = 0.9 * delta / max(1, N - 1)
    info = SolveInfo()
    # radii only shrink from here on, which keeps this state exact
    top = kernels.Top2.of(kernels.heights(denom, b))

    for sweep in range(max_sweeps):
        masses = kernels.tally(denom, b, w)[0].sum(axis=0)
        resid = float(np.max(np.abs(masses - g)))
        info.sweeps = sweep
        info.residual = resid / src.total
        info.residual_history.append(resid / src.total)
        if resid <= delta:
            return Refractor(pair, tgt, b, info=info)
        for i in range(1, N):
            if masses[i] >= g[i] - delta_c:
                continue
            s = kernels.win_thresholds(denom, top, i)
            finite = s[np.isfinite(s)]
            if finite.size == 0:
                continue  # cell fixed by feasibility alone
            M = _mass_profile(s, w)
            hi = float(b[i])
            lo = min(0.5 * float(np.min(finite)), 0.5 * hi)
            if M(lo) < g[i] - 0.5 * delta_c:
                raise InfeasibleTarget(
                    f"target {i} cannot absorb its mass even at radius {lo:g}")
            new_b = None
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                Mm = M(mid)
                if abs(Mm - g[i]) <= 0.5 * delta_c:
                    new_b = mid
                    break
                if Mm > g[i]:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-15 * hi:
                    break
            b[i] = new_b if new_b is not None else hi
            # when the window sits on a quadrature jump, keep the
            # under-filled side: overfilling cannot be undone later
            kernels.lower(top, kernels.heights(denom[:, i], b[i]), i)
        # re-tally happens at the top of the next sweep
    raise NonConvergence(
        f"residual {info.residual:.3e} > tol {tol:.3e} after {max_sweeps} "
        "sweeps (tolerance is below the quadrature resolution?)")


# perfbench/spans.py looks this name up on the module
solve_discrete_caseII = solve_discrete


def approximate_measure(density_spec: TargetDensity, count: int,
                        subgrid: int = 8) -> TargetMeasure:
    """Discretize a continuous cap density into `count` weighted directions.

    The cap chart (z = cos angle-from-axis, azimuth phi) is stratified into
    equal-area cells (rings of equal z-height, split into sectors); each cell
    contributes its local density integral as mass, placed at its density
    centroid mapped onto Sigma2.  Masses are rescaled to total_mass exactly.
    """
    spec = density_spec
    axis = np.asarray(spec.axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    dim = axis.shape[0]
    from .geometry import rotate_z_to

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


def refractor_to_obj(r: Refractor, src: SourceDensity, path,
                     name: str = "refractor") -> None:
    """Export the designed surface rho(x) x over the source triangulation."""
    rho = rho_values(r, src.nodes)
    write_obj(path, rho[:, None] * src.nodes, src.tris, name=name)
