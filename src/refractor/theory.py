"""The paper's continuous targets and its checks on designed refractors:
discretized target densities, dilations and the Case I Lipschitz bound.
No command imports this module; the tests and studies do.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .geometry import rotate_z_to
from .norms import Norm, Regime, norm_gradient
from .solver import (_DENSITIES, Refractor, SourceDensity, TargetMeasure,
                     rho_values)

__all__ = ["TargetDensity", "approximate_measure", "dilate",
           "lipschitz_bound", "max_difference_quotient"]


class TargetDensity(NamedTuple):
    """Continuous target density on a cap of Sigma2, for discretization."""

    norm2: Norm
    axis: np.ndarray
    angle: float
    total_mass: float
    density: str = "uniform"   # a name in solver._DENSITIES

    def values(self, dirs: np.ndarray) -> np.ndarray:
        axis = np.asarray(self.axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        return _DENSITIES[self.density](dirs, axis)


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
