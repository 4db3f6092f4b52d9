"""Uniformly refracting surfaces: all rays from the origin exit parallel to m.

The outward normal at rho(x) x is nu = sign (p1(x) - p2(m)), with the
pair's sign +1 in Case I (kappa < 1, S_I(m, b)) and -1 in Case II (kappa > 1,
S_II(m, b)); that is exactly the vector Snell condition for refraction into
m.  The polar radius is

    rho(x) = b / nu.x = b / (sign (1 - x.p2(m)))

on the domain {x in Sigma1 : nu.x > 0, nu.m >= 0}, where the incident ray x
and the refracted ray m both cross the surface along nu.  Case I has
nu.x >= 1 - kappa > 0 everywhere, so only m.p1(x) >= 1 can fail; Case II
has nu.m >= 1 - 1/kappa > 0, so only x.p2(m) > 1 can.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomain, ValidationError
from .geometry import write_obj
from .norms import MediumPair, Regime, norm_eval, norm_gradient

__all__ = ["UniformSurface", "surface_radius", "surface_normal",
           "support_test", "surface_to_obj", "radius_bounds"]


class UniformSurface:
    """S_I(m, b) or S_II(m, b) for the given medium pair.

    p2(m) is cached at construction for the Snell normal.
    """

    __slots__ = ("pair", "m", "b", "p2m")

    def __init__(self, pair: MediumPair, m, b: float):
        if not (np.isfinite(b) and b > 0.0):
            raise ValidationError("radius parameter b must be finite and "
                                  "positive")
        m = np.asarray(m, dtype=float)
        size = norm_eval(pair.n2, m)
        if size == 0.0:
            raise ValidationError("target direction must be nonzero")
        self.pair = pair
        self.m = m / size
        self.b = float(b)
        self.p2m = norm_gradient(pair.n2, self.m)


def _check_domain(s: UniformSurface, x: np.ndarray) -> None:
    if not np.all(domain_mask(s, x)):
        raise OutOfDomain("the surface's domain needs nu.x > 0 and nu.m >= 0 "
                          "at every evaluated node")


def surface_radius(s: UniformSurface, x) -> np.ndarray:
    """Polar radius rho(x) for x on Sigma1 (batched over leading axes).

    Case I values always lie in [b/(1+kappa), b/(1-kappa)].  Raises
    OutOfDomain outside the domain.
    """
    x = np.asarray(x, dtype=float)
    _check_domain(s, x)
    return s.b / s.pair.denominators(x, s.m)


def surface_normal(s: UniformSurface, x) -> tuple[np.ndarray, np.ndarray]:
    """Outward normal at the surface point rho(x) x.

    Returns (raw, unit): the unnormalized Snell normal
    sign (p1(x) - p2(m)) and its Euclidean normalization.
    """
    x = np.asarray(x, dtype=float)
    _check_domain(s, x)
    raw = s.pair.sign * (norm_gradient(s.pair.n1, x) - s.p2m)
    unit = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw, unit


def support_test(s: UniformSurface, nodes, rho_values, i0: int) -> bool:
    """Does S(m, b) support the radial graph rho at node i0?

    True iff rho <= surface radius at every node with equality (relative
    tolerance 1e-9) exactly at i0.
    """
    nodes = np.asarray(nodes, dtype=float)
    rho_values = np.asarray(rho_values, dtype=float)
    h = surface_radius(s, nodes)
    tol = 1e-9 * h[i0]
    if np.any(rho_values > h + tol):
        return False
    return abs(rho_values[i0] - h[i0]) <= tol


def domain_mask(s: UniformSurface, nodes) -> np.ndarray:
    """Boolean mask of the nodes inside the surface's admissible domain,
    nu.x > 0 and nu.m >= 0 (with a 1e-12 slack)."""
    nodes = np.asarray(nodes, dtype=float)
    return ((s.pair.denominators(nodes, s.m) > 0.0)
            & (s.pair.margins(nodes, s.m) >= -1e-12))


def radius_bounds(s: UniformSurface) -> tuple[float, float]:
    """Envelope of the Case I polar radius, [b/(1+kappa), b/(1-kappa)]."""
    if s.pair.regime is not Regime.CASE_I:
        raise ValidationError("radius bounds only hold in Case I")
    k = s.pair.kappa
    return s.b / (1.0 + k), s.b / (1.0 - k)


def surface_to_obj(s: UniformSurface, nodes, tris, path, name="surface") -> None:
    """Export the surface patch over the node set as a Wavefront OBJ mesh."""
    nodes = np.asarray(nodes, dtype=float)
    rho = surface_radius(s, nodes)
    write_obj(path, rho[:, None] * nodes, tris, name=name)
