"""The cap quadrature, bit for bit against a direct oracle.

`fibonacci_cap`, `cap_triangulation` and `node_area_weights` work on
contiguous coordinate rows and vertex columns, with each ring's trig taken
once.  The oracle below writes the same lattice, mesh and weights the plain
way: per-node trig, a zipper indexed through modular arithmetic, and
``np.cross`` areas of (T, 3) row gathers.  Every array must match exactly,
and so must the triangle masses `soup_jacobian` reads."""

import numpy as np
import pytest

from refractor.geometry import _rings, rotate_z_to, short_matmul
from refractor.norms import Norm, norm_eval
from refractor.solver import SourceDensity, _DENSITIES


def oracle_cap(axis, angle, count):
    R = rotate_z_to(axis)
    if axis.shape[0] == 2:
        theta = np.linspace(-angle, angle, count)
        return short_matmul(np.stack([np.sin(theta), np.cos(theta)], axis=-1),
                            R.T)
    theta, n = _rings(angle, count)
    start = np.cumsum(n) - n
    i = np.arange(count - 1) - np.repeat(start, n)
    phi = 2.0 * np.pi * (i + 0.5) / np.repeat(n, n)
    t = np.repeat(theta, n)
    pts = np.empty((count, 3))
    pts[0] = (0.0, 0.0, 1.0)
    pts[1:, 0] = np.sin(t) * np.cos(phi)
    pts[1:, 1] = np.sin(t) * np.sin(phi)
    pts[1:, 2] = np.cos(t)
    return short_matmul(pts, R.T)


def oracle_triangulation(angle, count, dim):
    if dim == 2:
        node = np.arange(count - 1)
        return np.stack([node, node + 1], axis=-1)
    n = np.r_[1, _rings(angle, count)[1]]
    start = np.cumsum(n) - n
    node = np.arange(1, count)
    k = np.repeat(np.arange(1, n.size), n[1:])
    e = node - start[k]
    prev = start[k] + (e - 1) % n[k]
    inward = np.stack([prev, node, start[k - 1] + e * n[k - 1] // n[k]],
                      axis=-1)
    o = k < n.size - 1
    k, e = k[o], e[o]
    outward = np.stack([prev[o],
                        start[k + 1] + (e * n[k + 1] - 1) // n[k] % n[k + 1],
                        node[o]], axis=-1)
    return np.concatenate([inward, outward])


def oracle_source(norm1, axis, angle, count, density):
    """(nodes, weights, tris, total, f, tri_masses) the plain way."""
    axis = axis / np.linalg.norm(axis)
    dirs = oracle_cap(axis, angle, count)
    tris = oracle_triangulation(angle, count, axis.shape[0])
    nodes = dirs / norm_eval(norm1, dirs)[:, None]
    f = _DENSITIES[density](dirs, axis)
    x = nodes[tris]
    if tris.shape[1] == 2:
        size = np.linalg.norm(x[:, 1] - x[:, 0], axis=-1)
        share, mass = 0.5 * size, size * (f[tris[:, 0]] + f[tris[:, 1]]) / 2.0
    else:
        size = np.linalg.norm(np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]),
                              axis=-1)
        share = size / 6.0
        mass = size * (f[tris[:, 0]] + f[tris[:, 1]] + f[tris[:, 2]]) / 6.0
    w = f * np.bincount(tris.ravel(), weights=np.repeat(share, tris.shape[1]),
                        minlength=count)
    return nodes, w, tris, float(np.sum(w)), f, mass


OFF_AXIS = np.array([0.3, -0.2, 0.9])
NORMS = {
    "isotropic": Norm.isotropic(1.5),
    "ellipsoidal": Norm.ellipsoidal([[1.6, 0.1, 0.0], [0.1, 1.4, 0.05],
                                     [0.0, 0.05, 1.5]]),
    "lq": Norm.lq(3.0),
}


def assert_same(src, oracle):
    nodes, w, tris, total, f, mass = oracle
    assert np.array_equal(src.nodes, nodes)
    assert np.array_equal(src.weights, w)
    assert np.array_equal(src.tris, tris) and src.tris.dtype == tris.dtype
    assert src.total == total
    assert np.array_equal(src.f, f)
    assert np.array_equal(src.tri_masses, mass)
    # the soup carries the quadrature's total mass
    assert src.tri_masses.sum() == pytest.approx(src.total, rel=1e-12)


@pytest.mark.parametrize("density", ["uniform", "cosine"])
@pytest.mark.parametrize("media", NORMS)
@pytest.mark.parametrize("axis", [np.array([0.0, 0.0, 1.0]), OFF_AXIS],
                         ids=["on_axis", "off_axis"])
@pytest.mark.parametrize("count", [12, 13, 2000, 20001])
def test_cap_quadrature_matches_the_oracle(count, axis, media, density):
    norm1 = NORMS[media]
    assert_same(SourceDensity.from_cap(norm1, axis, 0.25, count, density),
                oracle_source(norm1, axis, 0.25, count, density))


def test_2d_cap_quadrature_matches_the_oracle():
    norm1 = Norm.ellipsoidal([[1.5, 0.1], [0.1, 1.3]])
    axis = np.array([0.2, 1.0])
    assert_same(SourceDensity.from_cap(norm1, axis, 0.3, 501, "cosine"),
                oracle_source(norm1, axis, 0.3, 501, "cosine"))
