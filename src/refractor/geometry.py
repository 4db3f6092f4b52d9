"""Shared geometric plumbing: tangent frames, cap lattices, meshes, OBJ export.

The source aperture is a geodesic cap on the Euclidean unit sphere (axis and
half-angle).  Quadrature nodes sit on concentric rings of equal-area node
counts around the axis, with the outermost ring on the rim; the mesh between
consecutive rings is written down directly from the ring structure, and is
positively oriented in the gnomonic chart.  Node weights are one third of
the area of the incident triangles measured after mapping the vertices onto
the wave-front sphere, so the chart Jacobian is picked up automatically.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def short_matmul(x, m) -> np.ndarray:
    """x @ m for an inner dimension n = m.shape[0] of at most 3, the space
    dimension, summed term by term in numpy.  x is (..., n) and m (n, k) or
    (n,).  BLAS would run a (J, 3) @ (3, k) product on several threads,
    whose workers then keep spinning and slow the single-threaded numpy
    code that follows.  Each column of the result is summed along x's
    columns, made contiguous, so a (J, k) result is column-major."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        return short_matmul(x, m[:, None])[..., 0]
    cols = np.ascontiguousarray(np.moveaxis(x, -1, 0))  # (n, ...)
    out = np.empty(m.shape[1:] + x.shape[:-1])          # (k, ...)
    term = np.empty(x.shape[:-1])
    for c in range(m.shape[1]):
        col = out[c, ...]  # a view, also when x is a single vector
        np.multiply(cols[0], m[0, c], out=col)
        for j in range(1, m.shape[0]):
            col += np.multiply(cols[j], m[j, c], out=term)
    return np.moveaxis(out, 0, -1)


def tangent_basis(nu) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to nu, shape (n, n-1).

    Householder completion: deterministic in nu, so chart-based computations
    are reproducible.
    """
    nu = np.asarray(nu, dtype=float)
    n = nu.shape[0]
    nu = nu / np.linalg.norm(nu)
    s = 1.0 if nu[0] >= 0.0 else -1.0
    v = nu.copy()
    v[0] += s
    H = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    return H[:, 1:]  # columns orthogonal to H e1 = -s*nu


def rotate_z_to(axis) -> np.ndarray:
    """Rotation-like orthogonal matrix sending e_z (last coordinate) to axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    n = axis.shape[0]
    E = tangent_basis(axis)
    R = np.empty((n, n))
    R[:, :-1] = E
    R[:, -1] = axis
    return R


def fibonacci_sphere(count: int) -> np.ndarray:
    """Fibonacci lattice on the whole Euclidean unit sphere (3D)."""
    if count < 1:
        raise ValidationError("sample count must be positive")
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = GOLDEN_ANGLE * np.arange(count)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def _check_cap(angle: float, count: int, dim: int) -> None:
    """The arguments every cap lattice and its mesh accept."""
    if dim not in (2, 3):
        raise ValidationError(f"cap lattices are 2D or 3D, got {dim}D")
    if count < 1:
        raise ValidationError("node count must be positive")
    if not (0.0 < angle < np.pi / 2):
        raise ValidationError("cap half-angle must lie in (0, pi/2)")


def _rings(angle: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar angles angle * k / K and node counts n_k ~ sin(angle * k / K)
    (about 6k; largest remainder, summing to count - 1) of the rings around
    the centre of a 3D cap lattice, K = round(sqrt((count - 1) / 3)) rings."""
    if count < 12:
        raise ValidationError("a 3D cap lattice needs at least 12 nodes")
    K = int(round(np.sqrt((count - 1) / 3.0)))
    theta = angle * (np.arange(1, K + 1) / K)  # theta[-1] == angle exactly
    share = (count - 1) * np.sin(theta) / np.sum(np.sin(theta))
    n = np.floor(share).astype(np.intp)
    n[np.argsort(n - share, kind="stable")[:count - 1 - int(n.sum())]] += 1
    return theta, n


def fibonacci_cap(axis, angle: float, count: int) -> np.ndarray:
    """Quasi-uniform lattice of `count` Euclidean unit vectors on the cap
    {y : y.axis >= cos(angle)} (3D), or uniformly spaced arc directions (2D).

    3D: the axis itself, then the rings of `_rings`, the last one exactly on
    the rim, ring k's n_k nodes at azimuths 2 pi (i + 1/2) / n_k, stored ring
    by ring in azimuth order.  (The name predates the ring lattice.)
    """
    axis = np.asarray(axis, dtype=float)
    _check_cap(angle, count, axis.shape[0])
    R = rotate_z_to(axis)
    if axis.shape[0] == 2:
        theta = np.linspace(-angle, angle, count) if count > 1 \
            else np.zeros(1)
        pts = np.stack([np.sin(theta), np.cos(theta)], axis=-1)
        return short_matmul(pts, R.T)
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


def cap_triangulation(angle: float, count: int, dim: int) -> np.ndarray:
    """Mesh of the lattice `fibonacci_cap(axis, angle, count)`, any axis.

    3D: returns (n_tri, 3) vertex indices, counter-clockwise in the gnomonic
    chart: a fan from the centre node to ring 1, then a zipper between each
    pair of consecutive rings, n_k + n_(k+1) triangles each, written down in
    O(J) integer arithmetic from the ring sizes of `_rings`.  2D: returns
    the segments (i, i + 1) of the arc, whose nodes are in order.  It
    accepts what `fibonacci_cap` accepts.
    """
    _check_cap(angle, count, dim)
    if dim == 2:
        node = np.arange(count - 1)
        return np.stack([node, node + 1], axis=-1)
    n = np.r_[1, _rings(angle, count)[1]]  # ring 0 is the centre node
    # Edge e of ring k joins its nodes e-1 and e; its midpoint sits at
    # azimuth 2 pi e / n_k.  Zipping two rings walks both rings' edges in
    # midpoint order, the inner ring's first on a tie, and each edge makes a
    # triangle with the other ring's node current at its midpoint: node
    # floor(e n_in / n_k) of the ring inside (ring 0 is the centre node, so
    # ring 1 gets the fan) and node ceil(e n_out / n_k) - 1 of the ring
    # outside.
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


def node_area_weights(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Per-node share of surface area: one third (half in 2D) of each incident
    triangle (segment) measured on the given embedded points."""
    if points.shape[1] == 2:
        share = 0.5 * np.linalg.norm(points[tris[:, 1]] - points[tris[:, 0]],
                                     axis=-1)
    else:
        a = points[tris[:, 0]]
        share = np.linalg.norm(
            np.cross(points[tris[:, 1]] - a, points[tris[:, 2]] - a), axis=-1
        ) / 6.0
    return np.bincount(tris.ravel(), weights=np.repeat(share, tris.shape[1]),
                       minlength=points.shape[0])


def format_float(x: float) -> str:
    """17 significant digits, the serialization precision for all artifacts."""
    return format(float(x), ".17g")


def write_obj(path, vertices: np.ndarray, faces: np.ndarray,
              name: str = "surface") -> None:
    """Write a Wavefront OBJ mesh (one object), deterministic byte output."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[1] != 3:
        raise ValidationError("OBJ export requires 3D vertices")
    lines = [f"o {name}"]
    for v in vertices:
        lines.append("v " + " ".join(format_float(c) for c in v))
    for f in faces:
        lines.append("f " + " ".join(str(int(i) + 1) for i in f))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
