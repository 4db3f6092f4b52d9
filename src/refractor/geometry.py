"""Shared geometric plumbing: tangent frames, cap lattices, meshes, OBJ export.

The source aperture is a geodesic cap on the Euclidean unit sphere (axis and
half-angle).  Quadrature nodes sit on concentric rings of equal-area node
counts around the axis, with the outermost ring on the rim; the mesh between
consecutive rings is written down directly from the ring structure, and is
positively oriented in the gnomonic chart.  Node weights are one third of
the area of the incident triangles measured after mapping the vertices onto
the wave-front sphere, so the chart Jacobian is picked up automatically;
the doubled triangle areas they come from are returned with them, for the
triangle masses of the simplex soup.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
AREA_BLOCK = 8192  # triangles per block of `node_area_weights`


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
        return short_matmul(np.stack([np.sin(theta), np.cos(theta)]).T, R.T)
    theta, n = _rings(angle, count)
    # the rows x, y, z of the nodes before the rotation; each ring's sine
    # and cosine of its polar angle are taken once and repeated
    pts = np.empty((3, count))
    pts[:, 0] = (0.0, 0.0, 1.0)
    phi = np.arange(count - 1) - np.repeat(np.cumsum(n) - n, n) + 0.5
    phi *= 2.0 * np.pi
    phi /= np.repeat(n, n)
    np.cos(phi, out=pts[0, 1:])
    np.sin(phi, out=pts[1, 1:])
    del phi  # before the rotation allocates its result
    pts[:2, 1:] *= np.repeat(np.sin(theta), n)
    pts[2, 1:] = np.repeat(np.cos(theta), n)
    return short_matmul(pts.T, R.T)


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
    m = count - 1             # inward triangles: one per edge of rings 1..K
    o = m - n[-1]             # outward ones: one per edge of rings 1..K-1
    tris = np.empty((m + o, 3), np.intp)
    node = np.arange(1, count)
    # an edge's first node is node - 1, except at a ring's first edge
    prev = node - 1
    prev[start[1:] - 1] += n[1:]
    e = node - np.repeat(start[1:], n[1:])
    n_k = np.repeat(n[1:], n[1:])
    inner = e * np.repeat(n[:-1], n[1:])
    inner //= n_k
    inner += np.repeat(start[:-1], n[1:])
    tris[:m, 0], tris[:m, 1], tris[:m, 2] = prev, node, inner
    outer = e[:o] * np.repeat(n[2:], n[1:-1])
    outer -= 1
    outer //= n_k[:o]
    outer += np.repeat(start[2:], n[1:-1])
    # at e = 0 that is node -1 of the ring outside: its last node
    outer[start[1:-1] - 1] += n[2:]
    tris[m:, 0], tris[m:, 1], tris[m:, 2] = prev[:o], outer, node[:o]
    return tris


def _edge_vectors(cols, tris) -> list:
    """The vectors from each simplex's vertex 0 to its other vertices, one
    list of coordinate rows per vertex: 1-D gathers of each coordinate row
    of the points at each vertex column of tris."""
    v0, *vs = tris.T
    edges = [[c[v] for c in cols] for v in vs]
    for c, *d in zip(cols, *edges):
        a = c[v0]
        for x in d:
            x -= a
    return edges


def _cross(e, h) -> tuple:
    """e x h of coordinate rows, with np.cross's products and differences;
    e and h are overwritten."""
    e0, e1, e2 = e
    h0, h1, h2 = h
    c0 = e1 * h2
    c0 -= e2 * h1
    c1 = np.multiply(e2, h0, out=e2)
    c1 -= np.multiply(e0, h2, out=h2)
    c2 = np.multiply(e0, h1, out=e0)
    c2 -= np.multiply(e1, h0, out=h0)
    return c0, c1, c2


def _length(d) -> np.ndarray:
    """The Euclidean length of coordinate rows d, summed in np.linalg.norm's
    order; d is overwritten."""
    s = np.multiply(d[0], d[0], out=d[0])
    for x in d[1:]:
        s += np.multiply(x, x, out=x)
    return np.sqrt(s, out=s)


def node_area_weights(points: np.ndarray,
                      tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node share of surface area, one third (half in 2D) of each
    incident triangle (segment) measured on the given embedded points, and
    the sizes it is taken from: each triangle's doubled area (each
    segment's length), bit for bit those of a row-wise cross product and
    norm."""
    cols = [np.ascontiguousarray(c) for c in points.T]
    k = tris.shape[1]
    size = np.empty(tris.shape[0])
    # block by block, so that the temporaries stay small and are reused
    for lo in range(0, tris.shape[0], AREA_BLOCK):
        edges = _edge_vectors(cols, tris[lo:lo + AREA_BLOCK])
        size[lo:lo + AREA_BLOCK] = _length(_cross(*edges) if k == 3
                                           else edges[0])
    # each vertex's share, laid out as tris is: half a length, a sixth of a
    # doubled area
    share = np.empty(tris.shape)
    if k == 2:
        np.multiply(size[:, None], 0.5, out=share)
    else:
        np.divide(size[:, None], 6.0, out=share)
    weights = np.bincount(tris.ravel(), weights=share.ravel(),
                          minlength=points.shape[0])
    return weights, size


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
