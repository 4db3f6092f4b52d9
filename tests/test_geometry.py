import warnings

import numpy as np
import pytest

from refractor.errors import ValidationError
from refractor.geometry import (cap_triangulation, fibonacci_cap,
                                fibonacci_sphere, format_float,
                                node_area_weights, short_matmul,
                                tangent_basis, write_obj)


def test_tangent_basis_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        E = tangent_basis(nu)
        assert E.shape == (3, 2)
        assert np.allclose(E.T @ E, np.eye(2), atol=1e-14)
        assert np.allclose(E.T @ nu, 0.0, atol=1e-14)
        assert np.array_equal(E, tangent_basis(nu))  # deterministic


def test_fibonacci_sphere():
    pts = fibonacci_sphere(500)
    assert pts.shape == (500, 3)
    assert np.allclose(np.linalg.norm(pts, axis=-1), 1.0, atol=1e-14)
    # quasi-uniform: mean is near the center
    assert np.linalg.norm(pts.mean(axis=0)) < 0.01


def test_fibonacci_cap_counts_and_rim():
    axis = np.array([0.3, -0.2, 0.9])
    axis /= np.linalg.norm(axis)
    angle = 0.4
    pts = fibonacci_cap(axis, angle, 400)
    assert pts.shape == (400, 3)
    proj = pts @ axis
    assert np.min(proj) >= np.cos(angle) - 1e-12
    # the rim ring sits exactly on the boundary
    assert np.sum(np.abs(proj - np.cos(angle)) < 1e-12) >= 6


def test_fibonacci_cap_validation():
    with pytest.raises(ValidationError):
        fibonacci_cap(np.array([0.0, 0.0, 1.0]), 2.0, 100)
    with pytest.raises(ValidationError):
        fibonacci_cap(np.array([0.0, 0.0, 1.0]), 0.3, 8)


@pytest.mark.parametrize("angle, count, dim, message", [
    (0.0, 100, 3, "half-angle"),
    (2.0, 100, 3, "half-angle"),
    (float("nan"), 100, 2, "half-angle"),
    (0.3, 0, 2, "node count"),
    (0.3, 8, 3, "at least 12 nodes"),
    (0.3, 100, 4, "2D or 3D"),
])
def test_cap_triangulation_validation(angle, count, dim, message):
    # the mesh rejects what the lattice rejects, before any arithmetic can
    # warn (a zero angle used to divide 0 by 0 in the ring shares)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            cap_triangulation(angle, count, dim)


def test_cap_triangulation_covers_nodes():
    axis = np.array([0.0, 0.0, 1.0])
    pts = fibonacci_cap(axis, 0.3, 200)
    tris = cap_triangulation(0.3, 200, 3)
    assert set(tris.ravel()) == set(range(200))
    w = node_area_weights(pts, tris)[0]
    assert np.all(w > 0)
    assert np.sum(w) == pytest.approx(2 * np.pi * (1 - np.cos(0.3)), rel=5e-3)


def _edges(tris):
    """Undirected edges of a triangulation with the number of triangles each
    lies in."""
    e = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                tris[:, [2, 0]]]), axis=1)
    return np.unique(e, axis=0, return_counts=True)


@pytest.mark.parametrize("angle", [0.25, 0.6])
@pytest.mark.parametrize("count", [12, 200, 8000, 20000])
def test_cap_mesh_properties(count, angle):
    axis = np.array([0.3, -0.2, 0.9])
    axis /= np.linalg.norm(axis)
    dirs = fibonacci_cap(axis, angle, count)
    tris = cap_triangulation(angle, count, 3)
    assert dirs.shape == (count, 3)
    assert np.allclose(dirs[0], axis, rtol=0.0, atol=1e-15)  # axis node
    proj = dirs @ axis
    on_rim = np.abs(proj - np.cos(angle)) <= 1e-12
    edges, uses = _edges(tris)
    assert set(uses.tolist()) == {1, 2}
    rim_edges = edges[uses == 1]
    assert np.all(on_rim[rim_edges])  # one triangle only on the rim
    assert len(rim_edges) == np.sum(on_rim)  # the rim is one closed loop
    # positive, consistently oriented area in the gnomonic chart
    uv = (dirs @ tangent_basis(axis)) / proj[:, None]
    a, b, c = uv[tris[:, 0]], uv[tris[:, 1]], uv[tris[:, 2]]
    signed = (b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0]
    assert np.all(signed > 0.0)
    # the inscribed flat triangles underestimate the cap area by 0.6-0.85/J;
    # at J = 12 the seven-node rim heptagon alone misses
    # 1 - 7 sin(2 pi / 7) / (2 pi) = 12.9 % of the cap, above 1/12
    area = 2.0 * np.pi * (1.0 - np.cos(angle))
    total = np.sum(node_area_weights(dirs, tris)[0])
    assert total <= area
    assert area - total <= (2.0 if count == 12 else 1.0) / count * area


def test_node_area_weights_match_per_triangle_sum():
    for axis, count in ((np.array([0.0, 0.0, 1.0]), 200),
                        (np.array([0.0, 1.0]), 40)):
        pts = fibonacci_cap(axis, 0.3, count)
        tris = cap_triangulation(0.3, count, axis.shape[0])
        ref = np.zeros(count)
        for t in tris:
            p = pts[t]
            size = np.linalg.norm(p[1] - p[0]) if len(t) == 2 else \
                0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
            ref[t] += size / len(t)
        assert np.allclose(node_area_weights(pts, tris)[0], ref, rtol=1e-14,
                           atol=0.0)


def test_cap_2d_ordering():
    axis = np.array([0.0, 1.0])
    pts = fibonacci_cap(axis, 0.5, 40)
    segs = cap_triangulation(0.5, 40, 2)
    assert segs.shape == (39, 2)
    w = node_area_weights(pts, segs)[0]
    assert np.sum(w) == pytest.approx(2 * 0.5, rel=1e-3)


def test_format_float_17g():
    x = 1.0 / 3.0
    assert float(format_float(x)) == x
    assert format_float(1.0) == "1"


def test_write_obj_rejects_2d(tmp_path):
    with pytest.raises(ValidationError):
        write_obj(tmp_path / "x.obj", np.zeros((3, 2)), np.zeros((1, 2), int))


@pytest.mark.parametrize("xshape, mshape", [
    ((50, 3), (3, 7)), ((3,), (3, 4)), ((50, 3), (3,)), ((3,), (3,)),
    ((40, 2), (2, 5)), ((4, 6, 3), (3, 2)),
])
def test_short_matmul_matches_matmul(xshape, mshape):
    # the n products summed in order, as a loop sums them; within rounding
    # of the BLAS product
    rng = np.random.default_rng(0)
    x, m = rng.standard_normal(xshape), rng.standard_normal(mshape)
    got = short_matmul(x, m)
    col = (lambda j: x[..., j]) if m.ndim == 1 else (lambda j: x[..., j, None])
    loop = sum(col(j) * m[j] for j in range(m.shape[0]))
    assert np.shape(got) == np.shape(x @ m)
    assert np.array_equal(got, loop)
    bound = 4 * np.finfo(float).eps * m.shape[0] * np.abs(x).max() \
        * np.abs(m).max()
    assert np.allclose(got, x @ m, rtol=0, atol=bound)
