"""Norm calculus: evaluation, gradients, the dual norm and the contrast constant.

A medium is modeled by a norm N whose unit sphere is the set reached by light
in unit time.  Two concrete strictly convex C1 families are provided:

* ``ellipsoidal``: N(x) = |A x| for an invertible matrix A (isotropic media
  are A = n * Id with refractive index n),
* ``lq``: N(x) = (sum |x_i|^q)^(1/q) with exponent q in (1, inf).

The momentum map is p(x) = grad N(x); it sends the unit sphere of N onto the
unit sphere of the dual norm N*(y) = sup_{N(x)=1} |x.y|, and the dual gradient
p* = grad N* inverts it there (p* o p = Id on the sphere).  N* = `Norm.dual()`
is a norm of the same family, so norm_eval and norm_gradient give N* and p*.

kappa, the sup (Case I) or inf (Case II) of the 0-homogeneous ratio N2/N1,
must keep KAPPA_MARGIN = 1e-9 away from 1.  Ellipsoidal pairs read it off
the singular values of A2 A1^{-1}; other pairs evaluate log(N2/N1) on 20,000
lattice directions and refine the 8 best of each sign by 100 batched
projected Polak-Ribiere ascent steps (plain steepest ascent stalled at 3e-7
relative error on strongly anisotropic pairs).
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import RegimeViolation, ValidationError, ZeroVector
from .geometry import fibonacci_sphere, short_matmul

__all__ = [
    "Regime",
    "Norm",
    "MediumPair",
    "norm_eval",
    "norm_gradient",
    "norm_hessian",
    "contrast_kappa",
]

KAPPA_MARGIN = 1e-9  # how far the ratio N2/N1 must stay from 1 for a regime


class Regime(enum.Enum):
    """Refraction regime of an ordered medium pair."""

    CASE_I = "CaseI"    # kappa = sup N2 on Sigma1 < 1 (into a "faster" medium)
    CASE_II = "CaseII"  # kappa = inf N2 on Sigma1 > 1 (into a "slower" medium)


class Norm:
    """A strictly convex C1 norm on R^n, n in {2, 3}.

    Instances are immutable and safe for concurrent reads: A^t A is
    precomputed and the dual is cached on first use (racing calls build equals).
    """

    __slots__ = ("kind", "dim", "A", "q", "_AtA", "_dual")

    def __init__(self, kind: str, dim: int, A=None, q=None):
        if dim not in (2, 3):
            raise ValidationError(f"dimension must be 2 or 3, got {dim}")
        self.kind = kind
        self.dim = dim
        self._dual = None
        if kind == "ellipsoidal":
            A = np.asarray(A, dtype=float)
            if A.shape != (dim, dim):
                raise ValidationError(f"A must be {dim}x{dim}, got {A.shape}")
            if not np.all(np.isfinite(A)):
                raise ValidationError("A must be finite")
            s = np.linalg.svd(A, compute_uv=False)
            if s[-1] <= 1e-12 * s[0]:
                raise ValidationError("A must be invertible "
                                      "(condition number at most 1e12)")
            self.A = A
            self.q = None
            self._AtA = A.T @ A
        elif kind == "lq":
            if not (q is not None and 1.0 < float(q) < np.inf):
                raise ValidationError(f"lq exponent must lie in (1, inf), got {q}")
            self.A = None
            self.q = float(q)
            self._AtA = None
        else:
            raise ValidationError(f"unknown norm kind {kind!r}")

    @classmethod
    def ellipsoidal(cls, A) -> "Norm":
        A = np.asarray(A, dtype=float)
        return cls("ellipsoidal", len(A) if A.ndim else 0, A=A)

    @classmethod
    def lq(cls, q: float, dim: int = 3) -> "Norm":
        return cls("lq", dim, q=q)

    @classmethod
    def isotropic(cls, n: float, dim: int = 3) -> "Norm":
        """Isotropic medium with refractive index n: N(x) = n|x|."""
        return cls.ellipsoidal(n * np.eye(dim))

    def dual(self) -> "Norm":
        """The dual norm N* as a Norm (ellipsoidal -> A^{-t}, lq -> q/(q-1)),
        built on first use and cached; its gradient is p*."""
        if self._dual is None:
            self._dual = (Norm.ellipsoidal(np.linalg.inv(self.A).T)
                          if self.kind == "ellipsoidal"
                          else Norm.lq(self.q / (self.q - 1.0), self.dim))
        return self._dual

    def __repr__(self):
        if self.kind == "ellipsoidal":
            return f"Norm.ellipsoidal({self.A.tolist()})"
        return f"Norm.lq({self.q}, dim={self.dim})"


def norm_eval(norm: Norm, x) -> np.ndarray:
    """N(x).  Accepts a single vector or an array of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    if norm.kind == "ellipsoidal":
        return np.linalg.norm(short_matmul(x, norm.A.T), axis=-1)
    return np.sum(np.abs(x) ** norm.q, axis=-1) ** (1.0 / norm.q)


def norm_gradient(norm: Norm, x) -> np.ndarray:
    """p(x) = grad N(x); homogeneous of degree zero.  Batched like norm_eval."""
    x = np.asarray(x, dtype=float)
    n = norm_eval(norm, x)
    if np.any(n == 0.0):
        raise ZeroVector("gradient undefined at the origin")
    if norm.kind == "ellipsoidal":
        return short_matmul(x, norm._AtA) / n[..., None]
    q = norm.q
    return np.sign(x) * np.abs(x) ** (q - 1.0) / n[..., None] ** (q - 1.0)


def norm_hessian(norm: Norm, x) -> np.ndarray:
    """Hessian of N at a single point x != 0 (used by the Fermat solver).

    For lq with q < 2 the diagonal term |x_i|^(q-2) blows up on the axes; the
    coordinates are clamped at 1e-12 of the largest one, which only perturbs
    the Newton model, never the gradient.
    """
    x = np.asarray(x, dtype=float)
    n = float(norm_eval(norm, x))
    if n == 0.0:
        raise ZeroVector("hessian undefined at the origin")
    p = norm_gradient(norm, x)
    if norm.kind == "ellipsoidal":
        return (norm._AtA - np.outer(p, p)) / n
    q = norm.q
    ax = np.maximum(np.abs(x), 1e-12 * np.max(np.abs(x)))
    diag = np.diag(ax ** (q - 2.0)) / n ** (q - 1.0)
    return (q - 1.0) * (diag - np.outer(p, p) / n)


def _ratio_extrema(n1: Norm, n2: Norm):
    """((sup, x_sup), (inf, x_inf)) of N2/N1 over Euclidean unit directions x,
    half a circle in 2D as the ratio is even.  Each ascent row doubles its
    step when its value improves and quarters it when not."""
    t = np.pi * (np.arange(20_000) + 0.5) / 20_000
    x = fibonacci_sphere(20_000) if n1.dim == 3 else np.c_[np.cos(t), np.sin(t)]
    f = np.log(norm_eval(n2, x) / norm_eval(n1, x))
    k, o = 8, np.argsort(f)
    r, sign = np.r_[o[-k:], o[:k]], np.repeat([1.0, -1.0], k)[:, None]
    y, val, step = x[r], sign[:, 0] * f[r], 1e-2
    d, g_prev = np.zeros_like(y), np.ones_like(y)  # the first direction is g
    for _ in range(100):
        g = sign * (norm_gradient(n2, y) / norm_eval(n2, y)[:, None]
                    - norm_gradient(n1, y) / norm_eval(n1, y)[:, None])
        # beta = 0 restarts an unmoved row; the floor avoids 0 / 0 at g == 0
        beta = np.maximum(0.0, np.sum(g * (g - g_prev), axis=-1) / np.maximum(
            np.sum(g_prev * g_prev, axis=-1), 1e-300))[:, None]
        d = g + beta * (d - np.sum(d * y, axis=-1, keepdims=True) * y)
        trial = y + step * d
        trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
        v = sign[:, 0] * np.log(norm_eval(n2, trial) / norm_eval(n1, trial))
        up, g_prev = v > val, g
        y[up], val[up] = trial[up], v[up]
        step = np.where(up, 2.0, 0.25)[:, None] * step
    best = y[np.argmax(val[:k])], y[k + np.argmax(val[k:])]
    return tuple((float(norm_eval(n2, b) / norm_eval(n1, b)), b) for b in best)


def contrast_kappa(n1: Norm, n2: Norm) -> tuple[float, Regime]:
    """Contrast constant of the ordered pair (N1, N2) and its regime:
    Case I if kappa = sup_{N1(x)=1} N2(x) < 1 - KAPPA_MARGIN, Case II if
    kappa = inf_{N1(x)=1} N2(x) > 1 + KAPPA_MARGIN, else RegimeViolation
    naming the directions that reach the sup and the inf."""
    if n1.dim != n2.dim:
        raise ValidationError("norms must share the same dimension")
    if n1.kind == "ellipsoidal" and n2.kind == "ellipsoidal":
        s = np.linalg.svd(n2.A @ n1.dual().A.T, compute_uv=False)
        sup_val, inf_val = float(s[0]), float(s[-1])
    else:
        (sup_val, _), (inf_val, _) = _ratio_extrema(n1, n2)
    if sup_val < 1.0 - KAPPA_MARGIN:
        return sup_val, Regime.CASE_I
    if inf_val > 1.0 + KAPPA_MARGIN:
        return inf_val, Regime.CASE_II
    (_, x_sup), (_, x_inf) = _ratio_extrema(n1, n2)  # the SVD gives none
    raise RegimeViolation(
        f"N2 over Sigma1 spans [{inf_val:.6g}, {sup_val:.6g}] (inf along "
        f"{np.round(x_inf, 6)}, sup along {np.round(x_sup, 6)}), which comes "
        f"within {KAPPA_MARGIN:g} of 1: neither Case I nor Case II")


class MediumPair:
    """Ordered pair of media with cached contrast constant and regime.

    The regime's sign (+1 in Case I, -1 in Case II) orients the Snell normal
    nu = sign (p1(x) - p2(m)) of the surface through m; on Sigma1 x Sigma2,
    nu.x = `denominators` and nu.m = `margins`.  Immutable; thread-safe reads.
    """

    __slots__ = ("n1", "n2", "kappa", "regime", "sign")

    def __init__(self, n1: Norm, n2: Norm):
        self.n1 = n1
        self.n2 = n2
        self.kappa, self.regime = contrast_kappa(n1, n2)
        self.sign = 1.0 if self.regime is Regime.CASE_I else -1.0

    @classmethod
    def isotropic(cls, n1: float, n2: float, dim: int = 3) -> "MediumPair":
        return cls(Norm.isotropic(n1, dim), Norm.isotropic(n2, dim))

    @property
    def dim(self) -> int:
        return self.n1.dim

    def denominators(self, nodes, directions) -> np.ndarray:
        """nu.x = sign (1 - x.p2(m)), at least 1 - kappa > 0 in Case I.

        The surface through m reaches x iff denom > 0; its radius there is
        b / denom.  nodes (J, n) against directions (N, n) gives a
        column-major (J, N) array (`short_matmul`); a single direction (n,)
        gives (J,).
        """
        dots = short_matmul(nodes, norm_gradient(self.n2, directions).T)
        dots *= -self.sign  # then + sign: exactly 1 - d or d - 1, +0 at d = 1
        dots += self.sign
        return dots

    def margins(self, nodes, directions) -> np.ndarray:
        """nu.m = sign (p1(x).m - 1) for m on Sigma2, shaped as denominators,
        at least 1 - 1/kappa > 0 in Case II; (x, m) is admissible iff both
        are >= 0."""
        dots = short_matmul(norm_gradient(self.n1, nodes),
                            np.asarray(directions, float).T)
        dots -= 1.0
        dots *= self.sign
        return dots

    def __repr__(self):
        return (f"MediumPair(kappa={self.kappa:.6g}, "
                f"regime={self.regime.value}, n1={self.n1!r}, n2={self.n2!r})")
