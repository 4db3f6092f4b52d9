"""Norm calculus: evaluation, gradients, dual norms and the contrast constant.

A medium is modeled by a norm N whose unit sphere is the set reached by light
in unit time.  Two concrete strictly convex C1 families are provided:

* ``ellipsoidal``: N(x) = |A x| for an invertible matrix A (isotropic media
  are A = n * Id with refractive index n),
* ``lq``: N(x) = (sum |x_i|^q)^(1/q) with exponent q in (1, inf).

The momentum map is p(x) = grad N(x); it sends the unit sphere of N onto the
unit sphere of the dual norm N*(y) = sup_{N(x)=1} |x.y|, and the dual gradient
p* = grad N* inverts it there (p* o p = Id on the sphere).
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import RegimeViolation, ValidationError, ZeroVector

__all__ = [
    "Regime",
    "Norm",
    "MediumPair",
    "norm_eval",
    "norm_gradient",
    "dual_norm_eval",
    "dual_gradient",
    "norm_hessian",
    "contrast_kappa",
]


class Regime(enum.Enum):
    """Refraction regime of an ordered medium pair."""

    CASE_I = "CaseI"    # kappa = sup N2 on Sigma1 < 1 (into a "faster" medium)
    CASE_II = "CaseII"  # kappa = inf N2 on Sigma1 > 1 (into a "slower" medium)


class Norm:
    """A strictly convex C1 norm on R^n, n in {2, 3}.

    Instances are immutable: derived matrices are precomputed once and the
    object is safe for concurrent read access.
    """

    __slots__ = ("kind", "dim", "A", "q", "_AtA", "_Ainv", "_AinvT", "_dualA")

    def __init__(self, kind: str, dim: int, A=None, q=None):
        if dim not in (2, 3):
            raise ValidationError(f"dimension must be 2 or 3, got {dim}")
        self.kind = kind
        self.dim = dim
        if kind == "ellipsoidal":
            A = np.asarray(A, dtype=float)
            if A.shape != (dim, dim):
                raise ValidationError(f"A must be {dim}x{dim}, got {A.shape}")
            if abs(np.linalg.det(A)) < 1e-14:
                raise ValidationError("A must be invertible")
            self.A = A
            self.q = None
            self._AtA = A.T @ A
            self._Ainv = np.linalg.inv(A)
            self._AinvT = self._Ainv.T
            self._dualA = self._Ainv @ self._AinvT  # A^{-1} A^{-t}
        elif kind == "lq":
            if not (q is not None and 1.0 < float(q) < np.inf):
                raise ValidationError(f"lq exponent must lie in (1, inf), got {q}")
            self.A = None
            self.q = float(q)
            self._AtA = self._Ainv = self._AinvT = self._dualA = None
        else:
            raise ValidationError(f"unknown norm kind {kind!r}")

    @classmethod
    def ellipsoidal(cls, A) -> "Norm":
        A = np.asarray(A, dtype=float)
        return cls("ellipsoidal", A.shape[0], A=A)

    @classmethod
    def lq(cls, q: float, dim: int = 3) -> "Norm":
        return cls("lq", dim, q=q)

    @classmethod
    def isotropic(cls, n: float, dim: int = 3) -> "Norm":
        """Isotropic medium with refractive index n: N(x) = n|x|."""
        return cls.ellipsoidal(n * np.eye(dim))

    def dual(self) -> "Norm":
        """The dual norm as a Norm object (ellipsoidal -> A^{-t}, lq -> q')."""
        if self.kind == "ellipsoidal":
            return Norm.ellipsoidal(self._AinvT)
        return Norm.lq(self.q / (self.q - 1.0), self.dim)

    def to_json_dict(self) -> dict:
        if self.kind == "ellipsoidal":
            return {"kind": "ellipsoidal", "A": self.A.tolist()}
        return {"kind": "lq", "q": self.q, "dim": self.dim}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Norm":
        if not isinstance(d, dict):
            raise ValidationError(f"a norm must be an object, got {d!r}")
        kind = d.get("kind")
        try:
            if kind == "ellipsoidal":
                return cls.ellipsoidal(np.asarray(d["A"], dtype=float))
            if kind == "lq":
                return cls.lq(float(d["q"]), int(d["dim"]))
        except KeyError as exc:
            raise ValidationError(f"{kind} norm is missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed {kind} norm: {exc}") from None
        raise ValidationError(f"unknown norm kind {kind!r}")

    def __repr__(self):
        if self.kind == "ellipsoidal":
            return f"Norm.ellipsoidal({self.A.tolist()})"
        return f"Norm.lq({self.q}, dim={self.dim})"


def norm_eval(norm: Norm, x) -> np.ndarray:
    """N(x).  Accepts a single vector or an array of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    if norm.kind == "ellipsoidal":
        return np.linalg.norm(x @ norm.A.T, axis=-1)
    return np.sum(np.abs(x) ** norm.q, axis=-1) ** (1.0 / norm.q)


def norm_gradient(norm: Norm, x) -> np.ndarray:
    """p(x) = grad N(x); homogeneous of degree zero.  Batched like norm_eval."""
    x = np.asarray(x, dtype=float)
    n = norm_eval(norm, x)
    if np.any(n == 0.0):
        raise ZeroVector("gradient undefined at the origin")
    if norm.kind == "ellipsoidal":
        return (x @ norm._AtA) / n[..., None]
    q = norm.q
    return np.sign(x) * np.abs(x) ** (q - 1.0) / n[..., None] ** (q - 1.0)


def dual_norm_eval(norm: Norm, y) -> np.ndarray:
    """N*(y) = sup_{N(x)=1} |x.y|."""
    y = np.asarray(y, dtype=float)
    if norm.kind == "ellipsoidal":
        return np.linalg.norm(y @ norm._Ainv, axis=-1)  # |A^{-t} y|
    qd = norm.q / (norm.q - 1.0)
    return np.sum(np.abs(y) ** qd, axis=-1) ** (1.0 / qd)


def dual_gradient(norm: Norm, y) -> np.ndarray:
    """p*(y) = grad N*(y); satisfies p*(p(x)) = x / N(x)."""
    y = np.asarray(y, dtype=float)
    nd = dual_norm_eval(norm, y)
    if np.any(nd == 0.0):
        raise ZeroVector("dual gradient undefined at the origin")
    if norm.kind == "ellipsoidal":
        return (y @ norm._dualA) / nd[..., None]
    qd = norm.q / (norm.q - 1.0)
    return np.sign(y) * np.abs(y) ** (qd - 1.0) / nd[..., None] ** (qd - 1.0)


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


def _ratio_extremum(n1: Norm, n2: Norm, maximize: bool, restarts: int,
                    max_iter: int, tol: float, seed: int) -> float:
    """Multistart projected gradient ascent/descent of N2 on the unit sphere
    of N1 (equivalently of the 0-homogeneous ratio N2/N1)."""
    rng = np.random.default_rng(seed)
    sign = 1.0 if maximize else -1.0
    best = -np.inf
    for _ in range(restarts):
        y = rng.standard_normal(n1.dim)
        y /= norm_eval(n1, y)
        val = sign * float(norm_eval(n2, y))
        for _ in range(max_iter):
            g = sign * (norm_gradient(n2, y) / norm_eval(n2, y)
                        - norm_gradient(n1, y) / norm_eval(n1, y))
            step = 0.5
            gain = 0.0
            for _ in range(40):
                y_new = y + step * g
                y_new /= norm_eval(n1, y_new)
                v_new = sign * float(norm_eval(n2, y_new))
                if v_new > val:
                    gain = v_new - val
                    y, val = y_new, v_new
                    break
                step *= 0.5
            if gain < tol:
                break
        best = max(best, val)
    return sign * best


def contrast_kappa(n1: Norm, n2: Norm, restarts: int = 32,
                   seed: int = 0) -> tuple[float, Regime]:
    """Contrast constant of the ordered pair (N1, N2) and its regime.

    Case I:  kappa = sup_{N1(x)=1} N2(x) < 1 (unit sphere of N1 strictly
    inside that of N2); Case II: kappa = inf_{N1(x)=1} N2(x) > 1.  For an
    ellipsoidal pair both extrema are the extreme singular values of
    A2 A1^{-1}; other pairs use multistart projected gradient search.

    Raises RegimeViolation when neither inequality holds strictly.
    """
    if n1.dim != n2.dim:
        raise ValidationError("norms must share the same dimension")
    if n1.kind == "ellipsoidal" and n2.kind == "ellipsoidal":
        s = np.linalg.svd(n2.A @ n1._Ainv, compute_uv=False)
        sup_val, inf_val = float(s[0]), float(s[-1])
    else:
        sup_val = _ratio_extremum(n1, n2, True, restarts, 500, 1e-12, seed)
        inf_val = _ratio_extremum(n1, n2, False, restarts, 500, 1e-12, seed + 1)
    if sup_val < 1.0:
        return sup_val, Regime.CASE_I
    if inf_val > 1.0:
        return inf_val, Regime.CASE_II
    raise RegimeViolation(
        f"N2 over Sigma1 spans [{inf_val:.6g}, {sup_val:.6g}], which straddles 1"
    )


class MediumPair:
    """Ordered pair of media with cached contrast constant and regime.

    Immutable after construction; safe for concurrent reads.
    """

    __slots__ = ("n1", "n2", "kappa", "regime")

    def __init__(self, n1: Norm, n2: Norm, seed: int = 0):
        self.n1 = n1
        self.n2 = n2
        self.kappa, self.regime = contrast_kappa(n1, n2, seed=seed)

    @classmethod
    def isotropic(cls, n1: float, n2: float, dim: int = 3) -> "MediumPair":
        return cls(Norm.isotropic(n1, dim), Norm.isotropic(n2, dim))

    @property
    def dim(self) -> int:
        return self.n1.dim

    def denominators(self, nodes, directions) -> np.ndarray:
        """denom(x, m) = 1 - x.p2(m) in Case I and x.p2(m) - 1 in Case II.

        The surface through m reaches x iff denom > 0; its radius there is
        b / denom.  nodes (J, n) against directions (N, n) gives (J, N); a
        single direction (n,) gives (J,).  The only place the regime's sign
        is applied.
        """
        dots = np.asarray(nodes, dtype=float) @ norm_gradient(
            self.n2, directions).T
        return 1.0 - dots if self.regime is Regime.CASE_I else dots - 1.0

    def __repr__(self):
        return (f"MediumPair(kappa={self.kappa:.6g}, "
                f"regime={self.regime.value}, n1={self.n1!r}, n2={self.n2!r})")
