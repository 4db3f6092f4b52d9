"""Vector Snell law at a plane interface between two norm media.

An incident direction x on the unit sphere of N1 hitting a plane with unit
normal nu (oriented from medium I to medium II) refracts into the unique
m on the unit sphere of N2 with

    p2(m) - p1(x) = lambda * nu,        m . nu >= 0,

where p_i = grad N_i.  Equivalently m is read off the Fermat least-optical-
path point; `fermat_path` computes that minimizer directly and serves as an
independent oracle for `refract`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (ConstraintViolation, ConvergenceFailure, NoRefraction,
                     ValidationError, ZeroVector)
from .geometry import tangent_basis
from .norms import (MediumPair, Norm, Regime, norm_eval, norm_gradient,
                    norm_hessian)

__all__ = ["RefractionEvent", "refract", "fermat_path", "check_constraint"]


@dataclass(frozen=True)
class RefractionEvent:
    """One refraction: incident x (on Sigma1), unit interface normal nu,
    refracted m (on Sigma2) and the multiplier lambda in p2(m) = p1(x) + lambda nu."""

    x: np.ndarray
    nu: np.ndarray
    m: np.ndarray
    lam: float

    def m_unit(self) -> np.ndarray:
        """Euclidean unit vector of the refracted ray."""
        return self.m / np.linalg.norm(self.m)

    def to_json_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "nu": self.nu.tolist(),
            "m": self.m.tolist(),
            "m_unit": self.m_unit().tolist(),
            "lambda": self.lam,
        }


def _candidates_ellipsoidal(d: Norm, p1: np.ndarray, nu: np.ndarray):
    """Roots of N2*(p1 + lam nu) = 1 for ellipsoidal N2 (a quadratic); d is
    N2*, whose matrix is A2^{-t}."""
    u = d.A @ p1
    v = d.A @ nu
    a = v @ v
    b = 2.0 * (u @ v)
    c = u @ u - 1.0
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = np.sqrt(disc)
    return [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]


def _candidates_bisection(d: Norm, p1: np.ndarray, nu: np.ndarray):
    """Roots of g(lam) = N2*(p1 + lam nu) - 1 for a general strictly convex N2;
    d is N2*.

    g is strictly convex and coercive; its derivative p2*(p1 + lam nu).nu is
    increasing, so the minimizer is bracketed by a sign change of g' and each
    root by a sign change of g.
    """
    def g(lam):
        return float(norm_eval(d, p1 + lam * nu)) - 1.0

    def gp(lam):
        return float(norm_gradient(d, p1 + lam * nu) @ nu)

    L = 1.0 + float(norm_eval(d, p1))
    while gp(L) <= 0.0:
        L *= 2.0
    lo = -L
    while gp(lo) >= 0.0:
        lo *= 2.0
    hi = L
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gp(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam_min = 0.5 * (lo + hi)
    if g(lam_min) > 0.0:
        return []

    roots = []
    for side in (-1.0, 1.0):
        a, b = lam_min, lam_min + side
        while g(b) < 0.0:
            b += side * max(1.0, abs(b))
        for _ in range(200):
            mid = 0.5 * (a + b)
            if g(mid) < 0.0:
                a = mid
            else:
                b = mid
            if abs(b - a) < 1e-12 * (1.0 + abs(a)):
                break
        roots.append(0.5 * (a + b))
    return roots


def refract(pair: MediumPair, x, nu) -> RefractionEvent:
    """Refract direction x through a plane with unit normal nu.

    x is rescaled onto the unit sphere of N1 and nu Euclidean-normalized.
    Raises ValidationError or ZeroVector unless x and nu are finite, nonzero
    and of the pair's dimension, NoRefraction when no admissible refracted
    direction exists (total reflection in Case I geometries) and
    ConstraintViolation when x points away from the interface (x.nu < 0).
    """
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    for name, v in (("x", x), ("nu", nu)):
        if v.shape != (pair.dim,) or not np.all(np.isfinite(v)):
            raise ValidationError(f"{name} must be {pair.dim} finite numbers, "
                                  f"got {v.tolist()}")
        if not np.any(v):
            raise ZeroVector(f"{name} must be nonzero")
    x = x / norm_eval(pair.n1, x)
    nu = nu / np.linalg.norm(nu)
    if float(x @ nu) < -1e-9:
        raise ConstraintViolation(f"incident ray must satisfy x.nu >= 0, got {x @ nu:.3e}")

    p1 = norm_gradient(pair.n1, x)
    d = pair.n2.dual()
    if d.kind == "ellipsoidal":
        lams = _candidates_ellipsoidal(d, p1, nu)
    else:
        lams = _candidates_bisection(d, p1, nu)
    if not lams:
        raise NoRefraction("the Snell line misses the dual sphere of N2")

    ms = [norm_gradient(d, p1 + lam * nu) for lam in lams]
    k = int(np.argmax([m @ nu for m in ms]))  # the first of equal dots
    m, lam, dot = ms[k], lams[k], float(ms[k] @ nu)
    if dot < -1e-9:
        raise ConstraintViolation(f"computed refracted ray has m.nu = {dot:.3e} < 0")
    return RefractionEvent(x=x, nu=nu, m=m, lam=float(lam))


def fermat_path(pair, X, Y, plane) -> np.ndarray:
    """Least-optical-path point on the plane between X (medium I) and Y.

    pair is a MediumPair or a bare (N1, N2) tuple (the path functional needs
    no refraction regime, so equal media are fine here).  plane = (point,
    normal).  Minimizes F(P) = N1(P - X) + N2(Y - P) over the plane by damped
    Newton in the Householder chart of the normal; F is strictly convex there
    so the minimizer is unique.  Tolerance 1e-12 on the chart gradient, at
    most 200 iterations (ConvergenceFailure beyond that).
    """
    if isinstance(pair, tuple):
        pair = SimpleNamespace(n1=pair[0], n2=pair[1])
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    P0, nu = (np.asarray(v, dtype=float) for v in plane)
    nu = nu / np.linalg.norm(nu)
    E = tangent_basis(nu)

    # start at the segment/plane intersection (exact answer for equal media)
    denom = float((Y - X) @ nu)
    s = float((P0 - X) @ nu) / denom if abs(denom) > 1e-300 else 0.5
    P_init = X + np.clip(s, 0.0, 1.0) * (Y - X)
    t = E.T @ (P_init - P0)

    def value_grad(t):
        P = P0 + E @ t
        a = P - X
        b = Y - P
        F = float(norm_eval(pair.n1, a) + norm_eval(pair.n2, b))
        g = E.T @ (norm_gradient(pair.n1, a) - norm_gradient(pair.n2, b))
        return F, g, a, b

    F, g, a, b = value_grad(t)
    for _ in range(200):
        if np.linalg.norm(g) <= 1e-12:
            return P0 + E @ t
        H = E.T @ (norm_hessian(pair.n1, a) + norm_hessian(pair.n2, b)) @ E
        lam = 0.0
        for _ in range(60):
            try:
                step = np.linalg.solve(H + lam * np.eye(H.shape[0]), -g)
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, 1e-8)
                continue
            alpha = 1.0
            for _ in range(40):
                F_new, g_new, a_new, b_new = value_grad(t + alpha * step)
                if F_new < F or np.linalg.norm(g_new) < np.linalg.norm(g):
                    break
                alpha *= 0.5
            else:
                lam = max(10.0 * lam, 1e-8)
                continue
            t = t + alpha * step
            F, g, a, b = F_new, g_new, a_new, b_new
            break
        else:
            raise ConvergenceFailure("damped Newton could not find a descent step")
    if np.linalg.norm(g) <= 1e-12:
        return P0 + E @ t
    raise ConvergenceFailure(
        f"Fermat minimizer not converged: |grad| = {np.linalg.norm(g):.3e}"
    )


def check_constraint(pair: MediumPair, x, m) -> bool:
    """Physical admissibility of the pair (incident x, refracted m).

    Case I (kappa < 1): m . p1(x) >= 1; Case II (kappa > 1): x . p2(m) >= 1,
    both with a 1e-12 slack.  For isotropic media these reduce to
    x.m >= n2/n1 and x.m >= n1/n2 for Euclidean unit vectors.
    """
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    if pair.regime is Regime.CASE_I:
        return float(m @ norm_gradient(pair.n1, x)) >= 1.0 - 1e-12
    return float(x @ norm_gradient(pair.n2, m)) >= 1.0 - 1e-12
