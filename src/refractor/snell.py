"""Vector Snell law at a plane interface between two norm media.

An incident direction x on the unit sphere of N1 hitting a plane with unit
normal nu (oriented from medium I to medium II) refracts into the unique
m on the unit sphere of N2 with

    p2(m) - p1(x) = lambda * nu,        m . nu >= 0,

where p_i = grad N_i.  `refract` finds lambda as the larger root of
N2*(p1(x) + lambda nu) = 1 by one Newton iteration, the same for every norm
family, and reads m = p2*(p1(x) + lambda nu).  Equivalently m is read off
the Fermat least-optical-path point; `fermat_path` computes that minimizer
directly and serves as an independent oracle for `refract`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConstraintViolation, NoRefraction, NonConvergence,
                     ValidationError, ZeroVector)
from .geometry import tangent_basis
from .norms import MediumPair, Norm, norm_eval, norm_gradient, norm_hessian

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


def _transmitted_root(d: Norm, p1: np.ndarray, nu: np.ndarray):
    """(lambda, m) at the larger root of g(lam) = N2*(p1 + lam nu) - 1, where
    d is N2* and m = p2*(p1 + lam nu); raises NoRefraction without a root.

    g is convex with g' = m.nu.  At lam0 = (1 + 2 N2*(p1)) / N2*(nu) the
    triangle inequality gives g >= N2*(p1), and Euler's identity m.y = N2*(y)
    with |m.p1| <= N2*(p1) gives lam0 g' >= 1, so Newton steps from lam0
    fall monotonically onto the larger root, where m.nu = g' > 0: that root
    is the transmitted ray.  A step that meets g' <= 0 has passed the
    minimum of g, which is then positive.  g is evaluated as N2*(y) - 1, not
    as m.y - 1, which would carry the rounding of m.  The iteration stops
    once a step no longer lowers lam.
    """
    lam = (1.0 + 2.0 * float(norm_eval(d, p1))) / float(norm_eval(d, nu))
    for _ in range(100):
        y = p1 + lam * nu
        m = norm_gradient(d, y)
        gp = float(m @ nu)
        if gp <= 0.0:
            raise NoRefraction("the Snell line misses the dual sphere of N2")
        step = (float(norm_eval(d, y)) - 1.0) / gp
        if not lam - step < lam:
            return lam, m
        lam -= step
    raise NonConvergence("Newton on the Snell line did not settle in 100 "
                         "steps")


def refract(pair: MediumPair, x, nu) -> RefractionEvent:
    """Refract direction x through a plane with unit normal nu.

    x is rescaled onto the unit sphere of N1 and nu Euclidean-normalized.
    lambda is the larger root of N2*(p1(x) + lambda nu) = 1
    (`_transmitted_root`), where m . nu > 0.  Raises ValidationError or
    ZeroVector unless x and nu are finite, nonzero and of the pair's
    dimension, NoRefraction when no refracted direction exists (total
    reflection in Case I geometries) and ConstraintViolation when x points
    away from the interface (x.nu < 0).
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
    lam, m = _transmitted_root(pair.n2.dual(), norm_gradient(pair.n1, x), nu)
    return RefractionEvent(x=x, nu=nu, m=m, lam=lam)


def fermat_path(n1: Norm, n2: Norm, X, Y, plane) -> np.ndarray:
    """Least-optical-path point on the plane between X (medium I) and Y.

    The path functional needs no refraction regime, so equal media are fine
    here.  plane = (point, normal).  Minimizes F(P) = N1(P - X) + N2(Y - P)
    over the plane by damped Newton in the Householder chart of the normal;
    F is strictly convex there so the minimizer is unique.  Tolerance 1e-12
    on the chart gradient, at most 200 iterations (NonConvergence beyond
    that).
    """
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
        F = float(norm_eval(n1, a) + norm_eval(n2, b))
        g = E.T @ (norm_gradient(n1, a) - norm_gradient(n2, b))
        return F, g, a, b

    F, g, a, b = value_grad(t)
    for _ in range(200):
        if np.linalg.norm(g) <= 1e-12:
            return P0 + E @ t
        H = E.T @ (norm_hessian(n1, a) + norm_hessian(n2, b)) @ E
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
            raise NonConvergence("damped Newton could not find a descent step")
    if np.linalg.norm(g) <= 1e-12:
        return P0 + E @ t
    raise NonConvergence(
        f"Fermat minimizer not converged: |grad| = {np.linalg.norm(g):.3e}"
    )


def check_constraint(pair: MediumPair, x, m) -> bool:
    """Physical admissibility of incident x on Sigma1 and refracted m on
    Sigma2: the pair's denominators and margins, nu.x and nu.m, >= -1e-12.
    Case I can fail only m.p1(x) >= 1 (isotropic: x.m >= n2/n1 for unit
    vectors), Case II only x.p2(m) >= 1 (x.m >= n1/n2)."""
    return min(float(pair.denominators(x, m)),
               float(pair.margins(x, m))) >= -1e-12
