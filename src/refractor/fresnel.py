"""Fresnel wave-surface algebra for homogeneous anisotropic materials.

A material with SPD permittivity eps and permeability mu has the reduced
matrix tau = mu^{-1/2} eps mu^{-1/2} = O diag(tau_1, tau_2, tau_3) O^t.  In
the principal frame the momentum quartic factors through

    Phi(p) = 1/2 (1/tau2 + 1/tau3) p1^2 + 1/2 (1/tau1 + 1/tau3) p2^2
             + 1/2 (1/tau1 + 1/tau2) p3^2,
    Psi(p) = |p|^2 (p1^2/(tau2 tau3) + p2^2/(tau1 tau3) + p3^2/(tau1 tau2)),

with Phi^2 >= Psi always, and the surface 1 - 2 Phi + Psi = 0 splits into an
inner and an outer sheet.  The sheets coincide exactly when mu = a * eps, in
which case the material carries a single ellipsoidal norm (induced_norm) and
plugs into the refraction toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonrealRoots, NotProportional, ValidationError
from .norms import Norm

__all__ = ["FresnelMaterial", "SheetRadii", "phi_psi", "sheet_radii",
           "induced_norm", "single_sheet_check"]


def _check_spd(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ValidationError(f"{name} must be 3x3")
    if not np.allclose(M, M.T, atol=1e-12 * max(1.0, float(np.abs(M).max()))):
        raise ValidationError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(M)) <= 0.0:
        raise ValidationError(f"{name} must be positive definite")
    return 0.5 * (M + M.T)


def _spd_power(M: np.ndarray, exponent: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(M)
    vals = np.maximum(vals, 1e-14)  # clamp roundoff on guaranteed-SPD input
    return (vecs * vals ** exponent) @ vecs.T


class FresnelMaterial:
    """Permittivity/permeability pair with its reduced spectral data.

    Immutable; tau_i are sorted ascending with the principal frame O as
    numpy's eigh returns it (its column signs are arbitrary; nothing reads
    them, since the sheet functions square the frame coordinates).
    """

    __slots__ = ("eps", "mu_perm", "tau", "O", "taus")

    def __init__(self, eps, mu_perm):
        self.eps = _check_spd(eps, "eps")
        self.mu_perm = _check_spd(mu_perm, "mu_perm")
        mih = _spd_power(self.mu_perm, -0.5)
        tau = mih @ self.eps @ mih
        self.tau = 0.5 * (tau + tau.T)
        self.taus, self.O = np.linalg.eigh(self.tau)  # ascending order

    @classmethod
    def isotropic(cls, eps: float, mu: float) -> "FresnelMaterial":
        return cls(eps * np.eye(3), mu * np.eye(3))


@dataclass(frozen=True)
class SheetRadii:
    """Radii of the two momentum sheets along a direction (inner <= outer)."""

    direction: np.ndarray
    r_inner: float
    r_outer: float


def phi_psi(mat: FresnelMaterial, p):
    """Phi and Psi at p given in the principal (tau-eigen) frame.

    Batched over leading axes of p.  Both are homogeneous (degrees 2 and 4)
    and Phi^2 >= Psi holds for every p.
    """
    p = np.asarray(p, dtype=float)
    t1, t2, t3 = mat.taus
    p2 = p * p
    phi = 0.5 * ((1.0 / t2 + 1.0 / t3) * p2[..., 0]
                 + (1.0 / t1 + 1.0 / t3) * p2[..., 1]
                 + (1.0 / t1 + 1.0 / t2) * p2[..., 2])
    psi = p2.sum(axis=-1) * (p2[..., 0] / (t2 * t3)
                             + p2[..., 1] / (t1 * t3)
                             + p2[..., 2] / (t1 * t2))
    return phi, psi


def sheet_radii(mat: FresnelMaterial, u) -> SheetRadii:
    """Radii r with r*u on each sheet, for a lab-frame unit direction u.

    Since Phi(ru) = r^2 Phi(u) and Psi(ru) = r^4 Psi(u), the sheet condition
    1 - 2 Phi + Psi = 0 is the quadratic Psi(u) s^2 - 2 Phi(u) s + 1 = 0 in
    s = r^2; its two positive roots give the sorted radii.
    """
    u = np.asarray(u, dtype=float)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValidationError("direction must be nonzero")
    u = u / nrm
    pu = mat.O.T @ u
    phi, psi = phi_psi(mat, pu)
    phi = float(phi)
    psi = float(psi)
    disc = phi * phi - psi
    if disc < -1e-12 * max(1.0, phi * phi):
        raise NonrealRoots(f"Phi^2 - Psi = {disc:.3e} < 0")
    disc = max(disc, 0.0)
    root = np.sqrt(disc)
    s_outer = (phi + root) / psi
    s_inner = 1.0 / (phi + root)  # product of the roots is 1/psi
    return SheetRadii(direction=u, r_inner=float(np.sqrt(s_inner)),
                      r_outer=float(np.sqrt(s_outer)))


def _proportionality(mat: FresnelMaterial) -> float:
    a = float(np.trace(mat.mu_perm) / np.trace(mat.eps))
    resid = np.linalg.norm(mat.mu_perm - a * mat.eps)
    if resid > 1e-9 * np.linalg.norm(mat.mu_perm):
        raise NotProportional(
            f"mu deviates from a*eps by {resid:.3e} (relative); the material "
            "is bi-refringent and induces no single norm")
    return a


def induced_norm(mat: FresnelMaterial) -> Norm:
    """The ellipsoidal norm N(x) = (det mu^{1/2} / sqrt(a)) |mu^{-1/2} x| of a
    single-sheet material (mu = a * eps); raises NotProportional otherwise."""
    a = _proportionality(mat)
    mu_half = _spd_power(mat.mu_perm, 0.5)
    A = (np.linalg.det(mu_half) / np.sqrt(a)) * _spd_power(mat.mu_perm, -0.5)
    return Norm.ellipsoidal(A)


def single_sheet_check(mat: FresnelMaterial) -> bool:
    """True iff the two sheets coincide: Phi^2 == Psi on 1000 sampled
    momenta (equivalently mu proportional to eps)."""
    p = np.random.default_rng(0).standard_normal((1000, 3))
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    phi, psi = phi_psi(mat, p)
    gap = np.abs(phi * phi - psi) / np.maximum(phi * phi, 1.0)
    return float(np.max(gap)) <= 1e-10

