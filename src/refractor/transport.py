"""Optimal-transport verification of designed refractors.

With the cost c(x, m) = -log denom(x, m), denom = 1 - x.p2(m) in Case I and
x.p2(m) - 1 in Case II (+inf where the surface does not reach x), the
supporting structure of a refractor reads log rho(x) = min_i (log b_i +
c(x, m_i)) in both regimes.  Taking u = log rho and v = -log b gives
u_j + v_i <= c_ji with equality exactly on the refractor assignment: the
refractor plan satisfies complementary slackness for the transport problem
minimizing sum(plan * c) between its source quadrature and its own measure.

The refractor's plan is kernels.tally's weight split, which the measure
report carries; `certificate` checks both conditions on it.  The exact LP
plan of `solve_ot_exact` (HiGHS vertex solve, no entropic blur in the tie
band) is an independent oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import Infeasible, ValidationError
from .norms import MediumPair
from .solver import (Refractor, RefractorMeasureReport, SourceDensity,
                     TargetMeasure, refractor_measure, rho_values)

__all__ = ["CostMatrix", "build_cost", "solve_ot_exact", "plan_objective",
           "certificate", "check_c_concavity", "c_concavity_defect",
           "assignment_agreement"]

MAX_NODES = 2000
MAX_TARGETS = 50


@dataclass(frozen=True)
class CostMatrix:
    """Dense node-by-target costs; +inf marks excluded (infeasible) arcs."""

    entries: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return np.isfinite(self.entries)


def build_cost(pair: MediumPair, src: SourceDensity,
               tgt: TargetMeasure) -> CostMatrix:
    """c_ji = -log denom(x_j, m_i).  Case I entries are finite and bounded
    above by log(1/(1-kappa)); arcs with denom <= 0 (Case II's x.p2(m) <= 1)
    are masked with +inf."""
    denom = pair.denominators(src.nodes, tgt.directions)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = -np.log(denom)
    c[denom <= 0.0] = np.inf
    return CostMatrix(entries=c)


def solve_ot_exact(cost: CostMatrix, src: SourceDensity, tgt: TargetMeasure,
                   masses=None) -> np.ndarray:
    """Exact optimal plan (J, N) between the node weights and the target
    masses (tgt.masses unless overridden).

    Minimizes sum(plan * c) over the unmasked arcs.  Raises Infeasible when
    the masked arcs disconnect the instance.
    """
    J, N = cost.entries.shape
    if J > MAX_NODES or N > MAX_TARGETS:
        raise ValidationError(
            f"instance {J}x{N} exceeds the exact-solve budget "
            f"{MAX_NODES}x{MAX_TARGETS}")
    g = np.asarray(tgt.masses if masses is None else masses, dtype=float)
    if g.shape != (N,):
        raise ValidationError("one mass per target required")
    w = src.weights
    feas = cost.feasible
    var_idx = np.flatnonzero(feas.ravel())
    nv = var_idx.size
    cvec = cost.entries.ravel()[var_idx]
    rows_j = var_idx // N
    rows_i = var_idx % N

    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    # node marginals plus all but the last target marginal (redundant row)
    eq_rows = np.concatenate([rows_j, J + rows_i[rows_i < N - 1]])
    eq_cols = np.concatenate([np.arange(nv), np.flatnonzero(rows_i < N - 1)])
    A = coo_matrix((np.ones(eq_rows.size), (eq_rows, eq_cols)),
                   shape=(J + N - 1, nv))
    beq = np.concatenate([w, g[:-1]])
    res = linprog(cvec, A_eq=A.tocsr(), b_eq=beq, bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise Infeasible(f"exact transport solve failed: {res.message}")
    plan = np.zeros(J * N)
    plan[var_idx] = res.x
    return plan.reshape(J, N)


def plan_objective(cost: CostMatrix, plan: np.ndarray) -> float:
    """sum(plan * c) over the supported arcs (masked arcs carry no mass)."""
    mask = plan > 0.0
    if np.any(mask & ~cost.feasible):
        raise Infeasible("plan puts mass on an excluded arc")
    return float(np.sum(plan[mask] * cost.entries[mask]))


def certificate(r: Refractor, src: SourceDensity,
                report: RefractorMeasureReport, cost: CostMatrix) -> dict:
    """Weak-duality certificate of report.plan, u = log rho and v = -log b:
    every arc slack c - u - v >= 0 (excluded arcs give +inf),
    sum(plan * c) = w.u + M.v, and the plan's marginals are w, M."""
    u, v = np.log(report.min_radii), -np.log(r.radii)
    objective = plan_objective(cost, report.plan)
    gap = abs(objective - src.weights @ u - report.masses @ v)
    marginal = max(np.max(np.abs(report.plan.sum(axis=1) - src.weights)),
                   np.max(np.abs(report.plan.sum(axis=0) - report.masses)))
    out = {"min_slack": float(np.min(cost.entries - u[:, None] - v)),
           "duality_gap_rel": float(gap) / max(abs(objective), 1e-300),
           "marginal_error": float(marginal) / src.total,
           "tie_band_mass": float(np.sum(src.weights[report.tie_counts > 1])),
           "total_mass": src.total, "objective": objective,
           "residual": report.residual}
    out["agrees"] = (out["min_slack"] >= -1e-12
                     and out["duality_gap_rel"] <= 1e-9
                     and out["marginal_error"] <= 1e-12)
    return out


def c_concavity_defect(cost: CostMatrix, log_rho: np.ndarray) -> float:
    """Double c-transform defect of a radial log-profile over the nodes.

    phi is representable as min_i (psi_i + c_ji) iff its double transform
    reproduces it; the defect is the max absolute gap, zero (to roundoff)
    exactly for min-envelope refractors.
    """
    c = cost.entries
    psi = np.max(log_rho[:, None] - c, axis=0)
    back = np.min(c + psi[None, :], axis=1)
    return float(np.max(np.abs(back - log_rho)))


def check_c_concavity(r: Refractor, src: SourceDensity,
                      tol: float = 1e-9) -> bool:
    """Support characterization of the refractor's own radial profile:
    log rho must equal min_i(log b_i + c(., m_i)) at every node."""
    cost = build_cost(r.pair, src, r.target)
    log_rho = np.log(rho_values(r, src.nodes))
    direct = np.min(np.log(r.radii)[None, :] + cost.entries, axis=1)
    if float(np.max(np.abs(direct - log_rho))) > tol:
        return False
    return c_concavity_defect(cost, log_rho) <= tol


def assignment_agreement(r: Refractor, src: SourceDensity,
                         plan: np.ndarray, cost: CostMatrix,
                         band_rtol: float = 1e-9) -> dict:
    """Compare the LP plan's dominant target with the refractor map.

    Nodes whose two best surfaces differ by <= band_rtol relative belong to
    the tie band and are exempt.  Returns masses of the band and of genuine
    mismatches, plus the relative objective gap of the induced plan.
    """
    report = refractor_measure(r, src)
    dominant = np.argmax(plan, axis=1)
    top = kernels.Top2.of(kernels.heights(r.denom(src.nodes), r.radii))
    band = (top.second - top.first) <= band_rtol * top.first
    mismatch = (dominant != report.assignment) & ~band
    obj_lp = plan_objective(cost, plan)
    obj_rf = plan_objective(cost, report.plan)
    return {
        "mismatch_mass": float(np.sum(src.weights[mismatch])),
        "tie_band_mass": float(np.sum(src.weights[band])),
        "total_mass": src.total,
        "objective_lp": obj_lp,
        "objective_refractor": obj_rf,
        "objective_gap_rel": abs(obj_rf - obj_lp) / max(abs(obj_lp), 1e-300),
    }
