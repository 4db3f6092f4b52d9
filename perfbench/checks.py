"""Output checks of every benchmark op, and their negative self-test.

A check takes an op's exit code and output text and returns the reason the
op failed, or None when it passed.  The mass recount uses the program's
source quadrature (built once in set-up) but its own gradients, argmin and
tie split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def gradient(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """grad |A x| for each row of x."""
    return (x @ (A.T @ A)) / np.linalg.norm(x @ A.T, axis=-1)[:, None]


def source(problem: dict):
    """The program's source quadrature of a problem.  Problems of one
    workload differ only in their targets, so they share it."""
    from refractor.problems import load_problem

    return load_problem(problem).build()[1]


@dataclass(frozen=True)
class Reference:
    """What a design of one problem must satisfy."""

    p2: np.ndarray        # (N, 3) grad N2(m_i)
    g: np.ndarray         # (N,) target masses scaled to the quadrature total
    b1: float
    tol: float
    src: object           # the program's SourceDensity: nodes, weights, total


def reference(problem: dict, src) -> Reference:
    A2 = np.asarray(problem["media"]["A2"], float)
    m = np.asarray([t["m"] for t in problem["targets"]], float)
    g = np.asarray([t["g"] for t in problem["targets"]], float)
    return Reference(p2=gradient(A2, m), g=g * (src.total / g.sum()),
                     b1=float(problem["b1"]), tol=float(problem["tol"]),
                     src=src)


def recount(ref: Reference, radii: np.ndarray) -> np.ndarray:
    """Case I cell masses of the refractor with these radii: argmin of
    b_i / (1 - x.p2(m_i)) over targets, ties within 1e-12 relative split
    equally."""
    h = radii / (1.0 - ref.src.nodes @ ref.p2.T)
    tie = h <= h.min(axis=1)[:, None] * (1.0 + 1e-12)
    return (ref.src.weights / tie.sum(axis=1)) @ tie


def _payload(rc: int, text: str | None):
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(text), None
    except (TypeError, ValueError):
        return None, "output is not JSON"


def design_check(ref: Reference, golden: list[float] | None = None):
    """Check of a `design` output: radii[0] = b1, reported residual <= tol,
    recounted masses within tol * total of the targets and, for the golden
    problem, radii equal to the golden file's to 1e-12 relative."""
    def check(rc: int, text: str | None) -> str | None:
        out, why = _payload(rc, text)
        if why:
            return why
        radii = np.asarray(out["radii"], float)
        if radii.shape != ref.g.shape or not np.all(radii > 0.0):
            return "radii missing, misshaped or not positive"
        if radii[0] != ref.b1:
            return f"radii[0] = {radii[0]!r} != b1 = {ref.b1!r}"
        if golden is not None and not np.all(
                np.abs(radii - golden) <= 1e-12 * np.abs(golden)):
            return "radii differ from the golden file"
        if not out["residual"] <= ref.tol:
            return f"reported residual {out['residual']!r} > tol"
        err = np.max(np.abs(recount(ref, radii) - ref.g))
        if not err <= ref.tol * ref.src.total:
            return f"recounted masses off by {err / ref.src.total:.3g} of " \
                   "the total"
        return None
    return check


def verify_check(rc: int, text: str | None) -> str | None:
    """Check of a `verify` output: the transport oracle agrees."""
    out, why = _payload(rc, text)
    if why:
        return why
    return None if out.get("agrees") is True else "agrees is not true"


def self_test(design, design_text: str, verify_text: str) -> list[str]:
    """Each broken output must fail its check.  `design_text` and
    `verify_text` are outputs that passed.  Returns the misses."""
    misses = []
    out = json.loads(design_text)
    out["radii"][1] *= 1.05
    if design(0, json.dumps(out)) is None:
        misses.append("design with radii[1] * 1.05 passed")
    if design(1, design_text) is None:
        misses.append("design with exit code 1 passed")
    out = json.loads(verify_text)
    out["agrees"] = False
    if verify_check(0, json.dumps(out)) is None:
        misses.append("verify with agrees false passed")
    if verify_check(1, verify_text) is None:
        misses.append("verify with exit code 1 passed")
    return misses
