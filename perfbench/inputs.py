"""Seeded problem generator of the many_targets workload.

Every generated problem is a plain problem JSON (the format of
``problems/iso_5targets.json``) written to the run's work directory; the
program sees only those files.

Isotropic Case I: media 1.5 -> 1.0, a 0.25 rad cap of J = 20k nodes, N = 20
targets, tol 1e-3, b1 = 1.  One reference draw, made with
``numpy.random.default_rng(1)`` as in ``benchmarks/bench_kernels.py --solve``:
target 1 is the mean refracted direction, which by symmetry is the cap axis;
the others are that direction plus ``0.1 * N(0, I)``; the masses are
U(0.5, 1.5).  The workload seed rotates the whole target set about the axis
by a seeded angle.  Fresh i.i.d. draws per seed were measured at 73 to 139
sweeps, rotations of the reference draw at 67 to 93, so a run designs several
rotations and reports the median.
"""

from __future__ import annotations

import json

import numpy as np

AXIS = np.array([0.0, 0.0, 1.0])
TARGETS = 20
SPREAD = 0.1


def _rotation_z(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def generate(seed: int, count: int) -> list[bytes]:
    """`count` problem files (as bytes), fixed by `seed`."""
    ref = np.random.default_rng(1)
    m = np.vstack([AXIS,
                   AXIS + SPREAD * ref.standard_normal((TARGETS - 1, 3))])
    g = ref.uniform(0.5, 1.5, TARGETS)
    thetas = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, count)
    out = []
    for theta in thetas:
        problem = {
            "media": {"A1": (1.5 * np.eye(3)).tolist(),
                      "A2": np.eye(3).tolist()},
            "source": {"axis": AXIS.tolist(), "angle": 0.25,
                       "node_count": 20_000, "density": "uniform"},
            "targets": [{"m": mi.tolist(), "g": float(gi)}
                        for mi, gi in zip(m @ _rotation_z(theta).T, g)],
            "b1": 1.0,
            "tol": 1e-3,
            "seed": seed,
        }
        out.append((json.dumps(problem, indent=1) + "\n").encode())
    return out


def self_test(seed: int) -> list[str]:
    """Problems of one seed repeat byte for byte; another seed changes the
    targets.  Returns the failures found."""
    errors = []
    a = generate(seed, 2)
    if a != generate(seed, 2):
        errors.append(f"seed {seed} does not repeat its files")
    targets = [json.loads(x)["targets"] for x in a]
    if targets == [json.loads(x)["targets"] for x in generate(seed + 1, 2)]:
        errors.append(f"seeds {seed} and {seed + 1} give the same targets")
    return errors
