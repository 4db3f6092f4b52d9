"""Time the design solve over a grid of node counts J and target counts N.

    python benchmarks/bench_solve.py --out results.json \
        --baseline OTHER_CHECKOUT/src --baseline-label parent

Each grid row is an isotropic Case I problem: media 1.5 -> 1.0, a 0.25 rad
cap of J nodes, tol 1e-3 and b1 = 1.  Its targets come from
``numpy.random.default_rng(1)``: the cap axis, then N - 1 directions at
axis + 0.1 N(0, I), with masses U(0.5, 1.5) scaled to the source total.

Every timed solve runs in a fresh interpreter with OPENBLAS_NUM_THREADS=1
that builds the quadrature (timed apart) and then times one
``solve_discrete`` call in-process.  With ``--baseline`` the same rows are
also solved by the ``refractor`` package in that source directory, and the
two alternate run by run, so both see the same drift in machine speed.
Each row reports the median solve time and every run, the sweeps, the
target-radius updates, the updates that read all J nodes (``band_misses``;
null for a version that does not count them) and a digest of the radii and
residual history, which must agree between versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GRID = "20000x5,20000x20,20000x50,80000x5"
PROBLEM = ("isotropic Case I, 1.5 -> 1.0, 0.25 rad cap, tol 1e-3, b1 = 1; "
           "targets: the axis plus N - 1 at axis + 0.1 N(0, I) and masses "
           "U(0.5, 1.5), from default_rng(1)")


def solve_once(J: int, N: int) -> dict:
    """Build row (J, N), solve it once and time both steps (child side)."""
    import numpy as np

    from refractor.norms import MediumPair
    from refractor.solver import SourceDensity, TargetMeasure, solve_discrete

    axis = np.array([0.0, 0.0, 1.0])
    pair = MediumPair.isotropic(1.5, 1.0)
    t = time.perf_counter()
    src = SourceDensity.from_cap(pair.n1, axis, 0.25, J)
    quadrature = time.perf_counter() - t
    rng = np.random.default_rng(1)
    m = np.vstack([axis, axis + 0.1 * rng.standard_normal((N - 1, 3))])
    g = rng.uniform(0.5, 1.5, N)
    tgt = TargetMeasure.of(pair.n2, m, g * (src.total / g.sum()))
    t = time.perf_counter()
    r = solve_discrete(pair, src, tgt, 1.0, tol=1e-3)
    solve = time.perf_counter() - t
    digest = hashlib.sha256(r.radii.tobytes() + np.array(
        r.info.residual_history).tobytes()).hexdigest()[:16]
    return {"solve_s": solve, "quadrature_s": quadrature,
            "sweeps": r.info.sweeps,
            "updates": getattr(r.info, "updates", None),
            "band_misses": getattr(r.info, "band_misses", None),
            "digest": digest}


def run_child(src: Path, J: int, N: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--child", str(J),
                          str(N)], env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"solve of {J}x{N} with {src} failed:\n"
                         f"{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    times = [r["solve_s"] for r in runs]
    first = runs[0]
    return {"solve_s": statistics.median(times), "solve_s_runs": times,
            "quadrature_s": statistics.median(r["quadrature_s"]
                                              for r in runs),
            **{k: first[k] for k in ("sweeps", "updates", "band_misses",
                                     "digest")}}


def parse_grid(text: str) -> list[tuple[int, int]]:
    rows = []
    for item in text.split(","):
        J, N = (int(v) for v in item.lower().split("x"))
        if J < 12 or N < 1:
            raise SystemExit(f"bad grid row {item!r}: need J >= 12, N >= 1")
        rows.append((J, N))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="JSON file to write")
    ap.add_argument("--grid", default=GRID,
                    help=f"comma-separated JxN rows (default {GRID})")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed solves per row and version (default 3)")
    ap.add_argument("--label", default="current",
                    help="name of this checkout's version in the output")
    ap.add_argument("--baseline", type=Path,
                    help="source directory of a version to compare with")
    ap.add_argument("--baseline-label", default="baseline")
    ap.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(solve_once(*args.child)))
        return 0
    if args.out is None:
        ap.error("--out is required")
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    versions = {args.label: SRC}
    if args.baseline is not None:
        versions[args.baseline_label] = args.baseline
    rows = []
    for J, N in parse_grid(args.grid):
        runs = {name: [] for name in versions}
        for _ in range(args.repeats):
            for name, src in versions.items():
                runs[name].append(run_child(src, J, N))
        row = {"J": J, "N": N,
               **{name: summary(r) for name, r in runs.items()}}
        if args.baseline is not None:
            mine, base = row[args.label], row[args.baseline_label]
            row["same_result"] = mine["digest"] == base["digest"]
            row["time_ratio"] = mine["solve_s"] / base["solve_s"]
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    import numpy

    result = {
        "benchmark": "design solve over a J x N grid",
        "problem": PROBLEM,
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__,
                        "machine": platform.machine(),
                        "nproc": len(os.sched_getaffinity(0)),
                        "OPENBLAS_NUM_THREADS": "1"},
        "repeats": args.repeats,
        "versions": list(versions),
        "rows": rows,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
