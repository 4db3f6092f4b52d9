"""Design a survey of random admissible draws and count how they end.

    PYTHONPATH=src python benchmarks/survey.py --out survey.json
    PYTHONPATH=OTHER_CHECKOUT/src python benchmarks/survey.py \
        --out other.json --compare survey.json

The survey has 12 groups: isotropic (1.5 -> 1.0), ellipsoidal (a random
pair about it) and lq (lq(3) -> isotropic 0.5) media, each in Case I and
Case II (the media reversed), in 3D and in 2D, in the order ``for dim in
(3, 2) for media in MEDIA for case2 in (False, True)``.  For each seed S in
SEEDS (1000, 2000, 3000, 4000) group k draws from
``numpy.random.default_rng(S + k)``: 32 draws per 3D group and 16 per 2D
group, 1,152 in all.  Each draw takes ``count = rng.integers(5, 51)``
targets from the tests' ``conftest.admissible_instance`` (a 0.2 rad cap of
4,000 nodes, spread 0.1), masses U(0.5, 1.5) scaled to the source total,
b1 = 1 and tol = max(1e-3, 1.3 (count - 1) max w / total), as
``tests/test_solver.py::newton_instance`` sets them.

Every draw is solved once in this interpreter, with one BLAS thread unless
the environment sets another count.  The script prints how many draws
design, why the closed-form start gave up where it did
(``SolveInfo.fallback``), how the others ended (the exception, and a
``NonConvergence``'s stop), the distribution of fill rounds
(``SolveInfo.sweeps``) over the draws that design, and the total solve
time.  ``--out`` writes one record per draw, with a digest of its radii;
``--compare`` reads such a file, from another checkout say, and counts the
draws that fill no cell in either file and the share of them that keep
their radii bytes.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import admissible_instance, media_pairs  # noqa: E402

from refractor.errors import RefractorError  # noqa: E402
from refractor.solver import TargetMeasure, solve_discrete  # noqa: E402

MEDIA = ("isotropic", "ellipsoidal", "lq")
GROUPS = [(dim, media, case2) for dim in (3, 2) for media in MEDIA
          for case2 in (False, True)]
DRAWS = {3: 32, 2: 16}  # draws per group, by dimension
SEEDS = (1000, 2000, 3000, 4000)  # base seeds, one pass of GROUPS each


def draws(seed: int):
    """The survey's draws for one seed: (key, pair, src, tgt, tol)."""
    for k, (dim, media, case2) in enumerate(GROUPS):
        rng = np.random.default_rng(seed + k)
        for i in range(DRAWS[dim]):
            count = int(rng.integers(5, 51))
            pair, src, dirs = admissible_instance(
                media_pairs(media, case2, dim, rng), rng, 0.2, 4000, count,
                0.1)
            g = rng.uniform(0.5, 1.5, count)
            tgt = TargetMeasure.of(pair.n2, dirs, g * (src.total / g.sum()))
            tol = max(1e-3, 1.3 * (count - 1) * float(np.max(src.weights))
                      / src.total)
            key = f"{seed}/{media}/{'case2' if case2 else 'case1'}/{dim}d/{i}"
            yield key, pair, src, tgt, tol


def solve(pair, src, tgt, tol) -> dict:
    """One draw's record: how it ended, its counters and its solve time."""
    t = time.perf_counter()
    try:
        r = solve_discrete(pair, src, tgt, 1.0, tol)
    except RefractorError as exc:
        return {"N": tgt.count, "seconds": time.perf_counter() - t,
                "outcome": type(exc).__name__,
                "stop": getattr(exc, "stop", None),
                "sweeps": getattr(exc, "sweeps", None)}
    return {"N": tgt.count, "seconds": time.perf_counter() - t,
            "outcome": "designed", "fallback": r.info.fallback,
            "sweeps": r.info.sweeps, "newton_steps": r.info.newton_steps,
            "residual": r.info.residual, "tol": tol,
            "digest": hashlib.sha256(r.radii.tobytes()).hexdigest()[:16]}


def rounds_bin(n: int) -> str:
    """The fill-round bin of n: 0, 1, then 2-3, 4-7, ... by powers of 2."""
    if n < 2:
        return str(n)
    lo = 1 << (n.bit_length() - 1)
    return f"{lo}-{2 * lo - 1}"


def report(records: dict) -> None:
    runs = list(records.values())
    designed = [r for r in runs if r["outcome"] == "designed"]
    print(f"draws: {len(runs)}, designed: {len(designed)}")
    fallbacks = collections.Counter(r["fallback"] for r in designed
                                    if r["fallback"] is not None)
    print(f"fallbacks: {sum(fallbacks.values())}",
          dict(sorted(fallbacks.items())))
    others = collections.Counter(
        r["outcome"] + (f" ({r['stop']})" if r.get("stop") else "")
        for r in runs if r["outcome"] != "designed")
    print("not designed:", dict(sorted(others.items())))
    bins = collections.Counter(rounds_bin(r["sweeps"]) for r in designed)
    order = sorted(bins, key=lambda b: int(b.split("-")[0]))
    print("fill rounds of the designs:", {b: bins[b] for b in order})
    print(f"total solve time: {sum(r['seconds'] for r in runs):.2f} s")


def compare(records: dict, other: dict) -> None:
    """Count the draws that fill no cell in both files and keep their
    radii bytes."""
    plain = [k for k, r in records.items()
             if r.get("sweeps") == 0 and r.get("fallback") is None
             and r["outcome"] == "designed"
             and other.get(k, {}).get("outcome") == "designed"
             and other[k]["sweeps"] == 0 and other[k]["fallback"] is None]
    same = sum(records[k]["digest"] == other[k]["digest"] for k in plain)
    print(f"draws that fill no cell in either: {len(plain)}, keep their "
          f"radii bytes: {same}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="JSON file of the records")
    ap.add_argument("--compare", type=Path,
                    help="JSON records of another run to compare with")
    args = ap.parse_args(argv)
    records = {}
    for seed in SEEDS:
        for key, *draw in draws(seed):
            records[key] = solve(*draw)
    report(records)
    if args.compare is not None:
        compare(records, json.loads(args.compare.read_text()))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
