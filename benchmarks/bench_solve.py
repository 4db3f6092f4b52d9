"""Time the design solve over a grid of node counts J and target counts N,
and ``refractor design`` end to end.

    python benchmarks/bench_solve.py --out results.json \
        --baseline OTHER_CHECKOUT/src --baseline-label parent

Each grid row ``JxN`` is an isotropic Case I problem: media 1.5 -> 1.0, a
0.25 rad cap of J nodes, tol 1e-3 and b1 = 1.  ``JxN:case2`` swaps the
media (isotropic Case II, 1.0 -> 1.5), ``JxN:lq`` refracts from an
isotropic 0.5 medium into an lq(3) one (Case II) and ``JxN:2d`` is the
isotropic 1.5 -> 1.0 row in the plane, on a 0.25 rad arc.  A row's
targets come from ``numpy.random.default_rng(1)``: the cap axis, then
N - 1 directions at axis + 0.1 N(0, I), with masses U(0.5, 1.5) scaled to
the source total.

Every timed solve runs in a fresh interpreter with OPENBLAS_NUM_THREADS=1
that builds the quadrature (timed apart) and then times one
``solve_discrete`` call in-process.  With ``--baseline`` the same rows are
also solved by the ``refractor`` package in that source directory, and the
two alternate run by run, so both see the same drift in machine speed.
Each row reports the median solve time and every run, the sweeps (the fill
rounds of the start that designed), the Newton steps and trial steps
(accepted or rejected; null for a version that does not count them), the
target-radius updates (every fill round's, of either start), why the
closed-form start gave up (``fallback``: null where it designed, or
``SolveInfo.fallback``'s reason, "repair", "singular", "damping" or
"budget"; null too for a version that does not record it, and for a solve
that raises), the residual, why the solve stopped (``stop``: "converged",
or the ``NonConvergence`` reason: the last Newton run's "singular",
"damping" or "budget", or the sweep start's fill's "stagnated" or
"budget") and a digest of the radii and residual history.  With a
baseline it also reports the largest relative difference between the
versions' radii, which shows how far apart two results are when their
digests differ.  A solve that
raises is a row too: its ``error`` holds the exception's type and message,
its times the seconds until the raise, its ``stop``, ``sweeps`` and
``residual`` what the exception carries (null where it carries none), and
the run goes on.

The CLI rows run ``python -m refractor.cli design PROBLEM -o OUT`` in fresh
interpreters, as the perfbench harness does (one BLAS thread per core), on
``problems/iso_5targets.json`` and on the 20000 x 20 grid row written to a
problem file.  They alternate with the baseline run by run, report the
median wall time and every run, and the peak RSS that ``os.wait4`` gives
each run (it never reads below this script's own, about 27 MB with numpy
imported), and compare the output files byte for byte across all runs and
versions.

The import rows split interpreter start and imports off those rows: they
time ``python -c "import numpy"`` and each version's ``python -c "import
refractor.cli"`` (``import_row``, what ``design`` loads before it solves)
and ``python -c "import refractor.cli, refractor.transport"``
(``verify_import_row``, what ``verify`` loads) in fresh interpreters, run
by run, with the CLI rows' BLAS threads and PYTHONDONTWRITEBYTECODE=1, as
perfbench's ops run.  So ``refractor`` compiles from source on every import
(unless a ``__pycache__`` already sits in the source directory), and the
rows show what the source size costs.  Each run reports its wall time
(``wall_s``, interpreter start included) and the import statement's own
seconds (``import_s``, timed inside the interpreter after ``import numpy``,
as perfbench's ``refractor.import_s`` is); with a baseline, ``time_ratio``
and ``import_ratio`` compare the medians.
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
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GRID = ("20000x5,20000x20,20000x50,80000x5,80000x100,20000x50:case2,"
        "20000x100:lq,20000x20:2d,20000x50:2d")
CLI_GRID_ROW = (20000, 20)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_THREADS = str(len(os.sched_getaffinity(0)))
PROBLEM = ("isotropic Case I, 1.5 -> 1.0 (case2: 1.0 -> 1.5; lq: "
           "isotropic 0.5 -> lq(3); 2d: 1.5 -> 1.0 in the plane), 0.25 rad "
           "cap (2d: arc), tol 1e-3, b1 = 1; targets: the axis plus N - 1 at "
           "axis + 0.1 N(0, I) and masses U(0.5, 1.5), from default_rng(1)")
MEDIA = ("iso", "case2", "lq", "2d")
VERIFY_IMPORT = "refractor.cli, refractor.transport"


def media_pair(media: str):
    """The MediumPair of a row's media name."""
    from refractor.norms import MediumPair, Norm

    if media == "lq":
        return MediumPair(Norm.isotropic(0.5), Norm.lq(3.0))
    if media == "2d":
        return MediumPair.isotropic(1.5, 1.0, dim=2)
    return MediumPair.isotropic(*((1.0, 1.5) if media == "case2"
                                  else (1.5, 1.0)))


def draw_targets(N: int, dim: int = 3):
    """The cap axis, and the directions and relative masses of N targets."""
    import numpy as np

    axis = np.eye(dim)[-1]
    rng = np.random.default_rng(1)
    m = np.vstack([axis, axis + 0.1 * rng.standard_normal((N - 1, dim))])
    return axis, m, rng.uniform(0.5, 1.5, N)


def solve_once(J: int, N: int, media: str) -> dict:
    """Build row (J, N, media), solve it once and time both steps (child
    side)."""
    import numpy as np

    from refractor.errors import RefractorError
    from refractor.solver import SourceDensity, TargetMeasure, solve_discrete

    pair = media_pair(media)
    axis, m, g = draw_targets(N, pair.dim)
    t = time.perf_counter()
    src = SourceDensity.from_cap(pair.n1, axis, 0.25, J)
    quadrature = time.perf_counter() - t
    tgt = TargetMeasure.of(pair.n2, m, g * (src.total / g.sum()))
    t = time.perf_counter()
    try:
        r = solve_discrete(pair, src, tgt, 1.0, tol=1e-3)
    except RefractorError as exc:
        deficit = getattr(exc, "deficit", None)
        return {"solve_s": time.perf_counter() - t,
                "quadrature_s": quadrature,
                "stop": getattr(exc, "stop", None),
                "sweeps": getattr(exc, "sweeps", None),
                "residual": (None if deficit is None
                             else float(np.abs(deficit).max())),
                "error": {"type": type(exc).__name__, "message": str(exc)}}
    solve = time.perf_counter() - t
    digest = hashlib.sha256(r.radii.tobytes() + np.array(
        r.info.residual_history).tobytes()).hexdigest()[:16]
    return {"solve_s": solve, "quadrature_s": quadrature,
            "sweeps": r.info.sweeps,
            "newton_steps": getattr(r.info, "newton_steps", None),
            "newton_trials": getattr(r.info, "newton_trials", None),
            "updates": getattr(r.info, "updates", None),
            "fallback": getattr(r.info, "fallback", None),
            "residual": r.info.residual, "stop": "converged",
            "digest": digest, "radii": r.radii.tolist()}


def grid_problem(J: int, N: int) -> str:
    """Row (J, N) as a problem file; loading it scales the masses to the
    source total, as ``solve_once`` does."""
    axis, m, g = draw_targets(N)
    return json.dumps({
        "media": {"A1": [[1.5, 0, 0], [0, 1.5, 0], [0, 0, 1.5]],
                  "A2": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "source": {"axis": axis.tolist(), "angle": 0.25, "node_count": J,
                   "density": "uniform"},
        "targets": [{"m": mi.tolist(), "g": float(gi)}
                    for mi, gi in zip(m, g)],
        "b1": 1.0, "tol": 1e-3})


def run_design(src: Path, problem: Path, out: Path) -> dict:
    """One ``refractor design`` in a fresh interpreter: its wall seconds,
    its peak RSS in MB and the bytes it writes to ``-o``."""
    env = dict(os.environ, PYTHONPATH=str(src),
               **dict.fromkeys(THREAD_VARS, CLI_THREADS))
    log = out.with_suffix(".log")
    with open(log, "w") as fh:
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "refractor.cli",
                                 "design", str(problem), "-o", str(out)],
                                env=env, stdout=fh, stderr=fh)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    if proc.returncode != 0:
        raise SystemExit(f"design of {problem} with {src} failed:\n"
                         f"{log.read_text()}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "output": out.read_bytes()}


def cli_rows(versions: dict, repeats: int) -> list[dict]:
    """The CLI rows: each problem's design runs, versions alternating."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        grid = Path(tmp) / "grid.json"
        grid.write_text(grid_problem(*CLI_GRID_ROW))
        problems = {"problems/iso_5targets.json":
                    ROOT / "problems" / "iso_5targets.json",
                    "grid %dx%d" % CLI_GRID_ROW: grid}
        for name, problem in problems.items():
            runs = {v: [] for v in versions}
            for _ in range(repeats):
                for k, (v, src) in enumerate(versions.items()):
                    out = Path(tmp) / f"out{k}.json"
                    runs[v].append(run_design(src, problem, out))
            outputs = {r["output"] for rs in runs.values() for r in rs}
            row = {"problem": name, "same_output": len(outputs) == 1}
            for v, rs in runs.items():
                walls = [r["wall_s"] for r in rs]
                row[v] = {"wall_s": statistics.median(walls),
                          "wall_s_runs": walls,
                          "peak_rss_mb": statistics.median(
                              r["peak_rss_mb"] for r in rs),
                          "digest": hashlib.sha256(
                              rs[0]["output"]).hexdigest()[:16]}
            rows.append(row)
    return rows


def run_import(src: Path, module: str) -> tuple[float, float]:
    """``python -c "import MODULE"`` in a fresh interpreter that writes no
    bytecode: its wall seconds, and the seconds of the ``import MODULE``
    statement inside it, timed after ``import numpy`` (for MODULE numpy,
    numpy's own import)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               **dict.fromkeys(THREAD_VARS, CLI_THREADS))
    first = "" if module == "numpy" else ", numpy"
    code = (f"import time{first}; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    t = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return time.perf_counter() - t, float(out)


def import_rows(versions: dict, repeats: int) -> tuple[dict, dict]:
    """The import split, alternating run by run: the import row's ``numpy``
    times ``import numpy`` and each version its ``import refractor.cli``;
    the verify import row each version's ``import refractor.cli,
    refractor.transport``.  Each entry gives the interpreter's wall time
    and the import statement's own time (``import_s``)."""
    runs = {"numpy": [], **{v: [] for v in versions}}
    verify = {v: [] for v in versions}
    for _ in range(repeats):
        runs["numpy"].append(run_import(SRC, "numpy"))
        for v, src in versions.items():
            runs[v].append(run_import(src, "refractor.cli"))
            verify[v].append(run_import(src, VERIFY_IMPORT))
    rows = []
    for rs in (runs, verify):
        row = {}
        for k, r in rs.items():
            walls, own = [w for w, _ in r], [s for _, s in r]
            row[k] = {"wall_s": statistics.median(walls), "wall_s_runs": walls,
                      "import_s": statistics.median(own), "import_s_runs": own}
        rows.append(row)
    return tuple(rows)


def run_child(src: Path, J: int, N: int, media: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src),
               **dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, __file__, "--child", str(J),
                          str(N), media], env=env, capture_output=True,
                         text=True)
    if out.returncode != 0:
        raise SystemExit(f"solve of {J}x{N}:{media} with {src} failed:\n"
                         f"{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


RUN_KEYS = ("sweeps", "newton_steps", "newton_trials", "updates",
            "fallback", "residual", "stop", "digest", "error")


def summary(runs: list[dict]) -> dict:
    """A version's row: median times over its runs and its first run's
    counters (null where the solve raised) or error (null where it did
    not)."""
    times = [r["solve_s"] for r in runs]
    first = runs[0]
    return {"solve_s": statistics.median(times), "solve_s_runs": times,
            "quadrature_s": statistics.median(r["quadrature_s"]
                                              for r in runs),
            **{k: first.get(k) for k in RUN_KEYS}}


def radii_rel_diff(a: dict, b: dict) -> float | None:
    """The largest |a_i / b_i - 1| over two runs' radii, or None when either
    solve raised."""
    if "radii" not in a or "radii" not in b:
        return None
    return max(abs(x / y - 1.0) for x, y in zip(a["radii"], b["radii"]))


def parse_grid(text: str) -> list[tuple[int, int, str]]:
    rows = []
    for item in text.split(","):
        size, _, media = item.lower().partition(":")
        J, N = (int(v) for v in size.split("x"))
        media = media or "iso"
        if J < 12 or N < 1 or media not in MEDIA:
            raise SystemExit(f"bad grid row {item!r}: need J >= 12, N >= 1 "
                             f"and media in {MEDIA}")
        rows.append((J, N, media))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="JSON file to write")
    ap.add_argument("--grid", default=GRID,
                    help="comma-separated JxN or JxN:MEDIA rows, MEDIA in "
                    f"{MEDIA} (default {GRID})")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed runs per row and version (default 3)")
    ap.add_argument("--label", default="current",
                    help="name of this checkout's version in the output")
    ap.add_argument("--baseline", type=Path,
                    help="source directory of a version to compare with")
    ap.add_argument("--baseline-label", default="baseline")
    ap.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        J, N, media = args.child
        print(json.dumps(solve_once(int(J), int(N), media)))
        return 0
    if args.out is None:
        ap.error("--out is required")
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    versions = {args.label: SRC}
    if args.baseline is not None:
        versions[args.baseline_label] = args.baseline
    rows = []
    for J, N, media in parse_grid(args.grid):
        runs = {name: [] for name in versions}
        for _ in range(args.repeats):
            for name, src in versions.items():
                runs[name].append(run_child(src, J, N, media))
        row = {"J": J, "N": N, "media": media,
               **{name: summary(r) for name, r in runs.items()}}
        if args.baseline is not None:
            mine, base = row[args.label], row[args.baseline_label]
            row["same_result"] = all(mine[k] == base[k]
                                     for k in ("digest", "error"))
            row["radii_rel_diff"] = radii_rel_diff(
                runs[args.label][0], runs[args.baseline_label][0])
            row["time_ratio"] = mine["solve_s"] / base["solve_s"]
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    cli = cli_rows(versions, args.repeats)
    for row in cli:
        if args.baseline is not None:
            row["time_ratio"] = (row[args.label]["wall_s"]
                                 / row[args.baseline_label]["wall_s"])
        print(json.dumps(row), file=sys.stderr)
    imports, verify_imports = import_rows(versions, args.repeats)
    for row in (imports, verify_imports):
        if args.baseline is not None:
            mine, base = row[args.label], row[args.baseline_label]
            row["time_ratio"] = mine["wall_s"] / base["wall_s"]
            row["import_ratio"] = mine["import_s"] / base["import_s"]
        print(json.dumps(row), file=sys.stderr)
    import numpy

    result = {
        "benchmark": "design solve over a J x N grid",
        "problem": PROBLEM,
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__,
                        "machine": platform.machine(),
                        "nproc": len(os.sched_getaffinity(0)),
                        "OPENBLAS_NUM_THREADS": "1",
                        "cli_OPENBLAS_NUM_THREADS": CLI_THREADS},
        "repeats": args.repeats,
        "versions": list(versions),
        "rows": rows,
        "cli_rows": cli,
        "import_row": imports,
        "verify_import_row": verify_imports,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
