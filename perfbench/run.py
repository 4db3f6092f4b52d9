"""End-to-end and per-layer benchmark of the ``refractor`` command.

Run from the root of a checkout (the program is used from ``src/``):

    python3 perfbench/run.py --workload cli_golden --seed 1 --seconds 60 --trace 0

``--trace 0`` runs `refractor design` / `refractor verify` as subprocesses in
a closed loop with one client for ``--seconds``, interleaved with a fixed
reference program (perfbench/reference.py), and reports the end-to-end
metrics: each op's median wall time as a multiple of the reference's, which
cancels the machine's drifting speed.  ``--trace 1`` runs the same ops in-process, alternately with and
without spans around the program's layers, and reports the per-layer
metrics.  Every op's output is checked.  The last line of standard output is
the JSON result; the lines before it record the environment and every
metric with its sample count.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "problems" / "iso_5targets.json"
GOLDEN_OUT = ROOT / "problems" / "iso_5targets.golden.json"
REFERENCE = HERE / "reference.py"
NPROC = len(os.sched_getaffinity(0))
OP_TIMEOUT_S = 60
SETUPS = 5        # set-ups per --trace 0 run; setup_s is their median
PROBLEMS = 5      # generated problems per run, one per design op in turn
IMPORTS = 3       # fresh-interpreter imports per --trace 1 run

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cli_golden", "many_targets")

END_TO_END = {"design_per_ref": "ratio", "verify_per_ref": "ratio",
              "setup_s": "s", "peak_rss_mb": "MB"}
# printed with the end-to-end metrics but not bounded: raw wall times drift
# with the machine's speed by more than the bound between runs
WALL = {"design_s": "s", "verify_s": "s", "reference_s": "s",
        "setup_wall_s": "s"}

# per-layer metric -> (unit, op kind it is taken from, key in op_layers)
PER_LAYER = {
    "refractor.import_s": ("s", None, None),
    "problems.load_s": ("s", "design", "problems.load_s"),
    "problems.serialize_s": ("s", "design", "problems.serialize_s"),
    "norms.kappa_s": ("s", "design", "norms.kappa_s"),
    "geometry.lattice_s": ("s", "design", "geometry.lattice_s"),
    "geometry.delaunay_s": ("s", "design", "geometry.delaunay_s"),
    "geometry.weights_s": ("s", "design", "geometry.weights_s"),
    "solver.quadrature_s": ("s", "design", "solver.quadrature_s"),
    "solver.admissibility_s": ("s", "design", "solver.admissibility_s"),
    "solver.measure_s": ("s", "design", "solver.measure_s"),
    "solver.solve_s": ("s", "design", "solver.solve_s"),
    "solver.solve_self_s": ("s", "design", "solver.solve_self_s"),
    "solver.sweeps": ("count", "design", "solver.sweeps"),
    "solver.update_ratio": ("ratio", "design", "solver.update_ratio"),
    "kernels.thresholds_calls": ("count", "design",
                                 "kernels.thresholds_calls"),
    "kernels.thresholds_s": ("s", "design", "kernels.thresholds_s"),
    "kernels.thresholds_evals": ("count", "design",
                                 "kernels.thresholds_evals"),
    "kernels.tally_calls": ("count", "design", "kernels.tally_calls"),
    "kernels.tally_s": ("s", "design", "kernels.tally_s"),
    "kernels.tally_evals": ("count", "design", "kernels.tally_evals"),
    "kernels.bytes_computed": ("B", "design", None),
    "transport.cost_s": ("s", "verify", "transport.cost_s"),
    "transport.lp_s": ("s", "verify", "transport.lp_s"),
    "transport.agreement_s": ("s", "verify", "transport.agreement_s"),
    "transport.lp_arcs": ("count", "verify", "transport.lp_evals"),
    "trace.overhead_frac": ("ratio", None, None),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Op:
    kind: str                  # "design" or "verify"
    args: list[str]            # refractor arguments before -o
    out: Path
    check: Callable[[int, str | None], str | None]


@dataclass
class Outcome:
    seconds: float
    failure: str | None
    text: str | None
    rss_mb: float = 0.0        # peak RSS of the op's own process


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def set_up(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's inputs and build the data its checks need.
    Returns the ops of one round of the closed loop, in order."""
    verify = Op("verify", ["verify", str(GOLDEN)], work / "verify.json",
                checks.verify_check)
    if workload == "cli_golden":
        problem = json.loads(GOLDEN.read_text())
        golden = json.loads(GOLDEN_OUT.read_text())["radii"]
        ref = checks.reference(problem, checks.source(problem))
        return [Op("design", ["design", str(GOLDEN)], work / "design.json",
                   checks.design_check(ref, golden)), verify]
    ops, src = [], None
    for k, data in enumerate(inputs.generate(seed, PROBLEMS)):
        path = work / f"problem{k}.json"
        path.write_bytes(data)
        problem = json.loads(data)
        if src is None:  # the problems differ only in their targets
            src = checks.source(problem)
        check = checks.design_check(checks.reference(problem, src))
        # verify cannot resolve these problems (see README); the golden
        # verify runs as a control so every workload reports verify_per_ref
        ops += [verify, Op("design", ["design", str(path)],
                           work / f"design{k}.json", check)]
    return ops


def run_child(cmd: list[str], env: dict, log: Path):
    """Run one child process, its output to `log`, killed after
    OP_TIMEOUT_S.  Returns its exit code (None on timeout), wall seconds and
    its own peak RSS in MB, which `os.wait4` gives apart from other
    children's."""
    with open(log, "w") as out:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=out)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        dt = time.perf_counter() - t
    rc = None if dt >= OP_TIMEOUT_S else proc.returncode
    return rc, dt, usage.ru_maxrss / 1024.0


def run_subprocess(op: Op, env: dict) -> Outcome:
    op.out.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "refractor.cli", *op.args, "-o", str(op.out)]
    log = op.out.with_suffix(".log")
    rc, dt, rss = run_child(cmd, env, log)
    if rc is None:
        return Outcome(dt, "timeout", None, rss)
    err = log.read_text()
    if err.strip():
        sys.stderr.write(err)
    text = op.out.read_text() if op.out.exists() else None
    return Outcome(dt, op.check(rc, text), text, rss)


def run_reference(env: dict, work: Path) -> float:
    """Wall seconds of one run of the reference program."""
    log = work / "reference.log"
    rc, dt, _ = run_child([sys.executable, str(REFERENCE)], env, log)
    try:
        ok = rc == 0 and math.isfinite(float(log.read_text()))
    except ValueError:
        ok = False
    if not ok:
        raise BenchError(f"reference program failed: exit {rc}: "
                         f"{log.read_text()[-500:]}")
    return dt


def run_in_process(op: Op) -> Outcome:
    from refractor import cli

    op.out.unlink(missing_ok=True)
    t = time.perf_counter()
    try:
        rc = cli.main([*op.args, "-o", str(op.out)])
    except Exception:  # an op that crashes is a failed op
        traceback.print_exc()
        rc = -1
    dt = time.perf_counter() - t
    text = op.out.read_text() if op.out.exists() else None
    return Outcome(dt, op.check(rc, text), text)


class Tally:
    """Attempted and failed ops, plus the last passing output of each kind
    for the checker self-test."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.passed: dict[str, tuple[Op, str]] = {}

    def add(self, op: Op, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.failure:
            self.failures.append(f"{op.kind} {op.args[1]}: "
                                 f"{outcome.failure}")
            sys.stderr.write(f"failed op: {self.failures[-1]}\n")
        else:
            self.passed[op.kind] = (op, outcome.text)

    def self_test(self) -> list[str]:
        if set(self.passed) != {"design", "verify"}:
            return ["no passing design and verify output to self-test on"]
        design, design_text = self.passed["design"]
        return checks.self_test(design.check, design_text,
                                self.passed["verify"][1])


def closed_loop(ops: list[Op], seconds: float, step) -> None:
    """Run `step(n, op)` over the round of ops, in turn, for `seconds`.

    Every kind of op runs at least once.  After that an op is skipped when
    the median of its earlier steps says it would end past the deadline, so a
    run does not overrun by one long design and its last seconds go to the
    shorter ops that still fit.  The loop ends when no op of the round fits.
    """
    took: dict[str, list[float]] = {op.kind: [] for op in ops}
    deadline = time.perf_counter() + seconds
    n = skipped = 0
    for op in itertools.cycle(ops):
        if skipped == len(ops):
            return
        past = took[op.kind]
        if past and time.perf_counter() + statistics.median(past) > deadline:
            skipped += 1
            continue
        skipped = 0
        t = time.perf_counter()
        step(n, op)
        past.append(time.perf_counter() - t)
        n += 1


def end_to_end(workload, seed, seconds, work, tally) -> dict:
    env = child_env()
    subprocess.run([sys.executable, "-c", "import refractor.cli"], env=env,
                   check=True)  # compile bytecode, warm the file cache
    setup = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        ops = set_up(workload, seed, work)
        setup.append(time.perf_counter() - t)
    # the reference runs before each design, so it samples the machine's
    # speed across the whole run as the ops do.  Run right after each
    # design instead, its many_targets medians spread between runs over
    # twice as much as the designs' did
    reference = Op("reference", [], work / "reference.log", None)
    ops = [x for op in ops
           for x in ((reference, op) if op.kind == "design" else (op,))]
    samples = {"design": [], "verify": [], "reference": []}
    rss = []

    def step(n, op):
        if op.kind == "reference":
            samples["reference"].append(run_reference(env, work))
            return
        outcome = run_subprocess(op, env)
        tally.add(op, outcome)
        samples[op.kind].append(outcome.seconds)
        rss.append(outcome.rss_mb)

    closed_loop(ops, seconds, step)
    wall = {f"{kind}_s": (statistics.median(xs), len(xs))
            for kind, xs in samples.items()}
    wall["setup_wall_s"] = (statistics.median(setup), len(setup))
    ref = wall["reference_s"][0]
    return {
        "design_per_ref": (wall["design_s"][0] / ref, wall["design_s"][1]),
        "verify_per_ref": (wall["verify_s"][0] / ref, wall["verify_s"][1]),
        # in reference seconds: the set-up's wall time on a machine where
        # the reference takes 1 s, so that drift in speed cancels as above
        "setup_s": (wall["setup_wall_s"][0] / ref, len(setup)),
        "peak_rss_mb": (max(rss), len(rss)),
        **wall,
    }


def import_seconds(env: dict) -> list[float]:
    code = ("import time, numpy; t = time.perf_counter(); "
            "import refractor.cli; print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORTS + 1):  # the first fills the bytecode cache
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        out.append(float(proc.stdout))
    return out[1:]


def per_layer(workload, seed, seconds, work, tally) -> dict:
    imports = import_seconds(child_env())
    ops = set_up(workload, seed, work)
    tracer = spans.Tracer()
    wall = {True: {"design": [], "verify": []},
            False: {"design": [], "verify": []}}
    traced_ops = {"design": [], "verify": []}

    def step(n, op):
        # alternate which of the pair runs first, per kind of op, so neither
        # gains a warm cache systematically
        first = len(traced_ops[op.kind]) % 2 == 1
        for traced in (first, not first):
            if traced:
                tracer.op = n
                tracer.install()
            try:
                outcome = run_in_process(op)
            finally:
                tracer.uninstall()
            tally.add(op, outcome)
            wall[traced][op.kind].append(outcome.seconds)
        traced_ops[op.kind].append(n)

    closed_loop(ops, seconds, step)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload}-seed{seed}.json")

    layers = {kind: [spans.op_layers(tracer.spans, n) for n in ns]
              for kind, ns in traced_ops.items()}
    metrics = {}
    for name, (_, kind, key) in PER_LAYER.items():
        if key is None:
            continue
        values = [op.get(key, 0) for op in layers[kind]]
        metrics[name] = (statistics.median(values), len(values))
    bytes_ = [8 * (op.get("kernels.tally_evals", 0)
                   + op.get("kernels.thresholds_evals", 0))
              for op in layers["design"]]
    metrics["kernels.bytes_computed"] = (statistics.median(bytes_),
                                         len(bytes_))
    metrics["refractor.import_s"] = (statistics.median(imports), len(imports))
    traced = statistics.median(wall[True]["design"])
    plain = statistics.median(wall[False]["design"])
    metrics["trace.overhead_frac"] = (traced / plain - 1.0,
                                      len(wall[True]["design"]))
    return metrics


def environment() -> dict:
    import numpy
    import scipy
    from refractor import kernels

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": NPROC, "numba": has_numba,
            "backend": kernels.active_backend(), "commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (ROOT / "src" / "refractor" / "cli.py", GOLDEN, GOLDEN_OUT):
        if not need.is_file():
            sys.stderr.write(f"error: {need.relative_to(ROOT)} not found; "
                             "run from a refractor checkout\n")
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        errors = ([] if args.workload == "cli_golden"
                  else inputs.self_test(args.seed))
        if errors:
            raise BenchError("; ".join(errors))
        env = environment()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args.workload, args.seed, args.seconds, work, tally)
        misses = tally.self_test()
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for miss in misses:
        sys.stderr.write(f"checker self-test: {miss}\n")
    units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace \
        else {**END_TO_END, **WALL}
    print("env " + json.dumps(env))
    for name, (value, n) in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]:6s} n={n}")
    failed = len(tally.failures)
    print(f"{'failed_frac':28s} {failed / tally.attempted:14.6g} "
          f"{'ratio':6s} n={tally.attempted}")
    correct = failed == 0 and not misses
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()
                    if name not in WALL}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
