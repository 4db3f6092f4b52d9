"""Per-layer tracing from outside the program.

`Tracer.install` replaces the names the program's callers look up with
wrappers that record a span (name, start, end, parent, op id) and optional
work counts.  A name imported with ``from x import f`` is wrapped where the
caller holds it (``refractor.solver.cap_triangulation``); a name called
through its module is wrapped on the module (``refractor.kernels.tally``).
Spans stay in memory until `Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass


def _jn(dots) -> int:
    return int(dots.shape[0]) * int(dots.shape[1])


def _lp_arcs(cost, *args, **kwargs) -> int:
    return int(cost.feasible.sum())


# (span name, module, attribute, work count from the call's arguments)
HOOKS = [
    ("problems.load", "refractor.cli", "load_problem", None),
    ("problems.serialize", "refractor.cli", "write_json", None),
    ("norms.kappa", "refractor.norms", "contrast_kappa", None),
    ("solver.quadrature", "refractor.solver", "SourceDensity.from_cap", None),
    ("geometry.lattice", "refractor.solver", "fibonacci_cap", None),
    ("geometry.delaunay", "refractor.solver", "cap_triangulation", None),
    ("geometry.weights", "refractor.solver", "node_area_weights", None),
    ("solver.solve", "refractor.solver", "solve_discrete", None),
    ("solver.solve", "refractor.solver", "solve_discrete_caseII", None),
    ("solver.admissibility", "refractor.solver", "check_admissibility",
     None),
    ("solver.measure", "refractor.solver", "refractor_measure", None),
    ("kernels.tally", "refractor.kernels", "tally",
     lambda dots, *a, **k: _jn(dots)),
    ("kernels.thresholds", "refractor.kernels", "win_thresholds",
     lambda dots, *a, **k: _jn(dots)),
    ("transport.cost", "refractor.transport", "build_cost", None),
    ("transport.lp", "refractor.transport", "solve_ot_exact", _lp_arcs),
    ("transport.agreement", "refractor.transport", "assignment_agreement",
     None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    op: int
    work: int = 0    # the hook's work count (J*N, LP arcs), 0 if none
    sweeps: int = -1  # solver.solve only
    targets: int = 0  # solver.solve only


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span.work = count(*args, **kwargs)
                if name == "solver.solve":
                    span.sweeps = out.info.sweeps
                    span.targets = out.target.count
                return out
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self) -> None:
        for name, module, attr, count in HOOKS:
            owner = importlib.import_module(module)
            if "." in attr:  # a classmethod: wrap the function, rebind
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
                traced = classmethod(self._wrap(name, fn.__func__, count))
            else:
                fn = getattr(owner, attr)
                traced = self._wrap(name, fn, count)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([vars(s) for s in self.spans], fh)


def self_time(spans: list[Span], k: int) -> float:
    """Duration of span k minus the part its child spans cover."""
    s = spans[k]
    covered, edge = 0.0, s.start
    for c in sorted((c for c in spans if c.parent == k),
                    key=lambda c: c.start):
        lo, hi = max(c.start, edge), min(c.end, s.end)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return (s.end - s.start) - covered


def op_layers(spans: list[Span], op: int) -> dict:
    """Per-layer figures of one op: seconds (`<name>_s`), calls and work
    counts per span name, plus the solver's self time, sweeps and
    threshold-pass ratio."""
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for k, s in enumerate(spans):
        if s.op != op:
            continue
        add(s.name + "_s", s.end - s.start)
        add(s.name + "_calls", 1)
        add(s.name + "_evals", s.work)
        if s.name == "solver.solve":
            add("solver.solve_self_s", self_time(spans, k))
            add("solver.sweeps", s.sweeps)
            passes = sum(1 for c in spans
                         if c.parent == k and c.name == "kernels.thresholds")
            slots = s.sweeps * (s.targets - 1)
            out["solver.update_ratio"] = passes / slots if slots else 0.0
    return out
