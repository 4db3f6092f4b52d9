"""The benchmark's per-layer tracer finds every name it wraps, and a traced
design records the quadrature's layers: a rename in `refractor`, or a build
that stops calling a wrapped name, would otherwise surface only in a
``--trace 1`` run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


spans = load_spans()
HOOKS = spans.HOOKS
GOLDEN = SPANS.parents[1] / "problems" / "iso_5targets.json"


@pytest.mark.parametrize("module, attr", [(m, a) for _, m, a, _ in HOOKS],
                         ids=[f"{m}.{a}" for _, m, a, _ in HOOKS])
def test_hook_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_hooks_cover_the_solve():
    names = {f"{m}.{a}" for _, m, a, _ in HOOKS}
    assert {"refractor.solver.solve_discrete_caseII",
            "refractor.solver.fibonacci_cap",
            "refractor.kernels.win_thresholds"} <= names


def test_traced_design_records_the_quadrature_layers(tmp_path):
    from refractor import cli

    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert cli.main(["design", str(GOLDEN), "-o",
                         str(tmp_path / "out.json")]) == 0
    finally:
        tracer.uninstall()
    by_name = {}
    for k, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, []).append(k)
    quadrature, = by_name["solver.quadrature"]
    for name in ("geometry.lattice", "geometry.delaunay", "geometry.weights"):
        k, = by_name[name]
        assert tracer.spans[k].parent == quadrature
        assert tracer.spans[k].end > tracer.spans[k].start
