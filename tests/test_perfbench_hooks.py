"""The benchmark's per-layer tracer finds every name it wraps: a rename in
`refractor` would otherwise surface only as a failed ``--trace 1`` run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module.HOOKS


HOOKS = load_hooks()


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
