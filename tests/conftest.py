import os
from pathlib import Path

import numpy as np
import pytest

from refractor.norms import (MediumPair, Norm, Regime, dual_gradient,
                             norm_gradient)


SRC = Path(__file__).resolve().parents[1] / "src"


def src_env():
    """The environment with the checkout's src first on PYTHONPATH, so a
    child interpreter imports this refractor without an install."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def pytest_addoption(parser):
    parser.addoption("--regen-golden", action="store_true", default=False,
                     help="rewrite the golden solution files")


@pytest.fixture
def regen_golden(request):
    return request.config.getoption("--regen-golden")


@pytest.fixture
def iso_case1():
    """Isotropic Case I pair (kappa = 2/3)."""
    return MediumPair.isotropic(1.5, 1.0)


@pytest.fixture
def iso_case2():
    """Isotropic Case II pair (kappa = 3/2)."""
    return MediumPair.isotropic(1.0, 1.5)


@pytest.fixture
def aniso_case1():
    """Anisotropic ellipsoidal Case I pair."""
    A1 = np.diag([1.7, 1.55, 1.6])
    A2 = np.diag([1.0, 0.95, 1.05])
    return MediumPair(Norm.ellipsoidal(A1), Norm.ellipsoidal(A2))


def random_ellipsoidal_pair(rng, dim=3, scale1=1.6, scale2=0.9, jitter=0.12):
    """Random ellipsoidal pair, Case I by default and Case II for
    scale2 > scale1 (retry until a regime holds)."""
    from refractor.errors import RegimeViolation, ValidationError

    while True:
        A1 = scale1 * np.eye(dim) + jitter * rng.standard_normal((dim, dim))
        A2 = scale2 * np.eye(dim) + jitter * rng.standard_normal((dim, dim))
        try:
            return MediumPair(Norm.ellipsoidal(A1), Norm.ellipsoidal(A2))
        except (RegimeViolation, ValidationError):
            continue


def admissible_targets(pair, src, count, spread, rng, margin=1e-4):
    """Target directions on Sigma2 around the best-aligned direction of the
    cap center, shrunk until every node is admissible for every target by
    the margin: m.p1(x) >= 1 in Case I, x.p2(m) > 1 in Case II."""
    p1 = norm_gradient(pair.n1, src.nodes)
    if pair.regime is Regime.CASE_I:
        m0 = dual_gradient(pair.n2, p1.mean(axis=0))  # max m.center on Sigma2
        value, floor = (lambda dirs: p1 @ dirs.T), 1.0
    else:
        m0 = src.nodes.mean(axis=0)  # x.p2(m) peaks at m parallel to x
        value, floor = (lambda dirs: pair.denominators(src.nodes, dirs)), 0.0
    dim = src.nodes.shape[1]
    for _ in range(40):
        dirs = [m0]
        for _ in range(count - 1):
            d = m0 + spread * rng.standard_normal(dim)
            dirs.append(d)
        dirs = np.asarray(dirs)
        from refractor.norms import norm_eval

        dirs = dirs / norm_eval(pair.n2, dirs)[:, None]
        if float(value(dirs).min()) >= floor + margin:
            return dirs
        spread *= 0.7
    raise AssertionError("could not build admissible targets")
