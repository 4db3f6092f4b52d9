import os
from pathlib import Path

import numpy as np
import pytest

from refractor.norms import MediumPair, Norm, Regime, norm_gradient


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


def media_pairs(media, case2, dim, rng):
    """A function that draws a medium pair: isotropic 1.5 -> 1.0, a random
    ellipsoidal pair about it, or lq(3) -> isotropic(0.5); each reversed in
    Case II."""
    n1, n2 = (1.0, 1.5) if case2 else (1.5, 1.0)
    if media == "lq":
        lq, iso = Norm.lq(3.0, dim), Norm.isotropic(0.5, dim)
        return lambda: MediumPair(iso, lq) if case2 else MediumPair(lq, iso)
    if media == "ellipsoidal":
        return lambda: random_ellipsoidal_pair(rng, dim, n1, n2)
    return lambda: MediumPair.isotropic(n1, n2, dim)


def admissible_targets(pair, src, count, spread, rng, margin=1e-4):
    """Target directions on Sigma2 around the best-aligned direction of the
    cap center, shrunk until every node is admissible for every target by
    the margin: nu.x and nu.m, the pair's denominators and margins, are at
    least `margin` (m.p1(x) >= 1 in Case I, x.p2(m) > 1 in Case II)."""
    if pair.regime is Regime.CASE_I:
        p1 = norm_gradient(pair.n1, src.nodes)
        m0 = norm_gradient(pair.n2.dual(), p1.mean(axis=0))  # max m.center on Sigma2
    else:
        m0 = src.nodes.mean(axis=0)  # x.p2(m) peaks at m parallel to x
    dim = src.nodes.shape[1]
    for _ in range(40):
        dirs = [m0]
        for _ in range(count - 1):
            d = m0 + spread * rng.standard_normal(dim)
            dirs.append(d)
        dirs = np.asarray(dirs)
        from refractor.norms import norm_eval

        dirs = dirs / norm_eval(pair.n2, dirs)[:, None]
        value = np.minimum(pair.denominators(src.nodes, dirs),
                           pair.margins(src.nodes, dirs))
        if float(value.min()) >= margin:
            return dirs
        spread *= 0.7
    raise AssertionError("could not build admissible targets")


def admissible_instance(draw_pair, rng, angle, nodes, count, spread):
    """pair = draw_pair(), its source cap of the given angle and node count
    about the last axis, and `count` targets from `admissible_targets`.  A
    random pair near kappa = 1 may admit no target at all: its best-aligned
    direction misses the margin, which no spread mends, so such a pair is
    drawn again, at most 10 times."""
    from refractor.solver import SourceDensity

    for _ in range(10):
        pair = draw_pair()
        src = SourceDensity.from_cap(pair.n1, np.eye(pair.dim)[-1], angle,
                                     nodes)
        try:
            return pair, src, admissible_targets(pair, src, count, spread,
                                                 rng)
        except AssertionError:
            continue
    raise AssertionError("no admissible instance in 10 draws")


SWEEP_BUDGET = 10_000  # the oracle sweep's budget


def sweep_oracle(src, tgt, denom, b1, tol, info):
    """The radii of the monotone radius sweep run to convergence, with no
    Newton step: the design algorithm that Newton replaced, kept as an
    oracle.  Every surface but the anchor's starts above it at every node;
    each sweep lowers the radius of each cell with M_k < g_k - delta_c to
    g_k +- delta_c / 2 (`solver._fill_radius`, looked up at each call), until
    max|M - g| <= tol * total, a sweep that moves no radius
    ("stagnated") or SWEEP_BUDGET sweeps ("budget")."""
    from refractor import kernels, solver
    from refractor.errors import InfeasibleTarget, NonConvergence

    g, w, N = tgt.masses, src.weights, tgt.count
    delta = tol * src.total
    b = np.empty(N)
    b[0] = b1
    for i in range(1, N):
        feas = denom[:, i] > 0.0
        if not np.any(feas):
            raise InfeasibleTarget(f"target {i} is feasible for no node")
        ratio = float(np.max(denom[feas, i] / denom[feas, 0]))
        b[i] = b1 * ratio * (1.0 + 1e-6)
    delta_c = 0.9 * delta / max(1, N - 1)
    half_width = 0.5 * delta_c
    w_mean = w.mean()
    with np.errstate(over="ignore"):
        top = kernels.Top2.of(denom, b)
    for n in range(SWEEP_BUDGET):
        masses = kernels.masses(top, denom, b, w)
        resid = float(np.max(np.abs(masses - g)))
        info.sweeps = n
        info.residual = resid / src.total
        info.residual_history.append(resid / src.total)
        if resid <= delta:
            info.masses = masses
            return b
        moved = False
        for i in range(1, N):
            if masses[i] >= g[i] - delta_c:
                continue
            info.updates += 1
            s = kernels.win_thresholds(denom, top, i)
            new_b = solver._fill_radius(s, w, b[i], g[i], half_width, i,
                                        w_mean)
            if new_b < b[i]:
                b[i] = new_b
                kernels.lower(top, kernels.heights(denom[:, i], new_b), i)
                moved = True
        if not moved:
            stop, sweeps = "stagnated", n + 1
            why = f"the sweep stagnated after {sweeps} sweeps"
            break
    else:
        stop, sweeps = "budget", SWEEP_BUDGET
        why = f"after {SWEEP_BUDGET} sweeps"
    deficit = (g - masses) / src.total
    under, over = int(np.argmax(deficit)), int(np.argmin(deficit))
    raise NonConvergence(
        f"residual {info.residual:.3e} > tol {tol:.3e}: {why}; most "
        f"under-filled: target {under} (deficit {deficit[under]:+.3e} of the "
        f"total), most over-filled: target {over} ({deficit[over]:+.3e})",
        stop=stop, sweeps=sweeps, deficit=deficit)


def sweep_alone(pair, src, tgt, b1, tol=1e-3):
    """`solve_discrete` with its checks but no Newton attempt:
    `sweep_oracle` designs in place of the descent, an oracle for what
    Newton designs."""
    from refractor import solver

    def oracle(denom, _src, _g, _b, _delta, info):
        return sweep_oracle(src, tgt, denom, b1, tol, info), None, None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_descend", oracle)
        return solver.solve_discrete(pair, src, tgt, b1, tol)
