import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import src_env
from refractor.cli import main
from refractor.problems import dumps17, load_problem
from refractor.solver import Refractor
from refractor.transport import check_c_concavity

REPO = Path(__file__).resolve().parents[1]
GOLDEN_PROBLEM = REPO / "problems" / "iso_5targets.json"
GOLDEN_SOLUTION = REPO / "problems" / "iso_5targets.golden.json"
GOLDEN_VERIFY = REPO / "problems" / "iso_5targets.verify.golden.json"


def small_problem(tmp_path, node_count=1200, tol=3e-3, n1=1.5, n2=1.0):
    prob = {
        "media": {"A1": (n1 * np.eye(3)).tolist(),
                  "A2": (n2 * np.eye(3)).tolist()},
        "source": {"axis": [0.0, 0.0, 1.0], "angle": 0.25,
                   "node_count": node_count, "density": "uniform"},
        "targets": [
            {"m": [0.0, 0.0, 1.0], "g": 1.0},
            {"m": [0.0998334166468282, 0.0, 0.9950041652780258], "g": 0.7},
            {"m": [-0.0998334166468282, 0.0, 0.9950041652780258], "g": 1.3},
        ],
        "b1": 1.0,
        "tol": tol,
        "seed": 0,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(prob))
    return path


def test_snell_round_trip(tmp_path, capsys):
    event = {
        "pair": {"n1": {"kind": "ellipsoidal",
                        "A": (1.5 * np.eye(3)).tolist()},
                 "n2": {"kind": "ellipsoidal",
                        "A": np.eye(3).tolist()}},
        "x": [0.0, 0.0, 1.0],
        "nu": [0.0, 0.0, 1.0],
    }
    inp = tmp_path / "event.json"
    inp.write_text(json.dumps(event))
    assert main(["snell", str(inp)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == pytest.approx(-0.5, abs=1e-12)
    assert np.allclose(out["m"], [0.0, 0.0, 1.0])

    s = float(np.sin(np.pi / 4))
    event = {"pair": {"A1": np.eye(3).tolist(),
                      "A2": (1.5 * np.eye(3)).tolist()},
             "x": [s, 0.0, s], "nu": [0.0, 0.0, 1.0]}
    inp.write_text(json.dumps(event))
    assert main(["snell", str(inp)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["m_unit"], [0.47140, 0.0, 0.88192], atol=1e-4)

    event = {"pair": {"A1": np.eye(3).tolist(),
                      "A2": np.diag([0.5, 0.5, 0.4]).tolist()},
             "x": [0.1, -0.05, 0.99], "nu": [0.0, 0.0, 1.0]}
    inp.write_text(json.dumps(event))
    assert main(["snell", str(inp)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert float(np.dot(out["m"], out["nu"])) >= 0.0


def test_snell_no_refraction_exit_code(tmp_path):
    theta = np.arcsin(2.0 / 3.0) + 0.05
    event = {
        "pair": {"A1": (1.5 * np.eye(3)).tolist(), "A2": np.eye(3).tolist()},
        "x": [float(np.sin(theta)), 0.0, float(np.cos(theta))],
        "nu": [0.0, 0.0, 1.0],
    }
    inp = tmp_path / "event.json"
    inp.write_text(json.dumps(event))
    assert main(["snell", str(inp)]) == 2


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["snell", str(bad)]) == 1
    assert main(["design", str(bad)]) == 1
    # a usage error exits 1 too, not argparse's 2 (no refraction)
    capsys.readouterr()
    assert main(["design"]) == 1
    assert capsys.readouterr().err == \
        "error: the following arguments are required: problem\n"


NON_FINITE_EDITS = {
    "tol": lambda p: p.update(tol=float("nan")),
    "b1": lambda p: p.update(b1=float("inf")),
    "angle": lambda p: p["source"].update(angle=float("nan")),
    "axis": lambda p: p["source"].update(axis=[0.0, float("nan"), 1.0]),
    "g": lambda p: p["targets"][1].update(g=float("nan")),
    "m": lambda p: p["targets"][2].update(m=[float("nan"), 0.0, 1.0]),
    "A1": lambda p: p["media"].update(
        A1=[[float("nan"), 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 1.5]]),
    "A2": lambda p: p["media"].update(
        A2=[[1.0, 0.0, 0.0], [0.0, float("inf"), 0.0], [0.0, 0.0, 1.0]]),
}


@pytest.mark.parametrize("edit", NON_FINITE_EDITS.values(),
                         ids=NON_FINITE_EDITS.keys())
def test_non_finite_input_exit_code(tmp_path, capsys, edit):
    prob = json.loads(small_problem(tmp_path).read_text())
    edit(prob)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(prob))  # writes NaN / Infinity literals
    assert main(["design", str(path), "--max-sweeps", "30"]) == 1
    assert "must be finite" in capsys.readouterr().err


LQ2 = {"kind": "lq", "q": 2.0, "dim": 3}
MALFORMED_EDITS = {
    "targets_object": (lambda p: p.update(targets={"m": 1}),
                       "'targets' must be a list of objects"),
    "targets_numbers": (lambda p: p.update(targets=[1, 2]),
                        "'targets' must be a list of objects"),
    "source_number": (lambda p: p.update(source=5),
                      "'source' must be an object"),
    "zero_axis": (lambda p: p["source"].update(axis=[0.0, 0.0, 0.0]),
                  "source axis must be nonzero"),
    "zero_anchor_m": (lambda p: p["targets"][0].update(m=[0.0, 0.0, 0.0]),
                      "target 0 direction must be nonzero"),
    "zero_target_m": (lambda p: p["targets"][2].update(m=[0.0, 0.0, 0.0]),
                      "target 2 direction must be nonzero"),
    "b1_null": (lambda p: p.update(b1=None), "b1 must be a number"),
    "angle_null": (lambda p: p["source"].update(angle=None),
                   "source angle must be a number"),
    "seed_null": (lambda p: p.update(seed=None), "seed must be an integer"),
    "g_null": (lambda p: p["targets"][1].update(g=None),
               "target 1 mass must be a number"),
    "node_count_list": (lambda p: p["source"].update(node_count=[5]),
                        "source node_count must be an integer"),
    "node_count_fraction": (lambda p: p["source"].update(node_count=2000.7),
                            "source node_count must be an integer"),
    "norm_string": (lambda p: p.update(media={"n1": "x", "n2": LQ2}),
                    "a norm must be an object"),
    "lq_without_q": (lambda p: p.update(media={
        "n1": {"kind": "lq", "dim": 3}, "n2": LQ2}), "lq norm is missing 'q'"),
    "lq_q_null": (lambda p: p.update(media={
        "n1": {"kind": "lq", "q": None, "dim": 3}, "n2": LQ2}),
        "malformed lq norm"),
    "material_without_mu": (lambda p: p.update(media={
        "material1": {"eps": (2.25 * np.eye(3)).tolist()},
        "material2": {"eps": np.eye(3).tolist(), "mu": np.eye(3).tolist()}}),
        "material is missing 'mu'"),
}


@pytest.mark.parametrize("edit, message", MALFORMED_EDITS.values(),
                         ids=MALFORMED_EDITS.keys())
def test_malformed_input_exit_code(tmp_path, capsys, edit, message):
    prob = json.loads(small_problem(tmp_path).read_text())
    edit(prob)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(prob))
    assert main(["design", str(path), "--max-sweeps", "30"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--tol", "nan"], "tol must be finite and positive, got nan"),
    (["--tol", "inf"], "tol must be finite and positive, got inf"),
    (["--tol", "0"], "tol must be finite and positive, got 0.0"),
    (["--tol", "-1"], "tol must be finite and positive, got -1.0"),
    (["--max-sweeps", "0"], "max_sweeps must be >= 1, got 0"),
    (["--max-sweeps", "-3"], "max_sweeps must be >= 1, got -3"),
    (["--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["--max-sweeps", "1.5"],
     "argument --max-sweeps: invalid int value: '1.5'"),
    (["--threads", "8"], "unrecognized arguments: --threads 8"),
], ids=["tol_nan", "tol_inf", "tol_zero", "tol_negative", "sweeps_zero",
        "sweeps_negative", "tol_text", "sweeps_fraction", "threads_flag"])
def test_invalid_solve_flags_exit_code(tmp_path, capsys, flags, message):
    # rejected before the sweep, not after a full budget of sweeps
    prob = small_problem(tmp_path)
    assert main(["design", str(prob), *flags]) == 1
    assert message in capsys.readouterr().err


def test_design_artifacts(tmp_path, capsys):
    prob = small_problem(tmp_path)
    sol = tmp_path / "sol.json"
    csv = tmp_path / "report.csv"
    mesh = tmp_path / "mesh.obj"
    log = tmp_path / "conv.log"
    rc = main(["design", str(prob), "-o", str(sol), "--report", str(csv),
               "--mesh", str(mesh), "--log", str(log)])
    assert rc == 0
    out = json.loads(sol.read_text())
    assert len(out["radii"]) == 3
    assert out["residual"] <= 3e-3
    assert out["radii"][0] == 1.0
    hist = [float(l) for l in log.read_text().split()]
    assert hist == out["residual_history"]
    for a, b in zip(hist[1:], hist[2:]):
        assert b <= a * (1.0 + 1e-9)
    lines = csv.read_text().splitlines()
    assert lines[0] == "target,g,mass,b"
    assert len(lines) == 4
    text = mesh.read_text().splitlines()
    assert sum(1 for l in text if l.startswith("v ")) == 1200

    # a 2-D problem cannot give an OBJ mesh: rejected before the solve,
    # so no -o file is written either
    prob2d = {"media": {"A1": (1.5 * np.eye(2)).tolist(),
                        "A2": np.eye(2).tolist()},
              "source": {"axis": [0.0, 1.0], "angle": 0.25, "node_count": 200},
              "targets": [{"m": [0.0998334166468282, 0.9950041652780258],
                           "g": 1.0},
                          {"m": [-0.0998334166468282, 0.9950041652780258],
                           "g": 1.0}],
              "b1": 1.0, "tol": 2e-2}
    path = tmp_path / "problem2d.json"
    path.write_text(json.dumps(prob2d))
    sol2d = tmp_path / "sol2d.json"
    assert main(["design", str(path), "-o", str(sol2d)]) == 0
    sol2d.unlink()
    capsys.readouterr()
    assert main(["design", str(path), "-o", str(sol2d),
                 "--mesh", str(tmp_path / "mesh2d.obj")]) == 1
    assert "OBJ export requires 3D vertices" in capsys.readouterr().err
    assert not sol2d.exists()


def test_design_thread_count_invariance(tmp_path):
    prob = small_problem(tmp_path, node_count=900)
    outs = []
    for tag in ("a", "b"):
        sol = tmp_path / f"sol_{tag}.json"
        csv = tmp_path / f"rep_{tag}.csv"
        mesh = tmp_path / f"mesh_{tag}.obj"
        rc = main(["design", str(prob), "-o", str(sol), "--report", str(csv),
                   "--mesh", str(mesh)])
        assert rc == 0
        outs.append((sol.read_bytes(), csv.read_bytes(), mesh.read_bytes()))
    assert outs[0] == outs[1]


def test_design_nonconvergence_exit_code(tmp_path):
    prob = small_problem(tmp_path, node_count=150, tol=1e-9)
    sol = tmp_path / "sol.json"
    rc = main(["design", str(prob), "-o", str(sol), "--max-sweeps", "40"])
    assert rc == 3
    assert "error" in json.loads(sol.read_text())


def test_design_infeasible_exit_code(tmp_path, capsys):
    prob_dict = json.loads(small_problem(tmp_path).read_text())
    prob_dict["targets"].append({"m": [1.0, 0.0, 0.0], "g": 0.5})
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(prob_dict))
    assert main(["design", str(path)]) == 4
    # Case II: a 0.9 rad cap reaches past every target's x.p2(m) > 1 domain
    prob_dict = json.loads(small_problem(tmp_path, node_count=2000, n1=1.0,
                                         n2=1.5).read_text())
    prob_dict["source"]["angle"] = 0.9
    prob_dict["targets"] = [{"m": [0.0, 0.0, 1.0], "g": 1.0},
                            {"m": [0.05, 0.0, 1.0], "g": 1.0}]
    path.write_text(json.dumps(prob_dict))
    capsys.readouterr()
    assert main(["design", str(path)]) == 4
    err = capsys.readouterr().err
    assert "273 nodes (first: 1727) are outside the anchor" in err
    assert "228 of them outside every target's" in err


def test_golden_problem(tmp_path, regen_golden):
    sol = tmp_path / "sol.json"
    rc = main(["design", str(GOLDEN_PROBLEM), "-o", str(sol)])
    assert rc == 0
    got = json.loads(sol.read_text())
    if regen_golden or not GOLDEN_SOLUTION.exists():
        GOLDEN_SOLUTION.write_text(dumps17(got) + "\n")
    expect = json.loads(GOLDEN_SOLUTION.read_text())
    assert np.allclose(got["radii"], expect["radii"], rtol=1e-12, atol=0)
    assert np.allclose(got["masses"], expect["masses"], rtol=1e-12, atol=0)
    assert got["residual"] <= 1e-3


def test_verify_golden(tmp_path, regen_golden):
    out = tmp_path / "verify.json"
    assert main(["verify", str(GOLDEN_PROBLEM), "-o", str(out)]) == 0
    got = json.loads(out.read_text())
    if regen_golden or not GOLDEN_VERIFY.exists():
        GOLDEN_VERIFY.write_text(dumps17(got) + "\n")
    expect = json.loads(GOLDEN_VERIFY.read_text())
    assert got.keys() == expect.keys()
    assert got["agrees"] is expect["agrees"] is True
    # roundoff-sized figures, not ones to reproduce
    roundoff = {"min_slack", "duality_gap_rel", "marginal_error"}
    assert got["min_slack"] >= -1e-12
    assert got["duality_gap_rel"] <= 1e-9
    assert got["marginal_error"] <= 1e-12
    for key in expect.keys() - roundoff - {"agrees"}:
        assert np.isclose(got[key], expect[key], rtol=1e-12, atol=0), key
    # the certificate is of the design itself, not of a coarser re-solve
    design = json.loads(GOLDEN_SOLUTION.read_text())
    assert got["residual"] == design["residual"]


def test_fresnel_csv_and_norm(tmp_path):
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"eps": np.diag([1.0, 2.0, 3.0]).tolist(),
                               "mu": np.eye(3).tolist()}))
    csv = tmp_path / "sheets.csv"
    rc = main(["fresnel", str(mat), "--samples", "50", "-o", str(csv)])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "ux,uy,uz,r_inner,r_outer"
    assert len(lines) == 1 + 3 + 50  # axes rows first, then the lattice
    row = lines[1].split(",")
    assert [float(v) for v in row[:3]] == [1.0, 0.0, 0.0]
    assert float(row[3]) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert float(row[4]) == pytest.approx(np.sqrt(3.0), abs=1e-12)

    # non-proportional material: no norm JSON
    norm_out = tmp_path / "norm.json"
    rc = main(["fresnel", str(mat), "--samples", "10", "-o", str(csv),
               "--norm-out", str(norm_out)])
    assert rc == 0 and not norm_out.exists()

    iso = tmp_path / "iso.json"
    iso.write_text(json.dumps({"eps": (4.0 * np.eye(3)).tolist(),
                               "mu": np.eye(3).tolist()}))
    rc = main(["fresnel", str(iso), "--samples", "10", "-o", str(csv),
               "--norm-out", str(norm_out)])
    assert rc == 0
    norm = json.loads(norm_out.read_text())
    assert norm["kind"] == "ellipsoidal"
    assert np.allclose(norm["A"], (2.0 * np.eye(3)).tolist())
    rows = csv.read_text().splitlines()[1:]
    vals = np.array([[float(v) for v in r.split(",")] for r in rows])
    # isotropic: both sheets coincide at r = sqrt(eps/mu), constant columns
    assert np.allclose(vals[:, 3], 2.0) and np.allclose(vals[:, 4], 2.0)


def case2_problem(tmp_path, seed, count=8, node_count=3000, tol=2e-3):
    """Case II 1.0 -> 1.5 with targets in a 0.1 rad cone around the axis."""
    rng = np.random.default_rng(seed)
    th = 0.10 * np.sqrt(rng.uniform(size=count))
    th[0] = 0.0
    ph = rng.uniform(0, 2 * np.pi, count)
    g = rng.uniform(0.5, 1.5, count)
    dirs = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                     np.cos(th)], axis=-1)
    prob = {"media": {"A1": np.eye(3).tolist(),
                      "A2": (1.5 * np.eye(3)).tolist()},
            "source": {"axis": [0.0, 0.0, 1.0], "angle": 0.25,
                       "node_count": node_count},
            "targets": [{"m": m.tolist(), "g": float(gi)}
                        for m, gi in zip(dirs, g)],
            "b1": 1.0, "tol": tol}
    path = tmp_path / f"case2_{seed}.json"
    path.write_text(json.dumps(prob))
    return path


def test_verify_agreement(tmp_path, capsys):
    # the Case II problem's tol 2e-3 is finer than a 500-node grid
    # resolves, so only a solve at the design's own node count meets it
    for prob in (small_problem(tmp_path, node_count=2000, tol=1e-2),
                 case2_problem(tmp_path, seed=7)):
        rc = main(["verify", str(prob)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["agrees"] is True
        assert report["min_slack"] >= -1e-12
        assert report["duality_gap_rel"] <= 1e-9
        assert report["residual"] <= json.loads(prob.read_text())["tol"]


def grid_norm(name, dim):
    if name == "lq3":
        return {"kind": "lq", "q": 3.0, "dim": dim}
    return {"kind": "ellipsoidal", "A": (0.5 * np.eye(dim)).tolist()}


def norm_grid_problem(tmp_path, n1, n2, dim, count=4):
    """Media n1 -> n2 ("lq3" or "iso0.5") on a 0.15 rad cap of 2000 nodes;
    targets within 0.03 rad of the axis; tol 3e-3."""
    rng = np.random.default_rng(0)
    if dim == 3:
        th = 0.03 * np.sqrt(rng.uniform(size=count))
        th[0] = 0.0
        ph = rng.uniform(0, 2 * np.pi, count)
        dirs = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)], axis=-1)
    else:
        th = np.linspace(-0.03, 0.03, count)
        dirs = np.stack([np.sin(th), np.cos(th)], axis=-1)
    prob = {"media": {"n1": grid_norm(n1, dim), "n2": grid_norm(n2, dim)},
            "source": {"axis": [0.0] * (dim - 1) + [1.0], "angle": 0.15,
                       "node_count": 2000},
            "targets": [{"m": m.tolist(), "g": float(g)}
                        for m, g in zip(dirs, rng.uniform(0.5, 1.5, count))],
            "b1": 1.0, "tol": 3e-3}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(prob))
    return path


@pytest.mark.parametrize("n1, n2, dim, regime", [
    ("lq3", "iso0.5", 3, "CaseI"), ("iso0.5", "lq3", 3, "CaseII"),
    ("lq3", "iso0.5", 2, "CaseI"), ("iso0.5", "lq3", 2, "CaseII"),
], ids=["case1_3d", "case2_3d", "case1_2d", "case2_2d"])
def test_design_regime_norm_grid(tmp_path, capsys, n1, n2, dim, regime):
    # lq and ellipsoidal media, both regimes, through design and verify
    prob = norm_grid_problem(tmp_path, n1, n2, dim)
    sol = tmp_path / "sol.json"
    assert main(["design", str(prob), "-o", str(sol)]) == 0
    out = json.loads(sol.read_text())
    assert out["regime"] == regime
    assert out["residual"] <= 3e-3
    assert sum(out["masses"]) == pytest.approx(out["total"], rel=1e-12)
    assert main(["verify", str(prob)]) == 0
    assert json.loads(capsys.readouterr().out)["agrees"] is True
    pair, src, tgt = load_problem(prob).build()
    assert check_c_concavity(Refractor(pair, tgt, out["radii"]), src)


def test_export_solution_and_surface(tmp_path, capsys):
    prob = small_problem(tmp_path)
    sol = tmp_path / "sol.json"
    assert main(["design", str(prob), "-o", str(sol)]) == 0
    mesh = tmp_path / "refractor.obj"
    assert main(["export", str(prob), "--solution", str(sol),
                 "--mesh", str(mesh)]) == 0
    assert mesh.read_text().startswith("o refractor")
    single = tmp_path / "s0.obj"
    assert main(["export", str(prob), "--target-index", "0", "--b", "1.0",
                 "--mesh", str(single)]) == 0
    assert single.read_text().startswith("o surface_0")
    assert main(["export", str(prob), "--mesh", str(tmp_path / "x.obj")]) == 1
    capsys.readouterr()
    for index in ("3", "-1"):  # three targets
        assert main(["export", str(prob), "--target-index", index,
                     "--mesh", str(tmp_path / "x.obj")]) == 1
        assert f"target index {index} is out of range" in \
            capsys.readouterr().err
    # non-finite radii and --b exit 1 before any mesh is written
    for bad in (float("nan"), float("inf")):
        payload = json.loads(sol.read_text())
        payload["radii"][1] = bad
        bad_sol = tmp_path / "bad.json"
        bad_sol.write_text(json.dumps(payload))
        assert main(["export", str(prob), "--solution", str(bad_sol),
                     "--mesh", str(tmp_path / "x.obj")]) == 1
        assert "radii must be finite and positive" in capsys.readouterr().err
    for b in ("nan", "inf", "-inf"):
        assert main(["export", str(prob), "--target-index", "1", f"--b={b}",
                     "--mesh", str(tmp_path / "x.obj")]) == 1
        assert "b must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "x.obj").exists()


def test_export_case2_surface_clips_to_domain(tmp_path):
    prob = {
        "media": {"A1": np.eye(3).tolist(), "A2": (1.5 * np.eye(3)).tolist()},
        "source": {"axis": [0.0, 0.0, 1.0], "angle": 1.2, "node_count": 400},
        "targets": [{"m": [0.0, 0.0, 1.0], "g": 1.0}],
        "b1": 1.0, "tol": 2e-2,
    }
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(prob))
    mesh = tmp_path / "patch.obj"
    assert main(["export", str(path), "--target-index", "0", "--b", "1.0",
                 "--mesh", str(mesh)]) == 0
    lines = mesh.read_text().splitlines()
    nv = sum(1 for l in lines if l.startswith("v "))
    assert 0 < nv < 400  # only the x.p2(m) > 1 patch survives
    for l in lines:
        if l.startswith("f "):
            assert all(1 <= int(t) <= nv for t in l.split()[1:])


def test_cli_entry_point_subprocess(tmp_path):
    # the installed console script path stays wired up
    prob = small_problem(tmp_path, node_count=400, tol=2e-2)
    res = subprocess.run([sys.executable, "-m", "refractor.cli", "design",
                          str(prob)], capture_output=True, text=True,
                         env=src_env())
    assert res.returncode == 0
    assert json.loads(res.stdout)["residual"] <= 2e-2
    # design and verify run on numpy alone: no scipy module is ever loaded
    code = ("import sys; from refractor.cli import main; "
            f"rcs = [main([c, {str(prob)!r}]) for c in ('design', 'verify')]; "
            "print(rcs, any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=src_env())
    assert res.stdout.splitlines()[-1] == "[0, 0] False"
