"""The solve benchmark runs end to end on a tiny grid, with a row whose
solve raises, a row of other media and a 2D row, its CLI rows and its
import rows, and writes the documented keys."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import SRC, src_env

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_solve.py"


def test_bench_solve_smoke(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(out),
                    "--grid", "2000x3,13x5,2000x8:case2,2000x4:2d",
                    "--repeats", "1",
                    "--baseline", str(SRC), "--baseline-label", "same"],
                   env=src_env(), check=True, capture_output=True,
                   timeout=120)
    result = json.loads(out.read_text())
    assert {"benchmark", "problem", "environment", "repeats", "versions",
            "rows", "cli_rows", "import_row",
            "verify_import_row"} <= set(result)
    assert result["versions"] == ["current", "same"]
    assert [(r["J"], r["N"], r["media"]) for r in result["rows"]] == [
        (2000, 3, "iso"), (13, 5, "iso"), (2000, 8, "case2"),
        (2000, 4, "2d")]
    for row in result["rows"]:
        assert row["same_result"] is True
        for name in result["versions"]:
            run = row[name]
            assert set(run) == {"solve_s", "solve_s_runs", "quadrature_s",
                                "sweeps", "newton_steps", "newton_trials",
                                "updates", "fallback", "residual", "stop",
                                "digest", "error"}
            assert len(run["solve_s_runs"]) == 1
            assert run["solve_s"] > 0
            if row["J"] == 13:  # 13 nodes cannot balance 5 targets
                assert run["error"]["type"] == "NonConvergence"
                message = run["error"]["message"]
                assert "Newton stopped (damping)" in message
                # the stop reason, sweeps and residual as fields
                assert run["stop"] == "damping"
                assert f"after {run['sweeps']} sweeps" in message
                assert f"residual {run['residual']:.3e} >" in message
                assert run["digest"] is run["newton_steps"] is None
                assert run["newton_trials"] is None
                continue
            assert run["error"] is None and run["stop"] == "converged"
            assert 0 < run["residual"] <= 1e-3
            # Newton designs in 2D as in 3D
            assert run["newton_steps"] > 0
            # every accepted step is a trial step, and rejected ones count
            assert run["newton_trials"] >= run["newton_steps"]
            # the sweep start runs only where the closed-form start gave
            # up, and the row says why; it always fills
            assert run["fallback"] is None or run["sweeps"] > 0
            assert run["fallback"] in (None, "repair", "singular",
                                       "damping", "budget")
        # the largest relative difference of the versions' radii
        assert row["radii_rel_diff"] == (None if row["J"] == 13 else 0.0)
    # the CLI rows: the golden problem and the 20k x 20 grid row, designed
    # by both versions with byte-identical outputs
    assert [r["problem"] for r in result["cli_rows"]] == [
        "problems/iso_5targets.json", "grid 20000x20"]
    for row in result["cli_rows"]:
        assert row["same_output"] is True
        assert row["time_ratio"] > 0
        for name in result["versions"]:
            run = row[name]
            assert set(run) == {"wall_s", "wall_s_runs", "peak_rss_mb",
                                "digest"}
            assert len(run["wall_s_runs"]) == 1
            assert run["peak_rss_mb"] > 0
    # the import row: `import numpy`, and each version's `import
    # refractor.cli`; the verify import row: each version's `import
    # refractor.cli, refractor.transport`
    imports = result["import_row"]
    assert set(imports) == {"numpy", *result["versions"], "time_ratio",
                            "import_ratio"}
    verify = result["verify_import_row"]
    assert set(verify) == {*result["versions"], "time_ratio", "import_ratio"}
    for row, names in ((imports, ["numpy", *result["versions"]]),
                       (verify, result["versions"])):
        assert row["time_ratio"] > 0 and row["import_ratio"] > 0
        for name in names:
            assert set(row[name]) == {"wall_s", "wall_s_runs", "import_s",
                                      "import_s_runs"}
            assert len(row[name]["wall_s_runs"]) == 1
            assert len(row[name]["import_s_runs"]) == 1
            # the import statement runs inside the interpreter's wall time
            assert 0 < row[name]["import_s"] < row[name]["wall_s"]
