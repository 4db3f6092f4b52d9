import json

import numpy as np
import pytest

from refractor.errors import ValidationError
from refractor.norms import Regime
from refractor.problems import dumps17, load_problem, parse_pair


def base_problem():
    return {
        "media": {"A1": (1.5 * np.eye(3)).tolist(), "A2": np.eye(3).tolist()},
        "source": {"axis": [0.0, 0.0, 1.0], "angle": 0.25, "node_count": 500},
        "targets": [{"m": [0.0, 0.0, 1.0], "g": 2.0}],
        "b1": 1.0,
    }


def test_load_and_build():
    spec = load_problem(base_problem())
    pair, src, tgt = spec.build()
    assert pair.regime is Regime.CASE_I
    assert src.count == 500
    # relative masses are rescaled to the quadrature total
    assert np.sum(tgt.masses) == pytest.approx(src.total, rel=1e-14)


def test_pair_key_alias():
    prob = base_problem()
    prob["pair"] = prob.pop("media")
    assert load_problem(prob).pair.kappa == pytest.approx(2.0 / 3.0)


def test_media_forms():
    p1 = parse_pair({"A1": (1.5 * np.eye(3)).tolist(),
                     "A2": np.eye(3).tolist()}, "media")
    p2 = parse_pair({"n1": {"kind": "ellipsoidal",
                            "A": (1.5 * np.eye(3)).tolist()},
                     "n2": {"kind": "lq", "q": 4.0, "dim": 3}}, "media")
    p3 = parse_pair({"material1": {"eps": np.eye(3).tolist(),
                                   "mu": np.eye(3).tolist()},
                     "material2": {"eps": (4.0 * np.eye(3)).tolist(),
                                   "mu": np.eye(3).tolist()}}, "media")
    assert p1.kappa == pytest.approx(2.0 / 3.0)
    assert p2.regime is Regime.CASE_I
    assert p3.regime is Regime.CASE_II  # n on the far side doubles
    assert p3.kappa == pytest.approx(2.0, abs=1e-12)


def test_validation_messages():
    prob = base_problem()
    del prob["b1"]
    with pytest.raises(ValidationError):
        load_problem(prob)
    prob = base_problem()
    prob["targets"] = []
    with pytest.raises(ValidationError):
        load_problem(prob)
    prob = base_problem()
    prob["targets"][0]["g"] = -1.0
    with pytest.raises(ValidationError):
        load_problem(prob)
    prob = base_problem()
    prob["source"]["axis"] = [0.0, 1.0]
    with pytest.raises(ValidationError):
        load_problem(prob)
    prob = base_problem()
    prob["source"]["density"] = "gaussian"
    with pytest.raises(ValidationError, match="source density must be one"):
        load_problem(prob)


def test_dumps17_round_trip():
    obj = {"a": 1.0 / 3.0, "b": [1, 2.5e-17, "s", None, True],
           "c": {"d": np.float64(0.1)}}
    text = dumps17(obj)
    back = json.loads(text)
    assert back["a"] == 1.0 / 3.0  # 17 significant digits round-trip exactly
    assert back["b"][1] == 2.5e-17
    assert dumps17(obj) == text  # deterministic bytes
