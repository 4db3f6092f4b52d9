"""Problem files: schema, loading, and deterministic JSON/CSV serialization.

A problem JSON pins down a design instance:

    {
      "media":   {"A1": [[...]], "A2": [[...]]}            (matrix form)
               | {"n1": {norm}, "n2": {norm}}              (norm form)
               | {"material1": {"eps":..,"mu":..}, "material2": {...}},
      "source":  {"axis": [..], "angle": rad, "node_count": int,
                  "density": "uniform" | "cosine"},
      "targets": [{"m": [..], "g": positive}, ...],
      "b1": positive, "tol": positive, "seed": int  (checked, never read)
    }

A {norm} is {"kind": "ellipsoidal", "A": [[...]]} or {"kind": "lq", "q": q,
"dim": 2 | 3}, as `write_norm` writes it for `fresnel --norm-out`; the pair
may sit under "pair" in place of "media".
Target masses are relative: they are rescaled to the quadrature total on
load.  All emitted numbers carry 17 significant digits so identical inputs
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import numbers
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .geometry import format_float
from .norms import MediumPair, Norm
from .solver import _DENSITIES, SourceDensity, TargetMeasure

__all__ = ["ProblemSpec", "load_problem", "parse_pair", "parse_norm",
           "parse_material", "write_norm", "floats", "dumps17", "write_json",
           "write_csv"]

MAX_ENTRIES = 20_000_000  # node_count x targets: 160 MB per (J, N) array


def dumps17(obj) -> str:
    """Compact JSON with floats at 17 significant digits, key order kept;
    numpy arrays and scalars are written as their Python values."""
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + dumps17(v)
                              for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps17(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, np.integer):
        return json.dumps(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    raise ValidationError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps17(obj) + "\n")


def write_csv(path, header, rows) -> None:
    """Plain CSV, floats at 17 significant digits."""
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return format_float(float(v))
        return str(v)

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def parse_pair(media, where: str) -> MediumPair:
    """The medium pair of any of the three media forms, read at key path
    where ('media' or 'pair'), so each message names the medium's key."""
    if not isinstance(media, dict):
        raise ValidationError(f"'{where}' must be an object")
    if "A1" in media and "A2" in media:
        A1, A2 = (floats(media[k], f"{where} {k}") for k in ("A1", "A2"))
        return MediumPair(Norm.ellipsoidal(A1), Norm.ellipsoidal(A2))
    if "n1" in media and "n2" in media:
        return MediumPair(*(parse_norm(media[k], f"{where} {k}")
                            for k in ("n1", "n2")))
    if "material1" in media and "material2" in media:
        from .fresnel import induced_norm

        return MediumPair(*(induced_norm(parse_material(media[k],
                                                        f"{where} {k}"))
                            for k in ("material1", "material2")))
    raise ValidationError(
        f"'{where}' must provide A1/A2, n1/n2, or material1/material2")


def parse_norm(d, where: str) -> Norm:
    """The `Norm` of a {norm} object (module docstring) read at key path
    where; `Norm` itself checks the matrix and the exponent."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be an object, got {d!r}")
    kind = d.get("kind")
    if kind == "ellipsoidal":
        return Norm.ellipsoidal(floats(_require(d, "A", where), f"{where} A"))
    if kind == "lq":
        return Norm.lq(_number(_require(d, "q", where), f"{where} q"),
                       _integer(_require(d, "dim", where), f"{where} dim"))
    raise ValidationError(
        f"{where} kind must be 'ellipsoidal' or 'lq', got {kind!r}")


def write_norm(path, norm: Norm) -> None:
    """Write norm as the object that parse_norm reads back."""
    write_json(path, {"kind": "ellipsoidal", "A": norm.A}
               if norm.kind == "ellipsoidal"
               else {"kind": "lq", "q": norm.q, "dim": norm.dim})


def parse_material(d, where: str) -> "FresnelMaterial":
    """The `FresnelMaterial` of a {"eps": [[...]], "mu": [[...]]} object
    read at key path where ('material' for a fresnel input)."""
    from .fresnel import FresnelMaterial

    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be an object, got {d!r}")
    return FresnelMaterial(*(floats(_require(d, k, where), f"{where} {k}")
                             for k in ("eps", "mu")))


class ProblemSpec(NamedTuple):
    pair: MediumPair
    axis: np.ndarray
    angle: float
    node_count: int
    density: str
    target_dirs: np.ndarray
    target_weights: np.ndarray  # relative masses, rescaled on build
    b1: float
    tol: float

    def build(self) -> tuple[MediumPair, SourceDensity, TargetMeasure]:
        src = SourceDensity.from_cap(self.pair.n1, self.axis, self.angle,
                                     self.node_count, self.density)
        g = self.target_weights * (src.total / float(np.sum(self.target_weights)))
        tgt = TargetMeasure.of(self.pair.n2, self.target_dirs, g)
        return self.pair, src, tgt


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ValidationError(f"missing '{key}' in {where}")
    return d[key]


def floats(value, what: str) -> np.ndarray:
    """value as an array of finite floats, or a ValidationError naming what:
    JSON may hold an object, a string or a huge integer there, and NaN and
    Infinity, which json.load accepts and no comparison below rejects."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{what} must be numbers, got {value!r}") from None
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{what} must be finite")
    return array


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(floats(value, what))


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def load_json_object(path) -> dict:
    """The JSON object held by the file at path."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return raw


def load_problem(source) -> ProblemSpec:
    """Parse and validate a problem from a path or a dict, refusing
    node_count x targets above MAX_ENTRIES and unknown source densities
    before anything is built."""
    raw = source if isinstance(source, dict) else load_json_object(source)

    _integer(raw.get("seed", 0), "seed")
    key = "pair" if "pair" in raw else "media"
    pair = parse_pair(_require(raw, key, "problem"), key)
    s = _require(raw, "source", "problem")
    if not isinstance(s, dict):
        raise ValidationError("'source' must be an object")
    axis = floats(_require(s, "axis", "source"), "source axis")
    if axis.shape != (pair.dim,):
        raise ValidationError("source axis dimension does not match the media")
    if not np.any(axis):
        raise ValidationError("source axis must be nonzero")
    angle = _number(_require(s, "angle", "source"), "source angle")
    node_count = _integer(_require(s, "node_count", "source"),
                          "source node_count")
    density = str(s.get("density", "uniform"))
    if density not in _DENSITIES:
        raise ValidationError(f"source density must be one of "
                              f"{', '.join(map(repr, _DENSITIES))}, got "
                              f"{density!r}")

    targets = _require(raw, "targets", "problem")
    if not (isinstance(targets, list)
            and all(isinstance(t, dict) for t in targets)):
        raise ValidationError("'targets' must be a list of objects")
    if not targets:
        raise ValidationError("at least one target is required")
    dirs, gs = [], []
    for k, t in enumerate(targets):
        m = floats(_require(t, "m", f"target {k}"), f"target {k} direction")
        if m.shape != (pair.dim,):
            raise ValidationError(f"target {k} direction has wrong dimension")
        g = _number(_require(t, "g", f"target {k}"), f"target {k} mass")
        if g <= 0.0:
            raise ValidationError(f"target {k} mass must be positive")
        dirs.append(m)
        gs.append(g)

    if node_count * len(targets) > MAX_ENTRIES:
        raise ValidationError(f"source node_count {node_count} times "
                              f"{len(targets)} targets exceeds {MAX_ENTRIES:,}"
                              " (J, N) entries of 8 bytes")

    b1 = _number(_require(raw, "b1", "problem"), "b1")
    tol = _number(raw.get("tol", 1e-3), "tol")
    if b1 <= 0.0 or tol <= 0.0:
        raise ValidationError("b1 and tol must be positive")
    return ProblemSpec(pair=pair, axis=axis, angle=angle,
                       node_count=node_count, density=density,
                       target_dirs=np.asarray(dirs), target_weights=np.asarray(gs),
                       b1=b1, tol=tol)
