"""Command-line front end.

Subcommands: snell (one refraction event), design (solve a problem file,
emit solution JSON / CSV report / OBJ mesh / convergence log), fresnel
(sheet radii CSV and induced norm), verify (design's duality certificate),
export (meshes from a solved problem).

Exit codes: 0 ok, 1 validation (usage errors included), 2 no refraction,
3 non-convergence, 4 infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (Infeasible, InfeasibleTarget, NoRefraction,
                     NonConvergence, NotProportional, RefractorError,
                     ValidationError)
from .geometry import fibonacci_sphere
from .problems import dumps17, load_problem, parse_pair, write_csv, write_json

EXIT_VALIDATION = 1
EXIT_NO_REFRACTION = 2
EXIT_NON_CONVERGENCE = 3
EXIT_INFEASIBLE = 4

_EXIT_CODES = [
    (NoRefraction, EXIT_NO_REFRACTION),
    (NonConvergence, EXIT_NON_CONVERGENCE),
    ((InfeasibleTarget, Infeasible, NotProportional), EXIT_INFEASIBLE),
    ((RefractorError, OSError, ValueError, KeyError), EXIT_VALIDATION),
]


def _emit(payload: dict, out_path) -> None:
    if out_path:
        write_json(out_path, payload)
    else:
        sys.stdout.write(dumps17(payload) + "\n")


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_snell(args) -> int:
    from .snell import refract

    raw = _load_json(args.input)
    pair = parse_pair(raw["pair"] if "pair" in raw else raw["media"])
    event = refract(pair, np.asarray(raw["x"], float),
                    np.asarray(raw["nu"], float))
    _emit(event.to_json_dict(), args.output)
    return 0


def _solve_problem(spec, tol, max_sweeps):
    from .solver import solve_discrete

    pair, src, tgt = spec.build()
    refr = solve_discrete(pair, src, tgt, spec.b1, tol=tol,
                          max_sweeps=max_sweeps)
    return pair, src, tgt, refr


def cmd_design(args) -> int:
    from .solver import refractor_measure, refractor_to_obj

    spec = load_problem(args.problem)
    if args.mesh and spec.pair.dim != 3:
        raise ValidationError("OBJ export requires 3D vertices")
    tol = args.tol if args.tol is not None else spec.tol
    try:
        pair, src, tgt, refr = _solve_problem(spec, tol, args.max_sweeps)
    except NonConvergence as exc:
        _emit({"error": str(exc)}, args.output)
        raise
    report = refractor_measure(refr, src)
    payload = {
        "radii": refr.radii.tolist(),
        "residual": refr.info.residual,
        "iterations": refr.info.sweeps,
        "residual_history": refr.info.residual_history,
        "regime": pair.regime.value,
        "kappa": pair.kappa,
        "masses": report.masses.tolist(),
        "total": src.total,
    }
    _emit(payload, args.output)
    if args.log:
        with open(args.log, "w", newline="\n") as fh:
            for r in refr.info.residual_history:
                fh.write(dumps17(r) + "\n")
    if args.report:
        rows = [(i, tgt.masses[i], report.masses[i], refr.radii[i])
                for i in range(tgt.count)]
        write_csv(args.report, ["target", "g", "mass", "b"], rows)
    if args.mesh:
        refractor_to_obj(refr, src, args.mesh)
    return 0


def cmd_fresnel(args) -> int:
    from .fresnel import FresnelMaterial, induced_norm, sheet_radii

    mat = FresnelMaterial.from_json_dict(_load_json(args.material))
    # principal axes first so the axis radii are directly readable
    dirs = np.vstack([np.eye(3), fibonacci_sphere(args.samples)])
    rows = []
    for u in dirs:
        s = sheet_radii(mat, u)
        rows.append((u[0], u[1], u[2], s.r_inner, s.r_outer))
    if args.output:
        write_csv(args.output, ["ux", "uy", "uz", "r_inner", "r_outer"], rows)
    else:
        sys.stdout.write("ux,uy,uz,r_inner,r_outer\n")
        for row in rows:
            sys.stdout.write(",".join(dumps17(v) for v in row) + "\n")
    if args.norm_out:
        try:
            norm = induced_norm(mat)
        except NotProportional as exc:
            sys.stderr.write(f"no induced norm: {exc}\n")
        else:
            write_json(args.norm_out, norm.to_json_dict())
    return 0


def cmd_verify(args) -> int:
    from .solver import refractor_measure
    from .transport import build_cost, certificate

    spec = load_problem(args.problem)
    pair, src, tgt, refr = _solve_problem(spec, spec.tol, args.max_sweeps)
    report = refractor_measure(refr, src)
    _emit(certificate(refr, src, report, build_cost(pair, src, tgt)),
          args.output)
    return 0


def cmd_export(args) -> int:
    from .solver import Refractor, refractor_to_obj
    from .surfaces import UniformSurface, domain_mask, surface_to_obj

    spec = load_problem(args.problem)
    pair, src, tgt = spec.build()
    if args.solution:
        radii = np.asarray(_load_json(args.solution)["radii"], dtype=float)
        refr = Refractor(pair, tgt, radii)
        refractor_to_obj(refr, src, args.mesh)
    elif args.target_index is not None:
        if not 0 <= args.target_index < tgt.count:
            raise ValidationError(f"target index {args.target_index} is out "
                                  f"of range for {tgt.count} targets")
        s = UniformSurface(pair, tgt.directions[args.target_index],
                           args.b if args.b is not None else spec.b1)
        keep = domain_mask(s, src.nodes)
        if not np.any(keep):
            raise ValidationError("no source node lies in the surface domain")
        index = np.full(src.count, -1, dtype=int)
        index[keep] = np.arange(int(np.sum(keep)))
        faces = src.tris[np.all(keep[src.tris], axis=1)]
        surface_to_obj(s, src.nodes[keep], index[faces], args.mesh,
                       name=f"surface_{args.target_index}")
    else:
        raise ValidationError("export needs --solution or --target-index")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors (exit 1), not argparse's exit 2,
    which means no refraction here; subparsers are built from this class."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="refractor", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snell", help="solve one refraction event")
    p.add_argument("input", help="JSON file with pair, x, nu")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_snell)

    p = sub.add_parser("design", help="solve a refractor design problem")
    p.add_argument("problem")
    p.add_argument("-o", "--output")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-sweeps", type=int, default=10_000)
    p.add_argument("--mesh")
    p.add_argument("--report")
    p.add_argument("--log")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("fresnel", help="sheet radii CSV and induced norm")
    p.add_argument("material", help="JSON file with eps and mu matrices")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("-o", "--output")
    p.add_argument("--norm-out")
    p.set_defaults(func=cmd_fresnel)

    p = sub.add_parser("verify", help="optimality certificate of the design")
    p.add_argument("problem")
    p.add_argument("-o", "--output")
    p.add_argument("--max-sweeps", type=int, default=10_000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="export meshes for a problem")
    p.add_argument("problem")
    p.add_argument("--solution", help="solution JSON from 'design'")
    p.add_argument("--target-index", type=int, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--mesh", required=True)
    p.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # map to documented exit codes
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                sys.stderr.write(f"error: {exc}\n")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
