"""Command-line front end: JSON in, verdicts and residual maps out.

Exit codes: 0 completed, 2 verdict-negative (for example CertifiedNot or a
failed coincidence), 3 input or schema error, 4 internal-consistency error.
Reports are reproducible from the input file and flags; only the timestamp
field differs between runs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

from . import __version__
from . import classify as cl
from . import fundops as fo
from . import gen as g
from . import geometry as geo
from . import io as tio
from . import models as md
from .errors import InternalConsistencyError, SchemaError, TetrakitError
from .matkernel import Tolerances

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _provenance(args, tol) -> dict:
    return {
        "tool": "tetrakit",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "tolerances": {"eq_tol": tol.eq_tol},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(report: dict, path) -> None:
    text = json.dumps(tio.sanitize_report(report), indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path, kind: str):
    """The value of the document at path, which must be of the given kind."""
    got, value = tio.load_document(path)
    if got != kind:
        raise SchemaError(f"expected a {kind} document, got {got}")
    return value


# Each handler takes the parsed arguments and the tolerances, and returns
# its report sections (or, for dataset and generate, its document) and
# whether the verdict is positive.


def _membership(args, tol):
    verdict = geo.in_tetrablock(_load(args.input, "point"), tol)
    section = {
        "in_open": verdict.in_open,
        "in_closure": verdict.in_closure,
        "in_bE": verdict.in_bE,
        "sup_psi_ab": verdict.sup_psi_ab,
        "sup_psi_ba": verdict.sup_psi_ba,
        "boundary_marginal": verdict.boundary_marginal,
    }
    if verdict.witness is not None:
        section["witness"] = tio.matrix_to_json(verdict.witness)
    return {"verdict": section}, verdict.in_closure


def _classify(args, tol):
    triple = _load(args.input, "triple")
    rep = cl.classify_triple(triple, tol, mc_samples=args.mc_samples, seed=args.seed)
    section = {
        "commuting": rep.commuting,
        "e_unitary": rep.e_unitary,
        "e_isometry": rep.e_isometry,
        "pc_isometry": rep.pc_isometry,
        "pc_unitary": rep.pc_unitary,
        "contraction_certificate": rep.contraction_certificate.value,
        "failed_checks": rep.failed_checks,
        "residuals": rep.residuals,
    }
    return (
        {"classification": section},
        rep.contraction_certificate is not cl.Certificate.CERTIFIED_NOT,
    )


def _fundops(args, tol):
    pair = fo.fundamental_pair(_load(args.input, "triple"), adjoint=args.adjoint, tol=tol)
    section = {
        "adjoint": args.adjoint,
        "carrier_dim": pair.carrier.dim,
        "x1": tio.matrix_to_json(pair.x1),
        "x2": tio.matrix_to_json(pair.x2),
        "pencil_nu_max": pair.pencil_nu_max,
        "pencil_nu_upper": pair.pencil_nu_upper,
        "is_special": pair.is_special,
        "residuals": pair.residuals,
    }
    return {"fundamental_pair": section}, True


def _lift(args, tol):
    """lift and verify: build the model and check it; lift also writes it."""
    triple = _load(args.input, "triple")
    order = None if args.order == "auto" else int(args.order)
    model = md.build_lift(triple, order, tol)
    residuals = md.verify_lift(model, triple, tol)
    report = {
        "model": {
            "order_n": model.order_n,
            "defect_dim": model.defect_dim,
            "residual_dim": model.residual.dim,
            "tail": model.tail,
            "deficiency": model.deficiency,
            "strict": md.lift_is_strict(model),
            "warnings": model.warnings,
        },
        "residuals": residuals,
    }
    if args.command == "lift":
        report["model_detail"] = tio.model_to_json(model)
    worst = max(v for k, v in residuals.items() if k != "bound")
    return report, worst <= residuals["bound"]


def _dataset(args, tol):
    triple = _load(args.input, "triple")
    ds = md.extract_data_set(triple, grid=max(args.grid, 4), tol=tol, boundary=2 * args.modes)
    return tio._document("dataset", ds), True


def _coincide(args, tol):
    rep = md.coincide(_load(args.input, "dataset"), _load(args.other, "dataset"), tol)
    section = {
        "coincide": rep.coincide,
        "undecided": rep.undecided,
        "note": rep.note,
        "residuals": rep.residuals,
    }
    return {"coincide": section}, rep.coincide


def _validate_special(args, tol):
    rep = md.validate_special_data_set(_load(args.input, "dataset"), args.modes, tol)
    return {"validate_special": rep}, rep["passes"]


def _generate(args, tol):
    cfg = g.GenConfig(seed=args.seed, dim=args.dim, class_tag=g.ClassTag(args.gen_class))
    value = g.generate(cfg)
    kind = "dataset" if isinstance(value, md.TetrablockDataSet) else "triple"
    return tio._document(kind, value), True


_HANDLERS = {
    "membership": _membership,
    "classify": _classify,
    "fundops": _fundops,
    "lift": _lift,
    "verify": _lift,
    "dataset": _dataset,
    "coincide": _coincide,
    "validate-special": _validate_special,
    "generate": _generate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrakit",
        description="Tetrablock operator-triple toolkit: membership, "
        "classification, fundamental operators, functional models.",
    )
    parser.add_argument("command", choices=list(_HANDLERS))
    parser.add_argument("input", nargs="?", help="input JSON document")
    parser.add_argument("--other", help="second dataset (coincide)")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--tol", type=float, default=1e-9, help="equality tolerance")
    parser.add_argument("--grid", type=int, default=512, help="Theta sample grid (dataset)")
    parser.add_argument("--order", default="auto", help="truncation order or 'auto'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mc-samples", type=int, default=32, dest="mc_samples")
    parser.add_argument("--modes", type=int, default=64, help="Fourier modes")
    parser.add_argument("--adjoint", action="store_true", help="use (A*, B*, T*)")
    parser.add_argument(
        "--class",
        dest="gen_class",
        default="NormalEContraction",
        help="generator class tag",
    )
    parser.add_argument("--dim", type=int, default=2)
    return parser


def main(argv=None) -> int:
    """Run one pipeline stage and write its report; return the exit code."""
    args = _build_parser().parse_args(argv)
    if args.command != "generate" and not args.input:
        print("input error: this command requires an input file", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "coincide" and not args.other:
        print("input error: coincide requires --other", file=sys.stderr)
        return EXIT_INPUT
    try:
        tol = Tolerances(eq_tol=args.tol)
        provenance = _provenance(args, tol)
        report, positive = _HANDLERS[args.command](args, tol)
        _emit({"provenance": provenance, **report}, args.out)
    except InternalConsistencyError as exc:
        print(f"internal-consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (TetrakitError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK if positive else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
