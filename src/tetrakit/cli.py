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
from dataclasses import dataclass
from typing import Optional

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_COMMANDS = (
    "membership",
    "classify",
    "fundops",
    "lift",
    "verify",
    "dataset",
    "coincide",
    "validate-special",
    "generate",
)


@dataclass
class JobSpec:
    command: str
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    eq_tol: float = 1e-9
    grid: int = 512
    order: Optional[str] = None
    seed: int = 0
    mc_samples: int = 32
    other_path: Optional[str] = None
    modes: int = 64
    adjoint: bool = False
    gen_class: str = "NormalEContraction"
    dim: int = 2


def _provenance(job: JobSpec, tol) -> dict:
    return {
        "tool": "tetrakit",
        "version": _version(),
        "command": job.command,
        "seed": job.seed,
        "tolerances": {
            "eq_tol": tol.eq_tol,
            "psd_tol": tol.psd_tol,
            "grid_points": tol.grid_points,
            "max_power_iters": tol.max_power_iters,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("tetrakit")
    except Exception:
        return "unknown"


def _emit(report: dict, job: JobSpec) -> None:
    from . import io as tio

    text = json.dumps(tio.sanitize_report(report), indent=2)
    if job.output_path:
        with open(job.output_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _expect_kind(kind: str, wanted: str):
    from .errors import SchemaError

    if kind != wanted:
        raise SchemaError(f"expected a {wanted} document, got {kind}")


def run(job: JobSpec) -> int:
    """Execute one pipeline stage and write its report."""
    from . import classify as cl
    from . import fundops as fo
    from . import gen as g
    from . import geometry as geo
    from . import io as tio
    from . import models as md
    from .errors import (
        InternalConsistencyError,
        SchemaError,
        TetrakitError,
    )
    from .matkernel import Tolerances

    tol = Tolerances(eq_tol=job.eq_tol, grid_points=max(job.grid, 8))
    report: dict = {"provenance": _provenance(job, tol)}
    try:
        if job.command == "membership":
            kind, point = tio.load_document(job.input_path)
            _expect_kind(kind, "point")
            verdict = geo.in_tetrablock(point, tol)
            report["verdict"] = {
                "in_open": verdict.in_open,
                "in_closure": verdict.in_closure,
                "in_bE": verdict.in_bE,
                "sup_psi_ab": verdict.sup_psi_ab,
                "sup_psi_ba": verdict.sup_psi_ba,
                "boundary_marginal": verdict.boundary_marginal,
            }
            if verdict.witness is not None:
                report["verdict"]["witness"] = tio.matrix_to_json(verdict.witness)
            _emit(report, job)
            return EXIT_OK if verdict.in_closure else EXIT_NEGATIVE

        if job.command == "classify":
            kind, triple = tio.load_document(job.input_path)
            _expect_kind(kind, "triple")
            rep = cl.classify_triple(triple, tol, mc_samples=job.mc_samples, seed=job.seed)
            report["classification"] = {
                "commuting": rep.commuting,
                "e_unitary": rep.e_unitary,
                "e_isometry": rep.e_isometry,
                "pc_isometry": rep.pc_isometry,
                "pc_unitary": rep.pc_unitary,
                "semi_strict": rep.semi_strict,
                "contraction_certificate": rep.contraction_certificate.value,
                "failed_checks": rep.failed_checks,
                "residuals": rep.residuals,
            }
            _emit(report, job)
            negative = rep.contraction_certificate is cl.Certificate.CERTIFIED_NOT
            return EXIT_NEGATIVE if negative else EXIT_OK

        if job.command == "fundops":
            kind, triple = tio.load_document(job.input_path)
            _expect_kind(kind, "triple")
            pair = fo.fundamental_pair(triple, adjoint=job.adjoint, tol=tol)
            report["fundamental_pair"] = {
                "adjoint": job.adjoint,
                "carrier_dim": pair.carrier.dim,
                "x1": tio.matrix_to_json(pair.x1),
                "x2": tio.matrix_to_json(pair.x2),
                "pencil_nu_max": pair.pencil_nu_max,
                "pencil_nu_upper": pair.pencil_nu_upper,
                "is_special": pair.is_special,
                "residuals": pair.residuals,
            }
            _emit(report, job)
            return EXIT_OK

        if job.command in ("lift", "verify"):
            kind, triple = tio.load_document(job.input_path)
            _expect_kind(kind, "triple")
            order = None
            if job.order not in (None, "auto"):
                order = int(job.order)
            model = md.build_lift(triple, order, tol)
            residuals = md.verify_lift(model, triple, tol)
            report["model"] = {
                "order_n": model.order_n,
                "defect_dim": model.defect_dim,
                "residual_dim": model.residual.dim,
                "tail": model.tail,
                "deficiency": model.deficiency,
                "strict": md.lift_is_strict(model, tol),
                "warnings": model.warnings,
            }
            report["residuals"] = residuals
            if job.command == "lift":
                report["model_detail"] = tio.model_to_json(model)
            _emit(report, job)
            worst = max(v for k, v in residuals.items() if k != "bound")
            return EXIT_OK if worst <= residuals["bound"] else EXIT_NEGATIVE

        if job.command == "dataset":
            kind, triple = tio.load_document(job.input_path)
            _expect_kind(kind, "triple")
            ds = md.extract_data_set(
                triple, grid=max(job.grid, 4), tol=tol, boundary=2 * job.modes
            )
            payload = tio.wrap_document("dataset", tio.dataset_to_json(ds))
            payload["provenance"] = report["provenance"]
            _emit(payload, job)
            return EXIT_OK

        if job.command == "coincide":
            kind1, d1 = tio.load_document(job.input_path)
            kind2, d2 = tio.load_document(job.other_path)
            _expect_kind(kind1, "dataset")
            _expect_kind(kind2, "dataset")
            rep = md.coincide(d1, d2, tol)
            report["coincide"] = {
                "coincide": rep.coincide,
                "undecided": rep.undecided,
                "note": rep.note,
                "residuals": rep.residuals,
            }
            _emit(report, job)
            return EXIT_OK if rep.coincide else EXIT_NEGATIVE

        if job.command == "validate-special":
            kind, ds = tio.load_document(job.input_path)
            _expect_kind(kind, "dataset")
            rep = md.validate_special_data_set(ds, job.modes, tol)
            report["validate_special"] = rep
            _emit(report, job)
            return EXIT_OK if rep["passes"] else EXIT_NEGATIVE

        if job.command == "generate":
            cfg = g.GenConfig(
                seed=job.seed, dim=job.dim, class_tag=g.ClassTag(job.gen_class)
            )
            value = g.generate(cfg)
            if isinstance(value, md.TetrablockDataSet):
                payload = tio.wrap_document("dataset", tio.dataset_to_json(value))
            else:
                payload = tio.wrap_document("triple", tio.triple_to_json(value))
            payload["provenance"] = report["provenance"]
            _emit(payload, job)
            return EXIT_OK

        raise SchemaError(f"unknown command {job.command!r}")
    except InternalConsistencyError as exc:
        print(f"internal-consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (TetrakitError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrakit",
        description="Tetrablock operator-triple toolkit: membership, "
        "classification, fundamental operators, functional models.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("input", nargs="?", help="input JSON document")
    parser.add_argument("--other", help="second dataset (coincide)")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--tol", type=float, default=1e-9, help="equality tolerance")
    parser.add_argument("--grid", type=int, default=512, help="circle grid points")
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
    args = _build_parser().parse_args(argv)
    if args.command != "generate" and not args.input:
        print("input error: this command requires an input file", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "coincide" and not args.other:
        print("input error: coincide requires --other", file=sys.stderr)
        return EXIT_INPUT
    job = JobSpec(
        command=args.command,
        input_path=args.input,
        output_path=args.out,
        eq_tol=args.tol,
        grid=args.grid,
        order=args.order,
        seed=args.seed,
        mc_samples=args.mc_samples,
        other_path=args.other,
        modes=args.modes,
        adjoint=args.adjoint,
        gen_class=args.gen_class,
        dim=args.dim,
    )
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
