"""Batch command-line front end: one JSON job in, one JSON report out.

A job is ``{"schema_version": "1", "command": <name>, "payload": {...}}``
read from ``--job FILE`` or standard input.  ``jsonio`` checks the job and
decodes its payload; each handler here only computes and encodes its report
body.  Reports echo the SHA-256 of the raw input bytes and are emitted with
sorted keys, so identical jobs produce byte-identical reports.  The exit status
follows the report: 1 when its ``"verdict"`` is ``"fail"`` or its error is a
verdict on a well-formed job (weight collisions and non-integral shifts), 2
for any other error, which refuses the input, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .errors import NonIntegralShift, NotRelevant, TransferError
from .jsonio import (
    SCHEMA_VERSION,
    decode_job,
    decode_payload,
    encode_character,
    encode_point,
    encode_sigma,
    encode_weight,
)
from .monomial import SymbolValue
from .points import (
    ClassicalPoint,
    HeckeFactor,
    MockFormSpace,
    build_transferred_space,
    diagram_check,
    divisibility_check,
    transfer_point,
)
from .refinements import (
    LocalRepDescriptor,
    accessible_transfer_check,
    count_accessible,
    enumerate_refinements,
    is_accessible,
    refinement_count_inequality,
)
from .tori import AlgebraicWeight, UnramifiedCharacter
from .transfer import (
    TransferConfig,
    archimedean_sigma,
    archimedean_transfer,
    atkin_lehner_pullback,
    refinement_pullback,
    refinement_pullback_normalized,
    verify_transfer_compatibility,
)

# Library errors that are verdicts on a well-formed job (exit 1); every other
# error refuses the input (exit 2).
_VERDICT_ERRORS = (NotRelevant, NonIntegralShift)


def _cmd_transfer_weight(weight: AlgebraicWeight, alpha: Fraction) -> dict:
    result = archimedean_transfer(weight, alpha)
    try:
        sigma = archimedean_sigma(weight, alpha)
        realized = True
    except NotRelevant:
        sigma = result.sigma
        realized = False
    return {
        "weight": encode_weight(result.weight),
        "sigma": encode_sigma(sigma),
        "realized": realized,
    }


def _cmd_transfer_refinement(cfg: TransferConfig, chi: UnramifiedCharacter) -> dict:
    return {
        "refinement": encode_character(refinement_pullback(chi, cfg)),
        "refinement_normalized": encode_character(refinement_pullback_normalized(chi, cfg)),
        "atkin_lehner": encode_character(atkin_lehner_pullback(chi, cfg)),
    }


def _cmd_check_hypothesis1(cfg: TransferConfig, drop: bool) -> dict:
    report = verify_transfer_compatibility(cfg, drop_normalization=drop)
    return {
        "verdict": report.verdict,
        "checks": [
            {"name": check.name, "passed": check.passed, "residuals": list(check.residuals)}
            for check in report.checks
        ],
    }


def _cmd_enumerate_refinements(desc: LocalRepDescriptor) -> dict:
    refinements = enumerate_refinements(desc)
    flags = [is_accessible(desc, refinement) for refinement in refinements]
    return {
        "refinements": [encode_character(refinement) for refinement in refinements],
        "accessible": flags,
        "counts": {
            "total": len(refinements),
            "accessible": sum(flags),
            "formula": count_accessible(desc),
        },
    }


def _cmd_check_accessible_transfer(cfg: TransferConfig, desc: LocalRepDescriptor) -> dict:
    transfer_ok = accessible_transfer_check(desc, cfg)
    count_source, count_target, count_ok = refinement_count_inequality(desc, cfg)
    return {
        "verdict": "pass" if transfer_ok and count_ok else "fail",
        "accessible_transfer": transfer_ok,
        "count_source": count_source,
        "count_target": count_target,
        "count_inequality": count_ok,
    }


def _cmd_transfer_point(cfg: TransferConfig, point: ClassicalPoint) -> dict:
    return {"point": encode_point(transfer_point(point, cfg))}


def _cmd_check_diagram(
    cfg: TransferConfig, source: list[ClassicalPoint], target: list[ClassicalPoint]
) -> dict:
    report = diagram_check(source, target, cfg)
    return {
        "verdict": "pass" if report.ok else "fail",
        "matched": report.matched,
        "unmatched": report.unmatched,
        "results": list(report.results),
    }


def _cmd_check_interpolation(
    cfg: TransferConfig,
    source_space: MockFormSpace,
    target_space: MockFormSpace,
    constant: int,
    generators: list[tuple[HeckeFactor, ...]],
    assignments: list[dict[str, SymbolValue]],
) -> dict:
    transferred = build_transferred_space(source_space, cfg)
    results = [
        [
            divisibility_check(transferred, target_space, constant, generator, assignment)
            for assignment in assignments
        ]
        for generator in generators
    ]
    return {
        "verdict": "pass" if all(all(row) for row in results) else "fail",
        "constant": constant,
        "results": results,
    }


# Each handler returns its report body; main derives the exit code from it.
_HANDLERS: dict[str, Callable[..., dict]] = {
    "transfer-weight": _cmd_transfer_weight,
    "transfer-refinement": _cmd_transfer_refinement,
    "check-hypothesis1": _cmd_check_hypothesis1,
    "enumerate-refinements": _cmd_enumerate_refinements,
    "check-accessible-transfer": _cmd_check_accessible_transfer,
    "transfer-point": _cmd_transfer_point,
    "check-diagram": _cmd_check_diagram,
    "check-interpolation": _cmd_check_interpolation,
}


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eigentransfer",
        description="Run one JSON job against the transfer library and print a JSON report.",
    )
    parser.add_argument("--job", metavar="FILE", help="job file (default: standard input)")
    parser.add_argument("--pretty", action="store_true", help="indent the report")
    args = parser.parse_args(argv)

    if args.job:
        try:
            raw = Path(args.job).read_bytes()
        except OSError as err:
            _emit(
                {
                    "schema_version": SCHEMA_VERSION,
                    "error": {"type": "SchemaError", "message": f"cannot read job file: {err}"},
                },
                args.pretty,
            )
            return 2
    else:
        raw = sys.stdin.buffer.read()

    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
    }
    try:
        command, payload = decode_job(raw)
        report["command"] = command
        report.update(_HANDLERS[command](**decode_payload(command, payload)))
        code = 1 if report.get("verdict") == "fail" else 0
    except (TransferError, ValueError) as err:
        # a ValueError from the library is reported as a schema violation
        kind = type(err).__name__ if isinstance(err, TransferError) else "SchemaError"
        report["error"] = {"type": kind, "message": str(err)}
        code = 1 if isinstance(err, _VERDICT_ERRORS) else 2
    _emit(report, args.pretty)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
