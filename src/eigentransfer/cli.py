"""Batch command-line front end: one JSON job in, one JSON report out.

A job is ``{"schema_version": "1", "command": <name>, "payload": {...}}``
read from ``--job FILE`` or standard input.  ``jsonio`` checks the job and
runs the command; this module only reads the job, sets the exit code and
writes the report.  Reports echo the SHA-256 of the raw input bytes and are
emitted with sorted keys, so identical jobs produce byte-identical reports.
The exit status follows the report: 1 when its ``"verdict"`` is ``"fail"`` or
its error is a verdict on a well-formed job (weight collisions and
non-integral shifts), 2 for any other library error, which refuses the input,
3 for an unexpected exception (an ``InternalError`` report naming the
exception, never a traceback), and 0 otherwise.
"""

from __future__ import annotations

import json
import sys

try:  # the built-in SHA-256, the one ``hashlib`` falls back to, without loading OpenSSL
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import NonIntegralShift, NotRelevant, SchemaError, TransferError
from .jsonio import SCHEMA_VERSION, decode_job, run_command

# Library errors that are verdicts on a well-formed job (exit 1); every other
# error refuses the input (exit 2).
_VERDICT_ERRORS = (NotRelevant, NonIntegralShift)


def _encode(report: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(report, sort_keys=True, indent=2)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    job, pretty = None, False  # a run with no arguments reads standard input and builds no parser
    if argv:
        import argparse

        parser = argparse.ArgumentParser(
            prog="eigentransfer",
            description="Run one JSON job against the transfer library and print a JSON report.",
        )
        parser.add_argument("--job", metavar="FILE", help="job file (default: standard input)")
        parser.add_argument("--pretty", action="store_true", help="indent the report")
        args = parser.parse_args(argv)
        job, pretty = args.job, args.pretty

    report: dict[str, object] = {"schema_version": SCHEMA_VERSION}
    text = ""
    try:
        if job:
            from pathlib import Path  # only a job file needs it

            try:
                raw = Path(job).read_bytes()
            except OSError as err:
                raise SchemaError(f"cannot read job file: {err}") from err
        else:
            raw = sys.stdin.buffer.read()
        report["input_sha256"] = sha256(raw).hexdigest()
        command, payload = decode_job(raw)
        report["command"] = command
        body = run_command(command, payload)
        # encoded before it joins the report, so an encode error reports with no body
        text = _encode({**report, **body}, pretty)
        code = 1 if body.get("verdict") == "fail" else 0
    except (TransferError, ValueError) as err:
        # a ValueError from the library is reported as a schema violation
        kind = type(err).__name__ if isinstance(err, TransferError) else "SchemaError"
        report["error"] = {"type": kind, "message": str(err)}
        code = 1 if isinstance(err, _VERDICT_ERRORS) else 2
    except Exception as err:
        # a crash is neither a verdict nor a refusal of the input
        report["error"] = {"type": "InternalError", "message": f"{type(err).__name__}: {err}"}
        code = 3
    sys.stdout.write((text or _encode(report, pretty)) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
