"""JSON codecs and the command table of the batch command-line interface.

Schema conventions (version "1"): shapes are arrays of positive block sizes;
permutations are one-line and 1-based; rationals are integers or strings of
ASCII digits ``n`` or ``n/d`` with an optional sign, such as ``"1/2"``
(floats, decimals and exponents are rejected to keep everything exact);
characters are flat arrays of canonical monomial strings; weights and Satake
data are arrays grouped by block.  Every decoder raises ``SchemaError`` with
the offending location on malformed input; unknown and repeated keys are rejected.
Each rule is stated once: ``_record`` checks a keyed object (its type, its
missing and its unknown keys), ``_each`` decodes the entries of an array and
is the only place that names an entry's location ``where[index]``, and the
rational grammar belongs to ``monomial``, shared with ``Monomial.parse``.

``decode_job`` checks the job envelope and ``run_command`` runs one entry of
the command table: a function that decodes every field of its payload, then
calls the library and encodes the report body.  So this module is the only
one that checks the JSON job or knows a command.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Container, TypeVar

from .errors import NotRelevant, SchemaError
from .monomial import Monomial, SymbolValue, _rational, valid_symbol
from .points import (
    AtkinLehnerFactor,
    ClassicalPoint,
    HeckeFactor,
    MockFormSpace,
    SphericalFactor,
    build_transferred_space,
    constant_C,
    diagram_check,
    divisibility_check,
    transfer_point,
)
from .refinements import (
    LocalRepDescriptor,
    Segment,
    accessible_transfer_check,
    count_accessible,
    enumerate_refinements,
    is_accessible,
    refinement_count_inequality,
)
from .tori import AlgebraicWeight, GroupShape, UnramifiedCharacter
from .transfer import (
    DEFAULT_TWIST_SYMBOL,
    TransferConfig,
    archimedean_sigma,
    archimedean_transfer,
    atkin_lehner_pullback,
    refinement_pullback,
    refinement_pullback_normalized,
    verify_transfer_compatibility,
)

__all__ = [
    "SCHEMA_VERSION",
    "decode_job",
    "run_command",
    "decode_config",
    "decode_shape",
    "decode_rational",
    "decode_weight",
    "encode_weight",
    "decode_character",
    "encode_character",
    "decode_assignment",
    "decode_descriptor",
    "decode_point",
    "encode_point",
    "decode_space",
    "decode_factors",
    "encode_sigma",
]

SCHEMA_VERSION = "1"

_T = TypeVar("_T")
_Decode = Callable[[Any, str], _T]  # decodes one JSON value found at a location


def _object(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    return obj


def _array(obj: Any, where: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected an array")
    return obj


def _string(obj: Any, where: str) -> str:
    if not isinstance(obj, str):
        raise SchemaError(f"{where}: expected a string")
    return obj


def _integer(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{where}: expected an integer")
    return obj


def _located(where: str, make: Callable[..., _T], *args: Any) -> _T:
    """``make(*args)``, with its ``ValueError`` relabeled as a ``SchemaError`` at ``where``."""
    try:
        return make(*args)
    except ValueError as err:
        raise SchemaError(f"{where}: {err}") from err


def _record(
    obj: Any, where: str, required: tuple[str, ...], optional: Container[str] = ()
) -> dict:
    """An object with every key of ``required`` and no key outside ``required`` and ``optional``."""
    record = _object(obj, where)
    for key in required:
        if key not in record:
            raise SchemaError(f"{where}: missing key {key!r}")
    for key in record:
        if key not in required and key not in optional:
            raise SchemaError(f"{where}: unknown key {key!r}")
    return record


def _each(obj: Any, where: str, decode: _Decode[_T]) -> list[_T]:
    """An array, each entry decoded in order by ``decode(entry, where[index])``."""
    return [decode(entry, f"{where}[{i}]") for i, entry in enumerate(_array(obj, where))]


def _sized(obj: Any, count: int, noun: str, where: str, decode: _Decode[_T]) -> list[_T]:
    """An array of exactly ``count`` entries, each decoded as by :func:`_each`."""
    entries = _array(obj, where)
    if len(entries) != count:
        raise SchemaError(f"{where}: expected {count} {noun}, got {len(entries)}")
    return _each(entries, where, decode)


def _by_block(
    obj: Any, shape: GroupShape, noun: str, where: str, decode: _Decode[_T]
) -> list[list[_T]]:
    """One array per block of ``shape``, each holding the block's size of decoded entries."""
    sizes = iter(shape.blocks)  # taken in block order, after the count of blocks is checked
    return _sized(
        obj, shape.r, "blocks", where, lambda blk, at: _sized(blk, next(sizes), noun, at, decode)
    )


def decode_rational(obj: Any, where: str) -> Fraction:
    if isinstance(obj, bool):
        raise SchemaError(f"{where}: expected an integer or a rational string")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            value = _rational(obj)
        except ZeroDivisionError:  # spelled "n/0"
            value = None
        if value is None:
            raise SchemaError(f"{where}: not a rational: {obj!r}")
        return value
    raise SchemaError(
        f"{where}: expected an integer or a rational string (floats are not accepted)"
    )


def decode_shape(obj: Any, where: str = "blocks") -> GroupShape:
    return _located(where, GroupShape, tuple(_each(obj, where, _integer)))


def _decode_sigma(obj: Any, n: int, where: str) -> tuple[int, ...]:
    entries = _each(obj, where, _integer)  # every entry is checked before the length
    if len(entries) != n:
        raise SchemaError(f"{where}: expected {n} entries, got {len(entries)}")
    if any(s < 1 or s > n for s in entries):
        raise SchemaError(f"{where}: entries must lie in 1..{n} (one-based)")
    return tuple(s - 1 for s in entries)


def encode_sigma(sigma: tuple[int, ...]) -> list[int]:
    return [p + 1 for p in sigma]


def decode_config(obj: Any, where: str = "config") -> TransferConfig:
    cfg = _record(obj, where, ("blocks", "sigma", "alpha"), ("mu",))
    shape = decode_shape(cfg["blocks"], f"{where}.blocks")
    sigma = _decode_sigma(cfg["sigma"], shape.n, f"{where}.sigma")
    alpha = decode_rational(cfg["alpha"], f"{where}.alpha")
    mu = _string(cfg.get("mu", DEFAULT_TWIST_SYMBOL), f"{where}.mu")
    return _located(where, TransferConfig, shape, sigma, alpha, mu)


def decode_weight(obj: Any, shape: GroupShape, where: str = "weight") -> AlgebraicWeight:
    groups = _by_block(obj, shape, "entries", where, _integer)
    return AlgebraicWeight(shape, tuple(e for group in groups for e in group))


def encode_weight(weight: AlgebraicWeight) -> list[list[int]]:
    shape = weight.shape
    return [[weight.exps[p] for p in shape.block_range(i)] for i in range(shape.r)]


def _decode_monomial(obj: Any, where: str) -> Monomial:
    return _located(where, Monomial.parse, _string(obj, where))


def decode_character(obj: Any, shape: GroupShape, where: str = "character") -> UnramifiedCharacter:
    values = _sized(obj, shape.n, "values", where, _decode_monomial)
    return UnramifiedCharacter(shape, tuple(values))


def encode_character(chi: UnramifiedCharacter) -> list[str]:
    return [value.text() for value in chi.values]


def decode_assignment(obj: Any, where: str = "assignment") -> dict[str, SymbolValue]:
    out: dict[str, SymbolValue] = {}
    for name, raw in _object(obj, where).items():
        if not valid_symbol(name):
            raise SchemaError(f"{where}: invalid symbol name {name!r}")
        at = f"{where}.{name}"
        entry = _record(raw, at, ("value",), ("sqrt",))
        value = decode_rational(entry["value"], f"{at}.value")
        sqrt = decode_rational(entry["sqrt"], f"{at}.sqrt") if "sqrt" in entry else None
        out[name] = _located(at, SymbolValue, value, sqrt)
    return out


def _decode_segment(obj: Any, where: str) -> Segment:
    entry = _record(obj, where, ("gamma", "d"))
    gamma = _decode_monomial(entry["gamma"], f"{where}.gamma")
    return _located(where, Segment, gamma, _integer(entry["d"], f"{where}.d"))


def decode_descriptor(obj: Any, where: str = "descriptor") -> LocalRepDescriptor:
    desc = _record(obj, where, ("blocks",))
    segments = _each(
        desc["blocks"], f"{where}.blocks", lambda blk, at: tuple(_each(blk, at, _decode_segment))
    )
    shape = _located(where, GroupShape, tuple(sum(seg.d for seg in segs) for segs in segments))
    return _located(where, LocalRepDescriptor, shape, tuple(segments))


def decode_point(obj: Any, shape: GroupShape, where: str = "point") -> ClassicalPoint:
    entry = _record(obj, where, ("weight",), ("up", "satake"))
    weight = decode_weight(entry["weight"], shape, f"{where}.weight")
    up = {}
    for place, values in _object(entry.get("up", {}), f"{where}.up").items():
        up[place] = decode_character(values, shape, f"{where}.up.{place}")
    satake = {}
    for place, raw in _object(entry.get("satake", {}), f"{where}.satake").items():
        groups = _by_block(raw, shape, "values", f"{where}.satake.{place}", _decode_monomial)
        satake[place] = tuple(tuple(group) for group in groups)
    return _located(where, ClassicalPoint.build, weight, up, satake)


def encode_point(point: ClassicalPoint) -> dict:
    return {
        "weight": encode_weight(point.weight),
        "up": {place: encode_character(chi) for place, chi in point.up},
        "satake": {
            place: [[value.text() for value in block] for block in blocks]
            for place, blocks in point.satake
        },
    }


def decode_space(obj: Any, shape: GroupShape, where: str = "space") -> MockFormSpace:
    entry = _record(obj, where, ("weight", "entries"))
    weight = decode_weight(entry["weight"], shape, f"{where}.weight")

    def decode_entry(obj: Any, where: str) -> tuple[ClassicalPoint, int]:
        item = _record(obj, where, ("point", "mult"))
        point = decode_point(item["point"], shape, f"{where}.point")
        return point, _integer(item["mult"], f"{where}.mult")

    entries = _each(entry["entries"], f"{where}.entries", decode_entry)
    return _located(where, MockFormSpace, weight, tuple(entries))


def _decode_factor(obj: Any, where: str) -> HeckeFactor:
    # only the type first (any other key may follow), then the keys of that type
    kind = _string(_record(obj, where, ("type",), obj)["type"], f"{where}.type")
    if kind == "atkin-lehner":
        entry = _record(obj, where, ("type", "place", "cochar"))
        place = _string(entry["place"], f"{where}.place")
        return AtkinLehnerFactor(place, _each(entry["cochar"], f"{where}.cochar", _integer))
    if kind == "spherical":
        entry = _record(obj, where, ("type", "place", "degree"))
        place = _string(entry["place"], f"{where}.place")
        degree = _integer(entry["degree"], f"{where}.degree")
        return _located(where, SphericalFactor, place, degree)
    raise SchemaError(f"{where}.type: expected 'atkin-lehner' or 'spherical', got {kind!r}")


def decode_factors(obj: Any, where: str = "generator") -> tuple[HeckeFactor, ...]:
    if not _array(obj, where):
        raise SchemaError(f"{where}: a generator product needs at least one factor")
    return tuple(_each(obj, where, _decode_factor))


def _non_empty(obj: Any, where: str) -> list:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a non-empty array")
    return obj


def _decode_constant(payload: dict) -> int:
    """The divisibility constant: given directly, or derived from a packet of dimensions."""
    if ("constant" in payload) == ("packet" in payload):
        raise SchemaError("payload: provide exactly one of 'constant' and 'packet'")
    if "constant" in payload:
        constant = payload["constant"]
        if isinstance(constant, bool) or not isinstance(constant, int) or constant < 1:
            raise SchemaError("constant: expected a positive integer")
        return constant
    packet = _record(payload["packet"], "packet", ("dim_source", "dims_target"))
    dims = _each(packet["dims_target"], "packet.dims_target", _integer)
    return constant_C(_integer(packet["dim_source"], "packet.dim_source"), dims)


# One function per command.  Each checks the payload keys and decodes every
# field in a fixed order, so a payload with several faults reports the first;
# only then does it call the library and encode its report body.


def _transfer_weight(payload: dict) -> dict:
    _record(payload, "payload", ("shape", "alpha", "weight"))
    shape = decode_shape(payload["shape"], "shape")
    alpha = decode_rational(payload["alpha"], "alpha")
    weight = decode_weight(payload["weight"], shape, "weight")
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


def _transfer_refinement(payload: dict) -> dict:
    _record(payload, "payload", ("config", "character"))
    cfg = decode_config(payload["config"])
    chi = decode_character(payload["character"], cfg.source)
    return {
        "refinement": encode_character(refinement_pullback(chi, cfg)),
        "refinement_normalized": encode_character(refinement_pullback_normalized(chi, cfg)),
        "atkin_lehner": encode_character(atkin_lehner_pullback(chi, cfg)),
    }


def _check_hypothesis1(payload: dict) -> dict:
    _record(payload, "payload", ("config",), ("drop_normalization",))
    cfg = decode_config(payload["config"])
    drop = payload.get("drop_normalization", False)
    if not isinstance(drop, bool):
        raise SchemaError("drop_normalization: expected a boolean")
    report = verify_transfer_compatibility(cfg, drop_normalization=drop)
    return {
        "verdict": report.verdict,
        "checks": [
            {"name": check.name, "passed": check.passed, "residuals": list(check.residuals)}
            for check in report.checks
        ],
    }


def _enumerate_refinements(payload: dict) -> dict:
    _record(payload, "payload", ("descriptor",))
    desc = decode_descriptor(payload["descriptor"])
    formula = count_accessible(desc)  # refuses a non-generic descriptor before enumerating
    refinements = enumerate_refinements(desc)
    flags = [is_accessible(desc, refinement) for refinement in refinements]
    return {
        "refinements": [encode_character(refinement) for refinement in refinements],
        "accessible": flags,
        "counts": {
            "total": len(refinements),
            "accessible": sum(flags),
            "formula": formula,
        },
    }


def _check_accessible_transfer(payload: dict) -> dict:
    _record(payload, "payload", ("config", "descriptor"))
    cfg = decode_config(payload["config"])
    desc = decode_descriptor(payload["descriptor"])
    transfer_ok = accessible_transfer_check(desc, cfg)
    count_source, count_target, count_ok = refinement_count_inequality(desc, cfg)
    return {
        "verdict": "pass" if transfer_ok and count_ok else "fail",
        "accessible_transfer": transfer_ok,
        "count_source": count_source,
        "count_target": count_target,
        "count_inequality": count_ok,
    }


def _transfer_point(payload: dict) -> dict:
    _record(payload, "payload", ("config", "point"))
    cfg = decode_config(payload["config"])
    point = decode_point(payload["point"], cfg.source)
    return {"point": encode_point(transfer_point(point, cfg))}


def _check_diagram(payload: dict) -> dict:
    _record(payload, "payload", ("config", "source_points", "target_points"))
    cfg = decode_config(payload["config"])
    source, target = payload["source_points"], payload["target_points"]
    if not isinstance(source, list) or not isinstance(target, list):
        raise SchemaError("source_points and target_points must be arrays")
    source = _each(source, "source_points", lambda obj, at: decode_point(obj, cfg.source, at))
    target = _each(target, "target_points", lambda obj, at: decode_point(obj, cfg.target, at))
    report = diagram_check(source, target, cfg)
    return {
        "verdict": "pass" if report.ok else "fail",
        "matched": report.matched,
        "unmatched": report.unmatched,
        "results": list(report.results),
    }


def _check_interpolation(payload: dict) -> dict:
    _record(
        payload,
        "payload",
        ("config", "source_space", "target_space", "generators", "assignments"),
        ("constant", "packet"),
    )
    cfg = decode_config(payload["config"])
    source_space = decode_space(payload["source_space"], cfg.source, "source_space")
    target_space = decode_space(payload["target_space"], cfg.target, "target_space")
    constant = _decode_constant(payload)
    points = [point for space in (source_space, target_space) for point, _ in space.entries]

    def decode_generator(obj: Any, where: str) -> tuple[HeckeFactor, ...]:
        # every factor must act on the target shape and on each point of both spaces
        factors = decode_factors(obj, where)
        _each(list(factors), where, lambda f, at: _located(at, f._check, cfg.target, points))
        return factors

    generators = _each(
        _non_empty(payload["generators"], "generators"), "generators", decode_generator
    )
    assignments = _each(
        _non_empty(payload["assignments"], "assignments"), "assignments", decode_assignment
    )
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


_COMMANDS: dict[str, Callable[[dict], dict]] = {
    "transfer-weight": _transfer_weight,
    "transfer-refinement": _transfer_refinement,
    "check-hypothesis1": _check_hypothesis1,
    "enumerate-refinements": _enumerate_refinements,
    "check-accessible-transfer": _check_accessible_transfer,
    "transfer-point": _transfer_point,
    "check-diagram": _check_diagram,
    "check-interpolation": _check_interpolation,
}


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """``object_pairs_hook`` that refuses a key repeated within one JSON object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"job: duplicate key {key!r}")
        obj[key] = value
    return obj


def decode_job(raw: bytes) -> tuple[str, dict]:
    """Parse the job bytes and check the envelope; return the command and its payload."""
    try:
        job = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SchemaError(f"invalid JSON: {err}") from err
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    if not isinstance(job, dict):
        raise SchemaError("job: expected a JSON object")
    _record(job, "job", (), ("schema_version", "command", "payload"))
    version = job.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"job: unsupported schema_version {version!r}")
    command = job.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise SchemaError(f"job: command must be one of {', '.join(sorted(_COMMANDS))}")
    payload = job.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("job: missing payload object")
    return command, payload


def run_command(command: str, payload: dict) -> dict:
    """Decode the payload of ``command``, run it and return its encoded report body."""
    return _COMMANDS[command](payload)
