"""Tests for the strict JSON codecs behind the command-line interface."""

from fractions import Fraction

import pytest

from eigentransfer.errors import InvalidSigma, SchemaError
from eigentransfer.jsonio import (
    decode_assignment,
    decode_character,
    decode_config,
    decode_descriptor,
    decode_factors,
    decode_job,
    decode_point,
    decode_rational,
    decode_shape,
    decode_space,
    decode_weight,
    encode_character,
    encode_point,
    encode_sigma,
    encode_weight,
)
from eigentransfer.monomial import Monomial, SymbolValue, symbol
from eigentransfer.points import AtkinLehnerFactor, SphericalFactor
from eigentransfer.tori import AlgebraicWeight, GroupShape, UnramifiedCharacter


def test_decode_rational():
    assert decode_rational(3, "x") == Fraction(3)
    assert decode_rational(-2, "x") == Fraction(-2)
    assert decode_rational("1/2", "x") == Fraction(1, 2)
    assert decode_rational("-7/3", "x") == Fraction(-7, 3)


def test_decode_rational_token_grammar():
    """String rationals follow the monomial coefficient grammar ``[+-]?\\d+(/\\d+)?``."""
    assert decode_rational("-3/2", "x") == Fraction(-3, 2)
    assert decode_rational("+2", "x") == Fraction(2)
    for bad in ["1.5", "1e3", "1_000", " 1/2 ", "1/0", "\u0663", "3 / 2", ""]:
        with pytest.raises(SchemaError) as err:
            decode_rational(bad, "x")
        assert str(err.value) == f"x: not a rational: {bad!r}"
    for field in ("value", "sqrt"):
        with pytest.raises(SchemaError, match=f"^a.s.{field}: not a rational: '1.5'$"):
            decode_assignment({"s": {"value": 4, "sqrt": 2, field: "1.5"}}, "a")


def test_decode_job_refuses_deep_nesting():
    for raw in (b"[" * 100_000, b'{"a": ' * 100_000, b'{"payload": ' + b"[" * 100_000):
        with pytest.raises(SchemaError) as err:
            decode_job(raw)
        assert str(err.value) == "invalid JSON: nested too deeply"


HYP1_RAW = (
    '{"schema_version": "1", "command": "check-hypothesis1", '
    '"payload": {"config": {"blocks": [1, 1], "sigma": [1, 2], "alpha": "1/2"}}}'
)


@pytest.mark.parametrize(
    "raw, key",
    [
        (HYP1_RAW.replace('"command"', '"schema_version": "1", "command"'), "schema_version"),
        (
            HYP1_RAW.replace('{"config"', '{"drop_normalization": 1, "drop_normalization": 2, '
                             '"config"'),
            "drop_normalization",
        ),
        (HYP1_RAW.replace('"alpha": "1/2"', '"alpha": "1/2", "alpha": "3/2"'), "alpha"),
        (
            '{"payload": {"descriptor": {"blocks": [[{"gamma": "1 * a", "d": 1, "gamma": "b"}]]}}}',
            "gamma",
        ),
    ],
    ids=["envelope", "payload", "config", "array-nested"],
)
def test_decode_job_refuses_duplicate_keys(raw, key):
    with pytest.raises(SchemaError) as err:
        decode_job(raw.encode())
    assert str(err.value) == f"job: duplicate key {key!r}"
    assert decode_job(HYP1_RAW.encode())[0] == "check-hypothesis1"


def test_decode_shape():
    assert decode_shape([2, 1]) == GroupShape((2, 1))
    assert decode_shape([4]) == GroupShape((4,))


def test_decode_config_minimal_and_full():
    cfg = decode_config({"blocks": [1, 2], "sigma": [1, 2, 3], "alpha": "1/2"})
    assert cfg.source == GroupShape((1, 2))
    assert cfg.sigma == (0, 1, 2)
    assert cfg.alpha == Fraction(1, 2)
    assert cfg.mu == "M"
    cfg = decode_config({"blocks": [1, 2], "sigma": [3, 1, 2], "alpha": -1, "mu": "nu"})
    assert cfg.sigma == (2, 0, 1)
    assert cfg.alpha == Fraction(-1)
    assert cfg.mu == "nu"


def test_decode_config_errors():
    good = {"blocks": [1, 2], "sigma": [1, 2, 3], "alpha": "1/2"}
    # place tags are not config fields
    for key in ("p_places", "tracked"):
        with pytest.raises(SchemaError, match=f"^config: unknown key '{key}'$"):
            decode_config({**good, key: ["p"]})
    # a decreasing in-block permutation is a domain error, not a schema error
    with pytest.raises(InvalidSigma):
        decode_config({**good, "sigma": [1, 3, 2]})


def test_sigma_round_trip():
    cfg = decode_config({"blocks": [1, 2], "sigma": [3, 1, 2], "alpha": "1/2"})
    assert encode_sigma(cfg.sigma) == [3, 1, 2]


def test_decode_encode_weight():
    shape = GroupShape((1, 2))
    weight = decode_weight([[2], [1, 0]], shape)
    assert weight == AlgebraicWeight(shape, (2, 1, 0))
    assert encode_weight(weight) == [[2], [1, 0]]


def test_decode_encode_character():
    shape = GroupShape((1, 1))
    chi = decode_character(["1 * c1", "-3/2 * q^(1/2)"], shape)
    assert chi == UnramifiedCharacter(
        shape, (symbol("c1"), Monomial(Fraction(-3, 2), {"q": Fraction(1, 2)}))
    )
    assert encode_character(chi) == ["1 * c1", "-3/2 * q^(1/2)"]
    assert decode_character(encode_character(chi), shape) == chi


def test_decode_assignment():
    out = decode_assignment({"q": {"value": 9, "sqrt": 3}, "c": {"value": "2/3"}})
    assert out == {"q": SymbolValue(9, 3), "c": SymbolValue(Fraction(2, 3))}


def test_decode_descriptor():
    desc = decode_descriptor(
        {"blocks": [[{"gamma": "1 * a", "d": 1}], [{"gamma": "1 * g", "d": 2}]]}
    )
    assert desc.shape == GroupShape((1, 2))
    assert desc.segments[1][0].gamma == symbol("g")
    assert desc.segments[1][0].d == 2


def test_decode_encode_point():
    shape = GroupShape((1, 1))
    data = {
        "weight": [[2], [0]],
        "up": {"p": ["1 * c1", "1 * c2"]},
        "satake": {"v": [["1 * s1"], ["1 * s2"]]},
    }
    point = decode_point(data, shape)
    assert point.weight.exps == (2, 0)
    assert point.up_at("p").values == (symbol("c1"), symbol("c2"))
    assert point.satake_at("v") == ((symbol("s1"),), (symbol("s2"),))
    assert encode_point(point) == data
    assert decode_point(encode_point(point), shape) == point
    # optional sections can be absent
    bare = decode_point({"weight": [[2], [0]]}, shape)
    assert bare.up == ()
    assert bare.satake == ()
    assert encode_point(bare) == {"weight": [[2], [0]], "up": {}, "satake": {}}


def test_decode_space():
    shape = GroupShape((1,))
    data = {
        "weight": [[3]],
        "entries": [
            {"point": {"weight": [[3]], "up": {"p": ["2"]}}, "mult": 2},
            {"point": {"weight": [[3]], "up": {"p": ["5"]}}, "mult": 1},
        ],
    }
    space = decode_space(data, shape)
    assert space.weight.exps == (3,)
    assert [mult for _, mult in space.entries] == [2, 1]


def test_decode_factors():
    factors = decode_factors(
        [
            {"type": "atkin-lehner", "place": "p", "cochar": [1, 0]},
            {"type": "spherical", "place": "v", "degree": 2},
        ]
    )
    assert factors == (AtkinLehnerFactor("p", (1, 0)), SphericalFactor("v", 2))


S1, S11, S12 = GroupShape((1,)), GroupShape((1, 1)), GroupShape((1, 2))
CFG = {"blocks": [1, 2], "sigma": [1, 2, 3], "alpha": "1/2"}
NO_BLOCKS = "a group shape needs at least one block, all of positive size"
NOT_RATIONAL = "expected an integer or a rational string"
NO_FLOATS = f"{NOT_RATIONAL} (floats are not accepted)"


def segments(*segs):
    return {"blocks": [list(segs)]}


def space(*entries):
    return {"weight": [[3]], "entries": list(entries)}


def point(**sections):
    return {"weight": [[2], [0]], **sections}


# (decoder, arguments, exact SchemaError message): every decode location of
# every public decoder, the first fault in decoding order when there are several.
MESSAGES = [
    (decode_rational, (True, "x"), f"x: {NOT_RATIONAL}"),
    (decode_rational, (False, "x"), f"x: {NOT_RATIONAL}"),
    (decode_rational, (1.5, "x"), f"x: {NO_FLOATS}"),
    (decode_rational, ("abc", "x"), "x: not a rational: 'abc'"),
    (decode_rational, ("1/0", "x"), "x: not a rational: '1/0'"),
    (decode_rational, (None, "x"), f"x: {NO_FLOATS}"),
    (decode_rational, ([1], "x"), f"x: {NO_FLOATS}"),
    (decode_shape, ([],), f"blocks: {NO_BLOCKS}"),
    (decode_shape, ([0],), f"blocks: {NO_BLOCKS}"),
    (decode_shape, ([2, -1],), f"blocks: {NO_BLOCKS}"),
    (decode_shape, (["2"],), "blocks[0]: expected an integer"),
    (decode_shape, ([1.0],), "blocks[0]: expected an integer"),
    (decode_shape, ([1, "2"],), "blocks[1]: expected an integer"),
    (decode_shape, ("21",), "blocks: expected an array"),
    (decode_shape, ({"n": 2},), "blocks: expected an array"),
    (decode_config, ("x",), "config: expected an object"),
    (decode_config, ({**CFG, "extra": 1},), "config: unknown key 'extra'"),
    (decode_config, ({"blocks": [1, 2], "sigma": [1, 2, 3]},), "config: missing key 'alpha'"),
    (decode_config, ({**CFG, "blocks": [1, "2"]},), "config.blocks[1]: expected an integer"),
    (decode_config, ({**CFG, "sigma": [1, 2]},), "config.sigma: expected 3 entries, got 2"),
    (decode_config, ({**CFG, "sigma": ["1", 2, 3]},), "config.sigma[0]: expected an integer"),
    # entries are checked before the length
    (decode_config, ({**CFG, "sigma": [1, "2"]},), "config.sigma[1]: expected an integer"),
    (
        decode_config,
        ({**CFG, "sigma": [0, 1, 2]},),
        "config.sigma: entries must lie in 1..3 (one-based)",
    ),
    (
        decode_config,
        ({**CFG, "sigma": [1, 2, 4]},),
        "config.sigma: entries must lie in 1..3 (one-based)",
    ),
    (decode_config, ({**CFG, "alpha": 0.5},), f"config.alpha: {NO_FLOATS}"),
    (decode_config, ({**CFG, "alpha": "1/3"},), "config: alpha must be a half-integer, got 1/3"),
    (decode_config, ({**CFG, "mu": 5},), "config.mu: expected a string"),
    (decode_config, ({**CFG, "mu": "q"},), "config: mu must be a fresh symbol name, got 'q'"),
    (decode_weight, ([[2, 1], [0]], S12), "weight[0]: expected 1 entries, got 2"),
    (decode_weight, ([[2]], S12), "weight: expected 2 blocks, got 1"),
    (decode_weight, ([[2], [1]], S12), "weight[1]: expected 2 entries, got 1"),
    (decode_weight, ([[2], [1, "0"]], S12), "weight[1][1]: expected an integer"),
    (decode_weight, ([2, 1, 0], S12), "weight: expected 2 blocks, got 3"),
    (decode_character, (["1 * c1"], S11), "character: expected 2 values, got 1"),
    (
        decode_character,
        (["1 * c1", "nope nope"], S11),
        "character[1]: cannot parse monomial factor 'nope nope'",
    ),
    (decode_character, (["1 * c1", 2], S11), "character[1]: expected a string"),
    (decode_assignment, (["q"],), "assignment: expected an object"),
    (decode_assignment, ({"2x": {"value": 1}},), "assignment: invalid symbol name '2x'"),
    (decode_assignment, ({"q": 4},), "assignment.q: expected an object"),
    (decode_assignment, ({"q": {"value": 9, "root": 3}},), "assignment.q: unknown key 'root'"),
    (decode_assignment, ({"q": {"sqrt": 3}},), "assignment.q: missing key 'value'"),
    (decode_assignment, ({"q": {"value": 0.5}},), f"assignment.q.value: {NO_FLOATS}"),
    (
        decode_assignment,
        ({"q": {"value": 4, "sqrt": "x"}},),
        "assignment.q.sqrt: not a rational: 'x'",
    ),
    (
        decode_assignment,
        ({"q": {"value": -1}},),
        "assignment.q: symbol values must be positive rationals",
    ),
    (
        decode_assignment,
        ({"q": {"value": 9, "sqrt": 2}},),
        "assignment.q: declared square root does not square to the value",
    ),
    (decode_descriptor, ({"segments": []},), "descriptor: missing key 'blocks'"),
    (decode_descriptor, ({"blocks": "x"},), "descriptor.blocks: expected an array"),
    (decode_descriptor, ({"blocks": ["x"]},), "descriptor.blocks[0]: expected an array"),
    (decode_descriptor, (segments("x"),), "descriptor.blocks[0][0]: expected an object"),
    (
        decode_descriptor,
        (segments({"gamma": "1 * a"}),),
        "descriptor.blocks[0][0]: missing key 'd'",
    ),
    (
        decode_descriptor,
        (segments({"gamma": "1 * a", "d": 1, "x": 2}),),
        "descriptor.blocks[0][0]: unknown key 'x'",
    ),
    (
        decode_descriptor,
        (segments({"gamma": 5, "d": 1}),),
        "descriptor.blocks[0][0].gamma: expected a string",
    ),
    (
        decode_descriptor,
        (segments({"gamma": "???", "d": 1}),),
        "descriptor.blocks[0][0].gamma: cannot parse monomial factor '???'",
    ),
    (
        decode_descriptor,
        (segments({"gamma": "1 * a", "d": "1"}),),
        "descriptor.blocks[0][0].d: expected an integer",
    ),
    (
        decode_descriptor,
        (segments({"gamma": "1 * a", "d": 0}),),
        "descriptor.blocks[0][0]: segment length must be a positive integer, got 0",
    ),
    (decode_descriptor, ({"blocks": [[]]},), f"descriptor: {NO_BLOCKS}"),
    (decode_point, ("x", S11), "point: expected an object"),
    (decode_point, (point(junk=1), S11), "point: unknown key 'junk'"),
    (decode_point, (point(up=[]), S11), "point.up: expected an object"),
    (decode_point, (point(up={"p": "x"}), S11), "point.up.p: expected an array"),
    (decode_point, (point(up={"p": ["1 * c1"]}), S11), "point.up.p: expected 2 values, got 1"),
    (decode_point, (point(satake=[]), S11), "point.satake: expected an object"),
    (
        decode_point,
        (point(satake={"v": [["1 * s1", "1 * s2"]]}), S11),
        "point.satake.v: expected 2 blocks, got 1",
    ),
    (decode_space, ({"weight": [[3]]}, S1), "space: missing key 'entries'"),
    (decode_space, ({"weight": [[3]], "entries": {}}, S1), "space.entries: expected an array"),
    (decode_space, (space("x"), S1), "space.entries[0]: expected an object"),
    (
        decode_space,
        (space({"point": {"weight": [[3]]}}), S1),
        "space.entries[0]: missing key 'mult'",
    ),
    (
        decode_space,
        (space({"point": {"weight": [[3]]}, "mult": "1"}), S1),
        "space.entries[0].mult: expected an integer",
    ),
    (
        decode_space,
        (space({"point": {"weight": [[3]]}, "mult": 0}), S1),
        "space: multiplicity must be positive, got 0",
    ),
    (
        decode_space,
        (space({"point": {"weight": [[4]]}, "mult": 1}), S1),
        "space: all entries of a form space must share its weight",
    ),
    (decode_factors, ({},), "generator: expected an array"),
    (decode_factors, ([],), "generator: a generator product needs at least one factor"),
    (decode_factors, (["x"],), "generator[0]: expected an object"),
    (decode_factors, ([{"place": "p", "cochar": [1]}],), "generator[0]: missing key 'type'"),
    (decode_factors, ([{"type": 5}],), "generator[0].type: expected a string"),
    (
        decode_factors,
        ([{"type": "unknown", "place": "p"}],),
        "generator[0].type: expected 'atkin-lehner' or 'spherical', got 'unknown'",
    ),
    # missing keys are reported before unknown ones
    (decode_factors, ([{"type": "atkin-lehner", "x": 1}],), "generator[0]: missing key 'place'"),
    (
        decode_factors,
        ([{"type": "atkin-lehner", "place": "p", "cochar": [1], "x": 1}],),
        "generator[0]: unknown key 'x'",
    ),
    (
        decode_factors,
        ([{"type": "atkin-lehner", "place": 5, "cochar": [1]}],),
        "generator[0].place: expected a string",
    ),
    (
        decode_factors,
        ([{"type": "atkin-lehner", "place": "p", "cochar": 1}],),
        "generator[0].cochar: expected an array",
    ),
    (
        decode_factors,
        ([{"type": "atkin-lehner", "place": "p", "cochar": [1, "0"]}],),
        "generator[0].cochar[1]: expected an integer",
    ),
    (
        decode_factors,
        ([{"type": "spherical", "place": "v", "degree": "2"}],),
        "generator[0].degree: expected an integer",
    ),
    (
        decode_factors,
        ([{"type": "spherical", "place": "v", "degree": 0}],),
        "generator[0]: degree must be a positive integer, got 0",
    ),
]


@pytest.mark.parametrize("decode, args, message", MESSAGES)
def test_decode_error_messages(decode, args, message):
    with pytest.raises(SchemaError) as err:
        decode(*args)
    assert (type(err.value), str(err.value)) == (SchemaError, message)
