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
    for bad in [True, False, 1.5, "abc", "1/0", None, [1]]:
        with pytest.raises(SchemaError):
            decode_rational(bad, "x")


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
    for bad in [[], [0], [2, -1], ["2"], [1.0], "21", {"n": 2}]:
        with pytest.raises(SchemaError):
            decode_shape(bad)


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
    with pytest.raises(SchemaError):
        decode_config({**good, "extra": 1})
    with pytest.raises(SchemaError):
        decode_config({"blocks": [1, 2], "sigma": [1, 2, 3]})
    with pytest.raises(SchemaError):
        decode_config({**good, "sigma": [1, 2]})
    with pytest.raises(SchemaError):
        decode_config({**good, "sigma": [0, 1, 2]})
    with pytest.raises(SchemaError):
        decode_config({**good, "sigma": [1, 2, 4]})
    with pytest.raises(SchemaError):
        decode_config({**good, "alpha": 0.5})
    with pytest.raises(SchemaError):
        decode_config({**good, "alpha": "1/3"})
    with pytest.raises(SchemaError):
        decode_config({**good, "mu": "q"})
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
    for bad in [[[2, 1], [0]], [[2]], [[2], [1]], [[2], [1, "0"]], [2, 1, 0]]:
        with pytest.raises(SchemaError):
            decode_weight(bad, shape)


def test_decode_encode_character():
    shape = GroupShape((1, 1))
    chi = decode_character(["1 * c1", "-3/2 * q^(1/2)"], shape)
    assert chi == UnramifiedCharacter(
        shape, (symbol("c1"), Monomial(Fraction(-3, 2), {"q": Fraction(1, 2)}))
    )
    assert encode_character(chi) == ["1 * c1", "-3/2 * q^(1/2)"]
    assert decode_character(encode_character(chi), shape) == chi
    with pytest.raises(SchemaError):
        decode_character(["1 * c1"], shape)
    with pytest.raises(SchemaError):
        decode_character(["1 * c1", "nope nope"], shape)
    with pytest.raises(SchemaError):
        decode_character(["1 * c1", 2], shape)


def test_decode_assignment():
    out = decode_assignment({"q": {"value": 9, "sqrt": 3}, "c": {"value": "2/3"}})
    assert out == {"q": SymbolValue(9, 3), "c": SymbolValue(Fraction(2, 3))}
    with pytest.raises(SchemaError):
        decode_assignment({"2x": {"value": 1}})
    with pytest.raises(SchemaError):
        decode_assignment({"q": {"value": 9, "root": 3}})
    with pytest.raises(SchemaError):
        decode_assignment({"q": {"sqrt": 3}})
    with pytest.raises(SchemaError):
        decode_assignment({"q": {"value": -1}})
    with pytest.raises(SchemaError):
        decode_assignment({"q": {"value": 9, "sqrt": 2}})
    with pytest.raises(SchemaError):
        decode_assignment({"q": {"value": 0.5}})
    with pytest.raises(SchemaError):
        decode_assignment(["q"])


def test_decode_descriptor():
    desc = decode_descriptor(
        {"blocks": [[{"gamma": "1 * a", "d": 1}], [{"gamma": "1 * g", "d": 2}]]}
    )
    assert desc.shape == GroupShape((1, 2))
    assert desc.segments[1][0].gamma == symbol("g")
    assert desc.segments[1][0].d == 2
    with pytest.raises(SchemaError):
        decode_descriptor({"blocks": [[{"gamma": "1 * a"}]]})
    with pytest.raises(SchemaError):
        decode_descriptor({"blocks": [[{"gamma": "1 * a", "d": 0}]]})
    with pytest.raises(SchemaError):
        decode_descriptor({"blocks": [[{"gamma": "???", "d": 1}]]})
    with pytest.raises(SchemaError):
        decode_descriptor({"blocks": [[]]})
    with pytest.raises(SchemaError):
        decode_descriptor({"blocks": [[{"gamma": "1 * a", "d": 1, "x": 2}]]})
    with pytest.raises(SchemaError):
        decode_descriptor({"segments": []})


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
    with pytest.raises(SchemaError):
        decode_point({"weight": [[2], [0]], "junk": 1}, shape)
    with pytest.raises(SchemaError):
        decode_point({"weight": [[2], [0]], "satake": {"v": [["1 * s1", "1 * s2"]]}}, shape)
    with pytest.raises(SchemaError):
        decode_point({"weight": [[2], [0]], "up": {"p": ["1 * c1"]}}, shape)


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
    with pytest.raises(SchemaError):
        decode_space({**data, "entries": [{"point": {"weight": [[3]]}, "mult": 0}]}, shape)
    with pytest.raises(SchemaError):
        decode_space({"weight": [[3]]}, shape)
    with pytest.raises(SchemaError):
        # entry weight must match the space weight
        decode_space(
            {"weight": [[3]], "entries": [{"point": {"weight": [[4]]}, "mult": 1}]},
            shape,
        )


def test_decode_factors():
    factors = decode_factors(
        [
            {"type": "atkin-lehner", "place": "p", "cochar": [1, 0]},
            {"type": "spherical", "place": "v", "degree": 2},
        ]
    )
    assert factors == (AtkinLehnerFactor("p", (1, 0)), SphericalFactor("v", 2))
    with pytest.raises(SchemaError):
        decode_factors([])
    with pytest.raises(SchemaError):
        decode_factors([{"place": "p", "cochar": [1]}])
    with pytest.raises(SchemaError):
        decode_factors([{"type": "unknown", "place": "p"}])
    with pytest.raises(SchemaError):
        decode_factors([{"type": "spherical", "place": "v", "degree": 0}])
    with pytest.raises(SchemaError):
        decode_factors([{"type": "atkin-lehner", "place": "p", "cochar": [1], "x": 1}])
