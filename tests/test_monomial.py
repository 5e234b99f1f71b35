"""Tests for the exact monomial value group and its evaluation semantics."""

import copy
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eigentransfer.errors import MissingSymbol, NonSquareAssignment
from eigentransfer.monomial import (
    Monomial,
    ONE,
    RESIDUE_SYMBOL,
    SymbolValue,
    UNIFORMIZER_SYMBOL,
    symbol,
    valid_symbol,
)
from eigentransfer.tori import GroupShape, modulus_half


def test_reserved_names():
    assert RESIDUE_SYMBOL == "q"
    assert UNIFORMIZER_SYMBOL == "W"


def test_valid_symbol():
    assert valid_symbol("q")
    assert valid_symbol("W")
    assert valid_symbol("c12")
    assert valid_symbol("_tmp")
    assert valid_symbol("a_b_3")
    assert not valid_symbol("")
    assert not valid_symbol("2x")
    assert not valid_symbol("a-b")
    assert not valid_symbol("a b")
    assert not valid_symbol("x^2")
    assert not valid_symbol(3)
    assert not valid_symbol(None)
    # keywords are names; non-ASCII letters and digits and a trailing newline are not
    assert [name for name in _NAME_EDGES if valid_symbol(name)] == ["if", "class", "None", "_"]


# the symbol-name rule as the regex that stated it before the string-method test
_NAME_REGEX = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NAME_EDGES = ["", "a\n", "\na", "1a", "9", "if", "class", "None", "_"]
_NAME_EDGES += ["é", "aé", "ß", "λx", "ａ", "x١", "ǅ"]


@settings(max_examples=500, derandomize=True, database=None)
@given(
    st.one_of(
        st.text(),
        st.text(alphabet="az_09AZ\n -é١ａ", max_size=4),
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True),
        st.sampled_from(_NAME_EDGES),
    )
)
def test_valid_symbol_matches_the_name_regex(name):
    """``valid_symbol`` accepts exactly the names the ASCII identifier regex matches:
    non-ASCII letters and digits, a leading digit, a trailing newline and the empty
    name are refused, keywords are accepted."""
    assert valid_symbol(name) is bool(_NAME_REGEX.match(name))


def test_construction_normalization():
    m = Monomial(Fraction(4, 6), {"x": 2})
    assert m.coeff == Fraction(2, 3)
    assert m.exponents() == {"x": Fraction(2)}
    # zero exponents are dropped
    assert Monomial(5, {"x": 0}) == Monomial(5)
    assert Monomial(5, {"x": 0}).symbols() == ()
    # half-integer exponents are kept exactly, doubled internally
    h = Monomial(1, {"q": Fraction(3, 2)})
    assert h.doubled_exponent("q") == 3
    assert h.doubled_exponent("absent") == 0
    assert h.exponents() == {"q": Fraction(3, 2)}


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Monomial(0)
    with pytest.raises(ValueError):
        Monomial(Fraction(0, 5), {"x": 1})
    with pytest.raises(ValueError):
        Monomial(1, {"x": Fraction(1, 3)})
    with pytest.raises(ValueError):
        Monomial(1, {"bad name": 1})
    with pytest.raises(ValueError):
        Monomial(1, {"": 1})


def _general_doubled(exp):
    """Oracle: the doubling of a non-``int`` exponent before ``Fraction`` exponents of
    denominator 1 or 2 were doubled on integers."""
    doubled = Fraction(exp) * 2
    if doubled.denominator != 1:
        raise ValueError("exponents must lie in (1/2)Z")
    return int(doubled)


@pytest.mark.parametrize("den", (1, 2, 3, 4))
def test_fraction_exponents_match_the_general_path(den):
    """Signed ``Fraction`` exponents with denominator ``den``: the same doubled tuple,
    or the same ``ValueError``, as the general path."""
    for num in range(-9, 10):
        exp = Fraction(num, den)
        try:
            doubled = _general_doubled(exp)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                Monomial(3, {"b": 1, "a": exp})
            assert str(got.value) == str(err) == "exponents must lie in (1/2)Z"
            continue
        expected = tuple(sorted(((("a", doubled),) if doubled else ()) + (("b", 2),)))
        assert Monomial(3, {"b": 1, "a": exp})._twice == expected, exp
        assert Monomial(3, {"a": exp})._twice == expected[:-1], exp


def test_one_and_symbol_helpers():
    assert ONE.is_one()
    assert ONE.coeff == 1
    assert symbol("x") == Monomial(1, {"x": 1})
    assert symbol("x", Fraction(-1, 2)) == Monomial(1, {"x": Fraction(-1, 2)})
    assert not symbol("x").is_one()
    assert not Monomial(2).is_one()


def test_multiplication():
    a = Monomial(2, {"q": Fraction(1, 2)})
    b = Monomial(3, {"q": Fraction(1, 2)})
    assert a * b == Monomial(6, {"q": 1})
    # exponents cancel back to nothing
    assert symbol("x") * symbol("x", -1) == ONE
    # scalars multiply on either side
    assert 2 * a == Monomial(4, {"q": Fraction(1, 2)})
    assert a * Fraction(1, 2) == Monomial(1, {"q": Fraction(1, 2)})
    assert Fraction(3, 2) * ONE == Monomial(Fraction(3, 2))


def test_powers_and_inverse():
    a = Monomial(2, {"x": 1, "q": Fraction(-1, 2)})
    assert a ** 0 == ONE
    assert a ** 1 == a
    assert a ** 3 == a * a * a
    assert a ** -2 == (a.inverse()) ** 2
    assert a * a.inverse() == ONE
    assert a.inverse() == Monomial(Fraction(1, 2), {"x": -1, "q": Fraction(1, 2)})


def test_division():
    a = Monomial(2, {"q": Fraction(1, 2)})
    b = Monomial(3, {"q": Fraction(1, 2)})
    assert a / b == Monomial(Fraction(2, 3))
    assert a / 2 == Monomial(1, {"q": Fraction(1, 2)})
    assert (a / b) * b == a


def test_group_laws_random():
    rng = random.Random(20260823)
    names = ["a", "b", "q", "W"]

    def rand_monomial():
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            coeff = -coeff
        exps = {n: Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for n in names}
        return Monomial(coeff, exps)

    for _ in range(200):
        x, y, z = rand_monomial(), rand_monomial(), rand_monomial()
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * ONE == x
        assert x * x.inverse() == ONE
        assert (x * y).inverse() == x.inverse() * y.inverse()
        assert (x * y) ** 2 == x ** 2 * y ** 2


def test_equality_and_hash():
    a = Monomial(2, {"x": 1})
    b = Monomial(2, {"x": Fraction(2, 2)})
    assert a == b
    assert hash(a) == hash(b)
    assert a != Monomial(2, {"x": 2})
    assert a != Monomial(3, {"x": 1})
    assert a != "2 * x"
    table = {a: "hit"}
    assert table[b] == "hit"


def test_evaluate_integer_exponents():
    assign = {"q": SymbolValue(9)}
    assert Monomial(2, {"q": 1}).evaluate(assign) == 18
    assert Monomial(1, {"q": 2}).evaluate(assign) == 81
    assert Monomial(1, {"q": -1}).evaluate(assign) == Fraction(1, 9)
    assert Monomial(Fraction(-5, 3)).evaluate({}) == Fraction(-5, 3)


def test_evaluate_half_integer_exponents():
    assign = {"q": SymbolValue(9, 3)}
    assert symbol("q", Fraction(1, 2)).evaluate(assign) == 3
    assert symbol("q", Fraction(-1, 2)).evaluate(assign) == Fraction(1, 3)
    assert symbol("q", Fraction(3, 2)).evaluate(assign) == 27
    assert Monomial(2, {"q": Fraction(1, 2)}).evaluate(assign) == 6
    frac = {"q": SymbolValue(Fraction(9, 4), Fraction(3, 2))}
    assert symbol("q", Fraction(1, 2)).evaluate(frac) == Fraction(3, 2)


def test_evaluate_errors():
    with pytest.raises(MissingSymbol):
        symbol("x").evaluate({})
    with pytest.raises(MissingSymbol):
        (symbol("x") * symbol("y")).evaluate({"x": SymbolValue(2)})
    with pytest.raises(NonSquareAssignment):
        symbol("q", Fraction(1, 2)).evaluate({"q": SymbolValue(9)})
    # even exponents never need the root
    assert symbol("q", 2).evaluate({"q": SymbolValue(9)}) == 81


def test_evaluate_is_multiplicative():
    rng = random.Random(7)
    assign = {
        "a": SymbolValue(4, 2),
        "b": SymbolValue(Fraction(25, 4), Fraction(5, 2)),
        "q": SymbolValue(9, 3),
    }

    def rand_monomial():
        coeff = Fraction(rng.randint(1, 9))
        exps = {n: Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for n in assign}
        return Monomial(coeff, exps)

    for _ in range(100):
        x, y = rand_monomial(), rand_monomial()
        assert (x * y).evaluate(assign) == x.evaluate(assign) * y.evaluate(assign)
        assert x.inverse().evaluate(assign) == 1 / x.evaluate(assign)


def test_symbol_value_validation():
    assert SymbolValue(9).value == 9
    assert SymbolValue(9).sqrt is None
    assert SymbolValue(9, 3).sqrt == 3
    assert SymbolValue(Fraction(9, 4), Fraction(-3, 2)).sqrt == Fraction(-3, 2)
    with pytest.raises(ValueError):
        SymbolValue(0)
    with pytest.raises(ValueError):
        SymbolValue(-4, 2)
    with pytest.raises(ValueError):
        SymbolValue(9, 2)


def test_symbol_value_pairs_are_slots_not_fields():
    """The integer pairs that evaluation reads are slots beside the two fields:
    equality, hash, repr, copy and pickle see the value and the root only, and a copy
    keeps the pairs of its value and root, negative roots included."""
    cases = [
        (SymbolValue(9), SymbolValue("9"), "SymbolValue(value=Fraction(9, 1), sqrt=None)"),
        (
            SymbolValue(Fraction(9, 4), Fraction(-3, 2)),
            SymbolValue("9/4", "-3/2"),
            "SymbolValue(value=Fraction(9, 4), sqrt=Fraction(-3, 2))",
        ),
    ]
    for sv, twin, text in cases:
        assert SymbolValue._fields == ("value", "sqrt")
        assert sv == twin and hash(sv) == hash(twin) and sv is not twin
        assert sv != SymbolValue(sv.value + 1) and repr(sv) == text
        for clone in (copy.copy(sv), copy.deepcopy(sv), pickle.loads(pickle.dumps(sv))):
            assert clone == sv and hash(clone) == hash(sv) and repr(clone) == text
            root = clone.sqrt
            assert clone._value_pair == (clone.value.numerator, clone.value.denominator)
            assert clone._root_pair == (None if root is None else (root.numerator, root.denominator))
        with pytest.raises(AttributeError):
            sv._value_pair = (1, 1)


_INEXACT = (0.1, 2.0, "0.1", "1e-1", " 3", "1_000", Decimal("0.1"), [1])


@pytest.mark.parametrize("value", _INEXACT, ids=repr)
def test_inexact_rationals_are_refused(value):
    """A float or a decimal string used to be read as the binary fraction it
    rounds to: ``SymbolValue(0.1).value`` was 3602879701896397/36028797018963968."""
    message = f"rationals are ints, Fractions or 'a/b' text, got {value!r}"
    for build in (
        lambda: SymbolValue(value),
        lambda: SymbolValue(4, value),
        lambda: Monomial(value),
        lambda: Monomial(value, {"q": 1}),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError and str(err.value) == message


@pytest.mark.parametrize(
    "value", _INEXACT + (1.5, Decimal("1.5"), "1.5", float(2**53) + 1), ids=repr
)
def test_inexact_exponents_are_refused(value):
    """Exponents follow the exactness rule of coefficients.  ``1.5``,
    ``Decimal("1.5")`` and ``"1.5"`` used to be read as ``q^(3/2)``, and
    ``float(2**53) + 1``, which rounds to ``2**53``, as ``q^9007199254740992``."""
    message = f"rationals are ints, Fractions or 'a/b' text, got {value!r}"
    for build in (lambda: Monomial(1, {"q": value}), lambda: symbol("q", value)):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError and str(err.value) == message


def test_exact_exponents_are_accepted():
    assert Monomial(1, {"q": "3/2"})._twice == (("q", 3),)
    assert Monomial(1, {"q": "-4/2", "x": 1})._twice == (("q", -4), ("x", 2))
    with pytest.raises(ValueError, match="rationals are ints, Fractions or 'a/b' text, got True"):
        Monomial(1, {"q": "-4/2", "x": True})
    assert symbol("q", "0").is_one()
    with pytest.raises(ValueError, match=r"exponents must lie in \(1/2\)Z"):
        Monomial(1, {"q": "1/3"})


def test_exact_rationals_are_accepted():
    assert SymbolValue("9/4", "-3/2") == SymbolValue(Fraction(9, 4), Fraction(-3, 2))
    assert SymbolValue(1).value == 1 and type(SymbolValue(1).value) is Fraction
    with pytest.raises(ValueError, match="rationals are ints, Fractions or 'a/b' text, got True"):
        SymbolValue(True)
    assert Monomial("-3/6") == Monomial(Fraction(-1, 2))
    assert Monomial("+4", {"q": 1}) == Monomial(4, {"q": 1})
    assert type(Monomial("6/3")._coeff) is int
    # the positivity and root checks still come after the value is read
    with pytest.raises(ValueError, match="symbol values must be positive rationals"):
        SymbolValue("-1/2", 0.5)
    with pytest.raises(ValueError, match="monomial coefficients are nonzero"):
        Monomial("0/5")
    with pytest.raises(ZeroDivisionError):
        Monomial("1/0")


def test_text_canonical_form():
    m = Monomial(1, {"M": 1, "W": 1, "c2": 1, "q": Fraction(-1, 2)})
    assert m.text() == "1 * M * W * c2 * q^(-1/2)"
    assert Monomial(Fraction(-3, 2), {"W": 1, "q": Fraction(1, 2)}).text() == "-3/2 * W * q^(1/2)"
    assert ONE.text() == "1"
    assert Monomial(-1).text() == "-1"
    assert symbol("x", 2).text() == "1 * x^2"
    assert symbol("x", -1).text() == "1 * x^-1"
    assert symbol("x", Fraction(3, 2)).text() == "1 * x^(3/2)"
    assert symbol("x", Fraction(-5, 2)).text() == "1 * x^(-5/2)"
    assert str(m) == m.text()


def test_parse():
    assert Monomial.parse("q") == symbol("q")
    assert Monomial.parse("3") == Monomial(3)
    assert Monomial.parse("-3/2") == Monomial(Fraction(-3, 2))
    assert Monomial.parse("1/2 * q^2") == Monomial(Fraction(1, 2), {"q": 2})
    assert Monomial.parse("2 * 3") == Monomial(6)
    assert Monomial.parse("q * q") == symbol("q", 2)
    assert Monomial.parse("q * q^-1") == ONE
    assert Monomial.parse("1 * M * W * c2 * q^(-1/2)") == Monomial(
        1, {"M": 1, "W": 1, "c2": 1, "q": Fraction(-1, 2)}
    )
    assert Monomial.parse("x^(3/2)") == symbol("x", Fraction(3, 2))


def test_parse_rejects_garbage():
    for bad in ["", "   ", "q^", "q^(1/3)", "2x", "x + y", "0", "* q", "q *", "x^^2", "x^(1/2"]:
        with pytest.raises(ValueError):
            Monomial.parse(bad)
    for zero in ["0 * q", "2 * 0/3 * q"]:
        with pytest.raises(ValueError, match="monomial coefficients are nonzero"):
            Monomial.parse(zero)


def test_text_parse_round_trip_random():
    rng = random.Random(99)
    names = ["M", "W", "q", "c1", "c2", "x_3"]
    for _ in range(200):
        coeff = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        if rng.random() < 0.5:
            coeff = -coeff
        exps = {n: Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for n in names}
        m = Monomial(coeff, exps)
        assert Monomial.parse(m.text()) == m


def test_parse_accepts_integer_and_ratio_coefficients():
    assert Monomial.parse("+3 * q") == Monomial(3, {"q": 1})
    assert Monomial.parse("-12/8 * q") == Monomial(Fraction(-3, 2), {"q": 1})
    assert Monomial.parse("+5/10") == Monomial(Fraction(1, 2))
    assert Monomial.parse("007") == Monomial(7)


def test_parse_rejects_inexact_coefficient_tokens():
    bad_forms = ["1.5 * q", "1e3 * q", "1_000 * q", ".5", "2.", "1E2", "3 / 2 * q", "1/-2"]
    for bad in bad_forms:
        with pytest.raises(ValueError):
            Monomial.parse(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        Monomial.parse("1/0 * q")


def test_monomial_is_immutable():
    cached = modulus_half(GroupShape((2,)), 1).values[0]
    with pytest.raises(AttributeError):
        cached._coeff = 7
    with pytest.raises(AttributeError):
        cached._twice = ()
    with pytest.raises(AttributeError):
        del cached._coeff
    with pytest.raises(AttributeError):
        ONE.coeff = 2
    assert modulus_half(GroupShape((2,)), 1).values[0] == Monomial(1, {"q": Fraction(-1, 2)})
    assert ONE == Monomial(1)


def test_copy_and_pickle_round_trip():
    m = Monomial(Fraction(-3, 2), {"W": 1, "q": Fraction(1, 2)})
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert clone == m
        assert clone.text() == m.text()


_NAMES = ("a", "b", "q", "W")
_coefficients = st.one_of(
    st.just(Fraction(1)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
)
_exponents = st.dictionaries(
    st.sampled_from(_NAMES), st.integers(-4, 4).map(lambda t: Fraction(t, 2)), max_size=4
)
_monomials = st.builds(Monomial, _coefficients, _exponents)


def _reference(coeff, exps):
    """The same value rebuilt through the validating public constructor."""
    return Monomial(coeff, {name: e for name, e in exps.items() if e})


def _combined(x, y, sign):
    exps = x.exponents()
    for name, e in y.exponents().items():
        exps[name] = exps.get(name, 0) + sign * e
    return exps


def _assert_same(value, reference):
    assert value == reference
    assert value.text() == reference.text()
    assert hash(value) == hash(reference)


@settings(max_examples=300, derandomize=True, database=None)
@given(_monomials, _monomials, st.integers(-3, 3), _coefficients)
def test_arithmetic_matches_validating_constructor(x, y, n, scalar):
    _assert_same(x * y, _reference(x.coeff * y.coeff, _combined(x, y, 1)))
    _assert_same(x / y, _reference(x.coeff / y.coeff, _combined(x, y, -1)))
    _assert_same(x ** n, _reference(x.coeff ** n, {k: e * n for k, e in x.exponents().items()}))
    _assert_same(x.inverse(), _reference(1 / x.coeff, {k: -e for k, e in x.exponents().items()}))
    _assert_same(x * scalar, _reference(x.coeff * scalar, x.exponents()))
    _assert_same(scalar * x, _reference(x.coeff * scalar, x.exponents()))
    _assert_same(x / scalar, _reference(x.coeff / scalar, x.exponents()))
