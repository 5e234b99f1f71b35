"""One exactness rule at the library boundary, over every public site that takes a number.

An integer is an ``int`` of exact type: a float (integral or not), a ``bool``,
a ``Decimal``, a string or a ``Fraction`` is refused with ``ValueError`` at an
integer site.  A rational is such an ``int``, a ``Fraction`` or text in the
coefficient grammar: a float, a ``bool``, a ``Decimal`` or other text is
refused at a rational site.  An accepted value is read as the number it is,
which each site's expected value below spells out independently.
"""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eigentransfer.laurent import LaurentPoly, elementary_symmetric
from eigentransfer.monomial import ONE, Monomial, SymbolValue, _rational, symbol
from eigentransfer.points import (
    AtkinLehnerFactor,
    ClassicalPoint,
    MockFormSpace,
    SphericalFactor,
    constant_C,
    divisibility_check,
)
from eigentransfer.refinements import LocalRepDescriptor, Segment
from eigentransfer.tori import (
    AlgebraicWeight,
    CocharVector,
    GroupShape,
    UnramifiedCharacter,
    modulus_half,
)
from eigentransfer.transfer import (
    TransferConfig,
    archimedean_sigma,
    archimedean_transfer,
    invert_permutation,
    iota_sigma_pullback,
)

HALF = Fraction(1, 2)
PAIR = GroupShape((2,))
SPLIT = GroupShape((1, 2))
POLY = 3 * LaurentPoly.variable((2,), 0)
CHI = UnramifiedCharacter(PAIR, (symbol("a"), symbol("b")))
WEIGHT = AlgebraicWeight(PAIR, (0, 0))
POINT = ClassicalPoint.build(WEIGHT, {"p": UnramifiedCharacter.trivial(PAIR)}, {})
FACTORS = (AtkinLehnerFactor("p", (1, 0)),)
KAPPA = AlgebraicWeight(GroupShape((1, 1)), (2, 0))
CONFIG = TransferConfig(SPLIT, (0, 1, 2), HALF)
DESCRIPTOR = LocalRepDescriptor(SPLIT, ((Segment(symbol("a"), 1),), (Segment(symbol("g"), 2),)))


def _space(mult):
    return MockFormSpace(WEIGHT, ((POINT, mult),))


def _terms(poly):
    return list(poly.terms())


def _unit(p, n=2):
    return tuple(1 if u == p else 0 for u in range(n))


def _all_exponents(n):
    return [tuple((k >> u) & 1 for u in range(n)) for k in range(2**n)]


class _OneTerm:
    """A one-term mapping that never hashes its key (a signaling NaN cannot be hashed)."""

    def __init__(self, key, value):
        self.key, self.value = key, value

    def items(self):
        return [(self.key, self.value)]


def _swap(x):
    """The permutation ``(x, 1 - x)`` of two entries; a refused ``x`` gets the entry 0."""
    return (x, 1 - x if type(x) is int else 0)


# (site, integers it accepts, the value an accepted integer gives)
INTEGER_SITES = {
    "GroupShape blocks": (
        lambda x: GroupShape((x, 1)).blocks,
        st.integers(1, 6),
        lambda x: (x, 1),
    ),
    "CocharVector entries": (
        lambda x: CocharVector(PAIR, (x, 0)).exps,
        st.integers(-9, 9),
        lambda x: (x, 0),
    ),
    "CocharVector.basis": (
        lambda x: CocharVector.basis(PAIR, x).exps,
        st.integers(0, 1),
        _unit,
    ),
    "AlgebraicWeight entries": (
        lambda x: AlgebraicWeight(PAIR, (x, 0)).exps,
        st.integers(-9, 9),
        lambda x: (x, 0),
    ),
    "GroupShape.block_of": (
        lambda x: SPLIT.block_of(x),
        st.integers(0, 2),
        lambda x: [(0, 0), (1, 0), (1, 1)][x],
    ),
    "GroupShape.flat": (lambda x: SPLIT.flat(1, x), st.integers(0, 1), lambda x: 1 + x),
    "GroupShape.block_range": (
        lambda x: SPLIT.block_range(x),
        st.integers(0, 1),
        lambda x: (range(0, 1), range(1, 3))[x],
    ),
    "modulus_half sign": (
        lambda x: modulus_half(PAIR, x).values,
        st.sampled_from((1, -1)),
        lambda x: (symbol("q", Fraction(-x, 2)), symbol("q", Fraction(x, 2))),
    ),
    "LaurentPoly blocks": (
        lambda x: LaurentPoly((x,)).blocks,
        st.integers(1, 6),
        lambda x: (x,),
    ),
    "LaurentPoly exponents": (
        lambda x: _terms(LaurentPoly((2,), _OneTerm((x, 0), ONE))),
        st.integers(-3, 3),
        lambda x: [((x, 0), ONE)],
    ),
    "LaurentPoly.coefficients": (
        lambda x: POLY.coefficients((x, 0)),
        st.integers(-2, 2),
        lambda x: (Monomial(3),) if x == 1 else (),
    ),
    "LaurentPoly.permute_variables": (
        lambda x: _terms(POLY.permute_variables(_swap(x))),
        st.integers(0, 1),
        lambda x: [(_unit(x), Monomial(3))],
    ),
    "LaurentPoly.variable index": (
        lambda x: _terms(LaurentPoly.variable((2,), x)),
        st.integers(0, 1),
        lambda x: [(_unit(x), ONE)],
    ),
    "LaurentPoly.variable power": (
        lambda x: _terms(LaurentPoly.variable((2,), 0, x)),
        st.integers(-3, 3),
        lambda x: [((x, 0), ONE)],
    ),
    "LaurentPoly power": (
        lambda x: _terms(POLY**x),
        st.integers(0, 3),
        lambda x: [((x, 0), Monomial(3**x))],
    ),
    "elementary_symmetric degree": (
        lambda x: sorted(e for e, _ in _terms(elementary_symmetric((3,), x))),
        st.integers(0, 3),
        lambda x: sorted(e for e in _all_exponents(3) if sum(e) == x),
    ),
    "TransferConfig sigma": (
        lambda x: TransferConfig((1, 1), _swap(x), HALF).sigma,
        st.integers(0, 1),
        lambda x: (x, 1 - x),
    ),
    "invert_permutation": (
        lambda x: invert_permutation(_swap(x)),
        st.integers(0, 1),
        lambda x: (x, 1 - x),
    ),
    # the twist symbol appears on the block of size 2, whose complement is odd
    "TransferConfig.twist_exponent": (lambda x: CONFIG.twist_exponent(x), st.integers(0, 1), int),
    "TransferConfig.twist_monomial": (
        lambda x: CONFIG.twist_monomial(x),
        st.integers(0, 1),
        lambda x: (ONE, symbol("M"))[x],
    ),
    # the segment g of length 2 has the ladder g·q^(1/2), g·q^(-1/2)
    "LocalRepDescriptor.block_params": (
        lambda x: DESCRIPTOR.block_params(x),
        st.integers(0, 1),
        lambda x: (
            (symbol("a"),),
            (Monomial(1, {"g": 1, "q": HALF}), Monomial(1, {"g": 1, "q": -HALF})),
        )[x],
    ),
    "iota_sigma_pullback sigma": (
        lambda x: iota_sigma_pullback(CHI, _swap(x)).values,
        st.integers(0, 1),
        lambda x: (symbol("a"), symbol("b"))[:: 1 - 2 * x],
    ),
    "Segment length": (lambda x: Segment(symbol("g"), x).d, st.integers(1, 6), lambda x: x),
    "SphericalFactor degree": (
        lambda x: SphericalFactor("v", x).degree,
        st.integers(1, 6),
        lambda x: x,
    ),
    "AtkinLehnerFactor cocharacter": (
        lambda x: AtkinLehnerFactor("p", (x, 0)).cochar,
        st.integers(-9, 9),
        lambda x: (x, 0),
    ),
    "MockFormSpace multiplicity": (
        lambda x: _space(x).entries,
        st.integers(1, 6),
        lambda x: ((POINT, x),),
    ),
    "divisibility_check constant": (
        lambda x: divisibility_check(_space(3), _space(1), x, FACTORS, {}),
        st.integers(1, 6),
        lambda x: x >= 3,
    ),
    "constant_C source": (lambda x: constant_C(x, [2]), st.integers(1, 9), lambda x: (x + 1) // 2),
    "constant_C packet": (lambda x: constant_C(4, [x]), st.integers(1, 9), lambda x: -(-4 // x)),
}


ODD_HALVES = st.integers(-4, 3).map(lambda k: Fraction(2 * k + 1, 2))

# (site, rationals it accepts, the value an accepted rational gives); every rational
# site also reads the value's text in the coefficient grammar as the value itself
RATIONAL_SITES = {
    "Monomial coefficient": (
        lambda v: Monomial(v).coeff,
        st.fractions(max_denominator=6).filter(bool),
        Fraction,
    ),
    "Monomial exponent": (
        lambda v: Monomial(1, {"q": v}).exponents(),
        st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
        lambda v: {"q": Fraction(v)} if v else {},
    ),
    "SymbolValue value": (
        lambda v: SymbolValue(v).value,
        st.fractions(min_value=Fraction(1, 6), max_denominator=6),
        Fraction,
    ),
    "SymbolValue root": (
        lambda v: SymbolValue(Fraction(1, 4), v).sqrt,
        st.sampled_from((HALF, -HALF)),
        Fraction,
    ),
    "TransferConfig alpha": (
        lambda v: TransferConfig((1, 1), (0, 1), v).alpha,
        st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
        Fraction,
    ),
    # the weight (2, 0) on (1, 1) is shifted by alpha - 1/2 and alpha + 1/2
    "archimedean_transfer alpha": (
        lambda v: archimedean_transfer(KAPPA, v).weight.exps,
        ODD_HALVES,
        lambda v: (2 + v - HALF, v + HALF),
    ),
    "archimedean_sigma alpha": (
        lambda v: archimedean_sigma(KAPPA, v),
        ODD_HALVES,
        lambda v: (0, 1),
    ),
}

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
DECIMALS = st.decimals(allow_nan=True, allow_infinity=True)
NOT_RATIONAL_TEXT = st.text(max_size=6).filter(lambda s: _rational(s) is None)
INTEGRAL_FLOATS = st.integers(-9, 9).map(float)
NOT_INTEGERS = st.one_of(
    FLOATS, INTEGRAL_FLOATS, st.booleans(), DECIMALS, st.text(max_size=6), st.fractions()
)
NOT_RATIONALS = st.one_of(
    FLOATS, INTEGRAL_FLOATS, st.booleans(), DECIMALS, st.integers(-9, 9).map(Decimal),
    NOT_RATIONAL_TEXT,
)


@pytest.mark.parametrize("name", INTEGER_SITES)
@settings(max_examples=60, derandomize=True, database=None)
@given(data=st.data())
def test_integer_sites_take_exactly_the_ints(name, data):
    site, ints, expected = INTEGER_SITES[name]
    x = data.draw(ints)
    value = site(x)
    assert value == expected(x)
    bad = data.draw(NOT_INTEGERS)
    with pytest.raises(ValueError) as err:
        site(bad)
    assert type(err.value) is ValueError, (name, bad)
    assert repr(bad) in str(err.value) or str(err.value) == "dimensions must be positive integers"


@pytest.mark.parametrize("name", RATIONAL_SITES)
@settings(max_examples=60, derandomize=True, database=None)
@given(data=st.data())
def test_rational_sites_take_exactly_the_rationals(name, data):
    site, rationals, expected = RATIONAL_SITES[name]
    v = data.draw(rationals)
    assert site(v) == expected(v)
    assert site(str(v)) == expected(v)
    if v.denominator == 1:  # the same value as an int
        assert site(v.numerator) == expected(v)
    bad = data.draw(NOT_RATIONALS)
    with pytest.raises(ValueError) as err:
        site(bad)
    assert type(err.value) is ValueError
    assert str(err.value) == f"rationals are ints, Fractions or 'a/b' text, got {bad!r}"


def test_monomial_operators_take_no_bool():
    """``Monomial`` operators keep Python's operator protocol: a ``bool`` exponent or
    scalar gives ``TypeError``, as a float does; an ``int`` is read as before."""
    q = symbol("q")
    assert q**2 == symbol("q", 2)
    assert q * 2 == 2 * q == Monomial(2, {"q": 1}) and q / 2 == Monomial(HALF, {"q": 1})
    for bad in (True, 2.0):
        for operate in (lambda: q**bad, lambda: q * bad, lambda: bad * q, lambda: q / bad):
            with pytest.raises(TypeError):
                operate()
    with pytest.raises(ValueError, match="got True"):
        LaurentPoly.variable((2,), 0) * True


def test_mixed_operands_follow_the_operator_protocol():
    """An operand of another type gives ``NotImplemented``, so Python raises
    ``TypeError`` or compares unequal; a zero scalar is no monomial coefficient."""
    poly = LaurentPoly.variable((2,), 0)
    shape = GroupShape((2,))
    v = CocharVector(shape, (1, 0))
    chi = UnramifiedCharacter.trivial(shape)
    for operate in (
        lambda: poly + 1,
        lambda: poly - 1,
        lambda: poly * 1.5,
        lambda: v + 1,
        lambda: chi * 1,
    ):
        with pytest.raises(TypeError):
            operate()
    assert poly.__eq__(1) is NotImplemented and poly != 1 and not poly == "x0"
    for zero in (0, Fraction(0)):
        for operate in (lambda: symbol("a") * zero, lambda: zero * symbol("a")):
            with pytest.raises(ValueError) as err:
                operate()
            assert str(err.value) == "monomial coefficients are nonzero"
