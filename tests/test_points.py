"""Tests for classical points, Hecke factors, and the divisibility criterion."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from eigentransfer.errors import EmptyPacket, SizeMismatch
from eigentransfer.monomial import Monomial, SymbolValue, symbol
from eigentransfer.points import (
    AtkinLehnerFactor,
    ClassicalPoint,
    MockFormSpace,
    SphericalFactor,
    _elementary_symmetric,
    build_transferred_space,
    charpoly,
    constant_C,
    diagram_check,
    divisibility_check,
    point_eigenvalue,
    transfer_point,
)
from eigentransfer.tori import AlgebraicWeight, GroupShape, UnramifiedCharacter
from eigentransfer.transfer import TransferConfig

HALF = Fraction(1, 2)


def config(blocks, sigma=None, alpha=HALF, **kw):
    shape = GroupShape(tuple(blocks))
    if sigma is None:
        sigma = tuple(range(shape.n))
    return TransferConfig(source=shape, sigma=tuple(sigma), alpha=alpha, **kw)


def scalar_point(value, weight_exp=0):
    """A rank-one point whose single eigenvalue at place p is a plain rational."""
    shape = GroupShape((1,))
    weight = AlgebraicWeight(shape, (weight_exp,))
    chi = UnramifiedCharacter(shape, (Monomial(value),))
    return ClassicalPoint.build(weight, up={"p": chi})


def test_point_construction_and_lookup():
    shape = GroupShape((1, 1))
    weight = AlgebraicWeight(shape, (2, 0))
    chi = UnramifiedCharacter(shape, (symbol("c1"), symbol("c2")))
    point = ClassicalPoint.build(
        weight,
        up={"p": chi},
        satake={"v": ((symbol("s1"),), (symbol("s2"),))},
    )
    assert point.up_at("p") == chi
    assert point.satake_at("v") == ((symbol("s1"),), (symbol("s2"),))
    with pytest.raises(ValueError):
        point.up_at("w")
    with pytest.raises(ValueError):
        point.satake_at("p")


def test_point_places_are_sorted():
    shape = GroupShape((1,))
    weight = AlgebraicWeight(shape, (0,))
    chi = UnramifiedCharacter.trivial(shape)
    point = ClassicalPoint(weight, (("p2", chi), ("p1", chi)), ())
    assert [place for place, _ in point.up] == ["p1", "p2"]


def test_point_satake_is_multiset():
    shape = GroupShape((2,))
    weight = AlgebraicWeight(shape, (0, 0))
    a = ClassicalPoint.build(weight, satake={"v": ((symbol("s"), symbol("t")),)})
    b = ClassicalPoint.build(weight, satake={"v": ((symbol("t"), symbol("s")),)})
    assert a == b
    assert a.satake_at("v") == ((symbol("s"), symbol("t")),)


def test_point_validation():
    shape = GroupShape((1, 1))
    weight = AlgebraicWeight(shape, (2, 0))
    chi = UnramifiedCharacter.trivial(shape)
    wrong_shape = UnramifiedCharacter.trivial(GroupShape((2,)))
    with pytest.raises(ValueError):
        ClassicalPoint.build(weight, up={"p": wrong_shape})
    with pytest.raises(ValueError):
        ClassicalPoint(weight, (("p", chi), ("p", chi)), ())
    with pytest.raises(ValueError):
        ClassicalPoint.build(weight, satake={"v": ((symbol("s"), symbol("t")),)})
    with pytest.raises(ValueError):
        ClassicalPoint.build(weight, satake={"v": ((symbol("s"),),)})


def test_mock_form_space_validation():
    point = scalar_point(3)
    MockFormSpace(point.weight, ((point, 2),))
    with pytest.raises(ValueError):
        MockFormSpace(point.weight, ((point, 0),))
    other_weight = AlgebraicWeight(GroupShape((1,)), (5,))
    with pytest.raises(ValueError):
        MockFormSpace(other_weight, ((point, 1),))


def test_atkin_lehner_factor_eigenvalue():
    shape = GroupShape((2,))
    weight = AlgebraicWeight(shape, (3, 1))
    chi = UnramifiedCharacter(shape, (symbol("c1"), symbol("c2")))
    point = ClassicalPoint.build(weight, up={"p": chi})
    assign = {
        "c1": SymbolValue(2),
        "c2": SymbolValue(7),
        "W": SymbolValue(5),
    }
    # value on e_1 is c1 * W^3
    assert AtkinLehnerFactor("p", (1, 0)).eigenvalue(point, assign) == 2 * 125
    # value on e_1 + e_2 is c1 c2 W^4
    assert AtkinLehnerFactor("p", (1, 1)).eigenvalue(point, assign) == 14 * 625
    with pytest.raises(ValueError):
        AtkinLehnerFactor("p", (0, 1)).eigenvalue(point, assign)
    with pytest.raises(ValueError):
        AtkinLehnerFactor("p", (1,)).eigenvalue(point, assign)


def test_spherical_factor_eigenvalue():
    shape = GroupShape((2,))
    weight = AlgebraicWeight(shape, (0, 0))
    point = ClassicalPoint.build(
        weight, satake={"v": ((Monomial(2), Monomial(3)),)}
    )
    assert SphericalFactor("v", 1).eigenvalue(point, {}) == 5
    assert SphericalFactor("v", 2).eigenvalue(point, {}) == 6
    with pytest.raises(ValueError):
        SphericalFactor("v", 3).eigenvalue(point, {})
    with pytest.raises(ValueError):
        SphericalFactor("v", 0)


def _subset_sum(values, degree):
    """Oracle: ``e_degree`` as the sum over all ``C(n, degree)`` subsets of their products."""
    total = Fraction(0)
    for subset in combinations(values, degree):
        term = Fraction(1)
        for value in subset:
            term *= value
        total += term
    return total


# small numerators and denominators make zeros, sign changes and repeats common
_params = st.lists(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=8
)


@settings(max_examples=150, derandomize=True, database=None)
@given(_params)
def test_elementary_symmetric_matches_subset_sum(values):
    for degree in range(1, len(values) + 2):
        assert _elementary_symmetric(values, degree) == _subset_sum(values, degree)
    # Satake parameters are nonzero monomials, so a point carries the nonzero values only
    params = [v for v in values if v]
    if not params:
        return
    n = len(params)
    point = ClassicalPoint.build(
        AlgebraicWeight(GroupShape((n,)), (0,) * n),
        satake={"v": (tuple(Monomial(v) for v in params),)},
    )
    for degree in range(1, n + 1):
        assert SphericalFactor("v", degree).eigenvalue(point, {}) == _subset_sum(params, degree)
    with pytest.raises(ValueError) as err:
        SphericalFactor("v", n + 1).eigenvalue(point, {})
    assert str(err.value) == f"degree {n + 1} exceeds the {n} Satake parameters"


def test_point_eigenvalue_is_product():
    shape = GroupShape((2,))
    weight = AlgebraicWeight(shape, (0, 0))
    chi = UnramifiedCharacter(shape, (Monomial(2), Monomial(3)))
    point = ClassicalPoint.build(
        weight, up={"p": chi}, satake={"v": ((Monomial(5), Monomial(7)),)}
    )
    factors = (AtkinLehnerFactor("p", (1, 0)), SphericalFactor("v", 1))
    assert point_eigenvalue(point, factors, {}) == 2 * 12
    assert point_eigenvalue(point, (), {}) == 1


def test_transfer_point_anchor():
    shape = GroupShape((1, 1))
    weight = AlgebraicWeight(shape, (2, 0))
    chi = UnramifiedCharacter(shape, (symbol("c1"), symbol("c2")))
    point = ClassicalPoint.build(
        weight,
        up={"p": chi},
        satake={"v": ((symbol("s1"),), (symbol("s2"),))},
    )
    cfg = config((1, 1))
    moved = transfer_point(point, cfg)
    assert moved.weight == AlgebraicWeight(GroupShape((2,)), (2, 1))
    assert moved.up_at("p").values == (
        Monomial.parse("1 * M * c1 * q^(1/2)"),
        Monomial.parse("1 * M * W * c2 * q^(-1/2)"),
    )
    assert moved.satake_at("v") == (
        (Monomial.parse("1 * M * s1"), Monomial.parse("1 * M * s2")),
    )
    with pytest.raises(SizeMismatch):
        transfer_point(point, config((2,)))


def test_diagram_check():
    shape = GroupShape((1, 1))
    weight = AlgebraicWeight(shape, (2, 0))
    chi = UnramifiedCharacter(shape, (symbol("c1"), symbol("c2")))
    psi = UnramifiedCharacter(shape, (symbol("d1"), symbol("d2")))
    cfg = config((1, 1))
    a = ClassicalPoint.build(weight, up={"p": chi})
    b = ClassicalPoint.build(weight, up={"p": psi})
    targets = [transfer_point(a, cfg)]
    report = diagram_check([a, b], targets, cfg)
    assert report.results == (True, False)
    assert report.matched == 1
    assert report.unmatched == 1
    assert not report.ok
    assert diagram_check([a], targets, cfg).ok
    assert diagram_check([], targets, cfg).ok


def test_charpoly_anchors():
    p3 = scalar_point(3)
    space = MockFormSpace(p3.weight, ((p3, 2),))
    factors = (AtkinLehnerFactor("p", (1,)),)
    # (1 - 3T)^2
    assert charpoly(space, factors, {}) == (1, -6, 9)
    p2, p5 = scalar_point(2), scalar_point(5)
    space = MockFormSpace(p2.weight, ((p2, 1), (p5, 1)))
    # (1 - 2T)(1 - 5T)
    assert charpoly(space, factors, {}) == (1, -7, 10)
    empty = MockFormSpace(p2.weight, ())
    assert charpoly(empty, factors, {}) == (1,)


def test_divisibility_check():
    factors = (AtkinLehnerFactor("p", (1,)),)
    p2, p5 = scalar_point(2), scalar_point(5)
    both = MockFormSpace(p2.weight, ((p2, 1), (p5, 1)))
    only2 = MockFormSpace(p2.weight, ((p2, 1),))
    assert divisibility_check(both, both, 1, factors, {})
    assert divisibility_check(only2, both, 1, factors, {})
    assert not divisibility_check(both, only2, 1, factors, {})
    triple = MockFormSpace(p2.weight, ((p2, 3),))
    assert not divisibility_check(triple, only2, 2, factors, {})
    assert divisibility_check(triple, only2, 3, factors, {})
    with pytest.raises(ValueError):
        divisibility_check(both, both, 0, factors, {})


def test_zero_eigenvalue_counts_in_the_check_but_not_in_charpoly():
    """The check divides prod (T - lambda)^mult; the reversed charpoly drops lambda = 0."""
    weight = AlgebraicWeight(GroupShape((2,)), (0, 0))
    factors = (SphericalFactor("v", 1),)
    source_point = ClassicalPoint.build(weight, satake={"v": ((Monomial(1), Monomial(-1)),)})
    target_point = ClassicalPoint.build(weight, satake={"v": ((Monomial(2), Monomial(1)),)})
    source = MockFormSpace(weight, ((source_point, 1),))
    target = MockFormSpace(weight, ((target_point, 1),))
    assert charpoly(source, factors, {}) == (1, 0)
    assert charpoly(target, factors, {}) == (1, -3)
    assert not divisibility_check(source, target, 1, factors, {})


def test_constant_C():
    assert constant_C(2, [2, 3]) == 1
    assert constant_C(3, [2]) == 2
    assert constant_C(4, [3]) == 2
    assert constant_C(5, [2, 3]) == 3
    assert constant_C(1, [10]) == 1
    with pytest.raises(EmptyPacket):
        constant_C(4, [])
    with pytest.raises(ValueError):
        constant_C(0, [2])
    with pytest.raises(ValueError):
        constant_C(4, [0])


def test_build_transferred_space():
    shape = GroupShape((1, 1))
    weight = AlgebraicWeight(shape, (2, 0))
    chi = UnramifiedCharacter(shape, (symbol("c1"), symbol("c2")))
    psi = UnramifiedCharacter(shape, (symbol("d1"), symbol("d2")))
    a = ClassicalPoint.build(weight, up={"p": chi})
    b = ClassicalPoint.build(weight, up={"p": psi})
    space = MockFormSpace(weight, ((a, 2), (b, 3)))
    cfg = config((1, 1))
    out = build_transferred_space(space, cfg)
    assert out.weight == AlgebraicWeight(GroupShape((2,)), (2, 1))
    assert out.entries == (
        (transfer_point(a, cfg), 2),
        (transfer_point(b, cfg), 3),
    )


_FACTORS = (AtkinLehnerFactor("p", (1,)),)


def _space(mult=1):
    point = scalar_point(2)
    return MockFormSpace(point.weight, ((point, mult),))


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: AtkinLehnerFactor("p", (1.5, 0.2)),
            "cocharacter entries must be integers, got 1.5",
        ),
        (
            lambda: AtkinLehnerFactor("p", (1, "0")),
            "cocharacter entries must be integers, got '0'",
        ),
        (lambda: _space(1.9), "multiplicities must be integers, got 1.9"),
        # every multiplicity is read before any entry is checked, as with int() before
        (
            lambda: MockFormSpace(
                scalar_point(2).weight, ((scalar_point(2), 0), (scalar_point(3), 2.5))
            ),
            "multiplicities must be integers, got 2.5",
        ),
        (lambda: _space(0), "multiplicity must be positive, got 0"),
        (
            lambda: divisibility_check(_space(), _space(), 1.9, _FACTORS, {}),
            "the constant must be a positive integer, got 1.9",
        ),
        (
            lambda: divisibility_check(_space(), _space(), 0, _FACTORS, {}),
            "the constant must be a positive integer, got 0",
        ),
        (
            lambda: divisibility_check(_space(), _space(), "2", _FACTORS, {}),
            "the constant must be a positive integer, got '2'",
        ),
        (lambda: constant_C(2.5, [1]), "dimensions must be positive integers"),
        (lambda: constant_C(3, [2, 1.5]), "packet dimensions must be integers, got 1.5"),
        (lambda: constant_C(0, [2]), "dimensions must be positive integers"),
    ],
)
def test_non_integral_values_are_refused(build, message):
    """Values with ``int(x) != x`` used to be truncated silently by ``int``: the
    cocharacter ``(1.5, 0.2)`` became ``(1, 0)``, the multiplicity and the
    constant 1.9 became 1 and ``constant_C(2.5, [1])`` returned 2."""
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_integral_values_of_other_types_are_accepted():
    cochar = AtkinLehnerFactor("p", (2.0, Fraction(1))).cochar
    assert cochar == (2, 1) and all(type(e) is int for e in cochar)
    ((_, mult),) = _space(2.0).entries
    assert mult == 2 and type(mult) is int
    assert divisibility_check(_space(2), _space(1), 2.0, _FACTORS, {})
    assert not divisibility_check(_space(2), _space(1), Fraction(1), _FACTORS, {})
    assert constant_C(Fraction(4), [2.0, 3]) == 2
