"""Tests for classical points, Hecke factors, and the divisibility criterion."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import eigentransfer.points as points_module
from eigentransfer.errors import EmptyPacket, MissingSymbol, NonSquareAssignment, SizeMismatch
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
from eigentransfer.tori import (
    AlgebraicWeight,
    CocharVector,
    GroupShape,
    UnramifiedCharacter,
    weight_as_character,
)
from eigentransfer.transfer import TransferConfig

from shapes import compositions

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


def _weight_character_eigenvalue(factor, point, assign):
    """Oracle: the weight twist as the weight character's value at the cocharacter."""
    vector = CocharVector(point.weight.shape, factor.cochar)
    chi = point.up_at(factor.place)
    return (chi.eval(vector) * weight_as_character(point.weight).eval(vector)).evaluate(assign)


def test_atkin_lehner_eigenvalue_matches_weight_character_oracle():
    rng = random.Random(15)
    orthogonal = 0
    for n in range(1, 5):
        for blocks in compositions(n):
            shape = GroupShape(blocks)
            antidominant = [
                v for v in product(range(-2, 3), repeat=n) if CocharVector(shape, v).is_antidominant()
            ]
            for _ in range(4):
                weight = AlgebraicWeight(shape, [rng.randint(-2, 2) for _ in range(n)])
                values = tuple(
                    Monomial(
                        Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)),
                        {"c": rng.randint(-2, 2), "W": Fraction(rng.randint(-3, 3), 2)},
                    )
                    for _ in range(n)
                )
                point = ClassicalPoint.build(weight, up={"p": UnramifiedCharacter(shape, values)})
                w, c = Fraction(rng.choice((-3, -2, 2, 3)), rng.randint(1, 3)), rng.randint(2, 5)
                assign = {"W": SymbolValue(w * w, w), "c": SymbolValue(Fraction(c, 7))}
                for v in [(0,) * n] + rng.sample(antidominant, min(8, len(antidominant))):
                    factor = AtkinLehnerFactor("p", v)
                    value = factor.eigenvalue(point, assign)
                    assert type(value) is Fraction
                    assert value == _weight_character_eigenvalue(factor, point, assign), (blocks, v)
                    orthogonal += any(v) and sum(k * e for k, e in zip(weight.exps, v)) == 0
    # nonzero cocharacters whose weight pairing is 0 are among the cases, not only v = 0
    assert orthogonal >= 10


def _eigenvalue_outcome(fn, *args):
    try:
        return fn(*args)
    except (MissingSymbol, NonSquareAssignment) as err:
        return type(err), str(err)


def test_atkin_lehner_one_pass_matches_eval_oracle():
    """The one-pass eigenvalue against ``chi.eval(v)`` times the weight character's
    value, evaluated: ``Fraction`` coefficients, negative cocharacter entries, half
    exponents, and assignments that lack a symbol or its root, with the same error
    type and text."""
    rng = random.Random(18)
    names = ("W", "a", "q", "z")
    outcomes = {Fraction: 0, MissingSymbol: 0, NonSquareAssignment: 0}
    for _ in range(1500):
        blocks = rng.choice([blocks for n in range(1, 4) for blocks in compositions(n)])
        shape = GroupShape(blocks)
        n = shape.n
        values = []
        for _ in range(n):
            chosen = rng.sample(names, rng.randint(0, 3))
            exps = {name: Fraction(rng.randint(-3, 3), 2) for name in chosen}
            coeff = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
            values.append(Monomial(coeff, exps))
        weight = AlgebraicWeight(shape, [rng.randint(-2, 2) for _ in range(n)])
        point = ClassicalPoint.build(weight, up={"p": UnramifiedCharacter(shape, values)})
        cochar = [rng.randint(-2, 2) for _ in range(n)]
        for i in range(shape.r):
            block = shape.block_range(i)
            cochar[block.start : block.stop] = sorted(cochar[block.start : block.stop])[::-1]
        factor = AtkinLehnerFactor("p", cochar)
        assign = {}
        for name in names:
            r = Fraction(rng.choice((-3, -2, 2, 3)), rng.randint(1, 3))
            kind = rng.choice(("root", "root", "root", "plain", "missing"))
            if kind == "root":
                assign[name] = SymbolValue(r * r, r)
            elif kind == "plain":
                assign[name] = SymbolValue(abs(r))
        got = _eigenvalue_outcome(factor.eigenvalue, point, assign)
        assert got == _eigenvalue_outcome(_weight_character_eigenvalue, factor, point, assign), (
            values, cochar, assign
        )
        outcomes[type(got) if type(got) is Fraction else got[0]] += 1
    assert all(count >= 50 for count in outcomes.values()), outcomes


def test_atkin_lehner_half_exponents_cancelling_across_slots_need_no_root():
    shape = GroupShape((2,))
    weight = AlgebraicWeight(shape, (1, -1))
    half = Monomial(Fraction(2, 3), {"q": HALF, "a": 1})
    point = ClassicalPoint.build(
        weight, up={"p": UnramifiedCharacter(shape, (half, half.inverse() * symbol("q")))}
    )
    plain = {"q": SymbolValue(5), "a": SymbolValue(Fraction(1, 2)), "W": SymbolValue(3)}
    # the weight pairs to 0 with each of these, so only q^(1/2) twice remains per unit
    for cochar, expected in (((1, 1), 5), ((2, 2), 25), ((-1, -1), Fraction(1, 5))):
        factor = AtkinLehnerFactor("p", cochar)
        value = factor.eigenvalue(point, plain)
        assert value == expected == _weight_character_eigenvalue(factor, point, plain)
    # an odd total exponent still needs the root, with the oracle's error text
    factor = AtkinLehnerFactor("p", (1, 0))
    expected = _eigenvalue_outcome(_weight_character_eigenvalue, factor, point, plain)
    assert expected[0] is NonSquareAssignment
    assert _eigenvalue_outcome(factor.eigenvalue, point, plain) == expected
    del plain["a"]
    expected = _eigenvalue_outcome(_weight_character_eigenvalue, factor, point, plain)
    assert expected == (MissingSymbol, "no value assigned to symbol 'a'")
    assert _eigenvalue_outcome(factor.eigenvalue, point, plain) == expected


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


# small unreduced pairs make zeros, negative denominators, sign changes and repeats common
_pairs = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4).filter(bool)), min_size=1, max_size=8
)


@settings(max_examples=150, derandomize=True, database=None)
@given(_pairs)
def test_elementary_symmetric_matches_subset_sum(pairs):
    values = [Fraction(n, d) for n, d in pairs]
    for degree in range(1, len(pairs) + 2):
        assert _elementary_symmetric(pairs, degree) == _subset_sum(values, degree)
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


def test_elementary_symmetric_cases():
    """Negative and unreduced denominators, zeros and repeats, written out."""
    cases = [
        ([(1, -2), (1, 2)], 1, Fraction(0)),
        ([(1, -2), (1, 2)], 2, Fraction(-1, 4)),
        ([(2, -4), (-3, -6), (0, -5)], 2, Fraction(-1, 4)),
        ([(0, 7), (0, -1), (5, 1)], 2, Fraction(0)),
        ([(3, -3)] * 4, 2, Fraction(6)),
        ([(3, -3)] * 4, 3, Fraction(-4)),
        ([(-1, -3), (4, -6), (1, 1)], 3, Fraction(-2, 9)),
        ([(1, 1)], 2, Fraction(0)),
    ]
    for pairs, degree, expected in cases:
        assert _elementary_symmetric(pairs, degree) == expected, (pairs, degree)


def test_elementary_symmetric_matches_sympy_generating_polynomial():
    """``e_d`` is the ``x^d`` coefficient of ``prod (1 + v·x)``, expanded by sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2002)
    for _ in range(60):
        pairs = [
            (rng.randint(-9, 9), rng.choice((-7, -4, -2, -1, 1, 2, 3, 6)))
            for _ in range(rng.randint(1, 9))
        ]
        poly = sympy.Poly(sympy.prod([1 + sympy.Rational(n, d) * x for n, d in pairs]), x)
        for degree in range(1, len(pairs) + 2):
            value = _elementary_symmetric(pairs, degree)
            expected = poly.coeff_monomial(x**degree)
            assert sympy.Rational(value.numerator, value.denominator) == expected, (pairs, degree)


def test_spherical_eigenvalue_matches_e_d_of_evaluated_parameters():
    """Satake parameters with half exponents of symbols whose declared roots are
    negative, so that the unreduced pairs carry negative denominators: the
    eigenvalue is ``e_d`` of the ``Monomial.evaluate`` values."""
    rng = random.Random(2003)
    assign = {
        "q": SymbolValue(4, -2),
        "a": SymbolValue(Fraction(9, 4), Fraction(-3, 2)),
        "b": SymbolValue(Fraction(1, 9), Fraction(1, 3)),
    }
    negative_den = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        params = tuple(
            Monomial(
                rng.choice((1, -1, 2, Fraction(-3, 5))),
                {
                    name: Fraction(rng.randint(-3, 3), 2)
                    for name in rng.sample("qab", rng.randint(0, 3))
                },
            )
            for _ in range(n)
        )
        values = [m.evaluate(assign) for m in params]
        for m, v in zip(params, values):
            num, den = m._pair(assign)
            assert Fraction(num, den) == v
            negative_den += den < 0
        point = ClassicalPoint.build(
            AlgebraicWeight(GroupShape((n,)), (0,) * n), satake={"v": (params,)}
        )
        for degree in range(1, n + 1):
            expected = _subset_sum(values, degree)
            assert SphericalFactor("v", degree).eigenvalue(point, assign) == expected
    assert negative_den >= 50


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


def _unshared_divisibility(source, target, constant, factors, assign):
    """Oracle: ``divisibility_check`` before the shared eigenvalue dict, each pass
    evaluating every entry of its space."""

    def multiplicities(space):
        out = {}
        for point, mult in space.entries:
            lam = point_eigenvalue(point, factors, assign)
            out[lam] = out.get(lam, 0) + mult
        return out

    source, target = multiplicities(source), multiplicities(target)
    return all(mult <= constant * target.get(lam, 0) for lam, mult in source.items())


def _count_eigenvalues(monkeypatch):
    """Record the point of every ``point_eigenvalue`` call that ``divisibility_check`` makes."""
    calls = []
    real = points_module.point_eigenvalue
    monkeypatch.setattr(
        points_module, "point_eigenvalue", lambda p, f, a: calls.append(p) or real(p, f, a)
    )
    return calls


def test_divisibility_check_computes_one_eigenvalue_per_point_object(monkeypatch):
    p2, p5, p7 = scalar_point(2), scalar_point(5), scalar_point(7)
    twin = scalar_point(2)  # equal to p2, but a distinct object
    assert twin == p2 and twin is not p2
    source = MockFormSpace(p2.weight, ((p2, 1), (p5, 2), (twin, 1)))
    target = MockFormSpace(p2.weight, ((p5, 1), (p2, 1), (p7, 1), (twin, 3)))
    calls = _count_eigenvalues(monkeypatch)
    assert divisibility_check(source, target, 2, _FACTORS, {})
    # the source pass evaluates its three objects; the target pass only p7
    assert [id(point) for point in calls] == [id(p2), id(p5), id(twin), id(p7)]
    calls.clear()
    assert not divisibility_check(source, target, 1, _FACTORS, {})
    assert len(calls) == 4
    # a transferred space checked against itself evaluates each point once
    moved = build_transferred_space(source, config((1,)))
    calls.clear()
    assert divisibility_check(moved, moved, 1, _FACTORS, {})
    assert len(calls) == 3


def test_divisibility_check_matches_unshared_passes_on_seeded_spaces(monkeypatch):
    """Seeded spaces on shape (2, 2) whose targets reuse source points, hold equal
    but distinct copies and new points; spherical degree 1 or 2 often gives the
    eigenvalue 0.  Same verdicts as the unshared passes, one evaluation per object."""
    rng = random.Random(1801)
    shape = GroupShape((2, 2))
    weight = AlgebraicWeight(shape, (1, 0, 2, -1))
    q = SymbolValue(4, 2)
    pool = (1, -1, 2, -2, Fraction(1, 2))

    def point():
        up = [Monomial(rng.choice(pool), {"q": Fraction(rng.randint(-2, 2), 2)}) for _ in range(4)]
        satake = [[Monomial(rng.choice(pool)) for _ in range(2)] for _ in range(2)]
        chi = UnramifiedCharacter(shape, up)
        return ClassicalPoint.build(weight, up={"p": chi}, satake={"v": satake})

    def copy(p):
        return ClassicalPoint.build(p.weight, dict(p.up), dict(p.satake))

    verdicts, zeros = set(), 0
    calls = _count_eigenvalues(monkeypatch)
    for _ in range(300):
        points = [point() for _ in range(rng.randint(1, 4))]
        source = MockFormSpace(weight, tuple((p, rng.randint(1, 3)) for p in points))
        reused = [rng.choice((p, copy(p))) for p in rng.sample(points, rng.randint(0, len(points)))]
        extra = [point() for _ in range(rng.randint(0, 2))]
        target = MockFormSpace(weight, tuple((p, rng.randint(1, 3)) for p in reused + extra))
        factors = rng.choice(
            (
                (SphericalFactor("v", rng.randint(1, 2)),),
                (AtkinLehnerFactor("p", (1, 0, 1, 1)), SphericalFactor("v", 1)),
                (AtkinLehnerFactor("p", (2, 1, 0, -1)),),
            )
        )
        assign = {"q": q, "W": SymbolValue(Fraction(3, 2))}
        constant = rng.randint(1, 2)
        zeros += any(point_eigenvalue(p, factors, assign) == 0 for p in points)
        expected = _unshared_divisibility(source, target, constant, factors, assign)
        calls.clear()
        assert divisibility_check(source, target, constant, factors, assign) is expected
        objects = {id(p) for space in (source, target) for p, _ in space.entries}
        assert len(calls) == len(objects)
        verdicts.add(expected)
    assert verdicts == {True, False} and zeros >= 20


def test_factors_that_cannot_act_are_refused_on_empty_spaces():
    """An empty space has no point whose eigenvalue would check the factor, so
    both functions check every factor against the space's shape first."""
    empty = MockFormSpace(scalar_point(2).weight, ())
    with pytest.raises(ValueError, match=r"^cocharacter needs 1 entries, got 2$"):
        divisibility_check(empty, empty, 1, [AtkinLehnerFactor("p", (1, 0))], {})
    with pytest.raises(ValueError, match=r"^degree 5 exceeds the 1 Satake parameters$"):
        charpoly(empty, [SphericalFactor("v", 5)], {})
    # the constant is still checked first
    with pytest.raises(ValueError, match="the constant must be a positive integer"):
        divisibility_check(empty, empty, 0, [AtkinLehnerFactor("p", (1, 0))], {})


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


def test_integral_values_of_other_types_are_refused():
    """An integral float, a ``bool`` or an integral ``Fraction`` is not an integer; each
    used to be accepted and stored as the ``int`` it equals."""
    for build, message in (
        (
            lambda: AtkinLehnerFactor("p", (2.0, Fraction(1))),
            "cocharacter entries must be integers, got 2.0",
        ),
        (
            lambda: AtkinLehnerFactor("p", (2, Fraction(1))),
            "cocharacter entries must be integers, got Fraction(1, 1)",
        ),
        (lambda: _space(2.0), "multiplicities must be integers, got 2.0"),
        (lambda: _space(True), "multiplicities must be integers, got True"),
        (
            lambda: divisibility_check(_space(2), _space(1), 2.0, _FACTORS, {}),
            "the constant must be a positive integer, got 2.0",
        ),
        (
            lambda: divisibility_check(_space(2), _space(1), Fraction(1), _FACTORS, {}),
            "the constant must be a positive integer, got Fraction(1, 1)",
        ),
        (
            lambda: divisibility_check(_space(2), _space(1), True, _FACTORS, {}),
            "the constant must be a positive integer, got True",
        ),
        (lambda: SphericalFactor("v", True), "degree must be a positive integer, got True"),
        (lambda: constant_C(Fraction(4), [2, 3]), "dimensions must be positive integers"),
        (lambda: constant_C(True, [1]), "dimensions must be positive integers"),
        (lambda: constant_C(4, [2.0, 3]), "packet dimensions must be integers, got 2.0"),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError
        assert str(err.value) == message
    # the same values as ints are read as before
    assert AtkinLehnerFactor("p", (2, 1)).cochar == (2, 1)
    ((_, mult),) = _space(2).entries
    assert mult == 2
    assert divisibility_check(_space(2), _space(1), 2, _FACTORS, {})
    assert not divisibility_check(_space(2), _space(1), 1, _FACTORS, {})
    assert constant_C(4, [2, 3]) == 2
