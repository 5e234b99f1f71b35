"""Tests for block-partitioned Laurent polynomials over monomial coefficients."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from eigentransfer.errors import BlockMismatch, NotSymmetric
from eigentransfer.laurent import LaurentPoly, elementary_symmetric
from eigentransfer.monomial import ONE, Monomial, symbol
from eigentransfer.tori import GroupShape
from eigentransfer.transfer import TransferConfig, satake_transfer


def var(blocks, index, power=1):
    return LaurentPoly.variable(blocks, index, power)


def rand_poly(rng, blocks, nterms=4):
    n = sum(blocks)
    out = LaurentPoly.zero(blocks)
    for _ in range(nterms):
        exps = tuple(rng.randint(-2, 2) for _ in range(n))
        coeff = Monomial(
            Fraction(rng.randint(1, 5)),
            {"s": Fraction(rng.randint(-2, 2), rng.choice((1, 2)))},
        )
        out = out + LaurentPoly(blocks, {exps: coeff})
    return out


def test_construction_validation():
    with pytest.raises(ValueError):
        LaurentPoly(())
    with pytest.raises(ValueError):
        LaurentPoly((2, 0))
    with pytest.raises(ValueError):
        LaurentPoly((2,), {(1,): Monomial(1)})
    p = LaurentPoly((2, 1), {(1, 0, 0): Monomial(2)})
    assert p.blocks == (2, 1)
    assert p.n == 3


def test_constructor_collects_like_terms():
    blocks = (2,)
    p = var(blocks, 0) + var(blocks, 0)
    assert p == LaurentPoly(blocks, {(1, 0): Monomial(2)})
    assert (var(blocks, 0) - var(blocks, 0)).is_zero()
    # same exponent vector, different symbol parts: both summands survive
    q = LaurentPoly(blocks, {(1, 0): symbol("a")}) + LaurentPoly(blocks, {(1, 0): symbol("b")})
    assert q.coefficients((1, 0)) == (symbol("a"), symbol("b"))
    assert q.coefficients((0, 1)) == ()


def test_zero_one_constant_variable():
    blocks = (2, 1)
    assert LaurentPoly.zero(blocks).is_zero()
    assert not LaurentPoly.one(blocks).is_zero()
    assert LaurentPoly.one(blocks) == LaurentPoly.constant(blocks, 1)
    assert LaurentPoly.constant(blocks, Fraction(2, 3)) == LaurentPoly.constant(
        blocks, Monomial(Fraction(2, 3))
    )
    assert var(blocks, 2) == LaurentPoly(blocks, {(0, 0, 1): Monomial(1)})
    with pytest.raises(ValueError):
        var(blocks, 3)
    with pytest.raises(ValueError):
        var(blocks, -1)


def test_difference_of_squares():
    blocks = (2,)
    y1, y2 = var(blocks, 0), var(blocks, 1)
    assert (y1 + y2) * (y1 - y2) == y1 * y1 - y2 * y2


def test_laurent_inverse_variables():
    blocks = (3,)
    x = var(blocks, 1)
    xinv = var(blocks, 1, -1)
    assert x * xinv == LaurentPoly.one(blocks)
    assert (x + xinv) * x == x * x + LaurentPoly.one(blocks)


def test_ring_laws_random():
    rng = random.Random(31)
    blocks = (2, 1)
    zero, one = LaurentPoly.zero(blocks), LaurentPoly.one(blocks)
    for _ in range(25):
        p, q, r = (rand_poly(rng, blocks) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero == p
        assert p * one == p
        assert (p - p).is_zero()
        assert p * zero == zero


def test_powers():
    blocks = (2,)
    p = var(blocks, 0) + var(blocks, 1)
    assert p ** 0 == LaurentPoly.one(blocks)
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1
    with pytest.raises(ValueError):
        p ** Fraction(1, 2)


def test_scalar_and_monomial_multiplication():
    blocks = (2,)
    p = var(blocks, 0) + var(blocks, 1)
    assert 2 * p == p + p
    assert Fraction(1, 2) * (p + p) == p
    twisted = symbol("M") * p
    assert twisted.coefficients((1, 0)) == (symbol("M"),)
    assert twisted.coefficients((0, 1)) == (symbol("M"),)


def test_terms_are_deterministic():
    blocks = (2,)
    p = var(blocks, 1) + var(blocks, 0) + LaurentPoly(blocks, {(0, 1): symbol("a")})
    listed = list(p.terms())
    assert listed == sorted(listed, key=lambda item: item[0])
    assert [exps for exps, _ in listed] == [(0, 1), (0, 1), (1, 0)]
    assert p.coefficients((0, 1)) == (Monomial(1), symbol("a"))


def test_permute_variables():
    blocks = (3,)
    p = var(blocks, 0) + 2 * var(blocks, 1) + 3 * var(blocks, 2)
    ident = p.permute_variables((0, 1, 2))
    assert ident == p
    cycled = p.permute_variables((1, 2, 0))
    assert cycled == var(blocks, 1) + 2 * var(blocks, 2) + 3 * var(blocks, 0)
    # composition: renaming by pi then rho is renaming by their composite
    pi, rho = (2, 0, 1), (1, 2, 0)
    composite = tuple(rho[pi[u]] for u in range(3))
    assert p.permute_variables(pi).permute_variables(rho) == p.permute_variables(composite)
    with pytest.raises(ValueError):
        p.permute_variables((0, 0, 1))
    with pytest.raises(ValueError):
        p.permute_variables((0, 1))


def test_block_symmetry():
    assert (var((2,), 0) + var((2,), 1)).is_block_symmetric()
    assert not (var((2,), 0) + 2 * var((2,), 1)).is_block_symmetric()
    # singleton blocks impose no condition
    assert (var((1, 1), 0) + 2 * var((1, 1), 1)).is_block_symmetric()
    # mixed: symmetry is only required inside each block
    p = var((2, 1), 0) + var((2, 1), 1) + 5 * var((2, 1), 2)
    assert p.is_block_symmetric()
    assert not (p + var((2, 1), 0)).is_block_symmetric()


def test_block_symmetry_preserved_by_ring_ops():
    rng = random.Random(5)
    blocks = (2, 2)

    def symmetrize(p):
        total = LaurentPoly.zero(blocks)
        for pi0 in ((0, 1), (1, 0)):
            for pi1 in ((2, 3), (3, 2)):
                total = total + p.permute_variables(pi0 + pi1)
        return total

    for _ in range(10):
        p = symmetrize(rand_poly(rng, blocks))
        q = symmetrize(rand_poly(rng, blocks))
        assert p.is_block_symmetric()
        assert (p + q).is_block_symmetric()
        assert (p * q).is_block_symmetric()


def _permuting_is_block_symmetric(p):
    """Oracle: ``is_block_symmetric`` as it was before the term-table lookup, one
    permuted polynomial per adjacent transposition inside a block."""
    offset = 0
    for size in p.blocks:
        for j in range(size - 1):
            swap = list(range(p.n))
            swap[offset + j], swap[offset + j + 1] = swap[offset + j + 1], swap[offset + j]
            if p.permute_variables(swap) != p:
                return False
        offset += size
    return True


def _assert_symmetry_matches_oracle(p):
    expected = _permuting_is_block_symmetric(p)
    assert p.is_block_symmetric() is expected, p
    if len(p.blocks) == 1:  # satake_transfer refuses exactly the asymmetric inputs
        cfg = TransferConfig((p.n,), range(p.n), Fraction(1, 2))
        if expected:
            satake_transfer(p, cfg)
        else:
            with pytest.raises(NotSymmetric):
                satake_transfer(p, cfg)
    return expected


_SYMBOL_PARTS = ((), (("a", 1),), (("a", 2),), (("b", -1),), (("a", 1), ("b", 2)))
_A, _B = _SYMBOL_PARTS[1], _SYMBOL_PARTS[3]


def _block_orbit(blocks, exps):
    """Every exponent vector made from ``exps`` by permuting entries inside blocks."""
    parts, offset = [], 0
    for size in blocks:
        parts.append(set(permutations(exps[offset : offset + size])))
        offset += size
    return {sum(choice, ()) for choice in product(*parts)}


def _symmetrized(blocks, orbits):
    """The block-symmetric polynomial with coefficient ``c`` on the whole orbit of
    each ``(exps, symbol part, c)``."""
    terms = {}
    for exps, sym, coeff in orbits:
        for e in _block_orbit(blocks, exps):
            terms[e, sym] = coeff
    return terms


@st.composite
def _perturbed_symmetric_polys(draw):
    """A block-symmetric polynomial with symbol parts on up to five variables in up
    to three blocks, left as it is or with one term dropped, one coefficient
    changed, one term's symbol part changed, or one term added."""
    blocks = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    while sum(blocks) > 5:
        blocks = blocks[:-1]
    n = sum(blocks)
    orbits = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(-1, 2)] * n),
                st.sampled_from(_SYMBOL_PARTS),
                st.sampled_from((1, -2, Fraction(1, 3))),
            ),
            max_size=3,
        )
    )
    terms = _symmetrized(blocks, orbits)
    kind = draw(st.sampled_from(("none", "drop", "coefficient", "symbol part", "extra")))
    if kind == "extra" or not terms:
        exps = draw(st.tuples(*[st.integers(-1, 2)] * n))
        terms[exps, draw(st.sampled_from(_SYMBOL_PARTS))] = 5
    elif kind != "none":
        exps, sym = key = draw(st.sampled_from(sorted(terms)))
        if kind == "drop":
            del terms[key]
        elif kind == "coefficient":
            terms[key] *= 2
        else:
            other = draw(st.sampled_from([part for part in _SYMBOL_PARTS if part != sym]))
            terms[exps, other] = terms.pop(key)
    return LaurentPoly._raw(GroupShape(blocks), terms)


@settings(max_examples=400, derandomize=True, database=None)
@given(_perturbed_symmetric_polys())
def test_block_symmetry_matches_permuting_oracle(p):
    _assert_symmetry_matches_oracle(p)


def test_block_symmetry_lookup_cases():
    """One case per way the term-table lookup could go wrong, each against the oracle."""
    blocks = (3, 2)
    symmetric = _symmetrized(blocks, [((1, 0, 0, 2, 0), _A, 2), ((0, 0, 0, 1, 1), _B, -1)])
    cases = {"symmetric": (dict(symmetric), True)}
    dropped = dict(symmetric)
    del dropped[(0, 1, 0, 2, 0), _A]
    cases["one term dropped"] = (dropped, False)
    changed = dict(symmetric)
    changed[(0, 0, 1, 0, 2), _A] = 3
    cases["one coefficient changed"] = (changed, False)
    # x0 + x1 is fixed by the swap of x0 and x1 and moved only by the block's last pair
    first_two = {((1, 0, 0, 0, 0), ()): 1, ((0, 1, 0, 0, 0), ()): 1}
    cases["asymmetric in the last pair only"] = (first_two, False)
    cases["asymmetric in the second block only"] = ({((0, 0, 0, 1, 0), ()): 1}, False)
    shape = GroupShape(blocks)
    for name, (terms, expected) in cases.items():
        assert _assert_symmetry_matches_oracle(LaurentPoly._raw(shape, terms)) is expected, name
    # a * x0 + b * x1: the swap partner of each term has the right exponents and
    # coefficient but the other symbol part
    crossed = LaurentPoly._raw(GroupShape((2,)), {((1, 0), _A): 1, ((0, 1), _B): 1})
    assert _assert_symmetry_matches_oracle(crossed) is False
    assert _assert_symmetry_matches_oracle(
        LaurentPoly._raw(
            GroupShape((2,)), {((1, 0), _A): 1, ((0, 1), _A): 1, ((1, 0), _B): 1, ((0, 1), _B): 1}
        )
    )


def test_elementary_symmetric():
    blocks = (3,)
    e1 = elementary_symmetric(blocks, 1)
    assert e1 == var(blocks, 0) + var(blocks, 1) + var(blocks, 2)
    e3 = elementary_symmetric(blocks, 3)
    assert e3 == var(blocks, 0) * var(blocks, 1) * var(blocks, 2)
    assert elementary_symmetric(blocks, 0) == LaurentPoly.one(blocks)
    for degree in range(4):
        e = elementary_symmetric(blocks, degree)
        assert e.is_block_symmetric()
        assert len(list(e.terms())) == comb(3, degree)
    # block structure only labels the variables; the polynomial is fully symmetric
    assert elementary_symmetric((2, 1), 2).is_block_symmetric()
    with pytest.raises(ValueError):
        elementary_symmetric(blocks, 4)
    with pytest.raises(ValueError):
        elementary_symmetric(blocks, -1)


def test_block_mismatch():
    p = LaurentPoly.one((2,))
    q = LaurentPoly.one((1, 1))
    with pytest.raises(BlockMismatch):
        p + q
    with pytest.raises(BlockMismatch):
        p * q
    with pytest.raises(BlockMismatch):
        p - q
    assert p != q


def test_polynomials_hold_their_interned_shape():
    """Every constructor and ring operation keeps the one ``GroupShape`` of its blocks,
    and ``satake_transfer`` returns a polynomial on the config's source shape."""
    shape = GroupShape((2, 1))
    p = var((2, 1), 0) + LaurentPoly.constant([2, 1], 3)
    results = [
        p, -p, p - p, p * p, p * 2, p ** 2, p.permute_variables((1, 0, 2)),
        LaurentPoly.zero((2, 1)), LaurentPoly.one([2, 1]), elementary_symmetric((2, 1), 2),
    ]
    assert all(q._shape is shape for q in results)
    cfg = TransferConfig((1, 2), (1, 0, 2), "1/2")
    assert satake_transfer(elementary_symmetric((3,), 2), cfg)._shape is cfg.source
    assert "_blocks" not in LaurentPoly.__slots__


def test_constructors_read_their_blocks_once():
    """``one``, ``constant``, ``variable`` and ``elementary_symmetric`` read their blocks
    once, so an iterator serves them as it serves the constructor, and each stores the
    terms the constructor stores for the same monomials."""
    blocks = (2, 1)
    built = [
        (LaurentPoly.one(iter(blocks)), {(0, 0, 0): Monomial(1)}),
        (LaurentPoly.constant(iter(blocks), "3/2"), {(0, 0, 0): Monomial("3/2")}),
        (LaurentPoly.variable(iter(blocks), 2, -1), {(0, 0, -1): Monomial(1)}),
        (elementary_symmetric(iter(blocks), 2), dict.fromkeys(((1, 1, 0), (1, 0, 1), (0, 1, 1)), ONE)),
    ]
    for poly, terms in built:
        expected = LaurentPoly(blocks, terms)
        assert poly == expected and str(poly) == str(expected)
        assert [type(c) for c in poly._terms.values()] == [type(c) for c in expected._terms.values()]


def test_str():
    blocks = (2,)
    assert str(LaurentPoly.zero(blocks)) == "0"
    p = symbol("a") * var(blocks, 0) + var(blocks, 1, -2)
    assert str(p) == "1 * x1^-2 + 1 * a * x0"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LaurentPoly((1.5,)), "group shape blocks must be integers, got 1.5"),
        (lambda: LaurentPoly.constant((2, 0.5), 3), "group shape blocks must be integers, got 0.5"),
        # the variable count comes from the blocks, so they are checked before the index
        (lambda: LaurentPoly.variable((1.5,), 1), "group shape blocks must be integers, got 1.5"),
        (lambda: elementary_symmetric((1.5,), 2), "group shape blocks must be integers, got 1.5"),
        (lambda: LaurentPoly((1,), {(1.5,): Monomial(1)}), "exponents must be integers, got 1.5"),
        (lambda: var((2,), 0).coefficients((0.5, 0)), "exponents must be integers, got 0.5"),
        (
            lambda: var((2,), 0).permute_variables((1.2, 0)),
            "permutation entries must be integers, got 1.2",
        ),
        (
            lambda: LaurentPoly((2, 0)),
            "a group shape needs at least one block, all of positive size",
        ),
        # scalar arguments follow the same rule: these raised TypeError or were accepted
        (lambda: elementary_symmetric((3,), 1.5), "degrees must be integers, got 1.5"),
        (lambda: elementary_symmetric((3,), True), "degrees must be integers, got True"),
        (lambda: LaurentPoly.variable((2,), "0"), "variable indices must be integers, got '0'"),
        (lambda: LaurentPoly.variable((2,), 1.0), "variable indices must be integers, got 1.0"),
        (lambda: var((2,), 0) ** True, "powers must be integers, got True"),
    ],
    # a block case is named by its message without the ``group shape `` prefix
    ids=lambda v: v.removeprefix("group shape ") if isinstance(v, str) else None,
)
def test_non_integral_values_are_refused(build, message):
    """Blocks and exponents used to be truncated by ``int``: ``(1.5,)`` became ``(1,)``."""
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_integral_values_of_other_types_are_refused():
    """An integral float, a ``bool`` or an integral ``Fraction`` is not an integer; each
    used to be accepted and stored as the ``int`` it equals."""
    p = 3 * var((2,), 0)
    for build, message in (
        (
            lambda: LaurentPoly((2.0,), {(1, 0): Monomial(3)}),
            "group shape blocks must be integers, got 2.0",
        ),
        (lambda: LaurentPoly((True, 1)), "group shape blocks must be integers, got True"),
        (
            lambda: LaurentPoly((2,), {(1, Fraction(0)): Monomial(3)}),
            "exponents must be integers, got Fraction(0, 1)",
        ),
        (lambda: p.coefficients((1.0, 0)), "exponents must be integers, got 1.0"),
        (lambda: p.permute_variables((1.0, 0)), "permutation entries must be integers, got 1.0"),
        (lambda: p.permute_variables((True, 0)), "permutation entries must be integers, got True"),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError
        assert str(err.value) == message
    # the same values as ints are read as before
    assert LaurentPoly((2,), {(1, 0): Monomial(3)}) == p
    assert p.coefficients((1, 0)) == (Monomial(3),)
    assert p.permute_variables((1, 0)) == 3 * var((2,), 1)
