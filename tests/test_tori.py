"""Tests for group shapes, torus characters, weights, and the modulus character."""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from eigentransfer.errors import ShapeMismatch
from eigentransfer.monomial import Monomial, ONE, symbol
from eigentransfer.tori import (
    _SHAPES,
    AlgebraicWeight,
    CocharVector,
    GroupShape,
    UnramifiedCharacter,
    modulus_half,
    weight_as_character,
)
from eigentransfer.transfer import dominant_generators

SRC = Path(__file__).resolve().parents[1] / "src"


def test_group_shape_basics():
    shape = GroupShape((2, 3, 1))
    assert shape.n == 6
    assert shape.r == 3
    assert shape.offsets == (0, 2, 5)
    assert str(shape) == "(2,3,1)"
    assert list(shape.block_range(1)) == [2, 3, 4]


def test_group_shape_flat_block_round_trip():
    shape = GroupShape((2, 3, 1))
    for p in range(shape.n):
        i, j = shape.block_of(p)
        assert shape.flat(i, j) == p
    assert shape.block_of(0) == (0, 0)
    assert shape.block_of(4) == (1, 2)
    assert shape.block_of(5) == (2, 0)
    with pytest.raises(ValueError):
        shape.block_of(6)
    with pytest.raises(ValueError):
        shape.flat(0, 2)
    with pytest.raises(ValueError):
        shape.flat(3, 0)


def test_group_shape_validation():
    with pytest.raises(ValueError):
        GroupShape(())
    with pytest.raises(ValueError):
        GroupShape((2, 0))
    with pytest.raises(ValueError):
        GroupShape((-1,))
    assert GroupShape((1,)) == GroupShape((1,))
    assert GroupShape((2, 1)) != GroupShape((1, 2))


def test_equal_blocks_give_one_shape():
    shape = GroupShape((2, 3))
    assert GroupShape([2, 3]) is shape and GroupShape(iter((2, 3))) is shape
    assert copy.copy(shape) is shape and copy.deepcopy(shape) is shape
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(shape, protocol)) is shape
    assert _SHAPES[(2, 3)] is shape
    # the tables hang off the one object, and so do the dominant generators
    assert GroupShape((2, 3)).offsets is shape.offsets
    assert dominant_generators(shape) is dominant_generators(GroupShape(list(shape.blocks)))


def test_interned_blocks_do_not_admit_inexact_equals():
    """``(True, 2)`` and ``(1.0, 2)`` hash and compare equal to ``(1, 2)``: the
    exactness rule runs before the table is read, so an interned ``(1, 2)`` lets
    none of them through, and a refused shape leaves no entry."""
    for blocks in ((1, 2), (2,), (2, 1)):
        GroupShape(blocks)
    for blocks, bad in (
        ((True, 2), "True"),
        ((1.0, 2), "1.0"),
        ((Fraction(2),), "Fraction(2, 1)"),
        ((2, True), "True"),
    ):
        with pytest.raises(ValueError) as err:
            GroupShape(blocks)
        assert type(err.value) is ValueError
        assert str(err.value) == f"group shape blocks must be integers, got {bad}"
    for blocks in ((), (1, 0)):
        with pytest.raises(ValueError) as err:
            GroupShape(blocks)
        assert str(err.value) == "a group shape needs at least one block, all of positive size"
        assert blocks not in _SHAPES


def test_family_run_interns_one_shape_per_block_tuple():
    """A fresh process that builds all 2,532 configs of the n <= 5 family and runs
    both verifier calls and both half moduli on each holds exactly its 31 shapes."""
    script = """
import json
from eigentransfer.tori import _SHAPES, GroupShape, modulus_half
from eigentransfer.transfer import (
    TransferConfig, block_order_preserving_permutations, verify_transfer_compatibility)

def compositions(n):
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for tail in compositions(n - head):
            yield (head,) + tail

configs = 0
for n in range(1, 6):
    for blocks in compositions(n):
        for sigma in block_order_preserving_permutations(GroupShape(blocks)):
            for alpha in ("1/2", "-1/2", "3/2", "-3/2"):
                cfg = TransferConfig(blocks, sigma, alpha)
                verify_transfer_compatibility(cfg)
                verify_transfer_compatibility(cfg, drop_normalization=True)
                modulus_half(cfg.source, 1)
                modulus_half(cfg.target, -1)
                configs += 1
print(json.dumps([configs, sorted(_SHAPES)]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    configs, shapes = json.loads(proc.stdout)
    assert configs == 2532
    family = sorted(list(b) for n in range(1, 6) for b in _compositions(n))
    assert len(shapes) <= 31 and shapes == family


def test_cochar_vector():
    shape = GroupShape((2, 1))
    zero = CocharVector.zero(shape)
    assert zero.exps == (0, 0, 0)
    e1 = CocharVector.basis(shape, 0)
    assert e1.exps == (1, 0, 0)
    assert (e1 + CocharVector.basis(shape, 2)).exps == (1, 0, 1)
    assert (-e1).exps == (-1, 0, 0)
    with pytest.raises(ValueError):
        CocharVector(shape, (1, 0))
    with pytest.raises(ValueError):
        CocharVector.basis(shape, 3)
    with pytest.raises(ShapeMismatch):
        e1 + CocharVector.zero(GroupShape((3,)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GroupShape((2, 1.5)), "group shape blocks must be integers, got 1.5"),
        (lambda: GroupShape(("2",)), "group shape blocks must be integers, got '2'"),
        (
            lambda: CocharVector(GroupShape((2,)), (1, Fraction(1, 2))),
            "cocharacter entries must be integers, got Fraction(1, 2)",
        ),
        (
            lambda: AlgebraicWeight(GroupShape((1, 1)), (2.7, "0")),
            "weight entries must be integers, got 2.7",
        ),
        (
            lambda: AlgebraicWeight(GroupShape((1, 1)), (2, "0")),
            "weight entries must be integers, got '0'",
        ),
        # scalar arguments follow the same rule: these raised TypeError or were accepted
        (lambda: CocharVector.basis(GroupShape((2,)), "1"), "positions must be integers, got '1'"),
        (lambda: CocharVector.basis(GroupShape((2,)), 1.0), "positions must be integers, got 1.0"),
        (lambda: GroupShape((2,)).block_of(1.0), "positions must be integers, got 1.0"),
        (lambda: GroupShape((2,)).flat(0, 1.0), "positions must be integers, got 1.0"),
        (lambda: modulus_half(GroupShape((2,)), True), "signs must be integers, got True"),
    ],
)
def test_non_integral_entries_are_refused(build, message):
    """Entries with ``int(x) != x`` used to be truncated silently by ``int``."""
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_integral_entries_of_other_types_are_refused():
    """An integral float, a ``bool`` or an integral ``Fraction`` is not an integer; each
    used to be accepted and stored as the ``int`` it equals."""
    for build, message in (
        (lambda: GroupShape((2.0, 3)), "group shape blocks must be integers, got 2.0"),
        (
            lambda: GroupShape((2, Fraction(3))),
            "group shape blocks must be integers, got Fraction(3, 1)",
        ),
        (lambda: GroupShape((True, 1)), "group shape blocks must be integers, got True"),
        (
            lambda: CocharVector(GroupShape((2,)), (Fraction(4, 2), 1)),
            "cocharacter entries must be integers, got Fraction(2, 1)",
        ),
        (
            lambda: CocharVector(GroupShape((2,)), (2, True)),
            "cocharacter entries must be integers, got True",
        ),
        (
            lambda: AlgebraicWeight(GroupShape((1, 1)), (2, -0.0)),
            "weight entries must be integers, got -0.0",
        ),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError
        assert str(err.value) == message
    # the same values as ints are read as before
    assert GroupShape((2, 3)).blocks == (2, 3)
    assert CocharVector(GroupShape((2,)), (2, 1)).exps == (2, 1)
    assert AlgebraicWeight(GroupShape((1, 1)), (2, 0)).exps == (2, 0)


def test_cochar_antidominance():
    shape = GroupShape((2, 1))
    assert CocharVector(shape, (3, 1, 5)).is_antidominant()
    assert CocharVector(shape, (2, 2, -7)).is_antidominant()
    assert not CocharVector(shape, (1, 3, 0)).is_antidominant()
    # singleton blocks impose no condition
    ones = GroupShape((1, 1, 1))
    assert CocharVector(ones, (0, 5, -2)).is_antidominant()


def test_unramified_character_basics():
    shape = GroupShape((1, 2))
    chi = UnramifiedCharacter(shape, (symbol("a"), symbol("b"), symbol("c")))
    assert chi.value(0, 0) == symbol("a")
    assert chi.value(1, 1) == symbol("c")
    assert UnramifiedCharacter.trivial(shape).values == (ONE, ONE, ONE)
    with pytest.raises(ValueError):
        UnramifiedCharacter(shape, (symbol("a"), symbol("b")))
    with pytest.raises(ValueError):
        UnramifiedCharacter(shape, (symbol("a"), symbol("b"), "c"))


def test_character_group_operations():
    shape = GroupShape((2,))
    chi = UnramifiedCharacter(shape, (symbol("a"), Monomial(2, {"b": 1})))
    psi = UnramifiedCharacter(shape, (symbol("a", -1), symbol("b")))
    prod = chi * psi
    assert prod.values == (ONE, Monomial(2, {"b": 2}))
    assert (chi * chi.inverse()).values == (ONE, ONE)
    with pytest.raises(ShapeMismatch):
        chi * UnramifiedCharacter.trivial(GroupShape((1, 1)))


def test_character_eval():
    shape = GroupShape((2, 1))
    chi = UnramifiedCharacter(shape, (symbol("a"), symbol("b"), Monomial(3)))
    assert chi.eval(CocharVector.zero(shape)) == ONE
    for p in range(shape.n):
        assert chi.eval(CocharVector.basis(shape, p)) == chi.values[p]
    t = CocharVector(shape, (2, -1, 1))
    assert chi.eval(t) == Monomial(3, {"a": 2, "b": -1})
    with pytest.raises(ShapeMismatch):
        chi.eval(CocharVector.zero(GroupShape((3,))))


def _product_from_one(chi, cochar):
    """Oracle: ``UnramifiedCharacter.eval`` as it was, a product started from ``ONE``
    with every factor raised to its exponent."""
    out = ONE
    for v, e in zip(chi.values, cochar.exps):
        if e:
            out = out * v ** e
    return out


def test_character_eval_matches_product_from_one():
    """Every cocharacter with entries in [-2, 2], the zero one included, on values
    with ``Fraction`` and integer coefficients, half-integer exponents and ``ONE``."""
    shape = GroupShape((2, 1))
    characters = [
        (Monomial(Fraction(-3, 2), {"a": Fraction(1, 2)}), Monomial(Fraction(2, 5)), ONE),
        (
            Monomial(7, {"q": -1, "W": Fraction(3, 2)}),
            Monomial(-1),
            Monomial(Fraction(1, 4), {"q": 2}),
        ),
        (ONE, ONE, ONE),
    ]
    for values in characters:
        chi = UnramifiedCharacter(shape, values)
        for exps in product(range(-2, 3), repeat=3):
            value = chi.eval(CocharVector(shape, exps))
            expected = _product_from_one(chi, CocharVector(shape, exps))
            assert type(value) is Monomial
            assert (value, type(value._coeff)) == (expected, type(expected._coeff)), (values, exps)
            if not any(exps):
                assert value == ONE


def test_character_eval_is_bilinear():
    rng = random.Random(11)
    shape = GroupShape((2, 2))
    for _ in range(50):
        chi = UnramifiedCharacter(
            shape,
            tuple(
                Monomial(rng.randint(1, 5), {"a": rng.randint(-2, 2)})
                for _ in range(shape.n)
            ),
        )
        psi = UnramifiedCharacter(
            shape,
            tuple(
                Monomial(1, {"b": Fraction(rng.randint(-3, 3), 2)})
                for _ in range(shape.n)
            ),
        )
        t1 = CocharVector(shape, tuple(rng.randint(-2, 2) for _ in range(shape.n)))
        t2 = CocharVector(shape, tuple(rng.randint(-2, 2) for _ in range(shape.n)))
        assert chi.eval(t1 + t2) == chi.eval(t1) * chi.eval(t2)
        assert (chi * psi).eval(t1) == chi.eval(t1) * psi.eval(t1)
        assert chi.inverse().eval(t1) == chi.eval(t1).inverse()


def test_weight_classification():
    shape = GroupShape((2, 1))
    assert AlgebraicWeight(shape, (5, 3, 2)).classify() == "regular"
    assert AlgebraicWeight(shape, (3, 3, 1)).classify() == "dominant"
    assert AlgebraicWeight(shape, (1, 2, 0)).classify() == "neither"
    assert AlgebraicWeight(shape, (1, 2, 0)).is_dominant() is False
    assert AlgebraicWeight(shape, (3, 3, 1)).is_dominant() is True
    # singleton blocks are always regular
    ones = GroupShape((1, 1))
    assert AlgebraicWeight(ones, (0, 7)).classify() == "regular"
    with pytest.raises(ValueError):
        AlgebraicWeight(shape, (1, 2))


def test_modulus_half_anchors():
    q = lambda e: Monomial(1, {"q": e})
    assert modulus_half(GroupShape((2,)), 1).values == (q(Fraction(-1, 2)), q(Fraction(1, 2)))
    assert modulus_half(GroupShape((2,)), -1).values == (q(Fraction(1, 2)), q(Fraction(-1, 2)))
    assert modulus_half(GroupShape((2, 1)), 1).values == (
        q(Fraction(-1, 2)),
        q(Fraction(1, 2)),
        ONE,
    )
    assert modulus_half(GroupShape((3,)), 1).values == (q(-1), ONE, q(1))
    assert modulus_half(GroupShape((1,)), 1).values == (ONE,)
    with pytest.raises(ValueError):
        modulus_half(GroupShape((2,)), 0)
    with pytest.raises(ValueError):
        modulus_half(GroupShape((2,)), 2)


def test_modulus_half_structure():
    for blocks in [(1,), (4,), (2, 3), (1, 1, 2)]:
        shape = GroupShape(blocks)
        half = modulus_half(shape, 1)
        inv = modulus_half(shape, -1)
        assert (half * inv).values == (ONE,) * shape.n
        # the determinant of each block is unimodular: exponents sum to zero blockwise
        for i in range(shape.r):
            prod = ONE
            for p in shape.block_range(i):
                prod = prod * half.values[p]
            assert prod == ONE


def test_weight_as_character():
    shape = GroupShape((1, 1))
    kappa = AlgebraicWeight(shape, (2, 0))
    chi = weight_as_character(kappa)
    assert chi.values == (Monomial(1, {"W": 2}), ONE)
    assert chi.eval(CocharVector(shape, (1, 1))) == Monomial(1, {"W": 2})
    assert chi.eval(CocharVector(shape, (-1, 3))) == Monomial(1, {"W": -2})
    neg = AlgebraicWeight(GroupShape((2,)), (-1, 3))
    assert weight_as_character(neg).values == (
        Monomial(1, {"W": -1}),
        Monomial(1, {"W": 3}),
    )


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_cached_torus_data_matches_closed_formulas():
    """Every shape with n <= 6: ``block_of`` and both half moduli against the formulas."""
    for n in range(1, 7):
        for blocks in _compositions(n):
            shape = GroupShape(blocks)
            scan = [(i, j) for i, m in enumerate(blocks) for j in range(m)]
            assert [shape.block_of(p) for p in range(n)] == scan
            for sign in (1, -1):
                # e_j (1-based j) of a block of size m goes to q^(-sign (m + 1 - 2j) / 2)
                expected = tuple(
                    Monomial(1, {"q": Fraction(-sign * (blocks[i] + 1 - 2 * (j + 1)), 2)})
                    for i, j in scan
                )
                assert modulus_half(shape, sign).values == expected
                assert modulus_half(shape, sign).values is modulus_half(shape, sign).values
            with pytest.raises(ValueError):
                shape.block_of(n)
            with pytest.raises(ValueError):
                shape.block_of(-1)


def _walk_is_antidominant(cochar):
    """Oracle: ``is_antidominant`` before the per-shape neighbour table, one list per block."""
    for i in range(cochar.shape.r):
        block = [cochar.exps[p] for p in cochar.shape.block_range(i)]
        if any(block[j] < block[j + 1] for j in range(len(block) - 1)):
            return False
    return True


def _walk_classify(weight):
    """Oracle: ``classify`` before the per-shape neighbour table, one list per block."""
    strict = True
    for i in range(weight.shape.r):
        block = [weight.exps[p] for p in weight.shape.block_range(i)]
        for j in range(len(block) - 1):
            if block[j] < block[j + 1]:
                return "neither"
            if block[j] == block[j + 1]:
                strict = False
    return "regular" if strict else "dominant"


def _entry_vectors(n, rng):
    """Every vector in [-2, 2]^n for n <= 5 (every pattern of ties and descents);
    for n = 6, 1,500 seeded draws per shape instead of 15,625, to keep the test short."""
    if n <= 5:
        return product(range(-2, 3), repeat=n)
    return (tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(1500))


def test_neighbour_table_matches_block_walks():
    """Every shape with n <= 6, entries in [-2, 2], against the per-block walks."""
    rng = random.Random(6)
    verdicts = set()
    for n in range(1, 7):
        for blocks in _compositions(n):
            shape = GroupShape(blocks)
            for exps in _entry_vectors(n, rng):
                weight = AlgebraicWeight(shape, exps)
                verdict = weight.classify()
                assert verdict == _walk_classify(weight), weight
                cochar = CocharVector(shape, exps)
                assert cochar.is_antidominant() == _walk_is_antidominant(cochar), cochar
                verdicts.add((verdict, cochar.is_antidominant()))
            assert shape._neighbours is shape._neighbours
    assert verdicts == {("regular", True), ("dominant", True), ("neither", False)}
