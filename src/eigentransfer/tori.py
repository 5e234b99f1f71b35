"""Diagonal tori of products of general linear blocks over a p-adic field.

A :class:`GroupShape` records the block sizes ``(n_1, ..., n_r)`` of a product
of general linear groups; positions are flattened to ``0..n-1`` with block
``i`` occupying ``offsets[i] .. offsets[i]+n_i-1``.  Shapes are interned, one
object per block tuple, and each stores the torus data that depends on the
shape alone (``n``, offsets, flat positions, in-block neighbours, the
half-modulus values, and per position the twist parity and doubled weight-shift
base that the transfer to one block of size ``n`` reads) as plain attributes, so
that data is built once per process; the dominant generators are cached per
shape, and shapes are compared by identity.
Unramified characters of the diagonal torus are stored through their values
on the basis cocharacters ``e_p`` (the coordinate maps ``x -> diag(1,..,x,..,1)``
evaluated at the uniformizer), which are exact monomial values.  Algebraic
weights are integer exponent vectors; as characters they take the value
``W^k`` on ``e_p``, ``W`` being the formal uniformizer symbol.

The half modulus character of the upper-triangular Borel is computed from
``|uniformizer| = q^(-1)``: on a block of size ``m`` the full modulus takes
``e_j`` (1-based ``j``) to ``q^-(m+1-2j)``.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate

from ._frozen import Derived, FrozenValue, _set
from .errors import ShapeMismatch
from .monomial import Monomial, ONE, RESIDUE_SYMBOL, UNIFORMIZER_SYMBOL, _half_power, _integers

__all__ = [
    "GroupShape",
    "CocharVector",
    "UnramifiedCharacter",
    "AlgebraicWeight",
    "modulus_half",
    "weight_as_character",
]

# every shape made so far, by its blocks; see GroupShape
_SHAPES: dict[tuple[int, ...], GroupShape] = {}
_POSITION_TABLES = (
    "_positions",
    "_neighbours",
    "_modulus_half_doubled",
    "_modulus_half_values",
    "_twist_parity",
    "_shift_base_doubled",
)


class GroupShape(Derived, FrozenValue):
    """Ordered block sizes of a product of general linear groups.

    Shapes are interned: equal block tuples give one object, which stores its
    tables as plain attributes.  ``n``, ``r`` and the block ``offsets`` are
    stored when it is first made; the tables of one entry per flat position
    (the ``(block, entry)`` pair of each position, the flat pairs ``(p, p + 1)``
    that lie in one block, the half modulus, the twist parity ``(n - n_i) % 2`` and
    the doubled shift base ``n_i - n + 2·offset_i`` of the position's block ``i``)
    are stored together on the first read of any of them, since ``n`` is not
    bounded by the size of the input that names the shape.  So each table is built at most once per
    process, and shapes compare by identity where the library checks them.  The blocks pass the exactness rule before the
    lookup, since ``(True, 2)`` and ``(1.0, 2)`` hash and compare equal to
    ``(1, 2)``.  The table keeps every shape it makes and evicts none: a process
    sees few shapes (one CLI job one or two, the ``n <= 5`` family 31).
    """

    _fields = ("blocks",)

    def __new__(cls, blocks: Iterable[int]) -> "GroupShape":
        blocks = _integers(blocks, "group shape blocks")
        shape = _SHAPES.get(blocks)
        if shape is None:
            if not blocks or any(b < 1 for b in blocks):
                raise ValueError("a group shape needs at least one block, all of positive size")
            shape = object.__new__(cls)
            _set(shape, "blocks", blocks)
            _set(shape, "n", sum(blocks))
            _set(shape, "r", len(blocks))
            _set(shape, "offsets", tuple(accumulate(blocks[:-1], initial=0)))
            # of two threads that build one shape, both keep the one stored first
            shape = _SHAPES.setdefault(blocks, shape)
        return shape

    def _build_positions(self) -> None:
        # a shape's n comes unbounded from its input, so the tables of one entry per
        # flat position are built on the first read of any of them, not when interned
        blocks = self.blocks
        positions = tuple((i, j) for i, b in enumerate(blocks) for j in range(b))
        neighbours = tuple((p, p + 1) for p, (i, j) in enumerate(positions) if j + 1 < blocks[i])
        # twice the q exponent of the half modulus at 0-based entry j of a block of
        # size m: -(m + 1 - 2(j + 1))
        doubled = tuple(-(blocks[i] + 1 - 2 * (j + 1)) for i, j in positions)
        # values and their inverses only: modulus_half makes a fresh character on each call
        values = tuple(
            tuple(_half_power(RESIDUE_SYMBOL, sign * d) for d in doubled) for sign in (1, -1)
        )
        # the transfer to the single block of size n: the twist parity (n - n_i) % 2 and
        # the doubled weight-shift base n_i - n + 2·offset_i of the position's block i
        n, offsets = self.n, self.offsets
        parity = tuple((n - blocks[i]) % 2 for i, _ in positions)
        shift_base = tuple(blocks[i] - n + 2 * offsets[i] for i, _ in positions)
        _set(self, "_positions", positions)
        _set(self, "_neighbours", neighbours)
        _set(self, "_modulus_half_doubled", doubled)
        _set(self, "_modulus_half_values", values)
        _set(self, "_twist_parity", parity)
        _set(self, "_shift_base_doubled", shift_base)

    _builders = dict.fromkeys(_POSITION_TABLES, _build_positions)

    def _block_index(self, i: int) -> int:
        """``i`` when it indexes a block of the shape, else ``ValueError``: the one check
        of every method that takes a block index."""
        _integers((i,), "block indices")
        if not 0 <= i < self.r:
            raise ValueError(f"no block {i} in shape {self.blocks}")
        return i

    def block_of(self, p: int) -> tuple[int, int]:
        """Block index and 0-based position within the block of flat position ``p``."""
        _integers((p,), "positions")
        if not 0 <= p < self.n:
            raise ValueError(f"position {p} out of range")
        return self._positions[p]

    def flat(self, i: int, j: int) -> int:
        """Flat position of the 0-based ``j``-th entry of block ``i``."""
        _integers((i, j), "positions")
        if not 0 <= i < self.r or not 0 <= j < self.blocks[i]:
            raise ValueError(f"no position ({i}, {j}) in shape {self.blocks}")
        return self.offsets[i] + j

    def block_range(self, i: int) -> range:
        """The flat positions of block ``i``."""
        start = self.offsets[self._block_index(i)]
        return range(start, start + self.blocks[i])

    def __str__(self) -> str:
        return "(" + ",".join(str(b) for b in self.blocks) + ")"


def _check_shape(a, b) -> None:
    if a.shape is not b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")


class CocharVector(FrozenValue):
    """Integer cocharacter of the diagonal torus, in flat coordinates."""

    __slots__ = _fields = ("shape", "exps")

    def __init__(self, shape: GroupShape, exps: Iterable[int]) -> None:
        exps = _integers(exps, "cocharacter entries")
        if len(exps) != shape.n:
            raise ValueError(f"cocharacter needs {shape.n} entries, got {len(exps)}")
        _set(self, "shape", shape)
        _set(self, "exps", exps)

    @classmethod
    def zero(cls, shape: GroupShape) -> "CocharVector":
        return cls(shape, (0,) * shape.n)

    @classmethod
    def basis(cls, shape: GroupShape, p: int) -> "CocharVector":
        shape.block_of(p)  # the shape's one position check
        return cls(shape, tuple(1 if u == p else 0 for u in range(shape.n)))

    def is_antidominant(self) -> bool:
        """Weakly decreasing within each block: the contracting monoid of the torus."""
        exps = self.exps
        return all(exps[p] >= exps[q] for p, q in self.shape._neighbours)

    def __add__(self, other):
        if not isinstance(other, CocharVector):
            return NotImplemented
        _check_shape(self, other)
        return CocharVector(self.shape, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __neg__(self) -> "CocharVector":
        return CocharVector(self.shape, tuple(-e for e in self.exps))


class UnramifiedCharacter(FrozenValue):
    """Unramified character of the torus, stored by its values on basis cocharacters."""

    __slots__ = _fields = ("shape", "values")

    def __init__(self, shape: GroupShape, values: Iterable[Monomial]) -> None:
        values = tuple(values)
        if len(values) != shape.n:
            raise ValueError(f"character needs {shape.n} values, got {len(values)}")
        if not all(isinstance(v, Monomial) for v in values):
            raise ValueError("character values must be Monomial instances")
        _set(self, "shape", shape)
        _set(self, "values", values)

    @classmethod
    def _new(cls, shape: GroupShape, values: tuple[Monomial, ...]) -> "UnramifiedCharacter":
        """Unvalidated constructor: ``values`` is a tuple of ``shape.n`` Monomials."""
        chi = _new_object(cls)
        _set_shape(chi, shape)
        _set_values(chi, values)
        return chi

    @classmethod
    def trivial(cls, shape: GroupShape) -> "UnramifiedCharacter":
        return cls(shape, (ONE,) * shape.n)

    def value(self, i: int, j: int) -> Monomial:
        """Value on the basis cocharacter at block ``i``, 0-based entry ``j``."""
        return self.values[self.shape.flat(i, j)]

    def __mul__(self, other):
        if not isinstance(other, UnramifiedCharacter):
            return NotImplemented
        _check_shape(self, other)
        return UnramifiedCharacter._new(
            self.shape, tuple(a * b for a, b in zip(self.values, other.values))
        )

    def inverse(self) -> "UnramifiedCharacter":
        return UnramifiedCharacter._new(self.shape, tuple(v.inverse() for v in self.values))

    def eval(self, cochar: CocharVector) -> Monomial:
        """Value on an arbitrary cocharacter, by multiplicativity.

        The product starts from the first factor with a nonzero exponent, and an
        exponent of 1 takes the value itself; ``ONE`` is the value at zero.
        """
        _check_shape(self, cochar)
        out = None
        for v, e in zip(self.values, cochar.exps):
            if e:
                factor = v if e == 1 else v ** e
                out = factor if out is None else out * factor
        return ONE if out is None else out


# the slots' own setters, bound once, for ``UnramifiedCharacter._new``
_new_object = object.__new__
_set_shape = UnramifiedCharacter.shape.__set__
_set_values = UnramifiedCharacter.values.__set__


class AlgebraicWeight(FrozenValue):
    """Integer character of the torus, in flat coordinates."""

    __slots__ = _fields = ("shape", "exps")

    def __init__(self, shape: GroupShape, exps: Iterable[int]) -> None:
        exps = _integers(exps, "weight entries")
        if len(exps) != shape.n:
            raise ValueError(f"weight needs {shape.n} entries, got {len(exps)}")
        _set(self, "shape", shape)
        _set(self, "exps", exps)

    @classmethod
    def _new(cls, shape: GroupShape, exps: tuple[int, ...]) -> "AlgebraicWeight":
        """Unvalidated constructor: ``exps`` is a tuple of ``shape.n`` ints."""
        weight = _new_object(cls)
        _set(weight, "shape", shape)
        _set(weight, "exps", exps)
        return weight

    def classify(self) -> str:
        """``"regular"`` (strictly decreasing per block), ``"dominant"`` (weakly), or ``"neither"``."""
        exps, strict = self.exps, True
        for p, q in self.shape._neighbours:
            if exps[p] < exps[q]:
                return "neither"
            strict = strict and exps[p] > exps[q]
        return "regular" if strict else "dominant"

    def is_dominant(self) -> bool:
        return self.classify() != "neither"


def modulus_half(shape: GroupShape, sign: int) -> UnramifiedCharacter:
    """The half power (``sign=+1``) or inverse half power (``sign=-1``) of the Borel modulus."""
    _integers((sign,), "signs")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return UnramifiedCharacter._new(shape, shape._modulus_half_values[0 if sign == 1 else 1])


def weight_as_character(weight: AlgebraicWeight) -> UnramifiedCharacter:
    """The weight as an unramified character: ``W^k`` on each basis cocharacter."""
    return UnramifiedCharacter._new(
        weight.shape,
        tuple(_half_power(UNIFORMIZER_SYMBOL, 2 * k) for k in weight.exps),
    )
