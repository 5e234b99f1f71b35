"""Diagonal tori of products of general linear blocks over a p-adic field.

A :class:`GroupShape` records the block sizes ``(n_1, ..., n_r)`` of a product
of general linear groups; positions are flattened to ``0..n-1`` with block
``i`` occupying ``offsets[i] .. offsets[i]+n_i-1``.  Unramified characters of
the diagonal torus are stored through their values on the basis cocharacters
``e_p`` (the coordinate maps ``x -> diag(1,..,x,..,1)`` evaluated at the
uniformizer), which are exact monomial values.  Algebraic weights are integer
exponent vectors; as characters they take the value ``W^k`` on ``e_p``,
``W`` being the formal uniformizer symbol.

The half modulus character of the upper-triangular Borel is computed from
``|uniformizer| = q^(-1)``: on a block of size ``m`` the full modulus takes
``e_j`` (1-based ``j``) to ``q^-(m+1-2j)``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from ._frozen import FrozenValue, _set
from .errors import ShapeMismatch
from .monomial import Monomial, ONE, RESIDUE_SYMBOL, UNIFORMIZER_SYMBOL, _half_power

__all__ = [
    "GroupShape",
    "CocharVector",
    "UnramifiedCharacter",
    "AlgebraicWeight",
    "modulus_half",
    "weight_as_character",
]


def _integer(x: object) -> int | None:
    """``int(x)`` when it equals ``x``; ``None`` when it does not or ``int`` refuses ``x``."""
    try:
        k = int(x)
    except (TypeError, ValueError, OverflowError):  # None, NaN or "abc", infinity
        return None
    return k if k == x else None


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, refusing any entry that ``_integer`` refuses."""
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        bad = next(x for x in values if _integer(x) is None)
        raise ValueError(f"{what} must be integers, got {bad!r}")
    return ints


class GroupShape(FrozenValue):
    """Ordered block sizes of a product of general linear groups."""

    _fields = ("blocks",)

    def __init__(self, blocks: Iterable[int]) -> None:
        blocks = _integers(blocks, "group shape blocks")
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("a group shape needs at least one block, all of positive size")
        _set(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def r(self) -> int:
        return len(self.blocks)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for b in self.blocks:
            out.append(acc)
            acc += b
        return tuple(out)

    @cached_property
    def _positions(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, b in enumerate(self.blocks) for j in range(b))

    @cached_property
    def _neighbours(self) -> tuple[tuple[int, int], ...]:
        """Flat position pairs ``(p, p + 1)`` that lie in one block."""
        return tuple((p, p + 1) for i in range(self.r) for p in self.block_range(i)[:-1])

    @cached_property
    def _modulus_half_values(self) -> tuple[tuple[Monomial, ...], tuple[Monomial, ...]]:
        """Values of the half modulus and of its inverse, shared by :func:`modulus_half`.

        Only values are cached: a cached character would point back at the
        shape, and the cycle would leave every shape to the cyclic collector.
        """
        doubled = [-(self.blocks[i] + 1 - 2 * (j + 1)) for i, j in self._positions]
        return tuple(
            tuple(_half_power(RESIDUE_SYMBOL, sign * d) for d in doubled) for sign in (1, -1)
        )

    def block_of(self, p: int) -> tuple[int, int]:
        """Block index and 0-based position within the block of flat position ``p``."""
        positions = self._positions
        if not 0 <= p < len(positions):
            raise ValueError(f"position {p} out of range")
        return positions[p]

    def flat(self, i: int, j: int) -> int:
        """Flat position of the 0-based ``j``-th entry of block ``i``."""
        if not 0 <= i < self.r or not 0 <= j < self.blocks[i]:
            raise ValueError(f"no position ({i}, {j}) in shape {self.blocks}")
        return self.offsets[i] + j

    def block_range(self, i: int) -> range:
        return range(self.offsets[i], self.offsets[i] + self.blocks[i])

    def __str__(self) -> str:
        return "(" + ",".join(str(b) for b in self.blocks) + ")"


def _check_shape(a, b) -> None:
    if a.shape != b.shape:
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
        if not 0 <= p < shape.n:
            raise ValueError(f"position {p} out of range")
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
        chi = object.__new__(cls)
        _set(chi, "shape", shape)
        _set(chi, "values", values)
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
        """Value on an arbitrary cocharacter, by multiplicativity."""
        _check_shape(self, cochar)
        out = ONE
        for v, e in zip(self.values, cochar.exps):
            if e:
                out = out * v ** e
        return out


class AlgebraicWeight(FrozenValue):
    """Integer character of the torus, in flat coordinates."""

    __slots__ = _fields = ("shape", "exps")

    def __init__(self, shape: GroupShape, exps: Iterable[int]) -> None:
        exps = _integers(exps, "weight entries")
        if len(exps) != shape.n:
            raise ValueError(f"weight needs {shape.n} entries, got {len(exps)}")
        _set(self, "shape", shape)
        _set(self, "exps", exps)

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
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return UnramifiedCharacter._new(shape, shape._modulus_half_values[0 if sign == 1 else 1])


def weight_as_character(weight: AlgebraicWeight) -> UnramifiedCharacter:
    """The weight as an unramified character: ``W^k`` on each basis cocharacter."""
    return UnramifiedCharacter._new(
        weight.shape,
        tuple(_half_power(UNIFORMIZER_SYMBOL, 2 * k) for k in weight.exps),
    )
