"""Classical points, mock form spaces, and the divisibility criterion.

A classical point packages a dominant weight with an eigenvalue system: one
unramified character per place above p (the normalized eigenvalue system on
the antidominant double-coset algebra) and one Satake parameter multiset per
tracked split place.  Transfer acts componentwise through the weight, the
eigenvalue-system, and the Satake-parameter maps.

A mock form space is a formal sum of classical points of one weight with
multiplicities.  Its characteristic polynomial for a chosen product of Hecke
generators is ``prod (1 - lambda·T)^mult`` with exact rational ``lambda``
obtained by evaluating each point's eigenvalue under a symbol assignment.
The divisibility criterion compares the source's ``prod (T - lambda)^mult``
with the ``C``-th power of the target's, eigenvalue by eigenvalue.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from ._frozen import FrozenValue, _set
from .errors import EmptyPacket
from .monomial import UNIFORMIZER_SYMBOL, Monomial, SymbolValue, _integers, _positive
from .tori import AlgebraicWeight, CocharVector, GroupShape, UnramifiedCharacter
from .transfer import (
    TransferConfig,
    _require_source,
    atkin_lehner_pullback,
    satake_param_transfer,
    weight_pullback,
)

__all__ = [
    "ClassicalPoint",
    "MockFormSpace",
    "AtkinLehnerFactor",
    "SphericalFactor",
    "point_eigenvalue",
    "transfer_point",
    "DiagramReport",
    "diagram_check",
    "charpoly",
    "divisibility_check",
    "constant_C",
    "build_transferred_space",
]

Assignment = Mapping[str, SymbolValue]


class ClassicalPoint(FrozenValue):
    """A weight plus eigenvalue data, keyed by place tags.

    ``up`` maps each place above p to an unramified character of the weight's
    shape; ``satake`` maps each tracked place to per-block parameter tuples.
    Satake blocks are stored sorted by canonical text, so equality of points
    compares parameter multisets.
    """

    __slots__ = _fields = ("weight", "up", "satake")

    def __init__(
        self,
        weight: AlgebraicWeight,
        up: Iterable[tuple[str, UnramifiedCharacter]],
        satake: Iterable[tuple[str, Sequence[Sequence[Monomial]]]],
    ) -> None:
        shape = weight.shape
        up = tuple(sorted(((str(place), chi) for place, chi in up), key=lambda item: item[0]))
        for place, chi in up:
            if not isinstance(chi, UnramifiedCharacter) or chi.shape != shape:
                raise ValueError(
                    f"eigenvalue system at place {place!r} must be a character on {shape}"
                )
        satake_norm = []
        sorted_satake = sorted(
            ((str(place), blocks) for place, blocks in satake),
            key=lambda item: item[0],
        )
        for place, blocks in sorted_satake:
            blocks = tuple(tuple(block) for block in blocks)
            if len(blocks) != shape.r or any(
                len(block) != shape.blocks[i] for i, block in enumerate(blocks)
            ):
                raise ValueError(
                    f"Satake data at place {place!r} must have block sizes {shape.blocks}"
                )
            if not all(isinstance(v, Monomial) for block in blocks for v in block):
                raise ValueError(f"Satake values at place {place!r} must be Monomials")
            satake_norm.append(
                (place, tuple(tuple(sorted(block, key=lambda m: m.text())) for block in blocks))
            )
        if len({place for place, _ in up}) != len(up):
            raise ValueError("duplicate place tags in eigenvalue systems")
        if len({place for place, _ in satake_norm}) != len(satake_norm):
            raise ValueError("duplicate place tags in Satake data")
        _set(self, "weight", weight)
        _set(self, "up", up)
        _set(self, "satake", tuple(satake_norm))

    @classmethod
    def build(
        cls,
        weight: AlgebraicWeight,
        up: Mapping[str, UnramifiedCharacter] | None = None,
        satake: Mapping[str, Sequence[Sequence[Monomial]]] | None = None,
    ) -> "ClassicalPoint":
        return cls(weight, (up or {}).items(), (satake or {}).items())

    def up_at(self, place: str) -> UnramifiedCharacter:
        for tag, chi in self.up:
            if tag == place:
                return chi
        raise ValueError(f"point has no eigenvalue system at place {place!r}")

    def satake_at(self, place: str) -> tuple[tuple[Monomial, ...], ...]:
        for tag, blocks in self.satake:
            if tag == place:
                return blocks
        raise ValueError(f"point has no Satake data at place {place!r}")


class MockFormSpace(FrozenValue):
    """Classical points of one weight with positive multiplicities."""

    __slots__ = _fields = ("weight", "entries")

    def __init__(
        self, weight: AlgebraicWeight, entries: Iterable[tuple[ClassicalPoint, int]]
    ) -> None:
        entries = tuple(entries)
        mults = _integers((mult for _, mult in entries), "multiplicities")
        entries = tuple(zip((point for point, _ in entries), mults))
        for point, mult in entries:
            if mult < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            if point.weight != weight:
                raise ValueError("all entries of a form space must share its weight")
        _set(self, "weight", weight)
        _set(self, "entries", entries)


class AtkinLehnerFactor(FrozenValue):
    """Generator of the antidominant double-coset algebra at one place above p.

    The eigenvalue on a point is the value of its (weight-twisted) eigenvalue
    system at the antidominant-ordered cocharacter.
    """

    __slots__ = _fields = ("place", "cochar")

    def __init__(self, place: str, cochar: Iterable[int]) -> None:
        _set(self, "place", place)
        _set(self, "cochar", _integers(cochar, "cocharacter entries"))

    def _vector(self, shape: GroupShape) -> CocharVector:
        vector = CocharVector(shape, self.cochar)
        if not vector.is_antidominant():
            raise ValueError(
                f"cocharacter {self.cochar} is not weakly decreasing within blocks"
            )
        return vector

    def _check(self, shape: GroupShape, points: Iterable[ClassicalPoint]) -> None:
        """Raise the ``ValueError`` that :meth:`eigenvalue` raises on a point of ``shape``,
        or on one of ``points`` that lacks this factor's place."""
        self._vector(shape)
        for point in points:
            point.up_at(self.place)

    def eigenvalue(self, point: ClassicalPoint, assign: Assignment) -> Fraction:
        """``chi(v)·W^(k·v)`` evaluated, built in one pass over the slots: the
        power product of ``chi``'s values starts from ``W^(k·v)``, so one monomial
        is made, the one that ``chi.eval(v)`` times the weight character's value
        ``W^(k·v)`` gives."""
        vector = self._vector(point.weight.shape)
        chi = point.up_at(self.place)
        pairing = sum(map(mul, point.weight.exps, vector.exps))
        value = Monomial._from_twice(1, {UNIFORMIZER_SYMBOL: 2 * pairing}, chi.values, vector.exps)
        return value.evaluate(assign)


def _elementary_symmetric(pairs: Sequence[tuple[int, int]], degree: int) -> Fraction:
    """``e_degree`` of the values ``num/den`` of ``pairs`` by the recurrence
    ``e[k] += e[k-1]·v``, one value at a time.

    The pairs need not be reduced and a denominator may be negative.  The values
    are put over the common denominator ``D``, the recurrence runs on the integer
    numerators ``num·(D/den)``, and ``e_degree`` is their result over
    ``D^degree``, reduced once.  ``O(len(pairs)·degree)`` integer
    multiplications; 0 when ``degree`` exceeds the number of values.
    """
    D = lcm(*[d for _, d in pairs])
    e = [1] + [0] * degree
    for count, (n, d) in enumerate(pairs, 1):
        a = n * (D // d)
        for k in range(min(count, degree), 0, -1):
            e[k] += e[k - 1] * a
    return Fraction(e[degree], D ** degree)


class SphericalFactor(FrozenValue):
    """Unramified Hecke generator at a tracked place: elementary symmetric of given degree.

    The eigenvalue on a point is ``e_degree`` of its evaluated Satake
    parameters, computed by a recurrence in ``O(n·degree)`` integer
    multiplications rather than as a sum over the ``C(n, degree)`` subsets.
    """

    __slots__ = _fields = ("place", "degree")

    def __init__(self, place: str, degree: int) -> None:
        _set(self, "place", place)
        _set(self, "degree", _positive(degree, "degree"))

    def _check(self, shape: GroupShape, points: Iterable[ClassicalPoint]) -> None:
        """Raise the ``ValueError`` that :meth:`eigenvalue` raises on a point of ``shape``,
        or on one of ``points`` that lacks this factor's place."""
        if self.degree > shape.n:
            raise ValueError(f"degree {self.degree} exceeds the {shape.n} Satake parameters")
        for point in points:
            point.satake_at(self.place)

    def eigenvalue(self, point: ClassicalPoint, assign: Assignment) -> Fraction:
        blocks = point.satake_at(self.place)
        self._check(point.weight.shape, ())
        pairs = [value._pair(assign) for block in blocks for value in block]
        return _elementary_symmetric(pairs, self.degree)


HeckeFactor = AtkinLehnerFactor | SphericalFactor


def point_eigenvalue(
    point: ClassicalPoint, factors: Sequence[HeckeFactor], assign: Assignment
) -> Fraction:
    """Eigenvalue of a product of generators: the product of factor eigenvalues."""
    value = Fraction(1)
    for factor in factors:
        value *= factor.eigenvalue(point, assign)
    return value


def transfer_point(point: ClassicalPoint, cfg: TransferConfig) -> ClassicalPoint:
    """Transfer weight, eigenvalue systems, and Satake data componentwise."""
    _require_source("point", point.weight.shape, cfg)
    weight = weight_pullback(point.weight, cfg)
    up = {place: atkin_lehner_pullback(chi, cfg) for place, chi in point.up}
    satake = {
        place: (satake_param_transfer(blocks, cfg),) for place, blocks in point.satake
    }
    return ClassicalPoint.build(weight, up, satake)


class DiagramReport(FrozenValue):
    """Per-source-point match flags against a target point list."""

    __slots__ = _fields = ("results",)

    def __init__(self, results: tuple[bool, ...]) -> None:
        _set(self, "results", results)

    @property
    def matched(self) -> int:
        return sum(1 for ok in self.results if ok)

    @property
    def unmatched(self) -> int:
        return len(self.results) - self.matched

    @property
    def ok(self) -> bool:
        return all(self.results)


def diagram_check(
    source_points: Sequence[ClassicalPoint],
    target_points: Sequence[ClassicalPoint],
    cfg: TransferConfig,
) -> DiagramReport:
    """Whether the transfer of each source point occurs among the target points."""
    targets = list(target_points)
    results = tuple(transfer_point(point, cfg) in targets for point in source_points)
    return DiagramReport(results)


def _check_factors(factors: Sequence[HeckeFactor], *spaces: MockFormSpace) -> None:
    """Raise the ``ValueError`` that a factor's ``eigenvalue`` would raise on the
    shape of each space, so that an empty space does not hide a malformed factor."""
    for space in spaces:
        for factor in factors:
            factor._check(space.weight.shape, ())


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def charpoly(
    space: MockFormSpace, factors: Sequence[HeckeFactor], assign: Assignment
) -> tuple[Fraction, ...]:
    """Coefficients of ``prod (1 - lambda·T)^mult`` in ascending powers of ``T``."""
    _check_factors(factors, space)
    poly = [Fraction(1)]
    for point, mult in space.entries:
        lam = point_eigenvalue(point, factors, assign)
        for _ in range(mult):
            poly = _poly_mul(poly, [Fraction(1), -lam])
    return tuple(poly)


def _eigenvalue_multiplicities(
    space: MockFormSpace,
    factors: Sequence[HeckeFactor],
    assign: Assignment,
    seen: dict[int, Fraction],
) -> dict[Fraction, int]:
    """Multiplicity of each eigenvalue; ``seen`` holds the eigenvalue of each point
    object already evaluated, keyed by ``id``, and gains the new ones."""
    out: dict[Fraction, int] = {}
    for point, mult in space.entries:
        lam = seen.get(id(point))
        if lam is None:
            lam = seen[id(point)] = point_eigenvalue(point, factors, assign)
        out[lam] = out.get(lam, 0) + mult
    return out


def divisibility_check(
    space_source: MockFormSpace,
    space_target: MockFormSpace,
    constant: int,
    factors: Sequence[HeckeFactor],
    assign: Assignment,
) -> bool:
    """Whether the source ``prod (T - lambda)^mult`` divides the target's power ``constant``.

    Both products split into linear factors by construction, so this is the
    per-eigenvalue comparison ``mult_source <= constant · mult_target``.  It
    counts ``lambda = 0``, which the reversed :func:`charpoly` cannot see, so
    on a zero eigenvalue it can disagree with divisibility of ``charpoly``.
    """
    c = _positive(constant, "the constant")
    _check_factors(factors, space_source, space_target)
    # a target that holds the source's own point objects reuses their eigenvalues;
    # both spaces keep their points alive for the whole call, so no id is reused
    seen: dict[int, Fraction] = {}
    source = _eigenvalue_multiplicities(space_source, factors, assign, seen)
    target = _eigenvalue_multiplicities(space_target, factors, assign, seen)
    return all(mult <= c * target.get(lam, 0) for lam, mult in source.items())


def constant_C(dim_source: int, dims_target: Sequence[int]) -> int:
    """Max over the packet of ``ceil(dim_source / dim_target)``."""
    dims = _integers(dims_target, "packet dimensions")
    if not dims:
        raise EmptyPacket("the packet of target dimensions is empty")
    try:
        source = _positive(dim_source, "dimensions")
    except ValueError:
        source = 0  # refused below, with the one message for both arguments
    if source < 1 or any(d < 1 for d in dims):
        raise ValueError("dimensions must be positive integers")
    return max(-(-source // d) for d in dims)


def build_transferred_space(space: MockFormSpace, cfg: TransferConfig) -> MockFormSpace:
    """Transfer every entry's point, preserving multiplicities."""
    weight = weight_pullback(space.weight, cfg)
    entries = tuple((transfer_point(point, cfg), mult) for point, mult in space.entries)
    return MockFormSpace(weight, entries)
