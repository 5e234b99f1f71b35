"""Classical points, mock form spaces, and the divisibility criterion.

A classical point packages a dominant weight with an eigenvalue system: one
unramified character per place above p (the normalized eigenvalue system on
the antidominant double-coset algebra) and one Satake parameter multiset per
tracked split place.  Transfer acts componentwise through the weight, the
eigenvalue-system, and the Satake-parameter maps.

A mock form space is a formal sum of classical points of one weight with
multiplicities.  Its characteristic polynomial for a chosen product of Hecke
generators is ``prod (1 - lambda·T)^mult`` with exact rational ``lambda``
obtained by evaluating each point's eigenvalue under a symbol assignment (the
weight twist is applied by multiplying in the weight character's value at the
chosen cocharacter).  The divisibility criterion compares per-eigenvalue
multiplicities, so it decides exactly whether ``prod (T - lambda)^mult`` of the
source divides the ``C``-th power of the target's.  That product counts
``lambda = 0``, which the reversed ``charpoly`` drops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._frozen import FrozenValue, _set
from .errors import EmptyPacket, SizeMismatch
from .monomial import Monomial, SymbolValue
from .tori import (
    AlgebraicWeight,
    CocharVector,
    UnramifiedCharacter,
    _integer,
    _integers,
    weight_as_character,
)
from .transfer import (
    TransferConfig,
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
        up_items = tuple((place, chi) for place, chi in (up or {}).items())
        satake_items = tuple(
            (place, tuple(tuple(block) for block in blocks))
            for place, blocks in (satake or {}).items()
        )
        return cls(weight, up_items, satake_items)

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

    def eigenvalue(self, point: ClassicalPoint, assign: Assignment) -> Fraction:
        shape = point.weight.shape
        vector = CocharVector(shape, self.cochar)
        if not vector.is_antidominant():
            raise ValueError(
                f"cocharacter {self.cochar} is not weakly decreasing within blocks"
            )
        chi = point.up_at(self.place)
        twisted = chi.eval(vector) * weight_as_character(point.weight).eval(vector)
        return twisted.evaluate(assign)


def _elementary_symmetric(values: Sequence[Fraction], degree: int) -> Fraction:
    """``e_degree`` of ``values`` by the recurrence ``e[k] += e[k-1]·v``, one value at a time.

    ``O(len(values)·degree)`` exact multiplications; 0 when ``degree`` exceeds
    the number of values.
    """
    e = [Fraction(1)] + [Fraction(0)] * degree
    for count, v in enumerate(values, 1):
        for k in range(min(count, degree), 0, -1):
            e[k] += e[k - 1] * v
    return e[degree]


class SphericalFactor(FrozenValue):
    """Unramified Hecke generator at a tracked place: elementary symmetric of given degree.

    The eigenvalue on a point is ``e_degree`` of its evaluated Satake
    parameters, computed by a recurrence in ``O(n·degree)`` rational
    multiplications rather than as a sum over the ``C(n, degree)`` subsets.
    """

    __slots__ = _fields = ("place", "degree")

    def __init__(self, place: str, degree: int) -> None:
        k = _integer(degree)
        if k is None or k < 1:
            raise ValueError(f"degree must be a positive integer, got {degree!r}")
        _set(self, "place", place)
        _set(self, "degree", k)

    def eigenvalue(self, point: ClassicalPoint, assign: Assignment) -> Fraction:
        params = [
            value.evaluate(assign)
            for block in point.satake_at(self.place)
            for value in block
        ]
        if self.degree > len(params):
            raise ValueError(
                f"degree {self.degree} exceeds the {len(params)} Satake parameters"
            )
        return _elementary_symmetric(params, self.degree)


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
    if point.weight.shape != cfg.source:
        raise SizeMismatch(
            f"point on shape {point.weight.shape} does not match config source {cfg.source}"
        )
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
    poly = [Fraction(1)]
    for point, mult in space.entries:
        lam = point_eigenvalue(point, factors, assign)
        for _ in range(mult):
            poly = _poly_mul(poly, [Fraction(1), -lam])
    return tuple(poly)


def _eigenvalue_multiplicities(
    space: MockFormSpace, factors: Sequence[HeckeFactor], assign: Assignment
) -> dict[Fraction, int]:
    out: dict[Fraction, int] = {}
    for point, mult in space.entries:
        lam = point_eigenvalue(point, factors, assign)
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
    c = _integer(constant)
    if c is None or c < 1:
        raise ValueError(f"the constant must be a positive integer, got {constant!r}")
    source = _eigenvalue_multiplicities(space_source, factors, assign)
    target = _eigenvalue_multiplicities(space_target, factors, assign)
    return all(mult <= c * target.get(lam, 0) for lam, mult in source.items())


def constant_C(dim_source: int, dims_target: Sequence[int]) -> int:
    """Max over the packet of ``ceil(dim_source / dim_target)``."""
    dims = _integers(dims_target, "packet dimensions")
    if not dims:
        raise EmptyPacket("the packet of target dimensions is empty")
    source = _integer(dim_source)
    if source is None or source < 1 or any(d < 1 for d in dims):
        raise ValueError("dimensions must be positive integers")
    return max(-(-source // d) for d in dims)


def build_transferred_space(space: MockFormSpace, cfg: TransferConfig) -> MockFormSpace:
    """Transfer every entry's point, preserving multiplicities."""
    weight = weight_pullback(space.weight, cfg)
    entries = tuple((transfer_point(point, cfg), mult) for point, mult in space.entries)
    return MockFormSpace(weight, entries)
