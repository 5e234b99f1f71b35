"""Steinberg-segment descriptors, refinements, and accessibility combinatorics.

A tempered, Iwahori-spherical local representation of a product of general
linear blocks is described here by a multiset of twisted Steinberg segments
per block: a segment ``(gamma, d)`` contributes the geometric parameter
ladder ``gamma·q^((d-1)/2), gamma·q^((d-3)/2), ..., gamma·q^(-(d-1)/2)``
(consecutive ratio ``q^(-1)``), and the segment lengths of a block sum to the
block size.

A refinement is an ordering of the full parameter multiset, one block at a
time, recorded as an unramified character of the diagonal torus.  For generic
descriptors (pairwise distinct parameters, no two segments concatenating into
a longer ladder) a refinement is accessible exactly when each segment's
parameters appear in their internal descending order.  The accessible
refinements of a block are thus the shuffles of its segment ladders, and their
count is the product over blocks of multinomial coefficients.  Non-generic
descriptors are refused rather than guessed at.

Transfer gathers every segment into the target's single block, each gamma
times its block's twist.  On a generic descriptor a parameter keeps its
(segment, rank) label under transfer, so a refinement moves to the target as
its labels read in target order through ``sigma^-1``.  A config's ``sigma`` is
strictly increasing on each block, so every accessible refinement stays
accessible: ``accessible_transfer_check`` refuses what is not generic and
otherwise returns ``True``, and ``refinement_count_inequality`` counts in
closed form.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import permutations, product
from math import factorial

from ._frozen import FrozenValue, _set
from .errors import ShapeMismatch, UnsupportedLinked
from .monomial import Monomial, RESIDUE_SYMBOL, _half_power, _positive, _times
from .tori import (
    AlgebraicWeight,
    GroupShape,
    UnramifiedCharacter,
    modulus_half,
    weight_as_character,
)
from .transfer import TransferConfig, _require_source

__all__ = [
    "Segment",
    "LocalRepDescriptor",
    "enumerate_refinements",
    "is_accessible",
    "count_accessible",
    "transferred_descriptor",
    "accessible_transfer_check",
    "refinement_count_inequality",
    "normalize_point",
]


class Segment(FrozenValue):
    """A twisted Steinberg segment: unramified twist value ``gamma``, length ``d``."""

    __slots__ = _fields = ("gamma", "d")

    def __init__(self, gamma: Monomial, d: int) -> None:
        if not isinstance(gamma, Monomial):
            raise ValueError("segment twist must be a Monomial")
        _set(self, "gamma", gamma)
        _set(self, "d", _positive(d, "segment length"))

    def params(self) -> tuple[Monomial, ...]:
        """The parameter ladder, descending: ``gamma·q^((d-1)/2) .. gamma·q^(-(d-1)/2)``."""
        return tuple(
            self.gamma * _half_power(RESIDUE_SYMBOL, self.d - 1 - 2 * a)
            for a in range(self.d)
        )

    def top(self) -> Monomial:
        return self.gamma * _half_power(RESIDUE_SYMBOL, self.d - 1)

    def bottom(self) -> Monomial:
        return self.gamma * _half_power(RESIDUE_SYMBOL, -(self.d - 1))


def _ladder(seg: Segment) -> tuple[tuple, int, int]:
    """``(key, lo, hi)`` of a segment's ladder of doubled ``q`` exponents, keyed by
    gamma's ``q``-free part and the parity of ``lo``."""
    coeff, rest, g = seg.gamma._split(RESIDUE_SYMBOL)
    lo = g - seg.d + 1
    return (coeff, rest, lo % 2), lo, g + seg.d - 1


def _sweep(ladders: Iterable[tuple[tuple, int, int]]) -> bool:
    """True when no two of the ``(key, lo, hi)`` ladders share a parameter or link."""
    ladders = sorted(ladders)
    for (key, _, hi), (next_key, lo, _) in zip(ladders, ladders[1:]):
        if key == next_key and lo <= hi + 2:
            return False
    return True


class LocalRepDescriptor(FrozenValue):
    """Per-block segment lists; segment lengths must sum to each block size."""

    _fields = ("shape", "segments")

    def __init__(self, shape: GroupShape, segments: Iterable[Iterable[Segment]]) -> None:
        segments = tuple(tuple(block) for block in segments)
        if len(segments) != shape.r:
            raise ValueError(f"descriptor needs {shape.r} segment blocks, got {len(segments)}")
        for i, block in enumerate(segments):
            if not all(isinstance(seg, Segment) for seg in block):
                raise ValueError("segment blocks must contain Segment instances")
            total = sum(seg.d for seg in block)
            if total != shape.blocks[i]:
                raise ValueError(
                    f"segment lengths in block {i + 1} sum to {total}, expected "
                    f"{shape.blocks[i]}"
                )
        _set(self, "shape", shape)
        _set(self, "segments", segments)

    @cached_property
    def _block_params(self) -> tuple[tuple[Monomial, ...], ...]:
        """Per block, its segment ladders in order; built once, so every caller
        (and every ``_ladders`` key) shares the same ``Monomial`` objects."""
        return tuple(
            tuple(m for seg in block for m in seg.params()) for block in self.segments
        )

    def block_params(self, i: int) -> tuple[Monomial, ...]:
        return self._block_params[i]

    def all_params(self) -> tuple[Monomial, ...]:
        return tuple(m for block in self._block_params for m in block)

    @cached_property
    def is_generic(self) -> bool:
        """Distinct parameters throughout and no two segments linked, by a ladder sweep.

        A segment's parameters are ``gamma·q^(k/2)`` for ``k`` from ``lo = g - d + 1``
        to ``hi = g + d - 1`` in steps of 2, ``g`` being gamma's doubled ``q``
        exponent.  Two segments can share a parameter or link only when their
        :func:`_ladder` keys agree.  Sorted by key and ``lo``, a ladder with ``lo <= hi``
        of the one before shares a parameter, and one with ``lo == hi + 2`` links.
        """
        return _sweep(_ladder(seg) for block in self.segments for seg in block)

    @cached_property
    def _ladders(self) -> tuple[tuple[int, int, dict[Monomial, tuple[int, int]]], ...]:
        """Per block, for :func:`is_accessible`: its flat range and each
        parameter's segment and rank within that segment's ladder."""
        out = []
        for i, block in enumerate(self.segments):
            ranks = [(s, k) for s, seg in enumerate(block) for k in range(seg.d)]
            places = dict(zip(self._block_params[i], ranks))
            start = self.shape.offsets[i]
            out.append((start, start + self.shape.blocks[i], places))
        return tuple(out)


_NOT_GENERIC = (
    "descriptor has repeated or linked segment parameters; accessibility "
    "is only decided for generic descriptors"
)


def _require_generic(desc: LocalRepDescriptor) -> None:
    if not desc.is_generic:
        raise UnsupportedLinked(_NOT_GENERIC)


def _characters(shape: GroupShape, per_block: list) -> Iterator[UnramifiedCharacter]:
    """One character per choice of an ordering from each block, in product order."""
    for choice in product(*per_block):
        yield UnramifiedCharacter._new(shape, tuple(v for ordering in choice for v in ordering))


def enumerate_refinements(desc: LocalRepDescriptor) -> tuple[UnramifiedCharacter, ...]:
    """All orderings of the parameter multiset, blockwise, as characters.

    Duplicate orderings arising from repeated parameters are emitted once.
    """
    per_block = [
        tuple(dict.fromkeys(permutations(desc.block_params(i))))
        for i in range(desc.shape.r)
    ]
    return tuple(_characters(desc.shape, per_block))


def is_accessible(desc: LocalRepDescriptor, refinement: UnramifiedCharacter) -> bool:
    """Whether each segment's ladder appears in internal order within its block.

    A generic descriptor's parameters are distinct, so each value has one
    segment and rank; the block is accessible when each segment's ranks
    appear as 0, 1, 2, ....
    """
    _require_generic(desc)
    if refinement.shape is not desc.shape:
        raise ShapeMismatch(
            f"refinement on {refinement.shape} does not match descriptor on {desc.shape}"
        )
    for i, (start, stop, places) in enumerate(desc._ladders):
        found = [places.get(v) for v in refinement.values[start:stop]]
        if None in found or len(set(found)) != len(found):
            raise ValueError(
                f"refinement values in block {i + 1} are not an ordering of the "
                f"descriptor parameters"
            )
        if not _in_ladder_order(found, len(desc.segments[i])):
            return False
    return True


def _in_ladder_order(labels: Iterable[tuple[int, int]], segments: int) -> bool:
    """Whether each segment's ranks come out as 0, 1, 2, ... in the ``(segment, rank)`` labels."""
    next_rank = [0] * segments
    for s, rank in labels:
        if rank != next_rank[s]:
            return False
        next_rank[s] = rank + 1
    return True


def _multinomial(n: int, lengths: Iterable[int]) -> int:
    """``n! / prod(d!)``: the interleavings of ladders of the given lengths, summing to ``n``."""
    count = factorial(n)
    for d in lengths:
        count //= factorial(d)
    return count


def count_accessible(desc: LocalRepDescriptor) -> int:
    """Product over blocks of ``n_i! / prod(d!)``: interleavings keeping each ladder ordered."""
    _require_generic(desc)
    total = 1
    for size, block in zip(desc.shape.blocks, desc.segments):
        total *= _multinomial(size, (seg.d for seg in block))
    return total


def transferred_descriptor(desc: LocalRepDescriptor, cfg: TransferConfig) -> LocalRepDescriptor:
    """All segments gathered into one block, each twist multiplied by its ``M`` power."""
    _require_source("descriptor", desc.shape, cfg)
    segments = tuple(
        Segment(cfg.twist_monomial(i) * seg.gamma, seg.d)
        for i, block in enumerate(desc.segments)
        for seg in block
    )
    return LocalRepDescriptor(cfg.target, (segments,))


def _require_transfer_generic(desc: LocalRepDescriptor, cfg: TransferConfig) -> None:
    """Refuse, in this order, a descriptor off the config's source, a non-generic
    one, and one whose transferred descriptor is not generic.

    The transferred genericity is the ladder sweep on the source ladders, the
    ``q``-free part of each ladder in a twisted block merged with the entry
    ``(mu, 2)``; ``lo`` and ``hi`` stay, since the twist has no ``q`` part.
    """
    _require_source("descriptor", desc.shape, cfg)
    _require_generic(desc)
    mu, ladders = cfg.mu, []
    for i, block in enumerate(desc.segments):
        twist = 2 * cfg.twist_exponent(i)
        for seg in block:
            (coeff, rest, parity), lo, hi = _ladder(seg)
            ladders.append(((coeff, _times(rest, mu, twist), parity), lo, hi))
    if not _sweep(ladders):
        raise UnsupportedLinked(_NOT_GENERIC)


def accessible_transfer_check(desc: LocalRepDescriptor, cfg: TransferConfig) -> bool:
    """Whether every accessible refinement stays accessible after transfer.

    Refuses, in order, a descriptor off the config's source, a non-generic one and
    one whose transferred descriptor is not generic; otherwise the verdict is
    ``True``.  A refinement moves to the target as its (segment, rank) labels read
    in target order through ``sigma^-1``, and an accessible refinement keeps each
    segment's ranks in order.  ``TransferConfig`` refuses a ``sigma`` that is not
    strictly increasing on each block, so a block's slots keep their order in the
    target, every label reads back in ladder order, and no order is left to test.
    """
    _require_transfer_generic(desc, cfg)
    return True


def refinement_count_inequality(
    desc: LocalRepDescriptor, cfg: TransferConfig
) -> tuple[int, int, bool]:
    """Accessible counts before and after transfer, and the verdict ``source <= target``.

    The target count is the closed form ``n! / prod(d!)`` over all segments: the
    transferred descriptor is one block holding every segment.  So once the
    genericity checks pass ``count_target == count_source · n! / prod(n_i!)``, and
    the verdict cannot be ``False``.
    """
    _require_transfer_generic(desc, cfg)
    count_source = count_accessible(desc)
    count_target = _multinomial(cfg.n, (seg.d for block in desc.segments for seg in block))
    return count_source, count_target, count_source <= count_target


def normalize_point(weight: AlgebraicWeight, chi: UnramifiedCharacter) -> UnramifiedCharacter:
    """The algebraicity normalisation: weight character times ``chi`` times ``delta^(-1/2)``."""
    if weight.shape is not chi.shape:
        raise ShapeMismatch(
            f"weight on {weight.shape} does not match character on {chi.shape}"
        )
    return weight_as_character(weight) * chi * modulus_half(weight.shape, -1)
