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
parameters (identified by value) appear in their internal descending order.
The accessible refinements of a block are thus the shuffles of its segment
ladders, and their count is the product over blocks of multinomial
coefficients.  Non-generic descriptors are refused rather than guessed at.

Genericity is decided on integers, by a sweep over the ladders: each segment
is the run of doubled ``q`` exponents ``lo..hi`` (step 2) over gamma's
``q``-free part, and after sorting by that part, the parity of ``lo`` and
``lo`` itself, two neighbouring ladders share a parameter when ``lo <= hi`` and
link when ``lo == hi + 2``.  No parameter is built or hashed for it.

The transfer checks build no transferred descriptor and no parameter.  A
twist multiplies gamma by a power of the twist symbol and never touches ``q``,
so the transferred sweep reuses each source ladder with the block's twist
entry merged into its ``q``-free part.  On a generic descriptor every
parameter is labelled by its (segment, rank), and a twisted parameter keeps
its source label, so a refinement moves to the target as its labels read in
target order through ``sigma^-1``.  Segments of different blocks never share
a label, so each block's accessible orderings are checked on their own: the
work is the sum over blocks, not the product.  The target count is the
closed form ``n! / prod(d!)`` over all segments.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations, product
from math import factorial
from typing import Iterable, Iterator

from ._frozen import FrozenValue, _set
from .errors import ShapeMismatch, SizeMismatch, UnsupportedLinked
from .monomial import Monomial, RESIDUE_SYMBOL, _half_power, _times
from .tori import (
    AlgebraicWeight,
    GroupShape,
    UnramifiedCharacter,
    _integer,
    modulus_half,
    weight_as_character,
)
from .transfer import TransferConfig, block_order_preserving_permutations, invert_permutation

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
        length = _integer(d)
        if length is None or length < 1:
            raise ValueError(f"segment length must be a positive integer, got {d!r}")
        _set(self, "gamma", gamma)
        _set(self, "d", length)

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
        exponent.  Two segments can share a parameter or link only when they agree
        in gamma's ``q``-free part and in the parity of ``lo``.  Sorted by that key
        and then by ``lo``, the descriptor is non-generic exactly when a ladder
        starts at or below the previous one's ``hi + 2``: ``lo <= hi`` is a shared
        parameter and ``lo == hi + 2`` a link.
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
    if refinement.shape != desc.shape:
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


def _require_source(desc: LocalRepDescriptor, cfg: TransferConfig) -> None:
    if desc.shape != cfg.source:
        raise SizeMismatch(
            f"descriptor on {desc.shape} does not match config source {cfg.source}"
        )


def transferred_descriptor(desc: LocalRepDescriptor, cfg: TransferConfig) -> LocalRepDescriptor:
    """All segments gathered into one block, each twist multiplied by its ``M`` power."""
    _require_source(desc, cfg)
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
    _require_source(desc, cfg)
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

    Each accessible ordering of a block labels its slots by (segment, rank): for
    each order-preserving ``sigma`` of the segment lengths, slot ``p`` holds ladder
    entry ``sigma^-1(p)``.  The transferred refinement reads the labels in target
    order through ``cfg.sigma_inverse`` and is accessible when each segment's ranks
    come out as 0, 1, 2, ....  Blocks share no label, so each block's orderings are
    checked alone: the sum of the block counts, never their product or ``n!``.
    """
    _require_transfer_generic(desc, cfg)
    positions = desc.shape._positions
    orders = [[] for _ in desc.segments]  # each block's slots, in target order
    for u in cfg.sigma_inverse:
        i, j = positions[u]
        orders[i].append(j)
    for block, order in zip(desc.segments, orders):
        ranks = [(s, k) for s, seg in enumerate(block) for k in range(seg.d)]
        for sigma in block_order_preserving_permutations(GroupShape(seg.d for seg in block)):
            labels = [ranks[e] for e in invert_permutation(sigma)]
            if not _in_ladder_order([labels[j] for j in order], len(block)):
                return False
    return True


def refinement_count_inequality(
    desc: LocalRepDescriptor, cfg: TransferConfig
) -> tuple[int, int, bool]:
    """Accessible counts before and after transfer, and the verdict ``source <= target``.

    The target count is the closed form ``n! / prod(d!)`` over all segments: the
    transferred descriptor is one block holding every segment.
    """
    _require_transfer_generic(desc, cfg)
    count_source = count_accessible(desc)
    count_target = _multinomial(cfg.n, (seg.d for block in desc.segments for seg in block))
    return count_source, count_target, count_source <= count_target


def normalize_point(weight: AlgebraicWeight, chi: UnramifiedCharacter) -> UnramifiedCharacter:
    """The algebraicity normalisation: weight character times ``chi`` times ``delta^(-1/2)``."""
    if weight.shape != chi.shape:
        raise ShapeMismatch(
            f"weight on {weight.shape} does not match character on {chi.shape}"
        )
    return weight_as_character(weight) * chi * modulus_half(weight.shape, -1)
