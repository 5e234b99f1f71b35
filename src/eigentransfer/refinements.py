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
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations, product
from math import factorial
from typing import Iterable, Iterator

from ._frozen import FrozenValue, _set
from .errors import ShapeMismatch, SizeMismatch, UnsupportedLinked
from .monomial import Monomial, RESIDUE_SYMBOL, _half_power
from .tori import (
    AlgebraicWeight,
    GroupShape,
    UnramifiedCharacter,
    _integer,
    modulus_half,
    weight_as_character,
)
from .transfer import TransferConfig, invert_permutation, refinement_pullback
from .transfer import block_order_preserving_permutations

__all__ = [
    "Segment",
    "LocalRepDescriptor",
    "segments_linked",
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


def segments_linked(a: Segment, b: Segment) -> bool:
    """True when the two parameter ladders concatenate into one longer ladder."""
    step = _half_power(RESIDUE_SYMBOL, -2)
    return a.bottom() * step == b.top() or b.bottom() * step == a.top()


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
        """Distinct parameters throughout and no two segments linked."""
        params = self.all_params()
        if len(set(params)) != len(params):
            return False
        # b links to a when b's bottom times q^-1 is a's top; never a itself (d = 0)
        flat = [seg for block in self.segments for seg in block]
        tops = {seg.top() for seg in flat}
        return not any(seg.bottom() * _half_power(RESIDUE_SYMBOL, -2) in tops for seg in flat)

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


def _require_generic(desc: LocalRepDescriptor) -> None:
    if not desc.is_generic:
        raise UnsupportedLinked(
            "descriptor has repeated or linked segment parameters; accessibility "
            "is only decided for generic descriptors"
        )


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


def _ladder_shuffles(desc: LocalRepDescriptor, i: int) -> list[tuple[Monomial, ...]]:
    """Block ``i``'s accessible orderings: for each order-preserving ``sigma`` of the
    segment lengths, slot ``p`` gets ladder entry ``sigma^-1(p)``."""
    ladder = desc.block_params(i)
    sigmas = block_order_preserving_permutations(GroupShape(seg.d for seg in desc.segments[i]))
    return [tuple(ladder[u] for u in invert_permutation(sigma)) for sigma in sigmas]


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
        next_rank = [0] * len(desc.segments[i])
        for s, rank in found:
            if rank != next_rank[s]:
                return False
            next_rank[s] = rank + 1
    return True


def count_accessible(desc: LocalRepDescriptor) -> int:
    """Product over blocks of ``n_i! / prod(d!)``: interleavings keeping each ladder ordered."""
    _require_generic(desc)
    total = 1
    for i, block in enumerate(desc.segments):
        count = factorial(desc.shape.blocks[i])
        for seg in block:
            count //= factorial(seg.d)
        total *= count
    return total


def transferred_descriptor(desc: LocalRepDescriptor, cfg: TransferConfig) -> LocalRepDescriptor:
    """All segments gathered into one block, each twist multiplied by its ``M`` power."""
    if desc.shape != cfg.source:
        raise SizeMismatch(
            f"descriptor on {desc.shape} does not match config source {cfg.source}"
        )
    segments = tuple(
        Segment(cfg.twist_monomial(i) * seg.gamma, seg.d)
        for i, block in enumerate(desc.segments)
        for seg in block
    )
    return LocalRepDescriptor(cfg.target, (segments,))


def accessible_transfer_check(desc: LocalRepDescriptor, cfg: TransferConfig) -> bool:
    """Whether every accessible refinement stays accessible after transfer."""
    transferred = transferred_descriptor(desc, cfg)
    _require_generic(desc)
    _require_generic(transferred)
    accessible = _characters(desc.shape, [_ladder_shuffles(desc, i) for i in range(desc.shape.r)])
    return all(is_accessible(transferred, refinement_pullback(r, cfg)) for r in accessible)


def refinement_count_inequality(
    desc: LocalRepDescriptor, cfg: TransferConfig
) -> tuple[int, int, bool]:
    """Accessible counts before and after transfer, and the verdict ``source <= target``."""
    transferred = transferred_descriptor(desc, cfg)
    _require_generic(desc)
    _require_generic(transferred)
    count_source = count_accessible(desc)
    count_target = count_accessible(transferred)
    return count_source, count_target, count_source <= count_target


def normalize_point(weight: AlgebraicWeight, chi: UnramifiedCharacter) -> UnramifiedCharacter:
    """The algebraicity normalisation: weight character times ``chi`` times ``delta^(-1/2)``."""
    if weight.shape != chi.shape:
        raise ShapeMismatch(
            f"weight on {weight.shape} does not match character on {chi.shape}"
        )
    return weight_as_character(weight) * chi * modulus_half(weight.shape, -1)
