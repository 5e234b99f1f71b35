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
parameters appear in their internal descending order, so the accessible count
is the product over blocks of multinomial coefficients.  Non-generic
descriptors are refused rather than guessed at.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations, product
from math import factorial
from typing import Iterable

from ._frozen import FrozenValue, _set
from .errors import ShapeMismatch, SizeMismatch, UnsupportedLinked
from .monomial import Monomial, RESIDUE_SYMBOL, _half_power
from .tori import (
    AlgebraicWeight,
    GroupShape,
    UnramifiedCharacter,
    modulus_half,
    weight_as_character,
)
from .transfer import TransferConfig, refinement_pullback

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
        if int(d) != d or d < 1:
            raise ValueError(f"segment length must be a positive integer, got {d}")
        _set(self, "gamma", gamma)
        _set(self, "d", int(d))

    def _key(self) -> tuple:
        return (self.gamma, self.d)

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

    def _key(self) -> tuple:
        return (self.shape, self.segments)

    def block_params(self, i: int) -> tuple[Monomial, ...]:
        out: list[Monomial] = []
        for seg in self.segments[i]:
            out.extend(seg.params())
        return tuple(out)

    def all_params(self) -> tuple[Monomial, ...]:
        out: list[Monomial] = []
        for i in range(self.shape.r):
            out.extend(self.block_params(i))
        return tuple(out)

    @cached_property
    def is_generic(self) -> bool:
        """Distinct parameters throughout and no two segments linked."""
        params = self.all_params()
        if len(set(params)) != len(params):
            return False
        flat = [seg for block in self.segments for seg in block]
        for a in range(len(flat)):
            for b in range(a + 1, len(flat)):
                if segments_linked(flat[a], flat[b]):
                    return False
        return True

    @cached_property
    def _ladders(self) -> tuple[tuple[int, int, list[str], tuple[tuple[str, ...], ...]], ...]:
        """Per block, for :func:`is_accessible`: its flat range, the sorted
        canonical texts of its parameters and the text ladder of each segment."""
        out = []
        for i, block in enumerate(self.segments):
            ladders = tuple(tuple(m.text() for m in seg.params()) for seg in block)
            texts = sorted(text for ladder in ladders for text in ladder)
            start = self.shape.offsets[i]
            out.append((start, start + self.shape.blocks[i], texts, ladders))
        return tuple(out)


def _require_generic(desc: LocalRepDescriptor) -> None:
    if not desc.is_generic:
        raise UnsupportedLinked(
            "descriptor has repeated or linked segment parameters; accessibility "
            "is only decided for generic descriptors"
        )


def enumerate_refinements(desc: LocalRepDescriptor) -> tuple[UnramifiedCharacter, ...]:
    """All orderings of the parameter multiset, blockwise, as characters.

    Duplicate orderings arising from repeated parameters are emitted once.
    """
    per_block = [
        tuple(dict.fromkeys(permutations(desc.block_params(i))))
        for i in range(desc.shape.r)
    ]
    out = []
    for choice in product(*per_block):
        values: list[Monomial] = []
        for ordering in choice:
            values.extend(ordering)
        out.append(UnramifiedCharacter._new(desc.shape, tuple(values)))
    return tuple(out)


def is_accessible(desc: LocalRepDescriptor, refinement: UnramifiedCharacter) -> bool:
    """Whether each segment's ladder appears in internal order within its block.

    Parameters are compared by canonical text, which identifies a monomial;
    a generic descriptor's parameters are distinct, so each text has one position.
    """
    _require_generic(desc)
    if refinement.shape != desc.shape:
        raise ShapeMismatch(
            f"refinement on {refinement.shape} does not match descriptor on {desc.shape}"
        )
    for i, (start, stop, expected, ladders) in enumerate(desc._ladders):
        texts = [m.text() for m in refinement.values[start:stop]]
        if sorted(texts) != expected:
            raise ValueError(
                f"refinement values in block {i + 1} are not an ordering of the "
                f"descriptor parameters"
            )
        position = {text: p for p, text in enumerate(texts)}
        for ladder in ladders:
            positions = [position[text] for text in ladder]
            if any(a >= b for a, b in zip(positions, positions[1:])):
                return False
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
    for refinement in enumerate_refinements(desc):
        if is_accessible(desc, refinement):
            if not is_accessible(transferred, refinement_pullback(refinement, cfg)):
                return False
    return True


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
