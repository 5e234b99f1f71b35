"""Input families, built by the benchmark itself, independently of the library.

The exhaustive families are seed-independent and always enumerated in the
same canonical order (their recorded digests depend on it).  The seed only
chooses the order in which their chunks are visited and the random inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import gcd
from typing import Iterator

ALPHAS = (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2))


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to ``n``."""
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for tail in compositions(n - head):
            yield (head,) + tail


def order_preserving(blocks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Permutations strictly increasing on each block, in lexicographic order."""
    n = sum(blocks)
    starts = [sum(blocks[:i]) for i in range(len(blocks))]
    out = []
    for sigma in permutations(range(n)):
        if all(
            sigma[s + j] < sigma[s + j + 1]
            for s, b in zip(starts, blocks)
            for j in range(b - 1)
        ):
            out.append(sigma)
    return out


def config_family(max_n: int = 5) -> list[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
    """Every (blocks, sigma, alpha) with n <= max_n: 2,532 configs for max_n = 5."""
    return [
        (blocks, sigma, alpha)
        for n in range(1, max_n + 1)
        for blocks in compositions(n)
        for sigma in order_preserving(blocks)
        for alpha in ALPHAS
    ]


def dominant_exps(blocks: tuple[int, ...], bound: int = 3) -> Iterator[tuple[int, ...]]:
    """Per-block weakly decreasing integer vectors with entries in [-bound, bound]."""
    per_block = [
        list(combinations_with_replacement(range(bound, -bound - 1, -1), b)) for b in blocks
    ]
    for combo in product(*per_block):
        yield tuple(x for block in combo for x in block)


def weight_family(max_n: int = 4) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (blocks, dominant weight) with n <= max_n: 9,590 weights for max_n = 4."""
    return [
        (blocks, exps)
        for n in range(1, max_n + 1)
        for blocks in compositions(n)
        for exps in dominant_exps(blocks)
    ]


def descriptor_family(max_n: int = 5) -> list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """Every (segment lengths per block, order-preserving sigma) with n <= max_n."""
    out = []
    for n in range(1, max_n + 1):
        for blocks in compositions(n):
            sigmas = order_preserving(blocks)
            for split in product(*(list(compositions(b)) for b in blocks)):
                out.extend((split, sigma) for sigma in sigmas)
    return out


def chunk_order(count: int, size: int, rng: random.Random) -> Iterator[int]:
    """Chunk indices from a seeded start, stepping by the golden ratio of the chunk count.

    Any stretch of this sequence is spread evenly over the family, so a run
    that gets through part of it sees about the same mix of shapes whatever
    the seed; the sequence repeats after visiting every chunk once.
    """
    chunks = -(-count // size)
    stride = max(1, round(chunks * 0.6180339887))
    while gcd(stride, chunks) != 1:
        stride += 1
    start = rng.randrange(chunks)
    k = 0
    while True:
        yield (start + k * stride) % chunks
        k += 1


def chunk_items(count: int, size: int, index: int) -> range:
    return range(index * size, min(count, (index + 1) * size))


def random_sigma(rng: random.Random, blocks: tuple[int, ...]) -> tuple[int, ...]:
    """A uniformly random order-preserving permutation."""
    slots = list(range(sum(blocks)))
    rng.shuffle(slots)
    sigma: list[int] = []
    for b in blocks:
        sigma.extend(sorted(slots[:b]))
        del slots[:b]
    return tuple(sigma)


def random_composition(rng: random.Random, n: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    edges = [0, *cuts, n]
    return tuple(b - a for a, b in zip(edges, edges[1:]))
