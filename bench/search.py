"""combinatorial-search: the library's brute-force searches, in process.

A round holds three kinds of op, sized so that each takes roughly a third of
the round's time at the commit that introduced this benchmark:

* ``archimedean`` (16 per round, one digest chunk): one weight of the
  exhaustive family of dominant weights in [-3, 3] on shapes with n <= 4
  (9,590 weights), with each of the four alphas (38,360 cases).  About 27% of
  the cases cannot be realized and walk all n!/prod(n_i!) block-order-
  preserving permutations.  An op covers a weight rather than a single case,
  so that the median op is not poised between collisions (half the cases,
  very cheap) and everything else.
* ``refinements`` (4 per round): one (generic descriptor, sigma) pair with
  n <= 5 (1,643 pairs): enumerate the refinements, test each for
  accessibility, check accessible transfer and the count inequality.
* ``space`` (1 per round): seeded random form spaces with 8 to 10 Satake
  parameters per point; transfer the space and run the divisibility check for
  two generator products with spherical degrees up to 5.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from time import perf_counter_ns as tr_now
from typing import Iterator

from eigentransfer import (
    AlgebraicWeight,
    AtkinLehnerFactor,
    ClassicalPoint,
    GroupShape,
    LocalRepDescriptor,
    MockFormSpace,
    Monomial,
    NotRelevant,
    Segment,
    SphericalFactor,
    SymbolValue,
    TransferConfig,
    UnramifiedCharacter,
    accessible_transfer_check,
    archimedean_sigma,
    archimedean_transfer,
    build_transferred_space,
    divisibility_check,
    enumerate_refinements,
    is_accessible,
    refinement_count_inequality,
    symbol,
    weight_pullback,
)

import families
from harness import Task, expect

ARCH = "archimedean"
DESC = "refinements"
ARCH_CHUNK = 16
DESC_CHUNK = 8
DESC_PER_ROUND = 4
CHUNKS = {ARCH: ARCH_CHUNK, DESC: DESC_CHUNK}
HALF = Fraction(1, 2)
RATIO_ROUNDS = 128  # the ratios cover the first rounds only, so they do not depend on speed

LAYERS = [
    "transfer.archimedean_transfer",
    "transfer.archimedean_sigma.realized",
    "transfer.archimedean_sigma.unrealizable",
    "refinements.enumerate",
    "refinements.is_accessible",
    "refinements.accessible_transfer",
    "refinements.count_inequality",
    "points.transfer_space",
    "points.spherical_eigenvalue",
    "points.atkin_lehner_eigenvalue",
    "points.divisibility",
    "monomial.evaluate",
]


class State:
    def __init__(self) -> None:
        self.arch = families.weight_family(4)
        self.desc = families.descriptor_family(5)


def setup() -> State:
    return State()


# ---------------------------------------------------------------------------
# archimedean


def archimedean_params(blocks, exps, alpha) -> list[Fraction]:
    """The shifted parameters m_{i,j}, computed here independently of the library."""
    n = sum(blocks)
    out = []
    u = 0
    for b in blocks:
        for j in range(1, b + 1):
            out.append(exps[u] + Fraction(b + 1, 2) - j + alpha * ((n - b) % 2))
            u += 1
    return out


def block_shifts(blocks, alpha) -> list[int]:
    n = sum(blocks)
    out: list[int] = []
    offset = 0
    for b in blocks:
        c = alpha * ((n - b) % 2) + Fraction(b - n, 2) + offset
        out.extend([int(c)] * b)
        offset += b
    return out


def archimedean_task(state: State, index: int) -> Task:
    blocks, exps = state.arch[index]
    shape = GroupShape(blocks)
    weight = AlgebraicWeight(shape, exps)

    def fn(tr):
        results = []
        for alpha in families.ALPHAS:
            t0 = tr_now()
            try:
                art = archimedean_transfer(weight, alpha)
            except NotRelevant:
                tr.record("transfer.archimedean_transfer", t0, tr_now())
                results.append((None, None))
                continue
            t1 = tr_now()
            tr.record("transfer.archimedean_transfer", t0, t1)
            try:
                sigma = archimedean_sigma(weight, alpha)
                name = "transfer.archimedean_sigma.realized"
            except NotRelevant:
                sigma = None
                name = "transfer.archimedean_sigma.unrealizable"
            tr.record(name, t1, tr_now())
            results.append((art, sigma))
        return results

    def check(results) -> str:
        """One outcome line per alpha: C (collision), R<sigma><weight> or N<weight>."""
        return "\n".join(
            check_case(alpha, art, sigma) for alpha, (art, sigma) in zip(families.ALPHAS, results)
        )

    def check_case(alpha, art, sigma) -> str:
        n = len(exps)
        ms = archimedean_params(blocks, exps, alpha)
        expect((art is None) == (len(set(ms)) != n), f"collision misjudged on {blocks} {exps} {alpha}")
        if art is None:
            return "C"
        target = art.weight.exps
        expect(all(a >= b for a, b in zip(target, target[1:])), "transferred weight not dominant")
        if sigma is not None:
            cfg = TransferConfig(source=shape, sigma=sigma, alpha=alpha)
            expect(weight_pullback(weight, cfg) == art.weight, "sigma does not realize the transfer")
            return f"R{sigma}{target}"
        shifts = block_shifts(blocks, alpha)
        for tau in permutations(range(n)):
            inv = [0] * n
            for u, p in enumerate(tau):
                inv[p] = u
            image = tuple(shifts[p] + exps[inv[p]] for p in range(n))
            expect(image != target, f"unrealizable but {tau} realizes {blocks} {exps} {alpha}")
        return f"N{target}"

    return Task("archimedean", fn, check, (ARCH, index // ARCH_CHUNK))


# ---------------------------------------------------------------------------
# refinements


def descriptor(split) -> LocalRepDescriptor:
    blocks = tuple(sum(lengths) for lengths in split)
    counter = 0
    segments = []
    for lengths in split:
        block = []
        for d in lengths:
            block.append(Segment(symbol(f"s{counter}"), d))
            counter += 1
        segments.append(tuple(block))
    return LocalRepDescriptor(GroupShape(blocks), tuple(segments))


def descriptor_task(state: State, index: int) -> Task:
    split, sigma = state.desc[index]
    desc = descriptor(split)
    cfg = TransferConfig(source=desc.shape, sigma=sigma, alpha=HALF)

    def fn(tr):
        sp = tr.span
        with sp("refinements.enumerate"):
            refinements = enumerate_refinements(desc)
        flags = []
        for chi in refinements:
            with sp("refinements.is_accessible"):
                flags.append(is_accessible(desc, chi))
        with sp("refinements.accessible_transfer"):
            kept = accessible_transfer_check(desc, cfg)
        with sp("refinements.count_inequality"):
            counts = refinement_count_inequality(desc, cfg)
        return len(refinements), flags, kept, counts

    def check(result) -> str:
        total, flags, kept, (source, target, ok) = result
        lengths = [d for block in split for d in block]
        sizes = [sum(block) for block in split]
        multinomial = prod(
            factorial(sum(block)) // prod(factorial(d) for d in block) for block in split
        )
        expect(total == prod(factorial(b) for b in sizes), "wrong number of refinements")
        expect(sum(flags) == multinomial, "accessible count differs from the multinomial formula")
        expect(kept, "accessibility lost under transfer")
        expect(source == multinomial, "source count differs from the multinomial formula")
        expect(
            target == factorial(sum(lengths)) // prod(factorial(d) for d in lengths),
            "target count differs from the multinomial formula",
        )
        expect(ok and source <= target, "count inequality fails")
        bits = "".join("1" if f else "0" for f in flags)
        return f"{split}{sigma}|{total}|{bits}|{source}|{target}"

    return Task("refinements", fn, check, (DESC, index // DESC_CHUNK))


# ---------------------------------------------------------------------------
# form spaces

SPACE_SYMBOLS = ("a", "b", "c", "d")


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) * rng.choice((1, -1))


def _monomial(rng: random.Random) -> Monomial:
    exps = {rng.choice(SPACE_SYMBOLS): rng.choice((1, -1, 2)), "q": Fraction(rng.randint(-3, 3), 2)}
    return Monomial(_rational(rng), exps)


def random_space(rng: random.Random, k: int) -> dict:
    """The ``k``-th seeded form space, its config, generators, assignment and target plan.

    Sizes and spherical degrees cycle with ``k`` (period 15) rather than being
    drawn, so every run holds the same mix of costly and cheap spaces; the
    seed draws everything else.
    """
    n = (8, 9, 10)[k % 3]
    blocks = families.random_composition(rng, n, rng.choice((2, 3)))
    shape = GroupShape(blocks)
    cfg = TransferConfig(source=shape, sigma=families.random_sigma(rng, blocks), alpha=HALF)
    exps: list[int] = []
    for b in blocks:
        exps.extend(sorted((rng.randint(-3, 3) for _ in range(b)), reverse=True))
    weight = AlgebraicWeight(shape, tuple(exps))
    entries = []
    for _ in range(3):
        up = UnramifiedCharacter(shape, tuple(_monomial(rng) for _ in range(n)))
        satake = tuple(tuple(_monomial(rng) for _ in range(b)) for b in blocks)
        point = ClassicalPoint.build(weight, up={"p": up}, satake={"v": satake})
        entries.append((point, rng.randint(1, 2)))
    cochar = tuple(sorted((rng.randint(0, 2) for _ in range(n)), reverse=True))
    generators = (
        (AtkinLehnerFactor("p", cochar), SphericalFactor("v", 1 + k % 5)),
        (SphericalFactor("v", 1 + (k // 3) % 5),),
    )
    q = rng.choice((Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3)))
    assign = {"q": SymbolValue(q * q, q)}
    for name in ("W", "M", *SPACE_SYMBOLS):
        assign[name] = SymbolValue(abs(_rational(rng)))
    constant = rng.choice((1, 2))
    target_mults = [-(-mult // constant) + rng.randint(0, 1) for _, mult in entries]
    fails = rng.random() < 0.25
    if fails:
        target_mults[rng.randrange(len(entries))] = 0
    return {
        "source": MockFormSpace(weight, tuple(entries)),
        "cfg": cfg,
        "generators": generators,
        "assign": assign,
        "constant": constant,
        "target_mults": target_mults,
        "fails": fails,
    }


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def charpoly(lams: list[Fraction], mults: list[int]) -> list[Fraction]:
    poly = [Fraction(1)]
    for lam, mult in zip(lams, mults):
        for _ in range(mult):
            poly = poly_mul(poly, [Fraction(1), -lam])
    return poly


def poly_divides(divisor: list[Fraction], dividend: list[Fraction]) -> bool:
    """Exact division test for ascending-coefficient rational polynomials."""
    divisor = list(divisor)
    while divisor and divisor[-1] == 0:
        divisor.pop()
    degree = len(divisor) - 1
    remainder = list(dividend)
    while len(remainder) - 1 >= degree and any(remainder):
        factor = remainder[-1] / divisor[-1]
        offset = len(remainder) - 1 - degree
        for k in range(degree + 1):
            remainder[offset + k] -= factor * divisor[k]
        remainder.pop()
    return not any(remainder)


def elementary(values: list[Fraction], degree: int) -> Fraction:
    """e_degree(values) by the O(n·d) recurrence."""
    e = [Fraction(1)] + [Fraction(0)] * degree
    for v in values:
        for k in range(degree, 0, -1):
            e[k] += e[k - 1] * v
    return e[degree]


def space_task(data: dict) -> Task:
    source, cfg, assign = data["source"], data["cfg"], data["assign"]
    generators, constant, target_mults = data["generators"], data["constant"], data["target_mults"]

    def fn(tr):
        sp = tr.span
        with sp("points.transfer_space"):
            moved = build_transferred_space(source, cfg)
        target = MockFormSpace(
            moved.weight,
            tuple((point, m) for (point, _), m in zip(moved.entries, target_mults) if m),
        )
        verdicts, lams = [], []
        for gen in generators:
            with sp("points.divisibility"):
                verdicts.append(divisibility_check(moved, target, constant, gen, assign))
            row = []
            for point, _ in moved.entries:
                lam = Fraction(1)
                for factor in gen:
                    if isinstance(factor, SphericalFactor):
                        with sp("points.spherical_eigenvalue"):
                            lam *= factor.eigenvalue(point, assign)
                    else:
                        with sp("points.atkin_lehner_eigenvalue"):
                            lam *= factor.eigenvalue(point, assign)
                row.append(lam)
            lams.append(row)
        params = []
        for point, _ in moved.entries:
            values = []
            for block in point.satake_at("v"):
                for value in block:
                    with sp("monomial.evaluate"):
                        values.append(value.evaluate(assign))
            params.append(values)
        return [m for _, m in moved.entries], verdicts, lams, params

    def check(result) -> None:
        mults, verdicts, lams, params = result
        expect(mults == [m for _, m in source.entries], "transfer changed multiplicities")
        for gen, verdict, row in zip(generators, verdicts, lams):
            oracle = poly_divides(
                charpoly(row, mults),
                charpoly(row, [m * constant for m in target_mults]),
            )
            expect(verdict == oracle, "divisibility verdict differs from polynomial division")
            expect(verdict or data["fails"], "a matched target fails the divisibility check")
        degree = generators[1][0].degree
        for lam, values in zip(lams[1], params):
            expect(lam == elementary(values, degree), "spherical eigenvalue differs from e_d")
        return None

    return Task("space", fn, check)


# ---------------------------------------------------------------------------


def round_tasks(
    state: State, k: int, arch_chunk: int, desc_indices: list[int], rng: random.Random
) -> list[Task]:
    tasks = [
        archimedean_task(state, i)
        for i in families.chunk_items(len(state.arch), ARCH_CHUNK, arch_chunk)
    ]
    tasks.extend(descriptor_task(state, i) for i in desc_indices)
    tasks.append(space_task(random_space(rng, k)))
    return tasks


def rounds(state: State, rng: random.Random) -> Iterator[list]:
    arch_chunks = families.chunk_order(len(state.arch), ARCH_CHUNK, random.Random(rng.random()))
    desc_items = (
        index
        for chunk in families.chunk_order(len(state.desc), DESC_CHUNK, random.Random(rng.random()))
        for index in families.chunk_items(len(state.desc), DESC_CHUNK, chunk)
    )
    for k, arch_chunk in enumerate(arch_chunks):
        desc_indices = [next(desc_items) for _ in range(DESC_PER_ROUND)]
        yield round_tasks(state, k, arch_chunk, desc_indices, rng)


def sweep_rounds(state: State, rng: random.Random, count: int) -> list[list]:
    """A few rounds of this workload, for the layer sweep of other workloads' traced runs.

    Chunks 300, 307, ... of the weight family each hold collisions, realized
    and unrealizable cases.
    """
    return [
        round_tasks(state, k, 300 + 7 * k, [(k * 131 + 1000) % len(state.desc)], rng)
        for k in range(count)
    ]


def record_rounds(state: State) -> Iterator[list]:
    for index in range(len(state.arch)):
        yield [archimedean_task(state, index)]
    for index in range(len(state.desc)):
        yield [descriptor_task(state, index)]


def family_sizes(state: State) -> dict[str, int]:
    return {ARCH: len(state.arch), DESC: len(state.desc)}


def ratios(res) -> dict[str, float]:
    """Realized sigmas over realizable cases, accessible over enumerated refinements.

    Over the first RATIO_ROUNDS rounds of ``res`` (a LoopResult), so that a
    faster program, which gets through more rounds, covers the same ops.
    """
    end = sum(res.round_sizes[:RATIO_ROUNDS])
    realized = realizable = accessible = enumerated = 0
    for kind, outcome in zip(res.kinds[:end], res.outcomes[:end]):
        if outcome is None:
            continue
        if kind == "archimedean":
            for line in outcome.split("\n"):
                if line != "C":
                    realizable += 1
                    realized += line.startswith("R")
        elif kind == "refinements":
            bits = outcome.split("|")[2]
            enumerated += len(bits)
            accessible += bits.count("1")
    return {
        "transfer.archimedean_realized_ratio": realized / realizable if realizable else float("nan"),
        "refinements.accessible_ratio": accessible / enumerated if enumerated else float("nan"),
    }
