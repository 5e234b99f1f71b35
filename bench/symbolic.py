"""symbolic-verify: the exhaustive transfer-compatibility family, in process.

One op is one ``TransferConfig`` of the exhaustive family (every composition
with n <= 5, every block-order-preserving sigma, alpha in {±1/2, ±3/2}).  It
runs the verifier with and without the modulus normalisation, then either two
seeded random character pairs through the five pullback maps (checking the
affine homomorphism law slot by slot, and multiplicativity of evaluation on
two generator cocharacters), or, for every eighth config of the family, the
ring law of ``satake_transfer`` on a seeded pair of symmetric polynomials.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from eigentransfer import (
    CocharVector,
    GroupShape,
    LaurentPoly,
    Monomial,
    TransferConfig,
    UnramifiedCharacter,
    atkin_lehner_pullback,
    elementary_symmetric,
    modulus_half,
    refinement_pullback,
    refinement_pullback_normalized,
    satake_transfer,
    verify_transfer_compatibility,
    weight_character_pullback,
    weight_shift,
)

import families
from harness import Task, expect

FAMILY = "symbolic-verify"
CHUNK = 16
PAIRS = 2
SATAKE_EVERY = 8
CHUNKS = {FAMILY: CHUNK}


def _atkin_lehner_unnormalized(chi, cfg):
    return atkin_lehner_pullback(chi, cfg, normalized=False)


MAPS = (
    ("transfer.refinement_pullback", refinement_pullback),
    ("transfer.pullback_normalized", refinement_pullback_normalized),
    ("transfer.atkin_lehner", atkin_lehner_pullback),
    ("transfer.atkin_lehner_unnormalized", _atkin_lehner_unnormalized),
    ("transfer.weight_character", weight_character_pullback),
)

LAYERS = [
    "monomial.construct",
    "monomial.mul",
    "tori.modulus_half",
    "tori.character_mul",
    "tori.character_eval",
    "transfer.config",
    "transfer.weight_shift",
    *(name for name, _ in MAPS),
    "transfer.verify",
    "transfer.verify_drop",
    "transfer.satake_transfer",
    "laurent.mul",
    "laurent.add",
]


class State:
    def __init__(self) -> None:
        self.family = families.config_family(5)
        self.basis: dict[int, list[LaurentPoly]] = {}

    def satake_basis(self, n: int) -> list[LaurentPoly]:
        """Symmetric polynomials on the single target block of size ``n``."""
        if n not in self.basis:
            target = (n,)
            polys = [elementary_symmetric(target, d) for d in range(1, min(n, 3) + 1)]
            zero = LaurentPoly.zero(target)
            polys.append(sum((LaurentPoly.variable(target, u, 2) for u in range(n)), zero))
            polys.append(sum((LaurentPoly.variable(target, u, -1) for u in range(n)), zero))
            self.basis[n] = polys
        return self.basis[n]


def setup() -> State:
    return State()


def random_character_data(rng: random.Random, n: int) -> tuple:
    """Coefficients and exponents of a random character, as in criterion 8."""
    out = []
    for _ in range(n):
        coeff = rng.randint(1, 9) * rng.choice((1, -1))
        out.append((coeff, {"u": Fraction(rng.randint(-4, 4), 2), "v": rng.randint(-3, 3)}))
    return tuple(out)


def generator_exps(blocks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Two dominant generator cocharacters: first entry of block 1, minus the last block."""
    n = sum(blocks)
    first = tuple(1 if u == 0 else 0 for u in range(n))
    last = tuple(-1 if u >= n - blocks[-1] else 0 for u in range(n))
    return [first, last]


def report_text(report) -> str:
    return ";".join(
        f"{c.name}:{int(c.passed)}:{'/'.join(c.residuals)}" for c in report.checks
    )


def op_inputs(state: State, index: int, rng: random.Random) -> tuple:
    """The seeded inputs of one op: a pair of symmetric polynomials, or character pairs."""
    n = sum(state.family[index][0])
    if index % SATAKE_EVERY == 0:
        basis = state.satake_basis(n)
        return (rng.choice(basis), rng.choice(basis)), ()
    pairs = tuple(
        (random_character_data(rng, n), random_character_data(rng, n)) for _ in range(PAIRS)
    )
    return None, pairs


def make_task(state: State, index: int, rng: random.Random) -> Task:
    blocks, sigma, alpha = state.family[index]
    n = sum(blocks)
    polys, pairs = op_inputs(state, index, rng)
    gens = generator_exps(blocks)

    def fn(tr):
        sp = tr.span
        with sp("transfer.config"):
            cfg = TransferConfig(source=GroupShape(blocks), sigma=sigma, alpha=alpha)
        with sp("transfer.weight_shift"):
            shifts = weight_shift(cfg)
        with sp("tori.modulus_half"):
            half = modulus_half(cfg.source, 1)
        with sp("transfer.verify"):
            report = verify_transfer_compatibility(cfg)
        with sp("transfer.verify_drop"):
            dropped = verify_transfer_compatibility(cfg, drop_normalization=True)
        shape = cfg.source
        laws = []
        evals = []
        ring = None
        if polys is not None:
            a, b = polys
            with sp("laurent.mul"):
                ab = a * b
            with sp("laurent.add"):
                a_plus_b = a + b
            images = []
            for poly in (a, b, ab, a_plus_b):
                with sp("transfer.satake_transfer"):
                    images.append(satake_transfer(poly, cfg))
            fa, fb, fab, fsum = images
            with sp("laurent.mul"):
                prod = fa * fb
            with sp("laurent.add"):
                total = fa + fb
            ring = (fab, prod, fsum, total)
        else:
            trivial = UnramifiedCharacter.trivial(shape)
            units = []
            for name, f in MAPS:
                with sp(name):
                    units.append(f(trivial, cfg))
            cochars = [CocharVector(shape, exps) for exps in gens]
            for raw_pair in pairs:
                chars = []
                for raw in raw_pair:
                    values = []
                    for coeff, exps in raw:
                        with sp("monomial.construct"):
                            values.append(Monomial(coeff, exps))
                    chars.append(UnramifiedCharacter(shape, tuple(values)))
                chi, psi = chars
                with sp("tori.character_mul"):
                    prod = chi * psi
                for (name, f), unit in zip(MAPS, units):
                    with sp(name):
                        fp = f(prod, cfg)
                    with sp(name):
                        fc = f(chi, cfg)
                    with sp(name):
                        fs = f(psi, cfg)
                    lhs, rhs = [], []
                    for p in range(n):
                        with sp("monomial.mul"):
                            lhs.append(fp.values[p] * unit.values[p])
                        with sp("monomial.mul"):
                            rhs.append(fc.values[p] * fs.values[p])
                    laws.append((name, lhs, rhs))
                for t in cochars:
                    with sp("tori.character_eval"):
                        e_prod = prod.eval(t)
                    with sp("tori.character_eval"):
                        e_chi = chi.eval(t)
                    with sp("tori.character_eval"):
                        e_psi = psi.eval(t)
                    with sp("monomial.mul"):
                        evals.append((e_prod, e_chi * e_psi))
        return shifts, half, report, dropped, laws, evals, ring

    def check(result) -> str:
        shifts, half, report, dropped, laws, evals, ring = result
        r = len(blocks)
        expect(report.passed, f"verifier fails on {blocks} {sigma} {alpha}")
        expect(
            dropped.passed == (r < 2),
            f"dropped normalization {'passes' if dropped.passed else 'fails'} with r = {r}",
        )
        for name, lhs, rhs in laws:
            expect(lhs == rhs, f"{name}: affine homomorphism law fails")
        for lhs, rhs in evals:
            expect(lhs == rhs, "character evaluation is not multiplicative")
        if ring is not None:
            fab, prod, fsum, total = ring
            expect(fab == prod, "satake_transfer is not multiplicative")
            expect(fsum == total, "satake_transfer is not additive")
        return "|".join(
            (
                f"{blocks}{sigma}{alpha}",
                ",".join(map(str, shifts)),
                ",".join(v.text() for v in half.values),
                report_text(report),
                report_text(dropped),
            )
        )

    return Task("verify", fn, check, (FAMILY, index // CHUNK))


def rounds(state: State, rng: random.Random) -> Iterator[list]:
    count = len(state.family)
    for chunk in families.chunk_order(count, CHUNK, rng):
        for index in families.chunk_items(count, CHUNK, chunk):
            yield [make_task(state, index, rng)]


def sweep_rounds(state: State, rng: random.Random, count: int) -> list[list]:
    """One Satake op and ``count`` n = 5 ops of this workload, for other workloads' sweeps."""
    last = len(state.family)
    return [[make_task(state, index, rng)] for index in [0, *range(last - count, last)]]


def record_rounds(state: State) -> Iterator[list]:
    """Every config once, in canonical order (for recording digests)."""
    rng = random.Random(0)
    for index in range(len(state.family)):
        yield [make_task(state, index, rng)]


def family_sizes(state: State) -> dict[str, int]:
    return {FAMILY: len(state.family)}
