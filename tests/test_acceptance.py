"""Acceptance suite: one test per package-level guarantee.

Every check is exact rational or symbolic arithmetic; nothing is compared up
to tolerance.  Each test prints a single ``[PASS]``/``[FAIL]`` line naming the
criterion it covers; the one test without such a line pins criterion 8's input
generator to the validating constructors.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial

from eigentransfer.errors import NotRelevant
from eigentransfer.laurent import LaurentPoly, elementary_symmetric
from eigentransfer.monomial import Monomial, ONE, SymbolValue, _make, symbol
from eigentransfer.points import (
    AtkinLehnerFactor,
    ClassicalPoint,
    MockFormSpace,
    SphericalFactor,
    build_transferred_space,
    charpoly,
    constant_C,
    divisibility_check,
)
from eigentransfer.refinements import (
    LocalRepDescriptor,
    Segment,
    accessible_transfer_check,
    count_accessible,
    enumerate_refinements,
    is_accessible,
    normalize_point,
    refinement_count_inequality,
    transferred_descriptor,
)
from eigentransfer.tori import (
    AlgebraicWeight,
    GroupShape,
    UnramifiedCharacter,
    modulus_half,
)
from eigentransfer.transfer import (
    TransferConfig,
    archimedean_sigma,
    archimedean_transfer,
    atkin_lehner_pullback,
    block_order_preserving_permutations,
    invert_permutation,
    iota_sigma_pullback,
    refinement_pullback,
    refinement_pullback_normalized,
    satake_param_transfer,
    satake_transfer,
    verify_transfer_compatibility,
    weight_character_pullback,
    weight_map_check,
    weight_pullback,
    weight_shift,
)

HALF = Fraction(1, 2)
ALPHAS = (HALF, -HALF, Fraction(3, 2), Fraction(-3, 2))


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text}")


def compositions(n):
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for tail in compositions(n - head):
            yield (head,) + tail


def family_configs(max_n):
    """Every (shape, sigma, alpha) with n <= max_n and half-integer alpha."""
    for n in range(1, max_n + 1):
        for blocks in compositions(n):
            shape = GroupShape(blocks)
            for sigma in block_order_preserving_permutations(shape):
                for alpha in ALPHAS:
                    yield TransferConfig(source=shape, sigma=sigma, alpha=alpha)


def generic_character(shape, prefix):
    return UnramifiedCharacter(
        shape, tuple(symbol(f"{prefix}{u}") for u in range(shape.n))
    )


def test_criterion_1_compatibility_suite():
    with criterion(
        1,
        "transfer compatibility verifies symbolically for every shape with "
        "n <= 5, every half-integer alpha in {±1/2, ±3/2}, and every "
        "order-preserving slot permutation; dropping the modulus "
        "normalization breaks it whenever there are two or more blocks",
    ):
        checked = 0
        for cfg in family_configs(5):
            assert verify_transfer_compatibility(cfg).passed, cfg
            negative = verify_transfer_compatibility(cfg, drop_normalization=True)
            if cfg.source.r >= 2:
                assert not negative.passed, cfg
            else:
                # a single block transfers to itself, so there is nothing
                # for the dropped normalization to disturb
                assert negative.passed, cfg
            checked += 1
        assert checked == 2532


def test_criterion_2_modulus_duality():
    with criterion(
        2,
        "normalizing before or after transferring differs by exactly the "
        "target half-modulus, symbolically across the same family",
    ):
        for cfg in family_configs(5):
            chi = generic_character(cfg.source, "x")
            lhs = refinement_pullback_normalized(
                chi * modulus_half(cfg.source, -1), cfg
            )
            rhs = refinement_pullback(chi, cfg) * modulus_half(cfg.target, -1)
            assert lhs == rhs, cfg


def dominant_weights(shape, bound=3):
    """All per-block weakly decreasing integer vectors with entries in [-bound, bound]."""
    per_block = [
        list(combinations_with_replacement(range(bound, -bound - 1, -1), b))
        for b in shape.blocks
    ]
    for combo in product(*per_block):
        yield AlgebraicWeight(shape, tuple(x for block in combo for x in block))


def test_criterion_3_archimedean_consistency():
    with criterion(
        3,
        "for every dominant weight with entries in [-3, 3] on shapes with "
        "n <= 4: parameter collisions raise NotRelevant, any returned "
        "permutation reproduces the archimedean weight through the affine "
        "map, and a NotRelevant search means no permutation at all works",
    ):
        realized = unrealizable = collisions = 0
        for n in range(1, 5):
            for blocks in compositions(n):
                shape = GroupShape(blocks)
                identity = tuple(range(n))
                for kappa in dominant_weights(shape):
                    for alpha in ALPHAS:
                        # independent collision predicate
                        ms = []
                        for u in range(n):
                            i, j = shape.block_of(u)
                            twist = (n - blocks[i]) % 2
                            ms.append(
                                kappa.exps[u]
                                + Fraction(blocks[i] + 1, 2)
                                - (j + 1)
                                + alpha * twist
                            )
                        if len(set(ms)) != n:
                            collisions += 1
                            try:
                                archimedean_transfer(kappa, alpha)
                                raise AssertionError(
                                    f"collision not detected: {blocks} {kappa.exps} {alpha}"
                                )
                            except NotRelevant:
                                continue
                        art = archimedean_transfer(kappa, alpha)
                        assert art.weight.is_dominant()
                        shifts = weight_shift(
                            TransferConfig(source=shape, sigma=identity, alpha=alpha)
                        )
                        try:
                            sigma = archimedean_sigma(kappa, alpha)
                        except NotRelevant:
                            unrealizable += 1
                            for tau in permutations(range(n)):
                                inv = invert_permutation(tau)
                                image = tuple(
                                    shifts[p] + kappa.exps[inv[p]] for p in range(n)
                                )
                                assert image != art.weight.exps, (
                                    blocks,
                                    kappa.exps,
                                    alpha,
                                    tau,
                                )
                            continue
                        realized += 1
                        cfg = TransferConfig(source=shape, sigma=sigma, alpha=alpha)
                        assert weight_pullback(kappa, cfg) == art.weight
        assert realized and unrealizable and collisions
        assert realized + unrealizable + collisions == 38360


def test_criterion_4_weight_map_integrality():
    with criterion(
        4,
        "weight shifts are integers and the affine weight map is a lattice "
        "bijection for every half-integer alpha in the family; integer "
        "alpha is flagged exactly when some complementary block size is odd",
    ):
        rng = random.Random(2024)
        for cfg in family_configs(5):
            assert weight_map_check(cfg)
            shifts = weight_shift(cfg)
            assert all(isinstance(s, int) for s in shifts)
            # the map is invertible: recover the source weight from its image
            kappa = AlgebraicWeight(
                cfg.source, tuple(rng.randint(-5, 5) for _ in range(cfg.n))
            )
            image = weight_pullback(kappa, cfg)
            recovered = tuple(
                image.exps[cfg.sigma[u]] - shifts[cfg.sigma[u]] for u in range(cfg.n)
            )
            assert recovered == kappa.exps
        for n in range(1, 6):
            for blocks in compositions(n):
                shape = GroupShape(blocks)
                cfg = TransferConfig(
                    source=shape, sigma=tuple(range(n)), alpha=Fraction(1)
                )
                expected = all((n - b) % 2 == 0 for b in blocks)
                assert weight_map_check(cfg) == expected


def generic_descriptors(max_n):
    """Fresh-symbol descriptors: every shape and every per-block segment partition."""
    for n in range(1, max_n + 1):
        for blocks in compositions(n):
            shape = GroupShape(blocks)
            per_block = [list(compositions(b)) for b in blocks]
            for split in product(*per_block):
                counter = 0
                segments = []
                for lengths in split:
                    block = []
                    for d in lengths:
                        block.append(Segment(symbol(f"s{counter}"), d))
                        counter += 1
                    segments.append(tuple(block))
                yield LocalRepDescriptor(shape, tuple(segments))


def test_criterion_5_refinement_counts():
    with criterion(
        5,
        "the Steinberg representation of GL2 has 1 accessible refinement "
        "of 2, generic principal series of GLn have all n! accessible, and "
        "the multinomial count matches exhaustive enumeration for every "
        "generic descriptor with n <= 4",
    ):
        steinberg = LocalRepDescriptor(GroupShape((2,)), ((Segment(symbol("g"), 2),),))
        assert len(enumerate_refinements(steinberg)) == 2
        assert count_accessible(steinberg) == 1
        for n in range(1, 5):
            ps = LocalRepDescriptor(
                GroupShape((n,)),
                (tuple(Segment(symbol(f"s{i}"), 1) for i in range(n)),),
            )
            refinements = enumerate_refinements(ps)
            assert len(refinements) == factorial(n)
            assert all(is_accessible(ps, chi) for chi in refinements)
            assert count_accessible(ps) == factorial(n)
        for desc in generic_descriptors(4):
            assert desc.is_generic
            refinements = enumerate_refinements(desc)
            total = 1
            for b in desc.shape.blocks:
                total *= factorial(b)
            assert len(refinements) == total
            exhaustive = sum(is_accessible(desc, chi) for chi in refinements)
            assert exhaustive == count_accessible(desc), desc


def test_criterion_6_accessible_transfer():
    with criterion(
        6,
        "transferring never loses accessibility and never decreases the "
        "accessible count, for every generic descriptor with n <= 4 and "
        "every order-preserving slot permutation",
    ):
        for desc in generic_descriptors(4):
            for sigma in block_order_preserving_permutations(desc.shape):
                cfg = TransferConfig(source=desc.shape, sigma=sigma, alpha=HALF)
                assert accessible_transfer_check(desc, cfg), (desc, sigma)
                src, tgt, ok = refinement_count_inequality(desc, cfg)
                assert ok and src <= tgt
                # every individual accessible refinement stays accessible
                moved = transferred_descriptor(desc, cfg)
                for chi in enumerate_refinements(desc):
                    if is_accessible(desc, chi):
                        assert is_accessible(moved, refinement_pullback(chi, cfg))


# ---------------------------------------------------------------------------
# criterion 7: matched form spaces and the divisibility oracle


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_pow(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _poly_mul(out, list(a))
    return out


def _poly_divides(divisor, dividend):
    """Exact division test for ascending-coefficient rational polynomials."""
    divisor = list(divisor)
    dividend = list(dividend)
    while divisor and divisor[-1] == 0:
        divisor.pop()
    assert divisor, "zero divisor"
    lead = divisor[-1]
    degree = len(divisor) - 1
    remainder = list(dividend)
    while len(remainder) - 1 >= degree and any(remainder):
        factor = remainder[-1] / lead
        offset = len(remainder) - 1 - degree
        for k in range(degree + 1):
            remainder[offset + k] -= factor * divisor[k]
        remainder.pop()
    return all(c == 0 for c in remainder)


def _matched_spaces(blocks, sigma, kappa_exps, segment_plan, mults):
    """A source form space built on accessible refinements and its matched target.

    The source points put the normalized eigenvalue system of each accessible
    refinement at the place above p and the descriptor's Satake parameters at
    the tracked place; the target space holds one point for every accessible
    refinement of the transferred descriptor, normalized the same way.
    """
    shape = GroupShape(blocks)
    cfg = TransferConfig(source=shape, sigma=sigma, alpha=HALF)
    kappa = AlgebraicWeight(shape, kappa_exps)
    segments = tuple(
        tuple(Segment(symbol(name), d) for name, d in block) for block in segment_plan
    )
    desc = LocalRepDescriptor(shape, segments)
    satake_blocks = tuple(desc.block_params(i) for i in range(shape.r))

    entries = []
    cycle = iter(mults)
    for chi in enumerate_refinements(desc):
        if is_accessible(desc, chi):
            point = ClassicalPoint.build(
                kappa,
                up={"p": normalize_point(kappa, chi)},
                satake={"v": satake_blocks},
            )
            entries.append((point, next(cycle)))
    source_space = MockFormSpace(kappa, tuple(entries))

    kappa_target = weight_pullback(kappa, cfg)
    moved_desc = transferred_descriptor(desc, cfg)
    moved_satake = (satake_param_transfer(satake_blocks, cfg),)
    target_points = [
        ClassicalPoint.build(
            kappa_target,
            up={"p": normalize_point(kappa_target, psi)},
            satake={"v": moved_satake},
        )
        for psi in enumerate_refinements(moved_desc)
        if is_accessible(moved_desc, psi)
    ]
    target_space = MockFormSpace(
        kappa_target, tuple((point, 1) for point in target_points)
    )
    return cfg, source_space, target_space


def _assignments(extra_symbols):
    base = [
        {"q": SymbolValue(4, 2), "W": SymbolValue(2), "M": SymbolValue(3)},
        {"q": SymbolValue(9, 3), "W": SymbolValue(3), "M": SymbolValue(2)},
        {
            "q": SymbolValue(Fraction(25, 4), Fraction(5, 2)),
            "W": SymbolValue(Fraction(1, 2)),
            "M": SymbolValue(7),
        },
    ]
    fills = [
        [5, 7, 11],
        [7, 5, 13],
        [Fraction(2, 3), 3, Fraction(1, 5)],
    ]
    for table, values in zip(base, fills):
        for name, value in zip(extra_symbols, values):
            table[name] = SymbolValue(value)
    return base


def test_criterion_7_interpolation_divisibility():
    with criterion(
        7,
        "on matched form spaces the transferred characteristic polynomial "
        "divides the target's C-th power for every generator product and "
        "assignment, agreeing with a polynomial-division oracle; a target "
        "missing a matched point fails both checks",
    ):
        cfg, source, target = _matched_spaces(
            blocks=(1, 2),
            sigma=(0, 1, 2),
            kappa_exps=(3, 1, 0),
            segment_plan=((("a", 1),), (("g", 1), ("h", 1))),
            mults=(3, 2),
        )
        dim_source = sum(mult for _, mult in source.entries)
        assert dim_source == 5
        const = constant_C(dim_source, [2, 4])
        assert const == 3
        generators = [
            (AtkinLehnerFactor("p", (1, 0, 0)),),
            (AtkinLehnerFactor("p", (1, 1, 0)),),
            (AtkinLehnerFactor("p", (1, 1, 1)),),
            (AtkinLehnerFactor("p", (2, 1, 0)),),
            (SphericalFactor("v", 1),),
            (SphericalFactor("v", 2),),
            (SphericalFactor("v", 3),),
            (AtkinLehnerFactor("p", (1, 0, 0)), SphericalFactor("v", 2)),
            (AtkinLehnerFactor("p", (1, 1, 1)), SphericalFactor("v", 1)),
        ]
        assignments = _assignments(("a", "g", "h"))
        transferred = build_transferred_space(source, cfg)
        for factors in generators:
            for assign in assignments:
                assert divisibility_check(transferred, target, const, factors, assign)
                src_poly = charpoly(transferred, factors, assign)
                tgt_poly = charpoly(target, factors, assign)
                assert len(src_poly) - 1 == 5  # within the oracle's reach
                assert _poly_divides(src_poly, _poly_pow(tgt_poly, const))

        # removing the target points that match the multiplicity-3 source
        # point must break divisibility for the first Hecke generator
        needed = transferred.entries[0][0]
        kept = tuple(
            (point, mult)
            for point, mult in target.entries
            if point.up_at("p").values[0] != needed.up_at("p").values[0]
        )
        assert len(kept) == len(target.entries) - 2
        broken = MockFormSpace(target.weight, kept)
        probe = generators[0]
        for assign in assignments:
            assert not divisibility_check(transferred, broken, const, probe, assign)
        # oracle and multiplicity check agree generator by generator
        for factors in generators:
            for assign in assignments:
                verdict = divisibility_check(transferred, broken, const, factors, assign)
                oracle = _poly_divides(
                    charpoly(transferred, factors, assign),
                    _poly_pow(charpoly(broken, factors, assign), const),
                )
                assert verdict == oracle

        # a second, fully twisted instance with C = 1
        cfg2, source2, target2 = _matched_spaces(
            blocks=(1, 1),
            sigma=(0, 1),
            kappa_exps=(2, 0),
            segment_plan=((("a", 1),), (("g", 1),)),
            mults=(1,),
        )
        const2 = constant_C(1, [1, 3])
        assert const2 == 1
        generators2 = [
            (AtkinLehnerFactor("p", (1, 0)),),
            (AtkinLehnerFactor("p", (1, 1)),),
            (SphericalFactor("v", 1),),
            (SphericalFactor("v", 2),),
        ]
        transferred2 = build_transferred_space(source2, cfg2)
        for factors in generators2:
            for assign in _assignments(("a", "g")):
                assert divisibility_check(transferred2, target2, const2, factors, assign)
                assert _poly_divides(
                    charpoly(transferred2, factors, assign),
                    _poly_pow(charpoly(target2, factors, assign), const2),
                )


# ---------------------------------------------------------------------------
# criterion 8: homomorphism laws


def _validated_random_character(rng, shape):
    """Criterion 8's input character, built through the validating constructors."""
    values = []
    for _ in range(shape.n):
        coeff = Fraction(rng.randint(1, 9))
        if rng.random() < 0.5:
            coeff = -coeff
        values.append(
            Monomial(
                coeff,
                {
                    "u": Fraction(rng.randint(-4, 4), 2),
                    "v": rng.randint(-3, 3),
                },
            )
        )
    return UnramifiedCharacter(shape, tuple(values))


def _random_character(rng, shape):
    """The same character from the same draws, built from canonical parts: an ``int``
    coefficient and the doubled exponents of ``u`` and ``v`` in name order, zeros dropped."""
    values = []
    for _ in range(shape.n):
        coeff = rng.randint(1, 9)
        if rng.random() < 0.5:
            coeff = -coeff
        twice = (("u", rng.randint(-4, 4)), ("v", 2 * rng.randint(-3, 3)))
        values.append(_make(coeff, tuple([item for item in twice if item[1]])))
    return UnramifiedCharacter._new(shape, tuple(values))


def test_criterion_8_inputs_match_validating_constructor():
    # one seed across every criterion-8 shape, in criterion 8's order
    fast, validated = random.Random(8), random.Random(8)
    for n in range(1, 5):
        for blocks in compositions(n):
            shape = GroupShape(blocks)
            for _ in range(500):
                chi = _random_character(fast, shape)
                ref = _validated_random_character(validated, shape)
                assert chi == ref
                assert [(type(v._coeff), v._twice) for v in chi.values] == [
                    (type(v._coeff), v._twice) for v in ref.values
                ]
    assert fast.getstate() == validated.getstate()


def test_criterion_8_homomorphism_laws():
    with criterion(
        8,
        "on 1000 random character pairs per shape every pullback map "
        "satisfies its (affine) homomorphism law, and the spherical "
        "transfer is a ring homomorphism on symmetric polynomials of "
        "degree up to 4",
    ):
        rng = random.Random(8)
        for n in range(1, 5):
            for blocks in compositions(n):
                shape = GroupShape(blocks)
                sigmas = list(block_order_preserving_permutations(shape))
                cfg = TransferConfig(
                    source=shape, sigma=sigmas[min(1, len(sigmas) - 1)], alpha=HALF
                )
                maps = [
                    lambda chi: refinement_pullback(chi, cfg),
                    lambda chi: refinement_pullback_normalized(chi, cfg),
                    lambda chi: atkin_lehner_pullback(chi, cfg),
                    lambda chi: atkin_lehner_pullback(chi, cfg, normalized=False),
                    lambda chi: weight_character_pullback(chi, cfg),
                ]
                trivial = UnramifiedCharacter.trivial(shape)
                at_one = [f(trivial) for f in maps]
                for index in range(1000):
                    chi = _random_character(rng, shape)
                    psi = _random_character(rng, shape)
                    for f, unit in zip(maps, at_one):
                        # affine law: the fixed twist enters exactly once
                        assert f(chi * psi) * unit == f(chi) * f(psi)
                    if index % 100 == 0:
                        for f, unit in zip(maps, at_one):
                            assert f(chi.inverse()) * f(chi) == unit * unit

        # permutation pullback on a single block is a plain homomorphism
        for n in range(1, 5):
            shape = GroupShape((n,))
            for _ in range(1000):
                chi = _random_character(rng, shape)
                psi = _random_character(rng, shape)
                sigma = list(range(n))
                rng.shuffle(sigma)
                assert iota_sigma_pullback(chi * psi, sigma) == iota_sigma_pullback(
                    chi, sigma
                ) * iota_sigma_pullback(psi, sigma)

        # spherical transfer: ring homomorphism on symmetric polynomials
        for n in range(1, 5):
            target = (n,)
            basis = [elementary_symmetric(target, d) for d in range(min(n, 4) + 1)]
            power2 = sum(
                (LaurentPoly.variable(target, u, 2) for u in range(n)),
                LaurentPoly.zero(target),
            )
            inverse1 = sum(
                (LaurentPoly.variable(target, u, -1) for u in range(n)),
                LaurentPoly.zero(target),
            )
            basis += [power2, inverse1]
            for blocks in compositions(n):
                shape = GroupShape(blocks)
                sigmas = list(block_order_preserving_permutations(shape))
                for sigma in (sigmas[0], sigmas[-1]):
                    cfg = TransferConfig(source=shape, sigma=sigma, alpha=HALF)
                    assert satake_transfer(LaurentPoly.one(target), cfg) == LaurentPoly.one(
                        blocks
                    )
                    images = [satake_transfer(p, cfg) for p in basis]
                    for a, fa in zip(basis, images):
                        for b, fb in zip(basis, images):
                            assert satake_transfer(a + b, cfg) == fa + fb
                            assert satake_transfer(a * b, cfg) == fa * fb
