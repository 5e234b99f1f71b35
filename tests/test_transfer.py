"""Tests for the character, weight, and spherical transfer maps."""

import gc
import random
import re
from fractions import Fraction
from functools import cache
from itertools import chain, combinations_with_replacement, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import eigentransfer.transfer as transfer_module
from eigentransfer.errors import (
    InvalidSigma,
    NonIntegralShift,
    NotRelevant,
    NotSymmetric,
    SizeMismatch,
)
from eigentransfer.laurent import LaurentPoly, elementary_symmetric
from eigentransfer.monomial import Monomial, ONE, _times, symbol
from eigentransfer.points import ClassicalPoint, transfer_point
from eigentransfer.refinements import (
    LocalRepDescriptor,
    Segment,
    accessible_transfer_check,
    enumerate_refinements,
    is_accessible,
    refinement_count_inequality,
    transferred_descriptor,
)
from eigentransfer.tori import (
    AlgebraicWeight,
    CocharVector,
    GroupShape,
    UnramifiedCharacter,
    modulus_half,
    weight_as_character,
)
from eigentransfer.transfer import (
    ArchimedeanTransfer,
    CheckResult,
    TransferConfig,
    TransferReport,
    _factorization_residuals,
    _first_realizing_sigma,
    archimedean_sigma,
    archimedean_transfer,
    atkin_lehner_pullback,
    block_order_preserving_permutations,
    dominant_generators,
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

from shapes import compositions

HALF = Fraction(1, 2)


def config(blocks, sigma=None, alpha=HALF, **kw):
    shape = GroupShape(tuple(blocks))
    if sigma is None:
        sigma = tuple(range(shape.n))
    return TransferConfig(source=shape, sigma=tuple(sigma), alpha=alpha, **kw)


def char(shape, *texts):
    return UnramifiedCharacter(GroupShape(shape), tuple(Monomial.parse(t) for t in texts))


def _generic_character(shape, prefix, avoid):
    """The oracles' generic character: value ``name^1`` at position ``u``, where ``name`` is
    ``prefix`` and ``u + 1`` (counting from 1), suffixed with ``_`` until it is not in
    ``avoid``, the verifier's names for its generic symbols."""
    names = []
    for u in range(1, shape.n + 1):
        name = f"{prefix}{u}"
        while name in avoid:
            name += "_"
        names.append(symbol(name))
    return UnramifiedCharacter(shape, tuple(names))


def test_invert_permutation():
    assert invert_permutation((0, 1, 2)) == (0, 1, 2)
    assert invert_permutation((2, 0, 1)) == (1, 2, 0)
    for sigma in permutations(range(4)):
        inv = invert_permutation(sigma)
        assert invert_permutation(inv) == sigma
        assert tuple(sigma[inv[p]] for p in range(4)) == (0, 1, 2, 3)


def test_block_order_preserving_permutations():
    assert list(block_order_preserving_permutations(GroupShape((1, 2)))) == [
        (0, 1, 2),
        (1, 0, 2),
        (2, 0, 1),
    ]
    assert list(block_order_preserving_permutations(GroupShape((3,)))) == [(0, 1, 2)]
    # singleton blocks: every permutation qualifies
    assert sorted(block_order_preserving_permutations(GroupShape((1, 1, 1)))) == sorted(
        permutations(range(3))
    )
    for blocks in [(2, 2), (1, 3), (2, 1, 1), (4,)]:
        shape = GroupShape(blocks)
        sigmas = list(block_order_preserving_permutations(shape))
        expected = factorial(shape.n)
        for b in blocks:
            expected //= factorial(b)
        assert len(sigmas) == expected
        assert len(set(sigmas)) == len(sigmas)
        assert sigmas[0] == tuple(range(shape.n))
        for sigma in sigmas:
            for i in range(shape.r):
                images = [sigma[u] for u in shape.block_range(i)]
                assert images == sorted(images)


def test_dominant_generators():
    gens = dominant_generators(GroupShape((2,)))
    assert [g.exps for g in gens] == [(1, 0), (1, 1), (-1, -1)]
    gens = dominant_generators(GroupShape((1, 2)))
    assert [g.exps for g in gens] == [
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, 1, 1),
        (0, -1, -1),
    ]
    for blocks in [(1,), (3,), (2, 2), (1, 1, 1)]:
        shape = GroupShape(blocks)
        gens = dominant_generators(shape)
        assert len(gens) == shape.n + shape.r
        assert all(g.is_antidominant() for g in gens)


def test_config_validation():
    cfg = config((1, 2), sigma=(2, 0, 1))
    assert cfg.n == 3
    assert cfg.target == GroupShape((3,))
    assert cfg.sigma_inverse == (1, 2, 0)
    assert cfg.alpha == HALF
    assert cfg.mu == "M"
    with pytest.raises(InvalidSigma):
        config((1, 2), sigma=(0, 1))
    with pytest.raises(InvalidSigma):
        config((1, 2), sigma=(0, 0, 1))
    # sigma must be increasing on the size-2 block
    with pytest.raises(InvalidSigma):
        config((1, 2), sigma=(0, 2, 1))
    with pytest.raises(InvalidSigma):
        config((2,), sigma=(1, 0))
    with pytest.raises(ValueError):
        config((1, 1), alpha=Fraction(1, 3))
    with pytest.raises(ValueError):
        config((1, 1), mu="q")
    with pytest.raises(ValueError):
        config((1, 1), mu="W")
    with pytest.raises(ValueError):
        config((1, 1), mu="2m")
    # place tags are not config fields
    for tags in ({"p_places": ("p",)}, {"tracked": ("v",)}):
        with pytest.raises(TypeError):
            config((1, 1), **tags)
    assert config((1, 1), alpha=2).alpha == Fraction(2)
    for alpha in (HALF, 1, "3/2", "-5/2", Fraction(4, 2)):
        cfg = config((1, 1), alpha=alpha)
        assert type(cfg.alpha) is Fraction
        assert cfg.alpha == Fraction(alpha)


def test_half_integer_alpha_rule_is_shared():
    """The config and the archimedean recipe refuse the same alphas with the same text.
    A float is not read as the binary fraction it rounds to: it is refused by the
    exactness rule of the rest of the library boundary."""
    kappa = AlgebraicWeight(GroupShape((1, 1)), (2, 0))
    for alpha, message in (
        (Fraction(1, 3), "alpha must be a half-integer, got 1/3"),
        ("5/4", "alpha must be a half-integer, got 5/4"),
        (0.25, "rationals are ints, Fractions or 'a/b' text, got 0.25"),
    ):
        for build in (
            lambda: config((1, 1), alpha=alpha),
            lambda: archimedean_transfer(kappa, alpha),
            lambda: archimedean_sigma(kappa, alpha),
        ):
            with pytest.raises(ValueError) as err:
                build()
            assert type(err.value) is ValueError
            assert str(err.value) == message


def test_non_integral_sigma_entries_are_refused():
    """``int`` used to truncate these: sigma ``(0.2, 1.9)`` became ``(0, 1)``."""
    with pytest.raises(ValueError) as err:
        TransferConfig((1, 1), (0.2, 1.9), "1/2")
    assert type(err.value) is ValueError
    assert str(err.value) == "sigma entries must be integers, got 0.2"
    with pytest.raises(ValueError) as err:
        TransferConfig((1, 1), (1, "0"), "1/2")
    assert str(err.value) == "sigma entries must be integers, got '0'"
    for sigma in ((1.0, 0), (True, 0)):
        with pytest.raises(ValueError) as err:
            TransferConfig((1, 1), sigma, "1/2")
        assert str(err.value) == f"sigma entries must be integers, got {sigma[0]!r}"
    assert TransferConfig((1, 1), (1, 0), "1/2").sigma == (1, 0)
    chi = char((2,), "a", "b")
    with pytest.raises(ValueError) as err:
        iota_sigma_pullback(chi, (1.5, 0))
    assert type(err.value) is ValueError
    assert str(err.value) == "permutation entries must be integers, got 1.5"
    with pytest.raises(ValueError) as err:
        iota_sigma_pullback(chi, (1.0, 0))
    assert str(err.value) == "permutation entries must be integers, got 1.0"


def test_twist_exponent():
    cfg = config((1, 2))
    assert cfg.twist_exponent(0) == 0  # n - n_1 = 2, even
    assert cfg.twist_exponent(1) == 1  # n - n_2 = 1, odd
    assert cfg.twist_monomial(0) == ONE
    assert cfg.twist_monomial(1) == symbol("M")
    both_odd = config((1, 1))
    assert both_odd.twist_exponent(0) == both_odd.twist_exponent(1) == 1
    assert config((2, 2)).twist_exponent(0) == 0
    assert config((1, 1), mu="nu").twist_monomial(0) == symbol("nu")


def test_iota_sigma_pullback():
    chi = char((3,), "1 * a", "1 * b", "1 * c")
    moved = iota_sigma_pullback(chi, (1, 2, 0))
    assert moved.values == (symbol("c"), symbol("a"), symbol("b"))
    assert iota_sigma_pullback(chi, (0, 1, 2)) == chi
    with pytest.raises(SizeMismatch):
        iota_sigma_pullback(char((1, 1), "1 * a", "1 * b"), (0, 1))
    with pytest.raises(SizeMismatch):
        iota_sigma_pullback(chi, (0, 1))
    with pytest.raises(InvalidSigma):
        iota_sigma_pullback(chi, (0, 0, 1))


def test_iota_sigma_composition():
    chi = char((3,), "1 * a", "2 * b", "1/3 * c")
    for sigma in permutations(range(3)):
        for tau in permutations(range(3)):
            combined = tuple(tau[sigma[u]] for u in range(3))
            assert iota_sigma_pullback(
                iota_sigma_pullback(chi, sigma), tau
            ) == iota_sigma_pullback(chi, combined)


def test_refinement_pullback_anchors():
    # two odd blocks: every slot picks up the twist
    cfg = config((1, 1))
    chi = char((1, 1), "1 * c1", "1 * c2")
    assert refinement_pullback(chi, cfg).values == (
        Monomial.parse("1 * M * c1"),
        Monomial.parse("1 * M * c2"),
    )
    # mixed parity with a moving permutation
    cfg = config((1, 2), sigma=(2, 0, 1))
    chi = char((1, 2), "1 * c1", "1 * c2", "1 * c3")
    assert refinement_pullback(chi, cfg).values == (
        Monomial.parse("1 * M * c2"),
        Monomial.parse("1 * M * c3"),
        Monomial.parse("1 * c1"),
    )
    with pytest.raises(SizeMismatch):
        refinement_pullback(char((2,), "1 * a", "1 * b"), cfg)


def test_refinement_pullback_is_multiplicative():
    rng = random.Random(17)
    for blocks in [(1, 1), (1, 2), (2, 2), (3, 1)]:
        shape = GroupShape(blocks)
        for sigma in block_order_preserving_permutations(shape):
            cfg = config(blocks, sigma=sigma)
            for _ in range(10):
                chi = UnramifiedCharacter(
                    shape,
                    tuple(
                        Monomial(rng.randint(1, 5), {"a": Fraction(rng.randint(-2, 2), 2)})
                        for _ in range(shape.n)
                    ),
                )
                psi = UnramifiedCharacter(
                    shape,
                    tuple(Monomial(1, {"b": rng.randint(-2, 2)}) for _ in range(shape.n)),
                )
                lhs = refinement_pullback(chi * psi, cfg)
                rhs = refinement_pullback(chi, cfg) * refinement_pullback(psi, cfg)
                # affine map: the twist enters once, so divide one copy back out
                twist = refinement_pullback(UnramifiedCharacter.trivial(shape), cfg)
                assert lhs * twist == rhs


def test_refinement_pullback_normalized_anchor():
    cfg = config((1, 1))
    chi = char((1, 1), "1 * c1", "1 * c2")
    assert refinement_pullback_normalized(chi, cfg).values == (
        Monomial.parse("1 * M * c1 * q^(1/2)"),
        Monomial.parse("1 * M * c2 * q^(-1/2)"),
    )


def test_refinement_pullback_normalized_routes():
    # the normalisation can be computed before or after transferring
    rng = random.Random(23)
    for blocks in [(1, 1), (1, 2), (2, 2), (2, 1, 1)]:
        shape = GroupShape(blocks)
        for sigma in block_order_preserving_permutations(shape):
            cfg = config(blocks, sigma=sigma)
            chi = UnramifiedCharacter(
                shape,
                tuple(
                    Monomial(rng.randint(1, 7), {"c": rng.randint(-3, 3)})
                    for _ in range(shape.n)
                ),
            )
            direct = refinement_pullback_normalized(chi, cfg)
            via_source = refinement_pullback(chi * modulus_half(shape, 1), cfg)
            assert direct == via_source * modulus_half(cfg.target, -1)
            # the same identity read through the inverse half modulus
            assert refinement_pullback_normalized(
                chi * modulus_half(shape, -1), cfg
            ) == refinement_pullback(chi, cfg) * modulus_half(cfg.target, -1)


def test_weight_shift_anchors():
    assert weight_shift(config((1, 1))) == (0, 1)
    assert weight_shift(config((1, 2), sigma=(2, 0, 1))) == (-1, 1, 1)
    assert weight_shift(config((1, 1), alpha=Fraction(3, 2))) == (1, 2)
    # even complements need no half-integer alpha
    assert weight_shift(config((2, 2), alpha=1)) == (-1, -1, 1, 1)
    assert weight_shift(config((2,), alpha=1)) == (0, 0)
    with pytest.raises(NonIntegralShift):
        weight_shift(config((1, 2), alpha=1))
    with pytest.raises(NonIntegralShift):
        weight_shift(config((1, 1), alpha=0))


def test_pullback_error_order():
    """A non-integral config and a character on the wrong shape: the
    Atkin-Lehner map reads the shifts first, the other three check the shape first."""
    cfg = config((1, 2), alpha=0)
    wrong = char((3,), "1 * a", "1 * b", "1 * c")
    with pytest.raises(NonIntegralShift) as expected:
        weight_shift(cfg)
    for normalized in (True, False):
        with pytest.raises(NonIntegralShift) as err:
            atkin_lehner_pullback(wrong, cfg, normalized=normalized)
        assert str(err.value) == str(expected.value)
    for pullback in (
        refinement_pullback,
        refinement_pullback_normalized,
        weight_character_pullback,
    ):
        with pytest.raises(SizeMismatch):
            pullback(wrong, cfg)


def test_source_shape_texts():
    """Every map that takes data on the config's source refuses another shape
    through ``transfer._require_source``, with one text naming what it was given."""
    cfg = config((1, 2))
    wrong = GroupShape((3,))
    chi = UnramifiedCharacter.trivial(wrong)
    weight = AlgebraicWeight(wrong, (0, 0, 0))
    desc = LocalRepDescriptor(wrong, ((Segment(symbol("g"), 3),),))
    calls = [
        (refinement_pullback, chi, "character"),
        (refinement_pullback_normalized, chi, "character"),
        (weight_character_pullback, chi, "character"),
        (atkin_lehner_pullback, chi, "character"),
        (weight_pullback, weight, "weight"),
        (transfer_point, ClassicalPoint(weight, (), ()), "point"),
        (transferred_descriptor, desc, "descriptor"),
        (accessible_transfer_check, desc, "descriptor"),
        (refinement_count_inequality, desc, "descriptor"),
    ]
    for fn, data, noun in calls:
        with pytest.raises(SizeMismatch) as err:
            fn(data, cfg)
        assert str(err.value) == f"{noun} on (3) does not match config source (1,2)", fn


def test_weight_map_check():
    assert weight_map_check(config((1, 2)))
    assert weight_map_check(config((2, 2), alpha=1))
    assert not weight_map_check(config((1, 2), alpha=1))
    assert not weight_map_check(config((1, 1), alpha=-1))


def test_weight_pullback():
    shape = GroupShape((1, 1))
    kappa = AlgebraicWeight(shape, (2, 0))
    assert weight_pullback(kappa, config((1, 1))).exps == (2, 1)
    # the shift is pinned to the slot; the weight entry travels with sigma
    assert weight_pullback(kappa, config((1, 1), sigma=(1, 0))).exps == (0, 3)
    kappa3 = AlgebraicWeight(GroupShape((1, 2)), (0, 3, 1))
    assert weight_pullback(kappa3, config((1, 2), sigma=(2, 0, 1))).exps == (2, 2, 1)
    with pytest.raises(SizeMismatch):
        weight_pullback(kappa, config((2,)))
    with pytest.raises(NonIntegralShift):
        weight_pullback(kappa, config((1, 1), alpha=1))


def test_weight_character_pullback_matches_weight_pullback():
    from eigentransfer.tori import weight_as_character

    rng = random.Random(3)
    for blocks in [(1, 1), (1, 2), (2, 2)]:
        shape = GroupShape(blocks)
        for sigma in block_order_preserving_permutations(shape):
            cfg = config(blocks, sigma=sigma)
            kappa = AlgebraicWeight(shape, tuple(rng.randint(-3, 3) for _ in range(shape.n)))
            assert weight_as_character(
                weight_pullback(kappa, cfg)
            ) == weight_character_pullback(weight_as_character(kappa), cfg)


def test_atkin_lehner_pullback_anchor():
    cfg = config((1, 1))
    chi = char((1, 1), "1 * c1", "1 * c2")
    assert atkin_lehner_pullback(chi, cfg).values == (
        Monomial.parse("1 * M * c1 * q^(1/2)"),
        Monomial.parse("1 * M * W * c2 * q^(-1/2)"),
    )
    assert atkin_lehner_pullback(chi, cfg, normalized=False).values == (
        Monomial.parse("1 * M * c1"),
        Monomial.parse("1 * M * W * c2"),
    )


def test_verify_transfer_compatibility_passes():
    for blocks, alphas in [
        ((1, 1), (HALF, -HALF, Fraction(3, 2))),
        ((1, 2), (HALF,)),
        ((2, 3), (-HALF,)),
        ((2, 1, 1), (HALF,)),
        ((3,), (HALF, 1)),
    ]:
        shape = GroupShape(blocks)
        for sigma in block_order_preserving_permutations(shape):
            for alpha in alphas:
                report = verify_transfer_compatibility(config(blocks, sigma=sigma, alpha=alpha))
                assert report.passed, (blocks, sigma, alpha, report)
                assert report.verdict == "pass"
                assert [c.name for c in report.checks] == [
                    "shift-integrality",
                    "atkin-lehner-factorization",
                    "modulus-duality",
                ]
                assert all(c.residuals == () for c in report.checks)


def test_verify_transfer_compatibility_nonintegral_shift():
    report = verify_transfer_compatibility(config((1, 2), alpha=1))
    assert not report.passed
    assert report.verdict == "fail"
    by_name = {c.name: c for c in report.checks}
    assert not by_name["shift-integrality"].passed
    assert not by_name["atkin-lehner-factorization"].passed
    assert by_name["atkin-lehner-factorization"].residuals == (
        "skipped: weight shifts are not integral",
    )
    # the duality identity involves no weight shift and still holds
    assert by_name["modulus-duality"].passed


def test_verify_negative_control():
    report = verify_transfer_compatibility(config((1, 1)), drop_normalization=True)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    failing = by_name["atkin-lehner-factorization"]
    assert not failing.passed
    # the full residual tuple: on t=(1, 1) and on the negated full block
    # t=(-1, -1) the two half-modulus ratios cancel, so neither is listed
    assert failing.residuals == ("t=(1, 0): 1 * q^(-1/2)",)
    # with a single source block the normalisations coincide, so dropping
    # them changes nothing
    assert verify_transfer_compatibility(config((3,)), drop_normalization=True).passed


def _rebuilt_verifier(cfg):
    """The verifier rebuilt from its definition in ``verify_transfer_compatibility``'s
    docstring, through the public maps alone: the generic characters ``chi`` and ``zeta``
    pulled back, both sides of the factorization evaluated at every target generator
    (``_generator_oracle``), and both sides of the duality compared at every basis vector.
    Returns the report's ``repr`` for each ``drop_normalization``, keyed by it."""
    try:
        weight_shift(cfg)
        shift_check = CheckResult("shift-integrality", True)
    except NonIntegralShift as err:
        shift_check = CheckResult("shift-integrality", False, (str(err),))
    chi = _generic_character(cfg.source, "x", {cfg.mu})
    zeta = _generic_character(cfg.source, "z", {cfg.mu})
    lhs = refinement_pullback_normalized(chi * modulus_half(cfg.source, -1), cfg)
    rhs = refinement_pullback(chi, cfg) * modulus_half(cfg.target, -1)
    residuals = tuple(
        f"e_{p + 1}: {(a / b).text()}"
        for p, (a, b) in enumerate(zip(lhs.values, rhs.values))
        if a != b
    )
    duality = CheckResult("modulus-duality", not residuals, residuals)
    if shift_check.passed:
        rhs = refinement_pullback_normalized(chi, cfg) * weight_character_pullback(zeta, cfg)
    reports = {}
    for drop in (False, True):
        if shift_check.passed:
            lhs = atkin_lehner_pullback(chi * zeta, cfg, normalized=not drop)
            residuals = _generator_oracle(lhs, rhs)
            factorization = CheckResult("atkin-lehner-factorization", not residuals, residuals)
        else:
            skipped = ("skipped: weight shifts are not integral",)
            factorization = CheckResult("atkin-lehner-factorization", False, skipped)
        reports[drop] = repr(TransferReport((shift_check, factorization, duality)))
    return reports


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_matches_rebuilt_verifier(n):
    """The verifier against its definition: every config with this n and every sigma;
    alphas -3/2 .. 5/2 in steps of 1/2, whose shifts are integral or, for 0 and 1 on
    some shapes, not (the "skipped" branch); the twist ``M`` and ``x1``, which collides
    with a generic symbol.  Each config is checked in both call orders, each order on a
    fresh object, so the second call of each reads the half the first one built."""
    alphas = [Fraction(a, 2) for a in (-3, -1, 0, 1, 2, 3, 5)]
    verdicts = set()
    for blocks in compositions(n):
        for sigma in block_order_preserving_permutations(GroupShape(blocks)):
            for alpha, mu in product(alphas, ("M", "x1")):
                expected = _rebuilt_verifier(config(blocks, sigma, alpha, mu=mu))
                for order in ((False, True), (True, False)):
                    cfg = config(blocks, sigma, alpha, mu=mu)
                    for drop in order:
                        report = verify_transfer_compatibility(cfg, drop_normalization=drop)
                        assert repr(report) == expected[drop], (cfg, order, drop)
                        verdicts.add((drop, report.checks[1].residuals[:1]))
    # every branch ran: passes, failures with residuals and skipped checks
    assert (False, ()) in verdicts
    if n > 1:
        assert (False, ("skipped: weight shifts are not integral",)) in verdicts
        assert any(drop and res and res[0].startswith("t=") for drop, res in verdicts)
    if n == 2:
        assert (True, ("t=(1, 0): 1 * q^(-1/2)",)) in verdicts


@st.composite
def _verifier_inputs(draw):
    """A config with n <= 7: random blocks, a block-order-preserving sigma (a random
    permutation sorted on each block), an alpha in (1/2)Z, integral or not, and a
    twist name that may collide with a generic symbol or its renamed form."""
    n = draw(st.integers(1, 7))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    bounds = [0, *cuts, n]
    blocks = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    images = draw(st.permutations(range(n)))
    sigma = tuple(p for a, b in zip(bounds, bounds[1:]) for p in sorted(images[a:b]))
    alpha = Fraction(draw(st.integers(-7, 7)), 2)
    mu = draw(
        st.sampled_from(("M", "x1", "z3", "x2_", "z1_", "x7"))
        | st.from_regex(r"[xzM][1-8]_?", fullmatch=True)
    )
    return blocks, sigma, alpha, mu


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_verifier_inputs())
def test_row_verifier_matches_rebuilt_verifier_property(inputs):
    """The verifier against its definition on random configs up to n = 7, on a fresh
    config in each call order."""
    blocks, sigma, alpha, mu = inputs
    expected = _rebuilt_verifier(config(blocks, sigma, alpha, mu=mu))
    for order in ((False, True), (True, False)):
        cfg = config(blocks, sigma, alpha, mu=mu)
        for drop in order:
            report = verify_transfer_compatibility(cfg, drop_normalization=drop)
            assert repr(report) == expected[drop], (cfg, order, drop)


def test_verifier_rows_carry_the_generic_symbols():
    """The factorization rows keep ``x_u`` and ``z_u`` by name and compare them: they
    are not assumed to cancel.  A config whose kept half was built for another sigma
    of its shape fails with the generic symbols in its residuals, in the texts that
    the ``Monomial`` sides of the two configs give."""
    blocks = (2, 1, 2)
    first, *others = block_order_preserving_permutations(GroupShape(blocks))
    for sigma in others:
        kept = config(blocks, first, mu="x1")
        cfg = config(blocks, sigma, mu="x1")
        cfg.__dict__["_verifier_half"] = kept._verifier_half
        chi = _generic_character(cfg.source, "x", {"x1"})
        zeta = _generic_character(cfg.source, "z", {"x1"})
        rhs = refinement_pullback_normalized(chi, kept) * weight_character_pullback(zeta, kept)
        for drop in (False, True):
            lhs = atkin_lehner_pullback(chi * zeta, cfg, normalized=not drop)
            expected = _generator_oracle(lhs, rhs)
            factorization = verify_transfer_compatibility(cfg, drop).checks[1]
            assert factorization.residuals == expected, (sigma, drop)
            assert not factorization.passed
            assert any("z" in text for text in expected)


_WRONG_TABLES = {
    "times q^(1/2)": lambda rows, mu: tuple(_times(row, "q", 1) for row in rows),
    "times W": lambda rows, mu: tuple(_times(row, "W", 2) for row in rows),
    "times the twist": lambda rows, mu: tuple(_times(row, mu, 2) for row in rows),
    "in reverse slot order": lambda rows, mu: rows[::-1],
}


def test_wrong_slot_tables_give_the_rebuilt_duality_residuals():
    """The modulus-duality check reads the shipped ``_normalized_multipliers`` and
    ``_slot_twists``.  A config given a wrong one before its first verifier call gives
    the report of the ``Monomial`` oracle, whose public pullbacks apply the same wrong
    table: every config with n <= 4, the twist ``M`` and ``x1``, each table multiplied
    by ``q^(1/2)``, ``W`` or the twist symbol at every slot (the duality check then
    fails with ``e_p`` residuals) or read in reverse slot order."""
    texts = set()
    for n in range(1, 5):
        for blocks in compositions(n):
            for sigma in block_order_preserving_permutations(GroupShape(blocks)):
                for mu, name, (how, wrong) in product(
                    ("M", "x1"), ("_normalized_multipliers", "_slot_twists"), _WRONG_TABLES.items()
                ):
                    cfg = config(blocks, sigma, mu=mu)
                    cfg.__dict__[name] = wrong(getattr(cfg, name), mu)
                    expected = _rebuilt_verifier(cfg)
                    for drop in (False, True):
                        report = verify_transfer_compatibility(cfg, drop)
                        assert repr(report) == expected[drop], (cfg, how)
                    duality = report.checks[2]
                    assert duality.passed in (False, how == "in reverse slot order")
                    assert all(text.startswith("e_") for text in duality.residuals)
                    texts.update(duality.residuals)
    assert {"e_1: 1 * q^(1/2)", "e_1: 1 * W^-1", "e_2: 1 * x1^-1"} <= texts


def _generator_oracle(lhs, rhs):
    """The factorization's residual texts: ``lhs(t) * rhs(t)^-1`` at each generator ``t`` of
    the characters' single-block shape, in ``dominant_generators`` order, where it is not one."""
    values = ((gen, lhs.eval(gen) / rhs.eval(gen)) for gen in dominant_generators(lhs.shape))
    return tuple(f"t={gen.exps}: {value.text()}" for gen, value in values if not value.is_one())


def test_factorization_residuals_read_prefix_products():
    q_half, q_back, w = ((("q", 1),), (("q", -1),), (("W", 2),))
    zero = (("q", 0),)
    assert _factorization_residuals((q_half, q_back, w), (zero, zero, (("W", 0),))) == (
        "t=(1, 0, 0): 1 * q^(1/2)",
        "t=(1, 1, 1): 1 * W",
        "t=(-1, -1, -1): 1 * W^-1",
    )
    # a full product of 1, as every config's: no residual at the negated full vector
    assert _factorization_residuals((q_half, q_back), (zero, zero)) == ("t=(1, 0): 1 * q^(1/2)",)
    # entries that differ by name are both kept
    assert _factorization_residuals(((("x1", 2),),), ((("x2", 2),),)) == (
        "t=(1,): 1 * x1 * x2^-1",
        "t=(-1,): 1 * x1^-1 * x2",
    )


def _row_character(rows):
    """The single-block character whose value at slot ``p`` is the monomial of the row
    ``rows[p]``, through public ``Monomial`` products."""
    power = lambda row: prod((symbol(name, Fraction(t, 2)) for name, t in row), start=ONE)
    return UnramifiedCharacter(GroupShape((len(rows),)), tuple(map(power, rows)))


@st.composite
def _residual_rows(draw):
    """Two rows per slot, n = 1..6, canonical as the verifier's merged rows are: sorted by
    name with no zero entry, so the two rows of a slot may differ in length.  Doubled
    exponents -3..3 may cancel across slots; a slot's rows are often equal, and otherwise
    each entry of the first row is kept, given another exponent or dropped, and the
    second row may hold names of its own."""
    n = draw(st.integers(1, 6))
    exps = st.integers(-3, 3)
    names = st.sampled_from(("M", "W", "q", "x1", "x2", "z1"))
    canonical = lambda twice: tuple(sorted(item for item in twice.items() if item[1]))
    lhs, rhs = [], []
    for _ in range(n):
        a = canonical(dict(draw(st.lists(st.tuples(names, exps), max_size=4))))
        if draw(st.booleans()):
            b = a
        else:
            twice = {name: draw(st.sampled_from((t, 0)) | exps) for name, t in a}
            twice.update(draw(st.lists(st.tuples(names, exps), max_size=2)))
            b = canonical(twice)
        lhs.append(a)
        rhs.append(b)
    return tuple(lhs), tuple(rhs)


@settings(max_examples=400, derandomize=True, database=None)
@given(_residual_rows())
def test_factorization_residuals_match_generator_oracle(rows):
    """Running sums of the differing entries against ``eval`` of both sides' characters
    at each generator, the characters built from the rows by ``Monomial`` products."""
    lhs, rhs = rows
    assert _factorization_residuals(lhs, rhs) == _generator_oracle(
        _row_character(lhs), _row_character(rhs)
    )


def test_archimedean_transfer_anchors():
    shape = GroupShape((1, 1))
    art = archimedean_transfer(AlgebraicWeight(shape, (2, 0)), HALF)
    assert art.weight.exps == (2, 1)
    assert art.sigma == (0, 1)
    # entries out of order across blocks force a nontrivial sort
    art = archimedean_transfer(AlgebraicWeight(shape, (0, 5)), HALF)
    assert art.weight.exps == (5, 1)
    assert art.sigma == (1, 0)
    art = archimedean_transfer(AlgebraicWeight(GroupShape((3,)), (4, 2, 0)), HALF)
    assert art.weight.exps == (4, 2, 0)
    assert art.sigma == (0, 1, 2)
    assert isinstance(art, ArchimedeanTransfer)


def test_archimedean_transfer_errors():
    shape = GroupShape((1, 1))
    with pytest.raises(NotRelevant):
        archimedean_transfer(AlgebraicWeight(shape, (0, 0)), HALF)
    with pytest.raises(ValueError):
        archimedean_transfer(AlgebraicWeight(GroupShape((2,)), (0, 1)), HALF)
    with pytest.raises(ValueError):
        archimedean_transfer(AlgebraicWeight(shape, (2, 0)), Fraction(1, 3))
    # integer alpha shifts the lattice off the integers here
    with pytest.raises(NonIntegralShift):
        archimedean_transfer(AlgebraicWeight(shape, (2, 0)), 1)


def test_collision_text_spells_wholes_and_halves():
    """A collision message spells each parameter as ``str(Fraction(d, 2))`` does for its
    doubled value ``d``: a whole number when ``d`` is even, ``d/2`` when it is odd."""
    cases = [
        ((1, 1), (0, 0), HALF, "1/2, 1/2"),
        ((1, 1), (0, 0), 1, "1, 1"),
        ((1, 1), (-3, -3), HALF, "-5/2, -5/2"),
        ((1, 1), (-3, -3), 1, "-2, -2"),
        ((1, 1, 2), (0, 0, 0, 0), 1, "-1/2, 1/2, 1, 1"),
        ((1, 1, 2), (0, 0, 0, 0), -1, "-1, -1, -1/2, 1/2"),
    ]
    for blocks, exps, alpha, text in cases:
        kappa = AlgebraicWeight(GroupShape(blocks), exps)
        expected = (NotRelevant, f"archimedean parameters collide: {text}")
        assert _outcome(_fraction_archimedean_transfer, kappa, alpha) == expected
        assert _outcome(archimedean_transfer, kappa, alpha) == expected


def test_archimedean_transfer_is_dominant():
    rng = random.Random(41)
    for blocks in [(1, 1), (2, 1), (1, 3), (2, 2)]:
        shape = GroupShape(blocks)
        for _ in range(50):
            exps = []
            for i in range(shape.r):
                block = sorted(
                    (rng.randint(-3, 3) for _ in range(shape.blocks[i])), reverse=True
                )
                exps.extend(block)
            kappa = AlgebraicWeight(shape, tuple(exps))
            for alpha in (HALF, -HALF, Fraction(3, 2)):
                try:
                    art = archimedean_transfer(kappa, alpha)
                except NotRelevant:
                    continue
                assert art.weight.is_dominant()
                images = [art.sigma[u] for u in range(shape.n)]
                assert sorted(images) == list(range(shape.n))
                for i in range(shape.r):
                    blk = [art.sigma[u] for u in shape.block_range(i)]
                    assert blk == sorted(blk)


def test_archimedean_sigma_realizes():
    shape = GroupShape((1, 1))
    kappa = AlgebraicWeight(shape, (0, 5))
    sigma = archimedean_sigma(kappa, HALF)
    assert sigma == (1, 0)
    cfg = config((1, 1), sigma=sigma)
    assert weight_pullback(kappa, cfg) == archimedean_transfer(kappa, HALF).weight


def test_archimedean_sigma_parses_alpha_once(monkeypatch):
    """A string alpha is parsed once, and a non-dominant weight is refused before a bad alpha."""
    parse, calls = transfer_module._doubled_alpha, []
    monkeypatch.setattr(
        transfer_module, "_doubled_alpha", lambda alpha: calls.append(alpha) or parse(alpha)
    )
    kappa = AlgebraicWeight(GroupShape((1, 1)), (0, 5))
    assert archimedean_sigma(kappa, "1/2") == (1, 0)
    assert calls == ["1/2"]
    with pytest.raises(ValueError, match="^archimedean transfer needs a dominant weight$"):
        archimedean_sigma(AlgebraicWeight(GroupShape((2,)), (0, 3)), "1/3")
    with pytest.raises(ValueError, match="^alpha must be a half-integer, got 1/3$"):
        archimedean_sigma(kappa, "1/3")


def test_archimedean_sigma_unrealizable():
    # the sorted target weight cannot be written as shift + permuted source
    # weight for any permutation at all, order-preserving or not
    shape = GroupShape((1, 2))
    kappa = AlgebraicWeight(shape, (0, 3, 1))
    art = archimedean_transfer(kappa, HALF)
    assert art.weight.exps == (3, 1, 1)
    with pytest.raises(NotRelevant):
        archimedean_sigma(kappa, HALF)
    shifts = weight_shift(config((1, 2)))
    for tau in permutations(range(3)):
        inv = invert_permutation(tau)
        image = tuple(shifts[p] + kappa.exps[inv[p]] for p in range(3))
        assert image != art.weight.exps


def test_recipe_refuses_exactly_the_non_integral_shifts():
    """The recipe's doubled output at a slot of block ``i`` has the parity of block
    ``i``'s doubled weight shift.  So when no parameters collide, the recipe raises
    ``NonIntegralShift`` exactly when some shift is not an integer, and the shifts
    that ``archimedean_sigma`` reads after a returned recipe never raise: every
    dominant weight with entries -2..2 on every shape with n <= 4, under alphas 0,
    1/2, 1 and 3/2."""
    seen = set()
    for n in range(1, 5):
        for blocks in compositions(n):
            shape = GroupShape(blocks)
            alphas = (0, HALF, 1, Fraction(3, 2))
            integral = {alpha: weight_map_check(config(blocks, alpha=alpha)) for alpha in alphas}
            for exps in product(range(-2, 3), repeat=n):
                weight = AlgebraicWeight(shape, exps)
                if not weight.is_dominant():
                    continue
                for alpha in alphas:
                    try:
                        art, two_alpha = transfer_module._archimedean_transfer(weight, alpha)
                    except NotRelevant:
                        continue
                    except NonIntegralShift:
                        assert not integral[alpha], (blocks, exps, alpha)
                        seen.add("refused")
                        continue
                    assert integral[alpha], (blocks, exps, alpha)
                    # reads the shifts, which are integers here: no NonIntegralShift
                    transfer_module._realizing_sigma(weight, art, two_alpha)
                    seen.add("returned")
    assert seen == {"refused", "returned"}


def test_satake_transfer_anchors():
    cfg = config((1, 1))
    target = (2,)
    e1 = elementary_symmetric(target, 1)
    image = satake_transfer(e1, cfg)
    assert image == LaurentPoly(
        (1, 1), {(1, 0): symbol("M"), (0, 1): symbol("M")}
    )
    e2 = elementary_symmetric(target, 2)
    assert satake_transfer(e2, cfg) == LaurentPoly((1, 1), {(1, 1): symbol("M", 2)})
    # every symbolic coefficient on one exponent vector is kept
    ab = LaurentPoly.constant(target, symbol("a")) + LaurentPoly.constant(target, symbol("b"))
    a_plus_b = LaurentPoly.constant((1, 1), symbol("a")) + LaurentPoly.constant((1, 1), symbol("b"))
    assert satake_transfer(ab * e1, cfg) == a_plus_b * image
    # constants pass through untouched
    assert satake_transfer(LaurentPoly.constant(target, 7), cfg) == LaurentPoly.constant(
        (1, 1), 7
    )


def test_satake_transfer_errors():
    cfg = config((1, 1))
    with pytest.raises(NotSymmetric):
        satake_transfer(LaurentPoly.variable((2,), 0), cfg)
    with pytest.raises(SizeMismatch):
        satake_transfer(LaurentPoly.one((1, 1)), cfg)
    with pytest.raises(SizeMismatch):
        satake_transfer(LaurentPoly.one((3,)), cfg)


def test_satake_transfer_elementary_formula():
    # e_d pulls back to the sum over d-subsets with each variable twisted
    from itertools import combinations

    for blocks in [(1, 1), (1, 2), (2, 2)]:
        shape = GroupShape(blocks)
        n = shape.n
        for sigma in block_order_preserving_permutations(shape):
            cfg = config(blocks, sigma=sigma)
            for d in range(n + 1):
                expected_terms = {}
                for subset in combinations(range(n), d):
                    exps = tuple(1 if u in subset else 0 for u in range(n))
                    twist = sum(
                        cfg.twist_exponent(shape.block_of(u)[0]) for u in subset
                    )
                    expected_terms[exps] = Monomial(1, {"M": twist})
                assert satake_transfer(
                    elementary_symmetric((n,), d), cfg
                ) == LaurentPoly(blocks, expected_terms)


def test_satake_transfer_is_ring_homomorphism():
    cfg = config((1, 2), sigma=(1, 0, 2))
    target = (3,)
    e = [elementary_symmetric(target, d) for d in range(4)]
    p2 = sum(
        (LaurentPoly.variable(target, u, 2) for u in range(3)),
        LaurentPoly.zero(target),
    )
    pm1 = sum(
        (LaurentPoly.variable(target, u, -1) for u in range(3)),
        LaurentPoly.zero(target),
    )
    # sums of distinct symbolic coefficients that share an exponent vector
    ab = LaurentPoly.constant(target, symbol("a")) + LaurentPoly.constant(target, symbol("b"))
    samples = [e[0], e[1], e[2], e[3], p2, pm1, e[1] * e[2] - 3 * p2]
    samples += [ab * e[1], ab * e[2] - pm1]
    for a in samples:
        for b in samples:
            assert satake_transfer(a * b, cfg) == satake_transfer(a, cfg) * satake_transfer(
                b, cfg
            )
            assert satake_transfer(a + b, cfg) == satake_transfer(a, cfg) + satake_transfer(
                b, cfg
            )
        assert satake_transfer(a, cfg).is_block_symmetric()


def test_satake_transfer_sigma_independent_on_symmetric_inputs():
    for blocks in [(1, 2), (2, 2), (1, 1, 1)]:
        shape = GroupShape(blocks)
        n = shape.n
        configs = [
            config(blocks, sigma=sigma)
            for sigma in block_order_preserving_permutations(shape)
        ]
        for d in range(1, n + 1):
            results = [
                satake_transfer(elementary_symmetric((n,), d), cfg) for cfg in configs
            ]
            assert all(res == results[0] for res in results)


def test_satake_param_transfer():
    cfg = config((1, 1))
    out = satake_param_transfer(((symbol("s1"),), (symbol("s2"),)), cfg)
    assert out == (Monomial.parse("1 * M * s1"), Monomial.parse("1 * M * s2"))
    cfg = config((1, 2), sigma=(2, 0, 1))
    out = satake_param_transfer(
        ((symbol("a"),), (symbol("b"), symbol("c"))), cfg
    )
    # block 1 is untwisted here; ordering is by canonical text
    assert out == (
        Monomial.parse("1 * M * b"),
        Monomial.parse("1 * M * c"),
        Monomial.parse("1 * a"),
    )
    # the result ignores sigma entirely
    assert out == satake_param_transfer(
        ((symbol("a"),), (symbol("b"), symbol("c"))), config((1, 2))
    )
    with pytest.raises(SizeMismatch):
        satake_param_transfer(((symbol("a"), symbol("b")),), cfg)
    with pytest.raises(SizeMismatch):
        satake_param_transfer(((symbol("a"),), (symbol("b"),)), cfg)
    # the twist is a row of doubled exponents: each value keeps its own coefficient
    half = Monomial(Fraction(-3, 2), {"s": Fraction(1, 2)})
    out = satake_param_transfer(((half,), (Monomial(4), symbol("c"))), cfg)
    assert out == (half, Monomial.parse("1 * M * c"), Monomial.parse("4 * M"))
    assert [type(m.coeff) for m in out] == [Fraction] * 3
    for bad in (3, Fraction(1, 2), "s"):
        with pytest.raises(ValueError, match="^Satake parameters must be Monomials$"):
            satake_param_transfer(((symbol("a"),), (symbol("b"), bad)), cfg)


@cache
def _block_shifts(blocks, alpha):
    """Oracle: the weight shift at every position of each block ``i``, by ``weight_shift``'s
    docstring ``alpha·[n - n_i odd] + (n_i - n)/2 + offset_i``, in ``Fraction`` arithmetic."""
    n, offset, shifts = sum(blocks), 0, []
    for m in blocks:
        shifts.append(Fraction(alpha) * ((n - m) % 2) + Fraction(m - n, 2) + offset)
        offset += m
    return tuple(shifts)


def _plain_atkin_lehner_pullback(chi, cfg):
    return atkin_lehner_pullback(chi, cfg, normalized=False)


def _multipliers(blocks, sigma, alpha, mu):
    """Oracle: the multiplier of each of the five affine maps at every target slot, from
    the module docstring alone, in public ``Monomial`` products.  Slot ``p`` takes
    ``u = sigma^-1(p)``, entry ``j`` (from 0) of block ``i`` of size ``m``: the twist
    ``mu^[n - m odd]``; when normalized, times the source half-modulus at ``u``,
    ``q^((2j + 1 - m)/2)``, and the inverse target half-modulus at ``p``,
    ``q^((n - 1 - 2p)/2)``; when weighted, times ``W`` to the shift at flat position ``p``
    (``_block_shifts``).

    Returns the shifts and a dict from each map to its multipliers.  When a shift is not
    an integer, the shifts and each weighted map's multipliers are the ``NonIntegralShift``
    text of the first such block instead."""
    n, block_shifts = len(sigma), _block_shifts(blocks, alpha)
    error = next(
        (
            f"weight shift {shift} at block {i + 1} is not an integer (alpha = {alpha})"
            for i, shift in enumerate(block_shifts)
            if shift.denominator != 1
        ),
        None,
    )
    twists, halves, shifts = [], [], []
    for m, shift in zip(blocks, block_shifts):
        for j in range(m):
            twists.append(symbol(mu, (n - m) % 2))
            halves.append(symbol("q", Fraction(2 * j + 1 - m, 2)))
            shifts.append(shift)
    plain, normalized = [], []
    for p in range(n):
        u = sigma.index(p)
        plain.append(twists[u])
        normalized.append(twists[u] * halves[u] * symbol("q", Fraction(n - 1 - 2 * p, 2)))
    w = [symbol("W", shift) for shift in shifts]
    return error or tuple(map(int, shifts)), {
        refinement_pullback: plain,
        refinement_pullback_normalized: normalized,
        weight_character_pullback: error or w,
        atkin_lehner_pullback: error or [a * b for a, b in zip(w, normalized)],
        _plain_atkin_lehner_pullback: error or [a * b for a, b in zip(w, plain)],
    }


def test_pullbacks_match_the_multiplier_definition():
    """Every config with n <= 5, with integral and non-integral shifts, and a twist
    symbol that sorts before ``W`` (``M``, under alphas -3/2 .. 3/2 in steps of 1/2),
    between ``W`` and ``q`` (``mu``, ``x1``) and after ``q`` (``z``, ``z3``), each of
    those four under alphas 1/2 and 1, since the multipliers are kept pre-sorted:
    ``weight_shift`` and all five maps against the oracle, with the oracle's
    ``NonIntegralShift`` text from the weighted ones, and the inverse of ``sigma`` stored
    by the constructor.  Each map and ``weight_shift`` is read twice, so a config that
    kept ``None`` or the error for a non-integral shift, instead of raising again, fails."""
    twists = [(Fraction(a, 2), "M") for a in (-3, -1, 0, 1, 2, 3)]
    twists += [(alpha, mu) for mu in ("mu", "x1", "z", "z3") for alpha in (HALF, Fraction(1))]
    seen = set()
    for n in range(1, 6):
        for blocks in compositions(n):
            shape = GroupShape(blocks)
            chi = UnramifiedCharacter(
                shape,
                tuple(Monomial(u + 2, {f"x{u}": 1, "q": Fraction(u - 2, 2)}) for u in range(n)),
            )
            for sigma, (alpha, mu) in product(block_order_preserving_permutations(shape), twists):
                cfg = TransferConfig(source=shape, sigma=sigma, alpha=alpha, mu=mu)
                # the permutation check inverts sigma, so the inverse is held from the start
                assert "sigma_inverse" in vars(cfg)
                assert cfg.sigma_inverse == invert_permutation(sigma)
                for i, m in enumerate(blocks):
                    assert cfg.twist_monomial(i) == Monomial(1, {mu: (n - m) % 2})
                shifts, multipliers = _multipliers(blocks, sigma, alpha, mu)
                seen.add(type(shifts))
                reads = [(weight_shift, (cfg,), shifts)]
                for pullback, expected in multipliers.items():
                    if not isinstance(expected, str):
                        pulled = (t * chi.values[sigma.index(p)] for p, t in enumerate(expected))
                        expected = UnramifiedCharacter(cfg.target, tuple(pulled))
                    reads.append((pullback, (chi, cfg), expected))
                for fn, args, expected in reads * 2:
                    if isinstance(expected, str):
                        with pytest.raises(NonIntegralShift) as err:
                            fn(*args)
                        assert str(err.value) == expected
                    else:
                        assert fn(*args) == expected
    assert seen == {str, tuple}


def test_non_integral_shift_text_names_the_first_odd_block():
    """Every config with n <= 5 under the integer alphas -2 .. 2: ``weight_shift`` raises
    exactly when some block has odd ``n - n_i``, with the text of the first such block
    from the block walk (its doubled shift ``2·alpha + n_i - n + 2·offset_i`` and its
    1-based number), which the verifier's shift-integrality check reports too."""
    raised = 0
    for n in range(1, 6):
        for blocks in compositions(n):
            shape = GroupShape(blocks)
            for sigma, alpha in product(block_order_preserving_permutations(shape), range(-2, 3)):
                cfg = TransferConfig(source=shape, sigma=sigma, alpha=alpha)
                offset, expected = 0, None
                for i, m in enumerate(blocks):
                    if (n - m) % 2 and expected is None:
                        doubled = 2 * alpha + m - n + 2 * offset
                        expected = (
                            f"weight shift {Fraction(doubled, 2)} at block {i + 1} "
                            f"is not an integer (alpha = {alpha})"
                        )
                    offset += m
                shift_check = verify_transfer_compatibility(cfg).checks[0]
                if expected is None:
                    shifts = zip(blocks, _block_shifts(blocks, alpha))
                    assert weight_shift(cfg) == tuple(int(s) for m, s in shifts for _ in range(m))
                    assert shift_check.residuals == ()
                    continue
                with pytest.raises(NonIntegralShift) as err:
                    weight_shift(cfg)
                assert str(err.value) == expected
                assert shift_check.residuals == (expected,)
                raised += 1
    assert raised > 1000


def test_config_tables_wait_for_their_first_read():
    """A new config stores its fields, the inverse of ``sigma``, ``n`` and ``target``.
    The first read of any slot table stores the multiplier tables together, the three
    ``W^shift`` tables (and ``_shifts``) only when the shifts are integers; on a
    non-integral config a read of one of those raises on every read and stores nothing.
    Other missing attributes raise the usual ``AttributeError``."""
    made = ["alpha", "mu", "n", "sigma", "sigma_inverse", "source", "target"]
    plain = made + ["_normalized_multipliers", "_slot_twists"]
    shifted = ["_atkin_lehner_multipliers", "_atkin_lehner_plain_multipliers", "_shift_rows"]
    for first in ("_slot_twists", "_shift_rows"):
        cfg = config((1, 2), sigma=(2, 0, 1))
        assert sorted(vars(cfg)) == made
        getattr(cfg, first)
        assert sorted(vars(cfg)) == sorted(plain + shifted + ["_shifts"])
    cfg = config((1, 2), alpha=0)
    cfg._slot_twists
    assert sorted(vars(cfg)) == sorted(plain)
    for name in shifted + ["_shifts"]:
        for _ in range(2):
            with pytest.raises(NonIntegralShift):
                getattr(cfg, name)
    assert sorted(vars(cfg)) == sorted(plain)
    with pytest.raises(AttributeError) as err:
        cfg.nope
    assert str(err.value) == "'TransferConfig' object has no attribute 'nope'"


_coefficients = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))
# names that sort before, equal to and between the multipliers' M, W and q, and after q
_VALUE_NAMES = ("A", "M", "N", "W", "a", "q", "z")
_character_values = st.builds(
    lambda coeff, exps: Monomial(coeff, {n: Fraction(e, 2) for n, e in zip(_VALUE_NAMES, exps)}),
    _coefficients,
    st.lists(st.integers(-3, 3), min_size=len(_VALUE_NAMES), max_size=len(_VALUE_NAMES)),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_verifier_inputs(), st.data())
def test_pullbacks_match_the_monomial_multiplier_formula(inputs, data):
    """All five maps against the multiplier oracle on random configs up to n = 7: the
    multiplier at slot ``p`` times ``chi.values[sigma_inverse[p]]``, in value and in
    coefficient type.  Values have ``Fraction`` and ``int`` coefficients and symbols on
    every side of ``M``, ``W`` and ``q``, and each value may be the inverse of its slot's
    multiplier times a coefficient, so that the exponents cancel to ``()``.  A
    non-integral shift raises the oracle's text from the weighted maps."""
    blocks, sigma, alpha, mu = inputs
    cfg = config(blocks, sigma, alpha, mu=mu)
    for pullback, multipliers in _multipliers(blocks, sigma, alpha, mu)[1].items():
        if isinstance(multipliers, str):
            with pytest.raises(NonIntegralShift, match=re.escape(multipliers)):
                pullback(UnramifiedCharacter.trivial(cfg.source), cfg)
            continue
        values = data.draw(st.lists(_character_values, min_size=cfg.n, max_size=cfg.n))
        cancel = data.draw(st.lists(st.booleans(), min_size=cfg.n, max_size=cfg.n))
        for u, p in enumerate(sigma):
            if cancel[u]:
                values[u] = Monomial(values[u].coeff) / multipliers[p]
        chi = UnramifiedCharacter(cfg.source, values)
        got = pullback(chi, cfg).values
        expected = tuple(t * values[sigma.index(p)] for p, t in enumerate(multipliers))
        assert got == expected
        assert [type(v._coeff) for v in got] == [type(v._coeff) for v in expected]


def test_cached_data_leaves_no_cyclic_garbage():
    """Per-shape and per-config caches must be freed by reference counting alone."""
    sigmas = list(block_order_preserving_permutations(GroupShape((2, 1, 2))))
    gc.collect()
    gc.disable()
    try:
        for sigma in sigmas:
            cfg = config((2, 1, 2), sigma=sigma)
            chi = UnramifiedCharacter.trivial(cfg.source)
            for pullback in (
                refinement_pullback,
                refinement_pullback_normalized,
                weight_character_pullback,
                atkin_lehner_pullback,
            ):
                pullback(chi, cfg)
            atkin_lehner_pullback(chi, cfg, normalized=False)
            verify_transfer_compatibility(cfg)
            verify_transfer_compatibility(cfg, drop_normalization=True)
            list(block_order_preserving_permutations(GroupShape((2, 2))))
            # the per-shape neighbour table behind classify and is_antidominant
            weight = AlgebraicWeight(GroupShape((2, 1, 2)), (1, 0, 4, 2, 2))
            assert weight.classify() == "dominant"
            assert CocharVector(GroupShape((2, 1, 2)), weight.exps).is_antidominant()
            # the per-descriptor parameter ladders, genericity and accessibility tables
            desc = LocalRepDescriptor(
                cfg.source,
                [[Segment(symbol("a"), 2)], [Segment(symbol("b"), 1)], [Segment(symbol("c"), 2)]],
            )
            assert desc.all_params() == tuple(v for i in range(3) for v in desc.block_params(i))
            assert sum(is_accessible(desc, r) for r in enumerate_refinements(desc)) == 1
            assert accessible_transfer_check(desc, cfg)
            del cfg, chi, weight, desc
        assert gc.collect() == 0
    finally:
        gc.enable()


def _fraction_archimedean_transfer(weight, alpha):
    """Oracle: the discrete-series recipe in ``Fraction`` arithmetic, the form
    that the doubled-integer ``archimedean_transfer`` replaced."""
    shape = weight.shape
    if weight.classify() == "neither":
        raise ValueError("archimedean transfer needs a dominant weight")
    alpha = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    if alpha.denominator not in (1, 2):
        raise ValueError(f"alpha must be a half-integer, got {alpha}")
    n = shape.n
    ms = []
    for u in range(n):
        i, j = shape.block_of(u)
        twist = (n - shape.blocks[i]) % 2
        ms.append(
            weight.exps[u] + Fraction(shape.blocks[i] + 1, 2) - (j + 1) + alpha * twist
        )
    if len(set(ms)) != n:
        raise NotRelevant(
            "archimedean parameters collide: " + ", ".join(str(m) for m in sorted(ms))
        )
    order = sorted(range(n), key=lambda u: ms[u], reverse=True)
    exps = []
    for p in range(n):
        k = ms[order[p]] - Fraction(n + 1, 2) + (p + 1)
        if k.denominator != 1:
            raise NonIntegralShift(f"transferred weight entry {k} is not an integer")
        exps.append(int(k))
    target = GroupShape((n,))
    return ArchimedeanTransfer(AlgebraicWeight(target, tuple(exps)), invert_permutation(tuple(order)))


def _walk_archimedean_sigma(weight, alpha, art=None):
    """Oracle: the permutation that ``archimedean_sigma`` defines.  A permutation realizes
    the ``Fraction`` recipe's weight ``k'`` (``art``, computed here when not given) when
    ``k[sigma^-1(p)] == k'[p] - shift[p]`` at every slot ``p`` (``_block_shifts``).  The
    walk tries the recipe's sorting permutation, then every block-order-preserving
    permutation in enumeration order."""
    if art is None:
        art = _fraction_archimedean_transfer(weight, alpha)
    shape, k, target = weight.shape, weight.exps, art.weight.exps
    blocks = shape.blocks
    shifts = [shift for m, shift in zip(blocks, _block_shifts(blocks, alpha)) for _ in range(m)]
    need = [t - shift for t, shift in zip(target, shifts)]
    for sigma in chain([art.sigma], block_order_preserving_permutations(shape)):
        if all(k[u] == need[p] for u, p in enumerate(sigma)):
            return sigma
    raise NotRelevant(
        f"no block-order-preserving permutation realizes the transferred weight "
        f"{target} from {k}"
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, NotRelevant, NonIntegralShift) as err:
        return type(err), str(err)


def _compare_with_walk(shapes, bound, alphas):
    """Assert that ``archimedean_transfer`` agrees with its ``Fraction`` oracle and
    ``archimedean_sigma`` with the walk on every dominant weight with entries in
    ``[-bound, bound]`` under each alpha; count the cases each branch decides."""
    counts = {"sorting": 0, "searched": 0, "refused": 0, "total": 0}
    for blocks in shapes:
        shape = GroupShape(blocks)
        per_block = [
            combinations_with_replacement(range(bound, -bound - 1, -1), m) for m in blocks
        ]
        weights = [
            AlgebraicWeight(shape, tuple(x for block in combo for x in block))
            for combo in product(*per_block)
        ]
        for alpha, kappa in product(alphas, weights):
            counts["total"] += 1
            art = _outcome(_fraction_archimedean_transfer, kappa, alpha)
            assert _outcome(archimedean_transfer, kappa, alpha) == art, (blocks, kappa.exps, alpha)
            # archimedean_sigma raises the recipe's errors first
            walk = isinstance(art, ArchimedeanTransfer)
            expected = _outcome(_walk_archimedean_sigma, kappa, alpha, art) if walk else art
            assert _outcome(archimedean_sigma, kappa, alpha) == expected, (
                blocks,
                kappa.exps,
                alpha,
            )
            if expected[0] is NotRelevant and "no block-order" in expected[1]:
                counts["refused"] += 1
            elif isinstance(expected[0], int):
                counts["sorting" if expected == art.sigma else "searched"] += 1
    return counts


def test_archimedean_sigma_matches_walk_oracle():
    """Every dominant weight with entries in [-3, 3] on shapes with n <= 4, four alphas:
    the same sigma, exception type and message as the walk."""
    shapes = [blocks for n in range(1, 5) for blocks in compositions(n)]
    alphas = (HALF, -HALF, Fraction(3, 2), Fraction(-3, 2))
    counts = _compare_with_walk(shapes, 3, alphas)
    assert counts["total"] == 38360
    assert counts["sorting"] and counts["refused"]


def test_archimedean_sigma_search_matches_walk_oracle():
    """Cases where the sorting permutation fails but another realizes: n = 6 with a
    singleton middle block, entries in [-1, 1], alpha = +-5/2."""
    counts = _compare_with_walk([(2, 1, 3), (3, 1, 2)], 1, (Fraction(5, 2), Fraction(-5, 2)))
    assert counts["searched"] and counts["refused"]


_SHAPES_UP_TO_6 = [blocks for n in range(1, 7) for blocks in compositions(n)]
_SHAPES_UP_TO_7 = [blocks for n in range(1, 8) for blocks in compositions(n)]
_HALF_INTEGERS = [Fraction(t, 2) for t in range(-9, 10)]
_ALPHAS = [*_HALF_INTEGERS, *range(-4, 5), *map(str, _HALF_INTEGERS), Fraction(1, 3)]


@settings(max_examples=500, derandomize=True, database=None)
@given(st.data())
def test_archimedean_recipe_matches_fraction_oracle(data):
    """Doubled-integer recipe against the ``Fraction`` oracle: n <= 7, entries in
    [-30, 30], dominant or not, alphas in (1/2)Z up to +-9/2 as Fraction, int or
    str, and 1/3; the same weight and sigma, or the same exception type and text."""
    blocks = data.draw(st.sampled_from(_SHAPES_UP_TO_7))
    shape = GroupShape(blocks)
    bound = data.draw(st.sampled_from((2, 30, 30)))  # small entries collide often
    exps = data.draw(st.lists(st.integers(-bound, bound), min_size=shape.n, max_size=shape.n))
    if data.draw(st.sampled_from((True, True, True, False))):  # sort each block: dominant
        exps = [
            e
            for i in range(shape.r)
            for e in sorted((exps[u] for u in shape.block_range(i)), reverse=True)
        ]
    kappa = AlgebraicWeight(shape, exps)
    alpha = data.draw(st.sampled_from(_ALPHAS))
    assert _outcome(archimedean_transfer, kappa, alpha) == _outcome(
        _fraction_archimedean_transfer, kappa, alpha
    )
    assert _outcome(archimedean_sigma, kappa, alpha) == _outcome(
        _walk_archimedean_sigma, kappa, alpha
    )


@settings(max_examples=200, derandomize=True, database=None)
@given(st.data())
def test_first_realizing_sigma_is_first_in_enumeration(data):
    """The depth-first search returns the first matching permutation of the enumeration."""
    shape = GroupShape(data.draw(st.sampled_from(_SHAPES_UP_TO_6)))
    n = shape.n
    k = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if data.draw(st.booleans()):  # a rearrangement of k passes the multiset precheck
        need = data.draw(st.permutations(k))
    else:
        need = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    first = next(
        (
            sigma
            for sigma in block_order_preserving_permutations(shape)
            if all(k[u] == need[p] for u, p in enumerate(sigma))
        ),
        None,
    )
    assert _first_realizing_sigma(shape, k, need) == first


def test_library_built_characters_pass_validation():
    """Characters built without validation equal the validated constructor's, n <= 5."""

    def check(chi):
        assert type(chi.values) is tuple
        assert chi == UnramifiedCharacter(chi.shape, chi.values)

    for n in range(1, 6):
        for blocks in compositions(n):
            shape = GroupShape(blocks)
            chi = UnramifiedCharacter(
                shape,
                tuple(Monomial(u + 2, {f"x{u}": 1, "q": Fraction(u - 2, 2)}) for u in range(n)),
            )
            for sign in (1, -1):
                check(modulus_half(shape, sign))
            check(chi * chi.inverse())
            check(chi.inverse())
            check(weight_as_character(AlgebraicWeight(shape, tuple(range(n, 0, -1)))))
            check(_generic_character(shape, "x", {"x1"}))
            for plan in (
                [[(f"g{i}", b)] for i, b in enumerate(blocks)],  # one Steinberg segment per block
                [[(f"g{i}_{j}", 1) for j in range(b)] for i, b in enumerate(blocks)],
                [[("g", 1)] * b for b in blocks],  # repeated parameters
            ):
                segments = tuple(tuple(Segment(symbol(g), d) for g, d in block) for block in plan)
                for refinement in enumerate_refinements(LocalRepDescriptor(shape, segments)):
                    check(refinement)
            for sigma in block_order_preserving_permutations(shape):
                for alpha in (HALF, -HALF, Fraction(3, 2), Fraction(-3, 2)):
                    cfg = TransferConfig(source=shape, sigma=sigma, alpha=alpha)
                    check(refinement_pullback(chi, cfg))
                    check(refinement_pullback_normalized(chi, cfg))
                    check(weight_character_pullback(chi, cfg))
                    check(atkin_lehner_pullback(chi, cfg))
                    check(atkin_lehner_pullback(chi, cfg, normalized=False))
                check(iota_sigma_pullback(refinement_pullback(chi, cfg), sigma))
