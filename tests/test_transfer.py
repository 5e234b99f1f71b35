"""Tests for the character, weight, and spherical transfer maps."""

import gc
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
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
from eigentransfer.monomial import Monomial, ONE, symbol
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
    """The oracles' generic character: value ``name^1`` at each position, with the
    names the verifier gives its generic symbols."""
    names = transfer_module._generic_names(shape.n, prefix, avoid)
    return UnramifiedCharacter(shape, tuple(symbol(name) for name in names))


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


def _per_generator_oracle(cfg, drop_normalization=False):
    """The verifier as it was before the slot ratios: both wide generic characters
    evaluated at every target generator, one of them inverted."""
    checks = []
    try:
        weight_shift(cfg)
        shifts_ok = True
        checks.append(CheckResult("shift-integrality", True))
    except NonIntegralShift as err:
        shifts_ok = False
        checks.append(CheckResult("shift-integrality", False, (str(err),)))
    chi = _generic_character(cfg.source, "x", {cfg.mu})
    zeta = _generic_character(cfg.source, "z", {cfg.mu})
    if shifts_ok:
        lhs_char = atkin_lehner_pullback(chi * zeta, cfg, normalized=not drop_normalization)
        rhs_char = refinement_pullback_normalized(chi, cfg) * weight_character_pullback(zeta, cfg)
        residuals = []
        for gen in dominant_generators(cfg.target):
            ratio = lhs_char.eval(gen) * rhs_char.eval(gen).inverse()
            if not ratio.is_one():
                residuals.append(f"t={gen.exps}: {ratio.text()}")
        checks.append(CheckResult("atkin-lehner-factorization", not residuals, tuple(residuals)))
    else:
        skipped = ("skipped: weight shifts are not integral",)
        checks.append(CheckResult("atkin-lehner-factorization", False, skipped))
    lhs = refinement_pullback_normalized(chi * modulus_half(cfg.source, -1), cfg)
    rhs = refinement_pullback(chi, cfg) * modulus_half(cfg.target, -1)
    residuals = tuple(
        f"e_{p + 1}: {(lhs.values[p] * rhs.values[p].inverse()).text()}"
        for p in range(cfg.n)
        if lhs.values[p] != rhs.values[p]
    )
    checks.append(CheckResult("modulus-duality", not residuals, residuals))
    return TransferReport(tuple(checks))


def test_verify_matches_per_generator_oracle():
    """Slot ratios against evaluating both characters at each generator: every
    config with n <= 4, every n = 5 shape, integral and skipped shifts, a mu
    that collides with a generic symbol."""
    alphas = [Fraction(a, 2) for a in (-3, -1, 0, 1, 2, 3, 5)]
    configs = [
        config(blocks, sigma=sigma, alpha=alpha)
        for n in range(1, 5)
        for blocks in compositions(n)
        for sigma in block_order_preserving_permutations(GroupShape(blocks))
        for alpha in alphas
    ]
    configs += [config(blocks, alpha=alpha) for blocks in compositions(5) for alpha in alphas]
    configs += [config((2, 1, 2), sigma=(0, 3, 1, 2, 4), mu="x1")]
    verdicts = set()
    for cfg in configs:
        for drop in (False, True):
            report = verify_transfer_compatibility(cfg, drop_normalization=drop)
            assert report == _per_generator_oracle(cfg, drop), (cfg, drop)
            verdicts.add((drop, report.checks[1].residuals[:1]))
    # every branch ran: passes, failures with residuals and skipped checks
    assert (False, ()) in verdicts
    assert (True, ("t=(1, 0): 1 * q^(-1/2)",)) in verdicts
    assert (False, ("skipped: weight shifts are not integral",)) in verdicts


def _rebuilt_verifier(cfg, drop_normalization=False):
    """The prefix-product verifier as it was before its drop-independent half was
    kept on the config: every part is rebuilt on each call."""
    checks = []
    try:
        weight_shift(cfg)
        shifts_ok = True
        checks.append(CheckResult("shift-integrality", True))
    except NonIntegralShift as err:
        shifts_ok = False
        checks.append(CheckResult("shift-integrality", False, (str(err),)))
    chi = _generic_character(cfg.source, "x", {cfg.mu})
    zeta = _generic_character(cfg.source, "z", {cfg.mu})
    if shifts_ok:
        lhs_char = atkin_lehner_pullback(chi * zeta, cfg, normalized=not drop_normalization)
        rhs_char = refinement_pullback_normalized(chi, cfg) * weight_character_pullback(zeta, cfg)
        residuals = _factorization_residuals((lhs_char * rhs_char.inverse()).values)
        checks.append(CheckResult("atkin-lehner-factorization", not residuals, residuals))
    else:
        skipped = ("skipped: weight shifts are not integral",)
        checks.append(CheckResult("atkin-lehner-factorization", False, skipped))
    lhs = refinement_pullback_normalized(chi * modulus_half(cfg.source, -1), cfg)
    rhs = refinement_pullback(chi, cfg) * modulus_half(cfg.target, -1)
    residuals = tuple(
        f"e_{p + 1}: {(lhs.values[p] * rhs.values[p].inverse()).text()}"
        for p in range(cfg.n)
        if lhs.values[p] != rhs.values[p]
    )
    checks.append(CheckResult("modulus-duality", not residuals, residuals))
    return TransferReport(tuple(checks))


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_matches_rebuilt_verifier(n):
    """The verifier, whose drop-independent half is built once per config, against
    the copy that rebuilds it: every config with this n and every sigma; alphas of
    integral shifts and alphas 0 and 1, whose shifts are not integral for some
    shapes (the "skipped" branch); the twist ``M`` and ``x1``, which collides with a
    generic symbol.  Each config is checked in both call orders, each order on a
    fresh object, so the second call of each reads the half the first one built."""
    alphas = (HALF, -HALF, Fraction(3, 2), 0, 1, Fraction(5, 2))
    verdicts = set()
    for blocks in compositions(n):
        for sigma in block_order_preserving_permutations(GroupShape(blocks)):
            for alpha, mu in product(alphas, ("M", "x1")):
                oracle_cfg = config(blocks, sigma, alpha, mu=mu)
                expected = {
                    drop: repr(_rebuilt_verifier(oracle_cfg, drop)) for drop in (False, True)
                }
                for order in ((False, True), (True, False)):
                    cfg = config(blocks, sigma, alpha, mu=mu)
                    for drop in order:
                        report = verify_transfer_compatibility(cfg, drop_normalization=drop)
                        assert repr(report) == expected[drop], (cfg, order, drop)
                        verdicts.add((drop, report.checks[1].residuals[:1]))
    assert (False, ()) in verdicts
    if n > 1:
        assert (False, ("skipped: weight shifts are not integral",)) in verdicts
        assert any(drop and res and res[0].startswith("t=") for drop, res in verdicts)


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
    """The verifier on integer slot rows against the copy that builds both sides from
    ``Monomial`` characters through the public pullbacks, on a fresh config in each
    call order."""
    blocks, sigma, alpha, mu = inputs
    oracle_cfg = config(blocks, sigma, alpha, mu=mu)
    expected = {drop: repr(_rebuilt_verifier(oracle_cfg, drop)) for drop in (False, True)}
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
            expected = _factorization_residuals((lhs * rhs.inverse()).values)
            factorization = verify_transfer_compatibility(cfg, drop).checks[1]
            assert factorization.residuals == expected, (sigma, drop)
            assert not factorization.passed
            assert any("z" in text for text in expected)


def _generator_oracle(ratios):
    """The residual texts of evaluating the slot-ratio character at each generator."""
    chi = UnramifiedCharacter(GroupShape((len(ratios),)), ratios)
    values = ((gen, chi.eval(gen)) for gen in dominant_generators(chi.shape))
    return tuple(f"t={gen.exps}: {value.text()}" for gen, value in values if not value.is_one())


def test_factorization_residuals_read_prefix_products():
    root_q = Monomial(1, {"q": HALF})
    ratios = (root_q, root_q.inverse(), Monomial(-2, {"W": 1}))
    assert _factorization_residuals(ratios) == (
        "t=(1, 0, 0): 1 * q^(1/2)",
        "t=(1, 1, 1): -2 * W",
        "t=(-1, -1, -1): -1/2 * W^-1",
    )
    # a full product of 1, as every config's: no residual at the negated full vector
    assert _factorization_residuals((root_q, root_q.inverse())) == ("t=(1, 0): 1 * q^(1/2)",)
    assert _factorization_residuals((ONE,)) == ()


_slot_ratios = st.one_of(
    st.just(ONE),
    st.builds(
        lambda num, den, exps: Monomial(
            Fraction(num, den), {name: Fraction(e, 2) for name, e in zip("qWM", exps)}
        ),
        st.integers(-4, 4).filter(bool),
        st.integers(1, 4),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    ),
)


@settings(max_examples=400, derandomize=True, database=None)
@given(st.data())
def test_factorization_residuals_match_generator_oracle(data):
    """Prefix products against ``eval`` at each generator: n = 1..6, small
    ``q``/``W``/``M`` monomials with coefficients of both signs, with the full
    product left free (no config reaches a residual at the negated full vector)
    or closed to 1 by the last ratio."""
    n = data.draw(st.integers(1, 6))
    ratios = data.draw(st.lists(_slot_ratios, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        ratios[-1] = prod(ratios[:-1], start=ONE).inverse()
    assert _factorization_residuals(tuple(ratios)) == _generator_oracle(ratios)


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


def _seed_shifts(blocks, alpha):
    """The affine weight shifts in flat source layout, or the error text of the first
    shift that is not an integer."""
    n, offset, shifts = sum(blocks), 0, []
    for i, m in enumerate(blocks):
        c = alpha * ((n - m) % 2) + Fraction(m - n, 2) + offset
        if c.denominator != 1:
            return f"weight shift {c} at block {i + 1} is not an integer (alpha = {alpha})"
        shifts.extend([int(c)] * m)
        offset += m
    return tuple(shifts)


def _seed_half_modulus(blocks, sign):
    return [
        Monomial(1, {"q": Fraction(-sign * (m + 1 - 2 * (j + 1)), 2)})
        for m in blocks
        for j in range(m)
    ]


def _seed_refinement(chi, cfg, normalized):
    blocks = cfg.source.blocks
    block_index = [i for i, m in enumerate(blocks) for _ in range(m)]
    half_source = _seed_half_modulus(blocks, 1)
    inv_half_target = _seed_half_modulus((cfg.n,), -1)
    values = []
    for p in range(cfg.n):
        u = cfg.sigma.index(p)
        value = Monomial(1, {cfg.mu: (cfg.n - blocks[block_index[u]]) % 2}) * chi.values[u]
        if normalized:
            value = value * half_source[u] * inv_half_target[p]
        values.append(value)
    return values


def test_cached_config_data_matches_seed_formulas():
    """Every config with n <= 5, integral and non-integral shifts: cached data against
    formulas, and the inverse of ``sigma`` stored by the constructor.  The twist symbol
    sorts before ``W`` (``M``), between ``W`` and ``q`` (``mu``) and after ``q`` (``z``),
    since the multipliers are built pre-sorted; the last two run with one alpha of
    integral shifts and one of non-integral shifts."""
    alphas = [Fraction(a, 2) for a in (-3, -1, 1, 3)] + [Fraction(0), Fraction(1)]
    twists = [(alpha, "M") for alpha in alphas]
    twists += [(alpha, mu) for mu in ("mu", "z") for alpha in (HALF, Fraction(1))]
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
                plain = tuple(_seed_refinement(chi, cfg, False))
                normed = tuple(_seed_refinement(chi, cfg, True))
                shifts = _seed_shifts(blocks, alpha)
                for _ in range(2):
                    assert refinement_pullback(chi, cfg).values == plain
                    assert refinement_pullback_normalized(chi, cfg).values == normed
                if isinstance(shifts, str):
                    for _ in range(2):
                        for fn, *args in (
                            (weight_shift, cfg),
                            (weight_character_pullback, chi, cfg),
                            (atkin_lehner_pullback, chi, cfg, True),
                            (atkin_lehner_pullback, chi, cfg, False),
                        ):
                            with pytest.raises(NonIntegralShift) as err:
                                fn(*args)
                            assert str(err.value) == shifts
                    continue
                w = [Monomial(1, {"W": s}) for s in shifts]
                for _ in range(2):
                    assert weight_shift(cfg) == shifts
                    assert weight_character_pullback(chi, cfg).values == tuple(
                        w[p] * chi.values[sigma.index(p)] for p in range(n)
                    )
                    assert atkin_lehner_pullback(chi, cfg).values == tuple(
                        w[p] * normed[p] for p in range(n)
                    )
                    assert atkin_lehner_pullback(chi, cfg, normalized=False).values == tuple(
                        w[p] * plain[p] for p in range(n)
                    )


def _every_config(alpha=HALF, mu="M"):
    """Every config with n <= 5: each composition with each block-order-preserving sigma."""
    for n in range(1, 6):
        for blocks in compositions(n):
            shape = GroupShape(blocks)
            for sigma in block_order_preserving_permutations(shape):
                yield TransferConfig(shape, sigma, alpha, mu)


def _from_twice_multipliers(cfg, twisted, normalized, weighted):
    """Oracle: a multiplier table as a dict of doubled exponents per slot, made through
    ``Monomial._from_twice``, the way the tables were built before they were sorted
    tuples."""
    if weighted:
        weight_shift(cfg)
    out = []
    for _, twist, q, w in cfg._slot_rows:
        twice = {cfg.mu: twist} if twisted else {}
        if normalized:
            twice["q"] = q
        if weighted:
            twice["W"] = w
        out.append(Monomial._from_twice(1, twice))
    return tuple(out)


_TABLES = {
    "_slot_twists": (True, False, False),
    "_normalized_multipliers": (True, True, False),
    "_shift_monomials": (False, False, True),
    "_atkin_lehner_multipliers": (True, True, True),
    "_atkin_lehner_plain_multipliers": (True, False, True),
}


def test_multiplier_tables_match_the_from_twice_builder():
    """All five tables on every n <= 5 config, with a twist symbol that sorts before
    ``W`` (``M``), between ``W`` and ``q`` (``x1``) and after ``q`` (``z3``), and with
    integral and non-integral shifts: the same monomials as the dict builder, and the
    same ``NonIntegralShift`` text from the weighted tables."""
    cases = 0
    for mu, alpha in product(("M", "x1", "z3"), (HALF, Fraction(1))):
        for cfg in _every_config(alpha, mu):
            for name, flags in _TABLES.items():
                try:
                    expected = _from_twice_multipliers(cfg, *flags)
                except NonIntegralShift as err:
                    with pytest.raises(NonIntegralShift, match=re.escape(str(err))):
                        getattr(cfg, name)
                    continue
                got = getattr(cfg, name)
                # equal stored tuples, so sorted alike, and the canonical ``int`` coefficient
                assert got == expected
                assert all(m._coeff.__class__ is int for m in got)
                cases += 1
    assert cases > 633 * 3 * 2 * 2


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


def _fraction_archimedean_sigma(weight, alpha):
    """Oracle: ``archimedean_sigma`` on the ``Fraction`` recipe, reading the
    shifts from a ``TransferConfig`` built for the sorting permutation."""
    art = _fraction_archimedean_transfer(weight, alpha)
    shape = weight.shape
    shifts = weight_shift(TransferConfig(source=shape, sigma=art.sigma, alpha=alpha))
    need = [t - s for t, s in zip(art.weight.exps, shifts)]
    k = weight.exps
    if all(k[u] == need[p] for u, p in enumerate(art.sigma)):
        return art.sigma
    if sorted(need) == sorted(k):
        sigma = _first_realizing_sigma(shape, k, need)
        if sigma is not None:
            return sigma
    raise NotRelevant(
        f"no block-order-preserving permutation realizes the transferred weight "
        f"{art.weight.exps} from {weight.exps}"
    )


def _walk_archimedean_sigma(weight, alpha, configs):
    """Oracle: the brute-force search that ``archimedean_sigma`` replaced.

    ``configs`` maps every block-order-preserving permutation of the weight's
    shape, in enumeration order, to its config under ``alpha``.  Tries the
    sorting permutation, then each permutation in turn, until
    ``weight_pullback`` reproduces the archimedean weight.
    """
    art = transfer_module.archimedean_transfer(weight, alpha)

    def realizes(sigma):
        return weight_pullback(weight, configs[sigma]) == art.weight

    if realizes(art.sigma):
        return art.sigma
    for sigma in configs:
        if sigma != art.sigma and realizes(sigma):
            return sigma
    raise NotRelevant(
        f"no block-order-preserving permutation realizes the transferred weight "
        f"{art.weight.exps} from {weight.exps}"
    )


def _remember_last(fn):
    """``fn`` with the outcome of its latest call replayed while the arguments stay the same."""
    last = [None, None, None]

    def wrapper(weight, alpha):
        if last[0] is not weight or last[1] is not alpha:
            try:
                last[2] = (True, fn(weight, alpha))
            except Exception as err:
                last[2] = (False, err)
            last[0], last[1] = weight, alpha
        ok, value = last[2]
        if ok:
            return value
        raise value.with_traceback(None)

    return wrapper


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, NotRelevant, NonIntegralShift) as err:
        return type(err), str(err)


def _compare_with_walk(monkeypatch, shapes, bound, alphas):
    """Assert that both searches agree on every dominant weight with entries in
    ``[-bound, bound]`` under each alpha, and that ``archimedean_transfer``
    agrees with its ``Fraction`` oracle; count the cases each branch decides."""
    # both searches start from archimedean_transfer on the same case: compute it once
    monkeypatch.setattr(
        transfer_module, "archimedean_transfer", _remember_last(archimedean_transfer)
    )
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
        for alpha in alphas:
            configs = {
                sigma: TransferConfig(source=shape, sigma=sigma, alpha=alpha)
                for sigma in block_order_preserving_permutations(shape)
            }
            for kappa in weights:
                counts["total"] += 1
                assert _outcome(transfer_module.archimedean_transfer, kappa, alpha) == _outcome(
                    _fraction_archimedean_transfer, kappa, alpha
                ), (blocks, kappa.exps, alpha)
                expected = _outcome(_walk_archimedean_sigma, kappa, alpha, configs)
                assert _outcome(archimedean_sigma, kappa, alpha) == expected, (
                    blocks,
                    kappa.exps,
                    alpha,
                )
                if expected[0] is NotRelevant and "no block-order" in expected[1]:
                    counts["refused"] += 1
                elif isinstance(expected[0], int):
                    art = transfer_module.archimedean_transfer(kappa, alpha)
                    counts["sorting" if expected == art.sigma else "searched"] += 1
    return counts


def test_archimedean_sigma_matches_walk_oracle(monkeypatch):
    """Every dominant weight with entries in [-3, 3] on shapes with n <= 4, four alphas:
    the same sigma, exception type and message as the brute-force walk."""
    shapes = [blocks for n in range(1, 5) for blocks in compositions(n)]
    alphas = (HALF, -HALF, Fraction(3, 2), Fraction(-3, 2))
    counts = _compare_with_walk(monkeypatch, shapes, 3, alphas)
    assert counts["total"] == 38360
    assert counts["sorting"] and counts["refused"]


def test_archimedean_sigma_search_matches_walk_oracle(monkeypatch):
    """Cases where the sorting permutation fails but another realizes: n = 6 with a
    singleton middle block, entries in [-1, 1], alpha = +-5/2."""
    counts = _compare_with_walk(
        monkeypatch, [(2, 1, 3), (3, 1, 2)], 1, (Fraction(5, 2), Fraction(-5, 2))
    )
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
        _fraction_archimedean_sigma, kappa, alpha
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
