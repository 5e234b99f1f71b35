"""Tests for segment descriptors, refinement enumeration, and accessibility."""

import json
from fractions import Fraction
from itertools import product
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import eigentransfer.monomial as monomial_module
import eigentransfer.refinements as refinements_module
import eigentransfer.transfer as transfer_module
from eigentransfer.errors import ShapeMismatch, SizeMismatch, UnsupportedLinked
from eigentransfer.jsonio import decode_descriptor
from eigentransfer.monomial import ONE, Monomial, symbol
from eigentransfer.refinements import (
    LocalRepDescriptor,
    Segment,
    _characters,
    _require_generic,
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
    weight_as_character,
)
from eigentransfer.transfer import (
    TransferConfig,
    atkin_lehner_pullback,
    block_order_preserving_permutations,
    invert_permutation,
    refinement_pullback,
    weight_pullback,
)

from shapes import compositions

HALF = Fraction(1, 2)


def qpow(e):
    return Monomial(1, {"q": e})


def config(blocks, sigma=None, alpha=HALF, mu="M"):
    shape = GroupShape(tuple(blocks))
    if sigma is None:
        sigma = tuple(range(shape.n))
    return TransferConfig(source=shape, sigma=tuple(sigma), alpha=alpha, mu=mu)


def test_segment_params():
    g = symbol("g")
    assert Segment(g, 1).params() == (g,)
    assert Segment(g, 2).params() == (g * qpow(HALF), g * qpow(-HALF))
    assert Segment(g, 3).params() == (g * qpow(1), g, g * qpow(-1))
    seg = Segment(g, 4)
    assert seg.top() == seg.params()[0]
    assert seg.bottom() == seg.params()[-1]
    # consecutive ratio is q^-1 throughout
    params = seg.params()
    for a, b in zip(params, params[1:]):
        assert b == a * qpow(-1)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(symbol("g"), 0)
    with pytest.raises(ValueError):
        Segment(symbol("g"), -2)
    with pytest.raises(ValueError):
        Segment("g", 2)


def _segments_linked(a, b):
    """True when the two parameter ladders concatenate into one longer ladder: the
    library's ``segments_linked`` before the ladder sweep left it without a caller,
    kept for the ``_old_is_generic`` oracle."""
    step = qpow(-1)
    return a.bottom() * step == b.top() or b.bottom() * step == a.top()


def test_segments_linked():
    g = symbol("g")
    # ladders g q^(1/2), g q^(-1/2) and g q^(-3/2) concatenate
    assert _segments_linked(Segment(g, 2), Segment(g * qpow(Fraction(-3, 2)), 1))
    assert _segments_linked(Segment(g * qpow(Fraction(-3, 2)), 1), Segment(g, 2))
    assert not _segments_linked(Segment(g, 2), Segment(symbol("h"), 2))
    # overlapping but not concatenating
    assert not _segments_linked(Segment(g, 1), Segment(g, 2))
    assert not _segments_linked(Segment(g, 2), Segment(g, 2))


def test_descriptor_validation():
    shape = GroupShape((2, 1))
    LocalRepDescriptor(shape, ((Segment(symbol("a"), 2),), (Segment(symbol("b"), 1),)))
    with pytest.raises(ValueError):
        LocalRepDescriptor(shape, ((Segment(symbol("a"), 1),), (Segment(symbol("b"), 1),)))
    with pytest.raises(ValueError):
        LocalRepDescriptor(shape, ((Segment(symbol("a"), 2),),))
    with pytest.raises(ValueError):
        LocalRepDescriptor(shape, ((symbol("a"),), (Segment(symbol("b"), 1),)))


def test_descriptor_params_and_genericity():
    desc = LocalRepDescriptor(
        GroupShape((3,)), ((Segment(symbol("g"), 2), Segment(symbol("c"), 1)),)
    )
    assert desc.block_params(0) == (
        symbol("g") * qpow(HALF),
        symbol("g") * qpow(-HALF),
        symbol("c"),
    )
    assert desc.all_params() == desc.block_params(0)
    assert desc.is_generic
    # repeated parameters across blocks break genericity
    twin = LocalRepDescriptor(
        GroupShape((1, 1)), ((Segment(symbol("a"), 1),), (Segment(symbol("a"), 1),))
    )
    assert not twin.is_generic
    # a Steinberg chain split into two linked segments breaks genericity
    g = symbol("g")
    chain = LocalRepDescriptor(
        GroupShape((3,)),
        ((Segment(g, 2), Segment(g * qpow(Fraction(-3, 2)), 1)),),
    )
    assert not chain.is_generic


def test_refinements_share_the_cached_ladder_objects():
    """Parameters are built once per descriptor, so the values handed to
    ``is_accessible`` are the ``_ladders`` keys themselves and each lookup
    stops at the identity test instead of comparing coefficients."""
    desc = LocalRepDescriptor(
        GroupShape((3, 2)),
        ((Segment(symbol("g"), 2), Segment(symbol("c"), 1)), (Segment(symbol("h"), 2),)),
    )
    assert desc.block_params(0) is desc.block_params(0)
    keys = {id(m) for _, _, places in desc._ladders for m in places}
    assert {id(m) for i in range(2) for m in desc.block_params(i)} == keys
    refinements = enumerate_refinements(desc)
    assert len(refinements) == 12
    assert all(id(v) in keys for chi in refinements for v in chi.values)


def test_genericity_builds_no_parameter_tables():
    """A segment's length is not bounded by the input that names it, so reading
    ``is_generic`` sweeps the segments alone and stores only the verdict; the tables
    of one entry per parameter are stored together on the first read of either.
    Other missing attributes raise the usual ``AttributeError``."""
    shape = GroupShape((3, 401))
    desc = LocalRepDescriptor(shape, ((Segment(symbol("g"), 3),), (Segment(symbol("h"), 401),)))
    assert sorted(vars(desc)) == ["segments", "shape"]
    assert desc.is_generic is True and desc.is_generic is True
    assert sorted(vars(desc)) == ["is_generic", "segments", "shape"]
    assert len(desc.block_params(1)) == 401
    assert sorted(vars(desc)) == ["_block_params", "_ladders", "is_generic", "segments", "shape"]
    with pytest.raises(AttributeError) as err:
        desc.nope
    assert str(err.value) == "'LocalRepDescriptor' object has no attribute 'nope'"


def test_steinberg_refinements():
    g = symbol("g")
    desc = LocalRepDescriptor(GroupShape((2,)), ((Segment(g, 2),),))
    refinements = enumerate_refinements(desc)
    assert len(refinements) == 2
    flags = [is_accessible(desc, chi) for chi in refinements]
    assert sum(flags) == 1
    assert count_accessible(desc) == 1
    # only the internally ordered ladder is accessible
    ordered = UnramifiedCharacter(desc.shape, Segment(g, 2).params())
    reversed_ = UnramifiedCharacter(desc.shape, Segment(g, 2).params()[::-1])
    assert is_accessible(desc, ordered)
    assert not is_accessible(desc, reversed_)


def test_generic_principal_series_refinements():
    desc = LocalRepDescriptor(
        GroupShape((2,)), ((Segment(symbol("a"), 1), Segment(symbol("b"), 1)),)
    )
    refinements = enumerate_refinements(desc)
    assert len(refinements) == 2
    assert all(is_accessible(desc, chi) for chi in refinements)
    assert count_accessible(desc) == 2


def test_mixed_segment_refinements():
    desc = LocalRepDescriptor(
        GroupShape((3,)), ((Segment(symbol("g"), 2), Segment(symbol("c"), 1)),)
    )
    refinements = enumerate_refinements(desc)
    assert len(refinements) == 6
    assert sum(is_accessible(desc, chi) for chi in refinements) == 3
    assert count_accessible(desc) == 3


def test_blockwise_refinements():
    desc = LocalRepDescriptor(
        GroupShape((1, 2)),
        ((Segment(symbol("a"), 1),), (Segment(symbol("g"), 2),)),
    )
    refinements = enumerate_refinements(desc)
    assert len(refinements) == 2
    assert count_accessible(desc) == 1
    assert sum(is_accessible(desc, chi) for chi in refinements) == 1


def test_enumerate_deduplicates_repeats():
    desc = LocalRepDescriptor(
        GroupShape((2,)), ((Segment(symbol("a"), 1), Segment(symbol("a"), 1)),)
    )
    assert len(enumerate_refinements(desc)) == 1
    with pytest.raises(UnsupportedLinked):
        count_accessible(desc)
    with pytest.raises(UnsupportedLinked):
        is_accessible(desc, enumerate_refinements(desc)[0])


def test_is_accessible_rejects_foreign_refinements():
    desc = LocalRepDescriptor(
        GroupShape((2,)), ((Segment(symbol("a"), 1), Segment(symbol("b"), 1)),)
    )
    with pytest.raises(ShapeMismatch):
        is_accessible(desc, UnramifiedCharacter.trivial(GroupShape((1, 1))))
    with pytest.raises(ValueError):
        is_accessible(
            desc, UnramifiedCharacter(desc.shape, (symbol("a"), symbol("z")))
        )


def test_transferred_descriptor():
    desc = LocalRepDescriptor(
        GroupShape((1, 2)),
        ((Segment(symbol("a"), 1),), (Segment(symbol("g"), 2),)),
    )
    cfg = config((1, 2), sigma=(2, 0, 1))
    out = transferred_descriptor(desc, cfg)
    assert out.shape == GroupShape((3,))
    # block 1 has even complement (no twist); block 2 picks up M
    assert out.segments == (
        (Segment(symbol("a"), 1), Segment(symbol("M") * symbol("g"), 2)),
    )
    with pytest.raises(SizeMismatch):
        transferred_descriptor(desc, config((3,)))


def test_accessible_transfer_check_anchor():
    desc = LocalRepDescriptor(
        GroupShape((1, 2)),
        ((Segment(symbol("a"), 1),), (Segment(symbol("g"), 2),)),
    )
    for sigma in block_order_preserving_permutations(desc.shape):
        cfg = config((1, 2), sigma=sigma)
        assert accessible_transfer_check(desc, cfg)
        assert refinement_count_inequality(desc, cfg) == (1, 3, True)


def test_accessible_transfer_preserves_each_refinement():
    desc = LocalRepDescriptor(
        GroupShape((2, 2)),
        (
            (Segment(symbol("a"), 1), Segment(symbol("b"), 1)),
            (Segment(symbol("g"), 2),),
        ),
    )
    cfg = config((2, 2))
    transferred = transferred_descriptor(desc, cfg)
    for chi in enumerate_refinements(desc):
        if is_accessible(desc, chi):
            assert is_accessible(transferred, refinement_pullback(chi, cfg))
    src, tgt, ok = refinement_count_inequality(desc, cfg)
    assert (src, tgt, ok) == (2 * 1, 12, True)


def test_normalize_point():
    shape = GroupShape((2,))
    kappa = AlgebraicWeight(shape, (1, 0))
    chi = UnramifiedCharacter(shape, (symbol("a"), symbol("b")))
    nu = normalize_point(kappa, chi)
    assert nu == weight_as_character(kappa) * chi * modulus_half(shape, -1)
    assert nu.values[0] == Monomial(1, {"W": 1, "a": 1, "q": HALF})
    with pytest.raises(ShapeMismatch):
        normalize_point(kappa, UnramifiedCharacter.trivial(GroupShape((1, 1))))


def test_normalization_commutes_with_transfer():
    # normalizing then transferring the eigenvalue system agrees with
    # transferring the weight and refinement and then normalizing
    for blocks in [(1, 1), (1, 2), (2, 2)]:
        shape = GroupShape(blocks)
        kappa = AlgebraicWeight(shape, tuple(range(shape.n, 0, -1)))
        chi = UnramifiedCharacter(
            shape, tuple(symbol(f"c{u}") for u in range(shape.n))
        )
        for sigma in block_order_preserving_permutations(shape):
            cfg = config(blocks, sigma=sigma)
            lhs = atkin_lehner_pullback(normalize_point(kappa, chi), cfg)
            rhs = normalize_point(
                weight_pullback(kappa, cfg), refinement_pullback(chi, cfg)
            )
            assert lhs == rhs


def _old_is_accessible(desc, refinement):
    """Oracle: ``is_accessible`` before the per-descriptor ladder cache.

    Rebuilds the sorted parameter list and the segment ladders on every call
    and finds positions with ``list.index``.
    """
    _require_generic(desc)
    if refinement.shape != desc.shape:
        raise ShapeMismatch(
            f"refinement on {refinement.shape} does not match descriptor on {desc.shape}"
        )
    for i in range(desc.shape.r):
        ordering = [refinement.values[p] for p in desc.shape.block_range(i)]
        if sorted(ordering, key=lambda m: m.text()) != sorted(
            desc.block_params(i), key=lambda m: m.text()
        ):
            raise ValueError(
                f"refinement values in block {i + 1} are not an ordering of the "
                f"descriptor parameters"
            )
        for seg in desc.segments[i]:
            positions = [ordering.index(v) for v in seg.params()]
            if any(a >= b for a, b in zip(positions, positions[1:])):
                return False
    return True


def _outcome(check, desc, refinement):
    try:
        return check(desc, refinement)
    except Exception as err:  # the oracle comparison covers the refusals too
        return type(err), str(err)


def _assert_matches_oracle(desc, refinement):
    expected = _outcome(_old_is_accessible, desc, refinement)
    assert _outcome(is_accessible, desc, refinement) == expected, (desc, refinement)
    return expected


def _generic_descriptors(max_n):
    """Criterion 6's family: every shape and per-block segment split, fresh twist symbols."""
    for n in range(1, max_n + 1):
        for blocks in compositions(n):
            for split in product(*(list(compositions(b)) for b in blocks)):
                names = iter(range(n))
                segments = tuple(
                    tuple(Segment(symbol(f"s{next(names)}"), d) for d in lengths)
                    for lengths in split
                )
                yield LocalRepDescriptor(GroupShape(blocks), segments)


def test_is_accessible_matches_oracle_on_criterion_6_family():
    verdicts = set()
    for desc in _generic_descriptors(4):
        refinements = enumerate_refinements(desc)
        for chi in refinements:
            verdicts.add(_assert_matches_oracle(desc, chi))
        for sigma in block_order_preserving_permutations(desc.shape):
            cfg = config(desc.shape.blocks, sigma=sigma)
            moved = transferred_descriptor(desc, cfg)
            for chi in refinements:
                verdicts.add(_assert_matches_oracle(moved, refinement_pullback(chi, cfg)))
    assert verdicts == {True, False}


def test_is_accessible_matches_oracle_on_six_parameters():
    pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "jobs.json").read_text())
    (job,) = [entry["job"] for entry in pool if entry["name"] == "enumerate-refinements-heavy"]
    desc = decode_descriptor(json.loads(job)["payload"]["descriptor"])
    refinements = enumerate_refinements(desc)
    assert len(refinements) == 720
    assert all(_assert_matches_oracle(desc, chi) is True for chi in refinements)


def test_is_accessible_matches_oracle_on_refusals():
    a, b, g = symbol("a"), symbol("b"), symbol("g")
    desc = LocalRepDescriptor(
        GroupShape((2, 2)), ((Segment(g, 2),), (Segment(a, 1), Segment(b, 1)))
    )
    top, bottom = g * qpow(HALF), g * qpow(-HALF)
    foreign = UnramifiedCharacter(desc.shape, (top, symbol("z"), a, b))
    repeated = UnramifiedCharacter(desc.shape, (top, top, a, b))
    swapped = UnramifiedCharacter(desc.shape, (top, a, bottom, b))
    # block 1 is out of order before block 2 is checked, so the verdict wins
    late = UnramifiedCharacter(desc.shape, (bottom, top, a, symbol("z")))
    broken_second = UnramifiedCharacter(desc.shape, (top, bottom, a, symbol("z")))
    wrong_shape = UnramifiedCharacter.trivial(GroupShape((1, 3)))
    q = qpow(1)
    linked = LocalRepDescriptor(GroupShape((2,)), ((Segment(g, 1), Segment(g / q, 1)),))
    repeats = LocalRepDescriptor(GroupShape((2,)), ((Segment(a, 1), Segment(a, 1)),))
    not_an_ordering = (
        "refinement values in block {} are not an ordering of the descriptor parameters"
    )
    mismatch = "refinement on (1,3) does not match descriptor on (2,2)"
    cases = [
        (desc, foreign, (ValueError, not_an_ordering.format(1))),
        (desc, repeated, (ValueError, not_an_ordering.format(1))),
        (desc, swapped, (ValueError, not_an_ordering.format(1))),
        (desc, late, False),
        (desc, broken_second, (ValueError, not_an_ordering.format(2))),
        (desc, wrong_shape, (ShapeMismatch, mismatch)),
        (linked, UnramifiedCharacter(linked.shape, (g, g / q)), (UnsupportedLinked, _LINKED)),
        (linked, wrong_shape, (UnsupportedLinked, _LINKED)),
        (repeats, UnramifiedCharacter(repeats.shape, (a, a)), (UnsupportedLinked, _LINKED)),
    ]
    for d, chi, expected in cases:
        assert _assert_matches_oracle(d, chi) == expected


_LINKED = (
    "descriptor has repeated or linked segment parameters; accessibility "
    "is only decided for generic descriptors"
)

_GAMMAS = [
    symbol("a"), symbol("b"), symbol("c"), symbol("d"), symbol("e"),
    2 * symbol("a"), symbol("a") * qpow(1), symbol("b") * qpow(HALF), qpow(-1),
]


@st.composite
def _descriptor_and_refinement(draw):
    """A descriptor whose twists come from a small pool, so repeats and links occur,
    and a blockwise shuffle of its parameters, sometimes with one value replaced."""
    blocks = []
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        blocks.append(sum(lengths))
        segments.append(tuple(Segment(draw(st.sampled_from(_GAMMAS)), d) for d in lengths))
    desc = LocalRepDescriptor(GroupShape(tuple(blocks)), tuple(segments))
    values = []
    for i in range(desc.shape.r):
        values.extend(draw(st.permutations(desc.block_params(i))))
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(_GAMMAS))
    return desc, UnramifiedCharacter(desc.shape, tuple(values))


@settings(max_examples=300, derandomize=True, database=None)
@given(_descriptor_and_refinement())
def test_is_accessible_matches_oracle_property(case):
    _assert_matches_oracle(*case)


def _old_is_generic(desc):
    """Oracle: ``is_generic`` before the lookup of segment tops, a pairwise
    ``_segments_linked`` scan after the distinctness check."""
    params = desc.all_params()
    if len(set(params)) != len(params):
        return False
    flat = [seg for block in desc.segments for seg in block]
    for a in range(len(flat)):
        for b in range(a + 1, len(flat)):
            if _segments_linked(flat[a], flat[b]):
                return False
    return True


def _old_accessible_transfer_check(desc, cfg):
    """Oracle: ``accessible_transfer_check`` before the direct construction: every
    ordering is enumerated and the accessible ones are filtered out.  ``is_accessible``
    itself is pinned to ``_old_is_accessible`` above."""
    transferred = transferred_descriptor(desc, cfg)
    for d in (desc, transferred):
        if not _old_is_generic(d):
            raise UnsupportedLinked(_LINKED)
    for refinement in enumerate_refinements(desc):
        if is_accessible(desc, refinement):
            if not is_accessible(transferred, refinement_pullback(refinement, cfg)):
                return False
    return True


def _ladder_shuffles(desc, i):
    """Block ``i``'s accessible orderings as ``Monomial`` tuples, the construction
    ``accessible_transfer_check`` used before it worked on labels: for each
    order-preserving ``sigma`` of the segment lengths, slot ``p`` gets ladder entry
    ``sigma^-1(p)``."""
    ladder = desc.block_params(i)
    sigmas = block_order_preserving_permutations(GroupShape(seg.d for seg in desc.segments[i]))
    return [tuple(ladder[u] for u in invert_permutation(sigma)) for sigma in sigmas]


def _ladder_shuffle_refinements(desc):
    return list(_characters(desc.shape, [_ladder_shuffles(desc, i) for i in range(desc.shape.r)]))


def _assert_ladder_shuffles_are_accessible_refinements(desc):
    """The direct construction: no duplicates, ``count_accessible`` of them, and
    exactly the enumerated refinements that ``is_accessible`` keeps."""
    direct = _ladder_shuffle_refinements(desc)
    assert len(set(direct)) == len(direct) == count_accessible(desc)
    assert set(direct) == {r for r in enumerate_refinements(desc) if is_accessible(desc, r)}


def _assert_transfer_check_matches_oracles(desc, cfg):
    assert desc.is_generic is _old_is_generic(desc), desc
    expected = _outcome(_old_accessible_transfer_check, desc, cfg)
    assert _outcome(accessible_transfer_check, desc, cfg) == expected, (desc, cfg)
    return expected


def test_accessible_transfer_check_matches_oracle_on_generic_family():
    """Every generic descriptor with n <= 5 and every order-preserving sigma."""
    pairs = 0
    for desc in _generic_descriptors(5):
        _assert_ladder_shuffles_are_accessible_refinements(desc)
        for sigma in block_order_preserving_permutations(desc.shape):
            cfg = config(desc.shape.blocks, sigma=sigma)
            assert _assert_transfer_check_matches_oracles(desc, cfg) is True
            # neither verdict can fail: the target count is the source count times
            # the number of order-preserving sigmas, n! / prod(n_i!)
            count_source, count_target, count_ok = refinement_count_inequality(desc, cfg)
            blocks = desc.shape.blocks
            assert count_target == count_source * factorial(sum(blocks)) // prod(
                factorial(b) for b in blocks
            )
            assert count_ok is True
            pairs += 1
    assert pairs == 1643


def test_accessible_transfer_check_matches_oracle_on_non_generic_descriptors():
    a, g, mu = symbol("a"), symbol("g"), symbol("M")
    q = qpow(1)
    cases = {
        "linked in a block": ((2,), ((Segment(g, 1), Segment(g / q, 1)),)),
        "linked ladders": ((3,), ((Segment(g, 2), Segment(g * qpow(Fraction(-3, 2)), 1)),)),
        "repeated": ((2,), ((Segment(a, 1), Segment(a, 1)),)),
        "linked across blocks": ((1, 1), ((Segment(g, 1),), (Segment(g * q, 1),))),
        "ladders linked across blocks": (
            (2, 1), ((Segment(g, 2),), (Segment(g * qpow(Fraction(-3, 2)), 1),))
        ),
        # block 2 picks up M on transfer and then links with block 1
        "linked after transfer": (
            (1, 2), ((Segment(mu * g * qpow(Fraction(-3, 2)), 1),), (Segment(g, 2),))
        ),
    }
    for name, (blocks, segments) in cases.items():
        desc = LocalRepDescriptor(GroupShape(blocks), segments)
        assert desc.is_generic is (name == "linked after transfer"), name
        for sigma in block_order_preserving_permutations(desc.shape):
            cfg = config(blocks, sigma=sigma)
            assert _assert_transfer_check_matches_oracles(desc, cfg) == (
                UnsupportedLinked, _LINKED
            ), name


def test_accessible_transfer_check_builds_instead_of_filtering(monkeypatch):
    """A direct order test: no ordering is enumerated or checked for ladder order, no
    refinement is tested for accessibility, and no transferred descriptor and no
    ``Monomial`` is built."""
    a, b, c, g = (symbol(name) for name in "abcg")
    desc = LocalRepDescriptor(
        GroupShape((2, 3)), ((Segment(a, 1), Segment(b, 1)), (Segment(g, 2), Segment(c, 1)))
    )
    cfg = config((2, 3), sigma=(1, 3, 0, 2, 4))

    def enumerated(*args):
        raise AssertionError("an ordering was enumerated")

    for module, name in (
        (refinements_module, "permutations"),
        (refinements_module, "product"),
        (transfer_module, "block_order_preserving_permutations"),
        (transfer_module, "_block_order_preserving"),
    ):
        monkeypatch.setattr(module, name, enumerated)
    for name in ("enumerate_refinements", "is_accessible", "transferred_descriptor"):
        monkeypatch.setattr(refinements_module, name, None)
    monkeypatch.setattr(refinements_module, "_in_ladder_order", None)
    built = []
    new_object = monomial_module._new_object
    monkeypatch.setattr(
        monomial_module, "_new_object", lambda cls: built.append(cls) or new_object(cls)
    )
    assert accessible_transfer_check(desc, cfg)
    assert refinement_count_inequality(desc, cfg) == (6, 60, True)
    assert built == []


def _old_refinement_count_inequality(desc, cfg):
    """Oracle: ``refinement_count_inequality`` before the closed form, counting on a
    built transferred descriptor."""
    transferred = transferred_descriptor(desc, cfg)
    _require_generic(desc)
    _require_generic(transferred)
    count_source, count_target = count_accessible(desc), count_accessible(transferred)
    return count_source, count_target, count_source <= count_target


def _assert_counts_match_oracle(desc, cfg):
    expected = _outcome(_old_refinement_count_inequality, desc, cfg)
    assert _outcome(refinement_count_inequality, desc, cfg) == expected, (desc, cfg)
    return expected


def test_refinement_count_inequality_matches_built_descriptor_counts():
    """The closed-form target count against ``count_accessible`` of the built
    transferred descriptor, with the same refusals in the same order."""
    targets = set()
    for desc in _generic_descriptors(5):
        for sigma in block_order_preserving_permutations(desc.shape):
            source, target, ok = _assert_counts_match_oracle(desc, config(desc.shape.blocks, sigma))
            targets.add(target)
            assert ok
    # the distinct n!/prod(d!) over the segment lengths summing to n <= 5
    assert targets == {1, 2, 3, 4, 5, 6, 10, 12, 20, 24, 30, 60, 120}
    a, g, mu = symbol("a"), symbol("g"), symbol("M")
    linked = LocalRepDescriptor(GroupShape((2,)), ((Segment(g, 1), Segment(g / qpow(1), 1)),))
    linked_on_transfer = _desc([[(mu * g * qpow(Fraction(-3, 2)), 1)], [(g, 2)]])
    repeated_on_transfer = _desc([[(mu * a, 1)], [(a, 1), (g, 1)]])
    cases = [
        (linked, config((2,)), (UnsupportedLinked, _LINKED)),
        # a wrong shape is refused before genericity
        (
            linked,
            config((1, 1)),
            (SizeMismatch, "descriptor on (2) does not match config source (1,1)"),
        ),
        (linked_on_transfer, config((1, 2)), (UnsupportedLinked, _LINKED)),
        (repeated_on_transfer, config((1, 2), sigma=(1, 0, 2)), (UnsupportedLinked, _LINKED)),
    ]
    for desc, cfg, expected in cases:
        assert _assert_counts_match_oracle(desc, cfg) == expected
        assert _outcome(accessible_transfer_check, desc, cfg) == expected


# twist names sorting before the gamma symbols and q, between them and after them
_TWIST_NAMES = ("A", "M", "a0", "s9", "z")


def _assert_transferred_genericity_matches_built(desc, cfg):
    """The transfer check and the counts, with their refusals, against the old check,
    the old counts and the built transferred descriptor's ``is_generic``."""
    outcome = _assert_transfer_check_matches_oracles(desc, cfg)
    _assert_counts_match_oracle(desc, cfg)
    if desc.is_generic:
        assert (outcome is True) is transferred_descriptor(desc, cfg).is_generic, (desc, cfg)
    return outcome


@pytest.mark.parametrize("mu", [mu for mu in _TWIST_NAMES if mu != "M"])
def test_twist_placement_on_generic_family(mu):
    """The twist entry merged into each ladder key wherever ``mu`` sorts among the
    ``s<k>`` gamma symbols and ``q``, over the 1,643 generic pairs.  ``M`` runs over
    them in ``test_accessible_transfer_check_matches_oracle_on_generic_family`` and
    ``test_refinement_count_inequality_matches_built_descriptor_counts``."""
    pairs = 0
    for desc in _generic_descriptors(5):
        for sigma in block_order_preserving_permutations(desc.shape):
            cfg = config(desc.shape.blocks, sigma, mu=mu)
            assert _assert_transferred_genericity_matches_built(desc, cfg) is True
            pairs += 1
    assert pairs == 1643


@st.composite
def _descriptor_with_links_and_config(draw, mu="M", gammas=tuple(_GAMMAS)):
    """Up to three blocks of at most three parameters; a segment is sometimes drawn
    linked to the one before it (its ladder just below or just above), in the same
    block or across a block boundary, sometimes only up to a power of the twist
    symbol ``mu`` so that the link may appear on transfer; and an order-preserving
    config on the shape with that twist symbol."""
    twist_symbol = symbol(mu)
    blocks, segments, prev = [], [], None
    for _ in range(draw(st.integers(1, 3))):
        block = []
        for d in draw(st.sampled_from([(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1)])):
            if prev is not None and draw(st.integers(0, 2)) == 0:
                sign = draw(st.sampled_from((-1, 1)))
                twist = draw(st.sampled_from((ONE, twist_symbol, twist_symbol.inverse())))
                gamma = twist * prev.gamma * qpow(Fraction(sign * (prev.d + d), 2))
            else:
                gamma = draw(st.sampled_from(gammas))
            prev = Segment(gamma, d)
            block.append(prev)
        blocks.append(sum(seg.d for seg in block))
        segments.append(tuple(block))
    desc = LocalRepDescriptor(GroupShape(tuple(blocks)), tuple(segments))
    sigma = draw(st.sampled_from(list(block_order_preserving_permutations(desc.shape))))
    return desc, config(desc.shape.blocks, sigma=sigma, mu=mu)


@settings(max_examples=200, derandomize=True, database=None)
@given(_descriptor_with_links_and_config())
def test_transfer_check_and_genericity_match_oracles_with_links_property(case):
    desc, cfg = case
    _assert_transfer_check_matches_oracles(desc, cfg)
    if desc.is_generic:
        _assert_ladder_shuffles_are_accessible_refinements(desc)


# gammas of two symbols, so that a twist name can also sort between them
_WIDE_GAMMAS = tuple(_GAMMAS) + (
    symbol("a") * symbol("t"),
    symbol("B") * symbol("r") * qpow(HALF),
    symbol("a0") * symbol("s9").inverse(),
    symbol("M") * symbol("z") * qpow(-1),
)


@pytest.mark.parametrize("mu", _TWIST_NAMES)
@settings(max_examples=120, derandomize=True, database=None)
@given(data=st.data())
def test_twist_placement_with_links_property(mu, data):
    """Linked, repeated and twisted ladders with each twist name: the transfer check,
    the counts and the transferred genericity match the built descriptor and the old
    check, also where a gamma's own ``mu^-1`` cancels against the twist."""
    desc, cfg = data.draw(_descriptor_with_links_and_config(mu, _WIDE_GAMMAS))
    _assert_transferred_genericity_matches_built(desc, cfg)


def test_twist_cancelling_a_gamma_symbol_reaches_the_untwisted_ladder():
    """A gamma holding ``mu^-1`` loses the symbol on transfer, and then links with an
    untwisted ladder of the same ``q``-free part; without the twist it would not."""
    g = symbol("g")
    for mu in _TWIST_NAMES:
        m = symbol(mu)
        # on shape (1, 2) block 2 picks up the twist and block 1 does not
        desc = _desc([[(g * qpow(Fraction(3, 2)), 1)], [(m.inverse() * g, 2)]])
        cfg = config((1, 2), mu=mu)
        assert desc.is_generic and not transferred_descriptor(desc, cfg).is_generic
        outcome = _assert_transferred_genericity_matches_built(desc, cfg)
        assert outcome == (UnsupportedLinked, _LINKED), mu


def _desc(blocks_of_segments):
    """A descriptor from per-block ``(gamma, d)`` lists; block sizes follow the lengths."""
    segments = tuple(tuple(Segment(g, d) for g, d in block) for block in blocks_of_segments)
    return LocalRepDescriptor(GroupShape(tuple(sum(s.d for s in b) for b in segments)), segments)


def test_ladder_sweep_genericity_matches_oracle_on_explicit_cases():
    """The ladder sweep against ``_old_is_generic`` on ladders that overlap, touch or
    sit one apart, where gammas carry their own whole or half ``q`` exponents."""
    g, h, mu = symbol("g"), symbol("h"), symbol("M")
    third = Fraction(1, 3) * g
    cases = {
        # whole and half q exponents inside gamma
        "own whole exponent, other parity class": ([[(g * qpow(1), 2), (g, 1)]], True),
        "own whole exponent, overlapping": ([[(g * qpow(1), 3), (g, 1)]], False),
        "own half exponent, touching": ([[(g * qpow(HALF), 2), (g * qpow(-1), 1)]], False),
        "own half exponent, touching below": ([[(g * qpow(-1), 1), (g * qpow(HALF), 2)]], False),
        "one apart in the same class": ([[(g * qpow(2), 1), (g * qpow(-1), 2)]], True),
        "one apart in the other class": ([[(g * qpow(HALF), 1), (g, 1)]], True),
        "nested ladders, other class": ([[(g, 3), (g, 2)]], True),
        "nested ladders, same class": ([[(g, 3), (g, 1)]], False),
        "long ladders touching": ([[(g * qpow(3), 3), (g * qpow(Fraction(-1, 2)), 4)]], False),
        "long ladders two apart": ([[(g * qpow(Fraction(7, 2)), 3), (g / qpow(HALF), 4)]], True),
        "equal segments": ([[(g * qpow(HALF), 2), (g * qpow(HALF), 2)]], False),
        # Fraction coefficients are part of the q-free key
        "Fraction coefficients touching": ([[(third, 1), (third * qpow(1), 1)]], False),
        "Fraction coefficients differing": ([[(third, 1), (HALF * g * qpow(1), 1)]], True),
        "Fraction and int coefficient equal": ([[(Fraction(4, 2) * g, 1)], [(2 * g, 1)]], False),
        # other symbols keep ladders apart, whatever their q exponents
        "other symbols": ([[(g * h, 2), (g * qpow(Fraction(3, 2)), 1)]], True),
        "same symbols, other exponent": ([[(g * h, 1), (g * h * h, 1)]], True),
        "q only, touching": ([[(qpow(Fraction(-3, 2)), 1), (ONE, 2)]], False),
        "q only, other class": ([[(qpow(-1), 1), (ONE, 2)]], True),
        # equal q-free parts in different blocks
        "across blocks, touching": ([[(g * h, 2)], [(g * h * qpow(Fraction(-3, 2)), 1)]], False),
        "across blocks, overlapping": ([[(g, 2)], [(g * qpow(Fraction(-1, 2)), 1)]], False),
        "across blocks, apart": ([[(g, 2)], [(g * qpow(Fraction(5, 2)), 1)]], True),
        "three ladders, the last two touching": (
            [[(g * qpow(-3), 1), (g, 1)], [(g * qpow(Fraction(3, 2)), 2)]], False
        ),
        "three ladders, all apart": (
            [[(g * qpow(-3), 1), (g, 1)], [(g * qpow(Fraction(5, 2)), 2)]], True
        ),
        "twisted and untwisted": ([[(mu * g, 1)], [(g, 1)]], True),
    }
    for name, (blocks, expected) in cases.items():
        desc = _desc(blocks)
        assert desc.is_generic is expected, name
        assert _old_is_generic(desc) is expected, name


def test_ladder_sweep_genericity_on_transferred_descriptors():
    """``M`` twists on transfer can create a collision or a link, or leave the ladders apart."""
    g, mu = symbol("g"), symbol("M")
    # on shape (1, 2) the second block picks up M: n - n_2 = 1 is odd, n - n_1 = 2 even
    cases = {
        "collision created": ([[(mu * g * qpow(HALF), 1)], [(g, 2)]], True, False),
        "link created": ([[(mu * g * qpow(Fraction(3, 2)), 1)], [(g, 2)]], True, False),
        "apart after the twist": ([[(mu * g * qpow(Fraction(5, 2)), 1)], [(g, 2)]], True, True),
        "other parity after the twist": ([[(mu * g, 1)], [(g, 2)]], True, True),
        "collision avoided by the twist": ([[(g * qpow(HALF), 1)], [(g, 2)]], False, True),
        "inverse twist stays apart": ([[(mu.inverse() * g * qpow(HALF), 1)], [(g, 2)]], True, True),
    }
    for name, (blocks, before, after) in cases.items():
        desc = _desc(blocks)
        for sigma in block_order_preserving_permutations(desc.shape):
            moved = transferred_descriptor(desc, config(desc.shape.blocks, sigma=sigma))
            assert (desc.is_generic, moved.is_generic) == (before, after), name
            assert (_old_is_generic(desc), _old_is_generic(moved)) == (before, after), name


def test_ladder_sweep_genericity_matches_oracle_exhaustively():
    """Every pair of segments over 28 gammas (coefficient 1 or 1/2, with or without a
    symbol, doubled ``q`` exponent -3..3) and lengths 1..3, in one block and in two;
    and every triple of pure ``q`` powers with lengths 1..2 in one block."""
    gammas = [
        Monomial(c, {**sym, "q": Fraction(t, 2)})
        for c in (1, HALF)
        for sym in ({}, {"g": 1})
        for t in range(-3, 4)
    ]
    segs = [(gamma, d) for gamma in gammas for d in (1, 2, 3)]
    verdicts = set()
    for a, b in product(segs, repeat=2):
        for blocks in ([[a, b]], [[a], [b]]):
            desc = _desc(blocks)
            verdicts.add(desc.is_generic)
            assert desc.is_generic is _old_is_generic(desc), blocks
    assert verdicts == {True, False}
    pure = [(qpow(Fraction(t, 2)), d) for t in range(-3, 4) for d in (1, 2)]
    for triple in product(pure, repeat=3):
        desc = _desc([list(triple)])
        assert desc.is_generic is _old_is_generic(desc), triple
