"""Transfer maps from a product of general linear blocks to a single block.

The source group is a product of general linear groups with block sizes
``(n_1, ..., n_r)``; the target is a single block of size ``n = sum(n_i)``.
Both share a diagonal torus of rank ``n``, so every map here is plain exact
arithmetic on length-``n`` tuples.  The four character maps are affine: the
value at target slot ``p`` is ``T[p] * chi[sigma^-1(p)]``, where ``sigma`` is a
block-order-preserving permutation and the tuple ``T`` is cached per config,
each entry made once from its integer ``M``, ``q`` and ``W`` exponents.

* ``refinement_pullback``: ``T`` is the unramified twist ``M`` on blocks whose
  complementary size ``n - n_i`` is odd (the twist symbol is trivial on even blocks).
* ``refinement_pullback_normalized``: that twist times the source half-modulus
  at ``sigma^-1(p)`` and the inverse target half-modulus at ``p``.
* ``weight_character_pullback``: ``T`` is ``W^shift``, the shift of the weight map.
* ``atkin_lehner_pullback``: ``W^shift`` times the normalized ``T``, giving the
  transfer of eigenvalue systems on the commutative double-coset algebra.
* ``weight_shift`` / ``weight_pullback`` implement the affine map on integer
  weights: entry ``p`` of the result is ``shift[p] + k[sigma^-1(p)]`` where
  the shift depends only on the source block occupying flat position ``p``,
  via ``alpha·[n - n_i odd] + (n_i - n)/2 + offset_i``.
* ``archimedean_transfer`` is the discrete-series recipe: shift each weight
  entry by the half-sum data of its block, sort strictly descending, and
  unshift with the target half-sum; collisions mean no transfer exists.  The
  recipe runs on doubled integers (``2m`` rather than the half-integer ``m``),
  sorting ints and testing parity for integrality; a ``Fraction`` is built
  only for the text of an error.  ``archimedean_sigma`` reads the weight
  shifts from the same private helper as ``TransferConfig`` and builds no
  config.

``verify_transfer_compatibility`` checks, with fully generic character
symbols, that these maps fit together: the combined map factors as
(refinement part) x (weight part) on all dominant generator cocharacters, the
two routes through the modulus normalisation agree, and the weight shifts are
integers.  The factorization is checked on slot ratios: the ``n`` values of
``lhs * rhs^-1``, in which the generic symbols cancel to small ``q``/``W``/``M``
monomials, are formed once.  A character takes ``prod ratio[p]^t[p]`` at ``t``,
so on ``GL_n`` the generator with ``j`` leading ones reads the product of the
first ``j`` ratios and ``(-1,..,-1)`` the inverse of all ``n``.  Evaluation is a
homomorphism and the arithmetic is exact, so this is ``lhs(t) * rhs(t)^-1``.
Everything but ``lhs`` is the same with and without ``drop_normalization``,
so it is built once per config and kept on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from operator import mul
from typing import Iterable, Iterator, Sequence

from ._frozen import FrozenValue, _set
from .errors import (
    InvalidSigma,
    NonIntegralShift,
    NotRelevant,
    NotSymmetric,
    SizeMismatch,
)
from .laurent import LaurentPoly
from .monomial import (
    Monomial,
    RESIDUE_SYMBOL,
    UNIFORMIZER_SYMBOL,
    _exact,
    _half_power,
    _times,
    valid_symbol,
)
from .tori import (
    AlgebraicWeight,
    CocharVector,
    GroupShape,
    UnramifiedCharacter,
    _integers,
    modulus_half,
)

__all__ = [
    "DEFAULT_TWIST_SYMBOL",
    "TransferConfig",
    "CheckResult",
    "TransferReport",
    "ArchimedeanTransfer",
    "invert_permutation",
    "block_order_preserving_permutations",
    "dominant_generators",
    "iota_sigma_pullback",
    "refinement_pullback",
    "refinement_pullback_normalized",
    "weight_shift",
    "weight_pullback",
    "weight_character_pullback",
    "atkin_lehner_pullback",
    "archimedean_transfer",
    "archimedean_sigma",
    "satake_transfer",
    "satake_param_transfer",
    "weight_map_check",
    "verify_transfer_compatibility",
]

DEFAULT_TWIST_SYMBOL = "M"


def _doubled_alpha(alpha: Fraction | int | str) -> int:
    """``2·alpha`` as an int, refusing any ``alpha`` outside ``(1/2)Z``; an ``alpha``
    that is not an ``int`` or a ``Fraction`` is read by the exactness rule of
    :func:`~eigentransfer.monomial._exact`, so floats and decimal text are refused."""
    if not isinstance(alpha, (int, Fraction)):
        alpha = _exact(alpha)
    if alpha.denominator not in (1, 2):
        raise ValueError(f"alpha must be a half-integer, got {alpha}")
    return 2 * alpha.numerator // alpha.denominator


def _weight_shifts(source: GroupShape, two_alpha: int) -> tuple[int, ...]:
    """The weight-shift vector in flat source layout; see :func:`weight_shift`."""
    n = source.n
    shifts: list[int] = []
    for i, (m, offset) in enumerate(zip(source.blocks, source.offsets)):
        doubled = two_alpha * ((n - m) % 2) + m - n + 2 * offset
        if doubled % 2:
            raise NonIntegralShift(
                f"weight shift {Fraction(doubled, 2)} at block {i + 1} is not an integer "
                f"(alpha = {Fraction(two_alpha, 2)})"
            )
        shifts.extend([doubled // 2] * m)
    return tuple(shifts)


def invert_permutation(sigma: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for u, p in enumerate(sigma):
        inv[p] = u
    return tuple(inv)


def block_order_preserving_permutations(shape: GroupShape) -> Iterator[tuple[int, ...]]:
    """All permutations that are strictly increasing on each block of ``shape``.

    Yielded as tuples ``sigma`` with ``sigma[u]`` the target of flat source
    position ``u``, in lexicographic order of the chosen target sets; the
    identity comes first.  There are ``n! / prod(n_i!)`` of them.
    """
    yield from _block_order_preserving(shape.blocks, 0, tuple(range(shape.n)))


def _block_order_preserving(
    blocks: tuple[int, ...], i: int, remaining: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Images of blocks ``i, i+1, ...`` drawn in order from the free slots ``remaining``.

    Module-level rather than a closure: a self-referencing closure is a
    reference cycle left to the cyclic collector on every call.
    """
    if i == len(blocks):
        yield ()
        return
    for chosen in combinations(remaining, blocks[i]):
        rest = tuple(x for x in remaining if x not in chosen)
        for tail in _block_order_preserving(blocks, i + 1, rest):
            yield chosen + tail


def dominant_generators(shape: GroupShape) -> tuple[CocharVector, ...]:
    """Monoid generators of the antidominant-ordered cocharacters.

    Per block: the partial indicator vectors (1,..,1,0,..,0) of each length,
    plus the negated full-block vector.
    """
    gens = []
    for i in range(shape.r):
        block = list(shape.block_range(i))
        for j in range(1, shape.blocks[i] + 1):
            exps = [0] * shape.n
            for u in block[:j]:
                exps[u] = 1
            gens.append(CocharVector(shape, tuple(exps)))
        exps = [0] * shape.n
        for u in block:
            exps[u] = -1
        gens.append(CocharVector(shape, tuple(exps)))
    return tuple(gens)


class TransferConfig(FrozenValue):
    """A transfer datum: source blocks, slot permutation, half-integer alpha, twist symbol.

    ``sigma`` maps flat source positions to target positions (0-based) and must
    be strictly increasing on each source block.  ``alpha`` is the archimedean
    half-integer entering the weight shifts; values outside ``Z + 1/2`` are
    accepted and flagged per-operation when they make a shift non-integral.
    ``mu`` names the unramified twist symbol.  Place tags are not part of the
    config: a point carries its own tags, and the transfer treats them alike.
    """

    _fields = ("source", "sigma", "alpha", "mu")

    def __init__(
        self,
        source: GroupShape | Iterable[int],
        sigma: Iterable[int],
        alpha: Fraction | int | str,
        mu: str = DEFAULT_TWIST_SYMBOL,
    ) -> None:
        if not isinstance(source, GroupShape):
            source = GroupShape(tuple(source))
        sigma = _integers(sigma, "sigma entries")
        n = source.n
        if len(sigma) != n or sorted(sigma) != list(range(n)):
            raise InvalidSigma(f"sigma must be a permutation of 0..{n - 1}, got {sigma}")
        for i in range(source.r):
            images = [sigma[u] for u in source.block_range(i)]
            if any(a >= b for a, b in zip(images, images[1:])):
                raise InvalidSigma(
                    f"sigma must be strictly increasing on block {i + 1}; images {images}"
                )
        two_alpha = _doubled_alpha(alpha)
        if not valid_symbol(mu) or mu in (RESIDUE_SYMBOL, UNIFORMIZER_SYMBOL):
            raise ValueError(f"mu must be a fresh symbol name, got {mu!r}")
        _set(self, "source", source)
        _set(self, "sigma", sigma)
        _set(self, "alpha", Fraction(two_alpha, 2))
        _set(self, "mu", mu)

    @property
    def n(self) -> int:
        return self.source.n

    @cached_property
    def target(self) -> GroupShape:
        return GroupShape((self.n,))

    @cached_property
    def sigma_inverse(self) -> tuple[int, ...]:
        return invert_permutation(self.sigma)

    def twist_exponent(self, i: int) -> int:
        """1 when ``n - n_i`` is odd (the twist symbol appears), else 0."""
        return (self.n - self.source.blocks[i]) % 2

    def twist_monomial(self, i: int) -> Monomial:
        return _half_power(self.mu, 2 * self.twist_exponent(i))

    @cached_property
    def _slot_twist_exponents(self) -> tuple[int, ...]:
        """The twist exponent at each target slot ``p``, from the block of ``sigma^-1(p)``."""
        return tuple(self.twist_exponent(self.source.block_of(u)[0]) for u in self.sigma_inverse)

    def _multipliers(self, normalized: bool, weighted: bool) -> tuple[Monomial, ...]:
        """Per target slot ``p``, with ``u = sigma^-1(p)`` at block ``i``, entry ``j``:
        ``M^t`` times, when ``normalized``, the source half-modulus at ``u`` and the
        inverse target half-modulus at ``p``, which together are ``q^((2(j-p)+n-n_i)/2)``,
        times, when ``weighted``, ``W^shift[p]``.  Each is made once from its doubled
        exponents.  The shifts are read first, so a non-integral one raises first."""
        shifts = self._shifts if weighted else None
        n, blocks, mu = self.n, self.source.blocks, self.mu
        positions = self.source._positions
        out = []
        for p, (u, t) in enumerate(zip(self.sigma_inverse, self._slot_twist_exponents)):
            twice = {mu: 2 * t}
            if normalized:
                i, j = positions[u]
                twice[RESIDUE_SYMBOL] = 2 * (j - p) + n - blocks[i]
            if weighted:
                twice[UNIFORMIZER_SYMBOL] = 2 * shifts[p]
            out.append(Monomial._from_twice(1, twice))
        return tuple(out)

    @cached_property
    def _slot_twists(self) -> tuple[Monomial, ...]:
        """The twist monomial at each target slot ``p``: the plain refinement multipliers."""
        return self._multipliers(normalized=False, weighted=False)

    @cached_property
    def _normalized_multipliers(self) -> tuple[Monomial, ...]:
        """Slot twist x source half-modulus at ``sigma^-1(p)`` x inverse target half-modulus at ``p``."""
        return self._multipliers(normalized=True, weighted=False)

    @cached_property
    def _shifts(self) -> tuple[int, ...]:
        """The weight-shift vector in flat source layout; see :func:`weight_shift`.

        A non-integral shift raises on every access, since ``cached_property``
        stores nothing when the computation raises.
        """
        return _weight_shifts(self.source, _doubled_alpha(self.alpha))

    @cached_property
    def _shift_monomials(self) -> tuple[Monomial, ...]:
        """``W^shift[p]`` for each flat position ``p``: the weight-character multipliers."""
        return tuple(_half_power(UNIFORMIZER_SYMBOL, 2 * s) for s in self._shifts)

    @cached_property
    def _atkin_lehner_multipliers(self) -> tuple[Monomial, ...]:
        return self._multipliers(normalized=True, weighted=True)

    @cached_property
    def _atkin_lehner_plain_multipliers(self) -> tuple[Monomial, ...]:
        return self._multipliers(normalized=False, weighted=True)

    @cached_property
    def _verifier_half(
        self,
    ) -> tuple[CheckResult, tuple[UnramifiedCharacter, UnramifiedCharacter] | None, CheckResult]:
        """The part of :func:`verify_transfer_compatibility` that ``drop_normalization``
        does not change: the shift-integrality check, the factorization inputs and
        the modulus-duality check.

        The factorization inputs are ``chi * zeta`` for the generic characters
        ``chi`` and ``zeta``, and the inverse of the right side
        ``refinement_pullback_normalized(chi) * weight_character_pullback(zeta)``;
        they are ``None`` when a weight shift is not integral.
        """
        try:
            weight_shift(self)
            shift_check = CheckResult("shift-integrality", True)
        except NonIntegralShift as err:
            shift_check = CheckResult("shift-integrality", False, (str(err),))

        avoid = {self.mu}
        chi = _generic_character(self.source, "x", avoid)
        zeta = _generic_character(self.source, "z", avoid)

        sides = None
        if shift_check.passed:
            rhs_char = refinement_pullback_normalized(chi, self)
            rhs_char = rhs_char * weight_character_pullback(zeta, self)
            sides = (chi * zeta, rhs_char.inverse())

        lhs = refinement_pullback_normalized(chi * modulus_half(self.source, -1), self)
        rhs = refinement_pullback(chi, self) * modulus_half(self.target, -1)
        residuals = tuple(
            f"e_{p + 1}: {(lhs.values[p] * rhs.values[p].inverse()).text()}"
            for p in range(self.n)
            if lhs.values[p] != rhs.values[p]
        )
        return shift_check, sides, CheckResult("modulus-duality", not residuals, residuals)


def _require_source(data, cfg: TransferConfig) -> None:
    if data.shape != cfg.source:
        raise SizeMismatch(
            f"data lives on shape {data.shape} but the config source is {cfg.source}"
        )


def iota_sigma_pullback(chi: UnramifiedCharacter, sigma: Sequence[int]) -> UnramifiedCharacter:
    """Permutation action on single-block characters: value ``p`` becomes value ``sigma^-1(p)``."""
    if chi.shape.r != 1:
        raise SizeMismatch("permutation pullback acts on single-block characters")
    n = chi.shape.n
    sigma = _integers(sigma, "permutation entries")
    if len(sigma) != n:
        raise SizeMismatch(f"permutation has length {len(sigma)}, character has rank {n}")
    if sorted(sigma) != list(range(n)):
        raise InvalidSigma(f"not a permutation of 0..{n - 1}: {sigma}")
    inv = invert_permutation(sigma)
    return UnramifiedCharacter._new(chi.shape, tuple(chi.values[inv[p]] for p in range(n)))


def _affine_pullback(
    chi: UnramifiedCharacter, cfg: TransferConfig, multipliers: tuple[Monomial, ...]
) -> UnramifiedCharacter:
    """The character with value ``multipliers[p] * chi(e_u)``, ``u = sigma^-1(p)``, at slot ``p``."""
    values = chi.values
    return UnramifiedCharacter._new(
        cfg.target, tuple(m * values[u] for m, u in zip(multipliers, cfg.sigma_inverse))
    )


def refinement_pullback(chi: UnramifiedCharacter, cfg: TransferConfig) -> UnramifiedCharacter:
    """Target value at ``p`` is ``M^[n - n_i odd] * chi(e_u)`` for ``u = sigma^-1(p)``."""
    _require_source(chi, cfg)
    return _affine_pullback(chi, cfg, cfg._slot_twists)


def refinement_pullback_normalized(
    chi: UnramifiedCharacter, cfg: TransferConfig
) -> UnramifiedCharacter:
    """Refinement transfer carrying the modulus normalisation.

    Target value at ``p`` is the plain transferred value multiplied by the
    source half-modulus at the source slot and the inverse target half-modulus
    at ``p``; equivalently the plain transfer of ``chi * delta_source^(1/2)``
    times ``delta_target^(-1/2)``.
    """
    _require_source(chi, cfg)
    return _affine_pullback(chi, cfg, cfg._normalized_multipliers)


def weight_shift(cfg: TransferConfig) -> tuple[int, ...]:
    """The integer shift vector of the affine weight map.

    In flat source layout the entry at every position of block ``i`` is
    ``alpha·[n - n_i odd] + (n_i - n)/2 + offset_i``.  Raises when a shift
    fails to be an integer, which happens exactly when some ``n - n_i`` is odd
    and ``alpha`` is not in ``Z + 1/2``.
    """
    return cfg._shifts


def weight_pullback(weight: AlgebraicWeight, cfg: TransferConfig) -> AlgebraicWeight:
    """Affine weight transfer: entry ``p`` is ``shift[p] + k[sigma^-1(p)]``.

    The shift stays attached to the flat position ``p`` while the weight entry
    moves with ``sigma``; this is the convention under which the archimedean
    recipe is reproduced whenever it can be.
    """
    _require_source(weight, cfg)
    exps = tuple(s + weight.exps[u] for s, u in zip(weight_shift(cfg), cfg.sigma_inverse))
    return AlgebraicWeight(cfg.target, exps)


def weight_character_pullback(
    chi: UnramifiedCharacter, cfg: TransferConfig
) -> UnramifiedCharacter:
    """Character form of the weight map: value at ``p`` is ``W^shift[p] * chi(e_u)``."""
    _require_source(chi, cfg)
    return _affine_pullback(chi, cfg, cfg._shift_monomials)


def atkin_lehner_pullback(
    chi: UnramifiedCharacter, cfg: TransferConfig, normalized: bool = True
) -> UnramifiedCharacter:
    """Eigenvalue-system transfer: the (normalized) refinement transfer times ``W^shift``.

    ``normalized=False`` drops the modulus normalisation and is provided as a
    negative control for the compatibility verifier.
    """
    # the shifts are read first: a non-integral shift raises before the shape check
    multipliers = (
        cfg._atkin_lehner_multipliers if normalized else cfg._atkin_lehner_plain_multipliers
    )
    _require_source(chi, cfg)
    return _affine_pullback(chi, cfg, multipliers)


class CheckResult(FrozenValue):
    """One named identity check; ``residuals`` lists the non-trivial ratios on failure."""

    __slots__ = _fields = ("name", "passed", "residuals")

    def __init__(self, name: str, passed: bool, residuals: tuple[str, ...] = ()) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "residuals", residuals)


class TransferReport(FrozenValue):
    """Outcome of the compatibility verifier; passes iff every check has no residual."""

    __slots__ = _fields = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]) -> None:
        _set(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _generic_character(shape: GroupShape, prefix: str, avoid: set[str]) -> UnramifiedCharacter:
    values = []
    for u in range(shape.n):
        name = f"{prefix}{u + 1}"
        while name in avoid or name in (RESIDUE_SYMBOL, UNIFORMIZER_SYMBOL):
            name += "_"
        values.append(_half_power(name, 2))
    return UnramifiedCharacter._new(shape, tuple(values))


def _factorization_residuals(ratios: tuple[Monomial, ...]) -> tuple[str, ...]:
    """The non-trivial values of the slot-ratio character at the generators of ``GL_n``,
    in :func:`dominant_generators` order: the ``n`` prefix products, then the
    inverse of the full product at the negated full vector."""
    n = len(ratios)
    prefixes = list(accumulate(ratios, mul))
    gens = [(1,) * j + (0,) * (n - j) for j in range(1, n + 1)] + [(-1,) * n]
    values = prefixes + [prefixes[-1].inverse()]
    return tuple(f"t={t}: {v.text()}" for t, v in zip(gens, values) if not v.is_one())


def verify_transfer_compatibility(
    cfg: TransferConfig, drop_normalization: bool = False
) -> TransferReport:
    """Symbolic consistency suite for one transfer datum.

    Runs three exact checks with fully generic character symbols:

    * ``shift-integrality`` — every weight shift is an integer, so the affine
      weight map is a bijection of the integer lattice;
    * ``atkin-lehner-factorization`` — on every dominant generator
      cocharacter of the target, the eigenvalue-system transfer of a product
      ``chi * zeta`` equals the normalized refinement transfer of ``chi``
      times the weight-character transfer of ``zeta``;
    * ``modulus-duality`` — the normalized transfer of
      ``chi * delta_source^(-1/2)`` equals the plain transfer of ``chi`` times
      ``delta_target^(-1/2)``, comparing all basis values.

    ``drop_normalization=True`` replaces the eigenvalue-system transfer by its
    unnormalized variant; for more than one source block this must fail.

    The factorization residual at ``t`` is the slot-ratio character
    ``lhs * rhs^-1`` evaluated at ``t``, read as a prefix product of the ratios
    (inverted at the negated full vector).  Since ``chi -> chi(t)`` is a
    homomorphism, that is exactly ``lhs(t) * rhs(t)^-1``, so the residual
    texts are those of evaluating both sides at each generator.

    Only ``lhs`` depends on ``drop_normalization``.  The rest is built once per
    config and kept on it: the shift-integrality and modulus-duality checks,
    ``chi * zeta`` and ``rhs^-1`` (see ``TransferConfig._verifier_half``).  A
    call runs one pullback of ``chi * zeta``, one product with ``rhs^-1`` and
    the prefix products.
    """
    shift_check, sides, duality_check = cfg._verifier_half
    if sides is None:
        skipped = ("skipped: weight shifts are not integral",)
        factorization = CheckResult("atkin-lehner-factorization", False, skipped)
    else:
        product, rhs_inverse = sides
        lhs_char = atkin_lehner_pullback(product, cfg, normalized=not drop_normalization)
        ratios = lhs_char * rhs_inverse  # the generic symbols cancel slot by slot
        residuals = _factorization_residuals(ratios.values)
        factorization = CheckResult("atkin-lehner-factorization", not residuals, residuals)
    return TransferReport((shift_check, factorization, duality_check))


class ArchimedeanTransfer(FrozenValue):
    """Result of the archimedean recipe: the target weight and the sorting permutation.

    ``sigma[u]`` is the descending rank of the shifted parameter of source
    position ``u``; it is always strictly increasing on each source block.
    """

    __slots__ = _fields = ("weight", "sigma")

    def __init__(self, weight: AlgebraicWeight, sigma: tuple[int, ...]) -> None:
        _set(self, "weight", weight)
        _set(self, "sigma", sigma)


def archimedean_transfer(weight: AlgebraicWeight, alpha) -> ArchimedeanTransfer:
    """Discrete-series weight transfer.

    Shift each entry to ``m_{i,j} = k_{i,j} + (n_i + 1)/2 - j + alpha·[n - n_i
    odd]`` (1-based ``j``), require the ``m`` to be pairwise distinct, sort
    strictly descending, and set ``k'_p = m'_p - (n + 1)/2 + p`` (1-based
    ``p``).  The output is automatically dominant.  Collisions raise
    ``NotRelevant``; non-integral outputs raise ``NonIntegralShift``.  The
    work is done on the doubled parameters ``2m``, which are integers.
    """
    return _archimedean_transfer(weight, alpha)[0]


def _archimedean_transfer(weight: AlgebraicWeight, alpha) -> tuple[ArchimedeanTransfer, int]:
    """:func:`archimedean_transfer` and ``2·alpha``, parsed once and after the weight check."""
    shape = weight.shape
    if weight.classify() == "neither":
        raise ValueError("archimedean transfer needs a dominant weight")
    two_alpha = _doubled_alpha(alpha)
    n, exps = shape.n, weight.exps
    # doubled parameters 2m = 2k + (n_i + 1) - 2(j + 1) + 2·alpha·[n - n_i odd]
    ms: list[int] = []
    for m, offset in zip(shape.blocks, shape.offsets):
        base = m - 1 + two_alpha * ((n - m) % 2)
        ms.extend(2 * exps[offset + j] + base - 2 * j for j in range(m))
    if len(set(ms)) != n:
        # the text of Fraction(d, 2), without building one
        raise NotRelevant(
            "archimedean parameters collide: "
            + ", ".join(str(d // 2) if d % 2 == 0 else f"{d}/2" for d in sorted(ms))
        )
    order = sorted(range(n), key=ms.__getitem__, reverse=True)
    out = []
    for p, u in enumerate(order):
        doubled = ms[u] - n + 1 + 2 * p  # 2k'_p = 2m'_p - (n + 1) + 2(p + 1)
        if doubled % 2:
            raise NonIntegralShift(
                f"transferred weight entry {Fraction(doubled, 2)} is not an integer"
            )
        out.append(doubled // 2)
    target = AlgebraicWeight._new(GroupShape((n,)), tuple(out))
    return ArchimedeanTransfer(target, invert_permutation(order)), two_alpha


def _first_realizing_sigma(
    shape: GroupShape, k: Sequence[int], need: Sequence[int]
) -> tuple[int, ...] | None:
    """The lexicographically first block-order-preserving ``sigma`` with
    ``k[u] == need[sigma[u]]`` for every ``u``, or ``None``.

    Depth-first over ``u = 0..n-1``: each position takes the smallest free
    slot whose ``need`` matches ``k[u]`` and that lies above the previous image
    in its block, and the search backtracks when no slot is left.
    """
    n = shape.n
    block_starts = set(shape.offsets)
    sigma = [0] * n
    used = [False] * n
    u, lo = 0, 0
    while u < n:
        if u not in block_starts:
            lo = max(lo, sigma[u - 1] + 1)
        p = lo
        while p < n and (used[p] or need[p] != k[u]):
            p += 1
        if p < n:
            sigma[u] = p
            used[p] = True
            u, lo = u + 1, 0
        else:
            u -= 1
            if u < 0:
                return None
            used[sigma[u]] = False
            lo = sigma[u] + 1
    return tuple(sigma)


def archimedean_sigma(weight: AlgebraicWeight, alpha) -> tuple[int, ...]:
    """A block-order-preserving permutation realizing the archimedean transfer.

    ``weight_pullback`` puts ``shift[p] + k[sigma^-1(p)]`` at slot ``p`` and
    the shifts do not depend on ``sigma``, so ``sigma`` realizes the target
    weight ``k'`` exactly when ``k[u] == need[sigma(u)]`` with
    ``need = k' - shift``.  The sorting permutation is returned when it
    realizes; otherwise the lexicographically first realizing permutation,
    found by a depth-first search over the slots whose ``need`` matches (a
    pruned walk of :func:`block_order_preserving_permutations` in its own
    order: at most ``n!/prod(n_i!)`` leaves, ``O(n^2)`` steps when nothing
    backtracks).
    Raises ``NotRelevant`` when no permutation realizes (which does happen for
    some mixed shapes); a multiset mismatch between ``need`` and ``k`` settles
    that at once.  Non-integral shifts raise ``NonIntegralShift``, after any
    error of :func:`archimedean_transfer`; the shifts come from the shared
    helper, with no ``TransferConfig`` built.
    """
    art, two_alpha = _archimedean_transfer(weight, alpha)
    sigma = _realizing_sigma(weight, art, two_alpha)
    if sigma is None:
        raise NotRelevant(
            f"no block-order-preserving permutation realizes the transferred weight "
            f"{art.weight.exps} from {weight.exps}"
        )
    return sigma


def _realizing_sigma(
    weight: AlgebraicWeight, art: ArchimedeanTransfer, two_alpha: int
) -> tuple[int, ...] | None:
    """The permutation :func:`archimedean_sigma` returns for the recipe's result ``art``
    on ``weight`` and ``2·alpha``, or ``None`` when none realizes; a non-integral
    shift raises ``NonIntegralShift``."""
    shape = weight.shape
    shifts = _weight_shifts(shape, two_alpha)
    need = [t - s for t, s in zip(art.weight.exps, shifts)]
    k = weight.exps
    if all(k[u] == need[p] for u, p in enumerate(art.sigma)):
        return art.sigma
    if sorted(need) == sorted(k):
        return _first_realizing_sigma(shape, k, need)
    return None


def satake_transfer(poly: LaurentPoly, cfg: TransferConfig) -> LaurentPoly:
    """Spherical transfer: substitute target variable ``y_p`` by ``M^[...] * x_u``, ``p = sigma(u)``.

    The input must be symmetric on the single target block; the output is then
    symmetric on each source block, and the map is a ring homomorphism.
    """
    if poly.blocks != (cfg.n,):
        raise SizeMismatch(
            f"input must live on the single target block of size {cfg.n}, got blocks {poly.blocks}"
        )
    if not poly.is_block_symmetric():
        raise NotSymmetric("input polynomial is not symmetric in the target variables")
    # keyed like LaurentPoly's own terms, so coefficients sharing an exponent vector all survive
    out = {}
    mu, slot_twists = cfg.mu, cfg._slot_twist_exponents
    for (exps, sym), coeff in poly._terms.items():
        pulled = tuple(exps[p] for p in cfg.sigma)
        shift = 2 * sum(e * t for e, t in zip(exps, slot_twists))
        out[pulled, _times(sym, mu, shift)] = coeff
    return LaurentPoly._raw(cfg.source.blocks, out)


def satake_param_transfer(
    params: Sequence[Sequence[Monomial]], cfg: TransferConfig
) -> tuple[Monomial, ...]:
    """Union of the per-block parameter multisets, each twisted by its ``M`` power.

    Returned sorted by canonical text, since only the multiset is meaningful.
    """
    blocks = tuple(tuple(block) for block in params)
    if len(blocks) != cfg.source.r or any(
        len(block) != cfg.source.blocks[i] for i, block in enumerate(blocks)
    ):
        raise SizeMismatch(
            f"parameter blocks must have sizes {cfg.source.blocks}, got "
            f"{tuple(len(block) for block in blocks)}"
        )
    out: list[Monomial] = []
    for i, block in enumerate(blocks):
        twist = cfg.twist_monomial(i)
        out.extend(twist * value for value in block)
    return tuple(sorted(out, key=lambda m: m.text()))


def weight_map_check(cfg: TransferConfig) -> bool:
    """True iff the affine weight map is a bijection of the integer lattice."""
    try:
        weight_shift(cfg)
    except NonIntegralShift:
        return False
    return True
