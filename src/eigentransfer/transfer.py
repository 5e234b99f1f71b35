"""Transfer maps from a product of general linear blocks to a single block.

The source group is a product of general linear groups with block sizes
``(n_1, ..., n_r)``; the target is a single block of size ``n = sum(n_i)``.
Both share a diagonal torus of rank ``n``, so every map here is exact
arithmetic on length-``n`` tuples.  A config's ``sigma`` is a
block-order-preserving permutation of the flat positions, and the four
character maps are affine: the value at target slot ``p`` is
``T[p] * chi[sigma^-1(p)]`` for a multiplier ``T[p]`` with coefficient one, kept
on the config as its row of ``(symbol, doubled exponent)`` pairs.

* ``refinement_pullback``: ``T`` is the unramified twist ``M`` on blocks whose
  complementary size ``n - n_i`` is odd (the twist symbol is trivial on even blocks).
* ``refinement_pullback_normalized``: that twist times the source half-modulus
  at ``sigma^-1(p)`` and the inverse target half-modulus at ``p``.
* ``weight_character_pullback``: ``T`` is ``W^shift``, the shift of the weight map.
* ``atkin_lehner_pullback``: ``W^shift`` times the normalized ``T``, giving the
  transfer of eigenvalue systems on the commutative double-coset algebra.
* ``weight_shift`` / ``weight_pullback``: the affine map on integer weights.
* ``archimedean_transfer`` / ``archimedean_sigma``: the discrete-series recipe
  and a permutation that realizes it through ``weight_pullback``.

``verify_transfer_compatibility`` checks symbolically that these maps fit together.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache
from itertools import combinations

from ._frozen import Derived, FrozenValue, _set
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
    _integers,
    _merge,
    _times,
    _times_rows,
    valid_symbol,
)
from .tori import AlgebraicWeight, CocharVector, GroupShape, UnramifiedCharacter

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
# the multiplier tables of TransferConfig that carry W^shift
_SHIFTED_TABLES = ("_shift_rows", "_atkin_lehner_multipliers", "_atkin_lehner_plain_multipliers")


def _doubled_alpha(alpha: Fraction | int | str) -> int:
    """``2·alpha`` as an int, refusing any ``alpha`` outside ``(1/2)Z``; ``alpha`` is read
    by the exactness rule of :func:`~eigentransfer.monomial._exact`, so floats, bools and
    decimal text are refused."""
    alpha = _exact(alpha)
    if alpha.denominator not in (1, 2):
        raise ValueError(f"alpha must be a half-integer, got {alpha}")
    return 2 * alpha.numerator // alpha.denominator


def _weight_shifts(source: GroupShape, two_alpha: int) -> tuple[int, ...]:
    """The weight-shift vector in flat source layout; see :func:`weight_shift`.

    The doubled shift at a position is ``2·alpha`` times the shape's twist parity plus
    its doubled shift base, and the base is congruent to the parity mod 2, so the shift
    fails to be an integer exactly at the twisted positions when ``2·alpha`` is even;
    the error names the first such position's block."""
    parity, base = source._twist_parity, source._shift_base_doubled
    if two_alpha % 2 == 0 and 1 in parity:
        u = parity.index(1)
        raise NonIntegralShift(
            f"weight shift {Fraction(two_alpha + base[u], 2)} at block "
            f"{source._positions[u][0] + 1} is not an integer (alpha = {Fraction(two_alpha, 2)})"
        )
    return tuple([(two_alpha * t + b) // 2 for t, b in zip(parity, base)])


def invert_permutation(sigma: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a permutation of ``0..n-1``; any other sequence raises ``InvalidSigma``."""
    sigma = _integers(sigma, "permutation entries")
    n = len(sigma)
    inv = [-1] * n
    for u, p in enumerate(sigma):
        if not 0 <= p < n or inv[p] >= 0:
            raise InvalidSigma(f"not a permutation of 0..{n - 1}: {sigma}")
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


@cache
def dominant_generators(shape: GroupShape) -> tuple[CocharVector, ...]:
    """Monoid generators of the antidominant-ordered cocharacters.

    Per block: the partial indicator vectors (1,..,1,0,..,0) of each length,
    plus the negated full-block vector.  Built once per shape, like the
    shape's own tables: shapes are interned, so the cache holds one entry each.
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


class TransferConfig(Derived, FrozenValue):
    """A transfer datum: source blocks, slot permutation, half-integer alpha, twist symbol.

    ``sigma`` maps flat source positions to target positions (0-based) and must
    be strictly increasing on each source block; the permutation check inverts it
    and keeps the inverse as ``sigma_inverse``.  ``alpha`` is the archimedean
    half-integer entering the weight shifts; values outside ``Z + 1/2`` are
    accepted and flagged per-operation when they make a shift non-integral.
    ``mu`` names the unramified twist symbol.  Place tags are not part of the
    config: a point carries its own tags, and the transfer treats them alike.
    ``n`` and the single-block ``target`` are stored with the fields; the weight
    shifts, the multiplier tables of the pullbacks, and the verifier's kept half,
    which reads those tables, are stored on their first read (see
    :class:`~eigentransfer._frozen.Derived`).
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
        try:
            inverse = invert_permutation(sigma)
        except InvalidSigma:
            inverse = ()
        if len(inverse) != n:
            raise InvalidSigma(f"sigma must be a permutation of 0..{n - 1}, got {sigma}")
        for i, (m, offset) in enumerate(zip(source.blocks, source.offsets)):
            images = list(sigma[offset : offset + m])
            if any(a >= b for a, b in zip(images, images[1:])):
                raise InvalidSigma(
                    f"sigma must be strictly increasing on block {i + 1}; images {images}"
                )
        two_alpha = _doubled_alpha(alpha)
        if not valid_symbol(mu) or mu in (RESIDUE_SYMBOL, UNIFORMIZER_SYMBOL):
            raise ValueError(f"mu must be a fresh symbol name, got {mu!r}")
        _set(self, "source", source)
        _set(self, "sigma", sigma)
        _set(self, "sigma_inverse", inverse)
        _set(self, "alpha", Fraction(two_alpha, 2))
        _set(self, "mu", mu)
        _set(self, "n", n)
        _set(self, "target", GroupShape((n,)))

    def twist_exponent(self, i: int) -> int:
        """1 when ``n - n_i`` is odd (the twist symbol appears), else 0."""
        return (self.n - self.source.blocks[self.source._block_index(i)]) % 2

    def twist_monomial(self, i: int) -> Monomial:
        return _half_power(self.mu, 2 * self.twist_exponent(i))

    def _build_shifts(self) -> None:
        """``_shifts``, the weight-shift vector in flat source layout; see
        :func:`weight_shift`.  A non-integral shift raises and stores nothing."""
        _set(self, "_shifts", _weight_shifts(self.source, _doubled_alpha(self.alpha)))

    def _build_slots(self) -> None:
        """One pass over the target slots: the five multiplier tables, the one statement of
        the multiplier rule, which the pullbacks apply and the verifier checks.

        For slot ``p``, with ``u = sigma^-1(p)`` at block ``i``, entry ``j``, a table holds
        the doubled-exponent row of the slot's multiplier: ``M^t`` (``_slot_twists``), with
        ``t = [n - n_i odd]``; that times the source half-modulus at ``u`` and the inverse
        target half-modulus at ``p``, ``q^((j-p) + (n-n_i)/2)``
        (``_normalized_multipliers``); ``W^shift[p]`` (``_shift_rows``), times the
        normalized multiplier (``_atkin_lehner_multipliers``) or ``M^t``
        (``_atkin_lehner_plain_multipliers``).  The three ``W^shift`` tables are stored only
        when the shifts are integers.
        """
        n, mu, blocks, positions = self.n, self.mu, self.source.blocks, self.source._positions
        shifts = self._shifts if weight_map_check(self) else None
        twisted, normalized = [], []
        shifted = {name: [] for name in _SHIFTED_TABLES} if shifts is not None else {}
        for p, u in enumerate(self.sigma_inverse):
            i, j = positions[u]
            t, q = 2 * ((n - blocks[i]) % 2), 2 * (j - p) + n - blocks[i]
            w = None if shifts is None else 2 * shifts[p]
            m = _times((), mu, t)
            mq = _times(m, RESIDUE_SYMBOL, q)
            twisted.append(m)
            normalized.append(mq)
            for table, row in zip(shifted.values(), ((), mq, m)):
                table.append(_times(row, UNIFORMIZER_SYMBOL, w))
        _set(self, "_slot_twists", tuple(twisted))
        _set(self, "_normalized_multipliers", tuple(normalized))
        for name, table in shifted.items():
            _set(self, name, tuple(table))

    def _build_shifted(self) -> None:
        """The ``W^shift`` tables: the shifts are read first, so on a non-integral config
        every read of one raises ``NonIntegralShift`` and nothing is stored."""
        weight_shift(self)
        self._build_slots()

    def _build_verifier_half(self) -> None:
        """``_verifier_half``: the part of :func:`verify_transfer_compatibility` that
        ``drop_normalization`` does not change, read from the multiplier tables: the
        shift-integrality check, the modulus-duality check and the factorization rows of
        the generic characters, ``chi * zeta`` by source position and the right side
        ``refinement_pullback_normalized(chi) * weight_character_pullback(zeta)`` by
        target slot (``None`` when a weight shift is not integral).
        """
        try:
            weight_shift(self)
            shift_check = CheckResult("shift-integrality", True)
        except NonIntegralShift as err:
            shift_check = CheckResult("shift-integrality", False, (str(err),))

        inverse, normalized = self.sigma_inverse, self._normalized_multipliers
        sides = None
        if shift_check.passed:
            avoid = {self.mu}
            x = _generic_names(self.n, "x", avoid)
            z = _generic_names(self.n, "z", avoid)
            product = tuple(((xu, 2), (zu, 2)) for xu, zu in zip(x, z))
            rhs = tuple(
                _merge(_merge(row, shift), product[u])
                for row, shift, u in zip(normalized, self._shift_rows, inverse)
            )
            sides = (product, rhs)

        # the normalized transfer of chi * delta_source^(-1/2) against the plain transfer
        # of chi times delta_target^(-1/2): chi's generic value at u cancels, and the two
        # agree when the normalized multiplier at p is the plain one times the source
        # half-modulus at u and the inverse target half-modulus at p
        source_half = self.source._modulus_half_doubled
        target_half = self.target._modulus_half_doubled
        residuals = []
        for p, (u, row, twist) in enumerate(zip(inverse, normalized, self._slot_twists)):
            plain = _times(twist, RESIDUE_SYMBOL, source_half[u] - target_half[p])
            if row != plain:
                ratio = Monomial._from_twice(1, _add_ratio({}, row, plain))
                residuals.append(f"e_{p + 1}: {ratio.text()}")
        duality_check = CheckResult("modulus-duality", not residuals, tuple(residuals))
        _set(self, "_verifier_half", (shift_check, sides, duality_check))

    _builders = {
        "_shifts": _build_shifts,
        **dict.fromkeys(("_slot_twists", "_normalized_multipliers"), _build_slots),
        **dict.fromkeys(_SHIFTED_TABLES, _build_shifted),
        "_verifier_half": _build_verifier_half,
    }


def _require_source(noun: str, shape: GroupShape, cfg: TransferConfig) -> None:
    """The one check that data on ``shape`` lives on the config's source."""
    if shape is not cfg.source:
        raise SizeMismatch(f"{noun} on {shape} does not match config source {cfg.source}")


def iota_sigma_pullback(chi: UnramifiedCharacter, sigma: Sequence[int]) -> UnramifiedCharacter:
    """Permutation action on single-block characters: value ``p`` becomes value ``sigma^-1(p)``."""
    if chi.shape.r != 1:
        raise SizeMismatch("permutation pullback acts on single-block characters")
    n = chi.shape.n
    sigma = _integers(sigma, "permutation entries")
    if len(sigma) != n:
        raise SizeMismatch(f"permutation has length {len(sigma)}, character has rank {n}")
    inv = invert_permutation(sigma)
    return UnramifiedCharacter._new(chi.shape, tuple(chi.values[inv[p]] for p in range(n)))


def _affine_pullback(
    chi: UnramifiedCharacter, cfg: TransferConfig, multipliers: tuple[tuple, ...]
) -> UnramifiedCharacter:
    """The character with value ``multipliers[p] * chi(e_u)``, ``u = sigma^-1(p)``, at slot
    ``p``, each multiplier given by its doubled-exponent row."""
    return UnramifiedCharacter._new(
        cfg.target, _times_rows(multipliers, chi.values, cfg.sigma_inverse)
    )


def refinement_pullback(chi: UnramifiedCharacter, cfg: TransferConfig) -> UnramifiedCharacter:
    """Target value at ``p`` is ``M^[n - n_i odd] * chi(e_u)`` for ``u = sigma^-1(p)``."""
    _require_source("character", chi.shape, cfg)
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
    _require_source("character", chi.shape, cfg)
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
    _require_source("weight", weight.shape, cfg)
    exps = tuple(s + weight.exps[u] for s, u in zip(weight_shift(cfg), cfg.sigma_inverse))
    return AlgebraicWeight(cfg.target, exps)


def weight_character_pullback(
    chi: UnramifiedCharacter, cfg: TransferConfig
) -> UnramifiedCharacter:
    """Character form of the weight map: value at ``p`` is ``W^shift[p] * chi(e_u)``."""
    _require_source("character", chi.shape, cfg)
    return _affine_pullback(chi, cfg, cfg._shift_rows)


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
    _require_source("character", chi.shape, cfg)
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


def _generic_names(n: int, prefix: str, avoid: set[str]) -> tuple[str, ...]:
    """``prefix1 .. prefixn``, each suffixed with ``_`` until it is neither in ``avoid``
    nor a reserved symbol."""
    names = []
    for u in range(n):
        name = f"{prefix}{u + 1}"
        while name in avoid or name in (RESIDUE_SYMBOL, UNIFORMIZER_SYMBOL):
            name += "_"
        names.append(name)
    return tuple(names)


def _add_ratio(total: dict[str, int], left: tuple, right: tuple) -> dict[str, int]:
    """``total`` plus the doubled exponents of the row ``left`` minus those of ``right``.
    Every entry of both rows is summed by name, so rows of any length compare and
    generic symbols that differ stay."""
    for name, t in left:
        total[name] = total.get(name, 0) + t
    for name, t in right:
        total[name] = total.get(name, 0) - t
    return total


def _factorization_residuals(lhs: tuple, rhs: tuple) -> tuple[str, ...]:
    """The non-trivial values of the slot-ratio character ``lhs * rhs^-1`` at the generators
    of ``GL_n``, in :func:`dominant_generators` order: the ``n`` prefix products, then the
    inverse of the full product at the negated full vector.

    ``lhs[p]`` and ``rhs[p]`` are rows of ``(symbol, doubled exponent)`` pairs, so a
    prefix product is the running :func:`_add_ratio` of the slots whose rows differ; a
    monomial is built only for a generator that is reported."""
    gens = dominant_generators(GroupShape((len(lhs),)))
    total: dict[str, int] = {}
    out = []
    for gen, a, b in zip(gens, lhs, rhs):
        if a != b:
            _add_ratio(total, a, b)
        if any(total.values()):
            out.append(f"t={gen.exps}: {Monomial._from_twice(1, total).text()}")
    if any(total.values()):
        out.append(f"t={gens[-1].exps}: {Monomial._from_twice(1, total).inverse().text()}")
    return tuple(out)


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

    A side's value at a target slot is a row of ``(symbol, doubled exponent)``
    pairs: the generic symbols ``x_u`` and ``z_u``, kept by name, merged with the rows
    of the multiplier tables that the pullbacks apply, so every check reads the shipped
    tables and states no multiplier of its own.  A check passes when the rows of
    ``lhs`` and ``rhs`` agree, with no monomial built.  Otherwise the residual at a
    generator ``t`` is ``lhs(t) * rhs(t)^-1``, read from the slot ratios
    ``lhs * rhs^-1``, since ``chi -> chi(t)`` is a homomorphism: on ``GL_n`` the
    generator with ``j`` leading ones takes the product of the first ``j`` ratios, and
    ``(-1,..,-1)`` the inverse of all ``n``.  Only ``lhs`` depends on ``drop_normalization``; the
    rest is kept on the config (``TransferConfig._verifier_half``).
    """
    shift_check, sides, duality_check = cfg._verifier_half
    if sides is None:
        skipped = ("skipped: weight shifts are not integral",)
        factorization = CheckResult("atkin-lehner-factorization", False, skipped)
    else:
        product, rhs = sides
        table = (
            cfg._atkin_lehner_plain_multipliers
            if drop_normalization
            else cfg._atkin_lehner_multipliers
        )
        # the Atkin-Lehner pullback of chi * zeta: the multiplier at p times the value at u
        lhs = tuple(_merge(row, product[u]) for row, u in zip(table, cfg.sigma_inverse))
        residuals = _factorization_residuals(lhs, rhs) if lhs != rhs else ()
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
    n = shape.n
    # doubled parameters 2m = 2k + (n_i + 1) - 2(j + 1) + 2·alpha·[n - n_i odd], where
    # (n_i + 1) - 2(j + 1) is minus the doubled half-modulus exponent at the position
    ms = [
        2 * k - d + two_alpha * t
        for k, d, t in zip(weight.exps, shape._modulus_half_doubled, shape._twist_parity)
    ]
    if len(set(ms)) != n:
        # the text of Fraction(d, 2), without building one
        raise NotRelevant(
            "archimedean parameters collide: "
            + ", ".join(str(d // 2) if d % 2 == 0 else f"{d}/2" for d in sorted(ms))
        )
    order = sorted(range(n), key=ms.__getitem__, reverse=True)
    out, sigma = [], [0] * n
    for p, u in enumerate(order):
        sigma[u] = p
        doubled = ms[u] - n + 1 + 2 * p  # 2k'_p = 2m'_p - (n + 1) + 2(p + 1)
        if doubled % 2:
            raise NonIntegralShift(
                f"transferred weight entry {Fraction(doubled, 2)} is not an integer"
            )
        out.append(doubled // 2)
    target = AlgebraicWeight._new(GroupShape((n,)), tuple(out))
    return ArchimedeanTransfer(target, tuple(sigma)), two_alpha


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
    realizes; otherwise the lexicographically first realizing permutation
    (:func:`_first_realizing_sigma`).  Raises ``NotRelevant`` when no permutation
    realizes (which does happen for some mixed shapes).  Every error of
    :func:`archimedean_transfer` comes first; after it the shifts are integers,
    since the recipe's doubled output at a slot of block ``i`` has the parity of
    block ``i``'s doubled shift.
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
    on ``weight`` and ``2·alpha``, or ``None`` when none realizes.  The shifts it reads
    are integers whenever the recipe returned (see :func:`archimedean_sigma`), so it
    raises nothing."""
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
    if poly._shape is not cfg.target:
        raise SizeMismatch(
            f"input must live on the single target block of size {cfg.n}, got blocks {poly.blocks}"
        )
    if not poly.is_block_symmetric():
        raise NotSymmetric("input polynomial is not symmetric in the target variables")
    # keyed like LaurentPoly's own terms, so coefficients sharing an exponent vector all survive
    out = {}
    mu = cfg.mu
    doubled_twists = [dict(row).get(mu, 0) for row in cfg._slot_twists]
    for (exps, sym), coeff in poly._terms.items():
        pulled = tuple(exps[p] for p in cfg.sigma)
        shift = sum(e * t for e, t in zip(exps, doubled_twists))
        out[pulled, _times(sym, mu, shift)] = coeff
    return LaurentPoly._raw(cfg.source, out)


def satake_param_transfer(
    params: Sequence[Sequence[Monomial]], cfg: TransferConfig
) -> tuple[Monomial, ...]:
    """Union of the per-block parameter multisets, each twisted by its ``M`` power.

    Returned sorted by canonical text, since only the multiset is meaningful.  The
    twist has coefficient one, so each twisted value keeps its own coefficient and
    gains the twist's row of doubled exponents.
    """
    blocks = tuple(tuple(block) for block in params)
    if len(blocks) != cfg.source.r or any(
        len(block) != cfg.source.blocks[i] for i, block in enumerate(blocks)
    ):
        raise SizeMismatch(
            f"parameter blocks must have sizes {cfg.source.blocks}, got "
            f"{tuple(len(block) for block in blocks)}"
        )
    values = [value for block in blocks for value in block]
    if not all(isinstance(value, Monomial) for value in values):
        raise ValueError("Satake parameters must be Monomials")
    twisted = ((cfg.mu, 2),)
    rows = [twisted if t else () for t in cfg.source._twist_parity]
    return tuple(sorted(_times_rows(rows, values, range(cfg.n)), key=Monomial.text))


def weight_map_check(cfg: TransferConfig) -> bool:
    """True iff the affine weight map is a bijection of the integer lattice."""
    try:
        weight_shift(cfg)
    except NonIntegralShift:
        return False
    return True
