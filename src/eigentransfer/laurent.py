"""Laurent polynomials in block-partitioned variables over monomial coefficients.

The variable set is a disjoint union of blocks (sizes ``blocks``), flattened to
indices ``0..n-1``.  A term is indexed by its integer exponent vector together
with the symbol part of its coefficient, with the rational part stored
separately; this keeps the ring closed under addition while individual
coefficients remain exact :class:`~eigentransfer.monomial.Monomial` values
whenever they are single monomials.

Block symmetry means invariance under every permutation of variables inside
each block; it is checked on adjacent transpositions, which generate the full
symmetric group of each block, by looking up each term's swapped partner in
the term table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BlockMismatch
from .monomial import Monomial, Rational, _integers, _merge, _new

__all__ = ["LaurentPoly", "elementary_symmetric"]

# internal term key: (variable exponent vector, symbol part as sorted (name, twice) pairs)
_Key = tuple[tuple[int, ...], tuple[tuple[str, int], ...]]


class LaurentPoly:
    """Exact Laurent polynomial attached to a block partition of its variables."""

    __slots__ = ("_blocks", "_terms")

    def __init__(self, blocks: Sequence[int], terms: Mapping[tuple[int, ...], Monomial] | None = None):
        blocks = _integers(blocks, "blocks")
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("blocks must be a nonempty tuple of positive sizes")
        raw: dict[_Key, Rational] = {}
        n = sum(blocks)
        for exps, mono in (terms or {}).items():
            exps = _integers(exps, "exponents")
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} does not have length {n}")
            key = (exps, mono._twice)
            raw[key] = raw.get(key, 0) + mono._coeff
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_terms", {k: c for k, c in raw.items() if c})

    @classmethod
    def _raw(cls, blocks: tuple[int, ...], terms: dict[_Key, Rational]) -> "LaurentPoly":
        self = object.__new__(cls)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_terms", {k: c for k, c in terms.items() if c})
        return self

    @property
    def blocks(self) -> tuple[int, ...]:
        return self._blocks

    @property
    def n(self) -> int:
        return sum(self._blocks)

    @classmethod
    def zero(cls, blocks: Sequence[int]) -> "LaurentPoly":
        return cls(blocks)

    @classmethod
    def one(cls, blocks: Sequence[int]) -> "LaurentPoly":
        return cls.constant(blocks, Monomial(1))

    @classmethod
    def constant(cls, blocks: Sequence[int], value) -> "LaurentPoly":
        if not isinstance(value, Monomial):
            value = Monomial(value)
        zero_exps = (0,) * sum(_integers(blocks, "blocks"))
        return cls(blocks, {zero_exps: value})

    @classmethod
    def variable(cls, blocks: Sequence[int], index: int, power: int = 1) -> "LaurentPoly":
        """The single variable ``x_index`` (flat indexing), possibly to a Laurent power."""
        n = sum(_integers(blocks, "blocks"))
        _integers((index,), "variable indices")
        _integers((power,), "exponents")  # before the exponent vector is hashed
        if not 0 <= index < n:
            raise ValueError(f"variable index {index} out of range for {n} variables")
        exps = tuple(power if p == index else 0 for p in range(n))
        return cls(blocks, {exps: Monomial(1)})

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[tuple[int, ...], Monomial]]:
        """Deterministic iteration over (exponent vector, monomial coefficient) terms."""
        for (exps, sym), coeff in sorted(self._terms.items()):
            yield exps, _new(coeff, sym)

    def coefficients(self, exps: Sequence[int]) -> tuple[Monomial, ...]:
        """All monomial summands sitting on one variable exponent vector."""
        exps = _integers(exps, "exponents")
        found = [_new(c, sym) for (e, sym), c in sorted(self._terms.items()) if e == exps]
        return tuple(found)

    def _check(self, other: "LaurentPoly") -> None:
        if self._blocks != other._blocks:
            raise BlockMismatch(f"block structures differ: {self._blocks} vs {other._blocks}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return LaurentPoly._raw(self._blocks, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self._blocks, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Monomial)):
            other = LaurentPoly.constant(self._blocks, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        prod: dict[_Key, Rational] = {}
        for (e1, s1), c1 in self._terms.items():
            for (e2, s2), c2 in other._terms.items():
                key = (tuple(a + b for a, b in zip(e1, e2)), _merge(s1, s2))
                prod[key] = prod.get(key, 0) + c1 * c2
        return LaurentPoly._raw(self._blocks, prod)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if _integers((k,), "powers")[0] < 0:
            raise ValueError("only nonnegative integer powers of polynomials")
        out = LaurentPoly.one(self._blocks)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._blocks == other._blocks and self._terms == other._terms

    __hash__ = None

    def permute_variables(self, pi: Sequence[int]) -> "LaurentPoly":
        """Rename variable ``u`` to ``pi[u]``; ``pi`` must be a permutation of 0..n-1."""
        n = self.n
        pi = _integers(pi, "permutation entries")
        if sorted(pi) != list(range(n)):
            raise ValueError(f"{pi} is not a permutation of 0..{n - 1}")
        out: dict[_Key, Rational] = {}
        for (exps, sym), coeff in self._terms.items():
            new = [0] * n
            for u, e in enumerate(exps):
                new[pi[u]] = e
            key = (tuple(new), sym)
            out[key] = out.get(key, 0) + coeff
        return LaurentPoly._raw(self._blocks, out)

    def is_block_symmetric(self) -> bool:
        """Invariance under all permutations of variables within each block.

        Checked on each block's adjacent transpositions, which generate its
        symmetric group.  A transposition fixes the polynomial exactly when each
        term's partner (the two exponents swapped, the same symbol part) is a
        term with the same coefficient, so each partner is looked up in the term
        table and no permuted polynomial is built.
        """
        swaps: list[int] = []
        offset = 0
        for size in self._blocks:
            swaps.extend(range(offset, offset + size - 1))
            offset += size
        terms = self._terms
        for (exps, sym), coeff in terms.items():
            for p in swaps:
                a, b = exps[p], exps[p + 1]
                if a != b and terms.get((exps[:p] + (b, a) + exps[p + 2 :], sym)) != coeff:
                    return False
        return True

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, mono in self.terms():
            factors = [mono.text()]
            for u, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{u}")
                elif e:
                    factors.append(f"x{u}^{e}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


def elementary_symmetric(blocks: Sequence[int], degree: int) -> LaurentPoly:
    """The elementary symmetric polynomial of the given degree in all variables."""
    n = sum(_integers(blocks, "blocks"))
    _integers((degree,), "degrees")
    if not 0 <= degree <= n:
        raise ValueError(f"degree {degree} out of range for {n} variables")
    terms: dict[tuple[int, ...], Monomial] = {}
    for subset in combinations(range(n), degree):
        exps = tuple(1 if u in subset else 0 for u in range(n))
        terms[exps] = Monomial(1)
    return LaurentPoly(blocks, terms)
