"""Exact multiplicative scalars: a rational coefficient times formal symbol powers.

All character values in this library are *monomial values*: nonzero rational
numbers multiplied by products of uninterpreted symbols raised to half-integer
exponents.  Exponents are stored doubled, so ``q^(1/2)`` is exact and nothing
is ever approximated by a float.  Symbols satisfy no relations among each
other; numeric meaning is supplied only at evaluation time, where each symbol
receives a positive rational value together with an explicitly declared
rational square root whenever a half-integer exponent has to be resolved.

Monomial values form a group under multiplication.  Addition is deliberately
not defined here; sums live in :mod:`eigentransfer.laurent`.

Reserved names: ``q`` is the residue field cardinality of the local base field
and ``W`` is the uniformizer (weight characters are ``W``-powers).  Transfer
configurations additionally bind a twist symbol, ``M`` by default.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Optional, Union

from ._frozen import FrozenValue, _set
from .errors import MissingSymbol, NonSquareAssignment

__all__ = [
    "RESIDUE_SYMBOL",
    "UNIFORMIZER_SYMBOL",
    "Monomial",
    "SymbolValue",
    "ONE",
    "symbol",
    "valid_symbol",
]

RESIDUE_SYMBOL = "q"
UNIFORMIZER_SYMBOL = "W"

Rational = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(?:(-?\d+)|\((-?\d+)/2\)))?\Z")
# Coefficient tokens are integers or integer ratios only: no decimals, exponents or "_".
_COEFF_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z", re.ASCII)

_UNIT = 1


def _canon(c: Rational) -> Rational:
    """``c`` as an ``int`` when it is integral, else the ``Fraction`` itself."""
    return c.numerator if c.denominator == 1 else c


def _merge(a: tuple, b: tuple) -> tuple:
    """Sum of two doubled-exponent tuples, each sorted by name with no zero entries,
    in the same form."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:  # every name of a sorts before every name of b
        return a + b
    merged = dict(a)
    for name, t in b:
        merged[name] = merged.get(name, 0) + t
    return tuple(sorted([item for item in merged.items() if item[1]]))


def valid_symbol(name: str) -> bool:
    """True if ``name`` is usable as a symbol (identifier-like, parseable)."""
    return isinstance(name, str) and bool(_NAME_RE.match(name))


class SymbolValue(FrozenValue):
    """Positive rational value of a symbol, with an optional declared square root.

    The root must be supplied explicitly whenever the symbol occurs with a
    half-integer exponent; it is never derived numerically.
    """

    __slots__ = _fields = ("value", "sqrt")

    def __init__(self, value: Rational, sqrt: Optional[Rational] = None) -> None:
        value = Fraction(value)
        if value <= 0:
            raise ValueError("symbol values must be positive rationals")
        if sqrt is not None:
            sqrt = Fraction(sqrt)
            if sqrt * sqrt != value:
                raise ValueError("declared square root does not square to the value")
        _set(self, "value", value)
        _set(self, "sqrt", sqrt)


class Monomial(FrozenValue):
    """Element of the group (nonzero rationals) x (free symbols with exponents in Z/2).

    Instances are immutable, so cached values can be shared between callers.
    The coefficient is stored as an ``int`` when it is integral and as a
    ``Fraction`` otherwise; :attr:`coeff` always reads it as a ``Fraction``.
    Equality, hash, repr and pickle are its own, for speed and for the
    ``Monomial[...]`` text; only the immutability guards come from the base.
    """

    __slots__ = _fields = ("_coeff", "_twice")

    def __init__(self, coeff: Rational, exponents: Mapping[str, Rational] | None = None):
        if type(coeff) is not int:
            coeff = _canon(coeff if type(coeff) is Fraction else Fraction(coeff))
        if coeff == 0:
            raise ValueError("monomial coefficients are nonzero")
        twice: dict[str, int] = {}
        for name, exp in (exponents or {}).items():
            if not valid_symbol(name):
                raise ValueError(f"bad symbol name: {name!r}")
            if type(exp) is int:
                doubled = 2 * exp
            else:
                doubled = Fraction(exp) * 2
                if doubled.denominator != 1:
                    raise ValueError("exponents must lie in (1/2)Z")
                doubled = int(doubled)
            if doubled:
                twice[name] = doubled
        _set(self, "_coeff", coeff)
        _set(self, "_twice", tuple(sorted(twice.items())))

    def __reduce__(self):
        return _new, (self._coeff, self._twice)

    @classmethod
    def _from_twice(cls, coeff: Rational, twice: Mapping[str, int]) -> "Monomial":
        if coeff == 0:
            raise ValueError("monomial coefficients are nonzero")
        return _make(_canon(coeff), tuple(sorted((n, t) for n, t in twice.items() if t)))

    @property
    def coeff(self) -> Fraction:
        return Fraction(self._coeff)

    def exponents(self) -> dict[str, Fraction]:
        """Exponent of each symbol, as exact fractions."""
        return {name: Fraction(t, 2) for name, t in self._twice}

    def doubled_exponent(self, name: str) -> int:
        """Twice the exponent of ``name`` (0 when absent)."""
        for n, t in self._twice:
            if n == name:
                return t
        return 0

    def symbols(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self._twice)

    def is_one(self) -> bool:
        return self._coeff == 1 and not self._twice

    def __mul__(self, other):
        if isinstance(other, Monomial):
            coeff = self._coeff * other._coeff
            if type(coeff) is not int:
                coeff = _canon(coeff)
            return _make(coeff, _merge(self._twice, other._twice))
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ValueError("monomial coefficients are nonzero")
            return _make(_canon(self._coeff * other), self._twice)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Monomial":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return ONE
        coeff = self._coeff
        if type(coeff) is not int:
            coeff = _canon(coeff ** n)
        elif coeff != 1:
            # an int to a negative power would be a float
            coeff = coeff ** n if n > 0 else _canon(Fraction(1, coeff ** -n))
        # a list, not a generator: tuple() of a generator over-allocates and then
        # shrinks, which leaves freed tuples piling up in the interpreter's free lists
        return _make(coeff, tuple([(name, t * n) for name, t in self._twice]))

    def inverse(self) -> "Monomial":
        return self ** -1

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(_canon(self._coeff / Fraction(other)), self._twice)
        if not isinstance(other, Monomial):
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._coeff == other._coeff and self._twice == other._twice

    def __hash__(self) -> int:
        return hash((self._coeff, self._twice))

    def evaluate(self, assignment: Mapping[str, SymbolValue]) -> Fraction:
        """Exact value under an assignment of positive rationals to symbols.

        Raises :class:`MissingSymbol` when a symbol has no assignment and
        :class:`NonSquareAssignment` when a half-integer exponent meets an
        assignment without a declared square root.
        """
        result = self._coeff
        for name, t in self._twice:
            try:
                sv = assignment[name]
            except KeyError:
                raise MissingSymbol(f"no value assigned to symbol {name!r}") from None
            if t % 2 == 0:
                result *= sv.value ** (t // 2)
            else:
                if sv.sqrt is None:
                    raise NonSquareAssignment(
                        f"symbol {name!r} occurs with a half-integer exponent "
                        "but its assignment declares no square root"
                    )
                result *= sv.sqrt ** t
        # any symbol factor has made it a Fraction; only a bare int coefficient is left
        return result if type(result) is Fraction else Fraction(result)

    def text(self) -> str:
        """Canonical textual form, e.g. ``-3/2 * W * q^(1/2)``.

        The coefficient always comes first and symbols are sorted by name;
        integer exponents print plainly, half-integer ones as ``(t/2)``.
        This form round-trips through :meth:`parse`.
        """
        parts = [str(self._coeff)]
        for name, t in self._twice:
            if t == 2:
                parts.append(name)
            elif t % 2 == 0:
                parts.append(f"{name}^{t // 2}")
            else:
                parts.append(f"{name}^({t}/2)")
        return " * ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Monomial":
        """Inverse of :meth:`text`; also accepts a leading factor without coefficient."""
        if not isinstance(text, str) or not text.strip():
            raise ValueError("empty monomial text")
        coeff = Fraction(1)
        twice: dict[str, int] = {}
        for token in text.split("*"):
            token = token.strip()
            if not token:
                raise ValueError(f"cannot parse monomial {text!r}")
            if _COEFF_RE.match(token):
                try:
                    coeff *= Fraction(token)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in coefficient {token!r}") from None
                continue
            m = _FACTOR_RE.match(token)
            if not m:
                raise ValueError(f"cannot parse monomial factor {token!r}")
            name, whole, half = m.groups()
            t = 2 * int(whole) if whole is not None else int(half) if half is not None else 2
            twice[name] = twice.get(name, 0) + t
        if coeff == 0:
            raise ValueError("monomial coefficients are nonzero")
        return cls._from_twice(coeff, twice)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Monomial[{self.text()}]"


def _make(coeff: Rational, twice: tuple[tuple[str, int], ...]) -> Monomial:
    """Unvalidated constructor: ``coeff`` is nonzero and canonical (see :func:`_canon`)
    and ``twice`` is sorted by name with no zero entries."""
    self = object.__new__(Monomial)
    _set(self, "_coeff", coeff)
    _set(self, "_twice", twice)
    return self


def _new(coeff: Rational, twice: tuple[tuple[str, int], ...]) -> Monomial:
    """Pickle loader: canonicalises ``coeff``, which older pickles hold as a ``Fraction``."""
    return _make(_canon(coeff), twice)


def _half_power(name: str, doubled: int) -> Monomial:
    """``name^(doubled/2)`` with coefficient one, for a valid symbol ``name``."""
    return _make(_UNIT, ((name, doubled),) if doubled else ())


ONE = Monomial(1)


def symbol(name: str, exponent: Rational = 1) -> Monomial:
    """The monomial ``name**exponent`` with coefficient one."""
    return Monomial(1, {name: exponent})
