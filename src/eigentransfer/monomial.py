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

A value is stored as its coefficient (an ``int`` when integral) and a tuple of
``(name, doubled exponent)`` pairs, sorted by name with no zero entry.  This
module owns that format.  Other modules reach it through a small private
vocabulary: :func:`_merge` and :func:`_times` on tuples, :func:`_half_power`,
:func:`_times_rows` (each value of a sequence times the unit monomial of a tuple),
:meth:`Monomial._from_twice`, :meth:`Monomial._split`, :meth:`Monomial._pair` and
:func:`_power_product_value` (a power product of monomials, evaluated as one integer
pair).  A :class:`SymbolValue` keeps its value and root as integer pairs too, which
only this module reads.  :mod:`eigentransfer.laurent` is the one other module that
holds the tuples, since its term key is one: it reads a coefficient's pair in its
constructor, multiplies keys with :func:`_merge` and rebuilds coefficients with
:func:`_new`.

This module also owns the exactness rule of the library boundary.  An integer
is an ``int`` of exact type: a ``bool``, an integral float and ``Fraction(4, 2)``
are refused.  A rational is such an ``int``, a ``Fraction`` or text in the
coefficient grammar (``"-3/2"``).  Every other module checks its numbers with
:func:`_integers`, :func:`_positive` and :func:`_exact`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

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

Rational = int | Fraction

_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(?:(-?\d+)|\((-?\d+)/2\)))?\Z")
# Coefficient tokens are integers or integer ratios only: no decimals, exponents or "_".
_COEFF_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z", re.ASCII)

_UNIT = 1


def _canon(c: Rational) -> Rational:
    """``c`` as an ``int`` when it is integral, else the ``Fraction`` itself."""
    return c.numerator if c.denominator == 1 else c


def _merge(a: tuple, b: tuple) -> tuple:
    """Sum of two doubled-exponent tuples, each sorted by name with no zero entries,
    in the same form.

    When every name of one side sorts before every name of the other, the result is
    the two tuples concatenated in that order.  Otherwise one linear pass walks both
    tuples in name order, adds the doubled exponents of a shared name and drops it
    when they cancel, then appends the tail of the side that has not run out.
    """
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:  # every name of a sorts before every name of b
        return a + b
    if b[-1][0] < a[0][0]:  # every name of b sorts before every name of a
        return b + a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    x, y = a[0], b[0]
    while True:
        if x[0] < y[0]:
            out.append(x)
            i += 1
            if i == la:
                break
            x = a[i]
        elif y[0] < x[0]:
            out.append(y)
            j += 1
            if j == lb:
                break
            y = b[j]
        else:
            t = x[1] + y[1]
            if t:
                out.append((x[0], t))
            i += 1
            j += 1
            if i == la or j == lb:
                break
            x, y = a[i], b[j]
    if i < la:
        out += a[i:]
    elif j < lb:
        out += b[j:]
    return tuple(out)


def _times(twice: tuple, name: str, doubled: int) -> tuple:
    """The doubled-exponent tuple ``twice`` times ``name^(doubled/2)``, in the same form."""
    return _merge(twice, ((name, doubled),)) if doubled else twice


def _rational(text: str) -> Fraction | None:
    """The rational that ``text`` spells in the coefficient grammar, else ``None``; a zero
    denominator raises ``ZeroDivisionError``.  The JSON decoder reads rationals with it too."""
    return Fraction(text) if _COEFF_RE.match(text) else None


def _exact(value) -> Rational:
    """``value`` if it is an ``int`` or a ``Fraction``, the rational a coefficient-grammar
    string spells, else ``ValueError``: a float, a ``bool`` or a decimal string is never
    read as a rational."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    exact = _rational(value) if isinstance(value, str) else None
    if exact is None:
        raise ValueError(f"rationals are ints, Fractions or 'a/b' text, got {value!r}")
    return exact


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, each entry an ``int`` of exact type, else ``ValueError``:
    a ``bool``, an integral float or ``Fraction(4, 2)`` is not an integer."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} must be integers, got {x!r}")
    return values


def _positive(value, what: str) -> int:
    """``value`` if it is an ``int`` of exact type and at least 1, else ``ValueError``."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def valid_symbol(name: str) -> bool:
    """True if ``name`` is usable as a symbol (identifier-like, parseable)."""
    return isinstance(name, str) and name.isascii() and name.isidentifier()


class SymbolValue(FrozenValue):
    """Positive rational value of a symbol, with an optional declared square root.

    The root must be supplied explicitly whenever the symbol occurs with a
    half-integer exponent; it is never derived numerically.  Evaluation reads the
    value and the root as integer pairs ``(numerator, denominator)``, kept in two
    more slots; they are not fields, so equality, hash, repr, copy and pickle see
    the value and the root only.
    """

    __slots__ = ("value", "sqrt", "_value_pair", "_root_pair")
    _fields = ("value", "sqrt")

    def __init__(self, value: Rational, sqrt: Rational | None = None) -> None:
        value = Fraction(_exact(value))
        if value <= 0:
            raise ValueError("symbol values must be positive rationals")
        if sqrt is not None:
            sqrt = Fraction(_exact(sqrt))
            if sqrt * sqrt != value:
                raise ValueError("declared square root does not square to the value")
        _set(self, "value", value)
        _set(self, "sqrt", sqrt)
        _set(self, "_value_pair", (value.numerator, value.denominator))
        _set(self, "_root_pair", None if sqrt is None else (sqrt.numerator, sqrt.denominator))


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
            coeff = _exact(coeff)
            coeff = _canon(coeff if type(coeff) is Fraction else Fraction(coeff))
        if coeff == 0:
            raise ValueError("monomial coefficients are nonzero")
        twice: dict[str, int] = {}
        for name, exp in (exponents or {}).items():
            if not valid_symbol(name):
                raise ValueError(f"bad symbol name: {name!r}")
            if type(exp) is int:
                doubled = 2 * exp
            elif type(exp) is Fraction and exp.denominator <= 2:
                doubled = 2 * exp.numerator // exp.denominator  # exact: 1 or 2 divides 2
            else:  # by the exactness rule: a float, a bool, a Decimal or decimal text is refused
                doubled = _exact(exp) * 2
                if doubled.denominator != 1:
                    raise ValueError("exponents must lie in (1/2)Z")
                doubled = doubled.numerator
            if doubled:
                twice[name] = doubled
        _set(self, "_coeff", coeff)
        _set(self, "_twice", tuple(sorted(twice.items())))

    def __reduce__(self):
        return _new, (self._coeff, self._twice)

    @classmethod
    def _from_twice(cls, coeff: Rational, twice: dict[str, int]) -> "Monomial":
        """``coeff`` times each ``name^(t/2)`` of ``twice``."""
        if coeff == 0:
            raise ValueError("monomial coefficients are nonzero")
        if type(coeff) is not int:
            coeff = _canon(coeff)
        return _make(coeff, tuple(sorted([item for item in twice.items() if item[1]])))

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

    def _split(self, name: str) -> tuple[Rational, tuple, int]:
        """``(coefficient, rest, t)``: the stored coefficient, the doubled exponents
        without ``name``, and twice the exponent of ``name`` (0 when absent)."""
        twice = self._twice
        for k, (n, t) in enumerate(twice):
            if n == name:
                return self._coeff, twice[:k] + twice[k + 1 :], t
        return self._coeff, twice, 0

    def symbols(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self._twice)

    def is_one(self) -> bool:
        return self._coeff == 1 and not self._twice

    def __mul__(self, other):
        if isinstance(other, Monomial):
            coeff = self._coeff * other._coeff
            if type(coeff) is not int:
                coeff = _canon(coeff)
            result = _new_object(Monomial)
            _set_coeff(result, coeff)
            _set_twice(result, _merge(self._twice, other._twice))
            return result
        if type(other) is int or isinstance(other, Fraction):  # a bool is not a scalar
            if other == 0:
                raise ValueError("monomial coefficients are nonzero")
            return _make(_canon(self._coeff * other), self._twice)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Monomial":
        if type(n) is not int:  # the exactness rule: a bool is not an exponent
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
        if type(other) is int or isinstance(other, Fraction):  # a bool is not a scalar
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
        num, den = self._pair(assignment)
        if den == 1:  # an integral value skips the gcd of the general path
            return Fraction(num)
        # a declared root may be negative: Fraction moves the sign to the numerator
        return Fraction(num, den)

    def _pair(self, assignment: Mapping[str, SymbolValue]) -> tuple[int, int]:
        """The value of :meth:`evaluate` as an unreduced integer pair ``(num, den)``,
        with the same errors.  ``den`` is nonzero but may be negative, when a negative
        declared root meets a negative odd exponent."""
        coeff = self._coeff
        return _assigned_pair(coeff.numerator, coeff.denominator, self._twice, assignment)

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
            try:
                value = _rational(token)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {token!r}") from None
            if value is not None:
                coeff *= value
                continue
            m = _FACTOR_RE.match(token)
            if not m:
                raise ValueError(f"cannot parse monomial factor {token!r}")
            name, whole, half = m.groups()
            t = 2 * int(whole) if whole is not None else int(half) if half is not None else 2
            twice[name] = twice.get(name, 0) + t
        return cls._from_twice(coeff, twice)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Monomial[{self.text()}]"


def _make(coeff: Rational, twice: tuple[tuple[str, int], ...]) -> Monomial:
    """Unvalidated constructor: ``coeff`` is nonzero and canonical (see :func:`_canon`)
    and ``twice`` is sorted by name with no zero entries."""
    self = _new_object(Monomial)
    _set_coeff(self, coeff)
    _set_twice(self, twice)
    return self


def _new(coeff: Rational, twice: tuple[tuple[str, int], ...]) -> Monomial:
    """The monomial of a nonzero ``coeff`` and a well-formed ``twice``, with ``coeff``
    canonicalised: the pickle loader (older pickles hold a ``Fraction``) and the way
    :mod:`eigentransfer.laurent` turns a term back into a coefficient."""
    return _make(_canon(coeff), twice)


def _assigned_pair(
    num: int, den: int, twice: Iterable[tuple[str, int]], assignment: Mapping[str, SymbolValue]
) -> tuple[int, int]:
    """``num/den`` times each ``name^(t/2)`` of the doubled-exponent tuple ``twice`` under
    ``assignment``, as an unreduced integer pair; the errors of :meth:`Monomial.evaluate`
    at the first symbol, in ``twice``'s order, that has no value or lacks its root."""
    for name, t in twice:
        try:
            sv = assignment[name]
        except KeyError:
            raise MissingSymbol(f"no value assigned to symbol {name!r}") from None
        if t % 2 == 0:
            pair, e = sv._value_pair, t // 2
        else:
            pair, e = sv._root_pair, t
            if pair is None:
                raise NonSquareAssignment(
                    f"symbol {name!r} occurs with a half-integer exponent "
                    "but its assignment declares no square root"
                )
        n, d = pair
        if e < 0:
            n, d, e = d, n, -e
        num *= n ** e
        den *= d ** e
    return num, den


def _power_product_value(
    twice: dict[str, int],
    values: Sequence[Monomial],
    exps: Sequence[int],
    assignment: Mapping[str, SymbolValue],
) -> Fraction:
    """The value under ``assignment`` of the unit monomial of ``twice`` times each
    ``values[i]^exps[i]``, with the errors of :meth:`Monomial.evaluate` on that product.

    The coefficient powers go into one integer pair and the doubled exponents into
    ``twice`` (updated in place) before any symbol is evaluated, so half exponents that
    cancel across the values need no root; the pair is reduced once, at the end."""
    num = den = 1
    for value, e in zip(values, exps):
        if e:
            c = value._coeff
            if e > 0:
                num, den = num * c.numerator ** e, den * c.denominator ** e
            else:  # a negative power inverts the coefficient
                num, den = num * c.denominator ** -e, den * c.numerator ** -e
            for name, t in value._twice:
                twice[name] = twice.get(name, 0) + t * e
    rows = sorted([item for item in twice.items() if item[1]])
    return Fraction(*_assigned_pair(num, den, rows, assignment))


def _half_power(name: str, doubled: int) -> Monomial:
    """``name^(doubled/2)`` with coefficient one, for a valid symbol ``name``."""
    return _make(_UNIT, ((name, doubled),) if doubled else ())


def _times_rows(rows: Sequence[tuple], values: Sequence[Monomial], order: Sequence[int]) -> tuple:
    """``unit(rows[p]) * values[order[p]]`` for each ``p``, where ``unit(row)`` is the monomial
    with coefficient one and the well-formed doubled-exponent tuple ``row``.  Each product keeps
    the value's own coefficient, which is canonical, and an empty row gives the value itself."""
    out = []
    for row, u in zip(rows, order):
        value = values[u]
        if row:
            product = _new_object(Monomial)
            _set_coeff(product, value._coeff)
            _set_twice(product, _merge(row, value._twice))
            value = product
        out.append(value)
    return tuple(out)


# the slots' own setters, bound once: cheaper than ``object.__setattr__`` by name
_new_object = object.__new__
_set_coeff = Monomial._coeff.__set__
_set_twice = Monomial._twice.__set__

ONE = Monomial(1)


def symbol(name: str, exponent: Rational = 1) -> Monomial:
    """The monomial ``name**exponent`` with coefficient one."""
    return Monomial(1, {name: exponent})
