"""The integer-coefficient ``Monomial`` kernel pinned against a ``Fraction`` reference.

``Monomial`` stores an integral coefficient as an ``int`` and merges exponent
tuples through ``_merge``.  ``FractionMonomial`` below is the earlier
implementation, which kept every coefficient as a ``Fraction`` and merged
through a dict; every operation must agree with it in value, text and hash,
and every result must keep the coefficient canonical.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eigentransfer import monomial
from eigentransfer.errors import MissingSymbol, NonSquareAssignment
from eigentransfer.laurent import LaurentPoly
from eigentransfer.monomial import Monomial, SymbolValue, _merge

from evaluation import fraction_value, monomial_value, outcome

_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(?:(-?\d+)|\((-?\d+)/2\)))?\Z")
_COEFF_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z", re.ASCII)


class FractionMonomial:
    """Reference: a ``Fraction`` coefficient always, exponents merged through a dict."""

    __slots__ = ("_coeff", "_twice")

    def __init__(self, coeff, exponents=None):
        coeff = Fraction(coeff)
        if coeff == 0:
            raise ValueError("monomial coefficients are nonzero")
        twice = {}
        for name, exp in (exponents or {}).items():
            doubled = Fraction(exp) * 2
            if doubled.denominator != 1:
                raise ValueError("exponents must lie in (1/2)Z")
            if doubled != 0:
                twice[name] = int(doubled)
        self._coeff = coeff
        self._twice = tuple(sorted(twice.items()))

    @classmethod
    def _make(cls, coeff, twice):
        self = object.__new__(cls)
        self._coeff = coeff
        self._twice = tuple(sorted((n, t) for n, t in twice.items() if t))
        return self

    @property
    def coeff(self):
        return self._coeff

    def __mul__(self, other):
        if isinstance(other, FractionMonomial):
            merged = dict(self._twice)
            for name, t in other._twice:
                merged[name] = merged.get(name, 0) + t
            return FractionMonomial._make(self._coeff * other._coeff, merged)
        if other == 0:
            raise ValueError("monomial coefficients are nonzero")
        return FractionMonomial._make(self._coeff * Fraction(other), dict(self._twice))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n == 0:
            return FractionMonomial(1)
        twice = {name: t * n for name, t in self._twice}
        return FractionMonomial._make(self._coeff ** n, twice)

    def inverse(self):
        return self ** -1

    def __truediv__(self, other):
        if isinstance(other, FractionMonomial):
            return self * other.inverse()
        return FractionMonomial._make(self._coeff / Fraction(other), dict(self._twice))

    def __eq__(self, other):
        return self._coeff == other._coeff and self._twice == other._twice

    def __hash__(self):
        return hash((self._coeff, self._twice))

    def evaluate(self, assignment):
        return fraction_value(self._coeff, {n: Fraction(t, 2) for n, t in self._twice}, assignment)

    def text(self):
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
    def parse(cls, text):
        coeff = Fraction(1)
        twice = {}
        for token in text.split("*"):
            token = token.strip()
            if _COEFF_RE.match(token):
                coeff *= Fraction(token)
                continue
            name, whole, half = _FACTOR_RE.match(token).groups()
            t = 2 * int(whole) if whole is not None else int(half) if half is not None else 2
            twice[name] = twice.get(name, 0) + t
        return cls._make(coeff, twice)


_NAMES = ("a", "b", "q", "W")
# integral (as int and as Fraction), non-integral, and the units +-1, whose inverses are integral
_coefficients = st.one_of(
    st.sampled_from((1, -1, Fraction(1), Fraction(-1), Fraction(4, 2))),
    st.integers(-12, 12).filter(bool),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
)
# int exponents take the constructor's fast path, Fraction ones the checked path
_exponents = st.dictionaries(
    st.sampled_from(_NAMES),
    st.one_of(st.integers(-2, 2), st.integers(-4, 4).map(lambda t: Fraction(t, 2))),
    max_size=4,
)
_pairs = st.builds(lambda c, e: (Monomial(c, e), FractionMonomial(c, e)), _coefficients, _exponents)
_powers = st.integers(-4, 4)


def _canonical(m):
    """The stored coefficient is an int, or a Fraction that is not integral; never a float."""
    c = m._coeff
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _agree(m, ref):
    assert isinstance(m, Monomial) and _canonical(m), repr(m._coeff)
    assert type(m.coeff) is Fraction and m.coeff == ref.coeff
    assert m._twice == ref._twice
    assert m.text() == ref.text()
    assert hash(m) == hash(ref)


@settings(max_examples=150, derandomize=True, database=None)
@given(_pairs, _pairs, _powers, _coefficients)
def test_group_law_matches_fraction_reference(x, y, n, scalar):
    (mx, rx), (my, ry) = x, y
    _agree(mx, rx)
    _agree(mx * my, rx * ry)
    _agree(mx / my, rx / ry)
    _agree(mx ** n, rx ** n)
    _agree(mx.inverse(), rx.inverse())
    _agree(mx * scalar, rx * scalar)
    _agree(scalar * mx, scalar * rx)
    _agree(mx / scalar, rx / scalar)


@settings(max_examples=150, derandomize=True, database=None)
@given(_pairs, _pairs)
def test_equality_and_hash_match_fraction_reference(x, y):
    (mx, rx), (my, ry) = x, y
    assert (mx == my) == (rx == ry)
    assert (mx == mx * my / my) and hash(mx) == hash(mx * my / my)
    # a value built by arithmetic finds its equal in a dict, whatever path built it
    table = {mx * my: "hit"}
    assert table.get(my * mx) == "hit"


_roots = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)


@settings(max_examples=120, derandomize=True, database=None)
@given(_pairs, st.lists(_roots, min_size=len(_NAMES), max_size=len(_NAMES)))
def test_text_parse_pickle_and_evaluate_match_fraction_reference(x, roots):
    m, ref = x
    parsed = Monomial.parse(m.text())
    _agree(parsed, FractionMonomial.parse(ref.text()))
    assert parsed == m
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        _agree(clone, ref)
        assert clone == m
    assignment = {name: SymbolValue(r * r, r) for name, r in zip(_NAMES, roots)}
    value = m.evaluate(assignment)
    assert type(value) is Fraction and value == ref.evaluate(assignment)


def test_canonical_coefficients_on_unit_and_negative_powers():
    for c in (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 3), Fraction(4, 2)):
        for n in range(-3, 4):
            m = Monomial(c, {"q": 1}) ** n
            assert _canonical(m), (c, n, m._coeff)
            assert type(m.coeff) is Fraction and m.coeff == Fraction(c) ** n
    assert type(Monomial(Fraction(6, 3))._coeff) is int
    assert type((Monomial(Fraction(1, 2)) * Monomial(2))._coeff) is int
    assert type(Monomial(Fraction(1, 2)).inverse()._coeff) is int
    with pytest.raises(ValueError, match="rationals are ints, Fractions or 'a/b' text, got True"):
        Monomial(True)


class _FractionPickle:
    """Reduces as ``Monomial`` did when it stored every coefficient as a ``Fraction``."""

    def __init__(self, ref):
        self.ref = ref

    def __reduce__(self):
        return monomial._new, (self.ref._coeff, self.ref._twice)


def test_pickle_with_a_fraction_coefficient_loads_canonical():
    cases = ((3, {"q": Fraction(1, 2)}), (Fraction(-4, 2), {}), (Fraction(1, 2), {"W": 1}))
    for c, exponents in cases:
        ref = FractionMonomial(c, exponents)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            raw = pickle.dumps(_FractionPickle(ref), protocol)
            assert b"Fraction" in raw
            m = pickle.loads(raw)
            _agree(m, ref)
            assert m == Monomial(c, exponents)
            assert type(m._coeff) is (int if ref.coeff.denominator == 1 else Fraction)


def _dict_merge(a, b):
    merged = dict(a)
    for name, t in b:
        merged[name] = merged.get(name, 0) + t
    return tuple(sorted(item for item in merged.items() if item[1]))


def test_merge_matches_dict_merge_on_each_kind_of_overlap():
    cases = [
        ((), ()),
        ((("q", 1),), ()),
        ((), (("M", 2),)),
        ((("q", 1),), (("M", 2),)),  # disjoint, out of order
        ((("M", 2), ("q", -1)), (("W", 2),)),  # disjoint, interleaved
        ((("M", 2), ("q", -1)), (("q", 3),)),  # overlapping
        ((("M", 2), ("q", -1)), (("q", 1),)),  # cancelling
        ((("M", 2),), (("M", -2),)),  # cancelling to nothing
        # one case per branch of the linear pass
        ((("q", 1),), (("M", 2), ("W", 1))),  # b wholly before a
        ((("M", 2), ("W", 1)), (("M", 1), ("q", 2))),  # a runs out first
        ((("M", 1), ("q", 2)), (("M", 2), ("W", 1))),  # b runs out first
        ((("M", 2), ("W", 1), ("q", 3)), (("W", -1),)),  # cancelling in the middle
        ((("M", 2), ("q", 3)), (("W", 1), ("q", -3))),  # cancelling at the end
        ((("M", 2), ("W", 1), ("q", -1)), (("M", -2), ("W", -1), ("q", 1))),  # all cancel
    ]
    for a, b in cases:
        assert _merge(a, b) == _dict_merge(a, b)
        assert _merge(b, a) == _dict_merge(a, b)


_twice_tuples = st.dictionaries(
    st.sampled_from(("M", "W", "a", "q", "z")), st.integers(-3, 3).filter(bool), max_size=5
).map(lambda d: tuple(sorted(d.items())))


@settings(max_examples=150, derandomize=True, database=None)
@given(_twice_tuples, _twice_tuples, st.booleans())
def test_merge_matches_dict_merge(a, b, cancel):
    if cancel:  # b takes back part of a
        b = tuple(sorted({**dict(b), **{n: -t for n, t in a[::2]}}.items()))
    assert _merge(a, b) == _dict_merge(a, b)


def _well_formed(m):
    """The form ``_make`` trusts: names strictly increasing, no zero doubled exponent."""
    names = [name for name, _ in m._twice]
    return all(a < b for a, b in zip(names, names[1:])) and all(t for _, t in m._twice)


@settings(max_examples=150, derandomize=True, database=None)
@given(st.lists(_pairs.map(lambda pair: pair[0]), min_size=1, max_size=5), _powers)
def test_products_powers_and_inverses_keep_twice_well_formed(factors, n):
    product = factors[0]
    for m in factors:
        assert _well_formed(m ** n) and _well_formed(m.inverse())
        for result in (product * m, m * product, product / m):
            assert _well_formed(result), result._twice
        product = product * m


def _reference_terms(terms):
    """LaurentPoly terms keyed as the library keys them, with Fraction coefficients."""
    out = {}
    for exps, (coeff, exponents) in terms.items():
        ref = FractionMonomial(coeff, exponents)
        key = (exps, ref._twice)
        out[key] = out.get(key, Fraction(0)) + ref._coeff
    return {k: c for k, c in out.items() if c}


def _reference_mul(p, q):
    out = {}
    for (e1, s1), c1 in p.items():
        for (e2, s2), c2 in q.items():
            key = (tuple(a + b for a, b in zip(e1, e2)), _dict_merge(s1, s2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _reference_add(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def _reference_permute(p, pi):
    out = {}
    for (exps, sym), c in p.items():
        new = [0] * len(exps)
        for u, e in enumerate(exps):
            new[pi[u]] = e
        key = (tuple(new), sym)
        out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


_BLOCKS = (2, 1)
_poly_terms = st.dictionaries(
    st.tuples(*[st.integers(-1, 1)] * sum(_BLOCKS)),
    st.tuples(
        _coefficients,
        st.dictionaries(st.sampled_from(("s", "t")), st.integers(-2, 2).map(lambda t: Fraction(t, 2))),
    ),
    max_size=4,
)


def _poly(terms):
    return LaurentPoly(_BLOCKS, {e: Monomial(c, x) for e, (c, x) in terms.items()})


def _same_poly(poly, reference):
    assert poly._terms == reference
    assert all(type(c) in (int, Fraction) for c in poly._terms.values())
    assert all(_canonical(m) for _, m in poly.terms())


@settings(max_examples=120, derandomize=True, database=None)
@given(_poly_terms, _poly_terms, st.permutations(range(sum(_BLOCKS))))
def test_laurent_arithmetic_matches_fraction_terms(x, y, pi):
    px, py = _poly(x), _poly(y)
    rx, ry = _reference_terms(x), _reference_terms(y)
    _same_poly(px, rx)
    _same_poly(px * py, _reference_mul(rx, ry))
    _same_poly(px + py, _reference_add(rx, ry))
    _same_poly(px - px, {})
    _same_poly(px.permute_variables(pi), _reference_permute(rx, pi))


_monomials = st.one_of(_pairs.map(lambda pair: pair[0]), st.builds(Monomial, _coefficients))
# declared roots of both signs: a negative root makes odd powers negative
_signed_roots = st.builds(Fraction, st.sampled_from((-5, -3, -2, -1, 1, 2, 3, 5)), st.integers(1, 5))
_rooted = _signed_roots.map(lambda r: SymbolValue(r * r, r))


@settings(max_examples=200, derandomize=True, database=None)
@given(_monomials, st.lists(_rooted, min_size=len(_NAMES), max_size=len(_NAMES)))
def test_evaluate_matches_fraction_steps(m, values):
    assignment = dict(zip(_NAMES, values))
    assert outcome(Monomial.evaluate, m, assignment) == monomial_value(m, assignment)


# each symbol is unassigned, assigned without a root, or assigned with a root
_partial = st.fixed_dictionaries(
    {
        name: st.one_of(
            st.none(),
            st.builds(SymbolValue, st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))),
            _rooted,
        )
        for name in _NAMES
    }
).map(lambda d: {name: sv for name, sv in d.items() if sv is not None})


@settings(max_examples=200, derandomize=True, database=None)
@given(_monomials, _partial)
def test_evaluate_errors_match_fraction_steps(m, assignment):
    assert outcome(Monomial.evaluate, m, assignment) == outcome(monomial_value, m, assignment)


def test_evaluate_raises_at_the_first_bad_symbol_in_sorted_order():
    m = Monomial(3, {"q": -1, "b": Fraction(1, 2), "a": Fraction(-3, 2), "W": 2})
    rooted = {name: SymbolValue(4, -2) for name in ("W", "a", "b", "q")}
    rootless = SymbolValue(4)
    cases = [
        ({**rooted, "q": None}, MissingSymbol, "q"),
        ({**rooted, "b": None, "q": None}, MissingSymbol, "b"),
        ({**rooted, "b": rootless, "q": rootless}, NonSquareAssignment, "b"),
        ({**rooted, "a": rootless, "b": rootless}, NonSquareAssignment, "a"),
        ({**rooted, "a": rootless, "b": None}, NonSquareAssignment, "a"),
    ]
    for assignment, error, name in cases:
        assignment = {n: sv for n, sv in assignment.items() if sv is not None}
        kind, text = outcome(Monomial.evaluate, m, assignment)
        assert (kind, text) == outcome(monomial_value, m, assignment)
        assert kind is error and repr(name) in text


def test_evaluate_with_negative_roots_and_negative_exponents():
    m = Monomial(Fraction(-3, 5), {"q": -1, "b": Fraction(1, 2), "a": Fraction(-3, 2), "W": 2})
    assignment = {
        "W": SymbolValue(Fraction(4, 9), Fraction(2, 3)),
        "a": SymbolValue(4, -2),
        "b": SymbolValue(Fraction(1, 4), Fraction(-1, 2)),
        "q": SymbolValue(Fraction(9, 7)),
    }
    # -3/5 * (4/9)^2 * (-2)^-3 * (-1/2)^1 * (9/7)^-1
    value = m.evaluate(assignment)
    assert type(value) is Fraction and value == Fraction(-7, 1215)
    assert value == monomial_value(m, assignment)


def test_integral_evaluate_matches_fraction_reference():
    # symbol-free int and Fraction coefficients, then integral values reached through symbols
    cases = [(c, {}, {}) for c in (1, -1, 3, -12, Fraction(4, 2), Fraction(-7, 3), Fraction(1, 9))]
    cases += [
        (3, {"q": 2, "a": Fraction(1, 2)}, {"q": SymbolValue(2), "a": SymbolValue(16, 4)}),
        (Fraction(1, 4), {"q": 1}, {"q": SymbolValue(4)}),
        (
            Fraction(-5, 9),
            {"q": 1, "W": Fraction(-1, 2)},
            {"q": SymbolValue(3), "W": SymbolValue(Fraction(1, 9), Fraction(-1, 3))},
        ),
        # a negative root at a negative exponent leaves a denominator of -1
        (3, {"a": Fraction(-1, 2)}, {"a": SymbolValue(Fraction(1, 4), Fraction(-1, 2))}),
    ]
    for coeff, exponents, assignment in cases:
        value = Monomial(coeff, exponents).evaluate(assignment)
        ref = FractionMonomial(coeff, exponents).evaluate(assignment)
        assert type(value) is Fraction and value == ref, (coeff, exponents)
        assert (value.numerator, value.denominator) == (ref.numerator, ref.denominator)
    assert Monomial(3, {"a": Fraction(-1, 2)}).evaluate(cases[-1][2]) == -6


@settings(max_examples=150, derandomize=True, database=None)
@given(_twice_tuples, st.sampled_from(("M", "W", "a", "q", "z")), st.integers(-3, 3))
def test_times_matches_dict_merge(a, name, doubled):
    """``_times`` adds one doubled exponent, dropping the entry when it cancels."""
    assert monomial._times(a, name, doubled) == _dict_merge(a, [(name, doubled)])
    assert monomial._half_power(name, doubled)._twice == _dict_merge((), [(name, doubled)])


@st.composite
def _rows_values_order(draw):
    """Rows, values and an order of the values, one each per slot; a row may take back
    every exponent of the value it meets, so that the product's tuple is ``()``."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(_twice_tuples, min_size=n, max_size=n))
    values = draw(st.lists(_pairs.map(lambda pair: pair[0]), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    for p, u in enumerate(order):
        if draw(st.booleans()):
            rows[p] = tuple((name, -t) for name, t in values[u]._twice)
    return rows, values, order


@settings(max_examples=150, derandomize=True, database=None)
@given(_rows_values_order())
def test_times_rows_matches_unit_products(case):
    """``_times_rows`` against ``unit(row) * value`` through ``Monomial.__mul__``: the same
    monomial with the same canonical coefficient type, a well-formed tuple, and for an
    empty row the value object itself."""
    rows, values, order = case
    got = monomial._times_rows(rows, values, order)
    assert type(got) is tuple and len(got) == len(rows)
    for row, u, m in zip(rows, order, got):
        expected = monomial._make(1, row) * values[u]
        assert m == expected and type(m._coeff) is type(expected._coeff) and _canonical(m)
        assert _well_formed(m)
        assert (m is values[u]) == (not row)


@settings(max_examples=150, derandomize=True, database=None)
@given(_pairs, st.sampled_from(_NAMES + ("absent",)))
def test_split_matches_dict_reference(x, name):
    m, ref = x
    coeff, rest, t = m._split(name)
    others = dict(ref._twice)
    assert t == others.pop(name, 0) == m.doubled_exponent(name)
    assert rest == tuple(sorted(others.items()))
    assert coeff is m._coeff


@settings(max_examples=200, derandomize=True, database=None)
@given(st.lists(_pairs, max_size=4), st.lists(_powers, min_size=4, max_size=4), _powers, _partial)
def test_power_product_value_matches_fraction_reference(pairs, exps, w, assignment):
    """The power product of the values, seeded with ``W^(w/2)``, evaluated as one
    integer pair: the value, or the error type and text, of the ``Fraction`` reference
    product under the oracle, so half exponents that cancel across the values need no
    root and a negative power inverts the coefficient."""
    exps = exps[: len(pairs)]
    ref = FractionMonomial(1, {"W": Fraction(w, 2)})
    for (_, r), e in zip(pairs, exps):
        ref = ref * r ** e
    twice = {"W": w}
    got = outcome(monomial._power_product_value, twice, [m for m, _ in pairs], exps, assignment)
    assert got == outcome(ref.evaluate, assignment)
    assert {name: t for name, t in twice.items() if t} == dict(ref._twice)


def test_power_product_value_cancelling_half_exponents_and_errors():
    """Half exponents that cancel to an integer across the values need no root; an odd
    total still does, and an unassigned symbol is named, with the oracle's texts."""
    half = Monomial(Fraction(-2, 3), {"q": Fraction(1, 2), "a": Fraction(-3, 2)})
    other = Monomial(Fraction(5, 4), {"q": Fraction(1, 2), "a": Fraction(3, 2)})
    plain = {"q": SymbolValue(5), "a": SymbolValue(Fraction(1, 2)), "W": SymbolValue(3)}
    value = monomial._power_product_value({"W": 2}, (half, other), (1, 1), plain)
    expected = monomial_value(half * other * Monomial(1, {"W": 1}), plain)
    assert value == Fraction(-2, 3) * Fraction(5, 4) * 5 * 3 == expected
    cases = [((half,), (1,), NonSquareAssignment), ((half,), (2,), MissingSymbol)]
    for values, exps, error in cases:
        assignment = plain if error is NonSquareAssignment else {"q": SymbolValue(5)}
        product = Monomial(1, {"W": 1})
        for m, e in zip(values, exps):
            product = product * m ** e
        expected = outcome(monomial_value, product, assignment)
        assert expected[0] is error
        got = outcome(monomial._power_product_value, {"W": 2}, values, exps, assignment)
        assert got == expected
