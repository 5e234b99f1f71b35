"""The one definition oracle of evaluation, shared by the monomial and point tests.

The value of ``c · prod name^e`` under an assignment is ``c`` times, for each symbol in
name order, ``value ** e`` when ``e`` is an integer and ``sqrt ** (2e)`` when ``e`` is a
half-integer, one ``Fraction`` step per symbol, read through the public
``SymbolValue.value`` and ``SymbolValue.sqrt`` only.  The first symbol in name order
that has no assignment raises ``MissingSymbol``, and the first whose half-integer
exponent meets an assignment without a root raises ``NonSquareAssignment``, each with
the library's text.
"""

from fractions import Fraction

from eigentransfer.errors import MissingSymbol, NonSquareAssignment


def fraction_value(coeff, exponents, assignment):
    """``coeff`` times each ``name^exponents[name]`` under ``assignment``; a zero
    exponent needs no assignment."""
    result = Fraction(coeff)
    for name in sorted(exponents):
        doubled = 2 * Fraction(exponents[name])
        if not doubled:
            continue
        try:
            sv = assignment[name]
        except KeyError:
            raise MissingSymbol(f"no value assigned to symbol {name!r}") from None
        if doubled % 2 == 0:
            result *= sv.value ** int(doubled // 2)
        elif sv.sqrt is None:
            raise NonSquareAssignment(
                f"symbol {name!r} occurs with a half-integer exponent "
                "but its assignment declares no square root"
            )
        else:
            result *= sv.sqrt ** int(doubled)
    return result


def monomial_value(m, assignment):
    """The oracle on a monomial's public coefficient and exponents."""
    return fraction_value(m.coeff, m.exponents(), assignment)


def outcome(fn, *args):
    """``fn(*args)``, checked to be a ``Fraction``, or the type and text of the
    evaluation error it raises."""
    try:
        value = fn(*args)
    except (MissingSymbol, NonSquareAssignment) as err:
        return type(err), str(err)
    assert type(value) is Fraction
    return value
