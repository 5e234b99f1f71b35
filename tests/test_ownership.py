"""The doubled-exponent format has one owner.

A monomial value is stored as a canonical coefficient and a sorted tuple of
``(name, doubled exponent)`` pairs.  ``monomial`` builds, sorts, filters and
splits those tuples; ``laurent``, whose term key is such a tuple, is the one
other module that reads a value's stored parts.  Every other module goes
through ``monomial``'s private operations, and none of them builds a value
through the unvalidated constructor or the coefficient canonicaliser.
"""

import ast
from pathlib import Path

import eigentransfer

PACKAGE = Path(eigentransfer.__file__).parent
STORED_PARTS = {"_twice", "_coeff"}
UNVALIDATED = {"_make", "_canon"}


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_only_monomial_and_laurent_read_the_stored_parts():
    readers = sorted(
        (name, node.lineno, node.attr)
        for name, tree in _trees()
        if name not in ("monomial.py", "laurent.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in STORED_PARTS
    )
    assert readers == []


def test_only_monomial_uses_the_unvalidated_constructor():
    users = sorted(
        (name, node.lineno)
        for name, tree in _trees()
        if name != "monomial.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and UNVALIDATED & {a.name for a in node.names})
        or (isinstance(node, ast.Attribute) and node.attr in UNVALIDATED)
    )
    assert users == []
