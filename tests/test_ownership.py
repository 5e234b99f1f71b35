"""The doubled-exponent format and the exactness rule each have one owner.

A monomial value is stored as a canonical coefficient and a sorted tuple of
``(name, doubled exponent)`` pairs.  ``monomial`` builds, sorts, filters and
splits those tuples; ``laurent``, whose term key is such a tuple, is the one
other module that reads a value's stored parts.  Every other module goes
through ``monomial``'s private operations, and none of them builds a value
through the unvalidated constructor or the coefficient canonicaliser.

``monomial`` also states the exactness rule of the library boundary, in
``_integers``, ``_positive`` and ``_exact``; no other module defines them or
converts a number with the builtin ``int``.

``transfer`` owns the check that data lives on a config's source shape, in
``_require_source``; no other module compares a shape with ``cfg.source`` to
raise ``SizeMismatch``.

``GroupShape`` owns every table derived from its blocks and stores each one
as a plain attribute of the interned shape, so no module compares shapes, or
the block tuples behind them, by equality.
"""

import ast
from pathlib import Path

import eigentransfer

PACKAGE = Path(eigentransfer.__file__).parent
STORED_PARTS = {"_twice", "_coeff"}
UNVALIDATED = {"_make", "_canon"}
RULE = {"_integers", "_positive", "_exact"}
SHAPE_READS = {"shape", "blocks", "_shape"}


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


def test_only_monomial_states_the_exactness_rule():
    definitions = sorted(
        (name, node.name)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in RULE
    )
    assert definitions == [("monomial.py", helper) for helper in sorted(RULE)]
    int_calls = sorted(
        (name, node.lineno)
        for name, tree in _trees()
        if name != "monomial.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
    )
    assert int_calls == []


def _reads_config_source(test):
    return any(
        isinstance(part, ast.Attribute)
        and part.attr == "source"
        and isinstance(part.value, ast.Name)
        and part.value.id == "cfg"
        for part in ast.walk(test)
    )


def _raises_size_mismatch(node):
    return any(
        isinstance(part, ast.Raise)
        and isinstance(part.exc, ast.Call)
        and isinstance(part.exc.func, ast.Name)
        and part.exc.func.id == "SizeMismatch"
        for part in ast.walk(node)
    )


def test_only_transfer_checks_the_config_source():
    definitions = sorted(
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_require_source"
    )
    assert definitions == ["transfer.py"]
    checks = sorted(
        (name, node.lineno)
        for name, tree in _trees()
        if name != "transfer.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and _reads_config_source(node.test)
        and _raises_size_mismatch(node)
    )
    assert checks == []


def _equality_operands(node):
    """The operands on either side of each ``==`` or ``!=`` of a comparison."""
    operands = [node.left, *node.comparators]
    for i, op in enumerate(node.ops):
        if isinstance(op, (ast.Eq, ast.NotEq)):
            yield from operands[i : i + 2]


def test_no_module_compares_shapes_by_equality():
    compares = sorted(
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(part, ast.Attribute) and part.attr in SHAPE_READS
            for part in _equality_operands(node)
        )
    )
    assert compares == []


def test_group_shape_stores_its_tables():
    """No table of a shape is a property: each is set as a plain attribute."""
    tree = dict(_trees())["tori.py"]
    (shape,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GroupShape"]
    decorated = [
        node.name for node in shape.body if isinstance(node, ast.FunctionDef) and node.decorator_list
    ]
    assert decorated == []
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "cached_property" not in imported
