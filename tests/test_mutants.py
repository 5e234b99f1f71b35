"""Tier-1 guard on the mutation table of ``tools/mutants.py``, read without running it.

A row whose old text no longer occurs exactly once, or whose selected test was
deleted or renamed, would otherwise show only in the minutes-long mutation run,
the second as a failed baseline rather than as the row at fault."""

import ast
import importlib.util
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@cache
def _text(path):
    return (ROOT / path).read_text()


@cache
def _test_functions(path):
    """The names of the module-level functions of a test file."""
    tree = ast.parse(_text(path))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_old_text_occurs_once():
    for name, path, old, new, _ in mutants.MUTANTS:
        assert _text(path).count(old) == 1, name
        assert new != old, name


def test_every_selected_test_exists():
    """A node id is a test file, or a file and one of its test functions, with or without
    a parameter id: the function must be defined at module level in that file."""
    for name, _, _, _, node_ids in mutants.MUTANTS:
        assert node_ids, name
        for node_id in node_ids:
            path, _, function = node_id.partition("::")
            assert (ROOT / path).is_file(), (name, node_id)
            if function:
                assert function.partition("[")[0] in _test_functions(path), (name, node_id)
