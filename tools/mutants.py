"""Mutation check: every mutant in ``MUTANTS`` must make its selected tests fail.

    python3 tools/mutants.py

Each row names a file under ``src/``, an exact old text, the new text and the
pytest node ids that must fail.  For each row the runner copies ``src/``,
``tests/``, ``pyproject.toml`` and ``bench/jobs.json`` into a fresh temporary
directory, so that ``pyproject``'s ``pythonpath = ["src"]`` finds the mutated
copy, replaces the old text, and runs only the selected tests there.  Before
any mutant, the union of the selections runs once on an unmutated copy and
must pass, so a kill always means the mutation was caught.

A mutant is killed when pytest reports failed tests (exit code 1); any
other exit code, such as a collection error from a mutation that does not
import, is reported as broken.  The runner exits 1 when a mutant survives or
is broken, when a row's old text does not occur exactly once, or when the
unmutated run fails; 0 otherwise.  Stdlib only.
Append a row with each change that a new test is meant to pin.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REFINEMENTS = "src/eigentransfer/refinements.py"
TORI = "src/eigentransfer/tori.py"
POINTS = "src/eigentransfer/points.py"
TRANSFER = "src/eigentransfer/transfer.py"
JSONIO = "src/eigentransfer/jsonio.py"
MONOMIAL = "src/eigentransfer/monomial.py"
CLI = "src/eigentransfer/cli.py"

# (name, file, old text, new text, pytest node ids that must fail)
MUTANTS = [
    (
        "accessibility without the rank increment",
        REFINEMENTS,
        "next_rank[s] = rank + 1",
        "next_rank[s] = rank",
        ["tests/test_refinements.py::test_steinberg_refinements"],
    ),
    (
        "link lookup on the bottom instead of bottom times q^-1",
        REFINEMENTS,
        "seg.bottom() * _half_power(RESIDUE_SYMBOL, -2) in tops",
        "seg.bottom() in tops",
        ["tests/test_refinements.py::test_descriptor_params_and_genericity"],
    ),
    (
        "ladder shuffles read through sigma instead of sigma^-1",
        REFINEMENTS,
        "tuple(ladder[u] for u in invert_permutation(sigma))",
        "tuple(ladder[u] for u in sigma)",
        ["tests/test_refinements.py::test_accessible_transfer_check_builds_instead_of_filtering"],
    ),
    (
        "classify with >= for strict",
        TORI,
        "strict = strict and exps[p] > exps[q]",
        "strict = strict and exps[p] >= exps[q]",
        ["tests/test_tori.py::test_weight_classification"],
    ),
    (
        "AtkinLehnerFactor truncating its cocharacter",
        POINTS,
        '_set(self, "cochar", _integers(cochar, "cocharacter entries"))',
        '_set(self, "cochar", tuple(int(e) for e in cochar))',
        ["tests/test_points.py::test_non_integral_values_are_refused"],
    ),
    (
        "JSON decoding without object_pairs_hook",
        JSONIO,
        'json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)',
        'json.loads(raw.decode("utf-8"))',
        ["tests/test_cli.py::test_duplicate_keys_are_refused"],
    ),
    (
        "archimedean_transfer sorting ascending",
        TRANSFER,
        "order = sorted(range(n), key=ms.__getitem__, reverse=True)",
        "order = sorted(range(n), key=ms.__getitem__)",
        ["tests/test_transfer.py::test_archimedean_transfer_anchors"],
    ),
    (
        "atkin_lehner_pullback checking the shape before reading the shifts",
        TRANSFER,
        "    multipliers = (\n"
        "        cfg._atkin_lehner_multipliers if normalized else cfg._atkin_lehner_plain_multipliers\n"
        "    )\n"
        "    _require_source(chi, cfg)\n",
        "    _require_source(chi, cfg)\n"
        "    multipliers = (\n"
        "        cfg._atkin_lehner_multipliers if normalized else cfg._atkin_lehner_plain_multipliers\n"
        "    )\n",
        ["tests/test_transfer.py::test_pullback_error_order"],
    ),
    (
        "ordered-concatenation test on the first names only",
        MONOMIAL,
        "if a[-1][0] < b[0][0]:",
        "if a[0][0] < b[0][0]:",
        ["tests/test_monomial_kernel.py::test_merge_matches_dict_merge_on_each_kind_of_overlap"],
    ),
    (
        "exponent merge keeping cancelled names",
        MONOMIAL,
        "tuple(sorted([item for item in merged.items() if item[1]]))",
        "tuple(sorted([item for item in merged.items()]))",
        ["tests/test_monomial_kernel.py::test_merge_matches_dict_merge_on_each_kind_of_overlap"],
    ),
    (
        "negative power of an int coefficient left uncanonicalised",
        MONOMIAL,
        "_canon(Fraction(1, coeff ** -n))",
        "Fraction(1, coeff ** -n)",
        ["tests/test_monomial_kernel.py::test_canonical_coefficients_on_unit_and_negative_powers"],
    ),
    (
        "coeff returning the stored int",
        MONOMIAL,
        "return Fraction(self._coeff)",
        "return self._coeff",
        ["tests/test_monomial_kernel.py::test_canonical_coefficients_on_unit_and_negative_powers"],
    ),
    (
        "check-interpolation computing before its last decode",
        JSONIO,
        '    source_space = decode_space(payload["source_space"], cfg.source, "source_space")\n',
        '    source_space = decode_space(payload["source_space"], cfg.source, "source_space")\n'
        "    build_transferred_space(source_space, cfg)\n",
        [
            "tests/test_cli.py::test_error_reports[job73-SchemaError-"
            "assignments[0].q: symbol values must be positive rationals-2]"
        ],
    ),
    (
        "unreadable job file reported with exit code 1",
        CLI,
        'raise SchemaError(f"cannot read job file: {err}") from err',
        'error = {"type": "SchemaError", "message": f"cannot read job file: {err}"}\n'
        '                _emit({"schema_version": SCHEMA_VERSION, "error": error}, args.pretty)\n'
        "                return 1",
        ["tests/test_cli.py::test_unreadable_and_invalid_json_reports"],
    ),
    (
        "_integers letting int()'s OverflowError through",
        TORI,
        "        ints = tuple(map(int, values))\n    except (TypeError, ValueError, OverflowError):",
        "        ints = tuple(map(int, values))\n    except (TypeError, ValueError):",
        [
            "tests/test_values.py::test_constructor_errors["
            "GroupShape-args29-group shape blocks must be integers, got inf]"
        ],
    ),
    (
        "two names swapped in a record's _fields",
        REFINEMENTS,
        '__slots__ = _fields = ("gamma", "d")',
        '__slots__ = _fields = ("d", "gamma")',
        ["tests/test_values.py"],
    ),
    (
        "pickle loader not canonicalising the coefficient",
        MONOMIAL,
        "    return _make(_canon(coeff), twice)",
        "    return _make(coeff, twice)",
        ["tests/test_monomial_kernel.py::test_pickle_with_a_fraction_coefficient_loads_canonical"],
    ),
    (
        "enumerate-refinements enumerating before it counts",
        JSONIO,
        "    formula = count_accessible(desc)  # refuses a non-generic descriptor before enumerating\n"
        "    refinements = enumerate_refinements(desc)\n",
        "    refinements = enumerate_refinements(desc)\n"
        "    formula = count_accessible(desc)  # refuses a non-generic descriptor before enumerating\n",
        ["tests/test_cli.py::test_non_generic_descriptor_is_refused_before_enumerating"],
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "bench").mkdir()
    shutil.copy2(ROOT / "bench" / "jobs.json", dest / "bench" / "jobs.json")


def _pytest(tree: Path, node_ids: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def main(rows: list[tuple]) -> int:
    problems = killed = 0
    for name, path, old, _, _ in rows:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"STALE     {name}: old text occurs {count} times in {path}")
            problems += 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        _copy_tree(baseline)
        selections = sorted({node for row in rows for node in row[4]})
        proc = _pytest(baseline, selections)
        if proc.returncode != 0:
            print("BASELINE  the selected tests fail without any mutation:")
            print(proc.stdout[-2000:])
            return 1
        for k, (name, path, old, new, node_ids) in enumerate(rows):
            tree = Path(tmp) / f"mutant{k}"
            _copy_tree(tree)
            text = (tree / path).read_text()
            if text.count(old) != 1:
                continue  # reported as STALE above
            (tree / path).write_text(text.replace(old, new))
            start = time.perf_counter()
            proc = _pytest(tree, node_ids)
            seconds = time.perf_counter() - start
            if proc.returncode == 1:
                print(f"killed    {name} ({seconds:.1f} s)")
                killed += 1
            else:
                verdict = "SURVIVED" if proc.returncode == 0 else "BROKEN  "
                print(f"{verdict}  {name} ({seconds:.1f} s): {' '.join(node_ids)}")
                print(proc.stdout[-2000:])
                problems += 1
            shutil.rmtree(tree)
    print(f"{killed} of {len(rows)} mutants killed, {problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(MUTANTS))
