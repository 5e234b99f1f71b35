"""Mutation check: every mutant in ``MUTANTS`` must make its selected tests fail.

    python3 tools/mutants.py

Each row names a file under ``src/``, an exact old text, the new text and the
pytest node ids that must fail.  For each row the runner copies ``src/``,
``tests/``, ``pyproject.toml`` and ``bench/jobs.json`` into a fresh temporary
directory, so that ``pyproject``'s ``pythonpath = ["src"]`` finds the mutated
copy, replaces the old text, and runs only the selected tests there.  Each copy
also gets a root ``conftest.py`` that loads a Hypothesis profile without the
shrink phase: the first failing example decides a kill, so shrinking it is
wasted work.  The tests themselves are not changed.  Before
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
LAURENT = "src/eigentransfer/laurent.py"
CLI = "src/eigentransfer/cli.py"
FROZEN = "src/eigentransfer/_frozen.py"

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
        "ladder sweep missing links: only a shared parameter counts",
        REFINEMENTS,
        "lo <= hi + 2",
        "lo <= hi",
        ["tests/test_refinements.py::test_ladder_sweep_genericity_matches_oracle_on_explicit_cases"],
    ),
    (
        "transferred ladder sweep dropping the twist entry",
        REFINEMENTS,
        "ladders.append(((coeff, _times(rest, mu, twist), parity), lo, hi))",
        "ladders.append(((coeff, rest, parity), lo, hi))",
        [
            "tests/test_refinements.py::"
            "test_twist_cancelling_a_gamma_symbol_reaches_the_untwisted_ladder"
        ],
    ),
    (
        "target count over the block sizes instead of the segment lengths",
        REFINEMENTS,
        "_multinomial(cfg.n, (seg.d for block in desc.segments for seg in block))",
        "_multinomial(cfg.n, desc.shape.blocks)",
        [
            "tests/test_refinements.py::"
            "test_refinement_count_inequality_matches_built_descriptor_counts"
        ],
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
        "sigma of the wrong length accepted when it is a permutation",
        TRANSFER,
        "if len(inverse) != n:",
        "if not inverse:",
        ["tests/test_values.py::test_constructor_errors"],
    ),
    (
        "source-shape check comparing only the rank",
        TRANSFER,
        "if shape is not cfg.source:",
        "if shape.n != cfg.source.n:",
        ["tests/test_transfer.py::test_source_shape_texts"],
    ),
    (
        "source-shape check refusing the config's own source",
        TRANSFER,
        "if shape is not cfg.source:",
        "if shape is cfg.source:",
        ["tests/test_transfer.py::test_source_shape_texts"],
    ),
    (
        "shapes not interned: each call builds a new object",
        TORI,
        "shape = _SHAPES.setdefault(blocks, shape)",
        "shape = shape",
        ["tests/test_tori.py::test_equal_blocks_give_one_shape"],
    ),
    (
        "shape table read before the exactness rule",
        TORI,
        '        blocks = _integers(blocks, "group shape blocks")\n'
        "        shape = _SHAPES.get(blocks)\n"
        "        if shape is None:\n",
        "        shape = _SHAPES.get(blocks)\n"
        "        if shape is None:\n"
        '            blocks = _integers(blocks, "group shape blocks")\n',
        ["tests/test_tori.py::test_interned_blocks_do_not_admit_inexact_equals"],
    ),
    (
        "atkin_lehner_pullback checking the shape before reading the shifts",
        TRANSFER,
        "    multipliers = (\n"
        "        cfg._atkin_lehner_multipliers if normalized else cfg._atkin_lehner_plain_multipliers\n"
        "    )\n"
        '    _require_source("character", chi.shape, cfg)\n',
        '    _require_source("character", chi.shape, cfg)\n'
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
        "            if t:\n                out.append((x[0], t))\n",
        "            out.append((x[0], t))\n",
        ["tests/test_monomial_kernel.py::test_merge_matches_dict_merge_on_each_kind_of_overlap"],
    ),
    (
        "mirror concatenation in the wrong order",
        MONOMIAL,
        "        return b + a\n",
        "        return a + b\n",
        ["tests/test_monomial_kernel.py::test_merge_matches_dict_merge_on_each_kind_of_overlap"],
    ),
    (
        "exponent merge taking the leftover tail from the wrong tuple",
        MONOMIAL,
        "out += b[j:]",
        "out += a[j:]",
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
        '                report = {"schema_version": SCHEMA_VERSION, "error": error}\n'
        '                sys.stdout.write(_encode(report, pretty) + "\\n")\n'
        "                return 1",
        ["tests/test_cli.py::test_unreadable_and_invalid_json_reports"],
    ),
    (
        "_integers letting int()'s OverflowError through",
        MONOMIAL,
        "    values = tuple(values)\n    for x in values:",
        "    values = tuple(values)\n    tuple(map(int, values))\n    for x in values:",
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
    (
        "array entry location off by one",
        JSONIO,
        'return [decode(entry, f"{where}[{i}]") for i, entry in enumerate(_array(obj, where))]',
        'return [decode(entry, f"{where}[{i + 1}]") for i, entry in enumerate(_array(obj, where))]',
        ["tests/test_jsonio.py::test_decode_error_messages"],
    ),
    (
        "keyed object without its unknown-key check",
        JSONIO,
        "    for key in record:\n"
        "        if key not in required and key not in optional:\n"
        '            raise SchemaError(f"{where}: unknown key {key!r}")\n',
        "",
        ["tests/test_jsonio.py::test_decode_error_messages"],
    ),
    (
        "check-interpolation not fitting generators to the shape and the points",
        JSONIO,
        "        _each(list(factors), where, lambda f, at: _located(at, f._check, cfg.target, points))\n",
        "",
        [
            "tests/test_cli.py::test_error_reports[job74-SchemaError-"
            "generators[0][0]: cocharacter needs 3 entries, got 2-2]",
            "tests/test_cli.py::test_error_reports[job76-SchemaError-"
            "generators[0][0]: point has no eigenvalue system at place 'zz'-2]",
            "tests/test_cli.py::test_error_reports[job78-SchemaError-"
            "generators[1][0]: degree 4 exceeds the 3 Satake parameters-2]",
        ],
    ),
    (
        "Atkin-Lehner slot ratios without the inverse",
        TRANSFER,
        "total[name] = total.get(name, 0) - t",
        "total[name] = total.get(name, 0) + t",
        ["tests/test_transfer.py::test_verify_matches_per_generator_oracle"],
    ),
    (
        "Atkin-Lehner slot ratios the wrong way round",
        TRANSFER,
        "residuals = _factorization_residuals(lhs, rhs) if lhs != rhs else ()",
        "residuals = _factorization_residuals(rhs, lhs) if lhs != rhs else ()",
        ["tests/test_transfer.py::test_verify_negative_control"],
    ),
    (
        "slot ratios skipping the generic entries, as if they cancelled",
        TRANSFER,
        "_add_ratio(total, a, b)",
        "_add_ratio(total, a[:-2], b[:-2])",
        ["tests/test_transfer.py::test_verifier_rows_carry_the_generic_symbols"],
    ),
    (
        "Atkin-Lehner row without its W entry: the verifier reading the normalized table",
        TRANSFER,
        "            else cfg._atkin_lehner_multipliers\n",
        "            else cfg._normalized_multipliers\n",
        ["tests/test_transfer.py::test_verify_matches_per_generator_oracle"],
    ),
    (
        "duality row reading the source half-modulus at p instead of u",
        TRANSFER,
        "source_half[u] - target_half[p]",
        "source_half[p] - target_half[p]",
        ["tests/test_transfer.py::test_verify_matches_rebuilt_verifier[3]"],
    ),
    (
        "character eval dropping the exponent, so a negated generator reads the uninverted product",
        TORI,
        "factor = v if e == 1 else v ** e",
        "factor = v",
        ["tests/test_tori.py::test_character_eval"],
    ),
    (
        "charpoly not checking its factors against the space's shape",
        POINTS,
        "    _check_factors(factors, space)\n",
        "",
        ["tests/test_points.py::test_factors_that_cannot_act_are_refused_on_empty_spaces"],
    ),
    (
        "divisibility_check not checking its factors against the spaces' shapes",
        POINTS,
        "    _check_factors(factors, space_source, space_target)\n",
        "",
        ["tests/test_points.py::test_factors_that_cannot_act_are_refused_on_empty_spaces"],
    ),
    (
        "e_d numerators not scaled to the common denominator",
        POINTS,
        "a = n * (D // d)",
        "a = n * D",
        ["tests/test_points.py::test_elementary_symmetric_matches_subset_sum"],
    ),
    (
        "e_d scaling dropping the sign of a negative denominator",
        POINTS,
        "a = n * (D // d)",
        "a = n * (D // abs(d))",
        ["tests/test_points.py::test_elementary_symmetric_cases"],
    ),
    (
        "odd exponent evaluated on the value instead of the declared root",
        MONOMIAL,
        "base, e = sv.sqrt, t",
        "base, e = sv.value, t",
        ["tests/test_monomial_kernel.py::test_evaluate_with_negative_roots_and_negative_exponents"],
    ),
    (
        "negative exponent evaluated without swapping numerator and denominator",
        MONOMIAL,
        "n, d, e = d, n, -e",
        "e = -e",
        ["tests/test_monomial_kernel.py::test_evaluate_with_negative_roots_and_negative_exponents"],
    ),
    (
        "Atkin-Lehner weight twist with the exponent negated",
        POINTS,
        "{UNIFORMIZER_SYMBOL: 2 * pairing}",
        "{UNIFORMIZER_SYMBOL: -2 * pairing}",
        ["tests/test_points.py::test_atkin_lehner_eigenvalue_matches_weight_character_oracle"],
    ),
    (
        "Atkin-Lehner exponent pass dropping the cocharacter entry",
        MONOMIAL,
        "twice[name] = twice.get(name, 0) + t * e",
        "twice[name] = twice.get(name, 0) + t",
        ["tests/test_points.py::test_atkin_lehner_one_pass_matches_eval_oracle"],
    ),
    (
        "divisibility check never consulting the shared eigenvalues",
        POINTS,
        "lam = seen.get(id(point))",
        "lam = None",
        ["tests/test_points.py::test_divisibility_check_computes_one_eigenvalue_per_point_object"],
    ),
    (
        "Atkin-Lehner multipliers reading j - p as j + p",
        TRANSFER,
        "2 * (j - p)",
        "2 * (j + p)",
        ["tests/test_transfer.py::test_cached_config_data_matches_seed_formulas"],
    ),
    (
        "collision texts of odd and even doubled parameters swapped",
        TRANSFER,
        'str(d // 2) if d % 2 == 0 else f"{d}/2"',
        'f"{d}/2" if d % 2 == 0 else str(d // 2)',
        ["tests/test_transfer.py::test_collision_text_spells_wholes_and_halves"],
    ),
    (
        "alpha read by Fraction() instead of the exactness rule",
        TRANSFER,
        "    alpha = _exact(alpha)\n",
        "    alpha = Fraction(alpha)\n",
        ["tests/test_transfer.py::test_half_integer_alpha_rule_is_shared"],
    ),
    (
        "an unexpected exception reported with the exit code of a failed verdict",
        CLI,
        "code = 3",
        "code = 1",
        ["tests/test_cli.py::test_unexpected_exception_is_an_internal_error"],
    ),
    (
        "a float read as the binary fraction it rounds to",
        MONOMIAL,
        "if type(value) is int or isinstance(value, Fraction):",
        "if type(value) is int or isinstance(value, (float, Fraction)):",
        ["tests/test_monomial.py::test_inexact_rationals_are_refused"],
    ),
    (
        "Atkin-Lehner prefix residual labelled one generator early",
        TRANSFER,
        "for j in range(1, shape.blocks[i] + 1):",
        "for j in range(shape.blocks[i]):",
        ["tests/test_transfer.py::test_factorization_residuals_read_prefix_products"],
    ),
    (
        "Atkin-Lehner residual at the negated full generator dropped",
        TRANSFER,
        "    if any(total.values()):\n        out.append(f\"t={gens[-1]",
        "    if False:\n        out.append(f\"t={gens[-1]",
        ["tests/test_transfer.py::test_factorization_residuals_read_prefix_products"],
    ),
    (
        "Atkin-Lehner negated full generator read as the full product, not its inverse",
        TRANSFER,
        "Monomial._from_twice(1, total).inverse().text()",
        "Monomial._from_twice(1, total).text()",
        ["tests/test_transfer.py::test_factorization_residuals_read_prefix_products"],
    ),
    (
        "the drop call reusing the normalized factorization kept on the config",
        TRANSFER,
        "for row, u in zip(table, cfg.sigma_inverse))\n",
        "for row, u in zip(table, cfg.sigma_inverse))\n"
        '        lhs = cfg.__dict__.setdefault("_lhs", lhs)\n',
        ["tests/test_transfer.py::test_verify_matches_rebuilt_verifier[2]"],
    ),
    (
        "shape neighbour table skipping each block's last adjacent pair",
        TORI,
        "(p, p + 1) for p, (i, j) in enumerate(positions) if j + 1 < blocks[i]",
        "(p, p + 1) for p, (i, j) in enumerate(positions) if j + 2 < blocks[i]",
        ["tests/test_laurent.py::test_block_symmetry_lookup_cases"],
    ),
    (
        "LaurentPoly._check comparing shapes by equality instead of identity",
        LAURENT,
        "if self._shape is not other._shape:",
        "if self._shape != other._shape:",
        ["tests/test_ownership.py::test_no_module_compares_shapes_by_equality"],
    ),
    (
        "stored n counting blocks instead of positions",
        TORI,
        '_set(shape, "n", sum(blocks))',
        '_set(shape, "n", len(blocks))',
        ["tests/test_tori.py::test_shape_tables_are_plain_attributes"],
    ),
    (
        "block symmetry looking up the swap partner without its symbol part",
        LAURENT,
        "terms.get((exps[:p] + (b, a) + exps[p + 2 :], sym))",
        "next((c for (e, _), c in terms.items() if e == exps[:p] + (b, a) + exps[p + 2 :]), None)",
        ["tests/test_laurent.py::test_block_symmetry_lookup_cases"],
    ),
    (
        "Fraction exponents doubled on integers whatever their denominator",
        MONOMIAL,
        "elif type(exp) is Fraction and exp.denominator <= 2:",
        "elif type(exp) is Fraction:",
        ["tests/test_monomial.py::test_fraction_exponents_match_the_general_path[3]"],
    ),
    (
        "one power times a tuple with its exponent negated",
        MONOMIAL,
        "return _merge(twice, ((name, doubled),)) if doubled else twice",
        "return _merge(twice, ((name, -doubled),)) if doubled else twice",
        ["tests/test_monomial_kernel.py::test_times_matches_dict_merge"],
    ),
    (
        "split keeping the split-off entry in the rest",
        MONOMIAL,
        "return self._coeff, twice[:k] + twice[k + 1 :], t",
        "return self._coeff, twice, t",
        ["tests/test_refinements.py::test_ladder_sweep_genericity_matches_oracle_on_explicit_cases"],
    ),
    (
        "exponent read by Fraction() instead of the exactness rule",
        MONOMIAL,
        "doubled = _exact(exp) * 2",
        "doubled = Fraction(exp) * 2",
        ["tests/test_monomial.py::test_inexact_exponents_are_refused[1.5]"],
    ),
    (
        "realizing sigma never searched past the sorting permutation",
        TRANSFER,
        "return _first_realizing_sigma(shape, k, need)",
        "return None",
        ["tests/test_transfer.py::test_archimedean_sigma_search_matches_walk_oracle"],
    ),
    (
        "the integer rule accepting a bool",
        MONOMIAL,
        "        if type(x) is not int:\n",
        "        if not isinstance(x, int):\n",
        ["tests/test_tori.py::test_integral_entries_of_other_types_are_refused"],
    ),
    (
        "_positive accepting 0",
        MONOMIAL,
        "if type(value) is not int or value < 1:",
        "if type(value) is not int or value < 0:",
        ["tests/test_values.py::test_constructor_errors"],
    ),
    (
        "one-pass builder putting M in the W^shift table",
        TRANSFER,
        "for table, row in zip(shifted.values(), ((), mq, m)):",
        "for table, row in zip(shifted.values(), (m, mq, m)):",
        ["tests/test_transfer.py::test_weight_character_pullback_matches_weight_pullback"],
    ),
    (
        "one-pass builder putting the half-moduli in the plain twist table",
        TRANSFER,
        "twisted.append(m)",
        "twisted.append(mq)",
        ["tests/test_transfer.py::test_refinement_pullback_anchors"],
    ),
    (
        "one-pass builder putting W^shift in the normalized refinement table",
        TRANSFER,
        "normalized.append(mq)",
        "normalized.append(_times(mq, UNIFORMIZER_SYMBOL, w))",
        ["tests/test_transfer.py::test_refinement_pullback_normalized_anchor"],
    ),
    (
        "plain twist table alone times q^(1/2)",
        TRANSFER,
        '_set(self, "_slot_twists", tuple(twisted))',
        '_set(self, "_slot_twists", tuple(_times(m, RESIDUE_SYMBOL, 1) for m in twisted))',
        ["tests/test_acceptance.py::test_criterion_1_compatibility_suite"],
    ),
    (
        "normalized refinement table alone times q^(1/2)",
        TRANSFER,
        '_set(self, "_normalized_multipliers", tuple(normalized))',
        '_set(self, "_normalized_multipliers", tuple(_times(m, RESIDUE_SYMBOL, 1) for m in normalized))',
        ["tests/test_acceptance.py::test_criterion_1_compatibility_suite"],
    ),
    (
        "W^shift table alone times W",
        TRANSFER,
        "            _set(self, name, tuple(table))\n",
        "            _set(self, name, tuple(\n"
        '                _times(r, UNIFORMIZER_SYMBOL, 2) if name == "_shift_rows" else r for r in table\n'
        "            ))\n",
        ["tests/test_acceptance.py::test_criterion_1_compatibility_suite"],
    ),
    (
        "Atkin-Lehner table alone times W",
        TRANSFER,
        "            _set(self, name, tuple(table))\n",
        "            _set(self, name, tuple(\n"
        "                _times(r, UNIFORMIZER_SYMBOL, 2)\n"
        '                if name == "_atkin_lehner_multipliers" else r for r in table\n'
        "            ))\n",
        ["tests/test_acceptance.py::test_criterion_1_compatibility_suite"],
    ),
    (
        "unnormalized Atkin-Lehner table alone times W, failing the one-block drop call",
        TRANSFER,
        "            _set(self, name, tuple(table))\n",
        "            _set(self, name, tuple(\n"
        "                _times(r, UNIFORMIZER_SYMBOL, 2)\n"
        '                if name == "_atkin_lehner_plain_multipliers" else r for r in table\n'
        "            ))\n",
        ["tests/test_acceptance.py::test_criterion_1_compatibility_suite"],
    ),
    (
        "duality residual dropping the right row",
        TRANSFER,
        "_add_ratio({}, row, plain)",
        "_add_ratio({}, row, ())",
        ["tests/test_transfer.py::test_wrong_slot_tables_give_the_rebuilt_duality_residuals"],
    ),
    (
        "report body joining the report before it is encoded",
        CLI,
        "        text = _encode({**report, **body}, pretty)\n",
        "        report.update(body)\n",
        ["tests/test_cli.py::test_report_that_cannot_be_encoded_is_refused_with_no_body"],
    ),
    (
        "non-integral config storing its W^shift tables, without W",
        TRANSFER,
        "shifted = {name: [] for name in _SHIFTED_TABLES} if shifts is not None else {}",
        "shifted = {name: [] for name in _SHIFTED_TABLES}",
        ["tests/test_transfer.py::test_config_tables_wait_for_their_first_read"],
    ),
    (
        "W^shift tables built without reading the shifts first",
        TRANSFER,
        "        weight_shift(self)\n        self._build_slots()\n",
        "        self._build_slots()\n",
        ["tests/test_transfer.py::test_config_tables_wait_for_their_first_read"],
    ),
    (
        "genericity check building the per-parameter tables",
        REFINEMENTS,
        '        _set(self, "is_generic", _sweep(',
        '        self._ladders\n        _set(self, "is_generic", _sweep(',
        ["tests/test_refinements.py::test_genericity_builds_no_parameter_tables"],
    ),
    (
        "invert_permutation accepting a repeated entry",
        TRANSFER,
        "if not 0 <= p < n or inv[p] >= 0:",
        "if not 0 <= p < n:",
        ["tests/test_values.py::test_constructor_errors"],
    ),
    (
        "block index check without the exactness rule",
        TORI,
        '        _integers((i,), "block indices")\n        if not 0 <= i < self.r:\n',
        "        if not 0 <= i < self.r:\n",
        ["tests/test_exactness.py::test_integer_sites_take_exactly_the_ints[GroupShape.block_range]"],
    ),
    (
        "block index check accepting a negative index",
        TORI,
        '        if not 0 <= i < self.r:\n            raise ValueError(f"no block',
        '        if not i < self.r:\n            raise ValueError(f"no block',
        ["tests/test_values.py::test_constructor_errors[block_range-minus-1]"],
    ),
    (
        "twist_exponent indexing without the block index check",
        TRANSFER,
        "self.source.blocks[self.source._block_index(i)]",
        "self.source.blocks[i]",
        [
            "tests/test_exactness.py::"
            "test_integer_sites_take_exactly_the_ints[TransferConfig.twist_exponent]"
        ],
    ),
    (
        "block_params indexing without the block index check",
        REFINEMENTS,
        "self._block_params[self.shape._block_index(i)]",
        "self._block_params[i]",
        [
            "tests/test_exactness.py::"
            "test_integer_sites_take_exactly_the_ints[LocalRepDescriptor.block_params]"
        ],
    ),
    (
        "valid_symbol accepting non-ASCII identifiers",
        MONOMIAL,
        "name.isascii() and name.isidentifier()",
        "name.isidentifier()",
        ["tests/test_monomial.py::test_valid_symbol_matches_the_name_regex"],
    ),
    (
        "record subclass inheriting its parent's compiled key",
        FROZEN,
        "        cls._key = FrozenValue._key\n",
        "",
        ["tests/test_values.py::test_keys_are_compiled_per_class_on_first_use"],
    ),
    (
        "stdin job building the parser",
        CLI,
        "    if argv:\n        import argparse",
        "    if True:\n        import argparse",
        ["tests/test_cli.py::test_stdin_job_builds_no_parser"],
    ),
    (
        "no hashlib fallback when neither built-in SHA-256 module exists",
        CLI,
        "        from hashlib import sha256",
        "        from _sha2 import sha256",
        ["tests/test_cli.py::test_input_hash_falls_back_to_hashlib"],
    ),
    (
        "_exact accepting a bool",
        MONOMIAL,
        "if type(value) is int or isinstance(value, Fraction):",
        "if isinstance(value, int) or isinstance(value, Fraction):",
        ["tests/test_monomial.py::test_exact_rationals_are_accepted"],
    ),
    (
        "row kernel giving every product coefficient one",
        MONOMIAL,
        "_set_coeff(product, value._coeff)",
        "_set_coeff(product, _UNIT)",
        ["tests/test_monomial_kernel.py::test_times_rows_matches_unit_products"],
    ),
    (
        "row kernel keeping the value's exponents without the row's",
        MONOMIAL,
        "_set_twice(product, _merge(row, value._twice))",
        "_set_twice(product, value._twice)",
        ["tests/test_monomial_kernel.py::test_times_rows_matches_unit_products"],
    ),
    (
        "row kernel copying the value for an empty row",
        MONOMIAL,
        "        if row:\n",
        "        if True:\n",
        ["tests/test_monomial_kernel.py::test_times_rows_matches_unit_products"],
    ),
    (
        "row kernel with the empty-row test inverted",
        MONOMIAL,
        "        if row:\n",
        "        if not row:\n",
        ["tests/test_monomial_kernel.py::test_times_rows_matches_unit_products"],
    ),
]


# loaded by pytest from the root of each temporary copy; a test's own @settings still
# sets everything else
NO_SHRINK = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutants")
"""


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "bench").mkdir()
    shutil.copy2(ROOT / "bench" / "jobs.json", dest / "bench" / "jobs.json")
    (dest / "conftest.py").write_text(NO_SHRINK)


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
