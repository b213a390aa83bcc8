"""The mutant ledger: faults put into the source by hand, each with the
tests expected to catch it.

A mutant replaces one exact text of one module under ``src/quadops`` by
another. Its old text must occur exactly once in that module, which
``tests/test_mutants.py`` checks on every tier-1 run, so a change that
rewrites mutated code updates the mutant here in the same change.
``mutants/run.py`` applies each mutant to its own copy of the tree and
runs only its killers; a mutant that survives them is a gap in the tests.

This file is plain data and imports nothing from ``quadops``.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/quadops
    old: str
    new: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "cut-pivots-on-the-smallest-lead",
        "linalg.py",
        "        j = max((i for i, pi in enumerate(pairings) if pi), default=None)\n",
        "        j = min((i for i, pi in enumerate(pairings) if pi), default=None)\n",
        (
            "tests/test_linalg.py::test_cut_is_the_complement_of_the_larger_span",
            "tests/test_linalg.py::test_cut_golden",
        ),
    ),
    Mutant(
        "grown-echelon-drops-the-extra-rows-generators",
        "expansion.py",
        "    rows = list(_ideal_generators(k, relation_rows, n))\n",
        "    rows = list(_ideal_generators(k, relation_rows if base is None else (), n))\n",
        ("tests/test_expansion.py::TestExtendedEchelon",),
    ),
    Mutant(
        "base-echelon-extended-without-a-copy",
        "expansion.py",
        "    echelon: Echelon = {} if base is None else dict(_base_echelon(base, n))\n",
        "    echelon: Echelon = {} if base is None else _base_echelon(base, n)\n",
        ("tests/test_expansion.py::TestExtendedEchelon::test_the_memoized_base_is_not_changed",),
    ),
    Mutant(
        "origin-records-every-extra-row",
        "presentations.py",
        '        facts["origin"] = (base, earlier + kept)\n',
        '        facts["origin"] = (base, earlier + rows)\n',
        (
            "tests/test_presentations.py::TestOriginRecord"
            "::test_only_the_rows_that_grew_the_space_are_recorded",
        ),
    ),
    Mutant(
        "printer-skips-the-division-by-the-lead",
        "dsl.py",
        "    relations = [_format(_divided_by_lead(row), names) for row in p.relations.rows]\n",
        "    relations = [_format(row, names) for row in p.relations.rows]\n",
        (
            "tests/test_dsl.py::TestPrinter::test_fraction_coefficients_survive_normalization",
            "tests/test_cli.py::TestPresentationCommands"
            "::test_quotient_with_fraction_coefficients_frozen",
        ),
    ),
    Mutant(
        "builtin-asks-no-quotient",
        "catalog.py",
        '        quotient(builtin("DendSquareDias"), relations[-1:])\n',
        '        builtin("DendSquareDias")\n',
        ("tests/test_presentations.py::TestCatalogOrigins::test_builtins_are_recorded_when_made",),
    ),
    # the number rule and the value classes' type checks (BENCH_20.json)
    Mutant(
        "matrix-stores-entries-without-the-rule",
        "linalg.py",
        '        _set(self, "entries", _exact_tuple(entries))\n',
        '        _set(self, "entries", tuple(entries))\n',
        (
            "tests/test_linalg.py::test_matrix_rejects_floats",
            "tests/test_presentations.py::TestCoordinates::test_inexact_matrix_entries_rejected",
            "tests/test_presentations.py::TestIntegerCoordinates::test_value_classes_store_one_tuple",
        ),
    ),
    Mutant(
        "signed-relabeling-without-its-int-check",
        "presentations.py",
        "        if not all(type(x) is int for x in (*permutation, *signs)):\n",
        "        if False:\n",
        ("tests/test_presentations.py::TestRelabeling::test_relabeling_validation",),
    ),
    Mutant(
        "generator-set-without-its-str-check",
        "presentations.py",
        "        if not all(isinstance(n, str) for n in names):\n",
        "        if False:\n",
        ("tests/test_presentations.py::TestCoordinates::test_generator_set_validation",),
    ),
    Mutant(
        "pairing-value-sums-into-a-fraction",
        "presentations.py",
        "    return _exact(sum(pairing_terms(v, w)))\n",
        "    return sum(pairing_terms(v, w), Fraction(0))\n",
        ("tests/test_presentations.py::TestIntegerCoordinates::test_pairing_value_is_a_fraction",),
    ),
    Mutant(
        "rational-rows-always-build-fractions",
        "linalg.py",
        "                dense[c] = x\n",
        "                dense[c] = Fraction(x)\n",
        (
            "tests/test_presentations.py::TestIntegerCoordinates"
            "::test_rational_rows_of_builtins_and_duals",
            "tests/test_presentations.py::TestIntegerCoordinates::test_non_integral_values_stay_fractions",
        ),
    ),
    Mutant(
        "exact-keeps-an-integral-fraction",
        "linalg.py",
        "        return x.numerator if x.denominator == 1 else x\n",
        "        return x\n",
        (
            "tests/test_presentations.py::TestCoordinates::test_integral_fractions_stored_as_ints",
            "tests/test_presentations.py::TestIntegerCoordinates"
            "::test_integral_fraction_coefficients_become_ints",
            "tests/test_presentations.py::TestIntegerCoordinates"
            "::test_relation_vector_adds_coefficients_as_given",
        ),
    ),
    # the insertion loop and the weight-3 rank (BENCH_21.json)
    Mutant(
        "lead-one-step-subtracts-x",
        "linalg.py",
        "                y = row.get(col, 0) - a * x\n",
        "                y = row.get(col, 0) - x\n",
        (
            "tests/test_linalg.py::TestInsertRows",
            "tests/test_expansion.py::TestReductionOrder::test_builtins_at_weights_three_to_five",
        ),
    ),
    Mutant(
        "stored-row-not-normalized",
        "linalg.py",
        "            _normalize(row, lead)\n            echelon[lead] = row\n",
        "            echelon[lead] = row\n",
        ("tests/test_linalg.py::TestInsertRows::test_rows_are_consumed_and_zero_rows_skipped",),
    ),
    Mutant(
        "no-eliminate-fallback",
        "linalg.py",
        "        if prow[lead] != 1:\n            _eliminate(row, lead, prow)\n            continue\n",
        "",
        (
            "tests/test_linalg.py::TestInsertRows::test_matches_the_reference_loop",
            "tests/test_expansion.py::TestReductionOrder::test_builtins_at_weights_three_to_five",
        ),
    ),
    Mutant(
        "weight-three-rank-is-dim-r-minus-one",
        "expansion.py",
        "        return relations.dimension\n",
        "        return relations.dimension - 1\n",
        ("tests/test_expansion.py::TestWeightThreeRank",),
    ),
    Mutant(
        "weight-three-shortcut-at-weight-four",
        "expansion.py",
        "    if n == 3:\n        return relations.dimension\n",
        "    if n <= 4:\n        return relations.dimension\n",
        (
            "tests/test_expansion.py::TestRankMemo::test_rank_is_the_echelon_size",
            "tests/test_expansion.py::TestIdealAndDims::test_sixteen_relation_pair_weight_four_frozen",
        ),
    ),
    # the text reader (BENCH_24.json)
    Mutant(
        "reader-takes-numerators-unscaled",
        "dsl.py",
        "                    rows.append(_scaled_row([(c, x) for c, x in coords.items() if x]))\n",
        "                    rows.append({c: x.numerator for c, x in coords.items() if x})\n",
        (
            "tests/test_dsl.py::TestSparseAgainstDense"
            "::test_reader_spans_what_the_dense_reference_spans",
            "tests/test_dsl.py::test_reader_corpus_is_pinned",
        ),
    ),
    # the battery's record memo (BENCH_30.json)
    Mutant(
        "count-record-keyed-without-the-spanning-count",
        "verify.py",
        "        yield _count_record, tag, p, len(cat.spanning[name])\n",
        "        yield _count_record, tag, p, len(p.relation_rows())\n",
        (
            "tests/test_verify.py::TestRecordMemo"
            "::test_a_duplicate_relation_fails_the_count_record",
        ),
    ),
    Mutant(
        "forgetting-keeps-the-records",
        "presentations.py",
        "    for memo in (_quotient_relations, _square_relations, _relabeling_iso, _checked):\n",
        "    for memo in (_quotient_relations, _square_relations, _relabeling_iso):\n",
        (
            "tests/test_verify.py::TestRecordMemo::test_forgetting_clears_the_records",
            "tests/test_verify.py::TestRecordAndConfig::test_self_duality_witness_is_applied",
        ),
    ),
    Mutant(
        "witness-builder-reads-the-catalog",
        "verify.py",
        "    p_dual = dual(p)\n",
        '    p_dual = dual(catalog().presentation(f"X{tag}"))\n',
        (
            "tests/test_verify.py::TestRecordMemo::test_builders_take_values_and_read_no_catalog",
            "tests/test_verify.py::TestSensitivity::test_swapping_the_twins_is_detected",
        ),
    ),
    Mutant(
        "record-memo-unbounded",
        "verify.py",
        "@lru_cache(maxsize=256)\n",
        "@lru_cache(maxsize=None)\n",
        ("tests/test_exports.py::test_memos_keyed_by_presentations_are_bounded",),
    ),
    # the battery as one stream of builder calls (BENCH_32.json)
    Mutant(
        "scan-item-reads-the-builtin-square",
        "verify.py",
        '        yield _scan_record, cat.presentation("DendSquareDias"), config.scan_radius\n',
        '        yield _scan_record, builtin("DendSquareDias"), config.scan_radius\n',
        ("tests/test_verify.py::TestRecordMemo::test_the_scan_reads_the_catalogs_square",),
    ),
    Mutant(
        "spot-check-reads-the-wrong-row",
        "verify.py",
        "    tableau_row = tableau_vectors()[row]\n",
        "    tableau_row = tableau_vectors()[row - 1]\n",
        (
            "tests/test_verify.py::test_spot_checks_are_built_once",
            "tests/test_cli.py::TestVerifyPaper::test_report_frozen",
        ),
    ),
    Mutant(
        "predicted-dims-without-its-int-check",
        "series.py",
        "    if type(x2) is not int or type(order) is not int:\n",
        "    if False:\n",
        ("tests/test_series.py::TestPredictedDims::test_arguments_are_ints",),
    ),
    Mutant(
        "scan-grid-without-its-int-check",
        "verify.py",
        "    if type(radius) is not int:\n",
        "    if False:\n",
        ("tests/test_verify.py::TestScan::test_grid_radius_is_an_int",),
    ),
    # one reduction loop, one canonical clear, the weak-value table (BENCH_33.json)
    Mutant(
        "clear-leads-skips-a-column",
        "linalg.py",
        "    for col in [c for c in row if c in basis]:\n",
        "    for col in [c for c in row if c in basis][1:]:\n",
        (
            "tests/test_catalog.py::TestDimensions::test_relation_space_dimension",
            "tests/test_presentations.py::TestQuotient::test_matches_the_span_of_all_rows",
        ),
    ),
    Mutant(
        "extend-keeps-the-new-lead-in-the-basis",
        "linalg.py",
        "            if lead in brow:\n",
        "            if False:\n",
        (
            "tests/test_presentations.py::TestQuotient"
            "::test_rows_cleared_at_a_new_lead_stay_primitive",
            "tests/test_catalog.py::TestTwoRoutes"
            "::test_quotients_reproduce_sixteen_dimensional_pair",
        ),
    ),
    Mutant(
        "extend-keeps-a-cleared-row-as-its-old-tuple",
        "linalg.py",
        "                untouched.pop(other, None)\n",
        "",
        (
            "tests/test_presentations.py::TestQuotient"
            "::test_rows_cleared_at_a_new_lead_stay_primitive",
            "tests/test_catalog.py::TestTwoRoutes"
            "::test_quotients_reproduce_sixteen_dimensional_pair",
        ),
    ),
    Mutant(
        "interning-stores-nothing",
        "linalg.py",
        "            _interned[key] = space\n",
        "",
        (
            "tests/test_linalg.py::TestInterning::test_equal_rows_give_one_object",
            "tests/test_presentations.py::TestDualMemo::test_one_operation_dual_is_the_same_space",
        ),
    ),
    Mutant(
        "subspace-without-its-ambient-int-check",
        "linalg.py",
        "        if type(ambient_dim) is not int:\n",
        "        if False:\n",
        ("tests/test_linalg.py::test_ambient_dimension_must_be_an_int",),
    ),
)
