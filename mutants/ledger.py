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
)
