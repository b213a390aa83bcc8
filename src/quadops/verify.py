"""Verification battery over the built-in catalog.

Every computational claim about the built-ins is re-derived here from the
engine primitives and recorded as a CheckRecord. Proved claims get status
"pass" or "fail"; outputs that the source material only conjectures are
recorded as "finding" when they deviate, so a deviation never fails the
battery. Structural constants used as expectations (the fifteen-row
tableau, the sixteenth-relation coordinates, the middle swap) are built
fresh from canonical constructors rather than read from the catalog under
test, so a damaged catalog cannot satisfy the checks by construction.

Each record is made by a module-level builder that receives exactly the
values it reads (presentations, generator maps, the spanning count, the
weight, radius or expected tuple, the tag or name), never the catalog or
the config, and returns that one record. Each section function looks
those values up and yields ``(builder, *inputs)`` items; ``verify_all``
makes every record, the uniqueness scan's included, by one call of
``_checked``, an LRU of 256 records keyed by the builder and its
arguments. A damaged presentation has another relation space, so its
records miss and are built afresh, while a record of an unchanged
built-in is one lookup. ``presentations._forget_relation_facts`` clears
the records too.

The primitives the builders call (duals, quotients, squares, iso
searches, ranks) keep their results by value, in each interned relation
space's record ``Subspace._facts`` or in memos keyed by the spaces, never
by names; the ``presentations`` module docstring describes both. The
origin a quotient records on the space it grew serves duals and ideals
alike, and the catalog makes Xplus's and Xminus's through ``quotient``
too. So the sixteenth-relation scan eliminates only the square's
complement and cuts the dual of every point from it, and from weight 4
on a battery eliminates the square's ideal once per weight and, for
Xplus and Xminus, only the sixteenth relation's generators. They stay
the spans of their literal lists, so the quotient-construction checks
still compare two spaces built apart.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from functools import lru_cache

from .catalog import (
    BUILTIN_NAMES,
    BuiltinCatalog,
    builtin,
    catalog,
    line_relation,
    sixteenth_vector,
    tableau_vectors,
)
from .expansion import binary_ops_dimension, catalan, component_dim
from .linalg import _Record, _set, subspace_contains
from .presentations import (
    GeneratorMap,
    Presentation,
    RelVector,
    SignedRelabeling,
    apply_relabeling,
    compose_maps,
    dual,
    find_relabeling_iso,
    is_morphism,
    pairing_terms,
    pairing_value,
    quotient,
    relation_vector,
    square,
)
from .series import (
    SERIES_LIMITATION_NOTE,
    dim_series,
    gk_defect,
    predicted_dims,
)

__all__ = [
    "CheckRecord",
    "CheckReport",
    "VerifyConfig",
    "MIDDLE_SWAP",
    "extra_relation_directions",
    "scan_grid",
    "sixteenth_relation_scan",
    "verify_all",
    "report_to_text",
    "report_payload",
    "report_to_json",
]

# exchanging the two middle arrow operations, the second and the third
MIDDLE_SWAP = SignedRelabeling((0, 2, 1, 3), (1, 1, 1, 1))

CONJECTURED_WEIGHT_FOUR = 64

# the sixteen-relation pair: (catalog name, check-id tag, sixteenth relation's sign)
_SIXTEEN_RELATION_PAIR = (("Xplus", "plus", 1), ("Xminus", "minus", -1))


class CheckRecord(_Record):
    """One verified claim: identifier, outcome, and the values compared."""

    __slots__ = ("check_id", "status", "expected", "actual", "witness")

    def __init__(
        self, check_id: str, status: str, expected: str, actual: str, witness: str = ""
    ) -> None:
        if status not in ("pass", "fail", "finding"):
            raise ValueError(f"unknown status {status!r}")
        _set(self, "check_id", check_id)
        _set(self, "status", status)
        _set(self, "expected", expected)
        _set(self, "actual", actual)
        _set(self, "witness", witness)


class CheckReport(_Record):
    """The battery's records, in the order the checks ran."""

    __slots__ = ("records",)

    def __init__(self, records: tuple[CheckRecord, ...]) -> None:
        _set(self, "records", records)

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "finding": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def by_id(self, check_id: str) -> CheckRecord:
        for r in self.records:
            if r.check_id == check_id:
                return r
        raise KeyError(check_id)


class VerifyConfig(_Record):
    """Depth knobs for the battery.

    max_weight bounds the dimension battery (weight 4 reaches the
    conjectured values; weight 3 keeps mutation sweeps fast). scan_radius
    sets the integer grid for the uniqueness scan; 0 skips the scan.
    """

    __slots__ = ("max_weight", "scan_radius")

    def __init__(self, max_weight: int = 4, scan_radius: int = 2) -> None:
        if type(max_weight) is not int or type(scan_radius) is not int:
            raise TypeError(f"weight and radius must be int, got {(max_weight, scan_radius)!r}")
        if max_weight < 3:
            raise ValueError("the battery needs at least weight 3")
        if scan_radius < 0:
            raise ValueError("scan radius is at least 0")
        _set(self, "max_weight", max_weight)
        _set(self, "scan_radius", scan_radius)

    @classmethod
    def quick(cls) -> "VerifyConfig":
        return cls(max_weight=3, scan_radius=0)


def extra_relation_directions() -> tuple[RelVector, RelVector]:
    """The two directions spanning candidate sixteenth relations: u and v
    of ``line_relation``, its points (1 : 0) and (0 : 1)."""
    return line_relation(1, 0), line_relation(0, 1)


def scan_grid(radius: int) -> tuple[tuple[int, int], ...]:
    """All integer pairs in [-radius, radius]^2, row-major."""
    if type(radius) is not int:
        raise TypeError(f"scan radius must be int, got {radius!r}")
    if radius < 1:
        raise ValueError("scan radius is at least 1")
    r = range(-radius, radius + 1)
    return tuple((a, b) for a in r for b in r)


def sixteenth_relation_scan(grid, base: Presentation | None = None) -> frozenset[tuple]:
    """Which scaled combinations of the two directions give a self-dual
    quotient of the fifteen-relation square ``base``, by default the
    built-in DendSquareDias."""
    pairs = tuple(grid)
    if not pairs:
        raise ValueError("empty scan grid")
    if base is None:
        base = builtin("DendSquareDias")
    passing = []
    for a, b in pairs:
        q = quotient(base, [line_relation(a, b)])
        if find_relabeling_iso(q, dual(q)) is not None:
            passing.append((a, b))
    return frozenset(passing)


def _record(
    check_id: str, passed: bool, expected: str, actual: str, witness: str = ""
) -> CheckRecord:
    return CheckRecord(
        check_id, "pass" if passed else "fail", expected, actual, witness
    )


def _matrix_text(matrix) -> str:
    rows = [
        "[" + ", ".join(str(entry) for entry in row) + "]"
        for row in matrix.row_list()
    ]
    return "[" + ", ".join(rows) + "]"


def _finding_record(
    check_id: str, matches: bool, expected: str, actual: str, witness: str
) -> CheckRecord:
    """A conjectured value's record: a deviation is a finding, never a fail."""
    return CheckRecord(check_id, "pass" if matches else "finding", expected, actual, witness)


def _subspace_equal_record(
    check_id: str, expected_desc: str, left: Presentation, right: Presentation, witness: str = ""
) -> CheckRecord:
    equal = left.relations == right.relations
    return _record(
        check_id,
        equal,
        expected_desc,
        f"dimensions {left.relations.dimension} and "
        f"{right.relations.dimension}, {'equal' if equal else 'different'} spans",
        witness,
    )


# Bounded LRU of the battery's records, keyed by the builder and the values
# it reads. A builder is module-level and reads nothing but its arguments
# and the canonical constructors, so equal inputs give an equal record.
@lru_cache(maxsize=256)
def _checked(build, *inputs):
    return build(*inputs)


def _dual_record(check_id: str, expected: str, p: Presentation, q: Presentation) -> CheckRecord:
    return _subspace_equal_record(check_id, expected, dual(p), q)


def _double_dual_record(name: str, p: Presentation) -> CheckRecord:
    return _subspace_equal_record(
        f"double-dual-restores-{name}",
        "taking the orthogonal complement twice restores the relation space",
        dual(dual(p)),
        p,
    )


def _duality_checks(cat: BuiltinCatalog) -> Iterator[tuple]:
    for p, q, check_id, expected in (
        ("As", "As", "dual-of-one-operation-is-itself",
         "dual relation space equals the original, dimension 1"),
        ("Dend", "Dias", "dual-of-half-products-is-bar-products",
         "orthogonal of the 3 half-product relations spans the 5 bar-product relations"),
        ("Dias", "Dend", "dual-of-bar-products-is-half-products",
         "orthogonal of the 5 bar-product relations spans the 3 half-product relations"),
    ):
        yield _dual_record, check_id, expected, cat.presentation(p), cat.presentation(q)
    for name in BUILTIN_NAMES:
        yield _double_dual_record, name, cat.presentation(name)


def _tableau_square_record(
    dend: Presentation, dias: Presentation, base: Presentation
) -> CheckRecord:
    return _subspace_equal_record(
        "square-of-half-and-bar-products-matches-tableau",
        "product relation space equals the 15-row tableau, dimension 15",
        square(dend, dias),
        base,
    )


def _sixteen_quotient_record(
    tag: str, sign: int, dend: Presentation, dias: Presentation, p: Presentation
) -> CheckRecord:
    return _subspace_equal_record(
        f"sixteen-relation-quotient-construction-{tag}",
        "catalog presentation equals the square quotiented by the canonical sixteenth relation",
        quotient(square(dend, dias), [sixteenth_vector(sign)]),
        p,
    )


def _square_checks(cat: BuiltinCatalog) -> Iterator[tuple]:
    dend, dias = cat.presentation("Dend"), cat.presentation("Dias")
    yield _tableau_square_record, dend, dias, cat.presentation("DendSquareDias")
    for name, tag, sign in _SIXTEEN_RELATION_PAIR:
        yield _sixteen_quotient_record, tag, sign, dend, dias, cat.presentation(name)


def _tableau_dual_dimension_record(base: Presentation) -> CheckRecord:
    dim = dual(base).relations.dimension
    return _record("tableau-dual-dimension-seventeen", dim == 17, "32 - 15 = 17", str(dim))


def _swapped_quotient_record(base: Presentation) -> CheckRecord:
    quotiented = quotient(base, extra_relation_directions())
    return _subspace_equal_record(
        "tableau-dual-matches-swapped-quotient",
        "dual equals the middle-swap relabeling of tableau plus the two extra directions",
        apply_relabeling(MIDDLE_SWAP, quotiented),
        dual(base),
        f"relabeling {MIDDLE_SWAP.permutation}",
    )


def _product_of_duals_record(
    base: Presentation, dend: Presentation, dias: Presentation
) -> CheckRecord:
    d = dual(base)
    product_of_duals = square(dual(dend), dual(dias))
    contained = subspace_contains(d.relations, product_of_duals.relations)
    return _record(
        "product-of-duals-inside-dual-of-product",
        contained,
        "square of the duals is contained in the dual of the square",
        f"dimension {product_of_duals.relations.dimension} space "
        f"{'inside' if contained else 'not inside'} dimension "
        f"{d.relations.dimension} space",
    )


def _tableau_dual_checks(cat: BuiltinCatalog) -> Iterator[tuple]:
    base = cat.presentation("DendSquareDias")
    yield _tableau_dual_dimension_record, base
    yield _swapped_quotient_record, base
    yield _product_of_duals_record, base, cat.presentation("Dend"), cat.presentation("Dias")


def _pairing_text(v: RelVector, w: RelVector) -> str:
    terms = [f"{'+' if t > 0 else ''}{t}" for t in pairing_terms(v, w)]
    return " ".join(terms) if terms else "no common support"


def _spot_check_record(side: str, left_terms: tuple, right_terms: tuple, row: int) -> CheckRecord:
    """Pair a candidate dual direction, given by its terms, with a tableau row."""
    direction = relation_vector(4, left_terms, right_terms)
    tableau_row = tableau_vectors()[row]
    value = pairing_value(direction, tableau_row)
    return _record(
        f"pairing-spot-check-{side}-comb-terms",
        value == 0,
        "two unit terms cancel to 0",
        f"{_pairing_text(direction, tableau_row)} = {value}",
    )


def _spot_checks() -> Iterator[tuple]:
    # each candidate dual direction shares support with exactly one tableau
    # row; the two overlapping products are unit terms of opposite sign
    yield _spot_check_record, "left", ((1, 2, 3), (-1, 0, 3)), (), 11
    yield _spot_check_record, "right", (), ((-1, 0, 1), (1, 0, 3)), 3


def _witness_record(tag: str, p: Presentation) -> CheckRecord:
    p_dual = dual(p)
    sigma = find_relabeling_iso(p, p_dual)
    # apply the witness too: a check that does not go through the search
    return _record(
        f"self-duality-witness-{tag}",
        sigma == MIDDLE_SWAP
        and apply_relabeling(sigma, p).relations == p_dual.relations,
        f"relabeling {MIDDLE_SWAP.permutation} with all positive signs",
        "no relabeling found"
        if sigma is None
        else f"relabeling {sigma.permutation} with signs {sigma.signs}",
        "" if sigma is None else "verified by applying the relabeling",
    )


def _count_record(tag: str, p: Presentation, spanning: int) -> CheckRecord:
    dim = p.relations.dimension
    return _record(
        f"relation-count-sixteen-{tag}",
        dim == 16 and spanning == 16,
        "16 spanning relations, linearly independent",
        f"{spanning} spanning relations, dimension {dim}",
    )


def _self_duality_checks(cat: BuiltinCatalog) -> Iterator[tuple]:
    for name, tag, _ in _SIXTEEN_RELATION_PAIR:
        p = cat.presentation(name)
        yield _witness_record, tag, p
        yield _count_record, tag, p, len(cat.spanning[name])


def _morphism_record(
    check_id: str, expected: str, phi: GeneratorMap, source: Presentation, target: Presentation
) -> CheckRecord:
    ok = is_morphism(phi, source, target)
    return _record(
        check_id,
        ok,
        expected,
        "all pushed relations land in the target space"
        if ok
        else "some pushed relation leaves the target space",
    )


def _collapse_record(
    tag: str, arrows_in: GeneratorMap, arrows_out: GeneratorMap,
    single_in: GeneratorMap, single_out: GeneratorMap,
) -> CheckRecord:
    """Dias to Dend through the four arrows, against Dias to Dend through As."""
    through_arrows = compose_maps(arrows_in, arrows_out)
    through_single = compose_maps(single_in, single_out)
    equal = through_arrows.matrix == through_single.matrix
    return _record(
        f"collapse-routes-agree-{tag}",
        equal,
        "composite through the arrows equals the composite through the single operation",
        "matrices equal"
        if equal
        else f"{_matrix_text(through_arrows.matrix)} != "
        f"{_matrix_text(through_single.matrix)}",
        f"common matrix {_matrix_text(through_single.matrix)}",
    )


def _morphism_checks(cat: BuiltinCatalog) -> Iterator[tuple]:
    def morphism(check_id, source, target, expected):
        ends = cat.presentation(source), cat.presentation(target)
        return _morphism_record, check_id, expected, cat.map(source, target), *ends

    yield morphism(
        "half-product-sum-is-associative", "As", "Dend",
        "the sum of the two half products is associative",
    )
    yield morphism(
        "one-operation-gives-bar-structure", "Dias", "As",
        "reading both bar products as the single product satisfies all five relations",
    )
    for name, tag, _ in _SIXTEEN_RELATION_PAIR:
        yield morphism(
            f"half-product-algebras-carry-sixteen-structure-{tag}", name, "Dend",
            "reading the arrows as half products satisfies all sixteen relations",
        )
        yield morphism(
            f"sixteen-algebras-carry-bar-structure-{tag}", "Dias", name,
            "reading the bar products as arrow sums satisfies all five relations",
        )
        routes = (("Dias", name), (name, "Dend"), ("Dias", "As"), ("As", "Dend"))
        yield _collapse_record, tag, *(cat.map(*r) for r in routes)


_EXPECTED_OPS = {"As": 2, "Dend": 4, "Dias": 4, "DendSquareDias": 8, "Xplus": 8, "Xminus": 8}


def _ops_record(*presentations: Presentation) -> CheckRecord:
    """Binary operation spaces of the presentations named in ``_EXPECTED_OPS``, in order."""
    ops = tuple(map(binary_ops_dimension, presentations))
    expected = tuple(_EXPECTED_OPS.values())
    return _record(
        "binary-operation-space-dimensions",
        ops == expected,
        ", ".join(map(str, expected)),
        ", ".join(map(str, ops)),
    )


def _dims_record(check_id: str, p: Presentation, expected: tuple[int, ...]) -> CheckRecord:
    dims = dim_series(p, len(expected)).dims
    return _record(check_id, dims == expected, str(expected), str(dims))


def _sixteen_dims_record(tag: str, p: Presentation) -> CheckRecord:
    proved = tuple(component_dim(p, n) for n in range(1, 4))
    return _record(f"component-dims-sixteen-{tag}", proved == (1, 4, 16), "(1, 4, 16)", str(proved))


def _weight_four_record(tag: str, p: Presentation) -> CheckRecord:
    d4 = component_dim(p, 4)
    return _finding_record(
        f"weight-four-dimension-sixteen-{tag}",
        d4 == CONJECTURED_WEIGHT_FOUR,
        f"{CONJECTURED_WEIGHT_FOUR} if the open acyclicity question "
        "resolves positively",
        str(d4),
        "conjectural value, deviation recorded as a finding",
    )


def _dimension_checks(cat: BuiltinCatalog, config: VerifyConfig) -> Iterator[tuple]:
    yield _ops_record, *map(cat.presentation, _EXPECTED_OPS)
    w = config.max_weight
    for name, expected, check_id in (
        ("As", (1,) * w, "component-dims-one-operation"),
        ("Dend", tuple(catalan(n) for n in range(1, w + 1)), "component-dims-half-products"),
        ("Dias", tuple(range(1, w + 1)), "component-dims-bar-products"),
    ):
        yield _dims_record, check_id, cat.presentation(name), expected
    for name, tag, _ in _SIXTEEN_RELATION_PAIR:
        p = cat.presentation(name)
        yield _sixteen_dims_record, tag, p
        if w >= 4:
            yield _weight_four_record, tag, p


def _defect_record(check_id: str, p: Presentation, q: Presentation, order: int) -> CheckRecord:
    defect = gk_defect(dim_series(p, order), dim_series(q, order), order)
    return _record(
        check_id,
        defect.is_zero,
        f"zero defect through order {order}",
        "zero"
        if defect.is_zero
        else f"coefficients {tuple(map(str, defect.coefficients))}",
        SERIES_LIMITATION_NOTE,
    )


def _prediction_record() -> CheckRecord:
    prediction = predicted_dims(4, 5)
    return _record(
        "predicted-dims-geometric-seed-four",
        prediction.ok and prediction.dims == (1, 4, 16, 64, 256),
        "(1, 4, 16, 64, 256)",
        str(prediction.dims)
        if prediction.ok
        else f"solver stopped: {prediction.failure}",
    )


def _prediction_finding_record(tag: str, p: Presentation) -> CheckRecord:
    predicted4 = predicted_dims(4, 4).dims[3]
    d4 = component_dim(p, 4)
    return _finding_record(
        f"weight-four-vs-prediction-{tag}",
        d4 == predicted4,
        f"{predicted4} from the functional-equation solver",
        str(d4),
        "the even-degree defect cannot see this value; "
        + SERIES_LIMITATION_NOTE,
    )


def _series_checks(cat: BuiltinCatalog, config: VerifyConfig) -> Iterator[tuple]:
    w = config.max_weight
    as_p, dend, dias = map(cat.presentation, ("As", "Dend", "Dias"))
    yield _defect_record, "series-defect-one-operation", as_p, as_p, 6
    yield _defect_record, "series-defect-half-bar-pair", dend, dias, w
    for name, tag, _ in _SIXTEEN_RELATION_PAIR:
        p = cat.presentation(name)
        yield _defect_record, f"series-defect-sixteen-self-{tag}", p, p, w
    yield (_prediction_record,)
    if w >= 4:
        for name, tag, _ in _SIXTEEN_RELATION_PAIR:
            yield _prediction_finding_record, tag, cat.presentation(name)


def _scan_record(base: Presentation, radius: int) -> CheckRecord:
    grid = scan_grid(radius)
    passing = sixteenth_relation_scan(grid, base)
    expected = frozenset(
        (a, b) for a, b in grid if a != 0 and (a == b or a == -b)
    )
    matches = passing == expected
    return _record(
        "sixteenth-relation-uniqueness-scan",
        matches,
        f"exactly the pairs with equal magnitudes and nonzero entries: "
        f"{sorted(expected)}",
        str(sorted(passing)),
        f"grid radius {radius}, {len(grid)} quotients tested",
    )


def _scan_checks(cat: BuiltinCatalog, config: VerifyConfig) -> Iterator[tuple]:
    if config.scan_radius:
        yield _scan_record, cat.presentation("DendSquareDias"), config.scan_radius


def verify_all(
    cat: BuiltinCatalog | None = None, config: VerifyConfig | None = None
) -> CheckReport:
    """Run the whole battery in canonical order."""
    if cat is None:
        cat = catalog()
    if config is None:
        config = VerifyConfig()
    sections = (
        _duality_checks(cat),
        _square_checks(cat),
        _tableau_dual_checks(cat),
        _spot_checks(),
        _self_duality_checks(cat),
        _morphism_checks(cat),
        _dimension_checks(cat, config),
        _series_checks(cat, config),
        _scan_checks(cat, config),
    )
    return CheckReport(tuple(_checked(*item) for section in sections for item in section))


def report_to_text(report: CheckReport) -> str:
    counts = report.counts()
    lines = [
        f"{len(report.records)} checks: {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts['finding']} findings"
    ]
    for r in report.records:
        lines.append(f"{r.status.upper():7s} {r.check_id}")
        lines.append(f"        expected: {r.expected}")
        lines.append(f"        actual:   {r.actual}")
        if r.witness:
            lines.append(f"        witness:  {r.witness}")
    lines.append(f"note: series checks are {SERIES_LIMITATION_NOTE}")
    return "\n".join(lines)


def report_payload(report: CheckReport) -> dict:
    """The report as plain JSON values: summary, records and notes."""
    counts = report.counts()
    return {
        "summary": {
            "total": len(report.records),
            "pass": counts["pass"],
            "fail": counts["fail"],
            "finding": counts["finding"],
            "ok": report.ok,
        },
        "records": [
            {
                "check_id": r.check_id,
                "status": r.status,
                "expected": r.expected,
                "actual": r.actual,
                "witness": r.witness,
            }
            for r in report.records
        ],
        "notes": [f"series checks are {SERIES_LIMITATION_NOTE}"],
    }


def report_to_json(report: CheckReport) -> str:
    return json.dumps(report_payload(report), indent=2, ensure_ascii=False)
