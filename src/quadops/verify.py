"""Verification battery over the built-in catalog.

Every computational claim about the built-ins is re-derived here from the
engine primitives and recorded as a CheckRecord. Proved claims get status
"pass" or "fail"; outputs that the source material only conjectures are
recorded as "finding" when they deviate, so a deviation never fails the
battery. Structural constants used as expectations (the fifteen-row
tableau, the sixteenth-relation coordinates, the middle swap) are built
fresh from canonical constructors rather than read from the catalog under
test, so a damaged catalog cannot satisfy the checks by construction.
"""

from __future__ import annotations

import json

from .catalog import (
    BUILTIN_NAMES,
    BuiltinCatalog,
    catalog,
    sixteenth_vector,
    tableau_vectors,
)
from .expansion import binary_ops_dimension, catalan, component_dim
from .linalg import _Record, _set, subspace_contains
from .presentations import (
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
    DimSeries,
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
    """The two directions spanning candidate sixteenth relations.

    The first lives in the left-parenthesized block: (x ne y) se z minus
    (x nw y) se z. The second lives in the right-parenthesized block:
    x nw (y sw z) minus x nw (y se z).
    """
    return _candidate(1, 0), _candidate(0, 1)


def _candidate(a: int, b: int) -> RelVector:
    """a times the first direction plus b times the second."""
    return relation_vector(4, [(a, 1, 3), (-a, 0, 3)], [(-b, 0, 2), (b, 0, 3)])


def scan_grid(radius: int) -> tuple[tuple[int, int], ...]:
    """All integer pairs in [-radius, radius]^2, row-major."""
    if radius < 1:
        raise ValueError("scan radius is at least 1")
    r = range(-radius, radius + 1)
    return tuple((a, b) for a in r for b in r)


def sixteenth_relation_scan(
    grid, cat: BuiltinCatalog | None = None
) -> frozenset[tuple]:
    """Which scaled combinations of the two directions give a self-dual
    quotient of the fifteen-relation square."""
    pairs = tuple(grid)
    if not pairs:
        raise ValueError("empty scan grid")
    if cat is None:
        cat = catalog()
    base = cat.presentation("DendSquareDias")
    passing = []
    for a, b in pairs:
        q = quotient(base, [_candidate(a, b)])
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


def _subspace_equal_record(
    check_id: str, expected_desc: str, left: Presentation, right: Presentation
) -> CheckRecord:
    equal = left.relations == right.relations
    return _record(
        check_id,
        equal,
        expected_desc,
        f"dimensions {left.relations.dimension} and "
        f"{right.relations.dimension}, {'equal' if equal else 'different'} spans",
    )


def _duality_checks(cat: BuiltinCatalog) -> list[CheckRecord]:
    records = [
        _subspace_equal_record(
            "dual-of-one-operation-is-itself",
            "dual relation space equals the original, dimension 1",
            dual(cat.presentation("As")),
            cat.presentation("As"),
        ),
        _subspace_equal_record(
            "dual-of-half-products-is-bar-products",
            "orthogonal of the 3 half-product relations spans the 5 bar-product relations",
            dual(cat.presentation("Dend")),
            cat.presentation("Dias"),
        ),
        _subspace_equal_record(
            "dual-of-bar-products-is-half-products",
            "orthogonal of the 5 bar-product relations spans the 3 half-product relations",
            dual(cat.presentation("Dias")),
            cat.presentation("Dend"),
        ),
    ]
    for name in BUILTIN_NAMES:
        p = cat.presentation(name)
        records.append(
            _subspace_equal_record(
                f"double-dual-restores-{name}",
                "taking the orthogonal complement twice restores the relation space",
                dual(dual(p)),
                p,
            )
        )
    return records


def _square_checks(cat: BuiltinCatalog) -> list[CheckRecord]:
    constructed = square(cat.presentation("Dend"), cat.presentation("Dias"))
    records = [
        _subspace_equal_record(
            "square-of-half-and-bar-products-matches-tableau",
            "product relation space equals the 15-row tableau, dimension 15",
            constructed,
            cat.presentation("DendSquareDias"),
        )
    ]
    for sign, tag in ((1, "plus"), (-1, "minus")):
        built = quotient(constructed, [sixteenth_vector(sign)])
        records.append(
            _subspace_equal_record(
                f"sixteen-relation-quotient-construction-{tag}",
                "catalog presentation equals the square quotiented by the canonical sixteenth relation",
                built,
                cat.presentation("Xplus" if sign == 1 else "Xminus"),
            )
        )
    return records


def _tableau_dual_checks(cat: BuiltinCatalog) -> list[CheckRecord]:
    base = cat.presentation("DendSquareDias")
    d = dual(base)
    records = [
        _record(
            "tableau-dual-dimension-seventeen",
            d.relations.dimension == 17,
            "32 - 15 = 17",
            str(d.relations.dimension),
        )
    ]
    left_dir, right_dir = extra_relation_directions()
    quotiented = quotient(base, [left_dir, right_dir])
    swapped = apply_relabeling(MIDDLE_SWAP, quotiented)
    equal = swapped.relations == d.relations
    records.append(
        _record(
            "tableau-dual-matches-swapped-quotient",
            equal,
            "dual equals the middle-swap relabeling of tableau plus the two extra directions",
            f"dimensions {swapped.relations.dimension} and "
            f"{d.relations.dimension}, {'equal' if equal else 'different'} spans",
            f"relabeling {MIDDLE_SWAP.permutation}",
        )
    )
    product_of_duals = square(
        dual(cat.presentation("Dend")), dual(cat.presentation("Dias"))
    )
    contained = subspace_contains(d.relations, product_of_duals.relations)
    records.append(
        _record(
            "product-of-duals-inside-dual-of-product",
            contained,
            "square of the duals is contained in the dual of the square",
            f"dimension {product_of_duals.relations.dimension} space "
            f"{'inside' if contained else 'not inside'} dimension "
            f"{d.relations.dimension} space",
        )
    )
    return records


def _pairing_text(v: RelVector, w: RelVector) -> str:
    terms = [f"{'+' if t > 0 else ''}{t}" for t in pairing_terms(v, w)]
    return " ".join(terms) if terms else "no common support"


def _spot_checks() -> list[CheckRecord]:
    rows = tableau_vectors()
    # each candidate dual direction shares support with exactly one tableau
    # row; the two overlapping products are unit terms of opposite sign
    left_dual = relation_vector(4, [(1, 2, 3), (-1, 0, 3)], [])
    left_row = rows[11]
    value_left = pairing_value(left_dual, left_row)
    right_dual = relation_vector(4, [], [(-1, 0, 1), (1, 0, 3)])
    right_row = rows[3]
    value_right = pairing_value(right_dual, right_row)
    return [
        _record(
            "pairing-spot-check-left-comb-terms",
            value_left == 0,
            "two unit terms cancel to 0",
            f"{_pairing_text(left_dual, left_row)} = {value_left}",
        ),
        _record(
            "pairing-spot-check-right-comb-terms",
            value_right == 0,
            "two unit terms cancel to 0",
            f"{_pairing_text(right_dual, right_row)} = {value_right}",
        ),
    ]


def _self_duality_checks(cat: BuiltinCatalog) -> list[CheckRecord]:
    records = []
    for name, tag in (("Xplus", "plus"), ("Xminus", "minus")):
        p = cat.presentation(name)
        p_dual = dual(p)
        sigma = find_relabeling_iso(p, p_dual)
        # apply the witness too: a check that does not go through the search
        records.append(
            _record(
                f"self-duality-witness-{tag}",
                sigma == MIDDLE_SWAP
                and apply_relabeling(sigma, p).relations == p_dual.relations,
                f"relabeling {MIDDLE_SWAP.permutation} with all positive signs",
                "no relabeling found"
                if sigma is None
                else f"relabeling {sigma.permutation} with signs {sigma.signs}",
                "" if sigma is None else "verified by applying the relabeling",
            )
        )
        dim = p.relations.dimension
        spanning = len(cat.spanning[name])
        records.append(
            _record(
                f"relation-count-sixteen-{tag}",
                dim == 16 and spanning == 16,
                "16 spanning relations, linearly independent",
                f"{spanning} spanning relations, dimension {dim}",
            )
        )
    return records


def _morphism_checks(cat: BuiltinCatalog) -> list[CheckRecord]:
    def morphism_record(check_id, source, target, description):
        ok = is_morphism(
            cat.map(source, target),
            cat.presentation(source),
            cat.presentation(target),
        )
        return _record(
            check_id,
            ok,
            description,
            "all pushed relations land in the target space"
            if ok
            else "some pushed relation leaves the target space",
        )

    records = [
        morphism_record(
            "half-product-sum-is-associative",
            "As",
            "Dend",
            "the sum of the two half products is associative",
        ),
        morphism_record(
            "one-operation-gives-bar-structure",
            "Dias",
            "As",
            "reading both bar products as the single product satisfies all five relations",
        ),
    ]
    for name, tag in (("Xplus", "plus"), ("Xminus", "minus")):
        records.append(
            morphism_record(
                f"half-product-algebras-carry-sixteen-structure-{tag}",
                name,
                "Dend",
                "reading the arrows as half products satisfies all sixteen relations",
            )
        )
        records.append(
            morphism_record(
                f"sixteen-algebras-carry-bar-structure-{tag}",
                "Dias",
                name,
                "reading the bar products as arrow sums satisfies all five relations",
            )
        )
        through_arrows = compose_maps(cat.map("Dias", name), cat.map(name, "Dend"))
        through_single = compose_maps(cat.map("Dias", "As"), cat.map("As", "Dend"))
        equal = through_arrows.matrix == through_single.matrix
        records.append(
            _record(
                f"collapse-routes-agree-{tag}",
                equal,
                "composite through the arrows equals the composite through the single operation",
                "matrices equal"
                if equal
                else f"{_matrix_text(through_arrows.matrix)} != "
                f"{_matrix_text(through_single.matrix)}",
                f"common matrix {_matrix_text(through_single.matrix)}",
            )
        )
    return records


def _dimension_checks(
    cat: BuiltinCatalog, config: VerifyConfig
) -> list[CheckRecord]:
    records = [
        _record(
            "binary-operation-space-dimensions",
            all(
                binary_ops_dimension(cat.presentation(n)) == e
                for n, e in (
                    ("As", 2),
                    ("Dend", 4),
                    ("Dias", 4),
                    ("DendSquareDias", 8),
                    ("Xplus", 8),
                    ("Xminus", 8),
                )
            ),
            "2, 4, 4, 8, 8, 8",
            ", ".join(
                str(binary_ops_dimension(cat.presentation(n)))
                for n in BUILTIN_NAMES
            ),
        )
    ]
    w = config.max_weight
    catalan_prefix = tuple(catalan(n) for n in range(1, w + 1))
    linear_prefix = tuple(range(1, w + 1))
    ones = (1,) * w
    for name, expected, check_id in (
        ("As", ones, "component-dims-one-operation"),
        ("Dend", catalan_prefix, "component-dims-half-products"),
        ("Dias", linear_prefix, "component-dims-bar-products"),
    ):
        dims = dim_series(cat.presentation(name), w).dims
        records.append(
            _record(
                check_id,
                dims == expected,
                str(expected),
                str(dims),
            )
        )
    for name, tag in (("Xplus", "plus"), ("Xminus", "minus")):
        p = cat.presentation(name)
        proved = tuple(component_dim(p, n) for n in range(1, 4))
        records.append(
            _record(
                f"component-dims-sixteen-{tag}",
                proved == (1, 4, 16),
                "(1, 4, 16)",
                str(proved),
            )
        )
        if w >= 4:
            d4 = component_dim(p, 4)
            matches = d4 == CONJECTURED_WEIGHT_FOUR
            records.append(
                CheckRecord(
                    f"weight-four-dimension-sixteen-{tag}",
                    "pass" if matches else "finding",
                    f"{CONJECTURED_WEIGHT_FOUR} if the open acyclicity question "
                    "resolves positively",
                    str(d4),
                    "conjectural value, deviation recorded as a finding",
                )
            )
    return records


def _series_checks(cat: BuiltinCatalog, config: VerifyConfig) -> list[CheckRecord]:
    w = config.max_weight

    def defect_record(check_id, p_dims, dual_dims, order):
        defect = gk_defect(p_dims, dual_dims, order)
        return _record(
            check_id,
            defect.is_zero,
            f"zero defect through order {order}",
            "zero"
            if defect.is_zero
            else f"coefficients {tuple(map(str, defect.coefficients))}",
            SERIES_LIMITATION_NOTE,
        )

    as_dims = dim_series(cat.presentation("As"), 6)
    records = [defect_record("series-defect-one-operation", as_dims, as_dims, 6)]
    dend_dims = dim_series(cat.presentation("Dend"), w)
    dias_dims = dim_series(cat.presentation("Dias"), w)
    records.append(
        defect_record("series-defect-half-bar-pair", dend_dims, dias_dims, w)
    )
    for name, tag in (("Xplus", "plus"), ("Xminus", "minus")):
        dims = dim_series(cat.presentation(name), w)
        records.append(
            defect_record(f"series-defect-sixteen-self-{tag}", dims, dims, w)
        )
    prediction = predicted_dims(4, 5)
    records.append(
        _record(
            "predicted-dims-geometric-seed-four",
            prediction.ok and prediction.dims == (1, 4, 16, 64, 256),
            "(1, 4, 16, 64, 256)",
            str(prediction.dims)
            if prediction.ok
            else f"solver stopped: {prediction.failure}",
        )
    )
    if w >= 4:
        predicted4 = predicted_dims(4, 4).dims[3]
        for name, tag in (("Xplus", "plus"), ("Xminus", "minus")):
            d4 = component_dim(cat.presentation(name), 4)
            matches = d4 == predicted4
            records.append(
                CheckRecord(
                    f"weight-four-vs-prediction-{tag}",
                    "pass" if matches else "finding",
                    f"{predicted4} from the functional-equation solver",
                    str(d4),
                    "the even-degree defect cannot see this value; "
                    + SERIES_LIMITATION_NOTE,
                )
            )
    return records


def _scan_check(cat: BuiltinCatalog, config: VerifyConfig) -> CheckRecord:
    grid = scan_grid(config.scan_radius)
    passing = sixteenth_relation_scan(grid, cat)
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
        f"grid radius {config.scan_radius}, {len(grid)} quotients tested",
    )


def verify_all(
    cat: BuiltinCatalog | None = None, config: VerifyConfig | None = None
) -> CheckReport:
    """Run the whole battery in canonical order."""
    if cat is None:
        cat = catalog()
    if config is None:
        config = VerifyConfig()
    records: list[CheckRecord] = []
    records.extend(_duality_checks(cat))
    records.extend(_square_checks(cat))
    records.extend(_tableau_dual_checks(cat))
    records.extend(_spot_checks())
    records.extend(_self_duality_checks(cat))
    records.extend(_morphism_checks(cat))
    records.extend(_dimension_checks(cat, config))
    records.extend(_series_checks(cat, config))
    if config.scan_radius:
        records.append(_scan_check(cat, config))
    return CheckReport(tuple(records))


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
