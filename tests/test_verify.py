"""Tests for the verification battery.

The battery's own expectations are rebuilt from canonical constructors,
so these tests focus on the reporting contract, the scan, and the
sensitivity of the battery: every single-relation deletion across the
catalog must trip at least one check.
"""

import json

import pytest

import quadops.verify
from quadops.catalog import BUILTIN_NAMES, catalog
from quadops.expansion import _ideal_rank
from quadops.presentations import _dual_relations, relation_vector
from quadops.verify import (
    CheckRecord,
    MIDDLE_SWAP,
    VerifyConfig,
    extra_relation_directions,
    report_to_json,
    report_to_text,
    scan_grid,
    sixteenth_relation_scan,
    verify_all,
    _self_duality_checks,
)

EXPECTED_IDS = (
    "dual-of-one-operation-is-itself",
    "dual-of-half-products-is-bar-products",
    "dual-of-bar-products-is-half-products",
    "double-dual-restores-As",
    "double-dual-restores-Dend",
    "double-dual-restores-Dias",
    "double-dual-restores-DendSquareDias",
    "double-dual-restores-Xplus",
    "double-dual-restores-Xminus",
    "square-of-half-and-bar-products-matches-tableau",
    "sixteen-relation-quotient-construction-plus",
    "sixteen-relation-quotient-construction-minus",
    "tableau-dual-dimension-seventeen",
    "tableau-dual-matches-swapped-quotient",
    "product-of-duals-inside-dual-of-product",
    "pairing-spot-check-left-comb-terms",
    "pairing-spot-check-right-comb-terms",
    "self-duality-witness-plus",
    "relation-count-sixteen-plus",
    "self-duality-witness-minus",
    "relation-count-sixteen-minus",
    "half-product-sum-is-associative",
    "one-operation-gives-bar-structure",
    "half-product-algebras-carry-sixteen-structure-plus",
    "sixteen-algebras-carry-bar-structure-plus",
    "collapse-routes-agree-plus",
    "half-product-algebras-carry-sixteen-structure-minus",
    "sixteen-algebras-carry-bar-structure-minus",
    "collapse-routes-agree-minus",
    "binary-operation-space-dimensions",
    "component-dims-one-operation",
    "component-dims-half-products",
    "component-dims-bar-products",
    "component-dims-sixteen-plus",
    "weight-four-dimension-sixteen-plus",
    "component-dims-sixteen-minus",
    "weight-four-dimension-sixteen-minus",
    "series-defect-one-operation",
    "series-defect-half-bar-pair",
    "series-defect-sixteen-self-plus",
    "series-defect-sixteen-self-minus",
    "predicted-dims-geometric-seed-four",
    "weight-four-vs-prediction-plus",
    "weight-four-vs-prediction-minus",
    "sixteenth-relation-uniqueness-scan",
)

SCAN_PASSING_RADIUS_TWO = frozenset(
    [(-2, -2), (-2, 2), (-1, -1), (-1, 1), (1, -1), (1, 1), (2, -2), (2, 2)]
)


@pytest.fixture(scope="module")
def full_report():
    return verify_all()


@pytest.fixture(scope="module")
def quick_report():
    return verify_all(config=VerifyConfig.quick())


class TestRecordAndConfig:
    def test_status_is_validated(self):
        with pytest.raises(ValueError):
            CheckRecord("x", "maybe", "a", "b")

    def test_valid_statuses(self):
        for status in ("pass", "fail", "finding"):
            assert CheckRecord("x", status, "a", "b").status == status

    def test_config_rejects_small_weight(self):
        with pytest.raises(ValueError):
            VerifyConfig(max_weight=2)

    def test_config_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            VerifyConfig(scan_radius=-1)

    def test_quick_config_values(self):
        cfg = VerifyConfig.quick()
        assert cfg.max_weight == 3
        assert cfg.scan_radius == 0

    def test_self_duality_witness_is_applied(self, monkeypatch):
        records = _self_duality_checks(catalog())
        witnesses = [r for r in records if r.check_id.startswith("self-duality")]
        assert [r.status for r in witnesses] == ["pass", "pass"]
        # a relabeling that moved nothing would leave p, not its dual
        monkeypatch.setattr(quadops.verify, "apply_relabeling", lambda sigma, p: p)
        records = _self_duality_checks(catalog())
        witnesses = [r for r in records if r.check_id.startswith("self-duality")]
        assert [r.status for r in witnesses] == ["fail", "fail"]

    def test_middle_swap_shape(self):
        assert MIDDLE_SWAP.permutation == (0, 2, 1, 3)
        assert MIDDLE_SWAP.signs == (1, 1, 1, 1)


class TestFullBattery:
    def test_no_failures(self, full_report):
        assert full_report.ok
        assert full_report.counts()["fail"] == 0

    def test_record_ids_in_canonical_order(self, full_report):
        assert tuple(r.check_id for r in full_report.records) == EXPECTED_IDS

    def test_deterministic(self, full_report):
        assert verify_all() == full_report

    def test_findings_are_the_weight_four_records(self, full_report):
        findings = [r for r in full_report.records if r.status == "finding"]
        assert [r.check_id for r in findings] == [
            "weight-four-dimension-sixteen-plus",
            "weight-four-dimension-sixteen-minus",
            "weight-four-vs-prediction-plus",
            "weight-four-vs-prediction-minus",
        ]

    def test_weight_four_finding_values(self, full_report):
        # the computed weight-4 dimensions land under the conjectured 64,
        # and the two variants differ from each other
        plus = full_report.by_id("weight-four-dimension-sixteen-plus")
        minus = full_report.by_id("weight-four-dimension-sixteen-minus")
        assert plus.actual == "58"
        assert minus.actual == "56"
        assert "64" in plus.expected
        assert "64" in minus.expected

    def test_by_id_unknown_raises(self, full_report):
        with pytest.raises(KeyError):
            full_report.by_id("no-such-check")

    def test_scan_record_matches_golden_set(self, full_report):
        record = full_report.by_id("sixteenth-relation-uniqueness-scan")
        assert record.status == "pass"
        assert str(sorted(SCAN_PASSING_RADIUS_TWO)) in record.actual


class TestQuickBattery:
    def test_all_pass_and_no_findings(self, quick_report):
        assert quick_report.ok
        assert quick_report.counts() == {"pass": 40, "fail": 0, "finding": 0}

    def test_drops_scan_and_weight_four_records(self, full_report, quick_report):
        full_ids = {r.check_id for r in full_report.records}
        quick_ids = {r.check_id for r in quick_report.records}
        assert full_ids - quick_ids == {
            "sixteenth-relation-uniqueness-scan",
            "weight-four-dimension-sixteen-plus",
            "weight-four-dimension-sixteen-minus",
            "weight-four-vs-prediction-plus",
            "weight-four-vs-prediction-minus",
        }
        assert quick_ids <= full_ids


class TestScan:
    def test_grid_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            scan_grid(0)

    def test_grid_radius_one_row_major(self):
        assert scan_grid(1) == (
            (-1, -1),
            (-1, 0),
            (-1, 1),
            (0, -1),
            (0, 0),
            (0, 1),
            (1, -1),
            (1, 0),
            (1, 1),
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sixteenth_relation_scan([])

    def test_radius_two_passing_set(self):
        assert sixteenth_relation_scan(scan_grid(2)) == SCAN_PASSING_RADIUS_TWO

    def test_radius_four_passing_set(self):
        expected = {
            (a, b) for a, b in scan_grid(4) if a != 0 and abs(a) == abs(b)
        }
        assert len(expected) == 16
        assert sixteenth_relation_scan(scan_grid(4)) == frozenset(expected)

    def test_passing_law_on_scaled_pairs(self):
        # self-duality survives exactly when the two coefficients have
        # equal magnitude and are nonzero, so scaling a pair never
        # changes its verdict
        grid = [
            (0, 0),
            (1, 0),
            (2, 0),
            (0, 1),
            (0, 2),
            (1, 1),
            (2, 2),
            (-3, 3),
            (1, 2),
            (2, 4),
            (3, 6),
        ]
        expected = {(a, b) for a, b in grid if a != 0 and abs(a) == abs(b)}
        assert sixteenth_relation_scan(grid) == frozenset(expected)

    def test_scan_candidates_are_dense_combinations(self, monkeypatch):
        # record the extra relation of every quotient the scan builds and
        # compare it with a*left + b*right, computed coordinate by coordinate
        # from the two directions built on their own
        left_dir = relation_vector(4, [(1, 1, 3), (-1, 0, 3)], [])
        right_dir = relation_vector(4, [], [(-1, 0, 2), (1, 0, 3)])
        seen = []

        def record(base, extras):
            seen.append(extras[0].coordinates)
            return base

        monkeypatch.setattr(quadops.verify, "quotient", record)
        monkeypatch.setattr(quadops.verify, "dual", lambda q: q)
        monkeypatch.setattr(quadops.verify, "find_relabeling_iso", lambda p, q: None)
        grid = scan_grid(4)
        assert sixteenth_relation_scan(grid) == frozenset()
        assert seen == [
            tuple(
                a * x + b * y
                for x, y in zip(left_dir.coordinates, right_dir.coordinates)
            )
            for a, b in grid
        ]

    def test_direction_coordinates(self):
        # right-hand terms are stored negated, the vector encodes
        # "left side minus right side"
        left_dir, right_dir = extra_relation_directions()
        assert {i: c for i, c in enumerate(left_dir.coordinates) if c} == {
            7: 1,
            3: -1,
        }
        assert {i: c for i, c in enumerate(right_dir.coordinates) if c} == {
            18: 1,
            19: -1,
        }


class TestReports:
    def test_text_header_and_note(self, full_report):
        text = report_to_text(full_report)
        lines = text.splitlines()
        assert lines[0] == "45 checks: 41 pass, 0 fail, 4 findings"
        assert lines[-1].startswith("note: series checks are")

    def test_text_mentions_every_check(self, full_report):
        text = report_to_text(full_report)
        for check_id in EXPECTED_IDS:
            assert check_id in text
        assert "FINDING weight-four-dimension-sixteen-plus" in text

    def test_json_schema_and_parity(self, full_report):
        payload = json.loads(report_to_json(full_report))
        assert payload["summary"] == {
            "total": 45,
            "pass": 41,
            "fail": 0,
            "finding": 4,
            "ok": True,
        }
        assert len(payload["records"]) == len(full_report.records)
        for entry, record in zip(payload["records"], full_report.records):
            assert set(entry) == {
                "check_id",
                "status",
                "expected",
                "actual",
                "witness",
            }
            assert entry["check_id"] == record.check_id
            assert entry["status"] == record.status
            assert entry["expected"] == record.expected
            assert entry["actual"] == record.actual
            assert entry["witness"] == record.witness
        assert any("necessary condition" in note for note in payload["notes"])


def _deletion_cases():
    cat = catalog()
    cases = []
    for name in BUILTIN_NAMES:
        for index in range(len(cat.spanning[name])):
            cases.append((name, index))
    return cases


class TestSensitivity:
    # every built-in presentation has independent spanning relations, so
    # deleting any one of them must change some verified quantity
    @pytest.mark.parametrize("name,index", _deletion_cases())
    def test_single_relation_deletion_is_detected(self, name, index):
        mutant = catalog().without_relation(name, index)
        report = verify_all(mutant, VerifyConfig.quick())
        assert not report.ok

    def test_deletion_case_count(self):
        assert len(_deletion_cases()) == 56

    def test_verdicts_do_not_depend_on_the_memos(self):
        # the dual and rank memos must give what a fresh computation gives:
        # each deletion once on cleared memos, once on memos warmed by the
        # full battery (which asks about every unchanged built-in)
        def sweep(clear):
            reports = []
            for name, index in _deletion_cases():
                if clear:
                    _dual_relations.cache_clear()
                    _ideal_rank.cache_clear()
                mutant = catalog().without_relation(name, index)
                reports.append(verify_all(mutant, VerifyConfig.quick()))
            return reports

        cold = sweep(clear=True)
        assert verify_all().ok
        hits = (_dual_relations.cache_info().hits, _ideal_rank.cache_info().hits)
        warm = sweep(clear=False)
        assert _dual_relations.cache_info().hits > hits[0]
        assert _ideal_rank.cache_info().hits > hits[1]
        assert warm == cold
        assert not any(report.ok for report in cold)

    def test_swapping_the_twins_is_detected(self):
        cat = catalog()
        swapped = cat.with_presentation("Xplus", cat.presentation("Xminus"))
        report = verify_all(swapped, VerifyConfig.quick())
        fails = [r.check_id for r in report.records if r.status == "fail"]
        # both variants are self-dual with the same witness, so only the
        # canonical construction comparison can tell them apart
        assert fails == ["sixteen-relation-quotient-construction-plus"]
        assert report.by_id("self-duality-witness-plus").status == "pass"
