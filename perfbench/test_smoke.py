"""Smoke test of the benchmark itself, on reduced inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced through the same harness
the full benchmark uses: Dend to weight 4, five scan pairs, three
deletions. The outputs must match the goldens, and the metric names and
units printed must be exactly the ones ``BENCHMARK.json`` declares.
"""

import json
import sys

import pytest

import goldens
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_pass(workload):
    inputs = workloads.smoke_inputs(workload)
    plain = run.measure(workload, seed=0, seconds=0, trace=False, inputs=inputs)
    assert plain["failed"] == 0 and plain["correct"]
    assert {m: v["unit"] for m, v in plain["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = run.measure(workload, seed=0, seconds=0, trace=True, inputs=inputs)
    assert traced["failed"] == 0 and traced["correct"]
    assert {m: v["unit"] for m, v in traced["metrics"].items()} == _declared("per_layer")


def test_selfdual_scan_has_no_expansion_work():
    inputs = workloads.smoke_inputs("selfdual_scan")
    metrics = run.measure("selfdual_scan", seed=0, seconds=0, trace=True, inputs=inputs)["metrics"]
    assert metrics["expansion.ideal_span.calls"]["value"] == 0
    assert metrics["expansion.self_s"]["value"] == 0
    assert metrics["presentations.find_relabeling_iso.calls"]["value"] == len(inputs["pairs"])


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    pairs = workloads.make_inputs("selfdual_scan", 7)["pairs"]
    assert sum(goldens.is_self_dual(a, b) for a, b in pairs) == workloads.SCAN_HITS
    assert len(pairs) == workloads.SCAN_HITS + workloads.SCAN_MISSES
    deletions = workloads.make_inputs("battery", 7)["deletions"]
    assert len(deletions) == sum(workloads.DELETION_QUOTA.values())
    assert len({tuple(d) for d in deletions}) == len(deletions)


def test_checks_reject_wrong_outputs():
    sys.path.insert(0, str(run.ROOT / "src"))
    import quadops

    cat = quadops.catalog()
    _, _, check_dims = workloads._dims_op(quadops, cat, "Dend", 4)
    assert check_dims((1, 2, 5, 14)) and not check_dims((1, 2, 5, 15))
    left, right = quadops.verify.extra_relation_directions()
    base = cat.presentation("DendSquareDias")
    _, call_hit, check_hit = workloads._scan_op(quadops, base, left, right, 2, -2)
    _, _, check_miss = workloads._scan_op(quadops, base, left, right, 2, 1)
    witness = call_hit()
    assert check_hit(witness) and not check_hit(None)
    assert check_miss(None) and not check_miss(witness)
