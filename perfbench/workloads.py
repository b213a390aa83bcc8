"""The three workloads: inputs drawn from the seed, and the operations a
cold sample runs on them.

``make_inputs`` runs in the harness and imports nothing from quadops; the
sample process receives only the inputs it returns. ``build_ops`` runs in
the sample process after set-up and returns ``(label, call, check)``
triples: ``call`` is timed, ``check`` compares its output with a golden
value afterwards.

* ``dims_deep``: the dimension-counting path on a few large dense matrices
  (up to 320 columns, ten times the width of the scan's).
* ``selfdual_scan``: dual and relabeling-iso search on thousands of tiny
  32-column matrices; no expansion work at all.
* ``battery``: what a researcher runs: ``verify-paper`` through the CLI,
  single-relation deletions through the quick battery and the DSL round
  trip.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import goldens

WORKLOADS = ("dims_deep", "selfdual_scan", "battery")

# Dend at weight 6 (2,548 rows of 1,344 columns, 12 to 20 s a sample on a
# shared 2-core box) is left out: one or two samples a run were too few to
# give a steady median. The order is fixed, because peak RSS depends on
# which cached components are alive when the largest elimination runs.
DIMS_DEEP = (("Dend", 5), ("Dias", 5), ("Xplus", 4), ("Xminus", 4))

SCAN_RADIUS = 4
# Self-dual pairs stop the iso search at the first candidate, the others
# try all 384 signed relabelings, so the hit share sets the cost of a
# sample. Drawing a fixed 20 hits and 80 misses (about the grid's own
# 16:65) keeps that cost the same for every seed.
SCAN_HITS = 20
SCAN_MISSES = 80

BUILTINS = tuple(goldens.SPANNING_COUNTS)
# Deletions per built-in in one battery sample. The whole sweep of 56 takes
# about 14 s, too long for enough samples in a run; a fixed quota per
# built-in keeps the cost the same for every seed, and the seed picks which
# relations are deleted.
DELETION_QUOTA = {"As": 1, "Dend": 1, "Dias": 1, "DendSquareDias": 2, "Xplus": 2, "Xminus": 2}


def make_inputs(workload: str, seed: int) -> dict:
    """Full-size inputs for one workload, fixed by the seed."""
    rng = random.Random(seed)
    if workload == "dims_deep":
        return {"series": [list(job) for job in DIMS_DEEP]}
    if workload == "selfdual_scan":
        grid = [(a, b) for a in range(-SCAN_RADIUS, SCAN_RADIUS + 1) for b in range(-SCAN_RADIUS, SCAN_RADIUS + 1)]
        hits = [p for p in grid if goldens.is_self_dual(*p)]
        misses = [p for p in grid if not goldens.is_self_dual(*p)]
        pairs = [list(rng.choice(hits)) for _ in range(SCAN_HITS)]
        pairs += [list(rng.choice(misses)) for _ in range(SCAN_MISSES)]
        rng.shuffle(pairs)
        return {"pairs": pairs}
    if workload == "battery":
        deletions = [
            [name, i]
            for name in BUILTINS
            for i in rng.sample(range(goldens.SPANNING_COUNTS[name]), DELETION_QUOTA[name])
        ]
        rng.shuffle(deletions)
        return {"verify_paper": True, "deletions": deletions, "round_trip": list(BUILTINS)}
    raise ValueError(f"unknown workload {workload!r}")


def smoke_inputs(workload: str) -> dict:
    """Reduced inputs for the benchmark's own smoke test."""
    if workload == "dims_deep":
        return {"series": [["Dend", 4], ["Dias", 4], ["Xplus", 4], ["Xminus", 3]]}
    if workload == "selfdual_scan":
        return {"pairs": [[1, 1], [3, -3], [0, 0], [2, 1], [-4, 0]]}
    if workload == "battery":
        return {
            "verify_paper": True,
            "deletions": [["Dend", 0], ["Xplus", 15], ["DendSquareDias", 7]],
            "round_trip": list(BUILTINS),
        }
    raise ValueError(f"unknown workload {workload!r}")


def build_ops(quadops, cat, workload: str, inputs: dict) -> list:
    """The sample's operations. Package functions are looked up through
    ``quadops`` at call time, so a traced sample sees the wrapped ones."""
    if workload == "dims_deep":
        return [_dims_op(quadops, cat, name, w) for name, w in inputs["series"]]
    if workload == "selfdual_scan":
        left, right = quadops.verify.extra_relation_directions()
        base = cat.presentation("DendSquareDias")
        return [_scan_op(quadops, base, left, right, a, b) for a, b in inputs["pairs"]]
    if workload == "battery":
        ops = [_verify_paper_op(quadops)] if inputs["verify_paper"] else []
        ops += [_deletion_op(quadops, cat, name, i) for name, i in inputs["deletions"]]
        ops += [_round_trip_op(quadops, cat, name) for name in inputs["round_trip"]]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _dims_op(quadops, cat, name, max_weight):
    p = cat.presentation(name)
    expected = goldens.dims(name, max_weight)
    return (
        f"dim_series {name} {max_weight}",
        lambda: quadops.dim_series(p, max_weight).dims,
        lambda dims: tuple(dims) == expected,
    )


def _scan_op(quadops, base, left, right, a, b):
    extra = quadops.RelVector(
        tuple(a * x + b * y for x, y in zip(left.coordinates, right.coordinates))
    )

    def call():
        q = quadops.quotient(base, [extra])
        return quadops.find_relabeling_iso(q, quadops.dual(q))

    def check(sigma):
        if not goldens.is_self_dual(a, b):
            return sigma is None
        return sigma is not None and (sigma.permutation, sigma.signs) == goldens.SELF_DUAL_WITNESS

    return f"self-dual scan ({a}, {b})", call, check


def _verify_paper_op(quadops):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = quadops.cli.main(["--format", "json", "verify-paper"])
        return code, out.getvalue()

    def check(result):
        code, text = result
        payload = json.loads(text)
        summary = {k: payload["summary"][k] for k in goldens.VERIFY_PAPER_SUMMARY}
        findings = [r for r in payload["records"] if r["status"] == "finding"]
        return (
            code == 0
            and summary == goldens.VERIFY_PAPER_SUMMARY
            and all(
                r["actual"] == goldens.FINDING_VALUES[r["check_id"].rsplit("-", 1)[1]]
                for r in findings
            )
        )

    return "verify-paper", call, check


def _deletion_op(quadops, cat, name, index):
    def call():
        mutant = cat.without_relation(name, index)
        return quadops.verify_all(mutant, quadops.VerifyConfig.quick()).ok

    # every deletion must be caught: the damaged catalog fails a check
    return f"deletion {name}[{index}]", call, lambda ok: ok is False


def _round_trip_op(quadops, cat, name):
    p = cat.presentation(name)

    def call():
        text = quadops.print_presentation(p, name)
        result = quadops.parse(text)
        again = result.presentations.get(name) if result.ok else None
        return text, again, None if again is None else quadops.print_presentation(again, name)

    def check(result):
        text, again, text_again = result
        return again is not None and again.relations == p.relations and text_again == text

    return f"round trip {name}", call, check
