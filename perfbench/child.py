"""One cold benchmark sample, run in a fresh interpreter by run.py.

    python3 -I perfbench/child.py ROOT WORKLOAD MODE SAMPLE_ID < inputs.json

ROOT is the checkout whose ``src/quadops`` is measured. MODE is ``setup``
(set up, then stop), ``sample`` (untraced) or ``traced`` (wrap the package
functions and write the spans to ``ROOT/.bench_runs``). Set-up is the
import of the package with its CLI, ``catalog()`` and building the
workload's operations; the timed section runs the operations; their
outputs are checked against goldens after the clock stops. The reference
computation is timed after set-up and again after the timed section;
``ref_s`` is their mean. The result is one JSON line on standard output.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(call):
    try:
        return call()
    except Exception as exc:  # a raising operation is a failed operation
        return exc


def _passes(check, out) -> bool:
    if isinstance(out, Exception):
        return False
    try:
        return bool(check(out))
    except Exception:  # output too malformed to compare
        return False


def reference_s() -> float:
    """Time a fixed computation that does not use quadops.

    Exact Gaussian elimination of a seeded 38 x 38 Fraction matrix, the same
    kind of interpreter work as the package's linear algebra; about 0.1 s.
    The speed of a shared box drifts by a third over minutes; the reported
    times are divided by this time, taken in the same process.
    """
    started = time.perf_counter()
    rng = random.Random(0)
    n = 38
    rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        prow = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / prow[c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], prow)]
    return time.perf_counter() - started


def main(argv: list[str]) -> int:
    root, workload, mode, sample_id = argv[1], argv[2], argv[3], int(argv[4])
    inputs = json.loads(sys.stdin.read())
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)

    started = time.perf_counter()
    import quadops.cli

    if not os.path.realpath(quadops.__file__).startswith(src + os.sep):
        print(f"quadops imported from {quadops.__file__}, not from {src}", file=sys.stderr)
        return 3
    trace = tracer.Tracer(sample_id) if mode == "traced" else None
    if trace is not None:
        trace.install()
        for name in trace.absent:
            print(f"not in the package, not traced: {name}", file=sys.stderr)
    cat = quadops.catalog()
    ops = workloads.build_ops(quadops, cat, workload, inputs)
    setup_s = time.perf_counter() - started
    ref_s = [reference_s()]
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "ref_s": ref_s[0]}))
        return 0

    timed_start = time.perf_counter()
    outputs = [_run(call) for _, call, _ in ops]
    timed_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_s.append(reference_s())

    failures = []
    for (label, _, check), out in zip(ops, outputs):
        if not _passes(check, out):
            failures.append(f"{label}: {out!r}"[:300])
    result = {
        "setup_s": setup_s,
        "wall_s": timed_end - timed_start,
        "peak_rss_mb": peak_rss_mb,
        "ref_s": sum(ref_s) / len(ref_s),
        "ops": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
    }
    if trace is not None:
        out_dir = os.path.join(root, ".bench_runs")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{workload}-{sample_id}.spans.jsonl")
        trace.write(path, timed_start, timed_end)
        result["trace_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
