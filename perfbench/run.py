"""Cold-process benchmark of quadops.

    python3 perfbench/run.py [--workload dims_deep|selfdual_scan|battery|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Measures the package under ``src/`` of the checkout that holds this
directory. Every sample is a fresh interpreter (``child.py``), started
only after the previous one has ended: a closed loop with one client. The
package keeps process-wide ``lru_cache``s, so a second sample in the same
process would measure cache hits; a CLI user pays the cold cost on every
invocation. The harness draws the workload's inputs from ``--seed`` and
hands the same inputs to every sample of the run.

With ``--trace 0`` the run takes untraced samples while another one still
fits in ``--seconds`` (always at least one), with ``SETUP_PROBES``
set-up-only cold starts split before and after them, and prints ``wall_s``,
``peak_rss_mb`` and ``setup_s`` as medians over the samples (set-up over
probes and samples); the two times are speed-normalized (see
``REFERENCE_S``). With ``--trace 1`` it alternates untraced and traced
samples instead and prints the per-layer metrics of ``tracer.py`` plus the
tracing overhead. A sample with a wrong output counts as failed and its
time is left out of the medians. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
progress goes to standard error. ``--workload all`` runs the three
workloads in turn and prints each one's metrics as a table instead.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# cold starts that only set up; with the samples' own set-ups they give
# setup_s a median over about ten starts, which a few slow ones cannot move
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170
# Reported times are speed-normalized: each raw time is divided by the time
# of child.reference_s() in the same process and multiplied by this fixed
# round value, which only turns the ratio back into seconds. On the 2-core
# box of the recorded baseline the reference took 0.08 to 0.23 s, and raw
# times drifted by a third over minutes while the ratios held within a few
# percent.
REFERENCE_S = 0.1

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """A sample process could not produce a result."""


def run_child(workload: str, mode: str, sample_id: int, inputs: dict) -> dict:
    cmd = [sys.executable, "-I", str(CHILD), str(ROOT), workload, mode, str(sample_id)]
    try:
        proc = subprocess.run(
            cmd,
            input=json.dumps(inputs),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} sample exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload} {mode} sample exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, inputs: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if inputs is None:
        inputs = workloads.make_inputs(workload, seed)

    def probe_setups():
        # half before the samples, half after, so the median spans the run
        return [] if trace else [
            run_child(workload, "setup", -1, inputs) for _ in range(SETUP_PROBES // 2)
        ]

    setups = probe_setups()
    modes = ("sample", "traced") if trace else ("sample",)
    results: dict[str, list[dict]] = {mode: [] for mode in modes}
    started = time.perf_counter()
    sample_id = 0
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            r = run_child(workload, mode, sample_id, inputs)
            sample_id += 1
            results[mode].append(r)
            print(
                f"{workload} {mode} #{sample_id}: wall {r['wall_s']:.3f} s, "
                f"set-up {r['setup_s']:.3f} s, reference {r['ref_s']:.3f} s, "
                f"rss {r['peak_rss_mb']:.1f} MB, {r['failed']}/{r['ops']} failed",
                file=sys.stderr,
            )
            for failure in r["failures"]:
                print(f"  FAILED {failure}", file=sys.stderr)
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            break
    setups += probe_setups()

    everything = [r for rs in results.values() for r in rs]
    attempted = sum(r["ops"] for r in everything)
    failed = sum(r["failed"] for r in everything)

    def valid(rs):
        return [r for r in rs if r["failed"] == 0] or rs

    def normalized(rs, key):
        return statistics.median(r[key] / r["ref_s"] for r in rs) * REFERENCE_S

    untraced = valid(results["sample"])
    if trace:
        traced = valid(results["traced"])
        per_sample = [tracer.layer_metrics(*tracer.read_spans(r["trace_file"])) for r in traced]
        metrics = tracer.aggregate(
            per_sample,
            traced_wall=normalized(traced, "wall_s"),
            untraced_wall=normalized(untraced, "wall_s"),
            reference=statistics.median(r["ref_s"] for r in everything),
        )
    else:
        values = {
            "wall_s": normalized(untraced, "wall_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "setup_s": normalized(setups + results["sample"], "setup_s"),
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run raises instead of dying at once, so subprocess.run
    # kills and reaps the sample process it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "quadops" / "__init__.py").is_file():
        print(f"no quadops package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for w, result in results.items():
        print(w)
        print(f"  ops_total   {result['attempted']} count")
        print(f"  ops_failed  {result['failed']} count")
        for name, metric in result["metrics"].items():
            print(f"  {name}  {metric['value']:.6g} {metric['unit']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
