"""Apply each mutant of the ledger and run the tests expected to kill it.

Usage: ``python mutants/run.py`` from anywhere. Each mutant gets its own
temporary copy of ``src``, ``tests``, ``pyproject.toml`` and
``README.md``, with the one replacement made, and pytest runs only its
killers there. The result is printed as JSON: per mutant "killed" (a
killer failed), "survived" (all passed) or "error" (pytest could not run
them, they ran past ``TIMEOUT_S``, or the old text is not found exactly
once), with its time. A mutant that makes the code slow instead of wrong
is stopped at the time limit rather than hanging the run. The exit
status is 0 when every mutant is killed. Needs pytest and the test
dependencies, nothing else.
"""

import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
SKIPPED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
# seconds one mutant's killers may run; the slowest take about 10 s
TIMEOUT_S = 120


def run_mutant(mutant) -> dict:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="quadops-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=SKIPPED)
            else:
                shutil.copy2(source, copy / name)
        module = copy / "src" / "quadops" / mutant.module
        text = module.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            status, detail = "error", "old text not found exactly once"
        else:
            module.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     *mutant.killers],
                    cwd=copy,
                    env={**os.environ, "PYTHONPATH": str(copy / "src")},
                    capture_output=True,
                    text=True,
                    timeout=TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                status, detail = "error", f"timed out after {TIMEOUT_S} s"
            else:
                # pytest exits 1 when a test failed; 2 and up mean it could not run them
                status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
                lines = proc.stdout.strip().splitlines()
                detail = lines[-1] if lines else proc.stderr.strip()[-300:]
    return {
        "name": mutant.name,
        "module": mutant.module,
        "status": status,
        "detail": detail,
        "seconds": round(time.perf_counter() - start, 2),
    }


def main() -> int:
    mutants = runpy.run_path(str(ROOT / "mutants" / "ledger.py"))["MUTANTS"]
    start = time.perf_counter()
    results = [run_mutant(m) for m in mutants]
    print(json.dumps(
        {"mutants": results, "seconds": round(time.perf_counter() - start, 2)}, indent=2
    ))
    return 0 if all(r["status"] == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
