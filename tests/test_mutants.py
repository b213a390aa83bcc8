"""The mutant ledger stays applicable: each mutant's old text occurs
exactly once in its module, so ``mutants/run.py`` mutates the code it was
written for. The ledger itself is checked here, not run."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "mutants" / "ledger.py"))["MUTANTS"]


def test_every_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        source = (ROOT / "src" / "quadops" / m.module).read_text(encoding="utf-8")
        assert source.count(m.old) == 1, m.name
        assert m.new != m.old and m.killers, m.name
        for killer in m.killers:
            assert (ROOT / killer.split("::")[0]).is_file(), killer
