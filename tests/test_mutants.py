"""The mutant ledger stays applicable: each mutant's old text occurs
exactly once in its module, so ``mutants/run.py`` mutates the code it was
written for, and each killer names a test that exists. The ledger itself
is checked here, not run, beyond each mutated module still parsing;
neither is the runner, whose time limit is checked with a stand-in for
pytest."""

import ast
import runpy
import subprocess
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "mutants" / "ledger.py"))["MUTANTS"]
RUNNER = runpy.run_path(str(ROOT / "mutants" / "run.py"))


@lru_cache(maxsize=None)
def _defined_names(path: str) -> dict[str, set[str]]:
    """Top-level classes and functions of a test file, each class with the
    names defined in its body ("" holds the top-level names)."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    names = {"": set()}
    for node in tree.body:
        if isinstance(node, kinds):
            names[""].add(node.name)
        if isinstance(node, ast.ClassDef):
            names[node.name] = {n.name for n in node.body if isinstance(n, kinds)}
    return names


def test_every_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        source = (ROOT / "src" / "quadops" / m.module).read_text(encoding="utf-8")
        assert source.count(m.old) == 1, m.name
        assert m.new != m.old and m.killers, m.name
        for killer in m.killers:
            path, *parts = killer.split("::")
            assert (ROOT / path).is_file(), killer
            assert 1 <= len(parts) <= 2, killer
            # a parametrized id carries its parameters in brackets
            parts = [part.split("[")[0] for part in parts]
            names = _defined_names(path)
            assert parts[0] in names[""], killer
            if len(parts) == 2:
                assert parts[1] in names.get(parts[0], ()), killer


def test_every_mutant_still_parses():
    # a mutant that breaks the syntax of its module would show only as an
    # "error" of the runner, never as a kill
    for m in MUTANTS:
        path = ROOT / "src" / "quadops" / m.module
        mutated = path.read_text(encoding="utf-8").replace(m.old, m.new)
        compile(mutated, str(path), "exec", flags=ast.PyCF_ONLY_AST)


def test_a_mutant_past_the_time_limit_is_an_error(monkeypatch):
    limits = []

    def too_slow(cmd, **kwargs):
        limits.append(kwargs.get("timeout"))
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", too_slow)
    result = RUNNER["run_mutant"](MUTANTS[0])
    limit = RUNNER["TIMEOUT_S"]
    assert limits == [limit]
    assert (result["status"], result["detail"]) == ("error", f"timed out after {limit} s")
