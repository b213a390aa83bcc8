"""Every name the package and its modules export resolves.

A name left in an ``__all__`` after its definition is gone breaks
``from quadops.<module> import *`` and misleads a reader of the API, so
each ``__all__`` is checked against the module it belongs to. The
modules' memos are checked here too: one keyed by a presentation must be
bounded, and every bound is pinned.
"""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import quadops

MODULES = (
    "catalog",
    "cli",
    "dsl",
    "expansion",
    "linalg",
    "presentations",
    "series",
    "verify",
)


def test_every_module_is_checked():
    assert sorted(m.name for m in pkgutil.iter_modules(quadops.__path__)) == list(
        MODULES
    )


@pytest.mark.parametrize("name", ("quadops",) + tuple(f"quadops.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps these names; one renamed or deleted in
    # the package would otherwise show only when the benchmark runs
    tracer = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))
    targets = tracer["TARGETS"]
    assert len(targets) == 24
    for module, attr in targets:
        owner = importlib.import_module(f"quadops.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"


# Memos keyed by a built-in name or a weight: their keys are few by
# construction, so they may be unbounded.
UNBOUNDED_MEMOS = {
    "catalog.builtin",
    "catalog.spanning_relations",
    "catalog.builtin_map",
    "expansion.enumerate_trees",
    "expansion._context_layouts",
}


# Every other memo, with its bound: adding or resizing one shows here.
BOUNDED_MEMOS = {
    "expansion._base_echelon": 4,
    "expansion._ideal_rank": 128,
    "expansion._normal_edges": 128,
    "presentations._dual_relations": 128,
    "presentations._quotient_relations": 128,
    "presentations._square_relations": 128,
    "presentations._is_morphism": 128,
    "presentations._sign_tables": 8,
    "presentations._relabeled_relations": 128,
    "presentations._relabeling_iso": 128,
    "series.predicted_dims": 128,
    "verify._spot_checks": 1,
}


def test_memos_keyed_by_presentations_are_bounded():
    # an unbounded memo keyed by relation spaces would pin every
    # presentation a long-lived process has asked about
    bounds = {}
    for name in MODULES:
        module = importlib.import_module(f"quadops.{name}")
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if info is not None and value.__module__ == module.__name__:
                bounds[f"{name}.{attr}"] = info().maxsize
    assert {memo for memo, size in bounds.items() if size is None} == UNBOUNDED_MEMOS
    assert {memo: size for memo, size in bounds.items() if size is not None} == BOUNDED_MEMOS
