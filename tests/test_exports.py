"""Every name the package and its modules export resolves.

A name left in an ``__all__`` after its definition is gone breaks
``from quadops.<module> import *`` and misleads a reader of the API, so
each ``__all__`` is checked against the module it belongs to. The
modules' memos are checked here too: one keyed by a presentation must be
bounded, and every bound is pinned.
"""

import importlib
import inspect
import pkgutil
import runpy
from pathlib import Path

import pytest

import quadops
from quadops.linalg import Subspace

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


def test_catalog_is_the_function_and_the_module_is_imported_by_name():
    # the package binds `catalog` to the function over its submodule; the
    # module stays reachable by its full name, as the docs say
    module = importlib.import_module("quadops.catalog")
    assert inspect.ismodule(module) and module.__name__ == "quadops.catalog"
    assert inspect.isfunction(quadops.catalog) and quadops.catalog is module.catalog
    assert callable(module.spanning_relations)
    how = 'importlib.import_module("quadops.catalog")'
    assert how in quadops.__doc__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert how in readme.split("\n## Library\n")[1].split("\n## ")[0]


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


# Memos that may be keyed by one relation space: the echelons quotients
# grow from are large, so they stay in a memo bounded by count rather
# than live as long as their space.
SINGLE_SPACE_MEMOS = {"expansion._base_echelon"}


def test_no_memo_is_keyed_by_one_relation_space():
    # what is computed about one space is kept on the interned space and
    # collected with it; an LRU keyed by it would evict it by history
    single = set()
    for name in MODULES:
        module = importlib.import_module(f"quadops.{name}")
        for attr, value in vars(module).items():
            if getattr(value, "cache_info", None) is None or value.__module__ != module.__name__:
                continue
            params = inspect.signature(value.__wrapped__, eval_str=True).parameters.values()
            kinds = [param.annotation for param in params]
            if kinds.count(Subspace) == 1 and set(kinds) <= {Subspace, int}:
                single.add(f"{name}.{attr}")
    assert single == SINGLE_SPACE_MEMOS
