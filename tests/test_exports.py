"""Every name the package and its modules export resolves.

A name left in an ``__all__`` after its definition is gone breaks
``from quadops.<module> import *`` and misleads a reader of the API, so
each ``__all__`` is checked against the module it belongs to. The
modules' memos are checked here too: one keyed by a presentation must be
bounded, and every bound is pinned. So are two rules of the source
itself: no module imports a name it never uses, and a relation space
keeps its facts in its one record, never through ``_set``.
"""

import ast
import importlib
import inspect
import pkgutil
import runpy
from pathlib import Path

import pytest

import quadops
from quadops import linalg
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


SOURCES = Path(quadops.__file__).resolve().parent


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


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports what it imports by listing it in __all__
    used.update(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {name: line for name, line in imported.items() if name not in used} == {}


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
    "presentations._sign_tables": 8,
    "presentations._relabeling_iso": 128,
    "verify._checked": 256,
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


def test_facts_about_a_space_live_in_one_record():
    # one dict per interned space holds every fact; no slot per fact
    assert Subspace.__slots__ == ("ambient_dim", "rows", "_hash", "_facts", "__weakref__")
    assert not hasattr(linalg, "_FACTS")
    s = Subspace(2, (((0, 1),),))
    assert isinstance(s._facts, dict) and s._facts is Subspace(2, (((0, 1),),))._facts


def _set_targets(path: Path):
    """(function, target, field) of every ``_set(target, "field", ...)``
    call in a module, the function named as Class.method where it is one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for top in tree.body:
        functions = top.body if isinstance(top, ast.ClassDef) else [top]
        for func in functions:
            if not isinstance(func, ast.FunctionDef):
                continue
            where = f"{top.name}.{func.name}" if top is not func else func.name
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_set":
                    yield where, node.args[0].id, node.args[1].value


def test_set_only_builds_records():
    # _set passes a record's frozen __setattr__; it builds a new record's
    # fields and writes no fact onto a relation space
    found = {
        (path.stem, where, target, field)
        for path in SOURCES.glob("*.py")
        for where, target, field in _set_targets(path)
        if not (target == "self" and where.endswith(".__init__"))
    }
    assert found == {
        ("linalg", "Subspace.__new__", "space", "ambient_dim"),
        ("linalg", "Subspace.__new__", "space", "rows"),
        ("linalg", "Subspace.__new__", "space", "_hash"),
        ("linalg", "Subspace.__new__", "space", "_facts"),
        ("expansion", "weight_basis", "m", "shape"),
        ("expansion", "weight_basis", "m", "labels"),
    }
