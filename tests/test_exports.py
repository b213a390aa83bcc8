"""Every name the package and its modules export resolves.

A name left in an ``__all__`` after its definition is gone breaks
``from quadops.<module> import *`` and misleads a reader of the API, so
each ``__all__`` is checked against the module it belongs to.
"""

import importlib
import pkgutil

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
