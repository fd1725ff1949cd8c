"""The package's public names: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import fvaudit

MODULES = sorted(info.name for info in pkgutil.iter_modules(fvaudit.__path__)
                 if info.name != "__main__")


def test_modules_are_found():
    assert {"cli", "harness", "mesh", "physics", "scheme"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition is gone breaks
    ``from module import *`` and every tool that wraps the exports by name."""
    module = importlib.import_module(f"fvaudit.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"fvaudit.{name}.{attr}"
