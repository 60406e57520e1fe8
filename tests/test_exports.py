"""Every exported name of the package resolves, so no deletion leaves a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hetreg

MODULES = sorted(f"hetreg.{info.name}" for info in pkgutil.iter_modules(hetreg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, (name, missing)


def test_package_imports_resolve():
    tree = ast.parse(Path(hetreg.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(hetreg, n)] == []
