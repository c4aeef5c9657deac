import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import memwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(memwave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"memwave.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(memwave.__file__).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"memwave.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing
