import ast
import importlib
import importlib.util
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


def _benchmark_tracer():
    """``perfbench/tracer.py``, loaded from its path without installing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_resolve():
    # the benchmark wraps these by name; a rename must fail here, not there
    missing = []
    for module_name, attr, _, _ in _benchmark_tracer().TARGETS:
        owner = importlib.import_module(f"memwave.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing
