import ast
import importlib
import importlib.util
import json
import math
import pkgutil
from pathlib import Path

import pytest

import memwave
from memwave import cli
from memwave.config import SCHEMA

MODULES = sorted(m.name for m in pkgutil.iter_modules(memwave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"memwave.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _reexports():
    """``(module, name)`` for each name ``memwave/__init__.py`` imports."""
    tree = ast.parse(Path(memwave.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"memwave.{node.module}")
            yield from ((module, a.name) for a in node.names)


def test_package_imports_resolve():
    missing = [f"{m.__name__}.{n}" for m, n in _reexports() if not hasattr(m, n)]
    assert not missing


def test_package_reexports_are_public():
    private = [f"{m.__name__}.{n}" for m, n in _reexports() if n not in getattr(m, "__all__", ())]
    assert not private


def _imports(name):
    """``(module source tree, alias nodes of its imports)``, ``__future__``
    features left out."""
    tree = ast.parse((Path(memwave.__file__).parent / f"{name}.py").read_text())
    aliases = [
        alias
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    return tree, aliases


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name):
    # the package __init__ is not among MODULES: its imports are re-exports
    tree, aliases = _imports(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [a.asname or a.name.split(".")[0] for a in aliases]
    assert [n for n in imported if n not in used] == []


@pytest.mark.parametrize("name", ["spectral", "resolvent", "timedomain", "analysis"])
def test_numerical_layers_take_no_kernel_or_grid_object(name):
    # below the command line a kernel is its delta and a grid its xi array;
    # timedomain keeps the Kernel type for the general integrator
    names = {a.name for a in _imports(name)[1]}
    assert names & {"ModeGrid", "ExponentialKernel", "TabulatedKernel"} == set()


SOURCES = sorted(Path(memwave.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_the_command_line_sets_blas_threads(path):
    # cli pins one OpenBLAS thread around each command and puts the caller's
    # count back; a numerical layer that set the count itself would undo that
    words = ("ctypes", "openblas", "num_threads", "threadpool")
    found = [w for w in words if w in path.read_text().lower()]
    assert found == (list(words[:3]) if path.name == "cli.py" else [])


def test_every_command_option_is_read():
    # a schema key that no command reads is a knob that does nothing: each
    # option key must be a string constant of a cli function that names its section
    functions = [
        {n.value for n in ast.walk(f) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for f in ast.parse(Path(cli.__file__).read_text()).body
        if isinstance(f, ast.FunctionDef)
    ]
    unread = []
    for section in ("spectrum", "sweep", "simulate", "fit", "verdict"):
        read = set().union(*(consts for consts in functions if section in consts))
        unread += [f"{section}.{key}" for key in SCHEMA["properties"][section]["properties"] if key not in read]
    assert unread == []


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


def test_benchmark_tracer_sizes_the_general_integrator_by_steps(tmp_path):
    # the benchmark's step count reads the keyword arguments T and dt of the
    # call in cli.cmd_simulate
    s = [0.01 * i for i in range(501)]
    cfg = {
        "params": {"rho": 1.0, "mu": 1.0, "alpha": 2.0, "beta": 1.0, "gamma": 0.5, "a": 0.5},
        "kernel": {"type": "tabulated", "s": s, "g": [math.exp(-x) for x in s], "k0": 1.0, "k1": 1.0},
        "grid": {"type": "dirichlet_laplacian", "length": math.pi, "count": 2},
        "simulate": {"integrator": "general", "t_hi": 0.3, "dt": 0.01, "sample_every": 5},
    }
    path = tmp_path / "general.json"
    path.write_text(json.dumps(cfg))
    tracer = _benchmark_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    sizes = [span[5] for span in tracer.spans if span[0] == "timedomain.evolve_general_kernel"]
    assert sizes == [round(0.3 / 0.01)]
