import ast
import importlib
import importlib.util
import json
import math
import pkgutil
from pathlib import Path

import pytest

import memwave
from helpers import schema_agrees
from memwave import cli
from memwave.config import TABLE

MODULES = sorted(m.name for m in pkgutil.iter_modules(memwave.__path__))
PACKAGE = Path(memwave.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")


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


def _imports(path):
    """``(module source tree, alias nodes of its imports)``, ``__future__``
    features left out."""
    tree = ast.parse(path.read_text())
    aliases = [
        alias
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    return tree, aliases


@pytest.mark.parametrize("path", [PACKAGE / f"{m}.py" for m in MODULES] + [ORACLES], ids=[*MODULES, "oracles"])
def test_module_uses_every_name_it_imports(path):
    # the package __init__ is not among MODULES: its imports are re-exports
    tree, aliases = _imports(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [a.asname or a.name.split(".")[0] for a in aliases]
    assert [n for n in imported if n not in used] == []


@pytest.mark.parametrize("name", ["spectral", "resolvent", "timedomain", "analysis"])
def test_numerical_layers_take_no_kernel_or_grid_object(name):
    # below the command line a kernel is its delta and a grid its xi array;
    # timedomain keeps the Kernel type for the general integrator
    names = {a.name for a in _imports(PACKAGE / f"{name}.py")[1]}
    assert names & {"ModeGrid", "ExponentialKernel", "TabulatedKernel"} == set()


SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_the_command_line_sets_blas_threads(path):
    # cli pins one OpenBLAS thread around each command and puts the caller's
    # count back; a numerical layer that set the count itself would undo that
    words = ("ctypes", "openblas", "num_threads", "threadpool")
    found = [w for w in words if w in path.read_text().lower()]
    assert found == (list(words[:3]) if path.name == "cli.py" else [])


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_parameter_is_read(path):
    # a parameter that its function never reads is plumbing left over from a
    # removed computation; lambdas and nested functions count as functions
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{getattr(node, 'name', 'lambda')}.{p}" for p in params if p not in read]
    assert unread == []


def test_every_command_option_is_read():
    # a config key that no command reads is a knob that does nothing: each
    # option key must be a string constant of a cli function that names its section
    functions = [
        {n.value for n in ast.walk(f) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for f in ast.parse(Path(cli.__file__).read_text()).body
        if isinstance(f, ast.FunctionDef)
    ]
    unread = []
    for section in ("spectrum", "sweep", "simulate", "fit", "verdict"):
        read = set().union(*(consts for consts in functions if section in consts))
        unread += [f"{section}.{key}" for key in TABLE[section] if key not in read]
    assert unread == []


def _parse(module, path, binds):
    """Top-level definitions ``{(module, name): node}`` of the source ``path``
    and its other top-level statements, which run on import.  ``binds`` gets
    the package names its imports bind: ``from .x import y`` and ``from
    memwave.x import y`` bind ``(x, y)``, ``from . import x`` the submodule
    ``(x, None)``."""
    defined, statements = {}, []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined[module, stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined.update({(module, n.id): stmt for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)})
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level == 1 or (stmt.module or "").split(".")[0] == "memwave":
                owner = (stmt.module or "").removeprefix("memwave").lstrip(".")
                binds.update({a.asname or a.name: (owner, a.name) if owner else (a.name, None) for a in stmt.names})
        elif not isinstance(stmt, ast.Import):
            statements.append(stmt)
    return defined, statements


def _references(node, module, binds):
    """``(module, name)`` of each name that ``node`` of ``module`` reads: a
    bare name through ``binds`` or else in ``module`` itself, and ``x.attr``
    on an imported submodule ``x`` as ``(x, attr)``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and binds.get(n.value.id) == (n.value.id, None):
            yield n.value.id, n.attr
        elif isinstance(n, ast.Name):
            yield binds.get(n.id, (module, n.id))


def _walk(todo, defined, binds):
    """``(reached, read)``: the definitions reached from the ``(module,
    name)`` keys in ``todo`` through the names each reads, and every key read
    on the way, defined or not."""
    reached, read = set(), set()
    while todo:
        key = todo.pop()
        read.add(key)
        if key in defined and key not in reached:
            reached.add(key)
            todo += _references(defined[key], key[0], binds[key[0]])
    return reached, read


def test_every_package_name_is_reached_from_a_command():
    # src holds what a command runs: a name that no command reaches serves
    # only the tests, and the independent checks live in tests/oracles.py.
    # The walk starts at cli.COMMANDS and the statements run on import; every
    # __all__ name and every private top-level name counts, with no allowlist
    defined, binds, todo = {}, {}, [("cli", "COMMANDS")]
    for module in MODULES:
        binds[module] = {}
        found, statements = _parse(module, PACKAGE / f"{module}.py", binds[module])
        defined.update(found)
        todo += [ref for stmt in statements for ref in _references(stmt, module, binds[module])]
    reached, _ = _walk(todo, defined, binds)
    public = {(m, n) for m in MODULES for n in getattr(importlib.import_module(f"memwave.{m}"), "__all__", ())}
    names = (set(defined) | public) - {(m, "__all__") for m in MODULES}
    assert sorted(f"{m}.{n}" for m, n in names - reached) == []


# the package names each oracle reads, through the oracle module's own
# helpers: an oracle that called the computation it checks would check nothing
ORACLE_READS = {
    "cardano_cubic_roots": {"memwave.spectral.AsymptoticConstants", "memwave.model.ModelParams"},
    "cubic_coeffs": {"memwave.spectral.AsymptoticConstants", "memwave.model.ModelParams"},
    "strip_check": {"memwave.spectral.SpectrumBranch"},
    "superposition_oracle": {"memwave.model.ModelParams"},
    "static_solve": {
        "memwave.model.ModelParams",
        "memwave.model.energy_parts",
        "memwave.model.memoryless_generator",
        "memwave.resolvent.LaguerreGrid",
        "memwave.resolvent.energy_congruence",
        "memwave.resolvent.mode_block",
    },
    "five_term_trace": {"memwave.model.energy_parts"},
    "memory_energy_quadrature": {
        "memwave.model.coercivity_margin",
        "memwave.model.energy_parts",
        "memwave.spectral.modal_generator",
    },
    "config_accepted": set(),
}


def test_oracles_read_only_the_package_names_pinned_for_them():
    tree = ast.parse(ORACLES.read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Import) and any("memwave" in a.name for a in n.names)]
    binds = {"oracles": {}}
    defined, _ = _parse("oracles", ORACLES, binds["oracles"])
    entries = [n for (_, n), node in defined.items() if isinstance(node, ast.FunctionDef) and not n.startswith("_")]
    reads = {
        entry: {f"memwave.{m}.{n}" for m, n in _walk([("oracles", entry)], defined, binds)[1] if m != "oracles"}
        for entry in entries
    }
    assert reads == ORACLE_READS


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
    assert schema_agrees(cfg)
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
