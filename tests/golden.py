"""The README example configuration's artifacts, committed under
``tests/data/readme`` with a manifest (``tests/data/readme.json``): the
configuration, the commands in the order they run, the SHA-256 of every
artifact, and the environment that wrote them.  A general-integrator
``simulate`` on the README parameters, which the README configuration does
not run, is committed the same way under ``tests/data/general`` with
``tests/data/general.json``.

The bytes depend on numpy's SIMD dispatch and on OpenBLAS's kernels, so the
environment key holds the numpy version, the SIMD extensions numpy found on
the CPU, and the core type of the OpenBLAS that numpy bundles.
``test_golden.py`` compares bytes where the key matches and values, per
column, elsewhere.

A change that moves the bytes on purpose regenerates the data, from the
root of the repository::

    PYTHONPATH=src python tests/golden.py

and states the move per column in CHANGES.md.  To see those moves first,
without writing anything::

    PYTHONPATH=src python tests/golden.py --moves

reruns both configurations in a temporary directory and prints, for each
artifact, how far each column moved from the committed data (``moves``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

DATA = Path(__file__).with_name("data")
ARTIFACTS = DATA / "readme"
MANIFEST = DATA / "readme.json"

# the README's example configuration; fit reads the trace that simulate writes
CONFIG = {
    "params": {"rho": 1.0, "mu": 1.0, "alpha": 2.0, "beta": 1.0, "gamma": 0.5, "a": 0.5},
    "kernel": {"type": "exponential", "delta": 1.0},
    "grid": {"type": "dirichlet_laplacian", "length": 3.141592653589793, "count": 200},
    "sweep": {"M": [40, 80], "tau_lo": 10.0, "tau_hi": 1000.0},
    "simulate": {"data": "marginal", "n_modes": 200, "t_lo": 1.0, "t_hi": 2000.0, "n_times": 60, "spacing": "log"},
    "fit": {"trace": "memwave-out/trace.csv", "window": [10.0, 1000.0]},
}
COMMANDS = ["validate", "spectrum", "sweep", "verdict", "simulate", "fit"]

# the README parameters through the general integrator, with the exponential
# kernel: mode 1 over 20,000 steps, sampled every 100th
GENERAL_CONFIG = {
    **{key: CONFIG[key] for key in ("params", "kernel", "grid")},
    "simulate": {"integrator": "general", "k": 1, "t_hi": 20.0, "dt": 1e-3, "sample_every": 100},
}
GENERAL_COMMANDS = ["simulate"]
GENERAL_ARTIFACTS = DATA / "general"
GENERAL_MANIFEST = DATA / "general.json"


def environment() -> dict:
    """The numpy version, the SIMD extensions numpy dispatches to on this
    CPU, and the core type of numpy's bundled OpenBLAS (``None`` where there
    is no such library)."""
    core = None
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except TypeError:  # numpy before 1.26 prints its configuration only
        simd = None
    return {"numpy": np.__version__, "simd_found": simd, "openblas_core": core}


def run_commands(workdir: Path, config: dict = CONFIG, commands: list[str] = COMMANDS) -> dict[str, bytes]:
    """Run ``commands`` on ``config`` in process, from ``workdir``, and
    return the bytes of each artifact by name; a command that exits nonzero
    raises ``RuntimeError``."""
    from memwave.cli import main

    (workdir / "cfg.json").write_text(json.dumps(config))
    before = Path.cwd()
    os.chdir(workdir)
    try:
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                code = main([command, "--config", "cfg.json", "--out", "memwave-out"])
            if code != 0:
                raise RuntimeError(f"{command} exited {code}: {printed.getvalue()}")
    finally:
        os.chdir(before)
    return {path.name: path.read_bytes() for path in sorted((workdir / "memwave-out").iterdir())}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write(config: dict, commands: list[str], artifacts_dir: Path, manifest_path: Path) -> None:
    """Run ``commands`` on ``config`` and commit their artifacts to
    ``artifacts_dir`` and their manifest to ``manifest_path``."""
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run_commands(Path(tmp), config, commands)
    artifacts_dir.mkdir(parents=True, exist_ok=True)
    for stale in artifacts_dir.iterdir():
        stale.unlink()
    for name, data in artifacts.items():
        (artifacts_dir / name).write_bytes(data)
    manifest = {
        "config": config,
        "commands": commands,
        "environment": environment(),
        "sha256": {name: sha256(data) for name, data in artifacts.items()},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(artifacts)} artifacts to {artifacts_dir}, environment {manifest['environment']}")


def _csv_columns(data: bytes) -> tuple[dict[str, list[str]], int]:
    """The cells of each column of a CSV by header name, and the row count."""
    head, *rows = csv.reader(io.StringIO(data.decode()))
    return {key: [row[i] for row in rows] for i, key in enumerate(head)}, len(rows)


def _json_leaves(node, path=""):
    """``(path, value)`` of every leaf of a JSON document."""
    if isinstance(node, dict):
        for key in node:
            yield from _json_leaves(node[key], f"{path}.{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _json_leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def moves(name: str, got: bytes, expected: bytes) -> dict[str, float]:
    """How far each part of the artifact ``name`` moved from ``expected``: a
    CSV column's largest change over its largest magnitude, a JSON number's
    change over the largest magnitude of a number in the document (its
    numbers are one column), and ``inf`` for a removed (``-name``) or added
    (``+name``) CSV column, a reordered header (``order``), a row count
    (``shape``), other value or text that differs.  The columns on both sides
    are compared by value whatever else differs, unless the row counts do.
    Unchanged parts are left out."""
    out = {}
    if name.endswith(".csv"):
        (columns, n_rows), (want_columns, want_rows) = _csv_columns(got), _csv_columns(expected)
        out.update({f"-{key}": math.inf for key in want_columns if key not in columns})
        out.update({f"+{key}": math.inf for key in columns if key not in want_columns})
        shared = [key for key in columns if key in want_columns]
        if shared != [key for key in want_columns if key in columns]:
            out["order"] = math.inf
        if n_rows != want_rows:
            out["shape"] = math.inf
            return out
        for key in shared:
            column, want = columns[key], want_columns[key]
            try:
                x, y = np.array(column, dtype=float), np.array(want, dtype=float)
            except ValueError:
                if column != want:
                    out[key] = math.inf
                continue
            if not np.array_equal(np.isnan(x), np.isnan(y)):
                out[key] = math.inf
                continue
            change = np.max(np.abs(x - y), initial=0.0, where=~np.isnan(y))
            if change:
                out[key] = change / np.max(np.abs(y), initial=0.0, where=~np.isnan(y))
    elif name.endswith(".json"):
        leaves, want_leaves = dict(_json_leaves(json.loads(got))), dict(_json_leaves(json.loads(expected)))
        if leaves.keys() != want_leaves.keys():
            return {"keys": math.inf}
        scale = max((abs(v) for v in want_leaves.values() if _number(v)), default=0.0)
        for key, value in leaves.items():
            want = want_leaves[key]
            if value != want:
                out[key] = abs(value - want) / scale if _number(value) and _number(want) else math.inf
    elif got != expected:
        out["text"] = math.inf
    return out


def print_moves(config: dict, commands: list[str], artifacts_dir: Path) -> None:
    """Run ``commands`` on ``config`` in a temporary directory and print the
    ``moves`` of each artifact against the one committed in
    ``artifacts_dir``; an artifact on one side only is named as such."""
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run_commands(Path(tmp), config, commands)
    committed = {path.name: path.read_bytes() for path in artifacts_dir.iterdir()}
    for name in sorted(artifacts.keys() | committed.keys()):
        if name not in committed or name not in artifacts:
            print(f"{artifacts_dir.name}/{name}: {'new' if name in artifacts else 'gone'}")
            continue
        moved = moves(name, artifacts[name], committed[name])
        same = "bytes unchanged" if artifacts[name] == committed[name] else "values unchanged, bytes moved"
        print(f"{artifacts_dir.name}/{name}: " + (", ".join(f"{key} {m:.2g}" for key, m in moved.items()) or same))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--moves", action="store_true", help="print the moves against the committed data; write nothing")
    if parser.parse_args(argv).moves:
        print(f"environment {environment()}, committed {json.loads(MANIFEST.read_text())['environment']}")
        print_moves(CONFIG, COMMANDS, ARTIFACTS)
        print_moves(GENERAL_CONFIG, GENERAL_COMMANDS, GENERAL_ARTIFACTS)
        return 0
    write(CONFIG, COMMANDS, ARTIFACTS, MANIFEST)
    write(GENERAL_CONFIG, GENERAL_COMMANDS, GENERAL_ARTIFACTS, GENERAL_MANIFEST)
    return 0


if __name__ == "__main__":
    sys.exit(main())
