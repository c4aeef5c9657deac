"""The README example configuration's artifacts, committed under
``tests/data/readme`` with a manifest (``tests/data/readme.json``): the
configuration, the commands in the order they run, the SHA-256 of every
artifact, and the environment that wrote them.

The bytes depend on numpy's SIMD dispatch and on OpenBLAS's kernels, so the
environment key holds the numpy version, the SIMD extensions numpy found on
the CPU, and the core type of the OpenBLAS that numpy bundles.
``test_golden.py`` compares bytes where the key matches and values, per
column, elsewhere.

A change that moves the bytes on purpose regenerates the data, from the
root of the repository::

    PYTHONPATH=src python tests/golden.py

and states the move per column in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
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


def run_commands(workdir: Path) -> dict[str, bytes]:
    """Run every command on ``CONFIG`` in process, from ``workdir``, and
    return the bytes of each artifact by name; a command that exits nonzero
    raises ``RuntimeError``."""
    from memwave.cli import main

    (workdir / "cfg.json").write_text(json.dumps(CONFIG))
    before = Path.cwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                code = main([command, "--config", "cfg.json", "--out", "memwave-out"])
            if code != 0:
                raise RuntimeError(f"{command} exited {code}: {printed.getvalue()}")
    finally:
        os.chdir(before)
    return {path.name: path.read_bytes() for path in sorted((workdir / "memwave-out").iterdir())}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run_commands(Path(tmp))
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    for stale in ARTIFACTS.iterdir():
        stale.unlink()
    for name, data in artifacts.items():
        (ARTIFACTS / name).write_bytes(data)
    manifest = {
        "config": CONFIG,
        "commands": COMMANDS,
        "environment": environment(),
        "sha256": {name: sha256(data) for name, data in artifacts.items()},
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(artifacts)} artifacts to {ARTIFACTS}, environment {manifest['environment']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
