"""Workload inputs: memwave CLI configs generated from a seed.

Seed 0 gives the reference inputs: the README parameter set (rho = mu = beta
= 1, alpha = 2, gamma = 1/2) with the kernel ``g(s) = exp(-s)``.  Any other
seed draws the kernel rate ``delta`` uniformly from [0.96, 1.04].  ``delta``
enters every root, block and trace, but it changes neither the mode cutoff of
the sweep (which depends on the wave speeds only), nor the number of modes,
frequencies, samples or integrator steps, so the amount of work per round is
the same for every seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Tabulated-kernel resolution of the acceptance check of the general-kernel
# integrator: s = 0, 5e-4, ..., 14 (28,001 samples).
TABLE_STEP = 5e-4
TABLE_SAMPLES = 28_001


@dataclass(frozen=True)
class Command:
    """One CLI call: ``memwave <name> --config <config> --out <out>``."""

    name: str
    config: str
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    delta: float
    commands: tuple[Command, ...]
    configs: dict[str, dict]


def kernel_rate(seed: int) -> float:
    if seed == 0:
        return 1.0
    return 1.0 + random.Random(seed).uniform(-0.04, 0.04)


def reference_params() -> dict:
    return {"rho": 1.0, "mu": 1.0, "alpha": 2.0, "beta": 1.0, "gamma": 0.5, "a": 0.5}


def dirichlet(count: int) -> dict:
    # xi_k = k^2
    return {"type": "dirichlet_laplacian", "length": math.pi, "count": count}


def table_s() -> list[float]:
    return [TABLE_STEP * i for i in range(TABLE_SAMPLES)]


def _sweep(delta: float, run_dir: Path) -> Workload:
    cfg = {
        "params": reference_params(),
        "kernel": {"type": "exponential", "delta": delta},
        "grid": dirichlet(2000),
        "sweep": {
            "M": [40, 80],
            "tau_lo": 10.0,
            "tau_hi": 1000.0,
            "per_decade": 2,
            "resonances_per_branch": 2,
        },
    }
    return Workload(
        "sweep-2k",
        delta,
        (Command("sweep", str(run_dir / "sweep.json"), str(run_dir / "sweep")),),
        {"sweep.json": cfg},
    )


def _decay(delta: float, run_dir: Path) -> Workload:
    exact = {
        "params": reference_params(),
        "kernel": {"type": "exponential", "delta": delta},
        "grid": dirichlet(2000),
        "simulate": {
            "data": "marginal",
            "n_modes": 2000,
            "t_lo": 1.0,
            "t_hi": 2000.0,
            "n_times": 200,
            "spacing": "log",
        },
        "fit": {"trace": str(run_dir / "exact" / "trace.csv"), "window": [10.0, 1000.0]},
    }
    s = table_s()
    general = {
        "params": reference_params(),
        "kernel": {
            "type": "tabulated",
            "s": s,
            "g": [math.exp(-delta * x) for x in s],
            "k0": delta,
            "k1": delta,
        },
        "grid": dirichlet(3),
        "simulate": {
            "integrator": "general",
            "k": 1,
            "v0": 1.0,
            "t_hi": 20.0,
            "dt": 1e-3,
            "sample_every": 100,
        },
    }
    commands = (
        Command("simulate", str(run_dir / "exact.json"), str(run_dir / "exact")),
        Command("fit", str(run_dir / "exact.json"), str(run_dir / "fit")),
        Command("simulate", str(run_dir / "general.json"), str(run_dir / "general")),
    )
    return Workload("decay-trace", delta, commands, {"exact.json": exact, "general.json": general})


BY_NAME = {
    "sweep-2k": _sweep,
    "decay-trace": _decay,
}


def build(name: str, seed: int, run_dir: Path) -> Workload:
    """Generate the workload's configs under ``run_dir`` and return its plan."""
    workload = BY_NAME[name](kernel_rate(seed), run_dir)
    for file_name, cfg in workload.configs.items():
        (run_dir / file_name).write_text(json.dumps(cfg))
    return workload
