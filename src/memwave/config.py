"""JSON run configuration: schema validation and object construction.

The schema is strict: unknown keys anywhere are rejected before any
computation starts.  All reals are IEEE doubles.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .model import (
    ExponentialKernel,
    InvalidModelError,
    Kernel,
    ModeGrid,
    ModelParams,
    TabulatedKernel,
)


class ConfigError(ValueError):
    """Configuration file failed schema or construction checks."""


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["params", "kernel", "grid"],
    "properties": {
        "params": {
            "type": "object",
            "additionalProperties": False,
            "required": ["rho", "mu", "alpha", "beta", "gamma", "a"],
            "properties": {
                "rho": _POSITIVE,
                "mu": _POSITIVE,
                "alpha": _POSITIVE,
                "beta": _POSITIVE,
                "gamma": _POSITIVE,
                "a": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            },
        },
        "kernel": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "delta"],
                    "properties": {
                        "type": {"const": "exponential"},
                        "delta": _POSITIVE,
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "s", "g", "k0", "k1"],
                    "properties": {
                        "type": {"const": "tabulated"},
                        "s": {"type": "array", "minItems": 3},
                        "g": {"type": "array", "minItems": 3},
                        "k0": _POSITIVE,
                        "k1": _POSITIVE,
                    },
                },
            ]
        },
        "grid": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "length", "count"],
                    "properties": {
                        "type": {"const": "dirichlet_laplacian"},
                        "length": _POSITIVE,
                        "count": {"type": "integer", "minimum": 1},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "xi"],
                    "properties": {
                        "type": {"const": "explicit"},
                        "xi": {"type": "array", "minItems": 1},
                    },
                },
            ]
        },
        "out": {"type": "string"},
        "spectrum": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"modes": {"type": "integer", "minimum": 1}},
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "M": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
                "tau_lo": _POSITIVE,
                "tau_hi": _POSITIVE,
                "per_decade": {"type": "integer", "minimum": 2},
                "resonances_per_branch": {"type": "integer", "minimum": 0},
            },
        },
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "data": {"enum": ["single", "marginal"]},
                "k": {"type": "integer", "minimum": 1},
                "n_modes": {"type": "integer", "minimum": 1},
                "v0": {"type": "number"},
                "integrator": {"enum": ["exact", "general"]},
                "t_lo": {"type": "number", "minimum": 0},
                "t_hi": _POSITIVE,
                "n_times": {"type": "integer", "minimum": 3},
                "spacing": {"enum": ["log", "linear"]},
                "dt": _POSITIVE,
                "sample_every": {"type": "integer", "minimum": 1},
            },
        },
        "fit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trace": {"type": "string"},
                "window": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        },
        "verdict": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "xi_probes": {"type": "array", "items": _POSITIVE, "minItems": 2},
            },
        },
    },
}


# built once: jsonschema.validate would re-check SCHEMA against its metaschema
# on every load; errors are ranked by the same best_match, so messages agree
_VALIDATOR = validator_for(SCHEMA)(SCHEMA)


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    kernel: Kernel
    grid: ModeGrid
    out: str | None = None
    options: dict = field(default_factory=dict)


def _check_samples(raw: dict) -> None:
    """Require every item of the sample arrays (kernel ``s`` and ``g``, grid
    ``xi``) to be a finite number.

    These arrays can hold tens of thousands of samples, and jsonschema's
    per-item validation dominated the load of a large tabulated kernel.  JSON
    numbers parse to ``int`` or ``float``, never to ``bool``.  Python's
    ``json`` reads ``NaN``, ``Infinity`` and ``1e400`` as non-finite floats,
    and an integer beyond the double range would not convert.
    """
    for section, key in (("kernel", "s"), ("kernel", "g"), ("grid", "xi")):
        for value in raw[section].get(key, ()):
            if type(value) not in (int, float):
                raise ConfigError(f"config schema violation: {value!r} is not of type 'number'")
            if not abs(value) <= sys.float_info.max:
                raise ConfigError(
                    f"config schema violation: {section}.{key} holds {value!r}, not a finite number"
                )


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    error = best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config schema violation: {error.message}") from error
    _check_samples(raw)

    try:
        params = ModelParams(**raw["params"])

        kcfg = raw["kernel"]
        if kcfg["type"] == "exponential":
            kernel: Kernel = ExponentialKernel(delta=kcfg["delta"])
        else:
            kernel = TabulatedKernel(
                s=np.asarray(kcfg["s"], dtype=float),
                g_values=np.asarray(kcfg["g"], dtype=float),
                k0=kcfg["k0"],
                k1=kcfg["k1"],
            )

        gcfg = raw["grid"]
        if gcfg["type"] == "dirichlet_laplacian":
            grid = ModeGrid.dirichlet(gcfg["length"], gcfg["count"])
        else:
            grid = ModeGrid(np.asarray(gcfg["xi"], dtype=float))
    except InvalidModelError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc

    options = {
        key: raw[key]
        for key in ("spectrum", "sweep", "simulate", "fit", "verdict")
        if key in raw
    }
    return RunConfig(
        params=params,
        kernel=kernel,
        grid=grid,
        out=raw.get("out"),
        options=options,
    )


__all__ = ["SCHEMA", "ConfigError", "RunConfig", "load_config"]
