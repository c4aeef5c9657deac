"""JSON run configuration: schema validation and object construction.

The schema is strict: unknown keys anywhere are rejected before any
computation starts.  All reals are IEEE doubles, and every number in the
config must be finite.  ``SCHEMA`` is checked by a small interpreter of the
keywords it uses; jsonschema, slow to import, is loaded only to word a
rejection.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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


def _is_number(x) -> bool:
    # json.loads yields int or float for numbers; bool subclasses int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# jsonschema's type rules: a bool is no number, and 1.0 is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}

# keyword -> test(value, instance, schema), true when the instance satisfies
# the keyword; as in jsonschema a keyword passes an instance of a type it does
# not constrain, and a bound fails only when its comparison holds, so NaN
# passes every bound.  const and enum values in SCHEMA are strings, for which
# == is jsonschema's equality.
_KEYWORDS = {
    "type": lambda t, x, s: _TYPES[t](x),
    "required": lambda keys, x, s: not isinstance(x, dict) or all(k in x for k in keys),
    "properties": lambda props, x, s: (
        not isinstance(x, dict) or all(_accepts(x[k], sub) for k, sub in props.items() if k in x)
    ),
    "additionalProperties": lambda sub, x, s: (
        not isinstance(x, dict) or all(_accepts(x[k], sub) for k in x if k not in s.get("properties", {}))
    ),
    "items": lambda sub, x, s: not isinstance(x, list) or all(_accepts(item, sub) for item in x),
    "oneOf": lambda subs, x, s: sum(_accepts(x, sub) for sub in subs) == 1,
    "const": lambda c, x, s: x == c,
    "enum": lambda values, x, s: x in values,
    "minimum": lambda m, x, s: not (_is_number(x) and x < m),
    "exclusiveMinimum": lambda m, x, s: not (_is_number(x) and x <= m),
    "exclusiveMaximum": lambda m, x, s: not (_is_number(x) and x >= m),
    "minItems": lambda n, x, s: not isinstance(x, list) or len(x) >= n,
    "maxItems": lambda n, x, s: not isinstance(x, list) or len(x) <= n,
}


def _accepts(instance, schema) -> bool:
    """Whether ``instance`` is valid under ``schema`` (a dict of the keywords
    in ``_KEYWORDS``, or a boolean schema), as jsonschema would decide."""
    if isinstance(schema, bool):
        return schema
    return all(_KEYWORDS[key](value, instance, schema) for key, value in schema.items())


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    kernel: Kernel
    grid: ModeGrid
    out: str | None = None
    options: dict = field(default_factory=dict)


def _finite_numbers(values: list) -> bool:
    """Whether every item of ``values`` is a finite number, checked as one
    array: ``type``, not ``isinstance``, so a ``bool`` counts as no number."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return bool(np.isfinite(np.asarray(values, dtype=float)).all())
    except OverflowError:  # an integer beyond the double range
        return False


def _check_finite(node, place: str = "") -> None:
    """Require every number in the config, and every item of its arrays, to
    be a finite number; ``place`` is the dotted key of ``node``.

    ``SCHEMA`` puts bounds on numbers but, as jsonschema, lets NaN pass them,
    and it gives the sample arrays (kernel ``s`` and ``g``, grid ``xi``), which
    can hold tens of thousands of items, only a type and a length.  Every
    array of the config holds numbers, so an array is checked as one numpy
    array, and walked item by item only to word a rejection.  Python's
    ``json`` reads ``NaN``, ``Infinity`` and ``1e400`` as non-finite floats,
    and an integer beyond the double range does not convert.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{place}.{key}" if place else key)
    elif isinstance(node, list):
        if _finite_numbers(node):
            return
        for item in node:
            if type(item) not in (int, float):
                raise ConfigError(f"config schema violation: {item!r} is not of type 'number'")
            _check_finite(item, place)
    elif _is_number(node) and not abs(node) <= sys.float_info.max:
        raise ConfigError(f"config schema violation: {place} holds {node!r}, not a finite number")


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not _accepts(raw, SCHEMA):
        from jsonschema.exceptions import best_match
        from jsonschema.validators import validator_for

        error = best_match(validator_for(SCHEMA)(SCHEMA).iter_errors(raw))
        raise ConfigError(f"config schema violation: {error.message}") from error
    _check_finite(raw)

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
