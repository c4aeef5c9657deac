"""JSON run configuration: key checks and object construction.

``TABLE`` holds every key a config may have and the rule its value must
meet, so unknown keys anywhere are rejected before any computation starts.
All reals are IEEE doubles, and every number in the config must be finite.
A rejection names the dotted key at fault.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
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
    """Configuration file failed its key checks or construction."""


_VIOLATION = "config schema violation: "


def _fail(place: str, value, wanted: str):
    raise ConfigError(f"{_VIOLATION}{place} holds {value!r}, not {wanted}")


def _finite(x) -> bool:
    # json.loads yields int or float for a number (type, not isinstance: a
    # bool is no number), and NaN, Infinity and 1e400 as non-finite floats
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _floats(items: list) -> np.ndarray | None:
    """``items`` as one float array, or None unless each is a finite number."""
    if not set(map(type, items)) <= {int, float}:
        return None
    try:
        values = np.asarray(items, dtype=float)
    except OverflowError:  # an integer beyond the double range
        return None
    return values if np.isfinite(values).all() else None


class _Number:
    """Rule: a finite number ``x`` with ``test(x)`` true, and an ``int`` if
    ``integer``, ``wanted`` in words.  ``test`` takes a float, or a float
    array to check all items of an array."""

    def __init__(self, wanted: str = "a finite number", test: Callable | None = None, integer: bool = False):
        self.wanted, self.test, self.integer = wanted, test, integer

    def __call__(self, x, place: str):
        if not _finite(x):
            _fail(place, x, "a finite number" if type(x) in (int, float) else self.wanted)
        if (self.integer and type(x) is not int) or (self.test is not None and not self.test(float(x))):
            _fail(place, x, self.wanted)
        return x


def _integer(least: int) -> _Number:
    # an int, not an integral float such as 1.0 (which JSON Schema calls an
    # integer): the commands use these keys as counts and indices
    return _Number(f"an integer >= {least}", lambda x: x >= least, integer=True)


def _array(least: int, most: float = np.inf, item: _Number = _Number(), unique: bool = False) -> Callable:
    """Rule: an array of ``least`` to ``most`` finite numbers, each meeting
    ``item`` and, if ``unique``, no two equal; checked as one float array,
    which the rule returns."""

    def rule(node, place: str) -> np.ndarray:
        if not isinstance(node, list):
            _fail(place, node, "an array")
        if not least <= len(node) <= most:
            count = least if most == least else f"at least {least}"
            raise ConfigError(f"{_VIOLATION}{place} has length {len(node)}, not {count}")
        values = _floats(node)
        if values is None:  # the item rule rejects the first item that is no finite number
            item(next(x for x in node if not _finite(x)), place)
        if item.integer:
            for x in node:
                if type(x) is not int:
                    _fail(place, x, item.wanted)
        if item.test is not None:
            ok = item.test(values)
            if not ok.all():
                _fail(place, node[int(np.argmin(ok))], item.wanted)
        if unique and len(set(node)) < len(node):
            twice = next(x for i, x in enumerate(node) if x in node[:i])
            raise ConfigError(f"{_VIOLATION}{place} holds {twice!r} more than once")
        return values

    return rule


def _string(node, place: str) -> str:
    if not isinstance(node, str):
        _fail(place, node, "a string")
    return node


def _choice(*names: str) -> Callable:
    def rule(node, place: str) -> str:
        if node not in names:
            _fail(place, node, "one of " + ", ".join(map(repr, names)))
        return node

    return rule


_POSITIVE = _Number("a number > 0", lambda x: x > 0)

# section -> {key: rule}; kernel and grid hold one such table per value of
# their "type".  Every key of a required section is required, and no key of
# the other sections.
TABLE = {
    "params": {
        **dict.fromkeys(("rho", "mu", "alpha", "beta", "gamma"), _POSITIVE),
        "a": _Number("a number >= 0 and < 1", lambda x: (x >= 0) & (x < 1)),
    },
    "kernel": {
        "exponential": {"delta": _POSITIVE},
        "tabulated": {"s": _array(3), "g": _array(3), "k0": _POSITIVE, "k1": _POSITIVE},
    },
    "grid": {
        "dirichlet_laplacian": {"length": _POSITIVE, "count": _integer(1)},
        "explicit": {"xi": _array(1)},
    },
    "spectrum": {"modes": _integer(1)},
    "sweep": {
        "M": _array(1, item=_integer(1), unique=True),
        "tau_lo": _POSITIVE,
        "tau_hi": _POSITIVE,
        "per_decade": _integer(2),
        "resonances_per_branch": _integer(0),
    },
    "simulate": {
        "data": _choice("single", "marginal"),
        "k": _integer(1),
        "n_modes": _integer(1),
        "v0": _Number(),
        "integrator": _choice("exact", "general"),
        "t_lo": _Number("a number >= 0", lambda x: x >= 0),
        "t_hi": _POSITIVE,
        "n_times": _integer(3),
        "spacing": _choice("log", "linear"),
        "dt": _POSITIVE,
        "sample_every": _integer(1),
    },
    "fit": {"trace": _string, "window": _array(2, 2)},
    "verdict": {"xi_probes": _array(2, item=_POSITIVE)},
}
_REQUIRED = ("params", "kernel", "grid")


def _object(node, place: str, rules: dict, required) -> dict:
    """Check that ``node`` is an object holding each key of ``required`` and
    no key outside ``rules``, and each value against the rule of its key;
    return the values as their rules return them."""
    if not isinstance(node, dict):
        _fail(place or "the config", node, "an object")
    at = f"{place}." if place else ""
    for key in required:
        if key not in node:
            raise ConfigError(f"{_VIOLATION}{at}{key} is missing")
    checked = {}
    for key, value in node.items():
        if key not in rules:
            raise ConfigError(f"{_VIOLATION}{at}{key} is not a known key")
        checked[key] = rules[key](value, at + key)
    return checked


def _section(node, name: str) -> dict:
    """Check section ``name`` of the config, kernel and grid by the table of
    their ``type``."""
    rules = TABLE[name]
    if name in ("kernel", "grid"):
        kind = _choice(*rules)
        if isinstance(node, dict) and "type" in node:
            kind(node["type"], f"{name}.type")
            rules = {"type": kind, **rules[node["type"]]}
        else:
            rules = {"type": kind}
    return _object(node, name, rules, rules if name in _REQUIRED else ())


def _check(raw) -> dict:
    """Raise ``ConfigError`` at the first value of ``raw`` that breaks its
    rule in ``TABLE``, naming its dotted key; return ``raw`` with each array
    as the float array it was checked as."""
    return _object(raw, "", {"out": _string, **dict.fromkeys(TABLE, _section)}, _REQUIRED)


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    kernel: Kernel
    grid: ModeGrid
    out: str | None = None
    options: dict = field(default_factory=dict)


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    checked = _check(raw)

    try:
        params = ModelParams(**raw["params"])

        kcfg = checked["kernel"]
        if kcfg["type"] == "exponential":
            kernel: Kernel = ExponentialKernel(delta=kcfg["delta"])
        else:
            kernel = TabulatedKernel(s=kcfg["s"], g_values=kcfg["g"], k0=kcfg["k0"], k1=kcfg["k1"])

        gcfg = checked["grid"]
        if gcfg["type"] == "dirichlet_laplacian":
            grid = ModeGrid.dirichlet(gcfg["length"], gcfg["count"])
        else:
            grid = ModeGrid(gcfg["xi"])
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


__all__ = ["TABLE", "ConfigError", "RunConfig", "load_config"]
