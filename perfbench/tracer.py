"""Spans around memwave's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function wherever a memwave module
binds it (``from .spectral import quintic_roots`` makes a second binding in
``resolvent`` and ``timedomain``), the methods on their classes, and every
command in ``cli.COMMANDS``.  ``uninstall`` puts the originals back, so one
process can alternate untraced and traced rounds.

A span is ``(name, start, end, parent, round, size)``: ``parent`` is the
index of the enclosing span (-1 for a root), ``round`` identifies the request
the span belongs to, and ``size`` is a work count for the span (block order,
bytes, samples or steps; 0 when the name has none).  Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


# (module, attribute, span name, size of the work as a function of
# (args, kwargs, result)); every entry of cli.COMMANDS is wrapped as well
TARGETS = [
    ("config", "load_config", "config.load_config", None),
    ("spectral", "quintic_roots", "spectral.quintic_roots", None),
    ("resolvent", "ModeBlock.resolvent_norm", "resolvent.sigma_min", lambda a, k, r: a[0].M),
    ("resolvent", "ResolventSweeper.norm_at", "resolvent.norm_at", None),
    ("resolvent", "mode_block", "resolvent.mode_block", lambda a, k, r: r.matrix.nbytes),
    ("resolvent", "laguerre_grid", "resolvent.laguerre_grid", None),
    ("resolvent", "resonance_frequencies", "resolvent.resonance_frequencies", None),
    ("resolvent", "scaled_sweep", "resolvent.scaled_sweep", None),
    ("timedomain", "exact_modal_evolve", "timedomain.exact_modal_evolve", None),
    (
        "timedomain",
        "memory_energy_closed_form",
        "timedomain.memory_energy_closed_form",
        lambda a, k, r: getattr(r, "size", 1),
    ),
    ("timedomain", "energy_trace", "timedomain.energy_trace", None),
    (
        "timedomain",
        "evolve_general_kernel",
        "timedomain.evolve_general_kernel",
        lambda a, k, r: int(round(k["T"] / k["dt"])),
    ),
    ("analysis", "fit_decay_exponent", "analysis.fit_decay_exponent", None),
]


def _artifact_bytes(args, kwargs, result) -> int:
    # cmd_<name>(cfg, out, threads): the bytes now in the command's output directory
    with os.scandir(args[1]) as it:
        return sum(entry.stat().st_size for entry in it if entry.is_file())


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.round = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name: str, size):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = size(args, kwargs, result) if size is not None and result is not None else 0
                spans[idx] = (name, start, end, parent, self.round, n)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "memwave" or n.startswith("memwave.")]
        commands = sys.modules["memwave.cli"].COMMANDS
        for mod_name, attr, span_name, size in TARGETS:
            owner = sys.modules[f"memwave.{mod_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, method, self._wrap(getattr(cls, method), span_name, size))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span_name, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
        for key, command in list(commands.items()):
            self._replace(commands, key, self._wrap(command, f"cli.{key}", _artifact_bytes))

    def _replace(self, owner, key: str, value) -> None:
        """Rebind ``key`` on a module or class, or in a dict, and remember the original."""
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, rnd, n in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "round": rnd, "n": n}
                    )
                    + "\n"
                )


def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def per_layer(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round from a span list.

    Times are summed over all spans of a name and divided by the number of
    traced rounds; a self time subtracts the direct children's durations.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += dur[i]

    def pick(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(dur[i] for i in pick(name)) / rounds

    def calls(name):
        return len(pick(name)) / rounds

    def self_time(idx):
        return sum(dur[i] - child[i] for i in idx) / rounds

    def per_call_us(idx):
        return 1e6 * sum(dur[i] for i in idx) / len(idx) if idx else 0.0

    svd = pick("resolvent.sigma_min")
    commands = [i for i, s in enumerate(spans) if s["name"].startswith("cli.")]
    general = pick("timedomain.evolve_general_kernel")
    steps = sum(spans[i]["n"] for i in general)
    return {
        "cli.self_s": self_time(commands),
        "cli.artifact_bytes": sum(spans[i]["n"] for i in commands) / rounds,
        "config.load_config_s": total("config.load_config"),
        "config.load_config.calls": calls("config.load_config"),
        "spectral.quintic_roots.calls": calls("spectral.quintic_roots"),
        "spectral.quintic_roots_s": total("spectral.quintic_roots"),
        "spectral.quintic_roots_us_per_mode": per_call_us(pick("spectral.quintic_roots")),
        "resolvent.sigma_min.calls": calls("resolvent.sigma_min"),
        "resolvent.sigma_min_s": total("resolvent.sigma_min"),
        "resolvent.sigma_min_us_M40": per_call_us([i for i in svd if spans[i]["n"] == 40]),
        "resolvent.sigma_min_us_M80": per_call_us([i for i in svd if spans[i]["n"] == 80]),
        "resolvent.norm_at.calls": calls("resolvent.norm_at"),
        "resolvent.useful_svd_ratio": len(pick("resolvent.norm_at")) / len(svd) if svd else 0.0,
        "resolvent.mode_block.calls": calls("resolvent.mode_block"),
        "resolvent.mode_block_s": total("resolvent.mode_block"),
        "resolvent.laguerre_grid_s": total("resolvent.laguerre_grid"),
        "resolvent.resonance_frequencies_s": total("resolvent.resonance_frequencies"),
        "resolvent.block_cache_mb": sum(spans[i]["n"] for i in pick("resolvent.mode_block")) / 1e6 / rounds,
        "timedomain.exact_modal_evolve.calls": calls("timedomain.exact_modal_evolve"),
        "timedomain.exact_modal_evolve_s": total("timedomain.exact_modal_evolve"),
        "timedomain.memory_energy_closed_form_s": total("timedomain.memory_energy_closed_form"),
        "timedomain.memory_energy.mode_times": sum(
            spans[i]["n"] for i in pick("timedomain.memory_energy_closed_form")
        )
        / rounds,
        "timedomain.energy_trace_self_s": self_time(pick("timedomain.energy_trace")),
        "timedomain.evolve_general_kernel_s": total("timedomain.evolve_general_kernel"),
        "timedomain.general_steps": steps / rounds,
        "timedomain.general_step_us": 1e6 * sum(dur[i] for i in general) / steps if steps else 0.0,
        "analysis.fit_decay_exponent_s": total("analysis.fit_decay_exponent"),
    }
