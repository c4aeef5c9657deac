"""Command-line entry point: ``memwave <command> --config cfg.json``.

Commands: validate, spectrum, sweep, simulate, fit, verdict.  ``sweep``
samples the M-resolved resolvent norms over the grid; ``verdict`` reads the
growth exponent of the resolvent off the 4x4 Schur peaks of its ``xi``
probes, with no sweep.  Artifacts are plot-ready CSV and UTF-8 JSON written
under the output directory, JSON with no NaN.  Exit codes: 0 success, 1
computation/module error, 2 configuration error.  Errors emit a
machine-readable JSON object on stdout.  Only this module reads kernel and
grid objects: the layers below get the ``xi`` array and ``delta``.

Each command runs on one OpenBLAS thread (numpy's bundled OpenBLAS, unless
``OPENBLAS_NUM_THREADS`` is set): its small SVDs gain nothing from more, and
the sweep's bytes then do not depend on the machine's core count.  The
caller's thread count is restored on return.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, resolvent, spectral, timedomain
from .config import ConfigError, RunConfig, load_config
from .model import ExponentialKernel, InvalidModelError, coercivity_margin, require_coercive, validate_params


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS that numpy's wheel
    bundles, or ``None`` where there is no such library or it lacks the calls.
    The library is already loaded, so ``CDLL`` returns that same instance."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """One OpenBLAS thread inside the block, the caller's count after it; a
    no-op where ``OPENBLAS_NUM_THREADS`` is set or the library is absent."""
    threads = None if "OPENBLAS_NUM_THREADS" in os.environ else _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _write_csv(path: Path, columns: dict) -> None:
    """One CSV column per entry of ``columns``, all of the same length."""
    values = [np.asarray(col).tolist() for col in columns.values()]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*values))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _range(section: str, opts: dict, lo_key: str, hi_key: str, default: tuple) -> tuple:
    """The range ``(opts[lo_key], opts[hi_key])``, each end defaulting to its
    entry of ``default``; one that does not increase is a configuration error."""
    lo, hi = opts.get(lo_key, default[0]), opts.get(hi_key, default[1])
    if not lo < hi:
        raise ConfigError(f"{section}.{lo_key} = {lo!r} must be below {section}.{hi_key} = {hi!r}")
    return lo, hi


def _require_exponential(cfg: RunConfig) -> ExponentialKernel:
    if not isinstance(cfg.kernel, ExponentialKernel):
        raise InvalidModelError("this command needs the exponential kernel")
    return cfg.kernel


def _require_coercive(cfg: RunConfig) -> None:
    """Refuse a model that is not coercive; the grid's first mode decides."""
    xi = cfg.grid.xi[:1]
    require_coercive(xi, coercivity_margin(xi, cfg.params, cfg.kernel.zeta) <= 0.0)


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    report = validate_params(cfg.params, cfg.kernel, cfg.grid)
    payload = {
        "passed": report.passed,
        "kappa": report.kappa,
        "alpha1": cfg.params.alpha1,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }
    _write_json(out / "validate.json", payload)
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    return 0 if report.passed else 1


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    kernel = _require_exponential(cfg)
    n_modes = cfg.options.get("spectrum", {}).get("modes", cfg.grid.count)
    if n_modes > cfg.grid.count:
        raise InvalidModelError(f"spectrum wants {n_modes} modes but the grid has {cfg.grid.count}")
    columns = spectral.spectrum_columns(cfg.params, kernel.delta, cfg.grid.xi[:n_modes])
    _write_csv(out / "spectrum.csv", columns)
    print(f"wrote {n_modes} modes to {out / 'spectrum.csv'}")
    return 0


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    kernel = _require_exponential(cfg)
    _require_coercive(cfg)
    opts = cfg.options.get("sweep", {})
    m_list = opts.get("M", [40])
    tau_lo, tau_hi = _range("sweep", opts, "tau_lo", "tau_hi", (10.0, 1000.0))
    sweeps = resolvent.scaled_sweep(
        cfg.params,
        kernel.delta,
        cfg.grid.xi,
        M=m_list,
        tau_lo=tau_lo,
        tau_hi=tau_hi,
        per_decade=opts.get("per_decade", 64),
        resonances_per_branch=opts.get("resonances_per_branch", 16),
    )
    sups, at_resonance = {}, {}
    for m_nodes, sweep in zip(m_list, sweeps):
        columns = {
            "tau": sweep.taus,
            "norm": sweep.norms,
            "scaled": sweep.scaled,
            "argmax_mode": sweep.argmax_modes,
            "resonance": sweep.resonance_mask.astype(int),
            "M": [m_nodes] * sweep.taus.size,
        }
        _write_csv(out / f"sweep_M{m_nodes}.csv", columns)
        sups[str(m_nodes)] = sweep.sup_scaled
        at_resonance[str(m_nodes)] = sweep.sup_at_resonance
        print(
            f"M={m_nodes}: sup scaled {sweep.sup_scaled:.6g} at tau {sweep.argmax_tau:.6g} "
            f"({'resonance' if sweep.sup_at_resonance else 'grid'} sample, omega={sweep.omega:g})"
        )
    summary = {"omega": sweeps[0].omega, "sup_scaled": sups, "sup_at_resonance": at_resonance}
    if len(m_list) >= 2:
        vals = list(sups.values())
        summary["relative_spread"] = (max(vals) - min(vals)) / max(vals)
    _write_json(out / "sweep_summary.json", summary)
    return 0


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    opts = cfg.options.get("simulate", {})
    integ = opts.get("integrator", "exact")
    if integ == "general":
        t_hi, dt, every = opts.get("t_hi", 10.0), opts.get("dt", 1e-3), opts.get("sample_every", 10)
        # as the exact path's n_times >= 3: t = 0 and at least two samples after it
        n_samples = round(t_hi / dt) // every
        if n_samples < 2:
            raise ConfigError(
                f"simulate.t_hi = {t_hi!r}, simulate.dt = {dt!r} and simulate.sample_every = "
                f"{every!r} give {n_samples} samples after t = 0; need at least 2"
            )
        _require_coercive(cfg)
        trace = timedomain.evolve_general_kernel(
            cfg.grid.xi_of(opts.get("k", 1)),
            [opts.get("v0", 1.0), 0.0, 0.0, 0.0],
            cfg.params,
            cfg.kernel,
            T=t_hi,
            dt=dt,
            sample_every=every,
        )
    else:
        kernel = _require_exponential(cfg)
        t_lo, t_hi = _range("simulate", opts, "t_lo", "t_hi", (0.0, 100.0))
        log = opts.get("spacing", "linear") == "log"
        # log-spaced times start at 1e-6 at the earliest
        if log and not max(t_lo, 1e-6) < t_hi:
            raise ConfigError(f"simulate.t_hi = {t_hi!r} must be above 1e-06, where log spacing starts")
        _require_coercive(cfg)
        if opts.get("data", "single") == "marginal":
            n_modes = opts.get("n_modes", cfg.grid.count)
            if n_modes > cfg.grid.count:
                raise InvalidModelError(
                    f"simulate wants {n_modes} modes but the grid has {cfg.grid.count}"
                )
            xi = cfg.grid.xi[:n_modes]
            x0 = np.zeros((n_modes, 4))
            x0[:, 0] = timedomain.marginal_data_amplitudes(xi)
        else:
            xi = [cfg.grid.xi_of(opts.get("k", 1))]
            x0 = [[opts.get("v0", 1.0), 0.0, 0.0, 0.0]]
        trajs = timedomain.exact_modal_evolve(xi, x0, cfg.params, kernel.delta)
        n_times = opts.get("n_times", 201)
        if log:
            times = np.geomspace(max(t_lo, 1e-6), t_hi, n_times)
        else:
            times = np.linspace(t_lo, t_hi, n_times)
        trace = timedomain.energy_trace(trajs, times)
    columns = {
        "t": trace.times,
        "total": trace.total,
        "stiffness": trace.stiffness,
        "kinetic_v": trace.kinetic_v,
        "coupling": trace.coupling,
        "kinetic_p": trace.kinetic_p,
        "memory": trace.memory,
        "residual": trace.residual,
    }
    _write_csv(out / "trace.csv", columns)
    print(f"wrote {trace.times.size} samples to {out / 'trace.csv'}")
    return 0


def cmd_fit(cfg: RunConfig, out: Path) -> int:
    opts = cfg.options.get("fit", {})
    ends = dict(zip(("window[0]", "window[1]"), opts.get("window", ())))
    window = _range("fit", ends, "window[0]", "window[1]", (10.0, 1000.0))
    trace_path = opts.get("trace")
    if trace_path is None:
        raise ConfigError("fit needs fit.trace pointing at a simulate CSV")
    with open(trace_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    times = np.array([float(r["t"]) for r in rows])
    with np.errstate(invalid="ignore"):  # a negative total is a NaN norm, which the fit refuses
        norms = np.sqrt(np.array([float(r["total"]) for r in rows]))
    fit = analysis.fit_decay_exponent(times, norms, window)
    payload = {
        "window": list(fit.window),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "target_exponent": analysis.target_exponent(cfg.params.a),
    }
    _write_json(out / "fit.json", payload)
    print(
        f"slope {fit.slope:.4f} (r^2 {fit.r_squared:.6f}); "
        f"worst-case exponent {payload['target_exponent']:.4f}"
    )
    return 0


def cmd_verdict(cfg: RunConfig, out: Path) -> int:
    kernel = _require_exponential(cfg)
    # the probes need no grid; a model that is not coercive is still refused
    _require_coercive(cfg)
    xi_probes = cfg.options.get("verdict", {}).get("xi_probes", np.geomspace(9.0, 1e10, 80))
    branch = spectral.quintic_roots(xi_probes, cfg.params, kernel.delta)
    legs = analysis.optimality_check(branch, cfg.params)
    optimal = all(leg.passed for leg in legs)
    payload = {
        "verdict": optimal,
        "decay_exponent": analysis.target_exponent(cfg.params.a),
        "legs": [{"name": leg.name, "passed": leg.passed, "detail": leg.detail} for leg in legs],
    }
    _write_json(out / "verdict.json", payload)
    lines = [
        "# Decay-order verdict",
        "",
        f"Claimed norm decay for smooth data: t^({payload['decay_exponent']:.4g}).",
        f"Overall verdict: {'optimal' if optimal else 'inconclusive'}.",
        "",
    ]
    lines += [f"- **{leg.name}**: {'PASS' if leg.passed else 'FAIL'} - {leg.detail}" for leg in legs]
    lines += [
        "",
        "Peaks: bracketed by 1/|Re lam_1+| below and by the exact 4x4 Schur reduction with the continuum history"
        " above, no sweep and no M.",
    ]
    (out / "verdict.md").write_text("\n".join(lines) + "\n")
    print(f"verdict: {'optimal' if optimal else 'inconclusive'}")
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "verdict": cmd_verdict,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="memwave", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default from config or ./memwave-out)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}))
        return 2

    out = Path(args.out or cfg.out or "memwave-out")
    out.mkdir(parents=True, exist_ok=True)

    try:
        with _one_blas_thread():
            return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}))
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload))
        _write_json(out / "error.json", payload)
        return 1


if __name__ == "__main__":
    sys.exit(main())
