"""Output checks, computed apart from memwave (numpy and scipy only).

Each check tests the CLI's artifacts against an independent computation or
against a property the method must have; none compares against a stored copy
of earlier output.  Every check returns a list of failure messages (empty when
the outputs are correct).

The model is re-derived here from the equations of motion.  With the ansatz
``exp(lam*t)`` on one mode of eigenvalue ``xi`` and ``g(s) = exp(-delta*s)``:

    (lam + delta)(lam^4 + S*xi*lam^2 + P*xi^2) - (xi^a/rho)(lam^2 + beta*xi/mu) = 0

with ``S = alpha/rho + beta/mu`` and ``P = (alpha - gamma^2*beta)*beta/(rho*mu)``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm


def malformed_cells(path: Path) -> int:
    """Cells of a CSV artifact, header excluded, that are not plain numbers."""
    bad = 0
    with open(path) as fh:
        next(fh)
        for line in fh:
            for cell in line.rstrip("\n").split(","):
                try:
                    float(cell)
                except ValueError:
                    bad += 1
    return bad


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def quintic(xi: float, p: dict, delta: float) -> np.ndarray:
    """Coefficients (descending degree) of one mode's characteristic quintic."""
    s_sum = p["alpha"] / p["rho"] + p["beta"] / p["mu"]
    p_prod = (p["alpha"] - p["gamma"] ** 2 * p["beta"]) * p["beta"] / (p["rho"] * p["mu"])
    c = np.polymul([1.0, delta], [1.0, 0.0, s_sum * xi, 0.0, p_prod * xi**2])
    c[3] -= xi ** p["a"] / p["rho"]
    c[5] -= xi ** p["a"] * p["beta"] * xi / (p["rho"] * p["mu"])
    return c


def _xi_dirichlet(k, grid: dict):
    return (np.asarray(k, dtype=float) * math.pi / grid["length"]) ** 2


# ---------------------------------------------------------------------------
# sweep-2k
# ---------------------------------------------------------------------------


def decade_suprema(tau: np.ndarray, scaled: np.ndarray, tau_lo: float, tau_hi: float) -> list[float]:
    n_dec = round(math.log10(tau_hi / tau_lo))
    edges = tau_lo * 10.0 ** np.arange(n_dec + 1)
    sups = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (tau >= lo * (1 - 1e-9)) & (tau <= hi * (1 + 1e-9))
        if inside.any():
            sups.append(float(scaled[inside].max()))
    return sups


def check_sweep(cfg: dict, out: Path) -> list[str]:
    p = cfg["params"]
    delta = cfg["kernel"]["delta"]
    opts = cfg["sweep"]
    omega = 2.0 - 2.0 * p["a"]
    errors = []
    sups = {}
    for m_nodes in opts["M"]:
        rows = read_csv(out / f"sweep_M{m_nodes}.csv")
        tau, norm = rows["tau"], rows["norm"]
        scaled = tau ** (-omega) * norm
        if np.max(np.abs(scaled - rows["scaled"]) / scaled) > 1e-12:
            errors.append(f"M={m_nodes}: scaled column is not tau^-omega * norm")
        reso = rows["resonance"] == 1
        if not reso.any():
            errors.append(f"M={m_nodes}: no resonance samples")
        for i in np.flatnonzero(reso):
            xi = _xi_dirichlet(rows["argmax_mode"][i], cfg["grid"])
            roots = np.roots(quintic(xi, p, delta))
            product = norm[i] * float(np.min(np.abs(1j * tau[i] - roots)))
            if not 0.99 <= product <= 1.05:
                errors.append(f"M={m_nodes}: tau={tau[i]:.6g} norm*dist={product:.4f} outside [0.99, 1.05]")
        decades = decade_suprema(tau, scaled, opts["tau_lo"], opts["tau_hi"])
        if len(decades) < 2 or max(decades) / min(decades) > 3.0:
            errors.append(f"M={m_nodes}: per-decade suprema {decades} spread beyond x3")
        sups[m_nodes] = float(scaled.max())
    values = list(sups.values())
    if (max(values) - min(values)) / max(values) > 0.01:
        errors.append(f"suprema over M disagree beyond 1%: {sups}")
    return errors


# ---------------------------------------------------------------------------
# decay-trace
# ---------------------------------------------------------------------------


def _non_increasing(total: np.ndarray) -> bool:
    return bool(np.all(np.diff(total) <= 1e-9 * total[0]))


def exact_single_mode_energy(p: dict, delta: float, xi: float, v0: float, t_end: float, sample_dt: float):
    """Energy of one mode with zero history at ``0, sample_dt, ..., t_end``.

    The state ``(v, u, p, q, I)`` with ``I = int exp(-delta*s) v(t-s) ds``
    evolves by the matrix exponential of its 5x5 generator on a grid 20 times
    finer than the samples; the memory part
    ``xi^a int_0^t exp(-delta*s)|v(t)-v(t-s)|^2 ds`` is integrated by
    composite Simpson on that grid, and the part beyond ``s = t`` is closed
    form.
    """
    a = p["a"]
    gen = np.array(
        [
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [-p["alpha"] * xi / p["rho"], 0.0, p["gamma"] * p["beta"] * xi / p["rho"], 0.0, xi**a / p["rho"]],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [p["gamma"] * p["beta"] * xi / p["mu"], 0.0, -p["beta"] * xi / p["mu"], 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, -delta],
        ]
    )
    sub = 20
    h = sample_dt / sub
    n = sub * int(round(t_end / sample_dt))
    step = expm(gen * h)
    x = np.empty((n + 1, 5))
    x[0] = [v0, 0.0, 0.0, 0.0, 0.0]
    for j in range(n):
        x[j + 1] = step @ x[j]
    idx = np.arange(0, n + 1, sub)
    v, u, pp, q = x[idx, 0], x[idx, 1], x[idx, 2], x[idx, 3]
    alpha1 = p["alpha"] - p["gamma"] ** 2 * p["beta"]
    mechanical = (
        (alpha1 * xi - xi**a / delta) * v**2
        + p["rho"] * u**2
        + p["beta"] * xi * (p["gamma"] * v - pp) ** 2
        + p["mu"] * q**2
    )
    weight = np.exp(-delta * h * np.arange(n + 1))
    recent = np.zeros(idx.size)
    for out_i, i in enumerate(idx[1:], start=1):
        f = weight[: i + 1] * (x[i, 0] - x[i::-1, 0]) ** 2
        recent[out_i] = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    remote = v**2 * np.exp(-delta * h * idx) / delta
    return h * idx, mechanical + xi**a * (recent + remote)


def check_decay(exact_cfg: dict, general_cfg: dict, run_dir: Path) -> list[str]:
    p = exact_cfg["params"]
    delta = exact_cfg["kernel"]["delta"]
    errors = []
    exact = read_csv(run_dir / "exact" / "trace.csv")
    general = read_csv(run_dir / "general" / "trace.csv")
    if exact["t"].size != exact_cfg["simulate"]["n_times"]:
        errors.append(f"exact trace has {exact['t'].size} samples")
    for label, trace in (("exact", exact), ("general", general)):
        if not _non_increasing(trace["total"]):
            errors.append(f"{label} trace energy increases")

    target = -1.0 / (2.0 - 2.0 * p["a"])
    fit = json.loads((run_dir / "fit" / "fit.json").read_text())
    lo, hi = exact_cfg["fit"]["window"]
    inside = (exact["t"] >= lo) & (exact["t"] <= hi)
    slope = np.polyfit(np.log(exact["t"][inside]), 0.5 * np.log(exact["total"][inside]), 1)[0]
    if abs(slope - fit["slope"]) > 1e-9:
        errors.append(f"fit.json slope {fit['slope']} differs from the trace's least-squares slope {slope}")
    if abs(fit["slope"] - target) > 0.1:
        errors.append(f"fitted slope {fit['slope']:.4f} not within 0.1 of {target:.4f}")

    sim = general_cfg["simulate"]
    g_delta = general_cfg["kernel"]["k1"]
    xi = _xi_dirichlet(sim["k"], general_cfg["grid"])
    t_ref, e_ref = exact_single_mode_energy(
        general_cfg["params"], g_delta, float(xi), sim["v0"], sim["t_hi"], sim["dt"] * sim["sample_every"]
    )
    if general["t"].size != e_ref.size or np.max(np.abs(general["t"] - t_ref)) > 1e-9:
        errors.append("general trace sample times differ from k*dt*sample_every")
    else:
        rel = float(np.max(np.abs(general["total"] - e_ref) / e_ref))
        if rel > 1e-4:
            errors.append(f"general-kernel trace differs from the exact solution by {rel:.3e} > 1e-4")
    return errors
