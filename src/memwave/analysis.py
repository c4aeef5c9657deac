"""Decay-exponent fits, the modal-superposition oracle, optimality verdict.

The worst-case decay of smooth data is algebraic with exponent
``-1/(2 - 2a)`` in the energy norm.  A fitted trace exponent is compared
against the brute-force superposition prediction rather than against the
worst-case rate directly: any fixed datum may decay faster, so the resolvent
sweep, not the trace fit, carries the optimality burden.  The verdict
combines three signatures:

* sharpness products ``|Re| * |Im|^(2(1-a))`` along both oscillatory branches
  converge to their finite nonzero limits,
* the scaled sweep ``|tau|^(-(2-2a)) * ||resolvent||`` stays bounded across
  the window,
* lowering the exponent by 0.25 makes the resonance samples grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ExponentialKernel, ModeGrid, ModelParams
from .resolvent import SweepResult
from .spectral import SpectrumBranch, sharpness_limit, sharpness_product


@dataclass(frozen=True)
class DecayFit:
    window: tuple[float, float]
    slope: float
    intercept: float
    r_squared: float


def target_exponent(a: float) -> float:
    """Worst-case norm decay exponent ``-1/(2 - 2a)``, strictly decreasing
    in the fractional order."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"fractional order must lie in [0, 1), got {a}")
    return -1.0 / (2.0 - 2.0 * a)


def fit_decay_exponent(times, norms, window: tuple[float, float]) -> DecayFit:
    """Least-squares slope of ``log ||X(t)||`` against ``log t``.

    The window must start at t >= 1 (the algebraic regime); nonpositive
    norms inside the window are an error.
    """
    t_lo, t_hi = window
    if t_lo < 1.0:
        raise ValueError(f"fit window must start at t >= 1, got {t_lo}")
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    mask = (times >= t_lo) & (times <= t_hi)
    if mask.sum() < 3:
        raise ValueError("fit window contains fewer than 3 samples")
    if np.any(norms[mask] <= 0.0):
        raise ValueError("norms must be strictly positive on the fit window")
    x = np.log(times[mask])
    y = np.log(norms[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit((t_lo, t_hi), float(slope), float(intercept), r_sq)


# ---------------------------------------------------------------------------
# superposition oracle
# ---------------------------------------------------------------------------


def _stable_exp_integral(z: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    # (exp(w t) - exp((w - z) t)) / z, limit t*exp(w t); a pairwise form that
    # shares no arithmetic with the factored closed form in timedomain
    zt = z * t
    small = np.abs(zt) < 1e-8
    z_safe = np.where(small, 1.0, z)
    series = t * np.exp(w * t) * (1.0 - zt / 2.0 + zt**2 / 6.0)
    return np.where(small, series, (np.exp(w * t) - np.exp((w - z) * t)) / z_safe)


def superposition_oracle(
    k,
    amplitudes,
    eigenvalues,
    params: ModelParams,
    kernel: ExponentialKernel,
    grid: ModeGrid,
    times,
) -> np.ndarray:
    """Predicted energy norm ``||X(t)||`` from the mode numbers ``k`` and the
    ``(modes, 5)`` v-amplitudes and eigenvalues, by direct summation.

    Everything is rebuilt from the amplitudes of ``v`` alone: velocities are
    termwise derivatives, the second displacement comes from the coupling
    relation ``p_i = gamma*beta*xi/(mu*lam_i^2 + beta*xi) * v_i``, and the
    memory integral is summed over every pair of exponential terms.  Modes
    run along the first axis, terms along the next one or two and times along
    the last.  No shared code with the trace pipeline beyond the model
    constants.
    """
    t = np.asarray(times, dtype=float)
    delta = kernel.delta
    xi = np.array([grid.xi_of(int(kk)) for kk in k])[:, None]
    amps = np.asarray(amplitudes, dtype=complex)
    lams = np.asarray(eigenvalues, dtype=complex)
    phi = params.gamma * params.beta * xi / (params.mu * lams * lams + params.beta * xi)
    terms = amps[:, :, None] * np.exp(lams[:, :, None] * t)
    v = terms.sum(axis=1)
    u = (lams[:, :, None] * terms).sum(axis=1)
    p = (phi[:, :, None] * terms).sum(axis=1)
    q = ((phi * lams)[:, :, None] * terms).sum(axis=1)
    acc = (params.alpha1 * xi - kernel.zeta * xi**params.a) * np.abs(v) ** 2
    acc += params.rho * np.abs(u) ** 2
    acc += params.beta * xi * np.abs(params.gamma * v - p) ** 2
    acc += params.mu * np.abs(q) ** 2
    # pair (i, j) on axes 1 and 2, time on axis 3
    lam_i = lams[:, :, None, None]
    lam_j = lams.conj()[:, None, :, None]
    w = lam_i + lam_j
    pair = amps[:, :, None, None] * amps.conj()[:, None, :, None]
    inner = (
        _stable_exp_integral(delta + 0j, w, t)
        - _stable_exp_integral(delta + lam_i, w, t)
        - _stable_exp_integral(delta + lam_j, w, t)
        + _stable_exp_integral(delta + w, w, t)
    )
    recent = (pair * inner).real.sum(axis=(1, 2))
    acc += xi**params.a * (recent + np.abs(v) ** 2 * np.exp(-delta * t) / delta)
    return np.sqrt(acc.sum(axis=0))


# ---------------------------------------------------------------------------
# optimality verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LegReport:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class OptimalityVerdict:
    sharpness: LegReport
    bounded: LegReport
    unbounded: LegReport

    @property
    def verdict(self) -> bool:
        return self.sharpness.passed and self.bounded.passed and self.unbounded.passed


def check_sharpness_convergence(
    branch: SpectrumBranch,
    params: ModelParams,
    rtol: float = 0.02,
) -> LegReport:
    """Sharpness products at the largest ``xi`` of a stacked branch against
    their limits; the smaller probes are not read."""
    last = branch[int(np.argmax(branch.xi))]
    details = []
    ok = True
    for j in (1, 2):
        limit = sharpness_limit(params, j)
        got = float(sharpness_product(last, j, params.a))
        rel = abs(got - limit) / limit
        ok &= rel <= rtol
        details.append(f"j={j}: {got:.6g} vs limit {limit:.6g} (rel {rel:.2e})")
    return LegReport("sharpness_convergence", ok, "; ".join(details))


def check_bounded_leg(sweep: SweepResult, factor: float = 3.0) -> LegReport:
    """Per-decade suprema of the scaled sweep must agree within ``factor``."""
    taus = sweep.taus
    scaled = sweep.scaled
    n_dec = max(1, int(round(math.log10(taus.max() / taus.min()))))
    edges = np.geomspace(taus.min(), taus.max(), n_dec + 1)
    sups = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (taus >= lo * 0.999) & (taus <= hi * 1.001)
        if mask.any():
            sups.append(float(scaled[mask].max()))
    spread = max(sups) / min(sups)
    ok = math.isfinite(sweep.sup_scaled) and spread <= factor
    return LegReport(
        "scaled_sweep_bounded",
        ok,
        f"sup {sweep.sup_scaled:.6g} at tau {sweep.argmax_tau:.6g}; decade sups spread x{spread:.3g}",
    )


def check_unbounded_leg(sweep: SweepResult, min_slope: float = 0.05) -> LegReport:
    """Resonance samples of a reduced-exponent sweep must grow in log-log.

    Fitted per oscillatory branch: growth along one eigenvalue branch is
    already unboundedness of the supremum, and mixing branches with different
    plateau constants would bias a joint fit on short windows.
    """
    slopes = []
    for j in (1, 2):
        mask = sweep.resonance_branch == j
        if mask.sum() < 3:
            continue
        x = np.log(sweep.taus[mask])
        y = np.log(sweep.scaled[mask])
        slopes.append((j, float(np.polyfit(x, y, 1)[0]), int(mask.sum())))
    if not slopes:
        return LegReport("reduced_exponent_growth", False, "too few resonance samples")
    detail = "; ".join(f"branch {j}: slope {s:.4f} ({n} samples)" for j, s, n in slopes)
    return LegReport(
        "reduced_exponent_growth",
        any(s > min_slope for _, s, _ in slopes),
        detail,
    )


def optimality_check(
    branch: SpectrumBranch,
    sweep: SweepResult,
    params: ModelParams,
    reduction: float = 0.25,
    sharpness_rtol: float = 0.02,
) -> OptimalityVerdict:
    """Assemble the three-signature verdict for the decay order.

    ``sweep`` must carry the scaling ``omega = 2 - 2a``; the reduced-exponent
    leg reuses its samples under ``omega - reduction``.
    """
    reduced = sweep.rescaled(sweep.omega - reduction)
    return OptimalityVerdict(
        sharpness=check_sharpness_convergence(branch, params, rtol=sharpness_rtol),
        bounded=check_bounded_leg(sweep),
        unbounded=check_unbounded_leg(reduced),
    )


__all__ = [
    "DecayFit",
    "LegReport",
    "OptimalityVerdict",
    "check_bounded_leg",
    "check_sharpness_convergence",
    "check_unbounded_leg",
    "fit_decay_exponent",
    "optimality_check",
    "superposition_oracle",
    "target_exponent",
]
