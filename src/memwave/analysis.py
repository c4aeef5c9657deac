"""Decay-exponent fits, the modal-superposition oracle, optimality verdict.

The worst-case decay of smooth data is algebraic with exponent
``-1/(2 - 2a)`` in the energy norm.  A fitted trace exponent is compared
against the brute-force superposition prediction rather than against the
worst-case rate directly: any fixed datum may decay faster, so the growth of
the resolvent, not the trace fit, carries the optimality burden.  The verdict
combines two signatures at the probes ``xi``:

* sharpness products ``|Re| * |Im|^(2(1-a))`` along both oscillatory branches
  converge to their finite nonzero limits,
* the peaks of the resolvent norm near ``Im lam_{1+}``, bracketed through the
  exact 4x4 Schur reduction with the continuum history, grow in log-log with
  slope ``2 - 2a`` (Borichev-Tomilov: that growth is equivalent to the
  optimality of the rate).  No collocation sweep and no ``M`` enter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, coercivity_margin
from .resolvent import resolvent_peaks
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

    The window must start at t >= 1 (the algebraic regime); a norm inside
    the window that is not finite and positive is an error.
    """
    t_lo, t_hi = window
    if t_lo < 1.0:
        raise ValueError(f"fit window must start at t >= 1, got {t_lo}")
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    mask = (times >= t_lo) & (times <= t_hi)
    if mask.sum() < 3:
        raise ValueError("fit window contains fewer than 3 samples")
    if not np.all(np.isfinite(norms[mask]) & (norms[mask] > 0.0)):
        raise ValueError("norms must be finite and strictly positive on the fit window")
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
    xi,
    amplitudes,
    eigenvalues,
    params: ModelParams,
    delta: float,
    times,
) -> np.ndarray:
    """Predicted energy norm ``||X(t)||`` from the modes ``xi`` and their
    ``(modes, 5)`` v-amplitudes and eigenvalues, by direct summation, for
    the kernel ``exp(-delta*s)``.

    Everything is rebuilt from the amplitudes of ``v`` alone: velocities are
    termwise derivatives, the second displacement comes from the coupling
    relation ``p_i = gamma*beta*xi/(mu*lam_i^2 + beta*xi) * v_i``, and the
    memory integral is summed over every pair of exponential terms.  Modes
    run along the first axis, terms along the next one or two and times along
    the last.  No shared code with the trace pipeline beyond the model
    constants.
    """
    t = np.asarray(times, dtype=float)
    xi = np.asarray(xi, dtype=float)[:, None]
    amps = np.asarray(amplitudes, dtype=complex)
    lams = np.asarray(eigenvalues, dtype=complex)
    phi = params.gamma * params.beta * xi / (params.mu * lams * lams + params.beta * xi)
    terms = amps[:, :, None] * np.exp(lams[:, :, None] * t)
    v = terms.sum(axis=1)
    u = (lams[:, :, None] * terms).sum(axis=1)
    p = (phi[:, :, None] * terms).sum(axis=1)
    q = ((phi * lams)[:, :, None] * terms).sum(axis=1)
    acc = (params.alpha1 * xi - 1.0 / delta * xi**params.a) * np.abs(v) ** 2
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


# the guard on the probes of the exponent leg: past |Re lam| ~ 1e-9*|Im lam|
# a peak is narrower than the roundoff in tau and in S's entries, and below
# tau ~ 100 the peaks still approach their power law (at a = 0.97, delta = 5
# the lower slope reads 0.055 from tau >= 10, 0.0606 from tau >= 100)
PEAK_TAU_MIN = 100.0
PEAK_DAMPING_MIN = 1e-9
SLOPE_TOL = 0.02


def check_exponent_leg(branch: SpectrumBranch, params: ModelParams, omega: float | None = None) -> LegReport:
    """The resolvent grows like ``tau^omega``, default ``omega = 2 - 2a``,
    which by Borichev-Tomilov makes the rate ``t^(-1/(2-2a))`` optimal.

    Both peak columns of ``resolvent_peaks`` are fitted in log-log against
    their frequencies over the coercive probes of ``branch`` that pass the
    guard ``Im lam_{1+} >= PEAK_TAU_MIN`` and ``|Re lam_{1+}| >=
    PEAK_DAMPING_MIN * Im lam_{1+}``; both slopes must lie within
    ``SLOPE_TOL`` of ``omega``, over at least three probes.
    """
    if omega is None:
        omega = 2.0 - 2.0 * params.a
    lam = branch.lam(1, +1)
    coercive = coercivity_margin(branch.xi, params, 1.0 / branch.delta) > 0.0
    keep = coercive & (lam.imag >= PEAK_TAU_MIN) & (np.abs(lam.real) >= PEAK_DAMPING_MIN * lam.imag)
    if keep.sum() < 3:
        return LegReport("resolvent_growth", False, f"{keep.sum()} probes pass the guard, need 3")
    taus, peaks = resolvent_peaks(branch[keep], params)
    slopes = [float(np.polyfit(np.log(taus[:, j]), np.log(peaks[:, j]), 1)[0]) for j in (0, 1)]
    return LegReport(
        "resolvent_growth",
        all(abs(s - omega) <= SLOPE_TOL for s in slopes),
        f"log-log slopes of the resolvent peaks {slopes[0]:.4f} (lower) and {slopes[1]:.4f} "
        f"(upper) vs {omega:.4g} +- {SLOPE_TOL:g}, over {keep.sum()} probes at tau "
        f"{taus[:, 0].min():.4g} to {taus[:, 0].max():.4g}",
    )


def optimality_check(branch: SpectrumBranch, params: ModelParams) -> tuple[LegReport, LegReport]:
    """The sharpness and exponent legs of the decay-order verdict, which
    holds when both pass, from the roots at the probes ``branch``
    (exponential kernel of rate ``branch.delta``)."""
    return (
        check_sharpness_convergence(branch, params),
        check_exponent_leg(branch, params),
    )


__all__ = [
    "DecayFit",
    "LegReport",
    "PEAK_DAMPING_MIN",
    "PEAK_TAU_MIN",
    "SLOPE_TOL",
    "check_exponent_leg",
    "check_sharpness_convergence",
    "fit_decay_exponent",
    "optimality_check",
    "superposition_oracle",
    "target_exponent",
]
