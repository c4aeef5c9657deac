"""Decay-exponent fits and the optimality verdict.

The worst-case decay of smooth data is algebraic with exponent
``-1/(2 - 2a)`` in the energy norm.  A fitted trace exponent is not compared
against the worst-case rate: any fixed datum may decay faster, so the growth
of the resolvent, not the trace fit, carries the optimality burden.  The verdict
combines two signatures at the probes ``xi``:

* sharpness products ``|Re| * |Im|^(2(1-a))`` along both oscillatory branches
  converge to their finite nonzero limits,
* ``1/|Re lam_{1+}|`` grows like ``tau^(2 - 2a)`` and brackets the resolvent
  peaks near ``Im lam_{1+}`` up to a fixed factor, so the resolvent grows so
  too (Borichev-Tomilov: that growth is equivalent to the optimality of the
  rate).  No collocation sweep and no ``M`` enter.
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
# tau ~ 100 the roots still approach their power law (at delta = 5 the slope
# of 1/|Re lam| reads 1.7985 at a = 0 and 0.1510 at a = 0.9 without it)
PEAK_TAU_MIN = 100.0
PEAK_DAMPING_MIN = 1e-9
SLOPE_TOL = 0.02
BRACKET_MAX = 1.25


def check_exponent_leg(branch: SpectrumBranch, params: ModelParams, omega: float | None = None) -> LegReport:
    """The resolvent grows like ``tau^omega``, default ``omega = 2 - 2a``,
    which by Borichev-Tomilov makes the rate ``t^(-1/(2-2a))`` optimal.

    On the coercive probes of ``branch`` past the guard, at least three, the
    log-log slope of ``1/|Re lam_{1+}|`` against ``Im lam_{1+}`` is within
    ``SLOPE_TOL`` of ``omega``, and each upper peak of ``resolvent_peaks`` is
    in ``[1 - tol, BRACKET_MAX] / |Re lam_{1+}|``.  It is at least
    ``1/|i*tau - lam_{1+}|`` exactly; ``tol = 64*eps/PEAK_DAMPING_MIN`` allows
    for the relative roundoff of a computed ``Re lam`` at the guard's damping.
    """
    if omega is None:
        omega = 2.0 - 2.0 * params.a
    lam = branch.lam(1, +1)
    coercive = coercivity_margin(branch.xi, params, 1.0 / branch.delta) > 0.0
    keep = coercive & (lam.imag >= PEAK_TAU_MIN) & (np.abs(lam.real) >= PEAK_DAMPING_MIN * lam.imag)
    if keep.sum() < 3:
        return LegReport("resolvent_growth", False, f"{keep.sum()} probes pass the guard, need 3")
    taus, peaks = resolvent_peaks(branch[keep], params)
    damping, tol = np.abs(lam.real[keep]), 64.0 * np.finfo(float).eps / PEAK_DAMPING_MIN
    lo, hi = (peaks * damping).min(), (peaks * damping).max()
    slope = float(np.polyfit(np.log(lam.imag[keep]), -np.log(damping), 1)[0])
    return LegReport(
        "resolvent_growth",
        bool(abs(slope - omega) <= SLOPE_TOL and 1.0 - tol <= lo and hi <= BRACKET_MAX),
        f"slope of 1/|Re lam_1+| {slope:.4f} vs {omega:.4g} +- {SLOPE_TOL:g}; peaks*|Re lam_1+| {lo:.8f} to {hi:.8f} "
        f"in [1 - {tol:.2g}, {BRACKET_MAX:g}], over {keep.sum()} probes at tau {taus.min():.4g} to {taus.max():.4g}",
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
    "BRACKET_MAX",
    "DecayFit",
    "LegReport",
    "PEAK_DAMPING_MIN",
    "PEAK_TAU_MIN",
    "SLOPE_TOL",
    "check_exponent_leg",
    "check_sharpness_convergence",
    "fit_decay_exponent",
    "optimality_check",
    "target_exponent",
]
