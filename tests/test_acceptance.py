"""End-to-end acceptance suite.

One check per numbered criterion, each printing a single PASS/FAIL line
(run ``pytest -s tests/test_acceptance.py`` to see them live):

1. root sums of the per-mode quintic equal -delta and residuals stay tiny
   across eight decades of operator eigenvalues;
2. the closed-form cubic solve agrees with companion-matrix roots;
3. the eigenvalue-branch errors against their leading-order forms decay with
   the predicted log-log slopes;
4. the sharpness products at xi = 1e6 match their limit constants; a strict
   expected failure documents that an earlier pair of target constants is
   exactly twice the limit of the product computed from actual roots (the
   branch real parts carry a factor 1/(2*rho) those constants omit);
5. every computed root lies strictly left of the imaginary axis, the real
   branch crosses -delta/2 and drifts to -delta, oscillatory branches stay
   inside the admissibility strip;
6. the scaled resolvent sweep is flat at the claimed order (per-decade
   suprema within a factor of 3), stable in the history resolution, and
   grows along each resonance branch once the exponent is lowered by 0.25;
7. the dissipation identity holds pointwise, energies never increase, and
   the general-kernel integrator reproduces the exact evolution;
8. the multi-mode decay fit matches the superposition oracle, and the exact
   trace norm equals the oracle point by point to 1e-12 relative;
9. the static solve, one solve on the sweep's block of each mode, round-trips
   through the physical generator at machine accuracy, and its stability
   ratio is bounded by that block's ``resolvent_norm(0)``.
"""

import math
import time

import numpy as np
import pytest

from helpers import KER1, P0, draw_validated, marginal_data, p0_with_a, square_grid
from memwave.analysis import (
    fit_decay_exponent,
    superposition_oracle,
    target_exponent,
)
from memwave.model import TabulatedKernel, validate_params
from memwave.resolvent import (
    laguerre_grid,
    mode_block,
    scaled_sweep,
    static_solve,
)
from memwave.spectral import (
    asymptotic_eigenvalues,
    cardano_cubic_roots,
    cubic_coeffs,
    quintic_roots,
    sharpness_product,
    strip_check,
)
from memwave.timedomain import (
    energy_trace,
    evolve_general_kernel,
    exact_modal_evolve,
)

XI_SET = (1.0, 1e2, 1e4, 1e6, 1e8)
SEED = 20240809


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _parameter_draws():
    rng = np.random.default_rng(SEED)
    draws = [(P0, KER1)]
    for _ in range(3):
        draws.append(draw_validated(rng))
    return draws


def test_1_vieta_root_sums_and_residuals():
    worst_sum = 0.0
    worst_res = 0.0
    for params, kernel in _parameter_draws():
        for xi in XI_SET:
            branch = quintic_roots(xi, params, kernel.delta)
            worst_sum = max(worst_sum, abs(branch.root_sum() + kernel.delta))
            worst_res = max(worst_res, float(np.max(branch.residuals)))
    ok = worst_sum <= 1e-10 and worst_res <= 1e-10
    _report("1 vieta-root-sums", ok, f"max |sum + delta| {worst_sum:.2e}, max residual {worst_res:.2e}")
    assert worst_sum <= 1e-10
    assert worst_res <= 1e-10


def test_2_cardano_matches_companion_roots():
    worst = 0.0
    key = lambda z: (round(z.imag, 8), z.real)
    for params, kernel in _parameter_draws():
        for xi in np.geomspace(1.0, 1e8, 17):
            for j in (1, 2):
                cardano, _ = cardano_cubic_roots(float(xi), j, params, kernel.delta)
                companion = np.roots(cubic_coeffs(float(xi), j, params, kernel.delta))
                for c_root, n_root in zip(sorted(cardano, key=key), sorted(companion, key=key)):
                    worst = max(worst, abs(c_root - n_root) / max(1.0, abs(n_root)))
    ok = worst <= 1e-9
    _report("2 cardano-equivalence", ok, f"max relative root deviation {worst:.2e}")
    assert worst <= 1e-9


def test_3_branch_remainder_orders():
    xis = np.geomspace(1e3, 1e7, 9)
    lines = []
    ok = True
    for a in (0.0, 0.25, 0.5, 0.75):
        params = p0_with_a(a)
        errs = {0: [], 1: [], 2: []}
        for xi in xis:
            branch = quintic_roots(float(xi), params, KER1.delta)
            asym = asymptotic_eigenvalues(float(xi), params, KER1.delta)
            errs[0].append(abs(branch.lambda0 - asym[0]))
            errs[1].append(abs(branch.lam(1, +1) - asym[1]))
            errs[2].append(abs(branch.lam(2, +1) - asym[3]))
        lx = np.log(xis)
        slopes = {b: float(np.polyfit(lx, np.log(errs[b]), 1)[0]) for b in errs}
        targets = {0: -(2.0 - a), 1: -(1.5 - a), 2: -(1.5 - a)}
        for b in (0, 1, 2):
            ok &= abs(slopes[b] - targets[b]) <= 0.15
        lines.append(
            f"a={a:g}: real {slopes[0]:+.3f}/{targets[0]:+.2f}, "
            f"osc {slopes[1]:+.3f},{slopes[2]:+.3f}/{targets[1]:+.2f}"
        )
    _report("3 remainder-orders", ok, "; ".join(lines))
    assert ok


def _products_at(xi: float):
    branch = quintic_roots(xi, P0, KER1.delta)
    return sharpness_product(branch, 1, P0.a), sharpness_product(branch, 2, P0.a)


@pytest.mark.xfail(
    strict=True,
    reason="targets 0.164463/0.574540 are twice the limit of the product "
    "computed from the roots; the branch real parts carry a factor "
    "1/(2*rho) that those constants omit",
)
def test_4_sharpness_constants_as_stated():
    p1, p2 = _products_at(1e6)
    ok = abs(p1 - 0.164463) <= 0.02 * 0.164463 and abs(p2 - 0.574540) <= 0.02 * 0.574540
    _report(
        "4 sharpness-constants (as stated)",
        ok,
        f"j=1 {p1:.6f} vs 0.164463, j=2 {p2:.6f} vs 0.574540",
    )
    assert ok


def test_4_sharpness_constants_computed_limit():
    # direct-evaluation oracle of the limit, written out independently:
    # m_j from the quadratic s^2 - (beta/mu + alpha/rho) s + alpha1*beta/(rho*mu),
    # mhat_j the convex weights, limit mhat_j * m_j^(-a) / (2 rho)
    s_sum = P0.beta / P0.mu + P0.alpha / P0.rho
    p_prod = P0.alpha1 * P0.beta / (P0.rho * P0.mu)
    root = math.sqrt(s_sum**2 - 4.0 * p_prod)
    m = {1: (s_sum - root) / 2.0, 2: (s_sum + root) / 2.0}
    diff = P0.beta / P0.mu - P0.alpha / P0.rho
    mhat = {1: 0.5 * (1.0 + diff / root), 2: 0.5 * (1.0 - diff / root)}
    limits = {j: mhat[j] * m[j] ** (-P0.a) / (2.0 * P0.rho) for j in (1, 2)}

    p1, p2 = _products_at(1e6)
    ok = abs(p1 - limits[1]) <= 0.02 * limits[1] and abs(p2 - limits[2]) <= 0.02 * limits[2]
    _report(
        "4 sharpness-constants (computed limit)",
        ok,
        f"j=1 {p1:.6f} vs {limits[1]:.6f}, j=2 {p2:.6f} vs {limits[2]:.6f}",
    )
    assert ok


def test_5_spectral_strip():
    grid = square_grid(120)
    delta = KER1.delta

    # the real branch leaves the admissibility strip just below the first
    # grid mode (true crossing near xi ~ 0.87 < xi_1 = 1), so the crossing is
    # exhibited on sub-xi_1 probes; confinement of the oscillatory branches
    # is asserted for every computed mode with xi_k >= xi_1
    probe_inside = False
    for xi in (0.45, 0.65, 0.85):
        branch = quintic_roots(xi, P0, delta)
        if -delta / 2.0 < branch.lambda0.real < 0.0:
            probe_inside = True

    excluded_on_grid = True
    oscillatory_ok = True
    last_real = None
    for k in range(1, 121):
        branch = quintic_roots(grid.xi_of(k), P0, delta)
        report = strip_check(branch, delta)  # raises on any Re >= 0
        labels_admissible = dict(report.admissible)
        excluded_on_grid &= "0" in dict(report.excluded)
        for lbl in ("1+", "1-", "2+", "2-"):
            oscillatory_ok &= lbl in labels_admissible
        last_real = branch.lambda0
    drifts = abs(last_real + delta) <= 0.01
    crossed = probe_inside and excluded_on_grid
    ok = crossed and oscillatory_ok and drifts
    _report(
        "5 spectral-strip",
        ok,
        f"real branch crosses -delta/2 below the first mode: {crossed}; "
        f"last real {last_real.real:.5f} -> -delta; oscillatory confined: {oscillatory_ok}",
    )
    assert ok


@pytest.fixture(scope="module")
def order_signature_sweeps():
    grid = square_grid(2000)  # operator eigenvalues up to 4e6
    t0 = time.perf_counter()
    sweeps = {
        m: scaled_sweep(
            P0,
            KER1.delta,
            grid.xi,
            M=m,
            tau_lo=10.0,
            tau_hi=1000.0,
            per_decade=64,
            resonances_per_branch=16,
        )
        for m in (40, 80)
    }
    return sweeps, time.perf_counter() - t0


def _decade_spread(taus, scaled):
    """Largest over smallest of the per-decade suprema of ``scaled``."""
    n_dec = max(1, int(round(math.log10(taus.max() / taus.min()))))
    edges = np.geomspace(taus.min(), taus.max(), n_dec + 1)
    sups = [scaled[(taus >= lo * 0.999) & (taus <= hi * 1.001)].max() for lo, hi in zip(edges[:-1], edges[1:])]
    return max(sups) / min(sups)


def test_6_resolvent_order_signature(order_signature_sweeps):
    sweeps, elapsed = order_signature_sweeps
    s40, s80 = sweeps[40], sweeps[80]
    assert s40.omega == pytest.approx(1.0)

    spread = _decade_spread(s80.taus, s80.scaled)
    m_rel = abs(s40.sup_scaled - s80.sup_scaled) / max(s40.sup_scaled, s80.sup_scaled)
    # under the exponent lowered by 0.25 the resonance samples of each branch grow
    reduced = s80.taus ** -(s80.omega - 0.25) * s80.norms
    slopes = []
    for j in (1, 2):
        mask = s80.resonance_branch == j
        slopes.append(float(np.polyfit(np.log(s80.taus[mask]), np.log(reduced[mask]), 1)[0]))
    ok = (
        math.isfinite(s80.sup_scaled)
        and spread <= 3.0
        and m_rel <= 0.01
        and min(slopes) > 0.05
        and elapsed < 900.0
    )
    _report(
        "6 resolvent-order-signature",
        ok,
        f"sup {s40.sup_scaled:.4f} (M=40) vs {s80.sup_scaled:.4f} (M=80), rel {m_rel:.2e}; "
        f"decade sups spread x{spread:.3g}; reduced-exponent slopes {slopes[0]:.4f}, "
        f"{slopes[1]:.4f}; {elapsed:.0f}s",
    )
    assert math.isfinite(s80.sup_scaled)
    assert spread <= 3.0
    assert m_rel <= 0.01
    assert min(slopes) > 0.05, slopes
    assert elapsed < 900.0


def test_7_dissipation_identity_and_general_kernel():
    grid = square_grid(3)
    traj = exact_modal_evolve([grid.xi_of(1)], [[1.0, 0.0, 0.0, 0.0]], P0, KER1.delta)

    dt = 1e-4
    times = 1.0 + dt * np.arange(-1, 2)
    trace = energy_trace(traj, times)
    e0 = energy_trace(traj, np.array([0.0, dt, 2 * dt])).total[0] / 2.0
    residual_ok = trace.residual[1] <= 1e-6 * e0

    long_trace = energy_trace(traj, np.linspace(0.0, 30.0, 301))
    monotone_exact = bool(np.all(np.diff(long_trace.total) <= 1e-9 * long_trace.total[0]))

    s = np.arange(0.0, 14.0 + 1e-12, 5e-4)
    tab = TabulatedKernel(s=s, g_values=np.exp(-s), k0=1.0, k1=1.0)
    gen_trace = evolve_general_kernel(
        grid.xi_of(1), [1.0, 0.0, 0.0, 0.0], P0, tab, T=10.0, dt=1e-3, sample_every=100
    )
    exact_trace = energy_trace(traj, gen_trace.times)
    agreement = float(np.max(np.abs(gen_trace.total - exact_trace.total) / exact_trace.total))
    monotone_general = bool(np.all(np.diff(gen_trace.total) <= 1e-9 * gen_trace.total[0]))

    ok = residual_ok and monotone_exact and monotone_general and agreement <= 1e-4
    _report(
        "7 dissipation-identity",
        ok,
        f"residual {trace.residual[1]:.2e} vs 1e-6*E0 {1e-6 * e0:.2e}; "
        f"general-vs-exact rel {agreement:.2e}; monotone {monotone_exact and monotone_general}",
    )
    assert residual_ok
    assert monotone_exact and monotone_general
    assert agreement <= 1e-4


def test_8_decay_fit_matches_superposition_oracle():
    lines = []
    ok = True
    for a in (0.0, 0.5):
        params = p0_with_a(a)
        grid = square_grid(200)
        assert validate_params(params, KER1, grid).passed
        trajs = exact_modal_evolve(*marginal_data(grid, 200), params, KER1.delta)
        times = np.geomspace(1.0, 2000.0, 60)
        trace = energy_trace(trajs, times)
        fit_trace = fit_decay_exponent(times, trace.norm(), (10.0, 1000.0))
        oracle = superposition_oracle(grid.xi, trajs.v_amplitudes, trajs.eigenvalues, params, KER1.delta, times)
        fit_oracle = fit_decay_exponent(times, oracle, (10.0, 1000.0))
        gap = abs(fit_trace.slope - fit_oracle.slope)
        pointwise = float(np.max(np.abs(oracle / trace.norm() - 1.0)))
        ok &= gap <= 0.1 and pointwise <= 1e-12
        lines.append(
            f"a={a:g}: trace {fit_trace.slope:+.4f}, oracle {fit_oracle.slope:+.4f}, "
            f"worst-case target {target_exponent(a):+.4f}, pointwise rel {pointwise:.1e}"
        )
    _report("8 decay-fit-consistency", ok, "; ".join(lines))
    assert ok


def test_9_static_solve_round_trip():
    grid = square_grid(20)
    lag = laguerre_grid(40, KER1.delta)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    worst_ratio = 0.0
    worst_share = 0.0
    for k in range(1, 21):
        bound = mode_block(grid.xi_of(k), P0, lag).resolvent_norm(0.0)
        for _ in range(100):
            forcing = np.concatenate(
                [
                    rng.standard_normal(4) + 1j * rng.standard_normal(4),
                    rng.standard_normal(40) + 1j * rng.standard_normal(40),
                ]
            )
            _, residual, ratio = static_solve(grid.xi_of(k), forcing, P0, lag)
            worst = max(worst, residual)
            worst_ratio = max(worst_ratio, ratio)
            worst_share = max(worst_share, ratio / bound)
    ok = worst <= 1e-10 and worst_ratio < 10.0 and worst_share <= 1.0 + 1e-12
    _report(
        "9 static-solve-round-trip",
        ok,
        f"max relative residual {worst:.2e} over 2000 solves on the sweep's blocks; "
        f"max ||W||/||F|| {worst_ratio:.2f}, at most {worst_share:.3f} of resolvent_norm(0)",
    )
    assert worst <= 1e-10
    assert worst_ratio < 10.0
    assert worst_share <= 1.0 + 1e-12
