import numpy as np
import pytest

from helpers import KER1, P0, p0_with_a, square_grid
from memwave.analysis import (
    check_bounded_leg,
    check_sharpness_convergence,
    check_unbounded_leg,
    fit_decay_exponent,
    superposition_oracle,
    target_exponent,
)
from memwave.model import ExponentialKernel
from memwave.resolvent import SweepResult, scaled_sweep
from memwave.spectral import quintic_roots
from memwave.timedomain import energy_trace, exact_modal_evolve, marginal_initial_data


def test_fit_recovers_synthetic_power_law():
    times = np.geomspace(1.0, 1e3, 200)
    norms = times**-1.0  # energy t^-2
    fit = fit_decay_exponent(times, norms, (1.0, 1e3))
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rejects_early_window():
    times = np.geomspace(0.1, 10.0, 50)
    with pytest.raises(ValueError):
        fit_decay_exponent(times, times**-1.0, (0.5, 10.0))


def test_fit_rejects_nonpositive_norms():
    times = np.geomspace(1.0, 100.0, 50)
    norms = times**-1.0
    norms[10] = 0.0
    with pytest.raises(ValueError):
        fit_decay_exponent(times, norms, (1.0, 100.0))


def test_target_exponent_values_and_monotonicity():
    assert target_exponent(0.0) == pytest.approx(-0.5)
    assert target_exponent(0.5) == pytest.approx(-1.0)
    grid = np.linspace(0.0, 0.99, 100)
    vals = np.array([target_exponent(a) for a in grid])
    assert np.all(np.diff(vals) < 0.0)
    with pytest.raises(ValueError):
        target_exponent(1.0)


def test_oracle_matches_trace_for_multi_mode_data():
    grid = square_grid(12)
    states = marginal_initial_data(grid, 12)
    trajs = exact_modal_evolve(states, P0, KER1.delta, grid)
    times = np.geomspace(1.0, 50.0, 20)
    trace = energy_trace(trajs, times)
    oracle = superposition_oracle(
        trajs.k, trajs.v_amplitudes, trajs.eigenvalues, P0, KER1, grid, times
    )
    assert oracle == pytest.approx(trace.norm(), rel=1e-8)


def test_oracle_single_mode_rate_and_positivity():
    grid = square_grid(4)
    trajs = exact_modal_evolve(marginal_initial_data(grid, 2), P0, KER1.delta, grid)
    times = np.geomspace(50.0, 120.0, 30)
    first = trajs[0]
    single = superposition_oracle(
        first.k, first.v_amplitudes, first.eigenvalues, P0, KER1, grid, times
    )
    both = superposition_oracle(
        trajs.k, trajs.v_amplitudes, trajs.eigenvalues, P0, KER1, grid, times
    )
    assert np.all(both >= single)
    rate = first.eigenvalues.real.max()
    slope = np.polyfit(times, np.log(single), 1)[0]
    assert slope == pytest.approx(rate, rel=0.02)


def _synthetic_sweep(omega: float, growth: float) -> SweepResult:
    taus = np.geomspace(10.0, 1000.0, 40)
    norms = 5.0 * taus**growth
    branch = np.ones(40, dtype=int)
    branch[1::2] = 2
    return SweepResult(
        omega=omega,
        M=8,
        taus=taus,
        norms=norms,
        scaled=taus**-omega * norms,
        argmax_modes=np.ones(40, dtype=int),
        cutoffs=np.ones(40, dtype=int),
        resonance_branch=branch,
        margins=np.full(40, np.nan),
    )


def test_bounded_leg_detects_growth():
    assert check_bounded_leg(_synthetic_sweep(1.0, 1.0)).passed
    assert not check_bounded_leg(_synthetic_sweep(1.0, 1.6)).passed


def test_unbounded_leg_requires_positive_slope():
    ok = check_unbounded_leg(_synthetic_sweep(0.75, 1.0))  # scaled ~ tau^0.25
    assert ok.passed
    flat = check_unbounded_leg(_synthetic_sweep(1.5, 1.0))  # scaled ~ tau^-0.5
    assert not flat.passed


@pytest.mark.parametrize("delta", [1.0, 5.0])
@pytest.mark.parametrize("a", [0.0, 0.5, 0.97])
def test_verdict_legs_fail_under_a_wrong_exponent(a, delta):
    # negative controls on a real sweep: a decay rate raised by 0.5 must
    # break the bounded leg, and the unreduced exponent must show no growth
    sweep = scaled_sweep(
        p0_with_a(a),
        ExponentialKernel(delta),
        square_grid(400),
        M=40,
        tau_lo=10.0,
        tau_hi=1000.0,
        per_decade=16,
        resonances_per_branch=12,
    )
    omega = sweep.omega
    assert check_bounded_leg(sweep).passed
    assert not check_bounded_leg(sweep.rescaled(omega + 0.5)).passed
    assert not check_unbounded_leg(sweep).passed
    assert check_unbounded_leg(sweep.rescaled(omega - 0.25)).passed


def test_sharpness_leg_on_computed_branches():
    branches = quintic_roots(np.geomspace(1e4, 1e7, 4), P0, KER1.delta)
    report = check_sharpness_convergence(branches, P0)
    assert report.passed, report.detail
    # the products converge like 1/xi, so a tolerance below the remainder
    # at the largest probe must flip the verdict
    wrong = check_sharpness_convergence(branches, P0, rtol=1e-8)
    assert not wrong.passed


def test_sharpness_leg_reads_only_the_largest_probe():
    # xi = 1e-3 has degenerate labels, and its sharpness products are
    # undefined; the leg must not read it
    branch = quintic_roots(np.array([1e-3, 1e7, 1e4]), P0, KER1.delta)
    assert branch.degenerate.tolist() == [True, False, False]
    report = check_sharpness_convergence(branch, P0)
    assert report.passed, report.detail
    assert report == check_sharpness_convergence(branch[1:2], P0)
