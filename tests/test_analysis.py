import numpy as np
import pytest

from helpers import KER1, P0, marginal_data, p0_with_a, square_grid
from memwave.analysis import (
    SLOPE_TOL,
    check_exponent_leg,
    check_sharpness_convergence,
    fit_decay_exponent,
    superposition_oracle,
    target_exponent,
)
from memwave.spectral import quintic_roots
from memwave.timedomain import energy_trace, exact_modal_evolve


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
    trajs = exact_modal_evolve(*marginal_data(grid, 12), P0, KER1.delta)
    times = np.geomspace(1.0, 50.0, 20)
    trace = energy_trace(trajs, times)
    oracle = superposition_oracle(grid.xi, trajs.v_amplitudes, trajs.eigenvalues, P0, KER1.delta, times)
    assert oracle == pytest.approx(trace.norm(), rel=1e-8)


def test_oracle_single_mode_rate_and_positivity():
    grid = square_grid(4)
    trajs = exact_modal_evolve(*marginal_data(grid, 2), P0, KER1.delta)
    times = np.geomspace(50.0, 120.0, 30)
    first = trajs[0]
    single = superposition_oracle(grid.xi[:1], first.v_amplitudes, first.eigenvalues, P0, KER1.delta, times)
    both = superposition_oracle(grid.xi[:2], trajs.v_amplitudes, trajs.eigenvalues, P0, KER1.delta, times)
    assert np.all(both >= single)
    rate = first.eigenvalues.real.max()
    slope = np.polyfit(times, np.log(single), 1)[0]
    assert slope == pytest.approx(rate, rel=0.02)


# the six regimes of the README table plus a = 0.9, where the gap between the
# bounds is widest at small delta
@pytest.mark.parametrize(
    "a, delta",
    [(0.0, 1.0), (0.0, 5.0), (0.5, 1.0), (0.5, 5.0), (0.97, 1.0), (0.97, 5.0), (0.9, 0.5), (0.9, 1.0), (0.9, 5.0)],
)
def test_verdict_legs_fail_under_a_wrong_exponent(a, delta):
    # negative controls: the growth exponent leg passes at 2 - 2a and fails
    # once the claimed exponent is off by 0.05 either way
    branch = quintic_roots(np.geomspace(9.0, 1e10, 80), p0_with_a(a), delta)
    omega = 2.0 - 2.0 * a
    assert check_exponent_leg(branch, p0_with_a(a)).passed
    assert not check_exponent_leg(branch, p0_with_a(a), omega=omega + 0.05).passed
    assert not check_exponent_leg(branch, p0_with_a(a), omega=omega - 0.05).passed
    assert SLOPE_TOL == 0.02


def test_exponent_leg_needs_three_probes_past_the_guard():
    # a = 0.5: Im lam_{1+} is about 8.9 at xi = 100 and 89 at xi = 1e4,
    # below tau = 100
    few = check_exponent_leg(quintic_roots([1e2, 1e4, 1e6, 1e7], P0, KER1.delta), P0)
    assert not few.passed
    assert few.detail == "2 probes pass the guard, need 3"
    assert check_exponent_leg(quintic_roots([1e2, 1e5, 1e6, 1e7], P0, KER1.delta), P0).passed
    # a = 0: |Re lam_{1+}| / Im lam_{1+} is 3.3e-9 at xi = 1e5 and 1.0e-10 at 1e6
    damped = check_exponent_leg(quintic_roots([1e5, 1e6, 1e7, 1e8], p0_with_a(0.0), 1.0), p0_with_a(0.0))
    assert damped.detail == "1 probes pass the guard, need 3"


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
