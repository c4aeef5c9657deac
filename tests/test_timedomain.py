import dataclasses
import math

import numpy as np
import pytest

from helpers import KER1, P0, marginal_data, p0_with_a, square_grid
from memwave import timedomain
from memwave.model import (
    ExponentialKernel,
    InvalidModelError,
    ModelParams,
    TabulatedKernel,
    energy_parts,
    memoryless_generator,
)
from memwave.spectral import modal_generator
from memwave.timedomain import (
    EnergyTrace,
    ExponentialPolyHistory,
    HistoryTerm,
    energy_trace,
    evolve_general_kernel,
    exact_modal_evolve,
    history_mass,
    history_sq_mass,
    marginal_data_amplitudes,
    memory_energy_closed_form,
    memory_energy_quadrature,
)

DELTA = KER1.delta


def evolve(k=1, grid=None, v=1.0, u=0.0, p=0.0, q=0.0, history=ExponentialPolyHistory(), params=P0):
    grid = grid or square_grid(4)
    return exact_modal_evolve([grid.xi_of(k)], [[v, u, p, q]], params, DELTA, history)


def test_zero_initial_data_stays_zero():
    traj = evolve(v=0.0)
    states = traj.state_at(np.linspace(0, 5, 7))
    assert np.max(np.abs(states)) == 0.0


def test_initial_state_reconstruction():
    traj = evolve(v=1.0, u=0.3j, p=-0.2, q=0.75)
    x0 = traj.state_at(0.0)
    assert np.max(np.abs(x0 - traj.x0)) <= 1e-10


def test_trajectory_satisfies_reduced_system():
    traj = evolve(v=1.0, u=0.5)
    gen = modal_generator(square_grid(4).xi_of(1), P0, DELTA)
    h = 1e-5
    for t in (0.5, 1.7):
        derivative = (traj.state_at(t + h)[0] - traj.state_at(t - h)[0]) / (2 * h)
        rhs = gen @ traj.state_at(t)[0]
        assert np.max(np.abs(derivative - rhs)) <= 1e-6 * max(1.0, np.max(np.abs(rhs)))


def test_superposition_linearity():
    grid = square_grid(4)
    t = np.linspace(0, 3, 11)
    a_part = evolve(v=1.0, q=0.2)
    b_part = evolve(v=0.0, u=1.0j, p=0.5)
    combined = exact_modal_evolve([grid.xi_of(1)], [[2.0 * 1.0, 3.0 * 1.0j, 3.0 * 0.5, 2.0 * 0.2]], P0, DELTA)
    mix = 2.0 * a_part.state_at(t) + 3.0 * b_part.state_at(t)
    assert np.max(np.abs(combined.state_at(t) - mix)) <= 1e-10 * np.max(np.abs(mix) + 1)


def test_mode_energy_decay_rate_matches_slowest_eigenvalue():
    traj = evolve()
    rate = traj.eigenvalues.real.max()
    times = np.linspace(100.0, 200.0, 400)
    trace = energy_trace(traj, times)
    slope = np.polyfit(times, np.log(trace.total), 1)[0]
    assert slope == pytest.approx(2.0 * rate, rel=0.01)


def test_memory_energy_initial_value():
    traj = evolve()
    assert memory_energy_closed_form(traj, 0.0)[0] == pytest.approx(1.0, rel=1e-12)


def test_memory_energy_vanishes_eventually():
    traj = evolve()
    assert memory_energy_closed_form(traj, 400.0)[0] <= 1e-8


def test_memory_energy_matches_quadrature():
    traj = evolve(v=1.0, u=-0.3, p=0.2j)
    for t in (0.5, 1.0, 3.0):
        closed = float(memory_energy_closed_form(traj, t)[0])
        quad = memory_energy_quadrature(traj, t)
        assert closed == pytest.approx(quad, abs=1e-8 * max(1.0, closed))


@pytest.mark.parametrize("k", [1, 10, 30])
def test_memory_energy_quadrature_resolves_oscillatory_modes(k):
    # |Im lam|*t/(2*pi) reaches ~1400 oscillations at k = 30, t = 200; the
    # dense replica is the route energy_trace takes for dense trajectories
    traj = exact_modal_evolve([square_grid(40).xi_of(k)], [[1.0, 0.0, 0.0, 0.0]], P0, DELTA)
    dense = dataclasses.replace(traj, dense=np.array([True]))
    for t in (10.0, 50.0, 200.0):
        closed = float(memory_energy_closed_form(traj, t)[0])
        assert memory_energy_quadrature(traj, t) == pytest.approx(closed, rel=1e-10), t
        assert memory_energy_quadrature(dense, t) == pytest.approx(closed, rel=1e-10), t


def _memory_energy_60_digits(mpmath, traj, t, a):
    """``xi^a * int_0^inf e^(-delta*s) |v(t) - v(t-s)|^2 ds`` for a
    zero-history one-mode stack, from its amplitudes and eigenvalues in 60-digit
    arithmetic: the unfactored expansion with every ``E(c) = int_0^t
    e^(-c*s) ds`` taken whole."""
    assert traj.history.terms == ()
    with mpmath.workdps(60):
        delta = mpmath.mpf(traj.delta)
        t = mpmath.mpf(t)
        lams = [mpmath.mpc(lam) for lam in traj.eigenvalues[0]]
        f = [mpmath.mpc(amp) * mpmath.exp(lam * t) for amp, lam in zip(traj.v_amplitudes[0], lams)]
        v = sum(f)

        def e(c):
            return t if c == 0 else -mpmath.expm1(-c * t) / c

        recent = abs(v) ** 2 * e(delta)
        recent -= 2 * mpmath.re(mpmath.conj(v) * sum(fi * e(delta + li) for fi, li in zip(f, lams)))
        recent += mpmath.re(
            sum(
                fi * mpmath.conj(fj) * e(delta + li + mpmath.conj(lj))
                for fi, li in zip(f, lams)
                for fj, lj in zip(f, lams)
            )
        )
        remote = mpmath.exp(-delta * t) * abs(v) ** 2 / delta
        return float(mpmath.mpf(traj.xi[0]) ** mpmath.mpf(a) * (recent + remote))


@pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
def test_memory_energy_matches_60_digit_evaluation(a):
    # modes of the 2000-mode marginal family; at a = 0 the slow real root
    # sits within 1.4e-7 of -delta on mode 2000, so delta + lam nearly vanishes
    mpmath = pytest.importorskip("mpmath")
    params = p0_with_a(a)
    grid = square_grid(2000)
    xi, x0 = marginal_data(grid, 2000)
    rows = [k - 1 for k in (1, 1000, 1796, 2000)]
    trajs = exact_modal_evolve(xi[rows], x0[rows], params, DELTA)
    for t in (1.0, 2000.0):
        got = memory_energy_closed_form(trajs, t)
        for m, value in enumerate(got):
            expected = _memory_energy_60_digits(mpmath, trajs[m], t, a)
            assert value == pytest.approx(expected, rel=1e-9), (trajs.xi[m], t)


def test_memory_energy_single_term_guard_60_digits():
    # at a = 0 and xi = 4e6, delta + lam0 = 1.4e-7: at t = 1 the split single
    # term (f_0 - a_0 e^(-delta*t)) / (delta + lam0) would lose about seven
    # digits, so it must be taken whole; the pure real-branch sum
    # v = exp(lam0*t) leaves no other term to hide the loss
    mpmath = pytest.importorskip("mpmath")
    params = p0_with_a(0.0)
    traj = exact_modal_evolve([4e6], [[1.0, 0.0, 0.0, 0.0]], params, DELTA)
    assert abs(DELTA + traj.eigenvalues[0, 0]) < 2e-7
    pure = dataclasses.replace(traj, amplitudes=np.array([[1.0, 0.0, 0.0, 0.0, 0.0]], dtype=complex))
    for t in (1e-3, 1.0):
        expected = _memory_energy_60_digits(mpmath, pure, t, params.a)
        got = memory_energy_closed_form(pure, t)[0]
        assert got == pytest.approx(expected, rel=1e-12), t


@pytest.mark.parametrize(
    "alpha, bracket",
    [
        # the oscillatory pair; P0 is not coercive at delta = 0.5, so one root grows
        (2.0, (0.6, 0.7)),
        # the real root, in a coercive mode
        (4.0, (1.0, 1.2)),
    ],
)
def test_memory_energy_where_a_pair_exponent_vanishes(alpha, bracket):
    # at delta = 0.5 and a = 0.5 a root crosses Re lam = -delta/2, where
    # c_ii = delta + 2 Re lam_i = 0 and the split pair term is 0/0
    mpmath = pytest.importorskip("mpmath")
    delta = 0.5
    params = ModelParams(rho=1.0, mu=1.0, alpha=alpha, beta=1.0, gamma=0.5, a=0.5)

    def crossing(xi):
        lams = exact_modal_evolve([xi], [[1.0, 0.0, 0.0, 0.0]], params, delta).eigenvalues[0]
        return delta + 2.0 * lams[np.argmin(np.abs(delta + 2.0 * lams.real))].real

    lo, hi = bracket
    rising = crossing(hi) > crossing(lo)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (crossing(mid) > 0.0) == rising:
            hi = mid
        else:
            lo = mid
    xi_star = min((lo, hi), key=lambda xi: abs(crossing(xi)))
    assert abs(crossing(xi_star)) <= 1e-14
    if alpha == 2.0:
        assert xi_star == pytest.approx(0.670714, abs=1e-6)
    traj = exact_modal_evolve([xi_star], [[1.0, 0.0, 0.0, 0.0]], params, delta)
    times = np.array([1.0, 50.0, 200.0])
    got = memory_energy_closed_form(traj, times)[0]
    for t, value in zip(times, got):
        expected = _memory_energy_60_digits(mpmath, traj, t, params.a)
        assert value == pytest.approx(expected, rel=1e-12), t


def test_stacked_memory_energy_equals_single_calls():
    grid = square_grid(30)
    history = ExponentialPolyHistory((HistoryTerm(0.8, 1, 1.5), HistoryTerm(-0.3j, 0, 0.4)))
    ks = (1, 2, 7, 19, 30)
    xi = [grid.xi_of(k) for k in ks]
    x0 = [[1.0 / k, 0.2j, -0.1, 0.05 * k] for k in ks]
    times = np.array([[0.0, 0.3, 2.0], [10.0, 75.0, 400.0]])
    for hist in (ExponentialPolyHistory(), history):
        trajs = exact_modal_evolve(xi, x0, P0, DELTA, hist)
        stacked = memory_energy_closed_form(trajs, times)
        assert stacked.shape == (len(trajs),) + times.shape
        for m, row in enumerate(stacked):
            single = memory_energy_closed_form(trajs[m], times)[0]
            assert row == pytest.approx(single, rel=1e-14, abs=0.0)
        assert memory_energy_closed_form(trajs, 2.0) == pytest.approx(stacked[:, 0, 2], rel=1e-14)


def test_energy_trace_batches_memory_across_chunks(monkeypatch):
    # 130 eigen-expansion modes cross two chunk boundaries; one more mode
    # takes the dense route
    grid = square_grid(130)
    xi, x0 = marginal_data(grid, 130)
    xi = np.insert(xi, 40, grid.xi_of(3))
    x0 = np.insert(x0, 40, [0.1, 0.0, 0.05, 0.0], axis=0)
    trajs = exact_modal_evolve(xi, x0, P0, DELTA)
    trajs = dataclasses.replace(trajs, dense=np.arange(131) == 40)
    times = np.geomspace(0.5, 300.0, 12)

    sizes = []
    closed_form = timedomain.memory_energy_closed_form

    def recorded(chunk, t, **kwargs):
        sizes.append(len(chunk))
        return closed_form(chunk, t, **kwargs)

    monkeypatch.setattr(timedomain, "memory_energy_closed_form", recorded)
    trace = energy_trace(trajs, times)
    assert sum(sizes) == 130 and len(sizes) == 3
    assert max(sizes) <= timedomain._MEMORY_CHUNK

    parts = [np.zeros_like(times) for _ in range(4)]
    memory = np.zeros_like(times)
    for m in range(len(trajs)):
        traj = trajs[m]
        states = traj.state_at(times)[0]
        for acc, part in zip(parts, energy_parts(*states[:4], traj.xi, P0, KER1.zeta)):
            acc += part
        if traj.dense[0]:
            memory += [memory_energy_quadrature(traj, float(t)) for t in times]
        else:
            memory += closed_form(traj, times)[0]
    for got, expected in zip(
        (trace.stiffness, trace.kinetic_v, trace.coupling, trace.kinetic_p), parts
    ):
        assert np.array_equal(got, expected)
    assert trace.memory == pytest.approx(memory, rel=1e-13, abs=0.0)


def test_history_moments_closed_form():
    h = ExponentialPolyHistory((HistoryTerm(1.0, 1, 2.0),))
    assert history_mass(h, 1.0) == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert history_sq_mass(h, 1.0) == pytest.approx(2.0 / 125.0, rel=1e-14)


def test_history_enters_through_initial_convolution():
    h = ExponentialPolyHistory((HistoryTerm(0.8, 0, 1.5),))
    traj = evolve(history=h)
    assert traj.x0[0, 4] == pytest.approx(0.8 / 2.5, rel=1e-14)
    for t in (0.0, 0.7):
        closed = float(memory_energy_closed_form(traj, t)[0])
        quad = memory_energy_quadrature(traj, t)
        assert closed == pytest.approx(quad, abs=1e-8 * max(1.0, closed))


def test_trace_monotone_and_split_consistent():
    grid = square_grid(6)
    trajs = exact_modal_evolve(
        [grid.xi_of(1), grid.xi_of(3)], [[1.0, 0.0, 0.0, 0.0], [0.2, 0.1, 0.0, -0.3]], P0, DELTA
    )
    times = np.linspace(0.0, 20.0, 201)
    trace = energy_trace(trajs, times)
    assert np.all(np.diff(trace.total) <= 1e-9 * trace.total[0])
    recomputed = (
        trace.stiffness + trace.kinetic_v + trace.coupling + trace.kinetic_p + trace.memory
    )
    assert trace.total == pytest.approx(recomputed)


def test_dissipation_residual_zero_state():
    traj = evolve(v=0.0)
    trace = energy_trace(traj, np.linspace(1.0, 1.01, 5))
    assert np.all(trace.residual[1:-1] == 0.0)


def test_dissipation_identity_residual():
    traj = evolve()
    times = 1.0 + 1e-4 * np.arange(-5, 6)
    trace = energy_trace(traj, times)
    e0 = energy_trace(traj, np.array([0.0, 1e-4, 2e-4])).total[0] / 2.0
    assert trace.residual[5] <= 1e-6 * e0


def test_dissipation_residual_second_order_in_step():
    traj = evolve(v=1.0, u=0.4)
    ratios = []
    for dt in (2e-3, 1e-3, 5e-4):
        times = 1.0 + dt * np.arange(-1, 2)
        trace = energy_trace(traj, times)
        ratios.append(trace.residual[1])
    assert ratios[1] / ratios[0] == pytest.approx(0.25, abs=0.15)
    assert ratios[2] / ratios[1] == pytest.approx(0.25, abs=0.15)


def test_general_kernel_matches_exact_evolution():
    s = np.arange(0.0, 14.0 + 1e-12, 5e-4)
    tab = TabulatedKernel(s=s, g_values=np.exp(-s), k0=1.0, k1=1.0)
    grid = square_grid(3)
    xi, y0 = grid.xi_of(1), [1.0, 0.0, 0.0, 0.0]
    trace_g = evolve_general_kernel(xi, y0, P0, tab, T=10.0, dt=1e-3, sample_every=100)
    traj = exact_modal_evolve([xi], [y0], P0, DELTA)
    trace_e = energy_trace(traj, trace_g.times)
    rel = np.abs(trace_g.total - trace_e.total) / trace_e.total
    assert np.max(rel) <= 1e-4
    assert np.all(np.diff(trace_g.total) <= 1e-9 * trace_g.total[0])


def test_general_kernel_truncated_window_matches_exact_evolution():
    # the pinch truncates the convolution at log(1e14)/8 = 4.03, so from step
    # 4,030 of 10,000 on every history sum runs over the truncated window
    s = np.arange(0.0, 5.0 + 1e-12, 1e-3)
    tab = TabulatedKernel(s=s, g_values=np.exp(-8.0 * s), k0=8.0, k1=8.0)
    grid = square_grid(3)
    xi, y0 = grid.xi_of(1), [1.0, 0.0, 0.0, 0.0]
    trace_g = evolve_general_kernel(xi, y0, P0, tab, T=10.0, dt=1e-3, sample_every=100)
    traj = exact_modal_evolve([xi], [y0], P0, 8.0)
    trace_e = energy_trace(traj, trace_g.times)
    rel = np.abs(trace_g.total - trace_e.total) / trace_e.total
    assert np.max(rel) <= 1e-4
    assert np.all(np.diff(trace_g.total) <= 1e-9 * trace_g.total[0])


def test_general_kernel_is_second_order_on_exponential_kernel():
    grid = square_grid(3)
    xi, y0 = grid.xi_of(1), [1.0, 0.0, 0.0, 0.0]
    traj = exact_modal_evolve([xi], [y0], P0, DELTA)
    errors = []
    for dt, every in ((4e-3, 100), (2e-3, 200), (1e-3, 400)):
        trace_g = evolve_general_kernel(xi, y0, P0, KER1, T=4.0, dt=dt, sample_every=every)
        trace_e = energy_trace(traj, trace_g.times)
        errors.append(np.max(np.abs(trace_g.total - trace_e.total) / trace_e.total))
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert 3.5 <= errors[1] / errors[2] <= 4.5


def test_general_kernel_beyond_exponential():
    s = np.arange(0.0, 14.0 + 1e-12, 1e-3)
    g = np.exp(-s) * (1.0 + 0.2 * np.exp(-s))
    tab = TabulatedKernel(s=s, g_values=g, k0=1.17, k1=0.999)
    grid = square_grid(3)
    trace = evolve_general_kernel(grid.xi_of(1), [1.0, 0.0, 0.0, 0.0], P0, tab, T=6.0, dt=1e-3, sample_every=50)
    assert np.all(np.diff(trace.total) <= 1e-9 * trace.total[0])
    assert np.nanmax(trace.residual[1:-1]) <= 1e-3 * trace.total[0]


def stepped_general_kernel(xi, y0, params, kernel, T, dt, sample_every):
    """The general-kernel scheme stepped one implicit-midpoint step at a time,
    with one history dot product per step: the oracle for the series solve."""
    xi_a = xi**params.a
    n_steps = int(round(T / dt))
    window = min(n_steps, int(math.ceil(math.log(1e14) / kernel.k1 / dt)))
    s_grid = dt * np.arange(window + 1)
    g_grid = kernel.g(s_grid)
    table = np.stack([g_grid, kernel.g_prime(s_grid)])[:, ::-1]
    amat = memoryless_generator(xi, params)
    lhs = np.linalg.inv(np.eye(4) - 0.5 * dt * amat)
    rhs = np.eye(4) + 0.5 * dt * amat
    col = lhs[:, 1] * dt * xi_a / (2.0 * params.rho)
    kappa = 0.5 * dt * g_grid[0]
    gain = col * kappa / (1.0 - col[0] * kappa)
    y = np.array(y0, dtype=complex)
    v = np.full(n_steps + 1, y[0])
    samples, conv = [y], 0.0
    for n in range(n_steps):
        m = min(n + 1, window)
        lo = n + 1 - m
        rest = dt * (table[0, window - m : window] @ v[lo : n + 1] - 0.5 * g_grid[m] * v[lo])
        z = lhs @ (rhs @ y) + col * (conv + rest)
        y = z + gain * z[0]
        v[n + 1], conv = y[0], kappa * y[0] + rest
        if (n + 1) % sample_every == 0:
            samples.append(y)
    samples = np.array(samples)
    idx = np.arange(0, n_steps + 1, sample_every)
    m = np.minimum(idx, window)
    recent = np.empty((idx.size, 2))
    for i, (n, mi) in enumerate(zip(idx, m)):
        eta_sq = np.abs(samples[i, 0] - v[n - mi : n + 1]) ** 2
        recent[i] = dt * (table[:, window - mi :] @ eta_sq - 0.5 * table[:, window - mi] * eta_sq[0])
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (g_grid[1:] + g_grid[:-1]) * dt)])
    v_sq = np.abs(samples[:, 0]) ** 2
    mem = xi_a * (recent[:, 0] + v_sq * (kernel.zeta - cumulative[m]))
    dissipation = xi_a * (recent[:, 1] - g_grid[m] * v_sq)
    parts = energy_parts(*samples.T, xi, params, kernel.zeta)
    return EnergyTrace.from_parts(dt * idx, *parts, mem, dissipation)


def _table(rate, k1, s_max=6.0):
    s = np.arange(0.0, s_max + 1e-12, 1e-3)
    g = np.exp(-rate * s) * (1.0 + 0.2 * np.exp(-s))
    return TabulatedKernel(s=s, g_values=g, k0=1.2 * rate, k1=k1)


@pytest.mark.parametrize(
    "kernel, k, y0, T, dt, every",
    [
        # complex state with every coordinate non-zero
        (_table(1.0, 0.999), 2, [1.0 + 0.5j, -0.3 + 0.2j, 0.1j, 0.4], 3.0, 1e-3, 50),
        # truncated window: log(1e14)/8 = 4.03, so the last 1,970 steps run over it
        (_table(8.0, 8.0), 1, [1.0, 0.2, 0.0, -0.1], 6.0, 1e-3, 100),
        # window == 1
        (ExponentialKernel(1e4), 1, [1.0, 0.2, 0.0, 0.0], 2.0, 1e-2, 10),
        (KER1, 1, [1.0, 0.0, 0.3, 0.0], 20.0, 0.05, 1),
        # 7 does not divide the 2,000 steps
        (KER1, 3, [0.5, 1.0, 0.0, 0.2j], 2.0, 1e-3, 7),
        (KER1, 1, [1.0, 0.1, 0.2, 0.3], 0.01, 0.01, 1),
        (KER1, 1, [1.0, 0.1, 0.2, 0.3], 0.03, 0.01, 1),
    ],
    ids=["complex", "truncated", "window1", "dt0.05", "ragged", "1step", "3steps"],
)
def test_general_kernel_series_matches_stepping(kernel, k, y0, T, dt, every):
    xi = square_grid(3).xi_of(k)
    trace = evolve_general_kernel(xi, y0, P0, kernel, T=T, dt=dt, sample_every=every)
    oracle = stepped_general_kernel(xi, y0, P0, kernel, T, dt, every)
    assert np.array_equal(trace.times, oracle.times)
    assert np.max(np.abs(trace.total - oracle.total) / oracle.total) <= 1e-11
    scale = np.max(oracle.total)
    for part in ("stiffness", "kinetic_v", "coupling", "kinetic_p", "memory"):
        assert np.max(np.abs(getattr(trace, part) - getattr(oracle, part))) <= 1e-11 * scale


def test_general_kernel_aborts_on_increasing_table():
    s = np.linspace(0.0, 5.0, 500)
    g = np.exp(-s)
    g[100] = g[99] * 1.01
    tab = TabulatedKernel(s=s, g_values=g, k0=2.0, k1=0.1)
    with pytest.raises(InvalidModelError, match="stopped decreasing"):
        evolve_general_kernel(square_grid(2).xi_of(1), [1.0, 0.0, 0.0, 0.0], P0, tab, T=2.0, dt=1e-2, sample_every=10)


def test_dense_fallback_matches_expansion():
    traj = evolve(v=1.0, u=0.2)
    dense = dataclasses.replace(traj, dense=np.array([True]))
    for t in (0.0, 0.9, 2.5):
        assert dense.state_at(t) == pytest.approx(traj.state_at(t), abs=1e-10)


def test_state_at_two_dimensional_times():
    # one mode forced dense; BLAS rounding depends on the number of time
    # columns, so the rows agree to roundoff rather than bit for bit
    grid = square_grid(4)
    trajs = exact_modal_evolve(*marginal_data(grid, 3), P0, DELTA)
    trajs = dataclasses.replace(trajs, dense=np.array([False, True, False]))
    times = np.array([[0.0, 0.4, 1.3], [2.0, 7.5, 30.0]])
    states = trajs.state_at(times)
    assert states.shape == (3, 5) + times.shape
    for r, row in enumerate(times):
        expected = trajs.state_at(row)
        assert np.max(np.abs(states[:, :, r] - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_colliding_roots_take_the_dense_route(monkeypatch):
    # the collision threshold is 1e-8 of max(1, |lam|): mode 2 (|lam| ~ 3)
    # falls under it and mode 3 (|lam| ~ 4.5) just clears it
    solve = timedomain.quintic_roots

    def colliding(xi, params, delta):
        branch = solve(xi, params, delta)
        roots = branch.roots.copy()
        roots[1, 4] = roots[1, 3] + 2e-8
        roots[2, 4] = roots[2, 3] + 6e-8
        return dataclasses.replace(branch, roots=roots)

    grid = square_grid(3)
    xi, x0 = marginal_data(grid, 3)
    plain = exact_modal_evolve(xi, x0, P0, DELTA)
    monkeypatch.setattr(timedomain, "quintic_roots", colliding)
    trajs = exact_modal_evolve(xi, x0, P0, DELTA)
    assert trajs.dense.tolist() == [False, True, False]
    assert not trajs[1].amplitudes.any()
    assert np.array_equal(trajs[0].amplitudes, plain[0].amplitudes)
    assert trajs[1].state_at(0.7) == pytest.approx(plain[1].state_at(0.7), abs=1e-10)


def test_marginal_family_amplitudes():
    grid = square_grid(50)
    amps = marginal_data_amplitudes(grid.xi)
    k = np.arange(1, 51)
    assert amps == pytest.approx(k**-2.51)
    x0 = marginal_data(grid, 50)[1]
    assert x0[0, 0] == pytest.approx(1.0)
    assert not x0[:, 1:].any()
