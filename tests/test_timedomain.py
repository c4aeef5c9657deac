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
from memwave.spectral import eigvec, modal_generator, quintic_roots
from memwave.timedomain import (
    EnergyTrace,
    ModalTrajectories,
    energy_trace,
    evolve_general_kernel,
    exact_modal_evolve,
    marginal_data_amplitudes,
    memory_energy_closed_form,
)
from oracles import five_term_trace, memory_energy_quadrature

DELTA = KER1.delta


def evolve(k=1, grid=None, v=1.0, u=0.0, p=0.0, q=0.0, params=P0):
    grid = grid or square_grid(4)
    return exact_modal_evolve([grid.xi_of(k)], [[v, u, p, q]], params, DELTA)


def real_states(trajs, t):
    """``(v, u, p, q, I)`` of every mode at ``t``, shape ``(modes, 5) +
    t.shape``, by the real state map ``Re(V C)`` of the pair coordinates,
    whose first four rows ``energy_trace`` applies."""
    t = np.asarray(t, dtype=float)
    states = (trajs.eigvecs @ trajs.pair_basis()).real @ trajs.pair_coordinates(t.reshape(-1))
    return states.reshape((len(trajs), 5) + t.shape)


def test_zero_initial_data_stays_zero():
    traj = evolve(v=0.0)
    states = real_states(traj, np.linspace(0, 5, 7))
    assert np.max(np.abs(states)) == 0.0


def test_initial_state_reconstruction():
    traj = evolve(v=1.0, u=0.3, p=-0.2, q=0.75)
    x0 = real_states(traj, 0.0)
    assert np.max(np.abs(x0 - traj.x0)) <= 1e-10
    assert np.all(traj.eigvecs[:, 0, :] == 1.0)


def test_trajectory_satisfies_reduced_system():
    traj = evolve(v=1.0, u=0.5)
    gen = modal_generator(square_grid(4).xi_of(1), P0, DELTA)
    h = 1e-5
    for t in (0.5, 1.7):
        derivative = (real_states(traj, t + h)[0] - real_states(traj, t - h)[0]) / (2 * h)
        rhs = gen @ real_states(traj, t)[0]
        assert np.max(np.abs(derivative - rhs)) <= 1e-6 * max(1.0, np.max(np.abs(rhs)))


def test_superposition_linearity():
    grid = square_grid(4)
    t = np.linspace(0, 3, 11)
    a_part = evolve(v=1.0, q=0.2)
    b_part = evolve(v=0.0, u=1.0, p=0.5)
    combined = exact_modal_evolve([grid.xi_of(1)], [[2.0 * 1.0, 3.0 * 1.0, 3.0 * 0.5, 2.0 * 0.2]], P0, DELTA)
    mix = 2.0 * real_states(a_part, t) + 3.0 * real_states(b_part, t)
    assert np.max(np.abs(real_states(combined, t) - mix)) <= 1e-10 * np.max(np.abs(mix) + 1)


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
    traj = evolve(v=1.0, u=-0.3, p=0.2)
    for t in (0.5, 1.0, 3.0):
        closed = float(memory_energy_closed_form(traj, t)[0])
        quad = memory_energy_quadrature(traj, t)
        assert closed == pytest.approx(quad, abs=1e-8 * max(1.0, closed))


@pytest.mark.parametrize("k", [1, 10, 30])
def test_memory_energy_quadrature_resolves_oscillatory_modes(k):
    # |Im lam|*t/(2*pi) reaches ~1400 oscillations at k = 30, t = 200; the
    # dense replica takes the matrix form in energy_trace
    traj = exact_modal_evolve([square_grid(40).xi_of(k)], [[1.0, 0.0, 0.0, 0.0]], P0, DELTA)
    dense = dataclasses.replace(traj, dense=np.array([True]))
    times = np.array([10.0, 50.0, 200.0])
    matrix = energy_trace(dense, times).memory
    for t, closed, value in zip(times, memory_energy_closed_form(traj, times)[0], matrix):
        quadrature = memory_energy_quadrature(traj, t)
        assert quadrature == pytest.approx(closed, rel=1e-10), t
        assert value == pytest.approx(quadrature, rel=1e-10), t


def _memory_energy_60_digits(mpmath, traj, t, a):
    """``xi^a * int_0^inf e^(-delta*s) |v(t) - v(t-s)|^2 ds`` for a
    one-mode stack, from its amplitudes and eigenvalues in 60-digit
    arithmetic: the unfactored expansion with every ``E(c) = int_0^t
    e^(-c*s) ds`` taken whole."""
    with mpmath.workdps(60):
        delta = mpmath.mpf(traj.delta)
        t = mpmath.mpf(t)
        lams = [mpmath.mpc(lam) for lam in traj.eigenvalues[0]]
        f = [mpmath.mpc(amp) * mpmath.exp(lam * t) for amp, lam in zip(traj.amplitudes[0], lams)]
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
    # at a = 0 and xi = 4e6, delta + lam0 = 1.4e-7, so the history row h has
    # an entry of 7e6.  From rest the single terms sum to I(t) = h.r exactly,
    # with no split to lose digits to.  The pure real-branch replica v =
    # exp(lam0*t) has I(0) = 1/(delta + lam0) instead of 0: at t = 1e-3 the
    # form would read -1.4e7 against 0.997 there, so it is refused
    mpmath = pytest.importorskip("mpmath")
    params = p0_with_a(0.0)
    traj = exact_modal_evolve([4e6, 4e6], [[1.0, 0.0, 0.0, 0.0], [1.0, 0.3, -0.2, 0.1]], params, DELTA)
    assert abs(DELTA + traj.eigenvalues[0, 0]) < 2e-7
    pure = dataclasses.replace(traj[0], amplitudes=np.array([[1.0, 0.0, 0.0, 0.0, 0.0]], dtype=complex))
    with pytest.raises(InvalidModelError, match="data from rest"):
        memory_energy_closed_form(pure, 1.0)
    for t in (1e-3, 1.0):
        got = memory_energy_closed_form(traj, t)
        for m in range(len(traj)):
            expected = _memory_energy_60_digits(mpmath, traj[m], t, params.a)
            assert got[m] == pytest.approx(expected, rel=1e-12), (m, t)


def _five_terms_from_rest(xi, params, delta):
    """The one-mode trajectory from ``v = 1`` at rest as five exponential
    terms: the quintic roots, their eigenvectors and one solve for the
    amplitudes, as ``exact_modal_evolve`` builds it, but also at a mode that
    is not coercive, which ``exact_modal_evolve`` refuses."""
    xi = np.array([xi])
    lams = quintic_roots(xi, params, delta).roots
    vmat = np.swapaxes(eigvec(lams, xi[:, None], params, delta), 1, 2)
    x0 = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
    amps = np.linalg.solve(vmat, x0[:, :, None])[..., 0]
    return ModalTrajectories(xi, lams, vmat, amps, x0, np.array([False]), delta, params)


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
    # c_ii = delta + 2 Re lam_i = 0 and the split pair term is 0/0; the
    # oscillatory pair crosses only where the mode is not coercive, so the
    # trajectory is built here rather than by exact_modal_evolve
    mpmath = pytest.importorskip("mpmath")
    delta = 0.5
    params = ModelParams(rho=1.0, mu=1.0, alpha=alpha, beta=1.0, gamma=0.5, a=0.5)

    def crossing(xi):
        lams = _five_terms_from_rest(xi, params, delta).eigenvalues[0]
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
    traj = _five_terms_from_rest(xi_star, params, delta)
    times = np.array([1.0, 50.0, 200.0])
    got = memory_energy_closed_form(traj, times)[0]
    for t, value in zip(times, got):
        expected = _memory_energy_60_digits(mpmath, traj, t, params.a)
        assert value == pytest.approx(expected, rel=1e-12), t


def test_stacked_memory_energy_equals_single_calls():
    grid = square_grid(30)
    ks = (1, 2, 7, 19, 30)
    xi = [grid.xi_of(k) for k in ks]
    x0 = [[1.0 / k, 0.2, -0.1, 0.05 * k] for k in ks]
    times = np.array([[0.0, 0.3, 2.0], [10.0, 75.0, 400.0]])
    trajs = exact_modal_evolve(xi, x0, P0, DELTA)
    stacked = memory_energy_closed_form(trajs, times)
    assert stacked.shape == (len(trajs),) + times.shape
    for m, row in enumerate(stacked):
        single = memory_energy_closed_form(trajs[m], times)[0]
        assert row == pytest.approx(single, rel=1e-14, abs=0.0)
    assert memory_energy_closed_form(trajs, 2.0) == pytest.approx(stacked[:, 0, 2], rel=1e-14)


def test_energy_trace_batches_memory_across_chunks(monkeypatch):
    # 130 eigen-expansion modes cross two chunk boundaries; one more mode
    # takes the dense route.  Each mode's parts are the same real maps of its
    # own pair coordinates in a chunk as alone, and enter the sums in mode
    # order either way, so the chunked trace is the per-mode traces summed
    sizes = []
    closed_form = timedomain.memory_energy_closed_form

    def recorded(chunk, t, **kwargs):
        sizes.append(len(chunk))
        return closed_form(chunk, t, **kwargs)

    trajs, times = _chunk_stack()
    trajs = dataclasses.replace(trajs, dense=np.arange(131) == 40)
    monkeypatch.setattr(timedomain, "memory_energy_closed_form", recorded)
    trace = energy_trace(trajs, times)
    assert sum(sizes) == 130 and len(sizes) == 3
    assert max(sizes) <= timedomain._MEMORY_CHUNK

    expected = np.zeros((5,) + times.shape)
    for m in range(len(trajs)):
        expected += _columns(energy_trace(trajs[m], times))
    assert np.array_equal(_columns(trace), expected)


def _columns(trace):
    return np.stack([trace.stiffness, trace.kinetic_v, trace.coupling, trace.kinetic_p, trace.memory])


def _chunk_stack():
    """131 modes of the marginal family, mode 3 inserted at row 40 with data
    of its own, and 12 log-spaced times."""
    grid = square_grid(130)
    xi, x0 = marginal_data(grid, 130)
    xi = np.insert(xi, 40, grid.xi_of(3))
    x0 = np.insert(x0, 40, [0.1, 0.0, 0.05, 0.0], axis=0)
    return exact_modal_evolve(xi, x0, P0, DELTA), np.geomspace(0.5, 300.0, 12)


def _random_stack(n=70):
    """``n`` modes of random data, every coordinate nonzero."""
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(n, 4)) / np.arange(1, n + 1)[:, None] ** 2
    return exact_modal_evolve(square_grid(n).xi, x0, P0, DELTA)


def _degenerate_stack():
    # README parameters at a = 0.9: at xi = 0.00373 and 0.00375 slots 3 and 4
    # hold two distinct real roots, a degenerate labelling with partners
    # (0, 2, 1, 3, 4); xi = 0.004 has the standard (0, 2, 1, 4, 3), here with
    # two rows of data
    x0 = [[1.0, 0.3, -0.2, 0.1], [1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.2], [0.0, 1.0, 0.0, 0.0]]
    return exact_modal_evolve([0.00373, 0.00375, 0.004, 0.004], x0, p0_with_a(0.9), DELTA)


README_TIMES = np.geomspace(1.0, 2000.0, 60)


@pytest.mark.parametrize(
    "stack",
    [lambda: (_readme_stack(), README_TIMES), _chunk_stack, lambda: (_random_stack(), README_TIMES)],
    ids=["readme", "chunks", "random"],
)
def test_energy_trace_matches_the_five_term_reference(stack):
    # the reference evaluates all five complex terms; the largest measured
    # gap is 2.7e-15, in the memory column of the random stack
    trajs, times = stack()
    got, expected = _columns(energy_trace(trajs, times)), five_term_trace(trajs, times)
    rel = np.max(np.abs(got - expected) / expected, axis=1)
    assert np.all(rel <= 5e-15), rel


def test_degenerate_labels_take_their_own_partners():
    # the stack holds two labellings, so each chunk runs one pass per pattern,
    # and gives each row the parts it gets alone.  The two nearly equal real
    # roots make the eigenvectors ill-conditioned (condition numbers 1.6e4 to
    # 7.6e4).  Each row's trace is checked against the five-term reference
    # relative to that row's own column maxima: the memory column differs by
    # up to 5.0e-12 on row 0, 1.5e-15 on row 1, 5.1e-13 on row 2 and 2.2e-12
    # on row 3, the others by up to 1.6e-14.  At t = 485, where row 0's
    # memory energy has decayed to 7e-4 of its start, row 0's differs from a
    # matrix-exponential quadrature by 1.1e-9 and the other rows' by at most
    # 9.4e-12
    trajs = _degenerate_stack()
    assert trajs.partners.tolist() == [[0, 2, 1, 3, 4]] * 2 + [[0, 2, 1, 4, 3]] * 2
    assert not trajs.dense.any()
    summed = np.zeros((5, README_TIMES.size))
    for m, memory_bound in enumerate([2e-11, 1e-14, 1e-12, 6e-12]):
        got, expected = _columns(energy_trace(trajs[m], README_TIMES)), five_term_trace(trajs[m], README_TIMES)
        rel = np.max(np.abs(got - expected), axis=1) / np.max(np.abs(expected), axis=1)
        assert np.all(rel[:4] <= 5e-14) and rel[4] <= memory_bound, (m, rel)
        summed += got
    assert np.array_equal(_columns(energy_trace(trajs, README_TIMES)), summed)
    t = README_TIMES[-12]
    quadrature = [memory_energy_quadrature(dataclasses.replace(trajs[m], dense=np.array([True])), t) for m in range(4)]
    gap = np.abs(memory_energy_closed_form(trajs, t) - quadrature) / quadrature
    assert np.all(gap <= [5e-9, 2e-11, 2e-11, 2e-11]), gap


def test_each_labelling_takes_its_own_unit_basis():
    # at t = 0 the amplitude-free coordinates are the unit vector of each
    # row's labelling, so Re(V C) r(0) is the row's data: through pair_basis,
    # and through the state maps the trace builds, one unit basis per
    # labelling for the whole stack
    trajs = _degenerate_stack()
    r0 = trajs.pair_coordinates(0.0)
    assert np.array_equal(r0, (trajs.partners >= np.arange(5)).astype(float))
    assert np.max(np.abs(real_states(trajs, 0.0) - trajs.x0)) <= 1e-10
    states = timedomain._memory_form(trajs, 1.0).states
    assert np.max(np.abs(np.einsum("nij,nj->ni", states, r0) - trajs.x0)) <= 1e-10
    # a lone term of a degenerate row's second real root is not at rest
    amps = trajs.amplitudes.copy()
    amps[0] = [0.0, 0.0, 0.0, 1.0, 0.0]
    with pytest.raises(InvalidModelError, match="data from rest"):
        timedomain._memory_form(dataclasses.replace(trajs, amplitudes=amps), 1.0)


def test_real_data_trace_takes_one_tangent_per_pair_and_no_complex_exponential(monkeypatch):
    # no complex (modes, 5, times) array: the matrix form is never taken, no
    # exp is complex, and each pair's phase is one tan of a (rows, 2, times)
    # block, the two lead roots of every mode
    trajs = _readme_stack()
    exp, tan = np.exp, np.tan
    complex_exps, tans = [], []

    def recording_exp(x, *args, **kwargs):
        out = exp(x, *args, **kwargs)
        if np.iscomplexobj(out):
            complex_exps.append(out.shape)
        return out

    def recording_tan(x, *args, **kwargs):
        tans.append(np.shape(x))
        return tan(x, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a mode took the matrix form")

    monkeypatch.setattr(timedomain, "_matrix_parts", refused)
    monkeypatch.setattr(timedomain.np, "exp", recording_exp)
    monkeypatch.setattr(timedomain.np, "tan", recording_tan)
    trace = energy_trace(trajs, README_TIMES)
    monkeypatch.undo()
    assert all(getattr(trace, name).dtype == np.float64 for name in ("stiffness", "kinetic_v", "coupling", "kinetic_p", "memory", "residual"))
    assert complex_exps == []
    assert {shape[1:] for shape in tans} == {(2, README_TIMES.size)}
    assert sum(shape[0] for shape in tans) == len(trajs)


def _near_half_poles(omega):
    """Times where ``omega*t/2`` lies within 1e-6 of an odd multiple of
    ``pi/2``, where ``tan`` is near its poles: the closest double, and 1e-6
    and 3e-7 off either side, at the first and the 1001st pole."""
    poles = (2.0 * np.array([0.0, 1000.0]) + 1.0) * (0.5 * np.pi)
    return np.add.outer(poles, [0.0, 1e-6, -1e-6, 3e-7, -3e-7]).ravel() * (2.0 / omega)


@pytest.mark.parametrize("k", [1, 50, 200])
def test_tangent_pair_coordinates_match_40_digits(k):
    # the reference is exp(lam*t) in 40 digits at the exponent the code
    # rounds to, fl(sigma*t) + i*2*fl(0.5*omega*t): the phase rounding itself
    # is left out.  The coordinates carry no amplitudes, so neither does the
    # reference or its bound.  Times: t = 0, near the poles of tan(omega*t/2)
    # for both pairs, and t = 2000, the README's largest, where omega*t
    # reaches 5.9e5 at k = 200
    mpmath = pytest.importorskip("mpmath")
    traj = _readme_stack()[k - 1]
    lams = traj.eigenvalues[0]
    assert traj.partners[0].tolist() == [0, 2, 1, 4, 3]
    times = np.concatenate([[0.0, 2000.0], _near_half_poles(lams[1].imag), _near_half_poles(lams[3].imag)])
    r = traj.pair_coordinates(times)[0]
    with mpmath.workdps(40):
        for j, t in enumerate(times):
            for i, slots in ((0, (0, 0)), (1, (1, 2)), (3, (3, 4))):
                sigma_t, half = lams[i].real * t, 0.5 * lams[i].imag * t
                f = mpmath.exp(mpmath.mpf(sigma_t)) * mpmath.expj(2 * mpmath.mpf(half))
                bound = 1e-15 * math.exp(sigma_t)
                assert abs(r[slots[0], j] - float(f.real)) <= bound, (i, t)
                if slots[1] != slots[0]:
                    assert abs(r[slots[1], j] - float(f.imag)) <= bound, (i, t)
    # at t = 0 every exp(lam*t) is 1: the unit vector of the labelling
    assert r[:, 0].tolist() == [1.0, 1.0, 0.0, 1.0, 0.0]


def test_underflowing_real_exponentials_are_skipped_exactly():
    # on the README times the real root of every README mode puts lam*t below
    # -745.14 by t = 2000, where its exp is left out: those lanes hold +0.0,
    # and every real-root coordinate, the subnormal ones among them, is
    # np.exp of the same rounded exponent, bit for bit
    trajs = _readme_stack()
    assert (trajs.partners[:, 0] == 0).all()
    exponent = np.multiply.outer(trajs.eigenvalues[:, 0].real, README_TIMES)
    skipped = exponent <= -745.14
    assert skipped[:, -1].all() and not skipped[:, 0].any()
    r = trajs.pair_coordinates(README_TIMES)[:, 0]
    assert np.array_equal(r, np.exp(exponent)) and not np.signbit(r).any()
    assert (r[skipped] == 0.0).all() and ((0.0 < r) & (r < np.finfo(float).tiny)).any()


def test_unpaired_row_takes_the_dense_route(monkeypatch):
    # slot 2 of row 7 one ulp off the conjugate of slot 1: its real
    # coordinates would drop that ulp, so the row takes the matrix form
    trajs = _one_ulp_off(_readme_stack()[:12], 7)
    assert (trajs.partners[7] == -1).tolist() == [False, True, True, False, False]
    with pytest.raises(InvalidModelError, match="conjugate pairs"):
        memory_energy_closed_form(trajs, 1.0)
    with pytest.raises(InvalidModelError, match="conjugate partner"):
        trajs.pair_coordinates(1.0)
    matrix_parts = timedomain._matrix_parts
    rows = []

    def recorded(stack, tt):
        rows.append(stack.xi.tolist())
        return matrix_parts(stack, tt)

    monkeypatch.setattr(timedomain, "_matrix_parts", recorded)
    got = _columns(energy_trace(trajs, README_TIMES))
    assert rows == [[float(trajs.xi[7])]]
    expected = five_term_trace(trajs, README_TIMES)
    assert np.max(np.abs(got - expected) / expected) <= 1e-10


def _lifted_parts_60_digits(mpmath, trajs, steps):
    """The five parts of every mode of a stack that shares one ``xi``, shape
    ``(modes, 5, len(steps))``, at the times ``t = n`` for the increasing
    integers ``n`` in ``steps``, each a multiple of the one before, from the
    generator ``G`` and the data ``x0`` in 60-digit arithmetic: the
    states from powers of ``mp.expm(G)``, and ``int_0^t e^(-delta*s)
    |v(t-s)|^2 ds`` from powers of the exponential of the lifted system
    ``[[G (+) G, 0], [vec(e0 e0^T)^T, -delta]]`` on ``(x0 (x) conj(x0), 0)``,
    with no Lyapunov solve."""
    out = np.empty((len(trajs), 5, len(steps)))
    params, delta = trajs.params, trajs.delta
    with mpmath.workdps(60):
        g = mpmath.matrix(modal_generator(float(trajs.xi[0]), params, delta).tolist())
        lift = mpmath.zeros(26, 26)
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    lift[5 * i + j, 5 * k + j] += g[i, k]
                    lift[5 * i + j, 5 * i + k] += g[j, k]
        lift[25, 0] = 1
        lift[25, 25] = -delta
        xi = mpmath.mpf(trajs.xi[0])
        states, lifted, done = mpmath.expm(g), mpmath.expm(lift), 1
        for j, n in enumerate(steps):
            states, lifted, done = states ** (n // done), lifted ** (n // done), n
            for m, data in enumerate(trajs.x0):
                x0 = mpmath.matrix([mpmath.mpc(c) for c in data])
                y0 = mpmath.matrix([x0[i] * mpmath.conj(x0[k]) for i in range(5) for k in range(5)] + [0])
                x = states * x0
                recent = mpmath.re((lifted * y0)[25])
                memory = abs(x[0]) ** 2 / delta - 2 * mpmath.re(mpmath.conj(x[0]) * x[4]) + recent
                mechanical = energy_parts(*x[:4], xi, params, 1 / mpmath.mpf(delta))
                out[m, :, j] = [float(part) for part in mechanical] + [float(xi ** mpmath.mpf(params.a) * memory)]
    return out


@pytest.mark.parametrize(
    "case",
    [
        # README parameters at a = 0.9: the exceptional-point mode of
        # test_simulate_through_a_real_exceptional_point, where min|c_ij|*t_max
        # = 0.198 at t_max = 50 and the split form cancels; measured worst
        # 1.3e-10 in memory (v0 = 1 at t = 50), 2.4e-15 in the others
        ("exceptional-point", 0.003761474648682634, p0_with_a(0.9), [[1.0, 0, 0, 0], [1.0, 0.3, -0.2, 0.1]], [1, 10, 50], 3e-10, 1e-14),
        # xi = 151^2 forced dense at README times 1 and 2000 and the end of its
        # fit window: the double-precision phase of expm(G t), ~4e5 radians at
        # t = 2000, limits every part; measured worst 1.1e-9 in memory and
        # 4.7e-10 in the others, at t = 1000 and 2000
        ("dense-151sq", 151.0**2, P0, [[1.0, 0, 0, 0]], [1, 1000, 2000], 2e-9, 1e-9),
    ],
    ids=lambda case: case[0],
)
def test_matrix_form_matches_60_digit_lifted_exponential(case):
    # memory relative to itself, the mechanical parts relative to the total
    mpmath = pytest.importorskip("mpmath")
    _, xi, params, x0, steps, memory_bound, mechanical_bound = case
    times = np.array(steps, dtype=float)
    trajs = exact_modal_evolve([xi] * len(x0), x0, params, DELTA)
    trajs = dataclasses.replace(trajs, dense=np.ones(len(trajs), dtype=bool))
    reference = _lifted_parts_60_digits(mpmath, trajs, steps)
    for m, expected in enumerate(reference):
        got = _columns(energy_trace(trajs[m], times))
        error = np.abs(got - expected)
        assert np.all(error[4] <= memory_bound * expected[4]), (m, error[4] / expected[4])
        assert np.all(error[:4] <= mechanical_bound * expected.sum(axis=0)), m


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_residual_is_nan_without_a_centred_difference(n):
    # np.gradient refuses a single sample and is one-sided at the ends; a
    # warning on the way would fail the test
    trace = energy_trace(evolve(), np.linspace(1.0, 1.01, n))
    assert np.isnan(trace.residual[[0, -1]]).all()
    assert np.isfinite(trace.residual[1:-1]).all() and trace.residual.shape == (n,)


def test_energy_trace_takes_one_dimensional_times_only(monkeypatch):
    # the residual is a derivative along the times, so only a 1-D array has
    # one: a scalar would fail inside np.gradient and a (2, 3) array would
    # give an all-NaN residual; both are refused before any work
    trajs = exact_modal_evolve(*marginal_data(square_grid(3), 3), P0, DELTA)

    def no_work(*args):
        raise AssertionError("energy_trace started work")

    monkeypatch.setattr(timedomain, "_memory_form", no_work)
    for times, shape in ((1.0, r"\(\)"), (np.linspace(1.0, 6.0, 6).reshape(2, 3), r"\(2, 3\)")):
        with pytest.raises(InvalidModelError, match=rf"^times must be one-dimensional, got shape {shape}$"):
            energy_trace(trajs, times)


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
        # every coordinate of the state non-zero
        (_table(1.0, 0.999), 2, [1.0, -0.3, 0.1, 0.4], 3.0, 1e-3, 50),
        # truncated window: log(1e14)/8 = 4.03, so the last 1,970 steps run over it
        (_table(8.0, 8.0), 1, [1.0, 0.2, 0.0, -0.1], 6.0, 1e-3, 100),
        # window == 1
        (ExponentialKernel(1e4), 1, [1.0, 0.2, 0.0, 0.0], 2.0, 1e-2, 10),
        (KER1, 1, [1.0, 0.0, 0.3, 0.0], 20.0, 0.05, 1),
        # 7 does not divide the 2,000 steps
        (KER1, 3, [0.5, 1.0, 0.0, 0.2], 2.0, 1e-3, 7),
        (KER1, 1, [1.0, 0.1, 0.2, 0.3], 0.01, 0.01, 1),
        (KER1, 1, [1.0, 0.1, 0.2, 0.3], 0.03, 0.01, 1),
        # the memory is about 1e-6 of the total: v^2 zeta, 2 v I and J cancel
        (ExponentialKernel(100.0), 1, [1.0, 0.2, 0.0, 0.0], 1.0, 1e-3, 1),
    ],
    ids=["full", "truncated", "window1", "dt0.05", "ragged", "1step", "3steps", "cancel"],
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


def test_exact_evolution_refuses_a_non_coercive_mode():
    # delta = 0.5 gives zeta = 2: alpha1 - zeta*xi^(a-1) = 1.75 - 2 < 0 at xi = 1
    with pytest.raises(InvalidModelError, match="xi=1 is not positive definite"):
        exact_modal_evolve([9.0, 1.0, 0.25], np.eye(3, 4), P0, 0.5)


def test_general_kernel_refuses_a_non_coercive_mode():
    with pytest.raises(InvalidModelError, match="xi=1 is not positive definite"):
        evolve_general_kernel(1.0, [1.0, 0.0, 0.0, 0.0], P0, ExponentialKernel(0.5), T=1.0, dt=1e-2, sample_every=10)


def test_complex_initial_data_are_refused():
    # the system is real; a cast to float would drop the imaginary part
    xi = square_grid(4).xi_of(1)
    with pytest.raises(InvalidModelError, match="initial data must be real"):
        exact_modal_evolve([xi], np.array([[1.0, 0.3j, 0.0, 0.0]]), P0, DELTA)
    with pytest.raises(InvalidModelError, match="initial data must be real"):
        evolve_general_kernel(xi, np.array([1.0, 0.3j, 0.0, 0.0]), P0, KER1, T=1.0, dt=1e-2, sample_every=10)


def test_dense_fallback_matches_expansion():
    traj = evolve(v=1.0, u=0.2)
    dense = dataclasses.replace(traj, dense=np.array([True]))
    times = np.array([0.0, 0.9, 2.5])
    got, expected = _columns(energy_trace(dense, times)), _columns(energy_trace(traj, times))
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(expected)


def test_state_at_two_dimensional_times():
    # the real state map of the pair coordinates at a (2, 3) array of times;
    # BLAS rounding depends on the number of time columns, so the rows agree
    # to roundoff rather than bit for bit
    grid = square_grid(4)
    trajs = exact_modal_evolve(*marginal_data(grid, 3), P0, DELTA)
    times = np.array([[0.0, 0.4, 1.3], [2.0, 7.5, 30.0]])
    states = real_states(trajs, times)
    assert states.shape == (3, 5) + times.shape
    for r, row in enumerate(times):
        expected = real_states(trajs, row)
        assert np.max(np.abs(states[:, :, r] - expected)) <= 1e-15 * np.max(np.abs(expected))


def _readme_stack():
    return exact_modal_evolve(*marginal_data(square_grid(200), 200), P0, DELTA)


def _one_ulp_off(trajs, row):
    # slot 2 of ``row`` one ulp away from the conjugate of slot 1
    lams = trajs.eigenvalues.copy()
    lams[row, 2] = complex(lams[row, 2].real, np.nextafter(lams[row, 2].imag, -np.inf))
    return dataclasses.replace(trajs, eigenvalues=lams)


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
    times = np.array([0.7, 5.0])
    got, expected = _columns(energy_trace(trajs, times)), _columns(energy_trace(plain, times))
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(expected)


def test_marginal_family_amplitudes():
    grid = square_grid(50)
    amps = marginal_data_amplitudes(grid.xi)
    k = np.arange(1, 51)
    assert amps == pytest.approx(k**-2.51)
    x0 = marginal_data(grid, 50)[1]
    assert x0[0, 0] == pytest.approx(1.0)
    assert not x0[:, 1:].any()


def test_smooth_size_is_the_next_5_smooth_length():
    smooth = sorted(2**i * 3**j * 5**k for i in range(13) for j in range(8) for k in range(6))
    for n in range(1, 4097):
        assert timedomain._smooth_size(n) == next(x for x in smooth if x >= n), n


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 20001])
def test_series_product_and_inverse_match_direct_sums(n):
    # the full products of length 2n - 1 take 5-smooth FFT lengths that are
    # not powers of two from n = 7 on: 15, 2000 and 40500; the inverse's last
    # Newton pass at n = 1000 runs at length 1000
    rng = np.random.default_rng(n)
    if n >= 7:
        assert timedomain._smooth_size(2 * n - 1) & (timedomain._smooth_size(2 * n - 1) - 1)
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    direct = np.convolve(a, b)[:n]
    scale = np.sqrt(n) * np.max(np.abs(a)) * np.max(np.abs(b))
    assert np.max(np.abs(timedomain._series_product(a, b, n) - direct)) <= 1e-14 * scale

    # d - 1 sums to below 1/2 in modulus, so 1/d has coefficients of order 1
    d = np.concatenate([[1.0], 0.5 * rng.uniform(-1.0, 1.0, n - 1) / np.arange(2, n + 1) ** 2])
    x = timedomain._series_inverse(d, n)
    assert x.shape == (n,)
    unit = np.zeros(n)
    unit[0] = 1.0
    assert np.max(np.abs(np.convolve(d, x)[:n] - unit)) <= 1e-14
    # the coefficients one at a time: x_j = -sum_(i=1..j) d_i x_(j-i)
    expected = unit.copy()
    for j in range(1, n):
        expected[j] = -(d[1 : j + 1] @ expected[j - 1 :: -1])
    assert np.max(np.abs(x - expected)) <= 1e-14
