import numpy as np
import pytest

from helpers import KER1, P0, p0_with_a, square_grid, xi_grid
import memwave.resolvent as resolvent
from memwave.model import ExponentialKernel, InvalidModelError, ModeGrid, ModelParams, coercivity_margin, energy_parts
from memwave.resolvent import (
    LaguerreGrid,
    ModeBlock,
    ResolventSweeper,
    energy_congruence,
    energy_corners,
    laguerre_grid,
    mode_block,
    resolvent_peaks,
    resonance_frequencies,
    scaled_sweep,
    schur_bounds,
    schur_inverse,
)
from memwave.spectral import modal_generator, quintic_roots
from oracles import static_solve


def test_single_node_grid_is_exact():
    lag = laguerre_grid(1, 1.0)
    assert lag.nodes == pytest.approx([1.0])
    assert lag.weights == pytest.approx([1.0])


# sweep.M and kernel.delta are refused by the config's key rules first
@pytest.mark.parametrize(
    "m, delta, message",
    [(0, 1.0, "need at least one node, got M=0"), (4, 0.0, "delta must be > 0, got 0.0"), (4, -1.0, "delta must be > 0, got -1.0")],
)
def test_laguerre_grid_refusals(m, delta, message):
    with pytest.raises(InvalidModelError, match=f"^{message}$"):
        laguerre_grid(m, delta)


def test_weights_integrate_constants_and_identity():
    for delta in (1.0, 2.0):
        for m in (1, 5, 20, 40):
            lag = laguerre_grid(m, delta)
            assert np.sum(lag.weights) == pytest.approx(1.0 / delta, rel=1e-12)
            assert np.sum(lag.weights * lag.nodes) == pytest.approx(1.0 / delta**2, rel=1e-11)


def test_weighted_derivative_degree_one_exact():
    for m in (5, 20, 40, 80):
        lag = laguerre_grid(m, 1.0)
        sw = lag.sqrt_weights
        err = lag.diff_w @ (sw * lag.nodes) - sw
        assert np.max(np.abs(err)) <= 1e-8


@pytest.mark.parametrize("m", [8, 40, 80])
@pytest.mark.parametrize("delta", [0.2, 1.0, 5.0])
def test_inverse_derivative_is_the_hardy_operator(m, delta):
    # D^{-1} integrates from s = 0: it maps sw*s^n to sw*s^(n+1)/(n+1) for
    # every n < M (measured: at most 7.9e-14 of the largest entry, at M = 80),
    # and its norm tends to the weighted Hardy constant 2/delta (measured:
    # 1.9985 at M = 40 and 1.9996 at M = 80 for delta = 1)
    lag = laguerre_grid(m, delta)
    sw = lag.sqrt_weights
    n = np.arange(m)[:, None]
    got = np.linalg.solve(lag.diff_w, (sw * lag.nodes**n).T).T
    want = sw * lag.nodes ** (n + 1) / (n + 1)
    err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    assert np.max(err) <= 2e-15 * m
    if m >= 40:
        assert np.linalg.norm(np.linalg.inv(lag.diff_w), 2) == pytest.approx(2.0 / delta, rel=0.01)


def test_single_node_block_matches_reduced_generator():
    grid = square_grid(4)
    lag = laguerre_grid(1, KER1.delta)
    blk = mode_block(grid.xi_of(2), P0, lag)
    assert blk.dim == 5
    got = np.sort_complex(np.linalg.eigvals(blk.matrix))
    want = np.sort_complex(np.linalg.eigvals(modal_generator(grid.xi_of(2), P0, KER1.delta)))
    assert got == pytest.approx(want, abs=1e-10)


def test_block_eigenvalues_match_quintic_roots_first_mode():
    grid = square_grid(4)
    lag = laguerre_grid(40, KER1.delta)
    blk = mode_block(grid.xi_of(1), P0, lag)
    ev = np.linalg.eigvals(blk.matrix)
    roots = quintic_roots(grid.xi_of(1), P0, KER1.delta).roots
    for root in roots:
        assert np.min(np.abs(ev - root)) <= 1e-6


def test_block_tracks_strip_roots_only_at_large_xi():
    grid = xi_grid(1e4)
    lag = laguerre_grid(40, KER1.delta)
    ev = np.linalg.eigvals(mode_block(grid.xi_of(1), P0, lag).matrix)
    branch = quintic_roots(grid.xi_of(1), P0, KER1.delta)
    for j in (1, 2):
        assert np.min(np.abs(ev - branch.lam(j, +1))) <= 1e-8
    # the real characteristic root sits outside the admissibility strip and
    # is not an eigenvalue of the block
    assert np.min(np.abs(ev - branch.lambda0)) > 1e-2


def test_block_dissipative_in_energy_coordinates():
    grid = square_grid(4)
    lag = laguerre_grid(40, KER1.delta)
    blk = mode_block(grid.xi_of(1), P0, lag)
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(100):
        x = rng.standard_normal(blk.dim) + 1j * rng.standard_normal(blk.dim)
        x /= np.linalg.norm(x)
        worst = max(worst, float((x.conj() @ (blk.matrix @ x)).real))
    assert worst <= 1e-10


def test_resolvent_norm_finite_at_origin():
    grid = square_grid(20)
    value = ResolventSweeper(P0, KER1.delta, grid.xi, M=20).norm_at(0.0)[0]
    assert np.isfinite(value) and value > 0.0


def test_resolvent_norm_even_in_tau():
    grid = square_grid(20)
    sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=20)
    plus = sweeper.norm_at(7.3)[0]
    minus = sweeper.norm_at(-7.3)[0]
    assert plus == pytest.approx(minus, rel=1e-9)


def test_resolvent_norm_lower_bounded_by_resonance_width():
    grid = xi_grid(1e4)
    branch = quintic_roots(grid.xi_of(1), P0, KER1.delta)
    lam = branch.lam(1, +1)
    value = ResolventSweeper(P0, KER1.delta, grid.xi, M=40).norm_at(lam.imag)[0]
    assert value >= 1.0 / abs(lam.real) * (1.0 - 1e-6)
    assert value == pytest.approx(1082.98, rel=1e-3)


def test_resolvent_norm_dominates_inverse_spectral_distance():
    grid = square_grid(30)
    sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=24)
    for tau in (0.0, 2.0, 10.0, 31.7):
        norm = sweeper.norm_at(tau)[0]
        dist = min(
            float(np.min(np.abs(np.linalg.eigvals(sweeper.block(k).matrix) - 1j * tau)))
            for k in range(1, grid.count + 1)
        )
        assert norm >= (1.0 / dist) * (1.0 - 1e-9)


def test_resolvent_norm_converges_in_node_count():
    grid = square_grid(40)
    tau = 30.0
    coarse = ResolventSweeper(P0, KER1.delta, grid.xi, M=40).norm_at(tau)[0]
    fine = ResolventSweeper(P0, KER1.delta, grid.xi, M=80).norm_at(tau)[0]
    assert abs(coarse - fine) <= 1e-2 * fine


def test_sweep_collects_resonances():
    grid = square_grid(60)
    [sweep] = scaled_sweep(
        P0, KER1.delta, grid.xi, M=[16], tau_lo=5.0, tau_hi=40.0, per_decade=8, resonances_per_branch=4
    )
    assert sweep.resonance_mask.any()
    assert np.all(np.diff(sweep.taus) >= 0)
    assert sweep.scaled == pytest.approx(np.abs(sweep.taus) ** (-sweep.omega) * sweep.norms)


def test_scaled_value_at_resonance_bounded_below_by_sharpness():
    # at tau = Im(lam): scaled = tau^-(2-2a) * norm >= 1/(|Re||Im|^(2-2a)),
    # the reciprocal of the sharpness product of that branch
    from memwave.spectral import sharpness_product

    grid = square_grid(80)
    sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=24)
    for k in (20, 50):
        branch = quintic_roots(grid.xi_of(k), P0, KER1.delta)
        for j in (1, 2):
            tau = branch.lam(j, +1).imag
            scaled = sweeper.norm_at(tau)[0] * tau ** -(2.0 - 2.0 * P0.a)
            assert scaled >= (1.0 - 1e-6) / sharpness_product(branch, j, P0.a)


def test_heavier_scaling_decays_along_resonances():
    grid = square_grid(400)
    [sweep] = scaled_sweep(
        P0, KER1.delta, grid.xi, M=[16], tau_lo=10.0, tau_hi=300.0, per_decade=4, resonances_per_branch=8
    )
    heavier = np.abs(sweep.taus) ** -(sweep.omega + 0.5) * sweep.norms
    for j in (1, 2):
        mask = sweep.resonance_branch == j
        slope = np.polyfit(np.log(sweep.taus[mask]), np.log(heavier[mask]), 1)[0]
        assert slope < -0.3


def test_sweep_result_arrays_are_read_only():
    [sweep] = scaled_sweep(
        P0, KER1.delta, square_grid(30).xi, M=[12], tau_lo=5.0, tau_hi=20.0, per_decade=6, resonances_per_branch=3
    )
    for name in ("taus", "norms", "scaled", "argmax_modes", "resonance_branch"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sweep, name)[0] = 999


def test_resolvent_peaks_reach_the_maximum_of_the_upper_bound():
    # a dense scan of the continuum upper bound over Im lam +- 4|Re lam|
    # finds nothing above its zoomed peak
    params, delta = p0_with_a(0.9), 0.5
    branch = quintic_roots(np.array([1e2, 1e4, 1e6]), params, delta)
    taus, peaks = resolvent_peaks(branch, params)
    assert taus.shape == peaks.shape == (3,)
    corners = energy_corners(branch.xi, params, 1.0 / delta)
    for i, lam in enumerate(branch.lam(1, +1)):
        scan = lam.imag + 4.0 * abs(lam.real) * np.linspace(-1.0, 1.0, 4001)
        y_sq = 1.0 / (delta * (delta**2 + scan**2))
        c = branch.xi[i] ** (params.a / 2.0)  # rho = 1
        inverse = schur_inverse(corners[i], c, scan, resolvent.continuum_phi(delta, scan))
        upper = schur_bounds(inverse, c, np.sqrt(2.0 * y_sq), np.sqrt(y_sq), 2.0 / delta)
        assert peaks[i] >= upper.max() * (1.0 - 1e-12)
        assert peaks[i] <= upper.max() * (1.0 + 1e-5)


@pytest.mark.parametrize("a, delta", [(0.9, 0.5), (0.5, 1.0), (0.97, 5.0)])
def test_continuum_peaks_bracket_the_collocated_peak(a, delta):
    # the M = 80 block's own peak near Im lam_{1+}, found by three zoom passes
    # that start at the upper bound's maximiser, lies between the eigenvalue
    # bound 1/|Re lam_{1+}| and the peak of the M-free upper bound; at
    # a = 0.9, delta = 0.5, k = 12: 17.80 <= 17.96 <= 19.51
    params = p0_with_a(a)
    grid = square_grid(45)
    lag = laguerre_grid(80, delta)
    ks = [12, 20, 30, 45]
    branch = quintic_roots(grid.xi[np.array(ks) - 1], params, delta)
    taus, peaks = resolvent_peaks(branch, params)
    for i, k in enumerate(ks):
        block = mode_block(grid.xi_of(k), params, lag)
        damping = abs(branch.lam(1, +1)[i].real)
        center, half, best = taus[i], 4.0 * damping, 0.0
        for _ in range(3):
            grid_taus = center + half * np.linspace(-1.0, 1.0, 11)
            norms = [block.resolvent_norm(t) for t in grid_taus]
            center, best, half = grid_taus[int(np.argmax(norms))], max(best, max(norms)), half / 5.0
        assert 1.0 / damping <= best <= peaks[i], (k, 1.0 / damping, best, peaks[i])


@pytest.mark.parametrize("delta", [0.5, 1.0, 5.0])
def test_continuum_history_data_bound_the_collocated_ones(delta):
    # the continuum data fed to resolvent_peaks: phi and ||y|| are what the
    # collocation computes, and ||x||^2 = 2/(delta*(delta^2 + tau^2)) and
    # ||K|| = 2/delta bound their collocated values, which approach them
    for tau in (1.0, 10.0, 100.0):
        y_sq = 1.0 / (delta * (delta * delta + tau * tau))
        for m in (20, 80):
            # P0 is not coercive at delta = 0.5; the history data do not depend on the modes
            sweeper = ResolventSweeper(_regime_params(P0.a), delta, square_grid(2).xi, M=m)
            k_inv, x, y, phi = sweeper.history_resolvent(tau)
            assert phi == pytest.approx(1.0 / (delta * (delta + 1j * tau)), rel=1e-11)
            assert np.linalg.norm(y) == pytest.approx(np.sqrt(y_sq), rel=1e-9)
            assert np.linalg.norm(x) <= np.sqrt(2.0 * y_sq) * (1.0 + 1e-12)
            assert np.linalg.norm(k_inv, 2) <= 2.0 / delta
        if tau == 1.0:
            assert np.linalg.norm(x) == pytest.approx(np.sqrt(2.0 * y_sq), rel=1e-3)


def _certificate_taus(grid, params=P0, delta=KER1.delta):
    reso, _ = resonance_frequencies(params, delta, grid.xi, 5.0, 250.0, per_branch=6)
    return [0.0, -7.3, 3.0, 40.0, 170.0, *reso]


def _all_norms(sweeper, tau):
    """The resolvent norms of every mode of the sweeper's grid, from one
    stacked SVD of the shifted blocks that ``ModeBlock.resolvent_norm``
    SVDs one at a time."""
    blocks = np.stack([sweeper.block(k).matrix for k in range(1, sweeper.xi.size + 1)])
    smin = np.linalg.svd(1j * tau * np.eye(blocks.shape[-1]) - blocks, compute_uv=False)[..., -1]
    assert np.all(smin > 0.0), tau
    return 1.0 / smin


@pytest.mark.parametrize("m", [8, 24])
def test_stacked_brute_force_norms_are_the_per_block_ones(m):
    grid = square_grid(300)
    sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=m)
    for tau in (0.0, 3.0, 40.0, 170.0):
        per_block = [sweeper.block(k).resolvent_norm(tau) for k in range(1, grid.count + 1)]
        assert np.array_equal(_all_norms(sweeper, tau), per_block), tau


def _brute_force_norm_at(sweeper, tau):
    norms = _all_norms(sweeper, tau)
    i_best = int(np.argmax(norms))
    return norms[i_best], i_best + 1


def _brute_force_bounds_check(sweeper, tau):
    """lower <= ||(i*tau - B_k)^{-1}|| <= upper for every mode, with
    ``lower`` the screening lower bound and ``upper`` from ``norm_bounds``;
    returns the norms and bounds.  Both bound the computed norm."""
    lower = sweeper._screen(tau)[0]
    upper = sweeper.norm_bounds(tau)
    norms = _all_norms(sweeper, tau)
    assert np.all(lower <= norms), tau
    assert np.all(norms <= upper), tau
    return norms, lower, upper


@pytest.mark.parametrize("m", [8, 24])
def test_certified_bound_dominates_every_norm(m):
    grid = square_grid(300)
    sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=m)
    pruned = 0
    for tau in _certificate_taus(grid):
        norms, lower, upper = _brute_force_bounds_check(sweeper, tau)
        pruned += int(np.sum(upper < lower.max()))
    # the bounds are not vacuous: they rule modes out
    assert pruned > 0


def _regime_params(a):
    # alpha = 4 keeps mode 1 (xi = 1) coercive for zeta = 1/delta up to 2
    return ModelParams(rho=1.0, mu=1.0, alpha=4.0, beta=1.0, gamma=0.5, a=a)


@pytest.mark.parametrize("delta", [0.5, 5.0])
@pytest.mark.parametrize("a", [0.0, 0.5, 0.9, 0.97])
def test_bounds_hold_across_regimes(a, delta):
    params = _regime_params(a)
    grid = square_grid(200)
    sweeper = ResolventSweeper(params, delta, grid.xi, M=16)
    reso, _ = resonance_frequencies(params, delta, grid.xi, 5.0, 150.0, per_branch=4)
    pruned = 0
    for tau in (0.0, 3.0, 40.0, *reso):
        norms, lower, upper = _brute_force_bounds_check(sweeper, tau)
        pruned += int(np.sum(upper < lower.max()))
    assert pruned > 0


@pytest.mark.parametrize("a", [0.0, 0.5, 0.97])
def test_bounds_hold_up_to_xi_1e8(a):
    # at xi = 1e8 the resonant blocks have condition numbers of order 1e14, so
    # the SVD's own roundoff is what the bounds' slack has to cover
    params = _regime_params(a)
    grid = ModeGrid(np.geomspace(1.0, 1e8, 33))
    sweeper = ResolventSweeper(params, KER1.delta, grid.xi, M=16)
    for k in (1, 17, 25, 29, 33):
        branch = quintic_roots(grid.xi_of(k), params, KER1.delta)
        for j in (1, 2):
            _brute_force_bounds_check(sweeper, branch.lam(j, +1).imag)


@pytest.mark.parametrize("m", [8, 40, 80])
def test_history_reduction_is_the_continuum_memory_symbol(m):
    # phi_M(tau) = sw^T (i*tau + D)^{-1} sw = int_0^inf e^{-delta s} e^{-i tau s} ds / delta
    for delta in (0.5, 1.0, 5.0):
        # P0 is not coercive at delta = 0.5; phi does not depend on the modes
        sweeper = ResolventSweeper(_regime_params(P0.a), delta, square_grid(3).xi, M=m)
        for tau in (0.0, 10.0, 1000.0):
            phi = sweeper.history_resolvent(tau)[3]
            assert phi == pytest.approx(1.0 / (delta * (delta + 1j * tau)), rel=1e-12)


@pytest.mark.parametrize("m", [8, 24])
def test_pruned_norm_at_matches_brute_force(m, monkeypatch):
    grid = square_grid(300)
    sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=m)
    svds = []
    original = ModeBlock.resolvent_norm

    def counted(self, tau):
        svds.append(self.xi)
        return original(self, tau)

    for tau in _certificate_taus(grid):
        svds.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ModeBlock, "resolvent_norm", counted)
            got = sweeper.norm_at(tau)
        np.testing.assert_equal(got, _brute_force_norm_at(sweeper, tau), err_msg=str(tau))
        # no mode is SVD'd twice, and every mode left out was ruled out by
        # its upper bound
        assert len(svds) == len(set(svds))
        skipped = np.array([k for k in range(1, grid.count + 1) if grid.xi_of(k) not in svds], dtype=int)
        assert np.all(sweeper.norm_bounds(tau)[skipped - 1] < got[0]), tau
    # at the last resonance most of the modes are skipped
    assert skipped.size > grid.count // 2


@pytest.mark.parametrize("params, delta", [(P0, KER1.delta), (_regime_params(0.97), 5.0)])
def test_norm_at_is_the_max_over_every_mode_at_low_tau(params, delta):
    # for tau <= 10 a cutoff at xi <= 4*tau^2/m_1 plus ten modes would keep
    # 10-22 of these 300 modes (P0, delta = 1); the sweep bounds all of them,
    # and the pruned loop still returns the brute-force max and its mode
    grid = square_grid(300)
    sweeper = ResolventSweeper(params, delta, grid.xi, M=8)
    reso, _ = resonance_frequencies(params, delta, grid.xi, 0.5, 10.0, per_branch=4)
    assert reso.size
    for tau in (0.0, 1.0, 3.0, 5.0, 7.3, 10.0, *reso):
        np.testing.assert_equal(sweeper.norm_at(tau), _brute_force_norm_at(sweeper, tau), err_msg=str(tau))


def test_one_call_sweep_matches_brute_force_at_every_resolution():
    # the resolutions share their corners, couplings and skew spectra and
    # invert their own Schur complements; each must reproduce the full loop
    grid = square_grid(300)
    ms = (8, 16, 24)
    first = ResolventSweeper(P0, KER1.delta, grid.xi, M=ms[0])
    shared = [first] + [first.at_resolution(m) for m in ms[1:]]
    alone = [ResolventSweeper(P0, KER1.delta, grid.xi, M=m) for m in ms]
    for tau in _certificate_taus(grid):
        for sweeper, reference in zip(shared, alone):
            np.testing.assert_equal(sweeper.norm_at(tau), _brute_force_norm_at(reference, tau), err_msg=str(tau))
    sweeps = scaled_sweep(
        P0, KER1.delta, grid.xi, M=list(ms), tau_lo=5.0, tau_hi=250.0, per_decade=4, resonances_per_branch=6
    )
    assert [s.M for s in sweeps] == list(ms)
    for sweep, reference in zip(sweeps, alone):
        assert sweep.resonance_mask.any()
        for tau, *row in zip(sweep.taus, sweep.norms, sweep.argmax_modes):
            np.testing.assert_equal(row, _brute_force_norm_at(reference, tau), err_msg=str(tau))


def test_sweep_inverts_a_few_schur_complements_per_row(monkeypatch):
    # the README reference sweep on 2000 modes at both resolutions: one
    # stacked Schur inverse per resolution and block of frequencies, in which
    # the screen leaves at most 8 modes of each (frequency, resolution) row
    # (measured: 3-6 of the 2000 modes)
    grid = square_grid(2000)
    inverted = []
    original = resolvent.schur_inverse

    def counted(corners, c, tau, phi):
        inverted.append(np.broadcast_to(tau, len(corners)).copy())
        return original(corners, c, tau, phi)

    monkeypatch.setattr(resolvent, "schur_inverse", counted)
    sweeps = scaled_sweep(
        P0, KER1.delta, grid.xi, M=[40, 80], tau_lo=10.0, tau_hi=1000.0, per_decade=64, resonances_per_branch=16
    )
    taus = sweeps[0].taus
    assert np.unique(taus).size == taus.size
    assert len(inverted) == 2 * -(-taus.size // resolvent._FREQUENCY_BLOCK)
    rows = [np.unique(pairs, return_counts=True) for pairs in inverted]
    assert np.array_equal(np.sort(np.concatenate([row_taus for row_taus, _ in rows])), np.repeat(taus, 2))
    kept = np.concatenate([counts for _, counts in rows])
    assert 1 <= kept.min() and kept.max() <= 8


@pytest.mark.parametrize("m", [8, 24])
def test_a_block_of_frequencies_is_row_by_row_the_one_frequency_calls(m):
    # norm_bounds, _screen and history_resolvent over an array of
    # frequencies give, bit for bit, their rows at each frequency alone
    grid = square_grid(300)
    sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=m)
    taus = np.array(_certificate_taus(grid))
    bounds = sweeper.norm_bounds(taus)
    lower, upper, history, slack = sweeper._screen(taus)
    resolvents = sweeper.history_resolvent(taus)
    assert bounds.shape == lower.shape == (taus.size, grid.count)
    for i, tau in enumerate(taus):
        assert np.array_equal(sweeper.norm_bounds(float(tau)), bounds[i]), tau
        lower0, upper0, history0, slack0 = sweeper._screen(float(tau))
        for got, row in zip((lower0, upper0, slack0, *history0), (lower, upper, slack, *history)):
            assert np.array_equal(got, row[i]), tau
        for got, row in zip(sweeper.history_resolvent(float(tau)), resolvents):
            assert np.array_equal(got, row[i]), tau


def test_a_singular_matrix_leaves_the_rest_of_its_stack_inverted():
    # numpy refuses a whole stack for one singular matrix; the others of a
    # block of Schur complements keep their inverses
    stack = np.random.default_rng(5).standard_normal((2, 3, 4, 4))
    stack[1, 2, 3] = 0.0
    got = resolvent._or_nan(np.linalg.inv, stack)
    assert np.isnan(got[1, 2]).all()
    for i, j in np.ndindex(2, 3):
        if (i, j) != (1, 2):
            assert np.array_equal(got[i, j], np.linalg.inv(stack[i, j]))


def test_bounds_hold_with_history_weights_off_the_closed_form(monkeypatch):
    # sqrt-weights off by 1 + 1e-3 move phi_M off the closed-form phi by
    # about 2e-3 relative; the bounds hold because they are built on the
    # Schur complement with the sweeper's own phi_M (with the closed-form phi
    # in its place the upper bound misses norms by up to 0.2%)
    def off(M, delta):
        lag = laguerre_grid(M, delta)
        weights = lag.weights * (1.0 + 1e-3) ** 2
        return LaguerreGrid(M=lag.M, delta=lag.delta, nodes=lag.nodes, weights=weights, diff_w=lag.diff_w)

    monkeypatch.setattr(resolvent, "laguerre_grid", off)
    grid = square_grid(300)
    for m in (8, 24):
        sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=m)
        phi = sweeper.history_resolvent(40.0)[3]
        assert abs(phi / resolvent.continuum_phi(KER1.delta, 40.0) - 1.0) == pytest.approx(2e-3, rel=1e-3)
        pruned = 0
        for tau in _certificate_taus(grid):
            norms, lower, upper = _brute_force_bounds_check(sweeper, tau)
            pruned += int(np.sum(upper < lower.max()))
        assert pruned > 0


# equal wave speeds and a weak coupling: the two skew frequencies of a mode
# differ by about 0.1%, where the closed form's sqrt(s - 2p) cancels
_NEAR_EQUAL = ModelParams(rho=1.0, mu=1.0, alpha=4.0, beta=4.0, gamma=1e-3, a=0.5)


@pytest.mark.parametrize(
    "params, delta, xi",
    [
        (P0, KER1.delta, square_grid(2000).xi),
        *[(_regime_params(a), d, square_grid(200).xi) for a in (0.0, 0.5, 0.97) for d in (0.6, 1.0, 5.0)],
        (_regime_params(0.0), KER1.delta, np.geomspace(1.0, 1e20, 41)),
        (_NEAR_EQUAL, KER1.delta, square_grid(2000).xi),
    ],
    ids=["readme", *[f"a{a}-delta{d}" for a in (0.0, 0.5, 0.97) for d in (0.6, 1.0, 5.0)], "xi-1e20", "near-equal"],
)
def test_closed_form_skew_frequencies_are_within_their_roundoff_bound(params, delta, xi):
    # against 40-digit eigenvalues of -i*Q for the skew parts Q of the
    # corners of 40 modes: each of the four is within the closed form's own
    # term of fuzz, m/2 + 8*eps*sqrt(s) (measured: at most 0.1 of it).  The
    # error stays below 1 eps*||A||_F except on the near-equal-speed model,
    # where sqrt(s - 2p) cancels and it reaches about 200 eps*||A||_F, more
    # than the 16 eps*||A||_F that a fuzz without m would allow
    mpmath = pytest.importorskip("mpmath")
    sweeper = ResolventSweeper(params, delta, xi, M=8)
    ks = np.unique(np.geomspace(1, xi.size, 40).astype(int)) - 1
    corners = sweeper._corners[ks]
    worst = 0.0
    with mpmath.workdps(40):
        for k, q in zip(ks, 0.5 * (corners - np.swapaxes(corners, -2, -1))):
            exact = sorted(mpmath.eighe(mpmath.matrix((-1j * q).tolist()), eigvals_only=True))
            err = max(float(abs(mpmath.mpf(float(w)) - e)) for w, e in zip(sweeper._omega[k], exact))
            assert err <= sweeper._omega_err[k], (k, err, sweeper._omega_err[k])
            worst = max(worst, err / (resolvent.EPS * sweeper._corner_norms[k]))
    if params is _NEAR_EQUAL:
        assert worst > 16.0
    else:
        assert worst <= 16.0


def test_bounds_hold_where_the_skew_frequencies_nearly_meet():
    # the screening pair and the sharp bounds on the near-equal-speed model,
    # also with tau exactly at computed skew frequencies
    grid = square_grid(200)
    sweeper = ResolventSweeper(_NEAR_EQUAL, KER1.delta, grid.xi, M=8)
    on_resonance = sweeper._omega[[0, 9, 99, 199], 2:].ravel()
    screened = 0
    for tau in (*_certificate_taus(grid, _NEAR_EQUAL, KER1.delta), *on_resonance):
        _brute_force_bounds_check(sweeper, float(tau))
        screened += _screen_check(sweeper, float(tau))
    assert screened > 0


def _screen_check(sweeper, tau):
    """The screening pair bounds every computed norm from both sides, and a
    mode screened out keeps it and has its norm strictly below the row's max;
    returns the number of modes screened out."""
    lower0, upper0 = sweeper._screen(tau)[:2]
    upper = sweeper.norm_bounds(tau)
    norms = _all_norms(sweeper, tau)
    assert np.all(norms <= upper0) and np.all(lower0 <= norms), tau
    out = upper0 < lower0.max()
    assert np.array_equal(upper[out], upper0[out])
    assert np.all(norms[out] < norms.max()), tau
    return int(np.sum(out))


@pytest.mark.parametrize("delta", [0.6, 1.0, 5.0])
@pytest.mark.parametrize("a", [0.0, 0.5, 0.97])
def test_screening_pair_bounds_every_norm(a, delta):
    params = _regime_params(a)
    grid = square_grid(200)
    sweeper = ResolventSweeper(params, delta, grid.xi, M=8)
    assert sum(_screen_check(sweeper, tau) for tau in _certificate_taus(grid, params, delta)) > 0


def test_screening_lower_bound_holds_on_resonance():
    # tau exactly at a skew frequency omega of a mode with xi >= 1e14 at a = 0:
    # there far, |Re(beta_M)| and ||H|| are at roundoff level, and the slack
    # alone is more than half of 1/lower; the screening lower bound stays
    # finite and below the computed norm
    params = _regime_params(0.0)
    xi = np.geomspace(1e14, 1e20, 4)
    sweeper = ResolventSweeper(params, KER1.delta, xi, M=8)
    for k in range(1, xi.size + 1):
        for tau in sweeper._omega[k - 1, 2:]:
            lower0, _, _, slack = sweeper._screen(float(tau))
            assert slack[k - 1] * lower0[k - 1] > 0.5, (k, tau)
            assert 0.0 < lower0[k - 1] <= sweeper.block(k).resolvent_norm(float(tau)), (k, tau)


def test_screening_lower_bound_needs_the_real_part_of_beta():
    # at delta = 20 the history damping Re(beta_M) = c^2 Re(phi_M) is the
    # largest term of 1/lower at the skew frequencies omega and at the
    # middles omega - Im(beta_M)/2 of the segments; the screening lower bound
    # stays below the computed norm of every mode there (measured: at most
    # 0.999997 of it, on resonance at xi = 3162, where the roundoff terms set
    # it; without |Re(beta_M)| up to 9.7 times it, at xi = 1, tau = 2.008)
    params = _regime_params(0.0)
    xi = np.geomspace(1.0, 1e4, 9)
    sweeper = ResolventSweeper(params, 20.0, xi, M=8)
    c = sweeper._c
    for k in range(1, xi.size + 1):
        for omega in sweeper._omega[k - 1, 2:]:
            beta = c[k - 1] ** 2 * sweeper.history_resolvent(float(omega))[3]
            for tau in (float(omega), float(omega - beta.imag / 2.0)):
                lower0 = sweeper._screen(tau)[0]
                norms = _all_norms(sweeper, tau)
                assert np.all(lower0 <= norms), (k, tau, np.max(lower0 / norms))


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_bounds_hold_with_a_symmetric_part_in_the_corners(a, monkeypatch):
    # the screen sees the corners' symmetric part H only through ||H||; with a
    # random symmetric H of norm 1e-3 ||A|| added to every corner, both the
    # screening pair and the sharp bounds still hold (without the ||H|| term
    # the screening pair misses norms at a = 0 on both sides: its lower bound
    # up to 49x too high, its upper bound 0.04% too low)
    rng = np.random.default_rng(7)
    original = resolvent.energy_corners

    def with_symmetric_part(xi, params, zeta):
        corners = original(xi, params, zeta)
        g = rng.standard_normal(corners.shape)
        h = g + np.swapaxes(g, -2, -1)
        scale = 1e-3 * np.linalg.norm(corners, 2, axis=(-2, -1)) / np.linalg.norm(h, 2, axis=(-2, -1))
        return corners + scale[:, None, None] * h

    monkeypatch.setattr(resolvent, "energy_corners", with_symmetric_part)
    params = _regime_params(a)
    grid = square_grid(300)
    sweeper = ResolventSweeper(params, KER1.delta, grid.xi, M=8)
    corners = sweeper._corners
    assert np.max(np.abs(corners + np.swapaxes(corners, -2, -1))) > 1e-3
    screened = 0
    for tau in _certificate_taus(grid, params, KER1.delta):
        _brute_force_bounds_check(sweeper, tau)
        screened += _screen_check(sweeper, tau)
    assert screened > 0


def test_sweep_svds_only_the_argmax_mode(monkeypatch):
    # the README reference frequencies on 2000 modes: one block, the
    # maximiser's, is built and SVD'd per frequency
    grid = square_grid(2000)
    base = np.geomspace(10.0, 1000.0, 128)
    reso, _ = resonance_frequencies(P0, KER1.delta, grid.xi, 10.0, 1000.0, per_branch=16)
    built = []
    svds = []
    original_block = resolvent.mode_block
    original_norm = ModeBlock.resolvent_norm

    def counted_block(*args):
        built.append(args[0])
        return original_block(*args)

    def counted_norm(self, tau):
        svds.append(self.xi)
        return original_norm(self, tau)

    monkeypatch.setattr(resolvent, "mode_block", counted_block)
    monkeypatch.setattr(ModeBlock, "resolvent_norm", counted_norm)
    for m in (40, 80):
        sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=m)
        for tau in np.concatenate([base, reso]):
            built.clear()
            svds.clear()
            sweeper.norm_at(float(tau))
            assert len(built) == 1 and len(svds) == 1, (m, tau)


def test_exact_ties_go_to_the_smaller_mode(monkeypatch):
    grid = square_grid(300)
    sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=8)
    tau = 170.0
    # the mode with the largest upper bound is SVD'd first; it is not mode 1
    upper = sweeper.norm_bounds(tau)
    assert np.argmax(upper) > 0
    # equal norms below every upper bound: nothing is pruned and np.argmax
    # would pick mode 1
    visited = []

    def equal(self, tau):
        visited.append(int(round(self.xi**0.5)))
        return 1e-9

    monkeypatch.setattr(ModeBlock, "resolvent_norm", equal)
    assert sweeper.norm_at(tau)[1] == 1
    # the modes by decreasing upper bound, ties in mode order
    assert visited == [int(i) + 1 for i in np.argsort(-upper, kind="stable")]


@pytest.mark.parametrize("m", [8, 24])
def test_block_symmetric_part_is_a_shared_dissipative_history_block(m):
    grid = square_grid(300)
    lag = laguerre_grid(m, KER1.delta)
    history = None
    for k in (1, 2, 17, 150, 300):
        b = mode_block(grid.xi_of(k), P0, lag).matrix
        h = 0.5 * (b + b.T)
        tol = 1e-14 * np.linalg.norm(b)
        assert np.max(np.abs(h[:4, :])) <= tol
        assert np.max(np.abs(h[:, :4])) <= tol
        assert np.max(np.linalg.eigvalsh(h)) <= tol
        if history is None:
            history = h[4:, 4:]
        assert np.max(np.abs(h[4:, 4:] - history)) <= tol


@pytest.mark.parametrize("m", [8, 16, 24, 40, 80, 160])
def test_weighted_derivative_diagonal_is_the_per_row_sum(m):
    # the diagonal of diff_w, one row-wise sum, is bit for bit the sum of
    # 1/(x_i - s) over the other points s of {0} u nodes taken one row at a time
    lag = laguerre_grid(m, 1.0)
    full = np.concatenate([[0.0], lag.nodes])
    rows = [np.sum(1.0 / (full[i + 1] - np.delete(full, i + 1))) for i in range(m)]
    assert np.array_equal(np.diag(lag.diff_w), rows)


@pytest.mark.parametrize("params", [P0, ModelParams(rho=1.7, mu=0.6, alpha=3.0, beta=1.3, gamma=0.4, a=0.9)])
def test_energy_congruence_is_the_energy_norm(params):
    # T = L^T of the energy weight's Cholesky factor: upper triangular, and
    # |T w|^2 is the sum of energy_parts for any data (measured: at most
    # 6.7e-16 relative over 2000 modes and random data)
    xi = square_grid(2000).xi
    t = energy_congruence(xi, params, KER1.zeta)
    assert np.all(np.tril(t, -1) == 0.0)
    w = np.random.default_rng(3).standard_normal((xi.size, 4))
    got = np.sum((t @ w[..., None])[..., 0] ** 2, axis=-1)
    want = sum(energy_parts(*w.T, xi, params, KER1.zeta))
    assert np.max(np.abs(got / want - 1.0)) <= 4e-15


def test_block_corners_are_the_stacked_energy_corners():
    # numpy's vectorised xi**a and Python's scalar one disagree in the last
    # bit for some of these modes; the SVD'd blocks must carry the corners
    # the sweep bounds are built from
    params = ModelParams(rho=1.7, mu=1.0, alpha=2.0, beta=1.0, gamma=0.5, a=0.9)
    grid = square_grid(2000)
    lag = laguerre_grid(8, KER1.delta)
    corners = energy_corners(grid.xi, params, KER1.zeta)
    for k in range(1, grid.count + 1):
        assert np.array_equal(mode_block(grid.xi_of(k), params, lag).matrix[:4, :4], corners[k - 1]), k


def _prunable_mode(sweeper, tau):
    """The mode with the smallest upper bound, checked to be pruned."""
    upper = sweeper.norm_bounds(tau)
    k_bad = int(np.argmin(upper)) + 1
    assert upper[k_bad - 1] < sweeper.norm_at(tau)[0]
    return k_bad


def test_non_finite_block_is_never_pruned():
    grid = square_grid(300)
    tau = 170.0
    k_bad = _prunable_mode(ResolventSweeper(P0, KER1.delta, grid.xi, M=8), tau)
    xi = grid.xi.copy()
    xi[k_bad - 1] = np.nan
    poisoned = ModeGrid(xi)
    sweeper = ResolventSweeper(P0, KER1.delta, poisoned.xi, M=8)
    assert sweeper.norm_bounds(tau)[k_bad - 1] == np.inf
    # its NaN omega gives it the same screening pair, and the screen of the
    # other modes still works
    lower0, upper0 = sweeper._screen(tau)[:2]
    assert lower0[k_bad - 1] == 0.0 and upper0[k_bad - 1] == np.inf
    assert np.sum(upper0 < lower0.max()) > grid.count // 2
    with pytest.raises(ValueError):
        sweeper.norm_at(tau)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_block_entry_is_a_value_error(bad):
    # an SVD of a block holding inf returns NaNs without raising; the
    # resolvent norm must still fail with the typed error that error.json shows
    block = ResolventSweeper(P0, KER1.delta, square_grid(3).xi, M=8).block(1)
    matrix = block.matrix.copy()
    matrix[0, 0] = bad
    poisoned = ModeBlock(xi=block.xi, M=8, matrix=matrix)
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        poisoned.resolvent_norm(170.0)


def test_singular_shifted_block_is_a_typed_error():
    block = ModeBlock(xi=1.0, M=1, matrix=np.zeros((5, 5)))
    with pytest.raises(resolvent.SingularBlockError, match=r"^i\*tau - B singular at tau=0 for mode xi=1$"):
        block.resolvent_norm(0.0)


def test_non_finite_history_block_is_never_pruned(monkeypatch):
    grid = square_grid(300)
    tau = 170.0
    _prunable_mode(ResolventSweeper(P0, KER1.delta, grid.xi, M=8), tau)

    def poisoned(M, delta):
        lag = laguerre_grid(M, delta)
        diff_w = lag.diff_w.copy()
        diff_w[3, 3] = np.nan
        return LaguerreGrid(M=lag.M, delta=lag.delta, nodes=lag.nodes, weights=lag.weights, diff_w=diff_w)

    monkeypatch.setattr(resolvent, "laguerre_grid", poisoned)
    sweeper = ResolventSweeper(P0, KER1.delta, grid.xi, M=8)
    lower0, upper0 = sweeper._screen(tau)[:2]
    assert np.all(lower0 == 0.0) and np.all(upper0 == np.inf)
    assert np.all(sweeper.norm_bounds(tau) == np.inf)
    with pytest.raises(ValueError):
        sweeper.norm_at(tau)


def test_static_solve_zero_forcing():
    grid = square_grid(3)
    lag = laguerre_grid(16, KER1.delta)
    w, residual, _ = static_solve(grid.xi_of(1), np.zeros(4 + 16), P0, lag)
    assert w[0] == 0.0 and np.all(w[4:] == 0.0)
    assert residual == 0.0


def test_static_solve_velocity_forcing_reference():
    # F = (0, 1, 0, 0, 0): v = -rho/(alpha1*xi - zeta*xi^a), p = gamma*v
    grid = square_grid(3)
    lag = laguerre_grid(16, KER1.delta)
    forcing = np.concatenate([[0.0, 1.0, 0.0, 0.0], np.zeros(16)])
    w, residual, _ = static_solve(grid.xi_of(1), forcing, P0, lag)
    assert w[0] == pytest.approx(-1.0 / 0.75, rel=1e-12)
    assert w[2] == pytest.approx(P0.gamma * w[0], rel=1e-12)
    assert residual <= 1e-12


def test_static_solve_linear():
    grid = square_grid(3)
    lag = laguerre_grid(12, KER1.delta)
    rng = np.random.default_rng(2)
    nu = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    f = np.concatenate([[0.3, -0.7j, 1.1, 0.2 + 0.1j], nu])
    f2 = np.concatenate([[0.6, -1.4j, 2.2, 0.4 + 0.2j], 2 * nu])
    s1 = static_solve(grid.xi_of(2), f, P0, lag)[0]
    s2 = static_solve(grid.xi_of(2), f2, P0, lag)[0]
    assert s2[0] == pytest.approx(2 * s1[0], rel=1e-12)
    assert s2[4:] == pytest.approx(2 * s1[4:], rel=1e-12)


def _static_round_trip(params):
    grid = square_grid(10)
    lag = laguerre_grid(40, KER1.delta)
    rng = np.random.default_rng(4)
    worst_res = 0.0
    worst_c = 0.0
    for k in range(1, 11):
        bound = mode_block(grid.xi_of(k), params, lag).resolvent_norm(0.0)
        for _ in range(10):
            f = np.concatenate(
                [
                    rng.standard_normal(4) + 1j * rng.standard_normal(4),
                    rng.standard_normal(40) + 1j * rng.standard_normal(40),
                ]
            )
            _, residual, ratio = static_solve(grid.xi_of(k), f, params, lag)
            worst_res = max(worst_res, residual)
            worst_c = max(worst_c, ratio)
            # ||W||/||F|| on the block the sweep SVDs is at most its norm at 0
            assert ratio <= (1.0 + 1e-12) * bound
    assert worst_res <= 1e-10
    assert worst_c < 10.0


def test_static_solve_round_trip_random_forcing():
    _static_round_trip(P0)


def test_static_solve_round_trip_other_parameters():
    _static_round_trip(ModelParams(rho=1.7, mu=0.6, alpha=3.0, beta=1.3, gamma=0.4, a=0.9))


def test_static_solve_non_coercive_mode_is_model_error():
    # delta = 0.2 gives zeta = 5: alpha1*xi - zeta*xi^a = 1.75 - 5 < 0 at k = 1
    kernel = ExponentialKernel(0.2)
    lag = laguerre_grid(8, kernel.delta)
    forcing = np.concatenate([[1.0, 0.0, 0.0, 0.0], np.zeros(8)])
    with pytest.raises(InvalidModelError, match="xi=1 is not positive definite"):
        static_solve(square_grid(3).xi_of(1), forcing, P0, lag)


def test_factorisation_failing_within_roundoff_of_the_boundary_is_a_model_error():
    # a random draw 2.2e-16 inside the coercivity boundary: the margin passes
    # the mode, but LAPACK's Cholesky of its energy weight fails; the mode is
    # refused with the same typed error, named even when it is not first
    params = ModelParams(
        rho=1.0, mu=1.0, alpha=3.551430726844565, beta=1.7960443558678232, gamma=1.0097107759127777, a=0.5324521544058766
    )
    zeta = 1.5844218292698102
    xi = 0.8385981176976285
    assert 0.0 < coercivity_margin(xi, params, zeta) < 1e-15
    for stack in ([xi], [4.0 * xi, xi]):
        with pytest.raises(InvalidModelError, match="^energy weight of mode xi=0.838598 is not positive definite"):
            energy_corners(np.array(stack), params, zeta)


@pytest.mark.parametrize("k", [0, -1, 4])
def test_sweeper_block_index_does_not_wrap(k):
    sweeper = ResolventSweeper(P0, KER1.delta, square_grid(3).xi, M=8)
    with pytest.raises(IndexError, match=f"^mode index {k} outside 1..3$"):
        sweeper.block(k)
