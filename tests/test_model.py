import numpy as np
import pytest

from helpers import KER1, P0, draw_validated, p0_with_a, square_grid, xi_grid
from memwave import model
from memwave.model import (
    ExponentialKernel,
    InvalidModelError,
    ModeGrid,
    ModelParams,
    TabulatedKernel,
    coercivity_margin,
    energy_parts,
    validate_params,
)
from memwave import resolvent, spectral, timedomain
from memwave.resolvent import laguerre_grid
from memwave.timedomain import energy_trace, exact_modal_evolve


def test_alpha1_derived():
    assert P0.alpha1 == pytest.approx(1.75)


def test_viscoelastic_limit_rejected():
    with pytest.raises(InvalidModelError):
        ModelParams(rho=1, mu=1, alpha=2, beta=1, gamma=0.5, a=1.0)


def test_nonpositive_constant_rejected():
    with pytest.raises(InvalidModelError):
        ModelParams(rho=-1, mu=1, alpha=2, beta=1, gamma=0.5, a=0.5)


def test_explicit_grid_must_increase():
    with pytest.raises(InvalidModelError):
        xi_grid(1.0, 1.0, 2.0)
    with pytest.raises(InvalidModelError):
        xi_grid(-1.0, 2.0)


@pytest.mark.parametrize("xi", [np.array([]), np.ones((2, 2))], ids=["empty", "2-d"])
def test_explicit_grid_needs_a_nonempty_vector(xi):
    with pytest.raises(InvalidModelError, match="^explicit grid needs a nonempty 1-d array$"):
        ModeGrid(xi)


# the config's key rules refuse each of these before the constructor sees them
@pytest.mark.parametrize(
    "length, count, message",
    [(0.0, 3, "length must be > 0, got 0.0"), (-1.0, 3, "length must be > 0, got -1.0"), (1.0, 0, "count must be >= 1, got 0")],
)
def test_dirichlet_grid_refusals(length, count, message):
    with pytest.raises(InvalidModelError, match=f"^{message}$"):
        ModeGrid.dirichlet(length, count)


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
def test_exponential_kernel_needs_a_positive_rate(delta):
    with pytest.raises(InvalidModelError, match=f"^delta must be > 0, got {delta}$"):
        ExponentialKernel(delta)


def test_exponential_kernel_pinch_bounds_are_its_rate():
    kernel = ExponentialKernel(2.5)
    assert kernel.k0 == kernel.k1 == kernel.delta == 2.5


def test_dirichlet_grid_eigenvalues():
    grid = square_grid(4)
    assert grid.xi == pytest.approx([1.0, 4.0, 9.0, 16.0])
    assert grid.xi_of(3) == pytest.approx(9.0)


def test_dirichlet_grid_stores_one_set_of_bits():
    # Python's pow(x, 2) and numpy's x*x disagree in the last bit for 12 of
    # these modes; xi_of must read the stored array, not recompute it
    grid = ModeGrid.dirichlet(1.0, 2300)
    assert all(grid.xi_of(k) == grid.xi[k - 1] for k in range(1, grid.count + 1))


def test_validate_reference_set_passes():
    report = validate_params(P0, KER1, square_grid(10))
    assert report.passed
    assert report.kappa == pytest.approx(0.75, abs=1e-12)


def test_validate_fails_on_negative_alpha1():
    bad = ModelParams(rho=1, mu=1, alpha=1.0, beta=1.0, gamma=2.0, a=0.5)
    report = validate_params(bad, KER1, square_grid(3))
    assert not report.passed
    names = [c.name for c in report.failures()]
    assert "alpha1_positive" in names
    assert "-3" in [c for c in report.checks if c.name == "alpha1_positive"][0].detail


@pytest.mark.parametrize("alpha, gamma", [(2.0, 2.0), (1.0, 1.0)])  # alpha1 = -2 and exactly 0
def test_wave_speed_split_fails_without_positive_alpha1(alpha, gamma):
    # README parameters otherwise: (beta/mu + alpha/rho)^2 > 4*alpha1*beta/(rho*mu)
    # holds, but the squared wave speeds multiply to alpha1*beta/(rho*mu) <= 0
    params = ModelParams(rho=1.0, mu=1.0, alpha=alpha, beta=1.0, gamma=gamma, a=0.5)
    report = validate_params(params, KER1, square_grid(3))
    assert "wave_speed_split" in [c.name for c in report.failures()]


def test_validate_fails_on_flat_kernel_sample():
    s = np.linspace(0.0, 5.0, 51)
    g = np.exp(-s)
    g[1] = g[0]  # zero derivative at the first gap
    kernel = TabulatedKernel(s=s, g_values=g, k0=1.5, k1=0.5)
    report = validate_params(P0, kernel, square_grid(3))
    assert not report.passed
    assert any(c.name == "kernel_derivative_pinch" for c in report.failures())


def test_validate_accepts_exactly_exponential_table():
    # the derivative table is second order at the ends too, so the pinch slack
    # is not spent on a first-order end difference of size h/2
    s = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    kernel = TabulatedKernel(s=s, g_values=np.exp(-s), k0=1.0, k1=1.0)
    report = validate_params(P0, kernel, square_grid(3))
    assert report.passed, report.failures()


STEEP_TABLE = np.arange(0.0, 14.0 + 1e-9, 5e-4)


def test_validate_accepts_steep_exponential_table():
    # the end difference reads g'(0) = -7.99996: its error h^2*8^3/3 = 4.3e-5
    # is five times the fixed part of the slack, 1e-6*max|g'| + 1e-12
    kernel = TabulatedKernel(s=STEEP_TABLE, g_values=np.exp(-8.0 * STEEP_TABLE), k0=8.0, k1=8.0)
    report = validate_params(P0, kernel, square_grid(3))
    assert report.passed, report.failures()


def test_validate_rejects_steep_table_past_the_pinch():
    # g' = -8.002*g breaks g' >= -8*g by 2.5e-4 relative, about three times
    # the whole slack at the same spacing
    kernel = TabulatedKernel(s=STEEP_TABLE, g_values=np.exp(-8.002 * STEEP_TABLE), k0=8.0, k1=8.0)
    report = validate_params(P0, kernel, square_grid(3))
    assert [c.name for c in report.failures()] == ["kernel_derivative_pinch"]


IRREGULAR_TABLE = 7.0 * np.linspace(0.0, 1.0, 20001) * (1.0 + np.linspace(0.0, 1.0, 20001))
FINE_TABLE = np.arange(0.0, 40.0 + 1e-9, 0.01)
KINK_TABLE = np.arange(0.0, 5.0 + 1e-9, 1e-3)


@pytest.mark.parametrize(
    "s, g, k0, k1",
    [
        # spacing growing from 3.5e-4 to 1.05e-3, both pinch bounds tight
        (IRREGULAR_TABLE, np.exp(-8.0 * IRREGULAR_TABLE), 8.0, 8.0),
        # g'/g runs from -7/6 at s = 0 to -1 at the far end
        (FINE_TABLE, np.exp(-FINE_TABLE) * (1.0 + 0.2 * np.exp(-FINE_TABLE)), 1.17, 0.999),
        # g'/g jumps from -1 to -2 at s = 1, which the pinch allows
        (KINK_TABLE, np.exp(-KINK_TABLE - np.clip(KINK_TABLE - 1.0, 0.0, None)), 2.0, 1.0),
    ],
    ids=["irregular-exp8", "two-exponentials", "kink"],
)
def test_validate_accepts_tables_within_the_pinch(s, g, k0, k1):
    report = validate_params(P0, TabulatedKernel(s=s, g_values=g, k0=k0, k1=k1), square_grid(3))
    assert report.passed, report.failures()


JUMP_TABLE = np.linspace(0.0, 5.0, 501)
COARSE_TABLE = np.arange(0.0, 10.0 + 1e-9, 0.5)
STRETCH_TABLE = np.r_[np.arange(0.0, 1.0, 0.01), np.arange(1.0, 3.0, 0.5), np.arange(3.0, 6.0 + 1e-9, 0.01)]


@pytest.mark.parametrize(
    "s, g",
    [
        # g halved at s = 1: the difference across the jump reads g' = -9.5
        (JUMP_TABLE, np.exp(-JUMP_TABLE) * np.where(JUMP_TABLE >= 1.0, 0.5, 1.0)),
        # g' = -5*g throughout, sampled every 0.5
        (COARSE_TABLE, np.exp(-5.0 * COARSE_TABLE)),
        # g' = -5*g on 1 < s < 3 only, where the table is sampled every 0.5
        (STRETCH_TABLE, np.exp(-STRETCH_TABLE - 4.0 * np.clip(STRETCH_TABLE - 1.0, 0.0, 2.0))),
    ],
    ids=["jump", "coarse-exp5", "coarse-stretch"],
)
def test_validate_rejects_rough_tables_past_the_pinch(s, g):
    # the third differences of a rough table are large; the slack they give
    # must stay capped well below a breach of the declared k0 = 1
    report = validate_params(P0, TabulatedKernel(s=s, g_values=g, k0=1.0, k1=1.0), square_grid(3))
    assert [c.name for c in report.failures()] == ["kernel_derivative_pinch"]


def test_kernel_mass_exponential_closed_form():
    assert ExponentialKernel(1.0).zeta == pytest.approx(1.0)
    assert ExponentialKernel(2.0).zeta == pytest.approx(0.5)


def test_kernel_mass_tabulated_matches_closed_form():
    s = np.arange(0.0, 40.0 + 1e-12, 0.01)
    kernel = TabulatedKernel(s=s, g_values=2.0 * np.exp(-s), k0=1.0, k1=1.0)
    assert kernel.zeta == pytest.approx(2.0, abs=1e-6)


def test_tabulated_kernel_mass_is_computed_once(monkeypatch):
    calls = []
    simpson = model._simpson

    def counted(*args, **kwargs):
        calls.append(1)
        return simpson(*args, **kwargs)

    monkeypatch.setattr(model, "_simpson", counted)
    s = np.arange(0.0, 40.0 + 1e-12, 0.01)
    kernel = TabulatedKernel(s=s, g_values=2.0 * np.exp(-s), k0=1.0, k1=1.0)
    first = kernel.zeta
    assert kernel.zeta == first and type(first) is float
    assert len(calls) == 1


@pytest.mark.parametrize("n", [3, 4, 5, 10, 11, 1000, 1001, 28_001])
@pytest.mark.parametrize("spacing", ["regular", "irregular"])
def test_simpson_matches_scipy_bit_for_bit(n, spacing):
    from scipy.integrate import simpson

    if spacing == "regular":
        x = 5e-4 * np.arange(n)
    else:
        x = np.concatenate([[0.0], np.cumsum(np.random.default_rng(n).uniform(0.1, 1.0, n - 1))])
    y = np.exp(-x) * (1.0 + 0.3 * np.sin(7.0 * x))
    assert model._simpson(y, x) == float(simpson(y, x=x))


def test_tabulated_kernel_mass_failure_raises_on_every_access():
    s = np.linspace(0.0, 5.0, 40)
    kernel = TabulatedKernel(s=s, g_values=-np.exp(-s), k0=1.1, k1=0.9)
    for _ in range(2):
        with pytest.raises(InvalidModelError):
            kernel.zeta


def test_energy_reference_mode():
    xi = square_grid(3).xi_of(1)
    stiff, kin_v, coup, kin_p = energy_parts(1.0, 0.0, 0.0, 0.0, xi, P0, KER1.zeta)
    # 1.75 - 1 (stiffness) + 0.25 (coupling through gamma*v)
    assert stiff + kin_v + coup + kin_p == pytest.approx(1.0, abs=1e-12)
    assert stiff == pytest.approx(0.75)
    assert coup == pytest.approx(0.25)


def test_energy_with_flat_history():
    # with a zero past, eta(0, s) = v0 for s > 0: the memory part
    # adds zeta*xi^a*|v0|^2 = 1 to the mechanical 1.0
    grid = square_grid(3)
    trajs = exact_modal_evolve([grid.xi_of(1)], [[1.0, 0.0, 0.0, 0.0]], P0, KER1.delta)
    trace = energy_trace(trajs, np.array([0.0, 0.1, 0.2]))
    assert trace.total[0] == pytest.approx(2.0, abs=1e-12)


def test_energy_zero_state():
    xi = square_grid(3).xi_of(2)
    assert sum(energy_parts(0.0, 0.0, 0.0, 0.0, xi, P0, KER1.zeta)) == 0.0


def test_energy_additive_across_modes():
    grid = square_grid(5)
    rng = np.random.default_rng(7)
    s1 = rng.standard_normal(4)
    s2 = rng.standard_normal(4)
    times = np.linspace(0.0, 3.0, 7)
    trajs = exact_modal_evolve([grid.xi_of(1), grid.xi_of(4)], [s1, s2], P0, KER1.delta)
    together = energy_trace(trajs, times).total
    apart = energy_trace(trajs[0], times).total + energy_trace(trajs[1], times).total
    assert together == pytest.approx(apart, rel=1e-14)


def test_stiffness_dominates_kappa_margin():
    grid = square_grid(30)
    report = validate_params(P0, KER1, grid)
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 31))
        v = complex(*rng.standard_normal(2))
        stiff = energy_parts(v, 0.0, 0.0, 0.0, grid.xi_of(k), P0, KER1.zeta)[0]
        assert stiff >= report.kappa * grid.xi_of(k) * abs(v) ** 2 - 1e-12


def test_array_holding_objects_hash_and_compare_by_identity():
    # an ndarray field made == raise ValueError and hash() raise TypeError
    grid = ModeGrid.dirichlet(1.0, 3)
    lag = laguerre_grid(4, 1.0)
    twin = ModeGrid.dirichlet(1.0, 3)
    members = {grid, lag, twin, grid}
    assert len(members) == 3 and grid in members and lag in members
    assert grid == grid and lag == lag
    assert grid != twin and lag != laguerre_grid(4, 1.0) and grid != lag
    holders = [
        model.ModeGrid,
        model.TabulatedKernel,
        resolvent.LaguerreGrid,
        resolvent.ModeBlock,
        resolvent.SweepResult,
        spectral.SpectrumBranch,
        timedomain.ModalTrajectories,
        timedomain.EnergyTrace,
    ]
    assert [cls.__name__ for cls in holders if cls.__dataclass_params__.eq] == []


def test_random_draws_validate():
    rng = np.random.default_rng(11)
    for _ in range(10):
        params, kernel = draw_validated(rng)
        report = validate_params(params, kernel, square_grid(5))
        assert report.passed, report.failures()
        assert 0.0 < report.kappa < params.alpha1


def test_coercivity_margin_is_the_reported_kappa_and_grows_with_xi():
    # validate reports the margin at the first mode, which decides for the grid
    grid = square_grid(30)
    assert validate_params(P0, KER1, grid).kappa == coercivity_margin(grid.xi_of(1), P0, KER1.zeta)
    for params in (P0, p0_with_a(0.0), p0_with_a(0.97)):
        assert np.all(np.diff(coercivity_margin(grid.xi, params, KER1.zeta)) > 0.0)
