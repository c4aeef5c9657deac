"""Shared fixtures-in-plain-functions for the test suite."""

from __future__ import annotations

import math

import numpy as np

from memwave.model import ExponentialKernel, ModeGrid, ModelParams
from memwave.timedomain import marginal_data_amplitudes

# reference parameter set used throughout: rho = mu = beta = 1, alpha = 2,
# gamma = 1/2, fractional order 1/2, exponential kernel rate 1, xi_k = k^2
P0 = ModelParams(rho=1.0, mu=1.0, alpha=2.0, beta=1.0, gamma=0.5, a=0.5)
KER1 = ExponentialKernel(1.0)


def p0_with_a(a: float) -> ModelParams:
    return ModelParams(rho=1.0, mu=1.0, alpha=2.0, beta=1.0, gamma=0.5, a=a)


def square_grid(n: int) -> ModeGrid:
    return ModeGrid.dirichlet(math.pi, n)


def xi_grid(*values: float) -> ModeGrid:
    return ModeGrid(np.array(values, dtype=float))


def marginal_data(grid: ModeGrid, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n_modes`` modes ``xi`` of ``grid`` and their initial ``(v, u,
    p, q)``: the marginal displacements, at rest."""
    x0 = np.zeros((n_modes, 4))
    x0[:, 0] = marginal_data_amplitudes(grid.xi[:n_modes])
    return grid.xi[:n_modes], x0


def draw_validated(rng: np.random.Generator) -> tuple[ModelParams, ExponentialKernel]:
    """Random parameter set satisfying every validation check for grids with
    xi_1 >= 1 (coercivity margin built in by construction of alpha)."""
    rho = rng.uniform(0.5, 2.0)
    mu = rng.uniform(0.5, 2.0)
    beta = rng.uniform(0.5, 2.0)
    gamma = rng.uniform(0.2, 1.0)
    delta = rng.uniform(0.6, 2.0)
    a = rng.uniform(0.0, 0.85)
    alpha = gamma**2 * beta + 1.0 / delta + rng.uniform(0.3, 1.5)
    return (
        ModelParams(rho=rho, mu=mu, alpha=alpha, beta=beta, gamma=gamma, a=a),
        ExponentialKernel(delta),
    )
