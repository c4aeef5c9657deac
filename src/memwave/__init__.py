"""Numerical laboratory for strongly coupled waves with one fractional-power
infinite-memory damping term: per-mode spectra, resolvent sweeps, exact time
evolution, and decay-rate/optimality verdicts."""

from .analysis import (
    DecayFit,
    fit_decay_exponent,
    optimality_check,
    superposition_oracle,
    target_exponent,
)
from .model import (
    ExponentialKernel,
    InvalidModelError,
    ModeGrid,
    ModelParams,
    TabulatedKernel,
    validate_params,
)
from .resolvent import (
    LaguerreGrid,
    ModeBlock,
    ResolventSweeper,
    SweepResult,
    laguerre_grid,
    mode_block,
    scaled_sweep,
    static_solve,
)
from .spectral import (
    AsymptoticConstants,
    SpectrumBranch,
    asymptotic_eigenvalues,
    cardano_cubic_roots,
    modal_generator,
    quintic_coeffs,
    quintic_roots,
    sharpness_limit,
    sharpness_product,
    strip_check,
)
from .timedomain import (
    EnergyTrace,
    ExponentialPolyHistory,
    HistoryTerm,
    ModalTrajectories,
    energy_trace,
    evolve_general_kernel,
    exact_modal_evolve,
    memory_energy_closed_form,
)

__version__ = "0.1.0"
