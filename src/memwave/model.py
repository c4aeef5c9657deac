"""Model data: physical parameters, memory kernels, mode grids, modal energy.

The system under study couples two second-order equations through a strictly
positive self-adjoint operator ``A`` with eigenvalues ``0 < xi_1 < xi_2 < ...``
and damps the first one through a single infinite-memory convolution carrying
the fractional power ``A^a``, ``a in [0, 1)``::

    rho * v_tt = -alpha*A*v + gamma*beta*A*p + int_0^inf g(s) A^a v(t-s) ds
    mu  * p_tt = -beta *A*p + gamma*beta*A*v

Everything in this package works per mode, and a mode is known by its
eigenvalue ``xi`` alone: along its eigenfunction the state is the coefficient
tuple ``(v, u, p, q)`` (displacements and velocities) plus the shifted
history ``eta(t, s) = v(t) - v(t - s)``, which ``timedomain`` carries and
evolves.  Only the command line maps a mode number ``k`` to ``xi_k``.

The squared energy norm of a mode is

    alpha1*xi*|v|^2 - zeta*xi^a*|v|^2 + rho*|u|^2
        + beta*xi*|gamma*v - p|^2 + mu*|q|^2 + xi^a * int g(s)|eta(s)|^2 ds

with ``alpha1 = alpha - gamma^2*beta > 0`` and ``zeta = int_0^inf g``.  The
first two terms stay uniformly positive exactly when the coercivity margin
``kappa = alpha1 - zeta*xi_1^(a-1)`` is positive.  ``coercivity_margin`` and
``require_coercive`` decide that for every module; ``validate_params`` reports
it together with the kernel hypotheses (positivity, strictly negative
derivative pinched between two exponential rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np


class InvalidModelError(ValueError):
    """Raised when constructor-level constraints on the model data fail."""


def _freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the coupled system.

    ``alpha1 = alpha - gamma^2*beta`` is derived.  Its positivity is a
    standing assumption of the model; it is reported by ``validate_params``
    rather than enforced here so that invalid parameter sets can be diagnosed.
    The fractional order must satisfy ``a in [0, 1)``: the limit ``a = 1``
    (viscoelastic damping) is out of scope and rejected outright.
    """

    rho: float
    mu: float
    alpha: float
    beta: float
    gamma: float
    a: float

    def __post_init__(self) -> None:
        for name in ("rho", "mu", "alpha", "beta", "gamma"):
            if not getattr(self, name) > 0.0:
                raise InvalidModelError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (0.0 <= self.a < 1.0):
            raise InvalidModelError(f"fractional order a must lie in [0, 1), got {self.a}")

    @property
    def alpha1(self) -> float:
        return self.alpha - self.gamma**2 * self.beta


# ---------------------------------------------------------------------------
# memory kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialKernel:
    """Kernel ``g(s) = exp(-delta*s)``; mass ``zeta = 1/delta`` and the
    derivative bounds collapse to ``k0 = k1 = delta``."""

    delta: float

    def __post_init__(self) -> None:
        if not self.delta > 0.0:
            raise InvalidModelError(f"delta must be > 0, got {self.delta}")

    @property
    def zeta(self) -> float:
        return 1.0 / self.delta

    @property
    def k0(self) -> float:
        return self.delta

    @property
    def k1(self) -> float:
        return self.delta

    def g(self, s):
        return np.exp(-self.delta * np.asarray(s, dtype=float))

    def g_prime(self, s):
        return -self.delta * self.g(s)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson quadrature of samples ``y`` on the strictly
    increasing grid ``x`` (at least 3 samples), in the arithmetic of
    ``scipy.integrate.simpson``: the panel formula for irregular spacing over
    pairs of intervals and, for an even sample count, Cartwright's correction
    for the last interval."""
    odd = y.size % 2
    stop = y.size - 2 if odd else y.size - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    ratio = h0 / h1
    result = np.sum(
        hsum
        / 6.0
        * (
            y[0:stop:2] * (2.0 - 1.0 / ratio)
            + y[1 : stop + 1 : 2] * (hsum * (hsum / (h0 * h1)))
            + y[2 : stop + 2 : 2] * (2.0 - ratio)
        )
    )
    if not odd:
        h0, h1 = h[-2:]
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result)


def _difference_error(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-sample allowance for the truncation error of ``np.gradient(y, x,
    edge_order=2)``.  Its leading term is ``h^2*|y3|/3`` at the ends and
    ``h_l*h_r*|y3|/6`` inside (``y3`` the third derivative), so
    ``2*gap^2*|y3|/3``, with ``gap`` the larger neighbouring spacing, covers
    both.  ``y3`` is read from the third divided differences, each sample
    taking the largest of those whose four-point stencil contains it; the
    factor 2 covers that offset and the next-order terms.  With fewer than 4
    samples there is no estimate and the allowance is zero."""
    n = y.size
    h = np.diff(x)
    gap = np.maximum(np.r_[h[0], h], np.r_[h, h[-1]])
    y3 = np.zeros(n)
    if n >= 4:
        d = y
        for order in (1, 2, 3):
            d = np.diff(d) / (x[order:] - x[:-order])
        for offset in range(4):
            y3[offset : offset + n - 3] = np.maximum(y3[offset : offset + n - 3], 6.0 * np.abs(d))
    return 2.0 * gap**2 * y3 / 3.0


@dataclass(frozen=True, eq=False)
class TabulatedKernel:
    """Kernel given by samples ``(s_i, g(s_i))`` on an increasing grid
    starting at 0, with declared derivative pinch ``-k0*g <= g' <= -k1*g``.

    Beyond the last sample the kernel is extrapolated by the slowest decay the
    pinch allows, ``g(s) = g(s_N) * exp(-k1*(s - s_N))``, which also closes
    the mass integral.  ``g_prime_values`` holds the derivative at the
    samples: second-order finite differences, centred inside and one-sided at
    the ends.
    """

    s: np.ndarray
    g_values: np.ndarray
    k0: float
    k1: float
    g_prime_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _freeze(self.s))
        object.__setattr__(self, "g_values", _freeze(self.g_values))
        if self.s.ndim != 1 or self.s.shape != self.g_values.shape or self.s.size < 3:
            raise InvalidModelError("tabulated kernel needs matching 1-d s/g arrays, >= 3 samples")
        if self.s[0] != 0.0 or np.any(np.diff(self.s) <= 0):
            raise InvalidModelError("kernel samples must start at s=0 and increase strictly")
        if not (0.0 < self.k1 <= self.k0):
            raise InvalidModelError(f"need 0 < k1 <= k0, got k0={self.k0}, k1={self.k1}")
        object.__setattr__(
            self, "g_prime_values", _freeze(np.gradient(self.g_values, self.s, edge_order=2))
        )

    @cached_property
    def zeta(self) -> float:
        """Mass ``int_0^inf g``: composite Simpson quadrature over the samples
        plus the exponential tail bound ``g(s_N)/k1`` dictated by the pinch,
        computed on first access and kept."""
        zeta = _simpson(self.g_values, self.s) + float(self.g_values[-1] / self.k1)
        if not (zeta > 0.0 and math.isfinite(zeta)):
            raise InvalidModelError(f"kernel mass is not a positive finite number: {zeta}")
        return zeta

    def g(self, s):
        s = np.asarray(s, dtype=float)
        inside = np.interp(s, self.s, self.g_values)
        tail = self.g_values[-1] * np.exp(-self.k1 * (s - self.s[-1]))
        return np.where(s <= self.s[-1], inside, tail)

    def g_prime(self, s):
        s = np.asarray(s, dtype=float)
        inside = np.interp(s, self.s, self.g_prime_values)
        tail = -self.k1 * self.g_values[-1] * np.exp(-self.k1 * (s - self.s[-1]))
        return np.where(s <= self.s[-1], inside, tail)


Kernel = Union[ExponentialKernel, TabulatedKernel]


# ---------------------------------------------------------------------------
# mode grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """Strictly increasing positive operator eigenvalues ``xi_1 < xi_2 < ...``,
    stored once; ``xi_of(k)`` reads the same bits as ``xi[k - 1]``."""

    xi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", _freeze(self.xi))
        if self.xi.ndim != 1 or self.xi.size < 1:
            raise InvalidModelError("explicit grid needs a nonempty 1-d array")
        if self.xi[0] <= 0.0 or np.any(np.diff(self.xi) <= 0):
            raise InvalidModelError("eigenvalues must be strictly increasing and positive")

    @classmethod
    def dirichlet(cls, length: float, count: int) -> "ModeGrid":
        """Eigenvalues ``xi_k = (k*pi/length)^2`` of the 1-d Dirichlet
        Laplacian on ``(0, length)``, ``k = 1..count``."""
        if not length > 0.0:
            raise InvalidModelError(f"length must be > 0, got {length}")
        if count < 1:
            raise InvalidModelError(f"count must be >= 1, got {count}")
        k = np.arange(1, count + 1, dtype=float)
        return cls((k * math.pi / length) ** 2)

    @property
    def count(self) -> int:
        return int(self.xi.size)

    def xi_of(self, k: int) -> float:
        if not 1 <= k <= self.count:
            raise IndexError(f"mode index {k} outside 1..{self.count}")
        return float(self.xi[k - 1])


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def energy_parts(v, u, p, q, xi: float, params: ModelParams, zeta: float):
    """Stiffness, kinetic-v, coupling and kinetic-p parts of the squared
    energy norm of one mode; scalars or arrays of samples alike.  The memory
    part ``xi^a * int g|eta|^2`` depends on the history and is computed in
    ``timedomain``."""
    stiff = (params.alpha1 * xi - zeta * xi**params.a) * abs(v) ** 2
    kin_v = params.rho * abs(u) ** 2
    coup = params.beta * xi * abs(params.gamma * v - p) ** 2
    kin_p = params.mu * abs(q) ** 2
    return stiff, kin_v, coup, kin_p


def memoryless_generator(xi, params: ModelParams) -> np.ndarray:
    """Memoryless part of one mode's dynamics on ``(v, u, p, q)``:
    ``v' = u``, ``rho*u' = -alpha*xi*v + gamma*beta*xi*p``, ``p' = q`` and
    ``mu*q' = -beta*xi*p + gamma*beta*xi*v``.

    A scalar ``xi`` gives one 4x4 matrix; an array of ``xi`` gives the stack
    of their matrices along the leading axes, entry for entry the same bits.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape + (4, 4))
    out[..., 0, 1] = 1.0
    out[..., 1, 0] = -params.alpha * xi / params.rho
    out[..., 1, 2] = params.gamma * params.beta * xi / params.rho
    out[..., 2, 3] = 1.0
    out[..., 3, 0] = params.gamma * params.beta * xi / params.mu
    out[..., 3, 2] = -params.beta * xi / params.mu
    return out


def coercivity_margin(xi, params: ModelParams, zeta: float):
    """``alpha1 - zeta*xi^(a-1)`` at the modes ``xi``, kernel mass ``zeta``.
    It increases with ``xi`` (``a < 1``): a grid's first mode decides its sign
    for the whole grid."""
    return params.alpha1 - zeta * xi ** (params.a - 1.0)


def require_coercive(xi, failed) -> None:
    """Raise ``InvalidModelError`` naming the first mode of the array ``xi``
    that the mask ``failed`` flags, such as ``coercivity_margin(...) <= 0``."""
    bad = np.asarray(xi, dtype=float)[np.asarray(failed, dtype=bool)]
    if bad.size:
        raise InvalidModelError(
            f"energy weight of mode xi={bad[0]:.6g} is not positive definite; "
            "the coercivity condition fails at this mode"
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    kappa: float | None = field(default=None)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate_params(params: ModelParams, kernel: Kernel, grid: ModeGrid) -> ValidationReport:
    """Check every standing assumption and report the coercivity margin.

    Verified: ``alpha1 > 0``; kernel positivity and finite positive mass;
    the derivative pinch ``-k0*g <= g' <= -k1*g`` with ``g' < 0`` (at every
    sample for tabulated kernels, identically for exponential ones);
    the coercivity condition ``zeta*xi_1^(a-1) < alpha1`` whose gap is the
    reported ``kappa``; and the wave-speed split
    ``(beta/mu + alpha/rho)^2 > 4*alpha1*beta/(rho*mu)`` needed for two
    distinct oscillatory branches.
    """
    checks: list[CheckResult] = []

    a1 = params.alpha1
    checks.append(
        CheckResult(
            "alpha1_positive",
            a1 > 0.0,
            f"alpha1 = alpha - gamma^2*beta = {params.alpha} - {params.gamma}^2*{params.beta} = {a1:.6g}",
        )
    )

    try:
        zeta = kernel.zeta
        mass_ok = zeta > 0.0 and math.isfinite(zeta)
        mass_detail = f"zeta = {zeta:.12g}"
    except InvalidModelError as exc:
        zeta = math.nan
        mass_ok = False
        mass_detail = str(exc)
    checks.append(CheckResult("kernel_mass_finite", mass_ok, mass_detail))

    if isinstance(kernel, ExponentialKernel):
        checks.append(CheckResult("kernel_positive", True, f"g = exp(-{kernel.delta}*s) > 0"))
        checks.append(
            CheckResult("kernel_derivative_pinch", True, f"g' = -{kernel.delta}*g exactly")
        )
    else:
        pos = bool(np.all(kernel.g_values > 0.0))
        checks.append(
            CheckResult(
                "kernel_positive",
                pos,
                "g > 0 at all samples" if pos else f"min g = {kernel.g_values.min():.6g} <= 0",
            )
        )
        d = kernel.g_prime_values
        neg = bool(np.all(d < 0.0))
        # the pinch is checked with slack for the finite-difference error; the
        # estimate grows with a table's roughness, so it is capped at 1e-3 of
        # the declared -k0*g lest a jump or an under-resolved table buy slack
        difference_error = np.minimum(
            _difference_error(kernel.g_values, kernel.s), 1e-3 * kernel.k0 * kernel.g_values
        )
        slack = 1e-6 * np.max(np.abs(d)) + 1e-12 + difference_error
        lo_ok = bool(np.all(d >= -kernel.k0 * kernel.g_values - slack))
        hi_ok = bool(np.all(d <= -kernel.k1 * kernel.g_values + slack))
        if neg and lo_ok and hi_ok:
            detail = f"-k0*g <= g' <= -k1*g holds at {kernel.s.size} samples (k0={kernel.k0}, k1={kernel.k1})"
        elif not neg:
            i = int(np.argmax(d))
            detail = f"g'({kernel.s[i]:.6g}) = {d[i]:.6g} >= 0"
        else:
            i = int(np.argmax(d + kernel.k1 * kernel.g_values)) if not hi_ok else int(
                np.argmin(d + kernel.k0 * kernel.g_values)
            )
            detail = (
                f"pinch violated at s = {kernel.s[i]:.6g}: g' = {d[i]:.6g}, "
                f"g = {kernel.g_values[i]:.6g}, k0 = {kernel.k0}, k1 = {kernel.k1}"
            )
        checks.append(CheckResult("kernel_derivative_pinch", neg and lo_ok and hi_ok, detail))

    xi1 = float(grid.xi[0])
    checks.append(
        CheckResult("grid_increasing", True, f"xi_1 = {xi1:.6g}, N = {grid.count} (enforced at construction)")
    )

    kappa: float | None = None
    if mass_ok and a1 > 0.0:
        margin = coercivity_margin(xi1, params, zeta)
        coercive = margin > 0.0
        if coercive:
            kappa = margin
        checks.append(
            CheckResult(
                "coercivity",
                coercive,
                f"alpha1 - zeta*xi_1^(a-1) = {a1:.6g} - {a1 - margin:.6g} = {margin:.6g}",
            )
        )
    else:
        checks.append(CheckResult("coercivity", False, "skipped: prerequisites failed"))

    s_sum = params.beta / params.mu + params.alpha / params.rho
    prod4 = 4.0 * a1 * params.beta / (params.rho * params.mu)
    checks.append(
        CheckResult(
            "wave_speed_split",
            s_sum**2 > prod4,
            f"(beta/mu + alpha/rho)^2 = {s_sum**2:.6g} vs 4*alpha1*beta/(rho*mu) = {prod4:.6g}",
        )
    )

    return ValidationReport(tuple(checks), kappa)


__all__ = [
    "CheckResult",
    "ExponentialKernel",
    "InvalidModelError",
    "Kernel",
    "ModeGrid",
    "ModelParams",
    "TabulatedKernel",
    "ValidationReport",
    "coercivity_margin",
    "energy_parts",
    "memoryless_generator",
    "require_coercive",
    "validate_params",
]
