"""Characteristic quintic, exact roots and eigenvalue asymptotics, each
evaluated over a whole array of operator eigenvalues ``xi`` at once.

For the exponential kernel ``g(s) = exp(-delta*s)`` the eigenvalue problem of
one mode with operator eigenvalue ``xi`` reduces to the vanishing of

    Delta(lam) = lam^4 + [S*xi - xi^a/(rho*(lam+delta))]*lam^2
                 + P*xi^2 - (beta/(rho*mu)) * xi^(a+1)/(lam+delta)

with ``S = beta/mu + alpha/rho`` and ``P = alpha1*beta/(rho*mu)``.  Clearing
the pole at ``-delta`` turns this into a monic quintic whose five roots split
into one real branch drifting to ``-delta`` and two conjugate oscillatory
branches, one per decoupled wave speed ``m_j``:

    m_j   = (S -/+ sqrt(S^2 - 4P)) / 2              (m_1 < m_2)
    mhat_j = (1 +/- (beta/mu - alpha/rho)/sqrt(S^2 - 4P)) / 2

Leading-order branches (remainders ``O(xi^(a-2))`` and ``O(xi^(a-3/2))``):

    lam_{k,0}    = -delta + xi^(a-1)/alpha1
    lam_{k,j,+-} = -mhat_j/(2*rho*m_j) * xi^(a-1)  +-  i*sqrt(m_j*xi)

The real parts decay like ``|Im|^(-2(1-a))`` along each oscillatory branch;
the product ``|Re|*|Im|^(2(1-a))`` tends to ``mhat_j * m_j^(-a) / (2*rho)``,
which is the sharpness certificate used by the optimality verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InvalidModelError, ModelParams, memoryless_generator


class ConvergenceError(RuntimeError):
    """Root refinement failed to reach the requested residual."""


class StabilityViolationError(RuntimeError):
    """A characteristic root with nonnegative real part was found."""


@dataclass(frozen=True)
class AsymptoticConstants:
    """Squared wave speeds ``m_1 < m_2`` of the decoupled limit and the
    convex weights ``mhat_1 + mhat_2 = 1`` splitting the damping between the
    two oscillatory branches."""

    m1: float
    m2: float
    mhat1: float
    mhat2: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "AsymptoticConstants":
        if not params.alpha1 > 0.0:
            # m1*m2 = alpha1*beta/(rho*mu), so m1 <= 0: no wave speed
            raise InvalidModelError(
                f"alpha1 = alpha - gamma^2*beta must be positive, got {params.alpha1:.6g}; "
                "the squared wave speed m1 is then not positive"
            )
        s_sum = params.beta / params.mu + params.alpha / params.rho
        p_prod = params.alpha1 * params.beta / (params.rho * params.mu)
        disc = s_sum**2 - 4.0 * p_prod
        if disc <= 0.0:
            raise InvalidModelError(
                f"wave-speed discriminant must be positive, got {disc:.6g}; "
                "equal-speed degenerate coupling is not supported"
            )
        root = math.sqrt(disc)
        diff = params.beta / params.mu - params.alpha / params.rho
        return cls(
            m1=(s_sum - root) / 2.0,
            m2=(s_sum + root) / 2.0,
            mhat1=0.5 * (1.0 + diff / root),
            mhat2=0.5 * (1.0 - diff / root),
        )

    def m(self, j: int) -> float:
        return (self.m1, self.m2)[j - 1]

    def mhat(self, j: int) -> float:
        return (self.mhat1, self.mhat2)[j - 1]


# ---------------------------------------------------------------------------
# quintic
# ---------------------------------------------------------------------------


def quintic_coeffs(xi, params: ModelParams, delta: float) -> np.ndarray:
    """Monic quintic coefficients, highest degree first, at each operator
    eigenvalue in ``xi``: shape ``xi.shape + (6,)``."""
    xi = np.asarray(xi, dtype=float)
    s_sum = params.beta / params.mu + params.alpha / params.rho
    p_prod = params.alpha1 * params.beta / (params.rho * params.mu)
    ones = np.ones_like(xi)
    return np.stack(
        [
            ones,
            delta * ones,
            s_sum * xi,
            s_sum * delta * xi - xi**params.a / params.rho,
            p_prod * xi * xi,
            p_prod * delta * xi * xi - (params.beta / (params.rho * params.mu)) * xi ** (params.a + 1.0),
        ],
        axis=-1,
    )


# labels of the five roots, in the order of ``SpectrumBranch.roots``
_ROOT_LABELS = ("0", "1+", "1-", "2+", "2-")


@dataclass(frozen=True, eq=False)
class SpectrumBranch:
    """Labelled roots of the quintic at each operator eigenvalue in ``xi``.

    Every field has ``xi.shape`` in front.  ``roots`` holds the five roots
    along its last axis in label order ``lam0, lam1+, lam1-, lam2+, lam2-``:
    ``lambda0`` is the real-axis branch and ``lam(j, +1)``/``lam(j, -1)``
    the oscillatory pair of speed ``m_j``.  ``residuals`` holds the relative
    residuals ``|quintic(root)| / sum |c_i||root|^i``.  ``degenerate`` marks
    small-``xi`` rows where the standard one-real-plus-two-pairs structure
    was not found and labels were assigned by nearest asymptotic seed
    instead; in every other row the pairs are exactly conjugate.
    """

    xi: np.ndarray
    delta: float
    roots: np.ndarray
    residuals: np.ndarray
    degenerate: np.ndarray

    def __getitem__(self, index) -> "SpectrumBranch":
        return SpectrumBranch(
            self.xi[index], self.delta, self.roots[index], self.residuals[index], self.degenerate[index]
        )

    @property
    def lambda0(self):
        return self.roots[..., 0]

    def lam(self, j: int, sign: int):
        return self.roots[..., 2 * j - 1 if sign > 0 else 2 * j]

    def root_sum(self):
        return self.roots.sum(axis=-1)


def _horner(coeffs: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quintic and its derivative at ``lam`` (shape ``rows + (5,)``), with
    ``coeffs`` of shape ``rows + (6,)``."""
    p = np.zeros_like(lam)
    dp = np.zeros_like(lam)
    for i in range(coeffs.shape[-1]):
        dp = dp * lam + p
        p = p * lam + coeffs[..., i, None]
    return p, dp


def quintic_roots(xi, params: ModelParams, delta: float) -> SpectrumBranch:
    """All five roots at each ``xi``: eigenvalues of the stacked companion
    matrices plus at most three Newton steps per root.

    A root stops early once its step is at most ``1e-17*(1 + |lam|)`` or the
    derivative vanishes.  Residual target is 1e-10 relative to
    ``sum |c_i||root|^i``; failure raises ``ConvergenceError`` naming the
    ``xi``.  Branch labels come from the conjugate-pair structure (pairs
    sorted by ``Im`` match the ordering ``m_1 < m_2``); rows without one
    near-real root and two strict pairs fall back to nearest-seed labelling
    and are flagged degenerate.
    """
    xi = np.asarray(xi, dtype=float)
    coeffs = quintic_coeffs(xi, params, delta).reshape(-1, 6)
    # the companion matrix of np.roots, whose leading coefficient is 1
    companion = np.zeros((coeffs.shape[0], 5, 5))
    companion[:, 0, :] = -coeffs[:, 1:]
    companion[:, np.arange(1, 5), np.arange(4)] = 1.0
    roots = np.linalg.eigvals(companion).astype(complex)

    active = np.ones(roots.shape, dtype=bool)
    for _ in range(3):
        p, dp = _horner(coeffs, roots)
        step = np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
        active &= (dp != 0) & (np.abs(step) > 1e-17 * (1.0 + np.abs(roots)))
        roots = np.where(active, roots - step, roots)

    # LAPACK returns exact conjugate pairs and the polish keeps them, so a row
    # with one root on the real axis has two strict pairs besides
    real = np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots))
    degenerate = real.sum(axis=1) != 1
    labelled = np.empty_like(roots)
    # in Im order the real root sits between the lower and the upper pair;
    # average each root with the conjugate of its partner (both pairs in
    # np.sort_complex order) for an exact pairing, then order the pairs by Im
    std = roots[~degenerate]
    std = np.take_along_axis(std, np.argsort(std.imag, axis=1), axis=1)
    paired = 0.5 * (np.sort(std[:, 3:], axis=1) + np.sort(std[:, :2].conj(), axis=1))
    paired = np.take_along_axis(paired, np.argsort(paired.imag, axis=1), axis=1)
    labelled[~degenerate] = np.stack(
        [std[:, 2].real + 0j, paired[:, 0], paired[:, 0].conj(), paired[:, 1], paired[:, 1].conj()],
        axis=1,
    )
    flat_xi = xi.reshape(-1)
    for row in np.flatnonzero(degenerate):
        remaining = list(roots[row])
        for i, seed in enumerate(asymptotic_eigenvalues(flat_xi[row], params, delta)):
            labelled[row, i] = remaining.pop(int(np.argmin([abs(z - seed) for z in remaining])))

    # relative to sum |c_i||root|^i, the quintic of the |c_i| at |root|
    scale, _ = _horner(np.abs(coeffs), np.abs(labelled))
    residuals = np.abs(_horner(coeffs, labelled)[0]) / np.maximum(scale, 1e-300)
    stalled = np.flatnonzero(np.any(residuals > 1e-10, axis=1))
    if stalled.size:
        row = stalled[0]
        raise ConvergenceError(
            f"root polishing stalled at relative residuals {residuals[row]} (xi={flat_xi[row]:g})"
        )
    return SpectrumBranch(
        xi=xi,
        delta=float(delta),
        roots=labelled.reshape(xi.shape + (5,)),
        residuals=residuals.reshape(xi.shape + (5,)),
        degenerate=degenerate.reshape(xi.shape),
    )


# ---------------------------------------------------------------------------
# cubic branch equations and their closed-form roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CardanoIntermediates:
    """Intermediates of the closed-form cubic solve.

    The branch cubic is depressed with ``p_hat = 9*m_j*xi - 3*delta^2`` and
    ``q_hat = 2*delta^3 + 18*m_j*xi*delta - 27*(mhat_j/rho)*xi^a``; the
    discriminant combination is ``Lambda = (q_hat/2)^2 + (p_hat/3)^3`` with
    ``Phi_+- = -q_hat/2 +- sqrt(Lambda)`` when ``Lambda >= 0``.  A negative
    ``Lambda`` (possible only at small ``xi``) switches to the trigonometric
    three-real-root form, flagged by ``trigonometric``.
    """

    p_hat: float
    q_hat: float
    Lambda: float
    Phi_plus: float
    Phi_minus: float
    cube_root_sum: float
    cube_root_diff: float
    trigonometric: bool


def cubic_coeffs(xi: float, j: int, params: ModelParams, delta: float) -> np.ndarray:
    """Monic cubic of oscillatory branch ``j``:
    ``lam^3 + delta*lam^2 + m_j*xi*lam + m_j*delta*xi - (mhat_j/rho)*xi^a``.
    """
    c = AsymptoticConstants.from_params(params)
    return np.array(
        [
            1.0,
            delta,
            c.m(j) * xi,
            c.m(j) * delta * xi - (c.mhat(j) / params.rho) * xi**params.a,
        ]
    )


def cardano_cubic_roots(
    xi: float, j: int, params: ModelParams, delta: float
) -> tuple[np.ndarray, CardanoIntermediates]:
    """Roots of the branch cubic by the closed-form route.

    For ``Lambda >= 0`` (the oscillatory regime): real root
    ``(Phi_+^(1/3) + Phi_-^(1/3) - delta)/3`` and conjugate pair
    ``-(Phi_+^(1/3) + Phi_-^(1/3) + 2*delta)/6
    +- i*sqrt(3)/6 * (Phi_+^(1/3) - Phi_-^(1/3))``, cube roots taken real and
    signed.  For ``Lambda < 0`` the trigonometric form returns three real
    roots and the intermediates are flagged.
    """
    c = AsymptoticConstants.from_params(params)
    m = c.m(j)
    mhat = c.mhat(j)
    p_hat = 9.0 * m * xi - 3.0 * delta**2
    q_hat = 2.0 * delta**3 + 18.0 * m * xi * delta - 27.0 * (mhat / params.rho) * xi**params.a
    lam_disc = (q_hat / 2.0) ** 2 + (p_hat / 3.0) ** 3

    if lam_disc >= 0.0:
        root = math.sqrt(lam_disc)
        phi_plus = -q_hat / 2.0 + root
        phi_minus = -q_hat / 2.0 - root
        cp = math.copysign(abs(phi_plus) ** (1.0 / 3.0), phi_plus)
        cm = math.copysign(abs(phi_minus) ** (1.0 / 3.0), phi_minus)
        csum = cp + cm
        cdiff = cp - cm
        lam_real = (csum - delta) / 3.0
        re_pair = -(csum + 2.0 * delta) / 6.0
        im_pair = math.sqrt(3.0) / 6.0 * cdiff
        roots = np.array([lam_real, re_pair + 1j * im_pair, re_pair - 1j * im_pair])
        inter = CardanoIntermediates(
            p_hat, q_hat, lam_disc, phi_plus, phi_minus, csum, cdiff, trigonometric=False
        )
    else:
        # three real roots: depressed cubic y^3 + p*y + q with p<0
        p = p_hat / 9.0
        q = q_hat / 27.0
        r = math.sqrt(-p / 3.0)
        theta = math.acos(min(1.0, max(-1.0, 3.0 * q / (2.0 * p * r))))
        ys = [2.0 * r * math.cos((theta - 2.0 * math.pi * i) / 3.0) for i in range(3)]
        roots = np.array([y - delta / 3.0 for y in ys], dtype=complex)
        inter = CardanoIntermediates(
            p_hat, q_hat, lam_disc, math.nan, math.nan, math.nan, math.nan, trigonometric=True
        )
    return roots, inter


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def asymptotic_eigenvalues(xi, params: ModelParams, delta: float) -> np.ndarray:
    """Leading-order branch values ``[lam0, lam1+, lam1-, lam2+, lam2-]`` along
    the last axis, shape ``xi.shape + (5,)``.

    ``lam0 = -delta + xi^(a-1)/alpha1`` and
    ``lam_{j,+-} = -mhat_j/(2*rho*m_j)*xi^(a-1) +- i*sqrt(m_j*xi)``.
    """
    c = AsymptoticConstants.from_params(params)
    xi = np.asarray(xi, dtype=float)
    drift = xi ** (params.a - 1.0)
    out = [-delta + drift / params.alpha1 + 0j]
    for j in (1, 2):
        re = -c.mhat(j) / (2.0 * params.rho * c.m(j)) * drift
        im = np.sqrt(c.m(j) * xi)
        out.extend([re + 1j * im, re - 1j * im])
    return np.stack(out, axis=-1)


def sharpness_product(branch: SpectrumBranch, j: int, a: float):
    """``|Re lam_{k,j,+}| * |Im lam_{k,j,+}|^(2(1-a))`` from numeric roots."""
    if np.any(branch.degenerate):
        xi = np.asarray(branch.xi)[branch.degenerate]
        raise ValueError(f"branch labels are degenerate at xi={xi.reshape(-1)[0]:g}")
    lam = branch.lam(j, +1)
    return np.abs(lam.real) * np.abs(lam.imag) ** (2.0 * (1.0 - a))


def sharpness_limit(params: ModelParams, j: int) -> float:
    """Large-mode limit of the sharpness product: ``mhat_j * m_j^(-a) / (2*rho)``."""
    c = AsymptoticConstants.from_params(params)
    return c.mhat(j) * c.m(j) ** (-params.a) / (2.0 * params.rho)


# ---------------------------------------------------------------------------
# spectral strip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StripReport:
    """Classification of characteristic roots against the admissibility strip
    ``-delta/2 < Re lam < 0``.

    A root with ``Re lam <= -delta/2`` makes the history profile
    ``(1 - exp(-lam*s)) * v`` leave the weighted history space, so it is a
    characteristic root but not an eigenvalue of the full generator; the real
    branch tending to ``-delta`` is the standing example.
    """

    xi: float
    delta: float
    admissible: tuple[tuple[str, complex], ...]
    excluded: tuple[tuple[str, complex], ...]


def strip_check(branch: SpectrumBranch, delta: float) -> StripReport:
    """Classify each labelled root of a one-mode branch; any root with
    ``Re >= 0`` is fatal."""
    admissible = []
    excluded = []
    for label, root in zip(_ROOT_LABELS, branch.roots):
        if root.real >= 0.0:
            raise StabilityViolationError(
                f"characteristic root with nonnegative real part: xi={branch.xi:g}, lam={root}"
            )
        if root.real > -delta / 2.0:
            admissible.append((label, complex(root)))
        else:
            excluded.append((label, complex(root)))
    return StripReport(float(branch.xi), delta, tuple(admissible), tuple(excluded))


# ---------------------------------------------------------------------------
# reduced five-dimensional generator
# ---------------------------------------------------------------------------


def modal_generator(xi: float, params: ModelParams, delta: float) -> np.ndarray:
    """Five-dimensional generator of one mode for the exponential kernel.

    State ``(v, u, p, q, I)`` with the convolved history
    ``I = int g(s) v(t-s) ds`` obeying ``I' = v - delta*I``; the memory force
    enters as ``xi^a * I``.  Its characteristic polynomial is the mode's
    quintic, so the trace equals ``-delta``.
    """
    gen = np.zeros((5, 5))
    gen[:4, :4] = memoryless_generator(xi, params)
    gen[1, 4] = xi**params.a / params.rho
    gen[4, 0] = 1.0
    gen[4, 4] = -delta
    return gen


def eigvec(lam, xi, params: ModelParams, delta: float) -> np.ndarray:
    """Eigenvector of the reduced generator at a quintic root, normalised to
    ``v = 1``: ``(1, lam, phi, lam*phi, 1/(lam+delta))`` with
    ``phi = gamma*beta*xi / (mu*lam^2 + beta*xi)``.  ``lam`` and ``xi``
    broadcast; the components run along the last axis."""
    lam = np.asarray(lam, dtype=complex)
    phi = params.gamma * params.beta * xi / (params.mu * lam * lam + params.beta * xi)
    return np.stack(np.broadcast_arrays(1.0 + 0j, lam, phi, lam * phi, 1.0 / (lam + delta)), axis=-1)


# ---------------------------------------------------------------------------
# per-mode summary rows (CSV emission)
# ---------------------------------------------------------------------------


def spectrum_columns(params: ModelParams, delta: float, xi) -> dict[str, np.ndarray]:
    """One array per CSV column, one entry per entry of ``xi``: numeric
    roots, asymptotic seeds, branch errors, sharpness products and the
    root-sum check."""
    xi = np.asarray(xi, dtype=float)
    branch = quintic_roots(xi, params, delta)
    numeric = branch.roots
    asym = asymptotic_eigenvalues(xi, params, delta)
    columns = {"k": np.arange(1, xi.size + 1), "xi": xi}
    for prefix, roots in (("num", numeric), ("asym", asym)):
        for i, label in enumerate(("0", "1p", "1m", "2p", "2m")):
            columns[f"{prefix}{label}_re"] = roots[:, i].real
            columns[f"{prefix}{label}_im"] = roots[:, i].imag
    columns["err0"] = np.abs(numeric[:, 0] - asym[:, 0])
    columns["err1"] = np.abs(numeric[:, 1] - asym[:, 1])
    columns["err2"] = np.abs(numeric[:, 3] - asym[:, 3])
    columns["sharpness1"] = sharpness_product(branch, 1, params.a)
    columns["sharpness2"] = sharpness_product(branch, 2, params.a)
    columns["root_sum"] = branch.root_sum().real
    return columns


__all__ = [
    "AsymptoticConstants",
    "CardanoIntermediates",
    "ConvergenceError",
    "SpectrumBranch",
    "StabilityViolationError",
    "StripReport",
    "asymptotic_eigenvalues",
    "cardano_cubic_roots",
    "cubic_coeffs",
    "eigvec",
    "modal_generator",
    "quintic_coeffs",
    "quintic_roots",
    "sharpness_limit",
    "sharpness_product",
    "spectrum_columns",
    "strip_check",
]
