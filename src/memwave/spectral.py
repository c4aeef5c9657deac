"""Per-mode characteristic polynomial, exact roots, and eigenvalue asymptotics.

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

from .model import InvalidModelError, ModeGrid, ModelParams, memoryless_generator


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
    discriminant: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "AsymptoticConstants":
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
            discriminant=disc,
        )

    def m(self, j: int) -> float:
        return (self.m1, self.m2)[j - 1]

    def mhat(self, j: int) -> float:
        return (self.mhat1, self.mhat2)[j - 1]


# ---------------------------------------------------------------------------
# quintic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharPoly:
    """Monic quintic of one mode, coefficients in descending degree."""

    k: int
    xi: float
    delta: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __call__(self, lam: complex) -> complex:
        return _horner(self.coeffs, lam)

    def determinant(self, lam: complex) -> complex:
        """The rational characteristic function ``Delta(lam)``, i.e. the
        quintic divided by the cleared pole factor ``lam + delta``."""
        return self(lam) / (lam + self.delta)


def quintic_coeffs(xi: float, params: ModelParams, delta: float, *, k: int = 0) -> CharPoly:
    """Quintic coefficients at the operator eigenvalue ``xi``; ``k`` only
    labels the mode."""
    s_sum = params.beta / params.mu + params.alpha / params.rho
    p_prod = params.alpha1 * params.beta / (params.rho * params.mu)
    coeffs = np.array(
        [
            1.0,
            delta,
            s_sum * xi,
            s_sum * delta * xi - xi**params.a / params.rho,
            p_prod * xi * xi,
            p_prod * delta * xi * xi - (params.beta / (params.rho * params.mu)) * xi ** (params.a + 1.0),
        ]
    )
    return CharPoly(k, float(xi), float(delta), coeffs)


def _horner(coeffs: np.ndarray, lam: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in coeffs:
        acc = acc * lam + c
    return acc


def _horner_pair(coeffs: np.ndarray, lam: complex) -> tuple[complex, complex]:
    p = 0.0 + 0.0j
    dp = 0.0 + 0.0j
    for c in coeffs:
        dp = dp * lam + p
        p = p * lam + c
    return p, dp


def _residual_scale(coeffs: np.ndarray, lam: complex) -> float:
    mag = abs(lam)
    scale = 0.0
    power = 1.0
    for c in coeffs[::-1]:
        scale += abs(c) * power
        power *= mag
    return max(scale, 1e-300)


def _polish(coeffs: np.ndarray, lam: complex, steps: int = 3) -> complex:
    for _ in range(steps):
        p, dp = _horner_pair(coeffs, lam)
        if dp == 0:
            break
        step = p / dp
        if abs(step) <= 1e-17 * (1.0 + abs(lam)):
            break
        lam = lam - step
    return lam


@dataclass(frozen=True)
class SpectrumBranch:
    """Labelled roots of one mode's quintic.

    ``lambda0`` is the real-axis branch; ``lam(j, +1)``/``lam(j, -1)`` give
    the oscillatory pair of speed ``m_j``.  Roots are conjugate-paired and the
    relative residuals ``|quintic(root)| / sum |c_i||root|^i`` are stored.
    ``degenerate`` marks small-``xi`` configurations where the standard
    one-real-plus-two-pairs structure was not found and labels were assigned
    by nearest asymptotic seed instead.
    """

    k: int
    xi: float
    delta: float
    lambda0: complex
    pairs: tuple[tuple[complex, complex], tuple[complex, complex]]
    residuals: np.ndarray
    degenerate: bool = False

    def lam(self, j: int, sign: int) -> complex:
        plus, minus = self.pairs[j - 1]
        return plus if sign > 0 else minus

    def all_roots(self) -> np.ndarray:
        return np.array(
            [self.lambda0, self.pairs[0][0], self.pairs[0][1], self.pairs[1][0], self.pairs[1][1]]
        )

    def root_sum(self) -> complex:
        return complex(self.all_roots().sum())

    def labels(self) -> tuple[str, ...]:
        return ("0", "1+", "1-", "2+", "2-")


def quintic_roots(poly: CharPoly, params: ModelParams) -> SpectrumBranch:
    """All five roots via companion-matrix eigenvalues plus Newton polish.

    Residual target is 1e-10 relative to ``sum |c_i||root|^i``; failure raises
    ``ConvergenceError`` carrying the residuals.  Branch labels come from the
    conjugate-pair structure (pairs sorted by |Im| match the ordering
    ``m_1 < m_2``); configurations without one near-real root and two strict
    pairs fall back to nearest-seed labelling and are flagged degenerate.
    """
    raw = np.roots(poly.coeffs)
    roots = np.array([_polish(poly.coeffs, z) for z in raw])

    tol = 1e-8
    real_mask = np.abs(roots.imag) <= tol * (1.0 + np.abs(roots))
    degenerate = int(real_mask.sum()) != 1 or int((~real_mask).sum()) != 4

    if not degenerate:
        lam0 = complex(roots[real_mask][0].real)
        complex_roots = roots[~real_mask]
        plus = np.sort_complex(complex_roots[complex_roots.imag > 0])
        minus = np.sort_complex(complex_roots[complex_roots.imag < 0].conj())
        if plus.size == 2 and minus.size == 2:
            # average each root with the conjugate of its partner: exact pairing
            paired = 0.5 * (plus + minus)
            paired = paired[np.argsort(paired.imag)]
            pairs = (
                (complex(paired[0]), complex(paired[0].conjugate())),
                (complex(paired[1]), complex(paired[1].conjugate())),
            )
        else:
            degenerate = True

    if degenerate:
        seeds = asymptotic_eigenvalues(poly.xi, params, poly.delta)
        order = []
        remaining = list(roots)
        for seed in seeds:
            i = int(np.argmin([abs(z - seed) for z in remaining]))
            order.append(remaining.pop(i))
        lam0 = complex(order[0])
        pairs = ((complex(order[1]), complex(order[2])), (complex(order[3]), complex(order[4])))

    branch = SpectrumBranch(
        k=poly.k,
        xi=poly.xi,
        delta=poly.delta,
        lambda0=lam0,
        pairs=pairs,
        residuals=np.array([
            abs(_horner(poly.coeffs, z)) / _residual_scale(poly.coeffs, z)
            for z in (lam0, pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1])
        ]),
        degenerate=degenerate,
    )
    if np.any(branch.residuals > 1e-10):
        raise ConvergenceError(
            f"root polishing stalled at relative residuals {branch.residuals} "
            f"(k={poly.k}, xi={poly.xi:g})"
        )
    return branch


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


def shifted_cubic_coeffs(xi: float, j: int, params: ModelParams, delta: float) -> np.ndarray:
    """Cubic satisfied by ``Y = -delta - lam`` for every branch-cubic root:
    ``Y^3 + 2*delta*Y^2 + (delta^2 + m_j*xi)*Y + (mhat_j/rho)*xi^a``.

    Its root product identity is what pins the pair's real part: the real
    ``Y``-root equals twice the oscillatory real part and behaves like
    ``-(mhat_j/(rho*m_j)) * xi^(a-1)``.
    """
    c = AsymptoticConstants.from_params(params)
    return np.array(
        [
            1.0,
            2.0 * delta,
            delta**2 + c.m(j) * xi,
            (c.mhat(j) / params.rho) * xi**params.a,
        ]
    )


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def asymptotic_eigenvalues(xi: float, params: ModelParams, delta: float) -> np.ndarray:
    """Leading-order branch values ``[lam0, lam1+, lam1-, lam2+, lam2-]``.

    ``lam0 = -delta + xi^(a-1)/alpha1`` and
    ``lam_{j,+-} = -mhat_j/(2*rho*m_j)*xi^(a-1) +- i*sqrt(m_j*xi)``.
    """
    c = AsymptoticConstants.from_params(params)
    lam0 = -delta + xi ** (params.a - 1.0) / params.alpha1
    out = [complex(lam0)]
    for j in (1, 2):
        re = -c.mhat(j) / (2.0 * params.rho * c.m(j)) * xi ** (params.a - 1.0)
        im = math.sqrt(c.m(j) * xi)
        out.extend([re + 1j * im, re - 1j * im])
    return np.array(out)


def sharpness_product(branch: SpectrumBranch, j: int, a: float) -> float:
    """``|Re lam_{k,j,+}| * |Im lam_{k,j,+}|^(2(1-a))`` from numeric roots."""
    if branch.degenerate:
        raise ValueError(f"branch labels are degenerate at k={branch.k}, xi={branch.xi:g}")
    lam = branch.lam(j, +1)
    return abs(lam.real) * abs(lam.imag) ** (2.0 * (1.0 - a))


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

    k: int
    delta: float
    admissible: tuple[tuple[str, complex], ...]
    excluded: tuple[tuple[str, complex], ...]


def strip_check(branch: SpectrumBranch, delta: float) -> StripReport:
    """Classify each labelled root; any root with ``Re >= 0`` is fatal."""
    admissible = []
    excluded = []
    for label, root in zip(branch.labels(), branch.all_roots()):
        if root.real >= 0.0:
            raise StabilityViolationError(
                f"characteristic root with nonnegative real part: k={branch.k}, "
                f"xi={branch.xi:g}, lam={root}"
            )
        if root.real > -delta / 2.0:
            admissible.append((label, complex(root)))
        else:
            excluded.append((label, complex(root)))
    return StripReport(branch.k, delta, tuple(admissible), tuple(excluded))


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


def eigvec(lam: complex, xi: float, params: ModelParams, delta: float) -> np.ndarray:
    """Eigenvector of the reduced generator at a quintic root, normalised to
    ``v = 1``: ``(1, lam, phi, lam*phi, 1/(lam+delta))`` with
    ``phi = gamma*beta*xi / (mu*lam^2 + beta*xi)``."""
    phi = params.gamma * params.beta * xi / (params.mu * lam * lam + params.beta * xi)
    return np.array([1.0, lam, phi, lam * phi, 1.0 / (lam + delta)], dtype=complex)


# ---------------------------------------------------------------------------
# per-mode summary rows (CSV emission)
# ---------------------------------------------------------------------------


def spectrum_rows(params: ModelParams, delta: float, grid: ModeGrid) -> list[dict]:
    """One dict per mode: numeric roots, asymptotic seeds, branch errors,
    sharpness products and the root-sum check."""
    rows = []
    for k in range(1, grid.count + 1):
        poly = quintic_coeffs(grid.xi_of(k), params, delta, k=k)
        branch = quintic_roots(poly, params)
        asym = asymptotic_eigenvalues(poly.xi, params, delta)
        numeric = branch.all_roots()
        row: dict = {"k": k, "xi": poly.xi}
        for label, z in zip(("num0", "num1p", "num1m", "num2p", "num2m"), numeric):
            row[f"{label}_re"] = z.real
            row[f"{label}_im"] = z.imag
        for label, z in zip(("asym0", "asym1p", "asym1m", "asym2p", "asym2m"), asym):
            row[f"{label}_re"] = z.real
            row[f"{label}_im"] = z.imag
        row["err0"] = abs(numeric[0] - asym[0])
        row["err1"] = abs(numeric[1] - asym[1])
        row["err2"] = abs(numeric[3] - asym[3])
        row["sharpness1"] = sharpness_product(branch, 1, params.a)
        row["sharpness2"] = sharpness_product(branch, 2, params.a)
        row["root_sum"] = branch.root_sum().real
        rows.append(row)
    return rows


__all__ = [
    "AsymptoticConstants",
    "CardanoIntermediates",
    "CharPoly",
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
    "shifted_cubic_coeffs",
    "spectrum_rows",
    "strip_check",
]
