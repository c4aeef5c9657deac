"""History discretization, per-mode generator blocks, resolvent-norm sweeps.

The history coordinate ``s`` is collocated at Gauss nodes of the exponential
weight (scaled Gauss-Laguerre), with the interpolation basis pinned to
``eta(0) = 0``.  Two facts make this the right discretization here:

* the quadrature weights integrate the memory energy exactly on the
  polynomial space, so the semidiscrete blocks inherit dissipativity in the
  energy inner product up to roundoff (the quadrature of ``Re(eta' *
  conj(eta))`` is exact at degree ``2M - 1``);
* in energy-orthonormal coordinates (``sqrt(weight)``-scaled nodal values)
  all block entries stay moderate, whereas the raw nodal differentiation
  matrix has entries growing like ``exp(x_max/2)`` and is useless in double
  precision beyond ``M`` around 15.

All norms are therefore computed on congruence-transformed blocks
``B~ = L^T B L^{-T}`` with ``G = L L^T`` the energy weight, where the
resolvent norm is the reciprocal smallest singular value of ``i*tau - B~``.
The congruence is the identity on the history coordinates, so a block is
assembled directly in that layout: ``energy_corners`` gives the 4x4
``(v, u, p, q)`` corners ``A`` of all modes at once, and ``mode_block`` puts
its mode's corner next to the history block ``-D`` (``D = diff_w``, the same
for every mode) and the coupling ``-c*sqrt_weights`` in the ``u`` row and
``c*sqrt_weights`` in the ``u`` column, ``c = xi^(a/2)/sqrt(rho)``.  The
sweep bounds below read the same corners, so a mode's bounds describe the
very block that is SVD'd.

Sweeps bound every mode through the exact reduction onto ``(v, u, p, q)``.
A block meets the history block ``-D`` only through its ``u`` row and
column.  Eliminating the history from
``N = i*tau - B~`` therefore leaves the 4x4 Schur complement

    S_M(tau) = i*tau - A + c^2 * phi_M(tau) * e_u e_u^T,
    phi_M(tau) = sw^T K sw,   K = (i*tau + D)^{-1},

with ``A`` the block's 4x4 corner and ``phi_M`` one scalar shared by all
modes.  The blocks of ``N^{-1}`` are ``S_M^{-1}``, ``-c S_M^{-1} e_u y``,
``c x e_u^T S_M^{-1}`` and ``K - c^2 (S_M^{-1})_uu x y`` with ``x = K sw``
and ``y = sw^T K``, so

    ||S_M^{-1}|| <= ||N^{-1}|| <= || [[||S_M^{-1}||, |c| ||S_M^{-1} e_u|| ||y||],
                                      [|c| ||x|| ||e_u^T S_M^{-1}||,
                                       ||K|| + c^2 |(S_M^{-1})_uu| ||x|| ||y||]] ||.

``||K||`` enters only there and is replaced by its bound
``sqrt(||K||_1 ||K||_inf)``, which needs no BLAS call.

For one resolution and a block of frequencies, ``schur_inverse`` inverts
``S_M`` in one stack for the few (frequency, mode) pairs near resonance that
the screen below leaves, and ``schur_bounds`` turns its four norms
``||S_M^{-1}||``, ``||S_M^{-1} e_u||``, ``||e_u^T S_M^{-1}||`` and
``|(S_M^{-1})_uu|`` into that upper bound.  Each sweeper takes its own
``phi_M``, so the bound describes the Schur complement of the very block
that is SVD'd, with no correction for ``M``.

A screen spares the modes far from resonance that inverse.  Each corner is
``A = Q + H`` with ``Q`` its skew part and ``H`` its symmetric part, which
is zero up to roundoff.  Write ``S_M = i*(tau - T) + Re(beta) e_u e_u^T - H``
with ``beta = c^2 phi_M`` and the Hermitian ``T = -i*Q - Im(beta) e_u e_u^T``.
The eigenvalues ``+-omega_1`` and ``+-omega_2`` of ``-i*Q``, with ``0 <=
omega_1 <= omega_2``, come in closed form.  With ``q_ij`` (``i < j``) the six
entries of ``Q``, ``s = omega_1^2 + omega_2^2 = ||Q||_F^2/2`` is the sum of
their squares and ``p = omega_1*omega_2 = |Pf Q| = |q_01 q_23 - q_02 q_13 +
q_03 q_12|``, so

    omega_2 = (sqrt(s + 2p) + sqrt(s - 2p))/2,   omega_1 = p/omega_2,

with ``s - 2p`` clamped at 0.  A rank-one Hermitian term moves each
eigenvalue one way and by at most its norm (Weyl's monotonicity theorem),
so the ``j``-th eigenvalue of ``T`` lies on the segment from ``omega_j`` to
``omega_j - Im(beta)``, and ``i*(tau - T)`` is normal with ``sigma_min``
between ``near``, the distance from ``tau`` to the nearest segment, and
``far``, the least over ``j`` of the distance to the farther end of a
segment.  Weyl's perturbation theorem then gives
``1/h = near - |Re(beta)| - ||H|| - fuzz <= sigma_min(S_M) <= far +
|Re(beta)| + ||H|| + fuzz`` (``||H||`` is its Frobenius norm).  ``fuzz`` is
the roundoff of the computed ``omega``, ``near`` and ``far``.

The closed form's roundoff, barring overflow and underflow: the computed
``Q`` is exactly skew, and the unit roundoff is ``eps/2``.  Each summand of
``s`` takes six roundings and each of the three products of ``p`` three,
and those products sum to at most ``s/2`` in modulus, so the computed ``s``
and ``p`` are off by at most ``3*eps*s`` and ``0.75*eps*s``, and ``s +- 2p``
by at most ``e = 6*eps*s`` after their own rounding.  As ``|sqrt(a) -
sqrt(b)| <= min(sqrt|a - b|, |a - b|/sqrt(a))``, ``sqrt(s - 2p)`` is
off by at most ``m = min(sqrt(e), e/sqrt(s - 2p))``, computed values on
the right, plus its rounding, and ``sqrt(s + 2p)``, which is at least
``sqrt(s)``, by at most ``6.8*eps*sqrt(s)`` in all.  That puts ``omega_2``
within ``m/2 + 4.2*eps*sqrt(s)``.  ``omega_1 = p/omega_2`` adds the error
of ``p`` over ``omega_2 >= sqrt(s/2)`` and ``omega_1/omega_2 <= 1`` times
that of ``omega_2``, and each of the four eigenvalues is within ``m/2 +
8*eps*sqrt(s)``.  ``m`` is the term that grows: where the two
frequencies are close, ``s - 2p = (omega_2 - omega_1)^2`` cancels and ``m``
grows like ``6*eps*s/(omega_2 - omega_1)``, up to ``sqrt(6*eps*s)`` where
they meet.  With ``eps*||A||_F`` each for forming ``Q`` and ``H``
(``|omega| <= sqrt(s) <= ||A||_F``) and at most eight roundings in
``near`` and ``far``, each of at most ``eps*(|tau| + ||A||_F +
2|beta|)``, the sum is

    fuzz = 10*eps*||A||_F + m/2 + 8*eps*sqrt(s) + 8*eps*(|tau| + 2|beta|).

``h`` bounds all four norms of ``S_M^{-1}``, so ``schur_bounds`` fed ``h``
four times gives a screening upper bound, ``+inf`` where ``1/h <= 0``.
``S_M^{-1}`` is a block of ``N^{-1}``, so the screening lower bound is
``1/(far + |Re(beta)| + ||H|| + fuzz + slack)``, with the slack below; it
stays finite where ``h`` is not.  Only the modes whose screening upper bound
reaches the largest screening lower bound at their frequency are inverted,
and the others keep their screening upper bound.  The screen, the stacked
``(i*tau + D)^{-1}`` and the Schur inverses broadcast over an array of
frequencies, and each frequency's row is what the same code gives at that
frequency alone.

Modes are SVD'd in the order of decreasing upper bounds, and once a mode's
upper bound is below the largest norm already computed, neither it nor any
later mode can be the maximiser, so the loop stops there.  That covers the
screened-out modes: the mode ``j`` with the largest screening lower bound
is kept, and its sharp upper bound is at least its computed norm, which is
at least that lower bound, while each screened-out mode has an upper bound
below it.  So ``j`` is SVD'd, or pruned below the running maximum, before
any screened-out mode comes up.  Every reported norm is still
``1/sigma_min`` of the full block, so the norms and argmax modes are those
of the full loop over every mode of the grid.

The upper bound absorbs roundoff in ``sigma = 1/norm``, so that it bounds the
computed norm too.  Each computation involved (the SVD of the assembled
block, the assembly itself, and the inverses of ``S_M`` and of
``i*tau + D``) is backward stable to first order in ``eps``: its result is
exact for data perturbed by at most ``n*eps`` (``n = 4 + M``) times the
norm of the matrix it works on, and Weyl's perturbation theorem moves a
smallest singular value by no more than the perturbation.  All four norms
are at most ``nu = 2|tau| + ||A||_F + ||D||_F + 2|c| ||sw|| + c^2 |phi_M|``,
so ``1/upper`` is lowered by ``4*n*eps*nu`` before it is inverted back; an
upper bound whose lowered ``sigma`` is not positive is ``+inf``.  The
screening lower bound sets the screen's threshold, so it has to bound the
computed norm too: its ``1/lower`` is raised by the same ``4*n*eps*nu``.
Both roundoff terms are worst-case bounds: exactly on resonance, where they
set the screening lower bound, either of ``fuzz`` and the slack alone keeps
it below the computed norm, so a test sees only the loss of both; that each
is needed rests on the derivation above.  A mode whose bound data are not
finite (its corner, its ``omega``, ``h``, screening lower bound or inverted
``S_M``), and every mode at a frequency where ``i*tau + D`` has no finite
inverse, gets ``upper = +inf``: it is never screened out or pruned, is SVD'd
and raises as the full loop would.

With the continuum history in place of the collocated one the same bound
needs no ``M``: ``phi_M`` becomes the continuum symbol
``phi(tau) = 1/(delta*(delta + i*tau))``, which it equals up to roundoff
(about 1e-13 relative at ``M <= 80``), and ``||y||^2 =
1/(delta*(delta^2 + tau^2))``, ``||x||^2 = 2*||y||^2`` and the weighted
Hardy constant ``||K|| = 2/delta`` are each the limit of its collocated
value and never below it.  ``resolvent_peaks`` maximises that upper bound
near a mode's resonance.

The kernel is its rate ``delta`` (or the ``LaguerreGrid`` built for it) and
the modes are their ``xi``.  ``energy_congruence`` refuses a mode that is not
coercive, so blocks and sweeps do.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .model import (
    InvalidModelError,
    ModelParams,
    _freeze,
    coercivity_margin,
    energy_terms,
    memoryless_generator,
    require_coercive,
)
from .spectral import AsymptoticConstants, SpectrumBranch, quintic_roots


class SingularBlockError(RuntimeError):
    """The shifted block is numerically singular (the sweep hit spectrum)."""


# ---------------------------------------------------------------------------
# quadrature grid for the history coordinate
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LaguerreGrid:
    """Gauss nodes/weights for ``int_0^inf exp(-delta*s) f(s) ds`` plus the
    spectral differentiation matrix in sqrt(weight) coordinates.

    ``diff_w`` maps weighted samples ``sqrt(w_m)*eta(s_m)`` of a polynomial
    with ``eta(0) = 0`` (degree <= M) to the weighted samples of its
    derivative.
    """

    M: int
    delta: float
    nodes: np.ndarray
    weights: np.ndarray
    diff_w: np.ndarray

    def __post_init__(self) -> None:
        for name in ("nodes", "weights", "diff_w"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def sqrt_weights(self) -> np.ndarray:
        return np.sqrt(self.weights)


def laguerre_grid(M: int, delta: float) -> LaguerreGrid:
    """Build the scaled Gauss-Laguerre grid and weighted derivative matrix."""
    if M < 1:
        raise InvalidModelError(f"need at least one node, got M={M}")
    if not delta > 0.0:
        raise InvalidModelError(f"delta must be > 0, got {delta}")
    x, w = laggauss(M)
    if not np.all(np.isfinite(x)) or np.any(w <= 0.0):
        raise InvalidModelError(f"Gauss-Laguerre node computation failed for M={M}")

    # Lagrange differentiation on {0} u nodes, column for the pinned zero
    # node dropped, conjugated by sqrt(weights): entries stay O(1).
    full = np.concatenate([[0.0], x])
    diffs = full[:, None] - full[None, :]
    np.fill_diagonal(diffs, 1.0)
    log_bary = -np.sum(np.log(np.abs(diffs)), axis=1)
    sign_bary = np.prod(np.sign(diffs), axis=1)
    log_c = log_bary[1:] - 0.5 * np.log(w)
    ratio = np.exp(log_c[None, :] - log_c[:, None]) * (sign_bary[1:, None] * sign_bary[None, 1:])
    gap = x[:, None] - x[None, :]
    np.fill_diagonal(gap, 1.0)
    dw = ratio / gap
    # diagonal i: the sum of 1/(x_i - s) over the other points s of {0} u
    # nodes, in their order, one row each
    others = np.broadcast_to(full, (M, M + 1))[~np.eye(M, M + 1, k=1, dtype=bool)].reshape(M, M)
    dw[np.diag_indices(M)] = np.sum(1.0 / (x[:, None] - others), axis=1)
    # physical scaling s = x/delta
    return LaguerreGrid(M=M, delta=delta, nodes=x / delta, weights=w / delta, diff_w=delta * dw)


# ---------------------------------------------------------------------------
# per-mode blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModeBlock:
    """Semidiscrete generator of one mode in energy-orthonormal coordinates.

    Coordinates: ``(L_vp^T (v, p); sqrt(rho) u; sqrt(mu) q;
    xi^(a/2) sqrt(w_m) eta_m)`` where ``L_vp`` is the Cholesky factor of the
    2x2 stiffness-plus-coupling weight.  In these coordinates the energy norm
    is Euclidean, so dissipativity reads ``Re <B~ x, x> <= 0`` directly and
    the resolvent norm is ``1/sigma_min(i*tau - B~)``.
    """

    xi: float
    M: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return 4 + self.M

    def resolvent_norm(self, tau: float) -> float:
        n = self.dim
        # numpy's SVD returns NaNs for inf entries and raises LinAlgError for
        # NaN ones; asarray_chkfinite gives both the one ValueError that
        # error.json reports
        shifted = np.asarray_chkfinite(1j * tau * np.eye(n) - self.matrix)
        smin = np.linalg.svd(shifted, compute_uv=False)[-1]
        if smin <= 0.0 or not math.isfinite(smin):
            raise SingularBlockError(f"i*tau - B singular at tau={tau:g} for mode xi={self.xi:.6g}")
        return 1.0 / smin


def mode_block(xi: float, params: ModelParams, lag: LaguerreGrid, corner: np.ndarray | None = None) -> ModeBlock:
    """Assemble the (4+M)-dimensional block of the mode ``xi`` for the kernel
    ``exp(-lag.delta*s)``,
    ``[[A, -c e_u sw^T], [c sw e_u^T, -D]]`` with ``A`` the mode's
    ``energy_corners`` (``corner`` when given, which must be that corner)
    and ``c = xi^(a/2)/sqrt(rho)``.

    Rows before the congruence: ``memoryless_generator`` on ``(v, u, p, q)``
    plus ``xi^a*(zeta*v - sum_m w_m eta_m)/rho`` on the ``u`` row, and
    ``eta' = u - D eta``; the congruence is the identity on the history
    coordinates, so it only turns the 4x4 corner into ``A`` and the
    coupling on the ``u`` row and column into ``-c sw`` and ``c sw``.  The
    eigenvalues lying in the admissibility strip converge spectrally fast to
    the mode's quintic roots; characteristic roots left of ``-delta/2`` are
    not represented (they are not eigenvalues of the full generator either).
    """
    # a Python float, so that c is Python's scalar power; the corner comes from
    # the vectorised energy_corners, bit for bit the sweep bounds' corner
    xi = float(xi)
    if corner is None:
        corner = energy_corners(np.array([xi]), params, 1.0 / lag.delta)[0]
    c = xi ** (params.a / 2.0) / math.sqrt(params.rho)
    sw = lag.sqrt_weights
    b = np.zeros((4 + lag.M, 4 + lag.M))
    b[:4, :4] = corner
    b[1, 4:] = -c * sw
    b[4:, 1] = c * sw
    b[4:, 4:] = -lag.diff_w
    return ModeBlock(xi=xi, M=lag.M, matrix=b)


def energy_congruence(xi: np.ndarray, params: ModelParams, zeta: float) -> np.ndarray:
    """The 4x4 congruences ``T = L^T`` of the modes ``xi``, stacked along the
    leading axis, with ``L`` the Cholesky factor of the energy weight
    ``G = sum_j w_j x_j x_j^T`` of the ``energy_terms`` ``(w_j, x_j)`` on the
    unit data ``(v, u, p, q)``, so ``|T w|^2`` is the sum of
    ``energy_parts``.  ``G`` is positive definite exactly when its Schur
    complement on ``v``, ``xi`` times the ``coercivity_margin``, is
    positive; a mode where it is not raises ``InvalidModelError``.
    """
    require_coercive(xi, coercivity_margin(xi, params, zeta) <= 0.0)
    terms = energy_terms(*np.eye(4), xi[..., None, None], params, zeta)
    weight = sum(w * np.multiply.outer(x, x) for w, x in terms)
    try:
        lower = np.linalg.cholesky(weight)
    except np.linalg.LinAlgError:
        # within roundoff of kappa = 0 it can fail where the margin is positive
        require_coercive(xi, np.isnan(_or_nan(np.linalg.cholesky, weight)).any(axis=(-2, -1)))
    return np.swapaxes(lower, -2, -1)


def energy_corners(xi: np.ndarray, params: ModelParams, zeta: float) -> np.ndarray:
    """The 4x4 ``(v, u, p, q)`` corners ``A = T G T^{-1}`` of the blocks of
    the modes ``xi``, stacked along the leading axis.

    ``G`` is ``memoryless_generator`` plus the memory force
    ``zeta*xi^a*v/rho`` on the ``u`` row, and ``T`` the
    ``energy_congruence``, which refuses a mode that is not coercive.
    """
    t = energy_congruence(xi, params, zeta)
    g = memoryless_generator(xi, params)
    g[..., 1, 0] = (-params.alpha * xi + zeta * xi**params.a) / params.rho
    return t @ g @ np.linalg.inv(t)


def _or_nan(solve, a: np.ndarray) -> np.ndarray:
    """``solve(a)`` for ``np.linalg.inv`` or ``cholesky``, NaN for each matrix
    of the stack ``a`` that LAPACK refuses; numpy refuses a whole stack for
    one such matrix, which is then solved one matrix at a time."""
    try:
        return solve(a)
    except np.linalg.LinAlgError:
        if a.ndim > 2:
            return np.stack([_or_nan(solve, m) for m in a])
        return np.full(a.shape, np.nan, dtype=np.result_type(a, float))


def continuum_phi(delta: float, tau):
    """The continuum history symbol ``phi(tau) = 1/(delta*(delta + i*tau))``
    of the kernel ``exp(-delta*s)`` (module docstring)."""
    return 1.0 / (delta * (delta + 1j * tau))


def schur_inverse(corners, c, tau, phi):
    """``(||S^{-1}||, ||S^{-1} e_u||, ||e_u^T S^{-1}||, |(S^{-1})_uu|)`` of the
    Schur complements ``S = i*tau - A + c^2 phi e_u e_u^T`` (module
    docstring) for the 4x4 corners ``A``, couplings ``c`` and history symbol
    ``phi`` at ``tau`` (``phi_M`` for a sweep, ``continuum_phi`` for the
    peaks), broadcast over the leading axes of ``corners``; all four are NaN
    where ``S`` has no finite inverse.
    """
    schur = 1j * np.asarray(tau)[..., None, None] * np.eye(4) - corners
    schur[..., 1, 1] += c * c * phi
    s_inv = _or_nan(np.linalg.inv, schur)
    ok = np.all(np.isfinite(s_inv), axis=(-2, -1))
    s_inv = np.where(ok[..., None, None], s_inv, 0.0)
    # ||S^{-1}|| from the largest eigenvalue of its Gram matrix: accurate
    # to relative roundoff, and cheaper than a stacked SVD
    gram = np.conj(np.swapaxes(s_inv, -2, -1)) @ s_inv
    norms = (
        np.sqrt(np.linalg.eigvalsh(gram)[..., -1]),
        np.linalg.norm(s_inv[..., :, 1], axis=-1),
        np.linalg.norm(s_inv[..., 1, :], axis=-1),
        np.abs(s_inv[..., 1, 1]),
    )
    return tuple(np.where(ok, v, np.nan) for v in norms)


def schur_bounds(inverse, c, x_norm, y_norm, k_norm, slack=0.0):
    """Upper bounds on the resolvent norms of the blocks whose
    ``schur_inverse`` is ``inverse`` (module docstring), from their history
    couplings ``c`` and the history data ``||x||``, ``||y||`` and ``||K||``,
    all broadcast over ``inverse``.  ``1/upper`` is lowered by ``slack``;
    the bound is ``+inf`` where no positive ``1/upper`` is left or where
    ``inverse`` is not finite.
    """
    p, col_u, row_u, s_uu = inverse
    # the 2x2 matrix of block norms [[p, q], [r, s]] and its 2-norm
    q = np.abs(c) * col_u * y_norm
    r = np.abs(c) * x_norm * row_u
    s = k_norm + c * c * s_uu * x_norm * y_norm
    block_norm = 0.5 * (np.hypot(p + s, q - r) + np.hypot(p - s, q + r))
    sigma_lo = 1.0 / block_norm - slack
    return np.divide(1.0, sigma_lo, out=np.full(sigma_lo.shape, np.inf), where=sigma_lo > 0.0)


# ---------------------------------------------------------------------------
# resolvent norms along the imaginary axis
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps

# frequencies per ``norm_bounds`` pass of ``scaled_sweep``, which bounds its
# ``(frequencies, modes)`` arrays (about 0.5 MB of them per frequency on 2000
# modes at M = 80)
_FREQUENCY_BLOCK = 8


def _skew_frequencies(skew: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues ``(-omega_2, -omega_1, omega_1, omega_2)`` of
    ``-i*Q`` for the stacked real 4x4 skew matrices ``Q``, in closed form,
    and the bound ``m/2 + 8*eps*sqrt(s)`` on their roundoff (module
    docstring); both are NaN where ``Q`` is not finite."""
    q01, q02, q03, q12, q13, q23 = (skew[..., i, j] for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    s = q01 * q01 + q02 * q02 + q03 * q03 + q12 * q12 + q13 * q13 + q23 * q23
    p = np.abs(q01 * q23 - q02 * q13 + q03 * q12)
    root_minus = np.sqrt(np.maximum(s - 2.0 * p, 0.0))
    omega_2 = 0.5 * (np.sqrt(s + 2.0 * p) + root_minus)
    omega_1 = np.divide(p, omega_2, out=np.zeros(p.shape), where=omega_2 > 0.0)
    omega = np.stack([-omega_2, -omega_1, omega_1, omega_2], axis=-1)
    e = 6.0 * EPS * s
    m = np.minimum(np.sqrt(e), np.divide(e, root_minus, out=np.full(e.shape, np.inf), where=root_minus > 0.0))
    err = 0.5 * m + 8.0 * EPS * np.sqrt(s)
    finite = np.all(np.isfinite(skew), axis=(-2, -1))
    omega[~finite] = np.nan
    err[~finite] = np.nan
    return omega, err


class ResolventSweeper:
    """Evaluates ``max_k ||(i*tau - B_k)^{-1}||`` over every mode of the grid.

    Mode ``k`` is ``xi[k - 1]``, the kernel ``exp(-delta*s)`` and the history
    resolution ``M``.  The sweeper keeps, for every mode, the 4x4
    energy-coordinate corner ``A_k`` of its block and the coupling ``c_k`` to
    the history (see the module docstring); the corners come from one
    ``energy_corners`` call over all modes, without assembling any block.
    ``norm_bounds`` turns them into upper bounds, at one frequency or at an
    array of them in one pass, and only the modes those bounds cannot rule
    out are assembled by ``mode_block`` and SVD'd from their stored corners.
    The eigenvalues ``+-i*omega_k`` of the skew parts of the corners, in
    closed form from their Frobenius norms and Pfaffians, screen out the
    modes far from resonance before any Schur complement is inverted (module
    docstring).  ``at_resolution`` gives a sweeper of the same modes at
    another ``M``.
    """

    def __init__(self, params: ModelParams, delta: float, xi: np.ndarray, M: int) -> None:
        self.params = params
        self.delta = delta
        self.xi = np.asarray(xi, dtype=float)
        self._corners = energy_corners(self.xi, params, 1.0 / delta)
        self._c = self.xi ** (params.a / 2.0) / math.sqrt(params.rho)
        self._corner_norms = np.linalg.norm(self._corners, axis=(-2, -1))
        transposed = np.swapaxes(self._corners, -2, -1)
        self._sym_norms = np.linalg.norm(0.5 * (self._corners + transposed), axis=(-2, -1))
        self._omega, self._omega_err = _skew_frequencies(0.5 * (self._corners - transposed))
        # the part of fuzz (module docstring) that does not depend on tau
        self._fuzz = 10.0 * EPS * self._corner_norms + self._omega_err
        self._set_resolution(M)

    def _set_resolution(self, M: int) -> None:
        self.lag = laguerre_grid(M, self.delta)
        sw_norm = float(np.linalg.norm(self.lag.sqrt_weights))
        # the part of the roundoff scale nu (module docstring) that does not
        # depend on tau
        self._nu = self._corner_norms + np.linalg.norm(self.lag.diff_w) + 2.0 * np.abs(self._c) * sw_norm
        self._eps_n = 4 * (4 + M) * EPS

    def at_resolution(self, M: int) -> ResolventSweeper:
        """A sweeper of the same modes at the history resolution ``M``, sharing
        this one's corners, couplings and skew spectra."""
        other = copy.copy(self)
        other._set_resolution(M)
        return other

    def block(self, k: int) -> ModeBlock:
        """Assemble the block of mode ``k`` from its stored corner (not cached)."""
        if not 1 <= k <= self.xi.size:
            raise IndexError(f"mode index {k} outside 1..{self.xi.size}")
        return mode_block(self.xi[k - 1], self.params, self.lag, self._corners[k - 1])

    def history_resolvent(self, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``K = (i*tau + D)^{-1}`` of the discrete history block, ``x = K sw``,
        ``y = sw^T K`` and ``phi_M = sw^T K sw``, broadcast over the leading
        axes of the frequencies ``tau``."""
        sw = self.lag.sqrt_weights
        shifted = 1j * np.asarray(tau, dtype=float)[..., None, None] * np.eye(self.lag.M) + self.lag.diff_w
        k_inv = _or_nan(np.linalg.inv, shifted)
        x = k_inv @ sw
        y = sw @ k_inv
        return k_inv, x, y, np.sum(sw * x, axis=-1)

    def norm_bounds(self, tau) -> np.ndarray:
        """Upper bounds on the computed resolvent norms of every mode
        (``+inf`` where the bound data are not finite), along the last axis,
        broadcast over the leading axes of the frequencies ``tau``.  A mode
        whose screening upper bound is below the largest screening lower bound
        at its frequency keeps its screening upper bound (``_screen``); the
        others get the sharp one of their inverted Schur complements ``S_M``
        (module docstring), all of them in one stacked inverse."""
        tau = np.asarray(tau, dtype=float)
        lower, upper, (phi_m, *norms), slack = self._screen(tau)
        keep = ~(upper < lower.max(axis=-1, initial=0.0)[..., None]) & np.isfinite(phi_m)[..., None]
        *at, modes = np.nonzero(keep)
        at = tuple(at)
        inverse = schur_inverse(self._corners[modes], self._c[modes], tau[at], phi_m[at])
        upper[keep] = schur_bounds(inverse, self._c[modes], *(v[at] for v in norms), slack[keep])
        return upper

    def _screen(self, tau) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray]:
        """The screening pair ``(lower, upper)`` of every mode, which
        bounds their computed norms, roundoff included (module docstring),
        followed by the history data ``(phi_M, ||x||, ||y||, ||K||)`` that
        ``schur_inverse`` and ``schur_bounds`` take and the slack, broadcast
        over the leading axes of the frequencies ``tau`` as ``norm_bounds``
        is.  Where ``K`` is not finite ``phi_M`` is NaN and the pair is
        ``(0, +inf)`` for every mode."""
        tau = np.asarray(tau, dtype=float)
        k_inv, x, y, phi_m = self.history_resolvent(tau)
        finite = np.all(np.isfinite(k_inv), axis=(-2, -1))
        phi_m = np.where(finite, phi_m, np.nan)
        k_abs = np.abs(k_inv)
        k_norm = np.sqrt(k_abs.sum(axis=-2).max(axis=-1) * k_abs.sum(axis=-1).max(axis=-1))
        history = (phi_m, np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1), k_norm)
        # from here the modes run along the last axis
        tau = tau[..., None]
        c = self._c
        beta = c * c * phi_m[..., None]
        slack = self._eps_n * (self._nu + 2.0 * np.abs(tau) + np.abs(beta))
        # the distance from tau to the nearest segment from omega to
        # omega - Im(beta), and to the farther ends of the segments, one
        # eigenvalue at a time
        near = far = np.inf
        for omega in self._omega.T:
            other_end = omega - beta.imag
            outside = np.maximum(np.minimum(omega, other_end) - tau, tau - np.maximum(omega, other_end))
            near = np.minimum(near, np.maximum(outside, 0.0))
            far = np.minimum(far, np.maximum(np.abs(tau - omega), np.abs(tau - other_end)))
        shift = np.abs(beta.real) + self._sym_norms + self._fuzz + 8.0 * EPS * (np.abs(tau) + 2.0 * np.abs(beta))
        gap = near - shift
        h = np.divide(1.0, gap, out=np.full(gap.shape, np.nan), where=gap > 0.0)
        upper = schur_bounds((h, h, h, h), c, *(v[..., None] for v in history[1:]), slack)
        lower = 1.0 / (far + shift + slack)
        lower[~np.isfinite(lower)] = 0.0
        return lower, upper, history, slack

    def norm_at(self, tau: float, upper: np.ndarray | None = None) -> tuple[float, int]:
        """Return ``(norm, argmax mode)`` over every mode of the grid.

        ``upper`` is ``norm_bounds(tau)``, which is computed when not given
        (``scaled_sweep`` gives the rows of its pass over a block of
        frequencies).  Modes are SVD'd in decreasing order of their upper
        bound until it drops below the running max; exact ties go to the
        smaller mode, as ``np.argmax`` does.
        """
        if upper is None:
            upper = self.norm_bounds(tau)
        best = -math.inf
        k_best = 0
        for i in np.argsort(-upper, kind="stable"):
            if upper[i] < best:
                break
            k = int(i) + 1
            norm = self.block(k).resolvent_norm(tau)
            if norm > best or (norm == best and k < k_best):
                best, k_best = norm, k
        return best, k_best


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Samples of the scaled resolvent norm ``|tau|^(-omega) * norm(tau)``.

    ``resonance_branch`` tags each sample with the oscillatory branch whose
    computed imaginary part produced it (0 for plain log-grid samples), and
    ``argmax_modes`` the mode that attains each norm.
    """

    omega: float
    M: int
    taus: np.ndarray
    norms: np.ndarray
    scaled: np.ndarray
    argmax_modes: np.ndarray
    resonance_branch: np.ndarray

    def __post_init__(self) -> None:
        for name in ("taus", "norms", "scaled"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        for name in ("argmax_modes", "resonance_branch"):
            object.__setattr__(self, name, _freeze(getattr(self, name), int))

    @property
    def resonance_mask(self) -> np.ndarray:
        return self.resonance_branch > 0

    @property
    def sup_scaled(self) -> float:
        return float(self.scaled.max())

    @property
    def argmax_tau(self) -> float:
        return float(self.taus[int(np.argmax(self.scaled))])

    @property
    def sup_at_resonance(self) -> bool:
        return bool(self.resonance_branch[int(np.argmax(self.scaled))] > 0)


def resonance_frequencies(
    params: ModelParams,
    delta: float,
    xi: np.ndarray,
    tau_lo: float,
    tau_hi: float,
    per_branch: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Imaginary parts of computed oscillatory roots inside the window,
    subsampled log-uniformly in mode index of ``xi``, with their branch tags."""
    c = AsymptoticConstants.from_params(params)
    tags: list[int] = []
    modes: list[int] = []
    for j, m in ((1, c.m1), (2, c.m2)):
        lo = int(np.searchsorted(xi, tau_lo**2 / m, side="left")) + 1
        hi = int(np.searchsorted(xi, tau_hi**2 / m, side="right"))
        if hi < lo or per_branch == 0:
            continue
        # geomspace keeps both ends exact and 1 <= lo <= hi <= xi.size, so no
        # ks leaves [1, xi.size]
        ks = np.unique(np.geomspace(lo, hi, per_branch).astype(int))
        tags += [j] * ks.size
        modes += ks.tolist()
    tags = np.asarray(tags, dtype=int)
    roots = quintic_roots(xi[np.asarray(modes, dtype=int) - 1], params, delta).roots
    taus = roots[np.arange(tags.size), 2 * tags - 1].imag
    keep = (tau_lo <= taus) & (taus <= tau_hi)
    order = np.argsort(taus[keep])
    return taus[keep][order], tags[keep][order]


def scaled_sweep(
    params: ModelParams,
    delta: float,
    xi: np.ndarray,
    M: Sequence[int],
    tau_lo: float,
    tau_hi: float,
    per_decade: int,
    resonances_per_branch: int,
) -> list[SweepResult]:
    """Sample ``|tau|^(-omega) * max_k ||(i*tau - B_k)^{-1}||`` over ``xi``
    on a log grid plus near-resonance frequencies, ``omega = 2 - 2a``, at
    each history resolution in ``M``; one ``SweepResult`` per resolution, in
    the order of ``M``.  The modes' corners, couplings and skew spectra, the
    frequencies and the resonances are computed once for all resolutions,
    and each resolution bounds its modes at up to ``_FREQUENCY_BLOCK``
    frequencies in one ``norm_bounds`` pass."""
    omega = 2.0 - 2.0 * params.a
    n_grid = max(2, int(round(per_decade * math.log10(tau_hi / tau_lo))))
    base = np.geomspace(tau_lo, tau_hi, n_grid)
    reso, tags = resonance_frequencies(params, delta, xi, tau_lo, tau_hi, per_branch=resonances_per_branch)
    taus = np.concatenate([base, reso])
    branch_tag = np.concatenate([np.zeros(base.size, dtype=int), tags])
    order = np.argsort(taus)
    taus = taus[order]
    branch_tag = branch_tag[order]

    first = ResolventSweeper(params, delta, xi, M[0])
    sweepers = [first] + [first.at_resolution(m) for m in M[1:]]
    # (norm, argmax mode) by resolution and frequency; each resolution bounds
    # a block of frequencies in one pass, and the rows are then SVD'd in the
    # order of frequency and resolution
    rows = np.empty((2, len(M), taus.size))
    for start in range(0, taus.size, _FREQUENCY_BLOCK):
        block = taus[start : start + _FREQUENCY_BLOCK]
        uppers = [sweeper.norm_bounds(block) for sweeper in sweepers]
        for i, tau in enumerate(block):
            for j, sweeper in enumerate(sweepers):
                rows[:, j, start + i] = sweeper.norm_at(float(tau), uppers[j][i])
    norms, argmax = rows
    scaled = np.abs(taus) ** (-omega) * norms
    return [
        SweepResult(
            omega=omega,
            M=m,
            taus=taus,
            norms=norms[j],
            scaled=scaled[j],
            argmax_modes=argmax[j],
            resonance_branch=branch_tag,
        )
        for j, m in enumerate(M)
    ]


# ---------------------------------------------------------------------------
# resolvent peaks with the continuum history
# ---------------------------------------------------------------------------

PEAK_PASSES = 6
PEAK_POINTS = 41


def resolvent_peaks(branch: SpectrumBranch, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Peaks over ``tau`` near ``Im lam_{1+}`` of the continuum upper bound
    (module docstring) of each mode of ``branch`` (kernel
    ``exp(-branch.delta*s)``; every mode coercive), as ``(taus, peaks)`` of
    shape ``(modes,)``.  The bound is maximised by ``PEAK_PASSES`` passes of
    ``PEAK_POINTS`` frequencies, the first over ``Im lam +- 4|Re lam|`` and
    each next one over the two intervals around the previous maximiser.
    """
    xi, lam, delta = branch.xi.reshape(-1), branch.lam(1, +1).reshape(-1), branch.delta
    corners = energy_corners(xi, params, 1.0 / delta)[:, None]
    c = (xi ** (params.a / 2.0) / math.sqrt(params.rho))[:, None]
    offsets = np.linspace(-1.0, 1.0, PEAK_POINTS)
    centers, half = lam.imag, 4.0 * np.abs(lam.real)[:, None]
    for _ in range(PEAK_PASSES):
        taus = centers[:, None] + half * offsets
        y_sq = 1.0 / (delta * (delta * delta + taus * taus))
        inverse = schur_inverse(corners, c, taus, continuum_phi(delta, taus))
        upper = schur_bounds(inverse, c, np.sqrt(2.0 * y_sq), np.sqrt(y_sq), 2.0 / delta)
        best = (np.arange(xi.size), np.argmax(upper, axis=-1))
        centers, peaks = taus[best], upper[best]
        half = half * (2.0 / (PEAK_POINTS - 1))
    return centers, peaks


__all__ = [
    "PEAK_PASSES",
    "PEAK_POINTS",
    "LaguerreGrid",
    "ModeBlock",
    "ResolventSweeper",
    "SingularBlockError",
    "SweepResult",
    "continuum_phi",
    "energy_congruence",
    "energy_corners",
    "laguerre_grid",
    "mode_block",
    "resolvent_peaks",
    "resonance_frequencies",
    "scaled_sweep",
    "schur_bounds",
    "schur_inverse",
]
