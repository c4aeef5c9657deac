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

    S(tau) = i*tau - A + c^2 * phi(tau) * e_u e_u^T,
    phi(tau) = sw^T K sw,   K = (i*tau + D)^{-1},

with ``A`` the block's 4x4 corner and ``phi`` one scalar shared by all modes
(it equals ``1/(delta*(delta + i*tau))``: the quadrature is exact for the
reduced problem).  The blocks of ``N^{-1}`` are ``S^{-1}``,
``-c S^{-1} e_u y``, ``c x e_u^T S^{-1}`` and ``K - c^2 (S^{-1})_uu x y``
with ``x = K sw`` and ``y = sw^T K``, so

    ||S^{-1}|| <= ||N^{-1}|| <= || [[||S^{-1}||, |c| ||S^{-1} e_u|| ||y||],
                                    [|c| ||x|| ||e_u^T S^{-1}||,
                                     ||K|| + c^2 |(S^{-1})_uu| ||x|| ||y||]] ||.

``||K||`` enters only there and is replaced by its bound
``sqrt(||K||_1 ||K||_inf)``, which needs no BLAS call.  One M x M inverse
per frequency and one stacked 4x4 inverse over the modes give both bounds.
The mode with the largest lower bound is SVD'd first; after it, a mode whose
upper bound is below the largest norm already computed cannot be the
maximiser and is never SVD'd.  Every reported norm is still ``1/sigma_min``
of the full block, so the norms, argmax modes and margins are those of the
full loop.

The upper bound absorbs roundoff in ``sigma = 1/norm``, so that it bounds the
computed norm too.  Each computation involved (the SVD of the assembled
block, the assembly itself, and the inverses of ``S`` and of ``i*tau + D``)
is backward stable to first order in ``eps``: its result is exact for data
perturbed by at most ``n*eps`` (``n = 4 + M``) times the norm of the matrix
it works on, and Weyl's perturbation theorem moves a smallest singular value
by no more than the perturbation.  All four norms are at most
``nu = 2|tau| + ||A||_F + ||D||_F + 2|c| ||sw|| + c^2 |phi|``, so ``1/upper``
is lowered by ``4*n*eps*nu`` before it is inverted back; an upper bound whose
lowered ``sigma`` is not positive is ``+inf``.  The lower bound only chooses
the first mode and carries no slack.  A mode whose bound data are not finite,
or a frequency where a stacked inverse is singular, gets ``upper = +inf`` and
``lower = 0``: it is SVD'd and raises as the full loop would.

With the continuum history in place of the collocated one the same bounds
need no ``M``: ``phi`` as above, ``||y||^2 = 1/(delta*(delta^2 + tau^2))``,
``||x||^2 = 2*||y||^2`` and the weighted Hardy constant ``||K|| = 2/delta``,
each the limit of its collocated value and never below it.
``resolvent_peaks`` maximises them over ``tau`` near a mode's resonance.

The static problem at ``lambda = 0`` is solved on the same block: the
forcing goes into energy coordinates with the mode's ``energy_congruence``,
one linear solve with the ``mode_block`` matrix gives the solution, and the
congruence maps it back.  Its ``||W|| / ||F||`` is therefore at most the
block's ``resolvent_norm(0)``, and the round trip through the physical
generator checks the block assembly the sweeps rely on.

The kernel is its rate ``delta`` (or the ``LaguerreGrid`` built for it), the
modes are their ``xi`` and forcings are plain arrays.  ``energy_congruence``
refuses a mode that is not coercive, so blocks, sweeps and solves all do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .model import (
    InvalidModelError,
    ModelParams,
    _freeze,
    coercivity_margin,
    energy_parts,
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
    for i in range(M):
        dw[i, i] = np.sum(1.0 / (full[i + 1] - np.delete(full, i + 1)))
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
        shifted = 1j * tau * np.eye(n) - self.matrix
        # numpy's SVD returns NaNs for inf entries and raises LinAlgError for
        # NaN ones; both get the one typed error that error.json reports
        if not np.isfinite(shifted).all():
            raise ValueError("array must not contain infs or NaNs")
        smin = np.linalg.svd(shifted, compute_uv=False)[-1]
        if smin <= 0.0 or not math.isfinite(smin):
            raise SingularBlockError(f"i*tau - B singular at tau={tau:g} for mode xi={self.xi:.6g}")
        return 1.0 / smin


def mode_block(xi: float, params: ModelParams, lag: LaguerreGrid) -> ModeBlock:
    """Assemble the (4+M)-dimensional block of the mode ``xi`` for the kernel
    ``exp(-lag.delta*s)``,
    ``[[A, -c e_u sw^T], [c sw e_u^T, -D]]`` with ``A`` the mode's
    ``energy_corners`` and ``c = xi^(a/2)/sqrt(rho)``.

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
    """The 4x4 congruences ``T`` of the modes ``xi``, stacked along the
    leading axis: ``T (v, u, p, q)`` is the energy-orthonormal
    ``(L_vp^T (v, p), sqrt(rho) u, sqrt(mu) q)``, with ``L_vp`` the Cholesky
    factor of the 2x2 stiffness-plus-coupling weight, so ``|T w|^2`` is the
    sum of ``energy_parts``.  That weight is positive definite exactly when
    its Schur complement on ``v``, ``xi`` times the ``coercivity_margin``, is
    positive; a mode where it is not raises ``InvalidModelError``.
    """
    require_coercive(xi, coercivity_margin(xi, params, zeta) <= 0.0)
    gvv = params.alpha1 * xi - zeta * xi**params.a + params.beta * params.gamma**2 * xi
    gvp = -params.beta * params.gamma * xi
    gpp = params.beta * xi
    weight = np.stack([np.stack([gvv, gvp], axis=-1), np.stack([gvp, gpp], axis=-1)], axis=-2)
    try:
        l_vp = np.linalg.cholesky(weight)
    except np.linalg.LinAlgError:
        # within roundoff of kappa = 0 it can fail where the margin is positive
        require_coercive(xi, [np.isnan(_or_nan(np.linalg.cholesky, w)).any() for w in weight])
    t = np.zeros(xi.shape + (4, 4))
    t[..., 0, 0] = l_vp[..., 0, 0]
    t[..., 0, 2] = l_vp[..., 1, 0]
    t[..., 2, 0] = l_vp[..., 0, 1]
    t[..., 2, 2] = l_vp[..., 1, 1]
    t[..., 1, 1] = math.sqrt(params.rho)
    t[..., 3, 3] = math.sqrt(params.mu)
    return t


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
    """``solve(a)`` for ``np.linalg.inv`` or ``cholesky``, or NaN everywhere
    when LAPACK refuses any matrix of the stack ``a`` (numpy then refuses all)."""
    try:
        return solve(a)
    except np.linalg.LinAlgError:
        return np.full(a.shape, np.nan, dtype=np.result_type(a, float))


def schur_bounds(corners, c, tau, phi, x_norm, y_norm, k_norm, slack=0.0):
    """``(lower, upper)`` bounds on the resolvent norms of the blocks with
    4x4 corners ``corners`` (module docstring) at the frequencies ``tau``,
    from their history couplings ``c`` and the history data ``phi``,
    ``||x||``, ``||y||`` and ``||K||``, all broadcast over the leading axes
    of ``corners``.  ``1/upper`` is lowered by ``slack``; an ``upper`` with
    no positive ``1/upper`` left, or whose ``S`` has no finite inverse, is
    ``+inf``, and ``lower = ||S^{-1}||`` is then 0 for the latter.
    """
    schur = 1j * np.asarray(tau)[..., None, None] * np.eye(4) - corners
    schur[..., 1, 1] += c * c * phi
    s_inv = _or_nan(np.linalg.inv, schur)
    ok = np.all(np.isfinite(s_inv), axis=(-2, -1))
    s_inv = np.where(ok[..., None, None], s_inv, 0.0)
    # ||S^{-1}|| from the largest eigenvalue of its Gram matrix: accurate
    # to relative roundoff, and cheaper than a stacked SVD
    gram = np.conj(np.swapaxes(s_inv, -2, -1)) @ s_inv
    s_norm = np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
    # the 2x2 matrix of block norms [[p, q], [r, s]] and its 2-norm
    p = s_norm
    q = np.abs(c) * np.linalg.norm(s_inv[..., :, 1], axis=-1) * y_norm
    r = np.abs(c) * x_norm * np.linalg.norm(s_inv[..., 1, :], axis=-1)
    s = k_norm + c * c * np.abs(s_inv[..., 1, 1]) * x_norm * y_norm
    block_norm = 0.5 * (np.hypot(p + s, q - r) + np.hypot(p - s, q + r))
    sigma_lo = 1.0 / block_norm - slack
    upper = np.divide(1.0, sigma_lo, out=np.full(sigma_lo.shape, np.inf), where=ok & (sigma_lo > 0.0))
    return np.where(ok, s_norm, 0.0), upper


# ---------------------------------------------------------------------------
# resolvent norms along the imaginary axis
# ---------------------------------------------------------------------------

FIRST_MODES_FLOOR = 10
CUTOFF_FACTOR = 4.0


class ResolventSweeper:
    """Evaluates ``max_k ||(i*tau - B_k)^{-1}||`` over the included modes.

    Mode inclusion at frequency ``tau``: every mode with
    ``xi_k <= CUTOFF_FACTOR * tau^2 / m_1`` plus the first ``FIRST_MODES_FLOOR``
    modes.  The first excluded mode is also evaluated when available and its
    norm is reported as a margin check on the cutoff.

    Mode ``k`` is ``xi[k - 1]`` and the kernel ``exp(-delta*s)``.  The
    sweeper keeps, for every mode, the 4x4 energy-coordinate corner ``A_k``
    of its block and the coupling ``c_k`` to the history (see the module
    docstring); the corners come from one ``energy_corners`` call over all
    modes, without assembling any block.  Per frequency
    ``norm_bounds`` turns them into two-sided bounds, and only the modes those
    bounds cannot rule out are assembled by ``mode_block`` and SVD'd.
    """

    def __init__(self, params: ModelParams, delta: float, xi: np.ndarray, M: int) -> None:
        self.params = params
        self.xi = np.asarray(xi, dtype=float)
        self.lag = laguerre_grid(M, delta)
        self._m1 = AsymptoticConstants.from_params(params).m1
        self._corners = energy_corners(self.xi, params, 1.0 / delta)
        self._c = self.xi ** (params.a / 2.0) / math.sqrt(params.rho)
        sw_norm = float(np.linalg.norm(self.lag.sqrt_weights))
        # the part of the roundoff scale nu (module docstring) that does not
        # depend on tau
        self._nu = (
            np.linalg.norm(self._corners, axis=(-2, -1))
            + np.linalg.norm(self.lag.diff_w)
            + 2.0 * np.abs(self._c) * sw_norm
        )
        self._eps_n = 4 * (4 + M) * np.finfo(float).eps

    def block(self, k: int) -> ModeBlock:
        """Assemble the block of mode ``k`` (not cached)."""
        if not 1 <= k <= self.xi.size:
            raise IndexError(f"mode index {k} outside 1..{self.xi.size}")
        return mode_block(self.xi[k - 1], self.params, self.lag)

    def included_modes(self, tau: float) -> list[int]:
        cutoff = CUTOFF_FACTOR * tau * tau / self._m1
        n_cut = int(np.searchsorted(self.xi, cutoff, side="right"))
        return list(range(1, min(self.xi.size, max(n_cut, FIRST_MODES_FLOOR)) + 1))

    def history_resolvent(self, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, complex]:
        """``K = (i*tau + D)^{-1}`` of the discrete history block, ``x = K sw``,
        ``y = sw^T K`` and ``phi = sw^T K sw``.

        The products are summed elementwise: a threaded BLAS matrix-vector
        call costs milliseconds at these sizes, more than the inverse.
        """
        M = self.lag.M
        sw = self.lag.sqrt_weights
        k_inv = _or_nan(np.linalg.inv, 1j * tau * np.eye(M) + self.lag.diff_w)
        x = np.sum(k_inv * sw, axis=1)
        y = np.sum(sw[:, None] * k_inv, axis=0)
        return k_inv, x, y, complex(np.sum(sw * x))

    def norm_bounds(self, tau: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` bounds on the resolvent norms of modes ``1..n``
        (``lower = 0``, ``upper = +inf`` where the bound data are not finite).
        ``upper`` bounds the computed norm, roundoff included; ``lower``
        bounds the exact norm and only picks the mode SVD'd first."""
        k_inv, x, y, phi = self.history_resolvent(tau)
        if not np.all(np.isfinite(k_inv)):
            return np.zeros(n), np.full(n, np.inf)
        k_abs = np.abs(k_inv)
        k_norm = math.sqrt(float(k_abs.sum(axis=0).max() * k_abs.sum(axis=1).max()))
        c = self._c[:n]
        slack = self._eps_n * (self._nu[:n] + 2.0 * abs(tau) + c * c * abs(phi))
        return schur_bounds(self._corners[:n], c, tau, phi, np.linalg.norm(x), np.linalg.norm(y), k_norm, slack)

    def norm_at(self, tau: float) -> tuple[float, int, int, float]:
        """Return ``(norm, argmax mode, cutoff mode, margin)``.

        ``margin`` is included-max divided by the first excluded mode's norm,
        or NaN when the grid is exhausted.  The mode with the largest lower
        bound is SVD'd first, then the others in decreasing order of their
        upper bound until it drops below the running max; exact ties go to the
        smaller mode, as ``np.argmax`` does.
        """
        ks = self.included_modes(tau)
        lower, upper = self.norm_bounds(tau, len(ks))
        first = int(np.argmax(lower))
        rest = [i for i in np.argsort(-upper, kind="stable") if i != first]
        best = -math.inf
        k_best = 0
        for i in [first, *rest]:
            if upper[i] < best:
                break
            k = ks[i]
            norm = self.block(k).resolvent_norm(tau)
            if norm > best or (norm == best and k < k_best):
                best, k_best = norm, k
        margin = math.nan
        k_next = ks[-1] + 1
        if k_next <= self.xi.size:
            margin = best / self.block(k_next).resolvent_norm(tau)
        return best, k_best, ks[-1], margin


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Samples of the scaled resolvent norm ``|tau|^(-omega) * norm(tau)``.

    ``resonance_branch`` tags each sample with the oscillatory branch whose
    computed imaginary part produced it (0 for plain log-grid samples), and
    ``margins`` holds the cutoff margins of ``ResolventSweeper.norm_at`` (NaN
    where the grid is exhausted).
    """

    omega: float
    M: int
    taus: np.ndarray
    norms: np.ndarray
    scaled: np.ndarray
    argmax_modes: np.ndarray
    cutoffs: np.ndarray
    resonance_branch: np.ndarray
    margins: np.ndarray

    def __post_init__(self) -> None:
        for name in ("taus", "norms", "scaled", "margins"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        for name in ("argmax_modes", "cutoffs", "resonance_branch"):
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
        ks = np.unique(np.geomspace(lo, hi, per_branch).astype(int))
        ks = ks[(ks >= 1) & (ks <= xi.size)]
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
    M: int,
    tau_lo: float,
    tau_hi: float,
    per_decade: int,
    resonances_per_branch: int,
) -> SweepResult:
    """Sample ``|tau|^(-omega) * max_k ||(i*tau - B_k)^{-1}||`` over ``xi``
    on a log grid plus near-resonance frequencies, ``omega = 2 - 2a``."""
    omega = 2.0 - 2.0 * params.a
    n_grid = max(2, int(round(per_decade * math.log10(tau_hi / tau_lo))))
    base = np.geomspace(tau_lo, tau_hi, n_grid)
    reso, tags = resonance_frequencies(params, delta, xi, tau_lo, tau_hi, per_branch=resonances_per_branch)
    taus = np.concatenate([base, reso])
    branch_tag = np.concatenate([np.zeros(base.size, dtype=int), tags])
    order = np.argsort(taus)
    taus = taus[order]
    branch_tag = branch_tag[order]

    sweeper = ResolventSweeper(params, delta, xi, M)
    norms = np.empty(taus.size)
    argmax = np.empty(taus.size, dtype=int)
    cutoffs = np.empty(taus.size, dtype=int)
    margins = np.empty(taus.size)
    for i, tau in enumerate(taus):
        norms[i], argmax[i], cutoffs[i], margins[i] = sweeper.norm_at(float(tau))
    scaled = np.abs(taus) ** (-omega) * norms
    return SweepResult(
        omega=omega,
        M=M,
        taus=taus,
        norms=norms,
        scaled=scaled,
        argmax_modes=argmax,
        cutoffs=cutoffs,
        resonance_branch=branch_tag,
        margins=margins,
    )


# ---------------------------------------------------------------------------
# resolvent peaks with the continuum history
# ---------------------------------------------------------------------------

PEAK_PASSES = 6
PEAK_POINTS = 41


def resolvent_peaks(branch: SpectrumBranch, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Peaks over ``tau`` near ``Im lam_{1+}`` of the continuum lower and
    upper bounds (module docstring) of each mode of ``branch`` (kernel
    ``exp(-branch.delta*s)``; every mode coercive), as ``(taus, peaks)`` of
    shape ``(modes, 2)``, the lower bound in column 0.  Each bound is
    maximised on its own by ``PEAK_PASSES`` passes of ``PEAK_POINTS``
    frequencies, the first over ``Im lam +- 4|Re lam|`` and each next one
    over the two intervals around the previous maximiser.
    """
    xi, lam, delta = branch.xi.reshape(-1), branch.lam(1, +1).reshape(-1), branch.delta
    corners = energy_corners(xi, params, 1.0 / delta)[:, None, None]
    c = (xi ** (params.a / 2.0) / math.sqrt(params.rho))[:, None, None]
    offsets = np.linspace(-1.0, 1.0, PEAK_POINTS)
    centers = np.repeat(lam.imag[:, None], 2, axis=1)
    half = 4.0 * np.abs(lam.real)[:, None, None]
    for _ in range(PEAK_PASSES):
        taus = centers[..., None] + half * offsets
        y_sq = 1.0 / (delta * (delta * delta + taus * taus))
        phi = 1.0 / (delta * (delta + 1j * taus))
        lower, upper = schur_bounds(corners, c, taus, phi, np.sqrt(2.0 * y_sq), np.sqrt(y_sq), 2.0 / delta)
        values = np.stack([lower[:, 0], upper[:, 1]], axis=1)
        best = np.argmax(values, axis=-1)[..., None]
        centers = np.take_along_axis(taus, best, axis=-1)[..., 0]
        peaks = np.take_along_axis(values, best, axis=-1)[..., 0]
        half = half * (2.0 / (PEAK_POINTS - 1))
    return centers, peaks


# ---------------------------------------------------------------------------
# static solve at lam = 0
# ---------------------------------------------------------------------------


def static_solve(
    xi: float, forcing, params: ModelParams, lag: LaguerreGrid
) -> tuple[np.ndarray, float, float]:
    """Solve the generator equation ``A W = F`` on the mode ``xi`` for the
    kernel ``exp(-lag.delta*s)``; ``forcing`` is the ``(4 + M)`` array ``(f1,
    f2, z1, z2, nu_w)``, its history part in sqrt(weight) coordinates.

    The solve runs on the very block the sweep SVDs: the forcing goes into
    energy coordinates ``(T f, nu_w)`` with the mode's ``energy_congruence``
    ``T``, one ``np.linalg.solve`` with the ``mode_block`` matrix gives the
    solution in those coordinates, and ``T^{-1}`` maps its ``(v, u, p, q)``
    back.  Returns ``(W, residual, stability_ratio)`` with ``W`` laid out as
    ``forcing``; ``stability_ratio = ||W|| / ||F||`` is therefore at most
    ``mode_block(xi, ...).resolvent_norm(0.0)``.  The result is verified by
    applying the physical generator back; the ``residual`` is relative to the
    forcing norm.  A mode that is not coercive raises ``InvalidModelError``.
    """
    block = mode_block(xi, params, lag)
    xi = block.xi
    zeta = 1.0 / lag.delta
    t = energy_congruence(np.array([xi]), params, zeta)[0]
    f, nu_w = np.split(np.asarray(forcing, dtype=complex), [4])
    solution = np.linalg.solve(block.matrix, np.concatenate([t @ f, nu_w]))
    w = np.linalg.solve(t, solution[:4])
    eta_w = solution[4:]
    v, u = w[:2]

    # apply the physical generator back; eta~ = xi^(a/2) sqrt(w) eta
    sw = lag.sqrt_weights
    half_a = xi ** (params.a / 2.0)
    mem_integral = half_a * np.sum(sw * eta_w)  # = xi^a * sum w_m eta_m
    image = memoryless_generator(xi, params) @ w
    image[1] += (zeta * xi**params.a * v - mem_integral) / params.rho
    r_eta = half_a * sw * u - lag.diff_w @ eta_w - nu_w

    def energy_norm(x: np.ndarray, mem_w: np.ndarray) -> float:
        parts = energy_parts(*x, xi, params, zeta)
        return math.sqrt(sum(parts) + float(np.sum(np.abs(mem_w) ** 2)))

    n_forcing = energy_norm(f, nu_w)
    n_solution = energy_norm(w, eta_w)
    n_residual = energy_norm(image - f, r_eta)
    if n_forcing == 0.0:
        return np.zeros(4 + lag.M, dtype=complex), 0.0, 0.0
    return np.concatenate([w, eta_w]), n_residual / n_forcing, n_solution / n_forcing


__all__ = [
    "CUTOFF_FACTOR",
    "FIRST_MODES_FLOOR",
    "PEAK_PASSES",
    "PEAK_POINTS",
    "LaguerreGrid",
    "ModeBlock",
    "ResolventSweeper",
    "SingularBlockError",
    "SweepResult",
    "energy_congruence",
    "energy_corners",
    "laguerre_grid",
    "mode_block",
    "resolvent_peaks",
    "resonance_frequencies",
    "scaled_sweep",
    "schur_bounds",
    "static_solve",
]
