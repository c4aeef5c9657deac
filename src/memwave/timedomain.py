"""Time evolution per mode: exact eigen-expansion for exponential kernels,
a history-quadrature scheme for general kernels, energy traces.  A mode is
given by its eigenvalue ``xi`` and its initial data by a plain array of
``(v, u, p, q)``; no mode number enters.

For ``g(s) = exp(-delta*s)`` each mode reduces to the five-dimensional system
``(v, u, p, q, I)`` with the convolved history ``I' = v - delta*I``, so the
trajectory is an exact five-term exponential sum.  That removes all
time-discretization error from decay-rate measurements.  The memory part of
the energy,

    xi^a * int_0^inf g(s) |v(t) - v(t-s)|^2 ds,

splits at ``s = t``: the recent part factors into the five terms
``a_i*exp(lam_i*t)`` of ``v(t)`` and one fixed 5x5 matrix per mode, so a whole
stack of modes is one vectorised evaluation; the remote part is closed form in
the prescribed history (zero or polynomial-times-exponential terms).

General kernels satisfying the positivity/pinch hypotheses go through an
implicit-midpoint scheme whose memory force uses trapezoidal convolution over
the trajectory; the convolution is truncated at ``s = log(1e14)/k1``, past
which the pinch ``g(s) <= g(0) exp(-k1*s)`` puts the kernel below 1e-14 of
its initial value.  The scheme is linear and time-invariant apart from one
trapezoid end correction on the initial velocity, so all its velocities are
the coefficients of one power-series quotient: a Newton inversion and a few
products by real FFTs, O(steps log steps) in all, with no loop over steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import InvalidModelError, Kernel, ModelParams, coercivity_margin, energy_parts, memoryless_generator
from .spectral import eigvec, modal_generator, quintic_roots


# ---------------------------------------------------------------------------
# prescribed histories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistoryTerm:
    """One term ``coef * s^power * exp(-rate*s)`` of a prescribed history."""

    coef: complex
    power: int
    rate: float

    def __post_init__(self) -> None:
        if self.power < 0:
            raise InvalidModelError(f"power must be >= 0, got {self.power}")
        if not self.rate > 0.0:
            raise InvalidModelError(f"rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class ExponentialPolyHistory:
    """The history ``h(s)``, ``s > 0``, as a sum of ``HistoryTerm``s; the
    default, no terms, is no prescribed motion before t = 0."""

    terms: tuple[HistoryTerm, ...] = ()


def history_mass(history: ExponentialPolyHistory, delta: float) -> complex:
    """``int_0^inf exp(-delta*s) h(s) ds`` (also the initial convolved
    history I(0) for the exponential kernel)."""
    acc = 0.0 + 0.0j
    for t in history.terms:
        acc += t.coef * math.factorial(t.power) / (delta + t.rate) ** (t.power + 1)
    return acc


def history_sq_mass(history: ExponentialPolyHistory, delta: float) -> float:
    """``int_0^inf exp(-delta*s) |h(s)|^2 ds``."""
    acc = 0.0 + 0.0j
    for t1 in history.terms:
        for t2 in history.terms:
            n = t1.power + t2.power
            c = delta + t1.rate + t2.rate
            acc += t1.coef * np.conj(t2.coef) * math.factorial(n) / c ** (n + 1)
    return float(acc.real)


# ---------------------------------------------------------------------------
# exact modal evolution (exponential kernel)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModalTrajectories:
    """Exact solutions of a stack of modes, each a five-term exponential sum.

    Modes run along the leading axis of ``xi``, ``eigenvalues``, ``eigvecs``
    (column ``i`` is the eigenvector of root ``i``), ``amplitudes``, ``x0``
    (``(v, u, p, q, I)`` at t = 0) and ``dense``; all modes share ``delta``, the
    prescribed ``history`` and ``params``.  Indexing keeps the leading axis,
    so ``trajs[m]``, ``trajs[a:b]`` and ``trajs[~trajs.dense]`` are stacks
    too.  A mode whose eigenvalue separation check failed is flagged by
    ``dense``: its amplitudes are zero and ``state_at`` takes the matrix
    exponential of its generator instead.
    """

    xi: np.ndarray
    eigenvalues: np.ndarray
    eigvecs: np.ndarray
    amplitudes: np.ndarray
    x0: np.ndarray
    dense: np.ndarray
    delta: float
    history: ExponentialPolyHistory
    params: ModelParams

    def __len__(self) -> int:
        return self.xi.shape[0]

    def __getitem__(self, index) -> "ModalTrajectories":
        rows = np.atleast_1d(np.arange(len(self))[index])
        per_mode = ("xi", "eigenvalues", "eigvecs", "amplitudes", "x0", "dense")
        return replace(self, **{name: getattr(self, name)[rows] for name in per_mode})

    @property
    def v_amplitudes(self) -> np.ndarray:
        """Coefficients of ``v(t) = sum_i a_i exp(lam_i t)``, shape ``(modes, 5)``."""
        if self.dense.any():
            raise InvalidModelError("dense fallback trajectory has no amplitude expansion")
        return self.eigvecs[:, 0, :] * self.amplitudes

    def phases(self, t) -> np.ndarray:
        """``exp(lam_i*t)`` of every mode and root, shape ``(modes, 5) + t.shape``."""
        return np.exp(np.multiply.outer(self.eigenvalues, np.asarray(t, dtype=float)))

    def state_at(self, t, phases=None) -> np.ndarray:
        """``(v, u, p, q, I)`` of every mode at ``t``, shape ``(modes, 5) +
        t.shape``; ``phases``, if given, is ``self.phases(t)``."""
        t = np.asarray(t, dtype=float)
        n = len(self)
        if phases is None:
            phases = self.phases(t)
        terms = self.amplitudes[(...,) + (None,) * t.ndim] * phases
        states = (self.eigvecs @ terms.reshape(n, 5, -1)).reshape((n, 5) + t.shape)
        if self.dense.any():
            import scipy.linalg as sla  # loaded only for a dense-fallback mode

            for m in np.flatnonzero(self.dense):
                gen = modal_generator(self.xi[m], self.params, self.delta)
                columns = [sla.expm(gen * ti) @ self.x0[m] for ti in t.reshape(-1)]
                states[m] = np.stack(columns, axis=-1).reshape((5,) + t.shape)
        return states


def exact_modal_evolve(
    xi,
    x0,
    params: ModelParams,
    delta: float,
    history: ExponentialPolyHistory = ExponentialPolyHistory(),
) -> ModalTrajectories:
    """Diagonalize the reduced five-dimensional generator of the modes ``xi``,
    shape ``(modes,)``, and fit amplitudes to their initial ``(v, u, p, q)``
    in ``x0``, shape ``(modes, 4)``: one root solve and one stacked
    eigenvector solve for the whole stack.

    The initial convolved history is ``I(0) = int g h`` (closed form).  If
    two eigenvalues of a mode collide to within 1e-8 of its spectral scale
    the eigenvector solve is refused for that mode, which is flagged
    ``dense`` and reconstructed by the matrix exponential.
    """
    xi = np.asarray(xi, dtype=float)
    lams = quintic_roots(xi, params, delta).roots
    i0 = history_mass(history, delta)
    x0 = np.column_stack([np.asarray(x0, dtype=complex), np.full(xi.size, i0)])

    scale = np.maximum(1.0, np.abs(lams).max(axis=1))
    upper, lower = np.triu_indices(5, 1)
    sep = np.abs(lams[:, upper] - lams[:, lower]).min(axis=1)
    dense = sep < 1e-8 * scale

    # column i of a mode's matrix is the eigenvector of its root i
    vmat = np.swapaxes(eigvec(lams, xi[:, None], params, delta), 1, 2)
    amps = np.zeros_like(x0)
    amps[~dense] = np.linalg.solve(vmat[~dense], x0[~dense, :, None])[..., 0]
    return ModalTrajectories(xi, lams, vmat, amps, x0, dense, delta, history, params)


# ---------------------------------------------------------------------------
# memory energy, closed form
# ---------------------------------------------------------------------------


# ``|c|*t_max`` below which a single or pair term of the memory energy is
# evaluated as ``E(c)`` instead of by the split form: there the split's two
# halves cancel, while ``|c*t| < 1`` at every time keeps ``E(c)`` itself from
# overflowing
_SPLIT_GUARD = 1.0


def _expm1_ratio(x: np.ndarray) -> np.ndarray:
    """``(1 - exp(-x)) / x`` with its limit 1 at ``x = 0``."""
    return np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0)


def memory_energy_closed_form(trajs: ModalTrajectories, t, phases=None) -> np.ndarray:
    """``xi^a * int_0^inf exp(-delta*s) |v(t) - v(t-s)|^2 ds`` for a stack of
    trajectories, shape ``(len(trajs),) + t.shape``; ``phases``, if given, is
    ``trajs.phases(t)``.

    With ``f_i = a_i*exp(lam_i*t)``, ``v = sum_i f_i`` and
    ``E(c) = int_0^t exp(-c*s) ds = -expm1(-c*t)/c``, the ``s < t`` part is

        |v|^2 E(delta) - 2 Re(conj(v) sum_i f_i E(delta + lam_i))
            + sum_ij f_i conj(f_j) E(c_ij),   c_ij = delta + lam_i + conj(lam_j),

    and the ``s > t`` part is ``e^(-delta*t) (|v|^2/delta - 2 Re(conj(v) H1) +
    H2)`` with the two history moments ``H1, H2``; their ``e^(-delta*t)
    |v|^2/delta`` pieces cancel.  Each single-exponent term splits as
    ``(f_i - a_i e^(-delta*t)) / (delta + lam_i)`` and each pair term as
    ``(f_i conj(f_j) - a_i conj(a_j) e^(-delta*t)) / c_ij``, which is one
    contraction over the stack each and overflows nowhere, except where the
    exponent times ``t_max`` is below ``_SPLIT_GUARD`` in modulus: there the
    halves cancel and ``E`` is evaluated directly.  Dense-fallback
    trajectories must use the quadrature route instead.
    """
    if trajs.dense.any():
        raise InvalidModelError("closed-form memory energy needs the amplitude expansion")
    t = np.asarray(t, dtype=float)
    tt = t.reshape(-1)
    n = len(trajs)
    amps = trajs.v_amplitudes
    lams = trajs.eigenvalues
    delta = trajs.delta
    h1 = complex(history_mass(trajs.history, delta))
    h2 = history_sq_mass(trajs.history, delta)

    phases = trajs.phases(tt) if phases is None else phases.reshape(n, 5, -1)
    f = phases * amps[:, :, None]
    v = f.sum(axis=1)
    decay = np.exp(-delta * tt)

    t_max = np.max(tt, initial=0.0)
    z = delta + lams
    guard = np.abs(z) * t_max < _SPLIT_GUARD
    inv_z = np.divide(1.0, z, out=np.zeros_like(z), where=~guard)
    single = np.einsum("nit,ni->nt", f, inv_z) - (amps * inv_z).sum(axis=1)[:, None] * decay
    m, i = np.nonzero(guard)
    if m.size:
        np.add.at(single, m, f[m, i] * tt * _expm1_ratio(z[m, i][:, None] * tt))

    c = delta + lams[:, :, None] + lams.conj()[:, None, :]
    guard = np.abs(c) * t_max < _SPLIT_GUARD
    inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=~guard)
    pair = np.einsum("nit,nij,njt->nt", f, inv_c, f.conj()).real
    pair -= np.einsum("ni,nij,nj->n", amps, inv_c, amps.conj()).real[:, None] * decay
    m, i, j = np.nonzero(guard)
    if m.size:
        terms = f[m, i] * f[m, j].conj() * tt * _expm1_ratio(c[m, i, j][:, None] * tt)
        np.add.at(pair, m, terms.real)

    memory = (
        np.abs(v) ** 2 / delta
        - 2.0 * (v.conj() * single).real
        + pair
        + decay * (h2 - 2.0 * (v.conj() * h1).real)
    )
    xi_a = trajs.xi ** trajs.params.a
    return (xi_a[:, None] * memory).reshape((n,) + t.shape)


def memory_energy_quadrature(traj: ModalTrajectories, t: float) -> float:
    """Composite Gauss-Legendre quadrature of the recent part plus the
    closed-form remote part for a one-mode stack; the independent check on
    the closed form.

    The integrand ``e^(-delta*s) |v(t) - v(t-s)|^2`` oscillates and decays no
    faster than ``rate = 2*max|lam| + delta``, so the panels are at most
    ``2*pi/rate`` long with 16 nodes each.  The node states are those of the
    earliest panel stepped forward by ``expm(generator*h)``, one panel length
    ``h`` at a time: one matrix exponential sets up the stepping, and a dense
    trajectory pays one more per node of a single panel only.  The recent part is
    integrated over ``[0, s0]``, ``s0 = min(t, log(1/eps)/delta)``.  The energy
    does not increase and its stiffness part is ``xi*m*|v|^2`` with the
    coercivity margin ``m = alpha1 - xi^(a-1)/delta``, so ``|v|^2 <=
    E(0)/(xi*m)`` along the whole trajectory and the part over ``[s0, t]`` is
    at most ``(2/delta) e^(-delta*s0) (|v(t)|^2 + E(0)/(xi*m))`` (infinite
    where ``m <= 0``).  Where that bound exceeds ``eps`` times the memory
    computed so far, ``s0`` moves right until it does not (or reaches ``t``).
    """
    import scipy.linalg as sla  # loaded only for a dense-fallback mode or a check

    if len(traj) != 1:
        raise ValueError(f"memory_energy_quadrature takes one mode, got {len(traj)}")
    params = traj.params
    delta = traj.delta
    xi = float(traj.xi[0])
    eps = np.finfo(float).eps
    h1 = history_mass(traj.history, delta)
    h2 = history_sq_mass(traj.history, delta)

    def remote(v: complex) -> float:
        # int_0^inf e^(-delta*s) |v - h(s)|^2 ds
        return abs(v) ** 2 / delta - 2.0 * (np.conj(v) * h1).real + h2

    v_t = complex(traj.state_at(t)[0, 0])
    gx, gw = np.polynomial.legendre.leggauss(16)
    panel = 2.0 * math.pi / (2.0 * float(np.max(np.abs(traj.eigenvalues))) + delta)
    generator = modal_generator(xi, params, delta)

    def recent(s0: float) -> float:
        n_panels = max(1, math.ceil(s0 / panel))
        h = s0 / n_panels
        offsets = 0.5 * h * (1.0 + gx)
        step = sla.expm(generator * h)
        # panel j, counted from the earliest, holds the states at t - s0 + j*h + offsets
        x = traj.state_at(t - s0 + offsets)[0]
        v = np.empty((n_panels, gx.size), dtype=complex)
        for j in range(n_panels):
            v[j] = x[0]
            x = step @ x
        s = s0 - h * np.arange(n_panels)[:, None] - offsets
        return float(np.sum(0.5 * h * gw * np.exp(-delta * s) * np.abs(v_t - v) ** 2))

    outside = math.exp(-delta * t) * remote(v_t)
    s0 = min(t, math.log(1.0 / eps) / delta)
    inside = recent(s0)
    margin = coercivity_margin(xi, params, 1.0 / delta)
    if s0 < t:
        x0 = traj.x0[0]
        e0 = sum(energy_parts(*x0[:4], xi, params, 1.0 / delta)) + xi**params.a * remote(x0[0])
        tail = (
            2.0 / delta * math.exp(-delta * s0) * (abs(v_t) ** 2 + e0 / (xi * margin))
            if margin > 0.0
            else math.inf
        )
        memory = inside + outside
        if tail > eps * memory:
            s0 = t if memory <= 0.0 else min(t, s0 + math.log(tail / (eps * memory)) / delta)
            inside = recent(s0)
    return xi**params.a * (inside + outside)


# ---------------------------------------------------------------------------
# energy traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnergyTrace:
    """Squared-norm trace with its five-part split.

    ``residual`` holds the pointwise defect of the dissipation identity
    ``dE/dt = (1/2) int g'(s) |A^(a/2) eta|^2 ds`` for the physical energy
    ``E = total/2`` (interior points only; NaN at the ends).  For the
    exponential kernel the right-hand side is ``-(delta/2)`` times the
    memory part.
    """

    times: np.ndarray
    stiffness: np.ndarray
    kinetic_v: np.ndarray
    coupling: np.ndarray
    kinetic_p: np.ndarray
    memory: np.ndarray
    residual: np.ndarray

    @classmethod
    def from_parts(cls, times, stiffness, kinetic_v, coupling, kinetic_p, memory, dissipation):
        """Trace from its five parts and the right-hand side ``dissipation =
        xi^a int g' |eta|^2`` of the identity, sampled on ``times``: the
        residual compares it with the three-point derivative of ``total``."""
        total = stiffness + kinetic_v + coupling + kinetic_p + memory
        de = 0.5 * _three_point_derivative(times, total)
        residual = np.abs(de - 0.5 * dissipation)
        return cls(times, stiffness, kinetic_v, coupling, kinetic_p, memory, residual)

    @property
    def total(self) -> np.ndarray:
        return self.stiffness + self.kinetic_v + self.coupling + self.kinetic_p + self.memory

    def norm(self) -> np.ndarray:
        return np.sqrt(self.total)


def _three_point_derivative(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Second-order derivative on a possibly nonuniform grid; NaN ends."""
    d = np.full_like(f, np.nan)
    x0, x1, x2 = x[:-2], x[1:-1], x[2:]
    f0, f1, f2 = f[:-2], f[1:-1], f[2:]
    d[1:-1] = (
        f0 * (x1 - x2) / ((x0 - x1) * (x0 - x2))
        + f1 * (2.0 * x1 - x0 - x2) / ((x1 - x0) * (x1 - x2))
        + f2 * (x1 - x0) / ((x2 - x0) * (x2 - x1))
    )
    return d


# modes per chunk of ``energy_trace``, which bounds its ``(modes, 5, times)`` arrays
_MEMORY_CHUNK = 64


def energy_trace(trajs: ModalTrajectories, times: np.ndarray) -> EnergyTrace:
    """Exact multi-mode energy trace on the given times.

    The modes go in chunks of at most ``_MEMORY_CHUNK``: each chunk is one
    phase array ``exp(lam_i*t)``, which feeds one ``state_at`` and one call of
    ``memory_energy_closed_form`` (``memory_energy_quadrature`` for dense
    modes), and one ``energy_parts`` over the stack.  The mechanical parts
    enter the running sums mode by mode: a sum over the stack would associate
    the additions differently.
    """
    times = np.asarray(times, dtype=float)
    zeta = 1.0 / trajs.delta
    mechanical = np.zeros((4,) + times.shape)
    mem = np.zeros_like(times)
    for start in range(0, len(trajs), _MEMORY_CHUNK):
        chunk = trajs[start : start + _MEMORY_CHUNK]
        phases = chunk.phases(times)
        states = chunk.state_at(times, phases)
        parts = energy_parts(*states.swapaxes(0, 1)[:4], chunk.xi[:, None], trajs.params, zeta)
        for part in np.stack(parts, axis=1):
            mechanical += part
        mem += memory_energy_closed_form(chunk[~chunk.dense], times, phases=phases[~chunk.dense]).sum(axis=0)
        for m in np.flatnonzero(chunk.dense):
            mem += [memory_energy_quadrature(chunk[m], float(t)) for t in times]
    return EnergyTrace.from_parts(times, *mechanical, mem, -trajs.delta * mem)


# ---------------------------------------------------------------------------
# general kernels: the history-quadrature scheme solved as a power series
# ---------------------------------------------------------------------------


def _series_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` coefficients of the product of the power series ``a`` and
    the real series ``b``, by real FFTs; a complex ``a`` is split into its
    real and imaginary parts."""
    a, b = a[:n], b[:n]
    size = 1 << max(a.size + b.size - 2, n - 1).bit_length()
    fb = np.fft.rfft(b, size)

    def real(x):
        return np.fft.irfft(np.fft.rfft(x, size) * fb, size)[:n]

    if np.iscomplexobj(a):
        return real(a.real) + 1j * real(a.imag)
    return real(a)


def _series_inverse(d: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` coefficients of ``1/d`` for a real series with ``d[0] =
    1``, by Newton's iteration ``x <- x + x*(1 - d*x)``, which doubles the
    number of correct coefficients per pass."""
    x = np.ones(1)
    while x.size < n:
        m = min(2 * x.size, n)
        defect = _series_product(d, x, m)[x.size :]
        x = np.concatenate([x, -_series_product(x, defect, m - x.size)])
    return x


def _doublings(a: np.ndarray):
    """``a^(2^j)`` for ``j = 0, 1, ...``, squared in numpy's extended precision
    and rounded to double: where the platform's ``longdouble`` is wider than
    double, the ``j``-th carries about one rounding instead of the
    ``2^j*eps`` of squaring in double."""
    power = np.asarray(a, dtype=np.longdouble)
    while True:
        yield power.astype(float)
        power = power @ power


def _powers(a: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Rows ``x, a x, ..., a^(n-1) x``, shape ``(n, x.size)``, by doubling:
    each pass applies ``a^(2^j)`` to every row found so far, so each row
    carries the rounding of at most ``log2(n)`` products."""
    out = np.empty((n, x.size))
    out[0] = x
    done = 1
    for power in _doublings(a):
        if done >= n:
            return out
        k = min(done, n - done)
        out[done : done + k] = out[:k] @ power.T
        done += k


def evolve_general_kernel(
    xi: float,
    y0,
    params: ModelParams,
    kernel: Kernel,
    T: float,
    dt: float,
    sample_every: int,
) -> EnergyTrace:
    """Implicit-midpoint scheme for the mode ``xi`` from the initial ``(v, u,
    p, q)`` in ``y0``, with trapezoidal convolution memory, for any kernel
    satisfying the positivity/pinch hypotheses, solved for all steps at once
    in O(steps log steps).

    The prescribed history is zero.  The memory force at the midpoint is the
    average of the endpoint convolutions ``conv_n = int_0^t g(s) v(t-s) ds``
    by the trapezoid rule on the step grid: ``conv_(n+1) = kappa*v_(n+1) +
    rest_n`` with ``kappa = dt*g(0)/2`` and ``rest_n = (h*v)_(n+1) -
    c_n*v_0``, where ``h_j = dt*g_j`` (``h_window`` halved) and the far-end
    correction ``c_n = dt*g_(n+1)/2`` applies while ``n+1 < window``.  Each
    step is linear in ``v_(n+1)``; solved for it, ``y_(n+1) = A y_n + b
    F_n`` with ``F_n = conv_n + rest_n``.  With ``R_k = e0^T A^k b`` and
    ``S_k = e0^T A^k y_0`` the velocities are the coefficients of

        V = (S - v_0 z R (kappa + (1+z) C)) / (1 - R (kappa z + (1+z) H)),

    one Newton inversion and a few products by real FFTs.  The states at the
    samples follow block by block, ``y_((j+1)S) = A^S y_(jS) + sum_i
    A^(S-1-i) b F_(jS+i)`` with ``S = sample_every``, in a scan that doubles
    the number of blocks folded in per pass.  The history coordinate at the
    samples is reconstructed from the velocities by the same trapezoid rule
    for ``g`` and ``g'``, and the convolution is truncated where the pinch
    puts the kernel below 1e-14 of ``g(0)`` (see the module docstring).
    """
    xi = float(xi)
    xi_a = xi**params.a
    n_steps = int(round(T / dt))
    window = min(n_steps, int(math.ceil(math.log(1e14) / kernel.k1 / dt)))

    s_grid = dt * np.arange(window + 1)
    g_grid = np.asarray(kernel.g(s_grid), dtype=float)
    if np.any(g_grid <= 0.0):
        raise InvalidModelError("kernel must stay positive on the stepping window")
    dg = np.diff(g_grid)
    if np.any(dg >= 0.0):
        i = int(np.argmax(dg >= 0.0))
        raise InvalidModelError(
            f"kernel stopped decreasing at s ~ {dt * (i + 1):.6g}; pinch hypothesis violated"
        )
    # g and g' at s = (window, ..., 1, 0) * dt: the weight of v_i in a sum
    # ending at v_n is the entry n - i places from the end
    reversed_table = np.stack([g_grid, kernel.g_prime(s_grid)])[:, ::-1].copy()

    amat = memoryless_generator(xi, params)
    eye = np.eye(4)
    lhs = np.linalg.inv(eye - 0.5 * dt * amat)
    rhs = eye + 0.5 * dt * amat
    # the memory force enters the velocity row: y_(n+1) = z + col*kappa*v_(n+1)
    # with z = lhs rhs y_n + col*F_n, so y_(n+1) = Q z, Q = I + gain e0^T
    col = lhs[:, 1] * dt * xi_a / (2.0 * params.rho)
    kappa = 0.5 * dt * g_grid[0]
    gain = col * kappa / (1.0 - col[0] * kappa)
    # A (``propagator``) stays in extended precision until its powers are
    # rounded: a rounded A would perturb every step alike, an error that grows
    # with the step count
    q = np.eye(4, dtype=np.longdouble)
    q[:, 0] += gain
    propagator = q @ lhs @ rhs
    b = (q @ col).astype(float)

    size = n_steps + 1
    y0 = np.asarray(y0, dtype=complex)
    rows = _powers(propagator.T, eye[0], size)
    r = rows @ b
    numerator = rows @ y0.real + 1j * (rows @ y0.imag)
    h = dt * g_grid
    h[0] = 0.0
    h[-1] *= 0.5
    c = 0.5 * dt * g_grid[1:window]
    # kappa z + (1+z) H and kappa + (1+z) C
    pull = np.append(h, 0.0) + np.append(0.0, h)
    pull[1] += kappa
    start = np.append(c, 0.0) + np.append(0.0, c)
    start[0] += kappa
    denominator = -_series_product(r, pull, size)
    denominator[0] = 1.0
    numerator[1:] -= y0[0] * _series_product(r, start, size - 1)
    v_hist = _series_product(numerator, _series_inverse(denominator, size), size)

    rest = _series_product(v_hist, h, size)[1:]
    rest[: window - 1] -= y0[0] * c
    force = rest.copy()
    force[1:] += kappa * v_hist[1:-1] + rest[:-1]
    n_blocks = n_steps // sample_every
    # block j adds sum_i A^(S-1-i) b F_(jS+i) to A^S y_(jS)
    kick = _powers(propagator, b, sample_every)[::-1]
    samples = np.concatenate(
        [y0[None], force[: n_blocks * sample_every].reshape(n_blocks, sample_every) @ kick]
    )
    span = 1
    for jump in _doublings(np.linalg.matrix_power(propagator, sample_every)):
        if span >= samples.shape[0]:
            break
        samples[span:] += samples[:-span] @ jump.T
        span *= 2

    sample_idx = np.arange(0, n_steps + 1, sample_every)
    m = np.minimum(sample_idx, window)
    v = samples[:, 0]
    # recent parts of int g |eta|^2 and int g' |eta|^2; the near end holds
    # eta(0) = 0, so only the far end needs halving
    recent = np.empty((sample_idx.size, 2))
    for i, (n, mi) in enumerate(zip(sample_idx, m)):
        eta_sq = np.abs(v[i] - v_hist[n - mi : n + 1]) ** 2
        weights = reversed_table[:, window - mi :]
        recent[i] = dt * (weights @ eta_sq - 0.5 * weights[:, 0] * eta_sq[0])
    # remote parts: eta = v(t) for s beyond the window, where int g = zeta -
    # int_0^s g and int g' = -g(s) (the same truncation as the step)
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (g_grid[1:] + g_grid[:-1]) * dt)])
    v_sq = np.abs(v) ** 2
    mem = xi_a * (recent[:, 0] + v_sq * (kernel.zeta - cumulative[m]))
    dissipation = xi_a * (recent[:, 1] - g_grid[m] * v_sq)
    parts = energy_parts(*samples.T, xi, params, kernel.zeta)
    return EnergyTrace.from_parts(dt * sample_idx, *parts, mem, dissipation)


# ---------------------------------------------------------------------------
# marginal initial data
# ---------------------------------------------------------------------------


def marginal_data_amplitudes(xi: np.ndarray) -> np.ndarray:
    """Displacement amplitudes ``xi_k^(-1) / k^0.51``, ``k`` counting ``xi``
    from 1: graph norm barely finite, so the decay saturates the worst-case rate."""
    k = np.arange(1, xi.size + 1, dtype=float)
    return xi ** (-1.0) / k**0.51


__all__ = [
    "EnergyTrace",
    "ExponentialPolyHistory",
    "HistoryTerm",
    "ModalTrajectories",
    "energy_trace",
    "evolve_general_kernel",
    "exact_modal_evolve",
    "history_mass",
    "history_sq_mass",
    "marginal_data_amplitudes",
    "memory_energy_closed_form",
    "memory_energy_quadrature",
]
