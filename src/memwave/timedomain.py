"""Time evolution per mode: exact evolution for exponential kernels, a
history-quadrature scheme for general kernels, energy traces.  A mode is
given by its eigenvalue ``xi`` and its initial data by a plain real array
of ``(v, u, p, q)``; no mode number enters.  Every mode is at rest before
``t = 0``.  The system is real, so complex data, whose trace would be the sum
of the traces of their real and imaginary parts, are refused.

Every route takes the memory part of the energy in one form.  From rest
``v(t-s) = 0`` for ``s > t``, so with ``zeta = int_0^inf g`` and the history
coordinate ``I = int_0^t g(s) v(t-s) ds`` (Dafermos, ARMA 1970)

    xi^a * int_0^inf g(s) |v(t) - v(t-s)|^2 ds
        = xi^a (zeta v^2 - 2 v I + int_0^t g(s) v(t-s)^2 ds),

and the routes differ only in how they get ``I`` and the last integral.

For ``g(s) = exp(-delta*s)``, ``zeta = 1/delta``, each mode reduces to the
five-dimensional system ``(v, u, p, q, I)`` with ``I' = v - delta*I`` and
``I(0) = 0``, so the trajectory is an exact five-term exponential sum.  That
removes all time-discretization error from decay-rate measurements.  Its
roots are one real root and two exact conjugate pairs (or another real
labelling), so the solution is real: five real pair coordinates,
``exp(lam_0*t)``, ``Re exp(lam_1*t)``, ``Im exp(lam_1*t)``, ``Re
exp(lam_3*t)`` and ``Im exp(lam_3*t)``, carry it, with no amplitudes in
them.  Per mode and time they take three real exponentials and two
tangents: a pair's phase comes from the tangent of its half angle, with no
complex ``exp``.  The amplitudes enter the fixed real maps of the
coordinates instead, through one 0/1/+-i unit basis per labelling: the
states, ``I`` among them, are a real 5x5 map of them, and the last
integral of the memory sums over pairs of the terms of ``v``: a real
symmetric 5x5 form of the coordinates per mode plus a term in
``e^(-delta*t)``.  So every per-mode constant is built once for a whole
stack, and each chunk of modes is one vectorised evaluation of the
coordinates and one real matrix product with them.  A mode whose roots
nearly collide, or lack an exact conjugate partner, has no such
expansion; it takes the matrix form instead, the
states ``expm(G t) x0`` of its 5x5 generator ``G`` and the last integral
from one Lyapunov solve for ``G`` (``_matrix_parts``).

General kernels satisfying the positivity/pinch hypotheses go through an
implicit-midpoint scheme whose memory force is ``I`` by the trapezoid rule
over the trajectory; the rule is truncated at ``s = log(1e14)/k1``, past
which the pinch ``g(s) <= g(0) exp(-k1*s)`` puts the kernel below 1e-14 of
its initial value.  The scheme is linear and time-invariant apart from one
trapezoid end correction on the initial velocity, so all its velocities are
the coefficients of one real power-series quotient: a Newton inversion and a
few products by real FFTs at 5-smooth lengths, O(steps log steps) in all.
The same rule on ``v^2`` gives the last integral, and on ``g'`` the
dissipation, at every step by a few more such products: no loop over steps
or samples.

Both routes end in an ``EnergyTrace``, whose residual checks the
dissipation identity against numpy's second-order difference of the total
energy on the sampled times (``np.gradient``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import (
    InvalidModelError,
    Kernel,
    ModelParams,
    coercivity_margin,
    energy_parts,
    energy_terms,
    memoryless_generator,
    require_coercive,
)
from .spectral import eigvec, modal_generator, quintic_roots


# ---------------------------------------------------------------------------
# exact modal evolution (exponential kernel)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModalTrajectories:
    """Exact solutions of a stack of modes, each a five-term exponential sum.

    Modes run along the leading axis of ``xi``, ``eigenvalues``, ``eigvecs``
    (column ``i`` is the eigenvector of root ``i``), ``amplitudes``, ``x0``
    (the real ``(v, u, p, q, I)`` at t = 0, ``I = 0``) and ``dense``; all
    modes share ``delta`` and ``params``.  Every eigenvector is normalised to
    ``v = 1`` (``eigvecs[:, 0, :]`` is exactly 1), so the amplitudes are also
    the coefficients of ``v(t) = sum_i a_i exp(lam_i t)``.  Indexing keeps the
    leading axis, so ``trajs[m]``, ``trajs[a:b]`` and ``trajs[~trajs.dense]``
    are stacks too.  A mode whose eigenvalue separation check failed is
    flagged by ``dense``: its amplitudes are zero, and ``energy_trace``
    takes its parts from the matrix form (``_matrix_parts``), as for a mode
    whose roots lack an exact conjugate partner.

    A mode's roots are real or come in exact conjugate pairs (``partners``),
    and so do its eigenvectors.  The data are real, so the amplitudes of a
    pair are conjugate too, and each ``exp(lam_i t)`` is a real coordinate
    or half of a pair's: the five amplitude-free reals of
    ``pair_coordinates`` carry the whole solution, and every state is a
    fixed real map of them, the amplitudes folded in (``pair_basis``).  From
    rest the history ``I(0) = sum_i a_i/(delta + lam_i)`` is 0, which the
    closed-form memory energy relies on; it refuses amplitudes that break
    this (``_memory_form``).
    """

    xi: np.ndarray
    eigenvalues: np.ndarray
    eigvecs: np.ndarray
    amplitudes: np.ndarray
    x0: np.ndarray
    dense: np.ndarray
    delta: float
    params: ModelParams

    def __len__(self) -> int:
        return self.xi.shape[0]

    def __getitem__(self, index) -> "ModalTrajectories":
        rows = np.atleast_1d(np.arange(len(self))[index])
        per_mode = ("xi", "eigenvalues", "eigvecs", "amplitudes", "x0", "dense")
        out = replace(self, **{name: getattr(self, name)[rows] for name in per_mode})
        if "partners" in vars(self):
            # a row's partners depend on its roots alone: take them along
            vars(out)["partners"] = self.partners[rows]
        return out

    @cached_property
    def partners(self) -> np.ndarray:
        """The conjugation partner ``p(i)`` of every root, ``lam[p(i)] ==
        conj(lam[i])`` exactly, shape ``(modes, 5)``: ``p(i) = i`` for a real
        root, and -1 where a root has no such partner or more than one.
        ``quintic_roots`` labels a mode ``[real, p, conj(p), q, conj(q)]``,
        so ``p = (0, 2, 1, 4, 3)``; a degenerate labelling has its own."""
        match = self.eigenvalues[:, :, None].conj() == self.eigenvalues[:, None, :]
        return np.where(match.sum(axis=2) == 1, match.argmax(axis=2), -1)

    def pair_coordinates(self, t) -> np.ndarray:
        """The real pair coordinates ``r`` of every mode at ``t``, shape
        ``(modes, 5) + t.shape``: ``r_i = exp(lam_i t)`` for a real root
        ``i``, and ``r_i = Re exp(lam_i t)``, ``r_p(i) = Im exp(lam_i t)``
        for a pair ``i < p(i)``.  They hold no amplitudes, which enter
        through ``pair_basis``; at ``t = 0`` they are 1 at a real root or the
        first root of a pair and 0 at the second.  A real root takes one
        real ``exp``; a pair ``lam = sigma + i omega`` takes one real ``exp``
        and one ``tan`` (see ``_pair_coordinates``), and forms no complex
        array.  A root without its partner raises ``InvalidModelError``.
        """
        t = np.asarray(t, dtype=float)
        partner = self.partners
        if (partner < 0).any():
            raise InvalidModelError("pair coordinates need the exact conjugate partner of every root")
        out = _pair_coordinates(self.eigenvalues, *_labellings(partner), t.reshape(-1))
        return out.reshape((len(self), 5) + t.shape)

    def pair_basis(self) -> np.ndarray:
        """The complex ``(modes, 5, 5)`` matrix ``C = diag(a) U`` of each
        mode with ``f = C r``, ``f_i = a_i exp(lam_i t)``: ``U`` is the unit
        basis of the mode's labelling (``_unit_bases``), with ``exp(lam t) =
        U r``.  A complex linear map ``L`` of the terms, such as the
        eigenvectors, acts on ``r`` as the real map ``Re(L C)``."""
        labellings, which = _labellings(self.partners)
        return self.amplitudes[:, :, None] * _unit_bases(labellings)[which]


def _labellings(partner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a stack's ``partners``, shape ``(labellings,
    5)``, and the index of each mode's among them."""
    _, first, which = np.unique(partner @ 6 ** np.arange(5), return_index=True, return_inverse=True)
    return partner[first], which


def _unit_bases(labellings: np.ndarray) -> np.ndarray:
    """The complex 0/1/+-i matrix ``U`` of each labelling, shape
    ``(labellings, 5, 5)``, with ``exp(lam t) = U r`` in the pair
    coordinates ``r``: row ``i`` picks ``r_i`` for a real root, ``r_i + i
    r_p(i)`` for the first root of a pair and ``r_p(i) - i r_i`` for the
    second."""
    slot, eye = np.arange(5), np.eye(5)
    sign = 1j * np.sign(labellings - slot)[..., None]
    return eye[np.minimum(slot, labellings)] + sign * eye[np.maximum(slot, labellings)]


def _unit_products(x, labellings, which, conj=False) -> np.ndarray:
    """``x @ U`` for a stack ``x`` of complex 5x5 matrices, ``U`` the unit
    basis of each mode's labelling (``_unit_bases``, conjugated if
    ``conj``), as one flat product per labelling present.  A column of
    ``U`` holds at most two nonzero entries, each 1 or +-i, so every entry
    of the product is one rounding of an exact sum however the product is
    blocked: a mode's bits do not depend on which modes share its stack."""
    bases = _unit_bases(labellings).conj() if conj else _unit_bases(labellings)
    out = np.empty(x.shape, dtype=complex)
    for k, base in enumerate(bases):
        out[which == k] = (x[which == k].reshape(-1, 5) @ base).reshape(-1, 5, 5)
    return out


def _pair_coordinates(lams, labellings, which, tt) -> np.ndarray:
    """The pair coordinates of rows with the roots ``lams``, each row with
    the partners ``labellings[which]``, at the flat times ``tt``: shape
    ``(rows, 5, tt.size)``, one pass per labelling present.

    A pair's lead root ``lam = sigma + i omega`` takes ``u = tan(omega t/2)``
    and ``w = 2/(1 + u^2)``, so that ``exp(i omega t) = (w - 1) + i u w``,
    and its growth ``exp(sigma t)`` scales that: no complex ``exp``.  The
    half angle is ``0.5*fl(omega*t)`` exactly, the phase a complex ``exp``
    would take.  ``|u|`` stays below about 1.6e16 in double, where ``u^2``
    is far from overflow, and ``w - 1`` and ``u w`` are the cosine and sine
    to a few units of ``eps`` in absolute terms, whatever ``u``; both are
    formed before the growth scales them, so no product underflows before
    the coordinate does.  A real root's ``exp`` is evaluated only above
    ``-745.14``: at and below ``-745.1332191019412`` numpy's ``exp`` is
    exactly ``+0.0``, and such lanes cost it over ten times a normal one.
    """
    slot = np.arange(5)
    out = np.empty((len(lams), 5, tt.size))
    present = np.flatnonzero(np.bincount(which, minlength=len(labellings)))
    for k in present:
        p = labellings[k]
        rows = np.flatnonzero(which == k) if present.size > 1 else slice(None)
        lam = lams[rows]
        real, lead = slot[p == slot], slot[p > slot]
        block = out if present.size == 1 else np.empty((len(lam), 5, tt.size))
        growth = np.multiply.outer(lam[:, real].real, tt)
        block[:, real] = np.exp(growth, out=np.zeros_like(growth), where=growth > -745.14)
        u = np.tan(np.multiply.outer(0.5 * lam[:, lead].imag, tt))
        w = np.multiply(u, u)
        w += 1.0
        np.divide(2.0, w, out=w)
        sin = np.multiply(u, w, out=u)
        cos = np.subtract(w, 1.0, out=w)
        growth = np.exp(np.multiply.outer(lam[:, lead].real, tt))
        cos *= growth
        sin *= growth
        block[:, lead] = cos
        block[:, p[lead]] = sin
        if block is not out:
            out[rows] = block
    return out


def _real_data(x) -> np.ndarray:
    """The initial data ``x`` as a float array.  Complex data raise
    ``InvalidModelError``: a cast to float would drop the imaginary part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise InvalidModelError("initial data must be real")
    return x.astype(float)


def exact_modal_evolve(xi, x0, params: ModelParams, delta: float) -> ModalTrajectories:
    """Diagonalize the reduced five-dimensional generator of the modes ``xi``,
    shape ``(modes,)``, and fit amplitudes to their initial ``(v, u, p, q)``
    in ``x0``, shape ``(modes, 4)``: one root solve and one stacked
    eigenvector solve for the whole stack.

    The modes are at rest before t = 0, so the initial convolved history is
    ``I(0) = 0``.  If two eigenvalues of a mode collide to within 1e-8 of its
    spectral scale the eigenvector solve is refused for that mode, which is
    flagged ``dense`` and reconstructed by the matrix exponential.  A mode
    that is not coercive, or complex data, raise ``InvalidModelError``.
    """
    xi = np.asarray(xi, dtype=float)
    require_coercive(xi, coercivity_margin(xi, params, 1.0 / delta) <= 0.0)
    lams = quintic_roots(xi, params, delta).roots
    x0 = np.column_stack([_real_data(x0), np.zeros(xi.size)])

    scale = np.maximum(1.0, np.abs(lams).max(axis=1))
    upper, lower = np.triu_indices(5, 1)
    sep = np.abs(lams[:, upper] - lams[:, lower]).min(axis=1)
    dense = sep < 1e-8 * scale

    # column i of a mode's matrix is the eigenvector of its root i
    vmat = np.swapaxes(eigvec(lams, xi[:, None], params, delta), 1, 2)
    amps = np.zeros(x0.shape, dtype=complex)
    amps[~dense] = np.linalg.solve(vmat[~dense], x0[~dense, :, None])[..., 0]
    return ModalTrajectories(xi, lams, vmat, amps, x0, dense, delta, params)


# ---------------------------------------------------------------------------
# memory energy, closed form
# ---------------------------------------------------------------------------


# ``|c|*t_max`` below which a pair term of the memory energy is evaluated as
# ``E(c)`` instead of by the split form: there the split's two halves cancel,
# while ``|c*t| < 1`` at every time keeps ``E(c)`` itself from overflowing
_SPLIT_GUARD = 1.0


def _expm1_ratio(x: np.ndarray) -> np.ndarray:
    """``(1 - exp(-x)) / x`` with its limit 1 at ``x = 0``."""
    return np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0)


def _whole(z, c, tt) -> np.ndarray:
    """``Re(z * E(c))`` with ``E(c) = int_0^t exp(-c*s) ds = t*(1 -
    exp(-c*t))/(c*t)``, one complex ``c`` per row of the complex ``z``;
    numpy's complex ``expm1`` keeps its accuracy on the real axis too."""
    return (z * (tt * _expm1_ratio(np.multiply.outer(c, tt)))).real


class _MemoryForm(NamedTuple):
    """The constants of ``memory_energy_closed_form`` for a stack, one row
    per mode: the form ``maps = Q``, shape ``(modes, 5, 5)``; the start term
    ``pi``; the mask of the pair terms taken whole; ``scale = xi^a``; and
    the real state maps ``states = Re(V C)`` that ``Q`` is built from, which
    ``energy_trace`` reads too.  ``image`` and ``decay``, if set, are ``maps
    @ r`` and ``e^(-delta*t)`` at the times evaluated, formed by the caller
    for the modes of the other fields."""

    maps: np.ndarray
    pi: np.ndarray
    pair_guard: np.ndarray
    scale: np.ndarray
    states: np.ndarray
    image: np.ndarray | None = None
    decay: np.ndarray | None = None


def _memory_form(trajs: ModalTrajectories, t_max: float) -> _MemoryForm:
    """The constants of ``memory_energy_closed_form`` for the stack
    ``trajs`` at times up to ``t_max`` (see there).  With the unit bases
    ``U`` (``_unit_bases``), the states are ``Re((V diag(a)) U)``, the pair
    form is ``Re(U^T W' conj(U))`` with ``W'_ij = a_i conj(a_j)/c_ij``, and
    ``r(0)`` is the unit vector of the labelling.  The form holds from rest
    alone: a row whose ``I(0) = h.r(0)`` exceeds 1e-8 of ``sum_i |h_i
    r_i(0)|`` raises ``InvalidModelError``."""
    lams, amps, delta = trajs.eigenvalues, trajs.amplitudes, trajs.delta
    c = delta + lams[:, :, None] + lams.conj()[:, None, :]
    pair_guard = np.abs(c) * t_max < _SPLIT_GUARD
    weights = np.divide(amps[:, :, None] * amps.conj()[:, None, :], c, out=np.zeros_like(c), where=~pair_guard)

    labellings, which = _labellings(trajs.partners)
    # the transpose of the pair form, which its symmetric part does not tell apart
    pair = np.swapaxes(_unit_products(weights, labellings, which, conj=True), 1, 2)
    pair = _unit_products(pair, labellings, which).real
    pair = 0.5 * (pair + np.swapaxes(pair, 1, 2))
    states = _unit_products(trajs.eigvecs * amps[:, None, :], labellings, which).real
    # v and I: the eigenvectors' first entry is 1 and their last is 1/(delta + lam)
    e, h = states[:, 0], states[:, 4]
    cross = e[:, :, None] * h[:, None, :]
    form = pair + e[:, :, None] * e[:, None, :] / delta - (cross + np.swapaxes(cross, 1, 2))
    r0 = (labellings >= np.arange(5))[which].astype(float)
    history = h * r0
    moving = np.abs(history.sum(axis=1)) > 1e-8 * np.abs(history).sum(axis=1)
    if moving.any():
        raise InvalidModelError(f"closed-form memory energy needs data from rest, not so at xi={trajs.xi[moving][0]:g}")
    pi = np.einsum("ni,nij,nj->n", r0, pair, r0)
    return _MemoryForm(form, pi, pair_guard, trajs.xi**trajs.params.a, states)


def memory_energy_closed_form(trajs: ModalTrajectories, t, coords=None, form=None) -> np.ndarray:
    """``xi^a * int_0^inf exp(-delta*s) |v(t) - v(t-s)|^2 ds`` for a stack of
    trajectories, shape ``(len(trajs),) + t.shape``.  ``coords`` and
    ``form``, if given, are ``trajs.pair_coordinates(t)`` and
    ``_memory_form(trajs, t_max)`` at a ``t_max`` no less than any
    ``t``, which lets a caller build the per-mode constants once for many
    calls; with its ``image`` and ``decay`` set, the caller has formed the
    product of ``form.maps`` with ``coords`` and ``e^(-delta*t)`` too.

    With ``f_i = a_i*exp(lam_i*t)``, ``v = sum_i f_i`` and
    ``E(c) = int_0^t exp(-c*s) ds = -expm1(-c*t)/c``, the ``s < t`` part is

        |v|^2 E(delta) - 2 Re(conj(v) I) + sum_ij f_i conj(f_j) E(c_ij),

    ``c_ij = delta + lam_i + conj(lam_j)``, with the history coordinate
    ``I = int_0^t e^(-delta*s) v(t-s) ds = sum_i f_i E(delta + lam_i) = sum_i
    f_i/(delta + lam_i)``, the last since ``I(0) = sum_i a_i/(delta + lam_i)
    = 0`` from rest.  The ``s > t`` part, where the mode was at rest, is
    ``e^(-delta*t) |v|^2/delta``, which cancels the same piece of ``|v|^2
    E(delta)``.  Each pair term splits as ``(f_i conj(f_j) - a_i conj(a_j)
    e^(-delta*t)) / c_ij``, except where ``|c_ij|*t_max`` is below
    ``_SPLIT_GUARD``: there the halves cancel and ``E`` is evaluated
    directly, by one complex ``expm1``.

    In the amplitude-free pair coordinates ``r`` the data are real, ``v =
    e.r``, ``I = h.r`` and ``f = C r`` (``ModalTrajectories.pair_basis``),
    so the split parts fold into one real symmetric 5x5 form per mode:

        r.Q r - e^(-delta*t) pi,

    ``Q = e e^T/delta - (e h^T + h e^T) + Re(C^T W conj(C))`` with the history
    row ``h = Re(w C)``, ``w_i = 1/(delta + lam_i)``, and pair terms ``W_ij =
    1/c_ij``; ``pi`` is the pair form at ``r(0)``, the constant unit vector
    of the labelling, where ``f = a``.  With ``C = diag(a) U`` the pair form
    is ``Re(U^T W' conj(U))``, ``W'_ij = a_i conj(a_j)/c_ij``, and a guarded
    pair term reads its ``f_i`` as ``(C r)_i``.  Amplitudes not from rest
    raise ``InvalidModelError``.  Dense-fallback trajectories, and those
    whose roots lack an exact conjugate partner, must use the matrix form
    (``_matrix_parts``) instead.
    """
    if trajs.dense.any() or (trajs.partners < 0).any():
        raise InvalidModelError("closed-form memory energy needs the amplitude expansion in conjugate pairs")
    t = np.asarray(t, dtype=float)
    tt = t.reshape(-1)
    n = len(trajs)
    # tt.size, not -1: an empty stack (all of a chunk dense) gives nothing to infer from
    r = trajs.pair_coordinates(tt) if coords is None else coords.reshape(n, 5, tt.size)
    if form is None:
        form = _memory_form(trajs, np.max(tt, initial=0.0))

    image = form.maps @ r if form.image is None else form.image
    memory = np.einsum("nit,nit->nt", r, image)
    memory -= (np.exp(-trajs.delta * tt) if form.decay is None else form.decay) * form.pi[:, None]

    # the pair terms taken whole, the guarded rows of one slot pair at a time,
    # from their terms f = C r
    lams = trajs.eigenvalues
    for i, j in zip(*np.nonzero(form.pair_guard.any(axis=0))):
        m = np.flatnonzero(form.pair_guard[:, i, j])
        f = trajs[m].pair_basis()[:, [i, j]] @ r[m]
        memory[m] += _whole(f[:, 0] * f[:, 1].conj(), trajs.delta + lams[m, i] + lams[m, j].conj(), tt)

    memory *= form.scale[:, None]
    return memory.reshape((n,) + t.shape)


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
        xi^a int g' |eta|^2`` of the identity, sampled on the one-dimensional
        ``times``: the residual compares it with ``np.gradient(total,
        times)``, the second-order difference on a nonuniform grid (Fornberg,
        Math. Comp. 1988), at the interior samples.  Its one-sided ends, and
        every sample of a trace shorter than three, are NaN."""
        total = stiffness + kinetic_v + coupling + kinetic_p + memory
        de = np.full_like(total, np.nan)
        if total.size > 2:
            de[1:-1] = 0.5 * np.gradient(total, times)[1:-1]
        residual = np.abs(de - 0.5 * dissipation)
        return cls(times, stiffness, kinetic_v, coupling, kinetic_p, memory, residual)

    @property
    def total(self) -> np.ndarray:
        return self.stiffness + self.kinetic_v + self.coupling + self.kinetic_p + self.memory

    def norm(self) -> np.ndarray:
        return np.sqrt(self.total)


def _matrix_parts(trajs: ModalTrajectories, tt: np.ndarray) -> np.ndarray:
    """The five parts of the energy of every mode of ``trajs`` at the flat
    times ``tt``, shape ``(modes, 5, tt.size)``, from each mode's generator
    ``G`` (``modal_generator``) and data ``x0`` alone: no roots and no
    eigenvectors, so it holds where the roots collide or lack an exact
    conjugate partner.  The states are ``x(t) = expm(G t) x0``, ``I =
    x[4]``, and the last integral of the memory form (module docstring) is
    ``x^T W x - e^(-delta*t) x0^T W x0``, ``W`` the real symmetric solution
    of ``G^T W + W G + delta W = e0 e0^T``: then ``d/dt x^T W x = v^2 -
    delta x^T W x``.  ``W`` is one Kronecker solve of order 25 per mode
    (Bartels and Stewart, CACM 1972, solve the same equation by Schur
    forms), and exists where every ``delta + lam_i + lam_j`` is nonzero.
    Only ``W`` needs that: the closed form takes a pair term with a
    vanishing exponent whole, while ``W`` loses digits as the smallest such
    sum nears zero.
    """
    import scipy.linalg as sla  # loaded only for a dense or partnerless mode

    params, delta = trajs.params, trajs.delta
    gens = modal_generator(trajs.xi, params, delta)
    states = np.stack([(sla.expm(np.multiply.outer(tt, g)) @ x0).T for g, x0 in zip(gens, trajs.x0)])
    # G^T W + W G + delta W on the row-major entries of W
    gt, eye = gens.swapaxes(1, 2), np.eye(5)
    lyapunov = np.einsum("nij,kl->nikjl", gt, eye) + np.einsum("ij,nkl->nikjl", eye, gt)
    lyapunov = lyapunov.reshape(-1, 25, 25) + delta * np.eye(25)
    e0e0 = np.zeros((len(trajs), 25, 1))
    e0e0[:, 0] = 1.0
    w = np.linalg.solve(lyapunov, e0e0).reshape(-1, 5, 5)

    # x^T W x reads only the symmetric part of W
    v, history = states[:, 0], states[:, 4]
    recent = (states * (w @ states)).sum(axis=1)
    start = np.einsum("ni,nij,nj->n", trajs.x0, w, trajs.x0)
    memory = v * v / delta - 2.0 * v * history + recent
    memory -= np.exp(-delta * tt) * start[:, None]
    mechanical = energy_parts(*states[:, :4].swapaxes(0, 1), trajs.xi[:, None], params, 1.0 / delta)
    return np.stack([*mechanical, trajs.xi[:, None] ** params.a * memory], axis=1)


# modes per chunk of ``energy_trace``, which bounds its ``(modes, 5, times)`` arrays
_MEMORY_CHUNK = 64


def energy_trace(trajs: ModalTrajectories, times: np.ndarray) -> EnergyTrace:
    """Exact multi-mode energy trace on the one-dimensional array ``times``;
    times of any other shape raise ``InvalidModelError`` before any work.

    The trace is evaluated in the amplitude-free pair coordinates: every
    part is a fixed real map of a mode's five reals ``r``, its amplitudes
    folded in.  Those per-mode constants are built once for the whole stack:
    the labellings, the terms of the mechanical parts (``energy_terms``) as
    rows of the states ``Re(V C)[:4]``, each scaled by the square root of
    its weight, and the memory form (``_memory_form``), stacked into one
    ``(modes, 9, 5)`` map.  The weights are positive on a coercive mode,
    which ``exact_modal_evolve`` requires.  The modes then go in chunks of
    at most ``_MEMORY_CHUNK``, which bounds the ``(modes, 5, times)``
    arrays; a chunk forms ``r`` (``_pair_coordinates``) and the one product
    of the map with it, whose squared terms are the mechanical parts and
    whose rest ``memory_energy_closed_form`` takes as it is, with
    ``e^(-delta*t)`` formed once per call; the parts go into one block
    allocated once per call.  Dense modes, and modes whose roots lack an
    exact conjugate partner, take the matrix form (``_matrix_parts``), a
    chunk's such modes in one call.  Each mode's parts then enter the
    running sums in turn: a sum over the stack would associate the additions
    differently, and a sequential ``np.add.accumulate`` over the chunk,
    which would keep the association, is slower than this loop.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise InvalidModelError(f"times must be one-dimensional, got shape {times.shape}")
    zeta = 1.0 / trajs.delta
    expanded = ~trajs.dense & (trajs.partners >= 0).all(axis=1)
    light = np.flatnonzero(expanded)
    paired = trajs if expanded.all() else trajs[light]
    labellings, which = _labellings(paired.partners)
    form = _memory_form(paired, np.max(times, initial=0.0))
    weights, terms = zip(*energy_terms(*np.moveaxis(form.states[:, :4], 1, 0), paired.xi[:, None], trajs.params, zeta))
    # every weight is positive on a coercive mode, so its root scales the term
    roots = np.sqrt(np.concatenate(np.broadcast_arrays(*weights), axis=1))[:, :, None]
    maps = np.concatenate([np.stack(terms, axis=1) * roots, form.maps], axis=1)
    decay = np.exp(-trajs.delta * times)
    block = np.empty((_MEMORY_CHUNK, 5, times.size))
    sums = np.zeros((5, times.size))
    for start in range(0, len(trajs), _MEMORY_CHUNK):
        stop = min(start + _MEMORY_CHUNK, len(trajs))
        parts = block[: stop - start]
        lo, hi = np.searchsorted(light, [start, stop])
        if hi > lo:
            rows = slice(lo, hi)
            r = _pair_coordinates(paired.eigenvalues[rows], labellings, which[rows], times)
            image = maps[rows] @ r
            np.square(image[:, :4], out=parts[: hi - lo, :4])
            chunk = _MemoryForm(*(x[rows] for x in form[:5]), image[:, 4:], decay)
            parts[: hi - lo, 4] = memory_energy_closed_form(paired[rows], times, coords=r, form=chunk)
        matrix = start + np.flatnonzero(~expanded[start:stop])
        if matrix.size:
            parts[light[lo:hi] - start] = parts[: hi - lo]
            parts[matrix - start] = _matrix_parts(trajs[matrix], times)
        for part in parts:
            sums += part
    return EnergyTrace.from_parts(times, *sums, -trajs.delta * sums[4])


# ---------------------------------------------------------------------------
# general kernels: the history-quadrature scheme solved as a power series
# ---------------------------------------------------------------------------


def _smooth_size(n: int) -> int:
    """The smallest ``2^i 3^j 5^k`` no less than ``n >= 1``: a length that
    the FFT splits into radix-2, 3 and 5 passes only."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << ((n - 1) // odd).bit_length())
            odd *= 3
        five *= 5
    return best


def _series_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` coefficients of the product of the real power series
    ``a`` and ``b`` along their last axes, broadcast over the leading ones,
    by real FFTs of the smallest 5-smooth length that holds the whole
    product (``_smooth_size``)."""
    a, b = a[..., :n], b[..., :n]
    size = _smooth_size(max(a.shape[-1] + b.shape[-1] - 1, n))
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[..., :n]


def _series_inverse(d: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` coefficients of ``1/d`` for a real series with ``d[0] =
    1``, by Newton's iteration ``x <- x + x*(1 - d*x)``, which doubles the
    number ``k`` of correct coefficients per pass, to ``m = min(2k, n)``.

    A pass takes both its products at one cyclic length ``L >= m`` and
    shares the spectrum of ``x`` between them (the middle product of
    Hanrot, Quercia and Zimmermann, AAECC 2004): ``d*x`` has degree below
    ``m + k - 1``, so its wraparound lands below ``k``, in coefficients the
    pass discards, and ``x*defect`` has degree below ``m - 1`` and does not
    wrap at all."""
    x = np.ones(1)
    while x.size < n:
        k = x.size
        m = min(2 * k, n)
        size = _smooth_size(m)
        fx = np.fft.rfft(x, size)
        defect = np.fft.irfft(np.fft.rfft(d[:m], size) * fx, size)[k:m]
        x = np.concatenate([x, -np.fft.irfft(np.fft.rfft(defect, size) * fx, size)[: m - k]])
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
    """Implicit-midpoint scheme for the mode ``xi`` from the real initial
    ``(v, u, p, q)`` in ``y0``, with trapezoidal convolution memory, for any
    kernel satisfying the positivity/pinch hypotheses, solved for all steps
    at once in O(steps log steps).

    The mode is at rest before t = 0.  The memory force at the midpoint is the
    average of the endpoint convolutions ``I_n = int_0^t g(s) v(t-s) ds`` by
    the trapezoid rule on the step grid over ``[0, min(n, window)*dt]``: as
    series ``I = W V - v_0 C``, with ``W_j = dt*g_j`` halved at both ends of
    the window and the far-end halves ``C_n = dt*g_n/2``, ``n < window``, of
    the shorter rules.  ``I_(n+1)`` holds ``v_(n+1)`` as ``kappa*v_(n+1)``,
    ``kappa = dt*g(0)/2``, so each step is linear in ``v_(n+1)``; solved for
    it, ``y_(n+1) = A y_n + b F_n`` with ``F_n = I_n + I_(n+1) -
    kappa*v_(n+1)``.  With ``R_k = e0^T A^k b`` and ``S_k = e0^T A^k y_0``
    the velocities are the coefficients of

        V = (S - v_0 R ((1+z) C - kappa)) / (1 - R ((1+z) W - kappa)),

    one Newton inversion and a few products of real series by real FFTs.
    The states at the samples follow block by block, ``y_((j+1)S) = A^S
    y_(jS) + sum_i A^(S-1-i) b F_(jS+i)`` with ``S = sample_every``, in a
    scan that doubles the number of blocks folded in per pass.  The memory
    energy is ``xi^a (zeta v^2 - 2 v I + J)`` (see the module docstring)
    with ``J`` the same rule on ``v^2``, and the dissipation ``xi^a int g'
    |v(t) - v(t-s)|^2 ds`` is the same form for ``g'``, whose integral past
    the window is ``-g(s_m)``: one broadcast FFT product gives all of them
    at every step, read at the samples.  The rule is truncated where the
    pinch puts the kernel below 1e-14 of ``g(0)`` (see the module
    docstring).  A mode that is not coercive, or complex data, raise
    ``InvalidModelError``.
    """
    xi = float(xi)
    y0 = _real_data(y0)
    require_coercive(xi, coercivity_margin(xi, params, kernel.zeta) <= 0.0)
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
    # the trapezoid weights W over the window for g and g' and the far-end
    # halves C that a rule over the shorter [0, n*dt], n < window, takes back
    tables = np.stack([g_grid, kernel.g_prime(s_grid)])
    weights = dt * tables
    weights[:, [0, -1]] *= 0.5
    far = 0.5 * dt * tables[:, :window]

    amat = memoryless_generator(xi, params)
    eye = np.eye(4)
    lhs = np.linalg.inv(eye - 0.5 * dt * amat)
    rhs = eye + 0.5 * dt * amat
    # the memory force enters the velocity row: y_(n+1) = z + col*kappa*v_(n+1)
    # with z = lhs rhs y_n + col*F_n, so y_(n+1) = Q z, Q = I + gain e0^T
    col = lhs[:, 1] * dt * xi_a / (2.0 * params.rho)
    kappa = weights[0, 0]
    gain = col * kappa / (1.0 - col[0] * kappa)
    # A (``propagator``) stays in extended precision until its powers are
    # rounded: a rounded A would perturb every step alike, an error that grows
    # with the step count
    q = np.eye(4, dtype=np.longdouble)
    q[:, 0] += gain
    propagator = q @ lhs @ rhs
    b = (q @ col).astype(float)

    size = n_steps + 1
    rows = _powers(propagator.T, eye[0], size)
    r = rows @ b
    numerator = rows @ y0
    # (1+z) W - kappa and ((1+z) C - kappa)/z
    pull = np.convolve(weights[0], [1.0, 1.0])
    pull[0] = 0.0
    start = np.convolve(far[0], [1.0, 1.0])[1:]
    denominator = -_series_product(r, pull, size)
    denominator[0] = 1.0
    numerator[1:] -= y0[0] * _series_product(r, start, size - 1)
    v_hist = _series_product(numerator, _series_inverse(denominator, size), size)

    # the trapezoid history integrals I of v and J of v^2 at every step, for
    # g and for g' (shape (2, 2, size)), 0 at n = 0: W*x less x_0 C
    series = np.stack([v_hist, v_hist * v_hist])[:, None]
    integrals = _series_product(series, weights, size)
    integrals[..., :window] -= series[..., :1] * far
    integrals[..., 0] = 0.0
    conv = integrals[0, 0]
    force = conv[:-1] + conv[1:] - kappa * v_hist[1:]
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
    (hist, hist_prime), (sq, sq_prime) = integrals[..., sample_idx]
    v = samples[:, 0]
    v_sq = v * v
    # sum_j w_j (v - v_(n-j))^2 = v^2 sum_j w_j - 2 v I + J over the window,
    # and eta = v(t) beyond it, where int g = zeta - sum_j w_j and int g' =
    # -g(s_m), m = min(n, window); sum_j w'_j is the running sum of W' less
    # the far-end half
    mem = xi_a * (kernel.zeta * v_sq - 2.0 * v * hist + sq)
    m = np.minimum(sample_idx, window)
    mass_prime = np.cumsum(weights[1])
    mass_prime[:window] -= far[1]
    dissipation = xi_a * (v_sq * (mass_prime[m] - g_grid[m]) - 2.0 * v * hist_prime + sq_prime)
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
    "ModalTrajectories",
    "energy_trace",
    "evolve_general_kernel",
    "exact_modal_evolve",
    "marginal_data_amplitudes",
    "memory_energy_closed_form",
]
