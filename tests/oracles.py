"""Independent reference computations that the tests check the package
against; no command runs them.

* ``cardano_cubic_roots``: each oscillatory branch's cubic solved in closed
  form, against the companion-matrix roots (acceptance criterion 2);
* ``strip_check``: the labelled roots of one mode against the admissibility
  strip ``-delta/2 < Re lam < 0`` (acceptance criterion 5);
* ``superposition_oracle``: the energy norm by brute-force modal
  superposition, against the decay fit and the exact trace (acceptance
  criterion 8);
* ``static_solve``: the static problem ``0 in rho(A)`` solved on the block the
  sweep SVDs and applied back through the physical generator (acceptance
  criterion 9);
* ``five_term_trace``: the exact energy trace of a stack of trajectories in
  complex arithmetic over all five exponential terms, against the real pair
  coordinates of ``timedomain.energy_trace``;
* ``memory_energy_quadrature``: the memory energy of one mode by composite
  Gauss-Legendre quadrature over states from the matrix exponential of its
  generator, against the closed form and the matrix form of
  ``timedomain.energy_trace``;
* ``config_accepted``: whether a run configuration is valid under the JSON
  Schema ``SCHEMA`` and holds only finite numbers, against the key table of
  ``memwave.config``.

Each reads only the ``memwave`` names that ``test_names.ORACLE_READS`` pins
for it: the model constants and types, the mode's generator for
``memory_energy_quadrature``, and for ``static_solve`` the block it checks
and the public builders it checks it with.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import jsonschema
import numpy as np
import scipy.linalg as sla

from memwave.model import ModelParams, coercivity_margin, energy_parts, memoryless_generator
from memwave.resolvent import LaguerreGrid, energy_congruence, mode_block
from memwave.spectral import AsymptoticConstants, SpectrumBranch, modal_generator

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
# spectral strip
# ---------------------------------------------------------------------------


class StabilityViolationError(RuntimeError):
    """A characteristic root with nonnegative real part was found."""


# labels of the five roots, in the order of ``SpectrumBranch.roots``
_ROOT_LABELS = ("0", "1+", "1-", "2+", "2-")


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
# superposition oracle
# ---------------------------------------------------------------------------


def _stable_exp_integral(z: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    # (exp(w t) - exp((w - z) t)) / z, limit t*exp(w t); a pairwise form that
    # shares no arithmetic with the factored closed form in timedomain
    zt = z * t
    small = np.abs(zt) < 1e-8
    z_safe = np.where(small, 1.0, z)
    series = t * np.exp(w * t) * (1.0 - zt / 2.0 + zt**2 / 6.0)
    return np.where(small, series, (np.exp(w * t) - np.exp((w - z) * t)) / z_safe)


def superposition_oracle(
    xi,
    amplitudes,
    eigenvalues,
    params: ModelParams,
    delta: float,
    times,
) -> np.ndarray:
    """Predicted energy norm ``||X(t)||`` from the modes ``xi`` and their
    ``(modes, 5)`` v-amplitudes and eigenvalues, by direct summation, for
    the kernel ``exp(-delta*s)``.

    Everything is rebuilt from the amplitudes of ``v`` alone: velocities are
    termwise derivatives, the second displacement comes from the coupling
    relation ``p_i = gamma*beta*xi/(mu*lam_i^2 + beta*xi) * v_i``, and the
    memory integral is summed over every pair of exponential terms.  Modes
    run along the first axis, terms along the next one or two and times along
    the last.  No shared code with the trace pipeline beyond the model
    constants.
    """
    t = np.asarray(times, dtype=float)
    xi = np.asarray(xi, dtype=float)[:, None]
    amps = np.asarray(amplitudes, dtype=complex)
    lams = np.asarray(eigenvalues, dtype=complex)
    phi = params.gamma * params.beta * xi / (params.mu * lams * lams + params.beta * xi)
    terms = amps[:, :, None] * np.exp(lams[:, :, None] * t)
    v = terms.sum(axis=1)
    u = (lams[:, :, None] * terms).sum(axis=1)
    p = (phi[:, :, None] * terms).sum(axis=1)
    q = ((phi * lams)[:, :, None] * terms).sum(axis=1)
    acc = (params.alpha1 * xi - 1.0 / delta * xi**params.a) * np.abs(v) ** 2
    acc += params.rho * np.abs(u) ** 2
    acc += params.beta * xi * np.abs(params.gamma * v - p) ** 2
    acc += params.mu * np.abs(q) ** 2
    # pair (i, j) on axes 1 and 2, time on axis 3
    lam_i = lams[:, :, None, None]
    lam_j = lams.conj()[:, None, :, None]
    w = lam_i + lam_j
    pair = amps[:, :, None, None] * amps.conj()[:, None, :, None]
    inner = (
        _stable_exp_integral(delta + 0j, w, t)
        - _stable_exp_integral(delta + lam_i, w, t)
        - _stable_exp_integral(delta + lam_j, w, t)
        + _stable_exp_integral(delta + w, w, t)
    )
    recent = (pair * inner).real.sum(axis=(1, 2))
    acc += xi**params.a * (recent + np.abs(v) ** 2 * np.exp(-delta * t) / delta)
    return np.sqrt(acc.sum(axis=0))


# ---------------------------------------------------------------------------
# exact trace over all five complex terms
# ---------------------------------------------------------------------------

# ``|c|*t_max`` below which a term of the memory energy is taken whole
_SPLIT_GUARD = 1.0


def _integral(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``E(c) = int_0^t exp(-c*s) ds`` for exponents ``c`` (one per row) and
    times ``t``, by a complex ``expm1``."""
    x = np.multiply.outer(c.astype(complex), t)
    ratio = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0)
    return t * ratio


def five_term_trace(trajs, times) -> np.ndarray:
    """Stiffness, kinetic-v, coupling, kinetic-p and memory parts of the
    exact energy trace of a stack of trajectories without dense modes, summed
    over the modes, shape ``(5,) + times.shape``.

    Every step runs in complex arithmetic over all five terms ``f_i =
    a_i*exp(lam_i*t)``, with one ``exp`` per root: the states ``V f`` feed
    ``energy_parts``, and the memory energy is the split closed form

        |v|^2/delta - 2 Re(conj(v) sum_i (f_i - a_i e^(-delta*t))/(delta + lam_i))
            + sum_ij (f_i conj(f_j) - a_i conj(a_j) e^(-delta*t))/c_ij,

    ``c_ij = delta + lam_i + conj(lam_j)``, with each term whose exponent
    times ``t_max`` is below ``_SPLIT_GUARD`` in modulus taken whole as
    ``f E(c)``.  It reads the trajectories' arrays only, not their methods.
    """
    t = np.asarray(times, dtype=float)
    tt = t.reshape(-1)
    amps, lams, delta = trajs.amplitudes, trajs.eigenvalues, trajs.delta
    params = trajs.params
    f = amps[:, :, None] * np.exp(np.multiply.outer(lams, tt))
    states = trajs.eigvecs @ f
    parts = energy_parts(*states.swapaxes(0, 1)[:4], trajs.xi[:, None], params, 1.0 / delta)

    v = f.sum(axis=1)
    decay = np.exp(-delta * tt)
    t_max = np.max(tt, initial=0.0)
    z = delta + lams
    guard = np.abs(z) * t_max < _SPLIT_GUARD
    inv_z = np.divide(1.0, z, out=np.zeros_like(z), where=~guard)
    single = np.einsum("nit,ni->nt", f, inv_z) - (amps * inv_z).sum(axis=1)[:, None] * decay
    m, i = np.nonzero(guard)
    np.add.at(single, m, f[m, i] * _integral(z[m, i], tt))
    c = delta + lams[:, :, None] + lams.conj()[:, None, :]
    guard = np.abs(c) * t_max < _SPLIT_GUARD
    inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=~guard)
    pair = (f * (inv_c @ f.conj())).sum(axis=1).real
    pair -= np.einsum("ni,nij,nj->n", amps, inv_c, amps.conj()).real[:, None] * decay
    m, i, j = np.nonzero(guard)
    np.add.at(pair, m, (f[m, i] * f[m, j].conj() * _integral(c[m, i, j], tt)).real)
    memory = np.abs(v) ** 2 / delta - 2.0 * (v.conj() * single).real + pair
    memory *= (trajs.xi ** params.a)[:, None]
    return np.stack([np.sum(part, axis=0) for part in (*parts, memory)]).reshape((5,) + t.shape)


def memory_energy_quadrature(traj, t: float) -> float:
    """``xi^a * int_0^inf exp(-delta*s) |v(t) - v(t-s)|^2 ds`` for a one-mode
    stack: composite Gauss-Legendre quadrature of the recent part plus the
    closed-form remote part, over states ``expm(G s) x0`` of the mode's
    generator ``G`` (``modal_generator``).  It reads the trajectory's
    ``xi``, ``x0`` and roots, not its amplitudes or methods.

    The integrand ``e^(-delta*s) |v(t) - v(t-s)|^2`` oscillates and decays no
    faster than ``rate = 2*max|lam| + delta``, so the panels are at most
    ``2*pi/rate`` long with 16 nodes each.  The node states are those of the
    earliest panel, one matrix exponential per node, stepped forward by
    ``expm(G*h)``, one panel length ``h`` at a time.  The recent part is
    integrated over ``[0, s0]``, ``s0 = min(t, log(1/eps)/delta)``.  The energy
    does not increase and its stiffness part is ``xi*m*|v|^2`` with the
    coercivity margin ``m = alpha1 - xi^(a-1)/delta``, so ``|v|^2 <=
    E(0)/(xi*m)`` along the whole trajectory and the part over ``[s0, t]`` is
    at most ``(2/delta) e^(-delta*s0) (|v(t)|^2 + E(0)/(xi*m))`` (infinite
    where ``m <= 0``).  Where that bound exceeds ``eps`` times the memory
    computed so far, ``s0`` moves right until it does not (or reaches ``t``).
    """
    if len(traj) != 1:
        raise ValueError(f"memory_energy_quadrature takes one mode, got {len(traj)}")
    params = traj.params
    delta = traj.delta
    xi = float(traj.xi[0])
    x0 = traj.x0[0]
    eps = np.finfo(float).eps
    generator = modal_generator(xi, params, delta)

    def states(times):
        return np.stack([sla.expm(generator * s) @ x0 for s in times], axis=-1)

    v_t = complex(states([t])[0, 0])
    gx, gw = np.polynomial.legendre.leggauss(16)
    panel = 2.0 * math.pi / (2.0 * float(np.max(np.abs(traj.eigenvalues))) + delta)

    def recent(s0: float) -> float:
        n_panels = max(1, math.ceil(s0 / panel))
        h = s0 / n_panels
        offsets = 0.5 * h * (1.0 + gx)
        step = sla.expm(generator * h)
        # panel j, counted from the earliest, holds the states at t - s0 + j*h + offsets
        x = states(t - s0 + offsets)
        v = np.empty((n_panels, gx.size), dtype=complex)
        for j in range(n_panels):
            v[j] = x[0]
            x = step @ x
        s = s0 - h * np.arange(n_panels)[:, None] - offsets
        return float(np.sum(0.5 * h * gw * np.exp(-delta * s) * np.abs(v_t - v) ** 2))

    # remote part: v(t - s) = 0 for s > t, the mode being at rest before t = 0
    outside = math.exp(-delta * t) * (abs(v_t) ** 2 / delta)
    s0 = min(t, math.log(1.0 / eps) / delta)
    inside = recent(s0)
    margin = coercivity_margin(xi, params, 1.0 / delta)
    if s0 < t:
        e0 = sum(energy_parts(*x0[:4], xi, params, 1.0 / delta))
        e0 += xi**params.a * (abs(x0[0]) ** 2 / delta)
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


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["params", "kernel", "grid"],
    "properties": {
        "params": {
            "type": "object",
            "additionalProperties": False,
            "required": ["rho", "mu", "alpha", "beta", "gamma", "a"],
            "properties": {
                "rho": _POSITIVE,
                "mu": _POSITIVE,
                "alpha": _POSITIVE,
                "beta": _POSITIVE,
                "gamma": _POSITIVE,
                "a": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            },
        },
        "kernel": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "delta"],
                    "properties": {
                        "type": {"const": "exponential"},
                        "delta": _POSITIVE,
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "s", "g", "k0", "k1"],
                    "properties": {
                        "type": {"const": "tabulated"},
                        "s": {"type": "array", "minItems": 3},
                        "g": {"type": "array", "minItems": 3},
                        "k0": _POSITIVE,
                        "k1": _POSITIVE,
                    },
                },
            ]
        },
        "grid": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "length", "count"],
                    "properties": {
                        "type": {"const": "dirichlet_laplacian"},
                        "length": _POSITIVE,
                        "count": {"type": "integer", "minimum": 1},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "xi"],
                    "properties": {
                        "type": {"const": "explicit"},
                        "xi": {"type": "array", "minItems": 1},
                    },
                },
            ]
        },
        "out": {"type": "string"},
        "spectrum": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"modes": {"type": "integer", "minimum": 1}},
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "M": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                    "uniqueItems": True,
                },
                "tau_lo": _POSITIVE,
                "tau_hi": _POSITIVE,
                "per_decade": {"type": "integer", "minimum": 2},
                "resonances_per_branch": {"type": "integer", "minimum": 0},
            },
        },
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "data": {"enum": ["single", "marginal"]},
                "k": {"type": "integer", "minimum": 1},
                "n_modes": {"type": "integer", "minimum": 1},
                "v0": {"type": "number"},
                "integrator": {"enum": ["exact", "general"]},
                "t_lo": {"type": "number", "minimum": 0},
                "t_hi": _POSITIVE,
                "n_times": {"type": "integer", "minimum": 3},
                "spacing": {"enum": ["log", "linear"]},
                "dt": _POSITIVE,
                "sample_every": {"type": "integer", "minimum": 1},
            },
        },
        "fit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trace": {"type": "string"},
                "window": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        },
        "verdict": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "xi_probes": {"type": "array", "items": _POSITIVE, "minItems": 2},
            },
        },
    },
}

# Two stated exceptions to the JSON Schema of a run configuration: sweep.M
# takes each value once ("uniqueItems" above), and an "integer" is an int, a
# number written without a fraction or an exponent, where JSON Schema takes
# any integral number, 1.0 too: the commands use integers as counts and indices
_DRAFT = jsonschema.validators.validator_for(SCHEMA)
_VALIDATOR = jsonschema.validators.extend(
    _DRAFT, type_checker=_DRAFT.TYPE_CHECKER.redefine("integer", lambda checker, x: type(x) is int)
)(SCHEMA)


def _finite_numbers(node) -> bool:
    """Whether every number in ``node`` is finite and every array item a
    number: ``SCHEMA`` bounds numbers but lets NaN pass, and gives the sample
    arrays (kernel ``s`` and ``g``, grid ``xi``) no item type."""
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(type(v) in (int, float) and _finite_numbers(v) for v in node)
    return type(node) not in (int, float) or abs(node) <= sys.float_info.max


def config_accepted(raw) -> bool:
    """Whether jsonschema accepts the parsed config ``raw`` under ``SCHEMA``,
    with an integer an int, and every number in it is finite."""
    return _VALIDATOR.is_valid(raw) and _finite_numbers(raw)
