import dataclasses
import math

import numpy as np
import pytest

from helpers import P0, draw_validated, p0_with_a, square_grid, xi_grid
from memwave.model import InvalidModelError, ModelParams
from memwave.spectral import (
    AsymptoticConstants,
    StabilityViolationError,
    asymptotic_eigenvalues,
    cardano_cubic_roots,
    cubic_coeffs,
    eigvec,
    modal_generator,
    quintic_coeffs,
    quintic_roots,
    sharpness_limit,
    sharpness_product,
    spectrum_columns,
    strip_check,
)

DELTA = 1.0


def branch_at(xi, params=P0, delta=DELTA):
    return quintic_roots(xi, params, delta)


def test_quintic_coefficients_reference():
    coeffs = quintic_coeffs(square_grid(3).xi_of(1), P0, DELTA)
    assert coeffs == pytest.approx([1.0, 1.0, 3.0, 2.0, 1.75, 0.75], abs=1e-14)


def test_quintic_lambda4_coefficient_is_delta():
    rng = np.random.default_rng(5)
    for _ in range(5):
        params, kernel = draw_validated(rng)
        coeffs = quintic_coeffs(float(rng.uniform(1, 1e6)), params, kernel.delta)
        assert coeffs[0] == 1.0
        assert coeffs[1] == kernel.delta


def test_quintic_lambda2_coefficient_at_zero_order():
    params = p0_with_a(0.0)
    xi = 37.0
    coeffs = quintic_coeffs(xi, params, DELTA)
    s_sum = params.beta / params.mu + params.alpha / params.rho
    assert coeffs[3] == pytest.approx(s_sum * DELTA * xi - 1.0)


def test_asymptotic_constants_identities():
    rng = np.random.default_rng(9)
    for _ in range(20):
        params, _ = draw_validated(rng)
        c = AsymptoticConstants.from_params(params)
        s_sum = params.beta / params.mu + params.alpha / params.rho
        p_prod = params.alpha1 * params.beta / (params.rho * params.mu)
        assert 0.0 < c.m1 < c.m2
        assert c.m1 + c.m2 == pytest.approx(s_sum, rel=1e-12)
        assert c.m1 * c.m2 == pytest.approx(p_prod, rel=1e-12)
        assert c.mhat1 + c.mhat2 == pytest.approx(1.0, rel=1e-12)
        assert 0.0 < c.mhat1 < 1.0 and 0.0 < c.mhat2 < 1.0


def test_equal_wave_speeds_are_rejected():
    # gamma^2*beta = 1e-18 is lost in alpha1 = alpha - gamma^2*beta, so the
    # discriminant (beta/mu + alpha/rho)^2 - 4*alpha1*beta/(rho*mu) cancels to 0
    params = ModelParams(rho=1.0, mu=1.0, alpha=1.0, beta=1.0, gamma=1e-9, a=0.5)
    with pytest.raises(InvalidModelError, match="wave-speed discriminant must be positive, got 0;"):
        AsymptoticConstants.from_params(params)


def test_roots_reference_values_at_xi_1e4():
    # frozen from an independent high-precision solve (mpmath, 40 digits)
    br = branch_at(1e4)
    assert br.root_sum().real == pytest.approx(-DELTA, abs=1e-10)
    assert br.lambda0.real == pytest.approx(-0.9942861177, abs=1e-9)
    lam1 = br.lam(1, +1)
    assert lam1.real == pytest.approx(-9.233805286e-4, rel=1e-8)
    assert lam1.imag == pytest.approx(89.0445414109, rel=1e-10)
    lam2 = br.lam(2, +1)
    assert lam2.real == pytest.approx(-1.933560591e-3, rel=1e-8)
    assert lam2.imag == pytest.approx(148.5633331290, rel=1e-10)


def test_roots_match_high_precision_oracle():
    import mpmath

    mpmath.mp.dps = 40
    for xi in (1.0, 1e2, 1e6):
        coeffs = quintic_coeffs(xi, P0, DELTA)
        exact = mpmath.polyroots([mpmath.mpf(c) for c in coeffs], maxsteps=200)
        got = sorted(branch_at(xi).roots, key=lambda z: (round(z.imag, 6), z.real))
        want = sorted(
            (complex(z) for z in exact), key=lambda z: (round(z.imag, 6), z.real)
        )
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-11 * max(1.0, abs(w))


def test_stacked_roots_label_degenerate_rows_by_nearest_seed():
    # xi < 0.028 has no one-real-plus-two-pairs structure at these parameters
    xi = np.array([1e-3, 0.01, 1.0, 1e4])
    br = quintic_roots(xi, P0, DELTA)
    assert br.roots.shape == br.residuals.shape == (4, 5)
    assert br.degenerate.tolist() == [True, True, False, False]
    for i, x in enumerate(xi):
        row = list(br.roots[i])
        # a permutation of np.roots, to 1e-12 relative
        remaining = list(np.roots(quintic_coeffs(x, P0, DELTA)))
        for z in row:
            j = int(np.argmin([abs(z - w) for w in remaining]))
            assert abs(z - remaining.pop(j)) <= 1e-12 * abs(z)
        if br.degenerate[i]:
            # greedy: each asymptotic seed in label order takes the nearest
            # root not yet taken
            remaining = list(row)
            expected = []
            for seed in asymptotic_eigenvalues(x, P0, DELTA):
                expected.append(remaining.pop(int(np.argmin([abs(z - seed) for z in remaining]))))
            assert row == expected
        single = quintic_roots(x, P0, DELTA)
        assert np.array_equal(single.roots, br.roots[i])
        assert np.array_equal(single.residuals, br.residuals[i])
        assert single.degenerate == br.degenerate[i]


def test_roots_conjugate_closed():
    br = branch_at(1e4)
    for j in (1, 2):
        assert br.lam(j, -1) == br.lam(j, +1).conjugate()


def test_root_sum_across_scales():
    for xi in (1.0, 1e2, 1e4, 1e6, 1e8):
        br = branch_at(xi)
        assert abs(br.root_sum() + DELTA) <= 1e-10


def test_cardano_matches_companion_roots():
    for xi in np.geomspace(1.0, 1e8, 17):
        for j in (1, 2):
            cardano, inter = cardano_cubic_roots(float(xi), j, P0, DELTA)
            companion = np.roots(cubic_coeffs(float(xi), j, P0, DELTA))
            key = lambda z: (round(z.imag, 8), z.real)
            for c_root, n_root in zip(sorted(cardano, key=key), sorted(companion, key=key)):
                assert abs(c_root - n_root) <= 1e-9 * max(1.0, abs(n_root))
            assert not inter.trigonometric


def test_cardano_reference_values():
    roots, inter = cardano_cubic_roots(1e4, 1, P0, DELTA)
    real = [z for z in roots if abs(z.imag) < 1e-9][0]
    pair = [z for z in roots if z.imag > 0][0]
    assert real.real == pytest.approx(-0.99815330, abs=1e-7)
    assert pair.real == pytest.approx(-9.2335e-4, rel=1e-4)
    assert pair.imag == pytest.approx(89.0445, rel=1e-5)
    assert inter.Lambda == pytest.approx((inter.q_hat / 2) ** 2 + (inter.p_hat / 3) ** 3)
    assert inter.Phi_plus == pytest.approx(-inter.q_hat / 2 + math.sqrt(inter.Lambda))


def test_cardano_root_sum_is_minus_delta():
    for xi in (1.0, 1e3, 1e7):
        for j in (1, 2):
            roots, _ = cardano_cubic_roots(float(xi), j, P0, DELTA)
            assert complex(np.sum(roots)).real == pytest.approx(-DELTA, abs=1e-9)
            assert abs(complex(np.sum(roots)).imag) <= 1e-9


def test_cardano_trigonometric_fallback():
    # small xi pushes the discriminant combination negative: three real roots
    roots, inter = cardano_cubic_roots(0.01, 1, P0, DELTA)
    assert inter.trigonometric
    assert np.all(np.abs(roots.imag) < 1e-12)
    companion = np.sort(np.roots(cubic_coeffs(0.01, 1, P0, DELTA)).real)
    assert np.sort(roots.real) == pytest.approx(companion, rel=1e-9)


def test_asymptotic_reference_values():
    vals = asymptotic_eigenvalues(xi_grid(1e4).xi_of(1), P0, DELTA)
    assert vals[0].real == pytest.approx(-0.99428571428, abs=1e-10)
    c = AsymptoticConstants.from_params(P0)
    # direct evaluation: real part -mhat/(2*rho*m) * xi^(a-1), imag sqrt(m*xi)
    assert vals[1].real == pytest.approx(-c.mhat1 / (2 * c.m1) * 1e-2, rel=1e-12)
    assert vals[3].real == pytest.approx(-c.mhat2 / (2 * c.m2) * 1e-2, rel=1e-12)
    assert vals[3].imag == pytest.approx(math.sqrt(c.m2 * 1e4), rel=1e-12)
    assert vals[3].imag == pytest.approx(148.56334, rel=1e-6)


def test_asymptotic_real_parts_sum_matches_real_branch_drift():
    # the five roots sum to -delta, so the pair real parts must absorb the
    # real branch drift xi^(a-1)/alpha1: mhat1/m1 + mhat2/m2 = rho/alpha1
    rng = np.random.default_rng(17)
    for _ in range(10):
        params, _ = draw_validated(rng)
        c = AsymptoticConstants.from_params(params)
        assert c.mhat1 / c.m1 + c.mhat2 / c.m2 == pytest.approx(
            params.rho / params.alpha1, rel=1e-12
        )


def test_branch_error_decay_orders_reference():
    xis = np.geomspace(1e3, 1e7, 9)
    errs = {0: [], 1: [], 2: []}
    for xi in xis:
        br = branch_at(float(xi))
        asym = asymptotic_eigenvalues(float(xi), P0, DELTA)
        errs[0].append(abs(br.lambda0 - asym[0]))
        errs[1].append(abs(br.lam(1, +1) - asym[1]))
        errs[2].append(abs(br.lam(2, +1) - asym[3]))
    lx = np.log(xis)
    slope0 = np.polyfit(lx, np.log(errs[0]), 1)[0]
    assert slope0 == pytest.approx(-(2.0 - P0.a), abs=0.15)
    for j in (1, 2):
        slope = np.polyfit(lx, np.log(errs[j]), 1)[0]
        assert slope == pytest.approx(-(1.5 - P0.a), abs=0.15)


def test_sharpness_product_converges_to_limit():
    br = branch_at(1e8)
    for j in (1, 2):
        assert sharpness_product(br, j, P0.a) == pytest.approx(
            sharpness_limit(P0, j), rel=2e-3
        )


def test_sharpness_limit_zero_order_is_half_weight():
    params = p0_with_a(0.0)
    c = AsymptoticConstants.from_params(params)
    assert sharpness_limit(params, 1) == pytest.approx(c.mhat1 / 2.0)
    assert sharpness_limit(params, 2) == pytest.approx(c.mhat2 / 2.0)


def test_strip_classification():
    br = branch_at(1e4)
    report = strip_check(br, DELTA)
    excluded = dict(report.excluded)
    admissible = dict(report.admissible)
    assert "0" in excluded and excluded["0"].real < -DELTA / 2
    assert set(admissible) == {"1+", "1-", "2+", "2-"}
    for root in admissible.values():
        assert -DELTA / 2 < root.real < 0.0


def test_strip_rejects_unstable_root():
    br = branch_at(1e2)
    fake = dataclasses.replace(br, roots=np.concatenate([[0.1 + 0j], br.roots[1:]]))
    with pytest.raises(StabilityViolationError):
        strip_check(fake, DELTA)


def test_modal_generator_charpoly_matches_quintic_exactly():
    import sympy

    # rational parameter draws with a in {0, 1/2} and square xi keep xi^a exact
    cases = [
        (dict(rho="1", mu="1", alpha="2", beta="1", gamma="1/2", a=0.5), "4", "1"),
        (dict(rho="2", mu="1/2", alpha="3", beta="5/4", gamma="3/4", a=0.5), "9/4", "3/2"),
        (dict(rho="3/2", mu="2", alpha="7/2", beta="1", gamma="1/2", a=0.0), "7/3", "5/4"),
    ]
    for raw, xi_str, delta_str in cases:
        xi_q = sympy.Rational(xi_str)
        delta_q = sympy.Rational(delta_str)
        vals = {key: sympy.Rational(val) for key, val in raw.items() if key != "a"}
        a_val = raw["a"]
        xia = sympy.sqrt(xi_q) if a_val == 0.5 else sympy.Integer(1)
        gen = sympy.Matrix(
            [
                [0, 1, 0, 0, 0],
                [-vals["alpha"] * xi_q / vals["rho"], 0, vals["gamma"] * vals["beta"] * xi_q / vals["rho"], 0, xia / vals["rho"]],
                [0, 0, 0, 1, 0],
                [vals["gamma"] * vals["beta"] * xi_q / vals["mu"], 0, -vals["beta"] * xi_q / vals["mu"], 0, 0],
                [1, 0, 0, 0, -delta_q],
            ]
        )
        lam = sympy.symbols("lam")
        exact = sympy.Poly(gen.charpoly(lam).as_expr(), lam).all_coeffs()
        params = ModelParams(
            rho=float(vals["rho"]),
            mu=float(vals["mu"]),
            alpha=float(vals["alpha"]),
            beta=float(vals["beta"]),
            gamma=float(vals["gamma"]),
            a=a_val,
        )
        coeffs = quintic_coeffs(float(xi_q), params, float(delta_q))
        for got, want in zip(coeffs, exact):
            want_f = float(want)
            assert abs(got - want_f) <= 1e-10 * max(1.0, abs(want_f))


def test_modal_generator_numeric_charpoly_and_trace():
    grid = square_grid(5)
    gen = modal_generator(grid.xi_of(3), P0, DELTA)
    assert np.trace(gen) == pytest.approx(-DELTA)
    got = np.poly(gen)
    want = quintic_coeffs(grid.xi_of(3), P0, DELTA)
    assert got == pytest.approx(want, rel=1e-10)


def test_modal_generator_memory_entry_at_zero_order():
    gen = modal_generator(square_grid(3).xi_of(2), p0_with_a(0.0), DELTA)
    assert gen[1, 4] == pytest.approx(1.0 / P0.rho)


def test_eigvec_satisfies_generator():
    grid = square_grid(3)
    gen = modal_generator(grid.xi_of(2), P0, DELTA)
    br = quintic_roots(grid.xi_of(2), P0, DELTA)
    for lam in br.roots:
        vec = eigvec(lam, grid.xi_of(2), P0, DELTA)
        assert np.linalg.norm(gen @ vec - lam * vec) <= 1e-9 * np.linalg.norm(vec)


def test_spectrum_rows_shape_and_vieta_column():
    columns = spectrum_columns(P0, DELTA, square_grid(12).xi)
    assert {col.shape for col in columns.values()} == {(12,)}
    assert columns["root_sum"] == pytest.approx(np.full(12, -DELTA), abs=1e-10)
    assert np.all(columns["sharpness1"] > 0.0)
