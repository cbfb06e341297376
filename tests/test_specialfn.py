import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from modpoisson.specialfn import (_STIRLING_COEFFS, complex_log_gamma, cramer_bound_margin,
                                  gamma_ratio_margin, hermite,
                                  hermite_explicit, hermite_multiplication)


# --- Hermite ---------------------------------------------------------------------

def test_hermite_low_degrees():
    assert hermite(0, 0.7) == 1.0
    assert hermite(1, 0.7) == 0.7
    assert hermite(3, 2.0) == 2.0  # x^3 - 3x at x = 2


def test_hermite_parity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(0, 12))
        x = float(rng.uniform(-4.0, 4.0))
        assert hermite(m, -x) == pytest.approx((-1.0) ** m * hermite(m, x), rel=1e-12)


def test_hermite_explicit_small_cases():
    assert hermite_explicit(2, 1.5) == pytest.approx(1.5 ** 2 - 1.0)
    assert hermite_explicit(4, 0.0) == 3.0
    for m in (1, 3, 5, 7):
        assert hermite_explicit(m, 0.0) == 0.0


def test_hermite_explicit_degree_cap():
    with pytest.raises(ValueError):
        hermite_explicit(41, 1.0)


def test_hermite_recurrence_matches_explicit():
    pts = [complex(x, y) for x in np.linspace(-5, 5, 7) for y in np.linspace(-5, 5, 5)]
    for m in range(31):
        for z in pts:
            a, b = hermite(m, z), hermite_explicit(m, z)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_hermite_against_scipy():
    # scipy's eval_hermitenorm is an independent implementation
    for m in (2, 5, 9, 14):
        for x in np.linspace(-3.0, 3.0, 13):
            assert hermite(m, float(x)) == pytest.approx(
                float(sp.eval_hermitenorm(m, x)), rel=1e-10, abs=1e-10)


def test_multiplication_theorem_identity_scale_one():
    for m in range(10):
        x = 1.3
        assert hermite_multiplication(m, 1.0, x) == pytest.approx(
            hermite(m, x), rel=1e-12)


def test_multiplication_theorem_degree_two():
    for a in (0.5, 2.0):
        for x in (-1.2, 0.4, 3.0):
            assert hermite_multiplication(2, a, x) == pytest.approx(
                a * a * x * x - 1.0, rel=1e-12)


def test_multiplication_theorem_identity_grid():
    for m in range(16):
        for a in (0.5, 2.0):
            for x in np.linspace(-4.0, 4.0, 9):
                lhs = hermite(m, a * float(x))
                rhs = hermite_multiplication(m, a, float(x))
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_cramer_margin_simple():
    assert cramer_bound_margin(1, 0.0) == 1.0


def test_cramer_margins_nonnegative():
    for m in range(1, 31):
        for x in np.linspace(-10.0, 10.0, 21):
            assert cramer_bound_margin(m, float(x)) >= 0.0
    for m in range(1, 21):
        for radius in (0.5, 2.0, 5.0):
            for j in range(6):
                z = radius * cmath.exp(2j * math.pi * (j + 0.3) / 6.0)
                assert cramer_bound_margin(m, z) >= 0.0


# --- complex log gamma --------------------------------------------------------------

def test_stirling_coefficients_are_the_series_literals():
    # B_2k / (2k (2k-1)), k = 1..8 (DLMF 5.11.1), written out as fractions
    assert _STIRLING_COEFFS == (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
                                1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0,
                                -3617.0 / 122400.0)


def test_log_gamma_integers():
    assert abs(complex_log_gamma(1.0)) < 1e-10  # Gamma(2) = 1
    assert abs(complex_log_gamma(4.0) - math.log(24.0)) < 1e-10  # Gamma(5) = 24


def test_log_gamma_half_integer():
    # Gamma(3/2) = sqrt(pi)/2
    want = math.log(math.sqrt(math.pi) / 2.0)
    assert abs(complex_log_gamma(0.5) - want) < 1e-10


def test_log_gamma_rejects_left_half_plane():
    with pytest.raises(ValueError):
        complex_log_gamma(-0.5 + 2.0j)


def test_log_gamma_recurrence():
    for re in np.linspace(1.25, 10.0, 6):
        for im in np.linspace(-5.0, 5.0, 5):
            z = complex(re, im)
            resid = complex_log_gamma(z) - cmath.log(z) - complex_log_gamma(z - 1.0)
            assert abs(resid) < 1e-10


def test_log_gamma_against_scipy():
    rng = np.random.default_rng(9)
    for _ in range(40):
        z = complex(rng.uniform(0.2, 40.0), rng.uniform(-8.0, 8.0))
        assert abs(complex_log_gamma(z) - sp.loggamma(z + 1.0)) < 1e-12


# --- the ratio estimate ----------------------------------------------------------------

def test_gamma_ratio_exact_cancellation_at_w_one():
    # Gamma(n+1)/n! = 1 = n^0, so the margin is the full B/n
    for n in (5, 20, 100):
        half = 1.0 * 1.25 + 0.5
        big_b = 3.0 * half * half * math.exp(1.5 * half)
        margin = gamma_ratio_margin(n, 1.0, 1.25, 1.0)
        assert margin == pytest.approx(big_b / n ** 2 * n, rel=1e-6)


def test_gamma_ratio_margin_nonnegative_on_disc():
    for n in (5, 9, 33, 100):
        for i in range(4):
            for j in range(8):
                w = 1.25 * (i + 1) / 4.0 * cmath.exp(2j * math.pi * j / 8.0)
                assert gamma_ratio_margin(n, 1.0, 1.25, w) >= 0.0


def test_gamma_ratio_precondition():
    with pytest.raises(ValueError):
        gamma_ratio_margin(3, 1.0, 1.25, 1.0)  # 3 < 2 theta rho + 1 = 3.5
    with pytest.raises(ValueError):
        gamma_ratio_margin(10, 1.0, 1.25, 1.5)  # |w| > rho
