import cmath
import math
import re
from fractions import Fraction

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


def test_hermite_explicit_against_exact_rational_values():
    # the exact H_m(x) by the recurrence over Fractions, at dyadic x, up to
    # the degree cap; the error scale of a sum of terms is the sum of their
    # moduli, |H_m(i |x|)|
    for m in range(41):
        for k in range(-48, 49):
            x = Fraction(k, 8)
            prev, cur = Fraction(1), x
            for j in range(1, m):
                prev, cur = cur, x * cur - j * prev
            want = cur if m else prev
            scale = max(1.0, abs(hermite(m, 1j * abs(float(x)))))
            assert abs(Fraction(hermite_explicit(m, float(x))) - want) <= 1e-15 * scale


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


# --- arrays, elementwise -----------------------------------------------------------

XS = np.linspace(-6.0, 6.0, 49)
ZS = (np.linspace(-5.0, 5.0, 9)[:, None] + 1j * np.linspace(-5.0, 5.0, 5)).ravel()
GRID = np.array([1.25 * (i + 1) / 8.0 * cmath.exp(2j * math.pi * j / 8)
                 for i in range(8) for j in range(8)])


def _each(fn, *args):
    """fn called once per element of its last argument, as an array."""
    *head, points = args
    return np.array([fn(*head, p) for p in points.tolist()])


def test_hermite_functions_on_a_real_array_equal_the_scalar_calls_exactly():
    for m in range(31):
        for fn in (hermite, hermite_explicit):
            assert (fn(m, XS) == _each(fn, m, XS)).all()
    for m in range(16):
        for a in (0.5, 1.0, 2.0, 1.3):
            want = _each(hermite_multiplication, m, a, XS)
            assert (hermite_multiplication(m, a, XS) == want).all()


def test_hermite_functions_on_a_complex_array_match_the_scalar_calls():
    # numpy's complex product rounds differently from Python's; the error
    # scale of a sum of terms is the sum of their moduli, |H_m(i |z|)|
    for m in range(31):
        scale = np.abs(hermite(m, 1j * np.abs(ZS)))
        for fn in (hermite, hermite_explicit):
            assert (np.abs(fn(m, ZS) - _each(fn, m, ZS)) <= 1e-14 * scale).all()


def test_cramer_and_log_gamma_on_an_array_match_the_scalar_calls():
    zs = np.array([r * cmath.exp(2j * math.pi * (j + 0.5) / 8)
                   for r in (1.0, 2.5, 5.0) for j in range(8)])
    for m in range(1, 31):
        for points in (XS, zs):
            want = _each(cramer_bound_margin, m, points)
            assert cramer_bound_margin(m, points) == pytest.approx(want, rel=1e-14, abs=0.0)
    zs = (np.linspace(0.25, 30.0, 12)[:, None] + 1j * np.linspace(-8.0, 8.0, 9)).ravel()
    assert complex_log_gamma(zs) == pytest.approx(_each(complex_log_gamma, zs), rel=1e-14,
                                                  abs=0.0)


def test_gamma_ratio_margin_on_an_array_matches_the_scalar_calls():
    # the margin subtracts from the bound e^(log Gamma(n + w) - log n!), so
    # one ulp of those logs, up to log n! ~ 364, moves it by ~1e-16 log n!
    # relative to the bound
    big_b = 3.0 * 1.75 * 1.75 * math.exp(1.5 * 1.75)
    for n in (5, 6, 17, 50, 100):
        got = gamma_ratio_margin(n, 1.0, 1.25, GRID)
        bound = big_b * n ** (GRID.real - 2.0)
        assert (np.abs(got - _each(gamma_ratio_margin, n, 1.0, 1.25, GRID))
                <= 1e-14 * math.lgamma(n + 1) * bound).all()


@pytest.mark.parametrize("call, message", [
    (lambda: hermite(-1, XS), "degree must be >= 0"),
    (lambda: hermite_explicit(-1, ZS), "degree must be >= 0"),
    (lambda: hermite_multiplication(-1, 2.0, XS), "degree must be >= 0"),
    (lambda: cramer_bound_margin(0, ZS), "degree must be >= 1"),
    (lambda: complex_log_gamma(np.array([1.0, 2.0 + 1j, -0.5 + 2.0j])),
     "complex_log_gamma needs Re(z) > 0"),
    (lambda: gamma_ratio_margin(10, 1.0, 1.25, np.append(GRID, 1.5)),
     "w must lie in the closed disc of radius rho"),
    (lambda: gamma_ratio_margin(3, 1.0, 1.25, GRID), "needs n >= 2 theta rho + 1 = 3.5"),
], ids=["hermite", "hermite_explicit", "hermite_multiplication", "cramer", "log_gamma",
        "ratio_disc", "ratio_n"])
def test_an_array_with_one_bad_element_is_refused_as_a_scalar_is(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: complex_log_gamma(math.nan), "z"),
    (lambda: complex_log_gamma(complex(math.inf, 1.0)), "z"),
    (lambda: complex_log_gamma(np.array([1.0, math.nan])), "z"),
    (lambda: cramer_bound_margin(3, math.nan), "z"),
    (lambda: cramer_bound_margin(3, np.array([1.0, complex(0.0, math.inf)])), "z"),
    (lambda: gamma_ratio_margin(10, math.nan, 1.0, 0.5), "theta"),
    (lambda: gamma_ratio_margin(10, 1.0, math.nan, 0.5), "rho"),
    (lambda: gamma_ratio_margin(10, 1.0, math.inf, 0.5), "rho"),
    (lambda: gamma_ratio_margin(10, 1.0, 1.25, math.nan), "w"),
    (lambda: gamma_ratio_margin(10, 1.0, 1.25, np.append(GRID, math.nan)), "w"),
])
def test_non_finite_arguments_are_refused_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        call()


def test_cramer_margin_is_infinite_where_the_bound_overflows():
    # e^(x^2/4) overflows past x ~ 53.3, where the inequality holds trivially
    assert cramer_bound_margin(3, 60.0) == math.inf
    assert cramer_bound_margin(3, 60.0j) == math.inf
    margins = cramer_bound_margin(3, np.array([0.0, 60.0, 1e200]))
    assert margins[0] == pytest.approx(math.sqrt(6.0), rel=1e-15)  # sqrt(3!) - |H_3(0)|
    assert margins[1:].tolist() == [math.inf, math.inf]
