import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoisson import schemes
from modpoisson.metrics import total_variation
from modpoisson.schemes import (SignedMeasure, charlier_delta, derived_scheme,
                                expect_via_scheme, poisson_pmf,
                                rectify_positive, scheme_measure,
                                scheme_measures)
from modpoisson.symfunc import (Alphabet, ResidueCoeffs, residue_coeffs,
                                residue_series_eval)
from oracles import mp_poisson_masses, mp_poisson_tails, reference_rectify_positive


def decaying_coeffs(r, sigma2=1.0, sign=-1.0, scale=0.8):
    """Admissible coefficient vectors |b_s| <= (e sigma2 / s)^(s/2)."""
    return tuple(scale * sign ** s * (math.e * sigma2 / s) ** (s / 2.0)
                 for s in range(1, r + 1))


# --- Poisson base ---------------------------------------------------------------

def test_poisson_tiny_rate_is_nearly_delta0():
    pmf = poisson_pmf(1e-12)
    assert pmf.offset == 0
    assert abs(pmf.masses[0] - 1.0) < 1e-11


def test_poisson_mass_at_zero():
    assert poisson_pmf(1.0).masses[0] == pytest.approx(math.exp(-1.0), abs=1e-16)


def test_poisson_moments_at_50():
    pmf = poisson_pmf(50.0)
    assert pmf.mean() == pytest.approx(50.0, abs=1e-9)
    assert pmf.variance() == pytest.approx(50.0, abs=1e-9)


def test_poisson_truncation_contract():
    for lam in (0.5, 5.0, 50.0, 100.0, 1e3, 1e5):
        pmf = poisson_pmf(lam)
        first_k, last_k = pmf.offset, pmf.offset + len(pmf.masses) - 1
        ratio = lam / (last_k + 1.0)
        assert pmf.masses[-1] < 1e-18
        assert pmf.masses[-1] * ratio / (1.0 - ratio) < 1e-15  # analytic upper tail
        if first_k > 0:
            ratio = first_k / lam
            assert pmf.masses[0] < 1e-18
            assert pmf.masses[0] * ratio / (1.0 - ratio) < 1e-15  # analytic lower tail
        assert (first_k > 0) == (lam > 41.5)  # exp(-lam) < 1e-18 from lam = 41.45
        assert abs(pmf.total - 1.0) < 1e-13  # float-level residual only


@pytest.mark.parametrize("lam", [0.5, 1.0, 7.0, 10.0, 50.0, 1e3, 1e4, 1e5, 2e5, 1e6, 1e7])
def test_poisson_trims_leading_underflow_and_keeps_every_mass(lam):
    # the leading masses (underflow, and more from lam = 41.45 on) and the
    # trailing ones are each dropped only while their 50-digit sum is below
    # 1e-15, and every mass kept is within 1e-13 of its 50-digit value
    pmf = poisson_pmf(lam)
    exact = mp_poisson_masses(lam, pmf.support())
    worst = max(abs(float(m / e - 1)) for m, e in zip(pmf.masses.tolist(), exact))
    assert worst <= 1e-13
    below, above = mp_poisson_tails(lam, pmf.offset, pmf.offset + len(pmf.masses) - 1)
    assert below <= 1e-15 and above <= 1e-15
    assert abs(pmf.total - 1.0) <= 1e-13
    assert pmf.masses[0] > 1e-320


def test_poisson_computes_no_mass_below_its_first_representable_one(monkeypatch):
    # the masses are evaluated once, on lam -+ (12 sqrt(lam) + 30) only: at
    # lam = 1e5 the window starts at 96,175, far above the 88,162 masses that
    # underflow, and holds 7,651 points where Po(lam) has 14,488 representable ones
    calls = []
    kernel = schemes._poisson_masses
    monkeypatch.setattr(schemes, "_poisson_masses",
                        lambda lam, lo, hi: calls.append((lo, hi)) or kernel(lam, lo, hi))
    for lam in (1e5, 1e7):
        calls.clear()
        pmf = poisson_pmf(lam)
        half = 12.0 * math.sqrt(lam) + 30.0
        [(lo, hi)] = calls
        assert lo >= lam - half - 1.0 and hi - lo <= 2.0 * half + 3.0
        assert len(pmf.masses) < hi - lo


def test_poisson_accepts_every_rate_up_to_its_point_limit():
    for lam in (1e-320, 5e-324, 2e6, 1.7e9):
        assert abs(poisson_pmf(lam).total - 1.0) < 1e-13
    for lam in (1.75e9, math.inf, 1e300):
        with pytest.raises(ValueError, match="exceeds the 1e6-point limit"):
            poisson_pmf(lam)


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        poisson_pmf(0.0)


# --- scheme measures ---------------------------------------------------------------

def test_order_zero_scheme_is_poisson():
    nu = scheme_measure(ResidueCoeffs(3.0, ()))
    po = poisson_pmf(3.0)
    assert tuple(nu.masses) == tuple(po.masses)


def test_all_zero_coefficients_give_poisson():
    nu = scheme_measure(ResidueCoeffs(3.0, (0.0, 0.0, 0.0)))
    po = poisson_pmf(3.0)
    for k in range(len(po.masses)):
        assert nu.mass(k) == pytest.approx(po.mass(k), abs=1e-17)


def test_order_two_scheme_at_zero():
    nu = scheme_measure(ResidueCoeffs(2.0, (0.0, -0.125)))
    assert nu.mass(0) == pytest.approx(0.875 * math.exp(-2.0), abs=1e-15)


def test_order_two_closed_form_matches_double_sum():
    # nu2(k) = Po(k) (1 + b2 (1 - 2k/lam + k(k-1)/lam^2))
    for lam in (1.0, 5.0, 20.0):
        for b2 in (-0.4, -0.125, 0.2):
            nu = scheme_measure(ResidueCoeffs(lam, (0.0, b2)))
            po = poisson_pmf(lam)
            for k in nu.support():
                closed = po.mass(k) * (1.0 + b2 * (1.0 - 2.0 * k / lam
                                                   + k * (k - 1.0) / lam ** 2))
                assert nu.mass(k) == pytest.approx(closed, abs=1e-13)


@pytest.mark.parametrize("lam", [0.5, 1.0, 5.0, 20.0, 100.0])
def test_scheme_normalization(lam):
    for r in (1, 4, 10):
        nu = scheme_measure(ResidueCoeffs(lam, decaying_coeffs(r, sigma2=2.0)))
        assert abs(nu.total - 1.0) < 1e-10


@pytest.mark.parametrize("lam", [0.5, 5.0, 100.0])
def test_scheme_fourier_consistency(lam):
    r = 6
    b = decaying_coeffs(r, sigma2=2.0)
    nu = scheme_measure(ResidueCoeffs(lam, b))
    for j in range(64):
        xi = -math.pi + 2.0 * math.pi * (j + 1) / 64.0
        w = cmath.exp(1j * xi)
        transform = sum(m * cmath.exp(1j * k * xi)
                        for k, m in zip(nu.support(), nu.masses))
        target = cmath.exp(lam * (w - 1.0)) * residue_series_eval(
            ResidueCoeffs(lam, b), w - 1.0)
        assert abs(transform - target) < 1e-9


def test_scheme_accepts_nonzero_b1():
    nu = scheme_measure(ResidueCoeffs(4.0, (0.3, -0.1)))
    assert abs(nu.total - 1.0) < 1e-10


# --- Charlier differences -------------------------------------------------------------

def test_charlier_at_zero_support_point():
    for s in (0, 1, 2, 5):
        delta = charlier_delta(2.0, s, 0.25, 0)
        assert delta == pytest.approx(0.25 * (-1.0) ** (s + 1) * math.exp(-2.0),
                                      abs=1e-15)


def test_charlier_matches_scheme_difference_example():
    delta = charlier_delta(2.0, 1, -0.125, 0)
    assert delta == pytest.approx(-0.125 * math.exp(-2.0), abs=1e-15)
    nu2 = scheme_measure(ResidueCoeffs(2.0, (0.0, -0.125)))
    nu1 = scheme_measure(ResidueCoeffs(2.0, (0.0,)))
    assert nu2.mass(0) - nu1.mass(0) == pytest.approx(delta, abs=1e-15)


def test_charlier_zero_coefficient_vanishes():
    assert all(charlier_delta(5.0, 3, 0.0, k) == 0.0 for k in range(30))


@pytest.mark.parametrize("lam", [1.0, 20.0])
def test_charlier_telescoping(lam):
    b = decaying_coeffs(9)
    measures = [scheme_measure(ResidueCoeffs(lam, b[:r])) for r in range(10)]
    for s in range(9):
        nxt, cur = measures[s + 1], measures[s]
        for k in nxt.support():
            delta = charlier_delta(lam, s, b[s], k)
            assert abs((nxt.mass(k) - cur.mass(k)) - delta) < 1e-12


# --- derived schemes --------------------------------------------------------------------

def test_derived_scheme_finite_alphabet_same_code_path():
    weights = [0.2, 0.4]
    from modpoisson.symfunc import power_sums, virtual_residue_coeffs
    rc = virtual_residue_coeffs(power_sums(Alphabet.finite(weights), 3), 3, 2.5)
    direct = scheme_measure(rc)
    derived = derived_scheme(2.5, Alphabet.finite(weights), 3)
    assert tuple(direct.masses) == tuple(derived.masses)


def test_derived_scheme_harmonic_b2_is_half_zeta2():
    # b_2 = -zeta(2)/2 = -pi^2/12
    nu = derived_scheme(7.5, Alphabet.harmonic(), 2)
    ref = scheme_measure(ResidueCoeffs(7.5, (0.0, -math.pi ** 2 / 12.0)))
    for k in nu.support():
        assert nu.mass(k) == pytest.approx(ref.mass(k), abs=1e-12)


def test_derived_scheme_order_zero_is_poisson():
    nu = derived_scheme(3.0, Alphabet.omega_limit(), 0)
    assert tuple(nu.masses) == tuple(poisson_pmf(3.0).masses)


# --- one Poisson base for every order ------------------------------------------------

@pytest.mark.parametrize("alphabet, lam", [
    (Alphabet.finite([0.1, 0.2, 0.05, 0.3]), 0.65),
    (Alphabet.ewens_limit(1.3), 10.0),
    (Alphabet.omega_limit(), 12.0),
    (Alphabet.fq_limit(3), 9.0),
])
@pytest.mark.parametrize("orders", [range(7), (5, 0, 3), (2, 2, 6, 0, 2)])
def test_scheme_measures_are_the_truncated_schemes(alphabet, lam, orders):
    rc = residue_coeffs(alphabet, 6, lam)
    got = scheme_measures(rc, orders)
    want = [scheme_measure(ResidueCoeffs(lam, rc.b[:r])) for r in orders]
    assert ([(nu.offset, tuple(nu.masses)) for nu in got]
            == [(nu.offset, tuple(nu.masses)) for nu in want])


@pytest.mark.parametrize("orders", [(-1,), (0, 5), (2, 5, 1)])
def test_scheme_measures_reject_orders_outside_the_coefficients(orders):
    with pytest.raises(ValueError, match="0..4"):
        scheme_measures(ResidueCoeffs(3.0, decaying_coeffs(4)), orders)


# --- positivization ----------------------------------------------------------------------

def test_rectify_keeps_nonnegative_measures():
    nu = SignedMeasure(0, (0.25, 0.5, 0.25))
    pmf = rectify_positive(nu)
    assert pmf.offset == 0 and tuple(pmf.masses) == (0.25, 0.5, 0.25)


def test_rectify_hand_traced_example():
    pmf = rectify_positive(SignedMeasure(0, (-0.1, 0.6, 0.5)))
    assert pmf.offset == 1
    assert pmf.masses == pytest.approx((0.5, 0.5), abs=1e-15)


def test_rectify_never_hurts_total_variation():
    rng = np.random.default_rng(11)
    nu = scheme_measure(ResidueCoeffs(4.0, (0.0, -0.35, 0.1)))
    mu_plus = rectify_positive(nu)
    for _ in range(25):
        raw = rng.uniform(0.0, 1.0, size=12)
        from modpoisson.models import Pmf
        test_mu = Pmf(0, tuple((raw / raw.sum()).tolist()))
        assert (total_variation(test_mu, mu_plus)
                <= total_variation(test_mu, nu) + 1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_rectify_on_arbitrary_signed_measures(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(3, 15))
    raw = rng.uniform(-0.3, 1.0, size=size)
    masses = raw / raw.sum() if raw.sum() > 0.2 else np.abs(raw) / np.abs(raw).sum()
    nu = SignedMeasure(int(rng.integers(0, 3)), tuple(masses.tolist()))
    pmf = rectify_positive(nu)
    assert abs(math.fsum(pmf.masses) - 1.0) < 1e-12
    assert all(m >= 0.0 for m in pmf.masses)
    beta = -math.fsum(m for m in nu.masses if m < 0.0)
    if beta == 0.0:
        assert tuple(pmf.masses) == tuple(nu.masses)  # untouched when already nonnegative


def assert_same_sweep(nu):
    got, want = rectify_positive(nu), reference_rectify_positive(nu)
    assert (got.offset, tuple(got.masses)) == (want.offset, tuple(want.masses))


# the omega coefficients at lam = 12 and r = 6 are the `scheme --alphabet omega
# --positive` golden's input; every instance has masses that are negative at
# 50 digits (b2 and omega are positive throughout the lam >= 1e3 windows).
# nu = Po (1 + b_2 ((k - lam)^2 - k)/lam^2 + ...) turns negative about
# sqrt(1 + lam/|b_2|) standard deviations out, so past lam = 256 the wide b_2
# grows like lam, which keeps that point near 7 sigma, inside the base window
@pytest.mark.parametrize("lam, coeffs", [
    (lam, coeffs) for lam in (1.0, 12.0) for coeffs in ("b2", "omega", "wide")]
    + [(3.0, "b2"), (3.0, "omega")] + [(lam, "wide") for lam in (1e3, 3e3, 1e4)])
def test_rectify_matches_the_quadratic_sweep(lam, coeffs):
    rc = {"b2": lambda: ResidueCoeffs(lam, (0.0, -0.125)),
          "omega": lambda: residue_coeffs(Alphabet.omega_limit(), 6, lam),
          "wide": lambda: ResidueCoeffs(
              lam, (0.0, -0.35 * max(math.sqrt(lam), lam / 16.0), 0.1))}[coeffs]()
    nu = scheme_measure(rc)
    assert min(nu.masses) < 0.0
    assert_same_sweep(nu)


@pytest.mark.parametrize("nu", [
    scheme_measure(ResidueCoeffs(12.0)),
    SignedMeasure(2, (0.0, 0.25, -0.0, 0.75)),
    SignedMeasure(0, (-0.1, 0.6, 0.5)),
    SignedMeasure(1, (0.3, -0.2, 0.0, 0.4, -0.1, 0.6)),
    SignedMeasure(0, (-0.1, 0.1, 0.3, 0.7)),  # alpha_1 ties beta: not yet feasible
])
def test_rectify_matches_the_quadratic_sweep_on_small_measures(nu):
    assert_same_sweep(nu)


def test_rectify_is_fast_at_large_rate():
    import time
    nu = scheme_measure(ResidueCoeffs(3e4, (0.0, -0.125)))
    start = time.perf_counter()
    pmf = rectify_positive(nu)
    assert time.perf_counter() - start < 1.0
    assert abs(math.fsum(pmf.masses) - 1.0) < 1e-10


# --- expectation functional ---------------------------------------------------------------

def test_expectation_of_constants():
    rc = ResidueCoeffs(3.0, (0.0, -0.2, 0.05))
    assert expect_via_scheme(lambda k: 1.0, rc) == pytest.approx(1.0, abs=1e-12)


def test_expectation_of_indicator_matches_mass():
    rc = ResidueCoeffs(2.0, (0.0, -0.125))
    nu = scheme_measure(rc)
    got = expect_via_scheme(lambda k: float(k == 0), rc)
    assert got == pytest.approx(nu.mass(0), abs=1e-14)


def test_expectation_of_identity_is_lambda():
    rc = ResidueCoeffs(6.0, (0.0, -0.3))
    assert expect_via_scheme(lambda k: float(k), rc) == pytest.approx(6.0, abs=1e-9)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_expectation_agrees_with_direct_summation(seed):
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.5, 20.0))
    r = int(rng.integers(0, 5))
    b = tuple(float(x) for x in rng.uniform(-0.3, 0.3, size=r))
    rc = ResidueCoeffs(lam, b)
    nu = scheme_measure(rc)
    values = rng.uniform(-1.0, 1.0, size=len(nu.masses) + r + 1)
    f = lambda k: float(values[k]) if k < len(values) else 0.0
    direct = math.fsum(nu.mass(k) * f(k) for k in nu.support())
    assert abs(expect_via_scheme(f, rc) - direct) < 1e-10


# --- the measure contract ---------------------------------------------------------------

def test_signed_measure_accepts_negative_mass_a_pmf_rejects():
    from modpoisson.models import Pmf
    with pytest.raises(ValueError):
        Pmf(0, (-0.1, 1.1))
    nu = SignedMeasure(0, (-0.1, 1.1))
    assert tuple(nu.masses) == (-0.1, 1.1) and nu.mass(0) == -0.1


def test_float_total_is_checked_within_1e_10():
    assert SignedMeasure(0, (0.5, 0.5 + 1e-11)).total == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SignedMeasure(0, (0.5, 0.5 + 1e-9))
