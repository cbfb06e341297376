import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoisson._arith import EVEN_BERNOULLI
from modpoisson.symfunc import (MAX_ORDER, Alphabet, ResidueCoeffs,
                                ToleranceError, elementary_from_power, power_sums,
                                prime_zeta,
                                residue_coeffs, residue_product_eval, residue_series_eval,
                                stirling2, stirling2_elementary_bridge,
                                virtual_residue_coeffs, zeta)

from oracles import (reference_power_sums_infinite, single_weight_residue_coeff,
                     zeta_partial_with_tail)

weight_lists = st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1,
                        max_size=20)


# --- power sums --------------------------------------------------------------

def test_power_sums_single_weight():
    ps = power_sums(Alphabet.finite([0.5]), 4)
    assert ps == pytest.approx((0.5, 0.25, 0.125, 0.0625), abs=1e-15)


def test_power_sums_unit_weights():
    assert power_sums(Alphabet.finite([1.0, 1.0, 1.0]), 2) == (3.0, 3.0)


def test_power_sums_partial_harmonic_approaches_zeta2():
    n = 1000
    ps = power_sums(Alphabet.finite([1.0 / i for i in range(1, n + 1)]), 2)
    assert abs(ps[1] - math.pi ** 2 / 6.0) < 1.0 / n


def test_power_sums_rejects_bad_input():
    with pytest.raises(ValueError):
        power_sums(Alphabet.finite([]), 3)
    with pytest.raises(ValueError):
        power_sums(Alphabet.finite([0.5]), 1)
    with pytest.raises(ValueError, match="at least to k = 2"):
        power_sums(Alphabet.harmonic(), 1)


def test_harmonic_power_sums_match_independent_zeta():
    ps = power_sums(Alphabet.harmonic(), 4)
    # independent partial-sum + integral-tail evaluation of zeta(2)
    oracle = zeta_partial_with_tail(2, 100000)
    assert abs(ps[1] - oracle) < 1e-12
    assert abs(ps[1] - math.pi ** 2 / 6.0) < 1e-12
    assert abs(ps[2] - zeta_partial_with_tail(3, 100000)) < 1e-12


def test_ewens_limit_one_is_harmonic():
    pa = power_sums(Alphabet.ewens_limit(1.0), 12)
    pb = power_sums(Alphabet.harmonic(), 12)
    for k in range(2, 13):
        assert abs(pa[k - 1] - pb[k - 1]) < 1e-13


def test_omega_limit_adds_prime_zeta():
    ps = power_sums(Alphabet.omega_limit(), 2)
    # brute-force prime sum below 10^6; the missing tail is under sum_{n>1e6} n^-2
    sieve = np.ones(10 ** 6, dtype=bool)
    sieve[:2] = False
    for p in range(2, 1001):
        if sieve[p]:
            sieve[p * p:: p] = False
    primes = np.nonzero(sieve)[0].astype(float)
    brute = float(np.sum(primes ** -2.0))
    excess = ps[1] - zeta_partial_with_tail(2, 100000)
    assert brute <= excess <= brute + 1.1e-6
    assert abs(excess - 0.4522474200410655) < 1e-9


def test_fq_limit_power_sums():
    ps = power_sums(Alphabet.fq_limit(2), 3)
    # the degree side dominates: I_2(1)=2 linear + I_2(2)=1 quadratic + ...
    head = 2 * 0.25 + 1 * 0.0625 + 2 * 4.0 ** -3 + 3 * 4.0 ** -4
    excess = ps[1] - zeta(2)
    assert excess > head
    # tail past degree 4 is below sum_{m>=5} 2^-m / m <= 2^-4 / 5
    assert excess < head + 2.0 ** -4 / 5.0
    assert ps[2] > zeta(3)


def test_infinite_power_sums_reject_unreachable_tolerance():
    with pytest.raises(ToleranceError):
        power_sums(Alphabet.harmonic(tolerance=1e-20), 4)


def test_prime_zeta_values():
    assert abs(prime_zeta(3) - 0.17476263929944352) < 1e-12
    assert prime_zeta(20) == pytest.approx(2.0 ** -20 + 3.0 ** -20, rel=1e-6)


def test_even_bernoulli_table_satisfies_the_bernoulli_recurrence():
    # sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1, with B_0 = 1, B_1 = -1/2 and
    # B_j = 0 for the other odd j
    b = {0: Fraction(1), 1: Fraction(-1, 2)}
    b.update((2 * k, Fraction(num, den)) for k, (num, den) in enumerate(EVEN_BERNOULLI, 1))
    for m in range(1, 2 * len(EVEN_BERNOULLI) + 1):
        assert sum(math.comb(m + 1, j) * b.get(j, 0) for j in range(m + 1)) == 0


@settings(deadline=None, max_examples=40)
@given(weight_lists)
def test_power_sums_non_increasing_for_unit_box_weights(weights):
    ps = power_sums(Alphabet.finite(weights), 8)
    assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))


# --- Newton identities --------------------------------------------------------

def test_elementary_zero_alphabet():
    assert elementary_from_power((0.0, 0.0), 2) == [1.0, 0.0, 0.0]


def test_elementary_single_weight_kills_e2():
    e = elementary_from_power((0.5, 0.25), 2)
    assert e == pytest.approx([1.0, 0.5, 0.0], abs=1e-15)


def test_elementary_unit_weights_are_binomials():
    e = elementary_from_power((3.0, 3.0, 3.0), 3)
    assert e == pytest.approx([1.0, 3.0, 3.0, 1.0], abs=1e-12)


def test_elementary_requires_enough_power_sums():
    with pytest.raises(ValueError):
        elementary_from_power((1.0, 1.0), 3)


@pytest.mark.parametrize("values, k", [
    ((0.0, 1e300, 0.0, 0.0), 4),     # p_2^2 / 8 overflows, as for Ewens at theta = 1e300
    ((1e154, -1.7e308), 2),          # finite terms whose sum overflows
    ((1e150, 0.5e300, 0.0), 3),      # terms of +inf and -inf
], ids=["inf_term", "sum_overflow", "inf_minus_inf"])
def test_elementary_names_the_first_coefficient_past_the_float_range(values, k):
    with pytest.raises(OverflowError) as refused:
        elementary_from_power(values, len(values))
    assert str(refused.value) == f"residue coefficient b_{k} = e_{k} overflows the float range"


@settings(deadline=None)
@given(weight_lists)
def test_newton_round_trip(weights):
    # weights -> power sums -> e_0..e_8, against prod_i (1 + a_i z) expanded exactly
    kmax = 8
    e = elementary_from_power(power_sums(Alphabet.finite(weights), kmax), kmax)
    exact = [Fraction(1)] + [Fraction(0)] * kmax
    for a in map(Fraction, weights):
        exact[1:] = [c + a * below for c, below in zip(exact[1:], exact)]
    scale = max(1.0, max(map(abs, e)))
    for got, want in zip(e, exact, strict=True):
        assert abs(Fraction(got) - want) <= 1e-12 * scale


# --- virtual residue coefficients ----------------------------------------------

def test_virtual_coeffs_single_half_weight():
    rc = virtual_residue_coeffs(power_sums(Alphabet.finite([0.5]), 10), 10, 1.0)
    assert rc.b[0] == 0.0
    assert rc.b[1] == pytest.approx(-0.125, abs=1e-15)
    assert rc.b[2] == pytest.approx(1.0 / 24.0, abs=1e-15)
    assert rc.b[3] == pytest.approx(-0.0078125, abs=1e-15)
    # cross-check against the expansion of (1 + pz) e^{-pz}
    for s in range(2, 11):
        assert rc.b[s - 1] == pytest.approx(single_weight_residue_coeff(0.5, s),
                                            abs=1e-15)


@settings(deadline=None)
@given(weight_lists)
def test_virtual_coeffs_b1_is_exactly_zero(weights):
    rc = virtual_residue_coeffs(power_sums(Alphabet.finite(weights), 4), 4, 2.0)
    assert rc.b[0] == 0.0


def test_virtual_coeffs_empty_alphabet_residue_is_one():
    rc = virtual_residue_coeffs((0.0, 0.0, 0.0, 0.0), 4, 1.0)
    assert all(b == 0.0 for b in rc.b)


@settings(deadline=None, max_examples=60)
@given(weight_lists)
def test_coefficient_decay_bound(weights):
    ps = power_sums(Alphabet.finite(weights), 30)
    rc = virtual_residue_coeffs(ps, 30, 1.0)
    for s in range(2, 31):
        cap = (math.e * ps[1] / s) ** (s / 2.0)
        assert abs(rc.b[s - 1]) <= cap + 1e-12


def test_residue_coeffs_order_zero_empty_alphabet_and_negative_order():
    assert residue_coeffs(Alphabet.harmonic(), 0, 2.0) == ResidueCoeffs(2.0, ())
    # order 0 needs no power sums, so an unreachable tolerance is never hit
    assert residue_coeffs(Alphabet.harmonic(1e-20), 0, 2.0).b == ()
    assert residue_coeffs(Alphabet.finite(()), 3, 2.0) == ResidueCoeffs(2.0, (0.0,) * 3)
    for alphabet in (Alphabet.finite([0.5]), Alphabet.omega_limit()):
        with pytest.raises(ValueError, match="r must be >= 0"):
            residue_coeffs(alphabet, -1, 2.0)


def test_orders_past_the_budget_are_refused_before_any_work():
    r = MAX_ORDER + 1
    message = f"scheme order r = {r} exceeds the budget {MAX_ORDER}; its work grows as r^2"
    # an empty alphabet's zeros and an unreachable tolerance are never reached
    for refused in (lambda: power_sums(Alphabet.harmonic(1e-20), r),
                    lambda: residue_coeffs(Alphabet.finite(()), r, 2.0),
                    lambda: residue_coeffs(Alphabet.omega_limit(), r, 2.0)):
        with pytest.raises(ValueError) as caught:
            refused()
        assert str(caught.value) == message
    assert len(residue_coeffs(Alphabet.finite([0.5]), MAX_ORDER, 2.0).b) == MAX_ORDER


@pytest.mark.parametrize("alphabet, chain", [
    (Alphabet.finite([0.1, 0.2, 0.05]),
     lambda r: power_sums(Alphabet.finite([0.1, 0.2, 0.05]), r)),
    (Alphabet.fq_limit(3), lambda r: power_sums(Alphabet.fq_limit(3), r)),
])
def test_residue_coeffs_match_the_explicit_chain(alphabet, chain):
    for r in (1, 2, 5):
        expected = virtual_residue_coeffs(chain(max(2, r)), r, 7.5)
        assert residue_coeffs(alphabet, r, 7.5) == expected


def test_power_sums_dispatch_on_the_alphabet_kind():
    # one power_sums serves both kinds: compensated sums of a finite
    # alphabet's weights, and the closed forms of an infinite kind with p_1 = inf
    assert power_sums(Alphabet.finite([0.5, 0.25]), 3) == tuple(
        math.fsum((0.5 ** k, 0.25 ** k)) for k in (1, 2, 3))
    assert (power_sums(Alphabet.ewens_limit(2.5), 4)
            == reference_power_sums_infinite(Alphabet.ewens_limit(2.5), 4))
    with pytest.raises(ValueError):
        power_sums(Alphabet.finite(()), 2)


def test_harmonic_is_the_ewens_alphabet_at_theta_one():
    assert Alphabet.harmonic() == Alphabet.ewens_limit(1.0)
    assert Alphabet.harmonic(1e-9) == Alphabet.ewens_limit(1.0, 1e-9)
    assert Alphabet.harmonic().kind == "ewens_limit"
    with pytest.raises(ValueError, match="unknown alphabet kind"):
        Alphabet("harmonic")


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
def test_ewens_alphabet_needs_finite_positive_theta(theta):
    with pytest.raises(ValueError, match="finite theta > 0"):
        Alphabet.ewens_limit(theta)


# --- residue evaluation ---------------------------------------------------------

def test_series_eval_constant_term():
    assert residue_series_eval(ResidueCoeffs(1.0, (0.3, -0.2)), 0.0) == 1.0


def test_series_eval_plain_polynomial():
    rc = ResidueCoeffs(1.0, (0.0, -0.125))
    assert residue_series_eval(rc, 1.0) == pytest.approx(0.875)


def test_series_matches_product_for_single_weight():
    rc = virtual_residue_coeffs(power_sums(Alphabet.finite([0.5]), 30), 30, 1.0)
    z = -0.3
    expected = (1.0 + 0.5 * z) * math.exp(-0.5 * z)
    assert abs(residue_series_eval(rc, z) - expected) < 1e-12


def test_product_eval_finite_closed_form():
    alpha = Alphabet.finite([0.37])
    for z in (0.0, 0.8, -1.1 + 0.4j):
        expected = (1.0 + 0.37 * z) * cmath.exp(-0.37 * z)
        assert abs(residue_product_eval(alpha, z) - expected) < 1e-14


def test_product_eval_harmonic_against_truncated_product():
    z = -0.5
    n = np.arange(1.0, 1e6 + 1.0)
    brute = math.exp(float(np.sum(np.log1p(z / n) - z / n)))
    got = residue_product_eval(Alphabet.harmonic(), z)
    assert abs(got - brute) < 1e-6


def test_product_eval_ewens_against_truncated_product():
    theta, z = 2.0, -0.4
    n = np.arange(1.0, 2e6)
    w = theta / (theta + n - 1.0)
    brute = math.exp(float(np.sum(np.log1p(w * z) - w * z)))
    got = residue_product_eval(Alphabet.ewens_limit(theta), z)
    assert abs(got - brute) < 1e-6


def test_product_eval_omega_against_truncated_product():
    from modpoisson._arith import primes_up_to
    z = -0.5
    n = np.arange(1.0, 1e6)
    acc = float(np.sum(np.log1p(z / n) - z / n))
    primes = np.array(primes_up_to(10 ** 6), dtype=float)
    acc += float(np.sum(np.log1p(z / primes) - z / primes))
    got = residue_product_eval(Alphabet.omega_limit(), z)
    assert abs(got - math.exp(acc)) < 1e-5  # prime side truncation is O(1/log)


def test_product_eval_fq_against_truncated_product():
    from modpoisson._arith import irreducible_count
    q, z = 2, -0.5
    n = np.arange(1.0, 1e6)
    acc = float(np.sum(np.log1p(z / n) - z / n))
    acc += math.fsum(irreducible_count(q, m)
                     * (math.log1p(z * float(q) ** -m) - z * float(q) ** -m)
                     for m in range(1, 120))
    got = residue_product_eval(Alphabet.fq_limit(q), z)
    assert abs(got - math.exp(acc)) < 1e-6


def test_product_eval_infinite_at_zero_is_one():
    for alpha in (Alphabet.harmonic(), Alphabet.omega_limit(), Alphabet.fq_limit(3)):
        assert residue_product_eval(alpha, 0.0) == 1.0


def test_product_series_agreement_on_grid():
    rng = np.random.default_rng(7)
    for _ in range(6):
        weights = rng.uniform(0.05, 0.9, size=int(rng.integers(1, 9)))
        s2 = float(np.sum(weights ** 2))
        if s2 > 2.0:
            weights = weights * math.sqrt(2.0 / s2)  # keep sigma^2 <= 2
        rc = virtual_residue_coeffs(power_sums(Alphabet.finite(weights.tolist()), 40), 40, 1.0)
        alpha = Alphabet.finite(weights.tolist())
        for j in range(32):
            z = 1.5 * cmath.exp(2j * math.pi * j / 32)
            diff = abs(residue_product_eval(alpha, z) - residue_series_eval(rc, z))
            assert diff < 1e-10


def test_product_eval_rejects_huge_arguments():
    with pytest.raises(ToleranceError):
        residue_product_eval(Alphabet.harmonic(), 1e7)


def test_omega_product_eval_is_refused_past_its_radius():
    # within the radius it meets its tolerance (test_mpmath_oracles); past
    # it the amplified prime-zeta error grows fast: 1.6e-11 at |z| = 3
    from modpoisson.symfunc import OMEGA_RESIDUE_RADIUS
    alphabet = Alphabet.omega_limit()
    for angle in (0.0, 1.7, math.pi):
        residue_product_eval(alphabet, OMEGA_RESIDUE_RADIUS * cmath.exp(1j * angle))
        for radius in (2.1, 2.5, 3.0, 7.0, 20.0):
            with pytest.raises(ToleranceError, match="omega residue"):
                residue_product_eval(alphabet, radius * cmath.exp(1j * angle))


# --- moment bridge ---------------------------------------------------------------

def test_stirling_numbers_count_set_partitions():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 5) == 1
    assert stirling2(3, 0) == 0


def test_bridge_first_row_is_identity():
    assert stirling2_elementary_bridge([3.7]) == [pytest.approx(3.7)]


def test_bridge_two_weights():
    # weights {0.3, 0.6}: e_1 = 0.9, e_2 = 0.18, and M_2 = e_1 + 2 e_2 = 1.26
    e = stirling2_elementary_bridge([0.9, 1.26])
    assert e[0] == pytest.approx(0.9, abs=1e-12)
    assert e[1] == pytest.approx(0.18, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(weight_lists)
def test_bridge_round_trip(weights):
    from oracles import moments_from_elementary
    r = 8
    e = elementary_from_power(power_sums(Alphabet.finite(weights), r), r)[1:]
    moments = moments_from_elementary(e)
    back = stirling2_elementary_bridge(moments)
    for k in range(r):
        assert abs(back[k] - e[k]) <= 1e-9 * max(1.0, abs(moments[k]))
