import cmath
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoisson.models import (EULER_GAMMA, OMEGA_SIEVE_BUDGET, ModelSpec, Pmf,
                               bernoulli_sum_pmf, empirical_residue, ewens_cycle_pmf,
                               fq_factor_pmf, gamma_theta,
                               gauss_irreducible_count, model_lambda,
                               omega_pmf, omega_values, r_q,
                               weighted_perm_cycle_pmf,
                               weighted_perm_normalization)
from modpoisson.schemes import SignedMeasure, poisson_pmf, rectify_positive
from modpoisson.suites import fq_factor_histogram_by_enumeration, residue_error
from modpoisson.symfunc import Alphabet, zeta

from oracles import permutation_cycle_counts, weighted_cycle_histogram

weight_lists = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                        max_size=12)


# --- Bernoulli convolutions -----------------------------------------------------

def test_bernoulli_deterministic_weight_is_a_shift():
    pmf = bernoulli_sum_pmf([1.0])
    assert pmf.offset == 1 and pmf.masses == (1.0,)


def test_bernoulli_two_fair_coins():
    pmf = bernoulli_sum_pmf([0.5, 0.5])
    assert pmf.offset == 0
    assert pmf.masses == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)


def test_bernoulli_harmonic_weights_match_cycle_counts_of_s4():
    # Feller coupling: sum Be(1/i) is the cycle count of a uniform permutation
    counts = Counter(permutation_cycle_counts(4))
    pmf = bernoulli_sum_pmf([1.0 / i for i in range(1, 5)])
    for j in range(1, 5):
        assert pmf.mass(j) == pytest.approx(counts[j] / 24.0, abs=1e-14)


def test_bernoulli_rejects_bad_weight():
    with pytest.raises(ValueError):
        bernoulli_sum_pmf([0.5, 1.2])


@settings(deadline=None)
@given(weight_lists)
def test_bernoulli_rational_matches_float(weights):
    weights = [round(w, 6) for w in weights]
    exact = bernoulli_sum_pmf([Fraction(w).limit_denominator(10 ** 7)
                               for w in weights], rational=True)
    approx = bernoulli_sum_pmf(weights)
    for k in range(len(weights) + 1):
        assert abs(float(exact.mass(k)) - approx.mass(k)) < 1e-9


@settings(deadline=None)
@given(weight_lists)
def test_bernoulli_pmf_is_normalized(weights):
    pmf = bernoulli_sum_pmf(weights)
    assert abs(pmf.total - 1.0) < 1e-12
    assert all(m >= 0.0 for m in pmf.masses)


# --- weighted permutations -------------------------------------------------------

def test_weighted_perm_two_points():
    pmf = weighted_perm_cycle_pmf([1.0, 1.0], 2)
    assert pmf.offset == 1
    assert pmf.masses == pytest.approx((0.5, 0.5), abs=1e-15)


def test_weighted_perm_uniform_s3():
    pmf = weighted_perm_cycle_pmf([1.0] * 3, 3)
    assert [pmf.mass(j) for j in range(4)] == pytest.approx(
        [0.0, 2.0 / 6.0, 3.0 / 6.0, 1.0 / 6.0], abs=1e-15)


def test_weighted_perm_single_point_any_weight():
    pmf = weighted_perm_cycle_pmf([3.7], 1)
    assert pmf.offset == 1 and pmf.masses == (1.0,)


def test_weighted_perm_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        weighted_perm_cycle_pmf([1.0, 0.0], 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_weighted_perm_matches_exhaustive_enumeration(n):
    rng = np.random.default_rng(100 + n)
    theta = [Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5)))
             for _ in range(n)]
    expected = weighted_cycle_histogram(theta, n)
    exact = weighted_perm_cycle_pmf(theta, n, rational=True)
    for j in range(n + 1):
        assert exact.mass(j) == expected[j]


def test_weighted_perm_normalization_matches_ewens_closed_product():
    for theta in (0.5, 1.0, 2.0, 3.25):
        for n in (1, 5, 20, 60):
            h = weighted_perm_normalization([theta] * n, n)
            closed = math.prod(1.0 + (theta - 1.0) / i for i in range(1, n + 1))
            assert h == pytest.approx(closed, rel=1e-12)


# --- Ewens measure ----------------------------------------------------------------

def test_ewens_theta_one_is_stirling_distribution():
    pmf = ewens_cycle_pmf(1.0, 4)
    oracle = bernoulli_sum_pmf([1.0 / i for i in range(1, 5)])
    for j in range(6):
        assert pmf.mass(j) == pytest.approx(oracle.mass(j), abs=1e-15)


def test_ewens_two_two():
    exact = ewens_cycle_pmf(2, 2, rational=True)
    assert exact.mass(1) == Fraction(1, 3)
    assert exact.mass(2) == Fraction(2, 3)


def test_ewens_single_point():
    assert ewens_cycle_pmf(5.0, 1).offset == 1


def test_ewens_equals_generic_weighted_perm():
    for theta, n in ((Fraction(1, 2), 6), (Fraction(2), 8), (Fraction(7, 3), 5)):
        fast = ewens_cycle_pmf(theta, n, rational=True)
        generic = weighted_perm_cycle_pmf([theta] * n, n, rational=True)
        for j in range(n + 1):
            assert fast.mass(j) == generic.mass(j)


def test_feller_identity_up_to_n_200():
    for n in (50, 200):
        cyc = ewens_cycle_pmf(1.0, n)
        fell = bernoulli_sum_pmf([1.0 / i for i in range(1, n + 1)])
        err = max(abs(cyc.mass(k) - fell.mass(k))
                  for k in range(cyc.offset, cyc.offset + len(cyc.masses)))
        assert err < 1e-12


# --- F_q polynomials ----------------------------------------------------------------

def test_gauss_counts_small_cases():
    assert gauss_irreducible_count(2, 1) == 2
    assert gauss_irreducible_count(2, 2) == 1
    assert gauss_irreducible_count(2, 4) == 3


def test_gauss_counts_match_enumeration():
    for q, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)):
        hist = fq_factor_histogram_by_enumeration(q, n)
        # irreducibles of degree n are exactly the polys with one distinct
        # factor that are not proper powers of a lower-degree irreducible
        irreducible = hist[1] - sum(
            gauss_irreducible_count(q, d) for d in range(1, n) if n % d == 0)
        assert irreducible == gauss_irreducible_count(q, n)


def test_gauss_counts_are_big_integers():
    assert gauss_irreducible_count(2, 128) > 2 ** 120 // 128


def test_fq_linear_polynomials_are_irreducible():
    pmf = fq_factor_pmf(2, 1)
    assert pmf.offset == 1 and pmf.masses == (1.0,)


def test_fq_quadratics_over_f2():
    exact = fq_factor_pmf(2, 2, rational=True)
    assert exact.mass(1) == Fraction(3, 4)
    assert exact.mass(2) == Fraction(1, 4)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fq_total_count_identity(q):
    # a Pmf of Fractions validates an exact unit total, which is f_n(1) = q^n;
    # the identity is asserted inside fq_factor_pmf for every build
    for n in (6, 17, 30):
        exact = fq_factor_pmf(q, n, rational=True)
        assert sum(exact.masses, Fraction(0)) == 1


def test_fq_rejects_non_prime_power():
    with pytest.raises(ValueError):
        fq_factor_pmf(6, 3)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4)])
def test_fq_pmf_matches_enumeration(q, n):
    counts = fq_factor_histogram_by_enumeration(q, n)
    exact = fq_factor_pmf(q, n, rational=True)
    for j in range(n + 1):
        assert exact.mass(j) == Fraction(counts[j], q ** n)


# --- omega ---------------------------------------------------------------------------

def test_omega_one_is_delta_zero():
    pmf = omega_pmf(1)
    assert pmf.offset == 0 and pmf.masses == (1.0,)


def test_omega_ten_by_hand():
    pmf = omega_pmf(10)
    assert pmf.masses == pytest.approx((0.1, 0.7, 0.2), abs=1e-15)


def test_omega_120():
    assert omega_values(120)[120] == 3
    pmf = omega_pmf(120)
    assert pmf.mass(3) >= 1.0 / 120.0


@pytest.mark.parametrize("law, args, message", [
    (weighted_perm_cycle_pmf, ([1.0, 2.0], 3), "need theta_1..theta_3"),
    (weighted_perm_cycle_pmf, ([1.0], 0), "n must be >= 1"),
    (ewens_cycle_pmf, (1.0, 0), "n must be >= 1"),
    (ewens_cycle_pmf, (0.0, 3), "theta must be positive"),
    (ewens_cycle_pmf, (-1.5, 3), "theta must be positive"),
    (fq_factor_pmf, (2, 0), "n must be >= 1"),
    (omega_pmf, (0,), "n_max must be >= 1"),
], ids=["weighted_perm_short_theta", "weighted_perm_n0", "ewens_n0", "ewens_theta0",
        "ewens_theta_negative", "fq_n0", "omega_n0"])
def test_model_laws_refuse_arguments_outside_their_domain(law, args, message):
    with pytest.raises(ValueError, match=message):
        law(*args)


def test_omega_memory_budget():
    # refused before the sieve allocates anything
    with pytest.raises(ValueError, match="sieve memory budget"):
        omega_pmf(OMEGA_SIEVE_BUDGET + 1)


# --- rates and residues ----------------------------------------------------------------

def test_model_lambda_bernoulli_is_weight_sum():
    assert model_lambda(ModelSpec.bernoulli([0.5, 0.5])) == 1.0


def test_model_lambda_ewens_theta_one():
    lam = model_lambda(ModelSpec.ewens(1.0, 1000))
    assert lam == pytest.approx(math.log(1000.0) + EULER_GAMMA, abs=1e-12)


def test_model_lambda_fq_uses_rq():
    lam = model_lambda(ModelSpec.fq_poly(2, 50))
    assert lam == pytest.approx(math.log(50.0) + r_q(2) + EULER_GAMMA, abs=1e-12)


def test_model_lambda_weighted_perm_derives_theta_and_k():
    # weights past the sequence are theta = 1; K = (1 - 1)/1 + (2 - 1)/2 + 0
    spec = ModelSpec.weighted_perm([1.0, 2.0, 1.0], 3)
    assert model_lambda(spec) == math.log(3.0) + 0.5 + gamma_theta(1.0)
    assert spec.alphabet(1e-12) == Alphabet.ewens_limit(1.0)
    # ... and the law reads them so too, past n or short of it
    got = ModelSpec.weighted_perm([1.0, 2.0, 1.0], 5).pmf(rational=True)
    want = weighted_perm_cycle_pmf([1, 2, 1, 1, 1], 5, rational=True)
    assert (got.offset, tuple(got.masses)) == (want.offset, tuple(want.masses))
    assert model_lambda(ModelSpec.weighted_perm([1.0, 2.0, 1.0, 1.0, 1.0], 2)) == \
        math.log(2.0) + 0.5 + gamma_theta(1.0)
    # a constant sequence is Ewens, rate and alphabet alike
    for theta, n in ((1.0, 3), (0.37, 41), (2.5, 120)):
        spec, ewens = ModelSpec.weighted_perm([theta] * n, n), ModelSpec.ewens(theta, n)
        assert model_lambda(spec) == model_lambda(ewens)
        assert spec.alphabet(1e-9) == ewens.alphabet(1e-9)
    with pytest.raises(ValueError, match="weighted_perm rate theta log n \\+ K"):
        model_lambda(ModelSpec.weighted_perm([0.05, 8.0, 8.0], 3))


@pytest.mark.parametrize("theta_seq", [[2.0, 1.0], [1.0, 1.0, 2.0]],
                         ids=["theta1_first_2", "theta2_first_two_1"])
def test_weighted_perm_residue_error_halves_with_n(theta_seq):
    # the eventually constant weights converge to the Ewens(theta) product
    # form at speed O(1/n), as Ewens itself does
    eps = {}
    for n in (100, 200, 400):
        spec = ModelSpec.weighted_perm(theta_seq, n)
        eps[n] = residue_error(spec.pmf(), model_lambda(spec), spec.alphabet(1e-12))
    for n in (100, 200):
        assert 0.3 <= eps[2 * n] / eps[n] <= 0.7


def test_gamma_theta_one_is_euler_mascheroni():
    # independent value of the Euler-Mascheroni constant
    assert abs(gamma_theta(1.0) - float(np.euler_gamma)) < 1e-12


def test_gamma_theta_against_brute_force_richardson():
    def partial(theta, terms):
        n = np.arange(1.0, terms + 1.0)
        return float(np.sum(theta / (n + theta - 1.0) - theta * np.log1p(1.0 / n)))

    for theta in (2.0, 0.5):
        n = 5 * 10 ** 6
        brute = 2.0 * partial(theta, 2 * n) - partial(theta, n)  # O(1/N) Richardson
        assert abs(gamma_theta(theta) - brute) < 1e-10


def test_gamma_theta_tiny_theta_tends_to_one():
    # the n = 1 term is theta/theta = 1, so the series tends to 1 as theta -> 0
    def partial(theta, terms):
        n = np.arange(1.0, terms + 1.0)
        return float(np.sum(theta / (n + theta - 1.0) - theta * np.log1p(1.0 / n)))

    theta = 1e-6
    n = 10 ** 6
    brute = 2.0 * partial(theta, 2 * n) - partial(theta, n)
    assert abs(gamma_theta(theta) - brute) < 1e-7
    assert abs(gamma_theta(theta) - 1.0) < 1e-5


def test_rq_against_brute_force():
    from modpoisson._arith import mobius
    brute = math.fsum(mobius(k) / k * -math.log1p(-2.0 ** (1 - k))
                      for k in range(2, 202))
    assert abs(r_q(2) - brute) < 1e-13


def test_rq_rejects_a_nonfinite_tolerance():
    with pytest.raises(ValueError, match="finite and positive"):
        r_q(2, math.inf)


def test_rq_vanishes_for_huge_q():
    assert abs(r_q(10 ** 6)) < 1e-5


def test_rq_sign_for_large_q():
    # the k = 2 Moebius term -log(1/(1-1/q))/2 dominates
    for q in (10, 100, 10 ** 4):
        assert r_q(q) < 0.0


def test_empirical_residue_trivial_cases():
    delta0 = bernoulli_sum_pmf([])
    assert empirical_residue(delta0, 0.0, 0.3 + 0.1j) == 1.0
    po = poisson_pmf(3.0)
    for w in (0.5, cmath.exp(1j)):
        assert abs(empirical_residue(po, 3.0, w) - 1.0) < 1e-12


def test_empirical_residue_single_bernoulli_product_form():
    p = 0.37
    pmf = bernoulli_sum_pmf([p])
    for w in (0.2, 1.5, cmath.exp(0.7j)):
        expected = (1.0 + p * (w - 1.0)) * cmath.exp(-p * (w - 1.0))
        assert abs(empirical_residue(pmf, p, w) - expected) < 1e-14


def _fq_pgf_scalar(q, n, w):
    """E[w^(D_n)] by a scaled scalar recursion, independent of the
    coefficient-polynomial route: g_m = f_m(w)/q^m with
    m g_m = sum_k (L_k(w)/q^k) g_(m-k); every factor stays bounded."""
    from modpoisson._arith import irreducible_count
    lvals = []
    for k in range(1, n + 1):
        acc = 0.0 + 0.0j
        for d in range(1, k + 1):
            if k % d == 0:
                m = k // d
                density = m * (irreducible_count(q, m) / q ** m)
                base = (1.0 - w) * float(q) ** (-m)
                power = (1.0 - w) * base ** (d - 1)
                acc += density * (float(q) ** (-m * (d - 1)) - power)
        lvals.append(acc)
    g = [1.0 + 0.0j]
    for m in range(1, n + 1):
        g.append(sum(lvals[k - 1] * g[m - k] for k in range(1, m + 1)) / m)
    return g[n]


def test_fq_scalar_pgf_matches_exact_pmf():
    pmf = fq_factor_pmf(2, 32)
    for w in (0.3 + 0.4j, cmath.exp(1.1j), -1.0 + 0.0j):
        direct = sum(m * w ** k for k, m in zip(pmf.support(), pmf.masses))
        assert abs(direct - _fq_pgf_scalar(2, 32, w)) < 1e-12


def test_fq_residue_error_halves_with_n():
    # the empirical residue approaches the limiting product at speed O(1/n)
    from modpoisson.symfunc import Alphabet, residue_product_eval
    alphabet = Alphabet.fq_limit(2)
    grid = [cmath.exp(2j * math.pi * j / 8) for j in range(8)]
    eps = {}
    for n in (128, 256, 512):
        lam = math.log(n) + r_q(2) + EULER_GAMMA
        eps[n] = max(abs(_fq_pgf_scalar(2, n, w) * cmath.exp(-lam * (w - 1.0))
                         - residue_product_eval(alphabet, w - 1.0))
                     for w in grid)
    for n in (128, 256):
        assert 0.3 <= eps[2 * n] / eps[n] <= 0.7


def test_modelspec_validation():
    with pytest.raises(ValueError):
        ModelSpec.ewens(0.0, 5)
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite theta"):
            ModelSpec.ewens(theta, 5)
    with pytest.raises(ValueError):
        ModelSpec.fq_poly(6, 2)
    with pytest.raises(ValueError):
        ModelSpec.omega(0)
    with pytest.raises(ValueError):
        ModelSpec.bernoulli([1.5])


def test_modelspec_binds_what_each_family_offers():
    for theta, n in ((2.0, 300), (0.37, 41), (1.5, 200)):
        assert ModelSpec.ewens(theta, n).tail() == theta * theta * zeta(2, theta + n)
    assert ModelSpec.weighted_perm([0.5, 2.0, 1.5], 3).alphabet(1e-9) == \
        Alphabet.ewens_limit(1.5, 1e-9)
    assert ModelSpec.bernoulli([0.25, 0.5]).alphabet(1e-12).weights == (0.25, 0.5)
    for spec in (ModelSpec.ewens(1.0, 5), ModelSpec.fq_poly(2, 4), ModelSpec.omega(10)):
        assert spec.alphabet(1e-12).weights == ()
    assert ModelSpec.fq_poly(2, 4).tail is None


CONSTRUCTOR_ARGS = {"bernoulli": ([0.25, 0.5],), "ewens": (1.5, 20),
                    "weighted_perm": ([2.0, 1.0, 1.0], 3), "fq_poly": (2, 4),
                    "omega": (30,)}


def test_every_modelspec_constructor_binds_law_rate_and_alphabet():
    constructors = {name for name, attr in vars(ModelSpec).items()
                    if isinstance(attr, classmethod)}
    assert constructors == set(CONSTRUCTOR_ARGS)
    for name, args in CONSTRUCTOR_ARGS.items():
        spec = getattr(ModelSpec, name)(*args)
        assert callable(spec.law) and callable(spec.rate) and callable(spec.alphabet)
        assert isinstance(spec.pmf(), Pmf)
        assert spec.rate(1e-12) > 0.0
        assert isinstance(spec.alphabet(1e-12), Alphabet)


# --- the measure contract --------------------------------------------------------

def test_exact_total_is_checked_exactly():
    # 1 - 10^-30 would pass a 1e-10 float check; Fraction masses must total 1
    short = (Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10 ** 30))
    with pytest.raises(ValueError):
        Pmf(0, short)
    with pytest.raises(ValueError):
        SignedMeasure(0, short)
    assert Pmf(0, (Fraction(1, 2), Fraction(1, 2))).total == Fraction(1)


def test_exact_masses_keep_tiny_edges_that_float_trims():
    exact = ewens_cycle_pmf(1, 300, rational=True)
    assert len(exact.masses) == 300
    assert exact.mass(300) == Fraction(1, math.factorial(300))  # far below 1e-320
    assert len(exact.to_float().masses) == 200


def test_mass_outside_support_follows_mass_type():
    exact = Pmf(2, (Fraction(1, 3), Fraction(2, 3)))
    approx = exact.to_float()
    for k in (0, 9):
        assert exact.mass(k) == 0 and type(exact.mass(k)) is Fraction
        assert approx.mass(k) == 0.0 and type(approx.mass(k)) is float


def test_float_measure_rejects_nan_mass():
    for masses in ((0.5, math.nan), (math.nan,)):
        with pytest.raises(ValueError, match="not 1"):
            SignedMeasure(0, masses)
    # trimming keeps a NaN edge, so the total check still sees it
    for masses in ((math.nan, 1.0), (1.0, math.nan), np.array([0.0, 1.0, math.nan, 0.0])):
        with pytest.raises(ValueError, match="not 1"):
            SignedMeasure.from_masses(0, masses)


def test_total_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        Pmf(0, (1.0,), total=5.0)


def test_masses_are_a_read_only_array():
    writable = np.array([0.25, 0.75])
    for pmf in (Pmf(0, writable), Pmf.from_masses(0, writable),
                Pmf(0, (Fraction(1, 4), Fraction(3, 4))), poisson_pmf(3.0)):
        assert isinstance(pmf.masses, np.ndarray) and pmf.masses.ndim == 1
        with pytest.raises(ValueError):
            pmf.masses[0] = 0.5
    writable[0] = 0.5  # the caller's own array stays writable


@pytest.mark.parametrize("masses, dtype", [
    ((0.25, 0.75), np.float64),
    (np.array([0.25, 0.75]), np.float64),
    ((0, 1), np.float64),
    (np.array([0, 1]), np.float64),
    ((Fraction(1, 4), 0.75), np.float64),
    ((Fraction(1, 4), Fraction(3, 4)), object),
    (np.array([Fraction(1, 4), Fraction(3, 4)], dtype=object), object),
])
def test_mass_dtype_is_object_only_when_every_mass_is_a_fraction(masses, dtype):
    for pmf in (Pmf(0, masses), Pmf.from_masses(0, masses)):
        assert pmf.masses.dtype == dtype
        assert isinstance(pmf.total, Fraction) == (dtype is object)


def test_mass_returns_a_python_float_or_fraction():
    for pmf in (Pmf(1, np.array([0.25, 0.75])), Pmf.from_masses(1, np.array([0.0, 0.25, 0.75]))):
        assert [type(pmf.mass(k)) for k in range(4)] == [float] * 4
        assert pmf.mass(pmf.offset) == 0.25
    exact = Pmf.from_masses(0, np.array([Fraction(0), Fraction(1, 3), Fraction(2, 3)]))
    assert exact.offset == 1
    assert [type(exact.mass(k)) for k in range(4)] == [Fraction] * 4


@pytest.mark.parametrize("empty", [(), np.array([]), np.array([], dtype=object)])
def test_an_empty_array_is_an_empty_mass_function(empty):
    for build in (SignedMeasure, Pmf, Pmf.from_masses):
        with pytest.raises(ValueError, match="empty mass function"):
            build(0, empty)


def test_rectify_positive_of_fraction_masses_has_float_masses():
    nu = SignedMeasure(0, (Fraction(-1, 10), Fraction(11, 10)))
    pmf = rectify_positive(nu)
    assert pmf.masses.dtype == np.float64 and isinstance(pmf.total, float)
    assert (pmf.offset, tuple(pmf.masses)) == (1, (1.1 - 0.1,))


def test_measures_compare_by_identity():
    a, b = Pmf(0, (0.5, 0.5)), Pmf(0, (0.5, 0.5))
    assert a == a and a != b
    assert len({a, b}) == 2
