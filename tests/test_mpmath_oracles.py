"""The special functions against mpmath at 40 digits, scheme masses at 50.

mpmath's zeta, primezeta, digamma and loggamma share no code with the
Euler-Maclaurin sums and the digamma and Stirling series they check here.
For large a, mpmath.zeta(s, a) at 40 digits is itself off by up to 1e-9
relative (a = 300), so there Hurwitz zeta is checked against a 60-digit
partial sum with a 14-term Euler-Maclaurin tail instead.
The integer sequences the oracles need (Moebius values, counts of monic
irreducible polynomials) are recomputed in this module from their
definitions, not taken from the library.  Scheme masses are checked against
`oracles.mp_scheme_masses`, the scheme's defining double sum in mpmath.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from modpoisson.models import gamma_theta, r_q
from modpoisson.schemes import scheme_measure
from modpoisson.specialfn import complex_log_gamma
from modpoisson.symfunc import (OMEGA_RESIDUE_RADIUS, Alphabet, power_sums,
                                prime_zeta, residue_coeffs, residue_product_eval, zeta)
from oracles import mp_scheme_masses

mpmath.mp.dps = 40


def _mobius(n):
    """mu(n) by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _irreducible_counts(q, m_max):
    """I_q(1..m_max) from sum_{d | m} d I_q(d) = q^m."""
    counts = [0] * (m_max + 1)
    for m in range(1, m_max + 1):
        counts[m] = (q ** m - sum(d * counts[d] for d in range(1, m) if m % d == 0)) // m
    return counts


def _rel(value, ref):
    return float(abs((value - ref) / ref))


# --- zeta and prime zeta -----------------------------------------------------------

def test_hurwitz_zeta_against_mpmath():
    worst = max(_rel(zeta(s, float(a)), mpmath.zeta(s, float(a)))
                for s in range(2, 61) for a in np.linspace(0.05, 20.0, 25))
    assert worst <= 1e-14


def _hurwitz_reference(s, a):
    """zeta(s, a) at 60 digits: 400 terms, then Euler-Maclaurin through B_28."""
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        t = a + 400
        total = mpmath.fsum((a + j) ** -s for j in range(400))
        total += t ** (1 - s) / (s - 1) + t ** -s / 2
        for k in range(1, 15):
            total += (mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
                      * mpmath.rf(s, 2 * k - 1) * t ** (-s - 2 * k + 1))
        return total


ZETA_ORDERS = [*range(2, 61), 2.5, 33.0]


@pytest.mark.parametrize("a", [50.0, 300.0, 1000.0, 2e4])
def test_hurwitz_zeta_large_a_against_independent_reference(a):
    worst = max(_rel(zeta(s, a), _hurwitz_reference(s, a)) for s in ZETA_ORDERS)
    assert worst <= 1e-15


def test_hurwitz_zeta_against_independent_reference_over_a():
    # for most of these a, a + j rounds once it enters the next binade
    # (0.37 + 1, 1019.17 + 5), which zeta must make up for
    grid = [*np.geomspace(0.05, 2e4, 10), 0.37, 1.2345, 1019.1706789837941]
    worst = max(_rel(zeta(s, float(a)), _hurwitz_reference(s, float(a)))
                for s in ZETA_ORDERS for a in grid)
    assert worst <= 1e-15


def test_prime_zeta_against_mpmath():
    worst = max(_rel(prime_zeta(s), mpmath.primezeta(s)) for s in range(2, 61))
    assert worst <= 1e-15


# --- power sums of the infinite alphabets -------------------------------------------

def _fq_side_sum(q, k):
    """sum_m I_q(m) q^(-k m), summed until the terms fall below 1e-45."""
    m_max = math.ceil(45 / ((k - 1) * math.log10(q))) + 1
    counts = _irreducible_counts(q, m_max)
    return mpmath.fsum(counts[m] * mpmath.mpf(q) ** (-k * m) for m in range(1, m_max + 1))


@pytest.mark.parametrize("alphabet, oracle", [
    *[(Alphabet.ewens_limit(theta), lambda k, th=theta: mpmath.mpf(th) ** k
       * mpmath.zeta(k, th)) for theta in (0.37, 1.0, 2.5, 40.0)],
    (Alphabet.omega_limit(), lambda k: mpmath.zeta(k) + mpmath.primezeta(k)),
    *[(Alphabet.fq_limit(q), lambda k, q=q: mpmath.zeta(k) + _fq_side_sum(q, k))
      for q in (2, 3, 4, 9)],
])
def test_infinite_power_sums_against_mpmath(alphabet, oracle):
    values = power_sums(alphabet, 40).values
    worst = max(_rel(values[k - 1], oracle(k)) for k in range(2, 41))
    assert worst <= alphabet.tolerance


@pytest.mark.parametrize("theta", [1e-300, 1e-12, 1e-3, 40.0])
def test_ewens_power_sums_against_mpmath_down_to_tiny_theta(theta):
    # p_k = sum_{j>=0} (theta/(theta+j))^k tends to 1 as theta -> 0
    values = power_sums(Alphabet.ewens_limit(theta), 8).values
    with mpmath.workdps(60):
        th = mpmath.mpf(theta)
        worst = max(_rel(values[k - 1], th ** k * mpmath.zeta(k, th)) for k in range(2, 9))
    assert worst <= 1e-14


# --- residue products of the infinite alphabets -------------------------------------

def _residue_grid(radii):
    return [r * cmath.exp(1j * angle) for r in radii
            for angle in (0.0, 0.9, 1.7, 2.6, math.pi, 4.4)]


def _harmonic_log_residue(z):
    """log prod_n (1 + z/n) e^(-z/n) = -gamma z - log Gamma(1 + z)."""
    return -mpmath.euler * z - mpmath.loggamma(1 + z)


def _fq_residue(q, z):
    """The harmonic part times exp(sum_m I_q(m) (log1p(x) - x)), x = z q^-m.

    Summed until |z|^2 q^-m, which bounds the terms, falls below 1e-45; the
    naive product of (1 + x)^I_q(m) would lose the rounding of 1 + x to the
    exponent I_q(m)."""
    z = mpmath.mpc(z)
    m_max = math.ceil((45 + 2 * math.log10(max(abs(z), 1.0))) / math.log10(q)) + 1
    counts = _irreducible_counts(q, m_max)
    xs = [z / mpmath.mpf(q) ** m for m in range(m_max + 1)]
    side = mpmath.fsum(counts[m] * (mpmath.log1p(xs[m]) - xs[m]) for m in range(1, m_max + 1))
    return mpmath.exp(_harmonic_log_residue(z) + side)


PRIMES_2000 = [p for p in range(2, 2001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
#: sum_{p > 2000} p^-k for k = 2..15
PRIME_TAILS = [mpmath.primezeta(k) - mpmath.fsum(mpmath.mpf(p) ** -k for p in PRIMES_2000)
               for k in range(2, 16)]


def _omega_residue(z):
    """The harmonic part times the primes p <= 2000 literally and the other
    primes by their log-series sum_k (-1)^(k-1) (P(k) - sum_{p<=2000} p^-k) z^k/k,
    whose terms fall below 1e-40 by k = 16 for |z| <= 1.25."""
    z = mpmath.mpc(z)
    acc = _harmonic_log_residue(z) + mpmath.fsum(mpmath.log1p(z / p) - z / p
                                                 for p in PRIMES_2000)
    acc += mpmath.fsum((-1) ** (k - 1) * tail * z ** k / k
                       for k, tail in enumerate(PRIME_TAILS, 2))
    return mpmath.exp(acc)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_fq_residue_product_against_mpmath(q):
    # an fq head from |z| > q/2 on: the tail is summed from its first degree
    grid = _residue_grid((0.3, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 7.0, 8.0, 12.0, 20.0))
    worst = max(_rel(residue_product_eval(Alphabet.fq_limit(q), z), _fq_residue(q, z))
                for z in grid)
    assert worst <= 1e-12


def test_omega_residue_product_against_mpmath_up_to_its_radius():
    grid = _residue_grid((0.3, 0.5, 1.0, 1.2, OMEGA_RESIDUE_RADIUS))
    alphabet = Alphabet.omega_limit()
    worst = max(_rel(residue_product_eval(alphabet, z), _omega_residue(z)) for z in grid)
    assert worst <= alphabet.tolerance


# --- mod-Poisson constants ---------------------------------------------------------

def test_gamma_theta_against_digamma():
    # gamma_theta = -theta psi(theta); 1e-15 absolute, and relative for
    # |gamma_theta| > 1, where a few ulps of the value reach 1e-15
    for theta in np.geomspace(1e-3, 1e3, 400):
        ref = -theta * mpmath.digamma(float(theta))
        assert float(abs(gamma_theta(float(theta)) - ref)) <= 1e-15 * max(1.0, abs(ref))


def test_r_q_against_its_series():
    def series(q):
        total, k = mpmath.mpf(0), 2
        while mpmath.mpf(q) ** (1 - k) > mpmath.mpf(10) ** -45:
            total -= _mobius(k) * mpmath.log1p(-mpmath.mpf(q) ** (1 - k)) / k
            k += 1
        return total

    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27):
        assert _rel(r_q(q), series(q)) <= 1e-12


# --- complex log gamma -------------------------------------------------------------

def _worst_log_gamma_error(zs):
    return max(float(abs(complex_log_gamma(z) - mpmath.loggamma(mpmath.mpc(z) + 1)))
               for z in zs)


def test_log_gamma_on_the_gamma_ratio_suite_arguments():
    # the arguments n + theta w - 1 of `verify --suite gamma-ratio`
    theta, rho = 1.0, 1.25
    grid = [rho * (i + 1) / 8.0 * cmath.exp(2j * math.pi * j / 8)
            for i in range(8) for j in range(8)]
    zs = [n + theta * w - 1.0 for n in range(5, 101) for w in grid]
    assert len(zs) == 6144
    assert _worst_log_gamma_error(zs) <= 1.6e-13


def test_log_gamma_on_the_recurrence_grid():
    zs = [complex(re, im) for re in np.linspace(1.25, 10.0, 8)
          for im in np.linspace(-5.0, 5.0, 7)]
    assert _worst_log_gamma_error(zs + [z - 1.0 for z in zs]) <= 1e-14


def test_log_gamma_for_small_arguments():
    zs = [complex(re, im) for re in np.linspace(0.01, 2.0, 25)
          for im in np.linspace(-2.0, 2.0, 9)]
    assert _worst_log_gamma_error(zs) <= 1e-14


# --- scheme masses -----------------------------------------------------------------

# the `sweep` benchmark's out-of-regime Bernoulli weights at seed 3 (lam = 896.5)
SEED3_WEIGHTS = np.random.default_rng(3).uniform(0.0, 0.3, 6000)


@pytest.mark.parametrize("alphabet, lam, r", [
    (Alphabet.omega_limit(), 12.0, 6),
    (Alphabet.fq_limit(3), 9.0, 5),
    (Alphabet.harmonic(), 7.5, 4),
    (Alphabet.harmonic(), 0.5, 6),
    (Alphabet.harmonic(), 0.1, 6),
    (Alphabet.harmonic(), 0.1, 8),
    (Alphabet.omega_limit(), 0.21, 8),
    (Alphabet.harmonic(), 1e-200, 2),
    (Alphabet.harmonic(), 1.07, 8),
    (Alphabet.finite([0.1, 0.2, 0.3]), 3.0, 3),
    (Alphabet.ewens_limit(2.0), 300.0, 8),
    (Alphabet.ewens_limit(1.3), 10.0, 5),
    (Alphabet.finite(SEED3_WEIGHTS), math.fsum(SEED3_WEIGHTS.tolist()), 8),
], ids=["omega", "fq3", "harmonic", "harmonic-small-lam", "harmonic-0.1-r6",
        "harmonic-0.1-r8", "omega-0.21-r8", "harmonic-1e-200", "harmonic-1.07-r8",
        "weights", "ewens2", "ewens1.3", "seed3"])
def test_scheme_masses_against_the_50_digit_double_sum(alphabet, lam, r):
    rc = residue_coeffs(alphabet, r, lam)
    nu = scheme_measure(rc)
    want = mp_scheme_masses(rc.lam, rc.b, nu.support())
    errors = [abs(got - ref) for got, ref in zip(nu.masses.tolist(), want)]
    assert float(max(errors)) <= 1e-13
    assert max(float(e / abs(ref)) for e, ref in zip(errors, want) if abs(ref) > 1e-300) <= 1e-11
