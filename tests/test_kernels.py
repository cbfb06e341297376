"""Bit identity of the exact model kernels with the reference kernels.

The integer F_q recursion, the integer-numerator rational fold, the numpy
h_n recursion, the grouped omega sieve and the numpy TV and Kolmogorov
distances must give exactly (==, not approx) what the pure-Python kernels
in oracles.py give.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from modpoisson.metrics import kolmogorov, total_variation
from modpoisson.models import (Pmf, bernoulli_sum_pmf, ewens_cycle_pmf, fq_factor_pmf,
                               omega_pmf, omega_values, weighted_perm_cycle_pmf,
                               weighted_perm_normalization)
from modpoisson.schemes import poisson_pmf, scheme_measures
from modpoisson.suites import random_bernoulli_instances
from modpoisson.symfunc import Alphabet, residue_coeffs
from oracles import (reference_bernoulli_rational_pmf, reference_fq_factor_pmf,
                     reference_kolmogorov, reference_omega_pmf,
                     reference_omega_values, reference_total_variation,
                     reference_weighted_perm_cycle_pmf,
                     reference_weighted_perm_normalization)


def assert_same(got, want):
    assert got.offset == want.offset
    assert got.masses == want.masses
    assert [type(m) for m in got.masses] == [type(m) for m in want.masses]


@pytest.mark.parametrize("q, n", [(2, 1), (2, 12), (2, 40), (3, 24), (4, 15), (9, 7)])
def test_fq_factor_pmf_matches_fraction_recursion(q, n):
    exact = reference_fq_factor_pmf(q, n, rational=True)
    assert_same(fq_factor_pmf(q, n, rational=True), exact)
    assert_same(fq_factor_pmf(q, n), exact.to_float())  # the reference float mode


# 1368, 1369 = 37^2 and 1370 sit on the sqrt(N) split of the sieve
@pytest.mark.parametrize("big_n", [1, 2, 3, 4, 10, 120, 1024, 1368, 1369, 1370,
                                   12345, 100003])
def test_omega_matches_per_prime_sieve(big_n):
    got = omega_values(big_n)
    want = reference_omega_values(big_n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert_same(omega_pmf(big_n), reference_omega_pmf(big_n))


def _theta_seqs(n):
    rng = np.random.default_rng(n)
    return {"random": rng.uniform(0.05, 3.0, size=n).tolist(), "constant": [1.3] * n}


@pytest.mark.parametrize("n", [1, 2, 6, 50, 120])
@pytest.mark.parametrize("kind", ["random", "constant"])
def test_float_weighted_perm_matches_loop(n, kind):
    theta_seq = _theta_seqs(n)[kind]
    assert_same(weighted_perm_cycle_pmf(theta_seq, n),
                reference_weighted_perm_cycle_pmf(theta_seq, n))
    got = weighted_perm_normalization(theta_seq, n)
    assert type(got) is float
    assert got == reference_weighted_perm_normalization(theta_seq, n)


def _float_weights(count):
    return np.random.default_rng(7).uniform(0.0, 0.05, size=count).tolist()


@pytest.mark.parametrize("weights", [[0.5, 0.25, 1, 0], [], [1, 1], _float_weights(40)],
                         ids=["degenerate", "empty", "ones", "floats_40"])
def test_rational_fold_matches_fraction_fold(weights):
    assert_same(bernoulli_sum_pmf(weights, rational=True),
                reference_bernoulli_rational_pmf(weights))


def test_rational_fold_rejects_weight_outside_unit_interval():
    with pytest.raises(ValueError, match="Bernoulli weight 3/2 outside"):
        bernoulli_sum_pmf([0.5, 1.5], rational=True)


@pytest.mark.parametrize("theta", [1, Fraction(37, 32), 1.2345])
def test_rational_ewens_matches_fraction_fold(theta):
    th = Fraction(theta)
    inner = reference_bernoulli_rational_pmf([th / (th + i) for i in range(1, 60)])
    got = ewens_cycle_pmf(theta, 60, rational=True)
    assert got.offset == inner.offset + 1
    assert got.masses == inner.masses


def test_omega_pmf_peak_memory_is_about_two_bytes_per_integer():
    omega_pmf(1000)  # warm-up: first-call allocations are not the sieve's
    tracemalloc.start()
    try:
        omega_pmf(10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _distance_pairs():
    """theorem-b instances against their order-0..6 schemes, a rational pmf
    against a float one, and random pmfs on shifted windows."""
    rng = np.random.default_rng(7)
    pairs = []
    for wts in random_bernoulli_instances(rng, 8):
        wts = wts.tolist()
        rc = residue_coeffs(Alphabet.finite(wts), 6, math.fsum(wts))
        pmf = bernoulli_sum_pmf(wts)
        pairs += [(pmf, nu) for nu in scheme_measures(rc, range(7))]
    pairs.append((ewens_cycle_pmf(Fraction(3, 2), 40, rational=True), poisson_pmf(5.0)))
    for _ in range(20):
        raw = [rng.uniform(0.0, 1.0, size=int(rng.integers(1, 30))) for _ in range(2)]
        pairs.append(tuple(Pmf(int(rng.integers(0, 5)), tuple((r / r.sum()).tolist()))
                           for r in raw))
    return pairs


def test_distances_match_the_list_versions():
    for a, b in _distance_pairs():
        for x, y in ((a, b), (b, a)):
            assert total_variation(x, y) == reference_total_variation(x, y)
            assert kolmogorov(x, y) == reference_kolmogorov(x, y)
