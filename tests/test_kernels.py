"""Bit identity of the exact model kernels with the reference kernels.

The integer F_q recursion, the integer-numerator rational fold, the numpy
h_n recursion in both modes, the grouped omega sieve, the numpy TV and
Kolmogorov distances and the one head/tail split of the alphabets must
give exactly (==, not approx) what the reference kernels in oracles.py
give.  The float
Bernoulli product tree sums in another order than the sequential fold it
replaced, so it is held to exact laws instead: it must be at least as
accurate as that fold, and within 3e-15 relative per mass.  Its sheared
level merge, the map-based power sums, Newton sums and classical bounds,
and the suites' deferred failure messages must give exactly what the
per-element forms they replaced (kept below) give.
"""

import cmath
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modpoisson import models
from modpoisson._arith import primes_up_to
from modpoisson.metrics import (chen_stein_bound, kolmogorov, lecam_bound, total_variation,
                                verify_bounds)
from modpoisson.models import (RATIONAL_FOLD_BUDGET, ModelSpec, Pmf, bernoulli_sum_pmf,
                               ewens_cycle_pmf, fq_factor_pmf, omega_pmf,
                               omega_values, weighted_perm_cycle_pmf,
                               weighted_perm_normalization)
from modpoisson.schemes import poisson_pmf, scheme_measures
from modpoisson.suites import SuiteResult, random_bernoulli_instances
from modpoisson.symfunc import (OMEGA_RESIDUE_RADIUS, Alphabet, PowerSums,
                                elementary_from_power, power_sums,
                                residue_coeffs, residue_product_eval)
from oracles import (reference_bernoulli_fold_float, reference_bernoulli_rational_pmf,
                     reference_chen_stein, reference_fq_factor_pmf, reference_kolmogorov,
                     reference_omega_pmf, reference_omega_values,
                     reference_power_sums_infinite, reference_residue_product_eval,
                     reference_total_variation,
                     reference_weighted_perm_cycle_pmf,
                     reference_weighted_perm_normalization)
from test_cli_golden import WEIGHTS


def assert_same(got, want):
    assert got.offset == want.offset
    assert tuple(got.masses) == tuple(want.masses)
    assert [type(m) for m in got.masses.tolist()] == [type(m) for m in want.masses.tolist()]


@pytest.mark.parametrize("q, n", [(2, 1), (2, 12), (2, 40), (3, 24), (4, 15), (9, 7)])
def test_fq_factor_pmf_matches_fraction_recursion(q, n):
    exact = reference_fq_factor_pmf(q, n, rational=True)
    assert_same(fq_factor_pmf(q, n, rational=True), exact)
    assert_same(fq_factor_pmf(q, n), exact.to_float())  # the reference float mode


def test_primes_up_to_matches_trial_division():
    for n in range(301):
        want = [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        assert primes_up_to(n).tolist() == want


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


def _dyadic_thetas(n):
    return [Fraction(1 + 7 * k % 13, 8) for k in range(1, n + 1)]


@pytest.mark.parametrize("theta_seq, n",
                         [(_dyadic_thetas(n), n) for n in (1, 2, 17, 60)]
                         + [(_theta_seqs(6)["random"], 6)],
                         ids=["dyadic_1", "dyadic_2", "dyadic_17", "dyadic_60", "floats_6"])
def test_rational_weighted_perm_matches_fraction_loop(theta_seq, n):
    assert_same(weighted_perm_cycle_pmf(theta_seq, n, rational=True),
                reference_weighted_perm_cycle_pmf(theta_seq, n, rational=True))
    got = weighted_perm_normalization(theta_seq, n, rational=True)
    want = reference_weighted_perm_normalization(theta_seq, n, rational=True)
    assert type(got) is type(want) is Fraction
    assert got == want


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


def test_rational_fold_refuses_inputs_over_its_bit_budget():
    weights = [Fraction(1, 2 ** 60)] * 499  # 500 x 499 x 61 bits
    assert RATIONAL_FOLD_BUDGET < 500 * 499 * 61
    with pytest.raises(ValueError, match=f"budget {RATIONAL_FOLD_BUDGET}"):
        bernoulli_sum_pmf(weights, rational=True)
    assert bernoulli_sum_pmf(weights[:100], rational=True).total == 1


@pytest.mark.parametrize("theta", [1, Fraction(37, 32), 1.2345])
def test_rational_ewens_matches_fraction_fold(theta):
    th = Fraction(theta)
    inner = reference_bernoulli_rational_pmf([th / (th + i) for i in range(1, 60)])
    got = ewens_cycle_pmf(theta, 60, rational=True)
    assert got.offset == inner.offset + 1
    assert tuple(got.masses) == tuple(inner.masses)


# --- float Bernoulli fold against exact laws ------------------------------------

#: fixed-point scale of the dyadic integer fold: each step floors, so every
#: mass is off by at most n 2^-1100, far below 1e-280 x 1e-17
_FIXED_BITS = 1100


def _dyadic(n):
    """n seeded weights k/1024 <= 0.05, folded on integers over 2^_FIXED_BITS."""
    numerators = np.random.default_rng(n).integers(1, 52, size=n).tolist()
    masses = [1 << _FIXED_BITS]
    for a in numerators:
        masses = [(c * (1024 - a) + b * a) >> 10
                  for c, b in zip(masses + [0], [0] + masses)]
        while not masses[-1]:
            masses.pop()
    return [a / 1024 for a in numerators], Fraction(1, 1 << _FIXED_BITS), 0, masses


def _golden_weights():
    weights = [float(w) for w in WEIGHTS.split(",")]
    exact = bernoulli_sum_pmf(weights, rational=True)
    return weights, 1, exact.offset, exact.masses


def _ewens(theta, n):
    exact = ewens_cycle_pmf(theta, n, rational=True)  # 1 + the fold of theta/(theta + i)
    return [theta / (theta + i) for i in range(1, n)], 1, exact.offset - 1, exact.masses


def _stirling(n):
    """The Ewens theta = 1 law |s(n, k)| / n!, from the rising factorial
    x (x + 1) ... (x + n - 1); the fold's mass at k is that law's at k + 1."""
    counts = [1]
    for i in range(n):
        counts = [c * i + b for c, b in zip(counts + [0], [0] + counts)]
    return ([1.0 / (1.0 + i) for i in range(1, n)], Fraction(1, math.factorial(n)), 0,
            counts[1:])


def _worst_relative_error(pmf, unit, offset, exact):
    """Worst |pmf(k) - exact(k)| / exact(k) over exact masses above 1e-280,
    exact(offset + j) being unit * exact[j], in integer arithmetic."""
    worst = 0.0
    for k, c in enumerate(exact, offset):
        num, den = c.numerator * unit.numerator, c.denominator * unit.denominator
        if num * 10 ** 280 > den:
            got_num, got_den = float(pmf.mass(k)).as_integer_ratio()
            worst = max(worst, abs(got_num * den - num * got_den) / (num * got_den))
    return worst


@pytest.mark.parametrize("make, args", [
    *[pytest.param(_dyadic, (n,), id=f"dyadic_{n}") for n in (300, 1000, 3000)],
    pytest.param(_golden_weights, (), id="golden_weights"),
    *[pytest.param(_ewens, (theta, n), id=f"ewens_{theta}_{n}")
      for theta, n in [(1.5, 200), (1, 120), (0.5, 100), (1, 200), (2, 300)]],
    *[pytest.param(_stirling, (n,), id=f"stirling_{n}") for n in (200, 800, 1600)],
])
def test_float_fold_is_at_least_as_accurate_as_the_sequential_fold(make, args):
    weights, *law = make(*args)
    tree = _worst_relative_error(bernoulli_sum_pmf(weights), *law)
    sequential = _worst_relative_error(reference_bernoulli_fold_float(weights), *law)
    assert tree <= sequential
    assert tree <= 3e-15


_WEIGHT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.lists(_WEIGHT, max_size=300))
@example([])
@example([0.3])
def test_float_fold_matches_the_sequential_fold(weights):
    tree, sequential = bernoulli_sum_pmf(weights), reference_bernoulli_fold_float(weights)
    for k in range(min(tree.offset, sequential.offset),
                   max(tree.support().stop, sequential.support().stop)):
        a, b = tree.mass(k), sequential.mass(k)
        if max(a, b) > 1e-280:
            assert abs(a - b) <= 1e-13 * max(a, b), (k, a, b)


@pytest.mark.parametrize("weights", [[math.nan], [0.2, 1.5, math.nan], [0.1, -1e-300],
                                     [0.5, math.inf]])
def test_float_fold_names_the_first_bad_weight(weights):
    with pytest.raises(ValueError) as want:
        reference_bernoulli_fold_float(weights)
    with pytest.raises(ValueError) as got:
        bernoulli_sum_pmf(weights)
    assert str(got.value) == str(want.value)


def _per_j_product_tree(weights):
    """The product tree with its levels merged by the per-j slice loop,
    verbatim: the reference for the sheared level merge."""
    p = np.asarray(weights, dtype=float)
    rows = np.stack([1.0 - p, p], axis=1) if p.size else np.eye(1, 2)
    while len(rows) > 1 and rows.shape[1] < 64:
        if len(rows) % 2:
            rows = np.vstack([rows, np.eye(1, rows.shape[1])])
        a, b, w = rows[0::2], rows[1::2], rows.shape[1]
        rows = np.zeros((len(a), 2 * w - 1))
        for j in range(w):
            rows[:, j:j + w] += a[:, j:j + 1] * b
    parts = [(0, row) for row in rows]
    while len(parts) > 1:
        merged = []
        for (o1, r1), (o2, r2) in zip(parts[0::2], parts[1::2]):
            row = np.convolve(r1, r2)
            kept = np.flatnonzero(row > models._UNDERFLOW)
            merged.append((o1 + o2 + int(kept[0]), row[kept[0]:kept[-1] + 1]))
        parts = merged + parts[len(merged) * 2:]
    offset, row = parts[0]
    return Pmf.from_masses(offset, row.tolist())


#: factors past which the w = 2 level of the fold spills into a second chunk
#: of the largest block
_W2_CHUNK = 2 * (models._FOLD_BLOCK_BYTES[1] // 8 // (2 * 2 * 2))


@pytest.mark.parametrize("n", [*range(71), 255, 256, 257, 500, 1500,
                               _W2_CHUNK + 1, 2 * _W2_CHUNK + 3])
def test_float_fold_has_the_bits_of_the_per_j_level_loop(n):
    rng = np.random.default_rng(n)
    weights = rng.uniform(0.0, 0.3, size=n)
    weights[rng.integers(0, max(n, 1), size=n // 4)] = rng.choice([0.0, 1.0], size=n // 4)
    got, want = bernoulli_sum_pmf(weights.tolist()), _per_j_product_tree(weights.tolist())
    assert got.offset == want.offset
    assert tuple(got.masses) == tuple(want.masses)


def test_float_fold_of_1e5_weights_takes_under_0_4_s():
    weights = np.random.default_rng(11).uniform(0.0, 0.05, size=10 ** 5).tolist()
    start = time.perf_counter()
    bernoulli_sum_pmf(weights)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.4, f"took {elapsed:.2f}s"


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


def test_chen_stein_rows_match_the_suites_own_path():
    rng = np.random.default_rng(2024)
    for wts in random_bernoulli_instances(rng, 50):
        chen, lecam = verify_bounds(ModelSpec.bernoulli(wts), [],
                                    which=("chen-stein", "lecam"))
        assert chen.tv == lecam.tv
        assert (chen.tv, chen.bound, lecam.bound, chen.holds, lecam.holds) == \
            reference_chen_stein(wts)


INFINITE_ALPHABETS = {
    **{f"ewens_{th}": Alphabet.ewens_limit(th) for th in (0.37, 1.0, 2.5)},
    "omega": Alphabet.omega_limit(),
    **{f"fq_{q}": Alphabet.fq_limit(q) for q in (2, 3, 4)},
}
FINITE_ALPHABETS = {
    "degenerate": Alphabet.finite([0.5, 0.25, 1, 0]),
    "empty": Alphabet.finite([]),
    "floats_40": Alphabet.finite(_float_weights(40)),
}
# |z| <= 20 on six rays, z = 0 included
Z_GRID = [radius * cmath.exp(1j * angle) for radius in (0.0, 0.3, 1.0, 2.5, 7.0, 20.0)
          for angle in (0.0, 0.9, 1.7, 2.6, math.pi, 4.4)]


@pytest.mark.parametrize("alphabet", INFINITE_ALPHABETS.values(), ids=INFINITE_ALPHABETS)
def test_infinite_power_sums_match_per_kind_formulas(alphabet):
    got = power_sums(alphabet, 40).values
    assert got == reference_power_sums_infinite(alphabet, 40)


@pytest.mark.parametrize("alphabet", [*INFINITE_ALPHABETS.values(), *FINITE_ALPHABETS.values()],
                         ids=[*INFINITE_ALPHABETS, *FINITE_ALPHABETS])
def test_residue_product_matches_per_kind_split(alphabet):
    # except where the product has changed on purpose: an fq head (q < 2|z|)
    # now sums its tail directly, checked against mpmath in
    # test_mpmath_oracles, and omega refuses |z| past its radius
    for z in Z_GRID:
        if ((alphabet.kind == "fq_limit" and alphabet.q < 2.0 * abs(z))
                or (alphabet.kind == "omega_limit" and abs(z) > OMEGA_RESIDUE_RADIUS)):
            continue
        assert residue_product_eval(alphabet, z) == reference_residue_product_eval(alphabet, z)


# --- per-element forms replaced by map passes ----------------------------------

def _generator_power_sums(weights, kmax):
    return tuple(math.fsum(w ** k for w in weights) for k in range(1, kmax + 1))


def _generator_elementary(p, rmax):
    e = [0.0] * (rmax + 1)
    e[0] = 1.0
    for k in range(1, rmax + 1):
        e[k] = math.fsum((-1) ** (i - 1) * p[i - 1] * e[k - i] for i in range(1, k + 1)) / k
    return e


def _generator_chen_stein(weights):
    weights = [float(p) for p in weights]
    lam = math.fsum(weights)
    return -math.expm1(-lam) / lam * math.fsum(p * p for p in weights)


def _seeded_weight_sets():
    rng = np.random.default_rng(16)
    sets = [rng.uniform(0.0, 1.0, size=int(rng.integers(1, 40))).tolist() for _ in range(30)]
    return sets + [[0.0, 1.0, 0.5], [1.0], [0.0, 0.0, 0.25], _float_weights(500)]


def test_map_power_and_newton_sums_match_the_generator_forms():
    for weights in _seeded_weight_sets():
        ps = power_sums(Alphabet.finite(weights), 30)
        assert ps.values == _generator_power_sums(weights, 30)
        signed = (0.0,) + ps.values[1:]  # the virtual alphabet too, whose p_1 is 0
        for values in (ps.values, signed):
            assert elementary_from_power(PowerSums(values), 30) == \
                _generator_elementary(values, 30)


def test_map_classical_bounds_match_the_generator_forms():
    for weights in _seeded_weight_sets():
        assert lecam_bound(weights) == math.fsum(float(p) ** 2 for p in weights)
        if math.fsum(weights) > 0.0:
            assert chen_stein_bound(weights) == _generator_chen_stein(weights)


def test_suite_messages_are_formatted_as_the_f_strings_were():
    tv, bound, n, r = 1.23456789e-7, 9.87e-300, 431, 6
    z, x, m = complex(-2.5, 0.375), np.float64(-3.5), 12
    cases = [
        (("tv={:.3e} > bound={:.3e} (n={}, r={})", tv, bound, n, r),
         f"tv={tv:.3e} > bound={bound:.3e} (n={n}, r={r})"),
        (("hermite mismatch m={} z={}: {:.2e}", m, z, abs(z)),
         f"hermite mismatch m={m} z={z}: {abs(z):.2e}"),
        (("complex Cramer margin < 0 at m={}, z={:.2f}", m, z),
         f"complex Cramer margin < 0 at m={m}, z={z:.2f}"),
        (("multiplication residual m={} a={} x={:.2f}", m, 0.5, x),
         f"multiplication residual m={m} a={0.5} x={x:.2f}"),
        (("log-gamma recurrence residual {:.2e} at {}", tv, z),
         f"log-gamma recurrence residual {tv:.2e} at {z}"),
        (("b_1 != 0 from a virtual alphabet",), "b_1 != 0 from a virtual alphabet"),
    ]
    result = SuiteResult("formatting")
    result.expect(True, "{:.3e}", None)  # a passing check formats nothing
    for args, _ in cases:
        result.expect(False, *args)
    assert result.failures == [want for _, want in cases]
    assert (result.checks, result.passed) == (len(cases) + 1, False)
