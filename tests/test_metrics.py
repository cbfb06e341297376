import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoisson import io
from modpoisson.metrics import (InapplicableBoundError, chen_stein_bound,
                                corollary_bound, kolmogorov, lecam_bound,
                                theorem_a_bound, theorem_b_bound,
                                theorem_c_bound, total_variation,
                                two_step_bound, verify_bounds, CSV_HEADER)
from modpoisson.models import ModelSpec, Pmf, bernoulli_sum_pmf
from modpoisson.schemes import poisson_pmf
from modpoisson.suites import random_bernoulli_instances


def random_pmf(rng, size=10):
    raw = rng.uniform(0.0, 1.0, size=size)
    return Pmf(int(rng.integers(0, 3)), tuple((raw / raw.sum()).tolist()))


# --- distances -------------------------------------------------------------------

def test_tv_between_point_masses():
    assert total_variation(Pmf(0, (1.0,)), Pmf(1, (1.0,))) == 1.0


def test_tv_of_identical_measures_is_zero():
    pmf = bernoulli_sum_pmf([0.3, 0.4])
    assert total_variation(pmf, pmf) == 0.0


def test_tv_bernoulli_half_versus_poisson():
    # direct summation oracle: (1/2)(|0.5-e^-0.5| + |0.5-0.5e^-0.5| + tail)
    e = math.exp(-0.5)
    oracle = 0.5 * ((e - 0.5) + (0.5 - 0.5 * e) + (1.0 - 1.5 * e))
    got = total_variation(bernoulli_sum_pmf([0.5]), poisson_pmf(0.5))
    assert got == pytest.approx(oracle, abs=1e-14)


def test_tv_rejects_unnormalized_input():
    bad = Pmf.__new__(Pmf)
    object.__setattr__(bad, "offset", 0)
    object.__setattr__(bad, "masses", (0.4, 0.4))
    object.__setattr__(bad, "total", 0.8)
    with pytest.raises(ValueError):
        total_variation(bad, poisson_pmf(1.0))
    # just outside the 1e-10 normalization contract
    near = Pmf.__new__(Pmf)
    object.__setattr__(near, "offset", 0)
    object.__setattr__(near, "masses", (0.5, 0.5 + 1e-8))
    object.__setattr__(near, "total", 1.0 + 1e-8)
    for distance in (total_variation, kolmogorov):
        with pytest.raises(ValueError):
            distance(near, poisson_pmf(1.0))
        with pytest.raises(ValueError):
            distance(poisson_pmf(1.0), near)


def test_tv_rejects_nan_total():
    bad = Pmf.__new__(Pmf)
    object.__setattr__(bad, "offset", 0)
    object.__setattr__(bad, "masses", (0.5, math.nan))
    object.__setattr__(bad, "total", math.nan)
    for distance in (total_variation, kolmogorov):
        with pytest.raises(ValueError):
            distance(bad, poisson_pmf(1.0))
        with pytest.raises(ValueError):
            distance(poisson_pmf(1.0), bad)


def test_tv_accepts_rational_measures():
    from fractions import Fraction
    exact = Pmf(0, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
    approx = bernoulli_sum_pmf([0.5, 0.5])
    assert total_variation(exact, approx) < 1e-15


def test_kolmogorov_point_masses():
    assert kolmogorov(Pmf(0, (1.0,)), Pmf(1, (1.0,))) == 1.0
    pmf = bernoulli_sum_pmf([0.3])
    assert kolmogorov(pmf, pmf) == 0.0


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_kolmogorov_below_tv_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b = random_pmf(rng), random_pmf(rng)
    tv = total_variation(a, b)
    assert kolmogorov(a, b) <= tv + 1e-12
    assert abs(total_variation(b, a) - tv) < 1e-15


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_tv_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_pmf(rng) for _ in range(3))
    assert total_variation(a, c) <= (total_variation(a, b)
                                     + total_variation(b, c) + 1e-12)


# --- classical bounds --------------------------------------------------------------

def test_lecam_values():
    assert lecam_bound([0.5, 0.5]) == 0.5
    assert lecam_bound([1.0 / i for i in (1, 2, 3)]) == pytest.approx(49.0 / 36.0)
    assert lecam_bound([]) == 0.0


def test_chen_stein_single_weight():
    expected = (1.0 - math.exp(-0.5)) / 0.5 * 0.25
    assert chen_stein_bound([0.5]) == pytest.approx(expected, abs=1e-15)


def test_chen_stein_large_lambda_limit():
    # for large lam the factor (1 - e^-lam) is 1 up to e^-lam
    weights = [0.01] * 10 ** 4  # lam = 100, sigma2 = 1
    lam, s2 = 100.0, 1.0
    assert chen_stein_bound(weights) == pytest.approx(s2 / lam, rel=1e-3)


def test_chen_stein_rejects_empty():
    with pytest.raises(ValueError):
        chen_stein_bound([])


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=30))
def test_chen_stein_below_lecam(weights):
    assert chen_stein_bound(weights) <= lecam_bound(weights) + 1e-15


# --- order-r bounds -----------------------------------------------------------------

def test_theorem_a_arithmetic():
    assert theorem_a_bound(1e4, 1.0, 3) == pytest.approx(570.0 * 0.04 ** 4, rel=1e-12)


def test_theorem_a_boundary_is_signaled():
    with pytest.raises(InapplicableBoundError):
        theorem_a_bound(16.0, 1.0, 2)  # eps = 1 exactly


def test_theorem_a_decreases_in_r():
    vals = [theorem_a_bound(100.0, 1.0, r) for r in range(1, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_theorem_b_arithmetic():
    eta = 4.0 * math.sqrt(math.e) / 100.0
    assert theorem_b_bound(1e4, 1.0, 3) == pytest.approx(570.0 * eta ** 4, rel=1e-12)


def test_theorem_b_strictly_decreases_in_r():
    vals = [theorem_b_bound(500.0, 1.5, r) for r in range(1, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_theorem_b_boundary_is_signaled():
    s2 = 1.3
    with pytest.raises(InapplicableBoundError):
        theorem_b_bound(16.0 * math.e * s2, s2, 1)


def test_theorem_b_equals_theorem_a_with_scaled_tau():
    for lam, s2, r in ((200.0, 1.0, 2), (1e4, 2.5, 5)):
        tau = math.sqrt(math.e * s2)
        assert theorem_b_bound(lam, s2, r) == pytest.approx(
            theorem_a_bound(lam, tau, r), rel=1e-14)


def test_corollary_reduces_to_theorem_b():
    assert corollary_bound(1e4, 1.0, 1, 0.01) == theorem_b_bound(1e4, 1.0, 1)
    assert corollary_bound(1e4, 1.0, 4, 0.0) == theorem_b_bound(1e4, 1.0, 4)


def test_corollary_r2_term():
    lam, s2, rn = 1e4, 1.0, 1e-3
    expected = theorem_b_bound(lam, s2, 2) + (4.0 + (2.0 * lam + 1.0) * 2.0) * rn
    assert corollary_bound(lam, s2, 2, rn) == pytest.approx(expected, rel=1e-14)


def test_theorem_c_reduces_to_theorem_b():
    assert theorem_c_bound(1e4, 1.0, 2, 0.0, 2.0) == theorem_b_bound(1e4, 1.0, 2)


def test_theorem_c_large_rho_limit():
    lam, eps = 1e4, 1e-6
    got = theorem_c_bound(lam, 1.0, 1, eps, 1e6)
    limit = theorem_b_bound(lam, 1.0, 1) + eps * (1.0 + lam)
    assert got == pytest.approx(limit, rel=1e-5)


def test_theorem_c_arithmetic():
    lam, s2, r, eps, rho = 1e4, 1.0, 1, 1e-6, 2.0
    eta = 4.0 * math.sqrt(math.e / lam)
    expected = 570.0 * eta ** 2 + eps * (2.0 + lam)
    assert theorem_c_bound(lam, s2, r, eps, rho) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(InapplicableBoundError):
        theorem_c_bound(lam, s2, r, eps, 1.0)


def test_two_step_bound():
    assert two_step_bound(0.0, 0.0, 5.0) == 0.0
    assert two_step_bound(0.3, 0.0, 0.0) == pytest.approx(0.15)
    coeff = math.pi / (2.0 * math.sqrt(3.0))
    assert coeff <= 0.9069
    assert two_step_bound(1.0, 1.0, 2.0) == pytest.approx(0.5 + 3.0 * coeff)


# --- report sweeps -------------------------------------------------------------------

def test_verify_bounds_bernoulli_rows_hold():
    rng = np.random.default_rng(5)
    for wts in random_bernoulli_instances(rng, 10):
        spec = ModelSpec.bernoulli(wts.tolist())
        rows = verify_bounds(spec, range(1, 7), which=("theorem-b",))
        assert len(rows) == 6
        for row in rows:
            assert row.holds is True
            assert row.slack >= 1.0


def test_verify_bounds_chen_stein_rows():
    spec = ModelSpec.bernoulli([0.05] * 40)
    rows = verify_bounds(spec, [1, 2], which=("chen-stein", "lecam"))
    assert [row.name for row in rows] == ["chen-stein", "lecam"]
    assert all(row.r == 0 and row.holds for row in rows)


def test_verify_bounds_ewens_tv_improves_with_order():
    spec = ModelSpec.ewens(1.0, 10 ** 4)
    rows = verify_bounds(spec, [0, 2], which=("theorem-b",))
    tv = {row.r: row.tv for row in rows}
    assert tv[2] < tv[0]
    # lam ~ 9.8 is far below 16 e sigma^2: rows are flagged, not failed
    assert all(row.holds is None for row in rows)


def test_verify_bounds_fq_and_omega_sweeps():
    for spec in (ModelSpec.fq_poly(2, 12), ModelSpec.omega(2000)):
        rows = verify_bounds(spec, [0, 2], which=("theorem-b",))
        tv = {row.r: row.tv for row in rows}
        assert 0.0 < tv[2] < tv[0] < 1.0
        assert all(row.holds is None for row in rows)  # lam too small here


def test_verify_bounds_corollary_with_supplied_tail():
    rng = np.random.default_rng(5)
    wts = random_bernoulli_instances(rng, 1)[0]
    spec = ModelSpec.bernoulli(wts.tolist())
    rows = verify_bounds(spec, [2, 3], which=("corollary",), tail_rn=1e-9)
    for row in rows:
        assert row.holds is True
        assert row.bound >= theorem_b_bound(row.lam, row.sigma2, row.r)


def test_verify_bounds_rejects_negative_order():
    with pytest.raises(ValueError):
        verify_bounds(ModelSpec.bernoulli([0.1]), [-1, 2])


@pytest.mark.parametrize("theta, n", [(1.0, 3), (1.0, 50), (1.7, 120)])
def test_verify_bounds_constant_weighted_perm_matches_ewens(theta, n):
    # same rate, alphabet and scheme; only the two exact laws differ in bits
    which = ("theorem-a", "theorem-b", "corollary", "chen-stein")
    rows = [verify_bounds(spec, range(5), which=which, tail_rn=1e-6)
            for spec in (ModelSpec.weighted_perm([theta] * n, n), ModelSpec.ewens(theta, n))]
    assert len(rows[0]) == len(rows[1]) == 16
    for got, want in zip(*rows):
        assert (got.r, got.lam, got.sigma2, got.bound, got.name, got.holds) == \
            (want.r, want.lam, want.sigma2, want.bound, want.name, want.holds)
        assert got.tv == pytest.approx(want.tv, rel=0.0, abs=1e-12)


def test_verify_bounds_puts_per_r_rows_first():
    spec = ModelSpec.bernoulli([0.02] * 50)
    for which in itertools.permutations(("lecam", "theorem-b", "chen-stein", "corollary")):
        rows = verify_bounds(spec, [1, 2], which=which, tail_rn=1e-9)
        per_r = [name for name in which if name in ("theorem-b", "corollary")]
        singles = [name for name in which if name in ("chen-stein", "lecam")]
        assert [(row.name, row.r) for row in rows] == (
            [(name, r) for name in per_r for r in (1, 2)]
            + [(name, 0) for name in singles])


def test_verify_bounds_reads_no_order_for_order_zero_names():
    rows = verify_bounds(ModelSpec.bernoulli([0.1, 0.2, 0.05]), [-1], which=("lecam",))
    assert [(row.name, row.r) for row in rows] == [("lecam", 0)]


def test_verify_bounds_rejects_unknown_name():
    with pytest.raises(ValueError):
        verify_bounds(ModelSpec.bernoulli([0.1]), [1], which=("nonsense",))


def counting(monkeypatch, owner, name):
    """Record every call of owner.name (the arguments' first element)."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("spec, r_list, which", [
    (ModelSpec.bernoulli([0.02] * 50), range(0, 5),
     ("theorem-a", "theorem-b", "chen-stein", "lecam")),
    (ModelSpec.bernoulli([0.02] * 50), [3, 1], ("chen-stein", "theorem-b")),
    (ModelSpec.ewens(1.5, 200), range(1, 5), ("theorem-b", "corollary")),
])
def test_verify_bounds_builds_one_poisson_base(monkeypatch, spec, r_list, which):
    from modpoisson import schemes
    bases = counting(monkeypatch, schemes, "_poisson_masses")  # every Poisson mass goes through it
    rows = verify_bounds(spec, r_list, which=which)
    assert len(rows) > 1
    assert len(bases) == 1


@pytest.mark.parametrize("spec, r_list, which", [
    (ModelSpec.bernoulli([0.02] * 50), range(0, 5), ("theorem-b", "chen-stein")),
    (ModelSpec.bernoulli([0.02] * 50), [0], ("lecam",)),
    (ModelSpec.ewens(1.5, 200), range(1, 7), ("theorem-b", "corollary")),
    (ModelSpec.fq_poly(3, 10), [2, 4], ("theorem-a",)),
    (ModelSpec.omega(500), [1], ("theorem-b",)),
])
def test_verify_bounds_computes_the_power_sums_once(monkeypatch, spec, r_list, which):
    from modpoisson import symfunc
    sums = counting(monkeypatch, symfunc, "power_sums")
    assert verify_bounds(spec, r_list, which=which)
    assert len(sums) == 1


@pytest.mark.parametrize("spec, r_list, which", [
    (ModelSpec.bernoulli([0.1, 0.2]), [], ("theorem-b",)),
    (ModelSpec.bernoulli([0.1, 0.2]), [1, 2], ()),
    (ModelSpec.ewens(1.0, 50), range(4, 4), ("theorem-a", "corollary")),
    (ModelSpec.weighted_perm([1.0, 1.0, 1.0], 3), [], ("theorem-b",)),
])
def test_verify_bounds_empty_request_computes_nothing(monkeypatch, spec, r_list, which):
    from modpoisson import schemes
    models = counting(monkeypatch, ModelSpec, "pmf")
    bases = counting(monkeypatch, schemes, "_poisson_masses")  # every Poisson mass goes through it
    assert verify_bounds(spec, r_list, which=which) == []
    assert models == [] and bases == []


def test_report_serialization_round_trip():
    spec = ModelSpec.bernoulli([0.02] * 50)
    rows = verify_bounds(spec, [1, 2], which=("theorem-b", "chen-stein"))
    csv_lines = io.report_csv_lines(rows)
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == len(rows) + 1
    for line in csv_lines[1:]:
        assert len(line.split(",")) == len(CSV_HEADER.split(","))
    jsonl = io.report_jsonl_lines(rows)
    import json
    parsed = [json.loads(line) for line in jsonl]
    assert parsed[0]["family"] == "bernoulli_sum"
    assert {"model", "family", "n", "r", "lambda", "sigma2", "tv", "bound",
            "name", "holds", "slack"} == set(parsed[0])


def test_report_rows_with_no_bound_and_infinite_slack():
    # unreachable from the CLI, where tv > 0: written by hand
    from modpoisson.metrics import BoundReport
    rep = BoundReport(model="m(n=3)", family="f", n=3, r=1, lam=2.0, sigma2=0.5,
                      tv=0.0, bound=None, name="theorem-b", holds=None,
                      slack=math.inf)
    assert io.report_csv_lines([rep]) == [
        "model,family,n,r,lambda,sigma2,tv,bound,name,holds,slack",
        "m(n=3),f,3,1,2,0.5,0,,theorem-b,,inf"]
    assert io.report_jsonl_lines([rep]) == [
        '{"bound": null, "family": "f", "holds": null, "lambda": 2.0, '
        '"model": "m(n=3)", "n": 3, "name": "theorem-b", "r": 1, '
        '"sigma2": 0.5, "slack": "inf", "tv": 0.0}']
