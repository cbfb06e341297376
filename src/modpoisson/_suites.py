"""The bodies of the named verification suites, behind `suites.run_suite`.

`run_suite` imports this module on its first call, so a command that runs
no suite does not compile them.  Each suite takes the SuiteResult that
counts its checks and, if randomized, the seeded generator and instance
count, and returns its details.
"""

import cmath
import math

import numpy as np

from . import metrics, schemes, specialfn, symfunc
from .models import ModelSpec, bernoulli_sum_pmf, ewens_cycle_pmf, fq_factor_pmf
from .suites import (fq_factor_histogram_by_enumeration, harmonic_residue_error,
                     random_bernoulli_instances)


def _suite_theorem_b(rec, rng, instances):
    worst = 0.0
    for wts in random_bernoulli_instances(rng, instances):
        for rep in metrics.verify_bounds(ModelSpec.bernoulli(wts), range(1, 7)):
            worst = max(worst, rep.tv / rep.bound)
            rec.expect(rep.holds, "tv={:.3e} > bound={:.3e} (n={}, r={})",
                       rep.tv, rep.bound, rep.n, rep.r)
    return {"worst_tv_over_bound": worst}


def _suite_chen_stein(rec, rng, instances):
    for wts in random_bernoulli_instances(rng, instances):
        chen, lecam = metrics.verify_bounds(ModelSpec.bernoulli(wts), [],
                                            which=("chen-stein", "lecam"))
        for rep in (chen, lecam):
            rec.expect(rep.holds, "{} violated: tv={:.3e} > {:.3e}", rep.name, rep.tv, rep.bound)
        rec.expect(chen.bound <= lecam.bound + metrics.HOLDS_SLACK,
                   "chen-stein {:.3e} above lecam {:.3e}", chen.bound, lecam.bound)
    return {}


def _suite_coefficients(rec, rng, instances):
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(1, 21))
        wts = rng.uniform(0.0, 1.0, size=n).tolist()
        ps = symfunc.power_sums(symfunc.Alphabet.finite(wts), 30)
        rc = symfunc.virtual_residue_coeffs(ps, 30, 1.0)
        rec.expect(rc.b[0] == 0.0, "b_1 != 0 from a virtual alphabet")
        for s in range(2, 31):
            cap = (math.e * ps[1] / s) ** (s / 2.0)
            worst = max(worst, abs(rc.b[s - 1]) - cap)
            rec.expect(abs(rc.b[s - 1]) <= cap + 1e-12,
                       "|b_{}|={:.3e} above cap {:.3e}", s, abs(rc.b[s - 1]), cap)
    return {"worst_excess": worst}


def _suite_hermite(rec):
    # recurrence vs explicit expansion
    pts = (np.linspace(-5, 5, 9)[:, None] + 1j * np.linspace(-5, 5, 5)).ravel()
    for m in range(0, 31):
        a = specialfn.hermite(m, pts)
        err = np.abs(a - specialfn.hermite_explicit(m, pts))
        rec.expect_each(err <= 1e-9 * np.maximum(1.0, np.abs(a)),
                        "hermite mismatch m={} z={}: {:.2e}", m, pts, err)
    # multiplication theorem
    xs = np.linspace(-4.0, 4.0, 17)
    for m in range(0, 16):
        for a in (0.5, 1.0, 2.0):
            lhs = specialfn.hermite(m, a * xs)
            rhs = specialfn.hermite_multiplication(m, a, xs)
            rec.expect_each(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(lhs)),
                            "multiplication residual m={} a={} x={:.2f}", m, a, xs)
    # Cramer margins: real then complex
    xs = np.linspace(-10.0, 10.0, 41)
    for m in range(1, 31):
        rec.expect_each(specialfn.cramer_bound_margin(m, xs) >= 0.0,
                        "real Cramer margin < 0 at m={}, x={:.2f}", m, xs)
    zs = np.array([radius * cmath.exp(2j * math.pi * (j + 0.5) / 8)
                   for radius in (1.0, 2.5, 5.0) for j in range(8)])
    for m in range(1, 21):
        rec.expect_each(specialfn.cramer_bound_margin(m, zs) >= 0.0,
                        "complex Cramer margin < 0 at m={}, z={:.2f}", m, zs)
    return {}


def _suite_charlier(rec):
    bs = [(-1) ** s * 0.8 * (math.e / s) ** (s / 2.0) for s in range(1, 10)]
    worst = 0.0
    for lam in (1.0, 5.0, 20.0, 50.0):
        measures = schemes.scheme_measures(symfunc.ResidueCoeffs(lam, tuple(bs)), range(10))
        for s in range(0, 9):
            cur, nxt = measures[s], measures[s + 1]  # one offset, nxt one point longer
            ks = nxt.support()
            errs = np.abs(nxt.masses - np.append(cur.masses, 0.0)
                          - schemes.charlier_delta(lam, s, bs[s], ks))
            worst = max(worst, float(errs.max()))
            rec.expect_each(errs < 1e-12, "telescoping error {:.2e} at lam={}, s={}, k={}",
                            errs, lam, s, np.array(ks))
    return {"worst_error": worst}


def _suite_gamma_ratio(rec):
    theta, rho = 1.0, 1.25
    grid = np.array([rho * (i + 1) / 8.0 * cmath.exp(2j * math.pi * j / 8)
                     for i in range(8) for j in range(8)])
    min_margin = math.inf
    for n in range(5, 101):
        margin = specialfn.gamma_ratio_margin(n, theta, rho, grid)
        min_margin = min(min_margin, float(margin.min()))
        rec.expect_each(margin >= 0.0, "ratio margin {:.2e} < 0 at n={}, w={:.2f}",
                        margin, n, grid)
    # recurrence of the log-gamma itself
    z = (np.linspace(1.25, 10.0, 8)[:, None] + 1j * np.linspace(-5.0, 5.0, 7)).ravel()
    resid = np.abs(specialfn.complex_log_gamma(z) - np.log(z)
                   - specialfn.complex_log_gamma(z - 1.0))
    rec.expect_each(resid < 1e-10, "log-gamma recurrence residual {:.2e} at {}", resid, z)
    return {"min_margin": min_margin}


def _suite_rates(rec):
    eps = {n: harmonic_residue_error(n) for n in (200, 400, 800, 1600)}
    ratios = {n: eps[2 * n] / eps[n] for n in (200, 400, 800)}
    for n, ratio in ratios.items():
        rec.expect(0.3 <= ratio <= 0.7, "residue error ratio eps_{}/eps_{} = {:.3f} "
                   "outside [0.3, 0.7]", 2 * n, n, ratio)
    return {"epsilons": {str(n): eps[n] for n in eps},
            "ratios": {str(n): ratios[n] for n in ratios}}


def _suite_oracles(rec):
    from fractions import Fraction
    # rational-vs-float convolution
    weight_sets = ([Fraction(1, i) for i in range(1, 21)],
                   [Fraction(7, 10), Fraction(1, 3), Fraction(2, 5)],
                   [Fraction(1), Fraction(0), Fraction(1, 2)])
    for wset in weight_sets:
        exact = bernoulli_sum_pmf(wset, rational=True)
        approx = bernoulli_sum_pmf([float(w) for w in wset])
        err = max(abs(float(exact.mass(k)) - approx.mass(k))
                  for k in range(len(wset) + 1))
        rec.expect(err < 1e-12, "rational/float convolution gap {:.2e}", err)
    # Feller coupling: cycle counts of uniform permutations
    for n in (1, 2, 5, 10, 30):
        cyc = ewens_cycle_pmf(1.0, n)
        fell = bernoulli_sum_pmf([1.0 / i for i in range(1, n + 1)])
        err = max(abs(cyc.mass(k) - fell.mass(k)) for k in range(n + 2))
        rec.expect(err < 1e-12, "Feller coupling gap {:.2e} at n={}", err, n)
    # distinct-factor counts against exhaustive factorization
    for q, nmax in ((2, 10), (3, 6)):
        for n in range(1, nmax + 1):
            exact = fq_factor_pmf(q, n, rational=True)
            counts = fq_factor_histogram_by_enumeration(q, n)
            total = q ** n
            ok = all(exact.mass(j) == Fraction(counts[j], total)
                     for j in range(n + 1))
            rec.expect(ok, "fq pmf disagrees with enumeration at q={}, n={}", q, n)
    return {}


#: name -> (suite, default instance count); exactly the suites with a default
#: count are randomized and draw their instances from one caller-seeded generator
SUITES = {
    "theorem-b": (_suite_theorem_b, 200),
    "chen-stein": (_suite_chen_stein, 200),
    "coefficients": (_suite_coefficients, 500),
    "hermite": (_suite_hermite, None),
    "charlier": (_suite_charlier, None),
    "gamma-ratio": (_suite_gamma_ratio, None),
    "rates": (_suite_rates, None),
    "oracles": (_suite_oracles, None),
}
