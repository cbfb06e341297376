"""Named verification suites behind `modpoisson verify`.

Each suite re-checks one family of guarantees end to end (exact
model, scheme construction, distance, bound) and reports a machine-
readable pass/fail summary.  Randomized suites draw every instance from a
caller-supplied seed, so reruns are byte-identical.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics, schemes, specialfn, symfunc
from .models import (EULER_GAMMA, ModelSpec, bernoulli_sum_pmf,
                     empirical_residue, ewens_cycle_pmf, fq_factor_pmf)

__all__ = ["SUITE_NAMES", "SuiteResult", "run_suite", "residue_error",
           "harmonic_residue_error", "random_bernoulli_instances",
           "fq_factor_histogram_by_enumeration"]

@dataclass
class SuiteResult:
    suite: str
    passed: bool = True
    checks: int = 0
    failures: list = field(default_factory=list)
    seed: int = None
    instances: int = None
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return asdict(self)

    def expect(self, ok: bool, message: str, *args):
        """Count one check; a failed one fails the suite (first 50 messages kept).

        The message is a str.format template of args, formatted only when
        the check fails.
        """
        self.checks += 1
        if not ok:
            self.passed = False
            if len(self.failures) < 50:
                self.failures.append(message.format(*args))


def random_bernoulli_instances(rng, count: int):
    """Seeded weight vectors (n <= 500), rejection-sampled so lam > 16 e sigma^2."""
    out = []
    while len(out) < count:
        n = int(rng.integers(20, 501))
        scale = float(rng.uniform(0.004, 0.04))
        wts = rng.uniform(0.0, scale, size=n)
        lam = math.fsum(wts.tolist())
        s2 = math.fsum((wts * wts).tolist())
        if lam > 16.0 * math.e * s2 and lam > 0.05:
            out.append(wts)
    return out


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
        s2 = ps.sigma2
        for s in range(2, 31):
            cap = (math.e * s2 / s) ** (s / 2.0)
            worst = max(worst, abs(rc.b[s - 1]) - cap)
            rec.expect(abs(rc.b[s - 1]) <= cap + 1e-12,
                       "|b_{}|={:.3e} above cap {:.3e}", s, abs(rc.b[s - 1]), cap)
    return {"worst_excess": worst}


def _suite_hermite(rec):
    # recurrence vs explicit expansion
    pts = [x + 1j * y for x in np.linspace(-5, 5, 9) for y in np.linspace(-5, 5, 5)]
    for m in range(0, 31):
        for z in pts:
            a = specialfn.hermite(m, z)
            b = specialfn.hermite_explicit(m, z)
            scale = max(1.0, abs(a))
            rec.expect(abs(a - b) <= 1e-9 * scale,
                       "hermite mismatch m={} z={}: {:.2e}", m, z, abs(a - b))
    # multiplication theorem
    for m in range(0, 16):
        for a in (0.5, 1.0, 2.0):
            for x in np.linspace(-4.0, 4.0, 17):
                lhs = specialfn.hermite(m, a * x)
                rhs = specialfn.hermite_multiplication(m, a, float(x))
                scale = max(1.0, abs(lhs))
                rec.expect(abs(lhs - rhs) <= 1e-9 * scale,
                           "multiplication residual m={} a={} x={:.2f}", m, a, x)
    # Cramer margins: real then complex
    for m in range(1, 31):
        for x in np.linspace(-10.0, 10.0, 41):
            rec.expect(specialfn.cramer_bound_margin(m, float(x)) >= 0.0,
                       "real Cramer margin < 0 at m={}, x={:.2f}", m, x)
    for m in range(1, 21):
        for radius in (1.0, 2.5, 5.0):
            for j in range(8):
                z = radius * cmath.exp(2j * math.pi * (j + 0.5) / 8)
                rec.expect(specialfn.cramer_bound_margin(m, z) >= 0.0,
                           "complex Cramer margin < 0 at m={}, z={:.2f}", m, z)
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
            for k, err in zip(ks, errs.tolist()):
                worst = max(worst, err)
                rec.expect(err < 1e-12,
                           "telescoping error {:.2e} at lam={}, s={}, k={}", err, lam, s, k)
    return {"worst_error": worst}


def _suite_gamma_ratio(rec):
    theta, rho = 1.0, 1.25
    grid = [rho * (i + 1) / 8.0 * cmath.exp(2j * math.pi * j / 8)
            for i in range(8) for j in range(8)]
    min_margin = math.inf
    for n in range(5, 101):
        for w in grid:
            margin = specialfn.gamma_ratio_margin(n, theta, rho, w)
            min_margin = min(min_margin, margin)
            rec.expect(margin >= 0.0, "ratio margin {:.2e} < 0 at n={}, w={:.2f}", margin, n, w)
    # recurrence of the log-gamma itself
    for re in np.linspace(1.25, 10.0, 8):
        for im in np.linspace(-5.0, 5.0, 7):
            z = complex(re, im)
            resid = abs(specialfn.complex_log_gamma(z) - cmath.log(z)
                        - specialfn.complex_log_gamma(z - 1.0))
            rec.expect(resid < 1e-10, "log-gamma recurrence residual {:.2e} at {}", resid, z)
    return {"min_margin": min_margin}


def residue_error(pmf, lam, alphabet, points=16):
    """max |empirical residue - limiting product E(A', w - 1)| over the
    `points` roots of unity w."""
    grid = [cmath.exp(2j * math.pi * j / points) for j in range(points)]
    return max(abs(empirical_residue(pmf, lam, w)
                   - symfunc.residue_product_eval(alphabet, w - 1.0)) for w in grid)


def harmonic_residue_error(n, points=16):
    """eps_n of the uniform-permutation cycle count: its residue at the rate
    log n + gamma against the harmonic product form."""
    return residue_error(ewens_cycle_pmf(1.0, n), math.log(n) + EULER_GAMMA,
                         symfunc.Alphabet.harmonic(), points)


def _suite_rates(rec):
    eps = {n: harmonic_residue_error(n) for n in (200, 400, 800, 1600)}
    ratios = {n: eps[2 * n] / eps[n] for n in (200, 400, 800)}
    for n, ratio in ratios.items():
        rec.expect(0.3 <= ratio <= 0.7, "residue error ratio eps_{}/eps_{} = {:.3f} "
                   "outside [0.3, 0.7]", 2 * n, n, ratio)
    return {"epsilons": {str(n): eps[n] for n in eps},
            "ratios": {str(n): ratios[n] for n in ratios}}


# --- brute-force oracles -------------------------------------------------------

def _poly_rem(a, b, q):
    """Remainder of a modulo monic b, coefficients low-to-high over F_q."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db:
        lead = a[-1] % q
        if lead:
            shift = len(a) - 1 - db
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - lead * c) % q
        a.pop()
    while a and a[-1] % q == 0:
        a.pop()
    return tuple(a)


def _monic_polys(q, degree):
    for tail in itertools.product(range(q), repeat=degree):
        yield tail + (1,)


def _irreducibles_up_to(q, dmax):
    irr = []
    for d in range(1, dmax + 1):
        for cand in _monic_polys(q, d):
            if not any(len(p) - 1 <= d // 2 and not _poly_rem(cand, p, q) for p in irr):
                irr.append(cand)
    return irr


def fq_factor_histogram_by_enumeration(q: int, n: int):
    """counts[j] = number of monic degree-n polynomials over F_q (q prime)
    with exactly j distinct monic irreducible divisors.  Exhaustive."""
    irr = _irreducibles_up_to(q, n)
    counts = [0] * (n + 1)
    for poly in _monic_polys(q, n):
        j = sum(1 for p in irr if not _poly_rem(poly, p, q))
        counts[j] += 1
    return counts


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
_SUITES = {
    "theorem-b": (_suite_theorem_b, 200),
    "chen-stein": (_suite_chen_stein, 200),
    "coefficients": (_suite_coefficients, 500),
    "hermite": (_suite_hermite, None),
    "charlier": (_suite_charlier, None),
    "gamma-ratio": (_suite_gamma_ratio, None),
    "rates": (_suite_rates, None),
    "oracles": (_suite_oracles, None),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed=None, instances=None) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    fn, default_instances = _SUITES[name]
    randomized = default_instances is not None
    if randomized and seed is None:
        raise ValueError(f"suite {name!r} is randomized and needs an explicit seed")
    if not randomized and (seed is not None or instances is not None):
        raise ValueError(f"suite {name!r} draws nothing and takes no seed or instance count")
    count = default_instances if instances is None else instances
    if count is not None and count < 1:
        raise ValueError(f"instances must be >= 1, got {count}")
    result = SuiteResult(suite=name, seed=seed, instances=count)
    result.details = (fn(result, np.random.default_rng(seed), count) if randomized
                      else fn(result))
    return result
