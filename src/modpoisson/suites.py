"""Named verification suites behind `modpoisson verify`.

Each suite re-checks one family of guarantees end to end (exact
model, scheme construction, distance, bound) and reports a machine-
readable pass/fail summary.  Randomized suites draw every instance from a
caller-supplied seed, so reruns are byte-identical.  The suites' bodies
live in `_suites`, which `run_suite` imports on its first call.
"""

import cmath
import itertools
import math

import numpy as np

from . import symfunc
from .models import EULER_GAMMA, empirical_residue, ewens_cycle_pmf

__all__ = ["SUITE_NAMES", "SuiteResult", "run_suite", "residue_error",
           "harmonic_residue_error", "random_bernoulli_instances",
           "fq_factor_histogram_by_enumeration"]


#: the suites, in the order of `_suites.SUITES`; a literal, so that building
#: the command's --suite choices compiles no suite
SUITE_NAMES = ("theorem-b", "chen-stein", "coefficients", "hermite", "charlier",
               "gamma-ratio", "rates", "oracles")


class SuiteResult:
    """The pass/fail summary of one suite run; `expect` counts its checks."""

    __slots__ = ("suite", "passed", "checks", "failures", "seed", "instances", "details")

    def __init__(self, suite, seed=None, instances=None):
        self.suite = suite
        self.passed = True
        self.checks = 0
        self.failures = []
        self.seed = seed
        self.instances = instances
        self.details = {}

    def to_json_obj(self) -> dict:
        return {name: getattr(self, name) for name in SuiteResult.__slots__}

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

    def expect_each(self, ok, message, *args):
        """`expect` for each element of the boolean array ok, in order: each
        counts as one check, and a failed one's message reads every array
        among args at that element's index."""
        self.checks += ok.size
        if not ok.all():
            self.passed = False
            for i in np.flatnonzero(~ok)[:50 - len(self.failures)]:
                self.failures.append(message.format(
                    *(arg.flat[i] if isinstance(arg, np.ndarray) else arg for arg in args)))


def random_bernoulli_instances(rng, count: int):
    """Yield `count` seeded weight lists (n <= 500), rejection-sampled so
    lam > 16 e sigma^2; each is yielded as soon as it is drawn, so a caller
    that iterates holds one instance at a time."""
    accepted = 0
    while accepted < count:
        n = int(rng.integers(20, 501))
        scale = float(rng.uniform(0.004, 0.04))
        wts = rng.uniform(0.0, scale, size=n)
        weights = wts.tolist()
        lam = math.fsum(weights)
        s2 = math.fsum((wts * wts).tolist())
        if lam > 16.0 * math.e * s2 and lam > 0.05:
            accepted += 1
            yield weights


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


# --- brute-force oracles -------------------------------------------------------

def fq_factor_histogram_by_enumeration(q: int, n: int):
    """counts[j] = number of monic degree-n polynomials over F_q (q prime)
    with exactly j distinct monic irreducible divisors.  Exhaustive: a sieve
    of Eratosthenes on the monics of degree <= n, coefficients low to high."""
    monics = [[tail + (1,) for tail in itertools.product(range(q), repeat=d)]
              for d in range(n + 1)]
    marks = {}  # monic -> its distinct irreducible divisors marked so far
    for d in range(1, n + 1):
        # an unmarked degree-d monic has no irreducible factor of lower degree
        for p in [p for p in monics[d] if p not in marks]:
            for e in range(n - d + 1):
                for m in monics[e]:  # each multiple of p is p * m for one m
                    prod = tuple((np.convolve(p, m) % q).tolist())
                    marks[prod] = marks.get(prod, 0) + 1
    counts = [0] * (n + 1)
    for poly in monics[n]:
        counts[marks.get(poly, 0)] += 1
    return counts


def run_suite(name: str, seed=None, instances=None) -> SuiteResult:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    from ._suites import SUITES  # compiled only where a suite runs
    fn, default_instances = SUITES[name]
    randomized = default_instances is not None
    if randomized and seed is None:
        raise ValueError(f"suite {name!r} is randomized and needs an explicit seed")
    if not randomized and (seed is not None or instances is not None):
        raise ValueError(f"suite {name!r} draws nothing and takes no seed or instance count")
    if randomized and seed < 0:  # numpy's own refusal names no seed
        raise ValueError(f"seed must be >= 0, got {seed}")
    count = default_instances if instances is None else instances
    if count is not None and count < 1:
        raise ValueError(f"instances must be >= 1, got {count}")
    result = SuiteResult(suite=name, seed=seed, instances=count)
    result.details = (fn(result, np.random.default_rng(seed), count) if randomized
                      else fn(result))
    return result
