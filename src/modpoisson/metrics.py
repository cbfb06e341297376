"""Distances between mass functions and the total-variation bounds.

The bound constants are fixed at C = 570, D = 4 (so eps = 4 tau / sqrt(lam)
and eta = 4 sqrt(e) sigma / sqrt(lam)); no attempt is made to sharpen the
universal constants.  Rows whose preconditions fail are reported as
inapplicable (holds = None) rather than raised, so parameter sweeps never
abort.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from . import schemes, symfunc
from .models import ModelSpec, model_lambda

__all__ = [
    "InapplicableBoundError",
    "BoundReport",
    "CSV_HEADER",
    "eta",
    "total_variation",
    "kolmogorov",
    "lecam_bound",
    "chen_stein_bound",
    "theorem_a_bound",
    "theorem_b_bound",
    "corollary_bound",
    "theorem_c_bound",
    "two_step_bound",
    "verify_bounds",
]

#: absolute slack granted when deciding `holds` (float-level, not statistical)
HOLDS_SLACK = 1e-12


class InapplicableBoundError(ValueError):
    """A bound's precondition fails for these parameters."""


def _check_normalized(m):
    if not abs(m.total - 1.0) <= 1e-10:
        raise ValueError(f"measure total is {m.total!r}, not 1")


def _aligned(a, b):
    """Both measures' masses as float64 rows over the union of their windows
    (Fraction masses are rounded to float first); each must total 1."""
    _check_normalized(a)
    _check_normalized(b)
    lo = min(a.offset, b.offset)
    xy = np.zeros((2, max(a.offset + len(a.masses), b.offset + len(b.masses)) - lo))
    for row, m in zip(xy, (a, b)):
        row[m.offset - lo: m.offset - lo + len(m.masses)] = m.masses
    return xy


def total_variation(a, b) -> float:
    """(1/2) sum_k |a(k) - b(k)| over the union of supports.

    The sub-1e-15 truncation tails of both inputs are added as a
    conservative correction.
    """
    xs, ys = _aligned(a, b)
    core = 0.5 * math.fsum(np.abs(xs - ys).tolist())
    return core + 0.5 * (abs(1.0 - a.total) + abs(1.0 - b.total))


def kolmogorov(a, b) -> float:
    """max_k |CDF_a(k) - CDF_b(k)|, the CDFs summed in order."""
    xs, ys = _aligned(a, b)
    return float(np.max(np.abs(np.cumsum(xs) - np.cumsum(ys))))


# --- closed-form bounds -------------------------------------------------------

def lecam_bound(weights) -> float:
    """sum p_i^2: the classical Le Cam bound on d_TV to Po(sum p_i)."""
    return math.fsum(map(pow, map(float, weights), repeat(2)))


def chen_stein_bound(weights) -> float:
    """(1 - e^-lam)/lam * sum p_i^2, the Chen-Stein sharpening of Le Cam."""
    weights = list(map(float, weights))
    if not weights:
        raise ValueError("chen_stein_bound needs at least one weight")
    lam = math.fsum(weights)
    if lam <= 0.0:
        raise ValueError("chen_stein_bound needs lam > 0")
    return -math.expm1(-lam) / lam * math.fsum(map(operator.mul, weights, weights))


def theorem_a_bound(lam: float, tau: float, r: int) -> float:
    """570 * eps^(r+1) with eps = 4 tau / sqrt(lam); needs eps < 1."""
    eps = 4.0 * tau / math.sqrt(lam)
    if eps >= 1.0:
        raise InapplicableBoundError(f"eps = {eps:g} >= 1: bound inapplicable")
    return 570.0 * eps ** (r + 1)


def eta(lam: float, sigma2: float) -> float:
    """eta = 4 sqrt(e sigma^2 / lam), the rate of every order-r bound."""
    return 4.0 * math.sqrt(math.e * sigma2 / lam)


def theorem_b_bound(lam: float, sigma2: float, r: int) -> float:
    """570 * eta^(r+1); needs lam > 16 e sigma^2, i.e. eta < 1."""
    if lam <= 16.0 * math.e * sigma2:
        raise InapplicableBoundError(
            f"lam = {lam:g} <= 16 e sigma^2 = {16.0 * math.e * sigma2:g}")
    return 570.0 * eta(lam, sigma2) ** (r + 1)


def corollary_bound(lam: float, sigma2: float, r: int, tail_rn: float) -> float:
    """Derived-scheme bound: theorem-B term plus the truncation penalty
    (r^2 + (2 lam + 1) r) * (sum_{s=2}^r (2 sigma)^(s-2)) * tail_rn."""
    if not 0.0 <= tail_rn < math.inf:
        raise ValueError(f"corollary needs a finite tail_rn >= 0, got {tail_rn:g}")
    base = theorem_b_bound(lam, sigma2, r)
    sigma = math.sqrt(sigma2)
    geo = math.fsum((2.0 * sigma) ** (s - 2) for s in range(2, r + 1))
    return base + (r * r + (2.0 * lam + 1.0) * r) * geo * tail_rn


def theorem_c_bound(lam: float, sigma2: float, r: int, eps_n: float, rho: float) -> float:
    """Derived-scheme bound under an eps_n-uniform residue approximation on
    a disc of radius rho > 1: theorem-B term + eps_n (rho/(rho-1) + lam)."""
    if not (0.0 <= eps_n < math.inf and math.isfinite(rho)):
        raise ValueError("theorem-c needs a finite eps_n >= 0 and a finite rho, "
                         f"got eps_n = {eps_n:g}, rho = {rho:g}")
    if rho <= 1.0:
        raise InapplicableBoundError("rho must exceed 1")
    return theorem_b_bound(lam, sigma2, r) + eps_n * (rho / (rho - 1.0) + lam)


def two_step_bound(psi_diff_sup: float, psi_prime_diff_sup: float, lam: float) -> float:
    """TV bound from sup-norms of a residue difference and its derivative:
    |psi - chi|/2 + pi/(2 sqrt 3) (|psi' - chi'| + lam |psi - chi|)."""
    if psi_diff_sup < 0.0 or psi_prime_diff_sup < 0.0 or lam < 0.0:
        raise ValueError("two_step_bound needs nonnegative inputs")
    return (psi_diff_sup / 2.0
            + math.pi / (2.0 * math.sqrt(3.0))
            * (psi_prime_diff_sup + lam * psi_diff_sup))


# --- verification reports -----------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """One (model, r, bound) verification row."""

    model: str
    family: str
    n: int
    r: int
    lam: float
    sigma2: float
    tv: float
    bound: float
    name: str
    holds: bool
    slack: float

    @classmethod
    def build(cls, spec, r, lam, sigma2, tv, bound, name):
        holds = slack = None
        if bound is not None:
            holds = tv <= bound + HOLDS_SLACK
            slack = bound / tv if tv > 0.0 else math.inf
        return cls(model=spec.label, family=spec.family, n=spec.n, r=r,
                   lam=lam, sigma2=sigma2, tv=tv, bound=bound, name=name,
                   holds=holds, slack=slack)


#: the report columns, in BoundReport's field order
CSV_HEADER = ",".join("lambda" if f.name == "lam" else f.name
                      for f in fields(BoundReport))

KNOWN_BOUNDS = ("theorem-a", "theorem-b", "corollary", "theorem-c",
                "chen-stein", "lecam")
#: bounds on the order-0 scheme: one row each, whatever the orders
ORDER_ZERO_BOUNDS = ("chen-stein", "lecam")


def verify_bounds(spec: ModelSpec, r_list, which=("theorem-b",),
                  tolerance: float = 1e-12, eps_n=None, rho: float = 2.0,
                  tail_rn=None):
    """Measure d_TV(model, scheme) against each requested bound.

    Every family uses the derived scheme of its limiting alphabet, which
    for Bernoulli sums is the finite alphabet of their weights.  chen-stein
    and lecam always refer to the order-0 scheme, emit a single row each
    and read their weights from that alphabet, so they apply only to a
    nonempty finite one (an infinite kind holds none); the corollary takes
    tail_rn, else the spec's default tail, else has no bound.  Rows with
    failing preconditions are emitted with holds = None instead of raising.
    The per-r rows come first, then the order-0 ones, each group in the
    order of `which`; r_list, a sequence of orders, is read only when some
    per-r name is asked for.

    The model pmf, its rate, its alphabet, its power sums, the residue
    coefficients and the Poisson base are computed once per call and each
    order's distance once for all names, so callers should pass every bound
    and order they need in one call.  A request with no row computes
    nothing and returns [].
    """
    unknown = [name for name in which if name not in KNOWN_BOUNDS]
    if unknown:
        raise ValueError(f"unknown bound names: {unknown}")
    rows = ([(name, r) for name in which if name not in ORDER_ZERO_BOUNDS for r in r_list]
            + [(name, 0) for name in which if name in ORDER_ZERO_BOUNDS])
    if any(r < 0 for _, r in rows):
        raise ValueError("scheme orders must be >= 0")
    if not rows:
        return []

    pmf = spec.pmf()
    lam = model_lambda(spec, tolerance)
    alphabet = spec.alphabet(tolerance)
    orders = sorted({r for _, r in rows})
    ps = symfunc.power_sums(alphabet, max(2, orders[-1]))
    sigma2 = ps.sigma2
    rc = symfunc.virtual_residue_coeffs(ps, orders[-1], lam)
    tvs = {r: total_variation(pmf, nu)
           for r, nu in zip(orders, schemes.scheme_measures(rc, orders))}

    tail = spec.tail if tail_rn is None else lambda: tail_rn
    # name -> its bound at order r; a missing or None entry has no bound here
    bounds = {
        "theorem-a": lambda r: theorem_a_bound(lam, math.sqrt(math.e * sigma2), r),
        "theorem-b": lambda r: theorem_b_bound(lam, sigma2, r),
        "corollary": (None if tail is None
                      else lambda r: corollary_bound(lam, sigma2, r, tail())),
        "theorem-c": (None if eps_n is None
                      else lambda r: theorem_c_bound(lam, sigma2, r, eps_n, rho)),
    }
    if alphabet.weights:
        bounds["chen-stein"] = lambda r: chen_stein_bound(alphabet.weights)
        bounds["lecam"] = lambda r: lecam_bound(alphabet.weights)
    reports = []
    for name, r in rows:
        bound = None
        # the order-r theorems need r >= 1
        if bounds.get(name) and (r >= 1 or name in ORDER_ZERO_BOUNDS):
            try:
                bound = bounds[name](r)
            except InapplicableBoundError:
                pass
        reports.append(BoundReport.build(spec, r, lam, sigma2, tvs[r], bound, name))
    return reports
