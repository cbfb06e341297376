"""Signed approximation measures of order r and their manipulations.

The order-r scheme attached to a rate lam and residue coefficients
b_1..b_r is the signed measure nu with Fourier transform

    exp(lam (e^{i xi} - 1)) * (1 + sum_{s<=r} b_s (e^{i xi} - 1)^s),

that is, the explicit double sum

    nu(k) = sum_{0<=t<=s<=r} (-1)^(s-t) C(s,t) b_s Po_lam(k - t),

with b_0 = 1.  As Po_lam(k - t) = Po_lam(k) k(k-1)...(k-t+1) / lam^t, it is
evaluated as sum_{s<=r} b_s (-1)^s Po_lam(k) C_s(k; lam), C_s the Charlier
polynomials, Po C_s the s-th backward difference of Po.  Order 0 is the
Poisson law itself; negative mass can be swept into a genuine probability
distribution by `rectify_positive`; and expectations against nu can be
taken under the plain Poisson law after a forward-difference transform of
the integrand.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .models import _UNDERFLOW, Pmf, SignedMeasure
from .symfunc import Alphabet, ResidueCoeffs, residue_coeffs

__all__ = ["SignedMeasure", "poisson_pmf", "scheme_measure", "scheme_measures",
           "charlier_delta", "derived_scheme", "rectify_positive", "expect_via_scheme"]

#: Poisson support is extended until masses drop below this ...
_POINTWISE_CUTOFF = 1e-18
#: ... and the missing tail is below this, so truncation error is invisible
#: against the 1e-10 normalization contract.
_TAIL_CUTOFF = 1e-15


def _poisson_mass(lam: float):
    log_lam = math.log(lam)
    return lambda k: math.exp(k * log_lam - lam - math.lgamma(k + 1))


def poisson_pmf(lam: float) -> Pmf:
    """Po(lam) from its first representable mass until the tail is < 1e-15.

    Masses rise up to k = floor(lam), so the first k whose mass exceeds the
    1e-320 underflow floor is found by bisection; the walk starts there.
    Past k > lam the masses decay geometrically with ratio lam/(k+1), so
    sum_{j>k} m_j <= m_k * ratio / (1 - ratio) bounds the missing tail.
    lam = inf or lam >= 1e6 fails at once.
    """
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    if not lam < 1e6:
        raise ValueError(f"lam = {lam:g}: the Poisson support exceeds "
                         "the 1e6-point limit")
    mass = _poisson_mass(lam)
    lo = bisect.bisect_left(range(int(lam)), True, key=lambda k: mass(k) > _UNDERFLOW)
    masses = []
    k = lo
    while True:
        masses.append(mass(k))
        if k > lam and masses[-1] < _POINTWISE_CUTOFF:
            ratio = lam / (k + 1.0)
            if masses[-1] * ratio / (1.0 - ratio) < _TAIL_CUTOFF:
                break
        k += 1
    return Pmf.from_masses(lo, masses)


def scheme_measures(rc: ResidueCoeffs, orders) -> list:
    """The order-r signed measures, r in `orders`, over one Poisson base.

    Order r uses rc.b[:r] on the base's window plus r points.  Below lam = 1
    Po C_s is the s-th backward difference of Po; from lam = 1 on, where such
    differences cancel to about lam^(-s/2), C_s comes from lam C_{s+1} =
    (s + lam - k) C_s - s C_{s-1}, C_0 = 1, which is unstable below lam = 1.
    """
    orders = list(orders)
    bad = [r for r in orders if not 0 <= r <= rc.order]
    if bad:
        raise ValueError(f"scheme orders must lie in 0..{rc.order}, got {bad}")
    lam, base = rc.lam, poisson_pmf(rc.lam)
    size, end, top = len(base.masses), base.offset + len(base.masses), max(orders, default=0)
    po = np.append(base.masses, list(map(_poisson_mass(lam), range(end, end + top))))
    k, small = np.arange(base.offset, end + top, dtype=float), lam < 1.0
    c_prev, c = 0.0, po if small else 1.0
    total, kept = c, {0: po[:size]}
    # non-finite or overflowing coefficients are left to the unit-total check
    with np.errstate(over="ignore", invalid="ignore"):
        for s, b in enumerate(rc.b[:top]):
            if small:  # the base starts at k = 0, and Po(-1) = 0
                c = np.append(c[:1], c[1:] - c[:-1])
            else:
                c_prev, c = c, ((s + lam - k) * c - s * c_prev) / lam
            total = total + (-1) ** (s + 1) * b * c
            if s + 1 in orders:
                kept[s + 1] = total[:size + s + 1] * (1.0 if small else po[:size + s + 1])
        return [SignedMeasure(base.offset, kept[r]) for r in orders]


def scheme_measure(rc: ResidueCoeffs) -> SignedMeasure:
    """The order-r signed measure for rate rc.lam and coefficients rc.b."""
    return scheme_measures(rc, (rc.order,))[0]


def charlier_delta(lam: float, s: int, b_next: float, k: int) -> float:
    """Pointwise difference nu^(s+1)(k) - nu^(s)(k) for coefficient b_{s+1}.

    Equals b_{s+1} Po_lam(k) * sum_{l<=min(s+1,k)} (-1)^(s+1-l) C(s+1,l)
    k! lam^-l / (k-l)!; the falling factorial is accumulated as a product
    of (k-j)/lam ratios so nothing overflows near k ~ lam ~ 100.  It is the
    `charlier` suite's independent check of the terms in `scheme_measures`.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if s < 0 or k < 0:
        raise ValueError("need s >= 0 and k >= 0")
    nu_k = _poisson_mass(lam)(k)
    terms = []
    falling = 1.0
    for l in range(0, min(s + 1, k) + 1):
        if l > 0:
            falling *= (k - (l - 1)) / lam
        terms.append((-1) ** (s + 1 - l) * math.comb(s + 1, l) * falling)
    return b_next * nu_k * math.fsum(terms)


def derived_scheme(lam: float, limiting_alphabet: Alphabet, r: int) -> SignedMeasure:
    """Order-r scheme built from the limiting alphabet's residue coefficients."""
    return scheme_measure(residue_coeffs(limiting_alphabet, r, lam))


def rectify_positive(nu: SignedMeasure) -> Pmf:
    """Sweep the negative mass of nu into the smallest feasible point.

    With beta the total negative mass, the result vanishes below the
    smallest N whose cumulative positive mass alpha_N exceeds beta, carries
    alpha_N - beta at N, and keeps max(0, nu) above N.  Total variation to
    any probability measure never increases.
    """
    masses = nu.masses.astype(float, copy=False)
    beta = -math.fsum(masses[masses < 0.0].tolist())
    if beta == 0.0:
        return Pmf.from_masses(nu.offset, masses)
    out = np.where(masses > 0.0, masses, 0.0)
    clipped = out.tolist()
    # fsum of a prefix is its correctly rounded exact sum, so alpha_j is
    # nondecreasing in j and the first j with alpha_j > beta is found by bisection
    big_n = bisect.bisect_left(range(len(clipped)), True,
                               key=lambda j: math.fsum(clipped[:j + 1]) > beta)
    if big_n == len(clipped):
        raise AssertionError("no feasible sweep point; input total was not 1")
    out[big_n] = math.fsum(clipped[:big_n + 1]) - beta
    return Pmf.from_masses(nu.offset + big_n, out[big_n:])


def expect_via_scheme(f, rc: ResidueCoeffs) -> float:
    """sum_k nu^(r)(k) f(k), evaluated as a plain Poisson expectation.

    Uses g(k) = f(k) + sum_s b_s (forward_difference^s f)(k) and
    E nu^(r)[f] = E Po(lam)[g], so only Poisson masses are ever needed.
    """
    nu0 = poisson_pmf(rc.lam)
    size = len(nu0.masses)
    r = rc.order
    values = np.array([float(f(k)) for k in range(nu0.offset, nu0.offset + size + r)])
    g = values[:size].copy()
    diff = values
    for s in range(1, r + 1):
        diff = diff[1:] - diff[:-1]
        g = g + rc.b[s - 1] * diff[:size]
    return math.fsum((nu0.masses * g).tolist())
