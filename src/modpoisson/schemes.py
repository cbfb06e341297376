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

from .models import Pmf, SignedMeasure
from .symfunc import Alphabet, ResidueCoeffs, residue_coeffs

__all__ = ["SignedMeasure", "poisson_pmf", "scheme_measure", "scheme_measures",
           "charlier_delta", "derived_scheme", "rectify_positive", "expect_via_scheme"]

#: Poisson masses are kept until they drop below this ...
_POINTWISE_CUTOFF = 1e-18
#: ... and the missing tail is below this, so truncation error is invisible
#: against the 1e-10 normalization contract.
_TAIL_CUTOFF = 1e-15
#: most points the Poisson window may hold, so lam up to about 1.7e9
_MAX_POINTS = 10 ** 6


def _stirling_series(k: np.ndarray) -> np.ndarray:
    """stirlerr(k) = log k! - log(sqrt(2 pi k) (k/e)^k) by its Stirling series
    in 1/k^2, five terms: within 1.1e-16, absolute, for k >= 16."""
    nn = 1.0 / (k * k)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / k


#: stirlerr(k) for k < 256: correctly rounded up to 15, the series above, so
#: that small windows need no series of their own
_STIRLERR = np.concatenate([
    [0.0, 0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
     0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
     0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
     0.008330563433362871, 0.007573675487951841, 0.00694284010720953,
     0.006408994188004207, 0.005951370112758848, 0.005554733551962801],
    _stirling_series(np.arange(16.0, 256.0))])


def _poisson_masses(lam: float, lo: int, hi: int) -> np.ndarray:
    """Po(lam) at k = lo..hi-1, 0 <= lo < hi.

    Loader's saddle-point form (C. Loader, Fast and Accurate Computation of
    Binomial Probabilities, 2000; R's dpois): exp(-stirlerr(k) - bd0(k, lam))
    / sqrt(2 pi k), with bd0 = k log(k / lam) + lam - k and Po(0) = exp(-lam).
    stirlerr comes from a table up to k = 15 and from its Stirling series
    in 1/k^2 above.  The direct bd0 loses about eps (k + lam) to
    cancellation, so above lam = 30, where |v| < 0.5 for v = (k - lam)/(k +
    lam), it is Loader's series (k - lam) v + 2 k v sum_{j>=1} v^(2j)/(2j + 1),
    cut once its tail is below 1e-16; below lam = 30 the direct form's loss
    stays under about 3e-14 and the series would need some 27 terms.
    Against 50-digit masses each is within 2.2e-14, relative, from
    lam = 1e-3 to 3e7, and within 1e-13 below, as log(lam) grows.
    """
    first = max(lo, 1)
    x = np.arange(first, hi, dtype=float)
    d = x - lam
    # below lam = 1 neither log is negative, and x / lam overflows for subnormal lam
    bd0 = x * (np.log(x) - math.log(lam) if lam < 1.0 else np.log(x / lam)) - d
    if lam > 30.0:
        # |v| is largest at an end; after `terms` terms the series' tail is
        # at most 2 k v^(2 terms + 3)/((2 terms + 3)(1 - v^2)), 1 - v^2 >= 0.75
        vmax = min(0.5, max(abs(j - lam) / (j + lam) for j in (first, hi - 1)))
        terms = 1
        while 2.0 * hi * vmax ** (2 * terms + 3) > 1e-16 * (2 * terms + 3) * 0.75:
            terms += 1
        v = d / (x + lam)
        t = v * v
        series = 1.0 / (2 * terms + 1)
        for j in range(terms - 1, 0, -1):
            series = series * t + 1.0 / (2 * j + 1)
        bd0 = np.where(np.abs(v) < 0.5, d * v + 2.0 * x * v * t * series, bd0)
    tabled = _STIRLERR[first:hi]
    stirlerr = (tabled if len(tabled) == len(x)
                else np.append(tabled, _stirling_series(x[len(tabled):])))
    # 0.0 - x, not -x: numpy's negative, used nowhere else on the verify
    # path, would add its 64 KB of code to the peak RSS
    masses = np.exp(0.0 - stirlerr - bd0) / np.sqrt(2.0 * math.pi * x)
    return np.append(math.exp(-lam), masses) if lo == 0 else masses


def _poisson_base(lam: float, extra: int = 0):
    """(offset, masses, size): Po(lam) from offset on, the base in masses[:size]
    and `extra` masses past it.

    The masses are evaluated on lam -+ (12 sqrt(lam) + 30), widened to at
    least 128 points, and cut at both ends.  Past the mode m_{j+1}/m_j =
    lam/(j + 1) falls, so with r = lam/(k + 1) the tail above k is at most
    m_k r/(1 - r); below it m_{j-1}/m_j = j/lam, so with q = k/lam the tail
    below k is at most m_k q/(1 - q).  The base ends at the first k > lam
    with m_k < 1e-18 and m_k r/(1 - r) < 1e-15, and starts at the last
    k < lam with m_k < 1e-18 and m_k q/(1 - q) < 1e-15, or at 0.  Both cuts
    fall inside the window: (1 + u) log(1 + u) - u >= u^2/(2 + 2u/3) puts
    its end masses below e^-45 sqrt(lam)/12.
    """
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    half = 12.0 * math.sqrt(lam) + 30.0
    if not 2.0 * half < _MAX_POINTS:
        raise ValueError(f"lam = {lam:g}: the Poisson support exceeds "
                         "the 1e6-point limit")
    lo = max(0, math.floor(lam - half))
    # numpy keeps up to 7 freed buffers of each size under 1 KB; the
    # kernel's temporaries at a new size for every small rate would fill
    # that cache, 0.1 MB of peak RSS over the verify suites
    m = _poisson_masses(lam, lo, max(math.ceil(lam + half) + 1, lo + 128) + extra)
    # m rises below lam and falls above it, so each side's masses under the
    # cutoff are found by bisection, and the tail bound is walked from there;
    # m_k r/(1 - r) = m_k lam/(k + 1 - lam) and m_k q/(1 - q) = m_k k/(lam - k)
    end = bisect.bisect_left(range(len(m)), True, lo=math.floor(lam) + 1 - lo,
                             key=lambda j: m.item(j) < _POINTWISE_CUTOFF)
    while m.item(end) * lam >= _TAIL_CUTOFF * (lo + end + 1 - lam):
        end += 1
    start = bisect.bisect_left(range(math.ceil(lam) - lo), True,
                               key=lambda j: m.item(j) >= _POINTWISE_CUTOFF) - 1
    while start >= 0 and m.item(start) * (lo + start) >= _TAIL_CUTOFF * (lam - lo - start):
        start -= 1
    start = max(start, 0)
    return lo + start, m[start:end + 1 + extra], end + 1 - start


def poisson_pmf(lam: float) -> Pmf:
    """Po(lam) on a window whose discarded tails are each below 1e-15.

    See `_poisson_base`; lam = inf, or lam past about 1.7e9, fails at once.
    """
    offset, masses, _ = _poisson_base(lam)
    return Pmf(offset, masses)


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
    lam, top = rc.lam, max(orders, default=0)
    offset, po, size = _poisson_base(lam, top)
    k, small = np.arange(offset, offset + size + top, dtype=float), lam < 1.0
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
        return [SignedMeasure(offset, kept[r]) for r in orders]


def scheme_measure(rc: ResidueCoeffs) -> SignedMeasure:
    """The order-r signed measure for rate rc.lam and coefficients rc.b."""
    return scheme_measures(rc, (rc.order,))[0]


def charlier_delta(lam: float, s: int, b_next: float, k):
    """Pointwise difference nu^(s+1)(k) - nu^(s)(k) for coefficient b_{s+1},
    at an int k or at each k of a range.

    Equals b_{s+1} Po_lam(k) * sum_{l<=min(s+1,k)} (-1)^(s+1-l) C(s+1,l)
    k! lam^-l / (k-l)!; the falling factorial is accumulated as a product
    of (k-j)/lam ratios so nothing overflows near k ~ lam ~ 100, and it
    vanishes from l = k + 1 on.  It is the `charlier` suite's independent
    check of the terms in `scheme_measures`.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    ks = k if isinstance(k, range) else range(k, k + 1)
    if s < 0 or ks.start < 0 or ks.step != 1:
        raise ValueError("need s >= 0 and k >= 0, in steps of 1")
    x = np.arange(ks.start, ks.stop, dtype=float)
    falling = np.ones_like(x)
    total = (-1.0) ** (s + 1) * falling
    for l in range(1, s + 2):
        falling = falling * (x - (l - 1)) / lam
        total = total + (-1) ** (s + 1 - l) * math.comb(s + 1, l) * falling
    delta = b_next * _poisson_masses(lam, ks.start, ks.stop) * total
    return delta if isinstance(k, range) else delta.item()


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
