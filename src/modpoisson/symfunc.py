"""Symmetric-function specializations of weight alphabets.

The objects of interest are the power sums p_k = sum_i (a_i)^k of an
alphabet A of weights in [0, 1] (finite, or infinite with square-summable
tail), the elementary symmetric values e_k recovered from them through the
Newton identities, and the "virtual" specialization A' that keeps
p_{k>=2}(A) but forces p_1 = 0.  The numbers e_s(A') are exactly the
coefficients b_s of the expansion of

    prod_i (1 + a_i*z) * exp(-a_i*z)

in powers of z, i.e. the deconvolution residue of a Bernoulli-type model
once the first-order (Poisson) part has been divided out.  Those
coefficients drive the signed approximation schemes in `schemes`.

Infinite alphabets are never enumerated: their power sums are evaluated
through zeta-type series with analytic tail corrections, to the tolerance
carried by the alphabet.
"""

import cmath
import math
import operator
from functools import lru_cache
from itertools import repeat

import numpy as np

from ._arith import (EVEN_BERNOULLI, Value, irreducible_count, mobius, prime_power_base,
                     primes_up_to)

__all__ = [
    "Alphabet",
    "ResidueCoeffs",
    "ToleranceError",
    "check_order",
    "power_sums",
    "elementary_from_power",
    "virtual_residue_coeffs",
    "residue_coeffs",
    "residue_series_eval",
    "residue_product_eval",
    "stirling2",
    "stirling2_elementary_bridge",
]

ALPHABET_KINDS = ("finite", "ewens_limit", "omega_limit", "fq_limit")

#: double-precision floor for the tail-corrected series below
_MIN_TOLERANCE = 1e-13

#: radius of the omega residue product: against a 40-digit product its
#: relative error is 9.8e-15 at |z| = 2 and 1.6e-11, past the default
#: tolerance, at |z| = 3
OMEGA_RESIDUE_RADIUS = 2.0


#: the highest scheme order: its zeta terms, Newton recursion and scheme window
#: grow as r^2; on a 2-CPU VM each coefficient source of `scheme`, and
#: `compare` over orders 0..r, end within 0.5 s at r = 1000 (1.0 s at 2000)
MAX_ORDER = 1000


class ToleranceError(ValueError):
    """A requested tail tolerance cannot be met with the configured cutoffs."""


class Alphabet(Value):
    """A weight alphabet: finite list or one of the named infinite families.

    kinds:
      finite       explicit weights in [0, 1]
      ewens_limit  {theta/(theta+n-1), n >= 1}; the harmonic alphabet
                   {1/n, n >= 1} is its theta = 1 case, `Alphabet.harmonic()`
      omega_limit  harmonic together with {1/p, p prime}
      fq_limit     harmonic together with {q^-deg(P), P monic irreducible}
    """

    __slots__ = ("kind", "weights", "theta", "q", "tolerance")

    def __init__(self, kind, weights=(), theta=0.0, q=0, tolerance=1e-12):
        if kind not in ALPHABET_KINDS:
            raise ValueError(f"unknown alphabet kind {kind!r}")
        if not 0.0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {tolerance:g}")
        if kind == "finite":
            array = np.asarray(weights)
            bad = np.flatnonzero(~((array >= 0.0) & (array <= 1.0)))
            if bad.size:
                raise ValueError(f"finite weights must lie in [0, 1], got {weights[bad[0]]}")
        elif kind == "ewens_limit":
            if not 0.0 < theta < math.inf:
                raise ValueError(f"ewens_limit needs a finite theta > 0, got {theta:g}")
        elif kind == "fq_limit":
            if prime_power_base(q) is None:
                raise ValueError("fq_limit needs a prime power q >= 2")
        for name, value in zip(Alphabet.__slots__, (kind, weights, theta, q, tolerance)):
            object.__setattr__(self, name, value)

    @classmethod
    def finite(cls, weights, tolerance=1e-12):
        return cls("finite", weights=tuple(map(float, weights)), tolerance=tolerance)

    @classmethod
    def ewens_limit(cls, theta, tolerance=1e-12):
        return cls("ewens_limit", theta=float(theta), tolerance=tolerance)

    @classmethod
    def harmonic(cls, tolerance=1e-12):
        """{1/n, n >= 1}: the Ewens alphabet at theta = 1."""
        return cls.ewens_limit(1.0, tolerance)

    @classmethod
    def omega_limit(cls, tolerance=1e-12):
        return cls("omega_limit", tolerance=tolerance)

    @classmethod
    def fq_limit(cls, q, tolerance=1e-12):
        return cls("fq_limit", q=int(q), tolerance=tolerance)


class ResidueCoeffs(Value):
    """Poisson rate plus residue expansion coefficients b_1..b_r.

    Virtual-alphabet constructors always emit b_1 = 0; a nonzero b_1 is
    accepted everywhere (no automatic recentering of lam, which would also
    change the higher coefficients).
    """

    __slots__ = ("lam", "b")

    def __init__(self, lam, b=()):
        if not lam > 0.0:
            raise ValueError("lam must be positive")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "b", b)

    @property
    def order(self) -> int:
        return len(self.b)


def check_order(r: int) -> None:
    """Refuse an order r past MAX_ORDER before any of its work is done."""
    if r > MAX_ORDER:
        raise ValueError(f"scheme order r = {r} exceeds the budget {MAX_ORDER}; "
                         "its work grows as r^2")


def power_sums(alphabet: Alphabet, kmax: int) -> tuple:
    """The tuple p_1..p_kmax of any alphabet's power sums, kmax >= 2; p_2 is
    the alphabet's sigma^2.

    A finite alphabet's are compensated sums p_k = sum_i a_i^k.  An infinite
    kind's are the tail of `_split` with an empty head (for theta = 1, the
    harmonic alphabet, p_k = zeta(k)); p_1 diverges for all of them and is
    reported as +inf: only the virtual specialization (p_1 := 0) is consumed.
    """
    if kmax < 2:
        raise ValueError("power sums must extend at least to k = 2")
    check_order(kmax)
    if alphabet.kind == "finite":
        if not alphabet.weights:
            raise ValueError("empty weight list")
        return tuple(math.fsum(map(pow, alphabet.weights, repeat(k)))
                     for k in range(1, kmax + 1))
    if alphabet.tolerance < _MIN_TOLERANCE:
        raise ToleranceError(
            f"tolerance {alphabet.tolerance:g} is below the double-precision "
            f"floor {_MIN_TOLERANCE:g} of the tail-corrected series"
        )
    tail_power = _split(alphabet)[1]
    return (math.inf,) + tuple(tail_power(k) for k in range(2, kmax + 1))


#: B_2k / (2k)!, k = 1..12: the Euler-Maclaurin coefficients of `zeta`
_EULER_MACLAURIN_COEFFS = tuple(num / (den * math.factorial(2 * k))
                                for k, (num, den) in enumerate(EVEN_BERNOULLI, 1))


# cached: the `rates` suite's residue products repeat their (s, a) pairs,
# so one `verify --suite rates` makes 2201 cache hits and 151 misses
@lru_cache(maxsize=8192)
def zeta(s: float, a: float = 1.0) -> float:
    """Hurwitz zeta(s, a) = sum_{j>=0} (a+j)^-s for s >= 2, a > 0.

    Euler-Maclaurin summation (DLMF 25.11(iii)): the first
    n = max(10, ceil(s + 10 - a)) terms, then at t = a + n the integral
    t^(1-s)/(s-1), the half term t^-s/2 and twelve corrections
    B_2k/(2k)! s(s+1)...(s+2k-2) t^(-s-2k+1), all in one compensated sum.
    Since t >= s + 10, the corrections shrink at least like
    ((s+2k)/(2 pi t))^2, and the first omitted one is below 1e-22 of the
    sum.  Against a 60-digit reference the relative error is at most
    1e-15 for s = 2..60 and a in [0.05, 2e4].
    """
    if s < 2:
        raise ValueError("zeta tail scheme needs s >= 2")
    return _euler_maclaurin(s, a, pow)


def _euler_maclaurin(s: float, a: float, power) -> float:
    """zeta's summation of sum_{j>=0} c (a+j)^-s, power(x, e) being c x^e
    for one fixed c (c = 1 with power = pow)."""
    n = max(10, math.ceil(s + 10.0 - a))
    xs = list(map(operator.add, repeat(a), range(n + 1)))
    t = xs[n]
    terms = list(map(power, xs[:n], repeat(-s)))
    terms += [power(t, 1 - s) / (s - 1), 0.5 * power(t, -s)]
    rising = s * power(t, -s - 1)  # s (s+1) ... (s+2k-2) t^(-s-2k+1) at k = 1
    inv_t2 = 1.0 / (t * t)
    for k, coeff in enumerate(_EULER_MACLAURIN_COEFFS, 1):
        terms.append(coeff * rising)
        rising *= (s + 2 * k - 1) * (s + 2 * k) * inv_t2
    # a + j rounds once it leaves the binade of a, and at any j once
    # a > 2^53; its exact residual e (Knuth's TwoSum) enters to first
    # order, through the derivative -s x^(-s-1) of a term and
    # -s zeta(s+1, t) of the tail
    for j, x in enumerate(xs):
        b = x - a
        e = (a - (x - b)) + (j - b)
        if e:
            u = s / x
            slope = u if j < n else 1.0 + u / 2.0 + u * (s + 1) / (12.0 * x)
            terms.append(-e * power(x, -s) * slope)
    return math.fsum(terms)


#: log of the largest a^s for which theta^s (theta <= a) stays finite and
#: the terms of zeta(s, a) stay in the normal float range
_LOG_FLOAT_RANGE = 708.0


def _scaled_zeta(s: float, a: float, theta: float) -> float:
    """theta^s zeta(s, a) = sum_{j>=0} (theta/(a+j))^s, for 1 <= a, theta <= a
    and an integer s.

    Where s log a passes _LOG_FLOAT_RANGE, the sum can be finite (about
    theta/(s-1) for a near theta) although theta^s or the terms of zeta are
    not: there zeta's summation forms theta^s x^e as (theta/x)^s x^(e+s),
    whose first factor is at most 1.  Elsewhere it is the product
    theta^s zeta(s, a).
    """
    if s * math.log(a) < _LOG_FLOAT_RANGE:
        return theta ** s * zeta(s, a)
    return _euler_maclaurin(s, a, lambda x, e: (theta / x) ** s * x ** (e + s))


def prime_zeta(s: float, tol: float = 1e-15) -> float:
    """prime_zeta(s) = sum_p p^-s via the Moebius-zeta identity.

    P(s) = sum_{m>=1} mu(m)/m * log zeta(s m); the terms decay like
    2^(-s m), and the sum stops once a term falls below tol / 10 of the
    total.  Each log zeta(s m) is taken as log1p(zeta(s m, 2)), which keeps
    zeta - 1 to full precision, so at the default tol the relative error
    against mpmath stays below 1e-15 for s = 2..60.
    """
    if s < 2:
        raise ValueError("prime zeta evaluated for s >= 2 only")
    total = 0.0
    for m in range(1, 600):
        sm = s * m
        if sm > 1070:  # 2^-sm underflows; remaining terms are below 1e-300
            return total
        log_z = math.log1p(zeta(sm, 2.0))
        mu = mobius(m)
        if mu:
            total += mu / m * log_z
        if log_z / m < tol / 10.0 * total:
            return total
    raise ToleranceError(f"prime zeta({s}) did not reach tolerance {tol:g}")


def _fq_degree_series(q: int, k: int, tol: float, first: int = 1) -> float:
    """sum_{m>=first} I_q(m) q^(-k m), truncated once a geometric bound on
    the tail falls below tol / 10 times the series' leading term."""
    ratio = float(q) ** (1 - k)
    lead = irreducible_count(q, first) * float(q) ** (-k * first)
    total = 0.0
    for m in range(first, first + 1999):
        total += irreducible_count(q, m) * float(q) ** (-k * m)
        # I_q(j) <= q^j / j, so the tail past m is below the geometric bound
        tail_bound = ratio ** (m + 1) / ((m + 1) * (1.0 - ratio))
        if tail_bound < tol / 10.0 * lead:
            return total
    raise ToleranceError(f"fq power-sum series (q={q}, k={k}) did not reach {tol:g}")


def elementary_from_power(ps, rmax: int):
    """Elementary symmetric values e_0..e_rmax from the power sums p_1, p_2, ...
    by the Newton recursion k e_k = sum_i (-1)^(i-1) p_i e_(k-i).

    The recursion is the O(r^2) form of the partition-sum change of basis
    encoded by E(z) = exp(-P(-z)).  An e_k past the float range, b_k of a
    virtual specialization, raises OverflowError.
    """
    if rmax > len(ps):
        raise ValueError(f"rmax={rmax} exceeds available power sums (kmax={len(ps)})")
    p = ps[:rmax]
    if any(not math.isfinite(v) for v in p):
        raise ValueError("power sums must be finite; use virtual_residue_coeffs "
                         "for infinite alphabets (p_1 -> 0)")
    signed = [-v if i % 2 else v for i, v in enumerate(p)]  # p_1, -p_2, p_3, ...
    e = [1.0]
    for k in range(1, rmax + 1):
        try:  # fsum refuses an overflowing sum and terms of +inf and -inf
            e.append(math.fsum(map(operator.mul, signed[:k], reversed(e))) / k)
        except (OverflowError, ValueError):
            e.append(math.inf)
        if not math.isfinite(e[k]):
            raise OverflowError(f"residue coefficient b_{k} = e_{k} overflows the float range")
    return e


def virtual_residue_coeffs(ps, rmax: int, lam: float) -> ResidueCoeffs:
    """Residue coefficients b_s = e_s(A') of the specialization with p_1 = 0
    of the power sums ps.

    b_1 = 0 by construction; b_2 = -p_2/2, b_3 = p_3/3,
    b_4 = p_2^2/8 - p_4/4, and so on through the Newton recursion.
    """
    e = elementary_from_power((0.0, *ps[1:]), rmax)
    return ResidueCoeffs(lam=float(lam), b=tuple(e[1:]))


def residue_coeffs(alphabet: Alphabet, r: int, lam: float) -> ResidueCoeffs:
    """The order-r coefficients b_1..b_r = e_s(A') of any alphabet A.

    Order 0 and the empty finite alphabet have all-zero coefficients.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    check_order(r)
    if r == 0 or (alphabet.kind == "finite" and not alphabet.weights):
        return ResidueCoeffs(lam, (0.0,) * r)
    return virtual_residue_coeffs(power_sums(alphabet, max(2, r)), r, lam)


def residue_series_eval(rc: ResidueCoeffs, z) -> complex:
    """1 + sum_{s=1}^r b_s z^s, Horner evaluation."""
    z = complex(z)
    acc = 0.0 + 0.0j
    for b in reversed(rc.b):
        acc = acc * z + b
    return 1.0 + z * acc


# --- residue evaluated from the product form -------------------------------

def residue_product_eval(alphabet: Alphabet, z) -> complex:
    """E(A', z) = prod_i (1 + a_i z) exp(-a_i z) over the whole alphabet.

    The literal product over the head that `_split` sizes for |z| (a finite
    alphabet is all head), times the exponentiated log-series

        sum_{k>=2} (-1)^(k-1) p_k(tail) z^k / k

    of the tail, whose weights are all at most 1/(2 |z|).
    """
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    az = abs(z)
    head, tail_power = _split(alphabet, az)
    prod = 1.0 + 0.0j
    for a, count in head:
        factor = (1.0 + a * z) * cmath.exp(-a * z)
        prod *= factor ** count if count > 1 else factor
    if tail_power is None:
        return prod

    # log-series of the tail; terms decay at least like 2^-k
    series = 0.0 + 0.0j
    p2_tail = tail_power(2)
    for k in range(2, 600):
        series += (-1) ** (k - 1) * tail_power(k) * z ** k / k
        # remaining terms are below p2_tail * (|z|/2)^... geometric with ratio <= 1/2
        bound = p2_tail * az * az * 0.5 ** (k - 1) / (k + 1) * 2.0
        if bound < alphabet.tolerance / 10.0 and k >= 4:
            break
    else:
        raise ToleranceError("residue product log-series did not converge")
    return prod * cmath.exp(series)


def _split(alphabet: Alphabet, az: float = 0.0):
    """Head atoms (weight, multiplicity) and the tail power-sum function of a
    product evaluated at |z| = az; az = 0 asks for an empty head.

    This is the one place that knows what each alphabet kind holds.  A
    finite alphabet is all head, with no tail (None).  Every infinite kind
    holds the Ewens alphabet {theta/(theta+n-1), n >= 1} (theta = 1, the
    harmonic alphabet, for omega and fq), whose first n0 atoms go to the
    head; omega adds {1/p, p prime}, the primes p <= n0 in the head, and fq
    adds q^-m with multiplicity I_q(m), the degrees m <= m0 in the head.
    For az > 0, n0 and m0 are the least (n0 >= 2 for omega) that leave every
    tail weight at most 1/(2 az).  The tail power sums are

      ewens_limit:  theta^k hurwitz_zeta(k, theta + n0), or
                    1 + theta^k hurwitz_zeta(k, theta + 1) when n0 = 0,
                    by `_scaled_zeta` (finite up to theta = 1e308)
      omega_limit:  zeta(k, 1 + n0) + prime_zeta(k) - sum_{p <= n0} p^-k
      fq_limit:     zeta(k, 1 + n0) + sum_{m > m0} I_q(m) q^(-k m)

    The omega subtraction amplifies the absolute error of prime_zeta by
    az^k / k in the residue series, so omega refuses az past
    OMEGA_RESIDUE_RADIUS; the fq series is summed from degree m0 + 1 on.
    """
    if alphabet.kind == "finite":
        return [(a, 1) for a in alphabet.weights], None
    tol = alphabet.tolerance
    th = alphabet.theta if alphabet.kind == "ewens_limit" else 1.0
    n0 = m0 = 0
    if az:
        if alphabet.kind == "omega_limit" and az > OMEGA_RESIDUE_RADIUS:
            raise ToleranceError(f"omega residue product is within tolerance for |z| <= "
                                 f"{OMEGA_RESIDUE_RADIUS:g} only, got |z| = {az:g}")
        n0 = max(2 if alphabet.kind == "omega_limit" else 1, math.ceil(2.0 * th * az))
        while alphabet.kind == "fq_limit" and float(alphabet.q) ** (m0 + 1) < 2.0 * az:
            m0 += 1
        if n0 > 10 ** 6 or m0 > 60:
            raise ToleranceError(f"divergent tail request: |z| = {az:g} is too large")
    head = [(th / (th + n - 1.0), 1) for n in range(1, n0 + 1)]
    if n0:
        ewens_tail = lambda k: _scaled_zeta(k, th + n0, th)
    else:  # the atom 1 apart: theta^-k, the first term of zeta(k, theta), overflows
        ewens_tail = lambda k: 1.0 + _scaled_zeta(k, th + 1.0, th)
    if alphabet.kind == "ewens_limit":
        return head, ewens_tail
    if alphabet.kind == "omega_limit":
        head_primes = primes_up_to(n0).tolist()
        head += [(1.0 / p, 1) for p in head_primes]
        return head, lambda k: (ewens_tail(k) + prime_zeta(k, tol)
                                - math.fsum(p ** float(-k) for p in head_primes))
    q = alphabet.q
    head += [(float(q) ** (-m), irreducible_count(q, m)) for m in range(1, m0 + 1)]
    return head, lambda k: ewens_tail(k) + _fq_degree_series(q, k, tol, m0 + 1)


# --- moment bridge ----------------------------------------------------------

# cached: the cache keeps this two-term recursion polynomial in k; without
# it the number of calls grows exponentially
@lru_cache(maxsize=None)
def stirling2(k: int, l: int) -> int:
    """Stirling set-partition number: partitions of {1..k} into l blocks."""
    if k == l == 0:
        return 1
    if k == 0 or l == 0 or l > k:
        return 0
    return l * stirling2(k - 1, l) + stirling2(k - 1, l - 1)


def stirling2_elementary_bridge(moments):
    """Recover e_1..e_r of the weights from raw moments of a Bernoulli sum.

    Inverts the unitriangular system M_k = sum_l l! S(k, l) e_l, where
    S(k, l) counts set partitions.  This is what makes order-r schemes
    computable from the first r moments of data alone.
    """
    moments = [float(m) for m in moments]
    r = len(moments)
    e = [0.0] * (r + 1)
    for k in range(1, r + 1):
        acc = math.fsum(math.factorial(l) * stirling2(k, l) * e[l] for l in range(1, k))
        e[k] = (moments[k - 1] - acc) / math.factorial(k)
    return e[1:]
