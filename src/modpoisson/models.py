"""Exact finite-support distributions for the four model families.

Every model is computed exactly and exposed as a plain mass function:
the float Bernoulli fold as a product tree of pairwise convolutions; the
weighted-permutation h_n(w Theta) from the powers of one series,
[w^j] h_n = [t^n] G^j / j! with G(t) = sum_k theta_k t^k / k, by
np.convolve in both modes (object rows of integers when rational);
integer recursions for the F_q counts (object rows, np.convolve) and the
rational Bernoulli fold, whose Fraction masses are formed once at the
end, as are those of the rational h_n; and for omega, prime counts at the
floor values N // i and a walk over the integers by their largest prime.  The
families are

  bernoulli_sum        X = sum of independent Be(p_i)
  weighted_perm        number of cycles under cycle-weighted permutation
                       measures, pgf h_n(w Theta) / h_n(Theta)
  ewens                the constant-weight special case theta_k = theta
  fq_poly              number of distinct irreducible factors of a uniform
                       monic degree-n polynomial over F_q
  omega                number of distinct prime divisors of a uniform
                       integer in {1..N}

plus the mod-Poisson rate lam_n of each family and the empirical residue
(ratio of the model pgf to the Poisson pgf), which is what the rate checks
measure against the limiting product form.

Every measure in the package is a SignedMeasure; a Pmf is one with
nonnegative masses, exact when its masses are Fractions.
"""

import cmath
import math
from numbers import Integral

import numpy as np

from ._arith import (EVEN_BERNOULLI, Frozen, divisors, irreducible_count, mobius, prime_power_base,
                     primes_up_to)
from .symfunc import Alphabet, ToleranceError, zeta

__all__ = [
    "EULER_GAMMA",
    "SignedMeasure",
    "Pmf",
    "ModelSpec",
    "bernoulli_sum_pmf",
    "weighted_perm_cycle_pmf",
    "ewens_cycle_pmf",
    "fq_factor_pmf",
    "omega_values",
    "omega_pmf",
    "model_lambda",
    "gamma_theta",
    "r_q",
    "empirical_residue",
]

EULER_GAMMA = 0.5772156649015329

#: masses this small are pure float underflow noise and may be trimmed
_UNDERFLOW = 1e-320

#: largest (len + 1) x total denominator bits the rational Bernoulli fold
#: accepts: about 1 s on a 2-CPU x86-64 VM, reached by 400 float weights
RATIONAL_FOLD_BUDGET = 10 ** 7
#: largest work of the weighted-permutation h_n series on a 2-CPU x86-64
#: VM: n^3 in the float mode (0.7 s at n = 2154) and n^3 x max(bits(d), n)^2
#: in the rational one, whose integers grow with n and with the bits of d,
#: the common denominator of the theta_k / k (0.9 s for dyadic weights at
#: n = 125, 175 bits; 0.4 s for theta_1 = 1e-300 at n = 40, 1097 bits; 0.1 s
#: for theta_k = k at n = 158, the largest n with d = 1 it accepts)
HN_SERIES_BUDGET = 10 ** 10
RATIONAL_HN_SERIES_BUDGET = 10 ** 11
#: bounds on the scratch block of the float Bernoulli fold, which is twice
#: the factors' bytes within them; the lower one holds one pair of the last,
#: 33-wide level.  Folds of at most 544 weights get the lower one: a fixed
#: 128 KB block raised the verify suites' peak RSS by 0.4 MB.  Folds of 4096
#: weights and more get the upper one: a fixed 32 KB block made folds of
#: 2000-10^5 weights 10-25% slower.
_FOLD_BLOCK_BYTES = (2 * 33 * 33 * 8, 128 * 1024)
#: largest work of the F_q factor recursion: n^4 x b x max(b, 10^4), b = n x
#: bits(q), at least the bits of q^n.  Its n^4 / 24 products of integers of up
#: to b bits cost about linear in b below 10^4 bits and quadratic past it; the
#: largest accepted sizes take 0.4-1.1 s on a 2-CPU x86-64 VM (q = 2 runs to
#: n = 137, q = 2^64 to n = 68, q = 2^1000 to n = 31)
FQ_RECURSION_BUDGET = 10 ** 15
#: largest N^(3/4) of the omega count, about the size of its walk: the
#: largest accepted N, 5.4 x 10^9, takes about 1 s on a 2-CPU x86-64 VM
OMEGA_COUNT_BUDGET = 2 * 10 ** 7
#: largest n_max the omega sieve accepts, at about 1 byte per integer
OMEGA_SIEVE_BUDGET = 10 ** 8
#: integers per block of the omega sieve's large primes: one mask of all
#: n_max integers would raise its peak memory by n_max bytes
_OMEGA_BLOCK = 1 << 16


def _mass_array(masses) -> np.ndarray:
    """masses as a SignedMeasure holds them."""
    masses = np.asarray(masses)
    if masses.dtype != object or not _all_fractions(masses.tolist()):
        masses = masses.astype(float, copy=False)
    masses = masses.view()
    masses.flags.writeable = False
    return masses


def _all_fractions(values) -> bool:
    from fractions import Fraction  # loaded only where a mass may be exact
    return all(isinstance(m, Fraction) for m in values)


class SignedMeasure(Frozen):
    """Real-valued mass function with unit total on a contiguous integer window.

    masses[j] is the mass of offset + j, in a read-only 1-D array whose dtype
    is its exactness: object when every mass is a Fraction (they must total
    exactly 1), float64 otherwise, ints and mixed input included (1 within
    1e-10 by compensated sum; truncation of sub-1e-300 tails keeps it far
    inside that).  total is that sum.  Measures compare by identity.
    """

    __slots__ = ("offset", "masses", "total")

    def __init__(self, offset, masses):
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "masses", _mass_array(masses))
        self._check()

    def _check(self):
        """Validate offset and normalized masses, and set total."""
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        if len(self.masses) == 0:
            raise ValueError("empty mass function")
        total = self._sum(self.masses.tolist())
        if self._exact and total != 1:
            raise ValueError("rational masses must sum to exactly 1")
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "total", total)

    @property
    def _exact(self) -> bool:
        return self.masses.dtype == object

    @classmethod
    def from_masses(cls, offset, masses):
        """Build a measure, trimming zero edges (for floats, underflow-level ones)."""
        masses = _mass_array(masses)
        floor = 0 if masses.dtype == object else _UNDERFLOW
        lo, hi = 0, len(masses)
        while lo < hi - 1 and abs(masses.item(lo)) <= floor:
            lo += 1
        while hi - 1 > lo and abs(masses.item(hi - 1)) <= floor:
            hi -= 1
        return cls(offset + lo, masses[lo:hi])

    def _sum(self, terms):
        if not self._exact:
            return math.fsum(terms)
        from fractions import Fraction
        return sum(terms, Fraction(0))

    def mass(self, k: int):
        j = k - self.offset
        if 0 <= j < len(self.masses):
            return self.masses.item(j)
        if not self._exact:
            return 0.0
        from fractions import Fraction
        return Fraction(0)

    def support(self) -> range:
        return range(self.offset, self.offset + len(self.masses))

    def to_float(self):
        """The same measure with float masses, underflow-level edges trimmed."""
        return (type(self).from_masses(self.offset, self.masses.astype(float))
                if self._exact else self)


class Pmf(SignedMeasure):
    """A SignedMeasure with nonnegative masses: a probability mass function."""

    __slots__ = ()

    def _check(self):
        super()._check()
        if min(self.masses.tolist()) < 0:  # ndarray.min maps 64 KB of numpy code
            raise ValueError("negative mass in a Pmf")


# --- Bernoulli convolutions -------------------------------------------------

def _bernoulli_fold_float(weights):
    """Float convolution of independent Bernoulli factors by a product tree.

    The divide-and-conquer product of Biscarri, Zhao and Brunner (CSDA
    122, 2018): the factors [1 - p, p] are the columns of a (width, count)
    array and are merged pairwise, all pairs of one level at once, until
    they are 64 wide (an odd count is padded with delta_0, which is exact),
    then with np.convolve.  A level merges c pairs of width w in one sheared
    reduction: the products a[j] b[l] fill a zeroed (w, 2w, c) block whose
    first w (2w - 1) c entries, read as (w, 2w - 1, c), hold row j shifted
    by j, so that summing over its first axis gives the convolutions.  numpy
    adds along an outer axis one row at a time, so every output entry is
    the sum over j = 0..w-1 in increasing j, as in the per-j loop this
    replaces; the only extra terms are exact +0.0s, and the bits are the
    same.  Pairs go through the block in chunks; it is twice the factors'
    bytes, within _FOLD_BLOCK_BYTES.  Edge entries at or below 1e-320 are
    pure underflow and are trimmed after every convolution, which keeps
    10^6-fold convolutions near-linear.
    """
    p = np.asarray(weights, dtype=float)
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        raise ValueError(f"Bernoulli weight {float(p[bad[0]])} outside [0, 1]")
    cols = np.stack([1.0 - p, p]) if p.size else np.eye(2, 1)
    low, high = _FOLD_BLOCK_BYTES
    block = np.empty(min(max(2 * cols.nbytes, low), high) // cols.itemsize)
    while cols.shape[1] > 1 and cols.shape[0] < 64:
        w, count = cols.shape
        if count % 2:
            cols = np.hstack([cols, np.eye(w, 1)])
        a, b = cols[:, 0::2], cols[:, 1::2]
        cols = np.empty((2 * w - 1, a.shape[1]))
        step = len(block) // (2 * w * w)
        for lo in range(0, a.shape[1], step):
            c = min(step, a.shape[1] - lo)
            outer = block[:2 * w * w * c].reshape(w, 2 * w, c)
            np.multiply(a[:, None, lo:lo + c], b[None, :, lo:lo + c], out=outer[:, :w])
            outer[:, w:] = 0.0
            sheared = block[:w * (2 * w - 1) * c].reshape(w, 2 * w - 1, c)
            # a fresh contiguous result: reducing into the strided columns
            # would make numpy allocate a buffer of the chunk's size
            cols[:, lo:lo + c] = np.add.reduce(sheared, axis=0)
    parts = [(0, row) for row in cols.T]
    while len(parts) > 1:
        merged = []
        for (o1, r1), (o2, r2) in zip(parts[0::2], parts[1::2]):
            row = np.convolve(r1, r2)
            kept = np.flatnonzero(row > _UNDERFLOW)
            merged.append((o1 + o2 + int(kept[0]), row[kept[0]:kept[-1] + 1]))
        parts = merged + parts[len(merged) * 2:]
    return Pmf.from_masses(*parts[0])


def bernoulli_sum_pmf(weights, rational: bool = False):
    """Distribution of sum_i Be(p_i) by exact convolution from delta_0.

    Degenerate weights are allowed: p = 1 is a deterministic shift and
    p = 0 a no-op.  rational=True runs the same fold exactly, on integer
    numerators over one common denominator: each weight p = a/d maps the
    numerators c to c_j (d - a) + c_{j-1} a and multiplies the denominator
    by d.  Its cost grows like (len + 1) x the total denominator bits, and
    inputs above RATIONAL_FOLD_BUDGET of it are refused.
    """
    weights = list(weights)
    if rational:
        from fractions import Fraction
        weights = [Fraction(p) for p in weights]
        cost = (len(weights) + 1) * sum(p.denominator.bit_length() for p in weights)
        if cost > RATIONAL_FOLD_BUDGET:
            raise ValueError(f"rational fold of {len(weights)} weights: (n + 1) x "
                             f"denominator bits = {cost} exceeds the budget "
                             f"{RATIONAL_FOLD_BUDGET}")
        nums, den = [1], 1
        for p in weights:
            if not 0 <= p <= 1:
                raise ValueError(f"Bernoulli weight {p} outside [0, 1]")
            a, d = p.numerator, p.denominator
            nums = [c * (d - a) + b * a for c, b in zip(nums + [0], [0] + nums)]
            den *= d
        return Pmf.from_masses(0, [Fraction(c, den) for c in nums])
    return _bernoulli_fold_float(weights)


# --- weighted permutations ---------------------------------------------------

def _check_series_budget(n, rational, bits=0):
    """Refuse an h_n series whose work is past its mode's budget.

    The rational mode's integers have about max(bits, n) bits, bits those of
    d, the common denominator of the theta_k / k; bits = 0, before d is
    known, checks the least such work, n^5, before any weight is read.
    """
    if rational:
        cost = n ** 3 * max(bits, n) ** 2
        if cost > RATIONAL_HN_SERIES_BUDGET:
            raise ValueError(f"rational weighted-permutation series at n = {n}: n^3 x "
                             f"max(bits(d), n)^2 = {cost} exceeds the budget "
                             f"{RATIONAL_HN_SERIES_BUDGET}")
    elif n ** 3 > HN_SERIES_BUDGET:
        raise ValueError(f"float weighted-permutation series at n = {n}: n^3 = {n ** 3} "
                         f"exceeds the budget {HN_SERIES_BUDGET}")


def _homogeneous_polynomials(theta_seq, n, rational):
    """h_n(w Theta) as its row of coefficients in w.

    The generating series is sum_m h_m(w Theta) t^m = exp(w G(t)) with
    G(t) = sum_k theta_k t^k / k, so [w^j] h_n = [t^n] G^j / j!.  Each power
    of G is the previous one times G, one np.convolve per step, kept from
    t^j, where G^j starts, to t^n.  The float mode divides by j at each
    step; the rational mode runs the same loop on the integers C = d G, d the
    common denominator of the theta_k / k, and forms the Fractions
    [t^n] C^j / (j! d^j) only at the end, as the rational Bernoulli fold does.
    Work past HN_SERIES_BUDGET of n^3 (RATIONAL_HN_SERIES_BUDGET of
    n^3 x max(bits(d), n)^2) is refused.
    """
    _check_series_budget(n, rational)
    if len(theta_seq) == 0:
        raise ValueError("need at least theta_1")
    if not all(0 < t < math.inf for t in theta_seq):
        raise ValueError("cycle weights theta_k must be finite and positive")
    thetas = list(theta_seq[:n])
    thetas += thetas[-1:] * (n - len(thetas))
    if rational:
        from fractions import Fraction
        g = [Fraction(t) / k for k, t in enumerate(thetas, 1)]
        d = math.lcm(*(c.denominator for c in g))
        _check_series_budget(n, rational, d.bit_length())
        g = np.array([c.numerator * (d // c.denominator) for c in g], dtype=object)
    else:
        g = np.array(thetas, dtype=float) / np.arange(1, n + 1)
    power = np.zeros(n + 1, dtype=g.dtype)
    power[0] = 1  # G^0, from t^0 to t^n
    tops = [power[-1]]
    for j in range(1, n + 1):
        power = np.convolve(power[:n - j + 1], g[:n - j + 1])[:n - j + 1]
        if not rational:
            power /= j
        tops.append(power[-1])
    if rational:
        tops = [Fraction(c, math.factorial(j) * d ** j) for j, c in enumerate(tops)]
    return np.array(tops, dtype=g.dtype)


def weighted_perm_cycle_pmf(theta_seq, n: int, rational: bool = False):
    """Cycle-count distribution under the weight prod_k theta_k^{m_k}.

    pmf(j) = [w^j] h_n(w Theta) / h_n(Theta); the weights theta_k past the
    given theta_seq repeat its last one.  A float h_n(Theta) of 0 or inf is
    refused.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = _homogeneous_polynomials(theta_seq, n, rational)
    norm = sum(coeffs.tolist())
    if not 0 < norm < math.inf:
        raise ValueError(f"h_n(Theta) = {norm} is outside the float range; "
                         "use the rational mode")
    return Pmf.from_masses(0, coeffs / norm)


def ewens_cycle_pmf(theta, n: int, rational: bool = False):
    """Cycle-count distribution under the constant-weight (Ewens) measure.

    The pgf factors exactly as w * prod_{i=1}^{n-1} E[w^Be(theta/(theta+i))],
    so the generic h_n recursion is replaced by a linear-time Bernoulli
    fold (agreement with weighted_perm_cycle_pmf at constant theta is part
    of the test suite).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if rational:
        from fractions import Fraction
        th = Fraction(theta)
    else:
        th = float(theta)
    inner = bernoulli_sum_pmf([th / (th + i) for i in range(1, n)], rational)
    return Pmf(inner.offset + 1, inner.masses)


# --- polynomials over finite fields ------------------------------------------

def _one_minus_power_poly(k):
    """1 - (1-w)^k as an object row of Python int coefficients in w."""
    return np.array([0] + [(-1) ** (j + 1) * math.comb(k, j) for j in range(1, k + 1)],
                    dtype=object)


def fq_factor_pmf(q: int, n: int, rational: bool = False):
    """Distribution of the number of distinct irreducible factors over F_q.

    Builds the integer-coefficient polynomials
    L_m(w) = sum_{k|m} (m/k) I_q(m/k) (1 - (1-w)^k) and runs the recursion
    m f_m = sum_k L_k f_{m-k}, all as object rows of Python ints multiplied
    by np.convolve: f_m(w) counts the monic degree-m polynomials by number
    of distinct factors, so the division by m is exact (and checked).
    Checks the count identity f_n(1) = q^n and only then forms the rational
    masses f_n / q^n.  Work past FQ_RECURSION_BUDGET is refused first.
    """
    if prime_power_base(q) is None:
        raise ValueError("q must be a prime power >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = n * int(q).bit_length()
    cost = n ** 4 * bits * max(bits, 10 ** 4)
    if cost > FQ_RECURSION_BUDGET:
        raise ValueError(f"F_q factor recursion at q = {q}, n = {n}: n^4 x b x max(b, 10^4) = "
                         f"{cost} exceeds the budget {FQ_RECURSION_BUDGET}, b = n x bits(q)")
    ls = [None]
    for m in range(1, n + 1):
        lm = np.zeros(m + 1, dtype=object)
        for k in divisors(m):
            lm[:k + 1] += (m // k) * irreducible_count(q, m // k) * _one_minus_power_poly(k)
        ls.append(lm)
    fs = [np.ones(1, dtype=object)]
    for m in range(1, n + 1):
        coeffs = sum(np.convolve(ls[k], fs[m - k]) for k in range(1, m + 1))
        if any(coeffs % m):
            raise AssertionError(f"integer recursion failed: m f_m not divisible by m = {m}")
        fs.append(coeffs // m)
    total = sum(fs[n])
    if total != q ** n:
        raise AssertionError(f"count identity f_n(1) = q^n failed: {total} != {q ** n}")
    from fractions import Fraction
    exact = Pmf.from_masses(0, [Fraction(c, total) for c in fs[n]])
    return exact if rational else exact.to_float()


# --- distinct prime divisors --------------------------------------------------

def omega_values(n_max: int) -> np.ndarray:
    """omega(k) for k = 0..n_max (index 0 unused; omega(1) = 0).

    Each prime p <= sqrt(n_max) marks its multiples with one slice update.
    Every composite k <= n_max has such a prime factor, so the larger primes
    are the k > sqrt(n_max) still at 0 after that pass.  A larger prime has
    fewer than sqrt(n_max) multiples j p, so those are marked one multiplier
    j at a time, for all larger primes p <= n_max // j of a block at once.
    The blocks go in increasing order: a multiple j p with j >= 2 is
    composite, so marking one never hides a prime of a later block.
    """
    if n_max > OMEGA_SIEVE_BUDGET:  # before the n_max + 1 bytes are allocated
        raise ValueError(f"n_max={n_max} exceeds the sieve memory budget {OMEGA_SIEVE_BUDGET}")
    counts = np.zeros(n_max + 1, dtype=np.uint8)
    root = math.isqrt(n_max)
    for p in primes_up_to(root):
        counts[p::p] += 1
    for lo in range(root + 1, n_max + 1, _OMEGA_BLOCK):
        big = np.flatnonzero(counts[lo:lo + _OMEGA_BLOCK] == 0) + lo
        for j in range(1, n_max // lo + 1):
            counts[j * big[:np.searchsorted(big, n_max // j, side="right")]] += 1
    return counts


def omega_pmf(n_max: int) -> Pmf:
    """Distribution of the number of distinct prime divisors of a uniform
    integer in {1..n_max}: the counts of each omega over n_max, from a table
    of pi at the floor values n_max // i and a walk over the integers by
    their largest prime.  Time grows about as n_max^(3/4), memory as
    sqrt(n_max).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if int(n_max) ** 3 > OMEGA_COUNT_BUDGET ** 4:  # before any table; int: no int64 wrap
        raise ValueError(f"omega count at N = {n_max}: N^(3/4) exceeds the budget "
                         f"{OMEGA_COUNT_BUDGET}")
    from ._omega import omega_counts  # compiled only where omega is counted
    return Pmf.from_masses(0, np.array(omega_counts(n_max)) / float(n_max))


# --- mod-Poisson parameters ---------------------------------------------------

#: B_2k / (2k), k = 1..8: the asymptotic series of the digamma function
_DIGAMMA_COEFFS = tuple(num / (2 * k * den) for k, (num, den) in enumerate(EVEN_BERNOULLI[:8], 1))
#: the series is summed at x >= 16, where its 9th term is below 1e-21
_DIGAMMA_MIN_ARGUMENT = 16.0


def gamma_theta(theta: float) -> float:
    """gamma_theta = sum_{n>=1} theta/(n+theta-1) - theta log(1+1/n) = -theta psi(theta).

    psi(theta) = psi(x) - sum_{0<=i<m} 1/(theta+i) moves the argument to
    x = theta + m >= 16, where psi(x) = log x - 1/(2x) - sum_k B_2k/(2k x^2k)
    (DLMF 5.11.2) with eight terms; the m shift terms theta/(theta+i) and the
    series times -theta go into one compensated sum.  Against mpmath's
    digamma the error is at most 1e-15 max(1, |gamma_theta|) for theta in
    [1e-3, 1e3]; gamma_1 is 0.577215664901533, an ulp from Euler's constant.
    """
    theta = float(theta)
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta:g}")
    m = math.ceil(_DIGAMMA_MIN_ARGUMENT - theta) if theta < _DIGAMMA_MIN_ARGUMENT else 0
    x = theta + m
    terms = [theta / (theta + i) for i in range(m)]
    terms += [-theta * math.log(x), theta / (2.0 * x)]
    terms += [theta * c * x ** (-2 * k) for k, c in enumerate(_DIGAMMA_COEFFS, 1)]
    return math.fsum(terms)


def r_q(q: int, tolerance: float = 1e-12) -> float:
    """R_q = sum_{k>=2} mu(k)/k * log(1/(1 - q^(1-k))); terms decay like q^(1-k)."""
    if not isinstance(q, Integral):
        raise ValueError(f"q must be an integer, got {q!r}")
    if q < 2:
        raise ValueError("q must be >= 2")
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance:g}")
    total = 0.0
    for k in range(2, 2000):
        x = float(q) ** (1 - k)
        if x == 0.0:
            return total
        magnitude = -math.log1p(-x) / k
        mu = mobius(k)
        if mu:
            total += mu * magnitude
        if magnitude < tolerance / 10.0:
            return total
    raise ToleranceError(f"r_q({q}) did not reach tolerance {tolerance:g}")


def empirical_residue(pmf, lam: float, w) -> complex:
    """(sum_k pmf(k) w^k) * exp(-lam (w-1)): the model's Fourier ratio."""
    w = complex(w)
    acc = 0.0 + 0.0j
    for m in reversed(pmf.masses.tolist()):
        acc = acc * w + m
    if pmf.offset:
        acc *= w ** pmf.offset
    return acc * cmath.exp(-lam * (w - 1.0))


# --- model specs -------------------------------------------------------------

def _cycle_rate(family, theta, n, big_k=0.0):
    """theta log n + K + gamma_theta: the rate of a cycle count whose weights
    are theta past a prefix, with K = sum_k (theta_k - theta)/k (Ewens: 0)."""
    def rate(tolerance):
        lam = theta * math.log(n) + big_k + gamma_theta(theta)
        if not lam > 0.0:
            k_term, k_at = (" + K", f", K = {big_k:g}") if big_k else ("", "")
            raise ValueError(f"{family} rate theta log n{k_term} + gamma_theta = {lam:g} "
                             f"is not positive at theta = {theta:g}{k_at}, n = {n}")
        return lam
    return rate


class ModelSpec(Frozen):
    """One model family plus its size parameter, CLI- and report-friendly.

    Each constructor below is the one definition of its family: it checks
    the parameters and binds the exact law (rational -> measure), the
    mod-Poisson rate (tolerance -> lam) and the limiting alphabet
    (tolerance -> Alphabet).  A Bernoulli sum's weights are those of its
    finite alphabet, built and checked once for every tolerance, which its
    law folds and its rate sums; Ewens also binds the corollary's default
    tail r_n (no argument -> float).  The label is comma-free, so it stays
    a single CSV field.  Specs compare by identity: the bound law carries
    parameters, such as the cycle weights, that no field holds.
    """

    __slots__ = ("family", "label", "n", "law", "rate", "alphabet", "tail")

    def __init__(self, family, label, n, law, rate, alphabet, tail=None):
        for name, value in zip(ModelSpec.__slots__,
                               (family, label, n, law, rate, alphabet, tail)):
            object.__setattr__(self, name, value)

    @classmethod
    def bernoulli(cls, weights):
        alphabet = Alphabet.finite(weights)
        weights = alphabet.weights

        def rate(tolerance):
            if not weights:
                raise ValueError("bernoulli_sum rate needs at least one weight")
            return math.fsum(weights)
        return cls("bernoulli_sum", f"bernoulli_sum(n={len(weights)})", len(weights),
                   lambda rational: bernoulli_sum_pmf(weights, rational=rational),
                   rate, lambda tolerance: alphabet)

    @classmethod
    def ewens(cls, theta, n):
        theta, n = float(theta), int(n)
        if not (0.0 < theta < math.inf and n >= 1):
            raise ValueError("ewens needs a finite theta > 0 and n >= 1, "
                             f"got theta = {theta:g}, n = {n}")
        return cls("ewens", f"ewens(theta={theta:g};n={n})", n,
                   lambda rational: ewens_cycle_pmf(theta, n, rational=rational),
                   _cycle_rate("ewens", theta, n),
                   lambda tolerance: Alphabet.ewens_limit(theta, tolerance),
                   tail=lambda: theta * theta * zeta(2, theta + n))

    @classmethod
    def weighted_perm(cls, theta_seq, n):
        """Weights past theta_seq repeat its last one, theta: singularity analysis
        (Flajolet and Odlyzko 1990; Nikeghbali and Zeindler 2013) gives the
        Ewens(theta) alphabet and the rate of `_cycle_rate`."""
        theta_seq, n = tuple(float(t) for t in theta_seq), int(n)
        if n < 1 or not theta_seq:
            raise ValueError("weighted_perm needs n >= 1 and at least theta_1")
        if not all(0.0 < t < math.inf for t in theta_seq):
            raise ValueError("cycle weights theta_k must be finite and positive")
        theta = theta_seq[-1]
        big_k = math.fsum((t - theta) / k for k, t in enumerate(theta_seq, 1))
        return cls("weighted_perm", f"weighted_perm(n={n})", n,
                   lambda rational: weighted_perm_cycle_pmf(theta_seq, n, rational=rational),
                   _cycle_rate("weighted_perm", theta, n, big_k),
                   lambda tolerance: Alphabet.ewens_limit(theta, tolerance))

    @classmethod
    def fq_poly(cls, q, n):
        q, n = int(q), int(n)
        if prime_power_base(q) is None or n < 1:
            raise ValueError("fq_poly needs a prime power q >= 2 and n >= 1")
        return cls("fq_poly", f"fq_poly(q={q};n={n})", n,
                   lambda rational: fq_factor_pmf(q, n, rational=rational),
                   lambda tolerance: math.log(n) + r_q(q, tolerance) + EULER_GAMMA,
                   lambda tolerance: Alphabet.fq_limit(q, tolerance))

    @classmethod
    def omega(cls, big_n):
        big_n = int(big_n)
        if big_n < 1:
            raise ValueError("omega needs N >= 1")

        def law(rational):
            if rational:
                raise ValueError("omega model has no rational mode")
            return omega_pmf(big_n)

        def rate(tolerance):
            if big_n < 2:
                raise ValueError("omega rate log log N + gamma needs N >= 2")
            return math.log(math.log(big_n)) + EULER_GAMMA
        return cls("omega", f"omega(N={big_n})", big_n, law, rate, Alphabet.omega_limit)

    def pmf(self, rational: bool = False):
        return self.law(rational)


def model_lambda(spec: ModelSpec, tolerance: float = 1e-12) -> float:
    """The mod-Poisson rate lam_n of the family: sum p_i (bernoulli_sum),
    theta log n + K + gamma_theta (ewens, where K = 0, and weighted_perm),
    log n + R_q + gamma (fq_poly) or log log N + gamma (omega)."""
    return spec.rate(tolerance)
