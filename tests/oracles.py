"""Brute-force oracles shared by the test modules.

Everything here is deliberately independent of the library's own
computation paths: permutations are enumerated one by one, zeta values
come from partial sums with elementary tail estimates, and residue
coefficients come from numerically differentiating the literal product.
"""

import cmath
import itertools
import math
from fractions import Fraction


def permutation_cycle_counts(n):
    """Number of cycles of every permutation of {0..n-1}, by enumeration."""
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        yield cycles


def permutation_cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if not seen[start]:
            size, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                size += 1
            lengths.append(size)
    return lengths


def weighted_cycle_histogram(theta_seq, n):
    """Exact rational pgf-by-enumeration of the cycle count under the
    weight prod_k theta_{len(cycle_k)}; theta_seq entries are Fractions."""
    hist = [Fraction(0)] * (n + 1)
    for perm in itertools.permutations(range(n)):
        weight = Fraction(1)
        lengths = permutation_cycle_type(perm)
        for size in lengths:
            weight *= theta_seq[size - 1]
        hist[len(lengths)] += weight
    total = sum(hist, Fraction(0))
    return [h / total for h in hist]


def zeta_partial_with_tail(s, terms):
    """Partial sum of zeta(s) plus the integral tail and midpoint half-term;
    accurate to O(s/terms^(s+1))."""
    partial = math.fsum(n ** (-s) for n in range(1, terms + 1))
    return partial + terms ** (1 - s) / (s - 1) - 0.5 * terms ** (-s)


def single_weight_residue_coeff(p, s):
    """Exact series coefficient of (1 + p z) e^(-p z) in z^s (s >= 1)."""
    return (-1) ** (s - 1) * p ** s * (s - 1) / math.factorial(s)


def moments_from_elementary(e_values):
    """Forward moment map M_k = sum_l l! S(k, l) e_l (set-partition Stirling)."""
    from modpoisson.symfunc import stirling2
    r = len(e_values)
    out = []
    for k in range(1, r + 1):
        out.append(math.fsum(math.factorial(l) * stirling2(k, l) * e_values[l - 1]
                             for l in range(1, k + 1)))
    return out


# --- reference kernels ---------------------------------------------------------
# The pure-Python (Fraction, per-prime) kernels that models.py replaced with
# integer and numpy ones; the replacements must reproduce them bit for bit.

def reference_bernoulli_rational_pmf(weights):
    """The Fraction fold: distribution of sum_i Be(p_i) from delta_0."""
    from modpoisson.models import Pmf
    masses = [Fraction(1)]
    for p in weights:
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise ValueError(f"Bernoulli weight {p} outside [0, 1]")
        stay = [m * (1 - p) for m in masses] + [Fraction(0)]
        for j, m in enumerate(masses):
            stay[j + 1] += m * p
        masses = stay
    return Pmf.from_masses(0, masses)


# --- reference float kernels --------------------------------------------------
# The sequential float Bernoulli fold, kept verbatim as the reference for the
# product tree.

def reference_bernoulli_fold_float(weights):
    """Windowed exact float convolution of independent Bernoulli factors.

    The active window keeps every mass above the subnormal floor; edge
    entries below 1e-320 are pure underflow and are trimmed as the window
    slides, which is what makes 10^6-fold convolutions linear-time.
    """
    import numpy as np
    from modpoisson.models import _UNDERFLOW, Pmf
    buf = np.zeros(512)
    buf[0] = 1.0
    offset, hi = 0, 1
    for i, p in enumerate(weights):
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"Bernoulli weight {p} outside [0, 1]")
        if hi + 1 > len(buf):
            buf = np.concatenate([buf, np.zeros(len(buf))])
        carried = p * buf[:hi]
        buf[:hi] *= 1.0 - p
        buf[1:hi + 1] += carried
        hi += 1
        if (i & 255) == 255:
            window = np.nonzero(buf[:hi] > _UNDERFLOW)[0]
            lo, h = int(window[0]), int(window[-1]) + 1
            if lo > 0:
                buf[: h - lo] = buf[lo:h]
                buf[h - lo: hi] = 0.0
                offset += lo
                hi = h - lo
            else:
                hi = h
    return Pmf.from_masses(offset, buf[:hi].tolist())


def reference_homogeneous_polynomials(theta_seq, n):
    """Float h_m(w Theta), m = 0..n, by the loop m h_m = sum_k (w theta_k) h_{m-k}."""
    theta = [float(t) for t in theta_seq]
    hs = [[1.0]]
    for m in range(1, n + 1):
        coeffs = [0.0] * (m + 1)
        for k in range(1, m + 1):
            tk = theta[k - 1]
            lower = hs[m - k]
            for j, c in enumerate(lower):
                coeffs[j + 1] += tk * c
        inv = 1.0 / m
        hs.append([c * inv for c in coeffs])
    return hs


def reference_rational_homogeneous_polynomials(theta_seq, n):
    """Fraction h_n(w Theta) by the same loop on Fractions."""
    theta = [Fraction(t) for t in theta_seq]
    hs = [[Fraction(1)]]
    for m in range(1, n + 1):
        coeffs = [Fraction(0)] * (m + 1)
        for k in range(1, m + 1):
            tk = theta[k - 1]
            lower = hs[m - k]
            for j, c in enumerate(lower):
                coeffs[j + 1] += tk * c
        inv = Fraction(1, m)
        hs.append([c * inv for c in coeffs])
    return hs[n]


def _reference_h_n(theta_seq, n, rational):
    if rational:
        return reference_rational_homogeneous_polynomials(theta_seq, n)
    return reference_homogeneous_polynomials(theta_seq, n)[n]


def reference_weighted_perm_cycle_pmf(theta_seq, n, rational=False):
    from modpoisson.models import Pmf
    coeffs = _reference_h_n(theta_seq, n, rational)
    norm = sum(coeffs[1:], coeffs[0])
    return Pmf.from_masses(0, [c / norm for c in coeffs])


def reference_weighted_perm_normalization(theta_seq, n, rational=False):
    coeffs = _reference_h_n(theta_seq, n, rational)
    return sum(coeffs[1:], coeffs[0])


def reference_fq_factor_pmf(q, n, rational=False):
    """The Fraction recursion m f_m = sum_k L_k f_{m-k} over F_q."""
    from modpoisson._arith import irreducible_count
    from modpoisson.models import Pmf
    ls = [None]
    for m in range(1, n + 1):
        lm = [0] * (m + 1)
        for k in range(1, m + 1):
            if m % k == 0:
                scale = (m // k) * irreducible_count(q, m // k)
                one_minus_power = [0] + [(-1) ** (j + 1) * math.comb(k, j)
                                         for j in range(1, k + 1)]
                for j, c in enumerate(one_minus_power):
                    lm[j] += scale * c
        ls.append(lm)
    fs = [[Fraction(1)]]
    for m in range(1, n + 1):
        coeffs = [Fraction(0)] * (m + 1)
        for k in range(1, m + 1):
            lk, lower = ls[k], fs[m - k]
            for i, a in enumerate(lk):
                if a:
                    for j, b in enumerate(lower):
                        coeffs[i + j] += a * b
        fs.append([c / m for c in coeffs])
    total = sum(fs[n], Fraction(0))
    if total != q ** n:
        raise AssertionError(f"count identity f_n(1) = q^n failed: {total} != {q ** n}")
    exact = Pmf.from_masses(0, [c / total for c in fs[n]])
    return exact if rational else exact.to_float()


def reference_omega_values(n_max):
    """omega(k) for k = 0..n_max by one slice update per prime."""
    import numpy as np
    counts = np.zeros(n_max + 1, dtype=np.uint8)
    if n_max >= 2:
        is_prime = np.ones(n_max + 1, dtype=bool)
        is_prime[:2] = False
        for p in range(2, int(n_max ** 0.5) + 1):
            if is_prime[p]:
                is_prime[p * p:: p] = False
        for p in np.nonzero(is_prime)[0]:
            counts[p::p] += 1
    return counts


def reference_omega_pmf(n_max):
    import numpy as np
    from modpoisson.models import Pmf
    counts = np.bincount(reference_omega_values(n_max)[1:])
    return Pmf.from_masses(0, (counts / float(n_max)).tolist())


def reference_rectify_positive(nu):
    """The sweep that re-summed the growing list of positives at every step."""
    from modpoisson.models import Pmf
    beta = -math.fsum(m for m in nu.masses if m < 0.0)
    masses = list(nu.masses)
    if beta == 0.0:
        return Pmf.from_masses(nu.offset, masses)
    positives = []
    alpha = None
    big_n = None
    for j, m in enumerate(masses):
        if m > 0.0:
            positives.append(m)
            if math.fsum(positives) > beta:
                big_n = j
                alpha = math.fsum(positives)
                break
    if big_n is None:
        raise AssertionError("no feasible sweep point; input total was not 1")
    out = [0.0] * len(masses)
    out[big_n] = alpha - beta
    for j in range(big_n + 1, len(masses)):
        out[j] = max(0.0, masses[j])
    return Pmf.from_masses(nu.offset, out)


# --- reference distances ----------------------------------------------------------
# The list-based TV and Kolmogorov distances that metrics.py replaced with
# numpy ones; the replacements must reproduce them bit for bit.

def _reference_aligned(a, b):
    lo = min(a.offset, b.offset)
    hi = max(a.offset + len(a.masses), b.offset + len(b.masses))
    size = hi - lo
    xs = [0.0] * size
    ys = [0.0] * size
    xs[a.offset - lo: a.offset - lo + len(a.masses)] = list(a.masses)
    ys[b.offset - lo: b.offset - lo + len(b.masses)] = list(b.masses)
    return xs, ys


def reference_total_variation(a, b):
    xs, ys = _reference_aligned(a, b)
    core = 0.5 * math.fsum(abs(x - y) for x, y in zip(xs, ys))
    return core + 0.5 * (abs(1.0 - a.total) + abs(1.0 - b.total))


def reference_kolmogorov(a, b):
    xs, ys = _reference_aligned(a, b)
    worst = 0.0
    ca = cb = 0.0
    for x, y in zip(xs, ys):
        ca += x
        cb += y
        worst = max(worst, abs(ca - cb))
    return worst


# --- reference chen-stein suite ----------------------------------------------------
# The chen-stein suite's own TV-versus-bound path, before it went through
# metrics.verify_bounds; the rows of verify_bounds must reproduce it bit for bit.

def reference_chen_stein(wts):
    """(tv, chen-stein bound, lecam bound) of one weight vector, and whether
    each bound holds within HOLDS_SLACK."""
    from modpoisson import metrics, schemes
    from modpoisson.models import bernoulli_sum_pmf
    lam = math.fsum(wts.tolist())
    pmf = bernoulli_sum_pmf(wts.tolist())
    tv0 = metrics.total_variation(pmf, schemes.poisson_pmf(lam))
    chen = metrics.chen_stein_bound(wts.tolist())
    lecam = metrics.lecam_bound(wts.tolist())
    return (tv0, chen, lecam, tv0 <= chen + metrics.HOLDS_SLACK,
            tv0 <= lecam + metrics.HOLDS_SLACK)


# --- reference alphabet kernels ---------------------------------------------------
# symfunc's per-kind power sums and head/tail split before one split function
# served both; power_sums of an infinite alphabet and residue_product_eval
# must reproduce them bit for bit, except the fq products with a degree head
# (now summed directly) and the omega ones past their radius (now refused).
# An Ewens power sum takes its atom 1 apart, as 1 + theta^k zeta(k, theta + 1),
# so that tiny theta does not overflow.

def reference_power_sums_infinite(alphabet, kmax):
    """p_1..p_kmax of an infinite alphabet, one closed form per kind."""
    from modpoisson.symfunc import _fq_degree_series, prime_zeta, zeta
    tol = alphabet.tolerance
    vals = [math.inf]
    for k in range(2, kmax + 1):
        if alphabet.kind == "ewens_limit":
            vals.append(1.0 + alphabet.theta ** k * zeta(k, alphabet.theta + 1.0))
        elif alphabet.kind == "omega_limit":
            vals.append(zeta(k) + prime_zeta(k, tol))
        else:
            vals.append(zeta(k) + _fq_degree_series(alphabet.q, k, tol))
    return tuple(vals)


def _reference_split_head(alphabet, az):
    from modpoisson._arith import irreducible_count, primes_up_to
    from modpoisson.symfunc import _fq_degree_series, prime_zeta, zeta
    tol = alphabet.tolerance
    th = alphabet.theta if alphabet.kind == "ewens_limit" else 1.0
    n0 = max(2 if alphabet.kind == "omega_limit" else 1, math.ceil(2.0 * th * az))
    m0 = 0
    while alphabet.kind == "fq_limit" and float(alphabet.q) ** (m0 + 1) < 2.0 * az:
        m0 += 1
    head = [(th / (th + n - 1.0), 1) for n in range(1, n0 + 1)]
    ewens_tail = lambda k: th ** k * zeta(k, th + n0)
    if alphabet.kind == "ewens_limit":
        return head, ewens_tail
    if alphabet.kind == "omega_limit":
        head_primes = primes_up_to(n0)
        head += [(1.0 / p, 1) for p in head_primes]
        side = lambda k: prime_zeta(k, tol)
        side_head = lambda k: math.fsum(p ** float(-k) for p in head_primes)
    else:
        q = alphabet.q
        head += [(float(q) ** (-m), irreducible_count(q, m)) for m in range(1, m0 + 1)]
        side = lambda k: _fq_degree_series(q, k, tol)
        side_head = lambda k: math.fsum(irreducible_count(q, m) * float(q) ** (-k * m)
                                        for m in range(1, m0 + 1))
    return head, lambda k: ewens_tail(k) + side(k) - side_head(k)


def reference_residue_product_eval(alphabet, z):
    """prod_i (1 + a_i z) exp(-a_i z): the literal product for a finite
    alphabet, a head product times the exponentiated tail log-series else."""
    z = complex(z)
    if alphabet.kind == "finite":
        prod = 1.0 + 0.0j
        for a in alphabet.weights:
            prod *= (1.0 + a * z) * cmath.exp(-a * z)
        return prod
    if z == 0:
        return 1.0 + 0.0j
    az = abs(z)
    head, tail_power = _reference_split_head(alphabet, az)
    prod = 1.0 + 0.0j
    for a, count in head:
        factor = (1.0 + a * z) * cmath.exp(-a * z)
        prod *= factor ** count if count > 1 else factor
    series = 0.0 + 0.0j
    p2_tail = tail_power(2)
    for k in range(2, 600):
        series += (-1) ** (k - 1) * tail_power(k) * z ** k / k
        bound = p2_tail * az * az * 0.5 ** (k - 1) / (k + 1) * 2.0
        if bound < alphabet.tolerance / 10.0 and k >= 4:
            break
    return prod * cmath.exp(series)


# --- 50-digit scheme masses ---------------------------------------------------------
# The scheme's defining double sum in mpmath, with nothing taken from `schemes`.

def mp_scheme_masses(lam, b, ks):
    """nu(k) = sum_{0<=t<=s<=r} (-1)^(s-t) C(s,t) b_s Po_lam(k - t), b_0 = 1,
    for k in ks, with 50-digit Poisson masses from mpmath's loggamma."""
    import mpmath
    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        log_lam = mpmath.log(lam)
        coeffs = [mpmath.mpf(1)] + [mpmath.mpf(x) for x in b]
        poisson = {}

        def po(j):
            if j < 0:
                return mpmath.mpf(0)
            if j not in poisson:
                poisson[j] = mpmath.exp(j * log_lam - lam - mpmath.loggamma(j + 1))
            return poisson[j]

        return [mpmath.fsum((-1) ** (s - t) * math.comb(s, t) * coeffs[s] * po(k - t)
                            for s in range(len(coeffs)) for t in range(s + 1))
                for k in ks]


# --- 50-digit Poisson masses and tails ------------------------------------------------

def mp_poisson_masses(lam, ks):
    """Po_lam(k) for the ascending k in ks, to 50 digits: the first from
    mpmath's loggamma, each next one by the ratio lam/k."""
    import mpmath
    ks = list(ks)
    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        k = ks[0]
        mass = mpmath.exp(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1))
        out = []
        for j in ks:
            while k < j:
                k += 1
                mass = mass * lam / k
            out.append(mass)
        return out


def mp_poisson_tails(lam, start, end):
    """P(X < start) and P(X > end) for X ~ Po(lam), to 50 digits, from the
    regularized upper incomplete gamma Q(n + 1, lam) = P(X <= n)."""
    import mpmath
    with mpmath.workdps(50):
        def upto(n):
            return mpmath.gammainc(n + 1, lam, mpmath.inf, regularized=True) if n >= 0 else 0
        return upto(start - 1), 1 - upto(end)
