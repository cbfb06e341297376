"""The counts c_k = #{m <= n : omega(m) = k} without a sieve to n.

models.omega_pmf imports this module when it is first called, so a
command that never counts omega does not compile it.
"""

import math

import numpy as np

from ._arith import primes_up_to


def prime_count_table(n: int, primes: list):
    """pi(v) at the floor values v = n // i, as small[v] for v <= sqrt(n) and
    large[i] = pi(n // i) for i <= sqrt(n); primes are those <= sqrt(n).

    Legendre's sieve as a dynamic program over the floor values (Lagarias,
    Miller and Odlyzko, Math. Comp. 44 (1985); Deleglise and Rivat, Math.
    Comp. 65 (1996)): S(v) starts as the v - 1 integers in [2, v], and each
    prime p strikes its multiples whose least prime factor is p,
    S(v) -= S(v // p) - S(p - 1) for every v >= p^2, one vectorized update
    per prime from values read before any is written.
    """
    root = math.isqrt(n)
    index = np.arange(root + 1, dtype=np.int64)
    small = np.maximum(index - 1, 0)
    large = n // np.maximum(index, 1) - 1
    for p in primes:
        below = small[p - 1]
        rows = min(root, n // (p * p))  # the i with n // i >= p^2
        inside = min(rows, root // p)  # the i with i p <= sqrt(n): large[i p]
        struck = np.concatenate((large[p:inside * p + 1:p],
                                 small[n // (index[inside + 1:rows + 1] * p)]))
        large[1:rows + 1] -= struck - below
        if p * p <= root:
            small[p * p:] -= small[index[p * p:] // p] - below
    return small.tolist(), large.tolist()


def omega_counts(n: int) -> list:
    """c_k = #{m <= n : omega(m) = k} for k = 0..max omega, n <= 6469693229.

    Each m > 1 is d q^a, q its largest prime and a >= 1, and the walk visits
    the d depth first.  A node (d, i, k) holds a d with k distinct primes,
    all below primes[i]: the d q with q >= primes[i] prime number
    pi(n // d) - i, read off the table, and each prime q = primes[j], j >= i,
    with d q^(a+1) <= n gives d q^(a+1) and the node (d q^a, j + 1, k + 1).
    A node d q with q^3 > n // d has no node below it and is counted in
    place.  The nodes number about n^(3/4) / log n.
    """
    root = math.isqrt(n)
    primes = primes_up_to(root).tolist()
    small, large = prime_count_table(n, primes)
    counts = [1] + [0] * 11  # c_0 counts 1; omega(m) <= 9 below 2*3*5*...*29
    stack = [(1, 0, 0)]
    while stack:
        d, i, k = stack.pop()
        top = n // d
        found = (large[d] if d <= root else small[top]) - i
        for j in range(i, len(primes)):
            q = primes[j]
            if q * q > top:
                break
            rest = top // q
            if q * q > rest:  # no q' > q has q'^2 <= n // (d q)
                found += 1
                counts[k + 2] += (large[d * q] if d * q <= root else small[rest]) - j - 1
                continue
            dq = d * q
            while dq * q <= n:
                stack.append((dq, j + 1, k + 1))
                found += 1
                dq *= q
        counts[k + 1] += found
    while counts[-1] == 0:
        counts.pop()
    return counts
