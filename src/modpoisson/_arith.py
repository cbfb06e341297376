"""Small exact number-theory helpers shared across modules."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """Moebius function by trial division (n is always small here)."""
    if n < 1:
        raise ValueError("mobius is defined for n >= 1")
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


#: the Bernoulli numbers B_2, B_4, ..., B_24 as (numerator, denominator)
EVEN_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
                  (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
                  (-236364091, 2730))


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def irreducible_count(q: int, n: int) -> int:
    """Number of monic irreducible polynomials of degree n over F_q.

    Exact big-integer Moebius sum (1/n) * sum_{d|n} mu(d) q^(n/d).
    """
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    total = sum(mobius(d) * q ** (n // d) for d in divisors(n))
    assert total % n == 0
    return total // n


def prime_power_base(q: int) -> int | None:
    """Return the prime p if q = p^e for some e >= 1, else None."""
    if q < 2:
        return None
    m, p = q, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            return p if m == 1 else None
        p += 1
    return m  # q itself is prime


def primes_up_to(n: int) -> np.ndarray:
    """The primes <= n, ascending, by the sieve of Eratosthenes."""
    is_prime = np.ones(max(n + 1, 2), dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(max(n, 0) ** 0.5) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.flatnonzero(is_prime)
