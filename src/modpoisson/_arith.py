"""Small helpers shared across modules: exact number theory, and the
bases of the immutable records."""

import functools
from numbers import Integral

import numpy as np


class Frozen:
    """Base of the immutable records.

    A subclass names its fields in __slots__ and sets each one once, in
    __init__, through object.__setattr__; later assignment or deletion
    raises AttributeError.  Records compare by identity.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    """A Frozen record that compares and hashes by its fields, in slot order."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


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


def irreducible_count(q: int, n: int) -> int:
    """Number of monic irreducible polynomials of degree n over F_q.

    Exact big-integer Moebius sum (1/n) * sum_{d|n} mu(d) q^(n/d).
    """
    if not (isinstance(q, Integral) and isinstance(n, Integral)):
        raise ValueError(f"need integers q and n, got q = {q!r}, n = {n!r}")
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    total = sum(mobius(d) * q ** (n // d) for d in divisors(n))
    assert total % n == 0
    return total // n


#: the last trial divisor of `prime_power_base`: about 10 ms of divisions
PRIME_POWER_TRIAL_BOUND = 2 ** 16


def prime_power_base(q: int) -> int | None:
    """Return the prime p if q = p^e for some e >= 1, else None (also for a
    q that is not an integer).

    Trial division stops at PRIME_POWER_TRIAL_BOUND, so a q from its square
    on with no prime factor below it is refused with ValueError.
    """
    if not isinstance(q, Integral) or q < 2:
        return None
    return _prime_power_base(int(q))


@functools.lru_cache(maxsize=8)
def _prime_power_base(q: int) -> int | None:
    """`prime_power_base` of an int q >= 2, kept for the last few q: a
    command's model, law and alphabet each test the same q."""
    m, p = q, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            return p if m == 1 else None
        if p == PRIME_POWER_TRIAL_BOUND:
            raise ValueError(f"q = {q} has no prime factor below {p}; the prime-power test "
                             f"decides such a q only below {p}^2 = {p * p}")
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
