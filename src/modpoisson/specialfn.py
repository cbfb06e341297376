"""Hermite polynomials, Cramer-type bounds, and a complex log-gamma.

Everything here is a standalone checkable special-function fact used by
the scheme analysis: probabilists' Hermite polynomials through the
three-term recurrence (H_{m+1} = x H_m - m H_{m-1}) and their explicit
expansion, the multiplication theorem H_m(ax) as a Hermite combination,
real and complex Cramer inequalities as nonnegative margins, and
log Gamma(z+1) for Re(z) > 0 by the shifted Stirling series, from which
the n^{theta w - 1} ratio estimate is checked.  Each function takes its
point (z, x or w) as a scalar or as a numpy array, elementwise.
"""

import math

import numpy as np

from ._arith import EVEN_BERNOULLI

__all__ = [
    "hermite",
    "hermite_explicit",
    "hermite_multiplication",
    "cramer_bound_margin",
    "complex_log_gamma",
    "gamma_ratio_margin",
]


def _require_finite(**values):
    """Refuse an argument with a NaN or infinite element, by its name."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


def hermite(m: int, z):
    """Probabilists' Hermite polynomial H_m(z) by the three-term recurrence."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    prev, cur = z ** 0, z  # H_0 = 1 in z's type and shape, H_1 = z
    for j in range(1, m):
        prev, cur = cur, z * cur - j * prev
    return cur if m else prev


_EXPLICIT_MAX_DEGREE = 40


def hermite_explicit(m: int, z):
    """H_m(z) = sum_l (-1)^l m! / (2^l (m-2l)! l!) z^(m-2l), by Horner in z^2.

    The coefficients are exact integers; beyond degree 40 their float
    conversion loses the requested precision, so larger m is refused.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    if m > _EXPLICIT_MAX_DEGREE:
        raise ValueError(f"explicit expansion limited to degree {_EXPLICIT_MAX_DEGREE}")
    z2 = z * z
    total = z ** 0  # the leading coefficient 1, in z's type and shape
    for l in range(1, m // 2 + 1):
        total = total * z2 + float((-1) ** l * math.factorial(m) // (
            2 ** l * math.factorial(m - 2 * l) * math.factorial(l)))
    return total * z if m % 2 else total


def hermite_multiplication(m: int, a: float, x):
    """Right-hand side of the multiplication theorem for H_m(a x):

    sum_l a^(m-2l) (a^2-1)^l C(m, 2l) (2l)!/(2^l l!) H_{m-2l}(x).
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    total = 0.0
    for l in range(m // 2 + 1):
        c = math.comb(m, 2 * l) * math.factorial(2 * l) // (2 ** l * math.factorial(l))
        total += a ** (m - 2 * l) * (a * a - 1.0) ** l * c * hermite(m - 2 * l, x)
    return total


def cramer_bound_margin(m: int, z):
    """bound - |H_m(z)|, which the Cramer inequalities promise is >= 0.

    Real z: bound = e^(x^2/4) sqrt(m!).  Complex z: bound = e^(|z|^2/4)
    3^(m/2) sqrt(m!) e^(1/2) m^(1/4).  A bound that overflows gives +inf.
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    _require_finite(z=z)
    z = np.asarray(z)
    with np.errstate(over="ignore", invalid="ignore"):
        sqrt_fact = np.exp(0.5 * math.lgamma(m + 1))
        bound = np.where(z.imag == 0.0, np.exp(z.real * z.real / 4.0) * sqrt_fact,
                         np.exp(np.abs(z) ** 2 / 4.0) * np.power(3.0, m / 2.0)
                         * sqrt_fact * math.exp(0.5) * m ** 0.25)
        return np.where(bound == math.inf, math.inf, bound - np.abs(hermite(m, z)))[()]


# --- complex log gamma --------------------------------------------------------

#: B_2k / (2k (2k-1)), k = 1..8: the Stirling series coefficients (DLMF 5.11.1)
_STIRLING_COEFFS = tuple(num / (2 * k * (2 * k - 1) * den)
                         for k, (num, den) in enumerate(EVEN_BERNOULLI[:8], 1))
#: the series is summed at |w| >= 7, where its 9th term is below 1e-15
_STIRLING_MIN_MODULUS = 7.0


def complex_log_gamma(z):
    """log Gamma(z+1) for Re(z) > 0 (principal branch) by the shifted
    Stirling series, DLMF 5.11.1.

    With w = z + 1, log Gamma(w) = log Gamma(w+1) - log w moves w right
    until |w| >= 7, where the series
    (w - 1/2) log w - w + log(2 pi)/2 + sum_{k=1}^8 B_2k / (2k (2k-1) w^(2k-1))
    is summed; the logs of the skipped arguments, all in the right
    half-plane, are subtracted; each element takes its own steps.  Absolute
    error is a few 1e-15 for |z| <= 10 and a few ulps of the result beyond.
    """
    _require_finite(z=z)
    z = np.asarray(z, dtype=complex)
    if (z.real <= 0.0).any():
        raise ValueError("complex_log_gamma needs Re(z) > 0")
    w = z + 1.0
    skipped = np.zeros_like(w)
    short = np.abs(w) < _STIRLING_MIN_MODULUS
    while short.any():
        skipped += np.where(short, np.log(w), 0.0)
        w = w + short  # one step right for each element still short of 7
        short = np.abs(w) < _STIRLING_MIN_MODULUS
    inv2 = 1.0 / (w * w)
    series = 0.0
    for c in reversed(_STIRLING_COEFFS):
        series = series * inv2 + c
    return ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi)
            + series / w - skipped)[()]


def gamma_ratio_margin(n: int, theta: float, rho: float, w):
    """B n^(theta x - 2) - |Gamma(n + theta w)/n! - n^(theta w - 1)|,
    with B = 3 (theta rho + 1/2)^2 e^(3(theta rho + 1/2)/2) and x = Re(w).

    Needs n >= 2 theta rho + 1 and |w| <= rho; the margin must be >= 0.
    """
    _require_finite(theta=theta, rho=rho, w=w)
    w = np.asarray(w, dtype=complex)
    if not n >= 2.0 * theta * rho + 1.0:
        raise ValueError(f"needs n >= 2 theta rho + 1 = {2 * theta * rho + 1:g}")
    if (np.abs(w) > rho * (1.0 + 1e-12)).any():
        raise ValueError("w must lie in the closed disc of radius rho")
    half = theta * rho + 0.5
    big_b = 3.0 * half * half * math.exp(1.5 * half)
    log_ratio = complex_log_gamma(n + theta * w - 1.0) - math.lgamma(n + 1)
    target = np.exp((theta * w - 1.0) * math.log(n))
    return big_b * n ** (theta * w.real - 2.0) - np.abs(np.exp(log_ratio) - target)
