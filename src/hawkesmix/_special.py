"""The few special functions the library needs, in ``math`` and numpy.

Each is written for the arguments the library passes and has no options:

* :func:`beta` from ``math.gamma`` (``math.lgamma`` where that overflows);
* :func:`ndtr`, the standard normal CDF, from ``math.erfc``;
* :func:`kolmogorov`, the survival function of the Kolmogorov
  distribution, and its inverse :func:`kolmogi`;
* :func:`spherical_jn`, spherical Bessel functions ``j_0 .. j_n`` of the
  first kind at nonnegative real arguments.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["beta", "ndtr", "kolmogorov", "kolmogi", "spherical_jn"]

_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# terms of the two Kolmogorov series: past k = 8 every term is below
# 1e-17 of the sum on the side of x = 1 where that series is used
_KOLM_K = np.arange(1, 9, dtype=float)
_KOLM_SIGN = (-1.0) ** (_KOLM_K - 1.0)
# the downward recurrence starts this far above the highest order: twice
# the depth past which, for c < 8, a deeper start moves no value beyond
# rounding
_MILLER_EXTRA = 32


def beta(a: float, b: float) -> float:
    """Beta function ``B(a, b)`` for ``a, b > 0``."""
    if a + b < 171.0:
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def ndtr(z) -> np.ndarray:
    """Standard normal CDF ``0.5 erfc(-z / sqrt 2)``, elementwise."""
    z = np.asarray(z, dtype=float)
    out = np.array([0.5 * math.erfc(-x * _SQRT_HALF) for x in z.ravel()])
    return out.reshape(z.shape)


def kolmogorov(x: float) -> float:
    """``P(K > x)`` for the Kolmogorov distribution.

    ``2 sum_k (-1)^(k-1) exp(-2 k^2 x^2)`` for ``x >= 1``, and below that
    one minus the Jacobi-theta form of the CDF,
    ``sqrt(2 pi) / x sum_k exp(-(2k-1)^2 pi^2 / (8 x^2))``.
    """
    x = float(x)
    if x <= 0.0:
        return 1.0
    if x < 1.0:
        terms = np.exp(-((2.0 * _KOLM_K - 1.0) * math.pi / x) ** 2 / 8.0)
        return float(1.0 - _SQRT_2PI / x * terms[::-1].sum())
    terms = _KOLM_SIGN * np.exp(-2.0 * (_KOLM_K * x) ** 2)
    return float(2.0 * terms[::-1].sum())


def kolmogi(p: float) -> float:
    """The ``x`` with ``kolmogorov(x) = p``, for ``0 < p <= 1``, by
    bisection down to adjacent floats."""
    lo, hi = 0.0, 1.0
    while kolmogorov(hi) > p:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if kolmogorov(mid) > p:
            lo = mid
        else:
            hi = mid


def spherical_jn(n_max: int, c) -> np.ndarray:
    """``j_0(c) .. j_{n_max}(c)`` for ``c >= 0``, shaped ``(n_max + 1,)
    + c.shape``.

    The power series below ``c = 1``, which gives exactly ``[1, 0, ...]``
    at 0; downward (Miller) recurrence normalized by the larger of ``j_0``
    and ``j_1`` on ``[1, n_max + 1)``; forward recurrence from ``j_0`` and
    ``j_1`` above, where ``c > n`` makes it stable.
    """
    c = np.asarray(c, dtype=float)
    out = np.empty((n_max + 1,) + c.shape)
    series = c < 1.0
    forward = c >= n_max + 1.0
    miller = ~series & ~forward
    out[:, series] = _jn_series(n_max, c[series])
    out[:, miller] = _jn_miller(n_max, c[miller])
    out[:, forward] = _jn_forward(n_max, c[forward])
    return out


def _jn_series(n_max: int, c: np.ndarray) -> np.ndarray:
    """``j_n(c) = c^n / (2n+1)!! sum_k (-c^2/2)^k / (k! prod_{i<=k}
    (2n + 2i + 1))``; past ``k = 10`` every term is below 1e-22 at
    ``c = 1``."""
    out = np.empty((n_max + 1, c.size))
    u = -0.5 * c * c
    lead = np.ones_like(c)
    for n in range(n_max + 1):
        term = np.ones_like(c)
        total = np.ones_like(c)
        for k in range(1, 11):
            term = term * u / (k * (2 * n + 2 * k + 1))
            total = total + term
        out[n] = lead * total
        lead = lead * c / (2 * n + 3)
    return out


def _jn_miller(n_max: int, c: np.ndarray) -> np.ndarray:
    out = np.empty((n_max + 1, c.size))
    top = n_max + _MILLER_EXTRA
    above = np.zeros_like(c)
    here = np.ones_like(c)
    for n in range(top, 0, -1):
        # j_{n-1} = (2n + 1) / c j_n - j_{n+1}
        above, here = here, (2 * n + 1) / c * here - above
        if n - 1 <= n_max:
            out[n - 1] = here
    j0, j1 = _j01(c)
    # j_0 and j_1 have no common zero, so the larger is a safe norm
    use_j0 = np.abs(j0) >= np.abs(j1)
    return out * (np.where(use_j0, j0, j1) / np.where(use_j0, out[0], out[1]))


def _jn_forward(n_max: int, c: np.ndarray) -> np.ndarray:
    out = np.empty((n_max + 1, c.size))
    out[0], out[1] = _j01(c)
    for n in range(1, n_max):
        out[n + 1] = (2 * n + 1) / c * out[n] - out[n - 1]
    return out


def _j01(c: np.ndarray):
    """``j_0 = sin c / c`` and ``j_1 = (sin c / c - cos c) / c``."""
    j0 = np.sin(c) / c
    return j0, (j0 - np.cos(c)) / c
