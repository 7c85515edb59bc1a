"""Reproduction kernels for linear Hawkes processes.

A kernel ``h`` is a nonnegative integrable function on ``[0, inf)``.  Its
total mass ``alpha = int h`` is the expected number of children a single
event produces through this kernel, and ``h / alpha`` is the probability
density of the parent-to-child delay.  Four families are provided:

* :class:`ExponentialKernel`   ``h(t) = alpha * beta * exp(-beta t)``
* :class:`PowerLawKernel`      ``h(t) = alpha * theta * c**theta / (c+t)**(1+theta)``
* :class:`UniformKernel`       ``h(t) = (alpha / a) * 1[0 <= t <= a]``
* :class:`ZeroKernel`          identically zero

All Fourier transforms use the convention ``F h (xi) = int exp(-2 i pi xi u)
h(u) du``.  Kernel objects are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import beta
from .errors import (InfiniteMomentError, NumericError, from_fields,
                     read_fields, to_json)

__all__ = [
    "Kernel",
    "ExponentialKernel",
    "PowerLawKernel",
    "UniformKernel",
    "ZeroKernel",
    "kernel_from_dict",
]


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("kernels are supported on [0, inf); got negative t")
    return t


def redraw_zeros(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """``u``, drawn by ``rng.random``, with its exact zeros redrawn in place.

    ``rng.random`` has range ``[0, 1)``; this remaps it into the open
    interval the inverse CDFs need.
    """
    while True:
        bad = u <= 0.0
        if not bad.any():
            return u
        u[bad] = rng.random(int(bad.sum()))


class Kernel:
    """Common interface of all kernel families.

    Subclasses are frozen dataclasses whose first field is the total mass
    ``alpha``; their fields are read here by ``errors.read_fields``.  They
    implement the unchecked density :meth:`_density`, delay moments
    :meth:`_moment`, transform :meth:`_fourier` and inverse CDF
    :meth:`_inverse_cdf`, whose arguments the public methods check once
    here, plus the tail mass and the transform envelope.
    """

    family = "abstract"
    # ``beta`` when the density is ``h(0+) exp(-beta t)``, so that a sum of
    # its terms over past events is a Markov state; a class attribute, so
    # it is no field of the JSON shape
    decay_rate = None
    # ``B`` with ``|Fh(xi) - h(0+) / (2 i pi xi)| <= B / xi^2`` for all
    # ``xi != 0``, or None where no such constant holds; a class attribute
    # like ``decay_rate``
    fourier_remainder = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the declarations describe the density beside them: a class that
        # redefines the density without restating one declares none
        if "_density" in vars(cls):
            for name in ("decay_rate", "fourier_remainder"):
                if name not in vars(cls):
                    setattr(cls, name, None)

    def __post_init__(self):
        read_fields(self)
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")

    @property
    def l1_norm(self) -> float:
        """Total mass ``int_0^inf h(t) dt``, exact."""
        return self.alpha

    def evaluate(self, t):
        """Evaluate ``h(t)`` for ``t >= 0`` (scalar or array)."""
        return self._density(_check_time(t))

    def _density(self, t):
        """``h(t)`` for a float or float array ``t`` already known to be
        ``>= 0``; unchecked, for loops that validated ``t`` once."""
        raise NotImplementedError

    def moment(self, p: float) -> float:
        """Normalized delay moment ``int t**p h(t)/alpha dt``.

        Raises
        ------
        InfiniteMomentError
            If the moment of order ``p`` does not exist for this family.
        NumericError
            If the moment exceeds the float range.
        """
        if not (math.isfinite(p) and p > 0.0):
            raise ValueError(f"moment order must be positive and finite, "
                             f"got {p}")
        try:
            value = self._moment(p)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not math.isfinite(value):
            raise NumericError(f"the delay moment of order {p} exceeds the "
                               f"float range")
        return value

    def _moment(self, p: float) -> float:
        """The moment of order ``p > 0``."""
        raise NotImplementedError

    def fourier(self, xi):
        """Fourier transform ``int_0^inf exp(-2 i pi xi t) h(t) dt``.

        A scalar ``xi`` gives a Python ``complex``, an array ``xi`` an
        array of its shape.
        """
        xi = np.asarray(xi, dtype=float)
        if not np.all(np.isfinite(xi)):
            raise ValueError("Fourier transforms need finite frequencies; "
                             "got a non-finite xi")
        out = self._fourier(np.atleast_1d(xi))
        return out if xi.ndim else complex(out[0])

    def _fourier(self, xi: np.ndarray) -> np.ndarray:
        """The transform at a finite float array ``xi`` of one or more
        dimensions; unchecked."""
        raise NotImplementedError

    def fourier_envelope(self) -> float:
        """Constant ``A`` with ``|F h (xi)| <= A / |xi|`` for all ``xi != 0``."""
        raise NotImplementedError

    def tail_mass(self, b: float) -> float:
        """Mass beyond ``b``: ``int_b^inf h(t) dt``, exact."""
        raise NotImplementedError

    def delay_from_uniform(self, u):
        """Map a uniform variate on (0, 1) to a delay by the inverse CDF."""
        return self._inverse_cdf(_as_uniform(u))

    def _inverse_cdf(self, u):
        """The delay of a float array ``u`` already known to lie in
        ``(0, 1)``; unchecked, for simulators that drew ``u`` themselves."""
        raise NotImplementedError

    def sample_delays(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. delays from the normalized density ``h / alpha``."""
        return self._inverse_cdf(redraw_zeros(rng, rng.random(n)))

    def to_dict(self) -> dict:
        return {"family": self.family, **to_json(self)}

    def __call__(self, t):
        return self.evaluate(t)


def _as_uniform(u):
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("uniform variates must lie strictly inside (0, 1)")
    return u


@dataclass(frozen=True)
class ExponentialKernel(Kernel):
    """``h(t) = alpha * beta * exp(-beta * t)``; delays are Exp(beta)."""

    alpha: float
    beta: float
    family = "exponential"

    def __post_init__(self):
        super().__post_init__()
        if self.beta <= 0.0:
            raise ValueError("beta must be > 0")

    @property
    def decay_rate(self) -> float:
        return self.beta

    def _density(self, t):
        return self.alpha * self.beta * np.exp(-self.beta * t)

    def _moment(self, p: float) -> float:
        return float(math.gamma(p + 1.0) / self.beta**p)

    def _fourier(self, xi):
        return self.alpha * self.beta / (self.beta + 2j * np.pi * xi)

    def fourier_envelope(self) -> float:
        return self.alpha * self.beta / (2.0 * np.pi)

    @property
    def fourier_remainder(self) -> float:
        # exact remainder alpha beta^2 / ((2 i pi xi) (beta + 2 i pi xi))
        return self.alpha * self.beta**2 / (4.0 * np.pi**2)

    def tail_mass(self, b: float) -> float:
        return self.alpha * float(np.exp(-self.beta * b))

    def _inverse_cdf(self, u):
        return -np.log(u) / self.beta


# zeta(2) .. zeta(18), the Taylor coefficients of lgamma(1 - e) / e
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
         1.03692775514337, 1.0173430619844492, 1.008349277381923,
         1.0040773561979444, 1.0020083928260821, 1.000994575127818,
         1.0004941886041194, 1.000246086553308, 1.0001227133475785,
         1.0000612481350588, 1.000030588236307, 1.0000152822594086,
         1.0000076371976379, 1.000003817293265)


def _pole_shift(n: int, e: float) -> float:
    """``lgamma(1-e)/e - sum_{j<=n} log1p(e/j)/e``, to relative accuracy
    near ``e = 0`` (where it tends to ``gamma - H_n``).  Below ``|e| = 0.1``
    the first ratio is its Taylor series ``gamma + sum_k zeta(k) e^(k-1) / k``
    (DLMF 5.7.3), since ``math.lgamma(1-e)`` is only absolutely accurate."""
    if abs(e) < 0.1:
        ratio = np.euler_gamma + sum(zeta * e ** (k - 1) / k
                                     for k, zeta in enumerate(_ZETA, 2))
    else:
        ratio = math.lgamma(1.0 - e) / e
    return ratio - sum(math.log1p(e / j) / e if e else 1.0 / j
                       for j in range(1, n + 1))


@dataclass(frozen=True)
class PowerLawKernel(Kernel):
    """Heavy-tailed kernel ``h(t) = alpha * theta * c**theta / (c+t)**(1+theta)``.

    Parameters
    ----------
    alpha : float
        Total mass, ``alpha >= 0``.
    c : float
        Scale of the algebraic decay, ``c > 0``.
    theta : float
        Tail exponent, ``theta > 1`` so that delays have a finite mean.

    Notes
    -----
    Delay moments of order ``p`` exist exactly for ``p < theta``.  With
    ``v = 2 pi xi c``, the normalized transform is ``F (h/alpha) = theta
    e^{iv} E_{1+theta}(iv)``, where ``E_p`` is the generalized exponential
    integral.  It is computed by one of two rules, chosen by ``v`` alone:

    * ``v < 2``: the convergent series of ``E_p`` (DLMF 8.19.10), summed as
      ``1 + (expm1(iv) - theta e^{iv} S)`` with ``S = sum_{k>=1} (-iv)**k /
      (k! (k - theta)) - Gamma(-theta) (iv)**theta``.  With ``n =
      round(theta)`` and ``e = theta - n``, the ``k = n`` term and the
      Gamma term each have a pole at ``e = 0``; their difference is the
      analytic ``(-iv)**n / n! expm1(e L) / e``, ``(-iv)**n / n! L`` at ``e
      = 0`` (DLMF 8.19.8), with ``L = log(iv) + lgamma(1-e)/e -
      sum_{j<=n} log1p(e/j)/e``.
    * ``v >= 2``: the continued fraction of ``E_p`` (DLMF 8.19.17, even
      form as in Numerical Recipes 6.3) by backward recurrence to depth
      ``ceil(8 + 160 / v)`` for the smallest ``v`` of the call, at most 88.

    Against 40-digit values both are within 4e-14 relative for ``theta``
    up to 200 and ``v`` from 1e-13 up, ``theta`` within 1e-8 of an integer
    included.
    """

    alpha: float
    c: float
    theta: float
    family = "powerlaw"

    def __post_init__(self):
        super().__post_init__()
        if self.c <= 0.0:
            raise ValueError("c must be > 0")
        if self.theta <= 1.0:
            raise ValueError("theta must be > 1 so delays have a finite mean")

    def _density(self, t):
        return self.alpha * self.theta * self.c**self.theta / (self.c + t) ** (
            1.0 + self.theta
        )

    def _moment(self, p: float) -> float:
        if p >= self.theta:
            raise InfiniteMomentError(
                f"power-law moment of order {p} requires theta > {p}, "
                f"got theta = {self.theta}"
            )
        # s = t / (c + t) maps [0, inf) onto [0, 1) and turns the integrand
        # into theta * c**p * s**p * (1-s)**(theta-p-1), a Beta integral
        return float(self.theta * self.c**p
                     * beta(p + 1.0, self.theta - p))

    def _fourier_normalized(self, v: np.ndarray) -> np.ndarray:
        """``F (h/alpha)`` as a function of ``v = 2 pi xi c``, ``v > 0``."""
        out = np.empty(v.shape, dtype=complex)
        head = v < 2.0
        out[head] = self._fourier_series(v[head])
        if not head.all():
            out[~head] = self._fourier_fraction(v[~head])
        return out

    def _fourier_series(self, v: np.ndarray) -> np.ndarray:
        """The series rule of the class notes, for ``0 < v < 2``."""
        n = round(self.theta)
        e = self.theta - n
        z = 1j * v
        term = np.ones_like(z)
        total = np.zeros_like(z)
        # at v < 2 every term past k = 27, a pair included, is below 1e-18
        for k in range(1, 28):
            term *= -z / k
            if k == n:
                big_l = np.log(v) + (0.5j * np.pi + _pole_shift(n, e))
                total += term * (np.expm1(e * big_l) / e if e else big_l)
            else:
                total += term / (k - self.theta)
        return 1.0 + (np.expm1(z) - self.theta * np.exp(z) * total)

    def _fourier_fraction(self, v: np.ndarray) -> np.ndarray:
        """``theta / (iv + p - 1 p / (iv + p + 2 - 2 (p+1) / (iv + p + 4 -
        ...)))`` with ``p = 1 + theta``, the continued fraction of ``theta
        e^{iv} E_p(iv)``, by backward recurrence from a depth set by the
        smallest ``v``."""
        p = 1.0 + self.theta
        depth = int(np.ceil(8.0 + 160.0 / v.min()))
        z = 1j * v
        t = z + (p + 2.0 * depth)
        for k in range(depth, 0, -1):
            np.divide(-k * (p + k - 1.0), t, out=t)
            t += z
            t += p + 2.0 * (k - 1)
        return self.theta / t

    def _fourier(self, xi):
        v = 2.0 * np.pi * np.abs(xi) * self.c
        res = np.ones(xi.shape, dtype=complex)
        nz = v > 0.0
        if nz.any():
            res[nz] = self._fourier_normalized(v[nz])
        res[xi < 0.0] = np.conj(res[xi < 0.0])
        res *= self.alpha
        return res

    def fourier_envelope(self) -> float:
        # integration by parts: |F h| <= (h(0+) + TV(h)) / (2 pi |xi|), and
        # TV(h) = h(0+) for a nonincreasing kernel
        return self.alpha * self.theta / (np.pi * self.c)

    @property
    def fourier_remainder(self) -> float:
        # integration by parts twice: |Fh - h(0+) / (2 i pi xi)| <=
        # (|h'(0+)| + int |h''|) / (4 pi^2 xi^2), and int |h''| = |h'(0+)|
        # for a convex nonincreasing kernel
        return (self.alpha * self.theta * (1.0 + self.theta)
                / (2.0 * np.pi**2 * self.c**2))

    def tail_mass(self, b: float) -> float:
        return self.alpha * float((self.c / (self.c + b)) ** self.theta)

    def _inverse_cdf(self, u):
        return self.c * (u ** (-1.0 / self.theta) - 1.0)


@dataclass(frozen=True)
class UniformKernel(Kernel):
    """Flat kernel ``(alpha / a) * 1[0 <= t <= a]``; delays are Uniform(0, a)."""

    alpha: float
    a: float
    family = "uniform"
    # the jump at ``a`` leaves a ``1 / xi`` remainder past ``h(0+)``
    fourier_remainder = None

    def __post_init__(self):
        super().__post_init__()
        if self.a <= 0.0:
            raise ValueError("a must be > 0")

    def _density(self, t):
        return (self.alpha / self.a) * (t <= self.a)

    def _moment(self, p: float) -> float:
        return self.a**p / (p + 1.0)

    def _fourier(self, xi):
        # exact: alpha * exp(-i pi xi a) * sin(pi xi a) / (pi xi a)
        return self.alpha * np.exp(-1j * np.pi * xi * self.a) * np.sinc(xi * self.a)

    def fourier_envelope(self) -> float:
        return self.alpha / (np.pi * self.a)

    def tail_mass(self, b: float) -> float:
        return self.alpha * float(np.clip(1.0 - b / self.a, 0.0, 1.0))

    def _inverse_cdf(self, u):
        return self.a * u


@dataclass(frozen=True)
class ZeroKernel(Kernel):
    """The identically zero kernel (no influence)."""

    family = "zero"
    alpha = 0.0  # a class constant, not a field: the kernel has no parameter
    fourier_remainder = 0.0

    def _density(self, t):
        return np.zeros_like(t, dtype=float)

    def _moment(self, p: float) -> float:
        raise InfiniteMomentError("the zero kernel has no delay distribution")

    def _fourier(self, xi):
        return np.zeros(xi.shape, dtype=complex)

    def fourier_envelope(self) -> float:
        return 0.0

    def tail_mass(self, b: float) -> float:
        return 0.0

    def _inverse_cdf(self, u):
        raise ValueError("the zero kernel has no delay distribution")


_FAMILIES = {cls.family: cls for cls in (ExponentialKernel, PowerLawKernel,
                                         UniformKernel, ZeroKernel)}


def kernel_from_dict(spec: dict) -> Kernel:
    """Build a kernel from its JSON representation.

    The expected shape is ``{"family": name, **params}``, e.g.
    ``{"family": "exponential", "alpha": 0.5, "beta": 2.0}``.  An unknown
    family or a missing or unknown field raises
    :class:`~hawkesmix.errors.ConfigError`, and so does the constructor for
    a parameter that is not a finite number; it also checks the ranges.
    """
    return from_fields(spec, "family", _FAMILIES)
