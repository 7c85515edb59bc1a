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
from dataclasses import dataclass, fields

import numpy as np

from ._special import beta
from .errors import (InfiniteMomentError, check_choice, check_fields,
                     finite_number, require_finite, to_json)

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

    Subclasses implement the density :meth:`_density`, exact total mass,
    normalized delay moments, the Fourier transform, and inverse-CDF delay
    sampling.
    """

    family = "abstract"

    def __post_init__(self):
        require_finite(**{f.name: getattr(self, f.name) for f in fields(self)})

    @property
    def l1_norm(self) -> float:
        """Total mass ``int_0^inf h(t) dt``, exact."""
        raise NotImplementedError

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
        """
        raise NotImplementedError

    def fourier(self, xi):
        """Fourier transform ``int_0^inf exp(-2 i pi xi t) h(t) dt``."""
        raise NotImplementedError

    def fourier_envelope(self) -> float:
        """Constant ``A`` with ``|F h (xi)| <= A / |xi|`` for all ``xi != 0``."""
        raise NotImplementedError

    def tail_mass(self, b: float) -> float:
        """Mass beyond ``b``: ``int_b^inf h(t) dt``, exact."""
        raise NotImplementedError

    def delay_from_uniform(self, u):
        """Map a uniform variate on (0, 1) to a delay by the inverse CDF."""
        raise NotImplementedError

    def sample_delays(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. delays from the normalized density ``h / alpha``."""
        return self.delay_from_uniform(redraw_zeros(rng, rng.random(n)))

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
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.beta <= 0.0:
            raise ValueError("beta must be > 0")

    @property
    def l1_norm(self) -> float:
        return self.alpha

    def _density(self, t):
        return self.alpha * self.beta * np.exp(-self.beta * t)

    def moment(self, p: float) -> float:
        if p <= 0.0:
            raise ValueError("moment order must be positive")
        return float(math.gamma(p + 1.0) / self.beta**p)

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = self.alpha * self.beta / (self.beta + 2j * np.pi * xi)
        return out if out.ndim else complex(out)

    def fourier_envelope(self) -> float:
        return self.alpha * self.beta / (2.0 * np.pi)

    def tail_mass(self, b: float) -> float:
        return self.alpha * float(np.exp(-self.beta * b))

    def delay_from_uniform(self, u):
        return -np.log(_as_uniform(u)) / self.beta


# Nodes for the power-law Fourier transform below _PLW_CUT.  After rotating
# the contour of int_0^inf (1+x)^(-1-theta) exp(-i v x) dx onto the negative
# imaginary axis and substituting x = exp(w)/v, the integrand decays doubly
# exponentially on the right and like exp(w) on the left, so a fixed
# trapezoid grid in w gives near machine precision uniformly over
# 1e-12 <= v < _PLW_CUT.  The left endpoint -58 keeps the truncated mass
# below 1e-13 relative to the smallest admissible v.  The factor
# (1 - i e^w / v)^(-1-theta) turns 1 + theta times faster than e^w, so the
# step sets the largest theta the rule resolves.
_PLW_STEP = 0.12
_PLW = np.arange(-58.0, 3.8 + 0.5 * _PLW_STEP, _PLW_STEP)
_PLW_EXP = np.exp(_PLW)
_PLW_WEIGHT = np.exp(-_PLW_EXP) * _PLW_EXP * _PLW_STEP
# The continued fraction converges at every v > 0.  Its depth grows like 1/v
# for small theta, so the quadrature above takes v below _PLW_CUT; from
# _PLW_THETA on, the depth stays below 8 + 600 / theta at every v.
_PLW_CUT = 4.0
_PLW_THETA = 20.0
_PLW_ROWS = 4096


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
    integral.  It is computed by one of three rules, chosen by ``v`` and
    ``theta``:

    * ``v >= 4``, or every ``v >= 1e-12`` when ``theta >= 20``: the
      continued fraction of ``E_p`` (DLMF 8.19.17, even form as in
      Numerical Recipes 6.3), evaluated by backward recurrence to depth
      ``ceil(8 + min(160 / v, 600 / theta))`` for the smallest ``v`` of the
      call.  Against 40-digit values it is within 2e-15 relative for
      ``theta`` up to 200.
    * ``1e-12 <= v < 4`` when ``theta < 20``: exact contour rotation onto
      the negative imaginary axis followed by a fixed double-exponential
      trapezoid rule of step 0.12, accurate to 1e-12 relative.  The rule
      loses accuracy as ``theta`` grows (7e-10 at ``theta = 50``), which is
      why larger tails use the continued fraction.
    * ``v < 1e-12``: the expansion ``1 - i v / (theta - 1) + theta
      Gamma(-theta) (iv)**theta``, whose last term is kept for ``theta < 2``,
      where it outweighs the dropped ``v**2`` terms; it grows like
      ``v**theta / (theta - 1)`` as ``theta`` nears 1.
    """

    alpha: float
    c: float
    theta: float
    family = "powerlaw"

    def __post_init__(self):
        super().__post_init__()
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.c <= 0.0:
            raise ValueError("c must be > 0")
        if self.theta <= 1.0:
            raise ValueError("theta must be > 1 so delays have a finite mean")

    @property
    def l1_norm(self) -> float:
        return self.alpha

    def _density(self, t):
        return self.alpha * self.theta * self.c**self.theta / (self.c + t) ** (
            1.0 + self.theta
        )

    def moment(self, p: float) -> float:
        if p <= 0.0:
            raise ValueError("moment order must be positive")
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
        small = v < 1e-12
        out[small] = 1.0 - 1j * v[small] / (self.theta - 1.0)
        if self.theta < 2.0:
            out[small] += (self.theta * math.gamma(-self.theta)
                           * (1j * v[small]) ** self.theta)
        cut = _PLW_CUT if self.theta < _PLW_THETA else 0.0
        head = ~small & (v < cut)
        out[head] = self._fourier_rotated(v[head])
        tail = ~small & (v >= cut)
        if tail.any():
            out[tail] = self._fourier_fraction(v[tail])
        return out

    def _fourier_rotated(self, v: np.ndarray) -> np.ndarray:
        """Double-exponential rule on the rotated contour, for small ``v``."""
        vals = np.empty(v.shape, dtype=complex)
        # chunk so the (n_v, n_nodes) work array stays small; the power is
        # taken in log form, as the complex power overflows to NaN for
        # large theta at small v
        for lo in range(0, v.size, _PLW_ROWS):
            chunk = v[lo : lo + _PLW_ROWS, None]
            z = np.exp(-(1.0 + self.theta)
                       * np.log(1.0 - 1j * _PLW_EXP[None, :] / chunk))
            vals[lo : lo + _PLW_ROWS] = z @ _PLW_WEIGHT
        return -1j * self.theta / v * vals

    def _fourier_fraction(self, v: np.ndarray) -> np.ndarray:
        """``theta / (iv + p - 1 p / (iv + p + 2 - 2 (p+1) / (iv + p + 4 -
        ...)))`` with ``p = 1 + theta``, the continued fraction of ``theta
        e^{iv} E_p(iv)``, by backward recurrence from a depth set by the
        smallest ``v`` and by ``theta``."""
        p = 1.0 + self.theta
        depth = int(np.ceil(8.0 + min(160.0 / v.min(), 600.0 / self.theta)))
        z = 1j * v
        t = z + (p + 2.0 * depth)
        for k in range(depth, 0, -1):
            np.divide(-k * (p + k - 1.0), t, out=t)
            t += z
            t += p + 2.0 * (k - 1)
        return self.theta / t

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        v = 2.0 * np.pi * np.abs(xi) * self.c
        res = np.ones(xi.shape, dtype=complex)
        nz = v > 0.0
        if nz.any():
            res[nz] = self._fourier_normalized(v[nz])
        res[xi < 0.0] = np.conj(res[xi < 0.0])
        res *= self.alpha
        return complex(res[0]) if scalar else res

    def fourier_envelope(self) -> float:
        # integration by parts: |F h| <= (h(0+) + TV(h)) / (2 pi |xi|), and
        # TV(h) = h(0+) for a nonincreasing kernel
        return self.alpha * self.theta / (np.pi * self.c)

    def tail_mass(self, b: float) -> float:
        return self.alpha * float((self.c / (self.c + b)) ** self.theta)

    def delay_from_uniform(self, u):
        return self.c * (_as_uniform(u) ** (-1.0 / self.theta) - 1.0)


@dataclass(frozen=True)
class UniformKernel(Kernel):
    """Flat kernel ``(alpha / a) * 1[0 <= t <= a]``; delays are Uniform(0, a)."""

    alpha: float
    a: float
    family = "uniform"

    def __post_init__(self):
        super().__post_init__()
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.a <= 0.0:
            raise ValueError("a must be > 0")

    @property
    def l1_norm(self) -> float:
        return self.alpha

    def _density(self, t):
        return (self.alpha / self.a) * (t <= self.a)

    def moment(self, p: float) -> float:
        if p <= 0.0:
            raise ValueError("moment order must be positive")
        return self.a**p / (p + 1.0)

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        # exact: alpha * exp(-i pi xi a) * sin(pi xi a) / (pi xi a)
        out = self.alpha * np.exp(-1j * np.pi * xi * self.a) * np.sinc(xi * self.a)
        return out if out.ndim else complex(out)

    def fourier_envelope(self) -> float:
        return self.alpha / (np.pi * self.a)

    def tail_mass(self, b: float) -> float:
        return self.alpha * float(np.clip(1.0 - b / self.a, 0.0, 1.0))

    def delay_from_uniform(self, u):
        return self.a * _as_uniform(u)


@dataclass(frozen=True)
class ZeroKernel(Kernel):
    """The identically zero kernel (no influence)."""

    family = "zero"

    @property
    def l1_norm(self) -> float:
        return 0.0

    def _density(self, t):
        return np.zeros_like(t, dtype=float)

    def moment(self, p: float) -> float:
        raise InfiniteMomentError("the zero kernel has no delay distribution")

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape, dtype=complex)
        return out if out.ndim else 0j

    def fourier_envelope(self) -> float:
        return 0.0

    def tail_mass(self, b: float) -> float:
        return 0.0

    def delay_from_uniform(self, u):
        raise ValueError("the zero kernel has no delay distribution")


_FAMILIES = {cls.family: cls for cls in (ExponentialKernel, PowerLawKernel,
                                         UniformKernel, ZeroKernel)}


def kernel_from_dict(spec: dict) -> Kernel:
    """Build a kernel from its JSON representation.

    The expected shape is ``{"family": name, **params}``, e.g.
    ``{"family": "exponential", "alpha": 0.5, "beta": 2.0}``.  An unknown
    family, a missing or unknown field, or a parameter that is not a finite
    number raises :class:`~hawkesmix.errors.ConfigError`; parameter ranges
    are checked by the kernel constructors.
    """
    cls = check_choice(spec, "family", _FAMILIES)
    params = tuple(f.name for f in fields(cls))
    check_fields(spec, ("family",) + params)
    return cls(**{p: finite_number(spec[p], f"/{p}") for p in params})
