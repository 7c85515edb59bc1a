"""Weight functions for linear statistics of event counts.

A :class:`TestFunction` holds one scalar weight per component.  Five forms
are supported: constants, finite-interval indicators, a constant plus an
indicator, trigonometric polynomials, and periodic functions given by
samples over one period (interpolated piecewise linearly).  Each form is a
frozen dataclass whose fields are its JSON keys; it reads them itself, so
Python and JSON construction raise the same ``ConfigError``.

Every form exposes exact pointwise evaluation, exact running integrals, and
the windowed Fourier transform ``F (f 1_[0,T]) (xi) = int_0^T f(t)
exp(-2 i pi xi t) dt`` in closed form, plus a certified high-frequency
envelope ``|F (f 1_[0,T])(xi)| <= A/xi + B/xi**2`` used to bound spectral
quadrature tails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import array, config_path, from_fields, read_fields, to_json

__all__ = [
    "ComponentFunction",
    "ConstantF",
    "IndicatorF",
    "ConstPlusIndicatorF",
    "TrigPolyF",
    "SampledPeriodicF",
    "TestFunction",
]

_GL64 = np.polynomial.legendre.leggauss(64)


def _window_phase(xi, left, right):
    """``int_left^right exp(-2 i pi xi t) dt`` for arrays ``xi``."""
    xi = np.asarray(xi, dtype=float)
    length = right - left
    return length * np.exp(-1j * np.pi * xi * (left + right)) * np.sinc(xi * length)


def _freeze(obj, **attrs) -> None:
    """Set attributes of a frozen dataclass from its ``__post_init__``."""
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Envelope:
    """Certified bound ``|F(f 1_[0,T])(xi)| <= a/xi + b/xi**2, xi >= xi_min``."""

    a: float
    b: float
    xi_min: float = 0.0

    def __add__(self, other: "Envelope") -> "Envelope":
        return Envelope(self.a + other.a, self.b + other.b,
                        max(self.xi_min, other.xi_min))


class ComponentFunction:
    """Scalar weight applied to one component's events.

    Subclasses are frozen dataclasses; every field is read here by
    :func:`~hawkesmix.errors.read_fields`, and the subclasses check ranges.
    """

    form = "abstract"

    def __post_init__(self):
        read_fields(self)

    def value(self, t):
        raise NotImplementedError

    def integral(self, t):
        """Exact ``int_0^t f``. Accepts scalars or arrays."""
        raise NotImplementedError

    def squared_integral(self, t: float) -> float:
        """Exact ``int_0^t f**2`` (up to quadrature of one partial period
        for sampled forms)."""
        raise NotImplementedError

    def fourier_window(self, xi, t: float):
        """``F (f 1_[0,t]) (xi)``, vectorized over ``xi``."""
        raise NotImplementedError

    def envelope(self, t: float) -> Envelope:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"form": self.form, **to_json(self)}

    def __call__(self, t):
        return self.value(t)


@dataclass(frozen=True)
class ConstantF(ComponentFunction):
    """Constant weight ``f = k`` (counts scaled by ``k``)."""

    k: float
    form = "constant"

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.k)

    def integral(self, t):
        return self.k * np.asarray(t, dtype=float)

    def squared_integral(self, t: float) -> float:
        return self.k**2 * t

    def fourier_window(self, xi, t: float):
        return self.k * _window_phase(xi, 0.0, t)

    def envelope(self, t: float) -> Envelope:
        return Envelope(abs(self.k) / np.pi, 0.0)


@dataclass(frozen=True)
class IndicatorF(ComponentFunction):
    """``f = amplitude`` on the interval ``(a, b]``, zero elsewhere."""

    a: float
    b: float
    amplitude: float = 1.0
    form = "indicator"

    def __post_init__(self):
        super().__post_init__()
        if not self.b > self.a:
            raise ValueError("indicator needs b > a")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * ((t > self.a) & (t <= self.b)).astype(float)

    def integral(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = np.clip(self.a, None, t), np.clip(self.b, None, t)
        return self.amplitude * np.maximum(hi - np.maximum(lo, 0.0), 0.0)

    def squared_integral(self, t: float) -> float:
        return self.amplitude * float(self.integral(t))

    def fourier_window(self, xi, t: float):
        left, right = max(self.a, 0.0), min(self.b, t)
        if right <= left:
            return np.zeros(np.shape(xi), dtype=complex)
        return self.amplitude * _window_phase(xi, left, right)

    def envelope(self, t: float) -> Envelope:
        return Envelope(abs(self.amplitude) / np.pi, 0.0)


@dataclass(frozen=True)
class ConstPlusIndicatorF(ComponentFunction):
    """Constant background plus a compactly supported bump."""

    k: float
    a: float
    b: float
    amplitude: float = 1.0
    form = "const_plus_indicator"

    def __post_init__(self):
        super().__post_init__()
        # the bump's constructor checks its interval
        _freeze(self, _c=ConstantF(self.k),
                _ind=IndicatorF(self.a, self.b, self.amplitude))

    def value(self, t):
        return self._c.value(t) + self._ind.value(t)

    def integral(self, t):
        return self._c.integral(t) + self._ind.integral(t)

    def squared_integral(self, t: float) -> float:
        cross = 2.0 * self.k * float(self._ind.integral(t))
        return (self._c.squared_integral(t) + cross
                + self._ind.squared_integral(t))

    def fourier_window(self, xi, t: float):
        return self._c.fourier_window(xi, t) + self._ind.fourier_window(xi, t)

    def envelope(self, t: float) -> Envelope:
        return self._c.envelope(t) + self._ind.envelope(t)


@dataclass(frozen=True)
class TrigPolyF(ComponentFunction):
    """Trigonometric polynomial with a given period.

    ``f(t) = a0 + sum_n cos[n-1] cos(2 pi n t / period)
                + sum_n sin[n-1] sin(2 pi n t / period)``

    All Fourier and integral formulas are exact; the windowed transform is a
    finite sum of shifted Dirichlet factors.
    """

    period: float
    a0: float
    cos: tuple = ()
    sin: tuple = ()
    form = "trigpoly"

    def __post_init__(self):
        super().__post_init__()
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        n = max(len(self.cos), len(self.sin))
        # complex coefficients c_m for m = -n .. n
        cm = np.zeros(2 * n + 1, dtype=complex)
        cm[n] = self.a0
        for j in range(1, n + 1):
            aj = self.cos[j - 1] if j <= len(self.cos) else 0.0
            bj = self.sin[j - 1] if j <= len(self.sin) else 0.0
            cm[n + j] = 0.5 * (aj - 1j * bj)
            cm[n - j] = 0.5 * (aj + 1j * bj)
        _freeze(self, _cm=cm, _freqs=np.arange(-n, n + 1) / self.period)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        w = 2.0 * np.pi * t / self.period
        out = np.full(t.shape, self.a0)
        for j, aj in enumerate(self.cos, start=1):
            out += aj * np.cos(j * w)
        for j, bj in enumerate(self.sin, start=1):
            out += bj * np.sin(j * w)
        return out

    def integral(self, t):
        t = np.asarray(t, dtype=float)
        w = 2.0 * np.pi * t / self.period
        out = self.a0 * t.astype(float)
        for j, aj in enumerate(self.cos, start=1):
            out += aj * self.period / (2.0 * np.pi * j) * np.sin(j * w)
        for j, bj in enumerate(self.sin, start=1):
            out += bj * self.period / (2.0 * np.pi * j) * (1.0 - np.cos(j * w))
        return out

    def squared_integral(self, t: float) -> float:
        # full periods contribute exactly via Parseval; the tail partial
        # period is a low-degree trig polynomial, so 64-node Gauss is exact
        mean_sq = self.a0**2 + 0.5 * (
            sum(c * c for c in self.cos) + sum(s * s for s in self.sin)
        )
        full, rem = divmod(t, self.period)
        total = mean_sq * self.period * full
        if rem > 0.0:
            x, w = _GL64
            nodes = 0.5 * rem * (x + 1.0)
            total += 0.5 * rem * float(w @ self.value(nodes) ** 2)
        return float(total)

    def fourier_window(self, xi, t: float):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.zeros(xi.shape, dtype=complex)
        for cm, nu in zip(self._cm, self._freqs):
            if cm != 0.0:
                out += cm * _window_phase(xi - nu, 0.0, t)
        return out

    def envelope(self, t: float) -> Envelope:
        # beyond twice the top frequency, |xi - nu| >= xi/2 for every line
        total = float(np.sum(np.abs(self._cm)))
        degree = max(len(self.cos), len(self.sin))
        xi_min = 2.0 * max(degree, 1) / self.period
        return Envelope(2.0 * total / np.pi, 0.0, xi_min)


@dataclass(frozen=True)
class SampledPeriodicF(ComponentFunction):
    """Periodic weight given by samples on one period.

    The samples are taken at ``t_k = k * period / n`` and joined by the
    continuous piecewise-linear periodic interpolant.  The windowed Fourier
    transform is evaluated exactly for that interpolant by combining the
    one-period transform with the Dirichlet factor for the whole periods.
    """

    period: float
    samples: tuple
    form = "periodic_samples"

    def __post_init__(self):
        super().__post_init__()
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        n = len(self.samples)
        if n < 2:
            raise ValueError("need at least two samples per period")
        vals = np.array(self.samples + self.samples[:1])
        width = self.period / n
        # per-segment exact integrals of f and f^2, then prefix sums
        v0, v1 = vals[:-1], vals[1:]
        seg_int = 0.5 * (v0 + v1) * width
        seg_sq = width * (v0 * v0 + v0 * v1 + v1 * v1) / 3.0
        _freeze(self, _knots=np.linspace(0.0, self.period, n + 1), _vals=vals,
                _slopes=np.diff(vals) / width,
                _cum_int=np.concatenate([[0.0], np.cumsum(seg_int)]),
                _cum_sq=np.concatenate([[0.0], np.cumsum(seg_sq)]))

    def _wrap(self, t):
        t = np.asarray(t, dtype=float)
        return np.mod(t, self.period)

    def value(self, t):
        return np.interp(self._wrap(t), self._knots, self._vals)

    def _partial(self, rem, cum, power):
        idx = np.clip(
            np.searchsorted(self._knots, rem, side="right") - 1,
            0,
            len(self.samples) - 1,
        )
        t0 = self._knots[idx]
        v0 = self._vals[idx]
        s = self._slopes[idx]
        dt = rem - t0
        if power == 1:
            piece = v0 * dt + 0.5 * s * dt * dt
        else:
            piece = v0 * v0 * dt + v0 * s * dt * dt + s * s * dt**3 / 3.0
        return cum[idx] + piece

    def integral(self, t):
        t = np.asarray(t, dtype=float)
        full = np.floor(t / self.period)
        rem = t - full * self.period
        return full * self._cum_int[-1] + self._partial(rem, self._cum_int, 1)

    def squared_integral(self, t: float) -> float:
        t = float(t)
        full, rem = divmod(t, self.period)
        return float(full * self._cum_sq[-1] + self._partial(np.asarray(rem), self._cum_sq, 2))

    def _fourier_one_period(self, xi):
        """Exact transform of the interpolant over ``[0, period]``."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.zeros(xi.shape, dtype=complex)
        for k in range(len(self.samples)):
            t0, t1 = self._knots[k], self._knots[k + 1]
            v0, s = self._vals[k], self._slopes[k]
            out += self._linear_segment(xi, t0, t1, v0, s)
        return out

    @staticmethod
    def _linear_segment(xi, t0, t1, v0, s):
        """``int_t0^t1 (v0 + s (t - t0)) exp(-2 i pi xi t) dt`` exactly."""
        xi = np.asarray(xi, dtype=float)
        out = np.empty(xi.shape, dtype=complex)
        w = 2.0 * np.pi * xi
        small = np.abs(w) * (t1 - t0) < 1e-8
        # series for tiny phases avoids cancellation
        if small.any():
            dt = t1 - t0
            ws = w[small]
            i0 = dt - 1j * ws * (t1 * t1 - t0 * t0) / 2.0 - ws**2 / 2.0 * (
                t1**3 - t0**3
            ) / 3.0
            i1 = dt * dt / 2.0 - 1j * ws * (
                (t1**3 - t0**3) / 3.0 - t0 * (t1 * t1 - t0 * t0) / 2.0
            )
            out[small] = v0 * i0 + s * i1
        big = ~small
        if big.any():
            wb = w[big]
            e0 = np.exp(-1j * wb * t0)
            e1 = np.exp(-1j * wb * t1)
            iw = 1j * wb
            # int e^{-iwt} = (e0 - e1)/iw ; int (t-t0) e^{-iwt} by parts
            base = (e0 - e1) / iw
            lin = (-(t1 - t0) * e1) / iw + (base) / iw
            out[big] = v0 * base + s * lin
        return out

    def fourier_window(self, xi, t: float):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        full = int(np.floor(t / self.period))
        rem = t - full * self.period
        one = self._fourier_one_period(xi)
        # Dirichlet factor sum_{k<full} e^{-2 i pi xi k p}
        u = xi * self.period
        num = np.sin(np.pi * u * full)
        den = np.sin(np.pi * u)
        phase = np.exp(-1j * np.pi * u * (full - 1))
        with np.errstate(invalid="ignore", divide="ignore"):
            dirich = np.where(np.abs(den) > 1e-12, num / den * phase, float(full))
        out = one * dirich
        if rem > 0.0:
            shift = np.exp(-2j * np.pi * xi * (full * self.period))
            partial = np.zeros(xi.shape, dtype=complex)
            for k in range(len(self.samples)):
                t0 = self._knots[k]
                if t0 >= rem:
                    break
                t1 = min(self._knots[k + 1], rem)
                partial += self._linear_segment(xi, t0, t1, self._vals[k], self._slopes[k])
            out = out + shift * partial
        return out

    def envelope(self, t: float) -> Envelope:
        # two integrations by parts: boundary values of f contribute A/xi,
        # slopes and slope jumps contribute B/xi^2
        fmax = float(np.max(np.abs(self._vals)))
        smax = float(np.max(np.abs(self._slopes)))
        jumps = float(np.sum(np.abs(np.diff(np.concatenate([self._slopes,
                                                            self._slopes[:1]])))))
        periods = t / self.period + 1.0
        a = 2.0 * fmax / (2.0 * np.pi)
        b = (2.0 * smax + periods * jumps) / (4.0 * np.pi**2)
        return Envelope(a, b)


_FORMS = {cls.form: cls for cls in (ConstantF, IndicatorF, ConstPlusIndicatorF,
                                    TrigPolyF, SampledPeriodicF)}


def component_from_dict(spec: dict) -> ComponentFunction:
    """Build one component weight from ``{"form": name, **fields}``.

    An unknown form or a missing or unknown field raises
    :class:`~hawkesmix.errors.ConfigError`, and so does the constructor for
    a value of the wrong type (including non-finite numbers); it also
    checks the ranges.
    """
    return from_fields(spec, "form", _FORMS)


class TestFunction:
    """One weight function per component of a model."""

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one component")
        for c in components:
            if not isinstance(c, ComponentFunction):
                raise TypeError("components must be ComponentFunction instances")
        self.components = components
        self.d = len(components)

    @classmethod
    def constant(cls, weights) -> "TestFunction":
        return cls([ConstantF(k) for k in np.atleast_1d(weights)])

    def __getitem__(self, i: int) -> ComponentFunction:
        return self.components[i]

    def __len__(self) -> int:
        return self.d

    def constant_weights(self):
        """Weight vector when every component is constant, else ``None``.

        Spectral integrators use this to share one window transform across
        the whole profile.
        """
        if all(isinstance(c, ConstantF) for c in self.components):
            return np.array([c.k for c in self.components])
        return None

    def to_dict(self) -> list:
        return [c.to_dict() for c in self.components]

    @classmethod
    def from_dict(cls, specs) -> "TestFunction":
        """Build from a list of specs, one per :func:`component_from_dict`."""
        components = []
        for n, spec in enumerate(array(specs)):
            with config_path(n):
                components.append(component_from_dict(spec))
        return cls(components)
