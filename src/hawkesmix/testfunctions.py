"""Weight functions for linear statistics of event counts.

A :class:`TestFunction` holds one scalar weight per component.  Five forms
are supported: constants, finite-interval indicators, a constant plus an
indicator, trigonometric polynomials, and periodic functions given by
samples over one period (interpolated piecewise linearly).  Each form is a
frozen dataclass whose fields are its JSON keys; it reads them itself, so
Python and JSON construction raise the same ``ConfigError``.

Every form exposes exact pointwise evaluation, exact running integrals, and
the windowed Fourier transform ``F (f 1_[0,T]) (xi) = int_0^T f(t)
exp(-2 i pi xi t) dt`` in closed form, with ``xi`` broadcast against an
array of ``T``, plus a certified high-frequency envelope ``|F (f
1_[0,T])(xi)| <= A/xi + B/xi**2`` used to bound spectral quadrature
tails.  Constants and trigonometric polynomials declare only
their lines, from which the base class derives the rest.
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

    def harmonics(self):
        """Lines ``(freqs, coeffs)`` with ``f(s) = sum_k coeffs[k] exp(2 i
        pi freqs[k] s)``, or ``None`` for a form that is not a finite sum
        of lines.  The base class derives ``value``, both integrals and
        ``fourier_window`` from the lines."""
        return None

    def value(self, t):
        freqs, coeffs = self.harmonics()
        phases = 2j * np.pi * np.multiply.outer(np.asarray(t, dtype=float),
                                                freqs)
        return (np.exp(phases) @ coeffs).real

    def integral(self, t):
        """Exact ``int_0^t f``. Accepts scalars or arrays."""
        return self.fourier_window(0.0, np.asarray(t, dtype=float)).real

    def squared_integral(self, t):
        """Exact ``int_0^t f**2``. Accepts scalars or arrays."""
        freqs, coeffs = self.harmonics()
        t = np.asarray(t, dtype=float)[..., None, None]
        windows = _window_phase(freqs[None, :] - freqs[:, None], 0.0, t)
        products = np.outer(coeffs, np.conj(coeffs)) * windows
        return products.sum(axis=(-2, -1)).real

    def fourier_window(self, xi, t):
        """``F (f 1_[0,t]) (xi)``; for every form ``xi`` broadcasts against
        ``t``, so ``fourier_window(xis[:, None], ts)`` gives one column per
        time.  The variance profile's direct rule reads the window of a
        form without lines this way, one call per block of panels."""
        freqs, coeffs = self.harmonics()
        x = np.expand_dims(np.asarray(xi, dtype=float), -1) - freqs
        return _window_phase(x, 0.0, np.expand_dims(t, -1)) @ coeffs

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
        # the line sum without its exp: partial statistics call this per event
        return np.full_like(np.asarray(t, dtype=float), self.k)

    def integral(self, t):
        # kept for speed, like value: partial statistics call this per
        # replicate, and it has the bits of the line sum
        return self.k * np.asarray(t, dtype=float)

    def harmonics(self):
        return np.zeros(1), np.array([self.k])

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

    def squared_integral(self, t):
        return self.amplitude * self.integral(t)

    def fourier_window(self, xi, t):
        # an empty window has length 0 and gives exact zeros
        left = max(self.a, 0.0)
        right = np.maximum(np.minimum(self.b, t), left)
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

    def squared_integral(self, t):
        cross = 2.0 * self.k * self._ind.integral(t)
        return (self._c.squared_integral(t) + cross
                + self._ind.squared_integral(t))

    def fourier_window(self, xi, t):
        return self._c.fourier_window(xi, t) + self._ind.fourier_window(xi, t)

    def envelope(self, t: float) -> Envelope:
        return self._c.envelope(t) + self._ind.envelope(t)


@dataclass(frozen=True)
class TrigPolyF(ComponentFunction):
    """Trigonometric polynomial with a given period.

    ``f(t) = a0 + sum_n cos[n-1] cos(2 pi n t / period)
                + sum_n sin[n-1] sin(2 pi n t / period)``

    Its lines are the complex coefficients ``c_m`` at ``m / period`` for
    ``|m| <= n``, so every integral and transform is exact.
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

    def harmonics(self):
        return self._freqs, self._cm

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
        full, rem = np.divmod(np.asarray(t, dtype=float), self.period)
        return full * self._cum_int[-1] + self._partial(rem, self._cum_int, 1)

    def squared_integral(self, t):
        full, rem = np.divmod(np.asarray(t, dtype=float), self.period)
        return full * self._cum_sq[-1] + self._partial(rem, self._cum_sq, 2)

    def _fourier_upto(self, xi, rem):
        """Exact transform of the interpolant over ``[0, rem]``, for ``0 <=
        rem <= period``; ``xi`` broadcasts against ``rem``.  Each segment
        ends at ``rem`` clipped to its knots, so a segment past ``rem`` has
        length 0 and adds exact zeros."""
        w = 2.0 * np.pi * xi
        out = 0.0
        for k in range(len(self.samples)):
            t0 = self._knots[k]
            t1 = np.clip(rem, t0, self._knots[k + 1])
            out = out + self._linear_segment(w, np.exp(-1j * w * t0), t0, t1,
                                             self._vals[k], self._slopes[k])
        return out

    @staticmethod
    def _linear_segment(w, e0, t0, t1, v0, s):
        """``int_t0^t1 (v0 + s (t - t0)) exp(-i w t) dt`` exactly, with the
        start phase ``e0 = exp(-i w t0)``; ``w`` broadcasts against
        ``t1``."""
        w, t1 = np.broadcast_arrays(w, t1)
        out = np.empty(w.shape, dtype=complex)
        small = np.abs(w) * (t1 - t0) < 1e-8
        # series for tiny phases avoids cancellation
        if small.any():
            ws, t1s = w[small], t1[small]
            dt = t1s - t0
            i0 = dt - 1j * ws * (t1s * t1s - t0 * t0) / 2.0 - ws**2 / 2.0 * (
                t1s**3 - t0**3
            ) / 3.0
            i1 = dt * dt / 2.0 - 1j * ws * (
                (t1s**3 - t0**3) / 3.0 - t0 * (t1s * t1s - t0 * t0) / 2.0
            )
            out[small] = v0 * i0 + s * i1
        big = ~small
        if big.any():
            wb, t1b = w[big], t1[big]
            e1 = np.exp(-1j * wb * t1b)
            iw = 1j * wb
            # int e^{-iwt} = (e0 - e1)/iw ; int (t-t0) e^{-iwt} by parts
            base = (np.broadcast_to(e0, out.shape)[big] - e1) / iw
            lin = (-(t1b - t0) * e1) / iw + base / iw
            out[big] = v0 * base + s * lin
        return out

    def fourier_window(self, xi, t):
        xi = np.asarray(xi, dtype=float)
        full, rem = np.divmod(t, self.period)
        # Dirichlet factor sum_{k<full} e^{-2 i pi xi k p}
        u = xi * self.period
        num = np.sin(np.pi * u * full)
        den = np.sin(np.pi * u)
        phase = np.exp(-1j * np.pi * u * (full - 1))
        with np.errstate(invalid="ignore", divide="ignore"):
            dirich = np.where(np.abs(den) > 1e-12, num / den * phase, full)
        shift = np.exp(-2j * np.pi * xi * (full * self.period))
        return (self._fourier_upto(xi, self.period) * dirich
                + shift * self._fourier_upto(xi, rem))

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

        The ``variance`` command reads the long-run slope from it.
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
