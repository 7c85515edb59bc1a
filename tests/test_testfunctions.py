"""Weight functions: values, integrals, windowed transforms, envelopes."""

import numpy as np
import pytest
from scipy import integrate

import hawkesmix as hm
from hawkesmix.errors import ConfigError

FORMS = [
    hm.ConstantF(1.5),
    hm.IndicatorF(2.0, 5.0, 0.7),
    hm.ConstPlusIndicatorF(1.0, 1.0, 3.0, -0.5),
    hm.TrigPolyF(1.0, 1.0, [1.0], []),
    hm.TrigPolyF(2.5, 0.3, [0.4, -0.2], [0.5]),
    hm.SampledPeriodicF(1.5, [0.0, 1.0, 2.0, 0.5]),
]


def brute_window(comp, xi, t):
    """Windowed transform by adaptive quadrature, for cross-checks."""
    re, _ = integrate.quad(
        lambda s: comp.value(np.asarray(s)) * np.cos(2 * np.pi * xi * s),
        0.0, t, limit=600,
    )
    im, _ = integrate.quad(
        lambda s: -comp.value(np.asarray(s)) * np.sin(2 * np.pi * xi * s),
        0.0, t, limit=600,
    )
    return re + 1j * im


class TestValuesAndIntegrals:
    @pytest.mark.parametrize("comp", FORMS)
    def test_integral_matches_quadrature(self, comp):
        for t in [0.7, 3.3, 10.0]:
            ref, _ = integrate.quad(lambda s: float(comp.value(np.asarray(s))),
                                    0.0, t, limit=400)
            assert float(comp.integral(t)) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("comp", FORMS)
    def test_squared_integral_matches_quadrature(self, comp):
        ts = [0.7, 3.3, 10.0]
        for t in ts:
            ref, _ = integrate.quad(
                lambda s: float(comp.value(np.asarray(s))) ** 2, 0.0, t, limit=400
            )
            assert comp.squared_integral(t) == pytest.approx(ref, abs=1e-8)
        # an array of times gives each scalar call's value
        assert np.array_equal(comp.squared_integral(np.array(ts)),
                              [comp.squared_integral(t) for t in ts])

    def test_indicator_boundary_convention(self):
        ind = hm.IndicatorF(1.0, 2.0)
        assert float(ind.value(1.0)) == 0.0
        assert float(ind.value(2.0)) == 1.0
        assert float(ind.value(1.5)) == 1.0

    def test_sampled_periodic_interpolates_knots(self):
        f = hm.SampledPeriodicF(2.0, [0.0, 1.0, -1.0, 0.5])
        knots = np.array([0.0, 0.5, 1.0, 1.5])
        assert np.allclose(f.value(knots), [0.0, 1.0, -1.0, 0.5])
        assert np.allclose(f.value(knots + 2.0), [0.0, 1.0, -1.0, 0.5])

    def test_trigpoly_periodicity(self):
        f = hm.TrigPolyF(2.5, 0.3, [0.4, -0.2], [0.5])
        t = np.linspace(0.0, 2.5, 17)
        assert np.allclose(f.value(t), f.value(t + 2.5), atol=1e-12)


class TestWindowedTransform:
    @pytest.mark.parametrize("comp", FORMS)
    @pytest.mark.parametrize("xi", [0.0, 0.13, 1.0, 4.7])
    def test_matches_quadrature(self, comp, xi):
        t = 3.3
        got = complex(np.atleast_1d(comp.fourier_window(np.array([xi]), t))[0])
        assert got == pytest.approx(brute_window(comp, xi, t), abs=5e-9)

    def test_constant_zero_frequency_is_integral(self):
        c = hm.ConstantF(2.0)
        got = complex(np.atleast_1d(c.fourier_window(np.array([0.0]), 4.0))[0])
        assert got == pytest.approx(8.0 + 0.0j, rel=1e-14)

    def test_sampled_periodic_dirichlet_branch(self):
        """Frequencies resonant with the period hit the degenerate factor."""
        f = hm.SampledPeriodicF(1.0, [0.0, 1.0, 0.0, -1.0])
        for xi in [1.0, 2.0, 3.0]:
            got = complex(np.atleast_1d(f.fourier_window(np.array([xi]), 7.0))[0])
            assert got == pytest.approx(brute_window(f, xi, 7.0), abs=1e-8)

    @pytest.mark.parametrize("comp", FORMS)
    def test_envelope_certified(self, comp):
        t = 5.0
        env = comp.envelope(t)
        xi = np.geomspace(max(env.xi_min, 0.05) + 0.1, 300.0, 150)
        vals = np.abs(comp.fourier_window(xi, t))
        bound = env.a / xi + env.b / xi**2
        assert np.all(vals <= bound * (1.0 + 1e-9) + 1e-12)

    def test_envelope_addition(self):
        a = hm.ConstantF(1.0).envelope(2.0)
        b = hm.IndicatorF(0.0, 1.0).envelope(2.0)
        s = a + b
        assert s.a == pytest.approx(a.a + b.a)
        assert s.xi_min == max(a.xi_min, b.xi_min)


def window_phase(xi, left, right):
    """``int_left^right exp(-2 i pi xi t) dt``."""
    length = right - left
    return length * np.exp(-1j * np.pi * xi * (left + right)) * np.sinc(xi * length)


class ReferenceTrigPoly:
    """The per-form trigonometric formulas that the lines replaced."""

    GL64 = np.polynomial.legendre.leggauss(64)

    def __init__(self, f: hm.TrigPolyF):
        self.f = f

    def value(self, t):
        f, t = self.f, np.asarray(t, dtype=float)
        w = 2.0 * np.pi * t / f.period
        out = np.full(t.shape, f.a0)
        for j, aj in enumerate(f.cos, start=1):
            out += aj * np.cos(j * w)
        for j, bj in enumerate(f.sin, start=1):
            out += bj * np.sin(j * w)
        return out

    def integral(self, t):
        f, t = self.f, np.asarray(t, dtype=float)
        w = 2.0 * np.pi * t / f.period
        out = f.a0 * t
        for j, aj in enumerate(f.cos, start=1):
            out += aj * f.period / (2.0 * np.pi * j) * np.sin(j * w)
        for j, bj in enumerate(f.sin, start=1):
            out += bj * f.period / (2.0 * np.pi * j) * (1.0 - np.cos(j * w))
        return out

    def squared_integral(self, t):
        # Parseval over whole periods, 64-node Gauss on the partial one
        f = self.f
        mean_sq = f.a0**2 + 0.5 * (sum(c * c for c in f.cos)
                                   + sum(s * s for s in f.sin))
        full, rem = divmod(t, f.period)
        x, w = self.GL64
        nodes = 0.5 * rem * (x + 1.0)
        return (mean_sq * f.period * full
                + 0.5 * rem * float(w @ self.value(nodes) ** 2))

    def fourier_window(self, xi, t):
        n = max(len(self.f.cos), len(self.f.sin))
        out = np.zeros(xi.shape, dtype=complex)
        for m in range(-n, n + 1):
            a = self.f.cos[abs(m) - 1] if 0 < abs(m) <= len(self.f.cos) else 0.0
            b = self.f.sin[abs(m) - 1] if 0 < abs(m) <= len(self.f.sin) else 0.0
            cm = self.f.a0 if m == 0 else 0.5 * (a - 1j * np.sign(m) * b)
            out += cm * window_phase(xi - m / self.f.period, 0.0, t)
        return out


def close(got, ref, rel=1e-12):
    """Agreement within ``rel`` of the largest reference magnitude."""
    got, ref = np.asarray(got), np.asarray(ref)
    return np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestLines:
    """Constants and trigonometric polynomials read every formula from their
    lines; the per-form formulas they replaced are the reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_trigpoly_matches_per_form_formulas(self, seed):
        rng = np.random.default_rng([23, seed])
        f = hm.TrigPolyF(rng.uniform(0.3, 5.0), rng.normal(),
                         list(rng.normal(size=rng.integers(0, 4))),
                         list(rng.normal(size=rng.integers(0, 4))))
        ref = ReferenceTrigPoly(f)
        ts = rng.uniform(0.0, 20.0, 50)
        xis = rng.uniform(-8.0, 8.0, 200)
        assert close(f.value(ts), ref.value(ts))
        assert close(f.integral(ts), ref.integral(ts))
        for t in ts[:5]:
            assert close(f.squared_integral(t), ref.squared_integral(t))
            assert close(f.fourier_window(xis, t), ref.fourier_window(xis, t))

    @pytest.mark.parametrize("k", [1.5, -0.37, 0.0, 2.0**-20 * 3.0])
    def test_constant_matches_per_form_formulas_exactly(self, k):
        c = hm.ConstantF(k)
        ts = np.random.default_rng(5).uniform(0.0, 50.0, 40)
        xis = np.linspace(-6.0, 6.0, 97)
        assert np.array_equal(c.value(ts), np.full_like(ts, k))
        assert np.array_equal(c.integral(ts), k * ts)
        assert np.array_equal(c.squared_integral(ts), k**2 * ts)
        for t in ts[:5]:
            assert np.array_equal(c.fourier_window(xis, t),
                                  k * window_phase(xis, 0.0, t))

    def test_declared_lines(self):
        freqs, coeffs = hm.ConstantF(2.5).harmonics()
        assert np.array_equal(freqs, [0.0]) and np.array_equal(coeffs, [2.5])
        freqs, coeffs = hm.TrigPolyF(2.0, 1.0, [0.5], [0.25]).harmonics()
        assert np.array_equal(freqs, [-0.5, 0.0, 0.5])
        assert np.allclose(coeffs, [0.25 + 0.125j, 1.0, 0.25 - 0.125j])
        for comp in FORMS[1:3] + FORMS[5:]:
            assert comp.harmonics() is None


class TestBroadcastWindow:
    """Every form's window transform broadcasts ``xi`` against an array of
    times, one column per time."""

    # below, at and inside the indicator windows (2, 5] and (1, 3], and at
    # and between multiples of the sampled period 1.5
    TIMES = np.array([0.3, 1.0, 1.5, 2.0, 3.0, 3.3, 4.5, 5.0, 7.25, 10.0])

    @pytest.mark.parametrize("comp", FORMS)
    def test_matches_scalar_time_calls(self, comp):
        # the sampled period's resonant frequencies hit the Dirichlet branch
        xis = np.concatenate([np.linspace(-7.0, 7.0, 121),
                              np.arange(-4, 5) / 1.5])
        got = comp.fourier_window(xis[:, None], self.TIMES)
        ref = np.stack([comp.fourier_window(xis, t) for t in self.TIMES],
                       axis=1)
        assert got.shape == ref.shape == (xis.size, self.TIMES.size)
        assert close(got, ref, rel=1e-13)

    def test_empty_indicator_window_is_exact_zero(self):
        ind = FORMS[1]
        got = ind.fourier_window(np.linspace(-3.0, 3.0, 31)[:, None],
                                 self.TIMES)
        assert np.all(got[:, self.TIMES <= ind.a] == 0.0)
        assert np.all(np.any(got[:, self.TIMES > ind.a] != 0.0, axis=0))


# each constructor call mapped to the pointer of its non-finite field
NONFINITE_PARAMETERS = {
    lambda: hm.ConstantF(np.nan): "/k",
    lambda: hm.IndicatorF(0.0, 1.0, np.inf): "/amplitude",
    lambda: hm.ConstPlusIndicatorF(np.nan, 0.0, 1.0): "/k",
    lambda: hm.TrigPolyF(1.0, 1.0, [np.inf]): "/cos/0",
    lambda: hm.SampledPeriodicF(1.0, [1.0, np.nan]): "/samples/1",
}


class TestTestFunction:
    def test_constant_weights_detection(self):
        f = hm.TestFunction.constant([1.0, -2.0])
        assert f.constant_weights() == pytest.approx([1.0, -2.0])
        g = hm.TestFunction([hm.ConstantF(1.0), hm.IndicatorF(0.0, 1.0)])
        assert g.constant_weights() is None

    def test_len_and_indexing(self):
        f = hm.TestFunction.constant([1.0, 2.0, 3.0])
        assert len(f) == 3
        assert f[2].k == 3.0

    def test_round_trip(self):
        f = hm.TestFunction(FORMS)
        g = hm.TestFunction.from_dict(f.to_dict())
        t = np.linspace(0.0, 9.0, 33)
        for i in range(len(f)):
            assert np.allclose(f[i].value(t), g[i].value(t), atol=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            hm.TestFunction([])
        with pytest.raises(TypeError):
            hm.TestFunction([1.0])
        with pytest.raises(ValueError):
            hm.component_from_dict({"form": "spline"})

    def test_misspelt_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields") as info:
            hm.component_from_dict({"form": "indicator", "a": 0, "b": 1,
                                    "amp": 3})
        assert "amp" in str(info.value)

    def test_pointer_names_component_and_field(self):
        specs = [{"form": "constant", "k": 1.0},
                 {"form": "trigpoly", "period": 1.0, "a0": 0.0,
                  "cos": [0.5, "x"]}]
        with pytest.raises(ConfigError) as info:
            hm.TestFunction.from_dict(specs)
        assert info.value.pointer == "/1/cos/1"

    @pytest.mark.parametrize("make", list(NONFINITE_PARAMETERS))
    def test_nonfinite_parameters_rejected(self, make):
        with pytest.raises(ConfigError, match="expected a finite number") as exc:
            make()
        assert exc.value.pointer == NONFINITE_PARAMETERS[make]

    def test_component_validation(self):
        with pytest.raises(ValueError):
            hm.IndicatorF(2.0, 2.0)
        with pytest.raises(ValueError):
            hm.TrigPolyF(0.0, 1.0)
        with pytest.raises(ValueError):
            hm.SampledPeriodicF(1.0, [3.0])
