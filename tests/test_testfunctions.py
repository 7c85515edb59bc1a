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
        for t in [0.7, 3.3, 10.0]:
            ref, _ = integrate.quad(
                lambda s: float(comp.value(np.asarray(s))) ** 2, 0.0, t, limit=400
            )
            assert comp.squared_integral(t) == pytest.approx(ref, abs=1e-8)

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

    @pytest.mark.parametrize("make", [
        lambda: hm.ConstantF(np.nan),
        lambda: hm.IndicatorF(0.0, 1.0, np.inf),
        lambda: hm.ConstPlusIndicatorF(np.nan, 0.0, 1.0),
        lambda: hm.TrigPolyF(1.0, 1.0, [np.inf]),
        lambda: hm.SampledPeriodicF(1.0, [1.0, np.nan]),
    ])
    def test_nonfinite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="must be finite"):
            make()

    def test_component_validation(self):
        with pytest.raises(ValueError):
            hm.IndicatorF(2.0, 2.0)
        with pytest.raises(ValueError):
            hm.TrigPolyF(0.0, 1.0)
        with pytest.raises(ValueError):
            hm.SampledPeriodicF(1.0, [3.0])
