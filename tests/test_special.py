"""The library's own special functions against scipy as the reference."""

import numpy as np
import pytest
from scipy import special as sp

import hawkesmix as hm
from hawkesmix import _special


class TestSphericalJn:
    # 0, a geometric sweep over the whole carrier range of the panel rule,
    # and a dense sweep across both branch points (c = 1 and c = 8)
    C = np.concatenate([[0.0], np.geomspace(1e-8, 1e5, 2001),
                        np.linspace(0.0, 20.0, 20001),
                        [np.nextafter(1.0, 0.0), 1.0,
                         np.nextafter(8.0, 0.0), 8.0]])

    def test_matches_scipy(self):
        got = _special.spherical_jn(7, self.C)
        ref = sp.spherical_jn(np.arange(8)[:, None], self.C)
        assert got.shape == (8, self.C.size)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref) + 2e-15)

    def test_exact_at_zero(self):
        got = _special.spherical_jn(7, np.zeros(3))
        expected = np.zeros((8, 3))
        expected[0] = 1.0
        assert np.array_equal(got, expected)


class TestKolmogorov:
    def test_survival_matches_scipy(self):
        x = np.linspace(0.0, 3.0, 3001)[1:]
        got = np.array([_special.kolmogorov(v) for v in x])
        ref = sp.kolmogorov(x)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_edges(self):
        assert _special.kolmogorov(0.0) == 1.0
        assert _special.kolmogorov(-1.0) == 1.0

    def test_inverse_matches_scipy(self):
        levels = np.geomspace(1e-6, 0.5, 61)
        got = np.array([_special.kolmogi(p) for p in levels])
        np.testing.assert_allclose(got, sp.kolmogi(levels), rtol=1e-13,
                                   atol=0.0)

    def test_inverse_round_trip(self):
        for p in (1e-6, 0.001, 0.01, 0.05, 0.5, 0.9):
            x = _special.kolmogi(p)
            assert _special.kolmogorov(x) == pytest.approx(p, rel=1e-13)


class TestNdtr:
    def test_matches_scipy(self):
        z = np.linspace(-8.0, 8.0, 16001)
        np.testing.assert_allclose(_special.ndtr(z), sp.ndtr(z), rtol=1e-13,
                                   atol=0.0)

    def test_keeps_shape(self):
        z = np.array([[-1.0, 0.0], [1.0, 2.0]])
        assert _special.ndtr(z).shape == (2, 2)
        assert _special.ndtr(z)[0, 1] == 0.5


class TestGammaTerms:
    @pytest.mark.parametrize("beta", [0.3, 2.0, 7.5])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
    def test_exponential_moment(self, beta, p):
        got = hm.ExponentialKernel(0.5, beta).moment(p)
        assert got == pytest.approx(sp.gamma(p + 1.0) / beta**p, rel=1e-14)

    @pytest.mark.parametrize("theta,c", [(1.4, 2.0), (2.5, 1.0), (3.0, 0.7),
                                         (8.0, 1.5), (20.0, 3.0)])
    def test_powerlaw_moment(self, theta, c):
        k = hm.PowerLawKernel(0.4, c, theta)
        for p in (0.3, 1.0, 0.9 * theta):
            ref = theta * c**p * sp.beta(p + 1.0, theta - p)
            assert k.moment(p) == pytest.approx(ref, rel=1e-14)

    def test_beta_past_gamma_overflow(self):
        assert _special.beta(100.0, 80.0) == pytest.approx(
            sp.beta(100.0, 80.0), rel=1e-12)

    @pytest.mark.parametrize("theta", [1.01, 1.3, 1.5, 1.99])
    def test_powerlaw_small_v_term(self, theta):
        k = hm.PowerLawKernel(1.0, 1.0, theta)
        v = np.array([1e-15, 1e-13, 5e-13])
        ref = (1.0 - 1j * v / (theta - 1.0)
               + theta * sp.gamma(-theta) * (1j * v) ** theta)
        got = k._fourier_normalized(v)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
