"""Kernel families: exact values, moments, transforms, and samplers."""

import numpy as np
import pytest
from scipy import integrate, stats

import hawkesmix as hm
from hawkesmix.errors import InfiniteMomentError

ALL_KERNELS = [
    hm.ExponentialKernel(0.5, 2.0),
    hm.ExponentialKernel(2.0, 0.5),
    hm.PowerLawKernel(0.4, 1.0, 2.5),
    hm.PowerLawKernel(1.0, 2.0, 1.4),
    hm.UniformKernel(0.5, 2.0),
    hm.UniformKernel(0.2, 1.0),
]


class TestEvaluate:
    def test_exponential_at_zero(self):
        assert hm.ExponentialKernel(2.0, 0.5).evaluate(0.0) == 1.0

    def test_uniform_plateau_and_cutoff(self):
        k = hm.UniformKernel(0.5, 2.0)
        assert k.evaluate(1.0) == 0.25
        assert k.evaluate(2.0) == 0.25
        assert k.evaluate(2.0000001) == 0.0

    def test_powerlaw_at_zero(self):
        k = hm.PowerLawKernel(0.4, 1.0, 2.5)
        assert k.evaluate(0.0) == pytest.approx(0.4 * 2.5, rel=1e-15)

    def test_negative_time_rejected(self):
        for k in ALL_KERNELS:
            with pytest.raises(ValueError):
                k.evaluate(-0.1)

    def test_call_is_evaluate(self):
        k = hm.ExponentialKernel(0.5, 2.0)
        t = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(k(t), k.evaluate(t))

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_mass_matches_quadrature(self, kernel):
        """The declared total mass equals the integral of the density."""
        val, err = integrate.quad(kernel.evaluate, 0.0, np.inf, limit=200)
        assert val == pytest.approx(kernel.l1_norm, abs=1e-8)


class TestMoments:
    def test_exponential(self):
        k = hm.ExponentialKernel(2.0, 0.5)
        assert k.moment(1.0) == pytest.approx(2.0, rel=1e-14)
        assert k.moment(2.0) == pytest.approx(2.0 / 0.25, rel=1e-13)

    def test_uniform(self):
        k = hm.UniformKernel(0.5, 2.0)
        assert k.moment(1.0) == pytest.approx(1.0, rel=1e-14)
        assert k.moment(2.0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 2.4])
    def test_powerlaw_beta_identity(self, p):
        """int t^p h/alpha dt = c^p theta B(p+1, theta-p) for p < theta."""
        c, theta = 1.0, 2.5
        k = hm.PowerLawKernel(0.4, c, theta)
        # the Beta integral int_0^1 s^p (1-s)^(theta-p-1) ds by a quadrature
        # that puts the endpoint singularities into its algebraic weight
        beta_integral, _ = integrate.quad(
            lambda s: 1.0, 0.0, 1.0, weight="alg", wvar=(p, theta - p - 1.0),
            epsabs=0.0, epsrel=1e-12, limit=200,
        )
        exact = c**p * theta * beta_integral
        assert k.moment(p) == pytest.approx(exact, rel=1e-12)

    def test_powerlaw_scale(self):
        assert hm.PowerLawKernel(1.0, 2.0, 1.4).moment(1.0) == pytest.approx(
            5.0, rel=1e-12
        )

    def test_powerlaw_infinite_moment(self):
        k = hm.PowerLawKernel(0.4, 1.0, 2.5)
        with pytest.raises(InfiniteMomentError):
            k.moment(2.5)
        with pytest.raises(InfiniteMomentError):
            k.moment(3.0)

    def test_zero_kernel_has_no_moments(self):
        with pytest.raises(InfiniteMomentError):
            hm.ZeroKernel().moment(1.0)

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            hm.ExponentialKernel(0.5, 2.0).moment(0.0)


class TestFourier:
    def test_exponential_closed_form(self):
        k = hm.ExponentialKernel(0.5, 2.0)
        got = k.fourier(1.0 / np.pi)
        assert got == pytest.approx(0.25 - 0.25j, rel=1e-14)

    def test_value_at_zero_is_mass(self):
        for k in ALL_KERNELS:
            assert k.fourier(0.0) == pytest.approx(k.l1_norm, rel=1e-13)

    def test_conjugate_symmetry(self):
        xi = np.array([0.07, 0.3, 2.0, 17.0])
        for k in ALL_KERNELS:
            assert np.allclose(k.fourier(-xi), np.conj(k.fourier(xi)), rtol=1e-12)

    def test_modulus_below_mass(self):
        xi = np.linspace(-40.0, 40.0, 401)
        for k in ALL_KERNELS:
            assert np.all(np.abs(k.fourier(xi)) <= k.l1_norm + 1e-12)

    def test_uniform_zeros(self):
        """The flat kernel transform vanishes at multiples of 1/a."""
        k = hm.UniformKernel(0.5, 2.0)
        assert abs(k.fourier(0.5)) < 1e-15
        assert abs(k.fourier(1.5)) < 1e-15

    @pytest.mark.parametrize("kernel", [hm.ExponentialKernel(0.7, 1.3),
                                        hm.UniformKernel(0.6, 1.7)])
    @pytest.mark.parametrize("xi", [0.11, 1.7])
    def test_against_quadrature(self, kernel, xi):
        re, _ = integrate.quad(
            lambda t: kernel.evaluate(t) * np.cos(2.0 * np.pi * xi * t), 0, np.inf,
            limit=400,
        )
        im, _ = integrate.quad(
            lambda t: -kernel.evaluate(t) * np.sin(2.0 * np.pi * xi * t), 0, np.inf,
            limit=400,
        )
        # the adaptive rule itself carries ~1e-9 error on oscillatory tails
        assert kernel.fourier(xi) == pytest.approx(re + 1j * im, abs=1e-7)

    # reference values from 30-digit oscillatory quadrature of the rotated
    # integral; plain adaptive rules fail silently on these tails
    POWERLAW_REFS = [
        (0.4, 1.0, 2.5, 0.3, 0.21500998522404635 - 0.16769003065219054j),
        (0.4, 1.0, 2.5, 3.0, 0.0092423175662063568 - 0.050902843132302461j),
        (1.0, 2.0, 1.4, 0.05, 0.64516285085969912 - 0.35142326396851223j),
        (0.7, 0.5, 3.2, 12.0, 0.0064753472920275142 - 0.058532035935880548j),
    ]

    @pytest.mark.parametrize("alpha,c,theta,xi,ref", POWERLAW_REFS)
    def test_powerlaw_reference_values(self, alpha, c, theta, xi, ref):
        got = hm.PowerLawKernel(alpha, c, theta).fourier(xi)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_powerlaw_small_frequency_branch(self):
        """The first-order expansion joins the contour rule continuously."""
        k = hm.PowerLawKernel(0.4, 1.0, 2.5)
        below = k.fourier(1e-14)
        above = k.fourier(2e-13 / (2.0 * np.pi))
        assert below.real == pytest.approx(0.4, rel=1e-10)
        assert abs(below - k.fourier(9e-14 / (2.0 * np.pi))) < 1e-10
        assert abs(above - 0.4) < 1e-10

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_envelope_certified(self, kernel):
        xi = np.geomspace(0.05, 500.0, 200)
        bound = kernel.fourier_envelope() / xi
        assert np.all(np.abs(kernel.fourier(xi)) <= bound * (1.0 + 1e-12))


class TestTailMass:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_complements_the_head(self, kernel):
        for b in [0.3, 1.0, 5.0]:
            head, _ = integrate.quad(kernel.evaluate, 0.0, b, limit=200)
            assert head + kernel.tail_mass(b) == pytest.approx(
                kernel.l1_norm, abs=1e-9
            )

    def test_at_zero_is_mass(self):
        for k in ALL_KERNELS:
            assert k.tail_mass(0.0) == pytest.approx(k.l1_norm, rel=1e-14)


class TestSampling:
    def test_inverse_cdf_fixed_points(self):
        assert hm.ExponentialKernel(0.5, 2.0).delay_from_uniform(
            np.exp(-2.0)
        ) == pytest.approx(1.0, rel=1e-14)
        assert hm.UniformKernel(0.5, 2.0).delay_from_uniform(0.25) == 0.5
        assert hm.PowerLawKernel(0.4, 1.0, 2.0).delay_from_uniform(
            1.0 / 16.0
        ) == pytest.approx(3.0, rel=1e-14)

    def test_uniform_variate_domain(self):
        k = hm.ExponentialKernel(0.5, 2.0)
        with pytest.raises(ValueError):
            k.delay_from_uniform(0.0)
        with pytest.raises(ValueError):
            k.delay_from_uniform(1.0)

    def test_exponential_sampler_distribution(self):
        rng = np.random.default_rng(7)
        x = hm.ExponentialKernel(0.5, 1.0).sample_delays(rng, 200_000)
        assert x.mean() == pytest.approx(1.0, abs=0.01)
        assert stats.kstest(x, "expon").pvalue > 0.01

    def test_powerlaw_sampler_distribution(self):
        k = hm.PowerLawKernel(0.4, 1.0, 2.5)
        rng = np.random.default_rng(11)
        x = k.sample_delays(rng, 200_000)
        cdf = lambda t: 1.0 - (1.0 / (1.0 + t)) ** 2.5
        assert x.mean() == pytest.approx(k.moment(1.0), abs=0.015)
        assert stats.kstest(x, cdf).pvalue > 0.01

    def test_uniform_sampler_range_and_mean(self):
        k = hm.UniformKernel(0.5, 2.0)
        rng = np.random.default_rng(3)
        x = k.sample_delays(rng, 100_000)
        assert np.all((x > 0.0) & (x < 2.0))
        assert x.mean() == pytest.approx(1.0, abs=0.01)

    def test_zero_kernel_cannot_sample(self):
        with pytest.raises(ValueError):
            hm.ZeroKernel().delay_from_uniform(0.5)


class TestSerialization:
    @pytest.mark.parametrize("kernel", ALL_KERNELS + [hm.ZeroKernel()])
    def test_round_trip(self, kernel):
        assert hm.kernel_from_dict(kernel.to_dict()) == kernel

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            hm.kernel_from_dict({"family": "exponential", "alpha": 0.5})

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown fields"):
            hm.kernel_from_dict(
                {"family": "uniform", "alpha": 0.5, "a": 1.0, "rate": 3.0}
            )

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            hm.kernel_from_dict({"family": "gaussian", "alpha": 0.5})


class TestValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            hm.ExponentialKernel(-0.1, 1.0)
        with pytest.raises(ValueError):
            hm.ExponentialKernel(0.5, 0.0)
        with pytest.raises(ValueError):
            hm.PowerLawKernel(0.4, 1.0, 1.0)
        with pytest.raises(ValueError):
            hm.PowerLawKernel(0.4, 0.0, 2.5)
        with pytest.raises(ValueError):
            hm.UniformKernel(0.5, -1.0)

    @pytest.mark.parametrize("make", [
        lambda: hm.ExponentialKernel(0.5, np.inf),
        lambda: hm.ExponentialKernel(np.nan, 1.0),
        lambda: hm.PowerLawKernel(0.4, 1.0, np.inf),
        lambda: hm.PowerLawKernel(0.4, np.nan, 2.5),
        lambda: hm.UniformKernel(np.inf, 1.0),
        lambda: hm.UniformKernel(0.5, np.inf),
    ])
    def test_nonfinite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="must be finite"):
            make()
