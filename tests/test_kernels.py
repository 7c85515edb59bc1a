"""Kernel families: exact values, moments, transforms, and samplers."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

import hawkesmix as hm
from hawkesmix.errors import ConfigError, InfiniteMomentError

ALL_KERNELS = [
    hm.ExponentialKernel(0.5, 2.0),
    hm.ExponentialKernel(2.0, 0.5),
    hm.PowerLawKernel(0.4, 1.0, 2.5),
    hm.PowerLawKernel(1.0, 2.0, 1.4),
    hm.UniformKernel(0.5, 2.0),
    hm.UniformKernel(0.2, 1.0),
]

_RNG = np.random.default_rng(2024)
# seeded power laws with theta in (1, 20] and c in [0.05, 20]
RANDOM_POWERLAWS = [
    hm.PowerLawKernel(float(_RNG.uniform(0.1, 1.0)), float(_RNG.uniform(0.05, 20.0)),
                      float(20.0 - 19.0 * _RNG.random()))
    for _ in range(8)
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

    @pytest.mark.parametrize("kernel", ALL_KERNELS + [hm.ZeroKernel()])
    def test_unchecked_density_is_evaluate(self, kernel):
        """Thinning takes the jump ``h(0+)`` and its sums from ``_density``."""
        assert kernel._density(0.0) == kernel.evaluate(0.0)
        t = np.linspace(0.0, 3.0, 13)
        assert np.array_equal(kernel._density(t), kernel.evaluate(t))

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
        for kernel in ALL_KERNELS + [hm.ZeroKernel()]:
            with pytest.raises(ValueError, match="order must be positive"):
                kernel.moment(0.0)


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

    # (theta, [(xi, re, im), ...]) for alpha = c = 1, so v = 2 pi xi spans
    # 1e-13 to 1e5, with rows at v = 2 (1 +- 1e-4) either side of the cut
    # between the series and the continued fraction; theta = 2 +- 1e-8 and
    # 3 +- 1e-6 sit next to the poles the series pairs, and theta = 40 and
    # 100 take the series below the cut too.  Each value is
    # complex(theta * mp.exp(1j * v) * mp.expint(1 + theta, 1j * v)) at
    # mp.mp.dps = 40, with v = mp.mpf(2.0 * np.pi * xi)
    POWERLAW_PINNED = [
    (1.01, [
        (1.5915494309189536e-14, 0.9999999999998829, -2.544287906706906e-12),
        (1.432394487827058e-13, 0.9999999999989224, -2.1407905631422407e-11),
        (1.5915494309189534e-12, 0.9999999999877357, -2.1929110210656837e-10),
        (1.5915494309189532e-07, 0.9999986239301031, -1.2403022288644835e-05),
        (0.0015915494309189536, 0.9854084836183427, -0.03966637111538257),
        (0.07957747154594767, 0.5737464705630498, -0.3366126050682265),
        (0.3182780551951723, 0.2042739817965269, -0.2909792250632603),
        (0.3183098861837907, 0.20425180302863785, -0.2909677622772178),
        (0.31834171717240906, 0.2042296277654037, -0.2909562998300797),
        (0.6364606174244894, 0.08435367982653136, -0.20040654818610468),
        (0.6367789273106733, 0.08429200848427548, -0.2003390907843918),
        (1.5915494309189535, 0.018351985737661686, -0.09579445710056837),
        (15.915494309189533, 0.0002027656985971432, -0.010093901623907728),
        (159.15494309189535, 2.0300754972277517e-06, -0.0010099938895217575),
        (15915.494309189535, 2.030099997549649e-10, -1.0099999993889399e-05),
    ]),
    (1.5, [
        (1.5915494309189536e-14, 1.0, -1.9999992073345406e-13),
        (1.432394487827058e-13, 1.0, -1.7999978598032591e-12),
        (1.5915494309189534e-12, 0.9999999999999999, -1.9999920733454048e-11),
        (1.5915494309189532e-07, 0.9999999974973692, -1.997493374229332e-06),
        (0.0015915494309189536, 0.9978684205241624, -0.017515896284524726),
        (0.07957747154594767, 0.7317670466153715, -0.3232372933095866),
        (0.3182780551951723, 0.31568369156554543, -0.363194656471615),
        (0.3183098861837907, 0.31565367480124346, -0.36318600400871076),
        (0.31834171717240906, 0.3156236620693572, -0.36317735080304087),
        (0.6364606174244894, 0.14173881322501397, -0.27373281658940685),
        (0.6367789273106733, 0.14164246870649427, -0.27365470564862937),
        (1.5915494309189535, 0.032970088766913055, -0.13917745976747325),
        (15.915494309189533, 0.0003744114731560394, -0.014986907327277253),
        (159.15494309189535, 3.7499409396113497e-06, -0.0014999868753248278),
        (15915.494309189535, 3.74999999409375e-10, -1.4999999986875e-05),
    ]),
    (1.99999999, [
        (1.5915494309189536e-14, 1.0, -1.000000009999843e-13),
        (1.432394487827058e-13, 1.0, -9.000000089987275e-13),
        (1.5915494309189534e-12, 1.0, -1.000000009984292e-11),
        (1.5915494309189532e-07, 0.9999999999867617, -9.999984392176878e-07),
        (0.0015915494309189536, 0.999595661405455, -0.009847956170289966),
        (0.07957747154594767, 0.8318270502420394, -0.2848683094035951),
        (0.3182780551951723, 0.42185364081251797, -0.403919624712125),
        (0.31834171717240906, 0.42178393474587156, -0.4039124636152174),
        (0.6364606174244894, 0.20521402974900893, -0.3329576023991239),
        (0.6367789273106733, 0.20508501707806753, -0.33288022229089714),
        (1.5915494309189535, 0.05114609797115388, -0.18089649817608838),
        (15.915494309189533, 0.0005988049991203887, -0.019976071500640714),
        (159.15494309189535, 5.999879955041178e-06, -0.0019999759907202196),
        (15915.494309189535, 5.999999938000001e-10, -1.9999999876000002e-05),
    ]),
    (2.0, [
        (1.5915494309189534e-12, 1.0, -9.999999999842919e-12),
        (1.5915494309189532e-07, 0.9999999999867617, -9.999984292179114e-07),
        (0.0015915494309189536, 0.9995956614172623, -0.009847956078070177),
        (0.07957747154594767, 0.8318270517828628, -0.28486830856846035),
        (0.3182780551951723, 0.4218536428225141, -0.403919625259695),
        (0.3183098861837907, 0.42181878785067034, -0.4039160456232646),
        (0.31834171717240906, 0.4217839367557344, -0.4039124641630103),
        (0.6364606174244894, 0.2052140310438122, -0.3329576034348467),
        (0.6367789273106733, 0.2050850183722626, -0.3328802233267313),
        (1.5915494309189535, 0.051146098364519256, -0.18089649898298313),
        (15.915494309189533, 0.0005988050041050683, -0.019976071600381753),
        (159.15494309189535, 5.999880005039637e-06, -0.0019999760007199598),
        (15915.494309189535, 5.999999988e-10, -1.9999999976e-05),
    ]),
    (2.00000001, [
        (1.5915494309189536e-14, 1.0, -9.999999899998431e-14),
        (1.432394487827058e-13, 1.0, -8.999999909987277e-13),
        (1.5915494309189534e-12, 1.0, -9.99999989984292e-12),
        (1.5915494309189532e-07, 0.9999999999867617, -9.999984192181352e-07),
        (0.0015915494309189536, 0.9995956614290696, -0.009847955985850388),
        (0.07957747154594767, 0.8318270533236861, -0.2848683077333256),
        (0.3182780551951723, 0.42185364483251026, -0.403919625807265),
        (0.31834171717240906, 0.4217839387655972, -0.40391246471080317),
        (0.6364606174244894, 0.20521403233861546, -0.33295760447056943),
        (0.6367789273106733, 0.20508501966645765, -0.33288022436256537),
        (1.5915494309189535, 0.05114609875788464, -0.18089649978987785),
        (15.915494309189533, 0.0005988050090897479, -0.019976071700122788),
        (159.15494309189535, 5.999880055038097e-06, -0.0019999760107196995),
        (15915.494309189535, 6.000000038e-10, -2.0000000076e-05),
    ]),
    (2.999999, [
        (1.5915494309189536e-14, 1.0, -5.0000025000012505e-14),
        (1.432394487827058e-13, 1.0, -4.5000022500011246e-13),
        (1.5915494309189534e-12, 1.0, -5.00000250000125e-12),
        (1.5915494309189532e-07, 0.9999999999995, -5.000002499935058e-07),
        (0.0015915494309189536, 0.9999507601488797, -0.004997980800173035),
        (0.07957747154594767, 0.9287828663709502, -0.20795682840352622),
        (0.3182780551951723, 0.5961206195147107, -0.4218114673844246),
        (0.31834171717240906, 0.5960469973988891, -0.4218261250560647),
        (0.6364606174244894, 0.33425114615041873, -0.4103254013388958),
        (0.6367789273106733, 0.33407298749004216, -0.41027252548625615),
        (1.5915494309189535, 0.09551745629120993, -0.2557304230051448),
        (15.915494309189533, 0.0011964192843082365, -0.029940240251980384),
        (159.15494309189535, 1.199963302050116e-05, -0.0029999390025668158),
        (15915.494309189535, 1.1999992964001033e-09, -2.9999989940000045e-05),
    ]),
    (3.0, [
        (1.5915494309189534e-12, 1.0, -5e-12),
        (1.5915494309189532e-07, 0.9999999999995, -4.999999999933808e-07),
        (0.0015915494309189536, 0.9999507602196096, -0.004997978307086311),
        (0.07957747154594767, 0.9287829228578849, -0.2079567629457157),
        (0.3182780551951723, 0.596120766702831, -0.4218114574582319),
        (0.3183098861837907, 0.5960839543767353, -0.42181878785067034),
        (0.31834171717240906, 0.5960471445905734, -0.42182611514941),
        (0.6364606174244894, 0.3342512719320241, -0.41032545507210244),
        (0.6367789273106733, 0.33407311323487404, -0.41027257925371136),
        (1.5915494309189535, 0.09551750508508437, -0.2557304918225963),
        (15.915494309189533, 0.0011964199809124342, -0.029940250205253417),
        (159.15494309189535, 1.1999640020158185e-05, -0.0029999400025198185),
        (15915.494309189535, 1.1999999964e-09, -2.9999999940000002e-05),
    ]),
    (3.000001, [
        (1.5915494309189536e-14, 1.0, -4.9999975000012495e-14),
        (1.432394487827058e-13, 1.0, -4.499997750001124e-13),
        (1.5915494309189534e-12, 1.0, -4.9999975000012495e-12),
        (1.5915494309189532e-07, 0.9999999999995, -4.999997499935058e-07),
        (0.0015915494309189536, 0.9999507602903394, -0.004997975814002061),
        (0.07957747154594767, 0.9287829793447645, -0.20795669748793158),
        (0.3182780551951723, 0.5961209138908984, -0.4218114475319991),
        (0.31834171717240906, 0.596047291782205, -0.42182610524271513),
        (0.6364606174244894, 0.3342513977136184, -0.410325508805267),
        (0.6367789273106733, 0.3340732389796949, -0.4102726330211245),
        (1.5915494309189535, 0.09551755387896645, -0.2557305606400355),
        (15.915494309189533, 0.0011964206775168297, -0.029940260158526424),
        (159.15494309189535, 1.1999647019817211e-05, -0.0029999410024728213),
        (15915.494309189535, 1.2000006964000967e-09, -3.0000009939999955e-05),
    ]),
    (3.7, [
        (1.5915494309189534e-12, 1.0, -3.703703703703703e-12),
        (1.5915494309189532e-07, 0.9999999999997822, -3.7037037037005913e-07),
        (0.0015915494309189536, 0.999978236327083, -0.003703409044894498),
        (0.07957747154594767, 0.9576336377826656, -0.16834674816241055),
        (0.3182780551951723, 0.6868471457841004, -0.40703763816206306),
        (0.3183098861837907, 0.6868126759096209, -0.4070508860877854),
        (0.31834171717240906, 0.6867782075187517, -0.40706413074757974),
        (0.6364606174244894, 0.4190448556867992, -0.4385121882400826),
        (0.6367789273106733, 0.4188469032559943, -0.4384855194084277),
        (1.5915494309189535, 0.13134895564232715, -0.30088613317166635),
        (15.915494309189533, 0.0017324027936417338, -0.03690138411316548),
        (159.15494309189535, 1.7389335920385057e-05, -0.003699900882113324),
        (15915.494309189535, 1.7389999933587593e-09, -3.6999999900877004e-05),
    ]),
    (8.0, [
        (1.5915494309189534e-12, 1.0, -1.4285714285714285e-12),
        (1.5915494309189532e-07, 0.9999999999999762, -1.4285714285713808e-07),
        (0.0015915494309189536, 0.9999976190595236, -0.0014285666667063473),
        (0.07957747154594767, 0.9941194449806182, -0.07084485097870608),
        (0.3182780551951723, 0.9184672942360326, -0.2551679069959187),
        (0.3183098861837907, 0.9184530947574518, -0.2551883676746252),
        (0.31834171717240906, 0.9184388945347579, -0.2552088271462926),
        (0.6364606174244894, 0.757168220634133, -0.4024053693292302),
        (0.6367789273106733, 0.7570014664089901, -0.40250101245464387),
        (1.5915494309189535, 0.3757741340239565, -0.45704385258271296),
        (15.915494309189533, 0.007122010256638385, -0.07928933505613171),
        (159.15494309189535, 7.199208123526061e-05, -0.007999280095022708),
        (15915.494309189535, 7.1999999208000015e-09, -7.999999928e-05),
    ]),
    (20.0, [
        (1.5915494309189534e-12, 1.0, -5.263157894736842e-13),
        (1.5915494309189532e-07, 0.9999999999999971, -5.2631578947368244e-08),
        (0.0015915494309189536, 0.9999997076024467, -0.0005263156174751319),
        (0.07957747154594767, 0.9992696769190124, -0.026294312010631843),
        (0.3182780551951723, 0.9884751693084687, -0.10389948798023328),
        (0.3183098861837907, 0.9884728971323755, -0.10390961266522313),
        (0.31834171717240906, 0.9884706247420656, -0.10391973727203889),
        (0.6364606174244894, 0.9557984966448416, -0.20014926257603324),
        (0.6367789273106733, 0.9557566613736848, -0.20023965200338603),
        (1.5915494309189535, 0.7824635911747911, -0.40222796595878674),
        (15.915494309189533, 0.03999402629714677, -0.19123920267373654),
        (159.15494309189535, 0.0004197876074225592, -0.01999076509716719),
        (15915.494309189535, 4.1999997874800124e-08, -0.0001999999907600005),
    ]),
    (40.0, [
        (1.5915494309189536e-14, 1.0, -2.564102564102564e-15),
        (1.432394487827058e-13, 1.0, -2.3076923076923073e-14),
        (1.5915494309189534e-12, 1.0, -2.564102564102564e-13),
        (1.5915494309189532e-07, 0.9999999999999993, -2.5641025641025623e-08),
        (0.0015915494309189536, 0.9999999325236218, -0.0002564102381733975),
        (0.07957747154594767, 0.9998313406964013, -0.012818233665172384),
        (0.3182780551951723, 0.9973095593574911, -0.0511315332416879),
        (0.31834171717240906, 0.9973084861870467, -0.051141702575872985),
        (0.6364606174244894, 0.9893370156982769, -0.1013867725348989),
        (0.6367789273106733, 0.9893264737181408, -0.10143634017549592),
        (1.5915494309189535, 0.9372001602403152, -0.2395034479275439),
        (15.915494309189533, 0.13921653567490866, -0.3419447925115939),
        (159.15494309189535, 0.0016370440117940187, -0.039931250051802716),
        (15915.494309189535, 1.6399997038160588e-07, -0.000399999931120013),
    ]),
    (100.0, [
        (1.5915494309189536e-14, 1.0, -1.01010101010101e-15),
        (1.432394487827058e-13, 1.0, -9.09090909090909e-15),
        (1.5915494309189534e-12, 1.0, -1.0101010101010101e-13),
        (1.5915494309189532e-07, 0.9999999999999999, -1.0101010101010099e-08),
        (0.0015915494309189536, 0.999999989692847, -0.00010101009994750791),
        (0.07957747154594767, 0.9999742328088623, -0.005050372230007244),
        (0.3182780551951723, 0.9995879732753103, -0.02019150552991977),
        (0.31834171717240906, 0.9995878085024437, -0.020195540837239238),
        (0.6364606174244894, 0.9983545056521024, -0.040326103368708434),
        (0.6367789273106733, 0.9983528621595666, -0.04034620367747919),
        (1.5915494309189535, 0.989802308436504, -0.09995902743407305),
        (15.915494309189533, 0.4975367056398328, -0.4975126712048285),
        (159.15494309189535, 0.009995035138307453, -0.09898071407981629),
        (15915.494309189535, 1.0099989388951586e-06, -0.0009999989698011036),
    ]),
    ]

    @pytest.mark.parametrize("theta,rows", POWERLAW_PINNED,
                             ids=[str(t) for t, _ in POWERLAW_PINNED])
    def test_powerlaw_pinned_values(self, theta, rows):
        xi, re, im = np.array(rows).T
        got = hm.PowerLawKernel(1.0, 1.0, theta).fourier(xi)
        ref = re + 1j * im
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("theta", [1.01, 2.0, 3.0, 20.0, 40.0, 50.0, 100.0])
    def test_powerlaw_large_theta_finite(self, theta):
        got = hm.PowerLawKernel(0.5, 1.0, theta).fourier(
            np.geomspace(1e-8, 10.0, 400))
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got) <= 0.5)

    def test_powerlaw_small_frequency_branch(self):
        """Near v = 0 the series tends to the mass along ``1 - i v / (theta - 1)``."""
        k = hm.PowerLawKernel(0.4, 1.0, 2.5)
        below = k.fourier(1e-14)
        above = k.fourier(2e-13 / (2.0 * np.pi))
        assert below.real == pytest.approx(0.4, rel=1e-10)
        assert abs(below - k.fourier(9e-14 / (2.0 * np.pi))) < 1e-10
        assert abs(above - 0.4) < 1e-10

    def test_powerlaw_transform_memory(self):
        """The transform's working set stays a small multiple of its output
        (a 1.5 MiB complex array here)."""
        k = hm.PowerLawKernel(0.4, 1.0, 2.5)
        xi = np.linspace(0.0, 0.6, 100_000)
        tracemalloc.start()
        try:
            out = k.fourier(xi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * out.nbytes

    @pytest.mark.parametrize("kernel", ALL_KERNELS + [hm.ZeroKernel()])
    def test_scalar_and_array_calls_agree(self, kernel):
        """A scalar gives a Python complex, an array keeps its shape, and
        each array entry is the scalar call's value."""
        xi = np.array([[-7.0, -0.2, 0.0], [0.1, 0.5, 7.0]])
        assert type(kernel.fourier(0.3)) is complex
        got = kernel.fourier(xi)
        assert got.shape == xi.shape and got.dtype == complex
        # the power-law continued fraction takes its depth from the
        # smallest frequency of the call, so allow rounding
        each = [[kernel.fourier(x) for x in row] for row in xi]
        assert np.allclose(got, each, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("kernel", ALL_KERNELS + [hm.ZeroKernel()])
    @pytest.mark.parametrize("xi", [np.nan, np.inf, -np.inf])
    def test_nonfinite_frequency_rejected(self, kernel, xi):
        with pytest.raises(ValueError, match="finite frequencies"):
            kernel.fourier(xi)
        with pytest.raises(ValueError, match="finite frequencies"):
            kernel.fourier(np.array([0.0, 1.0, xi]))

    @pytest.mark.parametrize("kernel", ALL_KERNELS + RANDOM_POWERLAWS)
    def test_envelope_certified(self, kernel):
        xi = np.geomspace(0.05, 1e4, 300)
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


# each constructor call mapped to the pointer of its non-finite field
NONFINITE_PARAMETERS = {
    lambda: hm.ExponentialKernel(0.5, np.inf): "/beta",
    lambda: hm.ExponentialKernel(np.nan, 1.0): "/alpha",
    lambda: hm.PowerLawKernel(0.4, 1.0, np.inf): "/theta",
    lambda: hm.PowerLawKernel(0.4, np.nan, 2.5): "/c",
    lambda: hm.UniformKernel(np.inf, 1.0): "/alpha",
    lambda: hm.UniformKernel(0.5, np.inf): "/a",
}


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

    @pytest.mark.parametrize("make", list(NONFINITE_PARAMETERS))
    def test_nonfinite_parameters_rejected(self, make):
        with pytest.raises(ConfigError, match="expected a finite number") as exc:
            make()
        assert exc.value.pointer == NONFINITE_PARAMETERS[make]
