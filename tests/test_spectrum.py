"""Bartlett spectral density, variance evaluators, and count covariances."""

import math
import tracemalloc

import numpy as np
import pytest

import hawkesmix as hm
from hawkesmix import spectrum
from hawkesmix.errors import HypothesisError, NumericError


def d1_variance_exact(t: float) -> float:
    """Closed-form Var(N_t) for the single-type model with eta = 1 and an
    exponential kernel with mass 1/2 and rate 2 (so kappa = beta - alpha*beta
    = 1): Var = 8t - 6 + 6 exp(-t)."""
    return 8.0 * t - 6.0 + 6.0 * np.exp(-t)


class TestFourierMatrix:
    def test_entries_match_kernels(self, d2_model):
        xi = 0.37
        got = hm.fourier_matrix(d2_model, xi)
        for i in range(2):
            for j in range(2):
                assert got[i, j] == pytest.approx(
                    complex(d2_model.kernels[i][j].fourier(xi)), abs=1e-14
                )

    def test_zero_frequency_is_reproduction(self, d2_model):
        got = hm.fourier_matrix(d2_model, 0.0)
        assert np.allclose(got, d2_model.validate().reproduction, atol=1e-14)
        assert np.allclose(got.imag, 0.0, atol=1e-15)


class TestBartlettDensity:
    def test_d1_zero_frequency(self, d1_model):
        gam = hm.bartlett_grid(d1_model, 0.0)[0]
        assert abs(gam[0, 0] - 8.0) < 1e-10

    def test_poisson_is_flat_diagonal(self, poisson2_model):
        xis = np.array([-3.0, 0.0, 0.17, 42.0])
        gam = hm.bartlett_grid(poisson2_model, xis)
        for p in range(xis.size):
            assert np.array_equal(gam[p], np.diag(poisson2_model.eta))

    def test_hermitian_and_psd_on_random_frequencies(self, d2_model):
        rng = np.random.default_rng(5)
        xis = rng.uniform(-40.0, 40.0, size=300)
        gam = hm.bartlett_grid(d2_model, xis)
        for p in range(xis.size):
            assert np.linalg.norm(gam[p] - gam[p].conj().T) < 1e-12
            eig = np.linalg.eigvalsh(gam[p])
            assert eig.min() > -1e-10

    def test_conjugate_symmetry_in_frequency(self, d2_model):
        xis = np.array([0.3, 1.7, 9.1])
        plus = hm.bartlett_grid(d2_model, xis)
        minus = hm.bartlett_grid(d2_model, -xis)
        assert np.allclose(minus, np.conj(plus), atol=1e-14)

    def test_matches_direct_solve(self, d2_model):
        summary = d2_model.validate()
        m = np.diag(summary.mean_intensity)
        eye = np.eye(2)
        for xi in (0.0, 0.21, 2.0, -1.3):
            h = hm.fourier_matrix(d2_model, xi)
            a = np.linalg.inv(eye - h.T)
            direct = a @ m @ a.conj().T
            got = hm.bartlett_grid(d2_model, xi)[0]
            assert np.allclose(got, direct, atol=1e-12)

    D1_KERNELS = [hm.PowerLawKernel(0.4, 1.0, 2.5),
                  hm.ExponentialKernel(0.5, 2.0), hm.UniformKernel(0.6, 1.5)]
    D1_IDS = ["powerlaw", "exponential", "uniform"]
    # dense around 0, geometric out to the quadrature cap, both signs
    XIS = np.concatenate([np.linspace(-5.0, 5.0, 4001),
                          np.geomspace(1e-8, 1e5, 2000),
                          -np.geomspace(1e-8, 1e5, 2000)])

    @pytest.mark.parametrize("kernel", D1_KERNELS, ids=D1_IDS)
    def test_d1_transfer_matches_matrix_inverse(self, kernel):
        model = hm.HawkesModel([1.0], [[kernel]])
        ht = hm.fourier_matrix(model, self.XIS)
        inv = np.linalg.inv(np.eye(1)[None] - np.swapaxes(ht, -1, -2))
        got = spectrum._transfer_grid(model, self.XIS)
        assert got.shape == inv.shape
        assert np.all(np.abs(got - inv) <= 1e-15 * np.abs(inv))

    @pytest.mark.parametrize("kernel", D1_KERNELS, ids=D1_IDS)
    def test_d1_bartlett_matches_matrix_product(self, kernel):
        model = hm.HawkesModel([1.0], [[kernel]])
        a = spectrum._transfer_grid(model, self.XIS)
        m = model.mean_intensity
        product = (a * m[None, None, :]) @ np.conj(np.swapaxes(a, -1, -2))
        got = hm.bartlett_grid(model, self.XIS)
        assert got.shape == product.shape and got.dtype == complex
        assert np.all(got.imag == 0.0)
        assert np.all(np.abs(got - product) <= 1e-15 * np.abs(product))

    @pytest.mark.parametrize("kernel", D1_KERNELS, ids=D1_IDS)
    def test_nonfinite_frequency_refused(self, kernel):
        """A NaN frequency is refused, not read as xi = 0."""
        model = hm.HawkesModel([1.0], [[kernel]])
        with pytest.raises(ValueError, match="finite frequencies"):
            hm.bartlett_density(model, np.nan)

    def test_spectrum_matrix_helpers(self, d2_model):
        s = hm.bartlett_density(d2_model, 0.8)
        assert s.hermitian_defect() < 1e-12
        assert s.min_eigenvalue() > -1e-12
        payload = s.to_dict()
        assert set(payload) >= {"xi", "real", "imag"}

    def test_spectrum_matrix_helpers_on_a_stack(self, d2_model):
        """Over a ``(n, d, d)`` stack the helpers give the extreme value of
        the single-frequency ones."""
        xis = np.array([-1.0, 0.0, 0.8])
        stack = hm.SpectrumMatrix(xis, hm.bartlett_grid(d2_model, xis))
        singles = [hm.bartlett_density(d2_model, xi) for xi in xis]
        assert stack.min_eigenvalue() == pytest.approx(
            min(s.min_eigenvalue() for s in singles), rel=1e-12)
        assert stack.hermitian_defect() == pytest.approx(
            max(s.hermitian_defect() for s in singles), rel=1e-12, abs=1e-15)


class TestVarianceProfile:
    def test_d1_closed_form(self, d1_model):
        f = hm.TestFunction.constant([1.0])
        ts = np.array([1.0, 3.0, 10.0, 40.0, 200.0])
        got = hm.variance_profile(d1_model, f, ts)
        expect = d1_variance_exact(ts)
        assert np.allclose(got, expect, rtol=1e-6)

    def test_poisson_counts_exact(self, poisson2_model):
        f = hm.TestFunction.constant([1.0, 0.0])
        for t in (0.5, 7.0):
            got = hm.variance_ST(poisson2_model, f, t)
            assert got == pytest.approx(poisson2_model.eta[0] * t, rel=1e-12)

    def test_general_path_matches_fast_path(self, d2_model):
        # amplitude-zero bump forces the windowed-transform branch while
        # representing the same statistic as plain constants
        fast = hm.TestFunction.constant([1.0, 0.5])
        slow = hm.TestFunction([
            hm.ConstPlusIndicatorF(1.0, 1.0, 2.0, 0.0),
            hm.ConstantF(0.5),
        ])
        for t in (4.0, 30.0):
            a = hm.variance_ST(d2_model, fast, t)
            b = hm.variance_ST(d2_model, slow, t)
            assert b == pytest.approx(a, rel=1e-6)

    def test_count_variance_routes_agree(self, d1_model):
        """Var(N(A)) through the indicator statistic and through the
        count-covariance evaluator must coincide."""
        a, b = 2.0, 5.0
        f = hm.TestFunction([hm.IndicatorF(a, b)])
        via_stat = hm.variance_ST(d1_model, f, 10.0)
        via_cov = hm.cov_counts(d1_model, 0, 0, (a, b), (a, b))
        assert via_cov == pytest.approx(via_stat, rel=1e-6)

    def test_profile_monotone(self, d2_model):
        f = hm.TestFunction.constant([1.0, 1.0])
        ts = np.linspace(0.5, 50.0, 25)
        prof = hm.variance_profile(d2_model, f, ts)
        assert np.all(np.diff(prof) > 0.0)

    def test_zero_variance_times_take_no_quadrature(self, monkeypatch):
        """A time where every weight vanishes on ``[0, t]`` has variance 0
        exactly; the relative target of the quadrature would be 0 there, so
        it ran to the frequency cap (lowered here so that such a run fails
        fast)."""
        monkeypatch.setattr(spectrum, "_XI_CAP", 100.0)
        model = clt_exp_model()
        f = hm.TestFunction([hm.IndicatorF(5.0, 8.0), hm.ConstantF(0.0)])
        got = hm.variance_profile(model, f, [2.0, 10.0])
        alone = hm.variance_profile(model, f, [10.0])
        assert got[0] == 0.0 and got[1] == alone[0] > 0.0
        assert np.array_equal(hm.variance_profile(model, f, [1.0, 5.0]),
                              [0.0, 0.0])

    def test_validation(self, d2_model):
        f1 = hm.TestFunction.constant([1.0])
        with pytest.raises(ValueError):
            hm.variance_ST(d2_model, f1, 10.0)
        f2 = hm.TestFunction.constant([1.0, 1.0])
        with pytest.raises(ValueError):
            hm.variance_profile(d2_model, f2, [])
        with pytest.raises(ValueError):
            hm.variance_profile(d2_model, f2, [-1.0])
        # a non-finite horizon must fail fast instead of stalling the
        # quadrature
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                hm.variance_ST(d2_model, f2, bad)

    def test_overflowing_time_refused(self):
        """``t^2`` times the coupling spectrum overflows past about 1e150,
        so such a time is refused up front, by name, not with a numpy
        overflow and a NaN, nor with the ``OverflowError`` of an integer
        too large for a float; 1e12 is still served."""
        model = clt_exp_model()
        f = hm.TestFunction.constant([1.0, 1.0])
        with pytest.raises(ValueError, match=r"at most 1e\+100, got 1e\+300"):
            hm.variance_profile(model, f, [1.0, 1e300])
        # an integer beyond the float range does not reach float()
        with pytest.raises(ValueError, match=r"at most 1e\+100, got inf"):
            hm.variance_ST(model, f, 10**400)
        assert hm.variance_ST(model, f, 1e12) > 0.0


def clt_exp_model() -> hm.HawkesModel:
    """The two-component exponential model of the clt-exp benchmark."""
    return hm.HawkesModel(
        [1.0, 1.0],
        [[hm.ExponentialKernel(0.5, 2.0), hm.ExponentialKernel(0.3, 2.0)],
         [hm.ExponentialKernel(0.2, 2.0), hm.ExponentialKernel(0.4, 2.0)]],
    )


def random_kernel(rng, family: str, alpha: float):
    if family == "exponential":
        return hm.ExponentialKernel(alpha, rng.uniform(0.5, 4.0))
    if family == "uniform":
        return hm.UniformKernel(alpha, rng.uniform(0.3, 2.0))
    return hm.PowerLawKernel(alpha, rng.uniform(0.3, 1.0),
                             rng.uniform(1.5, 4.0))


def random_model(rng, family: str, d: int) -> hm.HawkesModel:
    """Subcritical model of one kernel family, spectral radius 0.3-0.7."""
    alphas = rng.uniform(0.05, 1.0, (d, d))
    alphas *= rng.uniform(0.3, 0.7) / max(abs(np.linalg.eigvals(alphas)))
    return hm.HawkesModel(
        rng.uniform(0.5, 1.5, d),
        [[random_kernel(rng, family, alphas[i, j]) for j in range(d)]
         for i in range(d)],
    )


def count_g_points(monkeypatch) -> list:
    """Record the size of every grid handed to ``_g_grid``."""
    points = []
    g_grid = spectrum._g_grid

    def counting(model, xis):
        points.append(xis.size)
        return g_grid(model, xis)

    monkeypatch.setattr(spectrum, "_g_grid", counting)
    return points


class TestConstantWeightProfile:
    """The one-line case of the line profile: head on the direct rule, tail
    by one Filon pass over every time."""

    @pytest.mark.parametrize("horizon", [10.0, 200.0, 2000.0])
    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-6])
    def test_d1_closed_form_on_fine_grids(self, d1_model, horizon, rel_tol):
        f = hm.TestFunction.constant([1.0])
        ts = horizon / 1000.0 * np.arange(1, 1001)
        got = hm.variance_profile(d1_model, f, ts, rel_tol=rel_tol)
        assert np.all(np.abs(got / d1_variance_exact(ts) - 1.0) <= rel_tol)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", ["exponential", "uniform", "powerlaw"])
    def test_matches_general_path(self, family, d):
        """Seeded random models against the direct rule over the whole
        range, from times far below the inverse head range up to the
        horizon."""
        rng = np.random.default_rng([17, d, len(family)])
        model = random_model(rng, family, d)
        signs = rng.choice([-1.0, 1.0]) * (-1.0) ** np.arange(d)
        k = signs * rng.uniform(0.3, 1.5, d)
        fast = hm.TestFunction.constant(k)
        # a zero-amplitude bump, a component without lines, forces the
        # direct rule over the whole range
        slow = hm.TestFunction([hm.ConstPlusIndicatorF(k[0], 1.0, 2.0, 0.0)]
                               + [hm.ConstantF(x) for x in k[1:]])
        rel_tol = 1e-5
        ts = np.geomspace(0.01, 20.0, 8)
        a = hm.variance_profile(model, fast, ts, rel_tol=rel_tol)
        b = hm.variance_profile(model, slow, ts, rel_tol=rel_tol)
        assert np.all(np.abs(a / b - 1.0) <= 2.0 * rel_tol)

    def test_time_change_monotone_on_clt_model(self):
        f = hm.TestFunction.constant([1.0, 1.0])
        tc = hm.time_change(clt_exp_model(), f, 2000.0)
        assert tc.ts.size == 1000
        assert np.all(np.diff(tc.sigma2) > 0.0)

    def test_grid_size_on_clt_model(self, monkeypatch):
        """A 16-panel head and geometric tail bands: the default time
        change at T = 2000 needs 640 G points (the per-time direct rule
        took 344,064, the fixed-width tail 7,680)."""
        points = count_g_points(monkeypatch)
        f = hm.TestFunction.constant([1.0, 1.0])
        hm.time_change(clt_exp_model(), f, 2000.0)
        assert 0 < sum(points) <= 1_000

    def test_grid_size_flat_in_horizon(self, monkeypatch):
        """The tail bands double in width up to the memory scale, so the
        default time change needs about as many G points at T = 2e5 as at
        2e3 (the fixed-width tail took 51,200 at 2e5)."""
        points = count_g_points(monkeypatch)
        f = hm.TestFunction.constant([1.0, 1.0])
        totals = []
        for horizon in (2e3, 2e4, 2e5):
            points.clear()
            hm.time_change(clt_exp_model(), f, horizon)
            totals.append(sum(points))
        assert 0 < max(totals) <= 2 * min(totals)

    def test_fine_grid_time_change_monotone(self):
        """Ten thousand grid times, adjacent ones 1e-4 of the horizon
        apart, pass the monotonicity check of ``TimeChange``."""
        f = hm.TestFunction.constant([1.0, 1.0])
        tc = hm.time_change(clt_exp_model(), f, 2000.0, grid_step=0.2)
        assert tc.ts.size == 10_000


def random_trigpoly(rng) -> hm.TrigPolyF:
    return hm.TrigPolyF(rng.uniform(2.0, 40.0), rng.uniform(0.5, 1.5),
                        list(rng.normal(0.0, 0.5, rng.integers(1, 4))),
                        list(rng.normal(0.0, 0.5, rng.integers(0, 4))))


class TestLineWeightProfile:
    """Trigonometric and constant weights share the line profile: a head
    on the direct rule past every line, then Gauss and Filon sums."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", ["exponential", "uniform", "powerlaw"])
    def test_matches_per_time_rule(self, family, d):
        """Seeded random models and trigonometric weights, with a constant
        mixed in, against the direct rule over the whole range; the head
        just reaches four times the top line, which leaves most of the
        integral to the tail bands."""
        rng = np.random.default_rng([31, d, len(family)])
        model = random_model(rng, family, d)
        trig = [random_trigpoly(rng) for _ in range(d)]
        k = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
        if d == 1:
            # an independent zero-weight Poisson component carries the
            # zero-amplitude bump that forces the direct rule over the
            # whole range
            lines = hm.TestFunction(trig)
            slow_model = hm.HawkesModel(
                [model.eta[0], 1.0],
                [[model.kernels[0][0], hm.ZeroKernel()],
                 [hm.ZeroKernel(), hm.ZeroKernel()]])
            slow = hm.TestFunction(trig + [hm.ConstPlusIndicatorF(
                0.0, 1.0, 2.0, 0.0)])
        else:
            lines = hm.TestFunction([hm.ConstantF(k)] + trig[1:])
            slow_model = model
            slow = hm.TestFunction([hm.ConstPlusIndicatorF(k, 1.0, 2.0, 0.0)]
                                   + trig[1:])
        rel_tol = 1e-5
        ts = np.geomspace(4.0, 100.0, 3)
        b = hm.variance_profile(slow_model, slow, ts, rel_tol=rel_tol)
        a = hm.variance_profile(model, lines, ts, rel_tol=rel_tol)
        assert np.all(np.abs(a / b - 1.0) <= 2.0 * rel_tol)

    def test_high_frequency_head_is_blocked(self, d1_model, monkeypatch):
        """A head that must reach four times the top line is cut into
        blocks, so no grid exceeds one block of panels."""
        points = count_g_points(monkeypatch)
        f = hm.TestFunction([hm.TrigPolyF(0.05, 1.0, [0.5, 0.3, 0.2],
                                          [0.25, 0.1, -0.2])])
        value = hm.variance_ST(d1_model, f, 200.0)
        assert np.isfinite(value) and value > 0.0
        assert len(points) > 1 and max(points) <= 16_384

    def test_grid_size_on_clt_model_with_trigpoly(self, monkeypatch):
        """The default time change with one trigonometric weight at T = 200
        needs under 10,000 G points (the per-time rule took 122 s)."""
        points = count_g_points(monkeypatch)
        f = hm.TestFunction([hm.TrigPolyF(10.0, 1.0, [0.5], [0.25]),
                             hm.ConstantF(1.0)])
        tc = hm.time_change(clt_exp_model(), f, 200.0)
        assert np.all(np.diff(tc.sigma2) > 0.0)
        assert 0 < sum(points) <= 10_000


def per_time_profile(model, f, ts, rel_tol):
    """The per-time direct rule that the atom block replaced: every
    component's window at each time separately, on panels from 0 to the
    tail stop."""
    ts = np.asarray(ts, dtype=float)
    m = model.validate().mean_intensity
    base = sum(m[i] * f[i].squared_integral(ts) for i in range(len(f)))
    horizon = float(np.max(ts))
    width = 1.0 / (3.0 * (horizon + model.delay_moment(1.0) + 1.0))
    envs = [c.envelope(horizon) for c in f.components]
    ah, _ = spectrum._envelope_consts(model)
    xi_min = max(2.0 * ah, max(e.xi_min for e in envs), 8.0 * width)
    sums = (sum(e.a**2 for e in envs), sum(e.a * e.b for e in envs),
            sum(e.b**2 for e in envs))

    def block(xis, g, width, panel):
        out = []
        for t in ts:
            w = np.array([c.fourier_window(xis, t) for c in f.components],
                         dtype=complex)
            quad = np.einsum("ip,pij,jp->p", np.conj(w), g, w, optimize=True)
            out.append(spectrum._panel_rule(width)(quad.real, panel))
        return out

    return spectrum._quadrature("variance", model, [(width, 0, math.inf)],
                                xi_min, base, block,
                                spectrum._envelope_tail(model, sums),
                                rel_tol, 0.0)


def random_general_component(rng) -> hm.ComponentFunction:
    """An indicator, a constant plus an indicator, or a sampled weight."""
    kind = rng.integers(3)
    a = rng.uniform(0.0, 3.0)
    b = a + rng.uniform(0.5, 20.0)
    if kind == 0:
        return hm.IndicatorF(a, b, rng.uniform(0.5, 2.0))
    if kind == 1:
        return hm.ConstPlusIndicatorF(rng.normal(), a, b, rng.normal())
    return hm.SampledPeriodicF(rng.uniform(0.5, 6.0),
                               list(rng.normal(size=rng.integers(2, 6))))


class TestAtomProfile:
    """Weights with a component without lines take one direct block over
    atoms (the lines of the other components, then each such component),
    for every time at once."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", ["exponential", "uniform", "powerlaw"])
    def test_matches_per_time_rule(self, family, d):
        """Seeded random models, with at least one indicator, constant
        plus indicator or sampled weight mixed with trigonometric and
        constant weights, against the per-time rule."""
        rng = np.random.default_rng([41, d, len(family)])
        model = random_model(rng, family, d)
        comps = [random_general_component(rng)]
        for _ in range(d - 1):
            comps.append(rng.choice([random_general_component,
                                     random_trigpoly,
                                     lambda r: hm.ConstantF(r.normal())])(rng))
        f = hm.TestFunction([comps[i] for i in rng.permutation(d)])
        ts = np.sort(rng.uniform(4.0, rng.uniform(10.0, 30.0), 3))
        rel_tol = 1e-5
        got = hm.variance_profile(model, f, ts, rel_tol=rel_tol)
        ref = per_time_profile(model, f, ts, rel_tol)
        assert np.all(np.abs(got / ref - 1.0) <= 2.0 * rel_tol)


class TestAsymptoticVariance:
    def test_d1_slope(self, d1_model):
        assert hm.asymptotic_variance_const(d1_model, [1.0]) == pytest.approx(
            8.0, abs=1e-10
        )

    def test_zero_weights(self, d2_model):
        assert hm.asymptotic_variance_const(d2_model, [0.0, 0.0]) == 0.0

    def test_matches_zero_frequency_form(self, d2_model):
        k = np.array([1.0, -2.0])
        gam0 = hm.bartlett_grid(d2_model, 0.0)[0].real
        assert hm.asymptotic_variance_const(d2_model, k) == pytest.approx(
            float(k @ gam0 @ k), rel=1e-12
        )

    def test_slope_matches_long_window(self, d1_model):
        f = hm.TestFunction.constant([1.0])
        t = 4000.0
        slope = hm.variance_ST(d1_model, f, t) / t
        assert slope == pytest.approx(8.0, rel=1e-3)

    def test_weight_length_checked(self, d2_model):
        with pytest.raises(ValueError):
            hm.asymptotic_variance_const(d2_model, [1.0])


class TestPeriodicVariance:
    def test_trig_reference_value(self, d1_model):
        # f(t) = 1 + cos(2 pi t): slope = gamma(0) + gamma(1) / 2
        f = hm.TestFunction([
            hm.TrigPolyF(period=1.0, a0=1.0, cos=[1.0])
        ])
        got = hm.asymptotic_variance_periodic(d1_model, f, 1.0)
        assert got.value == pytest.approx(9.074113569095573, rel=1e-9)
        # harmonics beyond |n| = 1 vanish exactly; the certified tail only
        # sees the envelope, so it is small relative to the value, not tiny
        assert got.tail_estimate < 0.02 * got.value

    def test_constant_reduces_to_zero_frequency(self, d2_model):
        f = hm.TestFunction([
            hm.TrigPolyF(period=2.0, a0=1.5),
            hm.TrigPolyF(period=2.0, a0=-0.5),
        ])
        got = hm.asymptotic_variance_periodic(d2_model, f, 2.0)
        gam0 = hm.bartlett_grid(d2_model, 0.0)[0].real
        k = np.array([1.5, -0.5])
        assert got.value == pytest.approx(float(k @ gam0 @ k), rel=1e-9)

    def test_term_count_converged(self, d1_model):
        f = hm.TestFunction([
            hm.TrigPolyF(period=1.0, a0=1.0, cos=[0.5], sin=[0.2])
        ])
        lo = hm.asymptotic_variance_periodic(d1_model, f, 1.0, n_max=64)
        hi = hm.asymptotic_variance_periodic(d1_model, f, 1.0, n_max=128)
        assert hi.value == pytest.approx(lo.value, rel=1e-3)
        assert hi.tail_estimate < lo.tail_estimate

    def test_matches_long_window_slope(self, d1_model):
        f = hm.TestFunction([
            hm.TrigPolyF(period=1.0, a0=1.0, cos=[1.0])
        ])
        slope = hm.asymptotic_variance_periodic(d1_model, f, 1.0).value
        t = 1000.0
        assert hm.variance_ST(d1_model, f, t) / t == pytest.approx(
            slope, rel=2e-2
        )

    def test_zero_mean_rejected(self, d1_model):
        f = hm.TestFunction([
            hm.TrigPolyF(period=1.0, a0=0.0, cos=[1.0])
        ])
        with pytest.raises(HypothesisError):
            hm.asymptotic_variance_periodic(d1_model, f, 1.0)

    def test_small_term_count_rejected(self, d1_model):
        f = hm.TestFunction([hm.TrigPolyF(period=1.0, a0=1.0)])
        with pytest.raises(ValueError):
            hm.asymptotic_variance_periodic(d1_model, f, 1.0, n_max=1)

    @pytest.mark.parametrize("n_max", [8.5, 8.0, 0, -3, True])
    def test_non_integer_term_count_refused(self, d1_model, n_max):
        f = hm.TestFunction.constant([1.0])
        with pytest.raises(ValueError, match="n_max"):
            hm.asymptotic_variance_periodic(d1_model, f, 1.0, n_max=n_max)


class TestCovCounts:
    def test_poisson_overlap(self, poisson2_model):
        got = hm.cov_counts(poisson2_model, 0, 0, (0.0, 3.0), (1.0, 5.0))
        assert got == pytest.approx(poisson2_model.eta[0] * 2.0, rel=1e-12)

    def test_poisson_disjoint_and_cross(self, poisson2_model):
        assert hm.cov_counts(poisson2_model, 0, 0, (0.0, 1.0), (2.0, 3.0)) == 0.0
        assert hm.cov_counts(poisson2_model, 0, 1, (0.0, 1.0), (0.0, 1.0)) == 0.0

    def test_d1_exponential_decay(self, d1_model):
        # unit windows at lag tau: Cov = 3 (e - 1)^2 e^(-1) e^(-tau)
        pref = 3.0 * (np.e - 1.0) ** 2 / np.e
        for tau in (2.0, 5.0, 9.0):
            got = hm.cov_counts(d1_model, 0, 0, (0.0, 1.0),
                                (tau, tau + 1.0), abs_tol=1e-12)
            assert got == pytest.approx(pref * np.exp(-tau), rel=1e-6)

    def test_symmetry_in_windows(self, d2_model):
        a, b = (0.0, 2.0), (3.0, 4.5)
        ab = hm.cov_counts(d2_model, 0, 1, a, b, abs_tol=1e-12)
        ba = hm.cov_counts(d2_model, 1, 0, b, a, abs_tol=1e-12)
        assert ba == pytest.approx(ab, rel=1e-9, abs=1e-12)

    def test_decay_powerlaw_lags(self):
        """The bench power-law model at the decay command's lags, against
        values computed with the first-order tail to range ~2330."""
        model = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])
        for lag, ref in ((5.0, 0.021031753903371093),
                         (10.0, 0.0023549511532482913)):
            got = hm.cov_counts(model, 0, 0, (0.0, 1.0), (lag, lag + 1.0),
                                abs_tol=1e-9)
            assert got == pytest.approx(ref, rel=1e-9)

    def test_long_window_memory(self):
        """The fine stretch near the origin grows with the window lengths;
        it runs in blocks, so the working set does not."""
        model = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])
        tracemalloc.start()
        try:
            got = hm.cov_counts(model, 0, 0, (0.0, 1000.0), (0.0, 1000.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert got == pytest.approx(4626.164863716373, rel=1e-6)

    @staticmethod
    def g_points(monkeypatch, model, i, j, second_order=True) -> int:
        """``G`` points of a unit-window covariance at lag 5, with the
        second-order tail constant withheld when ``second_order`` is
        false."""
        seen = count_g_points(monkeypatch)
        if not second_order:
            monkeypatch.setattr(spectrum, "_g_diag_const", lambda *_: None)
        hm.cov_counts(model, i, j, (0.0, 1.0), (5.0, 6.0), abs_tol=1e-9)
        monkeypatch.undo()
        return sum(seen)

    @pytest.mark.parametrize("case", ["uniform", "cross"])
    def test_first_order_tail_where_no_second(self, case, monkeypatch):
        """A kernel without a remainder constant, or ``i != j``, stops on
        the ``1 / xi^2`` tail: the same grids as with the second-order
        constant withheld."""
        if case == "uniform":
            model = hm.HawkesModel([1.0], [[hm.UniformKernel(0.4, 1.5)]])
            i = j = 0
            assert spectrum._g_diag_const(model, 1e3) is None
        else:
            kernels = [[hm.ExponentialKernel(a, 2.0) for a in row]
                       for row in ((0.5, 0.3), (0.2, 0.4))]
            model, i, j = hm.HawkesModel([1.0, 0.5], kernels), 0, 1
        assert (self.g_points(monkeypatch, model, i, j)
                == self.g_points(monkeypatch, model, i, j, second_order=False))

    def test_second_order_tail_stops_sooner(self, monkeypatch):
        model = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])
        assert (10 * self.g_points(monkeypatch, model, 0, 0)
                < self.g_points(monkeypatch, model, 0, 0, second_order=False))

    def test_window_validation(self, d2_model):
        with pytest.raises(ValueError):
            hm.cov_counts(d2_model, 0, 0, (1.0, 1.0), (0.0, 2.0))
        with pytest.raises(ValueError):
            hm.cov_counts(d2_model, 2, 0, (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError, match=r"window A = \(0.0, inf\]"):
            hm.cov_counts(d2_model, 0, 0, (0.0, np.inf), (1.0, 2.0))


class TestQuadrature:
    def test_carrier_zero_rule_is_gauss(self):
        rule = spectrum._panel_rule(1.0)
        weights = np.array([rule(e, 0) for e in np.eye(8)])
        assert np.array_equal(weights, spectrum._WEIGHTS)

    @pytest.mark.parametrize("carrier", [0.0, 0.7, -3.1, 41.3])
    def test_rule_integrates_carrier_exactly(self, carrier):
        # vals = 1: twice int_lo^hi exp(2i pi c xi) dxi, whose real part is
        # 2 (hi sinc(2 c hi) - lo sinc(2 c lo))
        width, start, n = 0.25, 3, 16
        xis = spectrum._panel_points(width, start, n)
        got = spectrum._panel_rule(width, carrier)(np.ones(xis.size), start)
        lo, hi = width * start, width * (start + n)
        exact = 2.0 * (hi * np.sinc(2.0 * carrier * hi)
                       - lo * np.sinc(2.0 * carrier * lo))
        assert got.real == pytest.approx(exact, rel=1e-12, abs=1e-13)
        if carrier == 0.0:
            assert got.imag == 0.0
        else:
            full = ((np.exp(2j * np.pi * carrier * hi)
                     - np.exp(2j * np.pi * carrier * lo))
                    / (1j * np.pi * carrier))
            assert got == pytest.approx(full, rel=1e-12, abs=1e-13)

    def test_vector_of_carriers_matches_one_at_a_time(self):
        width, start = 0.25, 3
        xis = spectrum._panel_points(width, start, 16)
        vals = np.cos(xis) / (1.0 + xis**2)
        carriers = np.array([[0.7, -3.1], [41.3, 1e-3]])
        got = spectrum._panel_rule(width, carriers)(vals, start)
        one = [[spectrum._panel_rule(width, c)(vals, start) for c in row]
               for row in carriers]
        assert got.shape == carriers.shape
        assert np.allclose(got, one, rtol=1e-13, atol=1e-15)

    def test_g_norm_const_dominates_spectral_norm(self):
        """``kg / xi`` bounds ``||G(xi)||_2`` on random models of every
        family, d <= 3, from twice the envelope constant up to 1e4."""
        rng = np.random.default_rng(77)
        families = ("exponential", "uniform", "powerlaw", "zero")
        for _ in range(40):
            d = int(rng.integers(1, 4))
            fam = rng.choice(families, size=(d, d))
            fam[rng.integers(d), rng.integers(d)] = "exponential"
            raw = np.where(fam == "zero", 0.0, rng.uniform(0.1, 1.0, (d, d)))
            raw *= rng.uniform(0.2, 0.9) / hm.spectral_radius(raw)
            kernels = [[hm.ZeroKernel() if fam[i, j] == "zero"
                        else random_kernel(rng, fam[i, j], raw[i, j])
                        for j in range(d)] for i in range(d)]
            model = hm.HawkesModel(rng.uniform(0.2, 2.0, d), kernels)
            ah, _ = spectrum._envelope_consts(model)
            for xi in np.exp(rng.uniform(np.log(2.0 * ah), np.log(1e4), 8)):
                g = spectrum._g_grid(model, np.array([xi]))[0]
                bound = spectrum._g_norm_const(model, xi) / xi
                assert np.linalg.norm(g, 2) <= bound

    def test_g_diag_const_dominates_diagonal(self):
        """``k2 / xi^2`` bounds every ``|G_ii(xi)|`` on random models of
        the families that declare a remainder constant, d <= 3, from twice
        the envelope constant up to 1e4."""
        rng = np.random.default_rng(78)
        families = ("exponential", "powerlaw", "zero")
        for _ in range(40):
            d = int(rng.integers(1, 4))
            fam = rng.choice(families, size=(d, d))
            # a diagonal kernel with mass keeps the spectral radius positive
            k = rng.integers(d)
            fam[k, k] = "exponential"
            raw = np.where(fam == "zero", 0.0, rng.uniform(0.1, 1.0, (d, d)))
            raw *= rng.uniform(0.2, 0.9) / hm.spectral_radius(raw)
            kernels = [[hm.ZeroKernel() if fam[i, j] == "zero"
                        else random_kernel(rng, fam[i, j], raw[i, j])
                        for j in range(d)] for i in range(d)]
            model = hm.HawkesModel(rng.uniform(0.2, 2.0, d), kernels)
            ah, _ = spectrum._envelope_consts(model)
            for xi in np.exp(rng.uniform(np.log(2.0 * ah), np.log(1e4), 8)):
                g = spectrum._g_grid(model, np.array([xi]))[0]
                bound = spectrum._g_diag_const(model, xi) / xi**2
                assert np.all(np.abs(np.diagonal(g)) <= bound)

    def test_non_convergence_names_the_range(self, d2_model, monkeypatch):
        monkeypatch.setattr(spectrum, "_XI_CAP", 1.0)
        f = hm.TestFunction.constant([1.0, 1.0])
        with pytest.raises(NumericError,
                           match=r"^variance quadrature did not converge: "
                                 r"range \d"):
            hm.variance_profile(d2_model, f, [10.0], rel_tol=1e-15)
        with pytest.raises(NumericError,
                           match=r"^count-covariance quadrature did not "
                                 r"converge: range \d"):
            hm.cov_counts(d2_model, 0, 1, (0.0, 1.0), (3.0, 4.0),
                          rel_tol=1e-15)
