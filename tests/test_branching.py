"""Galton-Watson Laplace recursion, contraction certificates, mixing bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import hawkesmix as hm
from hawkesmix.branching import (_assemble, _max_product_sum,
                                 _perron_weights, _tail_rate)
from hawkesmix.errors import (HypothesisError, InfiniteMomentError,
                              NumericError, SubcriticalityError)

M2 = np.array([[0.5, 0.3], [0.2, 0.4]])

CERT_MATRICES = [
    np.array([[0.5]]),
    M2,
    np.zeros((2, 2)),
    np.array([[0.0, 0.9], [0.9, 0.0]]),
    np.array([[0.3, 0.6], [0.3, 0.3]]),
]


class TestGMap:
    def test_reference_value(self):
        got = hm.g_map(M2, np.log(2.0) * np.ones(2))
        assert got == pytest.approx([0.8, 0.6], rel=1e-14)

    def test_zero_is_fixed_point(self):
        assert np.array_equal(hm.g_map(M2, np.zeros(2)), np.zeros(2))

    def test_scalar_matrix(self):
        got = hm.g_map(np.array([[0.5]]), np.array([1.0]))
        assert got == pytest.approx([0.5 * (np.e - 1.0)], rel=1e-14)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            hm.g_map(M2, np.array([0.1, -0.1]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="one argument per type"):
            hm.g_map(M2, [0.1, 0.2, 0.3])


class TestLaplaceGeneration:
    @pytest.mark.parametrize("k", [0, 1])
    def test_wrong_length_rejected(self, k):
        with pytest.raises(ValueError, match="one argument per type"):
            hm.laplace_generation(M2, [0.1, 0.2, 0.3], k)

    def test_generation_zero(self):
        u = np.array([0.3, 0.7])
        assert hm.laplace_generation(M2, u, 0, ancestor=1) == pytest.approx(
            np.exp(0.7), rel=1e-14
        )

    def test_single_type_one_step(self):
        got = hm.laplace_generation(np.array([[0.5]]), np.log(2.0), 1)
        assert got == pytest.approx(np.exp(0.5), rel=1e-14)

    def test_poisson_offspring_identity(self):
        """One step from ancestor z equals the Poisson transform of row z."""
        u = np.array([0.2, 0.4])
        for z in range(2):
            expect = np.exp(float(M2[z] @ np.expm1(u)))
            assert hm.laplace_generation(M2, u, 1, z) == pytest.approx(
                expect, rel=1e-14
            )

    def test_monte_carlo_agreement(self):
        cert = hm.contraction_certificate(M2)
        u = 0.5 * cert.u  # doubled argument stays summable, so the SE is valid
        runs = hm.simulate_generations(M2, 0, 6, 100_000, seed=12)
        for k in range(7):
            sample = np.exp(runs[:, k, :] @ u)
            exact = hm.laplace_generation(M2, u, k)
            if np.ptp(sample) == 0.0:
                # constant sample (k = 0 is the ancestor alone): its SE is
                # rounding noise, so check the mean to rounding instead
                assert sample.mean() == pytest.approx(exact, rel=1e-12, abs=0.0)
            else:
                se = sample.std(ddof=1) / np.sqrt(sample.size)
                assert abs(sample.mean() - exact) < 3.0 * se

    def test_divergence_detected(self):
        with pytest.raises(NumericError):
            hm.laplace_generation(np.array([[0.9]]), np.array([5.0]), 200)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            hm.laplace_generation(M2, np.array([0.1, 0.1]), -1)
        with pytest.raises(ValueError):
            hm.laplace_generation(M2, np.array([0.1, 0.1]), 1, ancestor=5)

    def test_nan_argument_refused(self):
        with pytest.raises(ValueError, match="finite nonnegative"):
            hm.laplace_generation(M2, [np.nan, 0.1], 3)

    def test_non_integer_generation_refused(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            hm.laplace_generation(M2, [0.1, 0.2], 2.5)

    def test_non_square_matrix_refused(self):
        with pytest.raises(ValueError, match="m must be a square matrix"):
            hm.laplace_generation(0.1 * np.ones((2, 3)), [0.1, 0.2], 2)


class TestContractionCertificate:
    def test_single_type_reference(self):
        cert = hm.contraction_certificate(np.array([[0.5]]))
        assert cert.delta == pytest.approx(1.5, rel=1e-12)
        assert cert.eps == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert cert.c == pytest.approx(0.875, rel=1e-12)
        assert cert.k0 == 0
        # u0 solves e^x - 1 = 1.5 x
        assert np.expm1(cert.u0) <= 1.5 * cert.u0 + 1e-12
        assert np.expm1(cert.u0 * 1.001) > 1.5 * cert.u0 * 1.001

    def test_zero_matrix_hits_slope_cap(self):
        cert = hm.contraction_certificate(np.zeros((2, 2)))
        assert cert.delta == 2.0
        assert cert.eps == 0.25
        assert cert.c == 0.5
        assert np.all(cert.u == cert.u0)

    def test_supercritical_rejected(self):
        with pytest.raises(SubcriticalityError):
            hm.contraction_certificate(np.array([[1.0]]))

    def test_nan_entry_refused(self):
        with pytest.raises(ValueError, match="must be finite"):
            hm.contraction_certificate(np.array([[0.5, np.nan], [0.1, 0.2]]))

    @pytest.mark.parametrize("m", CERT_MATRICES)
    def test_certified_domination(self, m):
        """g^k(u) <= delta^k M^k u componentwise for every generation."""
        cert = hm.contraction_certificate(m)
        d = m.shape[0]
        u = cert.u.copy()
        lin = cert.u.copy()
        for k in range(1, 201):
            u = hm.g_map(m, u)
            lin = cert.delta * (m @ lin)
            assert np.all(u <= lin + 1e-14)

    @pytest.mark.parametrize("m", CERT_MATRICES)
    def test_certified_contraction(self, m):
        """||g^k(u)||_1 <= c^k ||u||_1 for k >= k0."""
        cert = hm.contraction_certificate(m)
        u = cert.u.copy()
        norm0 = np.sum(cert.u)
        for k in range(1, 201):
            u = hm.g_map(m, u)
            if k >= max(cert.k0, 1):
                assert np.sum(u) <= cert.c**k * norm0 * (1.0 + 1e-12)

    @pytest.mark.parametrize("m", CERT_MATRICES)
    def test_argument_inside_linearization_region(self, m):
        cert = hm.contraction_certificate(m)
        v = cert.u.copy()
        for _ in range(400):
            assert np.all(v <= cert.u0 * (1.0 + 1e-12))
            v = cert.delta * (m @ v)


class TestTailConstants:
    def test_c1_geometric_reference(self):
        # sum 1/(2^n - 1) = 1.6066951524152917... (p = 1, u = ln 2)
        got = hm.c1_constant(np.log(2.0), 1.0)
        assert got == pytest.approx(1.6066951524152917, rel=1e-10)
        assert got >= 1.6066951524152917

    def test_c1_dominates_long_partial_sum(self):
        n = np.arange(1, 100_001)
        rng = np.random.default_rng(31)
        for _ in range(40):
            u, p = rng.uniform(0.05, 3.0), rng.uniform(1.0, 4.0)
            with np.errstate(over="ignore"):
                terms = np.expm1(u * n) ** (-1.0 / p)
            assert hm.c1_constant(u, p) >= math.fsum(terms)

    def test_c1_monotone_in_exponent(self):
        # larger p means slower decay of each term, hence a larger sum
        assert hm.c1_constant(0.5, 4.0) > hm.c1_constant(0.5, 2.0)

    def test_c1_validation(self):
        with pytest.raises(ValueError):
            hm.c1_constant(0.0, 2.0)
        with pytest.raises(ValueError):
            hm.c1_constant(0.5, 0.5)

    def test_c1_nan_exponent_refused(self):
        with pytest.raises(ValueError, match="strictly positive exponent"):
            hm.c1_constant(np.nan, 2.0)

    def test_tail_sum_dominates_poisson_tail(self):
        """For generation one the chain bound must cover the exact value."""
        m = np.array([[0.5]])
        cert = hm.contraction_certificate(m)
        p = 2.0
        n = np.arange(1, 60)
        exact = float(np.sum(stats.poisson.sf(n - 1, 0.5) ** (1.0 / p)))
        bound = hm.tail_sum_generation(m, cert, 1, 0, p)
        assert bound >= exact

    def test_tail_sum_dominates_empirical(self):
        cert = hm.contraction_certificate(M2)
        runs = hm.simulate_generations(M2, 0, 6, 100_000, seed=23)
        p = 3.0
        for k in range(1, 7):
            bound = hm.tail_sum_generation(M2, cert, k, 0, p)
            for i in range(2):
                counts = runs[:, k, i]
                top = int(counts.max())
                emp = sum(
                    float(np.mean(counts >= n)) ** (1.0 / p)
                    for n in range(1, top + 1)
                )
                assert bound >= emp


class TestArrivalTail:
    def test_reference_value(self):
        assert hm.arrival_tail_bound(2.0, 1.0, 2, 10.0) == pytest.approx(0.08)

    def test_ancestor_generation_never_travels(self):
        assert hm.arrival_tail_bound(2.0, 1.0, 0, 10.0) == 0.0

    def test_clipped_at_one(self):
        assert hm.arrival_tail_bound(5.0, 1.0, 50, 2.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            hm.arrival_tail_bound(-1.0, 1.0, 2, 10.0)
        with pytest.raises(ValueError):
            hm.arrival_tail_bound(1.0, 1.0, -1, 10.0)

    @pytest.mark.parametrize("args, message", [
        ((np.nan, 1.0, 2, 3.0), "need nu >= 0"),
        ((1.0, np.nan, 2, 3.0), "need nu >= 0"),
        ((1.0, 1.0, 2, np.nan), "need nu >= 0"),
        ((1.0, 1.0, np.nan, 3.0), "generation index"),
    ])
    def test_nan_refused(self, args, message):
        with pytest.raises(ValueError, match=message):
            hm.arrival_tail_bound(*args)


def random_mixing_model(rng, share=(0.1, 0.6)):
    """A random subcritical model of 1-3 components mixing exponential,
    uniform and power-law kernels, with exponents ``beta > gamma > 0``
    that every kernel's moments admit, and ``gamma / beta`` uniform on
    ``share``.  The default keeps ``gamma`` below ``0.6 beta``, so the
    cuts stay short: the Hoelder exponent ``p = 2 (1 + beta) / (beta -
    gamma)`` grows as ``gamma`` nears ``beta``, and the generation cut of
    :func:`mixing_bound` grows about like ``p``."""
    d = int(rng.integers(1, 4))
    beta = rng.uniform(0.5, 2.0)
    alphas = rng.uniform(0.05, 1.0, (d, d)) * (rng.random((d, d)) < 0.8)
    k = rng.integers(d)
    alphas[k, k] = rng.uniform(0.2, 1.0)
    alphas *= rng.uniform(0.2, 0.9) / hm.spectral_radius(alphas)

    def kernel(alpha):
        family = rng.integers(3)
        if alpha == 0.0:
            return hm.ZeroKernel()
        if family == 0:
            return hm.ExponentialKernel(alpha, rng.uniform(0.3, 5.0))
        if family == 1:
            return hm.UniformKernel(alpha, rng.uniform(0.5, 5.0))
        return hm.PowerLawKernel(alpha, rng.uniform(0.5, 2.0),
                                 1.0 + beta + rng.uniform(0.2, 2.0))

    model = hm.HawkesModel(rng.uniform(0.5, 1.5, d),
                           [[kernel(a) for a in row] for row in alphas])
    return model, beta, rng.uniform(*share) * beta


def _terms(rep):
    """The ``terms`` argument of :func:`_assemble` for report ``rep``."""
    pair = (1.0 + rep.beta) / (rep.beta - rep.gamma)
    return ((rep.p, rep.c1_p), (rep.q, rep.c1_q), (pair, rep.c1_pair))


def test_max_product_sum_matches_outer_products():
    """The sorted double sum equals the sum over the full ``K x K`` grid
    of ``max(a1_k b1_l, a2_k b2_l)`` to rounding, with zero entries, a
    zero ``a2`` and ratios past the float range among the inputs."""
    rng = np.random.default_rng(5)
    for trial in range(300):
        k = int(rng.integers(1, 80))
        # products stay below 1e300, ratios b2 / b1 reach 1e350
        a1, b1, a2, b2 = (rng.random(k) * (rng.random(k) < 0.8)
                          * 10.0 ** rng.uniform(-200, 150, k)
                          for _ in range(4))
        if trial % 3 == 0:
            a2[:] = 0.0
        b1[0] = b2[0] = 0.0
        grid = np.maximum(np.outer(a1, b1), np.outer(a2, b2))
        got = _max_product_sum(a1, b1, a2, b2)
        assert got == pytest.approx(math.fsum(grid.ravel()), rel=1e-13,
                                    abs=0.0)


ENVELOPE_MATRICES = {
    "d1": np.array([[0.4]]),
    "d2": M2,
    "d2-zero": np.zeros((2, 2)),
    "d2-reducible": np.array([[0.4, 0.5], [0.0, 0.3]]),
    "d2-nilpotent": np.array([[0.0, 2.0], [0.0, 0.0]]),
    "d3": np.array([[0.3, 0.2, 0.1], [0.1, 0.2, 0.3], [0.2, 0.1, 0.2]]),
    "d3-reducible": np.array([[0.5, 0.3, 0.0], [0.0, 0.2, 0.4],
                              [0.0, 0.0, 0.6]]),
}


@pytest.mark.parametrize("m", ENVELOPE_MATRICES.values(),
                         ids=ENVELOPE_MATRICES.keys())
def test_tail_envelope_brute_force(m):
    """For 200 generations past the first cut whose rate is below 1, the
    iterates stay under ``s rate**(k - K) v``, ``e^g - 1 <= delta g``,
    and the matrix powers under ``rho_v**k v_z / v_i``."""
    cert = hm.contraction_certificate(m)
    v, rho_v = _perron_weights(m, cert.rho)
    assert np.all(v > 0.0) and np.max(v) == 1.0
    assert cert.rho <= rho_v * (1.0 + 1e-12) and rho_v < 1.0
    assert np.all(m @ v <= rho_v * v)
    k_cut = 8
    iters = hm.branching._g_iterates(m, cert.u, k_cut + 200)
    s, delta, rate = _tail_rate(v, rho_v, iters[k_cut])
    while rate >= 1.0:
        k_cut += 8
        iters = hm.branching._g_iterates(m, cert.u, k_cut + 200)
        s, delta, rate = _tail_rate(v, rho_v, iters[k_cut])
    power = np.linalg.matrix_power(m, k_cut)
    for j in range(201):
        g = iters[k_cut + j]
        assert np.all(g <= s * rate**j * v)
        assert np.all(np.expm1(g) <= delta * g)
        assert np.all(power <= rho_v ** (k_cut + j) * np.outer(v, 1.0 / v))
        power = power @ m


class TestMixingBound:
    def test_truncation_dominates_a_longer_sum(self):
        """On 20 seeded random models, the finite generation sum at the
        first cut where the tail series contract, plus its certified
        truncation, dominates the finite sum at four times that cut."""
        rng = np.random.default_rng(67)
        for _ in range(20):
            model, beta, gamma = random_mixing_model(rng)
            rep = hm.mixing_bound(model, beta, gamma, [1.0])
            pair = (1.0 + beta) / (beta - gamma)
            terms = ((rep.p, rep.c1_p), (rep.q, rep.c1_q),
                     (pair, rep.c1_pair))
            k_cut = max(rep.cert.k0 + 1, 8)
            while True:
                try:
                    finite, truncation = _assemble(model, rep.cert, gamma,
                                                   terms, k_cut)
                    break
                except NumericError:
                    k_cut = int(1.5 * k_cut)
            longer, _ = _assemble(model, rep.cert, gamma, terms, 4 * k_cut)
            assert truncation > 0.0
            assert finite <= longer <= finite + truncation

    def test_gamma_near_beta_converges(self):
        """20 seeded random models with ``gamma`` in ``(0.6 beta, 0.9
        beta)`` converge, and the finite sum at each cut plus its
        truncation dominates the finite sum at four times the cut."""
        rng = np.random.default_rng(67)
        for _ in range(20):
            model, beta, gamma = random_mixing_model(rng, share=(0.6, 0.9))
            rep = hm.mixing_bound(model, beta, gamma, [1.0])
            finite, truncation = _assemble(model, rep.cert, gamma,
                                           _terms(rep), rep.generations)
            longer, _ = _assemble(model, rep.cert, gamma, _terms(rep),
                                  4 * rep.generations)
            assert finite <= longer <= finite + truncation
            assert rep.truncation[0] / rep.bounds[0] == pytest.approx(
                truncation / (finite + truncation), rel=1e-12)

    def test_exponents_near_each_other_converge(self):
        """rho = 0.7 at beta 1.4, gamma 1.2 needs the tail to decay at
        the rate of the iterates; at the contraction rate it passed the
        4000-generation cap."""
        model = hm.HawkesModel([1.0], [[hm.ExponentialKernel(0.7, 1.0)]])
        rep = hm.mixing_bound(model, 1.4, 1.2, [10.0])
        assert np.isfinite(rep.bounds[0]) and rep.bounds[0] > 0.0
        assert rep.truncation[0] <= 0.005 * rep.bounds[0]
        assert rep.generations < 4000

    def test_cap_names_last_cut_and_rate(self, monkeypatch):
        model = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])
        monkeypatch.setattr(hm.branching, "_MAX_GENERATIONS", 40)
        with pytest.raises(NumericError, match="at the last cut, 40 "
                           "generations, the iterate tail rate is 0.4"):
            hm.mixing_bound(model, 1.4, 0.5, [8.0])

    def test_bench_model_cut_and_memory(self):
        """The power-law model of the benchmark (rho = 0.4) takes at most
        64 generations, and its bound allocates under 1 MB at its peak."""
        model = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])
        tracemalloc.start()
        try:
            rep = hm.mixing_bound(model, 1.4, 0.5,
                                  [8.0, 16.0, 32.0, 64.0, 128.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.generations <= 64
        assert peak < 1e6

    def test_pure_power_shape(self, d1_model):
        """The lag enters only through tau^(-gamma)."""
        rep = hm.mixing_bound(d1_model, 1.0, 0.5, [8.0, 16.0, 32.0, 64.0])
        ratios = rep.bounds[:-1] / rep.bounds[1:]
        assert np.allclose(ratios, 2.0**0.5, rtol=1e-12)

    def test_truncation_certified_small(self, d2_model):
        rep = hm.mixing_bound(d2_model, 2.0, 1.0, [10.0])
        assert rep.truncation[0] < 0.01 * rep.bounds[0]
        assert rep.truncation[0] > 0.0

    def test_exponent_bookkeeping(self, d1_model):
        rep = hm.mixing_bound(d1_model, 3.0, 1.0, [4.0])
        assert rep.p == pytest.approx(2.0 * 4.0 / 2.0)
        assert rep.r == pytest.approx(2.0)
        assert rep.nu == pytest.approx(
            d1_model.delay_moment(4.0), rel=1e-12
        )

    def test_bounds_decrease_with_lag(self, d2_model):
        rep = hm.mixing_bound(d2_model, 1.5, 0.7, [5.0, 10.0, 50.0])
        assert np.all(np.diff(rep.bounds) < 0.0)

    def test_inadmissible_exponents(self, d1_model):
        with pytest.raises(HypothesisError):
            hm.mixing_bound(d1_model, 1.0, 1.0, [10.0])
        with pytest.raises(HypothesisError):
            hm.mixing_bound(d1_model, 1.0, 1.5, [10.0])

    def test_missing_moment(self):
        model = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])
        with pytest.raises(InfiniteMomentError):
            hm.mixing_bound(model, 1.6, 0.5, [10.0])

    def test_heavy_tail_model_runs(self):
        model = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])
        rep = hm.mixing_bound(model, 1.4, 0.5, [8.0, 16.0])
        assert rep.bounds[0] / rep.bounds[1] == pytest.approx(2.0**0.5, rel=1e-12)

    def test_report_serializable(self, d1_model):
        import json

        rep = hm.mixing_bound(d1_model, 1.0, 0.5, [8.0])
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["gamma"] == 0.5

    def test_lag_validation(self, d1_model):
        with pytest.raises(ValueError):
            hm.mixing_bound(d1_model, 1.0, 0.5, [])
        with pytest.raises(ValueError):
            hm.mixing_bound(d1_model, 1.0, 0.5, [0.0])

    def test_nan_lag_refused(self, d1_model):
        with pytest.raises(ValueError, match="lags must be nonempty and "
                                             "strictly positive"):
            hm.mixing_bound(d1_model, 1.0, 0.5, [np.nan])


class TestSimulateGenerations:
    def test_shapes_and_root(self):
        runs = hm.simulate_generations(M2, 1, 4, 50, seed=0)
        assert runs.shape == (50, 5, 2)
        assert np.all(runs[:, 0, 1] == 1)
        assert np.all(runs[:, 0, 0] == 0)

    def test_mean_generation_sizes(self):
        runs = hm.simulate_generations(M2, 0, 3, 200_000, seed=31)
        for k in range(4):
            expect = np.linalg.matrix_power(M2, k)[0]
            got = runs[:, k, :].mean(axis=0)
            se = runs[:, k, :].std(axis=0, ddof=1) / np.sqrt(runs.shape[0])
            assert np.all(np.abs(got - expect) <= 3.5 * se + 1e-12)

    def test_deterministic(self):
        a = hm.simulate_generations(M2, 0, 5, 100, seed=9)
        b = hm.simulate_generations(M2, 0, 5, 100, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k_max, n_runs, name", [
        (-1, 5, "k_max"), (2.5, 5, "k_max"), (3, -5, "n_runs"),
        (3, 5.0, "n_runs"),
    ])
    def test_bad_counts_refused(self, k_max, n_runs, name):
        with pytest.raises(ValueError, match=name):
            hm.simulate_generations(M2, 0, k_max, n_runs, seed=1)

    def test_extinction_under_subcriticality(self):
        runs = hm.simulate_generations(np.array([[0.3]]), 0, 25, 20_000, seed=2)
        assert runs[:, 25, 0].mean() < 1e-3
