"""Exact second-order statistics of exponential models, as an oracle for the
certified quadratures of ``spectrum``.

An exponential Hawkes process is Markov in one state per kernel with mass:
state ``k`` of kernel ``i -> j`` obeys ``dx_k = -beta_k x_k dt + dN_i`` and
adds ``alpha_k beta_k x_k`` to the intensity of ``j``.  With
``M = diag(-beta)``, ``B[k, i] = 1``, ``C[j, k] = alpha_k beta_k`` and
``Mc = M + B C``, the state covariance ``P`` solves ``Mc P + P Mc^T +
B D B^T = 0`` for ``D = diag(m)``, and the covariance density is
``c(tau) = C e^{Mc tau} K`` with ``K = B D + P C^T`` for ``tau > 0``,
``c(-tau) = c(tau)^T``: entry ``(j, i)`` is ``Cov(dN_j(u + tau),
dN_i(u)) / du^2``.  Its double integrals over windows, plain or against
lines ``e^{2 i pi nu s}``, are closed forms in ``Mc``.
"""

import numpy as np
import pytest
from scipy import linalg

import hawkesmix as hm
from test_spectrum import clt_exp_model, random_trigpoly


def wave_integral(omega: float, t: float) -> complex:
    """``int_0^t e^{i omega u} du``."""
    return t if omega == 0.0 else (np.exp(1j * omega * t) - 1.0) / (1j * omega)


class Oracle:
    """Closed-form covariances of an exponential model."""

    def __init__(self, model: hm.HawkesModel):
        states = [(i, j, k) for i in range(model.d) for j in range(model.d)
                  if (k := model.kernels[i][j]).alpha > 0.0]
        n = len(states)
        b = np.zeros((n, model.d))
        c = np.zeros((model.d, n))
        for s, (i, j, k) in enumerate(states):
            b[s, i] = 1.0
            c[j, s] = k.alpha * k.beta
        self.mc = -np.diag([k.beta for _, _, k in states]) + b @ c
        self.m = model.mean_intensity
        d = np.diag(self.m)
        p = linalg.solve_continuous_lyapunov(self.mc, -b @ d @ b.T)
        self.c, self.k = c, b @ d + p @ c.T

    def _upper(self, nu_a: float, nu_b: float, t: float) -> np.ndarray:
        """``int int_{0 < u < s < t} e^{2 i pi (nu_a s - nu_b u)} c(s - u)
        ds du``: inner ``C A_a^-1 (e^{A_a (t - u)} - I) K`` with ``A =
        Mc + 2 i pi nu``, then the outer integral in ``u``."""
        eye = np.eye(self.mc.shape[0])
        a_a = self.mc + 2j * np.pi * nu_a * eye
        a_b = self.mc + 2j * np.pi * nu_b * eye
        omega = 2.0 * np.pi * (nu_a - nu_b)
        grow = np.exp(2j * np.pi * nu_a * t) * linalg.expm(self.mc * t)
        inner = (np.linalg.solve(a_b, grow - np.exp(1j * omega * t) * eye)
                 - wave_integral(omega, t) * eye)
        return self.c @ np.linalg.solve(a_a, inner) @ self.k

    def variance(self, coef: np.ndarray, nu: np.ndarray, t: float) -> float:
        """``Var(sum_i int_0^t f_i dN_i)`` for real weights ``f_i(s) =
        sum_a coef[i, a] e^{2 i pi nu_a s}``."""
        total = 0.0
        for a, nu_a in enumerate(nu):
            for b, nu_b in enumerate(nu):
                # s > u, then s < u through c(-tau) = c(tau)^T
                pair = (self._upper(nu_a, nu_b, t)
                        + self._upper(-nu_b, -nu_a, t).T)
                # and the jump part, sum_i m_i int_0^t f_i^2
                pair += np.diag(self.m) * wave_integral(
                    2.0 * np.pi * (nu_a - nu_b), t)
                total += coef[:, a] @ pair @ np.conj(coef[:, b])
        return float(np.real(total))

    def _antiderivative(self, tau: float) -> np.ndarray:
        """``F`` with ``F'' = c`` on both sides of 0 and ``F``, ``F'``
        continuous at 0."""
        inv = np.linalg.inv(self.mc)
        lower = self.k.T @ inv.T @ inv.T
        if tau <= 0.0:
            return lower @ linalg.expm(-self.mc.T * tau) @ self.c.T
        upper = self.c @ inv @ inv
        p0 = lower @ self.c.T - upper @ self.k
        p1 = -self.k.T @ inv.T @ self.c.T - self.c @ inv @ self.k
        return upper @ linalg.expm(self.mc * tau) @ self.k + p1 * tau + p0

    def cov_counts(self, i: int, j: int, window_a, window_b) -> float:
        """``Cov(N_i(A), N_j(B))``: ``m_i |A n B|`` when ``i = j`` plus
        ``int_A int_B c_ij(s - u) du ds``."""
        (a1, a2), (b1, b2) = window_a, window_b
        f = self._antiderivative
        double = f(a2 - b1) - f(a1 - b1) - f(a2 - b2) + f(a1 - b2)
        overlap = max(0.0, min(a2, b2) - max(a1, b1))
        return float(double[i, j] + (self.m[i] * overlap if i == j else 0.0))


def random_exponential_model(rng, d: int) -> hm.HawkesModel:
    """Exponential kernels, about one in five off-diagonal ones zero, a
    diagonal one always with mass, spectral radius 0.2-0.8 and rates
    0.3-5."""
    alphas = rng.uniform(0.05, 1.0, (d, d)) * (rng.random((d, d)) < 0.8)
    k = rng.integers(d)
    alphas[k, k] = rng.uniform(0.2, 1.0)
    alphas *= rng.uniform(0.2, 0.8) / hm.spectral_radius(alphas)
    return hm.HawkesModel(
        rng.uniform(0.5, 1.5, d),
        [[hm.ExponentialKernel(a, rng.uniform(0.3, 5.0)) if a > 0.0
          else hm.ZeroKernel() for a in row] for row in alphas])


def line_coefficients(components) -> tuple:
    """``(coef, nu)`` with ``f_i(s) = sum_a coef[i, a] e^{2 i pi nu_a s}``,
    from the parameters of constant and trigonometric weights."""
    terms = []
    for comp in components:
        if isinstance(comp, hm.ConstantF):
            terms.append({0.0: comp.k})
            continue
        lines = {0.0: comp.a0}
        for n, a in enumerate(comp.cos, start=1):
            for sign in (1, -1):
                nu = sign * n / comp.period
                lines[nu] = lines.get(nu, 0.0) + 0.5 * a
        for n, b in enumerate(comp.sin, start=1):
            for sign in (1, -1):
                nu = sign * n / comp.period
                lines[nu] = lines.get(nu, 0.0) - 0.5j * sign * b
        terms.append(lines)
    nu = np.array(sorted(set().union(*terms)))
    coef = np.array([[t.get(x, 0.0) for x in nu] for t in terms],
                    dtype=complex)
    return coef, nu


class TestOracle:
    """The closed forms against each other and the d = 1 formula."""

    def test_d1_closed_form(self, d1_model):
        oracle = Oracle(d1_model)
        for t in (0.3, 2.0, 40.0):
            exact = 8.0 * t - 6.0 + 6.0 * np.exp(-t)
            assert oracle.variance(np.ones((1, 1)), np.zeros(1), t) == (
                pytest.approx(exact, rel=1e-12))
            assert oracle.cov_counts(0, 0, (0.0, t), (0.0, t)) == (
                pytest.approx(exact, rel=1e-12))

    @pytest.mark.parametrize("seed", range(4))
    def test_count_variance_two_ways(self, seed):
        """``Var(N_i(0, t) + N_j(0, t))`` from the count covariances and
        from the constant weight ``1_i + 1_j``."""
        rng = np.random.default_rng([53, seed])
        d = 3
        oracle = Oracle(random_exponential_model(rng, d))
        t = rng.uniform(0.5, 20.0)
        i, j = rng.choice(d, 2, replace=False)
        coef = np.zeros((d, 1))
        coef[[i, j], 0] = 1.0
        counts = sum(oracle.cov_counts(a, b, (0.0, t), (0.0, t))
                     for a in (i, j) for b in (i, j))
        assert oracle.variance(coef, np.zeros(1), t) == pytest.approx(
            counts, rel=1e-11)


class TestCertifiedAgainstOracle:
    """Seeded random exponential models, d <= 3: every certified value
    within its tolerance of the closed form."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cov_counts(self, seed):
        rng = np.random.default_rng([59, seed])
        d = 1 + seed % 3
        model = random_exponential_model(rng, d)
        oracle = Oracle(model)
        rel_tol, abs_tol = 1e-5, 1e-8
        lo = rng.uniform(0.0, 5.0)
        window_a = (lo, lo + rng.uniform(0.5, 3.0))
        lo = window_a[1] + rng.uniform(-2.0, 10.0)
        window_b = (lo, lo + rng.uniform(0.5, 3.0))
        for i in range(d):
            for j in range(d):
                got = hm.cov_counts(model, i, j, window_a, window_b,
                                    rel_tol=rel_tol, abs_tol=abs_tol)
                exact = oracle.cov_counts(i, j, window_a, window_b)
                assert abs(got - exact) <= rel_tol * abs(exact) + abs_tol

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-6])
    @pytest.mark.parametrize("seed", range(6))
    def test_constant_profile(self, seed, rel_tol):
        rng = np.random.default_rng([61, seed])
        d = 1 + seed % 3
        model = random_exponential_model(rng, d)
        k = rng.uniform(0.3, 1.5, d) * rng.choice([-1.0, 1.0], d)
        ts = np.geomspace(0.05, 2000.0, 9)
        got = hm.variance_profile(model, hm.TestFunction.constant(k), ts,
                                  rel_tol=rel_tol)
        oracle = Oracle(model)
        exact = [oracle.variance(k[:, None].astype(complex), np.zeros(1), t)
                 for t in ts]
        assert np.all(np.abs(got / exact - 1.0) <= rel_tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_trigonometric_profile(self, seed):
        """Trigonometric weights with a constant mixed in."""
        rng = np.random.default_rng([67, seed])
        d = 1 + seed % 3
        model = random_exponential_model(rng, d)
        comps = [random_trigpoly(rng) for _ in range(d)]
        if d > 1:
            comps[rng.integers(d)] = hm.ConstantF(rng.uniform(0.3, 1.5))
        rel_tol = 1e-6
        ts = np.array([2.0, 20.0, 200.0])
        got = hm.variance_profile(model, hm.TestFunction(comps), ts,
                                  rel_tol=rel_tol)
        oracle = Oracle(model)
        coef, nu = line_coefficients(comps)
        exact = [oracle.variance(coef, nu, t) for t in ts]
        assert np.all(np.abs(got / exact - 1.0) <= rel_tol)

    def test_profile_at_horizon_1e12(self):
        """Geometric tail bands reach from the head at ``5 / T`` to the
        memory scale in ``log2 T`` steps, so even ``T = 1e12`` converges."""
        model = clt_exp_model()
        got = hm.variance_ST(model, hm.TestFunction.constant([1.0, 1.0]),
                             1e12)
        exact = Oracle(model).variance(np.ones((2, 1)), np.zeros(1), 1e12)
        assert abs(got / exact - 1.0) <= 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_periodic_slope(self, seed):
        """The long-run slope of trigonometric weights with one period,
        against the exact variance growth over one period long after the
        exponential transient.  The one-period window transform of a line
        vanishes at every other multiple of ``1 / period``, so the
        truncated terms are 0 and only rounding is left."""
        rng = np.random.default_rng([71, seed])
        d = 2 + seed % 2
        model = random_exponential_model(rng, d)
        period = rng.uniform(2.0, 10.0)
        comps = [hm.TrigPolyF(period, rng.uniform(0.5, 1.5),
                              list(rng.normal(0.0, 0.5, 2)),
                              list(rng.normal(0.0, 0.5, 2)))
                 for _ in range(d)]
        got = hm.asymptotic_variance_periodic(model, hm.TestFunction(comps),
                                              period)
        oracle = Oracle(model)
        coef, nu = line_coefficients(comps)
        t = 1e4 * period
        exact = (oracle.variance(coef, nu, t + period)
                 - oracle.variance(coef, nu, t)) / period
        assert got.value == pytest.approx(exact, rel=1e-9)
