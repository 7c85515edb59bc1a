"""Model assembly, spectral radius, and stationarity checks."""

import json

import numpy as np
import pytest

import hawkesmix as hm
from hawkesmix.errors import (ConfigError, InfiniteMomentError,
                              NumericError, SubcriticalityError)


class TestSpectralRadius:
    def test_reference_matrix(self):
        m = np.array([[0.5, 0.3], [0.2, 0.4]])
        assert hm.spectral_radius(m) == pytest.approx(0.7, abs=1e-9)

    def test_zero_matrix(self):
        assert hm.spectral_radius(np.zeros((3, 3))) == 0.0

    def test_scaled_identity(self):
        assert hm.spectral_radius(0.6 * np.eye(4)) == pytest.approx(0.6, rel=1e-9)

    def test_against_dense_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.uniform(0.0, 0.4, size=(4, 4))
            ref = np.max(np.abs(np.linalg.eigvals(m)))
            assert hm.spectral_radius(m) == pytest.approx(ref, rel=1e-8)

    def test_imprimitive_six_by_six(self):
        # bipartite: the dominant eigenvalues +-sqrt(0.54) share one modulus,
        # which stalls power iteration
        m = np.zeros((6, 6))
        m[:3, 3:] = 0.3
        m[3:, :3] = 0.2
        assert hm.spectral_radius(m) == pytest.approx(np.sqrt(0.54), rel=1e-12)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            hm.spectral_radius(np.array([[0.1, -0.2], [0.0, 0.3]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            hm.spectral_radius(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            hm.spectral_radius(np.array([[0.5, bad], [0.1, 0.2]]))


class TestHawkesModel:
    def test_reproduction_matrix(self, d2_model):
        expect = np.array([[0.5, 0.3], [0.2, 0.4]])
        assert np.allclose(d2_model.reproduction, expect, atol=0.0)

    def test_rho(self, d2_model):
        assert d2_model.rho == pytest.approx(0.7, abs=1e-9)

    def test_mean_intensity_d1(self, d1_model):
        # eta / (1 - alpha) = 1 / 0.5
        assert d1_model.mean_intensity == pytest.approx([2.0], rel=1e-12)

    def test_mean_intensity_d2(self, d2_model):
        assert d2_model.mean_intensity == pytest.approx(
            [10.0 / 3.0, 10.0 / 3.0], rel=1e-12
        )

    def test_mean_intensity_free_poisson(self, poisson2_model):
        assert np.array_equal(poisson2_model.mean_intensity, [1.0, 1.0])

    def test_mean_intensity_neumann_series(self, d2_model):
        """The stationary rates equal sum_k (M^T)^k eta."""
        mt = d2_model.reproduction.T
        acc = np.zeros(2)
        term = d2_model.eta.copy()
        for _ in range(2000):
            acc += term
            term = mt @ term
        assert d2_model.mean_intensity == pytest.approx(acc, rel=1e-10)

    def test_validate_summary(self, d2_model):
        s = d2_model.validate(beta=3.0)
        assert s.rho == pytest.approx(0.7, abs=1e-9)
        assert s.mean_intensity == pytest.approx([10.0 / 3.0, 10.0 / 3.0])
        payload = json.dumps(s.to_dict())
        assert "reproduction" in payload

    def test_supercritical_rejected(self):
        model = hm.HawkesModel([1.0], [[hm.ExponentialKernel(1.2, 2.0)]])
        with pytest.raises(SubcriticalityError, match="stationary"):
            model.validate()
        with pytest.raises(SubcriticalityError):
            model.mean_intensity

    def test_critical_boundary_rejected(self):
        model = hm.HawkesModel([1.0], [[hm.ExponentialKernel(1.0, 2.0)]])
        with pytest.raises(SubcriticalityError):
            model.validate()

    def test_moment_hypothesis(self):
        model = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])
        model.validate(beta=1.4)
        with pytest.raises(InfiniteMomentError):
            model.validate(beta=1.5)

    def test_delay_moment_is_worst_case(self, d2_model):
        # kernel means: 1/2, 1, 1/2 (uniform a=1), 1/3
        assert d2_model.delay_moment(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_delay_moment_skips_zero_kernels(self, poisson2_model):
        assert poisson2_model.delay_moment(4.0) == 0.0

    def test_active_lists_the_kernels_with_mass(self, mixed_model):
        k = mixed_model.kernels
        assert mixed_model.active == (((0, k[0][0]),), ((0, k[1][0]),))
        # only the two kernels with mass count; the zero kernel's moment()
        # would raise
        for p in (1.0, 4.0):
            assert mixed_model.delay_moment(p) == max(k[0][0].moment(p),
                                                      k[1][0].moment(p))
        mixed_model.validate(beta=3.0)

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            hm.HawkesModel([1.0, 0.0], hm.zero_coupling(2))
        with pytest.raises(ValueError):
            hm.HawkesModel([], [])

    def test_nonfinite_eta_rejected(self):
        with pytest.raises(ConfigError, match="expected a finite number") as exc:
            hm.HawkesModel([np.nan], [[hm.ZeroKernel()]])
        assert exc.value.pointer == "/eta/0"

    def test_nonfinite_alpha_rejected(self):
        with pytest.raises(ConfigError, match="expected a finite number") as exc:
            hm.HawkesModel([1.0], [[hm.ExponentialKernel(np.nan, 1.0)]])
        assert exc.value.pointer == "/alpha"

    def test_flat_kernel_array_rejected(self):
        with pytest.raises(ConfigError, match="expected an array") as exc:
            hm.HawkesModel([1.0], [hm.ZeroKernel()])
        assert exc.value.pointer == "/kernels/0"

    def test_validate_beta_must_be_positive(self, d2_model):
        with pytest.raises(ValueError, match="beta must be > 0"):
            d2_model.validate(-0.5)

    def test_validate_beta_must_be_finite(self, d2_model):
        # an exponential moment of infinite order would read inf / inf = nan
        with pytest.raises(ValueError, match="beta must be finite, got inf"):
            d2_model.validate(np.inf)

    def test_moment_beyond_float_range_is_a_numeric_error(self, d1_model):
        with pytest.raises(NumericError, match="order 301.0 exceeds"):
            d1_model.validate(300.0)
        with pytest.raises(NumericError, match="order 301.0 exceeds"):
            hm.mixing_bound(d1_model, 300.0, 0.5, [4.0])

    def test_bad_kernel_shape(self):
        with pytest.raises(ValueError):
            hm.HawkesModel([1.0, 1.0], [[hm.ZeroKernel()]])

    def test_bad_kernel_type(self):
        with pytest.raises(TypeError):
            hm.HawkesModel([1.0], [[0.5]])


class TestSerialization:
    def test_round_trip(self, d2_model, tmp_path):
        path = tmp_path / "model.json"
        d2_model.save(path)
        loaded = hm.load_model(path)
        assert loaded.eta == pytest.approx(d2_model.eta)
        assert loaded.kernels == d2_model.kernels

    def test_rejects_extra_fields(self):
        with pytest.raises(ValueError, match="fields"):
            hm.model_from_dict({"eta": [1.0], "kernels": [[{"family": "zero"}]],
                                "note": "x"})

    @pytest.mark.parametrize("value", ["fast", True, float("nan"), float("inf")])
    def test_kernel_field_pointer(self, value):
        spec = {"eta": [1.0, 1.0],
                "kernels": [[{"family": "zero"}, {"family": "zero"}],
                            [{"family": "zero"},
                             {"family": "exponential", "alpha": 0.5,
                              "beta": value}]]}
        with pytest.raises(ConfigError) as info:
            hm.model_from_dict(spec)
        assert info.value.pointer == "/kernels/1/1/beta"
        assert str(info.value).startswith("config invalid at /kernels/1/1/beta:")

    def test_zero_coupling_shape(self):
        grid = hm.zero_coupling(3)
        assert len(grid) == 3 and all(len(row) == 3 for row in grid)
        assert all(isinstance(k, hm.ZeroKernel) for row in grid for k in row)
