"""Centered statistics, the time change, and the Monte Carlo harnesses."""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

import hawkesmix as hm
from hawkesmix import stats
from hawkesmix.errors import (HypothesisError, InfiniteMomentError,
                              NumericError)


def hand_log() -> hm.EventLog:
    return hm.EventLog(
        d=2,
        horizon=10.0,
        events=(
            np.array([0.5, 2.0, 7.25]),
            np.array([4.0]),
        ),
    )


class TestPartialStatistics:
    def test_hand_computed_values(self, d2_model):
        log = hand_log()
        f = hm.TestFunction.constant([1.0, 2.0])
        m = d2_model.mean_intensity  # (10/3, 10/3)
        ts = np.array([1.0, 4.0, 10.0])
        got = hm.partial_statistics(log, d2_model, f, ts)
        counts1 = np.array([1.0, 2.0, 3.0])
        counts2 = np.array([0.0, 1.0, 1.0])
        expect = counts1 + 2.0 * counts2 - (m[0] + 2.0 * m[1]) * ts
        assert np.allclose(got, expect, atol=1e-12)

    def test_empty_log_pure_drift(self, d2_model):
        log = hm.EventLog(d=2, horizon=5.0,
                          events=(np.array([]), np.array([])))
        f = hm.TestFunction.constant([1.0, 1.0])
        got = hm.statistic_ST(log, d2_model, f, 5.0)
        assert got == pytest.approx(-float(np.sum(d2_model.mean_intensity)) * 5.0)

    def test_indicator_weight_counts_window(self, d2_model):
        log = hand_log()
        f = hm.TestFunction([hm.IndicatorF(1.0, 3.0), hm.ConstantF(0.0)])
        got = hm.statistic_ST(log, d2_model, f, 10.0)
        assert got == pytest.approx(1.0 - d2_model.mean_intensity[0] * 2.0)

    def test_centering_unbiased(self, d2_model):
        f = hm.TestFunction.constant([1.0, 1.0])
        vals = []
        for ss in hm.spawn_seeds(77, 400):
            log = hm.simulate(d2_model, 50.0, seed=ss)
            vals.append(hm.statistic_ST(log, d2_model, f, 50.0))
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean()) < 3.5 * se

    def test_horizon_checked(self, d2_model):
        log = hand_log()
        f = hm.TestFunction.constant([1.0, 1.0])
        with pytest.raises(ValueError):
            hm.partial_statistics(log, d2_model, f, [20.0])


class TestTimeChange:
    def test_poisson_ratio_is_linear(self, poisson2_model):
        f = hm.TestFunction.constant([1.0, 1.0])
        tc = hm.time_change(poisson2_model, f, 100.0)
        u = np.array([0.1, 0.25, 0.5, 0.9])
        assert np.allclose(tc(u), u * 100.0, rtol=1e-6, atol=0.2)

    def test_endpoint_exact(self, d1_model):
        f = hm.TestFunction.constant([1.0])
        tc = hm.time_change(d1_model, f, 37.0)
        assert tc(1.0) == pytest.approx(37.0, abs=0.0)

    def test_values_on_grid_and_monotone(self, d2_model):
        f = hm.TestFunction.constant([1.0, 0.5])
        tc = hm.time_change(d2_model, f, 60.0, grid_step=0.5)
        u = np.linspace(0.05, 1.0, 20)
        v = tc(u)
        assert np.all(np.diff(v) >= 0.0)
        assert np.all(np.isin(v, tc.ts))

    def test_ratio_inversion(self, d1_model):
        """v_T(sigma_t^2 / sigma_T^2) recovers t up to one grid step."""
        f = hm.TestFunction.constant([1.0])
        tc = hm.time_change(d1_model, f, 50.0, grid_step=0.05)
        idx = [100, 400, 700]
        u = tc.sigma2[idx] / tc.sigma_T2
        assert np.allclose(tc(u), tc.ts[idx], atol=0.05 + 1e-9)

    def test_nonmonotone_profile_rejected(self):
        with pytest.raises(NumericError):
            hm.TimeChange(np.array([1.0, 2.0, 3.0]),
                          np.array([1.0, 3.0, 2.0]))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            hm.TimeChange(np.array([1.0, 2.0]), np.array([-1.0, 0.0]))

    def test_grid_step_validated(self, d1_model):
        f = hm.TestFunction.constant([1.0])
        with pytest.raises(ValueError):
            hm.time_change(d1_model, f, 10.0, grid_step=11.0)

    @pytest.mark.parametrize("step", [1e-300, 9.9e-6])
    def test_oversized_grid_refused(self, d1_model, step, monkeypatch):
        def no_spectral_work(*args, **kwargs):
            raise AssertionError("variance profile reached")

        monkeypatch.setattr(stats, "variance_profile", no_spectral_work)
        f = hm.TestFunction.constant([1.0])
        with pytest.raises(ValueError, match="grid_step"):
            hm.time_change(d1_model, f, 10.0, grid_step=step)


class TestPathSample:
    def test_shapes_and_scaling(self, d1_model):
        f = hm.TestFunction.constant([1.0])
        tc = hm.time_change(d1_model, f, 30.0)
        log = hm.simulate(d1_model, 30.0, seed=3)
        ps = hm.path_sample(log, d1_model, f, tc, [0.25, 0.5, 1.0])
        assert ps.values.shape == (3,)
        assert ps.sigma_T == pytest.approx(np.sqrt(tc.sigma_T2))
        direct = hm.statistic_ST(log, d1_model, f, 30.0) / ps.sigma_T
        assert ps.values[-1] == pytest.approx(direct, rel=1e-12)
        payload = json.dumps(ps.to_dict())
        assert "sigma_T" in payload


@pytest.fixture(scope="module")
def small_report(d2_model):
    f = hm.TestFunction.constant([1.0, 1.0])
    return hm.clt_harness(d2_model, f, horizon=200.0, replicates=60,
                          seed=14, grid=[0.5, 1.0])


class TestCltHarness:
    def test_report_contents(self, small_report):
        rep = small_report
        assert rep.replicates == 60
        assert rep.samples.shape == (60,)
        assert rep.w_paths.shape == (60, 2)
        assert rep.w_cov.shape == (2, 2)
        assert rep.cov_target[0, 0] == 0.5
        assert 0.0 <= rep.ks_stat <= 1.0
        assert isinstance(rep.passed, bool)

    def test_json_round_trip(self, small_report):
        payload = json.loads(json.dumps(small_report.to_dict()))
        assert payload["replicates"] == 60
        assert set(payload["flags"]) == {
            "normal_ks", "brownian_cov", "unit_variance"
        }

    def test_deterministic(self, d2_model, small_report):
        f = hm.TestFunction.constant([1.0, 1.0])
        again = hm.clt_harness(d2_model, f, horizon=200.0, replicates=60,
                               seed=14, grid=[0.5, 1.0])
        assert again.to_dict() == small_report.to_dict()

    def test_moment_condition_enforced(self, d2_model):
        f = hm.TestFunction.constant([1.0, 1.0])
        with pytest.raises(HypothesisError):
            hm.clt_harness(d2_model, f, 100.0, 20, seed=1,
                           beta=2.0, delta=2.0)

    def test_replicate_floor(self, d2_model):
        f = hm.TestFunction.constant([1.0, 1.0])
        with pytest.raises(ValueError):
            hm.clt_harness(d2_model, f, 100.0, 5, seed=1)

    def test_delta_must_be_positive(self, d2_model):
        # (beta - 1) * delta > 2 alone would admit beta < 1 with delta < 0
        f = hm.TestFunction.constant([1.0, 1.0])
        with pytest.raises(ValueError, match="delta must be > 0"):
            hm.clt_harness(d2_model, f, 100.0, 20, seed=1, beta=0.5,
                           delta=-10.0)

    @pytest.mark.parametrize("level", [0.0, 1.5])
    def test_level_inside_unit_interval(self, d2_model, level):
        f = hm.TestFunction.constant([1.0, 1.0])
        with pytest.raises(ValueError, match="level must lie in"):
            hm.clt_harness(d2_model, f, 100.0, 20, seed=1, level=level)

    def test_grid_validated(self, d2_model):
        f = hm.TestFunction.constant([1.0, 1.0])
        with pytest.raises(ValueError):
            hm.clt_harness(d2_model, f, 100.0, 20, seed=1, grid=[0.0, 1.0])
        with pytest.raises(ValueError):
            hm.clt_harness(d2_model, f, 100.0, 20, seed=1, grid=[0.5, 1.5])


class TestDecayDiagnostic:
    def test_poisson_covariances_vanish(self, poisson2_model):
        rep = hm.mixing_decay_diagnostic(poisson2_model, 0, 1, 1.0,
                                         [3.0, 6.0], replicates=800, seed=6)
        assert np.allclose(rep.spectral, 0.0, atol=1e-12)
        assert np.all(np.abs(rep.empirical) < 4.0 * rep.empirical_se + 1e-9)
        assert rep.bound is None

    def test_d1_empirical_matches_spectral(self, d1_model):
        rep = hm.mixing_decay_diagnostic(d1_model, 0, 0, 1.0, [2.0],
                                         replicates=3000, seed=21)
        assert abs(rep.empirical[0] - rep.spectral[0]) < 4.0 * rep.empirical_se[0]

    def test_bound_block_attached(self, d1_model):
        rep = hm.mixing_decay_diagnostic(d1_model, 0, 0, 1.0, [3.0, 5.0],
                                         replicates=50, seed=2,
                                         beta=1.0, gamma=0.5)
        assert rep.bound is not None
        assert np.all(rep.bound > 0.0)
        assert rep.mixing.gamma == 0.5
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["mixing"]["gamma"] == 0.5

    @pytest.mark.parametrize("given", [{"beta": 1.0}, {"gamma": 0.5}])
    def test_bound_needs_both_exponents(self, d1_model, given):
        with pytest.raises(ValueError, match="needs both beta and gamma"):
            hm.mixing_decay_diagnostic(d1_model, 0, 0, 1.0, [3.0],
                                       replicates=20, seed=1, **given)

    def test_replicate_floor(self, d1_model):
        with pytest.raises(ValueError, match="at least 10 replicates"):
            hm.mixing_decay_diagnostic(d1_model, 0, 0, 1.0, [3.0],
                                       replicates=3, seed=0)

    def test_lag_validation(self, d1_model):
        with pytest.raises(ValueError):
            hm.mixing_decay_diagnostic(d1_model, 0, 0, 2.0, [1.0],
                                       replicates=50, seed=0)
        with pytest.raises(ValueError):
            hm.mixing_decay_diagnostic(d1_model, 0, 0, -1.0, [3.0],
                                       replicates=50, seed=0)

    def test_nan_window_refused_before_simulation(self, d1_model):
        # NaN fails every comparison with the lags, so it would otherwise
        # reach the first replicate as a NaN horizon
        with pytest.raises(ValueError, match="window length must be "
                                             "positive and finite, got nan"):
            hm.mixing_decay_diagnostic(d1_model, 0, 0, float("nan"), [3.0],
                                       replicates=20, seed=1)


POWERLAW = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])


def _batch_size(model, horizon):
    return stats._batch_size(model, horizon, hm.default_burn_in(model))


class TestReplicateBatches:
    def test_decay_row_matches_count(self):
        lags = np.array([2.0, 3.5, 6.0])
        row_ii = stats._decay_row(0, 0, 1.5, lags)
        row_ij = stats._decay_row(0, 1, 1.5, lags)
        edges = np.array([0.0, 1.5, 2.0, 3.5, 5.0, 6.0, 7.5])
        rng = np.random.default_rng(31)
        for _ in range(50):
            # random events plus a random subset of the window edges
            events = tuple(
                np.unique(np.concatenate([
                    rng.uniform(0.0, 7.5, rng.integers(0, 12)),
                    edges[rng.random(edges.size) < 0.5]]))
                for _ in range(2))
            log = hm.EventLog(2, 7.5, events)
            for row, j in ((row_ii, 0), (row_ij, 1)):
                want = [log.count(0, 0.0, 1.5)] + [
                    log.count(j, lag, lag + 1.5) for lag in lags]
                assert row(log).tolist() == want

    def test_batched_counts_match_spectral_values(self):
        """Window counts of batched replicates have the stationary mean and
        the spectral variance, and replicates sharing a batch are
        uncorrelated."""
        horizon, w, replicates = 11.0, 1.0, 4000
        size = _batch_size(POWERLAW, horizon)
        assert 1 < size < replicates // 10
        counts = stats._replicate_rows(
            POWERLAW, horizon, replicates, 12,
            lambda log: [log.count(0, 0.0, w)])[:, 0]

        def within(values, target):
            se = np.std(values, ddof=1) / np.sqrt(values.size)
            return abs(np.mean(values) - target) < 4.0 * se

        mean = POWERLAW.mean_intensity[0] * w
        var = hm.cov_counts(POWERLAW, 0, 0, (0.0, w), (0.0, w))
        assert within(counts, mean)
        assert within((counts - mean) ** 2, var)
        # neighbours inside one batch; the last of a batch starts the next
        dev = counts - mean
        same = (np.arange(replicates - 1) + 1) % size != 0
        assert within((dev[:-1] * dev[1:])[same], 0.0)

    def test_batched_cross_counts_match_spectral_values(self, d2_model):
        """The 2-d case, with the count pair ``N_0((0, w])`` and
        ``N_1((2, 2 + w])``: both have their stationary means and their
        covariance is the spectral one, and replicates sharing a batch are
        uncorrelated, within each component and across the two."""
        horizon, w, replicates = 3.0, 1.0, 4000
        size = _batch_size(d2_model, horizon)
        assert 1 < size < replicates // 10
        counts = stats._replicate_rows(
            d2_model, horizon, replicates, 12,
            stats._decay_row(0, 1, w, np.array([2.0])))

        def within(values, target):
            se = np.std(values, ddof=1) / np.sqrt(values.size)
            return abs(np.mean(values) - target) < 4.0 * se

        dev = counts - d2_model.mean_intensity * w
        assert within(dev[:, 0], 0.0) and within(dev[:, 1], 0.0)
        assert within(dev[:, 0] * dev[:, 1],
                      hm.cov_counts(d2_model, 0, 1, (0.0, w), (2.0, 2.0 + w)))
        # neighbours inside one batch; the last of a batch starts the next
        same = (np.arange(replicates - 1) + 1) % size != 0
        for a in range(2):
            for b in range(2):
                assert within((dev[:-1, a] * dev[1:, b])[same], 0.0)

    @pytest.mark.parametrize("batch_events", [1, stats._BATCH_EVENTS],
                             ids=["one", "default"])
    def test_clt_harness_is_a_loop_over_spawned_seeds(self, d1_model,
                                                      monkeypatch,
                                                      batch_events):
        """Replicates run in consecutive blocks of ``_batch_size``, and
        block ``k`` is one batch drawn from the ``k``-th stream spawned
        from the seed: by default here one block of all 12, and with
        blocks of one a stream per replicate."""
        monkeypatch.setattr(stats, "_BATCH_EVENTS", batch_events)
        size = _batch_size(d1_model, 60.0)
        if batch_events > 1:
            assert size > 12
        f = hm.TestFunction.constant([1.0])
        grid = [0.5, 1.0]
        rep = hm.clt_harness(d1_model, f, 60.0, 12, seed=5, grid=grid)
        tc = hm.time_change(d1_model, f, 60.0)
        times = np.append(tc(np.array(grid)), 60.0)
        burn_in = hm.default_burn_in(d1_model)
        blocks = [min(size, 12 - k) for k in range(0, 12, size)]
        manual = np.vstack([
            hm.partial_statistics(log, d1_model, f, times)
            for s, n in zip(hm.spawn_seeds(5, len(blocks)), blocks)
            for log in hm.simulate_cluster_batch(d1_model, 60.0, n,
                                                 burn_in=burn_in, seed=s)])
        assert np.array_equal(rep.samples, manual[:, -1] / rep.sigma_T)
        assert np.array_equal(rep.w_paths, manual[:, :-1] / rep.sigma_T)

    def test_decay_rows_pin_the_block_partition(self, monkeypatch):
        """The block partition is fixed by the model, horizon, burn-in,
        replicate count and block budget: 150 power-law replicates on
        ``[0, 5]`` expect ~297 events each, so at a budget of ``2**14``
        events they run as batches of 55, 55 and 40 replicates drawn from
        the first three streams spawned from the seed, and whatever the
        worker count."""
        monkeypatch.setattr(stats, "_BATCH_EVENTS", 1 << 14)
        calls = []
        batch = stats.simulate_cluster_batch

        def counted(model, horizon, replicates, *, burn_in, seed):
            calls.append((replicates, seed.spawn_key))
            return batch(model, horizon, replicates, burn_in=burn_in,
                         seed=seed)

        monkeypatch.setattr(stats, "simulate_cluster_batch", counted)
        args = (POWERLAW, 0, 0, 1.0, [2.0, 4.0], 150)
        hm.mixing_decay_diagnostic(*args, seed=2)
        assert calls == [(55, (0,)), (55, (1,)), (40, (2,))]

    def test_batch_size_floor(self, d2_model):
        """A batch holds at most ``_BATCH_EVENTS`` expected events, and a
        replicate expecting more than half of them runs alone."""
        b = hm.default_burn_in(d2_model)
        rate = float(np.sum(d2_model.mean_intensity))
        for size in (1, 2, 40):
            horizon = stats._BATCH_EVENTS / (size + 0.5) / rate - b
            assert stats._batch_size(d2_model, horizon, b) == size
        horizon = 2.0 * stats._BATCH_EVENTS / rate
        assert stats._batch_size(d2_model, horizon, b) == 1

    def test_decay_diagnostic_batches_simulator_calls(self, monkeypatch):
        calls = []
        batch = stats.simulate_cluster_batch

        def counted(*args, **kwargs):
            calls.append(args[2])
            return batch(*args, **kwargs)

        monkeypatch.setattr(stats, "simulate_cluster_batch", counted)
        replicates = 4000
        rep = hm.mixing_decay_diagnostic(POWERLAW, 0, 0, 1.0, [5.0, 10.0],
                                         replicates, seed=3)
        size = _batch_size(POWERLAW, 11.0)
        assert sum(calls) == replicates == rep.replicates
        assert len(calls) <= -(-replicates // size) + 1



def _three_cpus(monkeypatch):
    """Let the harnesses fork up to three processes on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def _count_parts(monkeypatch) -> list:
    """Record the number of parts of each forked replicate run."""
    parts = []
    forked = stats._forked

    def counted(work, chunks):
        parts.append(len(chunks))
        return forked(work, chunks)

    monkeypatch.setattr(stats, "_forked", counted)
    return parts


class TestReplicateWorkers:
    def test_clt_rows_independent_of_worker_count(self, d2_model,
                                                  monkeypatch):
        # several blocks at the budget of 2**14 events
        monkeypatch.setattr(stats, "_BATCH_EVENTS", 1 << 14)
        horizon, replicates = 400.0, 12
        assert -(-replicates // _batch_size(d2_model, horizon)) >= 3
        _three_cpus(monkeypatch)
        parts = _count_parts(monkeypatch)
        f = hm.TestFunction.constant([1.0, 1.0])
        reports = [hm.clt_harness(d2_model, f, horizon, replicates, seed=8,
                                  grid=[0.5, 1.0], workers=workers)
                   for workers in (1, 2, 3)]
        assert parts == [2, 3]
        for rep in reports[1:]:
            assert np.array_equal(rep.samples, reports[0].samples)
            assert np.array_equal(rep.w_paths, reports[0].w_paths)
            assert rep.to_dict() == reports[0].to_dict()

    def test_decay_rows_independent_of_worker_count(self, monkeypatch):
        monkeypatch.setattr(stats, "_BATCH_EVENTS", 1 << 14)
        args = (POWERLAW, 0, 0, 1.0, [2.0, 4.0], 150)
        assert -(-150 // _batch_size(POWERLAW, 5.0)) >= 3
        _three_cpus(monkeypatch)
        parts = _count_parts(monkeypatch)
        reports = [hm.mixing_decay_diagnostic(*args, seed=2, workers=workers)
                   for workers in (1, 2, 3)]
        assert parts == [2, 3]
        for rep in reports[1:]:
            assert np.array_equal(rep.empirical, reports[0].empirical)
            assert np.array_equal(rep.empirical_se, reports[0].empirical_se)

    def test_worker_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)))
        assert stats._worker_count(10_000, 5) == 5
        assert stats._worker_count(10_000, 500) == 64
        assert stats._worker_count(3, 500) == 3
        assert stats._worker_count(0, 500) == 1
        assert stats._worker_count(10_000, 1) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert stats._worker_count(10_000, 500) == 1
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)))
        monkeypatch.delattr(os, "fork")
        assert stats._worker_count(10_000, 500) == 1

    @pytest.mark.parametrize("bad,dies", [(2, False), (9, False), (9, True)],
                             ids=["parent-part", "child-part", "child-dies"])
    def test_worker_error_reaches_the_caller(self, d1_model, monkeypatch,
                                             bad, dies):
        """Replicates 0-5 run here and 6-11 in a forked child; an error in
        either part is raised with its type and message, a child that dies
        raises ``RuntimeError`` at once, and no worker is left running."""
        _three_cpus(monkeypatch)
        monkeypatch.setattr(stats, "_BATCH_EVENTS", 1)
        batch = stats.simulate_cluster_batch
        here = os.getpid()

        def failing(*args, seed, **kwargs):
            if seed.spawn_key == (bad,):
                if dies and os.getpid() != here:
                    os._exit(3)
                raise NumericError(f"replicate {bad} diverged")
            return batch(*args, seed=seed, **kwargs)

        monkeypatch.setattr(stats, "simulate_cluster_batch", failing)
        f = hm.TestFunction.constant([1.0])
        if dies:
            start = time.monotonic()
            with pytest.raises(RuntimeError):
                hm.clt_harness(d1_model, f, 20.0, 12, seed=1, workers=2)
            assert time.monotonic() - start < 30.0
            assert multiprocessing.active_children() == []
            return
        with pytest.raises(NumericError,
                           match=f"^replicate {bad} diverged$") as caught:
            hm.clt_harness(d1_model, f, 20.0, 12, seed=1, workers=2)
        assert caught.type is NumericError
        assert multiprocessing.active_children() == []


def _cov(model, log, f, **tols):
    return hm.cov_counts(model, 0, 0, (0.0, 1.0), (2.0, 3.0), **tols)


BAD_ARGUMENTS = {
    "partial-nan-time": (lambda m, log, f: hm.partial_statistics(
        log, m, f, [np.nan]), "statistic times must be finite and >= 0"),
    "statistic-negative-horizon": (lambda m, log, f: hm.statistic_ST(
        log, m, f, -5.0), "statistic times must be finite and >= 0"),
    "time-change-infinite-horizon": (lambda m, log, f: hm.time_change(
        m, f, np.inf), "horizon must be > 0, got inf"),
    "periodic-nan-period": (lambda m, log, f: hm.asymptotic_variance_periodic(
        m, f, np.nan), "period must be positive"),
    "const-nan-weight": (lambda m, log, f: hm.asymptotic_variance_const(
        m, [np.nan]), "weights must be finite"),
    "profile-nan-rel-tol": (lambda m, log, f: hm.variance_profile(
        m, f, [10.0], rel_tol=np.nan), "tolerances must be finite"),
    "cov-negative-rel-tol": (lambda m, log, f: _cov(
        m, log, f, rel_tol=-1.0), "tolerances must be finite"),
    "cov-zero-tolerances": (lambda m, log, f: _cov(
        m, log, f, rel_tol=0.0, abs_tol=0.0), "not both 0"),
    "clt-nan-grid-point": (lambda m, log, f: hm.clt_harness(
        m, f, 10.0, 20, 1, grid=[0.5, np.nan]), "grid must be nonempty"),
    "decay-nan-lag": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [np.nan], 20, 1), "lags must exceed the window length"),
    "decay-infinite-lag": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [3.0, np.inf], 20, 1),
        r"lags must exceed the window length and be finite, got \[3.0, inf\]"),
    "clt-fractional-replicates": (lambda m, log, f: hm.clt_harness(
        m, f, 10.0, 20.5, 1), "replicates must be an integer >= 0, got 20.5"),
    "clt-fractional-seed": (lambda m, log, f: hm.clt_harness(
        m, f, 10.0, 20, 1.5), "seed must be an integer >= 0, got 1.5"),
    "decay-fractional-replicates": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [3.0], 20.5, 1),
        "replicates must be an integer >= 0, got 20.5"),
    "decay-fractional-seed": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [3.0], 20, 1.5), "seed must be an integer >= 0, got 1.5"),
    "path-nan-grid-point": (lambda m, log, f: hm.path_sample(
        log, m, f, _time_change(), [np.nan]), "grid must be nonempty"),
    "path-zero-grid-point": (lambda m, log, f: hm.path_sample(
        log, m, f, _time_change(), [0.0, 0.5]), "grid must be nonempty"),
    "path-grid-past-one": (lambda m, log, f: hm.path_sample(
        log, m, f, _time_change(), [1.5]), "grid must be nonempty"),
    "simulate-fractional-seed": (lambda m, log, f: hm.simulate(
        m, 10.0, seed=1.5), "seed must be an integer >= 0, got 1.5"),
    "batch-fractional-seed": (lambda m, log, f: hm.simulate_cluster_batch(
        m, 10.0, 2, seed=1.5), "seed must be an integer >= 0, got 1.5"),
    "spawn-negative-count": (lambda m, log, f: hm.spawn_seeds(1, -2),
                             "n must be an integer >= 0, got -2"),
    "generations-negative-seed": (lambda m, log, f: hm.simulate_generations(
        m.reproduction, 0, 3, 2, seed=-1), "seed must be >= 0, got -1"),
    "generations-negative-matrix": (lambda m, log, f: hm.simulate_generations(
        [[-0.5]], 0, 3, 2), "m must be nonnegative"),
    "generations-nan-matrix": (lambda m, log, f: hm.simulate_generations(
        [[np.nan]], 0, 3, 2), "m must be finite"),
    "generations-vector-matrix": (lambda m, log, f: hm.simulate_generations(
        [0.5, 0.2], 0, 3, 2), r"m must be a square matrix, got shape \(2,\)"),
    "generations-non-square": (lambda m, log, f: hm.simulate_generations(
        [[0.5, 0.2]], 0, 3, 2), "m must be a square matrix"),
    "laplace-negative-matrix": (lambda m, log, f: hm.laplace_generation(
        [[-0.5]], [0.1], 3), "m must be nonnegative"),
    "g-map-nan-matrix": (lambda m, log, f: hm.g_map(
        [[np.nan]], [0.1]), "m must be finite"),
    "g-map-overflow": (lambda m, log, f: hm.g_map(
        [[0.5, 0.3], [0.2, 0.4]], [1000.0, 0.0]),
        "Laplace recursion overflowed", NumericError),
    "g-map-infinite-result": (lambda m, log, f: hm.g_map(
        [[1e300]], [600.0]), r"g\(u\) overflowed", NumericError),
    "laplace-infinite-iterate": (lambda m, log, f: hm.laplace_generation(
        [[1e300]], [600.0], 1), "Laplace recursion overflowed", NumericError),
    "clt-string-workers": (lambda m, log, f: hm.clt_harness(
        m, f, 10.0, 20, 1, workers="2"),
        "workers must be an integer >= 1, got '2'"),
    "clt-boolean-workers": (lambda m, log, f: hm.clt_harness(
        m, f, 10.0, 20, 1, workers=True),
        "workers must be an integer >= 1, got True"),
    "clt-zero-workers": (lambda m, log, f: hm.clt_harness(
        m, f, 10.0, 20, 1, workers=0),
        "workers must be an integer >= 1, got 0"),
    "decay-negative-workers": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [3.0], 20, 1, workers=-3),
        "workers must be an integer >= 1, got -3"),
    "decay-fractional-workers": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [3.0], 20, 1, workers=2.5),
        "workers must be an integer >= 1, got 2.5"),
    "simulate-list-simulator": (lambda m, log, f: hm.simulate(
        m, 10.0, simulator=["cluster"]), r"unknown simulator \['cluster'\]"),
    "simulate-string-horizon": (lambda m, log, f: hm.simulate(m, "10"),
                                "horizon must be a real number, got '10'"),
    "simulate-none-horizon": (lambda m, log, f: hm.simulate(m, None),
                              "horizon must be a real number, got None"),
    "simulate-boolean-horizon": (lambda m, log, f: hm.simulate(
        m, True, seed=1), "horizon must be a real number, got True"),
    "thinning-string-burn-in": (lambda m, log, f: hm.simulate_thinning(
        m, 10.0, burn_in="1"), "burn_in must be a real number, got '1'"),
    "time-change-string-horizon": (lambda m, log, f: hm.time_change(
        m, f, "10"), "horizon must be a real number, got '10'"),
    "time-change-string-grid-step": (lambda m, log, f: hm.time_change(
        m, f, 10.0, grid_step="1"), "grid_step must be a real number, got '1'"),
    "decay-string-window": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, "1", [2.0], 10, 1), "window must be a real number, got '1'"),
    "decay-string-lag": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [3.0, "4"], 10, 1),
        r"lags\[1\] must be a real number, got '4'"),
    "decay-string-beta": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [3.0], 200, 1, beta="1", gamma=0.5),
        "beta must be a real number, got '1'"),
    "decay-string-gamma": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [3.0], 200, 1, beta=1.0, gamma="0.5"),
        "gamma must be a real number, got '0.5'"),
    "decay-gamma-past-beta": (lambda m, log, f: hm.mixing_decay_diagnostic(
        m, 0, 0, 1.0, [3.0], 200, 1, beta=1.0, gamma=1.5),
        "need 0 < gamma < beta", HypothesisError),
    "decay-missing-moment": (lambda m, log, f: hm.mixing_decay_diagnostic(
        hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]]),
        0, 0, 1.0, [3.0], 200, 1, beta=1.6, gamma=0.5),
        "moment of order 2.6 requires theta > 2.6", InfiniteMomentError),
    "mixing-string-gamma": (lambda m, log, f: hm.mixing_bound(
        m, 1.0, "0.5", [4.0]), "gamma must be a real number, got '0.5'"),
    "mixing-int-beyond-float-lag": (lambda m, log, f: hm.mixing_bound(
        m, 1.0, 0.5, [4.0, 10**400]),
        "lags must be nonempty and strictly positive"),
    "clt-string-beta": (lambda m, log, f: hm.clt_harness(
        m, f, 10.0, 20, 1, beta="3"), "beta must be a real number, got '3'"),
    "clt-string-delta": (lambda m, log, f: hm.clt_harness(
        m, f, 10.0, 20, 1, delta="2"), "delta must be a real number, got '2'"),
    "clt-string-level": (lambda m, log, f: hm.clt_harness(
        m, f, 10.0, 20, 1, level="0.1"),
        "level must be a real number, got '0.1'"),
    "simulate-int-beyond-float-horizon": (lambda m, log, f: hm.simulate(
        m, 10**400), "horizon must be positive and finite, got inf"),
    "time-change-int-beyond-float-horizon": (lambda m, log, f: hm.time_change(
        m, f, 10**400), "horizon must be > 0, got inf"),
    "decay-int-beyond-float-window": (lambda m, log, f:
                                      hm.mixing_decay_diagnostic(
        m, 0, 0, 10**400, [3.0], 20, 1),
        "window length must be positive and finite, got inf"),
}


def _time_change():
    """A time change built without spectral work."""
    return hm.TimeChange(np.array([5.0, 10.0]), np.array([1.0, 2.0]))


class TestBadArguments:
    @pytest.mark.parametrize("case", BAD_ARGUMENTS.values(),
                             ids=BAD_ARGUMENTS.keys())
    def test_refused_before_spectral_work(self, d1_model, monkeypatch, case):
        """Each case is ``(call, message)``, refused with a ``ValueError``,
        or ``(call, message, error)``, before any spectral work and before
        a harness simulates a replicate."""
        call, message, error = (*case, ValueError)[:3]

        def no_spectrum(*args, **kwargs):
            raise AssertionError("spectral work started")

        batches = []

        def counted(*args, **kwargs):
            batches.append(args)
            return batch(*args, **kwargs)

        batch = stats.simulate_cluster_batch
        monkeypatch.setattr(hm.spectrum, "bartlett_grid", no_spectrum)
        monkeypatch.setattr(stats, "simulate_cluster_batch", counted)
        log = hm.EventLog(1, 10.0, (np.array([1.0, 2.0]),))
        f = hm.TestFunction.constant([1.0])
        with pytest.raises(error, match=message):
            call(d1_model, log, f)
        assert batches == []


NON_INTEGER_INDEX = {
    "cov-counts": lambda m, log: hm.cov_counts(m, 0.5, 0, (0.0, 1.0),
                                               (2.0, 3.0)),
    "decay-diagnostic": lambda m, log: hm.mixing_decay_diagnostic(
        m, 0, 0.5, 1.0, [3.0], 20, 1),
    "event-log-count": lambda m, log: log.count(0.5, 0.0, 1.0),
    "generations-ancestor": lambda m, log: hm.simulate_generations(
        m.reproduction, 0.5, 3, 2),
    "laplace-ancestor": lambda m, log: hm.laplace_generation(
        m.reproduction, [0.1], 3, ancestor=0.5),
}


@pytest.mark.parametrize("call", NON_INTEGER_INDEX.values(),
                         ids=NON_INTEGER_INDEX.keys())
def test_non_integer_component_index_refused(d1_model, monkeypatch, call):
    def no_replicates(*args, **kwargs):
        raise AssertionError("replicates simulated")

    monkeypatch.setattr(stats, "_replicate_rows", no_replicates)
    log = hm.EventLog(1, 10.0, (np.array([1.0, 2.0]),))
    with pytest.raises(ValueError, match="must be an integer >= 0, got 0.5"):
        call(d1_model, log)


@pytest.mark.parametrize("call", [
    lambda m, log: hm.cov_counts(m, "x", 0, (0.0, 1.0), (2.0, 3.0)),
    lambda m, log: hm.mixing_decay_diagnostic(m, 0, "x", 1.0, [3.0], 20, 1),
    lambda m, log: log.count("x", 0.0, 1.0),
    lambda m, log: hm.simulate_generations(m.reproduction, "x", 3, 2),
    lambda m, log: hm.laplace_generation(m.reproduction, [0.1], 3, "x"),
], ids=NON_INTEGER_INDEX.keys())
def test_string_component_index_refused_before_comparison(d1_model, call):
    log = hm.EventLog(1, 10.0, (np.array([1.0, 2.0]),))
    with pytest.raises(ValueError, match="must be an integer >= 0, got 'x'"):
        call(d1_model, log)
