"""Simulators: exactness against Poisson laws, determinism, event logs."""

import hashlib
import importlib
import inspect
import json
import re

import numpy as np
import pytest
from scipy import stats

import hawkesmix as hm
from hawkesmix.errors import NumericError
from hawkesmix.simulate import _PRUNE_EVERY, _lineage, _window_events

# the module, which the package's ``simulate`` function shadows
SIMULATE = importlib.import_module("hawkesmix.simulate")


class Coarse(np.random.Generator):
    """Rounds the drawn blocks, so cluster rows tie often: immigrant times
    to the integers and delay uniforms to a grid of four.  Single redraws
    stay continuous and are counted."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.singles = 0

    def uniform(self, low=0.0, high=1.0, size=None):
        u = super().uniform(low, high, size)
        self.singles += size is None
        return u if size is None else np.round(u)

    def random(self, size=None):
        u = super().random(size)
        self.singles += np.ndim(u) == 1
        if np.ndim(u) == 2:
            u[0] = np.ceil(4.0 * u[0]) / 4.0 - 0.125
        return u


class TestEventLog:
    def test_half_open_counting(self):
        log = hm.EventLog(1, 3.0, (np.array([0.5, 1.0, 2.0]),))
        assert log.count(0, 0.5, 2.0) == 2
        assert log.count(0, 0.0, 0.5) == 1
        assert log.count(0, 2.0, 3.0) == 0
        assert log.total() == 3

    def test_count_validation(self):
        log = hm.EventLog(1, 3.0, (np.array([1.0]),))
        with pytest.raises(ValueError):
            log.count(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            log.count(0, -1.0, 1.0)
        with pytest.raises(ValueError):
            log.count(0, 2.0, 1.0)

    def test_round_trip_is_exact(self, d1_model, tmp_path):
        log = hm.simulate(d1_model, 50.0, seed=4)
        hm.write_event_log(log, tmp_path / "ev.csv")
        back = hm.read_event_log(tmp_path / "ev.csv")
        assert back.d == log.d and back.horizon == log.horizon
        assert np.array_equal(back.events[0], log.events[0])

    def test_rows_in_time_order_then_component(self, tmp_path):
        """Rows merge the components by time; equal times keep component
        order, and an empty component (or log) writes no row."""
        events = (np.array([0.5, 2.0]), np.array([]), np.array([0.25, 2.0]))
        hm.write_event_log(hm.EventLog(3, 3.0, events), tmp_path / "ev.csv")
        assert (tmp_path / "ev.csv").read_bytes() == (
            b"component,time\r\n2,0.25\r\n0,0.5\r\n0,2.0\r\n2,2.0\r\n")
        hm.write_event_log(hm.EventLog(0, 3.0, ()), tmp_path / "none.csv")
        assert (tmp_path / "none.csv").read_bytes() == b"component,time\r\n"
        assert hm.read_event_log(tmp_path / "none.csv").events == ()

    def test_writer_reads_components_as_float_arrays(self, tmp_path):
        hm.write_event_log(hm.EventLog(1, 3.0, ([1.0, 2],)),
                           tmp_path / "ev.csv")
        assert (tmp_path / "ev.csv").read_bytes() == (
            b"component,time\r\n0,1.0\r\n0,2.0\r\n")

    @pytest.mark.parametrize("d", [0, 2])
    def test_writer_refuses_another_component_count(self, tmp_path, d):
        log = hm.EventLog(d, 3.0, (np.array([1.0]),))
        with pytest.raises(ValueError, match=f"1 components, but d = {d}"):
            hm.write_event_log(log, tmp_path / "ev.csv")
        assert not (tmp_path / "ev.json").exists()

    @pytest.mark.parametrize("row", ["-1,2.0", "2,2.0", "1,nan", "0,inf",
                                     "0,-inf"])
    def test_reader_refuses_a_bad_row(self, tmp_path, row):
        hm.write_event_log(hm.EventLog(2, 3.0, ([1.0], [2.0])),
                           tmp_path / "ev.csv")
        with open(tmp_path / "ev.csv", "ab") as fh:
            fh.write(f"{row}\r\n".encode())
        what = "time" if row[0] == "0" or "nan" in row else "component"
        with pytest.raises(ValueError, match=f"line 4: {what} "):
            hm.read_event_log(tmp_path / "ev.csv")


def _globally_sorted_rows(events) -> bytes:
    """The CSV that one stable sort of every row by time writes."""
    times = np.concatenate(events)
    comps = np.repeat(np.arange(len(events)), [t.size for t in events])
    k = np.argsort(times, kind="stable")
    return ("component,time\r\n" + "".join(
        f"{c},{t!r}\r\n" for c, t in zip(comps[k].tolist(),
                                          times[k].tolist()))).encode()


def _grid_times(gen, size, lo, hi):
    """Up to ``size`` distinct sorted integer times in ``[lo, hi)``, so
    that components drawn alike tie with each other."""
    return np.unique(gen.integers(lo, hi, size)).astype(float)


WRITER_LOGS = {
    "d1": lambda g: (_grid_times(g, 30, 0, 50),),
    "d2-ties": lambda g: (_grid_times(g, 12, 0, 15),
                          _grid_times(g, 12, 0, 15)),
    "d3-empty-component": lambda g: (_grid_times(g, 20, 0, 25),
                                     np.array([]),
                                     _grid_times(g, 20, 0, 25)),
    # component 0 runs out after a few blocks, 2 in the middle, 1 last
    "d3-run-out-apart": lambda g: (_grid_times(g, 4, 0, 4),
                                   _grid_times(g, 30, 0, 40),
                                   _grid_times(g, 10, 10, 20)),
    "d3-many-ties": lambda g: tuple(_grid_times(g, 40, 0, 30)
                                    for _ in range(3)),
    # with one or two rows a component, blocks end on times both hold
    "d2-tie-at-block-end": lambda g: (np.array([0.0, 1.0, 2.0, 3.0]),
                                      np.array([1.0, 3.0])),
    "d2-no-ties": lambda g: (np.sort(g.uniform(0, 10, 25)),
                             np.sort(g.uniform(0, 10, 9))),
}


class TestWriterBlocks:
    """The writer merges the components by blocks of time; its rows are
    those one stable sort of the whole log gives."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("make", WRITER_LOGS.values(),
                             ids=WRITER_LOGS.keys())
    def test_rows_match_one_global_sort(self, tmp_path, monkeypatch, block,
                                        make):
        monkeypatch.setattr(SIMULATE, "_WRITE_BLOCK", block)
        for seed in range(5):
            events = make(np.random.default_rng(seed))
            hm.write_event_log(hm.EventLog(len(events), 50.0, events),
                               tmp_path / "ev.csv")
            assert ((tmp_path / "ev.csv").read_bytes()
                    == _globally_sorted_rows(events))

    @pytest.mark.parametrize("events", [
        (np.array([2.0, 1.0]),),
        (np.array([0.0, 1.0, 2.0, 3.0, 2.5]), np.array([4.0])),
    ])
    def test_unsorted_component_refused(self, tmp_path, monkeypatch, events):
        monkeypatch.setattr(SIMULATE, "_WRITE_BLOCK", 4)
        with pytest.raises(ValueError, match="must be sorted"):
            hm.write_event_log(hm.EventLog(len(events), 5.0, events),
                               tmp_path / "ev.csv")

    def test_nan_past_the_block_refused(self, tmp_path, monkeypatch):
        """A block's search runs past its rows to keep a tie whole; a NaN
        it runs past is out of order."""
        monkeypatch.setattr(SIMULATE, "_WRITE_BLOCK", 3)
        events = (np.array([1.0, 2.0, 3.0, np.nan, 3.0]),)
        with pytest.raises(ValueError, match="must be sorted"):
            hm.write_event_log(hm.EventLog(1, 5.0, events),
                               tmp_path / "ev.csv")

    def test_memory_does_not_grow_with_the_log(self, tmp_path, traced_peak):
        """The writer holds one block of rows: its traced peak stays under
        the same bound for a 2-d log of 50k rows and one of 500k (it
        measures ~1.4 and ~1.8 MB; one sort of the whole log peaks at
        6.8 and 16.3 MB)."""
        gen = np.random.default_rng(0)
        for rows in (50_000, 500_000):
            events = tuple(np.sort(gen.uniform(0.0, 1e5, rows // 2))
                           for _ in range(2))
            log = hm.EventLog(2, 1e5, events)
            small = hm.EventLog(2, 1e5, tuple(t[:100] for t in events))
            _, peak = traced_peak(
                lambda: hm.write_event_log(log, tmp_path / "ev.csv"),
                lambda: hm.write_event_log(small, tmp_path / "ev.csv"))
            assert peak < 3e6, rows

    @pytest.mark.parametrize("events", [
        (np.array([1.0, np.nan, 3.0]),),
        (np.array([np.nan, np.nan, 5.0]),),
        (np.array([1.0, 2.0, np.inf]),),
        (np.array([-np.inf, 1.0]),),
        (np.array([1.0, 2.0]), np.array([0.5, 1.5, np.nan])),
    ])
    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_non_finite_time_refused(self, tmp_path, monkeypatch, block,
                                     events):
        monkeypatch.setattr(SIMULATE, "_WRITE_BLOCK", block)
        with pytest.raises(ValueError, match="event times must be finite"):
            hm.write_event_log(hm.EventLog(len(events), 5.0, events),
                               tmp_path / "ev.csv")


def _short_decimals(gen):
    """Decimals of up to 15 significant digits and 0-12 fractional ones,
    from 1 up, with the floats next to them on both sides."""
    places = gen.integers(0, 13, 20_000)
    digits = (gen.integers(1, 10**15, 20_000)
              // 10**gen.integers(0, 12, 20_000))
    short = digits / 10.0**places
    short = short[short >= 1.0]
    return np.concatenate([short, np.nextafter(short, np.inf),
                           np.nextafter(short, 0.0)])


def _dyadics(gen):
    """Integers and dyadic fractions, and runs of 2**7 neighbouring
    floats around random points of every binade below 2**50, where the
    coarse ulps give ties between two shortest decimals."""
    ints = np.arange(1.0, 501.0)
    fractions = [ints + k / 2.0**j for j in range(1, 11)
                 for k in range(1, 2**j, max(2**j // 8, 1))]
    runs = [(gen.integers(2**e, 2**(e + 1), 8)[:, None]
             + 2.0**(e - 52) * np.arange(-64, 64)).ravel()
            for e in range(50)]
    return np.concatenate([ints, *fractions, *runs])


def _domain_edges(gen):
    """Powers of two and their neighbours, the range's own ends and the
    floats past them."""
    powers = 2.0 ** np.arange(-2, 53)
    return np.concatenate([powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf),
                           [1.0, 2.0**50, np.nextafter(2.0**50, 0.0)]])


KERNEL_SETS = {
    "short-decimals": _short_decimals,
    "dyadics": _dyadics,
    # mostly 16 and 17 significant digits
    "uniform": lambda g: np.concatenate([g.uniform(1.0, 1e5, 20_000),
                                         2.0 ** g.uniform(0.0, 50.0, 20_000)]),
    "domain-edges": _domain_edges,
}


class TestWriterDigits:
    """Each time in the CSV is the ``repr`` of the float: the block
    kernel's digits on ``[1, 2**50)`` and ``repr`` itself elsewhere."""

    @pytest.mark.parametrize("make", KERNEL_SETS.values(),
                             ids=KERNEL_SETS.keys())
    def test_times_match_repr(self, tmp_path, make):
        events = (np.unique(make(np.random.default_rng(5))),)
        hm.write_event_log(hm.EventLog(1, 1.0, events), tmp_path / "ev.csv")
        assert ((tmp_path / "ev.csv").read_bytes()
                == _globally_sorted_rows(events))

    def test_two_digit_components(self, tmp_path):
        gen = np.random.default_rng(6)
        events = tuple(np.sort(gen.uniform(0.0, 100.0, gen.integers(0, 40)))
                       for _ in range(12))
        hm.write_event_log(hm.EventLog(12, 100.0, events), tmp_path / "ev.csv")
        assert ((tmp_path / "ev.csv").read_bytes()
                == _globally_sorted_rows(events))

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    def test_rows_outside_the_kernel_range(self, tmp_path, monkeypatch,
                                           block):
        """Rows the kernel leaves to ``repr`` land in order within a
        block and at its ends."""
        monkeypatch.setattr(SIMULATE, "_WRITE_BLOCK", block)
        events = (np.array([-2.5, -0.0, 5e-324, 1e-05, 0.5, 1.0, 3.25,
                            2.0**50, 1e16, 1e17]),
                  np.array([-1.0, 0.0, 1e-05, 0.75, 1.5, 7.0, 1e15, 1e16]),
                  np.array([0.25, 0.9999999999999999, 2.0, 1e17]))
        hm.write_event_log(hm.EventLog(3, 1.0, events), tmp_path / "ev.csv")
        assert ((tmp_path / "ev.csv").read_bytes()
                == _globally_sorted_rows(events))
        back = hm.read_event_log(tmp_path / "ev.csv")
        assert [t.tobytes() for t in back.events] == [
            t.tobytes() for t in events]

    def test_seeded_cluster_log(self, d2_model, tmp_path):
        log = hm.simulate(d2_model, 2e4, seed=9)
        hm.write_event_log(log, tmp_path / "ev.csv")
        assert ((tmp_path / "ev.csv").read_bytes()
                == _globally_sorted_rows(log.events))


SEED_KINDS = {
    "seed-sequence": (lambda m: hm.simulate_cluster_batch(
        m, 20.0, 2, seed=hm.spawn_seeds(1, 2)[1])[1],
        {"entropy": 1, "spawn_key": [1]}),
    "numpy-int-cluster": (lambda m: hm.simulate_cluster(
        m, 20.0, seed=np.int64(3)), 3),
    "numpy-int-thinning": (lambda m: hm.simulate_thinning(
        m, 20.0, seed=np.int64(3)), 3),
    "generator": (lambda m: hm.simulate_cluster_batch(
        m, 20.0, 1, seed=np.random.default_rng(3))[0], None),
}


@pytest.mark.parametrize("simulate_log,seed", SEED_KINDS.values(),
                         ids=SEED_KINDS.keys())
def test_sidecar_round_trip_for_every_seed_kind(d1_model, tmp_path,
                                                simulate_log, seed):
    """Every log the simulators return writes a JSON sidecar, and reads
    back with the seed its ``meta`` records."""
    log = simulate_log(d1_model)
    assert log.meta["seed"] == seed and type(log.meta["seed"]) is type(seed)
    hm.write_event_log(log, tmp_path / "ev.csv")
    back = hm.read_event_log(tmp_path / "ev.csv")
    assert back.meta == log.meta
    assert np.array_equal(back.events[0], log.events[0])


def test_seed_is_the_only_stream_argument():
    for name in hm.__all__:
        obj = getattr(hm, name)
        if inspect.isfunction(obj):
            assert "rng" not in inspect.signature(obj).parameters, name


class TestDeterminism:
    def test_cluster(self, d2_model):
        a = hm.simulate(d2_model, 100.0, seed=3)
        b = hm.simulate(d2_model, 100.0, seed=3)
        for i in range(2):
            assert np.array_equal(a.events[i], b.events[i])

    def test_thinning(self, d1_model):
        a = hm.simulate(d1_model, 50.0, simulator="thinning", seed=3)
        b = hm.simulate(d1_model, 50.0, simulator="thinning", seed=3)
        assert np.array_equal(a.events[0], b.events[0])

    @pytest.mark.parametrize("simulator", ["cluster", "thinning"])
    def test_recorded_seed_reruns_the_log(self, d2_model, simulator):
        """``meta["seed"]`` names the stream the log was drawn from:
        ``None`` for a generator, and for an integer or a SeedSequence a
        seed that reruns the log byte for byte."""
        def run(seed):
            return hm.simulate(d2_model, 50.0, simulator, seed=seed)

        assert run(np.random.default_rng(3)).meta["seed"] is None
        for seed in (3, np.random.SeedSequence(3), hm.spawn_seeds(3, 2)[1]):
            log = run(seed)
            rec = log.meta["seed"]
            again = run(rec if isinstance(rec, int) else np.random.SeedSequence(
                rec["entropy"], spawn_key=rec["spawn_key"]))
            assert ([e.tobytes() for e in again.events]
                    == [e.tobytes() for e in log.events])
            assert again.meta == log.meta

    def test_spawned_streams_differ(self):
        seeds = hm.spawn_seeds(0, 3)
        draws = [np.random.default_rng(s).random(4) for s in seeds]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    @pytest.mark.parametrize("seed,counts,digest", [
        (1, [1799, 1662],
         "33308c9b1d5da122add1269e09d07de752c9b9345d8aea024c2494aeec99c3dc"),
        (2, [1654, 1624],
         "d9bee85ceca92bb561aac4a8e709b3f56c4817f7312e8c3f1394c8720afe462c"),
        (3, [1442, 1404],
         "53b20b7f55fd13896f010a8a77608e90416537fe76e3a955c9e51b24b9926469"),
    ], ids=["1", "2", "3"])
    def test_cluster_stream_is_pinned(self, seed, counts, digest):
        """The cluster simulator's draws and arithmetic are pinned: sha256
        of the little-endian event times of the 2-d exponential benchmark
        model (numpy 2.4 on x86-64).  A change to the order of the draws
        or to the delay arithmetic moves these, and with them every Monte
        Carlo artifact."""
        model = hm.HawkesModel(
            [1.0, 1.0],
            [[hm.ExponentialKernel(0.5, 2.0), hm.ExponentialKernel(0.3, 2.0)],
             [hm.ExponentialKernel(0.2, 2.0), hm.ExponentialKernel(0.4, 2.0)]])
        log = hm.simulate_cluster(model, 500.0, seed=seed)
        h = hashlib.sha256()
        for times in log.events:
            h.update(len(times).to_bytes(8, "little"))
            h.update(times.astype("<f8").tobytes())
        assert [len(t) for t in log.events] == counts
        assert h.hexdigest() == digest

    @staticmethod
    def log_digest(logs):
        """sha256 of each log's little-endian event times and its meta."""
        h = hashlib.sha256()
        for log in logs:
            for times in log.events:
                h.update(len(times).to_bytes(8, "little"))
                h.update(times.astype("<f8").tobytes())
            h.update(json.dumps(log.meta, sort_keys=True).encode())
        return h.hexdigest()

    def test_irregular_model_stream_is_pinned(self):
        """The cluster stream of a model whose kernel table is not full:
        a power-law, two uniform and an exponential kernel, zero kernels,
        and a component (2) with no outgoing kernel.  Events and meta of
        a lone run and of a 5-replicate batch drawn from one stream are
        pinned (numpy 2.4 on x86-64)."""
        model = hm.HawkesModel(
            [0.6, 0.4, 0.3],
            [[hm.PowerLawKernel(0.3, 0.5, 2.5), hm.UniformKernel(0.25, 1.5),
              hm.ZeroKernel()],
             [hm.ExponentialKernel(0.2, 2.0), hm.ZeroKernel(),
              hm.UniformKernel(0.4, 0.5)],
             [hm.ZeroKernel(), hm.ZeroKernel(), hm.ZeroKernel()]])
        log = hm.simulate_cluster(model, 100.0, seed=4)
        assert [len(t) for t in log.events] == [141, 81, 62]
        assert self.log_digest([log]) == (
            "ce54eb032249cbe834485da4599b5822fbeb9f7a63a3f5918f3e7cdf82fc07e7")
        logs = hm.simulate_cluster_batch(model, 20.0, 5, seed=7)
        assert [log.meta["generations"] for log in logs] == [5, 5, 5, 5, 6]
        assert self.log_digest(logs) == (
            "cdb992a0a4434c3cf9d9d116855506f323fe3dd5865083abdeef769103f85576")


class TestAgainstPoissonLaw:
    """With no excitation both simulators must reproduce a Poisson process."""

    def test_cluster_counts(self, poisson2_model):
        horizon = 500.0
        totals = []
        seeds = hm.spawn_seeds(21, 200)
        for s in seeds:
            log = hm.simulate(poisson2_model, horizon, seed=s)
            totals.append(log.total())
        totals = np.asarray(totals, dtype=float)
        lam = 2.0 * horizon
        assert totals.mean() == pytest.approx(lam, abs=4.0 * np.sqrt(lam / 200))
        assert totals.var(ddof=1) == pytest.approx(lam, rel=0.25)

    def test_thinning_interevent_times(self, poisson2_model):
        log = hm.simulate(poisson2_model, 2000.0, simulator="thinning", seed=6)
        merged = np.sort(np.concatenate(log.events))
        gaps = np.diff(merged)
        # pooled gaps are Exp(2): unit-rate after scaling
        assert stats.kstest(2.0 * gaps, "expon").pvalue > 0.01


def assert_stationary_rates(model, log):
    """Each component's rate is within 4 SE of its mean intensity."""
    horizon = log.horizon
    # Var N_i(T) ~ T gamma_ii(0), the Bartlett density at 0
    slope = np.diag(hm.bartlett_density(model, 0.0).value.real)
    for i, times in enumerate(log.events):
        assert np.all(np.diff(times) > 0.0)
        assert times[0] >= 0.0 and times[-1] <= horizon
        se = np.sqrt(slope[i] / horizon)
        rate = times.size / horizon
        assert abs(rate - model.mean_intensity[i]) < 4.0 * se


class TestStationaryRates:
    @pytest.mark.parametrize("simulator", ["cluster", "thinning"])
    def test_zero_mass_kernels_skipped(self, mixed_model, simulator):
        log = hm.simulate(mixed_model, 2000.0, simulator=simulator, seed=11)
        assert_stationary_rates(mixed_model, log)

    @pytest.mark.parametrize("model", [
        hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]]),
        "d2_model",
    ], ids=["powerlaw-d1", "d2-uniform-jump"])
    def test_thinning_rates(self, model, request):
        """Thinning on a heavy tail, and on a kernel with a jump at ``a``."""
        if isinstance(model, str):
            model = request.getfixturevalue(model)
        log = hm.simulate(model, 2000.0, simulator="thinning", seed=11)
        assert_stationary_rates(model, log)

    def test_cluster_d1(self, d1_model):
        log = hm.simulate(d1_model, 5000.0, seed=0)
        assert log.total() / 5000.0 == pytest.approx(2.0, rel=0.02)

    def test_thinning_d1(self, d1_model):
        log = hm.simulate(d1_model, 2000.0, simulator="thinning", seed=1)
        assert log.total() / 2000.0 == pytest.approx(2.0, rel=0.04)

    def test_no_burn_in_biases_rate_down(self, d1_model):
        """Starting empty at 0 loses the pre-window ancestry."""
        seeds = hm.spawn_seeds(13, 300)
        rates = [
            hm.simulate(d1_model, 20.0, burn_in=0.0, seed=s).total() / 20.0
            for s in seeds
        ]
        assert np.mean(rates) < 2.0


# every kernel exponential, with nine distinct decay rates
EXP3_MODEL = hm.HawkesModel(
    [0.5, 0.8, 0.3],
    [[hm.ExponentialKernel(0.3, 1.0), hm.ExponentialKernel(0.2, 4.0),
      hm.ExponentialKernel(0.1, 0.5)],
     [hm.ExponentialKernel(0.2, 2.5), hm.ExponentialKernel(0.3, 0.7),
      hm.ExponentialKernel(0.1, 6.0)],
     [hm.ExponentialKernel(0.1, 1.5), hm.ExponentialKernel(0.2, 3.0),
      hm.ExponentialKernel(0.25, 0.3)]],
)

# source 0 mixes an exponential and a power-law kernel
EXP_POWERLAW_MODEL = hm.HawkesModel(
    [1.0, 1.0],
    [[hm.ExponentialKernel(0.5, 2.0), hm.PowerLawKernel(0.3, 1.0, 2.5)],
     [hm.ExponentialKernel(0.2, 2.0), hm.ExponentialKernel(0.4, 3.0)]],
)


class RecordingGenerator(np.random.Generator):
    """A generator that records the bound ``1 / scale`` of every waiting
    time drawn, and otherwise draws what ``default_rng(seed)`` draws."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.bounds = []

    def exponential(self, scale):
        self.bounds.append(1.0 / scale)
        return super().exponential(scale)


def brute_force_thinning(model, horizon, seed):
    """Ogata thinning on ``[0, horizon]`` with every intensity summed afresh
    over all past events, drawing as ``simulate_thinning`` does.  Returns
    the event times per component, the candidate count and the bound of
    every waiting time drawn."""
    gen = np.random.default_rng(seed)
    events = [[] for _ in range(model.d)]
    t, bound, bounds, candidates = 0.0, model.eta.sum(), [], 0
    while True:
        bounds.append(bound)
        t += gen.exponential(1.0 / bound)
        if t > horizon:
            return events, candidates, bounds
        candidates += 1
        lam = model.eta.copy()
        for i, row in enumerate(model.active):
            past = t - np.array(events[i])
            for j, kern in row:
                lam[j] += kern.evaluate(past).sum()
        u = gen.random() * bound
        if u < lam.sum():
            j = min(int(np.searchsorted(np.cumsum(lam), u, side="right")),
                    model.d - 1)
            events[j].append(t)
            bound = lam.sum() + sum(float(kern.evaluate(0.0))
                                    for _, kern in model.active[j])
        else:
            bound = lam.sum()


class TestThinningMechanism:
    def test_rising_kernel_breaks_bound(self):
        """The dominating-bound check sees the bound carried past an
        acceptance, which a kernel growing in elapsed time exceeds."""

        class RisingKernel(hm.ExponentialKernel):
            def _density(self, t):
                return self.alpha * self.beta * (1.0 - np.exp(-self.beta * t))

        model = hm.HawkesModel([1.0], [[RisingKernel(0.5, 2.0)]])
        with pytest.raises(NumericError, match="dominating bound violated"):
            hm.simulate(model, 50.0, simulator="thinning", burn_in=0.0, seed=1)

    def test_one_density_pass_per_candidate(self, d2_model, monkeypatch):
        """Between two waiting-time draws, that is for one candidate, the
        one history kernel (source 1's uniform) is summed at most once,
        and once more on a prune step; no exponential kernel is read."""
        marks = []

        class MarkingGenerator(RecordingGenerator):
            def exponential(self, scale):
                marks.append("wait")
                return super().exponential(scale)

        for cls in (hm.ExponentialKernel, hm.UniformKernel):
            def counted(self, t, density=cls._density):
                marks.append("density")
                return density(self, t)
            monkeypatch.setattr(cls, "_density", counted)
        log = hm.simulate(d2_model, 300.0, simulator="thinning",
                          seed=MarkingGenerator(12))
        candidates = log.meta["candidates"]
        assert candidates > _PRUNE_EVERY
        assert log.meta["accepted"] > candidates / 2
        # the jumps h_ij(0+) of every kernel come before the first draw
        first = marks.index("wait")
        assert first == sum(len(row) for row in d2_model.active)
        passes = [seg.count("density") for seg in
                  " ".join(marks[first + 1:]).split("wait")]
        assert len(passes) == candidates + 1
        # segment s follows draw s + 1 and holds candidate s + 1's pass and
        # the prune that opens step s + 2
        allowed = [1 + ((s + 2) % _PRUNE_EVERY == 0)
                   for s in range(len(passes))]
        assert all(n <= a for n, a in zip(passes, allowed))
        assert passes[-1] == 0
        # most candidates see a nonempty history, so the bound is reached
        assert passes.count(1) > candidates / 2

    @pytest.mark.parametrize("model", [
        EXP3_MODEL,
        # source 1 mixes a uniform and an exponential kernel; only the
        # uniform one is summed over its history
        "d2_model",
    ], ids=["exponential", "mixed"])
    def test_exponential_kernels_read_no_history(self, model, request,
                                                 monkeypatch):
        if isinstance(model, str):
            model = request.getfixturevalue(model)
        calls = []

        def counted(self, t, density=hm.ExponentialKernel._density):
            calls.append(1)
            return density(self, t)

        monkeypatch.setattr(hm.ExponentialKernel, "_density", counted)
        log = hm.simulate(model, 500.0, simulator="thinning", seed=12)
        assert log.meta["candidates"] > _PRUNE_EVERY
        # only the jumps h_ij(0+): no density per candidate or prune
        assert len(calls) == sum(isinstance(kern, hm.ExponentialKernel)
                                 for row in model.active for _, kern in row)

    @pytest.mark.parametrize("model", [
        EXP3_MODEL,
        # every exponential kernel is a state; the uniform kernel of source
        # 1 (uniform and exponential) is summed over a history
        "d2_model",
        # the power-law kernel of source 0 is summed over a history
        EXP_POWERLAW_MODEL,
    ], ids=["exponential", "mixed", "exponential-powerlaw"])
    def test_markov_state_is_the_history_sum(self, model, request):
        """Every bound the simulator draws a waiting time at, the summed
        states and histories after each candidate, is the brute-force
        intensity sum over all past events, along the whole run."""
        if isinstance(model, str):
            model = request.getfixturevalue(model)
        rec = RecordingGenerator(5)
        log = hm.simulate_thinning(model, 300.0, burn_in=0.0, seed=rec)
        events, candidates, bounds = brute_force_thinning(model, 300.0, 5)
        assert log.meta["candidates"] == candidates
        assert log.meta["accepted"] == sum(map(len, events))
        assert [len(e) for e in log.events] == [len(e) for e in events]
        assert len(rec.bounds) == len(bounds) == candidates + 1
        np.testing.assert_allclose(rec.bounds, bounds, rtol=1e-12, atol=0.0)
        for got, want in zip(log.events, events):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_tie_redraws_counted(self, d1_model):
        class ZeroWaits(np.random.Generator):
            """A generator whose every other waiting time is exactly 0, so
            a candidate can repeat the last accepted time."""

            def __init__(self, seed):
                super().__init__(np.random.PCG64(seed))
                self.calls = 0

            def exponential(self, scale):
                self.calls += 1
                if self.calls % 2 == 0:
                    return 0.0
                return super().exponential(scale)

        log = hm.simulate_thinning(d1_model, 100.0, burn_in=0.0,
                                   seed=ZeroWaits(2))
        assert log.meta["tie_redraws"] > 0
        assert np.all(np.diff(log.events[0]) > 0.0)
        plain = hm.simulate_thinning(d1_model, 100.0, burn_in=0.0, seed=2)
        assert plain.meta["tie_redraws"] == 0

    def test_meta_counts(self, d2_model):
        log = hm.simulate(d2_model, 200.0, simulator="thinning", burn_in=0.0,
                          seed=4)
        assert log.meta["accepted"] == log.total()
        assert log.meta["accepted"] <= log.meta["candidates"]
        again = hm.simulate(d2_model, 200.0, simulator="thinning",
                            burn_in=0.0, seed=4)
        assert again.meta == log.meta


class TestClusterGenealogy:
    def test_meta_counts(self, d2_model):
        log, trace = hm.simulate_cluster(d2_model, 50.0, seed=9,
                                         return_trace=True)
        assert log.meta["immigrants"] == int(np.sum(trace.gens == 0))
        assert log.meta["generations"] == int(trace.gens.max())

    def test_trace_structure(self, d2_model):
        log, trace = hm.simulate_cluster(d2_model, 50.0, seed=9, return_trace=True)
        roots = trace.roots()
        assert trace.times.size == trace.parents.size == trace.gens.size
        immigrants = trace.parents == -1
        assert np.array_equal(trace.gens == 0, immigrants)
        assert np.all(trace.parents[immigrants] == -1)
        children = ~immigrants
        assert np.all(trace.times[children] > trace.times[trace.parents[children]])
        assert np.all(trace.parents[roots] == -1)

    def test_offspring_counts_match_reproduction(self):
        """Direct children of immigrants are Poisson with the kernel masses."""
        model = hm.HawkesModel(
            [0.2, 0.2],
            [
                [hm.ExponentialKernel(0.5, 2.0), hm.ExponentialKernel(0.3, 1.0)],
                [hm.UniformKernel(0.2, 1.0), hm.ExponentialKernel(0.4, 3.0)],
            ],
        )
        rng = np.random.default_rng(17)
        per_child = np.zeros((2, 2))
        parents = np.zeros(2)
        for _ in range(300):
            _, trace = hm.simulate_cluster(
                model, 200.0, burn_in=0.0, seed=rng, return_trace=True
            )
            gen0 = np.flatnonzero(trace.gens == 0)
            for p in gen0:
                parents[trace.comps[p]] += 1
            kids = np.flatnonzero(trace.gens == 1)
            for kid in kids:
                per_child[trace.comps[trace.parents[kid]], trace.comps[kid]] += 1
        rates = per_child / parents[:, None]
        m = model.reproduction
        se = np.sqrt(m / parents[:, None])
        assert np.all(np.abs(rates - m) < 4.0 * se + 1e-12)

    def test_offspring_law_per_parent(self):
        """Each parent's children in component ``j`` are Poisson(``M_ij``),
        whatever its row in its generation: per parent component ``i`` and
        child component ``j``, the per-parent counts have mean and
        variance ``M_ij`` at 4 SE, and the mean holds in each quarter of
        the frontier rows, so the parent picks are uniform."""
        model = hm.HawkesModel(
            [1.0, 0.5],
            [[hm.ExponentialKernel(0.45, 2.0), hm.UniformKernel(0.1, 1.0)],
             [hm.ExponentialKernel(0.6, 1.0), hm.ExponentialKernel(0.05, 3.0)]],
        )
        _, trace = hm.simulate_cluster(model, 5000.0, seed=31,
                                       return_trace=True)
        kids = np.zeros((trace.times.size, 2))
        children = trace.parents >= 0
        np.add.at(kids, (trace.parents[children], trace.comps[children]), 1.0)
        # every event is a parent once, in the frontier of its generation
        # and component, whose rows keep the trace's row order
        quarter = np.empty(trace.times.size, dtype=np.int64)
        for g in range(int(trace.gens.max()) + 1):
            for i in range(2):
                rows = np.flatnonzero((trace.gens == g) & (trace.comps == i))
                quarter[rows] = 4 * np.arange(rows.size) // max(rows.size, 1)
        m = model.reproduction
        for i in range(2):
            for j in range(2):
                counts = kids[trace.comps == i, j]
                n = counts.size
                assert abs(counts.mean() - m[i, j]) < 4.0 * np.sqrt(m[i, j] / n)
                var_se = np.sqrt((m[i, j] + 2.0 * m[i, j] ** 2) / n)
                assert abs(counts.var(ddof=1) - m[i, j]) < 4.0 * var_se
                for q in range(4):
                    part = kids[(trace.comps == i) & (quarter == q), j]
                    assert (abs(part.mean() - m[i, j])
                            < 4.0 * np.sqrt(m[i, j] / part.size))

    def test_generation_cap(self):
        model = hm.HawkesModel([1.0], [[hm.ExponentialKernel(0.999, 2.0)]])
        # nearly critical: still subcritical, must terminate without error
        log = hm.simulate(model, 5.0, burn_in=1.0, seed=2)
        assert log.horizon == 5.0


class TestClusterBatch:
    def test_batch_of_one_is_simulate_cluster(self, d2_model):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        (log,), trace = hm.simulate_cluster_batch(d2_model, 80.0, 1,
                                                  seed=rng_a,
                                                  return_trace=True)
        ref, ref_trace = hm.simulate_cluster(d2_model, 80.0, seed=rng_b,
                                             return_trace=True)
        for a, b in zip(log.events, ref.events):
            assert a.tobytes() == b.tobytes()
        assert log.meta == ref.meta
        assert np.array_equal(trace.times, ref_trace.times)
        assert np.all(trace.tags == 0)
        # both generators were left in the same state
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("sparse", [False, True], ids=["d2", "sparse"])
    def test_immigrants_drawn_for_the_whole_batch(self, d2_model, sparse):
        """A batch opens its one stream with, per component, the immigrant
        counts of every replicate and then their times in one block, shared
        out over the replicates in order; every log names that stream and
        its own place in the batch."""
        # the sparse model leaves replicates without events or children
        model = (hm.HawkesModel([0.02], [[hm.ExponentialKernel(0.3, 1.0)]])
                 if sparse else d2_model)
        b = hm.default_burn_in(model)
        logs, trace = hm.simulate_cluster_batch(model, 30.0, 40, seed=6,
                                                return_trace=True)
        ref = np.random.default_rng(6)
        immigrants = np.zeros(40, dtype=np.int64)
        for j in range(model.d):
            counts = ref.poisson(model.eta[j] * (30.0 + b), size=40)
            roots = (trace.gens == 0) & (trace.comps == j)
            assert np.array_equal(trace.times[roots],
                                  ref.uniform(-b, 30.0, size=counts.sum()))
            assert np.array_equal(trace.tags[roots],
                                  np.repeat(np.arange(40), counts))
            immigrants += counts
        if sparse:
            assert 0 in immigrants
        for r, log in enumerate(logs):
            assert log.meta["immigrants"] == immigrants[r]
            assert (log.meta["seed"], log.meta["replicate"]) == (6, r)

    def test_zero_uniforms_redrawn_from_the_batch_stream(self, d2_model):
        """An exact zero among the delay uniforms is redrawn from the batch
        stream right after its block, so no child lands on its parent
        (uniform kernel) or at infinity (exponential kernels)."""
        class ZeroFirstDelay(np.random.Generator):
            # draws what default_rng(seed) draws, except that every
            # offspring block's first delay uniform is an exact zero;
            # counts the blocks and the redraws
            def __init__(self, seed):
                super().__init__(np.random.PCG64(seed))
                self.blocks = self.redraws = 0

            def random(self, size=None):
                u = super().random(size)
                if np.ndim(u) == 2 and u.size:
                    u[0, 0] = 0.0
                    self.blocks += 1
                elif np.ndim(u) == 1:
                    self.redraws += 1
                return u

        gen = ZeroFirstDelay(0)
        logs, trace = hm.simulate_cluster_batch(d2_model, 30.0, 6, seed=gen,
                                                return_trace=True)
        children = trace.parents >= 0
        assert np.all(np.isfinite(trace.times))
        assert np.all(trace.times[children]
                      > trace.times[trace.parents[children]])
        assert gen.blocks > 0 and gen.redraws == gen.blocks
        assert sum(log.meta["tie_redraws"] for log in logs) == 0

    def test_single_replicate_stream_pinned(self, d2_model):
        # the draws of the per-replicate simulator before replicate tags
        log = hm.simulate_cluster(d2_model, 20.0, seed=5)
        assert [len(t) for t in log.events] == [62, 66]
        assert log.events[0][:3].tolist() == [
            0.3743462348928504, 0.4481793617574984, 0.44927069220231397]
        assert log.events[1][:3].tolist() == [
            0.13156809794166702, 0.19348930614118798, 0.2149199059242442]
        assert (log.meta["immigrants"], log.meta["generations"]) == (113, 19)

    @pytest.mark.parametrize("sparse", [False, True],
                             ids=["d2", "sparse"])
    def test_tags_follow_the_genealogy(self, d2_model, sparse):
        model = (hm.HawkesModel([0.02], [[hm.ExponentialKernel(0.3, 1.0)]])
                 if sparse else d2_model)
        logs, trace = hm.simulate_cluster_batch(model, 30.0, 40, seed=8,
                                                return_trace=True)
        children = trace.parents >= 0
        assert np.array_equal(trace.tags[children],
                              trace.tags[trace.parents[children]])
        assert np.array_equal(trace.tags, trace.tags[trace.roots()])
        gens = [log.meta["generations"] for log in logs]
        if sparse:
            assert 0 in gens and max(gens) > 0
        for r, log in enumerate(logs):
            mine = trace.tags == r
            assert log.meta["immigrants"] == int(np.sum(mine & ~children))
            assert gens[r] == int(trace.gens[mine].max(initial=0))
            for j, tj in enumerate(log.events):
                inside = (mine & (trace.comps == j) & (trace.times >= 0.0)
                          & (trace.times <= 30.0))
                assert np.array_equal(tj, np.sort(trace.times[inside]))

    def test_replicate_count_checked(self, d1_model):
        for bad in (0, 2.0, True, [1, 2]):
            with pytest.raises(ValueError,
                               match="replicates must be an integer >= 1"):
                hm.simulate_cluster_batch(d1_model, 10.0, bad)
        # the arrays hold every replicate, so the event cap is per batch
        with pytest.raises(ValueError, match=r"times 10000000 replicates "
                                             r"expects \S+ events"):
            hm.simulate_cluster_batch(d1_model, 1000.0, 10**7)

    def test_ties_redrawn_as_in_lone_runs(self, d2_model):
        """With immigrant times on the integers and delays on a grid of
        four, many rows tie.  A batch of one redraws exactly what the lone
        run does; a batch redraws every tie from its own stream, one draw
        per redrawn row, and leaves no tie in any log, whose times the
        trace carries."""
        for r in range(2):
            (log,) = hm.simulate_cluster_batch(d2_model, 30.0, 1,
                                               seed=Coarse(r))
            ref = hm.simulate_cluster(d2_model, 30.0, seed=Coarse(r))
            assert log.meta["tie_redraws"] > 0
            for a, b in zip(log.events, ref.events):
                assert a.tobytes() == b.tobytes()
            assert log.meta == ref.meta
        gen = Coarse(0)
        logs, trace = hm.simulate_cluster_batch(d2_model, 30.0, 4, seed=gen,
                                                return_trace=True)
        assert all(log.meta["tie_redraws"] > 0 for log in logs)
        assert gen.singles == sum(log.meta["tie_redraws"] for log in logs)
        for r, log in enumerate(logs):
            for j, tj in enumerate(log.events):
                assert np.all(np.diff(tj) > 0.0)
                inside = ((trace.tags == r) & (trace.comps == j)
                          & (trace.times >= 0.0) & (trace.times <= 30.0))
                assert np.array_equal(tj, np.sort(trace.times[inside]))

    def test_redrawn_rows_carry_their_descendants(self, d2_model):
        """A redrawn row moves its descendants by the same amount, so every
        child stays after its parent: over these 20 coarse streams, 670
        rows are redrawn, and moving only them left 87 trace children at
        or before their parent."""
        redraws = 0
        for r in range(20):
            log, trace = hm.simulate_cluster(d2_model, 30.0, seed=Coarse(r),
                                             return_trace=True)
            redraws += log.meta["tie_redraws"]
            kids = trace.parents >= 0
            assert np.all(trace.times[kids]
                          > trace.times[trace.parents[kids]])
        assert redraws > 0

    def test_tie_replay_matches_a_traced_run(self, d2_model):
        """Without a trace, a window with a tie draws its batch again from
        the saved state, with the genealogy: the logs, their ``meta`` and
        the generator's final state are those of the traced run."""
        for reps in (1, 4):
            gen, ref = Coarse(2), Coarse(2)
            logs = hm.simulate_cluster_batch(d2_model, 30.0, reps, seed=gen)
            ref_logs, _ = hm.simulate_cluster_batch(d2_model, 30.0, reps,
                                                    seed=ref,
                                                    return_trace=True)
            assert all(log.meta["tie_redraws"] > 0 for log in logs)
            for log, ref_log in zip(logs, ref_logs):
                for a, b in zip(log.events, ref_log.events):
                    assert a.tobytes() == b.tobytes()
                assert log.meta == ref_log.meta
            assert gen.bit_generator.state == ref.bit_generator.state
            assert gen.singles == ref.singles

    def test_no_tie_draws_once(self, d2_model):
        """A window without ties is not drawn again: a run without a trace
        makes the draws of a traced one, each once."""
        class Counting(np.random.Generator):
            def __init__(self, seed):
                super().__init__(np.random.PCG64(seed))
                self.draws = 0

            def poisson(self, *args, **kwargs):
                self.draws += 1
                return super().poisson(*args, **kwargs)

            def uniform(self, *args, **kwargs):
                self.draws += 1
                return super().uniform(*args, **kwargs)

            def random(self, *args, **kwargs):
                self.draws += 1
                return super().random(*args, **kwargs)

        for reps in (1, 3):
            gen, ref = Counting(4), Counting(4)
            logs = hm.simulate_cluster_batch(d2_model, 200.0, reps, seed=gen)
            hm.simulate_cluster_batch(d2_model, 200.0, reps, seed=ref,
                                      return_trace=True)
            assert sum(log.meta["tie_redraws"] for log in logs) == 0
            assert gen.draws == ref.draws > 0
            assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("reps", [1, 4])
    def test_groups_match_a_traced_run(self, d2_model, monkeypatch, reps):
        """Cut by groups of at most 64 rows, a window joins small
        generations into one group, makes each bigger one a group of its
        own and joins every replicate's rows across the groups; with and
        without ties, the logs, their ``meta`` and the generator's final
        state are those of the traced run."""
        groups = []

        def cut(pieces, reps, horizon):
            groups.append((len(pieces), sum(t.size for t, _ in pieces)))
            return whole_cut(pieces, reps, horizon)

        whole_cut = SIMULATE._cut
        monkeypatch.setattr(SIMULATE, "_CUT_ROWS", 64)
        monkeypatch.setattr(SIMULATE, "_cut", cut)
        for make in (np.random.default_rng, Coarse):
            gen, ref = make(5), make(5)
            groups.clear()
            logs = hm.simulate_cluster_batch(d2_model, 200.0, reps, seed=gen)
            # several groups per component, some joined, some oversized
            assert len(groups) > 2 * d2_model.d
            assert any(n > 1 for n, _ in groups)
            assert any(n == 1 and rows > 64 for n, rows in groups)
            ref_logs, _ = hm.simulate_cluster_batch(d2_model, 200.0, reps,
                                                    seed=ref,
                                                    return_trace=True)
            ties = sum(log.meta["tie_redraws"] for log in logs)
            assert (ties > 0) == (make is Coarse)
            for log, ref_log in zip(logs, ref_logs):
                for a, b in zip(log.events, ref_log.events):
                    assert a.tobytes() == b.tobytes()
                assert log.meta == ref_log.meta
            assert gen.bit_generator.state == ref.bit_generator.state

    @staticmethod
    def _exp_model():
        return hm.HawkesModel([1.0, 1.0], [
            [hm.ExponentialKernel(0.5, 2.0), hm.ExponentialKernel(0.3, 2.0)],
            [hm.ExponentialKernel(0.2, 2.0), hm.ExponentialKernel(0.4, 2.0)],
        ])

    @pytest.mark.parametrize("replicates", [1, 4])
    def test_batch_memory_per_event(self, replicates, traced_peak):
        """The traced peak stays under 21 bytes per returned event for a
        lone run and for a batch of four clt-sized replicates of the 2-d
        exponential model (~13.4k expected events each).  No parent pick
        is kept without a trace, the rows are freed as their window is
        cut, and a lone run skips the regroup by tag: they measure ~14.7
        and ~17.4, so the bound leaves ~20% for other numpy versions."""
        model = self._exp_model()
        logs, peak = traced_peak(
            lambda: hm.simulate_cluster_batch(model, 2000.0, replicates,
                                              seed=1),
            lambda: hm.simulate_cluster_batch(model, 10.0, 4, seed=0))
        assert peak < 21 * sum(log.total() for log in logs)

    def test_long_run_memory_per_event(self, traced_peak):
        """A lone run at T = 1e5 (~670k events) cuts its window by groups
        of rows as the generations are drawn: its traced peak, ~12.2 bytes
        per returned event, is the cut windows and one component's joined
        copy, under 17."""
        model = self._exp_model()
        log, peak = traced_peak(
            lambda: hm.simulate_cluster(model, 1e5, seed=12),
            lambda: hm.simulate_cluster(model, 10.0, seed=0))
        assert peak < 17 * log.total()


class TestNarrowPicks:
    """Parent picks are kept in the smallest unsigned type holding their
    rows; the genealogy built from them is ``int64`` rows, also where a
    generation's rows start past that type's range."""

    # one component: generations of 60,000, 60,000 and 5 rows, so the
    # picks into generation 1 fit uint16 while its rows start at 60,000
    COUNTS = [[60_000, 60_000, 5]]
    LAST = np.array([0, 1, 5535, 40_000, 59_999])

    def links(self, pick_type):
        return [[[(0, np.arange(60_000).astype(pick_type))]],
                [[(0, self.LAST.astype(pick_type))]]]

    def test_lineage_rows_past_uint16(self):
        [(pc, pq)] = _lineage(self.COUNTS, self.links(np.uint16))
        [(ref_c, ref_q)] = _lineage(self.COUNTS, self.links(np.int64))
        assert pq.dtype == np.int64 and pc.dtype == np.int64
        assert np.array_equal(pq, ref_q) and np.array_equal(pc, ref_c)
        assert pq[-5:].tolist() == [60_000, 60_001, 65_535, 100_000,
                                    119_999]

    def test_tie_redraw_reads_the_parent_past_uint16(self, d1_model):
        """The last two rows tie in the window; the later is redrawn from
        its parent, row 119,999, as with ``int64`` picks."""
        out = []
        for pick_type in (np.uint16, np.int64):
            times = -1.0 - 1e-5 * np.arange(120_005.0)
            times[-5:] = [1.0, 2.0, 3.0, 5.0, 5.0]
            tags = np.zeros(times.size, dtype=np.uint8)
            links = self.links(pick_type)
            [events], redraws = _window_events(
                [times], [tags], 1, lambda: _lineage(self.COUNTS, links),
                d1_model, -5.0, 10.0, np.random.default_rng(3))
            assert redraws.tolist() == [1]
            out.append(times)
        ref = np.random.default_rng(3)
        assert out[0][-1] == out[1][-1] == (
            out[1][119_999]
            + d1_model.kernels[0][0].sample_delays(ref, 1)[0])
        assert np.array_equal(out[0], out[1])


class TestWindowTies:
    """Exact ties are redrawn only where the log would carry them."""

    LO, HORIZON = -5.0, 10.0

    def crafted(self):
        # rows 0-1: burn-in tie; rows 2-3: tie across components; row 4
        # (immigrant) ties row 2 and rows 6-7 (children of components 1
        # and 0) tie inside component 1's window
        times = np.array([-3.0, -3.0, 1.0, 1.0, 1.0, 2.0, 2.5, 2.5])
        comps = np.array([0, 0, 0, 1, 0, 1, 1, 1])
        parents = np.array([-1, -1, -1, -1, -1, 2, 5, 2])
        return times, comps, parents

    @classmethod
    def window(cls, times, comps, parents, tags, model, gen):
        """``_window_events`` on rows given as one set of arrays (``tags``
        ``None`` for one replicate, whose tags are all 0), split per
        component as the cluster simulator keeps them; redrawn times are
        written back to ``times``."""
        if tags is None:
            tags = np.zeros(times.size, dtype=np.uint8)
        reps = int(tags.max()) + 1
        rows = [np.flatnonzero(comps == j) for j in range(model.d)]
        pos = np.empty(times.size, dtype=np.int64)
        for k in rows:
            pos[k] = np.arange(k.size)
        own_t = [times[k] for k in rows]
        own_r = [tags[k] for k in rows]

        def origins():
            return [(np.where(parents[k] < 0, -1, comps[parents[k]]),
                     pos[parents[k]]) for k in rows]

        try:
            return _window_events(own_t, own_r, reps, origins, model,
                                  cls.LO, cls.HORIZON, gen)
        finally:
            for k, t in zip(rows, own_t):
                times[k] = t

    def test_same_component_ties_redrawn(self, d2_model):
        times, comps, parents = self.crafted()
        [events], redraws = self.window(times, comps, parents, None,
                                        d2_model, np.random.default_rng(5))
        assert redraws.tolist() == [2]
        # the later row of each tie is redrawn, in row order: the immigrant
        # uniformly on [lo, horizon], the child by kernel [0][1] from row 2
        ref = np.random.default_rng(5)
        assert times[4] == ref.uniform(self.LO, self.HORIZON)
        assert times[7] == 1.0 + d2_model.kernels[0][1].sample_delays(ref, 1)[0]
        for j, tj in enumerate(events):
            assert np.all(np.diff(tj) > 0.0)
            inside = (comps == j) & (times >= 0.0) & (times <= self.HORIZON)
            assert np.array_equal(tj, np.sort(times[inside]))

    def test_burn_in_and_cross_component_ties_kept(self, d2_model):
        times, comps, parents = self.crafted()
        times, comps, parents = times[:4], comps[:4], parents[:4]
        before = times.copy()
        [events], redraws = self.window(times, comps, parents, None,
                                        d2_model, np.random.default_rng(5))
        assert redraws.tolist() == [0]
        assert np.array_equal(times, before)
        assert [tj.tolist() for tj in events] == [[1.0], [1.0]]

    def test_ties_checked_per_replicate(self, d2_model):
        # rows 0-1: equal times in different replicates, kept; row 2 ties
        # row 1 inside replicate 1 and is redrawn from the batch's stream
        times = np.array([1.0, 1.0, 1.0, 2.0])
        comps = np.array([0, 0, 0, 1])
        parents = np.full(4, -1)
        tags = np.array([0, 1, 1, 0], dtype=np.uint8)
        events, redraws = self.window(times, comps, parents, tags, d2_model,
                                      np.random.default_rng(6))
        assert times[2] == np.random.default_rng(6).uniform(self.LO,
                                                            self.HORIZON)
        assert redraws.tolist() == [0, 1]
        assert [tj.tolist() for tj in events[0]] == [[1.0], [2.0]]
        mine = (tags == 1) & (comps == 0) & (times >= 0.0)
        assert np.array_equal(events[1][0], np.sort(times[mine]))
        assert events[1][1].size == 0

    def test_ties_found_across_groups(self, monkeypatch):
        """Cut by groups of two rows, a tie whose rows sit in different
        groups of one replicate is found; equal times in different
        replicates are no tie."""
        monkeypatch.setattr(SIMULATE, "_CUT_ROWS", 2)

        def events(generations, reps):
            window = SIMULATE._WindowCut(1, reps, self.HORIZON)
            for t, r in generations:
                window.take(0, np.array(t), np.array(r, dtype=np.uint8))
            return window.events()

        # groups: the first generation, the second (a group of its own),
        # then the third; time 3.0 is in the first and the third
        gens = [([3.0, 1.0], [1, 0]), ([-1.0, 2.0, 4.0], [0, 1, 0]),
                ([3.0], [0])]
        assert ([[tj.tolist() for tj in e] for e in events(gens, 2)]
                == [[[1.0, 3.0, 4.0]], [[2.0, 3.0]]])
        gens[2] = ([3.0], [1])
        assert events(gens, 2) is None
        assert events([(t, [0] * len(t)) for t, _ in gens], 1) is None

    def test_redraw_moves_descendants(self, d2_model):
        # row 1 (immigrant) ties row 0 and is redrawn; its child (row 2,
        # component 1) and grandchild (row 3, component 0) move with it,
        # and row 4, a child of row 0, stays
        times = np.array([1.0, 1.0, 1.5, 2.25, 3.0])
        comps = np.array([0, 0, 1, 0, 0])
        parents = np.array([-1, -1, 1, 2, 0])
        _, redraws = self.window(times, comps, parents, None, d2_model,
                                 np.random.default_rng(5))
        assert redraws.tolist() == [1]
        assert times[1] == np.random.default_rng(5).uniform(self.LO,
                                                            self.HORIZON)
        assert times[2] - times[1] == pytest.approx(0.5, abs=1e-14)
        assert times[3] - times[2] == pytest.approx(0.75, abs=1e-14)
        assert times[[0, 4]].tolist() == [1.0, 3.0]

    def test_unseparable_tie_raises(self, d2_model):
        class StuckGenerator:
            def uniform(self, lo, hi):
                return 1.0

        times, comps, parents = self.crafted()
        with pytest.raises(NumericError, match="tied event times"):
            self.window(times[:5], comps[:5], parents[:5], None, d2_model,
                        StuckGenerator())


class TestBurnIn:
    def test_covers_kernel_tails(self, d2_model):
        b = hm.default_burn_in(d2_model)
        active = [k for row in d2_model.kernels for k in row if k.l1_norm > 0]
        assert sum(k.tail_mass(b) for k in active) < 1e-6 * np.min(d2_model.eta)

    def test_zero_for_poisson(self, poisson2_model):
        assert hm.default_burn_in(poisson2_model) == 0.0

    def test_heavy_tail_scale(self):
        model = hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])
        b = hm.default_burn_in(model)
        assert 100.0 < b < 1000.0


class TestMechanismAgreement:
    def test_interevent_distributions_match(self, d2_model):
        """Cluster and thinning sample the same law."""
        log_c = hm.simulate(d2_model, 1500.0, seed=8)
        log_t = hm.simulate(d2_model, 1500.0, simulator="thinning", seed=42)

        def gaps(log):
            return np.diff(np.sort(np.concatenate(log.events)))

        assert stats.ks_2samp(gaps(log_c), gaps(log_t)).pvalue > 0.01

    def test_unknown_simulator(self, d1_model):
        with pytest.raises(ValueError, match="unknown simulator"):
            hm.simulate(d1_model, 10.0, simulator="exact")

    @pytest.mark.parametrize("simulator", ["cluster", "thinning"])
    @pytest.mark.parametrize("horizon", [1e20, 1e300])
    def test_impossible_window_refused(self, d1_model, simulator, horizon):
        # refused before any draw: the immigrant count would overflow
        # numpy's Poisson sampler, and thinning would never end
        with pytest.raises(ValueError,
                           match=re.escape(f"horizon {horizon:g} with ")
                           + r"burn-in \S+ expects \S+ events"):
            hm.simulate(d1_model, horizon, simulator, seed=1)

    def test_argument_validation(self, d1_model):
        with pytest.raises(ValueError):
            hm.simulate(d1_model, 0.0)
        with pytest.raises(ValueError):
            hm.simulate(d1_model, 10.0, burn_in=-1.0)

    @pytest.mark.parametrize("simulator", ["cluster", "thinning"])
    @pytest.mark.parametrize("kwargs,name", [
        ({"horizon": float("nan")}, "horizon"),
        ({"horizon": float("inf")}, "horizon"),
        ({"horizon": 10.0, "burn_in": float("nan")}, "burn-in"),
    ], ids=["nan-horizon", "inf-horizon", "nan-burn-in"])
    def test_non_finite_window_rejected(self, d1_model, simulator, kwargs,
                                        name):
        # NaN fails every comparison and thinning never reaches an infinite
        # horizon, so both would run on unless finiteness is checked
        with pytest.raises(ValueError, match=f"{name} must be .* finite"):
            hm.simulate(d1_model, simulator=simulator, seed=1, **kwargs)
