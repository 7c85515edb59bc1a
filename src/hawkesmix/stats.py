"""Centered linear statistics and Monte Carlo verification harnesses.

The centered statistic of an event log over ``[0, T]`` is

    S_T = sum_i [ sum_{events t of component i} f_i(t) - m_i int_0^T f_i ].

Normalized by the spectral standard deviation and composed with the
variance-ratio time change, its path converges to standard Brownian motion;
this module computes those objects from simulated logs and checks the
normal limit (Kolmogorov-Smirnov), the Brownian covariance structure on a
grid, and the decay of count covariances against both the spectral values
and the branching-process bound.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from ._special import kolmogi, kolmogorov, ndtr
from .branching import MixingBoundReport, check_exponents, mixing_bound
from .errors import (HypothesisError, NumericError, real_number,
                     real_numbers, require_index, require_integer,
                     require_seed, to_json)
from .model import HawkesModel
from .simulate import (EventLog, default_burn_in, simulate_cluster_batch,
                       spawn_seeds)
from .simulate import simulate  # noqa: F401 - bench/tracing.py wraps it
from .spectrum import cov_counts, variance_profile
from .testfunctions import TestFunction

__all__ = [
    "statistic_ST",
    "partial_statistics",
    "TimeChange",
    "time_change",
    "PathSample",
    "path_sample",
    "HarnessReport",
    "clt_harness",
    "DecayReport",
    "mixing_decay_diagnostic",
]

# largest time-change grid, 1000 times the default
_MAX_GRID = 10**6


def _check_compatible(log: EventLog, model: HawkesModel, f: TestFunction,
                      horizon: float) -> None:
    if log.d != model.d or len(f) != model.d:
        raise ValueError("log, model and test function dimensions differ")
    if horizon > log.horizon + 1e-9:
        raise ValueError("statistic horizon exceeds the simulated window")


def partial_statistics(log: EventLog, model: HawkesModel, f: TestFunction,
                       ts) -> np.ndarray:
    """Centered statistics ``S_t`` for every ``t`` in ``ts`` from one log.

    Sorted per-component prefix sums of the weights make the whole profile
    one pass over the events.
    """
    ts = real_numbers("ts", ts)
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise ValueError("statistic times must be finite and >= 0")
    _check_compatible(log, model, f, float(np.max(ts)) if ts.size else 0.0)
    m = model.mean_intensity
    out = np.zeros(ts.size)
    for i in range(model.d):
        times = log.events[i]
        if times.size:
            prefix = np.concatenate([[0.0], np.cumsum(f[i].value(times))])
            idx = np.searchsorted(times, ts, side="right")
            out += prefix[idx]
        out -= m[i] * np.asarray(f[i].integral(ts), dtype=float)
    return out


def statistic_ST(log: EventLog, model: HawkesModel, f: TestFunction,
                 horizon: float) -> float:
    """Centered statistic ``S_T`` of one event log over ``[0, horizon]``."""
    return float(partial_statistics(log, model, f,
                                    [real_number("horizon", horizon)])[0])


class TimeChange:
    """Variance-ratio time change ``u -> v_T(u)`` on a fixed grid.

    ``v_T(u)`` is the first grid time whose variance share
    ``sigma_t^2 / sigma_T^2`` reaches ``u``; evaluation is left-continuous
    with ties resolved to the smallest time.
    """

    def __init__(self, ts: np.ndarray, sigma2: np.ndarray):
        self.ts = ts
        self.sigma2 = sigma2
        self.sigma_T2 = float(sigma2[-1])
        if self.sigma_T2 <= 0.0:
            raise ValueError("total variance must be positive")
        diffs = np.diff(sigma2)
        if np.any(diffs < -1e-9 * self.sigma_T2):
            raise NumericError(
                "variance profile is not monotone; spectral quadrature "
                "tolerances are too loose for this grid"
            )
        self.ratio = np.maximum.accumulate(sigma2 / self.sigma_T2)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self.ratio, u - 1e-12, side="left")
        return self.ts[np.clip(idx, 0, self.ts.size - 1)]


def time_change(model: HawkesModel, f: TestFunction, horizon: float,
                grid_step: float | None = None,
                rel_tol: float = 1e-4) -> TimeChange:
    """Build the time change from the spectral variance profile.

    The grid step defaults to ``horizon / 1000``; the last grid point is
    ``horizon`` exactly so that ``v_T(1) = horizon``.  A step that gives
    more than ``10**6`` grid times is refused.  The default profile
    tolerance is looser than for a single variance because only the ratio
    curve matters here and adjacent grid variances differ at order
    ``sigma_T^2 / n``, far above the quadrature error.
    """
    horizon = real_number("horizon", horizon)
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be > 0, got {horizon}")
    grid_step = (horizon / 1000.0 if grid_step is None
                 else real_number("grid_step", grid_step))
    if not 0.0 < grid_step <= horizon:
        raise ValueError("grid step must lie in (0, horizon]")
    if horizon / grid_step > _MAX_GRID:
        raise ValueError(f"grid_step {grid_step} gives more than {_MAX_GRID} "
                         f"grid times on horizon {horizon}")
    n = int(np.ceil(horizon / grid_step))
    ts = np.minimum(grid_step * np.arange(1, n + 1), horizon)
    ts[-1] = horizon
    sigma2 = variance_profile(model, f, ts, rel_tol=rel_tol)
    return TimeChange(ts, sigma2)


@dataclass(frozen=True)
class PathSample:
    """Normalized statistic path ``W_T(u) = S_{v_T(u)} / sigma_T`` on a grid."""

    grid: np.ndarray
    values: np.ndarray
    sigma_T: float

    to_dict = to_json


def _unit_grid(grid) -> np.ndarray:
    """``grid`` as a float array, which must be nonempty and strictly
    increasing inside ``(0, 1]``."""
    grid = np.asarray(grid, dtype=float)
    # negated, so a NaN point fails
    if not (grid.ndim == 1 and grid.size and np.all(grid > 0.0)
            and np.all(grid <= 1.0) and np.all(np.diff(grid) > 0.0)):
        raise ValueError("grid must be nonempty and strictly increasing "
                         "inside (0, 1]")
    return grid


def path_sample(log: EventLog, model: HawkesModel, f: TestFunction,
                tc: TimeChange, grid) -> PathSample:
    """The path of ``log`` at the points of ``grid``, nonempty and strictly
    increasing inside ``(0, 1]``."""
    grid = _unit_grid(grid)
    v = tc(grid)
    sigma_t = float(np.sqrt(tc.sigma_T2))
    values = partial_statistics(log, model, f, v) / sigma_t
    return PathSample(grid, values, sigma_t)


@dataclass
class HarnessReport:
    """Monte Carlo check of the normal limit and Brownian path structure.

    ``flags`` holds one boolean per check at the recorded tolerances:
    ``normal_ks`` (statistic distribution), ``brownian_cov`` (path
    covariances against ``min(u, v)``), and ``unit_variance`` (of the
    normalized endpoint).
    """

    replicates: int
    horizon: float
    seed: int
    grid: np.ndarray
    sigma_T: float
    statistic_mean: float
    statistic_mean_se: float
    ks_stat: float
    ks_pvalue: float
    ks_critical: float
    level: float
    w_cov: np.ndarray
    cov_target: np.ndarray
    max_cov_dev: float
    cov_tol: float
    var_w1: float
    var_w1_tol: float
    flags: dict = field(default_factory=dict)
    # raw per-replicate material for CSV export; left out of to_dict so the
    # JSON report stays a summary
    samples: np.ndarray | None = field(default=None, metadata={"json": False})
    w_paths: np.ndarray | None = field(default=None, metadata={"json": False})

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def to_dict(self) -> dict:
        return {**to_json(self), "passed": self.passed}


_DEFAULT_GRID = np.arange(1, 11) / 10.0
_SPECTRAL_ABS_TOL = 1e-9


# expected events per block of cluster replicates.  Replicates expected to
# hold at most half of it share a block, simulated as one batch from one
# random stream, so the simulator's per-call and per-draw overhead is paid
# once per block and kernel pair.  Per replicate, against lone runs (2-d
# exponential model, 2-core x86-64, process CPU on one pinned core, 64
# replicates, medians of 7 interleaved rounds, two sessions), batches of 2
# cost 0.65-0.86x at 250-4k expected events each, of 4 0.36-0.53x, of 8
# 0.23-0.44x and of 32 0.09-0.28x; at clt-test's 13.4k events, 0.76-0.86x,
# 0.60-0.64x, 0.51-0.61x and 0.52-0.66x.  On the same core, clt-test's
# 1000 replicates at T = 2000 took 1.83-2.08 s alone (2**14), 1.73-1.76 s
# in pairs (2**15), 1.11-1.29 s in fours (2**16) and 1.11-1.19 s in nines
# (2**17), and decay's 4000 power-law replicates (~307 events) 0.08-0.11 s
# in blocks of 53 and 0.06-0.09 s in blocks of 213.  A batch holds its
# rows until its window is cut (one group of rows per component, see
# ``simulate._CUT_ROWS``), so its memory grows with it; 2**16 takes most
# of the gain.
_BATCH_EVENTS = 1 << 16


def _worker_count(requested: int, chunks: int) -> int:
    """Processes to spread ``chunks`` replicate chunks over: ``requested``,
    capped at the CPUs this process may run on and at ``chunks``, and 1
    where processes cannot be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(requested, len(os.sched_getaffinity(0)), chunks))


# the ``work`` of the pool this process serves; set only in pool processes
_work = None


def _serve(work) -> None:
    """Pool initializer: keep ``work``, inherited through the fork."""
    global _work
    _work = work


def _run(part):
    """``work(part)``: what every pool process runs for each part."""
    return _work(part)


def _forked(work, parts: list) -> list:
    """``[work(part) for part in parts]``, every part but the first computed
    in a pool of forked processes while this one computes the first.

    The pool processes inherit ``work`` with its closure, so only parts and
    results are pickled.  An exception raised in a pool process is raised
    here with its type and message, and a pool process that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool`, a
    ``RuntimeError``.  On an error the other pool processes finish their
    current part before they are joined.  A fork copies only the calling
    thread, so the caller should run no other.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(len(parts) - 1,
                             multiprocessing.get_context("fork"),
                             initializer=_serve, initargs=(work,)) as pool:
        futures = [pool.submit(_run, part) for part in parts[1:]]
        return [work(parts[0])] + [future.result() for future in futures]


def _check_replicates(replicates, seed, workers) -> None:
    """Refuse fewer than 10 replicates, a negative seed, a replicate count
    or seed that is not an integer, and a worker count that is not an
    integer >= 1."""
    if isinstance(replicates, numbers.Integral) and replicates < 10:
        raise ValueError(f"need at least 10 replicates, got {replicates}")
    require_integer(replicates=replicates, seed=require_seed(seed))
    require_integer(1, workers=workers)


def _batch_size(model: HawkesModel, horizon: float, burn_in: float) -> int:
    """Cluster replicates per :func:`simulate_cluster_batch` call:
    ``floor(_BATCH_EVENTS / n)`` for ``n = sum(mean_intensity) *
    (horizon + burn_in)``, the expected event count of one replicate, and
    at least 1."""
    expected = float(np.sum(model.mean_intensity)) * (horizon + burn_in)
    return max(1, int(_BATCH_EVENTS // expected))


def _replicate_rows(model: HawkesModel, horizon: float, replicates: int,
                    seed: int, row, *, workers: int = 1) -> np.ndarray:
    """Stack ``row(log)`` over seeded replicate logs, in replicate order.

    The replicates are cut into consecutive blocks of :func:`_batch_size`
    replicates (the last may be shorter), and block ``k`` is one
    :func:`~hawkesmix.simulate.simulate_cluster_batch` call on the ``k``-th
    stream spawned from ``seed``, so the rows depend on the block
    partition, which the model, horizon, burn-in and replicate count fix.
    The burn-in depends only on the model and is computed once, before any
    fork, like the model's mean intensity, which the callers' validation
    caches.

    The blocks are split into ``workers`` contiguous parts, capped by
    :func:`_worker_count`; this process computes the first part and forked
    processes the others, and the parts' rows are stacked in order.  So
    the rows do not depend on the worker count.
    """
    burn_in = default_burn_in(model)
    size = _batch_size(model, horizon, burn_in)
    sizes = [min(size, replicates - k) for k in range(0, replicates, size)]
    blocks = list(zip(spawn_seeds(seed, len(sizes)), sizes))

    def rows(part) -> np.ndarray:
        return np.vstack([row(log) for s, n in part
                          for log in simulate_cluster_batch(
                              model, horizon, n, burn_in=burn_in, seed=s)])

    n = _worker_count(workers, len(blocks))
    if n == 1:
        return rows(blocks)
    cuts = [len(blocks) * k // n for k in range(n + 1)]
    return np.vstack(_forked(rows, [blocks[lo:hi]
                                    for lo, hi in zip(cuts, cuts[1:])]))


def clt_harness(model: HawkesModel, f: TestFunction, horizon: float,
                replicates: int, seed: int, beta: float = 3.0,
                delta: float = 2.0, grid: list[float] | None = None,
                level: float = 0.01, grid_step: float | None = None, *,
                workers: int = 1) -> HarnessReport:
    """Simulate cluster replicate logs and test the normal and Brownian limits.

    The limit theory needs kernels with a finite moment of order
    ``1 + beta``, weights locally ``(2 + delta)``-integrable (automatic
    here, all weight forms are bounded), and ``(beta - 1) delta > 2``;
    inadmissible pairs raise :class:`HypothesisError` before any
    simulation.

    Parameters
    ----------
    model, f : HawkesModel, TestFunction
        Model and weight functions of the statistic.
    horizon, replicates, seed : float, int, int
        Window length, Monte Carlo size, and master seed; the streams of
        the replicate blocks are spawned from the seed, so reports are
        reproducible bit for bit.
    beta, delta : float
        Moment and integrability exponents backing the limit theorems.
    grid : array_like, optional
        Time-change evaluation grid in ``(0, 1]``; defaults to
        ``{0.1, ..., 1.0}``.
    level : float
        Test level in ``(0, 1)`` for the Kolmogorov-Smirnov critical value.
    grid_step : float, optional
        Step of the time-change grid; see :func:`time_change`.
    workers : int
        Processes the replicates are spread over, an integer >= 1; all but
        this one are forked from it, and the report does not depend on it.
    """
    _check_replicates(replicates, seed, workers)
    beta, delta, level = (real_number("beta", beta),
                          real_number("delta", delta),
                          real_number("level", level))
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    model.validate(beta)
    if (beta - 1.0) * delta <= 2.0:
        raise HypothesisError(
            f"limit theorem needs (beta - 1) * delta > 2, got "
            f"({beta} - 1) * {delta} = {(beta - 1.0) * delta:.6g}"
        )
    grid = _unit_grid(_DEFAULT_GRID if grid is None else grid)

    tc = time_change(model, f, horizon, grid_step)
    sigma_t = float(np.sqrt(tc.sigma_T2))
    v_times = tc(grid)
    eval_times = np.append(v_times, horizon)

    stats = _replicate_rows(
        model, horizon, replicates, seed,
        lambda log: partial_statistics(log, model, f, eval_times),
        workers=workers,
    )
    w = stats[:, :-1] / sigma_t
    s_T = stats[:, -1]

    z = np.sort(s_T / sigma_t)
    n = replicates
    cdf = ndtr(z)
    steps = np.arange(n) / n
    ks_stat = float(max(np.max(cdf - steps), np.max(steps + 1.0 / n - cdf)))
    ks_pvalue = float(kolmogorov(np.sqrt(n) * ks_stat))
    ks_critical = float(kolmogi(level) / np.sqrt(n))

    w_cov = np.cov(w, rowvar=False, ddof=1)
    w_cov = np.atleast_2d(w_cov)
    cov_target = np.minimum.outer(grid, grid)
    max_cov_dev = float(np.max(np.abs(w_cov - cov_target)))
    cov_tol = 4.0 / np.sqrt(replicates)
    var_w1 = float(np.var(w[:, -1] if grid[-1] == 1.0 else s_T / sigma_t, ddof=1))
    var_w1_tol = 3.0 * np.sqrt(2.0 / replicates)

    flags = {
        "normal_ks": bool(ks_stat < ks_critical),
        "brownian_cov": bool(max_cov_dev < cov_tol),
        "unit_variance": bool(abs(var_w1 - 1.0) < var_w1_tol),
    }
    return HarnessReport(
        replicates=replicates,
        horizon=horizon,
        seed=seed,
        grid=grid,
        sigma_T=sigma_t,
        statistic_mean=float(np.mean(s_T)),
        statistic_mean_se=float(np.std(s_T, ddof=1) / np.sqrt(n)),
        ks_stat=ks_stat,
        ks_pvalue=ks_pvalue,
        ks_critical=ks_critical,
        level=level,
        w_cov=w_cov,
        cov_target=cov_target,
        max_cov_dev=max_cov_dev,
        cov_tol=cov_tol,
        var_w1=var_w1,
        var_w1_tol=var_w1_tol,
        flags=flags,
        samples=s_T / sigma_t,
        w_paths=w,
    )


@dataclass
class DecayReport:
    """Empirical, spectral, and bound values of count covariances by lag.

    Windows are ``A = (0, w]`` and ``B = (lag, lag + w]``; the branching
    bound is evaluated at the gap ``lag - w`` separating the windows, since
    it dominates covariances across any such separation.
    """

    i: int
    j: int
    window_len: float
    lags: np.ndarray
    empirical: np.ndarray
    empirical_se: np.ndarray
    spectral: np.ndarray
    bound: np.ndarray | None
    replicates: int
    seed: int
    mixing: MixingBoundReport | None = None

    to_dict = to_json


def _decay_row(i: int, j: int, window_len: float, lags: np.ndarray):
    """The counts ``N_i((0, w])`` and ``N_j((lag, lag + w])`` of one log,
    one per lag, as a function of the log.

    Windows are half-open, so each count is the difference of two
    right-sided ``searchsorted`` positions, as in :meth:`EventLog.count`;
    one search per component covers every window edge.
    """
    n = lags.size
    edges = np.concatenate([[0.0, window_len], lags, lags + window_len])

    def row(log: EventLog) -> np.ndarray:
        at_i = np.searchsorted(log.events[i], edges, side="right")
        at_j = (at_i if j == i
                else np.searchsorted(log.events[j], edges, side="right"))
        out = np.empty(n + 1)
        out[0] = at_i[1] - at_i[0]
        out[1:] = at_j[2 + n:] - at_j[2:2 + n]
        return out

    return row


def mixing_decay_diagnostic(model: HawkesModel, i: int, j: int,
                            window: float, lags: list[float], replicates: int,
                            seed: int, beta: float | None = None,
                            gamma: float | None = None, *,
                            workers: int = 1) -> DecayReport:
    """Estimate count covariances across lags and compare with theory.

    For each lag ``tau``, estimates ``Cov(N_i((0, w]), N_j((tau, tau + w]))``
    over independent replicates simulated by the cluster representation,
    spread over ``workers`` processes, which changes no value.  It reports
    it beside the spectral value from :func:`hawkesmix.spectrum.cov_counts`
    (``abs_tol`` 1e-9, default ``rel_tol``) and, when ``beta`` and
    ``gamma`` are given (both or neither), the branching covariance-decay
    bound at the window gap; those exponents are checked by
    :func:`~hawkesmix.branching.check_exponents` before any simulation.
    """
    _check_replicates(replicates, seed, workers)
    w = real_number("window", window)
    lags = real_numbers("lags", lags)
    if lags.size == 0:
        raise ValueError("need at least one lag")
    if not (np.isfinite(w) and w > 0.0):
        raise ValueError(f"window length must be positive and finite, got "
                         f"{w}")
    if not np.all((lags > w) & np.isfinite(lags)):
        raise ValueError("lags must exceed the window length and be finite, "
                         f"got {lags.tolist()}")
    if (beta is None) != (gamma is None):
        raise ValueError("the decay bound needs both beta and gamma, or "
                         f"neither; got beta={beta}, gamma={gamma}")
    if beta is None:
        model.validate()
    else:
        check_exponents(model, beta, gamma)
    require_index(model.d, i=i, j=j)
    horizon = float(np.max(lags)) + w

    counts = _replicate_rows(model, horizon, replicates, seed,
                             _decay_row(i, j, w, lags), workers=workers)

    base = counts[:, 0] - counts[:, 0].mean()
    emp = np.empty(lags.size)
    emp_se = np.empty(lags.size)
    for t in range(lags.size):
        far = counts[:, 1 + t] - counts[:, 1 + t].mean()
        prod = base * far
        emp[t] = prod.sum() / (replicates - 1)
        emp_se[t] = np.std(prod, ddof=1) / np.sqrt(replicates)

    spectral = np.array([
        cov_counts(model, i, j, (0.0, window),
                   (lag, lag + window), abs_tol=_SPECTRAL_ABS_TOL)
        for lag in lags
    ])

    bound = None
    mixing = None
    if beta is not None and gamma is not None:
        mixing = mixing_bound(model, beta, gamma, lags - w)
        bound = mixing.bounds
    return DecayReport(
        i=i,
        j=j,
        window_len=window,
        lags=lags,
        empirical=emp,
        empirical_se=emp_se,
        spectral=spectral,
        bound=bound,
        replicates=replicates,
        seed=seed,
        mixing=mixing,
    )
