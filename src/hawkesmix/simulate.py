"""Exact simulation of stationary multivariate Hawkes processes.

Two independent mechanisms are implemented.  The cluster simulator uses the
Poisson cluster (branching) representation: immigrants arrive as independent
Poisson streams at the baseline rates, and every event of component ``i``
spawns Poisson(``M[i, j]``) children in component ``j`` at i.i.d. kernel
delays.  The thinning simulator is Ogata's algorithm with a piecewise
constant dominating intensity, valid because every kernel family here is
nonincreasing in elapsed time: the intensity at a rejected candidate is the
next bound, and an accepted event in component ``j`` raises it by the jump
``sum_k h_jk(0+)``.  Each exponential kernel is a Markov state, decayed
from candidate to candidate and raised by ``h(0+)`` at each event of its
source, so it costs a scalar update per candidate and reads no history,
whatever the source's other kernels are; every other kernel (power-law and
uniform) is summed over a pruned history of its source's events, kept only
by sources with such a kernel.

The cluster simulator also draws many independent replicates in one set
of arrays, each event tagged with its replicate
(:func:`simulate_cluster_batch`); a single log is the one-replicate case.
Every replicate draws from its own generator exactly what a simulation of
it alone would, so batching changes no log.  This is how the Monte Carlo
harnesses simulate small replicates, whose cost would otherwise be
per-call overhead.

Both simulate on ``[-B, T]`` and return events clipped to ``[0, T]``; with
the default burn-in ``B`` the result is statistically indistinguishable from
a stationary window.  Exact time ties (probability zero, but possible in
floating point) are checked per replicate and component inside the window
``[0, T]`` and resolved by re-drawing the later event, so each log carries
strictly increasing times per component; ``meta["tie_redraws"]`` counts
the re-draws.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericError, require_index
from .kernels import redraw_zeros
from .model import HawkesModel

__all__ = [
    "EventLog",
    "ClusterTrace",
    "default_burn_in",
    "simulate_cluster",
    "simulate_cluster_batch",
    "simulate_thinning",
    "simulate",
    "spawn_seeds",
    "write_event_log",
    "read_event_log",
]

_MAX_GENERATIONS = 10_000
_WRITE_BLOCK = 1 << 16


@dataclass
class EventLog:
    """Events of one realization on the window ``[0, horizon]``.

    ``events[i]`` is the strictly increasing array of component-``i`` event
    times.  ``meta`` records how the log was produced.
    """

    d: int
    horizon: float
    events: tuple
    meta: dict = field(default_factory=dict)

    def count(self, i: int, a: float, b: float) -> int:
        """Number of component-``i`` events in the half-open interval ``(a, b]``."""
        require_index(self.d, i=i)
        if not (0.0 <= a <= b <= self.horizon):
            raise ValueError("interval must satisfy 0 <= a <= b <= horizon")
        t = self.events[i]
        return int(np.searchsorted(t, b, side="right") - np.searchsorted(t, a, side="right"))

    def total(self) -> int:
        return int(sum(len(t) for t in self.events))


@dataclass
class ClusterTrace:
    """Genealogy of a cluster simulation, including events outside the window.

    Arrays are aligned: event ``k`` has time ``times[k]``, component
    ``comps[k]``, generation ``gens[k]`` (0 for immigrants), parent row
    index ``parents[k]`` (-1 for immigrants) and replicate ``tags[k]``.
    """

    times: np.ndarray
    comps: np.ndarray
    gens: np.ndarray
    parents: np.ndarray
    tags: np.ndarray

    def roots(self) -> np.ndarray:
        """Immigrant row index of every event's cluster."""
        root = np.arange(self.times.size)
        parent = self.parents
        while True:
            has_parent = parent[root] >= 0
            if not has_parent.any():
                return root
            root = np.where(has_parent, parent[root], root)


def _seed(seed):
    """``seed`` itself, after refusing a negative integer by name."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _seed_meta(seed):
    """``seed`` as ``meta["seed"]`` records it, ready for JSON: a Python
    ``int`` for an integer seed, the entropy and spawn key of a
    :class:`~numpy.random.SeedSequence`, and ``None`` for a generator or
    no seed."""
    if isinstance(seed, np.random.SeedSequence):
        return {"entropy": np.asarray(seed.entropy).tolist(),
                "spawn_key": [int(k) for k in seed.spawn_key]}
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return None


def spawn_seeds(seed, n: int):
    """Independent per-replicate seed streams derived from one master seed."""
    return np.random.SeedSequence(_seed(seed)).spawn(n)


def default_burn_in(model: HawkesModel) -> float:
    """Burn-in so the window ``[0, T]`` is effectively stationary.

    Two scales are combined: the smallest ``B`` at which the total kernel
    mass beyond ``B`` drops under ``1e-6 * min(eta)``, and ten times the mean
    cluster duration proxy (mean kernel delay over the mean number of
    generations ``1 / (1 - rho)``).
    """
    if not any(model.active):
        return 0.0
    target = 1e-6 * float(np.min(model.eta))

    def tail(b):
        return sum(k.tail_mass(b) for row in model.active for _, k in row)

    hi = 1.0
    while tail(hi) >= target:
        hi *= 2.0
        if hi > 1e12:
            raise NumericError("kernel tails decay too slowly for a finite burn-in")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail(mid) < target:
            hi = mid
        else:
            lo = mid
    mass_scale = hi

    duration_scale = 10.0 * model.delay_moment(1.0) / (1.0 - model.rho)
    return max(mass_scale, duration_scale)


def _burn_in(model: HawkesModel, horizon: float, burn_in) -> float:
    """Checked burn-in of a simulation (default per :func:`default_burn_in`);
    refuses a non-finite or out-of-range window."""
    model.validate()
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    b = default_burn_in(model) if burn_in is None else float(burn_in)
    if not (np.isfinite(b) and b >= 0.0):
        raise ValueError(f"burn-in must be >= 0 and finite, got {b}")
    return b


def _window_events(times, comps, parents, tags, model, lo, horizon, gens):
    """Sorted event times inside ``[0, horizon]`` per replicate and component.

    Row ``k`` belongs to replicate ``tags[k]``, whose generator is
    ``gens[tags[k]]``.  Returns ``(events, redraws)``: ``events[r][j]``
    holds replicate ``r``'s component-``j`` times and ``redraws[r]`` counts
    the rows of replicate ``r`` that were redrawn.  The later row of each
    exact tie within one (replicate, component) is redrawn in place, in row
    order (an immigrant uniformly on ``[lo, horizon]``, a child by a new
    delay from its parent), until none is left.
    """
    reps = len(gens)
    redraws = np.zeros(reps, dtype=np.int64)
    bounds = np.arange(reps + 1)
    for _ in range(100):
        events = [[] for _ in range(reps)]
        tied = []
        for j in range(model.d):
            sel = (comps == j) & (times >= 0.0) & (times <= horizon)
            # one replicate needs no grouping by tag, and one sort of the
            # times is cheaper than the two stable argsorts below
            if reps == 1:
                tj = np.sort(times[sel])
                same = tj[1:] == tj[:-1]
                if same.any():
                    rows = np.flatnonzero(sel)
                    order = np.argsort(times[rows], kind="stable")
                    tied.append(rows[order[1:][same]])
                events[0].append(tj)
                continue
            # by time with ties in row order, then stably by replicate
            rows = np.flatnonzero(sel)
            rows = rows[np.argsort(times[rows], kind="stable")]
            rows = rows[np.argsort(tags[rows], kind="stable")]
            tj, rj = times[rows], tags[rows]
            same = (tj[1:] == tj[:-1]) & (rj[1:] == rj[:-1])
            if same.any():
                tied.append(rows[1:][same])
            cuts = np.searchsorted(rj, bounds).tolist()
            for r in range(reps):
                events[r].append(tj[cuts[r]:cuts[r + 1]])
        if not tied:
            return [tuple(e) for e in events], redraws
        tied = np.sort(np.concatenate(tied))
        redraws += np.bincount(tags[tied], minlength=reps)
        for k in tied:
            gen = gens[tags[k]]
            p = parents[k]
            if p < 0:
                times[k] = gen.uniform(lo, horizon)
            else:
                kern = model.kernels[comps[p]][comps[k]]
                times[k] = times[p] + kern.sample_delays(gen, 1)[0]
    raise NumericError("could not separate tied event times")


def _cluster(model: HawkesModel, horizon: float, b: float, gens, seeds,
             return_trace: bool):
    """Cluster simulation of one replicate per generator in ``gens``.

    Every event carries its replicate's tag, and replicate ``r`` draws
    from ``gens[r]`` exactly what a simulation of it alone would draw, in
    the same order: the rows of one replicate keep that simulation's row
    order, and each generation's draws are made replicate by replicate.
    ``seeds[r]`` goes to the ``meta`` of replicate ``r``'s log.
    """
    d = model.d
    reps = len(gens)
    span = horizon + b
    # the smallest unsigned type holding every tag keeps the tag arrays
    # small and their stable sorts radix sorts
    tag_type = np.min_scalar_type(reps - 1)

    sizes = np.empty((reps, d), dtype=np.int64)
    t_chunks = []
    for r, gen in enumerate(gens):
        for j in range(d):
            n = gen.poisson(model.eta[j] * span)
            sizes[r, j] = n
            t_chunks.append(gen.uniform(-b, horizon, size=n))
    immigrants = sizes.sum(axis=1)
    cur_t = np.concatenate(t_chunks)
    cur_c = np.repeat(np.tile(np.arange(d), reps), sizes.ravel())
    # a single replicate needs no tags, which spares long single logs the
    # tag arrays
    tagged = reps > 1
    cur_r = np.repeat(np.arange(reps, dtype=tag_type), immigrants)
    cur_idx = np.arange(cur_t.size)
    t_chunks, c_chunks, r_chunks = [cur_t], [cur_c], [cur_r]
    g_sizes = [cur_t.size]
    p_chunks = [np.full(cur_t.size, -1, dtype=np.int64)]
    offset = cur_t.size
    # per replicate, the deepest generation holding an event (0: immigrants
    # only)
    deepest = np.zeros(reps, dtype=np.int64)
    generation = 0
    while cur_t.size:
        generation += 1
        if generation > _MAX_GENERATIONS:
            raise NumericError(
                f"cluster recursion exceeded {_MAX_GENERATIONS} generations"
            )
        # per kernel pair with children: their times, parents and tags,
        # and their component and number
        nxt_t, nxt_p, nxt_r, pair_c, pair_n = [], [], [], [], []
        for i in range(d):
            sel = cur_c == i
            if not sel.any():
                continue
            pt = cur_t[sel]
            pidx = cur_idx[sel]
            if tagged:
                # the frontier is grouped by replicate: the generator and
                # the number of component-i parents of each replicate that
                # has any, and where its rows start
                pr = cur_r[sel]
                sizes = np.bincount(pr, minlength=reps)
                groups = [(gens[r], n) for r, n in enumerate(sizes.tolist())
                          if n]
                starts = np.cumsum(sizes[sizes > 0]) - sizes[sizes > 0]
            for j, kern in model.active[i]:
                if tagged:
                    counts = np.concatenate([gen.poisson(kern.l1_norm, size=n)
                                             for gen, n in groups])
                    tots = np.add.reduceat(counts, starts).tolist()
                    u = [(gen, gen.random(tot))
                         for (gen, _), tot in zip(groups, tots) if tot]
                    if not u:
                        continue
                    u = _open_uniforms(u)
                else:
                    counts = gens[0].poisson(kern.l1_norm, size=pt.size)
                    tot = int(counts.sum())
                    if tot == 0:
                        continue
                    u = gens[0].random(tot)
                    if not u.all():
                        u = redraw_zeros(gens[0], u)
                # u lies in (0, 1), so the kernel need not check it
                child_t = pt.repeat(counts)
                child_t += kern._inverse_cdf(u)
                nxt_t.append(child_t)
                nxt_p.append(pidx.repeat(counts))
                if tagged:
                    nxt_r.append(pr.repeat(counts))
                pair_c.append(j)
                pair_n.append(child_t.size)
        if not nxt_t:
            break
        cur_t = np.concatenate(nxt_t)
        cur_c = np.array(pair_c, dtype=np.int64).repeat(pair_n)
        par = np.concatenate(nxt_p)
        if tagged:
            cur_r = np.concatenate(nxt_r)
            if len(nxt_t) > 1:
                # regroup by replicate, each replicate's rows in order
                order = np.argsort(cur_r, kind="stable")
                cur_t, cur_c, cur_r, par = (cur_t[order], cur_c[order],
                                            cur_r[order], par[order])
            deepest[cur_r] = generation
        else:
            deepest[0] = generation
        cur_idx = offset + np.arange(cur_t.size)
        offset += cur_t.size
        t_chunks.append(cur_t)
        c_chunks.append(cur_c)
        if tagged:
            r_chunks.append(cur_r)
        g_sizes.append(cur_t.size)
        p_chunks.append(par)

    times = np.concatenate(t_chunks)
    comps = np.concatenate(c_chunks)
    parents = np.concatenate(p_chunks)
    tags = (np.concatenate(r_chunks) if tagged
            else np.zeros(times.size, dtype=tag_type))
    events, redraws = _window_events(times, comps, parents, tags, model, -b,
                                     horizon, gens)
    logs = [
        EventLog(d, horizon, events[r],
                 {"simulator": "cluster", "seed": _seed_meta(seeds[r]),
                  "burn_in": b, "horizon": horizon,
                  "immigrants": int(immigrants[r]),
                  "generations": int(deepest[r]),
                  "tie_redraws": int(redraws[r])})
        for r in range(reps)
    ]
    trace = None
    if return_trace:
        trace = ClusterTrace(times, comps,
                             np.repeat(np.arange(len(g_sizes)), g_sizes),
                             parents, tags)
    return logs, trace


def _open_uniforms(draws) -> np.ndarray:
    """The ``rng.random`` arrays of ``draws``, a list of ``(rng, u)``, joined
    after their exact zeros are redrawn from each array's own generator,
    as :meth:`~hawkesmix.kernels.Kernel.sample_delays` does."""
    u = np.concatenate([u for _, u in draws]) if len(draws) > 1 else draws[0][1]
    if not u.all():
        u = np.concatenate([redraw_zeros(gen, u) for gen, u in draws])
    return u


def simulate_cluster_batch(
    model: HawkesModel,
    horizon: float,
    seeds,
    burn_in: float | None = None,
    return_trace: bool = False,
):
    """Simulate independent replicates by the Poisson cluster representation.

    Replicate ``r`` draws from its own generator, made from ``seeds[r]`` (a
    seed or a :class:`numpy.random.Generator`), and its log is bit for bit
    the one :func:`simulate_cluster` returns for that seed.  The replicates
    share one set of arrays, each event tagged with its replicate and
    children inheriting their parent's tag, so the array work and the call
    overhead are paid once per batch instead of once per replicate.

    Parameters
    ----------
    model : HawkesModel
        Must be subcritical; validated before any randomness is drawn.
    horizon : float
        Right end ``T`` of the observation window ``[0, T]``.
    seeds : sequence
        One seed or generator per replicate, at least one.
    burn_in : float, optional
        Length ``B`` of the pre-window ``[-B, 0)``; default per
        :func:`default_burn_in`.
    return_trace : bool
        Also return the tagged :class:`ClusterTrace` of the whole batch.

    Returns
    -------
    list of EventLog
        One log per seed, in order.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one replicate seed")
    b = _burn_in(model, horizon, burn_in)
    gens = [np.random.default_rng(_seed(s)) for s in seeds]
    logs, trace = _cluster(model, horizon, b, gens, seeds, return_trace)
    return (logs, trace) if return_trace else logs


def simulate_cluster(
    model: HawkesModel,
    horizon: float,
    burn_in: float | None = None,
    seed=None,
    return_trace: bool = False,
):
    """Simulate by the Poisson cluster representation.

    Parameters
    ----------
    model : HawkesModel
        Must be subcritical; validated before any randomness is drawn.
    horizon : float
        Right end ``T`` of the observation window ``[0, T]``.
    burn_in : float, optional
        Length ``B`` of the pre-window ``[-B, 0)``; default per
        :func:`default_burn_in`.
    seed : int, SeedSequence or Generator, optional
        The random stream; ``meta["seed"]`` records ``None`` for a generator.
    return_trace : bool
        Also return the :class:`ClusterTrace` genealogy.
    """
    b = _burn_in(model, horizon, burn_in)
    gen = np.random.default_rng(_seed(seed))
    (log,), trace = _cluster(model, horizon, b, [gen], [seed], return_trace)
    return (log, trace) if return_trace else log


_PRUNE_EVERY = 2048


def simulate_thinning(
    model: HawkesModel,
    horizon: float,
    burn_in: float | None = None,
    seed=None,
):
    """Simulate by Ogata thinning with a piecewise constant dominating bound.

    Every kernel family in the package is nonincreasing in elapsed time, so
    the conditional intensity just after the current time dominates the
    intensity until the next event.  After a rejection the candidate's
    intensity is the new, tighter bound, and after an acceptance in
    component ``j`` the bound is that intensity plus the jump ``sum_k
    h_jk(0+)`` the new event adds (Ogata 1981).  The excitation a source
    component ``i`` gives component ``j`` through its kernel ``h_ij`` is
    read one of two ways, decided per kernel:

    * a kernel that declares a
      :attr:`~hawkesmix.kernels.Kernel.decay_rate` ``beta`` (exponential)
      is a Markov state ``S_ij = sum_s h_ij(t - s)`` (Ozaki 1979): it is
      multiplied by ``exp(-beta_ij dt)`` from one candidate to the next
      and gains ``h_ij(0+)`` at each event of ``i``, so it reads no history
      and costs one scalar update per candidate, whatever the other
      kernels of source ``i`` are;
    * every other kernel (power-law and uniform) is summed over a
      time-ordered history of its source's past events, kept only by
      sources with such a kernel, from which events whose excitation
      through these kernels has decayed away are pruned periodically.

    ``seed`` is the random stream, as for :func:`simulate_cluster`.
    ``meta`` counts the ``candidates`` proposed, the events ``accepted`` on
    ``[-B, T]`` and the ``tie_redraws`` of a candidate equal to the last
    accepted time.
    """
    b = _burn_in(model, horizon, burn_in)
    gen = np.random.default_rng(_seed(seed))
    d = model.d
    eta = model.eta.tolist()
    # an event of a history source is pruned once its summed contribution
    # through its source's history kernels has fallen below this level (the
    # states carry the exponential kernels exactly); contributions only
    # decay after that, so each dropped event adds less than eps_active to
    # any later intensity.  The total error grows with the number of events
    # pruned, which this does not bound.  A power-law tail stays above the
    # level for ~1e4 time units (PowerLawKernel(0.4, 1, 2.5)), so power-law
    # histories are effectively never pruned.
    eps_active = 1e-14 * min(eta)

    # one pass over the active kernels: jump[i] sums the h_ij(0+) an event
    # of i adds to the total intensity.  A kernel with a decay rate is a
    # Markov state, with the component it excites and its rate, and
    # gains[i] lists the (state, h_ij(0+)) pairs an event of i raises; every
    # other kernel's density h_ij goes into rows[i], and only the sources
    # with such a kernel keep a history
    jump, state, targets, rates = [], [], [], []
    gains = [[] for _ in range(d)]
    rows = {}
    for i, src in enumerate(model.active):
        at_zero = [float(kern.evaluate(0.0)) for _, kern in src]
        jump.append(sum(at_zero))
        for (j, kern), h0 in zip(src, at_zero):
            if kern.decay_rate is not None:
                gains[i].append((len(state), h0))
                state.append(0.0)
                targets.append(j)
                rates.append(kern.decay_rate)
            else:
                rows.setdefault(i, []).append((j, kern._density))
    history = {i: np.empty(0) for i in rows}
    events = [[] for _ in range(d)]
    last_accepted = -np.inf

    t = -b
    lam_bar = sum(eta)
    steps = candidates = accepted = tie_redraws = 0
    while True:
        steps += 1
        if steps % _PRUNE_EVERY == 0:
            for i, src in rows.items():
                dt = t - history[i]
                contrib = np.zeros(dt.size)
                for _, dens in src:
                    contrib += dens(dt)
                history[i] = history[i][contrib >= eps_active]

        t_cand = t + gen.exponential(1.0 / lam_bar)
        if t_cand > horizon:
            break
        candidates += 1
        lam = eta.copy()
        wait = t_cand - t
        state = [s * math.exp(-r * wait) for s, r in zip(state, rates)]
        for j, s in zip(targets, state):
            lam[j] += s
        for i, src in rows.items():
            if history[i].size:
                dt = t_cand - history[i]
                for j, dens in src:
                    lam[j] += float(np.add.reduce(dens(dt)))
        lam_tot = sum(lam)
        if lam_tot > lam_bar * (1.0 + 1e-9):
            raise NumericError("dominating bound violated in thinning")
        u = gen.random() * lam_bar
        if u < lam_tot:
            # first component whose cumulative intensity exceeds u
            j, acc = 0, lam[0]
            while acc <= u and j < d - 1:
                j += 1
                acc += lam[j]
            if t_cand == last_accepted:
                # exact tie: re-draw the waiting time (t_cand equals t, so
                # the states stand at t)
                tie_redraws += 1
                continue
            last_accepted = t_cand
            accepted += 1
            if t_cand >= 0.0:
                events[j].append(t_cand)
            if j in history:
                history[j] = np.append(history[j], t_cand)
            for n, h0 in gains[j]:
                state[n] += h0
            t = t_cand
            lam_bar = lam_tot + jump[j]
        else:
            # no event at t_cand, and intensities only decay until the next
            # one, so the freshly computed level is a valid tighter bound
            t = t_cand
            lam_bar = lam_tot

    # accepted in time order and never past the horizon
    out = tuple(np.array(e, dtype=float) for e in events)
    meta = {"simulator": "thinning", "seed": _seed_meta(seed), "burn_in": b,
            "horizon": horizon, "candidates": candidates, "accepted": accepted,
            "tie_redraws": tie_redraws}
    return EventLog(d, horizon, out, meta)


_SIMULATORS = {"cluster": simulate_cluster, "thinning": simulate_thinning}


def _simulator(name: str):
    """The simulation mechanism called ``name``."""
    if name not in _SIMULATORS:
        raise ValueError(f"unknown simulator {name!r}")
    return _SIMULATORS[name]


def simulate(model, horizon: float, simulator: str = "cluster",
             burn_in: float | None = None, seed: int | None = None):
    """Dispatch to one of the two simulation mechanisms by name; ``seed``
    (an integer, SeedSequence or generator) is their random stream."""
    return _simulator(simulator)(model, horizon, burn_in=burn_in, seed=seed)


def write_event_log(log: EventLog, csv_path) -> Path:
    """Write ``component,time`` rows plus a JSON sidecar next to the CSV."""
    csv_path = Path(csv_path)
    merged = np.concatenate(log.events) if log.d else np.empty(0)
    comps = np.concatenate(
        [np.full(len(t), i, dtype=np.int64) for i, t in enumerate(log.events)]
    )
    order = np.argsort(merged, kind="stable")
    with open(csv_path, "w", newline="") as fh:
        fh.write("component,time\r\n")
        # blocks bound the row strings held at once; tolist() because under
        # numpy 2 a numpy float's repr is "np.float64(...)"
        for lo in range(0, order.size, _WRITE_BLOCK):
            k = order[lo:lo + _WRITE_BLOCK]
            fh.write("".join(f"{c},{t!r}\r\n" for c, t in
                             zip(comps[k].tolist(), merged[k].tolist())))
    sidecar = csv_path.with_suffix(".json")
    with open(sidecar, "w") as fh:
        json.dump(
            {"d": log.d, "horizon": log.horizon, "meta": log.meta},
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
    return sidecar


def read_event_log(csv_path) -> EventLog:
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(".json")) as fh:
        side = json.load(fh)
    d = int(side["d"])
    per_comp = [[] for _ in range(d)]
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for comp, time in reader:
            per_comp[int(comp)].append(float(time))
    events = tuple(np.sort(np.asarray(t)) for t in per_comp)
    return EventLog(d, float(side["horizon"]), events, side.get("meta", {}))
