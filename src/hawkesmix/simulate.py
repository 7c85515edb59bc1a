"""Exact simulation of stationary multivariate Hawkes processes.

Two independent mechanisms are implemented.  The cluster simulator uses the
Poisson cluster (branching) representation: immigrants arrive as independent
Poisson streams at the baseline rates, and every event of component ``i``
spawns Poisson(``M[i, j]``) children in component ``j`` at i.i.d. kernel
delays.  It draws these by kernel pair, not by parent: each generation's
``n`` parents in component ``i`` get one Poisson(``n M[i, j]``) total of
children in ``j``, spread uniformly over them, which is the same law.
Its frontier is one array of times per component, so each generation
reads its parents, and the window its events, from their component's
own rows.  The thinning simulator is Ogata's algorithm with a piecewise
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
of arrays from one generator, each event tagged with its replicate
(:func:`simulate_cluster_batch`); a single log is the one-replicate case.
Which replicate a parent belongs to plays no part in the law of its
offspring, so each kernel pair draws one Poisson total over the parents
of every replicate at once, and the children inherit their parents'
tags.  This is how the Monte Carlo harnesses simulate small replicates,
whose cost would otherwise be per-call and per-draw overhead.

Both simulate on ``[-B, T]`` and return events clipped to ``[0, T]``; with
the default burn-in ``B`` the result is statistically indistinguishable from
a stationary window.  Exact time ties (probability zero, but possible in
floating point) are checked per replicate and component inside the window
``[0, T]`` and resolved by re-drawing the later event, so each log carries
strictly increasing times per component; ``meta["tie_redraws"]`` counts
the re-draws.  The cluster simulator redraws one pass of ties component
by component, each component's in row order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericError, require_index, require_integer
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
# the most events a simulation window may expect: past it the arrays would
# not fit in memory, numpy's Poisson sampler refuses the immigrant counts
# (past ~9e18) and thinning would run for ever
_MAX_EXPECTED_EVENTS = 2**31
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
    Rows are ordered by generation, then component, then as in the
    simulator's frontier: the immigrants of one component by replicate,
    each replicate's in draw order; the children of one generation and
    component by the source component of the kernel pair that drew them,
    then in draw order, with the replicates of a batch interleaved.
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


def _burn_in(model: HawkesModel, horizon: float, burn_in,
             replicates: int = 1) -> float:
    """Checked burn-in of a simulation (default per :func:`default_burn_in`);
    refuses a non-finite or out-of-range window, and ``replicates`` windows
    expected to hold ``_MAX_EXPECTED_EVENTS`` events or more."""
    model.validate()
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    b = default_burn_in(model) if burn_in is None else float(burn_in)
    if not (np.isfinite(b) and b >= 0.0):
        raise ValueError(f"burn-in must be >= 0 and finite, got {b}")
    expected = float(np.sum(model.mean_intensity)) * (horizon + b) * replicates
    if not expected < _MAX_EXPECTED_EVENTS:
        times = f" times {replicates} replicates" if replicates > 1 else ""
        raise ValueError(
            f"horizon {horizon:g} with burn-in {b:g}{times} expects "
            f"{expected:.3g} events; a simulation must expect fewer than "
            f"{_MAX_EXPECTED_EVENTS}")
    return b


def _window_events(times, tags, reps, origins, model, lo, horizon, gen):
    """Sorted event times inside ``[0, horizon]`` per replicate and component.

    ``times[j]`` holds every row of component ``j``, and ``tags[j]`` their
    replicates among ``reps`` (``tags`` is ``None`` for one replicate).
    ``origins()`` returns the rows' parents, per component ``j`` a pair of
    arrays: the parent's component (-1 for an immigrant) and its row in
    ``times`` of that component; it is called only when a tie must be
    redrawn.  Returns ``(events, redraws)``: ``events[r][j]`` holds
    replicate ``r``'s component-``j`` times and ``redraws[r]`` counts the
    rows of replicate ``r`` that were redrawn.  The later row of each exact
    tie within one (replicate, component) is redrawn in place from ``gen``
    (an immigrant uniformly on ``[lo, horizon]``, a child by a new delay
    from its parent), until none is left.  One pass redraws the ties of
    component 0 in row order, then those of component 1, and so on.
    """
    redraws = np.zeros(reps, dtype=np.int64)
    bounds = np.arange(reps + 1)
    parents = None
    for _ in range(100):
        events = [[] for _ in range(reps)]
        tied = []
        for j, tj in enumerate(times):
            rows = (tj >= 0.0) & (tj <= horizon)
            rj = None
            if tags is not None:
                # the window rows grouped by replicate, each replicate's in
                # row order; one sort of each replicate's times then
                # orders them
                rows = np.flatnonzero(rows)
                rj = tags[j][rows]
                by_tag = np.argsort(rj, kind="stable")
                rows, rj = rows[by_tag], rj[by_tag]
            wj = tj[rows]
            cuts = [0, wj.size] if rj is None else np.searchsorted(
                rj, bounds).tolist()
            for r in range(reps):
                seg = wj[cuts[r]:cuts[r + 1]]
                seg.sort()
                events[r].append(seg)
            same = wj[1:] == wj[:-1]
            if rj is not None:
                same &= rj[1:] == rj[:-1]
            if same.any():
                # the rows behind the sorted times, ties in row order
                if rj is None:
                    rows = np.flatnonzero(rows)
                    order = np.argsort(tj[rows], kind="stable")
                else:
                    order = np.lexsort((tj[rows], rj))
                tied.append((j, np.sort(rows[order[1:][same]])))
        if not tied:
            return [tuple(e) for e in events], redraws
        if parents is None:
            parents = origins()
        for j, rows in tied:
            owners = (np.zeros(rows.size, dtype=np.int64) if tags is None
                      else tags[j][rows])
            redraws += np.bincount(owners, minlength=reps)
            pc, pq = parents[j]
            for q in rows.tolist():
                c = pc[q]
                if c < 0:
                    times[j][q] = gen.uniform(lo, horizon)
                else:
                    kern = model.kernels[c][j]
                    times[j][q] = (times[c][pq[q]]
                                   + kern.sample_delays(gen, 1)[0])
    raise NumericError("could not separate tied event times")


def _cluster(model: HawkesModel, horizon: float, b: float, gen, seed,
             reps: int, return_trace: bool):
    """Cluster simulation of ``reps`` replicates drawn from ``gen``.

    Immigrants are drawn per component ``j``: the counts of every
    replicate, ``poisson(eta_j (T + B), size=reps)``, then their times,
    one uniform block on ``[-B, T]`` shared out over the replicates in
    order.  Offspring are drawn by kernel pair and generation.  For the
    ``n`` parents in component ``i`` of one generation, over every
    replicate, and each active kernel ``(i, j)`` of mass ``M_ij``, the
    generator draws the number of children ``k ~ Poisson(n M_ij)``, then
    one ``(2, k)`` block ``u`` of uniforms, then new values for any exact
    zeros of ``u[0]``.  Child ``c`` has the delay ``F^{-1}(u[0, c])`` by
    the kernel's inverse CDF and the parent in row ``min(floor(u[1, c]
    n), n - 1)`` of the frontier, whose replicate tag it takes.  This is
    the law of per-parent draws: a sum of ``n`` i.i.d. Poisson(``M_ij``)
    counts is Poisson(``n M_ij``), and given that total, independent
    uniform picks make the per-parent counts multinomial, so they are
    again i.i.d. Poisson(``M_ij``), with i.i.d. delays, whatever replicate
    each parent belongs to.  The only approximation is the ``2**-53`` grid
    of ``u``, on which the delays already sit.

    The frontier is kept per component: one array of times (and, for a
    batch, of replicate tags) per component, whose rows are the
    immigrants of that component, then in later generations the children
    of pairs ``(0, j), (1, j), ...`` in that order.  The parents of
    component ``i`` are therefore read straight from its array, and the
    window of each component is cut from its own rows.  The genealogy
    (every child's parent row) is kept only as the per-pair parent picks,
    and built from them when a trace is asked for or a tie must be
    redrawn.  One replicate needs no tags, and its draws are those of a
    batch of one.  ``seed`` goes to every log's ``meta``.
    """
    d = model.d
    span = horizon + b
    # the smallest unsigned type holding every tag keeps the tag arrays
    # small and their stable sorts radix sorts
    tag_type = np.min_scalar_type(reps - 1)
    # a single replicate needs no tags, which spares long single logs the
    # tag arrays
    tagged = reps > 1

    sizes = np.empty((reps, d), dtype=np.int64)
    cur = []
    for j in range(d):
        sizes[:, j] = gen.poisson(model.eta[j] * span, size=reps)
        cur.append(gen.uniform(-b, horizon, size=int(sizes[:, j].sum())))
    immigrants = sizes.sum(axis=1)
    # the frontier, per component: its times and (tagged) replicate tags
    cur_r = ([np.repeat(np.arange(reps, dtype=tag_type), sizes[:, j])
              for j in range(d)] if tagged else None)
    no_times, no_tags = np.empty(0), np.empty(0, dtype=tag_type)
    # per component, its frontier times (and tags) of every generation;
    # per generation after the first, per component, the (i, pick) of each
    # pair feeding it
    hist_t = [[t] for t in cur]
    hist_r = [[r] for r in cur_r] if tagged else None
    links = []
    # per replicate, the deepest generation holding an event (0: immigrants
    # only)
    deepest = np.zeros(reps, dtype=np.int64)
    generation = 0
    while any(t.size for t in cur):
        generation += 1
        if generation > _MAX_GENERATIONS:
            raise NumericError(
                f"cluster recursion exceeded {_MAX_GENERATIONS} generations"
            )
        # per child component, per kernel pair feeding it: the children's
        # times, their parents' component and picks, and their tags
        nxt_t = [[] for _ in range(d)]
        nxt_p = [[] for _ in range(d)]
        nxt_r = [[] for _ in range(d)]
        for i in range(d):
            pt = cur[i]
            n = pt.size
            if not n:
                continue
            for j, kern in model.active[i]:
                k = gen.poisson(n * kern.l1_norm)
                if not k:
                    continue
                # row 0 gives the children's delays by the inverse CDF once
                # its exact zeros are redrawn, and row 1 picks their parents
                u = gen.random((2, k))
                if not u[0].all():
                    redraw_zeros(gen, u[0])
                pick = np.minimum((u[1] * n).astype(np.int64), n - 1)
                # u[0] lies in (0, 1), so the kernel need not check it
                child_t = pt[pick]
                child_t += kern._inverse_cdf(u[0])
                nxt_t[j].append(child_t)
                nxt_p[j].append((i, pick))
                if tagged:
                    nxt_r[j].append(cur_r[i][pick])
        if not any(nxt_t):
            break
        for j in range(d):
            cur[j] = np.concatenate(nxt_t[j]) if nxt_t[j] else no_times
            hist_t[j].append(cur[j])
            if tagged:
                cur_r[j] = np.concatenate(nxt_r[j]) if nxt_r[j] else no_tags
                deepest[cur_r[j]] = generation
                hist_r[j].append(cur_r[j])
        if not tagged:
            deepest[0] = generation
        links.append(nxt_p)

    # each component's rows in one array; its per-generation arrays are
    # released as it is built
    counts = [[t.size for t in h] for h in hist_t]
    times, tags = hist_t, hist_r
    for j in range(d):
        times[j] = np.concatenate(times[j])
        if tagged:
            tags[j] = np.concatenate(tags[j])
    events, redraws = _window_events(times, tags, reps,
                                     lambda: _lineage(counts, links), model,
                                     -b, horizon, gen)
    meta = {"simulator": "cluster", "seed": _seed_meta(seed), "burn_in": b,
            "horizon": horizon}
    logs = [
        EventLog(d, horizon, events[r],
                 {**meta, **({"replicate": r} if tagged else {}),
                  "immigrants": int(immigrants[r]),
                  "generations": int(deepest[r]),
                  "tie_redraws": int(redraws[r])})
        for r in range(reps)
    ]
    trace = (_trace(times, tags, _lineage(counts, links), counts, tag_type)
             if return_trace else None)
    return logs, trace


def _lineage(counts, links):
    """Per component ``j``, the parents of its rows as two arrays: the
    parent's component (-1 for an immigrant) and its row within that
    component.  ``counts[j][g]`` is the number of component-``j`` rows in
    generation ``g``, and ``links[g - 1][j]`` lists the ``(i, pick)`` of
    each pair that fed component ``j`` in generation ``g``, in order."""
    # where each component's generation-g rows start
    starts = [np.cumsum([0] + c[:-1]) for c in counts]
    out = []
    for j, c in enumerate(counts):
        pc = [np.full(c[0], -1, dtype=np.int64)]
        pq = [np.full(c[0], -1, dtype=np.int64)]
        for g, pairs in enumerate(links, start=1):
            for i, p in pairs[j]:
                pc.append(np.full(p.size, i, dtype=np.int64))
                pq.append(starts[i][g - 1] + p)
        out.append((np.concatenate(pc), np.concatenate(pq)))
    return out


def _trace(times, tags, lineage, counts, tag_type) -> ClusterTrace:
    """The :class:`ClusterTrace` of per-component rows ``times[j]`` (tags
    ``tags[j]``, ``None`` for one replicate) with parents ``lineage`` (see
    :func:`_lineage`), in the order generation, then component, then row."""
    sizes = np.array(counts, dtype=np.int64)
    d, depth = sizes.shape
    # the trace row of each component's row: where its (generation,
    # component) block starts, plus its place in the block
    block = np.cumsum(sizes.T.ravel()).reshape(depth, d).T - sizes
    own = np.cumsum(sizes, axis=1) - sizes
    rows = [np.repeat(block[j] - own[j], sizes[j]) + np.arange(t.size)
            for j, t in enumerate(times)]
    total = int(sizes.sum())
    out_t = np.empty(total)
    comps = np.empty(total, dtype=np.int64)
    gens = np.empty(total, dtype=np.int64)
    parents = np.full(total, -1, dtype=np.int64)
    out_r = np.zeros(total, dtype=tag_type)
    for j, k in enumerate(rows):
        out_t[k] = times[j]
        comps[k] = j
        gens[k] = np.repeat(np.arange(depth), sizes[j])
        if tags is not None:
            out_r[k] = tags[j]
        pc, pq = lineage[j]
        for i in range(d):
            mine = pc == i
            parents[k[mine]] = rows[i][pq[mine]]
    return ClusterTrace(out_t, comps, gens, parents, out_r)


def simulate_cluster_batch(
    model: HawkesModel,
    horizon: float,
    replicates: int,
    burn_in: float | None = None,
    seed=None,
    return_trace: bool = False,
):
    """Simulate independent replicates by the Poisson cluster representation.

    All ``replicates`` logs are drawn from the one random stream ``seed``.
    The replicates share one set of arrays, each event tagged with its
    replicate and children inheriting their parent's tag, so the array
    work, the call overhead and the draws are paid once per batch and
    kernel pair instead of once per replicate.  Per generation and kernel
    pair, one Poisson total of children is drawn over the parents of every
    replicate, and each child picks its parent uniformly among them; the
    offspring of each parent are thus i.i.d. Poisson(``M_ij``) whatever
    its replicate, and the replicates are independent.  A batched
    replicate is therefore not the log :func:`simulate_cluster` draws from
    any seed; a batch of one is bit for bit the :func:`simulate_cluster`
    log of ``seed``.

    Parameters
    ----------
    model : HawkesModel
        Must be subcritical; validated before any randomness is drawn.
    horizon : float
        Right end ``T`` of the observation window ``[0, T]``.
    replicates : int
        Number of replicates, at least one.
    burn_in : float, optional
        Length ``B`` of the pre-window ``[-B, 0)``; default per
        :func:`default_burn_in`.
    seed : int, SeedSequence or Generator, optional
        The random stream of the whole batch; every log's ``meta["seed"]``
        records it (``None`` for a generator), and in a batch of two or
        more ``meta["replicate"]`` records the log's place in it.
    return_trace : bool
        Also return the tagged :class:`ClusterTrace` of the whole batch.

    Returns
    -------
    list of EventLog
        One log per replicate, in order.
    """
    require_integer(minimum=1, replicates=replicates)
    b = _burn_in(model, horizon, burn_in, replicates)
    gen = np.random.default_rng(_seed(seed))
    logs, trace = _cluster(model, horizon, b, gen, seed, int(replicates),
                           return_trace)
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
    (log,), trace = _cluster(model, horizon, b, gen, seed, 1, return_trace)
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
