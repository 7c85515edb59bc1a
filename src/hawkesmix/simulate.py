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
    simulator's frontier: within one generation and component, by
    replicate, and each replicate's rows in the order of its lone run.
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
    refuses a non-finite or out-of-range window, and one expected to hold
    ``_MAX_EXPECTED_EVENTS`` events or more."""
    model.validate()
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    b = default_burn_in(model) if burn_in is None else float(burn_in)
    if not (np.isfinite(b) and b >= 0.0):
        raise ValueError(f"burn-in must be >= 0 and finite, got {b}")
    expected = float(np.sum(model.mean_intensity)) * (horizon + b)
    if not expected < _MAX_EXPECTED_EVENTS:
        raise ValueError(
            f"horizon {horizon:g} with burn-in {b:g} expects {expected:.3g} "
            f"events; a simulation must expect fewer than "
            f"{_MAX_EXPECTED_EVENTS}")
    return b


def _window_events(times, tags, origins, model, lo, horizon, gens):
    """Sorted event times inside ``[0, horizon]`` per replicate and component.

    ``times[j]`` holds every row of component ``j``, and ``tags[j]`` their
    replicates (``tags`` is ``None`` for one replicate); row ``q`` of
    component ``j`` draws from ``gens[tags[j][q]]``.  ``origins()`` returns
    the rows' parents, per component ``j`` a pair of arrays: the parent's
    component (-1 for an immigrant) and its row in ``times`` of that
    component; it is called only when a tie must be redrawn.  Returns
    ``(events, redraws)``: ``events[r][j]`` holds replicate ``r``'s
    component-``j`` times and ``redraws[r]`` counts the rows of replicate
    ``r`` that were redrawn.  The later row of each exact tie within one
    (replicate, component) is redrawn in place (an immigrant uniformly on
    ``[lo, horizon]``, a child by a new delay from its parent), until none
    is left.  One pass redraws the ties of component 0 in row order, then
    those of component 1, and so on; this order matters only when two
    components of one replicate need a redraw in the same pass.
    """
    reps = len(gens)
    redraws = np.zeros(reps, dtype=np.int64)
    bounds = np.arange(reps + 1)
    parents = None
    for _ in range(100):
        events = [[] for _ in range(reps)]
        tied = []
        for j, tj in enumerate(times):
            sel = (tj >= 0.0) & (tj <= horizon)
            # one replicate needs no grouping by tag, and one sort of the
            # times is cheaper than the two stable argsorts below
            if tags is None:
                wj = tj[sel]
                wj.sort()
                same = wj[1:] == wj[:-1]
                if same.any():
                    rows = np.flatnonzero(sel)
                    order = np.argsort(tj[rows], kind="stable")
                    tied.append((j, np.sort(rows[order[1:][same]])))
                events[0].append(wj)
                continue
            # by time with ties in row order, then stably by replicate
            rows = np.flatnonzero(sel)
            rows = rows[np.argsort(tj[rows], kind="stable")]
            rows = rows[np.argsort(tags[j][rows], kind="stable")]
            wj, rj = tj[rows], tags[j][rows]
            same = (wj[1:] == wj[:-1]) & (rj[1:] == rj[:-1])
            if same.any():
                tied.append((j, np.sort(rows[1:][same])))
            cuts = np.searchsorted(rj, bounds).tolist()
            for r in range(reps):
                events[r].append(wj[cuts[r]:cuts[r + 1]])
        if not tied:
            return [tuple(e) for e in events], redraws
        if parents is None:
            parents = origins()
        for j, rows in tied:
            owners = (np.zeros(rows.size, dtype=np.int64) if tags is None
                      else tags[j][rows])
            redraws += np.bincount(owners, minlength=reps)
            pc, pq = parents[j]
            for q, r in zip(rows.tolist(), owners.tolist()):
                c = pc[q]
                if c < 0:
                    times[j][q] = gens[r].uniform(lo, horizon)
                else:
                    kern = model.kernels[c][j]
                    times[j][q] = (times[c][pq[q]]
                                   + kern.sample_delays(gens[r], 1)[0])
    raise NumericError("could not separate tied event times")


def _cluster(model: HawkesModel, horizon: float, b: float, gens, seeds,
             return_trace: bool):
    """Cluster simulation of one replicate per generator in ``gens``.

    Offspring are drawn by kernel pair and generation.  For the ``n``
    parents in component ``i`` of one generation and each active kernel
    ``(i, j)`` of mass ``M_ij``, the generator draws the number of
    children ``k ~ Poisson(n M_ij)``, then one ``(2, k)`` block ``u`` of
    uniforms, then new values for any exact zeros of ``u[0]``.  Child
    ``c`` has the delay ``F^{-1}(u[0, c])`` by the kernel's inverse CDF
    and the parent in row ``min(floor(u[1, c] n), n - 1)`` of the
    frontier.  This is the law of per-parent draws: a sum of ``n`` i.i.d.
    Poisson(``M_ij``) counts is Poisson(``n M_ij``), and given that total,
    independent uniform picks make the per-parent counts multinomial, so
    they are again i.i.d. Poisson(``M_ij``), with i.i.d. delays.  The only
    approximation is the ``2**-53`` grid of ``u``, on which the delays
    already sit.

    The frontier is kept per component: one array of times (and, for a
    batch, of replicate tags) per component, whose rows are the
    immigrants of that component, then in later generations the children
    of pairs ``(0, j), (1, j), ...`` in that order, grouped stably by
    replicate.  The parents of component ``i`` are therefore read straight
    from its array, and the window of each component is cut from its own
    rows.  The genealogy (every child's parent row) is kept only as the
    per-pair parent picks, and built from them when a trace is asked for
    or a tie must be redrawn.

    Every event carries its replicate's tag, and replicate ``r`` draws
    from ``gens[r]`` exactly what a simulation of it alone would draw, in
    the same order: per kernel pair, the generator of each replicate with
    parents makes its ``poisson`` and ``random`` draws and then any zero
    redraws, its children keep their draw order, and the rows of one
    replicate keep that simulation's row order within each component.
    Tie redraws go component by component (see :func:`_window_events`),
    so a batch still reproduces its lone runs.  ``seeds[r]`` goes to the
    ``meta`` of replicate ``r``'s log.
    """
    d = model.d
    reps = len(gens)
    span = horizon + b
    # the smallest unsigned type holding every tag keeps the tag arrays
    # small and their stable sorts radix sorts
    tag_type = np.min_scalar_type(reps - 1)
    # a single replicate needs no tags, which spares long single logs the
    # tag arrays
    tagged = reps > 1

    sizes = np.empty((reps, d), dtype=np.int64)
    drawn = []
    for r, gen in enumerate(gens):
        for j in range(d):
            n = gen.poisson(model.eta[j] * span)
            sizes[r, j] = n
            drawn.append(gen.uniform(-b, horizon, size=n))
    immigrants = sizes.sum(axis=1)
    # the frontier, per component: its times and (tagged) replicate tags
    cur = [np.concatenate(drawn[j::d]) for j in range(d)]
    cur_r = ([np.repeat(np.arange(reps, dtype=tag_type), sizes[:, j])
              for j in range(d)] if tagged else None)
    no_times, no_tags = np.empty(0), np.empty(0, dtype=tag_type)
    # per component, its frontier times (and tags) of every generation;
    # per generation after the first, per component, the (i, pick) of each
    # pair feeding it and the permutation that grouped its rows by tag
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
            if not pt.size:
                continue
            if tagged:
                # the frontier is grouped by replicate: for each replicate
                # with component-i parents, its generator and parent count,
                # and in the columns of table that count, where its rows
                # start and its tag
                sizes = np.bincount(cur_r[i], minlength=reps)
                live = np.flatnonzero(sizes)
                groups = [(gens[r], n) for r, n in
                          zip(live.tolist(), sizes[live].tolist())]
                n_live = sizes[live]
                table = np.stack([n_live, np.cumsum(n_live) - n_live, live])
            else:
                groups = [(gens[0], pt.size)]
            for j, kern in model.active[i]:
                blocks = [_offspring(gen, n, kern.l1_norm)
                          for gen, n in groups]
                u = np.concatenate(blocks, axis=1) if tagged else blocks[0]
                if not u.size:
                    continue
                if tagged:
                    kids = [b.shape[1] for b in blocks]
                if not u[0].all():
                    # exact zeros of the delay row, redrawn from each
                    # replicate's own generator after its block
                    ends = np.cumsum([b.shape[1] for b in blocks]).tolist()
                    for (gen, _), lo, hi in zip(groups, [0] + ends, ends):
                        redraw_zeros(gen, u[0, lo:hi])
                # each child's parent row within its replicate's frontier
                # rows, then offset to where those rows start
                n = pt.size
                if tagged:
                    n, first, tag = np.repeat(table, kids, axis=1)
                pick = np.minimum((u[1] * n).astype(np.int64), n - 1)
                if tagged:
                    pick += first
                    nxt_r[j].append(tag.astype(tag_type))
                # u[0] lies in (0, 1), so the kernel need not check it
                child_t = pt[pick]
                child_t += kern._inverse_cdf(u[0])
                nxt_t[j].append(child_t)
                nxt_p[j].append((i, pick))
        if not any(nxt_t):
            break
        orders = [None] * d
        for j in range(d):
            cur[j] = np.concatenate(nxt_t[j]) if nxt_t[j] else no_times
            if tagged:
                cur_r[j] = np.concatenate(nxt_r[j]) if nxt_r[j] else no_tags
                if len(nxt_r[j]) > 1:
                    # regroup by replicate, each replicate's rows in order
                    orders[j] = np.argsort(cur_r[j], kind="stable")
                    cur[j] = cur[j][orders[j]]
                    cur_r[j] = cur_r[j][orders[j]]
                deepest[cur_r[j]] = generation
                hist_r[j].append(cur_r[j])
            hist_t[j].append(cur[j])
        if not tagged:
            deepest[0] = generation
        links.append((nxt_p, orders))

    # each component's rows in one array; its per-generation arrays are
    # released as it is built
    counts = [[t.size for t in h] for h in hist_t]
    times, tags = hist_t, hist_r
    for j in range(d):
        times[j] = np.concatenate(times[j])
        if tagged:
            tags[j] = np.concatenate(tags[j])
    events, redraws = _window_events(times, tags,
                                     lambda: _lineage(counts, links), model,
                                     -b, horizon, gens)
    logs = [
        EventLog(d, horizon, events[r],
                 {"simulator": "cluster", "seed": _seed_meta(seeds[r]),
                  "burn_in": b, "horizon": horizon,
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
    generation ``g``, and ``links[g - 1][0][j]`` lists the ``(i, pick)``
    of each pair that fed component ``j`` in generation ``g``, in order,
    before the permutation ``links[g - 1][1][j]`` (``None``: none)."""
    # where each component's generation-g rows start
    starts = [np.cumsum([0] + c[:-1]) for c in counts]
    out = []
    for j, c in enumerate(counts):
        pc = [np.full(c[0], -1, dtype=np.int64)]
        pq = [np.full(c[0], -1, dtype=np.int64)]
        for g, (pairs, orders) in enumerate(links, start=1):
            if not pairs[j]:
                continue
            pc_g = np.concatenate([np.full(p.size, i, dtype=np.int64)
                                   for i, p in pairs[j]])
            pq_g = np.concatenate([starts[i][g - 1] + p for i, p in pairs[j]])
            if orders[j] is not None:
                pc_g, pq_g = pc_g[orders[j]], pq_g[orders[j]]
            pc.append(pc_g)
            pq.append(pq_g)
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


_NO_CHILDREN = np.empty((2, 0))


def _offspring(gen, n: int, mass: float) -> np.ndarray:
    """The ``(2, k)`` uniforms ``gen.random`` draws for the
    ``k ~ Poisson(n * mass)`` children that ``n`` parents have through one
    kernel of total mass ``mass``: row 0 gives the children's delays by
    the inverse CDF once its exact zeros are redrawn, and row 1 picks
    their parents."""
    k = gen.poisson(n * mass)
    return gen.random((2, k)) if k else _NO_CHILDREN


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
    the one :func:`simulate_cluster` returns for that seed.  A generator
    may therefore back only one replicate; the same integer or
    :class:`~numpy.random.SeedSequence` may be given twice.  The replicates
    share one set of arrays, each event tagged with its replicate and
    children inheriting their parent's tag, so the array work and the call
    overhead are paid once per batch instead of once per replicate.  Per
    generation and kernel pair, each replicate draws its children's total
    and their uniforms from its own generator, in the order a lone run
    does; the parent picks are then offset to the replicate's rows of the
    shared frontier.

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
    # one generator behind two replicates would interleave their draws, so
    # neither would be its lone run
    positions = {}
    for k, gen in enumerate(gens):
        positions.setdefault(id(gen.bit_generator), []).append(k)
    shared = [p for p in positions.values() if len(p) > 1]
    if shared:
        raise ValueError(
            f"replicate seeds at positions {', '.join(map(str, shared))} "
            f"share one generator; each replicate needs its own (repeat an "
            f"integer or a SeedSequence instead)")
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
