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

The cluster simulator draws independent replicates in one set of arrays
from one generator, each event tagged with its replicate
(:func:`simulate_cluster_batch`); a single log is the batch of one, by
the same code, its tags all 0.  Which replicate a parent belongs to
plays no part in the law of its offspring, so each kernel pair draws one
Poisson total over the parents of every replicate at once, and the
children inherit their parents' tags.  The Monte Carlo harnesses
simulate all their replicates this way, in batches of up to ``2**16``
expected events (one expecting more than half of that is a batch of
one): a batch pays the per-call and per-draw overhead once per kernel
pair and generation instead of once per replicate, which matters up to
the ~13.4k events of a ``clt-test`` replicate of the 2-d exponential
model at T = 2000 (four to a batch).  The tags cost one byte per event
up to 256 replicates.  The genealogy is kept only for a trace: without
one, no parent pick is kept, and the window is cut from the generations'
rows in groups as they are drawn, each group freed once it is cut.  A
tie, which needs the genealogy to be redrawn, replays the batch's
stream with it.  The traced peak of that model is ~14.7 bytes per
returned event for a lone run at T = 2000, ~17.4 for a batch of four,
and ~12.2 for a lone run at T = 1e5.

Both simulate on ``[-B, T]`` and return events clipped to ``[0, T]``; with
the default burn-in ``B`` the result is statistically indistinguishable from
a stationary window.  Exact time ties (probability zero, but possible in
floating point) are checked per replicate and component inside the window
``[0, T]`` and resolved by re-drawing the later event, so each log carries
strictly increasing times per component; ``meta["tie_redraws"]`` counts
the re-draws.  The cluster simulator redraws one pass of ties component
by component, each component's in row order, and a re-drawn event
carries its descendants with it, so every delay from a parent is kept.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (NumericError, real_number, require_index,
                     require_integer, require_seed)
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
# the rows :func:`write_event_log` merges and formats at once: its memory
# is one block of rows and its digit arrays (~1.8 MB traced at 8k rows,
# ~3.6 MB at 16k), not the whole log
_WRITE_BLOCK = 1 << 13
# the most rows of one component the cluster simulator cuts its window from
# at once (see :class:`_WindowCut`).  A harness batch (~2**16 events) is
# one group, so it makes as many numpy calls as one cut of all its rows.
# A lone run at T = 1e5 (2-d exponential model) traced 8.07-8.18 MB at
# 2**12 to 2**18: its peak is the final join of the cut windows, not a cut
_CUT_ROWS = 1 << 17
# the times :func:`_shortest_digits` formats: ``repr`` writes them
# positionally, their fractions have at most 52 bits, and each power of
# two among them (whose lower gap is half as wide) is an integer, which
# is its own shortest decimal
_DIGITS_LO, _DIGITS_HI = 1.0, 2.0**50
_POW10 = 10 ** np.arange(17, dtype=np.int64)
_POW10U = _POW10.astype(np.uint64)


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
    require_integer(n=n)
    return np.random.SeedSequence(require_seed(seed)).spawn(n)


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
    refuses a horizon or burn-in that is not a finite real number in range,
    and ``replicates`` windows expected to hold ``_MAX_EXPECTED_EVENTS``
    events or more."""
    model.validate()
    t = real_number("horizon", horizon)
    if not (np.isfinite(t) and t > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {t}")
    b = (default_burn_in(model) if burn_in is None
         else real_number("burn_in", burn_in))
    if not (np.isfinite(b) and b >= 0.0):
        raise ValueError(f"burn-in must be >= 0 and finite, got {b}")
    expected = float(np.sum(model.mean_intensity)) * (t + b) * replicates
    if not expected < _MAX_EXPECTED_EVENTS:
        times = f" times {replicates} replicates" if replicates > 1 else ""
        raise ValueError(
            f"horizon {t:g} with burn-in {b:g}{times} expects "
            f"{expected:.3g} events; a simulation must expect fewer than "
            f"{_MAX_EXPECTED_EVENTS}")
    return b


def _cut(pieces, reps, horizon):
    """The rows of ``pieces``, a list of ``(times, tags)`` it empties,
    inside ``[0, horizon]``, as ``(wj, cuts)``: their times grouped by
    replicate, each replicate's in row order, and the ``reps + 1`` offsets
    of the groups in ``wj``.  Rows no one else holds are freed once their
    window is taken, before the regroup's temporaries are made."""
    tj, rj = (np.concatenate(x) if len(x) > 1 else x[0]
              for x in zip(*pieces))
    pieces.clear()
    inside = (tj >= 0.0) & (tj <= horizon)
    wj = tj[inside]
    if reps == 1:
        return wj, [0, wj.size]
    rj = rj[inside]
    del tj, inside
    by_tag = np.argsort(rj, kind="stable")
    rj = rj[by_tag]
    wj[:] = wj[by_tag]
    # searched in the tags' own type, so rj is not cast
    cuts = np.searchsorted(rj, np.arange(reps, dtype=rj.dtype))
    return wj, cuts.tolist() + [rj.size]


def _join(groups, reps):
    """The ``(wj, cuts)`` of rows cut in ``groups`` by :func:`_cut`, as
    one cut of their joined rows would give it, up to the order of each
    replicate's times."""
    if len(groups) == 1:
        return groups[0]
    wj = np.concatenate([w[c[r]:c[r + 1]]
                         for r in range(reps) for w, c in groups])
    sizes = [sum(c[r + 1] - c[r] for _, c in groups) for r in range(reps)]
    return wj, np.cumsum([0] + sizes).tolist()


def _sorted_window(wj, cuts):
    """Sort each replicate's times of a cut in place.  Returns the
    replicates' times and whether any of them holds two equal times."""
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        seg = wj[a:b]
        seg.sort()
        segments.append(seg)
    same = wj[1:] == wj[:-1]
    # a replicate's first time may equal the one before it
    same[[c - 1 for c in cuts[1:-1] if 0 < c < wj.size]] = False
    return segments, bool(same.any())


def _tied_rows(tj, rj, horizon):
    """The rows of ``tj`` (tags ``rj``) inside ``[0, horizon]`` whose time
    and tag equal those of an earlier such row, in row order."""
    rows = np.flatnonzero((tj >= 0.0) & (tj <= horizon))
    # by tag, then time, equal keys in row order
    order = np.lexsort((tj[rows], rj[rows]))
    rows = rows[order]
    t, r = tj[rows], rj[rows]
    same = (t[1:] == t[:-1]) & (r[1:] == r[:-1])
    return np.sort(rows[1:][same])


def _window_events(times, tags, reps, origins, model, lo, horizon, gen):
    """Sorted event times inside ``[0, horizon]`` per replicate and component.

    ``times[j]`` holds every row of component ``j``, and ``tags[j]`` their
    replicates among ``reps``.  ``origins()`` returns the rows' parents,
    per component ``j`` a pair of arrays: the parent's component (-1 for
    an immigrant) and its row in ``times`` of that component; it is called
    only when a tie must be redrawn.  Returns ``(events, redraws)``:
    ``events[r][j]`` holds replicate ``r``'s component-``j`` times and
    ``redraws[r]`` counts the rows of replicate ``r`` that were redrawn.
    The later row of each exact tie within one (replicate, component) is
    redrawn in place from ``gen`` (an immigrant uniformly on ``[lo,
    horizon]``, a child by a new delay from its parent), and every
    descendant of the row moves with it, so each keeps its delay from its
    parent; this repeats until no tie is left.  One pass redraws the ties
    of component 0 in row order, then those of component 1, and so on.
    """
    redraws = np.zeros(reps, dtype=np.int64)
    parents = None
    for _ in range(100):
        events = [[] for _ in range(reps)]
        tied = []
        for j, tj in enumerate(times):
            segments, tie = _sorted_window(
                *_cut([(tj, tags[j])], reps, horizon))
            for r, seg in enumerate(segments):
                events[r].append(seg)
            if tie:
                tied.append((j, _tied_rows(tj, tags[j], horizon)))
        if not tied:
            return [tuple(e) for e in events], redraws
        if parents is None:
            parents = origins()
        for j, rows in tied:
            redraws += np.bincount(tags[j][rows], minlength=reps)
            pc, pq = parents[j]
            for q in rows.tolist():
                c = pc[q]
                old = times[j][q]
                if c < 0:
                    times[j][q] = gen.uniform(lo, horizon)
                else:
                    kern = model.kernels[c][j]
                    times[j][q] = (times[c][pq[q]]
                                   + kern.sample_delays(gen, 1)[0])
                _move_descendants(times, parents, j, q, times[j][q] - old)
    raise NumericError("could not separate tied event times")


def _move_descendants(times, parents, j, q, shift):
    """Add ``shift`` to the time of every descendant of row ``q`` of
    component ``j``, generation by generation; ``parents`` is as
    ``origins()`` of :func:`_window_events` returns it."""
    front = [(j, np.array([q]))]
    while front:
        nxt = []
        for c, (pc, pq) in enumerate(parents):
            kids = np.zeros(pc.size, dtype=bool)
            for i, rows in front:
                kids |= (pc == i) & np.isin(pq, rows)
            if kids.any():
                times[c][kids] += shift
                nxt.append((c, np.flatnonzero(kids)))
        front = nxt


class _WindowCut:
    """The window of a batch, cut from each generation's rows as they are
    drawn.  Per component, consecutive generations are joined into groups
    of up to ``_CUT_ROWS`` rows, and a bigger generation is a group of its
    own; each group is released once it is cut, so the rows held are the
    group being joined, the cut windows and one group's temporaries."""

    def __init__(self, d: int, reps: int, horizon: float):
        self.reps, self.horizon = reps, horizon
        # per component: the (times, tags) waiting to be joined, their row
        # count, and the (wj, cuts) of each group cut so far
        self.held = [[] for _ in range(d)]
        self.rows = [0] * d
        self.groups = [[] for _ in range(d)]

    def take(self, j: int, times, tags) -> None:
        """Hand over one generation's component-``j`` rows."""
        if self.rows[j] + times.size > _CUT_ROWS:
            self._cut_held(j)
        self.held[j].append((times, tags))
        self.rows[j] += times.size

    def _cut_held(self, j: int) -> None:
        if self.held[j]:
            self.rows[j] = 0
            self.groups[j].append(_cut(self.held[j], self.reps,
                                       self.horizon))

    def events(self):
        """``events[r][j]``, replicate ``r``'s sorted component-``j``
        times, or ``None`` if one of them holds two equal times."""
        events = [[] for _ in range(self.reps)]
        for j, groups in enumerate(self.groups):
            self._cut_held(j)
            window = _join(groups, self.reps)
            # the groups are released as the joined window takes their place
            groups.clear()
            segments, tie = _sorted_window(*window)
            if tie:
                return None
            for r, seg in enumerate(segments):
                events[r].append(seg)
        return [tuple(e) for e in events]


def _generations(model: HawkesModel, horizon: float, b: float, gen,
                 reps: int, take, links):
    """Draw the immigrants and the generations of ``reps`` replicates from
    ``gen``, as :func:`_cluster` describes.

    ``take(j, times, tags)`` receives each generation's component-``j``
    rows (empty ones too) as they are drawn.  Unless ``links`` is
    ``None``, it gets per generation after the first, per component, the
    ``(i, pick)`` of each pair feeding it, each pick in the smallest
    unsigned type holding the parents' rows.  Returns per replicate its
    immigrant count and deepest generation holding an event (0:
    immigrants only).
    """
    d = model.d
    span = horizon + b
    # the smallest unsigned type holding every tag keeps the tag arrays
    # small and their stable sorts radix sorts
    tag_type = np.min_scalar_type(reps - 1)

    sizes = np.empty((reps, d), dtype=np.int64)
    cur = []
    for j in range(d):
        sizes[:, j] = gen.poisson(model.eta[j] * span, size=reps)
        cur.append(gen.uniform(-b, horizon, size=int(sizes[:, j].sum())))
    # the frontier, per component: its times and replicate tags
    cur_r = [np.repeat(np.arange(reps, dtype=tag_type), sizes[:, j])
             for j in range(d)]
    for j in range(d):
        take(j, cur[j], cur_r[j])
    no_times, no_tags = np.empty(0), np.empty(0, dtype=tag_type)
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
                # int64 indexes faster than a narrow type
                pick = np.minimum((u[1] * n).astype(np.int64), n - 1)
                # u[0] lies in (0, 1), so the kernel need not check it
                child_t = pt[pick]
                child_t += kern._inverse_cdf(u[0])
                nxt_t[j].append(child_t)
                if links is not None:
                    nxt_p[j].append(
                        (i, pick.astype(np.min_scalar_type(n - 1))))
                nxt_r[j].append(cur_r[i][pick])
        if not any(nxt_t):
            break
        for j in range(d):
            cur[j] = np.concatenate(nxt_t[j]) if nxt_t[j] else no_times
            cur_r[j] = np.concatenate(nxt_r[j]) if nxt_r[j] else no_tags
            deepest[cur_r[j]] = generation
            take(j, cur[j], cur_r[j])
        if links is not None:
            links.append(nxt_p)
    return sizes.sum(axis=1), deepest


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

    The frontier is kept per component: one array of times and one of
    replicate tags per component, whose rows are the immigrants of that
    component, then in later generations the children of pairs ``(0, j),
    (1, j), ...`` in that order.  The parents of component ``i`` are
    therefore read straight from its arrays.  Without a trace, no parent
    pick is kept: each component's window is cut from its generations'
    rows as they are drawn (:class:`_WindowCut`), and each generation is
    released once it is cut and no longer a frontier.  The genealogy
    (every child's parent row) is built only for a trace or a tie.  A
    tie, which needs it to be redrawn, is rare: the generator's state is
    saved before the first draw, and a window holding a tie draws the
    batch again from that state, keeping every row and the parent picks,
    and redraws its ties as :func:`_window_events` describes.  The draws
    repeat exactly, so the logs and the generator's final state are those
    of a traced run.  A lone run is the batch of one, its tags all 0.
    ``seed`` goes to every log's ``meta``, and ``meta["replicate"]`` is
    kept only for ``reps > 1``.
    """
    d = model.d
    state = gen.bit_generator.state
    events = None
    if not return_trace:
        window = _WindowCut(d, reps, horizon)
        immigrants, deepest = _generations(model, horizon, b, gen, reps,
                                           window.take, None)
        events = window.events()
        del window
        redraws = np.zeros(reps, dtype=np.int64)
    if events is None:
        # a trace, or a tie to redraw: every row of each component in one
        # array, and the genealogy, drawn again from the saved state
        gen.bit_generator.state = state
        times = [[] for _ in range(d)]
        tags = [[] for _ in range(d)]
        links = []

        def keep(j, t, r):
            times[j].append(t)
            tags[j].append(r)

        immigrants, deepest = _generations(model, horizon, b, gen, reps,
                                           keep, links)
        counts = [[t.size for t in h] for h in times]
        # each component's per-generation arrays are released as its one
        # array is built
        for j in range(d):
            times[j] = np.concatenate(times[j])
            tags[j] = np.concatenate(tags[j])
        events, redraws = _window_events(times, tags, reps,
                                         lambda: _lineage(counts, links),
                                         model, -b, horizon, gen)
    meta = {"simulator": "cluster", "seed": _seed_meta(seed), "burn_in": b,
            "horizon": horizon}
    logs = [
        EventLog(d, horizon, events[r],
                 {**meta, **({"replicate": r} if reps > 1 else {}),
                  "immigrants": int(immigrants[r]),
                  "generations": int(deepest[r]),
                  "tie_redraws": int(redraws[r])})
        for r in range(reps)
    ]
    trace = (_trace(times, tags, _lineage(counts, links), counts)
             if return_trace else None)
    return logs, trace


def _lineage(counts, links):
    """Per component ``j``, the parents of its rows as two arrays: the
    parent's component (-1 for an immigrant) and its row within that
    component.  ``counts[j][g]`` is the number of component-``j`` rows in
    generation ``g``, and ``links[g - 1][j]`` lists the ``(i, pick)`` of
    each pair that fed component ``j`` in generation ``g``, in order; a
    pick may be of any integer type, and the rows come out as ``int64``."""
    # where each component's generation-g rows start
    starts = [np.cumsum([0] + c[:-1]) for c in counts]
    out = []
    for j, c in enumerate(counts):
        pc = [np.full(c[0], -1, dtype=np.int64)]
        pq = [np.full(c[0], -1, dtype=np.int64)]
        for g, pairs in enumerate(links, start=1):
            for i, p in pairs[j]:
                pc.append(np.full(p.size, i, dtype=np.int64))
                # in int64 whatever the picks' type: numpy 1's value-based
                # casting would keep a uint16 pick plus a small offset in
                # uint16, which wraps
                pq.append(np.add(p, starts[i][g - 1], dtype=np.int64))
        out.append((np.concatenate(pc), np.concatenate(pq)))
    return out


def _trace(times, tags, lineage, counts) -> ClusterTrace:
    """The :class:`ClusterTrace` of per-component rows ``times[j]`` (tags
    ``tags[j]``) with parents ``lineage`` (see :func:`_lineage`), in the
    order generation, then component, then row."""
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
    out_r = np.empty(total, dtype=tags[0].dtype)
    for j, k in enumerate(rows):
        out_t[k] = times[j]
        comps[k] = j
        gens[k] = np.repeat(np.arange(depth), sizes[j])
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
    any seed; :func:`simulate_cluster` is the batch of one.

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
    gen = np.random.default_rng(require_seed(seed))
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
    """Simulate by the Poisson cluster representation: the one-replicate
    :func:`simulate_cluster_batch`, whose log has no ``meta["replicate"]``.

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
    out = simulate_cluster_batch(model, horizon, 1, burn_in, seed,
                                 return_trace)
    return (out[0][0], out[1]) if return_trace else out[0]


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
    gen = np.random.default_rng(require_seed(seed))
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


def simulate(model, horizon: float, simulator: str = "cluster",
             burn_in: float | None = None, seed: int | None = None):
    """Dispatch to one of the two simulation mechanisms by name; ``seed``
    (an integer, SeedSequence or generator) is their random stream."""
    if not (isinstance(simulator, str) and simulator in _SIMULATORS):
        raise ValueError(f"unknown simulator {simulator!r}")
    return _SIMULATORS[simulator](model, horizon, burn_in=burn_in, seed=seed)


def _shortest_digits(x: np.ndarray):
    """``(whole, fraction, places)`` with ``whole + fraction * 10**-places``
    the decimal ``repr`` writes for each ``x`` in ``[_DIGITS_LO,
    _DIGITS_HI)``: the fewest fractional digits that read back as ``x``,
    and of those decimals the nearest, a tie going to the even one.

    The stop rule of Steele & White's free-format digit loop (1990), in
    exact integer arithmetic.  Write ``x = m 2**-sh``, ``m`` the 53-bit
    significand (``3 <= sh <= 52`` on this range).  After ``s`` fractional
    digits, ``rem`` is twice what is left of the fraction, in units of
    ``2**-(sh + 1) 10**-s``: the low ``sh + 1`` bits of ``2 frac(x) 10**s``,
    which a wrapping uint64 product keeps exactly.  The half ulp is
    ``10**s`` of these units, so ``s`` digits read back as ``x`` when
    cutting them (``rem``) or rounding them up (``2**(sh + 1) - rem``)
    moves ``x`` by less than that.

    - No move is exactly a half ulp: that decimal has ``sh + 1``
      fractional digits, more than ``x`` itself, so round-half-even at
      the boundary never decides.
    - Whether ``s`` digits suffice only grows with ``s``, and it holds once
      ``10**s >= 2**sh``, so ``places`` is found by stepping down from
      there; most rows stop after one or two steps.
    - Of the two decimals around ``x``, the nearer one reads back if
      either does, so the digits are ``x`` rounded to ``places``.  The
      cut digits come from a float estimate, off by at most one, set
      right by the next ``63 - sh >= 11`` bits of the same product.
    - A rounded-up fraction never ends in a zero, which would make a
      shorter decimal suffice, so it never carries into ``whole``.
    """
    frac, exp = np.frexp(x)
    m = (frac * 2.0**53).astype(np.uint64)
    sh = (53 - exp).astype(np.uint64)
    whole = m >> sh
    rem0 = (m - (whole << sh)) << 1
    one = np.uint64(1) << (sh + 1)
    places = np.searchsorted(_POW10U, one >> 1)
    rows, s = np.arange(x.size), places - 1
    while rows.size:
        rows, s = rows[s >= 0], s[s >= 0]
        p = _POW10U[s]
        rem = (rem0[rows] * p) & (one[rows] - 1)
        fits = (rem < p) | (one[rows] - rem < p)
        rows, s = rows[fits], s[fits]
        places[rows] = s
        s = s - 1
    product = rem0 * _POW10U[places]
    rem = product & (one - 1)
    cut = np.floor((x - np.floor(x)) * _POW10[places]).astype(np.int64)
    span = np.int64(1) << (63 - sh.astype(np.int64))
    cut += (((product >> (sh + 1)).astype(np.int64) - cut + 1)
            & (span - 1)) - 1
    up = (2 * rem > one) | ((2 * rem == one) & (cut & 1 == 1))
    return whole.astype(np.int64), cut + up, places


def _put_digits(cells, keep, end: int, values: np.ndarray, count,
                width: int) -> None:
    """Write the last ``width`` decimal digits of ``values`` into the
    columns of ``cells`` before ``end``, right-aligned, and keep the last
    ``count`` of each row."""
    for col in range(end - 1, end - width - 1, -1):
        tens = values // 10
        cells[:, col] = values - 10 * tens
        values = tens
    keep[:, end - width:end] = np.arange(width - 1, -1, -1) < count[:, None]


def _row_bytes(comps: np.ndarray, times: np.ndarray) -> bytes:
    """The ``component,time`` rows, CRLF-ended, with each time as its
    ``repr``: :func:`_shortest_digits` for the times in its range, and
    Python's ``repr`` for the rest, spliced in at their rows.  The first
    are laid out in a fixed-width byte matrix, each number right-aligned
    in its columns (the fraction's too, so the cells between it and its
    point drop out with the other unused ones)."""
    ok = (times >= _DIGITS_LO) & (times < _DIGITS_HI)
    whole, fraction, places = _shortest_digits(times[ok])
    comps_ok = comps[ok].astype(np.int64)
    counts = [np.maximum(np.searchsorted(_POW10, comps_ok, side="right"), 1),
              np.searchsorted(_POW10, whole, side="right"),
              np.maximum(places, 1)]
    widths = [int(c.max(initial=1)) for c in counts]
    comma = widths[0]
    point = comma + 1 + widths[1]
    cells = np.empty((whole.size, point + widths[2] + 3), dtype=np.uint8)
    keep = np.empty(cells.shape, dtype=bool)
    for end, values, count, width in zip(
            (comma, point, cells.shape[1] - 2), (comps_ok, whole, fraction),
            counts, widths):
        _put_digits(cells, keep, end, values, count, width)
    cells += ord("0")
    for col, char in ((comma, ","), (point, "."), (-2, "\r"), (-1, "\n")):
        cells[:, col] = ord(char)
        keep[:, col] = True
    out = cells[keep].tobytes()
    if ok.all():
        return out
    rest = np.flatnonzero(~ok)
    # the byte offset of each row the kernel wrote, and the rows before
    # each of the others
    ends = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).tolist()
    before = (rest - np.arange(rest.size)).tolist()
    pieces, cut = [], 0
    # tolist() because under numpy 2 a numpy float's repr is
    # "np.float64(...)"
    for k, c, t in zip(before, comps[rest].tolist(), times[rest].tolist()):
        pieces += [out[cut:ends[k]], f"{c},{t!r}\r\n".encode()]
        cut = ends[k]
    pieces.append(out[cut:])
    return b"".join(pieces)


def write_event_log(log: EventLog, csv_path) -> Path:
    """Write ``component,time`` rows plus a JSON sidecar next to the CSV.

    Rows end in CRLF and run in time order, equal times in component
    order; each time is written as Python's ``repr`` writes it.  Each
    component's times are sorted, as in every :class:`EventLog`, so the
    components are merged by blocks of time: a block takes each
    component's next ``_WRITE_BLOCK // d`` rows, ends at the earliest of
    their last times, and holds every row of every component up to that
    time, so a tie at its end stays in it.  Only the block is sorted,
    which gives the order one stable sort of the whole log would, and the
    writer holds one block of rows, not the whole log.  The block's times
    are formatted at once, by exact integer arithmetic
    (:func:`_shortest_digits`) on ``[1, 2**50)`` and by ``repr`` for the
    rare rest, into the bytes ``repr`` gives.  Each component is read as
    a float array.  A log whose component count is not ``d``, a component
    whose times are out of order, and a time that is NaN or infinite,
    raise ``ValueError``.
    """
    csv_path = Path(csv_path)
    events = [np.asarray(t, dtype=float) for t in log.events]
    if len(events) != log.d:
        raise ValueError(f"the log has {len(events)} components, "
                         f"but d = {log.d}")
    step = max(_WRITE_BLOCK // max(log.d, 1), 1)
    # in the smallest unsigned type holding every component index
    comp_type = np.min_scalar_type(max(log.d - 1, 0))
    at = [0] * log.d
    with open(csv_path, "wb") as fh:
        fh.write(b"component,time\r\n")
        while True:
            heads = [t[a:a + step] for t, a in zip(events, at)]
            for h in heads:
                if not np.isfinite(h).all():
                    raise ValueError("event times must be finite, got "
                                     f"{h[~np.isfinite(h)][0]}")
            ends = [h[-1] for h in heads if h.size]
            if not ends:
                break
            end = min(ends)
            upto = [a + int(np.searchsorted(t[a:], end, side="right"))
                    for t, a in zip(events, at)]
            # each component's rows of the block, with the row before
            # them, must be in order (a NaN the search ran past is not),
            # and a sorted log never leaves a block empty
            runs = [t[max(a - 1, 0):b] for t, a, b in zip(events, at, upto)]
            if upto == at or not all((r[1:] >= r[:-1]).all() for r in runs):
                raise ValueError("event times must be sorted in each "
                                 "component")
            times = np.concatenate([t[a:b] for t, a, b
                                    in zip(events, at, upto)])
            comps = np.repeat(np.arange(log.d, dtype=comp_type),
                              [b - a for a, b in zip(at, upto)])
            k = np.argsort(times, kind="stable")
            at = upto
            fh.write(_row_bytes(comps[k], times[k]))
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
    """Read a log :func:`write_event_log` wrote: the CSV rows and the JSON
    sidecar next to them.  A row whose component is not in ``0..d-1`` or
    whose time is not finite raises ``ValueError`` naming its line."""
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(".json")) as fh:
        side = json.load(fh)
    d = int(side["d"])
    per_comp = [[] for _ in range(d)]
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line, (comp, time) in enumerate(reader, start=2):
            c, t = int(comp), float(time)
            if not 0 <= c < d:
                raise ValueError(f"{csv_path}, line {line}: component {c} "
                                 f"is not in 0..{d - 1}")
            if not math.isfinite(t):
                raise ValueError(f"{csv_path}, line {line}: time {time} is "
                                 "not finite")
            per_comp[c].append(t)
    events = tuple(np.sort(np.asarray(t)) for t in per_comp)
    return EventLog(d, float(side["horizon"]), events, side.get("meta", {}))
