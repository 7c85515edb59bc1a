"""Exact simulation of stationary multivariate Hawkes processes.

Two independent mechanisms are implemented.  The cluster simulator uses the
Poisson cluster (branching) representation: immigrants arrive as independent
Poisson streams at the baseline rates, and every event of component ``i``
spawns Poisson(``M[i, j]``) children in component ``j`` at i.i.d. kernel
delays.  The thinning simulator is Ogata's algorithm with a piecewise
constant dominating intensity, valid because every kernel family here is
nonincreasing in elapsed time: the intensity at a rejected candidate is the
next bound, and an accepted event in component ``j`` raises it by the jump
``sum_k h_jk(0+)``, so each candidate costs one pass over the histories.

Both simulate on ``[-B, T]`` and return events clipped to ``[0, T]``; with
the default burn-in ``B`` the result is statistically indistinguishable from
a stationary window.  Exact time ties (probability zero, but possible in
floating point) are checked per component inside the window ``[0, T]`` and
resolved by re-drawing the later event, so each log carries strictly
increasing times per component.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericError
from .model import HawkesModel

__all__ = [
    "EventLog",
    "ClusterTrace",
    "default_burn_in",
    "simulate_cluster",
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
        if not 0 <= i < self.d:
            raise ValueError(f"component index {i} out of range")
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
    ``comps[k]``, generation ``gens[k]`` (0 for immigrants) and parent row
    index ``parents[k]`` (-1 for immigrants).
    """

    times: np.ndarray
    comps: np.ndarray
    gens: np.ndarray
    parents: np.ndarray

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


def _prepare(model: HawkesModel, horizon: float, burn_in, seed, rng):
    """Checked burn-in (default per :func:`default_burn_in`) and generator
    of a simulation; refuses a non-finite or out-of-range window."""
    model.validate()
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    b = default_burn_in(model) if burn_in is None else float(burn_in)
    if not (np.isfinite(b) and b >= 0.0):
        raise ValueError(f"burn-in must be >= 0 and finite, got {b}")
    return b, rng if rng is not None else np.random.default_rng(_seed(seed))


def _window_events(times, comps, parents, model, lo, horizon, rng):
    """Sorted event times of each component inside ``[0, horizon]``.

    The later row of each exact tie within one of these arrays is redrawn in
    place (an immigrant uniformly on ``[lo, horizon]``, a child by a new
    delay from its parent) until none is left.
    """
    for _ in range(100):
        events, tied = [], []
        for j in range(model.d):
            sel = (comps == j) & (times >= 0.0) & (times <= horizon)
            tj = np.sort(times[sel])
            events.append(tj)
            same = np.diff(tj) == 0.0
            if same.any():
                rows = np.flatnonzero(sel)
                order = np.argsort(times[rows], kind="stable")
                tied.append(rows[order[1:][same]])
        if not tied:
            return events
        for k in np.sort(np.concatenate(tied)):
            p = parents[k]
            if p < 0:
                times[k] = rng.uniform(lo, horizon)
            else:
                kern = model.kernels[comps[p]][comps[k]]
                times[k] = times[p] + kern.sample_delays(rng, 1)[0]
    raise NumericError("could not separate tied event times")


def simulate_cluster(
    model: HawkesModel,
    horizon: float,
    burn_in: float | None = None,
    seed=None,
    rng: np.random.Generator | None = None,
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
    seed, rng
        Either an integer seed or an existing generator.
    return_trace : bool
        Also return the :class:`ClusterTrace` genealogy.
    """
    b, gen = _prepare(model, horizon, burn_in, seed, rng)
    d = model.d

    span = horizon + b
    t_chunks, c_chunks, g_chunks, p_chunks = [], [], [], []
    for j in range(d):
        n = gen.poisson(model.eta[j] * span)
        t_chunks.append(gen.uniform(-b, horizon, size=n))
        c_chunks.append(np.full(n, j, dtype=np.int64))
        g_chunks.append(np.zeros(n, dtype=np.int64))
        p_chunks.append(np.full(n, -1, dtype=np.int64))

    cur_t = np.concatenate(t_chunks)
    cur_c = np.concatenate(c_chunks)
    cur_idx = np.arange(cur_t.size)
    immigrants = offset = cur_t.size
    # the deepest generation holding an event (0: immigrants only)
    deepest = 0
    while cur_t.size:
        generation = deepest + 1
        if generation > _MAX_GENERATIONS:
            raise NumericError(
                f"cluster recursion exceeded {_MAX_GENERATIONS} generations"
            )
        nxt_t, nxt_c, nxt_p = [], [], []
        for i in range(d):
            sel = cur_c == i
            if not sel.any():
                continue
            pt = cur_t[sel]
            pidx = cur_idx[sel]
            for j, kern in model.active[i]:
                counts = gen.poisson(kern.l1_norm, size=pt.size)
                tot = int(counts.sum())
                if tot == 0:
                    continue
                delays = kern.sample_delays(gen, tot)
                nxt_t.append(np.repeat(pt, counts) + delays)
                nxt_c.append(np.full(tot, j, dtype=np.int64))
                nxt_p.append(np.repeat(pidx, counts))
        if nxt_t:
            cur_t = np.concatenate(nxt_t)
            cur_c = np.concatenate(nxt_c)
            par = np.concatenate(nxt_p)
            cur_idx = offset + np.arange(cur_t.size)
            offset += cur_t.size
            t_chunks.append(cur_t)
            c_chunks.append(cur_c)
            g_chunks.append(np.full(cur_t.size, generation, dtype=np.int64))
            p_chunks.append(par)
            deepest = generation
        else:
            break

    times = np.concatenate(t_chunks)
    comps = np.concatenate(c_chunks)
    gens = np.concatenate(g_chunks)
    parents = np.concatenate(p_chunks)
    events = _window_events(times, comps, parents, model, -b, horizon, gen)
    meta = {"simulator": "cluster", "seed": seed, "burn_in": b, "horizon": horizon,
            "immigrants": immigrants, "generations": deepest}
    log = EventLog(d, horizon, tuple(events), meta)
    if return_trace:
        return log, ClusterTrace(times, comps, gens, parents)
    return log


_PRUNE_EVERY = 2048


def simulate_thinning(
    model: HawkesModel,
    horizon: float,
    burn_in: float | None = None,
    seed=None,
    rng: np.random.Generator | None = None,
):
    """Simulate by Ogata thinning with a piecewise constant dominating bound.

    Every kernel family in the package is nonincreasing in elapsed time, so
    the conditional intensity just after the current time dominates the
    intensity until the next event.  Each candidate costs one pass over the
    histories: after a rejection its intensity is the new, tighter bound,
    and after an acceptance in component ``j`` the bound is that intensity
    plus the jump ``sum_k h_jk(0+)`` the new event adds (Ogata 1981).  The
    intensity is summed over one time-ordered history of past events per
    source component, from which events whose excitation has decayed away
    are pruned periodically.  ``meta`` counts the ``candidates`` proposed
    and the events ``accepted`` on ``[-B, T]``.
    """
    b, gen = _prepare(model, horizon, burn_in, seed, rng)
    d = model.d
    eta = model.eta.tolist()
    # contributions below this level may be pruned from the histories; the
    # induced intensity error is bounded by the pruned total, < 1e-10 * eta
    eps_active = 1e-14 * min(eta)
    # per source i, the densities h_ij of its active kernels, and the jump
    # an event of i adds to the total intensity
    rows = [[(j, kern._density) for j, kern in src] for src in model.active]
    jump = [sum(float(kern.evaluate(0.0)) for _, kern in src)
            for src in model.active]

    history = [np.empty(0) for _ in range(d)]
    events = [[] for _ in range(d)]
    last_accepted = -np.inf

    t = -b
    lam_bar = sum(eta)
    steps = candidates = accepted = 0
    while True:
        steps += 1
        if steps % _PRUNE_EVERY == 0:
            for i, src in enumerate(rows):
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
        for i, src in enumerate(rows):
            if src and history[i].size:
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
                # exact tie: re-draw the waiting time
                continue
            last_accepted = t_cand
            accepted += 1
            if t_cand >= 0.0:
                events[j].append(t_cand)
            history[j] = np.append(history[j], t_cand)
            t = t_cand
            lam_bar = lam_tot + jump[j]
        else:
            # no event at t_cand, and intensities only decay until the next
            # one, so the freshly computed level is a valid tighter bound
            t = t_cand
            lam_bar = lam_tot

    # accepted in time order and never past the horizon
    out = tuple(np.array(e, dtype=float) for e in events)
    meta = {"simulator": "thinning", "seed": seed, "burn_in": b, "horizon": horizon,
            "candidates": candidates, "accepted": accepted}
    return EventLog(d, horizon, out, meta)


_SIMULATORS = {"cluster": simulate_cluster, "thinning": simulate_thinning}


def _simulator(name: str):
    """The simulation mechanism called ``name``."""
    if name not in _SIMULATORS:
        raise ValueError(f"unknown simulator {name!r}")
    return _SIMULATORS[name]


def simulate(model, horizon, simulator="cluster", **kwargs):
    """Dispatch to one of the two simulation mechanisms by name."""
    return _simulator(simulator)(model, horizon, **kwargs)


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
