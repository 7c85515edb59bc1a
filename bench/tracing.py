"""Span recording around hawkesmix's public functions, from outside ``src/``.

A traced command runs in a fresh process, like an untraced one:

    PYTHONPATH=src python3 bench/tracing.py SPANS.json RUN_ID -- <cli args>

It imports ``hawkesmix.cli``, replaces each public function named in
``_TARGETS`` at the place its callers look it up with a wrapper that records
a span (name, start, end, parent span, run id, counts), runs
``hawkesmix.cli.main(args)``, writes the spans to ``SPANS.json`` and exits
with the command's status.  Counts are taken from arguments and return
values only, so they repeat exactly for the same inputs.

:func:`layer_metrics` turns the spans of one workload iteration into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time


class Tracer:
    """In-memory span store shared by every wrapper of one process.

    Each thread keeps its own stack of open spans.  A span opened by a
    worker thread with an empty stack takes as parent the innermost span
    open in the main thread, which is the call that is waiting for the
    worker (the replicate loop of a harness).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counts=None):
        """Return ``fn`` wrapped so that every call records one span.

        ``counts(args, kwargs, result)`` gives the span's counts, or the
        span name to use instead of ``name`` under the key ``"name"``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                sid = len(self.spans)
                span = {"id": sid, "parent": parent, "name": name,
                        "run": self.run_id}
                self.spans.append(span)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span["start"] = start
                span["end"] = end
            if counts is not None:
                extra = counts(args, kwargs, result)
                span["name"] = extra.pop("name", name)
                span["counts"] = extra
            return result

        return traced


def _points(arg_index: int):
    # the traced functions take a frequency array or a scalar; numpy is not
    # imported here so that cli.import_s includes its import
    def counts(args, kwargs, result):
        return {"points": int(getattr(args[arg_index], "size", 1))}
    return counts


def _simulate_counts(args, kwargs, result):
    simulator = kwargs.get("simulator", args[2] if len(args) > 2 else "cluster")
    return {
        "name": f"simulate.{simulator}",
        "events": result.total(),
        "burn_in": float(result.meta["burn_in"]),
        "horizon": float(result.meta["horizon"]),
    }


def _rows_counts(args, kwargs, result):
    return {"rows": int(sum(len(t) for t in args[0].events))}


# (span name, module, attribute path, places the callers look it up, counts).
# Functions that another module imports by name are replaced in that module
# too; methods are replaced on their class.
_TARGETS = [
    ("stats.clt_harness", "hawkesmix.stats", "clt_harness",
     ("hawkesmix.cli",), None),
    ("stats.mixing_decay_diagnostic", "hawkesmix.stats",
     "mixing_decay_diagnostic", ("hawkesmix.cli",), None),
    ("stats.time_change", "hawkesmix.stats", "time_change", (), None),
    ("stats.partial_statistics", "hawkesmix.stats", "partial_statistics",
     (), None),
    ("simulate", "hawkesmix.simulate", "simulate",
     ("hawkesmix.stats", "hawkesmix.cli"), _simulate_counts),
    ("simulate.default_burn_in", "hawkesmix.simulate", "default_burn_in",
     (), None),
    ("simulate.write_event_log", "hawkesmix.simulate", "write_event_log",
     ("hawkesmix.cli",), _rows_counts),
    ("spectrum.variance_ST", "hawkesmix.spectrum", "variance_ST",
     ("hawkesmix.cli",), None),
    ("spectrum.variance_profile", "hawkesmix.spectrum", "variance_profile",
     ("hawkesmix.stats",), None),
    ("spectrum.cov_counts", "hawkesmix.spectrum", "cov_counts",
     ("hawkesmix.stats",), None),
    ("spectrum.bartlett_grid", "hawkesmix.spectrum", "bartlett_grid",
     ("hawkesmix.cli",), _points(1)),
    ("branching.mixing_bound", "hawkesmix.branching", "mixing_bound",
     ("hawkesmix.stats", "hawkesmix.cli"), None),
    ("model.validate", "hawkesmix.model", "HawkesModel.validate", (), None),
    ("kernels.exponential.fourier", "hawkesmix.kernels",
     "ExponentialKernel.fourier", (), _points(1)),
    ("kernels.powerlaw.fourier", "hawkesmix.kernels",
     "PowerLawKernel.fourier", (), _points(1)),
]

_WINDOW_CLASSES = ("ConstantF", "IndicatorF", "ConstPlusIndicatorF",
                   "TrigPolyF", "SampledPeriodicF")


def install(tracer: Tracer) -> None:
    """Replace every traced function where its callers look it up."""
    for name, module_name, attr, importers, counts in _TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        traced = tracer.wrap(name, original, counts)
        setattr(owner, leaf, traced)
        for importer in importers:
            mod = importlib.import_module(importer)
            if getattr(mod, leaf) is original:
                setattr(mod, leaf, traced)
    tf = importlib.import_module("hawkesmix.testfunctions")
    for cls_name in _WINDOW_CLASSES:
        cls = getattr(tf, cls_name)
        if "fourier_window" in vars(cls):
            cls.fourier_window = tracer.wrap(
                "testfunctions.fourier_window", cls.fourier_window,
                _points(1))


def _child(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json RUN_ID -- <cli args>")
    t0 = time.perf_counter()
    cli = importlib.import_module("hawkesmix.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer(run_id)
    install(tracer)
    t1 = time.perf_counter()
    status = cli.main(cli_args)
    main_s = time.perf_counter() - t1
    with open(spans_path, "w") as fh:
        json.dump({"run": run_id, "import_s": import_s, "main_s": main_s,
                   "status": status, "spans": tracer.spans}, fh)
    return status


# ---------------------------------------------------------------- analysis

def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _union_length(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload iteration.

    ``processes`` holds the JSON written by each traced command of the
    iteration.  Times and counts are summed over the commands.
    """
    by_name: dict[str, list[dict]] = {}
    for proc in processes:
        selfs = self_times(proc["spans"])
        for s in proc["spans"]:
            s = dict(s, duration=s["end"] - s["start"], self=selfs[s["id"]])
            by_name.setdefault(s["name"], []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(spans(name)))

    def total(name, key="duration"):
        return float(sum(s[key] for s in spans(name)))

    def count(name, key):
        # a call that raised has no counts
        return float(sum(s.get("counts", {}).get(key, 0) for s in spans(name)))

    out: dict[str, float] = {}
    for layer in ("kernels.powerlaw.fourier", "kernels.exponential.fourier",
                  "spectrum.bartlett_grid", "testfunctions.fourier_window"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.points"] = count(layer, "points")
        out[f"{layer}.total_s"] = total(layer)
    pts = out["kernels.powerlaw.fourier.points"]
    out["kernels.powerlaw.fourier.ns_per_point"] = (
        1e9 * out["kernels.powerlaw.fourier.total_s"] / pts if pts else 0.0)
    out["spectrum.bartlett_grid.self_s"] = total("spectrum.bartlett_grid",
                                                 "self")
    for layer in ("spectrum.variance_profile", "spectrum.cov_counts"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.total_s"] = total(layer)
        out[f"{layer}.self_s"] = total(layer, "self")
    for layer in ("spectrum.variance_ST", "simulate.default_burn_in",
                  "stats.partial_statistics", "model.validate",
                  "branching.mixing_bound"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.total_s"] = total(layer)
    for layer in ("simulate.cluster", "simulate.thinning"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.events"] = count(layer, "events")
        out[f"{layer}.total_s"] = total(layer)
        secs = out[f"{layer}.total_s"]
        out[f"{layer}.events_per_s"] = (
            out[f"{layer}.events"] / secs if secs else 0.0)
    call_ms = [1e3 * s["duration"] for s in spans("simulate.cluster")]
    out["simulate.cluster.call_ms.p50"] = (
        statistics.median(call_ms) if call_ms else 0.0)
    out["simulate.cluster.call_ms.p99"] = (
        statistics.quantiles(call_ms, n=100, method="inclusive")[98]
        if len(call_ms) > 1 else float(sum(call_ms)))
    # these names come from the counts, so every such span has them
    sims = spans("simulate.cluster") + spans("simulate.thinning")
    burn = sum(s["counts"]["burn_in"] for s in sims)
    span_len = sum(s["counts"]["burn_in"] + s["counts"]["horizon"]
                   for s in sims)
    out["simulate.burn_in_share"] = burn / span_len if span_len else 0.0
    out["simulate.write_event_log.rows"] = count("simulate.write_event_log",
                                                 "rows")
    out["simulate.write_event_log.total_s"] = total("simulate.write_event_log")
    out["stats.time_change.total_s"] = total("stats.time_change")
    out["stats.clt_harness.self_s"] = total("stats.clt_harness", "self")
    out["stats.mixing_decay_diagnostic.self_s"] = total(
        "stats.mixing_decay_diagnostic", "self")
    out["cli.import_s"] = float(sum(p["import_s"] for p in processes))
    out["cli.main_s"] = float(sum(p["main_s"] for p in processes))
    return out


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
