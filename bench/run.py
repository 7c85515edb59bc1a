"""Benchmark of the hawkesmix command line interface.

Run from the repository root:

    python3 bench/run.py --workload clt-exp --seed 1 --seconds 10 --trace 0

A closed loop with one client: every CLI command of the workload runs in a
fresh process, one after the other, on configs generated from ``--seed``
in a temporary directory.  Whole workload iterations repeat until
``--seconds`` have passed, at least once.  Before the loop, ``hawkesmix
validate`` on the workload's config runs ``SETUP_RUNS`` times in fresh
processes; its median (scaled, see below) wall time is ``setup_s``.

Every output is checked (see ``workloads.py``), and artifacts must be
byte-identical between iterations with the same seed.  An operation is one
CLI invocation; it fails on a nonzero exit, a failed output check or an
artifact digest that differs from another run of the same seed.

``--trace 0`` prints the end-to-end metrics: medians over iterations of
``wall_s``, ``cpu_s`` (user plus system time of the children, from
``os.wait4``) and ``peak_rss_mb`` (largest child ``ru_maxrss``), and
``setup_s``.  Each child is pinned to as many CPUs as it runs threads, and
its times are scaled to a reference CPU speed measured on those CPUs while
it runs (see ``SpeedProbe``); the unscaled wall time goes to stderr.

``--trace 1`` alternates untraced and traced iterations; a traced command
runs under ``tracing.py``, and the per-layer metrics are medians over the
traced iterations.  ``trace.overhead_s`` is the traced
minus the untraced iteration wall time.

``--workload all`` runs every workload in turn.  Human-readable results,
the fail rate and the environment go to stderr; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_validate  # noqa: E402

SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170.0
# the most threads any child may use: clt-exp passes --threads 2 itself
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# units of every metric, as BENCHMARK.json declares them
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
         for m in json.loads((BENCH_DIR.parent / "BENCHMARK.json")
                             .read_text())[key]}
# counts fixed by the inputs; they must repeat exactly between iterations
_DETERMINISTIC = (".calls", ".points", ".events", ".rows", "burn_in_share")


# A probe thread pinned to each CPU a command runs on does a fixed unit of
# work every PROBE_PERIOD_S and records its thread CPU time.  On the shared
# 2-vCPU machine of the README baseline, the speed of each core drifts by
# +-20% over tens of seconds, one core independently of the other, so times
# are scaled by PROBE_REF_S over the median unit time seen on the command's
# own cores: seconds at a fixed reference speed.
PROBE_PERIOD_S = 0.1
PROBE_REF_S = 0.005
_PROBE_DATA = np.sin(np.arange(20000.0))


def _probe_unit() -> float:
    start = time.thread_time()
    for _ in range(6):
        np.sort(np.exp(_PROBE_DATA))
    acc = 0
    for i in range(80000):
        acc += i % 7
    return time.thread_time() - start


class SpeedProbe:
    """Samples the speed of ``cpus`` until the ``with`` block ends."""

    def __init__(self, cpus):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._run, args=(cpu,))
                         for cpu in cpus]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        while True:
            self.samples.append(_probe_unit())
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self._threads:
            t.join()

    def scale(self) -> float:
        return PROBE_REF_S / statistics.median(self.samples)


@dataclass
class Child:
    status: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    scale: float  # converts this child's times to the reference speed


def run_child(argv: list, env: dict, log_path: Path, threads: int) -> Child:
    """Run one process, pinned to ``threads`` CPUs, to completion and read
    its resource usage."""
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[:threads]
    with open(log_path, "wb") as log, SpeedProbe(cpus) as probe:
        # the child inherits the affinity of the thread that forks it
        os.sched_setaffinity(0, cpus)
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log,
                                    stderr=subprocess.STDOUT, env=env)
        finally:
            os.sched_setaffinity(0, allowed)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, probe.scale())


def digest_tree(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, status: int, problems: list) -> None:
        self.attempted += 1
        if status != 0:
            problems = [f"exit status {status}"] + problems
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


class Runner:
    """Runs one workload's commands in fresh processes and checks them."""

    def __init__(self, root: Path, workload, seed: int, smoke: bool,
                 work: Path, reference: dict):
        self.workload = workload
        self.work = work
        self.tally = Tally()
        size = "smoke" if smoke else "full"
        self.ref = dict(reference[size][workload.name],
                        model=reference["models"][workload.model])
        self.env = dict(os.environ, **THREAD_ENV)
        self.env.pop("HAWKESMIX_OUT", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.configs = workload.configs(seed, smoke)
        for name, cfg in self.configs.items():
            (work / name).write_text(json.dumps(cfg, indent=2) + "\n")
        self.digests: dict[int, str] = {}
        self._serial = 0

    def _invoke(self, subcommand, config, extra, check, spans=None):
        self._serial += 1
        out = self.work / f"out-{self._serial}"
        cli = [subcommand, "--config", str(self.work / config),
               "--out", str(out), *extra]
        if spans is None:
            argv = [sys.executable, "-m", "hawkesmix.cli", *cli]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"),
                    str(spans), str(self._serial), "--", *cli]
        threads = int(extra[extra.index("--threads") + 1]
                      if "--threads" in extra else 1)
        child = run_child(argv, self.env, self.work / f"log-{self._serial}",
                          threads)
        problems = []
        if child.status == 0 or out.is_dir():
            try:
                problems = check(out, self.configs[config], self.ref)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        digest = digest_tree(out) if out.is_dir() else ""
        shutil.rmtree(out, ignore_errors=True)
        return child, problems, digest

    def setup(self) -> float:
        """Median wall time of ``validate`` on the workload's config."""
        walls = []
        for _ in range(SETUP_RUNS):
            child, problems, _ = self._invoke(
                "validate", self.workload.setup_config, (), check_validate)
            self.tally.record("validate", child.status, problems)
            walls.append(child.wall_s * child.scale)
        return statistics.median(walls)

    def iteration(self, spans_dir: Path | None = None) -> dict:
        """Run every command once; with ``spans_dir``, under tracing."""
        wall = cpu = rss = raw_wall = 0.0
        processes = []
        for k, cmd in enumerate(self.workload.commands):
            spans = None if spans_dir is None else spans_dir / f"{k}.json"
            child, problems, digest = self._invoke(
                cmd.subcommand, cmd.config, cmd.extra, cmd.check, spans)
            first = self.digests.setdefault(k, digest)
            if digest != first:
                problems.append("artifacts differ from an earlier run with "
                                "the same seed")
            self.tally.record(cmd.subcommand, child.status, problems)
            wall += child.wall_s * child.scale
            cpu += child.cpu_s * child.scale
            raw_wall += child.wall_s
            rss = max(rss, child.maxrss_mb)
            if spans is not None and spans.is_file():
                processes.append(json.loads(spans.read_text()))
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                "raw_wall_s": raw_wall, "processes": processes}


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def measure(runner: Runner, seconds: float) -> tuple[dict, int]:
    setup_s = runner.setup()
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        iterations.append(runner.iteration())
    metrics = {name: _metric(name, statistics.median(it[name]
                                                     for it in iterations))
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = _metric("setup_s", setup_s)
    raw = statistics.median(it["raw_wall_s"] for it in iterations)
    print(f"{runner.workload.name}: unscaled wall time {raw:.6g} s",
          file=sys.stderr)
    return metrics, len(iterations)


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, int]:
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(runner.iteration())
        spans_dir = runner.work / f"spans-{len(untraced)}"
        spans_dir.mkdir()
        it = runner.iteration(spans_dir)
        shutil.rmtree(spans_dir)
        if len(it["processes"]) != len(runner.workload.commands):
            runner.tally.problems.append("a traced command wrote no spans")
            continue
        traced.append(dict(layer_metrics(it["processes"]), wall_s=it["wall_s"]))
    if not traced:
        return {}, 0
    names = sorted(n for n in traced[0] if n != "wall_s")
    for name in names:
        if name.endswith(_DETERMINISTIC) and any(
                t[name] != traced[0][name] for t in traced):
            runner.tally.problems.append(
                f"{name} differs between traced iterations")
    metrics = {name: _metric(name, statistics.median(t[name] for t in traced))
               for name in names}
    overhead = (statistics.median(t["wall_s"] for t in traced)
                - statistics.median(u["wall_s"] for u in untraced))
    metrics["trace.overhead_s"] = _metric("trace.overhead_s", overhead)
    return metrics, len(traced)


def environment(root: Path) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(root),
        "thread_env": THREAD_ENV,
    }


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _report(name: str, metrics: dict, count: int, tally: Tally, trace: bool):
    kind = "traced iterations" if trace else "iterations"
    print(f"workload {name}: {count} {kind}, medians", file=sys.stderr)
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'fail_rate':44s} {rate:14.6g} ({tally.failed} of "
          f"{tally.attempted} operations)", file=sys.stderr)
    for problem in tally.problems:
        print(f"  FAILED {problem}", file=sys.stderr)


def run(root: Path, names: list, seed: int, seconds: float, trace: bool,
        smoke: bool) -> dict:
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    attempted = failed = 0
    correct = True
    all_metrics = {}
    try:
        for name in names:
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                runner = Runner(root, WORKLOADS[name], seed, smoke,
                                Path(tmp), reference)
                if trace:
                    metrics, count = measure_layers(runner, seconds)
                else:
                    metrics, count = measure(runner, seconds)
            _report(name, metrics, count, runner.tally, trace)
            attempted += runner.tally.attempted
            failed += runner.tally.failed
            correct = correct and not runner.tally.problems and count > 0
            prefix = "" if len(names) == 1 else f"{name}."
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": all_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs of the same shape, for tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hawkesmix" / "cli.py").is_file():
        print("error: run from a hawkesmix checkout; src/hawkesmix is "
              "missing", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(root)}), file=sys.stderr)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = run(root, names, args.seed, args.seconds, bool(args.trace),
                 args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
