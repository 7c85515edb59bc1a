"""Tests of the benchmark itself, on tiny inputs of every workload's shape.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import self_times
from workloads import WORKLOADS, check_variance

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def _check_result(result, expected_units):
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    for name in WORKLOADS:
        for metric, unit in expected_units.items():
            emitted = result["metrics"][f"{name}.{metric}"]
            assert emitted["unit"] == unit, (name, metric)
            assert isinstance(emitted["value"], float)
    assert len(result["metrics"]) == len(WORKLOADS) * len(expected_units)


def test_smoke_emits_every_end_to_end_metric():
    result = run.run(ROOT, list(WORKLOADS), seed=5, seconds=0, trace=False,
                     smoke=True)
    _check_result(result, _units(SPEC["end_to_end"]))
    for name in WORKLOADS:
        assert result["metrics"][f"{name}.wall_s"]["value"] > 0


def test_smoke_traced_run_emits_every_layer_metric():
    result = run.run(ROOT, list(WORKLOADS), seed=5, seconds=0, trace=True,
                     smoke=True)
    _check_result(result, _units(SPEC["per_layer"]))
    metrics = result["metrics"]
    assert metrics["clt-exp.simulate.cluster.calls"]["value"] == 50
    assert metrics["decay-powerlaw.spectrum.cov_counts.calls"]["value"] == 2
    assert metrics["simulate-pair.simulate.thinning.calls"]["value"] == 1
    assert metrics["spectral-powerlaw.kernels.powerlaw.fourier.points"][
        "value"] > 0


def test_perturbed_variance_counts_as_failed_operation(tmp_path):
    def perturbed(out, cfg, ref):
        path = out / "variance.json"
        payload = json.loads(path.read_text())
        payload["values"][0] *= 1.0 + 1e-3
        path.write_text(json.dumps(payload))
        return check_variance(out, cfg, ref)

    base = WORKLOADS["spectral-powerlaw"]
    variance = dataclasses.replace(base.commands[0], check=perturbed)
    workload = dataclasses.replace(base, commands=(variance,))
    reference = json.loads((run.BENCH_DIR / "reference.json").read_text())
    runner = run.Runner(ROOT, workload, 5, True, tmp_path, reference)
    runner.iteration()
    assert (runner.tally.attempted, runner.tally.failed) == (1, 1)
    assert "variance[0]" in runner.tally.problems[0]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        # two worker threads under the same parent
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "parent": 2, "start": 3.5, "end": 5.0},
    ]
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 3.0, 2: 1.5, 3: 1.5}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = SPEC["command"]
    proc = subprocess.run(
        [sys.executable, *spec[1:], "--workload", "simulate-pair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
