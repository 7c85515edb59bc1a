"""Workloads of the hawkesmix benchmark and the checks on their outputs.

A workload is a list of CLI commands run in sequence, each in a fresh
process, on configs generated from the benchmark seed.  The seed sets the
Monte Carlo seeds only; model and spectral parameters are fixed, so every
deterministic output can be compared with ``reference.json`` (written by
``make_reference.py``) at the tolerance the library certifies for it.
Monte Carlo outputs are checked statistically, so a simulator that draws a
different random stream still passes.

Each check returns a list of problems; an empty list means the output is
correct.  ``smoke`` selects tiny inputs of the same shape, used by the
benchmark's own tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXP_MODEL = {
    "eta": [1.0, 1.0],
    "kernels": [
        [{"family": "exponential", "alpha": 0.5, "beta": 2.0},
         {"family": "exponential", "alpha": 0.3, "beta": 2.0}],
        [{"family": "exponential", "alpha": 0.2, "beta": 2.0},
         {"family": "exponential", "alpha": 0.4, "beta": 2.0}],
    ],
}

POWERLAW_MODEL = {
    "eta": [1.0],
    "kernels": [[{"family": "powerlaw", "alpha": 0.4, "c": 1.0,
                  "theta": 2.5}]],
}

MODELS = {"exp": EXP_MODEL, "powerlaw": POWERLAW_MODEL}

ONES = [{"form": "constant", "k": 1.0}, {"form": "constant", "k": 1.0}]
TRIGPOLY = [{"form": "trigpoly", "period": 10.0, "a0": 1.0, "cos": [0.5],
             "sin": [0.25]}]

# Tolerances, each twice the one the library certifies, since both the
# reference and the checked value may sit at opposite ends of it.
VARIANCE_REL = 2e-6        # variance_ST default rel_tol 1e-6
PROFILE_REL = 2e-4         # time_change default rel_tol 1e-4
COV_REL, COV_ABS = 2e-6, 2e-9   # cov_counts rel_tol 1e-6, abs_tol 1e-9
# closed-form spectra are exact up to the power-law transform's 1e-12
SPECTRUM_REL = 1e-9
MODEL_REL = 1e-9
MC_SE = 4.0                # Monte Carlo agreement, in standard errors
RATIO_SLACK = 1e-3         # criterion 7: bound ratio >= 2^gamma (1 - 1e-3)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``hawkesmix <subcommand> --config <config>``."""

    subcommand: str
    config: str
    check: Callable[[Path, dict, dict], list]
    extra: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    configs: Callable[[int, bool], dict]
    commands: tuple

    @property
    def setup_config(self) -> str:
        return self.commands[0].config


# ------------------------------------------------------------------ checks

def _load(out: Path, name: str):
    return json.loads((out / name).read_text())


def _csv_rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines]


def _close(label: str, value, ref: float, rel: float, abs_tol: float = 0.0):
    tol = max(rel * abs(ref), abs_tol)
    if isinstance(value, (int, float)) and abs(value - ref) <= tol:
        return []
    return [f"{label} = {value!r}, reference {ref!r}, tolerance {tol:.3g}"]


def _close_all(label: str, values, refs, rel: float, abs_tol: float = 0.0):
    if not isinstance(values, list) or len(values) != len(refs):
        return [f"{label} has {values!r}, expected {len(refs)} values"]
    problems = []
    for k, (v, r) in enumerate(zip(values, refs)):
        problems += _close(f"{label}[{k}]", v, r, rel, abs_tol)
    return problems


def check_validate(out: Path, cfg: dict, ref: dict) -> list:
    summary = _load(out, "summary.json")
    model = ref["model"]
    return (_close("rho", summary["rho"], model["rho"], MODEL_REL)
            + _close_all("mean_intensity", summary["mean_intensity"],
                         model["mean_intensity"], MODEL_REL))


def check_clt(out: Path, cfg: dict, ref: dict) -> list:
    block = cfg["clt"]
    report = _load(out, "clt_report.json")
    problems = []
    if report["passed"] is not True:
        problems.append(f"clt checks failed: {report['flags']}")
    if report["replicates"] != block["replicates"]:
        problems.append(f"replicates {report['replicates']!r}")
    problems += _close("sigma_T^2", report["sigma_T"] ** 2,
                       ref["sigma_T2"], PROFILE_REL)
    rows = _csv_rows(out / "replicates.csv")
    if len(rows) != block["replicates"] + 1:
        problems.append(f"replicates.csv has {len(rows) - 1} rows")
    return problems


def check_decay(out: Path, cfg: dict, ref: dict) -> list:
    block = cfg["decay"]
    report = _load(out, "decay.json")
    problems = []
    if report["lags"] != block["lags"]:
        problems.append(f"lags {report['lags']!r}")
    if report["replicates"] != block["replicates"]:
        problems.append(f"replicates {report['replicates']!r}")
    problems += _close_all("spectral", report["spectral"], ref["spectral"],
                           COV_REL, COV_ABS)
    for lag, emp, se, spec, bound in zip(
            block["lags"], report["empirical"], report["empirical_se"],
            report["spectral"], report["bound"] or []):
        if not abs(emp - spec) <= MC_SE * se:
            problems.append(f"lag {lag}: empirical {emp!r} is more than "
                            f"{MC_SE} SE ({se!r}) from spectral {spec!r}")
        # the bound is taken at the window gap and must dominate
        if not abs(spec) <= bound:
            problems.append(f"lag {lag}: bound {bound!r} below |spectral|")
    if report["bound"] is None or len(report["bound"]) != len(block["lags"]):
        problems.append("decay report lacks the mixing bound")
    rows = _csv_rows(out / "decay.csv")
    if len(rows) != len(block["lags"]) + 1:
        problems.append(f"decay.csv has {len(rows) - 1} rows")
    return problems


def check_variance(out: Path, cfg: dict, ref: dict) -> list:
    payload = _load(out, "variance.json")
    problems = []
    if payload["horizons"] != cfg["variance"]["horizons"]:
        problems.append(f"horizons {payload['horizons']!r}")
    return problems + _close_all("variance", payload["values"],
                                 ref["variance"], VARIANCE_REL)


def check_mixing(out: Path, cfg: dict, ref: dict) -> list:
    block = cfg["mixing"]
    report = _load(out, "mixing_bound.json")
    lags, bounds = report["lags"], report["bounds"]
    if lags != block["lags"] or len(bounds) != len(lags):
        return [f"mixing report lags {lags!r}, {len(bounds)} bounds"]
    problems = []
    by_lag = dict(zip(lags, bounds))
    for lag, bound in by_lag.items():
        if not 0.0 < bound < math.inf:
            problems.append(f"bound {bound!r} at lag {lag}")
        elif 2.0 * lag in by_lag:
            # criterion 7: the bound decays at least like tau^-gamma
            ratio = bound / by_lag[2.0 * lag]
            need = 2.0 ** block["gamma"] * (1.0 - RATIO_SLACK)
            if not ratio >= need:
                problems.append(f"bound ratio {ratio!r} at lag {lag} "
                                f"below {need!r}")
    return problems


def check_spectrum(out: Path, cfg: dict, ref: dict) -> list:
    block = cfg["spectrum"]
    summary = _load(out, "summary.json")
    rows = _csv_rows(out / "spectrum.csv")
    header, body = rows[0], rows[1:]
    problems = []
    if summary["count"] != block["count"] or len(body) != block["count"]:
        return [f"spectrum has {len(body)} rows, summary count "
                f"{summary['count']!r}"]
    problems += _close("min_eigenvalue", summary["min_eigenvalue"],
                       ref["min_eigenvalue"], SPECTRUM_REL)
    if not summary["hermitian_defect"] <= SPECTRUM_REL:
        problems.append(f"hermitian defect {summary['hermitian_defect']!r}")
    for k, name in enumerate(header):
        if name.startswith("re_"):
            col = [float(r[k]) for r in body]
            problems += _close(f"sum of {name}", math.fsum(col),
                               ref["re_sum"][name], SPECTRUM_REL)
            problems += _close(f"max of {name}", max(col),
                               ref["re_max"][name], SPECTRUM_REL)
    return problems


def check_simulate(out: Path, cfg: dict, ref: dict) -> list:
    """Event counts agree with the stationary rates within ``MC_SE``
    standard errors of the spectral long-run variance.

    At T=1e5 that is 0.6% of the rate, tighter than a fixed 1.5%; at the
    thinning horizon a fixed 1.5% would be under one standard error.
    """
    block = cfg["simulate"]
    horizon = block["horizon"]
    summary = _load(out, "summary.json")
    sidecar = _load(out, "events.json")
    problems = []
    if summary["simulator"] != block.get("simulator", "cluster"):
        problems.append(f"simulator {summary['simulator']!r}")
    if sidecar["horizon"] != horizon:
        problems.append(f"event log horizon {sidecar['horizon']!r}")
    model = ref["model"]
    counts = summary["counts"]
    for i, (n, m, slope) in enumerate(zip(counts, model["mean_intensity"],
                                          model["count_var_slope"])):
        se = math.sqrt(slope / horizon)
        if not abs(n / horizon - m) <= MC_SE * se:
            problems.append(f"component {i}: rate {n / horizon!r} is more "
                            f"than {MC_SE} SE ({se:.3g}) from {m!r}")
    with open(out / "events.csv", "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(
            lambda: fh.read(1 << 20), b""))
    if lines != sum(counts) + 1:
        problems.append(f"events.csv has {lines - 1} rows, counts {counts!r}")
    return problems


# --------------------------------------------------------------- workloads

def _mc_seed(seed: int) -> int:
    return seed % (2 ** 31)


def _clt_configs(seed: int, smoke: bool) -> dict:
    block = {
        "f": ONES,
        "horizon": 100.0 if smoke else 2000.0,
        "replicates": 50 if smoke else 1000,
        "seed": _mc_seed(seed),
        # criterion 5's grid and a 0.1% KS level keep the chance that a
        # correct simulator fails the report near 0.5% per seed
        "grid": [0.25, 0.5, 0.75, 1.0],
        "level": 0.001,
    }
    if smoke:
        block["grid_step"] = 2.0
    return {"clt.json": {"model": EXP_MODEL, "clt": block}}


def _decay_configs(seed: int, smoke: bool) -> dict:
    return {"decay.json": {"model": POWERLAW_MODEL, "decay": {
        "i": 0,
        "j": 0,
        "window": 1.0,
        "lags": [2.0, 3.0] if smoke else [5.0, 10.0],
        "replicates": 200 if smoke else 4000,
        "seed": _mc_seed(seed),
        "beta": 1.4,
        "gamma": 0.5,
    }}}


def _spectral_configs(seed: int, smoke: bool) -> dict:
    # no Monte Carlo: the seed changes nothing
    return {"spectral.json": {
        "model": POWERLAW_MODEL,
        "variance": {"f": TRIGPOLY,
                     "horizons": [20.0, 40.0] if smoke
                     else [250.0, 500.0, 1000.0]},
        "mixing": {"beta": 1.4, "gamma": 0.5,
                   "lags": [8.0, 16.0] if smoke
                   else [8.0, 16.0, 32.0, 64.0, 128.0]},
        "spectrum": {"xi_min": -5.0, "xi_max": 5.0,
                     "count": 101 if smoke else 2001},
    }}


def _simulate_configs(seed: int, smoke: bool) -> dict:
    s = _mc_seed(seed)
    return {
        "cluster.json": {"model": EXP_MODEL, "simulate": {
            "horizon": 2000.0 if smoke else 1e5, "seed": s}},
        "thinning.json": {"model": EXP_MODEL, "simulate": {
            "horizon": 200.0 if smoke else 4000.0, "seed": s,
            "simulator": "thinning"}},
    }


WORKLOADS = {w.name: w for w in [
    Workload(
        "clt-exp",
        "exp", _clt_configs,
        (Command("clt-test", "clt.json", check_clt, ("--threads", "2")),),
    ),
    Workload(
        "decay-powerlaw",
        "powerlaw", _decay_configs,
        (Command("decay", "decay.json", check_decay),),
    ),
    Workload(
        "spectral-powerlaw",
        "powerlaw", _spectral_configs,
        (Command("variance", "spectral.json", check_variance),
         Command("mixing-bound", "spectral.json", check_mixing),
         Command("spectrum", "spectral.json", check_spectrum)),
    ),
    Workload(
        "simulate-pair",
        "exp", _simulate_configs,
        (Command("simulate", "cluster.json", check_simulate),
         Command("simulate", "thinning.json", check_simulate)),
    ),
]}
