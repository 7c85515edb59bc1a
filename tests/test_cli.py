"""End-to-end checks of the configuration-driven command line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hawkesmix as hm
from hawkesmix.cli import (_BLOCKS, _block_keys, _load_config, _write_json,
                           main)

MODEL = {
    "eta": [1.0, 1.0],
    "kernels": [
        [
            {"family": "exponential", "alpha": 0.5, "beta": 2.0},
            {"family": "exponential", "alpha": 0.3, "beta": 1.0},
        ],
        [
            {"family": "uniform", "alpha": 0.2, "a": 1.0},
            {"family": "exponential", "alpha": 0.4, "beta": 3.0},
        ],
    ],
}

CONST_F = [{"form": "constant", "k": 1.0}, {"form": "constant", "k": 1.0}]


def write_config(tmp_path: Path, name: str = "config.json", **blocks) -> Path:
    cfg = {"model": "model.json"}
    cfg.update(blocks)
    (tmp_path / "model.json").write_text(json.dumps(MODEL))
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(command: str, config: Path, out: Path, *extra) -> int:
    return main([command, "--config", str(config), "--out", str(out), *extra])


class TestExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("validate", cfg, tmp_path / "out") == 0
        text = capsys.readouterr().out
        assert "spectral radius" in text
        payload = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert payload["rho"] == pytest.approx(0.7, abs=1e-9)

    def test_supercritical_exits_two(self, tmp_path, capsys):
        bad = dict(MODEL)
        bad["kernels"] = [
            [{"family": "exponential", "alpha": 1.2, "beta": 1.0},
             {"family": "zero"}],
            [{"family": "zero"},
             {"family": "exponential", "alpha": 0.4, "beta": 3.0}],
        ]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": bad}))
        assert run("validate", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "hypothesis violated" in err
        assert "spectral radius" in err

    def test_schema_violation_exits_one_with_pointer(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"horizon": 10.0, "seed": 1,
                                               "bogus_key": 3})
        assert run("simulate", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "config invalid at /simulate" in err
        assert "bogus_key" in err

    def test_missing_block_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("simulate", cfg, tmp_path / "out") == 1
        assert "'simulate' block" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run("validate", missing, tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_inadmissible_exponents_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mixing={"beta": 1.0, "gamma": 1.5,
                                             "lags": [5.0]})
        assert run("mixing-bound", cfg, tmp_path / "out") == 2
        assert "hypothesis violated" in capsys.readouterr().err


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, simulate={"horizon": 300.0, "seed": 5})
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "simulate"
        assert man["seed"] == 5
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert man["config_sha256"] == digest
        assert set(man["versions"]) == {"hawkesmix", "numpy", "python"}
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["counts"]) == 2
        assert (out / "events.csv").read_text().splitlines()[0] == "component,time"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, simulate={"horizon": 100.0, "seed": 5})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("simulate", cfg, out_a, "--seed", "99") == 0
        assert run("simulate", cfg, out_b) == 0
        man = json.loads((out_a / "manifest.json").read_text())
        assert man["seed"] == 99
        assert (out_a / "events.csv").read_text() != (out_b / "events.csv").read_text()

    def test_env_var_sets_default_out(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, simulate={"horizon": 50.0, "seed": 1})
        monkeypatch.setenv("HAWKESMIX_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "events.csv").exists()


class TestSpectrum:
    def test_csv_shape_and_values(self, tmp_path, d2_model):
        cfg = write_config(tmp_path, spectrum={"xi_min": -2.0, "xi_max": 2.0,
                                               "count": 41})
        out = tmp_path / "out"
        assert run("spectrum", cfg, out) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 42
        header = lines[0].split(",")
        assert header == ["xi", "re_00", "im_00", "re_01", "im_01",
                          "re_10", "im_10", "re_11", "im_11"]
        row0 = [float(v) for v in lines[1].split(",")]
        gam = hm.bartlett_grid(d2_model, row0[0])[0]
        assert row0[1] == pytest.approx(gam[0, 0].real, rel=1e-12)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_eigenvalue"] > -1e-10

    def test_large_theta_powerlaw_near_zero(self, tmp_path):
        model = {"eta": [1.0], "kernels": [[{"family": "powerlaw", "alpha": 0.5,
                                             "c": 1.0, "theta": 50.0}]]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": model, "spectrum": {
            "xi_min": 0.0, "xi_max": 1e-5, "count": 11}}))
        out = tmp_path / "out"
        assert run("spectrum", cfg, out) == 0
        rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
        assert rows.shape == (11, 3) and np.all(np.isfinite(rows))


class TestVariance:
    def test_values_match_library(self, tmp_path, d2_model):
        cfg = write_config(
            tmp_path,
            variance={"f": CONST_F, "horizons": [10.0, 50.0]},
        )
        out = tmp_path / "out"
        assert run("variance", cfg, out) == 0
        payload = json.loads((out / "variance.json").read_text())
        f = hm.TestFunction.constant([1.0, 1.0])
        expect = hm.variance_profile(d2_model, f, payload["horizons"])
        assert payload["values"] == pytest.approx(list(expect), rel=1e-12)
        assert payload["long_run_slope"] == pytest.approx(
            hm.asymptotic_variance_const(d2_model, [1.0, 1.0]), rel=1e-12
        )


class TestMixingBound:
    def test_report_written(self, tmp_path):
        cfg = write_config(tmp_path, mixing={"beta": 1.0, "gamma": 0.5,
                                             "lags": [5.0, 10.0]})
        out = tmp_path / "out"
        assert run("mixing-bound", cfg, out) == 0
        payload = json.loads((out / "mixing_bound.json").read_text())
        assert payload["bounds"][0] / payload["bounds"][1] == pytest.approx(
            2.0**0.5, rel=1e-12
        )

    def test_gamma_near_beta(self, tmp_path):
        """beta 1.4, gamma 1.2 on a rho = 0.7 model converges, and the
        report names its generation cut."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "model": {"eta": [1.0], "kernels": [[
                {"family": "exponential", "alpha": 0.7, "beta": 1.0}]]},
            "mixing": {"beta": 1.4, "gamma": 1.2, "lags": [10.0]}}))
        out = tmp_path / "out"
        assert run("mixing-bound", cfg, out) == 0
        payload = json.loads((out / "mixing_bound.json").read_text())
        assert np.isfinite(payload["bounds"][0])
        assert 0 < payload["generations"] < 4000


class TestCltCommand:
    def test_passing_run(self, tmp_path):
        cfg = write_config(tmp_path, clt={
            "f": CONST_F, "horizon": 100.0, "replicates": 40, "seed": 3,
            "grid": [0.5, 1.0],
        })
        out = tmp_path / "out"
        assert run("clt-test", cfg, out) == 0
        report = json.loads((out / "clt_report.json").read_text())
        assert report["passed"] is True
        lines = (out / "replicates.csv").read_text().splitlines()
        assert len(lines) == 41
        assert lines[0] == "replicate,standardized_statistic,w_0.5,w_1"

    def test_failed_check_exits_one_with_artifacts(self, tmp_path, capsys):
        # level 0.9 rejects most correct samples; seed frozen on a rejection
        cfg = write_config(tmp_path, clt={
            "f": CONST_F, "horizon": 50.0, "replicates": 60, "seed": 0,
            "grid": [1.0], "level": 0.9,
        })
        out = tmp_path / "out"
        assert run("clt-test", cfg, out) == 1
        assert "fail" in capsys.readouterr().out
        report = json.loads((out / "clt_report.json").read_text())
        assert report["passed"] is False
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("command,block", [
        ("clt-test", {"clt": {"f": CONST_F, "horizon": 400.0,
                              "replicates": 12, "seed": 9, "grid": [1.0]}}),
        ("decay", {"decay": {"i": 0, "j": 1, "window": 1.0,
                             "lags": [3.0, 5.0], "replicates": 100,
                             "seed": 2}}),
    ], ids=["clt", "decay"])
    def test_artifacts_independent_of_threads(self, tmp_path, monkeypatch,
                                              command, block):
        """``--threads`` forks replicate workers (here two, over several
        batches at a budget of ``2**14`` events) and changes no artifact
        byte."""
        monkeypatch.setattr(hm.stats, "_BATCH_EVENTS", 1 << 14)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forked, fork = [], hm.stats._forked
        monkeypatch.setattr(hm.stats, "_forked", lambda work, parts: (
            forked.append(len(parts)) or fork(work, parts)))
        cfg = write_config(tmp_path, **block)
        assert run(command, cfg, tmp_path / "a", "--threads", "1") == 0
        assert run(command, cfg, tmp_path / "b", "--threads", "2") == 0
        assert forked == [2]
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_threads_below_one_refused(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as caught:
            run("clt-test", cfg, tmp_path / "out", "--threads", value)
        assert caught.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err


class TestDecayCommand:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, decay={
            "i": 0, "j": 1, "window": 1.0, "lags": [3.0, 5.0],
            "replicates": 30, "seed": 2, "beta": 1.0, "gamma": 0.5,
        })
        out = tmp_path / "out"
        assert run("decay", cfg, out) == 0
        lines = (out / "decay.csv").read_text().splitlines()
        assert lines[0] == "lag,empirical,empirical_se,spectral,bound"
        assert len(lines) == 3
        payload = json.loads((out / "decay.json").read_text())
        assert payload["mixing"]["gamma"] == 0.5


class TestDeterminism:
    @pytest.mark.parametrize("command,blocks", [
        ("validate", {"validate": {"beta": 1.0}}),
        ("simulate", {"simulate": {"horizon": 200.0, "seed": 7}}),
        ("spectrum", {"spectrum": {"xi_min": 0.0, "xi_max": 1.0, "count": 11}}),
        ("variance", {"variance": {"f": CONST_F, "horizons": [20.0]}}),
        ("mixing-bound", {"mixing": {"beta": 1.0, "gamma": 0.5, "lags": [4.0]}}),
        ("clt-test", {"clt": {"f": CONST_F, "horizon": 50.0,
                              "replicates": 12, "seed": 9, "grid": [1.0]}}),
        ("decay", {"decay": {"i": 0, "j": 0, "window": 1.0, "lags": [3.0],
                             "replicates": 12, "seed": 4}}),
    ])
    def test_rerun_byte_identical(self, tmp_path, command, blocks):
        cfg = write_config(tmp_path, **blocks)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(command, cfg, out_a) == 0
        assert run(command, cfg, out_b) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestInlineModel:
    def test_inline_equals_file(self, tmp_path):
        cfg_file = write_config(tmp_path, validate={"beta": 1.0})
        inline = tmp_path / "inline.json"
        inline.write_text(json.dumps({"model": MODEL, "validate": {"beta": 1.0}}))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("validate", cfg_file, out_a) == 0
        assert run("validate", inline, out_b) == 0
        assert (out_a / "summary.json").read_bytes() == \
            (out_b / "summary.json").read_bytes()


# one valid block per command, each quick to run
VALID_BLOCKS = {
    "validate": {"beta": 1.0},
    "simulate": {"horizon": 10.0, "seed": 1},
    "spectrum": {"xi_min": 0.0, "xi_max": 1.0, "count": 5},
    "variance": {"f": CONST_F, "horizons": [5.0]},
    "mixing": {"beta": 1.0, "gamma": 0.5, "lags": [4.0]},
    "clt": {"f": CONST_F, "horizon": 20.0, "replicates": 12, "seed": 9,
            "grid": [1.0]},
    "decay": {"i": 0, "j": 0, "window": 1.0, "lags": [3.0],
              "replicates": 12, "seed": 4, "beta": 1.0, "gamma": 0.5},
}
BLOCK_COMMANDS = {"simulate": "simulate", "spectrum": "spectrum",
                  "variance": "variance", "mixing": "mixing-bound",
                  "clt": "clt-test", "decay": "decay"}
DROP = object()
NAN = float("nan")


def edited_config(tmp_path: Path, path: tuple, value) -> Path:
    """The valid inline config with the value at ``path`` replaced or dropped."""
    cfg = json.loads(json.dumps(dict(VALID_BLOCKS, model=MODEL)))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    out = tmp_path / "config.json"
    out.write_text(json.dumps(cfg))
    return out


def _case(path, value, status, *fragments):
    case_id = "/".join(map(str, path)) + "=" + (
        "drop" if value is DROP else json.dumps(value)[:24])
    return pytest.param(path, value, status, fragments, id=case_id)


K01 = ("model", "kernels", 0, 1)
F1 = ("variance", "f", 1)

# One invalid config per constraint of the former JSON schema: unknown and
# missing keys, JSON types, numeric bounds and NaN.  Key, shape and type
# failures point into the config; a range failure carries the message of the
# library check that owns the range.  Bounds on the mixing exponents reach
# mixing_bound's hypothesis check and exit 2; a decay block with only one of
# them is refused by mixing_decay_diagnostic and exits 1.
REJECTED = [
    _case(("bogus",), 1, 1, "config invalid at /: unknown fields ['bogus']"),
    _case(("model",), DROP, 1, "config invalid at /: missing fields ['model']"),
    _case(("model",), 3, 1, "config invalid at /model: expected an object"),
    _case(("model", "note"), "x", 1,
          "config invalid at /model: unknown fields ['note']"),
    _case(("model", "eta"), DROP, 1,
          "config invalid at /model: missing fields ['eta']"),
    _case(("model", "kernels"), DROP, 1,
          "config invalid at /model: missing fields ['kernels']"),
    _case(("model", "eta"), "x", 1,
          "config invalid at /model/eta: expected an array, got 'x'"),
    _case(("model", "eta", 0), "a", 1,
          "config invalid at /model/eta/0: expected a finite number, got 'a'"),
    _case(("model", "eta", 0), True, 1,
          "config invalid at /model/eta/0: expected a finite number, got True"),
    _case(("model", "eta"), [], 1, "eta must be a nonempty vector"),
    _case(("model", "eta", 0), NAN, 1,
          "config invalid at /model/eta/0: expected a finite number, got nan"),
    _case(("model", "kernels"), 3, 1,
          "config invalid at /model/kernels: expected an array, got 3"),
    _case(("model", "kernels", 0), 3, 1,
          "config invalid at /model/kernels/0: expected an array, got 3"),
    _case(K01, 3, 1, "config invalid at /model/kernels/0/1: expected an object"),
    _case(K01 + ("family",), "gaussian", 1,
          "config invalid at /model/kernels/0/1/family: unknown family "
          "'gaussian'"),
    _case(K01 + ("family",), DROP, 1,
          "config invalid at /model/kernels/0/1: missing fields ['family']"),
    _case(K01 + ("rate",), 3.0, 1,
          "config invalid at /model/kernels/0/1: unknown fields ['rate']"),
    _case(K01, {"family": "zero", "alpha": 0.0}, 1,
          "config invalid at /model/kernels/0/1: unknown fields ['alpha']"),
    _case(K01 + ("beta",), DROP, 1,
          "config invalid at /model/kernels/0/1: missing fields ['beta']"),
    _case(K01 + ("beta",), "fast", 1,
          "config invalid at /model/kernels/0/1/beta: expected a finite "
          "number, got 'fast'"),
    _case(K01 + ("alpha",), False, 1,
          "config invalid at /model/kernels/0/1/alpha: expected a finite "
          "number, got False"),
    _case(K01 + ("beta",), NAN, 1,
          "config invalid at /model/kernels/0/1/beta: expected a finite "
          "number, got nan"),
    _case(("model", "kernels", 0, 0, "beta"), 10**400, 1,
          "config invalid at /model/kernels/0/0/beta: expected a finite "
          "number, got 1000"),
    _case(K01 + ("alpha",), -0.1, 1, "alpha must be >= 0"),
    _case(K01 + ("beta",), 0.0, 1, "beta must be > 0"),
    _case(K01, {"family": "powerlaw", "alpha": -0.1, "c": 1.0, "theta": 2.0},
          1, "alpha must be >= 0"),
    _case(K01, {"family": "powerlaw", "alpha": 0.1, "c": 0.0, "theta": 2.0},
          1, "c must be > 0"),
    _case(K01, {"family": "powerlaw", "alpha": 0.1, "c": 1.0, "theta": 1.0},
          1, "theta must be > 1"),
    _case(("model", "kernels", 1, 0, "alpha"), -0.2, 1, "alpha must be >= 0"),
    _case(("model", "kernels", 1, 0, "a"), 0.0, 1, "a must be > 0"),
    _case(("validate",), 3, 1,
          "config invalid at /validate: expected an object, got 3"),
    _case(("validate", "gamma"), 1.0, 1,
          "config invalid at /validate: unknown fields ['gamma']"),
    _case(("validate", "beta"), "x", 1,
          "config invalid at /validate/beta: expected a finite number, got 'x'"),
    _case(("validate", "beta"), -0.5, 1, "beta must be > 0, got -0.5"),
    _case(("validate", "beta"), NAN, 1,
          "config invalid at /validate/beta: expected a finite number, got nan"),
    _case(("simulate", "bogus_key"), 3, 1,
          "config invalid at /simulate: unknown fields ['bogus_key']"),
    _case(("simulate", "horizon"), DROP, 1,
          "config invalid at /simulate: missing fields ['horizon']"),
    _case(("simulate", "seed"), DROP, 1,
          "config invalid at /simulate: missing fields ['seed']"),
    _case(("simulate", "horizon"), "10", 1,
          "config invalid at /simulate/horizon: expected a finite number, "
          "got '10'"),
    _case(("simulate", "horizon"), 0.0, 1, "horizon must be positive"),
    _case(("simulate", "horizon"), NAN, 1,
          "config invalid at /simulate/horizon: expected a finite number, "
          "got nan"),
    _case(("simulate", "burn_in"), -1.0, 1, "burn-in must be >= 0"),
    _case(("simulate", "seed"), 1.5, 1,
          "config invalid at /simulate/seed: expected an integer, got 1.5"),
    _case(("simulate", "seed"), -1, 1, "seed must be >= 0, got -1"),
    _case(("simulate", "simulator"), "bogus", 1, "unknown simulator 'bogus'"),
    _case(("spectrum", "step"), 0.1, 1,
          "config invalid at /spectrum: unknown fields ['step']"),
    _case(("spectrum", "count"), DROP, 1,
          "config invalid at /spectrum: missing fields ['count']"),
    _case(("spectrum", "xi_min"), "a", 1,
          "config invalid at /spectrum/xi_min: expected a finite number, "
          "got 'a'"),
    _case(("spectrum", "xi_max"), NAN, 1,
          "config invalid at /spectrum/xi_max: expected a finite number, "
          "got nan"),
    _case(("spectrum", "count"), 2.5, 1,
          "config invalid at /spectrum/count: expected an integer, got 2.5"),
    _case(("spectrum", "count"), 1, 1, "spectrum grid needs count >= 2, got 1"),
    _case(("variance", "tol"), 1e-6, 1,
          "config invalid at /variance: unknown fields ['tol']"),
    _case(("variance", "f"), DROP, 1,
          "config invalid at /variance: missing fields ['f']"),
    _case(("variance", "f"), {"form": "constant", "k": 1.0}, 1,
          "config invalid at /variance/f: expected an array"),
    _case(("variance", "f"), [], 1, "need at least one component"),
    _case(F1, 1.0, 1,
          "config invalid at /variance/f/1: expected an object, got 1.0"),
    _case(F1 + ("form",), "spline", 1,
          "config invalid at /variance/f/1/form: unknown form 'spline'"),
    _case(F1 + ("form",), DROP, 1,
          "config invalid at /variance/f/1: missing fields ['form']"),
    _case(F1, {"form": "indicator", "a": 0.0, "b": 1.0, "amp": 3.0}, 1,
          "config invalid at /variance/f/1: unknown fields ['amp']"),
    _case(F1, {"form": "indicator", "a": 0.0}, 1,
          "config invalid at /variance/f/1: missing fields ['b']"),
    _case(F1 + ("k",), "1", 1,
          "config invalid at /variance/f/1/k: expected a finite number, "
          "got '1'"),
    _case(F1 + ("k",), NAN, 1,
          "config invalid at /variance/f/1/k: expected a finite number, "
          "got nan"),
    _case(F1, {"form": "const_plus_indicator", "a": 0.0, "b": 1.0}, 1,
          "config invalid at /variance/f/1: missing fields ['k']"),
    _case(F1, {"form": "trigpoly", "period": 0.0, "a0": 1.0}, 1,
          "period must be positive"),
    _case(F1, {"form": "trigpoly", "period": 1.0, "a0": 1.0, "cos": 0.5}, 1,
          "config invalid at /variance/f/1/cos: expected an array, got 0.5"),
    _case(F1, {"form": "trigpoly", "period": 1.0, "a0": 1.0, "sin": ["x"]}, 1,
          "config invalid at /variance/f/1/sin/0: expected a finite number, "
          "got 'x'"),
    _case(F1, {"form": "periodic_samples", "period": -1.0,
               "samples": [1.0, 2.0]}, 1, "period must be positive"),
    _case(F1, {"form": "periodic_samples", "period": 1.0, "samples": [1.0]},
          1, "need at least two samples per period"),
    _case(("variance", "horizons"), [], 1,
          "profile horizons must be nonempty, finite and strictly positive"),
    _case(("variance", "horizons", 0), 0.0, 1,
          "profile horizons must be nonempty, finite and strictly positive"),
    _case(("variance", "horizons", 0), NAN, 1,
          "config invalid at /variance/horizons/0: expected a finite number, "
          "got nan"),
    _case(("mixing", "delta"), 1.0, 1,
          "config invalid at /mixing: unknown fields ['delta']"),
    _case(("mixing", "lags"), DROP, 1,
          "config invalid at /mixing: missing fields ['lags']"),
    _case(("mixing", "beta"), 0.0, 2, "need 0 < gamma < beta", "beta=0.0"),
    _case(("mixing", "gamma"), -0.5, 2, "need 0 < gamma < beta", "gamma=-0.5"),
    _case(("mixing", "lags"), 4.0, 1,
          "config invalid at /mixing/lags: expected an array, got 4.0"),
    _case(("mixing", "lags"), [], 1,
          "lags must be nonempty and strictly positive"),
    _case(("mixing", "lags", 0), -4.0, 1,
          "lags must be nonempty and strictly positive"),
    _case(("clt", "threads"), 2, 1,
          "config invalid at /clt: unknown fields ['threads']"),
    _case(("clt", "workers"), 2, 1,
          "config invalid at /clt: unknown fields ['workers']"),
    _case(("clt", "replicates"), DROP, 1,
          "config invalid at /clt: missing fields ['replicates']"),
    _case(("clt", "horizon"), -20.0, 1, "horizon must be > 0, got -20.0"),
    _case(("clt", "replicates"), 12.5, 1,
          "config invalid at /clt/replicates: expected an integer, got 12.5"),
    _case(("clt", "replicates"), 9, 1, "need at least 10 replicates, got 9"),
    _case(("clt", "seed"), -9, 1, "seed must be >= 0, got -9"),
    _case(("clt", "beta"), -0.5, 1, "beta must be > 0, got -0.5"),
    _case(("clt", "delta"), -10.0, 1, "delta must be > 0, got -10.0"),
    _case(("clt", "grid"), [], 1, "grid must be nonempty"),
    _case(("clt", "grid_step"), 0.0, 1, "grid step must lie in (0, horizon]"),
    _case(("clt", "simulator"), "bogus", 1,
          "config invalid at /clt: unknown fields ['simulator']"),
    _case(("clt", "simulator"), 1, 1,
          "config invalid at /clt: unknown fields ['simulator']"),
    _case(("clt", "level"), 0.0, 1, "level must lie in (0, 1), got 0.0"),
    _case(("clt", "level"), 1.5, 1, "level must lie in (0, 1), got 1.5"),
    _case(("clt", "level"), NAN, 1,
          "config invalid at /clt/level: expected a finite number, got nan"),
    _case(("clt", "f", 0, "k"), True, 1,
          "config invalid at /clt/f/0/k: expected a finite number, got True"),
    _case(("decay", "window_len"), 1.0, 1,
          "config invalid at /decay: unknown fields ['window_len']"),
    _case(("decay", "workers"), 2, 1,
          "config invalid at /decay: unknown fields ['workers']"),
    _case(("decay", "i"), DROP, 1,
          "config invalid at /decay: missing fields ['i']"),
    _case(("decay", "i"), -1, 1, "component index -1 out of range"),
    _case(("decay", "j"), -1, 1, "component index -1 out of range"),
    _case(("decay", "j"), 0.5, 1,
          "config invalid at /decay/j: expected an integer, got 0.5"),
    _case(("decay", "window"), 0.0, 1, "window length must be positive"),
    _case(("decay", "lags"), [], 1, "need at least one lag"),
    _case(("decay", "lags", 0), -3.0, 1, "lags must exceed the window length"),
    _case(("decay", "replicates"), 3, 1, "need at least 10 replicates, got 3"),
    _case(("decay", "seed"), -4, 1, "seed must be >= 0, got -4"),
    _case(("decay", "beta"), -1.0, 2, "need 0 < gamma < beta", "beta=-1.0"),
    _case(("decay", "gamma"), 0.0, 2, "need 0 < gamma < beta", "gamma=0.0"),
    _case(("decay", "gamma"), DROP, 1, "needs both beta and gamma",
          "beta=1.0, gamma=None"),
    _case(("decay", "beta"), DROP, 1, "needs both beta and gamma",
          "beta=None, gamma=0.5"),
    _case(("decay", "simulator"), "bogus", 1,
          "config invalid at /decay: unknown fields ['simulator']"),
]


class TestRejection:
    @pytest.mark.parametrize("path,value,status,fragments", REJECTED)
    def test_invalid_config(self, tmp_path, capsys, path, value, status,
                            fragments):
        cfg = edited_config(tmp_path, path, value)
        command = BLOCK_COMMANDS.get(path[0], "validate")
        assert run(command, cfg, tmp_path / "out") == status
        err = capsys.readouterr().err
        for fragment in fragments:
            assert fragment in err

    def test_every_block_checked_whatever_the_command(self, tmp_path, capsys):
        cfg = edited_config(tmp_path, ("clt", "f", 0, "form"), "spline")
        assert run("validate", cfg, tmp_path / "out") == 1
        assert "config invalid at /clt/f/0/form" in capsys.readouterr().err

    def test_model_file_pointer_names_the_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        spec = json.loads(json.dumps(MODEL))
        spec["kernels"][1][0]["a"] = "wide"
        (tmp_path / "model.json").write_text(json.dumps(spec))
        assert run("validate", cfg, tmp_path / "out") == 1
        assert ("config invalid at model.json#/kernels/1/0/a"
                in capsys.readouterr().err)

    def test_validate_runs_without_jsonschema(self, tmp_path):
        cfg = write_config(tmp_path, validate={"beta": 1.0})
        code = ("import sys; sys.modules['jsonschema'] = None; "
                "from hawkesmix.cli import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(hm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, "validate", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "spectral radius 0.7 < 1" in proc.stdout


# The config contract, a user's view of each block: its keys mapped to
# their JSON kinds, and the keys it must hold.  The loader reads both from
# the signature of the function the block is handed to, so a library rename
# that would change a user's config fails here.
BLOCK_CONTRACT = {
    "validate": ({"beta": "float"}, ()),
    "simulate": ({"horizon": "float", "burn_in": "float", "seed": "int",
                  "simulator": "str"}, ("horizon", "seed")),
    "spectrum": ({"xi_min": "float", "xi_max": "float", "count": "int"},
                 ("xi_min", "xi_max", "count")),
    "variance": ({"f": "TestFunction", "horizons": "list[float]"},
                 ("f", "horizons")),
    "mixing": ({"beta": "float", "gamma": "float", "lags": "list[float]"},
               ("beta", "gamma", "lags")),
    "clt": ({"f": "TestFunction", "horizon": "float", "replicates": "int",
             "seed": "int", "beta": "float", "delta": "float",
             "grid": "list[float]", "grid_step": "float", "level": "float"},
            ("f", "horizon", "replicates", "seed")),
    "decay": ({"i": "int", "j": "int", "window": "float",
               "lags": "list[float]", "replicates": "int", "seed": "int",
               "beta": "float", "gamma": "float"},
              ("i", "j", "window", "lags", "replicates", "seed")),
}


class TestContract:
    def test_blocks_read_from_callees_match_the_contract(self):
        derived = {name: _block_keys(callee)
                   for name, callee in _BLOCKS.items()}
        assert derived == BLOCK_CONTRACT

    def test_readme_command_table_matches_the_blocks(self):
        """Each row of the README's command table lists its block's keys:
        the back-ticked names of its keys column, less the parenthesised
        defaults."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text().split("| command | block |", 1)[1]

        def names(cell):
            return re.findall(r"`([^`]+)`", re.sub(r"\([^()]*\)", "", cell))

        documented = {}
        for line in table.splitlines()[2:]:
            if not line.startswith("|"):
                break
            _, _, block, _, keys, _ = line.split("|")
            (name,) = names(block)
            documented[name] = sorted(names(keys))
        assert documented == {name: sorted(_block_keys(callee)[0])
                              for name, callee in _BLOCKS.items()}

    def test_readme_example_config_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Command line", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "config.json"
        path.write_text(example)
        cfg = _load_config(str(path))
        assert set(cfg) == {"model", *BLOCK_COMMANDS}
        assert hm.model_from_dict(cfg["model"]).d == 2

    def test_readme_quick_start_runs(self, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Quick start", 1)[1]
        example = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(example, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines()[0] == "0.7"


class TestArtifacts:
    def test_non_finite_value_refused(self, tmp_path):
        # a .json artifact holding NaN would not be valid JSON
        with pytest.raises(ValueError):
            _write_json(tmp_path / "out.json", {"v": float("nan")})
        assert not (tmp_path / "out.json").exists()


class TestImports:
    @staticmethod
    def _fresh_import(code: str) -> str:
        # every CLI process pays for what `import hawkesmix.cli` loads
        src = str(Path(hm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_leaves_out_scipy_integrate(self):
        code = ("import sys, hawkesmix.cli; "
                "print('scipy.integrate' in sys.modules)")
        assert self._fresh_import(code) == "False"

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, hawkesmix.cli; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        assert self._fresh_import(code) == "[]"

    def test_cli_import_loads_no_polynomial_module(self):
        # the quadrature's Gauss-Legendre rule is written out; numpy 1.x
        # loads numpy.polynomial with numpy itself, which is not counted
        code = ("import sys, numpy; "
                "before = set(sys.modules); "
                "import hawkesmix.cli; "
                "print(sorted(m for m in set(sys.modules) - before "
                "if m.startswith('numpy.polynomial')))")
        assert self._fresh_import(code) == "[]"

    def test_cli_import_loads_no_multiprocessing(self):
        # only a run with more than one replicate worker imports them
        code = ("import sys, hawkesmix.cli; "
                "print('multiprocessing' in sys.modules, "
                "'concurrent.futures' in sys.modules)")
        assert self._fresh_import(code) == "False False"
