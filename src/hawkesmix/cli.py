"""Configuration-driven command line interface.

One JSON config describes the model and per-command parameter blocks; each
subcommand checks the whole config (unknown keys, missing keys and values of
the wrong JSON type are rejected with a JSON-pointer message), runs the
corresponding pipeline, and writes JSON/CSV artifacts plus a manifest with
the config hash, effective seed, and library versions.  Artifacts contain no
timestamps and all iteration is seeded, so a rerun with the same config is
byte-identical.

Exit codes: 0 on success, 2 when a model or parameter violates a hypothesis
of the underlying theory (subcriticality, kernel moments, exponent
ranges), 1 on any other error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .branching import mixing_bound
from .errors import (ConfigError, HypothesisError, check_fields, config_path,
                     finite_number, number_list)
from .model import HawkesModel, model_from_dict
from .simulate import simulate, write_event_log
from .spectrum import (SpectrumMatrix, asymptotic_variance_const,
                       bartlett_grid, variance_profile)
from .spectrum import variance_ST  # noqa: F401 - bench/tracing.py wraps it
from .stats import clt_harness, mixing_decay_diagnostic
from .testfunctions import TestFunction

__all__ = ["main"]

# Every key a command block may hold, mapped to its JSON kind, and the keys
# it must hold.  Value ranges are checked by the functions that use them.
# Keys are the parameter names of the library function that each command
# hands its block to unchanged; only decay's ``window`` is renamed, to
# ``window_len``.
_BLOCKS = {
    "validate": ({"beta": "number"}, ()),
    "simulate": ({"horizon": "number", "burn_in": "number", "seed": "integer",
                  "simulator": "string"}, ("horizon", "seed")),
    "spectrum": ({"xi_min": "number", "xi_max": "number", "count": "integer"},
                 ("xi_min", "xi_max", "count")),
    "variance": ({"f": "f", "horizons": "numbers"}, ("f", "horizons")),
    "mixing": ({"beta": "number", "gamma": "number", "lags": "numbers"},
               ("beta", "gamma", "lags")),
    "clt": ({"f": "f", "horizon": "number", "replicates": "integer",
             "seed": "integer", "beta": "number", "delta": "number",
             "grid": "numbers", "grid_step": "number", "simulator": "string",
             "level": "number"}, ("f", "horizon", "replicates", "seed")),
    "decay": ({"i": "integer", "j": "integer", "window": "number",
               "lags": "numbers", "replicates": "integer", "seed": "integer",
               "beta": "number", "gamma": "number", "simulator": "string"},
              ("i", "j", "window", "lags", "replicates", "seed")),
}


def _json_type(types, name: str):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError("", f"expected {name}, got {value!r}")
    return check


_KINDS = {
    "number": finite_number,
    "numbers": number_list,
    "integer": _json_type(int, "an integer"),
    "string": _json_type(str, "a string"),
    "f": TestFunction.from_dict,  # checked by building it
}


def _float_repr(x) -> str:
    return repr(float(x))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               allow_nan=False) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            c if isinstance(c, str) else _float_repr(c) for c in row
        ))
    path.write_text("\n".join(lines) + "\n")


def _load_config(path: str) -> dict:
    """Read a config and check every command block against ``_BLOCKS``."""
    with open(path) as fp:
        cfg = json.load(fp)
    check_fields(cfg, ("model",), _BLOCKS)
    for name, (kinds, required) in _BLOCKS.items():
        if name in cfg:
            with config_path(name):
                check_fields(cfg[name], required, kinds)
            for key, value in cfg[name].items():
                with config_path(name, key):
                    _KINDS[kinds[key]](value)
    return cfg


def _load_model(cfg: dict, config_dir: Path) -> HawkesModel:
    spec = cfg["model"]
    where = "/model"
    if isinstance(spec, str):
        # a model file is a JSON document of its own; its pointers are
        # given as a fragment of the file name
        where = f"{spec}#"
        model_path = Path(spec)
        if not model_path.is_absolute():
            model_path = config_dir / model_path
        with open(model_path) as fp:
            spec = json.load(fp)
    try:
        return model_from_dict(spec)
    except ConfigError as exc:
        exc.pointer = where + exc.pointer
        raise


def _require_block(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ValueError(f"config lacks the {name!r} block")
    return cfg[name]


def _manifest(outdir: Path, command: str, config_path: str, seed) -> None:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    _write_json(outdir / "manifest.json", {
        "command": command,
        "config_sha256": digest,
        "seed": seed,
        "versions": {
            "hawkesmix": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    })


def _cmd_validate(model: HawkesModel, cfg: dict, args, outdir: Path):
    beta = cfg.get("validate", {}).get("beta")
    summary = model.validate(beta)
    payload = summary.to_dict()
    payload["beta_checked"] = beta
    _write_json(outdir / "summary.json", payload)
    print(f"spectral radius {summary.rho:.6g} < 1")
    rates = ", ".join(f"{v:.6g}" for v in summary.mean_intensity)
    print(f"mean intensities: {rates}")
    return None, 0


def _cmd_simulate(model: HawkesModel, cfg: dict, args, outdir: Path):
    block = _require_block(cfg, "simulate")
    seed = args.seed if args.seed is not None else block["seed"]
    log = simulate(model, **{**block, "seed": seed})
    write_event_log(log, outdir / "events.csv")
    counts = [len(t) for t in log.events]
    _write_json(outdir / "summary.json", {
        "horizon": block["horizon"],
        "simulator": log.meta["simulator"],
        "burn_in": log.meta["burn_in"],
        "counts": counts,
        "rates": [c / block["horizon"] for c in counts],
        "mean_intensity": model.mean_intensity.tolist(),
    })
    print(f"simulated {sum(counts)} events over horizon {block['horizon']:g}")
    return seed, 0


def _cmd_spectrum(model: HawkesModel, cfg: dict, args, outdir: Path):
    block = _require_block(cfg, "spectrum")
    if block["xi_max"] <= block["xi_min"]:
        raise ValueError("spectrum grid needs xi_max > xi_min")
    if block["count"] < 2:
        raise ValueError(f"spectrum grid needs count >= 2, got {block['count']}")
    model.validate()
    xis = np.linspace(block["xi_min"], block["xi_max"], block["count"])
    gam = bartlett_grid(model, xis)
    d = model.d
    header = ["xi"]
    for i in range(d):
        for j in range(d):
            header += [f"re_{i}{j}", f"im_{i}{j}"]
    rows = []
    for p, xi in enumerate(xis):
        row = [xi]
        for i in range(d):
            for j in range(d):
                row += [gam[p, i, j].real, gam[p, i, j].imag]
        rows.append(row)
    _write_csv(outdir / "spectrum.csv", header, rows)
    grid = SpectrumMatrix(xis, gam)
    min_eig = grid.min_eigenvalue()
    _write_json(outdir / "summary.json", {
        "count": int(block["count"]),
        "xi_min": block["xi_min"],
        "xi_max": block["xi_max"],
        "min_eigenvalue": min_eig,
        "hermitian_defect": grid.hermitian_defect(),
    })
    print(f"spectral grid written; smallest eigenvalue {min_eig:.3g}")
    return None, 0


def _cmd_variance(model: HawkesModel, cfg: dict, args, outdir: Path):
    block = _require_block(cfg, "variance")
    f = TestFunction.from_dict(block["f"])
    horizons = block["horizons"]
    if not horizons:
        raise ValueError("variance needs at least one horizon")
    values = variance_profile(model, f, horizons).tolist()
    payload = {
        "horizons": list(map(float, horizons)),
        "values": values,
        "values_per_time": [v / t for v, t in zip(values, horizons)],
    }
    weights = f.constant_weights()
    if weights is not None:
        payload["long_run_slope"] = asymptotic_variance_const(model, weights)
    _write_json(outdir / "variance.json", payload)
    print("variance at largest horizon:", _float_repr(values[-1]))
    return None, 0


def _cmd_mixing(model: HawkesModel, cfg: dict, args, outdir: Path):
    block = _require_block(cfg, "mixing")
    report = mixing_bound(model, **block)
    _write_json(outdir / "mixing_bound.json", report.to_dict())
    print("lag -> covariance bound")
    for lag, val in zip(report.lags, report.bounds):
        print(f"{lag:g} -> {val:.6g}")
    return None, 0


def _cmd_clt(model: HawkesModel, cfg: dict, args, outdir: Path):
    block = _require_block(cfg, "clt")
    seed = args.seed if args.seed is not None else block["seed"]
    f = TestFunction.from_dict(block["f"])
    report = clt_harness(model, **{**block, "f": f, "seed": seed})
    _write_json(outdir / "clt_report.json", report.to_dict())
    header = ["replicate", "standardized_statistic"] + [
        f"w_{u:g}" for u in report.grid
    ]
    rows = [
        [float(r)] + [report.samples[r]] + list(report.w_paths[r])
        for r in range(report.replicates)
    ]
    _write_csv(outdir / "replicates.csv", header, rows)
    state = "pass" if report.passed else "fail"
    print(f"normal-limit check: {state} "
          f"(KS {report.ks_stat:.4f} vs {report.ks_critical:.4f}, "
          f"max path covariance deviation {report.max_cov_dev:.4f})")
    return seed, 0 if report.passed else 1


def _cmd_decay(model: HawkesModel, cfg: dict, args, outdir: Path):
    block = _require_block(cfg, "decay")
    seed = args.seed if args.seed is not None else block["seed"]
    params = {**block, "seed": seed}
    params["window_len"] = params.pop("window")
    report = mixing_decay_diagnostic(model, **params)
    _write_json(outdir / "decay.json", report.to_dict())
    header = ["lag", "empirical", "empirical_se", "spectral"]
    cols = [report.lags, report.empirical, report.empirical_se, report.spectral]
    if report.bound is not None:
        header.append("bound")
        cols.append(report.bound)
    rows = list(zip(*cols))
    _write_csv(outdir / "decay.csv", header, rows)
    print(f"decay table over {len(report.lags)} lags written")
    return seed, 0


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "variance": _cmd_variance,
    "mixing-bound": _cmd_mixing,
    "clt-test": _cmd_clt,
    "decay": _cmd_decay,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkesmix",
        description="Hawkes process simulation, spectra, and mixing bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output directory (default $HAWKESMIX_OUT or ./out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: replicates run serially")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        outdir = Path(
            args.out or os.environ.get("HAWKESMIX_OUT") or "out"
        )
        outdir.mkdir(parents=True, exist_ok=True)
        model = _load_model(cfg, Path(args.config).resolve().parent)
        # handlers return the effective seed for the manifest plus an exit
        # status, nonzero when a completed statistical check failed
        seed, status = _COMMANDS[args.command](model, cfg, args, outdir)
        _manifest(outdir, args.command, args.config, seed)
        return status
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
