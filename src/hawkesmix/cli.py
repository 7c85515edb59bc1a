"""Configuration-driven command line interface.

One JSON config describes the model and per-command parameter blocks.  A
block is declared by the signature of the function it is handed to: its keys
are the parameters after the model, those without a default (and ``seed``)
are required, and each key's JSON kind is its annotation.  Each subcommand
checks the whole config (unknown keys, missing keys and values of the wrong
JSON type are rejected with a JSON-pointer message), runs the corresponding
pipeline, and writes JSON/CSV artifacts plus a manifest with the config
hash, effective seed, and library versions.  Artifacts contain no timestamps
and all iteration is seeded, so a rerun with the same config is
byte-identical.

Exit codes: 0 on success, 2 when a model or parameter violates a hypothesis
of the underlying theory (subcriticality, kernel moments, exponent
ranges), 1 on any other error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
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


def _spectrum_grid(model: HawkesModel, xi_min: float, xi_max: float,
                   count: int) -> SpectrumMatrix:
    """The Bartlett density at ``count`` evenly spaced frequencies from
    ``xi_min`` to ``xi_max``."""
    if xi_max <= xi_min:
        raise ValueError("spectrum grid needs xi_max > xi_min")
    if count < 2:
        raise ValueError(f"spectrum grid needs count >= 2, got {count}")
    model.validate()
    xis = np.linspace(xi_min, xi_max, count)
    return SpectrumMatrix(xis, bartlett_grid(model, xis))


# Each command block mapped to the function it is handed to, which declares
# the block by its signature (see _block_keys).  Value ranges are checked by
# that function.  Handlers call it by its module name, which the benchmark's
# tracer replaces, not through this table.
_BLOCKS = {
    "validate": HawkesModel.validate,
    "simulate": simulate,
    "spectrum": _spectrum_grid,
    "variance": variance_profile,
    "mixing": mixing_bound,
    "clt": clt_harness,
    "decay": mixing_decay_diagnostic,
}


def _block_keys(callee) -> tuple[dict, tuple]:
    """The keys of the block handed to ``callee``, mapped to their JSON
    kinds, and the keys it must hold.

    The keys are the positional-or-keyword parameters after the model; a
    key is required when it has no default, and ``seed`` always, so every
    run can be repeated.  The kind is the annotation less ``| None``.
    """
    _, *params = inspect.signature(callee).parameters.values()
    params = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    kinds = {p.name: p.annotation.removesuffix(" | None") for p in params}
    required = tuple(p.name for p in params
                     if p.default is p.empty or p.name == "seed")
    return kinds, required


def _json_type(types, name: str):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError("", f"expected {name}, got {value!r}")
    return check


_KINDS = {
    "float": finite_number,
    "list[float]": number_list,
    "int": _json_type(int, "an integer"),
    "str": _json_type(str, "a string"),
    "TestFunction": TestFunction.from_dict,  # checked by building it
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
    """Read a config and check every command block against its callee."""
    with open(path) as fp:
        cfg = json.load(fp)
    check_fields(cfg, ("model",), _BLOCKS)
    for name, callee in _BLOCKS.items():
        if name in cfg:
            kinds, required = _block_keys(callee)
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


def _cmd_validate(model: HawkesModel, block: dict, outdir: Path):
    summary = model.validate(**block)
    payload = summary.to_dict()
    payload["beta_checked"] = block.get("beta")
    _write_json(outdir / "summary.json", payload)
    print(f"spectral radius {summary.rho:.6g} < 1")
    rates = ", ".join(f"{v:.6g}" for v in summary.mean_intensity)
    print(f"mean intensities: {rates}")


def _cmd_simulate(model: HawkesModel, block: dict, outdir: Path):
    log = simulate(model, **block)
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


def _cmd_spectrum(model: HawkesModel, block: dict, outdir: Path):
    grid = _spectrum_grid(model, **block)
    pairs = [f"{i}{j}" for i in range(model.d) for j in range(model.d)]
    header = ["xi"] + [f"{part}_{ij}" for ij in pairs for part in ("re", "im")]
    rows = [[xi] + [x for z in gam.ravel() for x in (z.real, z.imag)]
            for xi, gam in zip(grid.xi, grid.value)]
    _write_csv(outdir / "spectrum.csv", header, rows)
    min_eig = grid.min_eigenvalue()
    _write_json(outdir / "summary.json", {
        "count": int(block["count"]),
        "xi_min": block["xi_min"],
        "xi_max": block["xi_max"],
        "min_eigenvalue": min_eig,
        "hermitian_defect": grid.hermitian_defect(),
    })
    print(f"spectral grid written; smallest eigenvalue {min_eig:.3g}")


def _cmd_variance(model: HawkesModel, block: dict, outdir: Path):
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


def _cmd_mixing(model: HawkesModel, block: dict, outdir: Path):
    report = mixing_bound(model, **block)
    _write_json(outdir / "mixing_bound.json", report.to_dict())
    print("lag -> covariance bound")
    for lag, val in zip(report.lags, report.bounds):
        print(f"{lag:g} -> {val:.6g}")


def _cmd_clt(model: HawkesModel, block: dict, outdir: Path):
    f = TestFunction.from_dict(block["f"])
    report = clt_harness(model, **{**block, "f": f})
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
    return 0 if report.passed else 1


def _cmd_decay(model: HawkesModel, block: dict, outdir: Path):
    report = mixing_decay_diagnostic(model, **block)
    _write_json(outdir / "decay.json", report.to_dict())
    header = ["lag", "empirical", "empirical_se", "spectral"]
    cols = [report.lags, report.empirical, report.empirical_se, report.spectral]
    if report.bound is not None:
        header.append("bound")
        cols.append(report.bound)
    rows = list(zip(*cols))
    _write_csv(outdir / "decay.csv", header, rows)
    print(f"decay table over {len(report.lags)} lags written")


_COMMANDS = {
    "validate": ("validate", _cmd_validate),
    "simulate": ("simulate", _cmd_simulate),
    "spectrum": ("spectrum", _cmd_spectrum),
    "variance": ("variance", _cmd_variance),
    "mixing-bound": ("mixing", _cmd_mixing),
    "clt-test": ("clt", _cmd_clt),
    "decay": ("decay", _cmd_decay),
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
        name, handler = _COMMANDS[args.command]
        kinds, required = _block_keys(_BLOCKS[name])
        if name not in cfg and required:
            raise ValueError(f"config lacks the {name!r} block")
        block = cfg.get(name, {})
        if "seed" in kinds and args.seed is not None:
            block["seed"] = args.seed
        # a handler returns a nonzero status when a completed statistical
        # check failed
        status = handler(model, block, outdir)
        _manifest(outdir, args.command, args.config, block.get("seed"))
        return status or 0
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
