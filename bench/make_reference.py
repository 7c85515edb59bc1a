"""Write ``bench/reference.json``: the deterministic values the benchmark
checks CLI outputs against.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

Values are computed through the library at its default tolerances, for the
full and the smoke sizes of every workload.  Regenerate only when a change
is meant to move a certified value, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import hawkesmix as hm

from workloads import MODELS, WORKLOADS

OUT = Path(__file__).resolve().parent / "reference.json"


def model_reference(spec: dict) -> dict:
    model = hm.model_from_dict(spec)
    summary = model.validate()
    gamma0 = hm.bartlett_grid(model, 0.0)[0]
    return {
        "rho": summary.rho,
        "mean_intensity": summary.mean_intensity.tolist(),
        # Var N_i(T) / T as T grows: the Bartlett density at frequency 0
        "count_var_slope": np.real(np.diag(gamma0)).tolist(),
    }


def workload_reference(name: str, smoke: bool) -> dict:
    configs = WORKLOADS[name].configs(0, smoke)
    cfg = next(iter(configs.values()))
    model = hm.model_from_dict(cfg["model"])
    if name == "clt-exp":
        block = cfg["clt"]
        tc = hm.time_change(model, hm.TestFunction.from_dict(block["f"]),
                            block["horizon"], block.get("grid_step"))
        return {"sigma_T2": tc.sigma_T2}
    if name == "decay-powerlaw":
        b = cfg["decay"]
        w = b["window"]
        return {"spectral": [
            hm.cov_counts(model, b["i"], b["j"], (0.0, w), (lag, lag + w),
                          abs_tol=1e-9)
            for lag in b["lags"]
        ]}
    if name == "spectral-powerlaw":
        f = hm.TestFunction.from_dict(cfg["variance"]["f"])
        s = cfg["spectrum"]
        gam = hm.bartlett_grid(
            model, np.linspace(s["xi_min"], s["xi_max"], s["count"]))
        sym = 0.5 * (gam + np.conj(np.swapaxes(gam, -1, -2)))
        d = model.d
        cols = {f"re_{i}{j}": gam[:, i, j].real
                for i in range(d) for j in range(d)}
        return {
            "variance": [hm.variance_ST(model, f, t)
                         for t in cfg["variance"]["horizons"]],
            "min_eigenvalue": float(np.min(np.linalg.eigvalsh(sym))),
            "re_sum": {k: float(np.sum(v)) for k, v in cols.items()},
            "re_max": {k: float(np.max(v)) for k, v in cols.items()},
        }
    return {}


def main() -> int:
    ref = {"models": {k: model_reference(v) for k, v in MODELS.items()}}
    for size, smoke in (("full", False), ("smoke", True)):
        ref[size] = {name: workload_reference(name, smoke)
                     for name in WORKLOADS}
    OUT.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
