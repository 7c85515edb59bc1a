"""Acceptance gate: one pass/fail check per shipped guarantee.

Each test records a single summary line; the terminal section at the end of
the run collects them.  Tolerances are stated in the lines themselves.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import hawkesmix as hm
from hawkesmix.cli import main as cli_main

RESULTS = []

ETA2 = [1.0, 1.0]
M2 = np.array([[0.5, 0.3], [0.2, 0.4]])
RATE2 = 10.0 / 3.0


def record(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return line


@pytest.fixture(scope="module")
def acc2_model():
    """Two-component acceptance model: exponential kernels with rate 2 and
    mass matrix [[0.5, 0.3], [0.2, 0.4]]."""
    return hm.HawkesModel(
        ETA2,
        [[hm.ExponentialKernel(m, 2.0) for m in row] for row in M2],
    )


@pytest.fixture(scope="module")
def powerlaw_model():
    return hm.HawkesModel([1.0], [[hm.PowerLawKernel(0.4, 1.0, 2.5)]])


@pytest.fixture(scope="module")
def hawkes_harness(acc2_model):
    f = hm.TestFunction.constant([1.0, 1.0])
    t0 = time.perf_counter()
    rep = hm.clt_harness(acc2_model, f, horizon=2000.0, replicates=1000,
                         seed=1, grid=[0.25, 0.5, 0.75, 1.0])
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def control_harness(poisson2_model):
    f = hm.TestFunction.constant([1.0, 1.0])
    t0 = time.perf_counter()
    rep = hm.clt_harness(poisson2_model, f, horizon=2000.0, replicates=1000,
                         seed=2, grid=[0.25, 0.5, 0.75, 1.0])
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def decay_run(powerlaw_model):
    rep = hm.mixing_decay_diagnostic(
        powerlaw_model, 0, 0, 1.0, [5.0, 10.0, 20.0],
        replicates=20_000, seed=3, beta=1.4, gamma=0.5,
    )
    return rep


def pooled_gaps(log: hm.EventLog) -> np.ndarray:
    return np.diff(np.sort(np.concatenate(log.events)))


def test_criterion_1_simulator_agreement(acc2_model):
    t0 = time.perf_counter()
    log_c = hm.simulate(acc2_model, 10_000.0, seed=8, simulator="cluster")
    log_t = hm.simulate(acc2_model, 10_000.0, seed=42, simulator="thinning")
    elapsed = time.perf_counter() - t0
    devs = []
    for log in (log_c, log_t):
        rates = np.array([len(t) for t in log.events]) / 10_000.0
        devs.append(np.max(np.abs(rates - RATE2) / RATE2))
    max_dev = float(max(devs))
    ks = sps.ks_2samp(pooled_gaps(log_c), pooled_gaps(log_t))
    ok = max_dev < 0.015 and ks.pvalue > 0.01 and elapsed < 60.0
    line = record(
        1, "simulator agreement", ok,
        f"max rate deviation {max_dev:.4f} (tol 0.015), "
        f"two-sample KS p={ks.pvalue:.3f} (need > 0.01), "
        f"runtime {elapsed:.1f}s (< 60s)",
    )
    assert ok, line


def test_criterion_2_spectrum_correctness(acc2_model, poisson2_model, d1_model):
    rng = np.random.default_rng(2024)
    xis = rng.uniform(-50.0, 50.0, size=1000)
    gam = hm.bartlett_grid(acc2_model, xis)
    sym = 0.5 * (gam + np.conj(np.swapaxes(gam, -1, -2)))
    min_eig = float(np.min(np.linalg.eigvalsh(sym)))
    defect = float(np.max(np.abs(gam - np.conj(np.swapaxes(gam, -1, -2)))))

    flat = hm.bartlett_grid(poisson2_model, np.array([0.0, 0.4, 17.0]))
    poisson_exact = all(
        np.array_equal(flat[p], np.diag(poisson2_model.eta))
        for p in range(flat.shape[0])
    )

    gamma0_dev = abs(hm.bartlett_grid(d1_model, 0.0)[0, 0, 0].real - 8.0)

    ok = (min_eig > -1e-10 and defect < 1e-10 and poisson_exact
          and gamma0_dev < 1e-10)
    line = record(
        2, "spectrum correctness", ok,
        f"min eigenvalue {min_eig:.2e} over 1000 random frequencies "
        f"(need > -1e-10), hermitian defect {defect:.2e}, Poisson case exact: "
        f"{poisson_exact}, closed-form gamma(0)=8 deviation {gamma0_dev:.2e} "
        f"(tol 1e-10)",
    )
    assert ok, line


def test_criterion_3_variance_linearization(d1_model):
    t0 = time.perf_counter()
    f = hm.TestFunction.constant([1.0])
    horizons = np.array([1000.0, 2000.0, 4000.0, 8000.0])
    prof = hm.variance_profile(d1_model, f, horizons)
    slope = hm.asymptotic_variance_const(d1_model, [1.0])
    per_time = prof / horizons
    final_dev = abs(per_time[-1] - slope) / slope
    converging = np.all(np.diff(np.abs(per_time - slope)) < 0.0)

    # the variance ratio has SE ~ sqrt(2 / (R - 1)), so at R = 10,000 its
    # 0.05 tolerance is 3.5 SE
    replicates = 10_000
    horizon = 2000.0
    vals = np.empty(replicates)
    for r, ss in enumerate(hm.spawn_seeds(4, replicates)):
        log = hm.simulate(d1_model, horizon, seed=ss)
        vals[r] = hm.statistic_ST(log, d1_model, f, horizon)
    emp_var = float(np.var(vals, ddof=1))
    spectral = float(prof[1])
    ratio = emp_var / spectral
    elapsed = time.perf_counter() - t0

    ok = (final_dev < 0.02 and converging and abs(ratio - 1.0) < 0.05
          and elapsed < 300.0)
    line = record(
        3, "variance linearization", ok,
        f"Var/T at T=8000 deviates {final_dev:.5f} from slope 8 (tol 0.02), "
        f"empirical/spectral variance ratio {ratio:.4f} at T=2000, "
        f"R={replicates} "
        f"(tol 0.05), runtime {elapsed:.1f}s (< 300s)",
    )
    assert ok, line


def test_criterion_4_normal_limit(hawkes_harness, control_harness):
    rep_h, time_h = hawkes_harness
    rep_c, time_c = control_harness
    critical = 1.628 / np.sqrt(1000.0)
    elapsed = time_h + time_c
    ok = (rep_h.ks_stat < critical and rep_c.ks_stat < critical
          and elapsed < 600.0)
    line = record(
        4, "normal limit", ok,
        f"KS {rep_h.ks_stat:.4f} (Hawkes) and {rep_c.ks_stat:.4f} (Poisson "
        f"control) vs critical {critical:.4f} at R=1000, T=2000, "
        f"runtime {elapsed:.1f}s (< 600s)",
    )
    assert ok, line


def test_criterion_5_brownian_structure(hawkes_harness):
    rep, _ = hawkes_harness
    tol = 4.0 / np.sqrt(1000.0)
    ok = rep.max_cov_dev < tol
    line = record(
        5, "Brownian path structure", ok,
        f"max |Cov(W(u), W(v)) - min(u, v)| = {rep.max_cov_dev:.4f} on the "
        f"grid {{0.25, 0.5, 0.75, 1.0}} (tol {tol:.4f})",
    )
    assert ok, line


def test_criterion_6_branching_bounds(acc2_model, d1_model, powerlaw_model):
    cert = hm.contraction_certificate(M2)
    runs = hm.simulate_generations(M2, 0, 10, 100_000, seed=12)

    # transform argument at half the certificate point keeps the doubled
    # argument inside the certified domain, so the MC standard error is finite
    u = 0.5 * cert.u
    max_z = 0.0
    constant_gens = []
    constant_ok = True
    for k in range(9):
        sample = np.exp(runs[:, k, :] @ u)
        exact = hm.laplace_generation(M2, u, k)
        mean = float(sample.mean())
        if np.ptp(sample) == 0.0:
            # a deterministic generation (k = 0 is the ancestor alone) has
            # no sampling error: its SE is rounding noise, so the mean must
            # match the transform to rounding instead of by a z-score
            constant_gens.append(k)
            constant_ok &= abs(mean - exact) <= 1e-12 * abs(exact)
        else:
            se = sample.std(ddof=1) / np.sqrt(sample.size)
            max_z = max(max_z, abs(mean - exact) / se)
    laplace_ok = constant_ok and max_z < 3.0

    matrices = [
        M2,
        np.array([[0.5]]),
        np.zeros((2, 2)),
        np.array([[0.4]]),
    ]
    induction_ok = True
    for m in matrices:
        c = hm.contraction_certificate(m)
        v = c.u.copy()
        lin = c.u.copy()
        for _ in range(200):
            v = hm.g_map(m, v)
            lin = c.delta * (m @ lin)
            if not np.all(v <= lin + 1e-14):
                induction_ok = False

    p = 2.0
    tail_ok = True
    worst_margin = np.inf
    for k in range(1, 11):
        for i in range(2):
            counts = runs[:, k, i]
            top = int(counts.max())
            emp = sum(
                float(np.mean(counts >= n)) ** (1.0 / p)
                for n in range(1, top + 1)
            )
            bound = hm.tail_sum_generation(M2, cert, k, i, p)
            worst_margin = min(worst_margin, bound - emp)
            if bound < emp:
                tail_ok = False

    ok = laplace_ok and induction_ok and tail_ok
    line = record(
        6, "branching bounds", ok,
        f"Laplace transform max |z| = {max_z:.2f} over generations <= 8 "
        f"with spread (tol 3 SE), constant generations {constant_gens} "
        f"equal to the exact value to rel 1e-12: {constant_ok}, "
        f"iterate domination holds to k=200 on 4 matrices: "
        f"{induction_ok}, tail-sum bound >= empirical for k <= 10 with "
        f"smallest margin {worst_margin:.3f}: {tail_ok}",
    )
    assert ok, line


def test_criterion_7_mixing_bound_coherence(powerlaw_model, decay_run):
    taus = np.array([8.0, 16.0, 32.0, 64.0])
    rep = hm.mixing_bound(powerlaw_model, 1.4, 0.5,
                          np.concatenate([taus, 2.0 * taus[-1:]]))
    lags_all = np.concatenate([taus, [128.0]])
    by_lag = dict(zip(lags_all, rep.bounds))
    ratios = np.array([by_lag[t] / by_lag[2.0 * t] for t in taus])
    ratio_ok = np.all(ratios >= 2.0**0.5 * (1.0 - 1e-3))

    emp_ok = np.all(decay_run.empirical <= decay_run.bound)

    t0 = time.perf_counter()
    slope_taus = np.geomspace(10.0, 100.0, 8)
    covs = np.array([
        hm.cov_counts(powerlaw_model, 0, 0, (0.0, 1.0), (t, t + 1.0),
                      abs_tol=1e-8)
        for t in slope_taus
    ])
    slope = float(np.polyfit(np.log(slope_taus), np.log(covs), 1)[0])
    slope_ok = slope <= -(1.0 + 0.5) + 0.2
    elapsed = time.perf_counter() - t0

    ok = bool(ratio_ok and emp_ok and slope_ok)
    line = record(
        7, "mixing bound coherence", ok,
        f"bound(tau)/bound(2 tau) in [{ratios.min():.4f}, {ratios.max():.4f}] "
        f"vs sqrt(2)*(1-1e-3) = {2.0**0.5 * 0.999:.4f}, empirical covariance "
        f"below the bound at lags {{5, 10, 20}}: {emp_ok}, spectral decay "
        f"slope {slope:.3f} (need <= -1.3, {elapsed:.0f}s)",
    )
    assert ok, line


_CLI_MODEL = {
    "eta": ETA2,
    "kernels": [
        [{"family": "exponential", "alpha": m, "beta": 2.0} for m in row]
        for row in M2.tolist()
    ],
}

_CLI_F = [{"form": "constant", "k": 1.0}, {"form": "constant", "k": 1.0}]

_CLI_BLOCKS = {
    "validate": {"validate": {"beta": 1.0}},
    "simulate": {"simulate": {"horizon": 150.0, "seed": 7}},
    "spectrum": {"spectrum": {"xi_min": -1.0, "xi_max": 1.0, "count": 21}},
    "variance": {"variance": {"f": _CLI_F, "horizons": [10.0, 40.0]}},
    "mixing-bound": {"mixing": {"beta": 1.0, "gamma": 0.5, "lags": [4.0, 8.0]}},
    "clt-test": {"clt": {"f": _CLI_F, "horizon": 40.0, "replicates": 12,
                         "seed": 9, "grid": [0.5, 1.0]}},
    "decay": {"decay": {"i": 0, "j": 1, "window": 1.0, "lags": [3.0, 6.0],
                        "replicates": 12, "seed": 4}},
}


def test_criterion_8_deterministic_artifacts(tmp_path):
    mismatches = []
    n_files = 0
    for command, blocks in _CLI_BLOCKS.items():
        base = tmp_path / command.replace("-", "_")
        base.mkdir()
        cfg = base / "config.json"
        cfg.write_text(json.dumps({"model": _CLI_MODEL, **blocks}))
        outs, codes = [], []
        for label in ("a", "b"):
            out = base / label
            codes.append(cli_main([command, "--config", str(cfg),
                                   "--out", str(out)]))
            outs.append(out)
        # determinism, not the outcome of a Monte Carlo check: clt-test
        # exits 1 when its checks fail, which a correct simulator does
        # for a few percent of seeds at 12 replicates
        allowed = {0, 1} if command == "clt-test" else {0}
        if codes[0] != codes[1] or codes[0] not in allowed:
            mismatches.append(f"{command} exited {codes[0]} then {codes[1]}")
        names = sorted(p.name for p in outs[0].iterdir())
        if names != sorted(p.name for p in outs[1].iterdir()):
            mismatches.append(f"{command} artifact sets differ")
            continue
        for name in names:
            n_files += 1
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                mismatches.append(f"{command}/{name} differs between reruns")
    ok = not mismatches
    line = record(
        8, "deterministic artifacts", ok,
        f"all 7 subcommands rerun byte-identical over {n_files} files"
        if ok else "; ".join(mismatches),
    )
    assert ok, line
