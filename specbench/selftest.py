#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny sizes.

    python3 specbench/selftest.py

1. BENCHMARK.json names the workloads and per-layer metrics the code has.
2. Every workload runs once, untraced and traced, with every check passing
   and every metric reported.
3. Each correctness check passes on a real output and fails on a
   deliberately corrupted one (a perturbed rho, a flipped edge sign, a wrong
   likelihood, ...).
4. Outside a checkout the benchmark exits non-zero and prints no result.

Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import STUDY_GRID, rho_grid  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def passes(what, fn, *args):
    try:
        fn(*args)
    except CheckFailed as exc:
        expect(False, f"{what} (raised: {exc})")
        return
    expect(True, what)


def rejects(what, fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        expect(True, f"rejects {what}")
        return
    expect(False, f"rejects {what} (the check passed)")


def test_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    expect([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    expect(tuple(m["name"] for m in doc["per_layer"]) == LAYER_METRICS,
           "BENCHMARK.json per_layer matches tracing.LAYER_METRICS")
    return [m["name"] for m in doc["end_to_end"]]


def test_workloads(end_to_end):
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                                   workload, "--seed", "3", "--seconds", "0.5", "--trace",
                                   str(trace), "--preset", "tiny"],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
            res = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
            names = list(LAYER_METRICS) if trace else end_to_end
            expect(res.get("correct") is True and res.get("failed") == 0
                   and res.get("attempted", 0) >= 1
                   and list(res.get("metrics", {})) == names
                   and (trace or all(v["value"] > 0 for v in res["metrics"].values())),
                   f"{workload} --trace {trace} runs with every check passing")


def _fit(seed=0, n=150, t=12, t_val=6):
    """A real tiny Riccati path, fit and queries from the program."""
    from specprec import dataset, model, spectral, sparsify

    rng = np.random.default_rng(seed)
    spikes = rng.standard_normal((n, 3)) * (rng.random((n, 1)) < 0.1)
    x = spikes @ rng.standard_normal((3, t + t_val + 4)) + 0.1 * rng.standard_normal(
        (n, t + t_val + 4)) + rng.uniform(2, 5, (n, 1))
    train, val, test = x[:, :t], x[:, t:t + t_val], x[:, t + t_val:]
    _, _, grid = rho_grid(n, 0.01 * n)
    centered = dataset.center(dataset.DataMatrix(values=train))
    basis = spectral.thin_svd(centered)
    path = spectral.solution_path(basis, grid)
    rho, _ = spectral.select_rho_by_validation(
        path, dataset.DataMatrix(values=val - centered.mean[:, None]))
    m = spectral.riccati_fit(basis, rho)
    return dict(train=train, val=val, test=test, grid=grid, rho=rho, m=m, model=model,
                sparsify=sparsify)


def test_checks():
    f = _fit()
    m, model = f["m"], f["model"]
    a, d, c, mean = m.basis_a, m.diag_d, m.c, m.mean
    xc = f["train"] - f["train"].mean(axis=1, keepdims=True)
    e = checks.covariance_eigvals(xc)
    z_val = f["val"] - f["train"].mean(axis=1, keepdims=True)
    scores = checks.validation_scores(a, e, z_val, f["grid"])
    i = int(np.flatnonzero(f["grid"] == f["rho"])[0])

    passes("Riccati stationarity holds on a real fit", checks.check_riccati_fit,
           a, d, c, f["rho"], xc, e)
    rejects("a perturbed rho", checks.check_riccati_fit, a, d, c, f["rho"] * 1.01, xc, e)
    bad_d = d.copy()
    bad_d[0] *= 1.001
    rejects("a perturbed eigenvalue", checks.check_riccati_fit, a, bad_d, c, f["rho"], xc, e)
    rejects("a non-orthonormal basis", checks.check_riccati_fit, a * 1.0001, d, c,
            f["rho"], xc, e)
    rejects("a basis missing a data direction", checks.check_riccati_fit, a[:, 1:], d[1:], c,
            f["rho"], xc, e)

    passes("the selected rho maximizes the validation score", checks.check_selected_rho,
           f["rho"], f["grid"], scores)
    rejects("a neighbouring rho", checks.check_selected_rho, f["grid"][i + 1], f["grid"],
            scores)
    rejects("a rho off the grid", checks.check_selected_rho, f["rho"] * (1 + 1e-12),
            f["grid"], scores)
    end = scores.copy()
    end[0] = end.max() + 1.0
    rejects("a selection at the grid end", checks.check_selected_rho, f["grid"][0],
            f["grid"], end)

    ll = model.average_log_likelihood(m, f["test"])
    passes("the likelihood matches the factored formula", checks.check_log_likelihood,
           ll, a, d, c, mean, f["test"])
    rejects("a wrong likelihood", checks.check_log_likelihood, ll + 1e-6 * abs(ll), a, d, c,
            mean, f["test"])

    eps = 0.2
    screened, q = model.screen_unimportant(m, eps)
    rng = np.random.default_rng(0)
    passes("screening is sound", checks.check_screening, a, d, c, screened, eps, rng)
    loud = np.union1d(screened, np.argsort(-q)[:5])
    rejects("a screened variable with a large partial correlation", checks.check_screening,
            a, d, c, loud, eps, rng, loud.size)
    edges = model.important_edges(m, eps, 1000)
    allowed = np.setdiff1d(np.arange(m.n_vars), screened)
    expect(len(edges) >= 2, "the tiny fit has edges to check")
    passes("edges match their partial correlations", checks.check_edges, edges, a, d, c,
           eps, 1000, allowed)
    flipped = [(edges[0][0], edges[0][1], -edges[0][2])] + edges[1:]
    rejects("a flipped edge sign", checks.check_edges, flipped, a, d, c, eps, 1000, allowed)
    rejects("unsorted edges", checks.check_edges, edges[::-1], a, d, c, eps, 1000, allowed)
    rejects("an edge below epsilon", checks.check_edges, edges, a, d, c,
            abs(edges[0][2]) * 1.01, 1000, allowed)
    rejects("more edges than the cap", checks.check_edges, edges, a, d, c, eps, 1, allowed)

    part1 = np.arange(10)
    part2 = np.arange(10, m.n_vars)
    x2 = f["test"][part2, 0]
    mu, _ = model.conditional(m, part1, part2, x2)
    passes("the conditional mean solves its equation", checks.check_conditional,
           mu, a, d, c, mean, part1, part2, x2)
    rejects("a shifted conditional mean", checks.check_conditional, mu + 1e-6, a, d, c, mean,
            part1, part2, x2)

    alpha, beta = m.bounds.alpha, m.bounds.beta
    for mode, lam in (("soft", 0.5), ("hard", 2.0)):
        sm, rep = f["sparsify"].sparsify_model(m, lam, mode)
        s = sm.basis_a.toarray()
        args = (a, d, sm.c, alpha, beta, lam, mode)
        passes(f"{mode} sparsification is certified and within its bounds",
               checks.check_sparsified, *args, s, rep.basis_density, sm.pd_certified,
               rep.measured_spectral_gap)
        rejects(f"a wrong {mode} density", checks.check_sparsified, *args, s,
                rep.basis_density * 1.01, True)
        rejects(f"an uncertified {mode} model", checks.check_sparsified, *args, s,
                rep.basis_density, False)
        rejects(f"a {mode} basis scaled past alpha", checks.check_sparsified, *args, s * 30.0,
                rep.basis_density, True)
        holey = s.copy()
        holey[np.argwhere(s != 0)[0][0], np.argwhere(s != 0)[0][1]] = 0.0
        rejects(f"a {mode} pattern with a dropped entry", checks.check_sparsified, *args, holey,
                rep.basis_density, True)
        rejects(f"a wrong {mode} spectral gap", checks.check_sparsified, *args, s,
                rep.basis_density, True, rep.measured_spectral_gap * 1.1 + 1e-6)

    saved = dict(d=d, c=c, mean=mean)
    passes("identical arrays read back", checks.check_same_arrays, saved, dict(saved))
    nudged = dict(saved, mean=np.nextafter(mean, np.inf))
    rejects("an array changed by one ulp", checks.check_same_arrays, saved, nudged)


def test_study_check():
    from specprec import experiment

    cfg = experiment.ScenarioConfig(n=100, k=3, beta=1.0, density=0.3, t_train=14, t_val=14,
                                    repetitions=3, root_seed=0, rho_grid=STUDY_GRID)
    rows = experiment.run_scenario(cfg)
    passes("the study's rows hold", checks.check_study, rows, 3, cfg.rho_grid)
    rejects("a missing study row", checks.check_study, rows[:-1], 3, cfg.rho_grid)
    neg = [r if r[1] != "tikhonov" else (r[0], r[1], r[2], -1.0, r[4]) for r in rows]
    rejects("a negative KL", checks.check_study, neg, 3, cfg.rho_grid)
    off = [r if r[1] != "riccati" else (r[0], r[1], r[2] * 1.5, r[3], r[4]) for r in rows]
    rejects("a rho off the grid", checks.check_study, off, 3, cfg.rho_grid)
    worse = [r if r[1] != "riccati" else (r[0], r[1], r[2], 1e9, r[4]) for r in rows]
    rejects("Riccati losing to the isotropic baseline", checks.check_study, worse, 3,
            cfg.rho_grid)


def test_outside_checkout():
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".specbench")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "specbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "specbench/run.py", "--workload", "cli_files",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "outside a checkout the benchmark exits non-zero without a result")


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".specbench"), exist_ok=True)
    end_to_end = test_config()
    test_checks()
    test_study_check()
    test_outside_checkout()
    test_workloads(end_to_end)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
