"""Acceptance gate: one test per release criterion.

Each test records a single PASS/FAIL line (echoed in the terminal summary)
and then asserts, so a red criterion is visible both ways.  Instances are
seeded for reproducibility; tolerances are part of the contract and must not
be loosened.
"""

import csv
import time
import tracemalloc

import numpy as np
import pytest

from specprec import (DataMatrix, LowRankPrecision, center,
                      concentration_gamma, conditional, gaussian_kl,
                      kl_degradation_bound, kl_excess_bound, log_likelihood,
                      materialize_dense, random_spiked, recommend_rho,
                      riccati_fit, sample, screen_unimportant, solution_path,
                      sparsify_model, thin_svd, tikhonov_fit, true_covariance,
                      true_precision, true_precision_frob)
from specprec.cli import main as cli_main
from specprec.experiment import ScenarioConfig, run_scenario
from oracle import (dense_conditional, dense_loglik, dense_riccati,
                    dense_tikhonov, kkt_residual)

from conftest import ACCEPTANCE_LINES, random_orthonormal_model


def record(num, ok, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d}: {status} — {desc}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    return line


def _centered(rng, n, t):
    return center(DataMatrix(values=rng.standard_normal((n, t))))


@pytest.fixture(scope="module")
def fitted_instances():
    """50 random (data, rho, fitted riccati, fitted tikhonov) instances."""
    rng = np.random.default_rng(2024)
    rhos = (0.1, 1.0, 10.0)
    out = []
    for i in range(50):
        n = int(rng.integers(5, 31))
        t = int(rng.integers(2, 11))
        data = _centered(rng, n, t)
        cov = data.values @ data.values.T / t
        rho = rhos[i % 3]
        basis = thin_svd(data)
        out.append((cov, rho, riccati_fit(basis, rho), tikhonov_fit(basis, rho)))
    return out


def test_criterion_01_riccati_oracle(fitted_instances):
    t0 = time.perf_counter()
    worst_gap = worst_kkt = 0.0
    for cov, rho, ric, _ in fitted_instances:
        dense = materialize_dense(ric)
        worst_gap = max(worst_gap, np.abs(dense - dense_riccati(cov, rho)).max())
        worst_kkt = max(worst_kkt, kkt_residual(dense, cov, rho))
    wall = time.perf_counter() - t0
    ok = worst_gap <= 1e-8 and worst_kkt <= 1e-8 and wall < 10.0
    record(1, ok, "factored quadratic-equation solution matches dense oracle",
           f"max gap {worst_gap:.2e}, max residual {worst_kkt:.2e}, {wall:.1f}s")
    assert ok


def test_criterion_02_tikhonov_oracle(fitted_instances):
    worst = 0.0
    for cov, rho, _, tik in fitted_instances:
        n = cov.shape[0]
        dense = materialize_dense(tik)
        worst = max(worst, np.abs(dense - dense_tikhonov(cov, rho)).max())
        worst = max(worst, np.abs(dense - np.linalg.inv(cov + rho * np.eye(n))).max())
    ok = worst <= 1e-8
    record(2, ok, "factored ridge-inverse solution matches dense inverse",
           f"max gap {worst:.2e}")
    assert ok


def test_criterion_03_eigenvalue_bounds(fitted_instances):
    worst = 0.0
    for _, _, ric, tik in fitted_instances:
        for m in (ric, tik):
            w = np.linalg.eigvalsh(materialize_dense(m))
            worst = max(worst, m.bounds.alpha - w.min(), w.max() - m.bounds.beta)
    ok = worst <= 1e-10
    record(3, ok, "fitted eigenvalues stay within the analytic bracket",
           f"max excursion {worst:.2e}")
    assert ok


def test_criterion_04_likelihood_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 31))
        r = int(rng.integers(0, min(n, 8)))
        m = random_orthonormal_model(rng, n, r, c=float(rng.uniform(0.5, 2.0)),
                                     mean=rng.standard_normal(n))
        x = rng.standard_normal(n)
        got = log_likelihood(m, x)
        want = dense_loglik(materialize_dense(m), m.mean, x)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-9
    record(4, ok, "determinant-lemma likelihood equals the dense likelihood",
           f"max rel err {worst:.2e}")
    assert ok


def test_criterion_05_conditional_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        r = int(rng.integers(0, min(n - 1, 5)))
        m = random_orthonormal_model(rng, n, r, c=float(rng.uniform(0.5, 2.0)),
                                     mean=rng.standard_normal(n))
        k = int(rng.integers(1, n))
        perm = rng.permutation(n)
        p1, p2 = perm[:k], perm[k:]
        x2 = rng.standard_normal(n - k)
        mu, cond = conditional(m, p1, p2, x2)
        dense_mu, dense_prec = dense_conditional(materialize_dense(m), m.mean,
                                                 p1, p2, x2)
        worst = max(worst, np.abs(mu - dense_mu).max(initial=0.0),
                    np.abs(materialize_dense(cond) - dense_prec).max())
    ok = worst <= 1e-9
    record(5, ok, "factored conditioning equals dense Gaussian conditioning",
           f"max gap {worst:.2e}")
    assert ok


def test_criterion_06_sparsification_guarantees():
    rng = np.random.default_rng(99)
    worst_gap_excess = worst_bracket = -np.inf
    for i in range(12):
        n = int(rng.integers(10, 31))
        t = int(rng.integers(3, 8))
        m = riccati_fit(thin_svd(_centered(rng, n, t)), float(rng.uniform(0.2, 2.0)))
        alpha, beta = m.bounds.alpha, m.bounds.beta
        dense_m = materialize_dense(m)
        for lam in (0.1, 0.5, 1.0, 2.0):
            for mode in ("soft", "hard"):
                sm, _ = sparsify_model(m, lam, mode)
                dense_s = materialize_dense(sm)
                gap = np.abs(np.linalg.eigvalsh(dense_s - dense_m)).max()
                bound = (2 * lam + lam * lam) * (beta - alpha)
                worst_gap_excess = max(worst_gap_excess, gap - bound)
                w = np.linalg.eigvalsh(dense_s)
                worst_bracket = max(worst_bracket, alpha - w.min(),
                                    w.max() - beta)
    gap_ok = worst_gap_excess <= 1e-9
    bracket_ok = worst_bracket <= 1e-10
    ok = gap_ok and bracket_ok
    record(6, ok, "thresholding keeps the proximity bound and the eigenvalue bracket",
           f"gap excess {worst_gap_excess:.2e}, bracket excursion {worst_bracket:.2e}")
    assert gap_ok, f"proximity bound violated by {worst_gap_excess:.3e}"
    assert bracket_ok, f"eigenvalue bracket violated by {worst_bracket:.3e}"


def test_criterion_07_kl_degradation_chain():
    rng = np.random.default_rng(11)
    worst = -np.inf
    checked = 0
    for rep in range(15):
        n = 20
        truth = random_spiked(n, 2, 1.0, 0.4, seed=rep)
        data = sample(truth, 8, "gaussian", seed=100 + rep)
        model = riccati_fit(thin_svd(center(data)), float(rng.uniform(0.3, 1.0)))
        sig = true_covariance(truth)
        dense_sig = sig.materialize()
        kl_q = gaussian_kl(sig, model)
        for lam in (0.1, 0.5, 1.0, 2.0):
            for mode in ("soft", "hard"):
                sm, report = sparsify_model(model, lam, mode)
                if not sm.pd_certified:
                    continue  # the degradation theorem presumes definiteness
                checked += 1
                kl_qt = gaussian_kl(sig, sm)
                second = np.linalg.norm(
                    dense_sig + np.outer(model.mean, model.mean), 2)
                alpha = min(model.bounds.alpha, sm.bounds.alpha)
                bound = kl_degradation_bound(alpha, second,
                                             report.measured_spectral_gap)
                worst = max(worst, (kl_qt - kl_q) - bound)
    ok = worst <= 1e-9 and checked >= 100
    record(7, ok, "KL degradation of sparsified models stays within the Lipschitz bound",
           f"{checked} pairs, worst excess {worst:.2e}")
    assert ok


def test_criterion_08_density_law():
    rng = np.random.default_rng(31415)
    n, trials = 60, 500
    worst_sigmas = 0.0
    for p in (0.1, 0.3, 0.5):
        for t in (2, 5, 10):
            expected = 1.0 - (1.0 - p * p) ** t
            densities = np.empty(trials)
            for i in range(trials):
                mask = rng.random((n, t)) < p
                a = np.where(mask, rng.standard_normal((n, t)), 0.0)
                d = rng.uniform(0.5, 1.5, t)
                b = (a * d) @ a.T
                off = np.count_nonzero(b) - np.count_nonzero(np.diagonal(b))
                densities[i] = off / (n * (n - 1))
            se = densities.std(ddof=1) / np.sqrt(trials)
            sigmas = abs(densities.mean() - expected) / se
            worst_sigmas = max(worst_sigmas, sigmas)
    ok = worst_sigmas <= 3.0
    record(8, ok, "off-diagonal density matches 1-(1-p^2)^T",
           f"worst deviation {worst_sigmas:.2f} standard errors")
    assert ok


def test_criterion_09_spiked_covariance_identity():
    worst_mc = 0.0
    for dist in ("gaussian", "rademacher"):
        truth = random_spiked(20, 2, 1.0, 0.3, seed=5)
        data = sample(truth, 100_000, dist, seed=6)
        emp = data.values @ data.values.T / data.n_samples
        worst_mc = max(worst_mc,
                       np.abs(emp - true_covariance(truth).materialize()).max())
    worst_inv = 0.0
    for seed in range(5):
        truth = random_spiked(25, 3, 1.5, 0.2, seed=seed)
        prod = (materialize_dense(true_precision(truth))
                @ true_covariance(truth).materialize())
        worst_inv = max(worst_inv, np.abs(prod - np.eye(25)).max())
    ok = worst_mc <= 0.05 and worst_inv <= 1e-9
    record(9, ok, "spiked samples realize the stated covariance and its factored inverse",
           f"MC gap {worst_mc:.3f}, inverse gap {worst_inv:.2e}")
    assert ok


def test_criterion_10_sample_complexity_direction():
    n, k, t, delta, beta = 50, 2, 100, 0.1, 1.0
    cover = excess_ok = 0
    reps = 200
    for rep in range(reps):
        truth = random_spiked(n, k, beta, 0.3, seed=1000 + rep)
        gamma = concentration_gamma(
            k, float(np.linalg.norm(truth.diag_d)), beta, n, t, delta)
        data = sample(truth, t, "gaussian", seed=5000 + rep)
        emp = data.values @ data.values.T / t
        frob = np.linalg.norm(emp - true_covariance(truth).materialize())
        if frob <= gamma:
            cover += 1
        model = riccati_fit(thin_svd(center(data)), recommend_rho(gamma))
        kl = gaussian_kl(true_covariance(truth), model)
        if kl <= kl_excess_bound(gamma, true_precision_frob(truth)) + 1e-9:
            excess_ok += 1
    ok = cover >= 0.9 * reps and excess_ok == reps
    record(10, ok, "concentration radius and excess-KL bound hold at the recommended rho",
           f"coverage {cover}/{reps}, bound held {excess_ok}/{reps}")
    assert ok


def test_criterion_11_screening_soundness_and_linearity():
    rng = np.random.default_rng(2718)
    violations = 0
    for _ in range(10):
        n = int(rng.integers(20, 51))
        r = int(rng.integers(1, 6))
        m = random_orthonormal_model(rng, n, r, c=float(rng.uniform(0.8, 2.0)))
        _, q = screen_unimportant(m, 1.0)
        dense = materialize_dense(m)
        dd = np.sqrt(np.outer(dense.diagonal(), dense.diagonal()))
        pc = np.abs(dense / dd)
        for eps in np.quantile(q[q > 0], [0.25, 0.5, 0.75]):
            screened, _ = screen_unimportant(m, float(eps))
            sub = pc[np.ix_(screened, screened)]
            np.fill_diagonal(sub, 0.0)
            if sub.size and sub.max() > eps + 1e-12:
                violations += 1
    r = 32
    models = []
    for n in (2 ** 14, 2 ** 15, 2 ** 16, 2 ** 17):
        u, _ = np.linalg.qr(rng.standard_normal((n, r)))
        models.append(LowRankPrecision(basis_a=u, diag_d=-rng.uniform(0.1, 0.9, r),
                                       c=1.0, mean=np.zeros(n)))
    # best of five calls per size, the sizes timed round-robin so that a
    # drift in the host's speed reaches every size alike
    times = [np.inf] * len(models)
    for _ in range(5):
        for i, m in enumerate(models):
            t0 = time.perf_counter()
            screen_unimportant(m, 0.05)
            times[i] = min(times[i], time.perf_counter() - t0)
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    ok = violations == 0 and max(ratios) <= 2.6
    record(11, ok, "screened sets are sound and screening time is linear in N",
           f"{violations} violations, worst doubling ratio {max(ratios):.2f}")
    assert ok


def test_criterion_12_complexity_scaling(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli_main(["bench", "--t", "64", "--n-grid", "4096,8192,16384,32768",
                   "--repeats", "5", "--output", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    times = [float(r[2]) for r in rows]
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    bench_ok = max(ratios) <= 2.6

    n, t = 10 ** 6, 16
    values = np.random.default_rng(0).standard_normal((n, t))
    tracemalloc.start()
    t0 = time.perf_counter()
    basis = thin_svd(center(DataMatrix(values=values)))
    riccati_fit(basis, 1.0)
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    smoke_ok = peak <= 64 * n * t and wall < 120.0
    ok = bench_ok and smoke_ok
    record(12, ok, "fit time scales linearly in N; million-variable fit fits the memory cap",
           f"worst doubling ratio {max(ratios):.2f}, smoke {wall:.1f}s "
           f"peak {peak / 1e6:.0f}MB")
    assert ok


def test_criterion_13_synthetic_study_ordering():
    cfg = ScenarioConfig(n=100, k=3, beta=1.0, density=0.3, t_train=14,
                         t_val=14, repetitions=20, root_seed=0,
                         rho_grid=tuple(np.logspace(-5, 1, 25)))
    assert cfg.t_train == int(np.ceil(3 * np.log(cfg.n)))
    rows = run_scenario(cfg)
    kl = {}
    for rep, method, _, v, _ in rows:
        kl.setdefault(method, []).append(v)
    margins = {}
    ok = True
    for other in ("tikhonov", "isotropic"):
        diff = np.array(kl[other]) - np.array(kl["riccati"])
        sem = diff.std(ddof=1) / np.sqrt(diff.size)
        margins[other] = (diff.mean(), sem)
        ok = ok and diff.mean() > sem
    record(13, ok, "validated low-rank fit beats ridge and isotropic baselines in KL",
           ", ".join(f"vs {m}: margin {mu:.2f} (sem {s:.2f})"
                     for m, (mu, s) in margins.items()))
    assert ok


def test_criterion_14_solution_path_consistency():
    rng = np.random.default_rng(555)
    basis = thin_svd(_centered(rng, 200, 12))
    rhos = np.logspace(-2, 1, 20)
    path = solution_path(basis, rhos, "riccati")
    bit_ok = True
    for i, rho in enumerate(rhos):
        direct = riccati_fit(basis, float(rho))
        entry = path.model_at(i)
        bit_ok = bit_ok and np.array_equal(entry.diag_d, direct.diag_d)
        bit_ok = bit_ok and entry.c == direct.c and entry.basis_a is direct.basis_a

    def marginal_cost(n):
        b = thin_svd(_centered(rng, n, 33))
        short = np.logspace(-2, 1, 2)
        long = np.logspace(-2, 1, 402)
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            solution_path(b, short, "riccati")
            t_short = time.perf_counter() - t0
            t0 = time.perf_counter()
            solution_path(b, long, "riccati")
            t_long = time.perf_counter() - t0
            best = min(best, (t_long - t_short) / 400)
        return best

    small, large = marginal_cost(2 ** 14), marginal_cost(2 ** 17)
    cost_ok = large <= 3.0 * small + 2e-5
    ok = bit_ok and cost_ok
    record(14, ok, "path entries are bit-identical to direct fits at O(r) marginal cost",
           f"marginal {small * 1e6:.1f}us -> {large * 1e6:.1f}us per entry")
    assert ok
