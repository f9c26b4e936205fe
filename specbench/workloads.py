"""The workloads: how their inputs are made, their timed rounds and the
checks of every output.

Each workload is a class.  ``setup`` makes the inputs with the program's
own generators and writes them to the work directory; it runs in a process
of its own, so generating the inputs never sets the timed process's memory
peak.  ``timed`` runs one whole round of operations through the program's
public surface and ``check`` then verifies every output with ``checks``
(untimed).  An operation fails when the program raises or exits non-zero,
or when a check rejects its output.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

import numpy as np

import checks
from checks import CheckFailed, require

GRID_POINTS = 20
CLI_TIMEOUT_S = 150

# Sizes per workload.  "full" is the benchmark; "tiny" is for the self-test.
PRESETS = {
    "cli_files": {
        "full": dict(n=16384, t=48, t_val=16, t_test=16, k=8, support=64, beta=16.0,
                     lam=5.0, epsilon=0.1, max_edges=1000),
        "tiny": dict(n=2048, t=24, t_val=8, t_test=8, k=4, support=32, beta=16.0,
                     lam=5.0, epsilon=0.1, max_edges=1000),
    },
    "library_large_n": {
        "full": dict(n=1 << 18, t=64, t_val=16, t_test=16, k=8, support=64, beta=16.0,
                     lam=4.0, epsilon=0.1, candidates=1000, block=100, max_edges=1000,
                     study=dict(n=500, k=5, beta=1.0, density=0.2, t_train=19, t_val=19,
                                repetitions=20),
                     small=dict(models=4, n=200, t=20, t_val=10, t_test=10, k=4, support=10,
                                beta=1.0, lam=0.5, epsilon=0.1, block=20, max_edges=1000)),
        "tiny": dict(n=4096, t=32, t_val=8, t_test=8, k=4, support=32, beta=16.0,
                     lam=4.0, epsilon=0.1, candidates=200, block=20, max_edges=1000,
                     study=dict(n=100, k=3, beta=1.0, density=0.3, t_train=14, t_val=14,
                                repetitions=4),
                     small=dict(models=2, n=60, t=12, t_val=6, t_test=6, k=2, support=6,
                                beta=1.0, lam=0.5, epsilon=0.1, block=10, max_edges=1000)),
    },
}

# The study's grid spans both the Riccati optimum, near (beta/N)^2, and the
# Tikhonov one, near beta/N, for N = 100..500 and beta = 1.
STUDY_GRID = tuple(np.logspace(-7, -2, GRID_POINTS))


def rho_grid(n: int, beta: float):
    """Log grid of GRID_POINTS rhos, 2.5 decades either side of 4 (beta/N)^2.

    At rho0 the Riccati estimate's precision off the data directions,
    1/sqrt(rho), is N/(2 beta): the order of the inverse noise variance N/beta.
    The grid is thus centred on the data's scale and the validated choice
    falls inside it.
    """
    rho0 = 4.0 * (beta / n) ** 2
    lo, hi = rho0 * 10 ** -2.5, rho0 * 10 ** 2.5
    return lo, hi, np.logspace(np.log10(lo), np.log10(hi), GRID_POINTS)


def spiked_expression(cfg: dict, entropy):
    """Train, validation and test columns of spiked-covariance samples with
    per-variable offsets and scales, like expression levels."""
    from specprec import spiked

    s_truth, s_sample, s_shift = (int(v) for v in
                                  np.random.SeedSequence(entropy).generate_state(3))
    n = cfg["n"]
    truth = spiked.random_spiked(n, cfg["k"], cfg["beta"], cfg["support"] / n, s_truth)
    total = cfg["t"] + cfg["t_val"] + cfg["t_test"]
    x = spiked.sample(truth, total, "gaussian", s_sample).values
    rng = np.random.default_rng(s_shift)
    offset = rng.uniform(2.0, 12.0, n)
    scale = rng.lognormal(0.0, 0.5, n)
    x = offset[:, None] + scale[:, None] * x
    return [np.ascontiguousarray(p)
            for p in np.split(x, [cfg["t"], cfg["t"] + cfg["t_val"]], axis=1)]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Round:
    """One whole round: timed operations, then a check of each output."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.fit_s = 0.0
        self.query_s = 0.0
        self.peak_mb = 0.0
        self.outcome = {}  # operation -> None when it passed, else a message
        self.wrong = False

    def run(self, op: str, phase: str, fn, *args):
        """Time one operation; keep its output, or record why it failed."""
        out = None
        with self.tracer.span("op:" + op) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:  # the program failed this operation
                self.outcome[op] = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if phase == "fit":
            self.fit_s += dt
        else:
            self.query_s += dt
        return out

    def check(self, op: str, fn, *args) -> None:
        if op in self.outcome:
            return
        try:
            fn(*args)
            self.outcome[op] = None
        except CheckFailed as exc:
            self.outcome[op] = f"check failed: {exc}"
            self.wrong = True
        except Exception as exc:  # an output too malformed to check
            self.outcome[op] = f"check raised {type(exc).__name__}: {exc}"
            self.wrong = True

    def failures(self, ops) -> list:
        return [f"{op}: {self.outcome.get(op, 'not checked')}"
                for op in ops if self.outcome.get(op, "not checked") is not None]


def _fit_validated(train, val, grid):
    """Center, thin SVD, path over the grid, validation choice, Riccati fit."""
    from specprec import dataset, spectral

    centered = dataset.center(dataset.DataMatrix(values=train))
    basis = spectral.thin_svd(centered)
    path = spectral.solution_path(basis, grid, "riccati")
    val_c = dataset.DataMatrix(values=val - centered.mean[:, None])
    rho, _ = spectral.select_rho_by_validation(path, val_c)
    return rho, spectral.riccati_fit(basis, rho)


class Reference:
    """Independent statistics of one training/validation set, computed once."""

    def __init__(self, train, val):
        self.train = train
        self.mean = train.mean(axis=1)
        self.e = checks.covariance_eigvals(train - self.mean[:, None])
        self.z_val = val - self.mean[:, None]

    def check_fit(self, rho, a, d, c, mean, bounds, grid):
        err = float(np.abs(mean - self.mean).max())
        require(err <= 1e-12 * max(1.0, float(np.abs(self.mean).max())),
                f"model mean is off the training mean by {err:.3e}")
        checks.check_riccati_fit(a, d, c, rho, self.train - self.mean[:, None], self.e)
        alpha, beta = checks.riccati_bounds(self.e[0], rho)
        require(abs(bounds[0] - alpha) <= 1e-12 * alpha and abs(bounds[1] - beta) <= 1e-12 * beta,
                f"bounds {bounds} differ from [{alpha!r}, {beta!r}]")
        checks.check_selected_rho(rho, grid, checks.validation_scores(a, self.e, self.z_val, grid))


def _model_arrays(m) -> dict:
    """The arrays of an in-memory model, with a sparse basis made dense."""
    a = m.basis_a.toarray() if hasattr(m.basis_a, "toarray") else np.asarray(m.basis_a)
    bounds = (m.bounds.alpha, m.bounds.beta) if m.bounds is not None else None
    return dict(a=a, d=m.diag_d, c=m.c, mean=m.mean, bounds=bounds, orthonormal=m.orthonormal)


def _partition(n: int, block: int, rng):
    part1 = np.sort(rng.choice(n, size=block, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[part1] = False
    return part1, np.flatnonzero(mask)


# -- cli_files ------------------------------------------------------------------

def _read_model_file(path) -> dict:
    """Parse a model JSON file with the json module alone."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    require(doc.get("format_version") == 1, "model file has an unknown format_version")
    n, r = int(doc["n"]), int(doc["r"])
    basis = doc["basis"]
    if isinstance(basis, dict):
        a = np.zeros((n, r))
        a[np.asarray(basis["rows"], dtype=np.intp),
          np.asarray(basis["cols"], dtype=np.intp)] = np.asarray(basis["vals"], dtype=np.float64)
        require(np.count_nonzero(a) == len(basis["vals"]),
                "sparse basis has repeated or zero entries")
    else:
        a = np.asarray(basis, dtype=np.float64).reshape(n, r)
    bounds = doc.get("bounds")
    return dict(a=a, d=np.asarray(doc["diag"], dtype=np.float64), c=float(doc["c"]),
                mean=np.asarray(doc["mean"], dtype=np.float64), rho=doc.get("rho"),
                bounds=(bounds["alpha"], bounds["beta"]) if bounds else None)


def _read_metrics_csv(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["metric", "value"], "eval output has no metric,value header")
    return {name: float(value) for name, value in rows[1:]}


def _read_screen(unimportant_path, edges_path):
    with open(unimportant_path, encoding="utf-8") as fh:
        screened = np.array([int(line) for line in fh if line.strip()], dtype=np.intp)
    with open(edges_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["n1", "n2", "partial_correlation"], "edges output has no header")
    return screened, [(int(a), int(b), float(v)) for a, b, v in rows[1:]]


class CliFiles:
    """A user's session with the ``specprec`` command on CSV and model files."""

    OPS = ("fit", "eval_dense", "sparsify", "screen_dense", "eval_sparse", "screen_sparse")
    FILES = ("train.csv", "val.csv", "test.csv")
    RUNS_CLI = True  # peaks are the subcommands' own; traced runs time the CLI import

    def __init__(self, cfg, seed, workdir, tracer=None):
        self.cfg, self.seed, self.dir = cfg, seed, workdir
        self.tracer = tracer
        lo, hi, self.grid = rho_grid(cfg["n"], cfg["beta"])
        self.grid_spec = f"{lo!r}:{hi!r}:log:{GRID_POINTS}"
        self.ref = None
        self.test = None
        self.child_peaks = []
        if tracer is not None:
            import specprec.cli
            self._cli_main = specprec.cli.main

    @classmethod
    def setup(cls, cfg, seed, workdir):
        from specprec import dataset

        for name, part in zip(cls.FILES, spiked_expression(cfg, seed)):
            dataset.write_csv(dataset.DataMatrix(values=part), os.path.join(workdir, name))

    def path(self, name):
        return os.path.join(self.dir, name)

    def _cli(self, argv):
        """Run one subcommand: a fresh process, or in-process when traced."""
        if self.tracer is not None:
            code = self._cli_main(argv)
            if code != 0:
                raise RuntimeError(f"specprec {argv[0]} exited {code}")
            return
        with open(self.path("stderr.txt"), "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "specprec.cli", *argv],
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_peaks.append(usage.ru_maxrss / 1024.0)
            if proc.returncode != 0:
                err.seek(0)
                raise RuntimeError(f"specprec {argv[0]} exited {proc.returncode}: "
                                   f"{err.read().decode(errors='replace').strip()[:300]}")

    def timed(self, rnd):
        cfg, p = self.cfg, self.path
        for name in os.listdir(self.dir):  # last round's outputs must not pass a check
            if name not in self.FILES:
                os.remove(p(name))
        self.child_peaks = []

        def screen(kind):
            return ["screen", "--model", p(f"{kind}.json"), "--epsilon", repr(cfg["epsilon"]),
                    "--max-edges", str(cfg["max_edges"]),
                    "--unimportant-out", p(f"unimportant_{kind}.txt"),
                    "--edges-out", p(f"edges_{kind}.csv")]

        rnd.run("fit", "fit", self._cli,
                ["fit", "--input", p("train.csv"), "--val", p("val.csv"),
                 "--rho-grid", self.grid_spec, "--output", p("dense.json"),
                 "--report", p("fit_report.json")])
        rnd.run("eval_dense", "query", self._cli,
                ["eval", "--model", p("dense.json"), "--input", p("test.csv"),
                 "--output", p("eval_dense.csv")])
        rnd.run("sparsify", "query", self._cli,
                ["sparsify", "--model", p("dense.json"), "--mode", "hard",
                 "--lambda", repr(cfg["lam"]), "--output", p("sparse.json"),
                 "--report", p("sparsify_report.json")])
        rnd.run("screen_dense", "query", self._cli, screen("dense"))
        rnd.run("eval_sparse", "query", self._cli,
                ["eval", "--model", p("sparse.json"), "--input", p("test.csv"),
                 "--output", p("eval_sparse.csv")])
        rnd.run("screen_sparse", "query", self._cli, screen("sparse"))
        rnd.peak_mb = max(self.child_peaks, default=0.0)

    def check(self, rnd):
        cfg, p = self.cfg, self.path
        if self.ref is None:
            load = lambda name: np.loadtxt(p(name), delimiter=",", ndmin=2)
            self.ref = Reference(load("train.csv"), load("val.csv"))
            self.test = load("test.csv")
        rng = np.random.default_rng(self.seed)
        models = {}

        def fit():
            m = models["dense"] = _read_model_file(p("dense.json"))
            with open(p("fit_report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            require(report["rho"] == m["rho"] and report["rho_selected_by_validation"],
                    "fit report disagrees with the model file on rho")
            require(report["rank"] == m["a"].shape[1], "fit report rank differs")
            self.ref.check_fit(m["rho"], m["a"], m["d"], m["c"], m["mean"], m["bounds"],
                               self.grid)

        def evaluate(kind):
            m = models[kind]
            got = _read_metrics_csv(p(f"eval_{kind}.csv"))
            require(got.get("n_samples") == self.test.shape[1], "eval counts the wrong samples")
            checks.check_log_likelihood(-got["avg_neg_loglik"], m["a"], m["d"], m["c"],
                                        m["mean"], self.test)

        def sparsify():
            dense = models["dense"]
            m = models["sparse"] = _read_model_file(p("sparse.json"))
            with open(p("sparsify_report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            require(report["lam"] == cfg["lam"] and report["mode"] == "hard",
                    "sparsify report names another lambda or mode")
            require(report["measured_spectral_gap"] is None, "gap measured above the dense guard")
            checks.check_same_arrays({"mean": dense["mean"], "diag": dense["d"]},
                                     {"mean": m["mean"], "diag": m["d"]})
            alpha, beta = dense["bounds"]
            checks.check_sparsified(dense["a"], dense["d"], m["c"], alpha, beta, cfg["lam"],
                                    "hard", m["a"], report["basis_density"], certified=None)
            require(report["basis_density"] < 0.5, "hard threshold keeps a majority of entries")

        def screen(kind):
            m = models[kind]
            screened, edges = _read_screen(p(f"unimportant_{kind}.txt"), p(f"edges_{kind}.csv"))
            checks.check_screening(m["a"], m["d"], m["c"], screened, cfg["epsilon"], rng)
            allowed = np.setdiff1d(np.arange(m["a"].shape[0]), screened)
            checks.check_edges(edges, m["a"], m["d"], m["c"], cfg["epsilon"],
                               cfg["max_edges"], allowed)

        rnd.check("fit", fit)
        rnd.check("eval_dense", evaluate, "dense")
        rnd.check("screen_dense", screen, "dense")
        rnd.check("sparsify", sparsify)
        rnd.check("eval_sparse", evaluate, "sparse")
        rnd.check("screen_sparse", screen, "sparse")


# -- library_large_n ------------------------------------------------------------

class LibraryLargeN:
    """The paper's N >> T regime in memory: fit, then factored queries; then
    the synthetic study and small-N models (``SmallProblems``)."""

    LARGE_OPS = ("fit", "loglik", "screen", "edges", "conditional", "sparsify")
    FILES = ("train.npy", "val.npy", "test.npy")
    RUNS_CLI = False

    def __init__(self, cfg, seed, workdir, tracer=None):
        self.cfg = cfg
        self.small = SmallProblems(cfg["small"], cfg["study"], seed, workdir)
        self.study = self.small.study
        self.OPS = self.LARGE_OPS + self.small.OPS
        self.train, self.val, self.test = (np.load(os.path.join(workdir, f)) for f in self.FILES)
        _, _, self.grid = rho_grid(cfg["n"], cfg["beta"])
        self.rng = np.random.default_rng(seed)
        self.part1, self.part2 = _partition(cfg["n"], cfg["block"], self.rng)
        self.x2 = np.ascontiguousarray(self.test[self.part2, 0])
        self.ref = None
        self.out = {}

    @classmethod
    def setup(cls, cfg, seed, workdir):
        for name, part in zip(cls.FILES, spiked_expression(cfg, seed)):
            np.save(os.path.join(workdir, name), part)
        SmallProblems.setup(cfg["small"], seed, workdir)

    def timed(self, rnd):
        from specprec import model, sparsify

        cfg, out = self.cfg, self.out
        fit = rnd.run("fit", "fit", _fit_validated, self.train, self.val, self.grid)
        out["rho"], out["model"] = fit if fit else (None, None)
        m = out["model"]
        out["loglik"] = rnd.run("loglik", "query", model.average_log_likelihood, m, self.test)
        out["screen"] = rnd.run("screen", "query", model.screen_unimportant, m, cfg["epsilon"])

        def edges():
            q = out["screen"][1]
            cand = np.sort(np.argpartition(-q, cfg["candidates"] - 1)[:cfg["candidates"]])
            return cand, model.important_edges(m, cfg["epsilon"], cfg["max_edges"], cand)

        out["edges"] = rnd.run("edges", "query", edges)
        out["conditional"] = rnd.run("conditional", "query", model.conditional, m,
                                     self.part1, self.part2, self.x2)
        out["sparsify"] = rnd.run("sparsify", "query", sparsify.sparsify_model, m,
                                  cfg["lam"], "soft")
        self.small.timed(rnd)
        rnd.peak_mb = max_rss_mb()

    def check(self, rnd):
        cfg, out = self.cfg, self.out
        if self.ref is None:
            self.ref = Reference(self.train, self.val)
        m = _model_arrays(out["model"]) if out["model"] is not None else None
        rnd.check("fit", lambda: self.ref.check_fit(out["rho"], m["a"], m["d"], m["c"],
                                                    m["mean"], m["bounds"], self.grid))
        rnd.check("loglik", lambda: checks.check_log_likelihood(
            out["loglik"], m["a"], m["d"], m["c"], m["mean"], self.test))
        rnd.check("screen", lambda: checks.check_screening(
            m["a"], m["d"], m["c"], out["screen"][0], cfg["epsilon"], self.rng))
        rnd.check("edges", lambda: checks.check_edges(
            out["edges"][1], m["a"], m["d"], m["c"], cfg["epsilon"], cfg["max_edges"],
            out["edges"][0]))
        rnd.check("conditional", lambda: checks.check_conditional(
            out["conditional"][0], m["a"], m["d"], m["c"], m["mean"],
            self.part1, self.part2, self.x2))
        rnd.check("sparsify", _check_sparsify, m, out["sparsify"], cfg["lam"], "soft")
        self.small.check(rnd)


def _check_sparsify(m, result, lam, mode):
    sparse_model, report = result
    s = _model_arrays(sparse_model)
    require(report.lam == lam and report.mode == mode, "report names another lambda or mode")
    checks.check_same_arrays({"mean": m["mean"], "diag": m["d"]},
                             {"mean": s["mean"], "diag": s["d"]})
    small = m["a"].shape[0] <= 200
    require((report.measured_spectral_gap is not None) == small,
            "the spectral gap is measured exactly when N <= 200")
    checks.check_sparsified(m["a"], m["d"], s["c"], m["bounds"][0], m["bounds"][1], lam, mode,
                            s["a"], report.basis_density, sparse_model.pd_certified,
                            gap=report.measured_spectral_gap)
    require(s["bounds"] is not None and s["bounds"][0] >= m["bounds"][0] * (1 - 1e-9),
            "sparsified model's lower bound is below alpha")


# -- small problems, run inside library_large_n ----------------------------------

class SmallProblems:
    """Many small problems, where per-call Python work and r x r algebra
    dominate: the synthetic study, then small-N models whose sparsification
    takes the dense measured-gap path (N <= 200)."""

    QUERY_OPS = ("fit", "loglik", "sparsify_soft", "sparsify_hard", "conditional",
                 "edges", "files")

    def __init__(self, cfg, study, seed, workdir):
        from specprec import experiment

        self.cfg, self.dir = cfg, workdir
        self.study = experiment.ScenarioConfig(rho_grid=STUDY_GRID, root_seed=seed, **study)
        with np.load(os.path.join(workdir, "small.npz")) as z:
            self.inputs = [tuple(z[f"{k}{i}"] for k in ("train", "val", "test"))
                           for i in range(cfg["models"])]
        _, _, self.grid = rho_grid(cfg["n"], cfg["beta"])
        self.rng = np.random.default_rng([seed, 1])
        self.part1, self.part2 = _partition(cfg["n"], cfg["block"], self.rng)
        self.refs = [None] * cfg["models"]
        self.OPS = ("study",) + tuple(f"small{i}_{op}" for i in range(cfg["models"])
                                      for op in self.QUERY_OPS)
        self.out = {}

    @classmethod
    def setup(cls, cfg, seed, workdir):
        parts = {}
        for i in range(cfg["models"]):
            for k, part in zip(("train", "val", "test"), spiked_expression(cfg, (seed, i))):
                parts[f"{k}{i}"] = part
        np.savez(os.path.join(workdir, "small.npz"), **parts)

    def _files(self, i, dense, rho, sparse_model):
        from specprec import model

        dense_path = os.path.join(self.dir, f"model{i}.json")
        sparse_path = os.path.join(self.dir, f"sparse{i}.json")
        model.save_model_with_rho(dense, dense_path, rho)
        loaded, loaded_rho = model.load_model_with_rho(dense_path)
        model.save_model(sparse_model, sparse_path)
        return loaded, loaded_rho, model.load_model(sparse_path)

    def timed(self, rnd):
        from specprec import experiment, model, sparsify

        cfg, out = self.cfg, self.out
        out["study"] = rnd.run("study", "fit", experiment.run_scenario, self.study)
        for i, (train, val, test) in enumerate(self.inputs):
            fit = rnd.run(f"small{i}_fit", "fit", _fit_validated, train, val, self.grid)
            rho, m = fit if fit else (None, None)
            soft = rnd.run(f"small{i}_sparsify_soft", "query", sparsify.sparsify_model, m,
                           cfg["lam"], "soft")
            out[i] = dict(
                rho=rho, model=m, soft=soft,
                loglik=rnd.run(f"small{i}_loglik", "query", model.average_log_likelihood, m,
                               test),
                hard=rnd.run(f"small{i}_sparsify_hard", "query", sparsify.sparsify_model, m,
                             cfg["lam"], "hard"),
                conditional=rnd.run(f"small{i}_conditional", "query", model.conditional, m,
                                    self.part1, self.part2, test[self.part2, 0]),
                edges=rnd.run(f"small{i}_edges", "query", model.important_edges, m,
                              cfg["epsilon"], cfg["max_edges"]),
                files=rnd.run(f"small{i}_files", "query", self._files, i, m, rho,
                              soft[0] if soft else None))

    def check(self, rnd):
        cfg = self.cfg
        rnd.check("study", checks.check_study, self.out["study"], self.study.repetitions,
                  self.study.rho_grid)
        for i, (train, val, test) in enumerate(self.inputs):
            o = self.out[i]
            if self.refs[i] is None:
                self.refs[i] = Reference(train, val)
            ref = self.refs[i]
            m = _model_arrays(o["model"]) if o["model"] is not None else None
            rnd.check(f"small{i}_fit", lambda: ref.check_fit(
                o["rho"], m["a"], m["d"], m["c"], m["mean"], m["bounds"], self.grid))
            rnd.check(f"small{i}_loglik", lambda: checks.check_log_likelihood(
                o["loglik"], m["a"], m["d"], m["c"], m["mean"], test))
            for mode in ("soft", "hard"):
                rnd.check(f"small{i}_sparsify_{mode}", _check_sparsify, m, o[mode], cfg["lam"],
                          mode)
            rnd.check(f"small{i}_conditional", lambda: checks.check_conditional(
                o["conditional"][0], m["a"], m["d"], m["c"], m["mean"], self.part1,
                self.part2, test[self.part2, 0]))
            rnd.check(f"small{i}_edges", lambda: checks.check_edges(
                o["edges"], m["a"], m["d"], m["c"], cfg["epsilon"], cfg["max_edges"],
                np.arange(cfg["n"])))

            def files():
                loaded, loaded_rho, loaded_sparse = o["files"]
                require(loaded_rho == o["rho"], "rho changed after reading back")
                checks.check_same_arrays(m, _model_arrays(loaded))
                checks.check_same_arrays(_model_arrays(o["soft"][0]), _model_arrays(loaded_sparse))

            rnd.check(f"small{i}_files", files)


WORKLOADS = {"cli_files": CliFiles, "library_large_n": LibraryLargeN}
