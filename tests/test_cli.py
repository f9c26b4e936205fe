import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from specprec import load_model, load_model_with_rho, materialize_dense
from specprec.cli import (DEFAULT_RHO_GRID, EXIT_DATA, EXIT_NUMERIC,
                          EXIT_USAGE, build_parser, main, parse_rho_grid)
from specprec.errors import UsageError
from oracle import dense_riccati, dense_tikhonov

DATA = Path(__file__).parent / "data"
SMALL = str(DATA / "small.csv")
SMALL_VAL = str(DATA / "small_val.csv")


def small_cov():
    x = np.loadtxt(SMALL, delimiter=",")
    x = x - x.mean(axis=1, keepdims=True)
    return x @ x.T / x.shape[1]


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("specprec ")]
    assert {argv[0] for argv in commands} == {"fit", "eval", "path", "sparsify",
                                              "screen", "simulate", "bench"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
        if "--rho-grid" in argv:
            parse_rho_grid(argv[argv.index("--rho-grid") + 1])


def test_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library overview", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["mu"].shape == (3,) and scope["prec"].n_vars == 3
    assert np.isfinite(scope["ll"]) and scope["chosen"].pd_certified
    assert scope["sparse"].pd_certified


def test_parse_rho_grid_log():
    grid = parse_rho_grid("0.01:1:log:3")
    np.testing.assert_allclose(grid, [0.01, 0.1, 1.0])


def test_parse_rho_grid_lin_and_singleton():
    np.testing.assert_allclose(parse_rho_grid("1:3:lin:3"), [1.0, 2.0, 3.0])
    np.testing.assert_allclose(parse_rho_grid("0.5:0.5:log:1"), [0.5])


@pytest.mark.parametrize("bad", [
    "1:2:3", "a:2:log:3", "0:2:log:3", "2:1:log:3", "1:2:log:0",
    "1:2:geom:3", "1:2:log:x", "nan:1:log:5", "0.1:inf:log:5", "0.1:nan:lin:5",
    "inf:inf:log:1",
])
def test_parse_rho_grid_rejects(bad):
    with pytest.raises(UsageError):
        parse_rho_grid(bad)


@pytest.mark.parametrize("argv", [["--rho", "nan"], ["--rho", "inf"],
                                  ["--val", SMALL_VAL, "--rho-grid", "0.1:inf:log:5"],
                                  ["--val", SMALL_VAL, "--rho-grid", "nan:1:log:5"]])
def test_fit_non_finite_rho_is_usage_error(tmp_path, capsys, argv):
    rc = main(["fit", "--input", SMALL, "--output", str(tmp_path / "m.json")] + argv)
    assert rc == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["code"] == EXIT_USAGE
    assert not (tmp_path / "m.json").exists()


def test_default_grid_parses():
    grid = parse_rho_grid(DEFAULT_RHO_GRID)
    assert len(grid) == 20
    assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(10.0)


def test_fit_fixed_rho_matches_dense_oracle(tmp_path):
    model_path = tmp_path / "m.json"
    report_path = tmp_path / "r.json"
    rc = main(["fit", "--input", SMALL, "--output", str(model_path),
               "--report", str(report_path), "--method", "riccati",
               "--rho", "0.5"])
    assert rc == 0
    m, rho = load_model_with_rho(model_path)
    assert rho == 0.5
    np.testing.assert_allclose(materialize_dense(m),
                               dense_riccati(small_cov(), 0.5), atol=1e-9)
    report = json.loads(report_path.read_text())
    assert report["method"] == "riccati"
    assert report["n_vars"] == 6 and report["n_samples"] == 4
    assert report["rho"] == 0.5 and not report["rho_selected_by_validation"]
    assert report["beta"] == pytest.approx(1.0 / np.sqrt(0.5))
    assert report["wall_time_s"] >= 0


def test_fit_tikhonov(tmp_path):
    model_path = tmp_path / "m.json"
    rc = main(["fit", "--input", SMALL, "--output", str(model_path),
               "--method", "tikhonov", "--rho", "1.5"])
    assert rc == 0
    m = load_model(model_path)
    np.testing.assert_allclose(materialize_dense(m),
                               dense_tikhonov(small_cov(), 1.5), atol=1e-9)


def test_fit_grid_selects_rho_by_validation(tmp_path):
    model_path = tmp_path / "m.json"
    report_path = tmp_path / "r.json"
    rc = main(["fit", "--input", SMALL, "--output", str(model_path),
               "--report", str(report_path), "--val", SMALL_VAL,
               "--rho-grid", "0.01:10:log:8"])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["rho_selected_by_validation"]
    grid = parse_rho_grid("0.01:10:log:8")
    assert any(abs(report["rho"] - g) < 1e-12 for g in grid)


def test_fit_standardize_scores_rho_on_standardized_validation(tmp_path):
    from specprec import (DataMatrix, center, random_spiked, sample,
                          select_rho_by_validation, solution_path, standardize,
                          thin_svd, write_csv)

    truth = random_spiked(400, 4, 1.0, 0.05, seed=3)
    x = sample(truth, 50, "gaussian", seed=4).values
    rng = np.random.default_rng(5)
    x = rng.uniform(2.0, 12.0, (400, 1)) + rng.lognormal(0.0, 0.5, (400, 1)) * x
    train, val = x[:, :35], x[:, 35:]
    write_csv(DataMatrix(values=train), tmp_path / "train.csv")
    write_csv(DataMatrix(values=val), tmp_path / "val.csv")
    report_path = tmp_path / "r.json"
    rc = main(["fit", "--input", str(tmp_path / "train.csv"),
               "--val", str(tmp_path / "val.csv"), "--standardize",
               "--output", str(tmp_path / "m.json"), "--report", str(report_path)])
    assert rc == 0

    # validation columns get the training mean and the training scale
    centered = center(DataMatrix(values=train))
    scale = np.sqrt((centered.values ** 2).mean(axis=1))
    path = solution_path(thin_svd(center(standardize(centered))),
                         parse_rho_grid(DEFAULT_RHO_GRID))
    z_val = (val - centered.mean[:, None]) / scale[:, None]
    rho, _ = select_rho_by_validation(path, DataMatrix(values=z_val))
    assert json.loads(report_path.read_text())["rho"] == rho


def test_fit_standardize_writes_a_zero_mean(tmp_path):
    rc = main(["fit", "--input", SMALL, "--rho", "0.5", "--standardize",
               "--output", str(tmp_path / "m.json")])
    assert rc == 0
    mean = json.loads((tmp_path / "m.json").read_text())["mean"]
    assert mean == [0.0] * len(mean)


def test_fit_standardize_keeps_a_constant_row_with_inexact_mean(tmp_path):
    from specprec import DataMatrix, write_csv

    x = np.random.default_rng(7).standard_normal((50, 10))
    x[7] = 0.3  # its mean does not round-trip, so it centres to noise
    write_csv(DataMatrix(values=x), tmp_path / "x.csv")
    for extra in ([], ["--standardize"]):
        report = tmp_path / "r.json"
        rc = main(["fit", "--input", str(tmp_path / "x.csv"), "--rho", "0.5",
                   "--output", str(tmp_path / "m.json"), "--report", str(report)] + extra)
        assert rc == 0
        assert json.loads(report.read_text())["zero_variance_vars"] == [7]


def test_standardize_transform_peak_is_two_copies():
    import tracemalloc

    from specprec import DataMatrix, dataset

    raw = DataMatrix(values=np.random.default_rng(0).standard_normal((1 << 16, 64)))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        data = dataset.standardize(dataset.center(raw))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert not data.mean.any()
    assert peak <= 2.25 * raw.values.nbytes


@pytest.mark.parametrize("command", ["fit", "path"])
@pytest.mark.parametrize("standardize", [[], ["--standardize"]])
def test_training_statistics_are_read_once(tmp_path, monkeypatch, command, standardize):
    from specprec import dataset

    calls = []
    row_scale = dataset.row_scale
    monkeypatch.setattr(dataset, "row_scale", lambda d: calls.append(d) or row_scale(d))
    rc = main([command, "--input", SMALL, "--val", SMALL_VAL, "--rho-grid", "0.1:1:log:3",
               "--output", str(tmp_path / "out")] + standardize)
    assert rc == 0 and len(calls) == 1


@pytest.mark.parametrize("command", ["fit", "path"])
@pytest.mark.parametrize("argv", [["--rho-grid", "bad"], ["--rho-grid", "nan:1:log:5"],
                                  ["--rho-grid", "0.1:inf:log:5"], ["--rho-grid", "1:2:log:0"]])
def test_bad_grid_is_refused_before_any_read(tmp_path, capsys, command, argv):
    missing = str(tmp_path / "missing.csv")
    rc = main([command, "--input", missing, "--val", missing,
               "--output", str(tmp_path / "out")] + argv)
    assert rc == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["code"] == EXIT_USAGE


@pytest.mark.parametrize("argv", [["--rho", "nan"], ["--rho", "inf"], ["--rho", "-1"],
                                  ["--rho", "1", "--val", "x.csv"], []])
def test_fit_usage_is_checked_before_any_read(tmp_path, capsys, argv):
    rc = main(["fit", "--input", str(tmp_path / "missing.csv"),
               "--output", str(tmp_path / "m.json")] + argv)
    assert rc == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["code"] == EXIT_USAGE


@pytest.mark.parametrize("standardize", [[], ["--standardize"]])
def test_path_best_row_is_the_fit_rho(tmp_path, standardize):
    grid = ["--rho-grid", "0.01:100:log:9", "--val", SMALL_VAL] + standardize
    assert main(["path", "--input", SMALL, "--output", str(tmp_path / "p.csv")] + grid) == 0
    report = tmp_path / "r.json"
    assert main(["fit", "--input", SMALL, "--output", str(tmp_path / "m.json"),
                 "--report", str(report)] + grid) == 0
    rows = [[float(v) for v in r] for r in read_csv_rows(str(tmp_path / "p.csv"))[1:]]
    scores = [r[3] for r in rows]
    assert len(set(scores)) > 1
    # ties break toward the larger rho
    best = max(range(len(rows)), key=lambda i: (scores[i], rows[i][0]))
    assert json.loads(report.read_text())["rho"] == rows[best][0]


def test_fit_grid_without_val_is_usage_error(tmp_path, capsys):
    rc = main(["fit", "--input", SMALL, "--output", str(tmp_path / "m.json")])
    assert rc == EXIT_USAGE
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_USAGE and "message" in err and "context" in err


def test_eval_standard_normal_model(tmp_path):
    model_path = tmp_path / "iso.json"
    doc = {"format_version": 1, "n": 2, "r": 0, "c": 1.0, "orthonormal": True,
           "mean": [0.0, 0.0], "diag": [], "basis": []}
    model_path.write_text(json.dumps(doc))
    data_path = tmp_path / "zeros.csv"
    data_path.write_text("0,0,0\n0,0,0\n")
    out = tmp_path / "metrics.csv"
    rc = main(["eval", "--model", str(model_path), "--input", str(data_path),
               "--output", str(out)])
    assert rc == 0
    rows = dict((r[0], r[1]) for r in read_csv_rows(str(out))[1:])
    assert float(rows["avg_neg_loglik"]) == 0.0
    assert int(float(rows["n_samples"])) == 3


def test_eval_fitted_model_roundtrip(tmp_path):
    model_path = tmp_path / "m.json"
    main(["fit", "--input", SMALL, "--output", str(model_path),
          "--rho", "1.0"])
    out = tmp_path / "metrics.csv"
    rc = main(["eval", "--model", str(model_path), "--input", SMALL_VAL,
               "--output", str(out)])
    assert rc == 0
    rows = dict((r[0], r[1]) for r in read_csv_rows(str(out))[1:])
    assert np.isfinite(float(rows["avg_neg_loglik"]))


def test_eval_dimension_mismatch(tmp_path, capsys):
    model_path = tmp_path / "iso.json"
    doc = {"format_version": 1, "n": 3, "r": 0, "c": 1.0, "orthonormal": True,
           "mean": [0.0] * 3, "diag": [], "basis": []}
    model_path.write_text(json.dumps(doc))
    rc = main(["eval", "--model", str(model_path), "--input", SMALL,
               "--output", str(tmp_path / "o.csv")])
    assert rc == EXIT_DATA
    assert json.loads(capsys.readouterr().err)["code"] == EXIT_DATA


def test_path_matches_direct_fit(tmp_path):
    out = tmp_path / "path.csv"
    rc = main(["path", "--input", SMALL, "--output", str(out),
               "--rho-grid", "0.5:0.5:log:1", "--val", SMALL_VAL])
    assert rc == 0
    rows = read_csv_rows(str(out))
    assert rows[0] == ["rho", "alpha", "beta", "val_score"]
    assert len(rows) == 2
    rho, alpha, beta, score = (float(v) for v in rows[1])
    assert rho == 0.5
    model_path = tmp_path / "m.json"
    main(["fit", "--input", SMALL, "--output", str(model_path),
          "--rho", "0.5"])
    m = load_model(model_path)
    assert alpha == pytest.approx(m.bounds.alpha, rel=1e-12)
    assert beta == pytest.approx(m.bounds.beta, rel=1e-12)
    assert np.isfinite(score)


@pytest.mark.parametrize("method", ["riccati", "tikhonov"])
def test_path_rows_carry_each_entry_bounds(tmp_path, method):
    from specprec import center, load_csv, solution_path, thin_svd

    spec = "0.01:100:log:9"
    out = tmp_path / "p.csv"
    assert main(["path", "--input", SMALL, "--val", SMALL_VAL, "--rho-grid", spec,
                 "--method", method, "--output", str(out)]) == 0
    path = solution_path(thin_svd(center(load_csv(SMALL))), parse_rho_grid(spec), method)
    rows = [[float(v) for v in r] for r in read_csv_rows(str(out))[1:]]
    assert [r[0] for r in rows] == list(path.rhos)
    for i, (_, alpha, beta, _) in enumerate(rows):
        bounds = path.model_at(i).bounds
        assert (alpha, beta) == (bounds.alpha, bounds.beta)


@pytest.mark.parametrize("command", ["fit", "path"])
def test_validation_rows_must_match_training(tmp_path, capsys, command):
    # a data error (exit 3), checked before the selection's own usage check
    short = tmp_path / "short.csv"
    short.write_text("".join(Path(SMALL_VAL).read_text().splitlines(keepends=True)[:-1]))
    rc = main([command, "--input", SMALL, "--val", str(short),
               "--output", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_DATA
    assert err["message"] == "validation data dimension mismatch"


def test_sparsify_uses_stored_rho_as_default(tmp_path):
    model_path = tmp_path / "m.json"
    main(["fit", "--input", SMALL, "--output", str(model_path),
          "--rho", "0.5"])
    sparse_path = tmp_path / "s.json"
    report_path = tmp_path / "rep.json"
    rc = main(["sparsify", "--model", str(model_path), "--output",
               str(sparse_path), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["lam"] == 0.5 and report["mode"] == "soft"
    assert set(report) == {"lam", "mode", "basis_density",
                           "spectral_gap_bound", "offdiag_density",
                           "measured_spectral_gap"}
    sparse_model = load_model(sparse_path)
    assert sparse_model.n_vars == 6 and not sparse_model.orthonormal
    gap = np.abs(np.linalg.eigvalsh(
        materialize_dense(sparse_model)
        - materialize_dense(load_model(model_path)))).max()
    assert gap <= report["spectral_gap_bound"] + 1e-9


def test_sparsify_without_lambda_or_stored_rho(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    main(["fit", "--input", SMALL, "--output", str(model_path),
          "--rho", "0.5"])
    doc = json.loads(model_path.read_text())
    del doc["rho"]
    model_path.write_text(json.dumps(doc))
    rc = main(["sparsify", "--model", str(model_path),
               "--output", str(tmp_path / "s.json")])
    assert rc == EXIT_USAGE


def test_sparsify_refuses_infinite_beta(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    main(["fit", "--input", SMALL, "--output", str(model_path), "--rho", "0.5"])
    doc = json.loads(model_path.read_text())
    doc["bounds"]["beta"] = float("inf")
    model_path.write_text(json.dumps(doc))
    assert '"beta": Infinity' in model_path.read_text()
    out = tmp_path / "s.json"
    rc = main(["sparsify", "--model", str(model_path), "--output", str(out),
               "--report", str(tmp_path / "rep.json")])
    assert rc == EXIT_DATA
    assert json.loads(capsys.readouterr().err)["code"] == EXIT_DATA
    assert not out.exists() and not (tmp_path / "rep.json").exists()


def test_screen_isotropic_model(tmp_path):
    model_path = tmp_path / "iso.json"
    doc = {"format_version": 1, "n": 4, "r": 0, "c": 2.0, "orthonormal": True,
           "mean": [0.0] * 4, "diag": [], "basis": []}
    model_path.write_text(json.dumps(doc))
    unimp = tmp_path / "unimportant.txt"
    edges = tmp_path / "edges.csv"
    rc = main(["screen", "--model", str(model_path), "--epsilon", "0.05",
               "--unimportant-out", str(unimp), "--edges-out", str(edges)])
    assert rc == 0
    assert [int(v) for v in unimp.read_text().split()] == [0, 1, 2, 3]
    rows = read_csv_rows(str(edges))
    assert rows == [["n1", "n2", "partial_correlation"]]


def test_screen_fitted_model(tmp_path):
    model_path = tmp_path / "m.json"
    main(["fit", "--input", SMALL, "--output", str(model_path),
          "--rho", "0.5"])
    unimp = tmp_path / "u.txt"
    edges = tmp_path / "e.csv"
    rc = main(["screen", "--model", str(model_path), "--epsilon", "0.01",
               "--max-edges", "3", "--unimportant-out", str(unimp),
               "--edges-out", str(edges)])
    assert rc == 0
    rows = read_csv_rows(str(edges))
    assert len(rows) <= 4  # header + at most max-edges
    for n1, n2, v in rows[1:]:
        assert int(n1) < int(n2)
        assert abs(float(v)) > 0.01


def test_screen_screens_once_and_writes_the_default_edges(tmp_path, monkeypatch):
    import specprec.model as model_mod

    model_path = tmp_path / "m.json"
    main(["fit", "--input", SMALL, "--output", str(model_path), "--rho", "0.5"])
    m = load_model(model_path)
    want = [[str(n1), str(n2), str(v)]
            for n1, n2, v in model_mod.important_edges(m, 0.01, 1000)]
    calls, real = [], model_mod.screen_unimportant
    monkeypatch.setattr(model_mod, "screen_unimportant",
                        lambda *a: calls.append(1) or real(*a))
    edges = tmp_path / "e.csv"
    rc = main(["screen", "--model", str(model_path), "--epsilon", "0.01",
               "--unimportant-out", str(tmp_path / "u.txt"), "--edges-out", str(edges)])
    assert rc == 0 and len(calls) == 1
    assert read_csv_rows(str(edges))[1:] == want and want


def test_simulate_tiny_scenario(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "n": 30, "k": 2, "beta": 1.0, "density": 0.3, "t_train": 8,
        "t_val": 4, "repetitions": 2, "root_seed": 1,
        "rho_grid": [0.1, 1.0, 10.0]}))
    out = tmp_path / "results.csv"
    rc = main(["simulate", "--scenario", str(scenario), "--output", str(out)])
    assert rc == 0
    rows = read_csv_rows(str(out))
    assert rows[0] == ["repetition", "method", "rho_selected", "kl",
                       "runtime_ms"]
    assert len(rows) == 1 + 2 * 3  # two repetitions x three methods
    methods = {r[1] for r in rows[1:]}
    assert methods == {"riccati", "tikhonov", "isotropic"}
    for r in rows[1:]:
        if r[1] != "isotropic":
            assert float(r[3]) >= 0.0


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"n": 10, "k": 1, "beta": 1.0,
                                    "density": 0.3, "t_train": 4, "t_val": 2,
                                    "bogus": 1}))
    rc = main(["simulate", "--scenario", str(scenario),
               "--output", str(tmp_path / "o.csv")])
    assert rc == EXIT_USAGE


SIMULATE_SCENARIO = {"n": 10, "k": 1, "beta": 1.0, "density": 0.3, "t_train": 4,
                     "t_val": 2, "repetitions": 1}
EVAL_SCENARIO = {"n": 6, "k": 1, "beta": 1.0, "density": 0.3, "seed": 0}


def _scenario_cases():
    cases = []
    for command, good in (("simulate", SIMULATE_SCENARIO), ("eval", EVAL_SCENARIO)):
        missing = {key: v for key, v in good.items() if key != "k"}
        cases += [(command, json.dumps(good), 0),
                  (command, "{not json", EXIT_DATA),
                  (command, json.dumps([good]), EXIT_USAGE),
                  (command, json.dumps(missing), EXIT_USAGE),
                  (command, json.dumps(dict(good, bogus=1)), EXIT_USAGE),
                  (command, json.dumps(dict(good, k="1")), EXIT_USAGE),
                  (command, json.dumps(dict(good, beta=True)), EXIT_USAGE)]
    cases += [("simulate", json.dumps(dict(SIMULATE_SCENARIO, rho_grid=[0.1, "x"])),
               EXIT_USAGE),
              ("simulate", json.dumps(dict(SIMULATE_SCENARIO, root_seed=-1)), EXIT_USAGE),
              ("eval", json.dumps(dict(EVAL_SCENARIO, seed=-1)), EXIT_USAGE),
              ("eval", json.dumps(dict(EVAL_SCENARIO, n=60)), EXIT_DATA)]
    return cases


@pytest.mark.parametrize("command, text, code", _scenario_cases())
def test_scenario_files_keep_the_exit_codes(tmp_path, capsys, command, text, code):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    out = tmp_path / "o.csv"
    if command == "simulate":
        argv = ["simulate", "--scenario", str(scenario), "--output", str(out)]
    else:
        model_path = tmp_path / "m.json"
        assert main(["fit", "--input", SMALL, "--output", str(model_path),
                     "--rho", "1.0"]) == 0
        argv = ["eval", "--model", str(model_path), "--input", SMALL,
                "--scenario", str(scenario), "--output", str(out)]
    assert main(argv) == code
    assert out.exists() == (code == 0)
    if code:
        assert json.loads(capsys.readouterr().err)["code"] == code


def test_fit_rho_with_val_is_usage_error(tmp_path, capsys):
    # --val is read only to select rho from the grid; with --rho it would do
    # nothing, even for a file that does not exist
    rc = main(["fit", "--input", SMALL, "--output", str(tmp_path / "m.json"),
               "--rho", "0.5", "--val", str(tmp_path / "missing.csv")])
    assert rc == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["code"] == EXIT_USAGE
    assert not (tmp_path / "m.json").exists()


def test_out_of_range_counts_are_usage_errors(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    assert main(["fit", "--input", SMALL, "--output", str(model_path),
                 "--rho", "0.5"]) == 0
    outs = [tmp_path / "u.txt", tmp_path / "e.csv", tmp_path / "b.csv"]
    for argv in (["screen", "--model", str(model_path), "--epsilon", "0.01",
                  "--max-edges", "-1", "--unimportant-out", str(outs[0]),
                  "--edges-out", str(outs[1])],
                 ["bench", "--t", "8", "--n-grid", "64", "--repeats", "0",
                  "--output", str(outs[2])],
                 ["bench", "--t", "8", "--n-grid", "64,abc", "--output", str(outs[2])]):
        assert main(argv) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["code"] == EXIT_USAGE
    assert not any(p.exists() for p in outs)


def test_synthetic_experiment_script_default_scenario(tmp_path, monkeypatch, capsys):
    import importlib.util
    import tempfile

    script = Path(__file__).parent.parent / "scripts" / "run_synthetic_experiment.py"
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(module.DEFAULT_SCENARIO, "repetitions", 2)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    out = tmp_path / "results.csv"
    assert module.main(["--output", str(out)]) == 0
    assert list(scratch.iterdir()) == []  # no scenario file is left behind
    rows = read_csv_rows(out)
    assert len(rows) == 1 + 2 * 3
    assert "riccati" in capsys.readouterr().out
    # the grid reaches the Riccati optimum near (beta/N)^2, so no choice is an edge
    grid = module.DEFAULT_SCENARIO["rho_grid"]
    kl = {}
    for _, method, rho, value, _ in rows[1:]:
        kl.setdefault(method, []).append(float(value))
        if method == "riccati":
            assert grid[0] < float(rho) < grid[-1]
    assert np.mean(kl["riccati"]) < np.mean(kl["isotropic"])


def test_bench_small_grid(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--t", "8", "--n-grid", "64,128", "--repeats", "1",
               "--output", str(out)])
    assert rc == 0
    rows = read_csv_rows(str(out))
    assert rows[0] == ["n", "t", "fit_seconds"]
    assert [int(r[0]) for r in rows[1:]] == [64, 128]
    for r in rows[1:]:
        assert float(r[2]) > 0


def test_missing_input_file_is_data_error(tmp_path, capsys):
    rc = main(["fit", "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "m.json"), "--rho", "1.0"])
    assert rc == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_DATA


def _one_line_error(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["code"]


@pytest.mark.parametrize("delimiter", [",,", "", "."])
def test_bad_delimiter_is_usage_error(tmp_path, capsys, delimiter):
    rc = main(["fit", "--input", SMALL, "--rho", "1.0", "--delimiter", delimiter,
               "--output", str(tmp_path / "m.json")])
    assert rc == EXIT_USAGE and _one_line_error(capsys) == EXIT_USAGE


def test_directory_input_and_output_are_data_errors(tmp_path, capsys):
    rc = main(["fit", "--input", str(tmp_path), "--rho", "1.0",
               "--output", str(tmp_path / "m.json")])
    assert rc == EXIT_DATA and _one_line_error(capsys) == EXIT_DATA
    rc = main(["fit", "--input", SMALL, "--rho", "1.0", "--output", str(tmp_path)])
    assert rc == EXIT_DATA and _one_line_error(capsys) == EXIT_DATA


def test_non_utf8_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes("1,2\n3,4\n\u00e9,5\n".encode("latin-1"))
    rc = main(["fit", "--input", str(bad), "--rho", "1.0",
               "--output", str(tmp_path / "m.json")])
    assert rc == EXIT_DATA and _one_line_error(capsys) == EXIT_DATA


def test_byte_order_mark_and_trailing_blank_lines_are_read(tmp_path, capsys):
    # spreadsheet programs write the mark and editors leave the blank lines;
    # a blank line between rows is still a ragged row
    texts = {"clean": "1,2,3\n4,5,7\n", "mark": "\ufeff1,2,3\n4,5,7\n",
             "blank": "1,2,3\n4,5,7\n\n", "blanks": "1,2,3\r\n4,5,7\r\n\r\n\r\n",
             "gap": "1,2,3\n\n4,5,7\n"}
    codes = {}
    for name, text in texts.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8", newline="")
        codes[name] = main(["fit", "--input", str(tmp_path / f"{name}.csv"), "--rho", "1",
                            "--output", str(tmp_path / f"{name}.json")])
    assert codes == dict.fromkeys(texts, 0) | {"gap": EXIT_DATA}
    assert _one_line_error(capsys) == EXIT_DATA
    clean = (tmp_path / "clean.json").read_bytes()
    for name in ("mark", "blank", "blanks"):
        assert (tmp_path / f"{name}.json").read_bytes() == clean


@pytest.mark.parametrize("text, flags", [
    # a blank line between rows sends the file to the cell parser
    ("LONG,2,3\n4,5,6\n\n7,8,9\n", []),
    # a header record is read by csv.reader before the body
    ("a,LONG,c\n1,2,3\n4,5,6\n", ["--has-header"]),
])
def test_cell_over_the_csv_field_limit_is_data_error(tmp_path, capsys, text, flags):
    path = tmp_path / "long.csv"
    path.write_text(text.replace("LONG", "0." + "0" * 140_000 + "1"))
    rc = main(["fit", "--input", str(path), "--rho", "1",
               "--output", str(tmp_path / "m.json")] + flags)
    assert rc == EXIT_DATA and _one_line_error(capsys) == EXIT_DATA


def test_rank_zero_model_sparsifies_screens_and_evaluates(tmp_path):
    # constant rows centre to zero, so the fit has rank 0: c I with c = 1/sqrt(rho)
    data = tmp_path / "const.csv"
    data.write_text("".join(f"{v},{v},{v},{v}\n" for v in (1.5, -2.0, 0.0, 7.0, 3.25)))
    model, sparse = str(tmp_path / "m.json"), str(tmp_path / "s.json")
    assert main(["fit", "--input", str(data), "--rho", "4", "--output", model]) == 0
    assert load_model(model).rank == 0
    assert main(["sparsify", "--model", model, "--mode", "hard", "--output", sparse,
                 "--report", str(tmp_path / "r.json")]) == 0
    m = load_model(sparse)
    assert m.rank == 0 and m.c == 0.5 and m.pd_certified
    unimp, edges = tmp_path / "u.txt", tmp_path / "e.csv"
    assert main(["screen", "--model", sparse, "--epsilon", "0.1",
                 "--unimportant-out", str(unimp), "--edges-out", str(edges)]) == 0
    assert unimp.read_text().split() == ["0", "1", "2", "3", "4"]
    assert read_csv_rows(str(edges)) == [["n1", "n2", "partial_correlation"]]
    out = tmp_path / "eval.csv"
    assert main(["eval", "--model", sparse, "--input", str(data), "--output", str(out)]) == 0
    # mean_t (x_t - mu)^T (c I) (x_t - mu) is 0, so the loss is -log det = -5 log c
    assert float(read_csv_rows(str(out))[1][1]) == pytest.approx(-5 * np.log(0.5))


def test_non_finite_thresholds_are_usage_errors(tmp_path, capsys):
    model = str(tmp_path / "m.json")
    assert main(["fit", "--input", SMALL, "--rho", "0.5", "--output", model]) == 0
    rc = main(["screen", "--model", model, "--epsilon", "nan",
               "--unimportant-out", str(tmp_path / "u.txt"),
               "--edges-out", str(tmp_path / "e.csv")])
    assert rc == EXIT_USAGE and _one_line_error(capsys) == EXIT_USAGE
    rc = main(["sparsify", "--model", model, "--lambda", "inf",
               "--output", str(tmp_path / "s.json"), "--report", str(tmp_path / "r.json")])
    assert rc == EXIT_USAGE and _one_line_error(capsys) == EXIT_USAGE
    assert not (tmp_path / "s.json").exists() and not (tmp_path / "r.json").exists()


def test_bad_rho_grid_is_usage_error(tmp_path, capsys):
    rc = main(["fit", "--input", SMALL, "--output", str(tmp_path / "m.json"),
               "--val", SMALL_VAL, "--rho-grid", "nope"])
    assert rc == EXIT_USAGE


def test_indefinite_model_is_numeric_error(tmp_path, capsys):
    # Omega = diag(1 - 0.5 * 4, 1) = diag(-1, 1) is indefinite, so the
    # loaded model is not certified and evaluation fails with the numeric
    # exit code
    model_path = tmp_path / "bad.json"
    doc = {"format_version": 1, "n": 2, "r": 1, "c": 1.0, "orthonormal": False,
           "mean": [0.0, 0.0], "diag": [-0.5], "basis": [[2.0], [0.0]]}
    model_path.write_text(json.dumps(doc))
    data_path = tmp_path / "d.csv"
    data_path.write_text("0,0\n0,0\n")
    rc = main(["eval", "--model", str(model_path), "--input", str(data_path),
               "--output", str(tmp_path / "o.csv")])
    assert rc == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_NUMERIC


def test_disproved_orthonormal_claim_is_data_error(tmp_path, capsys):
    # orthonormality is decided from the basis; a file whose stored claim
    # the Gram matrix disproves is refused with the data exit code
    model_path = tmp_path / "bad.json"
    doc = {"format_version": 1, "n": 2, "r": 1, "c": 1.0, "orthonormal": True,
           "mean": [0.0, 0.0], "diag": [-0.5], "basis": [[2.0], [0.0]]}
    model_path.write_text(json.dumps(doc))
    data_path = tmp_path / "d.csv"
    data_path.write_text("0,0\n0,0\n")
    rc = main(["eval", "--model", str(model_path), "--input", str(data_path),
               "--output", str(tmp_path / "o.csv")])
    assert rc == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_DATA
    assert err["context"]["detail"] == "model basis is not orthonormal"


@pytest.mark.parametrize("basis, message", [
    ({"rows": [0], "cols": [0]}, "sparse basis missing key"),
    ({"rows": [0, 1], "cols": [0], "vals": [1.0]}, "sparse basis arrays must have equal length"),
    ({"rows": [2], "cols": [0], "vals": [1.0]}, "sparse basis index out of range"),
    ({"rows": [0], "cols": [1], "vals": [1.0]}, "sparse basis index out of range"),
])
def test_malformed_sparse_basis_is_data_error(tmp_path, capsys, basis, message):
    model_path = tmp_path / "bad.json"
    doc = {"format_version": 1, "n": 2, "r": 1, "c": 1.0, "orthonormal": False,
           "mean": [0.0, 0.0], "diag": [-0.5], "basis": basis}
    model_path.write_text(json.dumps(doc))
    data_path = tmp_path / "d.csv"
    data_path.write_text("0,1\n1,0\n")
    rc = main(["eval", "--model", str(model_path), "--input", str(data_path),
               "--output", str(tmp_path / "o.csv")])
    assert rc == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_DATA and err["message"] == message


def test_sparsifying_a_sparsified_model_is_usage_error(tmp_path, capsys):
    # a thresholded basis is no longer orthonormal, and the sparsification
    # guarantees hold only for an orthonormal one
    model_path, sparse_path = tmp_path / "m.json", tmp_path / "s.json"
    assert main(["fit", "--input", SMALL, "--output", str(model_path), "--rho", "0.5"]) == 0
    assert main(["sparsify", "--model", str(model_path), "--mode", "hard",
                 "--lambda", "0.5", "--output", str(sparse_path)]) == 0
    out = tmp_path / "again.json"
    rc = main(["sparsify", "--model", str(sparse_path), "--lambda", "0.5",
               "--output", str(out)])
    assert rc == EXIT_USAGE
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_USAGE and "orthonormal" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "screen"])
@pytest.mark.parametrize("c, basis", [(float("inf"), [[2.0], [0.0]]),
                                      (1.0, [[float("nan")], [0.0]])])
def test_non_finite_model_file_fails_cleanly(tmp_path, capsys, command, c, basis):
    # a non-finite model is refused with a JSON error, never evaluated to nan
    model_path = tmp_path / "bad.json"
    doc = {"format_version": 1, "n": 2, "r": 1, "c": c, "orthonormal": False,
           "mean": [0.0, 0.0], "diag": [-0.5], "basis": basis}
    model_path.write_text(json.dumps(doc))
    data_path = tmp_path / "d.csv"
    data_path.write_text("0,1\n1,0\n")
    out = tmp_path / "out.csv"
    if command == "eval":
        argv = ["eval", "--model", str(model_path), "--input", str(data_path),
                "--output", str(out)]
    else:
        argv = ["screen", "--model", str(model_path), "--epsilon", "0.1",
                "--unimportant-out", str(out), "--edges-out", str(tmp_path / "e.csv")]
    rc = main(argv)
    assert rc in (EXIT_DATA, EXIT_NUMERIC)
    assert json.loads(capsys.readouterr().err)["code"] == rc
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--threads", "2", "fit", "--input", SMALL, "--output", "m.json", "--rho", "1.0"],
    ["fit", "--seed", "0", "--input", SMALL, "--output", "m.json", "--rho", "1.0"],
    ["bench", "--t", "8", "--n-grid", "64", "--rho", "1.0", "--output", "b.csv"],
])
def test_removed_flags_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


def test_malformed_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    rc = main(["fit", "--input", str(bad), "--output",
               str(tmp_path / "m.json"), "--rho", "1.0"])
    assert rc == EXIT_DATA
