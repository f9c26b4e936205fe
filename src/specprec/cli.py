"""Command-line surface: fit / eval / path / sparsify / screen / simulate / bench.

Exit codes are stable: 0 success, 2 usage error, 3 data error (a file
that cannot be read, parsed or written included), 4 numeric error.  Failures emit a machine-parsable JSON object on stderr.  All
commands are deterministic given their flags and seed.  The BLAS thread
count follows the environment (OPENBLAS_NUM_THREADS / OMP_NUM_THREADS);
set it to 1 where runs must repeat bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import dataset, experiment, model as model_mod, sparsify as sparsify_mod
from . import spectral, spiked
from .errors import DataError, NumericError, SpecprecError, UsageError

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def parse_rho_grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:log|lin:count' into a rho grid."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise UsageError("rho grid must look like lo:hi:log|lin:count", got=spec)
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[3])
    except ValueError:
        raise UsageError("rho grid bounds/count do not parse", got=spec) from None
    scale = parts[2]
    spectral._require_rho((lo, hi))
    if hi < lo or count < 1:
        raise UsageError("rho grid needs 0 < lo <= hi and count >= 1", got=spec)
    if scale == "log":
        return np.logspace(np.log10(lo), np.log10(hi), count)
    if scale == "lin":
        return np.linspace(lo, hi, count)
    raise UsageError("rho grid scale must be 'log' or 'lin'", got=spec)


DEFAULT_RHO_GRID = "0.001:10:log:20"


def _load(args, path) -> dataset.DataMatrix:
    return dataset.load_csv(path, delimiter=args.delimiter, has_header=args.has_header,
                            orientation=args.orientation)


def _prepare(args):
    """Training data ready for the SVD, the training mean and scale that put
    validation columns on its footing, (x - mean) / scale, and its constant rows."""
    data = dataset.center(_load(args, args.input))
    scale, flagged = dataset.row_scale(data)
    if not args.standardize:
        return data, data.mean, np.ones(data.n_vars), flagged
    return dataset._scaled(data, scale), data.mean, scale, flagged


def _path(args, grid):
    """The training data's regularization path over ``grid``, the index of its
    entry with the best --val score (0 without --val), every entry's score
    (NaN without --val) and the training data's constant rows.  The grid is
    checked before any file is read."""
    spectral._require_rho(grid)
    data, mean, scale, flagged = _prepare(args)
    path = spectral.solution_path(spectral.thin_svd(data), grid, args.method)
    if args.val is None:
        return path, 0, np.full(len(path), np.nan), flagged
    val = _load(args, args.val)
    if val.n_vars != mean.size:
        raise DataError("validation data dimension mismatch",
                        expected=mean.size, got=val.n_vars)
    z = val.values - mean[:, None]
    z /= scale[:, None]
    best, scores = spectral._select_entry(path, z)
    return path, best, scores, flagged


def _write_csv_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    if args.rho is not None and args.val is not None:
        raise UsageError("--val selects rho from --rho-grid; it cannot be used with --rho")
    if args.rho is None and args.val is None:
        raise UsageError("--rho-grid needs --val to select rho")
    grid = [args.rho] if args.rho is not None else parse_rho_grid(args.rho_grid)
    # a fit is the entry of its path at the selected rho
    path, best, _, flagged = _path(args, grid)
    basis = path.basis
    fitted, rho = path.model_at(best), float(path.rhos[best])
    model_mod.save_model(fitted, args.output, rho=rho)
    wall = time.perf_counter() - t0
    report = {
        "method": args.method,
        "n_vars": basis.n_vars,
        "n_samples": basis.n_samples,
        "rank": basis.rank,
        "rho": rho,
        "rho_selected_by_validation": args.val is not None,
        "alpha": fitted.bounds.alpha,
        "beta": fitted.bounds.beta,
        "zero_variance_vars": list(flagged),
        "wall_time_s": wall,
        "peak_factor_bytes_estimate": 8 * basis.n_vars * (basis.rank + 2),
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if flagged:
        print(f"warning: {len(flagged)} zero-variance variables",
              file=sys.stderr)
    return 0


# the scenario keys of eval --scenario: the arguments of spiked.random_spiked
_TRUTH_KEYS = {"n": "int", "k": "int", "beta": "float", "density": "float", "seed": "int"}


def cmd_eval(args) -> int:
    fitted = model_mod.load_model(args.model)
    truth = None
    if args.scenario:
        doc = model_mod._read_json(args.scenario, "scenario file")
        experiment._check_keys(doc, _TRUTH_KEYS, required=_TRUTH_KEYS)
        if doc["n"] != fitted.n_vars:
            raise DataError("scenario dimension does not match the model",
                            expected=fitted.n_vars, got=doc["n"])
        truth = spiked.random_spiked(**doc)
    data = _load(args, args.input)
    if data.n_vars != fitted.n_vars:
        raise DataError("test data dimension mismatch",
                        expected=fitted.n_vars, got=data.n_vars)
    avg_ll = model_mod.average_log_likelihood(fitted, data)
    rows = [("avg_neg_loglik", -avg_ll), ("n_samples", data.n_samples)]
    if truth is not None:
        sigma = spiked.true_covariance(truth)
        # -0.5 logdet Sigma* - N/2 + 0.5 * avg NLL estimates KL(P || model)
        adjusted = -0.5 * sigma.logdet() - 0.5 * fitted.n_vars - 0.5 * avg_ll
        rows.append(("entropy_adjusted_neg_loglik", adjusted))
    _write_csv_rows(args.output, ("metric", "value"), rows)
    return 0


def cmd_path(args) -> int:
    path, _, scores, _ = _path(args, parse_rho_grid(args.rho_grid))
    # each entry's bracket is the one its saved model carries
    bounds = (path.model_at(i).bounds for i in range(len(path)))
    rows = [(rho, b.alpha, b.beta, s) for rho, b, s in zip(path.rhos, bounds, scores)]
    _write_csv_rows(args.output, ("rho", "alpha", "beta", "val_score"), rows)
    return 0


def cmd_sparsify(args) -> int:
    fitted, stored_rho = model_mod.load_model_with_rho(args.model)
    lam = args.lam
    if lam is None:
        if stored_rho is None:
            raise UsageError("--lambda required: model file carries no rho default")
        lam = stored_rho
    sparse_model, report = sparsify_mod.sparsify_model(fitted, lam, args.mode)
    model_mod.save_model(sparse_model, args.output)
    if args.report:
        sparsify_mod.save_report(report, args.report)
    return 0


def cmd_screen(args) -> int:
    fitted = model_mod.load_model(args.model)
    unimportant, _ = model_mod.screen_unimportant(fitted, args.epsilon)
    # the edges' default candidates, without screening again
    edges = model_mod.important_edges(fitted, args.epsilon, args.max_edges,
                                      np.setdiff1d(np.arange(fitted.n_vars), unimportant))
    with open(args.unimportant_out, "w", encoding="utf-8") as fh:
        for n in unimportant:
            fh.write(f"{int(n)}\n")
    _write_csv_rows(args.edges_out, ("n1", "n2", "partial_correlation"), edges)
    return 0


def cmd_simulate(args) -> int:
    doc = model_mod._read_json(args.scenario, "scenario file")
    config = experiment.ScenarioConfig.from_dict(doc)
    rows = experiment.run_scenario(config)
    _write_csv_rows(args.output, experiment.RESULT_COLUMNS, rows)
    return 0


def cmd_bench(args) -> int:
    try:
        n_grid = [int(v) for v in args.n_grid.split(",")]
    except ValueError:
        raise UsageError("bench N grid must be comma-separated integers",
                         got=args.n_grid) from None
    if args.repeats < 1:
        raise UsageError("bench needs --repeats of at least 1", repeats=args.repeats)
    rng = np.random.default_rng(args.seed)
    raws = [dataset._adopt(values=rng.standard_normal((n, args.t))) for n in n_grid]
    # round-robin, so that a host whose speed drifts reaches every size alike
    best, ranks = [np.inf] * len(n_grid), [0] * len(n_grid)
    for _ in range(args.repeats):
        for i, raw in enumerate(raws):
            t0 = time.perf_counter()
            basis = spectral.thin_svd(dataset.center(raw))
            spectral.riccati_fit(basis, args.rho)
            best[i] = min(best[i], time.perf_counter() - t0)
            ranks[i] = basis.rank
    rows = [(n, args.t, best[i], 8 * n * (ranks[i] + 2)) for i, n in enumerate(n_grid)]
    _write_csv_rows(args.output, ("n", "t", "fit_seconds", "peak_factor_bytes"),
                    rows)
    return 0


def _add_io_flags(p):
    p.add_argument("--delimiter", default=",")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--orientation", default="variables-as-rows",
                   choices=["variables-as-rows", "samples-as-rows"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specprec",
        description="Spectral inverse-covariance estimation for N >> T data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a precision model from a CSV dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="model JSON path")
    p.add_argument("--report", help="fit report JSON path")
    p.add_argument("--method", default="riccati", choices=["riccati", "tikhonov"])
    p.add_argument("--rho", type=float)
    p.add_argument("--rho-grid", default=DEFAULT_RHO_GRID)
    p.add_argument("--val", help="validation CSV used to select rho from the grid")
    p.add_argument("--standardize", action="store_true")
    _add_io_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="average negative log-likelihood on a test CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="metrics CSV path")
    p.add_argument("--scenario", help="spiked scenario JSON for entropy subtraction")
    _add_io_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("path", help="regularization path summary CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--method", default="riccati", choices=["riccati", "tikhonov"])
    p.add_argument("--rho-grid", default=DEFAULT_RHO_GRID)
    p.add_argument("--val")
    p.add_argument("--standardize", action="store_true")
    _add_io_flags(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("sparsify", help="threshold a fitted model's basis")
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True, help="sparse model JSON path")
    p.add_argument("--report", help="sparsify report JSON path")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="threshold scale; defaults to the model's stored rho")
    p.add_argument("--mode", default="soft", choices=["soft", "hard"])
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("screen", help="unimportant variables and important edges")
    p.add_argument("--model", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-edges", type=int, default=1000)
    p.add_argument("--unimportant-out", required=True)
    p.add_argument("--edges-out", required=True)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("simulate", help="run a spiked-covariance scenario")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--output", required=True, help="results CSV")
    p.set_defaults(func=cmd_simulate)

    about = ("fit-time scaling over a size grid, timed round-robin; every input is held "
             "at once (8*T*sum(N) bytes, 31.5 MB by default)")
    p = sub.add_parser("bench", help=about, description=about)
    p.add_argument("--t", type=int, default=64)
    p.add_argument("--n-grid", default="4096,8192,16384,32768")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def _emit_error(code: int, exc: SpecprecError) -> None:
    doc = {"code": code, "message": exc.message,
           "context": {k: _jsonable(v) for k, v in exc.context.items()}}
    print(json.dumps(doc), file=sys.stderr)


def _jsonable(v):
    if isinstance(v, (np.integer, np.floating)):
        return v.item()
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    return v


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SpecprecError as exc:
        _emit_error(EXIT_USAGE, exc)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        _emit_error(EXIT_USAGE, exc)
        return EXIT_USAGE
    except OSError as exc:  # a missing, unreadable or unwritable file
        _emit_error(EXIT_DATA, DataError(str(exc)))
        return EXIT_DATA
    except DataError as exc:
        _emit_error(EXIT_DATA, exc)
        return EXIT_DATA
    except NumericError as exc:
        _emit_error(EXIT_NUMERIC, exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
