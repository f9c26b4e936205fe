#!/usr/bin/env python3
"""Run a spiked-covariance recovery study and print a per-method summary.

Thin wrapper over ``specprec simulate``: builds (or loads) a scenario JSON,
runs every repetition, writes the raw rows CSV, and prints mean KL and mean
runtime per method so the comparison is readable at a glance.

Examples:
    python3 scripts/run_synthetic_experiment.py --output /tmp/results.csv
    python3 scripts/run_synthetic_experiment.py --scenario my_scenario.json \
        --output /tmp/results.csv
"""

import argparse
import csv
import json
import math
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

from specprec.cli import main as cli_main

DEFAULT_SCENARIO = {
    "n": 500,
    "k": 5,
    "beta": 1.0,
    "density": 0.2,  # K * ceil(density * N) disjoint supports must fit in N
    "t_train": 19,  # ceil(3 ln 500)
    "t_val": 19,
    # 20 log-spaced points over 1e-7..1e-2: the Riccati optimum sits near
    # (beta/N)^2 = 4e-6, below ScenarioConfig's default grid of 1e-3..10
    "rho_grid": np.logspace(-7, -2, 20).tolist(),
    "repetitions": 20,
    "root_seed": 0,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", type=Path, default=None,
                        help="scenario JSON (default: built-in N=500 study)")
    parser.add_argument("--output", type=Path, required=True,
                        help="raw per-repetition results CSV")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = args.scenario
        if scenario_path is None:
            scenario_path = Path(tmp) / "scenario.json"
            scenario_path.write_text(json.dumps(DEFAULT_SCENARIO), encoding="utf-8")
        rc = cli_main(["simulate", "--scenario", str(scenario_path),
                       "--output", str(args.output)])
    if rc != 0:
        return rc

    kls = defaultdict(list)
    times = defaultdict(list)
    with open(args.output, newline="") as fh:
        for row in csv.DictReader(fh):
            kls[row["method"]].append(float(row["kl"]))
            times[row["method"]].append(float(row["runtime_ms"]))
    print(f"{'method':<12}{'mean KL':>12}{'sem KL':>12}{'mean ms':>10}")
    for method in ("riccati", "tikhonov", "isotropic"):
        vals = kls[method]
        mean = sum(vals) / len(vals)
        sem = (math.sqrt(sum((v - mean) ** 2 for v in vals)
                         / (len(vals) - 1) / len(vals)) if len(vals) > 1 else 0.0)
        print(f"{method:<12}{mean:>12.4f}{sem:>12.4f}"
              f"{sum(times[method]) / len(times[method]):>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
