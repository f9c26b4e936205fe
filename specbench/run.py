#!/usr/bin/env python3
"""specprec benchmark: run one workload once and print its metrics.

Run from the root of a specprec checkout:

    python3 specbench/run.py --workload cli_files --seed 1 --seconds 20 --trace 0

Workloads: cli_files and library_large_n (see README.md).  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics fit_s, query_s, peak_mb and setup_s; with ``--trace 1`` it holds
the per-layer metrics and the spans go to ``.specbench/traces/``.

Every child process runs with BLAS and OpenMP pinned to one thread and the
checkout's ``src`` first on PYTHONPATH, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS, unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, so that a quick set-up still yields a steady median
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    paths = [os.path.abspath("src"), HERE]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed seconds to measure; whole rounds, at least three, are run")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--preset", default="full", choices=["full", "tiny"],
                    help="input sizes; 'tiny' is for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "specprec", "__init__.py")):
        print("specbench: src/specprec not found; run from the root of a specprec checkout",
              file=sys.stderr)
        return 2

    env = _child_env()
    work = os.path.join(".specbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_out = os.path.join(".specbench", "traces", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(work)
    if args.trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work,
              "--preset", args.preset]
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
            t0 = time.perf_counter()
            subprocess.run(worker + ["setup", *common], env=env, check=True,
                           timeout=SETUP_TIMEOUT_S)
            setup_s.append(time.perf_counter() - t0)
        proc = subprocess.run(worker + ["run", *common, "--seconds", str(args.seconds),
                                        "--trace", str(args.trace), "--trace-out", trace_out],
                              env=env, check=True, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for failure in res["failures"]:
        print(f"specbench: failed: {failure}", file=sys.stderr)

    fit_s, query_s = statistics.median(res["fit_s"]), statistics.median(res["query_s"])
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"fit_s median {fit_s:.4f} of {[round(v, 3) for v in res['fit_s']]}, "
          f"query_s median {query_s:.4f} of {[round(v, 3) for v in res['query_s']]}"
          + (f", spans in {trace_out}" if args.trace else ""))
    if args.trace:
        metrics = {m: {"value": res["layers"][m], "unit": unit(m)} for m in LAYER_METRICS}
    else:
        metrics = {
            "fit_s": {"value": fit_s, "unit": "s"},
            "query_s": {"value": query_s, "unit": "s"},
            "peak_mb": {"value": res["peak_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
