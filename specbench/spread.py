#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 specbench/spread.py --workloads cli_files,library_large_n --seeds 1-10 \
        --seconds 20 --out .specbench/spread.json

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
each metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (q3 - q1) / median, beside the bound from BENCHMARK.json.  With
``--trace 1`` it summarizes the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", help="write every run's result and the summary here")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                  check=True, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res.update(workload=workload, seed=seed, wall_s=time.perf_counter() - t0,
                       rounds=lines[-2])
            results.append(res)
            runs.append(res)
            print(f"{workload} seed {seed}: {res['wall_s']:.1f} s wall, correct {res['correct']},"
                  f" failed {res['failed']}/{res['attempted']}, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()
                              if k in bounds), flush=True)
        summary[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]}
        summary[workload]["failed_share"] = sorted({r["failed"] / r["attempted"] for r in results})
        summary[workload]["wall_s"] = summarize([r["wall_s"] for r in results])
        for name, s in summary[workload].items():
            if isinstance(s, dict):
                bound = bounds.get(name)
                print(f"  {workload:16s} {name:28s} median {s['median']:.5g}  "
                      f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.4f}"
                      + (f"  (bound {bound})" if bound is not None else ""))
        print(f"  {workload:16s} failed share {summary[workload]['failed_share']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
