"""Child process of the benchmark: makes a workload's inputs (``setup``) or
runs its rounds (``run``) and prints one JSON line with what it measured.

``run.py`` starts it with BLAS pinned to one thread and ``src`` on the path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from tracing import Tracer, median_metrics
from workloads import PRESETS, WORKLOADS, Round

IMPORT_REPEATS = 3
# whole rounds run until --seconds of timed work and at least MIN_ROUNDS
# rounds, so that even the long cli_files session gives a median of three
MIN_ROUNDS = 3


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing specprec.cli."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import specprec.cli"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(cls, cfg, args) -> dict:
    tracer = None
    if args.trace:
        import specprec
        import specprec.cli
        import specprec.experiment  # noqa: F401  (install wraps every module)

        tracer = Tracer()
        tracer.install(specprec)
    workload = cls(cfg, args.seed, args.dir, tracer)
    study = getattr(workload, "study", None)
    rounds, layers = [], []
    timed = 0.0
    while True:
        rnd = Round(tracer)
        first = len(tracer.spans) if tracer else 0
        workload.timed(rnd)
        if tracer:
            layers.append(tracer.layer_metrics(first, len(tracer.spans),
                                               study.repetitions if study else 0))
        workload.check(rnd)
        rounds.append(rnd)
        timed += rnd.fit_s + rnd.query_s
        if timed >= args.seconds and len(rounds) >= MIN_ROUNDS:
            break
    failures = [f for rnd in rounds for f in rnd.failures(workload.OPS)]
    result = {
        "rounds": len(rounds),
        "fit_s": [r.fit_s for r in rounds],
        "query_s": [r.query_s for r in rounds],
        # CLI peaks are the subcommands' own; an in-process peak is read after
        # the first round, before any check has allocated anything
        "peak_mb": (statistics.median(r.peak_mb for r in rounds) if cls.RUNS_CLI
                    else rounds[0].peak_mb),
        "attempted": len(rounds) * len(workload.OPS),
        "failed": len(failures),
        "correct": not any(r.wrong for r in rounds),
        "failures": failures[:20],
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = median_metrics(layers)
        result["layers"]["cli.import_s"] = _import_seconds() if cls.RUNS_CLI else 0.0
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                     "per_round": layers, **result})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--preset", default="full", choices=["full", "tiny"])
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    cfg = PRESETS[args.workload][args.preset]
    if args.role == "setup":
        cls.setup(cfg, args.seed, args.dir)
        return 0
    print(json.dumps(run(cls, cfg, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
