"""Spans around the calls into each specprec layer, recorded from outside.

``Tracer.install`` replaces every public function of the program's modules
with a wrapper that records a span (name, start, end, parent).  The program
itself is not edited: calls made through a module attribute, such as
``spectral.thin_svd(...)`` from ``cli`` or ``screen_unimportant(...)``
inside ``model``, go through the wrapper.  Spans stay in memory and are
written out once, at the end of the run.

A few functions also get a tracemalloc peak: tracing is switched on only
while they run, so the allocation-heavy JSON and CSV code elsewhere is not
slowed by it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager

MODULES = ("dataset", "spectral", "model", "sparsify", "spiked", "experiment", "cli")

PEAK_FUNCTIONS = {"dataset.center", "spectral.thin_svd",
                  "model.screen_unimportant", "model.important_edges"}
SAVE_FUNCTIONS = {"model.save_model", "model.save_model_with_rho"}

# per-layer metric -> the wrapped functions whose self time it sums
SELF_TIME = {
    "dataset.load_csv_s": ["dataset.load_csv"],
    "dataset.center_s": ["dataset.center"],
    "spectral.thin_svd_s": ["spectral.thin_svd"],
    "spectral.select_rho_s": ["spectral.select_rho_by_validation"],
    "spectral.solution_path_s": ["spectral.solution_path"],
    "spectral.fit_s": ["spectral.riccati_fit", "spectral.tikhonov_fit",
                       "spectral.isotropic_fit"],
    "model.save_s": sorted(SAVE_FUNCTIONS),
    "model.load_s": ["model.load_model", "model.load_model_with_rho"],
    "model.orthonormalize_s": ["model.orthonormalize"],
    "model.loglik_s": ["model.average_log_likelihood", "model.log_likelihood"],
    "model.screen_s": ["model.screen_unimportant"],
    "model.edges_s": ["model.important_edges"],
    "model.conditional_s": ["model.conditional"],
    "sparsify.sparsify_s": ["sparsify.sparsify_model"],
    "spiked.gaussian_kl_s": ["spiked.gaussian_kl"],
    "cli.fit_s": ["cli.cmd_fit"],
    "cli.eval_s": ["cli.cmd_eval"],
    "cli.sparsify_s": ["cli.cmd_sparsify"],
    "cli.screen_s": ["cli.cmd_screen"],
}
PEAK_MB = {
    "dataset.center_peak_mb": "dataset.center",
    "spectral.thin_svd_peak_mb": "spectral.thin_svd",
    "model.screen_peak_mb": "model.screen_unimportant",
    "model.edges_peak_mb": "model.important_edges",
}
MB = float(1 << 20)

# every per-layer metric, in report order
LAYER_METRICS = (
    "dataset.load_csv_s", "dataset.center_s", "dataset.center_peak_mb",
    "spectral.thin_svd_s", "spectral.thin_svd_peak_mb", "spectral.select_rho_s",
    "spectral.solution_path_s", "spectral.fit_s", "model.save_s", "model.file_mb",
    "model.load_s", "model.orthonormalize_s", "model.orthonormalize_calls",
    "model.loglik_s", "model.screen_s", "model.screen_peak_mb", "model.edges_s",
    "model.edges_peak_mb", "model.conditional_s", "sparsify.sparsify_s",
    "spiked.gaussian_kl_s", "experiment.rep_s", "cli.fit_s", "cli.eval_s",
    "cli.sparsify_s", "cli.screen_s", "cli.import_s",
)


def unit(metric: str) -> str:
    if metric.endswith("_calls"):
        return "count"
    return "MB" if metric.endswith("_mb") else "s"


def _public_functions(module):
    if module.__name__.endswith(".cli"):
        names = [n for n in vars(module) if n.startswith("cmd_")]
    else:
        names = list(module.__all__)
    return [n for n in names if inspect.isfunction(getattr(module, n))]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, extra]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._peaks = []  # [base, carried peak] per open peak-tracked span
        self._restore = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _start_peak(self):
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], tracemalloc.get_traced_memory()[1])
        elif not tracemalloc.is_tracing():
            tracemalloc.start()
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self._peaks.append([current, current])

    def _stop_peak(self) -> int:
        base, carried = self._peaks.pop()
        peak = max(carried, tracemalloc.get_traced_memory()[1])
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()
        return peak - base

    def _wrap(self, name, fn):
        tracked = name in PEAK_FUNCTIONS
        saves = name in SAVE_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if tracked:
                    self._start_peak()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    if tracked:
                        rec[4] = self._stop_peak()
                if saves:
                    rec[4] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
                return out
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each program module in ``package``."""
        for short in MODULES:
            module = getattr(package, short)
            for fname in _public_functions(module):
                fn = getattr(module, fname)
                self._restore.append((module, fname, fn))
                setattr(module, fname, self._wrap(f"{short}.{fname}", fn))

    def uninstall(self) -> None:
        for module, fname, fn in reversed(self._restore):
            setattr(module, fname, fn)
        self._restore.clear()

    def layer_metrics(self, first: int, last: int, repetitions: int) -> dict:
        """Per-layer figures over spans[first:last] (one round of a workload)."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        self_time, inclusive, peak, count = {}, {}, {}, {}
        saved = 0
        for k, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            self_time[name] = self_time.get(name, 0.0) + dur - child[k]
            inclusive[name] = inclusive.get(name, 0.0) + dur
            count[name] = count.get(name, 0) + 1
            if name in PEAK_FUNCTIONS:
                peak[name] = max(peak.get(name, 0), s[4])
            elif name in SAVE_FUNCTIONS:
                saved += s[4] or 0
        out = {m: sum(self_time.get(f, 0.0) for f in fns) for m, fns in SELF_TIME.items()}
        out.update({m: peak.get(f, 0) / MB for m, f in PEAK_MB.items()})
        out["model.file_mb"] = saved / MB
        out["model.orthonormalize_calls"] = count.get("model.orthonormalize", 0)
        out["experiment.rep_s"] = (inclusive.get("experiment.run_scenario", 0.0)
                                   / repetitions if repetitions else 0.0)
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span plus ``extra`` as one JSON document."""
        doc = dict(extra)
        doc["spans"] = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                        for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def median_metrics(per_round: list) -> dict:
    """Median over rounds of each per-layer figure."""
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
