"""Synthetic spiked-covariance study: fit, validate, and score models in KL.

One scenario draws a fresh ground truth per repetition (seeds split from a
root seed), fits validated Riccati and Tikhonov models plus the isotropic
baseline on training samples, and reports the KL divergence from the
Gaussian projection of the ground truth to each learnt model.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import dataset, spectral, spiked
from .errors import UsageError

__all__ = ["ScenarioConfig", "run_scenario", "RESULT_COLUMNS"]

RESULT_COLUMNS = ("repetition", "method", "rho_selected", "kl", "runtime_ms")


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one synthetic study; maps 1:1 onto the scenario JSON."""

    n: int
    k: int
    beta: float
    density: float
    t_train: int
    t_val: int
    entry_dist: str = "gaussian"
    rho_grid: tuple[float, ...] = field(
        default_factory=lambda: tuple(np.logspace(-3, 1, 20)))
    repetitions: int = 20
    root_seed: int = 0

    @classmethod
    def from_dict(cls, doc) -> "ScenarioConfig":
        fields = dataclasses.fields(cls)
        required = [f.name for f in fields if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        _check_keys(doc, {f.name: f.type for f in fields}, required)
        doc = dict(doc)
        if "rho_grid" in doc:
            doc["rho_grid"] = tuple(float(r) for r in doc["rho_grid"])
        return cls(**doc)


# value checks per key annotation; integer keys are counts or seeds; type() refuses bool
_KINDS = {"int": lambda v: type(v) is int and v >= 0,
          "float": lambda v: type(v) in (int, float),
          "str": lambda v: type(v) is str,
          "tuple[float, ...]": lambda v: type(v) is list and all(type(x) in (int, float)
                                                                 for x in v)}


def _check_keys(doc, kinds: dict, required) -> None:
    """Refuse a scenario that is not an object or has unknown, missing or
    mistyped keys; ``kinds`` maps each key to its annotation."""
    if not isinstance(doc, dict):
        raise UsageError("scenario must be a JSON object", got=type(doc).__name__)
    for message, keys in (
            ("unknown scenario keys", sorted(set(doc) - set(kinds))),
            ("missing scenario keys", [k for k in required if k not in doc]),
            ("scenario keys of the wrong type",
             [k for k, v in doc.items() if k in kinds and not _KINDS[kinds[k]](v)])):
        if keys:
            raise UsageError(message, keys=keys)


def run_scenario(config: ScenarioConfig):
    """Run all repetitions; returns result rows matching RESULT_COLUMNS."""
    seeds = np.random.SeedSequence(config.root_seed).spawn(config.repetitions)
    rows = []
    for rep, seed in enumerate(seeds):
        s_model, s_train, s_val = (int(s.generate_state(1)[0]) for s in seed.spawn(3))
        truth = spiked.random_spiked(config.n, config.k, config.beta,
                                     config.density, s_model)
        train = spiked.sample(truth, config.t_train, config.entry_dist, s_train)
        val = spiked.sample(truth, config.t_val, config.entry_dist, s_val)
        train_c = dataset.center(train)
        basis = spectral.thin_svd(train_c)
        p_cov = spiked.true_covariance(truth)
        for method in ("riccati", "tikhonov"):
            t0 = time.perf_counter()
            path = spectral.solution_path(basis, config.rho_grid, method)
            # validation columns scored less the *training* mean
            best, _ = spectral._select_entry(path, val.values, train_c.mean)
            model = path.model_at(best)  # the validated fit is its path entry
            ms = (time.perf_counter() - t0) * 1e3
            rows.append((rep, method, float(path.rhos[best]),
                         spiked.gaussian_kl(p_cov, model), ms))
        t0 = time.perf_counter()
        iso = spectral.isotropic_fit(basis)
        ms = (time.perf_counter() - t0) * 1e3
        rows.append((rep, "isotropic", float("nan"),
                     spiked.gaussian_kl(p_cov, iso), ms))
    return rows
