import numpy as np

from specprec import (DataMatrix, center, gaussian_kl, random_spiked, sample,
                      select_rho_by_validation, solution_path, thin_svd, true_covariance)
from specprec.experiment import ScenarioConfig, run_scenario


def test_study_rows_are_the_validated_path_entries():
    cfg = ScenarioConfig(n=60, k=2, beta=1.0, density=0.3, t_train=12, t_val=8,
                         repetitions=3, root_seed=7, rho_grid=tuple(np.logspace(-5, 1, 13)))
    rows = run_scenario(cfg)
    # the study's seeds, drawn as run_scenario draws them
    for rep, seed in enumerate(np.random.SeedSequence(cfg.root_seed).spawn(cfg.repetitions)):
        s_model, s_train, s_val = (int(s.generate_state(1)[0]) for s in seed.spawn(3))
        truth = random_spiked(cfg.n, cfg.k, cfg.beta, cfg.density, s_model)
        train = center(sample(truth, cfg.t_train, cfg.entry_dist, s_train))
        val = sample(truth, cfg.t_val, cfg.entry_dist, s_val)
        val_c = DataMatrix(values=val.values - train.mean[:, None])
        basis = thin_svd(train)
        for method in ("riccati", "tikhonov"):
            path = solution_path(basis, cfg.rho_grid, method)
            rho, _ = select_rho_by_validation(path, val_c)
            fit = path.model_at(int(np.flatnonzero(path.rhos == rho)[0]))
            kl = gaussian_kl(true_covariance(truth), fit)
            assert [row[2:4] for row in rows if row[:2] == (rep, method)] == [(rho, kl)]
