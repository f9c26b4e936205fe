"""specprec: spectral inverse-covariance estimation for N >> T data."""

from .dataset import DataMatrix, center, load_csv, split, standardize, write_csv
from .errors import DataError, NumericError, SpecprecError, UsageError
from .model import (EigenBounds, LowRankPrecision, average_log_likelihood,
                    conditional, important_edges, load_model,
                    load_model_with_rho, log_likelihood, materialize_dense,
                    partial_correlation, save_model, save_model_with_rho,
                    screen_unimportant)
from .sparsify import (SparsifyReport, expected_offdiag_density,
                       hard_threshold_basis, kl_degradation_bound,
                       measure_density, soft_threshold_basis, sparsify_model)
from .spectral import (RegularizationPath, SpectralBasis, eigen_bounds, fit_path,
                       isotropic_fit, riccati_fit, select_rho_by_validation,
                       solution_path, thin_svd, tikhonov_fit)
from .spiked import (FactoredCovariance, SpikedModel, concentration_gamma,
                     gaussian_kl, kl_excess_bound, random_spiked,
                     recommend_rho, sample, true_covariance, true_precision,
                     true_precision_frob)

__version__ = "0.1.0"
