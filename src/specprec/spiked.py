"""Spiked-covariance ground truth, sampling, and factored KL evaluation.

The generative model draws x = U sqrt(D) y + sqrt(beta/N) xi with isotropic
sub-Gaussian y and xi, so the population covariance is U D U^T + (beta/N) I:
a K-rank spike over a scaled identity.  Everything here stays in factored
form; no N x N matrix is built on the main path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, _adopt
from .errors import NumericError, UsageError
from .model import (_ROW_BLOCK, DENSE_GUARD, LowRankPrecision, _dense,
                    _mean_quadratic_form, _require_orthonormal, _spectrum_logdet,
                    _with_gram)
from .spectral import _tikhonov_diag, eigen_bounds

__all__ = [
    "SpikedModel",
    "FactoredCovariance",
    "random_spiked",
    "sample",
    "true_covariance",
    "true_precision",
    "true_precision_frob",
    "concentration_gamma",
    "recommend_rho",
    "kl_excess_bound",
    "gaussian_kl",
]


@dataclass(frozen=True)
class SpikedModel:
    """Ground-truth parameters (U, D, beta) of the spiked generator."""

    basis_u: np.ndarray  # N x K, orthonormal
    diag_d: np.ndarray  # K positive values
    beta: float
    seed: int

    def __post_init__(self):
        u = np.asarray(self.basis_u, dtype=np.float64)
        d = np.asarray(self.diag_d, dtype=np.float64).ravel()
        object.__setattr__(self, "basis_u", u)
        object.__setattr__(self, "diag_d", d)
        n, k = u.shape
        if k > n:
            raise UsageError("need K <= N", n=n, k=k)
        # written so that NaN fails each test
        if d.shape != (k,) or not np.all((0.0 < d) & (d < np.inf)):
            raise NumericError("diag_d must be K finite positive values")
        if not 0.0 < self.beta < np.inf:
            raise NumericError("beta must be finite and positive", beta=self.beta)
        _require_orthonormal(u, 1e-10, "spike basis")

    @property
    def n_vars(self) -> int:
        return self.basis_u.shape[0]


def random_spiked(n: int, k: int, beta: float, density: float, seed: int) -> SpikedModel:
    """Random ground truth with disjoint per-column supports.

    Each column occupies ceil(density * n) rows no other column uses, so the
    basis is sparse and exactly orthonormal at the same time; spike strengths
    are i.i.d. uniform on [0.5, 1.5].
    """
    if k < 1 or k > n:
        raise UsageError("need 1 <= k <= n", n=n, k=k)
    if not (0.0 < density <= 1.0):
        raise UsageError("density must be in (0, 1]", density=density)
    support = int(np.ceil(density * n))
    if k * support > n:
        raise UsageError("column supports cannot be disjoint",
                         k=k, support=support, n=n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    u = np.zeros((n, k))
    for j in range(k):
        rows = perm[j * support:(j + 1) * support]
        col = rng.standard_normal(support)
        u[rows, j] = col / np.linalg.norm(col)
    d = rng.uniform(0.5, 1.5, size=k)
    return SpikedModel(basis_u=u, diag_d=d, beta=float(beta), seed=seed)


def sample(model: SpikedModel, t: int, entry_dist: str = "gaussian",
           seed: int = 0) -> DataMatrix:
    """Draw t samples, O(N (K + 1)) each; not centered.

    The noise is drawn into the returned N x T array and scaled in place,
    and U sqrt(D) y is added a block at a time on the rows where U is
    nonzero.  Every draw and sum is that of U (sqrt(D) y) + sqrt(beta/N) xi.
    """
    if t < 1:
        raise UsageError("need at least one sample", t=t)
    rng = np.random.default_rng(seed)
    u = model.basis_u
    n, k = u.shape
    x = np.empty((n, t))
    if entry_dist == "gaussian":
        y = rng.standard_normal((k, t))
        rng.standard_normal(out=x)
    elif entry_dist == "rademacher":
        y = rng.integers(0, 2, size=(k, t)).astype(np.float64) * 2.0 - 1.0
        # drawn in row blocks: the integer stream is the same as one draw's
        for lo in range(0, n, _ROW_BLOCK):
            bits = rng.integers(0, 2, size=(min(_ROW_BLOCK, n - lo), t))
            x[lo:lo + _ROW_BLOCK] = bits * 2.0 - 1.0
    else:
        raise UsageError("entry_dist must be 'gaussian' or 'rademacher'",
                         entry_dist=entry_dist)
    x *= np.sqrt(model.beta / n)
    spike = np.sqrt(model.diag_d)[:, None] * y
    for rows in _spike_row_blocks(u, t):
        x[rows] += u[rows] @ spike
    return _adopt(values=x)


def _spike_row_blocks(u: np.ndarray, t: int):
    """Row blocks that cover every nonzero row of U, chosen so that each
    block's product sums every entry as U @ (sqrt(D) y) does.

    numpy hands a product with one column or one row to gemv, whose sums
    depend on the row count, and any other to gemm (or, for K = 1, forms
    each entry as one product).  So for t = 1 all N rows form one block;
    otherwise every block has at least two rows, since a single nonzero row
    means K = 1 for an orthonormal U.
    """
    if t == 1:
        return [slice(None)]
    rows = np.flatnonzero(np.any(u, axis=1))
    return np.array_split(rows, max(1, -(-rows.size // _ROW_BLOCK)))


@dataclass(frozen=True)
class FactoredCovariance:
    """Covariance U diag(d) U^T + iso * I with orthonormal U; never dense."""

    basis_u: np.ndarray
    diag_d: np.ndarray
    iso: float

    @property
    def n_vars(self) -> int:
        return self.basis_u.shape[0]

    def trace(self) -> float:
        return float(self.diag_d.sum() + self.iso * self.n_vars)

    def logdet(self) -> float:
        return float(_spectrum_logdet(self.n_vars, self.diag_d, self.iso))

    def materialize(self) -> np.ndarray:
        if self.n_vars > DENSE_GUARD:
            raise UsageError("refusing to materialize a large covariance",
                             n=self.n_vars, guard=DENSE_GUARD)
        return ((self.basis_u * self.diag_d[None, :]) @ self.basis_u.T
                + self.iso * np.eye(self.n_vars))


def true_covariance(model: SpikedModel) -> FactoredCovariance:
    """E[x x^T] = U D U^T + (beta / N) I in factored form."""
    return FactoredCovariance(basis_u=model.basis_u, diag_d=model.diag_d,
                              iso=model.beta / model.n_vars)


def true_precision(model: SpikedModel) -> LowRankPrecision:
    """Exact inverse of the spiked covariance, still factored.

    The covariance has the ridge form U D U^T + rho I with rho = beta / N, so
    its inverse is U diag(-d / (rho (d + rho))) U^T + (1 / rho) I.
    """
    n = model.n_vars
    rho = model.beta / n
    d = model.diag_d
    # the inverse of a ridge covariance is Tikhonov's map of its spectrum
    diag, c = _tikhonov_diag(d, rho)
    bounds = eigen_bounds(d.max() if d.size else 0.0, rho, "tikhonov")
    # SpikedModel has proven its basis orthonormal
    return _with_gram(LowRankPrecision, np.eye(d.size), basis_a=model.basis_u, diag_d=diag,
                      c=c, mean=np.zeros(n), bounds=bounds)


def true_precision_frob(model: SpikedModel) -> float:
    """||Omega*||_F from the K + 1 distinct eigenvalues, O(K) work."""
    n, k = model.basis_u.shape
    rho = model.beta / n
    eig = 1.0 / (model.diag_d + rho)
    return float(np.sqrt(np.sum(eig ** 2) + (n - k) / rho ** 2))


def concentration_gamma(k: int, d_frob: float, beta: float, n: int, t: int,
                        delta: float) -> float:
    """High-probability Frobenius radius of the sample covariance error.

    gamma = 40 (K sqrt(||D||_F) + sqrt(beta))^2
            * sqrt((4 ln(N + K) + 2 ln(4 / delta)) / T).
    """
    if t < 1:
        raise UsageError("need t >= 1", t=t)
    if not (0.0 < delta < 1.0):
        raise UsageError("delta must be in (0, 1)", delta=delta)
    if d_frob < 0 or beta < 0:
        raise UsageError("norms must be nonnegative")
    scale = 40.0 * (k * np.sqrt(d_frob) + np.sqrt(beta)) ** 2
    return float(scale * np.sqrt((4.0 * np.log(n + k) + 2.0 * np.log(4.0 / delta)) / t))


def recommend_rho(gamma: float) -> float:
    """Regularization strength rho = 2 gamma used by the sample-complexity bound."""
    if gamma <= 0:
        raise UsageError("gamma must be positive", gamma=gamma)
    return 2.0 * gamma


def kl_excess_bound(gamma: float, omega_frob: float) -> float:
    """gamma * (1/4 + ||Omega*||_F + ||Omega*||_F^2)."""
    if gamma <= 0:
        raise UsageError("gamma must be positive", gamma=gamma)
    if omega_frob < 0:
        raise UsageError("norm must be nonnegative")
    return gamma * (0.25 + omega_frob + omega_frob * omega_frob)


def gaussian_kl(p_cov: FactoredCovariance, q_model: LowRankPrecision,
                p_mean: np.ndarray | None = None) -> float:
    """KL(P || Q) = (tr(Omega_Q Sigma_P) - N - logdet Sigma_P - logdet Omega_Q
    + (mu_P - mu_Q)^T Omega_Q (mu_P - mu_Q)) / 2, all in factored arithmetic.

    Cost O(N (K + r)^2): only cross products between the two low-rank bases
    are formed.  A sparse basis is read as its dense copy, so it gives the
    dense copy's value bit for bit.
    """
    n = p_cov.n_vars
    if q_model.n_vars != n:
        raise UsageError("dimension mismatch", p=n, q=q_model.n_vars)
    q_model._require_pd("gaussian_kl")
    a = _dense(q_model.basis_a)
    dq = q_model.diag_d
    c = q_model.c
    up, dp, iso = p_cov.basis_u, p_cov.diag_d, p_cov.iso
    cross = a.T @ up  # r x K
    gram_diag = (a * a).sum(axis=0)
    tr = float(np.einsum("rk,r,k->", cross * cross, dq, dp)
               + iso * (dq * gram_diag).sum()
               + c * dp.sum() + c * iso * n)
    logdet_p = p_cov.logdet()
    logdet_q = q_model.logdet
    p_mu = np.zeros(n) if p_mean is None else np.asarray(p_mean, dtype=np.float64)
    mean_term = float(_mean_quadratic_form(q_model.basis_a, p_mu.reshape(n, 1),
                                           q_model.mean, dq, c))
    kl = 0.5 * (tr - n - logdet_p - logdet_q + mean_term)
    if not np.isfinite(kl):
        raise NumericError("KL divergence is not finite", kl=float(kl))
    if kl < -1e-8 * max(1.0, abs(tr)):
        raise NumericError("negative KL divergence; inputs are inconsistent",
                           kl=float(kl))
    return max(kl, 0.0)
