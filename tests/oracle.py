"""Dense small-N reference implementations.

Every closed-form spectral operation in the package is cross-checked against
these routines in the test suite.  They are deliberately straightforward
(full eigendecompositions, explicit inverses) and are never used on the
large-N fast path.
"""

from __future__ import annotations

import numpy as np

from specprec.errors import NumericError, UsageError

__all__ = [
    "dense_riccati",
    "dense_tikhonov",
    "dense_loglik",
    "dense_conditional",
    "dense_kl",
    "kkt_residual",
]

_DENSE_LIMIT = 2000


def _check_sym_psd(cov: np.ndarray, require_pd: bool = False) -> np.ndarray:
    cov = np.asarray(cov, dtype=np.float64)
    n = cov.shape[0]
    if cov.shape != (n, n):
        raise UsageError("matrix must be square", shape=cov.shape)
    if n > _DENSE_LIMIT:
        raise UsageError("dense oracle limited to small N", n=n)
    if np.abs(cov - cov.T).max() > 1e-12 * max(1.0, np.abs(cov).max()):
        raise NumericError("matrix is not symmetric")
    w = np.linalg.eigvalsh(cov)
    floor = -1e-10 * max(1.0, abs(w[-1]))
    if (require_pd and w[0] <= 0) or w[0] < floor:
        raise NumericError("matrix is not positive (semi)definite",
                           min_eig=float(w[0]))
    return cov


def dense_riccati(cov: np.ndarray, rho: float) -> np.ndarray:
    """Solve Omega^{-1} - cov - rho Omega = 0 by mapping each eigenvalue of
    cov through the positive root of rho x^2 + lam x - 1 = 0."""
    cov = _check_sym_psd(cov)
    if rho <= 0:
        raise UsageError("rho must be positive", rho=rho)
    w, q = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    x = (-w + np.sqrt(w * w + 4.0 * rho)) / (2.0 * rho)
    return (q * x[None, :]) @ q.T


def dense_tikhonov(cov: np.ndarray, rho: float) -> np.ndarray:
    """(cov + rho I)^{-1}, symmetrized."""
    cov = _check_sym_psd(cov)
    if rho <= 0:
        raise UsageError("rho must be positive", rho=rho)
    n = cov.shape[0]
    inv = np.linalg.inv(cov + rho * np.eye(n))
    return 0.5 * (inv + inv.T)


def dense_loglik(precision: np.ndarray, mean: np.ndarray, x: np.ndarray) -> float:
    """log det Omega - (x - mu)^T Omega (x - mu) via a Cholesky factorization."""
    omega = _check_sym_psd(precision, require_pd=True)
    z = np.asarray(x, dtype=np.float64) - np.asarray(mean, dtype=np.float64)
    chol = np.linalg.cholesky(omega)
    logdet = 2.0 * np.log(np.diagonal(chol)).sum()
    return float(logdet - z @ omega @ z)


def dense_conditional(omega: np.ndarray, mean: np.ndarray, part1, part2,
                      x2: np.ndarray):
    """Gaussian conditioning from the dense precision matrix.

    Returns (mean_{1|2}, Omega_11): the conditional precision is the (1,1)
    block and the conditional mean is mu_1 - Omega_11^{-1} Omega_12 (x2 - mu_2).
    """
    omega = _check_sym_psd(omega, require_pd=True)
    mean = np.asarray(mean, dtype=np.float64)
    p1 = np.asarray(part1, dtype=np.intp)
    p2 = np.asarray(part2, dtype=np.intp)
    o11 = omega[np.ix_(p1, p1)]
    if p2.size == 0:
        return mean[p1], o11
    o12 = omega[np.ix_(p1, p2)]
    x2 = np.asarray(x2, dtype=np.float64)
    mu = mean[p1] - np.linalg.solve(o11, o12 @ (x2 - mean[p2]))
    return mu, o11


def dense_kl(cov_p: np.ndarray, mean_p: np.ndarray,
             precision_q: np.ndarray, mean_q: np.ndarray) -> float:
    """Standard Gaussian KL(P || Q) from dense covariance and precision."""
    sigma = _check_sym_psd(cov_p, require_pd=True)
    omega = _check_sym_psd(precision_q, require_pd=True)
    n = sigma.shape[0]
    diff = np.asarray(mean_p, dtype=np.float64) - np.asarray(mean_q, dtype=np.float64)
    _, logdet_sigma = np.linalg.slogdet(sigma)
    _, logdet_omega = np.linalg.slogdet(omega)
    return float(0.5 * (np.trace(omega @ sigma) - n - logdet_sigma - logdet_omega
                        + diff @ omega @ diff))


def kkt_residual(omega: np.ndarray, cov: np.ndarray, rho: float) -> float:
    """Max-norm residual of the stationarity equation Omega^{-1} - cov - rho Omega."""
    omega = np.asarray(omega, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    return float(np.abs(np.linalg.inv(omega) - cov - rho * omega).max())
