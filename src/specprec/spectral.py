"""Thin SVD of the training data and the closed-form spectral estimators.

The sample covariance Sigma = (1/T) X X^T is never formed.  Its spectrum is
obtained from the thin SVD of the centered data X (cost O(N T^2), space
O(N T)); both regularized estimators then act on the covariance eigenvalues
d_t = s_t^2 / T through scalar maps, so a whole regularization path costs
O(T) per grid point after the single SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .errors import NumericError, UsageError
from .model import (_ROW_BLOCK, EigenBounds, LowRankPrecision, _mean_quadratic_form,
                    _require_orthonormal, _spectrum_logdet, _with_gram)

__all__ = [
    "SpectralBasis",
    "RegularizationPath",
    "thin_svd",
    "riccati_fit",
    "tikhonov_fit",
    "solution_path",
    "eigen_bounds",
    "select_rho_by_validation",
    "isotropic_fit",
]

# Above this aspect ratio the SVD goes through the T x T Gram matrix X^T X,
# which keeps the workspace at O(NT) even for millions of variables.
_GRAM_RATIO = 32
_GRAM_MIN_N = 1024


@dataclass(frozen=True)
class SpectralBasis:
    """Thin SVD of centered data: X ~ U diag(s) V^T with V discarded.

    ``cov_eigvals`` are the covariance eigenvalues d_t = s_t^2 / T.
    """

    basis_u: np.ndarray
    data_singvals: np.ndarray
    cov_eigvals: np.ndarray
    n_vars: int
    n_samples: int
    mean: np.ndarray

    def __post_init__(self):
        self._validate(gram=None)

    def _validate(self, gram):
        u = np.asarray(self.basis_u, dtype=np.float64)
        s = np.asarray(self.data_singvals, dtype=np.float64).ravel()
        d = np.asarray(self.cov_eigvals, dtype=np.float64).ravel()
        object.__setattr__(self, "basis_u", u)
        object.__setattr__(self, "data_singvals", s)
        object.__setattr__(self, "cov_eigvals", d)
        r = s.size
        if u.shape != (self.n_vars, r) or d.size != r:
            raise NumericError("inconsistent basis shapes", r=r, u_shape=u.shape)
        if r > min(self.n_vars, self.n_samples):
            raise NumericError("rank exceeds min(N, T)", r=r)
        # written so that NaN fails each test
        if r > 0 and not (s[0] < np.inf and np.all(np.diff(s) <= 0.0) and s[-1] > 0.0):
            raise NumericError("singular values must be finite, positive and nonincreasing")
        _require_orthonormal(u, 1e-10, "basis", gram)

    @property
    def rank(self) -> int:
        return self.data_singvals.size

    @property
    def spec_norm_cov(self) -> float:
        """||Sigma||_2 = largest covariance eigenvalue (0 for rank 0)."""
        return float(self.cov_eigvals[0]) if self.rank else 0.0


# A Gram matrix this close to I shows U orthonormal to rounding; another
# CholeskyQR round would move U by no more than that.
_ORTHO_STOP = 64 * np.finfo(float).eps


def _recover_basis(x: np.ndarray, w: np.ndarray):
    """U = X W made orthonormal by at most two CholeskyQR rounds (Fukaya et
    al., 2014), one block of rows at a time.

    Every pass writes U and adds each block's share of U^T U while the block
    is in cache.  It stops once that Gram matrix is within ``_ORTHO_STOP``
    of I, so well-conditioned data costs one pass; otherwise the next pass
    multiplies U in place by the inverse of its r x r Cholesky factor, a
    GEMM.  Returns U and the Gram matrix of the stored U, which proves U
    orthonormal, or None after the Householder QR fallback taken when a
    Gram matrix is not numerically positive definite.
    """
    n, r = x.shape[0], w.shape[1]
    u, buf = np.empty((n, r)), np.empty((min(n, _ROW_BLOCK), r))
    src = x
    for step in range(3):
        gram = np.zeros((r, r))
        for lo in range(0, n, _ROW_BLOCK):
            block = u[lo:lo + _ROW_BLOCK]
            block[...] = np.matmul(src[lo:lo + _ROW_BLOCK], w, out=buf[:block.shape[0]])
            gram += block.T @ block
        if step == 2 or np.abs(gram - np.eye(r)).max() <= _ORTHO_STOP:
            return u, gram
        try:
            w = np.linalg.inv(np.linalg.cholesky(gram)).T
        except np.linalg.LinAlgError:
            q, rr = np.linalg.qr(u)
            return q * np.sign(np.diag(rr))[None, :], None
        src = u


def thin_svd(data: DataMatrix) -> SpectralBasis:
    """Thin SVD of centered data with rank truncation.

    Singular values below max(N, T) * eps * s_max are dropped; the dropped
    directions land in the isotropic c I term of any fitted model, which is
    exactly the closed-form prescription for a zero covariance eigenvalue.
    """
    if data.mean is None:
        raise UsageError("thin_svd requires centered data (mean present)")
    x = data.values
    n, t = x.shape
    eps = np.finfo(float).eps
    u = gram = None
    if n >= max(_GRAM_RATIO * t, _GRAM_MIN_N):
        # Tall case: eigendecompose the T x T Gram matrix, then recover U and
        # re-orthonormalize it.  Never touches an N x N object.  A Gram matrix
        # that overflows, or whose rank tolerance is below the smallest normal
        # float (X zero or underflowing), cannot resolve the rank: zero X has
        # rank 0, and any other X goes to the SVD below.
        with np.errstate(over="ignore", invalid="ignore"):
            g = x.T @ x
        if np.isfinite(g).all():
            w, v = np.linalg.eigh(g)
            w = w[::-1]
            v = v[:, ::-1]
            # the Gram eigenvalues carry rounding error of about eps * w[0], so
            # the rank tolerance applies to them, not to their square roots
            tol = max(n, t) * eps * w[0]
            if tol >= np.finfo(float).tiny:
                keep = w > tol
                s = np.sqrt(w[keep])
                u, gram = _recover_basis(x, v[:, keep] / s[None, :])
            elif not np.any(x):
                u, s = np.zeros((n, 0)), np.zeros(0)
    if u is None:
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        keep = s > max(n, t) * eps * s[0]
        u = u[:, keep]
        s = s[keep]
    # s^2 / T may overflow for finite s; every fit then refuses the spectrum by
    # name (test_overflowed_covariance_spectrum_is_refused_by_name)
    with np.errstate(over="ignore"):
        d = s * s / t
    return _with_gram(SpectralBasis, gram, basis_u=u, data_singvals=s,
                      cov_eigvals=d, n_vars=n, n_samples=t, mean=data.mean)


def _riccati_diag(cov_eigvals: np.ndarray, rho: float):
    """Per-eigenvalue solution of the stationarity equation 1/x - d - rho x = 0.

    Uses the cancellation-free positive root x = 2 / (d + sqrt(d^2 + 4 rho)),
    algebraically identical to sqrt(1/rho + d^2/(4 rho^2)) - d/(2 rho).
    """
    c = 1.0 / np.sqrt(rho)
    lam = 2.0 / (cov_eigvals + np.sqrt(cov_eigvals * cov_eigvals + 4.0 * rho))
    return lam - c, c


def _tikhonov_diag(cov_eigvals: np.ndarray, rho: float):
    c = 1.0 / rho
    return -cov_eigvals / (rho * (cov_eigvals + rho)), c


_DIAG_MAPS = {"riccati": _riccati_diag, "tikhonov": _tikhonov_diag}


def _require_rho(rho) -> None:
    """Refuse a rho, or a grid of them, unless every entry has 0 < rho < inf;
    a test NaN fails."""
    r = np.asarray(rho, dtype=np.float64).ravel()
    ok = (0.0 < r) & (r < np.inf)
    if not ok.all():
        raise UsageError("rho must be positive and finite", rho=float(r[~ok][0]))


def eigen_bounds(spec_norm_cov: float, rho: float, method: str = "riccati") -> EigenBounds:
    """Bracket [alpha, beta] for all eigenvalues of the fitted model."""
    _require_rho(rho)
    s = float(spec_norm_cov)
    if s < 0:
        raise UsageError("spectral norm must be nonnegative", value=s)
    if not s < np.inf:  # written so that NaN fails it
        raise NumericError("covariance eigenvalues overflowed float64; rescale the data",
                           spec_norm_cov=s)
    if method == "riccati":
        alpha = 2.0 / (s + np.sqrt(s * s + 4.0 * rho))
        beta = 1.0 / np.sqrt(rho)
    elif method == "tikhonov":
        alpha = 1.0 / (s + rho)
        beta = 1.0 / rho
    else:
        raise UsageError("unknown method", method=method)
    return EigenBounds(alpha=float(alpha), beta=float(beta))


def riccati_fit(basis: SpectralBasis, rho: float) -> LowRankPrecision:
    """Closed-form solution of the Frobenius-penalized likelihood problem."""
    return solution_path(basis, [rho], "riccati").model_at(0)


def tikhonov_fit(basis: SpectralBasis, rho: float) -> LowRankPrecision:
    """Closed-form solution (Sigma + rho I)^{-1} in factored form."""
    return solution_path(basis, [rho], "tikhonov").model_at(0)


@dataclass(frozen=True)
class RegularizationPath:
    """Per-rho diagonals and isotropic terms over a shared spectral basis."""

    basis: SpectralBasis
    rhos: np.ndarray
    diags: np.ndarray  # (M, r)
    cs: np.ndarray  # (M,)
    method: str

    def __len__(self) -> int:
        return self.rhos.size

    def model_at(self, i: int) -> LowRankPrecision:
        """Model extraction in O(r^2); the basis, which ``SpectralBasis`` has
        proven orthonormal, is shared, not copied, and its proof reads I."""
        basis = self.basis
        return _with_gram(
            LowRankPrecision, np.eye(basis.rank), basis_a=basis.basis_u,
            diag_d=self.diags[i], c=float(self.cs[i]), mean=basis.mean,
            bounds=eigen_bounds(basis.spec_norm_cov, float(self.rhos[i]), self.method))


def solution_path(basis: SpectralBasis, rhos, method: str = "riccati") -> RegularizationPath:
    """Fit every rho in O(r) each after the one-time SVD."""
    rhos = np.asarray(rhos, dtype=np.float64).ravel()
    if rhos.size == 0:
        raise UsageError("rho grid is empty")
    _require_rho(rhos)
    # refuses a bad method or spectrum before any diagonal map runs
    eigen_bounds(basis.spec_norm_cov, float(rhos[0]), method)
    # one broadcast call; each row equals the map's scalar call bit for bit
    diags, cs = _DIAG_MAPS[method](basis.cov_eigvals, rhos[:, None])
    return RegularizationPath(basis=basis, rhos=rhos, diags=diags, cs=cs.ravel(),
                              method=method)


def _select_entry(path: RegularizationPath, values: np.ndarray, mean=None):
    """The index of the path entry with the best average held-out
    log-likelihood on the columns of ``values`` less ``mean`` (the training
    mean; None for columns already centered with it), and every entry's
    score.  Ties break toward larger rho (stronger regularization).

    The path is scored in factored form, without building a model per rho,
    by the scorer of ``average_log_likelihood``: one O(N r T_val) pass over
    the validation columns, then O(r) per grid point, whose log-determinant
    has the closed form of an orthonormal model (which also refuses an entry
    that is not positive definite).  Each score equals the held-out
    likelihood of the model at that rho bit for bit.
    """
    basis = path.basis
    if values.shape[0] != basis.n_vars:
        raise UsageError("validation data dimension mismatch",
                         expected=basis.n_vars, got=values.shape[0])
    scores = (_spectrum_logdet(basis.n_vars, path.diags, path.cs)
              - _mean_quadratic_form(basis.basis_u, values, mean, path.diags, path.cs))
    best = 0
    for i in range(1, len(path)):
        if scores[i] > scores[best] or (
                scores[i] == scores[best] and path.rhos[i] > path.rhos[best]):
            best = i
    return best, scores


def select_rho_by_validation(path: RegularizationPath, val_data: DataMatrix):
    """``_select_entry``'s rho for ``val_data`` centered with the training mean,
    and the (M, 2) table of (rho, score) rows."""
    best, scores = _select_entry(path, val_data.values)
    return float(path.rhos[best]), np.column_stack([path.rhos, scores])


def isotropic_fit(basis: SpectralBasis) -> LowRankPrecision:
    """Rank-zero isotropic MLE c = N / tr(Sigma); the independent baseline."""
    trace = float(basis.cov_eigvals.sum())
    if trace <= 0:
        raise NumericError("isotropic MLE undefined for zero data")
    return LowRankPrecision(basis_a=np.zeros((basis.n_vars, 0)),
                            diag_d=np.zeros(0), c=basis.n_vars / trace,
                            mean=basis.mean)
