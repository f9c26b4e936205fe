"""Thresholding of the orthonormal factor with spectral-norm guarantees.

Shrinking the basis entries by lambda / sqrt(N r) keeps every eigenvalue at
most beta, but keeps the smallest at least alpha only while the low-rank
part's top eigenvalue mu stays <= w = beta - alpha.  Hard thresholding keeps
entry magnitudes and can break this (soft thresholding in principle too), so
mu is computed exactly from the r x r Gram matrix, and when mu > w the
thresholded basis is scaled by s = sqrt(w / mu).  The scaling keeps the
sparsity pattern, puts the smallest eigenvalue back at alpha, and the
returned model is certified with bounds [smallest, beta].

Proximity.  With P = U D U^T and Q = B D B^T for the thresholded basis B
(s = 1 when not rescaled), the model moves by ||s^2 Q - P||_2.  Every entry
of B - U is at most lambda / sqrt(N r), so ||B - U||_2 <= lambda, and
Q - P = (B - U) D B^T + U D (B - U)^T gives ||Q - P||_2 <= kappa w with
kappa = 2 lambda + lambda^2.  As d lies in (-w, 0], ||P||_2 <= w, so
mu <= (1 + kappa) w and s^2 >= 1 / (1 + kappa).  Then
||s^2 Q - P||_2 <= s^2 ||Q - P||_2 + (1 - s^2) ||P||_2 <= w (1 - s^2 (1 - kappa)),
which is at most kappa w when kappa >= 1 (lambda >= sqrt(2) - 1), as s^2 <= 1.
A rescaled basis with kappa < 1 has only 2 kappa / (1 + kappa) w proven.
Search result, not a proof: an adversarial hill-climb over orthonormal U,
d in (-w, 0) and lambda in (0.01, 0.414), 3 seeds x 300 restarts x 300 steps
over N 2-12 and r <= 6 (80% hard mode), found no gap above kappa w; the
worst was 0.561 kappa w (N = 3, r = 2, hard, lambda = 0.127).
``SparsifyReport`` checks kappa w whenever N is small enough to measure it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import NumericError, UsageError
from .model import (_ROW_BLOCK, EigenBounds, LowRankPrecision, _low_rank_top_eigval,
                    _is_sparse, _row_blocks, _with_gram, materialize_dense)

__all__ = [
    "SparsifyReport",
    "soft_threshold_basis",
    "hard_threshold_basis",
    "sparsify_model",
    "kl_degradation_bound",
    "expected_offdiag_density",
    "measure_density",
    "save_report",
]

REPORT_DENSE_GUARD = 200


@dataclass(frozen=True)
class SparsifyReport:
    """Densities and spectral-gap accounting for one sparsification run.

    ``measured_spectral_gap`` and ``offdiag_density`` are populated only when
    N is small enough to materialize the dense matrices.
    """

    lam: float
    mode: str
    basis_density: float
    spectral_gap_bound: float
    offdiag_density: float | None = None
    measured_spectral_gap: float | None = None

    def __post_init__(self):
        if (self.measured_spectral_gap is not None
                and self.measured_spectral_gap > self.spectral_gap_bound + 1e-9):
            raise NumericError("measured spectral gap exceeds its bound",
                               measured=self.measured_spectral_gap,
                               bound=self.spectral_gap_bound)


def _threshold(u, lam: float, mode: str):
    """Threshold an N x r basis into CSR and return (csr, A^T A).

    Two passes over ``model._row_blocks``, each through one block-sized
    buffer, so no N x r temporary is built and a CSR u thresholds as its
    dense copy does.  Pass 1 counts the kept entries to size the CSR arrays.
    Pass 2 forms each thresholded block densely (soft: u - clip(u, -thr, thr),
    which is sign(u) max(|u| - thr, 0); hard: u where |u| >= thr), adds its
    block^T block to the Gram matrix while it is in cache, gathers the kept
    values and their column indices into the CSR arrays, and writes the
    block's ``indptr`` from the positions of the kept entries.
    ``model._gram`` reads the same blocks, so for a finite u the Gram matrix
    is bit for bit the one it would compute from the returned CSR.  A hard
    threshold of 0 keeps only the nonzeros, since CSR stores no zeros.
    """
    if not 0.0 <= lam < np.inf:  # written so that NaN fails it
        raise UsageError("lambda must be nonnegative and finite", lam=lam)
    if mode not in ("soft", "hard"):
        raise UsageError("mode must be 'soft' or 'hard'", mode=mode)
    import scipy.sparse as sp

    n, r = np.shape(u)
    if r == 0:
        return sp.csr_matrix((n, 0)), np.zeros((0, 0))
    thr = lam / np.sqrt(n * r)
    keep = np.greater if mode == "soft" or thr == 0.0 else np.greater_equal
    buf = np.empty((min(n, _ROW_BLOCK), r))
    mask = np.empty(buf.shape, dtype=bool)
    nnz = sum(np.count_nonzero(keep(np.abs(block, out=buf[:hi - lo]), thr, out=mask[:hi - lo]))
              for lo, hi, block in _row_blocks(u))
    # the index dtype scipy picks for these arrays
    index = np.int32 if max(n, r, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index)
    columns = np.tile(np.arange(r, dtype=index), buf.shape[0])
    row_ends = np.arange(1, buf.shape[0] + 1) * r
    gram = np.zeros((r, r))
    pos = 0
    for lo, hi, block in _row_blocks(u):
        out, kept = buf[:hi - lo], mask[:hi - lo]
        flat = np.flatnonzero(keep(np.abs(block, out=out), thr, out=kept))
        if mode == "soft":
            np.subtract(block, np.clip(block, -thr, thr, out=out), out=out)
        else:
            np.multiply(block, kept, out=out)
        gram += out.T @ out
        span = slice(pos, pos + flat.size)
        # flat holds in-range positions, so "clip" only skips the bounds check
        np.take(out.reshape(-1), flat, out=data[span], mode="clip")
        np.take(columns, flat, out=indices[span], mode="clip")
        indptr[lo + 1:hi + 1] = pos + np.searchsorted(flat, row_ends[:hi - lo])
        pos += flat.size
    return sp.csr_matrix((data, indices, indptr), shape=(n, r)), gram


def soft_threshold_basis(u, lam: float):
    """Entrywise shrinkage sign(u) max(0, |u| - lambda / sqrt(N r)), as a
    scipy CSR matrix."""
    return _threshold(u, lam, "soft")[0]


def hard_threshold_basis(u, lam: float):
    """Keep entries with |u| >= lambda / sqrt(N r) (inclusive), zero the rest;
    a scipy CSR matrix."""
    return _threshold(u, lam, "hard")[0]


def sparsify_model(model: LowRankPrecision, lam: float, mode: str = "soft"):
    """Threshold an orthonormal model's basis; eigenvalues stay in [alpha, beta].

    Requires the model in the form U diag(d) U^T + beta I with bounds present
    and -(beta - alpha) < d_t <= 0, which is what the Riccati estimator
    produces (its isotropic term 1/sqrt(rho) is exactly the upper bound).
    A thresholded basis whose top eigenvalue mu exceeds beta - alpha is
    rescaled as the module docstring says.  The returned model's bounds are
    [smallest, beta], smallest the exact smallest eigenvalue (>= alpha up to
    rounding).
    """
    if not model.orthonormal:
        raise UsageError("sparsify requires an orthonormal model")
    if model.bounds is None:
        raise UsageError("sparsify requires eigenvalue bounds on the model")
    alpha, beta = model.bounds.alpha, model.bounds.beta
    if abs(model.c - beta) > 1e-9 * max(1.0, beta):
        raise UsageError("model isotropic term must equal the upper bound beta",
                         c=model.c, beta=beta)
    d = model.diag_d
    if d.size and (d.max() > 0.0 or d.min() <= -(beta - alpha) - 1e-12):
        raise NumericError("diagonal out of the admissible range (-(beta-alpha), 0]",
                           d_min=float(d.min()) if d.size else None,
                           d_max=float(d.max()) if d.size else None)
    sparse_u, gram = _threshold(model.basis_a, lam, mode)
    n, r = sparse_u.shape
    # exact smallest eigenvalue beta - mu from the r x r Gram matrix of the
    # low-rank part, summed while thresholding; never materializes n x n
    lam_max = _low_rank_top_eigval(sparse_u, d, gram)
    if lam_max > beta - alpha:
        # scaling the basis by s scales the Gram matrix by s^2; this pulls
        # the smallest eigenvalue back up to alpha, keeps the sparsity
        # pattern and costs O(nnz)
        scale2 = (beta - alpha) / lam_max
        sparse_u.data *= np.sqrt(scale2)
        gram *= scale2
        lam_max *= scale2
    smallest = beta - lam_max
    new_bounds = EigenBounds(alpha=smallest, beta=beta) if smallest > 0.0 else None
    # the model is certified from the Gram matrix of its stored basis
    sparse_model = _with_gram(LowRankPrecision, gram, basis_a=sparse_u, diag_d=d.copy(),
                              c=beta, mean=model.mean, bounds=new_bounds)
    basis_density = sparse_u.nnz / (n * r) if r else 0.0
    bound = (2.0 * lam + lam * lam) * (beta - alpha)
    offdiag = gap = None
    if n <= REPORT_DENSE_GUARD:
        dense_new = materialize_dense(sparse_model)
        dense_old = materialize_dense(model)
        offdiag, _ = measure_density(dense_new)
        gap = float(np.abs(np.linalg.eigvalsh(dense_new - dense_old)).max())
    report = SparsifyReport(lam=float(lam), mode=mode,
                            basis_density=float(basis_density),
                            spectral_gap_bound=float(bound),
                            offdiag_density=offdiag,
                            measured_spectral_gap=gap)
    return sparse_model, report


def kl_degradation_bound(alpha: float, second_moment_spec_norm: float,
                         spectral_gap: float) -> float:
    """(1/alpha + ||E[(x-mu)(x-mu)^T]||_2) * ||Omega_sparse - Omega||_2."""
    if alpha <= 0:
        raise UsageError("alpha must be positive", alpha=alpha)
    if second_moment_spec_norm < 0 or spectral_gap < 0:
        raise UsageError("norms must be nonnegative")
    return (1.0 / alpha + second_moment_spec_norm) * spectral_gap


def expected_offdiag_density(p: float, t: int) -> float:
    """Expected off-diagonal density 1 - (1 - p^2)^t of A diag(d) A^T + c I
    when A has i.i.d. entries that are nonzero with probability p."""
    if not (0.0 <= p <= 1.0):
        raise UsageError("p must be a probability", p=p)
    if t < 1:
        raise UsageError("t must be at least 1", t=t)
    return 1.0 - (1.0 - p * p) ** t


def measure_density(mat):
    """Exact nonzero fractions: (offdiag_density, overall_density).

    For a square matrix the first entry counts nonzero off-diagonal cells;
    for a rectangular factor it is None.  Only exact zeros count as zero.
    """
    sparse = _is_sparse(mat)
    if not sparse:
        mat = np.asarray(mat)
    n, m = mat.shape
    nnz = mat.nnz if sparse else np.count_nonzero(mat)
    offdiag = None
    if n == m:
        offdiag_nnz = nnz - np.count_nonzero(mat.diagonal())
        offdiag = offdiag_nnz / (n * (n - 1)) if n > 1 else 0.0
    total = nnz / (n * m) if n * m else 0.0
    return offdiag, total


def save_report(report: SparsifyReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh)
        fh.write("\n")
