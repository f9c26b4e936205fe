"""Factored precision matrices Omega = A diag(d) A^T + c I.

Every estimator in the package produces this representation, and every
model-usage operation (likelihood, conditionals, partial correlations,
screening) runs on it in O(N r) or O(N r^2) without materializing an
N x N matrix.  The basis may be a dense ndarray or a scipy sparse matrix.
SciPy is imported only where a sparse basis is built or read.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, NumericError, UsageError

__all__ = [
    "EigenBounds",
    "LowRankPrecision",
    "log_likelihood",
    "average_log_likelihood",
    "conditional",
    "partial_correlation",
    "screen_unimportant",
    "important_edges",
    "materialize_dense",
    "save_model",
    "save_model_with_rho",
    "load_model",
    "load_model_with_rho",
]

DENSE_GUARD = 2000


@dataclass(frozen=True)
class EigenBounds:
    """Bracket [alpha, beta] containing every eigenvalue of a fitted model."""

    alpha: float
    beta: float

    def __post_init__(self):
        # written so that NaN fails it
        if not (0.0 < self.alpha <= self.beta < np.inf):
            raise NumericError("eigenvalue bounds require 0 < alpha <= beta < inf",
                               alpha=self.alpha, beta=self.beta)


def _is_sparse(a) -> bool:
    """Whether A is a scipy sparse matrix, without importing scipy: no such
    object can exist before ``scipy.sparse`` has been imported."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(a)


_ROW_BLOCK = 4096


def _row_blocks(a):
    """(lo, hi, rows lo:hi of A as a dense float64 array) per ``_ROW_BLOCK`` rows.

    A dense A yields views.  A sparse A is read as CSR, and each block's
    stored entries are added into zeros in one reused buffer, in storage
    order and duplicates included, as ``toarray`` adds them; so every block
    equals its dense copy's rows bit for bit, stored -0 included, and no row
    slice of the CSR is copied.  A block is valid until the next is drawn.
    """
    sparse = _is_sparse(a)
    a = a.tocsr() if sparse else np.asarray(a, dtype=np.float64)
    n, r = a.shape
    buf = np.empty((min(n, _ROW_BLOCK), r)) if sparse else None
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(n, lo + _ROW_BLOCK)
        block = buf[:hi - lo] if sparse else a[lo:hi]
        if sparse:
            block.fill(0.0)
            start, stop = a.indptr[lo], a.indptr[hi]
            rows = np.repeat(np.arange(hi - lo), np.diff(a.indptr[lo:hi + 1]))
            np.add.at(block.reshape(-1), rows * r + a.indices[start:stop], a.data[start:stop])
        yield lo, hi, block


def _dense(a) -> np.ndarray:
    """A basis, usually a few of its rows, as a dense float64 array."""
    return np.asarray(a.toarray() if _is_sparse(a) else a, dtype=np.float64)


def _gram(a) -> np.ndarray:
    """A^T A as a dense r x r array, summed over ``_row_blocks`` with dense
    BLAS, so no N x r temporary is built and a sparse A gives bit for bit
    what its dense copy gives."""
    g = np.zeros((a.shape[1],) * 2)
    for _, _, block in _row_blocks(a):
        g += block.T @ block
    return g


def _require_orthonormal(a, tol: float, what: str, gram=None) -> None:
    """Prove A^T A = I to ``tol``; a NaN deviation fails it.

    ``gram`` is A^T A when the caller has just summed it from the stored A,
    which saves the O(N r^2) pass that computes it here otherwise.
    """
    g = _gram(a) if gram is None else gram
    dev = float(np.abs(g - np.eye(a.shape[1])).max(initial=0.0))
    if not dev <= tol:
        raise NumericError(f"{what} is not orthonormal", deviation=dev, tol=tol)


def _spectrum_logdet(n: int, diag_d, c):
    """log det(U diag(d) U^T + c I) for an N x r orthonormal U, in O(r).

    Refuses the matrix unless c and every d_t + c lie in (0, inf), a test NaN
    fails; then log det = sum_t log(d_t + c) + (N - r) log c.  An (M, r)
    ``diag_d`` with an (M,) ``c`` scores a whole path at once.
    """
    c = np.asarray(c, dtype=np.float64)
    eig = np.asarray(diag_d) + c[..., None]
    if not (np.all((0.0 < c) & (c < np.inf)) and np.all((0.0 < eig) & (eig < np.inf))):
        raise NumericError("spectrum is not finite and positive")
    return np.log(eig).sum(axis=-1) + (n - eig.shape[-1]) * np.log(c)


def _low_rank_top_eigval(a, diag_d: np.ndarray, gram=None) -> float:
    """Largest eigenvalue mu of A diag(-min(d, 0)) A^T, from the spectrum of
    the r x r matrix B^T B with B = A sqrt(-min(d, 0)), in O(N r^2).

    A non-finite Gram gives NaN, since ``eigvalsh`` can return finite values
    for it.  ``gram`` is A^T A when the caller has already summed or proven it.
    """
    if diag_d.size == 0:
        return 0.0
    root = np.sqrt(-np.minimum(diag_d, 0.0))
    g = (_gram(a) if gram is None else gram) * root[:, None] * root[None, :]
    if not np.isfinite(g).all():
        return float("nan")
    return float(np.linalg.eigvalsh(g).max())


def _column_max(x: np.ndarray) -> np.ndarray:
    """Column maxima of a C-ordered array with few columns.

    numpy reduces a narrow array over axis 0 one short row at a time, so the
    rows are first folded 64 to one as a wide array when they divide evenly.
    """
    rows, r = x.shape
    fold = 64 if rows % 64 == 0 else 1
    return x.reshape(fold, -1).max(axis=0).reshape(-1, r).max(axis=0)


@dataclass(frozen=True)
class LowRankPrecision:
    """Precision matrix A diag(d) A^T + c I with mean vector.

    Both flags follow from the model's own arrays, read once through the
    r x r Gram matrix A^T A, which the model keeps as ``gram``.
    ``orthonormal`` holds iff max |A^T A - I| <= 1e-8; an orthonormal model
    that is not then positive definite is refused.  ``pd_certified``: with mu
    the top eigenvalue of A diag(-min(d, 0)) A^T, Omega >= (c - mu) I, so the
    model is certified iff c - mu > 0.  d, c and the mean must be finite.
    """

    basis_a: object  # ndarray, or scipy sparse of any format kept as CSR, N x r
    diag_d: np.ndarray
    c: float
    mean: np.ndarray
    bounds: EigenBounds | None = None
    orthonormal: bool = field(init=False)
    pd_certified: bool = field(init=False)
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._validate(gram=None)

    def _validate(self, gram):
        """Check the fields and set the flags; ``gram`` is A^T A, or None to
        sum it here in O(N r^2)."""
        a = self.basis_a
        if _is_sparse(a):
            # queries index rows, which COO and BSR cannot; a CSR input is kept
            a = a.tocsr().astype(np.float64, copy=False)
        else:
            a = np.asarray(a, dtype=np.float64)
            if a.ndim != 2:
                raise DataError("basis must be a 2-d matrix")
        object.__setattr__(self, "basis_a", a)
        d = np.asarray(self.diag_d, dtype=np.float64).ravel()
        object.__setattr__(self, "diag_d", d)
        object.__setattr__(self, "c", float(self.c))
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        object.__setattr__(self, "mean", mean)
        n, r = self.basis_a.shape
        # r may exceed n: conditioning keeps the parent model's full-width
        # diagonal against a row-subset basis
        if n < 1:
            raise DataError("need at least one variable", n=n)
        if d.shape != (r,):
            raise DataError("diag length must match basis width", r=r, got=d.shape)
        if mean.shape != (n,):
            raise DataError("mean length must match N", n=n, got=mean.shape)
        if not (np.isfinite(self.c) and np.isfinite(d).all() and np.isfinite(mean).all()):
            raise NumericError("diagonal, c and mean must be finite")
        object.__setattr__(self, "gram", _gram(self.basis_a) if gram is None else gram)
        dev = np.abs(self.gram - np.eye(r)).max(initial=0.0)
        object.__setattr__(self, "orthonormal", bool(dev <= 1e-8))  # NaN fails it
        if self.orthonormal:
            _spectrum_logdet(n, d, self.c)
            mu = float(np.max(-d, initial=0.0))  # mu when A^T A = I
        else:
            mu = _low_rank_top_eigval(self.basis_a, d, self.gram)
        object.__setattr__(self, "pd_certified", bool(self.c - mu > 0.0))

    @property
    def n_vars(self) -> int:
        return self.basis_a.shape[0]

    @property
    def rank(self) -> int:
        return self.basis_a.shape[1]

    @cached_property
    def logdet(self) -> float:
        """log det Omega, computed once per model and shared by all likelihood
        evaluations.

        An orthonormal basis gives the eigenvalues directly, so
        log det = sum_t log(d_t + c) + (N - r) log c in O(r).  Any other
        basis goes through the matrix determinant lemma on the model's Gram
        matrix, in O(r^3).
        """
        n, r = self.basis_a.shape
        if self.orthonormal:
            return float(_spectrum_logdet(n, self.diag_d, self.c))
        if self.c <= 0.0:
            raise NumericError("log-determinant requires c > 0", c=self.c)
        m = np.eye(r) + (self.gram * self.diag_d[None, :]) / self.c
        sign, val = np.linalg.slogdet(m)
        if not (sign > 0 and np.isfinite(val)):
            raise NumericError("determinant term is not positive; model is indefinite")
        return float(val + n * np.log(self.c))

    def _require_pd(self, op: str):
        if not self.pd_certified:
            raise NumericError(f"{op} requires a positive-definiteness-certified model")


def _with_gram(cls, gram, **fields):
    """A ``LowRankPrecision`` or ``SpectralBasis`` checked like any other, but
    reading the Gram matrix of its basis from ``gram``: summed by the caller
    from the stored basis, or I for a basis proven orthonormal to 1e-10."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    obj._validate(gram)
    return obj


def _mean_quadratic_form(a, values: np.ndarray, mean, diag_d, c, scale=None):
    """mean_t z_t^T (A diag(d) A^T + c I) z_t over the columns z_t of
    Z = (X - mean) / scale, row by row (no subtraction when ``mean`` is None,
    no division when ``scale`` is None): the one scorer behind every
    likelihood, validation score and KL mean term.

    One walk over ``_row_blocks(a)`` with the aligned rows of X sums
    w2_r = mean_t (a_r^T z_t)^2 and zz = mean_t ||z_t||^2, centring and
    scaling into one block-sized buffer, so no N x T temporary is built and
    a sparse basis gives what its dense copy gives, bit for bit.  The form
    is then sum_r d_r w2_r + c zz.  An (M, r) ``diag_d`` with an (M,) ``c``
    scores a whole path; each row is summed over the last axis as a 1-D
    ``diag_d`` is, so a path entry equals its model's value bit for bit.
    """
    n, r = a.shape
    t = values.shape[1]
    w, norms, buf = np.zeros((r, t)), np.zeros(t), np.empty((min(n, _ROW_BLOCK), t))
    for lo, hi, a_blk in _row_blocks(a):
        z = values[lo:hi]
        if mean is not None:
            z = np.subtract(z, mean[lo:hi, None], out=buf[:hi - lo])
        if scale is not None:
            z = np.divide(z, scale[lo:hi, None], out=buf[:hi - lo])
        w += a_blk.T @ z
        norms += np.einsum("nt,nt->t", z, z)
    return (diag_d * (w * w).mean(axis=1)).sum(axis=-1) + c * norms.mean()


def log_likelihood(model: LowRankPrecision, x: np.ndarray) -> float:
    """log det Omega - (x - mu)^T Omega (x - mu), evaluated in O(N r)."""
    return average_log_likelihood(model, np.ravel(x)[:, None])


def average_log_likelihood(model: LowRankPrecision, samples) -> float:
    """Mean log-likelihood over sample columns (an N x T array or DataMatrix),
    log det Omega - mean_t (x_t - mu)^T Omega (x_t - mu), in O(N r T)."""
    model._require_pd("average_log_likelihood")
    values = np.asarray(getattr(samples, "values", samples), dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != model.n_vars:
        raise UsageError("samples must be an N x T matrix", n=model.n_vars,
                         got=values.shape)
    return float(model.logdet - _mean_quadratic_form(model.basis_a, values, model.mean,
                                                     model.diag_d, model.c))


def _check_partition(n: int, part1, part2):
    p1 = np.asarray(part1, dtype=np.intp)
    p2 = np.asarray(part2, dtype=np.intp)
    seen = np.zeros(n, dtype=bool)
    for p in (p1, p2):
        if p.size and (p.min() < 0 or p.max() >= n):
            raise UsageError("partition index out of range", n=n)
        if np.any(seen[p]):
            raise UsageError("partition sets overlap")
        seen[p] = True
    if not seen.all():
        raise UsageError("partition does not cover all variables")
    return p1, p2


def conditional(model: LowRankPrecision, part1, part2, x2):
    """Conditional distribution of x[part1] given x[part2] = x2.

    Returns the conditional mean and the conditional precision, which is the
    (1,1) block of the full precision and stays in factored form with a
    row-subset basis.

    The mean is mu_1 - Omega_11^{-1} Omega_12 (x2 - mu_2).  Because the
    inverse is applied to a vector in the column span of A1, it reduces to an
    r x r linear solve against diag(d) A1^T A1 + c I, costing O(|part1| r^2),
    exact for any basis since (A1 D A1^T + c I) A1 = A1 (D A1^T A1 + c I).
    A^T z with z zero on part1 reads A2^T (x2 - mu_2), so only the part1
    rows of the basis are copied.
    """
    model._require_pd("conditional")
    p1, p2 = _check_partition(model.n_vars, part1, part2)
    x2 = np.asarray(x2, dtype=np.float64).ravel()
    if x2.shape != (p2.size,):
        raise UsageError("x2 length must match part2", expected=p2.size, got=x2.shape)
    a = model.basis_a
    u1 = _dense(a[p1])
    z = np.zeros(model.n_vars)
    z[p2] = x2 - model.mean[p2]
    w = model.diag_d * (a.T @ z)
    gram = u1.T @ u1
    s = np.linalg.solve(model.diag_d[:, None] * gram + model.c * np.eye(model.rank), w)
    mu_1_given_2 = model.mean[p1] - u1 @ s
    # A1 diag(-min(d, 0)) A1^T is a principal submatrix of the parent's, so
    # the conditional of a certified model is certified
    cond = _with_gram(LowRankPrecision, gram, basis_a=u1, diag_d=model.diag_d.copy(),
                      c=model.c, mean=mu_1_given_2)
    return mu_1_given_2, cond


def partial_correlation(model: LowRankPrecision, n1: int, n2: int) -> float:
    """Signed partial correlation omega_12 / sqrt(omega_11 omega_22) in O(r)."""
    model._require_pd("partial_correlation")
    n = model.n_vars
    if not (0 <= n1 < n and 0 <= n2 < n):
        raise UsageError("variable index out of range", n=n, n1=n1, n2=n2)
    if n1 == n2:
        raise UsageError("partial correlation needs two distinct variables")
    a1, a2 = _dense(model.basis_a[[n1, n2]])
    d = model.diag_d
    off = float(np.sum(d * a1 * a2))
    d1 = float(np.sum(d * a1 * a1) + model.c)
    d2 = float(np.sum(d * a2 * a2) + model.c)
    if not (d1 > 0.0 and d2 > 0.0):  # written so that NaN fails it
        raise NumericError("non-positive diagonal precision entry")
    return off / np.sqrt(d1 * d2)


def _require_epsilon(epsilon) -> None:
    if not 0.0 < epsilon < np.inf:  # written so that NaN fails it
        raise UsageError("epsilon must be positive and finite", epsilon=epsilon)


def screen_unimportant(model: LowRankPrecision, epsilon: float):
    """Detect variables whose every partial correlation magnitude is <= epsilon.

    Computes the per-variable score
        q(n) = sum_t |d_t a_nt| * max_m |a_mt| / sqrt(r(n) * min_m r(m)),
        r(n) = sum_t d_t a_nt^2 + c,
    in O(N r) total; q(n) upper-bounds every partial correlation involving n,
    so {n : q(n) <= epsilon} is a sound unimportant set.
    """
    model._require_pd("screen_unimportant")
    _require_epsilon(epsilon)
    a = model.basis_a
    n, r = a.shape
    if r == 0:
        diag_prec = np.full(n, float(model.c))
        numer = np.zeros(n)
    else:
        # two passes over _row_blocks through one block-sized buffer, so no
        # N x r temporary is built; the first finds the column maxima that
        # the second weights |A| by
        buf = np.empty((min(n, _ROW_BLOCK), r))
        diag_prec = np.empty(n)
        col_max = np.zeros(r)
        for lo, hi, block in _row_blocks(a):
            tmp = np.abs(block, out=buf[:hi - lo])
            np.maximum(col_max, _column_max(tmp), out=col_max)
            diag_prec[lo:hi] = np.multiply(tmp, tmp, out=tmp) @ model.diag_d + model.c
        weight = np.abs(model.diag_d) * col_max
        numer = np.empty(n)
        for lo, hi, block in _row_blocks(a):
            numer[lo:hi] = np.abs(block, out=buf[:hi - lo]) @ weight
    if diag_prec.min() <= 0.0:
        raise NumericError("non-positive diagonal precision entry; model not certified")
    q = numer / np.sqrt(diag_prec * diag_prec.min())
    unimportant = np.flatnonzero(q <= epsilon)
    return unimportant, q


def important_edges(model: LowRankPrecision, epsilon: float, max_edges: int,
                    candidates=None):
    """Pairs of non-screened variables with |partial correlation| > epsilon.

    Returns (n1, n2, value) tuples with n1 < n2, sorted by descending
    magnitude and truncated to ``max_edges``.  ``candidates`` defaults to the
    complement of the screened set at the same epsilon; given candidates
    must be integer indices in [0, N), and are sorted and de-duplicated.
    """
    model._require_pd("important_edges")
    _require_epsilon(epsilon)
    if max_edges < 0:
        raise UsageError("max_edges must be nonnegative", max_edges=max_edges)
    if candidates is None:
        candidates = np.setdiff1d(np.arange(model.n_vars), screen_unimportant(model, epsilon)[0])
    else:
        candidates = np.asarray(candidates).ravel()
        if candidates.size and not np.issubdtype(candidates.dtype, np.integer):
            raise UsageError("edge candidates must be integer indices",
                             dtype=str(candidates.dtype))
        if candidates.size and (candidates.min() < 0 or candidates.max() >= model.n_vars):
            raise UsageError("edge candidate out of range", n=model.n_vars)
        candidates = np.unique(candidates).astype(np.intp)
    m = candidates.size
    if m < 2 or model.rank == 0:
        return []
    a = _dense(model.basis_a[candidates])
    block = (a * model.diag_d[None, :]) @ a.T
    diag = block.diagonal() + model.c
    denom = np.sqrt(np.outer(diag, diag))
    pc = block / denom
    iu, ju = np.triu_indices(m, k=1)
    vals = pc[iu, ju]
    kept = np.flatnonzero(np.abs(vals) > epsilon)
    # a tuple only for each pair that is returned
    order = kept[np.argsort(-np.abs(vals[kept]), kind="stable")[:max_edges]]
    return [(int(candidates[iu[k]]), int(candidates[ju[k]]), float(vals[k])) for k in order]


def materialize_dense(model: LowRankPrecision) -> np.ndarray:
    """Explicit N x N matrix; test/inspection support only, refuses N > DENSE_GUARD."""
    n = model.n_vars
    if n > DENSE_GUARD:
        raise UsageError("refusing to materialize a large model", n=n, guard=DENSE_GUARD)
    a = _dense(model.basis_a)
    return (a * model.diag_d[None, :]) @ a.T + model.c * np.eye(n)


# -- JSON serialization -------------------------------------------------------

def _write_json_list(fh, arr: np.ndarray) -> None:
    """``json.dumps(arr.tolist())``, written ``_ROW_BLOCK`` rows at a time."""
    fh.write("[")
    for lo in range(0, arr.shape[0], _ROW_BLOCK):
        fh.write((", " if lo else "") + json.dumps(arr[lo:lo + _ROW_BLOCK].tolist())[1:-1])
    fh.write("]")


def save_model(model: LowRankPrecision, path, rho: float | None = None) -> None:
    """Write a model as format_version 1 JSON, with the fitting ``rho`` (the
    default threshold for sparsify) when given.

    The text is what ``json.dump`` writes for the whole document, written in
    pieces: the basis goes out ``_ROW_BLOCK`` rows (or COO entries) at a time,
    so neither the whole text nor the basis as one Python list is held.
    """
    a = model.basis_a
    head = {
        "format_version": 1,
        "n": model.n_vars,
        "r": model.rank,
        "c": model.c,
        "orthonormal": model.orthonormal,
        "mean": model.mean.tolist(),
        "diag": model.diag_d.tolist(),
    }
    tail = {}
    if model.bounds is not None:
        tail["bounds"] = {"alpha": model.bounds.alpha, "beta": model.bounds.beta}
    if rho is not None:
        tail["rho"] = float(rho)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-1] + ', "basis": ')
        if _is_sparse(a):
            coo = a.tocoo()
            for sep, key, arr in (("{", "rows", coo.row), (", ", "cols", coo.col),
                                  (", ", "vals", coo.data)):
                fh.write(f'{sep}"{key}": ')
                _write_json_list(fh, arr)
            fh.write("}")
        else:
            _write_json_list(fh, np.asarray(a))
        fh.write(", " + json.dumps(tail)[1:] if tail else "}")
        fh.write("\n")


save_model_with_rho = save_model  # the older name


def _load_basis(doc, n, r):
    basis = doc["basis"]
    if isinstance(basis, dict):
        for key in ("rows", "cols", "vals"):
            if key not in basis:
                raise DataError("sparse basis missing key", key=key)
        rows = np.asarray(basis["rows"], dtype=np.intp)
        cols = np.asarray(basis["cols"], dtype=np.intp)
        vals = np.asarray(basis["vals"], dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise DataError("sparse basis arrays must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= r):
            raise DataError("sparse basis index out of range")
        import scipy.sparse as sp
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, r))
    arr = np.asarray(basis, dtype=np.float64)
    if arr.size == 0:
        arr = arr.reshape(n, 0)
    if arr.shape != (n, r):
        raise DataError("basis shape mismatch", expected=(n, r), got=arr.shape)
    return arr


def load_model(path) -> LowRankPrecision:
    """Load and validate a model JSON file; invariant failures raise DataError."""
    return load_model_with_rho(path)[0]


def _read_json(path, what: str):
    """A parsed JSON file; text that does not parse is a DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"{what} is not valid JSON", detail=str(exc)) from None


def load_model_with_rho(path):
    """Load a model and its stored fitting rho (None when absent)."""
    doc = _read_json(path, "model file")
    if not isinstance(doc, dict) or doc.get("format_version") != 1:
        raise DataError("unsupported model format", got=doc.get("format_version")
                        if isinstance(doc, dict) else type(doc).__name__)
    try:
        n = int(doc["n"])
        r = int(doc["r"])
        c = float(doc["c"])
        claims_orthonormal = bool(doc["orthonormal"])
        mean = np.asarray(doc["mean"], dtype=np.float64)
        diag = np.asarray(doc["diag"], dtype=np.float64)
        rho = float(doc["rho"]) if doc.get("rho") is not None else None
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError("model schema violation", detail=str(exc)) from None
    if mean.shape != (n,):
        raise DataError("mean length mismatch", expected=n, got=mean.shape)
    if diag.shape != (r,):
        raise DataError("diag length mismatch", expected=r, got=diag.shape)
    basis = _load_basis(doc, n, r)
    bounds = None
    if "bounds" in doc:
        try:
            bounds = EigenBounds(float(doc["bounds"]["alpha"]),
                                 float(doc["bounds"]["beta"]))
        except (KeyError, TypeError, ValueError, NumericError) as exc:
            raise DataError("invalid bounds in model file", detail=str(exc)) from None
    try:
        # the constructor decides both flags from the model's own arrays,
        # never from the stored ones, and refuses non-finite d, c and mean
        model = LowRankPrecision(basis_a=basis, diag_d=diag, c=c, mean=mean, bounds=bounds)
    except NumericError as exc:
        raise DataError("model file violates invariants", detail=exc.message) from None
    if claims_orthonormal and not model.orthonormal:
        raise DataError("model file violates invariants", detail="model basis is not orthonormal")
    return model, rho
