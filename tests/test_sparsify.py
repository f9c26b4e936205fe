import numpy as np
import pytest
import scipy.sparse as sp

from specprec import (EigenBounds, LowRankPrecision, NumericError, UsageError,
                      eigen_bounds, expected_offdiag_density,
                      hard_threshold_basis, kl_degradation_bound,
                      materialize_dense, measure_density, riccati_fit,
                      soft_threshold_basis, sparsify_model, thin_svd)

from specprec import model as model_mod
from specprec.model import _low_rank_top_eigval
from specprec.sparsify import _threshold

from conftest import centered_data, random_orthonormal_model, sparse_orthonormal_basis

BLOCK = model_mod._ROW_BLOCK


def test_soft_threshold_identity_at_zero(rng):
    u, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    out = soft_threshold_basis(u, 0.0)
    assert sp.issparse(out)
    np.testing.assert_array_equal(out.toarray(), u)


def test_soft_threshold_full_shrinkage(rng):
    u, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    lam = np.sqrt(5 * 2) * np.abs(u).max() + 1e-9
    assert soft_threshold_basis(u, lam).nnz == 0


def test_soft_threshold_hand_value():
    u = np.eye(4)[:, :1]  # sqrt(N r) = 2
    out = soft_threshold_basis(u, 1.0).toarray()
    np.testing.assert_allclose(out, np.array([[0.5], [0.0], [0.0], [0.0]]))


def test_hard_threshold_identity_at_zero(rng):
    u, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    np.testing.assert_array_equal(hard_threshold_basis(u, 0.0).toarray(), u)


def test_hard_threshold_boundary_inclusive():
    u = np.eye(4)[:, :1]
    # threshold = 2 / sqrt(4) = ... lam=2 -> thr = 1, entry 1.0 is kept
    out = hard_threshold_basis(u, 2.0).toarray()
    assert out[0, 0] == 1.0
    # hand value from the shared example: lam=1 -> thr = 0.5, entry kept as-is
    out = hard_threshold_basis(u, 1.0).toarray()
    assert out[0, 0] == 1.0


def test_threshold_monotone_density(rng):
    u, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    for fn in (soft_threshold_basis, hard_threshold_basis):
        last = np.inf
        for lam in [0.0, 0.2, 0.5, 1.0, 2.0, 4.0]:
            nnz = fn(u, lam).nnz
            assert nnz <= last
            last = nnz


def _riccati_model(rng, n=20, t=6, rho=0.5):
    return riccati_fit(thin_svd(centered_data(rng, n, t)), rho)


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_rescaled_proximity_proof_step_by_step(mode):
    # each step of the proximity argument in the sparsify module docstring
    # on random fits, with w = beta - alpha, P = U D U^T, Q = B D B^T for the
    # thresholded basis B and s^2 = min(1, w / mu); soft thresholding never
    # needed rescaling on such fits, so only hard mode counts rescaled ones
    rng = np.random.default_rng(606 if mode == "soft" else 607)
    tol = 1e-9
    rescaled = {True: 0, False: 0}  # by kappa >= 1
    for _ in range(300):
        n, t = int(rng.integers(4, 61)), int(rng.integers(2, 12))
        rho = float(np.exp(rng.uniform(np.log(0.02), np.log(5.0))))
        lam = float(np.exp(rng.uniform(np.log(0.02), np.log(3.0))))
        m = _riccati_model(rng, n, t, rho)
        u, d = m.basis_a, m.diag_d
        w, kappa = m.bounds.beta - m.bounds.alpha, 2 * lam + lam * lam
        b = _threshold(u, lam, mode)[0].toarray()
        p, q = (u * d) @ u.T, (b * d) @ b.T
        mu = np.linalg.norm(q, 2)
        sm, report = sparsify_model(m, lam, mode)
        s2 = min(1.0, w / mu)
        gap = np.linalg.norm(s2 * q - p, 2)
        assert np.abs(b - u).max() <= lam / np.sqrt(u.size) * (1 + tol)
        assert np.linalg.norm(b - u) <= lam * (1 + tol)
        assert np.linalg.norm(q - p, 2) <= kappa * w * (1 + tol)
        assert np.linalg.norm(p, 2) <= w * (1 + tol)
        assert s2 >= (1 - tol) / (1 + kappa)
        assert gap <= w * (1 - s2 * (1 - kappa) + tol)
        proven = kappa if kappa >= 1 or s2 == 1.0 else 2 * kappa / (1 + kappa)
        assert gap <= w * (proven + tol)
        np.testing.assert_allclose(sm.basis_a.toarray(), np.sqrt(s2) * b, rtol=1e-9)
        assert report.measured_spectral_gap == pytest.approx(gap, rel=1e-9, abs=1e-12 * w)
        rescaled[kappa >= 1] += s2 < 1.0
    assert mode == "soft" or min(rescaled.values()) >= 20, rescaled


def test_sparsify_lambda_zero_identity(rng):
    m = _riccati_model(rng)
    sm, report = sparsify_model(m, 0.0)
    np.testing.assert_allclose(materialize_dense(sm), materialize_dense(m),
                               atol=1e-14)
    assert report.measured_spectral_gap <= 1e-12
    assert sm.pd_certified
    assert sm.bounds.beta == m.bounds.beta
    assert sm.bounds.alpha == pytest.approx(m.bounds.alpha, abs=1e-12)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_sparsify_guarantees(rng, lam, mode):
    for n in (10, 20, 30):
        m = _riccati_model(rng, n=n, t=5, rho=0.4)
        sm, report = sparsify_model(m, lam, mode)
        alpha, beta = m.bounds.alpha, m.bounds.beta
        gap = np.abs(np.linalg.eigvalsh(
            materialize_dense(sm) - materialize_dense(m))).max()
        bound = (2 * lam + lam * lam) * (beta - alpha)
        assert gap <= bound + 1e-12
        w = np.linalg.eigvalsh(materialize_dense(sm))
        assert w.max() <= beta + 1e-10
        assert w.min() >= alpha - 1e-10
        assert report.measured_spectral_gap <= report.spectral_gap_bound + 1e-9


def test_hard_threshold_can_break_lower_eigen_bound():
    # hard thresholding keeps entry magnitudes, so the raw thresholded basis
    # can have spectral norm > 1 and, used as is, push the smallest
    # eigenvalue below the original lower bound; sparsify_model rescales
    # that basis back into [alpha, beta]
    rng = np.random.default_rng(6)
    m = _riccati_model(rng, n=20, t=5, rho=0.4)
    alpha, beta = m.bounds.alpha, m.bounds.beta
    bound = (2 * 1.0 + 1.0) * (beta - alpha)
    raw = hard_threshold_basis(m.basis_a, 1.0)
    assert np.linalg.norm(raw.toarray(), 2) > 1.0 + 1e-6
    raw_model = LowRankPrecision(basis_a=raw, diag_d=m.diag_d, c=beta,
                                 mean=m.mean)
    w_min = np.linalg.eigvalsh(materialize_dense(raw_model)).min()
    assert w_min < alpha - 0.1
    # on this instance the raw model is not even positive definite
    assert w_min < 0
    assert w_min >= alpha - bound - 1e-10

    sm, report = sparsify_model(m, 1.0, "hard")
    assert sm.pd_certified
    assert sm.bounds is not None and sm.bounds.beta == beta
    dense_s = materialize_dense(sm)
    w = np.linalg.eigvalsh(dense_s)
    assert w.min() >= alpha - 1e-10
    assert w.max() <= beta + 1e-10
    assert sm.bounds.alpha == pytest.approx(w.min(), abs=1e-12)
    np.testing.assert_array_equal(sm.basis_a.toarray() != 0,
                                  raw.toarray() != 0)
    gap = np.abs(np.linalg.eigvalsh(
        dense_s - materialize_dense(m))).max()
    assert gap <= bound
    assert report.measured_spectral_gap <= bound


def test_sparsify_requires_bounds(rng):
    m = _riccati_model(rng)
    stripped = LowRankPrecision(basis_a=m.basis_a, diag_d=m.diag_d, c=m.c,
                                mean=m.mean)
    with pytest.raises(UsageError):
        sparsify_model(stripped, 0.5)


def test_sparsify_rejects_positive_diag(rng):
    m = _riccati_model(rng)
    bad = LowRankPrecision(basis_a=m.basis_a, diag_d=np.abs(m.diag_d) * 0 + 1e-3,
                           c=m.c, mean=m.mean, bounds=m.bounds)
    with pytest.raises(NumericError):
        sparsify_model(bad, 0.5)


def test_sparsify_rejects_mismatched_isotropic_term(rng):
    m = _riccati_model(rng, rho=0.5)
    wrong_c = LowRankPrecision(basis_a=m.basis_a, diag_d=m.diag_d,
                               c=m.c * 2.0, mean=m.mean, bounds=m.bounds)
    with pytest.raises(UsageError):
        sparsify_model(wrong_c, 0.5)


def test_kl_degradation_bound_examples():
    assert kl_degradation_bound(1.0, 1.0, 0.0) == 0.0
    assert kl_degradation_bound(1.0, 1.0, 0.5) == 1.0
    assert kl_degradation_bound(2.0, 3.0, 2.0) == 7.0
    with pytest.raises(UsageError):
        kl_degradation_bound(0.0, 1.0, 1.0)


def test_expected_offdiag_density_examples():
    assert expected_offdiag_density(0.0, 5) == 0.0
    assert expected_offdiag_density(1.0, 5) == 1.0
    assert expected_offdiag_density(0.5, 1) == 0.25
    with pytest.raises(UsageError):
        expected_offdiag_density(1.5, 1)
    with pytest.raises(UsageError):
        expected_offdiag_density(0.5, 0)


def test_density_monte_carlo_small(rng):
    n, t, p, trials = 60, 5, 0.3, 200
    expected = expected_offdiag_density(p, t)
    densities = np.empty(trials)
    d = rng.uniform(0.5, 1.5, size=t)
    for i in range(trials):
        mask = rng.random((n, t)) < p
        a = np.where(mask, rng.standard_normal((n, t)), 0.0)
        b = (a * d[None, :]) @ a.T + 0.7 * np.eye(n)
        densities[i], _ = measure_density(b)
    se = densities.std(ddof=1) / np.sqrt(trials)
    assert abs(densities.mean() - expected) <= 3 * se + 1e-12


def test_measure_density_examples():
    offdiag, total = measure_density(2.0 * np.eye(3))
    assert offdiag == 0.0 and total == pytest.approx(1 / 3)
    offdiag, _ = measure_density(np.ones((3, 3)))
    assert offdiag == 1.0
    e1 = np.zeros((3, 3))
    e1[0, 0] = 1.0
    assert measure_density(e1)[0] == 0.0
    offdiag, total = measure_density(np.ones((4, 2)))
    assert offdiag is None and total == 1.0
    assert measure_density(sp.eye(3).tocsr())[0] == 0.0


def test_density_formula_is_expectation_not_pointwise():
    # sparse factor, dense product: one shared dense column
    n = 8
    a = np.zeros((n, 2))
    a[:, 0] = 1.0
    b = a @ a.T
    offdiag, _ = measure_density(b)
    basis_density = measure_density(a)[1]
    assert offdiag == 1.0
    assert expected_offdiag_density(basis_density, 2) < 1.0
    # sparse product, dense factor: arrow matrix with dense Cholesky
    m = np.eye(n) * n
    m[0, :] = 1.0
    m[:, 0] = 1.0
    m[0, 0] = n
    chol = np.linalg.cholesky(m)
    assert measure_density(m)[0] < 1.0
    assert measure_density(chol)[1] > measure_density(m)[1]


# -- the fused row-block threshold against the single-array one it replaced ---

def _flat_threshold(u, lam, mode):
    """Threshold the whole basis at once, then sum A^T A from the CSR."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    n, r = u.shape
    if r == 0:
        return sp.csr_matrix((n, 0)), np.zeros((0, 0))
    thr = lam / np.sqrt(n * r)
    flat = u.reshape(-1)
    kept = np.flatnonzero(np.abs(flat) > thr if mode == "soft" else np.abs(flat) >= thr)
    vals = flat[kept]
    if mode == "soft":
        vals = np.sign(vals) * (np.abs(vals) - thr)
    elif thr == 0.0:
        nonzero = vals != 0.0
        kept, vals = kept[nonzero], vals[nonzero]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept // r, minlength=n), out=indptr[1:])
    csr = sp.csr_matrix((vals, kept % r, indptr), shape=(n, r))
    return csr, model_mod._gram(csr)


def _flat_sparsify_basis(m, lam, mode):
    """sparsify_model's basis and lower bound computed the flat way."""
    u = m.basis_a.toarray() if sp.issparse(m.basis_a) else m.basis_a
    csr, _ = _flat_threshold(u, lam, mode)
    beta = m.bounds.beta
    lam_max = _low_rank_top_eigval(csr, m.diag_d)
    if lam_max > beta - m.bounds.alpha:
        scale2 = (beta - m.bounds.alpha) / lam_max
        csr.data *= np.sqrt(scale2)
        lam_max *= scale2
    return csr, beta - lam_max


def _assert_same_bytes(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.shape == want.shape


def _assert_same_threshold(u, lam, mode):
    got, gram = _threshold(u, lam, mode)
    want, want_gram = _flat_threshold(u, lam, mode)
    _assert_same_bytes(got, want)
    assert gram.dtype == want_gram.dtype and gram.tobytes() == want_gram.tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.7, 4.0])
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_fused_threshold_is_bit_identical_across_blocks(rng, lam, mode):
    n = 2 * BLOCK + 37
    u, _ = np.linalg.qr(rng.standard_normal((n, 9)))
    _assert_same_threshold(u, lam, mode)
    # the public entry points return the CSR alone
    fn = soft_threshold_basis if mode == "soft" else hard_threshold_basis
    _assert_same_bytes(fn(u, lam), _flat_threshold(u, lam, mode)[0])


def test_fused_hard_threshold_at_zero_drops_exact_zeros(rng):
    u = sparse_orthonormal_basis(rng, 2 * BLOCK + 37, 6).toarray()
    u[5, 1] = -0.0
    assert np.count_nonzero(u) < u.size
    _assert_same_threshold(u, 0.0, "hard")
    got, _ = _threshold(u, 0.0, "hard")
    assert got.nnz == np.count_nonzero(u)


def test_fused_threshold_rank_zero():
    for mode in ("soft", "hard"):
        _assert_same_threshold(np.zeros((5, 0)), 1.0, mode)


def test_threshold_rejects_nan_lambda(rng):
    with pytest.raises(UsageError):
        soft_threshold_basis(np.eye(3), float("nan"))


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_sparsify_sparse_input_basis_matches_flat(rng, mode):
    n, r = 2 * BLOCK + 37, 5
    basis = sparse_orthonormal_basis(rng, n, r)
    d = -rng.uniform(0.1, 0.9, size=r)
    m = LowRankPrecision(basis_a=basis, diag_d=d, c=1.0, mean=np.zeros(n),
                         bounds=EigenBounds(1.0 + d.min(), 1.0))
    sm, _ = sparsify_model(m, 3.0, mode)
    want, smallest = _flat_sparsify_basis(m, 3.0, mode)
    _assert_same_bytes(sm.basis_a, want)
    assert sm.bounds.alpha == smallest and sm.c == m.c


def test_sparsify_rescale_matches_flat():
    # the instance of test_hard_threshold_can_break_lower_eigen_bound, whose
    # hard-thresholded basis is rescaled
    m = _riccati_model(np.random.default_rng(6), n=20, t=5, rho=0.4)
    sm, _ = sparsify_model(m, 1.0, "hard")
    want, smallest = _flat_sparsify_basis(m, 1.0, "hard")
    assert _low_rank_top_eigval(hard_threshold_basis(m.basis_a, 1.0), m.diag_d) > (
        m.bounds.beta - m.bounds.alpha)
    _assert_same_bytes(sm.basis_a, want)
    assert sm.bounds.alpha == smallest


def test_sparsify_peak_is_below_the_basis_bytes():
    import tracemalloc

    rng = np.random.default_rng(7)
    m = random_orthonormal_model(rng, 1 << 16, 32)
    m = LowRankPrecision(basis_a=np.ascontiguousarray(m.basis_a), diag_d=m.diag_d, c=m.c,
                         mean=m.mean, bounds=m.bounds)
    tracemalloc.start()
    try:
        sm, _ = sparsify_model(m, 4.0, "soft")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.2 < sm.basis_a.nnz / m.basis_a.size < 0.8
    assert peak <= 1.0 * m.basis_a.nbytes
