import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprec import (DataMatrix, NumericError, SpectralBasis, UsageError,
                      average_log_likelihood, center, eigen_bounds, fit_path,
                      isotropic_fit, materialize_dense, random_spiked,
                      riccati_fit, select_rho_by_validation, solution_path,
                      spectral, thin_svd, tikhonov_fit, true_precision)
from oracle import dense_riccati, dense_tikhonov, kkt_residual

from conftest import centered_data, sample_cov

GOLDEN_RATIO_CONJ = (np.sqrt(5.0) - 1.0) / 2.0


def test_thin_svd_zero_data():
    d = center(DataMatrix(values=np.zeros((5, 3))))
    b = thin_svd(d)
    assert b.rank == 0
    assert b.spec_norm_cov == 0.0


def test_thin_svd_rank_one():
    x = np.array([3.0, 0.0, 4.0, 0.0])
    data = DataMatrix(values=np.column_stack([x, -x]), mean=np.zeros(4))
    b = thin_svd(data)
    assert b.rank == 1
    np.testing.assert_allclose(b.data_singvals, [np.sqrt(2.0) * 5.0])
    np.testing.assert_allclose(b.cov_eigvals, [25.0])
    np.testing.assert_allclose(np.abs(b.basis_u[:, 0]), np.abs(x) / 5.0, atol=1e-14)


def test_thin_svd_reconstruction(rng):
    d = centered_data(rng, 8, 4)
    b = thin_svd(d)
    x = d.values
    # U spans the column space, so the projector residual checks reconstruction
    resid = np.linalg.norm(x - b.basis_u @ (b.basis_u.T @ x))
    assert resid <= 1e-10 * np.linalg.norm(x)
    r = b.rank
    assert np.abs(b.basis_u.T @ b.basis_u - np.eye(r)).max() <= 1e-12
    cov = sample_cov(d)
    np.testing.assert_allclose(
        (b.basis_u * b.cov_eigvals) @ b.basis_u.T, cov, atol=1e-12)


def test_thin_svd_requires_centered(rng):
    with pytest.raises(UsageError):
        thin_svd(DataMatrix(values=rng.standard_normal((4, 3))))


def test_thin_svd_gram_path_matches_direct(rng):
    # tall data goes through the T x T Gram matrix; check against the
    # dense covariance spectrum
    d = centered_data(rng, 2048, 8)
    b = thin_svd(d)
    cov = sample_cov(d)
    w = np.sort(np.linalg.eigvalsh(cov))[::-1][:b.rank]
    np.testing.assert_allclose(np.sort(b.cov_eigvals)[::-1], w,
                               rtol=1e-9, atol=1e-12)
    assert np.abs(b.basis_u.T @ b.basis_u - np.eye(b.rank)).max() <= 1e-10


def test_thin_svd_gram_path_drops_null_direction(rng):
    # centring leaves T columns of rank at most T - 1; the Gram path must not
    # keep the rounding-noise direction that remains
    for _ in range(5):
        x = (rng.uniform(2.0, 12.0, (4096, 1))
             + rng.lognormal(0.0, 1.0, (4096, 1)) * rng.standard_normal((4096, 48)))
        assert thin_svd(center(DataMatrix(values=x))).rank <= 47


def test_thin_svd_rank_tolerance_of_each_path(rng, monkeypatch):
    # singular values [1, 1e-7]: the Gram path's tolerance on s^2 drops s
    # below sqrt(4096 eps) = 9.5e-7, LAPACK's drops s below 4096 eps = 9.1e-13
    n, t = 4096, 5
    u, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    q, _ = np.linalg.qr(np.column_stack([np.ones(t), rng.standard_normal((t, 2))]))
    x = u @ np.diag([1.0, 1e-7]) @ q[:, 1:].T  # rows orthogonal to ones: centred
    d = center(DataMatrix(values=x))
    assert thin_svd(d).rank == 1
    monkeypatch.setattr(spectral, "_GRAM_MIN_N", 10**9)
    lapack = thin_svd(d)
    assert lapack.rank == 2
    np.testing.assert_allclose(lapack.data_singvals, [1.0, 1e-7], rtol=1e-6)


@pytest.mark.parametrize("n", [4096, 9001])
def test_thin_svd_gram_path_matches_svd_over_row_blocks(rng, n):
    # U is recovered and re-orthonormalized one block of rows at a time,
    # including a short last block
    d = centered_data(rng, n, 12)
    b = thin_svd(d)
    s = np.linalg.svd(d.values, compute_uv=False)[:b.rank]
    np.testing.assert_allclose(b.data_singvals, s, rtol=1e-10)
    x = d.values
    resid = np.linalg.norm(x - b.basis_u @ (b.basis_u.T @ x))
    assert resid <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("scale", [0.0, 1e-170, 1e160])
def test_thin_svd_gram_path_zero_underflow_and_overflow(rng, monkeypatch, scale):
    # at N = 4096 the Gram matrix of this data is zero or infinite; the result
    # must be the SVD path's, whose rank is 0 for zero data and T - 1 else
    x = rng.standard_normal((4096, 4))
    x -= x.mean(axis=1, keepdims=True)
    d = DataMatrix(values=x * scale, mean=np.zeros(4096))
    b = thin_svd(d)
    monkeypatch.setattr(spectral, "_GRAM_MIN_N", 10**9)
    expected = thin_svd(d)
    assert b.rank == expected.rank == (0 if scale == 0.0 else 3)
    np.testing.assert_allclose(b.basis_u.T @ b.basis_u, np.eye(b.rank), atol=1e-10)
    np.testing.assert_array_equal(b.data_singvals, expected.data_singvals)


def test_overflowed_covariance_spectrum_is_refused_by_name(rng):
    # the singular values of this data are finite, but s^2 / T overflows
    x = rng.standard_normal((4096, 4))
    x -= x.mean(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        b = thin_svd(DataMatrix(values=x * 1e160, mean=np.zeros(4096)))
    assert b.rank == 3 and b.spec_norm_cov == np.inf
    for fit in (riccati_fit, tikhonov_fit):
        with pytest.raises(NumericError, match="overflowed float64"):
            fit(b, 1.0)
    with pytest.raises(NumericError, match="overflowed float64"):
        eigen_bounds(float("nan"), 1.0)
    with pytest.raises(UsageError):
        eigen_bounds(-1.0, 1.0)


def test_thin_svd_gram_path_falls_back_to_householder(rng, monkeypatch):
    d = centered_data(rng, 5000, 10)
    expected = thin_svd(d)

    def not_positive_definite(g):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    b = thin_svd(d)
    np.testing.assert_allclose(b.basis_u, expected.basis_u, atol=1e-12)


def test_thin_svd_gram_path_ill_conditioned_reaches_cholesky(rng, monkeypatch):
    # singular values spanning 1 ... 1e-6 leave U = X V / s far enough from
    # orthonormal that CholeskyQR runs, and the Householder fallback agrees
    n, t = 4096, 9
    q, _ = np.linalg.qr(rng.standard_normal((n, t - 1)))
    v, _ = np.linalg.qr(np.column_stack([np.ones(t), rng.standard_normal((t, t - 1))]))
    x = (q * np.logspace(0, -6, t - 1)) @ v[:, 1:].T  # rows sum to zero
    d = DataMatrix(values=x, mean=np.zeros(n))
    calls = []
    cholesky = np.linalg.cholesky

    def counted(g):
        calls.append(g.shape)
        return cholesky(g)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    b = thin_svd(d)
    assert calls
    assert b.rank == t - 1
    assert np.abs(b.basis_u.T @ b.basis_u - np.eye(b.rank)).max() <= 1e-10
    u_svd = np.linalg.svd(x, full_matrices=False)[0][:, :b.rank]
    assert np.abs(u_svd - b.basis_u @ (b.basis_u.T @ u_svd)).max() <= 1e-10

    def not_positive_definite(g):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    np.testing.assert_allclose(thin_svd(d).basis_u, b.basis_u, atol=1e-12)


def test_thin_svd_well_conditioned_fast_path(rng, monkeypatch):
    # tall, well-conditioned data is orthonormal after U = X V / s: no
    # Cholesky factor is formed, and the recovery pass's Gram matrix is the
    # basis proof, so U^T U is not summed again
    import dataclasses
    import inspect

    import specprec.model

    d = centered_data(rng, 9001, 12)

    def refuse(*args):
        raise AssertionError("called on the fast path")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", refuse)
        patch.setattr(specprec.model, "_gram", refuse)
        b = thin_svd(d)
    assert np.abs(b.basis_u.T @ b.basis_u - np.eye(b.rank)).max() <= 1e-13
    x = d.values
    assert np.linalg.norm(x - b.basis_u @ (b.basis_u.T @ x)) <= 1e-10 * np.linalg.norm(x)
    with pytest.raises(NumericError):
        SpectralBasis(basis_u=b.basis_u * (1.0 + 1e-8), data_singvals=b.data_singvals,
                      cov_eigvals=b.cov_eigvals, n_vars=b.n_vars,
                      n_samples=b.n_samples, mean=b.mean)
    assert [f.name for f in dataclasses.fields(SpectralBasis)] == [
        "basis_u", "data_singvals", "cov_eigvals", "n_vars", "n_samples", "mean"]
    assert list(inspect.signature(thin_svd).parameters) == ["data"]


def _basis_from_eigvals(d):
    r = len(d)
    n = r + 2
    u = np.eye(n)[:, :r]
    s = np.sqrt(np.asarray(d, dtype=float) * 4)  # T = 4
    from specprec import SpectralBasis
    order = np.argsort(-s)
    return SpectralBasis(basis_u=u[:, order], data_singvals=s[order],
                         cov_eigvals=(s ** 2 / 4)[order], n_vars=n,
                         n_samples=4, mean=np.zeros(n))


def test_riccati_rank_zero_isotropic():
    b = _basis_from_eigvals([])
    m = riccati_fit(b, 4.0)
    assert m.rank == 0
    assert m.c == 0.5
    np.testing.assert_allclose(materialize_dense(m), 0.5 * np.eye(2))


def test_riccati_scalar_oracle():
    b = _basis_from_eigvals([1.0])
    m = riccati_fit(b, 1.0)
    lam = m.diag_d[0] + m.c
    assert abs(lam - GOLDEN_RATIO_CONJ) < 1e-12
    assert abs(m.diag_d[0] - (-0.3819660113)) < 1e-9


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6),
       st.floats(1e-3, 1e2))
@settings(max_examples=60, deadline=None)
def test_riccati_kkt_per_eigenvalue(ds, rho):
    ds = sorted(ds, reverse=True)
    from specprec.spectral import _riccati_diag
    diag, c = _riccati_diag(np.asarray(ds, dtype=float), rho)
    lam = diag + c
    d = np.asarray(ds)
    resid = np.abs(1.0 / lam - d - rho * lam)
    assert np.all(resid <= 1e-12 * (d + rho * lam + 1.0 / lam))


@given(st.floats(1e-6, 1e3), st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_riccati_stable_form_matches_naive(d, rho):
    # the naive spectral formula cancels badly for d >> rho; the stable
    # root form must agree where the naive form is still accurate
    if d / rho > 1e3:
        return
    from specprec.spectral import _riccati_diag
    diag, c = _riccati_diag(np.array([d]), rho)
    naive = np.sqrt(1.0 / rho + d * d / (4.0 * rho * rho)) - d / (2.0 * rho) - 1.0 / np.sqrt(rho)
    assert abs(diag[0] - naive) <= 1e-9 * max(abs(naive), 1.0 / np.sqrt(rho))


def test_tikhonov_examples():
    b = _basis_from_eigvals([1.0])
    m = tikhonov_fit(b, 1.0)
    assert abs(m.diag_d[0] + 0.5) < 1e-14
    assert abs((m.diag_d[0] + m.c) - 0.5) < 1e-14
    b0 = _basis_from_eigvals([])
    m0 = tikhonov_fit(b0, 2.0)
    np.testing.assert_allclose(materialize_dense(m0), 0.5 * np.eye(2))


def test_tikhonov_dense_oracle(rng):
    d = centered_data(rng, 6, 3)
    b = thin_svd(d)
    m = tikhonov_fit(b, 0.7)
    cov = sample_cov(d)
    np.testing.assert_allclose(materialize_dense(m),
                               np.linalg.inv(cov + 0.7 * np.eye(6)),
                               atol=1e-10)


def test_riccati_dense_oracle_and_kkt(rng):
    d = centered_data(rng, 7, 4)
    b = thin_svd(d)
    cov = sample_cov(d)
    for rho in (0.1, 1.0, 10.0):
        m = riccati_fit(b, rho)
        dense = materialize_dense(m)
        np.testing.assert_allclose(dense, dense_riccati(cov, rho), atol=1e-10)
        assert kkt_residual(dense, cov, rho) < 1e-10


def test_rho_must_be_positive(rng):
    b = thin_svd(centered_data(rng, 4, 3))
    for bad in (0.0, -1.0, np.nan, np.inf):
        for call in (lambda: riccati_fit(b, bad), lambda: tikhonov_fit(b, bad),
                     lambda: eigen_bounds(1.0, bad, "riccati"),
                     lambda: eigen_bounds(1.0, bad, "tikhonov"),
                     lambda: solution_path(b, [0.1, bad, 1.0]),
                     lambda: solution_path(b, [bad], "tikhonov")):
            with pytest.raises(UsageError):
                call()


def test_eigen_bounds_examples():
    eb = eigen_bounds(0.0, 4.0, "riccati")
    assert eb.alpha == eb.beta == 0.5
    eb = eigen_bounds(1.0, 1.0, "riccati")
    assert abs(eb.alpha - GOLDEN_RATIO_CONJ) < 1e-12 and eb.beta == 1.0
    eb = eigen_bounds(1.0, 1.0, "tikhonov")
    assert eb.alpha == 0.5 and eb.beta == 1.0


def test_fitted_eigenvalues_within_bounds(rng):
    for _ in range(5):
        d = centered_data(rng, 9, 5)
        b = thin_svd(d)
        for fit in (riccati_fit, tikhonov_fit):
            m = fit(b, 0.3)
            w = np.linalg.eigvalsh(materialize_dense(m))
            assert w.min() >= m.bounds.alpha - 1e-10
            assert w.max() <= m.bounds.beta + 1e-10


def test_riccati_eigenvalue_monotonicity(rng):
    b = thin_svd(centered_data(rng, 10, 6))
    m = riccati_fit(b, 0.5)
    lam = m.diag_d + m.c
    d = b.cov_eigvals
    # eigenvalue map is strictly decreasing in d, all values in (0, 1/sqrt(rho)]
    assert np.all(np.diff(lam[np.argsort(d)]) <= 0)
    assert np.all(lam > 0) and np.all(lam <= 1.0 / np.sqrt(0.5) + 1e-15)


def test_path_singleton_consistency(rng):
    b = thin_svd(centered_data(rng, 8, 4))
    path = solution_path(b, [0.37], "riccati")
    direct = riccati_fit(b, 0.37)
    entry = path.model_at(0)
    np.testing.assert_array_equal(entry.diag_d, direct.diag_d)
    assert entry.c == direct.c
    assert entry.basis_a is direct.basis_a


@pytest.mark.parametrize("method", ["riccati", "tikhonov"])
def test_path_rows_equal_direct_fits_bit_for_bit(method):
    rng = np.random.default_rng(909)
    fit = riccati_fit if method == "riccati" else tikhonov_fit
    for _ in range(200):
        r = int(rng.integers(0, 30))
        s = np.sort(10.0 ** rng.uniform(-4, 2, r))[::-1]
        b = SpectralBasis(basis_u=np.eye(r + 2)[:, :r], data_singvals=s,
                          cov_eigvals=s * s / 64, n_vars=r + 2, n_samples=64,
                          mean=np.zeros(r + 2))
        rhos = 10.0 ** rng.uniform(-6, 3, int(rng.integers(1, 40)))
        path = solution_path(b, rhos, method)
        assert path.diags.shape == (rhos.size, b.rank) and path.cs.shape == rhos.shape
        for i, rho in enumerate(rhos):
            direct = fit(b, float(rho))
            assert np.array_equal(path.diags[i].view(np.int64), direct.diag_d.view(np.int64))
            assert path.cs[i] == direct.c


def test_path_shared_basis(rng):
    b = thin_svd(centered_data(rng, 8, 4))
    path = solution_path(b, [0.1, 1.0], "tikhonov")
    assert path.model_at(0).basis_a is path.model_at(1).basis_a


def test_path_empty_grid_rejected(rng):
    b = thin_svd(centered_data(rng, 4, 3))
    with pytest.raises(UsageError):
        solution_path(b, [], "riccati")


def test_select_rho_single_entry(rng):
    d = centered_data(rng, 6, 4)
    b = thin_svd(d)
    path = solution_path(b, [0.8], "riccati")
    val = DataMatrix(values=rng.standard_normal((6, 5)))
    rho, table = select_rho_by_validation(path, val)
    assert rho == 0.8
    assert table.shape == (1, 2)


def test_select_rho_argmax(rng):
    d = centered_data(rng, 12, 6)
    b = thin_svd(d)
    path = solution_path(b, np.logspace(-2, 1, 12), "riccati")
    val = DataMatrix(values=rng.standard_normal((12, 8)))
    rho, table = select_rho_by_validation(path, val)
    best = table[np.argmax(table[:, 1]), 0]
    assert rho == best
    assert table[table[:, 0] == rho, 1][0] >= table[:, 1].max() - 1e-12


@pytest.mark.parametrize("fit", [riccati_fit, tikhonov_fit])
def test_orthonormal_logdet_matches_dense_slogdet(rng, fit):
    for n, t in ((12, 5), (60, 9), (200, 20)):
        b = thin_svd(centered_data(rng, n, t))
        for rho in (1e-3, 0.1, 2.0):
            m = fit(b, rho)
            sign, ref = np.linalg.slogdet(materialize_dense(m))
            assert sign > 0
            assert abs(m.logdet - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("method", ["riccati", "tikhonov"])
def test_select_rho_scores_equal_model_likelihoods(rng, method):
    train = center(DataMatrix(values=rng.standard_normal((150, 12))
                              + rng.uniform(-3.0, 3.0, (150, 1))))
    raw_val = rng.standard_normal((150, 7)) + train.mean[:, None]
    b = thin_svd(train)
    path = solution_path(b, np.logspace(-3, 1, 15), method)
    rho, table = select_rho_by_validation(
        path, DataMatrix(values=raw_val - train.mean[:, None]))
    expected = np.array([average_log_likelihood(path.model_at(i), raw_val)
                         for i in range(len(path))])
    np.testing.assert_array_equal(table[:, 0], path.rhos)
    np.testing.assert_array_equal(table[:, 1], expected)
    best = max(range(len(path)), key=lambda i: (expected[i], path.rhos[i]))
    assert rho == path.rhos[best]


@pytest.mark.parametrize("method", ["riccati", "tikhonov"])
@pytest.mark.parametrize("scaled", [False, True])
def test_fit_path_equals_the_public_chain(rng, method, scaled):
    # the public chain on training and held-out data put on the training
    # footing by hand gives fit_path's path, index and scores bit for bit
    from specprec.dataset import row_scale, standardize

    offsets, scales = rng.uniform(-3.0, 3.0, (150, 1)), rng.uniform(0.2, 4.0, (150, 1))
    train = center(DataMatrix(values=offsets + scales * rng.standard_normal((150, 12))))
    raw_val = offsets + scales * rng.standard_normal((150, 7))
    grid = np.logspace(-3, 1, 15)
    scale = row_scale(train)[0] if scaled else None
    path, best, scores = fit_path(train, grid, method, DataMatrix(values=raw_val), scale)

    z = raw_val - train.mean[:, None]
    if scaled:
        z /= scale[:, None]
    ref = solution_path(thin_svd(standardize(train) if scaled else train), grid, method)
    rho, table = select_rho_by_validation(ref, DataMatrix(values=z))
    for name in ("basis_u", "cov_eigvals", "mean"):
        np.testing.assert_array_equal(getattr(path.basis, name), getattr(ref.basis, name))
    np.testing.assert_array_equal(path.diags, ref.diags)
    np.testing.assert_array_equal(path.cs, ref.cs)
    np.testing.assert_array_equal(scores, table[:, 1])
    assert path.rhos[best] == rho


def test_fit_path_without_validation_takes_the_first_entry(rng):
    train = centered_data(rng, 30, 6)
    path, best, scores = fit_path(train, [0.1, 1.0, 10.0], "tikhonov")
    assert best == 0 and len(path) == 3 and np.isnan(scores).all()
    np.testing.assert_array_equal(path.diags, solution_path(thin_svd(train), [0.1, 1.0, 10.0],
                                                            "tikhonov").diags)


def test_fit_path_requires_centered_training_data(rng):
    raw = DataMatrix(values=rng.standard_normal((6, 4)))
    with pytest.raises(UsageError):
        fit_path(raw, [1.0], scale=np.ones(6))


def test_scaled_validation_scoring_makes_no_copy(rng):
    # the training mean and scale are applied one row block at a time
    import tracemalloc

    from specprec.dataset import row_scale

    n, t_val = 1 << 16, 64
    train = center(DataMatrix(values=rng.standard_normal((n, 8))))
    scale = row_scale(train)[0]
    path, _, _ = fit_path(train, np.logspace(-2, 1, 10), scale=scale)
    val = rng.standard_normal((n, t_val))
    tracemalloc.start()
    try:
        spectral._select_entry(path, val, train.mean, scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * val.nbytes


def test_fits_and_validation_reuse_the_basis_proof(rng, monkeypatch):
    # SpectralBasis and SpikedModel have proven U^T U = I; fits, path entries,
    # validation, the true precision and their log-determinants must not
    # recompute the O(N r^2) Gram matrix, and sparsify_model and conditional
    # certify from the Gram matrix they have already formed
    import specprec.model
    from specprec import conditional, sparsify_model

    b = thin_svd(centered_data(rng, 40, 8))
    val = DataMatrix(values=rng.standard_normal((40, 5)))
    truth = random_spiked(40, 3, 1.0, 0.2, seed=5)

    def no_gram(a):
        raise AssertionError("Gram matrix recomputed")

    monkeypatch.setattr(specprec.model, "_gram", no_gram)
    for fit, method in ((riccati_fit, "riccati"), (tikhonov_fit, "tikhonov")):
        m = fit(b, 0.5)
        assert m.orthonormal and m.pd_certified
        average_log_likelihood(m, val.values)
        path = solution_path(b, np.logspace(-2, 1, 5), method)
        assert np.isfinite(path.model_at(2).logdet)
        select_rho_by_validation(path, val)
        _, cond = conditional(m, np.arange(15), np.arange(15, 40), val.values[15:, 0])
        assert cond.pd_certified
    for mode in ("soft", "hard"):
        sm, _ = sparsify_model(riccati_fit(b, 0.5), 1.0, mode)
        assert sm.pd_certified
    m = true_precision(truth)
    assert m.orthonormal and m.pd_certified and np.isfinite(m.logdet)


@pytest.mark.parametrize("u, s", [([[np.nan], [0.0]], [1.0]),
                                  ([[1.0], [0.0]], [np.nan])])
def test_spectral_basis_refuses_non_finite(u, s):
    with pytest.raises(NumericError):
        SpectralBasis(basis_u=np.array(u), data_singvals=np.array(s),
                      cov_eigvals=np.array(s) ** 2 / 2, n_vars=2, n_samples=2,
                      mean=np.zeros(2))


def test_select_rho_dimension_mismatch(rng):
    b = thin_svd(centered_data(rng, 6, 4))
    path = solution_path(b, [1.0], "riccati")
    with pytest.raises(UsageError):
        select_rho_by_validation(path, DataMatrix(values=np.zeros((5, 3))))


def test_isotropic_fit(rng):
    d = centered_data(rng, 6, 4)
    b = thin_svd(d)
    iso = isotropic_fit(b)
    assert iso.rank == 0
    cov_trace = np.trace(sample_cov(d))
    assert abs(iso.c - 6 / cov_trace) < 1e-10


def _basis(u, s, d, n_samples):
    return SpectralBasis(basis_u=u, data_singvals=s, cov_eigvals=d, n_vars=u.shape[0],
                         n_samples=n_samples, mean=np.zeros(u.shape[0]))


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: eigen_bounds(1.0, 0.5, "lasso"), UsageError, id="unknown-method"),
    pytest.param(lambda: isotropic_fit(thin_svd(center(DataMatrix(values=np.zeros((4, 3)))))),
                 NumericError, id="isotropic-zero-data"),
    pytest.param(lambda: _basis(np.eye(3)[:, :2], [2.0], [1.0], 5), NumericError,
                 id="basis-width"),
    pytest.param(lambda: _basis(np.eye(3)[:, :2], [2.0, 1.0], [1.0], 5), NumericError,
                 id="eigval-count"),
    pytest.param(lambda: _basis(np.eye(3)[:, :2], [2.0, 1.0], [1.0, 0.5], 1), NumericError,
                 id="rank>T"),
    pytest.param(lambda: _basis(np.eye(4)[:3], [2.0] * 4, [1.0] * 4, 5), NumericError,
                 id="rank>N"),
])
def test_spectral_argument_checks(call, error):
    with pytest.raises(error):
        call()
