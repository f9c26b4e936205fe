import functools
import json

import numpy as np
import pytest
import scipy.sparse as sp

from specprec import (DataError, DataMatrix, EigenBounds, LowRankPrecision,
                      NumericError, UsageError, average_log_likelihood,
                      conditional, important_edges, load_model,
                      load_model_with_rho, log_likelihood, materialize_dense,
                      partial_correlation, save_model, save_model_with_rho,
                      screen_unimportant)
from oracle import dense_conditional, dense_loglik

from specprec.model import _ROW_BLOCK
from specprec.sparsify import sparsify_model

from conftest import random_orthonormal_model, sparse_orthonormal_basis


def iso_model(n, c=1.0, mean=None):
    return LowRankPrecision(basis_a=np.zeros((n, 0)), diag_d=np.zeros(0),
                            c=c, mean=np.zeros(n) if mean is None else mean)


def test_loglik_standard_normal_mode():
    m = iso_model(3)
    assert log_likelihood(m, np.zeros(3)) == 0.0


def test_loglik_isotropic_formula(rng):
    m = iso_model(5, c=2.5)
    x = rng.standard_normal(5)
    expected = 5 * np.log(2.5) - 2.5 * (x @ x)
    assert abs(log_likelihood(m, x) - expected) < 1e-12


def test_loglik_dense_oracle(rng):
    for _ in range(10):
        m = random_orthonormal_model(rng, 12, 4, c=1.3,
                                     mean=rng.standard_normal(12))
        x = rng.standard_normal(12)
        got = log_likelihood(m, x)
        want = dense_loglik(materialize_dense(m), m.mean, x)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_average_loglik_matches_mean(rng):
    m = random_orthonormal_model(rng, 8, 3)
    xs = rng.standard_normal((8, 6))
    avg = average_log_likelihood(m, DataMatrix(values=xs))
    per = np.mean([log_likelihood(m, xs[:, i]) for i in range(6)])
    assert abs(avg - per) < 1e-10


def test_loglik_refuses_uncertified(rng):
    m = LowRankPrecision(basis_a=rng.standard_normal((4, 2)),
                         diag_d=np.array([-0.5, -0.2]), c=1.0,
                         mean=np.zeros(4))
    assert not m.pd_certified
    with pytest.raises(NumericError):
        log_likelihood(m, np.zeros(4))


NAN, INF = float("nan"), float("inf")
NON_FINITE = [("basis", [[NAN], [0.0]]), ("diag", [NAN]), ("c", NAN),
              ("c", INF), ("mean", [0.0, NAN])]


@pytest.mark.parametrize("key, value", NON_FINITE)
def test_orthonormal_model_refuses_non_finite_parameters(key, value):
    # every comparison with NaN is False, so a check written as "fail if
    # deviation > tol" would certify each of these models
    args = {"basis": [[1.0], [0.0]], "diag": [-0.5], "c": 1.0, "mean": [0.0, 0.0]}
    args[key] = value

    def build():
        return LowRankPrecision(basis_a=np.array(args["basis"]), diag_d=np.array(args["diag"]),
                                c=args["c"], mean=np.array(args["mean"]))

    if key == "basis":
        # a NaN Gram matrix disproves orthonormality and the certificate
        m = build()
        assert not m.orthonormal and not m.pd_certified
    else:
        with pytest.raises(NumericError):
            build()


# -- one certification rule: Omega >= (c - mu) I, mu = top eig of A diag(-min(d, 0)) A^T

def test_pd_certified_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        LowRankPrecision(basis_a=np.zeros((2, 0)), diag_d=np.zeros(0), c=1.0,
                         mean=np.zeros(2), pd_certified=True)


def test_orthonormal_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        LowRankPrecision(basis_a=np.eye(2)[:, :1], diag_d=np.array([-0.5]), c=1.0,
                         mean=np.zeros(2), orthonormal=True)


def test_orthonormal_is_decided_by_the_gram_matrix(rng):
    q, _ = np.linalg.qr(rng.standard_normal((30, 3)))
    d, mean = np.array([-0.5, -0.2, 0.3]), np.zeros(30)
    assert LowRankPrecision(basis_a=q, diag_d=d, c=1.0, mean=mean).orthonormal
    assert LowRankPrecision(basis_a=q * (1.0 + 2e-9), diag_d=d, c=1.0, mean=mean).orthonormal
    assert not LowRankPrecision(basis_a=q * (1.0 + 1e-7), diag_d=d, c=1.0,
                                mean=mean).orthonormal
    # an orthonormal model whose spectrum is not positive is refused
    with pytest.raises(NumericError):
        LowRankPrecision(basis_a=q, diag_d=np.array([-1.0, -0.2, 0.3]), c=1.0, mean=mean)


def test_conditionals_of_certified_models_are_certified(rng):
    # U1^T U1 <= I for a row subset U1 of an orthonormal U, so the rule
    # certifies the conditional of every certified model, d > 0 included
    for _ in range(200):
        n = int(rng.integers(2, 30))
        r = int(rng.integers(1, n + 1))
        q, _ = np.linalg.qr(rng.standard_normal((n, r)))
        c = rng.uniform(0.1, 3.0)
        d = c * rng.uniform(-0.99, 2.0, r)
        m = LowRankPrecision(basis_a=q, diag_d=d, c=c, mean=np.zeros(n))
        assert m.pd_certified
        perm = rng.permutation(n)
        k = int(rng.integers(1, n + 1))
        _, cond = conditional(m, perm[:k], perm[k:], rng.standard_normal(n - k))
        # a row subset is orthonormal only when it keeps every row
        assert cond.pd_certified and cond.orthonormal == (k == n)
        assert np.linalg.eigvalsh(materialize_dense(cond)).min() > 0.0


@pytest.mark.parametrize("sparse", [False, True])
def test_certificate_implies_positive_definite(rng, sparse):
    certified = refused = 0
    for _ in range(300):
        n, r = int(rng.integers(1, 61)), int(rng.integers(0, 8))
        dense = rng.standard_normal((n, r)) * rng.uniform(0.05, 1.0)
        if sparse:
            dense *= rng.random((n, r)) < 0.4
        a = sp.csr_matrix(dense) if sparse else dense
        d = rng.uniform(-1.0, 1.0, r)
        if rng.random() < 0.5:
            d = -np.abs(d)
        c = rng.uniform(0.1, 2.0)
        m = LowRankPrecision(basis_a=a, diag_d=d, c=c, mean=np.zeros(n))
        if m.pd_certified:
            certified += 1
            assert np.linalg.eigvalsh(materialize_dense(m)).min() > 0.0
        else:
            refused += 1
        if np.all(d <= 0.0):
            # the check load_model made for d <= 0 before the rule
            root = np.sqrt(-d)
            mu = (np.linalg.eigvalsh((dense.T @ dense) * np.outer(root, root)).max()
                  if r else 0.0)
            assert m.pd_certified == (c - mu > 0.0)
    assert certified > 30 and refused > 30


def test_conditional_rank_zero():
    m = iso_model(4, c=2.0)
    mu, cond = conditional(m, [0, 1], [2, 3], np.array([5.0, -1.0]))
    np.testing.assert_array_equal(mu, [0.0, 0.0])
    np.testing.assert_allclose(materialize_dense(cond), 2.0 * np.eye(2))


def test_conditional_empty_part2(rng):
    m = random_orthonormal_model(rng, 5, 2)
    mu, cond = conditional(m, np.arange(5), [], np.zeros(0))
    np.testing.assert_array_equal(mu, m.mean)
    np.testing.assert_allclose(materialize_dense(cond), materialize_dense(m),
                               atol=1e-12)


def test_conditional_dense_oracle(rng):
    for _ in range(10):
        m = random_orthonormal_model(rng, 10, 3, c=1.2,
                                     mean=rng.standard_normal(10))
        perm = rng.permutation(10)
        p1, p2 = perm[:4], perm[4:]
        x2 = rng.standard_normal(6)
        mu, cond = conditional(m, p1, p2, x2)
        dense_mu, dense_prec = dense_conditional(materialize_dense(m), m.mean,
                                                 p1, p2, x2)
        np.testing.assert_allclose(mu, dense_mu, atol=1e-9)
        np.testing.assert_allclose(materialize_dense(cond), dense_prec,
                                   atol=1e-9)


def test_conditional_rejects_bad_partition(rng):
    m = random_orthonormal_model(rng, 6, 2)
    for part1, part2 in (
        ([0, 1], [1, 2, 3, 4, 5]),        # overlap
        ([0, 1], [3, 4, 5]),              # 2 is in neither part
        ([0, 1, 1], [2, 3, 4, 5]),        # repeated inside part1
        ([0, 1], [2, 3, 3, 4, 5]),        # repeated inside part2
        ([0, 1, 5], [2, 3, 4, 5, 5]),     # repeated across and inside the parts
        ([0, 1], [2.9, 3.2, 4.0, 5.0]),   # float indices used to be truncated
        ([0, 1], np.array([2, 3, 4, 5], dtype=float)),
        ([True, False], [2, 3, 4, 5]),
    ):
        with pytest.raises(UsageError):
            conditional(m, part1, part2, np.zeros(len(part2)))


def test_conditional_takes_any_integer_sequence(rng):
    m = random_orthonormal_model(rng, 6, 2, mean=rng.standard_normal(6))
    x2 = rng.standard_normal(4)
    want, _ = conditional(m, [0, 1], [2, 3, 4, 5], x2)
    for p1, p2 in ((range(2), range(2, 6)), (np.array([0, 1], dtype=np.int32),
                                             np.array([2, 3, 4, 5], dtype=np.uint8))):
        np.testing.assert_array_equal(conditional(m, p1, p2, x2)[0], want)


def _non_orthonormal_model(d, c):
    return LowRankPrecision(basis_a=np.array([[2.0], [0.0]]), diag_d=np.array([d]), c=c,
                            mean=np.zeros(2))


@pytest.mark.parametrize("call, error", [
    (lambda m: conditional(m, [0, 6], [1, 2, 3, 4, 5], np.zeros(5)), UsageError),
    (lambda m: conditional(m, [0, -1], [1, 2, 3, 4, 5], np.zeros(5)), UsageError),
    (lambda m: conditional(m, [0, 1], [2, 3, 4, 5], np.zeros(3)), UsageError),
    (lambda m: LowRankPrecision(basis_a=np.zeros(3), diag_d=np.zeros(0), c=1.0,
                                mean=np.zeros(3)), DataError),
    (lambda m: LowRankPrecision(basis_a=np.zeros((0, 1)), diag_d=np.zeros(1), c=1.0,
                                mean=np.zeros(0)), DataError),
    (lambda m: _non_orthonormal_model(1.0, 0.0).logdet, NumericError),
    (lambda m: _non_orthonormal_model(1.0, -0.5).logdet, NumericError),
    (lambda m: _non_orthonormal_model(-1.0, 1.0).logdet, NumericError),  # det term -3
])
def test_model_input_checks(rng, call, error):
    m = random_orthonormal_model(rng, 6, 2)
    with pytest.raises(error):
        call(m)


# -- conditional and average_log_likelihood read the basis in row blocks ------

def _flat_average_loglik(m, xs):
    """The whole-matrix formula the row-block pass replaced."""
    z = xs - m.mean[:, None]
    w = m.basis_a.T @ z
    quad = np.einsum("rt,r,rt->t", w, m.diag_d, w) + m.c * (z * z).sum(axis=0)
    return float(m.logdet - quad.mean())


def _flat_conditional_mean(m, p1, p2, x2):
    """The gather-both-parts formula the N-vector product replaced."""
    a = m.basis_a.toarray() if sp.issparse(m.basis_a) else m.basis_a
    u1, u2 = a[p1], a[p2]
    w = m.diag_d * (u2.T @ (x2 - m.mean[p2]))
    s = np.linalg.solve(m.diag_d[:, None] * (u1.T @ u1) + m.c * np.eye(m.rank), w)
    return m.mean[p1] - u1 @ s


def _dense_and_csr_models(rng, n, r):
    """A dense orthonormal model, the same kind with a CSR basis, and a
    sparsified (non-orthonormal, certified) CSR model."""
    dense = random_orthonormal_model(rng, n, r, c=1.3, mean=rng.standard_normal(n))
    d = -rng.uniform(0.1, 0.9, size=r)
    csr = LowRankPrecision(basis_a=sparse_orthonormal_basis(rng, n, r), diag_d=d, c=1.0,
                           mean=rng.standard_normal(n),
                           bounds=EigenBounds(1.0 + d.min(), 1.0))
    sparsified, _ = sparsify_model(dense, 1.0, "soft")
    return dense, csr, sparsified


def test_average_loglik_dense_oracle_dense_and_csr(rng):
    for m in _dense_and_csr_models(rng, 150, 4):
        xs = m.mean[:, None] + rng.standard_normal((150, 7))
        want = np.mean([dense_loglik(materialize_dense(m), m.mean, xs[:, t])
                        for t in range(7)])
        assert abs(average_log_likelihood(m, xs) - want) <= 1e-9 * abs(want)


def test_loglik_is_the_one_column_average_dense_and_csr(rng):
    n = _ROW_BLOCK + 37
    for m in _dense_and_csr_models(rng, n, 5):
        x = m.mean + rng.standard_normal(n)
        assert log_likelihood(m, x) == average_log_likelihood(m, x[:, None])


def test_conditional_dense_oracle_csr_basis(rng):
    _, m, _ = _dense_and_csr_models(rng, 120, 4)
    perm = rng.permutation(120)
    p1, p2 = perm[:50], perm[50:]
    x2 = rng.standard_normal(70)
    mu, cond = conditional(m, p1, p2, x2)
    dense_mu, dense_prec = dense_conditional(materialize_dense(m), m.mean, p1, p2, x2)
    np.testing.assert_allclose(mu, dense_mu, atol=1e-9)
    np.testing.assert_allclose(materialize_dense(cond), dense_prec, atol=1e-9)


def test_conditional_of_sparsified_csr_model_matches_dense_oracle(rng):
    # the r x r solve is exact for any basis, so a sparsified model is
    # conditioned like an orthonormal one, and its conditional is certified
    dense, _, _ = _dense_and_csr_models(rng, 120, 4)
    perm = rng.permutation(120)
    p1, p2 = perm[:50], perm[50:]
    x2 = rng.standard_normal(70)
    for mode in ("soft", "hard"):
        m, _ = sparsify_model(dense, 1.0, mode)
        assert sp.issparse(m.basis_a) and not m.orthonormal and m.pd_certified
        mu, cond = conditional(m, p1, p2, x2)
        dense_mu, dense_prec = dense_conditional(materialize_dense(m), m.mean, p1, p2, x2)
        np.testing.assert_allclose(mu, dense_mu, atol=1e-9)
        np.testing.assert_allclose(materialize_dense(cond), dense_prec, atol=1e-9)
        assert cond.pd_certified


def test_blocked_queries_match_flat_formulas_across_blocks(rng):
    n = 2 * _ROW_BLOCK + 37
    xs = rng.standard_normal((n, 9)) + 3.0
    perm = rng.permutation(n)
    p1, p2 = np.sort(perm[:300]), perm[300:]
    for m in _dense_and_csr_models(rng, n, 6):
        want = _flat_average_loglik(m, xs)
        assert abs(average_log_likelihood(m, xs) - want) <= 1e-12 * abs(want)
        mu, _ = conditional(m, p1, p2, xs[p2, 0])
        want_mu = _flat_conditional_mean(m, p1, p2, xs[p2, 0])
        assert np.abs(mu - want_mu).max() <= 1e-12 * np.abs(want_mu).max()


def _non_canonical_csr(rng, n, r, nnz):
    """CSR with unsorted and duplicated column indices and stored zeros of
    both signs."""
    rows = np.sort(rng.integers(0, n, nnz))
    data = rng.standard_normal(nnz)
    data[::7], data[::11] = -0.0, 0.0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    a = sp.csr_matrix((data, rng.integers(0, r, nnz).astype(np.int32), indptr), shape=(n, r))
    assert not a.has_canonical_format
    return a


def test_csr_blocks_equal_sliced_toarray_across_a_short_last_block(rng):
    from specprec.model import _row_blocks

    n, r = 2 * _ROW_BLOCK + 37, 6
    spans = [(0, _ROW_BLOCK), (_ROW_BLOCK, 2 * _ROW_BLOCK), (2 * _ROW_BLOCK, n)]
    for a in (sp.random(n, r, density=0.3, format="csr", random_state=8),
              _non_canonical_csr(rng, n, r, 20000)):
        got_spans = []
        for lo, hi, got in _row_blocks(a):
            want = a[lo:hi].toarray()
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            got_spans.append((lo, hi))
        assert got_spans == spans
    dense = rng.standard_normal((n, r))
    for lo, hi, block in _row_blocks(dense):
        assert block.base is dense and np.array_equal(block, dense[lo:hi])


def test_csr_basis_gives_its_dense_copys_results_bit_for_bit(rng):
    from specprec import FactoredCovariance, gaussian_kl
    from specprec.model import _gram

    def same(x, y):
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        return x.shape == y.shape and x.tobytes() == y.tobytes()

    n, r, k = 2 * _ROW_BLOCK + 37, 6, 3
    up, _ = np.linalg.qr(rng.standard_normal((n, k)))
    p_cov = FactoredCovariance(basis_u=up, diag_d=rng.uniform(0.5, 1.5, k), iso=1.0 / n)
    p_mean = rng.standard_normal(n)
    xs = rng.standard_normal((n, 5))
    for a in (sp.random(n, r, density=0.3, format="csr", random_state=8),
              _non_canonical_csr(rng, n, r, 20000)):
        d, mean = rng.uniform(1e-3, 1e-2, r), rng.standard_normal(n)
        m_csr, m_dense = (LowRankPrecision(basis_a=b, diag_d=d, c=1.0, mean=mean)
                          for b in (a, a.toarray()))
        assert m_csr.pd_certified and m_dense.pd_certified
        assert same(_gram(a), _gram(a.toarray()))
        (s_csr, q_csr), (s_dense, q_dense) = (screen_unimportant(m, 0.01)
                                              for m in (m_csr, m_dense))
        assert same(q_csr, q_dense) and np.array_equal(s_csr, s_dense)
        assert same(average_log_likelihood(m_csr, xs), average_log_likelihood(m_dense, xs))
        eps = float(np.sort(q_dense)[-150])
        edges = [important_edges(m, eps, 500) for m in (m_csr, m_dense)]
        assert edges[0] == edges[1] and len(edges[0]) > 0
        assert same(gaussian_kl(p_cov, m_csr, p_mean), gaussian_kl(p_cov, m_dense, p_mean))


@pytest.mark.parametrize("fmt", ["coo", "csc", "dok", "lil", "bsr"])
def test_non_csr_basis_gives_the_csr_models_results_bit_for_bit(rng, fmt):
    def same(x, y):
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        return x.shape == y.shape and x.tobytes() == y.tobytes()

    n, r = _ROW_BLOCK + 37, 6
    csr = sp.random(n, r, density=0.3, format="csr", random_state=8)
    d, mean = rng.uniform(1e-3, 1e-2, r), rng.standard_normal(n)
    m_csr, m_other = (LowRankPrecision(basis_a=b, diag_d=d, c=1.0, mean=mean)
                      for b in (csr, csr.asformat(fmt)))
    assert m_csr.basis_a is csr and m_other.basis_a.format == "csr"
    assert same(m_csr.logdet, m_other.logdet)
    xs = rng.standard_normal((n, 5))
    assert same(average_log_likelihood(m_csr, xs), average_log_likelihood(m_other, xs))
    assert same(partial_correlation(m_csr, 3, n - 2), partial_correlation(m_other, 3, n - 2))
    p1, p2 = np.arange(0, n, 2), np.arange(1, n, 2)
    x2 = rng.standard_normal(p2.size)
    assert same(conditional(m_csr, p1, p2, x2)[0], conditional(m_other, p1, p2, x2)[0])
    (s_csr, q_csr), (s_other, q_other) = (screen_unimportant(m, 0.01) for m in (m_csr, m_other))
    assert same(q_csr, q_other) and np.array_equal(s_csr, s_other)
    eps = float(np.sort(q_csr)[-150])
    edges = [important_edges(m, eps, 500) for m in (m_csr, m_other)]
    assert edges[0] == edges[1] and len(edges[0]) > 0


def test_average_loglik_rejects_mismatched_samples(rng):
    m = random_orthonormal_model(rng, 6, 2)
    with pytest.raises(UsageError):
        average_log_likelihood(m, np.zeros((5, 3)))


def _traced_peak(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conditional_and_loglik_peaks_are_block_sized():
    rng = np.random.default_rng(3)
    n = 1 << 16
    m = random_orthonormal_model(rng, n, 32, mean=rng.standard_normal(n))
    perm = rng.permutation(n)
    p1, p2 = np.sort(perm[:n // 16]), np.sort(perm[n // 16:])
    x2 = rng.standard_normal(p2.size)
    assert _traced_peak(conditional, m, p1, p2, x2) <= 0.25 * m.basis_a.nbytes
    xs = rng.standard_normal((n, 64))
    assert _traced_peak(average_log_likelihood, m, xs) <= 0.25 * xs.nbytes


def rank_one_pair_model():
    a = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    return LowRankPrecision(basis_a=a, diag_d=np.array([-0.25]), c=1.0,
                            mean=np.zeros(2))


def test_partial_correlation_hand_value():
    m = rank_one_pair_model()
    # omega_12 = -1/8, omega_nn = 7/8 -> value -1/7
    got = partial_correlation(m, 0, 1)
    assert abs(got - (-1.0 / 7.0)) < 1e-14
    dense = materialize_dense(m)
    want = dense[0, 1] / np.sqrt(dense[0, 0] * dense[1, 1])
    assert abs(got - want) < 1e-14


def test_partial_correlation_symmetric_and_zero_for_iso(rng):
    m = random_orthonormal_model(rng, 7, 3)
    for _ in range(5):
        i, j = rng.choice(7, size=2, replace=False)
        assert partial_correlation(m, int(i), int(j)) == pytest.approx(
            partial_correlation(m, int(j), int(i)), rel=1e-12)
    iso = iso_model(4)
    assert partial_correlation(iso, 0, 3) == 0.0


def test_partial_correlation_index_errors(rng):
    m = random_orthonormal_model(rng, 4, 2)
    for n1, n2 in ((0, 4), (-1, 2), (2, 2), (1.5, 2), (1, 2.0)):
        with pytest.raises(UsageError):
            partial_correlation(m, n1, n2)


def test_partial_correlation_refuses_nan_basis():
    # a NaN basis gives a NaN Gram matrix, which leaves the model
    # uncertified, so the certificate check refuses it before any value is
    # computed
    m = LowRankPrecision(basis_a=np.array([[np.nan], [0.5]]), diag_d=np.array([-0.5]),
                         c=1.0, mean=np.zeros(2))
    assert not m.pd_certified
    with pytest.raises(NumericError):
        partial_correlation(m, 0, 1)


def test_screen_rank_zero():
    m = iso_model(6)
    s, q = screen_unimportant(m, 0.01)
    np.testing.assert_array_equal(s, np.arange(6))
    np.testing.assert_array_equal(q, np.zeros(6))


def test_screen_threshold_dominance(rng):
    m = random_orthonormal_model(rng, 20, 3)
    _, q = screen_unimportant(m, 1e-9)
    s, _ = screen_unimportant(m, float(q.max()) + 1e-12)
    np.testing.assert_array_equal(s, np.arange(20))


def test_screen_soundness_dense(rng):
    # every pair inside the screened set must have |partial corr| <= eps
    for _ in range(5):
        m = random_orthonormal_model(rng, 50, 4, c=1.5)
        _, q = screen_unimportant(m, 1.0)
        eps = float(np.median(q))
        if eps <= 0:
            continue
        screened, _ = screen_unimportant(m, eps)
        dense = materialize_dense(m)
        dd = np.sqrt(np.outer(dense.diagonal(), dense.diagonal()))
        pc = np.abs(dense / dd)
        for i in screened:
            for j in screened:
                if i < j:
                    assert pc[i, j] <= eps + 1e-12


def test_important_edges_rank_one():
    m = rank_one_pair_model()
    edges = important_edges(m, 0.1, 10, candidates=[0, 1])
    assert len(edges) == 1
    n1, n2, v = edges[0]
    assert (n1, n2) == (0, 1)
    assert abs(v - (-1.0 / 7.0)) < 1e-12


def test_important_edges_validates_candidates(rng):
    m = random_orthonormal_model(rng, 50, 4)
    sorted_edges = important_edges(m, 1e-6, 1000, candidates=[2, 5, 9])
    assert len(sorted_edges) == 3 and all(
        n1 < n2 and abs(v - partial_correlation(m, n1, n2)) <= 1e-12
        for n1, n2, v in sorted_edges)
    assert important_edges(m, 1e-6, 1000, candidates=[5, 2, 9]) == sorted_edges
    assert important_edges(m, 1e-6, 1000, candidates=np.array([9, 2, 5, 2])) == sorted_edges
    pair = important_edges(m, 1e-6, 1000, candidates=[4, 7])
    assert len(pair) == 1 and important_edges(m, 1e-6, 1000, candidates=[4, 4, 7]) == pair
    assert important_edges(m, 1e-6, 1000, candidates=[]) == []
    for bad in ([70], [3, 50], [-1, 3], [1.5, 2.0], [1.0, 2.0], [True, False]):
        with pytest.raises(UsageError):
            important_edges(m, 1e-6, 1000, candidates=bad)
    # a negative cap used to drop the last edge silently
    assert len(important_edges(m, 1e-6, 0)) == 0
    assert important_edges(m, 1e-6, np.int64(2)) == important_edges(m, 1e-6, 2)
    for bad in (-1, 2.5, 2.0, "3", None):
        with pytest.raises(UsageError):
            important_edges(m, 1e-6, bad)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, 0.0, -1.0])
def test_non_finite_or_nonpositive_epsilon_is_refused(rng, epsilon):
    m = random_orthonormal_model(rng, 20, 3)
    with pytest.raises(UsageError):
        screen_unimportant(m, epsilon)
    with pytest.raises(UsageError):  # given candidates skip the screen
        important_edges(m, epsilon, 10, candidates=np.arange(20))


def test_important_edges_empty_for_isotropic():
    assert important_edges(iso_model(5), 0.1, 10) == []


def test_important_edges_ordering(rng):
    m = random_orthonormal_model(rng, 12, 3)
    edges = important_edges(m, 1e-6, 1000, candidates=np.arange(12))
    mags = [abs(v) for _, _, v in edges]
    assert mags == sorted(mags, reverse=True)
    assert all(n1 < n2 for n1, n2, _ in edges)
    assert len({(n1, n2) for n1, n2, _ in edges}) == len(edges)


def test_important_edges_are_the_full_sorted_list_truncated(rng):
    m = random_orthonormal_model(rng, 200, 5)
    full = important_edges(m, 1e-6, 200 * 199 // 2)
    assert len(full) > 19000
    for max_edges in (0, 1, 7, 500):
        assert important_edges(m, 1e-6, max_edges) == full[:max_edges]


def test_materialize_examples():
    np.testing.assert_allclose(materialize_dense(iso_model(3, c=0.5)),
                               0.5 * np.eye(3))
    a = np.eye(4)[:, :1]
    m = LowRankPrecision(basis_a=a, diag_d=np.array([-0.5]), c=1.0,
                         mean=np.zeros(4))
    np.testing.assert_allclose(materialize_dense(m),
                               np.diag([0.5, 1.0, 1.0, 1.0]))


def test_materialize_guard(rng):
    from specprec.model import DENSE_GUARD

    materialize_dense(iso_model(4))
    with pytest.raises(UsageError):
        materialize_dense(iso_model(DENSE_GUARD + 1))


def test_save_load_roundtrip(tmp_path, rng):
    m = random_orthonormal_model(rng, 6, 2, mean=rng.standard_normal(6))
    path = tmp_path / "m.json"
    save_model(m, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.basis_a, np.asarray(m.basis_a))
    np.testing.assert_array_equal(back.diag_d, m.diag_d)
    np.testing.assert_array_equal(back.mean, m.mean)
    assert back.c == m.c and back.orthonormal == m.orthonormal
    assert back.bounds == m.bounds


def _v1_text(m, rho=None) -> str:
    """The format_version 1 document of ``m``, assembled here and encoded by
    one ``json.dumps``: the text ``save_model`` must write."""
    a = m.basis_a
    if sp.issparse(a):
        coo = a.tocoo()
        basis = {"rows": coo.row.tolist(), "cols": coo.col.tolist(), "vals": coo.data.tolist()}
    else:
        basis = np.asarray(a).tolist()
    doc = {"format_version": 1, "n": m.n_vars, "r": m.rank, "c": m.c,
           "orthonormal": m.orthonormal, "mean": m.mean.tolist(), "diag": m.diag_d.tolist(),
           "basis": basis}
    if m.bounds is not None:
        doc["bounds"] = {"alpha": m.bounds.alpha, "beta": m.bounds.beta}
    if rho is not None:
        doc["rho"] = float(rho)
    return json.dumps(doc) + "\n"


@functools.cache
def _writer_models():
    rng = np.random.default_rng(2201)
    dense = random_orthonormal_model(rng, 9, 3, mean=rng.standard_normal(9))
    sparse, _ = sparsify_model(random_orthonormal_model(rng, 300, 4), 1.0, "hard")
    tall = 2 * _ROW_BLOCK + 37  # blocks of the dense rows and of the COO entries
    return {
        "dense": (dense, None),
        "dense_rho": (dense, 0.37),
        "sparse": (sparse, 1.0),
        "sparse_empty": (LowRankPrecision(basis_a=sp.csr_matrix((7, 2)), diag_d=np.array([-0.5, 2.0]),
                                          c=1.5, mean=rng.standard_normal(7)), None),
        "rank_zero": (iso_model(5, c=2.0, mean=rng.standard_normal(5)), None),
        "no_bounds": (LowRankPrecision(basis_a=np.asarray(dense.basis_a), diag_d=dense.diag_d,
                                       c=dense.c, mean=dense.mean), 2.5),
        "tall_dense": (random_orthonormal_model(rng, tall, 2, mean=rng.standard_normal(tall)),
                       1e-3),
        "tall_sparse": (LowRankPrecision(basis_a=sparse_orthonormal_basis(rng, tall, 3),
                                         diag_d=np.array([-0.25, 0.5, 1.0]), c=1.0,
                                         mean=np.zeros(tall)), None),
    }


@pytest.mark.parametrize("name", ["dense", "dense_rho", "sparse", "sparse_empty", "rank_zero",
                                  "no_bounds", "tall_dense", "tall_sparse"])
def test_save_model_writes_the_json_dumps_text(tmp_path, name):
    m, rho = _writer_models()[name]
    if name == "sparse_empty":
        assert m.basis_a.nnz == 0
    if name == "tall_sparse":
        assert m.basis_a.nnz > _ROW_BLOCK
    path = tmp_path / "m.json"
    save_model(m, path, rho=rho)
    assert path.read_text(encoding="utf-8") == _v1_text(m, rho)
    back, back_rho = load_model_with_rho(path)
    assert back_rho == rho
    assert sp.issparse(back.basis_a) == sp.issparse(m.basis_a)
    dense_a = m.basis_a.toarray() if sp.issparse(m.basis_a) else m.basis_a
    back_a = back.basis_a.toarray() if sp.issparse(back.basis_a) else back.basis_a
    assert back_a.tobytes() == np.asarray(dense_a).tobytes()
    for field in ("diag_d", "mean"):
        assert getattr(back, field).tobytes() == getattr(m, field).tobytes()
    assert (back.c, back.bounds, back.orthonormal, back.pd_certified) == \
        (m.c, m.bounds, m.orthonormal, m.pd_certified)


def test_sparsified_model_roundtrip_keeps_certificate(tmp_path):
    from specprec import center, riccati_fit, sparsify_model, thin_svd

    # the hard-threshold instance that needs rescaling (see test_sparsify)
    rng = np.random.default_rng(6)
    basis = thin_svd(center(DataMatrix(values=rng.standard_normal((20, 5)))))
    sparse, _ = sparsify_model(riccati_fit(basis, 0.4), 1.0, "hard")
    assert sparse.pd_certified and not sparse.orthonormal
    path = tmp_path / "sparse.json"
    save_model(sparse, path)
    back = load_model(path)
    assert back.pd_certified and not back.orthonormal
    assert sp.issparse(back.basis_a)
    np.testing.assert_array_equal(back.basis_a.toarray(), sparse.basis_a.toarray())
    np.testing.assert_array_equal(back.diag_d, sparse.diag_d)
    np.testing.assert_array_equal(back.mean, sparse.mean)
    assert back.c == sparse.c and back.bounds == sparse.bounds

    # the certificate is recomputed from the arrays: an indefinite basis
    # written in the same format loads uncertified
    doc = json.loads(path.read_text())
    doc["basis"]["vals"] = [10.0 * v for v in doc["basis"]["vals"]]
    path.write_text(json.dumps(doc))
    assert not load_model(path).pd_certified


def test_load_decides_orthonormal_from_the_basis(tmp_path):
    doc = {"format_version": 1, "n": 2, "r": 1, "c": 1.0, "orthonormal": False,
           "mean": [0.0, 0.0], "diag": [-0.5], "basis": [[1.0], [0.0]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert load_model(path).orthonormal


def test_loaded_sparse_model_sums_its_gram_once(tmp_path, rng, monkeypatch):
    import specprec.model as model_mod

    sparse, _ = sparsify_model(random_orthonormal_model(rng, 300, 4), 1.0, "hard")
    path = tmp_path / "s.json"
    save_model(sparse, path)
    calls, real = [], model_mod._gram
    monkeypatch.setattr(model_mod, "_gram", lambda a: calls.append(1) or real(a))
    m = load_model(path)
    average_log_likelihood(m, rng.standard_normal((300, 3)))
    assert not m.orthonormal and len(calls) == 1


def test_load_minimal_isotropic(tmp_path):
    doc = {"format_version": 1, "n": 2, "r": 0, "c": 1.0, "orthonormal": True,
           "mean": [0.0, 0.0], "diag": [], "basis": []}
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(doc))
    m = load_model(path)
    np.testing.assert_allclose(materialize_dense(m), np.eye(2))


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(mean=[0.0]),                     # wrong mean length
    lambda d: d.update(diag=[-0.5, -0.2]),              # wrong diag length
    lambda d: d.update(c=-1.0),                         # c <= 0 with orthonormal
    lambda d: d.update(format_version=99),
    lambda d: d.update(basis=[[1.0, 0.0]]),             # wrong basis shape
    lambda d: d.update(basis=[[2.0], [0.0]]),           # disproves "orthonormal": true
    lambda d: d.pop("c"),
])
def test_load_rejects_invalid(tmp_path, mutate):
    doc = {"format_version": 1, "n": 2, "r": 1, "c": 1.0, "orthonormal": True,
           "mean": [0.0, 0.0], "diag": [-0.5], "basis": [[1.0], [0.0]]}
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_model(path)


@pytest.mark.parametrize("key, value, message", [
    ("mean", [0.0], "mean length must match N"),
    ("mean", [0.0, 0.0, 0.0], "mean length must match N"),
    ("diag", [-0.5, -0.2], "diag length must match basis width"),
    ("diag", [], "diag length must match basis width"),
])
def test_load_refuses_wrong_lengths_in_the_constructor(tmp_path, key, value, message):
    doc = {"format_version": 1, "n": 2, "r": 1, "c": 1.0, "orthonormal": True,
           "mean": [0.0, 0.0], "diag": [-0.5], "basis": [[1.0], [0.0]]}
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError) as info:
        load_model(path)
    assert info.value.message == message


@pytest.mark.parametrize("key, value", NON_FINITE)
def test_load_rejects_non_finite_orthonormal_model(tmp_path, key, value):
    doc = {"format_version": 1, "n": 2, "r": 1, "c": 1.0, "orthonormal": True,
           "mean": [0.0, 0.0], "diag": [-0.5], "basis": [[1.0], [0.0]]}
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # Python's json writes NaN and Infinity
    with pytest.raises(DataError):
        load_model(path)


def test_load_model_with_rho_parses_the_file_once(tmp_path, rng, monkeypatch):
    m = random_orthonormal_model(rng, 6, 2)
    path = tmp_path / "m.json"
    save_model_with_rho(m, path, 0.25)
    parses = []
    real_loads = json.loads

    def counting_loads(*args, **kwargs):
        parses.append(1)
        return real_loads(*args, **kwargs)

    # json.load reads the file and hands the text to json.loads
    monkeypatch.setattr(json, "loads", counting_loads)
    back, rho = load_model_with_rho(path)
    assert rho == 0.25 and len(parses) == 1
    np.testing.assert_array_equal(back.basis_a, m.basis_a)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("not json {")
    with pytest.raises(DataError):
        load_model(path)


def test_loglik_determinant_cached(rng):
    m = random_orthonormal_model(rng, 30, 5)
    first = m.logdet
    assert m.logdet is not None
    assert "logdet" in m.__dict__  # cached after first evaluation
    assert m.logdet == first


@pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (2.0, 1.0), (0.5, np.inf),
                                         (np.nan, 1.0), (0.5, np.nan)])
def test_eigen_bounds_must_be_positive_ordered_and_finite(alpha, beta):
    with pytest.raises(NumericError):
        EigenBounds(alpha, beta)
