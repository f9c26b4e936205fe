import numpy as np
import pytest

from specprec import (LowRankPrecision, NumericError, SpikedModel, UsageError,
                      concentration_gamma, gaussian_kl, kl_excess_bound,
                      log_likelihood, materialize_dense, random_spiked,
                      recommend_rho, riccati_fit, sample, sparsify_model,
                      thin_svd, true_covariance, true_precision,
                      true_precision_frob, center)
from specprec.spiked import FactoredCovariance
from oracle import dense_kl


def test_random_spiked_dense_single_component():
    m = random_spiked(10, 1, 1.0, 1.0, seed=0)
    assert m.basis_u.shape == (10, 1)
    assert abs(np.linalg.norm(m.basis_u[:, 0]) - 1.0) < 1e-14
    assert np.all(m.basis_u[:, 0] != 0)


def test_random_spiked_deterministic():
    a = random_spiked(50, 3, 2.0, 0.2, seed=42)
    b = random_spiked(50, 3, 2.0, 0.2, seed=42)
    np.testing.assert_array_equal(a.basis_u, b.basis_u)
    np.testing.assert_array_equal(a.diag_d, b.diag_d)


def test_random_spiked_disjoint_supports_and_density():
    m = random_spiked(100, 3, 1.0, 0.1, seed=3)
    supports = [set(np.flatnonzero(m.basis_u[:, j])) for j in range(3)]
    assert all(len(s) == 10 for s in supports)
    for i in range(3):
        for j in range(i + 1, 3):
            assert not supports[i] & supports[j]
    prec = true_precision(m)
    offdiag_nnz = np.count_nonzero(materialize_dense(prec)
                                   - np.diag(np.diag(materialize_dense(prec))))
    assert offdiag_nnz / (100 * 99) == pytest.approx(3 * 10 * 9 / (100 * 99))


def test_random_spiked_support_overflow():
    with pytest.raises(UsageError):
        random_spiked(10, 4, 1.0, 0.3, seed=0)


def test_sample_rademacher_noise_rows():
    m = random_spiked(40, 2, 1.0, 0.25, seed=5)
    d = sample(m, 30, "rademacher", seed=9)
    outside = np.flatnonzero(~m.basis_u.any(axis=1))
    assert outside.size > 0
    scale = np.sqrt(1.0 / 40)
    vals = np.unique(np.round(np.abs(d.values[outside]), 12))
    np.testing.assert_allclose(vals, [np.round(scale, 12)])


def test_sample_tiny_beta_stays_in_spike_space():
    m = random_spiked(30, 2, 1e-8, 0.5, seed=1)
    d = sample(m, 200, "gaussian", seed=2)
    proj = m.basis_u @ (m.basis_u.T @ d.values)
    rms = np.sqrt(np.mean((d.values - proj) ** 2))
    assert rms < 1e-3


def test_sample_empirical_covariance(rng):
    m = random_spiked(20, 2, 1.0, 0.3, seed=11)
    d = sample(m, 20000, "gaussian", seed=12)
    emp = d.values @ d.values.T / d.n_samples
    np.testing.assert_allclose(emp, true_covariance(m).materialize(), atol=0.08)


def _flat_sample(model, t, entry_dist, seed):
    """The formula sample() used before it drew the noise in place."""
    rng = np.random.default_rng(seed)
    n, k = model.basis_u.shape
    if entry_dist == "gaussian":
        y = rng.standard_normal((k, t))
        xi = rng.standard_normal((n, t))
    else:
        y = rng.integers(0, 2, size=(k, t)).astype(np.float64) * 2.0 - 1.0
        xi = rng.integers(0, 2, size=(n, t)).astype(np.float64) * 2.0 - 1.0
    x = model.basis_u @ (np.sqrt(model.diag_d)[:, None] * y)
    x += np.sqrt(model.beta / n) * xi
    return x


def _block_spiked(rng, n, k, support):
    """Spike whose K columns share one random set of ``support`` rows."""
    u = np.zeros((n, k))
    u[np.sort(rng.choice(n, support, replace=False))] = np.linalg.qr(
        rng.standard_normal((support, k)))[0]
    return SpikedModel(basis_u=u, diag_d=rng.uniform(0.5, 1.5, k), beta=2.0, seed=0)


@pytest.mark.parametrize("entry_dist", ["gaussian", "rademacher"])
def test_sample_matches_flat_formula_bit_for_bit(rng, entry_dist):
    models = [random_spiked(9000, 3, 1.0, 0.01, seed=1),  # sparse support
              random_spiked(300, 1, 1.0, 1.0, seed=2),  # K = 1, dense
              random_spiked(50, 1, 1.0, 0.02, seed=3),  # one nonzero row
              random_spiked(1, 1, 1.0, 1.0, seed=4),
              _block_spiked(rng, 141, 9, 70),  # shared support, K > 8
              _block_spiked(rng, 9000, 4, 9000),  # dense, more than two row blocks
              _block_spiked(rng, 2, 2, 2)]
    for m in models:
        for t in (1, 2, 7, 33):
            got = sample(m, t, entry_dist, seed=t + 17).values
            want = _flat_sample(m, t, entry_dist, t + 17)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sample_peak_is_its_output(rng):
    import tracemalloc

    m = random_spiked(1 << 16, 8, 16.0, 64 / (1 << 16), seed=6)
    tracemalloc.start()
    try:
        d = sample(m, 64, "gaussian", seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * d.values.nbytes


def test_sample_refuses_unknown_distribution():
    with pytest.raises(UsageError):
        sample(random_spiked(10, 1, 1.0, 1.0, seed=0), 3, "uniform")


def test_true_covariance_examples():
    u = np.zeros((5, 1))
    u[0, 0] = 1.0
    m = SpikedModel(basis_u=u, diag_d=np.array([1.0]), beta=5.0, seed=0)
    cov = true_covariance(m)
    w = np.sort(np.linalg.eigvalsh(cov.materialize()))
    np.testing.assert_allclose(w, [1, 1, 1, 1, 2])
    assert cov.trace() == pytest.approx(1.0 + 5.0)


def test_spiked_model_refuses_nan_basis():
    with pytest.raises(NumericError):
        SpikedModel(basis_u=np.array([[np.nan], [0.0]]), diag_d=np.array([1.0]),
                    beta=1.0, seed=0)


def test_true_precision_rank_zero():
    m = SpikedModel(basis_u=np.zeros((4, 0)), diag_d=np.zeros(0), beta=2.0,
                    seed=0)
    prec = true_precision(m)
    np.testing.assert_allclose(materialize_dense(prec), 2.0 * np.eye(4))


def test_true_precision_inverts_covariance():
    m = random_spiked(25, 3, 1.5, 0.2, seed=7)
    dense_cov = true_covariance(m).materialize()
    np.testing.assert_allclose(materialize_dense(true_precision(m)),
                               np.linalg.inv(dense_cov), atol=1e-9)
    prod = materialize_dense(true_precision(m)) @ dense_cov
    np.testing.assert_allclose(np.linalg.eigvalsh(prod), np.ones(25),
                               atol=1e-12)


@pytest.mark.parametrize("m", [random_spiked(40, 3, 1.5, 0.2, seed=11),
                               SpikedModel(basis_u=np.zeros((4, 0)), diag_d=np.zeros(0),
                                           beta=2.0, seed=0)], ids=["k3", "k0"])
def test_true_precision_is_tikhonov_map_bit_for_bit(m):
    # the ridge inverse U diag(-d / (rho (d + rho))) U^T + I / rho, written out
    rho, d = m.beta / m.n_vars, m.diag_d
    prec = true_precision(m)
    assert np.array_equal(prec.diag_d, -d / (rho * (d + rho)))
    assert prec.c == 1.0 / rho
    assert prec.bounds.alpha == 1.0 / ((d.max() if d.size else 0.0) + rho)
    assert prec.bounds.beta == 1.0 / rho


def test_true_precision_frob():
    m = random_spiked(30, 2, 1.0, 0.3, seed=4)
    want = np.linalg.norm(materialize_dense(true_precision(m)))
    assert abs(true_precision_frob(m) - want) < 1e-8 * want


def test_concentration_gamma_scaling():
    g1 = concentration_gamma(2, 1.3, 0.7, 100, 25, 0.1)
    g4 = concentration_gamma(2, 1.3, 0.7, 100, 100, 0.1)
    assert g4 == pytest.approx(g1 / 2.0, rel=1e-15)


def test_concentration_gamma_hand_value():
    delta = 4.0 / np.e ** 2  # 2 ln(4/delta) = 4
    got = concentration_gamma(1, 1.0, 0.0, 3, 4, delta)
    want = 40.0 * np.sqrt((4.0 * np.log(4.0) + 4.0) / 4.0)
    assert got == pytest.approx(want, rel=1e-14)


def test_recommend_rho():
    assert recommend_rho(1.0) == 2.0
    assert recommend_rho(0.5) == 1.0
    with pytest.raises(UsageError):
        recommend_rho(0.0)


def test_kl_excess_bound_examples():
    assert kl_excess_bound(1.0, 0.0) == 0.25
    assert kl_excess_bound(1.0, 1.0) == 2.25


def test_gaussian_kl_self_zero():
    m = random_spiked(15, 2, 1.0, 0.4, seed=8)
    assert gaussian_kl(true_covariance(m), true_precision(m)) <= 1e-10


def test_gaussian_kl_isotropic_formula():
    a, b, n = 2.0, 0.4, 6
    p = FactoredCovariance(basis_u=np.zeros((n, 0)), diag_d=np.zeros(0), iso=a)
    q = LowRankPrecision(basis_a=np.zeros((n, 0)), diag_d=np.zeros(0), c=b,
                         mean=np.zeros(n))
    want = 0.5 * n * (a * b - 1.0 - np.log(a * b))
    assert gaussian_kl(p, q) == pytest.approx(want, rel=1e-12)


def test_gaussian_kl_matches_dense_oracle(rng):
    truth = random_spiked(25, 3, 1.0, 0.2, seed=21)
    data = center(sample(truth, 12, "gaussian", seed=22))
    model = riccati_fit(thin_svd(data), 0.5)
    got = gaussian_kl(true_covariance(truth), model)
    want = dense_kl(true_covariance(truth).materialize(), np.zeros(25),
                    materialize_dense(model), model.mean)
    assert got == pytest.approx(want, abs=1e-8)


def test_gaussian_kl_mean_term_is_the_likelihood_quadratic_form(rng):
    # KL(P || Q) with mean mu_P adds (mu_P - mu_Q)^T Omega_Q (mu_P - mu_Q) / 2,
    # which is logdet Omega_Q - log_likelihood(Q, mu_P), up to the rounding of
    # that subtraction; at mu_P = mu_Q the term is exactly zero
    truth = random_spiked(300, 3, 1.0, 0.2, seed=31)
    p_cov = true_covariance(truth)
    model = riccati_fit(thin_svd(center(sample(truth, 20, "gaussian", seed=32))), 0.5)
    for q in (model, sparsify_model(model, 0.5, "hard")[0]):
        base = 2.0 * gaussian_kl(p_cov, q, q.mean)
        for _ in range(3):
            p_mean = q.mean + rng.standard_normal(300)
            ll = log_likelihood(q, p_mean)
            want = 0.5 * (base + (q.logdet - ll))
            got = gaussian_kl(p_cov, q, p_mean)
            assert abs(got - want) <= 4 * np.finfo(float).eps * (abs(q.logdet) + abs(ll))


def test_gaussian_kl_refuses_non_finite_inputs():
    n = 3
    p = FactoredCovariance(basis_u=np.zeros((n, 0)), diag_d=np.zeros(0), iso=1.0)
    # a NaN basis leaves the model uncertified, so it is refused before any
    # term of the divergence is computed
    nan_basis = LowRankPrecision(basis_a=np.array([[np.nan], [0.0], [0.0]]),
                                 diag_d=np.array([-0.5]), c=1.0, mean=np.zeros(n))
    assert not nan_basis.pd_certified
    with pytest.raises(NumericError):
        gaussian_kl(p, nan_basis)
    # max(kl, 0.0) returns NaN for a NaN kl, so kl itself must be checked
    iso = LowRankPrecision(basis_a=np.zeros((n, 0)), diag_d=np.zeros(0), c=1.0,
                           mean=np.zeros(n))
    with pytest.raises(NumericError):
        gaussian_kl(p, iso, p_mean=np.array([np.nan, 0.0, 0.0]))


def test_gaussian_kl_nonnegative_on_random_pairs(rng):
    for seed in range(5):
        truth = random_spiked(20, 2, 1.0, 0.3, seed=seed)
        data = center(sample(truth, 10, "gaussian", seed=seed + 100))
        model = riccati_fit(thin_svd(data), 1.0)
        assert gaussian_kl(true_covariance(truth), model) >= 0.0


def _kl_pair(n=20):
    p = FactoredCovariance(basis_u=np.zeros((n, 0)), diag_d=np.zeros(0), iso=1.0)
    q = LowRankPrecision(basis_a=np.zeros((n, 0)), diag_d=np.zeros(0), c=1.0,
                         mean=np.zeros(n))
    return p, q


@pytest.mark.parametrize("p_mean", [np.zeros(21), np.zeros((20, 2)), np.zeros(19), 0.0])
def test_gaussian_kl_refuses_a_p_mean_that_is_not_an_n_vector(p_mean):
    p, q = _kl_pair()
    with pytest.raises(UsageError):
        gaussian_kl(p, q, p_mean)


def test_gaussian_kl_reads_a_column_p_mean_as_its_vector():
    p, q = _kl_pair()
    p_mean = np.linspace(-1.0, 1.0, 20)
    assert gaussian_kl(p, q, p_mean[:, None]) == gaussian_kl(p, q, p_mean) > 0.0


_EYE = np.eye(4)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: SpikedModel(_EYE[:2], np.ones(4), 1.0, 0), UsageError, id="K>N"),
    pytest.param(lambda: SpikedModel(_EYE[:, :2], [1.0, 0.0], 1.0, 0), NumericError, id="d=0"),
    pytest.param(lambda: SpikedModel(_EYE[:, :2], [1.0, np.nan], 1.0, 0), NumericError,
                 id="d-nan"),
    pytest.param(lambda: SpikedModel(_EYE[:, :2], [1.0], 1.0, 0), NumericError, id="d-length"),
    pytest.param(lambda: SpikedModel(_EYE[:, :2], [1.0, 1.0], 0.0, 0), NumericError,
                 id="beta=0"),
    pytest.param(lambda: SpikedModel(_EYE[:, :2], [1.0, 1.0], np.inf, 0), NumericError,
                 id="beta-inf"),
    pytest.param(lambda: random_spiked(10, 0, 1.0, 0.5, seed=0), UsageError, id="k=0"),
    pytest.param(lambda: random_spiked(3, 4, 1.0, 0.5, seed=0), UsageError, id="k>n"),
    pytest.param(lambda: random_spiked(10, 2, 1.0, 0.0, seed=0), UsageError, id="density=0"),
    pytest.param(lambda: random_spiked(10, 2, 1.0, 1.5, seed=0), UsageError, id="density>1"),
    pytest.param(lambda: sample(random_spiked(10, 2, 1.0, 0.2, seed=0), 0), UsageError,
                 id="sample-t=0"),
    pytest.param(lambda: FactoredCovariance(basis_u=np.zeros((2001, 0)), diag_d=np.zeros(0),
                                            iso=1.0).materialize(), UsageError,
                 id="materialize-guard"),
    pytest.param(lambda: concentration_gamma(2, 1.0, 1.0, 10, 0, 0.1), UsageError,
                 id="gamma-t=0"),
    pytest.param(lambda: concentration_gamma(2, 1.0, 1.0, 10, 5, 0.0), UsageError,
                 id="gamma-delta=0"),
    pytest.param(lambda: concentration_gamma(2, 1.0, 1.0, 10, 5, 1.0), UsageError,
                 id="gamma-delta=1"),
    pytest.param(lambda: concentration_gamma(2, -1.0, 1.0, 10, 5, 0.1), UsageError,
                 id="gamma-d_frob<0"),
    pytest.param(lambda: concentration_gamma(2, 1.0, -1.0, 10, 5, 0.1), UsageError,
                 id="gamma-beta<0"),
    pytest.param(lambda: kl_excess_bound(0.0, 1.0), UsageError, id="kl-bound-gamma=0"),
    pytest.param(lambda: kl_excess_bound(1.0, -1.0), UsageError, id="kl-bound-norm<0"),
    pytest.param(lambda: gaussian_kl(_kl_pair(20)[0], _kl_pair(21)[1]), UsageError,
                 id="kl-dimension-mismatch"),
])
def test_spiked_argument_checks(call, error):
    with pytest.raises(error):
        call()
