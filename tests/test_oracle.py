import numpy as np
import pytest

from specprec.errors import NumericError
from oracle import (dense_conditional, dense_kl, dense_loglik,
                    dense_riccati, dense_tikhonov, kkt_residual)


def random_psd(rng, n, t=4):
    x = rng.standard_normal((n, t))
    return x @ x.T / t


def test_dense_riccati_examples(rng):
    np.testing.assert_allclose(dense_riccati(np.zeros((4, 4)), 4.0),
                               0.5 * np.eye(4))
    got = dense_riccati(np.eye(3), 1.0)
    np.testing.assert_allclose(got, ((np.sqrt(5) - 1) / 2) * np.eye(3),
                               atol=1e-14)
    cov = random_psd(rng, 6)
    assert kkt_residual(dense_riccati(cov, 0.7), cov, 0.7) <= 1e-10


def test_dense_riccati_rejects_asymmetric():
    with pytest.raises(NumericError):
        dense_riccati(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)


def test_dense_tikhonov_examples(rng):
    np.testing.assert_allclose(dense_tikhonov(np.zeros((3, 3)), 2.0),
                               0.5 * np.eye(3))
    np.testing.assert_allclose(dense_tikhonov(np.eye(3), 1.0), 0.5 * np.eye(3))
    cov = random_psd(rng, 5)
    om = dense_tikhonov(cov, 0.3)
    np.testing.assert_allclose((cov + 0.3 * np.eye(5)) @ om, np.eye(5),
                               atol=1e-10)


def test_dense_loglik_examples():
    assert dense_loglik(np.eye(2), np.zeros(2), np.zeros(2)) == 0.0
    got = dense_loglik(np.array([[2.0]]), np.zeros(1), np.ones(1))
    assert got == pytest.approx(np.log(2.0) - 2.0, rel=1e-14)


def test_dense_conditional_block_diagonal():
    omega = np.diag([2.0, 3.0, 4.0, 5.0])
    mu, prec = dense_conditional(omega, np.zeros(4), [0, 1], [2, 3],
                                 np.array([1.0, -1.0]))
    np.testing.assert_array_equal(mu, [0.0, 0.0])
    np.testing.assert_array_equal(prec, np.diag([2.0, 3.0]))


def test_dense_conditional_hand_instance():
    omega = np.array([[2.0, 1.0], [1.0, 2.0]])
    mu, prec = dense_conditional(omega, np.zeros(2), [0], [1], np.array([1.0]))
    assert mu[0] == pytest.approx(-0.5)
    assert prec[0, 0] == 2.0


def test_dense_kl_zero_for_identical(rng):
    cov = random_psd(rng, 5) + np.eye(5)
    assert abs(dense_kl(cov, np.zeros(5), np.linalg.inv(cov),
                        np.zeros(5))) < 1e-10


def test_kkt_residual_perturbation(rng):
    cov = random_psd(rng, 6)
    omega = dense_riccati(cov, 1.0)
    assert kkt_residual(omega, cov, 1.0) <= 1e-10
    bumped = omega.copy()
    bumped[0, 0] += 0.01
    assert kkt_residual(bumped, cov, 1.0) > 1e-4


def test_tikhonov_solution_fails_riccati_equation(rng):
    cov = random_psd(rng, 6)
    tik = dense_tikhonov(cov, 1.0)
    assert kkt_residual(tik, cov, 1.0) > 1e-4
