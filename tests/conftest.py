import numpy as np
import pytest

from specprec import DataMatrix, EigenBounds, LowRankPrecision, center


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def centered_data(rng, n, t):
    """Random centered DataMatrix."""
    return center(DataMatrix(values=rng.standard_normal((n, t))))


def sample_cov(data):
    return data.values @ data.values.T / data.n_samples


def random_orthonormal_model(rng, n, r, c=1.0, mean=None):
    """PD model with orthonormal basis and negative diagonal in (-c, 0)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    d = -rng.uniform(0.1, 0.9, size=r) * c
    mean = np.zeros(n) if mean is None else mean
    alpha = c + (d.min() if r else 0.0)
    return LowRankPrecision(basis_a=q, diag_d=d, c=c, mean=mean,
                            bounds=EigenBounds(alpha=alpha, beta=c))


def sparse_orthonormal_basis(rng, n, r):
    """N x r CSR basis with orthonormal columns on disjoint row sets; every
    row but one in r holds only exact zeros."""
    import scipy.sparse as sp

    dense = np.zeros((n, r))
    for t in range(r):
        col = rng.standard_normal(len(range(t, n, r)))
        dense[t::r, t] = col / np.linalg.norm(col)
    return sp.csr_matrix(dense)
