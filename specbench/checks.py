"""Correctness checks computed apart from the program, with numpy only.

Every check recomputes what a program output should be from the model
arrays and the raw inputs and raises ``CheckFailed`` when the output
disagrees.  Nothing here imports ``specprec``: the checks must keep working
(and keep their meaning) when the program's own oracles move or change.

A model is passed as its arrays: an N x r basis ``a`` (dense; sparse bases
are densified by the caller), the diagonal ``d``, the isotropic term ``c``
and the mean, so that Omega = a diag(d) a^T + c I.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 1 << 15


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _row_blocks(n: int):
    for start in range(0, n, BLOCK_ROWS):
        yield slice(start, min(n, start + BLOCK_ROWS))


# -- spectra and the Riccati stationarity condition --------------------------

def covariance_eigvals(x_centered: np.ndarray) -> np.ndarray:
    """Eigenvalues of (1/T) X X^T that can be nonzero, descending, via X^T X."""
    t = x_centered.shape[1]
    return np.linalg.eigvalsh(x_centered.T @ x_centered / t)[::-1]


def riccati_eigvals(e: np.ndarray, rho: float) -> np.ndarray:
    """Positive root x of rho x^2 + e x - 1 = 0, written without cancellation."""
    return 2.0 / (e + np.sqrt(e * e + 4.0 * rho))


def check_riccati_fit(a, d, c, rho, x_centered, e) -> None:
    """c = 1/sqrt(rho); a is orthonormal and spans the centered data; each
    d_t + c solves 1/x - e_t - rho x = 0 for the covariance eigenvalues e."""
    n, r = a.shape
    require(rho > 0, f"rho must be positive, got {rho}")
    require(abs(c * np.sqrt(rho) - 1.0) <= 1e-12, f"isotropic term {c!r} is not 1/sqrt(rho)")
    dev = float(np.abs(a.T @ a - np.eye(r)).max(initial=0.0))
    require(dev <= 1e-8, f"basis is not orthonormal (max |A^T A - I| = {dev:.3e})")
    proj = a.T @ x_centered
    resid = total = 0.0
    for rows in _row_blocks(n):
        xb = x_centered[rows]
        resid += float(((xb - a[rows] @ proj) ** 2).sum())
        total += float((xb * xb).sum())
    require(resid <= 1e-16 * max(total, 1e-300) + 1e-300,
            f"basis does not span the centered data (residual {np.sqrt(resid):.3e}"
            f" of {np.sqrt(total):.3e})")
    require(r <= e.size, f"rank {r} exceeds the {e.size} covariance eigenvalues")
    x = d + c
    require(np.all(x > 0), "some d_t + c is not positive")
    et = e[:r]
    res = 1.0 / x - et - rho * x
    scale = 1.0 / x + np.abs(et) + rho * x
    worst = float(np.max(np.abs(res) / scale, initial=0.0))
    require(worst <= 1e-8, f"d_t + c does not solve 1/x - e_t - rho x = 0 (rel {worst:.3e})")
    dropped = e[r:]
    require(np.all(np.abs(dropped) <= 1e-10 * max(float(e[0]), 1e-300)),
            "a dropped direction carries a nonzero covariance eigenvalue")


def riccati_bounds(e_max: float, rho: float):
    """[alpha, beta] bracket of the Riccati estimate's eigenvalues."""
    return float(riccati_eigvals(np.array([e_max]), rho)[0]), 1.0 / np.sqrt(rho)


def validation_scores(a, e, z_val, grid) -> np.ndarray:
    """Average validation log-likelihood of the Riccati estimate at each rho,
    from the fitted basis and the independently computed eigenvalues."""
    n, r = a.shape
    w2 = (a.T @ z_val) ** 2
    zz = (z_val * z_val).sum(axis=0)
    scores = np.empty(len(grid))
    for i, rho in enumerate(grid):
        x = riccati_eigvals(e[:r], rho)
        c = 1.0 / np.sqrt(rho)
        logdet = float(np.log(x).sum() + (n - r) * np.log(c))
        quad = c * zz + ((x - c)[:, None] * w2).sum(axis=0)
        scores[i] = logdet - float(quad.mean())
    return scores


def check_selected_rho(rho, grid, scores) -> None:
    """rho is a grid point, maximizes the validation score, and is not an end."""
    grid = np.asarray(grid, dtype=np.float64)
    hits = np.flatnonzero(grid == rho)
    require(hits.size == 1, f"selected rho {rho!r} is not a grid point")
    i = int(hits[0])
    best = float(scores.max())
    require(scores[i] >= best - 1e-9 * max(1.0, abs(best)),
            f"rho {rho:.6g} scores {scores[i]:.9g}, below the best {best:.9g}")
    require(0 < i < grid.size - 1, f"selected rho is at a grid end (index {i})")


# -- likelihoods ------------------------------------------------------------------

def logdet(a, d, c) -> float:
    """log det(c I + a diag(d) a^T) for d <= 0, from the r x r Gram of a sqrt(-d)."""
    require(np.all(d <= 0.0), "logdet check expects a non-positive diagonal")
    n = a.shape[0]
    b = a * np.sqrt(-d)[None, :]
    mu = np.linalg.eigvalsh(b.T @ b) if b.shape[1] else np.zeros(0)
    require(np.all(mu < c), "model is not positive definite")
    return float(n * np.log(c) + np.log1p(-mu / c).sum())


def avg_log_likelihood(a, d, c, mean, samples) -> float:
    """Mean over columns of log det Omega - (x - mu)^T Omega (x - mu)."""
    z = samples - mean[:, None]
    w = a.T @ z
    quad = c * (z * z).sum(axis=0) + (d[:, None] * w * w).sum(axis=0)
    return logdet(a, d, c) - float(quad.mean())


def check_log_likelihood(value, a, d, c, mean, samples, rtol=1e-9) -> None:
    want = avg_log_likelihood(a, d, c, mean, samples)
    require(np.isfinite(value), f"log-likelihood is not finite: {value}")
    require(abs(value - want) <= rtol * max(1.0, abs(want)),
            f"average log-likelihood {value!r} differs from {want!r}")


# -- partial correlations, screening and edges --------------------------------

def precision_diag(a, d, c) -> np.ndarray:
    out = np.empty(a.shape[0])
    for rows in _row_blocks(a.shape[0]):
        out[rows] = (a[rows] * a[rows]) @ d + c
    return out


def check_screening(a, d, c, screened, epsilon, rng, samples=64) -> None:
    """Sampled screened variables have every |partial correlation| <= epsilon."""
    screened = np.asarray(screened, dtype=np.intp)
    n = a.shape[0]
    require(np.all(np.diff(screened) > 0) and (screened.size == 0 or
            (screened[0] >= 0 and screened[-1] < n)), "screened set is not a sorted index set")
    if screened.size == 0:
        return
    diag = precision_diag(a, d, c)
    pick = np.sort(rng.choice(screened, size=min(samples, screened.size), replace=False))
    right = (a[pick] * d[None, :]).T  # r x s
    worst = 0.0
    for rows in _row_blocks(n):
        pc = (a[rows] @ right) / np.sqrt(np.outer(diag[rows], diag[pick]))
        own = np.flatnonzero((pick >= rows.start) & (pick < rows.stop))
        pc[pick[own] - rows.start, own] = 0.0
        worst = max(worst, float(np.abs(pc).max(initial=0.0)))
    require(worst <= epsilon * (1 + 1e-9),
            f"a screened variable has |partial correlation| {worst:.6g} > {epsilon}")


def check_edges(edges, a, d, c, epsilon, max_edges, allowed) -> None:
    """Each edge is a pair of allowed variables whose independently computed
    partial correlation equals the reported value and exceeds epsilon in
    magnitude; edges are sorted by descending magnitude."""
    require(len(edges) <= max_edges, f"{len(edges)} edges exceed the cap {max_edges}")
    if not edges:
        return
    i = np.array([e[0] for e in edges], dtype=np.intp)
    j = np.array([e[1] for e in edges], dtype=np.intp)
    v = np.array([e[2] for e in edges], dtype=np.float64)
    require(np.all(i < j), "an edge is not ordered n1 < n2")
    allowed_mask = np.zeros(a.shape[0], dtype=bool)
    allowed_mask[np.asarray(allowed, dtype=np.intp)] = True
    require(np.all(allowed_mask[i] & allowed_mask[j]),
            "an edge joins a variable outside the candidates")
    want = ((a[i] * a[j]) @ d) / np.sqrt(((a[i] ** 2) @ d + c) * ((a[j] ** 2) @ d + c))
    err = float(np.abs(v - want).max())
    require(err <= 1e-9, f"an edge value is off by {err:.3e}")
    require(np.all(np.abs(v) > epsilon), "an edge does not exceed epsilon")
    require(np.all(np.diff(np.abs(v)) <= 0), "edges are not sorted by magnitude")


# -- conditionals ---------------------------------------------------------------

def check_conditional(mu_cond, a, d, c, mean, part1, part2, x2) -> None:
    """Omega_11 mu = Omega_11 mu_1 - Omega_12 (x_2 - mu_2)."""
    a1 = a[part1]
    omega11 = (a1 * d[None, :]) @ a1.T + c * np.eye(len(part1))
    cross = a1 @ (d * (a[part2].T @ (x2 - mean[part2])))
    rhs = omega11 @ mean[part1] - cross
    lhs = omega11 @ mu_cond
    err = float(np.abs(lhs - rhs).max())
    scale = float(np.abs(omega11).max() * max(1.0, np.abs(mu_cond).max()))
    require(err <= 1e-9 * scale, f"conditional mean misses the equation by {err:.3e}")


# -- sparsification -----------------------------------------------------------

def check_sparsified(u, d, c, alpha, beta, lam, mode, sparse_dense, density,
                     certified, gap=None) -> None:
    """The thresholded basis has the expected pattern and values up to one
    common scale in (0, 1]; its smallest eigenvalue, from the r x r Gram,
    is >= alpha; the density matches the nonzero count; for small N the
    measured spectral gap is within (2 lam + lam^2)(beta - alpha)."""
    n, r = u.shape
    # None: the certification is not recorded (model files do not store it)
    require(certified is not False, "sparsified model is not certified positive definite")
    require(c == beta, f"isotropic term {c!r} is not beta {beta!r}")
    thr = lam / np.sqrt(n * r)
    if mode == "hard":
        keep = np.abs(u) >= thr
        raw = np.where(keep, u, 0.0)
    else:
        keep = np.abs(u) > thr
        raw = np.where(keep, np.sign(u) * (np.abs(u) - thr), 0.0)
    nz = sparse_dense != 0.0
    require(np.array_equal(nz, keep & (raw != 0.0)), f"{mode}-thresholded pattern differs")
    nnz = int(nz.sum())
    require(density == nnz / (n * r), f"density {density!r} is not nnz/(N r) = {nnz / (n * r)!r}")
    if nnz:
        ratio = sparse_dense[nz] / raw[nz]
        s = float(ratio[0])
        require(0.0 < s <= 1.0 + 1e-12 and float(np.abs(ratio - s).max()) <= 1e-12 * s,
                "thresholded values are not one common scale of the expected values")
    b = sparse_dense * np.sqrt(-d)[None, :]
    top = float(np.linalg.eigvalsh(b.T @ b).max()) if r else 0.0
    smallest = c - top
    require(smallest >= alpha * (1 - 1e-9),
            f"smallest eigenvalue {smallest:.6g} < alpha {alpha:.6g}")
    if gap is not None:
        old = (u * d[None, :]) @ u.T
        new = (sparse_dense * d[None, :]) @ sparse_dense.T
        measured = float(np.abs(np.linalg.eigvalsh(new - old)).max())
        bound = (2 * lam + lam * lam) * (beta - alpha)
        require(measured <= bound * (1 + 1e-9), f"spectral gap {measured:.6g} > bound {bound:.6g}")
        require(abs(gap - measured) <= 1e-8 * max(1.0, measured),
                f"reported spectral gap {gap!r} differs from {measured!r}")


# -- model files and the study ------------------------------------------------

def check_same_arrays(saved: dict, loaded: dict) -> None:
    """Every array and scalar read back equals the one written, exactly."""
    require(saved.keys() == loaded.keys(), "model fields differ after reading back")
    for key, want in saved.items():
        got = loaded[key]
        require(np.array_equal(np.asarray(got), np.asarray(want)),
                f"model field {key!r} changed after reading back")


def check_study(rows, repetitions, grid) -> None:
    """3 rows per repetition, finite KL >= 0, every rho on the grid, and the
    validated Riccati fit beats the isotropic baseline on mean KL."""
    require(len(rows) == 3 * repetitions, f"{len(rows)} rows for {repetitions} repetitions")
    grid = np.asarray(grid, dtype=np.float64)
    kl = {}
    for rep, method, rho, value, _ in rows:
        require(0 <= rep < repetitions, f"repetition index {rep} out of range")
        require(np.isfinite(value) and value >= 0.0, f"KL {value!r} is not finite and >= 0")
        if method == "isotropic":
            require(np.isnan(rho), "isotropic baseline reports a rho")
        else:
            require(np.any(grid == rho), f"{method} rho {rho!r} is not on the grid")
        kl.setdefault(method, []).append(value)
    require(sorted(kl) == ["isotropic", "riccati", "tikhonov"], f"methods {sorted(kl)}")
    require(all(len(v) == repetitions for v in kl.values()), "a method misses repetitions")
    ric, iso = np.mean(kl["riccati"]), np.mean(kl["isotropic"])
    require(ric < iso, f"Riccati mean KL {ric:.4g} is not below the isotropic {iso:.4g}")
