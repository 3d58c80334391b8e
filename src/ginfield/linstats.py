"""Centered linear statistics of the log-kernel coefficients, their limiting
Gaussian law, and Monte-Carlo CLT experiments.

gamma_{n,k}^(N) is the centered linear statistic of alpha_{n,k} over one
Ginibre spectrum.  Its limit is sqrt(pi)/j_{n,k} times a standard Gaussian
for n = 0, and sqrt(pi)/j_{n,k} (Z + W/sqrt(n)) for n >= 1 with the complex
Gaussian W shared across all k at fixed n.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ginibre import _plane_rule, radial_pair_variance, sample_spectrum
from .logkernel import alpha_radial, alpha_radial_piecewise

# Eigenvalues per block of spectra that _gamma_draws_range evaluates at once.
_BLOCK_EIGENVALUES = 2**14


@dataclass(frozen=True)
class GammaSample:
    """Values gamma_{n,k}^(N) over an index set (n >= 0) for one draw.

    Negative orders follow from gamma_{-n,k} = conj(gamma_{n,k}).
    """

    index_set: tuple
    values: np.ndarray
    matrix_size: int
    seed: int


def centering_term(n, k, N, table):
    """E sum_i alpha_{n,k}(z_i); exactly zero for n != 0 by rotational
    symmetry of the one-point density, a radial integral for n = 0.  Reads
    the plane rule and rho_N from ginibre._plane_rule(N), the cache of the
    radial exact routes, which builds the radial kernel factors too."""
    if n != 0:
        return 0.0
    quad, rho, _ = _plane_rule(N)
    g = alpha_radial(0, k, quad.r, table)
    return float(2.0 * math.pi * np.sum(g * rho * quad.wr))


def alpha_values(n, k, zs, table):
    """alpha_{n,k} evaluated at an array of complex points."""
    r = np.abs(zs)
    g = alpha_radial(n, k, r, table)
    return g * np.exp(-1j * n * np.angle(zs))


def _gamma_block(Z, index_set, table, centerings):
    """gamma over the spectra Z of shape (M, N), one row per spectrum.

    One alpha_radial_piecewise call over all k of an order and one angular
    factor per order serve the whole block.  Each entry depends only on its
    own spectrum and index, and is within about N 1e-15 of the sum of
    alpha_values over its spectrum minus its centering.
    """
    r = np.abs(Z)
    theta = np.angle(Z)
    out = np.empty((Z.shape[0], len(index_set)), dtype=complex)
    for n in dict.fromkeys(n for n, _ in index_set):
        cols = [i for i, (m, _) in enumerate(index_set) if m == n]
        ks = np.array([index_set[i][1] for i in cols])
        cent = np.array([centerings[index_set[i]] for i in cols])
        g = alpha_radial_piecewise(n, ks, r, table)
        out[:, cols] = (np.sum(g * np.exp(-1j * n * theta), axis=-1) - cent[:, None]).T
    return out


def limit_covariance(idx1, idx2, table):
    """Limiting second moments (E gamma1 conj(gamma2), E gamma1 gamma2) of
    two indices with n >= 0: the (0, 1) entry of limit_covariance_matrix,
    and the same value as the plain moment when n = 0, where gamma is real
    (0 otherwise)."""
    c = complex(limit_covariance_matrix((idx1, idx2), table)[0, 1])
    return c, (c if idx1[0] == 0 else 0j)


def limit_covariance_matrix(index_set, table):
    """Conjugate covariance matrix E gamma_a conj(gamma_b) over an index set
    with n >= 0: pi / (j_a j_b) ([k_a = k_b] + [n > 0] / n) for n_a = n_b = n,
    0 across different n, where the shared complex Gaussian of order n
    couples all k.  ValueError for n < 0, KeyError past the table."""
    n, k = np.array(index_set, dtype=int).reshape(-1, 2).T
    if np.any(n < 0):
        raise ValueError("limit covariance is stated for n >= 0")
    j = np.array([table.root(*idx) for idx in zip(n, k)])
    inv_n = np.where(n > 0, 1.0 / np.maximum(n, 1), 0.0)
    c = math.pi / np.outer(j, j) * ((k[:, None] == k) + inv_n[:, None])
    return np.where(n[:, None] == n, c, 0.0).astype(complex)


# ---------------------------------------------------------------------------
# Monte-Carlo experiments
# ---------------------------------------------------------------------------


def _gamma_draws_range(N, master_seed, index_set, table, centerings, i0, i1):
    """gamma of draws i0 .. i1 - 1, eigensolved one by one through the trace
    certificate and evaluated in blocks of at most _BLOCK_EIGENVALUES."""
    step = max(1, _BLOCK_EIGENVALUES // N)
    out = np.empty((i1 - i0, len(index_set)), dtype=complex)
    for b0 in range(i0, i1, step):
        b1 = min(b0 + step, i1)
        Z = np.array([sample_spectrum(N, master_seed, i).eigenvalues for i in range(b0, b1)])
        out[b0 - i0 : b1 - i0] = _gamma_block(Z, index_set, table, centerings)
    return out


def gamma_draws(N, draws, index_set, master_seed, table, workers=1):
    """Matrix of gamma values, shape (draws, len(index_set)); deterministic
    per (master_seed, draw index) independent of worker count."""
    index_set = tuple((int(n), int(k)) for n, k in index_set)
    centerings = {idx: centering_term(idx[0], idx[1], N, table) for idx in index_set}
    run = partial(_gamma_draws_range, N, master_seed, index_set, table, centerings)
    # the pool starts all max_workers processes at the first submit
    workers = min(workers, draws)
    if workers <= 1:
        return run(0, draws)
    bounds = np.linspace(0, draws, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.vstack(list(pool.map(run, bounds[:-1], bounds[1:])))


def _ks_against_normal(x):
    # scipy.stats costs about 0.9 s and 44 MB to import, so only the clt
    # report pays for it
    from scipy import stats

    res = stats.kstest(x, "norm")
    return float(res.statistic), float(res.pvalue)


def clt_experiment(N, draws, index_set, master_seed, table, workers=1):
    """CLT experiment report for gamma over an index set at matrix size N.

    Contains empirical means and covariances with standard errors, the
    limiting covariance, per-marginal Kolmogorov-Smirnov statistics of the
    standardized real and imaginary parts, and the exact finite-N
    pair-variance values.
    """
    index_set = tuple((int(n), int(k)) for n, k in index_set)
    G = gamma_draws(N, draws, index_set, master_seed, table, workers=workers)
    m = len(index_set)
    mean = G.mean(axis=0)
    Gc = G - mean
    cov = (Gc.conj().T @ Gc) / (draws - 1)
    pseudo = (Gc.T @ Gc) / (draws - 1)
    limit = limit_covariance_matrix(index_set, table)
    # standard errors: mean via marginal std; variance entries via the
    # Gaussian formula var(S^2) ~ 2 sigma^4 / (M-1) on each diagonal
    se_mean = np.sqrt(np.real(np.diag(cov)) / draws)
    se_var = np.sqrt(2.0 / (draws - 1)) * np.real(np.diag(cov))
    ks = {}
    for jdx, (n, k) in enumerate(index_set):
        sigma = math.sqrt(limit[jdx, jdx].real * (0.5 if n > 0 else 1.0))
        ks[f"re_{n}_{k}"] = _ks_against_normal(G[:, jdx].real / sigma)
        if n > 0:
            ks[f"im_{n}_{k}"] = _ks_against_normal(G[:, jdx].imag / sigma)
    exact = {
        f"{n}_{k}": radial_pair_variance(partial(alpha_radial, n, k, table=table), n, N)
        for (n, k) in index_set
    }
    return {
        "N": N,
        "draws": draws,
        "seed": master_seed,
        "index_set": [list(i) for i in index_set],
        "empirical_mean": [[v.real, v.imag] for v in mean],
        "empirical_cov": [[[c.real, c.imag] for c in row] for row in cov],
        "empirical_pseudo_cov": [[[c.real, c.imag] for c in row] for row in pseudo],
        "limit_cov": [[[c.real, c.imag] for c in row] for row in limit],
        "se_mean": list(se_mean),
        "se_var": list(se_var),
        "ks": {key: {"statistic": v[0], "pvalue": v[1]} for key, v in ks.items()},
        "exact_pair_variance": exact,
    }


def _variance_rows(cases, k_list, table, key, scale):
    """Exact pair variance of alpha_{n,k} for every (n, N) case and every k,
    one row each with key = scale(variance, n, j_{n,k}); the plane rule and
    kernel of each N come from ginibre._plane_rule, built once per N."""
    rows = []
    for n, N in cases:
        for k in k_list:
            v = radial_pair_variance(partial(alpha_radial, n, k, table=table), n, N)
            j = table.root(n, k)
            rows.append({"n": n, "k": k, "N": N, "variance": v, key: scale(v, n, j)})
    return rows


def variance_bound_check(n_list, k_list, N_list, table):
    """Exact pair-variance of alpha over an index grid, with the ratio to
    j_{n,k}^2 and the single calibrated constant covering all entries."""
    cases = [(n, N) for N in N_list for n in n_list]
    rows = _variance_rows(cases, k_list, table, "ratio", lambda v, n, j: v / j**2)
    return {"entries": rows, "calibrated_C": max(r["ratio"] for r in rows)}


def decay_check(cases, k_list, table):
    """High-order decay check: for |n| >= N the exact variance obeys
    E|gamma|^2 <= C' / (|n| j^2); reports the observed constants."""
    rows = _variance_rows(cases, k_list, table, "scaled", lambda v, n, j: v * abs(n) * j**2)
    return {"entries": rows, "calibrated_Cprime": max(r["scaled"] for r in rows)}
