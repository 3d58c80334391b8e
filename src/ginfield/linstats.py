"""Centered linear statistics of the log-kernel coefficients, their exact
finite-N moments, their limiting Gaussian law, and their Monte-Carlo draws.

gamma_{n,k}^(N) is the centered linear statistic of alpha_{n,k} over one
Ginibre spectrum.  Its limit is sqrt(pi)/j_{n,k} times a standard Gaussian
for n = 0, and sqrt(pi)/j_{n,k} (Z + W/sqrt(n)) for n >= 1 with the complex
Gaussian W shared across all k at fixed n.  Its exact finite-N mean is
ginibre.radial_mean of alpha_{n,k}'s radial factor; its variances over a
set of (n, N) cases take one ginibre.radial_pair_variances call.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ginibre import radial_mean, radial_pair_variances, sample_spectrum
from .logkernel import alpha_radial, alpha_radial_piecewise

# Eigenvalues per block of spectra that _gamma_draws_range evaluates at once.
_BLOCK_EIGENVALUES = 2**14
# Largest calibrated_C and calibrated_Cprime that criterion 5 accepts, and
# the largest max_sharp_ratio that pair-variance accepts.
VARIANCE_C_MAX, DECAY_CPRIME_MAX, SHARP_RATIO_MAX = 0.2, 6.0, 1.0 + 1e-9


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
    """E sum_i alpha_{n,k}(z_i): the radial mean of alpha_{0,k} for n = 0,
    and exactly zero for n != 0 by rotational symmetry of rho_N."""
    return radial_mean(partial(alpha_radial, 0, k, table=table), N) if n == 0 else 0.0


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
# Monte-Carlo draws and the exact-variance checks
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


def _variance_rows(cases, k_list, table, **scales):
    """Exact variance of gamma_{n,k}^(N) for every (n, N) case and every k,
    one row each with key = scale(variance, n, j_{n,k}) for each scale: one
    radial_pair_variances call, whose alpha rows of all k come from one
    alpha_radial call per order."""
    variances = radial_pair_variances(lambda n, r: alpha_radial(n, k_list, r, table), cases)
    rows = []
    for (n, N), vs in zip(cases, variances):
        for k, v in zip(k_list, vs):
            j = table.root(n, k)
            row = {"n": n, "k": k, "N": N, "variance": v}
            rows.append(row | {key: scale(v, n, j) for key, scale in scales.items()})
    return rows


def variance_bound_check(n_list, k_list, N_list, table):
    """Exact pair-variance of alpha over an index grid, with the ratio to
    j_{n,k}^2 and the single calibrated constant covering all entries, and
    the sharp ratio to the limit variance pi (1 + 1/n) / j^2 (no 1/n for
    n = 0) with its maximum."""
    cases = [(n, N) for N in N_list for n in n_list]
    rows = _variance_rows(
        cases, k_list, table, ratio=lambda v, n, j: v / j**2,
        sharp_ratio=lambda v, n, j: v * j**2 / (math.pi * (1.0 + (1.0 / abs(n) if n else 0.0))),
    )
    return {"entries": rows, "calibrated_C": max(r["ratio"] for r in rows),
            "max_sharp_ratio": max(r["sharp_ratio"] for r in rows)}


def decay_check(cases, k_list, table):
    """High-order decay check: for |n| >= N the exact variance obeys
    E|gamma|^2 <= C' / (|n| j^2); reports the observed constants."""
    rows = _variance_rows(cases, k_list, table, scaled=lambda v, n, j: v * abs(n) * j**2)
    return {"entries": rows, "calibrated_Cprime": max(r["scaled"] for r in rows)}
