"""Centered linear statistics of the log-kernel coefficients, their exact
finite-N moments, their limiting Gaussian law, and their Monte-Carlo draws.

gamma_{n,k}^(N) is the centered linear statistic of alpha_{n,k} over one
Ginibre spectrum.  Its limit is sqrt(pi)/j_{n,k} times a standard Gaussian
for n = 0, and sqrt(pi)/j_{n,k} (Z + W/sqrt(n)) for n >= 1 with the complex
Gaussian W shared across all k at fixed n, and gamma_{-n,k} is conj(gamma_{n,k}):
the law that limit_covariance_matrix alone states, as the pair (C, P).  Its
exact finite-N mean is ginibre.radial_mean of alpha_{n,k}'s radial factor;
its variances over a set of (n, N) cases take one ginibre.radial_pair_variances call.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ginibre import radial_mean, radial_pair_variances, sample_spectrum
from .logkernel import alpha_radial, alpha_radial_piecewise

# Most eigenvalues in one block of draws, the unit of Monte-Carlo work.
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
    """E sum_i alpha_{n,k}(z_i): the radial mean of alpha_{0,k} for n = 0,
    and exactly zero for n != 0 by rotational symmetry of rho_N."""
    return radial_mean(partial(alpha_radial, 0, k, table=table), N) if n == 0 else 0.0


def alpha_values(n, k, zs, table):
    """alpha_{n,k} evaluated at an array of complex points."""
    return alpha_radial(n, k, np.abs(zs), table) * np.exp(-1j * n * np.angle(zs))


def _gamma_block(Z, index_set, table):
    """Uncentered gamma over the spectra Z of shape (M, N), one row each.

    One alpha_radial_piecewise call over all k of an order and one angular
    factor per order serve the whole block.  Each entry depends only on its
    own spectrum and index, and is within about N 1e-15 of the sum of
    alpha_values over its spectrum.
    """
    r = np.abs(Z)
    theta = np.angle(Z)
    out = np.empty((Z.shape[0], len(index_set)), dtype=complex)
    for n in dict.fromkeys(n for n, _ in index_set):
        cols = [i for i, (m, _) in enumerate(index_set) if m == n]
        ks = np.array([index_set[i][1] for i in cols])
        g = alpha_radial_piecewise(n, ks, r, table)
        out[:, cols] = np.sum(g * np.exp(-1j * n * theta), axis=-1).T
    return out


def limit_covariance(idx1, idx2, table):
    """Limiting second moments (E gamma1 conj(gamma2), E gamma1 gamma2) of
    two signed indices: the (0, 1) entries of limit_covariance_matrix."""
    C, P = limit_covariance_matrix((idx1, idx2), table)
    return complex(C[0, 1]), complex(P[0, 1])


def limit_covariance_matrix(index_set, table):
    """The limit law over an index set of signed orders: its covariance
    C = E gamma_a conj(gamma_b) and pseudo-covariance P = E gamma_a gamma_b.
    C is pi / (j_a j_b) ([k_a = k_b] + [n != 0] / |n|) for n_a = n_b = n and
    0 across different n, where the shared complex Gaussian of order n
    couples all k.  Since gamma_{-n,k} = conj(gamma_{n,k}), P(a, b) is
    C(a, -b): the same entries on the blocks n_a = -n_b.  KeyError past the
    table."""
    n, k = np.array(index_set, dtype=int).reshape(-1, 2).T
    j = table.root(n, k)
    inv_n = np.where(n != 0, 1.0 / np.maximum(np.abs(n), 1), 0.0)
    c = math.pi / np.outer(j, j) * ((k[:, None] == k) + inv_n[:, None])
    return tuple(np.where(n[:, None] == s * n, c, 0.0).astype(complex) for s in (1, -1))


# ---------------------------------------------------------------------------
# Monte-Carlo draws and the exact-variance checks
# ---------------------------------------------------------------------------


def _gamma_draws_block(N, master_seed, index_set, table, b0, b1):
    """Uncentered gamma of draws b0 .. b1 - 1, each eigensolved through the trace certificate."""
    Z = np.array([sample_spectrum(N, master_seed, i) for i in range(b0, b1)])
    return _gamma_block(Z, index_set, table)


def gamma_draws(N, draws, index_set, master_seed, table, workers=1):
    """Matrix of gamma values, shape (draws, len(index_set)); deterministic
    per (master_seed, draw index) independent of worker count.  The draws
    are cut once, into blocks of at most _BLOCK_EIGENVALUES eigenvalues and
    ceil(draws / workers) draws, and centered once, at the end."""
    index_set = tuple((int(n), int(k)) for n, k in index_set)
    cent = [centering_term(n, k, N, table) for n, k in index_set]
    # the pool starts all max_workers processes at the first submit
    workers = max(1, min(workers, draws))
    step = max(1, min(_BLOCK_EIGENVALUES // N, math.ceil(draws / workers)))
    bounds = [*range(0, draws, step), draws]
    run = partial(_gamma_draws_block, N, master_seed, index_set, table)
    if workers == 1:
        blocks = map(run, bounds[:-1], bounds[1:])
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run, bounds[:-1], bounds[1:]))
    # the empty head keeps the shape and the complex dtype at zero draws
    return np.concatenate([np.empty((0, len(index_set)), dtype=complex), *blocks]) - cent


def _variance_rows(cases, k_list, table, **scales):
    """Exact variance of gamma_{n,k}^(N) for every (n, N) case and every k,
    one row each with key = scale(variance, n, j_{n,k}) for each scale: one
    radial_pair_variances call, whose alpha rows of every order and k come
    from one alpha_radial call."""
    variances = radial_pair_variances(lambda ns, r: alpha_radial(ns, k_list, r, table), cases)
    roots = table.root(np.reshape([n for n, _ in cases], (-1, 1)), k_list).tolist()
    return [
        {"n": n, "k": k, "N": N, "variance": v, **{key: f(v, n, j) for key, f in scales.items()}}
        for (n, N), vs, js in zip(cases, variances, roots)
        for k, v, j in zip(k_list, vs, js)
    ]


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
