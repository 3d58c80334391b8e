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
from scipy import stats

from .basis import DiskQuadrature
from .ginibre import (
    PlaneQuadrature,
    draw_seed,
    eigenvalues,
    one_point_density,
    radial_pair_variance,
    sample_matrix,
)
from .logkernel import alpha_radial, alpha_radial_derivative

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

    def value(self, n, k):
        if n >= 0:
            return complex(self.values[self.index_set.index((n, k))])
        return complex(np.conj(self.values[self.index_set.index((-n, k))]))


def centering_term(n, k, N, table, quad=None):
    """E sum_i alpha_{n,k}(z_i); exactly zero for n != 0 by rotational
    symmetry of the one-point density, a radial integral for n = 0."""
    if n != 0:
        return 0.0
    quad = quad or PlaneQuadrature.build(N)
    g = alpha_radial(0, k, quad.r, table)
    rho = one_point_density(N, quad.r)
    return float(2.0 * math.pi * np.sum(g * rho * quad.wr))


def _centerings(index_set, N, table):
    """centering_term of every index, on one shared plane rule."""
    quad = PlaneQuadrature.build(N)
    return {idx: centering_term(idx[0], idx[1], N, table, quad) for idx in index_set}


def alpha_values(n, k, zs, table):
    """alpha_{n,k} evaluated at an array of complex points."""
    r = np.abs(zs)
    g = alpha_radial(n, k, r, table)
    return g * np.exp(-1j * n * np.angle(zs))


def _gamma_block(Z, index_set, table, centerings):
    """gamma over the spectra Z of shape (M, N), one row per spectrum.

    One alpha_radial call over all k of an order and one angular factor per
    order serve the whole block; each entry is bit-identical to the sum of
    alpha_values over its spectrum minus its centering.
    """
    r = np.abs(Z)
    theta = np.angle(Z)
    out = np.empty((Z.shape[0], len(index_set)), dtype=complex)
    for n in dict.fromkeys(n for n, _ in index_set):
        cols = [i for i, (m, _) in enumerate(index_set) if m == n]
        ks = np.array([index_set[i][1] for i in cols])
        cent = np.array([centerings[index_set[i]] for i in cols])
        g = alpha_radial(n, ks, r, table)
        out[:, cols] = (np.sum(g * np.exp(-1j * n * theta), axis=-1) - cent[:, None]).T
    return out


def gamma(sample, index_set, table, centerings=None):
    """Centered linear statistics of alpha over one spectrum sample."""
    index_set = tuple((int(n), int(k)) for n, k in index_set)
    if any(n < 0 for n, _ in index_set):
        raise ValueError("index set must have n >= 0")
    if centerings is None:
        centerings = _centerings(index_set, sample.matrix_size, table)
    vals = _gamma_block(sample.eigenvalues[None, :], index_set, table, centerings)[0]
    return GammaSample(
        index_set=index_set,
        values=vals,
        matrix_size=sample.matrix_size,
        seed=sample.seed,
    )


def limit_covariance(idx1, idx2, table):
    """Limiting second moments (E gamma1 conj(gamma2), E gamma1 gamma2).

    Entries are independent across different n; at fixed n >= 1 the shared
    complex Gaussian couples all k with cross term pi / (n j_k j_l).
    """
    n1, k1 = idx1
    n2, k2 = idx2
    if n1 < 0 or n2 < 0:
        raise ValueError("limit covariance is stated for n >= 0")
    if n1 != n2:
        return 0.0 + 0.0j, 0.0 + 0.0j
    j1 = table.root(n1, k1)
    j2 = table.root(n2, k2)
    if n1 == 0:
        c = math.pi / j1**2 if k1 == k2 else 0.0
        # gamma_{0,k} is real, so the plain second moment coincides
        return complex(c), complex(c)
    c = math.pi / (j1 * j2) * ((1.0 if k1 == k2 else 0.0) + 1.0 / n1)
    return complex(c), 0.0 + 0.0j


def limit_covariance_matrix(index_set, table):
    """Conjugate covariance matrix over an index set with n >= 0."""
    m = len(index_set)
    out = np.zeros((m, m), dtype=complex)
    for a, i1 in enumerate(index_set):
        for b, i2 in enumerate(index_set):
            out[a, b] = limit_covariance(i1, i2, table)[0]
    return out


def limit_quadratic_form(t, s, table):
    """Variance of sum t_{n,k} Re gamma_{n,k} + s_{n,k} Im gamma_{n,k}
    under the limiting law; t, s are dicts keyed by (n, k) with n >= 0."""
    keys = set(t) | set(s)
    if any(n < 0 for n, _ in keys):
        raise ValueError("coefficients are indexed by n >= 0")
    total = 0.0
    ns = sorted({n for n, _ in keys})
    for n in ns:
        kset = sorted({k for m, k in keys if m == n})
        tv = np.array([t.get((n, k), 0.0) for k in kset])
        sv = np.array([s.get((n, k), 0.0) for k in kset])
        js = np.array([table.root(n, k) for k in kset])
        if n == 0:
            total += math.pi * float(np.sum(tv**2 / js**2))
            # Im gamma_{0,k} = 0: s coefficients contribute nothing
            continue
        total += 0.5 * math.pi * float(np.sum((tv**2 + sv**2) / js**2))
        total += (
            0.5
            * math.pi
            / n
            * float(np.sum(tv / js) ** 2 + np.sum(sv / js) ** 2)
        )
    return total


# ---------------------------------------------------------------------------
# Rider-Virag limit variance from gradient + boundary data
# ---------------------------------------------------------------------------


@dataclass
class TestFunction:
    """Real test function on the plane with optional analytic gradient.

    value maps complex arrays to real values; gradient maps complex arrays
    to the pair (df/dx, df/dy).  Without a gradient, central finite
    differences at step 1e-6 are used on the disk quadrature nodes.
    """

    value: callable
    gradient: callable = None

    __test__ = False  # keep pytest from collecting this as a test class

    def grad_sq(self, z):
        if self.gradient is not None:
            fx, fy = self.gradient(z)
            return np.abs(fx) ** 2 + np.abs(fy) ** 2
        h = 1e-6
        fx = (self.value(z + h) - self.value(z - h)) / (2 * h)
        fy = (self.value(z + 1j * h) - self.value(z - 1j * h)) / (2 * h)
        return fx**2 + fy**2


def rv_variance(f, quad=None, boundary_modes=512):
    """Limiting variance of the centered linear statistic of f:
    (1/4pi) * Dirichlet energy over the disk + (1/2) sum |k| |fhat(k)|^2."""
    quad = quad or DiskQuadrature.build(radial_order=160, angular_order=256)
    z = quad.nodes()
    energy = float(np.sum(f.grad_sq(z) * quad.weights()).real)
    theta = 2.0 * math.pi * np.arange(boundary_modes) / boundary_modes
    bvals = np.asarray(f.value(np.exp(1j * theta)), dtype=float)
    fhat = np.fft.fft(bvals) / boundary_modes
    ks = np.fft.fftfreq(boundary_modes, d=1.0 / boundary_modes)
    boundary = 0.5 * float(np.sum(np.abs(ks) * np.abs(fhat) ** 2))
    return energy / (4.0 * math.pi) + boundary


def alpha_combination(t, s, table):
    """TestFunction for sum t_{n,k} Re alpha_{n,k} + s_{n,k} Im alpha_{n,k},
    with analytic gradient from the branch-wise radial derivatives."""
    keys = sorted(set(t) | set(s))
    if any(n < 0 for n, _ in keys):
        raise ValueError("combination is indexed by n >= 0")

    def value(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        th = np.angle(z)
        out = np.zeros(z.shape, dtype=float)
        for (n, k) in keys:
            g = alpha_radial(n, k, r, table)
            tv = t.get((n, k), 0.0)
            sv = s.get((n, k), 0.0)
            out += tv * g * np.cos(n * th) - sv * g * np.sin(n * th)
        return out

    def gradient(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        th = np.angle(z)
        ct, st = np.cos(th), np.sin(th)
        fx = np.zeros(z.shape, dtype=float)
        fy = np.zeros(z.shape, dtype=float)
        for (n, k) in keys:
            g = alpha_radial(n, k, r, table)
            gp = alpha_radial_derivative(n, k, r, table)
            tv = t.get((n, k), 0.0)
            sv = s.get((n, k), 0.0)
            # alpha = g(r) e^{-i n theta}; for Re part the angular factor
            # is cos(n theta), for Im part -sin(n theta)
            cn, sn = np.cos(n * th), np.sin(n * th)
            fr = tv * gp * cn - sv * gp * sn
            ft = -n * (tv * g * sn + sv * g * cn)
            fx += ct * fr - st * ft / r
            fy += st * fr + ct * ft / r
        return fx, fy

    return TestFunction(value=value, gradient=gradient)


# ---------------------------------------------------------------------------
# Monte-Carlo experiments
# ---------------------------------------------------------------------------


def _gamma_draws_range(args):
    """gamma of draws i0 .. i1 - 1, eigensolved one by one through the trace
    certificate and evaluated in blocks of at most _BLOCK_EIGENVALUES."""
    N, master_seed, i0, i1, index_set, table, centerings = args
    step = max(1, _BLOCK_EIGENVALUES // N)
    out = np.empty((i1 - i0, len(index_set)), dtype=complex)
    for b0 in range(i0, i1, step):
        b1 = min(b0 + step, i1)
        Z = np.array(
            [
                eigenvalues(sample_matrix(N, draw_seed(master_seed, i))).eigenvalues
                for i in range(b0, b1)
            ]
        )
        out[b0 - i0 : b1 - i0] = _gamma_block(Z, index_set, table, centerings)
    return out


def gamma_draws(N, draws, index_set, master_seed, table, workers=1):
    """Matrix of gamma values, shape (draws, len(index_set)); deterministic
    per (master_seed, draw index) independent of worker count."""
    index_set = tuple((int(n), int(k)) for n, k in index_set)
    centerings = _centerings(index_set, N, table)
    if workers <= 1:
        return _gamma_draws_range(
            (N, master_seed, 0, draws, index_set, table, centerings)
        )
    bounds = np.linspace(0, draws, workers + 1, dtype=int)
    jobs = [
        (N, master_seed, int(bounds[i]), int(bounds[i + 1]), index_set, table, centerings)
        for i in range(workers)
        if bounds[i + 1] > bounds[i]
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = list(pool.map(_gamma_draws_range, jobs))
    return np.vstack(chunks)


def _ks_against_normal(x):
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
        sigma_re = math.sqrt(limit[jdx, jdx].real * (0.5 if n > 0 else 1.0))
        ks[f"re_{n}_{k}"] = _ks_against_normal(G[:, jdx].real / sigma_re)
        if n > 0:
            sigma_im = math.sqrt(limit[jdx, jdx].real * 0.5)
            ks[f"im_{n}_{k}"] = _ks_against_normal(G[:, jdx].imag / sigma_im)
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


def variance_bound_check(n_list, k_list, N_list, table):
    """Exact pair-variance of alpha over an index grid, with the ratio to
    j_{n,k}^2 and the single calibrated constant covering all entries."""
    rows = []
    for N in N_list:
        quad = PlaneQuadrature.build(N)
        for n in n_list:
            for k in k_list:
                v = radial_pair_variance(partial(alpha_radial, n, k, table=table), n, N, quad)
                j = table.root(n, k)
                rows.append(
                    {"n": n, "k": k, "N": N, "variance": v, "ratio": v / j**2}
                )
    c = max(r["ratio"] for r in rows)
    return {"entries": rows, "calibrated_C": c}


def decay_check(cases, k_list, table):
    """High-order decay check: for |n| >= N the exact variance obeys
    E|gamma|^2 <= C' / (|n| j^2); reports the observed constants."""
    rows = []
    for (n, N) in cases:
        quad = PlaneQuadrature.build(N)
        for k in k_list:
            v = radial_pair_variance(partial(alpha_radial, n, k, table=table), n, N, quad)
            j = table.root(n, k)
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "N": N,
                    "variance": v,
                    "scaled": v * abs(n) * j**2,
                }
            )
    return {"entries": rows, "calibrated_Cprime": max(r["scaled"] for r in rows)}
