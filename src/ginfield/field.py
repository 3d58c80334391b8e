"""The limiting Gaussian field on the disk and its truncated samples, as one
coefficient array a[n, k-1] for n >= 0 whose norms weigh |a|^2 by
basis.sobolev_weights, and the tightness statistic of the finite-N field.

The field is represented only through basis coefficients, since the limit
object is a distribution, not a function; its values at two points, at an
explicit cutoff, are read through the exact law of that pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    SingularityError, eval_matrix, frozen_cache, root_window, sobolev_norm, sobolev_weights
)


@dataclass(frozen=True)
class FieldSample:
    """One truncated draw of a real field: coefficients a[n, k-1] over
    0 <= n <= n_max, 1 <= k <= k_max, with row 0 real and order -n the
    conjugate of order n."""

    coeffs: np.ndarray


@frozen_cache(maxsize=8)
def _coeff_scales(cutoff, table):
    """j_{0,k}, 1 / j_{n,k} for n >= 1 and the column 1 / sqrt(n) of a cutoff,
    read-only, built once per cutoff and table: _coeff_arrays and _pair_factor read them."""
    j = root_window(cutoff, table)
    return j[0], 1.0 / j[1:], 1.0 / np.sqrt(np.arange(1, cutoff[0] + 1))[:, None]


def _coeff_arrays(rng, cutoff, table):
    """Sampled coefficients a[n, k-1] of one draw of the limit field:
    a_{0,k} = sqrt(pi) A_k / j_{0,k} and
    a_{n,k} = sqrt(pi) (Z_{n,k} + W_n / sqrt(n)) / j_{n,k} for n >= 1.
    A, then Z, then W are drawn from rng, real parts before imaginary.
    Rows n >= 1 are built in real arithmetic, each division a multiply by
    the reciprocal as numpy's complex-by-real division does it, so the bits
    are those of the complex form.
    """
    j0, inv_j, inv_n = _coeff_scales(tuple(cutoff), table)
    n_max, k_max = cutoff
    rt = math.sqrt(math.pi)
    a = np.empty((n_max + 1, k_max), dtype=complex)
    a[0] = rt * rng.standard_normal(k_max) / j0
    Z = rng.standard_normal((2, n_max, k_max))
    W = rng.standard_normal((2, n_max, 1))
    Z *= 1.0 / math.sqrt(2)
    W *= 1.0 / math.sqrt(2)
    W *= inv_n
    Z += W
    Z *= rt
    Z *= inv_j
    a[1:].real, a[1:].imag = Z
    return a


def sample_h(cutoff, seed, table):
    """One truncated sample of the limit field as a FieldSample; KeyError
    for a cutoff past the table or one that holds no index."""
    return FieldSample(_coeff_arrays(np.random.default_rng(seed), cutoff, table))


def expected_norm_sq(s, cutoff, table):
    """E of the squared H^{-s} norm of the truncated field:
    pi sum_k j_{0,k}^{-2-2s} + 2 pi sum_{n,k>=1} (1 + 1/n) j_{n,k}^{-2-2s}."""
    if not 0 < s < math.inf:
        raise ValueError(f"requires finite s > 0, got {s!r}")
    # E|a_{n,k}|^2 j_{n,k}^2 / pi: 1 for n = 0, 1 + 1/n for n >= 1
    var = np.append(1.0, 1.0 + 1.0 / np.arange(1, cutoff[0] + 1))[:, None]
    return math.pi * float(np.sum(var * sobolev_weights(tuple(cutoff), -1.0 - s, table)))


def field_norm_sq(sample, s, table):
    """Squared H^{-s} norm of one truncated sample."""
    return sobolev_norm(sample.coeffs, -s, table)


_BLOCK = 1 << 14  # draws per block of covariance_mc: 256 KiB of normals


@frozen_cache(maxsize=8)
def _pair_factor(z, w, cutoff, table):
    """R of M = QR, M (width x 2) the weights in h(z) and h(w) of the
    standard normals that _coeff_arrays draws, so R^T R = M^T M is the exact
    covariance of the pair.  R has len(R) <= 2 rows and may be singular (a
    point on the circle).  Read-only, built once per z, w, cutoff and table."""
    n_max, k_max = cutoff
    j0, inv_j, inv_n = _coeff_scales(cutoff, table)
    E = math.sqrt(math.pi) * eval_matrix(np.array([z, w]), n_max, k_max, table)
    # rows n >= 1 enter twice (order -n) and carry the 1/sqrt(2) of Z and W
    c_Z = math.sqrt(2) * (E[:, 1:] * inv_j)
    c_W = c_Z.sum(axis=2) * inv_n[:, 0]
    c_Z = c_Z.reshape(2, n_max * k_max)
    M = np.hstack([(E[:, 0] / j0).real, c_Z.real, c_Z.imag, c_W.real, c_W.imag]).T
    return np.linalg.qr(M, mode="r")


def truncated_covariance(z, w, cutoff, table):
    """Exact 2 x 2 covariance of (h(z), h(w)) at a fixed cutoff."""
    R = _pair_factor(complex(z), complex(w), tuple(cutoff), table)
    return R.T @ R


def covariance_mc(z, w, cutoff, draws, seed, table):
    """Monte-Carlo estimate of E h(z) h(w) at a fixed cutoff.

    The field is linear in its standard normals, so (h(z), h(w)) is the
    Gaussian pair x R, with R = _pair_factor(z, w, cutoff, table) and x
    len(R) <= 2 standard normals.  Each draw takes its x from one seeded
    generator, in blocks of at most _BLOCK draws.  R is cached by z, w, the
    cutoff and the table, so repeated seeded blocks at the same points
    reuse it; a -0 imaginary part gives the value, and the cache entry, of
    +0.
    """
    z = complex(z)
    w = complex(w)
    if z == w:
        raise SingularityError("use distinct points; the diagonal diverges with cutoff")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    R = _pair_factor(z, w, tuple(cutoff), table)
    rng = np.random.default_rng(seed)
    acc = 0.0
    for done in range(0, draws, _BLOCK):
        h = rng.standard_normal((min(_BLOCK, draws - done), len(R))) @ R
        acc += float(h[:, 0] @ h[:, 1])
    return acc / draws


def tightness_statistic(runs, s_prime, table):
    """Empirical mean of the squared H^{-s'} norm over GammaSample runs.

    Counts negative orders through conjugation symmetry: the sum of
    |gamma|^2 weighted by sobolev_weights at -s' over the runs' shared index
    set and matrix size, to verify that the norm stays bounded as
    that size grows (s' > 2).  KeyError for an index outside the table.
    """
    if not 2 < s_prime < math.inf:
        raise ValueError(f"tightness regime requires finite s' > 2, got {s_prime!r}")
    if not runs:
        raise ValueError("need at least one run")
    index_set, N = runs[0].index_set, runs[0].matrix_size
    if any((run.index_set, run.matrix_size) != (index_set, N) for run in runs):
        raise ValueError("runs must share one index set and one matrix size")
    n, k = np.array(index_set, dtype=int).reshape(-1, 2).T
    table.root(n, k)  # the range check, before the window below is read
    n = np.abs(n)  # order -n weighs as order n
    weights = sobolev_weights((n.max(initial=0), k.max(initial=1)), -s_prime, table)[n, k - 1]
    values = np.stack([run.values for run in runs])
    return float(np.mean(np.abs(values) ** 2 @ weights))

