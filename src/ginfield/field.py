"""The limiting Gaussian field on the disk and its truncated samples, as one
coefficient array a[n, k-1] for n >= 0 (order -n is the conjugate of order
n), and the tightness statistic of the finite-N field.

The field is represented only through basis coefficients, since the limit
object is a distribution, not a function; its values at two points, at an
explicit cutoff, are read through the exact law of that pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import eval_matrix, root_window, sobolev_norm


@dataclass(frozen=True)
class FieldSample:
    """One truncated draw of a real field: coefficients a[n, k-1] over
    0 <= n <= n_max, 1 <= k <= k_max, with row 0 real and order -n the
    conjugate of order n."""

    coeffs: np.ndarray


def _coeff_arrays(rng, cutoff, table):
    """Sampled coefficients a[n, k-1] of one draw of the limit field:
    a_{0,k} = sqrt(pi) A_k / j_{0,k} and
    a_{n,k} = sqrt(pi) (Z_{n,k} + W_n / sqrt(n)) / j_{n,k} for n >= 1.
    A, Z and W are drawn from rng in that order.
    """
    j, _ = root_window(cutoff, table)
    n_max, k_max = cutoff
    rt = math.sqrt(math.pi)
    a = np.empty((n_max + 1, k_max), dtype=complex)
    a[0] = rt * rng.standard_normal(k_max) / j[0]
    # rows n >= 1 in place, Z drawn straight into them
    an = a[1:]
    an.real = rng.standard_normal((n_max, k_max))
    an.imag = rng.standard_normal((n_max, k_max))
    an /= math.sqrt(2)
    W = (rng.standard_normal(n_max) + 1j * rng.standard_normal(n_max)) / math.sqrt(2)
    an += W[:, None] / np.sqrt(np.arange(1, n_max + 1))[:, None]
    an *= rt
    an /= j[1:]
    return a


def sample_h(cutoff, seed, table):
    """One truncated sample of the limit field as a FieldSample."""
    n_max, k_max = cutoff
    if n_max < 1 or k_max < 1:
        raise ValueError("cutoffs must be >= 1")
    return FieldSample(_coeff_arrays(np.random.default_rng(seed), cutoff, table))


def expected_norm_sq(s, cutoff, table):
    """E of the squared H^{-s} norm of the truncated field:
    pi sum_k j_{0,k}^{-2-2s} + 2 pi sum_{n,k>=1} (1 + 1/n) j_{n,k}^{-2-2s}."""
    if not 0 < s < math.inf:
        raise ValueError(f"requires finite s > 0, got {s!r}")
    j, mult = root_window(cutoff, table)
    # E|a_{n,k}|^2 j_{n,k}^2 / pi: 1 for n = 0, 1 + 1/n for n >= 1
    var = np.append(1.0, 1.0 + 1.0 / np.arange(1, cutoff[0] + 1))[:, None]
    return math.pi * float(np.sum(mult * var * j ** (-2.0 - 2.0 * s)))


def field_norm_sq(sample, s, table):
    """Squared H^{-s} norm of one truncated sample."""
    return sobolev_norm(sample.coeffs, -s, table)


_BLOCK = 1 << 14  # draws per block of covariance_mc: 256 KiB of normals


@lru_cache(maxsize=8)
def _pair_factor(z, w, cutoff, table):
    """R of M = QR, M (width x 2) the weights in h(z) and h(w) of the
    standard normals that _coeff_arrays draws, so R^T R = M^T M is the exact
    covariance of the pair.  R has len(R) <= 2 rows and may be singular (a
    point on the circle).  Read-only, built once per z, w, cutoff and table."""
    n_max, k_max = cutoff
    j, _ = root_window(cutoff, table)
    E = math.sqrt(math.pi) * eval_matrix(np.array([z, w]), n_max, k_max, table) / j
    # rows n >= 1 enter twice (order -n) and carry the 1/sqrt(2) of Z and W
    c_Z = math.sqrt(2) * E[:, 1:, :]
    c_W = c_Z.sum(axis=2) / np.sqrt(np.arange(1, n_max + 1))
    c_Z = c_Z.reshape(2, n_max * k_max)
    M = np.hstack([E[:, 0, :].real, c_Z.real, c_Z.imag, c_W.real, c_W.imag]).T
    R = np.linalg.qr(M, mode="r")
    R.flags.writeable = False
    return R


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
        raise ValueError("use distinct points; the diagonal diverges with cutoff")
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

    Counts negative orders through conjugation symmetry: the weighted sum
    of multiplicity x j^{-2s'} x |gamma|^2 over the runs' shared index set
    and matrix size, to verify that the norm stays bounded as that size
    grows (s' > 2).
    """
    if not 2 < s_prime < math.inf:
        raise ValueError(f"tightness regime requires finite s' > 2, got {s_prime!r}")
    if not runs:
        raise ValueError("need at least one run")
    index_set, N = runs[0].index_set, runs[0].matrix_size
    if any((run.index_set, run.matrix_size) != (index_set, N) for run in runs):
        raise ValueError("runs must share one index set and one matrix size")
    weights = np.array(
        [(1.0 if n == 0 else 2.0) * table.root(n, k) ** (-2.0 * s_prime) for n, k in index_set]
    )
    values = np.stack([run.values for run in runs])
    return float(np.mean(np.abs(values) ** 2 @ weights))

