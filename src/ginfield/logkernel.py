"""Fourier-Bessel coefficients of z -> log|z - w| and its truncated expansion.

The coefficient alpha_{n,k}(w) has two branches: a disk branch (|w| < 1)
combining the Green's-series term with a harmonic correction, and an
exterior branch (|w| >= 1, including the circle itself).  Both have the
angular structure g(r) e^{-i n theta} in polar coordinates w = r e^{i theta},
so only the radial factor g is computed here.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np
from scipy import special

from .basis import DiskDomainError, SingularityError, green_dirichlet_series, radial_profile

# Tail bound and term cap of the harmonic series Re sum (z conj(w))^m / m.
_HARMONIC_TOL = 1e-14
_HARMONIC_MAX_TERMS = 10_000_000


def alpha_radial(n, k, r, table):
    """Radial factor g(r) of alpha_{n,k}(r e^{i theta}) = g(r) e^{-i n theta}.

    Real-valued; vectorized over r.  k is one radial index or a 1-D integer
    numpy array of them; an array gives shape (len(k),) + r.shape, each row
    bit-identical to the call with its k alone.  Uses the disk branch for
    r < 1 and the exterior branch for r >= 1 (continuous across the circle).
    """
    n = abs(int(n))
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if isinstance(k, np.ndarray):
        # one row per k; each constant in the float arithmetic of its k alone
        k = k[:, None]
        consts = [_branch_constants(n, table.root(n, kk)) for kk in k[:, 0]]
        a, b, c = (np.array(col)[:, None] for col in zip(*consts))
        g = np.empty((len(k),) + r.shape)
        lead = (slice(None),)
    else:
        a, b, c = _branch_constants(n, table.root(n, k))
        g = np.empty_like(r)
        lead = ()
    inside = r < 1.0
    ri, ro = r[inside], r[~inside]
    g_in = a * radial_profile(n, k, ri, table)
    if n == 0:
        g[lead + (~inside,)] = c * np.log(ro)
    else:
        g_in = g_in - b * ri**n
        g[lead + (~inside,)] = c * ro ** (-n)
    g[lead + (inside,)] = g_in
    if scalar:
        return g[..., 0] if lead else float(g[0])
    return g


def _branch_constants(n, j):
    """Factors (a, b, c) of the radial factor at one root j: a * profile -
    b * r^n on the disk, c times r^-n or log r outside."""
    rt = math.sqrt(math.pi)
    a = -(2.0 * math.pi / j**2)
    if n == 0:
        return a, 0.0, 2.0 * rt / j
    return a, rt / (n * j), -(rt / (n * j))


def harmonic_log_series(z, w):
    """-Re sum_{m=1}^{M} q^m / m = log|1 - q| for q = z conj(w), |q| < 1.

    M is the least term count whose tail bound |q|^M / (M (1 - |q|)) falls
    below 1e-14, worked out from |q| before summing; a q that needs more
    than _HARMONIC_MAX_TERMS terms raises ValueError.
    """
    q = complex(z) * np.conj(complex(w))
    aq = abs(q)
    if aq >= 1.0:
        raise ValueError("series requires |z conj(w)| < 1")
    terms = 1
    if aq > 0.0:
        # |q|^M / M = tol (1 - |q|) solved for M by the Lambert W function
        L = -math.log(aq)
        terms = math.ceil(special.lambertw(L / (_HARMONIC_TOL * (1.0 - aq))).real / L)
    if terms > _HARMONIC_MAX_TERMS:
        raise ValueError(
            f"series needs {terms} terms at |z conj(w)| = {aq!r}, "
            f"more than the cap of {_HARMONIC_MAX_TERMS}"
        )
    powers = itertools.accumulate(itertools.repeat(q, terms), operator.mul)
    return -math.fsum((p / m).real for m, p in enumerate(powers, 1))


def log_abs_reconstruct(z, w, table, n_cut=None, k_cut=None):
    """Truncated expansion of log|z - w| for |z| < 1, built from the
    log-kernel split.

    For |w| < 1 this is 2 pi times the truncated Green's-function series
    plus the harmonic correction log|1 - z conj(w)| summed to its geometric
    tail bound; the truncation error lives entirely in the Green's
    series and decays with the cutoffs.  For |w| >= 1 it is log|w| plus
    the geometric series in z/w, which converges to machine precision.
    """
    z = complex(z)
    w = complex(w)
    if abs(z) >= 1.0:
        raise DiskDomainError("reconstruction point must lie in the open disk")
    if z == w:
        raise SingularityError("log|z - w| diverges at z = w")
    if abs(w) < 1.0:
        g = green_dirichlet_series(z, w, table, n_cut=n_cut, k_cut=k_cut)
        return 2.0 * math.pi * g + harmonic_log_series(z, w)
    # exterior branch: log|w| - Re sum (z/w)^m / m
    return math.log(abs(w)) + harmonic_log_series(z, 1.0 / np.conj(w))

