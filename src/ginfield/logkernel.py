"""Fourier-Bessel coefficients of z -> log|z - w| and its truncated expansion.

The coefficient alpha_{n,k}(w) has two branches: a disk branch (|w| < 1)
combining the Green's-series term with a harmonic correction, and an
exterior branch (|w| >= 1, including the circle itself).  Both have the
angular structure g(r) e^{-i n theta} in polar coordinates w = r e^{i theta},
so only the radial factor g is computed here.  alpha_radial is the one
evaluator of both branches, on bessel.jn, over integer arrays n and k
broadcast together; alpha_radial_piecewise takes its disk branch from a
certified piecewise-Chebyshev interpolant of alpha_radial, for evaluation
at many points, and everything else from alpha_radial itself.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly

from .basis import (
    DiskDomainError, SingularityError, frozen_cache, green_dirichlet_series, radial_profile
)

# Polynomial degree on each panel of the disk-branch interpolant, and the
# largest error against alpha_radial, relative to max |g|, a build may keep.
_PANEL_DEGREE = 12
_PANEL_TOL = 1e-13


class InterpolantError(RuntimeError):
    """Raised when a disk-branch interpolant misses its certificate."""


def alpha_radial(n, k, r, table):
    """Radial factor g(r) of alpha_{n,k}(r e^{i theta}) = g(r) e^{-i n theta}
    over integer arrays n and k broadcast together, in one jn call: shape
    broadcast(n, k).shape + r.shape, 0-d for one index and a scalar r.  The
    disk branch for r < 1, the exterior branch for r >= 1 (continuous across
    the circle); each row depends only on its own (n, k).
    """
    j = np.asarray(table.root(n, k))[..., None]
    n, k = np.abs(np.asarray(n))[..., None], np.asarray(k)[..., None]
    r = np.asarray(r, dtype=float)
    inside = r.ravel() < 1.0
    ri, ro = r.ravel()[inside], r.ravel()[~inside]
    # a * profile - b r^n on the disk and c * exterior outside, a = -2 pi / j^2,
    # b = sqrt(pi) / (n j) (0 for n = 0), c = 2 sqrt(pi) / j (n = 0) or -b;
    # r^2 and r^-1 as r * r and 1 / r, as numpy's ** forms them for one order
    b = np.where(n > 0, math.sqrt(math.pi) / (np.maximum(n, 1) * j), 0.0)
    g = np.empty(j.shape[:-1] + (r.size,))
    if ri.size:
        rn = np.where(n == 2, ri * ri, ri**n)
        g[..., inside] = -(2.0 * math.pi / j**2) * radial_profile(n, k, ri, table) - b * rn
    exterior = np.where(n == 0, np.log(ro), np.where(n == 1, 1.0 / ro, ro**-n))
    g[..., ~inside] = np.where(n == 0, 2.0 * math.sqrt(math.pi) / j, -b) * exterior
    return g.reshape(j.shape[:-1] + r.shape)


def alpha_radial_piecewise(n, ks, r, table):
    """alpha_radial(n, ks, r, table) for a 1-D integer array ks, with the
    disk branch r < 1 taken from a cached piecewise-polynomial interpolant
    of alpha_radial that agrees with it to 1e-13 max |g| by certificate.
    Points with r >= 1 are alpha_radial's own values; a call with no point
    in the disk reads no interpolant.  Each row depends only on its own k,
    whatever the other entries of ks.
    """
    n = abs(int(n))
    r = np.asarray(r, dtype=float)
    g = np.empty((len(ks),) + r.shape)
    inside = r < 1.0
    g[:, ~inside] = alpha_radial(n, ks, r[~inside], table)
    ri = r[inside]
    if ri.size:
        for row, k in enumerate(ks):
            g[row, inside] = _interpolant(_disk_panels(n, int(k), table), ri)
    return g


def _interpolant(coef, r):
    """Piecewise power series coef at points 0 <= r < 1: on panel p of the
    P = coef.shape[1] uniform panels, the series coef[:, p] in the local
    variable t = 2 (r P - p) - 1 in [-1, 1), exact as P is a power of two;
    one gather of coefficients per Horner step."""
    x = r * coef.shape[1]
    p = x.astype(np.intp)
    t = 2.0 * (x - p) - 1.0
    acc = coef[-1][p]
    for c in coef[-2::-1]:
        acc *= t
        acc += c[p]
    return acc


@frozen_cache(maxsize=1)
def _chebyshev_matrices(degree):
    """Chebyshev points of the first kind on [-1, 1], the matrix taking values
    there to Chebyshev coefficients, and the matrix taking those to power
    coefficients; kept apart, because their product loses three digits."""
    theta = math.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
    to_cheb = np.cos(np.outer(theta, np.arange(degree + 1))) * (2.0 / (degree + 1))
    to_cheb[:, 0] *= 0.5
    to_power = np.zeros((degree + 1, degree + 1))
    for m in range(degree + 1):
        to_power[m, : m + 1] = cheb2poly([0.0] * m + [1.0])
    return np.cos(theta), to_cheb, to_power


@frozen_cache(maxsize=None)
def _disk_panels(n, k, table):
    """Power coefficients, shape (_PANEL_DEGREE + 1, P), of the interpolant
    of the disk branch of alpha_radial(n, k): column p holds panel
    [p / P, (p + 1) / P] in its local variable t.  Fitted to alpha_radial at
    the Chebyshev points of P uniform panels, P the least power of two >=
    max(64, j / 0.6) so that a panel spans at most a tenth of a period of
    J_n(j r), and checked at off-node points of every panel.  Cached per
    (n, k, table) without bound: a 64 x 64 index set would thrash a bound."""
    j = table.root(n, k)
    panels = 64
    while panels < j / 0.6:
        panels *= 2
    nodes, to_cheb, to_power = _chebyshev_matrices(_PANEL_DEGREE)
    base = np.arange(panels)[:, None]
    values = alpha_radial(n, k, (base + 0.5 * (nodes + 1.0)) / panels, table)
    coef = np.ascontiguousarray(((values @ to_cheb) @ to_power).T)
    # panel edges (r = 0 among them) and four interior points off the nodes
    check = ((base + np.array([0.0, 0.125, 0.375, 0.625, 0.875])) / panels).ravel()
    err = np.max(np.abs(_interpolant(coef, check) - alpha_radial(n, k, check, table)))
    scale = np.max(np.abs(values))
    if not err <= _PANEL_TOL * scale:
        raise InterpolantError(
            f"interpolant of alpha_{n},{k} is off by {err:.3e}, "
            f"above {_PANEL_TOL:.0e} * max|g| = {_PANEL_TOL * scale:.3e}"
        )
    return coef


def log_abs_reconstruct(z, w, table, n_cut=None, k_cut=None):
    """Truncated expansion of log|z - w| for |z| < 1, built from the
    log-kernel split.

    For |w| < 1 this is 2 pi times the truncated Green's-function series
    plus the harmonic correction log|1 - z conj(w)| in closed form, so the
    truncation error lives entirely in the Green's series and decays with
    the cutoffs.  For |w| >= 1 it is log|w| + log|1 - z/w|, exact up to
    rounding.  The checks below keep |z conj(w)| and |z/w| below 1.
    """
    z = complex(z)
    w = complex(w)
    if not abs(z) < 1.0:
        raise DiskDomainError("reconstruction point must lie in the open disk")
    if not math.isfinite(abs(w)):
        raise DiskDomainError("the pole w must be finite")
    if z == w:
        raise SingularityError("log|z - w| diverges at z = w")
    if abs(w) < 1.0:
        g = green_dirichlet_series(z, w, table, n_cut=n_cut, k_cut=k_cut)
        return 2.0 * math.pi * g + math.log(abs(1.0 - z * w.conjugate()))
    return math.log(abs(w)) + math.log(abs(1.0 - z / w))
