"""Fourier-Bessel coefficients of z -> log|z - w| and its truncated expansion.

The coefficient alpha_{n,k}(w) has two branches: a disk branch (|w| < 1)
combining the Green's-series term with a harmonic correction, and an
exterior branch (|w| >= 1, including the circle itself).  Both have the
angular structure g(r) e^{-i n theta} in polar coordinates w = r e^{i theta},
so only the radial factor g is computed here: alpha_radial on scipy's J_n,
and alpha_radial_piecewise, whose disk branch is a certified piecewise-
Chebyshev interpolant of alpha_radial for evaluation at many points.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly
from scipy import special

from .basis import DiskDomainError, SingularityError, green_dirichlet_series, radial_profile

# Tail bound and term cap of the harmonic series Re sum (z conj(w))^m / m.
_HARMONIC_TOL = 1e-14
_HARMONIC_MAX_TERMS = 10_000_000
# Polynomial degree on each panel of the disk-branch interpolant, and the
# largest error against alpha_radial, relative to max |g|, a build may keep.
_PANEL_DEGREE = 12
_PANEL_TOL = 1e-13
# Interpolant builds keyed by content (n, j_{n,k}, C_{n,k}): tables that agree
# on an index share its build, tables that differ never do.
_DISK_PANELS = {}


class InterpolantError(RuntimeError):
    """Raised when a disk-branch interpolant misses its certificate."""


def alpha_radial(n, k, r, table):
    """Radial factor g(r) of alpha_{n,k}(r e^{i theta}) = g(r) e^{-i n theta}.

    A real array of the shape of r (0-d for a scalar r).  k is one radial
    index or a 1-D integer numpy array of them; an array gives shape
    (len(k),) + r.shape, each row bit-identical to the call with its k
    alone.  Uses the disk branch for r < 1 and the exterior branch for
    r >= 1 (continuous across the circle).
    """
    n = abs(int(n))
    r = np.asarray(r, dtype=float)
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
    return g


def _branch_constants(n, j):
    """Factors (a, b, c) of the radial factor at one root j: a * profile -
    b * r^n on the disk, c times r^-n or log r outside."""
    rt = math.sqrt(math.pi)
    a = -(2.0 * math.pi / j**2)
    if n == 0:
        return a, 0.0, 2.0 * rt / j
    return a, rt / (n * j), -(rt / (n * j))


def alpha_radial_piecewise(n, ks, r, table):
    """alpha_radial(n, ks, r, table) for a 1-D integer array ks, with the
    disk branch r < 1 taken from a cached piecewise-polynomial interpolant
    of alpha_radial that agrees with it to 1e-13 max |g| by certificate.
    Points with r >= 1 go through alpha_radial and are bit-identical to it.
    Each row depends only on its own k, whatever the other entries of ks.
    """
    n = abs(int(n))
    r = np.asarray(r, dtype=float)
    g = np.empty((len(ks),) + r.shape)
    inside = r < 1.0
    g[:, ~inside] = alpha_radial(n, ks, r[~inside], table)
    ri = r[inside]
    for row, k in enumerate(ks):
        coef = _disk_panels(n, int(k), table)
        g[row, inside] = _horner(coef, *_panel_coordinates(ri, coef.shape[1]))
    return g


def _panel_coordinates(r, panels):
    """Panel index p and local variable t = 2 (r P - p) - 1 in [-1, 1) of
    points 0 <= r < 1 on P uniform panels; exact, as P is a power of two."""
    x = r * panels
    p = x.astype(np.intp)
    return p, 2.0 * (x - p) - 1.0


def _horner(coef, p, t):
    """Power series coef[:, p] in t, one gather of coefficients per step."""
    acc = coef[-1][p]
    for c in coef[-2::-1]:
        acc *= t
        acc += c[p]
    return acc


@lru_cache(maxsize=1)
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
    nodes = np.cos(theta)
    for a in (nodes, to_cheb, to_power):
        a.flags.writeable = False
    return nodes, to_cheb, to_power


def _disk_panels(n, k, table):
    """Power coefficients, shape (_PANEL_DEGREE + 1, P), of the interpolant
    of the disk branch of alpha_radial(n, k): column p holds panel
    [p / P, (p + 1) / P] in its local variable t.  Built on first use."""
    j = table.root(n, k)
    key = (n, j, table.norm(n, k))
    if key not in _DISK_PANELS:
        _DISK_PANELS[key] = _build_disk_panels(n, k, j, table)
    return _DISK_PANELS[key]


def _build_disk_panels(n, k, j, table):
    """Sample alpha_radial at the Chebyshev points of P uniform panels of
    [0, 1), P the least power of two >= max(64, j / 0.6) so that a panel
    spans at most a tenth of a period of J_n(j r); fit each panel and check
    the fit at off-node points of every panel."""
    panels = 64
    while panels < j / 0.6:
        panels *= 2
    nodes, to_cheb, to_power = _chebyshev_matrices(_PANEL_DEGREE)
    base = np.arange(panels)[:, None]
    values = alpha_radial(n, k, (base + 0.5 * (nodes + 1.0)) / panels, table)
    coef = np.ascontiguousarray(((values @ to_cheb) @ to_power).T)
    coef.flags.writeable = False
    # panel edges (r = 0 among them) and four interior points off the nodes
    check = ((base + np.array([0.0, 0.125, 0.375, 0.625, 0.875])) / panels).ravel()
    err = np.max(np.abs(_horner(coef, *_panel_coordinates(check, panels))
                        - alpha_radial(n, k, check, table)))
    scale = np.max(np.abs(values))
    if not err <= _PANEL_TOL * scale:
        raise InterpolantError(
            f"interpolant of alpha_{n},{k} is off by {err:.3e}, "
            f"above {_PANEL_TOL:.0e} * max|g| = {_PANEL_TOL * scale:.3e}"
        )
    return coef


def harmonic_log_series(z, w):
    """-Re sum_{m=1}^{M} q^m / m = log|1 - q| for q = z conj(w), |q| < 1.

    M is the least term count whose tail bound |q|^M / (M (1 - |q|)) falls
    below 1e-14, worked out from |q| before summing; a q that needs more
    than _HARMONIC_MAX_TERMS terms raises ValueError.
    """
    # the product in Python complex arithmetic, as numpy warns on inf * 0
    # before the refusal below; the powers and their division by m stay in
    # numpy, whose division rounds differently from Python's
    q = np.complex128(complex(z) * complex(w).conjugate())
    aq = abs(q)
    if not aq < 1.0:
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
    if not abs(z) < 1.0:
        raise DiskDomainError("reconstruction point must lie in the open disk")
    if not math.isfinite(abs(w)):
        raise DiskDomainError("the pole w must be finite")
    if z == w:
        raise SingularityError("log|z - w| diverges at z = w")
    if abs(w) < 1.0:
        g = green_dirichlet_series(z, w, table, n_cut=n_cut, k_cut=k_cut)
        return 2.0 * math.pi * g + harmonic_log_series(z, w)
    # exterior branch: log|w| - Re sum (z/w)^m / m
    return math.log(abs(w)) + harmonic_log_series(z, 1.0 / np.conj(w))

