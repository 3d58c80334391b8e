"""Fourier-Bessel coefficients of z -> z^n and z -> log|z - w|.

The coefficient alpha_{n,k}(w) has two branches: a disk branch (|w| < 1)
combining the Green's-series term with a harmonic correction, and an
exterior branch (|w| >= 1, including the circle itself).  Both have the
angular structure g(r) e^{-i n theta} in polar coordinates w = r e^{i theta},
which the gradient helpers exploit.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator

import numpy as np
from scipy import special

from .basis import (
    DiskDomainError,
    SingularityError,
    eval_eigenfunction,
    green_dirichlet_series,
    radial_profile,
)

# Tail bound and term cap of the harmonic series Re sum (z conj(w))^m / m.
_HARMONIC_TOL = 1e-14
_HARMONIC_MAX_TERMS = 10_000_000


def power_coeff(n, k, table):
    """Coefficient of z^n on basis index (n, k): 2 sqrt(pi) / j_{n,k}."""
    if n < 0:
        raise ValueError("power expansion is defined for n >= 0")
    return 2.0 * math.sqrt(math.pi) / table.root(n, k)


def alpha(n, k, w, table):
    """Expansion coefficient of z -> log|z - w| on basis index (n, k).

    The |w| >= 1 branch is used on the unit circle; both branches agree
    there because the basis functions vanish on the boundary.
    """
    n = int(n)
    w = complex(w)
    j = table.root(n, k)
    rt = math.sqrt(math.pi)
    if abs(w) < 1.0:
        val = -(2.0 * math.pi / j**2) * eval_eigenfunction(-n, k, w, table)
        if n > 0:
            val -= rt * np.conj(w) ** n / (j * n)
        elif n < 0:
            val -= rt * w ** (-n) / (j * (-n))
        return complex(val)
    if n == 0:
        return complex(2.0 * rt / j * math.log(abs(w)))
    if n > 0:
        return complex(-(2.0 * rt / j) / (2.0 * n * w**n))
    m = -n
    return complex(-(2.0 * rt / j) / (2.0 * m * np.conj(w) ** m))


def alpha_radial(n, k, r, table):
    """Radial factor g(r) of alpha_{n,k}(r e^{i theta}) = g(r) e^{-i n theta}.

    Real-valued; vectorized over r.  Uses the disk branch for r < 1 and
    the exterior branch for r >= 1 (continuous across the circle).
    """
    return _alpha_radial(n, k, r, table, derivative=False)


def alpha_radial_derivative(n, k, r, table):
    """dg/dr of the radial factor, branch-wise analytic."""
    return _alpha_radial(n, k, r, table, derivative=True)


def _alpha_radial(n, k, r, table, derivative):
    n = abs(int(n))
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    j = table.root(n, k)
    rt = math.sqrt(math.pi)
    inside = r < 1.0
    ri, ro = r[inside], r[~inside]
    g = np.empty_like(r)
    g_in = -(2.0 * math.pi / j**2) * radial_profile(n, k, ri, table, derivative)
    if n == 0:
        g[~inside] = (2.0 * rt / j) / ro if derivative else (2.0 * rt / j) * np.log(ro)
    elif derivative:
        g_in = g_in - (rt / j) * ri ** (n - 1)
        g[~inside] = rt / j * ro ** (-n - 1)
    else:
        g_in = g_in - rt / (n * j) * ri**n
        g[~inside] = -(rt / (n * j)) * ro ** (-n)
    g[inside] = g_in
    return float(g[0]) if scalar else g


def alpha_gradient(n, k, z, table):
    """Cartesian gradient (d/dx, d/dy) of alpha_{n,k} at z (complex pair).

    Undefined only at the origin for n != 0 (where alpha vanishes to
    order |n|); z = 0 is rejected there.
    """
    n = int(n)
    z = complex(z)
    r, t = abs(z), cmath.phase(z)
    if r == 0.0 and n != 0:
        r = 1e-300  # the limit is 0 for |n| >= 2, finite for |n| = 1
    gp = alpha_radial_derivative(n, k, r, table)
    g = alpha_radial(n, k, r, table)
    phase = cmath.exp(-1j * n * t)
    ct, st = math.cos(t), math.sin(t)
    gx = (ct * gp + 1j * n * st / r * g) * phase
    gy = (st * gp - 1j * n * ct / r * g) * phase
    return gx, gy


def alpha_grad_sup(n, k, table, r_max=2.0, n_radial=800):
    """Numeric sup of |grad alpha_{n,k}| over |z| <= r_max, finite
    differences taken inside and outside the disk separately.

    Returns (sup_inside, sup_outside).  The angular term is evaluated
    analytically (|grad|^2 = g'(r)^2 + n^2 g(r)^2 / r^2 is angle-free).
    """
    n = abs(int(n))

    def sup_on(rs):
        h = 1e-6
        gp = (alpha_radial(n, k, rs + h, table) - alpha_radial(n, k, rs - h, table)) / (
            2 * h
        )
        g = alpha_radial(n, k, rs, table)
        return float(np.max(np.sqrt(gp**2 + (n * g / rs) ** 2)))

    eps = 2e-6
    rs_in = np.linspace(1e-3, 1.0 - eps, n_radial)
    rs_out = np.linspace(1.0 + eps, r_max, n_radial)
    return sup_on(rs_in), sup_on(rs_out)


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


def alpha_partial_sum(z, w, table, n_cut, k_cut):
    """Raw partial sum of sum alpha_{n,k}(w) e_{n,k}(z) with square cutoffs.

    Converges to log|z - w| only like 1/k_cut pointwise (the harmonic part
    of alpha is a boundary-mismatched Fourier-Bessel series); kept as a
    low-accuracy cross-check of the coefficient formulas.
    """
    z = complex(z)
    w = complex(w)
    if z == w:
        raise SingularityError("log|z - w| diverges at z = w")
    total = 0.0 + 0.0j
    for n in range(-n_cut, n_cut + 1):
        for k in range(1, k_cut + 1):
            total += alpha(n, k, w, table) * eval_eigenfunction(n, k, z, table)
    return total.real
