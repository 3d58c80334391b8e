"""Dirichlet eigenbasis of the unit disk, Gauss-Legendre radial panels,
Green's function, and the coefficient algebra of the j^{2s}-weighted
Sobolev scale.

The basis functions are indexed by (n, k) with n any integer and k >= 1:
angular harmonic e^{i n phi} times the radial profile J_{|n|}(j_{|n|,k} r),
normalized to unit L^2 norm on the disk.  Roots come from RootTable.root,
whose KeyError for an index outside the table every function here passes on.
Every H^s sum over a real field's coefficients a[n, k-1], n >= 0, reads the
one cached weight sobolev_weights, the only place that counts order -n.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bessel import jn


class DiskDomainError(ValueError):
    """Raised when a point lies outside the closed unit disk or is not
    finite (a NaN or infinite coordinate)."""


class SingularityError(ValueError):
    """Raised when a kernel is evaluated on its diagonal z = w."""


def radial_profile(n, k, r, table):
    """Radial factor C_{n,k} J_{|n|}(j_{n,k} r) of e_{n,k}, with integer
    arrays n and k and the radii r broadcast together, in one bessel.jn
    call.  KeyError for any (n, k) outside the table."""
    j, n = table.root(n, k), np.abs(n)
    return table.norms[n, np.asarray(k) - 1] * jn(n, j * r)


def _disk_radii(points):
    """|points|, after refusing any point outside the closed unit disk; the
    comparison is written so that a NaN or infinite point fails it too."""
    r = np.abs(points)
    if not np.all(r <= 1.0 + 1e-12):
        raise DiskDomainError("point not finite or outside the closed unit disk")
    return r


def eval_matrix(points, n_max, k_max, table):
    """(len(points), n_max + 1, k_max) values of the radial-normalized
    basis functions with phase, for fast batched field evaluation."""
    points = np.asarray(points, dtype=complex)
    r = _disk_radii(points)
    th = np.angle(points + 0)  # + 0 turns -0 into +0: one angle per point
    ns = np.arange(n_max + 1)
    radial = radial_profile(ns[:, None], np.arange(1, k_max + 1), r[:, None, None], table)
    return radial * np.exp(1j * ns * th[:, None])[:, :, None]


def frozen_cache(maxsize):
    """functools.lru_cache over a function whose array, or tuple of arrays,
    every caller shares: each array, and any array it is a view of, is made
    read-only once, when it is built.  A call that raises caches nothing."""
    def decorate(fn):
        def build(*args, **kwargs):
            out = fn(*args, **kwargs)
            for a in out if isinstance(out, tuple) else (out,):
                while isinstance(a, np.ndarray):
                    a.flags.writeable = False
                    a = a.base
            return out
        return functools.lru_cache(maxsize)(functools.wraps(fn)(build))
    return decorate


@frozen_cache(maxsize=16)
def _leggauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    return leggauss(order)


def radial_rule(*panels):
    """(r, wr): for each panel (a, b, order) in turn, order Gauss-Legendre
    radii on [a, b] and their weights with the r dr weight absorbed.  Exact
    for integrands r^p on a panel with p <= 2 * order - 2, so a radial
    factor must be smooth on each panel."""
    r, wr = [], []
    for a, b, order in panels:
        x, w = _leggauss(order)
        r.append(a + 0.5 * (b - a) * (x + 1.0))
        wr.append(0.5 * (b - a) * w * r[-1])
    return np.concatenate(r), np.concatenate(wr)


def gram_blocks(n_max, k_max, table):
    """Gram matrices of the basis order by order, shape (n_max + 1, k_max,
    k_max): block n is 2 pi sum_r P_k(r) P_l(r) w_r over the radial profiles
    of order n on 160 Gauss-Legendre radii of [0, 1].  Order -n shares block
    n, and e_{n,k} and e_{m,l} with n != m are orthogonal by the angular
    integral in closed form, so these blocks are the whole Gram."""
    r, wr = radial_rule((0.0, 1.0, 160))
    ns, ks = np.arange(n_max + 1)[:, None, None], np.arange(1, k_max + 1)[:, None]
    P = radial_profile(ns, ks, r, table)
    return 2.0 * math.pi * (P * wr) @ P.transpose(0, 2, 1)


def green_dirichlet_series(z, w, table, n_cut=None, k_cut=None):
    """Eigenfunction expansion -sum e_{n,k}(z) e_{-n,k}(w) / j_{n,k}^2,
    truncated at |n| <= n_cut, k <= k_cut (table bounds by default).

    Orders n and -n together give 2 Re e_{n,k}(z) conj(e_{n,k}(w)).
    Raises DiskDomainError for a point off the closed disk or not finite,
    and KeyError for a cutoff past the table.
    """
    z = complex(z)
    w = complex(w)
    if z == w:
        raise SingularityError("Green's function diverges at z = w")
    cutoff = (table.n_max if n_cut is None else n_cut, table.k_max if k_cut is None else k_cut)
    E = eval_matrix([z, w], *cutoff, table)
    return -float(np.sum(sobolev_weights(cutoff, -1.0, table) * np.real(E[0] * np.conj(E[1]))))


def root_window(cutoff, table):
    """Roots j_{n,k} aligned with a real field's coefficients a[n, k-1],
    0 <= n <= n_max and 1 <= k <= k_max.

    Raises KeyError when the cutoff reaches past the table or holds no
    index, as below (0, 1).
    """
    j = table.root(np.arange(cutoff[0] + 1)[:, None], np.arange(1, cutoff[1] + 1))
    if not j.size:
        raise KeyError(f"cutoff {tuple(cutoff)} holds no index")
    return j


@frozen_cache(maxsize=16)
def sobolev_weights(cutoff, s, table):
    """mult * j^{2s} on root_window(cutoff, table), read-only, per cutoff, s
    and table, with mult 1 for n = 0 and 2 for n >= 1 (order -n is the
    conjugate of order n); so |a|^2 w rounds as (mult |a|^2) j^{2s}."""
    j = root_window(cutoff, table)
    return np.where(np.arange(cutoff[0] + 1)[:, None] > 0, 2.0, 1.0) * j ** (2.0 * s)


def sobolev_norm(a, s, table):
    """Squared H^s norm of a real field: sum |a_{n,k}|^2 j_{n,k}^{2s} over
    both signs of n."""
    if not math.isfinite(s):
        raise ValueError(f"Sobolev exponent must be finite, got {s!r}")
    w = sobolev_weights((a.shape[0] - 1, a.shape[1]), float(s), table)
    return float(np.sum(np.abs(a) ** 2 * w))
