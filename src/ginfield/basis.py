"""Dirichlet eigenbasis of the unit disk, disk quadrature, Green's function,
and the coefficient algebra of the j^{2s}-weighted Sobolev scale.

The basis functions are indexed by (n, k) with n any integer and k >= 1:
angular harmonic e^{i n phi} times the radial profile J_{|n|}(j_{|n|,k} r),
normalized to unit L^2 norm on the disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special


class DiskDomainError(ValueError):
    """Raised when a point lies outside the closed unit disk or is not
    finite (a NaN or infinite coordinate)."""


class SingularityError(ValueError):
    """Raised when a kernel is evaluated on its diagonal z = w."""


def radial_profile(n, k, r, table):
    """Radial factor C_{n,k} J_{|n|}(j_{n,k} r) of e_{n,k}.

    k is one radial index or an integer array of them; the root and the
    normalisation taken from the table broadcast against r.
    """
    n = abs(int(n))
    i = np.asarray(k) - 1
    if n > table.n_max or i.min() < 0 or i.max() >= table.k_max:
        raise KeyError(f"indices ({n}, {k}) outside table ({table.n_max}, {table.k_max})")
    return table.norms[n, i] * special.jv(n, table.roots[n, i] * r)


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
    out = np.empty((len(points), n_max + 1, k_max), dtype=complex)
    th = np.angle(points + 0)  # + 0 turns -0 into +0: one angle per point
    ks = np.arange(1, k_max + 1)
    for n in range(n_max + 1):
        radial = radial_profile(n, ks, r[:, None], table)
        out[:, n, :] = radial * np.exp(1j * n * th)[:, None]
    return out


@lru_cache(maxsize=16)
def _leggauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and read-only, since every caller shares them."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class DiskQuadrature:
    """Gauss-Legendre radial nodes r and weights wr (weight r absorbed) on a
    list of radial panels, tensored with len(theta) uniform angles of weight
    wt.  Panels of radial_order nodes and angular_order angles are exact for
    integrands r^p e^{i m phi} with p <= 2 * radial_order - 2 on each panel
    and |m| < angular_order / 2, so a radial factor must be smooth on each.
    """

    r: np.ndarray
    wr: np.ndarray
    theta: np.ndarray
    wt: float

    @classmethod
    def build(cls, radial_order=120, angular_order=64):
        """The rule on the unit disk."""
        return cls._polar(angular_order, (0.0, 1.0, radial_order))

    @classmethod
    def _polar(cls, angular_order, *panels):
        """The rule of angular_order angles and, for each panel (a, b, order)
        in turn, order Gauss-Legendre radii on [a, b]."""
        r, wr = [], []
        for a, b, order in panels:
            x, w = _leggauss(order)
            r.append(a + 0.5 * (b - a) * (x + 1.0))
            wr.append(0.5 * (b - a) * w * r[-1])  # absorb the r dr weight
        theta = 2.0 * math.pi * np.arange(angular_order) / angular_order
        wt = 2.0 * math.pi / angular_order
        return cls(np.concatenate(r), np.concatenate(wr), theta, wt)

    def nodes(self):
        """Complex nodes as a (radial, angular) grid."""
        return self.r[:, None] * np.exp(1j * self.theta[None, :])

    def weights(self):
        return self.wr[:, None] * self.wt * np.ones_like(self.theta)[None, :]


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
    j, mult = root_window(cutoff, table)
    E = eval_matrix([z, w], *cutoff, table)
    return -float(np.sum(mult * np.real(E[0] * np.conj(E[1])) / j**2))


def root_window(cutoff, table):
    """Roots j_{n,k} aligned with a real field's coefficients a[n, k-1],
    0 <= n <= n_max and 1 <= k <= k_max, and the multiplicity of each row:
    1 for n = 0 and 2 for n >= 1, since order -n is the conjugate of order n.

    Raises KeyError when the cutoff reaches past the table.
    """
    n_max, k_max = cutoff
    if not (0 <= n_max <= table.n_max and 1 <= k_max <= table.k_max):
        raise KeyError(
            f"cutoff ({n_max}, {k_max}) outside table ({table.n_max}, {table.k_max})"
        )
    mult = np.full((n_max + 1, 1), 2.0)
    mult[0] = 1.0
    return table.roots[: n_max + 1, :k_max], mult


def sobolev_norm(a, s, table):
    """Squared H^s norm of a real field: sum |a_{n,k}|^2 j_{n,k}^{2s} over
    both signs of n."""
    if not math.isfinite(s):
        raise ValueError(f"Sobolev exponent must be finite, got {s!r}")
    j, mult = root_window((a.shape[0] - 1, a.shape[1]), table)
    return float(np.sum(mult * np.abs(a) ** 2 * j ** (2.0 * s)))


def basis_matrix(indices, quad, table):
    """Values of the listed basis functions on the quadrature grid,
    flattened to shape (nodes, len(indices))."""
    return np.column_stack([
        (radial_profile(n, k, quad.r, table)[:, None] * np.exp(1j * n * quad.theta)).ravel()
        for (n, k) in indices
    ])


def gram_matrix(indices, quad, table):
    """Quadrature Gram matrix of the listed basis functions."""
    E = basis_matrix(indices, quad, table)
    w = quad.weights().ravel()
    return (E.conj().T * w) @ E
