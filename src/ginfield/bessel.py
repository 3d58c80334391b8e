"""Bessel functions of the first kind and their certified positive roots.

Evaluation is delegated to scipy.special (integer order, real argument).
The roots j_{n,k} come from scipy.special.jn_zeros and are certified here
before use: every table passes the residual certificate |J_n(j_{n,k})|
below ``ROOT_RESIDUAL_TOL``, the strict lower bound
j_{n,k}^2 > n^2 + (k - 1/4)^2 pi^2, and Watson's interlacing
j_{n,k} < j_{n+1,k} < j_{n,k+1}, which rules out a skipped or repeated
root.  The same step stores the basis normalisation
C_{n,k} = 1 / (sqrt(pi) J_{n+1}(j_{n,k})) on the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

ROOT_RESIDUAL_TOL = 1e-12


class BesselDomainError(ValueError):
    """Raised for negative order or negative argument."""


class RootBracketError(RuntimeError):
    """Raised when a root table fails one of its certificates."""


def _check_order(n):
    if n != int(n) or n < 0:
        raise BesselDomainError(f"order must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_argument(x):
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0):
        raise BesselDomainError("argument must be nonnegative")
    return xa


def bessel_j(n, x):
    """J_n(x) for integer order n >= 0 and real x >= 0."""
    return special.jv(_check_order(n), _check_argument(x))


@dataclass(frozen=True)
class RootTable:
    """Dense table of certified Bessel roots j_{n,k}, 0 <= n <= n_max,
    1 <= k <= k_max.

    ``roots[n, k-1]`` holds j_{n,k} and ``norms[n, k-1]`` the basis
    normalisation C_{n,k}.  Immutable after construction.
    """

    n_max: int
    k_max: int
    roots: np.ndarray
    norms: np.ndarray

    def _slot(self, n, k):
        n = abs(int(n))
        if n > self.n_max or not (1 <= k <= self.k_max):
            raise KeyError(f"index ({n}, {k}) outside table ({self.n_max}, {self.k_max})")
        return n, k - 1

    def root(self, n, k):
        """j_{|n|,k}; negative orders use j_{-n,k} = j_{n,k}."""
        return float(self.roots[self._slot(n, k)])

    def norm(self, n, k):
        """C_{|n|,k} = 1 / (sqrt(pi) J_{|n|+1}(j_{|n|,k}))."""
        return float(self.norms[self._slot(n, k)])

    def __post_init__(self):
        self.roots.setflags(write=False)
        self.norms.setflags(write=False)


def _certified_table(roots):
    """RootTable over roots[n, k-1] after the residual, lower-bound and
    interlacing certificates, with the normalisations C_{n,k} attached.

    Raises RootBracketError on the first certificate that fails; a missing
    (NaN) entry fails them all.
    """
    ns = np.arange(roots.shape[0])[:, None]
    ks = np.arange(1, roots.shape[1] + 1)[None, :]
    residuals = np.abs(special.jv(ns, roots))
    if not np.all(residuals < ROOT_RESIDUAL_TOL):
        raise RootBracketError(
            f"root residual {residuals.max():.3e} exceeds {ROOT_RESIDUAL_TOL:.0e}"
        )
    if not np.all(roots**2 > ns**2 + (ks - 0.25) ** 2 * math.pi**2):
        raise RootBracketError("a root violates the strict lower bound")
    if not (np.all(roots[:-1] < roots[1:]) and np.all(roots[1:, :-1] < roots[:-1, 1:])):
        raise RootBracketError("roots violate j_{n,k} < j_{n+1,k} < j_{n,k+1}")
    norms = 1.0 / (math.sqrt(math.pi) * special.jv(ns + 1, roots))
    return RootTable(
        n_max=roots.shape[0] - 1, k_max=roots.shape[1], roots=roots, norms=norms
    )


def build_root_table(n_max, k_max):
    """Certified RootTable of the roots from scipy.special.jn_zeros.

    Raises RootBracketError if any root fails its residual certificate
    |J_n(j_{n,k})| < 1e-12, the lower bound j^2 > n^2 + (k - 1/4)^2 pi^2,
    or the interlacing j_{n,k} < j_{n+1,k} < j_{n,k+1}.
    """
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be >= 1")
    return _certified_table(
        np.array([special.jn_zeros(n, k_max) for n in range(n_max + 1)])
    )


def load_root_table(path):
    """Read the roots.csv (header n,k,j_nk) that the roots experiment writes
    and certify it as build_root_table does."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n, k = data[:, 0].astype(int), data[:, 1].astype(int)
    roots = np.full((n.max() + 1, k.max()), np.nan)
    roots[n, k - 1] = data[:, 2]
    return _certified_table(roots)
