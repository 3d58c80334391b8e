"""Certified tables of the positive roots j_{n,k} of the Bessel functions J_n.

The roots come from one Newton solve over the whole table and are certified
through scipy's jv: the residual |J_n(j_{n,k})| below ``ROOT_RESIDUAL_TOL``,
the strict lower bound j^2 > n^2 + (k - 1/4)^2 pi^2, Watson's interlacing
j_{n,k} < j_{n+1,k} < j_{n,k+1}, j_{0,k} < (k - 1/8) pi, and a distance below
1/2 from the initial guesses.  The guesses lie within 1e-2 of the roots and
consecutive roots of a row more than 3 apart, so the residual and the
distance fix the index k of every root.  The table stores
C_{n,k} = 1 / (sqrt(pi) J_{n+1}(j_{n,k})).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

ROOT_RESIDUAL_TOL = 1e-12
_NEWTON_STEPS = 8  # three reach every root of the tables tried


class RootBracketError(RuntimeError):
    """Raised when a root table does not converge or fails a certificate."""


@dataclass(frozen=True, eq=False)
class RootTable:
    """Dense table of certified Bessel roots j_{n,k}, 0 <= n <= n_max,
    1 <= k <= k_max.

    ``roots[n, k-1]`` holds j_{n,k} and ``norms[n, k-1]`` the basis
    normalisation C_{n,k}.  Immutable, so caches key on the table by identity.
    """

    n_max: int
    k_max: int
    roots: np.ndarray
    norms: np.ndarray

    def root(self, n, k):
        """j_{|n|,k}; negative orders use j_{-n,k} = j_{n,k}."""
        n = abs(int(n))
        if n > self.n_max or not (1 <= k <= self.k_max):
            raise KeyError(f"index ({n}, {k}) outside table ({self.n_max}, {self.k_max})")
        return float(self.roots[n, k - 1])

    def __post_init__(self):
        self.roots.setflags(write=False)
        self.norms.setflags(write=False)

    def __reduce__(self):  # through __init__, so a pool worker's copy is read-only too
        return RootTable, (self.n_max, self.k_max, self.roots, self.norms)


def _certified_table(roots):
    """RootTable over roots[n, k-1] after the five certificates of the module
    docstring, with the normalisations C_{n,k} attached.

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
    if not np.all(roots[0] < (ks[0] - 0.125) * math.pi):
        raise RootBracketError("a root violates the upper bound j_{0,k} < (k - 1/8) pi")
    if not np.all(np.abs(roots - _initial_guesses(roots.shape[0] - 1, roots.shape[1])) < 0.5):
        raise RootBracketError("a root lies 1/2 or more from its initial guess")
    norms = 1.0 / (math.sqrt(math.pi) * special.jv(ns + 1, roots))
    return RootTable(
        n_max=roots.shape[0] - 1, k_max=roots.shape[1], roots=roots, norms=norms
    )


def _initial_guesses(n_max, k_max):
    """j_{n,k} to within 1e-2: McMahon's expansion for n = 0, and for n >= 1
    Olver's leading term n sqrt(1 + w^2), w - arctan(w) = (2/3)|a_k|^{3/2} / n
    with a_k the k-th zero of Ai."""
    n = np.arange(n_max + 1)[:, None]
    beta = (np.arange(1, k_max + 1) - 0.25) * math.pi
    mcmahon = beta + 1 / (8 * beta) - 124 / (3 * (8 * beta) ** 3)
    t = (2 / 3) * (-special.ai_zeros(k_max)[0]) ** 1.5 / np.maximum(n, 1)
    w = np.cbrt(3 * t)  # below the root of a convex increasing function
    for _ in range(4):
        w = w - (w - np.arctan(w) - t) * (1 + w * w) / (w * w)
    return np.where(n == 0, mcmahon, n * np.sqrt(1 + w * w))


def _bessel_pair(x):
    """J_n(x[n]) and J_{n+1}(x[n]) for each row n, by forward recurrence from
    J_0 and J_1: stable while the order stays below x, as j_{n,k} > n does, so
    each row stops at its own order n + 1 (low rows would overflow above)."""
    jn, jn1 = np.empty_like(x), np.empty_like(x)
    prev, cur = special.j0(x), special.j1(x)
    for m in range(len(x)):
        jn[m], jn1[m] = prev[0], cur[0]
        prev, cur = cur[1:], (2 * (m + 1) / x[m + 1 :]) * cur[1:] - prev[1:]
    return jn, jn1


def _newton_roots(n_max, k_max):
    """roots[n, k-1] = j_{n,k} by Newton's method on the whole table.  A step
    d leaves an error of about d^2 / (2j) (J_n'' = -J_n' / j at a root), so it
    stops once every step is below 1e-8 j, or raises RootBracketError."""
    x = _initial_guesses(n_max, k_max)
    n = np.arange(n_max + 1)[:, None]
    for _ in range(_NEWTON_STEPS):
        jn, jn1 = _bessel_pair(x)
        step = jn / (n / x * jn - jn1)
        x = x - step
        if np.all(np.abs(step) < 1e-8 * x):
            return x
    raise RootBracketError(f"Newton's method did not converge in {_NEWTON_STEPS} steps")


def build_root_table(n_max, k_max):
    """Certified RootTable of j_{n,k}, 0 <= n <= n_max, 1 <= k <= k_max.

    Raises RootBracketError if Newton's method does not converge, or if a
    root fails a certificate of the module docstring.
    """
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be >= 1")
    return _certified_table(_newton_roots(n_max, k_max))

