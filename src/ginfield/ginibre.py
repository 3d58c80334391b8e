"""Ginibre sampling, complex eigenvalue computation, and exact
determinantal moment formulas for linear statistics.

Convention: a standard complex Gaussian Z has E Z = 0, E|Z|^2 = 1, with
independent real and imaginary parts of variance 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .basis import radial_rule

TRACE_TOL_PER_N = 1e-8


class EigensolverError(RuntimeError):
    """Raised when a spectrum fails the trace identity."""


class VarianceError(RuntimeError):
    """Raised when an exact variance comes out negative or NaN."""


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of one Ginibre draw with provenance."""

    eigenvalues: np.ndarray
    seed: int


def draw_seed(master_seed, draw_index):
    """Deterministic per-draw seed sequence derived from (master, index)."""
    return np.random.SeedSequence([int(master_seed), int(draw_index)])


def sample_matrix(N, seed):
    """N x N matrix of i.i.d. complex Gaussians with E|entry|^2 = 1/N."""
    if N < 1:
        raise ValueError("matrix size must be positive")
    rng = np.random.default_rng(seed)
    out = np.empty((N, N), dtype=complex)
    part = np.empty((N, N))
    # numpy divides (re + 1j im) by s as re * (1 / s) and im * (1 / s)
    for dest in (out.real, out.imag):
        np.multiply(rng.standard_normal(out=part), 1.0 / math.sqrt(2.0 * N), out=dest)
    return out


def eigenvalues(matrix, seed=0):
    """Eigenvalues of a square complex matrix (LAPACK) as a SpectrumSample,
    certified by the trace identity."""
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    N = A.shape[0]
    eig = np.linalg.eigvals(A)
    tr = np.trace(A)
    if not (abs(eig.sum() - tr) <= TRACE_TOL_PER_N * N):
        raise EigensolverError("eigenvalue sum fails the trace identity")
    # sort for reproducibility regardless of LAPACK's ordering
    order = np.lexsort((eig.imag, eig.real))
    return SpectrumSample(eigenvalues=eig[order], seed=int(seed))


def sample_spectrum(N, master_seed, draw_index=0):
    """One seeded Ginibre draw reduced to its spectrum."""
    ss = draw_seed(master_seed, draw_index)
    return eigenvalues(sample_matrix(N, ss), seed=master_seed)


# ---------------------------------------------------------------------------
# exact determinantal formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneQuadrature:
    """Polar quadrature for integrals against the kernel of Ginibre(N):
    radii r with weights wr (the r dr weight absorbed), tensored with
    len(theta) uniform angles of weight wt.  build(N) takes 512 angles and
    Gauss-Legendre radii on two panels split at r = 1, where alpha is only
    C^2: max(80, ceil(3 sqrt N)) on [0, 1], where the kernel factors have
    width 1/sqrt(2N), and 40 on [1, R = sqrt(1 + 20/N) + 4/sqrt(N)]:
    R^2 - 1 >= 8/sqrt(N), 8 sd of Kostlan's outermost |z|^2."""

    r: np.ndarray
    wr: np.ndarray
    theta: np.ndarray
    wt: float

    @classmethod
    def build(cls, N):
        R = math.sqrt(1.0 + 20.0 / N) + 4.0 / math.sqrt(N)
        r, wr = radial_rule((0.0, 1.0, max(80, math.ceil(3.0 * math.sqrt(N)))), (1.0, R, 40))
        return cls(r, wr, 2.0 * math.pi * np.arange(512) / 512, 2.0 * math.pi / 512)

    def nodes(self):
        """Complex nodes as a (radial, angular) grid."""
        return self.r[:, None] * np.exp(1j * self.theta[None, :])


def _kernel(N, r):
    """(rho, R) on the radial nodes r: the kernel factors R_k(r) =
    sqrt(N^{k+1} / (pi k!)) r^k e^{-N r^2 / 2}, k < N, of shape (N, len(r)),
    built in log space against overflow, and rho_N = sum_k R_k^2 from those
    same factors, so the diagonal and the overlaps of an exact variance
    share their rounding.  Neither reads the weights of a rule."""
    ks = np.arange(N)[:, None]
    R = np.exp(
        0.5 * ((ks + 1) * math.log(N) - special.gammaln(ks + 1) - math.log(math.pi))
        + ks * np.log(r)[None, :]
        - 0.5 * N * r[None, :] ** 2
    )
    return np.square(R).sum(axis=0), R


@functools.lru_cache(maxsize=8)
def _plane_rule(N):
    """(quad, rho, R): the plane rule PlaneQuadrature.build(N) with _kernel
    on its radial nodes, built once per N for the radial exact routes;
    quad.r, quad.wr, rho and R are read-only."""
    quad = PlaneQuadrature.build(N)
    rho, R = _kernel(N, quad.r)
    for a in (quad.r, quad.wr, rho, R):
        a.flags.writeable = False
    return quad, rho, R


def _diagonal_pair_sq(R, d, C, wr):
    """List of the sums over the valid k of |A_{k,k+d}|^2, one per row c of
    the 2-D C, A_{k,k+d} = 2 pi int c(r) R_k(r) R_{k+d}(r) r dr the kernel
    overlap of the angular mode c(r) e^{i d theta} (r dr already in wr); one
    (pairs, radii) product at a time, whatever the number of rows."""
    pairs = max(R.shape[0] - abs(d), 0)
    K = R[max(0, -d) :][:pairs] * R[max(0, d) :][:pairs]
    return [float((np.abs(2.0 * math.pi * (K * w).sum(axis=1)) ** 2).sum()) for w in C * wr]


def _checked_variance(diag, off_sq):
    """diag - off_sq; VarianceError when it is NaN or when rounding or a
    coarse rule drives it below zero by more than 1e-12 of diag."""
    if not (-1e-12 * diag <= diag - off_sq):
        raise VarianceError(
            f"pair variance {diag - off_sq:.3e} is negative or NaN: "
            f"cancellation ratio off_sq/diag = {off_sq / diag:.15f}"
        )
    return diag - off_sq


def pair_variance(f, N, quad=None):
    """Exact finite-N variance of the centered linear statistic of f.

    Uses the eigen-decomposition of the determinantal kernel: with
    phi_k(z) = sqrt(N^{k+1} / (pi k!)) z^k e^{-N|z|^2/2},

        Var = int |f|^2 K(z,z) - sum_{k,l<N} |int f phi_k conj(phi_l)|^2.

    The angular reduction is done by FFT of f on the polar grid, so only
    radial integrals remain.  Every pair difference l - k must be resolved
    by the angular grid, so N - 1 <= len(quad.theta) // 2 is required.  For
    f = g(r) e^{-i n theta}, radial_pair_variance gives the same value
    without the grid.  This is the general route, for any f and any rule:
    rho_N and the radial kernel factors on quad.r are built in every call
    (_kernel), a small share of the FFT and the overlap sums.
    """
    quad = quad or PlaneQuadrature.build(N)
    M = len(quad.theta)
    if N - 1 > M // 2:
        raise ValueError(
            f"angular order {M} resolves pair differences up to {M // 2}, "
            f"N - 1 = {N - 1} needed"
        )
    z = quad.nodes()
    F = np.asarray(f(z), dtype=complex)
    # f(r, theta) = sum_m c_m(r) e^{i m theta}
    c = np.fft.fft(F, axis=1) / M  # c[:, m] with m negative aliased
    rho, R = _kernel(N, quad.r)
    # diagonal part: int |f|^2 rho_N
    diag = float(np.sum(np.abs(F) ** 2 * rho[:, None] * quad.wr[:, None] * quad.wt))
    off_sq = 0.0
    for d in range(-(N - 1), N):
        cm = c[:, d % M]
        if np.any(cm):
            off_sq += _diagonal_pair_sq(R, d, cm[None, :], quad.wr)[0]
    return _checked_variance(diag, off_sq)


def radial_mean(g, N):
    """E sum_i g(|z_i|) = 2 pi int g(r) rho_N(r) r dr for a radial g, one
    radial sum on the nodes of _plane_rule(N)."""
    quad, rho, _ = _plane_rule(N)
    return float(2.0 * math.pi * np.sum(np.asarray(g(quad.r)) * rho * quad.wr))


def radial_pair_variance(g, n, N):
    """pair_variance of g(r) e^{-i n theta}: one case, one row of radial_pair_variances."""
    return radial_pair_variances(lambda _, r: np.asarray(g(r))[None, None], [(n, N)])[0][0]


def radial_pair_variances(g, cases):
    """For each case (n, N), the list of pair_variance of f(r) e^{-i n theta}
    for each radial factor f of order n: the radial mean of |f|^2 less the
    overlaps on the diagonal l - k = -n (none when |n| >= N), on the radial
    nodes of _plane_rule(N), each rule read once.  One call g(ns, r), ns the
    column of distinct orders and r the sorted union of the nodes of every N,
    gives the factors, shape (len(ns), rows, len(r)).  Sums run along the
    radii of C-contiguous arrays, so rows do not mix; VarianceError for the
    first row, N by N, that fails _checked_variance."""
    rules = {N: _plane_rule(N) for _, N in cases}
    r = np.unique(np.concatenate([quad.r for quad, _, _ in rules.values()]))
    ns = list(dict.fromkeys(n for n, _ in cases))
    rows = np.asarray(g(np.reshape(ns, (-1, 1)), r))
    out = {}
    for N, (quad, rho, R) in rules.items():
        orders = [n for n, M in cases if M == N]
        G = np.take(rows[[ns.index(n) for n in orders]], np.searchsorted(r, quad.r), axis=-1)
        diag = 2.0 * math.pi * (np.abs(G) ** 2 * rho * quad.wr).sum(axis=-1)
        for n, d, Gn in zip(orders, diag, G):
            off_sq = _diagonal_pair_sq(R, -n, Gn, quad.wr)
            out[n, N] = [_checked_variance(float(a), o) for a, o in zip(d, off_sq)]
    return [out[case] for case in cases]
