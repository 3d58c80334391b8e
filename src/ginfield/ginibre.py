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

from .basis import DiskQuadrature

TRACE_TOL_PER_N = 1e-8


class EigensolverError(RuntimeError):
    """Raised when a spectrum fails the trace identity."""


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
    re = rng.standard_normal((N, N))
    im = rng.standard_normal((N, N))
    return (re + 1j * im) / math.sqrt(2.0 * N)


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


def one_point_density(N, z):
    """Eigenvalue intensity rho_N(z) = (N/pi) e^{-N|z|^2} sum_{k<N} (N|z|^2)^k / k!.

    Evaluated through the regularized upper incomplete gamma function,
    which is the stable closed form of the truncated exponential sum.  An
    array of the shape of z, 0-d for a scalar z.
    """
    if N < 1:
        raise ValueError("N must be positive")
    r2 = np.abs(np.asarray(z)) ** 2
    return (N / math.pi) * special.gammaincc(N, N * r2)


class PlaneQuadrature(DiskQuadrature):
    """Polar quadrature on |z| <= R for integrals against the Gaussian
    weight; R = sqrt(1 + 20/N) + 2/sqrt(N) makes the tail negligible.
    220 radial nodes and 512 angles."""

    @classmethod
    def build(cls, N):
        R = math.sqrt(1.0 + 20.0 / N) + 2.0 / math.sqrt(N)
        return cls._polar(220, 512, R)


def _log_kernel_radial(N, r):
    """log of the radial factors sqrt(N^{k+1} / (pi k!)) r^k e^{-N r^2 / 2},
    shape (N, len(r)); evaluated in log space to avoid overflow."""
    ks = np.arange(N)[:, None]
    lr = np.log(r)[None, :]
    return (
        0.5 * ((ks + 1) * math.log(N) - special.gammaln(ks + 1) - math.log(math.pi))
        + ks * lr
        - 0.5 * N * r[None, :] ** 2
    )


def _kernel(N, r):
    """(rho, R) on the radial nodes r: rho = one_point_density(N, r) and the
    radial kernel factors R = exp(_log_kernel_radial(N, r)) of shape
    (N, len(r)).  Neither reads the weights of a rule."""
    return one_point_density(N, r), np.exp(_log_kernel_radial(N, r))


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


def _diagonal_pair_sq(R, d, c, wr):
    """Sum over the valid k of |A_{k,k+d}|^2, where
    A_{k,k+d} = 2 pi int c(r) R_k(r) R_{k+d}(r) r dr is the kernel overlap of
    the angular mode c(r) e^{i d theta} (r dr already in wr)."""
    N = R.shape[0]
    ks = np.arange(max(0, -d), min(N, N - d))
    prod = R[ks, :] * R[ks + d, :] * (c * wr)[None, :]
    A = 2.0 * math.pi * prod.sum(axis=1)
    return float(np.sum(np.abs(A) ** 2))


def _checked_variance(diag, off_sq):
    """diag - off_sq, refused when it is NaN or when rounding or a coarse
    rule drives it below zero by more than 1e-12 of diag."""
    if not (-1e-12 * diag <= diag - off_sq):
        raise ValueError(
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
            off_sq += _diagonal_pair_sq(R, d, cm, quad.wr)
    return _checked_variance(diag, off_sq)


def radial_pair_variance(g, n, N):
    """pair_variance of the single-mode function f(r e^{i theta}) =
    g(r) e^{-i n theta}, given its radial factor g.

    Only the kernel overlaps on the diagonal l - k = -n are nonzero, so the
    variance is one radial sum on the radial nodes of the default plane
    rule; no pair exists when |n| >= N.  The rule, rho_N and the radial
    kernel factors come from _plane_rule(N), built once per N; only g is
    evaluated per call.
    """
    quad, rho, R = _plane_rule(N)
    gr = np.asarray(g(quad.r))
    diag = float(2.0 * math.pi * np.sum(np.abs(gr) ** 2 * rho * quad.wr))
    return _checked_variance(diag, _diagonal_pair_sq(R, -n, gr, quad.wr))
