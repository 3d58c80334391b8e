"""Ginibre sampling, complex eigenvalue computation, and exact
determinantal moment formulas for linear statistics.

Convention: a standard complex Gaussian Z has E Z = 0, E|Z|^2 = 1, with
independent real and imaginary parts of variance 1/2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .basis import DiskQuadrature

TRACE_TOL_PER_N = 1e-8


class EigensolverError(RuntimeError):
    """Raised when the QR iteration exceeds its budget or a spectrum fails
    the trace identity."""


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of one Ginibre draw with provenance."""

    eigenvalues: np.ndarray
    matrix_size: int
    seed: int

    def __post_init__(self):
        if len(self.eigenvalues) != self.matrix_size:
            raise ValueError("eigenvalue count must equal the matrix size")

    def to_json(self):
        return json.dumps(
            {
                "N": self.matrix_size,
                "seed": self.seed,
                "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        eig = np.array([complex(re, im) for re, im in obj["eigenvalues"]])
        return cls(eigenvalues=eig, matrix_size=obj["N"], seed=obj["seed"])


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


def sample_matrices(N, count, master_seed):
    """Stack of `count` independent draws with per-draw derived seeds."""
    out = np.empty((count, N, N), dtype=complex)
    for i in range(count):
        out[i] = sample_matrix(N, draw_seed(master_seed, i))
    return out


# ---------------------------------------------------------------------------
# eigensolver: in-repo Hessenberg + shifted QR, plus a LAPACK backend
# ---------------------------------------------------------------------------


def _balance(A, iterations=5):
    """Diagonal similarity scaling toward equal row/column norms."""
    A = A.copy()
    n = A.shape[0]
    radix = 2.0
    for _ in range(iterations):
        converged = True
        for i in range(n):
            c = np.sum(np.abs(A[:, i])) - abs(A[i, i])
            r = np.sum(np.abs(A[i, :])) - abs(A[i, i])
            if c == 0 or r == 0:
                continue
            f = 1.0
            s = c + r
            while c < r / radix:
                c *= radix
                r /= radix
                f *= radix
            while c >= r * radix:
                c /= radix
                r *= radix
                f /= radix
            if (c + r) < 0.95 * s and f != 1.0:
                converged = False
                A[i, :] /= f
                A[:, i] *= f
        if converged:
            break
    return A


def _hessenberg(A):
    """Reduce to upper Hessenberg form by Householder similarity."""
    H = A.astype(complex).copy()
    n = H.shape[0]
    for col in range(n - 2):
        x = H[col + 1 :, col].copy()
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        v = x.copy()
        v[0] += phase * nx
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        H[col + 1 :, col:] -= 2.0 * np.outer(v, v.conj() @ H[col + 1 :, col:])
        H[:, col + 1 :] -= 2.0 * np.outer(H[:, col + 1 :] @ v, v.conj())
        H[col + 2 :, col] = 0.0
    return H


def _wilkinson_shift(H, m):
    """Eigenvalue of the trailing 2x2 block closest to H[m, m]."""
    if m == 0:
        return H[0, 0]
    a, b = H[m - 1, m - 1], H[m - 1, m]
    c, d = H[m, m - 1], H[m, m]
    tr = a + d
    det = a * d - b * c
    disc = np.sqrt(tr * tr - 4.0 * det + 0j)
    r1 = (tr + disc) / 2.0
    r2 = (tr - disc) / 2.0
    return r1 if abs(r1 - d) < abs(r2 - d) else r2


def _qr_eigenvalues(A, budget_factor=40):
    """Complex eigenvalues by shifted QR iteration with deflation."""
    n = A.shape[0]
    if n == 0:
        return np.array([], dtype=complex)
    if n == 1:
        return A.astype(complex).ravel().copy()
    H = _hessenberg(_balance(np.asarray(A, dtype=complex)))
    eigs = []
    m = n - 1  # active block is H[0:m+1, 0:m+1]
    budget = budget_factor * n
    iters = 0
    stagnation = 0
    eps = np.finfo(float).eps
    while m >= 0:
        if m == 0:
            eigs.append(H[0, 0])
            m -= 1
            continue
        # deflation scan from the bottom of the active block
        l = m
        while l > 0:
            if abs(H[l, l - 1]) <= eps * (abs(H[l - 1, l - 1]) + abs(H[l, l])):
                H[l, l - 1] = 0.0
                break
            l -= 1
        if l == m:
            eigs.append(H[m, m])
            m -= 1
            stagnation = 0
            continue
        if iters >= budget:
            raise EigensolverError(
                f"QR iteration exceeded budget of {budget} sweeps"
            )
        iters += 1
        stagnation += 1
        if stagnation % 12 == 0:
            # exceptional shift to break symmetry-induced stalls
            sigma = H[m, m] + abs(H[m, m - 1]) * complex(0.75, 0.4375)
        else:
            sigma = _wilkinson_shift(H, m)
        # one explicit shifted QR step on the active block: QR factor
        # H - sigma I by Givens rotations, then form R Q + sigma I
        B = H[l : m + 1, l : m + 1]
        k = m - l + 1
        idx = np.arange(k)
        B[idx, idx] -= sigma
        rots = []
        for i in range(k - 1):
            x, y = B[i, i], B[i + 1, i]
            r = math.hypot(abs(x), abs(y))
            if r == 0.0:
                c, s = 1.0 + 0j, 0.0 + 0j
            else:
                c, s = x / r, y / r
            rots.append((c, s))
            row_i = B[i, i:].copy()
            row_j = B[i + 1, i:].copy()
            B[i, i:] = np.conj(c) * row_i + np.conj(s) * row_j
            B[i + 1, i:] = -s * row_i + c * row_j
            B[i + 1, i] = 0.0
        for i, (c, s) in enumerate(rots):
            hi = min(i + 2, k - 1)
            col_i = B[: hi + 1, i].copy()
            col_j = B[: hi + 1, i + 1].copy()
            B[: hi + 1, i] = c * col_i + s * col_j
            B[: hi + 1, i + 1] = -np.conj(s) * col_i + np.conj(c) * col_j
        B[idx, idx] += sigma
    return np.array(eigs, dtype=complex)


def eigenvalues(matrix, seed=0, backend="lapack"):
    """Eigenvalues of a square complex matrix as a SpectrumSample.

    backend: "lapack" (default, numpy/LAPACK) or "qr" (in-repo shifted QR,
    kept for cross-validation and self-containedness at small sizes).
    """
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    N = A.shape[0]
    if backend == "lapack":
        eig = np.linalg.eigvals(A)
    elif backend == "qr":
        eig = _qr_eigenvalues(A)
    else:
        raise ValueError(f"unknown eigensolver backend {backend!r}")
    tr = np.trace(A)
    if abs(eig.sum() - tr) > TRACE_TOL_PER_N * N:
        raise EigensolverError("eigenvalue sum fails the trace identity")
    # sort for reproducibility regardless of backend ordering
    order = np.lexsort((eig.imag, eig.real))
    return SpectrumSample(eigenvalues=eig[order], matrix_size=N, seed=int(seed))


def sample_spectrum(N, master_seed, draw_index=0, backend="lapack"):
    """One seeded Ginibre draw reduced to its spectrum."""
    ss = draw_seed(master_seed, draw_index)
    return eigenvalues(sample_matrix(N, ss), seed=master_seed, backend=backend)


# ---------------------------------------------------------------------------
# exact determinantal formulas
# ---------------------------------------------------------------------------


def ginibre_log_normalization(N):
    """log Z_N = sum_{k<=N} log k! - N(N-1)/2 log N."""
    if N < 1:
        raise ValueError("N must be positive")
    return float(
        sum(special.gammaln(k + 1) for k in range(1, N + 1))
        - 0.5 * N * (N - 1) * math.log(N)
    )


def ginibre_normalization(N):
    """Z_N itself; overflows to inf for very large N (use the log form)."""
    return math.exp(ginibre_log_normalization(N))


def gaussian_moment(m, N):
    """Plane Gaussian moment: integral of |z|^{2m} e^{-N |z|^2} = pi m! / N^{m+1}."""
    if m < 0 or N < 1:
        raise ValueError("require m >= 0 and N >= 1")
    return math.exp(special.gammaln(m + 1) + math.log(math.pi) - (m + 1) * math.log(N))


def one_point_density(N, z):
    """Eigenvalue intensity rho_N(z) = (N/pi) e^{-N|z|^2} sum_{k<N} (N|z|^2)^k / k!.

    Evaluated through the regularized upper incomplete gamma function,
    which is the stable closed form of the truncated exponential sum.
    """
    if N < 1:
        raise ValueError("N must be positive")
    r2 = np.abs(np.asarray(z)) ** 2
    out = (N / math.pi) * special.gammaincc(N, N * r2)
    return float(out) if out.ndim == 0 else out


def one_point_density_series(N, z):
    """Direct-sum evaluation of rho_N, as an independent cross-check route."""
    r2 = abs(complex(z)) ** 2
    x = N * r2
    term = 1.0
    total = 1.0
    for k in range(1, N):
        term *= x / k
        total += term
    return (N / math.pi) * math.exp(-x) * total


class PlaneQuadrature(DiskQuadrature):
    """Polar quadrature on |z| <= R for integrals against the Gaussian
    weight; R = sqrt(1 + 20/N) + 2/sqrt(N) makes the tail negligible."""

    @classmethod
    def build(cls, N, radial_order=220, angular_order=512):
        R = math.sqrt(1.0 + 20.0 / N) + 2.0 / math.sqrt(N)
        return cls._polar(radial_order, angular_order, R)


def expected_linear_statistic(f, N, quad=None):
    """E sum_i f(z_i) = integral of f against the one-point density."""
    quad = quad or PlaneQuadrature.build(N)
    z = quad.nodes()
    vals = np.asarray(f(z), dtype=complex)
    rho = one_point_density(N, z)
    return complex(np.sum(vals * rho * quad.weights()))


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
    """diag - off_sq, refused when rounding or a coarse rule drives it
    below zero by more than 1e-12 of diag."""
    if diag - off_sq < -1e-12 * diag:
        raise ValueError(
            f"pair variance {diag - off_sq:.3e} is negative: "
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
    by the angular grid, so N - 1 <= angular_order // 2 is required.  For
    f = g(r) e^{-i n theta}, radial_pair_variance gives the same value
    without the grid.
    """
    quad = quad or PlaneQuadrature.build(N)
    M = quad.angular_order
    if N - 1 > M // 2:
        raise ValueError(
            f"angular order {M} resolves pair differences up to {M // 2}, "
            f"N - 1 = {N - 1} needed"
        )
    z = quad.nodes()
    F = np.asarray(f(z), dtype=complex)
    # f(r, theta) = sum_m c_m(r) e^{i m theta}
    c = np.fft.fft(F, axis=1) / M  # c[:, m] with m negative aliased
    R = np.exp(_log_kernel_radial(N, quad.r))  # (N, nr)
    # diagonal part: int |f|^2 rho_N
    rho = one_point_density(N, quad.r)
    diag = float(np.sum(np.abs(F) ** 2 * rho[:, None] * quad.wr[:, None] * quad.wt))
    off_sq = 0.0
    for d in range(-(N - 1), N):
        cm = c[:, d % M]
        if np.any(cm):
            off_sq += _diagonal_pair_sq(R, d, cm, quad.wr)
    return _checked_variance(diag, off_sq)


def radial_pair_variance(g, n, N, quad=None):
    """pair_variance of the single-mode function f(r e^{i theta}) =
    g(r) e^{-i n theta}, given its radial factor g.

    Only the kernel overlaps on the diagonal l - k = -n are nonzero, so the
    variance is one radial sum on the radial nodes of the same rule; no
    pair exists when |n| >= N.
    """
    quad = quad or PlaneQuadrature.build(N)
    gr = np.asarray(g(quad.r))
    rho = one_point_density(N, quad.r)
    diag = float(2.0 * math.pi * np.sum(np.abs(gr) ** 2 * rho * quad.wr))
    R = np.exp(_log_kernel_radial(N, quad.r))
    return _checked_variance(diag, _diagonal_pair_sq(R, -n, gr, quad.wr))
