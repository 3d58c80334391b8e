"""Ginibre sampling, complex eigenvalue computation, and exact
determinantal moment formulas for linear statistics.

Convention: a standard complex Gaussian Z has E Z = 0, E|Z|^2 = 1, with
independent real and imaginary parts of variance 1/2.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .basis import frozen_cache, radial_rule

TRACE_TOL_PER_N = 1e-8
# Largest share of a radial sum that the rule's outermost node may carry:
# r^64 at N = 16 puts 1.1e-3 there and misses its variance by 1.7e-2, and a
# rule cut at sqrt(1 + 20/N) + 2/sqrt(N) (1.4e-5 off the trace identity at
# N = 1024) puts 9.5e-10 there, which the trace identity itself reports.
RADIAL_TAIL_MAX = 1e-8


class EigensolverError(RuntimeError):
    """Raised when a spectrum fails the trace identity."""


class VarianceError(RuntimeError):
    """Raised when an exact variance comes out negative or NaN, or when a
    radial sum is not finite or is cut off at the rule's last radius."""


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of one Ginibre draw with provenance."""

    eigenvalues: np.ndarray
    seed: int


def draw_seed(master_seed, draw_index):
    """Deterministic per-draw seed sequence derived from (master, index)."""
    return np.random.SeedSequence([int(master_seed), int(draw_index)])


@frozen_cache(maxsize=8)
def _upper_mask(N):
    """N x N mask of the entries on and above the diagonal (row by row)."""
    return np.triu(np.ones((N, N), dtype=bool))


def sample_matrix(N, seed):
    """Ginibre(N) in upper Hessenberg form (Householder; Kostlan), like N x N
    i.i.d. complex Gaussians with E|z|^2 = 1/N in spectral law: such entries
    on and above the diagonal from one (2, N(N+1)/2) normal draw, then the
    real subdiagonal (k+1, k) = sqrt(Gamma(N - k, 1) / N), k = 1 .. N-1."""
    if N < 1:
        raise ValueError("matrix size must be positive")
    rng = np.random.default_rng(seed)
    out = np.zeros((N, N), dtype=complex)
    re, im = rng.standard_normal((2, N * (N + 1) // 2))
    out[_upper_mask(N)] = (re + 1j * im) / math.sqrt(2.0 * N)
    out.reshape(-1)[N :: N + 1] = np.sqrt(rng.standard_gamma(np.arange(N - 1.0, 0.0, -1.0)) / N)
    return out


def _openblas_zhseqr():
    """LAPACK zhseqr (64-bit integers) of the OpenBLAS that numpy.linalg links,
    found by dlsym through numpy.linalg's extension module; None if it has none."""
    zhseqr = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), "scipy_zhseqr_64_", None)
    if zhseqr is not None:
        c, n, p = ctypes.c_char_p, ctypes.c_size_t, ctypes.c_void_p
        i = ctypes.POINTER(ctypes.c_int64)
        # JOB, COMPZ, N, ILO, IHI, H, LDH, W, Z, LDZ, WORK, LWORK, INFO, len(JOB), len(COMPZ)
        zhseqr.argtypes, zhseqr.restype = [c, c, i, i, i, p, i, p, p, i, p, i, i, n, n], None
    return zhseqr


ZHSEQR = _openblas_zhseqr()


def _hessenberg_eigvals(H):
    """Eigenvalues of a nonempty upper Hessenberg H by ZHSEQR('E', 'N') alone,
    which reads nothing below the subdiagonal, with eigvals' LinAlgError for a
    non-finite entry; EigensolverError if it fails."""
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    N, H = H.shape[0], np.array(H, dtype=complex, order="F")  # a copy: zhseqr overwrites it
    w = np.empty(2 * N, dtype=complex)  # the eigenvalues, then a workspace of N (Z is not read)
    n, one, info = map(ctypes.c_int64, (N, 1, 0))  # passed by reference (argtypes)
    pw, pwork = w.ctypes.data, w.ctypes.data + w.itemsize * N
    ZHSEQR(b"E", b"N", n, one, n, H.ctypes.data, n, pw, pwork, one, pwork, n, info, 1, 1)
    if info.value:
        raise EigensolverError(f"zhseqr failed with info = {info.value}")
    return w[:N]


def eigenvalues(matrix, seed=0):
    """Eigenvalues of a square complex matrix (LAPACK) as a SpectrumSample,
    certified by the trace identity; the one choice of route: ZHSEQR alone if
    it exists and A is a nonempty upper Hessenberg matrix, else eigvals."""
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    N = A.shape[0]
    hessenberg = ZHSEQR is not None and N > 0 and not np.tril(A, -2).any()
    eig = _hessenberg_eigvals(A) if hessenberg else np.linalg.eigvals(A)
    tr = np.trace(A)
    if not (abs(eig.sum() - tr) <= TRACE_TOL_PER_N * N):
        raise EigensolverError("eigenvalue sum fails the trace identity")
    # sort for reproducibility regardless of LAPACK's ordering
    order = np.lexsort((eig.imag, eig.real))
    return SpectrumSample(eigenvalues=eig[order], seed=int(seed))


def sample_spectrum(N, master_seed, draw_index=0):
    """The certified eigenvalues of one seeded Ginibre draw, sampled in
    Hessenberg form: the spectrum of a dense i.i.d. draw in law, not draw by draw."""
    return eigenvalues(sample_matrix(N, draw_seed(master_seed, draw_index))).eigenvalues


# ---------------------------------------------------------------------------
# exact determinantal formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneQuadrature:
    """Polar quadrature for integrals against the kernel of Ginibre(N):
    radii r with weights wr (the r dr weight absorbed), tensored with
    len(theta) uniform angles.  build(N) takes 512 angles and
    Gauss-Legendre radii on two panels split at r = 1, where alpha is only
    C^2: max(80, ceil(3 sqrt N)) on [0, 1], where the kernel factors have
    width 1/sqrt(2N), and 40 on [1, R = sqrt(1 + 20/N) + 4/sqrt(N)]:
    R^2 - 1 >= 8/sqrt(N), 8 sd of Kostlan's outermost |z|^2."""

    r: np.ndarray
    wr: np.ndarray
    theta: np.ndarray

    @classmethod
    def build(cls, N):
        R = math.sqrt(1.0 + 20.0 / N) + 4.0 / math.sqrt(N)
        r, wr = radial_rule((0.0, 1.0, max(80, math.ceil(3.0 * math.sqrt(N)))), (1.0, R, 40))
        return cls(r, wr, 2.0 * math.pi * np.arange(512) / 512)

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


@frozen_cache(maxsize=8)
def _plane_rule(N):
    """(r, wr, rho, R): the radial rule of PlaneQuadrature.build(N) with
    _kernel on its nodes, built once per N for the radial exact routes."""
    quad = PlaneQuadrature.build(N)
    return (quad.r, quad.wr, *_kernel(N, quad.r))


def _overlaps(R, d, C, wr):
    """(rows, pairs) overlaps A_{k,k+d} = 2 pi int c(r) R_k R_{k+d} r dr over the
    valid k (none when |d| >= N) of the modes c(r) e^{i d theta}, c the rows of
    the 2-D C (r dr already in wr); one K @ w per row, K = R_j R_{j+|d|} for d
    and -d alike, so a row's overlaps do not depend on the other rows of the call."""
    pairs = max(R.shape[0] - abs(d), 0)
    K = R[:pairs] * R[abs(d) :]
    return np.array([2.0 * math.pi * (K @ w) for w in C * wr]).reshape(len(C), pairs)


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

    An FFT of f on the polar grid leaves radial integrals only; the
    diagonal is _radial_sum of sum_m |c_m(r)|^2 (Parseval).  The angular
    grid must resolve every pair difference l - k: N - 1 <=
    len(quad.theta) // 2.  For f = g(r) e^{-i n theta}, radial_pair_variances
    gives the same value without the grid.  This is the general route, for
    any f and any rule: rho_N and the radial kernel factors on quad.r are
    built in every call (_kernel), a small share of the FFT and the overlaps.
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
    diag = float(_radial_sum(np.sum(np.abs(c) ** 2, axis=1), rho, quad.wr))
    off_sq = 0.0
    for d in range(-(N - 1), N):
        off_sq += float((np.abs(_overlaps(R, d, c[None, :, d % M], quad.wr)) ** 2).sum())
    return _checked_variance(diag, off_sq)


def _radial_sum(G, rho, wr):
    """2 pi sum_r G(r) rho_N(r) wr along the last axis of G (r dr already in
    wr): the one radial sum of radial_mean and of the diagonal terms of
    pair_variance and radial_pair_variances.
    VarianceError for the first sum that is not finite, or whose outermost
    node carries more than RADIAL_TAIL_MAX of sum |G rho_N wr|, so that a
    factor still heavy at the rule's last radius is not cut off silently."""
    terms = G * rho * wr
    total = 2.0 * math.pi * terms.sum(axis=-1)
    tail, mass = np.abs(terms[..., -1]), np.abs(terms).sum(axis=-1)
    ok = np.isfinite(total) & (tail <= RADIAL_TAIL_MAX * mass)
    if not ok.all():
        t, top, m = (float(a[~ok][0]) for a in (total, tail, mass))
        if not math.isfinite(t):
            raise VarianceError(f"radial sum {t} is not finite")
        raise VarianceError(
            f"the outermost radial node carries {top / m:.3e} of a radial sum, past "
            f"{RADIAL_TAIL_MAX:.0e}: the factor is cut off at the rule's last radius"
        )
    return total


def radial_mean(g, N):
    """E sum_i g(|z_i|) = 2 pi int g(r) rho_N(r) r dr for a radial g: the one
    radial sum on the nodes of _plane_rule(N), which refuses a sum that is
    not finite or is cut off at the rule's last radius."""
    r, wr, rho, _ = _plane_rule(N)
    return float(_radial_sum(np.asarray(g(r)), rho, wr))


def radial_pair_variances(g, cases):
    """For each case (n, N), the list of pair_variance of f(r) e^{-i n theta}
    for each radial factor f of order n: the radial sum of |f|^2 less the
    squared overlaps on the diagonal l - k = -n (none when |n| >= N), on the
    radial nodes of _plane_rule(N), each rule read once.  One call g(ns, r),
    ns the column of distinct orders and r the sorted union of the nodes of
    every N, gives the factors, shape (len(ns), rows, len(r)).  Sums run along
    radii and _overlaps forms each row alone, so rows do not mix; N by N,
    VarianceError when a radial sum fails, then for the first row that fails
    _checked_variance."""
    rules = {N: _plane_rule(N) for _, N in cases}
    nodes = np.unique(np.concatenate([r for r, *_ in rules.values()]))
    ns = list(dict.fromkeys(n for n, _ in cases))
    rows = np.asarray(g(np.reshape(ns, (-1, 1)), nodes))
    out = {}
    for N, (r, wr, rho, R) in rules.items():
        orders = [n for n, M in cases if M == N]
        G = np.take(rows[[ns.index(n) for n in orders]], np.searchsorted(nodes, r), axis=-1)
        diag = _radial_sum(np.abs(G) ** 2, rho, wr)
        for n, d, Gn in zip(orders, diag, G):
            off_sq = (np.abs(_overlaps(R, -n, Gn, wr)) ** 2).sum(axis=1)
            out[n, N] = [_checked_variance(a, o) for a, o in zip(d.tolist(), off_sq.tolist())]
    return [out[case] for case in cases]


def _trace_power_moment(m, N):
    """E|tr A^m|^2 = N^{-m} sum_{k = max(0, N-m)}^{N-1} (k+1)...(k+m) for the
    Ginibre(N) matrix A (Kostlan), in integers and rounded once."""
    return sum(math.prod(range(k + 1, k + m + 1)) for k in range(max(0, N - m), N)) / N**m


def trace_power_errors(N, m_max):
    """For m = 1 .. m_max, the relative miss |V_m / E|tr A^m|^2 - 1| of
    V_m = Var sum_i z_i^m, the variance of g(r) = r^m at order n = -m from one
    radial_pair_variances call, against _trace_power_moment: a certificate
    of the plane rule at every order."""
    ms = range(1, m_max + 1)
    variances = radial_pair_variances(lambda ns, r: (r ** -ns)[:, None], [(-m, N) for m in ms])
    return [abs(v / _trace_power_moment(m, N) - 1.0) for m, (v,) in zip(ms, variances)]
