"""Reference routes that the tests compare the library against.

None of these run in the CLI or the benchmark.  Most are a second route to
a quantity the library computes another way: pointwise basis values, the
2-D polar rule on the disk with its grid weights, quadrature projections
and the basis Gram on that grid (verify-basis takes the Gram order by
order, with the angular integral in closed form), pointwise values of a
coefficient array and the duality pairing of two, the closed-form Green's
function, the eigenvalue density in closed form (incomplete gamma) and as
a direct sum, plane Gaussian moments, the raw double sum of the
log-kernel expansion, the case-by-case limit covariance of gamma, and the
Rider-Virag gradient-plus-boundary limit variance with the analytic gradient
it uses, and the root table of scipy's per-order jn_zeros.  The radial
factor of several k, stacked from one-index alpha_radial calls, is the
layout of the library's several-k and piecewise routes.  The statistics and field
coefficients of a single spectrum are the one-draw form of the library's
batched route, the covariance of the truncated limit field summed order by
order from its coefficient law is the second route to the library's
factored pair covariance, the field's coefficients in complex arithmetic
and the Sobolev norm with its weights formed in every call are the forms
the library's real-arithmetic sampler and cached weights keep bit for
bit, and the exact finite-N moments with the one-point density and the
radial kernel factors rebuilt in every call, on any rule, are the form
the library's per-N plane-rule cache replaces; on a rule of 2,000 radii
per panel, with the closed-form density, they are the accuracy reference
of the library's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from ginfield.basis import (
    DiskDomainError,
    SingularityError,
    eval_matrix,
    radial_profile,
    radial_rule,
    root_window,
)
from ginfield.field import FieldSample
from ginfield.ginibre import (
    PlaneQuadrature,
    SpectrumSample,
    _checked_variance,
    _diagonal_pair_sq,
    _kernel,
)
from ginfield.linstats import GammaSample, _gamma_block, centering_term
from ginfield.logkernel import alpha_radial

# ---------------------------------------------------------------------------
# Bessel functions and the disk eigenbasis
# ---------------------------------------------------------------------------


def bessel_j_prime(n, x):
    """d/dx J_n(x) for integer order n >= 0 and real x >= 0."""
    xa = np.asarray(x, dtype=float)
    if n == 0:
        out = -special.jv(1, xa)
    else:
        # J_n' = (J_{n-1} - J_{n+1}) / 2, valid at x = 0 as well.
        out = 0.5 * (special.jv(n - 1, xa) - special.jv(n + 1, xa))
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def jn_zeros_table(n_max, k_max):
    """roots[n, k-1] = j_{n,k} from scipy.special.jn_zeros, one order at a time."""
    return np.array([special.jn_zeros(n, k_max) for n in range(n_max + 1)])


def eval_eigenfunction(n, k, z, table):
    """Basis function value at z (scalar or array), |z| <= 1."""
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    if np.any(r > 1.0 + 1e-12):
        raise DiskDomainError("point outside the closed unit disk")
    radial = radial_profile(n, k, np.minimum(r, 1.0), table)
    out = radial * np.exp(1j * n * np.angle(z))
    return complex(out) if out.ndim == 0 else out


def polar_rule(angular_order, *panels):
    """The polar rule of angular_order uniform angles tensored with the
    Gauss-Legendre radii of basis.radial_rule(*panels), as a
    ginibre.PlaneQuadrature.  Angular orthogonality of e^{i n phi} and
    e^{i m phi} holds on it, up to rounding, for |n - m| < angular_order."""
    r, wr = radial_rule(*panels)
    theta = 2.0 * math.pi * np.arange(angular_order) / angular_order
    return PlaneQuadrature(r, wr, theta, 2.0 * math.pi / angular_order)


def disk_rule(radial_order=120, angular_order=64):
    """The polar rule on the unit disk: one radial panel [0, 1]."""
    return polar_rule(angular_order, (0.0, 1.0, radial_order))


def grid_weights(quad):
    """Weights of a polar rule on its (radial, angular) grid of nodes()."""
    return quad.wr[:, None] * quad.wt * np.ones_like(quad.theta)[None, :]


def basis_matrix(indices, quad, table):
    """Values of the listed basis functions on the polar grid of quad,
    flattened to shape (nodes, len(indices))."""
    return np.column_stack([
        (radial_profile(n, k, quad.r, table)[:, None] * np.exp(1j * n * quad.theta)).ravel()
        for (n, k) in indices
    ])


def gram_matrix(indices, quad, table):
    """Gram matrix of the listed basis functions on the 2-D polar grid: the
    second route to the per-order radial Grams of verify-basis, which takes
    the angular integral in closed form."""
    E = basis_matrix(indices, quad, table)
    w = grid_weights(quad).ravel()
    return (E.conj().T * w) @ E


def disk_integrate(f, quad):
    """Integral of f over the unit disk; f maps complex arrays to values."""
    z = quad.nodes()
    vals = np.asarray(f(z))
    return complex(np.sum(vals * grid_weights(quad)))


def green_dirichlet_closed(z, w):
    """Dirichlet Green's function of the disk Laplacian, closed form:
    (1/2pi)(log|z - w| - log|1 - conj(z) w|)."""
    z = complex(z)
    w = complex(w)
    if abs(z) >= 1 or abs(w) >= 1:
        raise DiskDomainError("both points must lie in the open disk")
    if z == w:
        raise SingularityError("Green's function diverges at z = w")
    return (math.log(abs(z - w)) - math.log(abs(1 - np.conj(z) * w))) / (2 * math.pi)


def green_dirichlet_by_order(z, w, table, n_cut, k_cut):
    """-sum e_{n,k}(z) e_{-n,k}(w) / j_{n,k}^2 summed one order at a time,
    orders n and -n together through 2 cos(n (theta_z - theta_w))."""
    rz, tz = abs(complex(z)), np.angle(z)
    rw, tw = abs(complex(w)), np.angle(w)
    ks = np.arange(1, k_cut + 1)
    total = 0.0
    for n in range(0, n_cut + 1):
        js = table.roots[n, :k_cut]
        term = np.sum(
            radial_profile(n, ks, rz, table) * radial_profile(n, ks, rw, table) / js**2
        )
        ang = 2.0 * math.cos(n * (tz - tw)) if n > 0 else 1.0
        total += ang * term
    return -total


def project(f, indices, quad, table):
    """Quadrature Fourier-Bessel coefficients of f on the listed indices, as
    an array aligned with them."""
    E = basis_matrix(indices, quad, table)
    z = quad.nodes()
    vals = np.asarray(f(z)).ravel()
    w = grid_weights(quad).ravel()
    return E.conj().T @ (w * vals)


def pairing(phi, f):
    """Duality pairing sum over (n, k) of phi_{n,k} f_{-n,k} of two real
    fields with coefficient arrays of one shape; the pairing is real."""
    if phi.shape != f.shape:
        raise ValueError(f"coefficient shapes differ: {phi.shape} and {f.shape}")
    mult = np.full((phi.shape[0], 1), 2.0)
    mult[0] = 1.0
    return float(np.sum(mult * np.real(phi * np.conj(f))))


def _field_values(a, E):
    """Values at the points of E = eval_matrix(...) of the real fields
    a[..., n, k-1]: sum_k a_{0,k} e_{0,k} + 2 Re sum_{n>=1,k} a_{n,k} e_{n,k}."""
    h = np.real(np.einsum("...k,pk->...p", a[..., 0, :], E[:, 0, :]))
    h += 2.0 * np.real(np.einsum("...nk,pnk->...p", a[..., 1:, :], E[:, 1:, :]))
    return h


def evaluate(a, z, table):
    """Pointwise value of the real field with coefficients a at z (scalar or
    array), relative to the cutoff of a."""
    z = np.asarray(z, dtype=complex)
    E = eval_matrix(z.ravel(), a.shape[0] - 1, a.shape[1], table)
    h = _field_values(a, E).reshape(z.shape)
    return float(h) if h.ndim == 0 else h


# ---------------------------------------------------------------------------
# log-kernel coefficients
# ---------------------------------------------------------------------------


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


def alpha_radial_derivative(n, k, r, table):
    """dg/dr of the radial factor g of alpha_{n,k}, branch-wise analytic,
    for one radial index k; vectorized over r."""
    n = abs(int(n))
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    j = table.root(n, k)
    rt = math.sqrt(math.pi)
    a = -(2.0 * math.pi / j**2)
    g = np.empty_like(r)
    inside = r < 1.0
    ri, ro = r[inside], r[~inside]
    g_in = a * (table.norms[n, k - 1] * j * bessel_j_prime(n, j * ri))
    if n == 0:
        g[~inside] = (2.0 * rt / j) / ro
    else:
        g_in = g_in - rt / j * ri ** (n - 1)
        g[~inside] = rt / j * ro ** (-n - 1)
    g[inside] = g_in
    return float(g[0]) if scalar else g


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


# ---------------------------------------------------------------------------
# Ginibre moments
# ---------------------------------------------------------------------------


def gaussian_moment(m, N):
    """Plane Gaussian moment: integral of |z|^{2m} e^{-N |z|^2} = pi m! / N^{m+1}."""
    if m < 0 or N < 1:
        raise ValueError("require m >= 0 and N >= 1")
    return math.exp(special.gammaln(m + 1) + math.log(math.pi) - (m + 1) * math.log(N))


def one_point_density(N, z):
    """Eigenvalue intensity rho_N(z) = (N/pi) e^{-N|z|^2} sum_{k<N} (N|z|^2)^k / k!
    in closed form, through the regularized upper incomplete gamma function:
    the independent reference for the library's rho_N = sum_k R_k^2.  An
    array of the shape of z, 0-d for a scalar z."""
    r2 = np.abs(np.asarray(z)) ** 2
    return (N / math.pi) * special.gammaincc(N, N * r2)


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


def expected_linear_statistic(f, N, quad=None):
    """E sum_i f(z_i) = integral of f against the one-point density."""
    quad = quad or PlaneQuadrature.build(N)
    z = quad.nodes()
    vals = np.asarray(f(z), dtype=complex)
    rho = one_point_density(N, z)
    return complex(np.sum(vals * rho * grid_weights(quad)))


def pair_variance_per_call(f, N, quad=None):
    """ginibre.pair_variance with rho_N and the radial kernel factors built
    inside the call (ginibre._kernel), in the library's arithmetic order."""
    quad = quad or PlaneQuadrature.build(N)
    M = len(quad.theta)
    if N - 1 > M // 2:
        raise ValueError(f"angular order {M} resolves pair differences up to {M // 2}")
    F = np.asarray(f(quad.nodes()), dtype=complex)
    c = np.fft.fft(F, axis=1) / M
    rho, R = _kernel(N, quad.r)
    diag = float(np.sum(np.abs(F) ** 2 * rho[:, None] * quad.wr[:, None] * quad.wt))
    off_sq = 0.0
    for d in range(-(N - 1), N):
        cm = c[:, d % M]
        if np.any(cm):
            off_sq += _diagonal_pair_sq(R, d, cm[None, :], quad.wr)[0]
    return _checked_variance(diag, off_sq)


def radial_pair_variance_per_call(g, n, N, quad=None):
    """ginibre.radial_pair_variance with rho_N and the radial kernel factors
    built inside the call (ginibre._kernel)."""
    quad = quad or PlaneQuadrature.build(N)
    gr = np.asarray(g(quad.r))
    rho, R = _kernel(N, quad.r)
    diag = float(2.0 * math.pi * np.sum(np.abs(gr) ** 2 * rho * quad.wr))
    return _checked_variance(diag, _diagonal_pair_sq(R, -n, gr[None, :], quad.wr)[0])


def circle_average_variance(N):
    """Var A_1 of the circle average A_1 = sum_i log max(1, |z_i|) by Kostlan:
    the N |z_i|^2 have the laws of independent G_k ~ Gamma(k, 1), k = 1..N,
    so Var A_1 = sum_k Var (1/2) log max(1, G_k / N), each term from its
    first two moments by scipy.integrate.quad over the Gamma mass above N."""

    def moment(k, m):
        def f(x):
            return (0.5 * math.log(x / N)) ** m * math.exp(
                (k - 1) * math.log(x) - x - special.gammaln(k)
            )

        top = N + 40.0 * math.sqrt(N) + 40.0
        return integrate.quad(f, N, top, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    return sum(moment(k, 2) - moment(k, 1) ** 2 for k in range(1, N + 1))


def alpha_radial_rows(n, ks, r, table):
    """alpha_radial(n, k, r, table) for each k of ks, stacked into shape
    (len(ks),) + r.shape: the layout of alpha_radial(n, ks, r, table) and
    alpha_radial_piecewise."""
    return np.stack([alpha_radial(n, int(k), r, table) for k in ks])


def centering_term_per_call(n, k, N, table, quad=None):
    """linstats.centering_term with rho_N built inside the call (ginibre._kernel)."""
    if n != 0:
        return 0.0
    quad = quad or PlaneQuadrature.build(N)
    g = alpha_radial(0, k, quad.r, table)
    rho, _ = _kernel(N, quad.r)
    return float(2.0 * math.pi * np.sum(g * rho * quad.wr))


def fine_plane_rule(N, order=2000):
    """Reference radial rule for the exact moments at matrix size N: order
    Gauss-Legendre radii on each of [0, 1] and [1, 1 + 14/sqrt(N)], so no
    panel spans the kink of alpha at r = 1 and the cut lies far past the
    edge layer; one angle.  3000 radii per panel move the 9 x 8 alpha
    variances by at most 7e-12 relative, and their centerings by at most
    5e-12, for N <= 1024."""
    return polar_rule(1, (0.0, 1.0, order), (1.0, 1.0 + 14.0 / math.sqrt(N), order))


def alpha_moments(N, index_set, table, quad):
    """(variances, centerings): the exact finite-N variance and mean of
    gamma_{n,k} for each (n, k) of index_set, on the radial rule quad, with
    rho_N in closed form and the radial kernel factors built once for all
    indices."""
    rho = one_point_density(N, quad.r)
    _, R = _kernel(N, quad.r)
    variances, centerings = [], []
    for n, k in index_set:
        g = alpha_radial(n, k, quad.r, table)
        diag = float(2.0 * math.pi * np.sum(g**2 * rho * quad.wr))
        variances.append(_checked_variance(diag, _diagonal_pair_sq(R, -n, g[None, :], quad.wr)[0]))
        centerings.append(float(2.0 * math.pi * np.sum(g * rho * quad.wr)) if n == 0 else 0.0)
    return np.array(variances), np.array(centerings)


# ---------------------------------------------------------------------------
# finite-N statistics of one spectrum and the finite-N field
# ---------------------------------------------------------------------------


def gamma(sample, index_set, table, centerings=None):
    """Centered linear statistics of alpha over one spectrum sample."""
    index_set = tuple((int(n), int(k)) for n, k in index_set)
    if any(n < 0 for n, _ in index_set):
        raise ValueError("index set must have n >= 0")
    if centerings is None:
        N = len(sample.eigenvalues)
        centerings = {idx: centering_term(idx[0], idx[1], N, table) for idx in index_set}
    vals = _gamma_block(sample.eigenvalues[None, :], index_set, table, centerings)[0]
    return GammaSample(
        index_set=index_set,
        values=vals,
        matrix_size=len(sample.eigenvalues),
        seed=sample.seed,
    )


def h_N_coeffs(sample: SpectrumSample, cutoff, table):
    """Coefficients of the centered log-characteristic-polynomial field of
    one spectrum draw: entry a[n, k-1] is gamma_{n,k}^(N)."""
    n_max, k_max = cutoff
    index_set = [(n, k) for n in range(n_max + 1) for k in range(1, k_max + 1)]
    a = gamma(sample, index_set, table).values.reshape(n_max + 1, k_max)
    a[0] = a[0].real
    return FieldSample(a)


def coeff_arrays_complex(rng, cutoff, table):
    """The limit field's coefficients a[n, k-1] assembled in complex
    arithmetic, with A, Z and W drawn from rng in turn: the form that
    field._coeff_arrays keeps bit for bit in real arithmetic."""
    j, _ = root_window(cutoff, table)
    n_max, k_max = cutoff
    rt = math.sqrt(math.pi)
    a = np.empty((n_max + 1, k_max), dtype=complex)
    a[0] = rt * rng.standard_normal(k_max) / j[0]
    an = a[1:]
    an.real = rng.standard_normal((n_max, k_max))
    an.imag = rng.standard_normal((n_max, k_max))
    an /= math.sqrt(2)
    W = (rng.standard_normal(n_max) + 1j * rng.standard_normal(n_max)) / math.sqrt(2)
    an += W[:, None] / np.sqrt(np.arange(1, n_max + 1))[:, None]
    an *= rt
    an /= j[1:]
    return a


def sobolev_norm_uncached(a, s, table):
    """sum mult |a|^2 j^{2s} with the weights formed in every call, in the
    order (mult |a|^2) j^{2s}: the form basis.sobolev_norm keeps bit for bit
    with its cached weights."""
    j, mult = root_window((a.shape[0] - 1, a.shape[1]), table)
    return float(np.sum(mult * np.abs(a) ** 2 * j ** (2.0 * s)))


def truncated_covariance(p, q, cutoff, table):
    """E h(p) h(q) of the limit field at a cutoff, from the coefficient law
    of sample_h, one order at a time:
    pi sum_k e_{0,k}(p) e_{0,k}(q) / j^2
    + 2 pi sum_{n>=1} Re[sum_k e_{n,k}(p) conj e_{n,k}(q) / j^2 + S_n(p) conj S_n(q) / n],
    with S_n = sum_k e_{n,k} / j_{n,k}."""
    n_max, k_max = cutoff
    ks = np.arange(1, k_max + 1)
    j = table.roots[0, :k_max]
    total = math.pi * np.sum(
        eval_eigenfunction(0, ks, p, table) * eval_eigenfunction(0, ks, q, table) / j**2
    ).real
    for n in range(1, n_max + 1):
        j = table.roots[n, :k_max]
        ep = eval_eigenfunction(n, ks, p, table)
        eq = eval_eigenfunction(n, ks, q, table)
        pair = np.sum(ep * np.conj(eq) / j**2) + np.sum(ep / j) * np.conj(np.sum(eq / j)) / n
        total += 2.0 * math.pi * pair.real
    return float(total)


def tightness_bound(s_prime, cutoff, table, constant):
    """Reference bound constant * sum over the index window of j^{2 - 2s'}."""
    j, mult = root_window(cutoff, table)
    return constant * float(np.sum(mult * j ** (2.0 - 2.0 * s_prime)))


# ---------------------------------------------------------------------------
# limit law: per-pair moments, coefficient quadratic form and the Rider-Virag
# functional
# ---------------------------------------------------------------------------


def limit_covariance_by_pair(idx1, idx2, table):
    """Limiting second moments (E gamma1 conj(gamma2), E gamma1 gamma2) of
    one pair of indices, case by case."""
    n1, k1 = idx1
    n2, k2 = idx2
    if n1 < 0 or n2 < 0:
        raise ValueError("limit covariance is stated for n >= 0")
    if n1 != n2:
        return 0.0 + 0.0j, 0.0 + 0.0j
    j1 = table.root(n1, k1)
    j2 = table.root(n2, k2)
    if n1 == 0:
        c = math.pi / j1**2 if k1 == k2 else 0.0
        # gamma_{0,k} is real, so the plain second moment coincides
        return complex(c), complex(c)
    c = math.pi / (j1 * j2) * ((1.0 if k1 == k2 else 0.0) + 1.0 / n1)
    return complex(c), 0.0 + 0.0j


def limit_covariance_matrix_by_pair(index_set, table):
    """Conjugate covariance matrix over an index set, one pair at a time."""
    m = len(index_set)
    out = np.zeros((m, m), dtype=complex)
    for a, i1 in enumerate(index_set):
        for b, i2 in enumerate(index_set):
            out[a, b] = limit_covariance_by_pair(i1, i2, table)[0]
    return out


def limit_quadratic_form(t, s, table):
    """Variance of sum t_{n,k} Re gamma_{n,k} + s_{n,k} Im gamma_{n,k}
    under the limiting law; t, s are dicts keyed by (n, k) with n >= 0."""
    keys = set(t) | set(s)
    if any(n < 0 for n, _ in keys):
        raise ValueError("coefficients are indexed by n >= 0")
    total = 0.0
    ns = sorted({n for n, _ in keys})
    for n in ns:
        kset = sorted({k for m, k in keys if m == n})
        tv = np.array([t.get((n, k), 0.0) for k in kset])
        sv = np.array([s.get((n, k), 0.0) for k in kset])
        js = np.array([table.root(n, k) for k in kset])
        if n == 0:
            total += math.pi * float(np.sum(tv**2 / js**2))
            # Im gamma_{0,k} = 0: s coefficients contribute nothing
            continue
        total += 0.5 * math.pi * float(np.sum((tv**2 + sv**2) / js**2))
        total += (
            0.5
            * math.pi
            / n
            * float(np.sum(tv / js) ** 2 + np.sum(sv / js) ** 2)
        )
    return total


@dataclass
class TestFunction:
    """Real test function on the plane with optional analytic gradient.

    value maps complex arrays to real values; gradient maps complex arrays
    to the pair (df/dx, df/dy).  Without a gradient, central finite
    differences at step 1e-6 are used on the disk quadrature nodes.
    """

    value: callable
    gradient: callable = None

    __test__ = False  # keep pytest from collecting this as a test class

    def grad_sq(self, z):
        if self.gradient is not None:
            fx, fy = self.gradient(z)
            return np.abs(fx) ** 2 + np.abs(fy) ** 2
        h = 1e-6
        fx = (self.value(z + h) - self.value(z - h)) / (2 * h)
        fy = (self.value(z + 1j * h) - self.value(z - 1j * h)) / (2 * h)
        return fx**2 + fy**2


def rv_variance(f, quad=None, boundary_modes=512):
    """Limiting variance of the centered linear statistic of f:
    (1/4pi) * Dirichlet energy over the disk + (1/2) sum |k| |fhat(k)|^2."""
    quad = quad or disk_rule(radial_order=160, angular_order=256)
    z = quad.nodes()
    energy = float(np.sum(f.grad_sq(z) * grid_weights(quad)).real)
    theta = 2.0 * math.pi * np.arange(boundary_modes) / boundary_modes
    bvals = np.asarray(f.value(np.exp(1j * theta)), dtype=float)
    fhat = np.fft.fft(bvals) / boundary_modes
    ks = np.fft.fftfreq(boundary_modes, d=1.0 / boundary_modes)
    boundary = 0.5 * float(np.sum(np.abs(ks) * np.abs(fhat) ** 2))
    return energy / (4.0 * math.pi) + boundary


def alpha_combination(t, s, table):
    """TestFunction for sum t_{n,k} Re alpha_{n,k} + s_{n,k} Im alpha_{n,k},
    with analytic gradient from the branch-wise radial derivatives."""
    keys = sorted(set(t) | set(s))
    if any(n < 0 for n, _ in keys):
        raise ValueError("combination is indexed by n >= 0")

    def value(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        th = np.angle(z)
        out = np.zeros(z.shape, dtype=float)
        for (n, k) in keys:
            g = alpha_radial(n, k, r, table)
            tv = t.get((n, k), 0.0)
            sv = s.get((n, k), 0.0)
            out += tv * g * np.cos(n * th) - sv * g * np.sin(n * th)
        return out

    def gradient(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        th = np.angle(z)
        ct, st = np.cos(th), np.sin(th)
        fx = np.zeros(z.shape, dtype=float)
        fy = np.zeros(z.shape, dtype=float)
        for (n, k) in keys:
            g = alpha_radial(n, k, r, table)
            gp = alpha_radial_derivative(n, k, r, table)
            tv = t.get((n, k), 0.0)
            sv = s.get((n, k), 0.0)
            # alpha = g(r) e^{-i n theta}; for Re part the angular factor
            # is cos(n theta), for Im part -sin(n theta)
            cn, sn = np.cos(n * th), np.sin(n * th)
            fr = tv * gp * cn - sv * gp * sn
            ft = -n * (tv * g * sn + sv * g * cn)
            fx += ct * fr - st * ft / r
            fy += st * fr + ct * ft / r
        return fx, fy

    return TestFunction(value=value, gradient=gradient)
