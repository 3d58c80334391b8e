"""Tests of the disk eigenbasis, quadrature, Green's function, and the
coefficient algebra."""

import math

import numpy as np
import pytest
from scipy import special

from ginfield.basis import (
    DiskDomainError,
    DiskQuadrature,
    SingularityError,
    gram_matrix,
    green_dirichlet_series,
    radial_profile,
    sobolev_norm,
)
from ginfield.bessel import build_root_table
from oracles import (
    disk_integrate,
    eval_eigenfunction,
    evaluate,
    green_dirichlet_by_order,
    green_dirichlet_closed,
    pairing,
    power_coeff,
    project,
)


@pytest.fixture(scope="module")
def quad():
    return DiskQuadrature.build()


def test_disk_quadrature_rule(quad):
    # Gauss-Legendre on [0, 1] with the r dr weight absorbed, bit for bit
    x, w = np.polynomial.legendre.leggauss(120)
    assert np.array_equal(quad.r, 0.5 * (x + 1.0))
    assert np.array_equal(quad.wr, 0.5 * w * quad.r)


def test_quadrature_builds_do_not_share_arrays():
    # the Gauss-Legendre rule is cached, but each build hands out its own r, wr
    a = DiskQuadrature.build()
    b = DiskQuadrature.build()
    assert np.array_equal(a.r, b.r) and np.array_equal(a.wr, b.wr)
    a.r[:] = 0.0
    a.wr[:] = 0.0
    c = DiskQuadrature.build()
    assert np.array_equal(c.r, b.r) and np.array_equal(c.wr, b.wr)


def test_radial_profile_broadcasts_over_k(table):
    r = np.array([0.0, 0.3, 0.8, 1.0])
    ks = np.arange(1, 6)
    grid = radial_profile(4, ks, r[:, None], table)
    for k in ks:
        assert np.array_equal(grid[:, k - 1], radial_profile(-4, k, r, table))
    j = table.root(4, 2)
    c = 1.0 / (math.sqrt(math.pi) * special.jv(5, j))
    assert abs(radial_profile(4, 2, 0.3, table) - c * special.jv(4, 0.3 * j)) < 1e-14
    with pytest.raises(KeyError):
        radial_profile(0, table.k_max + 1, r, table)
    with pytest.raises(KeyError):
        radial_profile(0, np.arange(0, 3), r, table)


def test_quadrature_area_and_moments(quad):
    area = disk_integrate(lambda z: np.ones_like(z, dtype=float), quad)
    assert abs(area - math.pi) < 1e-13
    # int |z|^2 dA = pi/2; int z dA = 0
    m2 = disk_integrate(lambda z: np.abs(z) ** 2, quad)
    assert abs(m2 - math.pi / 2) < 1e-13
    m1 = disk_integrate(lambda z: z, quad)
    assert abs(m1) < 1e-13


def test_boundary_vanishing(table):
    zs = np.exp(1j * np.linspace(0, 2 * math.pi, 17))
    for (n, k) in [(0, 1), (3, 2), (-5, 4)]:
        vals = eval_eigenfunction(n, k, zs, table)
        assert np.max(np.abs(vals)) < 1e-12


def test_eigenfunction_symmetries(table):
    z = 0.37 - 0.41j
    v = eval_eigenfunction(4, 3, z, table)
    assert abs(np.conj(v) - eval_eigenfunction(-4, 3, z, table)) < 1e-14
    # rotation covariance: e_{n,k}(e^{ia} z) = e^{ina} e_{n,k}(z)
    a = 0.7
    v_rot = eval_eigenfunction(4, 3, z * np.exp(1j * a), table)
    assert abs(v_rot - v * np.exp(4j * a)) < 1e-13


def test_domain_rejection(table):
    with pytest.raises(DiskDomainError):
        eval_eigenfunction(0, 1, 1.2, table)
    with pytest.raises(DiskDomainError):
        green_dirichlet_closed(1.1, 0.2)
    with pytest.raises(SingularityError):
        green_dirichlet_closed(0.3, 0.3)
    with pytest.raises(SingularityError):
        green_dirichlet_series(0.3, 0.3, None)


def test_gram_orthonormality(quad, table):
    indices = [(n, k) for n in range(-4, 5) for k in range(1, 5)]
    G = gram_matrix(indices, quad, table)
    assert np.max(np.abs(G - np.eye(len(indices)))) < 1e-10


def test_laplacian_eigenvalue(quad, table):
    # -Laplacian e = j^2 e checked weakly: int e_{n,k} conj(e_{n,k}) |z|-free
    # is hard directly, so check the radial ODE residual pointwise instead
    n, k = 2, 3
    j = table.root(n, k)
    c = table.norms[n, k - 1]
    r = np.linspace(0.05, 0.95, 50)
    h = 1e-5
    f = lambda rr: c * special.jv(n, j * rr)
    lap = (f(r + h) - 2 * f(r) + f(r - h)) / h**2 + (f(r + h) - f(r - h)) / (
        2 * h * r
    ) - n**2 * f(r) / r**2
    assert np.max(np.abs(lap + j**2 * f(r))) < 1e-4


def test_green_series_matches_closed_form(table):
    z, w = 0.31 + 0.22j, -0.45 + 0.1j
    closed = green_dirichlet_closed(z, w)
    series = green_dirichlet_series(z, w, table, n_cut=60, k_cut=60)
    assert abs(series - closed) < 2e-4
    # symmetry of the series route
    assert abs(
        green_dirichlet_series(w, z, table, n_cut=30, k_cut=30)
        - green_dirichlet_series(z, w, table, n_cut=30, k_cut=30)
    ) < 1e-14


@pytest.mark.parametrize(
    "z, w",
    [(0.0, 0.5), (0.31 + 0.22j, -0.45 + 0.1j), (0.6j, -0.2 - 0.7j), (0.1 - 0.4j, np.exp(0.7j))],
)
@pytest.mark.parametrize("cutoff", [(0, 5), (6, 1), (30, 30), (64, 64)])
def test_green_series_matches_the_order_by_order_sum(table, z, w, cutoff):
    series = green_dirichlet_series(z, w, table, *cutoff)
    ref = green_dirichlet_by_order(z, w, table, *cutoff)
    assert abs(series - ref) <= 1e-15 * max(1.0, abs(ref))


@pytest.mark.parametrize(
    "bad", [complex("nan"), complex(0.1, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf)]
)
def test_green_series_refuses_a_non_finite_point(table, bad):
    # the series' own disk check was False for NaN and returned nan
    for z, w in ((bad, 0.2), (0.1, bad)):
        with pytest.raises(DiskDomainError):
            green_dirichlet_series(z, w, table, 8, 8)


def test_green_series_cutoff_past_the_table_is_key_error():
    # an order cutoff past the table used to raise IndexError
    with pytest.raises(KeyError):
        green_dirichlet_series(0.1, 0.5j, build_root_table(8, 8), 9, 4)


def _signed_entries(a):
    """((n, k), a_{n,k}) over both signs of n of a real field's array a[n, k-1]."""
    for n in range(a.shape[0]):
        for k in range(1, a.shape[1] + 1):
            yield (n, k), complex(a[n, k - 1])
            if n > 0:
                yield (-n, k), complex(np.conj(a[n, k - 1]))


def _real_field(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a[0] = a[0].real
    return a


def test_coeff_vector_algebra(table):
    a, b = _real_field((4, 5), 1), _real_field((4, 5), 2)
    assert pairing(a, b) == pairing(b, a)
    assert abs(pairing(a, a) - sobolev_norm(a, 0.0, table)) < 1e-13 * pairing(a, a)
    for c in (2.0, 0.5 - 1.5j):
        scaled = sobolev_norm(c * a, 1.0, table)
        assert abs(scaled - abs(c) ** 2 * sobolev_norm(a, 1.0, table)) < 1e-13 * scaled
    with pytest.raises(ValueError):
        pairing(a, b[:, :4])


def test_sobolev_norm_pinned_value(table):
    # single unit coefficient at (0, 1), s = -1: j_{0,1}^{-2} = 0.172915...
    v = np.ones((1, 1), dtype=complex)
    assert abs(sobolev_norm(v, -1.0, table) - 0.17291) < 1e-5
    assert abs(sobolev_norm(v, 0.0, table) - 1.0) < 1e-15
    # scaling in s: norm at s equals j^{2s} for the same vector
    j = table.root(0, 1)
    assert abs(sobolev_norm(v, 1.5, table) - j**3.0) < 1e-10
    # the weighted sum equals the per-entry sum over both signs of n
    a = _real_field((6, 7), 3)
    for s in (-1.0, 0.0, 0.75):
        loop = sum(abs(v) ** 2 * table.root(n, k) ** (2.0 * s) for (n, k), v in _signed_entries(a))
        assert abs(sobolev_norm(a, s, table) - loop) < 1e-13 * loop


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_sobolev_norm_refuses_a_non_finite_exponent(s, table):
    # s = nan used to give nan, and s = +-inf 0.0 or inf
    with pytest.raises(ValueError, match="finite"):
        sobolev_norm(_real_field((3, 3), 1), s, table)


def test_pairing_conventions():
    # sum phi[n,k] f[-n,k] over n = +-1: (2 + i)(5 + 3i) + (2 - i)(5 - 3i) = 14
    phi = np.zeros((2, 1), dtype=complex)
    f = np.zeros((2, 1), dtype=complex)
    phi[1, 0], f[1, 0] = 2 + 1j, 5 - 3j
    assert pairing(phi, f) == 14.0
    a, b = _real_field((5, 3), 4), _real_field((5, 3), 5)
    fb = dict(_signed_entries(b))
    loop = sum(v * fb[(-n, k)] for (n, k), v in _signed_entries(a))
    assert abs(loop.imag) < 1e-13 and abs(pairing(a, b) - loop.real) < 1e-13 * abs(loop)


def test_projection_recovers_power(quad, table):
    # z^2 projects onto (2, k) with coefficient 2 sqrt(pi) / j_{2,k}
    indices = [(2, k) for k in range(1, 7)] + [(1, 1), (3, 1), (-2, 1)]
    c = project(lambda z: z**2, indices, quad, table)
    assert c.shape == (len(indices),)
    for k in range(1, 7):
        assert abs(c[k - 1] - power_coeff(2, k, table)) < 1e-10
    assert abs(c[6]) < 1e-12
    assert abs(c[7]) < 1e-12
    assert abs(c[8]) < 1e-12


def test_power_expansion_pointwise(quad, table):
    # z^n = sum_k (2 sqrt(pi) / j_{n,k}) e_{n,k}(z); interior convergence
    n = 3
    z = 0.4 + 0.3j
    def partial(K):
        return sum(
            power_coeff(n, k, table) * eval_eigenfunction(n, k, z, table)
            for k in range(1, K + 1)
        )

    # pointwise convergence is slow (order 1/K); check the value loosely and
    # the error decay between cutoffs
    assert abs(partial(table.k_max) - z**n) < 2e-2
    assert abs(partial(70) - z**n) < 0.5 * abs(partial(18) - z**n)


def test_evaluate_matches_manual(table):
    # real field e_{0,1} + i e_{2,2} - i e_{-2,2}
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0], v[2, 1] = 1.0, 1j
    z = 0.25 - 0.6j
    manual = (
        eval_eigenfunction(0, 1, z, table)
        + 1j * eval_eigenfunction(2, 2, z, table)
        - 1j * eval_eigenfunction(-2, 2, z, table)
    )
    assert abs(evaluate(v, z, table) - manual) < 1e-14
    # a random field on an array of points against the sum over both signs of n
    a = _real_field((5, 4), 6)
    zs = np.array([[0.0, 0.3 + 0.1j], [-0.7j, 0.5 - 0.5j], [1.0, -0.2 + 0.9j]])
    loop = sum(v * eval_eigenfunction(n, k, zs, table) for (n, k), v in _signed_entries(a))
    got = evaluate(a, zs, table)
    assert got.shape == zs.shape
    assert np.max(np.abs(got - loop)) < 1e-13
    with pytest.raises(DiskDomainError):
        evaluate(a, 1.1, table)
