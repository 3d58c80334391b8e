"""Tests of the disk eigenbasis, quadrature, Green's function, and the
coefficient algebra."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ginfield.basis import (
    CoeffVector,
    DiskDomainError,
    DiskQuadrature,
    SingularityError,
    disk_integrate,
    eigenfunction_radial_derivative,
    eval_eigenfunction,
    gram_matrix,
    green_dirichlet_closed,
    green_dirichlet_series,
    normalization_constant,
    pairing,
    project,
    radial_profile,
    sobolev_norm,
)
from ginfield.bessel import bessel_j
from ginfield.logkernel import power_coeff


@pytest.fixture(scope="module")
def quad():
    return DiskQuadrature.build()


def test_disk_quadrature_rule(quad):
    # Gauss-Legendre on [0, 1] with the r dr weight absorbed, bit for bit
    x, w = np.polynomial.legendre.leggauss(120)
    assert quad.radius == 1.0
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
    for derivative in (False, True):
        grid = radial_profile(4, ks, r[:, None], table, derivative)
        for k in ks:
            assert np.array_equal(grid[:, k - 1], radial_profile(-4, k, r, table, derivative))
    j = table.root(4, 2)
    c = 1.0 / (math.sqrt(math.pi) * bessel_j(5, j))
    assert abs(radial_profile(4, 2, 0.3, table) - c * bessel_j(4, 0.3 * j)) < 1e-14
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
    c = normalization_constant(n, k, table)
    r = np.linspace(0.05, 0.95, 50)
    h = 1e-5
    f = lambda rr: c * bessel_j(n, j * rr)
    lap = (f(r + h) - 2 * f(r) + f(r - h)) / h**2 + (f(r + h) - f(r - h)) / (
        2 * h * r
    ) - n**2 * f(r) / r**2
    assert np.max(np.abs(lap + j**2 * f(r))) < 1e-4


def test_radial_derivative(table):
    r = np.array([0.2, 0.5, 0.8])
    h = 1e-6
    n, k = 3, 2
    j = table.root(n, k)
    c = normalization_constant(n, k, table)
    fd = (bessel_j(n, j * (r + h)) - bessel_j(n, j * (r - h))) * c / (2 * h)
    assert np.max(np.abs(eigenfunction_radial_derivative(n, k, r, table) - fd)) < 1e-8


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


def test_coeff_vector_algebra(table):
    v = CoeffVector({(1, 1): 1 + 2j, (-1, 1): 1 - 2j}, real_field=True)
    assert v.get(1, 1) == 1 + 2j
    assert v.get(7, 3) == 0.0
    w = v.scale(2.0)
    assert w.get(-1, 1) == 2 - 4j and w.real_field
    with pytest.raises(ValueError):
        CoeffVector({(1, 1): 1 + 2j, (-1, 1): 1 + 2j}, real_field=True)
    with pytest.raises(ValueError):
        CoeffVector({(0, 0): 1.0})


def test_coeff_vector_json_roundtrip():
    v = CoeffVector({(2, 3): 0.5 - 0.25j, (0, 1): 1.5})
    u = CoeffVector.from_json(v.to_json())
    assert u.entries == v.entries


@given(
    st.dictionaries(
        st.tuples(st.integers(-9, 9), st.integers(1, 9)),
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        max_size=12,
    )
)
def test_coeff_vector_json_roundtrip_property(entries):
    v = CoeffVector(entries)
    u = CoeffVector.from_json(v.to_json())
    assert u.entries == v.entries


def test_sobolev_norm_pinned_value(table):
    # single unit coefficient at (0, 1), s = -1: j_{0,1}^{-2} = 0.172915...
    v = CoeffVector({(0, 1): 1.0})
    assert abs(sobolev_norm(v, -1.0, table) - 0.17291) < 1e-5
    assert abs(sobolev_norm(v, 0.0, table) - 1.0) < 1e-15
    # scaling in s: norm at s equals j^{2s} for the same vector
    j = table.root(0, 1)
    assert abs(sobolev_norm(v, 1.5, table) - j**3.0) < 1e-10


def test_pairing_conventions():
    phi = CoeffVector({(1, 1): 2.0, (-1, 1): 3.0})
    f = CoeffVector({(1, 1): 5.0, (-1, 1): 7.0})
    # sum phi[n,k] f[-n,k] = 2*7 + 3*5
    assert pairing(phi, f) == 29.0


def test_projection_recovers_power(quad, table):
    # z^2 projects onto (2, k) with coefficient 2 sqrt(pi) / j_{2,k}
    indices = [(2, k) for k in range(1, 7)] + [(1, 1), (3, 1), (-2, 1)]
    c = project(lambda z: z**2, indices, quad, table)
    for k in range(1, 7):
        assert abs(c.get(2, k) - power_coeff(2, k, table)) < 1e-10
    assert abs(c.get(1, 1)) < 1e-12
    assert abs(c.get(3, 1)) < 1e-12
    assert abs(c.get(-2, 1)) < 1e-12


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
    v = CoeffVector({(0, 1): 1.0, (2, 2): 1j})
    z = 0.25 - 0.6j
    manual = eval_eigenfunction(0, 1, z, table) + 1j * eval_eigenfunction(
        2, 2, z, table
    )
    assert abs(v.evaluate(z, table) - manual) < 1e-14
