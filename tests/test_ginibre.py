"""Tests of Ginibre sampling, the eigensolver, and the exact
determinantal formulas."""

import dataclasses
import math

import numpy as np
import pytest

from ginfield.cli import main
from ginfield.ginibre import (
    EigensolverError,
    PlaneQuadrature,
    draw_seed,
    eigenvalues,
    one_point_density,
    pair_variance,
    radial_pair_variance,
    sample_matrix,
    sample_spectrum,
)
from ginfield.linstats import centering_term
from oracles import (
    expected_linear_statistic,
    gaussian_moment,
    one_point_density_series,
    pair_variance_per_call,
    radial_pair_variance_per_call,
)


def test_sample_matrix_scaling():
    N = 64
    A = sample_matrix(N, 123)
    assert A.shape == (N, N)
    # E |entry|^2 = 1/N; a 64 x 64 draw has 4096 entries, se ~ 1/64
    mean_sq = float(np.mean(np.abs(A) ** 2))
    assert abs(mean_sq - 1.0 / N) < 5.0 / (N * math.sqrt(N * N))


def test_sampling_determinism():
    a = sample_matrix(16, draw_seed(7, 3))
    b = sample_matrix(16, draw_seed(7, 3))
    c = sample_matrix(16, draw_seed(7, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_matrix_errors():
    with pytest.raises(ValueError):
        sample_matrix(0, 1)


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))


def test_spectrum_sample_csv_roundtrip(tmp_path):
    # eigenvalues.csv of the CLI holds each seeded spectrum exactly
    assert main(["ginibre-sample", "--n-size", "64", "--draws", "20", "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    draw, re, im = np.loadtxt(tmp_path / "eigenvalues.csv", delimiter=",", skiprows=1).T
    assert np.array_equal(draw, np.repeat(np.arange(20), 64))
    for i, z in enumerate((re + 1j * im).reshape(20, 64)):
        assert np.array_equal(z, sample_spectrum(64, 5, draw_index=i).eigenvalues)


def test_spectrum_inside_disk_mostly():
    # at N = 128 the spectral radius concentrates near 1
    s = sample_spectrum(128, 0)
    assert float(np.max(np.abs(s.eigenvalues))) < 1.3


def test_gaussian_moment_closed_form():
    assert abs(gaussian_moment(0, 4) - math.pi / 4) < 1e-15
    assert abs(gaussian_moment(3, 2) - math.pi * 6 / 16) < 1e-14
    with pytest.raises(ValueError):
        gaussian_moment(-1, 4)


def test_gaussian_moment_vs_quadrature():
    N = 4
    quad = PlaneQuadrature.build(N)
    for m in range(0, 6):
        q = complex(
            np.sum(
                np.abs(quad.nodes()) ** (2 * m)
                * np.exp(-N * np.abs(quad.nodes()) ** 2)
                * quad.weights()
            )
        )
        assert abs(q - gaussian_moment(m, N)) < 1e-12


def test_plane_quadrature_rule():
    # Gauss-Legendre on [0, R] with the r dr weight absorbed, pinned bit
    # for bit to the formulas the rule is defined by
    N = 32
    R = math.sqrt(1.0 + 20.0 / N) + 2.0 / math.sqrt(N)
    x, w = np.polynomial.legendre.leggauss(220)
    quad = PlaneQuadrature.build(N)
    assert np.array_equal(quad.r, 0.5 * R * (x + 1.0))
    assert np.array_equal(quad.wr, 0.5 * R * w * quad.r)
    assert np.array_equal(quad.theta, 2.0 * math.pi * np.arange(512) / 512)
    assert quad.wt == 2.0 * math.pi / 512


def test_one_point_density_routes_agree():
    for N in (1, 4, 32):
        for r in (0.0, 0.3, 0.9, 1.05, 1.4):
            a = one_point_density(N, r)
            b = one_point_density_series(N, r)
            assert abs(a - b) < 1e-12 * max(1.0, a)


def test_one_point_density_normalizes_to_N():
    for N in (2, 16, 64):
        quad = PlaneQuadrature.build(N)
        total = float(np.sum(one_point_density(N, quad.nodes()) * quad.weights()))
        assert abs(total - N) < 1e-8


def test_expected_linear_statistic_moments():
    # E sum |z_i|^2 = (N + 1) / 2 exactly
    for N in (2, 8, 32):
        got = expected_linear_statistic(lambda z: np.abs(z) ** 2, N)
        assert abs(got - (N + 1) / 2) < 1e-9


@pytest.mark.parametrize("N", [2, 8, 32, 64])
def test_pair_variance_of_z(N):
    # Var sum z_i = 1 exactly at every N
    v = pair_variance(lambda z: z, N)
    assert abs(v - 1.0) < 1e-6


def test_pair_variance_against_monte_carlo():
    # crude MC cross-check at small N for a nonanalytic statistic
    N, draws = 4, 4000
    f = lambda z: np.abs(z) ** 2
    exact = pair_variance(f, N)
    vals = np.empty(draws)
    for i in range(draws):
        s = sample_spectrum(N, 99, draw_index=i)
        vals[i] = float(np.sum(f(s.eigenvalues)).real)
    mc = float(np.var(vals, ddof=1))
    se = mc * math.sqrt(2.0 / (draws - 1))
    assert abs(mc - exact) < 5 * se


def test_pair_variance_of_constant_is_zero():
    v = pair_variance(lambda z: np.ones_like(z, dtype=complex), 8)
    assert abs(v) < 1e-10


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_radial_pair_variance_of_z(N):
    # Var sum z_i = E|tr A|^2 = 1; z = r e^{-i(-1)theta}.  The default plane
    # rule truncates at a radius whose Gaussian tail leaves up to 6e-11 at
    # N = 64, so the identity is checked to 1e-12, through the per-call
    # oracle, on a rule out to radius 3.
    quad = PlaneQuadrature._polar(220, 1, 3.0)
    assert abs(radial_pair_variance_per_call(lambda r: r, -1, N, quad) - 1.0) < 1e-12


def test_pair_variance_refuses_unresolved_pair_differences():
    # 64 angular nodes resolve pair differences up to 32: N = 33 is the limit
    R = math.sqrt(1.0 + 20.0 / 34) + 2.0 / math.sqrt(34)
    quad = PlaneQuadrature._polar(220, 64, R)
    assert abs(pair_variance(lambda z: z, 33, quad) - 1.0) < 1e-6
    with pytest.raises(ValueError, match="angular order 64"):
        pair_variance(lambda z: z, 34, quad)


def test_pair_variance_refuses_negative_variance():
    # weights 1 % too heavy make each kernel overlap 1.01, so the subtracted
    # sum exceeds the diagonal term and the variance would come out negative
    quad = PlaneQuadrature.build(8)
    heavy = dataclasses.replace(quad, wr=1.01 * quad.wr)
    with pytest.raises(ValueError, match="off_sq/diag"):
        pair_variance(lambda z: np.ones_like(z, dtype=complex), 8, heavy)
    with pytest.raises(ValueError, match="off_sq/diag"):
        radial_pair_variance_per_call(np.ones_like, 0, 8, heavy)


def test_pair_variance_refuses_nan():
    # NaN fails every comparison, so the sign check must reject it explicitly
    with pytest.raises(ValueError, match="off_sq/diag"):
        pair_variance(lambda z: np.full(z.shape, np.nan, dtype=complex), 8)
    with pytest.raises(ValueError, match="off_sq/diag"):
        radial_pair_variance(lambda r: np.full_like(r, np.nan), 0, 8)


@pytest.mark.parametrize("N", [8, 64])
def test_pair_variance_equals_the_per_call_oracle(N, cold_kernel):
    expected = pair_variance_per_call(lambda z: z, N)
    cold = pair_variance(lambda z: z, N)
    # the general route builds its kernel in the call and caches no rule
    assert cold_kernel.cache_info().currsize == 0
    assert cold == expected and pair_variance(lambda z: z, N) == expected


def test_kernel_cache_is_keyed_by_N_and_the_radial_nodes(small_table, cold_kernel):
    # one rule per N, so N alone fixes the radial nodes; the centering and
    # the radial route share its entry
    radial_pair_variance(lambda r: r, -1, 8)
    centering_term(0, 1, 8, small_table)
    assert cold_kernel.cache_info()[:2] == (1, 1)  # (hits, misses)
    radial_pair_variance(lambda r: r, -1, 16)
    assert cold_kernel.cache_info().currsize == 2
    quad, rho, R = cold_kernel(8)
    assert np.array_equal(quad.r, PlaneQuadrature.build(8).r)
    assert R.shape == (8, len(quad.r))
    for a in (quad.r, quad.wr, rho, R):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_kernel_cache_is_bounded(cold_kernel):
    sizes = range(1, 3 * 8 + 1)
    for N in sizes:
        radial_pair_variance(lambda r: r, -1, N)
    assert cold_kernel.cache_info().currsize == 8
    # the last 8 sizes are the ones held
    misses = cold_kernel.cache_info().misses
    for N in sizes[-8:]:
        cold_kernel(N)
    assert cold_kernel.cache_info().misses == misses


def test_eigenvalues_refuse_a_nan_spectrum(monkeypatch):
    # NaN fails every comparison, so the trace certificate must reject it explicitly
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: np.full(len(A), np.nan, dtype=complex))
    with pytest.raises(EigensolverError):
        eigenvalues(sample_matrix(8, 0))


def test_trace_identity_holds():
    A = sample_matrix(12, 0)
    s = eigenvalues(A)
    assert abs(np.sum(s.eigenvalues) - np.trace(A)) < 1e-8 * 12
