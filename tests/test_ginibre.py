"""Tests of Ginibre sampling, the eigensolver, and the exact
determinantal formulas."""

import ctypes
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ginfield import ginibre
from ginfield.cli import main
from ginfield.ginibre import (
    EigensolverError,
    PlaneQuadrature,
    VarianceError,
    draw_seed,
    eigenvalues,
    pair_variance,
    radial_mean,
    radial_pair_variances,
    sample_matrix,
    sample_spectrum,
    trace_power_errors,
)
from ginfield.linstats import centering_term
from oracles import (
    circle_average_variance,
    dense_ginibre,
    expected_linear_statistic,
    gaussian_moment,
    grid_weights,
    kostlan_log_abs_det,
    one_point_density,
    one_point_density_series,
    pair_variance_per_call,
    polar_rule,
    radial_pair_variance,
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


@pytest.mark.parametrize("N", [1, 2, 16, 64, 256])
@pytest.mark.parametrize("seed", [0, 7])
def test_sample_matrix_builds_the_matrix_of_the_plain_expression(N, seed):
    # the Hessenberg form bit for bit: the upper triangle row by row from one
    # (2, N(N+1)/2) normal draw, then sqrt(Gamma(N - k) / N) on the
    # subdiagonal for k = 1 .. N-1 in that order.  The reversed order,
    # Gamma(k), gives J H^T J, whose spectrum has the same law, so no law
    # test sees it: only this test pins the order.
    rng = np.random.default_rng(draw_seed(seed, 3))
    re, im = rng.standard_normal((2, N * (N + 1) // 2))
    expected = np.zeros((N, N), dtype=complex)
    expected[np.triu_indices(N)] = (re + 1j * im) / math.sqrt(2.0 * N)
    sub = np.sqrt(rng.standard_gamma(np.arange(N - 1, 0, -1)) / N)
    expected[np.arange(1, N), np.arange(N - 1)] = sub
    A = sample_matrix(N, draw_seed(seed, 3))
    assert np.array_equal(A, expected)
    assert not np.tril(A, -2).any()
    assert np.all(np.diag(A, -1).imag == 0) and np.all(np.diag(A, -1).real > 0)


@pytest.mark.parametrize("sampler", [sample_matrix, dense_ginibre], ids=["hessenberg", "dense"])
def test_trace_powers_of_either_sampler_meet_kostlans_moments(sampler):
    # E|tr A^m|^2 for m = 1 .. 3 at N = 8 within 4 se of the exact moments:
    # tr A reads the diagonal alone, tr A^2 and tr A^3 the subdiagonal too
    N, draws = 8, 10_000
    A = np.array([sampler(N, draw_seed(41, i)) for i in range(draws)])
    P = A
    for m in (1, 2, 3):
        t2 = np.abs(np.trace(P, axis1=1, axis2=2)) ** 2
        se = float(np.std(t2, ddof=1)) / math.sqrt(draws)
        assert abs(float(np.mean(t2)) - ginibre._trace_power_moment(m, N)) < 4.0 * se
        P = P @ A


@pytest.mark.parametrize("sampler", [sample_matrix, dense_ginibre], ids=["hessenberg", "dense"])
def test_log_abs_det_of_the_spectra_follows_kostlans_law(sampler):
    # sum_i log|z_i| over the eigensolved spectra against Kostlan's
    # 1/2 sum_k log(Gamma(k) / N), k = 1 .. N, by a two-sample KS test at
    # N = 16; a subdiagonal of Gamma(N - k + 1) reads p ~ 0
    N, draws = 16, 4000
    spectra = (eigenvalues(sampler(N, draw_seed(43, i))).eigenvalues for i in range(draws))
    sampled = [float(np.sum(np.log(np.abs(z)))) for z in spectra]
    kostlan = kostlan_log_abs_det(N, draws, np.random.default_rng(44))
    assert stats.ks_2samp(sampled, kostlan).pvalue > 1e-3


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
                * grid_weights(quad)
            )
        )
        assert abs(q - gaussian_moment(m, N)) < 1e-12


def test_plane_quadrature_rule():
    # Gauss-Legendre on [0, 1] and [1, R] with the r dr weight absorbed,
    # pinned bit for bit to the formulas the rule is defined by; the inner
    # panel has max(80, ceil(3 sqrt N)) radii
    for N, inner in [(32, 80), (1024, 96)]:
        R = math.sqrt(1.0 + 20.0 / N) + 4.0 / math.sqrt(N)
        r, wr = [], []
        for order, (a, b) in [(inner, (0.0, 1.0)), (40, (1.0, R))]:
            x, w = np.polynomial.legendre.leggauss(order)
            r.append(a + 0.5 * (b - a) * (x + 1.0))
            wr.append(0.5 * (b - a) * w * r[-1])
        quad = PlaneQuadrature.build(N)
        assert np.array_equal(quad.r, np.concatenate(r))
        assert np.array_equal(quad.wr, np.concatenate(wr))
        assert np.array_equal(quad.theta, 2.0 * math.pi * np.arange(512) / 512)


def test_one_point_density_routes_agree():
    for N in (1, 4, 32):
        for r in (0.0, 0.3, 0.9, 1.05, 1.4):
            a = one_point_density(N, r)
            b = one_point_density_series(N, r)
            assert abs(a - b) < 1e-12 * max(1.0, a)


def test_one_point_density_normalizes_to_N():
    for N in (2, 16, 64):
        quad = PlaneQuadrature.build(N)
        total = float(np.sum(one_point_density(N, quad.nodes()) * grid_weights(quad)))
        assert abs(total - N) < 1e-8


@pytest.mark.parametrize("N", [1, 4, 64, 1024, 4096])
def test_kernel_diagonal_is_the_closed_form_density(N):
    # rho_N = sum_k R_k^2 from the kernel factors meets the incomplete-gamma
    # closed form on the plane rule, and integrates to N
    r, wr, rho, _ = ginibre._plane_rule(N)
    ref = one_point_density(N, r)
    assert np.max(np.abs(rho / ref - 1.0)) < (5e-13 if N <= 1024 else 3e-12)
    assert abs(2.0 * math.pi * np.sum(rho * wr) - N) < 1e-8


@pytest.mark.parametrize("N, tol", [(256, 7e-12), (4096, 1.5e-9)])
def test_radial_trace_identity_on_the_plane_rule(N, tol):
    # Var sum z_i = 1: with rho_N and the overlaps built from the same
    # kernel factors the rule misses it by about half as much as with
    # rho_N in closed form (1.2e-11 at N = 256, 2.7e-9 at N = 4096)
    assert abs(radial_pair_variance(lambda r: r, -1, N) - 1.0) < tol


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
    # Var sum z_i = E|tr A|^2 = 1; z = r e^{-i(-1)theta}, checked to 1e-12
    # through the per-call oracle on one panel out to radius 3
    quad = polar_rule(1, (0.0, 3.0, 220))
    assert abs(radial_pair_variance_per_call(lambda r: r, -1, N, quad) - 1.0) < 1e-12


@pytest.mark.parametrize("N", [1, 8, 64, 256, 1024])
def test_radial_moments_meet_kostlans_closed_forms(N):
    # by Kostlan, N |z_i|^2 are independent Gamma(k, 1) laws, k = 1..N, so
    # E sum 1 = N, E sum |z|^2 = (N + 1)/2 and Var sum |z|^2 = (N + 1)/(2N);
    # Var sum z = E|tr A|^2 = 1
    assert radial_mean(np.ones_like, N) == pytest.approx(N, rel=1e-13, abs=0)
    assert radial_mean(np.square, N) == pytest.approx((N + 1) / 2, rel=1e-13, abs=0)
    assert abs(radial_pair_variance(np.square, 0, N) - (N + 1) / (2 * N)) < 1e-10
    assert abs(radial_pair_variance(lambda r: r, -1, N) - 1.0) < 1e-10


@pytest.mark.parametrize("N", [1, 2, 5, 16, 64])
def test_trace_power_moments_are_kostlans_closed_form(N):
    # E|tr A^m|^2 = 1, 2, 3 + 3/N^2 and 4 + 20/N^2 for m = 1 .. 4 below N,
    # and sum_{k<N} (k+1)...(k+m) / N^m from m = N on
    moment = ginibre._trace_power_moment
    assert moment(1, N) == 1.0
    if N > 4:
        assert [moment(m, N) for m in (2, 3, 4)] == pytest.approx(
            [2.0, 3.0 + 3.0 / N**2, 4.0 + 20.0 / N**2], rel=1e-15, abs=0
        )
    assert moment(N + 1, N) == pytest.approx(
        sum(math.factorial(k + N + 1) / math.factorial(k) for k in range(N)) / N ** (N + 1),
        rel=1e-14,
    )


@pytest.mark.parametrize("N", [16, 256, 1024])
def test_trace_power_certificate_holds_at_every_order(N):
    # Var sum z_i^m on the plane rule meets E|tr A^m|^2 for m <= 16 (at most
    # 1.3e-11 relative up to N = 1024, m = 1 the worst)
    errors = trace_power_errors(N, 16)
    assert len(errors) == 16
    assert max(errors) < 1e-10


def test_a_factor_cut_off_at_the_last_radius_is_refused():
    # r^64 at N = 16 puts 1.1e-3 of |g|^2 rho_N on the rule's outermost node
    # and misses E|tr A^64|^2 by 1.7e-2
    with pytest.raises(VarianceError, match="outermost radial node carries 1.1"):
        radial_pair_variance(lambda r: r**64, -64, 16)


@pytest.mark.parametrize("N, share", [(16, "1.118e-03"), (64, "9.643e-06")])
def test_the_grid_route_refuses_a_factor_cut_off_at_the_last_radius(N, share):
    # z^64 is still heavy at the plane rule's last radius: its variance on
    # that rule misses E|tr A^64|^2 by 1.65e-2 (N = 16) and 1.07e-4 (N = 64)
    with pytest.raises(VarianceError, match=f"outermost radial node carries {share}"):
        pair_variance(lambda z: z**64, N)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_radial_mean_refuses_a_factor_that_is_not_finite(value):
    with pytest.raises(VarianceError, match=f"radial sum {value} is not finite"):
        radial_mean(lambda r: np.full_like(r, value), 8)


@pytest.mark.parametrize("N", [8, 1024])
def test_overlaps_of_stacked_rows_equal_each_row_alone(N):
    # one K @ w product per row: a single (rows x radii) @ (radii x pairs)
    # product is faster at large N but rounds a row by its neighbours
    r, wr, _, R = ginibre._plane_rule(N)
    rng = np.random.default_rng(N)
    C = rng.standard_normal((5, len(r)))
    for rows in (C, C + 1j * rng.standard_normal(C.shape)):
        for d in (-3, 0, 3, -N, N, N + 5):
            A = ginibre._overlaps(R, d, rows, wr)
            pairs = max(N - abs(d), 0)
            assert A.shape == (5, pairs)
            for c, a in zip(rows, A):
                assert np.array_equal(ginibre._overlaps(R, d, c[None, :], wr)[0], a)
            # A_{k,k+d} = 2 pi sum_r c R_k R_{k+d} wr
            lo = max(0, -d)
            K = R[lo : lo + pairs] * R[lo + d : lo + d + pairs]
            direct = 2.0 * math.pi * np.einsum("ir,kr,r->ik", rows, K, wr)
            assert np.allclose(A, direct, rtol=1e-13, atol=1e-13 * np.abs(direct).max(initial=0))


def test_the_circle_average_has_no_zero_mode():
    # A_1 = sum_i log max(1, |z_i|) is the average of h_N over the unit
    # circle (Jensen); Var A_1 meets Kostlan's law and falls like 0.052 /
    # sqrt(N), so the limit field adds no constant part
    scaled = []
    for N in (16, 64, 256):
        v = radial_pair_variance(lambda r: np.log(np.maximum(1.0, r)), 0, N)
        assert abs(v - circle_average_variance(N)) < 1e-12
        scaled.append(math.sqrt(N) * v)
    assert 0.045 <= scaled[0] < scaled[1] < scaled[2] <= 0.055


@pytest.mark.parametrize("N", [8, 711, 712, 4096])
def test_plane_rule_is_its_two_panels_joined(N):
    # 712 is the least N whose inner panel has 81 radii, not 80
    R = math.sqrt(1.0 + 20.0 / N) + 4.0 / math.sqrt(N)
    inner = polar_rule(512, (0.0, 1.0, max(80, math.ceil(3.0 * math.sqrt(N)))))
    outer = polar_rule(512, (1.0, R, 40))
    quad = PlaneQuadrature.build(N)
    assert len(inner.r) == {8: 80, 711: 80, 712: 81, 4096: 192}[N]
    assert np.array_equal(quad.r, np.concatenate([inner.r, outer.r]))
    assert np.array_equal(quad.wr, np.concatenate([inner.wr, outer.wr]))
    assert np.array_equal(quad.theta, inner.theta)


def test_pair_variance_refuses_unresolved_pair_differences():
    # 64 angular nodes resolve pair differences up to 32: N = 33 is the limit
    R = math.sqrt(1.0 + 20.0 / 34) + 2.0 / math.sqrt(34)
    quad = polar_rule(64, (0.0, R, 220))
    assert abs(pair_variance(lambda z: z, 33, quad) - 1.0) < 1e-6
    with pytest.raises(ValueError, match="angular order 64"):
        pair_variance(lambda z: z, 34, quad)


def test_pair_variance_refuses_negative_variance():
    # weights 1 % too heavy make each kernel overlap 1.01, so the subtracted
    # sum exceeds the diagonal term and the variance would come out negative
    quad = PlaneQuadrature.build(8)
    heavy = dataclasses.replace(quad, wr=1.01 * quad.wr)
    with pytest.raises(VarianceError, match="off_sq/diag"):
        pair_variance(lambda z: np.ones_like(z, dtype=complex), 8, heavy)
    with pytest.raises(VarianceError, match="off_sq/diag"):
        radial_pair_variance_per_call(np.ones_like, 0, 8, heavy)


def test_pair_variance_refuses_nan():
    # NaN fails every comparison, so it must be rejected explicitly: both
    # routes refuse it in the radial sum of their diagonal
    with pytest.raises(VarianceError, match="radial sum nan is not finite"):
        pair_variance(lambda z: np.full(z.shape, np.nan, dtype=complex), 8)
    with pytest.raises(VarianceError, match="radial sum nan is not finite"):
        radial_pair_variance(lambda r: np.full_like(r, np.nan), 0, 8)


# A row that fails a check, the weight factor of the rule, and the check:
# NaN fails every comparison, so the radial sum of its diagonal term refuses
# it, and with weights 1 % too heavy the overlaps of g = 1, whose variance
# is 0, exceed its diagonal term.
FAILING_ROWS = {
    "nan": (lambda r: np.full_like(r, np.nan), 1.0, "not finite"),
    "negative": (np.ones_like, 1.01, "off_sq/diag"),
}


@pytest.mark.parametrize("bad", FAILING_ROWS)
def test_one_failing_row_fails_the_batch_with_its_own_ratio(bad, cold_kernel, monkeypatch):
    g, weight, message = FAILING_ROWS[bad]
    r, wr, rho, R = cold_kernel(8)
    quad = dataclasses.replace(PlaneQuadrature.build(8), wr=weight * wr)
    monkeypatch.setattr(ginibre, "_plane_rule", lambda N: (r, quad.wr, rho, R))
    good = [np.square, lambda r: r]

    def rows(*fs):
        return lambda ns, r: np.array([[f(r) for f in fs] for _ in ns])

    with pytest.raises(VarianceError, match=message) as alone:
        radial_pair_variances(rows(g), [(0, 8)])
    # warnings are errors here, so a numpy RuntimeWarning would fail this too
    with pytest.raises(VarianceError, match=message) as batch:
        radial_pair_variances(rows(good[0], g, good[1]), [(0, 8)])
    assert str(batch.value) == str(alone.value)
    expected = [radial_pair_variance_per_call(f, 0, 8, quad) for f in good]
    assert radial_pair_variances(rows(*good), [(0, 8)]) == [expected]


@pytest.mark.parametrize("N", [8, 64])
def test_pair_variance_equals_the_per_call_oracle(N, cold_kernel):
    expected = pair_variance_per_call(lambda z: z, N)
    cold = pair_variance(lambda z: z, N)
    # the general route builds its kernel in the call and caches no rule
    assert cold_kernel.cache_info().currsize == 0
    assert cold == expected and pair_variance(lambda z: z, N) == expected


def test_kernel_cache_is_keyed_by_N_and_the_radial_nodes(small_table, cold_kernel):
    # one rule per N, so N alone fixes the radial nodes; the centering and
    # the radial route share its entry, which each reads once
    radial_pair_variance(lambda r: r, -1, 8)
    centering_term(0, 1, 8, small_table)
    assert cold_kernel.cache_info()[:2] == (1, 1)  # (hits, misses)
    radial_pair_variance(lambda r: r, -1, 16)
    assert cold_kernel.cache_info().currsize == 2
    r, wr, rho, R = cold_kernel(8)
    quad = PlaneQuadrature.build(8)
    assert np.array_equal(r, quad.r) and np.array_equal(wr, quad.wr)
    assert R.shape == (8, len(r))
    for a in (r, wr, rho, R):
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
    # NaN fails every comparison, so the trace certificate must reject it
    # explicitly; the fault goes into the solver a Hessenberg draw takes
    nan = lambda A: np.full(len(A), np.nan, dtype=complex)
    monkeypatch.setattr(ginibre, "_hessenberg_eigvals", nan)
    with pytest.raises(EigensolverError):
        eigenvalues(sample_matrix(8, 0))


def _sorted(eig):
    return eig[np.lexsort((eig.imag, eig.real))]


def _refuse(A):
    raise AssertionError("the other eigensolver route ran")


@pytest.mark.parametrize("N", [1, 2, 16, 64, 256])
def test_a_hessenberg_draw_is_solved_by_zhseqr_alone(N, monkeypatch):
    H = sample_matrix(N, draw_seed(11, N))
    ref = _sorted(np.linalg.eigvals(H))
    if ginibre.ZHSEQR is not None:
        monkeypatch.setattr(np.linalg, "eigvals", _refuse)
    assert np.abs(eigenvalues(H).eigenvalues - ref).max() <= 1e-12


def test_numpys_openblas_provides_zhseqr():
    # where numpy bundles scipy-openblas64, the route must find its zhseqr
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if list(libs.glob("libscipy_openblas64_*.so")):
        assert ginibre.ZHSEQR is not None


def test_the_zhseqr_handle_is_numpys_own():
    # the route looks zhseqr up through numpy.linalg's extension module; where
    # numpy bundles scipy-openblas64, it must be that library's own symbol
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        own = ctypes.cast(ctypes.CDLL(str(lib)).scipy_zhseqr_64_, ctypes.c_void_p).value
        assert ctypes.cast(ginibre.ZHSEQR, ctypes.c_void_p).value == own


@pytest.mark.parametrize("below", [(2, 0), (63, 0), (63, 61)])
def test_a_matrix_not_in_hessenberg_form_takes_the_general_route(below, monkeypatch):
    # zhseqr reads nothing below the subdiagonal, and the trace certificate
    # reads only the diagonal: a dense matrix sent there would pass the
    # certificate with wrong eigenvalues
    H = sample_matrix(64, draw_seed(12, 64))
    H[below] = 0.5
    for A in (dense_ginibre(64, 13), H):
        ref = _sorted(np.linalg.eigvals(A))
        with monkeypatch.context() as m:
            m.setattr(ginibre, "_hessenberg_eigvals", _refuse)
            got = eigenvalues(A).eigenvalues
        assert np.abs(got - ref).max() <= 1e-12


def test_without_zhseqr_the_hessenberg_draw_falls_back_to_eigvals(monkeypatch):
    H = sample_matrix(64, draw_seed(14, 64))
    ref = _sorted(np.linalg.eigvals(H))
    monkeypatch.setattr(ginibre, "ZHSEQR", None)
    monkeypatch.setattr(ginibre, "_hessenberg_eigvals", _refuse)  # eigenvalues decides
    s = eigenvalues(H)  # the trace certificate runs on this route too
    assert np.abs(s.eigenvalues - ref).max() <= 1e-12


@pytest.mark.parametrize("solver", ["zhseqr", "eigvals"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_hessenberg_matrix_with_a_non_finite_entry_raises(solver, bad, monkeypatch):
    # numpy's check: zhseqr alone returned [1, 1] for [[1, inf], [0, 1]]
    if solver == "eigvals":
        monkeypatch.setattr(ginibre, "ZHSEQR", None)
    with pytest.raises(np.linalg.LinAlgError):
        eigenvalues([[1.0, bad], [0.0, 1.0]])


def _fake_zhseqr(info, calls):
    """A C function with zhseqr's signature that records its integer
    arguments and character lengths and returns the given info."""
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    proto = ctypes.CFUNCTYPE(
        None, ctypes.c_char_p, ctypes.c_char_p, i64, i64, i64, ptr, i64, ptr, ptr, i64, ptr,
        i64, i64, ctypes.c_size_t, ctypes.c_size_t,
    )

    def zhseqr(job, compz, n, ilo, ihi, h, ldh, w, z, ldz, work, lwork, out, ljob, lcompz):
        calls.append((job, compz, *(p[0] for p in (n, ilo, ihi, ldh, ldz, lwork)), ljob, lcompz))
        out[0] = info

    return proto(zhseqr)


def test_zhseqr_gets_ilo_1_ihi_n_lwork_n_and_a_failure_raises(monkeypatch):
    calls = []
    monkeypatch.setattr(ginibre, "ZHSEQR", _fake_zhseqr(3, calls))
    with pytest.raises(EigensolverError, match="info = 3"):
        eigenvalues(sample_matrix(5, 0))
    assert calls == [(b"E", b"N", 5, 1, 5, 5, 1, 5, 1, 1)]


def test_an_empty_matrix_has_an_empty_spectrum_without_lapack(monkeypatch, capfd):
    # zhseqr with N = 0 has xerbla print and reports info = -7 (LDH < 1)
    calls = []
    monkeypatch.setattr(ginibre, "ZHSEQR", _fake_zhseqr(0, calls))
    s = eigenvalues(np.zeros((0, 0)))
    assert s.eigenvalues.shape == (0,) and calls == []
    assert capfd.readouterr().err == ""


def test_zhseqr_leaves_its_input_unchanged():
    H = np.asfortranarray(sample_matrix(16, draw_seed(15, 16)))
    before = H.copy()
    eigenvalues(H)
    assert np.array_equal(H, before)


def test_trace_identity_holds():
    A = sample_matrix(12, 0)
    s = eigenvalues(A)
    assert abs(np.sum(s.eigenvalues) - np.trace(A)) < 1e-8 * 12
