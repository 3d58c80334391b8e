"""Tests of the log-kernel expansion coefficients and reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginfield import logkernel
from ginfield.basis import DiskDomainError, SingularityError
from ginfield.bessel import RootTable
from ginfield.logkernel import (
    InterpolantError,
    alpha_radial,
    alpha_radial_piecewise,
    log_abs_reconstruct,
)
from oracles import (
    alpha,
    alpha_partial_sum,
    alpha_radial_derivative,
    alpha_radial_rows,
    disk_integrate,
    disk_rule,
    eval_eigenfunction,
    power_coeff,
)


@pytest.fixture(scope="module")
def quad():
    return disk_rule(radial_order=160, angular_order=96)


def test_power_coeff_values(table):
    assert abs(power_coeff(0, 1, table) - 2 * math.sqrt(math.pi) / 2.404825557695773) < 1e-12
    with pytest.raises(ValueError):
        power_coeff(-1, 1, table)


def test_alpha_against_quadrature(quad, table):
    # alpha_{n,k}(w) is the inner product of log|z - w| with e_{-n,k};
    # quadrature route checked for both branches
    # the interior branch integrand has a log singularity at z = w, which
    # caps the tensor rule near 1e-3; the exterior integrand is smooth
    for w, tol in [(0.35 - 0.2j, 1e-3), (1.6 + 0.4j, 1e-8)]:
        for (n, k) in [(0, 1), (2, 1), (-3, 2), (1, 4)]:
            direct = disk_integrate(
                lambda z: np.log(np.abs(z - w))
                * np.conj(eval_eigenfunction(n, k, z, table)),
                quad,
            )
            assert abs(direct - alpha(n, k, w, table)) < tol, (n, k, w)


def test_alpha_circle_branch_continuity(table):
    # the two branch formulas agree as |w| crosses the unit circle
    th = 0.8
    for (n, k) in [(0, 1), (3, 2), (-2, 5)]:
        inner = alpha(n, k, (1 - 1e-9) * np.exp(1j * th), table)
        outer = alpha(n, k, (1 + 1e-9) * np.exp(1j * th), table)
        assert abs(inner - outer) < 1e-6


def test_alpha_conjugation_symmetry(table):
    w = 0.4 + 0.55j
    for (n, k) in [(1, 1), (4, 3)]:
        assert abs(np.conj(alpha(n, k, w, table)) - alpha(-n, k, w, table)) < 1e-14


def test_alpha_polar_form(table):
    # alpha(w) = g(|w|) e^{-i n arg(w)} with g real
    for n, k, w in [(2, 3, 0.6 * np.exp(0.9j)), (-3, 1, 1.4 * np.exp(-2.1j))]:
        g = alpha_radial(n, k, abs(w), table)
        assert abs(alpha(n, k, w, table) - g * np.exp(-1j * n * np.angle(w))) < 1e-13


def test_alpha_radial_derivative_fd(table):
    h = 1e-6
    for n, k in [(0, 1), (3, 2), (5, 5)]:
        for r in [0.2, 0.7, 1.3, 1.9]:
            fd = (
                alpha_radial(n, k, r + h, table) - alpha_radial(n, k, r - h, table)
            ) / (2 * h)
            assert abs(alpha_radial_derivative(n, k, r, table) - fd) < 1e-7


def alpha_grad_sup(n, k, table, r_max=2.0, n_radial=800):
    """Numeric sup of |grad alpha_{n,k}| over |z| <= r_max, finite
    differences taken inside and outside the disk separately.

    Returns (sup_inside, sup_outside).  The angular term is evaluated
    analytically (|grad|^2 = g'(r)^2 + n^2 g(r)^2 / r^2 is angle-free).
    """
    n = abs(int(n))

    def sup_on(rs):
        h = 1e-6
        gp = (alpha_radial(n, k, rs + h, table) - alpha_radial(n, k, rs - h, table)) / (
            2 * h
        )
        g = alpha_radial(n, k, rs, table)
        return float(np.max(np.sqrt(gp**2 + (n * g / rs) ** 2)))

    eps = 2e-6
    rs_in = np.linspace(1e-3, 1.0 - eps, n_radial)
    rs_out = np.linspace(1.0 + eps, r_max, n_radial)
    return sup_on(rs_in), sup_on(rs_out)


def test_alpha_grad_sup_bounds(small_table):
    # frozen calibration: sup over the disk is at most 1.0 * j, and outside
    # it is at most 5.0 / j, across the battery checked here
    for n in range(0, 9):
        for k in range(1, 9):
            j = small_table.root(n, k)
            sup_in, sup_out = alpha_grad_sup(n, k, small_table)
            assert sup_in <= 1.0 * j
            assert sup_out <= 5.0 / j


def test_log_reconstruction_interior(table):
    # the harmonic part log|1 - z conj(w)| is 0, 0.113 and -0.215 at these
    # points, so a dropped term or a wrong sign misses by 0.1 or more
    for z, w, tol in ((0.0, 0.5, 2e-2), (0.3, -0.4, 1e-4), (0.5 + 0.2j, 0.6 - 0.3j, 1e-3)):
        err60 = abs(log_abs_reconstruct(z, w, table, n_cut=60, k_cut=60) - math.log(abs(z - w)))
        assert err60 < tol
    # monotone improvement along a doubling cutoff ladder
    z, w = 0.0, 0.5
    target = math.log(abs(z - w))
    errs = [
        abs(log_abs_reconstruct(z, w, table, n_cut=c, k_cut=c) - target)
        for c in (15, 30, 60)
    ]
    assert errs[2] < errs[1] < errs[0]


def test_log_reconstruction_near_the_rim_is_finite(table):
    # |z conj(w)| = 1 - 3e-7, where the series -Re sum (z conj(w))^m / m of
    # the harmonic part needs about 1e8 terms for a 1e-14 tail
    assert math.isfinite(log_abs_reconstruct(0.9999999, 0.9999998, table, 8, 8))


def test_log_reconstruction_exterior(table):
    z, w = 0.3, 2.0
    assert abs(log_abs_reconstruct(z, w, table) - math.log(abs(z - w))) < 1e-12


def test_log_reconstruction_errors(table):
    with pytest.raises(DiskDomainError):
        log_abs_reconstruct(1.5, 2.0, table)
    with pytest.raises(SingularityError):
        log_abs_reconstruct(0.2, 0.2, table)


@pytest.mark.parametrize(
    "bad", [complex("nan"), complex(0.1, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf)]
)
def test_log_reconstruction_refuses_a_non_finite_point(table, bad):
    # abs(nan) >= 1 and abs(nan) < 1 are both False: a NaN point used to
    # return nan, and an infinite pole w returned inf
    for z, w in ((bad, 0.2), (0.1, bad)):
        with pytest.raises(DiskDomainError):
            log_abs_reconstruct(z, w, table, 8, 8)


def test_raw_partial_sum_cross_check(table):
    # the raw double sum over alpha e must agree with the split route at
    # its own (slow) accuracy; this keeps both routes honest
    z, w = 0.2 + 0.1j, -0.4 + 0.25j
    target = math.log(abs(z - w))
    # pointwise error oscillates around the 1/K envelope, so no
    # monotonicity is asserted between nearby cutoffs
    raw = alpha_partial_sum(z, w, table, n_cut=40, k_cut=40)
    assert abs(raw - target) < 1e-2
    raw2 = alpha_partial_sum(z, w, table, n_cut=70, k_cut=70)
    assert abs(raw2 - target) < 1e-2


GRID_9x8 = [(n, k) for n in range(9) for k in range(1, 9)]


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    delta=st.floats(1e-15, 1e-9),
)
def test_alpha_is_continuous_across_the_unit_circle(theta, delta, small_table):
    # |g'(1)| = sqrt(pi) / j, so the jump over [1 - delta, 1 + delta] is
    # below 2e-9 on the grid
    phase = complex(math.cos(theta), math.sin(theta))
    inner, outer = (1.0 - delta) * phase, (1.0 + delta) * phase
    for n, k in GRID_9x8:
        assert abs(alpha(n, k, inner, small_table) - alpha(n, k, outer, small_table)) < 1e-8
        g = alpha_radial(n, k, np.array([1.0 - delta, 1.0 + delta]), small_table)
        assert abs(g[0] - g[1]) < 1e-8


# A dense radial grid with both ends of the disk branch, and points on and
# past the circle, where the exterior branch takes over.
DISK_GRID = np.concatenate(
    [np.linspace(0.0, 1.0, 20001)[:-1], [1.0 - 1e-12, np.nextafter(1.0, 0.0)]]
)
EXTERIOR_GRID = np.array([1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.5, 3.0, 1e3])


@pytest.mark.parametrize(
    "n, ks, tol",
    [(n, np.arange(1, 9), 1e-14) for n in range(9)]
    + [(n, np.array([32, 64]), 1e-13) for n in (32, 64)],
)
def test_piecewise_alpha_radial_matches_alpha_radial(n, ks, tol, table):
    # 1e-14 max|g| on the 9 x 8 grid; the certificate bound at large j
    g = alpha_radial_piecewise(n, ks, DISK_GRID, table)
    ref = alpha_radial_rows(n, ks, DISK_GRID, table)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(g - ref) <= tol * scale)
    r = np.concatenate([EXTERIOR_GRID, DISK_GRID[:3]])
    g = alpha_radial_piecewise(n, ks, r, table)
    assert np.array_equal(g[:, :6], alpha_radial_rows(n, ks, EXTERIOR_GRID, table))


@pytest.mark.parametrize("n", [0, 1, 5, 32])
def test_alpha_radial_of_several_k_stacks_the_one_k_rows(n, table):
    # one row per k, each equal to its own one-k call at r = 0, inside, on
    # and outside the circle; the r >= 1 columns of the piecewise route are
    # these values too
    ks = np.array([1, 2, 7, 8, 32])
    r = np.concatenate([[0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)], EXTERIOR_GRID])
    g = alpha_radial(n, ks, r, table)
    assert g.shape == (len(ks), len(r))
    assert np.array_equal(g, alpha_radial_rows(n, ks, r, table))
    assert np.array_equal(alpha_radial_piecewise(n, ks, r, table)[:, 4:], g[:, 4:])
    assert alpha_radial(n, ks, 0.5, table).shape == (len(ks),)
    assert alpha_radial(n, 3, 0.5, table).shape == ()


def test_alpha_radial_on_exterior_radii_makes_no_bessel_call(small_table, monkeypatch):
    # with no radius in the disk there is nothing for radial_profile to
    # evaluate; a k past the table still raises
    calls, profile = [], logkernel.radial_profile

    def counted(n, k, r, table):
        calls.append((n, k))
        return profile(n, k, r, table)

    ks = np.arange(1, 9)
    for n in (0, 3):  # builds the disk interpolants, which evaluate inside
        alpha_radial_piecewise(n, ks, np.array([0.5]), small_table)
    monkeypatch.setattr(logkernel, "radial_profile", counted)
    for n in (0, 3):
        g = alpha_radial(n, ks, EXTERIOR_GRID, small_table)
        want = [[alpha(n, k, r, small_table).real for r in EXTERIOR_GRID] for k in ks]
        assert np.allclose(g, want, rtol=1e-14, atol=0.0)
        alpha_radial_piecewise(n, ks, EXTERIOR_GRID, small_table)
    assert calls == []
    with pytest.raises(KeyError):
        alpha_radial(2, np.array([1, 17]), EXTERIOR_GRID, small_table)
    with pytest.raises(KeyError):
        alpha_radial_piecewise(2, np.array([17]), EXTERIOR_GRID, small_table)
    alpha_radial(2, 3, np.array([0.5, 2.0]), small_table)
    assert calls == [(2, 3)]


def test_piecewise_alpha_radial_on_exterior_radii_builds_no_interpolant(small_table, monkeypatch):
    # with no radius in the disk no disk interpolant is read, so a cold
    # cache stays empty and radial_profile is never called; a k past the
    # table still raises, from the exterior rows
    calls, profile = [], logkernel.radial_profile

    def counted(n, k, r, table):
        calls.append((n, k))
        return profile(n, k, r, table)

    monkeypatch.setattr(logkernel, "radial_profile", counted)
    logkernel._disk_panels.cache_clear()
    try:
        g = alpha_radial_piecewise(3, np.arange(1, 9), EXTERIOR_GRID, small_table)
        assert np.array_equal(g, alpha_radial(3, np.arange(1, 9), EXTERIOR_GRID, small_table))
        assert calls == []
        assert logkernel._disk_panels.cache_info().currsize == 0
        with pytest.raises(KeyError):
            alpha_radial_piecewise(3, np.array([1, 17]), EXTERIOR_GRID, small_table)
    finally:
        logkernel._disk_panels.cache_clear()


def test_piecewise_alpha_radial_keeps_the_shape_of_r(small_table):
    ks = np.array([2, 1])
    r = np.array([[0.0, 0.5, 1.5], [0.9, 1.0, 0.1]])
    g = alpha_radial_piecewise(3, ks, r, small_table)
    assert g.shape == (2, 2, 3)
    ref = alpha_radial_rows(3, ks, r, small_table)
    assert np.all(np.abs(g - ref) <= 1e-14 * np.max(np.abs(ref)))
    assert alpha_radial_piecewise(0, ks, np.array([2.0]), small_table).shape == (2, 1)


def test_piecewise_builds_follow_the_table_content(small_table):
    # a table that differs in one row gets its own values for that row, in
    # either order of first use, and leaves the other rows' values alone
    roots, norms = small_table.roots.copy(), small_table.norms.copy()
    roots[3], norms[3] = roots[4], norms[4]
    other = RootTable(small_table.n_max, small_table.k_max, roots, norms)
    ks = np.arange(1, 9)
    for first, second in [(small_table, other), (other, small_table)]:
        for t in (first, second, first):
            g = alpha_radial_piecewise(3, ks, DISK_GRID, t)
            ref = alpha_radial_rows(3, ks, DISK_GRID, t)
            assert np.all(np.abs(g - ref) <= 1e-14 * np.max(np.abs(ref)))
    assert not np.allclose(
        alpha_radial_piecewise(3, ks, DISK_GRID, small_table),
        alpha_radial_piecewise(3, ks, DISK_GRID, other),
    )
    assert np.array_equal(
        alpha_radial_piecewise(2, ks, DISK_GRID, small_table),
        alpha_radial_piecewise(2, ks, DISK_GRID, other),
    )


def test_piecewise_build_that_misses_its_certificate_raises(small_table, monkeypatch):
    # degree 4 is far off at the 1e-13 bound; nothing is cached for later use
    logkernel._disk_panels.cache_clear()
    monkeypatch.setattr(logkernel, "_PANEL_DEGREE", 4)
    with pytest.raises(InterpolantError, match="alpha_2,3"):
        alpha_radial_piecewise(2, np.array([3]), np.array([0.5]), small_table)
    assert logkernel._disk_panels.cache_info().currsize == 0
    monkeypatch.setattr(logkernel, "_PANEL_DEGREE", 12)
    monkeypatch.setattr(logkernel, "_PANEL_TOL", 0.0)
    with pytest.raises(InterpolantError):
        alpha_radial_piecewise(0, np.array([1]), np.array([0.5]), small_table)
