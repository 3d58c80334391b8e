"""Tests of the log-kernel expansion coefficients and reconstruction."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginfield.basis import (
    DiskDomainError,
    DiskQuadrature,
    SingularityError,
    disk_integrate,
    eval_eigenfunction,
)
from ginfield.logkernel import (
    alpha,
    alpha_grad_sup,
    alpha_gradient,
    alpha_partial_sum,
    alpha_radial,
    alpha_radial_derivative,
    harmonic_log_series,
    log_abs_reconstruct,
    power_coeff,
)


@pytest.fixture(scope="module")
def quad():
    return DiskQuadrature.build(radial_order=160, angular_order=96)


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


def test_alpha_gradient_fd(table):
    h = 1e-6
    for n, k, z in [(2, 1, 0.5 + 0.3j), (-3, 2, 1.2 - 0.7j), (0, 4, 0.4j)]:
        gx, gy = alpha_gradient(n, k, z, table)
        fx = (alpha(n, k, z + h, table) - alpha(n, k, z - h, table)) / (2 * h)
        fy = (alpha(n, k, z + 1j * h, table) - alpha(n, k, z - 1j * h, table)) / (2 * h)
        assert abs(gx - fx) < 1e-6
        assert abs(gy - fy) < 1e-6


def test_alpha_grad_sup_bounds(small_table):
    # frozen calibration: sup over the disk is at most 1.0 * j, and outside
    # it is at most 5.0 / j, across the battery checked here
    for n in range(0, 9):
        for k in range(1, 9):
            j = small_table.root(n, k)
            sup_in, sup_out = alpha_grad_sup(n, k, small_table)
            assert sup_in <= 1.0 * j
            assert sup_out <= 5.0 / j


def test_harmonic_log_series():
    z, w = 0.5 + 0.2j, 0.6 - 0.3j
    assert abs(harmonic_log_series(z, w) - math.log(abs(1 - z * np.conj(w)))) < 1e-13
    with pytest.raises(ValueError):
        harmonic_log_series(1.0, 1.0)


def test_harmonic_log_series_refuses_past_its_term_cap():
    # needs about 7e7 terms; it used to stop at 1e7 and return -15.376
    # where log|1 - q| = -15.425
    started = time.perf_counter()
    with pytest.raises(ValueError, match="terms"):
        harmonic_log_series(0.9999999, 0.9999999)
    assert time.perf_counter() - started < 1.0


def test_harmonic_log_series_just_inside_its_term_cap():
    # |q| = 0.9999971 needs just under 1e7 terms, |q| = 0.9999972 just over
    q = 0.9999971
    assert abs(harmonic_log_series(q, 1.0) - math.log(1.0 - q)) < 1e-12
    with pytest.raises(ValueError):
        harmonic_log_series(0.9999972, 1.0)


def test_log_reconstruction_interior(table):
    z, w = 0.0, 0.5
    target = math.log(abs(z - w))
    err60 = abs(log_abs_reconstruct(z, w, table, n_cut=60, k_cut=60) - target)
    assert err60 < 2e-2
    # monotone improvement along a doubling cutoff ladder
    errs = [
        abs(log_abs_reconstruct(z, w, table, n_cut=c, k_cut=c) - target)
        for c in (15, 30, 60)
    ]
    assert errs[2] < errs[1] < errs[0]


def test_log_reconstruction_exterior(table):
    z, w = 0.3, 2.0
    assert abs(log_abs_reconstruct(z, w, table) - math.log(abs(z - w))) < 1e-12


def test_log_reconstruction_errors(table):
    with pytest.raises(DiskDomainError):
        log_abs_reconstruct(1.5, 2.0, table)
    with pytest.raises(SingularityError):
        log_abs_reconstruct(0.2, 0.2, table)


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


@pytest.mark.parametrize("fn", [alpha_radial, alpha_radial_derivative])
@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_alpha_radial_over_an_array_of_k_stacks_the_scalar_calls(fn, n, small_table):
    ks = np.array([3, 1, 7, 2])
    r = np.array([[1e-3, 0.25, 0.5, 1.0 - 1e-12], [1.0, 1.0 + 1e-12, 1.5, 3.0]])
    g = fn(n, ks, r, small_table)
    assert g.shape == (len(ks),) + r.shape
    assert np.array_equal(g, np.stack([fn(n, int(k), r, small_table) for k in ks]))
    g = fn(n, ks, 0.5, small_table)
    assert np.array_equal(g, [fn(n, int(k), 0.5, small_table) for k in ks])


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
