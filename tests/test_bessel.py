"""Tests of scipy's Bessel evaluation, of the integer-order evaluator jn and
of certified root finding.

The oracles here are independent of the implementation route: a bisection
on the raw power series, an interlacing scan on a fine grid, mpmath
arbitrary-precision evaluation, and scipy's per-order jn_zeros.
"""

import math
import pickle

import mpmath
import numpy as np
import pytest
from scipy import special

from ginfield import bessel, field, logkernel
from ginfield.bessel import _RECURRENCE_CAP as CAP, RootBracketError, build_root_table, jn
from ginfield.cli import main
from ginfield.field import covariance_mc
from ginfield.logkernel import alpha_radial_piecewise
from oracles import bessel_j_prime, jn_zeros_table

J01 = 2.404825557695773  # frozen from the series-bisection oracle below


def series_j0(x):
    """Power series of J_0, summed directly; oracle-only."""
    total = 0.0
    term = 1.0
    k = 0
    while abs(term) > 1e-18:
        total += term
        k += 1
        term *= -(x * x / 4.0) / (k * k)
    return total


def test_first_root_of_j0_by_series_bisection(table):
    lo, hi = 2.0, 3.0
    assert series_j0(lo) > 0 > series_j0(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if series_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert abs(oracle - J01) < 1e-12
    assert abs(table.root(0, 1) - oracle) < 1e-12


def test_trivial_values():
    assert special.jv(0, 0.0) == 1.0
    assert special.jv(1, 0.0) == 0.0
    assert abs(special.jv(0, J01)) < 1e-12


def test_derivative_values():
    assert bessel_j_prime(0, 0.0) == 0.0
    assert abs(bessel_j_prime(1, 0.0) - 0.5) < 1e-14
    assert abs(bessel_j_prime(0, J01) + special.jv(1, J01)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 20, 32])
def test_against_mpmath(n):
    xs = np.linspace(0.0, 50.0, 41)
    for x in xs:
        ref = float(mpmath.besselj(n, mpmath.mpf(x)))
        got = special.jv(n, float(x))
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref)) + 1e-14


@pytest.mark.parametrize("n", [2, 5, 9, 16, 24, 32])
def test_upward_recurrence_agreement(n):
    # J_{m+1} = (2m/x) J_m - J_{m-1}, stable while x >= m; compare both
    # evaluation routes there to 1e-10
    for x in np.linspace(n + 0.5, 50.0, 25):
        j_prev, j_cur = special.jv(0, float(x)), special.jv(1, float(x))
        for m in range(1, n):
            j_prev, j_cur = j_cur, (2.0 * m / x) * j_cur - j_prev
        assert abs(j_cur - special.jv(n, float(x))) < 1e-10


def test_interlacing_by_grid_sign_changes(table):
    # count sign changes of J_0 and J_1 on a fine grid; the orderings
    # j_{0,1} < j_{1,1} < j_{0,2} must come out of the raw grid data
    xs = np.linspace(0.05, 9.0, 30000)
    j0 = special.jv(0, xs)
    j1 = special.jv(1, xs)
    roots0 = xs[:-1][np.diff(np.sign(j0)) != 0]
    roots1 = xs[:-1][np.diff(np.sign(j1)) != 0]
    assert roots0[0] < roots1[0] < roots0[1]
    assert abs(table.root(0, 1) - roots0[0]) < 1e-3
    assert abs(table.root(1, 1) - roots1[0]) < 1e-3
    assert table.root(0, 2) > table.root(1, 1) > table.root(0, 1)


def test_lower_bound_inequality_64(table):
    ns = np.arange(65)[:, None]
    ks = np.arange(1, 65)[None, :]
    roots = table.roots[:65, :64]
    assert np.all(roots**2 > ns**2 + (ks - 0.25) ** 2 * math.pi**2)


def test_table_monotone_and_residuals(table):
    assert np.all(np.diff(table.roots, axis=0) > 0)
    assert np.all(np.diff(table.roots, axis=1) > 0)
    for n in range(0, table.n_max + 1, 7):
        res = np.abs(special.jv(n, table.roots[n]))
        assert res.max() < 1e-12


def test_build_table_shape_and_determinism():
    t1 = build_root_table(1, 1)
    assert t1.roots.shape == (2, 1)
    assert abs(t1.root(0, 1) - J01) < 1e-12
    a = build_root_table(8, 8)
    b = build_root_table(8, 8)
    assert np.array_equal(a.roots, b.roots)


def test_a_table_is_its_own_cache_key():
    # a table compares and hashes by identity, so one table reuses what was
    # built from it and a second one with the same content builds its own;
    # comparing two tables used to raise ValueError, and hashing TypeError
    t, same = build_root_table(8, 8), build_root_table(8, 8)
    assert t == t and t != same and hash(t) == hash(t)
    logkernel._disk_panels.cache_clear()
    field._pair_factor.cache_clear()
    for _ in range(3):
        alpha_radial_piecewise(2, np.array([3]), np.array([0.5]), t)
        covariance_mc(0.3, -0.4, (4, 4), 10, 0, t)
    for cached in (logkernel._disk_panels, field._pair_factor):
        assert cached.cache_info()[:2] == (2, 1)  # (hits, misses)
    alpha_radial_piecewise(2, np.array([3]), np.array([0.5]), same)
    covariance_mc(0.3, -0.4, (4, 4), 10, 0, same)
    for cached in (logkernel._disk_panels, field._pair_factor):
        assert cached.cache_info()[:2] == (2, 2)


def test_a_pickled_table_stays_read_only():
    # a pool worker gets its table by pickle, which used to skip __post_init__
    # and leave the arrays writeable under the caches keyed on the table
    t = pickle.loads(pickle.dumps(build_root_table(4, 4)))
    assert not t.roots.flags.writeable and not t.norms.flags.writeable
    assert np.array_equal(t.roots, build_root_table(4, 4).roots)


def test_negative_order_alias(table):
    assert table.root(-3, 2) == table.root(3, 2)
    with pytest.raises(KeyError):
        table.root(0, table.k_max + 1)


def test_root_over_broadcast_index_arrays(table):
    # a column of orders (one negative) against a row of k: each entry is
    # == to its scalar call, which returns a float; an empty index gives an
    # empty array of its broadcast shape
    n, k = np.array([[0], [-3], [5], [70]]), np.array([1, 2, 70])
    j = table.root(n, k)
    assert j.shape == (4, 3)
    for (a, b), v in np.ndenumerate(j):
        assert v == table.root(int(n[a, 0]), int(k[b]))
    assert type(table.root(2, 3)) is float
    assert table.root([], []).shape == (0,)
    assert table.root(np.zeros((0, 1), dtype=int), k).shape == (0, 3)


# An array with one entry out of the table: k = 0, which roots[n, k - 1]
# would wrap to the last column, k past k_max, |n| past n_max.
OUTSIDE = [
    (np.array([0, 1]), np.array([1, 0])),
    (np.array([[1], [2]]), np.array([70, 71])),
    (np.array([[3], [-71]]), np.array([1, 2])),
    (0, np.array([-1, 1])),
]


@pytest.mark.parametrize("n, k", OUTSIDE)
def test_every_entry_outside_the_table_raises_key_error(n, k, table):
    with pytest.raises(KeyError, match=r"outside table \(70, 70\)"):
        table.root(n, k)


def test_high_order_root(table):
    # deep entry of the shared 70x70 table against mpmath's root finder
    j = table.root(70, 70)
    assert abs(j - float(mpmath.besseljzero(70, 70))) < 1e-11
    assert abs(special.jv(70, j)) < 1e-12


def _assert_within_two_ulps_of_jn_zeros(roots):
    ref = jn_zeros_table(roots.shape[0] - 1, roots.shape[1])
    assert np.all(np.abs(roots - ref) <= 2 * np.spacing(ref))


def test_shared_table_matches_jn_zeros(table):
    _assert_within_two_ulps_of_jn_zeros(table.roots)


@pytest.mark.parametrize("n_max, k_max", [(1, 1), (2, 400), (300, 4)])
def test_edge_shapes_match_jn_zeros(n_max, k_max):
    # (300, 4) runs the recurrence to order 301 beside rows of order 0,
    # which must not overflow (warnings are errors here)
    _assert_within_two_ulps_of_jn_zeros(build_root_table(n_max, k_max).roots)


def test_guesses_one_root_too_high_are_refused(monkeypatch):
    # Newton then converges to j_{n,k+1} everywhere: a table that passes the
    # residual, lower bound and interlacing, and only the bound on row 0 refuses
    guesses = bessel._initial_guesses
    monkeypatch.setattr(bessel, "_initial_guesses", lambda n, k: guesses(n, k + 1)[:, 1:])
    with pytest.raises(RootBracketError, match="upper bound"):
        build_root_table(8, 8)


def test_newton_step_cap_raises(monkeypatch):
    monkeypatch.setattr(bessel, "_NEWTON_STEPS", 1)
    with pytest.raises(RootBracketError, match="converge"):
        build_root_table(8, 8)


def test_derivative_product_identity():
    # d/dx (x^{n+1} J_{n+1}(x)) = x^{n+1} J_n(x), finite differences
    h = 1e-6
    for n in range(0, 6):
        for x in np.linspace(0.3, 20.0, 15):
            lhs = (
                (x + h) ** (n + 1) * special.jv(n + 1, x + h)
                - (x - h) ** (n + 1) * special.jv(n + 1, x - h)
            ) / (2 * h)
            rhs = x ** (n + 1) * special.jv(n, x)
            assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


def test_cache_roundtrip(tmp_path):
    # the roots.csv that the roots experiment writes holds the table bit for bit
    for n_max, k_max in [(5, 4), (64, 64)]:
        out = tmp_path / f"o{n_max}x{k_max}"
        assert main(["roots", "--n-max", str(n_max), "--k-max", str(k_max), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "roots.csv", delimiter=",", skiprows=1)
        index = [(n, k) for n in range(n_max + 1) for k in range(1, k_max + 1)]
        assert np.array_equal(rows[:, :2], index)
        roots = rows[:, 2].reshape(n_max + 1, k_max)
        assert np.array_equal(roots, build_root_table(n_max, k_max).roots)


def test_load_rejects_perturbed_root():
    roots = build_root_table(5, 4).roots.copy()
    roots[2, 1] += 1e-6
    with pytest.raises(RootBracketError, match="residual"):
        bessel._certified_table(roots)


def test_load_rejects_missing_entry():
    roots = build_root_table(5, 4).roots.copy()
    roots[0, 3] = np.nan
    with pytest.raises(RootBracketError):
        bessel._certified_table(roots)


def test_load_rejects_broken_interlacing():
    # row n = 0 holds true roots of J_0 that pass the residual and lower
    # bound certificates, but starts at j_{0,2}: a skipped root, which the
    # interlacing j_{0,k} < j_{1,k} exposes first
    roots = jn_zeros_table(3, 5)
    roots[0] = special.jn_zeros(0, 6)[1:]
    with pytest.raises(RootBracketError, match="j_{n\\+1,k}"):
        bessel._certified_table(roots)


def test_load_rejects_table_shifted_by_one_root():
    # roots[n, k-1] = j_{n,k+1}: true roots, bounded below and interlaced
    roots = jn_zeros_table(3, 6)[:, 1:]
    with pytest.raises(RootBracketError, match="upper bound"):
        bessel._certified_table(roots)


def test_load_rejects_last_column_shifted_by_one_root():
    # roots[3, -1] = j_{3,7}: a true root, bounded below by the lower bound
    # and j_{2,6}, and bounded above by nothing but its initial guess
    roots = jn_zeros_table(3, 6)
    roots[3, -1] = special.jn_zeros(3, 7)[-1]
    with pytest.raises(RootBracketError, match="initial guess"):
        bessel._certified_table(roots)


@pytest.mark.parametrize("n, k", [(0, 1), (1, 3), (7, 12), (20, 9), (32, 32)])
def test_norms_give_unit_l2_norm(n, k, table):
    # 2 pi int_0^1 (C J_n(j r))^2 r dr = 1, integrated by mpmath on k pieces
    j = mpmath.mpf(table.root(n, k))
    c = mpmath.mpf(float(table.norms[n, k - 1]))
    with mpmath.workdps(20):
        integral = mpmath.quad(
            lambda r: (c * mpmath.besselj(n, j * r)) ** 2 * r,
            mpmath.linspace(0, 1, k + 1),
            method="gauss-legendre",
        )
        assert abs(float(2 * mpmath.pi * integral) - 1.0) < 1e-12


def _mp_jn(n, x):
    return np.vectorize(lambda a, b: float(mpmath.besselj(int(a), mpmath.mpf(float(b)))))(n, x)


def test_jn_against_mpmath_on_the_recurrence_region():
    # orders 0 .. CAP at radii j_{n,k} r of a 64-root table (jn_zeros, not the
    # Newton table), r on a grid of [0, 1]: the entries that j0, j1 and the
    # forward recurrence give are within 1e-15 of mpmath, absolute
    n = np.arange(CAP + 1)[:, None, None]
    r = np.linspace(0.0, 1.0, 13)
    x = jn_zeros_table(CAP, 64)[:, [0, 1, 4, 15, 32, 63], None] * r
    n, x = np.broadcast_arrays(n, x)
    ours = (n < 2) | (x >= n)
    assert ours.sum() > 900
    assert np.max(np.abs(jn(n, x) - _mp_jn(n, x))[ours]) <= 1e-15


def test_jn_at_its_edges():
    # x = n exactly, where the recurrence starts to apply; r = 0; the
    # orders CAP (recurrence) and CAP + 1 (jv) on the same radii
    orders = np.arange(2, CAP + 2)
    assert np.all(np.abs(jn(orders, orders.astype(float)) - _mp_jn(orders, orders)) <= 1e-15)
    assert np.array_equal(jn(np.arange(CAP + 2), 0.0), np.eye(1, CAP + 2)[0])
    x = np.linspace(CAP, 3 * CAP, 33)
    assert np.max(np.abs(jn(CAP, x) - _mp_jn(CAP, x))) <= 1e-15
    assert np.array_equal(jn(CAP + 1, x), special.jv(CAP + 1, x))
    assert type(jn(3, 4.0)) is np.float64 and jn(np.zeros(0, int), 1.0).shape == (0,)


def test_jn_is_jv_above_the_cap_and_below_the_order():
    rng = np.random.default_rng(7)
    n = rng.integers(2, 3 * CAP, 4000)
    x = rng.uniform(0.0, 4 * CAP, 4000)
    jv_route = (n > CAP) | (x < n)
    assert jv_route.sum() > 1000
    assert np.array_equal(jn(n, x)[jv_route], special.jv(n[jv_route], x[jv_route]))


def test_a_jn_row_alone_is_the_same_row_in_a_batch(table):
    # the 9 x 8 grid at 200 radii in one call, and each row in a call of
    # its own: every route is chosen entry by entry, so the bits agree
    n = np.arange(9)[:, None, None]
    x = table.root(n, np.arange(1, 9)[:, None]) * np.linspace(0.0, 1.0, 200)
    batch = jn(n, x)
    for a in range(9):
        for b in range(8):
            assert np.array_equal(jn(a, x[a, b]), batch[a, b])


def test_norms_against_mpmath(table):
    # C_{n,k} = 1 / (sqrt(pi) J_{n+1}(j_{n,k})) at 600 entries of the table
    rng = np.random.default_rng(3)
    n, k = rng.integers(0, table.n_max + 1, 600), rng.integers(1, table.k_max + 1, 600)
    ref = 1.0 / (math.sqrt(math.pi) * _mp_jn(n + 1, table.root(n, k)))
    assert np.max(np.abs(table.norms[n, k - 1] / ref - 1.0)) <= 3e-14
