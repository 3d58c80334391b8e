"""Tests of centered linear statistics, their exact finite-N moments, limit
covariances, the gradient-plus-boundary variance functional, and the CLT
report of the clt experiment."""

import math
from functools import partial

import numpy as np
import pytest

from ginfield import cli, ginibre, linstats
from ginfield.cli import ExperimentConfig
from ginfield.ginibre import (
    EigensolverError,
    PlaneQuadrature,
    draw_seed,
    eigenvalues,
    pair_variance,
    sample_matrix,
    sample_spectrum,
)
from ginfield.linstats import (
    alpha_values,
    centering_term,
    decay_check,
    gamma_draws,
    limit_covariance,
    limit_covariance_matrix,
    variance_bound_check,
)
from ginfield.logkernel import alpha_radial
from oracles import (
    TestFunction,
    alpha_combination,
    alpha_moments,
    centering_term_per_call,
    disk_rule,
    fine_plane_rule,
    gamma,
    limit_covariance_by_pair,
    limit_covariance_matrix_by_pair,
    limit_quadratic_form,
    polar_rule,
    project,
    radial_pair_variance,
    radial_pair_variance_per_call,
    rv_variance,
)


def test_centering_zero_for_nonzero_order(small_table):
    assert centering_term(3, 2, 16, small_table) == 0.0


def test_centering_radial_value(small_table):
    # for N -> infinity the centering tends to the circular-law average of
    # alpha_{0,k}, which is finite; just pin determinism and magnitude here
    a = centering_term(0, 1, 32, small_table)
    b = centering_term(0, 1, 32, small_table)
    assert a == b
    # the centering grows linearly in N; its per-eigenvalue share is the
    # circular-law average of alpha_{0,1}, which is order one and negative
    assert -2.0 < a / 32 < 0.0
    assert abs(centering_term(0, 1, 64, small_table) / 64 - a / 32) < 0.05


def test_gamma_sample_accessors(small_table):
    s = sample_spectrum(16, 5)
    idx = [(0, 1), (1, 1), (2, 3)]
    g = gamma(s, idx, small_table)
    assert g.index_set == tuple(idx) and g.values.shape == (3,)
    assert g.matrix_size == 16
    with pytest.raises(ValueError):
        gamma(s, [(-1, 1)], small_table)


def test_gamma_matches_manual_sum(small_table):
    s = sample_spectrum(8, 2)
    g = gamma(s, [(2, 1)], small_table)
    manual = complex(np.sum(alpha_values(2, 1, s, small_table)))
    assert abs(g.values[0] - manual) < 1e-13


@pytest.mark.parametrize("w, quad, bound", [
    # outside the disk log|z - w| is smooth: 3.2e-13 off on this rule
    (1.3 - 0.6j, disk_rule(120, 64), 1e-10),
    # inside, the log singularity sits on the panel edge |w| = 0.5: 6.8e-4 off
    (0.3 + 0.4j, polar_rule(64, (0.0, 0.5, 200), (0.5, 1.0, 200)), 5e-3),
], ids=["exterior", "interior"])
def test_gamma_of_one_point_is_the_projection_of_its_log_kernel(w, quad, bound, small_table):
    # alpha_{n,k}(w) = <log|. - w|, e_{n,k}> carries e^{-i n arg w}; the
    # Ginibre law is invariant under A -> conj(A), so no law test sees the
    # sign of that phase. With e^{+i n arg w} every n >= 1 index misses by
    # >= 4.0e-4 outside and >= 3.1e-2 inside.
    idx = ((0, 1), (1, 1), (1, 2), (2, 1), (3, 2), (8, 3))
    ref = project(lambda z: np.log(np.abs(z - w)), idx, quad, small_table)
    one_point = np.array([[w]])
    values = np.array([alpha_values(n, k, one_point[0], small_table)[0] for n, k in idx])
    assert np.abs(linstats._gamma_block(one_point, idx, small_table)[0] - ref).max() < bound
    assert np.abs(values - ref).max() < bound


def test_limit_covariance_entries(small_table):
    j01 = small_table.root(0, 1)
    c, p = limit_covariance((0, 1), (0, 1), small_table)
    assert abs(c - math.pi / j01**2) < 1e-14
    assert c == p
    j11, j12 = small_table.root(1, 1), small_table.root(1, 2)
    c, p = limit_covariance((1, 1), (1, 2), small_table)
    assert abs(c - math.pi / (j11 * j12)) < 1e-14
    assert p == 0.0
    c, p = limit_covariance((1, 1), (1, 1), small_table)
    assert abs(c - 2.0 * math.pi / j11**2) < 1e-14
    assert p == 0.0
    assert limit_covariance((1, 1), (2, 1), small_table) == (0.0, 0.0)
    # gamma_{-n,k} = conj(gamma_{n,k}): C(-a, -b) = conj C(a, b), and the
    # plain moment pairs order n with order -n
    idx = [(n, k) for n in range(-3, 4) for k in range(1, 4)]
    law = limit_covariance_matrix(idx, small_table)
    negated = limit_covariance_matrix([(-n, k) for n, k in idx], small_table)
    assert all(np.array_equal(b, a.conj()) for a, b in zip(law, negated))
    assert limit_covariance((1, 1), (-1, 1), small_table) == (0.0, c)
    assert limit_covariance((-1, 1), (-1, 1), small_table) == (c, 0.0)
    with pytest.raises(KeyError):
        limit_covariance((3, 17), (3, 1), small_table)


def test_limit_covariance_matrix_hermitian_psd(small_table):
    idx = [(n, k) for n in range(0, 4) for k in range(1, 4)]
    M, P = limit_covariance_matrix(idx, small_table)
    assert np.max(np.abs(M - M.conj().T)) < 1e-14
    assert np.array_equal(P, P.T)
    w = np.linalg.eigvalsh(M)
    assert w.min() > -1e-12


def test_quadratic_form_consistency(small_table):
    # the quadratic form must reproduce single-entry variances
    j = small_table.root(0, 2)
    v = limit_quadratic_form({(0, 2): 1.0}, {}, small_table)
    assert abs(v - math.pi / j**2) < 1e-14
    j = small_table.root(3, 1)
    v = limit_quadratic_form({(3, 1): 1.0}, {}, small_table)
    # Var Re gamma = 0.5 pi / j^2 + 0.5 pi / (3 j^2)
    assert abs(v - 0.5 * math.pi / j**2 * (1 + 1.0 / 3.0)) < 1e-14
    # and be additive across independent orders
    v2 = limit_quadratic_form({(0, 2): 1.0, (3, 1): 1.0}, {}, small_table)
    assert abs(v2 - (math.pi / small_table.root(0, 2) ** 2 + v)) < 1e-13


def test_rv_variance_analytic_cases():
    # f = Re z: energy pi over the disk gives 1/4, boundary cos gives 1/4
    f = TestFunction(value=lambda z: np.real(z))
    assert abs(rv_variance(f) - 0.5) < 1e-10
    # f = |z|^2: grad = 2(x, y), energy = 2 pi int r^3 = pi/2 -> 1/8... plus
    # boundary f = 1 constant on the circle, no boundary contribution
    f2 = TestFunction(value=lambda z: np.abs(z) ** 2)
    assert abs(rv_variance(f2) - 0.5) < 1e-8


def test_rv_variance_gradient_route_matches_fd(small_table):
    t = {(0, 1): 0.7, (2, 2): -0.4}
    s = {(2, 2): 0.3}
    combo = alpha_combination(t, s, small_table)
    fd = TestFunction(value=combo.value)
    assert abs(rv_variance(combo) - rv_variance(fd)) < 1e-5


def test_rv_variance_matches_limit_form(small_table):
    # the two limit routes (harmonic-analysis functional vs coefficient
    # quadratic form) must agree on alpha combinations
    t = {(0, 1): 1.0, (1, 1): 0.5, (1, 2): -0.8, (4, 3): 0.25}
    s = {(1, 1): 0.3, (4, 3): -0.6}
    combo = alpha_combination(t, s, small_table)
    lhs = rv_variance(combo)
    rhs = limit_quadratic_form(t, s, small_table)
    assert abs(lhs - rhs) < 1e-6


def test_rv_variance_matches_finite_N_trend(small_table):
    # exact finite-N variance of alpha_{0,1} should approach the limit value
    def f(z):
        return alpha_values(0, 1, z, small_table)

    v8 = pair_variance(f, 8)
    v64 = pair_variance(f, 64)
    limit = math.pi / small_table.root(0, 1) ** 2
    assert abs(v64 - limit) < abs(v8 - limit)
    assert abs(v64 - limit) < 0.01


# 2 draws on 3 workers: more workers than draws.
@pytest.mark.parametrize("draws, workers", [(6, 2), (2, 3)])
def test_gamma_draws_deterministic_and_worker_invariant(draws, workers, small_table):
    idx = [(0, 1), (1, 1)]
    a = gamma_draws(8, draws, idx, 3, small_table, workers=1)
    b = gamma_draws(8, draws, idx, 3, small_table, workers=workers)
    assert np.array_equal(a, b)
    c = gamma_draws(8, draws, idx, 4, small_table, workers=1)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("draws, workers, started", [(1, 4, []), (2, 64, [2]), (6, 2, [2])])
def test_the_pool_starts_no_more_processes_than_draws(
    draws, workers, started, small_table, monkeypatch
):
    # the pool forks all max_workers processes at its first submit, so one
    # draw on 4 workers used to start 4 processes; this pool starts none
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(linstats, "ProcessPoolExecutor", SerialPool)
    idx = [(0, 1), (1, 1)]
    G = gamma_draws(8, draws, idx, 3, small_table, workers=workers)
    assert pools == started
    assert np.array_equal(G, gamma_draws(8, draws, idx, 3, small_table, workers=1))


def test_gamma_draws_run_the_trace_certificate(small_table, monkeypatch):
    # a solver whose eigenvalues miss the trace identity must stop the draws
    solve = ginibre._hessenberg_eigvals
    monkeypatch.setattr(ginibre, "_hessenberg_eigvals", lambda A: solve(A) + 1e-3)
    with pytest.raises(EigensolverError):
        gamma_draws(16, 2, [(0, 1)], 0, small_table, workers=1)


def _clt_report(N, draws, table):
    """The result of the clt experiment at --n-size N --draws draws --seed 0."""
    _, rep, _ = cli._exp_clt(ExperimentConfig("clt", n_size=N, draws=draws, seed=0), table)
    return rep


def test_clt_experiment_small(small_table):
    rep = _clt_report(16, 200, small_table)
    assert rep["N"] == 16 and rep["draws"] == 200
    assert rep["index_set"] == [[0, 1], [1, 1], [1, 2]]
    assert len(rep["empirical_mean"]) == 3
    # centered statistic: mean within 6 se of zero
    for mu, se in zip(rep["empirical_mean"], rep["se_mean"]):
        assert abs(complex(*mu)) < 6 * se
    # Im gamma_{0,1} has limit variance 0, and no test
    assert set(rep["ks"]) == {"re_0_1", "re_1_1", "im_1_1", "re_1_2", "im_1_2"}
    assert "0_1" in rep["exact_pair_variance"]
    # the 1/N law's prediction, limit variance - pi / (8N), beside the limit
    assert rep["predicted_finite_N_var"] == {
        f"{n}_{k}": rep["limit_cov"][i][i][0] - math.pi / 128
        for i, (n, k) in enumerate(rep["index_set"])
    }
    # each empirical variance near its exact finite-N value, as exact_z reports
    for i, key in enumerate(rep["exact_pair_variance"]):
        emp, se = rep["empirical_cov"][i][i][0], rep["se_var"][i]
        assert rep["exact_z"][key] == pytest.approx((emp - rep["exact_pair_variance"][key]) / se)
        assert abs(rep["exact_z"][key]) <= 5.0


ALPHA_CASES = [(n, N) for n in (0, 1, 3, 8) for N in (8, 32)] + [
    (16, 32),
    (32, 64),
    (32, 16),  # |n| >= N: no pair of kernel terms couples
    (1, 256),
    (8, 256),
]


@pytest.mark.parametrize("n, N", ALPHA_CASES)
def test_radial_pair_variance_matches_grid_route(n, N, table):
    quad = PlaneQuadrature.build(N)
    for k in (1, 4, 8):
        grid = pair_variance(partial(alpha_values, n, k, table=table), N, quad)
        radial = radial_pair_variance(partial(alpha_radial, n, k, table=table), n, N)
        assert abs(radial - grid) < 1e-12


def test_clt_experiment_reports_exact_variance_at_large_N(small_table):
    rep = _clt_report(128, 4, small_table)
    grid = pair_variance(partial(alpha_values, 0, 1, table=small_table), 128)
    assert abs(rep["exact_pair_variance"]["0_1"] - grid) < 1e-12


def test_variance_bound_check_structure(small_table):
    out = variance_bound_check([0, 2], [1, 2], [8], small_table)
    assert len(out["entries"]) == 4
    assert out["calibrated_C"] == max(r["ratio"] for r in out["entries"])
    assert out["calibrated_C"] < 0.2  # frozen calibration headroom


def test_decay_check_structure(small_table):
    out = decay_check([(16, 8)], [1, 2], small_table)
    assert len(out["entries"]) == 2
    for r in out["entries"]:
        assert r["scaled"] == r["variance"] * 16 * small_table.root(16, r["k"]) ** 2
    assert out["calibrated_Cprime"] < 6.0  # frozen calibration headroom


def test_variance_checks_equal_the_per_entry_route(small_table):
    # rows in grid order, each equal to its own radial_pair_variance call
    # (two decay cases share N = 8)
    def exact(n, k, N):
        return radial_pair_variance(partial(alpha_radial, n, k, table=small_table), n, N)

    bound = variance_bound_check([0, 3], [1, 2], [8, 16], small_table)
    assert [(r["N"], r["n"], r["k"]) for r in bound["entries"]] == [
        (N, n, k) for N in (8, 16) for n in (0, 3) for k in (1, 2)
    ]
    decay = decay_check([(16, 8), (12, 8), (16, 12)], [1, 2], small_table)
    assert [(r["n"], r["N"], r["k"]) for r in decay["entries"]] == [
        (n, N, k) for n, N in [(16, 8), (12, 8), (16, 12)] for k in (1, 2)
    ]
    for r in bound["entries"]:
        assert r["variance"] == exact(r["n"], r["k"], r["N"])
        assert r["ratio"] == r["variance"] / small_table.root(r["n"], r["k"]) ** 2
    for r in decay["entries"]:
        assert r["variance"] == exact(r["n"], r["k"], r["N"])
        assert r["scaled"] == r["variance"] * r["n"] * small_table.root(r["n"], r["k"]) ** 2


def test_finite_N_variances_stay_below_the_limit_and_rise_with_N(table):
    # the sharp ratio Var_N gamma / Var_inf gamma, Var_inf = pi (1 + 1/n) / j^2
    # (no 1/n for n = 0), over the 9 x 8 grid: at most 1 and rising with N
    # at every index; criterion 5's C = 0.2 bounds Var_N / j^2 alone
    Ns = [8 * 2**i for i in range(10)]  # every doubling from 8 to 4096
    grid = [(n, k) for n in range(9) for k in range(1, 9)]
    limit = np.diag(limit_covariance_matrix(grid, table)[0]).real
    report = variance_bound_check(range(9), range(1, 9), Ns, table)
    rows = report["entries"]
    ratio = np.array([r["variance"] for r in rows]).reshape(len(Ns), len(grid)) / limit
    sharp = np.array([r["sharp_ratio"] for r in rows])
    assert sharp == pytest.approx(ratio.ravel(), rel=1e-14, abs=0)
    assert report["max_sharp_ratio"] == sharp.max()
    assert np.all(ratio <= 1.0 + 1e-9)
    assert np.all(np.diff(ratio, axis=0) > 0.0)
    assert ratio.max(axis=1) == pytest.approx(
        [0.92910, 0.96160, 0.97976, 0.98952, 0.99463, 0.99727, 0.99862, 0.99931, 0.99965, 0.99982],
        abs=1e-4,
    )


def test_the_finite_N_gap_tends_to_minus_pi_over_8N(table):
    # x(N) = N (Var_N - Var_inf) tends to -pi/8 as N^{-1/2} for n = 0 and as
    # N^{-1} for n >= 1; one Richardson step from N = 1024 and 4096 removes
    # the leading rate
    report = variance_bound_check([0, 1, 2], [1], [1024, 4096], table)
    limit = np.diag(limit_covariance_matrix([(0, 1), (1, 1), (2, 1)], table)[0]).real
    x = np.array([[1024], [4096]]) * (np.reshape(_variances(report), (2, 3)) - limit)
    richardson = [2 * x[1, 0] - x[0, 0]] + [(4 * x[1, i] - x[0, i]) / 3 for i in (1, 2)]
    assert richardson == pytest.approx([-math.pi / 8] * 3, abs=1e-3)


def _exact_per_call(n, k, N, table):
    return radial_pair_variance_per_call(partial(alpha_radial, n, k, table=table), n, N)


def _variances(report):
    return [r["variance"] for r in report["entries"]]


@pytest.mark.parametrize("N", [8, 32])
def test_variance_bound_check_equals_the_per_call_oracle(N, table, cold_kernel):
    def library():
        return _variances(variance_bound_check(range(9), range(1, 9), [N], table))

    expected = [_exact_per_call(n, k, N, table) for n in range(9) for k in range(1, 9)]
    cold = library()
    assert cold == expected and library() == expected


def test_decay_check_equals_the_per_call_oracle(table, cold_kernel):
    cases = [(32, 16), (64, 32)]

    def library():
        return _variances(decay_check(cases, [1, 2, 3, 4], table))

    expected = [_exact_per_call(n, k, N, table) for n, N in cases for k in (1, 2, 3, 4)]
    cold = library()
    assert cold == expected and library() == expected


def test_clt_exact_variances_equal_the_per_call_oracle(table, cold_kernel):
    idx = [(0, 1), (1, 1), (1, 2)]

    def library():
        # the one exact call of the clt report, over its orders and k
        rows = variance_bound_check([0, 1], [1, 2], [256], table)["entries"]
        return [r["variance"] for r in rows if (r["n"], r["k"]) in idx]

    expected = [_exact_per_call(n, k, 256, table) for n, k in idx]
    cold = library()
    assert cold == expected and library() == expected


@pytest.mark.parametrize("N", [8, 64, 256, 1024])
def test_exact_moments_match_a_fine_reference_rule(N, small_table):
    # the plane rule's panels split at alpha's kink r = 1 and its cut lies
    # past the edge layer; one panel to sqrt(1 + 20/N) + 2/sqrt(N) missed
    # the variances by up to 1.2e-5 and the centerings by up to 1.8e-6 here
    idx = [(n, k) for n in range(9) for k in range(1, 9)]
    ref_var, ref_cent = alpha_moments(N, idx, small_table, fine_plane_rule(N))
    var = np.array(_variances(variance_bound_check(range(9), range(1, 9), [N], small_table)))
    cent = np.array([centering_term(n, k, N, small_table) for n, k in idx])
    assert np.max(np.abs(var / ref_var - 1.0)) < 1e-9
    assert np.max(np.abs(cent - ref_cent)) < 1e-9


@pytest.mark.parametrize("N", [16, 64, 256])
def test_centerings_equal_the_per_call_oracle(N, table, cold_kernel):
    idx = tuple((0, k) for k in range(1, 9)) + ((2, 1),)
    expected = [centering_term_per_call(n, k, N, table) for n, k in idx]

    def library():
        return [centering_term(n, k, N, table) for n, k in idx]

    cold = library()
    assert cold == expected and library() == expected


@pytest.fixture
def kernel_builds(monkeypatch):
    """The list of N of every ginibre._kernel call made."""
    calls, kernel = [], ginibre._kernel

    def counted(N, r):
        calls.append(N)
        return kernel(N, r)

    monkeypatch.setattr(ginibre, "_kernel", counted)
    return calls


def test_variance_bound_check_builds_the_kernel_factors_once_per_N(
    table, cold_kernel, kernel_builds
):
    report = variance_bound_check(range(9), range(1, 9), [8, 32], table)
    assert len(report["entries"]) == 144
    assert kernel_builds == [8, 32]


def test_a_call_over_more_N_than_the_rule_cache_builds_each_rule_once(
    table, cold_kernel, kernel_builds
):
    # 10 N against the 8 entries of the rule cache: radial_pair_variances
    # reads each rule once and keeps it for the whole call, so none is
    # built again after the cache has dropped it
    Ns = range(2, 12)
    report = variance_bound_check([0, 1], [1], Ns, table)
    assert kernel_builds == list(Ns)
    assert _variances(report) == [_exact_per_call(n, 1, N, table) for N in Ns for n in (0, 1)]


@pytest.fixture
def alpha_calls(monkeypatch):
    """The (ns, ks) of every alpha_radial call made by linstats, ns and ks
    the lists of the orders and radial indices it evaluates."""
    calls, alpha = [], linstats.alpha_radial

    def counted(n, k, r, table):
        calls.append(([int(i) for i in np.ravel(n)], [int(i) for i in np.ravel(k)]))
        return alpha(n, k, r, table)

    monkeypatch.setattr(linstats, "alpha_radial", counted)
    return calls


def test_variance_bound_check_evaluates_alpha_once_per_index(table, alpha_calls):
    # one call over the column of orders and the row of k, on the nodes of
    # both N: each index once, not once per index and N
    variance_bound_check(range(9), range(1, 9), [8, 32], table)
    assert alpha_calls == [(list(range(9)), list(range(1, 9)))]


# Inner rules of 80 (N = 8) and 96 (N = 1024) radii, orders at and past N
# (no pair of kernel terms couples), and three cases sharing N = 8.
MIXED_CASES = [(16, 8), (2, 1024), (8, 8), (40, 1024), (5, 8)]


def test_one_call_over_mixed_rules_and_cases_equals_the_per_call_oracle(
    table, cold_kernel, monkeypatch
):
    assert [len(PlaneQuadrature.build(N).r) for N in (8, 1024)] == [80 + 40, 96 + 40]
    calls, alpha = [], linstats.alpha_radial

    def counted(n, k, r, table):
        calls.append((n, r))
        return alpha(n, k, r, table)

    monkeypatch.setattr(linstats, "alpha_radial", counted)
    ks = [1, 3, 8]
    rows = decay_check(MIXED_CASES, ks, table)["entries"]
    # one alpha call over the distinct orders, on the union of both rules' radii
    union = np.union1d(PlaneQuadrature.build(8).r, PlaneQuadrature.build(1024).r)
    assert [np.ravel(n).tolist() for n, _ in calls] == [[16, 2, 8, 40, 5]]
    assert np.array_equal(calls[0][1], union)
    assert [(r["n"], r["N"], r["k"]) for r in rows] == [
        (n, N, k) for n, N in MIXED_CASES for k in ks
    ]
    assert [r["variance"] for r in rows] == [
        _exact_per_call(n, k, N, table) for n, N in MIXED_CASES for k in ks
    ]


# Orders out of order and repeated, uneven numbers of k per order, and one
# index listed twice.
MIXED_INDEX_SET = [(3, 2), (0, 1), (5, 1), (3, 1), (0, 4), (3, 7), (1, 1), (0, 2), (3, 2)]


def _per_index_gamma(N, draws, index_set, master_seed, table):
    """gamma draw by draw and index by index: the sum of alpha_values over
    the spectrum minus centering_term."""
    cent = [centering_term(n, k, N, table) for n, k in index_set]
    rows = []
    for i in range(draws):
        z = eigenvalues(sample_matrix(N, draw_seed(master_seed, i))).eigenvalues
        rows.append(
            [np.sum(alpha_values(n, k, z, table)) - c for (n, k), c in zip(index_set, cent)]
        )
    return np.array(rows)


# With 512 eigenvalues per block, N = 256 with 5 draws spans three blocks
# of spectra, the last one short.
@pytest.mark.parametrize("N, draws", [(4, 5), (16, 5), (64, 5), (256, 5)])
def test_gamma_draws_equal_the_per_index_sum(N, draws, small_table, monkeypatch):
    monkeypatch.setattr(linstats, "_BLOCK_EIGENVALUES", 512)
    blocks, block = [], linstats._gamma_block

    def counted(Z, *args):
        blocks.append(len(Z))
        return block(Z, *args)

    monkeypatch.setattr(linstats, "_gamma_block", counted)
    G = gamma_draws(N, draws, MIXED_INDEX_SET, 11, small_table, workers=1)
    assert blocks == ([2, 2, 1] if N == 256 else [5])
    ref = _per_index_gamma(N, draws, MIXED_INDEX_SET, 11, small_table)
    assert G.shape == (draws, len(MIXED_INDEX_SET))
    assert np.max(np.abs(G - ref)) <= 1e-12
    i = draws - 1
    z = eigenvalues(sample_matrix(N, draw_seed(11, i))).eigenvalues
    assert np.array_equal(gamma(z, MIXED_INDEX_SET, small_table).values, G[i])


def test_pooled_draws_whose_worker_ranges_span_several_blocks(small_table, monkeypatch):
    # 128 eigenvalues per block hold two N = 64 spectra, so the two workers
    # share the blocks [0, 2), [2, 4) and [4, 5); the pool forks, so the
    # workers see the patched size
    monkeypatch.setattr(linstats, "_BLOCK_EIGENVALUES", 128)
    pooled = gamma_draws(64, 5, MIXED_INDEX_SET, 11, small_table, workers=2)
    assert np.array_equal(pooled, gamma_draws(64, 5, MIXED_INDEX_SET, 11, small_table, workers=1))


def test_the_pool_maps_the_one_block_split(small_table, monkeypatch):
    # 512 eigenvalues per block hold two N = 256 spectra, fewer than the
    # ceil(10 / 2) = 5 draws per worker, so the pool maps five blocks of
    # two draws rather than one range per worker
    monkeypatch.setattr(linstats, "_BLOCK_EIGENVALUES", 512)
    mapped = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            pairs = list(zip(*iterables))
            mapped.extend(pairs)
            return [fn(*pair) for pair in pairs]

    monkeypatch.setattr(linstats, "ProcessPoolExecutor", RecordingPool)
    idx = [(0, 1), (1, 1), (2, 3)]
    pooled = gamma_draws(256, 10, idx, 7, small_table, workers=2)
    assert mapped == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    assert np.array_equal(pooled, gamma_draws(256, 10, idx, 7, small_table, workers=1))


@pytest.mark.parametrize("workers", [1, 2])
def test_zero_draws_give_an_empty_complex_matrix_and_start_no_pool(
    workers, small_table, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started for zero draws")

    monkeypatch.setattr(linstats, "ProcessPoolExecutor", refuse)
    idx = [(0, 1), (1, 1), (2, 3)]
    G = gamma_draws(8, 0, idx, 3, small_table, workers=workers)
    assert G.shape == (0, len(idx)) and G.dtype == np.complex128


def test_gamma_of_an_index_does_not_depend_on_the_index_set(small_table):
    alone = gamma_draws(64, 3, [(3, 2)], 11, small_table)
    mixed = gamma_draws(64, 3, MIXED_INDEX_SET, 11, small_table)
    assert np.array_equal(alone[:, 0], mixed[:, 0])
    assert np.array_equal(alone[:, 0], mixed[:, -1])


@pytest.mark.parametrize(
    "index_set",
    [
        [(n, k) for n in range(9) for k in range(1, 9)],
        MIXED_INDEX_SET,
        [(0, 1), (1, 1), (1, 2)],
        [(m, k) for n in range(9) for m in (n, -n) for k in range(1, 9)],
    ],
    ids=["grid", "mixed", "clt", "signed-grid"],
)
def test_limit_covariance_equals_the_per_pair_route(index_set, small_table):
    law = limit_covariance_matrix(index_set, small_table)
    by_pair = limit_covariance_matrix_by_pair(index_set, small_table)
    assert all(np.array_equal(a, b) for a, b in zip(law, by_pair, strict=True))
    for i1 in index_set:
        for i2 in index_set:
            want = limit_covariance_by_pair(i1, i2, small_table)
            assert limit_covariance(i1, i2, small_table) == want, (i1, i2)
