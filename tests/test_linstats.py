"""Tests of centered linear statistics, limit covariances, the
gradient-plus-boundary variance functional, and the CLT machinery."""

import math
from functools import partial

import numpy as np
import pytest

from ginfield import ginibre, linstats
from ginfield.ginibre import (
    EigensolverError,
    PlaneQuadrature,
    draw_seed,
    eigenvalues,
    pair_variance,
    radial_pair_variance,
    sample_matrix,
    sample_spectrum,
)
from ginfield.linstats import (
    alpha_values,
    centering_term,
    clt_experiment,
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
    centering_term_per_call,
    gamma,
    limit_covariance_by_pair,
    limit_covariance_matrix_by_pair,
    limit_quadratic_form,
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
    assert (g.matrix_size, g.seed) == (16, 5)
    with pytest.raises(ValueError):
        gamma(s, [(-1, 1)], small_table)


def test_gamma_matches_manual_sum(small_table):
    s = sample_spectrum(8, 2)
    g = gamma(s, [(2, 1)], small_table)
    manual = complex(np.sum(alpha_values(2, 1, s.eigenvalues, small_table)))
    assert abs(g.values[0] - manual) < 1e-13


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
    assert limit_covariance((1, 1), (2, 1), small_table) == (0.0, 0.0)
    with pytest.raises(ValueError):
        limit_covariance((-1, 1), (1, 1), small_table)
    with pytest.raises(ValueError):
        limit_covariance_matrix([(0, 1), (-2, 1)], small_table)
    with pytest.raises(KeyError):
        limit_covariance((3, 17), (3, 1), small_table)


def test_limit_covariance_matrix_hermitian_psd(small_table):
    idx = [(n, k) for n in range(0, 4) for k in range(1, 4)]
    M = limit_covariance_matrix(idx, small_table)
    assert np.max(np.abs(M - M.conj().T)) < 1e-14
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
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: eigvals(A) + 1e-3)
    with pytest.raises(EigensolverError):
        gamma_draws(16, 2, [(0, 1)], 0, small_table, workers=1)


def test_clt_experiment_small(small_table):
    idx = [(0, 1), (1, 1)]
    rep = clt_experiment(16, 200, idx, 0, small_table)
    assert rep["N"] == 16 and rep["draws"] == 200
    assert len(rep["empirical_mean"]) == 2
    # centered statistic: mean within 6 se of zero
    for mu, se in zip(rep["empirical_mean"], rep["se_mean"]):
        assert abs(complex(*mu)) < 6 * se
    assert "re_0_1" in rep["ks"] and "im_1_1" in rep["ks"]
    assert "0_1" in rep["exact_pair_variance"]
    # empirical variance of gamma_{0,1} near its exact finite-N value
    emp = rep["empirical_cov"][0][0][0]
    exact = rep["exact_pair_variance"]["0_1"]
    assert abs(emp - exact) < 5 * rep["se_var"][0]


ALPHA_CASES = [(n, N) for n in (0, 1, 3, 8) for N in (8, 32)] + [
    (16, 32),
    (32, 64),
    (32, 16),  # |n| >= N: no pair of kernel terms couples
]


@pytest.mark.parametrize("n, N", ALPHA_CASES)
def test_radial_pair_variance_matches_grid_route(n, N, table):
    quad = PlaneQuadrature.build(N)
    for k in (1, 4, 8):
        grid = pair_variance(partial(alpha_values, n, k, table=table), N, quad)
        radial = radial_pair_variance(partial(alpha_radial, n, k, table=table), n, N)
        assert abs(radial - grid) < 1e-12


def test_clt_experiment_reports_exact_variance_at_large_N(small_table):
    rep = clt_experiment(128, 4, [(0, 1)], 0, small_table)
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
        return clt_experiment(256, 2, idx, 0, table)["exact_pair_variance"]

    expected = {f"{n}_{k}": _exact_per_call(n, k, 256, table) for n, k in idx}
    cold = library()
    assert cold == expected and library() == expected


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
    """The list of N of every _log_kernel_radial call made."""
    calls, log_kernel_radial = [], ginibre._log_kernel_radial

    def counted(N, r):
        calls.append(N)
        return log_kernel_radial(N, r)

    monkeypatch.setattr(ginibre, "_log_kernel_radial", counted)
    return calls


def test_variance_bound_check_builds_the_kernel_factors_once_per_N(
    table, cold_kernel, kernel_builds
):
    report = variance_bound_check(range(9), range(1, 9), [8, 32], table)
    assert len(report["entries"]) == 144
    assert kernel_builds == [8, 32]


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


# N = 256 with 65 draws spans two blocks of spectra.
@pytest.mark.parametrize("N, draws", [(4, 5), (16, 5), (64, 5), (256, 65)])
def test_gamma_draws_equal_the_per_index_sum(N, draws, small_table):
    G = gamma_draws(N, draws, MIXED_INDEX_SET, 11, small_table, workers=1)
    ref = _per_index_gamma(N, draws, MIXED_INDEX_SET, 11, small_table)
    assert G.shape == (draws, len(MIXED_INDEX_SET))
    assert np.max(np.abs(G - ref)) <= 1e-12
    i = draws - 1
    sample = eigenvalues(sample_matrix(N, draw_seed(11, i)))
    assert np.array_equal(gamma(sample, MIXED_INDEX_SET, small_table).values, G[i])


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
    ],
    ids=["grid", "mixed", "clt"],
)
def test_limit_covariance_equals_the_per_pair_route(index_set, small_table):
    M = limit_covariance_matrix(index_set, small_table)
    assert np.array_equal(M, limit_covariance_matrix_by_pair(index_set, small_table))
    for i1 in index_set:
        for i2 in index_set:
            want = limit_covariance_by_pair(i1, i2, small_table)
            assert limit_covariance(i1, i2, small_table) == want, (i1, i2)
