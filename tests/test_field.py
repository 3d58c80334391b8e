"""Tests of the limit field sampler, its norms, the covariance estimator,
and the finite-N field coefficients."""

import math
import tracemalloc

import numpy as np
import pytest

from ginfield import field
from ginfield.basis import DiskDomainError, sobolev_norm
from ginfield.bessel import RootTable
from ginfield.field import (
    covariance_mc,
    expected_norm_sq,
    field_norm_sq,
    sample_h,
    tightness_statistic,
)
from ginfield.ginibre import sample_spectrum
from ginfield.linstats import GammaSample, centering_term, gamma_draws
from oracles import (
    eval_eigenfunction,
    evaluate,
    gamma,
    h_N_coeffs,
    tightness_bound,
    truncated_covariance,
)


def test_sample_h_structure(small_table):
    s = sample_h((4, 5), 0, small_table)
    assert s.coeffs.shape == (5, 5) and s.coeffs.dtype == complex
    assert not np.any(s.coeffs[0].imag)
    with pytest.raises(ValueError):
        sample_h((0, 5), 0, small_table)


def test_sample_h_deterministic(small_table):
    a = sample_h((3, 3), 9, small_table)
    b = sample_h((3, 3), 9, small_table)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = sample_h((3, 3), 10, small_table)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_sample_h_is_the_seeded_draw(small_table):
    # a_{0,k} = sqrt(pi) A_k / j_{0,k}, a_{n,k} = sqrt(pi) (Z_{n,k} + W_n / sqrt(n)) / j_{n,k},
    # with A, then Z, then W drawn from the seeded generator
    n_max, k_max = 5, 7
    shape = (n_max, k_max)
    rng = np.random.default_rng(31)
    A = rng.standard_normal(k_max)
    Z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    W = (rng.standard_normal(n_max) + 1j * rng.standard_normal(n_max)) / math.sqrt(2)
    rt = math.sqrt(math.pi)
    want = np.empty((n_max + 1, k_max), dtype=complex)
    for k in range(1, k_max + 1):
        want[0, k - 1] = rt * A[k - 1] / small_table.root(0, k)
        for n in range(1, n_max + 1):
            j = small_table.root(n, k)
            want[n, k - 1] = rt * (Z[n - 1, k - 1] + W[n - 1] / np.sqrt(n)) / j
    assert np.array_equal(sample_h((n_max, k_max), 31, small_table).coeffs, want)


def test_cutoff_past_the_table_raises(small_table):
    # the 16 x 16 table must not be truncated silently to a larger cutoff
    for cutoff in ((8, 17), (17, 8)):
        with pytest.raises(KeyError, match=r"outside table \(16, 16\)"):
            expected_norm_sq(1.0, cutoff, small_table)
        with pytest.raises(KeyError, match=r"outside table \(16, 16\)"):
            tightness_bound(2.5, cutoff, small_table, constant=0.2)
        with pytest.raises(KeyError, match=r"outside table \(16, 16\)"):
            sample_h(cutoff, 0, small_table)
    with pytest.raises(KeyError, match=r"outside table \(16, 16\)"):
        sobolev_norm(np.ones((3, 17), dtype=complex), -1.0, small_table)


def test_expected_norm_formula(small_table):
    # closed form re-derived by brute summation over the index window
    s = 1.0
    n_max, k_max = 5, 6
    brute = 0.0
    for k in range(1, k_max + 1):
        brute += math.pi * small_table.root(0, k) ** (-4.0)
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            brute += 2 * math.pi * (1 + 1 / n) * small_table.root(n, k) ** (-4.0)
    assert abs(expected_norm_sq(s, (n_max, k_max), small_table) - brute) < 1e-13
    with pytest.raises(ValueError):
        expected_norm_sq(-0.5, (2, 2), small_table)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_field_norms_refuse_a_non_finite_exponent(s, small_table):
    # each used to return nan for s = nan and 0.0 for s = inf
    with pytest.raises(ValueError, match="finite"):
        field_norm_sq(sample_h((3, 3), 1, small_table), s, small_table)
    with pytest.raises(ValueError, match="finite"):
        expected_norm_sq(s, (3, 3), small_table)


def test_norm_concentrates_on_expectation(small_table):
    cutoff = (8, 8)
    s = 1.0
    draws = 400
    vals = [
        field_norm_sq(sample_h(cutoff, seed, small_table), s, small_table)
        for seed in range(draws)
    ]
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1)) / math.sqrt(draws)
    assert abs(mean - expected_norm_sq(s, cutoff, small_table)) < 4 * se


def test_field_norm_matches_sobolev(small_table):
    samp = sample_h((3, 3), 1, small_table)
    assert abs(
        field_norm_sq(samp, 1.5, small_table)
        - sobolev_norm(samp.coeffs, -1.5, small_table)
    ) < 1e-15


def test_covariance_mc_sanity(small_table):
    # E h(z) h(w) -> -0.5 log|z - w|; at a small cutoff we only ask for the
    # right sign and rough size plus determinism
    v1 = covariance_mc(0.3, -0.4, (16, 16), 4000, 0, small_table)
    v2 = covariance_mc(0.3, -0.4, (16, 16), 4000, 0, small_table)
    assert v1 == v2
    target = -0.5 * math.log(0.7)
    assert abs(v1 - target) < 0.08
    with pytest.raises(ValueError):
        covariance_mc(0.3, 0.3, (4, 4), 10, 0, small_table)


@pytest.fixture
def made_generators(monkeypatch):
    """The generators np.random.default_rng returns while the test runs."""
    made, default_rng = [], np.random.default_rng

    def spy(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    return made


@pytest.mark.parametrize("cutoff", [(0, 4), (1, 1), (3, 5), (16, 16), (64, 64)])
def test_the_pair_factor_gives_the_covariance_of_the_coefficient_law(table, cutoff):
    z, w = 0.3 + 0.2j, -0.1 + 0.4j
    R = field._pair_factor(z, w, cutoff, table)
    got = R.T @ R
    want = np.array(
        [[truncated_covariance(p, q, cutoff, table) for q in (z, w)] for p in (z, w)]
    )
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    assert np.array_equal(field.truncated_covariance(z, w, cutoff, table), got)


@pytest.mark.parametrize("cutoff", [(0, 1), (1, 1), (3, 5), (16, 16), (64, 64)])
@pytest.mark.parametrize("seed", [0, 5])
def test_covariance_mc_is_the_mean_over_seeded_pairs(
    table, made_generators, monkeypatch, cutoff, seed
):
    # each draw is x R for len(R) standard normals x taken from one seeded
    # generator in draw order, whatever the block size; blocks of 1 and 7
    # draws end in partial blocks, and cutoff (0, 1) has a one-row R
    z, w = 0.3 + 0.2j, -0.1 + 0.4j
    R = field._pair_factor(z, w, cutoff, table)
    for block in (field._BLOCK, 1, 7):
        monkeypatch.setattr(field, "_BLOCK", block)
        for draws in (1, 7, 1000, 2500):
            rng = np.random.Generator(np.random.PCG64(seed))
            h = rng.standard_normal((draws, len(R))) @ R
            want = float(np.mean(h[:, 0] * h[:, 1]))
            made_generators.clear()
            got = covariance_mc(z, w, cutoff, draws, seed, table)
            assert abs(got - want) <= 1e-13 * abs(want), (draws, block)
            assert len(made_generators) == 1
            assert made_generators[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("draws", [0, -1])
def test_covariance_mc_rejects_counts_below_one(small_table, monkeypatch, draws):
    # before any draw: draws 0 used to divide by zero

    def no_draw(seed):
        raise AssertionError("a generator was made before the counts were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="draws"):
        covariance_mc(0.3, -0.4, (4, 4), draws, 0, small_table)


@pytest.mark.parametrize("draws", [1000, 5000, 100_000])
def test_covariance_mc_memory_stays_under_a_mebibyte_at_any_draw_count(table, draws):
    # at cutoff (64, 64) the draws go in blocks of _BLOCK pairs, so the peak
    # does not grow with the draws; one (100000, 2) array of normals would
    # take 1.6 MB, and no coefficient array is built
    tracemalloc.start()
    try:
        covariance_mc(0.3, -0.4, (64, 64), draws, 0, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "bad", [complex("nan"), complex(0.1, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf)]
)
def test_a_non_finite_point_is_refused(small_table, monkeypatch, bad):
    # |nan| > 1 is False, so the disk check used to let NaN through and both
    # routes returned nan; the refusal comes before any weight or draw
    a = sample_h((4, 4), 0, small_table).coeffs
    with pytest.raises(DiskDomainError):
        evaluate(a, bad, small_table)
    with pytest.raises(DiskDomainError):
        evaluate(a, np.array([0.1, bad]), small_table)

    def no_draw(seed):
        raise AssertionError("a generator was made before the points were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    field._pair_factor.cache_clear()
    for z, w in ((bad, 0.1), (0.1, bad)):
        with pytest.raises(DiskDomainError):
            covariance_mc(z, w, (4, 4), 10, 0, small_table)
    assert field._pair_factor.cache_info().currsize == 0


@pytest.fixture
def eval_calls(monkeypatch):
    """An empty factor cache, and the list of eval_matrix calls made."""
    calls, eval_matrix = [], field.eval_matrix

    def counted(points, n_max, k_max, table):
        calls.append((n_max, k_max))
        return eval_matrix(points, n_max, k_max, table)

    field._pair_factor.cache_clear()
    monkeypatch.setattr(field, "eval_matrix", counted)
    return calls


def test_covariance_mc_builds_its_weights_once(table, eval_calls):
    first = covariance_mc(0.3, -0.4, (16, 16), 200, 0, table)
    second = covariance_mc(0.3, -0.4, (16, 16), 200, 1, table)
    assert eval_calls == [(16, 16)]
    assert first != second
    assert field._pair_factor.cache_info()[:2] == (1, 1)  # (hits, misses)
    R = field._pair_factor(0.3 + 0j, -0.4 + 0j, (16, 16), table)
    assert not R.flags.writeable
    with pytest.raises(ValueError):
        R[0, 0] = 1.0


def test_covariance_mc_weights_follow_the_table_content(table, eval_calls):
    # a perturbed norm inside the window gets a factor of its own
    norms = table.norms.copy()
    norms[3, 2] = np.nextafter(norms[3, 2], np.inf)
    perturbed = RootTable(table.n_max, table.k_max, table.roots, norms)
    covariance_mc(0.3, -0.4, (8, 8), 50, 0, table)
    covariance_mc(0.3, -0.4, (8, 8), 50, 0, perturbed)
    assert len(eval_calls) == 2 and field._pair_factor.cache_info().currsize == 2


@pytest.mark.parametrize("z", [complex(-0.3, 0.0), complex(-0.3, -0.0)])
def test_covariance_mc_from_the_cache_is_bit_identical(table, z):
    # the two signs of a zero imaginary part are one point: one estimate and
    # one cache entry, whichever spelling comes first; -0 used to take the
    # angle -pi and move the estimate by rounding
    w, cutoff = 0.1 + 0.4j, (16, 16)
    field._pair_factor.cache_clear()
    cold = covariance_mc(z, w, cutoff, 300, 4, table)
    other = complex(z.real, -z.imag)
    assert [covariance_mc(p, w, cutoff, 300, 4, table) for p in (other, z)] == [cold, cold]
    assert field._pair_factor.cache_info()[:2] == (2, 1)  # (hits, misses)
    assert field._pair_factor.cache_info().currsize == 1
    field._pair_factor.cache_clear()
    assert covariance_mc(other, w, cutoff, 300, 4, table) == cold


def test_covariance_mc_cache_is_bounded(small_table):
    field._pair_factor.cache_clear()
    for i in range(24):
        covariance_mc(0.01 * i, -0.4, (2, 2), 1, 0, small_table)
    assert field._pair_factor.cache_info().currsize == 8


def test_h_N_coeffs_match_gamma(small_table):
    spec = sample_spectrum(16, 21)
    fs = h_N_coeffs(spec, (3, 3), small_table)
    assert fs.coeffs.shape == (4, 3)
    g = gamma(spec, [(2, 3)], small_table)
    assert abs(fs.coeffs[2, 2] - g.values[0]) < 1e-12
    assert not np.any(fs.coeffs[0].imag)


def test_h_N_field_evaluates_near_log_statistic(small_table):
    # sum log|z - z_i| centered should be tracked by the truncated field
    spec = sample_spectrum(64, 7)
    fs = h_N_coeffs(spec, (16, 16), small_table)
    z = 0.2
    val = evaluate(fs.coeffs, z, small_table)
    direct = float(np.sum(np.log(np.abs(z - spec.eigenvalues))))
    # compare after removing the deterministic centering part
    centered = direct - sum(
        centering_term(0, k, 64, small_table)
        * float(np.real(eval_eigenfunction(0, k, z, small_table)))
        for k in range(1, 17)
    )
    assert abs(val - centered) < 0.2


def test_tightness_statistic(small_table):
    specs = [sample_spectrum(16, 3, draw_index=i) for i in range(5)]
    idx = [(n, k) for n in range(0, 9) for k in range(1, 9)]
    runs = [gamma(s, idx, small_table) for s in specs]
    t = tightness_statistic(runs, 2.5, small_table)
    assert t > 0.0
    assert t < tightness_bound(2.5, (8, 8), small_table, constant=0.2)
    with pytest.raises(ValueError):
        tightness_statistic(runs, 1.5, small_table)
    with pytest.raises(ValueError):
        tightness_statistic([], 2.5, small_table)


@pytest.mark.parametrize("s_prime", [math.nan, math.inf])
def test_tightness_statistic_refuses_a_non_finite_exponent(s_prime, small_table):
    # this used to return nan for s' = nan and 0.0 for s' = inf
    idx = ((0, 1), (1, 1))
    runs = [GammaSample(idx, g, 8, 0) for g in gamma_draws(8, 2, idx, 0, small_table)]
    with pytest.raises(ValueError, match="finite"):
        tightness_statistic(runs, s_prime, small_table)


def test_tightness_statistic_refuses_runs_of_two_matrix_sizes(small_table):
    # the mean over runs is a statistic of one N; runs of several N mix them
    idx = ((0, 1), (1, 1))
    g = gamma_draws(8, 1, idx, 0, small_table)[0]
    runs = [GammaSample(idx, g, 8, 0), GammaSample(idx, g, 16, 0)]
    with pytest.raises(ValueError, match="matrix size"):
        tightness_statistic(runs, 2.5, small_table)


def test_tightness_statistic_equals_the_per_entry_sum(small_table):
    idx = ((0, 1), (2, 3), (1, 1), (0, 5), (7, 2))
    G = gamma_draws(16, 6, idx, 2, small_table)
    runs = [GammaSample(idx, g, 16, 2) for g in G]
    per_entry = np.mean(
        [
            sum(
                (1.0 if n == 0 else 2.0) * abs(v) ** 2 * small_table.root(n, k) ** -5.0
                for (n, k), v in zip(idx, g)
            )
            for g in G
        ]
    )
    assert abs(tightness_statistic(runs, 2.5, small_table) - per_entry) <= 1e-12 * per_entry
    with pytest.raises(ValueError):
        tightness_statistic(runs + [GammaSample(idx[:2], G[0, :2], 16, 2)], 2.5, small_table)
