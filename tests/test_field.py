"""Tests of the limit field sampler, its norms, the covariance estimator,
and the finite-N field coefficients."""

import math
import tracemalloc

import numpy as np
import pytest

from ginfield import basis, field
from ginfield.basis import (
    DiskDomainError, SingularityError, eval_matrix, green_dirichlet_series, sobolev_norm
)
from ginfield.bessel import RootTable
from ginfield.field import (
    covariance_mc,
    expected_norm_sq,
    field_norm_sq,
    sample_h,
    tightness_statistic,
)
from ginfield.ginibre import sample_spectrum
from ginfield.linstats import (
    GammaSample,
    centering_term,
    gamma_draws,
    limit_covariance_matrix,
    variance_bound_check,
)
from oracles import (
    coeff_arrays_complex,
    eval_eigenfunction,
    evaluate,
    gamma,
    h_N_coeffs,
    sobolev_norm_uncached,
    tightness_bound,
    truncated_covariance,
)


def test_sample_h_structure(small_table):
    s = sample_h((4, 5), 0, small_table)
    assert s.coeffs.shape == (5, 5) and s.coeffs.dtype == complex
    assert not np.any(s.coeffs[0].imag)
    # the radial-only window is one real row; a window with no index is a KeyError
    a = sample_h((0, 5), 0, small_table).coeffs
    assert a.shape == (1, 5) and not np.any(a.imag)
    for cutoff in [(0, 0), (-1, 5), (3, 0)]:
        with pytest.raises(KeyError):
            sample_h(cutoff, 0, small_table)


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


@pytest.mark.parametrize("cutoff", [(1, 1), (3, 5), (8, 8), (32, 32), (64, 64), (64, 1), (1, 64)])
@pytest.mark.parametrize("seed", [0, 7, 123, 2**62 + 5])
def test_sample_h_and_its_norms_keep_the_bits_of_the_complex_form(table, cutoff, seed):
    # the real-arithmetic assembly and the cached weights give the complex
    # form's coefficients and norms bit for bit, and use the stream as it does
    rng = np.random.default_rng(seed)
    want = coeff_arrays_complex(rng, cutoff, table)
    got = np.random.default_rng(seed)
    a = field._coeff_arrays(got, cutoff, table)
    assert np.array_equal(a, want)
    assert got.bit_generator.state == rng.bit_generator.state
    sample = sample_h(cutoff, seed, table)
    assert np.array_equal(sample.coeffs, want)
    for s in (-2.5, -1.0, 0.0, 0.5, 1.5):
        assert sobolev_norm(a, s, table) == sobolev_norm_uncached(want, s, table)
        assert field_norm_sq(sample, s, table) == sobolev_norm_uncached(want, -s, table)


class UnitDraws:
    """Generator stub whose standard normals, in the order they are drawn,
    form the unit vector e_i: all zero but draw i."""

    def __init__(self, i):
        self.i, self.drawn = i, 0

    def standard_normal(self, size):
        out = np.zeros(size)
        if 0 <= self.i - self.drawn < out.size:
            out.flat[self.i - self.drawn] = 1.0
        self.drawn += out.size
        return out


@pytest.mark.parametrize("cutoff", [(1, 1), (3, 5), (8, 8), (16, 16)])
def test_the_sampler_is_a_linear_map_onto_the_limit_law(small_table, cutoff):
    # a = L x for the standard normals x that _coeff_arrays draws (A, then Z,
    # then W), so E a a^H = L L^H and E a a^T = L L^T are the covariance and
    # pseudo-covariance of limit_covariance_matrix over the n-major window
    n_max, k_max = cutoff
    draws = k_max + 2 * n_max * (k_max + 1)
    columns = []
    for i in range(draws):
        stub = UnitDraws(i)
        columns.append(field._coeff_arrays(stub, cutoff, small_table).ravel())
        assert stub.drawn == draws
    L = np.stack(columns, axis=1)
    window = [(n, k) for n in range(n_max + 1) for k in range(1, k_max + 1)]
    C, P = limit_covariance_matrix(window, small_table)
    scale = np.abs(C).max()
    assert np.abs(L @ L.conj().T - C).max() <= 1e-15 * scale
    assert np.abs(L @ L.T - P).max() <= 1e-15 * scale


def test_the_cached_scales_and_weights_are_read_only(small_table):
    a = sample_h((4, 5), 0, small_table).coeffs
    sobolev_norm(a, -1.0, small_table)
    scales = field._coeff_scales((4, 5), small_table)
    for arr in (*scales, basis.sobolev_weights((4, 5), -1.0, small_table)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_the_caches_follow_the_table_content(small_table):
    # a table with one root nudged gets scales and weights of its own
    roots = small_table.roots.copy()
    roots[2, 1] = np.nextafter(roots[2, 1], np.inf)
    other = RootTable(small_table.n_max, small_table.k_max, roots, small_table.norms)
    a = sample_h((3, 3), 4, small_table).coeffs
    assert not np.array_equal(sample_h((3, 3), 4, other).coeffs, a)
    assert sobolev_norm(a, 1.5, other) != sobolev_norm(a, 1.5, small_table)
    assert not np.array_equal(
        basis.sobolev_weights((3, 3), 1.5, other),
        basis.sobolev_weights((3, 3), 1.5, small_table),
    )
    assert sobolev_norm(a, 1.5, other) == sobolev_norm_uncached(a, 1.5, other)


def test_cutoff_past_the_table_raises(small_table):
    # the 16 x 16 table must not be truncated silently to a larger cutoff,
    # and a refused call leaves nothing in the caches
    field._coeff_scales.cache_clear()
    basis.sobolev_weights.cache_clear()
    for cutoff in ((8, 17), (17, 8)):
        with pytest.raises(KeyError, match=r"outside table \(16, 16\)"):
            expected_norm_sq(1.0, cutoff, small_table)
        with pytest.raises(KeyError, match=r"outside table \(16, 16\)"):
            tightness_bound(2.5, cutoff, small_table, constant=0.2)
        with pytest.raises(KeyError, match=r"outside table \(16, 16\)"):
            sample_h(cutoff, 0, small_table)
    with pytest.raises(KeyError, match=r"outside table \(16, 16\)"):
        sobolev_norm(np.ones((3, 17), dtype=complex), -1.0, small_table)
    assert field._coeff_scales.cache_info().currsize == 0
    assert basis.sobolev_weights.cache_info().currsize == 0


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
    # each used to return nan for s = nan and 0.0 for s = inf; the refusal
    # comes before the weights are cached
    basis.sobolev_weights.cache_clear()
    with pytest.raises(ValueError, match="finite"):
        field_norm_sq(sample_h((3, 3), 1, small_table), s, small_table)
    with pytest.raises(ValueError, match="finite"):
        expected_norm_sq(s, (3, 3), small_table)
    assert basis.sobolev_weights.cache_info().currsize == 0


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


def test_covariance_mc_on_the_diagonal_raises_the_singularity_error(small_table):
    # the library's error for a kernel evaluated at z = w, as the Green's
    # series and log|z - w| raise it; -0 is the same point as +0
    with pytest.raises(SingularityError, match="distinct points"):
        covariance_mc(0.3, complex(0.3, -0.0), (4, 4), 10, 0, small_table)


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


@pytest.mark.parametrize("cutoff", [(8, 8), (32, 32), (64, 64)])
@pytest.mark.parametrize("z, w", [(0.3, -0.4), (0.5j, 0.2 + 0.1j), (0.9, -0.95j)])
def test_truncated_covariance_is_the_dirichlet_part_plus_the_harmonic_part(table, cutoff, z, w):
    # E h(z) h(w) = -pi G_D(z, w) + sum_{n>=1} (2 pi / n) Re[S_n(z) conj S_n(w)]
    # at the cutoff, with S_n = sum_k e_{n,k} / j_{n,k}
    n_max, k_max = cutoff
    E = eval_matrix(np.array([z, w], dtype=complex), n_max, k_max, table)
    S = (E[:, 1:, :] / table.roots[1 : n_max + 1, :k_max]).sum(axis=2)
    n = np.arange(1, n_max + 1)
    harmonic = float(np.sum(2.0 * math.pi / n * np.real(S[0] * np.conj(S[1]))))
    dirichlet = -math.pi * green_dirichlet_series(z, w, table, n_max, k_max)
    got = field.truncated_covariance(z, w, cutoff, table)[0, 1]
    assert abs(got - (dirichlet + harmonic)) <= 1e-13


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
    direct = float(np.sum(np.log(np.abs(z - spec))))
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


@pytest.mark.parametrize("bad", [(0, 0), (3, 0), (17, 1), (2, 17)])
def test_tightness_statistic_refuses_an_index_outside_the_table(bad, small_table):
    # k = 0 would read the last column of the weight window, and an index
    # past the 16 x 16 table a window the table does not hold
    idx = ((0, 1), bad)
    runs = [GammaSample(idx, np.ones(2, dtype=complex), 16, 0)]
    with pytest.raises(KeyError, match="outside table"):
        tightness_statistic(runs, 2.5, small_table)


def test_the_exact_means_stay_below_the_limit_law_below_s_prime_2(table):
    # the free field lies in H^{-s} for every s > 0, below the s' > 2 that
    # tightness_statistic takes: on the 32 x 32 window the exact mean
    # sum mult j^{-2s} Var_N gamma stays below E ||h||^2_{H^{-s}} of the limit
    # and rises towards it with N
    sizes = [64, 256, 1024]
    rows = variance_bound_check(range(33), range(1, 33), sizes, table)["entries"]
    var = np.array([r["variance"] for r in rows]).reshape(len(sizes), 33, 32)
    for s in (0.25, 0.5, 1.0, 2.0, 2.5):
        exact = np.sum(basis.sobolev_weights((32, 32), -s, table) * var, axis=(1, 2))
        ratio = exact / expected_norm_sq(s, (32, 32), table)
        assert np.all(ratio < 1.0) and np.all(np.diff(ratio) > 0.0), (s, ratio)


def test_tightness_statistic_equals_the_per_entry_sum(small_table):
    # a negative order weighs as its mirror, as RootTable.root reads it
    idx = ((0, 1), (2, 3), (1, 1), (0, 5), (7, 2), (-3, 2))
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
