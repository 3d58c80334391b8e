"""Tests of the limit field sampler, its norms, the covariance estimator,
and the finite-N field coefficients."""

import math

import numpy as np
import pytest

from ginfield.basis import sobolev_norm
from ginfield.field import (
    FieldSample,
    covariance_mc,
    expected_norm_sq,
    field_norm_sq,
    h_N_coeffs,
    sample_h,
    tightness_bound,
    tightness_statistic,
)
from ginfield.ginibre import sample_spectrum
from ginfield.linstats import GammaSample, gamma, gamma_draws


def test_sample_h_structure(small_table):
    s = sample_h((4, 5), 0, small_table)
    assert s.cutoff == (4, 5)
    assert s.coeffs.real_field
    v = s.coeffs.get(3, 2)
    assert s.coeffs.get(-3, 2) == np.conj(v)
    assert s.coeffs.get(0, 1).imag == 0.0
    with pytest.raises(ValueError):
        sample_h((0, 5), 0, small_table)


def test_sample_h_deterministic(small_table):
    a = sample_h((3, 3), 9, small_table)
    b = sample_h((3, 3), 9, small_table)
    assert a.coeffs.entries == b.coeffs.entries
    c = sample_h((3, 3), 10, small_table)
    assert a.coeffs.entries != c.coeffs.entries


def test_field_sample_json_roundtrip(small_table):
    s = sample_h((2, 2), 4, small_table)
    t = FieldSample.from_json_obj(s.to_json_obj())
    assert t.cutoff == (2, 2) and t.seed == 4
    for idx, v in s.coeffs.entries.items():
        assert abs(t.coeffs.get(*idx) - v) < 1e-15


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


def test_h_N_coeffs_match_gamma(small_table):
    spec = sample_spectrum(16, 21)
    fs = h_N_coeffs(spec, (3, 3), small_table)
    g = gamma(spec, [(2, 3)], small_table)
    assert abs(fs.coeffs.get(2, 3) - g.value(2, 3)) < 1e-12
    assert fs.coeffs.get(-2, 3) == np.conj(fs.coeffs.get(2, 3))
    assert fs.coeffs.get(0, 1).imag == 0.0


def test_h_N_field_evaluates_near_log_statistic(small_table):
    # sum log|z - z_i| centered should be tracked by the truncated field
    spec = sample_spectrum(64, 7)
    fs = h_N_coeffs(spec, (16, 16), small_table)
    z = 0.2
    val = float(np.real(fs.coeffs.evaluate(z, small_table)))
    direct = float(np.sum(np.log(np.abs(z - spec.eigenvalues))))
    # compare after removing the deterministic centering part
    from ginfield.linstats import centering_term
    from ginfield.basis import eval_eigenfunction

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
