"""The limiting Gaussian field on the disk, its truncated samples, and the
finite-N log-characteristic-polynomial field as a coefficient vector.

The field is represented only through basis coefficients; pointwise values
are always relative to an explicit cutoff, since the limit object is a
distribution, not a function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import CoeffVector, radial_profile, sobolev_norm
from .ginibre import SpectrumSample
from .linstats import gamma


@dataclass(frozen=True)
class FieldSample:
    """One truncated draw of a real field: conjugate-symmetric coefficients
    over |n| <= n_max, k <= k_max."""

    coeffs: CoeffVector
    cutoff: tuple
    seed: int

    def to_json_obj(self):
        return {
            "cutoff": list(self.cutoff),
            "seed": self.seed,
            "coeffs": json.loads(self.coeffs.to_json()),
        }

    @classmethod
    def from_json_obj(cls, obj):
        return cls(
            coeffs=CoeffVector.from_json(json.dumps(obj["coeffs"]), real_field=True),
            cutoff=tuple(obj["cutoff"]),
            seed=obj["seed"],
        )


def _coeff_arrays(rng, n_max, k_max, table, batch=None):
    """Sampled coefficient arrays of the limit field.

    Returns (a0, an): a0 has the real coefficients at (0, k); an[n-1, k-1]
    holds the coefficient at (+n, k) for n >= 1, with the coefficient at
    (-n, k) given by conjugation.  With batch set, a leading batch axis is
    prepended to both.
    """
    shape0 = (k_max,) if batch is None else (batch, k_max)
    shape = (n_max, k_max) if batch is None else (batch, n_max, k_max)
    shapew = (n_max,) if batch is None else (batch, n_max)
    A = rng.standard_normal(shape0)
    Z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    W = (rng.standard_normal(shapew) + 1j * rng.standard_normal(shapew)) / math.sqrt(2)
    j0 = table.roots[0, :k_max]
    jn = table.roots[1 : n_max + 1, :k_max]
    ns = np.arange(1, n_max + 1)
    rt = math.sqrt(math.pi)
    a0 = rt * A / j0
    an = rt * (Z + W[..., :, None] / np.sqrt(ns)[:, None]) / jn
    return a0, an


def sample_h(cutoff, seed, table):
    """One truncated sample of the limit field as a FieldSample."""
    n_max, k_max = cutoff
    if n_max < 1 or k_max < 1:
        raise ValueError("cutoffs must be >= 1")
    rng = np.random.default_rng(seed)
    a0, an = _coeff_arrays(rng, n_max, k_max, table)
    entries = {}
    for k in range(1, k_max + 1):
        entries[(0, k)] = complex(a0[k - 1])
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            v = complex(an[n - 1, k - 1])
            entries[(n, k)] = v
            entries[(-n, k)] = np.conj(v)
    return FieldSample(
        coeffs=CoeffVector(entries, real_field=True), cutoff=(n_max, k_max), seed=seed
    )


def expected_norm_sq(s, cutoff, table):
    """E of the squared H^{-s} norm of the truncated field:
    pi sum_k j_{0,k}^{-2-2s} + 2 pi sum_{n,k>=1} (1 + 1/n) j_{n,k}^{-2-2s}."""
    if s <= 0:
        raise ValueError("requires s > 0")
    n_max, k_max = cutoff
    j0 = table.roots[0, :k_max]
    jn = table.roots[1 : n_max + 1, :k_max]
    ns = np.arange(1, n_max + 1)
    total = math.pi * float(np.sum(j0 ** (-2.0 - 2.0 * s)))
    total += 2.0 * math.pi * float(
        np.sum((1.0 + 1.0 / ns)[:, None] * jn ** (-2.0 - 2.0 * s))
    )
    return total


def field_norm_sq(sample, s, table):
    """Squared H^{-s} norm of one truncated sample."""
    return sobolev_norm(sample.coeffs, -s, table)


def _eval_matrix(points, n_max, k_max, table):
    """(len(points), n_max + 1, k_max) values of the radial-normalized
    basis functions with phase, for fast batched field evaluation."""
    points = np.asarray(points, dtype=complex)
    out = np.empty((len(points), n_max + 1, k_max), dtype=complex)
    r = np.abs(points)
    th = np.angle(points)
    ks = np.arange(1, k_max + 1)
    for n in range(n_max + 1):
        radial = radial_profile(n, ks, r[:, None], table)
        out[:, n, :] = radial * np.exp(1j * n * th)[:, None]
    return out


def covariance_mc(z, w, cutoff, draws, seed, table, batch=1024):
    """Monte-Carlo estimate of E h(z) h(w) at a fixed cutoff.

    The field is evaluated by summing coefficients times basis functions;
    samples come in deterministic batches from a single seeded generator.
    """
    z = complex(z)
    w = complex(w)
    if z == w:
        raise ValueError("use distinct points; the diagonal diverges with cutoff")
    n_max, k_max = cutoff
    E = _eval_matrix([z, w], n_max, k_max, table)
    rng = np.random.default_rng(seed)
    ns = np.arange(1, n_max + 1)
    acc = 0.0
    done = 0
    while done < draws:
        b = min(batch, draws - done)
        a0, an = _coeff_arrays(rng, n_max, k_max, table, batch=b)
        # h(p) = sum_k a0_k e_{0,k}(p) + 2 Re sum_{n,k} a_{n,k} e_{n,k}(p)
        h = np.real(np.einsum("bk,pk->bp", a0.astype(complex), E[:, 0, :]))
        h += 2.0 * np.real(np.einsum("bnk,pnk->bp", an, E[:, 1:, :]))
        acc += float(np.sum(h[:, 0] * h[:, 1]))
        done += b
    return acc / draws


def h_N_coeffs(sample: SpectrumSample, cutoff, table):
    """Coefficients of the centered log-characteristic-polynomial field of
    one spectrum draw: entry (n, k) is gamma_{n,k}^(N)."""
    n_max, k_max = cutoff
    index_set = [(n, k) for n in range(n_max + 1) for k in range(1, k_max + 1)]
    gs = gamma(sample, index_set, table)
    entries = {}
    for (n, k) in index_set:
        v = gs.value(n, k)
        if n == 0:
            entries[(0, k)] = complex(v.real)
        else:
            entries[(n, k)] = v
            entries[(-n, k)] = np.conj(v)
    return FieldSample(
        coeffs=CoeffVector(entries, real_field=True),
        cutoff=(n_max, k_max),
        seed=sample.seed,
    )


def tightness_statistic(runs, s_prime, table):
    """Empirical mean of the squared H^{-s'} norm over GammaSample runs.

    Counts negative orders through conjugation symmetry.  Used to verify
    that the norm stays bounded as the matrix size grows (s' > 2).
    """
    if s_prime <= 2:
        raise ValueError("tightness regime requires s' > 2")
    if not runs:
        raise ValueError("need at least one run")
    totals = []
    for run in runs:
        total = 0.0
        for (n, k), v in zip(run.index_set, run.values):
            j = table.root(n, k)
            mult = 1.0 if n == 0 else 2.0
            total += mult * abs(v) ** 2 * j ** (-2.0 * s_prime)
        totals.append(total)
    return float(np.mean(totals))


def tightness_bound(s_prime, cutoff, table, constant):
    """Reference bound constant * sum over the index window of j^{2 - 2s'}."""
    n_max, k_max = cutoff
    total = 0.0
    for n in range(-n_max, n_max + 1):
        js = table.roots[abs(n), :k_max]
        total += float(np.sum(js ** (2.0 - 2.0 * s_prime)))
    return constant * total
