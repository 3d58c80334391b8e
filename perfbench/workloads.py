"""The benchmark workloads.

Each workload makes its inputs from the benchmark seed as a list of chunks of
equal work.  A chunk runs through the public entry points that the workload's
CLI experiment uses (the untraced route), or as the same work composed from
lower-level public calls with a span around each call into a layer (the
traced route).  The checks compare the outputs of all chunks with an
independent route.  The work grows with ``seconds``, as more draws or more
chunks, through rates set so that one run measures about ``seconds`` on a
2-core x86-64 machine.  The work never depends on how fast a run goes, so a
seed and a length always give the same inputs and outputs.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from ginfield.basis import sobolev_norm
from ginfield.field import (
    covariance_mc,
    expected_norm_sq,
    field_norm_sq,
    sample_h,
    tightness_statistic,
)
from ginfield.ginibre import (
    EigensolverError,
    PlaneQuadrature,
    draw_seed,
    eigenvalues,
    pair_variance,
    sample_matrix,
)
from ginfield.linstats import (
    GammaSample,
    alpha_values,
    centering_term,
    decay_check,
    gamma_draws,
    limit_covariance,
    variance_bound_check,
)
from ginfield.logkernel import alpha_radial

# The 9 x 8 acceptance grid of (n, k) indices.
GRID = tuple((n, k) for n in range(9) for k in range(1, 9))
# Largest difference allowed between the traced and the untraced outputs.
ROUTE_TOL = 1e-12


@dataclass
class Verdict:
    """Outcome of the output checks of one run."""

    item_failures: int  # items that failed a check of their own
    ok: bool  # every workload-level check passed
    detail: dict = field(default_factory=dict)

    def failed(self, attempted):
        """Failed items; a failed workload-level check fails every item."""
        return attempted if not self.ok else min(self.item_failures, attempted)


def nproc():
    return len(os.sched_getaffinity(0))


def seeded_ints(seed, stream, count):
    """`count` nonnegative 63-bit integers from stream `stream` of `seed`."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    return [int(x) for x in rng.integers(0, 2**63 - 1, size=count)]


def seeded_order(rng, values):
    """The values in an order drawn from rng."""
    return [values[i] for i in rng.permutation(len(values))]


def check_root_table(table):
    """Residual certificate and agreement with scipy.special.jn_zeros, an
    independent root route.  Returns (ok, max residual, max deviation)."""
    ns = np.arange(table.n_max + 1)[:, None]
    residual = float(np.max(np.abs(special.jv(ns, table.roots))))
    ref = np.array([special.jn_zeros(n, table.k_max) for n in range(table.n_max + 1)])
    deviation = float(np.max(np.abs(ref - table.roots)))
    return residual < 1e-12 and deviation < 1e-10, residual, deviation


def percentile_ms(durations, q):
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""
    table_size = (64, 8)

    def inputs(self, seed, seconds):
        """The chunks of one run."""
        raise NotImplementedError

    def warmup(self):
        """A small chunk run untimed before the timed chunks."""
        raise NotImplementedError

    def items(self, chunk):
        raise NotImplementedError

    def run(self, chunk, table):
        raise NotImplementedError

    def traced(self, chunk, table, tracer):
        raise NotImplementedError

    def diff(self, a, b):
        """Largest absolute difference between two outputs of one chunk."""
        raise NotImplementedError

    def check(self, chunks, outputs, table):
        raise NotImplementedError

    def layer_metrics(self, chunks, outputs, tracer):
        return {}

    def extra(self, chunks, table, outputs, walls):
        """Further traced-run measurements, given the untraced outputs and
        wall times per chunk; returns (metrics, ok)."""
        return {}, True


# ---------------------------------------------------------------------------
# Monte-Carlo draws of gamma over the acceptance grid
# ---------------------------------------------------------------------------


class MonteCarlo(Workload):
    """gamma_draws over GRID at each matrix size in `sizes`.  A chunk makes
    one call per size, as the CLI does, with `chunk_draws` draws and a master
    seed of its own; one item is one draw.  `rate` is draws per measured
    second at each size."""

    def __init__(self, name, sizes, rate, chunk_draws):
        self.name = name
        self.sizes = sizes
        self.rate = rate
        self.chunk_draws = chunk_draws

    def inputs(self, seed, seconds):
        count = max(2, round(self.rate * seconds / self.chunk_draws))
        return [{"master_seed": s, "draws": {N: self.chunk_draws for N in self.sizes}}
                for s in seeded_ints(seed, 0, count)]

    def warmup(self):
        return {"master_seed": 0, "draws": {N: 1 for N in self.sizes}}

    def items(self, chunk):
        return sum(chunk["draws"].values())

    def run(self, chunk, table):
        seed = chunk["master_seed"]
        return {
            "gamma": {
                N: gamma_draws(N, M, GRID, seed, table, workers=1)
                for N, M in chunk["draws"].items()
            }
        }

    def traced(self, chunk, table, tracer):
        seed = chunk["master_seed"]
        out = {"gamma": {}, "trace_failures": 0}
        for N, M in chunk["draws"].items():
            with tracer.span("linstats.centering_term"):
                cent = [centering_term(n, k, N, table) for n, k in GRID]
            G = np.full((M, len(GRID)), np.nan, dtype=complex)
            for i in range(M):
                with tracer.span("bench.draw"):
                    A = tracer.call(
                        "ginibre.sample_matrix", sample_matrix, N, draw_seed(seed, i)
                    )
                    try:
                        s = tracer.call("ginibre.eigenvalues", eigenvalues, A, seed)
                    except EigensolverError:
                        out["trace_failures"] += 1
                        continue
                    with tracer.span("linstats.statistic"):
                        r = np.abs(s.eigenvalues)
                        phase = np.angle(s.eigenvalues)
                        for j, (n, k) in enumerate(GRID):
                            g = tracer.call(
                                "logkernel.alpha_radial", alpha_radial, n, k, r, table
                            )
                            G[i, j] = np.sum(g * np.exp(-1j * n * phase)) - cent[j]
            out["gamma"][N] = G
        return out

    def diff(self, a, b):
        return max(
            float(np.max(np.abs(a["gamma"][N] - b["gamma"][N]))) for N in a["gamma"]
        )

    @staticmethod
    def stacked(outputs, N):
        """The draws at size N of every chunk, one row per draw."""
        return np.vstack([out["gamma"][N] for out in outputs])

    def check(self, chunks, outputs, table):
        bad = sum(
            int(np.sum(~np.all(np.isfinite(self.stacked(outputs, N)), axis=1)))
            for N in self.sizes
        )
        return Verdict(item_failures=bad, ok=True)

    def layer_metrics(self, chunks, outputs, tracer):
        draws = sum(self.items(c) for c in chunks)
        points = sum(N * M for c in chunks for N, M in c["draws"].items()) * len(GRID)
        eig = tracer.durations("ginibre.eigenvalues")
        return {
            "ginibre.sample_matrix_ms_p50": percentile_ms(
                tracer.durations("ginibre.sample_matrix"), 50
            ),
            "ginibre.eigensolve_ms_p50": percentile_ms(eig, 50),
            "ginibre.eigensolve_ms_p90": percentile_ms(eig, 90),
            "ginibre.eigensolve_calls": len(eig),
            "ginibre.trace_check_failures": sum(o["trace_failures"] for o in outputs),
            "logkernel.alpha_radial_us_per_point": 1e6
            * sum(tracer.durations("logkernel.alpha_radial"))
            / points,
            "linstats.statistic_ms_per_draw": 1e3
            * sum(tracer.durations("linstats.statistic"))
            / draws,
            "linstats.centering_ms": 1e3
            * sum(tracer.durations("linstats.centering_term")),
        }


def gamma01_variance_check(G, table):
    """Variance of gamma_{0,1} within 5 standard errors of pi / j_{0,1}^2.

    The standard error sqrt(2 / (M - 1)) sigma^2 takes sigma^2 from the limit
    law, the hypothesis under test.  With the few dozen draws of one run, an
    empirical variance that comes out low would shrink its own band and fail
    correct runs.
    """
    M = G.shape[0]
    g = G[:, GRID.index((0, 1))]
    v_emp = float(np.mean(np.abs(g - g.mean()) ** 2)) * M / (M - 1)
    v_lim = limit_covariance((0, 1), (0, 1), table)[0].real
    se = math.sqrt(2.0 / (M - 1)) * v_lim
    return abs(v_emp - v_lim) < 5.0 * se, {"var_gamma01": v_emp, "limit": v_lim, "se": se}


class Clt(MonteCarlo):
    """The `clt` CLI shape at N = 256 (the acceptance `big_gamma` fixture)."""

    def check(self, chunks, outputs, table):
        verdict = super().check(chunks, outputs, table)
        for N in self.sizes:
            ok, detail = gamma01_variance_check(self.stacked(outputs, N), table)
            verdict.ok &= ok
            verdict.detail.update(detail)
        return verdict

    def extra(self, chunks, table, outputs, walls):
        """The first chunk again through the process pool with one worker
        per core; its draws must be bit-identical to the serial ones, and
        its time is compared with the untraced time of that chunk."""
        workers = nproc()
        chunk, serial = chunks[0], outputs[0]["gamma"]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        pooled = {
            N: gamma_draws(N, draws, GRID, chunk["master_seed"], table, workers=workers)
            for N, draws in chunk["draws"].items()
        }
        parallel_s = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        speedup = walls[0] / parallel_s
        return {
            "linstats.pool_speedup": speedup,
            "linstats.pool_efficiency": speedup / workers,
            "linstats.pool_children_cpu_s": (after.ru_utime - before.ru_utime)
            + (after.ru_stime - before.ru_stime),
        }, all(np.array_equal(pooled[N], serial[N]) for N in pooled)


def limit_tightness_sum(table, s_prime):
    """Limit-law value of the truncated H^{-s'} sum over GRID."""
    return sum(
        (1.0 if n == 0 else 2.0)
        * limit_covariance((n, k), (n, k), table)[0].real
        * table.root(n, k) ** (-2.0 * s_prime)
        for n, k in GRID
    )


class Tightness(MonteCarlo):
    """The `sobolev-tightness` CLI at N = 16 and 64 (acceptance criterion 9)."""

    s_prime = 2.5

    def _statistic(self, G, N, seed, table):
        runs = [GammaSample(GRID, G[i], N, seed) for i in range(len(G))]
        return tightness_statistic(runs, self.s_prime, table)

    def run(self, chunk, table):
        out = super().run(chunk, table)
        seed = chunk["master_seed"]
        out["tightness"] = {
            N: self._statistic(G, N, seed, table) for N, G in out["gamma"].items()
        }
        return out

    def traced(self, chunk, table, tracer):
        out = super().traced(chunk, table, tracer)
        seed = chunk["master_seed"]
        out["tightness"] = {
            N: tracer.call("field.tightness_statistic", self._statistic, G, N, seed, table)
            for N, G in out["gamma"].items()
        }
        return out

    def diff(self, a, b):
        return max(
            super().diff(a, b),
            max(abs(a["tightness"][N] - b["tightness"][N]) for N in a["tightness"]),
        )

    def check(self, chunks, outputs, table):
        """Each chunk's statistic must match a direct numpy sum, and their
        mean (the chunks are equal in size) stay below 1.2 x the limit-law
        sum."""
        verdict = super().check(chunks, outputs, table)
        limit = limit_tightness_sum(table, self.s_prime)
        weights = np.array(
            [(1.0 if n == 0 else 2.0) * table.root(n, k) ** (-2.0 * self.s_prime)
             for n, k in GRID]
        )
        for N in self.sizes:
            stats = [out["tightness"][N] for out in outputs]
            direct = [float(np.mean(np.abs(out["gamma"][N]) ** 2 @ weights)) for out in outputs]
            stat = float(np.mean(stats))
            verdict.ok &= stat < 1.2 * limit
            verdict.ok &= max(abs(a - b) for a, b in zip(stats, direct)) <= 1e-12 * limit
            verdict.detail[f"tightness_N{N}"] = stat
        verdict.detail["limit_sum"] = limit
        return verdict

    def layer_metrics(self, chunks, outputs, tracer):
        out = super().layer_metrics(chunks, outputs, tracer)
        out["field.tightness_statistic_ms"] = 1e3 * sum(
            tracer.durations("field.tightness_statistic")
        )
        return out


# ---------------------------------------------------------------------------
# Exact finite-N variances
# ---------------------------------------------------------------------------


def identity(z):
    return z


class ExactVariance(Workload):
    """The `pair-variance` and `decay-check` CLIs (acceptance criterion 5).
    One chunk is the bound grid at one radial index k plus one decay case,
    and eight chunks cover the criterion once; one item is one pair_variance
    call.  The cost of a chunk grows with k, so a run covers the criterion a
    whole number of times and every seed does the same work.  The work has
    no randomness: the seed only orders the chunks and the calls inside
    them."""

    name = "exact_variance"
    chunk_seconds = 1.25
    N_list = [8, 32]
    decay = [(case, k) for case in [(32, 16), (64, 32)] for k in [1, 2, 3, 4]]
    # Var(sum z_i) = E|tr A|^2 = 1 exactly, an independent check
    identity_N = [8, 16, 32, 64]

    def inputs(self, seed, seconds):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        passes = max(1, round(seconds / (8 * self.chunk_seconds)))
        chunks = []
        for _ in range(passes):
            for k, (case, dk) in zip(seeded_order(rng, list(range(1, 9))),
                                     seeded_order(rng, self.decay)):
                chunks.append({
                    "N": seeded_order(rng, self.N_list),
                    "n": seeded_order(rng, list(range(9))),
                    "k": [k],
                    "cases": [case],
                    "decay_k": [dk],
                })
        return chunks

    def warmup(self):
        return {"N": [8], "n": [0], "k": [1], "cases": [], "decay_k": []}

    def items(self, chunk):
        return len(chunk["N"]) * len(chunk["n"]) * len(chunk["k"]) + len(
            chunk["cases"]
        ) * len(chunk["decay_k"])

    def run(self, chunk, table):
        out = {}
        bound = variance_bound_check(chunk["n"], chunk["k"], chunk["N"], table)
        out.update({("bound", r["N"], r["n"], r["k"]): r["variance"] for r in bound["entries"]})
        if chunk["cases"]:
            decay = decay_check(chunk["cases"], chunk["decay_k"], table)
            out.update(
                {("decay", r["N"], r["n"], r["k"]): r["variance"] for r in decay["entries"]}
            )
        return out

    def traced(self, chunk, table, tracer):
        def alpha_fn(n, k):
            def f(z):
                return tracer.call("linstats.alpha_values", alpha_values, n, k, z, table)

            return f

        def variance(n, k, N, q):
            return tracer.call("ginibre.pair_variance", pair_variance, alpha_fn(n, k), N, q)

        out = {}
        for N in chunk["N"]:
            q = tracer.call("ginibre.plane_quadrature", PlaneQuadrature.build, N)
            for n in chunk["n"]:
                for k in chunk["k"]:
                    out[("bound", N, n, k)] = variance(n, k, N, q)
        for n, N in chunk["cases"]:
            q = tracer.call("ginibre.plane_quadrature", PlaneQuadrature.build, N)
            for k in chunk["decay_k"]:
                out[("decay", N, n, k)] = variance(n, k, N, q)
        return out

    def diff(self, a, b):
        return max(abs(a[key] - b[key]) for key in a)

    def check(self, chunks, outputs, table):
        bad = 0
        c_bound = c_decay = 0.0
        for out in outputs:
            for (kind, N, n, k), v in out.items():
                if not (math.isfinite(v) and v >= 0.0):
                    bad += 1
                    continue
                j = table.root(n, k)
                if kind == "bound":
                    c_bound = max(c_bound, v / j**2)
                else:
                    c_decay = max(c_decay, v * abs(n) * j**2)
        identity_error = max(abs(pair_variance(identity, N) - 1.0) for N in self.identity_N)
        ok = c_bound <= 0.2 and c_decay <= 6.0 and identity_error <= 1e-6
        return Verdict(
            item_failures=bad,
            ok=ok,
            detail={
                "calibrated_C": c_bound,
                "calibrated_Cprime": c_decay,
                "identity_error": identity_error,
            },
        )

    def layer_metrics(self, chunks, outputs, tracer):
        pv = tracer.durations("ginibre.pair_variance")
        return {
            "ginibre.plane_quadrature_ms": percentile_ms(
                tracer.durations("ginibre.plane_quadrature"), 50
            ),
            "ginibre.pair_variance_ms_p50": percentile_ms(pv, 50),
            "ginibre.pair_variance_ms_p90": percentile_ms(pv, 90),
            "ginibre.pair_variance_calls": len(pv),
            "ginibre.pair_variance_negative": sum(
                v < 0.0 for out in outputs for v in out.values()
            ),
        }


# ---------------------------------------------------------------------------
# The limit field
# ---------------------------------------------------------------------------


class LimitField(Workload):
    """The `field-covariance` CLI and acceptance criterion 8.  One chunk is 45
    field samples at cutoff (32, 32), each followed by its H^{-1} norm, and
    one block of covariance_mc draws at cutoff (64, 64).  One item is one
    field sample or one block."""

    name = "limit_field"
    table_size = (64, 64)
    cutoff = (32, 32)
    cov_cutoff = (64, 64)
    block = 1000
    points = (0.3, -0.4)
    samples_per_chunk = 45
    chunk_seconds = 0.8

    def inputs(self, seed, seconds):
        count = max(4, round(seconds / self.chunk_seconds))
        per = self.samples_per_chunk
        samples = seeded_ints(seed, 2, per * count)
        blocks = seeded_ints(seed, 3, count)
        return [
            {"sample_seeds": samples[c * per : (c + 1) * per], "block_seeds": [blocks[c]]}
            for c in range(count)
        ]

    def warmup(self):
        return {"sample_seeds": [0], "block_seeds": [0]}

    def items(self, chunk):
        return len(chunk["sample_seeds"]) + len(chunk["block_seeds"])

    def run(self, chunk, table):
        z, w = self.points
        return {
            "norms": np.array(
                [field_norm_sq(sample_h(self.cutoff, s, table), 1.0, table)
                 for s in chunk["sample_seeds"]]
            ),
            "covs": np.array(
                [covariance_mc(z, w, self.cov_cutoff, self.block, b, table)
                 for b in chunk["block_seeds"]]
            ),
        }

    def traced(self, chunk, table, tracer):
        z, w = self.points
        norms = []
        for s in chunk["sample_seeds"]:
            h = tracer.call("field.sample_h", sample_h, self.cutoff, s, table)
            norms.append(tracer.call("basis.sobolev_norm", sobolev_norm, h.coeffs, -1.0, table))
        covs = [
            tracer.call(
                "field.covariance_mc", covariance_mc, z, w, self.cov_cutoff, self.block, b, table
            )
            for b in chunk["block_seeds"]
        ]
        return {"norms": np.array(norms), "covs": np.array(covs)}

    def diff(self, a, b):
        return max(float(np.max(np.abs(a[key] - b[key]))) for key in ("norms", "covs"))

    def check(self, chunks, outputs, table):
        norms = np.concatenate([out["norms"] for out in outputs])
        covs = np.concatenate([out["covs"] for out in outputs])
        bad = int(np.sum(~(np.isfinite(norms) & (norms > 0.0))))
        bad += int(np.sum(~np.isfinite(covs)))
        expected = expected_norm_sq(1.0, self.cutoff, table)
        se = float(np.std(norms, ddof=1)) / math.sqrt(len(norms))
        z, w = self.points
        target = -0.5 * math.log(abs(z - w))
        se_c = float(np.std(covs, ddof=1)) / math.sqrt(len(covs))
        ok = abs(float(norms.mean()) - expected) < 4.0 * se
        ok &= abs(float(covs.mean()) - target) < 4.0 * se_c + 2e-2
        return Verdict(
            item_failures=bad,
            ok=bool(ok),
            detail={
                "norm_mean": float(norms.mean()),
                "norm_expected": expected,
                "norm_se": se,
                "cov_mean": float(covs.mean()),
                "cov_target": target,
                "cov_se": se_c,
            },
        )

    def layer_metrics(self, chunks, outputs, tracer):
        return {
            "field.sample_h_ms_p50": percentile_ms(tracer.durations("field.sample_h"), 50),
            "basis.sobolev_norm_ms_p50": percentile_ms(
                tracer.durations("basis.sobolev_norm"), 50
            ),
            "field.covariance_mc_ms_per_kdraw": percentile_ms(
                tracer.durations("field.covariance_mc"), 50
            )
            * 1000.0
            / self.block,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Clt("mc_n256", sizes=(256,), rate=5.0, chunk_draws=8),
        Tightness("mc_small_n", sizes=(16, 64), rate=40.0, chunk_draws=40),
        ExactVariance(),
        LimitField(),
    )
}
