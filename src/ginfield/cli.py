"""Command-line experiment runner.

One subcommand per verification experiment, whose _exp_* function computes
its whole report (clt's from linstats.gamma_draws, the limit law and the
exact variances).  Each returns its data, and _write_outputs alone writes
it into the output directory: a manifest (config echo, files written,
root-table time where a table is built, version, wall time), a
machine-readable result JSON, and one CSV per dataset.  All randomness is
driven by the --seed flag; rerunning with the same configuration
reproduces the result files byte for byte.

Exit codes: 0 success, 1 experiment outside tolerance, 2 usage error,
3 internal numerical failure (an eigensolve, a root table, a radial
interpolant or an exact variance that fails its certificate).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy import special

from . import __version__
from .basis import gram_blocks
from .bessel import RootBracketError, build_root_table
from .field import covariance_mc, expected_norm_sq, tightness_statistic, truncated_covariance
from .ginibre import EigensolverError, VarianceError, radial_pair_variance, sample_spectrum
from .linstats import (
    DECAY_CPRIME_MAX,
    SHARP_RATIO_MAX,
    VARIANCE_C_MAX,
    GammaSample,
    decay_check,
    gamma_draws,
    limit_covariance_matrix,
    variance_bound_check,
)
from .logkernel import InterpolantError, log_abs_reconstruct


class UsageError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Fully explicit run configuration; the seed is mandatory with a fixed
    default so no run ever depends on ambient entropy."""

    experiment: str
    n_size: int = 64
    draws: int = 1000
    n_max: int = 8
    k_max: int = 8
    sobolev_s: float = 2.5
    seed: int = 0
    workers: int = 1
    out: str = "results"

    def validate(self):
        if self.n_size < 1:
            raise UsageError("--n-size must be positive")
        if self.draws < 1:
            raise UsageError("--draws must be positive")
        if self.n_max < 1 or self.k_max < 1:
            raise UsageError("index cutoffs must be positive")
        cores = len(os.sched_getaffinity(0))  # the pool forks every worker at once
        if not 1 <= self.workers <= cores:
            raise UsageError(f"--workers must be from 1 to the {cores} usable cores")
        if self.seed < 0:
            raise UsageError("--seed must be non-negative")


def _load_config_file(path):
    """key=value configuration file; '#' starts a comment."""
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _write_outputs(config, result, series, started, timings):
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = {key: getattr(config, key) for key in ("experiment", *_keys(config.experiment))}
    manifest = {
        "config": echo,
        "outputs": sorted(["manifest.json", "result.json", *(f"{n}.csv" for n in series)]),
        "timings": timings,
        "version": __version__,
        "wall_time_s": time.time() - started,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    payload = {"config": echo, "result": result}
    (out / "result.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    for name, (header, rows) in series.items():
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _exp_roots(cfg, table):
    rows = [
        [n, k, table.roots[n, k - 1]]
        for n in range(table.n_max + 1)
        for k in range(1, table.k_max + 1)
    ]
    ns = np.arange(table.n_max + 1)[:, None]
    residual = float(np.abs(special.jv(ns, table.roots)).max())
    # build_root_table certified the residual; scipy's per-order zeros are
    # an independent route to the roots themselves
    ref = np.array([special.jn_zeros(n, table.k_max) for n in range(table.n_max + 1)])
    deviation = float(np.abs(table.roots - ref).max())
    return deviation <= 1e-10, {
        "max_deviation_from_jn_zeros": deviation,
        "max_residual": residual,
    }, {"roots": (["n", "k", "j_nk"], rows)}


def _exp_verify_basis(cfg, table):
    # one block per order n >= 0, which order -n shares; entries across
    # orders are exactly 0
    G = gram_blocks(cfg.n_max, cfg.k_max, table)
    D = G - np.eye(cfg.k_max)
    rows = [
        [n, k1 + 1, n, k2 + 1, G[abs(n), k1, k2]]
        for n in range(-cfg.n_max, cfg.n_max + 1)
        for k1, k2 in np.argwhere(np.triu(np.abs(D[abs(n)]) > 1e-12))
    ]
    dev = float(np.abs(D).max())
    return dev < 1e-8, {"max_gram_deviation": dev}, {"gram_outliers": (
        ["n1", "k1", "n2", "k2", "re"], rows)}


def _exp_reconstruct_log(cfg, table):
    z_in, w_in = 0.0, 0.5
    z_out, w_out = 0.3, 2.0
    cutoffs = [20, 30, 40, 50, 60]
    errors = [abs(log_abs_reconstruct(z_in, w_in, table, c, c) - math.log(0.5)) for c in cutoffs]
    ext_err = abs(log_abs_reconstruct(z_out, w_out, table) - math.log(1.7))
    ok = errors[-1] < 2e-2 and all(b < a for a, b in zip(errors, errors[1:])) and ext_err < 1e-6
    return ok, {
        "interior_errors": dict(zip(map(str, cutoffs), errors)),
        "exterior_error": ext_err,
    }, {"reconstruction": (["cutoff", "interior_error"], list(zip(cutoffs, errors)))}


def _exp_ginibre_sample(cfg, table):
    Z = np.array([sample_spectrum(cfg.n_size, cfg.seed, i).eigenvalues for i in range(cfg.draws)])
    rows = [[i, z.real, z.imag] for i, zs in enumerate(Z) for z in zs]
    inside = float(np.mean(Z.real**2 + Z.imag**2 < 0.64))
    # by Kostlan the count inside r = 0.8 is a sum of independent
    # Bernoulli(p_k), p_k = P(Gamma(k, 1) < 0.64 N) for k = 1 .. N
    N = cfg.n_size
    p = special.gammainc(np.arange(1, N + 1), 0.64 * N)
    mean = float(p.sum()) / N
    se = math.sqrt(float(np.sum(p * (1.0 - p))) / cfg.draws) / N
    return abs(inside - mean) <= 4.0 * se, {
        "fraction_inside_r0.8": inside,
        "kostlan_mean_inside_r0.8": mean,
        "kostlan_se_inside_r0.8": se,
    }, {"eigenvalues": (["draw", "re", "im"], rows)}


def _exp_pair_variance(cfg, table):
    ns = list(range(0, cfg.n_max + 1))
    ks = list(range(1, cfg.k_max + 1))
    rep = variance_bound_check(ns, ks, [cfg.n_size], table)
    # Var sum_i z_i = E|tr A|^2 = 1 checks the rule of the exact variances
    rep["identity_error"] = abs(radial_pair_variance(lambda r: r, -1, cfg.n_size) - 1.0)
    cols = ["n", "k", "N", "variance", "ratio", "sharp_ratio"]
    rows = [[r[c] for c in cols] for r in rep["entries"]]
    ok = (
        rep["identity_error"] <= 1e-6
        and rep["calibrated_C"] <= VARIANCE_C_MAX
        and rep["max_sharp_ratio"] <= SHARP_RATIO_MAX
    )
    return ok, rep, {"pair_variance": (cols, rows)}


def _exp_clt(cfg, table):
    if cfg.draws < 2:
        raise UsageError("clt needs --draws >= 2 for its variances and standard errors")
    # scipy.stats costs about 0.9 s and 44 MB to import, so only this
    # report pays for it
    from scipy import stats

    N, draws = cfg.n_size, cfg.draws
    index_set = ((0, 1), (1, 1), (1, 2))
    G = gamma_draws(N, draws, index_set, cfg.seed, table, workers=cfg.workers)
    mean = G.mean(axis=0)
    Gc = G - mean
    cov = (Gc.conj().T @ Gc) / (draws - 1)
    pseudo = (Gc.T @ Gc) / (draws - 1)
    limit = limit_covariance_matrix(index_set, table)
    # standard errors: of the mean from the marginal std, of each variance
    # from the Gaussian formula var(S^2) ~ 2 sigma^4 / (M - 1)
    var = np.real(np.diag(cov))
    se_var = np.sqrt(2.0 / (draws - 1)) * var
    # the exact finite-N variances from one call; its rows run over n, then k
    entries = variance_bound_check([0, 1], [1, 2], [N], table)["entries"]
    exact = {f"{r['n']}_{r['k']}": r["variance"] for r in entries if (r["n"], r["k"]) in index_set}
    exact_gap = var - np.array(list(exact.values()))
    # Kolmogorov-Smirnov of each part under the limit law; Im gamma_{0,k} = 0
    ks = {}
    for i, (n, k) in enumerate(index_set):
        sigma = math.sqrt(limit[i, i].real * (0.5 if n > 0 else 1.0))
        parts = {"re": G[:, i].real, "im": G[:, i].imag} if n > 0 else {"re": G[:, i].real}
        for part, x in parts.items():
            res = stats.kstest(x / sigma, "norm")
            ks[f"{part}_{n}_{k}"] = {"statistic": float(res.statistic), "pvalue": float(res.pvalue)}
    # each variance within 5 se of its limit and of its exact finite-N value
    ok = bool(
        np.all(np.abs(np.diag(cov) - np.diag(limit)) <= 5.0 * se_var)
        and np.all(np.abs(exact_gap) <= 5.0 * se_var)
    ) and all(v["pvalue"] > 1e-3 for v in ks.values())
    rep = {
        "N": N,
        "draws": draws,
        "seed": cfg.seed,
        "index_set": [list(i) for i in index_set],
        "empirical_mean": [[v.real, v.imag] for v in mean],
        "empirical_cov": [[[c.real, c.imag] for c in row] for row in cov],
        "empirical_pseudo_cov": [[[c.real, c.imag] for c in row] for row in pseudo],
        "limit_cov": [[[c.real, c.imag] for c in row] for row in limit],
        "se_mean": list(np.sqrt(var / draws)),
        "se_var": list(se_var),
        "ks": ks,
        "exact_pair_variance": exact,
        "exact_z": dict(zip(exact, (exact_gap / se_var).tolist())),
        # the measured 1/N law Var_N = Var_inf - pi / (8N) + o(1/N), a report only
        "predicted_finite_N_var": {
            f"{n}_{k}": limit[i, i].real - math.pi / (8 * N) for i, (n, k) in enumerate(index_set)
        },
    }
    rows = [
        [n, k, cov[i, i].real, limit[i, i].real, se_var[i]]
        for i, (n, k) in enumerate(index_set)
    ]
    return ok, rep, {"clt_variances": (["n", "k", "empirical", "limit", "se"], rows)}


def _exp_field_covariance(cfg, table):
    z, w = 0.3, -0.4
    cutoff = (cfg.n_max, cfg.k_max)
    est = covariance_mc(z, w, cutoff, cfg.draws, cfg.seed, table)
    C = truncated_covariance(z, w, cutoff, table)
    exact = float(C[0, 1])
    # the variance of one draw h(z) h(w) of a Gaussian pair
    se = math.sqrt(float(C[0, 0] * C[1, 1] + C[0, 1] ** 2) / cfg.draws)
    z_score = (est - exact) / se
    target = -0.5 * math.log(abs(z - w))
    ok = abs(est - target) < 4.0 * math.sqrt(6.0 / cfg.draws) + 2e-2 and abs(z_score) <= 4.0
    return ok, {
        "estimate": est,
        "exact_truncated": exact,
        "se": se,
        "target": target,
        "z_score": z_score,
    }, {
        "covariance": (["z", "w", "estimate", "target"], [[z, w, est, target]])
    }


def _exp_sobolev_tightness(cfg, table):
    if not 2 < cfg.sobolev_s < math.inf:
        raise UsageError("sobolev-tightness needs --sobolev-s > 2, the tightness regime")
    s, sizes = cfg.sobolev_s, [16, 64, 256]
    ns, ks = list(range(cfg.n_max + 1)), list(range(1, cfg.k_max + 1))
    index_set = [(n, k) for n in ns for k in ks]
    stats = []
    for N in sizes:
        G = gamma_draws(N, cfg.draws, index_set, cfg.seed, table, workers=cfg.workers)
        runs = [GammaSample(tuple(index_set), g, N, cfg.seed) for g in G]
        stats.append((N, tightness_statistic(runs, s, table)))
    # the exact mean of the statistic: sum of mult j^{-2s'} Var_N gamma
    exact = dict.fromkeys(map(str, sizes), 0.0)
    for r in variance_bound_check(ns, ks, sizes, table)["entries"]:
        mult = 1.0 if r["n"] == 0 else 2.0
        exact[str(r["N"])] += mult * table.root(r["n"], r["k"]) ** (-2.0 * s) * r["variance"]
    limit_sum = expected_norm_sq(s, (cfg.n_max, cfg.k_max), table)
    # no growth trend, and no exact mean above the limit law's
    ok = stats[-1][1] < 2.0 * stats[0][1] + 1e-9 and max(exact.values()) <= limit_sum
    by_n = {str(N): stat for N, stat in stats}
    return ok, {
        "statistic_by_N": by_n, "s_prime": s, "exact_by_N": exact, "limit_sum": limit_sum,
    }, {"tightness": (["N", "statistic"], stats)}


def _exp_decay_check(cfg, table):
    cases = [(32, 16), (64, 32)]
    rep = decay_check(cases, [1, 2, 3, 4], table)
    rows = [[r["n"], r["k"], r["N"], r["variance"], r["scaled"]] for r in rep["entries"]]
    ok = rep["calibrated_Cprime"] <= DECAY_CPRIME_MAX
    return ok, rep, {"decay": (["n", "k", "N", "variance", "scaled"], rows)}


# Per subcommand: its function, help text, the ExperimentConfig keys it
# reads, and its root table (n_max, k_max), None for the cutoffs it reads,
# or () for none; a fixed table holds the fixed indices of reconstruct-log
# (cutoffs up to 60), clt (j_{1,2}) and decay-check (orders up to 64).
_EXPERIMENTS = {
    "roots": (_exp_roots, "tabulate certified Bessel roots", ("n_max", "k_max"), None),
    "verify-basis": (_exp_verify_basis, "orthonormality of the disk eigenbasis",
                     ("n_max", "k_max"), None),
    "reconstruct-log": (_exp_reconstruct_log, "log-kernel expansion vs closed form",
                        (), (60, 60)),
    "ginibre-sample": (_exp_ginibre_sample, "draw and store Ginibre spectra",
                       ("n_size", "draws", "seed"), ()),
    "pair-variance": (_exp_pair_variance, "exact variance of log-kernel statistics",
                      ("n_size", "n_max", "k_max"), None),
    "clt": (_exp_clt, "Monte-Carlo CLT check against the limit law",
            ("n_size", "draws", "seed", "workers"), (1, 2)),
    "field-covariance": (_exp_field_covariance, "limit-field covariance kernel",
                         ("n_max", "k_max", "draws", "seed"), None),
    "sobolev-tightness": (_exp_sobolev_tightness, "norm boundedness across sizes",
                          ("n_max", "k_max", "draws", "seed", "workers", "sobolev_s"), None),
    "decay-check": (_exp_decay_check, "high-order variance decay", (), (64, 4)),
}

# One flag and config key per ExperimentConfig field bar the experiment,
# typed as the field's default; two fields keep a short spelling as well.
# A subcommand takes the keys its experiment reads, and --out.
_OPTIONS = {f.name: type(f.default) for f in fields(ExperimentConfig) if f.name != "experiment"}
_ALIASES = {"n_size": ("--N",), "draws": ("--M",)}


def _keys(experiment):
    return (*_EXPERIMENTS[experiment][2], "out")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ginfield", description="Ginibre / log-kernel numerical laboratory"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment")
    for name, (_, help_text, _, _) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key in _keys(name):
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, *_ALIASES.get(key, ()), dest=key, type=_OPTIONS[key])
    return parser


def config_from_args(args):
    # a config file may name no key the experiment does not read, and never
    # the experiment itself, which only the subcommand names
    values = _load_config_file(args.config) if args.config else {}
    keys = _keys(args.experiment)
    for key in keys:
        v = getattr(args, key)
        if v is not None:
            values[key] = v
    cfg = ExperimentConfig(experiment=args.experiment)
    for key, val in values.items():
        if key not in keys:
            raise UsageError(f"{args.experiment} reads no config key {key!r}")
        try:
            setattr(cfg, key, _OPTIONS[key](val))
        except ValueError:
            raise UsageError(
                f"config key {key!r} needs a {_OPTIONS[key].__name__}, got {val!r}"
            ) from None
    cfg.validate()
    return cfg


def run(cfg):
    """Run one experiment; returns the process exit status."""
    if any(p.exists() and not p.is_dir() for p in (Path(cfg.out), *Path(cfg.out).parents)):
        raise UsageError(f"--out {cfg.out!r} is not a directory")
    started = time.time()
    fn, _, _, size = _EXPERIMENTS[cfg.experiment]
    table, timings = None, {}
    if size != ():
        table_started = time.perf_counter()
        table = build_root_table(*(size or (cfg.n_max, cfg.k_max)))
        timings["bessel.build_root_table"] = time.perf_counter() - table_started
    ok, result, series = fn(cfg, table)
    result = {"passed": bool(ok), **result}
    _write_outputs(cfg, result, series, started, timings)
    print(f"{cfg.experiment}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.experiment:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EigensolverError, RootBracketError, InterpolantError, VarianceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
