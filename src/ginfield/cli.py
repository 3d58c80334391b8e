"""Command-line experiment runner.

One subcommand per verification experiment; every run writes a manifest
(config echo, package version, wall time), a machine-readable result JSON,
and CSV plot data into the output directory.  All randomness is driven by
the --seed flag; rerunning with the same configuration reproduces the
result files byte for byte.

Exit codes: 0 success, 1 experiment outside tolerance, 2 usage error,
3 internal numerical failure (an eigensolve or a root table that fails its
certificate).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .basis import DiskQuadrature, gram_matrix
from .bessel import RootBracketError, bessel_j, build_root_table, save_root_table
from .field import (
    covariance_mc,
    expected_norm_sq,
    field_norm_sq,
    sample_h,
    tightness_statistic,
)
from .ginibre import EigensolverError, sample_spectrum
from .linstats import (
    GammaSample,
    clt_experiment,
    decay_check,
    gamma,
    gamma_draws,
    limit_covariance_matrix,
    variance_bound_check,
)
from .logkernel import log_abs_reconstruct


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
        if self.workers < 1:
            raise UsageError("--workers must be positive")


def _load_config_file(path):
    """key=value configuration file; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _write_outputs(config, result, series, started):
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(config),
        "version": __version__,
        "wall_time_s": time.time() - started,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    payload = {"config": asdict(config), "result": result}
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
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    save_root_table(table, Path(cfg.out) / "roots.txt")
    residual = max(abs(bessel_j(n, v)) for n, k, v in rows)
    ok = residual < 1e-12
    return ok, {"max_residual": residual}, {"roots": (["n", "k", "j_nk"], rows)}


def _exp_verify_basis(cfg, table):
    quad = DiskQuadrature.build(radial_order=160, angular_order=4 * cfg.n_max + 16)
    indices = [
        (n, k)
        for n in range(-cfg.n_max, cfg.n_max + 1)
        for k in range(1, cfg.k_max + 1)
    ]
    G = gram_matrix(indices, quad, table)
    dev = float(np.abs(G - np.eye(len(indices))).max())
    rows = [
        [n1, k1, n2, k2, G[a, b].real, G[a, b].imag]
        for a, (n1, k1) in enumerate(indices)
        for b, (n2, k2) in enumerate(indices)
        if a <= b and abs(G[a, b] - (1.0 if a == b else 0.0)) > 1e-12
    ]
    ok = dev < 1e-8
    return ok, {"max_gram_deviation": dev}, {"gram_outliers": (
        ["n1", "k1", "n2", "k2", "re", "im"], rows)}


def _exp_reconstruct_log(cfg, table):
    z_in, w_in = 0.0, 0.5
    z_out, w_out = 0.3, 2.0
    cutoffs = [20, 30, 40, 50, min(60, table.n_max)]
    rows = []
    for c in cutoffs:
        err = abs(log_abs_reconstruct(z_in, w_in, table, c, c) - math.log(0.5))
        rows.append([c, err])
    ext_err = abs(log_abs_reconstruct(z_out, w_out, table) - math.log(1.7))
    errors = [r[1] for r in rows]
    ok = errors[-1] < 2e-2 and all(
        errors[i + 1] < errors[i] for i in range(len(errors) - 1)
    ) and ext_err < 1e-6
    return ok, {
        "interior_errors": dict(zip(map(str, cutoffs), errors)),
        "exterior_error": ext_err,
    }, {"reconstruction": (["cutoff", "interior_error"], rows)}


def _exp_ginibre_sample(cfg, table):
    rows = []
    samples = []
    for i in range(cfg.draws):
        sp = sample_spectrum(cfg.n_size, cfg.seed, draw_index=i)
        samples.append(json.loads(sp.to_json()))
        rows.extend([[i, z.real, z.imag] for z in sp.eigenvalues])
    inside = sum(
        1
        for _, re, im in rows
        if re * re + im * im < 0.64
    ) / len(rows)
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    (Path(cfg.out) / "spectra.json").write_text(json.dumps(samples, sort_keys=True))
    return True, {"fraction_inside_r0.8": inside}, {
        "eigenvalues": (["draw", "re", "im"], rows)
    }


def _exp_pair_variance(cfg, table):
    ns = list(range(0, cfg.n_max + 1))
    ks = list(range(1, cfg.k_max + 1))
    rep = variance_bound_check(ns, ks, [cfg.n_size], table)
    rows = [[r["n"], r["k"], r["N"], r["variance"], r["ratio"]] for r in rep["entries"]]
    return True, rep, {"pair_variance": (["n", "k", "N", "variance", "ratio"], rows)}


def _exp_clt(cfg, table):
    index_set = [(0, 1), (1, 1), (1, 2)]
    rep = clt_experiment(
        cfg.n_size, cfg.draws, index_set, cfg.seed, table, workers=cfg.workers
    )
    limit = limit_covariance_matrix(index_set, table)
    emp = np.array([[complex(a, b) for a, b in row] for row in rep["empirical_cov"]])
    dev = np.abs(np.diag(emp) - np.diag(limit))
    ok = bool(np.all(dev <= 5.0 * np.array(rep["se_var"]))) and all(
        v["pvalue"] > 1e-3 for v in rep["ks"].values()
    )
    rows = [
        [n, k, emp[i, i].real, limit[i, i].real, rep["se_var"][i]]
        for i, (n, k) in enumerate(index_set)
    ]
    return ok, rep, {"clt_variances": (["n", "k", "empirical", "limit", "se"], rows)}


def _exp_field_covariance(cfg, table):
    z, w = 0.3, -0.4
    est = covariance_mc(z, w, (cfg.n_max, cfg.k_max), cfg.draws, cfg.seed, table)
    target = -0.5 * math.log(abs(z - w))
    ok = abs(est - target) < 4.0 * math.sqrt(6.0 / cfg.draws) + 2e-2
    return ok, {"estimate": est, "target": target}, {
        "covariance": (["z", "w", "estimate", "target"], [[z, w, est, target]])
    }


def _exp_sobolev_tightness(cfg, table):
    sizes = [16, 64, 256]
    index_set = [
        (n, k) for n in range(cfg.n_max + 1) for k in range(1, cfg.k_max + 1)
    ]
    stats_by_n = {}
    rows = []
    for N in sizes:
        G = gamma_draws(N, cfg.draws, index_set, cfg.seed, table, workers=cfg.workers)
        runs = [GammaSample(tuple(index_set), g, N, cfg.seed) for g in G]
        stat = tightness_statistic(runs, cfg.sobolev_s, table)
        stats_by_n[str(N)] = stat
        rows.append([N, stat])
    vals = [stats_by_n[str(N)] for N in sizes]
    ok = vals[-1] < 2.0 * vals[0] + 1e-9  # no growth trend
    return ok, {"statistic_by_N": stats_by_n, "s_prime": cfg.sobolev_s}, {
        "tightness": (["N", "statistic"], rows)
    }


def _exp_decay_check(cfg, table):
    cases = [(32, 16), (64, 32)]
    rep = decay_check(cases, [1, 2, 3, 4], table)
    rows = [[r["n"], r["k"], r["N"], r["variance"], r["scaled"]] for r in rep["entries"]]
    return True, rep, {"decay": (["n", "k", "N", "variance", "scaled"], rows)}


_EXPERIMENTS = {
    "roots": (_exp_roots, "tabulate certified Bessel roots"),
    "verify-basis": (_exp_verify_basis, "orthonormality of the disk eigenbasis"),
    "reconstruct-log": (_exp_reconstruct_log, "log-kernel expansion vs closed form"),
    "ginibre-sample": (_exp_ginibre_sample, "draw and store Ginibre spectra"),
    "pair-variance": (_exp_pair_variance, "exact variance of log-kernel statistics"),
    "clt": (_exp_clt, "Monte-Carlo CLT check against the limit law"),
    "field-covariance": (_exp_field_covariance, "limit-field covariance kernel"),
    "sobolev-tightness": (_exp_sobolev_tightness, "norm boundedness across sizes"),
    "decay-check": (_exp_decay_check, "high-order variance decay"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ginfield", description="Ginibre / log-kernel numerical laboratory"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment")
    for name, (_, help_text) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--n-size", "--N", dest="n_size", type=int)
        p.add_argument("--draws", "--M", dest="draws", type=int)
        p.add_argument("--n-max", type=int)
        p.add_argument("--k-max", type=int)
        p.add_argument("--sobolev-s", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--out", type=str)
    return parser


def config_from_args(args):
    values = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for key in ("n_size", "draws", "n_max", "k_max", "sobolev_s", "seed",
                "workers", "out"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    cfg = ExperimentConfig(experiment=args.experiment)
    for key, val in values.items():
        if not hasattr(cfg, key):
            raise UsageError(f"unknown config key {key!r}")
        target_type = type(getattr(cfg, key))
        try:
            setattr(cfg, key, target_type(val))
        except ValueError:
            raise UsageError(
                f"config key {key!r} needs a {target_type.__name__}, got {val!r}"
            ) from None
    cfg.validate()
    return cfg


def run(cfg):
    """Run one experiment; returns the process exit status."""
    started = time.time()
    fn, _ = _EXPERIMENTS[cfg.experiment]
    # root table large enough for the experiment's fixed reference points
    # (reconstruction cutoffs, high-order decay cases) and the config cutoffs
    table_n = max(cfg.n_max, 64)
    table_k = max(cfg.k_max, 64 if cfg.experiment in
                  ("reconstruct-log", "field-covariance") else 8)
    table = build_root_table(table_n, table_k)
    ok, result, series = fn(cfg, table)
    result = {"passed": bool(ok), **result}
    _write_outputs(cfg, result, series, started)
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
    except (EigensolverError, RootBracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
