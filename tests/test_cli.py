"""Tests of the command-line experiment runner."""

import argparse
import csv
import inspect
import json
import math
import os
import re
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ginfield import basis, bessel, cli, field, ginibre, linstats, logkernel
from ginfield.bessel import build_root_table
from ginfield.cli import (
    ExperimentConfig,
    UsageError,
    _load_config_file,
    build_parser,
    config_from_args,
    main,
)
from ginfield.ginibre import sample_spectrum
from oracles import gram_matrix, polar_rule


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a cold start; only the clt report needs it
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = "import sys, ginfield.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_bad_flag_value():
    assert main(["clt", "--n-size", "0"]) == 2
    assert main(["clt", "--draws", "-3"]) == 2


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n-size = 32  # comment\ndraws=10\n\n# full-line comment\nseed=7\n")
    vals = _load_config_file(p)
    assert vals == {"n_size": "32", "draws": "10", "seed": "7"}
    p.write_text("nonsense line\n")
    with pytest.raises(UsageError):
        _load_config_file(p)


def test_flags_override_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n-size=32\nseed=5\n")
    parser = build_parser()
    args = parser.parse_args(["clt", "--config", str(p), "--seed", "9"])
    cfg = config_from_args(args)
    assert cfg.n_size == 32 and cfg.seed == 9


def test_unknown_config_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("mystery=1\n")
    parser = build_parser()
    args = parser.parse_args(["clt", "--config", str(p)])
    with pytest.raises(UsageError):
        config_from_args(args)
    # a method of ExperimentConfig is no key; this used to end in a TypeError
    p.write_text("validate=1\n")
    with pytest.raises(UsageError):
        config_from_args(args)


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("n_size=abc\n")
    assert main(["clt", "--config", str(p)]) == 2
    assert "n_size" in capsys.readouterr().err


def _no_root_table(monkeypatch):
    def refuse(n_max, k_max):
        raise AssertionError("root table built before the usage check")

    monkeypatch.setattr(cli, "build_root_table", refuse)


@pytest.mark.parametrize("name", ["decay-check", "nosuch"])
def test_config_file_cannot_name_the_experiment(name, tmp_path, monkeypatch, capsys):
    # the file's experiment used to replace the subcommand (or end in a
    # KeyError traceback); it is refused before the root table is built
    _no_root_table(monkeypatch)
    p = tmp_path / "run.cfg"
    p.write_text(f"experiment = {name}\n")
    assert main(["roots", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "experiment" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_unreadable_config_file_is_usage_error(kind, tmp_path, monkeypatch, capsys):
    # this used to end in a FileNotFoundError, IsADirectoryError or
    # UnicodeDecodeError traceback with exit code 1
    _no_root_table(monkeypatch)
    p = tmp_path / "run.cfg"
    if kind == "directory":
        p.mkdir()
    elif kind == "undecodable":
        p.write_bytes(b"\xff\xfe n_size = 8\n")
    assert main(["roots", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_naming_a_file_is_usage_error(tmp_path, monkeypatch, capsys):
    # the whole experiment used to run before mkdir raised FileExistsError,
    # with a traceback and exit code 1; it is refused before the root table
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    _no_root_table(monkeypatch)
    for out in (taken, taken / "sub"):
        assert main(["roots", "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize(
    "name", ["clt", "sobolev-tightness", "field-covariance", "ginibre-sample"]
)
def test_negative_seed_is_usage_error(name, tmp_path, monkeypatch, capsys):
    # numpy's SeedSequence used to refuse it after the root table was built,
    # with a traceback and exit code 1; from a flag or from --config it is
    # refused before the root table
    _no_root_table(monkeypatch)
    p = tmp_path / "run.cfg"
    p.write_text("seed = -1\n")
    for args in (["--seed", "-1"], ["--config", str(p)]):
        assert main([name, *args, "--out", str(tmp_path / "o")]) == 2
        assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_experiment_alias_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["clt", "-e", "roots"])
    assert exc.value.code == 2


_FLAGS = {
    "n_size": (("--n-size", "--N"), int),
    "draws": (("--draws", "--M"), int),
    "n_max": (("--n-max",), int),
    "k_max": (("--k-max",), int),
    "sobolev_s": (("--sobolev-s",), float),
    "seed": (("--seed",), int),
    "workers": (("--workers",), int),
}
# The config keys each subcommand reads, besides out
_READS = {
    "roots": {"n_max", "k_max"},
    "verify-basis": {"n_max", "k_max"},
    "reconstruct-log": set(),
    "ginibre-sample": {"n_size", "draws", "seed"},
    "pair-variance": {"n_size", "n_max", "k_max"},
    "clt": {"n_size", "draws", "seed", "workers"},
    "field-covariance": {"n_max", "k_max", "draws", "seed"},
    "sobolev-tightness": {"n_max", "k_max", "draws", "seed", "workers", "sobolev_s"},
    "decay-check": set(),
}


def test_each_subcommand_takes_only_the_options_it_reads():
    # every subcommand used to take all eight config flags, 39 of the 72
    # slots read by nothing; pin each one's own options
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subs) == set(cli._EXPERIMENTS) == set(_READS)
    for name, p in subs.items():
        expected = {
            ("-h", "--help"): ("help", None),
            ("--config",): ("config", None),
            ("--out",): ("out", str),
            **{_FLAGS[key][0]: (key, _FLAGS[key][1]) for key in _READS[name]},
        }
        got = {tuple(a.option_strings): (a.dest, a.type) for a in p._actions}
        assert got == expected, name
    # flag slots: the config flags and --out of every subcommand
    assert sum(len(keys) + 1 for keys in _READS.values()) == 33


@pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
def test_each_experiment_reads_the_config_keys_it_declares(name):
    # a key declared but never read is a dead flag; a key read but not
    # declared reads its default, whatever the user asked for
    fn, _, keys, size = cli._EXPERIMENTS[name]
    read = set(re.findall(r"\bcfg\.(\w+)", inspect.getsource(fn)))
    cutoffs = {"n_max", "k_max"} if size is None else set()
    assert read | cutoffs == set(keys) == _READS[name]


@pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
def test_an_unread_flag_or_config_key_is_usage_error(name, tmp_path, monkeypatch, capsys):
    # decay-check --n-size 999 used to pass as plain decay-check, and
    # sobolev-tightness --n-size 1024 to echo the size it never ran
    _no_root_table(monkeypatch)
    key = next(k for k in _FLAGS if k not in _READS[name])
    out = ["--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main([name, _FLAGS[key][0][0], "3", *out])
    assert exc.value.code == 2
    capsys.readouterr()
    p = _write_config(tmp_path, [f"{key} = 3"])
    assert main([name, "--config", str(p), *out]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class _TableBuilt(Exception):
    pass


@pytest.mark.parametrize(
    "name, n_max, k_max",
    [
        ("roots", 8, 8),
        ("verify-basis", 8, 8),
        ("reconstruct-log", 60, 60),
        ("pair-variance", 8, 8),
        ("clt", 1, 2),
        ("field-covariance", 8, 8),
        ("sobolev-tightness", 8, 8),
        ("decay-check", 64, 4),
    ],
)
def test_each_experiment_builds_the_root_table_of_its_flags(
    name, n_max, k_max, tmp_path, monkeypatch
):
    # the table used to be at least 64 x 8 for every experiment (64 x 64
    # for two of them), whatever --n-max and --k-max asked for; an experiment
    # that reads no cutoffs builds the fixed table of its own indices
    asked = []

    def record(n, k):
        asked.append((n, k))
        raise _TableBuilt

    monkeypatch.setattr(cli, "build_root_table", record)
    with pytest.raises(_TableBuilt):
        main([name, "--out", str(tmp_path)])
    assert asked == [(n_max, k_max)]


def test_ginibre_sample_builds_no_root_table(tmp_path, monkeypatch):
    # it never read the 8 x 8 table it used to build, which only gave its
    # manifest a timing
    def refuse(n_max, k_max):
        raise AssertionError("ginibre-sample built a root table")

    monkeypatch.setattr(cli, "build_root_table", refuse)
    assert main(["ginibre-sample", "--n-size", "4", "--draws", "2", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["timings"] == {}


# Each subcommand at small flags, with the CSVs it writes.
_OUTPUT_CASES = [
    ("roots", ["--n-max", "2", "--k-max", "2"], ["roots"]),
    ("verify-basis", ["--n-max", "2", "--k-max", "2"], ["gram_outliers"]),
    ("reconstruct-log", [], ["reconstruction"]),
    ("ginibre-sample", ["--n-size", "4", "--draws", "2"], ["eigenvalues"]),
    ("pair-variance", ["--n-size", "8", "--n-max", "2", "--k-max", "2"], ["pair_variance"]),
    ("clt", ["--n-size", "4", "--draws", "20"], ["clt_variances"]),
    ("field-covariance", ["--draws", "100", "--n-max", "4", "--k-max", "4"], ["covariance"]),
    ("sobolev-tightness", ["--draws", "2", "--n-max", "2", "--k-max", "2"], ["tightness"]),
    ("decay-check", [], ["decay"]),
]


@pytest.mark.parametrize("name, flags, csvs", _OUTPUT_CASES)
def test_each_run_writes_its_manifest_result_and_csvs_only(name, flags, csvs, tmp_path):
    # roots used to write its table a second time as roots.txt, and
    # ginibre-sample its spectra a second time as spectra.json
    assert [case[0] for case in _OUTPUT_CASES] == list(cli._EXPERIMENTS)
    out = tmp_path / "o"
    # sobolev-tightness passes at two draws: its statistics are judged by the
    # limit law's se, not by a no-growth ratio of two heavy-tailed draws
    assert main([name, *flags, "--out", str(out)]) == 0
    expected = {"manifest.json", "result.json", *(f"{c}.csv" for c in csvs)}
    assert {p.name for p in out.iterdir()} == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(expected)
    # the config echo holds the experiment, --out and the keys it read
    echo = {"experiment", "out", *_READS[name]}
    assert set(manifest["config"]) == echo
    assert set(json.loads((out / "result.json").read_text())["config"]) == echo
    # ginibre-sample builds no root table, so it times none
    stages = [] if name == "ginibre-sample" else ["bessel.build_root_table"]
    assert list(manifest["timings"]) == stages
    assert all(t >= 0 for t in manifest["timings"].values())


@pytest.mark.parametrize("route", ["zhseqr", "eigvals"])
def test_manifest_records_the_eigensolver_route_and_versions(route, tmp_path, monkeypatch):
    # the environment goes to the manifest only: result.json holds config and result
    if route == "eigvals":
        monkeypatch.setattr(ginibre, "ZHSEQR", None)
    elif ginibre.ZHSEQR is None:
        route = "eigvals"  # a numpy whose OpenBLAS has no zhseqr
    assert main(["ginibre-sample", "--n-size", "4", "--draws", "2", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"config", "env", "outputs", "timings", "version", "wall_time_s"}
    assert manifest["env"] == {"eigensolver": route, "numpy": np.__version__, "scipy": scipy.__version__}
    assert set(json.loads((tmp_path / "result.json").read_text())) == {"config", "result"}


def test_manifest_lists_only_the_files_of_its_run(tmp_path):
    # a second run into the same directory leaves the first run's CSV in
    # place; its manifest must not claim it
    out = tmp_path / "d"
    assert main(["roots", "--out", str(out)]) == 0
    assert main(["reconstruct-log", "--out", str(out)]) == 0
    assert (out / "roots.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["manifest.json", "reconstruction.csv", "result.json"]


def test_config_validation():
    cfg = ExperimentConfig(experiment="clt", workers=0)
    with pytest.raises(UsageError):
        cfg.validate()


@pytest.mark.parametrize("extra", [1, 10**5])
@pytest.mark.parametrize("via_config", [False, True])
def test_more_workers_than_usable_cores_is_usage_error(
    extra, via_config, tmp_path, monkeypatch, capsys
):
    # the pool forks all its workers at its first submit, so --workers 100000
    # used to fork 100,000 processes; the refusal comes before the root table
    def refuse(*args, **kwargs):
        raise AssertionError("a pool or a root table was made before the usage check")

    monkeypatch.setattr(linstats, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(cli, "build_root_table", refuse)
    workers = str(len(os.sched_getaffinity(0)) + extra)
    args = ["clt", "--draws", "100000", "--out", str(tmp_path / "o")]
    if via_config:
        args += ["--config", str(_write_config(tmp_path, ["workers = " + workers]))]
    else:
        args += ["--workers", workers]
    assert main(args) == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_roots_experiment_outputs(tmp_path, capsys):
    code = main(
        ["roots", "--n-max", "4", "--k-max", "4", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert "roots: PASS" in capsys.readouterr().out
    out = tmp_path / "o"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "roots"
    result = json.loads((out / "result.json").read_text())
    assert result["result"]["passed"] is True
    assert result["result"]["max_residual"] < 1e-12
    assert result["result"]["max_deviation_from_jn_zeros"] <= 1e-10
    # exactly the 5 x 4 table the flags ask for, bit for bit
    assert len((out / "roots.csv").read_text().splitlines()) == 1 + 20
    rows = np.loadtxt(out / "roots.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, :2], [(n, k) for n in range(5) for k in range(1, 5)])
    assert np.array_equal(rows[:, 2].reshape(5, 4), build_root_table(4, 4).roots)


def test_verify_basis_experiment(tmp_path, capsys):
    code = main(
        [
            "verify-basis",
            "--n-max", "3",
            "--k-max", "3",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 0
    assert "verify-basis: PASS" in capsys.readouterr().out


def test_verify_basis_lists_the_outliers_of_the_2d_gram(tmp_path, monkeypatch, table):
    # on 16 radii the Gram misses I by up to 4.4e-8 at 3 x 4, past the 1e-8
    # bound, and the pairs past 1e-12, orders -3 to 3, are those the 2-D Gram
    # on the same radii lists; the nearest entry to the threshold is 1.27e-12
    rule = basis.radial_rule
    monkeypatch.setattr(basis, "radial_rule", lambda *panels: rule((0.0, 1.0, 16)))
    assert main(["verify-basis", "--n-max", "3", "--k-max", "4", "--out", str(tmp_path)]) == 1
    with open(tmp_path / "gram_outliers.csv") as f:
        header, *rows = list(csv.reader(f))
    # every block is real, so there is no imaginary column
    assert header == ["n1", "k1", "n2", "k2", "re"]
    assert all(len(row) == 5 for row in rows)
    listed = [tuple(map(int, row[:4])) for row in rows]
    indices = [(n, k) for n in range(-3, 4) for k in range(1, 5)]
    G = gram_matrix(indices, polar_rule(4 * 3 + 16, (0.0, 1.0, 16)), table)
    D = np.abs(G - np.eye(len(indices)))
    expected = [
        (*indices[a], *indices[b])
        for a in range(len(indices))
        for b in range(a, len(indices))
        if D[a, b] > 1e-12
    ]
    assert listed == expected
    assert len(listed) == 25 and min(row[0] for row in listed) == -3


def test_ginibre_sample_experiment(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "ginibre-sample",
            "--n-size", "8",
            "--draws", "3",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    csv_lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "draw,re,im"
    assert len(csv_lines) == 1 + 3 * 8
    # the CSV holds each seeded spectrum bit for bit, in draw order
    draw, re, im = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1).T
    assert np.array_equal(draw, np.repeat(np.arange(3), 8))
    for i, z in enumerate((re + 1j * im).reshape(3, 8)):
        assert np.array_equal(z, sample_spectrum(8, 1, draw_index=i))
    inside = sum(x * x + y * y < 0.64 for x, y in zip(re, im)) / len(re)
    result = json.loads((out / "result.json").read_text())["result"]
    assert result["fraction_inside_r0.8"] == inside


def test_ginibre_sample_fails_a_biased_sampler(tmp_path, monkeypatch, capsys):
    # spectra shrunk by 0.9 put about 0.79 of the eigenvalues inside r = 0.8,
    # where Kostlan's law puts 0.640 with a standard error of 0.0066
    def shrunk(N, master_seed, draw_index=0):
        return 0.9 * sample_spectrum(N, master_seed, draw_index)

    args = ["ginibre-sample", "--n-size", "64", "--draws", "20", "--out", str(tmp_path)]
    assert main(args) == 0
    monkeypatch.setattr(cli, "sample_spectrum", shrunk)
    assert main(args) == 1
    assert "ginibre-sample: FAIL" in capsys.readouterr().out
    result = json.loads((tmp_path / "result.json").read_text())["result"]
    assert result["passed"] is False
    assert result["fraction_inside_r0.8"] - result["kostlan_mean_inside_r0.8"] > (
        4.0 * result["kostlan_se_inside_r0.8"]
    )


def test_reproducibility_of_result_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            main(
                [
                    "ginibre-sample",
                    "--n-size", "6",
                    "--draws", "2",
                    "--seed", "3",
                    "--out", str(out),
                ]
            )
            == 0
        )
    # the config echo contains the differing output paths, so compare the
    # result payloads and the sample CSVs only
    ra = json.loads((a / "result.json").read_text())["result"]
    rb = json.loads((b / "result.json").read_text())["result"]
    assert ra == rb
    assert (a / "eigenvalues.csv").read_bytes() == (b / "eigenvalues.csv").read_bytes()


def test_field_covariance_experiment(tmp_path, capsys):
    code = main(
        [
            "field-covariance",
            "--n-max", "16",
            "--k-max", "16",
            "--draws", "2000",
            "--seed", "0",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 0
    result = json.loads((tmp_path / "o" / "result.json").read_text())["result"]
    assert abs(result["estimate"] - result["target"]) < 0.15
    assert result["z_score"] == (result["estimate"] - result["exact_truncated"]) / result["se"]
    assert abs(result["z_score"]) <= 4.0


def test_field_covariance_fails_an_estimate_far_from_the_exact_value(tmp_path, monkeypatch):
    # at (4, 4) with 20,000 draws the se is about 0.0097 and the band about
    # 0.089: an estimate 4.5 se off the exact truncated covariance passes the
    # band and fails the z-score
    table = build_root_table(4, 4)
    C = field.truncated_covariance(0.3, -0.4, (4, 4), table)
    se = math.sqrt((C[0, 0] * C[1, 1] + C[0, 1] ** 2) / 20000)
    off = float(C[0, 1]) + 4.5 * se
    assert abs(off - (-0.5 * math.log(0.7))) < 4.0 * math.sqrt(6.0 / 20000) + 2e-2
    monkeypatch.setattr(cli, "covariance_mc", lambda *args: off)
    args = ["--n-max", "4", "--k-max", "4", "--draws", "20000", "--out", str(tmp_path)]
    assert main(["field-covariance", *args]) == 1
    result = json.loads((tmp_path / "result.json").read_text())["result"]
    assert result["passed"] is False and abs(result["z_score"] - 4.5) < 1e-9


def test_eigensolver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # eigenvalues off by 1e-3 fail the trace certificate on the first draw
    solve = ginibre._hessenberg_eigvals
    monkeypatch.setattr(ginibre, "_hessenberg_eigvals", lambda A: solve(A) + 1e-3)
    code = main(["clt", "--n-size", "8", "--draws", "4", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_root_table_failure_exits_3(tmp_path, monkeypatch, capsys):
    newton_roots = bessel._newton_roots
    monkeypatch.setattr(bessel, "_newton_roots", lambda n, k: newton_roots(n, k) + 1e-6)
    code = main(["roots", "--n-max", "4", "--k-max", "4", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_roots_fail_when_a_root_strays_from_jn_zeros(tmp_path, monkeypatch, capsys):
    # the residual is certified inside build_root_table, so only an
    # independent route can fail the experiment: a root moved by 1e-9
    good = build_root_table(4, 4)
    roots = good.roots.copy()
    roots[2, 1] += 1e-9
    moved = bessel.RootTable(4, 4, roots, good.norms.copy())
    monkeypatch.setattr(cli, "build_root_table", lambda n_max, k_max: moved)
    assert main(["roots", "--n-max", "4", "--k-max", "4", "--out", str(tmp_path)]) == 1
    assert "roots: FAIL" in capsys.readouterr().out
    result = json.loads((tmp_path / "result.json").read_text())["result"]
    assert 1e-10 < result["max_deviation_from_jn_zeros"] < 2e-9


def test_interpolant_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a degree-4 fit misses the 1e-13 certificate of the radial interpolant
    monkeypatch.setattr(logkernel, "_PANEL_DEGREE", 4)
    logkernel._disk_panels.cache_clear()
    code = main(["clt", "--n-size", "4", "--draws", "2", "--out", str(tmp_path)])
    assert code == 3
    assert "interpolant" in capsys.readouterr().err


def test_variance_failure_exits_3(tmp_path, monkeypatch, capsys):
    # overlaps past the diagonal term leave a negative exact variance, which
    # used to end in a ValueError traceback with exit code 1
    monkeypatch.setattr(ginibre, "_overlaps", lambda R, d, C, wr: np.full((len(C), 1), math.inf))
    args = ["pair-variance", "--n-size", "8", "--n-max", "1", "--k-max", "1"]
    assert main([*args, "--out", str(tmp_path)]) == 3
    assert "off_sq/diag" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, check, key, bound",
    [
        ("pair-variance", "variance_bound_check", "calibrated_C", cli.VARIANCE_C_MAX),
        ("pair-variance", "variance_bound_check", "max_sharp_ratio", cli.SHARP_RATIO_MAX),
        ("decay-check", "decay_check", "calibrated_Cprime", cli.DECAY_CPRIME_MAX),
    ],
)
def test_criterion_5_constant_past_its_bound_fails(
    name, check, key, bound, tmp_path, monkeypatch, capsys
):
    # each experiment fails once its calibrated constant passes the bound
    real = getattr(cli, check)

    def reporting(value):
        return lambda *args: {**real(*args), key: value}

    flags = ["--n-size", "8", "--n-max", "1", "--k-max", "1"] if name == "pair-variance" else []
    args = [name, *flags, "--out", str(tmp_path)]
    monkeypatch.setattr(cli, check, reporting(bound))
    assert main(args) == 0
    monkeypatch.setattr(cli, check, reporting(math.nextafter(bound, math.inf)))
    assert main(args) == 1
    assert f"{name}: FAIL" in capsys.readouterr().out


def test_clt_fails_when_a_variance_strays_from_its_exact_value(tmp_path, monkeypatch, capsys):
    # the limit check alone passes this run; exact variances 1.5 times too
    # large leave every empirical variance far more than 5 se below them
    real = cli.variance_bound_check

    def scaled(*args):
        rep = real(*args)
        return {**rep, "entries": [{**r, "variance": 1.5 * r["variance"]} for r in rep["entries"]]}

    args = ["clt", "--n-size", "16", "--draws", "400", "--out"]
    assert main([*args, str(tmp_path / "exact")]) == 0
    monkeypatch.setattr(cli, "variance_bound_check", scaled)
    assert main([*args, str(tmp_path / "scaled")]) == 1
    assert "clt: FAIL" in capsys.readouterr().out
    result = json.loads((tmp_path / "scaled" / "result.json").read_text())["result"]
    cov, limit, se = result["empirical_cov"], result["limit_cov"], result["se_var"]
    assert all(abs(cov[i][i][0] - limit[i][i][0]) <= 5.0 * se[i] for i in range(3))
    assert all(z < -5.0 for z in result["exact_z"].values())


def test_clt_reads_its_exact_variances_by_index(tmp_path, monkeypatch):
    # the same rows in the opposite order give the same report; read by row
    # position, 0_1 scored -44.43 against 0.99 here and 1_2 8.30 against -0.15
    real = cli.variance_bound_check

    def reversed_rows(*args):
        rep = real(*args)
        return {**rep, "entries": rep["entries"][::-1]}

    args = ["clt", "--n-size", "8", "--draws", "200", "--seed", "3", "--out"]

    def run(out):
        code = main([*args, str(tmp_path / out)])
        return code, json.loads((tmp_path / out / "result.json").read_text())["result"]

    plain = run("plain")
    monkeypatch.setattr(cli, "variance_bound_check", reversed_rows)
    flipped = run("reversed")
    assert flipped[1]["exact_z"] == plain[1]["exact_z"]
    assert flipped == plain and plain[0] == 0


def test_pair_variance_reports_the_sharp_ratio(tmp_path):
    # criterion 5's grid at N = 32: Var_N stays below the limit variance
    assert main(["pair-variance", "--n-size", "32", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "result.json").read_text())["result"]
    assert result["max_sharp_ratio"] == pytest.approx(0.9798, abs=1e-4)
    with open(tmp_path / "pair_variance.csv") as f:
        header, *rows = list(csv.reader(f))
    assert header == ["n", "k", "N", "variance", "ratio", "sharp_ratio"]
    assert max(float(row[-1]) for row in rows) == result["max_sharp_ratio"]


@pytest.mark.parametrize("n_size, n_max, orders", [(1, 8, 1), (4, 8, 3), (32, 3, 3), (64, 20, 16)])
def test_pair_variance_judges_the_trace_identity_at_every_order(
    n_size, n_max, orders, tmp_path, monkeypatch
):
    # Var sum z_i^m = E|tr A^m|^2 for m = 1 .. min(n_max, N - 1, 16), and m = 1
    # at N = 1; a closed form 1e-5 off at the last order alone fails the run
    args = ["pair-variance", "--n-size", str(n_size), "--n-max", str(n_max), "--k-max", "1"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    result = json.loads((tmp_path / "a" / "result.json").read_text())["result"]
    by_order = result["identity_error_by_order"]
    assert sorted(map(int, by_order)) == list(range(1, orders + 1))
    assert result["identity_error"] == max(by_order.values()) < 1e-10
    real = ginibre._trace_power_moment
    monkeypatch.setattr(
        ginibre, "_trace_power_moment", lambda m, N: real(m, N) * (1.0 + 1e-5 * (m == orders))
    )
    assert main([*args, "--out", str(tmp_path / "b")]) == 1


def test_pair_variance_fails_when_its_rule_misses_the_trace_identity(
    tmp_path, monkeypatch, cold_kernel
):
    # Var sum z_i = 1 on the rule of the exact variances; one panel of 220
    # radii out to sqrt(1 + 20/N) + 2/sqrt(N) misses it by 1.4e-5 at
    # N = 1024, where pair-variance used to PASS
    args = ["pair-variance", "--n-size", "1024", "--n-max", "1", "--k-max", "1", "--out"]

    def identity_error(out):
        return json.loads((out / "result.json").read_text())["result"]["identity_error"]

    assert main([*args, str(tmp_path / "two")]) == 0
    assert identity_error(tmp_path / "two") < 1e-10

    def one_panel(N):
        return polar_rule(512, (0.0, math.sqrt(1.0 + 20.0 / N) + 2.0 / math.sqrt(N), 220))

    monkeypatch.setattr(ginibre.PlaneQuadrature, "build", staticmethod(one_panel))
    cold_kernel.cache_clear()
    assert main([*args, str(tmp_path / "one")]) == 1
    assert 1e-6 < identity_error(tmp_path / "one") < 1e-4


def _no_eigensolve(monkeypatch):
    def refuse(A):
        raise AssertionError("eigensolve before the usage check")

    monkeypatch.setattr(ginibre, "_hessenberg_eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)


def test_clt_with_one_draw_is_usage_error(tmp_path, monkeypatch, capsys):
    # one draw leaves no sample variance; this used to divide by zero and exit 1
    _no_eigensolve(monkeypatch)
    assert main(["clt", "--n-size", "8", "--draws", "1", "--out", str(tmp_path / "o")]) == 2
    assert "--draws" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("s", ["1.5", "2", "nan", "inf"])
def test_tightness_outside_its_regime_is_usage_error(s, tmp_path, monkeypatch, capsys):
    # s' <= 2 used to run the N = 16 draws first and then exit 1 with a traceback
    _no_eigensolve(monkeypatch)
    args = ["sobolev-tightness", "--draws", "2", "--sobolev-s", s, "--out", str(tmp_path)]
    assert main(args) == 2
    assert "--sobolev-s" in capsys.readouterr().err


def test_tightness_checks_its_exact_means_against_the_limit_sum(tmp_path, monkeypatch):
    # sum of mult j^{-2s'} Var_N gamma over the 8 x 8 window at s' = 2.5, with
    # the draws replaced by zeros so that only the exact check can fail
    def zeros(N, draws, index_set, *args, **kwargs):
        return np.zeros((draws, len(index_set)), dtype=complex)

    monkeypatch.setattr(cli, "gamma_draws", zeros)
    args = ["sobolev-tightness", "--draws", "2", "--out", str(tmp_path)]
    assert main(args) == 0
    result = json.loads((tmp_path / "result.json").read_text())["result"]
    exact = result["exact_by_N"]
    assert [round(exact[N], 6) for N in ("16", "64", "256")] == [0.007619, 0.007868, 0.007937]
    assert round(result["limit_sum"], 6) == 0.007961
    top = max(exact.values())
    monkeypatch.setattr(cli, "expected_norm_sq", lambda *a: top)
    assert main(args) == 0
    monkeypatch.setattr(cli, "expected_norm_sq", lambda *a: math.nextafter(top, 0.0))
    assert main(args) == 1


def _limit_law_draws(doubled_at=None):
    """A stand-in for cli.gamma_draws with no eigensolve: draws of the limit
    law over the n-major window of the index set, which are the coefficients
    of field.sample_h, seeded per (seed, N, draw); at N = doubled_at each
    draw is scaled by sqrt(2), which doubles the statistic."""
    def draws(N, count, index_set, seed, table, workers=1):
        cutoff = index_set[-1]
        G = np.array(
            [field.sample_h(cutoff, [seed, N, i], table).coeffs.ravel() for i in range(count)]
        )
        return math.sqrt(2.0) * G if N == doubled_at else G

    return draws


def test_tightness_judges_each_statistic_by_the_limit_law_se(tmp_path, monkeypatch):
    # correct draws pass at 2 draws, where the old check stats[-1] < 2 stats[0]
    # failed, and at 100; a statistic doubled at one N fails at 100
    table = build_root_table(4, 4)
    args = ["sobolev-tightness", "--n-max", "4", "--k-max", "4", "--out", str(tmp_path)]

    def result():
        return json.loads((tmp_path / "result.json").read_text())["result"]

    monkeypatch.setattr(cli, "gamma_draws", _limit_law_draws())
    assert main([*args, "--draws", "2"]) == 0
    # se^2 draws = Var T in the limit law, in closed form: order n >= 1 adds
    # pi^2 sum_{k,l} w_k w_l (j_k j_l)^-2 ([k = l] + 1/n)^2, order 0 twice
    # pi^2 sum_k w_k^2 j_k^-4, with w = mult j^{-2s'}
    s, var = 2.5, 0.0
    for n in range(5):
        j = np.array([table.root(n, k) for k in range(1, 5)])
        u = (1.0 if n == 0 else 2.0) * j ** (-2.0 * s) / j**2
        if n == 0:
            var += 2.0 * np.sum(u**2)
        else:
            var += np.sum(u**2) * (1 + 2 / n) + np.sum(u) ** 2 / n**2
    assert result()["se"] == pytest.approx(math.pi * math.sqrt(var / 2), rel=1e-13)
    assert main([*args, "--draws", "100"]) == 0
    assert max(map(abs, result()["exact_z"].values())) <= 5.0
    monkeypatch.setattr(cli, "gamma_draws", _limit_law_draws(doubled_at=64))
    assert main([*args, "--draws", "100"]) == 1
    rep = result()
    z = rep["exact_z"]
    assert z["64"] > 5.0 and abs(z["16"]) <= 5.0 and abs(z["256"]) <= 5.0
    for N in ("16", "64", "256"):
        assert z[N] == (rep["statistic_by_N"][N] - rep["exact_by_N"][N]) / rep["se"]


# Config values as a key=value file holds them: no comment sign, no line
# break, no surrounding blanks.
_POSITIVE_KEYS = ("n_size", "draws", "n_max", "k_max", "workers")
_path_text = st.text(alphabet=string.ascii_letters + string.digits + "._/-", min_size=1, max_size=20)


def _spelled(key, draw):
    """The key as a file may spell it, with '-' or '_' and blanks round '='."""
    name = key.replace("_", "-") if draw(st.booleans()) else key
    return name + draw(st.sampled_from(["=", " = ", "= ", " ="]))


def _write_config(tmp_path, lines):
    p = tmp_path / "run.cfg"
    p.write_text("\n".join(lines) + "\n")
    return p


def _reader(key):
    """A subcommand that reads the config key."""
    return next(name for name, reads in _READS.items() if key in reads)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_file_round_trips(tmp_path, data):
    values = {key: data.draw(st.integers(1, 10**9)) for key in _POSITIVE_KEYS}
    values["workers"] = data.draw(st.integers(1, len(os.sched_getaffinity(0))))
    values["seed"] = data.draw(st.integers(0, 10**12))
    values["sobolev_s"] = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    name = data.draw(st.sampled_from(list(_READS)))
    values = {key: values[key] for key in _READS[name]}
    values["out"] = data.draw(_path_text)
    keys = data.draw(st.permutations(list(values)))
    lines = [_spelled(key, data.draw) + repr(values[key]).strip("'") for key in keys]
    p = _write_config(tmp_path, lines)
    cfg = config_from_args(build_parser().parse_args([name, "--config", str(p)]))
    assert {key: getattr(cfg, key) for key in values} == values


def _not_a(convert):
    def fails(text):
        try:
            convert(text)
        except ValueError:
            return True
        return False

    return fails


_value_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="#"),
    max_size=12,
).map(str.strip)


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bad_config_value_is_always_usage_error(tmp_path, data):
    key = data.draw(st.sampled_from(_POSITIVE_KEYS + ("seed", "sobolev_s")))
    if key == "sobolev_s":
        bad = data.draw(_value_text.filter(_not_a(float)))
    elif key == "seed":
        bad = data.draw(
            st.one_of(_value_text.filter(_not_a(int)), st.integers(max_value=-1).map(str))
        )
    else:
        bad = data.draw(
            st.one_of(_value_text.filter(_not_a(int)), st.integers(max_value=0).map(str))
        )
    p = _write_config(tmp_path, [_spelled(key, data.draw) + bad])
    with pytest.raises(UsageError):
        config_from_args(build_parser().parse_args([_reader(key), "--config", str(p)]))
