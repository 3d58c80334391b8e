"""Tests of the command-line experiment runner."""

import argparse
import csv
import json
import math
import os
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ginfield import bessel, cli, field, ginibre, linstats, logkernel
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


def test_every_subcommand_takes_the_same_options():
    # the flags are derived from ExperimentConfig's fields; pin what they are
    expected = {
        ("-h", "--help"): ("help", None),
        ("--config",): ("config", None),
        ("--n-size", "--N"): ("n_size", int),
        ("--draws", "--M"): ("draws", int),
        ("--n-max",): ("n_max", int),
        ("--k-max",): ("k_max", int),
        ("--sobolev-s",): ("sobolev_s", float),
        ("--seed",): ("seed", int),
        ("--workers",): ("workers", int),
        ("--out",): ("out", str),
    }
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._EXPERIMENTS)
    for name, p in sub.choices.items():
        got = {tuple(a.option_strings): (a.dest, a.type) for a in p._actions}
        assert got == expected, name


class _TableBuilt(Exception):
    pass


@pytest.mark.parametrize(
    "name, n_max, k_max",
    [
        ("roots", 8, 8),
        ("verify-basis", 8, 8),
        ("reconstruct-log", 60, 60),
        ("ginibre-sample", 8, 8),
        ("pair-variance", 8, 8),
        ("clt", 8, 8),
        ("field-covariance", 8, 8),
        ("sobolev-tightness", 8, 8),
        ("decay-check", 64, 8),
    ],
)
def test_each_experiment_builds_the_root_table_of_its_flags(
    name, n_max, k_max, tmp_path, monkeypatch
):
    # the table used to be at least 64 x 8 for every experiment (64 x 64
    # for two of them), whatever --n-max and --k-max asked for
    asked = []

    def record(n, k):
        asked.append((n, k))
        raise _TableBuilt

    monkeypatch.setattr(cli, "build_root_table", record)
    with pytest.raises(_TableBuilt):
        main([name, "--out", str(tmp_path)])
    assert asked == [(n_max, k_max)]


def test_clt_with_one_radial_index_builds_the_roots_of_its_index_set(tmp_path, monkeypatch):
    # the clt index set reads j_{1,2}, past --k-max 1
    asked = []

    def record(n_max, k_max):
        asked.append((n_max, k_max))
        return build_root_table(n_max, k_max)

    monkeypatch.setattr(cli, "build_root_table", record)
    args = ["clt", "--k-max", "1", "--n-size", "16", "--draws", "200", "--out", str(tmp_path)]
    assert main(args) == 0
    assert asked == [(8, 2)]


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
    assert main([name, *flags, "--out", str(out)]) in (0, 1)
    expected = {"manifest.json", "result.json", *(f"{c}.csv" for c in csvs)}
    assert {p.name for p in out.iterdir()} == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(expected)
    assert list(manifest["timings"]) == ["bessel.build_root_table"]
    assert manifest["timings"]["bessel.build_root_table"] >= 0


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
        assert np.array_equal(z, sample_spectrum(8, 1, draw_index=i).eigenvalues)
    inside = sum(x * x + y * y < 0.64 for x, y in zip(re, im)) / len(re)
    result = json.loads((out / "result.json").read_text())["result"]
    assert result["fraction_inside_r0.8"] == inside


def test_ginibre_sample_fails_a_biased_sampler(tmp_path, monkeypatch, capsys):
    # spectra shrunk by 0.9 put about 0.79 of the eigenvalues inside r = 0.8,
    # where Kostlan's law puts 0.640 with a standard error of 0.0066
    def shrunk(N, master_seed, draw_index=0):
        s = sample_spectrum(N, master_seed, draw_index)
        return ginibre.SpectrumSample(0.9 * s.eigenvalues, s.seed)

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
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: eigvals(A) + 1e-3)
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
    monkeypatch.setattr(ginibre, "_diagonal_pair_sq", lambda R, d, C, wr: [math.inf] * len(C))
    args = ["pair-variance", "--n-size", "8", "--n-max", "1", "--k-max", "1"]
    assert main([*args, "--out", str(tmp_path)]) == 3
    assert "off_sq/diag" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, check, key, bound",
    [
        ("pair-variance", "variance_bound_check", "calibrated_C", linstats.VARIANCE_C_MAX),
        ("pair-variance", "variance_bound_check", "max_sharp_ratio", linstats.SHARP_RATIO_MAX),
        ("decay-check", "decay_check", "calibrated_Cprime", linstats.DECAY_CPRIME_MAX),
    ],
)
def test_criterion_5_constant_past_its_bound_fails(
    name, check, key, bound, tmp_path, monkeypatch, capsys
):
    # each experiment fails once its calibrated constant passes the bound
    real = getattr(cli, check)

    def reporting(value):
        return lambda *args: {**real(*args), key: value}

    args = [name, "--n-size", "8", "--n-max", "1", "--k-max", "1", "--out", str(tmp_path)]
    monkeypatch.setattr(cli, check, reporting(bound))
    assert main(args) == 0
    monkeypatch.setattr(cli, check, reporting(math.nextafter(bound, math.inf)))
    assert main(args) == 1
    assert f"{name}: FAIL" in capsys.readouterr().out


def test_pair_variance_reports_the_sharp_ratio(tmp_path):
    # criterion 5's grid at N = 32: Var_N stays below the limit variance
    assert main(["pair-variance", "--n-size", "32", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "result.json").read_text())["result"]
    assert result["max_sharp_ratio"] == pytest.approx(0.9798, abs=1e-4)
    with open(tmp_path / "pair_variance.csv") as f:
        header, *rows = list(csv.reader(f))
    assert header == ["n", "k", "N", "variance", "ratio", "sharp_ratio"]
    assert max(float(row[-1]) for row in rows) == result["max_sharp_ratio"]


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

    def one_panel(cls, N):
        return cls._polar(512, (0.0, math.sqrt(1.0 + 20.0 / N) + 2.0 / math.sqrt(N), 220))

    monkeypatch.setattr(ginibre.PlaneQuadrature, "build", classmethod(one_panel))
    cold_kernel.cache_clear()
    assert main([*args, str(tmp_path / "one")]) == 1
    assert 1e-6 < identity_error(tmp_path / "one") < 1e-4


def _no_eigensolve(monkeypatch):
    def refuse(A):
        raise AssertionError("eigensolve before the usage check")

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


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_file_round_trips(tmp_path, data):
    values = {key: data.draw(st.integers(1, 10**9)) for key in _POSITIVE_KEYS}
    values["workers"] = data.draw(st.integers(1, len(os.sched_getaffinity(0))))
    values["seed"] = data.draw(st.integers(0, 10**12))
    values["sobolev_s"] = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    values["out"] = data.draw(_path_text)
    keys = data.draw(st.permutations(list(values)))
    lines = [_spelled(key, data.draw) + repr(values[key]).strip("'") for key in keys]
    p = _write_config(tmp_path, lines)
    cfg = config_from_args(build_parser().parse_args(["clt", "--config", str(p)]))
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
        config_from_args(build_parser().parse_args(["clt", "--config", str(p)]))
