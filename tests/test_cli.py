"""Tests of the command-line experiment runner."""

import json

import pytest

from ginfield.cli import (
    ExperimentConfig,
    UsageError,
    _load_config_file,
    build_parser,
    config_from_args,
    main,
)


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


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("n_size=abc\n")
    assert main(["clt", "--config", str(p)]) == 2
    assert "n_size" in capsys.readouterr().err


def test_experiment_alias_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["clt", "-e", "roots"])
    assert exc.value.code == 2


def test_config_validation():
    cfg = ExperimentConfig(experiment="clt", workers=0)
    with pytest.raises(UsageError):
        cfg.validate()


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
    assert (out / "roots.csv").exists()
    assert (out / "roots.txt").exists()


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
    spectra = json.loads((out / "spectra.json").read_text())
    assert len(spectra) == 3
    assert spectra[0]["N"] == 8
    csv_lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "draw,re,im"
    assert len(csv_lines) == 1 + 3 * 8


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
    # result payloads and raw sample files only
    ra = json.loads((a / "result.json").read_text())["result"]
    rb = json.loads((b / "result.json").read_text())["result"]
    assert ra == rb
    assert (a / "spectra.json").read_text() == (b / "spectra.json").read_text()


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
    result = json.loads((tmp_path / "o" / "result.json").read_text())
    assert abs(result["result"]["estimate"] - result["result"]["target"]) < 0.15
