"""Tests of the repository's pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # warnings are errors, but not the deprecation warning the hypothesis
    # plugin raises while it reports a failing example: as an error it ends
    # the run at an INTERNALERROR that names no test
    (tmp_path / "test_x.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_x.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "FAILED test_x.py::test_fails" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
