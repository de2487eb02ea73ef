"""The pytest settings in pyproject.toml: warnings are errors, but a failing
hypothesis test is reported like any failing test and the run goes on."""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout


def test_only_the_hypothesis_report_warning_is_ignored():
    warnings.warn("mypy_extensions.TypedDict is deprecated, and will be removed",
                  DeprecationWarning)
    with pytest.raises(DeprecationWarning):
        warnings.warn("another deprecation", DeprecationWarning)
