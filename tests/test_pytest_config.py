"""The test suite's own pytest settings, in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(value):
    assert value < 0


@given(st.integers())
def test_passes(value):
    assert value == value
"""


def test_a_failing_property_test_fails_and_the_next_test_still_runs(tmp_path):
    # Hypothesis imports libcst to write a failing example's patch, and a
    # deprecation warning on that import must not end the run
    (tmp_path / "test_given.py").write_text(PROPERTY_TESTS)
    argv = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_given.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1
