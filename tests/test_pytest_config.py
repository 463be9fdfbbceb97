"""The suite's own pytest configuration, run on a small scratch test file.

``pyproject.toml`` turns every warning into an error.  A failing hypothesis
test must still report its falsifying example and let the run go on, while
any other warning keeps failing its test.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

SCRATCH_TESTS = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_another_warning_still_fails():
    warnings.warn("a deprecated call", DeprecationWarning)


def test_a_later_test_still_runs():
    pass
'''


def test_a_failing_property_reports_its_example_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_scratch.py").write_text(SCRATCH_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
        + ["test_scratch.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_a_failing_property(" in out
    assert "DeprecationWarning: a deprecated call" in out
    assert "2 failed, 1 passed" in out
    assert result.returncode == 1
