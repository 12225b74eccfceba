"""The test settings themselves: a failing property test is reported as a
failure under the project's ``filterwarnings``, not as an internal error
that ends the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_always_fails(x):
    assert x != x
'''


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
