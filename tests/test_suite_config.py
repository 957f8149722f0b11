"""The suite's own pytest settings (pyproject.toml)."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTIES = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_first_property_fails(n):
    assert n != n


@settings(database=None, max_examples=5)
@given(st.integers())
def test_second_property_fails(n):
    assert n != n


def test_after_them():
    pass
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    """Under filterwarnings = ["error"], a DeprecationWarning from
    hypothesis's report hook turned a failing property into an
    INTERNALERROR, and no later test ran."""
    path = tmp_path / "test_properties.py"
    path.write_text(FAILING_PROPERTIES)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path), str(path),
        ],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=300,
    )
    assert "2 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
