"""The repo's pytest settings must keep a failing property test readable.

With warnings turned into errors, a deprecation raised while the
hypothesis plugin builds its failure report turns the report into an
INTERNALERROR traceback and hides the falsifying example.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

REPO = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_always_fails(x):
    assert x < 0
"""


def test_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example: test_always_fails(" in output
    assert "INTERNALERROR" not in output
