import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n != 0


def test_b_passing():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # reporting a Hypothesis failure imports its patch writer, whose
    # dependencies may warn; under the project's warnings-as-errors filter
    # that must not turn into an INTERNALERROR that skips the later tests
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider"]
    done = subprocess.run(
        [*command, "test_two.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
