import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# A failing `@given` test, a test after it, and a test that raises a DeprecationWarning.
SAMPLE = textwrap.dedent(
    """
    import warnings

    from hypothesis import given
    from hypothesis import strategies as st


    @given(st.integers())
    def test_a_falsified(x):
        assert x < 10


    def test_b_after():
        pass


    def test_c_deprecated():
        warnings.warn("deprecated", DeprecationWarning)
    """
)


def test_a_failing_given_test_is_an_ordinary_failure(tmp_path):
    """Under the repo's pytest settings, hypothesis reports a falsified `@given` test with a patch,
    whose import warns a DeprecationWarning of its own. That one warning is ignored, so the run goes
    on to the later tests; every other DeprecationWarning still fails its test."""
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-rA", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_sample.py::test_a_falsified" in out
    assert "PASSED test_sample.py::test_b_after" in out
    assert "FAILED test_sample.py::test_c_deprecated - DeprecationWarning: deprecated" in out
    assert "2 failed, 1 passed" in out
