import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROPERTY = textwrap.dedent("""
    import numpy as np
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_property(x):
        assert x < 3


    def test_numpy_warning():
        np.float64(1.0) / 0.0
""")


def test_failing_property_reports_its_example_and_warnings_stay_errors(tmp_path):
    # the repository's settings turn every warning into an error; hypothesis's
    # report of a failing example must still get through, and a numpy warning
    # must still fail its test
    (tmp_path / "test_property.py").write_text(PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "Falsifying example: test_property(" in out.stdout
    assert "RuntimeWarning: divide by zero" in out.stdout
    assert "2 failed" in out.stdout
