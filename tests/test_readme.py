"""The README's Python example runs against the package as documented."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
    # the example ends with the first-harmonic sectional curvature, 3.0
    assert float(printed.getvalue().split()[-1]) == pytest.approx(3.0, abs=1e-12)
