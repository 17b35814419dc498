"""The README's examples run against the package as documented."""

import contextlib
import io
import json
import pathlib
import re

import pytest

from ottocircle import cli

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


def test_readme_config_is_the_default_config():
    [block] = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert json.loads(block) == cli.DEFAULT_CONFIG


def test_readme_distance_example_config_is_valid(tmp_path):
    [text] = re.findall(r"cat > pair\.json <<'JSON'\n(.*?)\nJSON\n", README.read_text(), flags=re.S)
    path = tmp_path / "pair.json"
    path.write_text(text)
    args = cli.build_parser().parse_args(["distance", "--config", str(path)])
    run = cli.build_inputs(cli.load_config(args))
    assert run.config["atoms"] == 128
    assert run.config["density_b"] == {"family": "cosine", "amplitude": 0.3, "phase": 2.0}
