"""The package's import layers: each module builds only on the ones below it."""

import pytest
from package_imports import PACKAGE, package_imports

# lowest first; a module may import only modules earlier in this order
LAYERS = ("errors", "grid", "density", "operators", "tangent", "connection", "curvature",
          "geodesics", "ot_oracle", "validation", "cli")


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_lower_layers(module):
    below = set(LAYERS[: LAYERS.index(module)])
    assert package_imports(module) <= below, package_imports(module) - below
