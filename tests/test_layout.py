"""The package's import layers: each module builds only on the ones below it,
only the transport LP imports scipy, and importing the package or running
its geodesics, transport and circle distance leaves every scipy module
unloaded."""

import ast
import os
import subprocess
import sys

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


def _scipy_imports(tree: ast.AST) -> set[ast.AST]:
    """The import statements under tree that name a scipy module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.add(node)
    return found


@pytest.mark.parametrize("module", LAYERS)
def test_only_the_transport_oracle_imports_scipy(module):
    # every Gram matrix, solve and spline is numpy's; scipy serves only the
    # LP, and only inside the body of transport_lp
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    allowed = set()
    if module == "ot_oracle":
        lp = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "transport_lp")
        allowed = _scipy_imports(lp)
    assert _scipy_imports(tree) == allowed, [ast.unparse(node) for node in _scipy_imports(tree)]


def _fresh_process_output(probe: str) -> list[str]:
    """The words a fresh interpreter prints after running probe on this package."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_import_defers_slow_scipy_submodules():
    # each of these costs a fresh process tenths of a second; the functions
    # that use them import them on first use
    deferred = ("scipy.linalg", "scipy.interpolate", "scipy.optimize", "scipy.sparse")
    assert _fresh_process_output(f"import sys, ottocircle, ottocircle.cli; "
                                 f"print(*[m for m in {deferred!r} if m in sys.modules])") == []


def test_displacement_path_needs_no_interpolation_module():
    # the pushforward evaluates the Jacobian at the feet of the nodes; it
    # resamples nothing, so scipy.interpolate stays unloaded
    probe = ("import sys, numpy as np, ottocircle as oc; g = oc.GridSpec(32); "
             "psi = oc.ScalarField(g, 0.1 * np.cos(g.nodes)); "
             "oc.displacement_path(oc.uniform_density(g), psi, [0.0, 0.5, 1.0]); "
             "print('scipy.interpolate' in sys.modules)")
    assert _fresh_process_output(probe) == ["False"]


def test_geodesics_and_transport_load_no_scipy_module():
    # the stage solves are numpy's and parallel_transport interpolates in time
    # with its own numpy spline, so both geodesic ODE routes and the transport
    # along one load no scipy module at all
    probe = ("import sys, numpy as np, ottocircle as oc; g = oc.GridSpec(64); "
             "mu = oc.cosine_density(g, 0.3); psi = oc.ScalarField(g, 0.1 * np.cos(g.nodes)); "
             "times = np.linspace(0.0, 1.0, 5); path = oc.geodesic_hj(mu, psi, times); "
             "coeffs = np.zeros(8); coeffs[0] = 0.1; oc.geodesic_christoffel(mu, coeffs, times); "
             "oc.parallel_transport(oc.TangentVector(np.ones(8), mu), path); "
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_process_output(probe) == []


def test_circle_distance_loads_no_scipy_module():
    # the quantile route's polish reads a periodic cubic spline built in
    # numpy; only the LP route loads scipy
    probe = ("import sys, ottocircle as oc; g = oc.GridSpec(64); "
             "oc.CircleDistanceSolver().distance(oc.cosine_density(g, 0.3), "
             "oc.cosine_density(g, 0.2, phase=1.0)); "
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_process_output(probe) == []


def test_hj_route_names_no_characteristic_solver():
    # the HJ route integrates the Eulerian system; the characteristic solve,
    # the off-grid evaluator and the pushforward belong to the displacement
    # route, which HJ is checked against (ROADMAP north star, aim 2)
    tree = ast.parse((PACKAGE / "geodesics.py").read_text())
    hj = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "geodesic_hj")
    names = ({node.id for node in ast.walk(hj) if isinstance(node, ast.Name)}
             | {node.attr for node in ast.walk(hj) if isinstance(node, ast.Attribute)})
    assert not names & {"monotone_inverse", "_characteristic_potential", "eval_trig",
                        "pushforward_monotone", "pushforward_spectra", "derivative_series"}
