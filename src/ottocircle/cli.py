"""Batch front door: configured runs of the geometry stack with file reports.

Every subcommand reads one config (JSON file merged over defaults, then flag
overrides; all of its inputs are built before the subcommand runs), writes a
JSON report plus CSV data into the output directory, and exits with the
shared code contract:

    0  everything ran and every checked tolerance held
    1  a tolerance check failed
    2  configuration or usage problem
    3  numerical failure (caustic crossing, non-converged solve, Cholesky
       breakdown, an RK4 density that turns nonpositive)

Reports are deterministic for a given (config, seed): keys are sorted, no
timestamps are embedded, and the config hash covers everything the
subcommand reads (validate reads only n, N and seed).  The config chooses
inputs only: every check threshold is a fixed constant, so no config can
loosen one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, field_from_coeffs
from .density import (
    Density,
    cosine_density,
    density_from_csv,
    density_to_csv,
    uniform_density,
)
from .errors import AliasingError, ConfigError, NumericalError
from .operators import WeightedOperatorContext
from .tangent import TangentVector, metric_gram, vector_from_potential
from .connection import christoffel, christoffel_residual, lie_bracket
from .curvature import riemann, sectional
from .geodesics import (
    action,
    displacement_path,
    geodesic_christoffel,
    geodesic_hj,
    path_to_csv,
)
from .ot_oracle import CircleDistanceSolver, plan_to_csv, w2_lp
from .validation import (
    BRACKET_ROUTE_TOL,
    FIRST_HARMONIC_SECTIONAL_TOL,
    LP_RELATIVE_TOL,
    MARGINAL_TOL,
    SECTIONAL_FLOOR,
    check,
    fd_oracle_check,
    format_record,
    geodesic_route_checks,
    run_all,
    transport_checks,
)

SCHEMA_VERSION = "1"

DEFAULT_CONFIG = {
    "n": 256,
    "N": 8,
    "seed": 0,
    "density": {"family": "uniform"},
    "density_b": {"family": "cosine", "amplitude": 0.3, "mode": 1, "phase": 0.0},
    "potential": {"family": "cosine", "amplitude": 0.1, "mode": 1, "phase": 0.0},
    "potential_b": {"family": "sine", "amplitude": 0.1, "mode": 1, "phase": 0.0},
    "times": {"t_max": 1.0, "count": 17},
    "atoms": 64,
}


# -- configuration -----------------------------------------------------------


# density/potential specs are replaced wholesale (switching family must not
# inherit the default family's parameters); everything else deep-merges
_REPLACE_KEYS = {"density", "density_b", "potential", "potential_b"}


def _merge(defaults, override, path="config"):
    if not isinstance(override, dict):
        raise ConfigError(f"{path} must be a JSON object")
    merged = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {path}.{key}")
        if isinstance(defaults[key], dict) and key not in _REPLACE_KEYS:
            merged[key] = _merge(defaults[key], value, f"{path}.{key}")
        else:
            merged[key] = value
    return merged


def load_config(args) -> dict:
    config = {k: (dict(v) if isinstance(v, dict) else v) for k, v in DEFAULT_CONFIG.items()}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                user = json.load(handle, parse_float=_finite, parse_constant=_finite)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc.strerror}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        config = _merge(config, user)
    for flag in ("seed", "n", "N"):
        value = getattr(args, flag)
        if value is not None:
            config[flag] = value
    if not _is_int(config["n"]) or not _is_int(config["N"]):
        raise ConfigError("n and N must be integers")
    if config["N"] < 1 or 4 * config["N"] >= config["n"]:
        raise ConfigError("need 1 <= N and 4N < n")
    if not _is_int(config["seed"]) or config["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if not _is_int(config["atoms"]) or not 2 <= config["atoms"] <= 256:
        raise ConfigError("atoms must be an integer in [2, 256]")
    return config


def _finite(text: str) -> float:
    """A JSON number that is finite: rejects the NaN and Infinity literals that
    json reads by default, and a float such as 1e400 that overflows."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}")
    return value


def _is_int(value) -> bool:
    """True for a JSON integer; bool subclasses int but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """True for a JSON number (integer or float), never a bool or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(spec: dict, key: str, default: float, what: str) -> float:
    value = spec.get(key, default)
    # an integer literal past the float range passes json's parse_float hook
    if not _is_number(value) or abs(value) > sys.float_info.max:
        raise ConfigError(f"{what}.{key} must be a finite number, got {value!r}")
    return float(value)


def config_sha256(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _known_keys(spec: dict, allowed: set[str], what: str) -> None:
    extra = set(spec) - allowed
    if extra:
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")


def _mode(spec: dict, grid: GridSpec, what: str) -> int:
    """The spec's mode, which must be resolved by the grid (an aliased mode
    would silently stand for a lower one)."""
    k = spec.get("mode", 1)
    if not _is_int(k):
        raise ConfigError(f"{what} mode must be an integer, got {k!r}")
    if not 1 <= k <= grid.n // 2 - 1:
        raise AliasingError(f"{what} mode {k} outside resolved range "
                            f"[1, {grid.n // 2 - 1}] for n={grid.n}")
    return k


def build_density(spec: dict, grid: GridSpec) -> Density:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("density spec needs a 'family' key")
    family = spec["family"]
    if family == "uniform":
        _known_keys(spec, {"family"}, "density")
        return uniform_density(grid)
    if family == "cosine":
        _known_keys(spec, {"family", "amplitude", "mode", "phase"}, "density")
        return cosine_density(grid, _number(spec, "amplitude", 0.3, "density"),
                              mode=_mode(spec, grid, "density"),
                              phase=_number(spec, "phase", 0.0, "density"))
    if family == "custom":
        _known_keys(spec, {"family", "path"}, "density")
        if "path" not in spec:
            raise ConfigError("custom density spec needs a 'path' key")
        try:
            return density_from_csv(spec["path"], grid)
        except OSError as exc:
            raise ConfigError(f"cannot read custom density {spec['path']!r}: {exc.strerror}")
    raise ConfigError(f"unknown density family {family!r}")


def build_potential(spec: dict, grid: GridSpec) -> ScalarField:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("potential spec needs a 'family' key")
    family = spec["family"]
    if family in ("cosine", "sine"):
        _known_keys(spec, {"family", "amplitude", "mode", "phase"}, "potential")
        a = _number(spec, "amplitude", 0.1, "potential")
        k = _mode(spec, grid, "potential")
        phase = _number(spec, "phase", 0.0, "potential")
        fn = np.cos if family == "cosine" else np.sin
        return ScalarField(grid, a * fn(k * (grid.nodes - phase)))
    if family == "coefficients":
        _known_keys(spec, {"family", "values"}, "potential")
        values = spec.get("values", [])
        if not isinstance(values, list) or not values or len(values) % 2:
            raise ConfigError("coefficient potential needs an even-length list")
        if not all(_is_number(v) for v in values):
            raise ConfigError("coefficient potential values must all be numbers")
        return field_from_coeffs(grid, np.asarray(values, dtype=np.float64))
    raise ConfigError(f"unknown potential family {family!r}")


@dataclass(frozen=True)
class RunInputs:
    """Every input a subcommand reads, built (and so checked) before it runs."""

    config: dict
    grid: GridSpec
    density: Density
    density_b: Density
    potential: ScalarField
    potential_b: ScalarField
    times: np.ndarray


def build_inputs(config: dict) -> RunInputs:
    t_max = _number(config["times"], "t_max", 1.0, "times")
    count = config["times"].get("count", 17)
    if t_max <= 0.0:
        raise ConfigError(f"times.t_max must be > 0, got {t_max!r}")
    if not _is_int(count) or count < 2:
        raise ConfigError("times.count must be an integer >= 2")
    grid = GridSpec(config["n"])
    return RunInputs(
        config=config,
        grid=grid,
        density=build_density(config["density"], grid),
        density_b=build_density(config["density_b"], grid),
        potential=build_potential(config["potential"], grid),
        potential_b=build_potential(config["potential_b"], grid),
        times=np.linspace(0.0, t_max, count),
    )


# -- report plumbing ---------------------------------------------------------


def write_report(out_dir: str, subcommand: str, config: dict, results: dict,
                 checks: list[dict]) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": config,
        "config_sha256": config_sha256(config),
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{subcommand}_report.json"), "w") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return report


def write_csv(out_dir: str, name: str, header: list[str], rows) -> None:
    import csv as csv_module

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", newline="") as handle:
        writer = csv_module.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])


# -- subcommands -------------------------------------------------------------


def run_metric(run: RunInputs, out_dir: str) -> dict:
    gram = metric_gram(run.density, run.config["N"]).gram
    write_csv(out_dir, "gram.csv", ["i", "j", "value"],
              ((i, j, gram[i, j]) for i in range(gram.shape[0]) for j in range(gram.shape[1])))
    sym = float(np.abs(gram - gram.T).max())
    eigs = np.linalg.eigvalsh(gram)
    results = {
        "min_eigenvalue": float(eigs[0]),
        "max_eigenvalue": float(eigs[-1]),
        "condition_number": float(eigs[-1] / eigs[0]),
    }
    checks = [
        check("gram_symmetry", sym, 1e-12),
        check("positive_definite", float(eigs[0]), 0.0, op=">"),
    ]
    return write_report(out_dir, "metric", run.config, results, checks)


def run_bracket(run: RunInputs, out_dir: str) -> dict:
    ctx = WeightedOperatorContext(run.density, run.config["N"])
    hess = lie_bracket(run.potential, run.potential_b, ctx, route="hessian")
    lap = lie_bracket(run.potential, run.potential_b, ctx, route="laplacian")
    write_csv(out_dir, "bracket.csv", ["node", "value"],
              zip(run.grid.nodes, ctx.potential_values(hess.coeffs)))
    gap = float(np.abs(hess.coeffs - lap.coeffs).max())
    results = {
        "coefficients_hessian_route": [float(c) for c in hess.coeffs],
        "coefficients_laplacian_route": [float(c) for c in lap.coeffs],
    }
    checks = [check("route_agreement", gap, BRACKET_ROUTE_TOL)]
    return write_report(out_dir, "bracket", run.config, results, checks)


def run_christoffel(run: RunInputs, out_dir: str) -> dict:
    ctx = WeightedOperatorContext(run.density, run.config["N"])
    tensor = christoffel(ctx)
    d = tensor.gamma.shape[0]
    write_csv(out_dir, "christoffel.csv", ["k", "i", "j", "value"],
              ((k, i, j, tensor.gamma[k, i, j])
               for k in range(d) for i in range(d) for j in range(d)))
    residual = christoffel_residual(tensor, ctx)
    results = {
        "dimension": d,
        "max_ij_asymmetry": float(tensor.max_ij_asymmetry()),
    }
    checks = [check("assembly_residual", residual, 1e-8)]
    return write_report(out_dir, "christoffel", run.config, results, checks)


def run_geodesic(run: RunInputs, out_dir: str) -> dict:
    # the continuity residual's 5-point stencil; checked before any route runs
    if run.times.size < 5:
        raise ConfigError(f"geodesic needs times.count >= 5, got {run.times.size}")
    mu0, psi0, times, N = run.density, run.potential, run.times, run.config["N"]
    ctx = WeightedOperatorContext(mu0, N)
    v0 = vector_from_potential(psi0, ctx)

    paths = {
        "hj": geodesic_hj(mu0, psi0, times),
        "christoffel": geodesic_christoffel(mu0, v0, times, N=N),
        "displacement": displacement_path(mu0, psi0, times),
    }
    os.makedirs(out_dir, exist_ok=True)
    for name, path in paths.items():
        path_to_csv(path, os.path.join(out_dir, f"geodesic_{name}.csv"))
    results = {f"action_{name}": action(path) for name, path in paths.items()}
    results["times"] = [float(t) for t in times]
    checks = geodesic_route_checks(paths)
    return write_report(out_dir, "geodesic", run.config, results, checks)


def run_transport(run: RunInputs, out_dir: str) -> dict:
    times, N = run.times, run.config["N"]
    path = geodesic_hj(run.density, run.potential, times)
    rng = np.random.default_rng(run.config["seed"])
    v0 = TangentVector(rng.standard_normal(2 * N), run.density)
    moved, norms, checks = transport_checks(path, v0, run.potential)
    write_csv(out_dir, "transport.csv", ["time", "index", "coefficient"],
              ((float(t), idx, moved[i].coeffs[idx])
               for i, t in enumerate(times) for idx in range(2 * N)))
    results = {"norms_along_path": [float(nm) for nm in norms]}
    return write_report(out_dir, "transport", run.config, results, checks)


def run_curvature(run: RunInputs, out_dir: str) -> dict:
    # the finite-difference oracle runs at N = 4; checked before any work
    if run.grid.n <= 16:
        raise ConfigError(f"curvature needs n > 16 for its N = 4 oracle, got n={run.grid.n}")
    grid, mu, N = run.grid, run.density, run.config["N"]
    ctx = WeightedOperatorContext(mu, N)
    rng = np.random.default_rng(run.config["seed"])

    sec_base = sectional(ScalarField(grid, ctx.basis0[0]), ScalarField(grid, ctx.basis0[1]), ctx)

    half = max(N // 2, 1)
    samples = []
    for _ in range(16):
        c1 = np.zeros(2 * N)
        c2 = np.zeros(2 * N)
        c1[: 2 * half] = rng.standard_normal(2 * half)
        c2[: 2 * half] = rng.standard_normal(2 * half)
        samples.append(sectional(ScalarField(grid, ctx.potential_values(c1)),
                                 ScalarField(grid, ctx.potential_values(c2)), ctx))
    min_sec = np.min(samples)
    write_csv(out_dir, "sectional_samples.csv", ["sample", "value"],
              ((i, v) for i, v in enumerate(samples)))

    quad_limit = min(2 * N, 4)
    rows = []
    for i in range(quad_limit):
        for j in range(i + 1, quad_limit):
            for k in range(quad_limit):
                for l in range(quad_limit):
                    fields = [ScalarField(grid, ctx.basis0[q]) for q in (i, j, k, l)]
                    rows.append((i, j, k, l, riemann(*fields, ctx)))
    write_csv(out_dir, "riemann_table.csv", ["i", "j", "k", "l", "value"], rows)

    fd_check, [(fd, reference)] = fd_oracle_check([(WeightedOperatorContext(mu, 4), (0, 1, 0, 1))])
    results = {
        "sectional_first_harmonics": float(sec_base),
        "riemann_fd": float(fd),
        "riemann_reference": float(reference),
    }
    checks = [
        fd_check,
        check("min_sampled_sectional", float(min_sec), SECTIONAL_FLOOR, op=">="),
    ]
    if run.config["density"]["family"] == "uniform":
        checks.insert(0, check("sectional_first_harmonics_error", abs(sec_base - 3.0),
                               FIRST_HARMONIC_SECTIONAL_TOL))
    return write_report(out_dir, "curvature", run.config, results, checks)


def run_distance(run: RunInputs, out_dir: str) -> dict:
    mu, nu, m = run.density, run.density_b, run.config["atoms"]
    solver = CircleDistanceSolver()
    exact = solver.distance(mu, nu)
    plan = w2_lp(mu, nu, m=m)
    os.makedirs(out_dir, exist_ok=True)
    plan_to_csv(plan, os.path.join(out_dir, "coupling.csv"))
    density_to_csv(mu, os.path.join(out_dir, "density_a.csv"))
    density_to_csv(nu, os.path.join(out_dir, "density_b.csv"))
    row_err, col_err = plan.marginal_errors()
    rel = abs(plan.w2 - exact.w2) / max(exact.w2, 1e-30)
    results = {
        "w2_circle": exact.w2,
        "w2_circle_shift": exact.shift,
        "w2_lp": plan.w2,
        "atoms": m,
    }
    checks = [
        check("lp_vs_circle_relative", rel, LP_RELATIVE_TOL),
        check("coupling_marginal_violation", max(row_err, col_err), MARGINAL_TOL),
    ]
    return write_report(out_dir, "distance", run.config, results, checks)


def run_validate(run: RunInputs, out_dir: str) -> dict:
    # run_all builds its own inputs from these three keys, so the report
    # echoes and hashes only them; the other sections were checked already
    config = {key: run.config[key] for key in ("n", "N", "seed")}
    # its geodesic scenario runs at N = 16 and its band-limited sweeps use
    # modes up to N // 2; checked before any criterion runs
    if config["n"] <= 64 or config["N"] < 2:
        raise ConfigError(f"validate needs n > 64 and N >= 2, "
                          f"got n={config['n']}, N={config['N']}")
    outcome = run_all(**config)
    for record in outcome["records"]:
        print(format_record(record))
    write_csv(out_dir, "validate_summary.csv",
              ["criterion", "name", "check", "value", "threshold", "op", "passed"],
              ((r["index"], r["name"], c["name"], c["value"], c["threshold"],
                c["op"], int(c["passed"]))
               for r in outcome["records"] for c in r["checks"]))
    results = {"records": outcome["records"]}
    checks = [check(f"criterion_{r['index']:02d}_{r['name']}", 1.0 if r["passed"] else 0.0,
                    0.5, op=">=") for r in outcome["records"]]
    return write_report(out_dir, "validate", config, results, checks)


SUBCOMMANDS = {
    "metric": run_metric,
    "bracket": run_bracket,
    "christoffel": run_christoffel,
    "geodesic": run_geodesic,
    "transport": run_transport,
    "curvature": run_curvature,
    "distance": run_distance,
    "validate": run_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ottocircle",
        description="Wasserstein geometry of circle densities: metric, "
                    "connection, geodesics, curvature, and transport oracles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "metric": "Gram matrix of the Otto metric at a density",
        "bracket": "Lie bracket of two tangent potentials, both routes",
        "christoffel": "Christoffel symbols at a density",
        "geodesic": "all three geodesic routes with cross checks",
        "transport": "parallel transport along a geodesic",
        "curvature": "sectional samples, curvature table, finite-difference oracle",
        "distance": "Wasserstein distance by both oracles with coupling export",
        "validate": "run every acceptance criterion",
    }
    for name, fn in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="ottocircle-report",
                       help="output directory (default: ottocircle-report)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--n", type=int, default=None, help="override grid size")
        p.add_argument("--N", type=int, default=None, help="override truncation")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = build_inputs(load_config(args))
        if not args.out:
            raise ConfigError("--out must name a directory, got ''")
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out!r} exists and is not a directory")
        report = SUBCOMMANDS[args.subcommand](run, args.out)
    # LinAlgError (a Cholesky breakdown) subclasses ValueError: catch it first
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    status = "ok" if report["passed"] else "TOLERANCE BREACH"
    print(f"{args.subcommand}: {status} "
          f"(report in {os.path.join(args.out, args.subcommand + '_report.json')})")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
