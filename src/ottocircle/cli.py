"""Batch front door: configured runs of the geometry stack with file reports.

Every subcommand reads one config: a JSON file over the defaults, then the
flag overrides.  `_read` checks each value at its kind, and `_FAMILIES` holds
each density and potential family's keys and defaults.  All inputs are built
before the subcommand runs; it writes a JSON report plus CSV data into the
output directory and exits with the shared code contract:

    0  everything ran and every checked tolerance held
    1  a tolerance check failed
    2  configuration or usage problem
    3  numerical failure (caustic crossing, non-converged solve, a singular
       Gram solve, a density that turns nonpositive in an RK4 stage)

Reports are deterministic for a given (config, seed): keys are sorted, no
timestamps are embedded, and the config hash covers everything the
subcommand reads (validate reads only n, N and seed).  The config chooses
inputs only: every check threshold is a fixed constant, so no config can
loosen one.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, aliasing_bound, field_from_coeffs
from .density import (
    Density,
    cosine_density,
    density_from_csv,
    density_to_csv,
    uniform_density,
)
from .errors import AliasingError, ConfigError, NumericalError
from .operators import WeightedOperatorContext
from .tangent import TangentVector, vector_from_potential
from .connection import christoffel, christoffel_residual, lie_bracket, lie_bracket_laplacian
from .curvature import riemann, sectional
from .geodesics import action, displacement_path, geodesic_christoffel, geodesic_hj
from .ot_oracle import CircleDistanceSolver, w2_lp
from .validation import (
    BRACKET_ROUTE_TOL,
    FIRST_HARMONIC_SECTIONAL_TOL,
    FRAME_ORACLE_N,
    LP_RELATIVE_TOL,
    MARGINAL_TOL,
    SCENARIO_N,
    SECTIONAL_FLOOR,
    band_limited_pair,
    check,
    fd_oracle_check,
    format_record,
    geodesic_route_checks,
    run_all,
    transport_checks,
)

SCHEMA_VERSION = "1"

# each family's keys and their defaults; a type in place of a default is the
# kind of a key that has no default and must be given
_WAVE = {"mode": 1, "phase": 0.0}
_POTENTIAL_WAVE = {"amplitude": 0.1, **_WAVE}
_FAMILIES = {
    "density": {"uniform": {}, "cosine": {"amplitude": 0.3, **_WAVE}, "custom": {"path": str}},
    "potential": {"cosine": _POTENTIAL_WAVE, "sine": _POTENTIAL_WAVE,
                  "coefficients": {"values": list}},
}

DEFAULT_CONFIG = {
    "n": 256,
    "N": 8,
    "seed": 0,
    "density": {"family": "uniform"},
    "density_b": {"family": "cosine", **_FAMILIES["density"]["cosine"]},
    "potential": {"family": "cosine", **_FAMILIES["potential"]["cosine"]},
    "potential_b": {"family": "sine", **_FAMILIES["potential"]["sine"]},
    "times": {"t_max": 1.0, "count": 17},
    "atoms": 64,
}


# -- configuration -----------------------------------------------------------


_KINDS = {int: "an integer in the float range", float: "a finite number",
          str: "a string", list: "a non-empty list of finite numbers"}


def _read(value, kind: type, where: str):
    """`value` checked as a config value of `kind`, naming its config path
    `where` in any error: int (a JSON integer, never a bool), float (any JSON
    number), str, or list (a non-empty list of numbers, read as floats).
    Every number must lie in the float range."""
    if kind is list and type(value) is list and value:
        return [_read(v, float, f"{where}[{i}]") for i, v in enumerate(value)]
    if kind is str and type(value) is str:
        return value
    # an integer literal past the float range passes json's parse_float hook
    if kind in (int, float) and type(value) in (kind, int) and abs(value) <= sys.float_info.max:
        return kind(value)
    raise ConfigError(f"{where} must be {_KINDS[kind]}, got {value!r}")


def _object(value, keys, where: str) -> dict:
    """value, which must be a JSON object whose keys are all among `keys`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown key {where}.{key}")
    return value


def load_config(args) -> dict:
    user = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                user = json.load(handle, parse_float=_finite, parse_constant=_finite)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc.strerror}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
    # top-level keys and the four specs replace (switching family never
    # inherits another family's keys); `times` merges its two keys
    config = {**DEFAULT_CONFIG, **_object(user, DEFAULT_CONFIG, "config")}
    times = DEFAULT_CONFIG["times"]
    config["times"] = {**times, **_object(config["times"], times, "times")}
    for flag in ("seed", "n", "N"):
        if getattr(args, flag) is not None:
            config[flag] = getattr(args, flag)
    n, N, seed, atoms = (_read(config[key], int, key) for key in ("n", "N", "seed", "atoms"))
    if N < 1 or n <= aliasing_bound(N):
        raise ConfigError("need 1 <= N and 4N < n")
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if not 2 <= atoms <= 256:
        raise ConfigError("atoms must be an integer in [2, 256]")
    return config


def _finite(text: str) -> float:
    """A JSON number that is finite: rejects the NaN and Infinity literals that
    json reads by default, and a float such as 1e400 that overflows."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}")
    return value


def config_sha256(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _spec(spec, where: str, grid: GridSpec) -> tuple[str, dict]:
    """The family of the density or potential spec at config path `where`,
    and each of its family's keys read at its kind, defaults filled in."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError(f"{where} spec needs a 'family' key")
    family = _read(spec["family"], str, f"{where}.family")
    keys = _FAMILIES[where.removesuffix("_b")].get(family)
    if keys is None:
        raise ConfigError(f"unknown {where} family {family!r}")
    _object(spec, {"family", *keys}, where)
    params = {}
    for key, default in keys.items():
        if key not in spec and isinstance(default, type):
            raise ConfigError(f"{family} {where} spec needs a {key!r} key")
        kind = default if isinstance(default, type) else type(default)
        params[key] = _read(spec.get(key, default), kind, f"{where}.{key}")
    # an aliased mode would silently stand for a lower one
    if "mode" in params and not 1 <= params["mode"] <= grid.n // 2 - 1:
        raise AliasingError(f"{where}.mode {params['mode']} outside resolved range "
                            f"[1, {grid.n // 2 - 1}] for n={grid.n}")
    return family, params


def build_density(spec, grid: GridSpec, where: str) -> Density:
    family, p = _spec(spec, where, grid)
    if family == "cosine":
        return cosine_density(grid, p["amplitude"], mode=p["mode"], phase=p["phase"])
    if family == "custom":
        try:
            return density_from_csv(p["path"], grid)
        except OSError as exc:
            raise ConfigError(f"cannot read custom density {p['path']!r}: {exc.strerror}")
    return uniform_density(grid)


def build_potential(spec, grid: GridSpec, where: str) -> ScalarField:
    family, p = _spec(spec, where, grid)
    if family == "coefficients":
        if len(p["values"]) % 2:
            raise ConfigError(f"{where}.values needs an even length, got {len(p['values'])}")
        return field_from_coeffs(grid, np.asarray(p["values"]))
    fn = np.cos if family == "cosine" else np.sin
    return ScalarField(grid, p["amplitude"] * fn(p["mode"] * (grid.nodes - p["phase"])))


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
    t_max = _read(config["times"]["t_max"], float, "times.t_max")
    count = _read(config["times"]["count"], int, "times.count")
    if t_max <= 0.0:
        raise ConfigError(f"times.t_max must be > 0, got {t_max!r}")
    if count < 2:
        raise ConfigError(f"times.count must be >= 2, got {count}")
    grid = GridSpec(config["n"])
    return RunInputs(
        config=config,
        grid=grid,
        density=build_density(config["density"], grid, "density"),
        density_b=build_density(config["density_b"], grid, "density_b"),
        potential=build_potential(config["potential"], grid, "potential"),
        potential_b=build_potential(config["potential_b"], grid, "potential_b"),
        times=np.linspace(0.0, t_max, count),
    )


# -- report plumbing ---------------------------------------------------------


def _out_path(out_dir: str, name: str) -> str:
    """Path of the report file `name` in out_dir, which is created first."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


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
    with open(_out_path(out_dir, f"{subcommand}_report.json"), "w") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return report


def write_csv(out_dir: str, name: str, header: list[str], rows) -> None:
    """One CSV data file; floats are written as repr(float), which round-trips."""
    with open(_out_path(out_dir, name), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])


# -- subcommands -------------------------------------------------------------


def run_metric(run: RunInputs, out_dir: str) -> dict:
    gram = WeightedOperatorContext(run.density, run.config["N"]).gram
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
    hess = lie_bracket(run.potential, run.potential_b, ctx)
    lap = lie_bracket_laplacian(run.potential, run.potential_b, ctx)
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
    gamma = christoffel(ctx)
    d = gamma.shape[0]
    write_csv(out_dir, "christoffel.csv", ["k", "i", "j", "value"],
              ((k, i, j, gamma[k, i, j])
               for k in range(d) for i in range(d) for j in range(d)))
    residual = christoffel_residual(gamma, ctx)
    results = {
        "dimension": d,
        "max_ij_asymmetry": float(np.abs(gamma - gamma.transpose(0, 2, 1)).max()),
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
        "christoffel": geodesic_christoffel(mu0, v0.coeffs, times, N=N),
        "displacement": displacement_path(mu0, psi0, times),
    }
    for name, path in paths.items():
        write_csv(out_dir, f"geodesic_{name}.csv", ["time", "node", "density", "potential"],
                  ((t, x, r, p)
                   for t, mu_t, psi_t in zip(path.times, path.densities, path.potentials)
                   for x, r, p in zip(path.grid.nodes, mu_t.rho, psi_t.values)))
    results = {f"action_{name}": action(path) for name, path in paths.items()}
    results["times"] = [float(t) for t in times]
    checks = geodesic_route_checks(paths)
    return write_report(out_dir, "geodesic", run.config, results, checks)


def run_transport(run: RunInputs, out_dir: str) -> dict:
    # through two times the time spline is the chord; checked before any route runs
    if run.times.size < 3:
        raise ConfigError(f"transport needs times.count >= 3, got {run.times.size}")
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
    # the finite-difference oracle runs at FRAME_ORACLE_N and the sampled
    # pairs use modes up to N // 2; checked before any work
    if run.grid.n <= aliasing_bound(FRAME_ORACLE_N) or run.config["N"] < 2:
        raise ConfigError(f"curvature needs n > {aliasing_bound(FRAME_ORACLE_N)} and N >= 2, "
                          f"got n={run.grid.n}, N={run.config['N']}")
    grid, mu, N = run.grid, run.density, run.config["N"]
    ctx = WeightedOperatorContext(mu, N)
    rng = np.random.default_rng(run.config["seed"])

    # the first four basis directions (N >= 2 gives at least four)
    basis = [ScalarField(grid, row) for row in ctx.basis0[:4]]
    sec_base = sectional(basis[0], basis[1], ctx)

    samples = [sectional(*band_limited_pair(rng, ctx), ctx) for _ in range(16)]
    min_sec = np.min(samples)
    write_csv(out_dir, "sectional_samples.csv", ["sample", "value"],
              ((i, v) for i, v in enumerate(samples)))

    write_csv(out_dir, "riemann_table.csv", ["i", "j", "k", "l", "value"],
              ((i, j, k, l, riemann(basis[i], basis[j], basis[k], basis[l], ctx))
               for i in range(4) for j in range(i + 1, 4) for k in range(4) for l in range(4)))

    fd_check, [(fd, reference)] = fd_oracle_check(
        [(WeightedOperatorContext(mu, FRAME_ORACLE_N), (0, 1, 0, 1))])
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
    # the coupling's entries above 1e-15, by atom index and location
    write_csv(out_dir, "coupling.csv",
              ["source_index", "target_index", "source_location", "target_location", "mass"],
              ((i, j, plan.locations_a[i], plan.locations_b[j], plan.coupling[i, j])
               for i, j in zip(*np.nonzero(plan.coupling > 1e-15))))
    density_to_csv(mu, _out_path(out_dir, "density_a.csv"))
    density_to_csv(nu, _out_path(out_dir, "density_b.csv"))
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
    # its geodesic scenario runs at SCENARIO_N and its band-limited sweeps
    # use modes up to N // 2; checked before any criterion runs
    if config["n"] <= aliasing_bound(SCENARIO_N) or config["N"] < 2:
        raise ConfigError(f"validate needs n > {aliasing_bound(SCENARIO_N)} and N >= 2, "
                          f"got n={config['n']}, N={config['N']}")
    records = run_all(**config)
    for record in records:
        print(format_record(record))
    write_csv(out_dir, "validate_summary.csv",
              ["criterion", "name", "check", "value", "threshold", "op", "passed"],
              ((r["index"], r["name"], c["name"], c["value"], c["threshold"],
                c["op"], int(c["passed"]))
               for r in records for c in r["checks"]))
    results = {"records": records}
    checks = [check(f"criterion_{r['index']:02d}_{r['name']}", 1.0 if r["passed"] else 0.0,
                    0.5, op=">=") for r in records]
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
        # --out's nearest existing ancestor must be a directory to hold it
        ancestor = os.path.abspath(args.out)
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise ConfigError(f"--out {args.out!r}: {ancestor!r} is not a directory")
        report = SUBCOMMANDS[args.subcommand](run, args.out)
    # LinAlgError (a singular Gram solve) subclasses ValueError: catch it first
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # an OSError is a report file that --out cannot take
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    status = "ok" if report["passed"] else "TOLERANCE BREACH"
    print(f"{args.subcommand}: {status} "
          f"(report in {os.path.join(args.out, args.subcommand + '_report.json')})")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
