"""The benchmark's workloads.

Each workload makes its inputs from a seed when it is constructed (that is
part of set-up), then runs passes: closed loops with one caller, in which the
next item starts when the previous one returns.  Every item's output is
checked against the fixed tolerances below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import numpy as np

from harness import Check, Tally

TWO_PI = 2.0 * np.pi

# The threshold of every check that ottocircle's CLI reports carry, keyed by
# (subcommand, or criterion of validate, check name, op).  The values are the
# ones hardcoded in ottocircle (cli.DEFAULT_CONFIG and validation.py), copied
# here so that loosening them in the program cannot loosen the benchmark.  A
# reported check with no entry here fails, and so does a missing one.
REPORT_THRESHOLDS = {
    ("metric", "gram_symmetry", "<="): 1e-12,
    ("metric", "positive_definite", ">"): 0.0,
    ("bracket", "route_agreement", "<="): 1e-8,
    ("christoffel", "assembly_residual", "<="): 1e-8,
    ("geodesic", "hj_vs_christoffel_sup", "<="): 1e-4,
    ("geodesic", "hj_vs_displacement_sup", "<="): 1e-4,
    ("geodesic", "christoffel_vs_displacement_sup", "<="): 1e-4,
    ("geodesic", "continuity_residual", "<="): 1e-5,
    ("transport", "norm_drift", "<="): 1e-5,
    ("transport", "self_parallelism", "<="): 1e-5,
    ("curvature", "sectional_first_harmonics_error", "<="): 1e-6,
    ("curvature", "fd_oracle_relative", "<="): 1e-3,
    ("curvature", "min_sampled_sectional", ">="): -1e-10,
    ("distance", "lp_vs_circle_relative", "<="): 0.02,
    ("distance", "coupling_marginal_violation", "<="): 1e-9,
    ("criterion_01", "max_abs_error", "<="): 1e-12,
    ("criterion_02", "antisymmetry", "<="): 1e-9,
    ("criterion_02", "route_agreement", "<="): 1e-8,
    ("criterion_02", "sign_convention_invariance", "<="): 1e-10,
    ("criterion_03", "half_sum_identity", "<="): 1e-8,
    ("criterion_03", "torsion_identity", "<="): 1e-8,
    ("criterion_03", "metric_compatibility_fd", "<="): 1e-6,
    ("criterion_04", "hj_vs_christoffel_sup", "<="): 1e-4,
    ("criterion_04", "hj_vs_displacement_sup", "<="): 1e-4,
    ("criterion_04", "christoffel_vs_displacement_sup", "<="): 1e-4,
    ("criterion_04", "continuity_residual", "<="): 1e-5,
    ("criterion_05", "max_relative_speed_deviation", "<="): 1e-3,
    ("criterion_05", "analytic_anchor_error", "<="): 1e-4,
    ("criterion_06", "action_error", "<="): 1e-4,
    ("criterion_07", "max_relative_speed_deviation", ">"): 1e-2,
    ("criterion_08", "sectional_first_harmonics", "<="): 1e-6,
    ("criterion_08", "tensor_symmetries", "<="): 1e-8,
    ("criterion_08", "first_bianchi", "<="): 1e-8,
    ("criterion_08", "min_sampled_sectional", ">="): -1e-10,
    ("criterion_08", "fd_oracle_relative", "<="): 1e-3,
    ("criterion_09", "antisymmetry_norm", "<="): 1e-9,
    ("criterion_10", "lp_vs_circle_relative", "<="): 0.02,
    ("criterion_10", "coupling_marginal_violation", "<="): 1e-9,
    ("criterion_10", "triangle_slack", ">="): -1e-6,
    ("criterion_11", "norm_drift", "<="): 1e-5,
    ("criterion_11", "self_parallelism", "<="): 1e-5,
    ("criterion_12", "error_reduction_factor", ">="): 4.0,
}
CRITERION_NAMES = ("gram_diagonalization", "bracket_identities", "connection_identities",
                   "geodesic_route_agreement", "constant_speed", "action_equals_squared_distance",
                   "non_geodesic_contrast", "curvature", "t_tensor_antisymmetry",
                   "transport_oracle_cross_validation", "parallel_transport", "truncation_convergence")
# validate's own report carries one pass flag (1.0 or 0.0) per criterion
REPORT_THRESHOLDS.update({("validate", f"criterion_{i:02d}_{name}", ">="): 0.5
                          for i, name in enumerate(CRITERION_NAMES, 1)})

# galerkin_large's own checks, at the DEFAULT_CONFIG values of the same quantities
TOLERANCES = {
    "gram_symmetry": 1e-12,
    "assembly_residual": 1e-8,
    "route_sup": 1e-4,
    "continuity_residual": 1e-5,
    "norm_drift": 1e-5,
    "min_sectional": -1e-10,
}


def report_checks(scope: str, entries) -> list[Check]:
    """Checks of one report's (or one criterion's) check entries against the
    fixed thresholds, ignoring the program's own thresholds and verdicts."""
    checks, seen = [], set()
    for c in entries:
        key = (scope, c["name"], c["op"])
        seen.add(key)
        if key not in REPORT_THRESHOLDS:
            checks.append(Check(f"{scope}:{c['name']} {c['op']} has no fixed threshold", False))
        else:
            checks.append(Check(f"{scope}:{c['name']}", c["value"], REPORT_THRESHOLDS[key], c["op"]))
    for key in REPORT_THRESHOLDS:
        if key[0] == scope and key not in seen:
            checks.append(Check(f"{scope}:{key[1]} {key[2]} missing from the report", False))
    return checks


def _rho_stack(path) -> np.ndarray:
    return np.stack([d.rho for d in path.densities])


# -- cli_defaults --------------------------------------------------------------


class CliDefaults:
    """The 8 subcommands at their defaults, through ottocircle.cli.main.

    Reports other than validate's must be byte-identical between passes and a
    re-run; validate_report.json embeds its own elapsed time and is excluded.
    """

    name = "cli_defaults"
    RERUNS = 1

    def __init__(self, oc, seed: int, workdir: str):
        self.oc = oc
        self.seed = seed
        self.workdir = workdir
        config = oc.cli.DEFAULT_CONFIG
        self.sizes = [[config["n"], config["N"]]]
        self.subcommands = list(oc.cli.SUBCOMMANDS)
        self.hashes: list[dict[str, str]] = []
        self.bytes_written = 0

    def _invoke(self, sub: str, out: str) -> tuple[int, str]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = self.oc.cli.main([sub, "--seed", str(self.seed), "--out", out])
        return code, captured.getvalue()

    def _checks(self, sub: str, out: str, outcome) -> list[Check]:
        code, text = outcome
        if code != 0:
            return [Check(f"exit code {code}: {text.strip()[-200:]!r}", False)]
        with open(os.path.join(out, f"{sub}_report.json")) as handle:
            report = json.load(handle)
        checks = [Check("report_passed", report["passed"])] + report_checks(sub, report["checks"])
        if sub == "validate":
            records = report["results"]["records"]
            checks.append(Check("twelve criteria", [r["index"] for r in records] == list(range(1, 13))))
            for record in records:
                scope = f"criterion_{record['index']:02d}"
                checks.append(Check(f"{scope}_passed", record["passed"]))
                checks += report_checks(scope, record["checks"])
        return checks

    def _report_sha256(self, sub: str, out: str) -> str | None:
        path = os.path.join(out, f"{sub}_report.json")
        if not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()

    def _pass(self, tally: Tally, subcommands) -> int:
        """Run the subcommands into a fresh directory; returns the bytes written."""
        out = tempfile.mkdtemp(dir=self.workdir)
        try:
            for sub in subcommands:
                tally.item(f"cli:{sub}", lambda: self._invoke(sub, out),
                           lambda outcome: self._checks(sub, out, outcome))
            self.hashes.append({sub: self._report_sha256(sub, out) for sub in subcommands
                                if sub != "validate"})
            return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, tally: Tally) -> None:
        self.bytes_written = self._pass(tally, self.subcommands)

    def finish(self, tally: Tally) -> dict:
        """Re-run every subcommand but validate, then require one SHA-256 per
        report over all passes and re-runs."""
        for _ in range(self.RERUNS):
            self._pass(tally, [sub for sub in self.subcommands if sub != "validate"])
        for sub in self.hashes[-1]:
            seen = {h[sub] for h in self.hashes}
            tally.verify(f"determinism:{sub}",
                         [Check(f"one sha256 over {len(self.hashes)} runs", len(seen) == 1 and None not in seen)])
        return {"report_sha256": self.hashes[-1]}


# -- galerkin_large ------------------------------------------------------------


class GalerkinLarge:
    """Galerkin geometry at large truncations: context, Christoffel symbols,
    the three geodesic routes, parallel transport and sectional curvature."""

    name = "galerkin_large"
    SIZES = ((512, 32), (1024, 64))
    T_MAX = 1.0
    TIME_COUNT = 17
    # first caustic at this multiple of t_max; at a multiple of 2 the
    # (512, 32) routes already breach the route and continuity tolerances
    CAUSTIC_MULTIPLE = 4.0
    PLANES = 16

    def __init__(self, oc, seed: int, workdir: str):
        self.oc = oc
        self.sizes = [list(s) for s in self.SIZES]
        self.times = np.linspace(0.0, self.T_MAX, self.TIME_COUNT)
        rng = np.random.default_rng(seed)
        self.cases = []
        for n, N in self.SIZES:
            grid = oc.GridSpec(n)
            mu = oc.cosine_density(grid, rng.uniform(0.2, 0.4), phase=rng.uniform(0.0, TWO_PI))
            k = np.arange(1, 5)[:, None]
            a, b = rng.standard_normal((2, 4, 1)) / k**2
            # psi and psi'' of sum_k a_k cos kx + b_k sin kx, psi'' on a 4x finer grid
            x_fine = TWO_PI * np.arange(4 * n) / (4 * n)
            curvature_min = float((-(k**2) * (a * np.cos(k * x_fine) + b * np.sin(k * x_fine))).sum(0).min())
            scale = -1.0 / (self.CAUSTIC_MULTIPLE * self.T_MAX * curvature_min)
            psi = oc.ScalarField(grid, scale * (a * np.cos(k * grid.nodes) + b * np.sin(k * grid.nodes)).sum(0))
            half = N // 2
            planes = np.zeros((self.PLANES, 2, 2 * N))
            planes[:, :, : 2 * half] = rng.standard_normal((self.PLANES, 2, 2 * half))
            self.cases.append({"n": n, "N": N, "mu": mu, "psi": psi,
                               "v0": rng.standard_normal(2 * N), "planes": planes})

    def _geodesics(self, case, ctx):
        oc = self.oc
        v0 = oc.vector_from_potential(case["psi"], ctx)
        return (oc.geodesic_hj(case["mu"], case["psi"], self.times),
                oc.geodesic_christoffel(case["mu"], v0, self.times, N=case["N"]),
                oc.displacement_path(case["mu"], case["psi"], self.times))

    def _route_checks(self, paths) -> list[Check]:
        hj, ch, di = (_rho_stack(p) for p in paths)
        return [
            Check("hj_vs_christoffel_sup", float(np.abs(hj - ch).max()), TOLERANCES["route_sup"]),
            Check("hj_vs_displacement_sup", float(np.abs(hj - di).max()), TOLERANCES["route_sup"]),
            Check("christoffel_vs_displacement_sup", float(np.abs(ch - di).max()), TOLERANCES["route_sup"]),
            Check("continuity_residual",
                  float(max(np.nanmax(self.oc.continuity_residual(p)) for p in paths[:2])),
                  TOLERANCES["continuity_residual"]),
        ]

    def _transport_checks(self, case, moved) -> list[Check]:
        oc = self.oc
        norms = [oc.otto_norm(v, oc.metric_gram(v.base, case["N"])) for v in moved]
        drift = max(abs(nm - norms[0]) for nm in norms) / norms[0]
        return [Check("norm_drift", drift, TOLERANCES["norm_drift"])]

    def _sectional(self, case, ctx) -> list[float]:
        oc = self.oc
        grid = ctx.grid
        return [oc.sectional(oc.ScalarField(grid, c1 @ ctx.basis0), oc.ScalarField(grid, c2 @ ctx.basis0), ctx)
                for c1, c2 in case["planes"]]

    def run_pass(self, tally: Tally) -> None:
        oc = self.oc
        for case in self.cases:
            tag = f"galerkin:{case['n']}x{case['N']}"
            ctx = tally.item(f"{tag}:context", lambda: oc.WeightedOperatorContext(case["mu"], case["N"]),
                             lambda c: [Check("gram_symmetry", float(np.abs(c.gram - c.gram.T).max()),
                                              TOLERANCES["gram_symmetry"])])
            tally.item(f"{tag}:christoffel", lambda: oc.christoffel_residual(oc.christoffel(ctx), ctx),
                       lambda r: [Check("assembly_residual", r, TOLERANCES["assembly_residual"])])
            paths = tally.item(f"{tag}:geodesics", lambda: self._geodesics(case, ctx), self._route_checks)
            tally.item(f"{tag}:transport",
                       lambda: oc.parallel_transport(oc.TangentVector(case["v0"], case["mu"]), paths[0]),
                       lambda moved: self._transport_checks(case, moved))
            tally.item(f"{tag}:sectional", lambda: self._sectional(case, ctx),
                       lambda values: [Check("min_sectional", min(values), TOLERANCES["min_sectional"], ">=")])

    def finish(self, tally: Tally) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (CliDefaults, GalerkinLarge)}
