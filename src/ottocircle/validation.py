"""Acceptance-criteria evaluators shared by the test suite and the CLI.

Each criterion function measures one numbered property of the geometry stack
and returns a record: a list of named checks with measured value, threshold,
and comparison direction.  The expensive shared scenario (the reference
geodesic from the uniform density) is built once per session and reused.

Random sweeps draw from per-criterion generators seeded by (criterion index,
session seed), so a report is reproducible byte-for-byte for a given seed.

Band-limit note: identity checks that compare a Galerkin projection against
an algebraic identity use potentials with modes at most N/2.  Products of two
such potentials stay inside the 2N-mode span, so the identities hold to
solver precision instead of being polluted by truncation.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, ScalarField, OneForm, basis, deriv
from .density import Density, uniform_density, cosine_density, weighted_inner
from .operators import WeightedOperatorContext
from .tangent import TangentVector, otto_norm, vector_from_potential
from .connection import lie_bracket, covariant_derivative, parallel_transport
from .curvature import t_tensor, riemann, sectional, riemann_fd_oracle
from .geodesics import (
    action,
    constant_speed_report,
    continuity_residual,
    displacement_path,
    flow_path,
    geodesic_christoffel,
    geodesic_hj,
)
from .ot_oracle import CircleDistanceSolver, w2_lp

# Thresholds applied both by a numbered criterion and by a CLI subcommand.
# Every acceptance threshold is fixed: none is read from a config.
BRACKET_ROUTE_TOL = 1e-8
LP_RELATIVE_TOL = 0.02
MARGINAL_TOL = 1e-9
SECTIONAL_FLOOR = -1e-10
FIRST_HARMONIC_SECTIONAL_TOL = 1e-6


def check(name: str, value: float, threshold: float, op: str = "<=") -> dict:
    value = float(value)
    threshold = float(threshold)
    if op == "<=":
        ok = value <= threshold
    elif op == ">=":
        ok = value >= threshold
    elif op == ">":
        ok = value > threshold
    else:
        raise ValueError(f"unknown comparison {op!r}")
    return {"name": name, "value": value, "threshold": threshold, "op": op, "passed": bool(ok)}


def _record(index: int, name: str, checks: list[dict], details: dict | None = None) -> dict:
    rec = {
        "index": index,
        "name": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    if details:
        rec["details"] = details
    return rec


# -- scenario evaluators shared with the CLI -----------------------------------


def geodesic_route_checks(paths: dict) -> list[dict]:
    """Pairwise sup-norm gaps between the hj, christoffel and displacement
    densities, and the continuity residual of the two ODE routes."""
    rho = {name: np.stack([d.rho for d in p.densities]) for name, p in paths.items()}
    # the residual is defined at the interior times [2:-2] only
    resid = np.max([continuity_residual(paths[name])[2:-2] for name in ("hj", "christoffel")])
    return [
        check("hj_vs_christoffel_sup", np.abs(rho["hj"] - rho["christoffel"]).max(), 1e-4),
        check("hj_vs_displacement_sup", np.abs(rho["hj"] - rho["displacement"]).max(), 1e-4),
        check("christoffel_vs_displacement_sup",
              np.abs(rho["christoffel"] - rho["displacement"]).max(), 1e-4),
        check("continuity_residual", resid, 1e-5),
    ]


def transport_checks(path, v0: TangentVector,
                     psi0: ScalarField) -> tuple[list[TangentVector], list[float], list[dict]]:
    """Transport v0 along a geodesic path from psi0: Otto-norm drift of v0, and
    self-parallelism of the path's own velocity.

    Returns the transported v0 at every path time, its norms, and the checks.
    """
    N = v0.N
    moved = parallel_transport(v0, path)
    vel0 = vector_from_potential(psi0, WeightedOperatorContext(path.densities[0], N))
    moved_vel = parallel_transport(vel0, path)
    norms, self_gaps = [], []
    # one context per path time, one alive at a time: holding them all raises peak RSS
    for idx, density in enumerate(path.densities):
        ctx_t = WeightedOperatorContext(density, N)
        norms.append(otto_norm(moved[idx], ctx_t))
        vel_t = vector_from_potential(path.potentials[idx], ctx_t)
        self_gaps.append(np.abs(moved_vel[idx].coeffs - vel_t.coeffs).max())
    drift = np.max(np.abs(np.subtract(norms, norms[0]))) / norms[0]
    checks = [check("norm_drift", drift, 1e-5),
              check("self_parallelism", np.max(self_gaps), 1e-5)]
    return moved, norms, checks


def fd_oracle_check(cases) -> tuple[dict, list[tuple[float, float]]]:
    """Worst relative gap between the finite-difference frame oracle (h = 1e-3)
    and the T-tensor route over (ctx, basis quad) cases.

    Returns the check and the (oracle, T-route) value pair of every case.
    """
    values = []
    for ctx, quad in cases:
        fields = [ScalarField(ctx.grid, ctx.basis0[q]) for q in quad]
        reference = riemann(*fields, ctx)
        values.append((riemann_fd_oracle(*quad, ctx, h=1e-3), reference))
    worst = np.max([abs(fd - reference) / abs(reference) for fd, reference in values])
    return check("fd_oracle_relative", worst, 1e-3), values


def _band_limited_pair(rng, ctx: WeightedOperatorContext):
    """Random potential pair with modes at most N/2 (see band-limit note)."""
    half = ctx.N // 2
    if half < 1:
        raise ValueError("need N >= 2 for band-limited sweeps")
    fields = []
    for _ in range(2):
        c = np.zeros(2 * ctx.N)
        c[: 2 * half] = rng.standard_normal(2 * half)
        fields.append(ScalarField(ctx.grid, ctx.potential_values(c)))
    return fields


class ValidationSession:
    """Shared fixtures for the numbered acceptance criteria.

    n and N are the base resolution (criteria that pin their own resolution,
    like the geodesic scenario at N=16, build what they need on the same n).
    """

    def __init__(self, n: int = 256, N: int = 8, seed: int = 0):
        self.n = n
        self.N = N
        self.seed = seed
        self.grid = GridSpec(n)
        self.vol = uniform_density(self.grid)
        self.weighted = cosine_density(self.grid, 0.3)
        self.ctx_vol = WeightedOperatorContext(self.vol, N)
        self.ctx_weighted = WeightedOperatorContext(self.weighted, N)
        self.solver = CircleDistanceSolver()
        self._cache: dict = {}

    def rng(self, criterion: int):
        return np.random.default_rng([criterion, self.seed])

    def w2(self, mu, nu) -> float:
        return self.solver.distance(mu, nu).w2

    # scenario of criterion 4: vol, psi0 = 0.1 cos x, t in [0,1], N = 16
    @property
    def scenario_psi0(self) -> ScalarField:
        return ScalarField(self.grid, 0.1 * np.cos(self.grid.nodes))

    @property
    def scenario_times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, 17)

    def scenario_paths(self):
        if "paths" not in self._cache:
            N = 16
            psi0 = self.scenario_psi0
            times = self.scenario_times
            coeffs = np.zeros(2 * N)
            coeffs[0] = 0.1 / np.sqrt(2.0)
            self._cache["paths"] = {
                "hj": geodesic_hj(self.vol, psi0, times),
                "christoffel": geodesic_christoffel(self.vol, coeffs, times, N=N),
                "displacement": displacement_path(self.vol, psi0, times),
            }
        return self._cache["paths"]


# -- the numbered criteria ---------------------------------------------------


def criterion_1_gram(session: ValidationSession) -> dict:
    """Otto Gram matrix at the uniform density is diag(1, 1, 4, 4, ...)."""
    wave = np.repeat(np.arange(1, session.N + 1), 2).astype(np.float64)
    err = np.abs(session.ctx_vol.gram - np.diag(wave**2)).max()
    return _record(1, "gram_diagonalization", [check("max_abs_error", err, 1e-12)])


def criterion_2_bracket(session: ValidationSession) -> dict:
    """Bracket antisymmetry, agreement of both routes, sign-flip invariance."""
    rng = session.rng(2)
    ctx = session.ctx_weighted
    anti, route, sign = [], [], []
    for _ in range(50):
        f1, f2 = _band_limited_pair(rng, ctx)
        fwd = lie_bracket(f1, f2, ctx, route="hessian")
        rev = lie_bracket(f2, f1, ctx, route="hessian")
        lap = lie_bracket(f1, f2, ctx, route="laplacian")
        lap_flip = lie_bracket(f1, f2, ctx, route="laplacian", laplace_sign=-1.0)
        anti.append(np.abs(fwd.coeffs + rev.coeffs).max())
        route.append(np.abs(fwd.coeffs - lap.coeffs).max())
        sign.append(np.abs(lap.coeffs - lap_flip.coeffs).max())
    return _record(2, "bracket_identities", [
        check("antisymmetry", np.max(anti), 1e-9),
        check("route_agreement", np.max(route), BRACKET_ROUTE_TOL),
        check("sign_convention_invariance", np.max(sign), 1e-10),
    ])


def criterion_3_connection(session: ValidationSession) -> dict:
    """Half-sum identity, torsion-freeness, and metric compatibility by
    finite differences of the Gram pairing along a tangent direction."""
    rng = session.rng(3)
    ctx = session.ctx_weighted
    half_gaps, torsion_gaps = [], []
    for _ in range(50):
        f1, f2 = _band_limited_pair(rng, ctx)
        d12 = covariant_derivative(f1, f2, ctx).coeffs
        d21 = covariant_derivative(f2, f1, ctx).coeffs
        br = lie_bracket(f1, f2, ctx).coeffs
        prod = ScalarField(ctx.grid, deriv(f1).values * deriv(f2).values)
        vprod, _ = ctx.project_gradient_coeffs(deriv(prod).values)
        half_gaps.append(np.abs(d12 - 0.5 * vprod - 0.5 * br).max())
        torsion_gaps.append(np.abs(d12 - d21 - br).max())

    # metric compatibility: d/dh <V1,V2> along V3 against the connection's
    # product rule, densities perturbed by the continuity velocity of V3
    f1, f2 = _band_limited_pair(rng, ctx)
    f3, _ = _band_limited_pair(rng, ctx)
    mu = ctx.mu
    drho = -deriv(ScalarField(ctx.grid, mu.rho * deriv(f3).values), 1).values

    def pairing(rho: np.ndarray) -> float:
        return float(np.mean(deriv(f1).values * deriv(f2).values * rho))

    rhs = 0.0
    for a, b in ((f1, f2), (f2, f1)):
        nab = covariant_derivative(f3, a, ctx)
        rhs += float(np.mean(ctx.potential_values(nab.coeffs, 1) * deriv(b).values * mu.rho))
    sweep = {}
    for h in (1e-2, 1e-3, 1e-4):
        lhs = (pairing(mu.rho + h * drho) - pairing(mu.rho - h * drho)) / (2.0 * h)
        sweep[f"{h:.0e}"] = abs(lhs - rhs)
    best = np.min(list(sweep.values()))
    return _record(3, "connection_identities", [
        check("half_sum_identity", np.max(half_gaps), 1e-8),
        check("torsion_identity", np.max(torsion_gaps), 1e-8),
        check("metric_compatibility_fd", best, 1e-6),
    ], details={"metric_compatibility_h_sweep": sweep})


def criterion_4_geodesic_routes(session: ValidationSession) -> dict:
    """Pairwise sup-norm agreement of the three geodesic routes and the
    continuity residual of the ODE-based paths."""
    return _record(4, "geodesic_route_agreement",
                   geodesic_route_checks(session.scenario_paths()))


def criterion_5_constant_speed(session: ValidationSession) -> dict:
    """Pairwise W2 ratios along the geodesic are the endpoint speed; the
    endpoint distance matches the analytic small-displacement value."""
    path = session.scenario_paths()["hj"]
    report = constant_speed_report(path, session.w2)
    anchor = abs(report["w2_endpoints"] - 0.1 / np.sqrt(2.0))
    return _record(5, "constant_speed", [
        check("max_relative_speed_deviation", report["max_relative_deviation"], 1e-3),
        check("analytic_anchor_error", anchor, 1e-4),
    ], details={"w2_endpoints": report["w2_endpoints"],
                "pair_count": len(report["pairs"])})


def criterion_6_action(session: ValidationSession) -> dict:
    """Path action equals the squared endpoint distance."""
    paths = session.scenario_paths()
    path = paths["hj"]
    w2_end = session.w2(path.densities[0], path.densities[-1])
    err = abs(action(path) - w2_end**2)
    details = {name: abs(action(p) - w2_end**2) for name, p in paths.items()}
    return _record(6, "action_equals_squared_distance",
                   [check("action_error", err, 1e-4)],
                   details={"per_route": details})


def criterion_7_nongeodesic(session: ValidationSession) -> dict:
    """Pushing along the fixed gradient field is visibly not constant-speed.

    The base density 1 + 0.3 cos x and horizon t in [0, 3] make the effect
    first-order; from the uniform density the leading term cancels by parity
    and the deviation stays below the detection threshold at any horizon.
    """
    psi = session.scenario_psi0
    times = np.linspace(0.0, 3.0, 17)
    path = flow_path(session.weighted, psi, times)
    report = constant_speed_report(path, session.w2)
    return _record(7, "non_geodesic_contrast", [
        check("max_relative_speed_deviation", report["max_relative_deviation"], 1e-2, op=">"),
    ], details={"base": "1 + 0.3 cos x", "t_max": 3.0,
                "w2_endpoints": report["w2_endpoints"]})


def criterion_8_curvature(session: ValidationSession) -> dict:
    """Sectional value at the first harmonic pair, tensor symmetries, first
    Bianchi, nonnegativity, and the finite-difference frame oracle."""
    grid = session.grid
    ctx = session.ctx_vol
    b_cos = basis(grid, 1, "cos")
    b_sin = basis(grid, 1, "sin")
    sec_err = abs(sectional(b_cos, b_sin, ctx) - 3.0)

    rng = session.rng(8)
    ctx_w = session.ctx_weighted
    sym_gaps, bianchi_gaps, secs = [], [], []
    for _ in range(8):
        fs = [_band_limited_pair(rng, ctx_w)[0] for _ in range(4)]
        r1234 = riemann(fs[0], fs[1], fs[2], fs[3], ctx_w)
        sym_gaps += [
            abs(r1234 + riemann(fs[1], fs[0], fs[2], fs[3], ctx_w)),
            abs(r1234 + riemann(fs[0], fs[1], fs[3], fs[2], ctx_w)),
            abs(r1234 - riemann(fs[2], fs[3], fs[0], fs[1], ctx_w)),
        ]
        bianchi_gaps.append(abs(
            r1234 + riemann(fs[1], fs[2], fs[0], fs[3], ctx_w)
            + riemann(fs[2], fs[0], fs[1], fs[3], ctx_w)))
        secs.append(sectional(fs[0], fs[1], ctx_w))

    # frame oracle at N = 4, quads whose value is well away from zero
    ctx4 = WeightedOperatorContext(session.vol, 4)
    ctx4w = WeightedOperatorContext(session.weighted, 4)
    fd_check, _ = fd_oracle_check(
        ((ctx4, (0, 1, 0, 1)), (ctx4w, (0, 1, 0, 1)), (ctx4w, (0, 2, 1, 3))))
    return _record(8, "curvature", [
        check("sectional_first_harmonics", sec_err, FIRST_HARMONIC_SECTIONAL_TOL),
        check("tensor_symmetries", np.max(sym_gaps), 1e-8),
        check("first_bianchi", np.max(bianchi_gaps), 1e-8),
        check("min_sampled_sectional", np.min(secs), SECTIONAL_FLOOR, op=">="),
        fd_check,
    ])


def criterion_9_t_antisymmetry(session: ValidationSession) -> dict:
    """T-tensor antisymmetry on 50 band-limited pairs."""
    rng = session.rng(9)
    ctx = session.ctx_weighted
    norms = []
    for _ in range(50):
        f1, f2 = _band_limited_pair(rng, ctx)
        t12 = t_tensor(f1, f2, ctx)
        t21 = t_tensor(f2, f1, ctx)
        total = OneForm(ctx.grid, t12.residual.values + t21.residual.values)
        norms.append(np.sqrt(weighted_inner(total, total, ctx.mu)))
    return _record(9, "t_tensor_antisymmetry",
                   [check("antisymmetry_norm", np.max(norms), 1e-9)])


def criterion_10_transport_oracles(session: ValidationSession) -> dict:
    """LP route against the circular route, marginal feasibility, triangle
    inequality sampling."""
    rng = session.rng(10)
    grid = session.grid

    def random_density() -> Density:
        a1, a2 = rng.uniform(0.25, 0.45, 2)
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        values = 1.0 + a1 * np.cos(grid.nodes - t1) + 0.5 * a2 * np.sin(2.0 * (grid.nodes - t2))
        return Density(grid, values / values.mean())

    # the pair family keeps endpoint distances near 0.3: the LP's atom
    # quantization contributes an absolute error floor, so a vanishing
    # distance would make the relative comparison meaningless
    def rotated_partner(base_rng) -> tuple[Density, Density]:
        a1, a2 = base_rng.uniform(0.25, 0.45, 2)
        t1, t2 = base_rng.uniform(0.0, 2.0 * np.pi, 2)
        delta = base_rng.uniform(np.pi / 2.0, np.pi)
        va = 1.0 + a1 * np.cos(grid.nodes - t1) + 0.5 * a2 * np.sin(2.0 * (grid.nodes - t2))
        vb = 1.0 + a2 * np.cos(grid.nodes - t1 - delta) + 0.5 * a1 * np.cos(2.0 * (grid.nodes - t2 - delta))
        return Density(grid, va / va.mean()), Density(grid, vb / vb.mean())

    rel_gaps, marginals = [], []
    for _ in range(20):
        mu, nu = rotated_partner(rng)
        exact = session.solver.distance(mu, nu).w2
        plan = w2_lp(mu, nu, m=64)
        rel_gaps.append(abs(plan.w2 - exact) / exact)
        marginals += plan.marginal_errors()
    slacks = []
    for _ in range(20):
        da, db, dc = random_density(), random_density(), random_density()
        slacks.append(session.w2(da, db) + session.w2(db, dc) - session.w2(da, dc))
    return _record(10, "transport_oracle_cross_validation", [
        check("lp_vs_circle_relative", np.max(rel_gaps), LP_RELATIVE_TOL),
        check("coupling_marginal_violation", np.max(marginals), MARGINAL_TOL),
        check("triangle_slack", np.min(slacks), -1e-6, op=">="),
    ])


def criterion_11_parallel_transport(session: ValidationSession) -> dict:
    """Norm conservation and self-parallelism along the reference geodesic."""
    v0 = TangentVector(session.rng(11).standard_normal(2 * 16), session.vol)  # scenario N = 16
    _, _, checks = transport_checks(session.scenario_paths()["hj"], v0, session.scenario_psi0)
    return _record(11, "parallel_transport", checks)


def criterion_12_truncation(session: ValidationSession) -> dict:
    """Doubling the truncation from 8 to 16 shrinks the HJ-vs-Christoffel
    route error by at least 4x.

    Both routes advance the density with the same continuity stepper, so the
    comparison isolates the truncation of the potential ODE; the displacement
    route is excluded because its resampling floor does not depend on N.
    """
    psi0 = session.scenario_psi0
    times = session.scenario_times
    hj = geodesic_hj(session.vol, psi0, times, steps_per_interval=8)
    errors = {}
    for N in (8, 16):
        coeffs = np.zeros(2 * N)
        coeffs[0] = 0.1 / np.sqrt(2.0)
        ch = geodesic_christoffel(session.vol, coeffs, times, N=N, steps_per_interval=8)
        errors[N] = float(np.abs(hj.densities[-1].rho - ch.densities[-1].rho).max())
    ratio = errors[8] / max(errors[16], 1e-300)
    return _record(12, "truncation_convergence",
                   [check("error_reduction_factor", ratio, 4.0, op=">=")],
                   details={"sup_error_N8": errors[8], "sup_error_N16": errors[16]})


CRITERIA = (
    criterion_1_gram,
    criterion_2_bracket,
    criterion_3_connection,
    criterion_4_geodesic_routes,
    criterion_5_constant_speed,
    criterion_6_action,
    criterion_7_nongeodesic,
    criterion_8_curvature,
    criterion_9_t_antisymmetry,
    criterion_10_transport_oracles,
    criterion_11_parallel_transport,
    criterion_12_truncation,
)


def run_all(n: int = 256, N: int = 8, seed: int = 0) -> dict:
    """Evaluate every acceptance criterion; returns the records."""
    session = ValidationSession(n=n, N=N, seed=seed)
    records = [fn(session) for fn in CRITERIA]
    return {"records": records, "all_passed": all(r["passed"] for r in records)}


def format_record(record: dict) -> str:
    status = "PASS" if record["passed"] else "FAIL"
    parts = []
    for c in record["checks"]:
        parts.append(f"{c['name']} {c['value']:.3e} {c['op']} {c['threshold']:.1e}")
    return f"criterion {record['index']:2d} {record['name']}: {status} ({'; '.join(parts)})"
