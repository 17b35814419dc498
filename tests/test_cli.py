"""Command-line front end: exit codes, report schema, determinism."""

import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from ottocircle import (
    GridSpec,
    NumericalError,
    cosine_density,
    density_to_csv,
    geodesic_christoffel,
    uniform_density,
    w2_lp,
)
from ottocircle import cli
from ottocircle.cli import main


def run_cli(args):
    return main(list(args))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return str(path)


def read_report(out_dir, subcommand):
    with open(out_dir / f"{subcommand}_report.json") as handle:
        return json.load(handle)


def test_metric_report_schema(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["metric", "--out", str(out)]) == 0
    report = read_report(out, "metric")
    assert report["schema_version"] == "1"
    assert report["subcommand"] == "metric"
    assert len(report["config_sha256"]) == 64
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
    with open(out / "gram.csv") as handle:
        rows = handle.read().strip().split("\n")
    assert len(rows) == 1 + 16 * 16  # header + (2N)^2 entries at N=8


def test_reports_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        for sub in ("metric", "bracket", "christoffel", "geodesic", "transport",
                    "curvature", "distance"):
            assert run_cli([sub, "--out", str(out)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert len(names) == 19  # 7 reports and 12 CSV files
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_config_hash_tracks_flags(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["metric", "--out", str(out_a)]) == 0
    assert run_cli(["metric", "--out", str(out_b), "--n", "128"]) == 0
    assert read_report(out_a, "metric")["config_sha256"] \
        != read_report(out_b, "metric")["config_sha256"]


def test_usage_errors_exit_two(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    assert run_cli(["metric", "--config", str(tmp_path / "missing.json"), "--out", out]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run_cli(["metric", "--config", str(bad_json), "--out", out]) == 2
    unknown_key = write_config(tmp_path, {"grid_points": 128})
    assert run_cli(["metric", "--config", unknown_key, "--out", out]) == 2
    assert run_cli(["metric", "--n", "10", "--N", "8", "--out", out]) == 2
    bad_family = write_config(tmp_path, {"density": {"family": "gaussian"}}, "fam.json")
    assert run_cli(["metric", "--config", bad_family, "--out", out]) == 2
    typo = write_config(tmp_path, {"density": {"family": "cosine", "amplitud": 0.3}}, "typo.json")
    assert run_cli(["metric", "--config", typo, "--out", out]) == 2
    # thresholds are fixed: a config cannot loosen one
    loosened = write_config(tmp_path, {"tolerances": {"geodesic_route_sup": 100}}, "tol.json")
    assert run_cli(["geodesic", "--config", loosened, "--out", out]) == 2
    # at n = 256 the modes 200 and 250 alias to 56 and 6
    aliased = write_config(tmp_path, {"density": {"family": "cosine", "mode": 200}}, "alias_d.json")
    assert run_cli(["metric", "--config", aliased, "--out", out]) == 2
    aliased = write_config(tmp_path, {"potential": {"family": "cosine", "amplitude": 0.1,
                                                    "mode": 250}}, "alias_p.json")
    assert run_cli(["geodesic", "--config", aliased, "--out", out]) == 2
    # geodesic's continuity residual needs 5 path times: checked before any
    # route runs; transport takes any count >= 2
    capsys.readouterr()
    short = write_config(tmp_path, {"times": {"count": 4}}, "short.json")
    assert run_cli(["geodesic", "--config", short, "--out", out]) == 2
    assert "times.count" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert run_cli(["transport", "--config", short, "--out", out]) == 0
    # unreadable inputs and an unwritable --out are usage problems, not tracebacks
    capsys.readouterr()
    missing = write_config(tmp_path, {"density": {"family": "custom",
                                                  "path": str(tmp_path / "none.csv")}}, "miss.json")
    (tmp_path / "empty.csv").write_text("")
    empty = write_config(tmp_path, {"density": {"family": "custom",
                                                "path": str(tmp_path / "empty.csv")}}, "empty.json")
    for path in (missing, empty):
        assert run_cli(["metric", "--config", path, "--out", out]) == 2, path
    (tmp_path / "taken").write_text("")
    assert run_cli(["metric", "--out", str(tmp_path / "taken")]) == 2
    assert run_cli(["metric", "--config", str(tmp_path), "--out", out]) == 2
    assert run_cli(["metric", "--out", ""]) == 2
    # an --out below a file is caught before any work
    ran = []
    monkeypatch.setitem(cli.SUBCOMMANDS, "metric", lambda run, out_dir: ran.append(out_dir))
    assert run_cli(["metric", "--out", str(tmp_path / "taken" / "sub")]) == 2
    assert ran == []
    # a report file that cannot be written is a usage problem too (root
    # ignores file modes, so the directory creation is made to fail)

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied", args[0])

    monkeypatch.setattr(cli.os, "makedirs", refuse)
    assert run_cli(["christoffel", "--out", str(tmp_path / "unwritable")]) == 2
    assert not (tmp_path / "unwritable").exists()
    err = capsys.readouterr().err
    assert err.count("config error:") == 7 and err.count("\n") == 7


@pytest.mark.parametrize("sub, flags", [
    ("validate", ["--n", "64", "--N", "8"]),
    ("validate", ["--N", "1"]),
    ("curvature", ["--n", "16", "--N", "1"]),
    ("curvature", ["--N", "1"]),
])
def test_fixed_resolutions_are_checked_before_any_work(tmp_path, capsys, monkeypatch,
                                                       sub, flags):
    # validate builds its scenario at N = 16 and sweeps band limits up to N // 2;
    # curvature runs its finite-difference oracle at N = 4 and samples pairs
    # with modes up to N // 2
    from ottocircle import validation

    ran = []
    monkeypatch.setattr(validation, "CRITERIA", (lambda session: ran.append(session),))
    out = tmp_path / "out"
    assert run_cli([sub, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {sub} needs") and err.count("\n") == 1, err
    assert ran == [] and not out.exists()


@pytest.mark.parametrize("section", [
    {"potential": {"family": "bogus"}},
    {"times": {"t_max": -1}},
    {"atoms": 100000},
    {"density_b": {"family": "cosine", "amplitude": 5.0}},
])
def test_every_config_section_is_checked_before_dispatch(tmp_path, capsys, section):
    # each section is built for every subcommand, also those that never read it
    path = write_config(tmp_path, section)
    out = str(tmp_path / "out")
    for sub in ("metric", "bracket", "christoffel", "geodesic", "transport",
                "curvature", "distance", "validate"):
        capsys.readouterr()
        assert run_cli([sub, "--config", path, "--out", out]) == 2, sub
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, (sub, err)
    assert not (tmp_path / "out").exists()


def test_validate_hashes_only_what_it_reads(tmp_path, monkeypatch):
    # validate reads n, N and seed; a change to any other section leaves its
    # echoed config and hash alone (the criteria are stubbed: only the
    # report plumbing is under test)
    monkeypatch.setattr(cli, "run_all", lambda **kwargs: {"records": []})
    reports = []
    for atoms in (32, 128):
        path = write_config(tmp_path, {"atoms": atoms, "seed": 3}, name=f"atoms_{atoms}.json")
        out = tmp_path / f"out_{atoms}"
        assert run_cli(["validate", "--config", path, "--out", str(out)]) == 0
        reports.append(read_report(out, "validate"))
    assert reports[0]["config"] == {"n": 256, "N": 8, "seed": 3}
    assert reports[0]["config_sha256"] == reports[1]["config_sha256"]
    path = write_config(tmp_path, {"seed": 4}, name="seed_4.json")
    assert run_cli(["validate", "--config", path, "--out", str(tmp_path / "seed_4")]) == 0
    assert read_report(tmp_path / "seed_4", "validate")["config_sha256"] \
        != reports[0]["config_sha256"]


def test_non_finite_config_numbers_exit_two(tmp_path, capsys):
    # json reads the NaN and Infinity literals, and 1e400 overflows to inf;
    # each is rejected when the config is parsed, before any subcommand runs
    out = str(tmp_path / "out")
    cases = (("curvature", '{"potential": {"family": "cosine", "amplitude": NaN}}'),
             ("geodesic", '{"times": {"t_max": Infinity}}'),
             ("geodesic", '{"times": {"t_max": -Infinity}}'),
             ("distance", '{"density_b": {"family": "cosine", "amplitude": 1e400}}'))
    for idx, (sub, text) in enumerate(cases):
        path = tmp_path / f"nonfinite_{idx}.json"
        path.write_text(text)
        capsys.readouterr()
        assert run_cli([sub, "--config", str(path), "--out", out]) == 2, text
        assert "config holds the non-finite number" in capsys.readouterr().err
    # an integer literal past the float range is caught where it is read
    path = tmp_path / "big_int.json"
    path.write_text('{"density": {"family": "cosine", "amplitude": 1%s}}' % ("0" * 400))
    assert run_cli(["metric", "--config", str(path), "--out", out]) == 2
    assert "density.amplitude must be a finite number" in capsys.readouterr().err
    # also inside a list, where numpy would raise OverflowError
    path.write_text('{"potential": {"family": "coefficients", "values": [1%s, 0]}}' % ("0" * 400))
    assert run_cli(["bracket", "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: potential.values[0] must be a finite number"), err
    assert not (tmp_path / "out").exists()


# every key of every family, and every top-level value, with the kind of its
# default; a type in place of a default is the kind of a key without one
KEYS = [(f"{section}_b", {"family": family}, key, default)
        for section, families in cli._FAMILIES.items()
        for family, keys in families.items() for key, default in keys.items()]
KEYS += [(None, {}, key, cli.DEFAULT_CONFIG[key]) for key in ("n", "N", "seed", "atoms")]
KEYS += [("times", {}, key, default) for key, default in cli.DEFAULT_CONFIG["times"].items()]
BIG = 10 ** 400  # a JSON integer literal past the float range
WRONG_KIND = {
    int: [True, False, "1", 1.5, [1], BIG],
    float: [True, False, "0.1", [0.1], BIG],
    str: [True, 0, ["a.csv"], {"x": 1}],
    list: [True, "0.1", 0.1, [], [0.1, "0"], [True, 0.0], BIG],
}


@pytest.mark.parametrize("section, spec, key, default", KEYS,
                         ids=[".".join(filter(None, (s, sp.get("family"), k)))
                              for s, sp, k, _ in KEYS])
def test_values_of_the_wrong_kind_exit_two(tmp_path, capsys, monkeypatch,
                                           section, spec, key, default):
    ran = []
    for sub in cli.SUBCOMMANDS:
        monkeypatch.setitem(cli.SUBCOMMANDS, sub, lambda run, out_dir: ran.append(out_dir))
    monkeypatch.setattr(cli, "density_from_csv", lambda *args: ran.append(args))
    where = f"{section}.{key}" if section else key
    out = tmp_path / "out"
    kind = default if isinstance(default, type) else type(default)
    for idx, value in enumerate(WRONG_KIND[kind]):
        payload = {key: value} if section is None else {section: {**spec, key: value}}
        path = write_config(tmp_path, payload, f"kind_{idx}.json")
        sub = list(cli.SUBCOMMANDS)[idx % len(cli.SUBCOMMANDS)]
        capsys.readouterr()
        assert run_cli([sub, "--config", path, "--out", str(out)]) == 2, value
        err = capsys.readouterr().err
        assert re.match(rf"config error: {re.escape(where)}(\[\d+\])? must be ", err), err
        assert err.count("\n") == 1, err
    assert ran == [] and not out.exists()


@pytest.mark.parametrize("path", ["0", "2", "true"])
def test_integer_density_paths_exit_two(tmp_path, path):
    # open() takes an integer (and a bool) as a file descriptor: 0 would read
    # the CLI's stdin and 2 would close its stderr, so each case runs in a
    # subprocess; a list or an object as `path` is in the kind test above
    config = tmp_path / "config.json"
    config.write_text('{"density": {"family": "custom", "path": %s}}' % path)
    result = subprocess.run(
        [sys.executable, "-m", "ottocircle.cli", "metric", "--config", str(config),
         "--out", str(tmp_path / "out")],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("config error: density.path must be a string")
    assert result.stderr.count("config error:") == 1 and result.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_tolerance_breach_exits_one(tmp_path, monkeypatch):
    real = cli.w2_lp

    def w2_lp(*args, **kwargs):  # an LP value 50% off the exact distance
        plan = real(*args, **kwargs)
        return dataclasses.replace(plan, w2=1.5 * plan.w2)

    monkeypatch.setattr(cli, "w2_lp", w2_lp)
    out = tmp_path / "out"
    assert run_cli(["distance", "--out", str(out)]) == 1
    report = read_report(out, "distance")
    assert report["passed"] is False
    checks = {c["name"]: c for c in report["checks"]}
    assert not checks["lp_vs_circle_relative"]["passed"]
    assert checks["coupling_marginal_violation"]["passed"]


def test_caustic_exits_three(tmp_path):
    config = write_config(tmp_path, {
        "potential": {"family": "cosine", "amplitude": 2.0, "mode": 1, "phase": 0.0},
    })
    assert run_cli(["geodesic", "--config", config, "--out", str(tmp_path / "out")]) == 3


def test_unconverged_characteristics_exit_three(tmp_path, capsys):
    # the first caustic sits at t = 1/0.99, just past t_max = 1: the
    # characteristic Newton solve stalls and must fail loudly, not return
    config = write_config(tmp_path, {
        "potential": {"family": "cosine", "amplitude": 0.99, "mode": 1, "phase": 0.0},
    })
    assert run_cli(["geodesic", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_cholesky_breakdown_exits_three(tmp_path, monkeypatch, capsys):
    # break only the factorizations of the RK4 stage solves; every context's
    # own factorization at its base density still succeeds
    import ottocircle.operators as operators

    real = operators.cho_factor
    stage_calls = []

    def broken(*args, **kwargs):
        if sys._getframe(1).f_code.co_name != "project_at":
            return real(*args, **kwargs)
        stage_calls.append(1)
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(operators, "cho_factor", broken)
    for sub in ("geodesic", "transport"):
        capsys.readouterr()
        stage_calls.clear()
        assert run_cli([sub, "--out", str(tmp_path / "out")]) == 3, sub
        assert stage_calls == [1], sub
        assert "numerical failure: not positive definite" in capsys.readouterr().err


def test_nonpositive_rk4_density_exits_three(tmp_path, monkeypatch, capsys):
    # a mass-preserving drift that takes rho = 1 + 8.5 t cos x just below zero
    # at the path time t = 0.125, while the Gram matrix stays positive definite
    monkeypatch.setattr("ottocircle.geodesics._continuity_rhs",
                        lambda rho, dpsi, grid: 8.5 * np.cos(grid.nodes))
    assert run_cli(["geodesic", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: hj route" in err
    assert "t = 0.125" in err
    coeffs = np.zeros(16)
    coeffs[0] = 0.1
    with pytest.raises(NumericalError, match=r"christoffel route: .* t = 0\.125"):
        geodesic_christoffel(uniform_density(GridSpec(256)), coeffs, np.linspace(0.0, 1.0, 17))


def test_bracket_report_carries_both_routes(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["bracket", "--out", str(out)]) == 0
    report = read_report(out, "bracket")
    hess = np.array(report["results"]["coefficients_hessian_route"])
    lap = np.array(report["results"]["coefficients_laplacian_route"])
    assert hess.shape == (16,)
    np.testing.assert_allclose(hess, lap, atol=1e-8)


def test_geodesic_artifacts(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["geodesic", "--out", str(out)]) == 0
    for route in ("hj", "christoffel", "displacement"):
        assert (out / f"geodesic_{route}.csv").exists()
    report = read_report(out, "geodesic")
    assert report["results"]["action_hj"] == pytest.approx(
        report["results"]["action_christoffel"], rel=1e-6
    )


def test_distance_artifacts(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["distance", "--out", str(out)]) == 0
    # the coupling's entries above 1e-15, as the library LP gives them at the
    # defaults: uniform against 1 + 0.3 cos x on 64 atoms
    grid = GridSpec(256)
    plan = w2_lp(uniform_density(grid), cosine_density(grid, 0.3), m=64)
    src, dst = np.nonzero(plan.coupling > 1e-15)
    rows = (out / "coupling.csv").read_text().strip().split("\n")
    assert rows[0] == "source_index,target_index,source_location,target_location,mass"
    assert len(rows) == 1 + src.size
    i, j = src[-1], dst[-1]
    assert [float(v) for v in rows[-1].split(",")] == [
        i, j, plan.locations_a[i], plan.locations_b[j], plan.coupling[i, j]]
    assert (out / "density_a.csv").exists()
    assert (out / "density_b.csv").exists()
    report = read_report(out, "distance")
    assert report["results"]["w2_lp"] == pytest.approx(
        report["results"]["w2_circle"], rel=0.02
    )


def test_curvature_and_christoffel(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["curvature", "--out", str(out)]) == 0
    report = read_report(out, "curvature")
    assert report["results"]["sectional_first_harmonics"] == pytest.approx(3.0, abs=1e-6)
    assert run_cli(["christoffel", "--out", str(out)]) == 0
    assert (out / "christoffel.csv").exists()


def test_nan_sectional_sample_fails_curvature(tmp_path, monkeypatch):
    real = cli.sectional
    calls = []

    def sectional(*args):
        calls.append(None)
        return np.nan if len(calls) == 3 else real(*args)  # one random sample

    monkeypatch.setattr(cli, "sectional", sectional)
    out = tmp_path / "out"
    assert run_cli(["curvature", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in read_report(out, "curvature")["checks"]}
    assert not checks["min_sampled_sectional"]["passed"]
    assert checks["sectional_first_harmonics_error"]["passed"]


def test_custom_density_from_csv(tmp_path):
    grid = GridSpec(256)
    csv_path = tmp_path / "profile.csv"
    density_to_csv(cosine_density(grid, 0.2, mode=2), csv_path)
    config = write_config(tmp_path, {"density": {"family": "custom", "path": str(csv_path)}})
    assert run_cli(["metric", "--config", config, "--out", str(tmp_path / "out")]) == 0


def test_coefficient_potential(tmp_path):
    values = [0.0] * 16
    values[1] = 0.1  # sin-1 basis direction
    config = write_config(tmp_path, {
        "potential": {"family": "coefficients", "values": values},
        "times": {"t_max": 0.5, "count": 9},
    })
    assert run_cli(["geodesic", "--config", config, "--out", str(tmp_path / "out")]) == 0


def test_module_invocation_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ottocircle.cli", "metric", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "metric: ok" in result.stdout
    helptext = subprocess.run(
        [sys.executable, "-m", "ottocircle.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert helptext.returncode == 0
    for name in ("metric", "bracket", "christoffel", "geodesic",
                 "transport", "curvature", "distance", "validate"):
        assert name in helptext.stdout


def test_validate_defaults_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["validate", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") >= 12
    report = read_report(out, "validate")
    assert len(report["results"]["records"]) == 12
    assert "elapsed_seconds" not in report["results"]
    assert all(r["passed"] for r in report["results"]["records"])
    assert (out / "validate_summary.csv").exists()
