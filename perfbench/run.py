"""ottocircle benchmark: one workload, one seed, one process per run.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's src/, never from an installed copy.  With --trace 0 the run
measures the end-to-end metrics with tracing off; with --trace 1 it also
makes one traced pass and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is the JSON result.  The
exit code is 0 when every output check held, 1 when one failed, 2 when the
checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import Tally, Tracer, median, nearest_rank, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def import_ottocircle():
    """Import the package from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "ottocircle" / "__init__.py").is_file():
        print(f"perfbench: no ottocircle sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ottocircle
    import ottocircle.cli

    if Path(ottocircle.__file__).resolve().parent != src / "ottocircle":
        print(f"perfbench: imported ottocircle from {ottocircle.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return ottocircle


# -- environment ---------------------------------------------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _blas() -> list[dict]:
    """Every OpenBLAS loaded in this process, with its effective thread count."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return [{"library": "unknown"}]
    found = []
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment(oc, workload, seed: int, trace: int) -> dict:
    """What a result depends on.  Results are comparable only when every key
    but commit, package version and seed agrees (see compare.py)."""
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "seed": seed,
        "trace": trace,
        "workload": workload.name,
        "sizes_n_N": workload.sizes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ottocircle": oc.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# -- set-up ----------------------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> None:
    """Child side of a set-up measurement: import, make the inputs, report."""
    start = time.perf_counter()
    oc = import_ottocircle()
    imported = time.perf_counter()
    import workloads

    workdir = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-")
    try:
        workloads.WORKLOADS[workload_name](oc, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": imported - start}), flush=True)


def measure_setup(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times (spawn to inputs ready) and import times."""
    setups, imports = [], []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload_name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=PROBE_TIMEOUT_S) != 0 or not line:
                sys.exit(f"perfbench: set-up probe exited with {child.returncode}")
        setups.append(ready - start)
        imports.append(json.loads(line)["import_s"])
    return setups, imports


# -- passes ----------------------------------------------------------------------


def run_passes(workload, tally: Tally, seconds: float) -> list[float]:
    """Closed-loop passes while another typical pass still fits in `seconds`
    (at least one pass)."""
    walls = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        workload.run_pass(tally)
        walls.append(time.perf_counter() - start)
        if time.perf_counter() - begin + median(walls) > seconds:
            return walls


def end_to_end(setups, walls) -> dict:
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "wall_s": (median(walls), "s", len(walls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def print_item_latency(tally: Tally) -> None:
    """Per-item latency percentiles.  They are printed, not reported: with
    ten or so heterogeneous items per pass (cli_defaults, galerkin_large)
    they follow one item's noise, which on a shared machine exceeds any
    usable regression bound."""
    latencies = tally.item_latencies_ms()
    tail = tail_percentile(len(latencies))
    print(f"item latency over {len(latencies)} items ({len(tally.samples)} timed attempts): "
          f"p50 {nearest_rank(latencies, 50.0):.4g} ms, p90 {nearest_rank(latencies, 90.0):.4g} ms; "
          f"highest percentile with >= 10 samples beyond it: {'none' if tail is None else f'p{tail:g}'}")


def per_layer(tracer: Tracer, traced_wall: float, untraced_walls, imports, workload,
              tally: Tally) -> dict:
    values = {}
    for span in harness.span_names():
        values[f"{span}.calls"] = tracer.calls.get(span, 0)
        values[f"{span}.self_s"] = tracer.self_s.get(span, 0.0)
    for name in harness.CRITERIA:
        values[f"validation.{name}.wall_s"] = tracer.wall_s.get(f"validation.{name}", 0.0)
    for sub in harness.CLI_SUBCOMMANDS:
        values[f"cli.{sub}.wall_s"] = tracer.wall_s.get(f"cli.{sub}", 0.0)
    ratio, base = harness.hit_ratio(tracer.calls.get("ot_oracle.table_build", 0),
                                    tracer.calls.get("ot_oracle.table", 0))
    untraced = median(untraced_walls)
    values.update({
        "ot_oracle.table_hit_ratio": ratio,
        "cli.bytes_written": getattr(workload, "bytes_written", 0),
        "setup.import_s": median(imports),
        "trace_overhead_frac": (traced_wall - untraced) / untraced,
        "unattributed_s": traced_wall - tracer.total_self_s(),
        "check.worst_tol_ratio": tally.worst_tol_ratio,
        "check.error_rate": tally.error_rate,
    })
    rows = {name: (values[name], unit, 1) for name, unit, _ in harness.per_layer_metrics()}
    rows["ot_oracle.table_hit_ratio"] = (ratio, "ratio", base)  # the sample count is its base
    return rows


def attribution(tracer: Tracer, traced_wall: float) -> dict:
    """Shares of the traced wall time that the acceptance criteria name."""
    galerkin = sum(t for span, t in tracer.self_s.items()
                   if span.split(".")[0] in harness.GALERKIN_LAYERS)
    return {
        "table_build_self_share": tracer.self_s.get("ot_oracle.table_build", 0.0) / traced_wall,
        "connection_geodesics_operators_grid_self_share": galerkin / traced_wall,
        "ot_oracle_calls": sum(c for span, c in tracer.calls.items() if span.startswith("ot_oracle.")),
    }


def print_metrics(metrics: dict) -> None:
    print(f"{'metric':<44} {'value':>14} {'unit':<9} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit:<9} {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    oc = import_ottocircle()
    setups, imports = measure_setup(args.workload, args.seed)
    workdir = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-")
    try:
        workload = workloads.WORKLOADS[args.workload](oc, args.seed, workdir)
        print("environment " + json.dumps(environment(oc, workload, args.seed, args.trace), sort_keys=True))
        tally = Tally()
        walls = run_passes(workload, tally, args.seconds)
        extra = workload.finish(tally)
        if args.trace:  # after finish(), so that its re-runs stay out of the spans
            tracer = Tracer()
            harness.install(tracer, oc)
            start = time.perf_counter()
            workload.run_pass(tally)
            traced_wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name}: {len(walls)} untraced pass(es), {tally.attempted} attempts, "
          f"{tally.failed} failed, error_rate {tally.error_rate:.6g}, "
          f"worst_tol_ratio {tally.worst_tol_ratio:.6g}")
    for _, name, reason in tally.failures:
        print(f"FAILED {name}: {reason}")
    print("pass_wall_s " + json.dumps(walls))
    if extra:
        print("determinism " + json.dumps(extra, sort_keys=True))
    if args.trace:
        metrics = per_layer(tracer, traced_wall, walls, imports, workload, tally)
        print("attribution " + json.dumps(attribution(tracer, traced_wall), sort_keys=True))
    else:
        metrics = end_to_end(setups, walls)
        print_item_latency(tally)
    print_metrics(metrics)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
