"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import harness
from harness import Check, Tally, Tracer

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- percentiles ---------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (19, None),      # the median has 9 samples beyond it
    (20, 50.0),
    (99, 50.0),      # p90 is the 90th sample: 9 beyond
    (100, 90.0),     # p90 is the 90th sample: 10 beyond
    (999, 90.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert harness.tail_percentile(count) == expected


def test_samples_beyond_counts_above_the_nearest_rank():
    assert harness.samples_beyond(100, 90.0) == 10
    assert harness.samples_beyond(303, 90.0) == 303 - 273
    assert harness.samples_beyond(1, 50.0) == 0


def test_nearest_rank_returns_an_observed_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert harness.nearest_rank(values, 50.0) == 3.0
    assert harness.nearest_rank(values, 90.0) == 5.0
    assert harness.nearest_rank(values, 0.0) == 1.0
    with pytest.raises(ValueError):
        harness.nearest_rank([], 50.0)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_directly_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(1.0)

    traced_leaf = tracer.span("grid.leaf", leaf)

    def middle():
        clock.advance(2.0)
        traced_leaf()
        traced_leaf()

    traced_middle = tracer.span("operators.middle", middle)

    def outer():
        clock.advance(4.0)
        traced_middle()

    tracer.span("connection.outer", outer)()
    assert tracer.calls == {"grid.leaf": 2, "operators.middle": 1, "connection.outer": 1}
    assert tracer.self_s["grid.leaf"] == 2.0
    assert tracer.self_s["operators.middle"] == 2.0
    assert tracer.self_s["connection.outer"] == 4.0
    assert tracer.total_self_s() == 8.0  # equals the outer span: nothing counted twice


def test_phase_spans_are_transparent_to_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    layer = tracer.span("ot_oracle.table_build", lambda: clock.advance(3.0))

    def criterion():
        clock.advance(0.5)
        layer()

    tracer.phase("validation.criterion_07", criterion)()
    assert tracer.wall_s["validation.criterion_07"] == 3.5
    assert tracer.self_s["ot_oracle.table_build"] == 3.0
    assert tracer.total_self_s() == 3.0  # the criterion's own 0.5 s stays unattributed


def test_self_time_survives_a_raising_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise RuntimeError("inner")

    inner = tracer.span("grid.boom", boom)

    def outer():
        clock.advance(1.0)
        with pytest.raises(RuntimeError):
            inner()

    tracer.span("geodesics.outer", outer)()
    assert tracer.self_s == {"grid.boom": 1.0, "geodesics.outer": 1.0}


# -- hit ratio -----------------------------------------------------------------


def test_hit_ratio_is_taken_over_lookups():
    assert harness.hit_ratio(builds=24, lookups=300) == (pytest.approx(0.92), 300)
    assert harness.hit_ratio(builds=5, lookups=5) == (0.0, 5)


def test_hit_ratio_without_lookups_has_base_zero():
    assert harness.hit_ratio(builds=0, lookups=0) == (0.0, 0)


def test_hit_ratio_rejects_more_builds_than_lookups():
    with pytest.raises(ValueError):
        harness.hit_ratio(builds=3, lookups=2)


# -- error rate ----------------------------------------------------------------


def test_error_rate_counts_failed_items_once():
    tally = Tally()
    tally.item("ok", lambda: 1.0, lambda v: [Check("small", v, 2.0)])
    tally.item("raises", lambda: 1 / 0)
    tally.item("breach", lambda: 3.0, lambda v: [Check("small", v, 2.0), Check("tiny", v, 1.0)])
    tally.item("bad_check", lambda: 1.0, lambda v: [v.missing])
    tally.verify("repeatable", [Check("same", False)])
    tally.verify("fine", [Check("same", True)])
    assert tally.attempted == 6
    assert tally.failed == 4
    assert tally.error_rate == pytest.approx(4 / 6)
    assert [name for _, name, _ in tally.failures] == ["raises", "breach", "bad_check", "repeatable"]
    assert len(tally.samples) == 4  # verify() adds no latency sample


def test_error_rate_counts_attempts_not_item_names():
    tally = Tally()
    for _ in range(3):
        tally.item("flaky", lambda: 1 / 0)
    tally.item("flaky", lambda: 1.0)
    assert (tally.attempted, tally.failed) == (4, 3)


def test_item_latency_is_the_median_over_attempts():
    clock = FakeClock()
    tally = Tally()
    for cost in (1.0, 9.0, 2.0):
        tally.item("a", lambda: clock.advance(cost), clock=clock)
    tally.item("b", lambda: clock.advance(5.0), clock=clock)
    assert sorted(tally.item_latencies_ms()) == [2000.0, 5000.0]


def test_worst_tol_ratio_uses_tolerance_checks_only():
    tally = Tally()
    tally.item("a", lambda: None, lambda _: [Check("x", 5e-5, 1e-4), Check("flag", True)])
    tally.verify("b", [Check("y", 0.0, 1e-6)])
    assert tally.worst_tol_ratio == pytest.approx(0.5)
    assert tally.failed == 0


def test_non_finite_values_fail_their_check():
    assert not Check("x", float("nan"), 1.0).passed
    assert not Check("x", float("inf"), 1.0).passed


def test_lower_bound_checks_compare_against_their_limit():
    assert Check("x", 4.0, 4.0, ">=").passed and not Check("x", 3.9, 4.0, ">=").passed
    assert Check("x", 0.02, 1e-2, ">").passed and not Check("x", 1e-2, 1e-2, ">").passed
    assert Check("x", 5.0, 4.0, ">=").ratio is None  # only <= checks feed worst_tol_ratio


def test_report_checks_use_the_fixed_thresholds_only():
    import workloads

    def entry(name, value, op, threshold):
        return {"name": name, "value": value, "op": op, "threshold": threshold,
                "passed": True}  # the program's verdict and threshold are ignored

    tally = Tally()
    tally.verify("loosened", workloads.report_checks("criterion_12", [
        entry("error_reduction_factor", 3.0, ">=", 1.0)]))
    tally.verify("unknown", workloads.report_checks("criterion_12", [
        entry("error_reduction_factor", 5.0, ">=", 4.0), entry("extra", 0.0, "<=", 1.0)]))
    tally.verify("missing", workloads.report_checks("criterion_05", [
        entry("analytic_anchor_error", 1e-6, "<=", 1e-4)]))
    tally.verify("healthy", workloads.report_checks("criterion_07", [
        entry("max_relative_speed_deviation", 0.05, ">", 1e-2)]))
    assert [name for _, name, _ in tally.failures] == ["loosened", "unknown", "missing"]


def test_error_rate_needs_an_attempt():
    with pytest.raises(ValueError):
        harness.error_rate(0, 0)
    with pytest.raises(ValueError):
        harness.error_rate(2, 3)


# -- wiring ----------------------------------------------------------------------


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == harness.per_layer_metrics()


def test_install_wraps_imported_bindings():
    sys.path.insert(0, str(ROOT / "src"))
    import ottocircle as oc
    import ottocircle.cli

    tracer = Tracer()
    harness.install(tracer, oc)
    grid = oc.GridSpec(32)
    ctx = oc.WeightedOperatorContext(oc.cosine_density(grid, 0.3), 2)
    oc.christoffel(ctx)
    # the context builds three basis tables through operators' own binding
    assert tracer.calls["operators.context"] == 1
    assert tracer.calls["grid.basis_matrix"] == 3
    assert tracer.calls["connection.christoffel"] == 1
    # dispatch tables are rebound too
    assert oc.cli.SUBCOMMANDS["metric"] is oc.cli.run_metric
    assert hasattr(oc.cli.run_metric, "__wrapped__")
