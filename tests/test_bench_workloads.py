"""The benchmark's galerkin_large workload runs one pass with no failed item,
at the benchmark's own tolerances: a library change that breaks an API the
benchmark calls fails here, not only in a benchmark run."""

from pathlib import Path

import ottocircle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_galerkin_large_pass_has_no_failed_item(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import workloads

    workload = workloads.GalerkinLarge(ottocircle, 0, str(tmp_path))
    tally = harness.Tally()
    workload.run_pass(tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures
