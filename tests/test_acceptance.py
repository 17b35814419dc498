"""Acceptance gate: every validation criterion at its stated tolerance.

Each criterion prints one pass/fail line (run pytest with -s to see them all
even on success).  The shared session fixes n=256, N=8, seed=0, matching the
`ottocircle validate` defaults.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ottocircle import WeightedOperatorContext, validation
from ottocircle.validation import (
    CRITERIA,
    ValidationSession,
    criterion_8_curvature,
    fd_oracle_check,
    format_record,
    geodesic_route_checks,
)


@pytest.fixture(scope="module")
def session():
    return ValidationSession(n=256, N=8, seed=0)


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion, session):
    record = criterion(session)
    line = format_record(record)
    print(line)
    failed = [c for c in record["checks"] if not c["passed"]]
    assert record["passed"], f"{line}; failing checks: {failed}"


def _nan_on_call(fn, index):
    """Wrap fn so that its index-th call (0-based) returns NaN."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        return np.nan if len(calls) == index + 1 else fn(*args, **kwargs)

    return wrapped


def test_nan_route_fails_max_check(session, monkeypatch):
    monkeypatch.setattr(validation, "riemann_fd_oracle",
                        _nan_on_call(validation.riemann_fd_oracle, 1))
    ctx4 = WeightedOperatorContext(session.vol, 4)
    fd_check, _ = fd_oracle_check([(ctx4, (0, 1, 0, 1)), (ctx4, (0, 1, 0, 1))])
    assert np.isnan(fd_check["value"])
    assert not fd_check["passed"]


def test_nan_route_fails_min_check(session, monkeypatch):
    # call 0 is the first-harmonic value; calls 1-8 are the sampled sectionals
    monkeypatch.setattr(validation, "sectional", _nan_on_call(validation.sectional, 3))
    record = criterion_8_curvature(session)
    by_name = {c["name"]: c for c in record["checks"]}
    assert by_name["sectional_first_harmonics"]["passed"]
    assert np.isnan(by_name["min_sampled_sectional"]["value"])
    assert not by_name["min_sampled_sectional"]["passed"]
    assert not record["passed"]


def test_nan_continuity_residual_fails(monkeypatch):
    paths = {name: SimpleNamespace(densities=[SimpleNamespace(rho=np.ones(4))] * 7)
             for name in ("hj", "christoffel", "displacement")}

    def residual(p):
        out = np.full(7, np.nan)
        out[2:-2] = 1e-9
        if p is paths["christoffel"]:
            out[3] = np.nan
        return out

    monkeypatch.setattr(validation, "continuity_residual", residual)
    checks = {c["name"]: c for c in geodesic_route_checks(paths)}
    assert checks["hj_vs_christoffel_sup"]["passed"]
    assert np.isnan(checks["continuity_residual"]["value"])
    assert not checks["continuity_residual"]["passed"]
