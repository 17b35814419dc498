"""Compare saved benchmark outputs of two commits, metric by metric.

    python3 perfbench/compare.py BEFORE_1.txt BEFORE_2.txt ... -- AFTER_1.txt ...

Each file is the standard output of one `perfbench/run.py` run.  The runs are
compared only when their environment blocks agree on everything but the
commit, the package version and the seed (same workload, sizes and trace
flag, interpreter, numpy, scipy, BLAS library and thread count, cores) and
they report the same metrics; otherwise the script refuses with exit code 2.
For every metric it prints each side's median and quartiles and the change of
the median.  A metric that BENCHMARK.json gives a bound is marked REGRESSED
when its median got worse by more than that share; the exit code is then 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

NOT_COMPARED = ("commit", "ottocircle", "seed")  # the code under test and its input
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict, dict]:
    with open(path) as handle:
        lines = handle.read().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return env, json.loads(lines[-1])


def comparable_key(env: dict, result: dict) -> str:
    kept = {k: v for k, v in env.items() if k not in NOT_COMPARED}
    return json.dumps([kept, sorted(result["metrics"])], sort_keys=True)


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bounds() -> dict[str, tuple[float, str]]:
    """(bound, better) of every bounded metric in BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = [[load(p) for p in argv[:split]], [load(p) for p in argv[split + 1:]]]
    if not sides[0] or not sides[1]:
        print("compare: need at least one run on each side", file=sys.stderr)
        return 2
    if not all(result["correct"] for side in sides for _, result in side):
        print("compare: a run failed its output checks; its timings mean nothing", file=sys.stderr)
        return 2
    keys = {comparable_key(env, result) for side in sides for env, result in side}
    if len(keys) != 1:
        print("compare: environments or metric sets differ; refusing to compare:", file=sys.stderr)
        for key in sorted(keys):
            print("  " + key, file=sys.stderr)
        return 2
    limits = bounds()
    regressed = False
    names = list(sides[0][0][1]["metrics"])
    print(f"{'metric':<44} {'before q1/median/q3':>34} {'after q1/median/q3':>34} {'change':>8}")
    for name in names:
        before, after = ([r["metrics"][name]["value"] for _, r in side] for side in sides)
        b, a = summary(before), summary(after)
        change = (a[1] - b[1]) / b[1] if b[1] else float("nan")
        verdict = ""
        if name in limits:
            bound, better = limits[name]
            worse = change if better == "lower" else -change
            verdict = f"  REGRESSED (bound {bound:g})" if worse > bound else f"  ok (bound {bound:g})"
            regressed |= worse > bound
        print(f"{name:<44} {b[0]:>10.4g} {b[1]:>11.4g} {b[2]:>11.4g} "
              f"{a[0]:>10.4g} {a[1]:>11.4g} {a[2]:>11.4g} {change:>+8.1%}{verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
