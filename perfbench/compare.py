"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --out DIR`` with
``--trace 0``.  Runs are paired by workload and seed.  For every
(end-to-end metric, workload) the verdict is one of:

- ``improved``: at least ten pairs, run in alternating order, the change
  wins at least 9/10 of all pairs (ties count for neither side) and the
  medians differ by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's own spread is wider than the bound, unless
  every change run reads better than every parent run;
- ``unchanged``: otherwise.

Pairs with the same seed must also have the same output digest.  The exit
status is 1 when a verdict is ``worse``, a digest differs or a run was
incorrect.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0:
            runs[(result["workload"], result["seed"])] = result
    return runs


def verdict(parent, change, better: str, bound: float, alternating: bool) -> tuple[str, int]:
    """(verdict, pairs the change won) for one metric on one workload."""
    sign = 1 if better == "lower" else -1   # sign * value: lower is better

    def beats(a, b):
        return sign * a < sign * b

    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (mp, mp, mp)
    wins = sum(beats(c, p) for p, c in zip(parent, change))
    if (len(parent) >= MIN_PAIRS and alternating and wins >= WIN_SHARE * len(parent)
            and beats(mc, mp) and abs(mc - mp) > q3 - q1):
        return "improved", wins
    if sign * (mc - mp) > bound * abs(mp):
        return "worse", wins
    if q3 - q1 > bound * abs(mp) and not all(beats(c, p) for c in change for p in parent):
        return "unresolved", wins
    return "unchanged", wins


def alternates(pairs) -> bool:
    """Whether the side that ran first alternates from one pair to the next."""
    firsts = [p["started"] < c["started"] for p, c in sorted(
        pairs, key=lambda pc: min(pc[0]["started"], pc[1]["started"]))]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent_runs, change_runs = load(argv[0]), load(argv[1])
    status = 0
    for run in list(parent_runs.values()) + list(change_runs.values()):
        if not run["correct"]:
            print(f"incorrect run: {run['workload']} seed {run['seed']}: {run['problems'][:3]}")
            status = 1
    workloads = sorted({w for w, _ in parent_runs} & {w for w, _ in change_runs})
    print(f"{'workload':16} {'metric':16} {'verdict':10} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} wins")
    for workload in workloads:
        seeds = sorted(s for w, s in parent_runs if w == workload and (w, s) in change_runs)
        pairs = [(parent_runs[(workload, s)], change_runs[(workload, s)]) for s in seeds]
        for p, c in pairs:
            if p["digest"] != c["digest"]:
                print(f"digest differs: {workload} seed {p['seed']}")
                status = 1
        alternating = alternates(pairs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            v, wins = verdict(parent, change, metric["better"], metric["bound"], alternating)
            if v == "worse":
                status = 1
            print(f"{workload:16} {name:16} {v:10} {_summary(parent):>34} "
                  f"{_summary(change):>34} {wins}/{len(pairs)}")
        if not alternating:
            print(f"{workload}: pairs did not alternate which side ran first")
    return status


def _summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
