"""Paired comparison of a parent result set with a change result set.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files are written by ``run.py --save`` with the same seeds and
``--seconds``; runs pair up by (workload, traced or not, seed).  For every
workload and metric the report gives each side's median and quartiles, the
fraction of pairs the change wins (ties count for neither) and one verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more than the
              metric's bound, and the parent's spread is within the bound or
              every change run reads worse than every parent run (per-layer
              metrics have no bound: the change loses 9/10 of the pairs and
              the medians differ by more than the parent's spread)
  unresolved  the parent's quartile spread, as a share of its median, is wider
              than the bound, and not every change run reads better than
              every parent run; for per-layer metrics, neither of the above
  no worse    otherwise; for per-layer metrics, identical in every pair

A gain does not count when more jobs fail: every metric of a workload whose
change runs fail more jobs than its parent runs reads worse, whatever its
timings.  The bounds and better directions come from ``BENCHMARK.json``.  The
report also says whether the exact counters repeat within each set.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import COUNTER_SUFFIXES, ROOT


def load(path: Path) -> dict[tuple, dict]:
    """``{(workload, trace, seed): result}`` with ``metrics`` reduced to
    ``{name: value}``; ``failed`` and ``attempted`` are kept."""
    runs = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        key = (rec["workload"], rec["trace"], rec["seed"])
        result = dict(rec["result"])
        result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
        runs[key] = result
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher: bool, bound: float | None):
    sign = 1.0 if higher else -1.0
    p = [sign * v for v in parent]
    c = [sign * v for v in change]
    n = len(p)
    wins = sum(ci > pi for pi, ci in zip(p, c)) / n
    losses = sum(ci < pi for pi, ci in zip(p, c)) / n
    q1, med_p, q3 = quartiles(p)
    med_c = statistics.median(c)
    spread = abs(q3 - q1)
    if wins >= 0.9 and med_c - med_p > spread:
        return wins, "improved"
    if bound is None:
        if losses >= 0.9 and med_p - med_c > spread:
            return wins, "worse"
        return wins, "no worse" if p == c else "unresolved"
    base = abs(med_p) or 1.0
    worse_by = (med_p - med_c) / base
    if worse_by > bound and (spread / base <= bound or max(c) < min(p)):
        return wins, "worse"
    if spread / base > bound and not min(c) > max(p):
        return wins, "unresolved"
    return wins, "no worse"


def counters_repeat(runs: dict[tuple, dict], workload: str) -> bool:
    sets = [
        {k: v for k, v in r["metrics"].items() if k.endswith(COUNTER_SUFFIXES)}
        for (w, trace, _), r in runs.items()
        if w == workload and trace == 1
    ]
    return all(s == sets[0] for s in sets)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired parent/change benchmark report")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m.get("bound"), 0) for m in spec["end_to_end"]]
    metrics += [(m["name"], m["better"], None, 1) for m in spec["per_layer"]]
    parent, change = load(args.parent), load(args.change)
    workloads = sorted({k[0] for k in parent} & {k[0] for k in change})
    print(
        f"{'workload':<17} {'metric':<38} {'n':>3}  {'parent median [q1, q3]':<36}"
        f"{'change median [q1, q3]':<36}{'wins':>5}  verdict"
    )
    worse = False
    for workload in workloads:
        paired = [k for k in parent if k[0] == workload and k in change]
        failed = [sum(runs[k]["failed"] for k in paired) for runs in (parent, change)]
        attempted = [sum(runs[k]["attempted"] for k in paired) for runs in (parent, change)]
        print(
            f"{workload:<17} failed jobs: parent {failed[0]} of {attempted[0]}, "
            f"change {failed[1]} of {attempted[1]}"
        )
        for name, better, bound, trace in metrics:
            keys = sorted(k for k in paired if k[1] == trace)
            p = [parent[k]["metrics"][name] for k in keys if name in parent[k]["metrics"]]
            c = [change[k]["metrics"][name] for k in keys if name in change[k]["metrics"]]
            if not p or len(p) != len(c):
                continue
            wins, word = verdict(p, c, better == "higher", bound)
            if failed[1] > failed[0]:
                word = "worse (more failed jobs)"
            worse = worse or word.startswith("worse")
            cells = [f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (quartiles(p), quartiles(c))]
            print(
                f"{workload:<17} {name:<38} {len(p):>3}  {cells[0]:<36}{cells[1]:<36}"
                f"{wins:>5.2f}  {word}"
            )
        for label, runs in (("parent", parent), ("change", change)):
            repeat = counters_repeat(runs, workload)
            print(f"{workload:<17} counters repeat exactly in the {label} set: {'yes' if repeat else 'NO'}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
