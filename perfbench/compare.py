#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE.json CHANGE.json

Both files come from `perfbench/run.py --runs N --out FILE` (end-to-end
mode, the same seed and --seconds on both sides). For every workload and
end-to-end metric it prints each side's median and quartiles over its
runs, the metric's bound from BENCHMARK.json, and a verdict:

  within      CHANGE's median is no worse than BASE's by more than the bound
  worse       CHANGE's median is worse than BASE's by more than the bound
  unresolved  the run-to-run spread (quartile distance over the median, the
              wider of the two sides) exceeds the bound, so the medians
              cannot be told apart; a side whose every run beats every run
              of the other still counts as within

Exits 0 when every verdict is `within`, 1 otherwise.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, change, better, bound):
    """Returns (verdict, change worse-by share, spread)."""
    mb, mc = statistics.median(base), statistics.median(change)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (mc - mb) / mb if mb else 0.0
    wide = max(spread(base), spread(change))
    if wide > bound:
        if better == "lower":
            beats = max(change) < min(base)
        else:
            beats = min(change) > max(base)
        return ("within" if beats else "unresolved"), worse_by, wide
    return ("worse" if worse_by > bound else "within"), worse_by, wide


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        change = json.load(f)
    if base.get("trace") or change.get("trace"):
        print("compare.py: traced results carry per-layer metrics, which have "
              "no bound; compare end-to-end runs", file=sys.stderr)
        return 2

    print("%-16s %-12s %-8s %28s %28s %8s %7s %6s  %s"
          % ("workload", "metric", "unit", "base median [p25, p75]",
             "change median [p25, p75]", "worse by", "spread", "bound",
             "verdict"))
    all_within = True
    for workload, per_metric in base["workloads"].items():
        other = change["workloads"].get(workload)
        for m in metrics:
            a = per_metric.get(m["name"], {}).get("values", [])
            b = (other or {}).get(m["name"], {}).get("values", [])
            if not a or not b:
                print("%-16s %-12s missing on one side" % (workload,
                                                           m["name"]))
                all_within = False
                continue
            v, worse_by, wide = verdict(a, b, m["better"], m["bound"])
            all_within &= v == "within"
            qa, qb = quartiles(a), quartiles(b)
            print("%-16s %-12s %-8s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, "
                  "%7.4g] %+7.2f%% %6.2f%% %5.0f%%  %s"
                  % (workload, m["name"], m["unit"], statistics.median(a),
                     qa[0], qa[1], statistics.median(b), qb[0], qb[1],
                     100 * worse_by, 100 * wide, 100 * m["bound"], v))
    return 0 if all_within else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
