#!/usr/bin/env python3
"""Compare two result sets of the timing pass: parent against change.

    python3 perfbench/compare.py parent.log change.log

Each file is the standard output of any number of ``perfbench/run.py``
runs, concatenated; the ``{"perfbench": ...}`` record lines are read and
everything else is skipped.  Runs pair up by (workload, seed).  For every
workload and end-to-end metric the table gives each side's median and
quartiles, the share of pairs the change wins (ties count for neither) and
a verdict, by the rule for a small sandbox:

* ``improved``: the change wins at least 9 of 10 pairs, its median is
  better by more than the parent's own quartile distance, and it fails no
  more jobs than the parent;
* ``unresolved``: the parent's quartile distance is wider than the bound
  and not every change run beats every parent run, or the metric has no
  bound and is not clearly better or worse;
* ``worse``: the change's median is worse than the parent's by more than
  the bound (or, with no bound, it loses 9 of 10 pairs by more than the
  parent's quartile distance);
* ``within bound``: otherwise.

Bounds come from ``BENCHMARK.json``.  ``error_rate`` has bound 0: it is
``worse`` whenever the change fails more jobs in total.  The exit code is
1 when any verdict is ``worse``, and 2 when no runs pair up.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """``{workload: {seed: record}}`` of the timing-pass records in a log."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith('{"perfbench"'):
            continue
        record = json.loads(line)["perfbench"]
        if record["trace"] == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, more_failures):
    """The verdict and the pair win share for one metric."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    gain = sign * (pm - cm)
    if wins >= 0.9 * len(pairs) and gain > iqr and not more_failures:
        return "improved", wins / len(pairs)
    if bound is None:
        clearly_worse = losses >= 0.9 * len(pairs) and -gain > iqr
        return ("worse" if clearly_worse else "unresolved"), wins / len(pairs)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if pm and iqr / abs(pm) > bound and not all_better:
        return "unresolved", wins / len(pairs)
    worse_by = -gain / abs(pm) if pm else (0.0 if gain >= 0 else float("inf"))
    return ("worse" if worse_by > bound else "within bound"), wins / len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    bounds["error_rate"] = 0.0
    parent_runs, change_runs = load(argv[0]), load(argv[1])
    header = (
        f"{'workload':<12} {'metric':<17} {'parent median [q1, q3]':<30} "
        f"{'change median [q1, q3]':<30} {'change':>8} {'wins':>6} {'bound':>6}  verdict"
    )
    print(header)
    any_worse = False
    paired = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[workload]) & set(change_runs[workload]))
        if not seeds:
            continue
        paired = True
        parents = [parent_runs[workload][s] for s in seeds]
        changes = [change_runs[workload][s] for s in seeds]
        more_failures = sum(r["failed"] for r in changes) > sum(r["failed"] for r in parents)
        for metric, info in parents[0]["metrics"].items():
            if not all(metric in r["metrics"] for r in changes):
                continue
            p = [r["metrics"][metric]["value"] for r in parents]
            c = [r["metrics"][metric]["value"] for r in changes]
            if None in p or None in c:
                continue
            bound = bounds.get(metric)
            word, share = verdict(p, c, info["better"], bound, more_failures)
            if metric == "error_rate":
                word = "worse" if more_failures else "within bound"
            any_worse |= word == "worse"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            print(
                f"{workload:<12} {metric:<17} "
                f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<30} "
                f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<30} {delta:>8} "
                f"{share:>6.0%} {'-' if bound is None else bound:>6}  {word} ({info['unit']}, n={len(seeds)})"
            )
    if not paired:
        print("compare: no runs pair up by (workload, seed)", file=sys.stderr)
        return 2
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
