"""Compare benchmark runs of a parent commit and a change.

Usage (each file holds records appended by ``run.py --record``)::

    python3 perfbench/compare.py parent.jsonl change.jsonl

For every workload and end-to-end metric it prints each side's median
and quartiles over the untraced runs, the pairs (same seed) the change
won, and a verdict:

* ``better`` — the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile distance;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — either side's spread (interquartile distance over
  median) is wider than the bound, unless every change run reads
  better (then ``no worse``) or worse beyond the bound (then
  ``worse``) than every parent run;
* ``no worse`` — otherwise.

From the traced runs it names, per workload, the span whose self time
per round moved most, with its layer.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path: str) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: Dict[int, float], change: Dict[int, float],
            bound: float, better: str) -> Dict:
    """Judge one metric; ``parent``/``change`` map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    p_values, c_values = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_values)
    c_q1, c_med, c_q3 = quartiles(c_values)
    worse_by = sign * (c_med - p_med) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    all_better = (max(sign * v for v in c_values)
                  < min(sign * v for v in p_values))
    all_worse = (min(sign * v for v in c_values)
                 > max(sign * v for v in p_values))
    if seeds and wins >= 0.9 * len(seeds) and \
            abs(c_med - p_med) > p_q3 - p_q1:
        outcome = "better"
    elif spread > bound:
        if all_better:
            outcome = "no worse"
        elif all_worse and worse_by > bound:
            outcome = "worse"
        else:
            outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "no worse"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "pairs": len(seeds), "worse_by": worse_by,
            "spread": spread, "verdict": outcome}


def moved_span(parent: List[Dict], change: List[Dict]
               ) -> Optional[Tuple[str, float]]:
    """The span whose median self time per round moved most."""
    def medians(records: List[Dict]) -> Dict[str, float]:
        names = {name for r in records for name in r["self_times"]}
        return {name: statistics.median(r["self_times"].get(name, 0.0)
                                        for r in records)
                for name in names}

    before, after = medians(parent), medians(change)
    deltas = {name: after.get(name, 0.0) - before.get(name, 0.0)
              for name in set(before) | set(after)}
    if not deltas:
        return None
    name = max(deltas, key=lambda n: abs(deltas[n]))
    return name, deltas[name]


def compare(parent: List[Dict], change: List[Dict], spec: Dict) -> List[Dict]:
    """One row per workload x end-to-end metric, plus the moved span."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        p_plain = [r for r in p_runs if not r["trace"]]
        c_plain = [r for r in c_runs if not r["trace"]]
        if not p_plain or not c_plain:
            continue
        p_traced = [r for r in p_runs if "self_times" in r]
        c_traced = [r for r in c_runs if "self_times" in r]
        moved = (moved_span(p_traced, c_traced)
                 if p_traced and c_traced else None)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict({r["seed"]: r["metrics"][name] for r in p_plain},
                          {r["seed"]: r["metrics"][name] for r in c_plain},
                          metric["bound"], metric["better"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"], moved=moved)
            rows.append(row)
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    rows = compare(load_records(argv[0]), load_records(argv[1]), spec)
    print(f"{'workload':18s} {'metric':15s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'won':>6s}  verdict")
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        print(f"{row['workload']:18s} {row['metric']:15s} "
              f"{p_med:10.4g} [{p_q1:9.4g}, {p_q3:9.4g}] "
              f"{c_med:10.4g} [{c_q1:9.4g}, {c_q3:9.4g}] "
              f"{row['wins']:>3d}/{row['pairs']:<2d}  {row['verdict']} "
              f"({row['worse_by']:+.1%} worse, spread {row['spread']:.1%}, "
              f"bound {row['bound']:.0%}, unit {row['unit']})")
    for workload in dict.fromkeys(row["workload"] for row in rows):
        moved = next(row["moved"] for row in rows
                     if row["workload"] == workload)
        if moved is None:
            print(f"{workload}: no traced runs on both sides")
        else:
            name, delta = moved
            print(f"{workload}: layer {name.split('.', 1)[0]} moved most "
                  f"(span {name}: {delta:+.4f} s self time per round)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
