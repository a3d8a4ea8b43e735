"""Compare two files of run records, workload by workload.

Each file holds the JSON lines that ``run.py --record`` appended: one run
per line. Untraced runs are grouped by workload; within a workload the
i-th old run is paired with the i-th new run. For every end-to-end metric
of BENCHMARK.json the table shows each side's median and quartiles and a
verdict:

  better      new wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than the old runs' quartile spread
  worse       the new median is worse than the old one by more than the
              metric's bound
  unresolved  either side's quartile spread exceeds the bound, unless
              every new run beats every old run
  same        none of the above
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _load(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace") == 0:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(old: list[float], new: list[float], lower: bool, bound: float) -> str:
    def better(a, b):  # a better than b
        return a < b if lower else a > b

    o1, om, o3 = _quartiles(old)
    n1, nm, n3 = _quartiles(new)
    pairs = list(zip(old, new))
    wins = sum(better(n, o) for o, n in pairs)
    all_better = all(better(n, o) for n in new for o in old)
    spread = max((o3 - o1) / abs(om) if om else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and abs(nm - om) > (o3 - o1):
        return "better"
    worse_by = ((nm - om) if lower else (om - nm)) / abs(om) if om else 0.0
    if worse_by > bound:
        return "worse"
    return "same"


def main(old_path: Path, new_path: Path, spec: dict) -> int:
    old, new = _load(old_path), _load(new_path)
    metrics = spec["end_to_end"]
    print(f"{'workload':12} {'metric':18} {'old q1/med/q3':>32} {'new q1/med/q3':>32}  n  verdict")
    worse = 0
    for workload in sorted(set(old) & set(new)):
        for m in metrics:
            name = m["name"]
            o = [r["metrics"][name]["value"] for r in old[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            v = verdict(o, n, m["better"] == "lower", m["bound"])
            worse += v == "worse"
            fo = "/".join(f"{x:.4g}" for x in _quartiles(o))
            fn = "/".join(f"{x:.4g}" for x in _quartiles(n))
            print(f"{workload:12} {name:18} {fo:>32} {fn:>32} {min(len(o), len(n)):2}  {v}")
    for workload in sorted(set(old) ^ set(new)):
        print(f"{workload:12} only in {'old' if workload in old else 'new'} records")
    return 1 if worse else 0
