"""Advisory comparison of two sets of benchmark records.

    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds records appended by ``run.py --out``, usually ten or more
runs per workload on different seeds. For every (end-to-end metric,
workload) pair it prints the base median, the new median and their ratio.
A pair is "unresolved" when either side's spread (quartile distance over
median) exceeds the metric's bound in BENCHMARK.json, unless every new run
beats every base run; otherwise "worse" or "better" when the new median
moved by more than the bound, and "within bound" when it did not.
Per-layer medians from --trace 1 records follow, without a verdict.
Changed output digests are listed per (workload, seed); a changed digest
is reported, not failed, since some changes alter results on purpose.
Always exits 0 on readable input: it informs a decision, it does not gate.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> list[dict]:
    """Full-scale records of a file; --scale tiny records are smoke runs."""
    records = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    return [r for r in records if r["scale"] == "full"]


def values(records, workload, trace, metric) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def spread(vals: list[float]) -> float:
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    lower = metric["better"] == "lower"
    ratio = statistics.median(new) / statistics.median(base)
    worse_by = ratio - 1.0 if lower else 1.0 - ratio
    all_better = max(new) < min(base) if lower else min(new) > max(base)
    if max(spread(base), spread(new)) > metric["bound"] and not all_better:
        return "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    return "better" if -worse_by > metric["bound"] else "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'workload':12s} {'metric':14s} {'base median':>14s} {'new median':>14s} {'new/base':>9s} "
          f"{'spreads':>13s}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            b, n = values(base, w, 0, m["name"]), values(new, w, 0, m["name"])
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            print(f"{w:12s} {m['name']:14s} {bm:14.6g} {nm:14.6g} {nm / bm:9.4f} "
                  f"{spread(b):6.3f}/{spread(n):6.3f}  {verdict(m, b, n)} (n={len(b)}/{len(n)}, bound {m['bound']})")

    rows = []
    for w in workloads:
        for m in spec["per_layer"]:
            b, n = values(base, w, 1, m["name"]), values(new, w, 1, m["name"])
            if b and n and (statistics.median(b) or statistics.median(n)):
                bm, nm = statistics.median(b), statistics.median(n)
                rows.append(f"{w:12s} {m['name']:34s} {bm:14.6g} {nm:14.6g} "
                            + (f"{nm / bm:9.4f}" if bm else "      new"))
    if rows:
        print("\nper layer (traced runs, medians, no verdict)")
        print("\n".join(rows))

    base_digests = {(r["workload"], r["seed"]): r for r in base}
    changed = []
    for r in new:
        old = base_digests.get((r["workload"], r["seed"]))
        if old is not None and old["digest"] != r["digest"]:
            ops = sorted(k for k, d in r["op_digests"].items() if old["op_digests"].get(k) != d)
            changed.append(f"{r['workload']} seed {r['seed']}: {', '.join(ops)}")
    print("\nchanged output digests: " + ("none" if not changed else ""))
    for line in sorted(set(changed)):
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
