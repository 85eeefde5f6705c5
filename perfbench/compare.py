"""Check one or two sets of untraced runs against the bounds of BENCHMARK.json.

    python3 perfbench/compare.py perfbench/results/set-a.jsonl [perfbench/results/set-b.jsonl]

For every workload and end-to-end metric of each set it prints the
median of the runs and their spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread above the metric's bound fails, except for
``setup_s``.  Given two sets, the second median may not be worse than the
first by more than the bound, and the share of failed operations must
be the same in both.  Every run must report ``correct``.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if not record.get("trace"):
            runs[record["workload"]].append(record)
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sets = [load(path) for path in argv]
    ok = True
    for workload in sorted(sets[0]):
        print(f"{workload}:")
        per_set = [s.get(workload, []) for s in sets]
        for i, runs in enumerate(per_set):
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                ok = False
                print(f"  FAIL set {i + 1}: incorrect runs at seeds {bad}")
        shares = [failed_share(runs) for runs in per_set if runs]
        if len(set(shares)) > 1:
            ok = False
            print(f"  FAIL failed-operation shares differ: {shares}")
        for metric in metrics:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            cells = []
            medians = []
            for runs in per_set:
                values = [r["metrics"][name]["value"] for r in runs]
                if not values:
                    cells.append("no runs")
                    continue
                median, sp = spread(values)
                medians.append(median)
                verdict = ""
                if sp > bound and name != "setup_s":
                    verdict, ok = " SPREAD>BOUND", False
                cells.append(f"median {median:.6g} spread {sp:.3f} (n={len(values)}){verdict}")
            line = f"  {name:<13} bound {bound:<5} " + " | ".join(cells)
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if lower else -change
                line += f" | change {change:+.3f}"
                if worse > bound:
                    line += " WORSE>BOUND"
                    ok = False
            print(line)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
