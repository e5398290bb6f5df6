#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

Each file holds the standard output of one or more ``run.py`` runs, one
after another (``run.py ... >> base.txt``).  For every workload and metric
the table shows each side's median and quartiles over its runs, and the
change of the medians.  Results made with different kernel backends are
refused, since they measure different programs.

    python3 perfbench/compare.py base.txt new.txt
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> list[tuple[dict, dict]]:
    """(environment stamp, result) for each run in the file."""
    runs, stamp = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "env" in obj:
                stamp = obj["env"]
            elif "metrics" in obj and stamp is not None:
                runs.append((stamp, obj))
                stamp = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    backends = {stamp["backend"] for side in sides for stamp, _ in side}
    if len(backends) > 1:
        print(f"compare: refusing to compare results from different kernel backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    table: dict[tuple[str, str], list[list[float]]] = {}
    for k, side in enumerate(sides):
        for stamp, result in side:
            for name, metric in result["metrics"].items():
                table.setdefault((stamp["workload"], name), [[], []])[k].append(metric["value"])
    print(f"{'workload':10} {'metric':42} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8}")
    for (workload, name), (base, new) in sorted(table.items()):
        if not base or not new:
            continue
        b, n = quartiles(base), quartiles(new)
        change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
        print(f"{workload:10} {name:42} {b[1]:12.5g} [{b[0]:.4g}, {b[2]:.4g}]"
              f" {n[1]:12.5g} [{n[0]:.4g}, {n[2]:.4g}] {change:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
