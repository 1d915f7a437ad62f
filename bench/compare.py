"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 bench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the `<workload>-s<seed>-t<trace>.json` files that
bench/run.py writes to `.bench_runs/results/`. For every workload and seed
present in both, prints whether the final-parameter hashes changed (a change
means the numerics changed, so quality metrics must be read against their
spread across seeds; it is reported, never a failure) and, per workload, the
median of each end-to-end metric on both sides.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: str) -> dict:
    return {p.name: json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    medians: dict[tuple, list] = defaultdict(lambda: ([], []))
    for name in sorted(parent.keys() & change.keys()):
        a, b = parent[name], change[name]
        same = a["hashes"] == b["hashes"]
        print(f"{a['workload']:20s} seed {a['seed']:<6d} hashes {'same' if same else 'CHANGED'}")
        for metric in a["end_to_end"]:
            medians[a["workload"], metric][0].append(a["end_to_end"][metric])
            medians[a["workload"], metric][1].append(b["end_to_end"][metric])
    for (workload, metric), (before, after) in sorted(medians.items()):
        m0, m1 = statistics.median(before), statistics.median(after)
        change_frac = m1 / m0 - 1.0 if m0 else float("nan")
        print(f"{workload:20s} {metric:16s} {m0:12.6g} -> {m1:12.6g} ({change_frac:+.1%}, "
              f"n={len(before)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
