"""Compare two sets of recorded benchmark runs.

    python3 bench/compare.py results/base results/change

Both directories hold result files written by ``bench/run.py --out``;
runs are paired by seed.  For every workload and end-to-end metric it
prints each side's median and quartiles, the median relative gain over
the pairs (positive is better) and a verdict (see
``fleetbench/verdicts.py``), then flags pairs that timed different
epoch counts or differ in decision digest or decision metrics, and any
rise in the failed-epoch fraction.  Exits 1 when a metric is worse or a
flag is raised.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from fleetbench.spec import metric_specs  # noqa: E402
from fleetbench.verdicts import compare, load_runs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base, change = load_runs(args.base), load_runs(args.change)
    if not set(base) & set(change):
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    rows, flags = compare(base, change, metric_specs("end_to_end"))
    print(
        f"{'workload':<16} {'metric':<16} {'base median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'gain':>8} {'pairs':>5}  verdict"
    )
    for row in rows:
        cells = [
            f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"
            for q1, q2, q3 in (row["base"], row["change"])
        ]
        print(
            f"{row['workload']:<16} {row['metric']:<16} {cells[0]:>32} "
            f"{cells[1]:>32} {row['gain'][1]:>+8.2%} {row['pairs']:>5}  "
            f"{row['verdict']}"
        )
    for flag in flags:
        print(f"FLAG {flag}")
    worse = any(row["verdict"] == "worse" for row in rows)
    return 1 if worse or flags else 0


if __name__ == "__main__":
    sys.exit(main())
