"""Verdicts for one metric across a base set and a change set of runs.

Runs are paired by seed (the k-th base run of a seed with the k-th
change run of the same seed), so the seed's own effect on the work —
more episodes, more placements, more memory — cancels and each pair
differs only by the change and the host's noise.  Each pair gives the
change's relative gain ``sign * (change - base) / base`` (positive is
better).  The rule:

* ``worse`` — the median gain is below ``-bound``;
* ``better`` — at least ten pairs, the change wins nine tenths of them
  (ties count for neither), and the median gain is larger than the
  gains' own spread (interquartile range);
* ``unresolved`` — otherwise, when the gains' spread is wider than the
  bound, unless the change wins every pair;
* ``same`` — none of the above.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``statistics.quantiles``."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def gains(pairs: Sequence[Tuple[float, float]], better: str) -> List[float]:
    """Relative gain of each (base, change) pair; positive is better."""
    sign = 1.0 if better == "higher" else -1.0
    return [sign * (c - b) / abs(b) if b else 0.0 for b, c in pairs]


def verdict(pairs: Sequence[Tuple[float, float]], better: str, bound: float) -> str:
    """``better``, ``worse``, ``unresolved`` or ``same`` (see module doc)."""
    gain = gains(pairs, better)
    q1, median, q3 = quartiles(gain)
    if median < -bound:
        return "worse"
    wins = sum(g > 0 for g in gain)
    if len(gain) >= MIN_PAIRS and wins >= WIN_SHARE * len(gain) and median > q3 - q1:
        return "better"
    if q3 - q1 > bound and wins < len(gain):
        return "unresolved"
    return "same"


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Timed-run result files, grouped by workload, in (seed, file) order."""
    runs: Dict[str, List[Tuple[int, str, dict]]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except ValueError:
            continue
        if not isinstance(record, dict) or record.get("kind") != "timed":
            continue
        runs.setdefault(record["workload"], []).append(
            (record["seed"], path.name, record)
        )
    return {
        workload: [record for *_, record in sorted(items, key=lambda i: i[:2])]
        for workload, items in runs.items()
    }


def pair_by_seed(
    base: Sequence[dict], change: Sequence[dict]
) -> List[Tuple[dict, dict]]:
    """The k-th base run of each seed with the k-th change run of it."""
    by_seed: Dict[int, List[dict]] = {}
    for record in base:
        by_seed.setdefault(record["seed"], []).append(record)
    taken: Dict[int, int] = {}
    pairs: List[Tuple[dict, dict]] = []
    for record in change:
        seed = record["seed"]
        k = taken.get(seed, 0)
        if k < len(by_seed.get(seed, ())):
            pairs.append((by_seed[seed][k], record))
            taken[seed] = k + 1
    return pairs


def compare(
    base: Dict[str, List[dict]],
    change: Dict[str, List[dict]],
    specs: Dict[str, dict],
) -> Tuple[List[dict], List[str]]:
    """Rows (one per workload × end-to-end metric) and flags.

    ``specs`` are the ``end_to_end`` entries of ``BENCHMARK.json`` by
    name.  Flags name workloads without seed pairs, pairs that timed a
    different number of epochs, digest or decision-metric differences
    within a pair (a change meant only to speed the simulator must leave
    every decision identical) and any rise in the failed-epoch fraction.
    """
    rows: List[dict] = []
    flags: List[str] = []
    for workload in sorted(set(base) & set(change)):
        base_runs, change_runs = base[workload], change[workload]
        pairs = pair_by_seed(base_runs, change_runs)
        if not pairs:
            flags.append(f"{workload}: no seed has runs on both sides")
            continue
        for name, spec in specs.items():
            values = [
                (b["metrics"][name]["value"], c["metrics"][name]["value"])
                for b, c in pairs
                if name in b["metrics"] and name in c["metrics"]
            ]
            if not values:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": spec["unit"],
                    "base": quartiles([b for b, _ in values]),
                    "change": quartiles([c for _, c in values]),
                    "gain": quartiles(gains(values, spec["better"])),
                    "pairs": len(values),
                    "verdict": verdict(values, spec["better"], spec["bound"]),
                }
            )
        for reference, record in pairs:
            where = f"{workload} seed {record['seed']}"
            if record["epochs"] != reference["epochs"]:
                flags.append(
                    f"{where}: timed {reference['epochs']} -> {record['epochs']} epochs"
                )
            if record["digest"] != reference["digest"]:
                flags.append(f"{where}: decision digest differs")
            for key, value in record["decision"].items():
                was = reference["decision"].get(key)
                if key != "failed_epoch_fraction" and was != value:
                    flags.append(f"{where}: {key} {was} -> {value}")
        failed_before, failed_after = _failed(base_runs), _failed(change_runs)
        if failed_after > failed_before:
            flags.append(
                f"{workload}: failed_epoch_fraction rose "
                f"{failed_before:.4f} -> {failed_after:.4f}"
            )
    return rows, flags


def _failed(runs: Sequence[dict]) -> float:
    return max(r["decision"]["failed_epoch_fraction"] for r in runs)
