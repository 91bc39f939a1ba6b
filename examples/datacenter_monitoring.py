#!/usr/bin/env python
"""Datacenter-scale monitoring scenario (the Figure 8 setting).

Replays a diurnal HotMail-like load trace against a Data Serving VM for
two simulated days while a co-located memory-stress VM injects EC2-like
interference episodes, and reports the day-by-day detection and
false-positive rates plus the accumulated profiling cost — the shape of
the paper's Figure 8 and Figure 12.  A second part scales the same
monitoring loop to a synthetic multi-shard fleet through the vectorized
hardware substrate and parallel shard dispatch.

Run with::

    python examples/datacenter_monitoring.py
"""

import time

from repro.experiments import fig08_detection, fig12_overhead
from repro.fleet import (
    InterferenceEpisode,
    RunOptions,
    build_fleet,
    synthesize_datacenter,
)


def run_fleet_demo(num_vms: int = 2000, epochs: int = 12) -> None:
    """Drive a multi-shard fleet through the vectorized substrate.

    Each epoch's hardware contention is resolved for all VMs on all
    hosts of a shard as array operations, ``executor="process"`` with
    ``max_workers=4`` runs the independent shards in four state-owning
    worker processes (results are identical for any worker count), and
    ``RunOptions(keep_reports=False)`` keeps memory constant however
    long the run.
    """
    scenario = synthesize_datacenter(
        num_vms,
        num_shards=4,
        seed=11,
        episodes=[
            InterferenceEpisode(
                shard=0, host_index=0, start_epoch=4, end_epoch=9, kind="memory"
            )
        ],
    )
    fleet = build_fleet(
        scenario,
        mitigate=False,
        executor="process",
        max_workers=4,
    )
    fleet.bootstrap()
    start = time.perf_counter()
    summary = fleet.run(epochs, RunOptions(keep_reports=False))
    elapsed = time.perf_counter() - start
    stats = fleet.stats()
    rate = fleet.total_vms() * epochs / elapsed
    print(f"{fleet.total_vms()} VMs on {fleet.total_hosts()} hosts "
          f"across {len(fleet.shards)} shards")
    print(f"{epochs} epochs in {elapsed:.2f}s ({rate:,.0f} VM-epochs/s)")
    print(f"observations={summary.observations} "
          f"confirmed_interference={summary.confirmed_interference} "
          f"detections={stats['detections']:.0f}")
    fleet.shutdown()


def main() -> None:
    print("Replaying two trace days for the Data Serving workload ...\n")
    result = fig08_detection.run_workload(
        "data_serving", days=2, epochs_per_day=48, seed=11
    )

    print(f"{'day':>4s} {'interference epochs':>20s} {'detected':>9s} "
          f"{'detection rate':>15s} {'false-positive rate':>20s}")
    for day in result.days:
        print(f"{day.day:4d} {day.interference_epochs:20d} {day.detected_epochs:9d} "
              f"{day.detection_rate:15.0%} {day.false_positive_rate:20.1%}")
    print(f"\nMissed interference episodes : {result.missed_episodes}")
    print(
        "Total profiling time         : "
        f"{result.total_profiling_seconds / 60:.1f} minutes"
    )

    print("\nComparing against always-reprofile baselines (Figure 12 setting) ...\n")
    overhead = fig12_overhead.run(days=2, epochs_per_day=48, seed=11)
    print(f"{'approach':>15s} {'profiling time (min)':>22s}")
    print(f"{'DeepDive':>15s} {overhead.deepdive.final_minutes:22.1f}")
    for threshold, curve in sorted(overhead.baselines.items()):
        print(f"{curve.label:>15s} {curve.final_minutes:22.1f}")

    print("\nScaling the same monitoring loop to a 2000-VM fleet "
          "(4 shard workers) ...\n")
    run_fleet_demo()


if __name__ == "__main__":
    main()
