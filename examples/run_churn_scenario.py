#!/usr/bin/env python
"""A dynamic fleet: tenant churn, maintenance and flash crowds.

Builds a small multi-shard datacenter and attaches a lifecycle timeline
that exercises everything the fleet lifecycle engine supports:

* tenant **arrivals** drawn from a Poisson process, each placed by the
  interference-aware admission policy (headroom and anti-affinity
  respected, candidates ranked by predicted contention);
* scheduled **departures** (exponential tenant lifetimes);
* a **host drain** for maintenance — residents evacuated through the
  live-migration path to vetted destinations — and the later
  return-to-service;
* a **flash crowd** load surge stacked on **diurnal load phases**
  replayed from a HotMail-like trace;
* a scheduled interference episode, so DeepDive keeps detecting while
  the fleet changes underneath it.

Identical timelines evolve bit-identically across hardware substrates,
history modes and executors — this script runs the serial/batch default.

Run with::

    python examples/run_churn_scenario.py
"""

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    FleetTimeline,
    FlashCrowd,
    HostDrain,
    HostReturn,
    InterferenceEpisode,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)
from repro.workloads.traces import hotmail_like_trace

EPOCHS = 24


def build_timeline(num_shards: int) -> FleetTimeline:
    shard_ids = [f"shard{s}" for s in range(num_shards)]
    # Open-ended tenant churn: Poisson arrivals, exponential lifetimes.
    timeline = churn_timeline(
        shard_ids,
        epochs=EPOCHS,
        seed=17,
        arrivals="poisson",
        arrivals_per_epoch=1.5,
        mean_lifetime_epochs=10.0,
    )
    # Diurnal phases replayed from a (synthetic) HotMail-like trace.
    trace = hotmail_like_trace(days=1, epochs_per_hour=1, seed=3).slice(0, EPOCHS)
    timeline.extend(
        FleetTimeline.from_trace(trace, shard_ids, quantum=0.1).events
    )
    # Maintenance: drain one host, return it to service later.
    timeline.add(HostDrain(epoch=6, shard="shard0", host="s0pm2"))
    timeline.add(HostReturn(epoch=14, shard="shard0", host="s0pm2"))
    # A flash crowd on top of whatever phase is active.
    timeline.add(
        FlashCrowd(epoch=10, shard="shard1", end_epoch=16, scale=1.5)
    )
    return timeline


def main() -> None:
    num_shards = 2
    scenario = synthesize_datacenter(
        120,
        num_shards=num_shards,
        seed=29,
        episodes=[
            InterferenceEpisode(
                shard=0, host_index=1, start_epoch=8, end_epoch=13, kind="memory"
            )
        ],
        timeline=build_timeline(num_shards),
    )
    config = DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
        smoothing_epochs=3,
    )
    fleet = build_fleet(scenario, config=config, mitigate=True)
    fleet.lifecycle.record_decisions = True
    print(f"start: {fleet.total_vms()} VMs on {fleet.total_hosts()} hosts")
    fleet.bootstrap()

    for epoch in range(EPOCHS):
        report = fleet.run_epoch()
        confirmed = report.confirmed_interference()
        if confirmed:
            names = ", ".join(f"{s}/{v}" for s, v in confirmed)
            print(f"epoch {epoch:2d}: interference confirmed on {names}")

    print(f"\nend:   {fleet.total_vms()} VMs on {fleet.total_hosts()} hosts")
    print("\nlifecycle per shard:")
    for shard_id, stats in sorted(fleet.lifecycle_stats().items()):
        line = ", ".join(f"{key}={value}" for key, value in stats.items() if value)
        print(f"  {shard_id}: {line}")

    admissions = [
        decision
        for decision in fleet.lifecycle.decisions
        if decision.source_host == "(arrival)"
    ]
    if admissions:
        sample = admissions[-1]
        best = sample.best()
        if best is None:
            print(f"\nlast admission: {sample.vm_name} rejected (no candidates)")
        else:
            print(
                f"\nlast admission: {sample.vm_name} -> {sample.destination} "
                f"(best predicted degradation "
                f"{best.score:.3f} over {len(sample.evaluations)} candidates)"
            )

    stats = fleet.stats()
    print(
        f"\nfleet totals: {stats['detections']:.0f} detections, "
        f"{stats['migrations']:.0f} mitigation migrations, "
        f"{stats['analyzer_invocations']:.0f} analyzer runs, "
        f"{stats['profiling_seconds']:.0f}s profiling"
    )


if __name__ == "__main__":
    main()
