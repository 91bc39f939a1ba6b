"""The benchmark's named workloads and the seeded fleets they build.

Every input is drawn from the ``seed`` the benchmark is given: the
scenario (workload mix, loads, per-host noise), the churn timeline and
the interference episodes.  The program under test receives only the
built fleet; the ground truth of the injected episodes stays here, for
the scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    FlashCrowd,
    FleetTimeline,
    InterferenceEpisode,
    LoadPhase,
    RunOptions,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)

#: Epochs run inside set-up, after the bootstrap: the learning phase
#: certifies production behaviour in the first epochs, so timing starts
#: on a fleet that is already quiet.
WARMUP_EPOCHS = 3
#: Report options of every epoch the benchmark drives.
RUN_OPTIONS = RunOptions(analyze=True, report="columnar")

EPISODE_EVERY = 50
EPISODE_LENGTH = 25
EPISODE_KINDS = ("memory", "disk", "network")
#: Shard ``s`` starts its first episode ``OFFSET + (STAGGER * s) % EVERY``
#: epochs in; staggering the shards spreads analyzer and placement work
#: over the episode period.
EPISODE_OFFSET = 10
EPISODE_STAGGER = 12

PHASE_EVERY = 100
PHASE_SCALES = (0.85, 1.0, 1.15)
FLASH_EVERY = 200
FLASH_OFFSET = 150
FLASH_LENGTH = 10
FLASH_SCALE = 1.25

#: Poisson tenant arrivals per epoch per production VM (5 at 1k VMs);
#: with a 20-epoch mean lifetime about 1% of the fleet churns per epoch.
CHURN_ARRIVALS_PER_VM = 0.005
CHURN_MEAN_LIFETIME = 20.0


def bench_config() -> DeepDiveConfig:
    """Short profiling windows, so analyses cost milliseconds, not minutes."""
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )


@dataclass(frozen=True)
class Workload:
    """One named fleet shape and the load the benchmark puts on it."""

    name: str
    num_vms: int
    num_shards: int
    #: ``"process"`` (one worker) or ``"serial"``.
    executor: str
    churn: bool = False
    load_shifts: bool = False
    #: Interference episodes (with mitigation on).
    episodes: bool = False
    #: Timed epochs of every run, whatever the machine's speed, so two
    #: commits always time the same load; sized to about 6 s on the
    #: bench host.  The decision metrics and the digest cover them too.
    epochs: int = 180

    def __post_init__(self) -> None:
        if self.executor not in ("process", "serial"):
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.episodes and self.executor != "serial":
            # Victims are read from the live placement in the parent.
            raise ValueError("episode workloads run on the serial executor")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")

    @property
    def total_epochs(self) -> int:
        return WARMUP_EPOCHS + self.epochs


#: Why each workload was chosen is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady_2k",
            num_vms=2000,
            num_shards=4,
            executor="process",
            epochs=180,
        ),
        Workload(
            name="churn_1k",
            num_vms=1000,
            num_shards=4,
            executor="process",
            churn=True,
            load_shifts=True,
            epochs=200,
        ),
        Workload(
            # Many small shards: 48 episodes a run, so the seed's luck in
            # placement (each call 60-90 ms, and memory grows with each)
            # averages out.  At 4 shards and 240 epochs a run held 24
            # episodes, and placements, throughput and peak memory
            # spread 0.1-0.2 across seeds.
            name="interference_1k",
            num_vms=1000,
            num_shards=16,
            executor="serial",
            load_shifts=True,
            episodes=True,
            epochs=160,
        ),
    )
}


@dataclass(frozen=True)
class Episode:
    """Ground truth of one injected interference episode."""

    shard: str
    host: str
    start: int
    end: int
    stress_vm: str


@dataclass
class Setup:
    """A built, bootstrapped and warmed fleet plus its ground truth."""

    fleet: object
    episodes: Tuple[Episode, ...]


def _episode_plan(
    workload: Workload, hosts_per_shard: int, seed: int
) -> List[InterferenceEpisode]:
    rng = np.random.default_rng([seed, 1])
    plan: List[InterferenceEpisode] = []
    for s in range(workload.num_shards):
        first = WARMUP_EPOCHS + EPISODE_OFFSET + (EPISODE_STAGGER * s) % EPISODE_EVERY
        starts = range(first, workload.total_epochs, EPISODE_EVERY)
        if len(starts) > hosts_per_shard:
            raise ValueError(
                f"{len(starts)} episodes per shard need as many hosts; "
                f"the shard has {hosts_per_shard}"
            )
        # Distinct hosts: a host takes at most one stress VM.
        hosts = rng.choice(hosts_per_shard, size=len(starts), replace=False)
        for j, (start, host) in enumerate(zip(starts, hosts.tolist())):
            plan.append(
                InterferenceEpisode(
                    shard=s,
                    host_index=int(host),
                    start_epoch=start,
                    end_epoch=start + EPISODE_LENGTH,
                    kind=EPISODE_KINDS[(j + s) % len(EPISODE_KINDS)],
                )
            )
    return plan


def _timeline(workload: Workload, seed: int) -> Optional[FleetTimeline]:
    shard_ids = [f"shard{s}" for s in range(workload.num_shards)]
    timeline = FleetTimeline()
    if workload.churn:
        timeline.extend(
            churn_timeline(
                shard_ids,
                epochs=workload.total_epochs,
                seed=seed,
                arrivals_per_epoch=CHURN_ARRIVALS_PER_VM * workload.num_vms,
                mean_lifetime_epochs=CHURN_MEAN_LIFETIME,
            ).events
        )
    if workload.load_shifts:
        for k, epoch in enumerate(
            range(WARMUP_EPOCHS + PHASE_EVERY, workload.total_epochs, PHASE_EVERY)
        ):
            scale = PHASE_SCALES[k % len(PHASE_SCALES)]
            timeline.extend([LoadPhase(epoch, sid, scale) for sid in shard_ids])
        for epoch in range(
            WARMUP_EPOCHS + FLASH_OFFSET, workload.total_epochs, FLASH_EVERY
        ):
            timeline.extend(
                [
                    FlashCrowd(epoch, sid, epoch + FLASH_LENGTH, FLASH_SCALE)
                    for sid in shard_ids
                ]
            )
    return timeline if len(timeline) else None


def setup(
    workload: Workload,
    seed: int,
    executor: Optional[str] = None,
    telemetry=None,
) -> Setup:
    """Synthesise, build, bootstrap and warm one fleet for ``workload``.

    ``executor`` overrides the workload's (the traced breakdown re-runs
    process workloads serially); decisions do not depend on it.
    """
    executor = executor or workload.executor
    hosts_per_shard = math.ceil(workload.num_vms / (workload.num_shards * 2))
    plan = (
        _episode_plan(workload, hosts_per_shard, seed) if workload.episodes else []
    )
    scenario = synthesize_datacenter(
        workload.num_vms,
        num_shards=workload.num_shards,
        seed=seed,
        episodes=plan,
        timeline=_timeline(workload, seed),
    )
    common = dict(
        config=bench_config(),
        mitigate=workload.episodes,
        executor=executor,
        telemetry=telemetry,
    )
    fleet = build_fleet(
        scenario, max_workers=1 if executor == "process" else None, **common
    )
    try:
        fleet.bootstrap()
        for _ in fleet.stream(WARMUP_EPOCHS, RUN_OPTIONS):
            pass
    except BaseException:
        fleet.shutdown()
        raise
    stress_vm = {(s.shard_id, s.start_epoch): s.vm_name for s in fleet.schedule}
    episodes = tuple(
        Episode(
            shard=f"shard{ep.shard}",
            host=f"s{ep.shard}pm{ep.host_index}",
            start=ep.start_epoch,
            end=ep.end_epoch,
            stress_vm=stress_vm[(f"shard{ep.shard}", ep.start_epoch)],
        )
        for ep in plan
    )
    return Setup(fleet=fleet, episodes=episodes)
