"""Synthetic datacenter scenario generation.

A :class:`DatacenterScenario` describes a fleet declaratively — shard
and host counts, the workload mix drawn from the CloudSuite-like models
in :mod:`repro.workloads`, per-VM steady-state loads, and scheduled
interference episodes (a stress VM colocated with production tenants
that switches on for a window of epochs).  :func:`build_fleet` turns the
description into a ready-to-run :class:`~repro.fleet.fleet.Fleet`; the
whole construction is deterministic in the scenario seed, so two fleets
built from the same scenario behave identically epoch for epoch — the
property the engine-equivalence tests and benchmarks rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import DeepDiveConfig
from repro.fleet.faults import FaultPlan
from repro.fleet.fleet import Fleet, FleetShard, Region, ScheduledStress
from repro.fleet.lifecycle import AdmissionPolicy, LifecycleEngine
from repro.fleet.supervisor import FaultPolicy
from repro.fleet.telemetry import TelemetryConfig, TelemetryRegistry
from repro.fleet.timeline import ARRIVAL_WORKLOADS, FleetTimeline
from repro.hardware.specs import MachineSpec, XEON_X5472
from repro.virt.cluster import Cluster
from repro.virt.sandbox import SandboxEnvironment
from repro.virt.vm import VirtualMachine
from repro.workloads.base import Workload
from repro.workloads.stress import (
    DiskStressWorkload,
    MemoryStressWorkload,
    NetworkStressWorkload,
)

#: Production workload factories the scenario mix draws from (shared
#: with lifecycle-timeline arrivals, so churned-in tenants run the same
#: application population the fleet bootstrapped).
WORKLOAD_FACTORIES: Dict[str, Callable[[Optional[int]], Workload]] = dict(
    ARRIVAL_WORKLOADS
)

#: Stress workload factories for interference episodes.
STRESS_FACTORIES: Dict[str, Callable[[Optional[int]], Workload]] = {
    "memory": lambda seed: MemoryStressWorkload(
        working_set_mb=96.0, locality=0.05, seed=seed
    ),
    "network": lambda seed: NetworkStressWorkload(target_mbps=700.0, seed=seed),
    "disk": lambda seed: DiskStressWorkload(seed=seed),
}


@dataclass(frozen=True)
class InterferenceEpisode:
    """One scheduled interference episode.

    A stress VM of ``kind`` is created (idle) on host ``host_index`` of
    shard ``shard`` at build time and switched to ``intensity`` load for
    epochs ``[start_epoch, end_epoch)``.
    """

    shard: int
    host_index: int
    start_epoch: int
    end_epoch: int
    kind: str = "memory"
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in STRESS_FACTORIES:
            raise ValueError(
                f"unknown stress kind {self.kind!r}; "
                f"choose from {sorted(STRESS_FACTORIES)}"
            )
        if self.start_epoch < 0 or self.end_epoch <= self.start_epoch:
            raise ValueError("episode needs 0 <= start_epoch < end_epoch")
        if not 0.0 < self.intensity <= 1.0:
            raise ValueError("intensity must be in (0, 1]")


@dataclass
class DatacenterScenario:
    """Declarative description of a synthetic datacenter."""

    num_shards: int = 4
    hosts_per_shard: int = 8
    #: Empty headroom hosts per shard: migration destinations the
    #: placement manager can vet without predicted collateral damage.
    #: Without headroom a confirmed aggressor is often unplaceable (every
    #: candidate fails the acceptable-degradation bound) and interference
    #: persists — the paper's "no acceptable destination" outcome.
    spare_hosts_per_shard: int = 1
    #: Production VMs placed per host (2 vCPUs each on 8-core hosts).
    #: The default of 2 keeps baseline colocation interference below the
    #: operator threshold — a quiet fleet stays quiet — and leaves room
    #: for a stress VM and inbound migrations; 3 models an overcommitted
    #: pod where colocation itself is a performance crisis.
    vms_per_host: int = 2
    #: Cap on the total number of production VMs (fills hosts in order);
    #: ``None`` fills every host.
    max_vms: Optional[int] = None
    seed: int = 0
    #: Measurement noise of the simulated hosts.
    noise: float = 0.01
    spec: MachineSpec = XEON_X5472
    #: Relative weights of the production workload mix.
    workload_mix: Mapping[str, float] = field(
        default_factory=lambda: {
            "data_serving": 0.45,
            "web_search": 0.35,
            "data_analytics": 0.2,
        }
    )
    #: Steady-state load range (fractions of nominal) VMs draw from.
    load_range: Tuple[float, float] = (0.4, 0.7)
    #: Workloads never colocated with themselves (the scheduler's
    #: anti-affinity rule): two analytics VMs sharing one host saturate
    #: the disk and are a genuine performance crisis, not a quiet
    #: baseline.
    anti_affinity: Tuple[str, ...] = ("data_analytics",)
    episodes: Sequence[InterferenceEpisode] = ()
    #: Optional lifecycle timeline (VM churn, host maintenance, load
    #: phases) applied by a :class:`~repro.fleet.lifecycle.LifecycleEngine`
    #: before each epoch.  Shard ids follow the build's ``shard{i}``
    #: naming; host names are ``s{i}pm{j}``.
    timeline: Optional[FleetTimeline] = None
    #: Admission policy for timeline arrivals and drain evacuations; the
    #: default derives anti-affinity from the scenario's own rule.
    admission: Optional[AdmissionPolicy] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")
        if self.hosts_per_shard < 1:
            raise ValueError("hosts_per_shard must be positive")
        if self.spare_hosts_per_shard < 0:
            raise ValueError("spare_hosts_per_shard must be non-negative")
        max_per_host = self.spec.architecture.cores // 2
        if not 1 <= self.vms_per_host <= max_per_host:
            raise ValueError(
                f"vms_per_host must be in [1, {max_per_host}] for "
                f"{self.spec.architecture.cores}-core hosts"
            )
        unknown = set(self.workload_mix) - set(WORKLOAD_FACTORIES)
        if unknown:
            raise ValueError(f"unknown workloads in mix: {sorted(unknown)}")
        if not self.workload_mix or sum(self.workload_mix.values()) <= 0:
            raise ValueError("workload_mix needs at least one positive weight")
        lo, hi = self.load_range
        if not 0.0 < lo <= hi:
            raise ValueError("load_range must satisfy 0 < low <= high")
        for episode in self.episodes:
            if not 0 <= episode.shard < self.num_shards:
                raise ValueError(f"episode shard {episode.shard} out of range")
            if not 0 <= episode.host_index < self.hosts_per_shard:
                raise ValueError(
                    f"episode host_index {episode.host_index} out of range"
                )

    def total_production_vms(self) -> int:
        full = self.num_shards * self.hosts_per_shard * self.vms_per_host
        return full if self.max_vms is None else min(full, self.max_vms)


def synthesize_datacenter(
    num_vms: int,
    num_shards: int = 4,
    vms_per_host: int = 2,
    seed: int = 0,
    episodes: Sequence[InterferenceEpisode] = (),
    **overrides,
) -> DatacenterScenario:
    """Scenario sized to hold ``num_vms`` production VMs.

    Convenience wrapper that derives ``hosts_per_shard`` from the target
    VM count and caps the build at exactly ``num_vms``.
    """
    if num_vms < 1:
        raise ValueError("num_vms must be positive")
    num_shards = min(num_shards, num_vms)
    hosts_per_shard = max(1, math.ceil(num_vms / (num_shards * vms_per_host)))
    return DatacenterScenario(
        num_shards=num_shards,
        hosts_per_shard=hosts_per_shard,
        vms_per_host=vms_per_host,
        max_vms=num_vms,
        seed=seed,
        episodes=episodes,
        **overrides,
    )


def build_fleet(
    scenario: DatacenterScenario,
    config: Optional[DeepDiveConfig] = None,
    engine: str = "batch",
    mitigate: bool = False,
    substrate: str = "batch",
    max_workers: Optional[int] = None,
    executor: Optional[str] = None,
    track_performance: bool = False,
    history_limit: Optional[int] = 64,
    fault_policy: Optional["FaultPolicy"] = None,
    fault_plan: Optional["FaultPlan"] = None,
    telemetry: Union["TelemetryConfig", "TelemetryRegistry", None] = None,
    num_regions: Optional[int] = None,
) -> Fleet:
    """Materialise a scenario into a runnable :class:`Fleet`.

    Construction is fully deterministic in ``scenario.seed``: clusters,
    sandboxes, workload parameters and load draws are all seeded from
    it, so fleets built twice from the same scenario (e.g. one per epoch
    engine or hardware substrate) evolve identically.

    Parameters
    ----------
    engine:
        Monitoring epoch engine (``"batch"``/``"scalar"``).
    substrate:
        Hardware contention substrate (``"batch"``/``"scalar"``); both
        produce equivalent counters, scalar is the reference/baseline.
    max_workers:
        Shard worker count for :meth:`Fleet.run_epoch` (``None`` =
        serial); any value yields identical results.  With
        ``num_regions`` it is the *per-region* worker budget.
    executor:
        Shard execution strategy (``"serial"``/``"process"``, see
        :class:`~repro.fleet.fleet.Fleet`); the default infers it from
        ``max_workers``.
    track_performance:
        Whether hosts materialise per-VM ground-truth performance
        reports.  The fleet's monitoring pipeline only reads counters,
        so this defaults to off; turn it on for evaluation harnesses
        that score DeepDive against client-visible performance.
    history_limit:
        Per-VM history retention in epochs (default 64, comfortably
        covering the smoothing and analyzer windows) so long fleet runs
        hold constant memory; ``None`` retains everything.
    fault_policy / fault_plan:
        Worker supervision and injected fault schedule for the process
        executor (see :mod:`repro.fleet.supervisor` /
        :mod:`repro.fleet.faults`).
    telemetry:
        Fleet telemetry bus configuration (see
        :mod:`repro.fleet.telemetry`); ``None`` defers to the
        ``REPRO_FLEET_PROFILE`` environment switch (off by default).
        Telemetry never changes decisions — only timings and counters.
    num_regions:
        Partition the shards contiguously into this many balanced
        regions (``region0``, ``region1``, ... — see
        :func:`partition_regions`); ``None`` builds the flat fleet.  The
        partition is bookkeeping only, so a regional fleet evolves
        bit-identically to the flat one.  ``fault_plan`` worker indices
        are fleet-global, numbered region by region.

    A scenario with a ``timeline`` gets a
    :class:`~repro.fleet.lifecycle.LifecycleEngine` attached to the
    fleet: identical timelines produce bit-identical fleet evolutions
    for every substrate/executor combination
    (``tests/property/test_lifecycle_equivalence.py``).
    """
    config = config or DeepDiveConfig()
    rng = np.random.default_rng(scenario.seed)
    mix_names = sorted(scenario.workload_mix)
    weights = np.array([scenario.workload_mix[n] for n in mix_names], dtype=float)
    weights = weights / weights.sum()
    budget = scenario.total_production_vms()

    shards: List[FleetShard] = []
    schedule: List[ScheduledStress] = []
    for s in range(scenario.num_shards):
        shard_id = f"shard{s}"
        cluster = Cluster(
            num_hosts=scenario.hosts_per_shard + scenario.spare_hosts_per_shard,
            spec=scenario.spec,
            seed=scenario.seed + 100_000 + 1_000 * s,
            noise=scenario.noise,
            host_prefix=f"s{s}pm",
            substrate=substrate,
            track_performance=track_performance,
            cache_demands=True,
            history_limit=history_limit,
        )
        baseline_loads: Dict[str, float] = {}
        for h in range(scenario.hosts_per_shard):
            host_kinds: List[str] = []
            for v in range(scenario.vms_per_host):
                if budget <= 0:
                    break
                budget -= 1
                wl_name = mix_names[int(rng.choice(len(mix_names), p=weights))]
                if wl_name in scenario.anti_affinity and wl_name in host_kinds:
                    # Anti-affinity redraw among the remaining workloads.
                    allowed = [
                        n for n in mix_names
                        if n not in scenario.anti_affinity or n not in host_kinds
                    ]
                    if allowed:
                        sub = np.array(
                            [scenario.workload_mix[n] for n in allowed], dtype=float
                        )
                        wl_name = allowed[
                            int(rng.choice(len(allowed), p=sub / sub.sum()))
                        ]
                host_kinds.append(wl_name)
                workload = WORKLOAD_FACTORIES[wl_name](
                    int(rng.integers(0, 2**31 - 1))
                )
                vm = VirtualMachine(
                    f"s{s}h{h:03d}v{v}-{wl_name}", workload, vcpus=2, memory_gb=2.0
                )
                load = float(rng.uniform(*scenario.load_range))
                cluster.place_vm(vm, f"s{s}pm{h}", load=load)
                baseline_loads[vm.name] = load

        for e, episode in enumerate(scenario.episodes):
            if episode.shard != s:
                continue
            workload = STRESS_FACTORIES[episode.kind](
                int(rng.integers(0, 2**31 - 1))
            )
            stress = VirtualMachine(
                f"s{s}stress{e}-{episode.kind}", workload, vcpus=2, memory_gb=1.0
            )
            cluster.place_vm(stress, f"s{s}pm{episode.host_index}", load=0.0)
            schedule.append(
                ScheduledStress(
                    shard_id=shard_id,
                    vm_name=stress.name,
                    start_epoch=episode.start_epoch,
                    end_epoch=episode.end_epoch,
                    intensity=episode.intensity,
                )
            )

        sandbox = SandboxEnvironment(
            num_hosts=1,
            spec=scenario.spec,
            epoch_seconds=config.epoch_seconds,
            profile_epochs=config.profile_epochs,
            seed=scenario.seed + 900_000 + s,
        )
        shards.append(
            FleetShard(
                shard_id=shard_id,
                cluster=cluster,
                config=config,
                engine=engine,
                mitigate=mitigate,
                sandbox=sandbox,
                baseline_loads=baseline_loads,
            )
        )
    lifecycle: Optional[LifecycleEngine] = None
    if scenario.timeline is not None:
        admission = scenario.admission or AdmissionPolicy(
            anti_affinity=tuple(scenario.anti_affinity)
        )
        lifecycle = LifecycleEngine(scenario.timeline, admission=admission)
    return Fleet(
        shards,
        schedule=schedule,
        max_workers=max_workers,
        executor=executor,
        lifecycle=lifecycle,
        fault_policy=fault_policy,
        fault_plan=fault_plan,
        telemetry=telemetry,
        regions=(
            None
            if num_regions is None
            else partition_regions(shards, num_regions, max_workers)
        ),
    )


def partition_regions(
    shards: Sequence[FleetShard],
    num_regions: int,
    region_workers: Optional[int] = None,
) -> List[Region]:
    """Contiguously partition shards into balanced regions.

    Contiguity is required by :class:`~repro.fleet.fleet.Fleet`:
    concatenating the regions in order reproduces the flat shard order.
    The first ``len(shards) % num_regions`` regions hold one extra
    shard.
    """
    if num_regions < 1:
        raise ValueError("num_regions must be positive")
    shard_ids = [shard.shard_id for shard in shards]
    num_regions = min(num_regions, len(shard_ids))
    base, extra = divmod(len(shard_ids), num_regions)
    regions: List[Region] = []
    start = 0
    for r in range(num_regions):
        size = base + (1 if r < extra else 0)
        regions.append(
            Region(f"region{r}", shard_ids[start : start + size], region_workers)
        )
        start += size
    return regions
