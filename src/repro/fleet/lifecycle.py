"""The fleet lifecycle engine: executes timelines against live shards.

The :class:`LifecycleEngine` turns a compiled
:class:`~repro.fleet.timeline.FleetTimeline` into operational dynamics:
before each simulation epoch it applies that epoch's event batch to the
shards it owns — departures, host drains/returns, load-phase and
flash-crowd changes, then arrivals.  Everything it does is a
deterministic function of the timeline and the shard state, so identical
timelines evolve identically across hardware substrates, history modes
and executor strategies (the engine is pickled into process workers
alongside their shard subset, exactly like the stress schedule).

Interference-aware admission
----------------------------
Arrivals (and drain evacuations) are placed by an admission policy built
on :func:`repro.core.placement.contention_scores`: every candidate host
is scored by the degradation its resident VMs *plus the newcomer* would
suffer under proportional sharing of the five contended resources (CPU,
shared cache, memory bus, disk, NIC).  Pressures are derived from the
workloads' packed **demand rows at nominal load**, scaled linearly by
each VM's current offered-load fraction — a deliberate, documented proxy
(demands are pure functions of the load, so the scores are bit-identical
across substrates and executors, which full sandbox profiling could not
guarantee cheaply).  Headroom and anti-affinity are respected: hosts
must keep ``headroom_vcpus`` spare after admission, and workloads listed
in ``anti_affinity`` are never co-located with their own kind.
Candidates rank by ``(score, -free vCPUs, host order)``, so ties break
toward headroom and the ranking is fully deterministic.

Failure modes are explicit: an event referencing an unknown shard, VM or
host raises :class:`ValueError` naming the offending epoch and event
(never a downstream ``KeyError``); an arrival no host can accept within
``max_predicted_degradation`` is *rejected* (counted, not crashed) —
cloud admission control — while drain evacuations are forced moves:
headroom and anti-affinity are waived (a temporary soft-constraint
violation beats leaving a tenant on an out-of-service host) and a VM is
stranded only when no host can physically fit it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.placement import (
    CandidateEvaluation,
    PlacementDecision,
    contention_scores,
)
from repro.fleet.timeline import (
    EpochBatch,
    FleetTimeline,
    HostDrain,
    HostReturn,
    VMArrival,
    VMDeparture,
)
from repro.hardware.batch import DEMAND_FIELD_INDEX, pack_demand
from repro.virt.vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.fleet import FleetShard
    from repro.virt.cluster import Cluster
    from repro.virt.vmm import Host, HostChanges

#: Resource columns of the admission pressure/capacity matrices.
ADMISSION_RESOURCES: Tuple[str, ...] = (
    "instructions",
    "cache_mb",
    "bus_mb",
    "disk_mb",
    "network_mbit",
)

_I_INST = DEMAND_FIELD_INDEX["instructions"]
_I_WS = DEMAND_FIELD_INDEX["working_set_mb"]
_I_L1MISS = DEMAND_FIELD_INDEX["l1_miss_pki"]
_I_DISK = DEMAND_FIELD_INDEX["disk_mb"]
_I_NET = DEMAND_FIELD_INDEX["network_mbit"]
_I_WRITE = DEMAND_FIELD_INDEX["write_fraction"]

#: Bytes per cache line (memory-bus traffic proxy).
_LINE_BYTES = 64.0


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs of the interference-aware admission controller."""

    #: Workload ``app_id``\\ s never co-located with their own kind
    #: (matches the scenario scheduler's anti-affinity rule).
    anti_affinity: Tuple[str, ...] = ()
    #: Reject an arrival when even the best candidate's predicted
    #: degradation exceeds this bound (drain evacuations ignore it —
    #: a maintenance move is forced).
    max_predicted_degradation: float = 0.5
    #: vCPUs every host must keep free *after* admitting an arrival
    #: (reserved migration headroom); ignored for forced moves.
    headroom_vcpus: int = 0

    def __post_init__(self) -> None:
        if self.max_predicted_degradation < 0:
            raise ValueError("max_predicted_degradation must be non-negative")
        if self.headroom_vcpus < 0:
            raise ValueError("headroom_vcpus must be non-negative")


def _pressure_row_for(vm: VirtualMachine, epoch_seconds: float) -> np.ndarray:
    """A VM's admission pressure row (:data:`ADMISSION_RESOURCES` order).

    Derived from the workload's packed demand at **nominal** load — a
    pure function of the workload configuration, computed once per VM
    and scaled linearly by the current offered-load fraction at scoring
    time.
    """
    demand = vm.demand(vm.workload.nominal_load, epoch_seconds=epoch_seconds)
    row = np.asarray(pack_demand(demand), dtype=float)
    instructions = row[_I_INST]
    bus_mb = (
        instructions
        * row[_I_L1MISS]
        / 1000.0
        * _LINE_BYTES
        / 1e6
        * (1.0 + row[_I_WRITE])
    )
    return np.array(
        [instructions, row[_I_WS], bus_mb, row[_I_DISK], row[_I_NET]],
        dtype=float,
    )


def _capacity_row_for(host: "Host") -> np.ndarray:
    """One host's resource capacities (:data:`ADMISSION_RESOURCES` order)."""
    spec = host.machine.spec
    arch = spec.architecture
    eps = host.epoch_seconds
    return np.array(
        [
            arch.cores * arch.frequency_hz * eps / max(arch.base_cpi, 1e-9),
            arch.shared_cache_mb * arch.cache_domains,
            arch.memory_bandwidth_mbps * eps,
            spec.disk.count * spec.disk.sequential_mbps * eps,
            spec.nic.bandwidth_mbps * eps,
        ],
        dtype=float,
    )


class _HostSummary:
    """One host's admission inputs (see :class:`_ShardSummary`).

    The names, pressure rows, applications and free capacity change
    only with the host's placement; the load-scaled pressure also with
    its loads, and is re-summed alone when only the loads moved.
    """

    __slots__ = (
        "host",
        "names",
        "rows",
        "apps",
        "free_vcpus",
        "free_mem",
        "pressure",
    )

    def __init__(self, host: "Host", pressure_rows: Dict[str, np.ndarray]) -> None:
        rows: List[np.ndarray] = []
        apps: Set[str] = set()
        used_vcpus = 0
        used_mem = 0.0
        for vm_name, vm in host._vms.items():
            row = pressure_rows.get(vm_name)
            if row is None:
                row = _pressure_row_for(vm, host.epoch_seconds)
                pressure_rows[vm_name] = row
            rows.append(row)
            apps.add(vm.app_id)
            used_vcpus += vm.vcpus
            used_mem += vm.memory_gb
        self.host = host
        self.names = tuple(host._vms)
        self.rows = (
            np.asarray(rows, dtype=float)
            if rows
            else np.empty((0, len(ADMISSION_RESOURCES)), dtype=float)
        )
        #: Shared with the admission views; they copy before adding.
        self.apps = frozenset(apps)
        self.free_vcpus = host.machine.spec.architecture.cores - used_vcpus
        self.free_mem = host.machine.spec.dram_gb - used_mem
        self.sum_pressure()

    def sum_pressure(self) -> None:
        """Sum the load-scaled rows in VM order (a left fold from zero)."""
        loads = self.host._loads
        scaled = self.rows * np.asarray(
            [loads.get(name, 0.0) for name in self.names], dtype=float
        )[:, None]
        total = np.zeros(len(ADMISSION_RESOURCES), dtype=float)
        for row in scaled:
            total += row
        self.pressure = total


class _ShardSummary:
    """A shard's admission inputs, kept between admission views.

    The per-host summaries stacked into arrays.  A refresh re-reads only
    the hosts the cluster's change record names (placement or loads
    changed since the previous refresh): at fleet scale an admission
    view is built on most churn epochs, and a walk over every host and
    VM of the shard dominated that build.
    """

    #: The cluster's change record; unset on a summary pickled before it
    #: existed, which then no longer describes its cluster.
    changes: Optional["HostChanges"] = None

    def __init__(self, cluster: "Cluster") -> None:
        self.changes = cluster._change_record()
        self.hosts: List["Host"] = list(cluster.hosts.values())
        self.host_names: List[str] = list(cluster.hosts)
        self.host_index = {name: i for i, name in enumerate(self.host_names)}
        n = len(self.hosts)
        self.summaries: List[Optional[_HostSummary]] = [None] * n
        self.pressure = np.zeros((n, len(ADMISSION_RESOURCES)), dtype=float)
        self.free_vcpus = np.zeros(n, dtype=float)
        self.free_mem = np.zeros(n, dtype=float)
        #: Per-host application sets (shared, never mutated).
        self.apps: List[FrozenSet[str]] = [frozenset()] * n
        #: The first refresh reads every host, whatever the record holds.
        self._built = False

    def describes(self, cluster: "Cluster") -> bool:
        """Whether ``cluster`` still has exactly these hosts (the same
        change record, which :meth:`Cluster.add_host` reports to)."""
        same_record = cluster._change_record() is self.changes
        return same_record and len(cluster.hosts) == len(self.hosts)

    def refresh(self, pressure_rows: Dict[str, np.ndarray]) -> None:
        placed = self.changes.take("admission")
        loaded = self.changes.take_loads("admission")
        if not self._built:
            placed = loaded = range(len(self.hosts))
            self._built = True
        summaries = self.summaries
        for i in placed:
            summary = summaries[i] = _HostSummary(self.hosts[i], pressure_rows)
            self.apps[i] = summary.apps
            self.free_vcpus[i] = summary.free_vcpus
            self.free_mem[i] = summary.free_mem
            self.pressure[i] = summary.pressure
        for i in set(loaded).difference(placed):
            summary = summaries[i]
            summary.sum_pressure()
            self.pressure[i] = summary.pressure


class _ShardAdmissionState:
    """One shard's admission view for one epoch batch.

    Rebuilt from the live cluster whenever a batch needs placement
    decisions, then updated incrementally as this batch's admissions
    and evacuations land — so same-epoch decisions see each other.
    """

    def __init__(
        self,
        summary: _ShardSummary,
        policy: AdmissionPolicy,
        drained: Set[str],
        capacity: np.ndarray,
    ) -> None:
        self.policy = policy
        self.host_names = summary.host_names
        self.host_index = summary.host_index
        n = len(self.host_names)
        self.capacity = capacity
        self.pressure = summary.pressure.copy()
        #: Per-host application sets; :meth:`commit` replaces, never
        #: mutates, an entry (the sets are the summaries').
        self.apps: List[FrozenSet[str]] = list(summary.apps)
        self.free_vcpus = summary.free_vcpus.copy()
        self.free_mem = summary.free_mem.copy()
        self.drained_mask = np.zeros(n, dtype=bool)
        for name in drained:
            i = self.host_index.get(name)
            if i is not None:
                self.drained_mask[i] = True
        #: Lazily built per-app presence masks for anti-affinity checks.
        self._app_masks: Dict[str, np.ndarray] = {}

    def mark_drained(self, host_name: str) -> None:
        self.drained_mask[self.host_index[host_name]] = True

    def mark_returned(self, host_name: str) -> None:
        self.drained_mask[self.host_index[host_name]] = False

    def _app_mask(self, app_id: str) -> np.ndarray:
        mask = self._app_masks.get(app_id)
        if mask is None:
            mask = self._app_masks[app_id] = np.fromiter(
                (app_id in apps for apps in self.apps),
                dtype=bool,
                count=len(self.apps),
            )
        return mask

    def _eligible_mask(self, vm: VirtualMachine, forced: bool) -> np.ndarray:
        """Hosts that may take ``vm``.

        Forced (maintenance) moves waive the *soft* constraints —
        headroom reserve and anti-affinity — because leaving a tenant on
        an out-of-service host is worse than a temporary policy
        violation; only physical capacity and drain state remain hard.
        """
        mask = (
            (self.free_vcpus >= vm.vcpus)
            & (self.free_mem >= vm.memory_gb)
            & ~self.drained_mask
        )
        if not forced:
            if self.policy.headroom_vcpus:
                mask = mask & (
                    self.free_vcpus >= vm.vcpus + self.policy.headroom_vcpus
                )
            if vm.app_id in self.policy.anti_affinity:
                mask = mask & ~self._app_mask(vm.app_id)
        return mask

    # ------------------------------------------------------------------
    def evaluations(
        self, probe: np.ndarray, vm: VirtualMachine, forced: bool
    ) -> List[Tuple[float, int, str]]:
        """Eligible candidates as ``(score, host index, host name)``."""
        scores = contention_scores(self.pressure + probe, self.capacity)
        mask = self._eligible_mask(vm, forced)
        return [
            (float(scores[i]), int(i), self.host_names[i])
            for i in np.flatnonzero(mask)
        ]

    def pick(
        self,
        probe: np.ndarray,
        vm: VirtualMachine,
        forced: bool,
        exclude: Optional[str] = None,
    ) -> Optional[str]:
        """The best candidate host, or ``None``.

        Ranking is ``(score, -free vCPUs, host order)``; non-forced
        picks additionally respect ``max_predicted_degradation``.
        """
        mask = self._eligible_mask(vm, forced)
        if exclude is not None:
            mask = mask.copy()
            mask[self.host_index[exclude]] = False
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return None
        scores = contention_scores(
            self.pressure[idx] + probe, self.capacity[idx]
        )
        # Stable lexsort: primary score, then free vCPUs (descending),
        # then host order — identical to the scalar tuple ranking.
        order = np.lexsort((idx, -self.free_vcpus[idx], scores))
        best = int(order[0])
        if not forced and scores[best] > self.policy.max_predicted_degradation:
            return None
        return self.host_names[int(idx[best])]

    def commit(self, host_name: str, probe: np.ndarray, vm: VirtualMachine) -> None:
        """Account an admission/evacuation landing on ``host_name``."""
        i = self.host_index[host_name]
        self.pressure[i] = self.pressure[i] + probe
        self.free_vcpus[i] -= vm.vcpus
        self.free_mem[i] -= vm.memory_gb
        self.apps[i] = self.apps[i] | {vm.app_id}
        mask = self._app_masks.get(vm.app_id)
        if mask is not None:
            mask[i] = True

    def release(self, host_name: str, probe: np.ndarray, vm: VirtualMachine) -> None:
        """Account a VM leaving ``host_name``.

        Pressure is inverted (probe subtracted with a zero clamp), not
        recomputed from the cluster; the clamp can leave a small
        residue, which is acceptable for heuristic scores because the
        state only lives for one epoch batch."""
        i = self.host_index[host_name]
        self.pressure[i] = np.maximum(0.0, self.pressure[i] - probe)
        self.free_vcpus[i] += vm.vcpus
        self.free_mem[i] += vm.memory_gb


@dataclass
class LifecycleStats:
    """Per-shard lifecycle counters (the operator's churn dashboard)."""

    arrivals_admitted: int = 0
    arrivals_rejected: int = 0
    departures: int = 0
    #: Departures of tenants that were never admitted (their arrival
    #: was rejected); dropped without touching the fleet.
    departures_ignored: int = 0
    drains: int = 0
    returns: int = 0
    drain_migrations: int = 0
    drain_stranded: int = 0
    load_changes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "arrivals_admitted": self.arrivals_admitted,
            "arrivals_rejected": self.arrivals_rejected,
            "departures": self.departures,
            "departures_ignored": self.departures_ignored,
            "drains": self.drains,
            "returns": self.returns,
            "drain_migrations": self.drain_migrations,
            "drain_stranded": self.drain_stranded,
            "load_changes": self.load_changes,
        }


class LifecycleEngine:
    """Applies a compiled timeline to the shards it owns, epoch by epoch.

    One engine serves one fleet (or one process worker's shard subset,
    via :meth:`subset`).  All mutable state — phase and flash factors,
    captured baseline loads, statistics — lives on the engine and is
    pickled with it (drain state lives on the clusters), so worker-side
    application behaves exactly like in-process application; statistics
    are collected back from the workers.  The one exception is the
    opt-in :attr:`decisions` log: it stays wherever it was recorded, so
    audit admission decisions with a serial fleet (a process fleet
    warns when ``record_decisions`` is set before spawn).
    """

    def __init__(
        self,
        timeline: FleetTimeline,
        admission: Optional[AdmissionPolicy] = None,
        record_decisions: bool = False,
    ) -> None:
        self.timeline = timeline
        self.admission = admission or AdmissionPolicy()
        self.record_decisions = record_decisions
        self._batches: Dict[int, EpochBatch] = timeline.compile()
        #: Baseline (phase-1.0) load per VM, captured per shard on first
        #: touch and maintained through arrivals/departures.
        self._base_loads: Dict[str, Dict[str, float]] = {}
        self._phase: Dict[str, float] = {}
        self._flash: Dict[str, List[float]] = {}
        #: Cached per-VM admission pressure rows (nominal-load demand).
        self._rows: Dict[str, Dict[str, np.ndarray]] = {}
        #: Cached per-shard host capacity matrices (static topology).
        self._capacity: Dict[str, np.ndarray] = {}
        #: Cached per-shard resident-VM name sets (O(1) existence checks
        #: without forcing a placement-map rebuild per event).
        self._vm_names: Dict[str, Set[str]] = {}
        #: Cached per-shard admission inputs.
        self._summaries: Dict[str, _ShardSummary] = {}
        #: Tenants whose arrival was rejected, per shard — their
        #: auto-scheduled departures are dropped, not errors.
        self._rejected: Dict[str, Set[str]] = {}
        self.stats: Dict[str, LifecycleStats] = {}
        #: Full :class:`PlacementDecision` log (``record_decisions``).
        self.decisions: List[PlacementDecision] = []

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def subset(self, shard_ids: Sequence[str]) -> "LifecycleEngine":
        """An engine owning only ``shard_ids``'s events *and* their
        accumulated per-shard state.

        Process workers take their engines through here.
        The subset carries the parent's mutable state for its shards —
        captured baseline loads, phase/flash factors, rejected tenants,
        counters — so an engine rebuilt mid-run (resuming from a
        checkpoint, regrouping workers) continues exactly
        where the parent stood; subsetting a fresh engine copies empty
        state, preserving the original start-of-run behaviour.  The
        opt-in :attr:`decisions` log stays behind (see the class
        docstring)."""
        engine = LifecycleEngine(
            self.timeline.subset(shard_ids),
            admission=self.admission,
            record_decisions=self.record_decisions,
        )
        engine.load_state(self.state_dict(shard_ids))
        return engine

    def state_dict(
        self, shard_ids: Optional[Sequence[str]] = None
    ) -> Dict[str, Dict[str, object]]:
        """Picklable snapshot of the per-shard mutable state.

        Covers exactly what checkpoint/resume and :meth:`subset` need:
        captured baseline (phase-1.0) loads, phase and flash factors,
        rejected-tenant sets and the statistics counters — all keyed by
        shard id.  The pure caches (pressure rows, capacity matrices,
        VM-name sets) are deliberately absent: they rebuild
        deterministically from the live clusters.  ``shard_ids``
        restricts the snapshot to a shard subset.
        """
        wanted = None if shard_ids is None else set(shard_ids)

        def keep(shard_id: str) -> bool:
            return wanted is None or shard_id in wanted

        return {
            "base_loads": {
                sid: dict(loads)
                for sid, loads in self._base_loads.items()
                if keep(sid)
            },
            "phase": {
                sid: scale for sid, scale in self._phase.items() if keep(sid)
            },
            "flash": {
                sid: list(scales)
                for sid, scales in self._flash.items()
                if keep(sid)
            },
            "rejected": {
                sid: set(names)
                for sid, names in self._rejected.items()
                if keep(sid)
            },
            "stats": {
                sid: stats.as_dict()
                for sid, stats in self.stats.items()
                if keep(sid)
            },
        }

    def load_state(self, state: Mapping[str, Mapping[str, object]]) -> None:
        """Merge a :meth:`state_dict` snapshot into this engine.

        Per-shard overwrite semantics: shards present in ``state``
        replace this engine's entries, shards absent keep theirs — so
        disjoint worker snapshots can be loaded one after
        another to reassemble a fleet-wide engine.
        """
        for sid, loads in state.get("base_loads", {}).items():
            self._base_loads[sid] = dict(loads)
        for sid, scale in state.get("phase", {}).items():
            self._phase[sid] = float(scale)
        for sid, scales in state.get("flash", {}).items():
            self._flash[sid] = list(scales)
        for sid, names in state.get("rejected", {}).items():
            self._rejected[sid] = set(names)
        for sid, counters in state.get("stats", {}).items():
            self.stats[sid] = LifecycleStats(**counters)

    @staticmethod
    def merge_states(
        states: Sequence[Mapping[str, Mapping[str, object]]],
    ) -> Dict[str, Dict[str, object]]:
        """Union disjoint per-shard :meth:`state_dict` snapshots.

        Worker groups each own a disjoint shard set, so their
        snapshots merge by plain per-shard key union — the reassembly
        step of a process fleet checkpoint.
        """
        merged: Dict[str, Dict[str, object]] = {}
        for state in states:
            for key, per_shard in state.items():
                merged.setdefault(key, {}).update(per_shard)
        return merged

    def validate(self, shards: Mapping[str, "FleetShard"]) -> None:
        """Static validation against the fleet topology (at build time).

        Every event must name a known shard, and every host-addressed
        event (drains, returns, pinned arrivals) a known host of that
        shard.  VM names are checked at apply time — departures may
        legitimately reference VMs the timeline itself creates.
        """
        for event in self.timeline.events:
            shard = shards.get(event.shard)
            if shard is None:
                raise ValueError(
                    f"epoch {event.epoch}: lifecycle event references "
                    f"unknown shard {event.shard!r}: {event!r}"
                )
            host = getattr(event, "host", None)
            if host is not None and host not in shard.cluster.hosts:
                raise ValueError(
                    f"epoch {event.epoch}: lifecycle event references "
                    f"unknown host {host!r} on shard {event.shard!r}: {event!r}"
                )

    def _stats(self, shard_id: str) -> LifecycleStats:
        stats = self.stats.get(shard_id)
        if stats is None:
            stats = self.stats[shard_id] = LifecycleStats()
        return stats

    def _shard(
        self, shards: Mapping[str, "FleetShard"], epoch: int, event
    ) -> "FleetShard":
        shard = shards.get(event.shard)
        if shard is None:
            raise ValueError(
                f"epoch {epoch}: lifecycle event references unknown shard "
                f"{event.shard!r}: {event!r}"
            )
        return shard

    def _bases(self, shard: "FleetShard") -> Dict[str, float]:
        bases = self._base_loads.get(shard.shard_id)
        if bases is None:
            bases = self._base_loads[shard.shard_id] = dict(shard.baseline_loads)
        return bases

    def _load_factor(self, shard_id: str) -> float:
        return self._phase.get(shard_id, 1.0) * math.prod(
            self._flash.get(shard_id, [])
        )

    def _vm_name_set(self, shard: "FleetShard") -> Set[str]:
        names = self._vm_names.get(shard.shard_id)
        if names is None:
            names = self._vm_names[shard.shard_id] = set(
                shard.cluster.all_vms()
            )
        return names

    def _state_for(
        self,
        shard: "FleetShard",
        cache: Dict[str, _ShardAdmissionState],
    ) -> _ShardAdmissionState:
        state = cache.get(shard.shard_id)
        if state is None:
            capacity = self._capacity.get(shard.shard_id)
            if capacity is None:
                capacity = np.vstack(
                    [
                        _capacity_row_for(host)
                        for host in shard.cluster.hosts.values()
                    ]
                )
                self._capacity[shard.shard_id] = capacity
            summary = self._summaries.get(shard.shard_id)
            if summary is None or not summary.describes(shard.cluster):
                summary = self._summaries[shard.shard_id] = _ShardSummary(
                    shard.cluster
                )
            summary.refresh(self._rows.setdefault(shard.shard_id, {}))
            state = _ShardAdmissionState(
                summary, self.admission, shard.cluster.drained_hosts, capacity
            )
            cache[shard.shard_id] = state
        return state

    # ------------------------------------------------------------------
    # Epoch application
    # ------------------------------------------------------------------
    def apply(self, shards: Mapping[str, "FleetShard"], epoch: int) -> None:
        """Apply epoch ``epoch``'s event batch to ``shards``.

        Runs wherever the shard state lives (fleet process or worker),
        immediately before the stress schedule and the simulation step.
        In-epoch order: departures, drains, returns, load changes,
        arrivals — see :class:`~repro.fleet.timeline.EpochBatch`.
        """
        batch = self._batches.get(epoch)
        if batch is None:
            return
        states: Dict[str, _ShardAdmissionState] = {}
        for event in batch.departures:
            self._apply_departure(shards, epoch, event)
        for event in batch.drains:
            self._apply_drain(shards, epoch, event, states)
        for event in batch.returns:
            self._apply_return(shards, epoch, event, states)
        reload: Dict[str, "FleetShard"] = {}
        for event in batch.phases:
            reload[event.shard] = self._shard(shards, epoch, event)
            self._phase[event.shard] = event.scale
        for event in batch.flash_starts:
            reload[event.shard] = self._shard(shards, epoch, event)
            self._flash.setdefault(event.shard, []).append(event.scale)
        for event in batch.flash_ends:
            reload[event.shard] = self._shard(shards, epoch, event)
            flash = self._flash.get(event.shard, [])
            if event.scale in flash:
                flash.remove(event.scale)
        for shard_id, shard in reload.items():
            self._reload_shard(shard)
            # Loads changed under the admission view's feet.
            states.pop(shard_id, None)
        for event in batch.arrivals:
            self._apply_arrival(shards, epoch, event, states)

    def _reload_shard(self, shard: "FleetShard") -> None:
        factor = self._load_factor(shard.shard_id)
        bases = self._bases(shard)
        loads = {
            name: min(1.0, load * factor) for name, load in bases.items()
        }
        shard.baseline_loads = loads
        # Push the new loads to the hosts immediately (idempotent with
        # the shard's own delta push at the next epoch): same-epoch
        # admission then scores residents and newcomers at the same
        # load level instead of mixing pre- and post-change factors.
        for host in shard.cluster.hosts.values():
            for name in host._vms:
                load = loads.get(name)
                if load is not None:
                    host.set_load(name, load)
        self._stats(shard.shard_id).load_changes += 1

    def _apply_departure(
        self, shards: Mapping[str, "FleetShard"], epoch: int, event: VMDeparture
    ) -> None:
        shard = self._shard(shards, epoch, event)
        names = self._vm_name_set(shard)
        if event.vm_name not in names:
            # A tenant whose arrival was rejected never joined; its
            # scheduled departure is simply moot (rejection is a
            # counted outcome, not a timeline error).
            if event.vm_name in self._rejected.get(shard.shard_id, ()):
                self._stats(shard.shard_id).departures_ignored += 1
                return
            raise ValueError(
                f"epoch {epoch}: lifecycle event references unknown VM "
                f"{event.vm_name!r} on shard {event.shard!r}: {event!r}"
            )
        shard.cluster.remove_vm(event.vm_name)
        names.discard(event.vm_name)
        self._bases(shard).pop(event.vm_name, None)
        shard.baseline_loads.pop(event.vm_name, None)
        self._rows.get(shard.shard_id, {}).pop(event.vm_name, None)
        self._stats(shard.shard_id).departures += 1

    def _apply_drain(
        self,
        shards: Mapping[str, "FleetShard"],
        epoch: int,
        event: HostDrain,
        states: Dict[str, _ShardAdmissionState],
    ) -> None:
        shard = self._shard(shards, epoch, event)
        host = shard.cluster.hosts.get(event.host)
        if host is None:
            raise ValueError(
                f"epoch {epoch}: lifecycle event references unknown host "
                f"{event.host!r} on shard {event.shard!r}: {event!r}"
            )
        stats = self._stats(shard.shard_id)
        stats.drains += 1
        # Cluster-level drain state: the placement manager's mitigation
        # migrations respect it too, not just lifecycle admission.
        shard.cluster.drained_hosts.add(event.host)
        cached = states.get(shard.shard_id)
        if cached is not None:
            cached.mark_drained(event.host)
        residents = list(host._vms)
        if not residents:
            return
        state = self._state_for(shard, states)
        rows = self._rows.setdefault(shard.shard_id, {})
        for vm_name in residents:
            vm = host.get_vm(vm_name)
            row = rows.get(vm_name)
            if row is None:
                row = rows[vm_name] = _pressure_row_for(vm, host.epoch_seconds)
            probe = row * host.get_load(vm_name)
            destination = state.pick(probe, vm, forced=True, exclude=event.host)
            if self.record_decisions:
                self._record_decision(
                    state, probe, vm, event.host, destination, forced=True
                )
            if destination is None:
                stats.drain_stranded += 1
                continue
            shard.cluster.migrate_vm(vm_name, destination)
            state.commit(destination, probe, vm)
            state.release(event.host, probe, vm)
            stats.drain_migrations += 1

    def _apply_return(
        self,
        shards: Mapping[str, "FleetShard"],
        epoch: int,
        event: HostReturn,
        states: Dict[str, _ShardAdmissionState],
    ) -> None:
        shard = self._shard(shards, epoch, event)
        if event.host not in shard.cluster.hosts:
            raise ValueError(
                f"epoch {epoch}: lifecycle event references unknown host "
                f"{event.host!r} on shard {event.shard!r}: {event!r}"
            )
        shard.cluster.drained_hosts.discard(event.host)
        cached = states.get(shard.shard_id)
        if cached is not None:
            cached.mark_returned(event.host)
        self._stats(shard.shard_id).returns += 1

    def _apply_arrival(
        self,
        shards: Mapping[str, "FleetShard"],
        epoch: int,
        event: VMArrival,
        states: Dict[str, _ShardAdmissionState],
    ) -> None:
        shard = self._shard(shards, epoch, event)
        cluster = shard.cluster
        names = self._vm_name_set(shard)
        if event.vm_name in names:
            raise ValueError(
                f"epoch {epoch}: lifecycle arrival duplicates an existing "
                f"VM name {event.vm_name!r} on shard {event.shard!r}: {event!r}"
            )
        stats = self._stats(shard.shard_id)
        vm = VirtualMachine(
            name=event.vm_name,
            workload=event.workload.copy(),
            vcpus=event.vcpus,
            memory_gb=event.memory_gb,
        )
        epoch_seconds = next(iter(cluster.hosts.values())).epoch_seconds
        row = _pressure_row_for(vm, epoch_seconds)
        factor = self._load_factor(shard.shard_id)
        effective = min(1.0, event.load * factor)
        probe = row * effective
        if event.host is not None:
            destination: Optional[str] = event.host
            if destination not in cluster.hosts:
                raise ValueError(
                    f"epoch {epoch}: lifecycle event references unknown host "
                    f"{destination!r} on shard {event.shard!r}: {event!r}"
                )
            if destination in cluster.drained_hosts:
                raise ValueError(
                    f"epoch {epoch}: lifecycle arrival pinned to drained "
                    f"host {destination!r}: {event!r}"
                )
            if not cluster.hosts[destination].can_fit(vm):
                raise ValueError(
                    f"epoch {epoch}: lifecycle arrival pinned to host "
                    f"{destination!r} which cannot fit it: {event!r}"
                )
            # No scoring needed: only keep an already-built admission
            # view consistent (a later rebuild sees the placement).
            state = states.get(shard.shard_id)
        else:
            state = self._state_for(shard, states)
            destination = state.pick(probe, vm, forced=False)
            if self.record_decisions:
                self._record_decision(
                    state, probe, vm, "(arrival)", destination, forced=False
                )
        if destination is None:
            stats.arrivals_rejected += 1
            self._rejected.setdefault(shard.shard_id, set()).add(event.vm_name)
            return
        cluster.place_vm(vm, destination, load=effective)
        if state is not None:
            state.commit(destination, probe, vm)
        names.add(event.vm_name)
        self._bases(shard)[event.vm_name] = event.load
        shard.baseline_loads[event.vm_name] = effective
        self._rows.setdefault(shard.shard_id, {})[event.vm_name] = row
        stats.arrivals_admitted += 1

    def _record_decision(
        self,
        state: _ShardAdmissionState,
        probe: np.ndarray,
        vm: VirtualMachine,
        source: str,
        destination: Optional[str],
        forced: bool,
    ) -> None:
        candidates = sorted(
            state.evaluations(probe, vm, forced=forced),
            key=lambda entry: (entry[0], -state.free_vcpus[entry[1]], entry[1]),
        )
        evaluations = [
            CandidateEvaluation(
                host_name=host_name,
                predicted_background_degradation=score,
                predicted_vm_degradation=score,
                score=score,
            )
            for score, _i, host_name in candidates
        ]
        self.decisions.append(
            PlacementDecision(
                vm_name=vm.name,
                source_host=source,
                destination=destination,
                evaluations=evaluations,
                no_acceptable_destination=destination is None,
            )
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats_dict(self) -> Dict[str, Dict[str, int]]:
        """Per-shard lifecycle counters as plain dicts (picklable)."""
        return {
            shard_id: stats.as_dict() for shard_id, stats in self.stats.items()
        }
