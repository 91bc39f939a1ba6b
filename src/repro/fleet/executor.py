"""Shard execution strategies: serial and process pool.

A fleet's shards share nothing, so the only question is *where* their
epochs run:

* ``"serial"`` — one loop in the calling thread (the reference);
* ``"process"`` — one single-worker
  :class:`~concurrent.futures.ProcessPoolExecutor` per shard group.
  Each worker process receives its shards' **full simulation state once**
  (pickled at start-up), owns it for the rest of the run, and publishes
  its epoch results through double-buffered
  :mod:`multiprocessing.shared_memory` segments
  (:mod:`repro.fleet.shm`): decision arrays and counter-total rows are
  written in place and only a tiny descriptor crosses the pool pipe, so
  fleet throughput scales with cores instead of with one interpreter
  and the IPC tax stays near zero.

Both run the same per-epoch loop, :func:`step_shards` (lifecycle
events, then the stress schedule, then every shard's epoch in
insertion order) — the serial strategy in the fleet process, the
process strategy inside each worker against its own shard subset.
Each converts every shard's :class:`~repro.core.deepdive.EpochReport`
with :func:`columnar_from_report` — the serial strategy as it returns
them, a worker before its shared-memory write — so the fleet always
receives :class:`ColumnarShardReport` columns.  Results merge in shard
insertion order and every shard evolves from its own pickled RNG
state, so a fleet run is **bit-identical for any worker count**
(pinned by ``tests/integration/test_parallel_fleet.py``).

The process strategy deliberately uses *dedicated* single-worker pools
instead of one shared pool: task-to-worker affinity is what lets each
worker keep its shards' state resident.  Workers are spawned (not
forked), so the exchanged state is exactly the explicit payload and the
strategy behaves identically on every platform and Python version.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.warning import ACTIONS
from repro.fleet.faults import FaultPlan
from repro.fleet.shm import (
    ShmBlockReader,
    ShmBlockWriter,
    ShmEpochDescriptor,
    close_readers,
    unlink_worker_segments,
)
from repro.fleet.supervisor import (
    FaultPolicy,
    GroupSnapshot,
    WorkerHealth,
    WorkerSupervisor,
)
from repro.fleet.telemetry import (
    C_DESCRIPTOR_BYTES,
    C_SHM_REGROWS,
    TelemetryRegistry,
    WorkerSpanBuffer,
)
from repro.hardware.batch import N_COUNTERS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.deepdive import EpochReport
    from repro.fleet.fleet import FleetShard, ScheduledStress
    from repro.fleet.lifecycle import LifecycleEngine

#: Supported shard execution strategies.
EXECUTOR_KINDS = ("serial", "process")

#: How process workers start: spawned, so a worker holds exactly its
#: pickled payload on every platform.
_START_METHOD = "spawn"

#: Stable warning-action code table shared by parent and workers (the
#: decision arrays store indices into this tuple).
WARNING_ACTIONS: Tuple[str, ...] = tuple(action.value for action in ACTIONS)


def action_histogram(counts: np.ndarray) -> Dict[str, int]:
    """Per-action counts (:data:`WARNING_ACTIONS` order) as a dict of
    the non-zero entries."""
    return {
        WARNING_ACTIONS[i]: int(count)
        for i, count in enumerate(counts.tolist())
        if count
    }


def apply_stress_schedule(
    shards: Mapping[str, "FleetShard"],
    schedule: Sequence["ScheduledStress"],
    epoch: int,
) -> None:
    """Switch scheduled stress VMs on or off for the given epoch.

    Runs wherever the shard state lives: in the fleet process for the
    serial strategy, inside each worker (against its own shard subset)
    for the process strategy.
    """
    for stress in schedule:
        shard = shards.get(stress.shard_id)
        if shard is None:
            continue
        # host_of() reads the shared placement cache directly; all_vms()
        # would copy the whole per-VM dict once per schedule entry per
        # epoch — a real cost on many-shard fleets.
        host_name = shard.cluster.host_of(stress.vm_name)
        if host_name is None:
            continue
        active = stress.start_epoch <= epoch < stress.end_epoch
        shard.cluster.hosts[host_name].set_load(
            stress.vm_name, stress.intensity if active else 0.0
        )


# ----------------------------------------------------------------------
# Columnar epoch results (every executor's fleet report)
# ----------------------------------------------------------------------
@dataclass
class ColumnarShardReport:
    """One shard's epoch outcome as flat arrays.

    Row ``i`` of every array describes the epoch's ``i``-th observation
    (DeepDive's deterministic placement order).  The arrays carry
    everything the fleet aggregates — actions, analyzer invocations,
    confirmations, distances and sibling counts — without materialising
    per-VM observation objects, which is what keeps the parent/worker
    exchange cheap at 10k VMs.  Per-VM observations stay available at
    the shard level (:meth:`~repro.fleet.fleet.FleetShard.run_epoch`
    returns the full :class:`~repro.core.deepdive.EpochReport`).

    ``vm_names`` may be ``None`` in transit when the shard's VM set is
    unchanged since the previously shipped epoch (the common steady
    state); the parent-side executor rehydrates it from its cache before
    the report reaches callers.
    """

    shard_id: str
    epoch: int
    #: Observation names in row order (``None`` only in transit).
    vm_names: Optional[Tuple[str, ...]]
    #: Index into :data:`WARNING_ACTIONS` per observation.
    action_codes: np.ndarray
    #: Mahalanobis distance of each warning decision.
    distances: np.ndarray
    #: Sibling VMs consulted / agreeing for the global check.
    siblings_consulted: np.ndarray
    siblings_agreeing: np.ndarray
    #: Whether the analyzer ran for the observation.
    analyzed: np.ndarray
    #: Whether interference was confirmed (analysis or known signature).
    confirmed: np.ndarray
    #: Sum of the shard's raw counters for the epoch (Table-1 column
    #: order), from :meth:`Cluster.latest_counter_totals`, on either
    #: substrate.  Contract: a shard whose hosts held **no resident VMs
    #: at all** in the epoch (mass departures, full drain) reports an
    #: explicit **all-zeros row** — the telemetry is present and
    #: genuinely zero.  ``None`` means the telemetry is **unavailable**:
    #: the shard's cluster has not run an epoch yet.  Fleet-level
    #: aggregation skips unavailable shards instead of discarding the
    #: fleet total (see :meth:`ColumnarFleetReport.counter_totals`).
    counter_totals: Optional[np.ndarray] = None

    def observations(self) -> int:
        return int(self.action_codes.shape[0])

    def analyzer_invocations(self) -> int:
        return int(np.count_nonzero(self.analyzed))

    def confirmed_interference(self) -> List[str]:
        rows = np.flatnonzero(self.confirmed).tolist()
        if self.vm_names is None and rows:
            raise ValueError(
                f"shard {self.shard_id!r} epoch {self.epoch}: vm_names is "
                "elided in transit (unchanged since the previously shipped "
                "epoch), so confirmed rows cannot be named; read the report "
                "after the executor has rehydrated its VM names"
            )
        names = self.vm_names or ()
        return [names[i] for i in rows]

    def confirmed_count(self) -> int:
        """Confirmed observations, counted without touching vm_names."""
        return int(np.count_nonzero(self.confirmed))

    def action_counts(self) -> np.ndarray:
        """Per-action decision counts (:data:`WARNING_ACTIONS` order)."""
        return np.bincount(self.action_codes, minlength=len(WARNING_ACTIONS))

    def action_histogram(self) -> Dict[str, int]:
        return action_histogram(self.action_counts())

    def copy(self) -> "ColumnarShardReport":
        """The same report over arrays of its own (no shared memory)."""
        return dataclass_replace(
            self,
            action_codes=self.action_codes.copy(),
            distances=self.distances.copy(),
            siblings_consulted=self.siblings_consulted.copy(),
            siblings_agreeing=self.siblings_agreeing.copy(),
            analyzed=self.analyzed.copy(),
            confirmed=self.confirmed.copy(),
            counter_totals=(
                None if self.counter_totals is None else self.counter_totals.copy()
            ),
        )


@dataclass
class ColumnarFleetReport:
    """The fleet-wide outcome of one monitoring epoch, one
    :class:`ColumnarShardReport` per shard in shard insertion order.

    Under the process executor the arrays are views into the workers'
    shared-memory buffers, valid for two further epochs; :meth:`copy`
    gives a report that may be held for longer.
    """

    epoch: int
    shard_reports: Dict[str, ColumnarShardReport] = field(default_factory=dict)
    #: Shards excluded from this epoch because their worker was
    #: quarantined (graceful degradation) — empty on a healthy fleet.
    missing_shards: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.missing_shards)

    def observations(self) -> int:
        return sum(r.observations() for r in self.shard_reports.values())

    def analyzer_invocations(self) -> int:
        return sum(r.analyzer_invocations() for r in self.shard_reports.values())

    def confirmed_interference(self) -> List[Tuple[str, str]]:
        return [
            (shard_id, vm_name)
            for shard_id, report in self.shard_reports.items()
            for vm_name in report.confirmed_interference()
        ]

    def confirmed_count(self) -> int:
        """Fleet-wide confirmed observations without per-VM name lists."""
        return sum(r.confirmed_count() for r in self.shard_reports.values())

    def action_counts(self) -> np.ndarray:
        """Per-action counts summed over shards (one pre-sized vector —
        no intermediate per-shard dicts on the summary hot loop)."""
        counts = np.zeros(len(WARNING_ACTIONS), dtype=np.int64)
        for report in self.shard_reports.values():
            counts += report.action_counts()
        return counts

    def action_histogram(self) -> Dict[str, int]:
        return action_histogram(self.action_counts())

    def counter_totals(self) -> Optional[np.ndarray]:
        """Fleet-wide raw counter sums over shards with telemetry.

        Shards whose totals are unavailable (``None`` — no epoch yet)
        are *skipped* rather than nulling the whole fleet's telemetry;
        emptied-out shards contribute explicit zeros.
        Returns ``None`` only when no shard has totals at all.
        """
        total = np.zeros(N_COUNTERS, dtype=float)
        available = False
        for report in self.shard_reports.values():
            if report.counter_totals is not None:
                total += report.counter_totals
                available = True
        return total if available else None

    def copy(self) -> "ColumnarFleetReport":
        """The same report over arrays of its own (no shared memory)."""
        return dataclass_replace(
            self,
            shard_reports={
                shard_id: report.copy()
                for shard_id, report in self.shard_reports.items()
            },
        )


def columnar_from_report(
    shard_id: str, epoch: int, report: "EpochReport", shard: "FleetShard"
) -> ColumnarShardReport:
    """One shard's :class:`EpochReport` columns plus its counter totals."""
    decisions = report.decisions
    return ColumnarShardReport(
        shard_id=shard_id,
        epoch=epoch,
        vm_names=decisions.vm_names,
        action_codes=decisions.action_codes,
        distances=decisions.distances,
        siblings_consulted=decisions.siblings_consulted,
        siblings_agreeing=decisions.siblings_agreeing,
        analyzed=report.analyzed,
        confirmed=report.confirmed,
        counter_totals=shard.cluster.latest_counter_totals(),
    )


def step_shards(
    shards: Mapping[str, "FleetShard"],
    schedule: Sequence["ScheduledStress"],
    lifecycle: Optional["LifecycleEngine"],
    epoch: int,
    analyze: bool,
    telemetry: Union[TelemetryRegistry, WorkerSpanBuffer, None] = None,
) -> Dict[str, "EpochReport"]:
    """Advance ``shards`` by one epoch, wherever their state lives.

    Lifecycle events run first (they may move or remove the very VMs
    the stress schedule addresses), then the stress schedule, then each
    shard's epoch in insertion order.  ``telemetry`` is the fleet's
    registry or a worker's span buffer; deep spans are recorded only on
    its sampled epochs.  Each executor converts the returned reports
    with :func:`columnar_from_report` at its own boundary.
    """
    deep = telemetry.deep(epoch) if telemetry is not None else None
    with deep.span("lifecycle", epoch) if deep is not None else nullcontext():
        if lifecycle is not None:
            lifecycle.apply(shards, epoch)
        apply_stress_schedule(shards, schedule, epoch)
    return {
        shard_id: shard.run_epoch(analyze=analyze, telemetry=deep, epoch=epoch)
        for shard_id, shard in shards.items()
    }


class SerialShardExecutor:
    """The reference strategy: shard epochs run in the calling thread."""

    kind = "serial"

    def __init__(
        self,
        shards: Mapping[str, "FleetShard"],
        schedule: Sequence["ScheduledStress"],
        lifecycle: Optional["LifecycleEngine"] = None,
        telemetry: Optional[TelemetryRegistry] = None,
    ) -> None:
        self._shards = shards
        self._schedule = schedule
        self._lifecycle = lifecycle
        self._telemetry = telemetry

    def run_shard_epochs(
        self, epoch: int, analyze: bool
    ) -> Dict[str, ColumnarShardReport]:
        reports = step_shards(
            self._shards,
            self._schedule,
            self._lifecycle,
            epoch,
            analyze,
            self._telemetry,
        )
        return {
            shard_id: columnar_from_report(
                shard_id, epoch, report, self._shards[shard_id]
            )
            for shard_id, report in reports.items()
        }

    def bootstrap(self) -> None:
        for shard in self._shards.values():
            shard.bootstrap()

    def shutdown(self) -> None:
        pass


# ----------------------------------------------------------------------
# Process strategy: state-owning workers, columnar exchange
# ----------------------------------------------------------------------
#: Worker-process state installed by :func:`_worker_init`.
_WORKER_STATE: Dict[str, object] = {}


def _worker_init(payload: bytes) -> None:
    shards, schedule, lifecycle, faults, telemetry = pickle.loads(payload)
    _WORKER_STATE["shards"] = {shard.shard_id: shard for shard in shards}
    _WORKER_STATE["schedule"] = schedule
    _WORKER_STATE["lifecycle"] = lifecycle
    _WORKER_STATE["faults"] = faults
    _WORKER_STATE["sent_names"] = {}
    # ``telemetry`` is the parent's TelemetryConfig (or None): workers
    # record deep spans into a local buffer and ship the drained tuples
    # back on the columnar descriptor — never a registry over the pipe.
    _WORKER_STATE["telemetry"] = (
        WorkerSpanBuffer(telemetry.profile_every)
        if telemetry is not None and telemetry.enabled
        else None
    )


def _worker_ready() -> bool:
    return "shards" in _WORKER_STATE


def _worker_bootstrap() -> None:
    for shard in _WORKER_STATE["shards"].values():
        shard.bootstrap()


def _worker_run_epoch(epoch: int, analyze: bool) -> ShmEpochDescriptor:
    shards: Dict[str, "FleetShard"] = _WORKER_STATE["shards"]
    sent_names: Dict[str, Tuple[str, ...]] = _WORKER_STATE["sent_names"]
    faults: Optional[FaultPlan] = _WORKER_STATE.get("faults")
    buffer: Optional[WorkerSpanBuffer] = _WORKER_STATE.get("telemetry")
    if faults:
        faults.fire(epoch, "before")
    # Each worker owns its shards' lifecycle subset; churn therefore
    # happens where the state lives, epochs before the stress toggle.
    reports = step_shards(
        shards,
        _WORKER_STATE["schedule"],
        _WORKER_STATE.get("lifecycle"),
        epoch,
        analyze,
        buffer,
    )
    results: List[ColumnarShardReport] = []
    for shard_id, report in reports.items():
        result = columnar_from_report(shard_id, epoch, report, shards[shard_id])
        # Ship the VM-name table only when it changed — steady-state
        # epochs are pure arrays on the wire.
        if sent_names.get(shard_id) == result.vm_names:
            result.vm_names = None
        else:
            sent_names[shard_id] = result.vm_names
        results.append(result)
    if faults:
        # "mid": state advanced, results not yet shipped.
        faults.fire(epoch, "mid")
    # The decision arrays and counter rows are written in place in
    # shared memory; only the descriptor (plus any changed VM-name
    # tables) hits the pipe.
    writer = _WORKER_STATE.get("shm_writer")
    if writer is None:
        writer = ShmBlockWriter(len(shards))
        _WORKER_STATE["shm_writer"] = writer
    descriptor = writer.write(epoch, results)
    if buffer is not None:
        # Worker spans ride the descriptor — a few dozen bytes on
        # sampled epochs — so the pipe stays tiny.
        descriptor = dataclass_replace(descriptor, spans=buffer.drain())
    if faults:
        faults.fire(epoch, "after")
        descriptor = faults.mangle(epoch, descriptor)
    return descriptor


def _worker_replay(steps: Sequence[Tuple[int, bool]]) -> int:
    """Re-run epochs state-only during supervised recovery.

    Runs :func:`_worker_run_epoch`'s loop, :func:`step_shards`, with the
    recorded ``analyze`` flags and no spans, and ships nothing: the
    discarded reports are pure reads, so the missed epochs replay
    bit-identically.  Injected faults never fire during replay (the
    respawn payload already dropped the fired ones).
    """
    for epoch, analyze in steps:
        step_shards(
            _WORKER_STATE["shards"],
            _WORKER_STATE["schedule"],
            _WORKER_STATE.get("lifecycle"),
            epoch,
            analyze,
        )
    return len(steps)


def _collect_from_shards(
    shards: Mapping[str, "FleetShard"], lifecycle: Optional["LifecycleEngine"]
) -> Dict[str, Dict[str, object]]:
    """Per-shard statistics snapshot from wherever the state lives."""
    collected: Dict[str, Dict[str, object]] = {}
    lifecycle_stats = lifecycle.stats_dict() if lifecycle is not None else {}
    for shard_id, shard in shards.items():
        deepdive = shard.deepdive
        collected[shard_id] = {
            "detections": shard.detections(),
            "migrations": shard.migrations(),
            "analyzer_invocations": deepdive.analyzer_invocations(),
            "profiling_seconds": deepdive.total_profiling_seconds(),
            "repository_bytes": deepdive.repository_size_bytes(),
            "vms": shard.cluster.vm_count(),
            "hosts": len(shard.cluster.hosts),
            "lifecycle": lifecycle_stats.get(shard_id, {}),
        }
    return collected


def _worker_collect() -> Dict[str, Dict[str, object]]:
    return _collect_from_shards(
        _WORKER_STATE["shards"], _WORKER_STATE.get("lifecycle")
    )


def _worker_snapshot() -> bytes:
    """Pickle this worker's live group state for a fleet checkpoint.

    Ships the shard objects themselves (clusters, DeepDive deployments,
    counter rings, RNG states) plus the lifecycle engine's mutable
    state — the exact state a resumed fleet needs to continue
    bit-identically.  Pickled inside the worker, so only one opaque
    blob crosses the pool pipe.
    """
    shards: Dict[str, "FleetShard"] = _WORKER_STATE["shards"]
    lifecycle = _WORKER_STATE.get("lifecycle")
    return pickle.dumps(
        (
            list(shards.values()),
            lifecycle.state_dict() if lifecycle is not None else None,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


class ProcessShardExecutor:
    """Shard groups dispatched to dedicated state-owning worker processes.

    ``groups`` are the worker shard groups (the fleet forms them
    round-robin over shard insertion order, within each region); each
    group gets its own single-worker
    :class:`ProcessPoolExecutor` whose initializer installs the group's
    pickled shards (and schedule subset) as resident worker state.  Every
    epoch, the parent submits one task per group and merges the columnar
    results in shard insertion order, so results are identical to serial
    execution for any worker count.

    Epochs are exchanged through each worker's double-buffered
    shared-memory segments (:mod:`repro.fleet.shm`): the worker writes
    decision arrays and counter rows in place and ships only a
    descriptor, and the parent serves NumPy views straight off the
    segments.  Such views stay valid until the worker rewrites the same
    buffer — two further epochs; :meth:`ColumnarFleetReport.copy` gives
    a report that may be held longer.  The parent owns segment cleanup:
    shutdown (or interpreter exit, via ``weakref.finalize``) closes and
    unlinks every attached segment, so no ``/dev/shm`` entries survive a
    run, killed workers included.

    The parent's shard objects are only the start-of-run template: once
    workers hold the state, mutating them (or the schedule) from the
    parent has no effect.  Fleet-wide statistics are gathered on demand
    through :meth:`collect`.
    """

    kind = "process"

    def __init__(
        self,
        shards: Mapping[str, "FleetShard"],
        schedule: Sequence["ScheduledStress"],
        groups: Sequence[Sequence[str]],
        lifecycle: Optional["LifecycleEngine"] = None,
        fault_policy: Optional[FaultPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry: Optional[TelemetryRegistry] = None,
    ) -> None:
        self._shards = shards
        self._schedule = list(schedule)
        self._lifecycle = lifecycle
        self._telemetry = telemetry
        self._shard_order = list(shards)
        self._groups: List[List[str]] = [list(group) for group in groups]
        self._pools: Optional[List[ProcessPoolExecutor]] = None
        #: One shared-memory reader per pool (parallel to ``_pools``).
        self._readers: Optional[List[ShmBlockReader]] = None
        self._stopped = False
        self._broken = False
        self._ever_started = False
        self._bootstrapped = False
        #: Last VM-name table received per shard (rehydrates reports
        #: whose names were elided on the wire).
        self._names_cache: Dict[str, Tuple[str, ...]] = {}
        #: One live health record per worker group (built at spawn).
        self._health: Optional[List[WorkerHealth]] = None
        #: Group indices whose shards were quarantined (graceful
        #: degradation after an exhausted restart budget).
        self._quarantined: set = set()
        #: Shards owned by workers that died without recovery (names the
        #: snapshot/epoch refusal errors).
        self._dead_shards: List[str] = []
        self.fault_policy = fault_policy
        #: The injected fault schedule (tests/CI chaos); falls back to
        #: the REPRO_FLEET_FAULT_PLAN environment hook.
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._supervisor = (
            WorkerSupervisor(fault_policy, self) if fault_policy is not None else None
        )

    @property
    def workers(self) -> int:
        return len(self._groups)

    @property
    def started(self) -> bool:
        return self._pools is not None

    @property
    def quarantined_shards(self) -> Tuple[str, ...]:
        """Shards excluded by quarantined workers, in shard order."""
        if not self._quarantined:
            return ()
        dead = {sid for group in self._quarantined for sid in self._groups[group]}
        return tuple(sid for sid in self._shard_order if sid in dead)

    def worker_health(self) -> List[Dict[str, object]]:
        """One JSON-able health row per worker group (empty pre-spawn)."""
        if self._health is None:
            return []
        return [health.as_dict() for health in self._health]

    def _group_payload(
        self,
        index: int,
        shards: Sequence["FleetShard"],
        lifecycle: Optional["LifecycleEngine"],
        fired_through: Optional[int] = None,
    ) -> bytes:
        """Pickle one worker group's init payload.

        ``fired_through`` (a respawn) drops the group's injected faults
        up to and including the failed epoch, so recovery replay cannot
        re-fire a kill that already happened.
        """
        members = set(self._groups[index])
        faults = None
        if self._fault_plan is not None:
            faults = self._fault_plan.for_worker(index)
            if fired_through is not None:
                faults = faults.after_epoch(fired_through)
            if not faults:
                faults = None
        return pickle.dumps(
            (
                list(shards),
                [s for s in self._schedule if s.shard_id in members],
                lifecycle,
                faults,
                # Only the config crosses the pipe; the worker builds a
                # local WorkerSpanBuffer from it.
                self._telemetry.config if self._telemetry is not None else None,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _ensure_started(self) -> List[ProcessPoolExecutor]:
        if self._pools is not None:
            return self._pools
        if self._stopped:
            # Respawning would silently reset the run to the parent's
            # start-of-run template state.
            raise RuntimeError(
                "process shard executor was shut down; build a new Fleet "
                "to start another run"
            )
        if self._lifecycle is not None and self._lifecycle.record_decisions:
            warnings.warn(
                "lifecycle record_decisions: the placement-decision log is "
                "recorded inside the worker processes and is not collected "
                "back to the parent engine; audit admission decisions with "
                "a serial fleet instead",
                RuntimeWarning,
                stacklevel=4,
            )
        pools: List[ProcessPoolExecutor] = []
        for index, group in enumerate(self._groups):
            payload = self._group_payload(
                index,
                [self._shards[shard_id] for shard_id in group],
                self._lifecycle.subset(group) if self._lifecycle is not None else None,
            )
            pools.append(self._spawn_pool(payload))
        # Surface spawn/unpickling failures eagerly rather than on the
        # first epoch.
        for pool in pools:
            if not pool.submit(_worker_ready).result():
                raise RuntimeError("fleet worker failed to initialise its shards")
        self._pools = pools
        self._ever_started = True
        readers = [ShmBlockReader() for _ in pools]
        self._readers = readers
        # Unlink the transport segments at interpreter exit even if the
        # caller never reaches shutdown() — /dev/shm must end empty.
        weakref.finalize(self, close_readers, readers)
        # Pin each worker's pid now: a hung worker cannot answer a pid
        # query later, and the supervisor needs a kill target.
        self._health = []
        for index, pool in enumerate(pools):
            health = WorkerHealth(
                worker=index, shard_ids=tuple(self._groups[index])
            )
            health.pid = pool.submit(os.getpid).result()
            health.beat()
            self._health.append(health)
        return pools

    def _spawn_pool(self, payload: bytes) -> ProcessPoolExecutor:
        """One dedicated single-worker pool holding ``payload`` as its
        resident state, released when the strategy is collected."""
        pool = ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context(_START_METHOD),
            initializer=_worker_init,
            initargs=(payload,),
        )
        weakref.finalize(self, pool.shutdown, wait=False)
        return pool

    def _receive(
        self, index: int, result: ShmEpochDescriptor
    ) -> List[Tuple[str, ColumnarShardReport]]:
        """One group's epoch result as ``(shard_id, report)`` pairs.

        The payload lives in the worker's shared segments: the
        descriptor is read into views (remapping on a regrow handshake)
        and folded into the telemetry bus — its pipe cost, any regrow,
        and the worker's spans.
        """
        reader = self._readers[index]
        regrows_before = reader.regrows
        pairs = reader.read(result)
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.inc(
                C_DESCRIPTOR_BYTES,
                len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)),
            )
            regrown = reader.regrows - regrows_before
            if regrown:
                telemetry.inc(C_SHM_REGROWS, regrown)
            if result.spans:
                telemetry.fold_worker_spans(result.spans, self._health[index].pid)
        return pairs

    def _commit_pairs(
        self,
        pairs: Sequence[Tuple[str, ColumnarShardReport]],
        merged: Dict[str, ColumnarShardReport],
    ) -> None:
        for shard_id, shard_report in pairs:
            merged[shard_id] = shard_report
            # Commit name tables as they arrive, before the ordered
            # merge, so a later worker's failure cannot desync the
            # elision caches.
            if shard_report.vm_names is not None:
                self._names_cache[shard_id] = shard_report.vm_names

    def run_shard_epochs(
        self, epoch: int, analyze: bool
    ) -> Dict[str, ColumnarShardReport]:
        if self._broken:
            raise RuntimeError(
                "a previous fleet epoch failed mid-flight, so the worker-side "
                "shard states are no longer in lock step; build a new Fleet"
                + self._dead_shard_clause()
            )
        pools = self._ensure_started()
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.note_epoch(epoch, analyze)
        timeout = (
            supervisor.policy.heartbeat_timeout if supervisor is not None else None
        )
        merged: Dict[str, ColumnarShardReport] = {}
        futures: List[Optional[object]] = [None] * len(pools)
        failures: List[Tuple[int, BaseException]] = []
        telemetry = self._telemetry
        dispatch = (
            telemetry.span("dispatch", epoch)
            if telemetry is not None
            else nullcontext()
        )
        with dispatch:
            for index, pool in enumerate(pools):
                if index in self._quarantined:
                    continue
                try:
                    # A pool that already noticed a dead worker raises
                    # BrokenProcessPool at submit time.
                    futures[index] = pool.submit(_worker_run_epoch, epoch, analyze)
                except BaseException as exc:  # noqa: BLE001 - classified below
                    failures.append((index, exc))
            for index, future in enumerate(futures):
                if future is None:
                    continue
                try:
                    pairs = self._receive(index, future.result(timeout=timeout))
                except BaseException as exc:  # noqa: BLE001 - classified below
                    # Worker death (BrokenProcessPool), a tripped
                    # heartbeat deadline (TimeoutError) or a lost/corrupt
                    # descriptor (attach failure) all land here; the
                    # supervisor decides what survives.
                    failures.append((index, exc))
                    continue
                self._commit_pairs(pairs, merged)
                self._health[index].beat(epoch)
        fatal = supervisor is None or any(
            not isinstance(exc, Exception) for _, exc in failures
        )
        if failures and fatal:
            # Unsupervised (or interrupted): some workers advanced their
            # shards this epoch and some did not; the run cannot
            # continue deterministically.
            for index, _ in failures:
                self._note_dead_group(index)
            self._broken = True
            self._drain_descriptors(futures)
            raise failures[0][1]
        for index, exc in failures:
            pairs = supervisor.recover(index, epoch, analyze, exc)
            if pairs is not None:
                self._commit_pairs(pairs, merged)
        if supervisor is not None:
            supervisor.after_epoch(epoch)
        if telemetry is None:
            return self._ordered_merge(epoch, merged)
        with telemetry.span("merge", epoch):
            return self._ordered_merge(epoch, merged)

    # ------------------------------------------------------------------
    # Supervised recovery mechanics (driven by WorkerSupervisor)
    # ------------------------------------------------------------------
    def _kill_worker(self, index: int) -> Optional[int]:
        """SIGKILL a group's resident worker (hangs cannot be asked to
        exit); returns the pid, tolerant of an already-dead process."""
        health = self._health[index] if self._health is not None else None
        pid = health.pid if health is not None else None
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        return pid

    def _release_group(self, index: int) -> None:
        """Tear down one group's pool, reader and leftover segments."""
        pid = self._kill_worker(index)
        self._pools[index].shutdown(wait=False)
        # Replacing the reader inside the shared list keeps the
        # interpreter-exit finalize accurate (it closes the list).
        self._readers[index].close()
        self._readers[index] = ShmBlockReader()
        if pid is not None:
            # Sweep segments the dead worker created but never announced
            # (in-flight regrow generations, unshipped descriptors).
            unlink_worker_segments(pid)

    def _respawn_group(
        self, index: int, snapshot: GroupSnapshot, fired_through: int
    ) -> None:
        """Replace a failed group's worker with one rehydrated from the
        recovery snapshot (or the run-start template)."""
        self._release_group(index)
        group = self._groups[index]
        if snapshot.blob is None:
            shards: List["FleetShard"] = [self._shards[sid] for sid in group]
            engine = (
                self._lifecycle.subset(group) if self._lifecycle is not None else None
            )
        else:
            shards, lifecycle_state = pickle.loads(snapshot.blob)
            engine = None
            if self._lifecycle is not None:
                engine = self._lifecycle.subset(group)
                if lifecycle_state is not None:
                    engine.load_state(lifecycle_state)
        payload = self._group_payload(
            index, shards, engine, fired_through=fired_through
        )
        pool = self._spawn_pool(payload)
        if not pool.submit(_worker_ready).result():
            pool.shutdown(wait=False)
            raise RuntimeError("respawned fleet worker failed to initialise its shards")
        self._pools[index] = pool
        health = self._health[index]
        health.pid = pool.submit(os.getpid).result()
        health.beat()
        if snapshot.blob is None and self._bootstrapped:
            # The template predates the in-worker bootstrap; re-run it so
            # replay starts from the same learned repositories.
            pool.submit(_worker_bootstrap).result()

    def _replay_group(
        self,
        index: int,
        steps: Sequence[Tuple[int, bool]],
        timeout: Optional[float],
    ) -> None:
        if not steps:
            return
        self._pools[index].submit(_worker_replay, list(steps)).result(timeout=timeout)

    def _run_group_epoch(
        self,
        index: int,
        epoch: int,
        analyze: bool,
        timeout: Optional[float],
    ) -> List[Tuple[str, ColumnarShardReport]]:
        """Run one epoch on one group (the recovery re-run)."""
        return self._receive(
            index,
            self._pools[index]
            .submit(_worker_run_epoch, epoch, analyze)
            .result(timeout=timeout),
        )

    def _quarantine_group(self, index: int) -> None:
        """Exclude a group's shards from the rest of the run."""
        self._release_group(index)
        self._quarantined.add(index)
        health = self._health[index]
        health.quarantined = True
        health.alive = False

    def _note_dead_group(self, index: int) -> None:
        for shard_id in self._groups[index]:
            if shard_id not in self._dead_shards:
                self._dead_shards.append(shard_id)
        if self._health is not None:
            self._health[index].alive = False

    def _mark_group_dead(self, index: int) -> None:
        """Terminal failure: record the dead shards and break the run."""
        self._note_dead_group(index)
        self._broken = True
        self._release_group(index)

    def _dead_shard_clause(self) -> str:
        if not self._dead_shards:
            return ""
        ordered = [sid for sid in self._shard_order if sid in set(self._dead_shards)]
        return f" (dead worker shards: {', '.join(ordered)})"

    def _fetch_group_snapshots(self) -> List[Tuple[int, Optional[bytes]]]:
        """Per-group worker snapshots for the supervisor's resnapshot
        cadence; a group that cannot answer yields ``None`` (its stale
        snapshot stays in force)."""
        out: List[Tuple[int, Optional[bytes]]] = []
        for index, pool in enumerate(self._pools or ()):
            if index in self._quarantined:
                continue
            try:
                out.append((index, pool.submit(_worker_snapshot).result()))
            except Exception:  # noqa: BLE001 - detected again next epoch
                out.append((index, None))
        return out

    def _drain_descriptors(self, futures: Sequence[object]) -> None:
        """Reclaim every transport segment after a mid-epoch failure.

        When one worker dies mid-epoch, the surviving workers may already
        have written their buffers — possibly into segments freshly
        created this epoch whose names only the undelivered descriptors
        carry.  Attaching them here puts every live segment under the
        readers' ownership, so shutdown still unlinks all of /dev/shm.
        Segments whose descriptors never arrived at all (the worker died
        between allocating a regrow generation and shipping the
        descriptor naming it) are swept by pid afterwards.
        """
        for reader, future in zip(self._readers or (), futures):
            if future is None:
                continue
            try:
                reader.read(future.result(timeout=5.0))
            except BaseException:
                continue
        attached = {
            name
            for reader in self._readers or ()
            for name in reader.segment_names()
        }
        for health in self._health or ():
            if health.pid is not None:
                unlink_worker_segments(health.pid, skip=attached)

    def _ordered_merge(
        self, epoch: int, merged: Dict[str, ColumnarShardReport]
    ) -> Dict[str, ColumnarShardReport]:
        """Validate the collected shard set and merge in insertion order.

        A worker returning an unexpected or incomplete shard set (or a
        name-elided report with no cached name table) means the
        worker-side states can no longer be trusted: the executor is
        marked broken and the failure names the offending shards instead
        of surfacing as a raw ``KeyError`` mid-merge.
        """
        quarantined = set(self.quarantined_shards)
        missing = [
            sid
            for sid in self._shard_order
            if sid not in merged and sid not in quarantined
        ]
        unexpected = [sid for sid in merged if sid not in self._shards]
        if missing or unexpected:
            self._broken = True
            raise RuntimeError(
                f"fleet epoch {epoch} returned an inconsistent shard set "
                f"(missing: {missing or 'none'}, unexpected: "
                f"{unexpected or 'none'}); the worker states are no longer "
                "in lock step — build a new Fleet"
            )
        out: Dict[str, ColumnarShardReport] = {}
        for shard_id in self._shard_order:
            if shard_id in quarantined:
                continue
            result = merged[shard_id]
            if result.vm_names is None:
                names = self._names_cache.get(shard_id)
                if names is None:
                    self._broken = True
                    raise RuntimeError(
                        f"fleet epoch {epoch} elided the VM-name table of "
                        f"shard {shard_id!r} but no table was ever shipped; "
                        "the worker states are no longer in lock step — "
                        "build a new Fleet"
                    )
                result.vm_names = names
            out[shard_id] = result
        return out

    def bootstrap(self) -> None:
        pools = self._ensure_started()
        for future in [pool.submit(_worker_bootstrap) for pool in pools]:
            future.result()
        # Respawned-from-template workers must repeat the bootstrap
        # before replay, or their repositories diverge from the run.
        self._bootstrapped = True

    def worker_pids(self) -> List[int]:
        """One resident worker pid per shard group (spawning if needed)."""
        self._ensure_started()
        return [health.pid for health in self._health]

    def collect(self) -> Dict[str, Dict[str, object]]:
        """Per-shard statistics and event logs.

        Fetched from the workers when they are running.  Before any
        worker has started (no bootstrap, no epoch) the parent's
        template shards *are* the current state, so they are served
        directly instead of cold-spawning every pool just to read the
        same start-of-run snapshot back.
        """
        if self._broken:
            raise RuntimeError(
                "fleet workers are broken (a previous epoch failed "
                "mid-flight); statistics can no longer be collected"
                + self._dead_shard_clause()
            )
        if self._pools is None:
            if self._ever_started:
                # Started then shut down: the worker state is gone and
                # the template would silently misreport the run
                # (Fleet.shutdown caches a final snapshot beforehand).
                raise RuntimeError(
                    "process shard executor was shut down; worker "
                    "statistics were discarded — collect before shutdown"
                )
            return _collect_from_shards(self._shards, self._lifecycle)
        merged: Dict[str, Dict[str, object]] = {}
        try:
            futures = [
                pool.submit(_worker_collect)
                for index, pool in enumerate(self._pools)
                if index not in self._quarantined
            ]
            for future in futures:
                merged.update(future.result())
        except BaseException:
            self._broken = True
            raise
        return merged

    def snapshot_state(
        self,
    ) -> Optional[
        Tuple[
            Dict[str, "FleetShard"],
            Optional[Dict[str, Dict[str, object]]],
            Tuple[str, ...],
        ]
    ]:
        """The live worker-side shard objects and lifecycle state.

        Returns ``(shards in shard order, merged lifecycle state dict or
        None, missing shard ids)`` fetched from the workers, or ``None``
        before any worker has started — the parent's template objects
        *are* the current state then, and the caller snapshots those
        locally instead of cold-spawning every pool.  Worker groups own
        disjoint shard sets, so their lifecycle states reassemble by
        plain per-shard union.  Quarantined groups are skipped: their
        shard ids come back in the third slot so the checkpoint can
        carry an explicit ``missing_shards`` manifest.  Broken workers
        cannot be checkpointed (their shard states are no longer in
        lock step), and neither can a shut-down executor (the worker
        state is gone): both raise :class:`RuntimeError`.
        """
        from repro.fleet.lifecycle import LifecycleEngine

        if self._broken:
            raise RuntimeError(
                "fleet workers are broken (a previous epoch failed "
                "mid-flight)"
                + self._dead_shard_clause()
                + "; the run cannot be checkpointed — resume from the "
                "last checkpoint instead (Fleet.resume)"
            )
        if self._pools is None:
            if self._ever_started:
                raise RuntimeError(
                    "process shard executor was shut down; the worker "
                    "state was discarded — snapshot before shutdown"
                )
            return None
        quarantined = set(self.quarantined_shards)
        shards: Dict[str, "FleetShard"] = {}
        lifecycle_states: List[Dict[str, Dict[str, object]]] = []
        try:
            futures = [
                pool.submit(_worker_snapshot)
                for index, pool in enumerate(self._pools)
                if index not in self._quarantined
            ]
            for future in futures:
                group_shards, lifecycle_state = pickle.loads(future.result())
                for shard in group_shards:
                    shards[shard.shard_id] = shard
                if lifecycle_state is not None:
                    lifecycle_states.append(lifecycle_state)
        except BaseException:
            # A worker that cannot answer a read-only snapshot is dead;
            # further epochs would desync from the surviving groups.
            self._broken = True
            raise
        missing = [
            sid
            for sid in self._shard_order
            if sid not in shards and sid not in quarantined
        ]
        unexpected = [sid for sid in shards if sid not in self._shards]
        if missing or unexpected:
            self._broken = True
            raise RuntimeError(
                "worker snapshot returned an inconsistent shard set "
                f"(missing: {missing or 'none'}, unexpected: "
                f"{unexpected or 'none'}); the worker states are no "
                "longer in lock step — build a new Fleet"
            )
        ordered = {sid: shards[sid] for sid in self._shard_order if sid in shards}
        merged = (
            LifecycleEngine.merge_states(lifecycle_states)
            if lifecycle_states
            else None
        )
        return ordered, merged, self.quarantined_shards

    def shutdown(self) -> None:
        self._stopped = True
        try:
            if self._pools is not None:
                for pool in self._pools:
                    pool.shutdown(wait=True)
                self._pools = None
        finally:
            if self._readers is not None:
                # Workers are gone; close and unlink every transport
                # segment so /dev/shm ends the run empty — even when a
                # broken pool's shutdown raised above.
                close_readers(self._readers)
                self._readers = None

