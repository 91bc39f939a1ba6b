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

Each strategy also answers for the state it owns, through one surface:
:meth:`~SerialShardExecutor.collect` (per-shard statistics and event
logs, in shard order), :meth:`~SerialShardExecutor.snapshot_state`
(what a checkpoint pickles), ``worker_health()`` and
``quarantined_shards``.  The serial strategy reads the fleet's own
shard objects; the process strategy serves its start-of-run template
until the workers spawn, fetches from them while they run (one collect
per epoch, cached), and keeps the final collect it takes at shutdown.
The fleet never asks which strategy it holds.

The process strategy also owns its workers' failures.  Every failure
that is an :class:`Exception` — a dead worker, a missed heartbeat
deadline, a descriptor that cannot be attached — goes through one
recover-or-give-up routine, steered by the fleet's
:class:`~repro.fleet.supervisor.FaultPolicy`: within the restart budget
the group is respawned from its recovery point, its missed epochs are
replayed and the failed epoch re-run, bit-identically; past it the
group's shards are quarantined, or the run breaks with a
:class:`RuntimeError` naming the dead shards.  A fleet without a policy
has a zero-restart budget, so its first failure breaks the run.

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
import time
import warnings
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

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
from repro.fleet.supervisor import FaultPolicy, WorkerHealth
from repro.fleet.telemetry import (
    C_DESCRIPTOR_BYTES,
    C_QUARANTINED,
    C_RECOVERIES,
    C_RESTARTS,
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


def _collect_from_shards(
    shards: Mapping[str, "FleetShard"], lifecycle: Optional["LifecycleEngine"]
) -> Dict[str, Dict[str, object]]:
    """Per-shard statistics and event logs, in shard order, read from
    shard objects wherever they live (the fleet process or a worker)."""
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


#: What a fleet checkpoint holds of the shard state: the live shards in
#: shard order, the lifecycle engine's state (or ``None``) and the ids
#: of shards missing from the snapshot (quarantined workers).
ShardState = Tuple[
    Dict[str, "FleetShard"], Optional[Dict[str, Dict[str, object]]], Tuple[str, ...]
]


def _local_state(
    shards: Mapping[str, "FleetShard"], lifecycle: Optional["LifecycleEngine"]
) -> ShardState:
    """The :data:`ShardState` of shard objects held in this process."""
    return (
        dict(shards),
        lifecycle.state_dict() if lifecycle is not None else None,
        (),
    )


class SerialShardExecutor:
    """The reference strategy: shard epochs run in the calling thread,
    against the fleet's own shard objects, so its statistics and
    snapshots read those objects directly.  It has no workers: its
    health table is empty and it never quarantines a shard."""

    quarantined_shards: Tuple[str, ...] = ()

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

    def collect(self) -> Dict[str, Dict[str, object]]:
        """Per-shard statistics and event logs, in shard order."""
        return _collect_from_shards(self._shards, self._lifecycle)

    def snapshot_state(self) -> "ShardState":
        """The fleet's own shards, lifecycle state and no missing shards."""
        return _local_state(self._shards, self._lifecycle)

    def worker_health(self) -> List[Dict[str, object]]:
        return []

    def shutdown(self) -> None:
        pass


# ----------------------------------------------------------------------
# Process strategy: state-owning workers, columnar exchange
# ----------------------------------------------------------------------
_T = TypeVar("_T")


def _submit(pool: ProcessPoolExecutor, fn: Callable[..., _T], *args: object) -> Future:
    """``pool.submit``, with a pool that already noticed a dead worker
    (and so refuses the task) answering through the future instead."""
    try:
        return pool.submit(fn, *args)
    except BaseException as exc:  # noqa: BLE001 - surfaced by result()
        future: Future = Future()
        future.set_exception(exc)
        return future


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


def _worker_ready() -> int:
    """The worker's pid: a task runs only once the initializer installed
    the shards (an initializer that raised breaks the pool instead)."""
    return os.getpid()


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
    """Re-run epochs state-only while a respawned worker recovers.

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
    parent has no effect.  Until then the template *is* the state, and
    :meth:`collect` and :meth:`snapshot_state` serve it without spawning
    anything.  Construction spawns nothing and copies nothing the caller
    may still change (the schedule and the fault-plan environment hook
    are read at the first spawn).
    """

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
        self._schedule = schedule
        self._lifecycle = lifecycle
        self._telemetry = telemetry
        self._shard_order = list(shards)
        self._groups: List[List[str]] = [list(group) for group in groups]
        self._pools: Optional[List[ProcessPoolExecutor]] = None
        #: One shared-memory reader per pool (parallel to ``_pools``).
        self._readers: Optional[List[ShmBlockReader]] = None
        self._broken = False
        self._ever_started = False
        self._bootstrapped = False
        #: Worker statistics since the last epoch or bootstrap; after
        #: shutdown, the final snapshot taken just before the workers
        #: went away.
        self._collected: Optional[Dict[str, Dict[str, object]]] = None
        #: Why the final collect at shutdown failed, if it did.
        self._final_collect_error: Optional[BaseException] = None
        #: Last VM-name table received per shard (rehydrates reports
        #: whose names were elided on the wire).
        self._names_cache: Dict[str, Tuple[str, ...]] = {}
        #: One live health record per worker group (built at spawn).
        self._health: Optional[List[WorkerHealth]] = None
        #: Group indices whose shards were quarantined (graceful
        #: degradation after an exhausted restart budget).
        self._quarantined: Set[int] = set()
        #: Group indices that died without recovery (every refusal
        #: names their shards).
        self._dead: Set[int] = set()
        #: The budget every worker failure is judged by.
        self._policy = (
            fault_policy if fault_policy is not None else FaultPolicy(restarts=0)
        )
        #: Per-group recovery point: the first epoch it does not capture
        #: and the worker snapshot, or ``None`` for the run-start
        #: template.  Kept only under a non-zero restart budget.
        self._recovery: List[Tuple[int, Optional[bytes]]] = []
        #: The ``analyze`` flag of every epoch since the oldest recovery
        #: point (the replay input); empty under a zero restart budget.
        self._replay: Dict[int, bool] = {}
        #: The injected fault schedule (tests/CI chaos); ``None`` falls
        #: back to the REPRO_FLEET_FAULT_PLAN environment hook at spawn.
        self._fault_plan = fault_plan

    @property
    def workers(self) -> int:
        return len(self._groups)

    @property
    def started(self) -> bool:
        return self._pools is not None

    @property
    def quarantined_shards(self) -> Tuple[str, ...]:
        """Shards excluded by quarantined workers, in shard order."""
        return self._shards_of(self._quarantined) if self._quarantined else ()

    def _shards_of(self, groups: Set[int]) -> Tuple[str, ...]:
        members = {sid for group in groups for sid in self._groups[group]}
        return tuple(sid for sid in self._shard_order if sid in members)

    def worker_health(self) -> List[Dict[str, object]]:
        """One JSON-able health row per worker group (empty pre-spawn)."""
        if self._health is None:
            return []
        return [health.as_dict() for health in self._health]

    def _recovery_blob(self, index: int) -> Optional[bytes]:
        """The group's recovery snapshot, or ``None`` for the template."""
        return self._recovery[index][1] if self._recovery else None

    def _group_payload(self, index: int, fired_through: Optional[int]) -> bytes:
        """Pickle one worker group's init payload from its recovery point.

        ``fired_through`` (a respawn) drops the group's injected faults
        up to and including the failed epoch, so recovery replay cannot
        re-fire a kill that already happened.
        """
        group = self._groups[index]
        engine = self._lifecycle.subset(group) if self._lifecycle is not None else None
        blob = self._recovery_blob(index)
        if blob is None:
            shards: List["FleetShard"] = [self._shards[sid] for sid in group]
        else:
            shards, lifecycle_state = pickle.loads(blob)
            if engine is not None and lifecycle_state is not None:
                engine.load_state(lifecycle_state)
        members = set(group)
        faults = None
        if self._fault_plan is not None:
            faults = self._fault_plan.for_worker(index)
            if fired_through is not None:
                faults = faults.after_epoch(fired_through)
            if not faults:
                faults = None
        return pickle.dumps(
            (
                shards,
                [s for s in self._schedule if s.shard_id in members],
                engine,
                faults,
                # Only the config crosses the pipe; the worker builds a
                # local WorkerSpanBuffer from it.
                self._telemetry.config if self._telemetry is not None else None,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _start_groups(
        self, indices: Sequence[int], fired_through: Optional[int] = None
    ) -> Dict[int, ProcessPoolExecutor]:
        """Spawn a worker for each group in ``indices`` from its recovery
        point (the template at the first spawn) and wait for all of them.

        Workers initialise in parallel, and spawn or unpickling failures
        surface here rather than on the first epoch.  A worker started
        from the template after the bootstrap repeats it.  Each health
        record is pinned to its new pid: a hung worker cannot answer a
        pid query later, and recovery needs a kill target.
        """
        pools = {
            index: self._spawn_pool(self._group_payload(index, fired_through))
            for index in indices
        }
        try:
            ready = {index: pool.submit(_worker_ready) for index, pool in pools.items()}
            for index, future in ready.items():
                health = self._health[index]
                health.pid = future.result()
                health.beat()
                if self._bootstrapped and self._recovery_blob(index) is None:
                    pools[index].submit(_worker_bootstrap).result()
        except BaseException:
            for pool in pools.values():
                pool.shutdown(wait=False)
            raise
        return pools

    def _ensure_started(self) -> List[ProcessPoolExecutor]:
        self._refuse_if_broken(
            "build a new Fleet or resume from the last checkpoint (Fleet.resume)"
        )
        if self._pools is not None:
            return self._pools
        if self._ever_started:
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
        # Freeze what the workers are built from: later changes to the
        # caller's schedule must not reach a respawned worker either.
        self._schedule = list(self._schedule)
        if self._fault_plan is None:
            self._fault_plan = FaultPlan.from_env()
        self._ever_started = True
        self._health = [
            WorkerHealth(worker=index, shard_ids=tuple(group))
            for index, group in enumerate(self._groups)
        ]
        try:
            pools = self._start_groups(range(self.workers))
        except BaseException:
            self._broken = True
            raise
        self._pools = list(pools.values())
        readers = [ShmBlockReader() for _ in self._pools]
        self._readers = readers
        # Unlink the transport segments at interpreter exit even if the
        # caller never reaches shutdown() — /dev/shm must end empty.
        weakref.finalize(self, close_readers, readers)
        return self._pools

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

    def _broadcast(
        self, task: Callable[[], _T], tolerant: bool = False
    ) -> List[Tuple[int, _T]]:
        """``(group, result)`` of ``task`` on every live worker group.

        A group that cannot answer breaks the run, unless ``tolerant``
        and its failure is an :class:`Exception`: then it is left out
        (the next epoch detects a dead worker on its own).
        """
        futures = [
            (index, _submit(pool, task))
            for index, pool in enumerate(self._pools)
            if index not in self._quarantined
        ]
        answered: List[Tuple[int, _T]] = []
        for index, future in futures:
            try:
                answered.append((index, future.result()))
            except BaseException as exc:
                if tolerant and isinstance(exc, Exception):
                    continue
                self._broken = True
                raise
        return answered

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
        pools = self._ensure_started()
        self._collected = None
        policy = self._policy
        if policy.restarts:
            if not self._recovery:
                # The workers' template state is the first epoch ever
                # submitted (a resumed fleet starts past zero).
                self._recovery = [(epoch, None)] * self.workers
            self._replay[epoch] = analyze
        merged: Dict[str, ColumnarShardReport] = {}
        failures: List[Tuple[int, BaseException]] = []
        telemetry = self._telemetry
        dispatch = (
            telemetry.span("dispatch", epoch)
            if telemetry is not None
            else nullcontext()
        )
        with dispatch:
            futures: List[Optional[Future]] = [
                None
                if index in self._quarantined
                else _submit(pool, _worker_run_epoch, epoch, analyze)
                for index, pool in enumerate(pools)
            ]
            for index, future in enumerate(futures):
                if future is None:
                    continue
                try:
                    pairs = self._receive(
                        index, future.result(timeout=policy.heartbeat_timeout)
                    )
                except BaseException as exc:  # noqa: BLE001 - see _recover
                    # Worker death (BrokenProcessPool), a tripped
                    # heartbeat deadline (TimeoutError) or a lost/corrupt
                    # descriptor (attach failure) all land here.
                    failures.append((index, exc))
                    continue
                self._commit_pairs(pairs, merged)
                self._health[index].beat(epoch)
        if failures:
            self._recover(epoch, analyze, futures, failures, merged)
        every = policy.resnapshot_every
        if policy.restarts and every and (epoch + 1) % every == 0:
            self._resnapshot(epoch)
        if telemetry is None:
            return self._ordered_merge(epoch, merged)
        with telemetry.span("merge", epoch):
            return self._ordered_merge(epoch, merged)

    # ------------------------------------------------------------------
    # The one worker-failure path
    # ------------------------------------------------------------------
    def _recover(
        self,
        epoch: int,
        analyze: bool,
        futures: Sequence[Optional[Future]],
        failures: Sequence[Tuple[int, BaseException]],
        merged: Dict[str, ColumnarShardReport],
    ) -> None:
        """Recover every group that failed ``epoch``, or give up.

        A group whose failure is an :class:`Exception` is restarted
        within the policy's budget (:meth:`_restart_group`) and its
        re-run results join ``merged``; once the budget is spent it is
        quarantined or, under ``on_exhaustion="raise"``, the run gives
        up.  Any other failure (a ``KeyboardInterrupt``) gives up at
        once.
        """
        failed = {index for index, _ in failures}
        delivered = [
            None if index in failed else future for index, future in enumerate(futures)
        ]
        fatal = [exc for _, exc in failures if not isinstance(exc, Exception)]
        if fatal:
            self._give_up(epoch, delivered, sorted(failed), fatal[0])
        for position, (index, cause) in enumerate(failures):
            try:
                pairs = self._restart_group(index, epoch, analyze, cause)
            except BaseException as exc:
                quarantine = self._policy.on_exhaustion == "quarantine"
                if quarantine and isinstance(exc, Exception):
                    self._quarantine_group(index, epoch)
                    continue
                self._give_up(
                    epoch, delivered, sorted(i for i, _ in failures[position:]), exc
                )
            self._commit_pairs(pairs, merged)

    def _restart_group(
        self, index: int, epoch: int, analyze: bool, cause: Exception
    ) -> List[Tuple[str, ColumnarShardReport]]:
        """Respawn, replay and re-run one failed group within its budget.

        Each attempt rehydrates the worker from the group's recovery
        point (with the faults fired through ``epoch`` dropped), replays
        the recorded epochs since that point state-only, and re-runs
        ``epoch``.  Returns the epoch's shard results; raises the last
        failure once the budget is spent — at once under a zero budget.
        """
        policy = self._policy
        health = self._health[index]
        health.alive = False
        telemetry = self._telemetry
        while health.restarts < policy.restarts:
            health.restarts += 1
            if telemetry is not None:
                telemetry.inc(C_RECOVERIES)
            if policy.backoff:
                time.sleep(policy.backoff)
            start = self._recovery[index][0]
            steps = [(e, self._replay[e]) for e in range(start, epoch)]
            timeout = policy.heartbeat_timeout
            span = (
                telemetry.span("recovery", epoch)
                if telemetry is not None
                else nullcontext()
            )
            try:
                with span:
                    self._release_group(index)
                    pool = self._start_groups([index], fired_through=epoch)[index]
                    self._pools[index] = pool
                    if steps:
                        # The heartbeat budget per replayed epoch.
                        pool.submit(_worker_replay, steps).result(
                            timeout=timeout and timeout * len(steps)
                        )
                    pairs = self._receive(
                        index,
                        pool.submit(_worker_run_epoch, epoch, analyze).result(
                            timeout=timeout
                        ),
                    )
            except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                cause = exc
                continue
            health.alive = True
            health.beat(epoch)
            if telemetry is not None:
                telemetry.inc(C_RESTARTS)
                telemetry.log_event(
                    "worker_restarted",
                    worker=index,
                    epoch=epoch,
                    restarts=health.restarts,
                )
            return pairs
        raise cause

    def _quarantine_group(self, index: int, epoch: int) -> None:
        """Exclude a group's shards from the rest of the run."""
        self._release_group(index)
        self._quarantined.add(index)
        health = self._health[index]
        health.quarantined = True
        health.alive = False
        telemetry = self._telemetry
        if telemetry is not None:
            shards = self._groups[index]
            telemetry.inc(C_QUARANTINED, len(shards))
            telemetry.log_event(
                "shards_quarantined", worker=index, epoch=epoch, shards=list(shards)
            )

    def _give_up(
        self,
        epoch: int,
        delivered: Sequence[Optional[Future]],
        groups: Sequence[int],
        cause: BaseException,
    ) -> NoReturn:
        """The one terminal failure routine.

        Records ``groups`` as dead and the executor as broken, reclaims
        the segments the surviving groups' ``delivered`` descriptors
        name, releases the failed groups (killing their workers and
        sweeping their segments by pid) and raises a
        :class:`RuntimeError` naming the dead shards, chained from
        ``cause`` — or ``cause`` itself when it is not an
        :class:`Exception` (a ``KeyboardInterrupt`` stays fatal).
        """
        self._broken = True
        self._dead.update(groups)
        self._drain_descriptors(delivered)
        for index in groups:
            self._health[index].alive = False
            self._release_group(index)
        if not isinstance(cause, Exception):
            raise cause
        workers = ", ".join(
            f"worker {index} (shards: {', '.join(self._groups[index])})"
            for index in groups
        )
        raise RuntimeError(
            f"fleet {workers} failed at epoch {epoch} and the restart budget "
            f"({self._policy.restarts}) is exhausted, so the run cannot "
            f"continue{self._dead_shard_clause()}; resume from the last "
            "checkpoint (Fleet.resume), or give the fleet a FaultPolicy "
            "with restarts to recover or on_exhaustion='quarantine' to "
            "degrade gracefully"
        ) from cause

    def _resnapshot(self, epoch: int) -> None:
        """Move every answering group's recovery point past ``epoch`` and
        forget the replay history no recovery point reaches back to.

        A group that cannot answer (it died right after returning its
        epoch) keeps its older point: recovery replays a little further
        back.
        """
        for index, blob in self._broadcast(_worker_snapshot, tolerant=True):
            self._recovery[index] = (epoch + 1, blob)
        oldest = min(
            (
                start
                for index, (start, _) in enumerate(self._recovery)
                if index not in self._quarantined
            ),
            default=epoch + 1,
        )
        self._replay = {e: flag for e, flag in self._replay.items() if e >= oldest}

    def _release_group(self, index: int) -> None:
        """SIGKILL one group's worker (a hung one cannot be asked to
        exit) and tear down its pool, reader and leftover segments."""
        pid = self._health[index].pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        self._pools[index].shutdown(wait=False)
        # Replacing the reader inside the shared list keeps the
        # interpreter-exit finalize accurate (it closes the list).
        self._readers[index].close()
        self._readers[index] = ShmBlockReader()
        if pid is not None:
            # Sweep segments the dead worker created but never announced
            # (in-flight regrow generations, unshipped descriptors).
            unlink_worker_segments(pid)

    def _dead_shard_clause(self) -> str:
        if not self._dead:
            return ""
        return f" (dead worker shards: {', '.join(self._shards_of(self._dead))})"

    def _refuse_if_broken(self, consequence: str) -> None:
        if self._broken:
            raise RuntimeError(
                "fleet workers are broken: an earlier operation failed "
                "mid-flight, so the worker-side shard states are no longer "
                f"in lock step{self._dead_shard_clause()}; {consequence}"
            )

    def _drain_descriptors(self, futures: Sequence[Optional[Future]]) -> None:
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

    def _check_shard_set(self, source: str, received: Mapping[str, object]) -> None:
        """Refuse a shard set that is not exactly the live shards.

        A worker returning an unexpected or incomplete shard set means
        the worker-side states can no longer be trusted: the executor is
        marked broken and the failure names the offending shards instead
        of surfacing as a raw ``KeyError`` later.
        """
        quarantined = set(self.quarantined_shards)
        missing = [
            sid
            for sid in self._shard_order
            if sid not in received and sid not in quarantined
        ]
        unexpected = [sid for sid in received if sid not in self._shards]
        if missing or unexpected:
            self._broken = True
            raise RuntimeError(
                f"{source} returned an inconsistent shard set "
                f"(missing: {missing or 'none'}, unexpected: "
                f"{unexpected or 'none'}); the worker states are no longer "
                "in lock step — build a new Fleet"
            )

    def _ordered_merge(
        self, epoch: int, merged: Dict[str, ColumnarShardReport]
    ) -> Dict[str, ColumnarShardReport]:
        """Validate the collected shard set and merge in insertion order
        (a name-elided report with no cached name table also breaks the
        run)."""
        self._check_shard_set(f"fleet epoch {epoch}", merged)
        out: Dict[str, ColumnarShardReport] = {}
        for shard_id in self._shard_order:
            result = merged.get(shard_id)
            if result is None:  # quarantined
                continue
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
        self._ensure_started()
        self._collected = None
        self._broadcast(_worker_bootstrap)
        # Respawned-from-template workers must repeat the bootstrap
        # before replay, or their repositories diverge from the run.
        self._bootstrapped = True

    def worker_pids(self) -> List[int]:
        """One resident worker pid per shard group (spawning if needed)."""
        self._ensure_started()
        return [health.pid for health in self._health]

    def collect(self) -> Dict[str, Dict[str, object]]:
        """Per-shard statistics and event logs, in shard order.

        Fetched from the workers once per epoch: worker state changes
        only when an epoch or the bootstrap runs, so repeated calls in
        between share one round trip.  Before any worker has started the
        parent's template shards *are* the current state and are served
        without spawning.  After :meth:`shutdown` the final snapshot
        taken on the way down is served; if that final collect failed,
        this raises.  A run that broke has no consistent worker state:
        this raises, before and after shutdown, naming the dead shards.
        Quarantined shards have no worker to answer for them and are
        absent.
        """
        if self._collected is not None:
            return self._collected
        if self._final_collect_error is not None:
            raise RuntimeError(
                "process shard executor was shut down and its final "
                "statistics collect failed; the worker statistics "
                "were lost"
            ) from self._final_collect_error
        self._refuse_if_broken("statistics can no longer be collected")
        if self._pools is None:
            return _collect_from_shards(self._shards, self._lifecycle)
        merged: Dict[str, Dict[str, object]] = {}
        for _, stats in self._broadcast(_worker_collect):
            merged.update(stats)
        self._collected = {
            sid: merged[sid] for sid in self._shard_order if sid in merged
        }
        return self._collected

    def snapshot_state(self) -> ShardState:
        """The live worker-side shard objects and lifecycle state.

        Returns ``(shards in shard order, merged lifecycle state dict or
        None, missing shard ids)`` fetched from the workers.  Before any
        worker has started the parent's template objects *are* the
        current state, and they are returned instead of cold-spawning
        every pool.  Worker groups own disjoint shard sets, so their
        lifecycle states reassemble by plain per-shard union.
        Quarantined groups are skipped: their shard ids come back in the
        third slot so the checkpoint can carry an explicit
        ``missing_shards`` manifest.  Broken workers
        cannot be checkpointed (their shard states are no longer in
        lock step), and neither can a shut-down executor (the worker
        state is gone): both raise :class:`RuntimeError`.
        """
        from repro.fleet.lifecycle import LifecycleEngine

        self._refuse_if_broken(
            "the run cannot be checkpointed — resume from the last "
            "checkpoint instead (Fleet.resume)"
        )
        if self._pools is None:
            if self._ever_started:
                raise RuntimeError(
                    "process shard executor was shut down; the worker "
                    "state was discarded — snapshot before shutdown"
                )
            return _local_state(self._shards, self._lifecycle)
        shards: Dict[str, "FleetShard"] = {}
        lifecycle_states: List[Dict[str, Dict[str, object]]] = []
        for _, blob in self._broadcast(_worker_snapshot):
            group_shards, lifecycle_state = pickle.loads(blob)
            for shard in group_shards:
                shards[shard.shard_id] = shard
            if lifecycle_state is not None:
                lifecycle_states.append(lifecycle_state)
        self._check_shard_set("worker snapshot", shards)
        ordered = {sid: shards[sid] for sid in self._shard_order if sid in shards}
        merged = (
            LifecycleEngine.merge_states(lifecycle_states)
            if lifecycle_states
            else None
        )
        return ordered, merged, self.quarantined_shards

    def shutdown(self) -> None:
        """Take the final statistics snapshot, then release the workers.

        Idempotent and failure-safe: the pools are always released and
        the shared-memory transport segments unlinked, whatever the
        final collect did.  A broken run is not collected (its workers
        no longer agree on the epoch).
        """
        try:
            if self._pools is not None and not self._broken:
                try:
                    self.collect()
                except Exception as exc:  # noqa: BLE001 - reported by collect()
                    self._final_collect_error = exc
        finally:
            self._release_pools()

    def _release_pools(self) -> None:
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
