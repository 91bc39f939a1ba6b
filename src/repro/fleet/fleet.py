"""Sharded fleet orchestration.

A datacenter is partitioned into *shards*: independent clusters, each
watched by its own DeepDive deployment (its own behaviour repository,
sandbox and placement manager).  The :class:`Fleet` drives all shards
epoch by epoch — stepping the hardware simulation, applying the
scenario's interference schedule, and running every shard's monitoring
epoch through the batch engine — and aggregates the fleet-wide view
(detections, migrations, profiling cost) the operator dashboards would
show.

Shards share nothing (separate clusters, sandboxes, repositories and
random generators), so the fleet can dispatch their epochs to either
:mod:`repro.fleet.executor` strategy — the ``"serial"`` reference loop
or state-owning ``"process"`` workers exchanging columnar epoch
results.  Results merge in shard insertion order and each shard's
evolution is independent of execution order, so a fleet run is
bit-identical for any strategy and worker count — pinned by
``tests/integration/test_parallel_fleet.py``.

The executor is also the only place that knows where the shard state
lives.  Both strategies answer the same state surface — ``collect()``
(per-shard statistics and event logs), ``snapshot_state()`` (the live
shard objects for a checkpoint), ``worker_health()`` and
``quarantined_shards`` — so :meth:`Fleet.stats`, :meth:`Fleet.detections`,
:meth:`Fleet.migrations`, :meth:`Fleet.lifecycle_stats` and
:meth:`Fleet.snapshot` each read it one way, whether the fleet never
ran, is running or was shut down.

Optional :class:`Region` records partition the shards into contiguous
named groups with their own worker budgets.  Regions are bookkeeping
only — they shape the process worker groups, the ``region`` label of
worker-health rows and per-region summaries — so a regional fleet is
bit-identical to the flat one (``tests/property/test_region_equivalence.py``).

One run surface serves every topology: :meth:`Fleet.stream` is the
primitive (one report per epoch, nothing buffered), configured by a
typed :class:`RunOptions`, and ``run`` / ``run_epoch`` /
``run_summaries`` are built on it.  Every epoch reports one
:class:`~repro.fleet.executor.ColumnarFleetReport` of per-shard
decision columns, whatever the executor; per-VM observations stay at
the shard level (:meth:`FleetShard.run_epoch`).  Reports from a process
fleet are shared-memory views valid for two further epochs, so ``run``
copies the reports it buffers and :class:`FleetRunSummary` copies the
final report it keeps.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import DeepDiveConfig
from repro.core.deepdive import DeepDive, EpochReport
from repro.core.events import InterferenceDetectedEvent, MigrationEvent
from repro.fleet.checkpoint import CHECKPOINT_VERSION, Checkpoint
from repro.fleet.executor import (
    EXECUTOR_KINDS,
    ColumnarFleetReport,
    ColumnarShardReport,
    ProcessShardExecutor,
    SerialShardExecutor,
)
from repro.fleet.faults import FaultPlan
from repro.fleet.lifecycle import LifecycleEngine, LifecycleStats
from repro.fleet.supervisor import FaultPolicy
from repro.fleet.telemetry import (
    C_EPOCHS,
    C_SNAPSHOTS,
    C_VM_EPOCHS,
    TelemetryConfig,
    TelemetryRegistry,
    resolve_telemetry,
)
from repro.virt.cluster import Cluster
from repro.virt.sandbox import SandboxEnvironment

@dataclass(frozen=True)
class RunOptions:
    """Typed per-run configuration of :meth:`Fleet.stream` and friends.

    Instances are immutable and reusable across calls.

    Parameters
    ----------
    analyze:
        Whether warning suspicions may invoke the analyzer.
    report:
        Only ``"columnar"``: every epoch reports a
        :class:`~repro.fleet.executor.ColumnarFleetReport`.  Any other
        value, the removed full and auto modes included, raises
        :class:`ValueError`.
    keep_reports:
        Only read by :meth:`Fleet.run`: ``True`` buffers one report per
        epoch, ``False`` folds the stream into a constant-memory
        :class:`FleetRunSummary`.
    """

    analyze: bool = True
    report: str = "columnar"
    keep_reports: bool = True

    def __post_init__(self) -> None:
        if self.report != "columnar":
            raise ValueError(
                f"report mode {self.report!r} is not supported: the 'full' "
                "and 'auto' modes were removed, and every fleet epoch "
                "reports columnar (per-VM observations stay available from "
                "FleetShard.run_epoch)"
            )


def _check_options(options: Optional[RunOptions]) -> RunOptions:
    if options is None:
        return RunOptions()
    if not isinstance(options, RunOptions):
        raise TypeError(
            f"options must be a RunOptions, got {type(options).__name__}"
        )
    return options


#: Region id of a flat fleet's single implicit region.
FLAT_REGION_ID = "fleet"


@dataclass(frozen=True)
class Region:
    """One named, contiguous shard group of a :class:`Fleet`.

    ``max_workers`` is the region's process worker budget (``None``
    defers to the fleet's ``max_workers``); budgets add across regions,
    because worker groups never span a region boundary.
    """

    region_id: str
    shard_ids: Tuple[str, ...]
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "shard_ids", tuple(self.shard_ids))
        if not self.region_id:
            raise ValueError("region_id must be non-empty")
        if not self.shard_ids:
            raise ValueError(f"region {self.region_id!r} needs at least one shard")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(
                f"region {self.region_id!r}: max_workers must be at least 1"
            )


def _check_regions(
    regions: Sequence[Region], shard_order: Sequence[str]
) -> Tuple[Region, ...]:
    """Validate a partition: unique ids, every shard in exactly one
    region, regions contiguous in shard order."""
    regions = tuple(regions)
    if not regions:
        raise ValueError("a regional fleet needs at least one region")
    known = set(shard_order)
    owner: Dict[str, str] = {}
    region_ids = set()
    for region in regions:
        if region.region_id in region_ids:
            raise ValueError(f"duplicate region id {region.region_id!r}")
        region_ids.add(region.region_id)
        for shard_id in region.shard_ids:
            if shard_id not in known:
                raise ValueError(
                    f"region {region.region_id!r} names unknown shard {shard_id!r}"
                )
            if shard_id in owner:
                raise ValueError(
                    f"shard {shard_id!r} appears in regions "
                    f"{owner[shard_id]!r} and {region.region_id!r}"
                )
            owner[shard_id] = region.region_id
    unowned = [sid for sid in shard_order if sid not in owner]
    if unowned:
        raise ValueError(f"shards {unowned} belong to no region")
    start = 0
    for region in regions:
        end = start + len(region.shard_ids)
        if list(region.shard_ids) != list(shard_order[start:end]):
            raise ValueError(
                f"region {region.region_id!r} is not contiguous in shard "
                "order: concatenating the regions must reproduce the "
                "fleet's shard order"
            )
        start = end
    return regions


class FleetShard:
    """One independently managed cluster plus its DeepDive deployment."""

    def __init__(
        self,
        shard_id: str,
        cluster: Cluster,
        config: Optional[DeepDiveConfig] = None,
        engine: str = "batch",
        mitigate: bool = False,
        sandbox: Optional[SandboxEnvironment] = None,
        baseline_loads: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.shard_id = shard_id
        self.cluster = cluster
        self.config = config or DeepDiveConfig()
        self.deepdive = DeepDive(
            cluster,
            sandbox=sandbox,
            config=self.config,
            mitigate=mitigate,
            engine=engine,
        )
        #: Steady-state offered load per VM (fraction of nominal); VMs
        #: absent from the mapping (e.g. scenario stress VMs) keep the
        #: load set directly on their host.  May be mutated directly;
        #: changes are pushed to the hosts on the next epoch.
        self.baseline_loads: Dict[str, float] = dict(baseline_loads or {})
        #: Snapshot of the loads last pushed to hosts and proxies.
        self._pushed_loads: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    def app_ids(self) -> List[str]:
        """Distinct applications running on this shard, sorted."""
        return sorted({vm.app_id for _, vm in self.cluster.all_vms().values()})

    def bootstrap(self, app_ids: Optional[Sequence[str]] = None) -> None:
        """Bootstrap one VM per application through the sandbox sweep.

        By default only applications with a steady-state baseline load
        are bootstrapped — scenario stress VMs start idle and are learned
        (or diagnosed) on the fly, exactly like an unknown tenant.
        """
        if app_ids is None:
            loaded_apps = {
                vm.app_id
                for name, (_, vm) in self.cluster.all_vms().items()
                if self.baseline_loads.get(name, 0.0) > 0.0
            }
            app_ids = sorted(loaded_apps)
        bootstrapped = set()
        for vm_name, (_, vm) in sorted(self.cluster.all_vms().items()):
            if vm.app_id in app_ids and vm.app_id not in bootstrapped:
                self.deepdive.bootstrap_vm(vm_name)
                bootstrapped.add(vm.app_id)

    def set_baseline_loads(self, loads: Mapping[str, float]) -> None:
        """Replace the steady-state loads (pushed on the next epoch)."""
        self.baseline_loads = dict(loads)

    def run_epoch(
        self,
        analyze: bool = True,
        telemetry: Optional["TelemetryRegistry"] = None,
        epoch: int = 0,
    ) -> EpochReport:
        """Advance the shard by one epoch: simulate, then monitor.

        The steady-state baseline loads are pushed to the hosts and the
        monitoring proxies only when they changed (hosts retain per-VM
        loads between epochs), so the unchanged steady-state map adds no
        per-VM work to the hot loop.  Under lifecycle churn the map
        changes most epochs, so only the *changed* entries are pushed —
        unchanged VMs keep their host-resident load and their last proxy
        observation, exactly as in a steady fleet.

        ``telemetry`` (a registry or worker-side span buffer) records
        ``simulate``/``monitor`` spans around the two halves; ``None``
        — the off-sample and telemetry-off case — keeps the exact
        untimed path.
        """
        loads = None
        if self.baseline_loads != self._pushed_loads:
            pushed = self._pushed_loads
            if pushed is None:
                delta = dict(self.baseline_loads)
            else:
                delta = {
                    name: load
                    for name, load in self.baseline_loads.items()
                    if pushed.get(name) != load
                }
            self._pushed_loads = dict(self.baseline_loads)
            loads = delta or None
        if telemetry is None:
            self.cluster.step(loads=loads)
            return self.deepdive.run_epoch(loads=loads, analyze=analyze)
        with telemetry.span("simulate", epoch):
            self.cluster.step(loads=loads)
        with telemetry.span("monitor", epoch):
            return self.deepdive.run_epoch(loads=loads, analyze=analyze)

    # ------------------------------------------------------------------
    def detections(self) -> List[InterferenceDetectedEvent]:
        return self.deepdive.events.detections()

    def migrations(self) -> List[MigrationEvent]:
        return self.deepdive.events.migrations()


@dataclass
class FleetRunSummary:
    """Memory-bounded aggregate of a multi-epoch fleet run.

    Returned by :meth:`Fleet.run` with ``keep_reports=False``: instead of
    one report per epoch, only running totals and a copy of the final
    epoch's report are retained — constant memory regardless of run
    length.
    """

    epochs: int = 0
    observations: int = 0
    analyzer_invocations: int = 0
    #: Total (shard, VM, epoch) interference confirmations.
    confirmed_interference: int = 0
    #: Warning-action counts accumulated over the whole run.
    action_histogram: Dict[str, int] = field(default_factory=dict)
    #: A copy of the last epoch's report (steady-state snapshot); it
    #: owns its arrays, so it outlives the shared-memory views.
    final_report: Optional[ColumnarFleetReport] = None
    #: Union of the shards any epoch ran without (quarantined workers),
    #: in first-seen order — a degraded run manifests its gaps.
    missing_shards: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.missing_shards)

    def _note_missing(self, missing: Sequence[str]) -> None:
        for shard_id in missing:
            if shard_id not in self.missing_shards:
                self.missing_shards = self.missing_shards + (shard_id,)

    def accumulate(self, report: ColumnarFleetReport) -> None:
        """Fold one epoch report into the running totals."""
        self.epochs += 1
        self.observations += report.observations()
        self.analyzer_invocations += report.analyzer_invocations()
        self.confirmed_interference += report.confirmed_count()
        for action, count in report.action_histogram().items():
            self.action_histogram[action] = (
                self.action_histogram.get(action, 0) + count
            )
        self._note_missing(report.missing_shards)
        self.final_report = report.copy()

    def extend(self, later: "FleetRunSummary") -> "FleetRunSummary":
        """Append a continuation run's totals to this summary, in place.

        The sequential counterpart to :meth:`merge`: ``later`` covers the
        epochs run *after* these (the shape a snapshot/resume cycle
        produces — the checkpoint carries the summary so far, the
        resumed fleet returns the rest).  Counters add, the histogram
        merges, and ``later``'s final report (the newer steady-state
        snapshot) wins.  Returns ``self`` for chaining.
        """
        self.epochs += later.epochs
        self.observations += later.observations
        self.analyzer_invocations += later.analyzer_invocations
        self.confirmed_interference += later.confirmed_interference
        for action, count in later.action_histogram.items():
            self.action_histogram[action] = (
                self.action_histogram.get(action, 0) + count
            )
        self._note_missing(later.missing_shards)
        if later.final_report is not None:
            self.final_report = later.final_report
        return self

    @classmethod
    def merge(cls, summaries: Sequence["FleetRunSummary"]) -> "FleetRunSummary":
        """Roll up per-region (or per-partition) summaries into one.

        The summaries must cover the *same* epochs of disjoint shard
        sets — exactly what :meth:`Fleet.run_summaries` returns per
        region, or what independently run partitions of one scenario
        produce.  Counters add, histograms
        merge, and the final reports (all from the same last epoch)
        concatenate their shard reports in the order the summaries are
        given — so merging regions in region insertion order reproduces
        the flat fleet's summary bit for bit.  Constant memory: nothing
        beyond the merged totals and one final report is retained.
        """
        summaries = list(summaries)
        if not summaries:
            raise ValueError("merge needs at least one summary")
        epochs = {s.epochs for s in summaries}
        if len(epochs) != 1:
            raise ValueError(
                f"summaries cover different epoch counts: {sorted(epochs)}"
            )
        out = cls(epochs=summaries[0].epochs)
        for summary in summaries:
            out._note_missing(summary.missing_shards)
            out.observations += summary.observations
            out.analyzer_invocations += summary.analyzer_invocations
            out.confirmed_interference += summary.confirmed_interference
            for action, count in summary.action_histogram.items():
                out.action_histogram[action] = (
                    out.action_histogram.get(action, 0) + count
                )
        finals = [s.final_report for s in summaries]
        if all(final is not None for final in finals):
            final_epochs = {final.epoch for final in finals}
            if len(final_epochs) != 1:
                raise ValueError(
                    "final reports disagree on epoch; summaries are not "
                    "partitions of one run"
                )
            merged_shards: Dict[str, ColumnarShardReport] = {}
            for final in finals:
                for shard_id, report in final.shard_reports.items():
                    if shard_id in merged_shards:
                        raise ValueError(
                            f"shard {shard_id!r} appears in more than one "
                            "summary; partitions must be disjoint"
                        )
                    merged_shards[shard_id] = report
            merged_missing: List[str] = []
            for final in finals:
                for shard_id in final.missing_shards:
                    if shard_id not in merged_missing:
                        merged_missing.append(shard_id)
            out.final_report = ColumnarFleetReport(
                epoch=final_epochs.pop(),
                shard_reports=merged_shards,
                missing_shards=tuple(merged_missing),
            )
        return out


class Fleet:
    """Many shards, one epoch clock, one interference schedule.

    The one fleet runtime: :meth:`stream` / :meth:`run` /
    :meth:`run_epoch` / :meth:`run_summaries` configured by a typed
    :class:`RunOptions`, :meth:`snapshot` / :meth:`resume` for
    checkpointed long-lived runs, and operator statistics read from the
    shard executor, which owns the shard state.

    Parameters
    ----------
    shards:
        The independently managed shards (unique ids).
    schedule:
        Scheduled stress windows applied before each epoch.
    max_workers:
        Worker count for the process strategy; ``None`` or 1 keeps the
        serial loop (with an explicit ``executor`` the default is
        ``os.cpu_count()``).  With ``regions`` it is the default
        *per-region* budget.  Shards share no state, so results are
        identical for any worker count (the merge order is always shard
        insertion order).
    executor:
        Shard execution strategy: ``"serial"`` or ``"process"`` (see
        :mod:`repro.fleet.executor`).  The default infers ``"process"``
        when ``max_workers > 1`` and ``"serial"`` otherwise.  With
        ``"process"``, the worker processes own the shard state for the
        whole run: the fleet's own shard objects are the start-of-run
        template, and changes to them (or to ``schedule``) after the
        workers spawn do not reach the workers — fleet statistics are
        fetched from the workers instead.
    lifecycle:
        Optional :class:`~repro.fleet.lifecycle.LifecycleEngine` whose
        timeline (VM churn, host maintenance, load phases) is applied
        before each epoch's simulation step, wherever the shard state
        lives.  The timeline is validated against the fleet topology at
        construction; an event referencing an unknown shard or host
        raises :class:`ValueError` immediately.
    fault_policy, fault_plan:
        Worker supervision and injected faults for the process
        executor.  Fault-plan worker indices are fleet-global, numbered
        region by region.
    telemetry:
        Observability for the run: a
        :class:`~repro.fleet.telemetry.TelemetryConfig` builds a fresh
        :class:`~repro.fleet.telemetry.TelemetryRegistry`, an existing
        registry is shared, and ``None`` defers to the
        ``REPRO_FLEET_PROFILE`` environment switch (off by default).
        Telemetry never changes decisions — runs are bit-identical with
        it off, on, or sampled
        (``tests/property/test_telemetry_equivalence.py``).
    regions:
        Optional partition of the shards into :class:`Region` records
        (unique ids, every shard in exactly one region, regions
        contiguous in shard order).  Process worker groups are formed
        round-robin *within* each region at its budget, worker-health
        rows carry a ``region`` label, and checkpoints record the
        partition.  ``None`` is the flat fleet: one implicit region of
        every shard at ``max_workers``.
    """

    def __init__(
        self,
        shards: Sequence[FleetShard],
        schedule: Optional[Sequence["ScheduledStress"]] = None,
        max_workers: Optional[int] = None,
        executor: Optional[str] = None,
        lifecycle: Optional["LifecycleEngine"] = None,
        fault_policy: Optional["FaultPolicy"] = None,
        fault_plan: Optional["FaultPlan"] = None,
        telemetry: Union[TelemetryConfig, TelemetryRegistry, None] = None,
        regions: Optional[Sequence[Region]] = None,
    ) -> None:
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if executor is None:
            executor = (
                "process" if max_workers is not None and max_workers > 1 else "serial"
            )
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {EXECUTOR_KINDS}"
            )
        if (
            fault_policy is not None or fault_plan is not None
        ) and executor != "process":
            raise ValueError(
                "fault_policy/fault_plan only apply to the process executor "
                "(a serial fleet has no workers to supervise); "
                f"got executor {executor!r}"
            )
        if executor == "process" and max_workers is None:
            max_workers = os.cpu_count() or 1
        self.shards: Dict[str, FleetShard] = {}
        for shard in shards:
            if shard.shard_id in self.shards:
                raise ValueError(f"duplicate shard id {shard.shard_id!r}")
            self.shards[shard.shard_id] = shard
        #: The shard partition, or ``None`` for a flat fleet.
        self.regions: Optional[Tuple[Region, ...]] = (
            _check_regions(regions, list(self.shards))
            if regions is not None
            else None
        )
        self.schedule: List[ScheduledStress] = list(schedule or [])
        self.lifecycle = lifecycle
        if lifecycle is not None:
            lifecycle.validate(self.shards)
        self.current_epoch = 0
        self.max_workers = max_workers
        self.executor = executor
        #: Worker supervision (restart/quarantine) for the process
        #: executor; ``None`` keeps PR 6's detect-and-refuse semantics.
        self.fault_policy = fault_policy
        #: Injected fault schedule (chaos tests / CI).
        self.fault_plan = fault_plan
        #: Live telemetry bus, or ``None`` (off) — the hot loop checks
        #: only this one reference.
        self.telemetry = resolve_telemetry(telemetry)
        #: The shard executor, built on first use (see _shard_strategy).
        self._strategy: Union[SerialShardExecutor, ProcessShardExecutor, None] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def total_vms(self) -> int:
        return sum(s.cluster.vm_count() for s in self.shards.values())

    def total_hosts(self) -> int:
        return sum(len(s.cluster.hosts) for s in self.shards.values())

    def shard(self, shard_id: str) -> FleetShard:
        return self.shards[shard_id]

    def _partition(self) -> Tuple[Region, ...]:
        """The regions, or the flat fleet's single implicit region."""
        if self.regions is not None:
            return self.regions
        return (Region(FLAT_REGION_ID, tuple(self.shards)),)

    def _worker_groups(self) -> List[List[str]]:
        """Worker shard groups, numbered region by region: each region
        is split round-robin into ``min(budget, shards)`` groups, its
        budget being the region's ``max_workers``, else the fleet's."""
        groups: List[List[str]] = []
        for region in self._partition():
            budget = region.max_workers or self.max_workers or 1
            count = min(budget, len(region.shard_ids))
            groups.extend(list(region.shard_ids[i::count]) for i in range(count))
        return groups

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def bootstrap(self) -> None:
        """Bootstrap every shard's loaded applications.

        With the process strategy the bootstrap runs inside the workers
        (spawning them if needed) so the learned repositories live with
        the shard state.
        """
        self._shard_strategy().bootstrap()

    def _shard_strategy(self) -> Union[SerialShardExecutor, ProcessShardExecutor]:
        """The executor that owns the shard state, built on first use.

        Building it has no side effects (no worker is spawned until the
        first bootstrap or epoch), so statistics, snapshots and health
        rows of a never-run fleet build it too.
        """
        if self._strategy is None:
            if self.executor == "process":
                self._strategy = ProcessShardExecutor(
                    self.shards,
                    self.schedule,
                    self._worker_groups(),
                    lifecycle=self.lifecycle,
                    fault_policy=self.fault_policy,
                    fault_plan=self.fault_plan,
                    telemetry=self.telemetry,
                )
            else:
                self._strategy = SerialShardExecutor(
                    self.shards,
                    self.schedule,
                    lifecycle=self.lifecycle,
                    telemetry=self.telemetry,
                )
        return self._strategy

    def _step_epoch(self, analyze: bool) -> ColumnarFleetReport:
        """Advance the whole fleet by one epoch (the stream primitive).

        Shards run under the configured execution strategy; reports
        always merge in shard insertion order, so the outcome is
        identical to the serial loop for any worker count.  Under the
        process strategy the report's arrays are NumPy views into the
        workers' double-buffered shared-memory segments
        (:mod:`repro.fleet.shm`), valid until the same buffer's next
        turn — two further epochs; :meth:`ColumnarFleetReport.copy`
        holds a report longer.
        """
        strategy = self._shard_strategy()
        shard_reports = strategy.run_shard_epochs(self.current_epoch, analyze=analyze)
        out = ColumnarFleetReport(
            epoch=self.current_epoch,
            shard_reports=shard_reports,
            missing_shards=strategy.quarantined_shards,
        )
        self.current_epoch += 1
        return out

    def stream(
        self, epochs: int, options: Optional[RunOptions] = None
    ) -> Iterator[ColumnarFleetReport]:
        """Advance the fleet epoch by epoch, yielding each report.

        The single primitive every other run entry point builds on:
        nothing is buffered, so a stream consumes constant memory for
        any run length — fold reports into running aggregates (a
        :class:`FleetRunSummary`, a dashboard) as they arrive.  Under
        the process executor each report is a shared-memory view valid
        for two further epochs: consume it promptly or
        :meth:`~repro.fleet.executor.ColumnarFleetReport.copy` it.

        The stream is lazy: epochs run as the iterator is advanced, and
        abandoning it mid-run simply stops the clock — the fleet can
        stream again, snapshot, or shut down afterwards.  With telemetry
        on, each epoch is wrapped in an ``epoch`` span and the epoch /
        VM-epoch counters are bumped here.
        """
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        options = _check_options(options)

        def _generate() -> Iterator[ColumnarFleetReport]:
            for _ in range(epochs):
                telemetry = self.telemetry
                if telemetry is None:
                    yield self._step_epoch(analyze=options.analyze)
                    continue
                with telemetry.span("epoch", self.current_epoch):
                    report = self._step_epoch(analyze=options.analyze)
                telemetry.inc(C_EPOCHS)
                telemetry.inc(C_VM_EPOCHS, report.observations())
                yield report

        return _generate()

    def run_epoch(self, options: Optional[RunOptions] = None) -> ColumnarFleetReport:
        """Advance the whole fleet by one epoch (``stream(1)``)."""
        stream = self.stream(1, options)
        try:
            return next(stream)
        finally:
            stream.close()

    def run(
        self, epochs: int, options: Optional[RunOptions] = None
    ) -> Union[List[ColumnarFleetReport], FleetRunSummary]:
        """Run several epochs off one stream.

        With ``options.keep_reports=True`` (default) the stream is
        buffered into one copied report per epoch (shared-memory views
        must not outlive their validity window in a buffer).  With
        ``keep_reports=False`` the stream folds into a constant-memory
        :class:`FleetRunSummary`.
        """
        options = _check_options(options)
        if options.keep_reports:
            return [report.copy() for report in self.stream(epochs, options)]
        summary = FleetRunSummary()
        for report in self.stream(epochs, options):
            summary.accumulate(report)
        return summary

    def run_summaries(
        self, epochs: int, options: Optional[RunOptions] = None
    ) -> Dict[str, FleetRunSummary]:
        """One constant-memory summary per region (region id -> summary).

        The fleet runs in lockstep and each epoch's shard reports are
        folded into their region's summary, so
        ``FleetRunSummary.merge(result.values())`` reproduces
        ``run(epochs, RunOptions(keep_reports=False))`` bit for bit.  A
        flat fleet returns its single implicit region
        (:data:`FLAT_REGION_ID`).
        """
        options = replace(_check_options(options), keep_reports=False)
        members = {
            region.region_id: set(region.shard_ids) for region in self._partition()
        }
        out = {region_id: FleetRunSummary() for region_id in members}
        for report in self.stream(epochs, options):
            for region_id, shard_ids in members.items():
                out[region_id].accumulate(
                    ColumnarFleetReport(
                        epoch=report.epoch,
                        shard_reports={
                            sid: shard_report
                            for sid, shard_report in report.shard_reports.items()
                            if sid in shard_ids
                        },
                        missing_shards=tuple(
                            sid for sid in report.missing_shards if sid in shard_ids
                        ),
                    )
                )
        return out

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def snapshot(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        summary: Optional[FleetRunSummary] = None,
        extra: Optional[object] = None,
    ) -> Checkpoint:
        """Checkpoint the live fleet into a versioned, resumable state.

        Captures everything a bit-identical continuation needs — the
        shard objects (clusters, DeepDive deployments, counter rings,
        RNG states), the stress schedule, the lifecycle timeline with
        its accumulated per-shard state, and the epoch clock — wherever
        the state lives: a started process fleet snapshots its workers'
        live state, anything else pickles locally.  Snapshotting is
        read-only and does not perturb the run.

        ``summary`` stashes the run summary accumulated so far (a
        service resumes its totals along with the state); ``extra`` is
        an arbitrary picklable sidecar for callers like the campaign
        runner's mid-cell checkpoints.  With ``path`` the checkpoint is
        also written atomically to disk.  Resume with :meth:`resume`.

        A telemetry-carrying fleet stores its counter and span totals
        in the payload, so a resumed fleet's Prometheus counters stay
        monotone across the restart.
        """
        telemetry = self.telemetry
        if telemetry is None:
            return self._snapshot_inner(path, summary=summary, extra=extra)
        # Counted before the state capture so the checkpoint's carried
        # totals include the snapshot producing them (resume monotone).
        telemetry.inc(C_SNAPSHOTS)
        with telemetry.span("snapshot", self.current_epoch):
            checkpoint = self._snapshot_inner(path, summary=summary, extra=extra)
        telemetry.log_event("snapshot", epoch=int(self.current_epoch))
        return checkpoint

    def _snapshot_inner(
        self,
        path: Optional[Union[str, Path]],
        *,
        summary: Optional[FleetRunSummary],
        extra: Optional[object],
    ) -> Checkpoint:
        shards, lifecycle_state, missing_shards = (
            self._shard_strategy().snapshot_state()
        )
        payload: Dict[str, object] = {
            "shards": list(shards.values()),
            "schedule": list(self.schedule),
            "timeline": (
                self.lifecycle.timeline if self.lifecycle is not None else None
            ),
            "admission": (
                self.lifecycle.admission if self.lifecycle is not None else None
            ),
            "record_decisions": (
                bool(self.lifecycle.record_decisions)
                if self.lifecycle is not None
                else False
            ),
            "lifecycle_state": lifecycle_state,
            "summary": summary,
            "extra": extra,
            "telemetry": (
                (self.telemetry.config, self.telemetry.state_dict())
                if self.telemetry is not None
                else None
            ),
        }
        meta: Dict[str, object] = {
            "version": CHECKPOINT_VERSION,
            "kind": "fleet",
            "epoch": int(self.current_epoch),
            "executor": self.executor,
            "max_workers": self.max_workers,
            "shard_ids": list(shards),
            "total_vms": sum(s.cluster.vm_count() for s in shards.values()),
            "total_hosts": sum(len(s.cluster.hosts) for s in shards.values()),
            "has_lifecycle": self.lifecycle is not None,
            "has_summary": summary is not None,
            "has_extra": extra is not None,
            "has_telemetry": self.telemetry is not None,
            "regions": self._regions_meta(shards),
            "missing_shards": list(missing_shards),
            "created_unix": time.time(),
        }
        checkpoint = Checkpoint(
            meta=meta,
            payload=pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )
        if path is not None:
            checkpoint.save(path)
        return checkpoint

    def _regions_meta(
        self, shards: Mapping[str, FleetShard]
    ) -> Optional[List[Dict[str, object]]]:
        """The checkpoint's region partition over the snapshotted shards
        (a degraded snapshot drops quarantined shards, and regions left
        empty)."""
        if self.regions is None:
            return None
        entries = []
        for region in self.regions:
            shard_ids = [sid for sid in region.shard_ids if sid in shards]
            if shard_ids:
                entries.append(
                    {
                        "region_id": region.region_id,
                        "shard_ids": shard_ids,
                        "max_workers": region.max_workers,
                    }
                )
        return entries

    @classmethod
    def resume(
        cls,
        source: Union[Checkpoint, str, Path],
        *,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
        telemetry: Union[TelemetryConfig, TelemetryRegistry, None] = None,
    ) -> "Fleet":
        """Rebuild a fleet from a checkpoint; it continues bit-identically.

        ``source`` is a :class:`~repro.fleet.checkpoint.Checkpoint` or a
        path to one.  ``executor`` / ``max_workers`` override the
        checkpointed configuration — a run snapshotted under one
        executor may resume under another at any worker count, and the
        equivalence contract still holds (pinned by
        ``tests/property/test_checkpoint_equivalence.py``).
        ``telemetry`` overrides the checkpointed telemetry
        configuration; either way the checkpoint's carried counter and
        span totals fold into the resumed registry, so exported
        counters continue monotonically.

        The region partition (ids, shard grouping, per-region budgets)
        comes back from ``meta.regions``.
        """
        checkpoint = (
            source if isinstance(source, Checkpoint) else Checkpoint.load(source)
        )
        state = checkpoint.state()
        lifecycle = _rebuild_lifecycle(state)
        missing = tuple(checkpoint.meta.get("missing_shards") or ())
        if lifecycle is not None and missing:
            # A degraded checkpoint carries only the surviving shards;
            # drop the timeline events that target the quarantined ones
            # or topology validation would (rightly) refuse them.
            lifecycle = lifecycle.subset(
                [shard.shard_id for shard in state["shards"]]
            )
        telemetry_state = state.get("telemetry")
        if telemetry is None and telemetry_state is not None:
            telemetry = telemetry_state[0]
        regions = checkpoint.meta.get("regions")
        if executor is None:
            executor = checkpoint.meta["executor"]
        fleet = cls(
            state["shards"],
            schedule=state["schedule"],
            max_workers=(
                checkpoint.meta["max_workers"] if max_workers is None else max_workers
            ),
            executor=executor,
            lifecycle=lifecycle,
            telemetry=telemetry,
            regions=(
                [
                    Region(e["region_id"], e["shard_ids"], e["max_workers"])
                    for e in regions
                ]
                if regions
                else None
            ),
        )
        if fleet.telemetry is not None and telemetry_state is not None:
            fleet.telemetry.load_state(telemetry_state[1])
        fleet.current_epoch = checkpoint.epoch
        return fleet

    def shutdown(self) -> None:
        """Release the shard workers (no-op for serial fleets).

        A process fleet's executor takes a final statistics snapshot
        first, so :meth:`stats`, :meth:`detections`, :meth:`migrations`
        and :meth:`lifecycle_stats` keep answering after the workers are
        gone.  Restarting a shut-down process fleet would silently reset
        the worker state to the start-of-run template, so further epochs
        are refused; a serial fleet can keep running.

        Idempotent and failure-safe: calling it again, or after a
        worker death broke the run mid-flight, is a clean no-op — the
        pools are always released and the shared-memory transport
        segments unlinked, whatever the final collect did.
        """
        try:
            self._shard_strategy().shutdown()
        finally:
            if self.telemetry is not None:
                # Flush the structured event log; harmless for shared
                # registries (the stream lazily reopens on the next event).
                self.telemetry.close()

    # ------------------------------------------------------------------
    # Fleet-wide statistics, read from wherever the shard state lives
    # ------------------------------------------------------------------
    def detections(self) -> List[Tuple[str, InterferenceDetectedEvent]]:
        return [
            (shard_id, event)
            for shard_id, shard in self._shard_strategy().collect().items()
            for event in shard["detections"]
        ]

    def migrations(self) -> List[Tuple[str, MigrationEvent]]:
        return [
            (shard_id, event)
            for shard_id, shard in self._shard_strategy().collect().items()
            for event in shard["migrations"]
        ]

    def stats(self) -> Dict[str, float]:
        """Aggregate fleet statistics (the operator dashboard numbers).

        Under the process strategy the numbers come from the workers'
        live shard state, not from the fleet's start-of-run template
        objects; shards of quarantined workers are left out.
        """
        per_shard = self._shard_strategy().collect().values()
        out = {
            "shards": float(len(self.shards)),
            "hosts": float(sum(s["hosts"] for s in per_shard)),
            "vms": float(sum(s["vms"] for s in per_shard)),
            "epochs": float(self.current_epoch),
            "detections": float(sum(len(s["detections"]) for s in per_shard)),
            "migrations": float(sum(len(s["migrations"]) for s in per_shard)),
            "analyzer_invocations": float(
                sum(s["analyzer_invocations"] for s in per_shard)
            ),
            "profiling_seconds": float(sum(s["profiling_seconds"] for s in per_shard)),
            "repository_bytes": float(sum(s["repository_bytes"] for s in per_shard)),
        }
        if self.regions is not None:
            out["regions"] = float(len(self.regions))
        return out

    def lifecycle_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-shard lifecycle counters (arrivals, departures, drains...).

        Empty when the fleet has no lifecycle engine; otherwise one
        entry per shard (all-zero counters for shards the timeline never
        touched, or whose worker was quarantined), read from wherever
        the engine runs.
        """
        if self.lifecycle is None:
            return {}
        collected = self._shard_strategy().collect()
        zeros = LifecycleStats().as_dict()
        return {
            shard_id: dict(collected.get(shard_id, {}).get("lifecycle") or zeros)
            for shard_id in self.shards
        }

    def worker_health(self) -> List[Dict[str, object]]:
        """Per-worker health rows (pid, restarts, heartbeat age, ...).

        Populated for a started process fleet; serial fleets (and
        process fleets before their first epoch) report no workers.  A
        regional fleet labels each row with its worker's ``region``
        (worker groups never span regions).
        """
        rows = self._shard_strategy().worker_health()
        if self.regions is not None:
            region_of = {
                sid: region.region_id
                for region in self.regions
                for sid in region.shard_ids
            }
            for row in rows:
                row["region"] = region_of[row["shards"][0]]
        return rows

    @property
    def quarantined_shards(self) -> Tuple[str, ...]:
        """Shards excluded by quarantined workers (graceful degradation)."""
        return self._shard_strategy().quarantined_shards


def _rebuild_lifecycle(state: Mapping[str, object]) -> Optional[LifecycleEngine]:
    """Reconstruct a checkpoint payload's lifecycle engine (or ``None``).

    The engine is rebuilt from its timeline and admission policy, then
    reloaded with the accumulated per-shard state (load phases, flash
    crowds, rejected arrivals, counters) so resumed lifecycle behaviour
    continues exactly where the snapshot left it.
    """
    timeline = state.get("timeline")
    if timeline is None:
        return None
    engine = LifecycleEngine(
        timeline,
        admission=state.get("admission"),
        record_decisions=bool(state.get("record_decisions", False)),
    )
    lifecycle_state = state.get("lifecycle_state")
    if lifecycle_state:
        engine.load_state(lifecycle_state)
    return engine


@dataclass(frozen=True)
class ScheduledStress:
    """A stress VM's on/off window, resolved from an interference episode."""

    shard_id: str
    vm_name: str
    start_epoch: int
    end_epoch: int
    intensity: float = 1.0
