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

Optional :class:`Region` records partition the shards into contiguous
named groups with their own worker budgets.  Regions are bookkeeping
only — they shape the process worker groups, the ``region`` label of
worker-health rows and per-region summaries — so a regional fleet is
bit-identical to the flat one (``tests/property/test_region_equivalence.py``).

One run surface serves every topology: :meth:`Fleet.stream` is the
primitive (one report per epoch, nothing buffered), configured by a
typed :class:`RunOptions`, and ``run`` / ``run_epoch`` /
``run_summaries`` are built on it.  The ``"auto"`` report mode encodes
the hot-loop heuristic as data: streamed epochs travel columnar under
the process executor except the final one, which is a full report;
buffered runs and other executors resolve to full reports.  Columnar
reports from a process fleet are shared-memory views valid for two
further columnar epochs — exactly why ``"auto"`` never hands them to a
buffering caller.
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

import numpy as np

from repro.core.config import DeepDiveConfig
from repro.core.deepdive import DeepDive, EpochReport
from repro.core.events import InterferenceDetectedEvent, MigrationEvent
from repro.fleet.checkpoint import CHECKPOINT_VERSION, Checkpoint
from repro.fleet.executor import (
    EXECUTOR_KINDS,
    WARNING_ACTIONS,
    ColumnarFleetReport,
    ProcessShardExecutor,
    SerialShardExecutor,
    action_histogram,
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

#: Report modes accepted by :class:`RunOptions`.
REPORT_MODES = ("full", "columnar", "auto")


@dataclass(frozen=True)
class RunOptions:
    """Typed per-run configuration of :meth:`Fleet.stream` and friends.

    Instances are immutable and reusable across calls.

    Parameters
    ----------
    analyze:
        Whether warning suspicions may invoke the analyzer.
    report:
        ``"full"`` — per-VM :class:`FleetEpochReport` every epoch;
        ``"columnar"`` — flat decision arrays
        (:class:`~repro.fleet.executor.ColumnarFleetReport`, the process
        executor's native exchange format); ``"auto"`` (default) — the
        right one per epoch: streamed epochs under the process executor
        travel columnar except the last (which is full), everything else
        resolves to full.
    keep_reports:
        Only read by :meth:`Fleet.run`: ``True`` buffers one report per
        epoch, ``False`` folds the stream into a constant-memory
        :class:`FleetRunSummary`.
    """

    analyze: bool = True
    report: str = "auto"
    keep_reports: bool = True

    def __post_init__(self) -> None:
        if self.report not in REPORT_MODES:
            raise ValueError(
                f"unknown report mode {self.report!r}; choose from {REPORT_MODES}"
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
            if delta:
                if telemetry is None:
                    self.cluster.step(loads=delta)
                    return self.deepdive.run_epoch(loads=delta, analyze=analyze)
                with telemetry.span("simulate", epoch):
                    self.cluster.step(loads=delta)
                with telemetry.span("monitor", epoch):
                    return self.deepdive.run_epoch(loads=delta, analyze=analyze)
        if telemetry is None:
            self.cluster.step()
            return self.deepdive.run_epoch(analyze=analyze)
        with telemetry.span("simulate", epoch):
            self.cluster.step()
        with telemetry.span("monitor", epoch):
            return self.deepdive.run_epoch(analyze=analyze)

    # ------------------------------------------------------------------
    def detections(self) -> List[InterferenceDetectedEvent]:
        return self.deepdive.events.detections()

    def migrations(self) -> List[MigrationEvent]:
        return self.deepdive.events.migrations()


@dataclass
class FleetEpochReport:
    """The fleet-wide outcome of one monitoring epoch."""

    epoch: int
    #: Per-shard epoch reports (shard id -> report).
    shard_reports: Dict[str, EpochReport] = field(default_factory=dict)
    #: Shards excluded this epoch by quarantined workers (graceful
    #: degradation) — explicit, so a degraded fleet never just shrinks.
    missing_shards: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.missing_shards)

    def observations(self) -> int:
        return sum(len(r.observations) for r in self.shard_reports.values())

    def analyzer_invocations(self) -> int:
        return sum(r.analyzer_invocations() for r in self.shard_reports.values())

    def confirmed_interference(self) -> List[Tuple[str, str]]:
        """(shard id, vm name) pairs with confirmed interference this epoch."""
        return [
            (shard_id, vm_name)
            for shard_id, report in self.shard_reports.items()
            for vm_name in report.confirmed_interference()
        ]

    def confirmed_count(self) -> int:
        """Number of confirmed-interference observations this epoch,
        counted off the reports' columns."""
        return sum(r.confirmed_count() for r in self.shard_reports.values())

    def action_histogram(self) -> Dict[str, int]:
        """Warning-action counts across the whole fleet."""
        counts = np.zeros(len(WARNING_ACTIONS), dtype=np.int64)
        for report in self.shard_reports.values():
            counts += report.action_counts()
        return action_histogram(counts)


#: A fleet-wide epoch report of either kind (both expose the same
#: aggregate API, so summaries and dashboards consume them alike).
FleetReport = Union[FleetEpochReport, ColumnarFleetReport]


@dataclass
class FleetRunSummary:
    """Memory-bounded aggregate of a multi-epoch fleet run.

    Returned by :meth:`Fleet.run` with ``keep_reports=False``: instead of
    one :class:`FleetEpochReport` per epoch (every VM observation of
    every epoch stays alive), only running totals and the final epoch's
    report are retained — constant memory regardless of run length.
    """

    epochs: int = 0
    observations: int = 0
    analyzer_invocations: int = 0
    #: Total (shard, VM, epoch) interference confirmations.
    confirmed_interference: int = 0
    #: Warning-action counts accumulated over the whole run.
    action_histogram: Dict[str, int] = field(default_factory=dict)
    #: The last epoch's full report (steady-state snapshot).
    final_report: Optional[FleetEpochReport] = None
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

    def accumulate(self, report: FleetEpochReport) -> None:
        """Fold one epoch report into the running totals."""
        self.epochs += 1
        self.observations += report.observations()
        self.analyzer_invocations += report.analyzer_invocations()
        self.confirmed_interference += report.confirmed_count()
        for action, count in report.action_histogram().items():
            self.action_histogram[action] = (
                self.action_histogram.get(action, 0) + count
            )
        self._note_missing(getattr(report, "missing_shards", ()))
        self.final_report = report

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
            kinds = {type(final) for final in finals}
            final_epochs = {final.epoch for final in finals}
            if len(kinds) != 1 or len(final_epochs) != 1:
                raise ValueError(
                    "final reports disagree on epoch or report kind; "
                    "summaries are not partitions of one run"
                )
            merged_shards: Dict[str, object] = {}
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
                for shard_id in getattr(final, "missing_shards", ()):
                    if shard_id not in merged_missing:
                        merged_missing.append(shard_id)
            out.final_report = kinds.pop()(
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
    checkpointed long-lived runs, and operator statistics wherever the
    shard state lives.

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
        template, and mid-run mutations of them (or of ``schedule``) do
        not reach the workers — fleet statistics are fetched from the
        workers instead.
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
        self._strategy = None
        #: Last statistics snapshot fetched from process workers (kept
        #: so the fleet stays inspectable after :meth:`shutdown`).
        self._last_collected: Optional[Dict[str, Dict[str, object]]] = None

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
        strategy = self._shard_strategy()
        strategy.bootstrap()
        self._last_collected = None

    def _shard_strategy(self):
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

    def _collected(self) -> Optional[Dict[str, Dict[str, object]]]:
        """Worker-side shard statistics, or ``None`` when state is local.

        The snapshot is cached between epochs — worker state only changes
        when an epoch runs, so consecutive ``stats()``/``detections()``/
        ``migrations()`` calls share one worker round trip.
        """
        strategy = self._strategy
        if isinstance(strategy, ProcessShardExecutor) and strategy.started:
            if self._last_collected is None:
                self._last_collected = strategy.collect()
        return self._last_collected

    def _step_epoch(
        self, analyze: bool, report: str
    ) -> Union[FleetEpochReport, ColumnarFleetReport]:
        """Advance the whole fleet by one epoch (the stream primitive).

        Shards run under the configured execution strategy; reports
        always merge in shard insertion order, so the outcome is
        identical to the serial loop for any worker count.  ``report``
        is the resolved mode: ``"full"`` returns a
        :class:`FleetEpochReport` with per-VM observations,
        ``"columnar"`` a
        :class:`~repro.fleet.executor.ColumnarFleetReport` of flat
        decision arrays — the process strategy's native exchange format.
        Under the process strategy the columnar arrays are NumPy views
        into the workers' double-buffered shared-memory segments
        (:mod:`repro.fleet.shm`), valid until the same buffer's next
        turn — two further columnar epochs; copy them to hold a report
        longer.
        """
        if report not in ("full", "columnar"):
            raise ValueError(f"unknown report mode {report!r}")
        strategy = self._shard_strategy()
        shard_reports = strategy.run_shard_epochs(
            self.current_epoch, analyze=analyze, report=report
        )
        # Worker-side state advanced; drop the cached statistics snapshot.
        self._last_collected = None
        missing = tuple(getattr(strategy, "quarantined_shards", ()) or ())
        if report == "full":
            out: Union[FleetEpochReport, ColumnarFleetReport] = FleetEpochReport(
                epoch=self.current_epoch,
                shard_reports=shard_reports,
                missing_shards=missing,
            )
        else:
            out = ColumnarFleetReport(
                epoch=self.current_epoch,
                shard_reports=shard_reports,
                missing_shards=missing,
            )
        self.current_epoch += 1
        return out

    def stream(
        self, epochs: int, options: Optional[RunOptions] = None
    ) -> Iterator[FleetReport]:
        """Advance the fleet epoch by epoch, yielding each report.

        The single primitive every other run entry point builds on:
        nothing is buffered, so a stream consumes constant memory for
        any run length — fold reports into running aggregates (a
        :class:`FleetRunSummary`, a dashboard) as they arrive.  With
        ``report="auto"`` (default) epochs under the process executor
        travel as columnar shared-memory views (valid for two further
        columnar epochs — consume promptly or copy) and the final epoch
        materialises a full report; other executors stream full reports
        throughout.

        The stream is lazy: epochs run as the iterator is advanced, and
        abandoning it mid-run simply stops the clock — the fleet can
        stream again, snapshot, or shut down afterwards.  With telemetry
        on, each epoch is wrapped in an ``epoch`` span and the epoch /
        VM-epoch counters are bumped here.
        """
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        options = _check_options(options)

        def _generate() -> Iterator[FleetReport]:
            for i in range(epochs):
                mode = options.report
                if mode == "auto":
                    columnar = self.executor == "process" and i < epochs - 1
                    mode = "columnar" if columnar else "full"
                telemetry = self.telemetry
                if telemetry is None:
                    yield self._step_epoch(analyze=options.analyze, report=mode)
                    continue
                with telemetry.span("epoch", self.current_epoch):
                    report = self._step_epoch(
                        analyze=options.analyze, report=mode
                    )
                telemetry.inc(C_EPOCHS)
                telemetry.inc(C_VM_EPOCHS, report.observations())
                yield report

        return _generate()

    def run_epoch(self, options: Optional[RunOptions] = None) -> FleetReport:
        """Advance the whole fleet by one epoch (``stream(1)``).

        A single ``"auto"`` epoch is its own final epoch, so it resolves
        to a full report.
        """
        stream = self.stream(1, options)
        try:
            return next(stream)
        finally:
            stream.close()

    def run(
        self, epochs: int, options: Optional[RunOptions] = None
    ) -> Union[List[FleetReport], FleetRunSummary]:
        """Run several epochs off one stream.

        With ``options.keep_reports=True`` (default) the stream is
        buffered into one report per epoch (``"auto"`` then resolves to
        full reports — columnar shared-memory views must not outlive
        their validity window in a buffer).  With ``keep_reports=False``
        the stream folds into a constant-memory :class:`FleetRunSummary`;
        under the process executor ``"auto"`` then keeps the columnar
        hot loop — columnar intermediates, one full final epoch.
        """
        options = _check_options(options)
        if options.keep_reports:
            if options.report == "auto":
                options = replace(options, report="full")
            return list(self.stream(epochs, options))
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
                    type(report)(
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
    def _gather_state(
        self,
    ) -> Tuple[
        Dict[str, FleetShard],
        Optional[Dict[str, Dict[str, object]]],
        Tuple[str, ...],
    ]:
        """The live shards (in shard order), lifecycle state, and the
        shards missing from the snapshot (quarantined workers).

        A serial fleet owns its state locally; a started process
        fleet fetches the live shard objects and lifecycle state back
        from its workers (the parent's objects are only the start-of-run
        template then).  A degraded process fleet returns a *partial*
        snapshot: the quarantined shards come back in the third slot so
        the checkpoint can manifest them explicitly.
        """
        strategy = self._strategy
        if isinstance(strategy, ProcessShardExecutor):
            state = strategy.snapshot_state()
            if state is not None:
                return state
        lifecycle_state = (
            self.lifecycle.state_dict() if self.lifecycle is not None else None
        )
        return dict(self.shards), lifecycle_state, ()

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
        shards, lifecycle_state, missing_shards = self._gather_state()
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

        For a process fleet the final worker-side statistics are fetched
        first, so :meth:`stats`, :meth:`detections` and
        :meth:`migrations` keep answering after the workers are gone.
        Restarting a shut-down process fleet would silently reset the
        worker state to the start-of-run template, so further epochs are
        refused; a serial fleet can keep running.

        Idempotent and failure-safe: calling it again, or after a
        worker death broke the run mid-flight, is a clean no-op — the
        pools are always released and the shared-memory transport
        segments unlinked, whatever the final collect did.
        """
        strategy = self._strategy
        if strategy is None:
            if self.telemetry is not None:
                self.telemetry.close()
            return
        if isinstance(strategy, ProcessShardExecutor):
            try:
                if strategy.started:
                    try:
                        self._last_collected = strategy.collect()
                    except Exception:
                        # Broken workers (e.g. one was killed mid-run)
                        # can't answer a final collect; keep whatever
                        # snapshot was already cached.
                        pass
            finally:
                # Always release the pools and unlink the shm transport
                # segments — even when collect failed with something
                # harsher than a broken pool (KeyboardInterrupt in a
                # long-lived service, an unpicklable result).
                strategy.shutdown()
        else:
            strategy.shutdown()
            self._strategy = None
        if self.telemetry is not None:
            # Flush the structured event log; harmless for shared
            # registries (the stream lazily reopens on the next event).
            self.telemetry.close()

    # ------------------------------------------------------------------
    # Fleet-wide statistics
    # ------------------------------------------------------------------
    def detections(self) -> List[Tuple[str, InterferenceDetectedEvent]]:
        collected = self._collected()
        if collected is not None:
            # .get: a quarantined shard has no worker to report for it.
            return [
                (shard_id, event)
                for shard_id in self.shards
                for event in collected.get(shard_id, {}).get("detections", ())
            ]
        return [
            (shard_id, event)
            for shard_id, shard in self.shards.items()
            for event in shard.detections()
        ]

    def migrations(self) -> List[Tuple[str, MigrationEvent]]:
        collected = self._collected()
        if collected is not None:
            return [
                (shard_id, event)
                for shard_id in self.shards
                for event in collected.get(shard_id, {}).get("migrations", ())
            ]
        return [
            (shard_id, event)
            for shard_id, shard in self.shards.items()
            for event in shard.migrations()
        ]

    def stats(self) -> Dict[str, float]:
        """Aggregate fleet statistics (the operator dashboard numbers).

        Under the process strategy the numbers come from the workers'
        live shard state (fetched on demand), not from the fleet's
        start-of-run template objects.
        """
        collected = self._collected()
        if collected is not None:
            per_shard = list(collected.values())
            analyzer_invocations = sum(
                s["analyzer_invocations"] for s in per_shard
            )
            profiling_seconds = sum(s["profiling_seconds"] for s in per_shard)
            repository_bytes = sum(s["repository_bytes"] for s in per_shard)
            detections = sum(len(s["detections"]) for s in per_shard)
            migrations = sum(len(s["migrations"]) for s in per_shard)
            # Under lifecycle churn the parent's shard objects are a
            # stale template; the workers report the live topology.
            vms = sum(s.get("vms", 0) for s in per_shard)
            hosts = sum(s.get("hosts", 0) for s in per_shard)
        else:
            analyzer_invocations = sum(
                s.deepdive.analyzer_invocations() for s in self.shards.values()
            )
            profiling_seconds = sum(
                s.deepdive.total_profiling_seconds() for s in self.shards.values()
            )
            repository_bytes = sum(
                s.deepdive.repository_size_bytes() for s in self.shards.values()
            )
            # Count per shard instead of via self.detections()/
            # self.migrations(): those build one fleet-wide list of
            # (shard, event) tuples just to be len()'d.
            detections = sum(
                len(s.detections()) for s in self.shards.values()
            )
            migrations = sum(
                len(s.migrations()) for s in self.shards.values()
            )
            vms = self.total_vms()
            hosts = self.total_hosts()
        out = {
            "shards": float(len(self.shards)),
            "hosts": float(hosts),
            "vms": float(vms),
            "epochs": float(self.current_epoch),
            "detections": float(detections),
            "migrations": float(migrations),
            "analyzer_invocations": float(analyzer_invocations),
            "profiling_seconds": float(profiling_seconds),
            "repository_bytes": float(repository_bytes),
        }
        if self.regions is not None:
            out["regions"] = float(len(self.regions))
        return out

    def lifecycle_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-shard lifecycle counters (arrivals, departures, drains...).

        Empty when the fleet has no lifecycle engine; otherwise one
        entry per shard (all-zero counters for shards the timeline never
        touched), whichever executor runs the engine.  Under the process
        strategy the counters come from the workers (where the engine
        subsets actually ran); otherwise from the fleet's own engine.
        """
        if self.lifecycle is None:
            return {}
        collected = self._collected()
        if collected is not None:
            per_shard = {
                shard_id: dict(collected.get(shard_id, {}).get("lifecycle") or {})
                for shard_id in self.shards
            }
        else:
            stats = self.lifecycle.stats_dict()
            per_shard = {
                shard_id: stats.get(shard_id, {}) for shard_id in self.shards
            }
        zeros = LifecycleStats().as_dict()
        return {
            shard_id: (stats if stats else dict(zeros))
            for shard_id, stats in per_shard.items()
        }

    def worker_health(self) -> List[Dict[str, object]]:
        """Per-worker health rows (pid, restarts, heartbeat age, ...).

        Populated for a started process fleet; serial fleets (and
        process fleets before their first epoch) report no workers.  A
        regional fleet labels each row with its worker's ``region``
        (worker groups never span regions).
        """
        health = getattr(self._strategy, "worker_health", None)
        if not callable(health):
            return []
        rows = health()
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
        return tuple(getattr(self._strategy, "quarantined_shards", ()) or ())


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
