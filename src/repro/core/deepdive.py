"""The DeepDive orchestrator.

Ties the pieces together: every monitoring epoch, it reads the raw
counters the hypervisors expose for every VM, normalises them, runs the
warning system (feeding it the sibling VMs' behaviour as global
information), invokes the interference analyzer when the warning system
says so, and hands confirmed interference to the placement manager.

The orchestrator never reads application-level performance: its only
inputs are the Table 1 counters and the proxy-observed load streams,
exactly as in the paper.
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.analyzer import AnalysisResult, InterferenceAnalyzer
from repro.core.config import DeepDiveConfig
from repro.core.events import (
    AnalyzerInvocationEvent,
    EventLog,
    InterferenceDetectedEvent,
    MigrationEvent,
)
from repro.core.placement import PlacementDecision, PlacementManager
from repro.core.repository import BehaviorRepository
from repro.core.warning import (
    ACTIONS,
    NORMAL_CODE,
    DecisionColumns,
    WarningAction,
    WarningDecision,
    WarningSystem,
)
from repro.metrics.counters import COUNTER_NAMES, CounterSample
from repro.metrics.cpi import CPIStackModel
from repro.metrics.matrix import MetricMatrix
from repro.metrics.normalization import aggregate_samples, normalize_counter_matrix
from repro.metrics.sample import MetricVector
from repro.regression.training import TrainedSynthesizer
from repro.virt.cluster import Cluster, CounterWindowView
from repro.virt.proxy import RequestProxy
from repro.virt.sandbox import SandboxEnvironment
from repro.virt.vm import VirtualMachine

#: Column of ``inst_retired`` in raw counter matrices (Table-1 order).
_INST_RETIRED_COL = COUNTER_NAMES.index("inst_retired")


@dataclass
class VMObservation:
    """One VM's state as seen by DeepDive in one epoch."""

    vm_name: str
    app_id: str
    warning: WarningDecision
    analysis: Optional[AnalysisResult] = None
    placement: Optional[PlacementDecision] = None
    #: True when interference was reported from a previously diagnosed
    #: signature without re-running the analyzer.
    known_interference: bool = False

    @property
    def interference_confirmed(self) -> bool:
        if self.known_interference:
            return True
        return self.analysis is not None and self.analysis.confirmed


@dataclass(eq=False)
class EpochReport:
    """Everything DeepDive did in one monitoring epoch, as columns.

    Row ``i`` of ``decisions``, ``analyzed`` and ``confirmed`` is the
    epoch's ``i``-th evaluated VM, in placement order.  ``acted`` holds
    the :class:`VMObservation` of every row whose warning was not
    NORMAL — the rows the action phase visited; every other row is a
    plain NORMAL verdict.  :attr:`observations` reads all rows as one
    lazy, read-only ``vm name -> VMObservation`` mapping.  Both epoch
    engines fill the same columns.
    """

    epoch: int
    decisions: DecisionColumns
    #: Whether the analyzer ran for the row.
    analyzed: np.ndarray
    #: Whether interference was confirmed (analysis or known signature).
    confirmed: np.ndarray
    acted: Dict[str, VMObservation] = field(default_factory=dict)

    @property
    def observations(self) -> "ObservationView":
        return ObservationView(self)

    def analyzer_invocations(self) -> int:
        return int(np.count_nonzero(self.analyzed))

    def confirmed_interference(self) -> List[str]:
        names = self.decisions.vm_names
        return [names[i] for i in np.flatnonzero(self.confirmed).tolist()]

    def confirmed_count(self) -> int:
        return int(np.count_nonzero(self.confirmed))

    def action_counts(self) -> np.ndarray:
        """Per-action decision counts (:data:`ACTIONS` order)."""
        return np.bincount(self.decisions.action_codes, minlength=len(ACTIONS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpochReport):
            return NotImplemented
        return self.epoch == other.epoch and self.observations == other.observations


class ObservationView(collections.abc.Mapping):
    """Read-only ``vm name -> VMObservation`` view of an epoch report.

    Acted-on rows return the report's stored observation; a NORMAL row's
    observation is built when it is indexed.
    """

    __slots__ = ("_report",)

    def __init__(self, report: EpochReport) -> None:
        self._report = report

    def __getitem__(self, vm_name: str) -> VMObservation:
        report = self._report
        observation = report.acted.get(vm_name)
        if observation is not None:
            return observation
        decisions = report.decisions
        row = decisions.row_of(vm_name)
        return VMObservation(
            vm_name=vm_name,
            app_id=decisions.app_ids[row],
            warning=decisions.decision(row),
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self._report.decisions.vm_names)

    def __len__(self) -> int:
        return len(self._report.decisions.vm_names)

    def __contains__(self, vm_name: object) -> bool:
        return vm_name in self._report.decisions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObservationView({len(self)} VMs, {len(self._report.acted)} acted)"


class _AppGroup:
    """One application's rows in a batch epoch.

    ``rows`` are the application's report rows; ``own`` and ``pool``
    are placement positions of its evaluated VMs and of its sibling
    pool (every VM of the application with counters, so ``own`` is a
    subset of ``pool``).  ``names`` is the placement's VM names as an
    object array.
    """

    def __init__(
        self,
        app_id: str,
        rows: np.ndarray,
        own: np.ndarray,
        pool: np.ndarray,
        names: np.ndarray,
    ) -> None:
        self.app_id = app_id
        self.rows = rows
        self.own = own
        self.pool = pool
        self._own_names = tuple(names[own].tolist())
        self._pool_names = (
            self._own_names
            if pool.size == own.size
            else tuple(names[pool].tolist())
        )
        self._own_labels = (app_id,) * len(self._own_names)
        self._pool_labels = (app_id,) * len(self._pool_names)

    def matrices(
        self, own: np.ndarray, pool: np.ndarray
    ) -> Tuple[MetricMatrix, MetricMatrix]:
        """This epoch's metric matrices of the evaluated VMs and the pool."""
        return (
            MetricMatrix(array=own, vm_names=self._own_names, labels=self._own_labels),
            MetricMatrix(
                array=pool, vm_names=self._pool_names, labels=self._pool_labels
            ),
        )


class _EpochLayout:
    """The batch engine's placement-derived row tables.

    Built from the cluster's cached placement map and its application
    ids (both assembled from per-host pieces) and kept until that map
    is replaced, which any placement change does.  The per-app
    groups are kept while the VMs with counters and the eligible VMs
    stay the same: every epoch of a steady fleet.
    """

    def __init__(
        self,
        placement: Mapping[str, Tuple[str, VirtualMachine]],
        app_of: Tuple[str, ...],
    ) -> None:
        self.placement = placement
        self.names: Tuple[str, ...] = tuple(placement)
        #: The application of every VM, in placement order.
        self.app_of = app_of
        # Object arrays gather the names of a row subset in one call.
        self._name_array = np.array(self.names, dtype=object)
        self._app_array = np.array(self.app_of, dtype=object)
        # Each application's placement positions, ascending; applications
        # in order of their first VM.  A stable sort of per-VM app codes
        # keeps the per-VM work out of the interpreter.
        apps = tuple(dict.fromkeys(self.app_of))
        code = {app_id: i for i, app_id in enumerate(apps)}
        codes = np.fromiter(
            map(code.__getitem__, self.app_of), dtype=np.intp, count=len(self.app_of)
        )
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(apps))).tolist()
        self._app_positions: Dict[str, np.ndarray] = {
            app_id: order[start:end]
            for app_id, start, end in zip(apps, [0] + ends, ends)
        }
        self._view_names: Optional[Tuple[str, ...]] = None
        self._view_rows = np.zeros(0, dtype=np.intp)
        self._masks: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: The report's rows: eligible VMs in placement order.
        self.vm_names: Tuple[str, ...] = ()
        self.app_ids: Tuple[str, ...] = ()
        self.groups: List[_AppGroup] = []

    def view_rows(self, view: CounterWindowView) -> np.ndarray:
        """Placement position -> row of ``view`` (-1: no counters yet)."""
        if view.vm_names is not self._view_names:
            if view.vm_names == self.names:
                rows = np.arange(len(self.names), dtype=np.intp)
            else:
                index = view.index
                rows = np.fromiter(
                    (index.get(name, -1) for name in self.names),
                    dtype=np.intp,
                    count=len(self.names),
                )
            self._view_names = view.vm_names
            self._view_rows = rows
        return self._view_rows

    def regroup(self, present: np.ndarray, eligible: np.ndarray) -> None:
        """Rebuild the report rows and app groups if the masks changed."""
        masks = self._masks
        if (
            masks is not None
            and np.array_equal(masks[0], present)
            and np.array_equal(masks[1], eligible)
        ):
            return
        self._masks = (present, eligible)
        if eligible.all():
            self.vm_names = self.names
            self.app_ids = self.app_of
        else:
            self.vm_names = tuple(self._name_array[eligible].tolist())
            self.app_ids = tuple(self._app_array[eligible].tolist())
        report_row = np.cumsum(eligible) - 1
        groups = []
        for app_id, pos in self._app_positions.items():
            own = pos[eligible[pos]]
            if own.size:
                pool = pos[present[pos]]
                groups.append(
                    _AppGroup(app_id, report_row[own], own, pool, self._name_array)
                )
        # Applications in order of their first evaluated VM.
        groups.sort(key=lambda group: int(group.rows[0]))
        self.groups = groups


class DeepDive:
    """Transparent interference identification and management."""

    def __init__(
        self,
        cluster: Cluster,
        sandbox: Optional[SandboxEnvironment] = None,
        config: Optional[DeepDiveConfig] = None,
        synthesizer: Optional[TrainedSynthesizer] = None,
        mitigate: bool = False,
        engine: str = "batch",
    ) -> None:
        """
        Parameters
        ----------
        cluster:
            The production cluster DeepDive watches.
        sandbox:
            The profiling environment; a single-host sandbox matching the
            cluster's machine spec is created when omitted.
        config:
            DeepDive configuration (operator threshold, clustering knobs, ...).
        synthesizer:
            Optional trained synthetic-benchmark synthesizer used by the
            placement manager; without it the manager clones the real VM.
        mitigate:
            Whether confirmed interference triggers the placement manager
            (experiments that only measure detection leave this off).
        engine:
            ``"batch"`` evaluates every VM of an epoch through the
            vectorized :class:`MetricMatrix` path; ``"scalar"`` keeps the
            per-VM reference loop.  Both produce identical warning
            decisions (pinned by the property test suite); scalar exists
            as the executable specification and benchmark baseline.
        """
        if engine not in ("batch", "scalar"):
            raise ValueError(f"unknown epoch engine {engine!r}")
        self.engine = engine
        self.cluster = cluster
        self.config = config or DeepDiveConfig()
        spec = next(iter(cluster.hosts.values())).machine.spec
        self.sandbox = sandbox or SandboxEnvironment(
            num_hosts=1,
            spec=spec,
            epoch_seconds=self.config.epoch_seconds,
            profile_epochs=self.config.profile_epochs,
            seed=self.config.sandbox_seed,
        )
        self.repository = BehaviorRepository(
            warning_sigma=self.config.warning_sigma,
            max_clusters=self.config.max_clusters,
            refit_every=self.config.refit_every,
            min_normal_behaviors=self.config.min_normal_behaviors,
        )
        self.warning_system = WarningSystem(self.repository, self.config)
        self.analyzer = InterferenceAnalyzer(
            sandbox=self.sandbox,
            repository=self.repository,
            config=self.config,
            cpi_model=CPIStackModel.for_architecture(spec.architecture.name),
        )
        self.placement_manager = PlacementManager(
            sandbox=self.sandbox,
            synthesizer=synthesizer,
            config=self.config,
        )
        self.mitigate = mitigate
        self.events = EventLog()
        self.proxies: Dict[str, RequestProxy] = {}
        self.current_epoch = 0
        #: VMs whose application has been bootstrapped already.
        self._bootstrapped_apps: set = set()
        #: Last confirmed analysis per application (reused when a known
        #: interference signature reappears).
        self._last_confirmed: Dict[str, AnalysisResult] = {}
        #: Epoch of the last executed migration per source host.  One
        #: interference episode often confirms on several co-located
        #: victims in the same epoch (they all observed the same stale
        #: window); once the first mitigation has moved the aggressor
        #: away, further migrations from that host in the same epoch
        #: would evict innocent VMs, so they are rate-limited.
        self._host_migration_epoch: Dict[str, int] = {}
        #: The batch engine's row tables for the current placement.
        self._layout: Optional[_EpochLayout] = None

    # ------------------------------------------------------------------
    # Monitoring plumbing
    # ------------------------------------------------------------------
    def register_vm(self, vm_name: str) -> RequestProxy:
        """Create (or return) the request proxy for a production VM."""
        if vm_name not in self.proxies:
            self.proxies[vm_name] = RequestProxy(vm_name)
        return self.proxies[vm_name]

    def observe_load(self, vm_name: str, load: float) -> None:
        """Record the load the proxy forwarded to a VM this epoch."""
        self.register_vm(vm_name).observe(load)

    def bootstrap_vm(
        self, vm_name: str, load_levels: Optional[Sequence[float]] = None
    ) -> None:
        """Run the analyzer's bootstrap sweep for a VM's application."""
        placement = self.cluster.all_vms()
        if vm_name not in placement:
            raise KeyError(f"VM {vm_name!r} not placed in the cluster")
        _, vm = placement[vm_name]
        self.analyzer.bootstrap(vm, load_levels=load_levels)
        self._bootstrapped_apps.add(vm.app_id)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def observe_epoch(
        self,
        loads: Optional[Mapping[str, float]] = None,
        analyze: bool = True,
    ) -> EpochReport:
        """Process the newest counters of every VM in the cluster.

        Thin wrapper over :meth:`run_epoch` using the engine selected at
        construction time; kept for backwards compatibility with the
        experiment drivers.
        """
        return self.run_epoch(loads=loads, analyze=analyze)

    def run_epoch(
        self,
        loads: Optional[Mapping[str, float]] = None,
        analyze: bool = True,
        engine: Optional[str] = None,
        learn: bool = True,
    ) -> EpochReport:
        """Process the newest counters of every VM in the cluster.

        The epoch is split into two phases:

        1. **Evaluation** — every eligible VM's warning decision is
           computed against a frozen repository snapshot (batched per
           application in the ``"batch"`` engine, per-VM in the
           ``"scalar"`` engine; both produce identical decisions).
        2. **Actions** — workload-change learning, known-interference
           bookkeeping, analyzer invocations and mitigations run in
           deterministic placement order.  Before paying an analyzer
           run, the suspicion is re-checked against the *live*
           repository: an analysis earlier in the same epoch may already
           have certified the behaviour as normal (false alarm) or
           registered a matching interference signature.

        Parameters
        ----------
        loads:
            The per-VM loads the proxies observed this epoch (fractions
            of nominal).  VMs not listed reuse their last observed load.
        analyze:
            When False, only the warning system runs (used by experiments
            that count would-be analyzer invocations without paying them).
        engine:
            Optional engine override for this epoch (defaults to the
            instance's engine).
        learn:
            When False, corroborated workload changes are reported but
            not added to the repository — an observe-only pass with no
            side effects on the learned models (used by benchmarks that
            re-time the identical epoch).
        """
        engine = engine or self.engine
        if engine not in ("batch", "scalar"):
            raise ValueError(f"unknown epoch engine {engine!r}")
        if loads:
            for vm_name, load in loads.items():
                self.observe_load(vm_name, load)

        # The cluster's cached placement map: never mutated in place (a
        # placement change builds a new one), so it stays the epoch-start
        # placement even if a mitigation migrates a VM below.
        _, placement, app_of = self.cluster._placement_state()
        # ------------------------------------------------------------------
        # Phase 1: evaluate every eligible VM against a frozen repository.
        # An (almost) idle VM produces no meaningful metric vector; there
        # is nothing to suffer interference yet.
        # ------------------------------------------------------------------
        if engine == "batch":
            decisions, vectors = self._evaluate_epoch_batch(placement, app_of)
        else:
            decisions, vectors = self._evaluate_epoch_scalar(placement)

        # ------------------------------------------------------------------
        # Phase 2: act on the non-NORMAL decisions in placement order.
        # ------------------------------------------------------------------
        n = len(decisions)
        report = EpochReport(
            epoch=self.current_epoch,
            decisions=decisions,
            analyzed=np.zeros(n, dtype=bool),
            confirmed=np.zeros(n, dtype=bool),
        )
        acted = np.flatnonzero(decisions.action_codes != NORMAL_CODE)
        for row in acted.tolist():
            vm_name = decisions.vm_names[row]
            host_name, vm = placement[vm_name]
            decision = decisions.decision(row)
            vector = vectors[vm_name]
            observation = VMObservation(
                vm_name=vm_name, app_id=vm.app_id, warning=decision
            )

            if decision.action is WarningAction.WORKLOAD_CHANGE:
                if learn:
                    self.warning_system.learn_workload_change(vm.app_id, vector)
            elif decision.flags_interference:
                observation.known_interference = True
                self._record_known_interference(vm_name, vm.app_id)
            elif decision.should_analyze and analyze:
                if self.repository.matches(vm.app_id, vector):
                    # An analysis earlier this epoch certified this very
                    # behaviour as interference-free; nothing to do.
                    pass
                elif self.repository.matches_interference(vm.app_id, vector):
                    # An analysis earlier this epoch registered a matching
                    # interference signature; report without re-profiling.
                    observation.known_interference = True
                    self._record_known_interference(vm_name, vm.app_id)
                else:
                    observation.analysis = self._run_analyzer(
                        host_name, vm_name, vm, decision, triggering_vector=vector
                    )
                    if (
                        observation.analysis is not None
                        and observation.analysis.confirmed
                        and self.mitigate
                    ):
                        observation.placement = self._mitigate(
                            host_name, observation.analysis
                        )
            report.acted[vm_name] = observation
            report.analyzed[row] = observation.analysis is not None
            report.confirmed[row] = observation.interference_confirmed

        self.current_epoch += 1
        return report

    # ------------------------------------------------------------------
    # Epoch engines
    # ------------------------------------------------------------------
    def _evaluate_epoch_scalar(
        self, placement: Mapping[str, Tuple[str, VirtualMachine]]
    ) -> Tuple[DecisionColumns, Dict[str, MetricVector]]:
        """The per-VM reference loop: one dict-driven evaluation per VM."""
        windows = self.cluster.counter_windows(self.config.smoothing_epochs)
        latest_samples: Dict[str, CounterSample] = {
            vm_name: window[-1] for vm_name, window in windows.items()
        }
        eligible = [
            vm_name
            for vm_name in placement
            if vm_name in latest_samples
            and latest_samples[vm_name].inst_retired >= 1e3
        ]
        latest_vectors: Dict[str, MetricVector] = {
            vm_name: MetricVector.from_sample(
                latest_samples[vm_name], label=placement[vm_name][1].app_id
            )
            for vm_name in placement
            if vm_name in latest_samples
        }
        decisions: List[WarningDecision] = []
        vectors: Dict[str, MetricVector] = {}
        for vm_name in eligible:
            host_name, vm = placement[vm_name]
            vector = self._smoothed_vector(host_name, vm_name, vm.app_id)
            siblings = {
                other: latest_vectors[other]
                for other, (_, other_vm) in placement.items()
                if other != vm_name
                and other_vm.app_id == vm.app_id
                and other in latest_vectors
            }
            decisions.append(
                self.warning_system.evaluate(
                    vm_name=vm_name,
                    app_id=vm.app_id,
                    vector=vector,
                    sibling_vectors=siblings,
                )
            )
            vectors[vm_name] = vector
        return DecisionColumns.from_decisions(decisions), vectors

    def _evaluate_epoch_batch(
        self,
        placement: Mapping[str, Tuple[str, VirtualMachine]],
        app_of: Tuple[str, ...],
    ) -> Tuple[DecisionColumns, Dict[str, MetricVector]]:
        """The vectorized engine: a handful of array ops per application.

        One columnar read serves the whole epoch: the cluster hands back
        every VM's newest counters and smoothing-window sum as two raw
        matrices.  Both are normalised once; each application's metric
        matrices are then row gathers, and its verdicts are scattered
        into the epoch's decision columns.  The row tables behind the
        gathers are cached per placement (:class:`_EpochLayout`).
        """
        view = self.cluster.counter_window_view(self.config.smoothing_epochs)
        layout = self._layout
        if layout is None or layout.placement is not placement:
            layout = self._layout = _EpochLayout(placement, app_of)
        rows = layout.view_rows(view)
        present = rows >= 0
        eligible = present.copy()
        if present.any():
            eligible &= view.latest[rows, _INST_RETIRED_COL] >= 1e3
        layout.regroup(present, eligible)

        decisions = DecisionColumns.allocate(layout.vm_names, layout.app_ids)
        vectors: Dict[str, MetricVector] = {}
        if not layout.groups:
            return decisions, vectors
        smoothed = normalize_counter_matrix(view.window_sum)
        latest = normalize_counter_matrix(view.latest)
        for group in layout.groups:
            own, pool = group.matrices(
                smoothed[rows[group.own]], latest[rows[group.pool]]
            )
            part = self.warning_system.evaluate_batch(group.app_id, own, pool)
            decisions.put(group.rows, part)
            # Materialise scalar vectors only for the rows the action
            # phase visits (learning / analyzer triggering).
            for i in np.flatnonzero(part.action_codes != NORMAL_CODE).tolist():
                vm_name = own.vm_names[i]
                vectors[vm_name] = own.vector(vm_name)
        return decisions, vectors

    # ------------------------------------------------------------------
    def _smoothed_vector(
        self, host_name: str, vm_name: str, app_id: str
    ) -> MetricVector:
        """One VM's smoothed metric vector (the scalar engine's path).

        ``counter_history`` is a lazy view over the host's columnar
        counter store, so slicing the window materialises exactly the
        ``smoothing_epochs`` samples it aggregates — no per-epoch
        eager materialisation happens anywhere upstream.
        """
        history = self.cluster.hosts[host_name].counter_history.get(vm_name, [])
        window = history[-self.config.smoothing_epochs:]
        aggregate = aggregate_samples(
            window, context=f"VM {vm_name!r} smoothing window on host {host_name!r}"
        )
        return MetricVector.from_sample(aggregate, label=app_id)

    def _recent_window(
        self, host_name: str, vm_name: str
    ) -> List[CounterSample]:
        """The production samples the analyzer compares against the sandbox.

        The window matches the smoothing window that triggered the
        warning, so the degradation estimate reflects the *current*
        conditions rather than a stale mix of epochs before and after an
        interference episode started.  Slicing the lazy history
        materialises the window's samples on demand — only VMs that
        actually reach the analyzer pay for sample objects.
        """
        history = self.cluster.hosts[host_name].counter_history.get(vm_name, [])
        return history[-self.config.smoothing_epochs:]

    def _replay_loads(self, vm_name: str, epochs: int) -> List[float]:
        proxy = self.proxies.get(vm_name)
        if proxy is None or proxy.latest_load() is None:
            return [1.0] * epochs
        # Replay the most recent load level for the whole window; the
        # normalisation by instructions retired makes the exact intra-
        # window shape irrelevant.
        return [float(proxy.latest_load())] * epochs

    def _run_analyzer(
        self,
        host_name: str,
        vm_name: str,
        vm: VirtualMachine,
        decision: WarningDecision,
        triggering_vector: Optional[MetricVector] = None,
    ) -> Optional[AnalysisResult]:
        production = self._recent_window(host_name, vm_name)
        if not production:
            return None
        replay = self._replay_loads(vm_name, len(production))
        result = self.analyzer.analyze(
            vm, production, replay, triggering_vector=triggering_vector
        )
        self.events.record(
            AnalyzerInvocationEvent(
                epoch=self.current_epoch,
                vm_name=vm_name,
                reason=decision.reason,
                confirmed=result.confirmed,
                degradation=result.degradation,
                profiling_seconds=result.profiling_seconds,
                culprit=result.culprit,
            )
        )
        if result.confirmed:
            self._last_confirmed[vm.app_id] = result
            self.events.record(
                InterferenceDetectedEvent(
                    epoch=self.current_epoch,
                    vm_name=vm_name,
                    degradation=result.degradation,
                    culprit=result.culprit,
                    factors=result.factors,
                )
            )
        return result

    def _record_known_interference(self, vm_name: str, app_id: str) -> None:
        """Record a detection that reused a previously diagnosed signature."""
        previous = self._last_confirmed.get(app_id)
        if previous is None or previous.culprit is None:
            return
        self.events.record(
            InterferenceDetectedEvent(
                epoch=self.current_epoch,
                vm_name=vm_name,
                degradation=previous.degradation,
                culprit=previous.culprit,
                factors=previous.factors,
            )
        )

    def _mitigate(
        self, host_name: str, analysis: AnalysisResult
    ) -> Optional[PlacementDecision]:
        if self._host_migration_epoch.get(host_name) == self.current_epoch:
            # A migration already left this host this epoch; give the
            # remaining VMs an epoch to observe the new conditions before
            # moving anything else.
            return None
        decision = self.placement_manager.resolve_interference(
            cluster=self.cluster,
            analysis=analysis,
            victim_host=host_name,
        )
        if decision is not None and decision.destination is not None:
            migrated = not decision.no_acceptable_destination
            if migrated:
                self._host_migration_epoch[host_name] = self.current_epoch
                self.events.record(
                    MigrationEvent(
                        epoch=self.current_epoch,
                        vm_name=decision.vm_name,
                        source=decision.source_host,
                        destination=decision.destination,
                        predicted_degradation=decision.best().score
                        if decision.best()
                        else 0.0,
                    )
                )
        return decision

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_profiling_seconds(self) -> float:
        """Total profiling time DeepDive has spent (bootstraps + analyses)."""
        return self.analyzer.total_profiling_seconds

    def analyzer_invocations(self) -> int:
        return self.analyzer.invocations

    def repository_size_bytes(self) -> int:
        return self.repository.size_bytes()
