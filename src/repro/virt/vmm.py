"""The hypervisor / host model.

A :class:`Host` couples one :class:`~repro.hardware.machine.PhysicalMachine`
with the set of VMs placed on it.  Each epoch, the host collects every
VM's resource demand (given its current offered load), resolves
contention through the hardware substrate, and records:

* the per-VM raw counter samples — the *only* thing DeepDive sees;
* the per-VM client-visible performance — ground truth used solely by
  the evaluation harness to score DeepDive's estimates.

The host also supports per-VM CPU caps (the sandbox's non-work-conserving
schedulers) and explicit core pinning, mirroring the testbed setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.hardware.batch import DEMAND_FIELDS, HostBatchPlan, pack_demand
from repro.hardware.demand import ResourceDemand
from repro.hardware.machine import PhysicalMachine, VMEpochOutcome
from repro.hardware.specs import MachineSpec, XEON_X5472
from repro.metrics.counters import CounterSample
from repro.metrics.counters import N_COUNTERS
from repro.metrics.store import CounterHistoryView, HostCounterStore, sample_row
from repro.virt.vm import VirtualMachine, VMState
from repro.workloads.base import PerformanceReport, Workload


@dataclass
class HostDemandPlan:
    """Placement-derived layout of a host's columnar demand generation.

    VMs whose workloads share a :meth:`~repro.workloads.base.Workload.batch_key`
    form one group whose demand rows are produced by a single
    ``demand_batch`` call; workloads that opt out (``batch_key() is
    None``) fall back to per-VM scalar demands.  The plan depends only on
    the placement, so hosts cache it between placement changes.
    """

    #: VM names in placement (row) order.
    names: Tuple[str, ...]
    #: Nominal load per VM row.
    nominal: np.ndarray
    #: One (representative workload, row indices) pair per batch group.
    groups: List[Tuple[Workload, np.ndarray]]
    #: (row index, VM) pairs resolved through scalar ``demand`` calls.
    scalar_vms: List[Tuple[int, VirtualMachine]]


class HostChanges:
    """The change record a cluster's hosts report to.

    A host records its index here on every placement change (a VM added
    or removed, a CPU cap set) and every load change.  Each consumer of placement-derived state takes, by
    name, the hosts that changed since its previous take, so it patches
    those hosts' parts instead of scanning every host for a moved
    version.  A consumer that has never taken (its first build, or a
    record created after a restore) is told ``None``: every host
    changed.
    """

    __slots__ = ("placements", "_placed", "_loaded")

    def __init__(self) -> None:
        #: Placement changes so far (the placement signature's counter).
        self.placements = 0
        #: Per consumer: hosts with a placement / load change since its
        #: last take.
        self._placed: Dict[str, Set[int]] = {}
        self._loaded: Dict[str, Set[int]] = {}

    def placed(self, index: int) -> None:
        self.placements += 1
        for hosts in self._placed.values():
            hosts.add(index)

    def loaded(self, index: int) -> None:
        for hosts in self._loaded.values():
            hosts.add(index)

    def take(self, consumer: str) -> Optional[List[int]]:
        """Ascending indices of the hosts placed since ``consumer``'s last
        take, or ``None`` on its first."""
        hosts = self._placed.get(consumer)
        self._placed[consumer] = set()
        return None if hosts is None else sorted(hosts)

    def take_loads(self, consumer: str) -> Optional[List[int]]:
        """:meth:`take` for load changes."""
        hosts = self._loaded.get(consumer)
        self._loaded[consumer] = set()
        return None if hosts is None else sorted(hosts)


@dataclass
class VMPerformance:
    """Ground-truth record for one VM over one epoch."""

    report: PerformanceReport
    outcome: VMEpochOutcome
    offered_load: float

    @property
    def counters(self) -> CounterSample:
        return self.outcome.counters


class Host:
    """One physical machine plus the hypervisor that runs VMs on it."""

    #: The change record of the cluster the host belongs to and the
    #: host's index in it, set by the cluster; ``None`` on a host outside
    #: a cluster (the analyzer's sandbox hosts).
    _changes: Optional[HostChanges] = None
    _change_index = -1

    def __init__(
        self,
        name: str = "pm0",
        spec: MachineSpec = XEON_X5472,
        noise: float = 0.01,
        seed: Optional[int] = None,
        epoch_seconds: float = 1.0,
        track_performance: bool = True,
        cache_demands: bool = False,
        history_limit: Optional[int] = None,
    ) -> None:
        if history_limit is not None and history_limit < 1:
            raise ValueError("history_limit must be positive")
        self.name = name
        self.machine = PhysicalMachine(spec=spec, name=name, noise=noise, seed=seed)
        self.epoch_seconds = epoch_seconds
        #: Whether to materialise per-VM ground-truth performance reports
        #: each epoch.  Fleet monitoring only consumes counters, so large
        #: simulations turn this off to keep the epoch loop lean.
        self.track_performance = track_performance
        #: Whether to reuse a VM's previous demand object when its load
        #: is unchanged.  Requires ``Workload.demand`` to be a pure
        #: function of the load (true for every built-in workload); leave
        #: off when workload parameters are mutated in place mid-run.
        self.cache_demands = cache_demands
        #: When set, per-VM counter/performance histories are trimmed to
        #: the last ``history_limit`` epochs (constant memory for long
        #: runs).  Must cover every window consumers read — the warning
        #: system's smoothing window and the analyzer's recent window.
        self.history_limit = history_limit
        self._vms: Dict[str, VirtualMachine] = {}
        self._loads: Dict[str, float] = {}
        self._cpu_caps: Dict[str, float] = {}
        self._pinning: Dict[str, List[int]] = {}
        #: Counter telemetry: the resident VMs' ring slots (a one-host
        #: ring until a cluster attaches its own) and lazy histories.
        self._counter_store = HostCounterStore(history_limit=history_limit)
        #: Ground-truth performance history per VM.
        self.performance_history: Dict[str, List[VMPerformance]] = {}
        self.current_epoch = 0
        #: Bumped on every placement mutation; lets the cluster and the
        #: batch substrate cache placement-derived structures.
        self.placement_version = 0
        #: Cached per-VM demand of the previous epoch, keyed by the
        #: (load, epoch_seconds) it was generated for.  ``Workload.demand``
        #: is a pure function of the load, so reusing the object skips the
        #: per-epoch demand regeneration for steady-load VMs.
        self._demand_cache: Dict[
            str, Tuple[float, float, ResourceDemand, Tuple[float, ...]]
        ] = {}
        #: Cached batch-substrate layout (placement version it was built at).
        self._batch_plan: Optional[Tuple[int, Tuple[str, ...], HostBatchPlan]] = None
        #: Bumped whenever a VM's offered load actually changes value;
        #: together with the placement version it keys the columnar
        #: demand-row cache (steady-load epochs reuse the packed matrix).
        self._loads_version = 0
        #: Cached columnar demand plan (placement version it was built at).
        self._demand_plan_cache: Optional[Tuple[int, HostDemandPlan]] = None
        #: Cache key (placement, loads, epoch_seconds) of the current
        #: packed demand-row matrix.
        self._demand_rows_key: Optional[Tuple[int, int, float]] = None
        #: Packed ``(n_vms, len(DEMAND_FIELDS))`` demand rows of the last
        #: :meth:`collect_demand_rows` call, plus the matching VM names
        #: and absolute offered loads.
        self._row_matrix: Optional[np.ndarray] = None
        self._demand_names: Tuple[str, ...] = ()
        self._demand_vms = ()
        self._offered_array: Optional[np.ndarray] = None
        self._offered_map_cache: Optional[Dict[str, float]] = None
        #: Whether the last :meth:`collect_demands` produced any demand
        #: that differs from the previous epoch's (steady-load epochs
        #: let the batch substrate reuse its packed demand matrix).
        self.demands_changed = True

    # ------------------------------------------------------------------
    # VM management
    # ------------------------------------------------------------------
    @property
    def vms(self) -> Dict[str, VirtualMachine]:
        """The VMs currently placed on this host (name -> VM)."""
        return dict(self._vms)

    def vm_names(self) -> List[str]:
        return sorted(self._vms)

    def has_vm(self, name: str) -> bool:
        return name in self._vms

    def get_vm(self, name: str) -> VirtualMachine:
        return self._vms[name]

    def add_vm(
        self,
        vm: VirtualMachine,
        load: float = 0.0,
        cpu_cap: float = 1.0,
        cores: Optional[Sequence[int]] = None,
    ) -> None:
        """Place a VM on this host.

        ``load`` is the initial offered load as a fraction of the
        workload's nominal load; ``cpu_cap`` in (0, 1] enforces a
        non-work-conserving CPU allocation (1.0 = uncapped).
        """
        if vm.name in self._vms:
            raise ValueError(f"VM {vm.name!r} already placed on host {self.name!r}")
        if not 0.0 < cpu_cap <= 1.0:
            raise ValueError("cpu_cap must be in (0, 1]")
        self._vms[vm.name] = vm
        self._loads[vm.name] = max(0.0, load)
        self._cpu_caps[vm.name] = cpu_cap
        if cores is not None:
            self._pinning[vm.name] = list(cores)
        self._counter_store.join(vm.name)
        self.performance_history.setdefault(vm.name, [])
        self._placed()
        vm.state = VMState.RUNNING

    def remove_vm(self, name: str) -> VirtualMachine:
        """Remove a VM from this host (its history is retained)."""
        if name not in self._vms:
            raise KeyError(f"VM {name!r} not on host {self.name!r}")
        vm = self._vms.pop(name)
        self._loads.pop(name, None)
        self._cpu_caps.pop(name, None)
        self._pinning.pop(name, None)
        self._demand_cache.pop(name, None)
        self._counter_store.leave(name)
        self._placed()
        return vm

    def _placed(self) -> None:
        """Bump the placement version and report it to the cluster."""
        self.placement_version += 1
        if self._changes is not None:
            self._changes.placed(self._change_index)

    def set_load(self, name: str, load: float) -> None:
        """Update the offered load (fraction of nominal) for a VM."""
        if name not in self._vms:
            raise KeyError(f"VM {name!r} not on host {self.name!r}")
        load = max(0.0, load)
        if self._loads.get(name) != load:
            self._loads[name] = load
            self._loads_version += 1
            if self._changes is not None:
                self._changes.loaded(self._change_index)

    def get_load(self, name: str) -> float:
        return self._loads[name]

    def set_cpu_cap(self, name: str, cap: float) -> None:
        """Cap a placed VM's CPU allocation (a placement change)."""
        if name not in self._vms:
            raise KeyError(f"VM {name!r} not on host {self.name!r}")
        if not 0.0 < cap <= 1.0:
            raise ValueError("cpu_cap must be in (0, 1]")
        self._cpu_caps[name] = cap
        # Caps feed the (cached) batch-substrate inputs.
        self._placed()

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def collect_demands(
        self, loads: Optional[Mapping[str, float]] = None
    ) -> Tuple[Dict[str, ResourceDemand], Dict[str, float]]:
        """Gather every VM's demand and offered load for the next epoch.

        With ``cache_demands`` on, a VM whose load did not change reuses
        the previous epoch's (already validated) demand object —
        ``Workload.demand`` is a pure function of the offered load for
        every built-in workload.
        """
        if loads:
            for name, load in loads.items():
                self.set_load(name, load)

        demands: Dict[str, ResourceDemand] = {}
        offered: Dict[str, float] = {}
        cache = self._demand_cache
        reuse = self.cache_demands
        changed = False
        for name, vm in self._vms.items():
            frac = self._loads.get(name, 0.0)
            absolute_load = frac * vm.workload.nominal_load
            offered[name] = absolute_load
            cached = cache.get(name) if reuse else None
            if (
                cached is not None
                and cached[0] == absolute_load
                and cached[1] == self.epoch_seconds
            ):
                demands[name] = cached[2]
            else:
                changed = True
                demand = vm.demand(absolute_load, epoch_seconds=self.epoch_seconds)
                demand.validate()
                cache[name] = (
                    absolute_load,
                    self.epoch_seconds,
                    demand,
                    pack_demand(demand),
                )
                demands[name] = demand
        self.demands_changed = changed
        return demands, offered

    def demand_rows(self) -> List[Tuple[float, ...]]:
        """The packed demand rows of the last :meth:`collect_demands` call."""
        return [self._demand_cache[name][3] for name in self._vms]

    # ------------------------------------------------------------------
    # Columnar demand generation (batch-substrate epoch edge)
    # ------------------------------------------------------------------
    def _demand_plan(self) -> HostDemandPlan:
        cached = self._demand_plan_cache
        if cached is not None and cached[0] == self.placement_version:
            return cached[1]
        names = tuple(self._vms)
        nominal = np.array(
            [vm.workload.nominal_load for vm in self._vms.values()], dtype=float
        )
        group_rows: Dict[object, List[int]] = {}
        representatives: Dict[object, Workload] = {}
        scalar_vms: List[Tuple[int, VirtualMachine]] = []
        for i, vm in enumerate(self._vms.values()):
            key = vm.workload.batch_key()
            if key is None:
                scalar_vms.append((i, vm))
            else:
                group_rows.setdefault(key, []).append(i)
                representatives.setdefault(key, vm.workload)
        plan = HostDemandPlan(
            names=names,
            nominal=nominal,
            groups=[
                (representatives[key], np.asarray(rows, dtype=np.intp))
                for key, rows in group_rows.items()
            ],
            scalar_vms=scalar_vms,
        )
        self._demand_plan_cache = (self.placement_version, plan)
        return plan

    def collect_demand_rows(
        self, loads: Optional[Mapping[str, float]] = None
    ) -> None:
        """Refresh the packed demand-row matrix for the next batch epoch.

        The columnar counterpart of :meth:`collect_demands`: per-epoch
        demand for the whole host is produced group-wise through
        ``Workload.demand_batch`` (one array op per distinct workload
        configuration) instead of one Python ``demand`` call per VM, and
        steady-load epochs reuse the cached matrix outright.  After a
        placement change with no load change, the VMs that stayed keep
        their rows and only the arrivals are generated.  Requires
        ``cache_demands`` semantics — ``Workload.demand`` must be a pure
        function of the load — so hosts constructed with
        ``cache_demands=False`` fall back to :meth:`collect_demands`.

        Afterwards :meth:`demand_row_matrix`, :meth:`offered_map` and
        :attr:`demands_changed` describe the epoch.
        """
        if not self.cache_demands:
            demands, offered = self.collect_demands(loads)
            rows = self.demand_rows()
            self._demand_names = tuple(demands)
            self._row_matrix = (
                np.asarray(rows, dtype=float)
                if rows
                else np.empty((0, len(DEMAND_FIELDS)), dtype=float)
            )
            self._offered_array = None
            self._offered_map_cache = dict(offered)
            self._demand_rows_key = None
            # The rows were rebuilt (an emptied host's included).
            self.demands_changed = True
            return
        if loads:
            for name, load in loads.items():
                self.set_load(name, load)
        key = (self.placement_version, self._loads_version, self.epoch_seconds)
        if key == self._demand_rows_key:
            self.demands_changed = False
            return
        plan = self._demand_plan()
        n = len(plan.names)
        frac = np.fromiter(
            (self._loads.get(name, 0.0) for name in plan.names), dtype=float, count=n
        )
        offered = frac * plan.nominal
        rows = np.empty((n, len(DEMAND_FIELDS)), dtype=float)
        vms = tuple(self._vms.values())
        fresh = None
        previous = self._demand_rows_key
        if previous is not None and previous[1:] == key[1:]:
            # Only the VM set moved (no load set, same epoch length): a
            # staying VM at its previous offered load keeps its previous
            # row, since demand is a pure function of the load.  Arrivals
            # and VMs re-added at another load are generated.
            old = {id(vm): i for i, vm in enumerate(self._demand_vms)}
            src = np.fromiter(
                (old.get(id(vm), -1) for vm in vms), dtype=np.intp, count=n
            )
            fresh = src < 0
            stay = ~fresh
            fresh[stay] = offered[stay] != self._offered_array[src[stay]]
            rows[~fresh] = self._row_matrix[src[~fresh]]
        for workload, indices in plan.groups:
            if fresh is not None:
                indices = indices[fresh[indices]]
                if not indices.size:
                    continue
            rows[indices] = workload.demand_batch(
                offered[indices], epoch_seconds=self.epoch_seconds
            )
        for i, vm in plan.scalar_vms:
            if fresh is not None and not fresh[i]:
                continue
            demand = vm.demand(float(offered[i]), epoch_seconds=self.epoch_seconds)
            demand.validate()
            rows[i] = pack_demand(demand)
        self._demand_names = plan.names
        self._demand_vms = vms
        self._row_matrix = rows
        self._offered_array = offered
        self._offered_map_cache = None
        self._demand_rows_key = key
        self.demands_changed = True

    def demand_row_matrix(self) -> np.ndarray:
        """The packed rows of the last :meth:`collect_demand_rows` call."""
        if self._row_matrix is None:
            raise RuntimeError("collect_demand_rows() has not run yet")
        return self._row_matrix

    def offered_map(self) -> Dict[str, float]:
        """Absolute offered load per VM for the collected epoch."""
        if self._offered_map_cache is None:
            if self._offered_array is None:
                raise RuntimeError("collect_demand_rows() has not run yet")
            self._offered_map_cache = dict(
                zip(self._demand_names, self._offered_array.tolist())
            )
        return self._offered_map_cache

    def core_assignment_for(
        self, demands: Mapping[str, ResourceDemand]
    ) -> Optional[Dict[str, List[int]]]:
        """Explicit vCPU pinning merged over the default assignment."""
        if not self._pinning:
            return None
        core_assignment = self.machine.default_core_assignment(demands)
        core_assignment.update(
            {n: cores for n, cores in self._pinning.items() if n in demands}
        )
        return core_assignment

    def batch_plan_current(self) -> HostBatchPlan:
        """The (cached) batch layout of the current placement.

        The layout depends only on the VM set, vCPU allocations and pinning, all of
        which the host knows without generating demands (the hypervisor
        schedules ``vm.vcpus`` regardless of what the workload asks for).
        """
        names = tuple(self._vms)
        cached = self._batch_plan
        if (
            cached is not None
            and cached[0] == self.placement_version
            and cached[1] == names
        ):
            return cached[2]
        vcpus = {name: vm.vcpus for name, vm in self._vms.items()}
        core_assignment = None
        if self._pinning:
            core_assignment = self.machine.core_assignment_for_vcpus(vcpus)
            core_assignment.update(
                {n: cores for n, cores in self._pinning.items() if n in vcpus}
            )
        plan = self.machine.batch_plan_for_vcpus(
            vcpus, core_assignment=core_assignment
        )
        self._batch_plan = (self.placement_version, names, plan)
        return plan

    def cpu_cap_values(self) -> List[float]:
        """Per-VM CPU caps in placement order (batch-substrate input)."""
        return [self._cpu_caps.get(name, 1.0) for name in self._vms]

    def commit_epoch(
        self,
        outcomes: Mapping[str, VMEpochOutcome],
        offered: Mapping[str, float],
    ) -> Dict[str, VMPerformance]:
        """Record one epoch of this host alone: its VMs' counters through
        :meth:`commit_epoch_block`, then their ground truth."""
        names = tuple(self._vms)
        rows = np.array(
            [sample_row(outcomes[name].counters) for name in names], dtype=float
        ).reshape(len(names), N_COUNTERS)
        self.commit_epoch_block(names, rows)
        return self.record_performance(outcomes, offered)

    def record_performance(
        self,
        outcomes: Mapping[str, VMEpochOutcome],
        offered: Mapping[str, float],
    ) -> Dict[str, VMPerformance]:
        """Record one epoch's ground-truth performance (when tracked)."""
        performances: Dict[str, VMPerformance] = {}
        if not self.track_performance:
            return performances
        for name, vm in self._vms.items():
            outcome = outcomes[name]
            report = vm.workload.performance(
                load=offered[name],
                instructions_demanded=outcome.instructions_demanded,
                instructions_retired=outcome.instructions_retired,
                epoch_seconds=self.epoch_seconds,
                instructions_attainable=outcome.instructions_attainable,
            )
            perf = VMPerformance(
                report=report, outcome=outcome, offered_load=offered[name]
            )
            performances[name] = perf
            self.performance_history[name].append(perf)
        limit = self.history_limit
        if limit is not None:
            # The amortised trim the counter histories replay.
            for history in self.performance_history.values():
                if len(history) > 2 * limit:
                    del history[: len(history) - limit]
        return performances

    def commit_epoch_block(
        self, names: Tuple[str, ...], block: np.ndarray
    ) -> None:
        """The one-host epoch commit: ``block[i]`` is the counter row of
        resident VM ``names[i]``.

        A cluster writes its hosts' rows into its ring itself, one write
        per epoch; this records an epoch of this host alone (a host
        outside a cluster, or a direct :meth:`step`).
        """
        self._counter_store.commit(names, block, self.epoch_seconds)
        self.current_epoch += 1

    def simulate(
        self, loads: Optional[Mapping[str, float]] = None
    ) -> Tuple[Mapping[str, VMEpochOutcome], Dict[str, float]]:
        """Resolve one epoch through the per-VM contention model without
        recording it: per-VM outcomes and absolute offered loads.

        A cluster resolves all its hosts at once instead
        (:meth:`~repro.virt.cluster.Cluster.step`); the two agree within
        the substrate contract's 1e-9 relative tolerance.
        """
        demands, offered = self.collect_demands(loads)
        result = self.machine.run_epoch(
            demands,
            epoch_seconds=self.epoch_seconds,
            core_assignment=self.core_assignment_for(demands),
            cpu_caps=self._cpu_caps,
        )
        return result.per_vm, offered

    def step(
        self, loads: Optional[Mapping[str, float]] = None
    ) -> Dict[str, VMPerformance]:
        """Advance the host by one epoch.

        Parameters
        ----------
        loads:
            Optional per-VM offered load overrides (fractions of each
            VM's nominal load) for this epoch only.

        Returns
        -------
        dict
            Per-VM ground-truth performance and counters for the epoch
            (empty when ``track_performance`` is off).
        """
        return self.commit_epoch(*self.simulate(loads))

    # ------------------------------------------------------------------
    # Introspection used by DeepDive
    # ------------------------------------------------------------------
    @property
    def counter_store(self) -> HostCounterStore:
        """The host's columnar counter telemetry (ring + lazy histories)."""
        return self._counter_store

    @property
    def counter_history(self) -> CounterHistoryView:
        """Per-VM counter histories (most recent last), as a lazy mapping.

        Behaves like the former ``Dict[str, List[CounterSample]]`` —
        iteration, ``.get``/``.items``, per-VM ``len``/indexing/slicing —
        but samples recorded by batch epochs materialise only when a
        scalar path, report or example actually indexes them.
        """
        return self._counter_store.histories

    def latest_counters(self, name: str) -> Optional[CounterSample]:
        """The most recent counter sample for a VM, or None before the first epoch."""
        return self._counter_store.latest_sample(name)

    def latest_performance(self, name: str) -> Optional[VMPerformance]:
        history = self.performance_history.get(name, [])
        return history[-1] if history else None

    def colocated_with(self, name: str) -> List[str]:
        """Names of the other VMs currently sharing this host."""
        return [n for n in self._vms if n != name]

    def utilization_summary(self) -> Dict[str, float]:
        """Coarse utilisation summary used by the placement manager."""
        total_vcpus = sum(vm.vcpus for vm in self._vms.values())
        total_memory = sum(vm.memory_gb for vm in self._vms.values())
        return {
            "vcpus_used": float(total_vcpus),
            "vcpus_total": float(self.machine.spec.architecture.cores),
            "memory_used_gb": float(total_memory),
            "memory_total_gb": float(self.machine.spec.dram_gb),
        }

    def can_fit(self, vm: VirtualMachine) -> bool:
        """Whether the host has spare vCPU and memory capacity for ``vm``."""
        summary = self.utilization_summary()
        return (
            summary["vcpus_used"] + vm.vcpus <= summary["vcpus_total"]
            and summary["memory_used_gb"] + vm.memory_gb <= summary["memory_total_gb"]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Host(name={self.name!r}, vms={sorted(self._vms)})"
