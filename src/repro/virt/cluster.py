"""A cluster of production hosts.

The cluster ties the per-host simulation together: it steps every host
each epoch, exposes the global view the warning system's "global
information" path needs (which VMs run the same application code on
which hosts), and executes migrations decided by the placement manager.

Two hardware substrates drive the per-epoch simulation:

* ``substrate="scalar"`` steps each host through the per-VM reference
  model (:meth:`~repro.virt.vmm.Host.step`);
* ``substrate="batch"`` (the default) resolves one epoch for **all VMs
  on all hosts at once** through the vectorized contention substrate
  (:mod:`repro.hardware.batch`), emitting the same counters as a
  columnar block per machine-spec group, with no per-VM dictionary
  materialisation.

Both substrates are equivalent (same formulas, same noise draws; pinned
by ``tests/property/test_substrate_equivalence.py``).

Counter telemetry lives in one :class:`~repro.metrics.store.CounterRing`
per cluster.  Each resident VM owns a ring slot (taken when placed,
freed when it leaves, so a departure or migration keeps the VM's
history on the host that recorded it).  The cluster writes every
epoch's rows at once through the rows' slots: one write per spec group
on the batch substrate, one on the scalar substrate.  The monitoring
window (:meth:`Cluster.counter_window_view`) and the epoch's counter
totals (:meth:`Cluster.latest_counter_totals`) gather ring rows in
placement order through a slot table cached per placement; a window
is a left fold over its epochs, and only VMs whose window is not
wholly in the ring (a VM back on a host it left less than ``window``
epochs ago, a host whose ``history_limit`` is shorter than the window)
are folded one by one from their retained samples.

Placement changes are host events.  Every host of a cluster reports to
the cluster's change record (:class:`~repro.virt.vmm.HostChanges`): a
VM added or removed and a CPU cap set are placement changes, and a new
offered load is a load change.  The placement signature is the
record's counter, and each placement-derived structure — the placement
map and ring slot table, the spec groups' layouts and CPU caps, the
packed demand rows, the admission inputs of the fleet's lifecycle
engine — takes the hosts that changed since it last looked and
re-reads only those.  A steady epoch
therefore reads no host's placement and collects no host's demand
(``tests/virt/test_placement_events.py``).
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.hardware.batch import (
    N_COUNTERS,
    BatchBuffers,
    ClusterLayout,
    DemandMatrix,
    HostBatchPlan,
    simulate_epoch_batch,
    splice_segments,
)
from repro.hardware.machine import outcome_from_batch
from repro.hardware.specs import MachineSpec, XEON_X5472
from repro.metrics.counters import CounterSample
from repro.metrics.store import CounterRing, sample_row
from repro.virt.migration import MigrationEngine, MigrationRecord
from repro.virt.vm import VirtualMachine
from repro.virt.vmm import Host, HostChanges, VMPerformance


@dataclass
class CounterWindowView:
    """Columnar view of every VM's newest counters and smoothing window.

    ``latest`` and ``window_sum`` are raw ``(n, len(COUNTER_NAMES))``
    counter matrices (Table-1 column order): row ``i`` belongs to
    ``vm_names[i]``, ``window_sum[i]`` is the left-fold sum of the VM's
    last ``window`` epoch samples — exactly what the scalar path's
    ``aggregate_samples(history[-window:])`` computes.
    """

    vm_names: Tuple[str, ...]
    latest: np.ndarray
    window_sum: np.ndarray

    @functools.cached_property
    def index(self) -> Dict[str, int]:
        """``vm name -> row``, built on first use."""
        return {name: i for i, name in enumerate(self.vm_names)}

    def __contains__(self, vm_name: str) -> bool:
        return vm_name in self.index


@dataclass(frozen=True)
class _RingTables:
    """Ring slots of the cluster's VMs for one placement."""

    #: Placement signature the tables were built at.
    signature: Tuple[int, int]
    #: Every resident VM, in placement order (hosts in order, each
    #: host's VMs in order).
    vm_names: Tuple[str, ...]
    #: Each VM's ring slot.
    slots: np.ndarray
    #: VMs per host, hosts in order.
    counts: np.ndarray

    @functools.cached_property
    def folds(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """``folds[j] = (sums, rows)``: for the populated hosts with more
        than ``j`` VMs, their row in :meth:`Cluster.latest_counter_totals`'
        per-host sums (1-based) and the row of their ``j``-th VM.
        Built on the first totals read: window reads do not need them."""
        counts = self.counts[self.counts > 0]
        # Each row's host (1-based) and its index j within the host; a
        # stable sort by j keeps host order within each fold step.
        host = np.repeat(np.arange(1, counts.size + 1), counts)
        j = np.arange(host.size) - np.repeat(np.cumsum(counts) - counts, counts)
        order = np.argsort(j, kind="stable")
        ends = np.cumsum(np.bincount(j)).tolist()
        return tuple(
            (host[rows], rows)
            for rows in (order[a:b] for a, b in zip([0] + ends, ends))
        )


class _Grouping(NamedTuple):
    """The cluster's hosts split into batch-substrate spec groups."""

    #: Host identities and epoch lengths the grouping was made for.
    host_key: tuple
    #: Per spec group: its key and its hosts' segments.
    groups: List[Tuple[Tuple[int, float], "_HostSegments"]]
    #: Spec group and index within it of every host.
    slots: Tuple[Tuple[int, int], ...]
    #: Hosts whose demand rows are regenerated every epoch
    #: (``cache_demands`` off).
    uncached: Tuple[int, ...]

    @classmethod
    def of(cls, hosts: Mapping[str, "Host"], host_key: tuple) -> "_Grouping":
        grouped: Dict[Tuple[int, float], List[Tuple[str, Host]]] = {}
        keys = []
        for host_name, host in hosts.items():
            key = (id(host.machine.spec), host.epoch_seconds)
            members = grouped.setdefault(key, [])
            keys.append((key, len(members)))
            members.append((host_name, host))
        order = {key: g for g, key in enumerate(grouped)}
        return cls(
            host_key=host_key,
            groups=[
                (key, _HostSegments(members)) for key, members in grouped.items()
            ],
            slots=tuple((order[key], i) for key, i in keys),
            uncached=tuple(
                i
                for i, host in enumerate(hosts.values())
                if not host.cache_demands
            ),
        )


#: One batch-substrate execution group: hosts sharing a machine spec and
#: epoch length, with their assembled cluster layout and the VMs' CPU
#: caps in row order.
BatchGroup = Tuple[
    MachineSpec,
    float,
    List[Tuple[str, "Host", Tuple[str, ...]]],
    ClusterLayout,
    np.ndarray,
]


class _HostSegments:
    """One spec group's per-host batch inputs, refreshed host by host.

    A host's batch plan, VM names and CPU caps change only with its
    placement (``Host.set_cpu_cap`` is a placement change too), so after
    a placement change only the hosts the change record names are
    re-read, and the group's layout and caps are spliced from the
    previous ones.
    """

    __slots__ = ("hosts", "plans", "members", "caps", "layout")

    def __init__(self, hosts: List[Tuple[str, "Host"]]) -> None:
        self.hosts = hosts
        n = len(hosts)
        self.plans: List[Optional[HostBatchPlan]] = [None] * n
        self.members: List[Optional[Tuple[str, Host, Tuple[str, ...]]]] = [None] * n
        #: CPU caps of every VM row, in row order.
        self.caps: Optional[np.ndarray] = None
        self.layout: Optional[ClusterLayout] = None

    def refresh(self, cache_domains: int, moved: Optional[List[int]]) -> ClusterLayout:
        """Re-read the ``moved`` hosts (ascending; ``None``: all of them)
        and return the group's layout."""
        previous = self.layout
        if previous is None or moved is None:
            previous = None
            moved = list(range(len(self.hosts)))
        caps = []
        for i in moved:
            host_name, host = self.hosts[i]
            self.plans[i] = host.batch_plan_current()
            self.members[i] = (host_name, host, tuple(host._vms))
            caps.append(np.asarray(host.cpu_cap_values(), dtype=float))
        self.caps = splice_segments(
            None if previous is None else self.caps,
            None if previous is None else previous.row_bounds,
            moved,
            caps,
        )
        self.layout = ClusterLayout.assemble(
            self.plans, cache_domains, previous, moved
        )
        return self.layout


#: (placement signature, VM -> (host name, VM) map, the map's
#: application ids in map order) — see :meth:`Cluster._placement_state`.
_PlacementView = Tuple[
    Tuple[int, int], Dict[str, Tuple[str, VirtualMachine]], Tuple[str, ...]
]


class Cluster:
    """A set of production hosts plus the migration machinery."""

    # Placement-derived caches start empty on the class.
    #: The ring slot tables of the current placement — see
    #: :meth:`_ring_tables`.
    _tables: Optional[_RingTables] = None
    #: The slot tables the newest epoch was written through (``None``
    #: before the first epoch) — see :meth:`latest_counter_totals`.
    _written: Optional[_RingTables] = None
    #: The hosts' spec grouping — see :meth:`_batch_group_plan`.
    _host_segments: Optional[_Grouping] = None
    #: (signature, groups) of the current placement — see
    #: :meth:`_batch_group_plan`.
    _batch_groups: Optional[Tuple[tuple, List[BatchGroup]]] = None
    #: (the ``(host name, host)`` pairs, each host's ``(vm name, (host
    #: name, VM))`` items, each host's VMs' application ids, each host's
    #: VMs' ring slots) — see :meth:`_placement_state`.
    _placement_items: Optional[
        Tuple[tuple, List[tuple], List[Tuple[str, ...]], List[Tuple[int, ...]]]
    ] = None
    #: Per spec group: (demand matrix, its packed rows, the rows' host
    #: bounds) — see :meth:`_step_batch`.
    _demand_tables: Optional[
        Dict[int, Tuple[DemandMatrix, np.ndarray, np.ndarray]]
    ] = None
    #: The placement map of the current signature — see :meth:`_placement`.
    _placement_view: Optional[_PlacementView] = None
    #: The hosts' change record (see :class:`~repro.virt.vmm.HostChanges`),
    #: created by the constructor's first :meth:`_change_record` call.
    _changes: Optional[HostChanges] = None

    def __init__(
        self,
        num_hosts: int = 1,
        spec: MachineSpec = XEON_X5472,
        epoch_seconds: float = 1.0,
        noise: float = 0.01,
        seed: Optional[int] = None,
        migration_engine: Optional[MigrationEngine] = None,
        host_prefix: str = "pm",
        substrate: str = "batch",
        track_performance: bool = True,
        cache_demands: bool = False,
        history_limit: Optional[int] = None,
    ) -> None:
        if num_hosts < 1:
            raise ValueError("a cluster needs at least one host")
        if substrate not in ("scalar", "batch"):
            raise ValueError(f"unknown hardware substrate {substrate!r}")
        self.epoch_seconds = epoch_seconds
        self.substrate = substrate
        #: Every resident VM's counter rows (see :mod:`repro.metrics.store`).
        self._ring = CounterRing(history_limit)
        self.hosts: Dict[str, Host] = {}
        for i in range(num_hosts):
            name = f"{host_prefix}{i}"
            self.hosts[name] = Host(
                name=name,
                spec=spec,
                noise=noise,
                seed=None if seed is None else seed + i,
                epoch_seconds=epoch_seconds,
                substrate=substrate,
                track_performance=track_performance,
                cache_demands=cache_demands,
                history_limit=history_limit,
            )
            self.hosts[name].counter_store.attach(self._ring)
        self.migration_engine = migration_engine or MigrationEngine()
        #: Hosts currently out of service for maintenance.  Every
        #: placement flow respects it: the lifecycle engine's admission
        #: and drain evacuations, and the placement manager's
        #: mitigation migrations (:meth:`PlacementManager.resolve_interference`
        #: skips drained candidates).  Simulation still steps drained
        #: hosts (they may hold stranded VMs until capacity appears).
        self.drained_hosts: set = set()
        self.current_epoch = 0
        #: Reusable batch-substrate output buffers per group (steady
        #: placements stop reallocating the epoch's counter matrix).
        self._batch_buffers: Dict[int, BatchBuffers] = {}
        #: Hosts already warned about a history_limit shorter than a
        #: requested monitoring window (one warning per host).
        self._short_history_warned: set = set()
        self._change_record()

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def host_names(self) -> List[str]:
        return sorted(self.hosts)

    def get_host(self, name: str) -> Host:
        return self.hosts[name]

    def add_host(self, host: Host) -> None:
        if host.name in self.hosts:
            raise ValueError(f"host {host.name!r} already in cluster")
        self.hosts[host.name] = host
        host.counter_store.attach(self._ring)
        changes = self._change_record()
        host._changes = changes
        host._change_index = len(self.hosts) - 1
        changes.placed(host._change_index)

    def _change_record(self) -> HostChanges:
        """The hosts' change record, created and attached on first use.

        A new record has no consumers, so every placement-derived cache
        rebuilds from all hosts on its next read.
        """
        changes = self._changes
        if changes is None:
            changes = self._changes = HostChanges()
            for i, host in enumerate(self.hosts.values()):
                host._changes = changes
                host._change_index = i
        return changes

    def place_vm(
        self,
        vm: VirtualMachine,
        host_name: str,
        load: float = 0.0,
        cpu_cap: float = 1.0,
    ) -> None:
        """Place a VM on a named host."""
        self.hosts[host_name].add_vm(vm, load=load, cpu_cap=cpu_cap)

    def host_of(self, vm_name: str) -> Optional[str]:
        """The host currently running ``vm_name``, or None."""
        entry = self._placement().get(vm_name)
        return entry[0] if entry is not None else None

    def remove_vm(self, vm_name: str) -> VirtualMachine:
        """Remove a VM from the cluster entirely (a tenant departure).

        The host reports the change, so every placement-derived cache
        (placement map, batch group layouts, packed demand matrices,
        counter-store ring segment) refreshes its part on the next
        epoch; the VM's counter/performance histories are retained on
        its last host, exactly as after :meth:`Host.remove_vm`.
        """
        # A scan of the hosts, not :meth:`host_of`: after the previous
        # departure the placement map is stale, and rebuilding it per
        # departure made a churn epoch quadratic in its departures.
        for host in self.hosts.values():
            if vm_name in host._vms:
                return host.remove_vm(vm_name)
        raise KeyError(f"VM {vm_name!r} not placed in the cluster")

    def _placement_signature(self) -> Tuple[int, int]:
        """Cheap fingerprint of the cluster's placement state.

        The change record counts every placement change its hosts report
        (both sides of a migration included); the host count covers
        :meth:`add_host`.
        """
        return len(self.hosts), self._change_record().placements

    def _placement(self) -> Dict[str, Tuple[str, VirtualMachine]]:
        """The cached VM -> (host name, VM) map, rebuilt only when the
        placement changed (migrations, added hosts/VMs).  A rebuild
        builds a new map: a returned map is never mutated."""
        return self._placement_state()[1]

    def _placement_state(self) -> _PlacementView:
        """The current placement signature, the :meth:`_placement` map
        and the application id of every VM in the map's order (VMs keep
        their application for life)."""
        signature = self._placement_signature()
        view = self._placement_view
        if view is not None and view[0] == signature:
            return view
        # Each host's pieces are kept, so a placement change re-reads only
        # the hosts the change record names; the map keeps host-then-VM
        # order (the action phase's order).  Hosts are only ever added
        # (:meth:`add_host`), at the end.
        n = len(self.hosts)
        moved = self._change_record().take("placement")
        cached = self._placement_items
        if cached is None or len(cached[0]) != n or moved is None:
            entries = tuple(self.hosts.items())
            parts: List[tuple] = [()] * n
            apps: List[Tuple[str, ...]] = [()] * n
            slots: List[Tuple[int, ...]] = [()] * n
            moved = range(n)
        else:
            entries, parts, apps, slots = cached
        for i in moved:
            host_name, host = entries[i]
            parts[i] = tuple(
                (vm_name, (host_name, vm)) for vm_name, vm in host._vms.items()
            )
            apps[i] = tuple(vm.app_id for vm in host._vms.values())
            # The store's slots follow the host's VM order.
            slots[i] = tuple(host.counter_store._slots.values())
        self._placement_items = (entries, parts, apps, slots)
        view = self._placement_view = (
            signature,
            dict(itertools.chain.from_iterable(parts)),
            tuple(itertools.chain.from_iterable(apps)),
        )
        return view

    def all_vms(self) -> Dict[str, Tuple[str, VirtualMachine]]:
        """All VMs in the cluster: vm name -> (host name, VM).

        Served from the placement cache; the returned dict is a copy, so
        callers may not observe later placement changes through it.
        """
        return dict(self._placement())

    def vm_count(self) -> int:
        """Number of placed VMs, straight off the placement cache.

        Unlike :meth:`all_vms` this copies nothing — fleet-level
        aggregation paths (``Fleet.stats()``, worker statistics
        collection) call it once per shard per snapshot, and a regional
        fleet multiplies shard counts tenfold.
        """
        return len(self._placement())

    def vms_running_app(self, app_id: str) -> List[Tuple[str, VirtualMachine]]:
        """All (host, VM) pairs running the given application code."""
        return [
            (host_name, vm)
            for host_name, vm in self._placement().values()
            if vm.app_id == app_id
        ]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(
        self, loads: Optional[Mapping[str, float]] = None
    ) -> Dict[str, Dict[str, VMPerformance]]:
        """Advance every host by one epoch.

        Parameters
        ----------
        loads:
            Optional per-VM load overrides (VM name -> fraction of nominal),
            routed automatically to whichever host runs each VM.

        Returns
        -------
        dict
            host name -> (vm name -> performance record).
        """
        per_host_loads: Dict[str, Dict[str, float]] = {}
        if loads:
            placement = self._placement()
            for vm_name, load in loads.items():
                if vm_name not in placement:
                    raise KeyError(f"VM {vm_name!r} not placed in the cluster")
                host_name = placement[vm_name][0]
                per_host_loads.setdefault(host_name, {})[vm_name] = load

        if self.substrate == "batch":
            results = self._step_batch(per_host_loads)
        else:
            results = self._step_scalar(per_host_loads)
        self._ring.advance()
        self.current_epoch += 1
        return results

    def _step_scalar(
        self, per_host_loads: Mapping[str, Mapping[str, float]]
    ) -> Dict[str, Dict[str, VMPerformance]]:
        """One epoch through each host's per-VM reference model; every
        host's counter rows go into the ring in one write."""
        tables = self._ring_tables()
        results: Dict[str, Dict[str, VMPerformance]] = {}
        rows: List[np.ndarray] = []
        epoch_seconds: List[float] = []
        for host_name, host in self.hosts.items():
            outcomes, offered = host.simulate(per_host_loads.get(host_name))
            rows.extend(sample_row(outcomes[name].counters) for name in host._vms)
            epoch_seconds.append(host.epoch_seconds)
            results[host_name] = host.record_performance(outcomes, offered)
            host.current_epoch += 1
        self._ring.write(
            tables.slots,
            np.reshape(rows, (-1, N_COUNTERS)),
            np.repeat(epoch_seconds, tables.counts),
        )
        self._written = tables
        return results

    def _batch_group_plan(self) -> List[BatchGroup]:
        """The (cached) spec groups and assembled layouts of the cluster.

        Rebuilt only when the placement changes: layouts depend on the
        VM sets, vCPU counts and pinning, not on per-epoch demand values.
        Hosts sharing a machine spec and epoch length form one batch;
        heterogeneous clusters simply split into a few batches.
        """
        epochs = tuple(host.epoch_seconds for host in self.hosts.values())
        signature = (self._placement_signature(), epochs)
        if self._batch_groups is not None and self._batch_groups[0] == signature:
            return self._batch_groups[1]
        # The spec grouping outlives placement changes: it is redone only
        # when the host set or an epoch length changes.  Within it, only
        # the hosts whose placement moved are re-read.  (The output
        # buffers stay: they resize when a group's row count changes.)
        host_key = (tuple(map(id, self.hosts.values())), epochs)
        grouping = self._host_segments
        moved = self._change_record().take("segments")
        if grouping is None or grouping.host_key != host_key:
            self._demand_tables = {}
            grouping = self._host_segments = _Grouping.of(self.hosts, host_key)
            moved = None
        per_group: List[Optional[List[int]]] = [None] * len(grouping.groups)
        if moved is not None:
            per_group = [[] for _ in grouping.groups]
            for h in moved:
                g, i = grouping.slots[h]
                per_group[g].append(i)
        built: List[BatchGroup] = []
        for ((_, epoch_seconds), segments), group_moved in zip(
            grouping.groups, per_group
        ):
            spec = segments.hosts[0][1].machine.spec
            layout = segments.refresh(spec.architecture.cache_domains, group_moved)
            built.append(
                (spec, epoch_seconds, list(segments.members), layout, segments.caps)
            )
        self._batch_groups = (signature, built)
        return built

    def _step_batch(
        self, per_host_loads: Mapping[str, Mapping[str, float]]
    ) -> Dict[str, Dict[str, VMPerformance]]:
        """One vectorized epoch over all hosts of the cluster.

        Demand rows are collected only on the hosts the change record
        names (placement or load changed since the previous epoch) and
        on hosts that regenerate them every epoch; every other host's
        rows stand, so a steady epoch skips the per-host loop.  Each spec
        group's counter block goes into the ring in one write.
        """
        for host_name, loads in per_host_loads.items():
            host = self.hosts[host_name]
            for vm_name, load in loads.items():
                host.set_load(vm_name, load)
        changes = self._change_record()
        placed = changes.take("demand")
        loaded = changes.take_loads("demand")
        groups = self._batch_group_plan()
        tables = self._demand_tables
        hosts = list(self.hosts.values())
        if placed is None or loaded is None or not tables:
            collect: Iterable[int] = range(len(hosts))
        else:
            uncached = self._host_segments.uncached
            collect = sorted(set(placed).union(loaded, uncached))
        # Per group: the hosts (ascending) whose demand rows changed.
        changed_in: List[List[int]] = [[] for _ in groups]
        slots = self._host_segments.slots
        for h in collect:
            host = hosts[h]
            host.collect_demand_rows()
            if host.demands_changed:
                g, i = slots[h]
                changed_in[g].append(i)
        results: Dict[str, Dict[str, VMPerformance]] = {}
        ring_tables = self._ring_tables()
        for g, (spec, epoch_seconds, members, layout, caps) in enumerate(groups):
            # Only hosts whose demand rows changed are re-read; the rows
            # of the others are copied from the previous table.
            cached = tables.get(g)
            if cached is None:
                table = bounds = None
                changed: Iterable[int] = range(len(members))
            else:
                demand_matrix, table, bounds = cached
                changed = changed_in[g]
            if changed:
                table = splice_segments(
                    table,
                    bounds,
                    changed,
                    [members[i][1].demand_row_matrix() for i in changed],
                )
                demand_matrix = DemandMatrix.from_table(table)
                tables[g] = (demand_matrix, table, layout.row_bounds)
            noise_rngs = [
                (host.machine.noise, host.machine._rng) for _, host, _ in members
            ]

            buffers = self._batch_buffers.get(g)
            if buffers is None:
                buffers = self._batch_buffers[g] = BatchBuffers()
            batch = simulate_epoch_batch(
                spec,
                demand_matrix,
                layout,
                epoch_seconds,
                caps,
                noise_rngs,
                buffers=buffers,
            )
            self._ring.write(
                ring_tables.slots
                if len(groups) == 1
                else self._group_slots(ring_tables, g),
                batch.counters,
                epoch_seconds,
            )

            offset = 0
            for host_name, host, names in members:
                k = len(names)
                results[host_name] = {}
                if host.track_performance:
                    # Ground-truth tracking materialises per-VM outcomes
                    # (and their samples); fleet monitoring runs with
                    # tracking off and never enters this branch.
                    samples = batch.samples(offset, offset + k)
                    results[host_name] = host.record_performance(
                        {
                            name: outcome_from_batch(batch, offset + j, samples[j])
                            for j, name in enumerate(names)
                        },
                        host.offered_map(),
                    )
                host.current_epoch += 1
                offset += k
        self._written = ring_tables
        return results

    def _group_slots(self, tables: _RingTables, group: int) -> np.ndarray:
        """The ring slots of one spec group's rows (hosts of several
        machine specs): its hosts' VMs, hosts in order."""
        bounds = np.concatenate(([0], np.cumsum(tables.counts)))
        return np.concatenate(
            [
                tables.slots[bounds[h] : bounds[h + 1]]
                for h, (g, _) in enumerate(self._host_segments.slots)
                if g == group
            ]
        )

    # ------------------------------------------------------------------
    # The counter ring
    # ------------------------------------------------------------------
    def _ring_tables(self) -> _RingTables:
        """The ring slot tables of the current placement, rebuilt from the
        per-host pieces of :meth:`_placement_state` when it changes."""
        signature, placement, _ = self._placement_state()
        tables = self._tables
        if tables is not None and tables.signature == signature:
            return tables
        slots = self._placement_items[3]
        counts = np.fromiter(map(len, slots), dtype=np.intp, count=len(slots))
        tables = self._tables = _RingTables(
            signature=signature,
            vm_names=tuple(placement),
            slots=np.fromiter(
                itertools.chain.from_iterable(slots),
                dtype=np.intp,
                count=int(counts.sum()),
            ),
            counts=counts,
        )
        return tables

    def latest_counter_totals(self) -> Optional[np.ndarray]:
        """Sum of the newest epoch's raw counters over every VM it ran.

        ``None`` before the first epoch; zeros when the epoch ran no VM.
        Each host's rows are folded in row order, then the host sums in
        host order (the per-host sequential fold of a host-by-host
        ``block.sum(axis=0)`` assembly), over the ring's newest row
        gathered through the slots the epoch was written through.
        """
        tables = self._written
        if tables is None:
            return None
        folds = tables.folds
        if not folds:
            return np.zeros(N_COUNTERS, dtype=float)
        ring = self._ring
        latest = ring.data[(ring.appended - 1) % ring.capacity, tables.slots]
        first_rows = folds[0][1]
        # Row 0 is the running total's zero start, row h + 1 host h's sum.
        sums = np.zeros((first_rows.size + 1, N_COUNTERS), dtype=float)
        sums[1:] = latest[first_rows]
        for hosts, rows in folds[1:]:
            sums[hosts] += latest[rows]
        return np.add.accumulate(sums, axis=0)[-1]

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def migrate_vm(self, vm_name: str, destination: str) -> MigrationRecord:
        """Migrate a VM to ``destination``, preserving its current load."""
        source = self.host_of(vm_name)
        if source is None:
            raise KeyError(f"VM {vm_name!r} not placed in the cluster")
        if destination not in self.hosts:
            raise KeyError(f"unknown destination host {destination!r}")
        if source == destination:
            raise ValueError("source and destination hosts are the same")
        src_host = self.hosts[source]
        dst_host = self.hosts[destination]
        load = src_host.get_load(vm_name)
        vm = src_host.remove_vm(vm_name)
        if not dst_host.can_fit(vm):
            # Roll back so the cluster stays consistent.
            src_host.add_vm(vm, load=load)
            raise ValueError(
                f"destination host {destination!r} cannot fit VM {vm_name!r}"
            )
        dst_host.add_vm(vm, load=load)
        return self.migration_engine.migrate(vm, source=source, destination=destination)

    # ------------------------------------------------------------------
    # Global introspection used by DeepDive's warning system
    # ------------------------------------------------------------------
    def counter_windows(
        self, window: int
    ) -> Dict[str, List[CounterSample]]:
        """The last ``window`` samples of every VM, in one pass.

        The scalar monitoring path's entry point: one bulk read per epoch
        instead of one host lookup per VM — the last entry of each
        window is the VM's newest sample.  VMs that have not completed
        an epoch yet are absent from the result.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        out: Dict[str, List[CounterSample]] = {}
        for host in self.hosts.values():
            store = host.counter_store
            for vm_name in host._vms:
                if vm_name in store and store.length(vm_name):
                    out[vm_name] = store.histories[vm_name][-window:]
        return out

    def counter_window_view(self, window: int) -> CounterWindowView:
        """Columnar equivalent of :meth:`counter_windows`.

        The ring rows of the last ``window`` epochs are gathered in
        placement order and left-folded in epoch order.  A VM with fewer
        epochs on its host than the window is folded from its first
        epoch on; a VM whose window is not wholly in the ring (it
        returned to a host it left less than ``window`` epochs ago, or
        its host's ``history_limit`` is shorter than the window) is
        folded from its retained samples.  VMs without an epoch on their
        host are absent.  The view equals the scalar window assembly
        exactly.

        A ``history_limit`` shorter than the window trims the smoothing
        windows to the retained epochs; the first time that happens on a
        host, a :class:`RuntimeWarning` names the host and limit so the
        misconfiguration is visible.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        tables = self._ring_tables()
        ring = self._ring
        a = ring.appended
        slots = tables.slots
        data, capacity = ring.data, ring.capacity
        # The last ``window`` ring rows of every slot, left-folded (rows
        # from before the first epoch only reach VMs fixed up below).
        acc = data[(a - window) % capacity, slots]
        for j in range(a - window + 1, a):
            acc += data[j % capacity, slots]
        latest = data[(a - 1) % capacity, slots]
        # VMs with fewer epochs in their slot than the window, or on a
        # host keeping fewer epochs than it.
        n = a - ring.start[slots]
        short = ring.limit[slots] < window
        odd = np.flatnonzero((n < window) | short)
        if not odd.size:
            return CounterWindowView(tables.vm_names, latest, acc)
        if short.any():
            self._warn_short_histories(window)
        keep = np.ones(slots.size, dtype=bool)
        # A VM whose whole history on its host is in the ring folds its
        # ``n`` rows there; the others are folded from their samples.
        ringed = (ring.base[slots[odd]] == 0) & ~short[odd]
        young, k = odd[ringed], n[odd[ringed]]
        if young.size:
            cols = slots[young]
            young_acc = data[(a - k) % capacity, cols]
            for d in range(1, int(k.max())):
                more = k > d
                young_acc[more] += data[(a - k[more] + d) % capacity, cols[more]]
            acc[young] = young_acc
            keep[young[k == 0]] = False
        bounds = np.cumsum(tables.counts)
        hosts = list(self.hosts.values())
        for i in odd[~ringed].tolist():
            host = hosts[int(np.searchsorted(bounds, i, side="right"))]
            fold = host.counter_store.vm_window_fold(tables.vm_names[i], window)
            if fold is None:
                keep[i] = False
            else:
                acc[i], latest[i] = fold
        return CounterWindowView(
            vm_names=tuple(itertools.compress(tables.vm_names, keep.tolist())),
            latest=latest[keep],
            window_sum=acc[keep],
        )

    def _warn_short_histories(self, window: int) -> None:
        """Warn once per populated host whose ``history_limit`` trims a
        ``window``-epoch read."""
        for host in self.hosts.values():
            if (
                host._vms
                and host.history_limit is not None
                and window > host.history_limit
                and host.name not in self._short_history_warned
            ):
                self._short_history_warned.add(host.name)
                warnings.warn(
                    f"counter_window_view: host {host.name!r} retains only "
                    f"history_limit={host.history_limit} epochs but a "
                    f"window of {window} was requested; smoothing windows "
                    "on this host are trimmed to the retained epochs",
                    RuntimeWarning,
                    stacklevel=3,
                )

    def latest_counters_for_app(
        self, app_id: str, exclude_vm: Optional[str] = None
    ) -> Dict[str, CounterSample]:
        """Latest counters of every VM running ``app_id`` (optionally excluding one)."""
        out: Dict[str, CounterSample] = {}
        for host_name, vm in self.vms_running_app(app_id):
            if exclude_vm is not None and vm.name == exclude_vm:
                continue
            sample = self.hosts[host_name].latest_counters(vm.name)
            if sample is not None:
                out[vm.name] = sample
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster(hosts={self.host_names()})"
