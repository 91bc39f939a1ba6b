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
  (:mod:`repro.hardware.batch`), emitting the same counter samples and
  additionally recording a columnar per-epoch counter block that feeds
  the monitoring pipeline's :class:`~repro.metrics.matrix.MetricMatrix`
  without per-VM dictionary materialisation.  The cluster keeps copies
  of the newest whole-cluster blocks, so the monitoring window and the
  epoch's counter totals are read without a loop over hosts.

Both substrates are equivalent (same formulas, same noise draws; pinned
by ``tests/property/test_substrate_equivalence.py``).

Placement changes are host events.  Every host of a cluster reports to
the cluster's change record (:class:`~repro.virt.vmm.HostChanges`): a
VM added or removed and a CPU cap set are placement changes, a new
offered load is a load change, and each epoch commit is counted.  The
placement signature and the counter stores' write stamp are the
record's counters, and each placement-derived structure — the placement
map, the spec groups' layouts and CPU caps, the packed demand rows, the
admission inputs of the fleet's lifecycle engine — takes the hosts that
changed since it last looked and re-reads only those.  A steady epoch
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


def host_counter_totals(hosts: Iterable[Host]) -> Optional[np.ndarray]:
    """The hosts' newest-epoch counter totals, assembled host by host.

    Hosts without resident VMs contribute nothing, so hosts that are
    all empty give an explicit all-zeros row; a *populated* host
    without a resident batch counter block (the scalar substrate's
    steady state) makes the totals unavailable: ``None``.
    """
    populated = [host for host in hosts if host.vms]
    if not populated:
        return np.zeros(N_COUNTERS, dtype=float)
    total = np.zeros(N_COUNTERS, dtype=float)
    for host in populated:
        latest = host.counter_store.latest_block()
        if latest is None:
            return None
        total += latest.sum(axis=0)
    return total


@dataclass(frozen=True)
class _BlockTables:
    """Row tables of the whole-cluster counter block for one placement."""

    #: Placement signature the tables were built at.
    signature: Tuple[int, int]
    #: Block row order: every populated host's VMs, hosts in order.
    vm_names: Tuple[str, ...]
    #: Smallest ``history_limit`` among populated hosts (None: unlimited).
    history_limit: Optional[int]
    #: VMs per populated host, hosts in order.
    counts: np.ndarray

    @functools.cached_property
    def slots(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """``slots[j] = (sums, rows)``: for the populated hosts with more
        than ``j`` VMs, their row in :meth:`Cluster.latest_counter_totals`'
        per-host sums (1-based) and the block row of their ``j``-th VM.
        Built on the first totals read: window reads do not need them."""
        counts = self.counts
        # Each row's host (1-based) and its index j within the host; a
        # stable sort by j keeps host order within each slot.
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
    #: Every host's ``history_limit`` (``inf``: unlimited).
    limits: np.ndarray

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
            limits=np.array(
                [
                    np.inf if host.history_limit is None else host.history_limit
                    for host in hosts.values()
                ],
                dtype=float,
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

    def __setstate__(self, state) -> None:
        # Segments pickled before the change record also carry the
        # hosts' placement versions they were read at; drop those.
        for name, value in state[1].items():
            if name in self.__slots__:
                setattr(self, name, value)

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
#: application ids in map order) — see :meth:`Cluster._placement`.
_PlacementView = Tuple[
    Tuple[int, int], Dict[str, Tuple[str, VirtualMachine]], Tuple[str, ...]
]


class Cluster:
    """A set of production hosts plus the migration machinery."""

    # Whole-cluster counter blocks (see :meth:`_record_block`).  They
    # start empty on the class, so a cluster unpickled from a
    # checkpoint written before they existed starts without blocks.
    #: The newest batch epochs' blocks, a ring of ``_block_depth`` slots.
    _blocks: Optional[np.ndarray] = None
    #: Blocks kept: the largest window read so far.
    _block_depth = 1
    #: Consecutive resident blocks and the slot the next one fills.
    _block_count = 0
    _block_next = 0
    #: (placement signature, commit stamp) right after the newest block
    #: was written; reads serve blocks only while it holds.
    _block_key: Optional[Tuple[Tuple[int, int], int]] = None
    _block_tables: Optional[_BlockTables] = None
    #: The hosts' spec grouping — see :meth:`_batch_group_plan`.
    _host_segments: Optional[_Grouping] = None
    #: (signature, groups) of the current placement — see
    #: :meth:`_batch_group_plan`.
    _batch_groups: Optional[Tuple[tuple, List[BatchGroup]]] = None
    #: (the ``(host name, host)`` pairs, each host's ``(vm name, (host
    #: name, VM))`` items, each host's VMs' application ids) — see
    #: :meth:`_placement`.
    _placement_items: Optional[
        Tuple[tuple, List[tuple], List[Tuple[str, ...]]]
    ] = None
    #: Per spec group: (demand matrix, its packed rows, the rows' host
    #: bounds) — see :meth:`_step_batch`.
    _demand_tables: Optional[
        Dict[int, Tuple[DemandMatrix, np.ndarray, np.ndarray]]
    ] = None
    #: The placement map of the current signature — see :meth:`_placement`.
    _placement_view: Optional[_PlacementView] = None
    #: The hosts' change record (see :class:`~repro.virt.vmm.HostChanges`);
    #: a cluster restored from a checkpoint written before it existed
    #: creates it on first use, with every host changed.
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
        history_mode: str = "lazy",
    ) -> None:
        if num_hosts < 1:
            raise ValueError("a cluster needs at least one host")
        if substrate not in ("scalar", "batch"):
            raise ValueError(f"unknown hardware substrate {substrate!r}")
        self.epoch_seconds = epoch_seconds
        self.substrate = substrate
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
                history_mode=history_mode,
            )
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
            # Placement-derived caches built before the record start over.
            for name in (
                "_placement_view",
                "_placement_items",
                "_host_segments",
                "_batch_groups",
                "_block_key",
                "_block_tables",
            ):
                self.__dict__.pop(name, None)
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
            moved = range(n)
        else:
            entries, parts, apps = cached
        for i in moved:
            host_name, host = entries[i]
            parts[i] = tuple(
                (vm_name, (host_name, vm)) for vm_name, vm in host._vms.items()
            )
            apps[i] = tuple(vm.app_id for vm in host._vms.values())
        self._placement_items = (entries, parts, apps)
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
            results = {
                host_name: host.step(per_host_loads.get(host_name))
                for host_name, host in self.hosts.items()
            }
        self.current_epoch += 1
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
        rows stand, so a steady epoch skips the per-host loop.
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
        if len(groups) != 1:
            # Heterogeneous clusters keep no whole-cluster block.
            self._block_key = None
        block_key = self._store_key()
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
            if len(groups) == 1:
                self._record_block(batch.counters, block_key)

            offset = 0
            for host_name, host, names in members:
                k = len(names)
                block = batch.counters[offset:offset + k]
                if host.track_performance:
                    # Ground-truth tracking materialises per-VM outcomes
                    # (and their samples) eagerly; fleet monitoring runs
                    # with tracking off and never enters this branch.
                    offered = host.offered_map()
                    samples = batch.samples(offset, offset + k)
                    outcomes = {
                        name: outcome_from_batch(batch, offset + j, samples[j])
                        for j, name in enumerate(names)
                    }
                    results[host_name] = host.commit_epoch(
                        outcomes,
                        offered,
                        counter_block=(names, block),
                    )
                else:
                    # The lean epoch edge: one ring ingest per host, no
                    # CounterSample objects, no per-VM dicts or appends.
                    host.commit_epoch_block(names, block)
                    results[host_name] = {}
                offset += k
        return results

    # ------------------------------------------------------------------
    # Whole-cluster counter blocks
    # ------------------------------------------------------------------
    def _store_key(self) -> Tuple[Tuple[int, int], int]:
        """(placement signature, commit stamp) of the hosts' stores.

        Every epoch commit on a host is counted by the change record, so
        the stamp moves whenever anything writes a counter store.
        """
        return self._placement_signature(), self._change_record().commits

    def _record_block(
        self, counters: np.ndarray, key: Tuple[Tuple[int, int], int]
    ) -> None:
        """Keep a copy of one batch epoch's whole-cluster counter block.

        ``key`` is :meth:`_store_key` before the epoch's commits.  The
        block continues the resident run only if nothing but this method
        has written the stores since the previous block, under the same
        placement; otherwise the run restarts with this block.
        """
        shape = (self._block_depth,) + counters.shape
        if self._blocks is None or self._blocks.shape != shape:
            self._blocks = np.empty(shape, dtype=float)
            self._block_key = None
        if key != self._block_key:
            self._block_count = 0
            self._block_next = 0
        np.copyto(self._blocks[self._block_next], counters)
        self._block_next = (self._block_next + 1) % shape[0]
        self._block_count = min(self._block_count + 1, shape[0])
        # Every host commits once per batch epoch.
        self._block_key = (key[0], key[1] + len(self.hosts))

    def _resident_blocks(self, window: int) -> Optional[_BlockTables]:
        """The block tables, if the newest ``window`` blocks are resident.

        They are when the blocks hold ``window`` consecutive batch
        epochs of the current placement and no store was written since
        by anything else (a direct ``Host.step``, the scalar substrate).
        A window deeper than the ring deepens it from the next epoch on.
        """
        if window > self._block_depth:
            self._block_depth = window
            return None
        if self._block_key is None or self._block_count < window:
            return None
        key = self._store_key()
        if key != self._block_key:
            return None
        tables = self._block_tables
        if tables is None or tables.signature != key[0]:
            tables = self._block_tables = self._build_block_tables(key[0])
        return tables

    def _build_block_tables(self, signature: Tuple[int, int]) -> _BlockTables:
        """Name and slot tables of the block rows (once per placement).

        Derived from structures already patched per moved host: the
        block rows are the placement map's VMs (one spec group, hosts in
        order), and the group layout's bounds count each host's VMs.
        """
        layout = self._batch_groups[1][0][3]
        counts = np.diff(layout.row_bounds)
        populated = counts > 0
        limit = self._host_segments.limits[populated].min(initial=np.inf)
        return _BlockTables(
            signature=signature,
            vm_names=tuple(self._placement()),
            history_limit=None if limit == np.inf else int(limit),
            counts=counts[populated],
        )

    def latest_counter_totals(self) -> Optional[np.ndarray]:
        """Sum of the newest epoch's raw counters over every VM.

        Same contract and bits as :func:`host_counter_totals` over the
        cluster's hosts: zeros when no host holds a VM, ``None`` when a
        populated host has no resident batch counter block.  Served from
        the whole-cluster block when it is resident: each host's rows
        are folded slot by slot, then the host sums in host order —
        the host-by-host assembly's additions, in its order.
        """
        tables = self._resident_blocks(1)
        if tables is None:
            return host_counter_totals(self.hosts.values())
        if not tables.slots:
            return np.zeros(N_COUNTERS, dtype=float)
        block = self._blocks[(self._block_next - 1) % self._blocks.shape[0]]
        first_rows = tables.slots[0][1]
        # Row 0 is the running total's zero start, row h + 1 host h's sum.
        sums = np.zeros((first_rows.size + 1, N_COUNTERS), dtype=float)
        sums[1:] = block[first_rows]
        for hosts, rows in tables.slots[1:]:
            sums[hosts] += block[rows]
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

        When the whole-cluster counter blocks of the last ``window``
        batch epochs are resident (see :meth:`_resident_blocks`), the
        view is a left fold over those blocks in epoch order, with the
        VMs in the host-by-host order below.  Otherwise it is assembled
        host by host: when a host's counter-store ring covers the
        window with a stable VM placement, its part is a few slices and
        sums read straight from the ring; hosts where that is not the
        case (scalar substrate, recent migrations, VMs younger than the
        window) fall back to a per-VM assembly — itself served from raw
        ring rows wherever the epochs live there — so the view is always
        exactly equivalent to the scalar window assembly.

        A ``history_limit`` shorter than the window silently trims the
        smoothing windows to the retained epochs; the first time that
        happens on a host, a :class:`RuntimeWarning` names the host and
        limit so the misconfiguration is visible.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        tables = self._resident_blocks(window)
        if tables is not None and (
            tables.history_limit is None or tables.history_limit >= window
        ):
            blocks = self._blocks
            depth = blocks.shape[0]
            end = self._block_next
            acc = blocks[(end - window) % depth].copy()
            for j in range(end - window + 1, end):
                acc += blocks[j % depth]
            return CounterWindowView(
                vm_names=tables.vm_names,
                latest=blocks[(end - 1) % depth].copy(),
                window_sum=acc,
            )
        return self._host_window_view(window)

    def _host_window_view(self, window: int) -> CounterWindowView:
        """:meth:`counter_window_view` assembled host by host."""
        names_parts: List[str] = []
        latest_parts: List[np.ndarray] = []
        sum_parts: List[np.ndarray] = []
        for host in self.hosts.values():
            if not host._vms:
                continue
            store = host.counter_store
            fast = store.window_view(
                window, tuple(host._vms), host.current_epoch
            )
            if fast is not None:
                names, latest, acc = fast
                names_parts.extend(names)
                latest_parts.append(latest)
                sum_parts.append(acc)
                continue
            if (
                host.history_limit is not None
                and window > host.history_limit
                and host.name not in self._short_history_warned
            ):
                self._short_history_warned.add(host.name)
                warnings.warn(
                    f"counter_window_view: host {host.name!r} retains only "
                    f"history_limit={host.history_limit} epochs but a "
                    f"window of {window} was requested; smoothing windows "
                    "on this host are trimmed to the retained epochs "
                    "(per-VM fallback assembly)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            for vm_name in host._vms:
                if vm_name not in store:
                    continue
                fold = store.vm_window_fold(vm_name, window)
                if fold is None:
                    continue
                acc_row, latest_row = fold
                names_parts.append(vm_name)
                latest_parts.append(latest_row)
                sum_parts.append(acc_row)
        if not names_parts:
            empty = np.empty((0, N_COUNTERS), dtype=float)
            return CounterWindowView(vm_names=(), latest=empty, window_sum=empty)
        return CounterWindowView(
            vm_names=tuple(names_parts),
            latest=np.vstack(latest_parts),
            window_sum=np.vstack(sum_parts),
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
