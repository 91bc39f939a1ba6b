"""The vectorized hardware-contention substrate.

The scalar substrate (:meth:`~repro.hardware.machine.PhysicalMachine.run_epoch`)
resolves contention one Python object at a time: per-VM dictionaries flow
through the cache, bus, disk and NIC models and every counter is touched
individually.  That is the executable specification — readable, and
exercised directly by the unit tests — but at fleet scale it is >90% of
wall-clock time.

This module is the batch equivalent: the demands of **all VMs on all
hosts of a cluster** are packed into one columnar :class:`DemandMatrix`,
the per-resource models' ``resolve_batch`` APIs resolve contention with a
handful of NumPy operations over host-segmented arrays, and the result
comes back as a columnar :class:`BatchEpochResult` whose rows can feed
:class:`~repro.metrics.matrix.MetricMatrix` directly.

Equivalence contract
--------------------
``simulate_epoch_batch`` mirrors the scalar substrate operation for
operation: same formulas, same operand order, and the same per-host
measurement-noise stream.  Counters therefore match the scalar substrate
bit-for-bit in the common case; the only tolerated deviation is
float-summation order in cross-VM reductions (documented tolerance
``1e-9`` relative), which cannot change any warning decision.
``tests/property/test_substrate_equivalence.py`` pins this contract.

Measurement noise
-----------------
Each host with noise ``sigma > 0`` and at least one active row draws one
standard-normal block of shape ``(active rows, len(COUNTER_NAMES))``
from its own generator, in row order; every noisy counter is then
``max(0, value * (1 + sigma * z))``.  The scalar model draws
``normal(0, sigma)`` per counter instead, which NumPy computes as
``0.0 + sigma * z`` on the same standard-normal stream.  ``0.0 + x``
differs from ``x`` only at ``x = -0.0``, and the ``1.0 + ...`` that
follows erases that difference, so the factors are the same bits and
every generator ends the epoch in the same state.
``tests/hardware/test_batch_noise.py`` pins this against the per-host
loop of earlier versions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.cache import SharedCacheModel
from repro.hardware.demand import ResourceDemand
from repro.hardware.disk import DiskModel
from repro.hardware.membus import CACHE_LINE_BYTES, MemoryBusModel
from repro.hardware.network import NicModel
from repro.hardware.specs import MachineSpec
from repro.metrics.counters import COUNTER_NAMES, N_COUNTERS, CounterSample

#: Column index of ``inst_retired`` in the batch counter matrix.
INST_RETIRED_COL = COUNTER_NAMES.index("inst_retired")

#: The noise level of a ``(noise, generator)`` pair.
_NOISE = operator.itemgetter(0)

#: The scalar :class:`ResourceDemand` fields packed into a DemandMatrix,
#: in column order.
DEMAND_FIELDS: Tuple[str, ...] = (
    "instructions",
    "working_set_mb",
    "loads_pki",
    "l1_miss_pki",
    "ifetch_pki",
    "branches_pki",
    "branch_mispredict_rate",
    "locality",
    "disk_mb",
    "disk_sequential_fraction",
    "network_mbit",
    "write_fraction",
)

#: Column index per packed demand field — for consumers (admission
#: scoring, diagnostics) that read individual columns out of packed
#: demand rows without materialising :class:`ResourceDemand` objects.
DEMAND_FIELD_INDEX: Dict[str, int] = {
    name: i for i, name in enumerate(DEMAND_FIELDS)
}


def pack_demand(demand: ResourceDemand) -> Tuple[float, ...]:
    """One VM's demand as a flat row tuple (see :data:`DEMAND_FIELDS`)."""
    return (
        demand.instructions,
        demand.working_set_mb,
        demand.loads_pki,
        demand.l1_miss_pki,
        demand.ifetch_pki,
        demand.branches_pki,
        demand.branch_mispredict_rate,
        demand.locality,
        demand.disk_mb,
        demand.disk_sequential_fraction,
        demand.network_mbit,
        demand.write_fraction,
    )


@dataclass
class DemandMatrix:
    """Columnar view of many VMs' :class:`ResourceDemand` objects."""

    instructions: np.ndarray
    working_set_mb: np.ndarray
    loads_pki: np.ndarray
    l1_miss_pki: np.ndarray
    ifetch_pki: np.ndarray
    branches_pki: np.ndarray
    branch_mispredict_rate: np.ndarray
    locality: np.ndarray
    disk_mb: np.ndarray
    disk_sequential_fraction: np.ndarray
    network_mbit: np.ndarray
    write_fraction: np.ndarray

    def __len__(self) -> int:
        return int(self.instructions.shape[0])

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[float, ...]]) -> "DemandMatrix":
        """Build from pre-packed rows (see :func:`pack_demand`)."""
        if rows:
            table = np.asarray(rows, dtype=float)
        else:
            table = np.empty((0, len(DEMAND_FIELDS)), dtype=float)
        return cls.from_table(table)

    @classmethod
    def from_table(cls, table: np.ndarray) -> "DemandMatrix":
        """Columnar view over an ``(n, len(DEMAND_FIELDS))`` row matrix.

        The zero-copy entry point for callers that already hold packed
        demand rows (the hosts' columnar demand layer); columns are
        slices of ``table``.
        """
        if table.ndim != 2 or table.shape[1] != len(DEMAND_FIELDS):
            raise ValueError(
                f"expected an (n, {len(DEMAND_FIELDS)}) demand table, "
                f"got shape {table.shape}"
            )
        return cls(**{name: table[:, j] for j, name in enumerate(DEMAND_FIELDS)})

    @classmethod
    def from_demands(cls, demands: Sequence[ResourceDemand]) -> "DemandMatrix":
        """Pack demand objects; callers validate demands beforehand."""
        return cls.from_rows([pack_demand(d) for d in demands])


@dataclass
class HostBatchPlan:
    """The placement-dependent layout of one host's VM rows.

    Produced by :meth:`~repro.hardware.machine.PhysicalMachine.batch_plan`
    and cached by the hypervisor between placement changes: it only
    depends on the VM name order, their vCPU counts and any explicit
    core pinning — not on the per-epoch demand values.
    """

    #: Number of VMs the plan covers (rows, in demand insertion order).
    n_vms: int
    #: Cores assigned to each VM (``len(cores)`` of the scalar path).
    n_cores: np.ndarray
    #: (VM, cache-domain) membership pairs: local VM row per pair.
    pair_vm: np.ndarray
    #: Local cache-domain id per pair.
    pair_domain: np.ndarray
    #: Share of the VM's accesses hitting the pair's domain.
    pair_weight: np.ndarray


def splice_segments(
    previous: Optional[np.ndarray],
    bounds: Optional[np.ndarray],
    moved: Sequence[int],
    parts: Sequence[np.ndarray],
) -> np.ndarray:
    """A host-segmented array with the moved hosts' segments replaced.

    Host ``h`` owns ``previous[bounds[h]:bounds[h + 1]]``; ``moved`` are
    ascending host indices and ``parts`` their new segments, in the same
    order.  Each run of unmoved hosts is copied as one slice, so the
    Python work grows with the moved hosts, not with the host count.
    With ``previous`` (and ``bounds``) None every host must be in
    ``moved``.
    """
    pieces = []
    start = 0
    for h, part in zip(moved, parts):
        if h > start:
            pieces.append(previous[bounds[start]:bounds[h]])
        pieces.append(part)
        start = h + 1
    if previous is not None:
        pieces.append(previous[bounds[start]:])
    return np.concatenate(pieces)


@dataclass
class ClusterLayout:
    """Host-segmented layout of all VM rows of one batch epoch."""

    #: Host index of every VM row.
    host_of_vm: np.ndarray
    #: Cores assigned per VM row.
    n_cores: np.ndarray
    #: Global (VM, cache-domain) membership pairs.
    pair_vm: np.ndarray
    pair_domain: np.ndarray
    pair_weight: np.ndarray
    n_hosts: int
    n_domains: int
    #: Host ``h`` owns rows ``row_bounds[h]:row_bounds[h + 1]``.
    row_bounds: np.ndarray
    #: Host ``h`` owns pairs ``pair_bounds[h]:pair_bounds[h + 1]``.
    pair_bounds: np.ndarray

    @classmethod
    def assemble(
        cls,
        plans: Sequence[HostBatchPlan],
        cache_domains: int,
        previous: Optional["ClusterLayout"] = None,
        moved: Optional[Sequence[int]] = None,
    ) -> "ClusterLayout":
        """Concatenate per-host plans into one cluster-wide layout.

        ``plans[h]`` describes host ``h``; global cache-domain ids are
        ``h * cache_domains + local_domain`` so domains never alias
        across hosts.

        After a placement change, ``previous`` is the layout of the same
        hosts before it and ``moved`` the ascending indices of the hosts
        whose plans changed since: the runs of unmoved hosts are copied
        from ``previous`` (their pairs shifted to the runs' new row
        offsets) and only the moved hosts' plans are read.  Without
        ``previous`` every host counts as moved — a first build.
        """
        n = len(plans)
        if not n:
            empty_int = np.empty(0, dtype=np.intp)
            return cls(
                host_of_vm=empty_int,
                n_cores=np.empty(0, dtype=float),
                pair_vm=empty_int.copy(),
                pair_domain=empty_int.copy(),
                pair_weight=np.empty(0, dtype=float),
                n_hosts=0,
                n_domains=0,
                row_bounds=np.zeros(1, dtype=np.intp),
                pair_bounds=np.zeros(1, dtype=np.intp),
            )
        if previous is None:
            moved = range(n)
            row_bounds_old = pair_bounds_old = np.zeros(n + 1, dtype=np.intp)
        elif previous.n_hosts != n:
            raise ValueError(f"previous layout has {previous.n_hosts} hosts, plans {n}")
        else:
            row_bounds_old = previous.row_bounds
            pair_bounds_old = previous.pair_bounds
        moved_idx = np.fromiter(moved, np.intp, count=len(moved))
        if moved_idx.size and (
            moved_idx[0] < 0 or moved_idx[-1] >= n or np.any(np.diff(moved_idx) <= 0)
        ):
            raise ValueError("moved hosts must be ascending indices into plans")
        vm_counts = np.diff(row_bounds_old)
        pair_counts = np.diff(pair_bounds_old)
        vm_counts[moved_idx] = [plans[h].n_vms for h in moved]
        pair_counts[moved_idx] = [plans[h].pair_vm.size for h in moved]
        row_bounds = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(vm_counts, out=row_bounds[1:])
        pair_bounds = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(pair_counts, out=pair_bounds[1:])

        def splice(field: str, bounds: np.ndarray) -> np.ndarray:
            return splice_segments(
                getattr(previous, field, None),
                bounds,
                moved,
                [getattr(plans[h], field) for h in moved],
            )

        # Unmoved pairs are already global: they shift by their run's
        # row displacement.  Moved pairs are local: they shift by their
        # host's row offset and domain base.
        hosts = np.arange(n, dtype=np.intp)
        kept_start = row_bounds_old[:-1].copy()
        kept_start[moved_idx] = 0
        domain_base = np.zeros(n, dtype=np.intp)
        domain_base[moved_idx] = moved_idx * cache_domains
        return cls(
            host_of_vm=np.repeat(hosts, vm_counts),
            n_cores=splice("n_cores", row_bounds_old),
            pair_vm=splice("pair_vm", pair_bounds_old)
            + np.repeat(row_bounds[:-1] - kept_start, pair_counts),
            pair_domain=splice("pair_domain", pair_bounds_old)
            + np.repeat(domain_base, pair_counts),
            pair_weight=splice("pair_weight", pair_bounds_old),
            n_hosts=n,
            n_domains=n * cache_domains,
            row_bounds=row_bounds,
            pair_bounds=pair_bounds,
        )


@dataclass
class BatchEpochResult:
    """Columnar result of one batch epoch over many hosts.

    ``counters`` rows follow :data:`~repro.metrics.counters.COUNTER_NAMES`
    column order — the same layout `MetricMatrix` consumes — so the
    monitoring pipeline can use them without materialising per-VM
    dictionaries.  :meth:`sample` materialises one row as a scalar-path
    :class:`CounterSample` for interop.
    """

    #: ``(n, N_COUNTERS)`` raw counter matrix (noise applied).
    counters: np.ndarray
    instructions_demanded: np.ndarray
    instructions_retired: np.ndarray
    instructions_attainable: np.ndarray
    progress: np.ndarray
    disk_mbps: np.ndarray
    network_mbps: np.ndarray
    cpi: np.ndarray
    #: Memory-interconnect utilisation per host.
    host_bus_utilization: np.ndarray
    epoch_seconds: float

    def __len__(self) -> int:
        return int(self.counters.shape[0])

    def sample(self, row: int) -> CounterSample:
        """Materialise one row as a :class:`CounterSample`."""
        return CounterSample(
            *self.counters[row].tolist(), epoch_seconds=self.epoch_seconds
        )

    def samples(
        self, start: int = 0, stop: Optional[int] = None
    ) -> List[CounterSample]:
        """Materialise rows ``[start, stop)`` as :class:`CounterSample`\\ s.

        One bulk ``tolist`` conversion instead of one per row — used by
        ground-truth tracking, which materialises per-VM outcomes
        anyway.  The monitoring pipeline never calls this: counter
        blocks go into the cluster's :class:`~repro.metrics.store.CounterRing`
        and samples materialise lazily on access.
        """
        eps = self.epoch_seconds
        return [
            CounterSample(*row, epoch_seconds=eps)
            for row in self.counters[start:stop].tolist()
        ]


class BatchBuffers:
    """Reusable output buffers for :func:`simulate_epoch_batch`.

    Steady placements resolve the same VM-row count epoch after epoch;
    keeping one ``BatchBuffers`` per batch group lets the epoch write
    its counter matrix and its measurement-noise draws into
    preallocated buffers instead of allocating fresh ones every epoch.
    A buffer is reallocated when the row count changes.

    A result produced with buffers is valid until the **next** epoch
    that reuses them — callers must consume (or copy) the counter block
    within the epoch, which the cluster's counter-ring write does.
    """

    def __init__(self) -> None:
        self._counters: Optional[np.ndarray] = None
        self._noise: Optional[np.ndarray] = None

    def counters(self, n: int) -> np.ndarray:
        """An ``(n, N_COUNTERS)`` float64 buffer (reallocated on resize)."""
        if self._counters is None or self._counters.shape[0] != n:
            self._counters = np.empty((n, N_COUNTERS), dtype=float)
        return self._counters

    def noise(self, n: int) -> np.ndarray:
        """An ``(n, N_COUNTERS)`` float64 buffer for the noise draws."""
        if self._noise is None or self._noise.shape[0] != n:
            self._noise = np.empty((n, N_COUNTERS), dtype=float)
        return self._noise


def simulate_epoch_batch(
    spec: MachineSpec,
    demands: DemandMatrix,
    layout: ClusterLayout,
    epoch_seconds: float,
    cpu_caps: np.ndarray,
    noise_rngs: Sequence[Tuple[float, np.random.Generator]],
    buffers: Optional[BatchBuffers] = None,
) -> BatchEpochResult:
    """Resolve one epoch of contention for all VMs on all hosts at once.

    Parameters
    ----------
    spec:
        The machine spec shared by every host in the batch (callers
        group heterogeneous clusters by spec).
    demands:
        Columnar per-VM demands, host-major (all of host 0's VMs first).
    layout:
        Host segmentation and cache-domain membership of the rows.
    epoch_seconds:
        Epoch length shared by the batch.
    cpu_caps:
        Per-VM CPU caps in (0, 1].
    noise_rngs:
        One ``(noise, generator)`` pair per host, in host index order
        (a ``ValueError`` if the count differs from ``layout.n_hosts``).
        Every host with ``noise > 0`` and an active row makes one
        ``standard_normal`` draw of ``(active rows, N_COUNTERS)``,
        scaled by its noise — the same stream and bits as the scalar
        substrate's per-counter ``normal(0, noise)`` (see the module
        docstring), so counter streams stay aligned between substrates.
    buffers:
        Optional reusable output buffers (see :class:`BatchBuffers`);
        with them, steady-placement epochs write the counter matrix in
        place instead of allocating a fresh one, and the result is only
        valid until the next epoch that reuses the buffers.
    """
    if epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive")
    if len(noise_rngs) != layout.n_hosts:
        raise ValueError(
            f"noise_rngs has {len(noise_rngs)} entries for a layout of "
            f"{layout.n_hosts} hosts"
        )
    n = len(demands)
    arch = spec.architecture
    if n == 0:
        empty = np.empty(0, dtype=float)
        return BatchEpochResult(
            counters=np.empty((0, N_COUNTERS), dtype=float),
            instructions_demanded=empty,
            instructions_retired=empty,
            instructions_attainable=empty,
            progress=empty,
            disk_mbps=empty,
            network_mbps=empty,
            cpi=empty,
            host_bus_utilization=np.zeros(layout.n_hosts, dtype=float),
            epoch_seconds=epoch_seconds,
        )

    host = layout.host_of_vm
    n_hosts = layout.n_hosts

    # ------------------------------------------------------------------
    # 1. Shared-cache contention over (VM, domain) membership pairs.
    # ------------------------------------------------------------------
    pv = layout.pair_vm
    scaled_inst = demands.instructions[pv] * layout.pair_weight
    cache_model = SharedCacheModel(arch)
    pair_acc, pair_misses, _occ, _ratio = cache_model.resolve_batch(
        instructions=scaled_inst,
        l1_miss_pki=demands.l1_miss_pki[pv],
        ifetch_pki=demands.ifetch_pki[pv],
        working_set_mb=demands.working_set_mb[pv],
        locality=demands.locality[pv],
        domain_ids=layout.pair_domain,
        n_domains=layout.n_domains,
    )
    llc_accesses = np.bincount(pv, weights=pair_acc, minlength=n)
    llc_misses = np.bincount(pv, weights=pair_misses, minlength=n)
    miss_ratio = llc_misses / np.maximum(llc_accesses, 1e-9)

    # ------------------------------------------------------------------
    # 2. Disk and NIC contention (DMA feeds the bus model below).
    # ------------------------------------------------------------------
    disk_t, disk_wait, disk_granted = DiskModel(spec.disk).resolve_batch(
        demands.disk_mb,
        demands.disk_sequential_fraction,
        host,
        n_hosts,
        epoch_seconds,
    )
    nic_t, nic_wait, nic_granted = NicModel(spec.nic).resolve_batch(
        demands.network_mbit, host, n_hosts, epoch_seconds
    )

    # ------------------------------------------------------------------
    # 3. Memory-interconnect contention.
    # ------------------------------------------------------------------
    miss_traffic = llc_misses * CACHE_LINE_BYTES / 1e6
    writeback_traffic = miss_traffic * demands.write_fraction
    dma_mb = disk_t + nic_t / 8.0
    bus = MemoryBusModel(arch).resolve_batch(
        miss_traffic, writeback_traffic, dma_mb, host, n_hosts, epoch_seconds
    )
    latency = bus.memory_latency_cycles[host]

    # ------------------------------------------------------------------
    # 4. Per-VM CPI composition and instruction retirement.
    # ------------------------------------------------------------------
    inst = demands.instructions
    active = inst > 0
    inst_safe = np.where(active, inst, 1.0)
    mlp = 1.0 + 6.0 * (1.0 - demands.locality)
    llc_hits = np.maximum(llc_accesses - llc_misses, 0.0)
    cache_cpi = llc_hits * arch.llc_hit_cycles / inst_safe
    memory_cpi = llc_misses * latency / (inst_safe * mlp)
    branch_cpi = (
        demands.branches_pki
        / 1000.0
        * demands.branch_mispredict_rate
        * arch.branch_miss_cycles
    )
    compute_cpi = arch.base_cpi + branch_cpi
    cpu_cpi = compute_cpi + cache_cpi + memory_cpi

    cap = np.minimum(np.maximum(cpu_caps, 0.0), 1.0)
    core_cycles = layout.n_cores * arch.frequency_hz * epoch_seconds * cap
    io_wait = np.minimum(
        0.95 * epoch_seconds,
        np.maximum(disk_wait, nic_wait) + 0.25 * np.minimum(disk_wait, nic_wait),
    )
    io_fraction = io_wait / epoch_seconds
    effective_cycles = core_cycles * np.maximum(0.05, 1.0 - io_fraction)

    attainable_cycles = effective_cycles / np.maximum(cpu_cpi, 1e-9)
    attainable_bandwidth = np.where(
        bus.bandwidth_share < 1.0, inst * bus.bandwidth_share, np.inf
    )
    attainable = np.minimum(attainable_cycles, attainable_bandwidth)
    retired = np.minimum(inst, attainable)
    progress = np.where(active, retired / inst_safe, 1.0)

    busy_cycles = retired * cpu_cpi
    stall_cycles = retired * (cache_cpi + memory_cpi)
    work_fraction = progress
    c_llc_misses = llc_misses * work_fraction
    l1_misses = retired * demands.l1_miss_pki / 1000.0
    ifetch = retired * demands.ifetch_pki / 1000.0
    loads = retired * demands.loads_pki / 1000.0
    branches_missed = (
        retired * demands.branches_pki / 1000.0 * demands.branch_mispredict_rate
    )
    bus_transactions = (
        (c_llc_misses * (1.0 + demands.write_fraction))
        + dma_mb * 1e6 / CACHE_LINE_BYTES
    )
    bus_ifetch = ifetch * miss_ratio
    bus_req_out = c_llc_misses * latency * 0.5
    disk_stall = disk_wait * arch.frequency_hz * layout.n_cores * work_fraction
    net_stall = nic_wait * arch.frequency_hz * layout.n_cores * work_fraction

    # Columns in COUNTER_NAMES order, written into the (possibly
    # reused) output buffer — same values ``column_stack`` produced.
    counters = (
        buffers.counters(n)
        if buffers is not None
        else np.empty((n, N_COUNTERS), dtype=float)
    )
    for j, column in enumerate(
        (
            busy_cycles,
            retired,
            l1_misses,
            ifetch,
            c_llc_misses,
            loads,
            stall_cycles,
            bus_transactions,
            bus_ifetch,
            c_llc_misses,  # bus_tran_brd == llc misses attributed to work
            bus_req_out,
            branches_missed,
            disk_stall,
            net_stall,
        )
    ):
        counters[:, j] = column
    counters[~active] = 0.0

    # ------------------------------------------------------------------
    # 5. Measurement noise: one standard-normal block per noisy host,
    # drawn from the host's generator into its rows of one shared block
    # (rows are host-major, so each host's active rows are contiguous
    # there), then scaled by the host's sigma for all rows at once.
    # ------------------------------------------------------------------
    sigma = np.fromiter(map(_NOISE, noise_rngs), dtype=float, count=n_hosts)
    row_sigma = sigma[host]
    noisy = active & (row_sigma > 0)
    bounds = layout.row_bounds
    every_row = bool(noisy.all())
    if every_row:
        per_host = np.diff(bounds)
    else:
        seen = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(noisy, out=seen[1:])
        per_host = seen[bounds[1:]] - seen[bounds[:-1]]
    drawing = np.flatnonzero(per_host)
    m = int(per_host.sum())
    z = (
        buffers.noise(m)
        if buffers is not None
        else np.empty((m, N_COUNTERS), dtype=float)
    )
    lo = 0
    for h, k in zip(drawing.tolist(), per_host[drawing].tolist()):
        noise_rngs[h][1].standard_normal(out=z[lo:lo + k])
        lo += k
    if every_row:
        # The steady case: every row is noisy, so scale in place.
        z *= row_sigma[:, None]
        z += 1.0
        counters *= z
        np.maximum(0.0, counters, out=counters)
    elif m:
        rows = np.flatnonzero(noisy)
        factors = 1.0 + row_sigma[rows, None] * z
        counters[rows] = np.maximum(0.0, counters[rows] * factors)

    idle_capacity = (
        layout.n_cores * arch.frequency_hz * epoch_seconds / max(arch.base_cpi, 1e-9)
    )
    return BatchEpochResult(
        counters=counters,
        instructions_demanded=np.where(active, inst, 0.0),
        instructions_retired=counters[:, INST_RETIRED_COL],
        instructions_attainable=np.where(active, attainable, idle_capacity),
        progress=progress,
        disk_mbps=disk_granted,
        network_mbps=nic_granted,
        cpi=np.where(active, cpu_cpi, 0.0),
        host_bus_utilization=bus.utilization,
        epoch_seconds=epoch_seconds,
    )
