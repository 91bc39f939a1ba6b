"""The physical-machine contention model.

:class:`PhysicalMachine` composes the per-resource models (shared cache,
memory interconnect, disk, NIC) into a single epoch-level simulation.
Given the resource demands of the VMs placed on the machine (and the
core assignment decided by the hypervisor), :meth:`PhysicalMachine.run_epoch`
returns, for each VM:

* the raw counter sample (Table 1) the PMU + iostat/netstat would read,
* the number of instructions actually retired (the ground-truth
  measure of progress the paper uses for its degradation definition),
* the achieved disk and network throughput.

The model is deliberately analytical rather than cycle-accurate: the
paper's pipeline consumes counter *vectors*, and what matters for the
reproduction is that contention perturbs the same counters in the same
direction and with a plausible magnitude, not that any individual value
matches a specific silicon part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.hardware.batch import (
    BatchEpochResult,
    ClusterLayout,
    DemandMatrix,
    HostBatchPlan,
    simulate_epoch_batch,
)
from repro.hardware.cache import CacheOutcome, SharedCacheModel
from repro.hardware.demand import ResourceDemand
from repro.hardware.disk import DiskModel, DiskOutcome
from repro.hardware.membus import CACHE_LINE_BYTES, BusOutcome, MemoryBusModel
from repro.hardware.network import NicModel, NicOutcome
from repro.hardware.specs import MachineSpec, XEON_X5472
from repro.metrics.counters import COUNTER_NAMES, N_COUNTERS, CounterSample


@dataclass
class VMEpochOutcome:
    """Everything the substrate knows about one VM after one epoch."""

    counters: CounterSample
    #: Instructions actually retired (== counters.inst_retired).
    instructions_retired: float
    #: Instructions the workload wanted to retire.
    instructions_demanded: float
    #: Instructions the VM *could* have retired this epoch given its CPI
    #: and I/O waits (its capacity; >= retired when demand-limited).
    instructions_attainable: float
    #: Fraction of the demanded work completed this epoch.
    progress: float
    #: Achieved disk throughput in MB/s.
    disk_mbps: float
    #: Achieved network throughput in Mbps.
    network_mbps: float
    #: The contended CPI the VM experienced.
    cpi: float
    #: Cache, bus, disk and NIC sub-model outcomes (for diagnostics).
    cache: Optional[CacheOutcome] = None
    bus: Optional[BusOutcome] = None
    disk: Optional[DiskOutcome] = None
    nic: Optional[NicOutcome] = None


@dataclass
class EpochResult:
    """Result of one simulated epoch on one physical machine."""

    per_vm: Dict[str, VMEpochOutcome]
    epoch_seconds: float
    #: Memory-interconnect utilisation during the epoch.
    bus_utilization: float = 0.0

    def counters(self, vm_name: str) -> CounterSample:
        return self.per_vm[vm_name].counters

    def __contains__(self, vm_name: str) -> bool:
        return vm_name in self.per_vm


def outcome_from_batch(
    batch: BatchEpochResult, row: int, sample: Optional[CounterSample] = None
) -> VMEpochOutcome:
    """Materialise one batch-substrate row as a scalar :class:`VMEpochOutcome`.

    ``sample`` optionally reuses an already materialised counter sample
    (see :meth:`BatchEpochResult.samples`).  The per-resource sub-model
    outcomes (``cache``/``bus``/``disk``/``nic``) are diagnostics of the
    scalar substrate and stay ``None``.
    """
    return VMEpochOutcome(
        counters=sample if sample is not None else batch.sample(row),
        instructions_retired=float(batch.instructions_retired[row]),
        instructions_demanded=float(batch.instructions_demanded[row]),
        instructions_attainable=float(batch.instructions_attainable[row]),
        progress=float(batch.progress[row]),
        disk_mbps=float(batch.disk_mbps[row]),
        network_mbps=float(batch.network_mbps[row]),
        cpi=float(batch.cpi[row]),
    )


class PhysicalMachine:
    """Epoch-based contention model of one server.

    Parameters
    ----------
    spec:
        The machine description (architecture + DRAM + disks + NIC).
    name:
        Identifier used in logs and placement decisions.
    noise:
        Relative standard deviation of the multiplicative measurement
        noise applied to every counter (models PMU sampling noise and
        OS-level non-determinism; the paper treats such deviations as
        noise the warning system must tolerate).
    seed:
        Seed for the machine's private random generator; two machines
        constructed with the same seed and fed the same demands produce
        identical counter streams, which the tests rely on.
    """

    def __init__(
        self,
        spec: MachineSpec = XEON_X5472,
        name: str = "pm0",
        noise: float = 0.01,
        seed: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.name = name
        self.noise = noise
        self._rng = np.random.default_rng(seed)
        arch = spec.architecture
        self._cache_models = [
            SharedCacheModel(arch) for _ in range(arch.cache_domains)
        ]
        self._bus_model = MemoryBusModel(arch)
        self._disk_model = DiskModel(spec.disk)
        self._nic_model = NicModel(spec.nic)

    # ------------------------------------------------------------------
    # Core assignment helpers
    # ------------------------------------------------------------------
    def default_core_assignment(
        self, demands: Mapping[str, ResourceDemand]
    ) -> Dict[str, List[int]]:
        """Pin each VM's vCPUs to dedicated cores, round-robin across domains.

        Mirrors the paper's testbed configuration: "we configure the VMs
        to run on virtual CPUs that are pinned to separate cores".  When
        there are more vCPUs than cores, cores are time-shared and the
        per-VM cycle budget shrinks accordingly.
        """
        return self.core_assignment_for_vcpus(
            {name: demand.vcpus for name, demand in demands.items()}
        )

    def core_assignment_for_vcpus(
        self, vcpus: Mapping[str, int]
    ) -> Dict[str, List[int]]:
        """:meth:`default_core_assignment` from per-VM vCPU counts alone.

        The assignment depends only on the VM names and vCPU counts, so
        callers that have not materialised demand objects (the columnar
        demand layer) can plan without them.
        """
        assignment: Dict[str, List[int]] = {}
        next_core = 0
        total_cores = self.spec.architecture.cores
        for name in sorted(vcpus):
            count = vcpus[name]
            cores = [(next_core + i) % total_cores for i in range(count)]
            assignment[name] = cores
            next_core = (next_core + count) % total_cores
        return assignment

    def _cache_domain_of_core(self, core: int) -> int:
        return core // self.spec.architecture.cores_per_cache_domain

    # ------------------------------------------------------------------
    # Batch substrate
    # ------------------------------------------------------------------
    def batch_plan(
        self,
        demands: Mapping[str, ResourceDemand],
        core_assignment: Optional[Mapping[str, Sequence[int]]] = None,
    ) -> HostBatchPlan:
        """The batch substrate's layout for this machine's VM set.

        Depends only on the VM name order, vCPU counts and pinning — not
        on per-epoch demand values — so hypervisors cache it between
        placement changes.  Rows follow the iteration order of
        ``demands`` (the order the scalar substrate resolves VMs in).
        """
        return self.batch_plan_for_vcpus(
            {name: demand.vcpus for name, demand in demands.items()},
            core_assignment=core_assignment,
        )

    def batch_plan_for_vcpus(
        self,
        vcpus: Mapping[str, int],
        core_assignment: Optional[Mapping[str, Sequence[int]]] = None,
    ) -> HostBatchPlan:
        """:meth:`batch_plan` from per-VM vCPU counts alone."""
        assignment = (
            {n: list(c) for n, c in core_assignment.items()}
            if core_assignment is not None
            else self.core_assignment_for_vcpus(vcpus)
        )
        n_cores: List[float] = []
        pair_vm: List[int] = []
        pair_domain: List[int] = []
        pair_weight: List[float] = []
        for i, name in enumerate(vcpus):
            cores = assignment.get(name)
            if not cores:
                raise ValueError(f"no cores assigned to VM {name!r}")
            n_cores.append(float(len(cores)))
            weights: Dict[int, float] = {}
            for core in cores:
                dom = self._cache_domain_of_core(core)
                weights[dom] = weights.get(dom, 0.0) + 1.0 / len(cores)
            for dom, w in weights.items():
                pair_vm.append(i)
                pair_domain.append(dom)
                pair_weight.append(w)
        return HostBatchPlan(
            n_vms=len(n_cores),
            n_cores=np.asarray(n_cores, dtype=float),
            pair_vm=np.asarray(pair_vm, dtype=np.intp),
            pair_domain=np.asarray(pair_domain, dtype=np.intp),
            pair_weight=np.asarray(pair_weight, dtype=float),
        )

    def run_epoch_batch(
        self,
        demands: Mapping[str, ResourceDemand],
        epoch_seconds: float = 1.0,
        core_assignment: Optional[Mapping[str, Sequence[int]]] = None,
        cpu_caps: Optional[Mapping[str, float]] = None,
    ) -> EpochResult:
        """:meth:`run_epoch` through the vectorized batch substrate.

        Produces the same :class:`EpochResult` (including the machine's
        noise-generator consumption) with array operations instead of the
        per-VM dance; the per-resource sub-model outcomes on each
        :class:`VMEpochOutcome` are not materialised (``None``).
        """
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        for demand in demands.values():
            demand.validate()
        if not demands:
            return EpochResult(per_vm={}, epoch_seconds=epoch_seconds)
        names = list(demands)
        plan = self.batch_plan(demands, core_assignment=core_assignment)
        layout = ClusterLayout.assemble(
            [plan], self.spec.architecture.cache_domains
        )
        caps = np.asarray(
            [(cpu_caps or {}).get(name, 1.0) for name in names], dtype=float
        )
        batch = simulate_epoch_batch(
            self.spec,
            DemandMatrix.from_demands([demands[name] for name in names]),
            layout,
            epoch_seconds,
            caps,
            noise_rngs=[(self.noise, self._rng)],
        )
        per_vm = {
            name: outcome_from_batch(batch, i) for i, name in enumerate(names)
        }
        return EpochResult(
            per_vm=per_vm,
            epoch_seconds=epoch_seconds,
            bus_utilization=float(batch.host_bus_utilization[0]),
        )

    # ------------------------------------------------------------------
    # Epoch simulation
    # ------------------------------------------------------------------
    def run_epoch(
        self,
        demands: Mapping[str, ResourceDemand],
        epoch_seconds: float = 1.0,
        core_assignment: Optional[Mapping[str, Sequence[int]]] = None,
        cpu_caps: Optional[Mapping[str, float]] = None,
    ) -> EpochResult:
        """Simulate one epoch of co-located execution.

        Parameters
        ----------
        demands:
            Per-VM resource demands for the epoch.
        epoch_seconds:
            Epoch length in seconds.
        core_assignment:
            Optional explicit vCPU-to-core pinning; defaults to
            :meth:`default_core_assignment`.
        cpu_caps:
            Optional per-VM CPU caps in (0, 1]; the sandbox uses
            non-work-conserving caps to control the allocation tightly.
        """
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        for name, demand in demands.items():
            demand.validate()
        if not demands:
            return EpochResult(per_vm={}, epoch_seconds=epoch_seconds)

        arch = self.spec.architecture
        assignment = (
            {n: list(c) for n, c in core_assignment.items()}
            if core_assignment is not None
            else self.default_core_assignment(demands)
        )
        for name in demands:
            if name not in assignment or not assignment[name]:
                raise ValueError(f"no cores assigned to VM {name!r}")

        # ------------------------------------------------------------------
        # 1. Shared-cache contention, per cache domain.
        # ------------------------------------------------------------------
        cache_outcomes: Dict[str, CacheOutcome] = {}
        domain_members: Dict[int, Dict[str, ResourceDemand]] = {}
        vm_domain_weight: Dict[str, Dict[int, float]] = {}
        for name, demand in demands.items():
            cores = assignment[name]
            weights: Dict[int, float] = {}
            for core in cores:
                dom = self._cache_domain_of_core(core)
                weights[dom] = weights.get(dom, 0.0) + 1.0 / len(cores)
            vm_domain_weight[name] = weights
            for dom, w in weights.items():
                # The share of the VM's accesses hitting this domain is w.
                scaled = demand.scaled(w)
                domain_members.setdefault(dom, {})[name] = scaled

        partial: Dict[str, List[CacheOutcome]] = {name: [] for name in demands}
        for dom, members in domain_members.items():
            model = self._cache_models[dom % len(self._cache_models)]
            for name, outcome in model.resolve(members).items():
                partial[name].append(outcome)
        for name, outcomes in partial.items():
            cache_outcomes[name] = CacheOutcome(
                llc_accesses=sum(o.llc_accesses for o in outcomes),
                llc_misses=sum(o.llc_misses for o in outcomes),
                occupancy_mb=sum(o.occupancy_mb for o in outcomes),
                miss_ratio=(
                    sum(o.llc_misses for o in outcomes)
                    / max(sum(o.llc_accesses for o in outcomes), 1e-9)
                ),
            )

        # ------------------------------------------------------------------
        # 2. Disk and NIC contention (needed before the bus, because I/O
        #    traffic also crosses the memory interconnect as DMA).
        # ------------------------------------------------------------------
        disk_outcomes = self._disk_model.resolve(demands, epoch_seconds)
        nic_outcomes = self._nic_model.resolve(demands, epoch_seconds)

        # ------------------------------------------------------------------
        # 3. Memory-interconnect contention.
        # ------------------------------------------------------------------
        miss_traffic = {
            name: cache_outcomes[name].llc_misses * CACHE_LINE_BYTES / 1e6
            for name in demands
        }
        writeback_traffic = {
            name: miss_traffic[name] * demands[name].write_fraction
            for name in demands
        }
        dma_traffic = {
            name: disk_outcomes[name].transferred_mb
            + nic_outcomes[name].transferred_mbit / 8.0
            for name in demands
        }
        bus_outcomes = self._bus_model.resolve(
            miss_traffic, writeback_traffic, dma_traffic, epoch_seconds
        )
        bus_utilization = (
            next(iter(bus_outcomes.values())).utilization if bus_outcomes else 0.0
        )

        # ------------------------------------------------------------------
        # 4. Per-VM CPI and instruction retirement.
        # ------------------------------------------------------------------
        per_vm: Dict[str, VMEpochOutcome] = {}
        for name, demand in demands.items():
            per_vm[name] = self._resolve_vm(
                name=name,
                demand=demand,
                cores=assignment[name],
                cache=cache_outcomes[name],
                bus=bus_outcomes[name],
                disk=disk_outcomes[name],
                nic=nic_outcomes[name],
                epoch_seconds=epoch_seconds,
                cpu_cap=(cpu_caps or {}).get(name, 1.0),
            )
        return EpochResult(
            per_vm=per_vm,
            epoch_seconds=epoch_seconds,
            bus_utilization=bus_utilization,
        )

    # ------------------------------------------------------------------
    def _resolve_vm(
        self,
        name: str,
        demand: ResourceDemand,
        cores: Sequence[int],
        cache: CacheOutcome,
        bus: BusOutcome,
        disk: DiskOutcome,
        nic: NicOutcome,
        epoch_seconds: float,
        cpu_cap: float,
    ) -> VMEpochOutcome:
        arch = self.spec.architecture
        inst_demand = demand.instructions
        if inst_demand <= 0:
            sample = CounterSample.zeros(epoch_seconds=epoch_seconds)
            idle_capacity = (
                len(cores)
                * arch.frequency_hz
                * epoch_seconds
                / max(arch.base_cpi, 1e-9)
            )
            return VMEpochOutcome(
                counters=sample,
                instructions_retired=0.0,
                instructions_demanded=0.0,
                instructions_attainable=idle_capacity,
                progress=1.0,
                disk_mbps=disk.granted_mbps,
                network_mbps=nic.granted_mbps,
                cpi=0.0,
                cache=cache,
                bus=bus,
                disk=disk,
                nic=nic,
            )

        # --- CPI composition -------------------------------------------------
        # Memory-level parallelism: streaming (low-locality) access
        # patterns overlap many outstanding misses (hardware prefetching,
        # independent loads), so the per-miss stall is a fraction of the
        # raw latency; pointer-chasing / high-reuse patterns expose it
        # fully.  This is what makes a memory stressor bandwidth-bound
        # rather than latency-bound, as on real machines.
        mlp = 1.0 + 6.0 * (1.0 - demand.locality)
        llc_hits = max(cache.llc_accesses - cache.llc_misses, 0.0)
        cache_cpi = llc_hits * arch.llc_hit_cycles / inst_demand
        memory_cpi = (
            cache.llc_misses * bus.memory_latency_cycles / (inst_demand * mlp)
        )
        branch_cpi = (
            demand.branches_pki
            / 1000.0
            * demand.branch_mispredict_rate
            * arch.branch_miss_cycles
        )
        compute_cpi = arch.base_cpi + branch_cpi
        cpu_cpi = compute_cpi + cache_cpi + memory_cpi

        # --- Cycle budget -----------------------------------------------------
        cap = min(max(cpu_cap, 0.0), 1.0)
        core_cycles = len(cores) * arch.frequency_hz * epoch_seconds * cap

        # I/O wait removes wall-clock time from the epoch during which
        # the vCPUs sit idle with outstanding requests.  Waits on disk
        # and network can overlap each other only partially; we take the
        # max plus a fraction of the min.  The wait never consumes the
        # whole epoch: even a badly I/O-starved service keeps making some
        # progress on cached / independent work.
        io_wait = min(
            0.95 * epoch_seconds,
            max(disk.wait_seconds, nic.wait_seconds)
            + 0.25 * min(disk.wait_seconds, nic.wait_seconds),
        )
        io_fraction = io_wait / epoch_seconds
        effective_cycles = core_cycles * max(0.05, 1.0 - io_fraction)

        # --- Instruction retirement -------------------------------------------
        # Two limits apply: the cycle budget at the contended CPI, and the
        # VM's fair share of the memory-interconnect bandwidth (a VM whose
        # memory traffic exceeds its share cannot retire instructions
        # faster than the interconnect feeds it).
        attainable_cycles = effective_cycles / max(cpu_cpi, 1e-9)
        share = bus.bandwidth_share
        if share < 1.0:
            # The interconnect cannot carry all of the VM's memory traffic;
            # instruction retirement is capped at the same fraction.
            attainable_bandwidth = inst_demand * share
        else:
            attainable_bandwidth = float("inf")
        attainable = min(attainable_cycles, attainable_bandwidth)
        retired = min(inst_demand, attainable)
        progress = retired / inst_demand

        # Cycles actually consumed while retiring instructions.
        busy_cycles = retired * cpu_cpi
        stall_cycles = retired * (cache_cpi + memory_cpi)

        # Counter events scale with the retired work, not the demand.
        work_fraction = progress
        llc_accesses = cache.llc_accesses * work_fraction
        llc_misses = cache.llc_misses * work_fraction
        l1_misses = retired * demand.l1_miss_pki / 1000.0
        ifetch = retired * demand.ifetch_pki / 1000.0
        loads = retired * demand.loads_pki / 1000.0
        branches_missed = (
            retired * demand.branches_pki / 1000.0 * demand.branch_mispredict_rate
        )
        dma_mb = disk.transferred_mb + nic.transferred_mbit / 8.0
        bus_transactions = (
            (llc_misses * (1.0 + demand.write_fraction))
            + dma_mb * 1e6 / CACHE_LINE_BYTES
        )
        bus_brd = llc_misses
        bus_ifetch = ifetch * cache.miss_ratio
        # Outstanding-request duration grows with the contended latency.
        bus_req_out = llc_misses * bus.memory_latency_cycles * 0.5

        # I/O stall cycles expressed at core frequency over the assigned
        # cores.  Scaled by the achieved work fraction like every other
        # event counter: the application issues I/O for the requests it
        # actually completes, so when progress is limited by a non-I/O
        # resource the per-instruction I/O stall stays representative
        # instead of inflating.
        disk_stall_cycles = (
            disk.wait_seconds * arch.frequency_hz * len(cores) * work_fraction
        )
        net_stall_cycles = (
            nic.wait_seconds * arch.frequency_hz * len(cores) * work_fraction
        )

        sample = CounterSample(
            cpu_unhalted=busy_cycles,
            inst_retired=retired,
            l1d_repl=l1_misses,
            l2_ifetch=ifetch,
            l2_lines_in=llc_misses,
            mem_load=loads,
            resource_stalls=stall_cycles,
            bus_tran_any=bus_transactions,
            bus_trans_ifetch=bus_ifetch,
            bus_tran_brd=bus_brd,
            bus_req_out=bus_req_out,
            br_miss_pred=branches_missed,
            disk_stall_cycles=disk_stall_cycles,
            net_stall_cycles=net_stall_cycles,
            epoch_seconds=epoch_seconds,
        )
        sample = self._apply_noise(sample)

        return VMEpochOutcome(
            counters=sample,
            instructions_retired=sample.inst_retired,
            instructions_demanded=inst_demand,
            instructions_attainable=attainable,
            progress=progress,
            disk_mbps=disk.granted_mbps,
            network_mbps=nic.granted_mbps,
            cpi=cpu_cpi,
            cache=cache,
            bus=bus,
            disk=disk,
            nic=nic,
        )

    def _apply_noise(self, sample: CounterSample) -> CounterSample:
        """Multiplicative lognormal-ish noise on every counter.

        One ``normal(0, noise)`` draw of all counters in
        :data:`COUNTER_NAMES` order: the same stream, and the same
        factors, as one scalar draw per counter.  The clamp is
        ``where(v > 0, v, 0)`` because that is what ``max(0.0, v)``
        does: ``np.maximum(0.0, -0.0)`` would keep ``-0.0``.
        """
        if self.noise <= 0:
            return sample
        values = np.array(
            [getattr(sample, name) for name in COUNTER_NAMES], dtype=float
        )
        values *= 1.0 + self._rng.normal(0.0, self.noise, size=N_COUNTERS)
        return CounterSample(
            *np.where(values > 0.0, values, 0.0).tolist(),
            epoch_seconds=sample.epoch_seconds,
        )

    # ------------------------------------------------------------------
    def run_in_isolation(
        self,
        demand: ResourceDemand,
        epoch_seconds: float = 1.0,
        cpu_cap: float = 1.0,
    ) -> VMEpochOutcome:
        """Run a single demand alone on this machine (sandbox semantics)."""
        result = self.run_epoch(
            {"_solo": demand},
            epoch_seconds=epoch_seconds,
            cpu_caps={"_solo": cpu_cap},
        )
        return result.per_vm["_solo"]

    def reseed(self, seed: int) -> None:
        """Reset the measurement-noise generator (used by tests)."""
        self._rng = np.random.default_rng(seed)
