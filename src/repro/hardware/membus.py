"""Memory-interconnect (front-side bus / QPI) contention model.

Every shared-cache miss travels over the memory interconnect.  On the
Xeon X5472 that interconnect is a single front-side bus shared by all
cores and by DMA traffic from the disk and NIC; on the Core-i7 port it
is QPI plus per-socket integrated memory controllers with much higher
aggregate bandwidth.  The model computes, per epoch:

* each VM's memory traffic (cache-miss refills plus write-backs plus a
  DMA share of its I/O traffic),
* the interconnect utilisation, and
* a latency-inflation factor based on an M/M/1-like queueing curve —
  the uncontended DRAM access cost grows as utilisation approaches 1,
  which is how front-side-bus interference (the paper's Scenario B)
  manifests as extra off-core stall cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.hardware.specs import ArchitectureSpec

#: Bytes per cache line; both modelled architectures use 64-byte lines.
CACHE_LINE_BYTES = 64.0


@dataclass
class BusOutcome:
    """Result of the memory-interconnect model for one VM in one epoch."""

    #: MB the VM wanted to move over the interconnect this epoch.
    traffic_mb: float
    #: MB the interconnect could actually carry for this VM this epoch
    #: (its fair bandwidth share when the interconnect is oversubscribed).
    granted_mb: float
    #: Effective (contended) memory-access latency in cycles.
    memory_latency_cycles: float
    #: Interconnect utilisation seen by the VM (shared across VMs).
    utilization: float
    #: Number of bus transactions attributed to the VM.
    transactions: float

    @property
    def bandwidth_share(self) -> float:
        """Fraction of the VM's demanded traffic the interconnect can carry."""
        if self.traffic_mb <= 0:
            return 1.0
        return min(1.0, self.granted_mb / self.traffic_mb)


@dataclass
class BusBatchOutcome:
    """Columnar result of :meth:`MemoryBusModel.resolve_batch`.

    Per-VM arrays (``traffic_mb``, ``granted_mb``, ``bandwidth_share``)
    are indexed by row; per-host arrays (``memory_latency_cycles``,
    ``utilization``) are indexed by host id.
    """

    traffic_mb: np.ndarray
    granted_mb: np.ndarray
    bandwidth_share: np.ndarray
    memory_latency_cycles: np.ndarray
    utilization: np.ndarray


class MemoryBusModel:
    """Bandwidth/latency model of the shared memory interconnect."""

    #: Utilisation beyond which the queueing curve is clamped.  Saturation
    #: beyond this point is handled by the bandwidth-share cap (a VM simply
    #: cannot move more bytes than its share), so the latency inflation
    #: stays moderate and finite.
    MAX_UTILIZATION = 0.90

    def __init__(self, spec: ArchitectureSpec) -> None:
        self._spec = spec

    def resolve(
        self,
        miss_traffic_mb: Mapping[str, float],
        writeback_traffic_mb: Mapping[str, float],
        dma_traffic_mb: Mapping[str, float],
        epoch_seconds: float,
    ) -> Dict[str, BusOutcome]:
        """Resolve interconnect contention for one epoch.

        Parameters
        ----------
        miss_traffic_mb:
            Per-VM shared-cache refill traffic (MB).
        writeback_traffic_mb:
            Per-VM dirty-line write-back traffic (MB).
        dma_traffic_mb:
            Per-VM I/O DMA traffic crossing the interconnect (MB).
        epoch_seconds:
            Epoch length, to convert traffic into bandwidth.
        """
        # Insertion order, not a set: the bus total sums in this order,
        # and a set's order would change with the string hash seed.
        names = list(
            dict.fromkeys([*miss_traffic_mb, *writeback_traffic_mb, *dma_traffic_mb])
        )
        per_vm_mb: Dict[str, float] = {}
        for name in names:
            per_vm_mb[name] = (
                miss_traffic_mb.get(name, 0.0)
                + writeback_traffic_mb.get(name, 0.0)
                + dma_traffic_mb.get(name, 0.0)
            )
        total_mb = sum(per_vm_mb.values())
        capacity_mb = self._spec.memory_bandwidth_mbps * max(epoch_seconds, 1e-9)
        utilization = min(self.MAX_UTILIZATION, total_mb / max(capacity_mb, 1e-9))

        latency = self.contended_latency(utilization)
        # Fair proportional bandwidth sharing once the interconnect is
        # oversubscribed: each VM can move at most its demand scaled by
        # capacity / total demand.
        scale = 1.0
        if total_mb > capacity_mb and total_mb > 0:
            scale = capacity_mb / total_mb
        outcomes: Dict[str, BusOutcome] = {}
        for name in names:
            mb = per_vm_mb[name]
            granted = mb * scale
            transactions = granted * 1e6 / CACHE_LINE_BYTES
            outcomes[name] = BusOutcome(
                traffic_mb=mb,
                granted_mb=granted,
                memory_latency_cycles=latency,
                utilization=utilization,
                transactions=transactions,
            )
        return outcomes

    def resolve_batch(
        self,
        miss_traffic_mb: np.ndarray,
        writeback_traffic_mb: np.ndarray,
        dma_traffic_mb: np.ndarray,
        host_ids: np.ndarray,
        n_hosts: int,
        epoch_seconds: float,
    ) -> "BusBatchOutcome":
        """Vectorized :meth:`resolve` over many interconnects at once.

        Rows are VMs; ``host_ids`` segments them into independent
        interconnects (one per host).  Mirrors the scalar arithmetic
        element-wise; per-host traffic totals accumulate in row order.
        """
        per_vm_mb = miss_traffic_mb + writeback_traffic_mb + dma_traffic_mb
        total_mb = np.bincount(host_ids, weights=per_vm_mb, minlength=n_hosts)
        capacity_mb = self._spec.memory_bandwidth_mbps * max(epoch_seconds, 1e-9)
        utilization = np.minimum(
            self.MAX_UTILIZATION, total_mb / max(capacity_mb, 1e-9)
        )
        inflation_sensitivity = 0.5 if self._spec.front_side_bus else 0.25
        latency = self._spec.memory_cycles * (
            1.0 + inflation_sensitivity * (utilization / (1.0 - utilization))
        )
        scale = np.where(
            total_mb > capacity_mb,
            capacity_mb / np.where(total_mb > 0, total_mb, 1.0),
            1.0,
        )
        granted_mb = per_vm_mb * scale[host_ids]
        bandwidth_share = np.where(
            per_vm_mb > 0,
            np.minimum(1.0, granted_mb / np.where(per_vm_mb > 0, per_vm_mb, 1.0)),
            1.0,
        )
        return BusBatchOutcome(
            traffic_mb=per_vm_mb,
            granted_mb=granted_mb,
            bandwidth_share=bandwidth_share,
            memory_latency_cycles=latency,
            utilization=utilization,
        )

    def contended_latency(self, utilization: float) -> float:
        """Memory-access latency (cycles) at a given interconnect utilisation.

        Uses the classic ``1 / (1 - rho)`` waiting-time inflation, scaled
        so that a bus-based design (FSB) degrades faster than a
        point-to-point design (QPI), matching the qualitative difference
        the paper observed between the two platforms.
        """
        u = min(max(utilization, 0.0), self.MAX_UTILIZATION)
        sensitivity = 0.5 if self._spec.front_side_bus else 0.25
        inflation = 1.0 + sensitivity * (u / (1.0 - u))
        return self._spec.memory_cycles * inflation

    def bandwidth_share_mb(
        self, demand_mb: float, total_demand_mb: float, epoch_seconds: float
    ) -> float:
        """Fair-share allocation when total demand exceeds the capacity."""
        capacity_mb = self._spec.memory_bandwidth_mbps * max(epoch_seconds, 1e-9)
        if total_demand_mb <= capacity_mb or total_demand_mb <= 0:
            return demand_mb
        return demand_mb * capacity_mb / total_demand_mb
