"""On-demand VM cloning.

The analyzer clones a VM into the sandbox before profiling it.  The
amount of time the clone takes depends on the VM's state size (memory
footprint plus any disk state that must be copied or made available via
copy-on-write); the paper notes the cloning time is typically small
compared to the analyzer's invocation frequency, but it still counts
toward the profiling cost accounted in the overhead study (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.virt.vm import VirtualMachine, VMState


@dataclass
class CloneHandle:
    """Bookkeeping for one clone operation."""

    clone: VirtualMachine
    source_name: str
    #: Seconds the cloning itself took (state transfer).
    clone_seconds: float


class CloneManager:
    """Creates sandbox clones and accounts for their cost."""

    def __init__(
        self,
        network_gbps: float = 1.0,
        cow_disk: bool = True,
        base_overhead_seconds: float = 2.0,
    ) -> None:
        """
        Parameters
        ----------
        network_gbps:
            Bandwidth available for transferring the VM's memory image to
            the sandbox host.
        cow_disk:
            When true, disk state is shared copy-on-write and does not
            need to be transferred.
        base_overhead_seconds:
            Fixed per-clone management overhead (snapshotting, domain
            creation).
        """
        if network_gbps <= 0:
            raise ValueError("network_gbps must be positive")
        self.network_gbps = network_gbps
        self.cow_disk = cow_disk
        self.base_overhead_seconds = base_overhead_seconds
        #: Number of the next unnamed clone (``<vm>-clone-<n>``).  A plain
        #: int, so checkpoints pickle it on every Python version.
        self._next_clone = 0
        #: Total seconds spent cloning since construction.
        self.total_clone_seconds = 0.0
        self.clones_created = 0

    def clone_seconds_for(self, vm: VirtualMachine) -> float:
        """Estimate the time to clone ``vm`` into the sandbox."""
        memory_gbit = vm.memory_gb * 8.0
        transfer = memory_gbit / self.network_gbps
        disk_penalty = 0.0 if self.cow_disk else 30.0
        return self.base_overhead_seconds + transfer + disk_penalty

    def charge(
        self, vm: VirtualMachine, clone_name: Optional[str] = None
    ) -> Tuple[str, float]:
        """Account one clone of ``vm`` without copying it.

        Returns the clone's name and cloning seconds.  The sandbox runs a
        clone only through its workload's demands, which are a pure
        function of the load, so it replays ``vm``'s own workload under
        the clone's name instead of a deep copy.
        """
        name = clone_name
        if not name:
            name = f"{vm.name}-clone-{self._next_clone}"
            self._next_clone += 1
        seconds = self.clone_seconds_for(vm)
        self.total_clone_seconds += seconds
        self.clones_created += 1
        return name, seconds

    def clone(
        self, vm: VirtualMachine, clone_name: Optional[str] = None
    ) -> CloneHandle:
        """Create a clone of ``vm`` ready to run in the sandbox."""
        name, seconds = self.charge(vm, clone_name)
        clone = vm.clone(clone_name=name)
        clone.state = VMState.RUNNING
        return CloneHandle(clone=clone, source_name=vm.name, clone_seconds=seconds)
