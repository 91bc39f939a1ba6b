"""The sandboxed profiling environment.

The analyzer runs a VM's clone on a dedicated profiling server whose
schedulers are non-work-conserving, so the clone receives exactly its
nominal resource allocation and nothing competes with it — that run is
the "isolation" half of the production-vs-isolation comparison that
yields the ground truth about interference.

:class:`SandboxEnvironment` manages a small pool of profiling hosts (the
paper shows that a handful suffice even for aggressive arrival rates),
runs clones under the duplicated load stream from the
:class:`~repro.virt.proxy.RequestProxy`, and returns aggregate isolation
counters.

Every run, the placement manager's candidate co-locations included,
goes through one primitive, :meth:`SandboxEnvironment._replay`.  A
co-location is resolved without noise once per distinct load vector
(:meth:`~repro.hardware.machine.PhysicalMachine.resolve_epoch`), and the
window's measurement noise is one draw from the run's host, epoch-major:
the bits and generator state of a host stepped epoch by epoch, which
the sandbox hosts never are.  They keep no counter or performance
history, so a sandbox stays the same size however much it profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.specs import MachineSpec, XEON_X5472
from repro.metrics.counters import COUNTER_NAMES, CounterSample
from repro.metrics.normalization import aggregate_samples
from repro.virt.cloning import CloneManager
from repro.virt.proxy import RequestProxy
from repro.virt.vm import VirtualMachine
from repro.virt.vmm import Host


@dataclass
class SandboxRun:
    """Result of profiling one VM clone in the sandbox."""

    vm_name: str
    clone_name: str
    #: Aggregate isolation counters over the profiling window.
    counters: CounterSample
    #: Per-epoch isolation counters.
    epoch_counters: List[CounterSample]
    #: Seconds spent cloning the VM.
    clone_seconds: float
    #: Seconds spent running the clone in the sandbox.
    run_seconds: float
    #: The loads replayed to the clone, one per epoch.
    replayed_loads: List[float]

    @property
    def total_seconds(self) -> float:
        """Total profiling cost of this run (cloning + execution)."""
        return self.clone_seconds + self.run_seconds


@dataclass(frozen=True)
class _Resolution:
    """One co-location resolved without measurement noise."""

    #: ``(n, N_COUNTERS)`` counter rows, in run order.
    rows: np.ndarray
    #: The rows that draw noise: the VMs that demanded instructions.
    noisy: np.ndarray


def _check_cap(cpu_cap: float) -> None:
    if not 0.0 < cpu_cap <= 1.0:
        raise ValueError("cpu_cap must be in (0, 1]")


class SandboxEnvironment:
    """A pool of dedicated profiling hosts with tightly controlled allocation.

    Runs rotate over the hosts (:meth:`_pick_host`), each drawing its
    measurement noise from its host's generator; the placement manager's
    co-located trial runs (:meth:`colocation_rows`) use the host it
    names.  Hosts are never stepped and keep no history.
    """

    def __init__(
        self,
        num_hosts: int = 1,
        spec: MachineSpec = XEON_X5472,
        epoch_seconds: float = 1.0,
        profile_epochs: int = 30,
        noise: float = 0.005,
        seed: Optional[int] = None,
        clone_manager: Optional[CloneManager] = None,
    ) -> None:
        if num_hosts < 1:
            raise ValueError("the sandbox needs at least one profiling host")
        if profile_epochs < 1:
            raise ValueError("profile_epochs must be positive")
        self.spec = spec
        self.epoch_seconds = epoch_seconds
        self.profile_epochs = profile_epochs
        self.noise = noise
        self._seed = seed
        self.hosts: List[Host] = [
            Host(
                name=f"sandbox{i}",
                spec=spec,
                noise=noise,
                seed=None if seed is None else seed + i,
                epoch_seconds=epoch_seconds,
            )
            for i in range(num_hosts)
        ]
        self.clone_manager = clone_manager or CloneManager()
        self._next_host = 0
        #: Total profiling time accumulated across all runs (seconds).
        self.total_profiling_seconds = 0.0
        self.runs_completed = 0

    # ------------------------------------------------------------------
    def _pick_host(self) -> Host:
        host = self.hosts[self._next_host % len(self.hosts)]
        self._next_host += 1
        return host

    def _resolve(
        self,
        host: Host,
        vms: Sequence[Tuple[str, VirtualMachine]],
        loads: Sequence[float],
        caps: Sequence[float],
    ) -> _Resolution:
        """``vms`` at ``loads`` on ``host``'s machine, without noise."""
        demands = {}
        for (name, vm), load in zip(vms, loads):
            demand = vm.demand(
                max(0.0, load) * vm.workload.nominal_load,
                epoch_seconds=host.epoch_seconds,
            )
            demand.validate()
            demands[name] = demand
        if len(demands) != len(vms):
            raise ValueError("the VMs of one sandbox run need distinct names")
        outcomes = host.machine.resolve_epoch(
            demands,
            epoch_seconds=host.epoch_seconds,
            cpu_caps=dict(zip(demands, caps)),
        ).per_vm.values()
        return _Resolution(
            rows=np.array(
                [[getattr(o.counters, c) for c in COUNTER_NAMES] for o in outcomes],
                dtype=float,
            ),
            noisy=np.array([o.instructions_demanded > 0 for o in outcomes]),
        )

    def _replay(
        self,
        host: Host,
        vms: Sequence[Tuple[str, VirtualMachine]],
        loads: Sequence[Sequence[float]],
        caps: Sequence[float],
        resolutions: Optional[Dict[Tuple[float, ...], _Resolution]] = None,
    ) -> np.ndarray:
        """Run ``vms`` together on ``host``, one epoch per entry of ``loads``.

        ``vms`` are ``(name, VM)`` pairs in placement order: the names
        decide the default core assignment, the order the noise order.
        ``loads[e]`` holds each VM's offered load (fraction of nominal)
        in epoch ``e``; ``caps`` their CPU caps.  Each distinct load
        vector is resolved once; ``resolutions`` (load vector ->
        resolution) shares them between runs of the same VMs and caps,
        on any of the sandbox's hosts (they share one spec).
        The window's noise is one draw from ``host``'s generator over
        the noisy rows, epoch-major — the draws of stepping ``host``
        epoch by epoch.  Returns ``(epochs, len(vms), N_COUNTERS)``
        counter rows.
        """
        if resolutions is None:
            resolutions = {}
        window = []
        for epoch_loads in loads:
            key = tuple(epoch_loads)
            resolved = resolutions.get(key)
            if resolved is None:
                resolved = resolutions[key] = self._resolve(host, vms, key, caps)
            window.append(resolved)
        block = np.stack([r.rows for r in window])
        noisy = np.stack([r.noisy for r in window])
        block[noisy] = host.machine.measure(block[noisy])
        return block

    def _account(self, clone_seconds: float, epochs: int) -> float:
        """Book one accounted run; returns its run seconds."""
        run_seconds = epochs * self.epoch_seconds
        self.total_profiling_seconds += clone_seconds + run_seconds
        self.runs_completed += 1
        return run_seconds

    def _finish(
        self,
        vm: VirtualMachine,
        clone_name: str,
        clone_seconds: float,
        rows: np.ndarray,
        replayed: List[float],
    ) -> SandboxRun:
        epoch_counters = [
            CounterSample(*row, epoch_seconds=self.epoch_seconds)
            for row in rows.tolist()
        ]
        return SandboxRun(
            vm_name=vm.name,
            clone_name=clone_name,
            counters=aggregate_samples(epoch_counters),
            epoch_counters=epoch_counters,
            clone_seconds=clone_seconds,
            run_seconds=self._account(clone_seconds, len(replayed)),
            replayed_loads=replayed,
        )

    # ------------------------------------------------------------------
    def profile(
        self,
        vm: VirtualMachine,
        proxy: Optional[RequestProxy] = None,
        loads: Optional[Sequence[float]] = None,
        cpu_cap: float = 1.0,
        profile_epochs: Optional[int] = None,
    ) -> SandboxRun:
        """Clone ``vm`` and run it in isolation under the duplicated load.

        Exactly one of ``proxy`` or ``loads`` should supply the load
        stream; if both are given the explicit ``loads`` win, and if
        neither is given the clone runs at the VM workload's most recent
        nominal load (1.0).
        """
        _check_cap(cpu_cap)
        epochs = profile_epochs or self.profile_epochs
        clone_name, clone_seconds = self.clone_manager.charge(vm)
        host = self._pick_host()

        replayed: List[float] = []
        if loads is not None:
            replayed = [float(x) for x in loads][:epochs]
        elif proxy is not None:
            for _ in range(epochs):
                value = None
                if clone_name in proxy.mirrors():
                    value = proxy.next_load_for(clone_name)
                if value is None:
                    value = proxy.latest_load()
                replayed.append(1.0 if value is None else float(value))
        if not replayed:
            replayed = [1.0] * epochs
        while len(replayed) < epochs:
            replayed.append(replayed[-1])

        rows = self._replay(
            host, [(clone_name, vm)], [(load,) for load in replayed], (cpu_cap,)
        )
        return self._finish(vm, clone_name, clone_seconds, rows[:, 0], replayed)

    def isolation_rows(
        self,
        vm: VirtualMachine,
        load: float,
        epochs: int,
        resolutions: Optional[Dict[Tuple[float, ...], _Resolution]] = None,
    ) -> np.ndarray:
        """:meth:`profile` at a constant ``load``, as ``(epochs, N_COUNTERS)``
        counter rows: the same clone accounting, host rotation and noise,
        without the :class:`SandboxRun`.  ``resolutions`` shares the
        noise-free resolution between runs of one VM (see :meth:`_replay`).
        """
        clone_name, clone_seconds = self.clone_manager.charge(vm)
        host = self._pick_host()
        rows = self._replay(
            host, [(clone_name, vm)], [(float(load),)] * epochs, (1.0,), resolutions
        )
        self._account(clone_seconds, epochs)
        return rows[:, 0]

    def colocation_rows(
        self,
        host: Host,
        vms: Sequence[Tuple[str, VirtualMachine, float]],
        epochs: int,
    ) -> np.ndarray:
        """``(name, VM, load)`` entries together on ``host`` for ``epochs``
        at constant loads, uncapped and unaccounted: the placement
        manager's trial co-location.  Returns ``(epochs, len(vms),
        N_COUNTERS)`` counter rows."""
        loads = tuple(load for _, _, load in vms)
        return self._replay(
            host,
            [(name, vm) for name, vm, _ in vms],
            [loads] * epochs,
            (1.0,) * len(vms),
        )

    # ------------------------------------------------------------------
    def profile_colocated(
        self,
        vm: VirtualMachine,
        background: Dict[VirtualMachine, float],
        loads: Sequence[float],
        cpu_cap: float = 1.0,
    ) -> SandboxRun:
        """Run a VM together with explicit background VMs in the sandbox.

        What would happen on a candidate destination PM: the candidate's
        current VMs are the ``background`` (with their current loads) and
        ``vm`` is the VM being migrated, replaying ``loads``.  Accounted
        like :meth:`profile`; the background runs uncapped.
        """
        epochs = len(loads)
        if epochs == 0:
            raise ValueError("loads must contain at least one epoch")
        _check_cap(cpu_cap)
        clone_name, clone_seconds = self.clone_manager.charge(vm)
        host = self._pick_host()
        vms = [(clone_name, vm)] + [
            (f"{bg_vm.name}-bg-{host.name}", bg_vm) for bg_vm in background
        ]
        replayed = [float(x) for x in loads]
        bg_loads = tuple(background.values())
        rows = self._replay(
            host,
            vms,
            [(load,) + bg_loads for load in replayed],
            (cpu_cap,) + (1.0,) * len(background),
        )
        return self._finish(vm, clone_name, clone_seconds, rows[:, 0], replayed)
