"""The host-stepping sandbox the replay tests compare to.

These are the sandbox runs and the placement manager's candidate
vetting as earlier versions ran them: clone the VMs, place them on a
sandbox host, ``Host.step`` it once per epoch (which resolves the
co-location and draws its noise, VM by VM, every epoch) and remove them
again, leaving the rows in the host's counter ring and
``performance_history``.  ``SandboxEnvironment`` and
``PlacementManager`` must give the same bits, accounting and generator
states while stepping nothing (``tests/virt/test_sandbox_replay.py``).
"""

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.placement import CandidateEvaluation, PlacementDecision
from repro.metrics.counters import CounterSample
from repro.metrics.normalization import aggregate_samples
from repro.virt.sandbox import SandboxRun
from repro.virt.vm import VirtualMachine


def profile(
    sandbox,
    vm: VirtualMachine,
    proxy=None,
    loads: Optional[Sequence[float]] = None,
    cpu_cap: float = 1.0,
    profile_epochs: Optional[int] = None,
) -> SandboxRun:
    """``SandboxEnvironment.profile`` by stepping a sandbox host."""
    epochs = profile_epochs or sandbox.profile_epochs
    handle = sandbox.clone_manager.clone(vm)
    host = sandbox._pick_host()

    replayed: List[float] = []
    if loads is not None:
        replayed = [float(x) for x in loads][:epochs]
    elif proxy is not None:
        for _ in range(epochs):
            value = (
                proxy.next_load_for(handle.clone.name)
                if handle.clone.name in proxy.mirrors()
                else None
            )
            if value is None:
                value = proxy.latest_load()
            replayed.append(1.0 if value is None else float(value))
    if not replayed:
        replayed = [1.0] * epochs
    while len(replayed) < epochs:
        replayed.append(replayed[-1])

    host.add_vm(handle.clone, load=replayed[0], cpu_cap=cpu_cap)
    epoch_counters: List[CounterSample] = []
    try:
        for load in replayed:
            host.set_load(handle.clone.name, load)
            epoch_counters.append(host.step()[handle.clone.name].counters)
    finally:
        host.remove_vm(handle.clone.name)
    return _finish(sandbox, vm, handle, epoch_counters, replayed)


def profile_colocated(
    sandbox,
    vm: VirtualMachine,
    background: Dict[VirtualMachine, float],
    loads: Sequence[float],
    cpu_cap: float = 1.0,
) -> SandboxRun:
    """``SandboxEnvironment.profile_colocated`` by stepping a sandbox host."""
    handle = sandbox.clone_manager.clone(vm)
    host = sandbox._pick_host()
    host.add_vm(handle.clone, load=float(loads[0]), cpu_cap=cpu_cap)
    for bg_vm, bg_load in background.items():
        host.add_vm(bg_vm.clone(f"{bg_vm.name}-bg-{host.name}"), load=bg_load)
    epoch_counters: List[CounterSample] = []
    try:
        for load in loads:
            host.set_load(handle.clone.name, float(load))
            epoch_counters.append(host.step()[handle.clone.name].counters)
    finally:
        for name in list(host.vms):
            host.remove_vm(name)
    return _finish(sandbox, vm, handle, epoch_counters, [float(x) for x in loads])


def _finish(sandbox, vm, handle, epoch_counters, replayed) -> SandboxRun:
    run_seconds = len(replayed) * sandbox.epoch_seconds
    sandbox.total_profiling_seconds += handle.clone_seconds + run_seconds
    sandbox.runs_completed += 1
    return SandboxRun(
        vm_name=vm.name,
        clone_name=handle.clone.name,
        counters=aggregate_samples(epoch_counters),
        epoch_counters=epoch_counters,
        clone_seconds=handle.clone_seconds,
        run_seconds=run_seconds,
        replayed_loads=replayed,
    )


def _rate(sample: CounterSample) -> float:
    return sample.inst_retired / max(sample.epoch_seconds, 1e-9)


def evaluate_candidate(
    manager, candidate, probe_vm: VirtualMachine, eval_epochs: Optional[int] = None
) -> CandidateEvaluation:
    """``PlacementManager.evaluate_candidate`` by stepping sandbox hosts."""
    sandbox = manager.sandbox
    epochs = eval_epochs or manager.config.placement_eval_epochs
    background = {vm: candidate.get_load(name) for name, vm in candidate.vms.items()}
    baselines = {
        vm.name: _rate(
            profile(sandbox, vm, loads=[load] * epochs, profile_epochs=epochs).counters
        )
        for vm, load in background.items()
    }
    probe_run = profile(sandbox, probe_vm, loads=[1.0] * epochs, profile_epochs=epochs)
    probe_baseline = _rate(probe_run.counters)

    host = sandbox.hosts[0]
    probe_clone = probe_vm.clone(f"{probe_vm.name}-eval-{candidate.name}")
    host.add_vm(probe_clone, load=1.0)
    clones = {}
    for vm, load in background.items():
        clones[vm.name] = vm.clone(f"{vm.name}-eval-{candidate.name}")
        host.add_vm(clones[vm.name], load=load)
    probe_samples: List[CounterSample] = []
    bg_samples: Dict[str, List[CounterSample]] = {name: [] for name in clones}
    try:
        for _ in range(epochs):
            results = host.step()
            probe_samples.append(results[probe_clone.name].counters)
            for name, clone in clones.items():
                bg_samples[name].append(results[clone.name].counters)
    finally:
        for name in list(host.vms):
            host.remove_vm(name)

    bg_degradations = []
    for name, samples in bg_samples.items():
        rate = _rate(aggregate_samples(samples))
        if baselines[name] > 0:
            bg_degradations.append(max(0.0, 1.0 - rate / baselines[name]))
    probe_rate = _rate(aggregate_samples(probe_samples))
    probe_degradation = (
        max(0.0, 1.0 - probe_rate / probe_baseline) if probe_baseline > 0 else 0.0
    )
    background_degradation = float(np.mean(bg_degradations)) if bg_degradations else 0.0
    return CandidateEvaluation(
        host_name=candidate.name,
        predicted_background_degradation=background_degradation,
        predicted_vm_degradation=probe_degradation,
        score=max(background_degradation, probe_degradation),
    )


def decide(
    manager,
    vm: VirtualMachine,
    source_host: str,
    candidates: Mapping,
    recent_samples: Sequence[CounterSample],
    eval_epochs: Optional[int] = None,
) -> PlacementDecision:
    """``PlacementManager.decide`` over the stepping ``evaluate_candidate``."""
    probe = manager.synthetic_representation(vm, recent_samples)
    evaluations = [
        evaluate_candidate(manager, host, probe, eval_epochs=eval_epochs)
        for name, host in candidates.items()
        if name != source_host and host.can_fit(vm)
    ]
    evaluations.sort(key=lambda e: e.score)
    destination = evaluations[0].host_name if evaluations else None
    decision = PlacementDecision(
        vm_name=vm.name,
        source_host=source_host,
        destination=destination,
        evaluations=evaluations,
        no_acceptable_destination=(
            not evaluations
            or evaluations[0].score > manager.config.placement_acceptable_degradation
        ),
    )
    manager.decisions.append(decision)
    return decision
