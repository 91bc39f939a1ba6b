"""The VM-placement manager (Section 4.3).

Once the analyzer has confirmed interference and blamed a resource, the
placement manager:

1. selects which VM to migrate — by default the VM that uses the culprit
   resource most aggressively (the paper's simple interference-mitigating
   policy);
2. builds a synthetic representation of that VM (a synthetic benchmark
   whose inputs were regression-trained to reproduce the VM's metric
   vector);
3. runs the synthetic representation on every candidate destination PM
   concurrently, co-located with whatever those PMs are already running,
   and measures the interference that would result;
4. migrates the VM to the candidate with the least predicted
   interference — or reports that no acceptable destination exists.

This avoids speculative migrations entirely: "we can entirely eliminate
expensive and yet worthless (for placement) VM migration that could
cause performance degradation elsewhere."
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.analyzer import AnalysisResult
from repro.core.config import DeepDiveConfig
from repro.metrics.counters import CounterSample
from repro.metrics.cpi import Resource
from repro.metrics.normalization import aggregate_samples
from repro.metrics.sample import MetricVector
from repro.regression.training import TrainedSynthesizer
from repro.virt.cluster import Cluster
from repro.virt.sandbox import SandboxEnvironment
from repro.virt.vm import VirtualMachine
from repro.virt.vmm import Host
from repro.workloads.synthetic import SyntheticBenchmark


#: Which counter identifies the most aggressive user of each resource.
_AGGRESSIVENESS_COUNTER: Dict[Resource, str] = {
    Resource.CACHE: "l2_lines_in",
    Resource.MEMORY_BUS: "bus_tran_any",
    Resource.DISK: "disk_stall_cycles",
    Resource.NETWORK: "net_stall_cycles",
    Resource.CORE: "cpu_unhalted",
}


def contention_scores(pressure: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Predicted degradation per host from resource overcommit.

    ``pressure`` and ``capacity`` are ``(n_hosts, n_resources)`` arrays
    (same resource columns in both).  Under proportional sharing a
    resource at utilisation ``u > 1`` grants each demand only ``1/u`` of
    what it asked for, so the predicted degradation is
    ``max(0, 1 - 1/u)``; a host's score is its *worst* resource —
    mirroring the manager's ``max(background, vm)`` scoring rule.  The
    fleet lifecycle engine's interference-aware admission ranks
    candidate hosts with this model (demand-derived, so scores are
    identical across hardware substrates); the sandbox-profiled
    :meth:`PlacementManager.evaluate_candidate` remains the
    high-fidelity path for confirmed-interference mitigation.
    """
    if pressure.shape != capacity.shape:
        raise ValueError("pressure and capacity must have matching shapes")
    util = pressure / np.maximum(capacity, 1e-12)
    degradation = np.maximum(0.0, 1.0 - 1.0 / np.maximum(util, 1e-12))
    # The worst resource, one column at a time: a row-wise
    # ``max(axis=1)`` over a handful of columns costs several times more.
    return functools.reduce(np.maximum, degradation.T)


@dataclass
class CandidateEvaluation:
    """Predicted outcome of migrating the VM to one candidate host."""

    host_name: str
    #: Average degradation the candidate's resident VMs would suffer.
    predicted_background_degradation: float
    #: Degradation the migrated (synthetic) VM itself would suffer.
    predicted_vm_degradation: float
    #: Combined score used for ranking (lower is better).
    score: float


@dataclass
class PlacementDecision:
    """The placement manager's final recommendation."""

    vm_name: str
    source_host: str
    destination: Optional[str]
    evaluations: List[CandidateEvaluation]
    #: True when no candidate met the acceptable-degradation bound.
    no_acceptable_destination: bool = False

    def best(self) -> Optional[CandidateEvaluation]:
        if not self.evaluations:
            return None
        return min(self.evaluations, key=lambda e: e.score)


class PlacementManager:
    """Synthetic-benchmark-driven destination selection and migration."""

    def __init__(
        self,
        sandbox: SandboxEnvironment,
        synthesizer: Optional[TrainedSynthesizer] = None,
        config: Optional[DeepDiveConfig] = None,
    ) -> None:
        self.sandbox = sandbox
        self.synthesizer = synthesizer
        self.config = config or DeepDiveConfig()
        self.decisions: List[PlacementDecision] = []

    # ------------------------------------------------------------------
    # Victim / aggressor selection
    # ------------------------------------------------------------------
    def select_aggressor(
        self,
        host: Host,
        culprit: Resource,
        exclude: Sequence[str] = (),
    ) -> Optional[str]:
        """The VM using the culprit resource most aggressively on ``host``.

        ``exclude`` removes VMs from consideration (typically the victim
        whose interference triggered the analysis, when the operator's
        policy is to move the aggressor rather than the victim).
        """
        counter_name = _AGGRESSIVENESS_COUNTER[culprit]
        best_vm: Optional[str] = None
        best_value = -1.0
        for vm_name in host.vm_names():
            if vm_name in exclude:
                continue
            sample = host.latest_counters(vm_name)
            if sample is None:
                continue
            value = sample[counter_name]
            if value > best_value:
                best_value = value
                best_vm = vm_name
        return best_vm

    # ------------------------------------------------------------------
    # Synthetic representation
    # ------------------------------------------------------------------
    def synthetic_representation(
        self,
        vm: VirtualMachine,
        recent_samples: Sequence[CounterSample],
    ) -> VirtualMachine:
        """A VM running the synthetic benchmark that mimics ``vm``.

        Requires a trained synthesizer; when none is available the
        manager falls back to cloning the VM itself (correct but more
        expensive, and used in tests that do not train a synthesizer).
        """
        if self.synthesizer is None:
            return vm.clone(f"{vm.name}-proxyclone")
        aggregate = aggregate_samples(recent_samples)
        target = MetricVector.from_sample(aggregate, label=vm.app_id)
        target_rate = aggregate.inst_retired / max(aggregate.epoch_seconds, 1e-9)
        benchmark: SyntheticBenchmark = self.synthesizer.synthesize(
            target, target_inst_rate=target_rate
        )
        return VirtualMachine(
            name=f"{vm.name}-synthetic",
            workload=benchmark,
            vcpus=vm.vcpus,
            memory_gb=min(vm.memory_gb, 1.0),
            app_id=f"synthetic:{vm.app_id}",
        )

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def evaluate_candidate(
        self,
        candidate: Host,
        probe_vm: VirtualMachine,
        eval_epochs: Optional[int] = None,
    ) -> CandidateEvaluation:
        """Predict the interference of placing ``probe_vm`` on ``candidate``.

        The probe (the synthetic representation) runs in the sandbox
        co-located with clones of the candidate's resident VMs at their
        current loads; the resulting degradations are measured against
        isolation baselines obtained the same way.
        """
        epochs = eval_epochs or self.config.placement_eval_epochs
        background: Dict[VirtualMachine, float] = {}
        for vm_name, vm in candidate.vms.items():
            background[vm] = candidate.get_load(vm_name)

        # Isolation baselines: each background VM alone, and the probe alone.
        background_baselines: Dict[str, float] = {}
        for vm, load in background.items():
            solo = self.sandbox.profile(
                vm, loads=[load] * epochs, profile_epochs=epochs
            )
            background_baselines[vm.name] = solo.counters.inst_retired / max(
                solo.counters.epoch_seconds, 1e-9
            )
        probe_solo = self.sandbox.profile(
            probe_vm, loads=[1.0] * epochs, profile_epochs=epochs
        )
        probe_baseline_rate = probe_solo.counters.inst_retired / max(
            probe_solo.counters.epoch_seconds, 1e-9
        )

        # Co-located run: probe + all background VMs on one sandbox host.
        host = self.sandbox.hosts[0]
        probe_clone = probe_vm.clone(f"{probe_vm.name}-eval-{candidate.name}")
        host.add_vm(probe_clone, load=1.0)
        bg_clones: Dict[str, Tuple[VirtualMachine, str]] = {}
        for vm, load in background.items():
            clone = vm.clone(f"{vm.name}-eval-{candidate.name}")
            host.add_vm(clone, load=load)
            bg_clones[vm.name] = (clone, vm.name)

        probe_samples: List[CounterSample] = []
        bg_samples: Dict[str, List[CounterSample]] = {name: [] for name in bg_clones}
        try:
            for _ in range(epochs):
                results = host.step()
                probe_samples.append(results[probe_clone.name].counters)
                for original_name, (clone, _) in bg_clones.items():
                    bg_samples[original_name].append(results[clone.name].counters)
        finally:
            for name in list(host.vms):
                host.remove_vm(name)

        # Degradations relative to the isolation baselines.
        bg_degradations: List[float] = []
        for original_name, samples in bg_samples.items():
            agg = aggregate_samples(samples)
            rate = agg.inst_retired / max(agg.epoch_seconds, 1e-9)
            baseline = background_baselines[original_name]
            if baseline > 0:
                bg_degradations.append(max(0.0, 1.0 - rate / baseline))
        probe_agg = aggregate_samples(probe_samples)
        probe_rate = probe_agg.inst_retired / max(probe_agg.epoch_seconds, 1e-9)
        probe_degradation = (
            max(0.0, 1.0 - probe_rate / probe_baseline_rate)
            if probe_baseline_rate > 0
            else 0.0
        )
        background_degradation = (
            float(np.mean(bg_degradations)) if bg_degradations else 0.0
        )

        score = max(background_degradation, probe_degradation)
        return CandidateEvaluation(
            host_name=candidate.name,
            predicted_background_degradation=background_degradation,
            predicted_vm_degradation=probe_degradation,
            score=score,
        )

    # ------------------------------------------------------------------
    # Full decision
    # ------------------------------------------------------------------
    def decide(
        self,
        vm: VirtualMachine,
        source_host: str,
        candidates: Mapping[str, Host],
        recent_samples: Sequence[CounterSample],
        eval_epochs: Optional[int] = None,
    ) -> PlacementDecision:
        """Pick the destination PM with the least predicted interference."""
        probe = self.synthetic_representation(vm, recent_samples)
        evaluations: List[CandidateEvaluation] = []
        for name, host in candidates.items():
            if name == source_host:
                continue
            if not host.can_fit(vm):
                continue
            evaluations.append(
                self.evaluate_candidate(host, probe, eval_epochs=eval_epochs)
            )
        evaluations.sort(key=lambda e: e.score)
        destination: Optional[str] = None
        no_acceptable = True
        if evaluations:
            best = evaluations[0]
            destination = best.host_name
            no_acceptable = best.score > self.config.placement_acceptable_degradation
        decision = PlacementDecision(
            vm_name=vm.name,
            source_host=source_host,
            destination=destination,
            evaluations=evaluations,
            no_acceptable_destination=no_acceptable,
        )
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    def resolve_interference(
        self,
        cluster: Cluster,
        analysis: AnalysisResult,
        victim_host: str,
        prefer_aggressor: bool = True,
        eval_epochs: Optional[int] = None,
    ) -> Optional[PlacementDecision]:
        """End-to-end mitigation: pick a VM, vet destinations, migrate.

        Returns the decision, or None when no VM could be selected.  The
        migration is only executed when an acceptable destination exists.
        """
        host = cluster.get_host(victim_host)
        target_vm_name: Optional[str]
        if prefer_aggressor and analysis.culprit is not None:
            target_vm_name = self.select_aggressor(
                host, analysis.culprit, exclude=[]
            )
        else:
            target_vm_name = analysis.vm_name
        if target_vm_name is None or not host.has_vm(target_vm_name):
            return None
        vm = host.get_vm(target_vm_name)
        samples = host.counter_history.get(target_vm_name, [])
        recent = samples[-self.config.profile_epochs:] if samples else []
        if not recent:
            recent = [CounterSample.zeros()]
        candidates = {
            name: h
            for name, h in cluster.hosts.items()
            if name != victim_host and name not in cluster.drained_hosts
        }
        decision = self.decide(
            vm,
            source_host=victim_host,
            candidates=candidates,
            recent_samples=recent,
            eval_epochs=eval_epochs,
        )
        if decision.destination is not None and not decision.no_acceptable_destination:
            cluster.migrate_vm(target_vm_name, decision.destination)
        return decision
