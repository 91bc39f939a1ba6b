"""The per-VM epoch paths the production batch paths are checked against.

The library runs one epoch path: ``Cluster.step`` resolves every host of
a cluster at once through the vectorized substrate, and
``DeepDive.run_epoch`` evaluates every VM's warning in one batch per
application.  These are the per-VM forms they replaced, kept unchanged
in what they compute as the equivalence suites' and benchmarks'
reference:

* :func:`reference_decisions` — the per-VM monitoring loop: each VM's
  smoothed vector against its application's clusters and its siblings'
  newest vectors, one ``WarningSystem.evaluate`` call per VM;
* :func:`scalar_step` — the host-by-host cluster step: each host through
  the per-VM contention model (``Host.simulate``), every host's counter
  rows into the cluster's ring in one write; :func:`use_scalar_substrate`
  rebinds a cluster's (or a serial fleet's clusters') ``step`` to it;
* :func:`run_epoch_batch` — one machine's epoch through the batch
  substrate, the machine-level counterpart of ``PhysicalMachine.run_epoch``.
"""

import functools
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np
from counter_reference import reference_windows

from repro.core.warning import ACTIONS, DecisionColumns, WarningDecision, WarningSystem
from repro.hardware.batch import (
    N_COUNTERS,
    ClusterLayout,
    DemandMatrix,
    simulate_epoch_batch,
)
from repro.hardware.machine import EpochResult, outcome_from_batch
from repro.metrics.normalization import aggregate_samples
from repro.metrics.sample import MetricVector
from repro.metrics.store import sample_row
from repro.virt.cluster import Cluster


# ----------------------------------------------------------------------
# Monitor reference
# ----------------------------------------------------------------------
def reference_decisions(deepdive) -> DecisionColumns:
    """The per-VM loop's decisions for the epoch the cluster just stepped.

    Read against ``deepdive``'s repository as it stands, so taken before
    ``run_epoch`` it sees the same frozen repository as the epoch's
    evaluation phase.  It changes nothing (a fresh ``WarningSystem``
    over the same repository keeps the evaluation counts out of it).
    """
    config = deepdive.config
    warning_system = WarningSystem(deepdive.repository, config)
    placement = deepdive.cluster.all_vms()
    windows = reference_windows(deepdive.cluster, config.smoothing_epochs)
    latest_samples = {vm_name: window[-1] for vm_name, window in windows.items()}
    eligible = [
        vm_name
        for vm_name in placement
        if vm_name in latest_samples and latest_samples[vm_name].inst_retired >= 1e3
    ]
    latest_vectors: Dict[str, MetricVector] = {
        vm_name: MetricVector.from_sample(
            latest_samples[vm_name], label=placement[vm_name][1].app_id
        )
        for vm_name in placement
        if vm_name in latest_samples
    }
    decisions: List[WarningDecision] = []
    for vm_name in eligible:
        host_name, vm = placement[vm_name]
        aggregate = aggregate_samples(
            windows[vm_name],
            context=f"VM {vm_name!r} smoothing window on host {host_name!r}",
        )
        siblings = {
            other: latest_vectors[other]
            for other, (_, other_vm) in placement.items()
            if other != vm_name
            and other_vm.app_id == vm.app_id
            and other in latest_vectors
        }
        decisions.append(
            warning_system.evaluate(
                vm_name=vm_name,
                app_id=vm.app_id,
                vector=MetricVector.from_sample(aggregate, label=vm.app_id),
                sibling_vectors=siblings,
            )
        )
    return columns_from_decisions(decisions)


def columns_from_decisions(decisions: Sequence[WarningDecision]) -> DecisionColumns:
    """Columns holding already materialised decisions, in order."""
    out = DecisionColumns.allocate(
        tuple(d.vm_name for d in decisions), tuple(d.app_id for d in decisions)
    )
    for i, d in enumerate(decisions):
        out.action_codes[i] = ACTIONS.index(d.action)
        out.distances[i] = d.distance
        out.conservative[i] = d.conservative
        out.siblings_consulted[i] = d.siblings_consulted
        out.siblings_agreeing[i] = d.siblings_agreeing
        if d.violated_dimensions:
            out.violated[i] = d.violated_dimensions
    return out


def assert_same_decisions(got: DecisionColumns, want: DecisionColumns) -> None:
    """Same rows in the same order, each decision equal field for field
    (exact distances included)."""
    assert got.vm_names == want.vm_names
    assert list(got.items()) == list(want.items())


# ----------------------------------------------------------------------
# Substrate reference
# ----------------------------------------------------------------------
def scalar_step(cluster: Cluster, loads: Optional[Mapping[str, float]] = None):
    """``Cluster.step`` host by host through the per-VM contention model;
    every host's counter rows go into the ring in one write."""
    per_host_loads: Dict[str, Dict[str, float]] = {}
    if loads:
        placement = cluster._placement()
        for vm_name, load in loads.items():
            if vm_name not in placement:
                raise KeyError(f"VM {vm_name!r} not placed in the cluster")
            per_host_loads.setdefault(placement[vm_name][0], {})[vm_name] = load
    tables = cluster._ring_tables()
    results = {}
    rows: List[np.ndarray] = []
    epoch_seconds: List[float] = []
    for host_name, host in cluster.hosts.items():
        outcomes, offered = host.simulate(per_host_loads.get(host_name))
        rows.extend(sample_row(outcomes[name].counters) for name in host._vms)
        epoch_seconds.append(host.epoch_seconds)
        results[host_name] = host.record_performance(outcomes, offered)
        host.current_epoch += 1
    cluster._ring.write(
        tables.slots,
        np.reshape(rows, (-1, N_COUNTERS)),
        np.repeat(epoch_seconds, tables.counts),
    )
    cluster._written = tables
    cluster._ring.advance()
    cluster.current_epoch += 1
    return results


def use_scalar_substrate(target):
    """Step ``target`` — a cluster, or every shard cluster of a serial
    fleet — through :func:`scalar_step` from now on; returns ``target``.

    The rebinding lives on the cluster objects in this process, so a
    process fleet's workers would never see it.
    """
    if isinstance(target, Cluster):
        clusters = [target]
    else:
        if target.executor == "process":
            raise ValueError("the scalar substrate reference runs serial fleets only")
        clusters = [shard.cluster for shard in target.shards.values()]
    for cluster in clusters:
        cluster.step = functools.partial(scalar_step, cluster)
    return target


# ----------------------------------------------------------------------
# Machine reference
# ----------------------------------------------------------------------
def run_epoch_batch(
    machine,
    demands,
    epoch_seconds: float = 1.0,
    core_assignment=None,
    cpu_caps=None,
) -> EpochResult:
    """``machine.run_epoch`` through the vectorized batch substrate.

    Produces the same :class:`EpochResult` (including the machine's
    noise-generator consumption) with array operations instead of the
    per-VM dance; the per-resource sub-model outcomes on each
    ``VMEpochOutcome`` are not materialised (``None``).
    """
    if epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive")
    for demand in demands.values():
        demand.validate()
    if not demands:
        return EpochResult(per_vm={}, epoch_seconds=epoch_seconds)
    names = list(demands)
    plan = machine.batch_plan_for_vcpus(
        {name: demand.vcpus for name, demand in demands.items()},
        core_assignment=core_assignment,
    )
    layout = ClusterLayout.assemble([plan], machine.spec.architecture.cache_domains)
    caps = np.asarray([(cpu_caps or {}).get(name, 1.0) for name in names], dtype=float)
    batch = simulate_epoch_batch(
        machine.spec,
        DemandMatrix.from_demands([demands[name] for name in names]),
        layout,
        epoch_seconds,
        caps,
        noise_rngs=[(machine.noise, machine._rng)],
    )
    return EpochResult(
        per_vm={name: outcome_from_batch(batch, i) for i, name in enumerate(names)},
        epoch_seconds=epoch_seconds,
        bus_utilization=float(batch.host_bus_utilization[0]),
    )
