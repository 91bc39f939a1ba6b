"""The sandbox's replay primitive against the host-stepping reference.

Every sandbox run resolves each distinct co-location once and draws the
window's noise in one epoch-major block; ``tests/sandbox_reference.py``
steps a sandbox host epoch by epoch instead.  Two sandboxes built alike,
one driven each way, must agree bit for bit: per-epoch counters and
aggregates, every candidate evaluation and destination, the clone and
run accounting, and each host's noise-generator state afterwards.  The
sandbox hosts of the replaying side must keep nothing.
"""

import pickle

import numpy as np
import pytest

import sandbox_reference as reference
from repro.core.config import DeepDiveConfig
from repro.core.placement import PlacementManager
from repro.metrics.counters import COUNTER_NAMES, CounterSample
from repro.virt.proxy import RequestProxy
from repro.virt.sandbox import SandboxEnvironment
from repro.virt.vm import VirtualMachine
from repro.virt.vmm import Host
from repro.workloads.cloud import (
    DataAnalyticsWorkload,
    DataServingWorkload,
    WebSearchWorkload,
)
from repro.workloads.stress import (
    DiskStressWorkload,
    MemoryStressWorkload,
    NetworkStressWorkload,
)

CONFIG = DeepDiveConfig(profile_epochs=4, placement_eval_epochs=3)


def _vm(name, workload, vcpus=2):
    return VirtualMachine(name, workload, vcpus=vcpus, memory_gb=1.0)


def _sandboxes(noise, num_hosts):
    def build():
        return SandboxEnvironment(
            num_hosts=num_hosts, profile_epochs=4, noise=noise, seed=21
        )

    return build(), build()


def _bits(samples):
    rows = [[getattr(s, c) for c in COUNTER_NAMES] + [s.epoch_seconds] for s in samples]
    return np.asarray(rows, dtype=float).view(np.uint64)


def _f(value):
    return np.float64(value).tobytes()


def _assert_runs_equal(got, want):
    assert (got.vm_name, got.clone_name) == (want.vm_name, want.clone_name)
    assert got.replayed_loads == want.replayed_loads
    assert _f(got.clone_seconds) == _f(want.clone_seconds)
    assert _f(got.run_seconds) == _f(want.run_seconds)
    np.testing.assert_array_equal(_bits(got.epoch_counters), _bits(want.epoch_counters))
    np.testing.assert_array_equal(_bits([got.counters]), _bits([want.counters]))


def _assert_sandboxes_equal(got, want):
    for a, b in zip(got.hosts, want.hosts):
        assert a.machine._rng.bit_generator.state == b.machine._rng.bit_generator.state
    assert got._next_host == want._next_host
    assert got.runs_completed == want.runs_completed
    assert _f(got.total_profiling_seconds) == _f(want.total_profiling_seconds)
    assert got.clone_manager.clones_created == want.clone_manager.clones_created
    assert _f(got.clone_manager.total_clone_seconds) == _f(
        want.clone_manager.total_clone_seconds
    )


def _assert_evaluations_equal(got, want):
    assert got.host_name == want.host_name
    for field in (
        "predicted_background_degradation",
        "predicted_vm_degradation",
        "score",
    ):
        assert _f(getattr(got, field)) == _f(getattr(want, field)), field


def _assert_decisions_equal(got, want):
    assert (got.vm_name, got.source_host, got.destination) == (
        want.vm_name,
        want.source_host,
        want.destination,
    )
    assert got.no_acceptable_destination == want.no_acceptable_destination
    assert len(got.evaluations) == len(want.evaluations)
    for a, b in zip(got.evaluations, want.evaluations):
        _assert_evaluations_equal(a, b)


def _assert_hosts_empty(sandbox):
    for host in sandbox.hosts:
        assert host.vms == {}
        assert not host.counter_history
        assert not host.performance_history
        assert host.current_epoch == 0


def _candidates():
    """A source host and candidates: mixed tenants, an idle VM (zero
    instruction demand), an empty host and one the VM does not fit on."""
    source = Host(name="pm0", noise=0.0)
    source.add_vm(_vm("victim", DataServingWorkload()), load=0.8)

    mixed = Host(name="pm1", noise=0.0)
    mixed.add_vm(_vm("ds1", DataServingWorkload()), load=0.7)
    mixed.add_vm(_vm("idle1", WebSearchWorkload(), vcpus=1), load=0.0)
    mixed.add_vm(_vm("net1", NetworkStressWorkload(), vcpus=1), load=0.6)

    stressed = Host(name="pm2", noise=0.0)
    stressed.add_vm(_vm("mem2", MemoryStressWorkload(working_set_mb=256.0)), load=1.0)
    stressed.add_vm(_vm("disk2", DiskStressWorkload(), vcpus=1), load=0.5)

    empty = Host(name="pm3", noise=0.0)

    full = Host(name="pm4", noise=0.0)
    for i in range(4):
        full.add_vm(_vm(f"an{i}", DataAnalyticsWorkload()), load=0.5)

    hosts = [source, mixed, stressed, empty, full]
    return {h.name: h for h in hosts}


GRID = pytest.mark.parametrize(
    "noise,num_hosts", [(0.0, 1), (0.0, 2), (0.005, 1), (0.005, 2)]
)


@GRID
def test_profile_matches_stepping(noise, num_hosts):
    new, ref = _sandboxes(noise, num_hosts)
    ds = _vm("ds", DataServingWorkload())
    idle = _vm("idle", WebSearchWorkload(), vcpus=1)
    proxy = RequestProxy("ds")
    proxy.observe(0.6)
    calls = [
        (ds, dict(loads=[0.3, 0.9, 0.0, 0.9, 1.2], profile_epochs=5)),
        (ds, dict(loads=[0.5, 0.7], cpu_cap=0.4)),
        (ds, dict(proxy=proxy)),
        (idle, dict(loads=[0.0] * 3, profile_epochs=3)),
        (ds, dict(loads=[1.1] * 6, profile_epochs=2)),
        (idle, dict()),
    ]
    for vm, kwargs in calls:
        _assert_runs_equal(
            new.profile(vm, **kwargs), reference.profile(ref, vm, **kwargs)
        )
        _assert_sandboxes_equal(new, ref)
    _assert_hosts_empty(new)


@GRID
def test_profile_colocated_matches_stepping(noise, num_hosts):
    new, ref = _sandboxes(noise, num_hosts)
    ds = _vm("ds", DataServingWorkload())
    background = {
        _vm("mem", MemoryStressWorkload(working_set_mb=256.0)): 1.0,
        _vm("idle", WebSearchWorkload(), vcpus=1): 0.0,
        _vm("disk", DiskStressWorkload(), vcpus=1): 0.4,
    }
    for loads, cap in (([1.1, 0.5, 1.1, 0.0], 1.0), ([0.8] * 3, 0.5)):
        _assert_runs_equal(
            new.profile_colocated(ds, background, loads, cpu_cap=cap),
            reference.profile_colocated(ref, ds, background, loads, cpu_cap=cap),
        )
        _assert_sandboxes_equal(new, ref)
    _assert_hosts_empty(new)


@GRID
def test_placement_matches_stepping(noise, num_hosts):
    """Analyzer profiles interleaved with decisions and a direct
    candidate evaluation, on one sandbox per side."""
    new_sandbox, ref_sandbox = _sandboxes(noise, num_hosts)
    new = PlacementManager(new_sandbox, config=CONFIG)
    ref = PlacementManager(ref_sandbox, config=CONFIG)
    candidates = _candidates()
    victim = candidates["pm0"].get_vm("victim")
    recent = [CounterSample.zeros()]
    loads = [0.4, 0.9, 0.9, 0.0]

    for epochs in (None, 2):
        _assert_runs_equal(
            new_sandbox.profile(victim, loads=loads),
            reference.profile(ref_sandbox, victim, loads=loads),
        )
        _assert_decisions_equal(
            new.decide(victim, "pm0", candidates, recent, eval_epochs=epochs),
            reference.decide(
                ref, victim, "pm0", candidates, recent, eval_epochs=epochs
            ),
        )
        _assert_sandboxes_equal(new_sandbox, ref_sandbox)

    probe = _vm("probe", MemoryStressWorkload(working_set_mb=64.0))
    got = new.evaluate_candidate(candidates["pm1"], probe)
    want = reference.evaluate_candidate(ref, candidates["pm1"], probe)
    _assert_evaluations_equal(got, want)
    _assert_sandboxes_equal(new_sandbox, ref_sandbox)
    assert len(new.decisions) == len(ref.decisions) == 2
    assert new._probe_isolation is None
    _assert_hosts_empty(new_sandbox)


def _used_sandbox(profiles, decisions):
    sandbox = SandboxEnvironment(num_hosts=2, profile_epochs=3, noise=0.005, seed=5)
    manager = PlacementManager(sandbox, config=CONFIG)
    candidates = _candidates()
    victim = candidates["pm0"].get_vm("victim")
    for _ in range(profiles):
        sandbox.profile(victim, loads=[0.5, 0.8, 0.2])
    for _ in range(decisions):
        manager.decide(victim, "pm0", candidates, [CounterSample.zeros()])
    return sandbox


def test_sandbox_keeps_nothing():
    """However much a sandbox profiles and vets, its hosts hold no
    history and it pickles to the same size.  (Sizes may differ by the
    few bytes the pickled integers and generator states take at their
    magnitude; stepped hosts grew by kilobytes per run.)"""
    sizes = {}
    for profiles, decisions in ((1, 1), (8, 1), (1, 5), (8, 5)):
        sandbox = _used_sandbox(profiles, decisions)
        _assert_hosts_empty(sandbox)
        sizes[profiles, decisions] = len(pickle.dumps(sandbox))
    assert max(sizes.values()) - min(sizes.values()) <= 32, sizes
