"""Tests for the sandboxed profiling environment."""

import pytest

from repro.virt.proxy import RequestProxy
from repro.virt.sandbox import SandboxEnvironment
from repro.workloads.stress import MemoryStressWorkload
from repro.virt.vm import VirtualMachine


@pytest.fixture
def sandbox():
    return SandboxEnvironment(num_hosts=2, profile_epochs=5, seed=11, noise=0.0)


class TestSandboxEnvironment:
    def test_requires_at_least_one_host(self):
        with pytest.raises(ValueError):
            SandboxEnvironment(num_hosts=0)

    def test_profile_with_explicit_loads(self, sandbox, data_serving_vm):
        run = sandbox.profile(data_serving_vm, loads=[0.5] * 5)
        assert run.vm_name == data_serving_vm.name
        assert len(run.epoch_counters) == 5
        assert run.counters.inst_retired > 0
        assert run.clone_seconds > 0
        assert run.run_seconds == pytest.approx(5 * sandbox.epoch_seconds)
        assert run.total_seconds == pytest.approx(run.clone_seconds + run.run_seconds)

    def test_profile_with_proxy(self, sandbox, data_serving_vm):
        proxy = RequestProxy(data_serving_vm.name)
        proxy.observe(0.6)
        run = sandbox.profile(data_serving_vm, proxy=proxy)
        assert run.replayed_loads[0] == pytest.approx(0.6)
        assert len(run.replayed_loads) == sandbox.profile_epochs

    def test_profile_default_load(self, sandbox, data_serving_vm):
        run = sandbox.profile(data_serving_vm)
        assert all(load == pytest.approx(1.0) for load in run.replayed_loads)

    def test_sandbox_hosts_left_clean(self, sandbox, data_serving_vm):
        sandbox.profile(data_serving_vm, loads=[0.5] * 3, profile_epochs=3)
        for host in sandbox.hosts:
            assert host.vms == {}

    def test_profiling_time_accounted(self, sandbox, data_serving_vm):
        before = sandbox.total_profiling_seconds
        run = sandbox.profile(data_serving_vm, loads=[0.5] * 3, profile_epochs=3)
        assert sandbox.total_profiling_seconds == pytest.approx(
            before + run.total_seconds
        )
        assert sandbox.runs_completed == 1

    def test_round_robin_across_hosts(self, data_serving_vm):
        # Each run draws its noise from the host it ran on: the hosts'
        # generators advance one at a time, alternately.
        sandbox = SandboxEnvironment(num_hosts=2, profile_epochs=5, seed=11)

        def states():
            return [repr(h.machine._rng.bit_generator.state) for h in sandbox.hosts]

        seen = [states()]
        for _ in range(4):
            sandbox.profile(data_serving_vm, loads=[0.5], profile_epochs=1)
            seen.append(states())
        for run, (before, after) in enumerate(zip(seen, seen[1:])):
            moved = [i for i in range(2) if before[i] != after[i]]
            assert moved == [run % 2]

    def test_profile_colocated_measures_interference(self, sandbox, data_serving_vm):
        solo = sandbox.profile(data_serving_vm, loads=[1.1] * 5)
        stress = VirtualMachine(
            "bg-stress",
            MemoryStressWorkload(working_set_mb=256.0),
            vcpus=2,
            memory_gb=1.0,
        )
        colocated = sandbox.profile_colocated(
            data_serving_vm, background={stress: 1.0}, loads=[1.1] * 5
        )
        solo_rate = solo.counters.inst_retired / solo.counters.epoch_seconds
        colo_rate = colocated.counters.inst_retired / colocated.counters.epoch_seconds
        assert colo_rate < solo_rate

    def test_profile_colocated_requires_loads(self, sandbox, data_serving_vm):
        with pytest.raises(ValueError):
            sandbox.profile_colocated(data_serving_vm, background={}, loads=[])

    def test_non_work_conserving_cap(self, sandbox, data_serving_vm):
        capped = sandbox.profile(data_serving_vm, loads=[1.1] * 5, cpu_cap=0.3)
        uncapped = sandbox.profile(data_serving_vm, loads=[1.1] * 5, cpu_cap=1.0)
        assert capped.counters.inst_retired < uncapped.counters.inst_retired
