"""Tests for the host / hypervisor model."""

import pytest

from repro.virt.vm import VirtualMachine
from repro.virt.vmm import Host
from repro.workloads.cloud import DataServingWorkload
from repro.workloads.stress import MemoryStressWorkload


class TestHostPlacement:
    def test_add_and_remove_vm(self, host, data_serving_vm):
        host.add_vm(data_serving_vm, load=0.5)
        assert host.has_vm(data_serving_vm.name)
        assert host.vm_names() == [data_serving_vm.name]
        removed = host.remove_vm(data_serving_vm.name)
        assert removed is data_serving_vm
        assert not host.has_vm(data_serving_vm.name)

    def test_duplicate_placement_rejected(self, host, data_serving_vm):
        host.add_vm(data_serving_vm)
        with pytest.raises(ValueError):
            host.add_vm(data_serving_vm)

    def test_remove_unknown_vm(self, host):
        with pytest.raises(KeyError):
            host.remove_vm("ghost")

    def test_invalid_cpu_cap(self, host, data_serving_vm):
        with pytest.raises(ValueError):
            host.add_vm(data_serving_vm, cpu_cap=0.0)

    def test_set_load_unknown_vm(self, host):
        with pytest.raises(KeyError):
            host.set_load("ghost", 0.5)

    def test_can_fit_respects_memory_and_cores(self, host):
        big = VirtualMachine("big", DataServingWorkload(), vcpus=4, memory_gb=6.0)
        host.add_vm(big)
        another = VirtualMachine("big2", DataServingWorkload(), vcpus=4, memory_gb=6.0)
        assert not host.can_fit(another)
        small = VirtualMachine("small", DataServingWorkload(), vcpus=2, memory_gb=1.0)
        assert host.can_fit(small)

    def test_colocated_with(self, host, data_serving_vm, stress_vm):
        host.add_vm(data_serving_vm)
        host.add_vm(stress_vm)
        assert host.colocated_with(data_serving_vm.name) == [stress_vm.name]


class TestHostStep:
    def test_step_produces_counters_and_reports(self, host, data_serving_vm):
        host.add_vm(data_serving_vm, load=0.5)
        results = host.step()
        perf = results[data_serving_vm.name]
        assert perf.counters.inst_retired > 0
        assert perf.report.throughput > 0
        assert host.latest_counters(data_serving_vm.name) == perf.counters
        assert host.latest_performance(data_serving_vm.name) is perf
        assert host.current_epoch == 1

    def test_latest_counters_before_first_step(self, host, data_serving_vm):
        host.add_vm(data_serving_vm)
        assert host.latest_counters(data_serving_vm.name) is None

    def test_load_override_per_step(self, host, data_serving_vm):
        host.add_vm(data_serving_vm, load=0.2)
        low = host.step()[data_serving_vm.name]
        high = host.step({data_serving_vm.name: 0.9})[data_serving_vm.name]
        assert high.counters.inst_retired > low.counters.inst_retired * 2

    def test_history_accumulates(self, host, data_serving_vm):
        host.add_vm(data_serving_vm, load=0.5)
        for _ in range(4):
            host.step()
        assert len(host.counter_history[data_serving_vm.name]) == 4
        assert len(host.performance_history[data_serving_vm.name]) == 4

    def test_colocated_stress_degrades_performance(self, host, data_serving_vm):
        host.add_vm(data_serving_vm, load=1.1, cores=[0, 1])
        baseline = host.step()[data_serving_vm.name]
        stress = VirtualMachine(
            "stress", MemoryStressWorkload(working_set_mb=256.0), vcpus=2, memory_gb=1.0
        )
        host.add_vm(stress, load=1.0, cores=[2, 3])
        degraded = host.step()[data_serving_vm.name]
        assert degraded.counters.inst_retired < baseline.counters.inst_retired
        assert degraded.report.latency_ms >= baseline.report.latency_ms

    def test_cpu_cap_enforced(self, host, data_serving_vm):
        host.add_vm(data_serving_vm, load=1.1, cpu_cap=1.0)
        full = host.step()[data_serving_vm.name]
        host.set_cpu_cap(data_serving_vm.name, 0.4)
        capped = host.step()[data_serving_vm.name]
        assert capped.counters.inst_retired < full.counters.inst_retired

    def test_cpu_cap_of_a_vm_not_on_the_host_is_rejected(self, host, data_serving_vm):
        host.add_vm(data_serving_vm)
        version = host.placement_version
        with pytest.raises(KeyError):
            host.set_cpu_cap("ghost", 0.5)
        # No stray cap and no phantom placement change.
        assert host.cpu_cap_values() == [1.0]
        assert "ghost" not in host._cpu_caps
        assert host.placement_version == version

    def test_utilization_summary(self, host, data_serving_vm, stress_vm):
        host.add_vm(data_serving_vm)
        host.add_vm(stress_vm)
        summary = host.utilization_summary()
        assert summary["vcpus_used"] == data_serving_vm.vcpus + stress_vm.vcpus
        assert summary["memory_used_gb"] == pytest.approx(
            data_serving_vm.memory_gb + stress_vm.memory_gb
        )


class TestDemandRowsAfterPlacementChange:
    """After a placement change with no load change, the VMs that stayed
    keep their packed demand rows and only arrivals are generated; the
    rows must equal a fresh host's with the same VMs and loads."""

    @staticmethod
    def _host(vms):
        host = Host(name="pm", substrate="batch", cache_demands=True, seed=1)
        for vm, load in vms:
            host.add_vm(vm, load=load)
        host.collect_demand_rows()
        return host

    @staticmethod
    def _vm(name, seed, stress=False):
        workload = MemoryStressWorkload() if stress else DataServingWorkload(seed=seed)
        return VirtualMachine(name, workload)

    def test_staying_rows_reused_arrivals_generated(self):
        a, b = self._vm("a", 1), self._vm("b", 2, stress=True)
        host = self._host([(a, 0.4), (b, 0.7)])
        c = self._vm("c", 3)
        host.remove_vm("a")
        host.add_vm(c, load=0.5)
        before = host.demand_row_matrix()
        host.collect_demand_rows()
        assert host.demands_changed
        rows = host.demand_row_matrix()
        assert rows is not before
        fresh = self._host([(b, 0.7), (c, 0.5)])
        assert rows.tobytes() == fresh.demand_row_matrix().tobytes()

    def test_a_new_vm_under_a_departed_name_is_generated(self):
        """Rows follow VM identity, not names: a different VM that
        takes a departed VM's name gets its own demand."""
        host = self._host([(self._vm("a", 1), 0.4), (self._vm("b", 2), 0.6)])
        host.remove_vm("a")
        replacement = self._vm("a", 9, stress=True)
        host.add_vm(replacement, load=0.4)
        host.collect_demand_rows()
        fresh = self._host([(host.get_vm("b"), 0.6), (replacement, 0.4)])
        assert host.demand_row_matrix().tobytes() == fresh.demand_row_matrix().tobytes()

    def test_the_same_vm_re_added_at_another_load_is_generated(self):
        """A VM removed and placed back before the next epoch at a new
        load (no set_load) gets the demand of its new load."""
        a, b = self._vm("a", 1), self._vm("b", 2)
        host = self._host([(a, 0.4), (b, 0.6)])
        host.remove_vm("a")
        host.add_vm(a, load=0.9)
        host.collect_demand_rows()
        fresh = self._host([(b, 0.6), (a, 0.9)])
        assert host.demand_row_matrix().tobytes() == fresh.demand_row_matrix().tobytes()

    def test_arrivals_on_an_emptied_host_are_generated(self):
        a = self._vm("a", 1)
        host = self._host([(a, 0.4)])
        host.remove_vm("a")
        host.collect_demand_rows()
        assert host.demand_row_matrix().shape[0] == 0
        b = self._vm("b", 2)
        host.add_vm(b, load=0.6)
        host.add_vm(a, load=0.4)
        host.collect_demand_rows()
        fresh = self._host([(b, 0.6), (a, 0.4)])
        assert host.demand_row_matrix().tobytes() == fresh.demand_row_matrix().tobytes()

    def test_a_load_change_regenerates_every_row(self):
        a, b = self._vm("a", 1), self._vm("b", 2)
        host = self._host([(a, 0.4), (b, 0.6)])
        host.set_load("a", 0.9)
        host.add_vm(self._vm("c", 3), load=0.2)
        host.collect_demand_rows()
        fresh = self._host([(a, 0.9), (b, 0.6), (host.get_vm("c"), 0.2)])
        assert host.demand_row_matrix().tobytes() == fresh.demand_row_matrix().tobytes()
