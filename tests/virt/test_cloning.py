"""Tests for VM cloning and its cost accounting."""

import itertools
import pickle

import pytest

from repro.virt.cloning import CloneManager
from repro.virt.sandbox import SandboxEnvironment


class TestCloneManager:
    def test_clone_creates_distinct_vm(self, data_serving_vm):
        manager = CloneManager()
        handle = manager.clone(data_serving_vm)
        assert handle.clone.name != data_serving_vm.name
        assert handle.clone.cloned_from == data_serving_vm.name
        assert handle.source_name == data_serving_vm.name
        assert handle.clone_seconds > 0

    def test_clone_seconds_scale_with_memory(self, data_serving_vm):
        manager = CloneManager()
        small = manager.clone_seconds_for(data_serving_vm)
        data_serving_vm.memory_gb = 16.0
        big = manager.clone_seconds_for(data_serving_vm)
        assert big > small

    def test_cow_disk_is_cheaper(self, data_serving_vm):
        cow = CloneManager(cow_disk=True).clone_seconds_for(data_serving_vm)
        full = CloneManager(cow_disk=False).clone_seconds_for(data_serving_vm)
        assert full > cow

    def test_accounting_accumulates(self, data_serving_vm):
        manager = CloneManager()
        manager.clone(data_serving_vm)
        manager.clone(data_serving_vm)
        assert manager.clones_created == 2
        assert manager.total_clone_seconds == pytest.approx(
            2 * manager.clone_seconds_for(data_serving_vm)
        )

    def test_clone_names_unique(self, data_serving_vm):
        manager = CloneManager()
        a = manager.clone(data_serving_vm)
        b = manager.clone(data_serving_vm)
        assert a.clone.name != b.clone.name

    def test_only_unnamed_clones_advance_the_number(self, data_serving_vm):
        manager = CloneManager()
        assert manager.charge(data_serving_vm)[0] == "cassandra-0-clone-0"
        assert manager.charge(data_serving_vm, "probe")[0] == "probe"
        assert manager.charge(data_serving_vm)[0] == "cassandra-0-clone-1"

    def test_numbering_survives_a_pickle_round_trip(self, data_serving_vm):
        """A sandbox's clone manager holds no ``itertools`` object (whose
        pickling Python 3.14 removes), and a restored sandbox continues
        the numbering where the original left off."""
        sandbox = SandboxEnvironment(num_hosts=1, seed=3)
        manager = sandbox.clone_manager
        manager.charge(data_serving_vm)
        assert not any(
            type(value).__module__ == itertools.__name__
            for value in vars(manager).values()
        )
        restored = pickle.loads(pickle.dumps(sandbox)).clone_manager
        assert restored.charge(data_serving_vm)[0] == "cassandra-0-clone-1"
        assert manager.charge(data_serving_vm)[0] == "cassandra-0-clone-1"

    def test_invalid_network(self):
        with pytest.raises(ValueError):
            CloneManager(network_gbps=0.0)
