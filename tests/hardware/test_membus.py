"""Tests for the memory-interconnect contention model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.hardware.membus import MemoryBusModel
from repro.hardware.specs import CORE_I7_E5640, XEON_X5472


@pytest.fixture
def fsb():
    return MemoryBusModel(XEON_X5472.architecture)


@pytest.fixture
def qpi():
    return MemoryBusModel(CORE_I7_E5640.architecture)


class TestMemoryBusModel:
    def test_uncontended_latency_is_base_latency(self, fsb):
        assert fsb.contended_latency(0.0) == pytest.approx(
            XEON_X5472.architecture.memory_cycles
        )

    def test_latency_increases_with_utilization(self, fsb):
        assert fsb.contended_latency(0.8) > fsb.contended_latency(0.3)

    def test_latency_clamped_at_max_utilization(self, fsb):
        assert fsb.contended_latency(5.0) == pytest.approx(
            fsb.contended_latency(MemoryBusModel.MAX_UTILIZATION)
        )

    def test_fsb_degrades_faster_than_qpi(self, fsb, qpi):
        fsb_inflation = fsb.contended_latency(0.8) / fsb.contended_latency(0.0)
        qpi_inflation = qpi.contended_latency(0.8) / qpi.contended_latency(0.0)
        assert fsb_inflation > qpi_inflation

    def test_resolve_under_capacity_grants_everything(self, fsb):
        outcomes = fsb.resolve({"a": 100.0}, {"a": 10.0}, {"a": 5.0}, epoch_seconds=1.0)
        assert outcomes["a"].granted_mb == pytest.approx(115.0)
        assert outcomes["a"].bandwidth_share == pytest.approx(1.0)

    def test_resolve_over_capacity_shares_proportionally(self, fsb):
        capacity = XEON_X5472.architecture.memory_bandwidth_mbps
        outcomes = fsb.resolve(
            {"a": capacity, "b": capacity * 3},
            {"a": 0.0, "b": 0.0},
            {"a": 0.0, "b": 0.0},
            epoch_seconds=1.0,
        )
        total_granted = outcomes["a"].granted_mb + outcomes["b"].granted_mb
        assert total_granted == pytest.approx(capacity, rel=1e-6)
        assert outcomes["b"].granted_mb == pytest.approx(outcomes["a"].granted_mb * 3)
        assert outcomes["a"].bandwidth_share < 1.0

    def test_utilization_shared_across_vms(self, fsb):
        outcomes = fsb.resolve({"a": 1000.0, "b": 2000.0}, {}, {}, epoch_seconds=1.0)
        assert outcomes["a"].utilization == outcomes["b"].utilization

    def test_bandwidth_share_of_idle_vm(self, fsb):
        outcomes = fsb.resolve({"a": 0.0}, {}, {}, epoch_seconds=1.0)
        assert outcomes["a"].bandwidth_share == 1.0

    def test_bandwidth_share_helper(self, fsb):
        capacity = XEON_X5472.architecture.memory_bandwidth_mbps
        assert fsb.bandwidth_share_mb(100.0, 200.0, 1.0) == pytest.approx(100.0)
        share = fsb.bandwidth_share_mb(capacity, capacity * 2, 1.0)
        assert share == pytest.approx(capacity / 2)


#: Resolves one noise-free 6-VM co-location over 200 epochs of random
#: demands and prints a digest of every VM's counters.
_COLOCATION_DIGEST = """
import hashlib
import numpy as np
from repro.hardware.demand import ResourceDemand
from repro.hardware.machine import PhysicalMachine
from repro.hardware.specs import XEON_X5472

rng = np.random.default_rng(3)
machine = PhysicalMachine(spec=XEON_X5472, name="pm0", noise=0.0, seed=1)
digest = hashlib.sha256()
for _ in range(200):
    demands = {
        f"vm{i}": ResourceDemand(
            instructions=float(rng.uniform(0.2e9, 1.5e9)),
            working_set_mb=float(rng.uniform(1.0, 16.0)),
            l1_miss_pki=float(rng.uniform(5.0, 40.0)),
            locality=float(rng.uniform(0.1, 0.9)),
            disk_mb=float(rng.uniform(0.0, 30.0)),
            network_mbit=float(rng.uniform(0.0, 300.0)),
        )
        for i in range(6)
    }
    result = machine.run_epoch(demands)
    for name in demands:
        counters = result.per_vm[name].counters.as_dict().values()
        digest.update(repr(tuple(counters)).encode())
print(digest.hexdigest())
"""


def _colocation_digest(hash_seed: str) -> str:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _COLOCATION_DIGEST],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


def test_resolution_is_independent_of_the_hash_seed():
    """The bus total sums the VMs in a fixed order, so a co-location's
    counters are bit-identical in processes with different string hash
    seeds (process workers each run under their own)."""
    assert _colocation_digest("0") == _colocation_digest("1")
