"""The cluster's one counter ring under random placement churn.

A cluster of two machine specs (hosts added with ``add_host``) runs a
seeded random sequence of arrivals, departures, migrations (some back
to the host a VM just left), drains and direct ``Host.step`` calls.
Every host tracks ground truth, so each VM's eager sample list is held
independently of the ring (``counter_reference``).  After every epoch
the window views, the counter totals and every host's histories must
equal that reference (the totals stay the epoch's through the next
epoch's placement changes), and the ring's slots must stay consistent: each
resident VM holds its own slot, freed slots are taken before the slot
axis grows, and the axis never exceeds twice the peak resident count.
"""

import warnings

import numpy as np
import pytest
from counter_reference import (
    assert_histories_match,
    assert_view_matches,
    reference_totals,
)
from scalar_reference import use_scalar_substrate

from repro.hardware.specs import CORE_I7_E5640
from repro.virt.cluster import Cluster
from repro.virt.vm import VirtualMachine
from repro.virt.vmm import Host
from repro.workloads.cloud import (
    DataAnalyticsWorkload,
    DataServingWorkload,
    WebSearchWorkload,
)

WORKLOADS = (DataServingWorkload, WebSearchWorkload, DataAnalyticsWorkload)


def _vm(name, seed):
    return VirtualMachine(name, WORKLOADS[seed % len(WORKLOADS)](seed=seed), vcpus=1)


def _cluster(substrate, history_limit):
    """``substrate="scalar"`` steps the cluster through the per-VM
    reference (``scalar_reference.scalar_step``)."""
    cluster = Cluster(
        num_hosts=3,
        seed=17,
        track_performance=True,
        history_limit=history_limit,
    )
    for i in range(2):
        cluster.add_host(
            Host(
                name=f"i7-{i}",
                spec=CORE_I7_E5640,
                seed=40 + i,
                track_performance=True,
                history_limit=history_limit,
            )
        )
    for i in range(8):
        cluster.place_vm(_vm(f"vm{i}", i), list(cluster.hosts)[i % 5], load=0.4)
    if substrate == "scalar":
        use_scalar_substrate(cluster)
    return cluster


class _Churn:
    """Seeded random placement operations, checking the slot invariant
    around every one of them."""

    def __init__(self, cluster, seed):
        self.cluster = cluster
        self.ring = cluster._ring
        self.rng = np.random.default_rng(seed)
        self.next_vm = 100
        self.peak = self._resident()
        #: (vm, host it left) of last epoch's away moves, moved back next.
        self.bounces = []

    def _resident(self):
        return sum(len(host.vms) for host in self.cluster.hosts.values())

    def _placed(self):
        return [
            (host_name, vm_name)
            for host_name, host in self.cluster.hosts.items()
            for vm_name in host.vms
        ]

    def _pick(self, items):
        return items[int(self.rng.integers(len(items)))] if items else None

    def _migrate(self, vm_name, destination):
        try:
            self.cluster.migrate_vm(vm_name, destination)
        except ValueError:
            return False  # no room: rolled back
        return True

    def apply(self):
        free, width = len(self.ring.free), self.ring.data.shape[1]
        self._apply()
        if self.ring.data.shape[1] > width:
            assert free == 0, "the slot axis grew while a freed slot was free"
        self.peak = max(self.peak, self._resident())
        assert_slots_consistent(self.cluster, self.peak)

    def _apply(self):
        cluster, rng = self.cluster, self.rng
        hosts = list(cluster.hosts)
        placed = self._placed()
        kind = rng.choice(
            ["place", "remove", "migrate", "bounce", "drain", "direct"],
            p=[0.35, 0.2, 0.15, 0.1, 0.1, 0.1],
        )
        if kind == "place":
            seed = self.next_vm
            self.next_vm += 1
            host = self._pick(hosts)
            if cluster.hosts[host].can_fit(_vm("probe", seed)):
                cluster.place_vm(_vm(f"vm{seed}", seed), host, load=0.3)
        elif kind == "remove" and len(placed) > 2:
            cluster.remove_vm(self._pick(placed)[1])
        elif kind in ("migrate", "bounce") and placed:
            source, vm_name = self._pick(placed)
            destination = self._pick([h for h in hosts if h != source])
            if self._migrate(vm_name, destination) and kind == "bounce":
                self.bounces.append((vm_name, source))
        elif kind == "drain":
            host = self._pick(hosts)
            targets = [h for h in hosts if h != host]
            for i, vm_name in enumerate(list(cluster.hosts[host].vms)):
                self._migrate(vm_name, targets[i % len(targets)])
        elif kind == "direct" and placed:
            cluster.hosts[self._pick(placed)[0]].step()

    def bounce_back(self):
        """VMs moved away last epoch return to the host they left, whose
        window then straddles their retained samples and new rows."""
        for vm_name, host in self.bounces:
            if self.cluster.host_of(vm_name) not in (None, host):
                self._migrate(vm_name, host)
        self.bounces = []
        assert_slots_consistent(self.cluster, self.peak)


def assert_slots_consistent(cluster, peak):
    ring = cluster._ring
    width = ring.data.shape[1]
    used = [
        slot
        for host in cluster.hosts.values()
        for slot in host.counter_store._slots.values()
    ]
    assert len(set(used)) == len(used), "two resident VMs share a slot"
    assert not set(used) & set(ring.free), "a resident VM's slot is free"
    assert sorted(used + ring.free) == list(range(width))
    assert width <= 2 * max(peak, 1)


@pytest.mark.parametrize("history_limit", [None, 2, 4])
@pytest.mark.parametrize("substrate", ["batch", "scalar"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_spec_cluster_reads_equal_the_reference(substrate, history_limit, seed):
    cluster = _cluster(substrate, history_limit)
    churn = _Churn(cluster, seed)
    assert cluster.latest_counter_totals() is None
    totals = None
    for _ in range(24):
        churn.bounce_back()
        for _ in range(int(churn.rng.integers(0, 4))):
            churn.apply()
        if totals is not None:
            # Placement changes since the epoch leave its totals alone.
            assert np.array_equal(cluster.latest_counter_totals(), totals)
        cluster.step()
        assert_histories_match(cluster)
        with warnings.catch_warnings():
            # A history_limit below the window trims it (and warns once).
            warnings.simplefilter("ignore", RuntimeWarning)
            for window in (1, 2, 3, 4):
                assert_view_matches(cluster, window)
        totals = reference_totals(cluster)
        assert np.array_equal(cluster.latest_counter_totals(), totals)
    assert churn.peak >= 8


def test_freed_slots_are_taken_before_the_ring_grows():
    """Departures and arrivals in turn keep the slot axis at its size."""
    cluster = _cluster("batch", 4)
    ring = cluster._ring
    cluster.step()
    width = ring.data.shape[1]
    for i in range(20):
        departed = sorted(cluster.all_vms())[0]
        host = cluster.host_of(departed)
        slot = cluster.hosts[host].counter_store._slots[departed]
        cluster.remove_vm(departed)
        cluster.place_vm(_vm(f"new{i}", i), host, load=0.5)
        assert cluster.hosts[host].counter_store._slots[f"new{i}"] == slot
        cluster.step()
        assert_view_matches(cluster, 2)
    assert ring.data.shape[1] == width


def test_unlimited_ring_doubles_only_for_resident_rows():
    """Without a history limit the ring doubles when a resident VM's
    oldest row would be overwritten — not for rows of VMs long gone."""
    steady = Host(name="steady", seed=3)
    steady.add_vm(_vm("long-lived", 1), load=0.5)
    for _ in range(70):
        steady.step()
    assert steady.counter_store.ring.capacity == 128
    history = steady.counter_history["long-lived"]
    want = [perf.counters for perf in steady.performance_history["long-lived"]]
    assert len(history) == 70 and list(history) == want

    sandbox = Host(name="sandbox", seed=4)
    for run in range(20):
        name = f"clone{run}"
        sandbox.add_vm(_vm(name, run), load=0.5)
        for _ in range(10):
            sandbox.step()
        sandbox.remove_vm(name)
        want = [perf.counters for perf in sandbox.performance_history[name]]
        assert list(sandbox.counter_history[name]) == want
    ring = sandbox.counter_store.ring
    assert ring.appended == 200 and ring.capacity == 64
    assert ring.data.shape[1] == 1

    # Two VMs, then one: the slot freed first stays free and old.
    pair = Host(name="pair", seed=5)
    pair.add_vm(_vm("a", 1), load=0.5)
    pair.add_vm(_vm("b", 2), load=0.5)
    for name, epochs in (("a", 10), ("b", 10)):
        for _ in range(epochs):
            pair.step()
        pair.remove_vm(name)
    pair.add_vm(_vm("c", 3), load=0.5)
    for _ in range(60):
        pair.step()
    assert pair.counter_store.ring.capacity == 64
    for name in "abc":
        want = [perf.counters for perf in pair.performance_history[name]]
        assert list(pair.counter_history[name]) == want


def test_cluster_without_history_limit_keeps_every_epoch():
    cluster = _cluster("batch", None)
    for _ in range(70):
        cluster.step()
    assert cluster._ring.capacity == 128
    assert_histories_match(cluster)
    for window in (1, 4, 70):
        assert_view_matches(cluster, window)
