"""Placement changes as host events: every cached structure against a
from-scratch build.

Hosts report placement and load changes to their cluster's change
record, and each placement-derived structure re-reads only the hosts
the record names.  A seeded random sequence of placements, departures,
migrations, CPU caps, load changes, drains and returns runs between
epochs; after every epoch each cached structure must equal one built
from scratch by walking every host and VM, and the decisions must equal
those of a twin cluster whose caches are all dropped before every epoch.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from counter_reference import assert_view_matches, reference_totals

from repro.core.deepdive import DeepDive, _EpochLayout
from repro.fleet.lifecycle import _ShardSummary
from repro.hardware.batch import ClusterLayout, pack_demand
from repro.metrics.store import sample_row
from repro.virt.cluster import Cluster
from repro.virt.vm import VirtualMachine
from repro.virt.vmm import Host
from repro.workloads.cloud import (
    DataAnalyticsWorkload,
    DataServingWorkload,
    WebSearchWorkload,
)

WORKLOADS = (DataServingWorkload, WebSearchWorkload, DataAnalyticsWorkload)

#: Cluster attributes that cache placement-derived state.
CLUSTER_CACHES = (
    "_changes",
    "_placement_view",
    "_placement_items",
    "_host_segments",
    "_batch_groups",
    "_demand_tables",
    "_tables",
)


def _vm(name, seed):
    vm = VirtualMachine(name, WORKLOADS[seed % len(WORKLOADS)](seed=seed), vcpus=1)
    vm.app_id = f"app{seed % 3}"
    return vm


def _cluster(cache_demands):
    cluster = Cluster(
        num_hosts=6,
        seed=11,
        track_performance=False,
        cache_demands=cache_demands,
        history_limit=4,
    )
    for i in range(10):
        cluster.place_vm(_vm(f"vm{i}", i), f"pm{i % 5}", load=0.3 + 0.04 * i)
    return cluster


def _drop_caches(cluster, deepdive):
    """Forget every placement-derived cache of the cluster, its hosts and
    DeepDive: the next epoch rebuilds all of them from every host."""
    for name in CLUSTER_CACHES:
        cluster.__dict__.pop(name, None)
    for host in cluster.hosts.values():
        host.__dict__.pop("_changes", None)
        host.__dict__.pop("_change_index", None)
        host._demand_rows_key = None
        host._demand_vms = ()
    deepdive._layout = None


# ----------------------------------------------------------------------
# From-scratch builds
# ----------------------------------------------------------------------
def _assert_placement(cluster):
    fresh = [
        (vm_name, host_name, vm)
        for host_name, host in cluster.hosts.items()
        for vm_name, vm in host._vms.items()
    ]
    _, placement, app_of = cluster._placement_state()
    assert [name for name in placement] == [name for name, _, _ in fresh]
    for (host_a, vm_a), (_, host_b, vm_b) in zip(placement.values(), fresh):
        assert host_a == host_b and vm_a is vm_b
    assert app_of == tuple(vm.app_id for _, _, vm in fresh)


def _assert_group_layout(cluster):
    [(spec, _, members, layout, caps)] = cluster._batch_groups[1]
    hosts = list(cluster.hosts.values())
    assert [member[1] for member in members] == hosts
    assert [member[2] for member in members] == [tuple(h._vms) for h in hosts]
    plans = [
        host.machine.batch_plan_for_vcpus(
            {name: vm.vcpus for name, vm in host._vms.items()}
        )
        for host in hosts
    ]
    fresh = ClusterLayout.assemble(plans, spec.architecture.cache_domains)
    for field in dataclasses.fields(ClusterLayout):
        got, want = getattr(layout, field.name), getattr(fresh, field.name)
        assert np.array_equal(got, want), field.name
    want_caps = [host._cpu_caps[name] for host in hosts for name in host._vms]
    assert caps.tolist() == want_caps
    table = cluster._demand_tables[0][1]
    rows = [
        pack_demand(
            vm.demand(
                host.get_load(name) * vm.workload.nominal_load,
                epoch_seconds=host.epoch_seconds,
            )
        )
        for host in hosts
        for name, vm in host._vms.items()
    ]
    want = np.asarray(rows, dtype=float).reshape(-1, table.shape[1])
    assert np.array_equal(table, want)


def _assert_epoch_layout(cluster, deepdive):
    layout = deepdive._layout
    _, placement, app_of = cluster._placement_state()
    assert layout.placement is placement
    fresh = _EpochLayout(placement, app_of)
    fresh.regroup(*layout._masks)
    assert layout.names == fresh.names and layout.app_of == fresh.app_of
    assert list(layout._app_positions) == list(fresh._app_positions)
    for app_id, positions in fresh._app_positions.items():
        assert np.array_equal(layout._app_positions[app_id], positions)
    assert layout.vm_names == fresh.vm_names
    assert layout.app_ids == fresh.app_ids
    assert len(layout.groups) == len(fresh.groups)
    for got, want in zip(layout.groups, fresh.groups):
        assert got.app_id == want.app_id
        for name in ("rows", "own", "pool"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got._own_names == want._own_names
        assert got._pool_names == want._pool_names


def _assert_ring_tables(cluster):
    """The ring slot tables equal a walk over every host: each host's
    VMs in order with their stores' slots, all distinct, and the totals
    fold plan."""
    tables = cluster._ring_tables()
    populated = [host for host in cluster.hosts.values() if host._vms]
    assert tables.vm_names == tuple(
        itertools.chain.from_iterable(tuple(h._vms) for h in cluster.hosts.values())
    )
    slots = [
        host.counter_store._slots[name]
        for host in cluster.hosts.values()
        for name in host._vms
    ]
    assert tables.slots.tolist() == slots
    assert len(set(slots)) == len(slots)
    assert tables.counts.tolist() == [len(h._vms) for h in cluster.hosts.values()]
    start = 0
    for h, host in enumerate(populated):
        for j in range(len(host._vms)):
            sums, rows = tables.folds[j]
            assert start + j in rows.tolist()
            assert sums[rows.tolist().index(start + j)] == h + 1
        start += len(host._vms)


def _assert_ring_columns(cluster):
    """Each VM's slot holds its own newest counters, every history reads
    back at its length, and the reads equal the host-by-host reference."""
    ring = cluster._ring
    for host in cluster.hosts.values():
        store = host.counter_store
        assert store.ring is ring
        assert tuple(store._slots) == tuple(host._vms)
        for name, slot in store._slots.items():
            latest = store.latest_sample(name)
            if latest is not None and ring.start[slot] < ring.appended:
                row = ring.data[(ring.appended - 1) % ring.capacity, slot]
                assert np.array_equal(row, sample_row(latest))
            assert store.length(name) == len(store.histories[name])
    assert_view_matches(cluster, 1)
    assert_view_matches(cluster, 3)
    assert np.array_equal(cluster.latest_counter_totals(), reference_totals(cluster))


def _assert_admission_summary(cluster, summary):
    summary.refresh({})
    fresh = _ShardSummary(cluster)
    fresh.refresh({})
    for name in ("pressure", "free_vcpus", "free_mem"):
        assert np.array_equal(getattr(summary, name), getattr(fresh, name)), name
    assert summary.apps == fresh.apps


# ----------------------------------------------------------------------
# The random operation sequence
# ----------------------------------------------------------------------
class _Ops:
    """Applies one seeded random operation to a cluster and its twin."""

    def __init__(self, clusters, seed):
        self.clusters = clusters
        self.rng = np.random.default_rng(seed)
        self.next_vm = 100

    def _placed(self):
        cluster = self.clusters[0]
        return [
            (host_name, vm_name)
            for host_name, host in cluster.hosts.items()
            for vm_name in host._vms
        ]

    def _pick(self, items):
        return items[int(self.rng.integers(len(items)))] if items else None

    def apply(self):
        rng = self.rng
        kind = rng.choice(
            ["place", "remove", "migrate", "cap", "load", "drain", "return"],
            p=[0.3, 0.2, 0.15, 0.1, 0.1, 0.1, 0.05],
        )
        hosts = list(self.clusters[0].hosts)
        placed = self._placed()
        if kind == "place":
            host = self._pick(hosts)
            seed = self.next_vm
            self.next_vm += 1
            load = float(rng.uniform(0.2, 0.8))
            if not self.clusters[0].hosts[host].can_fit(_vm("probe", seed)):
                return
            for cluster in self.clusters:
                cluster.place_vm(_vm(f"vm{seed}", seed), host, load=load)
        elif kind == "remove" and len(placed) > 2:
            _, vm_name = self._pick(placed)
            for cluster in self.clusters:
                cluster.remove_vm(vm_name)
        elif kind == "migrate" and placed:
            source, vm_name = self._pick(placed)
            destination = self._pick([h for h in hosts if h != source])
            for cluster in self.clusters:
                try:
                    cluster.migrate_vm(vm_name, destination)
                except ValueError:
                    pass  # no room: rolled back on both clusters
        elif kind == "cap" and placed:
            host, vm_name = self._pick(placed)
            cap = float(rng.choice([0.5, 0.8, 1.0]))
            for cluster in self.clusters:
                cluster.hosts[host].set_cpu_cap(vm_name, cap)
        elif kind == "load" and placed:
            host, vm_name = self._pick(placed)
            load = float(rng.uniform(0.1, 0.9))
            for cluster in self.clusters:
                cluster.hosts[host].set_load(vm_name, load)
        elif kind == "drain":
            host = self._pick(hosts)
            for cluster in self.clusters:
                cluster.drained_hosts.add(host)
                targets = [h for h in hosts if h not in cluster.drained_hosts]
                for i, vm_name in enumerate(list(cluster.hosts[host]._vms)):
                    if targets:
                        try:
                            cluster.migrate_vm(vm_name, targets[i % len(targets)])
                        except ValueError:
                            pass
        elif kind == "return" and self.clusters[0].drained_hosts:
            host = sorted(self.clusters[0].drained_hosts)[0]
            for cluster in self.clusters:
                cluster.drained_hosts.discard(host)

    def epoch_loads(self):
        placed = self._placed()
        picks = self.rng.permutation(len(placed))[: len(placed) // 4]
        return {placed[i][1]: float(self.rng.uniform(0.2, 0.9)) for i in picks}


def _assert_same_report(got, want):
    a, b = got.decisions, want.decisions
    assert a.vm_names == b.vm_names
    for name in ("action_codes", "distances", "conservative"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)


@pytest.mark.parametrize("cache_demands", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cached_structures_equal_fresh_builds(cache_demands, seed, fast_config):
    cluster = _cluster(cache_demands)
    twin = _cluster(cache_demands)
    deepdive = DeepDive(cluster, config=fast_config)
    twin_deepdive = DeepDive(twin, config=fast_config)
    summary = _ShardSummary(cluster)
    ops = _Ops((cluster, twin), seed)
    for epoch in range(30):
        for _ in range(int(ops.rng.integers(0, 5))):
            ops.apply()
        loads = ops.epoch_loads()
        _drop_caches(twin, twin_deepdive)
        cluster.step(loads=loads)
        twin.step(loads=loads)
        report = deepdive.run_epoch(analyze=False)
        twin_report = twin_deepdive.run_epoch(analyze=False)
        _assert_same_report(report, twin_report)
        assert np.array_equal(
            cluster.counter_window_view(1).latest, twin.counter_window_view(1).latest
        )
        assert np.array_equal(
            cluster.latest_counter_totals(), twin.latest_counter_totals()
        )
        _assert_placement(cluster)
        _assert_group_layout(cluster)
        _assert_epoch_layout(cluster, deepdive)
        _assert_ring_tables(cluster)
        _assert_ring_columns(cluster)
        _assert_admission_summary(cluster, summary)


def test_a_host_outside_a_cluster_reports_nowhere():
    cluster = _cluster(True)
    host = cluster.hosts["pm5"]
    assert host._changes is cluster._changes and host._change_index == 5
    loose = Host(name="sandbox", seed=1)
    assert loose._changes is None
    loose.add_vm(_vm("alone", 1), load=0.5)
    loose.set_load("alone", 0.6)
    loose.set_cpu_cap("alone", 0.5)
    loose.step()
    assert cluster._changes.take("probe") is None
    placements = cluster._changes.placements
    cluster.place_vm(_vm("counted", 2), "pm5", load=0.5)
    assert cluster._changes.placements == placements + 1
    assert cluster._changes.take("probe") == [5]


def test_every_commit_moves_the_store_stamp():
    """A lean commit on one host outside the cluster's epoch lands in
    that host's histories: every read equals the reference afterwards,
    and the totals stay those of the cluster's newest epoch."""
    cluster = _cluster(True)
    cluster.step()
    totals = reference_totals(cluster)
    host = cluster.hosts["pm0"]
    names = tuple(host._vms)
    block = np.array([sample_row(host.latest_counters(n)) for n in names]) + 1.0
    host.commit_epoch_block(names, block)
    for name, row in zip(names, block):
        assert np.array_equal(sample_row(host.latest_counters(name)), row)
    assert_view_matches(cluster, 1)
    assert_view_matches(cluster, 2)
    assert np.array_equal(cluster.latest_counter_totals(), totals)
    cluster.step()
    _assert_ring_columns(cluster)
