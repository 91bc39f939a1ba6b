"""The batch engine's row tables against a per-VM build.

``_EpochLayout`` takes the application ids the cluster assembles from
per-host pieces, derives each application's placement positions with a
stable sort of per-VM application codes, and ``regroup`` splits them by
the epoch's masks.  Through churn and migrations all of it must equal
the per-VM walk kept below as the oracle: same names, same applications
in the same order, same positions and report rows.
"""

import numpy as np

from repro.core.deepdive import DeepDive, _EpochLayout
from repro.virt.cluster import Cluster
from repro.virt.vm import VirtualMachine
from repro.workloads.cloud import (
    DataAnalyticsWorkload,
    DataServingWorkload,
    WebSearchWorkload,
)

WORKLOADS = (DataServingWorkload, WebSearchWorkload, DataAnalyticsWorkload)


def _vm(name, seed, app):
    vm = VirtualMachine(name, WORKLOADS[seed % len(WORKLOADS)](seed=seed), vcpus=1)
    vm.app_id = app
    return vm


def _oracle(placement, present, eligible):
    """Positions, report rows and groups by walking every VM."""
    names = tuple(placement)
    app_of = tuple(vm.app_id for _, vm in placement.values())
    positions = {}
    for pos, app_id in enumerate(app_of):
        positions.setdefault(app_id, []).append(pos)
    report_row = np.cumsum(eligible) - 1
    groups = []
    for app_id, pos in positions.items():
        pos = np.asarray(pos, dtype=np.intp)
        own = pos[eligible[pos]]
        if own.size:
            groups.append((app_id, report_row[own], own, pos[present[pos]]))
    groups.sort(key=lambda group: int(group[1][0]))
    order = np.flatnonzero(eligible).tolist()
    return names, app_of, positions, groups, order


def _assert_layout(layout, placement, present, eligible):
    names, app_of, positions, groups, order = _oracle(placement, present, eligible)
    assert layout.names == names
    assert layout.app_of == app_of
    assert list(layout._app_positions) == list(positions)
    for app_id, pos in positions.items():
        assert layout._app_positions[app_id].tolist() == pos
    assert layout.vm_names == tuple(names[i] for i in order)
    assert layout.app_ids == tuple(app_of[i] for i in order)
    assert len(layout.groups) == len(groups)
    for group, (app_id, rows, own, pool) in zip(layout.groups, groups):
        assert group.app_id == app_id
        assert np.array_equal(group.rows, rows)
        assert np.array_equal(group.own, own)
        assert np.array_equal(group.pool, pool)
        assert group._own_names == tuple(names[i] for i in own.tolist())
        assert group._pool_names == tuple(names[i] for i in pool.tolist())


def _cluster():
    cluster = Cluster(num_hosts=4, seed=3, track_performance=False)
    seed = 0
    for host, count in (("pm0", 4), ("pm1", 3), ("pm2", 0), ("pm3", 5)):
        for _ in range(count):
            vm = _vm(f"vm{seed}", seed, f"app{seed % 3}")
            cluster.place_vm(vm, host, load=0.2 + 0.05 * seed)
            seed += 1
    return cluster


def test_layout_equals_per_vm_build_with_random_masks():
    cluster = _cluster()
    _, placement, app_of = cluster._placement_state()
    layout = _EpochLayout(placement, app_of)
    rng = np.random.default_rng(0)
    for _ in range(20):
        present = rng.random(len(placement)) < 0.8
        eligible = present & (rng.random(len(placement)) < 0.8)
        layout.regroup(present, eligible)
        _assert_layout(layout, placement, present, eligible)


def test_empty_placement():
    layout = _EpochLayout({}, ())
    assert layout.names == () and layout._app_positions == {}
    layout.regroup(np.zeros(0, dtype=bool), np.zeros(0, dtype=bool))
    assert layout.groups == []


def test_engine_layout_through_churn_and_migrations(fast_config):
    """The layout DeepDive keeps equals a fresh build after arrivals,
    departures, a host that loses and gains VMs in one epoch, a new
    application and migrations."""
    cluster = _cluster()
    deepdive = DeepDive(cluster, config=fast_config)

    def epoch():
        cluster.step()
        deepdive.run_epoch(analyze=False, learn=False)
        layout = deepdive._layout
        placement = cluster._placement()
        assert layout.placement is placement
        present, eligible = layout._masks
        assert eligible.any()
        _assert_layout(layout, placement, present, eligible)

    epoch()
    cluster.place_vm(_vm("arrival", 20, "app1"), "pm2", load=0.4)
    epoch()
    cluster.remove_vm("vm1")
    cluster.place_vm(_vm("swap-in", 21, "app-new"), "pm0", load=0.4)
    epoch()
    cluster.migrate_vm("vm8", "pm1")
    cluster.migrate_vm("vm0", "pm2")
    epoch()
    for vm_name in list(cluster.hosts["pm3"]._vms):
        cluster.remove_vm(vm_name)
    epoch()
    epoch()
