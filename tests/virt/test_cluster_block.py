"""The cluster's counter ring against the host-by-host reference reads.

``Cluster.counter_window_view`` and ``Cluster.latest_counter_totals``
gather rows of the cluster's one counter ring.  Every read must equal
the host-by-host assembly over the eager histories
(``counter_reference``) bit for bit, in every case: steady and changed
placements, short history limits, hosts of two machine specs, the
scalar substrate and a direct ``Host.step`` between cluster epochs.
"""

import warnings

import numpy as np
import pytest
from counter_reference import (
    assert_view_matches,
    reference_totals,
    reference_window_view,
)

from repro.hardware.batch import ClusterLayout
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


def _cluster(substrate="batch", history_limit=None, track_performance=False):
    """Four hosts holding 5, 2, 0 and 3 VMs: one host past the
    eight-accumulator threshold, one empty host."""
    cluster = Cluster(
        num_hosts=4,
        seed=5,
        substrate=substrate,
        track_performance=track_performance,
        history_limit=history_limit,
    )
    seed = 0
    for host, count in (("pm0", 5), ("pm1", 2), ("pm3", 3)):
        for _ in range(count):
            cluster.place_vm(_vm(f"vm{seed}", seed), host, load=0.3 + 0.05 * seed)
            seed += 1
    return cluster


def _assert_reads_match(cluster, window):
    """Ring reads equal the host-by-host reference after an epoch."""
    assert_view_matches(cluster, window)
    assert np.array_equal(cluster.latest_counter_totals(), reference_totals(cluster))


def _step_and_check(cluster, epochs, window):
    """Step ``epochs`` times, checking the reads after every epoch."""
    for _ in range(epochs):
        cluster.step()
        _assert_reads_match(cluster, window)


class TestSteadyPlacement:
    @pytest.mark.parametrize("window", [1, 3])
    def test_blocks_serve_and_match(self, window):
        cluster = _cluster()
        # Before the first epoch no VM has a window and no totals exist.
        assert cluster.counter_window_view(window).vm_names == ()
        assert cluster.latest_counter_totals() is None
        _step_and_check(cluster, 6, window)

    def test_views_do_not_alias_the_ring(self):
        cluster = _cluster()
        for _ in range(2):
            cluster.step()
        view = cluster.counter_window_view(1)
        latest = view.latest.copy()
        cluster.step()
        assert np.array_equal(view.latest, latest)

    def test_tracked_hosts_match(self):
        """Hosts materialising ground truth hold every sample in their
        performance histories, independently of the ring: the ring reads
        equal them."""
        cluster = _cluster(track_performance=True)
        _step_and_check(cluster, 4, 2)


class TestPlacementChanges:
    def test_arrivals_and_departures(self):
        cluster = _cluster()
        _step_and_check(cluster, 3, 2)
        cluster.place_vm(_vm("arrival", 40), "pm1", load=0.4)
        cluster.remove_vm("vm0")
        # The arrival's window grows from one epoch.
        _step_and_check(cluster, 4, 2)
        assert "arrival" in cluster.counter_window_view(2)
        assert "vm0" not in cluster.counter_window_view(2)

    def test_migration(self):
        cluster = _cluster()
        _step_and_check(cluster, 3, 2)
        cluster.migrate_vm("vm5", "pm2")
        _step_and_check(cluster, 3, 2)
        assert cluster.host_of("vm5") == "pm2"
        # Back on the host it left: the history it left there continues.
        cluster.migrate_vm("vm5", "pm1")
        _step_and_check(cluster, 3, 2)

    def test_drained_empty_host(self):
        cluster = _cluster()
        _step_and_check(cluster, 2, 1)
        for vm_name in ("vm5", "vm6"):
            cluster.migrate_vm(vm_name, "pm2")
        assert not cluster.hosts["pm1"].vms
        _step_and_check(cluster, 3, 1)

    def test_all_hosts_empty(self):
        cluster = _cluster()
        _step_and_check(cluster, 2, 1)
        for vm_name in list(cluster.all_vms()):
            cluster.remove_vm(vm_name)
        _step_and_check(cluster, 2, 1)
        assert np.array_equal(cluster.latest_counter_totals(), np.zeros(14))


class TestIncrementalGroupPlan:
    """After a placement change only the moved hosts are re-read; the
    group's layout and CPU caps must equal a full rebuild's."""

    def _assert_plan_fresh(self, cluster):
        cluster.step()
        (spec, _, members, layout, caps), = cluster._batch_group_plan()
        hosts = list(cluster.hosts.values())
        expected = ClusterLayout.assemble(
            [host.batch_plan_current() for host in hosts],
            spec.architecture.cache_domains,
        )
        for name in ("host_of_vm", "n_cores", "pair_vm", "pair_domain", "pair_weight"):
            assert np.array_equal(getattr(layout, name), getattr(expected, name))
        assert [m[2] for m in members] == [tuple(host.vms) for host in hosts]
        assert np.array_equal(
            caps, [cap for host in hosts for cap in host.cpu_cap_values()]
        )

    def test_arrivals_departures_migrations_and_caps(self):
        cluster = _cluster()
        self._assert_plan_fresh(cluster)
        cluster.place_vm(_vm("arrival", 40), "pm2", load=0.4)
        self._assert_plan_fresh(cluster)
        cluster.remove_vm("vm1")
        cluster.migrate_vm("vm7", "pm1")
        self._assert_plan_fresh(cluster)
        cluster.hosts["pm0"].set_cpu_cap("vm0", 0.5)
        self._assert_plan_fresh(cluster)
        # Every host moves at once.
        for i, host in enumerate(("pm0", "pm1", "pm2", "pm3")):
            cluster.place_vm(_vm(f"late{i}", 60 + i), host, load=0.2)
        self._assert_plan_fresh(cluster)


class TestPlacementMap:
    """The placement map is rebuilt from per-host items cached on each
    host's placement version; it must equal a walk over every host, in
    host-then-VM order, after every kind of placement change."""

    @staticmethod
    def _assert_map_fresh(cluster):
        fresh = [
            (vm_name, (host_name, vm))
            for host_name, host in cluster.hosts.items()
            for vm_name, vm in host._vms.items()
        ]
        _, placement, app_of = cluster._placement_state()
        assert cluster._placement() is placement
        items = list(placement.items())
        assert [name for name, _ in items] == [name for name, _ in fresh]
        for (_, (host_a, vm_a)), (_, (host_b, vm_b)) in zip(items, fresh):
            assert host_a == host_b and vm_a is vm_b
        assert app_of == tuple(vm.app_id for _, (_, vm) in fresh)
        return placement

    def test_churn_and_migrations(self):
        cluster = _cluster()
        self._assert_map_fresh(cluster)
        cluster.step()
        cluster.place_vm(_vm("arrival", 40), "pm2", load=0.4)
        self._assert_map_fresh(cluster)
        cluster.remove_vm("vm1")
        cluster.place_vm(_vm("swap-in", 41), "pm0", load=0.4)
        self._assert_map_fresh(cluster)
        cluster.step()
        cluster.migrate_vm("vm7", "pm1")
        cluster.migrate_vm("vm0", "pm3")
        self._assert_map_fresh(cluster)
        cluster.hosts["pm0"].set_cpu_cap("vm2", 0.5)
        self._assert_map_fresh(cluster)
        for vm_name in list(cluster.hosts["pm1"]._vms):
            cluster.remove_vm(vm_name)
        self._assert_map_fresh(cluster)
        cluster.add_host(Host(name="pm9", seed=3, track_performance=False))
        cluster.place_vm(_vm("on-new", 42), "pm9", load=0.3)
        self._assert_map_fresh(cluster)
        cluster.step()
        stale = self._assert_map_fresh(cluster)
        cluster.place_vm(_vm("late", 43), "pm0", load=0.3)
        assert cluster._placement() is not stale
        self._assert_map_fresh(cluster)


class TestFallbacks:
    def test_short_history_limit_falls_back_and_warns_once(self):
        cluster = _cluster(history_limit=2)
        for _ in range(5):
            cluster.step()
        with pytest.warns(RuntimeWarning, match="history_limit=2") as caught:
            view = cluster.counter_window_view(3)
        warned = {str(w.message).split("'")[1] for w in caught}
        assert warned == {"pm0", "pm1", "pm3"}
        for _ in range(4):
            cluster.step()
        # The limit still trims the windows; the second read is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            view = cluster.counter_window_view(3)
            names, latest, window_sum = reference_window_view(cluster, 3)
        assert view.vm_names == names
        assert np.array_equal(view.latest, latest)
        assert np.array_equal(view.window_sum, window_sum)

    def test_two_spec_cluster(self):
        cluster = _cluster()
        cluster.add_host(
            Host(
                name="i7",
                spec=CORE_I7_E5640,
                seed=9,
                substrate="batch",
                track_performance=False,
            )
        )
        cluster.place_vm(_vm("on-i7", 50), "i7", load=0.5)
        for _ in range(4):
            cluster.step()
            _assert_reads_match(cluster, 1)
            _assert_reads_match(cluster, 2)

    def test_scalar_substrate_totals_unavailable(self):
        """Scalar epochs write the same ring: windows and totals read
        back like the batch substrate's (totals are unavailable only
        before the first epoch)."""
        cluster = _cluster(substrate="scalar")
        assert cluster.latest_counter_totals() is None
        for _ in range(3):
            cluster.step()
            _assert_reads_match(cluster, 1)
            _assert_reads_match(cluster, 2)

    def test_direct_host_step_falls_back(self):
        """A host stepped on its own between cluster epochs: its VMs'
        histories gain the epoch (so do their windows), and the totals
        stay those of the newest cluster epoch."""
        cluster = _cluster()
        _step_and_check(cluster, 3, 2)
        totals = reference_totals(cluster)
        cluster.hosts["pm1"].step()
        for window in (1, 2, 3):
            assert_view_matches(cluster, window)
        assert np.array_equal(cluster.latest_counter_totals(), totals)
        # The next cluster epochs continue every history.
        _step_and_check(cluster, 3, 2)
        _assert_reads_match(cluster, 4)


def test_smoothing_window_of_three_through_deepdive():
    """DeepDive's batch engine reads three-epoch windows off the ring
    and decides exactly as the scalar engine does."""
    from repro.core.config import DeepDiveConfig
    from repro.core.deepdive import DeepDive

    cluster = _cluster()
    deepdive = DeepDive(cluster, config=DeepDiveConfig(smoothing_epochs=3))
    for _ in range(6):
        cluster.step()
        batch = deepdive.run_epoch(analyze=False, learn=False, engine="batch")
        scalar = deepdive.run_epoch(analyze=False, learn=False, engine="scalar")
        assert batch.observations == scalar.observations
        assert_view_matches(cluster, 3)
