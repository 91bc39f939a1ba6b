"""The cluster's whole-cluster counter blocks against the per-host reads.

``Cluster.counter_window_view`` and ``Cluster.latest_counter_totals``
serve steady batch epochs from copies of the newest whole-cluster
counter blocks.  Every read must equal the host-by-host assembly
(``Cluster._host_window_view`` and ``host_counter_totals``) bit for bit,
and every case the blocks cannot serve must fall back to it.
"""

import warnings

import numpy as np
import pytest

from repro.hardware.batch import ClusterLayout
from repro.hardware.specs import CORE_I7_E5640
from repro.virt.cluster import Cluster, host_counter_totals
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


def _assert_reads_match(cluster, window, served):
    """Block reads equal the per-host assembly; ``served`` says whether
    the blocks (True) or the fallback (False) answered."""
    assert (cluster._resident_blocks(window) is not None) == served
    view = cluster.counter_window_view(window)
    reference = cluster._host_window_view(window)
    assert view.vm_names == reference.vm_names
    assert np.array_equal(view.latest, reference.latest)
    assert np.array_equal(view.window_sum, reference.window_sum)
    totals = cluster.latest_counter_totals()
    expected = host_counter_totals(cluster.hosts.values())
    if expected is None:
        assert totals is None
    else:
        assert np.array_equal(totals, expected)


def _step_and_check(cluster, epochs, window):
    """Step ``epochs`` times; from the ``window``-th steady epoch on the
    blocks must serve."""
    for epoch in range(epochs):
        cluster.step()
        _assert_reads_match(cluster, window, served=epoch + 1 >= window)


class TestSteadyPlacement:
    @pytest.mark.parametrize("window", [1, 3])
    def test_blocks_serve_and_match(self, window):
        cluster = _cluster()
        # The first read sizes the ring to the window.
        cluster.counter_window_view(window)
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
        """Hosts materialising ground truth commit through the full
        ``commit_epoch`` path; the block copies the same counters."""
        cluster = _cluster(track_performance=True)
        cluster.counter_window_view(2)
        _step_and_check(cluster, 4, 2)


class TestPlacementChanges:
    def test_arrivals_and_departures(self):
        cluster = _cluster()
        cluster.counter_window_view(2)
        _step_and_check(cluster, 3, 2)
        cluster.place_vm(_vm("arrival", 40), "pm1", load=0.4)
        cluster.remove_vm("vm0")
        # The new placement restarts the run of resident blocks.
        _step_and_check(cluster, 4, 2)
        assert "arrival" in cluster.counter_window_view(2)
        assert "vm0" not in cluster.counter_window_view(2)

    def test_migration(self):
        cluster = _cluster()
        cluster.counter_window_view(2)
        _step_and_check(cluster, 3, 2)
        cluster.migrate_vm("vm5", "pm2")
        _step_and_check(cluster, 3, 2)
        assert cluster.host_of("vm5") == "pm2"

    def test_drained_empty_host(self):
        cluster = _cluster()
        cluster.counter_window_view(1)
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


class TestFallbacks:
    def test_short_history_limit_falls_back_and_warns_once(self):
        cluster = _cluster(history_limit=2)
        cluster.counter_window_view(1)
        for _ in range(5):
            cluster.step()
        with pytest.warns(RuntimeWarning, match="history_limit=2") as caught:
            view = cluster.counter_window_view(3)
        warned = {str(w.message).split("'")[1] for w in caught}
        assert warned == {"pm0", "pm1", "pm3"}
        for _ in range(4):
            cluster.step()
        # Three resident blocks now, yet the limit still sends the read
        # to the per-host assembly, which stays silent the second time.
        assert cluster._resident_blocks(3) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            view = cluster.counter_window_view(3)
            reference = cluster._host_window_view(3)
        assert view.vm_names == reference.vm_names
        assert np.array_equal(view.window_sum, reference.window_sum)

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
            _assert_reads_match(cluster, 1, served=False)

    def test_scalar_substrate_totals_unavailable(self):
        cluster = _cluster(substrate="scalar")
        for _ in range(3):
            cluster.step()
            _assert_reads_match(cluster, 1, served=False)
        assert cluster.latest_counter_totals() is None

    def test_direct_host_step_falls_back(self):
        cluster = _cluster()
        cluster.counter_window_view(2)
        _step_and_check(cluster, 3, 2)
        cluster.hosts["pm1"].step()
        _assert_reads_match(cluster, 2, served=False)
        _assert_reads_match(cluster, 1, served=False)
        # The next batch epochs rebuild the run.
        _step_and_check(cluster, 3, 2)


def test_smoothing_window_of_three_through_deepdive():
    """DeepDive's batch engine reads three-epoch windows off the blocks
    and decides exactly as the scalar engine does."""
    from repro.core.config import DeepDiveConfig
    from repro.core.deepdive import DeepDive

    cluster = _cluster()
    deepdive = DeepDive(cluster, config=DeepDiveConfig(smoothing_epochs=3))
    for epoch in range(6):
        cluster.step()
        batch = deepdive.run_epoch(analyze=False, learn=False, engine="batch")
        scalar = deepdive.run_epoch(analyze=False, learn=False, engine="scalar")
        assert batch.observations == scalar.observations
        # The first read deepens the ring; three epochs later it serves.
        assert (cluster._resident_blocks(3) is not None) == (epoch >= 3)
