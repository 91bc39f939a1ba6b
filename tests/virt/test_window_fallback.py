"""Coverage for ``counter_window_view`` fallback behaviour.

The columnar window fast path must refuse (and the cluster must warn,
once per host) when a ``history_limit`` shorter than the requested
window trims the smoothing windows — previously a silent fallback.
Mixed ``track_performance`` hosts exercise both epoch-commit paths
(full outcomes vs. lean block ingest) feeding one view.
"""

import warnings

import numpy as np
import pytest
from counter_reference import reference_windows

from repro.metrics.normalization import windows_to_counter_matrix
from repro.virt.cluster import Cluster
from repro.virt.vm import VirtualMachine
from repro.workloads.cloud import DataServingWorkload, WebSearchWorkload


def _cluster(history_limit=None, track_performance=True, num_hosts=2):
    cluster = Cluster(
        num_hosts=num_hosts,
        seed=11,
        track_performance=track_performance,
        history_limit=history_limit,
    )
    cluster.place_vm(
        VirtualMachine("vm-a", DataServingWorkload(seed=1), vcpus=2), "pm0",
        load=0.6,
    )
    cluster.place_vm(
        VirtualMachine("vm-b", WebSearchWorkload(seed=2), vcpus=2), "pm0",
        load=0.5,
    )
    cluster.place_vm(
        VirtualMachine("vm-c", DataServingWorkload(seed=3), vcpus=2), "pm1",
        load=0.4,
    )
    return cluster


def _assert_view_matches_samples(cluster, window):
    view = cluster.counter_window_view(window)
    windows = reference_windows(cluster, window)
    assert set(view.vm_names) == set(windows)
    for vm_name, samples in windows.items():
        i = view.index[vm_name]
        expected = windows_to_counter_matrix([samples])
        latest = windows_to_counter_matrix([samples[-1:]])
        np.testing.assert_array_equal(view.window_sum[i], expected[0])
        np.testing.assert_array_equal(view.latest[i], latest[0])


class TestShortHistoryFallback:
    def test_warns_once_per_host_and_stays_equivalent(self):
        cluster = _cluster(history_limit=2)
        for _ in range(6):
            cluster.step()
        with pytest.warns(RuntimeWarning, match="history_limit=2") as caught:
            _assert_view_matches_samples(cluster, window=4)
        messages = [str(w.message) for w in caught]
        assert any("'pm0'" in m for m in messages)
        assert any("'pm1'" in m for m in messages)
        # One warning per host, ever: a second read stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_view_matches_samples(cluster, window=4)

    def test_covered_window_does_not_warn(self):
        cluster = _cluster(history_limit=8)
        for _ in range(5):
            cluster.step()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_view_matches_samples(cluster, window=3)

    def test_unlimited_history_does_not_warn(self):
        cluster = _cluster(history_limit=None)
        for _ in range(3):
            cluster.step()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Larger than the recorded history: per-VM fallback without
            # any limit-induced trimming, so no warning.
            _assert_view_matches_samples(cluster, window=10)


class TestMixedTrackPerformanceHosts:
    def test_mixed_commit_paths_serve_one_view(self):
        """Hosts with and without ground-truth tracking (full
        ``commit_epoch`` vs lean ``commit_epoch_block``) feed the same
        columnar view, with and without the trimming fallback."""
        cluster = _cluster(history_limit=3, track_performance=True)
        cluster.hosts["pm1"].track_performance = False
        for _ in range(7):
            results = cluster.step()
        # Tracking host reports ground truth; lean host reports nothing.
        assert results["pm0"] and not results["pm1"]
        assert cluster.hosts["pm1"].performance_history["vm-c"] == []
        # Fast path (window <= limit) over both commit paths.
        _assert_view_matches_samples(cluster, window=2)
        # Trimmed fallback (window > limit) warns for both hosts.
        with pytest.warns(RuntimeWarning) as caught:
            _assert_view_matches_samples(cluster, window=5)
        messages = [str(w.message) for w in caught]
        assert any("'pm0'" in m for m in messages)
        assert any("'pm1'" in m for m in messages)
