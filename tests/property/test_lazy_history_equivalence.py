"""Counter-ring / eager-history equivalence properties.

The cluster's counter ring (:mod:`repro.metrics.store`) must be a pure
optimisation of the eager per-VM sample history: identical warning
decisions, identical :class:`~repro.fleet.fleet.FleetRunSummary`
aggregates, and **bit-identical** materialised ``CounterSample``
windows — for every hardware substrate and shard execution strategy.

The eager reference is a fleet whose hosts track ground truth
(``track_performance=True``): every epoch's samples are kept, under the
same amortised trim, in ``performance_history[vm][i].counters``,
independently of the ring (``counter_reference``).  The reference and
the plain fleet are built from the same seed, so any divergence is a
ring bug, not noise.

The process strategy's shard state lives in worker processes, so its
host histories are not reachable from the parent; its decisions and
run summaries are compared here, and the existing parallel-fleet suite
already pins process == serial bit-identity at the state level.
"""

import numpy as np
from counter_reference import assert_fleet_matches_reference, reference_windows
from fleet_reference import decision_key, summary_key
from scalar_reference import use_scalar_substrate

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    FleetRunSummary,
    InterferenceEpisode,
    RunOptions,
    build_fleet,
    synthesize_datacenter,
)

EPISODES = [
    InterferenceEpisode(
        shard=0, host_index=0, start_epoch=2, end_epoch=5, kind="memory"
    ),
    InterferenceEpisode(
        shard=1, host_index=1, start_epoch=3, end_epoch=6, kind="network"
    ),
]


def _config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
        smoothing_epochs=2,
    )


def _build(track_performance, substrate="batch", executor=None, max_workers=None):
    scenario = synthesize_datacenter(
        16, num_shards=2, seed=23, episodes=EPISODES
    )
    fleet = build_fleet(
        scenario,
        config=_config(),
        mitigate=True,
        executor=executor,
        max_workers=max_workers,
        track_performance=track_performance,
    )
    if substrate == "scalar":
        use_scalar_substrate(fleet)
    fleet.bootstrap()
    return fleet


def _run(fleet, epochs=8):
    """Run ``epochs`` epochs, returning per-epoch decisions + summary."""
    summary = FleetRunSummary()
    decisions = []
    try:
        for _ in range(epochs):
            report = fleet.run_epoch()
            decisions.append(decision_key(report))
            summary.accumulate(report)
    finally:
        fleet.shutdown()
    return decisions, summary


REFERENCE = True
RING = False


def _assert_histories_bit_identical(fleet_a, fleet_b):
    for shard_id, shard_a in fleet_a.shards.items():
        shard_b = fleet_b.shards[shard_id]
        for host_name, host_a in shard_a.cluster.hosts.items():
            host_b = shard_b.cluster.hosts[host_name]
            assert set(host_a.counter_history) == set(host_b.counter_history)
            for vm_name, history_a in host_a.counter_history.items():
                history_b = host_b.counter_history[vm_name]
                assert len(history_a) == len(history_b), (
                    f"{shard_id}/{host_name}/{vm_name} history lengths differ"
                )
                for t, (a, b) in enumerate(zip(history_a, history_b)):
                    assert a == b, (
                        f"{shard_id}/{host_name}/{vm_name} epoch {t} "
                        "materialised samples differ"
                    )


def _assert_windows_bit_identical(fleet_a, fleet_b, windows=(1, 2, 3, 5)):
    for shard_id, shard_a in fleet_a.shards.items():
        cluster_a = shard_a.cluster
        cluster_b = fleet_b.shards[shard_id].cluster
        for window in windows:
            wins_a = reference_windows(cluster_a, window)
            wins_b = reference_windows(cluster_b, window)
            assert set(wins_a) == set(wins_b)
            for vm_name, samples_a in wins_a.items():
                assert samples_a == wins_b[vm_name], (
                    f"{shard_id}/{vm_name} window={window} samples differ"
                )
            view_a = cluster_a.counter_window_view(window)
            view_b = cluster_b.counter_window_view(window)
            assert view_a.vm_names == view_b.vm_names
            assert np.array_equal(view_a.latest, view_b.latest)
            assert np.array_equal(view_a.window_sum, view_b.window_sum)


class TestLazyHistoryEquivalence:
    def test_batch_substrate_serial(self):
        """The core contract: ring == eager through bootstrap, an
        interference episode, analyses and mitigation migrations."""
        eager = _build(REFERENCE)
        lazy = _build(RING)
        decisions_e, summary_e = _run(eager)
        decisions_l, summary_l = _run(lazy)
        for epoch, (a, b) in enumerate(zip(decisions_e, decisions_l)):
            assert a == b, f"decisions diverge at epoch {epoch}"
        assert summary_key(summary_e) == summary_key(summary_l)
        assert summary_e.confirmed_interference > 0, (
            "the injected episodes must be detected"
        )
        assert_fleet_matches_reference(eager, windows=(1, 2, 3, 5))
        _assert_histories_bit_identical(eager, lazy)
        _assert_windows_bit_identical(eager, lazy)

    def test_scalar_substrate_serial(self):
        """Scalar-substrate epochs write the same ring rows: histories and
        windows equal the eager reference there too."""
        eager = _build(REFERENCE, substrate="scalar")
        lazy = _build(RING, substrate="scalar")
        decisions_e, summary_e = _run(eager, epochs=6)
        decisions_l, summary_l = _run(lazy, epochs=6)
        assert decisions_e == decisions_l
        assert summary_key(summary_e) == summary_key(summary_l)
        assert_fleet_matches_reference(eager, windows=(1, 3))
        _assert_histories_bit_identical(eager, lazy)
        _assert_windows_bit_identical(eager, lazy, windows=(1, 3))

    def test_process_executor(self):
        """State-owning process workers (columnar exchange) over lazy
        histories match the eager serial reference's decisions and run
        summary; worker-side state equivalence is pinned by the
        parallel-fleet suite."""
        eager = _build(REFERENCE)
        lazy = _build(RING, executor="process", max_workers=2)
        decisions_e, summary_e = _run(eager, epochs=6)
        decisions_l, summary_l = _run(lazy, epochs=6)
        for epoch, (a, b) in enumerate(zip(decisions_e, decisions_l)):
            assert a == b, f"decisions diverge at epoch {epoch}"
        assert summary_key(summary_e) == summary_key(summary_l)

    def test_migration_flushes_and_stays_identical(self):
        """An explicit mid-run migration frees the VM's slot on its old
        host and takes one on the new; materialised histories must
        remain bit-identical."""
        eager = _build(REFERENCE)
        lazy = _build(RING)
        for _ in range(3):
            eager.run_epoch(RunOptions(analyze=False))
            lazy.run_epoch(RunOptions(analyze=False))
        for fleet in (eager, lazy):
            cluster = fleet.shards["shard0"].cluster
            vm_name = sorted(cluster.all_vms())[0]
            source = cluster.host_of(vm_name)
            destination = next(
                h
                for h in cluster.hosts
                if h != source
                and cluster.hosts[h].can_fit(
                    cluster.hosts[source].get_vm(vm_name)
                )
            )
            cluster.migrate_vm(vm_name, destination)
        for _ in range(3):
            eager.run_epoch(RunOptions(analyze=False))
            lazy.run_epoch(RunOptions(analyze=False))
        assert_fleet_matches_reference(eager, windows=(1, 2, 4))
        _assert_histories_bit_identical(eager, lazy)
        _assert_windows_bit_identical(eager, lazy, windows=(1, 2, 4))
