"""Parallel shard execution and memory-bounded fleet runs.

Shards share nothing, so a fleet's evolution must be bit-identical for
any execution strategy and ``max_workers`` value — state-owning worker
processes only change wall-clock, not results.
``keep_reports=False`` must aggregate exactly what the report list
would.
"""

import numpy as np
import pytest
from fleet_reference import decision_key, summary_key

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    FleetRunSummary,
    InterferenceEpisode,
    RunOptions,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)


def _config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )


def _build(max_workers, mitigate=True, executor=None):
    scenario = synthesize_datacenter(
        48,
        num_shards=4,
        seed=33,
        episodes=[
            InterferenceEpisode(
                shard=0, host_index=0, start_epoch=3, end_epoch=7, kind="memory"
            ),
            InterferenceEpisode(
                shard=2, host_index=1, start_epoch=4, end_epoch=8, kind="disk"
            ),
        ],
    )
    fleet = build_fleet(
        scenario,
        config=_config(),
        mitigate=mitigate,
        max_workers=max_workers,
        executor=executor,
    )
    fleet.bootstrap()
    return fleet


class TestParallelDeterminism:
    def test_worker_count_does_not_change_results(self):
        """max_workers=1 (serial) and max_workers=4 (process, inferred)
        produce bit-identical runs."""
        serial = _build(max_workers=1)
        parallel = _build(max_workers=4)
        assert parallel.executor == "process"
        try:
            for epoch in range(9):
                r1 = serial.run_epoch()
                r4 = parallel.run_epoch()
                assert r1.epoch == r4.epoch
                assert list(r1.shard_reports) == list(r4.shard_reports), (
                    "merge order must be shard insertion order"
                )
                assert decision_key(r1) == decision_key(r4), (
                    f"epoch {epoch} diverges between worker counts"
                )
            assert serial.stats() == parallel.stats()
            assert [
                (sid, e.vm_name, e.epoch) for sid, e in serial.detections()
            ] == [
                (sid, e.vm_name, e.epoch) for sid, e in parallel.detections()
            ]
            # Counter streams are bit-identical, not merely close.  The
            # parallel fleet's own shards are only the start-of-run
            # template; its live state comes back from the workers.
            live = {
                shard.shard_id: shard
                for shard in parallel.snapshot().state()["shards"]
            }
            assert list(live) == list(serial.shards)
            for sid, shard_s in serial.shards.items():
                shard_p = live[sid]
                for host_name, host_s in shard_s.cluster.hosts.items():
                    host_p = shard_p.cluster.hosts[host_name]
                    for vm_name, history_s in host_s.counter_history.items():
                        history_p = host_p.counter_history[vm_name]
                        assert len(history_s) == len(history_p)
                        for s, p in zip(history_s, history_p):
                            assert np.array_equal(
                                np.array(list(s.as_dict().values())),
                                np.array(list(p.as_dict().values())),
                            )
        finally:
            serial.shutdown()
            parallel.shutdown()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            _build(max_workers=0)

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            _build(max_workers=1, executor="fibers")


def _summary_fingerprint(summary):
    return summary_key(summary), decision_key(summary.final_report)


class TestProcessExecutorDeterminism:
    """``executor="process"`` must be a pure wall-clock optimisation.

    Workers own their shards' full simulation state (pickled once at
    start-up, including every RNG) and exchange only columnar epoch
    results, so a process fleet with any worker count must produce a
    bit-identical :class:`FleetRunSummary` — and identical detections,
    migrations and statistics — to the serial loop.
    """

    EPOCHS = 8

    def test_process_workers_bit_identical_to_serial(self):
        serial = _build(max_workers=1, executor="serial")
        reference = _summary_fingerprint(
            serial.run(self.EPOCHS, RunOptions(keep_reports=False))
        )
        serial_stats = serial.stats()
        serial_detections = [
            (sid, e.vm_name, e.epoch) for sid, e in serial.detections()
        ]
        serial_migrations = [
            (sid, e.vm_name, e.source, e.destination)
            for sid, e in serial.migrations()
        ]
        serial.shutdown()
        for workers in (1, 2, 4):
            fleet = _build(max_workers=workers, executor="process")
            try:
                summary = fleet.run(self.EPOCHS, RunOptions(keep_reports=False))
                assert _summary_fingerprint(summary) == reference, (
                    f"process run with {workers} workers diverges from serial"
                )
                assert fleet.stats() == serial_stats
                assert [
                    (sid, e.vm_name, e.epoch) for sid, e in fleet.detections()
                ] == serial_detections
                assert [
                    (sid, e.vm_name, e.source, e.destination)
                    for sid, e in fleet.migrations()
                ] == serial_migrations
            finally:
                fleet.shutdown()

    def test_shutdown_process_fleet_refuses_new_epochs(self):
        fleet = _build(max_workers=2, executor="process", mitigate=False)
        fleet.run_epoch(RunOptions(analyze=False))
        stats = fleet.stats()
        fleet.shutdown()
        # Statistics survive shutdown; new epochs would silently reset
        # worker state and are refused.
        assert fleet.stats() == stats
        with pytest.raises(RuntimeError):
            fleet.run_epoch(RunOptions(analyze=False))


def _churn_build(executor, max_workers=None):
    """A churning two-shard fleet with one memory interference episode."""
    scenario = synthesize_datacenter(
        16,
        num_shards=2,
        seed=23,
        episodes=[
            InterferenceEpisode(
                shard=1, host_index=1, start_epoch=2, end_epoch=5, kind="memory"
            )
        ],
        timeline=churn_timeline(
            ["shard0", "shard1"],
            epochs=6,
            seed=5,
            arrivals_per_epoch=1.0,
            mean_lifetime_epochs=3.0,
        ),
    )
    config = DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
        smoothing_epochs=2,
    )
    return build_fleet(
        scenario,
        config=config,
        mitigate=True,
        executor=executor,
        max_workers=max_workers,
    )


def _shard_state(shard):
    """Comparable fingerprint of one shard's simulation state."""
    cluster = shard.cluster
    deepdive = shard.deepdive
    totals = cluster.latest_counter_totals()
    return (
        {name: tuple(host.vms) for name, host in cluster.hosts.items()},
        [host.machine._rng.bit_generator.state for host in cluster.hosts.values()],
        None if totals is None else totals.tolist(),
        shard.baseline_loads,
        shard.detections(),
        shard.migrations(),
        deepdive.analyzer_invocations(),
        deepdive.total_profiling_seconds(),
        deepdive.repository_size_bytes(),
        deepdive.sandbox.clone_manager.clones_created,
    )


def _snapshot_states(fleet):
    shards = fleet.snapshot().state()["shards"]
    return {shard.shard_id: _shard_state(shard) for shard in shards}


def _surface(fleet):
    return (
        fleet.stats(),
        fleet.detections(),
        fleet.migrations(),
        fleet.lifecycle_stats(),
    )


class TestShardStateSurface:
    """Statistics, event logs, lifecycle counters and snapshots read the
    same on both executors, whether the fleet never ran, ran, or was
    shut down: each executor answers for the shard state it owns."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serial_and_process_fleets_report_alike(self, workers):
        serial = _churn_build("serial")
        process = _churn_build("process", max_workers=workers)
        try:
            # Never run: the process fleet serves its template and
            # spawns nothing to do so.
            assert _surface(process) == _surface(serial)
            assert _snapshot_states(process) == _snapshot_states(serial)
            assert process.worker_health() == []
            assert not process._strategy.started
            assert serial.worker_health() == []
            assert serial.quarantined_shards == ()

            for fleet in (serial, process):
                fleet.bootstrap()
                fleet.run(6, RunOptions(keep_reports=False))
            ran = _surface(serial)
            assert ran == _surface(process)
            assert ran[1] and ran[2], "the episode must be detected and mitigated"
            assert sum(c["arrivals_admitted"] for c in ran[3].values()) > 0
            live = _snapshot_states(process)
            assert live == _snapshot_states(serial)
            assert len(process.worker_health()) == workers
            assert serial.worker_health() == []
            assert serial.quarantined_shards == process.quarantined_shards == ()
        finally:
            serial.shutdown()
            process.shutdown()
        # Shut down: the process fleet answers from its final collect.
        assert _surface(process) == _surface(serial) == ran
        assert _snapshot_states(serial) == live
        with pytest.raises(RuntimeError, match="shut down"):
            process.snapshot()


class TestBaselineLoadPropagation:
    def test_direct_baseline_mutation_reaches_hosts(self):
        """Mutating shard.baseline_loads directly (the PR 1 interface)
        still changes host loads on the next epoch, despite the
        push-only-when-changed optimisation."""
        fleet = _build(max_workers=1, mitigate=False)
        shard = next(iter(fleet.shards.values()))
        vm_name = next(iter(shard.baseline_loads))
        cluster = shard.cluster
        fleet.run_epoch(RunOptions(analyze=False))
        host = cluster.hosts[cluster.host_of(vm_name)]
        assert host.get_load(vm_name) == shard.baseline_loads[vm_name]
        shard.baseline_loads[vm_name] = 0.123
        fleet.run_epoch(RunOptions(analyze=False))
        assert host.get_load(vm_name) == 0.123


class TestMemoryBoundedRun:
    def test_histories_stay_bounded(self):
        """Fleet hosts trim per-VM histories, so long runs hold constant
        memory (the default history_limit covers every consumer window)."""
        fleet = _build(max_workers=1, mitigate=False)
        fleet.run(12, RunOptions(analyze=False, keep_reports=False))
        limits = set()
        for shard in fleet.shards.values():
            for host in shard.cluster.hosts.values():
                limits.add(host.history_limit)
                for history in host.counter_history.values():
                    assert len(history) <= 2 * host.history_limit
        assert limits == {64}

    def test_summary_matches_report_list(self):
        """keep_reports=False aggregates exactly what the list would."""
        listed = _build(max_workers=1, mitigate=False)
        summarized = _build(max_workers=1, mitigate=False)
        reports = listed.run(9)
        summary = summarized.run(9, RunOptions(keep_reports=False))
        assert isinstance(summary, FleetRunSummary)
        assert summary.epochs == len(reports) == 9
        assert summary.observations == sum(r.observations() for r in reports)
        assert summary.analyzer_invocations == sum(
            r.analyzer_invocations() for r in reports
        )
        assert summary.confirmed_interference == sum(
            len(r.confirmed_interference()) for r in reports
        )
        expected_histogram = {}
        for r in reports:
            for action, count in r.action_histogram().items():
                expected_histogram[action] = expected_histogram.get(action, 0) + count
        assert summary.action_histogram == expected_histogram
        assert summary.final_report is not None
        assert summary.final_report.epoch == reports[-1].epoch
        assert decision_key(summary.final_report) == decision_key(
            reports[-1]
        )
