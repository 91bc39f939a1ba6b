"""Process-executor sharp edges: shared-memory transport, worker
lifecycle, stats collection and counter-total semantics.

The bit-identity of process execution is pinned by
``tests/integration/test_parallel_fleet.py`` and the property suites;
this module covers the transport machinery itself (layout roundtrip,
double-buffer validity window, churn regrow, segment cleanup) and the
failure-path contracts: no cold worker spawn just to read template
statistics, a named ``RuntimeError`` instead of a raw ``KeyError`` on an
inconsistent worker shard set, recovery after a killed worker, and the
counter-totals contract (empty shards, both substrates).
"""

import os
import signal
import time

import numpy as np
import pytest
from fleet_reference import WorkerPids

from repro.core.config import DeepDiveConfig
from repro.fleet import RunOptions, build_fleet, synthesize_datacenter
from repro.fleet.executor import (
    ColumnarFleetReport,
    ColumnarShardReport,
    ProcessShardExecutor,
    _collect_from_shards,
)
from repro.fleet.faults import FaultPlan, WorkerFault
from repro.fleet.shm import (
    SEGMENT_PREFIX,
    ShmBlockReader,
    ShmBlockWriter,
    unlink_worker_segments,
)
from repro.fleet.supervisor import FaultPolicy
from repro.hardware.batch import N_COUNTERS


def _config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )


def _tiny_process_fleet(max_workers=2, num_vms=16, num_shards=2, **fault_kwargs):
    scenario = synthesize_datacenter(num_vms, num_shards=num_shards, seed=21)
    return build_fleet(
        scenario,
        config=_config(),
        engine="batch",
        mitigate=False,
        executor="process",
        max_workers=max_workers,
        **fault_kwargs,
    )


def _columnar_report(shard_id, n, seed, counters=True):
    rng = np.random.default_rng(seed)
    return ColumnarShardReport(
        shard_id=shard_id,
        epoch=0,
        vm_names=tuple(f"{shard_id}-vm{i}" for i in range(n)),
        action_codes=rng.integers(0, 4, n).astype(np.int8),
        distances=rng.uniform(0, 9, n),
        siblings_consulted=rng.integers(0, 7, n).astype(np.int32),
        siblings_agreeing=rng.integers(0, 7, n).astype(np.int32),
        analyzed=rng.uniform(size=n) < 0.5,
        confirmed=rng.uniform(size=n) < 0.2,
        counter_totals=rng.uniform(1, 1e6, N_COUNTERS) if counters else None,
    )


def _assert_report_equal(received, sent):
    assert received.shard_id == sent.shard_id
    assert received.vm_names == sent.vm_names
    for attr in (
        "action_codes",
        "distances",
        "siblings_consulted",
        "siblings_agreeing",
        "analyzed",
        "confirmed",
    ):
        assert np.array_equal(getattr(received, attr), getattr(sent, attr))
        assert getattr(received, attr).dtype == getattr(sent, attr).dtype
    if sent.counter_totals is None:
        assert received.counter_totals is None
    else:
        assert np.array_equal(received.counter_totals, sent.counter_totals)


class TestShmTransport:
    def test_roundtrip_preserves_arrays_bitwise(self):
        writer = ShmBlockWriter(n_shards=3)
        reader = ShmBlockReader()
        try:
            sent = [
                _columnar_report("s0", 7, seed=1),
                _columnar_report("s1", 0, seed=2),  # an emptied-out shard
                _columnar_report("s2", 11, seed=3, counters=False),
            ]
            received = reader.read(writer.write(0, sent))
            assert [shard_id for shard_id, _ in received] == ["s0", "s1", "s2"]
            for (_, got), want in zip(received, sent):
                _assert_report_equal(got, want)
        finally:
            reader.close()
            writer.close()
        assert WorkerPids().leaked() == []

    def test_double_buffering_keeps_previous_epoch_valid(self):
        """Epoch ``e`` views must survive epoch ``e + 1`` (the documented
        validity window) and the two epochs must land in different
        buffers of different segments."""
        writer = ShmBlockWriter(n_shards=1)
        reader = ShmBlockReader()
        try:
            first = _columnar_report("s0", 5, seed=4)
            second = _columnar_report("s0", 5, seed=5)
            desc0 = writer.write(0, [first])
            (_, view0) = reader.read(desc0)[0]
            desc1 = writer.write(1, [second])
            (_, view1) = reader.read(desc1)[0]
            assert desc0.buffer_index != desc1.buffer_index
            assert desc0.segment != desc1.segment
            _assert_report_equal(view0, first)  # still intact
            _assert_report_equal(view1, second)
            # Epoch 2 reuses buffer 0 and overwrites epoch 0 in place.
            third = _columnar_report("s0", 5, seed=6)
            desc2 = writer.write(2, [third])
            assert desc2.buffer_index == desc0.buffer_index
            assert desc2.segment == desc0.segment
            _assert_report_equal(view0, third)
        finally:
            reader.close()
            writer.close()
        assert WorkerPids().leaked() == []

    def test_regrow_handshake_replaces_and_unlinks_segment(self):
        """Growing past capacity allocates a fresh segment; the parent
        remaps on the next descriptor and unlinks the replaced one."""
        writer = ShmBlockWriter(n_shards=1, slack_fraction=0.0, min_slack_rows=0)
        reader = ShmBlockReader()
        try:
            small = _columnar_report("s0", 4, seed=7)
            desc0 = writer.write(0, [small])
            reader.read(desc0)
            desc1 = writer.write(1, [small])
            reader.read(desc1)
            # Two live segments (one per buffer), zero slack.
            assert len(WorkerPids().leaked()) == 2
            grown = _columnar_report("s0", 9, seed=8)
            desc2 = writer.write(2, [grown])
            assert desc2.buffer_index == desc0.buffer_index
            assert desc2.segment != desc0.segment
            assert desc2.capacity_rows >= 9
            (_, got) = reader.read(desc2)[0]
            _assert_report_equal(got, grown)
            # The replaced segment is gone from /dev/shm; the pair of
            # live ones remains.
            live = WorkerPids().leaked()
            assert len(live) == 2
            assert not any(desc0.segment == name for name in live)
        finally:
            reader.close()
            writer.close()
        assert WorkerPids().leaked() == []

    def test_segment_names_carry_the_leak_probe_prefix(self):
        writer = ShmBlockWriter(n_shards=1)
        try:
            desc = writer.write(0, [_columnar_report("s0", 2, seed=9)])
            assert desc.segment.startswith(SEGMENT_PREFIX)
            assert desc.segment in WorkerPids().leaked()
        finally:
            # Creator-side close releases the handle; the name must
            # still be unlinkable by the (here: same-process) reader.
            reader = ShmBlockReader()
            reader.read(desc)
            reader.close()
            writer.close()
        assert WorkerPids().leaked() == []


class TestCollectWithoutWorkers:
    def test_stats_on_virgin_process_fleet_does_not_spawn(self):
        """Template statistics must not cold-spawn every worker pool."""
        fleet = _tiny_process_fleet()
        try:
            stats = fleet.stats()
            detections = fleet.detections()
            assert fleet._strategy is None or not fleet._strategy.started
            assert stats["vms"] == float(fleet.total_vms())
            assert detections == []
        finally:
            fleet.shutdown()

    def test_executor_collect_serves_template_before_start(self):
        fleet = _tiny_process_fleet()
        try:
            strategy = fleet._shard_strategy()
            assert isinstance(strategy, ProcessShardExecutor)
            collected = strategy.collect()
            assert not strategy.started, "collect() must not spawn workers"
            assert set(collected) == set(fleet.shards)
            for shard_id, shard in fleet.shards.items():
                assert collected[shard_id]["vms"] == len(shard.cluster.all_vms())
                assert collected[shard_id]["detections"] == []
        finally:
            fleet.shutdown()

    def test_collect_after_shutdown_serves_final(self):
        """After shutdown the executor serves the live statistics it
        collected on the way down, not the start-of-run template."""
        fleet = _tiny_process_fleet(max_workers=1, num_vms=8)
        try:
            fleet.bootstrap()
            fleet.run_epoch(RunOptions(analyze=False))
            strategy = fleet._strategy
            live = strategy.collect()
        finally:
            fleet.shutdown()
        template = _collect_from_shards(fleet.shards, fleet.lifecycle)
        # The bootstrap ran in the worker: only the live state learned.
        assert all(stats["repository_bytes"] > 0 for stats in live.values())
        assert all(stats["repository_bytes"] == 0 for stats in template.values())
        assert strategy.collect() == live
        assert fleet.stats()["repository_bytes"] == sum(
            stats["repository_bytes"] for stats in live.values()
        )

    def test_collect_raises_if_final_collect_failed(self, monkeypatch):
        fleet = _tiny_process_fleet(max_workers=1, num_vms=8)
        fleet.run_epoch(RunOptions(analyze=False))
        strategy = fleet._strategy

        def explode():
            raise ValueError("worker result did not unpickle")

        monkeypatch.setattr(strategy, "collect", explode)
        fleet.shutdown()
        monkeypatch.undo()
        with pytest.raises(RuntimeError, match="final statistics collect") as info:
            strategy.collect()
        assert isinstance(info.value.__cause__, ValueError)
        assert WorkerPids(fleet).leaked() == []


class TestOrderedMergeValidation:
    def _executor(self):
        shards = {"s0": object(), "s1": object(), "s2": object()}
        return ProcessShardExecutor(shards, [], groups=[["s0", "s2"], ["s1"]])

    def _result(self, shard_id, names=("a", "b")):
        report = _columnar_report(shard_id, len(names), seed=11)
        return report

    def test_missing_shard_raises_named_runtime_error(self):
        executor = self._executor()
        merged = {"s0": self._result("s0"), "s2": self._result("s2")}
        with pytest.raises(RuntimeError, match=r"missing: \['s1'\]"):
            executor._ordered_merge(3, merged)
        assert executor._broken
        with pytest.raises(RuntimeError, match="lock step"):
            executor.run_shard_epochs(4, analyze=False)

    def test_unexpected_shard_raises_named_runtime_error(self):
        executor = self._executor()
        merged = {
            sid: self._result(sid) for sid in ("s0", "s1", "s2", "rogue")
        }
        with pytest.raises(RuntimeError, match=r"unexpected: \['rogue'\]"):
            executor._ordered_merge(0, merged)
        assert executor._broken

    def test_elided_names_without_cache_raise_runtime_error(self):
        executor = self._executor()
        merged = {sid: self._result(sid) for sid in ("s0", "s1", "s2")}
        merged["s1"].vm_names = None
        with pytest.raises(RuntimeError, match="'s1'"):
            executor._ordered_merge(0, merged)
        assert executor._broken

    def test_complete_set_merges_in_insertion_order(self):
        executor = self._executor()
        merged = {sid: self._result(sid) for sid in ("s2", "s0", "s1")}
        out = executor._ordered_merge(0, merged)
        assert list(out) == ["s0", "s1", "s2"]
        assert not executor._broken


def _serial_fleet(substrate="batch"):
    scenario = synthesize_datacenter(16, num_shards=2, seed=21)
    fleet = build_fleet(scenario, config=_config(), substrate=substrate)
    fleet.bootstrap()
    return fleet


_TOTALS_EPOCH = RunOptions(analyze=False)


class TestCounterTotalsContract:
    def test_emptied_out_shard_reports_explicit_zeros(self):
        """Mass departures leave zeros, not 'telemetry unavailable'."""
        fleet = _serial_fleet()
        try:
            cluster = fleet.shards["shard0"].cluster
            fleet.run_epoch(_TOTALS_EPOCH)
            for vm_name in list(cluster.all_vms()):
                cluster.remove_vm(vm_name)
            report = fleet.run_epoch(_TOTALS_EPOCH)
            totals = report.shard_reports["shard0"].counter_totals
            assert totals is not None
            assert np.array_equal(totals, np.zeros(N_COUNTERS))
            assert np.any(report.shard_reports["shard1"].counter_totals > 0)
        finally:
            fleet.shutdown()

    def test_scalar_shard_totals_match_batch(self):
        """Scalar-substrate shards report totals too, equal to the batch
        substrate's within the substrate contract's 1e-9 relative
        tolerance; totals are unavailable only before the first epoch."""
        fleets = [_serial_fleet("scalar"), _serial_fleet("batch")]
        try:
            for fleet in fleets:
                for shard in fleet.shards.values():
                    assert shard.cluster.latest_counter_totals() is None
            for _ in range(3):
                scalar, batch = (fleet.run_epoch(_TOTALS_EPOCH) for fleet in fleets)
                for shard_id, report in scalar.shard_reports.items():
                    want = batch.shard_reports[shard_id].counter_totals
                    assert report.counter_totals is not None
                    np.testing.assert_allclose(
                        report.counter_totals, want, rtol=1e-9, atol=0.0
                    )
        finally:
            for fleet in fleets:
                fleet.shutdown()

    def test_fleet_totals_skip_unavailable_shards(self):
        """One scalar-substrate shard must not null every other shard's
        telemetry."""
        with_data = _columnar_report("s0", 3, seed=12)
        without = _columnar_report("s1", 3, seed=13, counters=False)
        report = ColumnarFleetReport(
            epoch=0, shard_reports={"s0": with_data, "s1": without}
        )
        assert np.array_equal(report.counter_totals(), with_data.counter_totals)

    def test_fleet_totals_none_only_when_no_shard_has_telemetry(self):
        report = ColumnarFleetReport(
            epoch=0,
            shard_reports={
                "s0": _columnar_report("s0", 2, seed=14, counters=False),
                "s1": _columnar_report("s1", 2, seed=15, counters=False),
            },
        )
        assert report.counter_totals() is None

    def test_fleet_totals_sum_available_shards(self):
        a = _columnar_report("s0", 2, seed=16)
        b = _columnar_report("s1", 2, seed=17)
        report = ColumnarFleetReport(epoch=0, shard_reports={"s0": a, "s1": b})
        assert np.allclose(
            report.counter_totals(), a.counter_totals + b.counter_totals
        )


class TestInTransitReport:
    def test_confirmed_rows_need_vm_names(self):
        """A report whose name table was elided in transit cannot name
        its confirmed rows; the error says so instead of IndexError."""
        report = _columnar_report("s7", 6, seed=21)
        report.confirmed[:] = False
        report.confirmed[3] = True
        report.epoch = 42
        report.vm_names = None
        with pytest.raises(ValueError, match="vm_names is elided in transit") as err:
            report.confirmed_interference()
        assert "'s7'" in str(err.value) and "epoch 42" in str(err.value)
        assert report.confirmed_count() == 1

    def test_no_confirmed_rows_need_no_names(self):
        report = _columnar_report("s7", 4, seed=22)
        report.confirmed[:] = False
        report.vm_names = None
        assert report.confirmed_interference() == []


class TestWorkerFailureRecovery:
    def test_killed_worker_breaks_run_but_not_cleanup(self):
        """Kill a worker mid-run: the epoch fails, the executor stays
        broken, shutdown still succeeds and no shared-memory segments
        leak."""
        fleet = _tiny_process_fleet(max_workers=2, num_vms=16)
        pids = WorkerPids()
        try:
            fleet.run_epoch(RunOptions(analyze=False))
            pids.note(fleet)
            strategy = fleet._strategy
            assert pids.leaked(), "epochs must use shm transport"
            victim = strategy.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # Give the pool's management thread a moment to notice.
            deadline = time.monotonic() + 5.0
            with pytest.raises(RuntimeError):
                while True:
                    fleet.run_epoch(RunOptions(analyze=False))
                    assert time.monotonic() < deadline, (
                        "epochs kept succeeding after the worker was killed"
                    )
            # The run is now refused deterministically.
            with pytest.raises(RuntimeError, match="lock step"):
                fleet.run_epoch(RunOptions(analyze=False))
        finally:
            fleet.shutdown()
        # Cleanup must be complete despite the kill: pools released,
        # every transport segment unlinked, statistics still served
        # (from the template fallback, without raising).
        assert pids.leaked() == []
        assert fleet.stats()["shards"] == 2.0


class TestShutdownHardening:
    """``shutdown()`` must be idempotent and failure-proof (PR 8).

    A long-lived service calls shutdown from ``finally`` blocks, signal
    handlers and context-manager exits — possibly several times,
    possibly after the run already broke.  Every path must release the
    pools and unlink the shm transport segments exactly once, quietly.
    """

    def test_double_shutdown_after_worker_death_is_noop(self):
        fleet = _tiny_process_fleet(max_workers=2, num_vms=16)
        pids = WorkerPids()
        try:
            fleet.run_epoch(options=RunOptions(analyze=False))
            pids.note(fleet)
            victim = fleet._strategy.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            with pytest.raises(RuntimeError):
                while True:
                    fleet.run_epoch(
                        options=RunOptions(analyze=False)
                    )
                    assert time.monotonic() < deadline
        finally:
            fleet.shutdown()
        # Shutdown again (and again): both must be clean no-ops.
        fleet.shutdown()
        fleet.shutdown()
        assert pids.leaked() == []
        assert fleet.stats()["shards"] == 2.0

    def test_shutdown_survives_non_runtime_collect_failure(self, monkeypatch):
        """A final collect failing with something harsher than a broken
        pool (unpicklable result, OSError...) must not leak the pools or
        the shm segments — the old code only caught RuntimeError."""
        fleet = _tiny_process_fleet(max_workers=2, num_vms=16)
        fleet.run_epoch(options=RunOptions(analyze=False))
        pids = WorkerPids(fleet)
        strategy = fleet._strategy
        assert pids.leaked(), "epochs must use shm transport"

        def explode():
            raise ValueError("worker result did not unpickle")

        monkeypatch.setattr(strategy, "collect", explode)
        fleet.shutdown()  # must not raise
        assert strategy._pools is None, "pools must be released"
        assert pids.leaked() == []
        fleet.shutdown()  # and stay a no-op afterwards

    def test_snapshot_refused_after_worker_death(self):
        """A broken executor cannot vouch for its state: snapshotting it
        must fail loudly instead of checkpointing garbage."""
        fleet = _tiny_process_fleet(max_workers=2, num_vms=16)
        pids = WorkerPids()
        try:
            fleet.run_epoch(options=RunOptions(analyze=False))
            pids.note(fleet)
            os.kill(fleet._strategy.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            with pytest.raises(RuntimeError):
                while True:
                    fleet.run_epoch(
                        options=RunOptions(analyze=False)
                    )
                    assert time.monotonic() < deadline
            with pytest.raises(RuntimeError, match="snapshot|checkpoint"):
                fleet.snapshot()
        finally:
            fleet.shutdown()
        assert pids.leaked() == []

    def test_snapshot_before_start_uses_parent_template(self):
        """A never-started process fleet snapshots its local template
        (nothing to fetch from workers — none exist yet)."""
        fleet = _tiny_process_fleet(max_workers=2, num_vms=16)
        checkpoint = fleet.snapshot()
        assert checkpoint.epoch == 0
        assert checkpoint.meta["executor"] == "process"
        assert list(checkpoint.meta["shard_ids"]) == list(fleet.shards)
        fleet.shutdown()
        assert fleet.worker_health() == []
        assert WorkerPids().leaked() == []

    def test_snapshot_after_shutdown_is_refused(self):
        fleet = _tiny_process_fleet(max_workers=2, num_vms=16)
        fleet.run_epoch(options=RunOptions(analyze=False))
        fleet.shutdown()
        with pytest.raises(RuntimeError, match="shut.?down"):
            fleet.snapshot()
        assert WorkerPids(fleet).leaked() == []


class TestOrphanSegmentSweep:
    """PR 9's regrow-orphan fix: a worker that dies *between* allocating
    a new-generation segment and the parent remapping it used to leave
    that name in ``/dev/shm`` until interpreter exit (only the resource
    tracker reclaimed it).  Segment names embed the creator's pid, so
    the executor's failure paths now sweep them by name."""

    def test_unshipped_regrow_segment_is_swept_by_pid(self):
        writer = ShmBlockWriter(n_shards=1, slack_fraction=0.0, min_slack_rows=0)
        reader = ShmBlockReader()
        try:
            small = _columnar_report("s0", 4, seed=31)
            reader.read(writer.write(0, [small]))
            reader.read(writer.write(1, [small]))
            # The regrow allocates a new-generation segment for buffer
            # 0 — and the "worker" dies before the parent reads the
            # descriptor, so the reader never remaps onto it.
            orphan = writer.write(2, [_columnar_report("s0", 9, seed=32)])
            attached = reader.segment_names()
            assert orphan.segment not in attached
            removed = unlink_worker_segments(os.getpid(), skip=attached)
            assert removed == [orphan.segment]
            # The reader-owned names survived the sweep untouched.
            assert WorkerPids().leaked() == sorted(attached)
        finally:
            reader.close()
            writer.close()
        assert WorkerPids().leaked() == []

    def test_sweep_only_touches_the_given_pid(self):
        writer = ShmBlockWriter(n_shards=1)
        try:
            desc = writer.write(0, [_columnar_report("s0", 3, seed=33)])
            assert unlink_worker_segments(os.getpid() + 1) == []
            assert desc.segment in WorkerPids().leaked()
        finally:
            reader = ShmBlockReader()
            reader.read(desc)
            reader.close()
            writer.close()
        assert WorkerPids().leaked() == []


class TestUnsupervisedFaultPaths:
    """Without a :class:`FaultPolicy` the PR 6 semantics stand — detect
    and refuse — but the refusal must now clean up the dead worker's
    segments immediately and name the dead shards in the errors."""

    def test_kill_after_write_breaks_run_and_sweeps_segments(self):
        fleet = _tiny_process_fleet(
            max_workers=2,
            fault_plan=FaultPlan(
                faults=(WorkerFault(kind="kill", worker=0, epoch=1, point="after"),)
            ),
        )
        pids = WorkerPids()
        try:
            fleet.run_epoch(options=RunOptions(analyze=False))
            pids.note(fleet)
            # The kill fires after the buffers are written:
            # the orphaned segments must be swept with the failure.
            with pytest.raises(RuntimeError):
                fleet.run_epoch(
                    options=RunOptions(analyze=False)
                )
            with pytest.raises(RuntimeError, match="lock step"):
                fleet.run_epoch(
                    options=RunOptions(analyze=False)
                )
        finally:
            fleet.shutdown()
        assert pids.leaked() == []

    def test_snapshot_error_names_dead_shards_and_resume_path(self):
        """The broken-fleet snapshot refusal tells the operator *which*
        shards died with the worker and how to get the run back."""
        fleet = _tiny_process_fleet(
            max_workers=2,
            fault_plan=FaultPlan(
                faults=(WorkerFault(kind="kill", worker=0, epoch=1, point="mid"),)
            ),
        )
        pids = WorkerPids()
        try:
            fleet.run_epoch(options=RunOptions(analyze=False))
            pids.note(fleet)
            with pytest.raises(RuntimeError):
                fleet.run_epoch(
                    options=RunOptions(analyze=False)
                )
            with pytest.raises(RuntimeError) as excinfo:
                fleet.snapshot()
            message = str(excinfo.value)
            assert "dead worker shards: shard0" in message
            assert "Fleet.resume" in message
        finally:
            fleet.shutdown()
        assert pids.leaked() == []


class TestHeartbeatHangDetection:
    def test_hung_worker_is_killed_and_recovered(self):
        """A worker that stops making epoch progress (here: a planned
        hang) trips the heartbeat deadline, is SIGKILLed and recovered
        exactly like a death — the run continues."""
        fleet = _tiny_process_fleet(
            max_workers=2,
            fault_policy=FaultPolicy(restarts=1, heartbeat_timeout=3.0),
            fault_plan=FaultPlan(
                faults=(
                    WorkerFault(kind="hang", worker=0, epoch=1, point="mid"),
                )
            ),
        )
        pids = WorkerPids()
        try:
            for _ in range(3):
                fleet.run_epoch(
                    options=RunOptions(analyze=False)
                )
                pids.note(fleet)
            health = fleet.worker_health()
            assert [row["restarts"] for row in health] == [1, 0]
            assert all(row["alive"] for row in health)
            assert fleet.stats()["epochs"] == 3.0
        finally:
            fleet.shutdown()
        assert pids.leaked() == []
