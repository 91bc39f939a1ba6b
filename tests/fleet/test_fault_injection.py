"""The deterministic fault-injection harness (chaos suite).

:mod:`repro.fleet.faults` is the controlled way to break a process
fleet's own workers: a seeded :class:`FaultPlan` schedules SIGKILLs,
hangs and shared-memory descriptor corruption/delays, injected either
programmatically (``build_fleet(fault_plan=...)``) or through the
``REPRO_FLEET_FAULT_PLAN`` environment hook the CI chaos leg uses.
This module pins the harness itself (plan determinism, JSON/env
parsing, per-worker slicing) and the supervision semantics the
equivalence suite does not cover: descriptor faults tolerated without a
restart, the exhausted-budget error naming the dead shards and the ways
out, quarantine manifests flowing into degraded checkpoints, and the
fault knobs being refused off the process executor.

Recovery *equivalence* (bit-identical decisions after a mid-run kill)
is pinned separately by
``tests/property/test_fault_recovery_equivalence.py``.
"""

import json

import pytest
from fleet_reference import WorkerPids

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    FaultPlan,
    FaultPolicy,
    RunOptions,
    TelemetryConfig,
    WorkerFault,
    build_fleet,
    synthesize_datacenter,
)
from repro.fleet.checkpoint import validate_checkpoint_meta
from repro.fleet.faults import ENV_FAULT_PLAN, FAULT_KINDS, FAULT_POINTS


def _config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )


def _process_fleet(fault_policy=None, fault_plan=None, max_workers=2, telemetry=None):
    scenario = synthesize_datacenter(16, num_shards=2, seed=29)
    return build_fleet(
        scenario,
        config=_config(),
        mitigate=False,
        executor="process",
        max_workers=max_workers,
        fault_policy=fault_policy,
        fault_plan=fault_plan,
        telemetry=telemetry,
    )


def _drive(fleet, epochs, pids=None):
    """Run ``epochs`` epochs, noting the workers in ``pids`` after each."""
    for _ in range(epochs):
        fleet.run_epoch(options=RunOptions(analyze=False))
        if pids is not None:
            pids.note(fleet)


def _kill(epoch, point="mid", worker=0):
    return FaultPlan(
        faults=(WorkerFault(kind="kill", worker=worker, epoch=epoch, point=point),)
    )


class TestFaultPlanDeterminism:
    def test_same_seed_same_plan(self):
        kwargs = dict(
            seed=7, epochs=12, workers=4, kills=2, hangs=1, corruptions=1, delays=1
        )
        first = FaultPlan.generate(**kwargs)
        second = FaultPlan.generate(**kwargs)
        assert first == second
        assert len(first.faults) == 5
        by_kind = {kind: 0 for kind in FAULT_KINDS}
        for fault in first.faults:
            by_kind[fault.kind] += 1
            assert 0 <= fault.worker < 4
            assert 0 <= fault.epoch < 12
            assert fault.point in FAULT_POINTS
        assert by_kind == {
            "kill": 2,
            "hang": 1,
            "corrupt_descriptor": 1,
            "delay_descriptor": 1,
        }

    def test_generate_needs_room_to_schedule(self):
        with pytest.raises(ValueError, match="at least one epoch"):
            FaultPlan.generate(seed=1, epochs=0, workers=2)
        with pytest.raises(ValueError, match="at least one epoch"):
            FaultPlan.generate(seed=1, epochs=3, workers=0)

    @pytest.mark.parametrize(
        "fields,match",
        [
            (dict(kind="explode", worker=0, epoch=0), "unknown fault kind"),
            (dict(kind="kill", worker=0, epoch=0, point="eventually"), "fault point"),
            (dict(kind="kill", worker=-1, epoch=0), "worker index"),
            (dict(kind="kill", worker=0, epoch=-2), "epoch"),
            (dict(kind="hang", worker=0, epoch=0, seconds=0.0), "seconds"),
        ],
    )
    def test_fault_validation(self, fields, match):
        with pytest.raises(ValueError, match=match):
            WorkerFault(**fields)


class TestFaultPlanParsing:
    def test_explicit_fault_list(self):
        plan = FaultPlan.from_json(
            json.dumps(
                {
                    "faults": [
                        {"kind": "kill", "worker": 1, "epoch": 4, "point": "after"},
                        {
                            "kind": "delay_descriptor",
                            "worker": 0,
                            "epoch": 2,
                            "seconds": 0.5,
                        },
                    ]
                }
            )
        )
        assert plan.faults == (
            WorkerFault(kind="kill", worker=1, epoch=4, point="after"),
            WorkerFault(kind="delay_descriptor", worker=0, epoch=2, seconds=0.5),
        )

    def test_seeded_generator_spec(self):
        spec = {"seed": 3, "epochs": 5, "workers": 2, "kills": 2}
        assert FaultPlan.from_json(json.dumps(spec)) == FaultPlan.generate(**spec)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("[1, 2]", "JSON object"),
            ("{}", "'faults' list or a 'seed'"),
            ('{"faults": {"kind": "kill"}}', "'faults' list or a 'seed'"),
        ],
    )
    def test_bad_specs_are_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.from_json(text)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(ENV_FAULT_PLAN, "")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(
            ENV_FAULT_PLAN,
            '{"faults": [{"kind": "kill", "worker": 0, "epoch": 1}]}',
        )
        plan = FaultPlan.from_env()
        assert plan is not None
        assert plan.faults == (WorkerFault(kind="kill", worker=0, epoch=1),)
        # An explicit mapping wins over the process environment.
        assert FaultPlan.from_env({}) is None

    def test_worker_slicing_and_replay_pruning(self):
        plan = FaultPlan(
            faults=(
                WorkerFault(kind="kill", worker=0, epoch=2),
                WorkerFault(kind="hang", worker=1, epoch=3, seconds=1.0),
                WorkerFault(kind="kill", worker=0, epoch=6),
            )
        )
        assert bool(plan)
        assert not FaultPlan()
        assert [f.epoch for f in plan.for_worker(0).faults] == [2, 6]
        assert [f.worker for f in plan.for_worker(1).faults] == [1]
        # Respawn after failing epoch 3: everything already fired (or
        # overtaken by the failure) is dropped so replay cannot re-fire.
        assert [f.epoch for f in plan.after_epoch(3).faults] == [6]


class TestChaosIntegration:
    def test_env_hook_injects_plan_into_process_fleet(self, monkeypatch):
        """The CI chaos leg's knob: a JSON plan in the environment is
        picked up by every process fleet built without an explicit plan,
        and the supervisor recovers from it."""
        monkeypatch.setenv(
            ENV_FAULT_PLAN,
            '{"faults": [{"kind": "kill", "worker": 0, "epoch": 1, "point": "mid"}]}',
        )
        fleet = _process_fleet(fault_policy=FaultPolicy(restarts=1))
        pids = WorkerPids()
        try:
            _drive(fleet, 3, pids)
            health = fleet.worker_health()
            assert [row["restarts"] for row in health] == [1, 0]
            assert all(row["alive"] for row in health)
        finally:
            fleet.shutdown()
        assert pids.leaked() == []

    def test_delay_descriptor_is_tolerated_without_restart(self):
        """A slow worker is not a dead worker: a delayed descriptor
        inside the heartbeat budget must not trip a restart."""
        plan = FaultPlan(
            faults=(
                WorkerFault(
                    kind="delay_descriptor", worker=0, epoch=1, seconds=0.3
                ),
            )
        )
        fleet = _process_fleet(
            fault_policy=FaultPolicy(restarts=1, heartbeat_timeout=30.0),
            fault_plan=plan,
        )
        pids = WorkerPids()
        try:
            _drive(fleet, 3, pids)
            assert [row["restarts"] for row in fleet.worker_health()] == [0, 0]
        finally:
            fleet.shutdown()
        assert pids.leaked() == []

    def test_corrupt_descriptor_recovers_like_a_death(self):
        """A descriptor the parent cannot attach is indistinguishable
        from worker garbage: kill, respawn, replay, continue."""
        plan = FaultPlan(
            faults=(
                WorkerFault(kind="corrupt_descriptor", worker=0, epoch=1),
            )
        )
        fleet = _process_fleet(
            fault_policy=FaultPolicy(restarts=2), fault_plan=plan
        )
        pids = WorkerPids()
        try:
            _drive(fleet, 3, pids)
            health = fleet.worker_health()
            assert [row["restarts"] for row in health] == [1, 0]
            assert all(row["alive"] for row in health)
        finally:
            fleet.shutdown()
        assert pids.leaked() == []

    def test_exhausted_budget_raise_names_shards_and_ways_out(self):
        fleet = _process_fleet(
            fault_policy=FaultPolicy(restarts=0), fault_plan=_kill(1)
        )
        pids = WorkerPids()
        try:
            with pytest.raises(
                RuntimeError,
                match=r"worker 0 \(shards: shard0\) failed at epoch 1",
            ) as excinfo:
                _drive(fleet, 3, pids)
            message = str(excinfo.value)
            assert "restart budget (0)" in message
            assert "Fleet.resume" in message
            assert "quarantine" in message
            # The run is refused deterministically afterwards.
            with pytest.raises(RuntimeError, match="lock step"):
                _drive(fleet, 1)
        finally:
            fleet.shutdown()
        assert pids.leaked() == []

    def test_quarantine_manifests_flow_into_degraded_checkpoint(self, tmp_path):
        fleet = _process_fleet(
            fault_policy=FaultPolicy(restarts=0, on_exhaustion="quarantine"),
            fault_plan=_kill(1, worker=1),
        )
        pids = WorkerPids()
        try:
            report = fleet.run_epoch(
                options=RunOptions(analyze=False)
            )
            pids.note(fleet)
            assert report.missing_shards == ()
            report = fleet.run_epoch(
                options=RunOptions(analyze=False)
            )
            assert report.missing_shards == ("shard1",)
            assert report.degraded
            assert fleet.quarantined_shards == ("shard1",)
            checkpoint = fleet.snapshot(tmp_path / "degraded.ckpt")
            assert checkpoint.meta["missing_shards"] == ["shard1"]
            assert list(checkpoint.meta["shard_ids"]) == ["shard0"]
            validate_checkpoint_meta(checkpoint.meta)
        finally:
            fleet.shutdown()
        # The degraded checkpoint resumes (serial) with the survivors.
        resumed = type(fleet).resume(tmp_path / "degraded.ckpt")
        try:
            resumed.run_epoch(options=RunOptions(analyze=False))
            assert list(resumed.shards) == ["shard0"]
        finally:
            resumed.shutdown()
        assert pids.leaked() == []


_RECOVERY_COUNTERS = ("recoveries_total", "restarts_total", "quarantined_shards_total")


class TestRecoveryBookkeeping:
    """Every process fleet judges a failure by one budget; these pin what
    that routine counts and how much replay history it keeps."""

    @pytest.mark.parametrize(
        "policy,worker,raises,expected",
        [
            # A kill recovered at the first respawn attempt.
            (FaultPolicy(restarts=2), 0, False, (1, 1, 0)),
            # No respawn is attempted under a zero budget: one shard
            # is quarantined straight away.
            (FaultPolicy(restarts=0, on_exhaustion="quarantine"), 1, False, (0, 0, 1)),
            # No policy is a zero-restart, raise-on-exhaustion budget.
            (None, 0, True, (0, 0, 0)),
        ],
        ids=["recovered", "quarantined", "no-policy"],
    )
    def test_recovery_counters(self, policy, worker, raises, expected):
        fleet = _process_fleet(
            fault_policy=policy,
            fault_plan=_kill(1, worker=worker),
            telemetry=TelemetryConfig(enabled=True),
        )
        pids = WorkerPids()
        try:
            fleet.run_epoch(options=RunOptions(analyze=False))
            pids.note(fleet)
            if raises:
                with pytest.raises(RuntimeError, match="dead worker shards: shard0"):
                    _drive(fleet, 2)
            else:
                _drive(fleet, 2, pids)
            counts = tuple(fleet.telemetry.counter(name) for name in _RECOVERY_COUNTERS)
            assert counts == expected
        finally:
            fleet.shutdown()
        assert pids.leaked() == []

    def test_replay_history_is_bounded_by_the_oldest_recovery_point(self):
        fleet = _process_fleet(
            fault_policy=FaultPolicy(restarts=1, resnapshot_every=3),
            fault_plan=_kill(10),
        )
        pids = WorkerPids()
        try:
            for _ in range(12):
                fleet.run_epoch(options=RunOptions(analyze=False))
                pids.note(fleet)
                assert len(fleet._strategy._replay) <= 3
            # The kill at epoch 10 recovered from the epoch-9 snapshot.
            assert [row["restarts"] for row in fleet.worker_health()] == [1, 0]
        finally:
            fleet.shutdown()
        assert pids.leaked() == []

    def test_interrupt_is_fatal_even_with_a_budget(self, monkeypatch):
        """A ``KeyboardInterrupt`` while an epoch is received is not a
        worker failure to recover from: it propagates as itself, breaks
        the run without a respawn, and leaves no segment behind."""
        fleet = _process_fleet(fault_policy=FaultPolicy(restarts=2))
        pids = WorkerPids()
        try:
            _drive(fleet, 1, pids)
            strategy = fleet._strategy
            receive = strategy._receive

            def interrupted(index, result):
                if index == 0:
                    raise KeyboardInterrupt
                return receive(index, result)

            monkeypatch.setattr(strategy, "_receive", interrupted)
            with pytest.raises(KeyboardInterrupt):
                _drive(fleet, 1)
            monkeypatch.undo()
            assert [row["restarts"] for row in fleet.worker_health()] == [0, 0]
            with pytest.raises(RuntimeError, match="dead worker shards: shard0"):
                _drive(fleet, 1)
        finally:
            fleet.shutdown()
        assert pids.leaked() == []

    def test_no_policy_keeps_no_replay_history(self):
        fleet = _process_fleet()
        try:
            _drive(fleet, 4)
            strategy = fleet._strategy
            assert strategy._replay == {}
            assert strategy._recovery == []
        finally:
            fleet.shutdown()
        assert WorkerPids(fleet).leaked() == []


class TestFaultKnobValidation:
    def test_fault_knobs_refused_off_the_process_executor(self):
        scenario = synthesize_datacenter(16, num_shards=2, seed=29)
        for knobs in (
            {"fault_policy": FaultPolicy()},
            {"fault_plan": _kill(1)},
        ):
            with pytest.raises(ValueError, match="process executor"):
                build_fleet(
                    scenario,
                    config=_config(),
                    mitigate=False,
                    executor="serial",
                    **knobs,
                )
