"""Fault-recovery equivalence properties (the PR-9 contract).

A process fleet whose worker is SIGKILLed mid-run — before, during or
after an epoch's shard work — must, under a
:class:`~repro.fleet.supervisor.FaultPolicy`, respawn the worker,
rehydrate its shards, replay the missed epochs and finish the run
**bit-identical** to an undisturbed one: same per-epoch warning
decisions (exact distances included), same run summary, same lifecycle
counters.  The contract holds:

* at 1/2/4 workers (a single-worker fleet loses *everything* and
  recovers it all from replay);
* for kills at every fault point (``before``/``mid``/``after`` the
  epoch's shard work);
* recovering from the run-start template (full replay) and from
  mid-run recovery snapshots (``resnapshot_every`` bounds the replay);
* for flat and regional topologies (a regional failure is contained to
  its region);
* and with the restart budget exhausted under
  ``on_exhaustion="quarantine"``, the run *completes* with the dead
  worker's shards explicitly manifested instead of raising.

The scenario churns (arrivals, departures, a drain/return, a flash
crowd) so replay must reproduce lifecycle state, not just shard state.
Every test asserts ``/dev/shm`` ends empty — recovery may not leak the
dead worker's transport segments.
"""

import pytest

from fleet_reference import WorkerPids, decision_key, summary_key
from repro.core.config import DeepDiveConfig
from repro.fleet import (
    FaultPlan,
    FaultPolicy,
    FleetRunSummary,
    FlashCrowd,
    HostDrain,
    HostReturn,
    InterferenceEpisode,
    LoadPhase,
    RunOptions,
    WorkerFault,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)

EPOCHS = 10
SHARD_IDS = ["shard0", "shard1", "shard2", "shard3"]


def _timeline():
    timeline = churn_timeline(
        SHARD_IDS,
        epochs=EPOCHS,
        seed=5,
        arrivals_per_epoch=1.0,
        mean_lifetime_epochs=6.0,
    )
    timeline.add(HostDrain(epoch=4, shard="shard0", host="s0pm1"))
    timeline.add(HostReturn(epoch=8, shard="shard0", host="s0pm1"))
    timeline.add(FlashCrowd(epoch=5, shard="shard1", end_epoch=9, scale=1.4))
    timeline.add(LoadPhase(epoch=3, shard="shard2", scale=0.8))
    timeline.add(LoadPhase(epoch=7, shard="shard2", scale=1.0))
    return timeline


def _config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
        smoothing_epochs=2,
    )


def _scenario():
    return synthesize_datacenter(
        16,
        num_shards=4,
        seed=23,
        episodes=[
            InterferenceEpisode(
                shard=1, host_index=1, start_epoch=3, end_epoch=6, kind="memory"
            )
        ],
        timeline=_timeline(),
    )


def _build(
    executor=None,
    max_workers=None,
    regional=False,
    fault_policy=None,
    fault_plan=None,
):
    if regional:
        fleet = build_fleet(
            _scenario(),
            num_regions=2,
            config=_config(),
            mitigate=True,
            executor=executor,
            max_workers=max_workers,
            fault_policy=fault_policy,
            fault_plan=fault_plan,
        )
    else:
        fleet = build_fleet(
            _scenario(),
            config=_config(),
            mitigate=True,
            executor=executor,
            max_workers=max_workers,
            fault_policy=fault_policy,
            fault_plan=fault_plan,
        )
    fleet.bootstrap()
    return fleet


def _drive(fleet, epochs, pids):
    """Stream ``epochs`` epochs: per-epoch decisions + running summary,
    noting the workers in ``pids`` after each epoch (respawned workers
    included)."""
    decisions = []
    summary = FleetRunSummary()
    for report in fleet.stream(epochs, RunOptions()):
        decisions.append(decision_key(report))
        summary.accumulate(report)
        pids.note(fleet)
    return decisions, summary


def _run(fleet):
    pids = WorkerPids(fleet)
    try:
        decisions, summary = _drive(fleet, EPOCHS, pids)
        lifecycle = fleet.lifecycle_stats()
        health = fleet.worker_health()
    finally:
        fleet.shutdown()
    return decisions, summary, lifecycle, health, pids


@pytest.fixture(scope="module")
def reference():
    """The undisturbed serial flat churn run."""
    return _run(_build())


def _assert_matches_reference(result, reference, label):
    decisions, summary, lifecycle = result[:3]
    decisions_ref, summary_ref, lifecycle_ref = reference[:3]
    assert len(decisions) == len(decisions_ref)
    for epoch, (a, b) in enumerate(zip(decisions_ref, decisions)):
        assert a == b, f"{label}: decisions diverge at epoch {epoch}"
    assert summary_key(summary) == summary_key(summary_ref), label
    assert summary.missing_shards == (), label
    assert lifecycle == lifecycle_ref, label


def _kill_plan(epoch, point, worker=0):
    return FaultPlan(
        faults=(WorkerFault(kind="kill", worker=worker, epoch=epoch, point=point),)
    )


class TestFaultRecoveryEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "epoch,point", [(3, "before"), (5, "mid"), (7, "after")]
    )
    def test_kill_recovery_bit_identical(self, reference, workers, epoch, point):
        """A SIGKILLed worker is respawned, replayed from the run-start
        template, and the completed run matches the undisturbed serial
        reference exactly — at every worker count and fault point."""
        result = _run(
            _build(
                executor="process",
                max_workers=workers,
                fault_policy=FaultPolicy(restarts=2),
                fault_plan=_kill_plan(epoch, point),
            )
        )
        _assert_matches_reference(
            result, reference, f"workers={workers} kill@{epoch}/{point}"
        )
        health = result[3]
        assert [row["restarts"] for row in health] == [1] + [0] * (workers - 1)
        assert all(row["alive"] for row in health)
        assert result[4].leaked() == []

    def test_recovery_from_midrun_snapshot(self, reference):
        """``resnapshot_every`` recovers from the last cadence snapshot
        instead of replaying the whole history — still bit-identical."""
        result = _run(
            _build(
                executor="process",
                max_workers=2,
                fault_policy=FaultPolicy(restarts=2, resnapshot_every=2),
                fault_plan=_kill_plan(7, "mid"),
            )
        )
        _assert_matches_reference(result, reference, "resnapshot_every=2")
        assert result[4].leaked() == []

    def test_regional_failure_contained(self, reference):
        """A worker kill inside one region recovers within that region;
        the merged hierarchical run still matches the flat reference."""
        result = _run(
            _build(
                executor="process",
                max_workers=2,
                regional=True,
                fault_policy=FaultPolicy(restarts=2),
                fault_plan=_kill_plan(5, "mid"),
            )
        )
        _assert_matches_reference(result, reference, "regional kill")
        health = result[3]
        restarted = [row for row in health if row["restarts"]]
        assert [row["region"] for row in restarted] == ["region0"]
        assert result[4].leaked() == []

    def test_quarantine_completes_degraded(self, reference):
        """With the restart budget exhausted, quarantine mode finishes
        the run: the dead worker's shards are excluded and explicitly
        manifested on every later report and on the summary — and the
        surviving shards still decide exactly what the reference did."""
        fleet = _build(
            executor="process",
            max_workers=2,
            fault_policy=FaultPolicy(restarts=0, on_exhaustion="quarantine"),
            fault_plan=_kill_plan(4, "mid", worker=1),
        )
        decisions, summary, lifecycle, health, pids = _run(fleet)
        # Worker 1 of 2 owns the odd round-robin shards.
        dead = ("shard1", "shard3")
        assert summary.missing_shards == dead
        assert summary.degraded
        assert summary.final_report.missing_shards == dead
        quarantined = [row for row in health if row["quarantined"]]
        assert [row["worker"] for row in quarantined] == [1]
        decisions_ref = reference[0]
        for epoch, (mine, ref) in enumerate(zip(decisions, decisions_ref)):
            expected = (
                ref
                if epoch < 4
                else {k: v for k, v in ref.items() if k[0] not in dead}
            )
            assert mine == expected, f"degraded decisions diverge at {epoch}"
        assert pids.leaked() == []
