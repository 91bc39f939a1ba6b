"""Checkpoint/resume equivalence properties (the PR-8 contract).

A run interrupted by ``snapshot()`` at any epoch ``k`` and continued by
``resume()`` must be **bit-identical** to an uninterrupted run — same
per-epoch warning decisions (exact distances included), same run
summary, same lifecycle counters.  The contract holds:

* across shard executors (``serial`` / ``process``) at 1/2/4
  workers — a process fleet snapshots the *workers'* live state;
* across topologies (a flat :class:`~repro.fleet.Fleet` vs one
  partitioned into regions);
* across the file boundary (save → load → resume equals in-memory
  resume, and the checkpoint file passes deep schema validation);
* **cross-executor**: a checkpoint taken under one executor resumes
  under any other, still bit-identically;
* at every split point ``k`` (including ``k=0``, right after
  bootstrap);
* and snapshotting is read-only — a run that checkpoints every epoch
  decides exactly what an unobserved run decides.

The scenario churns (arrivals, departures, a host drain and return, a
flash crowd over load phases) precisely so the checkpoint must carry
the lifecycle engine's accumulated state, not just the shard objects.
"""

import pytest

from fleet_reference import decision_key, summary_key
from repro.core.config import DeepDiveConfig
from repro.fleet import (
    Checkpoint,
    Fleet,
    FleetRunSummary,
    FlashCrowd,
    HostDrain,
    HostReturn,
    InterferenceEpisode,
    LoadPhase,
    RunOptions,
    build_fleet,
    build_regional_fleet,
    churn_timeline,
    synthesize_datacenter,
    validate_checkpoint_file,
)

EPOCHS = 10
SPLIT = 3


def _timeline():
    timeline = churn_timeline(
        ["shard0", "shard1"],
        epochs=EPOCHS,
        seed=5,
        arrivals_per_epoch=1.0,
        mean_lifetime_epochs=6.0,
    )
    timeline.add(HostDrain(epoch=4, shard="shard0", host="s0pm1"))
    timeline.add(HostReturn(epoch=8, shard="shard0", host="s0pm1"))
    timeline.add(FlashCrowd(epoch=5, shard="shard1", end_epoch=9, scale=1.4))
    timeline.add(LoadPhase(epoch=3, shard="shard0", scale=0.8))
    timeline.add(LoadPhase(epoch=7, shard="shard0", scale=1.0))
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
        num_shards=2,
        seed=23,
        episodes=[
            InterferenceEpisode(
                shard=1, host_index=1, start_epoch=3, end_epoch=6, kind="memory"
            )
        ],
        timeline=_timeline(),
    )


def _build(executor=None, max_workers=None, regional=False):
    if regional:
        fleet = build_regional_fleet(
            _scenario(),
            num_regions=2,
            config=_config(),
            mitigate=True,
            executor=executor,
            region_workers=max_workers,
        )
    else:
        fleet = build_fleet(
            _scenario(),
            config=_config(),
            mitigate=True,
            executor=executor,
            max_workers=max_workers,
        )
    fleet.bootstrap()
    return fleet


def _drive(fleet, epochs):
    """Stream ``epochs`` epochs: per-epoch decisions + running summary."""
    decisions = []
    summary = FleetRunSummary()
    for report in fleet.stream(epochs, RunOptions()):
        decisions.append(decision_key(report))
        summary.accumulate(report)
    return decisions, summary


def _run_uninterrupted(fleet):
    try:
        decisions, summary = _drive(fleet, EPOCHS)
        lifecycle = fleet.lifecycle_stats()
    finally:
        fleet.shutdown()
    return decisions, summary, lifecycle


def _run_interrupted(
    fleet, split=SPLIT, via_file=None, resume_executor=None, resume_workers=None
):
    """Run ``split`` epochs, checkpoint, kill the fleet, resume, finish."""
    try:
        decisions, summary = _drive(fleet, split)
        checkpoint = fleet.snapshot(via_file, summary=summary)
    finally:
        fleet.shutdown()
    source = via_file if via_file is not None else checkpoint
    resumed = Fleet.resume(
        source, executor=resume_executor, max_workers=resume_workers
    )
    assert resumed.current_epoch == split
    try:
        rest_decisions, rest_summary = _drive(resumed, EPOCHS - split)
        lifecycle = resumed.lifecycle_stats()
    finally:
        resumed.shutdown()
    carried = checkpoint.state()["summary"]
    carried.extend(rest_summary)
    return decisions + rest_decisions, carried, lifecycle, resumed


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted serial flat churn run."""
    return _run_uninterrupted(_build())


def _assert_matches_reference(result, reference, label):
    decisions, summary, lifecycle = result[:3]
    decisions_ref, summary_ref, lifecycle_ref = reference
    assert len(decisions) == len(decisions_ref)
    for epoch, (a, b) in enumerate(zip(decisions_ref, decisions)):
        assert a == b, f"{label}: decisions diverge at epoch {epoch}"
    assert summary_key(summary) == summary_key(summary_ref), label
    assert lifecycle == lifecycle_ref, label


class TestCheckpointEquivalence:
    @pytest.mark.parametrize(
        "executor,workers,regional",
        [
            ("serial", None, False),
            ("process", 2, False),
            ("process", 4, False),
            ("serial", None, True),
            ("process", 2, True),
        ],
        ids=[
            "serial-flat",
            "process2-flat",
            "process4-flat",
            "serial-regional",
            "process2-regional",
        ],
    )
    def test_resume_bit_identical(self, reference, executor, workers, regional):
        """``resume(snapshot(at=k)).run(n-k)`` == ``run(n)`` for every
        executor/worker/topology combination, against the serial flat
        reference."""
        fleet = _build(executor=executor, max_workers=workers, regional=regional)
        result = _run_interrupted(fleet)
        _assert_matches_reference(
            result, reference, f"{executor}/{workers}/regional={regional}"
        )
        resumed = result[3]
        assert isinstance(resumed, Fleet)

    def test_every_split_point(self, reference):
        """The contract holds wherever the run is cut — including k=0
        (checkpoint straight after bootstrap) and k=n-1."""
        for split in (0, 1, 5, EPOCHS - 1):
            result = _run_interrupted(_build(), split=split)
            _assert_matches_reference(result, reference, f"split={split}")

    @pytest.mark.parametrize(
        "snap_exec,snap_workers,resume_exec,resume_workers",
        [
            ("process", 2, "serial", None),
            ("serial", None, "process", 2),
        ],
        ids=["process-to-serial", "serial-to-process"],
    )
    def test_cross_executor_resume(
        self, reference, snap_exec, snap_workers, resume_exec, resume_workers
    ):
        """A checkpoint is executor-neutral: state snapshotted under one
        strategy continues bit-identically under any other."""
        fleet = _build(executor=snap_exec, max_workers=snap_workers)
        result = _run_interrupted(
            fleet, resume_executor=resume_exec, resume_workers=resume_workers
        )
        _assert_matches_reference(
            result, reference, f"{snap_exec}->{resume_exec}"
        )
        assert result[3].executor == resume_exec

    def test_file_roundtrip(self, reference, tmp_path):
        """Through the file: save → deep-validate → load → resume is as
        bit-identical as the in-memory checkpoint object."""
        path = tmp_path / "fleet.ckpt"
        result = _run_interrupted(_build(), via_file=path)
        meta = validate_checkpoint_file(path, deep=True)
        assert meta["epoch"] == SPLIT
        assert meta["kind"] == "fleet"
        assert meta["has_summary"] is True
        _assert_matches_reference(result, reference, "file-roundtrip")

    def test_regional_file_roundtrip(self, reference, tmp_path):
        path = tmp_path / "regional.ckpt"
        result = _run_interrupted(_build(regional=True), via_file=path)
        meta = validate_checkpoint_file(path, deep=True)
        assert meta["kind"] == "fleet"
        assert [entry["region_id"] for entry in meta["regions"]] == [
            "region0",
            "region1",
        ]
        _assert_matches_reference(result, reference, "regional-file")

    def test_snapshot_does_not_perturb_the_run(self, reference):
        """Snapshotting every epoch must not change a single decision —
        the snapshot path is strictly read-only (including the worker
        round trip under the process executor)."""
        fleet = _build(executor="process", max_workers=2)
        decisions = []
        summary = FleetRunSummary()
        try:
            for report in fleet.stream(EPOCHS, RunOptions()):
                decisions.append(decision_key(report))
                summary.accumulate(report)
                fleet.snapshot()  # discard: only the side effects matter
            lifecycle = fleet.lifecycle_stats()
        finally:
            fleet.shutdown()
        _assert_matches_reference(
            (decisions, summary, lifecycle), reference, "observed-run"
        )

    def test_two_resumes_do_not_alias(self):
        """One checkpoint, two resumes: the fleets evolve independently
        (``Checkpoint.state()`` unpickles fresh per call)."""
        fleet = _build()
        try:
            _drive(fleet, SPLIT)
            checkpoint = fleet.snapshot()
        finally:
            fleet.shutdown()
        first = Fleet.resume(checkpoint)
        second = Fleet.resume(checkpoint)
        try:
            decisions_a, _ = _drive(first, EPOCHS - SPLIT)
            decisions_b, _ = _drive(second, EPOCHS - SPLIT)
        finally:
            first.shutdown()
            second.shutdown()
        assert decisions_a == decisions_b
        assert first.shards["shard0"] is not second.shards["shard0"]

    def test_summary_survives_byte_roundtrip(self):
        """The carried summary travels inside the checkpoint bytes."""
        fleet = _build()
        try:
            _, summary = _drive(fleet, SPLIT)
            checkpoint = fleet.snapshot(summary=summary)
        finally:
            fleet.shutdown()
        reloaded = Checkpoint.from_bytes(checkpoint.to_bytes())
        carried = reloaded.state()["summary"]
        assert summary_key(carried) == summary_key(summary)
