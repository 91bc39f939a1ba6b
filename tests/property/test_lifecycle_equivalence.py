"""Lifecycle-churn equivalence properties.

A :class:`~repro.fleet.timeline.FleetTimeline` is declarative data and
the :class:`~repro.fleet.lifecycle.LifecycleEngine` a deterministic
interpreter, so an identical timeline must produce **bit-identical**
fleet evolutions — decisions, run summaries, churned topology — across

* hardware substrates (the batch substrate / the per-VM reference,
  ``scalar_reference.use_scalar_substrate``),
* the cluster counter ring against the eager sample-list reference
  (hosts tracking ground truth keep every sample; ``counter_reference``),
* shard executors (``serial`` / ``process``) at any worker count.

The churn-heavy scenario exercised here hits every event type at once:
tenant arrivals admitted by the interference-aware policy, scheduled
departures, one host drain (with forced evacuations through the
existing migration path) and return-to-service, a flash crowd stacked
on diurnal load phases, plus a scheduled interference episode so the
monitoring pipeline stays busy while the topology shifts under it.

Cross-substrate runs are compared on warning actions, confirmations and
the :class:`~repro.fleet.fleet.FleetRunSummary` aggregates (the
substrate contract tolerates 1e-9 counter deviations, so raw distances
are compared only within a substrate); every other axis is compared on
the full decision record, exact distances included.
"""

import numpy as np
import pytest
from counter_reference import assert_fleet_matches_reference, reference_windows
from fleet_reference import decision_key, summary_key
from scalar_reference import use_scalar_substrate

from repro.core.config import DeepDiveConfig
from repro.metrics.counters import COUNTER_NAMES
from repro.fleet import (
    FleetRunSummary,
    FlashCrowd,
    HostDrain,
    HostReturn,
    InterferenceEpisode,
    LoadPhase,
    RunOptions,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)

EPOCHS = 10


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


def _build(
    substrate="batch", track_performance=False, executor=None, max_workers=None
):
    """``substrate="scalar"`` steps the (serial) fleet through the
    per-VM reference substrate."""
    scenario = synthesize_datacenter(
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
    fleet = build_fleet(
        scenario,
        config=_config(),
        mitigate=True,
        track_performance=track_performance,
        executor=executor,
        max_workers=max_workers,
    )
    if substrate == "scalar":
        use_scalar_substrate(fleet)
    fleet.bootstrap()
    return fleet


def _action_key(decisions):
    """Substrate-robust projection: actions + confirmations only."""
    return [
        {key: (value[0], value[4]) for key, value in epoch.items()}
        for epoch in decisions
    ]


def _run(fleet, epochs=EPOCHS, check_reference=False):
    summary = FleetRunSummary()
    decisions = []
    try:
        for _ in range(epochs):
            report = fleet.run_epoch()
            decisions.append(decision_key(report))
            summary.accumulate(report)
            if check_reference:
                assert_fleet_matches_reference(fleet)
        lifecycle = fleet.lifecycle_stats()
    finally:
        fleet.shutdown()
    return decisions, summary, lifecycle


@pytest.fixture(scope="module")
def reference():
    """The serial / batch-substrate churn run."""
    return _run(_build())


class TestLifecycleEquivalence:
    def test_churn_actually_happens(self, reference):
        """The scenario must exercise every lifecycle dimension — a
        quiet timeline would vacuously pass the equivalence checks."""
        _decisions, summary, lifecycle = reference
        totals = {
            key: sum(stats[key] for stats in lifecycle.values())
            for key in next(iter(lifecycle.values()))
        }
        assert totals["arrivals_admitted"] > 0
        assert totals["departures"] > 0
        assert totals["drains"] == 1 and totals["returns"] == 1
        assert totals["drain_migrations"] > 0
        assert totals["load_changes"] > 0
        assert summary.confirmed_interference > 0, (
            "the scheduled interference episode must still be detected "
            "while the fleet churns"
        )

    def test_history_modes_bit_identical(self, reference):
        """ring == eager through arrivals (slots taken), departures (slots
        freed), drain migrations and load phases: every epoch's
        histories and windows equal the eager reference, and the
        decisions are those of the untracked run."""
        decisions_ref, summary_ref, _ = reference
        decisions, summary, _ = _run(
            _build(track_performance=True), check_reference=True
        )
        for epoch, (a, b) in enumerate(zip(decisions_ref, decisions)):
            assert a == b, f"decisions diverge at epoch {epoch}"
        assert summary_key(summary) == summary_key(summary_ref)

    def test_substrates_equivalent(self, reference):
        """scalar and batch substrates see the same churned fleet: same
        topology evolution, same actions and confirmations, identical
        run summaries (distances are substrate-tolerance quantities)."""
        decisions_ref, summary_ref, lifecycle_ref = reference
        decisions, summary, lifecycle = _run(_build(substrate="scalar"))
        assert _action_key(decisions) == _action_key(decisions_ref)
        assert summary_key(summary) == summary_key(summary_ref)
        assert lifecycle == lifecycle_ref

    def test_scalar_substrate_history_modes(self):
        """Scalar-substrate churn writes the same ring: identical to the
        eager reference too."""
        decisions_a, summary_a, _ = _run(_build(substrate="scalar"))
        decisions_b, summary_b, _ = _run(
            _build(substrate="scalar", track_performance=True),
            check_reference=True,
        )
        assert decisions_a == decisions_b
        assert summary_key(summary_a) == summary_key(summary_b)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_executor_bit_identical(self, reference, workers):
        """State-owning process workers apply their own lifecycle
        subsets; the merged churn run must equal serial bit for bit at
        every worker count."""
        decisions_ref, summary_ref, lifecycle_ref = reference
        decisions, summary, lifecycle = _run(
            _build(executor="process", max_workers=workers)
        )
        for epoch, (a, b) in enumerate(zip(decisions_ref, decisions)):
            assert a == b, f"workers={workers}: diverge at epoch {epoch}"
        assert summary_key(summary) == summary_key(summary_ref)
        assert lifecycle == lifecycle_ref

    def test_topology_evolution_identical(self):
        """Two fleets built from the same scenario walk through the
        same placements epoch by epoch — the churned VM->host maps (and
        drained-host exclusions) are part of the contract."""
        fleet_a = _build()
        fleet_b = _build(track_performance=True)
        try:
            for _ in range(EPOCHS):
                fleet_a.run_epoch(RunOptions(analyze=False))
                fleet_b.run_epoch(RunOptions(analyze=False))
                for shard_id, shard_a in fleet_a.shards.items():
                    placement_a = {
                        vm: host
                        for vm, (host, _) in shard_a.cluster.all_vms().items()
                    }
                    placement_b = {
                        vm: host
                        for vm, (host, _) in fleet_b.shards[shard_id]
                        .cluster.all_vms()
                        .items()
                    }
                    assert placement_a == placement_b
        finally:
            fleet_a.shutdown()
            fleet_b.shutdown()

    def test_window_views_stay_exact_under_churn(self):
        """After churn, the columnar window view still equals the
        materialised per-sample assembly on every host (the ring
        grow/shrink path must never desynchronise the two)."""
        fleet = _build()
        try:
            for _ in range(EPOCHS):
                fleet.run_epoch(RunOptions(analyze=False))
            for shard in fleet.shards.values():
                cluster = shard.cluster
                for window in (1, 2, 3):
                    view = cluster.counter_window_view(window)
                    windows = reference_windows(cluster, window)
                    assert set(view.vm_names) == set(windows)
                    for vm_name, samples in windows.items():
                        i = view.index[vm_name]
                        expected = np.array(
                            [samples[0][name] for name in COUNTER_NAMES]
                        )
                        for sample in samples[1:]:
                            expected = expected + np.array(
                                [sample[name] for name in COUNTER_NAMES]
                            )
                        assert np.array_equal(view.window_sum[i], expected), (
                            f"{vm_name} window={window}"
                        )
        finally:
            fleet.shutdown()
