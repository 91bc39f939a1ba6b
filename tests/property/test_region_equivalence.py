"""Regional-fleet equivalence properties.

Shards share nothing, so grouping them into regions is pure
bookkeeping: a :class:`~repro.fleet.fleet.Fleet` partitioned into
regions from the same scenario must evolve **bit-identically** to the
flat one — decisions, run summaries, lifecycle counters — at any
region split, across

* hardware substrates (the batch substrate / the per-VM reference,
  ``scalar_reference.use_scalar_substrate``),
* the cluster counter ring against the eager sample-list reference
  (hosts tracking ground truth keep every sample; ``counter_reference``),
* region executors (``serial`` / ``process``) at any per-region worker
  budget.

The scenario reuses the churn-heavy shape of
``test_lifecycle_equivalence``: Poisson arrivals through the admission
policy, scheduled departures, a host drain and return, a flash crowd on
a load phase, plus a scheduled interference episode — so the regional
worker grouping (lifecycle engines subset per worker group) is
exercised against every event type while the fleet stays busy
detecting.
"""

import pytest
from counter_reference import assert_fleet_matches_reference
from fleet_reference import decision_key, summary_key
from scalar_reference import use_scalar_substrate

from repro.core.config import DeepDiveConfig
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
NUM_SHARDS = 4


def _timeline():
    shard_ids = [f"shard{s}" for s in range(NUM_SHARDS)]
    timeline = churn_timeline(
        shard_ids,
        epochs=EPOCHS,
        seed=5,
        arrivals_per_epoch=1.0,
        mean_lifetime_epochs=6.0,
    )
    timeline.add(HostDrain(epoch=4, shard="shard0", host="s0pm1"))
    timeline.add(HostReturn(epoch=8, shard="shard0", host="s0pm1"))
    timeline.add(FlashCrowd(epoch=5, shard="shard3", end_epoch=9, scale=1.4))
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
        num_shards=NUM_SHARDS,
        seed=23,
        episodes=[
            InterferenceEpisode(
                shard=1, host_index=1, start_epoch=3, end_epoch=6, kind="memory"
            )
        ],
        timeline=_timeline(),
    )


def _build_flat(substrate="batch"):
    fleet = build_fleet(_scenario(), config=_config(), mitigate=True)
    if substrate == "scalar":
        use_scalar_substrate(fleet)
    fleet.bootstrap()
    return fleet


def _build_regional(
    num_regions=2,
    substrate="batch",
    track_performance=False,
    executor=None,
    region_workers=None,
):
    fleet = build_fleet(
        _scenario(),
        num_regions=num_regions,
        config=_config(),
        mitigate=True,
        track_performance=track_performance,
        executor=executor,
        max_workers=region_workers,
    )
    if substrate == "scalar":
        use_scalar_substrate(fleet)
    fleet.bootstrap()
    return fleet


def _run(fleet, epochs=EPOCHS, check_reference=False):
    summary = FleetRunSummary()
    decisions = []
    shard_orders = []
    try:
        for _ in range(epochs):
            report = fleet.run_epoch()
            decisions.append(decision_key(report))
            shard_orders.append(list(report.shard_reports))
            summary.accumulate(report)
            if check_reference:
                assert_fleet_matches_reference(fleet)
        lifecycle = fleet.lifecycle_stats()
        stats = fleet.stats()
    finally:
        fleet.shutdown()
    return decisions, summary, lifecycle, stats, shard_orders


@pytest.fixture(scope="module")
def reference():
    """The flat serial / batch-substrate churn run."""
    return _run(_build_flat())


def _assert_matches_reference(result, reference, exact=True):
    decisions, summary, lifecycle, stats, shard_orders = result
    decisions_ref, summary_ref, lifecycle_ref, stats_ref, orders_ref = reference
    assert shard_orders == orders_ref, "merge order must be flat shard order"
    if exact:
        for epoch, (a, b) in enumerate(zip(decisions_ref, decisions)):
            assert a == b, f"decisions diverge at epoch {epoch}"
    assert summary_key(summary) == summary_key(summary_ref)
    assert lifecycle == lifecycle_ref
    for key, value in stats_ref.items():
        if key in ("regions",):
            continue
        assert stats[key] == value, f"stats[{key}]"


class TestRegionEquivalence:
    def test_scenario_active(self, reference):
        """The scenario must churn and detect — a quiet fleet would
        vacuously pass every equivalence check."""
        _decisions, summary, lifecycle, _stats, _orders = reference
        totals = {
            key: sum(stats[key] for stats in lifecycle.values())
            for key in next(iter(lifecycle.values()))
        }
        assert totals["arrivals_admitted"] > 0
        assert totals["departures"] > 0
        assert totals["drains"] == 1 and totals["returns"] == 1
        assert summary.confirmed_interference > 0

    @pytest.mark.parametrize("num_regions", [1, 2, 3, 4])
    def test_serial_regions_bit_identical(self, reference, num_regions):
        """Any contiguous split — even (2, 4), uneven (3), trivial (1)
        — merges back to the flat run bit for bit."""
        result = _run(_build_regional(num_regions=num_regions))
        _assert_matches_reference(result, reference)

    def test_history_mode_bit_identical(self, reference):
        """A regional fleet over the eager reference: its histories and
        windows equal the reference every epoch, its run the flat one."""
        result = _run(
            _build_regional(track_performance=True), check_reference=True
        )
        _assert_matches_reference(result, reference)

    def test_scalar_substrate_bit_identical(self):
        """Regional == flat holds on the scalar substrate too (compared
        within the substrate, where exact distances must match)."""
        flat = _run(_build_flat(substrate="scalar"))
        regional = _run(_build_regional(substrate="scalar"))
        _assert_matches_reference(regional, flat)

    @pytest.mark.parametrize("region_workers", [1, 2, 4])
    def test_process_executor_bit_identical(self, reference, region_workers):
        """Each region brings its own shared-memory process workers; the
        regional run must equal flat serial at every per-region worker
        budget."""
        result = _run(
            _build_regional(executor="process", region_workers=region_workers)
        )
        _assert_matches_reference(result, reference)

    def test_constant_memory_summary_bit_identical(self, reference):
        """``run(keep_reports=False)`` — the columnar hot loop under the
        process strategy — produces the flat fleet's summary, final
        full report included."""
        _decisions, summary_ref, _lifecycle, _stats, orders_ref = reference
        with _build_regional(executor="process", region_workers=1) as fleet:
            summary = fleet.run(EPOCHS, RunOptions(keep_reports=False))
        assert summary_key(summary) == summary_key(summary_ref)
        assert list(summary.final_report.shard_reports) == orders_ref[-1]

    def test_region_summaries_merge_to_flat(self, reference):
        """Per-region summaries (folded from the lockstep run) roll up
        to the flat summary via ``FleetRunSummary.merge`` — the
        constant-memory region path."""
        _decisions, summary_ref, _lifecycle, _stats, orders_ref = reference
        with _build_regional(num_regions=2) as fleet:
            per_region = fleet.run_summaries(EPOCHS)
        merged = FleetRunSummary.merge(per_region.values())
        assert summary_key(merged) == summary_key(summary_ref)
        assert list(merged.final_report.shard_reports) == orders_ref[-1]
