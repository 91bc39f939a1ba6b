"""Region unit tests: construction, worker topology, roll-ups.

The bit-identity of regional runs is pinned by
``tests/property/test_region_equivalence.py``; these tests cover the
partition contracts (unique ids, every shard in exactly one region,
contiguity), the worker topology regions shape (one executor per fleet,
groups formed within each region at its budget, region-labelled health
rows) and the :meth:`~repro.fleet.fleet.FleetRunSummary.merge` roll-up
semantics.
"""

import pytest
from fleet_reference import WorkerPids

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    ColumnarFleetReport,
    Fleet,
    FleetRunSummary,
    HostDrain,
    ProcessShardExecutor,
    Region,
    RunOptions,
    build_fleet,
    build_regional_fleet,
    churn_timeline,
    partition_regions,
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


def _flat(num_shards=4, num_vms=16, timeline=None):
    scenario = synthesize_datacenter(
        num_vms, num_shards=num_shards, seed=11, timeline=timeline
    )
    return build_fleet(scenario, config=_config())


def _shards(num_shards=4):
    return list(_flat(num_shards=num_shards).shards.values())


class TestRegionConstruction:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="region 'r0' needs at least one shard"):
            Region(region_id="r0", shard_ids=[])

    def test_empty_regional_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one region"):
            Fleet(_shards(), regions=[])

    def test_duplicate_region_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate region id 'r0'"):
            Fleet(
                _shards(),
                regions=[
                    Region("r0", ["shard0", "shard1"]),
                    Region("r0", ["shard2", "shard3"]),
                ],
            )

    def test_shard_in_two_regions_rejected(self):
        with pytest.raises(
            ValueError, match="'shard2' appears in regions 'r0' and 'r1'"
        ):
            Fleet(
                _shards(),
                regions=[
                    Region("r0", ["shard0", "shard1", "shard2"]),
                    Region("r1", ["shard2", "shard3"]),
                ],
            )

    def test_non_contiguous_region_rejected(self):
        with pytest.raises(ValueError, match="region 'r0' is not contiguous"):
            Fleet(
                _shards(),
                regions=[
                    Region("r0", ["shard0", "shard2"]),
                    Region("r1", ["shard1", "shard3"]),
                ],
            )

    def test_regions_out_of_shard_order_rejected(self):
        with pytest.raises(ValueError, match="region 'r0' is not contiguous"):
            Fleet(
                _shards(),
                regions=[
                    Region("r0", ["shard2", "shard3"]),
                    Region("r1", ["shard0", "shard1"]),
                ],
            )

    def test_unknown_or_unowned_shards_rejected(self):
        with pytest.raises(ValueError, match="region 'r1' names unknown shard"):
            Fleet(
                _shards(),
                regions=[
                    Region("r0", ["shard0", "shard1"]),
                    Region("r1", ["shard2", "shard3", "shard9"]),
                ],
            )
        with pytest.raises(ValueError, match="belong to no region"):
            Fleet(_shards(), regions=[Region("r0", ["shard0", "shard1"])])

    def test_contiguous_balanced_partition(self):
        shards = _shards(num_shards=4)
        regions = partition_regions(shards, 3)
        sizes = [len(r.shard_ids) for r in regions]
        assert sizes == [2, 1, 1]
        flattened = [sid for r in regions for sid in r.shard_ids]
        assert flattened == [s.shard_id for s in shards]

    def test_partition_caps_at_shard_count(self):
        regions = partition_regions(_shards(num_shards=2), 5)
        assert len(regions) == 2

    def test_lifecycle_validated_against_full_topology(self):
        timeline = churn_timeline(["shard0"], epochs=4, seed=1)
        timeline.add(HostDrain(epoch=1, shard="shard0", host="nonexistent"))
        scenario = synthesize_datacenter(
            8, num_shards=2, seed=11, timeline=timeline
        )
        with pytest.raises(ValueError, match="unknown host"):
            build_regional_fleet(scenario, num_regions=2, config=_config())


class TestWorkerBudgets:
    def test_per_region_budget_overrides_default(self):
        """Groups are formed round-robin within each region at its own
        budget (region max_workers, else the fleet's), numbered region
        by region."""
        fleet = Fleet(
            _shards(num_shards=6),
            regions=[
                Region("r0", ["shard0", "shard1", "shard2", "shard3"], max_workers=2),
                Region("r1", ["shard4", "shard5"]),
            ],
            max_workers=3,
            executor="process",
        )
        strategy = fleet._shard_strategy()
        assert isinstance(strategy, ProcessShardExecutor)
        assert strategy._groups == [
            ["shard0", "shard2"],
            ["shard1", "shard3"],
            ["shard4"],
            ["shard5"],
        ]
        fleet.shutdown()

    def test_flat_fleet_keeps_round_robin_over_all_shards(self):
        fleet = Fleet(_shards(num_shards=6), max_workers=4, executor="process")
        assert fleet._shard_strategy()._groups == [
            ["shard0", "shard4"],
            ["shard1", "shard5"],
            ["shard2"],
            ["shard3"],
        ]
        fleet.shutdown()

    def test_default_executor_inferred_from_budget(self):
        serial = Fleet(
            _shards(num_shards=2), regions=[Region("r0", ["shard0", "shard1"])]
        )
        assert serial.executor == "serial"
        parallel = Fleet(
            _shards(num_shards=2),
            regions=[Region("r0", ["shard0", "shard1"])],
            max_workers=2,
        )
        assert parallel.executor == "process"

    def test_one_executor_spawns_the_summed_budgets(self):
        """2 regions x 3 shards at region_workers=2 run on exactly 4
        workers of one executor, and every health row's shards lie
        inside its region."""
        fleet = build_regional_fleet(
            synthesize_datacenter(24, num_shards=6, seed=11),
            num_regions=2,
            config=_config(),
            executor="process",
            region_workers=2,
        )
        try:
            fleet.run_epoch(RunOptions(analyze=False))
            rows = fleet.worker_health()
            assert len(rows) == 4
            assert len({row["pid"] for row in rows}) == 4
            members = {
                region.region_id: set(region.shard_ids) for region in fleet.regions
            }
            assert [row["region"] for row in rows] == [
                "region0",
                "region0",
                "region1",
                "region1",
            ]
            for row in rows:
                assert set(row["shards"]) <= members[row["region"]]
        finally:
            fleet.shutdown()
        assert WorkerPids(fleet).leaked() == []


class TestAggregation:
    def test_stats_includes_region_count(self):
        fleet = build_regional_fleet(
            synthesize_datacenter(8, num_shards=2, seed=11),
            num_regions=2,
            config=_config(),
        )
        stats = fleet.stats()
        assert stats["regions"] == 2.0
        assert stats["shards"] == 2.0
        assert stats["vms"] == 8.0

    def test_flat_fleet_summaries_use_one_implicit_region(self):
        fleet = _flat(num_shards=2)
        fleet.bootstrap()
        summaries = fleet.run_summaries(2, RunOptions(analyze=False))
        assert list(summaries) == ["fleet"]
        assert summaries["fleet"].epochs == 2
        assert list(summaries["fleet"].final_report.shard_reports) == [
            "shard0",
            "shard1",
        ]


class TestSummaryMerge:
    def _summary(self, epochs=2, observations=5, shard_id="shard0"):
        summary = FleetRunSummary(
            epochs=epochs,
            observations=observations,
            analyzer_invocations=1,
            confirmed_interference=1,
            action_histogram={"normal": observations - 1, "analyze": 1},
            final_report=ColumnarFleetReport(
                epoch=epochs - 1, shard_reports={shard_id: object()}
            ),
        )
        return summary

    def test_merge_requires_summaries(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetRunSummary.merge([])

    def test_merge_rejects_mismatched_epochs(self):
        with pytest.raises(ValueError, match="different epoch counts"):
            FleetRunSummary.merge([self._summary(epochs=2), self._summary(epochs=3)])

    def test_merge_rejects_overlapping_shards(self):
        with pytest.raises(ValueError, match="more than one summary"):
            FleetRunSummary.merge([self._summary(), self._summary()])

    def test_merge_adds_counters_and_concatenates_reports(self):
        merged = FleetRunSummary.merge(
            [
                self._summary(observations=5, shard_id="shard0"),
                self._summary(observations=7, shard_id="shard1"),
            ]
        )
        assert merged.epochs == 2
        assert merged.observations == 12
        assert merged.confirmed_interference == 2
        assert merged.action_histogram == {"normal": 10, "analyze": 2}
        assert list(merged.final_report.shard_reports) == ["shard0", "shard1"]
