"""Unit coverage for ``Fleet.run(keep_reports=False)`` and host trimming.

The epoch-summary merge (``FleetRunSummary.accumulate``) and the
per-host ``history_limit`` trimming are the two pieces that keep long
fleet runs constant-memory; both get direct coverage here, smaller and
more targeted than the integration suite.
"""

import pytest
from fleet_reference import decision_key

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    FleetRunSummary,
    InterferenceEpisode,
    RunOptions,
    build_fleet,
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


def _build(history_limit=64, episodes=(), num_vms=16, bootstrap=True):
    scenario = synthesize_datacenter(
        num_vms, num_shards=2, seed=17, episodes=list(episodes)
    )
    fleet = build_fleet(
        scenario,
        config=_config(),
        mitigate=False,
        history_limit=history_limit,
    )
    if bootstrap:
        fleet.bootstrap()
    return fleet


class TestRunSummaryMerge:
    EPISODES = (
        InterferenceEpisode(
            shard=0, host_index=0, start_epoch=2, end_epoch=5, kind="memory"
        ),
    )

    def test_summary_counts_match_report_list(self):
        """Two identically seeded fleets: the summary's running totals
        must equal the fold of the full report list."""
        listed = _build(episodes=self.EPISODES)
        summarized = _build(episodes=self.EPISODES)
        reports = listed.run(7)
        summary = summarized.run(7, RunOptions(keep_reports=False))
        assert isinstance(summary, FleetRunSummary)
        assert summary.epochs == len(reports) == 7
        assert summary.observations == sum(r.observations() for r in reports)
        assert summary.analyzer_invocations == sum(
            r.analyzer_invocations() for r in reports
        )
        assert summary.confirmed_interference == sum(
            len(r.confirmed_interference()) for r in reports
        )
        expected = {}
        for report in reports:
            for action, count in report.action_histogram().items():
                expected[action] = expected.get(action, 0) + count
        assert summary.action_histogram == expected
        assert summary.observations > 0

    def test_final_report_is_last_epoch_snapshot(self):
        fleet = _build()
        summary = fleet.run(4, RunOptions(analyze=False, keep_reports=False))
        assert summary.final_report is not None
        assert summary.final_report.epoch == 3
        # The snapshot keeps every shard's decision columns.
        assert summary.final_report.observations()
        for shard_report in summary.final_report.shard_reports.values():
            assert shard_report.observations()

    def test_zero_epoch_run_returns_empty_summary(self):
        fleet = _build(bootstrap=False)
        summary = fleet.run(0, RunOptions(keep_reports=False))
        assert summary.epochs == 0
        assert summary.observations == 0
        assert summary.action_histogram == {}
        assert summary.final_report is None

    def test_accumulate_folds_reports(self):
        """Direct unit check of the fold itself."""
        fleet = _build()
        summary = FleetRunSummary()
        r1 = fleet.run_epoch(RunOptions(analyze=False))
        r2 = fleet.run_epoch(RunOptions(analyze=False))
        summary.accumulate(r1)
        summary.accumulate(r2)
        assert summary.epochs == 2
        assert summary.observations == r1.observations() + r2.observations()
        # The final report is a copy that owns its arrays.
        assert summary.final_report is not r2
        assert decision_key(summary.final_report) == decision_key(r2)


class TestHistoryTrimming:
    def test_histories_trimmed_to_limit(self):
        """Per-VM counter histories stay within 2x the limit and hold
        exactly the most recent epochs after a trim."""
        fleet = _build(history_limit=4)
        epochs = 11
        fleet.run(epochs, RunOptions(analyze=False, keep_reports=False))
        for shard in fleet.shards.values():
            for host in shard.cluster.hosts.values():
                assert host.history_limit == 4
                for history in host.counter_history.values():
                    assert len(history) <= 2 * 4
        # One more epoch is observable only through the retained window.
        report = fleet.run_epoch(RunOptions(analyze=False))
        assert report.epoch == epochs

    def test_trim_keeps_most_recent_samples(self):
        """The amortised trim drops the oldest epochs, never the newest."""
        fleet = _build(history_limit=3)
        shard = next(iter(fleet.shards.values()))
        host = next(
            h for h in shard.cluster.hosts.values() if h.counter_history
        )
        vm_name = next(iter(host.counter_history))
        seen = []
        for _ in range(9):
            fleet.run_epoch(RunOptions(analyze=False))
            seen.append(host.counter_history[vm_name][-1])
        history = host.counter_history[vm_name]
        assert len(history) <= 6
        assert history[-len(history):] == seen[-len(history):]

    def test_unlimited_history_retains_everything(self):
        fleet = _build(history_limit=None)
        fleet.run(6, RunOptions(analyze=False, keep_reports=False))
        for shard in fleet.shards.values():
            for host in shard.cluster.hosts.values():
                for history in host.counter_history.values():
                    assert len(history) == 6

    def test_invalid_history_limit_rejected(self):
        from repro.virt.vmm import Host

        with pytest.raises(ValueError):
            Host(history_limit=0)
