"""The live ops dashboard: telemetry folding, rendering, alerts.

The dashboard is a pure stream consumer — it must track totals
correctly off every executor's reports, degrade gracefully when the
fleet can no longer answer statistics, raise the documented health
alerts, and emit a JSON-serialisable snapshot.
"""

import json

import pytest
from fleet_reference import WorkerPids

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    FaultPlan,
    FleetDashboard,
    HostDrain,
    RunOptions,
    WorkerFault,
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


def _fleet(
    executor=None, max_workers=None, regional=False, timeline=None, fault_plan=None
):
    scenario = synthesize_datacenter(16, num_shards=2, seed=23, timeline=timeline)
    if regional:
        fleet = build_fleet(
            scenario,
            num_regions=2,
            config=_config(),
            executor=executor,
            max_workers=max_workers,
        )
    else:
        fleet = build_fleet(
            scenario,
            config=_config(),
            executor=executor,
            max_workers=max_workers,
            fault_plan=fault_plan,
        )
    fleet.bootstrap()
    return fleet


class TestObserve:
    def test_watch_folds_each_epoch(self):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet)
        try:
            reports = list(dashboard.watch(3, RunOptions(analyze=False)))
        finally:
            fleet.shutdown()
        assert len(reports) == 3
        assert dashboard.epochs_observed == 3
        assert dashboard.total_observations == sum(
            r.observations() for r in reports
        )
        doc = dashboard.snapshot()
        assert doc["epoch"] == 3
        assert doc["throughput"]["last_epoch_seconds"] is not None
        assert doc["throughput"]["vm_epochs_per_second"] > 0

    def test_process_fleet_feeds_the_dashboard(self):
        """A process fleet's shared-memory reports fold into the same
        totals as every other epoch report."""
        fleet = _fleet(executor="process", max_workers=2)
        dashboard = FleetDashboard(fleet)
        try:
            list(dashboard.watch(3, RunOptions(analyze=False)))
        finally:
            fleet.shutdown()
        assert dashboard.epochs_observed == 3
        assert dashboard.total_observations == 3 * 16

    def test_regional_fleet_gets_region_rows(self):
        fleet = _fleet(regional=True)
        dashboard = FleetDashboard(fleet)
        try:
            list(dashboard.watch(2, RunOptions(analyze=False)))
        finally:
            fleet.shutdown()
        doc = dashboard.snapshot()
        assert set(doc["per_region"]) == {"region0", "region1"}
        region_obs = sum(
            numbers["observations"] for numbers in doc["per_region"].values()
        )
        shard_obs = sum(
            numbers["observations"] for numbers in doc["per_shard"].values()
        )
        assert region_obs == shard_obs > 0

    def test_flat_fleet_has_no_region_rows(self):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet)
        fleet.shutdown()
        assert dashboard.snapshot()["per_region"] is None

    def test_window_bounds_memory(self):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet, window=2)
        try:
            list(dashboard.watch(4, RunOptions(analyze=False)))
        finally:
            fleet.shutdown()
        assert len(dashboard._epoch_seconds) == 2

    def test_invalid_window_rejected(self):
        fleet = _fleet()
        try:
            with pytest.raises(ValueError, match="window"):
                FleetDashboard(fleet, window=0)
        finally:
            fleet.shutdown()


class TestAlerts:
    def test_healthy_fleet_has_no_alerts(self):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet)
        try:
            list(dashboard.watch(2, RunOptions(analyze=False)))
            assert dashboard.alerts() == []
        finally:
            fleet.shutdown()

    def test_slo_violation_alerts_and_counts(self):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet, slo_epoch_seconds=0.0)
        try:
            list(dashboard.watch(2, RunOptions(analyze=False)))
        finally:
            fleet.shutdown()
        assert dashboard.slo_violations == 2
        assert any("SLO" in alert for alert in dashboard.alerts())

    def test_active_drain_alerts(self):
        timeline = churn_timeline(
            ["shard0", "shard1"],
            epochs=4,
            seed=5,
            arrivals_per_epoch=0.5,
            mean_lifetime_epochs=50.0,
        )
        timeline.add(HostDrain(epoch=1, shard="shard0", host="s0pm1"))
        fleet = _fleet(timeline=timeline)
        dashboard = FleetDashboard(fleet)
        try:
            list(dashboard.watch(3, RunOptions(analyze=False)))
            alerts = dashboard.alerts()
        finally:
            fleet.shutdown()
        assert any("draining" in alert for alert in alerts)

    def test_stats_failure_degrades_to_alert(self, monkeypatch):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet)
        try:
            list(dashboard.watch(2, RunOptions(analyze=False)))
        finally:
            fleet.shutdown()

        def broken():
            raise RuntimeError("workers are gone")

        monkeypatch.setattr(fleet, "stats", broken)
        doc = dashboard.snapshot()
        assert doc["stats"] is None
        assert any("stats unavailable" in alert for alert in doc["alerts"])

    def test_broken_fleet_with_a_lifecycle_degrades_to_alerts(self):
        """A worker death breaks the run: a fleet with a churn timeline
        can answer neither statistics nor lifecycle counters, before or
        after shutdown, and the document says so instead of raising."""
        timeline = churn_timeline(
            ["shard0", "shard1"],
            epochs=4,
            seed=5,
            arrivals_per_epoch=0.5,
            mean_lifetime_epochs=50.0,
        )
        fleet = _fleet(
            executor="process",
            max_workers=2,
            timeline=timeline,
            fault_plan=FaultPlan(
                faults=(WorkerFault(kind="kill", worker=0, epoch=1, point="mid"),)
            ),
        )
        dashboard = FleetDashboard(fleet)
        pids = WorkerPids(fleet)
        try:
            with pytest.raises(RuntimeError, match="dead worker shards"):
                list(dashboard.watch(3, RunOptions(analyze=False)))
            docs = [dashboard.snapshot()]
        finally:
            fleet.shutdown()
        docs.append(dashboard.snapshot())
        for doc in docs:
            assert doc["stats"] is None
            assert doc["lifecycle"] == {}
            unavailable = [a for a in doc["alerts"] if "unavailable" in a]
            assert [a.split(":")[0] for a in unavailable] == [
                "lifecycle unavailable",
                "stats unavailable",
            ]
            assert all("dead worker shards: shard0" in a for a in unavailable)
            json.dumps(doc)
        assert pids.leaked() == []


def _health_row(worker, **overrides):
    row = {
        "worker": worker,
        "shards": [f"shard{worker}"],
        "pid": 4000 + worker,
        "restarts": 0,
        "last_heartbeat_age_seconds": 0.5,
        "last_epoch": 3,
        "quarantined": False,
        "alive": True,
    }
    row.update(overrides)
    return row


class TestWorkerHealthPanel:
    """PR 9: the dashboard surfaces the executor's per-worker health
    (pids, restarts, heartbeat age, quarantine) and raises the
    ``WORKER_RESTARTED`` / ``SHARDS_QUARANTINED`` alerts."""

    def test_live_process_fleet_populates_worker_rows(self):
        fleet = _fleet(executor="process", max_workers=2)
        dashboard = FleetDashboard(fleet)
        try:
            list(dashboard.watch(2, RunOptions(analyze=False)))
            doc = dashboard.snapshot()
        finally:
            fleet.shutdown()
        assert [row["worker"] for row in doc["workers"]] == [0, 1]
        for row in doc["workers"]:
            assert row["alive"] and not row["quarantined"]
            assert row["restarts"] == 0
            assert isinstance(row["pid"], int)
        assert not any("WORKER" in a or "QUARANTINED" in a for a in doc["alerts"])
        json.dumps(doc)  # the panel must stay scrape-able

    def test_restarts_raise_the_worker_restarted_alert(self):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet)
        try:
            fleet.worker_health = lambda: [
                _health_row(0, restarts=2),
                _health_row(1),
                _health_row(2, restarts=1),
            ]
            alerts = dashboard.alerts()
        finally:
            fleet.shutdown()
        assert alerts == [
            "WORKER_RESTARTED: 3 restart(s) across worker(s) 0, 2"
        ]

    def test_quarantine_raises_the_shards_quarantined_alert(self):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet)
        try:
            fleet.worker_health = lambda: [
                _health_row(0),
                _health_row(
                    1,
                    quarantined=True,
                    alive=False,
                    shards=["shard1", "shard3"],
                ),
            ]
            alerts = dashboard.alerts()
        finally:
            fleet.shutdown()
        assert alerts == [
            "SHARDS_QUARANTINED: 2 shard(s) excluded (worker(s) 1); "
            "the run is degraded"
        ]

    def test_render_shows_the_worker_panel_states(self):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet)
        try:
            fleet.worker_health = lambda: [
                _health_row(0, restarts=1),
                _health_row(1, quarantined=True, alive=False),
                _health_row(2, region="region1", alive=False),
            ]
            text = dashboard.render()
        finally:
            fleet.shutdown()
        assert "worker" in text and "beat age" in text
        assert "quarantined" in text
        assert "region1/2" in text
        assert "dead" in text
        assert "ALERT: WORKER_RESTARTED" in text
        assert "ALERT: SHARDS_QUARANTINED" in text

    def test_unanswerable_health_degrades_to_an_empty_panel(self):
        """A fleet too broken to answer health questions must not take
        the dashboard down with it."""
        fleet = _fleet()
        dashboard = FleetDashboard(fleet)
        try:

            def broken():
                raise RuntimeError("workers are gone")

            fleet.worker_health = broken
            doc = dashboard.snapshot()
        finally:
            fleet.shutdown()
        assert doc["workers"] == []
        assert not any("WORKER" in a for a in doc["alerts"])


class TestRendering:
    def test_snapshot_is_json_serialisable(self):
        fleet = _fleet(regional=True)
        dashboard = FleetDashboard(fleet, slo_epoch_seconds=1.0)
        try:
            list(dashboard.watch(2, RunOptions(analyze=False)))
            parsed = json.loads(dashboard.to_json())
        finally:
            fleet.shutdown()
        assert parsed["epochs_observed"] == 2
        assert parsed["slo"]["epoch_seconds"] == 1.0

    def test_render_mentions_the_essentials(self):
        fleet = _fleet()
        dashboard = FleetDashboard(fleet)
        try:
            list(dashboard.watch(2, RunOptions(analyze=False)))
            text = dashboard.render()
        finally:
            fleet.shutdown()
        assert "epoch 2" in text
        assert "totals:" in text
        assert "shard0" in text and "shard1" in text

    def test_render_before_any_epoch(self):
        fleet = _fleet()
        try:
            text = FleetDashboard(fleet).render()
            assert "epoch 0" in text
        finally:
            fleet.shutdown()
