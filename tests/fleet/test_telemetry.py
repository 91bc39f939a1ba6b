"""Unit suite for the fleet telemetry bus and its exporters.

Covers the registry mechanics (span rings, counters, sampling,
wraparound), the three exporters (Prometheus text, Chrome trace JSON,
rotating JSONL event log), carried-total persistence across
``snapshot()``/``resume()`` (Prometheus monotonicity), and the
``resolve_telemetry`` normalisation used by every fleet constructor.
"""

import json

import pytest

from repro.fleet import (
    COUNTER_NAMES,
    RunOptions,
    SPAN_KINDS,
    Fleet,
    FleetDashboard,
    TelemetryConfig,
    TelemetryRegistry,
    build_fleet,
    resolve_telemetry,
    synthesize_datacenter,
)
from repro.fleet.telemetry import (
    C_EPOCHS,
    C_VM_EPOCHS,
    WorkerSpanBuffer,
    _escape_label,
)


def _registry(**overrides) -> TelemetryRegistry:
    return TelemetryRegistry(TelemetryConfig(**overrides))


def _small_fleet(telemetry=None):
    scenario = synthesize_datacenter(8, num_shards=2, seed=5, episodes=[])
    fleet = build_fleet(scenario, telemetry=telemetry)
    fleet.bootstrap()
    return fleet


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_span_records_kind_epoch_pid(self):
        registry = _registry()
        with registry.span("simulate", epoch=3):
            pass
        (span,) = registry.spans()
        assert span["kind"] == "simulate"
        assert span["epoch"] == 3
        assert span["pid"] == registry._pid
        assert span["duration"] >= 0

    def test_counters_addressed_by_constant(self):
        registry = _registry()
        registry.inc(C_EPOCHS)
        registry.inc(C_VM_EPOCHS, 500)
        assert registry.counter("epochs_total") == 1
        assert registry.counter("vm_epochs_total") == 500

    def test_deep_sampling_cadence(self):
        registry = _registry(profile_every=3)
        sampled = [e for e in range(9) if registry.deep(e) is not None]
        assert sampled == [0, 3, 6]
        always = _registry(profile_every=1)
        assert all(always.deep(e) is always for e in range(5))

    def test_ring_wraparound_counts_drops_keeps_totals(self):
        registry = _registry(span_capacity=4)
        for epoch in range(6):
            with registry.span("epoch", epoch):
                pass
        assert registry.counter("spans_dropped_total") == 2
        assert len(registry.spans()) == 4  # newest survive
        assert [s["epoch"] for s in registry.spans()] == [2, 3, 4, 5]
        # Carried totals are unaffected by ring eviction.
        assert registry.span_totals()["epoch"]["count"] == 6

    def test_record_span_and_fold_worker_spans(self):
        registry = _registry()
        registry.record_span("cell", 1.0, 2.5, epoch=7)
        registry.fold_worker_spans([(1, 0.5, 0.25, 4)], pid=12345)
        spans = registry.spans()
        assert {s["kind"] for s in spans} == {"cell", "simulate"}
        worker = next(s for s in spans if s["kind"] == "simulate")
        assert worker["pid"] == 12345 and worker["epoch"] == 4

    def test_worker_span_buffer_drains(self):
        buffer = WorkerSpanBuffer(profile_every=2)
        assert buffer.deep(1) is None and buffer.deep(2) is buffer
        with buffer.span("monitor", epoch=2):
            pass
        records = buffer.drain()
        assert len(records) == 1
        code, start, dur, epoch = records[0]
        assert SPAN_KINDS[code] == "monitor" and epoch == 2 and dur >= 0
        assert buffer.drain() == ()  # drained clean

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(profile_every=0)
        with pytest.raises(ValueError):
            TelemetryConfig(span_capacity=0)
        with pytest.raises(ValueError):
            TelemetryConfig(jsonl_rotate_bytes=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_PROFILE", raising=False)
        assert TelemetryConfig.from_env() is None
        monkeypatch.setenv("REPRO_FLEET_PROFILE", "0")
        assert TelemetryConfig.from_env() is None
        monkeypatch.setenv("REPRO_FLEET_PROFILE", "1")
        assert TelemetryConfig.from_env() == TelemetryConfig(
            enabled=True, profile_every=1
        )
        monkeypatch.setenv("REPRO_FLEET_PROFILE", "5")
        assert TelemetryConfig.from_env().profile_every == 5

    def test_resolve_telemetry(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_PROFILE", raising=False)
        assert resolve_telemetry(None) is None
        assert resolve_telemetry(TelemetryConfig(enabled=False)) is None
        registry = _registry()
        assert resolve_telemetry(registry) is registry
        fresh = resolve_telemetry(TelemetryConfig())
        assert isinstance(fresh, TelemetryRegistry)
        with pytest.raises(TypeError):
            resolve_telemetry("yes")
        monkeypatch.setenv("REPRO_FLEET_PROFILE", "2")
        from_env = resolve_telemetry(None)
        assert from_env is not None and from_env.config.profile_every == 2


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestPrometheus:
    def test_catalog_and_span_series_present(self):
        registry = _registry()
        registry.inc(C_EPOCHS, 3)
        with registry.span("merge", 1):
            pass
        text = registry.render_prometheus()
        for name in COUNTER_NAMES:
            assert f"# TYPE fleet_{name} counter" in text
        assert "fleet_epochs_total 3" in text
        assert 'fleet_spans_total{kind="merge"} 1' in text
        assert 'fleet_span_seconds_total{kind="merge"}' in text
        # Every non-comment line is "name[{labels}] value".
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            metric, value = line.rsplit(" ", 1)
            assert metric and float(value) >= 0

    def test_gauge_names_sanitised(self):
        registry = _registry()
        registry.set_gauge("mem/used.bytes", 12.5)
        text = registry.render_prometheus()
        assert "fleet_mem_used_bytes 12.5" in text

    def test_label_escaping(self):
        assert _escape_label('a"b') == 'a\\"b'
        assert _escape_label("a\\b") == "a\\\\b"
        assert _escape_label("a\nb") == "a\\nb"

    def test_monotone_across_snapshot_resume(self, tmp_path):
        fleet = _small_fleet(TelemetryConfig(enabled=True))
        fleet.run(3, RunOptions(analyze=False))
        before = fleet.telemetry.counter("epochs_total")
        seconds_before = fleet.telemetry.span_totals()["epoch"]["seconds"]
        checkpoint = fleet.snapshot(tmp_path / "fleet.ckpt")
        assert checkpoint.meta["has_telemetry"] is True
        fleet.shutdown()

        resumed = Fleet.resume(tmp_path / "fleet.ckpt")
        assert resumed.telemetry is not None
        # Carried totals arrive before any new epoch runs.
        assert resumed.telemetry.counter("epochs_total") == before
        assert resumed.telemetry.counter("snapshots_total") == 1
        resumed.run(2, RunOptions(analyze=False))
        resumed.shutdown()
        assert resumed.telemetry.counter("epochs_total") == before + 2
        assert (
            resumed.telemetry.span_totals()["epoch"]["seconds"]
            > seconds_before
        )
        text = resumed.telemetry.render_prometheus()
        assert f"fleet_epochs_total {before + 2}" in text

    def test_resume_telemetry_override(self, tmp_path):
        fleet = _small_fleet(TelemetryConfig(enabled=True))
        fleet.run(2, RunOptions(analyze=False))
        fleet.snapshot(tmp_path / "fleet.ckpt")
        fleet.shutdown()
        # An explicit disabled config switches telemetry off on resume.
        quiet = Fleet.resume(
            tmp_path / "fleet.ckpt", telemetry=TelemetryConfig(enabled=False)
        )
        assert quiet.telemetry is None
        quiet.shutdown()

    def test_untelemetered_snapshot_resumes_untelemetered(self, tmp_path):
        fleet = _small_fleet()
        fleet.run(2, RunOptions(analyze=False))
        checkpoint = fleet.snapshot(tmp_path / "fleet.ckpt")
        assert checkpoint.meta["has_telemetry"] is False
        fleet.shutdown()
        resumed = Fleet.resume(tmp_path / "fleet.ckpt")
        assert resumed.telemetry is None
        resumed.shutdown()


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------
class TestChromeTrace:
    def test_schema_and_worker_tracks(self, tmp_path):
        registry = _registry()
        with registry.span("epoch", 0):
            with registry.span("dispatch", 0):
                pass
        registry.fold_worker_spans(
            [(SPAN_KINDS.index("simulate"), 0.1, 0.05, 0)], pid=4242
        )
        path = registry.export_chrome_trace(tmp_path / "run.trace.json")
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"epoch", "dispatch", "simulate"}
        for event in complete:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["dur"] >= 0 and "epoch" in event["args"]
        metadata = {
            e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert metadata[4242] == "fleet worker 4242"
        assert metadata[registry._pid] == "fleet parent"
        assert "timestamp_utc" in payload["otherData"]

    def test_trace_loads_as_json_after_fleet_run(self, tmp_path):
        fleet = _small_fleet(TelemetryConfig(enabled=True))
        fleet.run(2, RunOptions(analyze=False))
        fleet.shutdown()
        path = fleet.telemetry.export_chrome_trace(tmp_path / "t.json")
        payload = json.loads(path.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"epoch", "simulate", "monitor"} <= names


class TestWorkerSpans:
    """Process workers record deep spans into a local buffer that rides
    each epoch's descriptor back to the parent, which folds them under
    the worker's pid."""

    EPOCHS = 3

    @pytest.mark.parametrize("drive", ["run", "stream"])
    def test_every_shard_epoch_folds_worker_simulate_spans(self, drive):
        scenario = synthesize_datacenter(8, num_shards=2, seed=5, episodes=[])
        fleet = build_fleet(
            scenario,
            executor="process",
            max_workers=2,
            telemetry=TelemetryConfig(profile_every=1),
        )
        try:
            fleet.bootstrap()
            options = RunOptions(analyze=False)
            if drive == "run":
                fleet.run(self.EPOCHS, options)
            else:
                for _ in fleet.stream(self.EPOCHS, options):
                    pass
            expected = sorted(
                (epoch, row["pid"])
                for row in fleet.worker_health()
                for _ in row["shards"]
                for epoch in range(self.EPOCHS)
            )
            folded = sorted(
                (span["epoch"], span["pid"])
                for span in fleet.telemetry.spans()
                if span["kind"] == "simulate"
            )
            assert folded == expected
        finally:
            fleet.shutdown()


# ---------------------------------------------------------------------------
# JSONL event log
# ---------------------------------------------------------------------------
class TestJsonlLog:
    def test_events_append_as_json_lines(self, tmp_path):
        log = tmp_path / "events.jsonl"
        registry = _registry(jsonl_path=str(log))
        registry.log_event("snapshot", epoch=4)
        registry.log_event("worker_restarted", worker=1, epoch=5)
        registry.close()
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["event"] for r in records] == ["snapshot", "worker_restarted"]
        assert records[1]["worker"] == 1
        assert all("time_unix" in r for r in records)

    def test_rotation_at_size_threshold(self, tmp_path):
        log = tmp_path / "events.jsonl"
        registry = _registry(jsonl_path=str(log), jsonl_rotate_bytes=200)
        for i in range(20):
            registry.log_event("tick", index=i, padding="x" * 40)
        registry.log_event("final")  # reopens the active file post-rotation
        registry.close()
        rotated = tmp_path / "events.jsonl.1"
        assert rotated.exists(), "log should have rotated"
        assert log.stat().st_size < 200 + 100
        # Both generations stay line-parseable.
        for path in (log, rotated):
            for line in path.read_text().splitlines():
                json.loads(line)

    def test_disabled_or_unconfigured_logs_nothing(self, tmp_path):
        registry = _registry()  # no jsonl_path
        registry.log_event("snapshot", epoch=1)
        registry.close()
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Dashboard integration
# ---------------------------------------------------------------------------
class TestDashboardTelemetry:
    def test_watch_prefers_span_durations(self):
        fleet = _small_fleet(TelemetryConfig(enabled=True))
        dashboard = FleetDashboard(fleet)
        for _ in dashboard.watch(3):
            pass
        fleet.shutdown()
        doc = dashboard.snapshot()
        assert (
            doc["throughput"]["last_epoch_seconds"]
            == fleet.telemetry.last_epoch_duration
        )

    def test_render_prometheus_refreshes_gauges(self):
        fleet = _small_fleet(TelemetryConfig(enabled=True))
        dashboard = FleetDashboard(fleet)
        for _ in dashboard.watch(2):
            pass
        fleet.shutdown()
        text = dashboard.render_prometheus()
        assert "fleet_epochs_total 2" in text
        assert "fleet_vms " in text  # stats() gauge
        assert "fleet_dashboard_epochs_observed 2" in text

    def test_render_prometheus_without_telemetry(self):
        fleet = _small_fleet()
        dashboard = FleetDashboard(fleet)
        fleet.shutdown()
        assert dashboard.render_prometheus() == "# telemetry disabled\n"
