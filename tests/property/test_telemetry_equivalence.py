"""Telemetry-transparency properties.

The telemetry bus (:mod:`repro.fleet.telemetry`) observes the run path
— it must never steer it.  Every decision the warning system makes and
every :class:`~repro.fleet.fleet.FleetRunSummary` total must be
**bit-identical** with telemetry off, fully on, or sampled
(``profile_every > 1``), across

* executors (``serial`` / ``process``) at 1/2/4 workers,
* flat vs. hierarchical (regional) topologies,

on a scenario busy enough to exercise the instrumented paths: churn
through the admission policy, a scheduled interference episode, and the
columnar shared-memory exchange under the process executor (whose
descriptors additionally carry the workers' span batches).
"""

import pytest

from fleet_reference import decision_key, summary_key
from repro.core.config import DeepDiveConfig
from repro.fleet import (
    FleetRunSummary,
    InterferenceEpisode,
    RunOptions,
    TelemetryConfig,
    build_fleet,
    build_regional_fleet,
    churn_timeline,
    synthesize_datacenter,
)

EPOCHS = 8
NUM_SHARDS = 4

#: Full profiling and a sampled cadence — both must be invisible.
TELEMETRY_MODES = {
    "off": None,
    "on": TelemetryConfig(enabled=True, profile_every=1),
    "sampled": TelemetryConfig(enabled=True, profile_every=3),
}


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
    shard_ids = [f"shard{s}" for s in range(NUM_SHARDS)]
    timeline = churn_timeline(
        shard_ids,
        epochs=EPOCHS,
        seed=11,
        arrivals_per_epoch=0.5,
        mean_lifetime_epochs=5.0,
    )
    return synthesize_datacenter(
        16,
        num_shards=NUM_SHARDS,
        seed=29,
        episodes=[
            InterferenceEpisode(
                shard=1, host_index=1, start_epoch=2, end_epoch=6, kind="memory"
            )
        ],
        timeline=timeline,
    )


def _build(mode, executor=None, max_workers=None, regional=False):
    telemetry = TELEMETRY_MODES[mode]
    if regional:
        fleet = build_regional_fleet(
            _scenario(),
            num_regions=2,
            config=_config(),
            mitigate=True,
            executor=executor,
            region_workers=max_workers,
            telemetry=telemetry,
        )
    else:
        fleet = build_fleet(
            _scenario(),
            config=_config(),
            mitigate=True,
            executor=executor,
            max_workers=max_workers,
            telemetry=telemetry,
        )
    fleet.bootstrap()
    return fleet


def _run(fleet):
    summary = FleetRunSummary()
    decisions = []
    try:
        for _ in range(EPOCHS):
            report = fleet.run_epoch()
            decisions.append(decision_key(report))
            summary.accumulate(report)
        stats = fleet.stats()
    finally:
        fleet.shutdown()
    return decisions, summary, stats


@pytest.fixture(scope="module")
def reference():
    """The flat serial telemetry-off run."""
    return _run(_build("off"))


def _assert_matches(result, reference):
    decisions, summary, stats = result
    decisions_ref, summary_ref, stats_ref = reference
    for epoch, (a, b) in enumerate(zip(decisions_ref, decisions)):
        assert a == b, f"decisions diverge at epoch {epoch}"
    assert summary_key(summary) == summary_key(summary_ref)
    for key, value in stats_ref.items():
        if key == "regions":
            continue
        assert stats[key] == value, f"stats[{key}]"


class TestTelemetryEquivalence:
    def test_scenario_active(self, reference):
        """A quiet fleet would vacuously pass every check below."""
        _decisions, summary, _stats = reference
        assert summary.confirmed_interference > 0
        assert summary.observations > 0

    @pytest.mark.parametrize("mode", ["on", "sampled"])
    def test_serial_bit_identical(self, reference, mode):
        _assert_matches(_run(_build(mode)), reference)

    @pytest.mark.parametrize("max_workers", [1, 2, 4])
    def test_process_bit_identical(self, reference, max_workers):
        """Workers ship their span batches on the columnar descriptors;
        the decision columns must not notice."""
        fleet = _build("on", executor="process", max_workers=max_workers)
        result = _run(fleet)
        _assert_matches(result, reference)
        # The registry really recorded the run it just proved invisible.
        assert fleet.telemetry.counter("epochs_total") == EPOCHS
        totals = fleet.telemetry.span_totals()
        assert totals["epoch"]["count"] == EPOCHS
        assert totals["dispatch"]["count"] == EPOCHS
        assert totals["merge"]["count"] == EPOCHS

    @pytest.mark.parametrize("mode", ["on", "sampled"])
    def test_process_columnar_stream_bit_identical(self, reference, mode):
        """The hot ``keep_reports=False`` columnar loop — where worker
        deep spans ride the shm descriptors back — folds to the same
        summary, and the parent trace gains per-worker tracks."""
        _decisions, summary_ref, _stats = reference
        fleet = _build(mode, executor="process", max_workers=2)
        summary = fleet.run(EPOCHS, RunOptions(analyze=True, keep_reports=False))
        registry = fleet.telemetry
        fleet.shutdown()
        assert summary_key(summary) == summary_key(summary_ref)
        totals = registry.span_totals()
        assert totals["epoch"]["count"] == EPOCHS
        assert totals["simulate"]["count"] > 0
        worker_pids = {
            span["pid"]
            for span in registry.spans()
            if span["kind"] == "simulate"
        }
        assert worker_pids and all(
            pid != registry._pid for pid in worker_pids
        ), "worker deep spans must land under worker pids"
        if mode == "sampled":
            # Sampling thins the deep spans but never the coarse ones.
            assert totals["simulate"]["count"] < NUM_SHARDS * EPOCHS

    @pytest.mark.parametrize("mode", ["on", "sampled"])
    def test_regional_bit_identical(self, reference, mode):
        """One shared registry across every region, still invisible."""
        fleet = _build(mode, executor="process", max_workers=2, regional=True)
        result = _run(fleet)
        _assert_matches(result, reference)
        # Epoch spans tick once per fleet-wide epoch, not per region.
        assert fleet.telemetry.counter("epochs_total") == EPOCHS
        assert fleet.telemetry.span_totals()["epoch"]["count"] == EPOCHS

    def test_profile_env_switch(self, reference, monkeypatch):
        """``REPRO_FLEET_PROFILE=1`` instruments fleets built with no
        explicit telemetry argument — identically invisibly."""
        monkeypatch.setenv("REPRO_FLEET_PROFILE", "1")
        fleet = build_fleet(_scenario(), config=_config(), mitigate=True)
        assert fleet.telemetry is not None
        fleet.bootstrap()
        _assert_matches(_run(fleet), reference)
