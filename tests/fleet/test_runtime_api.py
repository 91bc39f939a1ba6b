"""The fleet run surface: RunOptions and streaming.

Pins the one runtime: flat and regional fleets are the same
:class:`~repro.fleet.Fleet` class, ``stream`` is the lazy primitive
``run``/``run_epoch``/``run_summaries`` are built on, and a typed
:class:`~repro.fleet.RunOptions` is the only way to configure a run —
the old ``analyze=`` / ``report=`` / ``keep_reports=`` keywords are
refused.
"""

import numpy as np
import pytest
from fleet_reference import WorkerPids, decision_key

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    ColumnarFleetReport,
    Fleet,
    FleetRunSummary,
    RunOptions,
    build_fleet,
    build_regional_fleet,
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


def _fleet(executor=None, max_workers=None, regional=False):
    scenario = synthesize_datacenter(16, num_shards=2, seed=23)
    if regional:
        fleet = build_regional_fleet(
            scenario,
            num_regions=2,
            config=_config(),
            executor=executor,
            region_workers=max_workers,
        )
    else:
        fleet = build_fleet(
            scenario, config=_config(), executor=executor, max_workers=max_workers
        )
    fleet.bootstrap()
    return fleet


class TestRunOptions:
    def test_defaults(self):
        options = RunOptions()
        assert options.analyze is True
        assert options.report == "columnar"
        assert options.keep_reports is True

    def test_unknown_report_mode_rejected(self):
        with pytest.raises(ValueError, match="cinematic"):
            RunOptions(report="cinematic")

    @pytest.mark.parametrize("mode", ["full", "auto"])
    def test_full_and_auto_modes_removed(self, mode):
        with pytest.raises(ValueError, match="'full' and 'auto' modes were removed"):
            RunOptions(report=mode)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunOptions().analyze = False

    def test_options_and_legacy_keywords_conflict(self):
        """Run keywords are gone: RunOptions is the only configuration."""
        fleet = _fleet()
        try:
            with pytest.raises(TypeError, match="report"):
                fleet.run_epoch(RunOptions(), report="full")
            with pytest.raises(TypeError, match="keep_reports"):
                fleet.run(1, RunOptions(), keep_reports=False)
            with pytest.raises(TypeError, match="analyze"):
                fleet.run_epoch(analyze=False)
            assert fleet.current_epoch == 0
        finally:
            fleet.shutdown()

    def test_non_runoptions_rejected(self):
        fleet = _fleet()
        try:
            with pytest.raises(TypeError, match="RunOptions"):
                fleet.run_epoch({"report": "full"})
        finally:
            fleet.shutdown()


class TestProtocol:
    @pytest.mark.parametrize("regional", [False, True], ids=["flat", "regional"])
    def test_both_fleet_kinds_satisfy_the_protocol(self, regional):
        fleet = _fleet(regional=regional)
        try:
            assert isinstance(fleet, Fleet)
            for method in ("stream", "run", "run_epoch", "run_summaries"):
                assert callable(getattr(fleet, method))
        finally:
            fleet.shutdown()

    def test_kind_specific_classes(self):
        """A flat fleet is a Fleet without regions; a regional one is
        the same class carrying its partition."""
        flat = _fleet()
        regional = _fleet(regional=True)
        try:
            assert type(flat) is type(regional) is Fleet
            assert flat.regions is None
            assert [r.region_id for r in regional.regions] == ["region0", "region1"]
        finally:
            flat.shutdown()
            regional.shutdown()

    def test_context_manager_shuts_down(self):
        pids = WorkerPids()
        with _fleet(executor="process", max_workers=2) as fleet:
            fleet.run_epoch()
            pids.note(fleet)
        assert pids.leaked() == []


class TestStream:
    def test_stream_is_lazy(self):
        """Epochs run only as the iterator advances; abandoning it
        mid-run stops the clock where it is."""
        fleet = _fleet()
        try:
            stream = fleet.stream(5)
            assert fleet.current_epoch == 0, "creating a stream runs nothing"
            next(stream)
            next(stream)
            assert fleet.current_epoch == 2
            stream.close()
            assert fleet.current_epoch == 2
            # The fleet is still operable after an abandoned stream.
            fleet.run_epoch()
            assert fleet.current_epoch == 3
        finally:
            fleet.shutdown()

    def test_negative_epochs_rejected_eagerly(self):
        fleet = _fleet()
        try:
            with pytest.raises(ValueError, match="non-negative"):
                fleet.stream(-1)
        finally:
            fleet.shutdown()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_every_executor_streams_columnar_reports(self, executor):
        fleet = _fleet(executor=executor, max_workers=2)
        try:
            reports = list(fleet.stream(3, RunOptions(analyze=False)))
            assert [type(report) for report in reports] == [ColumnarFleetReport] * 3
            assert [report.epoch for report in reports] == [0, 1, 2]
        finally:
            fleet.shutdown()

    def test_held_reports_outlive_shared_memory(self):
        """Reports buffered by run(keep_reports=True) and a summary's
        final report own their arrays: three further epochs of a
        process fleet (which rewrite both shared-memory buffers) leave
        them reading the same."""
        fleet = _fleet(executor="process", max_workers=2)
        try:
            summarized = RunOptions(analyze=False, keep_reports=False)
            held = fleet.run(2, RunOptions(analyze=False))
            held.append(fleet.run(1, summarized).final_report)
            keys = [decision_key(report) for report in held]
            totals = [report.counter_totals() for report in held]
            fleet.run(3, summarized)
            assert [decision_key(report) for report in held] == keys
            for report, want in zip(held, totals):
                assert np.array_equal(report.counter_totals(), want)
        finally:
            fleet.shutdown()

    def test_run_summary_off_stream_equals_buffered_totals(self):
        summary = None
        reports = None
        fleet = _fleet()
        try:
            reports = fleet.run(4, RunOptions(analyze=False))
        finally:
            fleet.shutdown()
        fleet = _fleet()
        try:
            summary = fleet.run(
                4, RunOptions(analyze=False, keep_reports=False)
            )
        finally:
            fleet.shutdown()
        assert isinstance(summary, FleetRunSummary)
        assert summary.epochs == len(reports) == 4
        assert summary.observations == sum(r.observations() for r in reports)


class TestRunSummaries:
    def test_regional_run_summaries_accepts_options(self):
        fleet = _fleet(regional=True)
        try:
            summaries = fleet.run_summaries(2, RunOptions(analyze=False))
            assert list(summaries) == [r.region_id for r in fleet.regions]
            merged = FleetRunSummary.merge(list(summaries.values()))
            assert merged.epochs == 2
            assert fleet.current_epoch == 2
        finally:
            fleet.shutdown()
