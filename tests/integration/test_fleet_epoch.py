"""Fleet-level integration: the full epoch loop at 100-VM scale.

Exercises the whole stack — scenario generation, sharded clusters, the
batch epoch engine, detection, and mitigation — on a synthetic 100-VM
datacenter with injected interference episodes, and pins the DeepDive-
level equivalence of the scalar and batch engines over a full epoch
sequence.
"""

import pytest

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    InterferenceEpisode,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)
from repro.fleet.executor import columnar_from_report, step_shards


@pytest.fixture
def fast_config():
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )


EPISODES = [
    InterferenceEpisode(
        shard=0, host_index=0, start_epoch=6, end_epoch=14, kind="memory"
    ),
    InterferenceEpisode(
        shard=1, host_index=3, start_epoch=16, end_epoch=24, kind="memory"
    ),
]


class TestFleetEpochLoop:
    def test_100_vm_fleet_detects_and_mitigates_each_episode(self, fast_config):
        """Quiet baseline, per-episode detection, exactly one migration each."""
        scenario = synthesize_datacenter(
            100, num_shards=2, seed=11, episodes=EPISODES
        )
        fleet = build_fleet(
            scenario, config=fast_config, engine="batch", mitigate=True
        )
        assert fleet.total_vms() == 100 + len(EPISODES)
        fleet.bootstrap()

        confirmed_by_epoch = {}
        for epoch in range(28):
            report = fleet.run_epoch()
            confirmed_by_epoch[epoch] = report.confirmed_interference()

        # The learning epochs (0..5) certify the production behaviours;
        # once learned, the quiet fleet stays quiet.
        for epoch in range(1, 6):
            assert confirmed_by_epoch[epoch] == [], (
                f"false positives in quiet epoch {epoch}: "
                f"{confirmed_by_epoch[epoch]}"
            )

        # Each episode is detected on its target shard while active.
        for episode in EPISODES:
            shard_id = f"shard{episode.shard}"
            hits = [
                vm
                for epoch in range(episode.start_epoch, episode.end_epoch)
                for s, vm in confirmed_by_epoch[epoch]
                if s == shard_id
            ]
            assert hits, f"episode on {shard_id} was never detected"

        # Exactly one migration per persistent episode: the aggressor is
        # moved to the shard's headroom host in the detection epoch, and
        # the victims' recovery ends the episode for good.
        migrations = fleet.migrations()
        assert len(migrations) == len(EPISODES)
        for episode, (shard_id, event) in zip(EPISODES, sorted(
            migrations, key=lambda m: m[1].epoch
        )):
            assert shard_id == f"shard{episode.shard}"
            assert event.epoch == episode.start_epoch
            assert "stress" in event.vm_name
            assert event.source.endswith(f"pm{episode.host_index}")

        # After an episode's migration the victims recover: no further
        # confirmations on that shard once the aggressor is gone.
        for episode in EPISODES:
            shard_id = f"shard{episode.shard}"
            post = [
                vm
                for epoch in range(episode.start_epoch + 1, 28)
                for s, vm in confirmed_by_epoch[epoch]
                if s == shard_id
            ]
            assert post == [], f"{shard_id} did not recover: {post}"

    def test_engines_agree_over_full_epoch_sequence(self, fast_config):
        """Scalar and batch DeepDive runs evolve identically epoch for epoch.

        Two fleets built from the same scenario are deterministic; the
        only difference is the epoch engine, so any divergence in any
        epoch's decisions — the whole warning record, the analysis and
        known-interference outcome, or the flattened report columns — is
        an engine bug.  Both read the shards' own epoch reports, which
        carry the per-VM observations a fleet report leaves out.
        """
        _assert_engines_agree(fast_config, timeline=None)

    def test_engines_agree_under_lifecycle_churn(self, fast_config):
        """The same agreement while tenants arrive and depart, so the
        placement changes under both engines."""
        timeline = churn_timeline(
            ["shard0", "shard1"],
            epochs=10,
            seed=5,
            arrivals_per_epoch=1.0,
            mean_lifetime_epochs=4.0,
        )
        _assert_engines_agree(fast_config, timeline=timeline)


def _shard_epochs(fleet):
    """Advance a serial fleet by one epoch exactly as its executor does,
    returning each shard's full :class:`EpochReport`."""
    reports = step_shards(
        fleet.shards, fleet.schedule, fleet.lifecycle, fleet.current_epoch, True
    )
    fleet.current_epoch += 1
    return reports


def _assert_engines_agree(config, timeline):
    def drive(engine):
        scenario = synthesize_datacenter(
            60, num_shards=2, seed=23, episodes=[EPISODES[0]], timeline=timeline
        )
        fleet = build_fleet(scenario, config=config, engine=engine, mitigate=True)
        fleet.bootstrap()
        trace = []
        columns = []
        for epoch in range(10):
            reports = _shard_epochs(fleet)
            trace.append(
                {
                    (shard_id, vm): (
                        obs.warning,
                        obs.analysis is not None,
                        obs.known_interference,
                        obs.interference_confirmed,
                    )
                    for shard_id, rep in reports.items()
                    for vm, obs in rep.observations.items()
                }
            )
            columns.append(
                {
                    shard_id: _columns(
                        columnar_from_report(
                            shard_id, epoch, rep, fleet.shards[shard_id]
                        )
                    )
                    for shard_id, rep in reports.items()
                }
            )
        return trace, columns, [
            (s, m.vm_name, m.source, m.destination, m.epoch)
            for s, m in fleet.migrations()
        ]

    scalar_trace, scalar_columns, scalar_migrations = drive("scalar")
    batch_trace, batch_columns, batch_migrations = drive("batch")
    for epoch, (a, b) in enumerate(zip(scalar_trace, batch_trace)):
        assert a == b, f"engines diverged at epoch {epoch}"
    for epoch, (a, b) in enumerate(zip(scalar_columns, batch_columns)):
        assert a == b, f"report columns diverged at epoch {epoch}"
    assert scalar_migrations == batch_migrations


def _columns(report):
    """A columnar shard report as comparable plain values."""
    return (
        report.vm_names,
        report.action_codes.tolist(),
        report.distances.tolist(),
        report.siblings_consulted.tolist(),
        report.siblings_agreeing.tolist(),
        report.analyzed.tolist(),
        report.confirmed.tolist(),
        None if report.counter_totals is None else report.counter_totals.tolist(),
    )


class TestBatchEpochReport:
    @pytest.fixture
    def reports(self, fast_config):
        """Every shard report of a detecting, mitigating batch run."""
        scenario = synthesize_datacenter(
            60, num_shards=2, seed=23, episodes=[EPISODES[0]]
        )
        fleet = build_fleet(scenario, config=fast_config, mitigate=True)
        fleet.bootstrap()
        out = []
        for _ in range(8):
            out.extend(_shard_epochs(fleet).values())
        return out

    def test_observations_are_read_only(self, reports):
        report = reports[0]
        vm_name = next(iter(report.observations))
        with pytest.raises(TypeError):
            report.observations[vm_name] = report.observations[vm_name]
        with pytest.raises(TypeError):
            del report.observations[vm_name]
