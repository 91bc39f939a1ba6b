"""Fleet-level integration: the full epoch loop at 100-VM scale.

Exercises the whole stack — scenario generation, sharded clusters, the
batch epoch engine, detection, and mitigation — on a synthetic 100-VM
datacenter with injected interference episodes, and checks the batch
engine in lock step against the per-VM reference loop
(``scalar_reference.reference_decisions``) over a full epoch sequence.
"""

import pytest
from scalar_reference import assert_same_decisions, reference_decisions

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    InterferenceEpisode,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)
from repro.fleet.executor import step_shards


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
        fleet = build_fleet(scenario, config=fast_config, mitigate=True)
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
        """The batch engine decides as the per-VM reference loop does at
        every shard epoch.

        Before each shard's monitoring pass, the reference evaluates the
        epoch the cluster just stepped against the same frozen
        repository; any difference in any row's warning record — action,
        exact distance, conservative flag, violated dimensions, sibling
        counts — or in the rows evaluated is an engine bug.  The fleet
        learns, analyses and migrates as it goes, so the check follows
        every state the action phase leads to.
        """
        checked = _assert_engines_agree(fast_config, timeline=None)
        assert checked["migrations"] >= 1

    def test_engines_agree_under_lifecycle_churn(self, fast_config):
        """The same agreement while tenants arrive and depart, so the
        placement changes under the engine."""
        timeline = churn_timeline(
            ["shard0", "shard1"],
            epochs=10,
            seed=5,
            arrivals_per_epoch=1.0,
            mean_lifetime_epochs=4.0,
        )
        checked = _assert_engines_agree(fast_config, timeline=timeline)
        assert checked["placement_changes"] > checked["migrations"]


def _shard_epochs(fleet):
    """Advance a serial fleet by one epoch exactly as its executor does,
    returning each shard's full :class:`EpochReport`."""
    reports = step_shards(
        fleet.shards, fleet.schedule, fleet.lifecycle, fleet.current_epoch, True
    )
    fleet.current_epoch += 1
    return reports


def _assert_engines_agree(config, timeline):
    """Drive a detecting, mitigating fleet for 10 epochs with every
    shard's monitoring pass checked against the reference first.

    Returns the migrations the run made and the placement changes the
    checked epochs saw.
    """
    scenario = synthesize_datacenter(
        60, num_shards=2, seed=23, episodes=[EPISODES[0]], timeline=timeline
    )
    fleet = build_fleet(scenario, config=config, mitigate=True)
    fleet.bootstrap()
    checked = {"epochs": 0, "actions": set(), "placements": set()}

    def checked_run_epoch(deepdive, run_epoch):
        def run(*args, **kwargs):
            want = reference_decisions(deepdive)
            report = run_epoch(*args, **kwargs)
            assert_same_decisions(report.decisions, want)
            checked["epochs"] += 1
            checked["actions"].update(want[name].action.value for name in want)
            checked["placements"].add(
                (id(deepdive), deepdive.cluster._placement_signature())
            )
            return report

        return run

    for shard in fleet.shards.values():
        shard.deepdive.run_epoch = checked_run_epoch(
            shard.deepdive, shard.deepdive.run_epoch
        )
    analyzed = 0
    for _ in range(10):
        reports = _shard_epochs(fleet)
        analyzed += sum(rep.analyzer_invocations() for rep in reports.values())
    assert checked["epochs"] == 10 * len(fleet.shards)
    # The run reached verdicts the action phase acts on.
    assert {"normal", "workload_change", "analyze"} <= checked["actions"]
    assert analyzed > 0
    return {
        "migrations": len(fleet.migrations()),
        "placement_changes": len(checked["placements"]) - len(fleet.shards),
    }


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
