"""Tests of the fleet benchmark: scorer, percentiles, verdicts, smoke runs."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from fleetbench.calibration import REFERENCE_S, Calibration
from fleetbench.layers import HOOKS, NESTED, LayerTracer
from fleetbench.runner import run_timed, run_traced
from fleetbench.scoring import (
    GRACE_EPOCHS,
    percentile,
    score_episodes,
    victims_at_start,
)
from fleetbench.spec import metric_specs
from fleetbench.verdicts import compare, verdict
from fleetbench.workloads import WORKLOADS, Episode

EPISODE = Episode(shard="shard0", host="s0pm1", start=10, end=20, stress_vm="stress")
HOSTS = {("shard0", "s0pm1"): ("a", "b", "stress"), ("shard0", "s0pm2"): ("c",)}


def _score(detections=(), analyses=(), migrations=(), horizon=(0, 100), vm_epochs=2000):
    return score_episodes(
        [EPISODE],
        HOSTS,
        detections=list(detections),
        analyses=list(analyses),
        migrations=list(migrations),
        horizon=horizon,
        vm_epochs=vm_epochs,
    )


class TestEpisodeScorer:
    def test_detection_on_victim_counts_with_latency(self):
        score = _score(detections=[("shard0", 12, "a"), ("shard0", 15, "b")])
        assert score["episode_recall"] == 1.0
        assert score["detect_latency_epochs"] == 2.0
        assert score["unexplained_detections_per_1k_vm_epochs"] == 0.0

    def test_stress_vm_detection_counts(self):
        assert _score(detections=[("shard0", 10, "stress")])["episode_recall"] == 1.0

    def test_grace_window_edges(self):
        last = EPISODE.end + GRACE_EPOCHS - 1
        inside = _score(detections=[("shard0", last, "a")])
        assert inside["episode_recall"] == 1.0
        assert inside["detect_latency_epochs"] == last - EPISODE.start
        for epoch in (EPISODE.start - 1, EPISODE.end + GRACE_EPOCHS):
            outside = _score(detections=[("shard0", epoch, "a")])
            assert outside["episode_recall"] == 0.0
            assert outside["unexplained_detections_per_1k_vm_epochs"] == 0.5

    def test_other_shard_and_other_host_are_unexplained(self):
        score = _score(
            detections=[("shard1", 12, "a"), ("shard0", 12, "c")],
            analyses=[("shard0", 12, "c"), ("shard0", 12, "a")],
        )
        assert score["episode_recall"] == 0.0
        assert score["detect_latency_epochs"] is None
        assert score["unexplained_detections_per_1k_vm_epochs"] == 1.0
        assert score["unexplained_analyses_per_1k_vm_epochs"] == 0.5

    def test_victims_follow_migrations_before_start(self):
        migrations = [
            ("shard0", 5, "c", "s0pm2", "s0pm1"),
            ("shard0", 8, "a", "s0pm1", "s0pm2"),
            ("shard0", EPISODE.start, "b", "s0pm1", "s0pm2"),
            ("shard1", 3, "b", "s0pm1", "s0pm2"),
        ]
        assert victims_at_start(EPISODE, HOSTS, migrations) == {"b", "c", "stress"}

    def test_migrations_before_the_horizon_are_already_in_the_hosts(self):
        moved_in_warmup = [("shard0", 2, "a", "s0pm1", "s0pm2")]
        score = _score(
            detections=[("shard0", 12, "a")],
            migrations=moved_in_warmup,
            horizon=(5, 100),
        )
        assert score["episode_recall"] == 1.0

    def test_mitigated_only_when_stress_leaves_host_before_end(self):
        moved = ("shard0", 15, "stress", "s0pm1", "s0pm3")
        assert _score(migrations=[moved])["mitigated_fraction"] == 1.0
        late = ("shard0", EPISODE.end, "stress", "s0pm1", "s0pm3")
        assert _score(migrations=[late])["mitigated_fraction"] == 0.0
        victim = ("shard0", 15, "a", "s0pm1", "s0pm3")
        assert _score(migrations=[victim])["mitigated_fraction"] == 0.0

    def test_episode_beyond_horizon_is_not_scored_but_explains(self):
        score = _score(
            detections=[("shard0", 12, "a")],
            horizon=(0, EPISODE.end + GRACE_EPOCHS - 1),
        )
        assert score["episodes_scored"] == 0
        assert score["episode_recall"] is None
        assert score["mitigated_fraction"] is None
        assert score["unexplained_detections_per_1k_vm_epochs"] == 0.0

    def test_decisions_outside_horizon_are_ignored(self):
        score = _score(detections=[("shard1", 3, "a")], horizon=(5, 100))
        assert score["unexplained_detections_per_1k_vm_epochs"] == 0.0


class TestPercentile:
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with pytest.raises(ValueError):
            percentile(list(range(100)), 99)
        with pytest.raises(ValueError):
            percentile(list(range(99)), 90)
        with pytest.raises(ValueError):
            percentile(list(range(19)), 50)

    def test_matches_numpy_when_allowed(self):
        values = np.random.default_rng(0).random(100)
        assert percentile(values, 90) == pytest.approx(np.percentile(values, 90))
        assert percentile(values[:20], 50) == pytest.approx(np.median(values[:20]))


def test_calibration_factor_scales_by_the_kernel_slowdown():
    calibration = Calibration()
    calibration.run(3)
    assert len(calibration.times) == 3
    calibration.times = [REFERENCE_S] * 3
    assert calibration.factor() == pytest.approx(1.0)
    calibration.times = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert calibration.factor() == pytest.approx(0.5)


def _pairs(base, factors):
    return [(b, b * f) for b, f in zip(base, factors)]


class TestVerdicts:
    #: Seed-driven base values far apart, as peak memory is across seeds.
    base = [100.0 * (1 + 0.2 * i) for i in range(10)]

    def test_worse_beyond_bound(self):
        assert verdict(_pairs(self.base, [0.85] * 10), "higher", 0.1) == "worse"
        assert verdict(_pairs(self.base, [1.15] * 10), "lower", 0.1) == "worse"

    def test_pairing_sees_a_regression_the_seed_spread_hides(self):
        # The sides' spreads (0.9) dwarf the 12% loss; the pairs do not.
        assert verdict(_pairs(self.base, [1.12] * 10), "lower", 0.1) == "worse"
        assert verdict(_pairs(self.base, [1.08] * 10), "lower", 0.1) == "same"

    def test_better_needs_pairs_wins_and_gap(self):
        faster = [1.10 + 0.002 * i for i in range(10)]
        assert verdict(_pairs(self.base, faster), "higher", 0.1) == "better"
        assert verdict(_pairs(self.base[:9], faster[:9]), "higher", 0.1) == "same"
        one_loss = [0.99] + faster[1:]
        assert verdict(_pairs(self.base, one_loss), "higher", 0.1) == "better"
        two_losses = [0.99, 0.99] + faster[2:]
        assert verdict(_pairs(self.base, two_losses), "higher", 0.1) == "same"
        noisy = [1.01, 1.3] * 5
        assert verdict(_pairs(self.base, noisy), "higher", 0.5) == "same"

    def test_unresolved_when_paired_spread_exceeds_bound(self):
        wide = [0.8, 1.2, 0.9, 1.1, 1.0] * 2
        assert verdict(_pairs(self.base, wide), "higher", 0.1) == "unresolved"
        all_won = [1.01, 1.4, 1.02, 1.3, 1.03] * 2
        assert verdict(_pairs(self.base, all_won), "higher", 0.1) != "unresolved"

    def test_compare_pairs_by_seed_and_flags(self):
        def run(seed, value, digest="d", recall=0.5, failed=0.0, epochs=300):
            return {
                "seed": seed,
                "epochs": epochs,
                "metrics": {"vm_epochs_per_s": {"value": value, "unit": "VM-epochs/s"}},
                "digest": digest,
                "decision": {"failed_epoch_fraction": failed, "episode_recall": recall},
            }

        base = {"w": [run(1, 100.0), run(2, 200.0), run(4, 50.0)]}
        change = {
            "w": [
                run(2, 199.0, recall=0.25, failed=0.1),
                run(1, 100.5, digest="x"),
                run(3, 10.0, epochs=200),
            ]
        }
        specs = {
            "vm_epochs_per_s": {"unit": "VM-epochs/s", "better": "higher", "bound": 0.1}
        }
        rows, flags = compare(base, change, specs)
        assert [(r["pairs"], r["verdict"]) for r in rows] == [(2, "same")]
        assert any("digest" in f and "seed 1" in f for f in flags)
        assert any("episode_recall" in f and "seed 2" in f for f in flags)
        assert any("failed_epoch_fraction rose" in f for f in flags)
        assert not any("epochs" in f for f in flags)  # seed 3 has no pair
        change["w"][1]["epochs"] = 250
        assert any("seed 1: timed 300 -> 250 epochs" in f for f in compare(
            base, change, specs
        )[1])


SMOKE = {
    "steady_2k": dict(num_vms=48, num_shards=2),
    "churn_1k": dict(num_vms=48, num_shards=2),
    "interference_1k": dict(num_vms=48, num_shards=2),
}


def _reduced(name):
    return replace(WORKLOADS[name], epochs=20, **SMOKE[name])


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_workload_smoke(name):
    result = run_timed(_reduced(name), seed=3, setups=1)
    assert result["correct"], result["checks"]
    assert result["epochs"] == result["attempted"] == 20
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(metric_specs("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    factor = result["timing"]["calibration_factor"]["value"]
    for metric, scale in (("epoch_p50_ms", factor), ("vm_epochs_per_s", 1 / factor)):
        raw = result["timing"][f"raw_{metric}"]["value"]
        assert result["metrics"][metric]["value"] == pytest.approx(raw * scale)
    # 20 epochs leave too few samples beyond p90; the run omits it.
    assert "epoch_p90_ms" not in result["timing"]
    if WORKLOADS[name].executor == "process":
        assert result["checks"]["serial_replay_identical"]


def test_traced_smoke_restores_the_wrapped_methods(tmp_path):
    originals = [owner.__dict__[name] for owner, name, *_ in HOOKS + NESTED]
    result = run_traced(
        _reduced("churn_1k"), seed=3, trace_path=tmp_path / "t.chrome.json"
    )
    assert result["correct"], result["checks"]
    assert set(result["metrics"]) == set(metric_specs("per_layer"))
    assert result["metrics"]["ipc.dispatch_ms_per_epoch"]["value"] > 0
    assert result["metrics"]["lifecycle.ms_per_epoch"]["value"] > 0
    assert result["metrics"]["report.ms_per_epoch"]["value"] > 0
    assert [owner.__dict__[name] for owner, name, *_ in HOOKS + NESTED] == originals
    with LayerTracer():
        assert [owner.__dict__[n] for owner, n, *_ in HOOKS + NESTED] != originals
    assert [owner.__dict__[name] for owner, name, *_ in HOOKS + NESTED] == originals
