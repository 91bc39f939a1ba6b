"""Scalar/batch hardware-substrate equivalence properties.

The vectorized contention substrate (:mod:`repro.hardware.batch`) must be
a pure optimisation of the scalar per-VM reference model: same counter
streams (including the per-host measurement-noise draws), same progress
and ground truth, and therefore identical monitoring decisions.  The
machine-level batch epoch and the host-by-host cluster step are the
references in ``scalar_reference``.

Counters are compared with a documented tolerance of ``1e-9`` relative:
the batch path replays the scalar arithmetic operation for operation,
but cross-VM reductions (per-domain cache pressure, per-host bus/disk
traffic totals) may associate float additions differently.  In practice
the streams are almost always bit-identical; the tolerance only covers
the reduction order, and is far below anything that could flip a
warning decision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counter_reference import reference_windows
from fleet_reference import decision_key, without_distances
from scalar_reference import run_epoch_batch, use_scalar_substrate

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    InterferenceEpisode,
    RunOptions,
    build_fleet,
    synthesize_datacenter,
)
from repro.hardware.demand import ResourceDemand
from repro.hardware.machine import PhysicalMachine
from repro.hardware.specs import CORE_I7_E5640, XEON_X5472

RTOL = 1e-9
ATOL = 1e-9

demand_strategy = st.builds(
    ResourceDemand,
    instructions=st.one_of(
        st.just(0.0), st.floats(min_value=1e6, max_value=2e10)
    ),
    vcpus=st.integers(min_value=1, max_value=8),
    working_set_mb=st.floats(min_value=0.0, max_value=512.0),
    loads_pki=st.floats(min_value=0.0, max_value=600.0),
    l1_miss_pki=st.floats(min_value=0.0, max_value=200.0),
    ifetch_pki=st.floats(min_value=0.0, max_value=20.0),
    branches_pki=st.floats(min_value=0.0, max_value=300.0),
    branch_mispredict_rate=st.floats(min_value=0.0, max_value=0.2),
    locality=st.floats(min_value=0.0, max_value=1.0),
    disk_mb=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=400.0)),
    disk_sequential_fraction=st.floats(min_value=0.0, max_value=1.0),
    network_mbit=st.one_of(
        st.just(0.0), st.floats(min_value=0.1, max_value=2000.0)
    ),
    write_fraction=st.floats(min_value=0.0, max_value=1.0),
)


def assert_outcomes_equivalent(scalar, batch, context=""):
    """Per-VM outcome equivalence within the documented tolerance."""
    assert set(scalar.per_vm) == set(batch.per_vm)
    for name in scalar.per_vm:
        o_s, o_b = scalar.per_vm[name], batch.per_vm[name]
        v_s = np.array(list(o_s.counters.as_dict().values()))
        v_b = np.array(list(o_b.counters.as_dict().values()))
        np.testing.assert_allclose(
            v_b,
            v_s,
            rtol=RTOL,
            atol=ATOL,
            err_msg=f"{context} VM {name!r} counters diverge",
        )
        for field in (
            "instructions_retired",
            "instructions_demanded",
            "instructions_attainable",
            "progress",
            "disk_mbps",
            "network_mbps",
            "cpi",
        ):
            a, b = getattr(o_s, field), getattr(o_b, field)
            if a == b:  # covers inf == inf and exact matches
                continue
            np.testing.assert_allclose(
                b,
                a,
                rtol=RTOL,
                atol=ATOL,
                err_msg=f"{context} VM {name!r} field {field} diverges",
            )


class TestMachineSubstrateEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        demands=st.lists(demand_strategy, min_size=1, max_size=6),
        spec_i7=st.booleans(),
        noise=st.sampled_from([0.0, 0.01, 0.05]),
        epoch_seconds=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_run_epoch_batch_matches_scalar(
        self, demands, spec_i7, noise, epoch_seconds
    ):
        """For any demand mix, both substrates produce equivalent epochs.

        The machines share a seed, so the noise generators must consume
        draws identically for the counter streams to line up — which is
        part of the equivalence contract.
        """
        spec = CORE_I7_E5640 if spec_i7 else XEON_X5472
        named = {f"vm{i}": d for i, d in enumerate(demands)}
        caps = {f"vm{i}": 0.5 + 0.5 * (i % 2) for i in range(len(demands))}
        m_scalar = PhysicalMachine(spec=spec, noise=noise, seed=123)
        m_batch = PhysicalMachine(spec=spec, noise=noise, seed=123)
        scalar = m_scalar.run_epoch(
            named, epoch_seconds=epoch_seconds, cpu_caps=caps
        )
        batch = run_epoch_batch(
            m_batch, named, epoch_seconds=epoch_seconds, cpu_caps=caps
        )
        assert_outcomes_equivalent(scalar, batch)
        assert scalar.bus_utilization == pytest.approx(
            batch.bus_utilization, rel=RTOL, abs=ATOL
        )

    def test_noise_streams_stay_aligned_over_many_epochs(self):
        """Repeated epochs keep the substrates' RNG consumption in lock step."""
        m_scalar = PhysicalMachine(noise=0.02, seed=9)
        m_batch = PhysicalMachine(noise=0.02, seed=9)
        demands = {
            "busy": ResourceDemand(instructions=2e9, vcpus=2, working_set_mb=32.0),
            "idle": ResourceDemand.idle(),
            "io": ResourceDemand(
                instructions=5e8, vcpus=2, disk_mb=50.0, network_mbit=300.0
            ),
        }
        for epoch in range(10):
            scalar = m_scalar.run_epoch(demands)
            batch = run_epoch_batch(m_batch, demands)
            assert_outcomes_equivalent(scalar, batch, context=f"epoch {epoch}")

    def test_multi_domain_vm_equivalence(self):
        """A VM spanning several cache domains resolves identically."""
        m_scalar = PhysicalMachine(noise=0.0, seed=1)
        m_batch = PhysicalMachine(noise=0.0, seed=1)
        demands = {
            "wide": ResourceDemand(
                instructions=6e9, vcpus=6, working_set_mb=96.0, locality=0.2
            ),
            "narrow": ResourceDemand(instructions=1e9, vcpus=1, working_set_mb=4.0),
        }
        assert_outcomes_equivalent(
            m_scalar.run_epoch(demands), run_epoch_batch(m_batch, demands)
        )

    def test_explicit_pinning_equivalence(self):
        """Explicit core assignments flow through the batch plan."""
        m_scalar = PhysicalMachine(noise=0.0, seed=1)
        m_batch = PhysicalMachine(noise=0.0, seed=1)
        demands = {
            "a": ResourceDemand(instructions=2e9, vcpus=2, working_set_mb=48.0),
            "b": ResourceDemand(instructions=3e9, vcpus=2, working_set_mb=16.0),
        }
        pinning = {"a": [0, 1], "b": [1, 2]}  # shared core, cross-domain
        assert_outcomes_equivalent(
            m_scalar.run_epoch(demands, core_assignment=pinning),
            run_epoch_batch(m_batch, demands, core_assignment=pinning),
        )

    def test_empty_and_error_paths_match(self):
        machine = PhysicalMachine(noise=0.0, seed=1)
        assert run_epoch_batch(machine, {}).per_vm == {}
        with pytest.raises(ValueError):
            run_epoch_batch(
                machine, {"x": ResourceDemand(instructions=1e9)}, epoch_seconds=0.0
            )
        with pytest.raises(ValueError):
            run_epoch_batch(machine, {"x": ResourceDemand(instructions=-1.0)})


def _fleet_config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )


class TestFleetSubstrateEquivalence:
    def test_fleet_counters_and_decisions_match_across_substrates(self):
        """Two identically seeded fleets — one per substrate — evolve
        equivalently through bootstrap, steady state, an interference
        episode and mitigation migrations."""
        episodes = [
            InterferenceEpisode(
                shard=0, host_index=0, start_epoch=3, end_epoch=7, kind="memory"
            ),
            InterferenceEpisode(
                shard=1, host_index=1, start_epoch=4, end_epoch=8, kind="network"
            ),
        ]
        fleets = {}
        for substrate in ("scalar", "batch"):
            scenario = synthesize_datacenter(
                48, num_shards=2, seed=21, episodes=episodes
            )
            fleet = build_fleet(scenario, config=_fleet_config(), mitigate=True)
            if substrate == "scalar":
                use_scalar_substrate(fleet)
            fleet.bootstrap()
            fleets[substrate] = fleet

        for epoch in range(9):
            r_scalar = fleets["scalar"].run_epoch()
            r_batch = fleets["batch"].run_epoch()
            scalar_key = without_distances(decision_key(r_scalar))
            batch_key = without_distances(decision_key(r_batch))
            assert scalar_key == batch_key, f"decisions diverge at epoch {epoch}"

        # Same detections and migrations, in the same order.
        det_scalar = [
            (sid, e.vm_name, e.epoch) for sid, e in fleets["scalar"].detections()
        ]
        det_batch = [
            (sid, e.vm_name, e.epoch) for sid, e in fleets["batch"].detections()
        ]
        assert det_scalar == det_batch
        assert det_batch, "the injected episodes must be detected"
        mig_scalar = [
            (sid, e.vm_name, e.source, e.destination)
            for sid, e in fleets["scalar"].migrations()
        ]
        mig_batch = [
            (sid, e.vm_name, e.source, e.destination)
            for sid, e in fleets["batch"].migrations()
        ]
        assert mig_scalar == mig_batch

        # Full counter histories agree within the documented tolerance.
        for (sid, shard_s) in fleets["scalar"].shards.items():
            shard_b = fleets["batch"].shards[sid]
            for host_name, host_s in shard_s.cluster.hosts.items():
                host_b = shard_b.cluster.hosts[host_name]
                assert set(host_s.counter_history) == set(host_b.counter_history)
                for vm_name, history_s in host_s.counter_history.items():
                    history_b = host_b.counter_history[vm_name]
                    assert len(history_s) == len(history_b)
                    for t, (s, b) in enumerate(zip(history_s, history_b)):
                        np.testing.assert_allclose(
                            np.array(list(b.as_dict().values())),
                            np.array(list(s.as_dict().values())),
                            rtol=RTOL,
                            atol=ATOL,
                            err_msg=(
                                f"shard {sid} host {host_name} VM {vm_name} "
                                f"epoch {t} counters diverge"
                            ),
                        )

    def test_columnar_window_view_matches_sample_assembly(self):
        """The columnar monitoring view equals the per-sample window path."""
        scenario = synthesize_datacenter(24, num_shards=1, seed=5)
        fleet = build_fleet(scenario, config=_fleet_config())
        fleet.bootstrap()
        for _ in range(5):
            fleet.run_epoch(RunOptions(analyze=False))
        cluster = next(iter(fleet.shards.values())).cluster
        for window in (1, 2, 3, 5, 8):
            view = cluster.counter_window_view(window)
            windows = reference_windows(cluster, window)
            assert set(view.vm_names) == set(windows)
            for vm_name, samples in windows.items():
                i = view.index[vm_name]
                latest = np.array(list(samples[-1].as_dict().values()))
                acc = np.array(list(samples[0].as_dict().values()))
                for s in samples[1:]:
                    acc = acc + np.array(list(s.as_dict().values()))
                assert np.array_equal(view.latest[i], latest)
                np.testing.assert_allclose(
                    view.window_sum[i], acc, rtol=1e-12, atol=0.0
                )

    def test_migration_falls_back_and_stays_equivalent(self):
        """A mid-run migration breaks the columnar fast path for the
        affected hosts; the view must still match the scalar assembly."""
        scenario = synthesize_datacenter(16, num_shards=1, seed=11)
        fleet = build_fleet(scenario, config=_fleet_config())
        fleet.bootstrap()
        for _ in range(3):
            fleet.run_epoch(RunOptions(analyze=False))
        cluster = next(iter(fleet.shards.values())).cluster
        vm_name = sorted(cluster.all_vms())[0]
        source = cluster.host_of(vm_name)
        destination = next(
            h for h in cluster.hosts
            if h != source and cluster.hosts[h].can_fit(
                cluster.hosts[source].get_vm(vm_name)
            )
        )
        cluster.migrate_vm(vm_name, destination)
        for _ in range(2):
            fleet.run_epoch(RunOptions(analyze=False))
        view = cluster.counter_window_view(3)
        windows = reference_windows(cluster, 3)
        assert set(view.vm_names) == set(windows)
        for name, samples in windows.items():
            acc = np.array(list(samples[0].as_dict().values()))
            for s in samples[1:]:
                acc = acc + np.array(list(s.as_dict().values()))
            np.testing.assert_allclose(
                view.window_sum[view.index[name]], acc, rtol=1e-12, atol=0.0
            )
