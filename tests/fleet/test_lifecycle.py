"""Unit coverage for the fleet lifecycle engine and timelines.

The property suite pins churn equivalence fleet-wide; this file covers
the pieces in isolation: timeline compilation and generators, the
interference-aware admission policy's rules (headroom, anti-affinity,
drain exclusion, the degradation bound, deterministic tie-breaks), the
documented in-epoch apply order, and the explicit :class:`ValueError`
contract for events referencing unknown shards/hosts/VMs.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    AdmissionPolicy,
    DatacenterScenario,
    FleetTimeline,
    FlashCrowd,
    HostDrain,
    HostReturn,
    LoadPhase,
    RunOptions,
    VMArrival,
    VMDeparture,
    build_fleet,
    churn_timeline,
)
from repro.fleet.lifecycle import ADMISSION_RESOURCES, _pressure_row_for
from repro.fleet.timeline import ARRIVAL_WORKLOADS
from repro.virt.vm import VirtualMachine
from repro.workloads.traces import LoadTrace


def _fast_config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=2,
        bootstrap_load_levels=2,
        bootstrap_epochs_per_level=2,
        min_normal_behaviors=8,
        placement_eval_epochs=2,
        smoothing_epochs=2,
    )


def _arrival(epoch, shard="shard0", name="newvm", kind="data_serving", **kw):
    return VMArrival(
        epoch=epoch,
        shard=shard,
        vm_name=name,
        workload=ARRIVAL_WORKLOADS[kind](seed=7),
        load=kw.pop("load", 0.5),
        **kw,
    )


def _fleet(timeline, admission=None, **kw):
    scenario = DatacenterScenario(
        num_shards=2,
        hosts_per_shard=3,
        spare_hosts_per_shard=1,
        vms_per_host=2,
        seed=11,
        timeline=timeline,
        admission=admission,
    )
    return build_fleet(scenario, config=_fast_config(), **kw)


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
class TestTimeline:
    def test_compile_groups_and_flash_edges(self):
        timeline = FleetTimeline()
        flash = FlashCrowd(epoch=2, shard="shard0", end_epoch=5, scale=1.5)
        timeline.extend(
            [
                _arrival(2, name="a"),
                VMDeparture(epoch=2, shard="shard0", vm_name="b"),
                flash,
                LoadPhase(epoch=2, shard="shard1", scale=0.8),
                HostDrain(epoch=2, shard="shard0", host="s0pm0"),
                HostReturn(epoch=5, shard="shard0", host="s0pm0"),
            ]
        )
        batches = timeline.compile()
        assert set(batches) == {2, 5}
        batch = batches[2]
        assert len(batch.arrivals) == len(batch.departures) == 1
        assert batch.flash_starts == (flash,)
        assert batches[5].flash_ends == (flash,)
        assert batches[5].returns[0].host == "s0pm0"
        assert timeline.horizon() == 6
        assert timeline.shard_ids() == ("shard0", "shard1")

    def test_subset_filters_by_shard(self):
        timeline = FleetTimeline(
            events=[
                _arrival(1, shard="shard0", name="a"),
                _arrival(1, shard="shard1", name="b"),
            ]
        )
        sub = timeline.subset(["shard1"])
        assert [event.vm_name for event in sub.events] == ["b"]

    def test_event_validation(self):
        with pytest.raises(ValueError):
            VMArrival(
                epoch=-1,
                shard="s",
                vm_name="x",
                workload=ARRIVAL_WORKLOADS["web_search"](seed=0),
                load=0.5,
            )
        with pytest.raises(ValueError):
            _arrival(0, load=1.5)
        with pytest.raises(ValueError):
            FlashCrowd(epoch=3, shard="s", end_epoch=3, scale=1.2)
        with pytest.raises(ValueError):
            LoadPhase(epoch=0, shard="s", scale=0.0)

    def test_churn_timeline_deterministic_and_picklable(self):
        a = churn_timeline(["shard0"], epochs=30, seed=9)
        b = churn_timeline(["shard0"], epochs=30, seed=9)
        assert len(a) == len(b) > 0
        assert [repr(event) for event in a.events] == [
            repr(event) for event in b.events
        ]
        restored = pickle.loads(pickle.dumps(a))
        assert len(restored) == len(a)
        # Departures only ever reference VMs the timeline itself created.
        names = {e.vm_name for e in a.events if isinstance(e, VMArrival)}
        for event in a.events:
            if isinstance(event, VMDeparture):
                assert event.vm_name in names
                assert event.epoch < 30

    def test_from_trace_quantises_phases(self):
        trace = LoadTrace([0.4, 0.41, 0.42, 0.8, 0.8, 0.4])
        timeline = FleetTimeline.from_trace(
            trace, ["shard0"], reference=0.4, quantum=0.25
        )
        phases = [e for e in timeline.events if isinstance(e, LoadPhase)]
        # 1.0, 1.0, 1.0, 2.0, 2.0, 1.0 -> changes at epochs 0, 3, 5.
        assert [(p.epoch, p.scale) for p in phases] == [
            (0, 1.0),
            (3, 2.0),
            (5, 1.0),
        ]


# ----------------------------------------------------------------------
# Admission policy
# ----------------------------------------------------------------------
class TestAdmission:
    def test_arrival_lands_on_least_loaded_host(self):
        """With equal contention scores the tie breaks toward free
        vCPUs: the spare (empty) host wins."""
        timeline = FleetTimeline(events=[_arrival(0, name="tenant-a")])
        fleet = _fleet(timeline)
        fleet.run_epoch(RunOptions(analyze=False))
        cluster = fleet.shards["shard0"].cluster
        host = cluster.host_of("tenant-a")
        assert host == "s0pm3"  # the spare headroom host is empty
        assert fleet.shards["shard0"].baseline_loads["tenant-a"] == 0.5

    def test_admission_respects_drained_hosts(self):
        timeline = FleetTimeline(
            events=[
                HostDrain(epoch=0, shard="shard0", host="s0pm3"),
                _arrival(1, name="tenant-a"),
            ]
        )
        fleet = _fleet(timeline)
        fleet.run_epoch(RunOptions(analyze=False))
        fleet.run_epoch(RunOptions(analyze=False))
        cluster = fleet.shards["shard0"].cluster
        assert cluster.host_of("tenant-a") is not None
        assert cluster.host_of("tenant-a") != "s0pm3"

    def test_admission_respects_anti_affinity(self):
        """An analytics arrival never joins a host already running
        analytics, even when that host is otherwise the best ranked."""
        timeline = FleetTimeline(
            events=[_arrival(0, name="tenant-a", kind="data_analytics")]
        )
        fleet = _fleet(
            timeline,
            admission=AdmissionPolicy(anti_affinity=("data_analytics",)),
        )
        fleet.run_epoch(RunOptions(analyze=False))
        cluster = fleet.shards["shard0"].cluster
        host_name = cluster.host_of("tenant-a")
        assert host_name is not None
        host = cluster.hosts[host_name]
        kinds = [
            vm.app_id for vm in host.vms.values() if vm.name != "tenant-a"
        ]
        assert "data_analytics" not in kinds

    def test_admission_headroom_reserves_capacity(self):
        """headroom_vcpus shrinks every host's admissible capacity; an
        impossible reserve rejects the arrival instead of crashing."""
        timeline = FleetTimeline(events=[_arrival(0, name="tenant-a")])
        fleet = _fleet(
            timeline, admission=AdmissionPolicy(headroom_vcpus=64)
        )
        fleet.run_epoch(RunOptions(analyze=False))
        assert fleet.shards["shard0"].cluster.host_of("tenant-a") is None
        stats = fleet.lifecycle_stats()["shard0"]
        assert stats["arrivals_rejected"] == 1
        assert stats["arrivals_admitted"] == 0

    def test_rejected_arrival_departure_is_ignored(self):
        """churn_timeline schedules a departure for every arrival; when
        the arrival was rejected, that departure must be dropped (and
        counted), not crash as an unknown-VM error."""
        timeline = FleetTimeline(
            events=[
                _arrival(0, name="tenant-a"),
                VMDeparture(epoch=2, shard="shard0", vm_name="tenant-a"),
            ]
        )
        fleet = _fleet(
            timeline, admission=AdmissionPolicy(headroom_vcpus=64)
        )
        for _ in range(3):
            fleet.run_epoch(RunOptions(analyze=False))
        all_stats = fleet.lifecycle_stats()
        # One entry per shard, untouched shards all-zero (same shape as
        # the process executor's worker-collected stats).
        assert set(all_stats) == {"shard0", "shard1"}
        assert not any(all_stats["shard1"].values())
        stats = all_stats["shard0"]
        assert stats["arrivals_rejected"] == 1
        assert stats["departures_ignored"] == 1
        assert stats["departures"] == 0

    def test_pinned_arrival_bypasses_scoring(self):
        timeline = FleetTimeline(
            events=[_arrival(0, name="tenant-a", host="s0pm1")]
        )
        fleet = _fleet(timeline)
        fleet.run_epoch(RunOptions(analyze=False))
        assert fleet.shards["shard0"].cluster.host_of("tenant-a") == "s0pm1"

    def test_decision_log_built_on_placement_dataclasses(self):
        """record_decisions exposes the ranked candidate evaluations as
        core.placement PlacementDecision/CandidateEvaluation objects."""
        timeline = FleetTimeline(events=[_arrival(0, name="tenant-a")])
        fleet = _fleet(timeline)
        fleet.lifecycle.record_decisions = True
        fleet.run_epoch(RunOptions(analyze=False))
        assert len(fleet.lifecycle.decisions) == 1
        decision = fleet.lifecycle.decisions[0]
        assert decision.vm_name == "tenant-a"
        assert decision.destination is not None
        assert decision.evaluations, "candidates must be recorded"
        best = decision.best()
        assert best.score <= decision.evaluations[-1].score


# ----------------------------------------------------------------------
# Engine semantics
# ----------------------------------------------------------------------
class TestEngineSemantics:
    def test_record_decisions_warns_under_process_executor(self):
        """The decision log lives with the engine that ran — in the
        workers under the process strategy — so enabling it there must
        warn instead of silently yielding an empty log."""
        timeline = FleetTimeline(events=[_arrival(0, name="tenant-a")])
        fleet = _fleet(timeline, executor="process", max_workers=1)
        fleet.lifecycle.record_decisions = True
        try:
            with pytest.warns(RuntimeWarning, match="record_decisions"):
                fleet.run_epoch(RunOptions(analyze=False))
        finally:
            fleet.shutdown()

    def test_departure_removes_vm_and_load(self):
        fleet = _fleet(FleetTimeline())
        shard = fleet.shards["shard0"]
        victim = sorted(shard.baseline_loads)[0]
        timeline = FleetTimeline(
            events=[VMDeparture(epoch=1, shard="shard0", vm_name=victim)]
        )
        fleet = _fleet(timeline)
        shard = fleet.shards["shard0"]
        assert victim in shard.baseline_loads
        fleet.run_epoch(RunOptions(analyze=False))
        fleet.run_epoch(RunOptions(analyze=False))
        assert shard.cluster.host_of(victim) is None
        assert victim not in shard.baseline_loads
        # History survives departure on the last host.
        assert any(
            victim in host.counter_history and len(host.counter_history[victim])
            for host in shard.cluster.hosts.values()
        )

    def test_drain_waives_anti_affinity(self):
        """A maintenance evacuation is a forced move: when every
        candidate host already runs the VM's anti-affine kind, the VM
        still leaves the drained host (soft constraints are waived;
        only physical capacity strands)."""
        scenario = DatacenterScenario(
            num_shards=1,
            hosts_per_shard=2,
            spare_hosts_per_shard=0,
            vms_per_host=1,
            max_vms=0,  # topology only; tenants arrive via the timeline
            seed=3,
            timeline=FleetTimeline(
                events=[
                    _arrival(0, name="an-a", kind="data_analytics", host="s0pm0"),
                    _arrival(0, name="an-b", kind="data_analytics", host="s0pm1"),
                    HostDrain(epoch=1, shard="shard0", host="s0pm0"),
                ]
            ),
            admission=AdmissionPolicy(anti_affinity=("data_analytics",)),
        )
        fleet = build_fleet(scenario, config=_fast_config())
        fleet.run_epoch(RunOptions(analyze=False))
        fleet.run_epoch(RunOptions(analyze=False))
        cluster = fleet.shards["shard0"].cluster
        assert cluster.host_of("an-a") == "s0pm1", (
            "the drained host's analytics VM must co-locate rather than strand"
        )
        stats = fleet.lifecycle_stats()["shard0"]
        assert stats["drain_migrations"] == 1
        assert stats["drain_stranded"] == 0

    def test_drained_hosts_excluded_from_mitigation_migrations(self):
        """Drain state is cluster-level: DeepDive's own placement
        manager must not pick a drained host as a mitigation
        destination either."""
        from repro.core.analyzer import AnalysisResult, AnalysisVerdict
        from repro.core.placement import PlacementManager
        from repro.metrics.counters import CounterSample
        from repro.metrics.cpi import Resource
        from repro.virt.sandbox import SandboxEnvironment

        timeline = FleetTimeline(
            events=[HostDrain(epoch=0, shard="shard0", host="s0pm3")]
        )
        fleet = _fleet(timeline)
        fleet.run_epoch(RunOptions(analyze=False))
        shard = fleet.shards["shard0"]
        cluster = shard.cluster
        assert cluster.drained_hosts == {"s0pm3"}
        victim_host = "s0pm0"
        victim = sorted(cluster.hosts[victim_host].vms)[0]
        analysis = AnalysisResult(
            vm_name=victim,
            app_id=cluster.hosts[victim_host].get_vm(victim).app_id,
            verdict=AnalysisVerdict.INTERFERENCE,
            degradation=0.5,
            culprit=Resource.MEMORY_BUS,
            factors={},
            cpi_stack=None,
            production_counters=CounterSample.zeros(),
            isolation_counters=CounterSample.zeros(),
            sandbox_run=None,
            profiling_seconds=0.0,
        )
        manager = PlacementManager(
            sandbox=SandboxEnvironment(
                num_hosts=1, profile_epochs=2, noise=0.0, seed=8
            ),
            config=_fast_config(),
        )
        decision = manager.resolve_interference(
            cluster, analysis, victim_host, eval_epochs=1
        )
        assert decision is not None
        assert decision.destination != "s0pm3"
        assert all(
            e.host_name != "s0pm3" for e in decision.evaluations
        ), "the drained spare must not even be evaluated"

    def test_drain_evacuates_and_return_reopens(self):
        timeline = FleetTimeline(
            events=[
                HostDrain(epoch=1, shard="shard0", host="s0pm0"),
                HostReturn(epoch=3, shard="shard0", host="s0pm0"),
                _arrival(4, name="tenant-a", load=0.5),
            ]
        )
        fleet = _fleet(timeline)
        shard = fleet.shards["shard0"]
        resident_before = set(shard.cluster.hosts["s0pm0"].vms)
        assert resident_before
        for _ in range(5):
            fleet.run_epoch(RunOptions(analyze=False))
        # Evacuated through the existing migration path...
        assert not (
            resident_before & set(shard.cluster.hosts["s0pm0"].vms)
            - {"tenant-a"}
        )
        records = shard.cluster.migration_engine.history
        assert {r.vm_name for r in records} >= resident_before
        assert all(r.source == "s0pm0" for r in records)
        stats = fleet.lifecycle_stats()["shard0"]
        assert stats["drain_migrations"] == len(resident_before)
        assert stats["drains"] == stats["returns"] == 1

    def test_flash_crowd_scales_and_unwinds(self):
        timeline = FleetTimeline(
            events=[
                FlashCrowd(epoch=1, shard="shard0", end_epoch=3, scale=1.5)
            ]
        )
        fleet = _fleet(timeline)
        shard = fleet.shards["shard0"]
        before = dict(shard.baseline_loads)
        fleet.run_epoch(RunOptions(analyze=False))  # epoch 0: surge not started
        assert dict(shard.baseline_loads) == before
        fleet.run_epoch(RunOptions(analyze=False))  # epoch 1: surge on
        during = dict(shard.baseline_loads)
        for name, load in before.items():
            assert during[name] == pytest.approx(min(1.0, load * 1.5))
        fleet.run_epoch(RunOptions(analyze=False))  # epoch 2: still on
        fleet.run_epoch(RunOptions(analyze=False))  # epoch 3: surge unwound
        assert dict(shard.baseline_loads) == before

    def test_phase_applies_to_arrivals_too(self):
        timeline = FleetTimeline(
            events=[
                LoadPhase(epoch=0, shard="shard0", scale=0.5),
                _arrival(1, name="tenant-a", load=0.8),
            ]
        )
        fleet = _fleet(timeline)
        fleet.run_epoch(RunOptions(analyze=False))
        fleet.run_epoch(RunOptions(analyze=False))
        assert fleet.shards["shard0"].baseline_loads["tenant-a"] == 0.4


class TestAdmissionInputs:
    def test_cached_view_matches_a_walk_over_every_vm(self):
        """The admission view is patched host by host between epochs;
        it must equal a from-scratch walk over every VM (pressure as a
        left fold of load-scaled rows, free capacity, applications,
        drain state) through arrivals, departures, a drain and load
        phases."""
        timeline = churn_timeline(
            ["shard0", "shard1"],
            epochs=10,
            seed=3,
            arrivals_per_epoch=2.0,
            mean_lifetime_epochs=3.0,
        )
        timeline.extend(
            [
                HostDrain(epoch=3, shard="shard0", host="s0pm1"),
                LoadPhase(epoch=4, shard="shard1", scale=1.4),
                HostReturn(epoch=6, shard="shard0", host="s0pm1"),
                FlashCrowd(epoch=7, shard="shard0", end_epoch=9, scale=1.2),
            ]
        )
        fleet = _fleet(timeline)
        engine = fleet.lifecycle
        for _ in range(10):
            fleet.run_epoch(RunOptions(analyze=False))
            for shard in fleet.shards.values():
                state = engine._state_for(shard, {})
                cluster = shard.cluster
                hosts = list(cluster.hosts.values())
                pressure = np.zeros((len(hosts), len(ADMISSION_RESOURCES)))
                for i, host in enumerate(hosts):
                    for name, vm in host._vms.items():
                        row = _pressure_row_for(vm, host.epoch_seconds)
                        np.add.at(pressure, [i], row * host.get_load(name))
                    spec = host.machine.spec
                    assert state.free_vcpus[i] == spec.architecture.cores - sum(
                        vm.vcpus for vm in host._vms.values()
                    )
                    used_mem = 0.0
                    for vm in host._vms.values():
                        used_mem += vm.memory_gb
                    assert state.free_mem[i] == spec.dram_gb - used_mem
                    assert state.apps[i] == {vm.app_id for vm in host._vms.values()}
                    assert state.drained_mask[i] == (
                        host.name in cluster.drained_hosts
                    )
                assert np.array_equal(state.pressure, pressure)
        assert sum(s["arrivals_admitted"] for s in fleet.lifecycle_stats().values())

    def test_commit_does_not_leak_into_the_next_view(self):
        """Admissions update their own view only; the per-host inputs
        the next view starts from stay untouched."""
        fleet = _fleet(FleetTimeline(events=[_arrival(0, name="tenant-a")]))
        fleet.run_epoch(RunOptions(analyze=False))
        shard = fleet.shards["shard0"]
        engine = fleet.lifecycle
        first = engine._state_for(shard, {})
        apps, pressure = list(first.apps), first.pressure.copy()
        probe = VirtualMachine(
            "probe", ARRIVAL_WORKLOADS["data_serving"](seed=1), app_id="probe-app"
        )
        first.commit(first.host_names[0], np.ones(len(ADMISSION_RESOURCES)), probe)
        assert "probe-app" in first.apps[0]
        second = engine._state_for(shard, {})
        assert second.apps == apps
        assert np.array_equal(second.pressure, pressure)


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------
class TestErrorContract:
    def test_unknown_shard_rejected_at_build(self):
        timeline = FleetTimeline(events=[_arrival(1, shard="shard9")])
        with pytest.raises(ValueError, match=r"epoch 1.*unknown shard 'shard9'"):
            _fleet(timeline)

    def test_unknown_host_rejected_at_build(self):
        timeline = FleetTimeline(
            events=[HostDrain(epoch=2, shard="shard0", host="nosuchpm")]
        )
        with pytest.raises(
            ValueError, match=r"epoch 2.*unknown host 'nosuchpm'"
        ):
            _fleet(timeline)

    def test_unknown_vm_departure_raises_with_epoch_and_event(self):
        timeline = FleetTimeline(
            events=[VMDeparture(epoch=1, shard="shard0", vm_name="ghost")]
        )
        fleet = _fleet(timeline)
        fleet.run_epoch(RunOptions(analyze=False))
        with pytest.raises(
            ValueError, match=r"epoch 1.*unknown VM 'ghost'.*VMDeparture"
        ):
            fleet.run_epoch(RunOptions(analyze=False))

    def test_duplicate_arrival_name_raises(self):
        fleet = _fleet(FleetTimeline())
        existing = sorted(fleet.shards["shard0"].baseline_loads)[0]
        timeline = FleetTimeline(events=[_arrival(1, name=existing)])
        fleet = _fleet(timeline)
        fleet.run_epoch(RunOptions(analyze=False))
        with pytest.raises(ValueError, match="duplicates an existing"):
            fleet.run_epoch(RunOptions(analyze=False))

    def test_arrival_pinned_to_full_host_raises(self):
        timeline = FleetTimeline(
            events=[_arrival(1, name="bigvm", host="s0pm0", vcpus=32)]
        )
        fleet = _fleet(timeline)
        fleet.run_epoch(RunOptions(analyze=False))
        with pytest.raises(ValueError, match="cannot fit"):
            fleet.run_epoch(RunOptions(analyze=False))

    def test_arrival_pinned_to_drained_host_raises(self):
        timeline = FleetTimeline(
            events=[
                HostDrain(epoch=0, shard="shard0", host="s0pm1"),
                _arrival(1, name="tenant-a", host="s0pm1"),
            ]
        )
        fleet = _fleet(timeline)
        fleet.run_epoch(RunOptions(analyze=False))
        with pytest.raises(ValueError, match="drained"):
            fleet.run_epoch(RunOptions(analyze=False))
