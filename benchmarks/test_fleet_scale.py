"""Fleet-scale benchmarks: epoch engine, hardware substrate, executors.

Three axes of the fleet hot loop are measured and recorded in
``.benchmarks/BENCH_fleet.json`` (gitignored, so a test run never
rewrites a tracked file; the tracked root ``BENCH_fleet.json`` is
frozen history):

* **engine** — the vectorized monitoring pass (:class:`MetricMatrix`)
  against the scalar per-VM reference loop
  (``scalar_reference.reference_decisions``);
* **substrate** — the vectorized hardware-contention substrate
  (:mod:`repro.hardware.batch`) against the scalar per-VM contention
  model, end-to-end through ``Fleet.run_epoch`` at 2k and 10k VMs.  The
  fleet stepped host by host through the per-VM model
  (``scalar_reference.use_scalar_substrate``, with ground-truth
  tracking on) is the baseline the acceptance floor is measured
  against (``pr1_baseline_epoch_seconds``), and both fleets run the
  serial loop;
* **process** — the state-owning process-pool executor
  (:mod:`repro.fleet.executor`): single-worker versus multi-worker
  process execution, columnar epochs published through double-buffered
  shared-memory segments (:mod:`repro.fleet.shm`) with only a tiny
  descriptor on the pool pipe.  The recorded
  ``process_1w_overhead_pct`` is the single-worker tax over the serial
  loop and ``dispatch_roundtrip_seconds`` a real no-payload round trip
  through the worker pool's pipe (a ready-probe submitted to each pool
  and awaited, min over 10) — the transport's share of that tax per
  epoch, since the decision arrays never touch the pipe.  On a 1-core runner the
  parent and worker share the core, so every per-epoch dispatch also
  pays a cache-eviction penalty that has nothing to do with the
  transport (worker epochs timed back to back match the serial loop);
  both the <=5% single-worker-overhead floor and the multi-worker
  scaling floor are therefore asserted only on >=4-core hosts, with
  ``cpu_count`` recorded alongside.  Timing samples are interleaved
  across the compared fleets so machine drift hits all of them
  equally.  Every process benchmark also asserts that shutdown left no
  transport segment behind in ``/dev/shm``;
* **epoch edge** — the cost of recording one epoch's counters into the
  fleet's telemetry: an eager recorder kept in this file (per-VM
  ``CounterSample`` materialisation + history appends, the form the
  ring replaced) versus the cluster's one counter-ring write
  (:class:`repro.metrics.store.CounterRing`).

All compared configurations produce equivalent decisions (pinned by the
property suites); the benchmarks only measure cost.  Run the tiny-scale
smoke variants with ``pytest -m bench_smoke``; ``FLEET_SMOKE_EXECUTOR``
selects the executor the smoke fleet runs under (the CI matrix covers
the ``process`` executor).
``FLEET_SMOKE_SNAPSHOT=1`` turns the snapshot smoke into a
process-executor kill/resume roundtrip whose checkpoint file (written
to ``FLEET_SMOKE_CKPT`` when set) the CI workflow schema-validates
afterwards.  ``FLEET_SMOKE_CHAOS=1`` escalates the chaos smoke to the
full fault menu (kill + hang + corrupted descriptor) injected from a
deterministic :class:`repro.fleet.FaultPlan` under worker supervision.
``FLEET_SMOKE_TELEMETRY=1`` escalates the telemetry smoke to a
fully-profiled process run whose Chrome trace (written to
``FLEET_SMOKE_TRACE`` when set) and Prometheus exposition the CI
workflow schema-validates; the **telemetry** benchmark compares the
telemetry-off columnar hot loop against coarse-span and fully-profiled
instrumentation and asserts the observability tax stays within the
acceptance ceiling.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np
import pytest
from fleet_reference import WorkerPids, decision_key, without_distances
from scalar_reference import reference_decisions, use_scalar_substrate

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    InterferenceEpisode,
    RunOptions,
    TelemetryConfig,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)
from repro.fleet.benchutil import run_metadata
from repro.fleet.executor import _worker_ready
from repro.fleet.shm import leaked_segments
from repro.metrics.counters import N_COUNTERS, CounterSample
from repro.metrics.store import CounterRing, HostCounterStore

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / ".benchmarks" / "BENCH_fleet.json"

#: The columnar hot-loop options every executor comparison times.
_COLUMNAR = RunOptions(analyze=False)

#: Two shards of ~500 VMs keep per-application sibling pools large — the
#: regime where the scalar loop's per-VM sibling handling dominates.
FULL_SCALE_VMS = 1000
FULL_SCALE_SHARDS = 2
#: Acceptance floor for the batched epoch engine at full scale.
MIN_ENGINE_SPEEDUP = 5.0
#: Acceptance floor for the batch substrate over the PR 1 baseline,
#: end-to-end through serial ``Fleet.run_epoch`` at 2k VMs.
MIN_SUBSTRATE_SPEEDUP = 5.0


def _merge_bench_record(key: str, record: Dict) -> None:
    """Merge one benchmark section into ``.benchmarks/BENCH_fleet.json``.

    Every record is stamped with
    :func:`repro.fleet.benchutil.run_metadata` on the way in — the same
    provenance envelope the telemetry exporters use — so trajectories
    across commits/machines stay orderable.
    """
    data: Dict = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    if "benchmark" in data:  # legacy flat engine-only record
        data = {"fleet_epoch_engine": data}
    data[key] = {**record, "run_metadata": run_metadata(REPO_ROOT)}
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _fast_config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )


def _churn_timeline_for(
    num_vms: int, num_shards: int, epochs: int, seed: int
):
    """A ~1%-per-epoch churn timeline sized to the fleet.

    Half the churn budget goes to arrivals (``0.5% * num_vms`` per
    epoch); short exponential lifetimes make departures match that rate
    once the first tenants expire, so the steady event mix is roughly
    1% of the VM population per epoch.
    """
    return churn_timeline(
        [f"shard{s}" for s in range(num_shards)],
        epochs=epochs,
        seed=seed,
        arrivals_per_epoch=max(0.25, 0.005 * num_vms),
        mean_lifetime_epochs=max(4.0, epochs / 3.0),
    )


def _prepare_fleet(
    num_vms: int,
    num_shards: int,
    seed: int = 7,
    warmup_epochs: int = 3,
    scalar_substrate: bool = False,
    max_workers: Optional[int] = None,
    executor: Optional[str] = None,
    track_performance: bool = False,
    churn_epochs: Optional[int] = None,
    fault_policy=None,
    fault_plan=None,
    telemetry=None,
):
    """Build, bootstrap and warm a fleet into a quiet steady state.

    The warmup epochs run with the analyzer enabled so the repositories
    certify the production behaviours; afterwards the monitoring path is
    the steady-state hot loop the benchmarks time.  ``churn_epochs``
    attaches a ~1%-per-epoch churn timeline covering that many epochs
    (arrivals, departures and admission running alongside the hot loop).
    ``scalar_substrate`` steps the (serial) fleet through the per-VM
    reference substrate.
    """
    scenario = synthesize_datacenter(
        num_vms,
        num_shards=num_shards,
        seed=seed,
        timeline=(
            _churn_timeline_for(num_vms, num_shards, churn_epochs, seed)
            if churn_epochs is not None
            else None
        ),
    )
    fleet = build_fleet(
        scenario,
        config=_fast_config(),
        mitigate=False,
        max_workers=max_workers,
        executor=executor,
        track_performance=track_performance,
        fault_policy=fault_policy,
        fault_plan=fault_plan,
        telemetry=telemetry,
    )
    if scalar_substrate:
        use_scalar_substrate(fleet)
    fleet.bootstrap()
    for _ in range(warmup_epochs):
        fleet.run_epoch()
    return fleet


# ----------------------------------------------------------------------
# Epoch-engine comparison (monitoring pass only) — PR 1's benchmark.
# ----------------------------------------------------------------------
def _batch_decisions(deepdive):
    """The batch engine's decisions of one monitoring pass."""
    return deepdive.run_epoch(analyze=False, learn=False).decisions


def _time_engine(fleet, evaluate, reps: int) -> Tuple[float, Dict]:
    """Best-of-``reps`` wall time of one full monitoring pass (no analyzer).

    ``evaluate(deepdive)`` returns a shard's decisions:
    ``reference_decisions`` or :func:`_batch_decisions`.  With
    ``analyze=False, learn=False`` and unchanged counters both are free
    of side effects, so repetitions time the identical computation and
    the collected decisions compare exactly across engines.
    """
    best = float("inf")
    decisions: Dict = {}
    for _ in range(reps):
        start = time.perf_counter()
        for shard in fleet.shards.values():
            for vm_name, warning in evaluate(shard.deepdive).items():
                decisions[(shard.shard_id, vm_name)] = (
                    warning.action.value,
                    warning.distance,
                    warning.violated_dimensions,
                    warning.siblings_consulted,
                    warning.siblings_agreeing,
                )
        best = min(best, time.perf_counter() - start)
    return best, decisions


def _run_engine_comparison(num_vms: int, num_shards: int, reps: int) -> Dict:
    fleet = _prepare_fleet(num_vms, num_shards)
    scalar_s, scalar_decisions = _time_engine(fleet, reference_decisions, reps)
    batch_s, batch_decisions = _time_engine(fleet, _batch_decisions, reps)
    assert batch_decisions == scalar_decisions, (
        "batched and scalar engines must produce identical warning decisions"
    )
    vms = fleet.total_vms()
    return {
        "benchmark": "fleet_epoch_engine",
        "vms": vms,
        "hosts": fleet.total_hosts(),
        "shards": len(fleet.shards),
        "timing_reps": reps,
        "scalar_epoch_seconds": scalar_s,
        "batch_epoch_seconds": batch_s,
        "speedup": scalar_s / batch_s,
        "batch_vms_per_second": vms / batch_s,
        "unix_time": time.time(),
    }


# ----------------------------------------------------------------------
# Substrate comparison (end-to-end Fleet.run_epoch).
# ----------------------------------------------------------------------
def _time_fleet_epoch(fleet, reps: int) -> float:
    """Best-of-``reps`` wall time of one end-to-end fleet epoch
    (hardware simulation + monitoring, analyzer off)."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fleet.run_epoch(RunOptions(analyze=False))
        best = min(best, time.perf_counter() - start)
    return best


def _run_substrate_comparison(
    num_vms: int,
    num_shards: int,
    scalar_reps: int,
    batch_reps: int,
) -> Dict:
    """Time the PR 1 baseline (scalar substrate, serial, ground truth on)
    against the serial batch substrate."""
    baseline = _prepare_fleet(
        num_vms, num_shards, scalar_substrate=True, track_performance=True
    )
    batch = _prepare_fleet(num_vms, num_shards)
    # Same epoch count so far -> the substrates must agree on decisions.
    scalar_key = decision_key(baseline.run_epoch(RunOptions(analyze=False)))
    batch_key = decision_key(batch.run_epoch(RunOptions(analyze=False)))
    assert without_distances(scalar_key) == without_distances(batch_key), (
        "scalar and batch substrates must produce identical warning decisions"
    )
    scalar_s = _time_fleet_epoch(baseline, scalar_reps)
    batch_s = _time_fleet_epoch(batch, batch_reps)
    vms = batch.total_vms()
    return {
        "benchmark": "fleet_substrate",
        "vms": vms,
        "hosts": batch.total_hosts(),
        "shards": len(batch.shards),
        "scalar_reps": scalar_reps,
        "batch_reps": batch_reps,
        "pr1_baseline_epoch_seconds": scalar_s,
        "batch_epoch_seconds": batch_s,
        "substrate_speedup": scalar_s / batch_s,
        "end_to_end_speedup": scalar_s / batch_s,
        "batch_vm_epochs_per_second": vms / batch_s,
        "unix_time": time.time(),
    }


# ----------------------------------------------------------------------
# Process-executor comparison (end-to-end Fleet.run_epoch, columnar).
# ----------------------------------------------------------------------
def _time_fleet_epoch_columnar(fleet, reps: int) -> float:
    """Best-of-``reps`` wall time of one columnar fleet epoch — the
    process executor's native exchange format (a serial fleet derives
    the same arrays in-process, so the comparison is like for like)."""
    return _time_fleet_epochs_columnar([fleet], reps)[0]


def _time_fleet_epochs_columnar(fleets, reps: int) -> list:
    """Best-of-``reps`` columnar epoch time for each fleet, interleaved.

    One rep times one epoch of *every* fleet back to back before the
    next rep starts.  On throttled or shared runners the achievable
    epoch rate drifts over a benchmark's lifetime (CPU burst credits,
    noisy neighbours); timing the configurations in interleaved rounds
    exposes each to the same drift, where back-to-back best-of-N loops
    hand the first configuration the freshest machine and overstate the
    others' overhead."""
    best = [float("inf")] * len(fleets)
    for _ in range(reps):
        for j, fleet in enumerate(fleets):
            start = time.perf_counter()
            fleet.run_epoch(_COLUMNAR)
            best[j] = min(best[j], time.perf_counter() - start)
    return best


def _run_process_comparison(
    num_vms: int,
    num_shards: int,
    reps: int,
    multi_workers: int = 4,
) -> Dict:
    """Serial in-process execution versus single- and multi-worker
    process execution (state-owning workers, shared-memory columnar
    exchange)."""
    serial = _prepare_fleet(num_vms, num_shards, executor="serial")
    single = _prepare_fleet(
        num_vms, num_shards, executor="process", max_workers=1
    )
    multi = _prepare_fleet(
        num_vms, num_shards, executor="process", max_workers=multi_workers
    )
    try:
        # All fleets are at the same epoch; executors must agree exactly.
        reference = decision_key(
            serial.run_epoch(_COLUMNAR)
        )
        assert reference == decision_key(
            single.run_epoch(_COLUMNAR)
        ), "single-worker process execution diverges from serial"
        assert reference == decision_key(
            multi.run_epoch(_COLUMNAR)
        ), f"{multi_workers}-worker process execution diverges from serial"
        serial_s, single_s, multi_s = _time_fleet_epochs_columnar(
            [serial, single, multi], reps
        )
        # The pure dispatch latency (submit -> worker wake -> tiny
        # result through the pool pipe): the transport's share of the
        # single-worker overhead.  The remainder of ``single_s -
        # serial_s`` on a 1-core runner is the two processes evicting
        # each other's caches on the shared core every epoch — see the
        # module docstring.
        dispatch_s = float("inf")
        pools = single._shard_strategy()._pools
        for _ in range(10):
            start = time.perf_counter()
            for future in [pool.submit(_worker_ready) for pool in pools]:
                future.result()
            dispatch_s = min(dispatch_s, time.perf_counter() - start)
    finally:
        multi.shutdown()
        single.shutdown()
        serial.shutdown()
    assert WorkerPids(single, multi).leaked() == [], (
        "process fleets left shared-memory transport segments in /dev/shm"
    )
    vms = serial.total_vms()
    return {
        "benchmark": "fleet_process_executor",
        "vms": vms,
        "hosts": serial.total_hosts(),
        "shards": num_shards,
        "timing_reps": reps,
        "multi_workers": multi_workers,
        "cpu_count": os.cpu_count(),
        "serial_epoch_seconds": serial_s,
        "process_1w_epoch_seconds": single_s,
        "process_multiworker_epoch_seconds": multi_s,
        # The single-worker tax over serial: the per-epoch cost of
        # crossing the process boundary.  Negative means the worker beat
        # the serial loop outright.  ``dispatch_roundtrip_seconds`` is
        # the measured no-payload pool round trip — the shared-memory
        # transport's actual share of that tax (the columnar arrays
        # never touch the pipe); the rest is core sharing on 1-core
        # runners, which is why the <=5% floor (like the multi-worker
        # floor) is asserted only on >=4-core hosts.
        "process_1w_overhead_pct": 100.0 * (single_s / serial_s - 1.0),
        "dispatch_roundtrip_seconds": dispatch_s,
        "multiworker_speedup_over_single_worker": single_s / multi_s,
        "process_speedup_over_serial": serial_s / multi_s,
        "multiworker_vm_epochs_per_second": vms / multi_s,
        "unix_time": time.time(),
    }


# ----------------------------------------------------------------------
# Epoch-edge comparison (counter recording only): eager sample
# materialisation + history appends vs one counter-ring write.
# ----------------------------------------------------------------------
def _synth_host_blocks(
    num_vms: int, vms_per_host: int = 2, seed: int = 3
) -> list:
    """Per-host ``(names, block)`` pairs shaped like a fleet epoch.

    The recording cost depends only on the shapes (one small block per
    host, fleet-scale host counts), not on the counter values, so the
    blocks are synthesized instead of paying a full fleet build.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for h in range(num_vms // vms_per_host):
        names = tuple(f"h{h:05d}v{v}" for v in range(vms_per_host))
        blocks.append(
            (names, rng.uniform(1.0, 1e9, size=(vms_per_host, N_COUNTERS)))
        )
    return blocks


class _EagerRecorder:
    """The eager epoch edge: one ``CounterSample`` per VM per epoch,
    appended to the VM's history list under the amortised trim."""

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.histories: Dict[str, list] = {}

    def record(self, names, block, epoch_seconds: float) -> None:
        limit = self.limit
        for name, row in zip(names, block.tolist()):
            history = self.histories.setdefault(name, [])
            history.append(CounterSample(*row, epoch_seconds=epoch_seconds))
            if limit is not None and len(history) > 2 * limit:
                del history[: len(history) - limit]


def _ring_cluster(blocks, limit: int):
    """One cluster-wide ring with every synthesized host's VMs placed:
    ``(ring, per-host stores, slots in block order, the epoch block)``."""
    ring = CounterRing(limit)
    stores = []
    for names, _block in blocks:
        store = HostCounterStore(history_limit=limit)
        store.attach(ring)
        for name in names:
            store.join(name)
        stores.append(store)
    slots = np.array(
        [store._slots[name] for (names, _), store in zip(blocks, stores) for name in names]
    )
    return ring, stores, slots, np.vstack([block for _, block in blocks])


def _time_edge_mode(blocks, eager: bool, epochs: int, reps: int, limit: int):
    """Best-of-``reps`` wall time of ``epochs`` telemetry commits.

    ``eager=True`` times the eager recorder: materialise one
    ``CounterSample`` per VM, append to its history, amortised trim.
    ``eager=False`` times what a cluster's epoch does: one write of the
    whole epoch block into the counter ring through the VMs' slots.
    """
    best = float("inf")
    for _ in range(reps):
        if eager:
            recorder = _EagerRecorder(limit)
            start = time.perf_counter()
            for _ in range(epochs):
                for names, block in blocks:
                    recorder.record(names, block, 1.0)
        else:
            ring, _stores, slots, block = _ring_cluster(blocks, limit)
            start = time.perf_counter()
            for _ in range(epochs):
                ring.write(slots, block, 1.0)
                ring.advance()
        best = min(best, time.perf_counter() - start)
    return best


def _run_epoch_edge_comparison(
    num_vms: int, epochs: int, reps: int, history_limit: int = 64
) -> Dict:
    blocks = _synth_host_blocks(num_vms)
    eager_s = _time_edge_mode(
        blocks, eager=True, epochs=epochs, reps=reps, limit=history_limit
    )
    ring_s = _time_edge_mode(
        blocks, eager=False, epochs=epochs, reps=reps, limit=history_limit
    )
    return {
        "benchmark": "fleet_epoch_edge",
        "vms": num_vms,
        "hosts": len(blocks),
        "epochs": epochs,
        "timing_reps": reps,
        "history_limit": history_limit,
        "eager_seconds": eager_s,
        "lazy_seconds": ring_s,
        "speedup": eager_s / ring_s,
        "lazy_vm_epochs_per_second": num_vms * epochs / ring_s,
        "unix_time": time.time(),
    }


# ----------------------------------------------------------------------
# Churn comparison: steady-state hot loop vs 1%-per-epoch lifecycle
# churn (arrivals through interference-aware admission, departures,
# ring grow/shrink, demand-matrix and placement-cache rebuilds).
# ----------------------------------------------------------------------
def _time_epochs(fleet, epochs: int) -> float:
    """Wall time of ``epochs`` consecutive epochs (analyzer off).

    Churn makes consecutive epochs deliberately non-identical, so the
    whole stretch is timed once instead of best-of-reps on one epoch.
    """
    start = time.perf_counter()
    for _ in range(epochs):
        fleet.run_epoch(RunOptions(analyze=False))
    return time.perf_counter() - start


def _run_churn_comparison(
    num_vms: int, num_shards: int, epochs: int, seed: int = 7, reps: int = 2
) -> Dict:
    """Best-of-``reps`` stretches for both fleets (fresh fleets per rep;
    a churn stretch is never the same epoch twice, so whole stretches —
    not single epochs — are the comparable unit)."""
    steady_s = float("inf")
    churn_s = float("inf")
    vms_before = vms_after = num_vms
    lifecycle: Dict[str, Dict[str, int]] = {}
    for _ in range(reps):
        steady = _prepare_fleet(num_vms, num_shards, seed=seed)
        steady_s = min(steady_s, _time_epochs(steady, epochs))
        churn = _prepare_fleet(
            num_vms, num_shards, seed=seed, churn_epochs=epochs + 10
        )
        vms_before = churn.total_vms()
        warmup_stats = churn.lifecycle_stats()
        elapsed = _time_epochs(churn, epochs)
        if elapsed < churn_s:
            churn_s = elapsed
            vms_after = churn.total_vms()
            # Only the timed stretch's events count toward the rate:
            # the warmup epochs churned too.
            lifecycle = {
                shard_id: {
                    key: value - warmup_stats.get(shard_id, {}).get(key, 0)
                    for key, value in stats.items()
                }
                for shard_id, stats in churn.lifecycle_stats().items()
            }
    totals: Dict[str, int] = {}
    for stats in lifecycle.values():
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    events = (
        totals.get("arrivals_admitted", 0)
        + totals.get("arrivals_rejected", 0)
        + totals.get("departures", 0)
    )
    steady_rate = num_vms * epochs / steady_s
    churn_vms = 0.5 * (vms_before + vms_after)
    churn_rate = churn_vms * epochs / churn_s
    return {
        "benchmark": "fleet_churn",
        "vms": num_vms,
        "shards": num_shards,
        "epochs": epochs,
        "timing_reps": reps,
        "lifecycle_events": events,
        "churn_pct_per_epoch": 100.0 * events / (churn_vms * epochs),
        "lifecycle_totals": totals,
        "steady_epoch_seconds": steady_s / epochs,
        "churn_epoch_seconds": churn_s / epochs,
        "steady_vm_epochs_per_second": steady_rate,
        "churn_vm_epochs_per_second": churn_rate,
        "churn_throughput_fraction": churn_rate / steady_rate,
        "unix_time": time.time(),
    }


# ----------------------------------------------------------------------
# Tiny-scale smoke runs (tier-1 time budget): pytest -m bench_smoke
# ----------------------------------------------------------------------
@pytest.mark.bench_smoke
def test_fleet_engine_smoke():
    """Engines agree and the batch pass completes at tiny scale."""
    record = _run_engine_comparison(num_vms=60, num_shards=2, reps=2)
    assert record["vms"] == 60
    assert record["batch_epoch_seconds"] > 0
    print("\nfleet engine smoke:", json.dumps(record, indent=2))


@pytest.mark.bench_smoke
def test_fleet_substrate_smoke():
    """Substrates agree and both complete an epoch at tiny scale."""
    record = _run_substrate_comparison(
        num_vms=60, num_shards=2, scalar_reps=2, batch_reps=2
    )
    assert record["vms"] == 60
    assert record["batch_epoch_seconds"] > 0
    print("\nfleet substrate smoke:", json.dumps(record, indent=2))


@pytest.mark.bench_smoke
def test_fleet_epoch_edge_smoke():
    """Both epoch edges complete and record identical histories at tiny
    scale."""
    record = _run_epoch_edge_comparison(num_vms=200, epochs=12, reps=2)
    assert record["eager_seconds"] > 0 and record["lazy_seconds"] > 0
    # The timed paths must also record identical histories.
    blocks = _synth_host_blocks(20)
    ring, stores, slots, block = _ring_cluster(blocks, limit=4)
    recorder = _EagerRecorder(4)
    for epoch in range(12):
        ring.write(slots, block + epoch, 1.0)
        ring.advance()
        for names, host_block in blocks:
            recorder.record(names, host_block + epoch, 1.0)
    for (names, _), store in zip(blocks, stores):
        for name in names:
            assert list(store.histories[name]) == recorder.histories[name]
    _merge_bench_record("fleet_epoch_edge_smoke", record)
    print("\nfleet epoch edge smoke:", json.dumps(record, indent=2))


@pytest.mark.bench_smoke
def test_fleet_churn_smoke():
    """Steady vs churn throughput at tiny scale: the lifecycle engine
    must actually churn the fleet and both loops must complete (the
    >= 50% throughput floor is asserted at 2k scale)."""
    record = _run_churn_comparison(num_vms=60, num_shards=2, epochs=8)
    assert record["lifecycle_events"] > 0, "the smoke timeline must churn"
    assert record["churn_vm_epochs_per_second"] > 0
    _merge_bench_record("fleet_churn_smoke", record)
    print("\nfleet churn smoke:", json.dumps(record, indent=2))


@pytest.mark.bench_smoke
def test_fleet_executor_smoke():
    """The env-selected executor completes an epoch and agrees with the
    serial loop (the CI matrix runs this under the process executor,
    plus a churn leg).  With
    ``FLEET_SMOKE_CHURN=1`` both fleets carry the same churn timeline,
    so the fingerprint comparison covers worker-side lifecycle
    application too."""
    executor = os.environ.get("FLEET_SMOKE_EXECUTOR", "process")
    churn_epochs = 16 if os.environ.get("FLEET_SMOKE_CHURN") == "1" else None
    serial = _prepare_fleet(
        60, num_shards=2, executor="serial", churn_epochs=churn_epochs
    )
    fleet = _prepare_fleet(
        60,
        num_shards=2,
        executor=executor,
        max_workers=2,
        churn_epochs=churn_epochs,
    )
    try:
        reference = decision_key(
            serial.run_epoch(_COLUMNAR)
        )
        assert reference == decision_key(
            fleet.run_epoch(_COLUMNAR)
        ), f"executor {executor!r} diverges from serial"
        elapsed = _time_fleet_epoch_columnar(fleet, reps=2)
        assert elapsed > 0
        record = {
            "benchmark": "fleet_executor_smoke",
            "executor": executor,
            "churn": churn_epochs is not None,
            # Live topology: under the process executor churn happens in
            # the workers, so the parent's total_vms() is a stale
            # template — stats() collects from the workers.
            "vms": int(fleet.stats()["vms"]),
            "epoch_seconds": elapsed,
            "cpu_count": os.cpu_count(),
            "unix_time": time.time(),
        }
        _merge_bench_record(f"fleet_executor_smoke_{executor}", record)
        print(f"\nfleet executor smoke [{executor}]:", json.dumps(record, indent=2))
    finally:
        fleet.shutdown()
        serial.shutdown()
    if executor == "process":
        # The CI process leg re-checks /dev/shm from the workflow too;
        # failing here names the leaked segments.
        assert WorkerPids(fleet).leaked() == [], (
            "process smoke run left shared-memory segments in /dev/shm"
        )


@pytest.mark.bench_smoke
def test_fleet_simulation_smoke():
    """A tiny fleet runs end-to-end (simulate + monitor + detect)."""
    scenario = synthesize_datacenter(
        40,
        num_shards=2,
        seed=13,
        episodes=[
            InterferenceEpisode(
                shard=0, host_index=0, start_epoch=4, end_epoch=8, kind="memory"
            )
        ],
    )
    fleet = build_fleet(scenario, config=_fast_config(), mitigate=False)
    fleet.bootstrap()
    start = time.perf_counter()
    epochs = 8
    for _ in range(epochs):
        fleet.run_epoch()
    elapsed = time.perf_counter() - start
    assert fleet.detections(), "the injected episode must be detected"
    rate = fleet.total_vms() * epochs / elapsed
    print(f"\nfleet simulation smoke: {rate:.0f} VM-epochs/s over {epochs} epochs")


# ----------------------------------------------------------------------
# Full scale, records .benchmarks/BENCH_fleet.json
# ----------------------------------------------------------------------
def test_fleet_scale_1000_vms():
    """The batched epoch engine is >= 5x the scalar loop at 1000 VMs."""
    record = _run_engine_comparison(
        num_vms=FULL_SCALE_VMS, num_shards=FULL_SCALE_SHARDS, reps=3
    )
    _merge_bench_record("fleet_epoch_engine", record)
    print("\nfleet scale:", json.dumps(record, indent=2))
    assert record["speedup"] >= MIN_ENGINE_SPEEDUP, (
        f"batched engine speedup {record['speedup']:.1f}x below the "
        f"{MIN_ENGINE_SPEEDUP:.0f}x acceptance floor (scalar "
        f"{record['scalar_epoch_seconds']:.3f}s vs batch "
        f"{record['batch_epoch_seconds']:.3f}s at {record['vms']} VMs)"
    )


def test_fleet_substrate_scale_2000_vms():
    """The serial batch substrate is >= 5x the PR 1 baseline end-to-end
    at 2k VMs."""
    record = _run_substrate_comparison(
        num_vms=2000, num_shards=4, scalar_reps=2, batch_reps=4
    )
    _merge_bench_record("fleet_substrate_2k", record)
    print("\nfleet substrate 2k:", json.dumps(record, indent=2))
    assert record["end_to_end_speedup"] >= MIN_SUBSTRATE_SPEEDUP, (
        f"end-to-end speedup {record['end_to_end_speedup']:.1f}x below the "
        f"{MIN_SUBSTRATE_SPEEDUP:.0f}x acceptance floor (PR 1 baseline "
        f"{record['pr1_baseline_epoch_seconds']:.3f}s vs batch "
        f"{record['batch_epoch_seconds']:.3f}s "
        f"at {record['vms']} VMs)"
    )


def test_fleet_substrate_scale_10000_vms():
    """The batch substrate keeps scaling at 10k VMs (the north star's
    fleet size); records the scalar/batch comparison."""
    record = _run_substrate_comparison(
        num_vms=10_000, num_shards=8, scalar_reps=1, batch_reps=2
    )
    _merge_bench_record("fleet_substrate_10k", record)
    print("\nfleet substrate 10k:", json.dumps(record, indent=2))
    assert record["substrate_speedup"] >= 3.0, (
        f"substrate speedup collapsed at 10k VMs: "
        f"{record['substrate_speedup']:.1f}x"
    )


def test_fleet_process_scale_2000_vms():
    """Serial vs process execution at 2k VMs: executors agree exactly;
    the epoch timings, the single-worker IPC tax of the shared-memory
    transport and the worker scaling are recorded."""
    record = _run_process_comparison(num_vms=2000, num_shards=4, reps=7)
    _merge_bench_record("fleet_process_2k", record)
    print("\nfleet process 2k:", json.dumps(record, indent=2))
    assert record["process_multiworker_epoch_seconds"] > 0
    # The transport itself must stay cheap everywhere: the no-payload
    # dispatch round trip bounds what shared memory leaves on the pipe.
    assert record["dispatch_roundtrip_seconds"] < 0.05
    if (os.cpu_count() or 1) >= 4:
        # On real multi-core hardware the worker keeps its own core (no
        # per-epoch cache eviction), so the single-worker process
        # executor must track the serial loop.
        assert record["process_1w_overhead_pct"] <= 5.0, (
            "single-worker process overhead "
            f"{record['process_1w_overhead_pct']:.1f}% exceeds the 5% "
            f"acceptance ceiling on a {os.cpu_count()}-core host"
        )


def test_fleet_epoch_edge_2000_vms():
    """Epoch-edge cost at 2k VMs: the ring write vs eager
    materialisation (recorded; the acceptance floor is asserted at
    10k)."""
    record = _run_epoch_edge_comparison(num_vms=2000, epochs=30, reps=3)
    _merge_bench_record("fleet_epoch_edge_2k", record)
    print("\nfleet epoch edge 2k:", json.dumps(record, indent=2))
    assert record["lazy_seconds"] > 0


def test_fleet_epoch_edge_10000_vms():
    """The ring write is >= 1.3x the eager epoch edge at the north
    star's 10k-VM fleet (sample materialisation + history appends were
    the last per-VM Python work in a batch epoch)."""
    record = _run_epoch_edge_comparison(num_vms=10_000, epochs=20, reps=3)
    _merge_bench_record("fleet_epoch_edge_10k", record)
    print("\nfleet epoch edge 10k:", json.dumps(record, indent=2))
    assert record["speedup"] >= 1.3, (
        f"ring write speedup {record['speedup']:.2f}x below the 1.3x "
        f"acceptance floor (eager {record['eager_seconds']:.3f}s vs lazy "
        f"{record['lazy_seconds']:.3f}s for {record['epochs']} epochs at "
        f"{record['vms']} VMs)"
    )


def test_fleet_churn_scale_2000_vms():
    """1%-per-epoch churn (arrivals via interference-aware admission,
    departures, ring grow/shrink, cache rebuilds) must sustain >= 50%
    of the steady-state ``Fleet.run_epoch`` VM-epochs/s at 2k VMs."""
    record = _run_churn_comparison(num_vms=2000, num_shards=4, epochs=15)
    _merge_bench_record("fleet_churn_2k", record)
    print("\nfleet churn 2k:", json.dumps(record, indent=2))
    assert record["lifecycle_events"] >= 100, (
        f"expected a churn-heavy run, got {record['lifecycle_events']} events"
    )
    assert record["churn_throughput_fraction"] >= 0.5, (
        f"churn throughput fell to "
        f"{100 * record['churn_throughput_fraction']:.0f}% of steady state "
        f"({record['churn_vm_epochs_per_second']:.0f} vs "
        f"{record['steady_vm_epochs_per_second']:.0f} VM-epochs/s) — "
        "below the 50% acceptance floor"
    )


def test_fleet_process_scale_10000_vms():
    """Serial vs process execution at the north star's 10k-VM fleet:
    records the end-to-end multi-worker speedup over single-worker
    process execution (the number that scales with cores — ~1x on a
    single-core runner, recorded together with ``cpu_count``)."""
    record = _run_process_comparison(num_vms=10_000, num_shards=8, reps=5)
    _merge_bench_record("fleet_process_10k", record)
    print("\nfleet process 10k:", json.dumps(record, indent=2))
    assert record["multiworker_speedup_over_single_worker"] > 0
    assert record["dispatch_roundtrip_seconds"] < 0.05
    if (os.cpu_count() or 1) >= 4:
        # On real multi-core hardware the shard groups must overlap and
        # the single worker must track the serial loop (no per-epoch
        # cache eviction from core sharing).
        assert record["multiworker_speedup_over_single_worker"] >= 1.5, (
            "multi-worker process execution failed to scale with cores: "
            f"{record['multiworker_speedup_over_single_worker']:.2f}x "
            f"on {os.cpu_count()} cores"
        )
        assert record["process_1w_overhead_pct"] <= 5.0, (
            "single-worker process overhead "
            f"{record['process_1w_overhead_pct']:.1f}% exceeds the 5% "
            f"acceptance ceiling on a {os.cpu_count()}-core host"
        )


# ----------------------------------------------------------------------
# Telemetry overhead (the observability bus, PR 10)
# ----------------------------------------------------------------------
#: Acceptance ceiling for fully-profiled telemetry on the columnar hot
#: loop (asserted on >=4-core hosts, like the executor floors).
MAX_TELEMETRY_OVERHEAD_PCT = 3.0


def _validate_chrome_trace(trace_path: Path, expect_worker_tracks: bool):
    """Parse an exported trace and return the complete-event name set.

    Checks the trace_event schema Perfetto loads: ``X`` events carry
    name/ts/dur/pid/tid, coarse parent phases are present, and (on
    process legs) worker pids appear as their own named tracks.
    """
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    complete = [e for e in events if e.get("ph") == "X"]
    assert complete, "trace must contain complete ('X') span events"
    for event in complete:
        for field in ("name", "ts", "dur", "pid", "tid"):
            assert field in event, f"span event missing {field!r}"
    names = {e["name"] for e in complete}
    assert {"epoch", "simulate", "monitor"} <= names, (
        f"phase spans missing from trace: {sorted(names)}"
    )
    tracks = {
        e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    assert "fleet parent" in tracks
    if expect_worker_tracks:
        # Dispatch/merge bracket the pool exchange (process executor
        # only); the workers' deep spans land under their own pids.
        assert {"dispatch", "merge"} <= names, (
            f"pool-exchange spans missing from trace: {sorted(names)}"
        )
        assert any(t.startswith("fleet worker") for t in tracks), (
            "worker pids must appear as their own trace tracks"
        )
    assert "git_rev" in trace.get("otherData", {}), (
        "trace must carry the run_metadata provenance envelope"
    )
    return names


def _validate_prometheus(text: str, min_metrics: int = 10) -> int:
    """Every non-comment line parses as ``metric value``; returns the
    sample count."""
    samples = 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        float(value)
        assert name_part.startswith("fleet_") or name_part.startswith(
            "dashboard_"
        ), f"unexpected metric family: {line}"
        samples += 1
    assert samples >= min_metrics, (
        f"expected >= {min_metrics} Prometheus samples, got {samples}"
    )
    return samples


def _run_telemetry_comparison(
    num_vms: int,
    num_shards: int,
    reps: int,
    workers: int = 4,
    trace_path: Optional[Path] = None,
) -> Dict:
    """Telemetry off vs fully profiled vs sampled on the process
    executor's columnar hot loop (the most instrumented path: coarse
    parent spans + per-epoch worker span batches on the shm
    descriptors).  All three fleets must agree bit-exactly; the timing
    rounds are interleaved so machine drift hits every mode equally."""
    off = _prepare_fleet(
        num_vms, num_shards, executor="process", max_workers=workers
    )
    on = _prepare_fleet(
        num_vms,
        num_shards,
        executor="process",
        max_workers=workers,
        telemetry=TelemetryConfig(enabled=True, profile_every=1),
    )
    sampled = _prepare_fleet(
        num_vms,
        num_shards,
        executor="process",
        max_workers=workers,
        telemetry=TelemetryConfig(enabled=True, profile_every=8),
    )
    try:
        reference = decision_key(off.run_epoch(_COLUMNAR))
        assert reference == decision_key(
            on.run_epoch(_COLUMNAR)
        ), "fully-profiled telemetry changed the decision columns"
        assert reference == decision_key(
            sampled.run_epoch(_COLUMNAR)
        ), "sampled telemetry changed the decision columns"
        off_s, on_s, sampled_s = _time_fleet_epochs_columnar(
            [off, on, sampled], reps
        )
        registry = on.telemetry
        totals = registry.span_totals()
        # The profiled fleet really recorded the run it was timed on.
        assert totals["epoch"]["count"] > 0
        assert totals["simulate"]["count"] > 0
        prometheus_samples = _validate_prometheus(
            registry.render_prometheus()
        )
        if trace_path is not None:
            registry.export_chrome_trace(trace_path)
            _validate_chrome_trace(trace_path, expect_worker_tracks=True)
    finally:
        sampled.shutdown()
        on.shutdown()
        off.shutdown()
    assert WorkerPids(off, on, sampled).leaked() == [], (
        "telemetry benchmark left shared-memory segments in /dev/shm"
    )
    vms = off.total_vms()
    return {
        "benchmark": "fleet_telemetry",
        "vms": vms,
        "shards": num_shards,
        "executor": "process",
        "workers": workers,
        "timing_reps": reps,
        "cpu_count": os.cpu_count(),
        "off_epoch_seconds": off_s,
        "profiled_epoch_seconds": on_s,
        "sampled_epoch_seconds": sampled_s,
        # The observability tax: fully-profiled (every epoch ships
        # worker span batches on the descriptors) and sampled
        # (deep spans every 8th epoch) over the untimed loop.
        # Negative values mean the noise floor, i.e. ~0%.
        "profiled_overhead_pct": 100.0 * (on_s / off_s - 1.0),
        "sampled_overhead_pct": 100.0 * (sampled_s / off_s - 1.0),
        "prometheus_samples": prometheus_samples,
        "spans_recorded": sum(t["count"] for t in totals.values()),
        "unix_time": time.time(),
    }


@pytest.mark.bench_smoke
def test_fleet_telemetry_smoke(tmp_path):
    """A profiled fleet agrees bit-exactly with an uninstrumented one
    and exports a valid Chrome trace + Prometheus text.  The CI
    ``FLEET_SMOKE_TELEMETRY=1`` leg runs the profiled fleet on the
    process executor (worker span batches riding the shm descriptors,
    worker pids as trace tracks) and writes the trace to
    ``FLEET_SMOKE_TRACE`` for artifact upload; otherwise a cheap serial
    leg validates the same schemas."""
    telemetry_leg = os.environ.get("FLEET_SMOKE_TELEMETRY") == "1"
    executor = "process" if telemetry_leg else "serial"
    workers = 2 if telemetry_leg else None

    plain = _prepare_fleet(60, num_shards=2, executor="serial")
    profiled = _prepare_fleet(
        60,
        num_shards=2,
        executor=executor,
        max_workers=workers,
        telemetry=TelemetryConfig(enabled=True, profile_every=1),
    )
    trace_path = Path(
        os.environ.get("FLEET_SMOKE_TRACE") or tmp_path / "smoke.trace.json"
    )
    try:
        epochs = 4
        for _ in range(epochs):
            assert decision_key(
                plain.run_epoch(_COLUMNAR)
            ) == decision_key(profiled.run_epoch(_COLUMNAR)), (
                f"profiled {executor} fleet diverges from the plain serial loop"
            )
        registry = profiled.telemetry
        # _prepare_fleet's 3 warmup epochs are instrumented too.
        assert registry.counter("epochs_total") == epochs + 3
        registry.export_chrome_trace(trace_path)
        names = _validate_chrome_trace(
            trace_path, expect_worker_tracks=telemetry_leg
        )
        prometheus_samples = _validate_prometheus(registry.render_prometheus())
    finally:
        profiled.shutdown()
        plain.shutdown()
    if telemetry_leg:
        assert WorkerPids(profiled).leaked() == [], (
            "telemetry smoke run left shared-memory segments in /dev/shm"
        )
    record = {
        "benchmark": "fleet_telemetry_smoke",
        "executor": executor,
        "vms": 60,
        "span_kinds_traced": sorted(names),
        "prometheus_samples": prometheus_samples,
        "trace_bytes": trace_path.stat().st_size,
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }
    _merge_bench_record("fleet_telemetry_smoke", record)
    print("\nfleet telemetry smoke:", json.dumps(record, indent=2))


def test_fleet_telemetry_2000_vms(tmp_path):
    """Full per-epoch profiling must cost <= 3% of the columnar hot
    loop at 2k VMs on the process executor (asserted on >=4-core hosts;
    recorded everywhere with ``cpu_count``).  The profiled fleet's
    trace and Prometheus exposition are schema-validated on the way —
    a benchmark number never lands without its observability evidence
    having parsed."""
    record = _run_telemetry_comparison(
        num_vms=2000,
        num_shards=4,
        reps=5,
        trace_path=tmp_path / "fleet2k.trace.json",
    )
    _merge_bench_record("fleet_telemetry_2k", record)
    print("\nfleet telemetry 2k:", json.dumps(record, indent=2))
    assert record["prometheus_samples"] >= 10
    if (os.cpu_count() or 1) >= 4:
        assert record["profiled_overhead_pct"] <= MAX_TELEMETRY_OVERHEAD_PCT, (
            "fully-profiled telemetry overhead "
            f"{record['profiled_overhead_pct']:.1f}% exceeds the "
            f"{MAX_TELEMETRY_OVERHEAD_PCT:.0f}% acceptance ceiling on a "
            f"{os.cpu_count()}-core host (off "
            f"{record['off_epoch_seconds']:.3f}s vs profiled "
            f"{record['profiled_epoch_seconds']:.3f}s)"
        )
        assert record["sampled_overhead_pct"] <= MAX_TELEMETRY_OVERHEAD_PCT


# ----------------------------------------------------------------------
# Regional fleets + campaign runner (the 100k-VM scale tier)
# ----------------------------------------------------------------------
def _run_campaign_cell_bench(
    spec, tag: str
) -> Dict:
    """Run one campaign cell into a temp directory and summarise it.

    The cell's npz is schema-validated before the record is returned,
    so a benchmark number never lands in the bench record without its
    columnar evidence having parsed.
    """
    import tempfile

    from repro.fleet import run_cell, validate_cell_npz

    cell = spec.cells()[0]
    campaign_dir = Path(tempfile.mkdtemp(prefix=f"repro-{tag}-"))
    summary = run_cell(spec, cell, campaign_dir, config=_fast_config())
    validate_cell_npz(campaign_dir / f"{cell.cell_id}.npz")
    return summary


@pytest.mark.bench_smoke
def test_fleet_campaign_smoke(tmp_path):
    """A tiny 2x2 campaign grid runs end to end: manifest and per-cell
    npz written, schema-validated, resume a no-op.  The CI
    ``FLEET_SMOKE_CAMPAIGN=1`` leg runs the cells on regional
    process-executor fleets (regions riding the shared-memory
    transport, checked for /dev/shm leaks); otherwise the regions run
    serial."""
    from repro.fleet import CampaignRunner, CampaignSpec, validate_cell_npz

    process_leg = os.environ.get("FLEET_SMOKE_CAMPAIGN") == "1"
    spec = CampaignSpec(
        name="smoke",
        num_vms=24,
        num_shards=2,
        num_regions=2,
        epochs=6,
        seed=3,
        executor="process" if process_leg else None,
        region_workers=1 if process_leg else None,
        churn_rates=(0.0, 0.05),
        interference_mixes=("none", "memory"),
    )
    campaign_dir = tmp_path / "campaign"
    runner = CampaignRunner(spec, campaign_dir, config=_fast_config())
    start = time.perf_counter()
    summaries = runner.run()
    elapsed = time.perf_counter() - start
    assert (campaign_dir / "manifest.json").exists()
    assert len(summaries) == 4
    for cell in spec.cells():
        validate_cell_npz(campaign_dir / f"{cell.cell_id}.npz")
    confirmed_by_mix: Dict = {}
    for summary in summaries:
        mix = summary["params"]["interference_mix"]
        confirmed_by_mix[mix] = confirmed_by_mix.get(mix, 0) + summary["confirmed"]
    assert confirmed_by_mix["memory"] > 0, (
        "the memory-interference cells must detect something"
    )
    mtimes = {p.name: p.stat().st_mtime_ns for p in campaign_dir.glob("*.npz")}
    runner.run(resume=True)
    assert mtimes == {
        p.name: p.stat().st_mtime_ns for p in campaign_dir.glob("*.npz")
    }, "resume over a complete campaign must not rewrite cells"
    if process_leg:
        assert leaked_segments() == [], (
            "campaign smoke run left shared-memory segments in /dev/shm"
        )
    record = {
        "benchmark": "fleet_campaign_smoke",
        "executor": "process" if process_leg else "serial",
        "cells": len(summaries),
        "total_seconds": elapsed,
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }
    _merge_bench_record("fleet_campaign_smoke", record)
    print("\nfleet campaign smoke:", json.dumps(record, indent=2))


def test_fleet_campaign_scale():
    """A 2x2 campaign (churn x interference) over 400-VM hierarchical
    fleets: every cell completes, every npz validates, and the grid
    throughput is recorded as ``fleet_campaign``."""
    import tempfile

    from repro.fleet import CampaignRunner, CampaignSpec, validate_cell_npz

    spec = CampaignSpec(
        name="bench",
        num_vms=400,
        num_shards=4,
        num_regions=2,
        epochs=10,
        seed=7,
        churn_rates=(0.0, 0.01),
        interference_mixes=("none", "mixed"),
    )
    campaign_dir = Path(tempfile.mkdtemp(prefix="repro-campaign-"))
    runner = CampaignRunner(spec, campaign_dir, config=_fast_config())
    start = time.perf_counter()
    summaries = runner.run()
    elapsed = time.perf_counter() - start
    for cell in spec.cells():
        validate_cell_npz(campaign_dir / f"{cell.cell_id}.npz")
    total_vm_epochs = sum(s["observations"] for s in summaries)
    confirmed = {
        s["params"]["interference_mix"]: s["confirmed"] for s in summaries
    }
    assert confirmed["mixed"] > 0, "interference cells must confirm detections"
    record = {
        "benchmark": "fleet_campaign",
        "grid": {
            "churn_rate": list(spec.churn_rates),
            "interference_mix": list(spec.interference_mixes),
        },
        "cells": len(summaries),
        "vms_per_cell": spec.num_vms,
        "regions_per_cell": spec.num_regions,
        "epochs_per_cell": spec.epochs,
        "total_seconds": elapsed,
        "total_vm_epochs": total_vm_epochs,
        "vm_epochs_per_second": total_vm_epochs
        / max(sum(s["run_seconds"] for s in summaries), 1e-9),
        "cell_run_seconds": [s["run_seconds"] for s in summaries],
        "cell_epoch_p50_seconds": [
            s["epoch_seconds"]["p50"] for s in summaries
        ],
        "cell_slo_violation_fractions": [
            s["slo_violation_fraction"] for s in summaries
        ],
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }
    _merge_bench_record("fleet_campaign", record)
    print("\nfleet campaign:", json.dumps(record, indent=2))


# ----------------------------------------------------------------------
# Snapshot/resume (the long-lived service path, PR 8)
# ----------------------------------------------------------------------
@pytest.mark.bench_smoke
def test_fleet_snapshot_smoke(tmp_path):
    """Kill a run mid-way, resume from the checkpoint file, and land on
    bit-identical decisions.  The CI ``FLEET_SMOKE_SNAPSHOT=1`` leg runs
    this under the process executor (the checkpoint snapshots the
    *workers'* live state, and the interrupted fleet must leave
    ``/dev/shm`` clean); otherwise a cheap serial roundtrip.
    ``FLEET_SMOKE_CKPT`` redirects the checkpoint file so the workflow
    can schema-validate it after the run."""
    from repro.fleet import Fleet, validate_checkpoint_file

    snapshot_leg = os.environ.get("FLEET_SMOKE_SNAPSHOT") == "1"
    executor = "process" if snapshot_leg else "serial"
    workers = 2 if snapshot_leg else None
    epochs, split = 6, 3

    reference = _prepare_fleet(60, num_shards=2, executor="serial")
    try:
        expected = [
            decision_key(
                reference.run_epoch(_COLUMNAR)
            )
            for _ in range(epochs)
        ]
    finally:
        reference.shutdown()

    fleet = _prepare_fleet(60, num_shards=2, executor=executor, max_workers=workers)
    ckpt_path = Path(os.environ.get("FLEET_SMOKE_CKPT") or tmp_path / "smoke.ckpt")
    try:
        got = [
            decision_key(
                fleet.run_epoch(_COLUMNAR)
            )
            for _ in range(split)
        ]
        t0 = time.perf_counter()
        fleet.snapshot(ckpt_path)
        snapshot_s = time.perf_counter() - t0
    finally:
        fleet.shutdown()  # the "kill": the original fleet is gone.
    if executor == "process":
        assert WorkerPids(fleet).leaked() == [], (
            "interrupted process fleet left shared-memory segments in /dev/shm"
        )

    meta = validate_checkpoint_file(ckpt_path, deep=True)
    t0 = time.perf_counter()
    resumed = Fleet.resume(ckpt_path, executor=executor, max_workers=workers)
    resume_s = time.perf_counter() - t0
    try:
        got += [
            decision_key(
                resumed.run_epoch(_COLUMNAR)
            )
            for _ in range(epochs - split)
        ]
    finally:
        resumed.shutdown()
    assert got == expected, (
        f"resumed {executor} run diverged from the uninterrupted serial run"
    )
    if executor == "process":
        assert WorkerPids(resumed).leaked() == [], (
            "resumed process fleet left shared-memory segments in /dev/shm"
        )
    record = {
        "benchmark": "fleet_snapshot_smoke",
        "executor": executor,
        "vms": 60,
        "epochs": epochs,
        "split_epoch": int(meta["epoch"]),
        "checkpoint_bytes": ckpt_path.stat().st_size,
        "snapshot_seconds": snapshot_s,
        "resume_seconds": resume_s,
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }
    _merge_bench_record("fleet_snapshot_smoke", record)
    print("\nfleet snapshot smoke:", json.dumps(record, indent=2))


def test_fleet_snapshot_2000_vms(tmp_path):
    """Snapshot/resume cost at 2k VMs under the process executor: the
    checkpoint gathers live worker state, so the recorded overhead is
    the real price of periodically checkpointing a long-lived service
    (``snapshot_overhead_pct`` = one snapshot as a fraction of one epoch;
    a service checkpointing every N epochs pays 1/N of that)."""
    from repro.fleet import Fleet, validate_checkpoint_file

    fleet = _prepare_fleet(2000, num_shards=4, executor="process", max_workers=4)
    ckpt_path = tmp_path / "fleet2k.ckpt"
    try:
        epoch_s = _time_fleet_epoch_columnar(fleet, reps=3)
        snapshot_s = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fleet.snapshot(ckpt_path)
            snapshot_s = min(snapshot_s, time.perf_counter() - start)
        # The epoch the original fleet runs next is the epoch the
        # resumed fleet must reproduce exactly.
        expected = decision_key(
            fleet.run_epoch(_COLUMNAR)
        )
    finally:
        fleet.shutdown()
    meta = validate_checkpoint_file(ckpt_path, deep=True)
    start = time.perf_counter()
    resumed = Fleet.resume(ckpt_path)
    resume_s = time.perf_counter() - start
    try:
        assert resumed.executor == "process"
        assert decision_key(
            resumed.run_epoch(_COLUMNAR)
        ) == expected, "resumed 2k fleet diverged from the snapshotted one"
    finally:
        resumed.shutdown()
    assert WorkerPids(fleet, resumed).leaked() == [], (
        "2k snapshot benchmark left shared-memory segments in /dev/shm"
    )
    record = {
        "benchmark": "fleet_snapshot_2k",
        "vms": int(meta["total_vms"]),
        "shards": len(meta["shard_ids"]),
        "executor": "process",
        "workers": 4,
        "epoch_seconds": epoch_s,
        "snapshot_seconds": snapshot_s,
        "resume_seconds": resume_s,
        "checkpoint_bytes": ckpt_path.stat().st_size,
        "checkpoint_mib": round(ckpt_path.stat().st_size / 2**20, 3),
        "snapshot_overhead_pct": 100.0 * snapshot_s / epoch_s,
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }
    _merge_bench_record("fleet_snapshot_2k", record)
    print("\nfleet snapshot 2k:", json.dumps(record, indent=2))
    assert record["checkpoint_bytes"] > 0
    assert record["snapshot_seconds"] > 0


# ----------------------------------------------------------------------
# Fault injection and supervised recovery (the self-healing path, PR 9)
# ----------------------------------------------------------------------
@pytest.mark.bench_smoke
def test_fleet_chaos_smoke():
    """Kill a process worker mid-run under a :class:`FaultPolicy` and
    finish bit-identical to an undisturbed serial run.  The CI
    ``FLEET_SMOKE_CHAOS=1`` leg escalates to the full fault menu — kill,
    hang (caught by the heartbeat deadline) and a corrupted
    shared-memory descriptor — all injected from a deterministic
    :class:`FaultPlan`; otherwise a single kill keeps the leg cheap."""
    from repro.fleet import FaultPlan, FaultPolicy, WorkerFault

    chaos_leg = os.environ.get("FLEET_SMOKE_CHAOS") == "1"
    epochs = 6
    # _prepare_fleet's warmup consumes epochs 0-2; faults target the
    # steady-state epochs the smoke times.
    faults = [WorkerFault(kind="kill", worker=0, epoch=4, point="mid")]
    if chaos_leg:
        faults += [
            WorkerFault(kind="hang", worker=1, epoch=6, point="mid"),
            WorkerFault(kind="corrupt_descriptor", worker=0, epoch=7),
        ]
    policy = FaultPolicy(
        restarts=2,
        resnapshot_every=2,
        heartbeat_timeout=15.0 if chaos_leg else None,
    )

    serial = _prepare_fleet(60, num_shards=2, executor="serial")
    try:
        expected = [
            decision_key(serial.run_epoch(_COLUMNAR))
            for _ in range(epochs)
        ]
    finally:
        serial.shutdown()

    fleet = _prepare_fleet(
        60,
        num_shards=2,
        executor="process",
        max_workers=2,
        fault_policy=policy,
        fault_plan=FaultPlan(faults=tuple(faults)),
    )
    pids = WorkerPids(fleet)
    try:
        start = time.perf_counter()
        got = []
        for _ in range(epochs):
            got.append(decision_key(fleet.run_epoch(_COLUMNAR)))
            pids.note(fleet)
        run_s = time.perf_counter() - start
        restarts = [row["restarts"] for row in fleet.worker_health()]
    finally:
        fleet.shutdown()
    assert got == expected, "recovered run diverged from the serial reference"
    assert sum(restarts) == len(faults), (
        f"expected one restart per injected fault, got {restarts}"
    )
    assert pids.leaked() == [], (
        "chaos smoke left shared-memory segments in /dev/shm"
    )
    record = {
        "benchmark": "fleet_chaos_smoke",
        "chaos_leg": chaos_leg,
        "vms": 60,
        "epochs": epochs,
        "faults_injected": len(faults),
        "fault_kinds": sorted({f.kind for f in faults}),
        "worker_restarts": restarts,
        "run_seconds": run_s,
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }
    _merge_bench_record("fleet_chaos_smoke", record)
    print("\nfleet chaos smoke:", json.dumps(record, indent=2))


def test_fleet_recovery_2000_vms():
    """Time-to-recover at 2k VMs: the wall-clock price of losing a
    worker mid-epoch under each terminal policy.  The restart path pays
    respawn + bounded replay (``resnapshot_every`` epochs at most) +
    the re-run epoch; the quarantine path pays one release and then
    runs *faster* degraded (fewer shards), which is the graceful-
    degradation trade the record makes explicit."""
    from repro.fleet import FaultPlan, FaultPolicy, WorkerFault

    resnapshot_every = 4
    kill_epoch = 6  # warmup is epochs 0-2, timing reps 3-5

    fleet = _prepare_fleet(
        2000,
        num_shards=4,
        executor="process",
        max_workers=4,
        fault_policy=FaultPolicy(restarts=2, resnapshot_every=resnapshot_every),
        fault_plan=FaultPlan(
            faults=(
                WorkerFault(kind="kill", worker=0, epoch=kill_epoch, point="mid"),
            )
        ),
    )
    pids = WorkerPids(fleet)
    try:
        epoch_s = _time_fleet_epoch_columnar(fleet, reps=3)
        start = time.perf_counter()
        fleet.run_epoch(_COLUMNAR)  # the kill epoch: detect, respawn, replay
        recovery_s = time.perf_counter() - start
        restarts = [row["restarts"] for row in fleet.worker_health()]
    finally:
        fleet.shutdown()
    pids.note(fleet)
    assert restarts == [1, 0, 0, 0]
    assert pids.leaked() == [], (
        "2k recovery benchmark left shared-memory segments in /dev/shm"
    )

    quarantined = _prepare_fleet(
        2000,
        num_shards=4,
        executor="process",
        max_workers=4,
        fault_policy=FaultPolicy(restarts=0, on_exhaustion="quarantine"),
        fault_plan=FaultPlan(
            faults=(
                WorkerFault(kind="kill", worker=3, epoch=kill_epoch, point="mid"),
            )
        ),
    )
    try:
        _time_fleet_epoch_columnar(quarantined, reps=3)
        start = time.perf_counter()
        report = quarantined.run_epoch(_COLUMNAR)  # the kill epoch
        quarantine_s = time.perf_counter() - start
        assert report.missing_shards == ("shard3",)
        degraded_s = _time_fleet_epoch_columnar(quarantined, reps=3)
    finally:
        quarantined.shutdown()
    assert WorkerPids(quarantined).leaked() == [], (
        "2k quarantine benchmark left shared-memory segments in /dev/shm"
    )

    record = {
        "benchmark": "fleet_recovery_2k",
        "vms": 2000,
        "shards": 4,
        "executor": "process",
        "workers": 4,
        "epoch_seconds": epoch_s,
        "resnapshot_every": resnapshot_every,
        "recovery_seconds": recovery_s,
        "recovery_overhead_x": recovery_s / epoch_s,
        "quarantine_seconds": quarantine_s,
        "degraded_epoch_seconds": degraded_s,
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }
    _merge_bench_record("fleet_recovery_2k", record)
    print("\nfleet recovery 2k:", json.dumps(record, indent=2))
    assert record["recovery_seconds"] > 0
    assert record["quarantine_seconds"] > 0


@pytest.mark.skipif(
    os.environ.get("FLEET_SCALE_100K") != "1",
    reason="100k-VM tier benchmark; ~10+ min — run with FLEET_SCALE_100K=1",
)
def test_fleet_region_scale_100k():
    """One 100k-VM campaign cell — 10 regions x 10k VMs, each region on
    its own shared-memory process worker — completes on one machine;
    throughput recorded as ``fleet_region_100k``.  The 1M tier is the
    documented stretch: one fleet per partition of the scenario, run
    one after another, with their ``FleetRunSummary`` objects merged —
    not asserted here because a single-core CI runner would spend hours
    on it."""
    from repro.fleet import CampaignSpec

    spec = CampaignSpec(
        name="region100k",
        num_vms=100_000,
        num_shards=80,
        num_regions=10,
        epochs=5,
        seed=7,
        executor="process",
        region_workers=1,
        history_limit=16,
        slo_epoch_seconds=30.0,
        interference_mixes=("mixed",),
    )
    summary = _run_campaign_cell_bench(spec, "region100k")
    assert leaked_segments() == [], (
        "100k-VM region run left shared-memory segments in /dev/shm"
    )
    assert summary["observations"] >= spec.num_vms * spec.epochs
    record = {
        "benchmark": "fleet_region_100k",
        "vms": spec.num_vms,
        "regions": spec.num_regions,
        "shards": spec.num_shards,
        "workers_per_region": 1,
        "executor": "process",
        "epochs": spec.epochs,
        "build_seconds": summary["build_seconds"],
        "bootstrap_seconds": summary["bootstrap_seconds"],
        "run_seconds": summary["run_seconds"],
        "vm_epochs_per_second": summary["vm_epochs_per_second"],
        "epoch_seconds": summary["epoch_seconds"],
        "confirmed": summary["confirmed"],
        "detections": summary["detections"],
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }
    _merge_bench_record("fleet_region_100k", record)
    print("\nfleet region 100k:", json.dumps(record, indent=2))
