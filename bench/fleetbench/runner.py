"""The timed run, the traced run, and their output checks.

Both runs drive the public ``FleetRuntime.stream`` from one thread in
one process (a closed loop: the next epoch starts when the previous
report is back) and fold every columnar report as it arrives.

* :func:`run_timed` measures the end-to-end metrics with all tracing
  off.  It times the workload's fixed number of epochs, so a faster
  commit times the same load as a slower one; decision metrics, the
  decision digest and peak memory cover the same epochs.  Host times
  are reported at the reference speed of :mod:`fleetbench.calibration`,
  and as measured under ``timing``.
* :func:`run_traced` re-runs those epochs three times from the same
  seed: untraced, with the fleet telemetry bus fully on (parent, IPC and
  worker spans; its cost against the untraced pass is the tracing
  overhead), and on the serial executor under :class:`LayerTracer`,
  whose wrappers reach the in-shard layers that run inside the workers
  under the process executor.  Decisions are bit-identical across the
  three passes, which the run checks.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fleet import TelemetryConfig
from repro.fleet.benchutil import run_metadata
from repro.fleet.shm import SEGMENT_PREFIX, leaked_segments
from repro.fleet.telemetry import C_DESCRIPTOR_BYTES, C_SHM_REGROWS

from fleetbench.calibration import Calibration
from fleetbench.layers import GCMeter, LayerTracer
from fleetbench.scoring import DecisionFold, percentile, score_episodes
from fleetbench.spec import metric_specs
from fleetbench.workloads import RUN_OPTIONS, Setup, Workload, setup

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3
#: Timed epochs of a process workload replayed on a serial fleet.
REPLAY_EPOCHS = 50
#: Ceiling on the traced breakdown's unattributed share of epoch time.
MAX_UNATTRIBUTED_PCT = 10.0
#: Default directory of exported Chrome traces when no ``--out`` is given.
DEFAULT_TRACE_DIR = Path(__file__).resolve().parents[1] / "out"

DECISION_UNITS = {
    "failed_epoch_fraction": "ratio",
    "episodes_scored": "count",
    "episode_recall": "ratio",
    "detect_latency_epochs": "epochs",
    "mitigated_fraction": "ratio",
    "unexplained_analyses_per_1k_vm_epochs": "1/1k-VM-epochs",
    "unexplained_detections_per_1k_vm_epochs": "1/1k-VM-epochs",
    "profiling_s_per_1k_vm_epochs": "s/1k-VM-epochs",
}


# ----------------------------------------------------------------------
# Driving a fleet
# ----------------------------------------------------------------------
class Drive:
    """Outcome of one closed-loop pass over a fleet."""

    def __init__(self) -> None:
        #: Host seconds of each completed epoch (``next`` on the stream).
        self.times: List[float] = []
        self.vm_epochs = 0
        self.failed = 0
        self.error: Optional[str] = None

    @property
    def attempted(self) -> int:
        return len(self.times) + (1 if self.error else 0)


def drive(
    fleet,
    fold: DecisionFold,
    epochs: int,
    calibration: Optional[Calibration] = None,
) -> Drive:
    """Time ``epochs`` epochs, folding each report.

    ``calibration`` runs its kernel, untimed, after every epoch.  An
    epoch that raises ends the pass; one that reports missing shards
    counts as failed.
    """
    out = Drive()
    clock = time.perf_counter
    stream = fleet.stream(epochs, RUN_OPTIONS)
    try:
        while True:
            began = clock()
            try:
                report = next(stream)
            except StopIteration:
                break
            except Exception as exc:  # noqa: BLE001 - reported as a failed epoch
                out.failed += 1
                out.error = f"{type(exc).__name__}: {exc}"
                break
            out.times.append(clock() - began)
            out.vm_epochs += report.observations()
            out.failed += bool(report.missing_shards)
            fold.add(report)
            if calibration is not None:
                calibration.run()
    finally:
        stream.close()
    return out


def _worker_pids(fleet) -> List[int]:
    return [row["pid"] for row in fleet.worker_health() if row.get("pid")]


def _teardown(fleet, pids: List[int]) -> None:
    pids.extend(_worker_pids(fleet))
    fleet.shutdown()


def _leaked(pids: List[int]) -> List[str]:
    """Transport segments of this run's workers still in ``/dev/shm``."""
    prefixes = tuple(f"{SEGMENT_PREFIX}-{pid}-" for pid in pids)
    return [name for name in leaked_segments() if name.startswith(prefixes)]


def _peak_rss_mb(pids: List[int]) -> float:
    """Peak RSS so far of this process plus the live workers ``pids``."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            kib += next(
                int(line.split()[1]) for line in status if line.startswith("VmHWM:")
            )
    return kib / 1024.0


def _decision_state(fleet) -> Dict[str, object]:
    return {
        "stats": fleet.stats(),
        "detections": [(sid, e.epoch, e.vm_name) for sid, e in fleet.detections()],
        "migrations": [
            (sid, e.epoch, e.vm_name, e.source, e.destination)
            for sid, e in fleet.migrations()
        ],
    }


def _initial_hosts(built: Setup) -> Dict[Tuple[str, str], Tuple[str, ...]]:
    return {
        (sid, host_name): tuple(host.vms)
        for sid, shard in built.fleet.shards.items()
        for host_name, host in shard.cluster.hosts.items()
    }


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# The timed run
# ----------------------------------------------------------------------
def run_timed(
    workload: Workload, seed: int, setups: int = SETUPS
) -> Dict[str, object]:
    """End-to-end metrics with tracing off, decision metrics, checks."""
    pids: List[int] = []
    setup_seconds: List[float] = []
    calibration = Calibration()
    built: Optional[Setup] = None
    for _ in range(setups):
        if built is not None:
            _teardown(built.fleet, pids)
            built = None
            gc.collect()
        began = time.perf_counter()
        built = setup(workload, seed)
        setup_seconds.append(time.perf_counter() - began)
    fleet = built.fleet
    fold = DecisionFold()
    try:
        first = fleet.current_epoch
        before = _decision_state(fleet)
        hosts = _initial_hosts(built) if built.episodes else {}
        gc.collect()
        run = drive(fleet, fold, workload.epochs, calibration)
        if run.error is None:
            peak_rss_mb = _peak_rss_mb(_worker_pids(fleet))
            after = _decision_state(fleet)
    finally:
        _teardown(fleet, pids)

    checks: Dict[str, bool] = {"no_failed_epochs": run.failed == 0}
    if workload.executor == "process":
        checks["serial_replay_identical"] = _replay_matches(
            workload, seed, fold.epoch_digests[:REPLAY_EPOCHS]
        )
    checks["shm_clean"] = not _leaked(pids)

    metrics: Dict[str, Dict[str, object]] = {}
    #: Reported, not bounded: the raw host times, and the tail, which
    #: repeats too loosely on a shared host.
    timing: Dict[str, Dict[str, object]] = {}
    decision: Dict[str, object] = {
        "failed_epoch_fraction": run.failed / max(1, run.attempted)
    }
    if run.error is None:
        delta = {
            key: after["stats"][key] - before["stats"][key]
            for key in ("analyzer_invocations", "profiling_seconds")
        }
        checks["analyses_match_stats"] = delta["analyzer_invocations"] == fold.analyzed
        decision.update(
            score_episodes(
                built.episodes,
                hosts,
                detections=after["detections"],
                analyses=fold.analyses,
                migrations=after["migrations"],
                horizon=(first, first + workload.epochs),
                vm_epochs=fold.vm_epochs,
            )
        )
        decision["profiling_s_per_1k_vm_epochs"] = (
            delta["profiling_seconds"] * 1000.0 / max(1, fold.vm_epochs)
        )
        raw = {
            "vm_epochs_per_s": run.vm_epochs / sum(run.times),
            "epoch_p50_ms": percentile(run.times, 50) * 1e3,
            "setup_s": statistics.median(setup_seconds),
        }
        # Host times at the reference speed: a time scales by the factor,
        # a rate by its inverse.
        factor = calibration.factor()
        values = {
            "vm_epochs_per_s": raw["vm_epochs_per_s"] / factor,
            "epoch_p50_ms": raw["epoch_p50_ms"] * factor,
            "setup_s": raw["setup_s"] * factor,
            "peak_rss_mb": peak_rss_mb,
        }
        specs = metric_specs("end_to_end")
        metrics = {
            name: _metric(value, specs[name]["unit"]) for name, value in values.items()
        }
        timing = {
            f"raw_{name}": _metric(value, specs[name]["unit"])
            for name, value in raw.items()
        }
        timing["calibration_factor"] = _metric(factor, "ratio")
        try:
            timing["epoch_p90_ms"] = _metric(
                percentile(run.times, 90) * 1e3 * factor, "ms"
            )
        except ValueError:
            pass  # fewer than 100 epochs: reduced test runs only
    return {
        "kind": "timed",
        "workload": workload.name,
        "seed": seed,
        "epochs": len(run.times),
        "correct": all(checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "timing": timing,
        "decision": decision,
        "digest": fold.digest(),
        "checks": checks,
        "setup_seconds": setup_seconds,
        "error": run.error,
    }


def _replay_matches(workload: Workload, seed: int, digests: List[str]) -> bool:
    """Replay the first timed epochs untimed on a serial fleet."""
    built = setup(workload, seed, executor="serial")
    fold = DecisionFold()
    try:
        run = drive(built.fleet, fold, len(digests))
    finally:
        built.fleet.shutdown()
    return run.error is None and fold.epoch_digests == digests


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def run_traced(
    workload: Workload, seed: int, trace_path: Path
) -> Dict[str, object]:
    """Per-layer metrics from three passes over the timed epochs."""
    epochs = workload.epochs
    pids: List[int] = []
    passes: Dict[str, Tuple[Drive, DecisionFold]] = {}
    #: Calibration factor of each pass: the passes run at different
    #: times, and the tracing overhead compares two of them.
    factors: Dict[str, float] = {}

    def one_pass(name: str, built: Setup, hook=None) -> None:
        fold = DecisionFold()
        calibration = Calibration()
        try:
            gc.collect()
            with hook or nullcontext():
                passes[name] = (drive(built.fleet, fold, epochs, calibration), fold)
        finally:
            _teardown(built.fleet, pids)
        factors[name] = calibration.factor()

    one_pass("untraced", setup(workload, seed))

    telemetry = TelemetryConfig(enabled=True, profile_every=1, span_capacity=1 << 16)
    built = setup(workload, seed, telemetry=telemetry)
    registry = built.fleet.telemetry
    spans_before = registry.span_totals()
    counters_before = registry.counters.copy()
    gc_meter = GCMeter()
    one_pass("telemetry", built, gc_meter)
    spans = {
        kind: totals["seconds"] - spans_before[kind]["seconds"]
        for kind, totals in registry.span_totals().items()
    }
    counters = registry.counters - counters_before
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    registry.export_chrome_trace(trace_path)

    built = setup(workload, seed, executor="serial")
    fleet = built.fleet
    lifecycle_before = fleet.lifecycle_stats()
    migrations_before = len(fleet.migrations())
    tracer = LayerTracer()
    one_pass("layers", built, tracer)

    error = next((run.error for run, _ in passes.values() if run.error), None)
    checks = {
        "no_failed_epochs": all(run.failed == 0 for run, _ in passes.values()),
        "passes_identical": len({fold.digest() for _, fold in passes.values()}) == 1,
        "chrome_trace_parses": _chrome_trace_ok(trace_path),
        "shm_clean": not _leaked(pids),
    }
    metrics: Dict[str, Dict[str, object]] = {}
    if error is None:
        # A serial fleet's statistics stay readable after its shutdown.
        values = _per_layer(
            epochs,
            workload.executor,
            passes,
            factors,
            spans,
            counters,
            gc_meter,
            tracer,
            _lifecycle_delta(lifecycle_before, fleet.lifecycle_stats()),
            len(fleet.migrations()) - migrations_before,
        )
        checks["unattributed_within_bound"] = (
            values["trace.unattributed_pct"] <= MAX_UNATTRIBUTED_PCT
        )
        specs = metric_specs("per_layer")
        metrics = {
            name: _metric(value, specs[name]["unit"]) for name, value in values.items()
        }
    return {
        "kind": "trace",
        "workload": workload.name,
        "seed": seed,
        "epochs": epochs,
        "correct": all(checks.values()),
        "attempted": sum(run.attempted for run, _ in passes.values()),
        "failed": sum(run.failed for run, _ in passes.values()),
        "metrics": metrics,
        "digest": passes["untraced"][1].digest(),
        "checks": checks,
        "trace_path": str(trace_path),
        "error": error,
    }


def _lifecycle_delta(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, int]:
    """Fleet-wide lifecycle counter increments between two snapshots."""
    totals: Dict[str, int] = {}
    for sid, counters in after.items():
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value - before.get(sid, {}).get(key, 0)
    return totals


def _per_layer(
    epochs: int,
    executor: str,
    passes: Dict[str, Tuple[Drive, DecisionFold]],
    factors: Dict[str, float],
    spans: Dict[str, float],
    counters: np.ndarray,
    gc_meter: GCMeter,
    tracer: LayerTracer,
    lifecycle: Dict[str, int],
    migrations: int,
) -> Dict[str, float]:
    def ms(seconds: float) -> float:
        return seconds * 1e3 / epochs

    own = tracer.self_seconds
    calls = tracer.calls
    untraced, _ = passes["untraced"]
    traced, _ = passes["telemetry"]
    layered, fold = passes["layers"]
    worker_busy = (
        spans["simulate"] + spans["monitor"] + spans["lifecycle"]
        if executor == "process"
        else 0.0
    )
    admitted = lifecycle.get("arrivals_admitted", 0)
    arrivals = admitted + lifecycle.get("arrivals_rejected", 0)
    events = arrivals + sum(
        lifecycle.get(key, 0)
        for key in (
            "departures",
            "departures_ignored",
            "drains",
            "returns",
            "load_changes",
        )
    )
    layered_total = sum(layered.times)
    placement_calls = calls["resolve"]
    return {
        "parent.self_ms_per_epoch": ms(own["parent"]),
        "parent.gc_gen2_per_1k_epochs": gc_meter.gen2 * 1000.0 / epochs,
        "parent.gc_ms_per_epoch": ms(gc_meter.seconds),
        "ipc.dispatch_ms_per_epoch": ms(spans["dispatch"]),
        "ipc.wait_ms_per_epoch": ms(max(0.0, spans["dispatch"] - worker_busy)),
        "ipc.merge_ms_per_epoch": ms(spans["merge"]),
        "ipc.descriptor_bytes_per_epoch": counters[C_DESCRIPTOR_BYTES] / epochs,
        "ipc.shm_regrows": float(counters[C_SHM_REGROWS]),
        "lifecycle.ms_per_epoch": ms(own["lifecycle"]),
        "lifecycle.events_per_epoch": events / epochs,
        "lifecycle.admit_ratio": _ratio(admitted, arrivals),
        "substrate.ms_per_epoch": ms(own["substrate"]),
        "substrate.demand_rebuilds_per_epoch": calls["demand_rebuild"] / epochs,
        "substrate.layout_rebuilds": float(calls["layout_rebuild"]),
        "ingest.ms_per_epoch": ms(own["ingest"]),
        "report.ms_per_epoch": ms(own["report"]),
        "monitor.window_ms_per_epoch": ms(own["monitor.window"]),
        "monitor.evaluate_ms_per_epoch": ms(own["monitor.evaluate"]),
        "monitor.act_ms_per_epoch": ms(own["monitor.act"]),
        "monitor.refit_ms_per_epoch": ms(own["monitor.refit"]),
        "monitor.non_normal_per_1k_vm_epochs": (
            fold.non_normal * 1000.0 / max(1, fold.vm_epochs)
        ),
        "monitor.refits": float(calls["repository_fit"]),
        "analyzer.calls": float(calls["analyze"]),
        "analyzer.ms_per_call": _ratio(own["analyzer"] * 1e3, calls["analyze"]),
        "analyzer.confirm_ratio": _ratio(fold.analyzed_confirmed, fold.analyzed),
        "placement.calls": float(placement_calls),
        "placement.ms_per_call": _ratio(own["placement"] * 1e3, placement_calls),
        "placement.candidates_per_call": _ratio(
            calls["evaluate_candidate"], placement_calls
        ),
        "placement.migrate_ratio": _ratio(migrations, placement_calls),
        "trace.unattributed_pct": (
            100.0 * (layered_total - sum(own.values())) / layered_total
        ),
        "trace.overhead_pct": 100.0 * (
            sum(traced.times) * factors["telemetry"]
            / (sum(untraced.times) * factors["untraced"])
            - 1.0
        ),
    }


def _ratio(part: float, whole: float) -> float:
    """``part / whole``; 0 for an empty base (no arrivals, calls, ...)."""
    return part / whole if whole else 0.0


def _chrome_trace_ok(path: Path) -> bool:
    try:
        events = json.loads(path.read_text())["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    spans = [e for e in events if e.get("ph") == "X"]
    return bool(spans) and all(
        {"name", "ts", "dur", "pid"} <= set(e) for e in spans
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def write_result(result: Dict[str, object], out_dir: Path) -> Path:
    """Write one result atomically as ``<workload>-s<seed>-<kind>-<n>.json``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-s{result['seed']}-{result['kind']}"
    n = 0
    while (out_dir / f"{stem}-{n}.json").exists():
        n += 1
    path = out_dir / f"{stem}-{n}.json"
    record = {
        **result,
        "run_metadata": {**run_metadata(), "numpy_version": np.__version__},
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=2) + "\n")
    os.replace(tmp, path)
    return path


def summary_lines(result: Dict[str, object]) -> List[str]:
    """Human-readable lines: every metric by name with its unit."""
    lines = [
        f"workload {result['workload']} seed {result['seed']} "
        f"({result['kind']}, {result['epochs']} epochs)"
    ]
    for name, metric in {**result["metrics"], **result.get("timing", {})}.items():
        lines.append(f"  {name:<42} {metric['value']:>14.4f} {metric['unit']}")
    for name, value in result.get("decision", {}).items():
        shown = "n/a" if value is None else f"{value:.4f}"
        lines.append(f"  {name:<42} {shown:>14} {DECISION_UNITS[name]}")
    lines.append(f"  decision digest {result['digest']}")
    for name, ok in result["checks"].items():
        lines.append(f"  check {name}: {'ok' if ok else 'FAILED'}")
    if result.get("error"):
        lines.append(f"  error: {result['error']}")
    return lines
