"""Declarative campaign runner: parameter-grid sweeps over fleets.

A systems-scale evaluation is rarely one run — it is a *grid*: churn
rate × interference mix × admission policy × load phase, every cell a
full fleet simulation.  :class:`CampaignSpec` declares the grid, the
:class:`CampaignRunner` schedules its cells (in-process, or across a
pool of spawned processes), and each finished cell leaves two files
under the campaign directory:

``<cell_id>.npz``
    Schema-validated columnar per-epoch aggregates (decision counts per
    warning action, observation/analyzer/confirmation counts, raw
    counter totals, epoch wall-seconds) — see :data:`CELL_SCHEMA` and
    :func:`validate_cell_npz`.
``<cell_id>.summary.json``
    Human-readable roll-up: totals, epoch-time percentiles
    (p50/p90/p99) and SLO-violation fractions, lifecycle counters,
    throughput.

plus one ``manifest.json`` describing the grid.  Completion tracking is
*the files themselves*: a cell whose npz validates and whose summary
exists is done, so an interrupted campaign resumes by rerunning exactly
the missing or corrupt cells (``CampaignRunner.run(resume=True)``).

Cells are deterministic functions of (spec, cell parameters): the same
campaign produces byte-identical decision columns whatever the cell
scheduling — only the recorded wall-times differ.  Cell fleets are
partitioned into regions (:class:`~repro.fleet.fleet.Region`), each
with its own share of process workers on the shared-memory path.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import DeepDiveConfig
from repro.fleet.checkpoint import Checkpoint, CheckpointError, _atomic_write_bytes
from repro.fleet.executor import WARNING_ACTIONS
from repro.fleet.lifecycle import AdmissionPolicy
from repro.fleet.fleet import Fleet, RunOptions
from repro.fleet.scenario import (
    DatacenterScenario,
    InterferenceEpisode,
    build_fleet,
    synthesize_datacenter,
)
from repro.fleet.telemetry import (
    C_CELLS,
    TelemetryConfig,
    TelemetryRegistry,
    resolve_telemetry,
)
from repro.fleet.timeline import FleetTimeline, LoadPhase, churn_timeline
from repro.hardware.batch import N_COUNTERS

#: Interference-mix axis values: which stress workloads the scenario
#: colocates with production tenants ("mixed" cycles all three kinds
#: across shards; "none" is the quiet-fleet control).
INTERFERENCE_MIXES: Tuple[str, ...] = ("none", "memory", "disk", "network", "mixed")

#: Version stamped into every cell npz; bumped on schema changes.
CELL_SCHEMA_VERSION = 1

#: The cell result schema: array name -> (dtype kind, ndim).  Shapes
#: are cross-checked against the ``epochs`` scalar, the warning-action
#: table and the Table-1 counter column count by
#: :func:`validate_cell_npz`.
CELL_SCHEMA: Dict[str, Tuple[str, int]] = {
    "schema_version": ("i", 0),
    "epochs": ("i", 0),
    "action_names": ("U", 1),
    "action_counts": ("i", 2),
    "observations": ("i", 1),
    "analyzer_invocations": ("i", 1),
    "confirmed": ("i", 1),
    "counter_totals": ("f", 2),
    "epoch_seconds": ("f", 1),
}


class CampaignSchemaError(ValueError):
    """A cell result file does not conform to :data:`CELL_SCHEMA`."""


def _slug(value: Union[float, str]) -> str:
    """Filesystem-safe token for a cell parameter value."""
    if isinstance(value, float):
        text = f"{value:g}"
    else:
        text = str(value)
    return text.replace(".", "p").replace("-", "m").replace("/", "_")


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell: a concrete parameter assignment."""

    index: int
    churn_rate: float
    interference_mix: str
    admission_degradation: float
    load_phase: float

    @property
    def cell_id(self) -> str:
        return (
            f"cell{self.index:04d}"
            f"-churn{_slug(self.churn_rate)}"
            f"-mix{_slug(self.interference_mix)}"
            f"-adm{_slug(self.admission_degradation)}"
            f"-load{_slug(self.load_phase)}"
        )

    def params(self) -> Dict[str, Union[float, str]]:
        return {
            "churn_rate": self.churn_rate,
            "interference_mix": self.interference_mix,
            "admission_degradation": self.admission_degradation,
            "load_phase": self.load_phase,
        }


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative grid spec: base sizing plus four swept axes.

    The grid is the Cartesian product of the axes in declaration order
    (churn → mix → admission → load), so cell indices are stable across
    runs and machines — the foundation of file-based resume.
    """

    name: str
    # -- base sizing (shared by every cell) ---------------------------
    num_vms: int = 200
    num_shards: int = 4
    num_regions: int = 2
    epochs: int = 16
    seed: int = 0
    #: Region execution strategy + per-region worker budget (see
    #: :func:`~repro.fleet.scenario.build_fleet`'s ``num_regions``).
    executor: Optional[str] = None
    region_workers: Optional[int] = None
    history_limit: Optional[int] = 64
    #: Epoch wall-time budget; epochs slower than this count as SLO
    #: violations in the cell summaries.
    slo_epoch_seconds: float = 1.0
    # -- swept axes ----------------------------------------------------
    #: Tenant arrivals per epoch as a fraction of ``num_vms`` (0 = a
    #: static fleet).
    churn_rates: Tuple[float, ...] = (0.0,)
    #: One of :data:`INTERFERENCE_MIXES` per value.
    interference_mixes: Tuple[str, ...] = ("none",)
    #: ``AdmissionPolicy.max_predicted_degradation`` per value.
    admission_degradations: Tuple[float, ...] = (0.5,)
    #: Diurnal load-phase scale applied a third of the way into the run
    #: (1.0 = no phase change).
    load_phases: Tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if self.num_vms < 1 or self.num_shards < 1 or self.num_regions < 1:
            raise ValueError("num_vms, num_shards and num_regions must be positive")
        if self.epochs < 2:
            raise ValueError("a campaign cell needs at least 2 epochs")
        if self.slo_epoch_seconds <= 0:
            raise ValueError("slo_epoch_seconds must be positive")
        for axis_name in (
            "churn_rates",
            "interference_mixes",
            "admission_degradations",
            "load_phases",
        ):
            if not getattr(self, axis_name):
                raise ValueError(f"axis {axis_name} must not be empty")
        for rate in self.churn_rates:
            if rate < 0:
                raise ValueError("churn rates must be non-negative")
        for mix in self.interference_mixes:
            if mix not in INTERFERENCE_MIXES:
                raise ValueError(
                    f"unknown interference mix {mix!r}; "
                    f"choose from {INTERFERENCE_MIXES}"
                )
        for degradation in self.admission_degradations:
            if degradation < 0:
                raise ValueError("admission degradations must be non-negative")
        for scale in self.load_phases:
            if scale <= 0:
                raise ValueError("load phases must be positive")

    # ------------------------------------------------------------------
    def cells(self) -> List[CampaignCell]:
        """The grid, expanded in axis declaration order."""
        out: List[CampaignCell] = []
        index = 0
        for churn in self.churn_rates:
            for mix in self.interference_mixes:
                for degradation in self.admission_degradations:
                    for scale in self.load_phases:
                        out.append(
                            CampaignCell(
                                index=index,
                                churn_rate=churn,
                                interference_mix=mix,
                                admission_degradation=degradation,
                                load_phase=scale,
                            )
                        )
                        index += 1
        return out

    def scenario_for(self, cell: CampaignCell) -> DatacenterScenario:
        """The cell's concrete scenario (deterministic in spec + cell).

        Every cell shares the base topology seed, so cells differ only
        by the swept parameters: the interference mix adds one stress
        VM per shard (active for the middle half of the run), the churn
        rate scales a Poisson arrival process, the load phase scales
        every baseline load from a third of the way in, and the
        admission axis bounds the predicted-degradation admission
        controller.
        """
        shard_ids = [f"shard{s}" for s in range(self.num_shards)]
        episodes: List[InterferenceEpisode] = []
        if cell.interference_mix != "none":
            if cell.interference_mix == "mixed":
                kinds = ("memory", "disk", "network")
            else:
                kinds = (cell.interference_mix,)
            start = max(1, self.epochs // 4)
            end = max(start + 1, (3 * self.epochs) // 4)
            for s in range(self.num_shards):
                episodes.append(
                    InterferenceEpisode(
                        shard=s,
                        host_index=0,
                        start_epoch=start,
                        end_epoch=end,
                        kind=kinds[s % len(kinds)],
                        intensity=0.9,
                    )
                )
        timeline: Optional[FleetTimeline] = None
        if cell.churn_rate > 0:
            timeline = churn_timeline(
                shard_ids,
                epochs=self.epochs,
                seed=self.seed + 1,
                arrivals_per_epoch=max(cell.churn_rate * self.num_vms, 1e-6),
                mean_lifetime_epochs=max(self.epochs / 2.0, 2.0),
            )
        if cell.load_phase != 1.0:
            if timeline is None:
                timeline = FleetTimeline()
            phase_epoch = max(1, self.epochs // 3)
            for shard_id in shard_ids:
                timeline.add(
                    LoadPhase(
                        epoch=phase_epoch, shard=shard_id, scale=cell.load_phase
                    )
                )
        admission = AdmissionPolicy(
            anti_affinity=("data_analytics",),
            max_predicted_degradation=cell.admission_degradation,
        )
        return synthesize_datacenter(
            self.num_vms,
            num_shards=self.num_shards,
            seed=self.seed,
            episodes=tuple(episodes),
            timeline=timeline,
            admission=admission,
        )

    def manifest(self) -> Dict[str, object]:
        """The campaign manifest payload (written as ``manifest.json``)."""
        return {
            "name": self.name,
            "schema_version": CELL_SCHEMA_VERSION,
            "base": {
                "num_vms": self.num_vms,
                "num_shards": self.num_shards,
                "num_regions": self.num_regions,
                "epochs": self.epochs,
                "seed": self.seed,
                "executor": self.executor,
                "region_workers": self.region_workers,
                "history_limit": self.history_limit,
                "slo_epoch_seconds": self.slo_epoch_seconds,
            },
            "axes": {
                "churn_rate": list(self.churn_rates),
                "interference_mix": list(self.interference_mixes),
                "admission_degradation": list(self.admission_degradations),
                "load_phase": list(self.load_phases),
            },
            "cells": [
                {
                    "index": cell.index,
                    "cell_id": cell.cell_id,
                    "params": cell.params(),
                    "npz": f"{cell.cell_id}.npz",
                    "summary": f"{cell.cell_id}.summary.json",
                }
                for cell in self.cells()
            ],
        }


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _percentiles(values: np.ndarray) -> Dict[str, float]:
    return {
        "p50": float(np.percentile(values, 50)),
        "p90": float(np.percentile(values, 90)),
        "p99": float(np.percentile(values, 99)),
        "mean": float(values.mean()),
        "max": float(values.max()),
    }


def _load_cell_checkpoint(
    ckpt_path: Path,
    cell: CampaignCell,
    epochs: int,
    telemetry: Optional[TelemetryRegistry] = None,
):
    """The cell's mid-run checkpoint, if it exists and matches.

    Returns ``(resumed_fleet, extra)`` or ``None``.  Any problem —
    unreadable file, foreign cell, different epoch budget, truncated
    arrays — discards the checkpoint (it is deleted so the cell restarts
    cleanly) rather than poisoning the cell result.
    """
    if not ckpt_path.exists():
        return None
    try:
        checkpoint = Checkpoint.load(ckpt_path)
        extra = checkpoint.state().get("extra")
        if not isinstance(extra, dict):
            raise CheckpointError("cell checkpoint carries no progress arrays")
        if extra.get("cell_id") != cell.cell_id:
            raise CheckpointError(
                f"checkpoint belongs to cell {extra.get('cell_id')!r}"
            )
        if extra.get("epochs") != epochs:
            raise CheckpointError(
                f"checkpoint ran toward {extra.get('epochs')!r} epochs, "
                f"cell wants {epochs}"
            )
        k = checkpoint.epoch
        if not (0 < k < epochs):
            raise CheckpointError(f"checkpoint epoch {k} outside (0, {epochs})")
        for name in (
            "action_counts",
            "observations",
            "analyzer_invocations",
            "confirmed",
            "counter_totals",
            "epoch_seconds",
        ):
            array = extra.get(name)
            if not isinstance(array, np.ndarray) or array.shape[0] != k:
                raise CheckpointError(f"checkpoint array {name} is inconsistent")
        fleet = Fleet.resume(checkpoint, telemetry=telemetry)
        return fleet, extra
    except (CheckpointError, KeyError, pickle.UnpicklingError):
        ckpt_path.unlink(missing_ok=True)
        return None


def run_cell(
    spec: CampaignSpec,
    cell: CampaignCell,
    campaign_dir: Union[str, Path],
    config: Optional[DeepDiveConfig] = None,
    checkpoint_every: Optional[int] = None,
    telemetry: Union[TelemetryConfig, TelemetryRegistry, None] = None,
    _fail_after_epochs: Optional[int] = None,
) -> Dict[str, object]:
    """Run one cell end to end and persist its npz + summary.

    The cell fleet is partitioned into ``spec.num_regions`` regions
    over ``spec.executor``; every epoch is collected columnar, so the
    per-epoch aggregates come straight off the decision arrays without
    materialising per-VM observation objects.  Returns the summary
    dict (also written to ``<cell_id>.summary.json``).

    ``checkpoint_every=k`` snapshots the fleet (plus the per-epoch
    arrays collected so far) to ``<cell_id>.ckpt`` every ``k`` epochs —
    a runtime knob, deliberately *not* part of the spec or manifest, so
    operators can turn it on when resuming an existing campaign
    directory.  A rerun of an interrupted cell resumes mid-cell from the
    checkpoint (bit-identical decision columns, only wall-times differ)
    instead of restarting from epoch 0; the checkpoint is deleted once
    the cell completes.  ``_fail_after_epochs`` is a test hook that
    aborts the run after that many epochs have executed *in this call*.

    ``telemetry`` instruments the cell fleet (a
    :class:`~repro.fleet.telemetry.TelemetryConfig` builds one fresh
    registry per cell; ``None`` defers to ``REPRO_FLEET_PROFILE``): the
    whole cell runs inside a ``cell`` span, the registry's ``cells``
    counter ticks, and a Perfetto-loadable ``<cell_id>.trace.json`` is
    written next to the cell's npz.  Decision columns stay bit-identical
    either way.
    """
    campaign_dir = Path(campaign_dir)
    campaign_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = campaign_dir / f"{cell.cell_id}.ckpt"
    registry = resolve_telemetry(telemetry)

    epochs = spec.epochs
    n_actions = len(WARNING_ACTIONS)
    action_counts = np.zeros((epochs, n_actions), dtype=np.int64)
    observations = np.zeros(epochs, dtype=np.int64)
    analyzer_invocations = np.zeros(epochs, dtype=np.int64)
    confirmed = np.zeros(epochs, dtype=np.int64)
    counter_totals = np.full((epochs, N_COUNTERS), np.nan, dtype=float)
    epoch_seconds = np.zeros(epochs, dtype=float)

    start_epoch = 0
    run_seconds_so_far = 0.0
    fleet = None
    build_seconds = 0.0
    bootstrap_seconds = 0.0
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    resumed = _load_cell_checkpoint(ckpt_path, cell, epochs, telemetry=registry)
    if resumed is not None:
        fleet, extra = resumed
        start_epoch = fleet.current_epoch
        action_counts[:start_epoch] = extra["action_counts"]
        observations[:start_epoch] = extra["observations"]
        analyzer_invocations[:start_epoch] = extra["analyzer_invocations"]
        confirmed[:start_epoch] = extra["confirmed"]
        counter_totals[:start_epoch] = extra["counter_totals"]
        epoch_seconds[:start_epoch] = extra["epoch_seconds"]
        build_seconds = float(extra.get("build_seconds", 0.0))
        bootstrap_seconds = float(extra.get("bootstrap_seconds", 0.0))
        run_seconds_so_far = float(extra.get("run_seconds_so_far", 0.0))

    executed_here = 0
    options = RunOptions(analyze=True)
    t_cell = time.perf_counter()
    try:
        if fleet is None:
            scenario = spec.scenario_for(cell)
            t0 = time.perf_counter()
            fleet = build_fleet(
                scenario,
                num_regions=spec.num_regions,
                config=config,
                executor=spec.executor,
                max_workers=spec.region_workers,
                history_limit=spec.history_limit,
                telemetry=registry,
            )
            build_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            fleet.bootstrap()
            bootstrap_seconds = time.perf_counter() - t0

        t_run = time.perf_counter()
        for i in range(start_epoch, epochs):
            t0 = time.perf_counter()
            report = fleet.run_epoch(options)
            epoch_seconds[i] = time.perf_counter() - t0
            action_counts[i] = report.action_counts()
            observations[i] = report.observations()
            analyzer_invocations[i] = report.analyzer_invocations()
            confirmed[i] = report.confirmed_count()
            totals = report.counter_totals()
            if totals is not None:
                counter_totals[i] = totals
            executed_here += 1
            done = i + 1
            if (
                checkpoint_every is not None
                and done % checkpoint_every == 0
                and done < epochs
            ):
                fleet.snapshot(
                    ckpt_path,
                    extra={
                        "cell_id": cell.cell_id,
                        "epochs": epochs,
                        "action_counts": action_counts[:done].copy(),
                        "observations": observations[:done].copy(),
                        "analyzer_invocations": analyzer_invocations[:done].copy(),
                        "confirmed": confirmed[:done].copy(),
                        "counter_totals": counter_totals[:done].copy(),
                        "epoch_seconds": epoch_seconds[:done].copy(),
                        "build_seconds": build_seconds,
                        "bootstrap_seconds": bootstrap_seconds,
                        "run_seconds_so_far": run_seconds_so_far
                        + (time.perf_counter() - t_run),
                    },
                )
            if _fail_after_epochs is not None and executed_here >= _fail_after_epochs:
                raise RuntimeError(
                    f"cell {cell.cell_id} aborted after {executed_here} epochs "
                    "(test hook)"
                )
        run_seconds = run_seconds_so_far + (time.perf_counter() - t_run)

        stats = fleet.stats()
        lifecycle_stats = fleet.lifecycle_stats()
    finally:
        if fleet is not None:
            fleet.shutdown()
    if registry is not None:
        registry.record_span(
            "cell", t_cell, time.perf_counter() - t_cell, cell.index
        )
        registry.inc(C_CELLS)

    lifecycle_totals: Dict[str, int] = {}
    for shard_stats in lifecycle_stats.values():
        for key, value in shard_stats.items():
            lifecycle_totals[key] = lifecycle_totals.get(key, 0) + int(value)

    npz_payload: Dict[str, np.ndarray] = {
        "schema_version": np.int64(CELL_SCHEMA_VERSION),
        "epochs": np.int64(epochs),
        "action_names": np.array(WARNING_ACTIONS),
        "action_counts": action_counts,
        "observations": observations,
        "analyzer_invocations": analyzer_invocations,
        "confirmed": confirmed,
        "counter_totals": counter_totals,
        "epoch_seconds": epoch_seconds,
    }
    buffer = io.BytesIO()
    np.savez(buffer, **npz_payload)
    _atomic_write_bytes(campaign_dir / f"{cell.cell_id}.npz", buffer.getvalue())

    violations = int(np.count_nonzero(epoch_seconds > spec.slo_epoch_seconds))
    vm_epochs = int(observations.sum())
    summary: Dict[str, object] = {
        "cell_id": cell.cell_id,
        "index": cell.index,
        "params": cell.params(),
        "epochs": epochs,
        "num_vms": spec.num_vms,
        "num_regions": spec.num_regions,
        "executor": fleet.executor,
        "observations": vm_epochs,
        "analyzer_invocations": int(analyzer_invocations.sum()),
        "confirmed": int(confirmed.sum()),
        "detections": int(stats["detections"]),
        "migrations": int(stats["migrations"]),
        "final_vms": int(stats["vms"]),
        "lifecycle": lifecycle_totals,
        "build_seconds": round(build_seconds, 6),
        "bootstrap_seconds": round(bootstrap_seconds, 6),
        "run_seconds": round(run_seconds, 6),
        "vm_epochs_per_second": round(vm_epochs / max(run_seconds, 1e-9), 2),
        "epoch_seconds": {
            k: round(v, 6) for k, v in _percentiles(epoch_seconds).items()
        },
        "slo_epoch_seconds": spec.slo_epoch_seconds,
        "slo_violations": violations,
        "slo_violation_fraction": round(violations / epochs, 6),
        "status": "complete",
    }
    if start_epoch:
        summary["resumed_from_epoch"] = start_epoch
    if registry is not None:
        trace_path = campaign_dir / f"{cell.cell_id}.trace.json"
        registry.export_chrome_trace(trace_path)
        registry.log_event(
            "cell_complete", cell_id=cell.cell_id, epochs=epochs
        )
        registry.close()
        summary["trace"] = trace_path.name
    _atomic_write_bytes(
        campaign_dir / f"{cell.cell_id}.summary.json",
        json.dumps(summary, indent=2, sort_keys=True).encode(),
    )
    ckpt_path.unlink(missing_ok=True)
    return summary


def validate_cell_npz(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Load one cell npz and check it against :data:`CELL_SCHEMA`.

    Raises :class:`CampaignSchemaError` naming every violation: missing
    or unexpected arrays, wrong dtype kinds or ranks, shapes that
    disagree with the ``epochs`` scalar / warning-action table /
    counter column count, schema-version mismatches, non-finite or
    negative epoch times, and decision counts that do not add up to the
    observation counts.  Returns the validated arrays.
    """
    path = Path(path)
    try:
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError) as exc:
        raise CampaignSchemaError(f"{path.name}: unreadable npz ({exc})") from exc

    problems: List[str] = []
    missing = sorted(set(CELL_SCHEMA) - set(arrays))
    unexpected = sorted(set(arrays) - set(CELL_SCHEMA))
    if missing:
        problems.append(f"missing arrays: {missing}")
    if unexpected:
        problems.append(f"unexpected arrays: {unexpected}")
    for name, (kind, ndim) in CELL_SCHEMA.items():
        array = arrays.get(name)
        if array is None:
            continue
        if array.dtype.kind != kind:
            problems.append(
                f"{name}: dtype kind {array.dtype.kind!r}, expected {kind!r}"
            )
        if array.ndim != ndim:
            problems.append(f"{name}: ndim {array.ndim}, expected {ndim}")

    if not problems:
        version = int(arrays["schema_version"])
        if version != CELL_SCHEMA_VERSION:
            problems.append(
                f"schema_version {version}, expected {CELL_SCHEMA_VERSION}"
            )
        epochs = int(arrays["epochs"])
        if epochs < 1:
            problems.append(f"epochs {epochs} must be positive")
        n_actions = arrays["action_names"].shape[0]
        if tuple(arrays["action_names"]) != WARNING_ACTIONS:
            problems.append("action_names do not match WARNING_ACTIONS")
        expected_shapes = {
            "action_counts": (epochs, n_actions),
            "observations": (epochs,),
            "analyzer_invocations": (epochs,),
            "confirmed": (epochs,),
            "counter_totals": (epochs, N_COUNTERS),
            "epoch_seconds": (epochs,),
        }
        for name, shape in expected_shapes.items():
            if arrays[name].shape != shape:
                problems.append(
                    f"{name}: shape {arrays[name].shape}, expected {shape}"
                )
    if not problems:
        seconds = arrays["epoch_seconds"]
        if not np.all(np.isfinite(seconds)) or np.any(seconds < 0):
            problems.append("epoch_seconds must be finite and non-negative")
        if np.any(arrays["action_counts"] < 0):
            problems.append("action_counts must be non-negative")
        row_sums = arrays["action_counts"].sum(axis=1)
        if not np.array_equal(row_sums, arrays["observations"]):
            problems.append("action_counts rows do not sum to observations")
    if problems:
        raise CampaignSchemaError(f"{path.name}: " + "; ".join(problems))
    return arrays


# ----------------------------------------------------------------------
# Campaign scheduling
# ----------------------------------------------------------------------
def _run_cell_task(
    spec: CampaignSpec,
    cell: CampaignCell,
    campaign_dir: str,
    config: Optional[DeepDiveConfig],
    checkpoint_every: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> Dict[str, object]:
    """Module-level cell entry point (picklable for spawned workers)."""
    return run_cell(
        spec,
        cell,
        campaign_dir,
        config=config,
        checkpoint_every=checkpoint_every,
        telemetry=telemetry,
    )


class CampaignRunner:
    """Schedules a campaign's cells and tracks completion on disk.

    Parameters
    ----------
    spec:
        The grid to run.
    campaign_dir:
        Where the manifest and per-cell result files live.  Rerunning a
        runner over an existing directory resumes it: cells whose npz
        validates and whose summary exists are skipped.
    config:
        DeepDive configuration shared by every cell fleet.
    cell_processes:
        1 (default) runs cells in-process, sequentially.  Larger values
        dispatch cells to a pool of *spawned* worker processes —
        appropriate when the cells themselves are small and serial;
        combining it with ``spec.executor="process"`` multiplies worker
        pools (each cell process spawns its own region pools) and is
        rarely what one machine wants.
    checkpoint_every:
        Snapshot each running cell every this many epochs (see
        :func:`run_cell`), so an interrupted campaign resumes *mid-cell*
        rather than rerunning interrupted cells from scratch.  A runtime
        knob, not recorded in the manifest — existing campaign
        directories accept it freely.
    telemetry:
        A :class:`~repro.fleet.telemetry.TelemetryConfig` applied to
        every cell (each cell builds its own fresh registry, so each
        leaves its own ``<cell_id>.trace.json``); ``None`` defers to
        ``REPRO_FLEET_PROFILE``.  Like ``checkpoint_every``, a runtime
        knob that never enters the manifest — cell results are
        bit-identical with or without it.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        campaign_dir: Union[str, Path],
        config: Optional[DeepDiveConfig] = None,
        cell_processes: int = 1,
        checkpoint_every: Optional[int] = None,
        telemetry: Optional[TelemetryConfig] = None,
    ) -> None:
        if cell_processes < 1:
            raise ValueError("cell_processes must be at least 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if telemetry is not None and not isinstance(telemetry, TelemetryConfig):
            raise TypeError(
                "CampaignRunner telemetry must be a TelemetryConfig (each "
                "cell builds its own registry), got "
                f"{type(telemetry).__name__}"
            )
        self.spec = spec
        self.campaign_dir = Path(campaign_dir)
        self.config = config
        self.cell_processes = cell_processes
        self.checkpoint_every = checkpoint_every
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def cell_complete(self, cell: CampaignCell) -> bool:
        """Whether a cell's result files exist and validate."""
        npz = self.campaign_dir / f"{cell.cell_id}.npz"
        summary = self.campaign_dir / f"{cell.cell_id}.summary.json"
        if not npz.exists() or not summary.exists():
            return False
        try:
            validate_cell_npz(npz)
            json.loads(summary.read_text())
        except (CampaignSchemaError, json.JSONDecodeError):
            return False
        return True

    def _write_manifest(self) -> None:
        manifest = self.spec.manifest()
        manifest["created_unix"] = time.time()
        path = self.campaign_dir / "manifest.json"
        if path.exists():
            existing = json.loads(path.read_text())
            stale = {
                key: existing.get(key)
                for key in ("name", "base", "axes")
            }
            fresh = {key: manifest[key] for key in ("name", "base", "axes")}
            if json.loads(json.dumps(stale)) != json.loads(json.dumps(fresh)):
                raise ValueError(
                    f"campaign directory {self.campaign_dir} already holds a "
                    "different campaign; refusing to mix result files"
                )
            return
        _atomic_write_bytes(
            path, json.dumps(manifest, indent=2, sort_keys=True).encode()
        )

    def run(self, resume: bool = True) -> List[Dict[str, object]]:
        """Run (or resume) the whole grid; returns cell summaries in
        cell-index order.

        With ``resume=True`` (default) completed cells — result files
        present and schema-valid — are loaded from disk instead of
        rerun, so an interrupted campaign picks up where it stopped and
        a finished one is a cheap no-op.  ``resume=False`` reruns every
        cell in place.
        """
        self.campaign_dir.mkdir(parents=True, exist_ok=True)
        self._write_manifest()
        cells = self.spec.cells()
        pending = [
            cell
            for cell in cells
            if not (resume and self.cell_complete(cell))
        ]
        if pending and self.cell_processes > 1:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(
                max_workers=min(self.cell_processes, len(pending)),
                mp_context=context,
            ) as pool:
                futures = [
                    pool.submit(
                        _run_cell_task,
                        self.spec,
                        cell,
                        str(self.campaign_dir),
                        self.config,
                        self.checkpoint_every,
                        self.telemetry,
                    )
                    for cell in pending
                ]
                for future in futures:
                    future.result()
        else:
            for cell in pending:
                run_cell(
                    self.spec,
                    cell,
                    self.campaign_dir,
                    config=self.config,
                    checkpoint_every=self.checkpoint_every,
                    telemetry=self.telemetry,
                )
        summaries: List[Dict[str, object]] = []
        for cell in cells:
            path = self.campaign_dir / f"{cell.cell_id}.summary.json"
            summaries.append(json.loads(path.read_text()))
        return summaries
