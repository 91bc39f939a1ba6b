"""Fleet telemetry bus: spans, counters, and exporters.

DeepDive's pitch is cheap always-on monitoring with deep dives on
demand; this module applies the same philosophy to the reproduction's
own run path.  One :class:`TelemetryRegistry` instance threads through
every execution layer (serial → process → recovery → campaign) and
provides:

* **tracing spans** — ``registry.span("simulate", epoch)`` is a
  context manager recording a monotonic start/duration pair into
  preallocated ring buffers (parallel numpy arrays, no per-span
  allocation beyond the tiny context-manager object).  Worker
  processes record into a :class:`WorkerSpanBuffer` and ship the drained
  tuples back inside the existing columnar
  :class:`~repro.fleet.shm.ShmEpochDescriptor` channel, so the pool
  pipe stays descriptor-sized; the parent folds them in with the
  worker's pid so exported traces show one track per worker.
  ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so parent and
  worker spans align on a single trace timeline.
* **counters and gauges** — a fixed counter catalog (epochs, VM-epochs,
  restarts, quarantines, shm regrows, descriptor bytes, …) updated from
  the hot loop with plain array ops via module-level index constants,
  plus a free-form gauge dict refreshed at export time (VMs, hosts,
  migrations, admission rejects).
* **exporters** — Prometheus text exposition
  (:meth:`TelemetryRegistry.render_prometheus`), Chrome ``trace_event``
  JSON (:meth:`TelemetryRegistry.export_chrome_trace`, loadable in
  Perfetto / ``chrome://tracing``), and a JSONL structured event log
  with size-based rotation (:meth:`TelemetryRegistry.log_event`).
* **profiling hooks** — telemetry is opt-in per fleet
  (``Fleet(telemetry=TelemetryConfig(...))``) or process-wide via
  ``REPRO_FLEET_PROFILE=1``; ``profile_every`` samples the deep
  per-shard spans every Nth epoch so overhead stays bounded (the
  ``fleet_telemetry_2k`` benchmark pins ≤3% enabled, ~0% off).

The registry never influences decisions: every bit-identical
equivalence property holds with telemetry off, on, or sampled
(``tests/property/test_telemetry_equivalence.py``).  Counter totals and
per-kind span aggregates survive ``Fleet.snapshot()/resume()`` as
carried totals, so Prometheus counters stay monotone across restarts.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fleet.benchutil import run_metadata

# ---------------------------------------------------------------------------
# Span taxonomy
# ---------------------------------------------------------------------------

#: Every span kind the fleet stack records, in code order.  ``epoch``
#: wraps one whole ``_step_epoch``; ``simulate``/``monitor`` split a
#: shard's hardware step from its DeepDive analysis; ``dispatch`` and
#: ``merge`` bracket the process executor's submit/gather and ordered
#: merge; ``lifecycle`` covers churn/stress application; ``snapshot``,
#: ``recovery`` and ``cell`` cover checkpointing, worker respawn
#: attempts and campaign cells.
SPAN_KINDS: Tuple[str, ...] = (
    "epoch",
    "simulate",
    "monitor",
    "dispatch",
    "merge",
    "lifecycle",
    "snapshot",
    "recovery",
    "cell",
)

_KIND_CODES: Dict[str, int] = {name: code for code, name in enumerate(SPAN_KINDS)}
_EPOCH_CODE = _KIND_CODES["epoch"]

# ---------------------------------------------------------------------------
# Counter catalog
# ---------------------------------------------------------------------------

#: Fixed counter catalog; the hot loop addresses entries through the
#: ``C_*`` index constants below (one int64 array add, no dict lookup).
COUNTER_NAMES: Tuple[str, ...] = (
    "epochs_total",
    "vm_epochs_total",
    "restarts_total",
    "quarantined_shards_total",
    "shm_regrows_total",
    "descriptor_bytes_total",
    "snapshots_total",
    "recoveries_total",
    "spans_dropped_total",
    "cells_total",
)

(
    C_EPOCHS,
    C_VM_EPOCHS,
    C_RESTARTS,
    C_QUARANTINED,
    C_SHM_REGROWS,
    C_DESCRIPTOR_BYTES,
    C_SNAPSHOTS,
    C_RECOVERIES,
    C_SPANS_DROPPED,
    C_CELLS,
) = range(len(COUNTER_NAMES))

_COUNTER_HELP: Dict[str, str] = {
    "epochs_total": "Fleet epochs completed.",
    "vm_epochs_total": "VM-epochs folded into fleet reports.",
    "restarts_total": "Worker groups recovered by a respawn.",
    "quarantined_shards_total": "Shards excluded after restart-budget exhaustion.",
    "shm_regrows_total": "Shared-memory segment regrowths seen by readers.",
    "descriptor_bytes_total": "Pickled shm descriptor bytes crossing the pool pipe.",
    "snapshots_total": "Fleet snapshots taken.",
    "recoveries_total": "Worker respawn attempts started.",
    "spans_dropped_total": "Span-ring overwrites (oldest spans evicted).",
    "cells_total": "Campaign cells executed.",
}

_METRIC_SAFE = re.compile(r"[^a-zA-Z0-9_:]")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetryConfig:
    """How much a fleet instruments itself.

    Parameters
    ----------
    enabled:
        Master switch.  ``False`` is indistinguishable from passing no
        telemetry at all — the fleet keeps no registry and the hot loop
        pays nothing.
    profile_every:
        Sampling cadence for the *deep* spans (per-shard
        simulate/monitor, lifecycle): they are recorded only on epochs
        where ``epoch % profile_every == 0``.  Coarse spans (epoch,
        dispatch, merge) and counters are always on.  ``1`` profiles
        every epoch.
    span_capacity:
        Ring-buffer capacity in spans.  When full the oldest spans are
        overwritten (counted in ``spans_dropped_total``); per-kind
        duration totals are unaffected.
    jsonl_path:
        When set, structured events (worker restarts, quarantines,
        snapshots, …) are appended to this JSONL file.
    jsonl_rotate_bytes:
        Size threshold at which the JSONL log rotates (the current file
        is renamed to ``<path>.1``, replacing any previous rotation).
    """

    enabled: bool = True
    profile_every: int = 1
    span_capacity: int = 4096
    jsonl_path: Optional[str] = None
    jsonl_rotate_bytes: int = 1_000_000

    def __post_init__(self) -> None:
        if self.profile_every < 1:
            raise ValueError("profile_every must be >= 1")
        if self.span_capacity < 1:
            raise ValueError("span_capacity must be >= 1")
        if self.jsonl_rotate_bytes < 1:
            raise ValueError("jsonl_rotate_bytes must be >= 1")

    @classmethod
    def from_env(cls) -> Optional["TelemetryConfig"]:
        """The process-wide profiling switch.

        ``REPRO_FLEET_PROFILE=1`` turns full profiling on for every
        fleet built without an explicit ``telemetry=`` argument; an
        integer value above 1 is used as the ``profile_every`` sampling
        cadence.  Unset/``0`` leaves telemetry off.
        """
        raw = os.environ.get("REPRO_FLEET_PROFILE", "").strip()
        if not raw or raw == "0":
            return None
        try:
            every = max(1, int(raw))
        except ValueError:
            every = 1
        return cls(enabled=True, profile_every=every)


# ---------------------------------------------------------------------------
# Span context managers
# ---------------------------------------------------------------------------


class _NullSpan:
    """Shared no-op span returned whenever telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_sink", "_code", "_epoch", "_start")

    def __init__(self, sink: "TelemetryRegistry", code: int, epoch: int) -> None:
        self._sink = sink
        self._code = code
        self._epoch = epoch

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        start = self._start
        self._sink._record(
            self._code, start, time.perf_counter() - start, self._epoch
        )
        return False


class _WorkerSpan:
    __slots__ = ("_sink", "_code", "_epoch", "_start")

    def __init__(self, sink: "WorkerSpanBuffer", code: int, epoch: int) -> None:
        self._sink = sink
        self._code = code
        self._epoch = epoch

    def __enter__(self) -> "_WorkerSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        start = self._start
        self._sink._records.append(
            (self._code, start, time.perf_counter() - start, self._epoch)
        )
        return False


class WorkerSpanBuffer:
    """Worker-side span sink for the process executor.

    Workers cannot share the parent registry, so they append plain
    ``(kind_code, start, duration, epoch)`` tuples here and the
    executor ships the drained batch back on the columnar descriptor;
    the parent folds them into its registry with the worker's pid
    (:meth:`TelemetryRegistry.fold_worker_spans`).
    """

    __slots__ = ("profile_every", "_records")

    def __init__(self, profile_every: int = 1) -> None:
        self.profile_every = max(1, profile_every)
        self._records: List[Tuple[int, float, float, int]] = []

    def deep(self, epoch: int) -> Optional["WorkerSpanBuffer"]:
        """``self`` when deep spans are sampled at ``epoch``, else ``None``."""
        if epoch % self.profile_every == 0:
            return self
        return None

    def span(self, kind: str, epoch: int = 0) -> _WorkerSpan:
        return _WorkerSpan(self, _KIND_CODES[kind], epoch)

    def drain(self) -> Tuple[Tuple[int, float, float, int], ...]:
        records = tuple(self._records)
        self._records.clear()
        return records


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TelemetryRegistry:
    """One fleet stack's span rings, counters, gauges and exporters.

    A single registry is shared across every layer of one run — the
    fleet hands the same instance to its executor (worker recovery
    included), so exported traces and counters describe the whole
    topology.  Recording is guarded by one
    lock (a shared registry may be written or exported from another
    thread); per-span cost is a handful of array stores.
    """

    def __init__(
        self, config: Optional[TelemetryConfig] = None
    ) -> None:
        self.config = config or TelemetryConfig()
        self.enabled = self.config.enabled
        capacity = self.config.span_capacity
        self._capacity = capacity
        self._span_kind = np.zeros(capacity, dtype=np.int8)
        self._span_start = np.zeros(capacity, dtype=np.float64)
        self._span_dur = np.zeros(capacity, dtype=np.float64)
        self._span_epoch = np.zeros(capacity, dtype=np.int64)
        self._span_pid = np.zeros(capacity, dtype=np.int64)
        self._cursor = 0
        self.counters = np.zeros(len(COUNTER_NAMES), dtype=np.int64)
        #: Carried per-kind duration/count totals (survive snapshot/resume).
        self._span_seconds = np.zeros(len(SPAN_KINDS), dtype=np.float64)
        self._span_counts = np.zeros(len(SPAN_KINDS), dtype=np.int64)
        self.gauges: Dict[str, float] = {}
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._jsonl_file = None
        #: Monotone sequence + duration of the newest ``epoch`` span —
        #: the dashboard's stall-proof rate source.
        self.epoch_span_seq = 0
        self.last_epoch_duration: Optional[float] = None

    # -- recording -----------------------------------------------------
    def inc(self, index: int, amount: int = 1) -> None:
        """Bump one catalog counter (no-op when disabled)."""
        if self.enabled:
            self.counters[index] += amount

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauges[name] = float(value)

    def deep(self, epoch: int) -> Optional["TelemetryRegistry"]:
        """``self`` when deep spans are sampled at ``epoch``, else ``None``.

        Call sites thread the return value (a registry or ``None``)
        into the per-shard path, so off-sample epochs skip even the
        ``span()`` call.
        """
        if self.enabled and epoch % self.config.profile_every == 0:
            return self
        return None

    def span(self, kind: str, epoch: int = 0) -> Union[_Span, _NullSpan]:
        """Context manager timing one ``kind`` span at ``epoch``."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, _KIND_CODES[kind], epoch)

    def _record(
        self,
        code: int,
        start: float,
        dur: float,
        epoch: int,
        pid: Optional[int] = None,
    ) -> None:
        with self._lock:
            index = self._cursor % self._capacity
            if self._cursor >= self._capacity:
                self.counters[C_SPANS_DROPPED] += 1
            self._span_kind[index] = code
            self._span_start[index] = start
            self._span_dur[index] = dur
            self._span_epoch[index] = epoch
            self._span_pid[index] = self._pid if pid is None else pid
            self._cursor += 1
            self._span_seconds[code] += dur
            self._span_counts[code] += 1
            if code == _EPOCH_CODE and pid is None:
                self.last_epoch_duration = dur
                self.epoch_span_seq += 1

    def record_span(
        self, kind: str, start: float, duration: float, epoch: int = 0
    ) -> None:
        """Record one externally timed span (e.g. a campaign cell)."""
        if self.enabled:
            self._record(_KIND_CODES[kind], start, duration, epoch)

    def fold_worker_spans(
        self,
        records: Sequence[Tuple[int, float, float, int]],
        pid: Optional[int],
    ) -> None:
        """Fold a worker's drained span tuples under its pid track."""
        if not self.enabled:
            return
        for code, start, dur, epoch in records:
            self._record(int(code), float(start), float(dur), int(epoch), pid=pid)

    # -- introspection -------------------------------------------------
    def spans(self) -> List[Dict[str, object]]:
        """The ring's surviving spans, oldest first."""
        with self._lock:
            if self._cursor > self._capacity:
                head = self._cursor % self._capacity
                order = list(range(head, self._capacity)) + list(range(head))
            else:
                order = list(range(self._cursor))
            return [
                {
                    "kind": SPAN_KINDS[self._span_kind[i]],
                    "start": float(self._span_start[i]),
                    "duration": float(self._span_dur[i]),
                    "epoch": int(self._span_epoch[i]),
                    "pid": int(self._span_pid[i]),
                }
                for i in order
            ]

    def counter(self, name: str) -> int:
        return int(self.counters[COUNTER_NAMES.index(name)])

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-kind carried totals: ``{kind: {seconds, count}}``."""
        return {
            kind: {
                "seconds": float(self._span_seconds[code]),
                "count": int(self._span_counts[code]),
            }
            for code, kind in enumerate(SPAN_KINDS)
        }

    # -- exporters -----------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of the registry."""
        lines: List[str] = []
        for index, name in enumerate(COUNTER_NAMES):
            metric = f"fleet_{name}"
            lines.append(f"# HELP {metric} {_COUNTER_HELP[name]}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {int(self.counters[index])}")
        lines.append(
            "# HELP fleet_span_seconds_total Cumulative span duration by kind."
        )
        lines.append("# TYPE fleet_span_seconds_total counter")
        for code, kind in enumerate(SPAN_KINDS):
            lines.append(
                f'fleet_span_seconds_total{{kind="{_escape_label(kind)}"}} '
                f"{float(self._span_seconds[code]):.9f}"
            )
        lines.append("# HELP fleet_spans_total Cumulative span count by kind.")
        lines.append("# TYPE fleet_spans_total counter")
        for code, kind in enumerate(SPAN_KINDS):
            lines.append(
                f'fleet_spans_total{{kind="{_escape_label(kind)}"}} '
                f"{int(self._span_counts[code])}"
            )
        for name in sorted(self.gauges):
            metric = "fleet_" + _METRIC_SAFE.sub("_", name)
            lines.append(f"# TYPE {metric} gauge")
            value = self.gauges[name]
            rendered = repr(float(value)) if value != int(value) else str(int(value))
            lines.append(f"{metric} {rendered}")
        return "\n".join(lines) + "\n"

    def export_chrome_trace(self, path: Union[str, Path]) -> Path:
        """Write the span rings as Chrome ``trace_event`` JSON.

        Load the file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``: each recording process is one track row
        (the parent plus one per worker pid), spans are complete
        ``"X"`` events with microsecond timestamps on the shared
        CLOCK_MONOTONIC timeline, and the epoch number rides in
        ``args``.
        """
        events: List[Dict[str, object]] = []
        pids = set()
        for record in self.spans():
            pid = record["pid"]
            pids.add(pid)
            events.append(
                {
                    "name": record["kind"],
                    "cat": "fleet",
                    "ph": "X",
                    "ts": record["start"] * 1e6,
                    "dur": record["duration"] * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": {"epoch": record["epoch"]},
                }
            )
        for pid in sorted(pids):
            label = "fleet parent" if pid == self._pid else f"fleet worker {pid}"
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": pid,
                    "args": {"name": label},
                }
            )
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": run_metadata(),
        }
        path = Path(path)
        path.write_text(json.dumps(payload) + "\n")
        return path

    # -- structured event log ------------------------------------------
    def log_event(self, event: str, **fields: object) -> None:
        """Append one structured event to the JSONL log (if configured)."""
        if not self.enabled or self.config.jsonl_path is None:
            return
        record = {"event": event, "time_unix": time.time(), **fields}
        line = json.dumps(record) + "\n"
        with self._lock:
            stream = self._jsonl_file
            if stream is None:
                stream = self._jsonl_file = open(  # noqa: SIM115 - long-lived
                    self.config.jsonl_path, "a", encoding="utf-8"
                )
            stream.write(line)
            stream.flush()
            if stream.tell() >= self.config.jsonl_rotate_bytes:
                self._rotate_jsonl()

    def _rotate_jsonl(self) -> None:
        stream = self._jsonl_file
        if stream is not None:
            stream.close()
            self._jsonl_file = None
        path = self.config.jsonl_path
        if path and os.path.exists(path):
            os.replace(path, f"{path}.1")

    def close(self) -> None:
        """Flush and close the JSONL stream (idempotent)."""
        with self._lock:
            if self._jsonl_file is not None:
                self._jsonl_file.close()
                self._jsonl_file = None

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Carried totals for snapshot payloads (name-keyed, additive)."""
        return {
            "counters": {
                name: int(self.counters[index])
                for index, name in enumerate(COUNTER_NAMES)
            },
            "span_seconds": {
                kind: float(self._span_seconds[code])
                for code, kind in enumerate(SPAN_KINDS)
            },
            "span_counts": {
                kind: int(self._span_counts[code])
                for code, kind in enumerate(SPAN_KINDS)
            },
            "gauges": dict(self.gauges),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Fold a snapshot's carried totals into this registry.

        Totals are *added* (keyed by name, so the catalog can grow
        between versions): a resumed fleet's Prometheus counters
        continue monotonically from the snapshot instead of resetting.
        """
        for name, value in dict(state.get("counters", {})).items():
            if name in COUNTER_NAMES:
                self.counters[COUNTER_NAMES.index(name)] += int(value)
        for kind, value in dict(state.get("span_seconds", {})).items():
            if kind in _KIND_CODES:
                self._span_seconds[_KIND_CODES[kind]] += float(value)
        for kind, value in dict(state.get("span_counts", {})).items():
            if kind in _KIND_CODES:
                self._span_counts[_KIND_CODES[kind]] += int(value)
        self.gauges.update(dict(state.get("gauges", {})))

    # -- pickling ------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_jsonl_file"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._jsonl_file = None


def _escape_label(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def resolve_telemetry(
    telemetry: Union[TelemetryConfig, TelemetryRegistry, None],
) -> Optional[TelemetryRegistry]:
    """Normalize a fleet's ``telemetry=`` argument into a live registry.

    ``None`` falls back to the ``REPRO_FLEET_PROFILE`` environment
    switch; a :class:`TelemetryConfig` builds a fresh registry; an
    existing :class:`TelemetryRegistry` is shared as-is (how a
    campaign cell hands its bus to the cell fleet).  Disabled configs
    resolve to ``None`` so the hot loop pays exactly nothing.
    """
    if telemetry is None:
        telemetry = TelemetryConfig.from_env()
        if telemetry is None:
            return None
    if isinstance(telemetry, TelemetryRegistry):
        return telemetry if telemetry.enabled else None
    if isinstance(telemetry, TelemetryConfig):
        return TelemetryRegistry(telemetry) if telemetry.enabled else None
    raise TypeError(
        "telemetry must be a TelemetryConfig, TelemetryRegistry or None, "
        f"got {type(telemetry).__name__}"
    )


__all__ = [
    "SPAN_KINDS",
    "COUNTER_NAMES",
    "TelemetryConfig",
    "TelemetryRegistry",
    "WorkerSpanBuffer",
    "resolve_telemetry",
]
