"""Shared-memory columnar transport for the process shard executor.

The process strategy's epoch exchange used to pickle every decision
array and counter block through the worker pools' result pipes — cheap
per byte, but the serialisation plus chunked pipe transfer made the
single-worker process executor measurably *slower* than the serial loop
(``fleet_process_2k/10k`` in ``BENCH_fleet.json``).  This module moves
the bulk payload into :mod:`multiprocessing.shared_memory`:

* Each worker owns a **double-buffered pair of shared segments**, sized
  from its shards' VM counts (plus slack for churn).  Every epoch the
  worker writes its shards' decision arrays — action codes,
  distances, sibling counts, analyzed/confirmed flags — and the
  per-shard ``N_COUNTERS`` counter-total rows into the buffer whose turn
  it is, alternating buffers epoch over epoch.
* Only a tiny :class:`ShmEpochDescriptor` (epoch, buffer index, segment
  name, per-shard row offsets/lengths, VM-name tables when the placement
  changed) crosses the pool pipe.  The parent attaches the named
  segments once and reads NumPy views straight off them.
* **Regrow handshake:** when churn grows a worker's shards past a
  buffer's capacity, the worker allocates a larger segment and the next
  descriptor names it; the parent remaps that buffer and closes+unlinks
  the replaced segment.  No pause, no renegotiation round trip.

Synchronisation is implicit in the epoch protocol: the parent drives
epochs synchronously, so the worker never rewrites a buffer until the
parent has submitted (at least) the next epoch.  Double buffering
therefore gives parent-side views a documented validity window — the
arrays of epoch ``e`` stay intact until the worker writes epoch
``e + 2``.  Callers that hold a report across epochs must copy it
(``ColumnarFleetReport.copy``), as ``Fleet.run`` does for the reports it
buffers and ``FleetRunSummary`` for its final report.

Cleanup is owned by the parent, which always learns every live segment
name from the descriptors: :meth:`ShmBlockReader.close` (called from
``ProcessShardExecutor.shutdown`` and from a ``weakref.finalize`` at
interpreter exit) closes and **unlinks** every attached segment, so no
``/dev/shm`` entries outlive the run even when workers were killed.  A
worker that dies between creating a segment and shipping its descriptor
leaves a name no descriptor ever taught the parent; because segment
names embed the worker's pid, the executor's failure paths sweep those
orphans with :func:`unlink_worker_segments` (the
:mod:`multiprocessing` resource tracker remains the last-resort
backstop at interpreter exit for crashes of the parent itself).
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.batch import N_COUNTERS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.executor import ColumnarShardReport

#: Every segment name starts with this, so tests and CI can assert that
#: a finished run left nothing behind in ``/dev/shm``.
SEGMENT_PREFIX = "repro-fleet"

#: Default capacity slack: a new segment fits the current row count plus
#: ``max(min_slack_rows, slack_fraction * rows)`` so steady churn does
#: not regrow every epoch.
DEFAULT_SLACK_FRACTION = 0.25
DEFAULT_MIN_SLACK_ROWS = 64


def _segment_name(buffer_index: int, generation: int) -> str:
    return (
        f"{SEGMENT_PREFIX}-{os.getpid()}-b{buffer_index}"
        f"-g{generation}-{secrets.token_hex(4)}"
    )


def unlink_worker_segments(pid: int, skip: Sequence[str] = ()) -> List[str]:
    """Unlink every transport segment a worker process left behind.

    Segment names embed the creating worker's pid
    (:func:`_segment_name`), so the parent can sweep a dead worker's
    orphans by name alone — covering the regrow race where the worker
    died *between* allocating a new-generation segment and the parent
    remapping it, which previously only the resource tracker reclaimed
    at interpreter exit.  ``skip`` protects names the parent's readers
    already own (their unlink belongs to :meth:`ShmBlockReader.close`).
    Unlinking only removes the ``/dev/shm`` name: existing mappings
    (the parent's attached views, a not-yet-dead worker's buffers) stay
    valid until their owners drop them.  Returns the unlinked names.
    """
    prefix = f"{SEGMENT_PREFIX}-{pid}-"
    skipped = set(skip)
    removed: List[str] = []
    for name in leaked_segments():
        if not name.startswith(prefix) or name in skipped:
            continue
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):  # pragma: no cover - raced
            continue
        _release_segment(segment)
        removed.append(name)
    return removed


def leaked_segments() -> List[str]:
    """Names of fleet transport segments currently present in /dev/shm.

    Empty after every clean or killed-worker run; non-empty means a
    cleanup bug (asserted by the tests and the CI bench-smoke leg).  On
    platforms without a /dev/shm filesystem the probe returns [].
    """
    shm_dir = "/dev/shm"
    try:
        entries = os.listdir(shm_dir)
    except OSError:
        return []
    return sorted(name for name in entries if name.startswith(SEGMENT_PREFIX))


@dataclass(frozen=True)
class BlockLayout:
    """Byte layout of one columnar buffer.

    Arrays are laid out back to back in descending alignment order
    (float64 first, single-byte flags last), so every view is naturally
    aligned without padding.  ``capacity_rows`` bounds the total
    observation rows across the worker's shards; the ``n_shards``
    counter-total rows are a fixed block (shard groups never change
    membership mid-run).
    """

    capacity_rows: int
    n_shards: int

    @property
    def nbytes(self) -> int:
        # distances f8 + 2x siblings i4 + action i1 + 2x flag bool = 19
        return 19 * self.capacity_rows + 8 * self.n_shards * N_COUNTERS

    def views(self, buf: memoryview) -> Dict[str, np.ndarray]:
        """Named array views over ``buf`` (shared by writer and reader)."""
        rows, shards = self.capacity_rows, self.n_shards
        out: Dict[str, np.ndarray] = {}
        offset = 0
        out["distances"] = np.ndarray(
            (rows,), dtype=np.float64, buffer=buf, offset=offset
        )
        offset += 8 * rows
        out["counter_totals"] = np.ndarray(
            (shards, N_COUNTERS), dtype=np.float64, buffer=buf, offset=offset
        )
        offset += 8 * shards * N_COUNTERS
        out["siblings_consulted"] = np.ndarray(
            (rows,), dtype=np.int32, buffer=buf, offset=offset
        )
        offset += 4 * rows
        out["siblings_agreeing"] = np.ndarray(
            (rows,), dtype=np.int32, buffer=buf, offset=offset
        )
        offset += 4 * rows
        out["action_codes"] = np.ndarray(
            (rows,), dtype=np.int8, buffer=buf, offset=offset
        )
        offset += rows
        out["analyzed"] = np.ndarray(
            (rows,), dtype=np.bool_, buffer=buf, offset=offset
        )
        offset += rows
        out["confirmed"] = np.ndarray(
            (rows,), dtype=np.bool_, buffer=buf, offset=offset
        )
        return out


@dataclass(frozen=True)
class ShardSlot:
    """One shard's rows inside an epoch buffer.

    ``counter_totals`` rows are indexed by the slot's position in the
    descriptor (worker shard order is stable for the whole run).
    ``vm_names`` is ``None`` when the shard's VM set is unchanged since
    the previously shipped epoch — the parent rehydrates from its cache.
    """

    shard_id: str
    start: int
    rows: int
    has_counters: bool
    vm_names: Optional[Tuple[str, ...]]


@dataclass(frozen=True)
class ShmEpochDescriptor:
    """The only per-epoch payload that crosses the pool pipe.

    Names the buffer (and, after a regrow, the fresh segment) holding
    the epoch's columnar results, plus per-shard row extents.

    ``spans`` carries the worker's drained telemetry spans —
    ``(kind_code, start, duration, epoch)`` tuples from its
    :class:`~repro.fleet.telemetry.WorkerSpanBuffer` — empty whenever
    telemetry is off, so the descriptor stays descriptor-sized.
    """

    epoch: int
    buffer_index: int
    segment: str
    capacity_rows: int
    n_shards: int
    slots: Tuple[ShardSlot, ...]
    spans: Tuple[Tuple[int, float, float, int], ...] = ()


class ShmBlockWriter:
    """Worker-side double-buffered segment writer.

    Created lazily on the first epoch (by then churn may
    already have changed the shard sizes the segments are sized from).
    ``write`` alternates buffers and regrows the active buffer's segment
    when the shards outgrew it; replaced segments are closed locally and
    unlinked by the parent once the descriptor names the successor.
    """

    def __init__(
        self,
        n_shards: int,
        slack_fraction: float = DEFAULT_SLACK_FRACTION,
        min_slack_rows: int = DEFAULT_MIN_SLACK_ROWS,
    ) -> None:
        self._n_shards = n_shards
        self._slack_fraction = slack_fraction
        self._min_slack_rows = min_slack_rows
        self._segments: List[Optional[shared_memory.SharedMemory]] = [None, None]
        self._layouts: List[Optional[BlockLayout]] = [None, None]
        self._views: List[Optional[Dict[str, np.ndarray]]] = [None, None]
        self._next = 0
        self._generation = 0

    def _ensure_capacity(self, index: int, rows: int) -> None:
        layout = self._layouts[index]
        if layout is not None and layout.capacity_rows >= rows:
            return
        slack = max(self._min_slack_rows, int(rows * self._slack_fraction))
        new_layout = BlockLayout(max(rows + slack, 1), self._n_shards)
        self._generation += 1
        segment = shared_memory.SharedMemory(
            name=_segment_name(index, self._generation),
            create=True,
            size=new_layout.nbytes,
        )
        old = self._segments[index]
        if old is not None:
            # Drop the local views before closing (they hold buffer
            # exports); the *parent* unlinks the replaced segment when
            # the next descriptor names the successor.
            self._views[index] = None
            old.close()
        self._segments[index] = segment
        self._layouts[index] = new_layout
        self._views[index] = new_layout.views(segment.buf)

    def write(
        self, epoch: int, reports: Sequence["ColumnarShardReport"]
    ) -> ShmEpochDescriptor:
        """Write one epoch's shard reports in place; return the descriptor."""
        index = self._next
        self._next = 1 - self._next
        total_rows = sum(int(r.action_codes.shape[0]) for r in reports)
        self._ensure_capacity(index, total_rows)
        views = self._views[index]
        slots: List[ShardSlot] = []
        pos = 0
        for i, report in enumerate(reports):
            rows = int(report.action_codes.shape[0])
            end = pos + rows
            views["action_codes"][pos:end] = report.action_codes
            views["distances"][pos:end] = report.distances
            views["siblings_consulted"][pos:end] = report.siblings_consulted
            views["siblings_agreeing"][pos:end] = report.siblings_agreeing
            views["analyzed"][pos:end] = report.analyzed
            views["confirmed"][pos:end] = report.confirmed
            has_counters = report.counter_totals is not None
            if has_counters:
                views["counter_totals"][i] = report.counter_totals
            slots.append(
                ShardSlot(
                    shard_id=report.shard_id,
                    start=pos,
                    rows=rows,
                    has_counters=has_counters,
                    vm_names=report.vm_names,
                )
            )
            pos = end
        return ShmEpochDescriptor(
            epoch=epoch,
            buffer_index=index,
            segment=self._segments[index].name,
            capacity_rows=self._layouts[index].capacity_rows,
            n_shards=self._n_shards,
            slots=tuple(slots),
        )

    def close(self) -> None:
        """Release the worker's local segment handles (no unlink)."""
        for index in (0, 1):
            segment = self._segments[index]
            self._views[index] = None
            self._segments[index] = None
            self._layouts[index] = None
            if segment is not None:
                try:
                    segment.close()
                except BufferError:  # pragma: no cover - defensive
                    pass


def _release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink one attached segment, tolerating held views.

    If a caller still holds report views into the buffer, ``close``
    raises :class:`BufferError`; the mapping then simply stays alive
    until those arrays die, but the name is removed from ``/dev/shm``
    either way — the leak guarantee is about names, the OS frees the
    memory with the last mapping.
    """
    try:
        segment.close()
    except BufferError:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - defensive
        pass


class ShmBlockReader:
    """Parent-side attachment to one worker's double-buffered segments.

    Attaches segments as descriptors name them, remaps (and unlinks the
    predecessor) on regrow, and serves per-shard
    :class:`~repro.fleet.executor.ColumnarShardReport` views.
    """

    def __init__(self) -> None:
        self._segments: Dict[int, shared_memory.SharedMemory] = {}
        self._views: Dict[int, Dict[str, np.ndarray]] = {}
        #: Regrow handshakes served so far (telemetry reads the delta).
        self.regrows = 0

    def segment_names(self) -> List[str]:
        return sorted(s.name for s in self._segments.values())

    def read(
        self, descriptor: ShmEpochDescriptor
    ) -> List[Tuple[str, "ColumnarShardReport"]]:
        """Views of one epoch's shard reports, in worker shard order."""
        from repro.fleet.executor import ColumnarShardReport

        index = descriptor.buffer_index
        attached = self._segments.get(index)
        if attached is None or attached.name != descriptor.segment:
            segment = shared_memory.SharedMemory(name=descriptor.segment)
            if attached is not None:
                # Regrow handshake: the worker switched this buffer to a
                # larger segment; drop and unlink the replaced one.
                self._views.pop(index, None)
                _release_segment(attached)
                self.regrows += 1
            self._segments[index] = segment
            self._views[index] = BlockLayout(
                descriptor.capacity_rows, descriptor.n_shards
            ).views(segment.buf)
        views = self._views[index]
        out: List[Tuple[str, "ColumnarShardReport"]] = []
        for i, slot in enumerate(descriptor.slots):
            rows = slice(slot.start, slot.start + slot.rows)
            out.append(
                (
                    slot.shard_id,
                    ColumnarShardReport(
                        shard_id=slot.shard_id,
                        epoch=descriptor.epoch,
                        vm_names=slot.vm_names,
                        action_codes=views["action_codes"][rows],
                        distances=views["distances"][rows],
                        siblings_consulted=views["siblings_consulted"][rows],
                        siblings_agreeing=views["siblings_agreeing"][rows],
                        analyzed=views["analyzed"][rows],
                        confirmed=views["confirmed"][rows],
                        counter_totals=(
                            views["counter_totals"][i]
                            if slot.has_counters
                            else None
                        ),
                    ),
                )
            )
        return out

    def close(self) -> None:
        """Close and unlink every attached segment (idempotent)."""
        segments = list(self._segments.values())
        self._segments.clear()
        self._views.clear()
        for segment in segments:
            _release_segment(segment)


def close_readers(readers: Sequence[ShmBlockReader]) -> None:
    """Module-level cleanup hook, safe to hand to ``weakref.finalize``."""
    for reader in readers:
        reader.close()
