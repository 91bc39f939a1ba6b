"""Lazy columnar counter store: ring-buffered per-host telemetry.

The monitoring loop only ever consumes *windows* of recent counter
samples, yet the original epoch edge materialised one
:class:`~repro.metrics.counters.CounterSample` per VM per epoch just to
feed ``Host.counter_history`` — the last per-VM Python work in an
otherwise columnar pipeline.  This module removes it:

* :class:`HostCounterStore` holds one preallocated per-host **ring
  buffer** of shape ``(capacity, n_vms, len(COUNTER_NAMES))``.  A batch
  epoch ingests its raw counter block with a single array assignment —
  no sample objects, no per-VM dicts, no list appends.
* ``Host.counter_history`` stays available as a lazy mapping
  (:class:`CounterHistoryView` / :class:`LazyCounterHistory`) that
  materialises ``CounterSample`` objects only when a scalar path, a
  report or an example actually indexes it.
* Window consumers (``Cluster.counter_window_view``, the fleet
  executor's counter totals) read window slices straight from the ring.

Equivalence contract
--------------------
The lazy store is a pure optimisation of the eager per-VM history:

* Materialised samples are bit-identical to the eagerly constructed
  ones — the ring stores the exact float64 block values the eager path
  would have fed ``CounterSample(*row)``.
* History lengths replicate the eager path's **amortised trim** exactly
  (:func:`trimmed_length`): with ``history_limit = L`` a history grows
  to ``2 L`` entries and is cut back to the most recent ``L``, so the
  ring capacity is ``2 L`` rows and the logical length follows the same
  sawtooth.
* Scalar-substrate hosts never produce counter blocks; their histories
  live as plain per-VM sample lists inside the store, exactly as
  before (object identity included).

Mid-run placement changes (the grow/shrink path)
------------------------------------------------
The ring is sized to the VM set of the segment it serves, **not** to a
construction-time ``n_vms``: when VMs register after construction the
store resizes the ring in place instead of silently mis-sizing (or
paying a full flush).  A VM *appended* to the name tuple (an arrival,
or a migration target) grows the ring's VM axis — existing columns,
ring contents and ``trimmed_length`` phases are preserved, and the new
VM's history simply begins at the epoch it joined.  VMs *removed* from
the tuple (a departure or migration source) shrink the ring after
copying just their own column into their retained history.  A host
that loses and gains VMs in the same epoch shrinks to the staying VMs
and grows by the arrivals in one copy of the ring; an add plus a remove
no longer flushes.  Only a reordering, or a new tuple that keeps none
of the ring's VMs, falls back to the full flush-and-restart.  Flushed
and departed VMs keep their ring rows as a :class:`RetainedHistory`,
which builds samples only when they are read.  Lifecycle churn
therefore keeps the single-array ingest hot path;
``tests/metrics/test_counter_store.py`` pins the grow/shrink semantics
against the eager reference.

``tests/property/test_lazy_history_equivalence.py`` pins the contract
fleet-wide; ``tests/metrics/test_counter_store.py`` pins it at the
store level.

A store constructed with ``lazy=False`` keeps the ring (window reads
stay columnar) but *additionally* materialises every epoch's samples
eagerly — the reference implementation the equivalence tests and the
``fleet_epoch_edge`` benchmark compare against.

Lazy materialisation is uncached: indexing the same ring entry twice
constructs two (equal) ``CounterSample`` objects.  That is the right
trade for the batch monitoring engine, which reads windows columnar and
touches samples only for warned VMs — but a deployment that runs the
*scalar* DeepDive engine every epoch re-materialises each VM's
smoothing window per epoch, paying more than the eager path did.  Such
setups should pass ``history_mode="eager"`` (the scalar engine is the
reference/benchmark path, so this is not the fleet configuration).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.metrics.counters import COUNTER_NAMES, N_COUNTERS, CounterSample

#: Initial ring capacity (epochs) for stores without a history limit;
#: the buffer doubles when full, so appends stay amortised O(1).
_UNLIMITED_INITIAL_CAPACITY = 64


def trimmed_length(total: int, limit: Optional[int]) -> int:
    """History length after ``total`` appends under the amortised trim.

    The eager path appends one sample per epoch and, whenever a history
    exceeds ``2 * limit`` entries, cuts it back to the most recent
    ``limit`` — so the observable length follows a sawtooth between
    ``limit`` and ``2 * limit``.  This closed form replays that
    recurrence so the lazy store reports identical lengths without
    performing any per-epoch work.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if limit is None or total <= 2 * limit:
        return total
    return limit + (total - 2 * limit - 1) % (limit + 1)


def _is_subsequence(needle: Tuple[str, ...], haystack: Tuple[str, ...]) -> bool:
    """Whether ``needle`` is ``haystack`` with some elements removed
    (relative order preserved) — the shape of a pure VM departure."""
    it = iter(haystack)
    return all(name in it for name in needle)


def sample_row(sample: CounterSample) -> np.ndarray:
    """One sample's counters as a ``(len(COUNTER_NAMES),)`` float row."""
    return np.array(
        [getattr(sample, name) for name in COUNTER_NAMES], dtype=float
    )


class RetainedHistory(Sequence):
    """A VM's history after its ring segment ended, read on demand.

    ``head`` holds samples from before the segment; ``rows`` and ``eps``
    are the copied ring rows and epoch lengths that follow them.  A row
    becomes a :class:`CounterSample` only when indexed (uncached, like
    the ring's own reads), so a departure costs one array copy, not one
    sample object per retained epoch.  Slices return plain lists.
    """

    __slots__ = ("head", "rows", "eps")

    def __init__(
        self, head: List[CounterSample], rows: np.ndarray, eps: np.ndarray
    ) -> None:
        self.head = head
        self.rows = rows
        self.eps = eps

    def __len__(self) -> int:
        return len(self.head) + len(self.eps)

    def __getitem__(self, index):
        length = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(length))]
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"history index {index} out of range ({length} epochs)")
        k = index - len(self.head)
        if k < 0:
            return self.head[index]
        return CounterSample(*self.rows[k].tolist(), epoch_seconds=float(self.eps[k]))


class HostCounterStore:
    """Per-host counter telemetry: a columnar ring plus lazy histories.

    Parameters
    ----------
    history_limit:
        When set, per-VM histories follow the amortised trim to the last
        ``history_limit`` epochs (ring capacity ``2 * history_limit``
        rows — constant memory for arbitrarily long runs).  ``None``
        retains everything (the ring grows geometrically).
    lazy:
        ``True`` (default) materialises ``CounterSample`` objects only
        on access.  ``False`` is the eager reference mode: every
        ingested epoch is materialised into per-VM sample lists
        immediately (the pre-ring behaviour), while the ring is still
        maintained for columnar window reads.
    """

    def __init__(
        self, history_limit: Optional[int] = None, lazy: bool = True
    ) -> None:
        if history_limit is not None and history_limit < 1:
            raise ValueError("history_limit must be positive")
        self.history_limit = history_limit
        self.lazy = lazy
        #: Per-VM samples: the whole history for VMs not in the live
        #: ring (scalar appends, eager mode, and — as a
        #: :class:`RetainedHistory` — flushed ring segments); only the
        #: pre-ring tail for live lazy-ring VMs.
        self._prefix: Dict[str, Sequence[CounterSample]] = {}
        # --- live ring segment (one per stable VM-name tuple) ---
        self._ring_names: Optional[Tuple[str, ...]] = None
        self._ring_index: Dict[str, int] = {}
        #: Logical history length per ring VM at the epoch it joined.
        self._ring_base: Dict[str, int] = {}
        #: Ring epoch (0-based within the segment) each VM joined at —
        #: 0 for founding members, ``_appended`` at join time for VMs
        #: added through the grow path.
        self._ring_start: Dict[str, int] = {}
        #: Largest join epoch among the current ring VMs (0 when every
        #: VM founded the segment); gates the columnar window fast path.
        self._ring_max_start = 0
        #: True when every ring VM joined at epoch 0 with no history
        #: (lets the window fast path validate a short window in O(1)).
        self._ring_all_new = False
        self._ring_data: Optional[np.ndarray] = None
        self._ring_eps: Optional[np.ndarray] = None
        #: Epochs ingested since the ring segment started (monotonic;
        #: the physical row of epoch ``j`` is ``j % capacity``).
        self._appended = 0

    # ------------------------------------------------------------------
    # Mapping facade
    # ------------------------------------------------------------------
    @property
    def histories(self) -> "CounterHistoryView":
        """Read-only mapping ``vm name -> lazy sample sequence``."""
        return CounterHistoryView(self)

    def ensure(self, name: str) -> None:
        """Register a VM (idempotent); histories survive re-placement."""
        self._prefix.setdefault(name, [])

    def __contains__(self, name: str) -> bool:
        return name in self._prefix

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def ingest(
        self, names: Tuple[str, ...], block: np.ndarray, epoch_seconds: float
    ) -> None:
        """Record one batch epoch: ``block[i]`` belongs to ``names[i]``.

        The hot path of the store — one array assignment into the ring
        (plus, in eager mode, the reference per-VM materialisation).
        A change in the VM-name tuple resizes the ring in place when the
        new tuple is the staying VMs in ring order followed by arrivals:
        departures shrink the ring, then arrivals grow it.  Any other
        change (a reordering, a VM set with no VM staying) flushes the
        previous ring segment into the per-VM histories first.
        """
        if names != self._ring_names:
            old = self._ring_names
            # ``names`` = the staying VMs in ring order, then arrivals.
            index = self._ring_index
            k = 0
            if old is not None:
                while k < len(names) and names[k] in index:
                    k += 1
            kept = names[:k]
            if (
                old is None
                or self._appended == 0
                or not kept
                or any(name in index for name in names[k:])
                or not _is_subsequence(kept, old)
            ):
                self.flush()
                self._start_ring(names, int(block.shape[0]))
            else:
                self._resize_vms(kept, names)
        data = self._ring_data
        cap = data.shape[0]
        if self._appended >= cap:
            if self.history_limit is None:
                data = self._grow()
                cap = data.shape[0]
        pos = self._appended % cap
        data[pos] = block
        self._ring_eps[pos] = epoch_seconds
        self._appended += 1
        if not self.lazy:
            for name, row in zip(names, block.tolist()):
                history = self._prefix[name]
                history.append(
                    CounterSample(*row, epoch_seconds=epoch_seconds)
                )
                self._trim(history)

    def append_samples(self, samples: Dict[str, CounterSample]) -> None:
        """Record one scalar epoch (already materialised samples).

        A scalar epoch would leave a gap in the ring, so any live ring
        segment is flushed first — the window fast path then falls back
        cleanly, exactly like the previous columnar record did.
        """
        self.flush()
        for name, sample in samples.items():
            self.ensure(name)
            history = self._prefix[name]
            if type(history) is not list:
                history = self._prefix[name] = list(history)
            history.append(sample)
            self._trim(history)

    def flush(self) -> None:
        """Move the live ring segment into the per-VM histories.

        Called on placement changes and scalar epochs; afterwards every
        VM's history holds exactly its logical (trimmed) epochs, so the
        lazy and eager representations coincide again.
        """
        names = self._ring_names
        if names is None:
            return
        if self.lazy and self._appended:
            for name in names:
                self._flush_vm(name)
        self._ring_names = None
        self._ring_index = {}
        self._ring_base = {}
        self._ring_start = {}
        self._ring_max_start = 0
        self._ring_all_new = False
        self._ring_data = None
        self._ring_eps = None
        self._appended = 0

    def _flush_vm(self, name: str) -> None:
        """Move one ring VM's live epochs into its retained history.

        After the call ``self._prefix[name]`` holds exactly the VM's
        logical (trimmed) history: the live part of its previous prefix
        followed by a copy of its live ring rows, which become samples
        only when read (:class:`RetainedHistory`).  The caller is
        responsible for taking the VM out of the ring bookkeeping.
        Eager stores already keep the prefix lists current, so this is
        lazy-only work.
        """
        if not self.lazy:
            return
        a = self._appended
        length = self.length(name)
        live_ring = min(length, a - self._ring_start[name])
        live_prefix = length - live_ring
        prefix = self._prefix[name]
        kept = prefix[len(prefix) - live_prefix:] if live_prefix else []
        slots = np.arange(a - live_ring, a) % self._ring_data.shape[0]
        self._prefix[name] = RetainedHistory(
            kept,
            self._ring_data[slots, self._ring_index[name]],
            self._ring_eps[slots],
        )

    def _start_ring(self, names: Tuple[str, ...], n_vms: int) -> None:
        limit = self.history_limit
        capacity = 2 * limit if limit is not None else _UNLIMITED_INITIAL_CAPACITY
        self._ring_names = tuple(names)
        self._ring_index = {name: i for i, name in enumerate(names)}
        base: Dict[str, int] = {}
        for name in names:
            self.ensure(name)
            base[name] = len(self._prefix[name])
        self._ring_base = base
        self._ring_start = {name: 0 for name in names}
        self._ring_max_start = 0
        self._ring_all_new = all(value == 0 for value in base.values())
        self._ring_data = np.empty((capacity, n_vms, N_COUNTERS), dtype=float)
        self._ring_eps = np.empty(capacity, dtype=float)
        self._appended = 0

    def _resize_vms(self, kept: Tuple[str, ...], names: Tuple[str, ...]) -> None:
        """Resize the ring's VM axis in place for a lifecycle change.

        ``kept`` are the staying VMs (a subsequence of the ring's, in
        ring order) and ``names`` is ``kept`` followed by the arrivals.
        Each departed VM's column moves into its retained history first
        (histories survive departure, as with a full flush).  The
        staying VMs' ring contents, ``trimmed_length`` phases and window
        reads carry over untouched, in one copy of the ring.  The
        arrivals' histories begin at the current epoch, recorded in
        ``_ring_start`` so lengths and window folds never read rows from
        before they joined.
        """
        old = self._ring_names
        if len(kept) < len(old):
            staying = set(kept)
            for name in old:
                if name not in staying:
                    self._flush_vm(name)
                    del self._ring_base[name]
                    del self._ring_start[name]
        old_data = self._ring_data
        data = np.empty((old_data.shape[0], len(names), N_COUNTERS), dtype=float)
        if kept == old:
            data[:, : len(kept)] = old_data
        else:
            data[:, : len(kept)] = old_data[:, [self._ring_index[n] for n in kept]]
        self._ring_data = data
        for name in names[len(kept):]:
            self.ensure(name)
            self._ring_base[name] = len(self._prefix[name])
            self._ring_start[name] = self._appended
        self._ring_names = tuple(names)
        self._ring_index = {name: i for i, name in enumerate(names)}
        self._ring_max_start = max(self._ring_start.values())
        self._ring_all_new = all(
            self._ring_start[n] == 0 and self._ring_base[n] == 0 for n in names
        )

    def _grow(self) -> np.ndarray:
        """Double an unlimited ring's capacity (amortised O(1) ingest)."""
        old_data, old_eps = self._ring_data, self._ring_eps
        capacity = old_data.shape[0]
        data = np.empty(
            (2 * capacity, old_data.shape[1], N_COUNTERS), dtype=float
        )
        eps = np.empty(2 * capacity, dtype=float)
        data[:capacity] = old_data
        eps[:capacity] = old_eps
        self._ring_data = data
        self._ring_eps = eps
        return data

    def _trim(self, history: List[CounterSample]) -> None:
        """The eager path's amortised trim (no-op without a limit)."""
        limit = self.history_limit
        if limit is not None and len(history) > 2 * limit:
            del history[: len(history) - limit]

    # ------------------------------------------------------------------
    # Per-VM reads (lazy materialisation)
    # ------------------------------------------------------------------
    def _in_lazy_ring(self, name: str) -> bool:
        return (
            self.lazy
            and self._ring_names is not None
            and name in self._ring_index
        )

    def length(self, name: str) -> int:
        """Logical history length of ``name`` (eager-trim semantics)."""
        prefix = self._prefix.get(name)
        if prefix is None:
            raise KeyError(name)
        if self._in_lazy_ring(name):
            appended = self._appended - self._ring_start[name]
            return trimmed_length(
                self._ring_base[name] + appended, self.history_limit
            )
        return len(prefix)

    def sample_at(self, name: str, index: int) -> CounterSample:
        """Materialise entry ``index`` (0-based, already normalised)."""
        if not self._in_lazy_ring(name):
            return self._prefix[name][index]
        length = self.length(name)
        a = self._appended
        live_ring = min(length, a - self._ring_start[name])
        live_prefix = length - live_ring
        if index < live_prefix:
            prefix = self._prefix[name]
            return prefix[len(prefix) - live_prefix + index]
        j = (a - live_ring) + (index - live_prefix)
        pos = j % self._ring_data.shape[0]
        return CounterSample(
            *self._ring_data[pos, self._ring_index[name]].tolist(),
            epoch_seconds=float(self._ring_eps[pos]),
        )

    def latest_sample(self, name: str) -> Optional[CounterSample]:
        """Newest sample of ``name``, or None before its first epoch."""
        if name not in self._prefix:
            return None
        length = self.length(name)
        if length == 0:
            return None
        return self.sample_at(name, length - 1)

    # ------------------------------------------------------------------
    # Columnar window reads
    # ------------------------------------------------------------------
    def window_view(
        self, window: int, current_names: Tuple[str, ...], current_epoch: int
    ) -> Optional[Tuple[Tuple[str, ...], np.ndarray, np.ndarray]]:
        """``(names, latest, window_sum)`` blocks straight from the ring.

        Returns ``None`` when the ring cannot serve the window exactly
        as the per-sample assembly would — the VM set changed since the
        segment started in a way the grow/shrink path could not absorb,
        a ``history_limit`` shorter than the window trims the sample
        windows, or some VM is younger than the window (unless the
        segment covers the host's entire life).  The window sum is a
        left fold in epoch order, bit-identical to ``aggregate_samples``
        over the materialised samples.
        """
        if self._ring_names is None or self._ring_names != current_names:
            return None
        a = self._appended
        if a == 0:
            return None
        limit = self.history_limit
        if limit is not None and window > limit:
            return None
        if a - self._ring_max_start >= window:
            k = window
        elif a == current_epoch and self._ring_all_new:
            # The segment (and every VM's history) covers the host's
            # entire life, so a short window is simply all of it.
            k = a
        else:
            return None
        data = self._ring_data
        cap = data.shape[0]
        first = a - k
        acc = data[first % cap]
        for j in range(first + 1, a):
            acc = acc + data[j % cap]
        latest = data[(a - 1) % cap]
        return self._ring_names, latest, acc

    def vm_window_fold(
        self, name: str, window: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(window_sum_row, latest_row)`` for one VM's last ``window``.

        The per-VM fallback of the columnar window view: rows come
        straight from the ring where the epochs live there, and from the
        materialised samples otherwise, left-folded in epoch order —
        bit-identical to aggregating the materialised sample window.
        Returns ``None`` for a VM with no recorded epochs.
        """
        length = self.length(name)
        if length == 0:
            return None
        k = min(window, length)
        start = length - k
        rows: List[np.ndarray] = []
        if self._in_lazy_ring(name):
            a = self._appended
            live_ring = min(length, a - self._ring_start[name])
            live_prefix = length - live_ring
            prefix = self._prefix[name]
            data = self._ring_data
            cap = data.shape[0]
            col = self._ring_index[name]
            for index in range(start, length):
                if index < live_prefix:
                    rows.append(
                        sample_row(prefix[len(prefix) - live_prefix + index])
                    )
                else:
                    j = (a - live_ring) + (index - live_prefix)
                    rows.append(data[j % cap, col])
        else:
            prefix = self._prefix[name]
            for sample in prefix[start:]:
                rows.append(sample_row(sample))
        acc = rows[0]
        for r in range(1, k):
            acc = acc + rows[r]
        return acc, rows[k - 1]

    def latest_block(self) -> Optional[np.ndarray]:
        """The newest ring epoch's ``(n_vms, N_COUNTERS)`` rows, or None.

        Serves fleet-level telemetry (per-shard counter totals) without
        touching per-VM state; None when no batch epoch is resident
        (scalar substrate, or a scalar epoch flushed the ring).
        """
        if self._ring_names is None or self._appended == 0:
            return None
        return self._ring_data[(self._appended - 1) % self._ring_data.shape[0]]


class CounterHistoryView(Mapping):
    """Read-only ``vm name -> history`` mapping over a store.

    Drop-in for the eager ``Dict[str, List[CounterSample]]``: iteration,
    membership, ``.get``/``.items``/``.values`` and equality all work;
    values are :class:`LazyCounterHistory` sequences.
    """

    __slots__ = ("_store",)

    def __init__(self, store: HostCounterStore) -> None:
        self._store = store

    def __getitem__(self, name: str) -> "LazyCounterHistory":
        if name not in self._store._prefix:
            raise KeyError(name)
        return LazyCounterHistory(self._store, name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._store._prefix)

    def __len__(self) -> int:
        return len(self._store._prefix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CounterHistoryView({list(self._store._prefix)})"


class LazyCounterHistory(Sequence):
    """One VM's counter history, materialised on access.

    Supports everything the eager sample list supported — ``len``,
    indexing, slicing (returns a plain list), iteration, equality —
    but entries that live in the ring only become ``CounterSample``
    objects when actually indexed.
    """

    __slots__ = ("_store", "_name")

    def __init__(self, store: HostCounterStore, name: str) -> None:
        self._store = store
        self._name = name

    def __len__(self) -> int:
        return self._store.length(self._name)

    def __getitem__(self, index):
        length = len(self)
        if isinstance(index, slice):
            return [
                self._store.sample_at(self._name, i)
                for i in range(*index.indices(length))
            ]
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(
                f"history index {index} out of range for VM {self._name!r} "
                f"({length} epochs)"
            )
        return self._store.sample_at(self._name, index)

    def __eq__(self, other) -> bool:
        if isinstance(other, (LazyCounterHistory, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LazyCounterHistory({self._name!r}, {len(self)} epochs)"
