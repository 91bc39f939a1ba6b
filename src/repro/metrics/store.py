"""Counter telemetry: one ring of raw counter rows, lazy per-VM histories.

The monitoring loop only ever consumes *windows* of recent counter
samples, so counters are kept as raw float rows and a
:class:`~repro.metrics.counters.CounterSample` is built only when a
scalar path, a report or an example indexes a history.

* :class:`CounterRing` is the one storage form: an array of shape
  ``(capacity, slots, len(COUNTER_NAMES))`` plus the epoch length of
  every row.  Each VM resident on a host owns a *slot* (a column): a
  placed VM takes a free slot, a departing VM frees its slot, and when
  no slot is free the slot axis grows by a quarter, in one copy made
  when the rows are next read or written.  Epoch ``j`` lives in row
  ``j % capacity``; the capacity is ``2 * history_limit``, or doubles
  on demand when histories are unlimited.  The rows are allocated by
  the first epoch, so a cluster that has not run one (a fleet's
  template shards) carries no rows.
* Who writes it: a :class:`~repro.virt.cluster.Cluster` owns one ring
  shared by all its hosts and writes each epoch's rows for all its VMs
  at once (one write per spec group on the batch substrate, one for
  the cluster on the scalar one).  A host outside a cluster (the
  analyzer's sandbox, the experiments) owns a one-host ring that
  ``Host.commit_epoch_block`` writes.
* :class:`HostCounterStore` is one host's part: its resident VMs'
  slots and, per VM, the samples the host keeps outside the ring — a
  departed VM's whole history, a resident VM's history from before it
  took its slot.  A departure copies the VM's live ring rows into a
  :class:`RetainedHistory`.  ``Host.counter_history`` is a lazy mapping
  over the store (:class:`CounterHistoryView`).

Equivalence contract
--------------------
Every history is that of an eager per-VM sample list:

* Materialised samples are bit-identical to the epoch's samples — the
  ring stores the float64 rows ``CounterSample(*row)`` is built from.
* History lengths replay the eager **amortised trim**
  (:func:`trimmed_length`): with ``history_limit = L`` a history grows
  to ``2 L`` entries and is cut back to the most recent ``L``.
* Histories are per host: a VM's history survives its departure on the
  host that recorded it, and a VM placed on a host again continues the
  history it left there.

Window reads fold rows in epoch order (``acc = acc + row``): the
additions of aggregating the materialised samples, in their order.
``tests/metrics/test_counter_store.py`` and
``tests/metrics/test_counter_ring.py`` pin all of this against an
eager sample-list reference kept in the tests.

Materialisation is uncached: indexing the same entry twice builds two
(equal) samples.  The batch monitoring engine reads windows columnar
and touches samples only for warned VMs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.metrics.counters import COUNTER_NAMES, N_COUNTERS, CounterSample

#: Initial ring capacity (epochs) without a history limit; it doubles
#: when a resident VM's rows would be overwritten.
_UNLIMITED_INITIAL_CAPACITY = 64

#: Join epoch of a free slot: after every epoch, so a free slot never
#: holds live rows.
_FREE = np.iinfo(np.int64).max


def trimmed_length(total: int, limit: Optional[int]) -> int:
    """History length after ``total`` appends under the amortised trim.

    The eager path appends one sample per epoch and, whenever a history
    exceeds ``2 * limit`` entries, cuts it back to the most recent
    ``limit`` — so the observable length follows a sawtooth between
    ``limit`` and ``2 * limit``.  This closed form replays that
    recurrence, so the store reports identical lengths without any
    per-epoch work.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if limit is None or total <= 2 * limit:
        return total
    return limit + (total - 2 * limit - 1) % (limit + 1)


def sample_row(sample: CounterSample) -> np.ndarray:
    """One sample's counters as a ``(len(COUNTER_NAMES),)`` float row."""
    return np.array(
        [getattr(sample, name) for name in COUNTER_NAMES], dtype=float
    )


class CounterRing:
    """Raw counter rows of many VMs: ``(capacity, slots, N_COUNTERS)``.

    ``appended`` epochs have been written; epoch ``j`` is row
    ``j % capacity``.  Per slot the ring records the epoch its VM joined
    at (``start``) and the VM's history length on its host before that
    (``base``), so a VM's rows are the ring rows of epochs
    ``start .. appended - 1`` in its column, and its host's history
    limit (``limit``; ``inf`` when the host keeps every epoch, whose rows
    are never overwritten: the capacity doubles first).
    """

    def __init__(self, history_limit: Optional[int] = None) -> None:
        if history_limit is not None and history_limit < 1:
            raise ValueError("history_limit must be positive")
        #: Largest history limit of the hosts writing the ring (``None``:
        #: some host keeps everything, and the capacity grows on demand).
        self.history_limit = history_limit
        self.capacity = (
            _UNLIMITED_INITIAL_CAPACITY if history_limit is None else 2 * history_limit
        )
        self._data: Optional[np.ndarray] = None
        self._eps: Optional[np.ndarray] = None
        self.start = np.zeros(0, dtype=np.int64)
        self.base = np.zeros(0, dtype=np.int64)
        self.limit = np.zeros(0, dtype=float)
        #: Free slots, taken from the end (lowest slot first after a widen).
        self.free: List[int] = []
        self.appended = 0

    @property
    def data(self) -> np.ndarray:
        """The rows, ``(capacity, slots, N_COUNTERS)``."""
        return self._fitted()[0]

    @property
    def eps(self) -> np.ndarray:
        """Each row's epoch length, ``(capacity, slots)``."""
        return self._fitted()[1]

    def _fitted(self) -> Tuple[np.ndarray, np.ndarray]:
        """The rows and epoch lengths, allocated on first use and widened
        to the slots taken since."""
        width = self.start.size
        if self._data is None or self._data.shape[1] != width:
            data = np.zeros((self.capacity, width, N_COUNTERS), dtype=float)
            eps = np.zeros((self.capacity, width), dtype=float)
            if self._data is not None:
                fitted = self._data.shape[1]
                data[:, :fitted] = self._data
                eps[:, :fitted] = self._eps
            self._data, self._eps = data, eps
        return self._data, self._eps

    # ------------------------------------------------------------------
    # Slots
    # ------------------------------------------------------------------
    def take(self, base: int, history_limit: Optional[int]) -> int:
        """A free slot for a VM joining now with ``base`` earlier epochs
        on a host that keeps ``history_limit`` epochs."""
        if not self.free:
            self._widen()
        slot = self.free.pop()
        self.restart(slot, base)
        self.limit[slot] = np.inf if history_limit is None else history_limit
        return slot

    def restart(self, slot: int, base: int) -> None:
        """Start ``slot``'s rows afresh at the current epoch."""
        self.start[slot] = self.appended
        self.base[slot] = base

    def release(self, slot: int) -> None:
        self.start[slot] = _FREE
        self.free.append(slot)

    def _widen(self) -> None:
        """Grow the slot axis by a quarter (every slot is in use)."""
        width = self.start.size
        wider = width + max(1, width // 4)
        self.start = np.concatenate(
            [self.start, np.full(wider - width, _FREE, dtype=np.int64)]
        )
        self.base = np.concatenate(
            [self.base, np.zeros(wider - width, dtype=np.int64)]
        )
        self.limit = np.concatenate([self.limit, np.zeros(wider - width)])
        self.free.extend(range(wider - 1, width - 1, -1))

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def require(self, history_limit: Optional[int]) -> None:
        """Make room for a host that keeps ``history_limit`` epochs."""
        if self.history_limit is None:
            return
        if history_limit is None:
            self.history_limit = None
        elif history_limit > self.history_limit:
            self.history_limit = history_limit
            self._resize(2 * history_limit)

    def _resize(self, capacity: int) -> None:
        """Move the resident epochs into a ring of ``capacity`` rows."""
        old, self.capacity = self.capacity, capacity
        if self._data is None:
            return
        epochs = np.arange(max(0, self.appended - old), self.appended)
        data = np.zeros((capacity,) + self._data.shape[1:], dtype=float)
        data[epochs % capacity] = self._data[epochs % old]
        eps = np.zeros((capacity, self._eps.shape[1]), dtype=float)
        eps[epochs % capacity] = self._eps[epochs % old]
        self._data, self._eps = data, eps

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(self, slots, rows: np.ndarray, epoch_seconds) -> None:
        """Write the current epoch's ``rows`` into ``slots`` (one row each)."""
        row = self.appended % self.capacity
        data, eps = self._fitted()
        data[row, slots] = rows
        eps[row, slots] = epoch_seconds

    def advance(self) -> None:
        """Close the current epoch."""
        self.appended += 1
        if (
            self.history_limit is None
            and self.appended
            - self.start.min(initial=_FREE, where=self.limit == np.inf)
            >= self.capacity
        ):
            # The next write would overwrite a resident VM's oldest row.
            self._resize(2 * self.capacity)


class RetainedHistory(Sequence):
    """A VM's history after its ring rows were copied out, read on demand.

    ``head`` holds samples from before the copied rows; ``rows`` and
    ``eps`` are the copied ring rows and epoch lengths that follow them.
    A row becomes a :class:`CounterSample` only when indexed (uncached,
    like the ring's own reads), so a departure costs one array copy, not
    one sample object per retained epoch.  Slices return plain lists.
    """

    __slots__ = ("head", "rows", "eps")

    def __init__(
        self, head: Sequence[CounterSample], rows: np.ndarray, eps: np.ndarray
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
    """One host's counter histories: ring slots plus retained samples.

    Parameters
    ----------
    history_limit:
        When set, per-VM histories follow the amortised trim to the last
        ``history_limit`` epochs (constant memory for arbitrarily long
        runs).  ``None`` retains everything.

    The store starts on a one-host ring of its own; a cluster moves it
    onto the cluster's ring with :meth:`attach`.
    """

    def __init__(self, history_limit: Optional[int] = None) -> None:
        self.ring = CounterRing(history_limit)
        self.history_limit = history_limit
        #: Whether the ring is this host's alone (a host outside a cluster).
        self._own_ring = True
        #: Resident VMs' ring slots, in placement order.
        self._slots: Dict[str, int] = {}
        #: Per VM ever placed on the host: its whole history when it is
        #: not resident, its history before it took its slot when it is.
        self._prefix: Dict[str, Sequence[CounterSample]] = {}

    # ------------------------------------------------------------------
    # Mapping facade
    # ------------------------------------------------------------------
    @property
    def histories(self) -> "CounterHistoryView":
        """Read-only mapping ``vm name -> lazy sample sequence``."""
        return CounterHistoryView(self)

    def __contains__(self, name: str) -> bool:
        return name in self._prefix

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def join(self, name: str) -> None:
        """A VM placed on the host takes a ring slot; its history on the
        host (if it was here before) continues."""
        prefix = self._prefix.setdefault(name, [])
        self._slots[name] = self.ring.take(len(prefix), self.history_limit)

    def leave(self, name: str) -> None:
        """A VM leaving the host: its live rows become retained samples."""
        self._prefix[name] = self._retired(name)
        self.ring.release(self._slots.pop(name))

    def attach(self, ring: CounterRing) -> None:
        """Move the host's resident VMs onto a cluster's shared ring."""
        ring.require(self.history_limit)
        names = list(self._slots)
        for name in names:
            self.leave(name)
        self.ring = ring
        self._own_ring = False
        for name in names:
            self.join(name)

    def _retired(self, name: str) -> RetainedHistory:
        """A resident VM's whole (trimmed) history, out of the ring."""
        _, live_prefix, first = self._live(name)
        prefix = self._prefix[name]
        kept = prefix[len(prefix) - live_prefix:] if live_prefix else []
        ring, slot = self.ring, self._slots[name]
        rows = np.arange(first, ring.appended) % ring.capacity
        return RetainedHistory(kept, ring.data[rows, slot], ring.eps[rows, slot])

    # ------------------------------------------------------------------
    # The one-host commit
    # ------------------------------------------------------------------
    def commit(
        self, names: Tuple[str, ...], block: np.ndarray, epoch_seconds: float
    ) -> None:
        """Record one epoch of this host alone: ``block[i]`` is ``names[i]``'s.

        On the host's own ring that is one write.  A shared ring advances
        once per cluster epoch for every slot, so there the epoch is
        appended to each VM's retained samples instead and its ring rows
        start afresh.
        """
        ring = self.ring
        if self._own_ring:
            ring.write([self._slots[name] for name in names], block, epoch_seconds)
            ring.advance()
            return
        limit = self.history_limit
        for name, row in zip(names, block.tolist()):
            history = list(self._retired(name))
            history.append(CounterSample(*row, epoch_seconds=epoch_seconds))
            if limit is not None and len(history) > 2 * limit:
                del history[: len(history) - limit]
            self._prefix[name] = history
            ring.restart(self._slots[name], len(history))

    # ------------------------------------------------------------------
    # Per-VM reads (lazy materialisation)
    # ------------------------------------------------------------------
    def _live(self, name: str) -> Tuple[int, int, int]:
        """``(length, live prefix, first ring epoch)`` of a resident VM:
        its history is the last ``live prefix`` samples of its prefix,
        then the ring rows from the first ring epoch on."""
        ring = self.ring
        a = ring.appended
        length = self.length(name)
        live_ring = min(length, a - int(ring.start[self._slots[name]]))
        return length, length - live_ring, a - live_ring

    def length(self, name: str) -> int:
        """Logical history length of ``name`` (eager-trim semantics)."""
        prefix = self._prefix.get(name)
        if prefix is None:
            raise KeyError(name)
        slot = self._slots.get(name)
        if slot is None:
            return len(prefix)
        ring = self.ring
        appended = ring.appended - int(ring.start[slot])
        return trimmed_length(int(ring.base[slot]) + appended, self.history_limit)

    def sample_at(self, name: str, index: int) -> CounterSample:
        """Materialise entry ``index`` (0-based, already normalised)."""
        prefix = self._prefix[name]
        if name not in self._slots:
            return prefix[index]
        _, live_prefix, first = self._live(name)
        if index < live_prefix:
            return prefix[len(prefix) - live_prefix + index]
        ring = self.ring
        row = (first + index - live_prefix) % ring.capacity
        slot = self._slots[name]
        return CounterSample(
            *ring.data[row, slot].tolist(),
            epoch_seconds=float(ring.eps[row, slot]),
        )

    def latest_sample(self, name: str) -> Optional[CounterSample]:
        """Newest sample of ``name``, or None before its first epoch."""
        if name not in self._prefix:
            return None
        length = self.length(name)
        if length == 0:
            return None
        return self.sample_at(name, length - 1)

    def vm_window_fold(
        self, name: str, window: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(window_sum_row, latest_row)`` for one VM's last ``window``.

        Rows come straight from the ring where the epochs live there and
        from the retained samples otherwise, left-folded in epoch order —
        bit-identical to aggregating the materialised sample window.
        Returns ``None`` for a VM with no recorded epochs.
        """
        length = self.length(name)
        if length == 0:
            return None
        k = min(window, length)
        prefix = self._prefix[name]
        if name in self._slots:
            _, live_prefix, first = self._live(name)
            ring = self.ring
            slot = self._slots[name]
            rows = [
                sample_row(prefix[len(prefix) - live_prefix + index])
                if index < live_prefix
                else ring.data[(first + index - live_prefix) % ring.capacity, slot]
                for index in range(length - k, length)
            ]
        else:
            rows = [sample_row(sample) for sample in prefix[length - k:]]
        acc = rows[0]
        for r in range(1, k):
            acc = acc + rows[r]
        return acc, rows[k - 1]


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
