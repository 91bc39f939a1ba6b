"""Unit coverage for a host's counter store over its one-host ring.

Exercises the store directly — one-host commits, placement changes
(VMs taking and freeing ring slots), the amortised-trim length
replication and the per-VM window folds — always against the eager
reference (``counter_reference.EagerHistories``): the per-VM sample
lists the ring replaced.

Also pins the ``CounterSample`` field-order coupling the whole columnar
pipeline rests on: samples are materialised positionally from raw
counter-matrix rows, so the dataclass field order must match
:data:`~repro.metrics.counters.COUNTER_NAMES`.
"""

from dataclasses import fields

import numpy as np
import pytest
from counter_reference import EagerHistories, fold

from repro.hardware.batch import N_COUNTERS
from repro.metrics.counters import COUNTER_NAMES, CounterSample
from repro.metrics.store import (
    HostCounterStore,
    RetainedHistory,
    sample_row,
    trimmed_length,
)


def _block(epoch: int, n_vms: int) -> np.ndarray:
    """A deterministic, distinct counter block for one epoch."""
    base = np.arange(n_vms * N_COUNTERS, dtype=float).reshape(
        n_vms, N_COUNTERS
    )
    return base + 1000.0 * epoch + 1.0


def _pair(limit, names=("a", "b")):
    """A store and its eager reference with the same VMs placed."""
    store = HostCounterStore(history_limit=limit)
    eager = EagerHistories(limit)
    for name in names:
        store.join(name)
        eager.ensure(name)
    return store, eager


def _epoch(store, eager, names, block, epoch_seconds=1.0):
    """Place exactly ``names`` on the host (departures free their slots,
    arrivals take one) and record one epoch of ``block`` on both."""
    for name in [n for n in store._slots if n not in names]:
        store.leave(name)
    for name in names:
        if name not in store._slots:
            store.join(name)
            eager.ensure(name)
    store.commit(tuple(names), block, epoch_seconds)
    eager.record(names, block, epoch_seconds)


def _assert_equal_stores(store, eager):
    assert set(store.histories) == set(eager.histories)
    for name, want in eager.histories.items():
        got = store.histories[name]
        assert len(got) == len(want), name
        assert list(got) == want, name


def _assert_folds(store, eager, windows=(1, 2, 3, 5)):
    """Every VM's window fold equals the fold of its reference samples."""
    for name, want in eager.histories.items():
        for window in windows:
            got = store.vm_window_fold(name, window)
            if not want:
                assert got is None
                continue
            acc, latest = fold(want[-window:])
            assert np.array_equal(got[0], acc), (name, window)
            assert np.array_equal(got[1], latest), (name, window)


class TestTrimmedLength:
    def test_matches_amortised_trim_brute_force(self):
        """The closed form replays the eager append-and-trim recurrence
        for every (base, appends, limit) combination."""
        for limit in (1, 2, 3, 5):
            for base in range(0, 2 * limit + 1):
                length = base
                for appended in range(1, 40):
                    length += 1
                    if length > 2 * limit:
                        length = limit
                    assert trimmed_length(base + appended, limit) == length, (
                        f"limit={limit} base={base} appended={appended}"
                    )

    def test_unlimited(self):
        assert trimmed_length(0, None) == 0
        assert trimmed_length(7, None) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            trimmed_length(-1, 3)


class TestIngestEquivalence:
    @pytest.mark.parametrize("limit", [None, 3])
    def test_steady_ingest(self, limit):
        store, eager = _pair(limit)
        for epoch in range(17):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
            _assert_equal_stores(store, eager)
        _assert_folds(store, eager)

    @pytest.mark.parametrize("limit", [None, 2])
    def test_placement_change_flushes_ring(self, limit):
        """A departure frees the VM's slot; its epochs survive in its
        retained history, frozen at departure."""
        store, eager = _pair(limit, names=("a", "b", "c"))
        for epoch in range(5):
            _epoch(store, eager, ("a", "b", "c"), _block(epoch, 3))
        for epoch in range(5, 11):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
            _assert_equal_stores(store, eager)
        assert len(store.histories["c"]) == len(eager.histories["c"]) > 0
        assert "c" not in store._slots
        _assert_folds(store, eager)

    def test_scalar_append_flushes_ring(self):
        """Materialised (scalar-substrate) samples recorded through the
        one-host commit read back equal, continuing the ring histories."""
        store, eager = _pair(3)
        for epoch in range(4):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
        scalar = {
            "a": CounterSample(inst_retired=5.0),
            "b": CounterSample(inst_retired=7.0),
        }
        rows = np.array([sample_row(scalar[name]) for name in ("a", "b")])
        store.commit(("a", "b"), rows, 1.0)
        for name, sample in scalar.items():
            eager.append(name, sample)
        _assert_equal_stores(store, eager)
        assert store.latest_sample("a") == scalar["a"]
        _assert_folds(store, eager)

    def test_vm_joining_mid_run(self):
        """A VM arriving mid-run has a shorter history; trim phases then
        differ per VM and must still replicate the eager reference."""
        store, eager = _pair(2, names=("a",))
        for epoch in range(3):
            _epoch(store, eager, ("a",), _block(epoch, 1))
        for epoch in range(3, 14):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
            _assert_equal_stores(store, eager)
        _assert_folds(store, eager)

    def test_grow_path_preserves_ring_continuity(self):
        """An arrival takes a slot without disturbing the resident VMs'
        rows: the ring keeps counting epochs, and the arrival's history
        begins at the epoch it joined."""
        store, eager = _pair(4, names=("a", "b"))
        for epoch in range(3):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
        appended_before = store.ring.appended
        for epoch in range(3, 6):
            _epoch(store, eager, ("a", "b", "c"), _block(epoch, 3))
            _assert_equal_stores(store, eager)
        assert store.ring.appended == appended_before + 3
        assert len(store.histories["c"]) == 3
        assert len(store.histories["a"]) == 6

    def test_grow_path_preserves_trim_phase(self):
        """An arrival mid-sawtooth must not disturb the resident VMs'
        amortised-trim phase (lengths keep replaying the eager trim)."""
        limit = 2
        store, eager = _pair(limit, names=("a",))
        for epoch in range(2 * limit + 1):  # "a" is past its first trim
            _epoch(store, eager, ("a",), _block(epoch, 1))
        for epoch in range(2 * limit + 1, 2 * limit + 9):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
            _assert_equal_stores(store, eager)

    def test_grow_gates_window_fast_path_until_covered(self):
        """A young VM's window covers only the epochs it has; once it has
        the whole window, its fold is the window's."""
        store, eager = _pair(8, names=("a", "b"))
        for epoch in range(4):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
        _epoch(store, eager, ("a", "b", "c"), _block(4, 3))
        _assert_folds(store, eager, windows=(1, 3))
        for epoch in range(5, 8):
            _epoch(store, eager, ("a", "b", "c"), _block(epoch, 3))
            _assert_folds(store, eager, windows=(1, 3))

    def test_shrink_path_keeps_segment_and_departed_history(self):
        """A departure keeps the ring running for the staying VMs, and the
        departed VM's history is retained."""
        store, eager = _pair(4, names=("a", "b", "c"))
        for epoch in range(5):
            _epoch(store, eager, ("a", "b", "c"), _block(epoch, 3))
        appended_before = store.ring.appended
        for epoch in range(5, 8):
            _epoch(store, eager, ("a", "c"), _block(epoch, 2))
            _assert_equal_stores(store, eager)
        assert store.ring.appended == appended_before + 3
        _assert_folds(store, eager, windows=(1, 4))

    @pytest.mark.parametrize("limit", [None, 3])
    def test_arrival_and_departure_in_one_epoch(self, limit):
        """A host that loses and gains VMs in the same epoch: the ring
        keeps running, freed slots are taken by the arrivals, and every
        history (the departed VMs' included) equals the reference."""
        store, eager = _pair(limit, names=("a", "b", "c"))
        for epoch in range(5):
            _epoch(store, eager, ("a", "b", "c"), _block(epoch, 3))
        for step, names in enumerate(
            (("a", "c", "d"), ("c", "d", "e", "f"), ("c", "f", "b"))
        ):
            for epoch in range(5 + 4 * step, 9 + 4 * step):
                _epoch(store, eager, names, _block(epoch, len(names)))
                _assert_equal_stores(store, eager)
        assert store.ring.appended == 17
        # At most four VMs were ever resident together.
        assert store.ring.data.shape[1] <= 2 * 4
        _assert_folds(store, eager, windows=(1, 2))

    def test_departed_history_is_retained_rows(self):
        """A departure copies the VM's ring rows into a
        :class:`RetainedHistory`: samples are built on read, equal to
        the eager ones under every kind of index, and the VM placed
        again continues the history."""
        store, eager = _pair(3, names=("a", "b"))
        for epoch in range(8):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2), 0.5)
        _epoch(store, eager, ("a",), _block(8, 1), 0.5)
        retained = store._prefix["b"]
        assert isinstance(retained, RetainedHistory)
        want = eager.histories["b"]
        assert len(retained) == len(want)
        assert list(retained) == want
        assert retained[-1] == want[-1] and retained[0] == want[0]
        assert retained[1:-1] == want[1:-1]
        with pytest.raises(IndexError):
            retained[len(want)]
        _epoch(store, eager, ("a", "b"), _block(9, 2), 0.5)
        _assert_equal_stores(store, eager)

    def test_reorder_still_flushes(self):
        """Rows committed in another VM order land in each VM's own slot."""
        store, eager = _pair(4, names=("a", "b"))
        for epoch in range(3):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
        for epoch in range(3, 6):
            _epoch(store, eager, ("b", "a"), _block(epoch, 2))
            _assert_equal_stores(store, eager)
        assert store.ring.appended == 6
        _assert_folds(store, eager)

    def test_departed_vm_can_rejoin_with_prior_history(self):
        """Depart, then re-arrive: the rejoining VM's retained history
        splices with its new ring epochs exactly as the eager lists do."""
        store, eager = _pair(3, names=("a", "b"))
        for epoch in range(4):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
        for epoch in range(4, 6):
            _epoch(store, eager, ("a",), _block(epoch, 1))
        for epoch in range(6, 14):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
            _assert_equal_stores(store, eager)
            _assert_folds(store, eager, windows=(1, 2, 4))

    def test_epoch_seconds_preserved_per_epoch(self):
        store, eager = _pair(None, names=("a",))
        for epoch, eps in enumerate((0.5, 1.0, 2.0)):
            _epoch(store, eager, ("a",), _block(epoch, 1), eps)
        assert [s.epoch_seconds for s in store.histories["a"]] == [0.5, 1.0, 2.0]
        _assert_equal_stores(store, eager)

    def test_ingested_block_is_copied(self):
        """Mutating the caller's block after a commit (buffer reuse) must
        not change the recorded epoch."""
        store, _ = _pair(4, names=("a",))
        block = _block(0, 1)
        store.commit(("a",), block, 1.0)
        before = store.histories["a"][-1]
        block[:] = -1.0
        assert store.histories["a"][-1] == before


class TestWindowReads:
    def test_window_view_matches_fold_of_samples(self):
        store, eager = _pair(4)
        for epoch in range(6):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
        _assert_folds(store, eager, windows=(1, 2, 3, 4))

    def test_window_view_refuses_trimmed_window(self):
        """A history_limit shorter than the window trims the fold to the
        retained epochs, as the sample window is trimmed."""
        store, eager = _pair(2, names=("a",))
        for epoch in range(6):
            _epoch(store, eager, ("a",), _block(epoch, 1))
            _assert_folds(store, eager, windows=(2, 3, 6))

    def test_window_view_refuses_changed_placement(self):
        store, eager = _pair(8)
        _epoch(store, eager, ("a", "b"), _block(0, 2))
        _epoch(store, eager, ("a",), _block(1, 1))
        _assert_folds(store, eager, windows=(1, 2))

    def test_vm_window_fold_matches_materialised(self):
        """The per-VM fold equals aggregating the materialised window,
        across retained/ring boundaries."""
        store, eager = _pair(4)
        for epoch in range(3):
            _epoch(store, eager, ("a", "b"), _block(epoch, 2))
        # "b" leaves; "a" keeps its ring rows.
        for epoch in range(3, 6):
            _epoch(store, eager, ("a",), _block(epoch, 1))
        _assert_folds(store, eager, windows=(1, 2, 4, 6))

    def test_latest_block_tracks_newest_epoch(self):
        store, _ = _pair(2, names=("a",))
        assert store.latest_sample("a") is None
        for epoch in range(5):
            block = _block(epoch, 1)
            store.commit(("a",), block, 1.0)
            assert np.array_equal(sample_row(store.latest_sample("a")), block[0])


class TestHistoryViewProtocol:
    def test_mapping_and_sequence_protocols(self):
        store = HostCounterStore(history_limit=None)
        store.join("a")
        view = store.histories
        assert "a" in view and "ghost" not in view
        assert view.get("ghost") is None
        assert len(view["a"]) == 0
        assert not view["a"]
        store.commit(("a",), _block(0, 1), 1.0)
        history = view["a"]
        assert history  # non-empty is truthy
        assert history[0] == history[-1]
        assert history[-1:] == [history[0]]
        with pytest.raises(IndexError):
            history[1]
        with pytest.raises(KeyError):
            view["ghost"]

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            HostCounterStore(history_limit=0)


class TestCounterSampleFieldOrder:
    """The positional coupling every columnar path depends on.

    ``CounterSample(*row)`` is used by ``BatchEpochResult.sample`` /
    ``samples`` and by the lazy store's materialisation; if a dataclass
    field were reordered, every counter would be silently scrambled.
    """

    def test_dataclass_fields_match_counter_names(self):
        declared = tuple(f.name for f in fields(CounterSample))
        assert declared[: len(COUNTER_NAMES)] == COUNTER_NAMES
        assert declared[len(COUNTER_NAMES)] == "epoch_seconds"
        assert len(declared) == len(COUNTER_NAMES) + 1

    def test_positional_construction_round_trips(self):
        row = [float(i + 1) for i in range(len(COUNTER_NAMES))]
        sample = CounterSample(*row, epoch_seconds=2.0)
        assert [sample[name] for name in COUNTER_NAMES] == row
        assert sample.epoch_seconds == 2.0
        assert np.array_equal(sample_row(sample), np.asarray(row))

    def test_batch_result_columns_match_sample_fields(self):
        """A batch epoch's counter columns materialise into the fields
        of the same name (the ``BatchEpochResult.counters`` contract)."""
        from repro.hardware.demand import ResourceDemand
        from repro.hardware.machine import PhysicalMachine

        machine = PhysicalMachine(noise=0.0, seed=3)
        demands = {
            "vm0": ResourceDemand(
                instructions=2e9,
                vcpus=2,
                working_set_mb=64.0,
                disk_mb=10.0,
                network_mbit=50.0,
            )
        }
        names = list(demands)
        plan = machine.batch_plan(demands)
        from repro.hardware.batch import (
            ClusterLayout,
            DemandMatrix,
            simulate_epoch_batch,
        )

        layout = ClusterLayout.assemble(
            [plan], machine.spec.architecture.cache_domains
        )
        batch = simulate_epoch_batch(
            machine.spec,
            DemandMatrix.from_demands([demands[n] for n in names]),
            layout,
            1.0,
            np.ones(1),
            noise_rngs=[(0.0, machine._rng)],
        )
        sample = batch.sample(0)
        for j, name in enumerate(COUNTER_NAMES):
            assert sample[name] == batch.counters[0, j], name
