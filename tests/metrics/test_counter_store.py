"""Unit coverage for the lazy columnar counter store.

Exercises the store directly — ring ingest, scalar appends, placement
changes (ring flushes), the amortised-trim length replication and the
columnar window reads — always against the eager reference mode, which
reproduces the pre-store per-VM sample lists exactly.

Also pins the ``CounterSample`` field-order coupling the whole columnar
pipeline rests on: samples are materialised positionally from raw
counter-matrix rows, so the dataclass field order must match
:data:`~repro.metrics.counters.COUNTER_NAMES`.
"""

from dataclasses import fields

import numpy as np
import pytest

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


def _pair(limit, lazy_names=("a", "b")):
    """A (lazy, eager) store pair with the same VMs registered."""
    lazy = HostCounterStore(history_limit=limit, lazy=True)
    eager = HostCounterStore(history_limit=limit, lazy=False)
    for store in (lazy, eager):
        for name in lazy_names:
            store.ensure(name)
    return lazy, eager


def _assert_equal_stores(lazy, eager):
    assert set(lazy.histories) == set(eager.histories)
    for name in eager.histories:
        history_l = lazy.histories[name]
        history_e = eager.histories[name]
        assert len(history_l) == len(history_e), name
        assert list(history_l) == list(history_e), name


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
        lazy, eager = _pair(limit)
        names = ("a", "b")
        for epoch in range(17):
            block = _block(epoch, 2)
            lazy.ingest(names, block, 1.0)
            eager.ingest(names, block, 1.0)
            _assert_equal_stores(lazy, eager)

    @pytest.mark.parametrize("limit", [None, 2])
    def test_placement_change_flushes_ring(self, limit):
        """Changing the VM-name tuple starts a new ring segment; the
        flushed epochs must survive in every VM's history."""
        lazy, eager = _pair(limit, lazy_names=("a", "b", "c"))
        for epoch in range(5):
            block = _block(epoch, 3)
            lazy.ingest(("a", "b", "c"), block, 1.0)
            eager.ingest(("a", "b", "c"), block, 1.0)
        # VM "c" leaves the host.
        for epoch in range(5, 11):
            block = _block(epoch, 2)
            lazy.ingest(("a", "b"), block, 1.0)
            eager.ingest(("a", "b"), block, 1.0)
            _assert_equal_stores(lazy, eager)
        # The departed VM's history is retained, frozen at departure.
        assert len(lazy.histories["c"]) == len(eager.histories["c"]) > 0
        assert list(lazy.histories["c"]) == list(eager.histories["c"])

    def test_scalar_append_flushes_ring(self):
        """A scalar epoch flushes the ring (no gaps in the record)."""
        lazy, eager = _pair(3)
        names = ("a", "b")
        for epoch in range(4):
            block = _block(epoch, 2)
            lazy.ingest(names, block, 1.0)
            eager.ingest(names, block, 1.0)
        scalar = {
            "a": CounterSample(inst_retired=5.0),
            "b": CounterSample(inst_retired=7.0),
        }
        lazy.append_samples(scalar)
        eager.append_samples(scalar)
        _assert_equal_stores(lazy, eager)
        assert lazy.latest_block() is None
        # Scalar-appended objects keep identity through the store.
        assert lazy.histories["a"][-1] is scalar["a"]

    def test_vm_joining_mid_run(self):
        """A VM arriving mid-run has a shorter history; trim phases then
        differ per VM and must still replicate the eager reference."""
        limit = 2
        lazy, eager = _pair(limit, lazy_names=("a",))
        for epoch in range(3):
            block = _block(epoch, 1)
            lazy.ingest(("a",), block, 1.0)
            eager.ingest(("a",), block, 1.0)
        for store in (lazy, eager):
            store.ensure("b")
        for epoch in range(3, 14):
            block = _block(epoch, 2)
            lazy.ingest(("a", "b"), block, 1.0)
            eager.ingest(("a", "b"), block, 1.0)
            _assert_equal_stores(lazy, eager)

    def test_grow_path_preserves_ring_continuity(self):
        """Post-construction VM registration takes the in-place grow
        path: the segment (and the resident VMs' ring contents) carries
        over instead of flushing, and the appended VM's history begins
        at the epoch it joined."""
        limit = 4
        lazy, eager = _pair(limit, lazy_names=("a", "b"))
        for epoch in range(3):
            block = _block(epoch, 2)
            lazy.ingest(("a", "b"), block, 1.0)
            eager.ingest(("a", "b"), block, 1.0)
        appended_before = lazy._appended
        for store in (lazy, eager):
            store.ensure("c")
        for epoch in range(3, 6):
            block = _block(epoch, 3)
            lazy.ingest(("a", "b", "c"), block, 1.0)
            eager.ingest(("a", "b", "c"), block, 1.0)
            _assert_equal_stores(lazy, eager)
        # The segment was grown, not restarted: epochs kept counting.
        assert lazy._appended == appended_before + 3
        assert len(lazy.histories["c"]) == 3
        assert len(lazy.histories["a"]) == 6

    def test_grow_path_preserves_trim_phase(self):
        """Growing mid-sawtooth must not disturb the resident VMs'
        amortised-trim phase (lengths keep replaying the eager trim)."""
        limit = 2
        lazy, eager = _pair(limit, lazy_names=("a",))
        for epoch in range(2 * limit + 1):  # "a" is past its first trim
            block = _block(epoch, 1)
            lazy.ingest(("a",), block, 1.0)
            eager.ingest(("a",), block, 1.0)
        for store in (lazy, eager):
            store.ensure("b")
        for epoch in range(2 * limit + 1, 2 * limit + 9):
            block = _block(epoch, 2)
            lazy.ingest(("a", "b"), block, 1.0)
            eager.ingest(("a", "b"), block, 1.0)
            _assert_equal_stores(lazy, eager)

    def test_grow_gates_window_fast_path_until_covered(self):
        """After a grow, the columnar window fast path must refuse
        windows the youngest VM cannot cover (the per-VM fallback trims
        those), then resume serving exact folds once it can."""
        store = HostCounterStore(history_limit=8, lazy=True)
        for name in ("a", "b"):
            store.ensure(name)
        for epoch in range(4):
            store.ingest(("a", "b"), _block(epoch, 2), 1.0)
        store.ensure("c")
        names = ("a", "b", "c")
        store.ingest(names, _block(4, 3), 1.0)
        assert store.window_view(3, names, 5) is None  # "c" has 1 epoch
        assert store.window_view(1, names, 5) is not None
        for epoch in range(5, 8):
            store.ingest(names, _block(epoch, 3), 1.0)
        view = store.window_view(3, names, 8)
        assert view is not None
        _got_names, latest, acc = view
        for i, name in enumerate(names):
            samples = store.histories[name][-3:]
            expected = sample_row(samples[0])
            for s in samples[1:]:
                expected = expected + sample_row(s)
            assert np.array_equal(acc[i], expected)
            assert np.array_equal(latest[i], sample_row(samples[-1]))

    def test_shrink_path_keeps_segment_and_departed_history(self):
        """A pure removal shrinks the ring in place: the departed VM's
        history is materialised and retained, the remaining VMs keep
        their segment (the window fast path stays available)."""
        lazy, eager = _pair(4, lazy_names=("a", "b", "c"))
        names = ("a", "b", "c")
        for epoch in range(5):
            block = _block(epoch, 3)
            lazy.ingest(names, block, 1.0)
            eager.ingest(names, block, 1.0)
        appended_before = lazy._appended
        for epoch in range(5, 8):
            block = _block(epoch, 2)
            lazy.ingest(("a", "c"), block, 1.0)
            eager.ingest(("a", "c"), block, 1.0)
            _assert_equal_stores(lazy, eager)
        assert lazy._appended == appended_before + 3
        assert list(lazy.histories["b"]) == list(eager.histories["b"])
        # The survivors' ring segment kept running: exact fast windows.
        assert lazy.window_view(4, ("a", "c"), 8) is not None

    @pytest.mark.parametrize("limit", [None, 3])
    def test_arrival_and_departure_in_one_epoch(self, limit):
        """A host that loses and gains VMs in the same epoch shrinks to
        the staying VMs, then grows by the arrivals: the segment keeps
        running, and every history (the departed VM's included) equals
        the eager store's."""
        lazy, eager = _pair(limit, lazy_names=("a", "b", "c"))
        names = ("a", "b", "c")
        for epoch in range(5):
            block = _block(epoch, 3)
            lazy.ingest(names, block, 1.0)
            eager.ingest(names, block, 1.0)
        for step, names in enumerate(
            (("a", "c", "d"), ("c", "d", "e", "f"), ("c", "f", "b"))
        ):
            for store in (lazy, eager):
                for name in names:
                    store.ensure(name)
            for epoch in range(5 + 4 * step, 9 + 4 * step):
                block = _block(epoch, len(names))
                lazy.ingest(names, block, 1.0)
                eager.ingest(names, block, 1.0)
                _assert_equal_stores(lazy, eager)
        # Never flushed: the segment counted every epoch.
        assert lazy._appended == 17
        assert lazy.window_view(2, names, 17) is not None

    def test_departed_history_is_retained_rows(self):
        """A departure copies the VM's ring rows into a
        :class:`RetainedHistory`: samples are built on read, equal to
        the eager ones under every kind of index, and a later scalar
        epoch turns the history back into a list it can append to."""
        lazy, eager = _pair(3, lazy_names=("a", "b"))
        for epoch in range(8):
            block = _block(epoch, 2)
            lazy.ingest(("a", "b"), block, 0.5)
            eager.ingest(("a", "b"), block, 0.5)
        for store in (lazy, eager):
            store.ingest(("a",), _block(8, 1), 0.5)
        retained = lazy._prefix["b"]
        assert isinstance(retained, RetainedHistory)
        want = list(eager.histories["b"])
        assert len(retained) == len(want)
        assert list(retained) == want
        assert retained[-1] == want[-1] and retained[0] == want[0]
        assert retained[1:-1] == want[1:-1]
        with pytest.raises(IndexError):
            retained[len(want)]
        sample = CounterSample(inst_retired=3.0)
        for store in (lazy, eager):
            store.append_samples({"a": CounterSample(inst_retired=1.0), "b": sample})
        assert lazy.histories["b"][-1] is sample
        _assert_equal_stores(lazy, eager)

    def test_reorder_still_flushes(self):
        """Only pure appends/removals resize in place; a reordering is
        not a lifecycle shape and falls back to the full flush."""
        lazy, eager = _pair(4, lazy_names=("a", "b"))
        for epoch in range(3):
            block = _block(epoch, 2)
            lazy.ingest(("a", "b"), block, 1.0)
            eager.ingest(("a", "b"), block, 1.0)
        for epoch in range(3, 6):
            block = _block(epoch, 2)
            lazy.ingest(("b", "a"), block, 1.0)
            eager.ingest(("b", "a"), block, 1.0)
            _assert_equal_stores(lazy, eager)
        assert lazy._appended == 3  # restarted segment

    def test_departed_vm_can_rejoin_with_prior_history(self):
        """Depart (shrink), then re-arrive (grow): the rejoining VM's
        prefix history must splice with its new ring epochs exactly as
        the eager lists do."""
        limit = 3
        lazy, eager = _pair(limit, lazy_names=("a", "b"))
        for epoch in range(4):
            block = _block(epoch, 2)
            lazy.ingest(("a", "b"), block, 1.0)
            eager.ingest(("a", "b"), block, 1.0)
        for epoch in range(4, 6):
            block = _block(epoch, 1)
            lazy.ingest(("a",), block, 1.0)
            eager.ingest(("a",), block, 1.0)
        for epoch in range(6, 14):
            block = _block(epoch, 2)
            lazy.ingest(("a", "b"), block, 1.0)
            eager.ingest(("a", "b"), block, 1.0)
            _assert_equal_stores(lazy, eager)

    def test_epoch_seconds_preserved_per_epoch(self):
        lazy, eager = _pair(None, lazy_names=("a",))
        for epoch, eps in enumerate((0.5, 1.0, 2.0)):
            block = _block(epoch, 1)
            lazy.ingest(("a",), block, eps)
            eager.ingest(("a",), block, eps)
        assert [s.epoch_seconds for s in lazy.histories["a"]] == [0.5, 1.0, 2.0]
        _assert_equal_stores(lazy, eager)

    def test_ingested_block_is_copied(self):
        """Mutating the caller's block after ingest (buffer reuse) must
        not change the recorded epoch."""
        store = HostCounterStore(history_limit=4, lazy=True)
        store.ensure("a")
        block = _block(0, 1)
        store.ingest(("a",), block, 1.0)
        before = store.histories["a"][-1]
        block[:] = -1.0
        assert store.histories["a"][-1] == before


class TestWindowReads:
    def test_window_view_matches_fold_of_samples(self):
        store = HostCounterStore(history_limit=4, lazy=True)
        names = ("a", "b")
        for name in names:
            store.ensure(name)
        for epoch in range(6):
            store.ingest(names, _block(epoch, 2), 1.0)
        for window in (1, 2, 3, 4):
            view = store.window_view(window, names, 6)
            assert view is not None
            got_names, latest, acc = view
            assert got_names == names
            for i, name in enumerate(names):
                samples = store.histories[name][-window:]
                expected = sample_row(samples[0])
                for s in samples[1:]:
                    expected = expected + sample_row(s)
                assert np.array_equal(acc[i], expected)
                assert np.array_equal(latest[i], sample_row(samples[-1]))

    def test_window_view_refuses_trimmed_window(self):
        """history_limit < window would trim the sample windows; the
        fast path must refuse so callers fall back (and warn)."""
        store = HostCounterStore(history_limit=2, lazy=True)
        store.ensure("a")
        for epoch in range(6):
            store.ingest(("a",), _block(epoch, 1), 1.0)
        assert store.window_view(3, ("a",), 6) is None
        assert store.window_view(2, ("a",), 6) is not None

    def test_window_view_refuses_changed_placement(self):
        store = HostCounterStore(history_limit=8, lazy=True)
        for name in ("a", "b"):
            store.ensure(name)
        store.ingest(("a", "b"), _block(0, 2), 1.0)
        assert store.window_view(1, ("a",), 1) is None

    def test_vm_window_fold_matches_materialised(self):
        """The per-VM fallback fold equals aggregating the materialised
        window, across prefix/ring boundaries."""
        store = HostCounterStore(history_limit=4, lazy=True)
        for name in ("a", "b"):
            store.ensure(name)
        for epoch in range(3):
            store.ingest(("a", "b"), _block(epoch, 2), 1.0)
        # Placement change: "b" leaves; "a" keeps a prefix + new ring.
        for epoch in range(3, 6):
            store.ingest(("a",), _block(epoch, 1), 1.0)
        for window in (1, 2, 4, 6):
            for name in ("a", "b"):
                fold = store.vm_window_fold(name, window)
                samples = store.histories[name][-window:]
                expected = sample_row(samples[0])
                for s in samples[1:]:
                    expected = expected + sample_row(s)
                acc, latest = fold
                assert np.array_equal(acc, expected), (name, window)
                assert np.array_equal(latest, sample_row(samples[-1]))

    def test_latest_block_tracks_newest_epoch(self):
        store = HostCounterStore(history_limit=2, lazy=True)
        store.ensure("a")
        assert store.latest_block() is None
        for epoch in range(5):
            block = _block(epoch, 1)
            store.ingest(("a",), block, 1.0)
            assert np.array_equal(store.latest_block(), block)


class TestHistoryViewProtocol:
    def test_mapping_and_sequence_protocols(self):
        store = HostCounterStore(history_limit=None, lazy=True)
        store.ensure("a")
        view = store.histories
        assert "a" in view and "ghost" not in view
        assert view.get("ghost") is None
        assert len(view["a"]) == 0
        assert not view["a"]
        store.ingest(("a",), _block(0, 1), 1.0)
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
