"""The eager counter-history reference the counter-ring tests compare to.

A host's eager history is, per VM, the plain list of samples the VM
produced on that host, cut back by the amortised trim (grow to
``2 * limit`` entries, keep the newest ``limit``).  A host tracking
ground truth already holds exactly that list, independently of the
counter ring: ``performance_history[vm][i].counters``.

The window and totals references are the host-by-host formulas: each
host's VMs in order, a window being the left fold of the VM's last
``window`` samples, the totals being each host's newest rows summed
(``block.sum(axis=0)``) and the host sums added in host order.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.counters import N_COUNTERS, CounterSample
from repro.metrics.store import sample_row


class EagerHistories:
    """Per-VM sample lists with the amortised trim, recorded eagerly."""

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.histories: Dict[str, List[CounterSample]] = {}

    def ensure(self, name: str) -> None:
        self.histories.setdefault(name, [])

    def record(
        self, names: Sequence[str], block: np.ndarray, epoch_seconds: float
    ) -> None:
        for name, row in zip(names, np.asarray(block).tolist()):
            self.append(name, CounterSample(*row, epoch_seconds=epoch_seconds))

    def append(self, name: str, sample: CounterSample) -> None:
        history = self.histories.setdefault(name, [])
        history.append(sample)
        if self.limit is not None and len(history) > 2 * self.limit:
            del history[: len(history) - self.limit]


def reference_histories(host) -> Dict[str, Sequence[CounterSample]]:
    """VM -> eager history on ``host``: the ground-truth samples of a
    host tracking performance, else its materialised lazy histories."""
    if host.track_performance:
        return {
            name: [perf.counters for perf in history]
            for name, history in host.performance_history.items()
        }
    return {name: list(history) for name, history in host.counter_history.items()}


def fold(samples: Sequence[CounterSample]) -> Tuple[np.ndarray, np.ndarray]:
    """``(window_sum, latest)`` rows: a left fold in epoch order."""
    acc = sample_row(samples[0])
    for sample in samples[1:]:
        acc = acc + sample_row(sample)
    return acc, sample_row(samples[-1])


def reference_windows(cluster, window: int) -> Dict[str, List[CounterSample]]:
    """Every resident VM's last ``window`` samples on its host."""
    out = {}
    for host in cluster.hosts.values():
        histories = reference_histories(host)
        for name in host.vms:
            if histories.get(name):
                out[name] = list(histories[name][-window:])
    return out


def reference_window_view(cluster, window: int):
    """``(vm_names, latest, window_sum)`` assembled host by host."""
    windows = reference_windows(cluster, window)
    names = tuple(windows)
    if not names:
        empty = np.empty((0, N_COUNTERS))
        return names, empty, empty
    folds = [fold(samples) for samples in windows.values()]
    return (
        names,
        np.vstack([latest for _, latest in folds]),
        np.vstack([acc for acc, _ in folds]),
    )


def reference_totals(cluster) -> np.ndarray:
    """The newest epoch's counter totals, host by host: each populated
    host's newest rows summed, the sums added in host order."""
    total = np.zeros(N_COUNTERS)
    for host in cluster.hosts.values():
        histories = reference_histories(host)
        rows = [sample_row(histories[name][-1]) for name in host.vms if histories[name]]
        if rows:
            total += np.array(rows).sum(axis=0)
    return total


def assert_view_matches(cluster, window: int) -> None:
    """The cluster's columnar window equals the host-by-host reference
    bit for bit, and its scalar windows equal the reference samples."""
    view = cluster.counter_window_view(window)
    names, latest, window_sum = reference_window_view(cluster, window)
    assert view.vm_names == names
    assert np.array_equal(view.latest, latest)
    assert np.array_equal(view.window_sum, window_sum)
    windows = cluster.counter_windows(window)
    assert windows == reference_windows(cluster, window)


def assert_histories_match(cluster) -> None:
    """Every host's lazy histories equal its reference histories."""
    for host in cluster.hosts.values():
        want = reference_histories(host)
        assert set(host.counter_history) == set(want), host.name
        for name, history in host.counter_history.items():
            assert len(history) == len(want[name]), (host.name, name)
            assert list(history) == list(want[name]), (host.name, name)


def assert_fleet_matches_reference(fleet, windows=(1, 2, 3)) -> None:
    """Histories, windows and views of every shard of an in-process
    fleet equal the eager reference."""
    for shard in fleet.shards.values():
        assert_histories_match(shard.cluster)
        for window in windows:
            assert_view_matches(shard.cluster, window)
