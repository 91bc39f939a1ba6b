"""Comparable keys of fleet reports and run summaries, and a
shared-memory leak probe scoped to a test's own workers.

The equivalence suites compare runs by what the warning system decided
for every (shard, VM) each epoch.  A fleet report carries those
decisions as columns (:class:`~repro.fleet.executor.ColumnarShardReport`);
:func:`decision_key` reads them into plain Python values, so two runs
agree exactly when their keys compare equal.

Transport segment names embed the pid of the process that created them,
so :class:`WorkerPids` checks only the segments of the processes a test
ran — any other process fleet live on the machine is left out.
"""

import os
from typing import Dict, List, Tuple

from repro.fleet.executor import WARNING_ACTIONS
from repro.fleet.shm import SEGMENT_PREFIX, leaked_segments

#: (action, distance, siblings consulted, siblings agreeing, confirmed).
Decision = Tuple[str, float, int, int, bool]


def decision_key(report) -> Dict[Tuple[str, str], Decision]:
    """Every (shard, VM) decision of one fleet report, exact distances
    included."""
    key: Dict[Tuple[str, str], Decision] = {}
    for shard_id, shard in report.shard_reports.items():
        rows = zip(
            shard.vm_names,
            shard.action_codes.tolist(),
            shard.distances.tolist(),
            shard.siblings_consulted.tolist(),
            shard.siblings_agreeing.tolist(),
            shard.confirmed.tolist(),
        )
        for vm_name, code, distance, consulted, agreeing, confirmed in rows:
            key[(shard_id, vm_name)] = (
                WARNING_ACTIONS[code],
                distance,
                consulted,
                agreeing,
                confirmed,
            )
    return key


def without_distances(key: Dict[Tuple[str, str], Decision]) -> Dict:
    """A decision key without the distances, for runs whose counters
    agree only within a tolerance (the scalar and batch substrates)."""
    return {
        vm: (action, consulted, agreeing, confirmed)
        for vm, (action, _, consulted, agreeing, confirmed) in key.items()
    }


def summary_key(summary) -> Tuple:
    """A :class:`~repro.fleet.FleetRunSummary`'s running totals."""
    return (
        summary.epochs,
        summary.observations,
        summary.analyzer_invocations,
        summary.confirmed_interference,
        summary.action_histogram,
    )


class WorkerPids:
    """The pids whose transport segments a test owns: the test process
    (in-process writers) and every worker of the fleets it noted.

    ``fleets`` are noted at construction.  Note a fleet after it
    spawned its workers and again after any epoch that may have
    respawned one, so killed and respawned workers are both checked.
    """

    def __init__(self, *fleets) -> None:
        self.pids = {os.getpid()}
        for fleet in fleets:
            self.note(fleet)

    def note(self, fleet) -> None:
        """Record ``fleet``'s current worker pids."""
        self.pids.update(row["pid"] for row in fleet.worker_health() if row["pid"])

    def leaked(self) -> List[str]:
        """This test's transport segments still in ``/dev/shm``."""
        prefixes = tuple(f"{SEGMENT_PREFIX}-{pid}-" for pid in self.pids)
        return [name for name in leaked_segments() if name.startswith(prefixes)]
