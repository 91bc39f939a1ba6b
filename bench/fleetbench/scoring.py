"""Percentiles, decision digests and the episode scorer.

The scorer joins what DeepDive did (analyses, confirmed detections,
migrations) to the episodes the workload generator injected.  A decision
is *explained* when it concerns an episode's stress VM, or a VM that was
on the episode's host when the episode started, within
``[start, end + grace)`` of the same shard; everything else is
unexplained (an upper bound on false alarms: under churn and load shifts
some of it is genuine interference the generator did not plan).
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.warning import WarningAction
from repro.fleet.executor import WARNING_ACTIONS

from fleetbench.workloads import Episode

#: Epochs after an episode ends during which its decisions still count
#: as explained (the warning window and analyzer lag behind the stress).
GRACE_EPOCHS = 3
#: A percentile is reported only with at least this many samples
#: beyond it.
MIN_SAMPLES_BEYOND = 10

_NORMAL_CODE = WARNING_ACTIONS.index(WarningAction.NORMAL.value)

#: (shard id, epoch, vm name)
Decision = Tuple[str, int, str]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused without 10 samples beyond it."""
    beyond = math.floor(len(values) * (100.0 - q) / 100.0 + 1e-9)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}"
        )
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class DecisionFold:
    """Folds columnar epoch reports as they arrive.

    Keeps a SHA-256 digest per epoch of every decision column (VM names,
    warning actions, distances, analyzed and confirmed flags) and every
    analysis; counts observations, non-normal warnings and confirmed
    analyses.
    """

    epoch_digests: List[str] = field(default_factory=list)
    analyses: List[Decision] = field(default_factory=list)
    vm_epochs: int = 0
    non_normal: int = 0
    analyzed: int = 0
    analyzed_confirmed: int = 0

    def add(self, report) -> None:
        digest = hashlib.sha256()
        for shard_id, shard in report.shard_reports.items():
            names = shard.vm_names
            digest.update(shard_id.encode())
            digest.update("\0".join(names).encode())
            for column in (
                shard.action_codes,
                shard.distances,
                shard.analyzed,
                shard.confirmed,
            ):
                digest.update(np.ascontiguousarray(column).tobytes())
            self.vm_epochs += shard.observations()
            self.non_normal += int(np.count_nonzero(shard.action_codes != _NORMAL_CODE))
            rows = np.flatnonzero(shard.analyzed)
            self.analyzed += int(rows.size)
            self.analyzed_confirmed += int(np.count_nonzero(shard.confirmed[rows]))
            self.analyses.extend(
                (shard_id, report.epoch, names[i]) for i in rows.tolist()
            )
        self.epoch_digests.append(digest.hexdigest())

    def digest(self) -> str:
        """One digest over every folded epoch, in order."""
        return hashlib.sha256("".join(self.epoch_digests).encode()).hexdigest()


def victims_at_start(
    episode: Episode,
    initial_hosts: Mapping[Tuple[str, str], Iterable[str]],
    migrations: Sequence[Tuple[str, int, str, str, str]],
) -> Set[str]:
    """VMs on the episode's host when it started.

    ``initial_hosts`` maps (shard, host) to its VMs at the first timed
    epoch; ``migrations`` are (shard, epoch, vm, source, destination) in
    order.  A migration in epoch ``e`` takes effect from epoch ``e + 1``.
    """
    on_host = set(initial_hosts.get((episode.shard, episode.host), ()))
    for shard, epoch, vm, source, destination in migrations:
        if shard != episode.shard or epoch >= episode.start:
            continue
        if source == episode.host:
            on_host.discard(vm)
        if destination == episode.host:
            on_host.add(vm)
    return on_host


def score_episodes(
    episodes: Sequence[Episode],
    initial_hosts: Mapping[Tuple[str, str], Iterable[str]],
    detections: Sequence[Decision],
    analyses: Sequence[Decision],
    migrations: Sequence[Tuple[str, int, str, str, str]],
    horizon: Tuple[int, int],
    vm_epochs: int,
    grace: int = GRACE_EPOCHS,
) -> Dict[str, Optional[float]]:
    """Detection quality over the epochs ``[horizon[0], horizon[1])``.

    ``initial_hosts`` is the placement at ``horizon[0]``, so earlier
    migrations are ignored.  Only episodes that start inside the horizon
    and whose grace window ends inside it are scored; every episode may
    explain decisions.  Recall, latency and the mitigated fraction are
    ``None`` when no episode is scored.
    """
    first, last = horizon
    migrations = [m for m in migrations if m[1] >= first]
    windows = [
        (ep, victims_at_start(ep, initial_hosts, migrations) | {ep.stress_vm})
        for ep in episodes
    ]

    def explained(decision: Decision) -> bool:
        shard, epoch, vm = decision
        return any(
            ep.shard == shard and ep.start <= epoch < ep.end + grace and vm in vms
            for ep, vms in windows
        )

    detections = [d for d in detections if first <= d[1] < last]
    analyses = [d for d in analyses if first <= d[1] < last]
    scored = [
        (ep, vms) for ep, vms in windows if ep.start >= first and ep.end + grace <= last
    ]
    latencies: List[int] = []
    mitigated = 0
    for ep, vms in scored:
        hits = [
            epoch
            for shard, epoch, vm in detections
            if shard == ep.shard and ep.start <= epoch < ep.end + grace and vm in vms
        ]
        if hits:
            latencies.append(min(hits) - ep.start)
        mitigated += any(
            shard == ep.shard
            and vm == ep.stress_vm
            and source == ep.host
            and ep.start <= epoch < ep.end
            for shard, epoch, vm, source, _ in migrations
        )
    per_1k = 1000.0 / vm_epochs if vm_epochs else 0.0
    return {
        "episodes_scored": len(scored),
        "episode_recall": len(latencies) / len(scored) if scored else None,
        "detect_latency_epochs": (
            float(statistics.median(latencies)) if latencies else None
        ),
        "mitigated_fraction": mitigated / len(scored) if scored else None,
        "unexplained_analyses_per_1k_vm_epochs": (
            sum(not explained(d) for d in analyses) * per_1k
        ),
        "unexplained_detections_per_1k_vm_epochs": (
            sum(not explained(d) for d in detections) * per_1k
        ),
    }
