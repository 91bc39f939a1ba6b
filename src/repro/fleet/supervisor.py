"""Worker-failure policy for the process shard executor.

Fault handling is a first-class concern of the fleet (the Slick
stance), not an error path.  :class:`FaultPolicy` is the budget by
which :class:`~repro.fleet.executor.ProcessShardExecutor` judges every
worker failure — death, a missed ``heartbeat_timeout`` deadline, a
descriptor it cannot attach: within ``restarts`` the worker is
respawned from its last recovery point, the missed epochs are replayed
and the failed epoch re-run, **bit-identically** (pinned by
``tests/property/test_fault_recovery_equivalence.py``); past it
``on_exhaustion`` either breaks the run, naming the dead shards, or
quarantines them behind an explicit ``missing_shards`` manifest.  A
fleet without a policy has a zero-restart, raise-on-exhaustion budget.
:class:`WorkerHealth` is the per-worker row the dashboard shows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Terminal behaviours once a worker's restart budget is exhausted.
EXHAUSTION_MODES = ("raise", "quarantine")


@dataclass(frozen=True)
class FaultPolicy:
    """How a fleet treats worker death and hangs.

    Parameters
    ----------
    restarts:
        Per-worker restart budget for the whole run (0 goes straight to
        the ``on_exhaustion`` behaviour on the first failure).
    backoff:
        Seconds to wait before each respawn attempt.
    on_exhaustion:
        ``"raise"`` (break the run, naming the dead shards) or
        ``"quarantine"`` (exclude the worker's shards and degrade
        gracefully with an explicit missing-shard manifest).
    heartbeat_timeout:
        Epoch-progress deadline in seconds: a worker whose epoch result
        does not arrive within it is treated as hung, SIGKILLed and
        recovered like a death.  ``None`` disables hang detection
        (deaths are still detected via the broken pool).
    resnapshot_every:
        Cadence of the per-worker state snapshots kept for recovery:
        one after every epoch ``e`` with ``(e + 1) % resnapshot_every
        == 0``.  ``None`` recovers from the run-start template
        (replaying, and remembering, the whole history); small values
        bound the replay length at the cost of a per-cadence snapshot
        pickle.  Snapshots are taken only while the budget allows a
        restart.
    """

    restarts: int = 2
    backoff: float = 0.0
    on_exhaustion: str = "raise"
    heartbeat_timeout: Optional[float] = None
    resnapshot_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.on_exhaustion not in EXHAUSTION_MODES:
            raise ValueError(
                f"unknown on_exhaustion {self.on_exhaustion!r}; choose from {EXHAUSTION_MODES}"
            )
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be > 0 (or None)")
        if self.resnapshot_every is not None and self.resnapshot_every < 1:
            raise ValueError("resnapshot_every must be >= 1 (or None)")


@dataclass
class WorkerHealth:
    """One worker group's live health record.

    Maintained by the executor for every process fleet (policy or not),
    so dashboards can always show the worker panel, restart and
    quarantine transitions included.
    """

    worker: int
    shard_ids: Tuple[str, ...]
    pid: Optional[int] = None
    restarts: int = 0
    #: ``time.monotonic()`` of the last epoch result (or spawn).
    last_heartbeat: Optional[float] = None
    last_epoch: Optional[int] = None
    quarantined: bool = False
    alive: bool = True

    def beat(self, epoch: Optional[int] = None) -> None:
        self.last_heartbeat = time.monotonic()
        if epoch is not None:
            self.last_epoch = epoch

    def heartbeat_age(self) -> Optional[float]:
        if self.last_heartbeat is None:
            return None
        return time.monotonic() - self.last_heartbeat

    def as_dict(self) -> Dict[str, object]:
        """JSON-able row for the dashboard's worker-health panel."""
        return {
            "worker": self.worker,
            "shards": list(self.shard_ids),
            "pid": self.pid,
            "restarts": self.restarts,
            "last_heartbeat_age_seconds": self.heartbeat_age(),
            "last_epoch": self.last_epoch,
            "quarantined": self.quarantined,
            "alive": self.alive,
        }
