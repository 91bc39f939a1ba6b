"""Worker supervision for the process shard executor.

PR 6's failure semantics were detect-and-refuse: a dead worker marked
the :class:`~repro.fleet.executor.ProcessShardExecutor` broken and every
later epoch raised.  This module closes the loop into self-healing,
treating fault handling and state restoration as first-class subsystem
concerns (the Slick stance) rather than error paths:

* a :class:`FaultPolicy` on the fleet turns worker death — or a worker
  that stops making epoch progress past the ``heartbeat_timeout``
  deadline — into a supervised recovery: the worker's pool is respawned,
  its shards rehydrated from the last per-worker snapshot (taken every
  ``resnapshot_every`` epochs, or the run-start template), the missed
  epochs replayed deterministically through the lifecycle and stress
  schedule, and the failed epoch re-run — so the recovered run is
  **bit-identical** to an undisturbed one (pinned by
  ``tests/property/test_fault_recovery_equivalence.py``);
* when the per-worker ``restarts`` budget is exhausted,
  ``on_exhaustion`` picks the terminal behaviour: ``"raise"`` breaks the
  run loudly (naming the dead shards and the resume path), while
  ``"quarantine"`` degrades gracefully — the dead worker's shards are
  excluded from every later epoch and reports carry an explicit
  ``missing_shards`` manifest instead of silently shrinking.

Replay determinism rests on two facts the equivalence suites already
pin: the per-epoch ``analyze`` flag is the only epoch parameter that
changes worker-resident state (report flattening is a pure read), and
lifecycle/stress mutations are deterministic functions of the epoch
number and that state.  The supervisor therefore records the analyze
history and replays it verbatim.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.fleet.telemetry import C_QUARANTINED, C_RECOVERIES, C_RESTARTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.executor import ColumnarShardReport, ProcessShardExecutor

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
        Cadence (in completed epochs) of per-worker state snapshots
        kept for recovery.  ``None`` recovers from the run-start
        template (replaying the whole history); small values bound the
        replay length at the cost of a per-cadence snapshot pickle.
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
    so dashboards can always show the worker panel; the supervisor adds
    restart/quarantine transitions.
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


@dataclass
class GroupSnapshot:
    """One worker group's recovery point.

    ``blob`` is the worker's pickled ``(shards, lifecycle_state)``
    snapshot; ``None`` means the parent's start-of-run template (which
    the parent already holds, so nothing is retained).  ``epoch`` is
    the first epoch *not* captured — replay starts there.
    """

    epoch: int
    blob: Optional[bytes] = None


class WorkerSupervisor:
    """Recovery bookkeeping and orchestration for one process executor.

    The executor owns the mechanics (pools, readers, payloads); the
    supervisor owns the policy decisions — what to recover from, how
    many epochs to replay, when to give up — and drives the executor's
    respawn/replay/quarantine hooks.
    """

    def __init__(self, policy: FaultPolicy, executor: "ProcessShardExecutor") -> None:
        self.policy = policy
        self._executor = executor
        self._snapshots: Dict[int, GroupSnapshot] = {}
        #: Per-epoch analyze flags since the workers spawned (replay input).
        self._analyze: Dict[int, bool] = {}
        self._base_epoch: Optional[int] = None
        #: (kind, worker, epoch) transitions, oldest first.
        self.events: List[Tuple[str, int, int]] = []

    # ------------------------------------------------------------------
    def note_epoch(self, epoch: int, analyze: bool) -> None:
        """Record one epoch's replay inputs before it runs."""
        if self._base_epoch is None:
            # The workers' template state corresponds to the first epoch
            # ever submitted (a resumed fleet starts past zero).
            self._base_epoch = epoch
            for group in range(self._executor.workers):
                self._snapshots[group] = GroupSnapshot(epoch=epoch)
        self._analyze[epoch] = analyze

    def after_epoch(self, epoch: int) -> None:
        """Refresh the recovery snapshots on the configured cadence.

        A snapshot that cannot be fetched (the worker died right after
        returning its epoch) is skipped: the stale snapshot stays valid,
        recovery just replays a little further back.
        """
        every = self.policy.resnapshot_every
        if not every or self._base_epoch is None:
            return
        if (epoch - self._base_epoch + 1) % every != 0:
            return
        for group, blob in self._executor._fetch_group_snapshots():
            if blob is not None:
                self._snapshots[group] = GroupSnapshot(epoch=epoch + 1, blob=blob)

    def replay_timeout(self, steps: int) -> Optional[float]:
        """Deadline for a replay batch: the heartbeat budget per epoch."""
        if self.policy.heartbeat_timeout is None:
            return None
        return self.policy.heartbeat_timeout * max(1, steps)

    # ------------------------------------------------------------------
    def recover(
        self,
        group: int,
        epoch: int,
        analyze: bool,
        cause: BaseException,
    ) -> Optional[List[Tuple[str, "ColumnarShardReport"]]]:
        """Recover one failed worker group and re-run the failed epoch.

        Returns the epoch's shard results on success, ``None`` when the
        group was quarantined, and raises :class:`RuntimeError` when the
        restart budget is exhausted under ``on_exhaustion="raise"``.
        """
        executor = self._executor
        health = executor._health[group]
        health.alive = False
        telemetry = getattr(executor, "_telemetry", None)
        if telemetry is not None:
            telemetry.inc(C_RECOVERIES)
        span = (
            telemetry.span("recovery", epoch)
            if telemetry is not None
            else nullcontext()
        )
        with span:
            while health.restarts < self.policy.restarts:
                health.restarts += 1
                if self.policy.backoff:
                    time.sleep(self.policy.backoff)
                snapshot = self._snapshots[group]
                try:
                    executor._respawn_group(group, snapshot, fired_through=epoch)
                    steps = [
                        (e, self._analyze[e])
                        for e in range(snapshot.epoch, epoch)
                    ]
                    executor._replay_group(
                        group, steps, timeout=self.replay_timeout(len(steps))
                    )
                    pairs = executor._run_group_epoch(
                        group,
                        epoch,
                        analyze,
                        timeout=self.policy.heartbeat_timeout,
                    )
                except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                    cause = exc
                    continue
                health.alive = True
                health.beat(epoch)
                self.events.append(("WORKER_RESTARTED", group, epoch))
                if telemetry is not None:
                    telemetry.inc(C_RESTARTS)
                    telemetry.log_event(
                        "worker_restarted",
                        worker=group,
                        epoch=epoch,
                        restarts=health.restarts,
                    )
                return pairs
            shard_ids = ", ".join(executor._groups[group])
            if self.policy.on_exhaustion == "quarantine":
                executor._quarantine_group(group)
                self.events.append(("SHARDS_QUARANTINED", group, epoch))
                if telemetry is not None:
                    telemetry.inc(
                        C_QUARANTINED, len(executor._groups[group])
                    )
                    telemetry.log_event(
                        "shards_quarantined",
                        worker=group,
                        epoch=epoch,
                        shards=list(executor._groups[group]),
                    )
                return None
            executor._mark_group_dead(group)
            raise RuntimeError(
                f"fleet worker {group} (shards: {shard_ids}) failed at epoch "
                f"{epoch} and its restart budget ({self.policy.restarts}) is "
                "exhausted; the run cannot continue — resume from the last "
                "checkpoint (Fleet.resume) or set "
                "FaultPolicy(on_exhaustion='quarantine') to degrade gracefully"
            ) from cause
