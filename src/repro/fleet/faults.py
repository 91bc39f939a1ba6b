"""Deterministic fault injection for the process shard executor.

Self-healing code is only trustworthy if its failure paths are
exercised on purpose: a :class:`FaultPlan` is a seeded, fully
deterministic schedule of worker failures — SIGKILL at a chosen point
of a chosen epoch, a hang that stops epoch progress, a corrupted or
delayed shared-memory descriptor — that the executor injects into its
own workers.  The chaos test suite
(``tests/fleet/test_fault_injection.py``), the recovery property tests
and the ``FLEET_SMOKE_CHAOS=1`` CI leg all drive the process executor's
worker-failure path (policy in :mod:`repro.fleet.supervisor`) through
plans built here, so the recovery contract ("bit-identical to an
undisturbed run") is pinned against real worker deaths, not mocks.

Plans are injected either programmatically (``Fleet(fault_plan=...)``)
or through the :data:`ENV_FAULT_PLAN` environment variable, whose JSON
value is parsed by :meth:`FaultPlan.from_json` — either an explicit
``{"faults": [...]}`` list or a seeded ``{"seed": ..., "epochs": ...,
"workers": ..., "kills": ...}`` generator spec.  Faults target workers
by group index; each worker's init payload carries only its own slice
(:meth:`FaultPlan.for_worker`), and a respawned worker's slice drops
the faults it already fired (:meth:`FaultPlan.after_epoch`) so a kill
does not re-fire during deterministic replay.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.shm import ShmEpochDescriptor

#: Supported fault kinds.
FAULT_KINDS = ("kill", "hang", "corrupt_descriptor", "delay_descriptor")

#: Where inside an epoch a ``kill``/``hang`` fault fires: before the
#: lifecycle/stress mutations, mid-epoch (shards advanced, results not
#: yet shipped), or after the columnar buffers are written.
FAULT_POINTS = ("before", "mid", "after")

#: Environment hook: a JSON fault-plan spec injected into every process
#: executor built without an explicit plan (the CI chaos leg's knob).
ENV_FAULT_PLAN = "REPRO_FLEET_FAULT_PLAN"


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled failure of one worker.

    ``seconds`` is the sleep length for ``hang`` and
    ``delay_descriptor`` faults (a hang defaults to effectively forever
    — the fault policy's heartbeat deadline is what ends it).
    """

    kind: str
    worker: int
    epoch: int
    point: str = "before"
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; choose from {FAULT_POINTS}"
            )
        if self.worker < 0:
            raise ValueError("worker index must be >= 0")
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")
        if self.seconds <= 0:
            raise ValueError("seconds must be > 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of :class:`WorkerFault`\\ s.

    Immutable and picklable: the executor slices it per worker into the
    init payloads, and the worker side fires it from inside
    ``_worker_run_epoch``.  An empty plan is falsy.
    """

    faults: Tuple[WorkerFault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        epochs: int,
        workers: int,
        kills: int = 1,
        hangs: int = 0,
        corruptions: int = 0,
        delays: int = 0,
        hang_seconds: float = 3600.0,
        delay_seconds: float = 0.2,
    ) -> "FaultPlan":
        """A seeded random plan: same seed, same faults, every time."""
        if epochs < 1 or workers < 1:
            raise ValueError("generate needs at least one epoch and one worker")
        rng = np.random.default_rng(seed)
        faults = []
        for kind, count in (
            ("kill", kills),
            ("hang", hangs),
            ("corrupt_descriptor", corruptions),
            ("delay_descriptor", delays),
        ):
            for _ in range(count):
                faults.append(
                    WorkerFault(
                        kind=kind,
                        worker=int(rng.integers(workers)),
                        epoch=int(rng.integers(epochs)),
                        point=FAULT_POINTS[int(rng.integers(len(FAULT_POINTS)))],
                        seconds=(
                            hang_seconds
                            if kind == "hang"
                            else delay_seconds
                            if kind == "delay_descriptor"
                            else 3600.0
                        ),
                    )
                )
        return cls(faults=tuple(faults))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan spec: a ``{"faults": [...]}`` list of
        :class:`WorkerFault` fields, or a seeded :meth:`generate` spec
        (any mapping with a ``"seed"`` key)."""
        data = json.loads(text)
        if not isinstance(data, Mapping):
            raise ValueError(
                f"fault plan spec must be a JSON object, got {type(data).__name__}"
            )
        if "seed" in data:
            return cls.generate(**{str(k): v for k, v in data.items()})
        entries = data.get("faults")
        if not isinstance(entries, list):
            raise ValueError("fault plan spec needs a 'faults' list or a 'seed'")
        return cls(
            faults=tuple(
                WorkerFault(**{str(k): v for k, v in entry.items()})
                for entry in entries
            )
        )

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """The :data:`ENV_FAULT_PLAN` plan, or ``None`` when unset."""
        spec = (environ if environ is not None else os.environ).get(ENV_FAULT_PLAN)
        if not spec:
            return None
        return cls.from_json(spec)

    # ------------------------------------------------------------------
    # Slicing (parent side)
    # ------------------------------------------------------------------
    def for_worker(self, worker: int) -> "FaultPlan":
        """The plan slice shipped inside one worker's init payload."""
        return FaultPlan(faults=tuple(f for f in self.faults if f.worker == worker))

    def after_epoch(self, epoch: int) -> "FaultPlan":
        """Drop faults scheduled at or before ``epoch``.

        Applied when a worker is respawned after failing epoch
        ``epoch``: the faults up to there already fired (or were
        overtaken by the failure), and replay must not re-fire them.
        """
        return FaultPlan(faults=tuple(f for f in self.faults if f.epoch > epoch))

    # ------------------------------------------------------------------
    # Firing (worker side)
    # ------------------------------------------------------------------
    def fire(self, epoch: int, point: str) -> None:
        """Fire this worker's ``kill``/``hang`` faults due at ``(epoch,
        point)`` — called from inside the worker's epoch function."""
        for fault in self.faults:
            if fault.epoch != epoch or fault.point != point:
                continue
            if fault.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif fault.kind == "hang":
                time.sleep(fault.seconds)

    def mangle(
        self, epoch: int, descriptor: "ShmEpochDescriptor"
    ) -> "ShmEpochDescriptor":
        """Apply descriptor faults due at ``epoch`` to an outgoing
        columnar descriptor: delay its delivery, or corrupt the segment
        name so the parent's attach fails."""
        for fault in self.faults:
            if fault.epoch != epoch:
                continue
            if fault.kind == "delay_descriptor":
                time.sleep(fault.seconds)
            elif fault.kind == "corrupt_descriptor":
                descriptor = replace(
                    descriptor, segment=descriptor.segment + "-corrupt"
                )
        return descriptor
