"""Fleet lifecycle timelines: declarative VM churn and load dynamics.

A :class:`FleetTimeline` describes how a datacenter *changes* while
DeepDive watches it — tenants arriving and departing, hosts drained for
maintenance and returned to service, offered load breathing through
diurnal phases and spiking in flash crowds.  The timeline is purely
declarative data: every event carries the epoch it fires at, the shard
it belongs to and everything needed to apply it (arrival events carry
fully constructed workload objects, seeded at *build* time), so a
compiled timeline is deterministic and picklable — the properties the
process shard executor and the equivalence contracts rely on.

:meth:`FleetTimeline.compile` groups the events into per-epoch
:class:`EpochBatch` objects (one tuple per event kind, in the documented
in-epoch apply order) that the
:class:`~repro.fleet.lifecycle.LifecycleEngine` executes before each
simulation step.

Two generators cover the common shapes:

* :func:`churn_timeline` — open-ended tenant churn: arrival epochs are
  drawn from the :mod:`repro.queueing.arrivals` processes (Poisson or
  the burstier lognormal, as in the paper's figs. 13-14), lifetimes
  from an exponential distribution, workloads from a weighted mix;
* :meth:`FleetTimeline.from_trace` — trace-driven load replay: a
  :class:`~repro.workloads.traces.LoadTrace` (e.g. the HotMail-like
  diurnal trace) becomes a sequence of quantised :class:`LoadPhase`
  events scaling every shard's baseline loads.

Both are deterministic in their seeds; identical timelines produce
bit-identical fleet evolutions across substrates and executor
strategies (``tests/property/test_lifecycle_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.queueing.arrivals import (
    ArrivalProcess,
    LognormalArrivals,
    PoissonArrivals,
)
from repro.workloads.base import Workload
from repro.workloads.cloud import (
    DataAnalyticsWorkload,
    DataServingWorkload,
    WebSearchWorkload,
)
from repro.workloads.traces import LoadTrace

#: Workload factories timeline arrivals (and scenario builds) draw from.
ARRIVAL_WORKLOADS: Dict[str, Callable[[Optional[int]], Workload]] = {
    "data_serving": lambda seed: DataServingWorkload(seed=seed),
    "web_search": lambda seed: WebSearchWorkload(seed=seed),
    "data_analytics": lambda seed: DataAnalyticsWorkload(seed=seed),
}


# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VMArrival:
    """A tenant VM arrives and asks to be admitted to ``shard``.

    With ``host=None`` (the usual case) the lifecycle engine's
    interference-aware admission policy picks the host; a named host
    pins the placement (and is validated instead).  The workload object
    is constructed when the timeline is built, so applying the event
    draws no randomness.
    """

    epoch: int
    shard: str
    vm_name: str
    workload: Workload
    load: float
    vcpus: int = 2
    memory_gb: float = 2.0
    host: Optional[str] = None

    def __post_init__(self) -> None:
        _check_epoch(self)
        if not self.vm_name:
            raise ValueError("vm_name must be non-empty")
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("arrival load must be in [0, 1]")
        if self.vcpus < 1:
            raise ValueError("vcpus must be at least 1")
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")


@dataclass(frozen=True)
class VMDeparture:
    """A tenant VM leaves the fleet (its histories are retained)."""

    epoch: int
    shard: str
    vm_name: str

    def __post_init__(self) -> None:
        _check_epoch(self)
        if not self.vm_name:
            raise ValueError("vm_name must be non-empty")


@dataclass(frozen=True)
class HostDrain:
    """Take ``host`` out of service for maintenance.

    Resident VMs are migrated off through the existing migration path
    (destinations vetted by the admission policy); the drained host is
    excluded from admission until a :class:`HostReturn`.
    """

    epoch: int
    shard: str
    host: str

    def __post_init__(self) -> None:
        _check_epoch(self)
        if not self.host:
            raise ValueError("host must be non-empty")


@dataclass(frozen=True)
class HostReturn:
    """Return a drained ``host`` to service (admission sees it again)."""

    epoch: int
    shard: str
    host: str

    def __post_init__(self) -> None:
        _check_epoch(self)
        if not self.host:
            raise ValueError("host must be non-empty")


@dataclass(frozen=True)
class LoadPhase:
    """Set a shard's diurnal load scale.

    Every baseline load (the value set at build or arrival time) is
    multiplied by ``scale`` from this epoch on, until the next phase
    event; effective loads are clipped to ``[0, 1]``.
    """

    epoch: int
    shard: str
    scale: float

    def __post_init__(self) -> None:
        _check_epoch(self)
        if self.scale <= 0.0:
            raise ValueError("phase scale must be positive")


@dataclass(frozen=True)
class FlashCrowd:
    """A multiplicative load surge over ``[epoch, end_epoch)``.

    Stacks on top of the active :class:`LoadPhase` scale (and on other
    overlapping flash crowds); loads are always recomputed from the
    baseline values, so surges compose and unwind exactly.
    """

    epoch: int
    shard: str
    end_epoch: int
    scale: float

    def __post_init__(self) -> None:
        _check_epoch(self)
        if self.end_epoch <= self.epoch:
            raise ValueError("flash crowd needs end_epoch > epoch")
        if self.scale <= 0.0:
            raise ValueError("flash crowd scale must be positive")


LifecycleEvent = Union[
    VMArrival, VMDeparture, HostDrain, HostReturn, LoadPhase, FlashCrowd
]


def _check_epoch(event) -> None:
    if event.epoch < 0:
        raise ValueError(f"event epoch must be non-negative: {event!r}")
    if not event.shard:
        raise ValueError(f"event shard must be non-empty: {event!r}")


# ----------------------------------------------------------------------
# Compiled per-epoch batches
# ----------------------------------------------------------------------
@dataclass
class EpochBatch:
    """One epoch's lifecycle events, grouped by kind.

    The groups are stored (and applied) in the engine's documented
    in-epoch order: departures, drains, returns, load-phase changes,
    flash-crowd starts/ends, then arrivals — so arrivals are admitted
    against post-maintenance capacity and never race a same-epoch
    departure of the same name.  Within each group, events keep the
    timeline's insertion order.
    """

    departures: Tuple[VMDeparture, ...] = ()
    drains: Tuple[HostDrain, ...] = ()
    returns: Tuple[HostReturn, ...] = ()
    phases: Tuple[LoadPhase, ...] = ()
    flash_starts: Tuple[FlashCrowd, ...] = ()
    flash_ends: Tuple[FlashCrowd, ...] = ()
    arrivals: Tuple[VMArrival, ...] = ()

    def __len__(self) -> int:
        return (
            len(self.departures)
            + len(self.drains)
            + len(self.returns)
            + len(self.phases)
            + len(self.flash_starts)
            + len(self.flash_ends)
            + len(self.arrivals)
        )


# ----------------------------------------------------------------------
# The timeline
# ----------------------------------------------------------------------
@dataclass
class FleetTimeline:
    """An ordered collection of lifecycle events."""

    events: List[LifecycleEvent] = field(default_factory=list)

    def add(self, event: LifecycleEvent) -> "FleetTimeline":
        self.events.append(event)
        return self

    def extend(self, events: Sequence[LifecycleEvent]) -> "FleetTimeline":
        self.events.extend(events)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def shard_ids(self) -> Tuple[str, ...]:
        """Shards referenced by at least one event, sorted."""
        return tuple(sorted({event.shard for event in self.events}))

    def horizon(self) -> int:
        """First epoch after which the timeline is fully played out."""
        horizon = 0
        for event in self.events:
            last = event.end_epoch if isinstance(event, FlashCrowd) else event.epoch
            horizon = max(horizon, last + 1)
        return horizon

    def subset(self, shard_ids: Sequence[str]) -> "FleetTimeline":
        """The events belonging to ``shard_ids`` (insertion order kept).

        The process shard executor ships each worker exactly its own
        shards' events, so workers never see (or validate) state they
        do not own.
        """
        members = set(shard_ids)
        return FleetTimeline(
            events=[event for event in self.events if event.shard in members]
        )

    def compile(self) -> Dict[int, EpochBatch]:
        """Group the events into per-epoch :class:`EpochBatch` columns.

        A :class:`FlashCrowd` contributes twice: a start entry at its
        ``epoch`` and an end entry at its ``end_epoch`` (the engine
        recomputes loads from the baselines on both edges, so stacked
        surges unwind exactly).  Insertion order is preserved within
        each group, making the compiled timeline — and everything the
        engine derives from it — deterministic.
        """
        grouped: Dict[int, Dict[str, List[LifecycleEvent]]] = {}

        def bucket(epoch: int, kind: str, event: LifecycleEvent) -> None:
            grouped.setdefault(epoch, {}).setdefault(kind, []).append(event)

        for event in self.events:
            if isinstance(event, VMDeparture):
                bucket(event.epoch, "departures", event)
            elif isinstance(event, HostDrain):
                bucket(event.epoch, "drains", event)
            elif isinstance(event, HostReturn):
                bucket(event.epoch, "returns", event)
            elif isinstance(event, LoadPhase):
                bucket(event.epoch, "phases", event)
            elif isinstance(event, FlashCrowd):
                bucket(event.epoch, "flash_starts", event)
                bucket(event.end_epoch, "flash_ends", event)
            elif isinstance(event, VMArrival):
                bucket(event.epoch, "arrivals", event)
            else:  # pragma: no cover - guarded by the Union type
                raise TypeError(f"unknown lifecycle event {event!r}")
        return {
            epoch: EpochBatch(
                **{kind: tuple(events) for kind, events in kinds.items()}
            )
            for epoch, kinds in grouped.items()
        }

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: LoadTrace,
        shard_ids: Sequence[str],
        reference: Optional[float] = None,
        quantum: float = 0.05,
        start_epoch: int = 0,
    ) -> "FleetTimeline":
        """Trace-driven diurnal phases from a load-intensity trace.

        The trace value at each epoch, divided by ``reference`` (default:
        the trace mean), becomes the shard-wide :class:`LoadPhase` scale.
        Scales are quantised to multiples of ``quantum`` and an event is
        emitted only when the quantised value changes, so steady stretches
        of the trace stay event-free — and the hosts' cached demand
        matrices stay valid between phase changes.
        """
        if not shard_ids:
            raise ValueError("from_trace needs at least one shard id")
        if reference is None:
            reference = float(np.mean(trace.values))
        if reference <= 0:
            raise ValueError("trace reference level must be positive")
        scales = trace.scaled(1.0 / reference).quantized(quantum).values
        timeline = cls()
        previous: Optional[float] = None
        for i, scale in enumerate(scales.tolist()):
            scale = max(scale, quantum)
            if scale != previous:
                previous = scale
                for shard in shard_ids:
                    timeline.add(
                        LoadPhase(epoch=start_epoch + i, shard=shard, scale=scale)
                    )
        return timeline


def churn_timeline(
    shard_ids: Sequence[str],
    epochs: int,
    seed: int = 0,
    arrivals: Union[str, ArrivalProcess] = "poisson",
    arrivals_per_epoch: float = 0.5,
    epoch_seconds: float = 1.0,
    mean_lifetime_epochs: float = 32.0,
    workload_mix: Optional[Mapping[str, float]] = None,
    load_range: Tuple[float, float] = (0.4, 0.7),
    vcpus: int = 2,
    memory_gb: float = 2.0,
    name_prefix: str = "tenant",
) -> FleetTimeline:
    """Open-ended tenant churn over ``[0, epochs)``.

    Arrival epochs come from a :mod:`repro.queueing.arrivals` process
    (``"poisson"``, ``"lognormal"``, or a preconfigured instance) scaled
    to ``arrivals_per_epoch``; each arrival is assigned a shard, a
    workload drawn from ``workload_mix`` (default: the scenario mix),
    a steady-state load from ``load_range`` and an exponential lifetime
    — the departure is scheduled when it falls inside the horizon.
    Every draw happens here, at build time, from one seeded generator,
    so the returned timeline is a plain deterministic value.
    """
    if not shard_ids:
        raise ValueError("churn_timeline needs at least one shard id")
    if epochs < 1:
        raise ValueError("epochs must be positive")
    if arrivals_per_epoch <= 0:
        raise ValueError("arrivals_per_epoch must be positive")
    if mean_lifetime_epochs <= 0:
        raise ValueError("mean_lifetime_epochs must be positive")
    lo, hi = load_range
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError("load_range must satisfy 0 < low <= high <= 1")
    mix = dict(
        workload_mix
        or {"data_serving": 0.45, "web_search": 0.35, "data_analytics": 0.2}
    )
    unknown = set(mix) - set(ARRIVAL_WORKLOADS)
    if unknown:
        raise ValueError(f"unknown workloads in mix: {sorted(unknown)}")
    if not mix or sum(mix.values()) <= 0:
        raise ValueError("workload_mix needs at least one positive weight")
    vms_per_day = arrivals_per_epoch * 86_400.0 / epoch_seconds
    if isinstance(arrivals, str):
        if arrivals == "poisson":
            process: ArrivalProcess = PoissonArrivals(
                vms_per_day=vms_per_day, seed=seed
            )
        elif arrivals == "lognormal":
            process = LognormalArrivals(vms_per_day=vms_per_day, seed=seed)
        else:
            raise ValueError(
                f"unknown arrival process {arrivals!r}; "
                "choose 'poisson', 'lognormal' or pass an ArrivalProcess"
            )
    else:
        process = arrivals

    arrival_epochs = process.arrival_epochs(epochs, epoch_seconds)
    rng = np.random.default_rng(seed)
    mix_names = sorted(mix)
    weights = np.array([mix[name] for name in mix_names], dtype=float)
    weights = weights / weights.sum()
    timeline = FleetTimeline()
    for j, epoch in enumerate(arrival_epochs.tolist()):
        shard = shard_ids[int(rng.integers(0, len(shard_ids)))]
        kind = mix_names[int(rng.choice(len(mix_names), p=weights))]
        workload = ARRIVAL_WORKLOADS[kind](int(rng.integers(0, 2**31 - 1)))
        load = float(rng.uniform(lo, hi))
        lifetime = max(1, int(round(rng.exponential(mean_lifetime_epochs))))
        vm_name = f"{name_prefix}{j:05d}-{kind}"
        timeline.add(
            VMArrival(
                epoch=epoch,
                shard=shard,
                vm_name=vm_name,
                workload=workload,
                load=load,
                vcpus=vcpus,
                memory_gb=memory_gb,
            )
        )
        if epoch + lifetime < epochs:
            timeline.add(
                VMDeparture(
                    epoch=epoch + lifetime, shard=shard, vm_name=vm_name
                )
            )
    return timeline
