"""Fleet-scale simulation on top of the batch epoch engine.

The paper evaluates DeepDive on a handful of physical machines; the
ROADMAP's north star is a production-scale system.  This package scales
the simulation to datacenter fleets: a :class:`Fleet` shards many
:class:`~repro.virt.cluster.Cluster` instances (one DeepDive deployment
each, mirroring how a real operator partitions a datacenter into
independently managed pods), drives every shard's monitoring epoch
through the vectorized :class:`~repro.metrics.matrix.MetricMatrix`
engine, and a :class:`DatacenterScenario` synthesises thousands of VMs
with mixed CloudSuite-like workloads and scheduled interference
episodes.

A fleet may partition its shards into :class:`Region` records — named,
contiguous shard groups with their own worker budgets, bit-identical to
the flat fleet — and :mod:`repro.fleet.campaign` sweeps parameter grids
of such fleets, one schema-validated columnar result file per cell.

Long-lived service operation goes through one run surface on
:class:`Fleet`: epoch streaming (``stream``), buffered/summarised runs
(``run``, ``run_summaries``) configured by typed :class:`RunOptions`,
and versioned :class:`Checkpoint` snapshot/resume (``snapshot()`` /
``Fleet.resume()``) with a bit-identical continuation guarantee.  Every
epoch, on every executor, reports one :class:`ColumnarFleetReport` of
per-shard decision columns; per-VM observations stay at the shard level
(:meth:`FleetShard.run_epoch`).  A
:class:`FleetDashboard` renders live per-shard/per-region telemetry off
the stream (see ``examples/run_service.py``).

Observability is a first-class subsystem (:mod:`repro.fleet.telemetry`):
``Fleet(telemetry=TelemetryConfig(...))`` (or ``REPRO_FLEET_PROFILE=1``)
threads one :class:`TelemetryRegistry` through every layer — tracing
spans over simulate/monitor/dispatch/merge/lifecycle/recovery, a fixed
counter catalog, Prometheus text exposition, Chrome-trace export and a
rotating JSONL event log — without changing a single decision.

``benchmarks/test_fleet_scale.py`` measures the batched epoch engine
against the scalar per-VM reference loop on these fleets and records
the speedup in the untracked ``.benchmarks/BENCH_fleet.json``.
"""

from repro.fleet.campaign import (
    CampaignCell,
    CampaignRunner,
    CampaignSchemaError,
    CampaignSpec,
    run_cell,
    validate_cell_npz,
)
from repro.fleet.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    validate_checkpoint_file,
)
from repro.fleet.dashboard import FleetDashboard
from repro.fleet.executor import (
    ColumnarFleetReport,
    ColumnarShardReport,
    ProcessShardExecutor,
    SerialShardExecutor,
)
from repro.fleet.faults import FaultPlan, WorkerFault
from repro.fleet.fleet import (
    Fleet,
    FleetRunSummary,
    FleetShard,
    Region,
    RunOptions,
)
from repro.fleet.lifecycle import AdmissionPolicy, LifecycleEngine, LifecycleStats
from repro.fleet.scenario import (
    DatacenterScenario,
    InterferenceEpisode,
    build_fleet,
    build_regional_fleet,
    partition_regions,
    synthesize_datacenter,
)
from repro.fleet.supervisor import FaultPolicy, WorkerHealth
from repro.fleet.telemetry import (
    COUNTER_NAMES,
    SPAN_KINDS,
    TelemetryConfig,
    TelemetryRegistry,
    resolve_telemetry,
)
from repro.fleet.timeline import (
    FleetTimeline,
    FlashCrowd,
    HostDrain,
    HostReturn,
    LoadPhase,
    VMArrival,
    VMDeparture,
    churn_timeline,
)

__all__ = [
    "AdmissionPolicy",
    "CHECKPOINT_VERSION",
    "CampaignCell",
    "CampaignRunner",
    "CampaignSchemaError",
    "CampaignSpec",
    "Checkpoint",
    "CheckpointError",
    "ColumnarFleetReport",
    "ColumnarShardReport",
    "FaultPlan",
    "FaultPolicy",
    "Fleet",
    "FleetDashboard",
    "RunOptions",
    "FleetRunSummary",
    "FleetShard",
    "FleetTimeline",
    "FlashCrowd",
    "HostDrain",
    "HostReturn",
    "LifecycleEngine",
    "LifecycleStats",
    "LoadPhase",
    "COUNTER_NAMES",
    "ProcessShardExecutor",
    "Region",
    "SPAN_KINDS",
    "SerialShardExecutor",
    "TelemetryConfig",
    "TelemetryRegistry",
    "VMArrival",
    "VMDeparture",
    "WorkerFault",
    "WorkerHealth",
    "DatacenterScenario",
    "InterferenceEpisode",
    "build_fleet",
    "build_regional_fleet",
    "partition_regions",
    "resolve_telemetry",
    "run_cell",
    "synthesize_datacenter",
    "validate_cell_npz",
    "validate_checkpoint_file",
    "churn_timeline",
]
