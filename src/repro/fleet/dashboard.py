"""Live ops dashboard for a streaming fleet service.

The dashboard is a pure *consumer* of the
:meth:`~repro.fleet.fleet.Fleet.stream` epoch stream: it folds each epoch
report into rolling operator telemetry — per-shard and per-region
throughput, churn and admission counters, detections, drain status and
health alerts — and renders either an auto-refreshing terminal view
(:meth:`FleetDashboard.render`) or a JSON document
(:meth:`FleetDashboard.snapshot`) for scraping.  It never buffers
reports and never drives the simulation itself, so watching a fleet
costs O(shards) memory whatever the run length — exactly what
``examples/run_service.py`` wires together.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from repro.fleet.executor import ColumnarFleetReport
from repro.fleet.fleet import Fleet, RunOptions


class FleetDashboard:
    """Rolling operator view over one fleet's epoch stream.

    Parameters
    ----------
    fleet:
        The :class:`~repro.fleet.fleet.Fleet` to watch; a fleet with
        regions additionally gets per-region rows.
    slo_epoch_seconds:
        Epoch wall-time SLO; epochs above it raise a health alert and
        are counted in ``slo_violations``.
    rejection_alert_fraction:
        Alert when the admission-rejection fraction (rejected /
        attempted arrivals) exceeds this.
    window:
        How many recent epoch wall-times the throughput figures average
        over (the dashboard's only per-epoch storage).
    """

    def __init__(
        self,
        fleet: Fleet,
        *,
        slo_epoch_seconds: Optional[float] = None,
        rejection_alert_fraction: float = 0.25,
        window: int = 64,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.fleet = fleet
        self.slo_epoch_seconds = slo_epoch_seconds
        self.rejection_alert_fraction = rejection_alert_fraction
        self.epochs_observed = 0
        self.slo_violations = 0
        self.total_observations = 0
        self.total_analyzer_invocations = 0
        self.total_confirmed = 0
        self._epoch_seconds: Deque[float] = deque(maxlen=window)
        self._last_shards: Dict[str, Dict[str, int]] = {}
        #: region id -> shard ids, when the fleet has regions.
        self._regions: Optional[Dict[str, List[str]]] = (
            {region.region_id: list(region.shard_ids) for region in fleet.regions}
            if fleet.regions is not None
            else None
        )

    # ------------------------------------------------------------------
    def observe(
        self, report: ColumnarFleetReport, epoch_seconds: Optional[float] = None
    ) -> None:
        """Fold one epoch report into the rolling telemetry."""
        self.epochs_observed += 1
        self._last_shards = {
            shard_id: {
                "observations": shard_report.observations(),
                "analyzer_invocations": shard_report.analyzer_invocations(),
                "confirmed": shard_report.confirmed_count(),
            }
            for shard_id, shard_report in report.shard_reports.items()
        }
        for numbers in self._last_shards.values():
            self.total_observations += numbers["observations"]
            self.total_analyzer_invocations += numbers["analyzer_invocations"]
            self.total_confirmed += numbers["confirmed"]
        if epoch_seconds is not None:
            self._epoch_seconds.append(float(epoch_seconds))
            if (
                self.slo_epoch_seconds is not None
                and epoch_seconds > self.slo_epoch_seconds
            ):
                self.slo_violations += 1

    def watch(
        self, epochs: int, options: Optional[RunOptions] = None
    ) -> Iterator[ColumnarFleetReport]:
        """Stream the fleet through the dashboard, timing every epoch.

        A thin wrapper over ``fleet.stream``: each epoch is timed,
        observed, and then yielded onward — so a service loop renders
        between epochs while the dashboard stays current, and abandoning
        the iterator stops the clock exactly like abandoning the stream.

        A telemetry-carrying fleet is timed from its own recorded
        ``epoch`` spans (the producer's clock) rather than this
        consumer's wall clock, so the throughput panel excludes whatever
        the service loop does between epochs — rendering, scrape
        serving, sleeping.  Fleets without telemetry keep the consumer
        wall clock.
        """
        registry = self.fleet.telemetry
        stream = self.fleet.stream(epochs, options)
        while True:
            seq_before = registry.epoch_span_seq if registry is not None else 0
            t0 = time.perf_counter()
            try:
                report = next(stream)
            except StopIteration:
                return
            elapsed = time.perf_counter() - t0
            if (
                registry is not None
                and registry.epoch_span_seq > seq_before
                and registry.last_epoch_duration is not None
            ):
                elapsed = registry.last_epoch_duration
            self.observe(report, epoch_seconds=elapsed)
            yield report

    # ------------------------------------------------------------------
    def _lifecycle_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for shard_stats in self.fleet.lifecycle_stats().values():
            for key, value in shard_stats.items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    def _worker_health(self) -> List[Dict[str, object]]:
        """The fleet's per-worker health rows (empty for a fleet too
        broken to answer)."""
        try:
            return list(self.fleet.worker_health())
        except RuntimeError:
            return []

    def alerts(self) -> List[str]:
        """Current health alerts (empty when the fleet looks healthy)."""
        alerts: List[str] = []
        workers = self._worker_health()
        restarted = [row for row in workers if row.get("restarts", 0)]
        if restarted:
            total = sum(int(row["restarts"]) for row in restarted)
            worker_ids = ", ".join(
                str(row.get("worker", "?")) for row in restarted
            )
            alerts.append(
                f"WORKER_RESTARTED: {total} restart(s) across "
                f"worker(s) {worker_ids}"
            )
        quarantined = [row for row in workers if row.get("quarantined")]
        if quarantined:
            shard_count = sum(len(row.get("shards", ())) for row in quarantined)
            worker_ids = ", ".join(
                str(row.get("worker", "?")) for row in quarantined
            )
            alerts.append(
                f"SHARDS_QUARANTINED: {shard_count} shard(s) excluded "
                f"(worker(s) {worker_ids}); the run is degraded"
            )
        if (
            self.slo_epoch_seconds is not None
            and self._epoch_seconds
            and self._epoch_seconds[-1] > self.slo_epoch_seconds
        ):
            alerts.append(
                f"SLO: last epoch took {self._epoch_seconds[-1]:.3f}s "
                f"(> {self.slo_epoch_seconds:.3f}s)"
            )
        try:
            lifecycle = self._lifecycle_totals()
        except RuntimeError as exc:
            alerts.append(f"lifecycle unavailable: {exc}")
            lifecycle = {}
        stranded = lifecycle.get("drain_stranded", 0)
        if stranded:
            alerts.append(f"drain: {stranded} VM(s) stranded on draining hosts")
        active_drains = lifecycle.get("drains", 0) - lifecycle.get("returns", 0)
        if active_drains > 0:
            alerts.append(f"drain: {active_drains} host(s) currently draining")
        admitted = lifecycle.get("arrivals_admitted", 0)
        rejected = lifecycle.get("arrivals_rejected", 0)
        attempted = admitted + rejected
        if attempted:
            fraction = rejected / attempted
            if fraction > self.rejection_alert_fraction:
                alerts.append(
                    f"admission: {fraction:.0%} of arrivals rejected "
                    f"({rejected}/{attempted})"
                )
        return alerts

    def snapshot(self) -> Dict[str, object]:
        """The whole dashboard as one JSON-able document.

        Fleet-wide statistics and lifecycle counters come from wherever
        the shard state lives; if the fleet can no longer answer
        (workers died), the document degrades to the dashboard's own
        rolling totals and carries a health alert per unanswered
        question instead of raising.
        """
        alerts = self.alerts()
        try:
            lifecycle = self._lifecycle_totals()
        except RuntimeError:  # alerts() carries the cause
            lifecycle = {}
        try:
            stats = {k: float(v) for k, v in self.fleet.stats().items()}
        except RuntimeError as exc:
            stats = None
            alerts = alerts + [f"stats unavailable: {exc}"]
        window = list(self._epoch_seconds)
        mean_seconds = sum(window) / len(window) if window else None
        last_observations = sum(
            numbers["observations"] for numbers in self._last_shards.values()
        )
        per_region: Optional[Dict[str, Dict[str, int]]] = None
        if self._regions is not None:
            per_region = {}
            for region_id, shard_ids in self._regions.items():
                rolled: Dict[str, int] = {
                    "observations": 0,
                    "analyzer_invocations": 0,
                    "confirmed": 0,
                }
                for shard_id in shard_ids:
                    for key, value in self._last_shards.get(shard_id, {}).items():
                        rolled[key] += value
                per_region[region_id] = rolled
        return {
            "epoch": int(self.fleet.current_epoch),
            "executor": self.fleet.executor,
            "epochs_observed": self.epochs_observed,
            "throughput": {
                "last_epoch_seconds": window[-1] if window else None,
                "mean_epoch_seconds": mean_seconds,
                "vm_epochs_per_second": (
                    last_observations / mean_seconds
                    if mean_seconds
                    else None
                ),
            },
            "totals": {
                "observations": self.total_observations,
                "analyzer_invocations": self.total_analyzer_invocations,
                "confirmed": self.total_confirmed,
            },
            "stats": stats,
            "lifecycle": lifecycle,
            "workers": self._worker_health(),
            "per_shard": {k: dict(v) for k, v in self._last_shards.items()},
            "per_region": per_region,
            "slo": {
                "epoch_seconds": self.slo_epoch_seconds,
                "violations": self.slo_violations,
            },
            "alerts": alerts,
        }

    def render(self) -> str:
        """The snapshot as a fixed-width terminal view."""
        doc = self.snapshot()
        throughput = doc["throughput"]
        lines: List[str] = []
        lines.append(
            f"fleet @ epoch {doc['epoch']}  "
            f"executor={doc['executor']}  observed={doc['epochs_observed']}"
        )
        if throughput["last_epoch_seconds"] is not None:
            rate = throughput["vm_epochs_per_second"]
            lines.append(
                f"epoch time {throughput['last_epoch_seconds']:.3f}s "
                f"(mean {throughput['mean_epoch_seconds']:.3f}s)"
                + (f"  {rate:,.0f} vm-epochs/s" if rate else "")
            )
        totals = doc["totals"]
        lines.append(
            f"totals: obs={totals['observations']:,}  "
            f"analyzer={totals['analyzer_invocations']:,}  "
            f"confirmed={totals['confirmed']:,}"
        )
        if doc["stats"] is not None:
            stats = doc["stats"]
            lines.append(
                f"fleet:  vms={stats.get('vms', 0):,.0f}  "
                f"detections={stats.get('detections', 0):,.0f}  "
                f"migrations={stats.get('migrations', 0):,.0f}"
            )
        lifecycle = doc["lifecycle"]
        if lifecycle:
            lines.append(
                "churn:  admitted={arrivals_admitted}  "
                "rejected={arrivals_rejected}  departures={departures}  "
                "drains={drains}/{returns} back".format(
                    **{
                        k: lifecycle.get(k, 0)
                        for k in (
                            "arrivals_admitted",
                            "arrivals_rejected",
                            "departures",
                            "drains",
                            "returns",
                        )
                    }
                )
            )
        workers = doc["workers"]
        if workers:
            lines.append(
                f"{'worker':>10}  {'pid':>8}  {'restarts':>8}  "
                f"{'beat age':>9}  {'state':>12}"
            )
            for row in workers:
                worker_id = row.get("worker", "?")
                if "region" in row:
                    worker_id = f"{row['region']}/{worker_id}"
                age = row.get("last_heartbeat_age_seconds")
                state = (
                    "quarantined"
                    if row.get("quarantined")
                    else "alive"
                    if row.get("alive")
                    else "dead"
                )
                lines.append(
                    f"{str(worker_id):>10}  {str(row.get('pid', '-')):>8}  "
                    f"{int(row.get('restarts', 0)):>8}  "
                    f"{(f'{age:.1f}s' if age is not None else '-'):>9}  "
                    f"{state:>12}"
                )
        rows = doc["per_region"] if doc["per_region"] else doc["per_shard"]
        label = "region" if doc["per_region"] else "shard"
        if rows:
            lines.append(f"{label:>10}  {'obs':>8}  {'analyzer':>8}  {'confirmed':>9}")
            for row_id, numbers in rows.items():
                lines.append(
                    f"{row_id:>10}  {numbers['observations']:>8,}  "
                    f"{numbers['analyzer_invocations']:>8,}  "
                    f"{numbers['confirmed']:>9,}"
                )
        for alert in doc["alerts"]:
            lines.append(f"ALERT: {alert}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """:meth:`snapshot` serialised (the scrape endpoint's body)."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the fleet's telemetry registry.

        Fleet-level statistics (VMs, hosts, detections, migrations, …)
        are refreshed into the registry's gauges first, so a scrape sees
        both the hot-loop counters/spans and the current fleet shape.
        Returns a comment-only document when the fleet carries no
        telemetry — a scrape endpoint stays servable either way.
        """
        registry = self.fleet.telemetry
        if registry is None:
            return "# telemetry disabled\n"
        try:
            for key, value in self.fleet.stats().items():
                registry.set_gauge(key, float(value))
        except RuntimeError:
            pass  # a broken fleet still exposes its counters and spans
        registry.set_gauge("dashboard_epochs_observed", self.epochs_observed)
        registry.set_gauge("dashboard_slo_violations", self.slo_violations)
        return registry.render_prometheus()
