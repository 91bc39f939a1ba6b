#!/usr/bin/env python
"""Run a fleet as a long-lived service: stream, dashboard, checkpoints.

The service loop drives the whole fleet run surface in one place:

* the fleet advances through the **epoch-streaming iterator**
  (``FleetDashboard.watch`` wraps ``fleet.stream`` and times every
  epoch), so memory stays constant however long the service runs;
* the **live ops dashboard** refreshes in the terminal between epochs —
  per-shard/per-region throughput, churn and admission counters,
  detections, drain status, health alerts — or emits JSON for scraping
  (``--json``);
* with ``--checkpoint-path`` the service **snapshots** the fleet every
  ``--checkpoint-every`` epochs (run summary included), and
  ``--resume`` restarts from such a checkpoint — the continuation is
  bit-identical to a run that was never interrupted, whatever executor
  either side used;
* with ``--telemetry`` the run is **profiled** through the fleet
  telemetry bus (:mod:`repro.fleet.telemetry`): phase spans, the fixed
  counter catalog and a shared registry across every layer.
  ``--metrics-path`` rewrites a Prometheus text file on every dashboard
  refresh (point a node-exporter textfile collector or any scraper at
  it), and ``--trace-path`` exports the whole run as a Chrome trace on
  shutdown — open it at https://ui.perfetto.dev.  A snapshot of a
  profiled fleet carries its counters, so a resumed service's
  ``fleet_*_total`` series stay monotone across the restart.

Try it::

    python examples/run_service.py --epochs 20
    python examples/run_service.py --executor process --workers 2 \\
        --checkpoint-path /tmp/fleet.ckpt --checkpoint-every 5
    # ctrl-C it mid-run, then:
    python examples/run_service.py --resume --checkpoint-path /tmp/fleet.ckpt
    # profiled, scrapable, traced:
    python examples/run_service.py --executor process --workers 2 \\
        --telemetry --metrics-path /tmp/fleet.prom --trace-path /tmp/fleet.trace.json
"""

import argparse
import sys
import time
from pathlib import Path

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    Checkpoint,
    Fleet,
    FleetDashboard,
    FleetRunSummary,
    InterferenceEpisode,
    RunOptions,
    TelemetryConfig,
    build_fleet,
    churn_timeline,
    synthesize_datacenter,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vms", type=int, default=96)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument(
        "--executor", choices=("serial", "process"), default="serial"
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--churn", action="store_true", help="attach a tenant-churn timeline"
    )
    parser.add_argument(
        "--refresh",
        type=int,
        default=1,
        help="render the dashboard every N epochs (0 disables)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON dashboard document per refresh instead of text",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="profile the run through the fleet telemetry bus",
    )
    parser.add_argument(
        "--metrics-path",
        default=None,
        help="rewrite a Prometheus text file here on every refresh "
        "(implies --telemetry)",
    )
    parser.add_argument(
        "--trace-path",
        default=None,
        help="export the run as a Chrome trace here on shutdown "
        "(implies --telemetry; open in Perfetto)",
    )
    parser.add_argument("--checkpoint-path", default=None)
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=5,
        help="snapshot every N epochs when --checkpoint-path is set",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint-path instead of building a fleet",
    )
    return parser.parse_args()


def build(args: argparse.Namespace):
    timeline = (
        churn_timeline(
            [f"shard{s}" for s in range(args.shards)],
            epochs=args.epochs,
            seed=17,
            arrivals="poisson",
            arrivals_per_epoch=1.0,
            mean_lifetime_epochs=10.0,
        )
        if args.churn
        else None
    )
    scenario = synthesize_datacenter(
        args.vms,
        num_shards=args.shards,
        seed=29,
        episodes=[
            InterferenceEpisode(
                shard=0, host_index=0, start_epoch=4, end_epoch=9, kind="memory"
            )
        ],
        timeline=timeline,
    )
    config = DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )
    fleet = build_fleet(
        scenario,
        config=config,
        max_workers=args.workers,
        executor=args.executor,
        telemetry=_telemetry_config(args),
    )
    fleet.bootstrap()
    return fleet


def _telemetry_config(args: argparse.Namespace):
    """``--metrics-path`` / ``--trace-path`` need the bus, so they imply
    ``--telemetry``; ``None`` leaves the untimed run path untouched
    (``REPRO_FLEET_PROFILE=1`` can still switch it on from outside)."""
    if args.telemetry or args.metrics_path or args.trace_path:
        return TelemetryConfig(enabled=True)
    return None


def main() -> None:
    args = parse_args()
    if args.resume:
        if not args.checkpoint_path:
            sys.exit("--resume needs --checkpoint-path")
        checkpoint = Checkpoint.load(args.checkpoint_path)
        # Without an explicit override the checkpoint's own telemetry
        # config (and carried counter totals) revive with the fleet.
        fleet = Fleet.resume(checkpoint, telemetry=_telemetry_config(args))
        carried = checkpoint.state().get("summary")
        summary = carried if carried is not None else FleetRunSummary()
        print(
            f"resumed at epoch {fleet.current_epoch} "
            f"({fleet.executor} executor, {summary.epochs} epochs carried)"
        )
    else:
        fleet = build(args)
        summary = FleetRunSummary()

    dashboard = FleetDashboard(fleet, slo_epoch_seconds=None)
    remaining = args.epochs - fleet.current_epoch
    if remaining <= 0:
        sys.exit(f"nothing to do: checkpoint already at epoch {fleet.current_epoch}")

    started = time.perf_counter()
    try:
        for report in dashboard.watch(remaining, RunOptions()):
            summary.accumulate(report)
            done = fleet.current_epoch
            if (
                args.checkpoint_path
                and args.checkpoint_every
                and done % args.checkpoint_every == 0
                and done < args.epochs
            ):
                fleet.snapshot(args.checkpoint_path, summary=summary)
            if args.metrics_path and done % max(args.refresh, 1) == 0:
                # Atomic rewrite: scrapers never see a torn file.
                tmp = Path(args.metrics_path).with_suffix(".tmp")
                tmp.write_text(dashboard.render_prometheus())
                tmp.replace(args.metrics_path)
            if args.refresh and done % args.refresh == 0:
                if args.json:
                    print(dashboard.to_json())
                else:
                    # Home the cursor and redraw (auto-refresh view).
                    print("\x1b[H\x1b[2J" + dashboard.render(), flush=True)
    finally:
        if args.trace_path and fleet.telemetry is not None:
            fleet.telemetry.export_chrome_trace(args.trace_path)
            print(f"chrome trace written to {args.trace_path}")
        fleet.shutdown()

    elapsed = time.perf_counter() - started
    print(
        f"\nservice ran {remaining} epoch(s) in {elapsed:.2f}s — "
        f"{summary.observations:,} observations, "
        f"{summary.confirmed_interference} confirmed, "
        f"{summary.analyzer_invocations} analyzer runs over "
        f"{summary.epochs} total epochs"
    )


if __name__ == "__main__":
    main()
