"""Fleet benchmark entry point.

    python3 bench/run.py --workload steady_2k --seed 7
    python3 bench/run.py --workload interference_1k --seed 7 --trace 1
    python3 bench/run.py --workload all --seed 7 --out results/base

Prints every metric by name and unit, the output checks and a decision
digest; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or the per-layer ones with ``--trace 1``).  Each
workload runs in a fresh interpreter (``all`` starts one per workload).
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _pin_to_one_cpu() -> None:
    """Run this process, its threads and every process it starts on one CPU.

    On the 2-vCPU bench host a hand-off between the parent and a worker
    on different vCPUs waits for the hypervisor to wake the idle one,
    which made process-workload epochs 15-60% slower and their spread
    between runs 0.15-0.27.  Called before NumPy is imported, so its
    threads inherit the mask too.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _stop_children() -> None:
    """End every process this one started, and wait for each.

    The fleet's shutdown joins its workers, but a run that failed
    part-way may leave some; they are terminated here.  Multiprocessing's
    resource tracker, which the process executor's pool locks and shared
    memory start, would otherwise outlive this process until it reads
    end-of-file on its pipe, so it is stopped and reaped too.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def _parser(workloads) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=float,
        help="accepted, for callers that pass a run length, and ignored: "
        "each workload times a fixed number of epochs, so two commits "
        "always time the same load",
    )
    parser.add_argument(
        "--trace",
        type=int,
        default=0,
        choices=(0, 1),
        help="1: report the per-layer breakdown instead of the end-to-end metrics",
    )
    parser.add_argument(
        "--out", type=Path, help="directory for the JSON result (and Chrome trace)"
    )
    return parser


def _run_all(args: argparse.Namespace, workloads) -> int:
    """One fresh interpreter per workload, so no heap or peak RSS carries over."""
    results = {}
    for name in workloads:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--trace", str(args.trace),
        ]
        if args.out is not None:
            command += ["--out", str(args.out)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        results[name] = json.loads(lines[-1])
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(
            f"error: {SRC_DIR} holds no repro package; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    _pin_to_one_cpu()
    try:
        return _run(argv)
    finally:
        _stop_children()


def _run(argv) -> int:
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    from fleetbench.workloads import WORKLOADS

    args = _parser(WORKLOADS).parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    from fleetbench.runner import (
        DEFAULT_TRACE_DIR,
        run_timed,
        run_traced,
        summary_lines,
        write_result,
    )

    workload = WORKLOADS[args.workload]
    if args.trace:
        trace_dir = args.out if args.out is not None else DEFAULT_TRACE_DIR
        trace_path = trace_dir / f"{workload.name}-s{args.seed}.chrome.json"
        result = run_traced(workload, args.seed, trace_path)
    else:
        result = run_timed(workload, args.seed)
    for line in summary_lines(result):
        print(line)
    if args.out is not None:
        print(f"  wrote {write_result(result, args.out)}")
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
