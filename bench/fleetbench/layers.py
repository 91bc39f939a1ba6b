"""Timing wrappers on the public calls of each layer, and a GC meter.

:class:`LayerTracer` patches the listed methods for the duration of a
``with`` block.  Each wrapper pushes a span on one stack, so a span's
self time is its duration minus its wrapped children's, and each
layer's self time is summed separately.  The ``nested`` hooks only
record when called directly from ``Cluster.step``: the sandbox and the
placement manager run hosts of their own, whose time belongs to the
analyzer and placement layers that called them.

Glue hooks (layer ``None``) bound the shard executor and the per-shard
epoch call.  They attribute nothing: their self time (load pushes, the
loop over shards) stays unattributed, and they keep the in-shard work
out of the parent's self time, which is then the fleet's own
orchestration.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.analyzer import InterferenceAnalyzer
from repro.core.deepdive import DeepDive
from repro.core.placement import PlacementManager
from repro.core.repository import BehaviorRepository
from repro.core.warning import WarningSystem
from repro.fleet import executor
from repro.fleet.fleet import Fleet, FleetShard
from repro.fleet.lifecycle import LifecycleEngine
from repro.hardware.batch import ClusterLayout, DemandMatrix
from repro.virt.cluster import Cluster
from repro.virt.vmm import Host

#: (owner class or module, attribute, hook name, layer).  A layer sums
#: its hooks' self times.
HOOKS: Tuple[Tuple[object, str, str, Optional[str]], ...] = (
    (Fleet, "_step_epoch", "fleet_step", "parent"),
    (executor.SerialShardExecutor, "run_shard_epochs", "shard_epochs", None),
    (FleetShard, "run_epoch", "shard_epoch", None),
    (LifecycleEngine, "apply", "lifecycle_apply", "lifecycle"),
    (executor, "apply_stress_schedule", "stress_schedule", "lifecycle"),
    (executor, "columnar_from_report", "report_assembly", "report"),
    (Cluster, "step", "cluster_step", "substrate"),
    (Cluster, "counter_window_view", "window_view", "monitor.window"),
    (WarningSystem, "evaluate_batch", "evaluate_batch", "monitor.evaluate"),
    (DeepDive, "run_epoch", "deepdive_epoch", "monitor.act"),
    (BehaviorRepository, "fit", "repository_fit", "monitor.refit"),
    (InterferenceAnalyzer, "analyze", "analyze", "analyzer"),
    (PlacementManager, "resolve_interference", "resolve", "placement"),
    (PlacementManager, "evaluate_candidate", "evaluate_candidate", "placement"),
)
#: Hooks recorded only when their caller is ``Cluster.step``.
NESTED: Tuple[Tuple[object, str, str, Optional[str]], ...] = (
    (DemandMatrix, "from_table", "demand_rebuild", "substrate"),
    (ClusterLayout, "assemble", "layout_rebuild", "substrate"),
    (Host, "commit_epoch_block", "ingest", "ingest"),
)


class LayerTracer:
    """Self time per layer and call counts per hook, while installed."""

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Open spans: [hook, layer, start, child seconds].
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(
        self, func: Callable, hook: str, layer: Optional[str], nested: bool
    ) -> Callable:
        stack = self._stack
        self_seconds = self.self_seconds
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if nested and (not stack or stack[-1][0] != "cluster_step"):
                return func(*args, **kwargs)
            span = [hook, layer, clock(), 0.0]
            stack.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - span[2]
                if layer is not None:
                    self_seconds[layer] += duration - span[3]
                calls[hook] += 1
                if stack:
                    stack[-1][3] += duration

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for hooks, nested in ((HOOKS, False), (NESTED, True)):
            for owner, name, hook, layer in hooks:
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                if isinstance(original, classmethod):
                    patched = classmethod(
                        self._wrap(original.__func__, hook, layer, nested)
                    )
                else:
                    patched = self._wrap(original, hook, layer, nested)
                setattr(owner, name, patched)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class GCMeter:
    """Counts generation-2 collections and times every collection."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._start
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GCMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)
