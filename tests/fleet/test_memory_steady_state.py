"""Steady-state memory check for long fleet runs.

With the lazy counter store, ``Fleet.run(keep_reports=False)`` holds
O(window) memory: counter telemetry lives in fixed-size per-host rings,
histories trim to ``history_limit``, and no per-epoch Python objects
accumulate.  This test pins that property with ``tracemalloc`` at tiny
scale — once the rings are warm (capacity reached, first trims done),
additional epochs must not grow traced memory.
"""

import gc
import tracemalloc

from repro.core.config import DeepDiveConfig
from repro.fleet import RunOptions, build_fleet, synthesize_datacenter

#: Generous allowance for interpreter-level noise (code objects,
#: logging internals, dict resizes) across the measured epochs — far
#: below the footprint per-epoch sample materialisation would add.
MAX_GROWTH_BYTES = 96 * 1024


def _build():
    scenario = synthesize_datacenter(12, num_shards=2, seed=29)
    config = DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )
    return build_fleet(
        scenario,
        config=config,
        engine="batch",
        substrate="batch",
        history_limit=8,
    )


def test_steady_state_memory_does_not_grow_with_epochs():
    fleet = _build()
    fleet.bootstrap()
    # Warm the rings past capacity (2 * history_limit epochs) so every
    # allocation steady state — ring buffers, caches, trims — is reached.
    fleet.run(20, RunOptions(analyze=False, keep_reports=False))

    gc.collect()
    tracemalloc.start()
    try:
        fleet.run(5, RunOptions(analyze=False, keep_reports=False))
        gc.collect()
        baseline, _ = tracemalloc.get_traced_memory()
        fleet.run(40, RunOptions(analyze=False, keep_reports=False))
        gc.collect()
        settled, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    growth = settled - baseline
    assert growth < MAX_GROWTH_BYTES, (
        f"steady-state fleet run grew traced memory by {growth} bytes "
        f"over 40 epochs (allowed {MAX_GROWTH_BYTES}); the epoch loop is "
        "accumulating per-epoch state"
    )

    # The histories really are bounded by the limit's sawtooth ceiling.
    for shard in fleet.shards.values():
        for host in shard.cluster.hosts.values():
            for history in host.counter_history.values():
                assert len(history) <= 2 * 8
