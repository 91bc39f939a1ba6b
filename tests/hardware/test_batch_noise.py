"""Measurement noise of the batch substrate, bit for bit.

``simulate_epoch_batch`` draws one standard-normal block per noisy host
and scales all noisy rows at once.  The counters must be the exact bits
of the per-host loop it replaced (one ``normal(0, sigma)`` block per
host, kept below as the oracle), and every host's generator must end
the epoch in the same state.  The scalar machine's one-draw noise is
pinned the same way against its former per-counter loop.
"""

import numpy as np
import pytest

from repro.hardware.batch import (
    N_COUNTERS,
    BatchBuffers,
    ClusterLayout,
    DemandMatrix,
    simulate_epoch_batch,
)
from repro.hardware.demand import ResourceDemand
from repro.hardware.machine import PhysicalMachine
from repro.hardware.specs import XEON_X5472
from repro.metrics.counters import COUNTER_NAMES, CounterSample


def _loop_noise(counters, layout, active, noise_rngs):
    """The per-host noise loop of earlier versions (the oracle)."""
    host = layout.host_of_vm
    bounds = np.searchsorted(host, np.arange(layout.n_hosts + 1))
    for h, (noise, rng) in enumerate(noise_rngs):
        if noise <= 0:
            continue
        lo, hi = int(bounds[h]), int(bounds[h + 1])
        if lo == hi:
            continue
        rows = lo + np.nonzero(active[lo:hi])[0]
        if rows.size == 0:
            continue
        factors = 1.0 + rng.normal(0.0, noise, size=(rows.size, N_COUNTERS))
        counters[rows] = np.maximum(0.0, counters[rows] * factors)


def _demand(rng, active=True):
    return ResourceDemand(
        instructions=float(rng.uniform(1e8, 4e9)) if active else 0.0,
        vcpus=int(rng.integers(1, 3)),
        working_set_mb=float(rng.uniform(1.0, 400.0)),
        loads_pki=float(rng.uniform(100.0, 400.0)),
        l1_miss_pki=float(rng.uniform(1.0, 40.0)),
        disk_mb=float(rng.uniform(0.0, 50.0)),
        network_mbit=float(rng.uniform(0.0, 200.0)),
    )


class _Epoch:
    """A batch epoch over hosts with the given VM counts."""

    def __init__(self, seed, vm_counts, inactive=0.0):
        rng = np.random.default_rng(seed)
        machine = PhysicalMachine(spec=XEON_X5472, noise=0.0)
        demands = []
        plans = []
        for k in vm_counts:
            host = {
                f"vm{j}": _demand(rng, active=rng.random() >= inactive)
                for j in range(k)
            }
            plans.append(machine.batch_plan(host))
            demands.extend(host.values())
        self.layout = ClusterLayout.assemble(
            plans, XEON_X5472.architecture.cache_domains
        )
        self.demands = DemandMatrix.from_demands(demands)
        self.caps = np.ones(len(demands))

    def run(self, noise_rngs, buffers=None):
        return simulate_epoch_batch(
            XEON_X5472,
            self.demands,
            self.layout,
            1.0,
            self.caps,
            noise_rngs,
            buffers=buffers,
        ).counters

    def oracle(self, noise_rngs):
        """Noise-free counters with the loop's noise applied."""
        counters = self.run([(0.0, rng) for _, rng in noise_rngs]).copy()
        _loop_noise(counters, self.layout, self.demands.instructions > 0, noise_rngs)
        return counters


def _rngs(sigmas, seed):
    return [
        (sigma, np.random.default_rng([seed, h])) for h, sigma in enumerate(sigmas)
    ]


def _assert_same(actual, expected, rngs_a, rngs_b):
    assert actual.tobytes() == expected.tobytes()
    for (_, a), (_, b) in zip(rngs_a, rngs_b):
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", range(8))
def test_every_row_noisy_matches_the_loop(seed):
    epoch = _Epoch(seed, [3, 5, 1, 4])
    sigmas = [0.01, 0.2, 2.0, 0.05]
    got_rngs, want_rngs = _rngs(sigmas, seed), _rngs(sigmas, seed)
    _assert_same(epoch.run(got_rngs), epoch.oracle(want_rngs), got_rngs, want_rngs)


@pytest.mark.parametrize("seed", range(8))
def test_quiet_hosts_idle_rows_and_empty_hosts(seed):
    """Noise-0 hosts beside noisy ones, zero-instruction rows, hosts
    without VMs and hosts whose every row is idle."""
    epoch = _Epoch(seed, [4, 0, 3, 2, 0, 5, 1], inactive=0.4)
    sigmas = [0.1, 0.3, 0.0, 1.5, 0.2, 0.0, 0.7]
    got_rngs, want_rngs = _rngs(sigmas, seed), _rngs(sigmas, seed)
    _assert_same(epoch.run(got_rngs), epoch.oracle(want_rngs), got_rngs, want_rngs)


def test_all_rows_idle_or_quiet_draws_nothing():
    epoch = _Epoch(3, [2, 3], inactive=1.0)
    rngs = _rngs([0.5, 0.5], 3)
    before = [rng.bit_generator.state for _, rng in rngs]
    counters = epoch.run(rngs)
    assert not counters.any()
    assert [rng.bit_generator.state for _, rng in rngs] == before


def test_buffer_reuse_across_epochs_and_a_row_count_change():
    """Reused buffers give the loop's bits epoch after epoch, and again
    after the row count (and the noisy-row count) changes."""
    buffers = BatchBuffers()
    sigmas = [0.1, 0.0, 0.4]
    got_rngs, want_rngs = _rngs(sigmas, 11), _rngs(sigmas, 11)
    for vm_counts, inactive in (
        ([3, 2, 4], 0.0),
        ([3, 2, 4], 0.0),
        ([3, 2, 4], 0.5),
        ([5, 1, 6], 0.0),
        ([2, 0, 1], 0.3),
    ):
        epoch = _Epoch(len(vm_counts) + sum(vm_counts), vm_counts, inactive)
        got = epoch.run(got_rngs, buffers=buffers).copy()
        _assert_same(got, epoch.oracle(want_rngs), got_rngs, want_rngs)


def test_reseed_between_epochs():
    """Generators are read from ``noise_rngs`` every epoch, so a host
    reseeded between epochs draws from its new generator."""
    epoch = _Epoch(5, [2, 3])
    buffers = BatchBuffers()
    got = [PhysicalMachine(noise=0.2, seed=h) for h in range(2)]
    want = [PhysicalMachine(noise=0.2, seed=h) for h in range(2)]
    for step in range(3):
        if step == 1:
            for machines in (got, want):
                machines[1].reseed(99)
        got_rngs = [(m.noise, m._rng) for m in got]
        want_rngs = [(m.noise, m._rng) for m in want]
        counters = epoch.run(got_rngs, buffers=buffers).copy()
        _assert_same(counters, epoch.oracle(want_rngs), got_rngs, want_rngs)


@pytest.mark.parametrize("count", [1, 3])
def test_noise_rngs_must_match_the_host_count(count):
    epoch = _Epoch(0, [1, 2])
    with pytest.raises(ValueError, match=f"{count} entries.*2 hosts"):
        epoch.run(_rngs([0.1] * count, 0))


def _loop_apply_noise(machine, sample):
    """``PhysicalMachine._apply_noise`` of earlier versions (the oracle)."""
    values = {}
    for name, value in sample.as_dict().items():
        factor = 1.0 + machine._rng.normal(0.0, machine.noise)
        values[name] = max(0.0, value * factor)
    return CounterSample.from_mapping(values, epoch_seconds=sample.epoch_seconds)


@pytest.mark.parametrize("sigma", [0.01, 0.3, 2.0])
def test_scalar_noise_matches_the_per_counter_loop(sigma):
    """One draw of all counters: same bits (zero counters and large
    sigma included, where ``-0.0`` must clamp to ``0.0``) and the same
    generator state as one draw per counter."""
    rng = np.random.default_rng(int(sigma * 100))
    for trial in range(200):
        values = rng.random(N_COUNTERS) * 1e9
        values[rng.random(N_COUNTERS) < 0.3] = 0.0
        sample = CounterSample(*values.tolist(), epoch_seconds=0.5)
        got = PhysicalMachine(noise=sigma, seed=trial)
        want = PhysicalMachine(noise=sigma, seed=trial)
        a = got._apply_noise(sample)
        b = _loop_apply_noise(want, sample)
        for name in COUNTER_NAMES:
            assert np.float64(a[name]).tobytes() == np.float64(b[name]).tobytes()
        assert a.epoch_seconds == b.epoch_seconds
        assert got._rng.bit_generator.state == want._rng.bit_generator.state
