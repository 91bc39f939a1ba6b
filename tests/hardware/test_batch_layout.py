"""``ClusterLayout.assemble`` equals a host-by-host concatenation.

The layout is assembled with one concatenation per field and per-host
offsets repeated over the rows; after a placement change it is spliced
from the previous layout, re-reading only the moved hosts' plans.
Either way the arrays must be exactly those of shifting and
concatenating each host's plan in host order.
"""

import numpy as np
import pytest

from repro.hardware.batch import ClusterLayout, HostBatchPlan

FIELDS = ("host_of_vm", "n_cores", "pair_vm", "pair_domain", "pair_weight")


def _plan(rng, n_vms):
    pairs = int(rng.integers(0, 2 * n_vms + 1)) if n_vms else 0
    return HostBatchPlan(
        n_vms=n_vms,
        n_cores=rng.integers(1, 5, n_vms).astype(float),
        pair_vm=np.sort(rng.integers(0, max(n_vms, 1), pairs)).astype(np.intp),
        pair_domain=rng.integers(0, 2, pairs).astype(np.intp),
        pair_weight=rng.random(pairs),
    )


def _host_by_host(plans, cache_domains):
    offsets = np.cumsum([0] + [plan.n_vms for plan in plans])
    return {
        "host_of_vm": np.concatenate(
            [np.full(plan.n_vms, h, dtype=np.intp) for h, plan in enumerate(plans)]
        ),
        "n_cores": np.concatenate([plan.n_cores for plan in plans]),
        "pair_vm": np.concatenate(
            [plan.pair_vm + offsets[h] for h, plan in enumerate(plans)]
        ),
        "pair_domain": np.concatenate(
            [plan.pair_domain + h * cache_domains for h, plan in enumerate(plans)]
        ),
        "pair_weight": np.concatenate([plan.pair_weight for plan in plans]),
    }


@pytest.mark.parametrize("seed", range(20))
def test_assembly_equals_host_by_host_concatenation(seed):
    rng = np.random.default_rng(seed)
    plans = [
        _plan(rng, int(rng.integers(0, 4))) for _ in range(int(rng.integers(1, 40)))
    ]
    cache_domains = int(rng.integers(1, 5))
    layout = ClusterLayout.assemble(plans, cache_domains)
    expected = _host_by_host(plans, cache_domains)
    for name in FIELDS:
        actual = getattr(layout, name)
        assert actual.dtype == expected[name].dtype, name
        assert np.array_equal(actual, expected[name]), name
    assert layout.n_hosts == len(plans)
    assert layout.n_domains == len(plans) * cache_domains


def test_all_hosts_empty():
    layout = ClusterLayout.assemble([_plan(np.random.default_rng(0), 0)] * 3, 2)
    assert layout.n_hosts == 3 and layout.n_domains == 6
    assert layout.host_of_vm.size == 0 and layout.pair_vm.size == 0
    assert layout.host_of_vm.dtype == np.intp and layout.pair_vm.dtype == np.intp


def test_empty_plan_list():
    layout = ClusterLayout.assemble([], 2)
    assert layout.n_hosts == 0 and layout.host_of_vm.size == 0


def _assert_layout(layout, plans, cache_domains):
    expected = _host_by_host(plans, cache_domains)
    for name in FIELDS:
        actual = getattr(layout, name)
        assert actual.dtype == expected[name].dtype, name
        assert np.array_equal(actual, expected[name]), name
    counts = [plan.n_vms for plan in plans]
    pairs = [plan.pair_vm.size for plan in plans]
    assert layout.row_bounds.tolist() == np.cumsum([0] + counts).tolist()
    assert layout.pair_bounds.tolist() == np.cumsum([0] + pairs).tolist()


@pytest.mark.parametrize("seed", range(20))
def test_splice_equals_host_by_host_concatenation(seed):
    """A chain of placement changes, each spliced from the previous
    layout: random moved subsets (emptied hosts among them), a change
    that moves every host and one that moves none."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    cache_domains = int(rng.integers(1, 5))
    plans = [_plan(rng, int(rng.integers(0, 4))) for _ in range(n)]
    layout = ClusterLayout.assemble(plans, cache_domains)
    _assert_layout(layout, plans, cache_domains)
    for step in range(8):
        if step == 3:
            moved = list(range(n))
        elif step == 5:
            moved = []
        else:
            k = int(rng.integers(1, n + 1))
            moved = sorted(rng.choice(n, size=k, replace=False).tolist())
        for h in moved:
            # One in three moved hosts is emptied.
            emptied = rng.random() < 1 / 3
            plans[h] = _plan(rng, 0 if emptied else int(rng.integers(1, 5)))
        layout = ClusterLayout.assemble(plans, cache_domains, layout, moved)
        _assert_layout(layout, plans, cache_domains)


def test_splice_rejects_a_different_host_count_or_unsorted_moves():
    rng = np.random.default_rng(2)
    plans = [_plan(rng, 2) for _ in range(3)]
    layout = ClusterLayout.assemble(plans, 2)
    with pytest.raises(ValueError, match="3 hosts, plans 2"):
        ClusterLayout.assemble(plans[:2], 2, layout, [0])
    with pytest.raises(ValueError, match="ascending"):
        ClusterLayout.assemble(plans, 2, layout, [2, 0])
