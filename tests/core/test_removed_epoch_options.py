"""The epoch engine and hardware substrate are not options.

The batch engine and the batch substrate are the library's one epoch
path; the per-VM forms are test references (``scalar_reference``).  The
keywords that once chose between them must fail like any unknown
keyword, so no alias or shim can come back unnoticed.
"""

import pytest

from repro.core.config import DeepDiveConfig
from repro.core.deepdive import DeepDive
from repro.fleet import build_fleet, synthesize_datacenter
from repro.fleet.fleet import FleetShard
from repro.virt.cluster import Cluster
from repro.virt.vmm import Host


def _build_fleet(**kwargs):
    return build_fleet(synthesize_datacenter(4, num_shards=1, seed=1), **kwargs)


def _deepdive(**kwargs):
    return DeepDive(Cluster(), config=DeepDiveConfig(), **kwargs)


def _run_epoch(**kwargs):
    return DeepDive(Cluster()).run_epoch(**kwargs)


def _fleet_shard(**kwargs):
    return FleetShard("shard0", Cluster(), **kwargs)


@pytest.mark.parametrize("value", ["batch", "scalar"])
@pytest.mark.parametrize(
    "make, keyword",
    [
        (_build_fleet, "engine"),
        (_build_fleet, "substrate"),
        (Cluster, "substrate"),
        (Host, "substrate"),
        (_deepdive, "engine"),
        (_run_epoch, "engine"),
        (_fleet_shard, "engine"),
    ],
    ids=[
        "build_fleet-engine",
        "build_fleet-substrate",
        "Cluster-substrate",
        "Host-substrate",
        "DeepDive-engine",
        "DeepDive.run_epoch-engine",
        "FleetShard-engine",
    ],
)
def test_removed_keyword_is_rejected(make, keyword, value):
    with pytest.raises(TypeError, match=keyword):
        make(**{keyword: value})
