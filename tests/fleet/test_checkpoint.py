"""Checkpoint file format, schema validation and resume dispatch.

The property contract (resumed == uninterrupted) lives in
``tests/property/test_checkpoint_equivalence.py``; this file pins the
container itself: magic/header/version handling, loud metadata
validation, deep payload cross-checks, atomicity of ``save``, the
``kind`` guards, the refusal of version-1 files, and clusters
snapshotted without their placement caches.
"""

import dataclasses
import pickle
import struct

import numpy as np
import pytest

from repro.core.config import DeepDiveConfig
from repro.fleet import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    Fleet,
    RunOptions,
    build_fleet,
    build_regional_fleet,
    churn_timeline,
    synthesize_datacenter,
    validate_checkpoint_file,
)
from repro.fleet.checkpoint import (
    CHECKPOINT_MAGIC,
    validate_checkpoint_meta,
)


def _config() -> DeepDiveConfig:
    return DeepDiveConfig(
        profile_epochs=3,
        bootstrap_load_levels=3,
        bootstrap_epochs_per_level=3,
        min_normal_behaviors=8,
        placement_eval_epochs=3,
    )


def _fleet(regional=False):
    scenario = synthesize_datacenter(16, num_shards=2, seed=23)
    if regional:
        fleet = build_regional_fleet(scenario, num_regions=2, config=_config())
    else:
        fleet = build_fleet(scenario, config=_config())
    fleet.bootstrap()
    return fleet


@pytest.fixture(scope="module")
def fleet_checkpoint():
    fleet = _fleet()
    try:
        fleet.run(2, RunOptions(analyze=False))
        return fleet.snapshot()
    finally:
        fleet.shutdown()


@pytest.fixture(scope="module")
def regional_checkpoint():
    fleet = _fleet(regional=True)
    try:
        fleet.run(2, RunOptions(analyze=False))
        return fleet.snapshot()
    finally:
        fleet.shutdown()


class TestFileFormat:
    def test_bytes_roundtrip(self, fleet_checkpoint):
        reloaded = Checkpoint.from_bytes(fleet_checkpoint.to_bytes())
        assert reloaded.meta == fleet_checkpoint.meta
        assert reloaded.payload == fleet_checkpoint.payload

    def test_save_load_roundtrip(self, fleet_checkpoint, tmp_path):
        path = fleet_checkpoint.save(tmp_path / "f.ckpt")
        assert path.read_bytes()[: len(CHECKPOINT_MAGIC)] == CHECKPOINT_MAGIC
        assert not (tmp_path / "f.ckpt.tmp").exists(), "atomic write leftovers"
        reloaded = Checkpoint.load(path)
        assert reloaded.meta == fleet_checkpoint.meta
        assert reloaded.payload == fleet_checkpoint.payload

    def test_bad_magic_refused(self, fleet_checkpoint):
        blob = b"NOT-A-CHECKPOINT" + fleet_checkpoint.to_bytes()[16:]
        with pytest.raises(CheckpointError, match="magic"):
            Checkpoint.from_bytes(blob)

    def test_truncated_header_refused(self):
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.from_bytes(CHECKPOINT_MAGIC[:8])

    def test_truncated_metadata_refused(self, fleet_checkpoint):
        blob = fleet_checkpoint.to_bytes()
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.from_bytes(blob[: len(CHECKPOINT_MAGIC) + 8 + 4])

    def test_future_version_refused(self, fleet_checkpoint):
        blob = bytearray(fleet_checkpoint.to_bytes())
        blob[16:20] = struct.pack(">I", CHECKPOINT_VERSION + 1)
        with pytest.raises(CheckpointError, match="newer"):
            Checkpoint.from_bytes(bytes(blob))

    def test_version_1_refused(self, fleet_checkpoint):
        """Version 1 pickled hosts and clusters before the cluster's
        counter ring; such a file is refused, naming both versions."""
        assert CHECKPOINT_VERSION == 3
        old = Checkpoint(
            meta={**fleet_checkpoint.meta, "version": 1},
            payload=fleet_checkpoint.payload,
        )
        with pytest.raises(ValueError, match="version 1 is older.*version 3"):
            Checkpoint.from_bytes(old.to_bytes())

    def test_version_2_refused(self, fleet_checkpoint):
        """Version 2 summaries pickled the removed per-VM fleet report;
        such a file is refused with a CheckpointError naming both
        versions."""
        old = Checkpoint(
            meta={**fleet_checkpoint.meta, "version": 2},
            payload=fleet_checkpoint.payload,
        )
        with pytest.raises(CheckpointError, match="version 2 is older.*version 3"):
            Checkpoint.from_bytes(old.to_bytes())

    def test_header_metadata_version_disagreement_refused(self, fleet_checkpoint):
        blob = bytearray(fleet_checkpoint.to_bytes())
        # Doctor only the binary header version; the JSON metadata keeps
        # the real one, so the two disagree.
        blob[16:20] = struct.pack(">I", 0)
        with pytest.raises(CheckpointError, match="disagrees"):
            Checkpoint.from_bytes(bytes(blob))

    def test_state_unpickles_fresh_each_call(self, fleet_checkpoint):
        a = fleet_checkpoint.state()
        b = fleet_checkpoint.state()
        assert a is not b
        assert a["shards"][0] is not b["shards"][0]

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="junk.ckpt"):
            Checkpoint.load(path)


class TestMetaValidation:
    def test_valid_meta_accepted(self, fleet_checkpoint):
        validate_checkpoint_meta(fleet_checkpoint.meta)

    @pytest.mark.parametrize(
        "patch,fragment",
        [
            ({"kind": "galactic"}, "kind"),
            ({"epoch": -1}, "epoch"),
            ({"executor": "fibers"}, "executor"),
            ({"max_workers": 0}, "max_workers"),
            ({"shard_ids": []}, "shard_ids"),
            ({"shard_ids": ["a", "a"]}, "duplicate"),
            ({"total_vms": "many"}, "total_vms"),
            ({"has_lifecycle": "yes"}, "has_lifecycle"),
            ({"created_unix": None}, "created_unix"),
            ({"regions": [{}]}, "regions"),
        ],
    )
    def test_violations_named(self, fleet_checkpoint, patch, fragment):
        meta = {**fleet_checkpoint.meta, **patch}
        with pytest.raises(CheckpointError, match=fragment):
            validate_checkpoint_meta(meta)

    def test_all_violations_reported_at_once(self, fleet_checkpoint):
        meta = {**fleet_checkpoint.meta, "epoch": -1, "executor": "fibers"}
        with pytest.raises(CheckpointError) as excinfo:
            validate_checkpoint_meta(meta)
        assert "epoch" in str(excinfo.value)
        assert "fibers" in str(excinfo.value)

    def test_regional_meta_needs_matching_shard_order(self, regional_checkpoint):
        meta = dict(regional_checkpoint.meta)
        regions = [dict(entry) for entry in meta["regions"]]
        # Swap the two regions' shard groups: concatenation no longer
        # reproduces the checkpoint's flat shard order.
        regions[0]["shard_ids"], regions[1]["shard_ids"] = (
            regions[1]["shard_ids"],
            regions[0]["shard_ids"],
        )
        meta["regions"] = regions
        with pytest.raises(CheckpointError, match="shard order"):
            validate_checkpoint_meta(meta)

    def test_region_entries_validated_whatever_the_kind(
        self, fleet_checkpoint, regional_checkpoint
    ):
        assert regional_checkpoint.kind == "fleet"
        validate_checkpoint_meta(regional_checkpoint.meta)
        meta = {**fleet_checkpoint.meta, "regions": [{"region_id": "r"}]}
        with pytest.raises(CheckpointError, match=r"regions\[0\]: shard_ids"):
            validate_checkpoint_meta(meta)
        with pytest.raises(CheckpointError, match="non-empty region list"):
            validate_checkpoint_meta({**fleet_checkpoint.meta, "regions": []})


class TestDeepValidation:
    def test_deep_validation_passes(self, fleet_checkpoint, tmp_path):
        path = fleet_checkpoint.save(tmp_path / "f.ckpt")
        meta = validate_checkpoint_file(path, deep=True)
        assert meta["epoch"] == 2

    def test_shard_inventory_mismatch_caught(self, fleet_checkpoint, tmp_path):
        state = fleet_checkpoint.state()
        state["shards"] = state["shards"][:1]
        doctored = Checkpoint(
            meta=dict(fleet_checkpoint.meta),
            payload=pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
        )
        path = doctored.save(tmp_path / "doctored.ckpt")
        validate_checkpoint_file(path)  # shallow pass can't see it
        with pytest.raises(CheckpointError, match="inventory"):
            validate_checkpoint_file(path, deep=True)

    def test_missing_payload_keys_caught(self, fleet_checkpoint, tmp_path):
        state = fleet_checkpoint.state()
        del state["schedule"]
        doctored = Checkpoint(
            meta=dict(fleet_checkpoint.meta),
            payload=pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
        )
        path = doctored.save(tmp_path / "doctored.ckpt")
        with pytest.raises(CheckpointError, match="schedule"):
            validate_checkpoint_file(path, deep=True)

    def test_untruthful_summary_flag_caught(self, fleet_checkpoint, tmp_path):
        doctored = Checkpoint(
            meta={**fleet_checkpoint.meta, "has_summary": True},
            payload=fleet_checkpoint.payload,
        )
        path = doctored.save(tmp_path / "doctored.ckpt")
        with pytest.raises(CheckpointError, match="has_summary"):
            validate_checkpoint_file(path, deep=True)


class TestResumeDispatch:
    def test_kind_guards(self, fleet_checkpoint):
        with pytest.raises(CheckpointError, match="galactic"):
            Checkpoint.from_bytes(
                Checkpoint(
                    meta={**fleet_checkpoint.meta, "kind": "galactic"},
                    payload=fleet_checkpoint.payload,
                ).to_bytes()
            )
        with pytest.raises(CheckpointError, match="kind: 'regional' not in"):
            validate_checkpoint_meta({**fleet_checkpoint.meta, "kind": "regional"})

    def test_resume_reads_flat_and_regional(
        self, fleet_checkpoint, regional_checkpoint
    ):
        flat = Fleet.resume(fleet_checkpoint)
        regional = Fleet.resume(regional_checkpoint)
        try:
            assert flat.regions is None
            assert [r.region_id for r in regional.regions] == ["region0", "region1"]
            assert flat.current_epoch == 2
            assert regional.current_epoch == 2
        finally:
            flat.shutdown()
            regional.shutdown()

    def test_resume_overrides_executor(self, fleet_checkpoint):
        fleet = Fleet.resume(fleet_checkpoint, executor="process", max_workers=2)
        try:
            assert fleet.executor == "process"
            assert fleet.max_workers == 2
        finally:
            fleet.shutdown()

    def test_regional_resume_rebuilds_partition(self, regional_checkpoint):
        fleet = Fleet.resume(regional_checkpoint)
        try:
            assert [
                {
                    "region_id": r.region_id,
                    "shard_ids": list(r.shard_ids),
                    "max_workers": r.max_workers,
                }
                for r in fleet.regions
            ] == regional_checkpoint.meta["regions"]
            assert list(fleet.shards) == list(
                regional_checkpoint.meta["shard_ids"]
            )
        finally:
            fleet.shutdown()

    def test_build_classmethod_validates(self):
        with pytest.raises(CheckpointError):
            Checkpoint.build({"kind": "fleet"}, {"shards": []})


class TestCacheFreeClusters:
    """A snapshot whose clusters lack their placement caches (the
    per-host placement pieces, the placement map with its application
    ids, the spliced host segments, batch groups and demand tables, the
    ring slot tables) resumes by rebuilding them, with identical
    columns."""

    COLUMNAR = RunOptions()
    CLUSTER_CACHES = (
        "_placement_items",
        "_placement_view",
        "_host_segments",
        "_batch_groups",
        "_demand_tables",
        "_tables",
    )

    def _fleet(self):
        timeline = churn_timeline(
            ["shard0", "shard1"],
            epochs=10,
            seed=5,
            arrivals_per_epoch=1.0,
            mean_lifetime_epochs=4.0,
        )
        scenario = synthesize_datacenter(24, num_shards=2, seed=23, timeline=timeline)
        fleet = build_fleet(scenario, config=_config())
        fleet.bootstrap()
        return fleet

    @staticmethod
    def _columns(report):
        return {
            shard_id: {
                f.name: getattr(shard, f.name) for f in dataclasses.fields(shard)
            }
            for shard_id, shard in report.shard_reports.items()
        }

    def _assert_same(self, got, want):
        assert got.keys() == want.keys()
        for shard_id, columns in want.items():
            for name, value in columns.items():
                other = got[shard_id][name]
                if isinstance(value, np.ndarray):
                    assert np.array_equal(other, value), (shard_id, name)
                else:
                    assert other == value, (shard_id, name)

    def test_stripped_caches_resume_identically(self):
        reference = self._fleet()
        try:
            expected = [self._columns(r) for r in reference.run(8, self.COLUMNAR)]
        finally:
            reference.shutdown()

        fleet = self._fleet()
        try:
            fleet.run(4, self.COLUMNAR)
            stripped = 0
            for shard in fleet.shards.values():
                cluster = shard.cluster
                for name in self.CLUSTER_CACHES:
                    stripped += cluster.__dict__.pop(name, None) is not None
            checkpoint = fleet.snapshot()
        finally:
            fleet.shutdown()
        assert stripped == 2 * len(self.CLUSTER_CACHES)

        resumed = Fleet.resume(checkpoint)
        try:
            continued = [self._columns(r) for r in resumed.run(4, self.COLUMNAR)]
        finally:
            resumed.shutdown()
        assert len(continued) == len(expected[4:])
        for got, want in zip(continued, expected[4:]):
            self._assert_same(got, want)
