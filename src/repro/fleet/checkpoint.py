"""Versioned fleet checkpoints: snapshot a live run, resume it anywhere.

A :class:`Checkpoint` is the durable form of a running fleet: a small
schema-validated JSON metadata header (kind, epoch, executor topology,
shard inventory) plus a pickled state payload — the shard objects
themselves (clusters, DeepDive deployments, counter-store rings and RNG
states travel inside them, exactly as they already do to process
workers), the stress schedule, the lifecycle timeline and its
accumulated per-shard state, and optionally the run summary so far.
Because pickled shard state is proven to evolve bit-identically across
executors (the process-equivalence property tests), a run resumed from a
checkpoint at any epoch is bit-identical to an uninterrupted one —
pinned by ``tests/property/test_checkpoint_equivalence.py``.

On disk the format is::

    16-byte magic | u32 version | u32 meta length | meta JSON | payload

written atomically (write-then-rename), so a crash mid-checkpoint never
leaves a half-written file where a resume would find it.  Everything
about the file is validated loudly: :meth:`Checkpoint.load` refuses bad
magic, truncated headers and any version but the current one, and
:func:`validate_checkpoint_file` (the CI schema gate) names every
metadata violation at once, optionally deep-checking that the payload
unpickles and agrees with the header's shard inventory.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.fleet.executor import EXECUTOR_KINDS

#: File magic: fixed 16 bytes, so a foreign file is refused on read one.
CHECKPOINT_MAGIC = b"REPRO-FLEET-CKPT"

#: Current checkpoint format version (bump on incompatible change).
#: Version 4 sandboxes number their clones with a plain int; version 3
#: files (whose clone counters pickle an ``itertools.count``, which
#: Python 3.14 cannot unpickle), version 2 files (whose summaries pickle
#: the removed per-VM fleet report) and version 1 files (hosts and
#: clusters before the counter ring) are refused.
CHECKPOINT_VERSION = 4

#: Checkpoint kinds :meth:`~repro.fleet.fleet.Fleet.resume` reads.
#: Every snapshot is written as ``"fleet"`` (with ``meta.regions`` set
#: for a partitioned fleet).
CHECKPOINT_KINDS = ("fleet",)

#: Keys every checkpoint payload dict carries.
PAYLOAD_KEYS = (
    "shards",
    "schedule",
    "timeline",
    "admission",
    "record_decisions",
    "lifecycle_state",
    "summary",
    "extra",
)

_HEADER = struct.Struct(">II")


class CheckpointError(ValueError):
    """A checkpoint file, header or metadata block failed validation."""


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write-then-rename, so resume never sees a half-written file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _check_meta(meta: Mapping[str, object]) -> List[str]:
    """Every schema violation in ``meta`` (empty when valid)."""
    problems: List[str] = []
    if not isinstance(meta, Mapping):
        return [f"metadata must be a mapping, got {type(meta).__name__}"]

    def _int(name: str, minimum: int = 0) -> Optional[int]:
        value = meta.get(name)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{name}: expected an integer, got {value!r}")
            return None
        if value < minimum:
            problems.append(f"{name}: {value} must be >= {minimum}")
            return None
        return value

    _int("version", minimum=1)
    kind = meta.get("kind")
    if kind not in CHECKPOINT_KINDS:
        problems.append(f"kind: {kind!r} not in {CHECKPOINT_KINDS}")
    _int("epoch")
    executor = meta.get("executor")
    if executor not in EXECUTOR_KINDS:
        problems.append(f"executor: {executor!r} not in {EXECUTOR_KINDS}")
    max_workers = meta.get("max_workers")
    if max_workers is not None and (
        not isinstance(max_workers, int)
        or isinstance(max_workers, bool)
        or max_workers < 1
    ):
        problems.append(f"max_workers: {max_workers!r} must be None or >= 1")
    shard_ids = meta.get("shard_ids")
    if (
        not isinstance(shard_ids, (list, tuple))
        or not shard_ids
        or not all(isinstance(sid, str) and sid for sid in shard_ids)
    ):
        problems.append("shard_ids: expected a non-empty list of shard id strings")
        shard_ids = None
    elif len(set(shard_ids)) != len(shard_ids):
        problems.append("shard_ids: duplicate shard ids")
    _int("total_vms")
    _int("total_hosts")
    for name in ("has_lifecycle", "has_summary", "has_extra"):
        if not isinstance(meta.get(name), bool):
            problems.append(f"{name}: expected a boolean, got {meta.get(name)!r}")
    created = meta.get("created_unix")
    if not isinstance(created, (int, float)) or isinstance(created, bool):
        problems.append(f"created_unix: expected a timestamp, got {created!r}")

    # Optional degraded-run manifest (absent in pre-supervision
    # checkpoints): shards a quarantined worker took out of the run —
    # they are, by construction, not in the snapshotted shard inventory.
    missing = meta.get("missing_shards")
    if missing is not None:
        if not isinstance(missing, (list, tuple)) or not all(
            isinstance(sid, str) and sid for sid in missing
        ):
            problems.append(
                "missing_shards: expected a list of shard id strings"
            )
        elif len(set(missing)) != len(missing):
            problems.append("missing_shards: duplicate shard ids")
        elif shard_ids is not None:
            overlap = sorted(set(missing) & set(shard_ids))
            if overlap:
                problems.append(
                    "missing_shards: "
                    f"{overlap} also appear in shard_ids — a shard cannot "
                    "be both snapshotted and missing"
                )

    regions = meta.get("regions")
    if regions is not None:
        if not isinstance(regions, list) or not regions:
            problems.append("regions: expected null or a non-empty region list")
        else:
            covered: List[str] = []
            for i, entry in enumerate(regions):
                if not isinstance(entry, Mapping):
                    problems.append(f"regions[{i}]: expected a mapping")
                    continue
                region_id = entry.get("region_id")
                if not isinstance(region_id, str) or not region_id:
                    problems.append(f"regions[{i}]: region_id must be a string")
                region_shards = entry.get("shard_ids")
                if not isinstance(region_shards, (list, tuple)) or not region_shards:
                    problems.append(
                        f"regions[{i}]: shard_ids must be a non-empty list"
                    )
                else:
                    covered.extend(region_shards)
                workers = entry.get("max_workers")
                if workers is not None and (
                    not isinstance(workers, int)
                    or isinstance(workers, bool)
                    or workers < 1
                ):
                    problems.append(
                        f"regions[{i}]: max_workers {workers!r} must be None or >= 1"
                    )
            if shard_ids is not None and covered and covered != list(shard_ids):
                problems.append(
                    "regions: concatenated region shard_ids do not reproduce "
                    "the checkpoint's shard order"
                )
    return problems


def validate_checkpoint_meta(meta: Mapping[str, object]) -> None:
    """Raise :class:`CheckpointError` naming every metadata violation."""
    problems = _check_meta(meta)
    if problems:
        raise CheckpointError(
            "invalid checkpoint metadata: " + "; ".join(problems)
        )


@dataclass(frozen=True)
class Checkpoint:
    """One resumable fleet state: validated metadata + pickled payload.

    Produced by ``Fleet.snapshot()`` and consumed by
    ``Fleet.resume()``.  The payload stays opaque bytes until
    :meth:`state` unpickles it — every call builds a *fresh* object
    graph, so two resumes from one checkpoint never alias state.
    """

    meta: Dict[str, object] = field(repr=True)
    payload: bytes = field(repr=False)

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return str(self.meta["kind"])

    @property
    def epoch(self) -> int:
        return int(self.meta["epoch"])  # type: ignore[arg-type]

    @property
    def version(self) -> int:
        return int(self.meta["version"])  # type: ignore[arg-type]

    def state(self) -> Dict[str, object]:
        """Unpickle the payload into a fresh state dict (never cached)."""
        state = pickle.loads(self.payload)
        if not isinstance(state, dict):
            raise CheckpointError(
                f"checkpoint payload unpickled to {type(state).__name__}, "
                "expected a state dict"
            )
        return state

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, meta: Dict[str, object], state: Dict[str, object]
    ) -> "Checkpoint":
        """Validate ``meta`` and pickle ``state`` into a checkpoint."""
        meta = dict(meta)
        meta.setdefault("version", CHECKPOINT_VERSION)
        meta.setdefault("created_unix", time.time())
        validate_checkpoint_meta(meta)
        return cls(
            meta=meta,
            payload=pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def to_bytes(self) -> bytes:
        validate_checkpoint_meta(self.meta)
        meta_blob = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        return b"".join(
            (
                CHECKPOINT_MAGIC,
                _HEADER.pack(self.version, len(meta_blob)),
                meta_blob,
                self.payload,
            )
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Atomically persist the checkpoint (write-then-rename)."""
        path = Path(path)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_bytes(path, self.to_bytes())
        return path

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        header_len = len(CHECKPOINT_MAGIC) + _HEADER.size
        if len(blob) < header_len:
            raise CheckpointError(
                f"checkpoint truncated: {len(blob)} bytes is shorter than "
                f"the {header_len}-byte header"
            )
        if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError(
                "bad magic: not a repro fleet checkpoint file"
            )
        version, meta_len = _HEADER.unpack_from(blob, len(CHECKPOINT_MAGIC))
        if version > CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} is newer than the supported "
                f"version {CHECKPOINT_VERSION}"
            )

        if len(blob) < header_len + meta_len:
            raise CheckpointError(
                "checkpoint truncated: metadata block extends past the file"
            )
        try:
            meta = json.loads(blob[header_len : header_len + meta_len])
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"unreadable checkpoint metadata: {exc}") from exc
        validate_checkpoint_meta(meta)
        if int(meta["version"]) != version:
            raise CheckpointError(
                f"header version {version} disagrees with metadata version "
                f"{meta['version']}"
            )
        if version < CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} is older than the supported "
                f"version {CHECKPOINT_VERSION}; its pickled state predates "
                "the current fleet state and report layout and cannot be "
                "resumed"
            )
        return cls(meta=meta, payload=blob[header_len + meta_len :])

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Checkpoint":
        """Read and validate a checkpoint file (header + metadata)."""
        path = Path(path)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        try:
            return cls.from_bytes(blob)
        except CheckpointError as exc:
            raise CheckpointError(f"{path.name}: {exc}") from exc


def validate_checkpoint_file(
    path: Union[str, Path], deep: bool = False
) -> Dict[str, object]:
    """Validate a checkpoint file and return its metadata.

    The shallow pass (default) checks magic, version, header integrity
    and the full metadata schema — cheap enough for CI to gate every
    produced checkpoint on.  ``deep=True`` additionally unpickles the
    payload and cross-checks it against the header: all payload keys
    present, shard inventory identical to ``meta["shard_ids"]``, and the
    ``has_lifecycle`` / ``has_summary`` flags truthful.
    """
    checkpoint = Checkpoint.load(path)
    if not deep:
        return dict(checkpoint.meta)
    name = Path(path).name
    try:
        state = checkpoint.state()
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"{name}: payload does not unpickle ({exc})") from exc
    problems: List[str] = []
    missing = sorted(set(PAYLOAD_KEYS) - set(state))
    if missing:
        problems.append(f"payload missing keys: {missing}")
    shards = state.get("shards")
    if isinstance(shards, list):
        shard_ids = [getattr(shard, "shard_id", None) for shard in shards]
        if shard_ids != list(checkpoint.meta["shard_ids"]):
            problems.append(
                "payload shard inventory disagrees with metadata shard_ids"
            )
    else:
        problems.append("payload shards: expected a list of FleetShard objects")
    if bool(checkpoint.meta["has_lifecycle"]) != (state.get("timeline") is not None):
        problems.append("has_lifecycle flag disagrees with the payload timeline")
    if bool(checkpoint.meta["has_summary"]) != (state.get("summary") is not None):
        problems.append("has_summary flag disagrees with the payload summary")
    if problems:
        raise CheckpointError(f"{name}: " + "; ".join(problems))
    return dict(checkpoint.meta)
