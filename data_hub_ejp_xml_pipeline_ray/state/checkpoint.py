"""Lake manifest: the exactly-once commit point + high-watermark store.

The reference keeps its incremental-ingest state as a JSON dict
``{s3_key_pattern: latest_processed_LastModified}`` in a single S3
object, re-written after every file (``ejp_xml_pipeline/etl_state.py:
14-23,26-52``), and its delivery semantics are at-least-once (crash
between load and state update re-appends, ``dags/s3_xml_import_pipeline
.py:149-170``). This module upgrades that design to exactly-once
*observable* state:

* data files are immutable and content-addressed by a deterministic
  batch token, so a retried or replayed write produces the same bytes at
  the same path (idempotent);
* the only mutation readers can observe is a single atomic swap of
  ``_manifest.json`` (a :class:`~.store.Store` conditional publish —
  POSIX rename locally, conditional PUT on an object store; the commit
  protocol itself is rename-free, see :func:`commit_manifest`) — the
  manifest names the exact set of live partition files, the segment
  high watermark, the unified lake schema, per-commit lineage and
  counters;
* crash before the swap leaves the previous manifest intact; orphaned
  staging files are garbage-collected lazily (the crash-safe analog of
  delete-after-load, ``etl.py:202-213``).
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Iterator

import pyarrow as pa

from ..schemas import schema_from_json, schema_to_json
from .store import Store, resolve_store

MANIFEST_NAME = "_manifest.json"
LOCK_NAME = "_commit.lock"
DATA_DIR = "data"
SNAPSHOTS_DIR = "_snapshots"
BRANCHES_DIR = "_branches"
MAX_LINEAGE_ENTRIES = 1000
DEFAULT_LEASE_SECONDS = 120.0


class ConcurrentWriterError(RuntimeError):
    """Another writer holds the commit lock or advanced the manifest
    since this writer loaded its state. The run-serialization analog of
    the reference's Airflow-Variable run-lock
    (``dags/s3_xml_import_pipeline.py:103-132``): concurrent runs are
    REJECTED, not interleaved."""


@dataclass
class LakeManifest:
    """Committed state of one lake table."""

    num_partitions: int
    version: int = 0
    watermark: str | None = None  # last committed segment name (strictly-greater filter)
    #: per-SOURCE tailer watermarks for multi-WAL fan-in ingest
    #: (``CdcConfig.source``): each named source advances its own
    #: strictly-greater cursor atomically with the commit, so N
    #: independent WALs (shards, regions, producers) merge into one
    #: lake under the same exactly-once rules. The global ``watermark``
    #: tracks only the UNNAMED (default) source. Empty for
    #: single-source lakes — omitted from the JSON so their snapshots
    #: stay byte-stable.
    source_watermarks: dict[str, str] = field(default_factory=dict)
    schema: pa.Schema | None = None
    partitions: dict[int, str] = field(default_factory=dict)  # part -> relpath
    #: per-partition stats: {part: {"rows": n, "tombstones": n,
    #: "bytes": n, "modulus": m}} — lets maintenance (compaction /
    #: partition split) target only partitions that need it
    partition_meta: dict[int, dict[str, int]] = field(default_factory=dict)
    #: partition-split history: [residue, modulus] pairs of every parent
    #: partition that was split (partition-count EVOLUTION: a split
    #: replaces partition (r, m) by children (r, 2m) and (r+m, 2m)).
    #: The live partitions always form an exact covering of crc32
    #: space; :func:`resolve_partition` walks this map, so url ->
    #: partition routing stays stable across splits. Entries are
    #: append-only (a split is never undone) — resolution must work
    #: even for children whose data files later disappear.
    splits: list[list[int]] = field(default_factory=list)
    lineage: list[dict[str, Any]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    #: LAKE-LEVEL retention policy: how many trailing snapshot versions
    #: (and their data files) commit-time GC keeps for time travel /
    #: change feed. Stored in the manifest — not per-writer — so
    #: maintenance ops (compact/split) honor the same policy as ingest.
    #: ``None`` = keep all history until an explicit vacuum.
    retain_versions: int | None = 2
    #: row semantics of the lake: "row" = one row per url (page/nested
    #: lakes), "group" = a url's state is a SET of rows sharing one
    #: version (entity lake). Consumers that assume one row per url
    #: (``changes_between`` and everything built on it) check this and
    #: refuse group lakes instead of silently mis-diffing.
    kind: str = "row"
    #: merge-on-read deltas: {part: [relpath, ...]} — per-partition
    #: UNMERGED delta files appended by ``merge_mode="mor"`` ingest
    #: (Hudi-MOR / Paimon-LSM shape: the base file is NOT rewritten per
    #: micro-batch; readers apply LWW over base+deltas at scan time and
    #: :func:`~..pipelines.maintenance.compact_deltas` folds them back
    #: into the base). Apply order is irrelevant — LWW is decided by
    #: ``(warc_ts, seq)``, not file order. Empty dict = pure
    #: copy-on-write lake (the default; every query path is identical).
    delta_files: dict[int, list[str]] = field(default_factory=dict)
    #: metadata-only schema-evolution state (``pipelines.ddl``):
    #: append-only column-rename log ``[[old, new], ...]`` — files
    #: written before a rename still store the old name, and every
    #: file-sourced read applies :func:`..schemas.apply_renames`
    #: before conforming. Per-manifest, so time travel reads each
    #: version under its own schema.
    renames: list[list[str]] = field(default_factory=list)
    #: columns DROPPED by ``alter_lake`` — excluded from the wire-
    #: schema union forever (a producer still emitting the column
    #: cannot resurrect it), and their names are retired: name-based
    #: rename mapping stays unambiguous only because a dropped name
    #: can never be re-added.
    dropped: list[str] = field(default_factory=list)
    #: per-FILE zone maps: {relpath: {"rows": n, "cols": {col: zone}}}
    #: (column min/max/null-count read from each file's parquet FOOTER
    #: at commit time — see ``state.zones``). Keyed by the immutable
    #: content-addressed relpath, so entries never go stale: commit
    #: carries live entries forward and reads footers only for NEW
    #: files. Purely an optimization — a missing entry costs a read,
    #: never correctness (the scan re-applies every constraint).
    zones: dict[str, dict] = field(default_factory=dict)

    def split_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((int(r), int(m)) for r, m in self.splits)

    def part_files(self, part: int) -> list[str]:
        """Every live relpath holding partition ``part``'s state: the
        base file (if any) plus MOR delta files, in commit order."""
        rels = []
        base = self.partitions.get(part)
        if base is not None:
            rels.append(base)
        rels.extend(self.delta_files.get(part, []))
        return rels

    def all_parts(self) -> list[int]:
        return sorted(set(self.partitions) | set(self.delta_files))

    def all_data_relpaths(self) -> set[str]:
        """Every data relpath this snapshot references (GC live-set)."""
        live = set(self.partitions.values())
        for rels in self.delta_files.values():
            live.update(rels)
        return live

    def successor(
        self, entry: dict[str, Any], *, history: "LakeManifest | None" = None,
        **changes: Any,
    ) -> "LakeManifest":
        """The next committed manifest: every field of this one, in
        fresh containers, with ``changes`` applied, the version bumped
        and ``entry`` appended to the lineage as
        ``{"version", "committed_at", **entry}``. This is the one place
        a commit's lineage record is built.

        ``history`` (default ``self``) is the chain the commit extends:
        its ``version + 1`` and lineage. Restore, purge and publish
        take their state from another snapshot (``self``) and pass the
        current head as ``history``; clone, branch create and a first
        replica sync start a new chain from an empty manifest."""
        head = self if history is None else history
        version = head.version + 1
        fields = {
            f.name: _fresh(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }
        fields.update(
            version=version,
            lineage=[
                *_fresh(head.lineage),
                {"version": version, "committed_at": utcnow_iso(), **entry},
            ],
            **changes,
        )
        return LakeManifest(**fields)

    def fold_partition_stats(
        self, rows: list[dict[str, Any]], *, delta: bool = False,
    ) -> None:
        """Record per-partition write results ``{part, path, rows, bytes,
        tombstones}`` in place. A new base (``delta=False``) replaces
        the partition's file, drops its pending delta files (the
        rewrite folded them in) and clears their ``delta_*`` stats; a
        ``path`` of None retires the partition. An appended delta
        (``delta=True``) joins the partition's delta list and adds to
        its ``delta_*`` stats. ``modulus`` is filled in where missing,
        so maintenance can plan from the stats alone."""
        splits = self.split_set()
        for row in rows:
            part = int(row["part"])
            meta = dict(self.partition_meta.get(part, {}))
            if delta:
                rels = self.delta_files.setdefault(part, [])
                rels.append(row["path"])
                for key in ("rows", "bytes", "tombstones"):
                    meta[f"delta_{key}"] = (
                        meta.get(f"delta_{key}", 0) + int(row.get(key, 0))
                    )
                meta["delta_file_count"] = len(rels)
            else:
                self.delta_files.pop(part, None)
                if row["path"] is None:
                    self.partitions.pop(part, None)
                    self.partition_meta.pop(part, None)
                    continue
                self.partitions[part] = row["path"]
                for key in DELTA_STAT_KEYS:
                    meta.pop(key, None)
                meta.update(
                    rows=int(row["rows"]), tombstones=int(row["tombstones"]),
                    bytes=int(row["bytes"]),
                )
            meta.setdefault(
                "modulus", residue_modulus(part, self.num_partitions, splits)
            )
            self.partition_meta[part] = meta

    def to_json(self) -> dict[str, Any]:
        return {
            "format_version": 1,
            "num_partitions": self.num_partitions,
            "version": self.version,
            "watermark": self.watermark,
            **({"source_watermarks": dict(self.source_watermarks)}
               if self.source_watermarks else {}),
            "schema": None if self.schema is None else schema_to_json(self.schema),
            "partitions": {str(k): v for k, v in self.partitions.items()},
            "partition_meta": {str(k): v for k, v in self.partition_meta.items()},
            "splits": [[int(r), int(m)] for r, m in self.splits],
            "lineage": self.lineage,
            "counters": self.counters,
            "retain_versions": self.retain_versions,
            "kind": self.kind,
            # omitted when empty so pre-MOR snapshots stay byte-stable
            **({"delta_files": {
                str(k): list(v) for k, v in self.delta_files.items()
            }} if self.delta_files else {}),
            **({"zones": self.zones} if self.zones else {}),
            **({"renames": [[o, n] for o, n in self.renames]}
               if self.renames else {}),
            **({"dropped": list(self.dropped)} if self.dropped else {}),
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "LakeManifest":
        return cls(
            num_partitions=doc["num_partitions"],
            version=doc["version"],
            watermark=doc["watermark"],
            source_watermarks=dict(doc.get("source_watermarks", {})),
            schema=None if doc["schema"] is None else schema_from_json(doc["schema"]),
            partitions={int(k): v for k, v in doc["partitions"].items()},
            partition_meta={
                int(k): dict(v) for k, v in doc.get("partition_meta", {}).items()
            },
            splits=[[int(r), int(m)] for r, m in doc.get("splits", [])],
            lineage=list(doc.get("lineage", [])),
            counters=dict(doc.get("counters", {})),
            retain_versions=doc.get("retain_versions", 2),
            kind=doc.get("kind", "row"),
            delta_files={
                int(k): list(v) for k, v in doc.get("delta_files", {}).items()
            },
            zones=dict(doc.get("zones", {})),
            renames=[[o, n] for o, n in doc.get("renames", [])],
            dropped=list(doc.get("dropped", [])),
        )


#: per-partition stats of pending merge-on-read deltas; a new base
#: file folds the deltas in and clears them
DELTA_STAT_KEYS = (
    "delta_rows", "delta_bytes", "delta_file_count", "delta_tombstones",
)


def _fresh(value: Any) -> Any:
    """A copy of a manifest field with fresh containers two levels deep
    (``partition_meta`` rows, ``delta_files`` lists, ``splits`` pairs,
    lineage entries), so a successor never aliases its predecessor."""
    def one(v: Any) -> Any:
        return v.copy() if isinstance(v, (dict, list)) else v

    if isinstance(value, dict):
        return {k: one(v) for k, v in value.items()}
    if isinstance(value, list):
        return [one(v) for v in value]
    return value


def resolve_partition(
    crc: int, num_partitions: int, splits: frozenset[tuple[int, int]]
) -> int:
    """Route a url's crc32 to its live partition residue under the
    split map: start at ``crc % P`` and, while the current
    ``(residue, modulus)`` was split, descend to ``crc % (2*modulus)``.
    Terminates in O(max split depth)."""
    m = num_partitions
    r = crc % m
    while (r, m) in splits:
        m *= 2
        r = crc % m
    return r


def residue_modulus(
    residue: int, num_partitions: int, splits: frozenset[tuple[int, int]]
) -> int:
    """Modulus of a live partition residue under the split map (the
    inverse bookkeeping of :func:`resolve_partition`): descend from P
    doubling while the prefix residue was split."""
    m = num_partitions
    cur = residue % m
    while (cur, m) in splits:
        m *= 2
        cur = residue % m
    return m


def manifest_path(lake_dir: str) -> str:
    return os.path.join(lake_dir, MANIFEST_NAME)


def snapshot_path(lake_dir: str, version: int) -> str:
    return os.path.join(lake_dir, SNAPSHOTS_DIR, f"v{int(version):06d}.json")


def list_versions(lake_dir: str, *, store: Store | None = None) -> list[int]:
    """Committed manifest versions with a retained snapshot, ascending.
    Every commit writes an immutable per-version snapshot alongside the
    current-pointer swap (Delta/Iceberg-style version history);
    :func:`vacuum`-style retention prunes old ones."""
    store = store if store is not None else resolve_store(lake_dir)
    out = []
    for path in store.list_prefix(os.path.join(lake_dir, SNAPSHOTS_DIR)):
        name = os.path.basename(path)
        if name.startswith("v") and name.endswith(".json"):
            try:
                out.append(int(name[1:-5]))
            except ValueError:
                continue
    return sorted(out)


TAGS_NAME = "_tags.json"


def tags_path(lake_dir: str) -> str:
    return os.path.join(lake_dir, TAGS_NAME)


def list_tags(lake_dir: str, *, store: Store | None = None) -> dict[str, int]:
    """Named refs -> pinned snapshot version (the Iceberg TAG analog).
    Empty dict when no tag was ever created."""
    store = store if store is not None else resolve_store(lake_dir)
    try:
        raw = store.get_bytes(tags_path(lake_dir))
    except FileNotFoundError:
        return {}
    return {str(k): int(v) for k, v in json.loads(raw).items()}


def branch_dir(lake_dir: str, name: str) -> str:
    """Root of branch ``name``'s state, nested under the parent lake.
    A branch is a full virtual lake (own manifest pointer, snapshot
    chain, writer lock, data dir for files IT writes) whose manifest
    references parent data files through ``../../``-prefixed relpaths —
    so every reader/feed/view built on ``load_manifest`` composes with
    zero changes (see ``pipelines/branching.py``)."""
    return os.path.join(lake_dir, BRANCHES_DIR, name)


def list_branches(lake_dir: str, *, store: Store | None = None) -> list[str]:
    """Names of branches with a committed manifest, sorted."""
    from .iofs import list_subdirs

    root = os.path.join(lake_dir, BRANCHES_DIR)
    store = store if store is not None else resolve_store(lake_dir)
    return [
        name for name in list_subdirs(root)
        if store.exists(manifest_path(os.path.join(root, name)))
    ]


def _branch_pinned_relpaths(
    lake_dir: str, store: Store,
) -> set[str]:
    """Parent-relative data relpaths pinned by live branches: every
    relpath any branch's head manifest OR retained snapshot references,
    normalized into the parent's namespace (a branch's ``../../data/x``
    becomes ``data/x``; branch-LOCAL files normalize under
    ``_branches/<name>/data/`` and never collide with the parent's data
    listing). Parent GC must treat these as live — a branch forked at
    v5 still reads parent files that later parent commits superseded.
    FAILS CLOSED on an unreadable branch manifest, like the retained-
    snapshot path in :func:`gc_unreferenced`."""
    pinned: set[str] = set()
    for name in list_branches(lake_dir, store=store):
        bdir = branch_dir(lake_dir, name)
        raws: list[bytes] = []
        try:
            raws.append(store.get_bytes(manifest_path(bdir)))
        except FileNotFoundError:
            pass
        for v in list_versions(bdir, store=store):
            try:
                raws.append(store.get_bytes(snapshot_path(bdir, v)))
            except FileNotFoundError:
                continue
        for raw in raws:
            try:
                bm = LakeManifest.from_json(json.loads(raw))
            except (json.JSONDecodeError, KeyError) as e:
                raise RuntimeError(
                    f"branch {name!r} at {lake_dir} has an unreadable "
                    f"manifest/snapshot ({e!r}); refusing to GC"
                ) from e
            for rel in bm.all_data_relpaths():
                pinned.add(os.path.normpath(
                    os.path.join(BRANCHES_DIR, name, rel)
                ))
    return pinned


def _cas_update_intmap(
    path: str, store: Store, update_fn, label: str,
) -> dict[str, int]:
    """Read-modify-write of a {name: version} doc through the store
    seam's CAS primitives (bounded retry) — same rename-free publish
    contract as the manifest pointer, so the doc is safe on object
    stores too. Shared by tags and consumer cursors."""
    for _ in range(16):
        try:
            raw = store.get_bytes(path)
        except FileNotFoundError:
            raw = None
        cur = (
            {} if raw is None
            else {str(k): int(v) for k, v in json.loads(raw).items()}
        )
        new = update_fn(dict(cur))
        data = json.dumps(new, sort_keys=True).encode()
        if raw is None:
            if store.put_if_absent(path, data):
                return new
        elif store.replace_if_matches(path, raw, data):
            return new
    raise ConcurrentWriterError(
        f"{label} update at {path} kept losing CAS races"
    )


def _cas_update_tags(
    lake_dir: str, store: Store, update_fn,
) -> dict[str, int]:
    return _cas_update_intmap(
        tags_path(lake_dir), store, update_fn, "tags"
    )


def tag_version(
    lake_dir: str, name: str, version: int | None = None,
    *, store: Store | None = None,
) -> int:
    """Pin a NAMED TAG to a retained snapshot version (Iceberg tags /
    Delta named versions): ``read_lake(version=resolve_tag(...))`` time-
    travels by name, and — the point of tags — a tagged version is
    EXEMPT from retention pruning and :func:`vacuum` until the tag is
    deleted, so audits/releases keep a reproducible pinned state while
    normal history rolls. Re-tagging an existing name moves it (the
    doc's last-writer-wins is CAS-serialized). Default version = the
    current committed one."""
    import re as _re

    store = store if store is not None else resolve_store(lake_dir)
    if not _re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}", name):
        raise ValueError(
            f"invalid tag name {name!r} (alnum first, then [A-Za-z0-9._-])"
        )
    if version is None:
        m = load_manifest(lake_dir, store=store)
        if m is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        version = m.version
    if not store.exists(snapshot_path(lake_dir, int(version))):
        raise FileNotFoundError(
            f"no retained snapshot v{version} at {lake_dir} to tag "
            f"(retained: {list_versions(lake_dir, store=store)})"
        )
    _cas_update_tags(
        lake_dir, store, lambda t: {**t, name: int(version)}
    )
    return int(version)


def delete_tag(
    lake_dir: str, name: str, *, store: Store | None = None,
) -> bool:
    """Remove a tag (its pinned version becomes prunable again on the
    next retention/vacuum pass). True = removed, False = didn't exist."""
    store = store if store is not None else resolve_store(lake_dir)
    existed = name in list_tags(lake_dir, store=store)
    _cas_update_tags(
        lake_dir, store,
        lambda t: {k: v for k, v in t.items() if k != name},
    )
    return existed


def resolve_tag(
    lake_dir: str, name: str, *, store: Store | None = None,
) -> int:
    """Tag name -> pinned version; KeyError when the tag doesn't exist."""
    tags = list_tags(lake_dir, store=store)
    if name not in tags:
        raise KeyError(
            f"no tag {name!r} at {lake_dir} (tags: {sorted(tags)})"
        )
    return tags[name]


@contextlib.contextmanager
def pinned_snapshot(
    lake_dir: str, version: int | None = None, *, store: Store | None = None,
) -> Iterator[int]:
    """READER LEASE: pin a snapshot version for the duration of a long
    read (a multi-hour training scan at 100 TB outlives the one-version
    GC grace window and any retention policy). Implemented as a
    uniquely-named tag (``pin-<uuid>``), so retention pruning and
    vacuum skip the pinned version while the reader runs; the tag is
    deleted on exit (also on error). The yielded value is the pinned
    version number — pass it to ``read_lake(version=...)``.

    A reader that dies without cleanup leaves a ``pin-`` tag behind;
    list_tags makes them visible and delete_tag reclaims them — an
    operator decision, exactly like abandoned Iceberg refs."""
    store = store if store is not None else resolve_store(lake_dir)
    name = f"pin-{uuid.uuid4().hex[:12]}"
    v = tag_version(lake_dir, name, version, store=store)
    try:
        yield v
    finally:
        delete_tag(lake_dir, name, store=store)


CURSORS_NAME = "_cursors.json"


def cursors_path(lake_dir: str) -> str:
    return os.path.join(lake_dir, CURSORS_NAME)


def list_cursors(lake_dir: str, *, store: Store | None = None) -> dict[str, int]:
    """Consumer-group cursors: consumer name -> last ACKNOWLEDGED lake
    version (the Kafka consumer-offset / Delta streaming-checkpoint
    analog for the change feed). A consumer with no cursor starts at 0
    (the empty pre-lake). Cursor versions are PINNED against retention
    and vacuum like tags — the feed a consumer has not yet read can
    never be pruned out from under it."""
    store = store if store is not None else resolve_store(lake_dir)
    try:
        raw = store.get_bytes(cursors_path(lake_dir))
    except FileNotFoundError:
        return {}
    return {str(k): int(v) for k, v in json.loads(raw).items()}


def advance_cursor(
    lake_dir: str, consumer: str, *, from_version: int, to_version: int,
    store: Store | None = None,
) -> bool:
    """CAS-advance a consumer cursor: succeeds ONLY when the stored
    cursor still equals ``from_version`` (0 = never consumed), so of N
    racing instances of one consumer group exactly one ack wins and a
    stale/replayed ack can never regress or double-advance the cursor
    — delivery is at-least-once, the cursor advance is exactly-once.
    Returns False on a lost race or a stale token."""
    import re as _re

    store = store if store is not None else resolve_store(lake_dir)
    if not _re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}", consumer):
        raise ValueError(f"invalid consumer name {consumer!r}")
    if int(to_version) < int(from_version):
        raise ValueError("cursor cannot move backwards")
    ok = {"v": False}

    def upd(cur: dict[str, int]) -> dict[str, int]:
        ok["v"] = cur.get(consumer, 0) == int(from_version)
        if ok["v"]:
            cur[consumer] = int(to_version)
        return cur

    _cas_update_intmap(cursors_path(lake_dir), store, upd, "cursors")
    return ok["v"]


def delete_cursor(
    lake_dir: str, consumer: str, *, store: Store | None = None,
) -> bool:
    """Drop a consumer cursor (its pinned version becomes prunable on
    the next retention/vacuum pass). True = removed."""
    store = store if store is not None else resolve_store(lake_dir)
    existed = consumer in list_cursors(lake_dir, store=store)
    _cas_update_intmap(
        cursors_path(lake_dir), store,
        lambda c: {k: v for k, v in c.items() if k != consumer},
        "cursors",
    )
    return existed


PURGED_NAME = "_purged.json"


def purged_path(lake_dir: str) -> str:
    return os.path.join(lake_dir, PURGED_NAME)


def list_purged(lake_dir: str, *, store: Store | None = None) -> dict[str, int]:
    """Right-to-be-forgotten registry: url -> lake version at which it
    was PURGED (:func:`~..pipelines.maintenance.purge_urls`). A sidecar
    like tags/cursors — NOT per-snapshot state — because the purge is
    monotone and lake-wide: restore/rewind/time-travel must never
    un-purge, and the ingest edge consults this list so a replayed WAL
    range (rewind, restore, crash retry) cannot resurrect a purged key.
    The url strings themselves are retained here by necessity (the
    filter needs them) — the same residual every production purge
    design carries until WAL retention ages the source out."""
    store = store if store is not None else resolve_store(lake_dir)
    try:
        raw = store.get_bytes(purged_path(lake_dir))
    except FileNotFoundError:
        return {}
    return {str(k): int(v) for k, v in json.loads(raw).items()}


def record_purged(
    lake_dir: str, urls: list[str], version: int, *, store: Store | None = None,
) -> dict[str, int]:
    """CAS-merge urls into the purge registry at ``version``. Keeps the
    EARLIEST purge version on re-purge (monotone: feeds already
    synthesized the delete at the first purge)."""
    store = store if store is not None else resolve_store(lake_dir)

    def upd(cur: dict[str, int]) -> dict[str, int]:
        for u in urls:
            cur.setdefault(str(u), int(version))
        return cur

    return _cas_update_intmap(purged_path(lake_dir), store, upd, "purged")


def version_committed_at(m: "LakeManifest") -> str | None:
    """ISO commit time of a manifest's own version, from its lineage."""
    for e in reversed(m.lineage):
        if e.get("version") == m.version:
            return e.get("committed_at")
    return None


def resolve_version_at(
    lake_dir: str, ts_iso: str, *, store: Store | None = None
) -> int:
    """Timestamp-based time travel (the Delta ``TIMESTAMP AS OF``
    analog): the newest RETAINED version committed at or before
    ``ts_iso`` (ISO-8601 UTC strings compare lexically). Raises when
    ``ts_iso`` predates all retained history — the snapshot that was
    current then has been pruned."""
    best = None
    for v in list_versions(lake_dir, store=store):
        m = load_manifest(lake_dir, version=v, store=store)
        committed = version_committed_at(m)
        if committed is not None and committed <= ts_iso:
            best = v  # list_versions is ascending
    if best is None:
        raise FileNotFoundError(
            f"no retained version of {lake_dir} committed at or before "
            f"{ts_iso} (retained: {list_versions(lake_dir)})"
        )
    return best


def load_manifest(
    lake_dir: str, version: int | None = None, *, store: Store | None = None
) -> LakeManifest | None:
    """Read the committed manifest; None when the lake doesn't exist yet
    (the reference's NoSuchKey -> default-initial-state path,
    ``etl_state.py:26-52``). With ``version``, read that retained
    snapshot instead (time travel) — raises FileNotFoundError when the
    snapshot was vacuumed or never existed."""
    store = store if store is not None else resolve_store(lake_dir)
    if version is not None:
        try:
            raw = store.get_bytes(snapshot_path(lake_dir, version))
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no retained snapshot v{version} at {lake_dir} "
                f"(retained: {list_versions(lake_dir, store=store)})"
            ) from None
        return LakeManifest.from_json(json.loads(raw))
    try:
        raw = store.get_bytes(manifest_path(lake_dir))
    except FileNotFoundError:
        return None
    return LakeManifest.from_json(json.loads(raw))


@contextlib.contextmanager
def writer_lock(
    lake_dir: str,
    *,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    owner: str | None = None,
    lock_name: str | None = None,
) -> Iterator[str]:
    """Exclusive per-lake writer lock (O_EXCL lock file with pid +
    lease expiry). A live lock raises :class:`ConcurrentWriterError`
    immediately (fail-fast, like the reference's locked-check that
    skips the run); a lock whose lease expired is broken — the holder
    crashed without releasing (leases bound the outage a dead writer
    can cause on shared storage, where no advisory flock exists)."""
    store = resolve_store(lake_dir)
    # lock_name scopes INDEPENDENT critical sections (e.g. the DLQ
    # redrive serializes its file shuffle under its own lease while the
    # inner commit still takes the main writer lock — different files,
    # no self-deadlock)
    path = os.path.join(lake_dir, lock_name or LOCK_NAME)
    token = f"{owner or f'pid-{os.getpid()}'}-{uuid.uuid4().hex[:8]}"
    while True:
        doc_bytes = json.dumps(
            {"owner": token, "expires_at": time.time() + lease_seconds}
        ).encode("utf-8")
        if store.put_if_absent(path, doc_bytes):
            break
        try:
            raw = store.get_bytes(path)
            doc = json.loads(raw)
        except FileNotFoundError:
            continue  # holder released between create and read: retry
        except json.JSONDecodeError:
            # racer mid-write on a non-atomic backend: NEVER remove
            # (could delete a LIVE holder's just-created lock);
            # re-read after a beat — the write is tiny
            time.sleep(0.05)
            continue
        if doc.get("owner") == token:
            # our own create landed but its reply was lost (a retrying
            # store client re-sent it): the lock is already ours
            break
        if doc.get("expires_at", 0) >= time.time():
            raise ConcurrentWriterError(
                f"lake {lake_dir} is locked by {doc.get('owner')} "
                f"(lease expires in "
                f"{doc.get('expires_at', 0) - time.time():.0f}s)"
            )
        # stale lease: ATOMIC conditional delete of the exact stale
        # bytes we read (a racer's fresh lock is never removed — the
        # POSIX store rename-claims and restores on mismatch, the
        # object store compares server-side), then EVERY waiter loops
        # back to the create-if-absent acquire, where exactly one wins.
        # Never swap-in-place here: a replace would recreate the lock
        # through a window in which a racer's put_if_absent can also
        # succeed — two holders.
        store.delete_if_matches(path, raw)
    try:
        yield token
    finally:
        # release only if still ours (a lease-breaker may have replaced
        # it): read-verify, then conditional delete against those bytes
        try:
            raw = store.get_bytes(path)
            if json.loads(raw).get("owner") == token:
                store.delete_if_matches(path, raw)
        except (FileNotFoundError, json.JSONDecodeError):
            pass


def verify_lock(lake_dir: str, token: str) -> None:
    """Fencing check: raise unless the stored lock is still OURS. A
    writer whose lease expired (and was broken by a successor) fails
    here BEFORE destructive actions — call it immediately before
    :func:`gc_unreferenced` / :func:`commit_manifest` in long-running
    writers so a zombie holder cannot delete a successor's files."""
    store = resolve_store(lake_dir)
    path = os.path.join(lake_dir, LOCK_NAME)
    try:
        doc = json.loads(store.get_bytes(path))
    except (FileNotFoundError, json.JSONDecodeError) as e:
        raise ConcurrentWriterError(
            f"lock at {lake_dir} is gone or unreadable — lease lost"
        ) from e
    if doc.get("owner") != token:
        raise ConcurrentWriterError(
            f"lock at {lake_dir} is now held by {doc.get('owner')} — "
            f"this writer's lease was broken"
        )


def check_no_live_writer(lake_dir: str) -> None:
    """Fail-fast peek (the reference's run-lock checks at RUN start,
    ``dags/s3_xml_import_pipeline.py:103-123``): raise when another
    writer currently holds a live lease, BEFORE doing any map work.
    Advisory only — commits stay CAS-protected regardless; this just
    keeps a concurrent run from burning a whole pipeline pass it is
    guaranteed to lose."""
    store = resolve_store(lake_dir)
    path = os.path.join(lake_dir, LOCK_NAME)
    try:
        doc = json.loads(store.get_bytes(path))
    except (FileNotFoundError, json.JSONDecodeError):
        return
    if doc.get("expires_at", 0) >= time.time():
        raise ConcurrentWriterError(
            f"lake {lake_dir} has a live writer ({doc.get('owner')}); "
            f"concurrent runs are rejected"
        )


def _same_logical_commit(a: LakeManifest, b: LakeManifest) -> bool:
    """Two manifests describe the SAME commit when their observable
    state is identical: version, watermark and the exact live file set.
    Lineage ``committed_at`` wall-clock stamps may differ between a
    crashed attempt and its retry — they are metadata, not state."""
    return (
        a.version == b.version
        and a.watermark == b.watermark
        and a.partitions == b.partitions
        and a.delta_files == b.delta_files
    )


def commit_manifest(
    lake_dir: str,
    manifest: LakeManifest,
    *,
    expected_version: int | None = None,
    store: Store | None = None,
) -> None:
    """Atomically publish a new manifest — RENAME-FREE, expressed over
    the :class:`~.store.Store` conditional-write primitives so the same
    protocol runs on POSIX (default :data:`~.store.LOCAL_STORE`) and on
    a CAS-capable object store (see ``store.py``'s mapping table):

    1. **CAS point**: the immutable per-version snapshot is created
       with ``put_if_absent`` — of N racing writers of v(N), exactly one
       creates it. A loser finding a snapshot with DIFFERENT logical
       content fails with :class:`ConcurrentWriterError`; finding its
       OWN content (a crashed-and-retried commit — the deterministic
       batch token makes retries bit-equal in state) proceeds to step 2.
    2. **Pointer publish**: ``_manifest.json`` is swapped with
       ``replace_if_matches`` against the bytes read at CAS-check time,
       so a zombie writer that lost its lease can never regress the
       pointer over a successor's newer commit.

    A crash between 1 and 2 leaves an orphan snapshot of an uncommitted
    version; the retried commit overwrites it (same logical content)
    and completes the pointer swap. Callers pass ``expected_version``
    (the version they loaded) while holding :func:`writer_lock`;
    without it the publish is unconditional (fresh lake bootstrap)."""
    from .zones import refresh_zones

    store = store if store is not None else resolve_store(lake_dir)
    pointer = manifest_path(lake_dir)
    try:
        current_bytes: bytes | None = store.get_bytes(pointer)
    except FileNotFoundError:
        current_bytes = None
    current = (
        LakeManifest.from_json(json.loads(current_bytes))
        if current_bytes is not None else None
    )
    if expected_version is not None:
        current_version = current.version if current is not None else 0
        if current_version != expected_version:
            raise ConcurrentWriterError(
                f"manifest at {lake_dir} is v{current_version}, expected "
                f"v{expected_version}: a concurrent writer committed first"
            )
    elif current_bytes is not None:
        current_bytes = None  # unconditional publish: keep old pointer-swap path
    # zone-map maintenance: carry live entries forward, footer-read only
    # the files this commit added (see state.zones.refresh_zones)
    manifest.zones = refresh_zones(
        lake_dir, manifest, current.zones if current is not None else None
    )
    manifest.lineage = manifest.lineage[-MAX_LINEAGE_ENTRIES:]
    doc_bytes = json.dumps(manifest.to_json()).encode("utf-8")
    snap = snapshot_path(lake_dir, manifest.version)
    if not store.put_if_absent(snap, doc_bytes):
        existing = LakeManifest.from_json(json.loads(store.get_bytes(snap)))
        if not _same_logical_commit(existing, manifest):
            raise ConcurrentWriterError(
                f"snapshot v{manifest.version} at {lake_dir} already exists "
                f"with different content: a concurrent writer committed first"
            )
        # our own crashed attempt: refresh it so snapshot == pointer bytes
        store.put_atomic(snap, doc_bytes)
    if current_bytes is not None:
        if not store.replace_if_matches(pointer, current_bytes, doc_bytes):
            raise ConcurrentWriterError(
                f"manifest pointer at {lake_dir} moved during commit of "
                f"v{manifest.version}: a concurrent writer committed first"
            )
    else:
        store.put_atomic(pointer, doc_bytes)


def batch_token(
    watermark: str | None, segment_names: list[str], base_version: int = 0
) -> str:
    """Deterministic token for one micro-batch: a pure function of the
    starting watermark, the segment set AND the base manifest version,
    so a crashed-and-retried batch (same uncommitted base) rewrites
    identical staging paths (idempotence) — while a REPLAY of the same
    segments after ``rewind_watermark``/``restore_lake`` (the base
    version advanced) gets fresh paths. Without the version term, a
    full-rewind replay collides with the original batch's token and the
    partition-level resume shortcut returns the OLD output file —
    silently skipping the fold of any MOR/DML delta files pending on
    the partition (found by the DML replay-convergence test)."""
    h = hashlib.sha1()
    h.update((watermark or "<epoch>").encode())
    h.update(f"\x00v{base_version}".encode())
    for name in segment_names:
        h.update(b"\x00")
        h.update(name.encode())
    return h.hexdigest()[:16]


def partition_file_relpath(part: int, token: str) -> str:
    return os.path.join(DATA_DIR, f"part-{part:05d}-{token}.parquet")


def partition_delta_relpath(part: int, token: str) -> str:
    """Content-addressed path of one micro-batch's MOR delta file for a
    partition — a pure function of (partition, batch token), so a
    crashed-and-retried batch rewrites the identical path (the same
    idempotence contract as :func:`partition_file_relpath`)."""
    return os.path.join(DATA_DIR, f"part-{part:05d}-{token}.delta.parquet")


_FROM_MANIFEST = object()  # sentinel: use manifest.retain_versions


def gc_unreferenced(
    lake_dir: str,
    manifest: LakeManifest,
    previous: LakeManifest | None = None,
    *,
    retain_versions: "int | None | object" = _FROM_MANIFEST,
    store: Store | None = None,
) -> list[str]:
    """Delete data files not referenced by any RETAINED snapshot —
    orphans from crashed batches and superseded partition versions.
    Run this while holding :func:`writer_lock` (the ingest loop does):
    the lock serializes writers, so no concurrent writer's fresh files
    can be swept as orphans; pass ``previous`` to ALSO keep the
    prior manifest's files one more commit, so concurrent readers that
    loaded the old manifest finish their scans (snapshot-isolation
    grace window).

    ``retain_versions`` bounds version history: the newest K snapshot
    manifests (and every data file any of them references) survive;
    older snapshots are pruned with their now-unreferenced files, so
    :func:`list_versions` always names exactly the time-travelable
    versions. ``None`` retains ALL history until an explicit vacuum
    (the Delta/Iceberg retention model)."""
    if retain_versions is _FROM_MANIFEST:
        retain_versions = manifest.retain_versions
    store = store if store is not None else resolve_store(lake_dir)
    removed = []
    live = {os.path.normpath(rel) for rel in manifest.all_data_relpaths()}
    if previous is not None:
        live |= {os.path.normpath(rel) for rel in previous.all_data_relpaths()}
    # live branches pin every parent file they still reference (a
    # branch forked at v5 reads parent files later commits superseded);
    # branch CREATION runs under the same writer lock as this sweep,
    # so a fork can never race the scan
    live |= _branch_pinned_relpaths(lake_dir, store)
    versions = list_versions(lake_dir, store=store)
    keep_versions = (
        set(versions) if retain_versions is None
        else set(versions[-max(int(retain_versions), 1):])
    )
    # tagged versions are PINNED: exempt from retention/vacuum pruning
    # until the tag is deleted (Iceberg tag semantics)
    keep_versions |= (
        set(list_tags(lake_dir, store=store).values()) & set(versions)
    )
    # consumer-group cursors pin THEIR last-acked version the same way:
    # the next next_changes() diffs FROM that snapshot, so pruning it
    # would strand the consumer (it would have to re-read from 0)
    keep_versions |= (
        set(list_cursors(lake_dir, store=store).values()) & set(versions)
    )
    # a snapshot newer than the committed manifest is a crashed commit's
    # orphan ONLY if its version > current; keep it out of caution is
    # wrong (its files may be swept) — it is overwritten by the retried
    # commit anyway, so treat it like any retained snapshot.
    for v in versions:
        snap = snapshot_path(lake_dir, v)
        if v in keep_versions:
            try:
                m = LakeManifest.from_json(json.loads(store.get_bytes(snap)))
                live |= {os.path.normpath(rel) for rel in m.all_data_relpaths()}
            except FileNotFoundError:
                continue  # vacuumed between listing and read
            except (json.JSONDecodeError, KeyError) as e:
                # FAIL CLOSED: an unreadable retained snapshot must
                # abort the sweep — skipping it would delete every data
                # file only that version references while the snapshot
                # still lists as time-travelable (commit writes
                # snapshots via tmp+fsync+rename, so this is real
                # corruption, not a torn write)
                raise RuntimeError(
                    f"retained snapshot v{v} at {lake_dir} is "
                    f"unreadable ({e!r}); refusing to GC"
                ) from e
        else:
            if store.delete(snap):
                removed.append(os.path.normpath(
                    os.path.join(SNAPSHOTS_DIR, f"v{v:06d}.json")))
    from .iofs import delete_file, list_data_files

    data_dir = os.path.join(lake_dir, DATA_DIR)
    for path in list_data_files(data_dir):
        rel = os.path.normpath(
            os.path.join(DATA_DIR, path.rsplit("/", 1)[-1])
        )
        if rel not in live:
            delete_file(os.path.join(lake_dir, rel))
            removed.append(rel)
    return removed


def utcnow_iso() -> str:
    """Wall-clock stamp for lineage metadata ONLY — never merged data
    (the reference stamps ``imported_timestamp`` into every record,
    ``ejp_zip.py:57``; we confine the clock to lineage so extraction
    stays a pure function of the input bytes)."""
    return datetime.now(timezone.utc).isoformat().replace("+00:00", "Z")
