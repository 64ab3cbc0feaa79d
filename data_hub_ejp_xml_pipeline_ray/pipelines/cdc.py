"""The CDC ingest loop: WAL tail -> extract -> LWW merge -> commit.

Ray-native re-expression of the reference's lifecycle
(``dags/s3_xml_import_pipeline.py`` sensor -> discover -> per-file ETL ->
stage -> load -> advance watermark; traced in SURVEY §3): the per-file
sequential Python loop becomes two waves of plain Ray tasks —

    segments > watermark (footers: unified wire schema, row counts)
      -> one _spill_segment task per segment        # FUSED map side:
               #  read + conform/purge/exclude/quarantine + local LWW
               #  combine (skew defense) + HTML->text extract (drops
               #  html) + crc32(url) % P split + per-partition row-group
               #  spill == push-based shuffle to storage
      -> _merge_partitions tasks (<= 1 per CPU)      # reduce side: base +
               #  deltas -> LWW -> immutable content-addressed file
      -> driver: atomic manifest commit            # exactly-once

The exchange spills to storage rather than using Ray's sort-based
all-to-all because the partition key has only P distinct values — a
range sort on it collapses the reduce side to ~1 task (measured 47 s of
a 52 s ingest); the staged exchange is FS-bandwidth-bound and keeps
partition->file routing stable across runs. The driver never sees data
rows — only tiny per-partition stats; nothing materializes the dataset.
Both waves are plain tasks, not Datasets: the work list is a fixed set
of independent segments and partitions, and a Dataset launch costs more
than a trickle commit's whole extract: a 1 500-row segment through a
one-block ``read_parquet -> map_batches -> take_all`` takes 0.07 s, one
task doing the same work 0.008 s (medians of 20, 4 logical CPUs).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from ray.exceptions import RaySystemError

from ..schemas import WIRE_ONLY_COLUMNS, merge_schemas, unify_many
from ..sources import wal as wal_source
from ..stages.merge import (
    DELETED_COL,
    ERROR_PART,
    ExtractCombineSpill,
    PartitionMerger,
)
from ..state.checkpoint import (
    ConcurrentWriterError,
    LakeManifest,
    batch_token,
    check_no_live_writer,
    commit_manifest,
    gc_unreferenced,
    list_purged,
    load_manifest,
    residue_modulus,
    utcnow_iso,
    verify_lock,
    writer_lock,
)
from ..state.store import is_s3_path

DEFAULT_NUM_PARTITIONS = 64
ERRORS_DIR = "_errors"


@dataclass
class CdcConfig:
    """Job config (the analog of ``eJPXmlDataConfig``,
    ``dag_pipeline_config/xml_config.py:43-112``)."""

    wal_dir: str
    lake_dir: str
    num_partitions: int = DEFAULT_NUM_PARTITIONS
    segment_glob: str = wal_source.SEGMENT_GLOB
    #: Optional SECOND fnmatch glob on segment names, ANDed with
    #: ``segment_glob`` (the reference sensor's positive key glob,
    #: ``airflow_s3_util_extension.py:101-138``): the structural glob
    #: states the wire format, this one narrows to a keyspace slice
    #: (e.g. ``"segment-2024*"``) without restating the format.
    include_pattern: str | None = None
    url_exclusion_pattern: str | None = None
    #: Max segments folded into one commit (micro-batch bound — the
    #: analog of ``batch_size_limit=100000`` rows, ``etl.py:156``).
    max_segments_per_batch: int = 64
    #: Where exchange spill files live. Default: ``<lake>/_staging``.
    #: On a multi-node cluster this is each node's local NVMe (or the
    #: shared store); single-node benchmarks may point it at /dev/shm —
    #: the same memory path Ray's object-store shuffle would use —
    #: because one virtio disk can't stand in for N nodes' aggregate
    #: shuffle bandwidth.
    staging_root: str | None = None
    #: Dead-letter quarantine of malformed wire rows (invalid UTF-8
    #: html / null contract keys) into ``<lake>/_errors``. Disable for
    #: trusted input to skip the per-batch UTF-8 validation cast.
    quarantine: bool = True
    #: Declarative ingest-time CHECK constraints (Delta-style
    #: expectations): a list of ``[column, op]`` / ``[column, op,
    #: value]`` specs (op from :data:`..stages.merge.CONSTRAINT_OPS`).
    #: Violating upsert rows are quarantined to ``<lake>/_errors``
    #: with ``constraint:...`` reasons and redrive-able raw siblings;
    #: SQL CHECK null semantics (NULL passes comparisons, only
    #: ``not_null`` rejects it); delete tombstones are exempt.
    #: Requires ``quarantine=True``.
    constraints: Any = None
    #: Version-history retention: commit-time GC keeps the newest K
    #: snapshot manifests and every data file they reference (time
    #: travel / change feed / snapshot-isolated readers). ``None``
    #: retains ALL history until :func:`..pipelines.maintenance.vacuum`.
    #: K=2 == the classic one-previous-version grace window.
    retain_versions: int | None = 2
    #: Merge strategy. ``"cow"`` (copy-on-write, default) rewrites each
    #: touched partition base per micro-batch — read-optimized, write
    #: amplification O(partition size). ``"mor"`` (merge-on-read,
    #: Hudi-MOR / Paimon-LSM shape) appends one immutable per-partition
    #: delta file per batch and never rewrites the base on the ingest
    #: path — write amplification O(delta size), the shape you want
    #: when 10^10 events trickle-update a 100-TB lake; readers apply
    #: LWW over base+deltas and ``maintenance.compact_deltas`` folds
    #: them back off the ingest path. Modes may be mixed: a CoW batch
    #: over a partition with pending deltas folds them in (auto-
    #: compaction for the partitions it touches).
    merge_mode: str = "cow"
    #: Multi-WAL fan-in: a stable name for THIS config's WAL among
    #: several feeding the same lake (shards, regions, independent
    #: producers). Each named source advances its own strictly-greater
    #: watermark (``manifest.source_watermarks``) atomically with the
    #: commit — N sources merge under the same exactly-once rules, and
    #: LWW by (warc_ts, seq) arbitrates across sources exactly as it
    #: does across segments. ``None`` = the classic single-WAL tailer
    #: (global ``manifest.watermark``).
    source: str | None = None
    #: Bounded wait for a concurrent writer's lease to clear before
    #: giving up (seconds). 0 (default) = the classic fail-fast
    #: rejection. Multi-source deployments set this so N source tailers
    #: can share one lake without an external scheduler: each waits its
    #: turn under the writer lock instead of burning a failed pass.
    lock_wait_s: float = 0.0


@dataclass
class IngestReport:
    """Per-run outcome: what was committed (driver-visible lineage)."""

    commits: int = 0
    segments_processed: list[str] = field(default_factory=list)
    events_applied: int = 0
    rows_total: int = 0
    partitions_rewritten: int = 0
    #: dead-letter rows quarantined to <lake>/_errors this run (first-
    #: class observability: silent-loss regressions must be visible)
    error_rows: int = 0
    final_version: int | None = None
    watermark: str | None = None


def lake_schema_from_wire(wire: pa.Schema) -> pa.Schema:
    """Project the wire (WAL) schema to the lake schema: drop wire-only
    columns, insert ``text`` after ``seq``, append the persisted
    tombstone flag (see :data:`..stages.merge.DELETED_COL`)."""
    fields: list[pa.Field] = []
    for f in wire:
        if f.name in WIRE_ONLY_COLUMNS:
            continue
        fields.append(f)
        if f.name == "seq":
            fields.append(pa.field("text", pa.string()))
    fields.append(pa.field("_src_segment", pa.string()))  # provenance (M2)
    fields.append(pa.field(DELETED_COL, pa.bool_()))
    return pa.schema(fields)


#: Staging dirs older than this are crash leftovers, safe to sweep; a
#: live writer's staging is always younger (per-batch wall << 1 h).
STALE_STAGING_SECONDS = 3600.0


def _gc_stale_staging(staging_root: str) -> None:
    import shutil as _shutil
    import time as _time

    try:
        entries = os.listdir(staging_root)
    except FileNotFoundError:
        return
    cutoff = _time.time() - STALE_STAGING_SECONDS
    for name in entries:
        path = os.path.join(staging_root, name)
        try:
            if os.path.getmtime(path) < cutoff:
                _shutil.rmtree(path, ignore_errors=True)
        except OSError:
            continue
    # drop the root itself only when empty (never yank it from under a
    # concurrent writer)
    try:
        os.rmdir(staging_root)
    except OSError:
        pass


#: Phase 1 runs one task per segment; only while a batch has fewer
#: segments than CPUs is a segment cut into row slices of at least this
#: many rows. Whole segments win when they are many (1.2M events / 64
#: segments / 32 CPUs: 64 tasks 4.8 s, 96 partial-file blocks 6.0 s),
#: slices when they are few (one 60k-row segment, 4 CPUs: 0.32 s as 4
#: slices, 0.78 s as one task). A 1 500-event trickle segment stays one
#: task and one spill file.
MIN_SLICE_ROWS = 15_000

#: Ray Data's own task options (``ray.data._internal.remote_fn``): a
#: task lost with its worker or node is retried without limit, and
#: placement is Ray's default locality-aware policy.
_TASK_OPTIONS = dict(
    num_cpus=1,
    max_retries=-1,
    retry_exceptions=[RaySystemError],
    scheduling_strategy="DEFAULT",
)


@ray.remote(**_TASK_OPTIONS)
def _spill_segment(stage, seg, rows) -> pa.Table:
    """Phase-1 task: read one segment (or a row slice of it) and run the
    lane's fused stage over it; returns the spill-manifest rows. The
    stage is built per task: its state is a regex string, a purge value
    set and paths (~0.03 ms)."""
    spill_cls, stage_kwargs = stage
    return spill_cls(**stage_kwargs)(wal_source.read_segment(seg, rows))


# 3 retries, not -1: a merge that always kills its worker (say, out of
# memory on a large base plus MOR deltas) must fail the commit, not hang.
@ray.remote(**{**_TASK_OPTIONS, "max_retries": 3})
def _merge_partitions(merger: PartitionMerger, parts: list) -> list:
    """Phase-2 task: merge a group of partitions, one stats row each."""
    return [merger.merge_one(p) for p in parts]


def _phase1_plan(
    segments: list[wal_source.SegmentMeta], rows: list[int], cpus: int
) -> list[tuple[wal_source.SegmentMeta, tuple[int, int] | None]]:
    """``(segment, row slice or None)`` per phase-1 task: one task per
    segment, and while segments are fewer than CPUs, each segment cut
    into at most ``cpus // len(segments)`` slices of at least
    :data:`MIN_SLICE_ROWS` rows."""
    share = cpus // len(segments)
    plan = []
    for seg, n in zip(segments, rows):
        k = max(1, min(share, n // MIN_SLICE_ROWS))
        if k == 1:
            plan.append((seg, None))
            continue
        cuts = [n * i // k for i in range(k + 1)]
        plan += [(seg, (a, b)) for a, b in zip(cuts, cuts[1:])]
    return plan


def _ingest_one_batch(
    cfg: CdcConfig, manifest: LakeManifest, segments: list[wal_source.SegmentMeta],
    *, spill_cls=None, lake_schema_fn=None, reduce_fn=None,
    watermark_override: str | None = None, lineage_extra: dict | None = None,
) -> tuple[LakeManifest, dict[str, int]]:
    """Process one micro-batch of segments and commit. Pure function of
    (committed lake state, segment set) — a crashed batch rewrites the
    same content-addressed files on retry."""
    import time as _time

    trace = os.environ.get("GRAFT_CDC_TRACE") == "1"
    t0 = _time.perf_counter()
    spill_cls = spill_cls or ExtractCombineSpill
    lake_schema_fn = lake_schema_fn or lake_schema_from_wire
    effective_wm = (
        manifest.source_watermarks.get(cfg.source)
        if cfg.source else manifest.watermark
    )
    token = batch_token(
        effective_wm, [s.name for s in segments], manifest.version
    )
    seg_schemas = wal_source.segment_schemas(segments)
    wire = unify_many(seg_schemas)
    # DDL projection BEFORE the union: wire columns arriving under a
    # pre-rename name map to the live name, and dropped columns never
    # re-enter the lake schema (pipelines/ddl.py).
    from ..schemas import evolve_wire_schema

    new_lake_schema = merge_schemas(
        manifest.schema,
        evolve_wire_schema(
            lake_schema_fn(wire), manifest.renames, manifest.dropped
        ),
    )

    cpus = int(ray.cluster_resources().get("CPU", 8))
    seg_rows = [wal_source.segment_row_counts([s]) for s in segments]
    events_applied = sum(seg_rows)

    # --- Exchange phase 1 (map side): read + extract + combine + spill,
    # FUSED into one task per segment (stages/merge.ExtractCombineSpill)
    # — a push-based shuffle to storage instead of Ray's sort exchange
    # (which degenerates on a low-cardinality partition key), and the
    # extracted text never re-enters the object store. The ray.get is
    # the phase barrier — only tiny manifest rows reach the driver.
    if cfg.staging_root:
        staging_root = cfg.staging_root
    elif is_s3_path(cfg.lake_dir):
        # staging is node-local scratch BY DESIGN (see CdcConfig): an
        # s3:// lake still spills to the worker's local disk —
        # shipping per-block spill row groups through the bucket would
        # double the write path for files that die minutes later
        import hashlib as _hl
        import tempfile as _tf

        staging_root = os.path.join(
            _tf.gettempdir(),
            "graft_staging_"
            + _hl.sha1(cfg.lake_dir.encode()).hexdigest()[:12],
        )
    else:
        staging_root = os.path.join(cfg.lake_dir, "_staging")
    # staging is per-WRITER (uuid suffix), not just per-token: two
    # concurrent writers racing the same batch would otherwise share
    # spill paths, and the commit winner's cleanup would delete the
    # loser's in-flight files mid-write (found by a live two-process
    # probe: raw FileNotFoundError instead of a clean rejection).
    # Idempotence is unaffected — the COMMITTED partition files stay
    # content-addressed by the batch token; staging is scratch.
    import uuid as _uuid

    staging = os.path.join(staging_root, f"{token}-{_uuid.uuid4().hex[:8]}")
    stage_kwargs = {
        "staging_dir": staging,
        "num_partitions": manifest.num_partitions,
        "url_exclusion_pattern": cfg.url_exclusion_pattern,
        "wire_schema": wire,  # fused schema-evolution conform
        "splits": manifest.split_set(),  # partition-split routing
        # dead-letter quarantine (M4 parity: the reference wraps
        # parse failures in ParseDocumentError; bad rows land in
        # <lake>/_errors with provenance instead of silent decode)
        "errors_dir": (
            os.path.join(cfg.lake_dir, ERRORS_DIR) if cfg.quarantine else None
        ),
        # declarative CHECK constraints ride the same DLQ; a column a
        # segment's own schema lacks is vacuously true for its rows
        "constraints": cfg.constraints,
        "absent_columns": {
            s.name: [c for c in wire.names if c not in sch.names]
            for s, sch in zip(segments, seg_schemas)
        },
        # right-to-be-forgotten guard: a replayed WAL range must
        # not resurrect a purged key (maintenance.purge_urls)
        "purged_urls": sorted(list_purged(cfg.lake_dir)) or None,
    }

    stage_ref = ray.put((spill_cls, stage_kwargs))
    spilled = pa.concat_tables(ray.get([
        _spill_segment.remote(stage_ref, seg, rows)
        for seg, rows in _phase1_plan(segments, seg_rows, cpus)
    ])).to_pylist()
    phase1_s = _time.perf_counter() - t0
    if trace:
        print(f"[cdc-trace] phase1 {phase1_s:.2f}s", flush=True)
    t0 = _time.perf_counter()
    delta_map: dict[int, list[tuple[str, int]]] = {}
    error_rows = 0
    for r in spilled:
        if int(r["part"]) == ERROR_PART:
            error_rows += int(r["rows"])  # dead-letter marker, not a delta
            continue
        delta_map.setdefault(int(r["part"]), []).append(
            (r["path"], int(r["row_group"]))
        )
    touched_parts = sorted(delta_map)

    # --- Exchange phase 2 (reduce side): per-partition merge ---------
    stats: list = []
    if touched_parts:
        merger = PartitionMerger(
            lake_dir=cfg.lake_dir,
            delta_map=delta_map,
            base_partitions=manifest.partitions,
            lake_schema=new_lake_schema,
            token=token,
            reduce_fn=reduce_fn,
            mode=cfg.merge_mode,
            base_deltas=manifest.delta_files,
            renames=manifest.renames,
        )
        merger_ref = ray.put(merger)
        # at most `cpus` tasks: a per-partition merge of a small batch
        # is a tiny delta write, so per-task dispatch would dominate
        group_size = -(-len(touched_parts) // cpus)
        groups = [
            touched_parts[i : i + group_size]
            for i in range(0, len(touched_parts), group_size)
        ]
        stats = [
            s
            for chunk in ray.get(
                [_merge_partitions.remote(merger_ref, g) for g in groups]
            )
            for s in chunk
        ]

    phase2_s = _time.perf_counter() - t0
    if trace:
        print(f"[cdc-trace] phase2 {phase2_s:.2f}s", flush=True)
    t0 = _time.perf_counter()
    # events_applied (computed pre-read from segment footers) is the
    # raw event count; the per-partition stats count post-combiner
    # delta rows.
    new_partitions = dict(manifest.partitions)
    new_meta = dict(manifest.partition_meta)
    new_delta_files = {k: list(v) for k, v in manifest.delta_files.items()}
    deltas_merged = 0
    for row in stats:
        part = int(row["part"])
        deltas_merged += int(row["events_applied"])
        if cfg.merge_mode == "mor":
            # base untouched; record the appended delta file and its
            # stats alongside the partition meta so compaction policy
            # can target partitions by delta volume
            new_delta_files.setdefault(part, []).append(row["path"])
            meta = dict(new_meta.get(part, {}))
            meta["delta_rows"] = meta.get("delta_rows", 0) + int(row["rows"])
            meta["delta_bytes"] = meta.get("delta_bytes", 0) + int(row["bytes"])
            meta["delta_file_count"] = len(new_delta_files[part])
            meta["delta_tombstones"] = (
                meta.get("delta_tombstones", 0) + int(row.get("tombstones", 0))
            )
            meta.setdefault("modulus", residue_modulus(
                part, manifest.num_partitions, manifest.split_set()
            ))
            new_meta[part] = meta
            continue
        # CoW: the rewrite folded any pending MOR deltas in
        new_delta_files.pop(part, None)
        if row["path"] is None:
            new_partitions.pop(part, None)
            new_meta.pop(part, None)
        else:
            new_partitions[part] = row["path"]
            new_meta[part] = {
                "rows": int(row["rows"]),
                "tombstones": int(row["tombstones"]),
                "bytes": int(row["bytes"]),
                "modulus": residue_modulus(
                    part, manifest.num_partitions, manifest.split_set()
                ),
            }
    counters = dict(manifest.counters)
    counters["events_applied"] = counters.get("events_applied", 0) + events_applied
    counters["commits"] = counters.get("commits", 0) + 1
    if error_rows:
        counters["error_rows"] = counters.get("error_rows", 0) + error_rows

    new_manifest = LakeManifest(
        num_partitions=manifest.num_partitions,
        version=manifest.version + 1,
        # a redrive replays synthetic segments and must NOT advance the
        # tailer watermark past real WAL names (watermark_override
        # pins it to the pre-redrive value); a NAMED source advances
        # only its own cursor, never the global tailer
        watermark=(
            watermark_override if watermark_override is not None
            else manifest.watermark if cfg.source
            else segments[-1].name
        ),
        source_watermarks={
            **manifest.source_watermarks,
            **({cfg.source: segments[-1].name} if cfg.source else {}),
        },
        schema=new_lake_schema,
        partitions=new_partitions,
        partition_meta=new_meta,
        splits=list(manifest.splits),
        lineage=manifest.lineage
        + [
            {
                "version": manifest.version + 1,
                "committed_at": utcnow_iso(),
                "token": token,
                "segments": [s.name for s in segments],
                "events_applied": events_applied,
                "deltas_merged": deltas_merged,
                "error_rows": error_rows,
                "partitions_rewritten": len(stats),
                "partitions_resumed": sum(
                    1 for r in stats if r.get("resumed")
                ),
                "phase1_seconds": round(phase1_s, 3),
                "phase2_seconds": round(phase2_s, 3),
                "events_per_sec": (
                    round(events_applied / (phase1_s + phase2_s), 1)
                    if (phase1_s + phase2_s) > 0 else None
                ),
                "rows_per_partition": {
                    str(int(r["part"])): int(r["rows"]) for r in stats
                },
                **({"merge_mode": "mor"} if cfg.merge_mode == "mor" else {}),
                **({"source": cfg.source} if cfg.source else {}),
                **(lineage_extra or {}),
            }
        ],
        counters=counters,
        retain_versions=cfg.retain_versions,
        kind=manifest.kind,
        delta_files={k: v for k, v in new_delta_files.items() if v},
        renames=[list(p) for p in manifest.renames],
        dropped=list(manifest.dropped),
    )
    import shutil as _shutil

    # Commit under the per-lake writer lock with a compare-and-swap on
    # the manifest version (T4 run-lock: the reference serializes runs
    # via an Airflow Variable, dags/s3_xml_import_pipeline.py:103-132).
    # A stale writer — one that loaded state, then lost the race —
    # fails here; its staging is GC'd and no partial state is published.
    try:
        with writer_lock(cfg.lake_dir) as lock_token:
            commit_manifest(
                cfg.lake_dir, new_manifest, expected_version=manifest.version
            )
            # fencing: a zombie writer whose lease was broken must fail
            # HERE, before deleting files a successor may have committed
            verify_lock(cfg.lake_dir, lock_token)
            # keep the PREVIOUS version's files through this commit so
            # readers holding the old manifest finish their scans
            # (one-version grace window); the manifest's retain_versions
            # widens that into real version history (time travel /
            # change feed) — manifest-level so compact/split honor it
            gc_unreferenced(cfg.lake_dir, new_manifest, previous=manifest)
    except ConcurrentWriterError:
        _shutil.rmtree(staging, ignore_errors=True)  # OUR dir only — a
        _gc_stale_staging(staging_root)  # concurrent writer's staging
        raise  # may be live
    # staging spill files are dead after the commit (crash-safe analog
    # of delete-after-load, etl.py:202-213): remove this writer's batch
    # dir, plus dirs from long-dead crashed batches (age-gated so a
    # concurrent writer's in-flight staging is never swept).
    _shutil.rmtree(staging, ignore_errors=True)
    _gc_stale_staging(staging_root)
    if trace:
        print(f"[cdc-trace] commit+gc {_time.perf_counter() - t0:.2f}s", flush=True)
    return new_manifest, {
        "events_applied": events_applied,
        "partitions_rewritten": len(stats),
        "deltas_merged": deltas_merged,
        "error_rows": error_rows,
    }


def _wait_for_writer(cfg: CdcConfig) -> None:
    """``check_no_live_writer`` with an optional bounded wait
    (``cfg.lock_wait_s``): concurrent source tailers sharing one lake
    take turns under the writer lock instead of failing a whole pass.
    Advisory either way — commits stay CAS-protected."""
    import time as _time

    from ..state.checkpoint import ConcurrentWriterError

    deadline = _time.monotonic() + cfg.lock_wait_s
    while True:
        try:
            check_no_live_writer(cfg.lake_dir)
            return
        except ConcurrentWriterError:
            if _time.monotonic() >= deadline:
                raise
            _time.sleep(min(0.25, max(0.05, cfg.lock_wait_s / 40)))


def run_ingest(
    cfg: CdcConfig, *, spill_cls=None, lake_schema_fn=None, reduce_fn=None,
    kind: str = "row",
) -> IngestReport:
    """Tail the WAL past the committed watermark and merge everything
    new, in segment order, committing once per micro-batch. Idempotent:
    calling with no new segments is a no-op; re-calling after a crash
    converges to the same lake state (tests assert this)."""
    if cfg.constraints and not cfg.quarantine:
        # constraints quarantine their violations; without the DLQ the
        # rows would be dropped silently — refuse the config instead
        raise ValueError("constraints require quarantine=True")
    _wait_for_writer(cfg)  # fail fast like the reference (or wait)
    manifest = load_manifest(cfg.lake_dir) or LakeManifest(
        num_partitions=cfg.num_partitions, kind=kind
    )
    if manifest.kind != kind:
        raise ValueError(
            f"lake {cfg.lake_dir} is kind={manifest.kind!r}; this ingest "
            f"writes kind={kind!r} rows — point it at its own lake dir"
        )
    tail_wm = (
        manifest.source_watermarks.get(cfg.source)
        if cfg.source else manifest.watermark
    )
    segments = wal_source.segments_after(
        wal_source.list_segments(
            cfg.wal_dir, cfg.segment_glob,
            include_pattern=cfg.include_pattern,
        ),
        tail_wm,
    )
    report = IngestReport(
        final_version=manifest.version, watermark=manifest.watermark
    )
    for i in range(0, len(segments), cfg.max_segments_per_batch):
        chunk = segments[i : i + cfg.max_segments_per_batch]
        manifest, stats = _ingest_one_batch(
            cfg, manifest, chunk,
            spill_cls=spill_cls, lake_schema_fn=lake_schema_fn,
            reduce_fn=reduce_fn,
        )
        report.commits += 1
        report.segments_processed += [s.name for s in chunk]
        report.events_applied += stats["events_applied"]
        report.partitions_rewritten += stats["partitions_rewritten"]
        report.error_rows += stats.get("error_rows", 0)
        report.final_version = manifest.version
        report.watermark = manifest.watermark
    return report


def run_entity_ingest(cfg: CdcConfig) -> IngestReport:
    """Multi-entity demux ingest (the reference's one-document-to-four-
    entity-tables fan-out, S9/M6): the same WAL drives a SECOND lake of
    page/link/heading entity rows, merged at page-version granularity —
    all entity rows of a url are replaced atomically by the rows of its
    winning event; a delete event's tombstone retires them. Point
    ``cfg.lake_dir`` at the entity lake (separate manifest/watermark
    from the page lake; the two ingests are independent consumers of
    the same WAL, each exactly-once)."""
    from ..stages.entities import EntityExtractCombineSpill, entity_lake_schema
    from ..stages.merge import lww_winner_rows

    return run_ingest(
        cfg,
        spill_cls=EntityExtractCombineSpill,
        lake_schema_fn=entity_lake_schema,
        reduce_fn=lww_winner_rows,
        kind="group",
    )


def run_nested_ingest(cfg: CdcConfig, *, struct_version: int = 1) -> IngestReport:
    """Nested single-table lake: one committed row per url whose
    entities are Arrow ``list<struct>`` columns (the reference's
    row-with-nested-lists warehouse shape). ``struct_version=2`` adds
    ``rel`` INSIDE the link struct — nested schema evolution through
    the normal merge path: the manifest schema union recurses into the
    struct (schemas.merge_types) and old partitions null-fill the new
    field inside every element at read/merge time
    (schemas.conform_array)."""
    from ..stages.entities import (
        NestedExtractCombineSpill,
        NestedExtractCombineSpillV2,
        nested_lake_schema,
    )

    spill_cls = (
        NestedExtractCombineSpillV2 if struct_version >= 2
        else NestedExtractCombineSpill
    )
    return run_ingest(
        cfg,
        spill_cls=spill_cls,
        lake_schema_fn=lambda _wire: nested_lake_schema(struct_version),
    )


def _read_lake_mor(
    lake_dir: str, manifest, *,
    columns: list[str] | None = None,
    filter: "pc.Expression | None" = None,
    parts: list[int] | None = None,
) -> ray.data.Dataset:
    """Merge-on-read scan: one task per partition reads its base file
    plus pending delta files, applies the kind-appropriate LWW
    reduction, filters tombstones, and emits the observable rows.
    Parquet reads stay column-pruned (plus the LWW key columns, which
    a correct merge always needs); a payload ``filter`` is applied
    AFTER the reduction — pushing it below LWW could drop the winning
    version of a url and resurrect an older row. ``parts`` (from the
    zone-map / hash-routing scan planner) restricts the scan to the
    listed partitions — each is still read WHOLE (base + every delta),
    the only sound pruning granularity under LWW."""
    import json as _json

    from ..stages.merge import read_effective_partition

    schema = manifest.schema
    kind = manifest.kind
    renames = [list(x) for x in manifest.renames]
    out_names = [
        f.name for f in schema
        if f.name != DELETED_COL and (columns is None or f.name in set(columns))
    ]
    parts = manifest.all_parts() if parts is None else sorted(parts)
    if not parts:
        target = pa.schema([schema.field(n) for n in out_names])
        return ray.data.from_arrow(target.empty_table())
    work = pa.table({
        "part": pa.array(parts, pa.int64()),
        "rels": pa.array(
            [_json.dumps(manifest.part_files(p)) for p in parts], pa.string()
        ),
    })

    def scan(batch: pa.Table):
        import pyarrow.compute as pc

        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        for part, rels_json in zip(
            batch.column("part").to_pylist(), batch.column("rels").to_pylist()
        ):
            t = read_effective_partition(
                lake_dir, int(part), _json.loads(rels_json), schema,
                kind=kind, columns=columns, renames=renames,
            )
            if DELETED_COL in t.column_names:
                mask = pc.fill_null(pc.invert(t.column(DELETED_COL)), True)
                t = t.filter(mask)
            if filter is not None:
                t = t.filter(filter)
            yield t.select(out_names)

    cpus = int(ray.cluster_resources().get("CPU", 8))
    blocks = min(len(parts), max(cpus * 2, 16))
    return (
        ray.data.from_arrow(work)
        .repartition(blocks)
        .map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)
    )


def read_lake(
    lake_dir: str, *, version: int | None = None,
    columns: list[str] | None = None,
    filter: "pc.Expression | None" = None,
    constraints: list | None = None,
) -> ray.data.Dataset:
    """Read the committed lake as a Dataset under the unified schema
    (old partitions null-filled / widened on the fly). ``version`` time-
    travels to a retained snapshot (see ``CdcConfig.retain_versions``).
    ``columns`` prunes at the parquet read — only those columns leave
    storage (at 100 TB the difference between a projection scan and a
    full-lake read); ``filter`` is a ``pyarrow.compute`` expression
    pushed into the scan (row-group statistics prune before bytes
    move). Tombstone filtering still happens regardless — and because
    tombstones carry NULL payload, a payload predicate never
    resurrects them.

    ``constraints`` — ``[col, op[, value]]`` triples (the CLI
    ``--constraint`` grammar, ANDed) — additionally drive the SCAN
    PLANNER (``state.zones``): ``url ==`` / ``url in`` constraints
    hash-route to the owning partitions (index-free point lookup), and
    manifest zone maps skip partitions whose per-file min/max prove no
    match, BEFORE any data byte moves. The same constraints are always
    re-applied as a compiled expression on the scan output, so pruning
    is never load-bearing for correctness; see :func:`scan_plan` for
    the observable plan."""
    from ..schemas import conform_table

    manifest = load_manifest(lake_dir, version=version)
    kept_parts: list[int] | None = None
    read_cols = columns
    if constraints:
        from ..state.bloomindex import load_bloom_index
        from ..state.zones import constraints_to_expression, plan_parts

        if manifest is not None:
            kept_parts, _ = plan_parts(
                manifest, constraints, load_bloom_index(lake_dir)
            )
        cexpr = constraints_to_expression(
            constraints, manifest.schema if manifest is not None else None
        )
        if cexpr is not None:
            filter = cexpr if filter is None else (filter & cexpr)
        if columns is not None:
            extra = sorted({c[0] for c in constraints} - set(columns))
            if extra:  # keep read_cols IS columns when nothing to add:
                read_cols = columns + extra  # no select_columns tail

    if manifest is not None and (manifest.delta_files or manifest.renames):
        # per-partition effective-state scan: required for MOR deltas,
        # and used for a lake with a RENAME LOG too — files written
        # before the rename serve their data through
        # read_effective_partition's alias-aware read (Ray's parquet
        # datasource narrows an explicit schema to the columns files
        # actually contain, so the alias null-fill trick cannot ride
        # the native read path). Still one column-pruned task per
        # partition — the same shape the 100-TB MOR scan uses.
        ds = _read_lake_mor(
            lake_dir, manifest, columns=read_cols, filter=filter,
            parts=kept_parts,
        )
        if read_cols is not columns and columns is not None:
            ds = ds.select_columns(columns)
        return ds
    target = manifest.schema if manifest else None
    if read_cols is not None and target is not None:
        need = set(read_cols) | {DELETED_COL}
        target = pa.schema([f for f in target if f.name in need])
    if manifest is None or not manifest.partitions or kept_parts == []:
        if target is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        out = ray.data.from_arrow(
            pa.schema(
                [f for f in target if f.name != DELETED_COL]
            ).empty_table()
        )
        return out.select_columns(columns) if columns is not None else out
    paths = [
        os.path.join(lake_dir, rel)
        for part, rel in sorted(manifest.partitions.items())
        if kept_parts is None or part in set(kept_parts)
    ]

    def conform(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = conform_table(batch, target)
        if DELETED_COL in batch.column_names:
            mask = pc.fill_null(pc.invert(batch.column(DELETED_COL)), True)
            batch = batch.filter(mask).drop_columns([DELETED_COL])
        return batch

    read_kwargs: dict = {}
    if read_cols is not None:
        # explicit schema: partitions predating an evolution-added
        # column null-fill it in the scanner instead of erroring.
        # (A lake with a RENAME log never reaches this path — it
        # scans per-partition above, where historical aliases are
        # read and coalesced.)
        read_kwargs = dict(columns=target.names, schema=target)
    if filter is not None:
        read_kwargs["filter"] = filter

    out = ray.data.read_parquet(paths, **read_kwargs).map_batches(
        conform, batch_format="pyarrow", zero_copy_batch=True
    )
    if read_cols is not columns and columns is not None:
        out = out.select_columns(columns)
    return out


def scan_plan(
    lake_dir: str, constraints: list, *, version: int | None = None,
) -> dict:
    """The scan plan a constrained :func:`read_lake` would execute —
    metadata only, no data read: how many partitions/files the
    predicate touches and why the rest were skipped (hash routing vs
    zone maps vs bloom index). The observability hook for the planner,
    and the thing a test asserts when it claims "this point lookup
    reads one partition"."""
    from ..state.bloomindex import load_bloom_index
    from ..state.zones import plan_parts

    manifest = load_manifest(lake_dir, version=version)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    kept, stats = plan_parts(manifest, constraints, load_bloom_index(lake_dir))
    return {"lake": lake_dir, "version": manifest.version,
            "parts": kept, **stats}


CHANGE_OP_COL = "change_op"


def _feed_pair_groups(
    lake_dir: str, m_to, m_from,
) -> list[dict]:
    """Ancestor-granularity pairing for a version diff: splits are
    append-only, so each v_to partition resolves to exactly one v_from
    ancestor; one group per ancestor (its file + every descendant
    file), plus groups for v_to partitions with no ancestor file and
    v_from files with zero descendants."""
    from ..state.checkpoint import resolve_partition

    from_splits = m_from.split_set() if m_from is not None else frozenset()
    num_p = m_to.num_partitions
    groups: dict = {}
    for part in m_to.all_parts():
        rels = m_to.part_files(part)
        old_part = (
            resolve_partition(part, num_p, from_splits) if m_from is not None
            else None
        )
        old_rels = m_from.part_files(old_part) if old_part is not None else []
        key = old_part if old_rels else ("new", part)
        g = groups.setdefault(key, {
            "old_paths": [os.path.join(lake_dir, r) for r in old_rels],
            # a side with pending MOR delta files holds >1 row per url;
            # the diff must LWW-reduce it to the effective state first
            "old_reduce": len(old_rels) > 1,
            "new_paths": [],
            "new_reduce": False,
        })
        g["new_paths"].extend(os.path.join(lake_dir, r) for r in rels)
        g["new_reduce"] = g["new_reduce"] or len(rels) > 1
    if m_from is not None:
        for old_part in m_from.all_parts():
            # old partition with zero descendant files: all rows gone
            old_rels = m_from.part_files(old_part)
            if old_part not in groups and old_rels:
                groups[old_part] = {
                    "old_paths": [os.path.join(lake_dir, r) for r in old_rels],
                    "old_reduce": len(old_rels) > 1,
                    "new_paths": [], "new_reduce": False,
                }
    return list(groups.values())


def _purge_delete_rows(
    urls: list[str], schema: pa.Schema, out_schema: pa.Schema,
) -> pa.Table:
    """Synthetic NULL-identity delete rows for PURGED urls: the history
    rewrite (``maintenance.purge_urls``) scrubbed the key from BOTH
    snapshots' files, so the diff kernel cannot see it — but a consumer
    that replicated the row before the purge must still retire it. Same
    honest-NULL shape as the compacted-away-tombstone delete."""
    n = len(urls)
    cols = [
        pa.array(urls, pa.string()),
        pa.array(["delete"] * n, pa.string()),
    ]
    cols += [
        pa.nulls(n, f.type) for f in schema
        if f.name not in ("url", DELETED_COL)
    ]
    return pa.Table.from_arrays(cols, schema=out_schema)


def _newly_purged(
    lake_dir: str, v_from: int, v_to: int, *, preimages: bool,
) -> list[str]:
    """Urls purged in ``(v_from, v_to]``. A consumer at v_from=0 never
    saw any state, so there is nothing to retire. ``preimages=True``
    REFUSES a window crossing a purge: the pre-image is unrecoverable
    by design (right-to-be-forgotten), and silently substituting NULLs
    would corrupt an incremental consumer's subtraction — it must
    full-rebuild instead."""
    if v_from <= 0:
        return []
    newly = sorted(
        u for u, pv in list_purged(lake_dir).items() if v_from < pv <= v_to
    )
    if newly and preimages:
        raise ValueError(
            f"{len(newly)} url(s) were purged between v{v_from} and "
            f"v{v_to}; their pre-images are unrecoverable by design — "
            "preimage consumers (incremental views) must full-rebuild"
        )
    return newly


def changes_between(
    lake_dir: str, v_from: int, v_to: int | None = None,
    *, preimages: bool = False, columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Change data feed: the observable row changes between two retained
    lake versions, as a Dataset of the v_to winner rows tagged
    ``change_op`` in {'insert','update','delete'} (the downstream-
    consumer surface every CDC lake needs — Delta CDF / Iceberg
    changelog-scan parity; the reference's consumers re-read whole BQ
    tables instead, ``bq_data_service.py``).

    Semantics per url (tombstones are persisted rows, so a partition
    file carries its full key set):

    * absent/tombstone -> live row      = ``insert``
    * live -> live, (warc_ts, seq) moved = ``update`` (the new winner)
    * live -> tombstone                  = ``delete`` (tombstone's
      warc_ts/seq name the winning delete; payload columns are the
      tombstone's stored values, i.e. ``text`` NULL)
    * live -> ABSENT                     = ``delete`` with NULL
      warc_ts/seq/payload: the only way a key vanishes outright is
      :func:`..pipelines.maintenance.compact_lake` dropping its
      tombstone between the two versions, so the winning delete's
      identity is no longer recorded — NULLs say so honestly instead
      of inventing a timestamp.
    * tombstone/absent -> tombstone/absent, or unchanged winner: no row.

    With ``preimages=True`` the feed switches to Delta-CDF retraction
    semantics — what an INCREMENTAL consumer (materialized-view
    refresh, downstream aggregate) needs to subtract the old
    contribution before adding the new one:

    * ``insert``            = the new row (as above)
    * ``update_preimage``   = the OLD winner row being replaced
    * ``update_postimage``  = the new winner row
    * ``delete``            = the OLD live row being removed (its
      payload values, not the tombstone's NULLs — and compacted-away
      tombstones get real pre-images too instead of NULL identity).

    NO shuffle: versions share the crc32(url) routing and splits are
    append-only, so every v_to partition resolves to exactly one
    v_from ancestor (``resolve_partition`` under the OLD split map).
    One Ray task per ancestor group diffs the old file against the
    union of its descendant files — which also catches descendants
    with no v_to file (all rows gone) and old partitions with no
    descendants at all. ``v_from=0`` diffs against the empty lake
    (everything live is an insert).

    ``columns`` prunes the PAYLOAD columns the feed carries (and
    reads from storage — a consumer aggregating one metric column
    doesn't pay to move the text payload); the change identity
    (``url``, ``warc_ts``, ``seq``) is always present."""
    from ..schemas import conform_table

    m_to = load_manifest(lake_dir, version=v_to)
    if m_to is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    m_from = None if v_from == 0 else load_manifest(lake_dir, version=v_from)
    if m_from is not None and m_from.version > m_to.version:
        # a reversed range would mis-pair partitions through the split
        # map and invert the labels — refuse instead of lying
        raise ValueError(
            f"v_from={m_from.version} is newer than v_to={m_to.version}"
        )
    if m_to.kind != "row":
        # one-row-per-url assumption (index_in diff) does not hold
        raise ValueError(
            f"lake {lake_dir} is kind={m_to.kind!r}: use "
            "entity_changes_between for group-valued lakes"
        )
    if m_from is not None and not (m_from.split_set() <= m_to.split_set()):
        # the ancestor pairing assumes the split map only GROWS from
        # v_from to v_to; a restore_lake that rolled back past a split
        # breaks that — refuse instead of mis-pairing partitions
        raise ValueError(
            f"split map regressed between v{m_from.version} and "
            f"v{m_to.version} (a restore crossed a partition split); "
            "this version pair cannot be diffed"
        )
    if m_from is not None and (
        [tuple(p) for p in m_to.renames][: len(m_from.renames)]
        != [tuple(p) for p in m_from.renames]
        or m_to.dropped[: len(m_from.dropped)] != m_from.dropped
    ):
        # same append-only contract as splits: m_to's rename/drop log
        # must EXTEND m_from's, so every old-side file reads correctly
        # under m_to's log. A restore_lake that rolled back past an
        # alter_lake breaks that — refuse instead of mis-mapping names
        raise ValueError(
            f"schema DDL log regressed between v{m_from.version} and "
            f"v{m_to.version} (a restore crossed an alter); "
            "this version pair cannot be diffed"
        )
    schema = m_to.schema
    feed_renames = [list(x) for x in m_to.renames]
    if columns is not None:
        need = {"url", "warc_ts", "seq", DELETED_COL} | set(columns)
        schema = pa.schema([f for f in schema if f.name in need])
    out_fields = [pa.field("url", pa.string()), pa.field(CHANGE_OP_COL, pa.string())]
    out_fields += [f for f in schema if f.name not in ("url", DELETED_COL)]
    out_schema = pa.schema(out_fields)

    newly_purged = _newly_purged(
        lake_dir, 0 if m_from is None else m_from.version, m_to.version,
        preimages=preimages,
    )
    purge_tbl = (
        _purge_delete_rows(newly_purged, schema, out_schema)
        if newly_purged else None
    )
    descs = _feed_pair_groups(lake_dir, m_to, m_from)
    if not descs:
        return ray.data.from_arrow(
            purge_tbl if purge_tbl is not None else out_schema.empty_table()
        )

    def diff(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)

        def read_file(p: str) -> pa.Table:
            # pruned column read (only the feed's columns leave disk);
            # evolution-added columns a file predates are null-filled
            # by conform_table afterwards, and files written before a
            # column rename serve it via m_to's rename log (a superset
            # of every older manifest's — guarded above)
            from ..schemas import apply_renames, physical_read_columns

            f = pq.ParquetFile(p)
            want = physical_read_columns(list(schema.names), feed_renames)
            avail = [c for c in want if c in set(f.schema_arrow.names)]
            return conform_table(
                apply_renames(f.read(columns=avail), feed_renames), schema
            )

        from ..stages.merge import lww_reduce

        outs = []
        for d in batch.to_pylist():
            news = [read_file(p) for p in d["new_paths"]]
            new = pa.concat_tables(news) if news else schema.empty_table()
            if d["new_reduce"]:
                # MOR deltas pending on the new side: collapse to the
                # effective one-row-per-url state (urls are disjoint
                # across descendant partitions, so one global LWW over
                # the concatenation is exact)
                new = lww_reduce(new)
            olds = [read_file(p) for p in d["old_paths"]]
            old = pa.concat_tables(olds) if olds else schema.empty_table()
            if d["old_reduce"]:
                old = lww_reduce(old)
            idx = pc.index_in(new.column("url"), value_set=old.column("url"))
            present = pc.is_valid(idx).to_numpy(zero_copy_only=False)
            idx_np = idx.to_numpy(zero_copy_only=False)
            safe = np.where(present, idx_np, 0).astype(np.int64)
            old_del = pc.fill_null(old.column(DELETED_COL), False).to_numpy(
                zero_copy_only=False
            ) if old.num_rows else np.zeros(0, bool)
            old_live = present & (
                ~old_del[safe] if old.num_rows else np.zeros(len(new), bool)
            )
            new_live = ~pc.fill_null(new.column(DELETED_COL), False).to_numpy(
                zero_copy_only=False
            )
            if old.num_rows:
                same = present & (
                    old.column("warc_ts").take(pa.array(safe)).to_numpy(
                        zero_copy_only=False
                    ) == new.column("warc_ts").to_numpy(zero_copy_only=False)
                ) & (
                    old.column("seq").take(pa.array(safe)).to_numpy(
                        zero_copy_only=False
                    ) == new.column("seq").to_numpy(zero_copy_only=False)
                )
            else:
                same = np.zeros(len(new), bool)
            ins = new_live & ~old_live
            upd = new_live & old_live & ~same
            dele = ~new_live & old_live

            def emit(src: pa.Table, label: str) -> None:
                cols = [
                    src.column("url"),
                    pa.array([label] * src.num_rows, pa.string()),
                ]
                cols += [
                    src.column(f.name) for f in schema
                    if f.name not in ("url", DELETED_COL)
                ]
                outs.append(pa.Table.from_arrays(cols, schema=out_schema))

            if not preimages:
                mask = ins | upd | dele
                op = np.select([ins, upd], ["insert", "update"], default="delete")
                changed = new.filter(pa.array(mask))
                cols = [changed.column("url"), pa.array(op[mask], pa.string())]
                cols += [
                    changed.column(f.name) for f in schema
                    if f.name not in ("url", DELETED_COL)
                ]
                outs.append(pa.Table.from_arrays(cols, schema=out_schema))
            else:
                if ins.any():
                    emit(new.filter(pa.array(ins)), "insert")
                if upd.any():
                    emit(old.take(pa.array(safe[upd])), "update_preimage")
                    emit(new.filter(pa.array(upd)), "update_postimage")
                if dele.any():
                    emit(old.take(pa.array(safe[dele])), "delete")
            if old.num_rows:
                # live old rows whose url has NO v_to row at all: the
                # compacted-tombstone delete
                oidx = pc.index_in(old.column("url"), value_set=new.column("url"))
                gone = pc.is_null(oidx).to_numpy(zero_copy_only=False) & ~old_del
                if gone.any():
                    if preimages:
                        emit(old.filter(pa.array(gone)), "delete")
                    else:
                        # identity unknown without the tombstone -> NULLs
                        gone_urls = old.column("url").filter(pa.array(gone))
                        n = len(gone_urls)
                        gcols = [
                            gone_urls.combine_chunks(),
                            pa.array(["delete"] * n, pa.string()),
                        ]
                        gcols += [
                            pa.nulls(n, f.type) for f in schema
                            if f.name not in ("url", DELETED_COL)
                        ]
                        outs.append(
                            pa.Table.from_arrays(gcols, schema=out_schema)
                        )
        if not outs:
            return out_schema.empty_table()
        return pa.concat_tables(outs)

    feed = ray.data.from_items(
        descs, override_num_blocks=len(descs)
    ).map_batches(diff, batch_format="pyarrow", zero_copy_batch=True)
    if purge_tbl is not None:
        feed = feed.union(ray.data.from_arrow(purge_tbl))
    return feed


def scd2_history(
    lake_dir: str, *, to_version: int | None = None,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Type-2 slowly-changing-dimension view of the lake's VERSION
    HISTORY: one row per (url, committed state) with ``valid_from`` /
    ``valid_to`` version columns (``valid_to`` NULL = current) — the
    classic warehouse consumer a CDC lake feeds (Kimball SCD2; the
    reference's warehouse keeps only latest state and re-reads whole
    tables, ``bq_data_service.py:17-52``).

    Built by folding the change feeds between CONSECUTIVE retained
    versions (:func:`changes_between` — so history granularity is the
    RETAINED snapshot chain; run with ``retain_versions=None`` to keep
    every commit). Per url, each insert/update opens an interval that
    the url's next feed event closes; a delete only closes. Invariant
    (tested): filtering ``valid_from <= v AND (valid_to IS NULL OR
    valid_to > v)`` reconstructs ``lake_snapshot(version=v)`` exactly,
    for every retained v.

    Scale shape: feeds are O(changed rows) — never O(lake rows) — and
    the single shuffle is a url-hash groupby over that union (each
    bucket holds complete url histories; one vectorized ``lead`` kernel
    per bucket, no per-url Python)."""
    import numpy as np

    from ..stages.merge import crc32_column
    from ..state.checkpoint import list_versions

    versions = [
        v for v in list_versions(lake_dir)
        if v >= 1 and (to_version is None or v <= to_version)
    ]
    if not versions:
        raise FileNotFoundError(f"no committed versions at {lake_dir}")
    # the TARGET feed schema: the newest folded version's, through its
    # rename log — per-version feeds emitted before an alter_lake carry
    # the then-live column names, and the union must agree (a renamed
    # column is the SAME logical column across the history; a column
    # added later null-fills the older intervals; a dropped one leaves)
    from ..schemas import apply_renames, conform_table as _conform

    m_head = load_manifest(lake_dir, version=versions[-1])
    head_renames = [list(x) for x in m_head.renames]
    head_schema = m_head.schema
    if columns is not None:
        need = {"url", "warc_ts", "seq", DELETED_COL} | set(columns)
        head_schema = pa.schema([f for f in head_schema if f.name in need])
    target_schema = pa.schema(
        [pa.field("url", pa.string()), pa.field(CHANGE_OP_COL, pa.string())]
        + [f for f in head_schema if f.name not in ("url", DELETED_COL)]
    )
    from ..schemas import alias_names

    feeds = []
    prev = 0
    for v in versions:
        cols_v = columns
        if columns is not None and head_renames:
            # ask each version's feed for the column under the name
            # that version knew it by (pruning is by-name per version)
            m_v = load_manifest(lake_dir, version=v)
            have = set(m_v.schema.names) if m_v.schema is not None else set()
            cols_v = [
                a for c in columns
                for a in alias_names(c, head_renames) if a in have
            ]
        f = changes_between(lake_dir, prev, v, columns=cols_v)

        def tag(batch: pa.Table, _v=v) -> pa.Table:
            batch = _conform(
                apply_renames(batch, head_renames), target_schema
            )
            return batch.append_column(
                "version", pa.array(np.full(batch.num_rows, _v), pa.int64())
            )

        feeds.append(
            f.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        )
        prev = v
    ds = feeds[0].union(*feeds[1:]) if len(feeds) > 1 else feeds[0]

    num_buckets = max(16, load_manifest(lake_dir).num_partitions)

    def add_bucket(t: pa.Table) -> pa.Table:
        crc = crc32_column(t.column("url")).astype(np.int64)
        return t.append_column(
            "_bucket", pa.array(crc % num_buckets, pa.int64())
        )

    def fold(group: pa.Table) -> pa.Table:
        import polars as pl

        from ..schemas import conform_table

        base = group.drop_columns(["_bucket"])
        df = pl.from_arrow(base)
        df = df.sort(["url", "version"]).with_columns(
            pl.col("version").shift(-1).over("url").alias("valid_to")
        )
        df = (
            df.filter(pl.col(CHANGE_OP_COL) != "delete")
            .rename({"version": "valid_from"})
            .drop(CHANGE_OP_COL)
        )
        out = df.to_arrow()
        # pin the polars round-trip back to the feed's arrow types
        # (large_string -> string etc.) so every bucket block agrees
        return conform_table(out, pa.schema([
            pa.field(n, pa.int64()) if n in ("valid_from", "valid_to")
            else base.schema.field(n)
            for n in out.column_names
        ]))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(fold, batch_format="pyarrow")
    )


def wal_lag(
    lake_dir: str, wal_dir: str, *, segment_glob: str | None = None,
    source: str | None = None,
) -> dict:
    """Tail backlog behind the committed watermark — metadata only (a
    directory listing plus one parquet FOOTER per pending segment, no
    data read, no ray session): how many segments/bytes/events the next
    ingest will face. The ops dial for "is the tailer keeping up"
    (reference analog: the sensor's last-download-date comparison,
    ``S3NewKeyFromLastDataDownloadDateSensor``). ``pending_events`` is
    None when a pending segment's format carries no footer row count
    (JSONL)."""
    m = load_manifest(lake_dir)
    if m is None:
        wm = None
    elif source is not None:
        wm = m.source_watermarks.get(source)
    else:
        wm = m.watermark
    segs = wal_source.segments_after(
        wal_source.list_segments(
            wal_dir, segment_glob or wal_source.SEGMENT_GLOB
        ),
        wm,
    )
    events: int | None = 0
    for s in segs:
        if s.path.endswith(".parquet"):
            events += pq.ParquetFile(s.path).metadata.num_rows
        else:
            events = None
            break
    return {
        "lake": lake_dir, "wal": wal_dir, "watermark": wm,
        "lake_version": 0 if m is None else m.version,
        "pending_segments": len(segs),
        "pending_bytes": sum(s.size_bytes for s in segs),
        "pending_events": events,
        "next_segment": segs[0].name if segs else None,
    }


def next_changes(
    lake_dir: str, consumer: str, *,
    preimages: bool = False, columns: list[str] | None = None,
) -> tuple[ray.data.Dataset | None, dict]:
    """Consumer-group change-feed consumption (the Kafka consumer /
    Delta streaming-checkpoint shape): return the feed from this
    consumer's last ACKED version to the current head, plus an ack
    TOKEN. The caller applies the batch to its side effect, then calls
    :func:`ack_changes` with the token — crash before ack means the
    same batch is redelivered next call (at-least-once delivery), while
    the CAS-guarded cursor advance is exactly-once (a stale or replayed
    ack is rejected, never double-applied). Returns ``(None, token)``
    when the consumer is caught up.

    The cursor PINS its version against retention/vacuum
    (``state.checkpoint.gc_unreferenced``), so a slow consumer's unread
    feed is never pruned out from under it — the lake-side backpressure
    contract a 100-TB deployment needs (a stuck consumer holds
    snapshots, it does not lose data)."""
    from ..state.checkpoint import list_cursors

    m = load_manifest(lake_dir)
    if m is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    cur = list_cursors(lake_dir).get(consumer, 0)
    token = {
        "consumer": consumer, "from_version": cur, "to_version": m.version,
    }
    if m.version <= cur:
        return None, token
    ds = changes_between(
        lake_dir, cur, m.version, preimages=preimages, columns=columns
    )
    return ds, token


def ack_changes(lake_dir: str, token: dict) -> bool:
    """Acknowledge a :func:`next_changes` batch: CAS-advance the
    consumer cursor from the token's ``from_version`` to its
    ``to_version``. False = the token is stale (another instance of
    this consumer group acked first) — the side effect was applied
    twice, the cursor only once; keep consumer side effects idempotent
    (the same discipline every at-least-once feed requires)."""
    from ..state.checkpoint import advance_cursor

    return advance_cursor(
        lake_dir, token["consumer"],
        from_version=token["from_version"],
        to_version=token["to_version"],
    )


def entity_changes_between(
    lake_dir: str, v_from: int, v_to: int | None = None,
    *, preimages: bool = False, columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Change feed for GROUP-VALUED lakes (the entity/nested shapes,
    ``run_entity_ingest``): a url's state is the SET of rows sharing
    its winning ``(warc_ts, seq)`` version, so the unit of change is
    the whole row-group —

    * ``insert`` = every row of a newly-live url
    * ``update`` = every row of the NEW winning version (postimage
      mode); with ``preimages=True``, the old version's rows come too
      as ``update_preimage`` (all rows of one url share one op — a
      consumer replaces the url's row-set atomically)
    * ``delete`` = the tombstone row (postimage), or the old version's
      rows (preimages) — compacted-away tombstones yield one NULL-
      identity row per url (postimage) / real pre-image rows.

    Same no-shuffle ancestor-pairing as :func:`changes_between`; the
    per-group kernel is a polars url-level version join instead of a
    row-level ``index_in`` (identical (warc_ts, seq) implies an
    identical row-set — extraction is deterministic — so unchanged
    urls emit nothing)."""
    import polars as pl

    from ..schemas import conform_table

    m_to = load_manifest(lake_dir, version=v_to)
    if m_to is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    m_from = None if v_from == 0 else load_manifest(lake_dir, version=v_from)
    if m_from is not None and m_from.version > m_to.version:
        raise ValueError(
            f"v_from={m_from.version} is newer than v_to={m_to.version}"
        )
    if m_from is not None and (
        [tuple(p) for p in m_to.renames][: len(m_from.renames)]
        != [tuple(p) for p in m_from.renames]
        or m_to.dropped[: len(m_from.dropped)] != m_from.dropped
    ):
        raise ValueError(
            f"schema DDL log regressed between v{m_from.version} and "
            f"v{m_to.version} (a restore crossed an alter); "
            "this version pair cannot be diffed"
        )
    schema = m_to.schema
    feed_renames = [list(x) for x in m_to.renames]
    if columns is not None:
        need = {"url", "warc_ts", "seq", DELETED_COL} | set(columns)
        schema = pa.schema([f for f in schema if f.name in need])
    out_fields = [pa.field("url", pa.string()), pa.field(CHANGE_OP_COL, pa.string())]
    out_fields += [f for f in schema if f.name not in ("url", DELETED_COL)]
    out_schema = pa.schema(out_fields)
    newly_purged = _newly_purged(
        lake_dir, 0 if m_from is None else m_from.version, m_to.version,
        preimages=preimages,
    )
    purge_tbl = (
        _purge_delete_rows(newly_purged, schema, out_schema)
        if newly_purged else None
    )
    descs = _feed_pair_groups(lake_dir, m_to, m_from)
    if not descs:
        return ray.data.from_arrow(
            purge_tbl if purge_tbl is not None else out_schema.empty_table()
        )

    def diff(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)

        def read_file(p: str) -> pa.Table:
            from ..schemas import apply_renames, physical_read_columns

            f = pq.ParquetFile(p)
            want = physical_read_columns(list(schema.names), feed_renames)
            avail = [c for c in want if c in set(f.schema_arrow.names)]
            return conform_table(
                apply_renames(f.read(columns=avail), feed_renames), schema
            )

        def info(df: pl.DataFrame) -> pl.DataFrame:
            return df.group_by("url").agg(
                pl.col("warc_ts").first().alias("_ts"),
                pl.col("seq").first().alias("_seq"),
                pl.col(DELETED_COL).fill_null(False).any().alias("_del"),
                pl.lit(True).alias("_present"),
            )

        outs = []

        def emit(df: pl.DataFrame, label: str) -> None:
            if df.height == 0:
                return
            t = conform_table(df.to_arrow(), schema)
            cols = [
                t.column("url"),
                pa.array([label] * t.num_rows, pa.string()),
            ]
            cols += [
                t.column(f.name) for f in schema
                if f.name not in ("url", DELETED_COL)
            ]
            outs.append(pa.Table.from_arrays(cols, schema=out_schema))

        from ..stages.merge import lww_winner_rows

        for d in batch.to_pylist():
            news = [read_file(p) for p in d["new_paths"]]
            new = pa.concat_tables(news) if news else schema.empty_table()
            if d["new_reduce"]:
                # group-valued MOR: keep all rows of each url's winning
                # version before the url-level version join
                new = lww_winner_rows(new)
            olds = [read_file(p) for p in d["old_paths"]]
            old = pa.concat_tables(olds) if olds else schema.empty_table()
            if d["old_reduce"]:
                old = lww_winner_rows(old)
            nd, od = pl.from_arrow(new), pl.from_arrow(old)
            j = info(nd).join(
                info(od), on="url", how="full",
                coalesce=True, suffix="_o",
            ).with_columns(
                pl.col("_present").fill_null(False),
                pl.col("_present_o").fill_null(False),
                pl.col("_del").fill_null(False),
                pl.col("_del_o").fill_null(False),
            )
            new_live = pl.col("_present") & ~pl.col("_del")
            old_live = pl.col("_present_o") & ~pl.col("_del_o")
            same = (pl.col("_ts") == pl.col("_ts_o")) & (
                pl.col("_seq") == pl.col("_seq_o")
            )
            j = j.with_columns(
                (new_live & ~old_live).alias("_ins"),
                (new_live & old_live & ~same.fill_null(False)).alias("_upd"),
                (~new_live & old_live).alias("_rm"),
            )
            ins = j.filter("_ins").select("url")
            upd = j.filter("_upd").select("url")
            rm_tomb = j.filter(pl.col("_rm") & pl.col("_present")).select("url")
            rm_gone = j.filter(pl.col("_rm") & ~pl.col("_present")).select("url")
            emit(nd.join(ins, on="url", how="semi"), "insert")
            if preimages:
                emit(od.join(upd, on="url", how="semi"), "update_preimage")
                emit(nd.join(upd, on="url", how="semi"), "update_postimage")
                rm_all = pl.concat([rm_tomb, rm_gone])
                emit(od.join(rm_all, on="url", how="semi"), "delete")
            else:
                emit(nd.join(upd, on="url", how="semi"), "update")
                emit(nd.join(rm_tomb, on="url", how="semi"), "delete")
                if rm_gone.height:
                    # compacted-away tombstone: identity unknown
                    urls = rm_gone.get_column("url").to_list()
                    gcols = [
                        pa.array(urls, pa.string()),
                        pa.array(["delete"] * len(urls), pa.string()),
                    ]
                    gcols += [
                        pa.nulls(len(urls), f.type) for f in schema
                        if f.name not in ("url", DELETED_COL)
                    ]
                    outs.append(
                        pa.Table.from_arrays(gcols, schema=out_schema)
                    )
        if not outs:
            return out_schema.empty_table()
        return pa.concat_tables(outs)

    feed = ray.data.from_items(
        descs, override_num_blocks=len(descs)
    ).map_batches(diff, batch_format="pyarrow", zero_copy_batch=True)
    if purge_tbl is not None:
        feed = feed.union(ray.data.from_arrow(purge_tbl))
    return feed


def read_errors(lake_dir: str) -> pa.Table:
    """Quarantined dead-letter rows (``<lake>/_errors``): the wire rows
    that failed the WAL contract or UTF-8 decode, with ``error`` tag +
    ``_src_segment`` provenance. Empty table when the lake is clean."""
    from ..stages.merge import ERRORS_SCHEMA
    from ..state.iofs import list_data_files

    files = sorted(
        f for f in list_data_files(os.path.join(lake_dir, ERRORS_DIR))
        if f.endswith(".parquet") and not f.endswith(".raw.parquet")
    )
    if not files:
        return ERRORS_SCHEMA.empty_table()
    return pa.concat_tables([pq.read_table(f) for f in files])


def redrive_errors(cfg: CdcConfig, fixer=None) -> dict:
    """DLQ REDRIVE: replay quarantined rows through the NORMAL ingest
    path after a fix — the dead-letter queue's second half (quarantine
    alone is a roach motel; real pipelines re-drive once the parser or
    producer is repaired).

    Mechanics:

    1. every ``errors-<h>.raw.parquet`` (the offending rows in their
       original wire schema) is MOVED to a transient sidecar dir — so
       rows that STILL fail re-quarantine as fresh files without
       colliding with the consumed ones;
    2. ``fixer(table) -> table`` (optional) repairs each raw table —
       e.g. re-decode mojibake html, fill a null key from a sister
       column; no fixer = plain retry (for transient-defect queues);
    3. the repaired tables replay as synthetic ``redrive-*`` segments
       through ``_ingest_one_batch`` — same conform / quarantine / LWW
       merge / CAS commit as live traffic, one commit, with the
       tailer WATERMARK PINNED to its pre-redrive value (a synthetic
       segment name must never make the tailer skip real WAL);
    4. on success the consumed tagged+raw files are deleted with the
       sidecar; on failure they are restored.

    LWW makes redrive idempotent and safe out-of-order: replayed rows
    merge by (warc_ts, seq) exactly as if they had never failed.
    Returns counters incl. ``still_bad`` (rows the redrive
    re-quarantined)."""
    import glob as _glob
    import shutil as _shutil
    import uuid as _uuid

    import pyarrow.parquet as _pq

    from ..state.checkpoint import writer_lock

    errors_dir = os.path.join(cfg.lake_dir, ERRORS_DIR)
    manifest = load_manifest(cfg.lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {cfg.lake_dir}")
    # kind dispatch: replay MUST run the lake's own pipeline classes —
    # page-lake defaults into a group lake would collapse each url's
    # row-set under row-LWW (every other consumer carries this guard)
    if manifest.kind == "group":
        from ..stages.entities import (
            EntityExtractCombineSpill,
            entity_lake_schema,
        )
        from ..stages.merge import lww_winner_rows

        pipeline_kw = dict(
            spill_cls=EntityExtractCombineSpill,
            lake_schema_fn=entity_lake_schema,
            reduce_fn=lww_winner_rows,
        )
    else:
        if manifest.schema is not None and any(
            pa.types.is_list(f.type) and pa.types.is_struct(f.type.value_type)
            for f in manifest.schema
        ):
            raise ValueError(
                "redrive of a nested-entity lake is not supported (its "
                "struct_version is not recorded in the manifest); use "
                "rewind_watermark + run_nested_ingest to replay instead"
            )
        pipeline_kw = {}

    # the WHOLE file shuffle (orphan recovery, sidecar move, replay,
    # cleanup) runs under a dedicated lease lock: a concurrent redrive
    # must not treat OUR live sidecar as an orphan; the inner commit
    # still takes the main writer lock (different lock file)
    with writer_lock(cfg.lake_dir, lock_name=REDRIVE_LOCK_NAME):
        # crash recovery: a sidecar left by a DEAD redrive (its lease
        # expired, letting us in) is restored into the queue —
        # re-replaying rows whose commit DID land is harmless (LWW
        # merges them to the identical state)
        for orphan in _glob.glob(os.path.join(errors_dir, ".redrive-*")):
            for f in _glob.glob(os.path.join(orphan, "*.parquet")):
                os.replace(f, os.path.join(errors_dir, os.path.basename(f)))
            _shutil.rmtree(orphan, ignore_errors=True)
        raw_files = sorted(
            f for f in _glob.glob(os.path.join(errors_dir, "*.raw.parquet"))
        )
        if not raw_files:
            return {"redriven_rows": 0, "commits": 0, "still_bad": 0}

        sidecar = os.path.join(errors_dir, f".redrive-{_uuid.uuid4().hex[:8]}")
        os.makedirs(sidecar)
        moved: list[tuple[str, str]] = []
        for rf in raw_files:
            for f in (rf, rf[: -len(".raw.parquet")] + ".parquet"):
                if os.path.exists(f):
                    dst = os.path.join(sidecar, os.path.basename(f))
                    os.replace(f, dst)
                    moved.append((f, dst))
        pre_attempt = set(os.listdir(errors_dir))
        try:
            seg_dir = os.path.join(sidecar, "segments")
            os.makedirs(seg_dir)
            segments = []
            redriven_rows = 0
            for rf in raw_files:
                t = _pq.read_table(os.path.join(sidecar, os.path.basename(rf)))
                if fixer is not None:
                    t = fixer(t)
                if t.num_rows == 0:
                    continue
                redriven_rows += t.num_rows
                name = "redrive-" + os.path.basename(rf).replace(
                    ".raw.parquet", ".parquet"
                )
                path = os.path.join(seg_dir, name)
                _pq.write_table(t, path)
                segments.append(wal_source.SegmentMeta(
                    name=name, path=path, size_bytes=os.path.getsize(path)
                ))
            if not segments:
                for orig, dst in moved:
                    os.replace(dst, orig)
                _shutil.rmtree(sidecar, ignore_errors=True)
                return {"redriven_rows": 0, "commits": 0, "still_bad": 0}
            new_manifest, _ = _ingest_one_batch(
                cfg, manifest, segments,
                watermark_override=manifest.watermark,
                lineage_extra={"op": "redrive"},
                **pipeline_kw,
            )
            still_bad = int(new_manifest.lineage[-1].get("error_rows", 0))
        except BaseException:
            # a failed attempt may already have RE-quarantined its
            # still-bad rows (phase-1 spill writes dead letters before
            # the commit): drop those fresh files first, or restoring
            # the originals would leave every such row queued TWICE
            for name in set(os.listdir(errors_dir)) - pre_attempt:
                if name.startswith("errors-"):
                    try:
                        os.remove(os.path.join(errors_dir, name))
                    except FileNotFoundError:
                        pass
            for orig, dst in moved:
                try:
                    os.replace(dst, orig)
                except FileNotFoundError:
                    pass
            _shutil.rmtree(sidecar, ignore_errors=True)
            raise
        _shutil.rmtree(sidecar, ignore_errors=True)
    return {
        "redriven_rows": redriven_rows, "commits": 1,
        "still_bad": still_bad,
    }


#: Lease lock scoping the redrive's DLQ file shuffle (sidecar move +
#: replay + cleanup) — independent of the main writer lock, which the
#: inner commit still takes.
REDRIVE_LOCK_NAME = "_redrive.lock.json"


def lookup_urls(lake_dir: str, urls: list[str]) -> pa.Table:
    """Point lookup: the stable crc32 partitioning routes each url to
    exactly one partition file, so a k-url lookup touches at most k
    files (plus a parquet row-group predicate on ``url``) — no scan,
    no Ray job. Driver-side by design: this is the small-read path."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import zlib

    from ..stages.merge import DELETED_COL

    from ..state.checkpoint import resolve_partition

    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    splits = manifest.split_set()
    by_part: dict[int, list[str]] = {}
    for u in urls:
        part = resolve_partition(
            zlib.crc32(u.encode("utf-8")), manifest.num_partitions, splits
        )
        by_part.setdefault(part, []).append(u)
    from ..schemas import apply_renames, conform_table

    from ..stages.merge import reduce_fn_for_kind

    tables = []
    for part, part_urls in sorted(by_part.items()):
        rels = manifest.part_files(part)
        if not rels:
            continue
        pieces = [
            conform_table(
                apply_renames(
                    pq.read_table(
                        os.path.join(lake_dir, rel),
                        filters=[("url", "in", part_urls)],
                    ),
                    manifest.renames,
                ),
                manifest.schema,
            )
            for rel in rels
        ]
        t = pa.concat_tables(pieces)
        if len(pieces) > 1:
            # MOR deltas pending: LWW over base+deltas. Pre-filtering
            # by url is safe below the reduction — url IS the LWW
            # group key, so every group survives or drops whole.
            t = reduce_fn_for_kind(manifest.kind)(t)
        tables.append(t)
    if not tables:
        out = manifest.schema.empty_table()
    else:
        out = pa.concat_tables(tables)
    if DELETED_COL in out.column_names:
        mask = pc.fill_null(pc.invert(out.column(DELETED_COL)), True)
        out = out.filter(mask).drop_columns([DELETED_COL])
    return out.sort_by("url")


def lake_snapshot(lake_dir: str, *, version: int | None = None) -> pa.Table:
    """Whole lake as one Arrow table, sorted by url — small lakes /
    tests only. ``version`` time-travels to a retained snapshot."""
    manifest = load_manifest(lake_dir, version=version)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    parts = manifest.all_parts()
    if not parts:
        return (manifest.schema or pa.schema([])).empty_table()
    import pyarrow.compute as pc

    from ..stages.merge import read_effective_partition

    tables = [
        read_effective_partition(
            lake_dir, part, manifest.part_files(part), manifest.schema,
            kind=manifest.kind, renames=manifest.renames,
        )
        for part in parts
    ]
    out = pa.concat_tables(tables)
    if DELETED_COL in out.column_names:
        mask = pc.fill_null(pc.invert(out.column(DELETED_COL)), True)
        out = out.filter(mask).drop_columns([DELETED_COL])
    return out.sort_by("url")
