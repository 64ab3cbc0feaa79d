"""WAL segment discovery + watermark filtering + schema-unified read.

This is the CDC tailer — the analog of the reference's
``S3HookNewFileMonitor.iter_filter_s3_object_meta_after`` (paginated
prefix listing + fnmatch glob + ``LastModified > watermark`` predicate,
``utils/dags/airflow_s3_util_extension.py:101-138``) and of the
poll-until-new-data sensor (``:44-84``). Segment *names* are the
ordering and watermark unit (the analog of ``LastModified`` ordering at
``dags/s3_xml_import_pipeline.py:213-222``); the watermark comparison is
strictly greater, exactly like the reference (``:130-133``), with the
ambiguity the reference accepts for equal timestamps removed because
segment names are unique and totally ordered.

Reading is schema-aware: segment footers are scanned (metadata only)
and unified with the engine's widen rules (:mod:`..schemas`); each
ingest task reads one segment (or a row slice of it) with
:func:`read_segment` and conforms it to that unified wire schema —
schema evolution at the read edge.
"""
from __future__ import annotations

import fnmatch
import os
import re
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq


SEGMENT_GLOB = "segment-*.parquet"
#: JSONL wire format (Debezium/Maxwell-style change records). Point
#: ``CdcConfig.segment_glob`` here for a JSONL WAL, or at
#: ``"segment-*"`` for a mixed parquet+jsonl stream.
JSONL_SEGMENT_GLOB = "segment-*.jsonl"

#: How many head lines of a JSONL segment the driver samples to infer
#: its schema (the jsonl analog of a parquet footer read — segments are
#: schema-homogeneous by the WAL contract: writers roll the segment on
#: schema change).
_JSONL_SCHEMA_SAMPLE_LINES = 100


@dataclass(frozen=True)
class SegmentMeta:
    """Metadata for one WAL segment file (analog of an S3 object meta)."""

    name: str
    path: str
    size_bytes: int

    @property
    def segment_id(self) -> str:
        return self.name


def list_segments(
    wal_dir: str,
    pattern: str = SEGMENT_GLOB,
    exclusion_pattern: str | None = None,
    include_pattern: str | None = None,
) -> list[SegmentMeta]:
    """List WAL segments sorted by name (the processing order invariant).

    ``pattern`` is an fnmatch glob and ``exclusion_pattern`` a regex on
    the segment name — mirroring the reference's glob + exclusion-regex
    pair (``airflow_s3_util_extension.py:120-127``; exclusion at
    ``ejp_zip.py:61-63``). ``include_pattern`` is a SECOND fnmatch glob
    ANDed with ``pattern`` — the reference sensor's positive key glob
    (``airflow_s3_util_extension.py:101-138``): ``pattern`` states the
    wire format (``segment-*.parquet``), ``include_pattern`` narrows to
    a keyspace slice (``segment-2024*``) without restating the format.
    """
    from ..state.iofs import list_files_sized

    exclude = re.compile(exclusion_pattern) if exclusion_pattern else None
    out = []
    for name, path, size in list_files_sized(wal_dir):
        if not fnmatch.fnmatch(name, pattern):
            continue
        if include_pattern is not None and not fnmatch.fnmatch(name, include_pattern):
            continue
        if exclude is not None and exclude.match(name):
            continue
        out.append(SegmentMeta(name=name, path=path, size_bytes=size))
    return out


def segments_after(
    segments: list[SegmentMeta], watermark: str | None
) -> list[SegmentMeta]:
    """Strictly-greater watermark filter (reference ``:130-133``)."""
    if watermark is None:
        return list(segments)
    return [s for s in segments if s.name > watermark]


def wal_gc(
    wal_dir: str,
    consumer_lake_dirs: list,
    *,
    keep_last: int = 2,
    archive_dir: str | None = None,
    dry_run: bool = False,
    pattern: str = SEGMENT_GLOB,
) -> dict:
    """Retire WAL segments every consumer has durably passed — the
    binlog-purge / log-retention half of the tailer the reference
    never needed (its S3 dumps were kept forever; a 10^10-event WAL
    cannot be). Metadata-only: one directory listing plus one manifest
    JSON read per consumer, no data bytes move unless archiving.

    A segment is reclaimable when its name is ``<=`` the MINIMUM
    committed watermark across ``consumer_lake_dirs`` (the engine's
    total order on segment names; a committed watermark means every
    event of that segment is already durable in that lake). The newest
    ``keep_last`` reclaimable segments are retained as a safety margin.

    Refuses (raises ``ValueError``) when a listed consumer has no
    committed manifest yet — an unstarted tailer still needs the whole
    WAL. Callers must list EVERY lake tailing this WAL (row, entity,
    nested, …); the engine cannot discover consumers it was never told
    about, same as MySQL binlog purge. A consumer may be a plain lake
    dir (the default tailer's global watermark) or a ``(lake_dir,
    source)`` pair for a multi-WAL fan-in lake — its per-source cursor
    for THIS wal (``CdcConfig.source``).

    ``archive_dir`` moves segments instead of deleting (tiered
    storage: the archive can be replayed by pointing a fresh tailer at
    it). Crash-safe by construction: segments are removed one at a
    time and the tailer only ever looks STRICTLY ABOVE each
    consumer's watermark, so a half-finished GC is just a smaller GC.

    Interplay with ``restore_lake``: a head rollback regresses the
    lake's watermark, after which re-tailing needs segments this GC
    may already have retired — wal_gc therefore bounds restore depth
    to the retained window (archive instead of delete when deep
    restores must stay possible). SCALE.md documents the pairing.
    """
    from ..state.checkpoint import load_manifest

    if keep_last < 0:
        raise ValueError(f"keep_last must be >= 0, got {keep_last}")
    if not consumer_lake_dirs:
        raise ValueError("wal_gc needs at least one consumer lake dir")
    watermarks: dict[str, str] = {}
    unstarted = []
    for entry in consumer_lake_dirs:
        lake, source = (
            entry if isinstance(entry, (tuple, list)) else (entry, None)
        )
        m = load_manifest(lake)
        wm = None if m is None else (
            m.source_watermarks.get(source) if source is not None
            else m.watermark
        )
        if not wm:
            unstarted.append(
                lake if source is None else f"{lake} (source={source})"
            )
        else:
            watermarks[f"{lake}::{source}" if source else lake] = wm
    if unstarted:
        raise ValueError(
            f"consumer lake(s) with no committed watermark: {unstarted} — "
            "an unstarted tailer still needs every segment; start it or "
            "drop it from the consumer list"
        )
    min_wm = min(watermarks.values())
    segs = list_segments(wal_dir, pattern)
    reclaimable = [s for s in segs if s.name <= min_wm]
    victims = reclaimable[: max(0, len(reclaimable) - keep_last)]
    reclaimed_bytes = sum(s.size_bytes for s in victims)
    if not dry_run:
        from ..state.iofs import copy_file, delete_file

        for s in victims:
            if archive_dir is not None:
                copy_file(s.path, os.path.join(archive_dir, s.name))
            delete_file(s.path)
    return {
        "wal": wal_dir,
        "min_watermark": min_wm,
        "consumer_watermarks": watermarks,
        "segments_total": len(segs),
        "reclaimed": len(victims),
        "reclaimed_bytes": reclaimed_bytes,
        "kept_reclaimable": len(reclaimable) - len(victims),
        "archived_to": archive_dir,
        "dry_run": dry_run,
    }


def _is_jsonl(seg: SegmentMeta) -> bool:
    return seg.name.endswith(".jsonl")


def _jsonl_schema_and_rows(path: str) -> tuple[pa.Schema, int]:
    """One streamed pass over a JSONL segment: its wire schema inferred
    from the first ``_JSONL_SCHEMA_SAMPLE_LINES`` lines (the jsonl
    analog of a parquet footer read) and its line count (a bytes scan,
    no parse — at real scale a jsonl WAL writer would ship a sidecar
    count instead, and this is the slot it would plug into). Field
    types are canonicalized against the engine's known wire fields:
    JSON has no binary or timestamp type, so ``html`` arrives as a
    string and ``warc_ts`` as an ISO-8601 string; fields named in
    :data:`..schemas.EVENTS_SCHEMA_V2` take their canonical wire type
    (the downstream ``conform_table`` cast parses/encodes them), unknown
    new fields keep the inferred JSON type — the same column-add
    evolution path parquet gets."""
    import io

    from pyarrow import json as pa_json

    from ..schemas import EVENTS_SCHEMA_V2
    from ..state.iofs import open_binary

    head = io.BytesIO()
    rows = 0
    with open_binary(path) as f:
        # line iteration, not newline count: robust to a foreign
        # writer omitting the final newline
        for line in f:
            if rows < _JSONL_SCHEMA_SAMPLE_LINES:
                head.write(line)
            rows += 1
    inferred = pa_json.read_json(io.BytesIO(head.getvalue())).schema
    canon = {f.name: f.type for f in EVENTS_SCHEMA_V2}
    schema = pa.schema(
        [pa.field(f.name, canon.get(f.name, f.type)) for f in inferred]
    )
    return schema, rows


def segment_footers(
    segments: list[SegmentMeta],
) -> list[tuple[pa.Schema, int]]:
    """Each segment's physical schema and raw event row count, from ONE
    metadata read per segment (the parquet footer; a jsonl segment's
    streamed line scan) — never a data read, and on an ``s3://`` WAL
    one footer fetch per segment instead of one per question."""
    out = []
    for s in segments:
        if _is_jsonl(s):
            out.append(_jsonl_schema_and_rows(s.path))
        else:
            pf = pq.ParquetFile(s.path)
            out.append((pf.schema_arrow, pf.metadata.num_rows))
    return out


def read_segment(
    seg: SegmentMeta, rows: tuple[int, int] | None = None
) -> pa.Table:
    """One segment's events, or its ``[start, stop)`` row slice, in the
    segment's own physical schema (the ingest stage conforms them to
    the batch's unified wire schema), stamped with the ``_src_segment``
    provenance column (the reference stamps ``source_filename`` per
    entity, ``ejp_zip.py:66-69``). A slice reads the whole segment and
    keeps its rows: extraction, not the read, dominates the task."""
    from pyarrow import json as pa_json

    from ..state.iofs import open_binary, parquet_source

    if _is_jsonl(seg):
        with open_binary(seg.path) as f:
            data = f.read()
        # one parse block for the whole object: no record straddles a
        # block boundary, and types are inferred over every line
        table = pa_json.read_json(
            pa.BufferReader(data),
            read_options=pa_json.ReadOptions(
                use_threads=False, block_size=max(len(data), 1 << 20)
            ),
        )
    else:
        table = pq.ParquetFile(parquet_source(seg.path)).read()
    if rows is not None:
        table = table.slice(rows[0], rows[1] - rows[0])
    return table.append_column(
        "_src_segment", pa.repeat(pa.scalar(seg.name, pa.string()), table.num_rows)
    )
