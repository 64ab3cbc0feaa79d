"""Feed-driven replica tables: keep a (filtered, projected) downstream
copy of a CDC lake in sync by applying only the change feed since the
replica's last-seen source version — the Delta "MERGE INTO from CDF"
pattern, and the row-level sibling of the aggregate views in
``pipelines/incremental``. The reference's downstream loads re-read
whole source tables per run (``bq_data_service.py``); at 100 TB a
replica refresh must cost O(changed rows).

Semantics per url, applied in source-version order (the feed carries
resolved winners, so the replica needs NO tombstones — a delete is
authoritative the moment it is applied):

* ``insert``/``update`` row matching ``predicate`` -> upsert into the
  replica (replacing any prior row for the url)
* ``insert``/``update`` row NOT matching -> remove the url (a row can
  leave a filtered replica by being updated out of the predicate)
* ``delete``                             -> remove the url

Scale shape: the feed (delta-sized, column-pruned) is hash-routed by
``crc32(url) % P`` — the ONLY shuffle, over changed rows — and each
replica partition is rewritten by one Ray task that merges its feed
group against its existing file (Arrow ``index_in``). Commit is the
same CAS manifest swap + writer lock + GC the lake itself uses, with
the applied source version recorded in the manifest counters, so a
crashed sync retries idempotently (deterministic file names per
source version) and a noop sync is free.
"""
from __future__ import annotations

import os
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq

from ..schemas import conform_table, merge_schemas
from ..stages.merge import stable_hash_partition, write_partition
from ..state.checkpoint import (
    LakeManifest,
    commit_manifest,
    gc_unreferenced,
    list_versions,
    load_manifest,
    verify_lock,
    writer_lock,
)

PART_COL = "_part"
REPLICA_STATE = "_replica.json"
#: one row per replica partition an apply task rewrote
_APPLY_STATS = pa.schema([
    (name, pa.string() if name == "path" else pa.int64())
    for name in ("part", "path", "rows", "bytes", "tombstones", "upserts",
                 "removed")
])


def sync_replica(
    source_lake: str,
    replica_dir: str,
    *,
    predicate: Callable[[pa.Table], pa.Array] | None = None,
    predicate_tag: str | None = None,
    columns: list[str] | None = None,
    num_partitions: int | None = None,
    at_version: int | None = None,
) -> dict:
    """Bring ``replica_dir`` up to ``source_lake``'s current (or
    ``at_version``'s retained) state.

    ``predicate`` is a vectorized batch function (Arrow table ->
    boolean array) deciding which live rows belong in the replica;
    ``columns`` prunes the payload columns replicated (url/warc_ts/seq
    always carried); ``num_partitions`` fixes the replica's own
    partition count on first sync (default: the source's).

    The replica records its filter identity (``predicate_tag``,
    defaulting to the predicate function's ``__name__`` — pass an
    explicit tag for lambdas) and column set in ``_replica.json``; a
    later sync with a DIFFERENT filter/projection is refused, so a
    filtered replica can never be silently polluted by an unfiltered
    sync (e.g. the CLI/poll loop, which has no predicate)."""
    import json as _json

    from .cdc import CHANGE_OP_COL, changes_between

    conf = {
        "columns": sorted(columns) if columns else None,
        "predicate_tag": (
            predicate_tag
            or (getattr(predicate, "__name__", "predicate")
                if predicate is not None else None)
        ),
    }
    from ..state.store import resolve_store as _rs

    conf_path = os.path.join(replica_dir, REPLICA_STATE)
    try:
        prev_conf = _json.loads(_rs(conf_path).get_bytes(conf_path))
    except FileNotFoundError:
        prev_conf = None
    if prev_conf is not None:
        if prev_conf != conf:
            raise ValueError(
                f"replica {replica_dir} was built with {prev_conf}, "
                f"this sync passes {conf} — a changed filter/projection "
                "needs a fresh replica dir"
            )

    sm = load_manifest(source_lake)
    if sm is None:
        raise FileNotFoundError(f"no committed source lake at {source_lake}")
    sv = sm.version if at_version is None else int(at_version)
    rm = load_manifest(replica_dir)
    last = int(rm.counters.get("source_version", 0)) if rm is not None else 0
    if last == sv:
        return {"synced": False, "mode": "noop", "source_version": sv}
    if last > sv:
        raise ValueError(
            f"replica at source version {last} is ahead of the source "
            f"({sv}) — was the source lake rebuilt?"
        )
    rebuild = last != 0 and last not in set(list_versions(source_lake))
    if rebuild:
        # the replica lagged past the source's retention (its base
        # snapshot was vacuumed): the delta no longer exists — rebuild
        # from the 0->sv feed, dropping every old replica file
        last = 0

    feed = changes_between(source_lake, last, sv, columns=columns)
    feed_schema = pa.schema(
        [f for f in feed.schema().base_schema if f.name != CHANGE_OP_COL]
    )
    # the replica inherits the SOURCE's DDL state (pipelines/ddl.py):
    # its own earlier files were written under the source's THEN-live
    # names, so the source's rename log maps them exactly, and its
    # stored schema must pass through renames/drops BEFORE the union —
    # else a renamed column would union in twice (lang + language) and
    # old replica rows would silently null the new name.
    sm_at = load_manifest(source_lake, version=sv) or sm
    src_renames = [list(p) for p in sm_at.renames]
    src_dropped = list(sm_at.dropped)
    from ..schemas import apply_renames, evolve_wire_schema

    schema = (
        merge_schemas(
            evolve_wire_schema(rm.schema, src_renames, src_dropped),
            feed_schema,
        ) if rm is not None
        else feed_schema
    )
    num_p = (
        rm.num_partitions if rm is not None
        else int(num_partitions or sm.num_partitions)
    )
    token = f"sync-{sv:06d}"
    old_parts = (
        dict(rm.partitions) if rm is not None and not rebuild else {}
    )

    def route(batch: pa.Table) -> pa.Table:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        return batch.append_column(
            PART_COL, stable_hash_partition(batch.column("url"), num_p)
        )

    def apply(group: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        part = int(group.column(PART_COL)[0].as_py())
        group = group.drop_columns([PART_COL])
        # last-wins within the group is already guaranteed: the feed
        # emits at most one row per url between two versions
        is_del = pc.equal(group.column(CHANGE_OP_COL), "delete")
        live = group.filter(pc.invert(is_del)).drop_columns([CHANGE_OP_COL])
        if predicate is not None and live.num_rows:
            keep = predicate(live)
            if isinstance(keep, np.ndarray):
                keep = pa.array(keep)
            live = live.filter(keep)
        live = conform_table(live, schema)

        old_rel = old_parts.get(part)
        if old_rel is not None:
            old = conform_table(
                apply_renames(
                    pq.read_table(os.path.join(replica_dir, old_rel)),
                    src_renames,
                ),
                schema,
            )
            # every url mentioned in the feed group leaves the old file:
            # re-inserted below iff it survived predicate + not-delete
            idx = pc.index_in(old.column("url"), value_set=group.column("url"))
            old = old.filter(pc.is_null(idx))
            new = pa.concat_tables([old, live])
        else:
            new = live

        row = write_partition(replica_dir, part, token, new.sort_by("url"))
        return pa.Table.from_pylist([{
            **row,
            "upserts": live.num_rows,
            "removed": group.num_rows - live.num_rows,
        }], schema=_APPLY_STATS)

    stats = (
        feed.map_batches(route, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(PART_COL)
        .map_groups(apply, batch_format="pyarrow")
        .take_all()
    )

    upserts = sum(int(row["upserts"]) for row in stats)
    removed = sum(int(row["removed"]) for row in stats)
    counters = dict(rm.counters) if rm is not None else {}
    counters["source_version"] = sv
    counters["syncs"] = counters.get("syncs", 0) + 1
    new_manifest = (rm or LakeManifest(num_partitions=num_p)).successor(
        {
            "op": "sync_replica",
            "source_version": sv,
            "from_version": last,
            "partitions_touched": len(stats),
            "rows_upserted": upserts,
            "rows_removed": removed,
        },
        schema=schema,
        counters=counters,
        # source DDL state travels with the replica: untouched replica
        # partitions keep files written under pre-rename names, and the
        # replica's own reads map them through this log
        renames=src_renames,
        dropped=src_dropped,
        # a rebuild drops every old replica file
        **({"partitions": {}, "partition_meta": {}} if rebuild else {}),
    )
    new_manifest.fold_partition_stats(stats)
    with writer_lock(replica_dir) as lock_token:
        commit_manifest(
            replica_dir, new_manifest,
            expected_version=rm.version if rm is not None else 0,
        )
        verify_lock(replica_dir, lock_token)  # fencing before deletes
        gc_unreferenced(replica_dir, new_manifest, previous=rm)
        from ..state.store import resolve_store

        resolve_store(conf_path).put_atomic(conf_path, _json.dumps(conf).encode("utf-8"))
    return {
        "synced": True,
        "mode": (
            "rebuild" if rebuild else "full" if last == 0 else "incremental"
        ),
        "source_version": sv,
        "replica_version": new_manifest.version,
        "partitions_touched": len(stats),
        "rows_upserted": upserts,
        "rows_removed": removed,
    }
