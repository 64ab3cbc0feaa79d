"""Lake maintenance: tombstone compaction + partition-count evolution.

Tombstones are persisted by the merge so late (out-of-order) events
cannot resurrect deleted keys (see ``stages/merge.DELETED_COL``). Once
the operator knows the WAL can no longer deliver events older than the
committed watermark (a retention decision, like the reference deleting
staged shards only after a successful load, ``etl.py:202-213``),
compaction physically drops tombstone rows and re-commits.

Only partitions whose manifest stats show ``tombstones > 0`` are
rewritten — the others are untouched (manifest entries carried over),
so compaction cost is proportional to the deleted set, not the lake.

Every partition rewrite here (compaction, delta folding, split,
cluster, purge) runs on the ingest merge's own path: plain Ray tasks,
at most one per CPU (``stages.merge.map_partitions``), each reading a
partition's effective base+deltas state and publishing through
``stages.merge.write_partition``. Only stats rows come back.
"""
from __future__ import annotations

import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..stages.merge import (
    DELETED_COL,
    count_tombstones,
    map_partitions,
    read_effective_partition,
    write_partition,
)
from ..state.checkpoint import (
    DATA_DIR,
    DELTA_STAT_KEYS,
    LakeManifest,
    commit_manifest,
    gc_unreferenced,
    list_versions,
    load_manifest,
    residue_modulus,
    verify_lock,
    writer_lock,
)


def vacuum(lake_dir: str, keep: int = 1) -> dict:
    """One-shot history pruning (the Delta-VACUUM analog): keep only the
    newest ``keep`` snapshot versions and delete every data file no
    retained snapshot references. Does NOT commit a new version —
    pruning history is not an observable state change — and does not
    alter the lake's standing ``retain_versions`` policy (set that via
    ``CdcConfig`` on the next ingest). Runs under the writer lock so a
    concurrent committer cannot race the sweep; readers holding a
    pruned snapshot lose it, exactly like Delta/Iceberg vacuum."""
    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    with writer_lock(lake_dir) as lock_token:
        current = load_manifest(lake_dir)  # re-read under the lock
        verify_lock(lake_dir, lock_token)  # fencing before deletes
        removed = gc_unreferenced(lake_dir, current, retain_versions=keep)
    return {
        "files_removed": len(removed),
        "retained_versions": list_versions(lake_dir),
    }


def auto_maintain(
    lake_dir: str,
    *,
    tombstone_ratio: float = 0.2,
    max_partition_bytes: int = 1 << 30,
    max_delta_files: int = 8,
    vacuum_keep: int | None = None,
) -> dict:
    """One-call MAINTENANCE POLICY (the cron entry point): decide from
    MANIFEST STATS ONLY — never a data scan — and run what's due:

    * fold merge-on-read deltas (:func:`compact_deltas`) when any
      partition has accumulated ``max_delta_files`` or more pending
      delta files (each pending file is an extra read + a bigger LWW
      reduce on every scan of that partition — the classic LSM
      read-amplification knob);
    * compact when persisted tombstones exceed ``tombstone_ratio`` of
      live+tombstone rows (reclaims space, speeds every read);
    * split any partition above ``max_partition_bytes`` (one level per
      call, same fixpoint contract as :func:`split_overflowing`);
    * optionally vacuum history down to ``vacuum_keep`` snapshots.

    Each action is the existing lock+CAS-protected op; a concurrent
    ingest either waits on the lock or this call fails fast. Returns
    what ran and why."""
    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    meta = manifest.partition_meta
    tombs = sum(
        m.get("tombstones", 0) + m.get("delta_tombstones", 0)
        for m in meta.values()
    )
    rows = sum(
        m.get("rows", 0) + m.get("delta_rows", 0) for m in meta.values()
    )
    actions: dict = {
        "tombstones": tombs, "rows": rows,
        "deltas_folded": False, "compacted": False,
        "splits": 0, "vacuumed": False,
    }
    if any(
        len(rels) >= max_delta_files for rels in manifest.delta_files.values()
    ):
        r = compact_deltas(lake_dir)
        actions["deltas_folded"] = True
        actions["delta_files_folded"] = r["delta_files_folded"]
    if tombs and rows and tombs / rows >= tombstone_ratio:
        r = compact_lake(lake_dir)
        actions["compacted"] = True
        actions["tombstones_dropped"] = r["tombstones_dropped"]
    r = split_overflowing(lake_dir, max_partition_bytes)
    actions["splits"] = r.get("partitions_split", r.get("splits", 0))
    if vacuum_keep is not None:
        v = vacuum(lake_dir, keep=vacuum_keep)
        actions["vacuumed"] = True
        actions["files_removed"] = v["files_removed"]
    # refresh the bloom index WHEN ONE EXISTS (opt-in: created by
    # `bloom-index`): new data files gain entries, dead relpaths drop —
    # O(new files); a stale/absent index only costs pruning, never
    # correctness, so this runs last and best-effort
    from ..state.bloomindex import build_bloom_index, load_bloom_index

    if load_bloom_index(lake_dir) is not None:
        b = build_bloom_index(lake_dir)
        actions["bloom_files_indexed"] = b["files_built"]
    return actions


def clone_lake(
    src_dir: str, dst_dir: str, *, version: int | None = None,
) -> dict:
    """DEEP CLONE a committed snapshot into a fresh independent lake
    (the DR / dev-copy / migration shape): every data file the snapshot
    references is copied byte-for-byte under the SAME content-addressed
    relpath, and a fresh v1 manifest carries the source's schema,
    partition map, split history, MOR delta references, stats, zone
    maps AND watermark — so ``run_ingest`` against the clone resumes
    tailing the same WAL exactly where the source stood (strictly-
    greater watermark semantics make the handoff seamless). The clone
    owns its files: vacuum/GC on either side never touches the other.
    Version history does NOT carry (time travel stays at the source) —
    the clone starts a new chain at v1.

    Deep copy by design: a shallow (manifest-only) clone would let the
    source's retention sweep delete files the clone still references —
    the classic shallow-clone footgun; at 100 TB, clone cost is one
    sequential copy of the LIVE snapshot (not the history)."""

    m = load_manifest(src_dir, version=version)
    if m is None:
        raise FileNotFoundError(f"no committed lake at {src_dir}")
    from ..state.iofs import copy_file, list_data_files

    if list_data_files(dst_dir) or list_data_files(dst_dir, recursive=True):
        raise FileExistsError(f"dst {dst_dir} is not empty")
    rels = sorted(m.all_data_relpaths())
    copied_bytes = 0
    for rel in rels:
        copied_bytes += copy_file(
            os.path.join(src_dir, rel), os.path.join(dst_dir, rel)
        )
    # same relpaths + identical bytes: the zone maps stay valid
    clone = m.successor(
        {"cloned_from": src_dir, "src_version": m.version},
        history=LakeManifest(num_partitions=m.num_partitions),
    )
    commit_manifest(dst_dir, clone)
    # the purge registry travels with the clone: it resumes tailing the
    # SAME WAL, so without the ingest-edge guard a replayed range could
    # resurrect a purged key on the clone
    from ..state.checkpoint import list_purged, record_purged

    purged = list_purged(src_dir)
    if purged:
        # every purge predates the clone's own chain (it starts at v1)
        record_purged(dst_dir, sorted(purged), 1)
    return {
        "src": src_dir, "dst": dst_dir, "src_version": m.version,
        "files_copied": len(rels), "bytes_copied": copied_bytes,
        "watermark": m.watermark, "kind": m.kind,
    }


def restore_lake(lake_dir: str, version: int) -> dict:
    """ROLLBACK the lake head to a retained snapshot (Delta RESTORE):
    commit a NEW version whose file set, schema, partition/split map,
    MOR deltas, zones AND watermark are the old snapshot's — no data
    copied (the retained snapshot's files are still on disk), history
    preserved (the bad versions stay time-travelable until retention
    ages them out), and the carried-back watermark means the next
    ingest REPLAYS the rolled-back WAL range, converging by LWW
    idempotence. Change-feed consumers see the restore as one more
    version whose diff is exactly the INVERSE of the rolled-back
    changes — downstreams un-apply naturally; the only refusal is a
    feed crossing a restore that REGRESSED the partition split map
    (``changes_between`` guards it — split-pair resolution assumes the
    map only grows)."""
    with writer_lock(lake_dir) as lock_token:
        cur = load_manifest(lake_dir)
        if cur is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        if int(version) >= cur.version:
            raise ValueError(
                f"restore target v{version} is not older than the head "
                f"v{cur.version}"
            )
        old = load_manifest(lake_dir, version=int(version))  # raises if pruned
        # the restored snapshot's OWN DDL state too: a rename/drop made
        # after it intentionally regresses with the data (the
        # change-feed guard refuses to diff across the regression)
        new_manifest = old.successor(
            {
                "op": "restore",
                "restored_version": int(version),
                "from_watermark": cur.watermark,
                "to_watermark": old.watermark,
            },
            history=cur, retain_versions=cur.retain_versions,
        )
        commit_manifest(
            lake_dir, new_manifest, expected_version=cur.version
        )
        verify_lock(lake_dir, lock_token)
        gc_unreferenced(lake_dir, new_manifest, previous=cur)
    return {
        "restored": True, "to_version": int(version),
        "new_version": new_manifest.version,
        "watermark": new_manifest.watermark,
    }


def purge_urls(lake_dir: str, urls: list[str]) -> dict:
    """RIGHT-TO-BE-FORGOTTEN purge (GDPR Article-17 / Delta+Iceberg
    "purge" shape): scrub the given urls from the LIVE snapshot **and
    every retained historical snapshot** — time travel, tags, SCD2 and
    feeds can never serve the key again — then register the urls in the
    ``_purged.json`` sidecar so a replayed WAL range (rewind_watermark,
    restore_lake, crash retry) cannot resurrect them at the ingest edge
    (``stages/merge.filter_purged``). This is deliberately TWO-step in
    industry practice: run a normal delete first if downstream feed
    consumers need the ordinary tombstone event; the purge itself makes
    feeds crossing it synthesize NULL-identity deletes
    (``cdc._null_deletes``) and REFUSES preimage feeds (the
    pre-image is unrecoverable by design).

    Scale shape: urls hash-route to their partitions through the same
    crc32+split routing the writer uses, so only the routed partitions'
    files are read — O(urls x versions) files, never the lake. Each
    candidate file is rewritten AT MOST ONCE (files are shared across
    snapshots by content-addressing) under a name deterministic in
    (file, url-set), so a crashed purge retries idempotently. The old
    (dirty) files are deleted in the same locked section — history
    rewrite is the point, so no grace window applies.

    Refused while branches exist (a branch manifest references parent
    files through ``../../`` relpaths — publish or delete branches
    first) and on a branch itself. Group-valued (entity) lakes purge
    the url's whole row-set. Reference analog: the warehouse-side
    deletes the reference leaves to BigQuery DML
    (``bq_data_service.py``)."""
    import hashlib
    import json as _json
    import zlib

    from ..state.checkpoint import (
        list_branches,
        list_purged,
        record_purged,
        resolve_partition,
        snapshot_path,
    )
    urls = sorted(set(urls))
    if not urls:
        raise ValueError("purge_urls needs at least one url")
    from ..state.checkpoint import BRANCHES_DIR

    if os.path.basename(os.path.dirname(os.path.abspath(lake_dir))) == BRANCHES_DIR:
        raise ValueError(
            f"{lake_dir} is a branch (its files belong to the parent "
            "lake): purge the parent instead"
        )
    with writer_lock(lake_dir) as lock_token:
        cur = load_manifest(lake_dir)
        if cur is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        if list_branches(lake_dir):
            raise ValueError(
                f"lake {lake_dir} has live branches "
                f"{list_branches(lake_dir)}: publish or delete them "
                "first — a purge cannot rewrite files a branch pins"
            )
        from ..state.store import resolve_store

        store = resolve_store(lake_dir)
        versions = list_versions(lake_dir)
        mans = {}
        for v in versions:
            mans[v] = LakeManifest.from_json(
                _json.loads(store.get_bytes(snapshot_path(lake_dir, v)))
            )
        # candidate files: union over retained snapshots of the routed
        # partitions' file lists (base + MOR deltas)
        candidates: set[str] = set()
        for m in mans.values():
            for u in urls:
                crc = zlib.crc32(u.encode("utf-8")) & 0xFFFFFFFF
                part = resolve_partition(crc, m.num_partitions, m.split_set())
                candidates.update(m.part_files(part))
        if any(rel.startswith("..") for rel in candidates):
            raise ValueError(
                f"{lake_dir} is a branch (references parent files): "
                "purge the parent lake instead"
            )
        ptoken = hashlib.sha1(
            ("purge\x00" + "\x00".join(urls)).encode()
        ).hexdigest()[:12]
        results = map_partitions(
            partial(_scrub_file, lake_dir, pa.array(urls, pa.string()), ptoken),
            sorted(candidates),
        )
        remap = {r["rel"]: r for r in results if r["new_rel"] != r["rel"]}
        rows_purged = sum(r["removed"] for r in results)
        already = set(list_purged(lake_dir))
        if not remap and set(urls) <= already:
            verify_lock(lake_dir, lock_token)
            return {
                "purged": False, "rows_purged": 0,
                "files_rewritten": 0, "version": cur.version,
            }

        def scrubbed(m: LakeManifest) -> tuple[dict, dict, dict, dict]:
            """Remapped (partitions, partition_meta, delta_files, zones)
            for one snapshot under the rewrite results."""
            parts = dict(m.partitions)
            meta = {k: dict(v) for k, v in m.partition_meta.items()}
            deltas = {k: list(v) for k, v in m.delta_files.items()}
            zones = dict(m.zones)
            for part, rel in list(parts.items()):
                r = remap.get(rel)
                if r is None:
                    continue
                zones.pop(rel, None)
                pm = meta.setdefault(part, {})
                if r["new_rel"] is None:
                    parts.pop(part)
                    pm.pop("rows", None)
                    pm.pop("tombstones", None)
                    pm.pop("bytes", None)
                else:
                    parts[part] = r["new_rel"]
                    pm.update(
                        rows=int(r["rows"]), tombstones=int(r["tombstones"]),
                        bytes=int(r["bytes"]),
                    )
                    if r["zone"]:
                        zones[r["new_rel"]] = r["zone"]
            for part, rels in list(deltas.items()):
                new_rels = []
                pm = meta.setdefault(part, {})
                for rel in rels:
                    r = remap.get(rel)
                    if r is None:
                        new_rels.append(rel)
                        continue
                    zones.pop(rel, None)
                    pm["delta_rows"] = (
                        pm.get("delta_rows", 0) - int(r["removed"])
                    )
                    pm["delta_tombstones"] = (
                        pm.get("delta_tombstones", 0)
                        - int(r["removed_tombstones"])
                    )
                    pm["delta_bytes"] = (
                        pm.get("delta_bytes", 0)
                        + int(r["bytes"]) - int(r["old_bytes"])
                    )
                    if r["new_rel"] is not None:
                        new_rels.append(r["new_rel"])
                        if r["zone"]:
                            zones[r["new_rel"]] = r["zone"]
                if new_rels:
                    deltas[part] = new_rels
                    pm["delta_file_count"] = len(new_rels)
                else:
                    deltas.pop(part)
                    for k in DELTA_STAT_KEYS:
                        pm.pop(k, None)
            # a part with neither base nor deltas has no state left
            for part in list(meta):
                if part not in parts and part not in deltas:
                    meta.pop(part)
                elif not meta[part]:
                    meta.pop(part)
            return parts, meta, deltas, zones

        # 1) scrub every RETAINED snapshot's doc in place (history
        #    rewrite — the point of a purge); the head's own snapshot
        #    (cur.version) is scrubbed here too, then superseded by the
        #    new version committed in step 2
        for v, m in mans.items():
            parts, meta, deltas, zones = scrubbed(m)
            m.partitions, m.partition_meta = parts, meta
            m.delta_files, m.zones = deltas, zones
            store.put_atomic(
                snapshot_path(lake_dir, v),
                _json.dumps(m.to_json()).encode("utf-8"),
            )
        # 2) commit the purge as a NEW head version (auditable lineage;
        #    feeds synthesize the delete at exactly this version)
        head = mans.get(cur.version)
        if head is None:  # head snapshot pruned? fall back to pointer
            head = cur
            parts, meta, deltas, zones = scrubbed(head)
            head.partitions, head.partition_meta = parts, meta
            head.delta_files, head.zones = deltas, zones
        new_manifest = head.successor(
            {
                "op": "purge",
                "urls_purged": len(urls),
                "rows_purged": rows_purged,
                "files_rewritten": len(remap),
            },
            history=cur, retain_versions=cur.retain_versions,
        )
        commit_manifest(lake_dir, new_manifest, expected_version=cur.version)
        # 3) register the urls for the ingest-edge guard and the feed
        #    synthesizer, at the version the purge became observable
        record_purged(lake_dir, urls, new_manifest.version, store=store)
        verify_lock(lake_dir, lock_token)
        # 4) the dirty originals are now unreferenced by every retained
        #    snapshot — delete them NOW (no reader grace window: purged
        #    bytes must not linger) along with normal retention pruning
        removed_files = gc_unreferenced(lake_dir, new_manifest)
    return {
        "purged": True,
        "urls": len(urls),
        "rows_purged": rows_purged,
        "files_rewritten": len(remap),
        "files_removed": len(removed_files),
        "version": new_manifest.version,
    }


def _scrub_file(lake_dir: str, value_set: pa.Array, ptoken: str, rel: str) -> dict:
    """Rewrite one data file of a purge without the purged urls, under
    the per-file name ``<stem>-purge-<ptoken>``. Idempotent: the output
    name is a pure function of (file, url-set)."""
    from ..state.iofs import file_size, write_table_atomic
    from ..state.zones import file_zone_doc

    path = os.path.join(lake_dir, rel)
    t = pq.read_table(path)
    mask = pc.is_in(t.column("url"), value_set=value_set)
    removed = int(pc.sum(mask).as_py() or 0)
    if removed == 0:
        return {"rel": rel, "new_rel": rel, "removed": 0}
    kept = t.filter(pc.invert(mask))
    out = {
        "rel": rel, "new_rel": None, "removed": removed,
        "removed_tombstones": count_tombstones(t.filter(mask)),
        "rows": kept.num_rows, "tombstones": count_tombstones(kept),
        "bytes": 0, "old_bytes": file_size(path), "zone": None,
    }
    if kept.num_rows:
        stem, suffix = rel, ""
        for s in (".delta.parquet", ".parquet"):
            if rel.endswith(s):
                stem, suffix = rel[: -len(s)], s
                break
        out["new_rel"] = f"{stem}-purge-{ptoken}{suffix}"
        out_path = os.path.join(lake_dir, out["new_rel"])
        out["bytes"] = write_table_atomic(kept, out_path)
        out["zone"] = file_zone_doc(out_path)
    return out


def rewind_watermark(lake_dir: str, to: str | None = None) -> dict:
    """Controlled BACKFILL: move the tailer high-watermark BACKWARD so
    the next ingest reprocesses WAL segments after ``to`` (``None`` =
    from the beginning). Safe by construction: the LWW merge is
    idempotent, so replaying already-applied segments converges to the
    identical lake state (the crash/resume tests prove the same law).
    Moving the watermark FORWARD is refused — that would make the
    tailer silently skip unprocessed WAL. Commits a new version under
    the writer lock (op ``rewind``) so the operation is in the
    lineage, auditable and CAS-protected against concurrent writers."""
    with writer_lock(lake_dir) as lock_token:
        manifest = load_manifest(lake_dir)
        if manifest is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        if manifest.watermark is None:
            return {"rewound": False, "watermark": None}
        if to is not None and to > manifest.watermark:
            raise ValueError(
                f"refusing to move the watermark FORWARD "
                f"({manifest.watermark!r} -> {to!r}): the tailer would "
                f"skip unprocessed WAL"
            )
        new_manifest = manifest.successor(
            {
                "op": "rewind",
                "from_watermark": manifest.watermark,
                "to_watermark": to,
            },
            watermark=to,
        )
        commit_manifest(
            lake_dir, new_manifest, expected_version=manifest.version
        )
        verify_lock(lake_dir, lock_token)
        gc_unreferenced(lake_dir, new_manifest, previous=manifest)
    return {
        "rewound": True, "from": manifest.watermark, "to": to,
        "version": new_manifest.version,
    }


def compact_lake(lake_dir: str) -> dict:
    """Drop persisted tombstones from every partition that has them.
    Returns {"partitions_rewritten": n, "tombstones_dropped": n}.
    Runs under the writer lock with a CAS commit — a concurrent ingest
    either wins the lock first or fails this compact fast, never gets
    silently overwritten."""
    with writer_lock(lake_dir) as lock_token:
        return _compact_locked(lake_dir, lock_token)


def _rewrite_effective(
    lake_dir: str, manifest: LakeManifest, parts: list[int], write,
) -> list:
    """``write(part, table)`` over each target partition's EFFECTIVE
    state — base file plus any pending merge-on-read delta files,
    LWW-reduced with the lake-kind-appropriate kernel, tombstones
    retained — on the shared partition tasks; only ``write``'s stats
    rows come back. Every maintenance rewrite starts
    from the effective state, so pending deltas fold in."""
    return map_partitions(
        partial(
            _read_and_write, lake_dir,
            {p: manifest.part_files(p) for p in parts},
            manifest.schema, manifest.kind, manifest.renames, write,
        ),
        parts,
    )


def _read_and_write(lake_dir, files, schema, kind, renames, write, part):
    return write(part, read_effective_partition(
        lake_dir, files[part], schema, kind=kind, renames=renames,
    ))


def _fold_write(
    lake_dir: str, token: str, drop_tombstones: bool,
    part: int, table: pa.Table,
) -> dict:
    """One partition's effective state as one fresh base file;
    ``drop_tombstones`` additionally drops tombstone rows (tombstone
    compaction). ``path`` is None when the partition folds to zero
    rows."""
    kept = table
    if drop_tombstones and DELETED_COL in table.column_names:
        kept = table.filter(
            pc.fill_null(pc.invert(table.column(DELETED_COL)), True)
        )
    return {
        **write_partition(lake_dir, part, token, kept),
        "dropped": table.num_rows - kept.num_rows,
    }


def _compact_locked(lake_dir: str, lock_token: str) -> dict:
    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    # Rewrite partitions with persisted tombstones (missing stats count
    # as "has them" — never skip on absent metadata) PLUS any partition
    # with pending MOR deltas: dropping a base tombstone while an OLDER
    # live delta row for the same url pends would resurrect it, so the
    # rewrite always starts from the effective base+deltas state.
    targets = [
        part for part in manifest.all_parts()
        if manifest.partition_meta.get(part, {}).get("tombstones", 1) > 0
        or part in manifest.delta_files
    ]
    if not targets:
        return {"partitions_rewritten": 0, "tombstones_dropped": 0}

    stats = _rewrite_effective(lake_dir, manifest, targets, partial(
        _fold_write, lake_dir, f"compact-{manifest.version + 1}", True,
    ))
    dropped_total = sum(int(r["dropped"]) for r in stats)
    new_manifest = manifest.successor({
        "op": "compact",
        "partitions_rewritten": len(stats),
        "tombstones_dropped": dropped_total,
    })
    new_manifest.fold_partition_stats(stats)
    commit_manifest(
        lake_dir, new_manifest, expected_version=manifest.version
    )
    verify_lock(lake_dir, lock_token)  # fencing before deletes
    gc_unreferenced(lake_dir, new_manifest, previous=manifest)
    return {
        "partitions_rewritten": len(stats),
        "tombstones_dropped": dropped_total,
    }


def compact_deltas(lake_dir: str) -> dict:
    """Fold pending merge-on-read delta files back into their partition
    base files (the Hudi-MOR compactor / Paimon full-compaction analog,
    run OFF the ingest path). Unlike :func:`compact_lake`, tombstone
    rows are KEPT — folding deltas is a pure layout change and must not
    weaken the late-event resurrection guard; drop tombstones only via
    the explicit retention decision ``compact_lake`` encodes. After
    this, reads over the touched partitions are single-file again.

    Only partitions with pending deltas are rewritten; cost is
    O(base + deltas) of those partitions, not the lake. CAS commit
    under the writer lock, op ``compact_deltas``."""
    with writer_lock(lake_dir) as lock_token:
        manifest = load_manifest(lake_dir)
        if manifest is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        targets = sorted(manifest.delta_files)
        if not targets:
            return {"partitions_rewritten": 0, "delta_files_folded": 0}
        folded = sum(len(v) for v in manifest.delta_files.values())
        stats = _rewrite_effective(lake_dir, manifest, targets, partial(
            _fold_write, lake_dir, f"deltacompact-{manifest.version + 1}",
            False,
        ))
        new_manifest = manifest.successor({
            "op": "compact_deltas",
            "partitions_rewritten": len(stats),
            "delta_files_folded": folded,
        })
        new_manifest.fold_partition_stats(stats)
        commit_manifest(
            lake_dir, new_manifest, expected_version=manifest.version
        )
        verify_lock(lake_dir, lock_token)  # fencing before deletes
        gc_unreferenced(lake_dir, new_manifest, previous=manifest)
    return {
        "partitions_rewritten": len(stats),
        "delta_files_folded": folded,
    }


def split_partition(lake_dir: str, part: int) -> dict:
    """Partition-count evolution: replace live partition ``(r, m)`` by
    children ``(r, 2m)`` and ``(r+m, 2m)`` (one extra crc32 bit), so a
    partition that outgrew one task's memory at merge time is halved
    without touching any other partition. The split is recorded in the
    manifest's ``splits`` map — ingest/lookup routing resolves through
    it forever, so the crc32 partitioning contract survives. Runs the
    rewrite in a Ray task (the partition may be large), outside the
    lock; commits CAS under the writer lock.

    At 100x data with a fixed P this is the maintenance valve the r1
    audit called for: ``partition_meta`` carries per-partition bytes to
    drive :func:`split_overflowing`."""
    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    if part not in manifest.partitions and part not in manifest.delta_files:
        raise KeyError(f"partition {part} not live in {lake_dir}")
    m = residue_modulus(part, manifest.num_partitions, manifest.split_set())
    # the children hold the effective state: pending MOR deltas fold in
    # (tombstones retained)
    (children,) = _rewrite_effective(lake_dir, manifest, [part], partial(
        _split_write, lake_dir, f"split-{manifest.version + 1}", m,
    ))
    with writer_lock(lake_dir) as lock_token:
        current = load_manifest(lake_dir)
        new_manifest = current.successor({
            "op": "split",
            "parent": int(part), "modulus": int(m),
            "children": [int(c["part"]) for c in children],
        })
        new_manifest.splits.append([int(part), int(m)])
        # the parent retires (its pending deltas are folded into the
        # children); each child's modulus resolves under the new split
        new_manifest.fold_partition_stats(
            [{"part": part, "path": None}, *children]
        )
        commit_manifest(
            lake_dir, new_manifest, expected_version=manifest.version
        )
        verify_lock(lake_dir, lock_token)  # fencing before deletes
        gc_unreferenced(lake_dir, new_manifest, previous=manifest)
    return {
        "parent": part, "modulus": m,
        "children": {int(c["part"]): int(c["rows"]) for c in children},
    }


def _split_write(
    lake_dir: str, token: str, mod: int, part: int, table: pa.Table,
) -> list[dict]:
    """Partition ``(part, mod)``'s rows as its two children's base files
    (``crc32 % 2*mod``); a child with no rows gets no file."""
    from ..stages.merge import crc32_column

    child = crc32_column(table.column("url")).astype(np.int64) % (2 * mod)
    out = [
        write_partition(lake_dir, c, token, table.filter(pa.array(child == c)))
        for c in (part, part + mod)
    ]
    return [row for row in out if row["path"] is not None]


def split_overflowing(lake_dir: str, max_partition_bytes: int) -> dict:
    """Split every live partition whose committed size exceeds
    ``max_partition_bytes`` (driven by the manifest's per-partition
    byte stats — no data scan). One split level per call; run to
    fixpoint from a cron if partitions are badly overgrown."""
    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    over = [
        part for part, meta in manifest.partition_meta.items()
        if meta.get("bytes", 0) + meta.get("delta_bytes", 0)
        > max_partition_bytes
        and (part in manifest.partitions or part in manifest.delta_files)
    ]
    results = [split_partition(lake_dir, part) for part in sorted(over)]
    return {"splits": len(results), "parents": [r["parent"] for r in results]}

def _zorder_indices(table: pa.Table, keys: list[str]) -> pa.Array:
    """Sort order for MULTI-DIMENSIONAL clustering: dense-rank each key
    column (any dtype, vectorized), normalize ranks onto a shared
    ``64 // k``-bit budget, interleave the bits (Morton code) and sort
    by the resulting z-value. Unlike lexicographic multi-key sort —
    which prunes perfectly on the FIRST key and barely on later ones —
    z-order keeps row-group min/max stats selective for EVERY
    clustering column (Delta's OPTIMIZE ZORDER BY semantics). Nulls
    rank lowest."""
    import polars as pl

    n = table.num_rows
    bits = 64 // len(keys)
    z = np.zeros(n, dtype=np.uint64)
    ranks = (
        pl.from_arrow(table.select(keys))
        .select([
            pl.col(k).rank("dense").fill_null(0).alias(k) for k in keys
        ])
    )
    for j, k in enumerate(keys):
        r = ranks[k].to_numpy().astype(np.uint64)
        hi = max(int(r.max()), 1)
        # scale dense ranks onto the per-column bit budget
        v = (r * (((np.uint64(1) << np.uint64(bits)) - np.uint64(1)))) // np.uint64(hi)
        for b in range(bits):
            z |= ((v >> np.uint64(b)) & np.uint64(1)) << np.uint64(
                b * len(keys) + j
            )
    return pa.array(np.argsort(z, kind="stable").astype(np.int64))


def _cluster_write(
    lake_dir: str, token: str, keys: list[str], method: str,
    row_group_rows: int, part: int, table: pa.Table,
) -> dict:
    """One partition's effective state sorted by ``keys`` (z-order for
    several keys under ``method="zorder"``) as one fresh base file with
    row groups of ``row_group_rows``."""
    if method == "zorder" and len(keys) > 1:
        idx = _zorder_indices(table, keys)
    else:
        idx = pc.sort_indices(table, sort_keys=[(k, "ascending") for k in keys])
    return write_partition(
        lake_dir, part, token, table.take(idx), row_group_size=row_group_rows
    )


def cluster_lake(
    lake_dir: str,
    sort_by: "list[str] | str" = "url",
    *,
    row_group_rows: int = 64_000,
    method: str = "linear",
) -> dict:
    """Rewrite every partition file SORTED by ``sort_by`` with bounded
    row groups — the single-sort-key analog of Delta's ``OPTIMIZE
    ZORDER BY``. After clustering, parquet row-group min/max statistics
    become selective for the sort key, so the predicate-pushdown lake
    reads (``read_lake(filter=...)``) skip whole row groups instead of
    scanning every one: at 100 TB a point lookup touches
    O(log row-groups) of a partition, not all of it.

    Logical state is unchanged (a pure layout rewrite, like
    compaction): the commit bumps the version with op ``cluster`` so
    the change feed correctly reports zero row changes across it. The
    partitions are rewritten on the shared partition tasks (at most one
    per CPU); cost is one read + sort + write of each partition, so run
    it off the ingest path (the reference has no
    analog — its store is append-only JSONL into BigQuery).
    """
    keys = [sort_by] if isinstance(sort_by, str) else list(sort_by)
    if method not in ("linear", "zorder"):
        raise ValueError(f"unknown cluster method {method!r}")
    with writer_lock(lake_dir) as lock_token:
        manifest = load_manifest(lake_dir)
        if manifest is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        for k in keys:
            if manifest.schema is not None and k not in manifest.schema.names:
                raise ValueError(
                    f"sort key {k!r} not in lake schema "
                    f"{manifest.schema.names}"
                )
        targets = manifest.all_parts()
        if not targets:
            return {"partitions_rewritten": 0, "sort_by": keys}
        # every live partition is rewritten: pending MOR deltas fold
        # into the clustered bases
        stats = _rewrite_effective(lake_dir, manifest, targets, partial(
            _cluster_write, lake_dir, f"cluster-{manifest.version + 1}",
            keys, method, row_group_rows,
        ))
        new_manifest = manifest.successor({
            "op": "cluster",
            "sort_by": keys,
            "method": method,
            "partitions_rewritten": len(stats),
        })
        new_manifest.fold_partition_stats(stats)
        commit_manifest(
            lake_dir, new_manifest, expected_version=manifest.version
        )
        verify_lock(lake_dir, lock_token)  # fencing before deletes
        gc_unreferenced(lake_dir, new_manifest, previous=manifest)
    return {
        "partitions_rewritten": len(stats), "sort_by": keys,
        "method": method,
    }


# ---------------------------------------------------------------------------
# fsck — read-only lake integrity audit
# ---------------------------------------------------------------------------

@ray.remote
def _fsck_partition_task(
    lake_dir: str, rel: str, part: int, num_partitions: int,
    splits_list: list[list[int]], expect_rows: int | None,
    expect_tombstones: int | None,
) -> dict:
    """Deep check for ONE live partition file: rows / tombstone counts
    vs the manifest stats, and every url's crc32 route vs the
    partition actually holding it. Only counters return to the driver
    — never rows (one task per partition at any lake size)."""
    from ..stages.merge import stable_hash_partition as _route

    path = os.path.join(lake_dir, rel)
    pf = pq.ParquetFile(path)
    cols = ["url"] + ([DELETED_COL] if DELETED_COL in pf.schema_arrow.names else [])
    t = pq.read_table(path, columns=cols)
    rows = t.num_rows
    tombs = count_tombstones(t)
    routed = _route(
        t.column("url"), num_partitions,
        frozenset((int(r), int(m)) for r, m in splits_list),
    ).to_numpy(zero_copy_only=False)
    misrouted = int((routed != part).sum())
    return {
        "part": part,
        "rows": rows,
        "rows_expected": expect_rows,
        "tombstones": tombs,
        "tombstones_expected": expect_tombstones,
        "misrouted": misrouted,
    }


def _purged_hits(lake_dir: str, value_set: pa.Array, rel: str) -> int:
    """Rows of one data file whose url is in ``value_set``."""
    t = pq.read_table(os.path.join(lake_dir, rel), columns=["url"])
    return int(
        pc.sum(pc.is_in(t.column("url"), value_set=value_set)).as_py() or 0
    )


def fsck_lake(lake_dir: str, *, deep: bool = False) -> dict:
    """Read-only integrity audit of a committed lake (the operational
    ``fsck`` every production table format grows; the reference's
    analog is its post-load BQ row-count verification). Returns
    ``{"ok", "errors", "warnings", "checked", ["deep"]}`` — never
    mutates anything, takes no lock (it audits the COMMITTED state;
    a concurrent commit can only make a just-read manifest stale,
    which re-running reports correctly).

    Shallow checks are metadata-only (manifest/snapshot JSON, file
    existence/sizes, parquet FOOTERS — no data bytes move):

    1. the current manifest parses and its ``kind`` is known;
    2. the current version has a retained snapshot agreeing on
       (version, watermark, partition map) — the time-travel chain
       includes the present;
    3. every retained snapshot parses and every data file it
       references exists (a missing file breaks time travel / the
       change feed for that version);
    4. the CURRENT manifest's per-partition stats match reality:
       footer ``num_rows`` == ``partition_meta.rows``, file bytes ==
       ``partition_meta.bytes`` (stat-driven maintenance plans from
       these — drift means wrong compaction/split decisions);
    5. the live partitions tile crc32 space EXACTLY under the split
       map (each stored residue is live, ``(r, m)`` cells unique,
       ``sum(M / m) == M``) — the invariant url routing rests on;
    6. the newest lineage entry matches the committed version;
    7. data files referenced by NO retained snapshot are WARNINGS
       (legitimate pre-GC grace files), not errors.

    ``deep=True`` additionally re-reads every live partition (one Ray
    task per partition, counters only back to the driver) and checks
    row/tombstone counts and per-url routing."""
    errors: list[str] = []
    warnings: list[str] = []
    manifest = load_manifest(lake_dir)
    if manifest is None:
        return {"ok": False, "errors": [f"no committed lake at {lake_dir}"],
                "warnings": [], "checked": {}}
    if manifest.kind not in ("row", "group"):
        errors.append(f"unknown lake kind {manifest.kind!r}")

    P = manifest.num_partitions
    splits = manifest.split_set()

    # -- version chain ------------------------------------------------
    versions = list_versions(lake_dir)
    snapshots: dict[int, LakeManifest] = {}
    for v in versions:
        try:
            snapshots[v] = load_manifest(lake_dir, version=v)
        except Exception as e:  # torn/corrupt snapshot JSON
            errors.append(f"snapshot v{v} unreadable: {e!r}")
    if manifest.version not in snapshots:
        errors.append(
            f"current version v{manifest.version} has no retained "
            f"snapshot (retained: {versions})"
        )
    else:
        snap = snapshots[manifest.version]
        if (snap.watermark != manifest.watermark
                or snap.partitions != manifest.partitions
                or snap.delta_files != manifest.delta_files):
            errors.append(
                f"snapshot v{manifest.version} disagrees with the "
                "current manifest (watermark, partition map or deltas)"
            )

    # -- data files: existence + current-manifest stat drift -----------
    # base AND merge-on-read delta files are checked for existence;
    # stat drift applies to the base only (delta stats are cumulative
    # in partition_meta, not per-file)
    files_checked = 0
    for v, m in sorted(snapshots.items()):
        for part in m.all_parts():
            base_rel = m.partitions.get(part)
            for rel in m.part_files(part):
                from ..state.iofs import file_exists as _fexists

                path = os.path.join(lake_dir, rel)
                if not _fexists(path):
                    errors.append(f"v{v} part {part}: missing data file {rel}")
                    continue
                files_checked += 1
                if v != manifest.version or rel != base_rel:
                    continue
                meta = manifest.partition_meta.get(part)
                if not meta:
                    warnings.append(f"part {part}: no partition_meta stats")
                    continue
                from ..state.iofs import file_size as _fsize

                actual_bytes = _fsize(path)
                if "bytes" in meta and int(meta["bytes"]) != actual_bytes:
                    errors.append(
                        f"part {part}: manifest bytes {meta['bytes']} != "
                        f"file bytes {actual_bytes} ({rel})"
                    )
                try:
                    footer_rows = pq.ParquetFile(path).metadata.num_rows
                except Exception as e:  # torn write / truncation / tail junk
                    errors.append(
                        f"part {part}: unreadable parquet footer ({rel}): {e!r}"
                    )
                    continue
                if "rows" in meta and int(meta["rows"]) != footer_rows:
                    errors.append(
                        f"part {part}: manifest rows {meta['rows']} != "
                        f"footer rows {footer_rows} ({rel})"
                    )

    # -- partition covering under the split map ------------------------
    cells: list[tuple[int, int]] = []
    for r in manifest.all_parts():
        m = residue_modulus(r, P, splits)
        if r % m != r or (r, m) in splits:
            errors.append(
                f"partition residue {r} is not live under the split map"
            )
            continue
        cells.append((r, m))
    if len(set(cells)) != len(cells):
        errors.append("duplicate (residue, modulus) cells in partition map")
    if cells:
        big_m = max(m for _, m in cells)
        covered = sum(big_m // m for _, m in cells)
        if covered != big_m:
            errors.append(
                f"partition map does not tile crc32 space: covers "
                f"{covered}/{big_m} residue classes (missing or "
                "overlapping cells)"
            )

    # -- lineage head ---------------------------------------------------
    if manifest.lineage:
        head = manifest.lineage[-1].get("version")
        if head != manifest.version:
            errors.append(
                f"lineage head v{head} != committed version "
                f"v{manifest.version}"
            )
    else:
        warnings.append("empty lineage")

    # -- orphan data files (pre-GC grace files are legitimate) ----------
    referenced = {
        os.path.normpath(rel)
        for m in list(snapshots.values()) + [manifest]
        for rel in m.all_data_relpaths()
    }
    # files only a live BRANCH references are pinned, not orphaned
    from ..state.checkpoint import _branch_pinned_relpaths
    from ..state.store import resolve_store

    try:
        referenced |= _branch_pinned_relpaths(lake_dir, resolve_store(lake_dir))
    except RuntimeError as e:  # unreadable branch state: report, go on
        errors.append(str(e))
    from ..state.iofs import file_exists as _bexists
    from ..state.iofs import list_data_files as _ldata
    from ..state.iofs import list_subdirs as _lsub

    data_dir = os.path.join(lake_dir, DATA_DIR)
    orphans = 0
    for fpath in _ldata(data_dir):
        name = fpath.rsplit("/", 1)[-1]
        if os.path.normpath(os.path.join(DATA_DIR, name)) not in referenced:
            orphans += 1
    if orphans:
        warnings.append(
            f"{orphans} unreferenced data file(s) awaiting GC"
        )

    # -- branches: every file a branch head references must exist (a
    # missing inherited file means the branch is already unreadable —
    # GC pins them, so this only happens through out-of-band deletion);
    # a _branches/ dir without a committed manifest is debris
    from ..state.checkpoint import branch_dir as _bdir
    from ..state.checkpoint import list_branches

    branch_names = list_branches(lake_dir)
    for bname in branch_names:
        bdir = _bdir(lake_dir, bname)
        bm = load_manifest(bdir)
        from ..state.iofs import normalize_path as _npath

        for rel in sorted(bm.all_data_relpaths()):
            if not _bexists(_npath(os.path.join(bdir, rel))):
                errors.append(
                    f"branch {bname!r}: missing data file {rel}"
                )
    broot = os.path.join(lake_dir, "_branches")
    if True:
        for bname in _lsub(broot):
            if bname not in branch_names:
                warnings.append(
                    f"branch dir {bname!r} has no committed manifest "
                    f"(debris from a crashed create?)"
                )

    # -- named refs: tags and consumer cursors must pin RETAINED
    # versions (a dangling ref means its time travel / feed resume is
    # already broken — vacuum honors pins, so this only happens through
    # out-of-band deletion; cursor value 0 = never consumed, fine)
    from ..state.checkpoint import list_cursors, list_tags

    retained = set(versions)
    for name, v in sorted(list_tags(lake_dir).items()):
        if v not in retained:
            errors.append(
                f"tag {name!r} pins v{v} which has no retained snapshot"
            )
    for name, v in sorted(list_cursors(lake_dir).items()):
        if v != 0 and v not in retained:
            errors.append(
                f"consumer cursor {name!r} at v{v} has no retained "
                f"snapshot: its next feed cannot be served"
            )

    report: dict = {
        "ok": not errors,
        "errors": errors,
        "warnings": warnings,
        "checked": {
            "version": manifest.version,
            "retained_versions": versions,
            "partitions": len(manifest.all_parts()),
            "data_files": files_checked,
            "delta_files": sum(
                len(v) for v in manifest.delta_files.values()
            ),
            "branches": branch_names,
        },
    }

    if deep and not errors:
        futs = [
            _fsck_partition_task.remote(
                lake_dir, rel, part, P, [list(c) for c in splits],
                # row/tombstone expectations only apply to the base
                # file; MOR delta files get the routing check alone
                manifest.partition_meta.get(part, {}).get("rows")
                if rel == manifest.partitions.get(part) else None,
                manifest.partition_meta.get(part, {}).get("tombstones")
                if rel == manifest.partitions.get(part) else None,
            )
            for part in manifest.all_parts()
            for rel in manifest.part_files(part)
        ]
        deep_errors: list[str] = []
        for res in ray.get(futs):
            p = res["part"]
            if res["rows_expected"] is not None and \
                    res["rows"] != res["rows_expected"]:
                deep_errors.append(
                    f"part {p}: {res['rows']} rows != manifest "
                    f"{res['rows_expected']}"
                )
            if res["tombstones_expected"] is not None and \
                    res["tombstones"] != res["tombstones_expected"]:
                deep_errors.append(
                    f"part {p}: {res['tombstones']} tombstones != "
                    f"manifest {res['tombstones_expected']}"
                )
            if res["misrouted"]:
                deep_errors.append(
                    f"part {p}: {res['misrouted']} row(s) whose url "
                    "routes to a different partition"
                )
        report["deep"] = {"partitions_scanned": len(futs)}
        # right-to-be-forgotten audit: no retained snapshot's file may
        # still hold a purged url (purge_urls rewrote history; a hit
        # here means an out-of-band write or a purge bug)
        from ..state.checkpoint import list_purged

        purged = sorted(list_purged(lake_dir))
        if purged:
            all_rels = sorted({
                rel for m in list(snapshots.values()) + [manifest]
                for rel in m.all_data_relpaths()
            })

            for rel, hits in zip(all_rels, map_partitions(
                partial(_purged_hits, lake_dir, pa.array(purged, pa.string())),
                all_rels,
            )):
                if hits:
                    deep_errors.append(
                        f"{rel}: {hits} row(s) of PURGED url(s) survive"
                    )
            report["deep"]["purged_urls_audited"] = len(purged)
        if deep_errors:
            report["errors"] = report["errors"] + deep_errors
            report["ok"] = False
    return report
