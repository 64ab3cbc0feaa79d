"""Incrementally-maintained exact-dedup index over a CDC lake.

At 100 TB you cannot re-hash the corpus per commit: duplicate detection
must be MAINTAINED, not recomputed. This module keeps a persisted
(key -> urls) index — key is any lake string column, by default the
extracted ``text`` — bucketed by key hash, and brings it up to the lake
head by applying only the pre-image change feed
(:func:`..pipelines.cdc.changes_between`) since the index's last-seen
version: cost O(changed rows) + O(touched buckets), never O(corpus).
The reference has no equivalent (its consumers re-read whole BigQuery
tables per run, ``bq_data_service.py:17-52``).

Index state layout under ``index_dir``::

    _dedup_index.json    {"lake_version": V, "key_col": k,
                          "num_buckets": B,
                          "files": {"<bucket>": "b00007-v000003.parquet"}}
    b*-v*.parquet        (key, url) live pairs of one key-hash bucket

Invariants:

* exactly ONE pair per live url (url is the lake primary key), zero
  pairs for tombstoned/absent urls and for NULL keys (a NULL key can't
  duplicate anything — excluded consistently on add and remove);
* all urls of a key live in ONE bucket (crc32(key) % B), so duplicate
  groups never span bucket files and :func:`dup_groups` needs no
  shuffle — one task per bucket;
* refresh rewrites ONLY touched buckets (new content-named file, then
  one atomic JSON swap via the storage seam); untouched buckets carry
  forward by reference. A crash mid-refresh leaves the old index
  intact plus orphan files that the next successful publish removes.

Staleness: an index whose base version fell out of lake retention
rebuilds from the pinned head snapshot (same policy as the incremental
views — what a too-stale Delta-CDF consumer must do).

Concurrency contract (same as the incremental views / replicas): ONE
refresher per index dir. Refresh is atomic and idempotent against
crashes, but two LIVE refreshers racing different target versions can
orphan each other's bucket files — run index refresh from the single
poll loop (``poll --dedup-index-dir``) or an external scheduler slot,
exactly like any Delta-CDF consumer group with one active member.
"""
from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..stages.merge import crc32_column
from ..state.checkpoint import list_versions, load_manifest
from .cdc import CHANGE_OP_COL, changes_between, read_lake

INDEX_STATE = "_dedup_index.json"

#: pre-image feed ops that ADD a (key, url) pair vs REMOVE one
_ADD_OPS = ("insert", "update_postimage")
_REMOVE_OPS = ("update_preimage", "delete")


def _load_state(index_dir: str) -> dict | None:
    from ..state.store import resolve_store

    try:
        raw = resolve_store(index_dir).get_bytes(
            os.path.join(index_dir, INDEX_STATE)
        )
    except FileNotFoundError:
        return None
    return json.loads(raw)


def _bucket_of(keys: pa.Array | pa.ChunkedArray, num_buckets: int) -> np.ndarray:
    return crc32_column(keys) % np.uint32(num_buckets)


def _buckets_from_lake(manifest) -> int:
    """Bucket count sized from manifest stats (no data read): ~500k
    pairs per bucket so a refresh task's working set stays bounded at
    any lake volume."""
    rows = sum(
        int(m.get("rows", 0)) for m in manifest.partition_meta.values()
    )
    return max(16, -(-rows // 500_000))


def _pairs_table(keys: pa.Array, urls: pa.Array) -> pa.Table:
    return pa.table({"key": keys, "url": urls})


@ray.remote(num_cpus=1)
def _rewrite_pair_bucket(
    index_dir: str, old_rel: str | None, b_add: pa.Table, b_rem: pa.Table,
    bucket: int, target: int,
) -> str | None:
    """Apply one bucket's (key, url) delta and write the new content-
    named file — the unit of parallel index refresh. Returns the new
    file name, or None when the bucket emptied. Removal is by URL
    alone: a url has exactly one live pair, and its preimage key named
    this bucket."""
    old = (
        pq.read_table(os.path.join(index_dir, old_rel))
        if old_rel is not None
        else pa.table({"key": pa.array([], pa.string()),
                       "url": pa.array([], pa.string())})
    )
    if b_rem.num_rows:
        gone = pc.is_in(old.column("url"), value_set=b_rem.column("url"))
        old = old.filter(pc.invert(gone))
    merged = pa.concat_tables([old, b_add]) if b_add.num_rows else old
    if merged.num_rows == 0:
        return None
    from ..state.iofs import write_table_atomic

    fname = f"b{bucket:05d}-v{target:06d}.parquet"
    write_table_atomic(
        merged.sort_by([("key", "ascending"), ("url", "ascending")]),
        os.path.join(index_dir, fname),
    )
    return fname


@ray.remote(num_cpus=1)
def _rewrite_band_bucket(
    index_dir: str, old_rel: str | None, b_add: pa.Table, b_rem: pa.Table,
    bucket: int, target: int,
) -> str | None:
    """SimHash variant of :func:`_rewrite_pair_bucket`: retire the
    url's old rows for exactly the (band, key) combinations its
    preimage signature names."""
    old = (
        pq.read_table(os.path.join(index_dir, old_rel))
        if old_rel is not None
        else pa.table({
            "band": pa.array([], pa.int32()), "key": pa.array([], pa.int64()),
            "url": pa.array([], pa.string()), "sig": pa.array([], pa.int64()),
        })
    )
    if b_rem.num_rows:
        old_tag = pc.binary_join_element_wise(
            pc.cast(old.column("key"), pa.string()), old.column("url"), "\x00",
        )
        rem_tag = pc.binary_join_element_wise(
            pc.cast(b_rem.column("key"), pa.string()), b_rem.column("url"),
            "\x00",
        )
        old = old.filter(pc.invert(pc.is_in(old_tag, value_set=rem_tag)))
    merged = pa.concat_tables([old, b_add]) if b_add.num_rows else old
    if merged.num_rows == 0:
        return None
    from ..state.iofs import write_table_atomic

    fname = f"s{bucket:05d}-v{target:06d}.parquet"
    write_table_atomic(
        merged.sort_by([("band", "ascending"), ("key", "ascending"),
                        ("url", "ascending")]),
        os.path.join(index_dir, fname),
    )
    return fname


def refresh_dedup_index(
    lake_dir: str, index_dir: str, *, key_col: str = "text",
    at_version: int | None = None,
) -> dict:
    """Bring the (key -> urls) index up to the lake's current (or
    ``at_version``'s) state. First call: full build from the pinned
    snapshot. Later calls: apply the net pre-image feed — one net op
    per url, so application order is irrelevant — rewriting only the
    buckets whose keys changed."""
    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    target = manifest.version if at_version is None else int(at_version)
    state = _load_state(index_dir)
    if state is not None and state.get("key_col") != key_col:
        raise ValueError(
            f"index is keyed by {state.get('key_col')!r}, refresh asked "
            f"for {key_col!r}"
        )
    if state is not None and state["lake_version"] == target:
        return {"refreshed": False, "mode": "noop", "lake_version": target}
    if state is not None and state["lake_version"] > target:
        raise ValueError(
            f"index at lake version {state['lake_version']} is newer "
            f"than requested {target}"
        )
    if state is not None and state["lake_version"] not in set(
        list_versions(lake_dir)
    ):
        state = None  # lagged past retention: full rebuild
    # fail loud if the key column left the lake schema (alter_lake)
    m_target = load_manifest(lake_dir, version=target)
    if (
        m_target is not None and m_target.schema is not None
        and key_col not in m_target.schema.names
    ):
        raise ValueError(
            f"index key column {key_col!r} is not in the lake schema "
            f"{m_target.schema.names} (renamed or dropped by alter_lake?)"
        )

    prev_files = dict(state["files"]) if state is not None else {}
    if state is None:
        num_buckets = _buckets_from_lake(manifest)
        ds = read_lake(lake_dir, version=target, columns=[key_col, "url"])

        def bucketed(t: pa.Table) -> pa.Table:
            keys = t.column(key_col).combine_chunks() if isinstance(
                t.column(key_col), pa.ChunkedArray) else t.column(key_col)
            mask = pc.is_valid(keys)
            t = t.filter(mask)
            if t.num_rows == 0:
                return pa.table({
                    "key": pa.array([], pa.string()),
                    "url": pa.array([], pa.string()),
                    "_bucket": pa.array([], pa.int32()),
                })
            b = _bucket_of(t.column(key_col), num_buckets)
            return pa.table({
                "key": t.column(key_col),
                "url": t.column("url"),
                "_bucket": pa.array(b.astype(np.int32)),
            })

        pairs = ds.map_batches(
            bucketed, batch_format="pyarrow", zero_copy_batch=True
        )
        new_files: dict[str, str] = {}

        def write_bucket(group: pa.Table) -> pa.Table:
            if group.num_rows == 0:
                return pa.table({"bucket": pa.array([], pa.int32()),
                                 "file": pa.array([], pa.string())})
            bucket = int(group.column("_bucket")[0].as_py())
            from ..state.iofs import write_table_atomic

            fname = f"b{bucket:05d}-v{target:06d}.parquet"
            write_table_atomic(
                group.drop_columns(["_bucket"]).sort_by(
                    [("key", "ascending"), ("url", "ascending")]
                ),
                os.path.join(index_dir, fname),
            )
            return pa.table({"bucket": pa.array([bucket], pa.int32()),
                             "file": pa.array([fname], pa.string())})

        written = pairs.groupby("_bucket").map_groups(
            write_bucket, batch_format="pyarrow"
        ).take_all()
        new_files = {str(r["bucket"]): r["file"] for r in written}
        mode, touched = "full", len(new_files)
    else:
        num_buckets = int(state["num_buckets"])
        feed = changes_between(
            lake_dir, state["lake_version"], target,
            preimages=True, columns=[key_col],
        )
        # the delta is bounded by the changed-row count — collect the
        # (key, url, sign) pairs and group driver-side by bucket (an
        # aggregate-sized fold, mirroring the incremental views; a
        # commit whose delta rivals the corpus should full-rebuild)
        adds: list[pa.Table] = []
        removes: list[pa.Table] = []
        for t in feed.to_arrow_refs():
            t = ray.get(t)
            if t.num_rows == 0:
                continue
            op = t.column(CHANGE_OP_COL)
            valid = pc.is_valid(t.column(key_col))
            add_mask = pc.and_(pc.is_in(op, value_set=pa.array(_ADD_OPS)), valid)
            rem_mask = pc.and_(
                pc.is_in(op, value_set=pa.array(_REMOVE_OPS)), valid
            )
            if pc.any(add_mask).as_py():
                sub = t.filter(add_mask)
                adds.append(_pairs_table(sub.column(key_col), sub.column("url")))
            if pc.any(rem_mask).as_py():
                sub = t.filter(rem_mask)
                removes.append(
                    _pairs_table(sub.column(key_col), sub.column("url"))
                )
        add_t = (
            pa.concat_tables(adds) if adds
            else pa.table({"key": pa.array([], pa.string()),
                           "url": pa.array([], pa.string())})
        )
        rem_t = (
            pa.concat_tables(removes) if removes
            else pa.table({"key": pa.array([], pa.string()),
                           "url": pa.array([], pa.string())})
        )
        if add_t.num_rows == 0 and rem_t.num_rows == 0:
            # metadata-only span: carry the index forward
            new_files = dict(prev_files)
            mode, touched = "incremental", 0
        else:
            add_b = _bucket_of(add_t.column("key"), num_buckets)
            rem_b = _bucket_of(rem_t.column("key"), num_buckets)
            touched_buckets = sorted(
                set(add_b.tolist()) | set(rem_b.tolist())
            )
            new_files = dict(prev_files)
            # one Ray task per touched bucket (independent rewrites):
            # the driver holds only the delta slices, never the buckets
            refs = [
                _rewrite_pair_bucket.remote(
                    index_dir, prev_files.get(str(bucket)),
                    add_t.filter(pa.array(add_b == bucket)),
                    rem_t.filter(pa.array(rem_b == bucket)),
                    bucket, target,
                )
                for bucket in touched_buckets
            ]
            for bucket, fname in zip(touched_buckets, ray.get(refs)):
                if fname is None:
                    new_files.pop(str(bucket), None)  # bucket emptied
                else:
                    new_files[str(bucket)] = fname
            mode, touched = "incremental", len(touched_buckets)

    from ..state.store import resolve_store

    resolve_store(index_dir).put_atomic(
        os.path.join(index_dir, INDEX_STATE),
        json.dumps({
            "lake_version": target, "key_col": key_col,
            "num_buckets": num_buckets, "files": new_files,
        }).encode("utf-8"),
    )
    from ..state.iofs import delete_file as _idel

    live = set(new_files.values())
    for fname in set(prev_files.values()) - live:
        _idel(os.path.join(index_dir, fname))
    return {
        "refreshed": True, "mode": mode, "lake_version": target,
        "buckets_touched": touched,
    }


def dup_groups(index_dir: str, *, min_urls: int = 2) -> ray.data.Dataset:
    """Duplicate groups from the maintained index: one row per key with
    >= ``min_urls`` live urls — (key, n_urls, min_url). One task per
    bucket file (a bucket holds every url of its keys), no shuffle."""
    state = _load_state(index_dir)
    if state is None:
        raise FileNotFoundError(f"no dedup index at {index_dir}")
    paths = [os.path.join(index_dir, f) for f in state["files"].values()]
    if not paths:
        return ray.data.from_arrow(pa.table({
            "key": pa.array([], pa.string()),
            "n_urls": pa.array([], pa.int64()),
            "min_url": pa.array([], pa.string()),
        }))

    def groups_of(batch: pa.Table) -> pa.Table:
        out_k: list = []
        out_n: list = []
        out_u: list = []
        for path in batch.column("path").to_pylist():
            t = pq.read_table(path)  # written sorted by (key, url)
            g = t.group_by("key").aggregate(
                [("url", "count"), ("url", "min")]
            )
            keep = pc.greater_equal(g.column("url_count"), min_urls)
            g = g.filter(keep)
            out_k.append(g.column("key"))
            out_n.append(pc.cast(g.column("url_count"), pa.int64()))
            out_u.append(g.column("url_min"))
        if not out_k:
            return pa.table({"key": pa.array([], pa.string()),
                             "n_urls": pa.array([], pa.int64()),
                             "min_url": pa.array([], pa.string())})
        return pa.table({
            "key": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in out_k]),
            "n_urls": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in out_n]),
            "min_url": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in out_u]),
        })

    files_ds = ray.data.from_arrow(
        pa.table({"path": pa.array(paths, pa.string())})
    )
    return files_ds.map_batches(
        groups_of, batch_format="pyarrow", batch_size=1
    )


# ---------------------------------------------------------------------------
# Incrementally-maintained SimHash near-dup index
# ---------------------------------------------------------------------------

SIMHASH_STATE = "_simhash_index.json"

#: multiplicative hash for int64 band keys (same shape as the bucketed
#: window executor's `_hash_bucket`): high bits so the bucket depends on
#: every key bit, wraparound uint64 arithmetic
_MULT64 = 0x9E3779B97F4A7C15


def _int_bucket(keys: pa.Array | pa.ChunkedArray, num_buckets: int) -> np.ndarray:
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    k = keys.to_numpy(zero_copy_only=False).astype(np.uint64)
    return ((k * np.uint64(_MULT64)) >> np.uint64(32)) % np.uint64(num_buckets)


def _band_rows_for(
    texts: pa.Array | pa.ChunkedArray, urls: pa.Array | pa.ChunkedArray,
    num_bands: int,
) -> pa.Table:
    """(band, key, url, sig) rows for non-NULL texts — signatures
    TRAVEL WITH the index rows, so near-dup verification later needs no
    text access at all (the property that makes the simhash index the
    maintainable one; a MinHash index would need the corpus for its
    Jaccard verify)."""
    from ..stages.dedup import simhash_band_table

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    mask = pc.is_valid(texts)
    texts = texts.filter(mask)
    urls = urls.filter(mask)
    n = len(texts)
    if n == 0:
        return pa.table({
            "band": pa.array([], pa.int32()),
            "key": pa.array([], pa.int64()),
            "url": pa.array([], pa.string()),
            "sig": pa.array([], pa.int64()),
        })
    t = simhash_band_table(texts, np.arange(n, dtype=np.int64),
                           num_bands=num_bands)
    return pa.table({
        "band": t.column("band"),
        "key": t.column("key"),
        "url": pc.take(urls, t.column("row_idx")),
        "sig": t.column("sig"),
    })


def refresh_simhash_index(
    lake_dir: str, index_dir: str, *, num_bands: int = 4,
    key_col: str = "text", at_version: int | None = None,
) -> dict:
    """Bring the persisted SimHash band index up to the lake head by
    applying only the pre-image change feed: removed/updated urls
    retire their OLD band rows (recomputed from the preimage text —
    signatures are deterministic, so no separate signature store is
    needed), inserted/updated urls add new ones; only touched buckets
    rewrite. Same staleness / atomic-publish contract as
    :func:`refresh_dedup_index`."""
    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    target = manifest.version if at_version is None else int(at_version)
    from ..state.store import resolve_store as _rs

    state_path = os.path.join(index_dir, SIMHASH_STATE)
    try:
        state = json.loads(_rs(state_path).get_bytes(state_path))
    except FileNotFoundError:
        state = None
    if state is not None and state.get("num_bands") != num_bands:
        raise ValueError(
            f"index built with num_bands={state.get('num_bands')}, "
            f"refresh asked for {num_bands}"
        )
    if state is not None and state.get("key_col") != key_col:
        raise ValueError(
            f"index is keyed by {state.get('key_col')!r}, refresh asked "
            f"for {key_col!r}"
        )
    if state is not None and state["lake_version"] == target:
        return {"refreshed": False, "mode": "noop", "lake_version": target}
    if state is not None and state["lake_version"] > target:
        raise ValueError(
            f"index at lake version {state['lake_version']} is newer "
            f"than requested {target}"
        )
    if state is not None and state["lake_version"] not in set(
        list_versions(lake_dir)
    ):
        state = None  # lagged past retention: full rebuild
    m_target = load_manifest(lake_dir, version=target)
    if (
        m_target is not None and m_target.schema is not None
        and key_col not in m_target.schema.names
    ):
        raise ValueError(
            f"index key column {key_col!r} is not in the lake schema "
            f"{m_target.schema.names} (renamed or dropped by alter_lake?)"
        )

    prev_files = dict(state["files"]) if state is not None else {}
    if state is None:
        num_buckets = _buckets_from_lake(manifest)
        ds = read_lake(lake_dir, version=target, columns=[key_col, "url"])
        nb = num_bands

        def bucketed(t: pa.Table) -> pa.Table:
            rows = _band_rows_for(t.column(key_col), t.column("url"), nb)
            b = (
                _int_bucket(rows.column("key"), num_buckets)
                if rows.num_rows else np.empty(0, dtype=np.uint64)
            )
            return rows.append_column(
                "_bucket", pa.array(b.astype(np.int32))
            )

        rows_ds = ds.map_batches(
            bucketed, batch_format="pyarrow", zero_copy_batch=True
        )

        def write_bucket(group: pa.Table) -> pa.Table:
            if group.num_rows == 0:
                return pa.table({"bucket": pa.array([], pa.int32()),
                                 "file": pa.array([], pa.string())})
            bucket = int(group.column("_bucket")[0].as_py())
            from ..state.iofs import write_table_atomic

            fname = f"s{bucket:05d}-v{target:06d}.parquet"
            write_table_atomic(
                group.drop_columns(["_bucket"]).sort_by(
                    [("band", "ascending"), ("key", "ascending"),
                     ("url", "ascending")]
                ),
                os.path.join(index_dir, fname),
            )
            return pa.table({"bucket": pa.array([bucket], pa.int32()),
                             "file": pa.array([fname], pa.string())})

        written = rows_ds.groupby("_bucket").map_groups(
            write_bucket, batch_format="pyarrow"
        ).take_all()
        new_files = {str(r["bucket"]): r["file"] for r in written}
        mode, touched = "full", len(new_files)
    else:
        num_buckets = int(state["num_buckets"])
        feed = changes_between(
            lake_dir, state["lake_version"], target,
            preimages=True, columns=[key_col],
        )
        adds: list[pa.Table] = []
        removes: list[pa.Table] = []
        for ref in feed.to_arrow_refs():
            t = ray.get(ref)
            if t.num_rows == 0:
                continue
            op = t.column(CHANGE_OP_COL)
            add_mask = pc.is_in(op, value_set=pa.array(_ADD_OPS))
            rem_mask = pc.is_in(op, value_set=pa.array(_REMOVE_OPS))
            if pc.any(add_mask).as_py():
                sub = t.filter(add_mask)
                adds.append(
                    _band_rows_for(sub.column(key_col), sub.column("url"), num_bands)
                )
            if pc.any(rem_mask).as_py():
                sub = t.filter(rem_mask)
                removes.append(
                    _band_rows_for(sub.column(key_col), sub.column("url"), num_bands)
                )
        empty = pa.table({
            "band": pa.array([], pa.int32()), "key": pa.array([], pa.int64()),
            "url": pa.array([], pa.string()), "sig": pa.array([], pa.int64()),
        })
        add_t = pa.concat_tables(adds) if adds else empty
        rem_t = pa.concat_tables(removes) if removes else empty
        if add_t.num_rows == 0 and rem_t.num_rows == 0:
            new_files = dict(prev_files)
            mode, touched = "incremental", 0
        else:
            add_b = _int_bucket(add_t.column("key"), num_buckets)
            rem_b = _int_bucket(rem_t.column("key"), num_buckets)
            touched_buckets = sorted(
                {int(x) for x in add_b} | {int(x) for x in rem_b}
            )
            new_files = dict(prev_files)
            refs = [
                _rewrite_band_bucket.remote(
                    index_dir, prev_files.get(str(bucket)),
                    add_t.filter(pa.array(add_b == bucket)),
                    rem_t.filter(pa.array(rem_b == bucket)),
                    bucket, target,
                )
                for bucket in touched_buckets
            ]
            for bucket, fname in zip(touched_buckets, ray.get(refs)):
                if fname is None:
                    new_files.pop(str(bucket), None)
                else:
                    new_files[str(bucket)] = fname
            mode, touched = "incremental", len(touched_buckets)

    from ..state.store import resolve_store

    resolve_store(state_path).put_atomic(
        state_path,
        json.dumps({
            "lake_version": target, "key_col": key_col,
            "num_bands": num_bands, "num_buckets": num_buckets,
            "files": new_files,
        }).encode("utf-8"),
    )
    from ..state.iofs import delete_file as _idel

    live = set(new_files.values())
    for fname in set(prev_files.values()) - live:
        _idel(os.path.join(index_dir, fname))
    return {
        "refreshed": True, "mode": mode, "lake_version": target,
        "buckets_touched": touched,
    }


def near_dup_clusters(
    index_dir: str, *, max_hamming: int = 3
) -> ray.data.Dataset:
    """Near-duplicate clusters of the LIVE corpus from the maintained
    index: (url, min_url) for every url in a cluster of >= 2. Per
    bucket: dictionary-encode urls, run the exact pigeonhole Hamming
    verify (signatures ride the index rows — no text access), decode
    pairs; driver union-find over the verified pairs (bounded by the
    dup rate, the dedup-family partitioning assumption). Budget-capped
    buckets raise instead of silently losing recall."""
    from ..functions.hashing import UnionFind
    from ..stages.dedup import CAP_MARKER, simhash_verify_table

    from ..state.store import resolve_store as _rs_sh

    state_path = os.path.join(index_dir, SIMHASH_STATE)
    try:
        state = json.loads(_rs_sh(state_path).get_bytes(state_path))
    except FileNotFoundError:
        raise FileNotFoundError(f"no simhash index at {index_dir}")
    num_bands = int(state["num_bands"])
    paths = [os.path.join(index_dir, f) for f in state["files"].values()]
    out_schema = pa.schema([
        ("url", pa.string()), ("min_url", pa.string()),
    ])
    if not paths:
        return ray.data.from_arrow(out_schema.empty_table())

    def verify_bucket(batch: pa.Table) -> pa.Table:
        out_a: list[str] = []
        out_b: list[str] = []

        for path in batch.column("path").to_pylist():
            t = pq.read_table(path)
            urls = t.column("url").combine_chunks() if isinstance(
                t.column("url"), pa.ChunkedArray) else t.column("url")
            enc = pc.dictionary_encode(urls)
            codes = enc.indices.cast(pa.int64())
            vocab = enc.dictionary
            pairs = simhash_verify_table(
                pa.table({
                    "band": t.column("band"), "key": t.column("key"),
                    "doc_id": codes, "sig": t.column("sig"),
                }),
                max_hamming=max_hamming, num_bands=num_bands,
            )
            ia = pairs.column("id_a")
            if len(ia) and pc.any(pc.equal(ia, CAP_MARKER)).as_py():
                raise RuntimeError(
                    f"simhash index bucket {path} tripped the verify "
                    "work budget — raise _SIMHASH_GROUP_BUDGET"
                )
            out_a.extend(pc.take(vocab, ia).to_pylist())
            out_b.extend(pc.take(vocab, pairs.column("id_b")).to_pylist())
        return pa.table({"url_a": pa.array(out_a, pa.string()),
                         "url_b": pa.array(out_b, pa.string())})

    files_ds = ray.data.from_arrow(
        pa.table({"path": pa.array(paths, pa.string())})
    )
    pairs_ds = files_ds.map_batches(
        verify_bucket, batch_format="pyarrow", batch_size=1
    ).materialize()
    from ..stages import dedup as _dedup

    n_pairs = pairs_ds.count()
    if n_pairs >= _dedup.PAIR_DRIVER_THRESHOLD:
        # scale path: verified pairs stay a Dataset — distributed
        # min-label clustering over 64-bit url hashes (collision-checked
        # loud), then two bucketed co-groups to decode and tag each
        # member with its cluster's min url. The driver never holds the
        # pair list.
        return _clusters_dataset_native(pairs_ds)
    pair_t = pa.concat_tables(
        list(pairs_ds.iter_batches(batch_format="pyarrow"))
    )
    uf = UnionFind()
    for a, b in zip(
        pair_t.column("url_a").to_pylist(), pair_t.column("url_b").to_pylist()
    ):
        uf.union(a, b)
    rows_u: list[str] = []
    rows_m: list[str] = []
    for root, members in uf.groups().items():
        if len(members) < 2:
            continue
        m = min(members)
        for u in sorted(members):
            rows_u.append(u)
            rows_m.append(m)
    return ray.data.from_arrow(pa.table({
        "url": pa.array(rows_u, pa.string()),
        "min_url": pa.array(rows_m, pa.string()),
    }))


def _hash64_strings(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """blake2b-8 of each string, >>1 to stay in int64 (the
    ``_content_hash_batch`` idiom) — node ids for the distributed
    clustering tail. Pair-stream-bounded, never corpus-bounded."""
    import hashlib

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    vals = arr.to_pylist()
    return np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(v.encode("utf-8"), digest_size=8).digest(),
                "little", signed=False,
            ) >> 1
            for v in vals
        ),
        dtype=np.int64, count=len(vals),
    )


def _clusters_dataset_native(pairs_ds: ray.data.Dataset) -> ray.data.Dataset:
    """(url, min_url) clusters from a verified url-pair Dataset without
    collecting pairs on the driver: encode urls to 64-bit hashes, run
    ``minlabel_components`` over the int pairs, then co-group
    (node -> url) with (node -> label) and (label -> members) — two
    bucketed exchanges over PAIR-participant rows only. A hash
    collision (two urls, one node id) would silently merge clusters,
    so the decode group RAISES if a node maps to two urls."""
    from ..stages.dedup import minlabel_components

    def encode_pairs(t: pa.Table) -> pa.Table:
        return pa.table({
            "id_a": pa.array(_hash64_strings(t.column("url_a"))),
            "id_b": pa.array(_hash64_strings(t.column("url_b"))),
        })

    def node_urls(t: pa.Table) -> pa.Table:
        nodes = np.concatenate([
            _hash64_strings(t.column("url_a")),
            _hash64_strings(t.column("url_b")),
        ])
        urls = pa.concat_arrays([
            t.column("url_a").combine_chunks() if isinstance(
                t.column("url_a"), pa.ChunkedArray) else t.column("url_a"),
            t.column("url_b").combine_chunks() if isinstance(
                t.column("url_b"), pa.ChunkedArray) else t.column("url_b"),
        ])
        out = pa.table({"node": pa.array(nodes), "url": urls})
        # per-batch combiner: one (node, url) row per node
        return out.group_by("node").aggregate([("url", "min")]).rename_columns(
            ["node", "url"]
        )

    labels = minlabel_components(
        pairs_ds.map_batches(encode_pairs, batch_format="pyarrow")
    )
    mapping = pairs_ds.map_batches(node_urls, batch_format="pyarrow")

    def decode(group: pa.Table) -> pa.Table:
        # rows: mapping (url set) + label rows for ONE node
        urls = {u for u in group.column("url").to_pylist() if u is not None}
        if len(urls) > 1:
            raise RuntimeError(
                f"64-bit url-hash collision across {sorted(urls)[:2]} — "
                "near-dup clustering cannot proceed safely"
            )
        lab = [x for x in group.column("label").to_pylist() if x is not None]
        if not urls or not lab:
            return pa.table({"label": pa.array([], pa.int64()),
                             "url": pa.array([], pa.string())})
        return pa.table({"label": pa.array([lab[0]], pa.int64()),
                         "url": pa.array([next(iter(urls))], pa.string())})

    tagged = (
        labels.map_batches(
            lambda t: t.append_column("url", pa.array([None] * t.num_rows, pa.string())),
            batch_format="pyarrow",
        )
        .union(
            mapping.map_batches(
                lambda t: pa.table({
                    "node": t.column("node"),
                    "label": pa.array([None] * t.num_rows, pa.int64()),
                    "url": t.column("url"),
                }),
                batch_format="pyarrow",
            )
        )
        .groupby("node")
        .map_groups(decode, batch_format="pyarrow")
    )

    def emit_members(group: pa.Table) -> pa.Table:
        urls = sorted(group.column("url").to_pylist())
        m = urls[0]
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "min_url": pa.array([m] * len(urls), pa.string()),
        })

    return tagged.groupby("label").map_groups(
        emit_members, batch_format="pyarrow"
    )


def dup_drop_urls(index_dir: str) -> ray.data.Dataset:
    """Urls to EXCLUDE for a canonical corpus: every member of a
    duplicate group except its min url. One task per bucket (groups
    never span buckets), result bounded by the duplicate rate."""
    state = _load_state(index_dir)
    if state is None:
        raise FileNotFoundError(f"no dedup index at {index_dir}")
    paths = [os.path.join(index_dir, f) for f in state["files"].values()]
    if not paths:
        return ray.data.from_arrow(pa.table({"url": pa.array([], pa.string())}))

    def drops_of(batch: pa.Table) -> pa.Table:
        out: list = []
        for path in batch.column("path").to_pylist():
            t = pq.read_table(path)
            g = t.group_by("key").aggregate([("url", "min")])
            mins = pa.table({
                "key": g.column("key"), "min_url": g.column("url_min"),
            })
            # member rows whose url != their group min
            joined = t.join(mins, keys="key")
            keep = pc.not_equal(joined.column("url"), joined.column("min_url"))
            out.append(joined.filter(keep).select(["url"]))
        if not out:
            return pa.table({"url": pa.array([], pa.string())})
        return pa.concat_tables(out)

    files_ds = ray.data.from_arrow(
        pa.table({"path": pa.array(paths, pa.string())})
    )
    return files_ds.map_batches(
        drops_of, batch_format="pyarrow", batch_size=1
    )


def index_pairs(index_dir: str) -> ray.data.Dataset:
    """The raw live (key, url) pair stream of the index (test surface
    for the convergence law: index pairs == snapshot projection)."""
    state = _load_state(index_dir)
    if state is None:
        raise FileNotFoundError(f"no dedup index at {index_dir}")
    paths = [os.path.join(index_dir, f) for f in state["files"].values()]
    if not paths:
        return ray.data.from_arrow(
            pa.table({"key": pa.array([], pa.string()),
                      "url": pa.array([], pa.string())})
        )

    return ray.data.read_parquet(paths)


def fsck_index(index_dir: str) -> dict:
    """Read-only audit of a maintained index dir (exact or simhash):
    state JSON parses, every referenced bucket file exists and its
    footer row count is nonzero, and unreferenced ``b*/s*-v*.parquet``
    files are counted as orphans (crash leftovers — harmless, removed
    by the next successful publish). Returns ``{"ok": bool, ...}``;
    the CLI surfaces it via ``dedup-index --fsck``."""
    from ..state.iofs import (
        file_exists as _fex,
        list_data_files as _ldf,
    )
    from ..state.store import resolve_store as _rs_f

    states = []
    for name in (INDEX_STATE, SIMHASH_STATE):
        path = os.path.join(index_dir, name)
        try:
            states.append((name, json.loads(_rs_f(path).get_bytes(path))))
        except FileNotFoundError:
            pass
    if not states:
        return {"ok": False, "error": f"no index state at {index_dir}"}
    missing: list[str] = []
    empty: list[str] = []
    referenced: set[str] = set()
    for _name, st in states:
        for fname in st.get("files", {}).values():
            referenced.add(fname)
            path = os.path.join(index_dir, fname)
            if not _fex(path):
                missing.append(fname)
            elif pq.ParquetFile(path).metadata.num_rows == 0:
                empty.append(fname)
    import fnmatch as _fnm

    on_disk = {
        p.rsplit("/", 1)[-1]
        for p in _ldf(index_dir)
        if _fnm.fnmatch(p.rsplit("/", 1)[-1], "b*-v*.parquet")
        or _fnm.fnmatch(p.rsplit("/", 1)[-1], "s*-v*.parquet")
    }
    orphans = sorted(on_disk - referenced)
    return {
        "ok": not missing and not empty,
        "indexes": [n for n, _ in states],
        "buckets": len(referenced),
        "missing_files": missing,
        "empty_files": empty,
        "orphan_files": orphans,
    }
