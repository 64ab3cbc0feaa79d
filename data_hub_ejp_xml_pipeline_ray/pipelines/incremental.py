"""Incrementally-maintained materialized views over a CDC lake.

The consumer story for the change feed (``cdc.changes_between``): a
downstream aggregate refreshes by applying only the delta between the
view's last-seen lake version and the current one — never rescanning
the lake. The reference has no equivalent; its consumers re-read whole
BigQuery tables per run (``bq_data_service.py``). At 100 TB that rescan
is the difference between a view refresh costing O(changed rows) and
O(corpus).

A view is ``count(*)`` plus any number of ``sum(col)`` metrics per key
value, over LIVE rows only. Sums are maintained with signed retraction
arithmetic off the pre-image feed: ``insert``/``update_postimage`` rows
contribute ``+value``, ``update_preimage``/``delete`` rows ``-value``.

View state layout under ``view_dir``::

    _view.json           {"lake_version": V, "file": "stats-v{V}.parquet",
                          "key": k, "sum_cols": [...]}
    stats-v{V}.parquet   (key, n, *sum_cols)

Refresh is atomic (new parquet written first, then the state json is
swapped via os.replace) and idempotent (same version -> no-op), so a
crashed refresh never leaves a torn view.

Scale shape: both the full build and the delta path pre-aggregate per
batch inside ``map_batches`` (one polars call per block), so the final
``groupby`` only sees ``blocks x distinct-keys`` partial rows — the
lake's row volume never enters a shuffle. The view <-> delta merge is
a driver-side fold of two aggregate-sized tables.
"""
from __future__ import annotations

import json
import os
from typing import Callable, Sequence

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.aggregate import Sum

from ..dataset_util import arrow_blocks
from ..state.checkpoint import list_versions, load_manifest
from .cdc import CHANGE_OP_COL, changes_between, read_lake

VIEW_STATE = "_view.json"

#: signed contribution of each preimage-mode change_op to a live count
_OP_SIGN = {
    "insert": 1,
    "update_postimage": 1,
    "update_preimage": -1,
    "delete": -1,
}


def _load_state(view_dir: str) -> dict | None:
    from ..state.store import resolve_store

    try:
        raw = resolve_store(view_dir).get_bytes(
            os.path.join(view_dir, VIEW_STATE)
        )
    except FileNotFoundError:
        return None
    return json.loads(raw)


def _metric_type(t: pa.DataType) -> pa.DataType:
    return pa.float64() if pa.types.is_floating(t) else pa.int64()


def _out_schema(keys: Sequence[str],
                sum_cols: Sequence[str], batch: pa.Schema) -> pa.Schema:
    fields = [(k, batch.field(k).type) for k in keys]
    fields += [("n", pa.int64())]
    fields += [(c, _metric_type(batch.field(c).type)) for c in sum_cols]
    return pa.schema(fields)


def _partial_stats(keys: Sequence[str], sum_cols: Sequence[str], signed: bool):
    """Per-batch combiner: collapse a block to (key, n, *sums) partials
    — one vectorized polars call, so the downstream groupby shuffles
    only ``blocks x distinct(key)`` rows."""

    def fn(batch: pa.Table) -> pa.Table:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        df = pl.from_arrow(batch)
        if signed:
            sign = (
                pl.col(CHANGE_OP_COL)
                .replace_strict(_OP_SIGN, return_dtype=pl.Int64)
            )
        else:
            sign = pl.lit(1, dtype=pl.Int64)
        df = df.with_columns(sign.alias("_sign"))
        aggs = [pl.col("_sign").sum().alias("n")]
        aggs += [
            (pl.col(c).fill_null(0) * pl.col("_sign")).sum().alias(c)
            for c in sum_cols
        ]
        out = df.group_by(list(keys)).agg(aggs).to_arrow()
        return out.cast(_out_schema(keys, sum_cols, batch.schema))

    return fn


def _aggregate(
    ds: ray.data.Dataset, keys: Sequence[str], sum_cols: Sequence[str],
    signed: bool,
) -> pa.Table:
    """Distributed partials -> one driver-side Arrow table of
    (key, n, *sums).

    DRIVER-MEMORY BOUND (documented contract): the returned table — and
    the view file built from it — is O(distinct key values), NEVER
    O(lake rows); the lake's row volume is collapsed inside
    ``map_batches`` partials before any shuffle. ~100k keys is a few MB
    and collected VECTORIZED (Arrow block refs, no per-row Python); a
    view whose key cardinality outgrows one node's memory should be
    hash-partitioned by key into per-partition view files — the same
    contract as the lake itself (see SCALE.md)."""
    # partials are tiny (blocks x distinct keys): materialize once so
    # the schema read below doesn't re-execute the upstream scan
    partial = ds.map_batches(
        _partial_stats(keys, sum_cols, signed), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=None,
    ).materialize()
    metrics = ["n", *sum_cols]
    if partial.schema(fetch_if_missing=True) is None:
        # ZERO input rows, so no partial block ever ran and no schema
        # exists — reachable whenever a feed spans only metadata
        # commits (alter_lake / restore produce versions with no
        # changed rows). None = "empty delta, type-less": callers
        # carry the previous view state forward.
        return None
    base = partial.schema().base_schema
    arrow_schema = pa.schema([
        *[(k, base.field(k).type) for k in keys],
        *[(m, base.field(m).type) for m in metrics],
    ])
    # arrow_blocks: one execution (lazy to_arrow_refs re-runs the plan
    # for a schema fetch) + drops the zero-column blocks Ray's hash
    # aggregate emits for empty partitions
    blocks = arrow_blocks(
        partial.groupby(list(keys)).aggregate(
            *[Sum(m, alias_name=m) for m in metrics]
        )
    )
    if not blocks:
        return arrow_schema.empty_table()
    return pa.concat_tables(
        b.select(arrow_schema.names) for b in blocks
    ).cast(arrow_schema)


def refresh_live_stats(
    lake_dir: str, view_dir: str, key: str = "lang",
    sum_cols: Sequence[str] = (),
    *,
    derive: Callable[[pa.Table], pa.Table] | None = None,
    source_cols: Sequence[str] = (),
    at_version: int | None = None,
) -> dict:
    """Bring the per-``key`` live-row stats view (count + per-column
    sums) up to the lake's current (or ``at_version``'s) state.

    First call: full build from the PINNED snapshot (``read_lake`` at
    that version — not the moving head, so a concurrent commit can't
    tear the build). Later calls: apply the signed pre-image change
    feed ``changes_between(last_seen, target, preimages=True)`` — cost
    O(changed rows), not O(lake). ``derive`` is an optional per-batch
    Arrow transform (e.g. add a ``text_chars`` column) applied to both
    the full scan and the feed before aggregation; ``source_cols``
    names the lake columns it reads, so the full build's parquet scan
    is pruned to ``{key} | source_cols`` instead of every column.
    ``key`` may be one column name or a sequence (composite-key
    views)."""
    keys = [key] if isinstance(key, str) else list(key)
    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    target = manifest.version if at_version is None else int(at_version)
    state = _load_state(view_dir)
    if state is not None and state.get("sum_cols", []) != list(sum_cols):
        raise ValueError(
            f"view maintains sum_cols={state.get('sum_cols', [])}, "
            f"refresh asked for {list(sum_cols)}"
        )
    if state is not None:
        skeys = state.get("key", keys)
        skeys = [skeys] if isinstance(skeys, str) else list(skeys)
        if skeys != keys:
            raise ValueError(
                f"view is keyed by {skeys}, refresh asked for {keys}"
            )
    if state is not None and state["lake_version"] == target:
        return {"refreshed": False, "mode": "noop", "lake_version": target}
    if state is not None and state["lake_version"] > target:
        raise ValueError(
            f"view at lake version {state['lake_version']} is newer than "
            f"requested {target}"
        )

    def prepare(ds: ray.data.Dataset) -> ray.data.Dataset:
        if derive is not None:
            ds = ds.map_batches(
                derive, batch_format="pyarrow",
                zero_copy_batch=True, batch_size=None,
            )
        return ds

    # projection pruning for both paths: only key + derive inputs leave
    # storage. A derive hook with UNDECLARED source_cols gets the full
    # row — correct, unpruned.
    # sum_cols join the projection only when derive is None (then they
    # are raw lake columns the kernel reads); when derive PRODUCES
    # them they are not lake columns and must be neither projected nor
    # schema-checked below
    cols = None
    if derive is None:
        cols = list(dict.fromkeys([*keys, *sum_cols, *source_cols]))
    elif source_cols:
        cols = list(dict.fromkeys([*keys, *source_cols]))
    if cols is not None:
        # fail loud, not wrong: a source-lake alter_lake that renamed or
        # dropped a column this view reads would otherwise yield a feed
        # silently missing it (changes_between prunes by name)
        m_now = load_manifest(lake_dir, version=target)
        if m_now is not None and m_now.schema is not None:
            missing = [c for c in cols if c not in m_now.schema.names]
            if missing:
                raise ValueError(
                    f"view columns {missing} are not in the source lake "
                    f"schema {m_now.schema.names} (renamed or dropped by "
                    "alter_lake?) — rebuild the view under the new names"
                )
    prev_file = state["file"] if state is not None else None
    if state is not None and state["lake_version"] not in set(
        list_versions(lake_dir)
    ):
        # the view lagged past retention (its base snapshot was
        # vacuumed): the delta no longer exists — rebuild from scratch
        # instead of crashing, exactly what a too-stale Delta CDF
        # consumer must do
        state = None
    if state is None:
        # (read_lake filters tombstones itself)
        ds = read_lake(lake_dir, version=target, columns=cols)
        stats = _aggregate(prepare(ds), keys, sum_cols, signed=False)
        if stats is None:
            # lake committed but zero live rows: the view is an empty
            # table; key/metric types come from the lake schema where
            # the column exists (derive-produced metrics default int64)
            m_now = load_manifest(lake_dir, version=target)
            lake_schema = m_now.schema if m_now is not None else None

            def _lake_type(c, default):
                if lake_schema is not None and c in lake_schema.names:
                    return lake_schema.field(c).type
                return default

            stats = pa.schema([
                *[(k, _lake_type(k, pa.string())) for k in keys],
                ("n", pa.int64()),
                *[(c, _metric_type(_lake_type(c, pa.int64())))
                  for c in sum_cols],
            ]).empty_table()
        mode = "full"
    else:
        feed = changes_between(
            lake_dir, state["lake_version"], target,
            preimages=True, columns=cols,
        )
        delta = _aggregate(prepare(feed), keys, sum_cols, signed=True)
        old_tab = pl.read_parquet(os.path.join(view_dir, state["file"]))
        if delta is None:
            # feed spans only metadata commits (alter_lake / restore):
            # no changed rows, carry the view forward to the new version
            stats = old_tab.to_arrow()
        else:
            # view (+) delta: both are aggregate-sized (distinct key
            # values, not lake rows), so the merge is a driver-side
            # polars fold
            merged = (
                pl.concat([old_tab, pl.from_arrow(delta)])
                .group_by(keys)
                .agg([pl.col(c).sum() for c in ("n", *sum_cols)])
                .filter(pl.col("n") > 0)
            )
            stats = merged.to_arrow().cast(old_tab.to_arrow().schema)
        mode = "incremental"

    from ..state.iofs import write_table_atomic

    fname = f"stats-v{target:06d}.parquet"
    write_table_atomic(
        stats.sort_by([(k, "ascending") for k in keys]),
        os.path.join(view_dir, fname),
    )
    from ..state.store import resolve_store

    # atomic publish via the storage seam (fsync'd rename locally,
    # plain conditional PUT on an object store — see state/store.py)
    resolve_store(view_dir).put_atomic(
        os.path.join(view_dir, VIEW_STATE),
        json.dumps({
            "lake_version": target, "file": fname, "key": keys,
            "sum_cols": list(sum_cols),
        }).encode("utf-8"),
    )
    if prev_file is not None and prev_file != fname:
        from ..state.iofs import delete_file

        delete_file(os.path.join(view_dir, prev_file))
    return {
        "refreshed": True, "mode": mode, "lake_version": target,
        "keys": stats.num_rows,
    }


def refresh_live_counts(
    lake_dir: str, view_dir: str, key: str = "lang",
    *, at_version: int | None = None,
) -> dict:
    """Count-only live view — ``refresh_live_stats`` without sums."""
    return refresh_live_stats(
        lake_dir, view_dir, key, (), at_version=at_version
    )


EXTREMA_STATE = "_extrema.json"


def _aggregate_extrema(
    ds: ray.data.Dataset, key: str, max_cols: Sequence[str],
    min_cols: Sequence[str] = (),
) -> pa.Table:
    """Distributed per-key extrema: per-batch polars partials (one call
    per block), final fold over the aggregate-sized partials — the same
    driver-memory contract as :func:`_aggregate` (O(distinct keys)).
    Min columns are emitted as ``min_<col>`` (a column may appear in
    both lists)."""
    aggs = [pl.col(c).max().alias(c) for c in max_cols]
    aggs += [pl.col(c).min().alias(f"min_{c}") for c in min_cols]

    def partial(batch: pa.Table) -> pa.Table:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        # NULL keys are excluded on BOTH the build and the affected-key
        # paths (a null never names a recomputable key in the feed)
        df = pl.from_arrow(batch).filter(pl.col(key).is_not_null())
        return df.group_by(key).agg(aggs).to_arrow()

    def refold(df: pl.DataFrame) -> pl.DataFrame:
        # fold partials: max of maxes, min of mins
        return df.group_by(key).agg(
            [pl.col(c).max().alias(c) for c in max_cols]
            + [pl.col(f"min_{c}").min().alias(f"min_{c}") for c in min_cols]
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).materialize()
    blocks = [b for b in ray.get(parts.to_arrow_refs()) if b.num_rows]
    schema = parts.schema().base_schema
    if not blocks:
        return schema.empty_table()
    out = refold(pl.from_arrow(pa.concat_tables(
        b.select(schema.names) for b in blocks
    )))
    return out.select(schema.names).to_arrow().cast(schema)


def refresh_live_extrema(
    lake_dir: str, view_dir: str, key: str = "lang",
    max_cols: Sequence[str] = ("warc_ts",),
    min_cols: Sequence[str] = (),
    *,
    at_version: int | None = None,
) -> dict:
    """Per-``key`` MAX/MIN view — the NON-INVERTIBLE aggregate case.

    ``count``/``sum`` views refresh by signed retraction arithmetic
    (:func:`refresh_live_stats`); a ``max`` cannot — deleting the row
    that held the maximum gives the feed no way to produce the runner-
    up. The standard incremental-view answer (Materialize/DBSP call
    these non-invertible reductions) is AFFECTED-KEY RECOMPUTE:

    1. the pre-image change feed since the view's last-seen version
       names every key value whose row set changed (delete pre-images
       carry the old live row, so a vanished maximum still names its
       key);
    2. ONLY those keys are recomputed from the current lake — a
       column-pruned scan with ``key IN (affected)`` pushed into the
       parquet read — and spliced into the view.

    Cost: O(lake rows in affected keys) per refresh, vs O(lake) for a
    rebuild; worst case (every key touched) degrades gracefully to the
    full build. The view itself is O(distinct keys) driver-side, the
    same documented bound as :func:`refresh_live_stats`. A vacuumed
    feed gap triggers a full rebuild, same as the stats view."""
    return _refresh_affected_key(
        lake_dir, view_dir, key,
        cols=list(dict.fromkeys([key, *max_cols, *min_cols])),
        agg_fn=lambda ds: _aggregate_extrema(ds, key, max_cols, min_cols),
        state_file=EXTREMA_STATE,
        fname_prefix="extrema",
        signature={
            "key": key, "max_cols": list(max_cols),
            "min_cols": list(min_cols),
        },
        at_version=at_version,
    )


def _refresh_affected_key(
    lake_dir: str, view_dir: str, key: str, *,
    cols: "list[str]",
    agg_fn: "Callable[[ray.data.Dataset], pa.Table]",
    state_file: str,
    fname_prefix: str,
    signature: dict,
    at_version: int | None,
) -> dict:
    """Shared AFFECTED-KEY RECOMPUTE skeleton for non-invertible views
    (extrema, count-distinct): load + validate view state, name the
    affected keys from the pre-image feed, recompute ONLY those keys
    from a column-pruned ``key IN (affected)`` lake read, splice, and
    swap atomically. ``signature`` is the view's definition — a refresh
    with a different definition is refused (never silently rebuilt)."""
    manifest = load_manifest(lake_dir)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    target = manifest.version if at_version is None else int(at_version)
    from ..state.store import resolve_store as _rs

    spath = os.path.join(view_dir, state_file)
    try:
        state = json.loads(_rs(spath).get_bytes(spath))
    except FileNotFoundError:
        state = None
    if state is not None and any(
        state.get(k) != v for k, v in signature.items()
    ):
        raise ValueError(
            f"view at {view_dir} maintains "
            f"{ {k: state.get(k) for k in signature} }, refresh asked "
            f"for {signature}"
        )
    if state is not None and state["lake_version"] == target:
        return {"refreshed": False, "mode": "noop", "lake_version": target}
    if state is not None and state["lake_version"] > target:
        raise ValueError(
            f"view at lake version {state['lake_version']} is newer than "
            f"requested {target}"
        )
    if state is not None and state["lake_version"] not in set(
        list_versions(lake_dir)
    ):
        state = None  # lagged past retention: rebuild

    prev_file = state["file"] if state is not None else None
    if state is None:
        view = agg_fn(read_lake(lake_dir, version=target, columns=cols))
        mode = "full"
        recomputed = view.num_rows
    else:
        feed = changes_between(
            lake_dir, state["lake_version"], target,
            preimages=True, columns=[key],
        )
        # affected key values: aggregate-sized by the view bound
        affected_ds = feed.map_batches(
            lambda t: pa.table({key: pc.unique(pc.drop_null(t.column(key)))}),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        )
        affected_blocks = arrow_blocks(affected_ds)
        old_tab = pl.read_parquet(os.path.join(view_dir, state["file"]))
        if not affected_blocks:
            view = old_tab.to_arrow()
            mode = "incremental"
            recomputed = 0
        else:
            affected = pc.unique(
                pa.concat_tables(affected_blocks).column(key).combine_chunks()
            )
            fresh = agg_fn(read_lake(
                lake_dir, version=target, columns=cols,
                filter=pc.field(key).isin(affected),
            ))
            kept = old_tab.filter(
                ~pl.col(key).is_in(affected.to_pylist())
            )
            view = pl.concat(
                [kept, pl.from_arrow(fresh).select(kept.columns)]
            ).to_arrow().cast(old_tab.to_arrow().schema)
            mode = "incremental"
            recomputed = len(affected)

    from ..state.iofs import write_table_atomic

    fname = f"{fname_prefix}-v{target:06d}.parquet"
    write_table_atomic(
        view.sort_by([(key, "ascending")]), os.path.join(view_dir, fname)
    )
    from ..state.store import resolve_store

    resolve_store(spath).put_atomic(
        spath,
        json.dumps({
            "lake_version": target, "file": fname, **signature,
        }).encode("utf-8"),
    )
    if prev_file is not None and prev_file != fname:
        from ..state.iofs import delete_file

        delete_file(os.path.join(view_dir, prev_file))
    return {
        "refreshed": True, "mode": mode, "lake_version": target,
        "keys": view.num_rows, "keys_recomputed": recomputed,
    }


DISTINCT_STATE = "_distinct.json"


def _aggregate_distinct(
    ds: ray.data.Dataset, key: str, distinct_col: str
) -> pa.Table:
    """Per-key exact count-distinct: per-batch DISTINCT-pair combiner
    (one polars call per block), driver fold over the distinct-pair
    set. Driver residency is O(keys x per-key distinct values) — the
    documented view bound; a column whose per-key value domain is
    unbounded belongs on the hash-bucketed ``grouped_count_distinct``
    query machinery, not in a driver-sized view."""

    def partial(batch: pa.Table) -> pa.Table:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        df = pl.from_arrow(batch).filter(pl.col(key).is_not_null())
        return df.select([key, distinct_col]).unique().to_arrow()

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).materialize()
    blocks = [b for b in ray.get(parts.to_arrow_refs()) if b.num_rows]
    out_schema = pa.schema([
        (key, parts.schema().base_schema.field(key).type),
        (f"n_distinct_{distinct_col}", pa.int64()),
    ])
    if not blocks:
        return out_schema.empty_table()
    out = (
        pl.from_arrow(pa.concat_tables(
            b.select([key, distinct_col]) for b in blocks
        ))
        .unique()
        .group_by(key)
        .agg(
            pl.col(distinct_col).n_unique().cast(pl.Int64)
            .alias(f"n_distinct_{distinct_col}")
        )
    )
    return out.to_arrow().cast(out_schema)


def refresh_live_distinct(
    lake_dir: str, view_dir: str, key: str = "lang",
    distinct_col: str = "_src_segment",
    *,
    at_version: int | None = None,
) -> dict:
    """Per-``key`` COUNT(DISTINCT ``distinct_col``) view — the second
    NON-INVERTIBLE aggregate case: deleting one contributor row cannot
    tell the feed whether the value still has other contributors, so
    (like MAX, unlike count/sum) retraction arithmetic can't maintain
    it. Same affected-key recompute as :func:`refresh_live_extrema`:
    the pre-image feed names every key whose row set changed; only
    those keys re-aggregate from a pruned ``key IN (affected)`` lake
    read. Cost O(lake rows in affected keys); vacuumed gap -> rebuild."""
    return _refresh_affected_key(
        lake_dir, view_dir, key,
        cols=list(dict.fromkeys([key, distinct_col])),
        agg_fn=lambda ds: _aggregate_distinct(ds, key, distinct_col),
        state_file=DISTINCT_STATE,
        fname_prefix="distinct",
        signature={"key": key, "distinct_col": distinct_col},
        at_version=at_version,
    )


def read_distinct_view(view_dir: str) -> pa.Table:
    """The committed count-distinct view as an Arrow table."""
    from ..state.store import resolve_store as _rs3

    spath = os.path.join(view_dir, DISTINCT_STATE)
    try:
        state = json.loads(_rs3(spath).get_bytes(spath))
    except FileNotFoundError:
        raise FileNotFoundError(f"no committed distinct view at {view_dir}")

    return pq.read_table(os.path.join(view_dir, state["file"]))


def read_extrema_view(view_dir: str) -> pa.Table:
    """The committed extrema view as an Arrow table, sorted by key."""
    from ..state.store import resolve_store as _rs2

    spath = os.path.join(view_dir, EXTREMA_STATE)
    try:
        state = json.loads(_rs2(spath).get_bytes(spath))
    except FileNotFoundError:
        raise FileNotFoundError(f"no committed extrema view at {view_dir}")

    return pq.read_table(os.path.join(view_dir, state["file"]))


def read_view(view_dir: str) -> pa.Table:
    """The committed view as an Arrow table, sorted by key."""
    state = _load_state(view_dir)
    if state is None:
        raise FileNotFoundError(f"no committed view at {view_dir}")
    return pq.read_table(os.path.join(view_dir, state["file"]))
