"""Predicate DML on the committed lake: DELETE ... WHERE and
UPDATE ... SET ... WHERE (the Delta/Iceberg row-level DML shape).

Both operations apply to the CURRENT observable state and commit as
ONE ordinary new lake version, expressed as LWW events:

- DELETE converts each matched live row (or, on group-valued lakes,
  each url whose set lost every row) into a persisted TOMBSTONE at the
  url's current ``warc_ts`` with ``seq`` bumped by +1 — exactly the row
  a WAL delete event would have produced, so the change feed, SCD2
  history, incremental views, replicas and consumer cursors all see an
  ordinary delete with zero special-casing. Tombstones carry NULL
  payload (deleted data does not linger in the marker row). Unlike
  :func:`~.maintenance.purge_urls`, history is untouched: time travel
  to a pre-DML version still shows the old rows.
- UPDATE re-emits each matched row with the SET columns replaced, at
  the same bumped ``(warc_ts, seq + 1)`` version, so the feed sees an
  ordinary update.

Scale shape: candidate partitions come from the scan planner
(``state.zones.plan_parts`` — url hash routing + manifest zone maps),
so a predicate that zones prove absent from most of a 100-TB lake
touches only the possible partitions. Each candidate partition is read
in its effective state (base + MOR deltas, kind-appropriate LWW) on the
shared partition tasks (``stages.merge.map_partitions``, at most one
per CPU) and gains ONE merge-on-read delta file holding
only the CHANGED rows — write amplification is O(matched rows), the
base is never rewritten, and the result reads identically on CoW and
MOR lakes because ``delta_files`` are first-class snapshot references
for every reader. ``compact_deltas`` folds the DML deltas back on the
usual maintenance schedule.

Replay convergence (the engine's crash/resume law, applied to DML): a
rewound WAL replay re-delivers the pre-DML events, which LOSE to the
bumped ``seq + 1`` version; genuinely newer WAL events (greater
``warc_ts``, or the same ``warc_ts`` with a higher source ``seq``) win
over it — the DML affects exactly the states it saw. The one
documented hazard: a future source event for the same url at the
IDENTICAL ``warc_ts`` could reuse ``seq + 1`` and tie (source seqs are
globally increasing event ids in practice, so this is vanishingly
unlikely; purge-grade guarantees need :func:`purge_urls`' registry).

Group-valued (entity) lakes get per-ROW semantics with SET-ATOMIC
re-emission: every url with at least one matched row re-emits its
whole surviving/updated row-set at the bumped version (empty set ->
tombstone), preserving the invariant that a url's state is the row-set
of one version.

Reference analog: the warehouse-side row mutations the reference
leaves to BigQuery DML on the loaded tables
(``ejp_xml_pipeline/data_store/bq_data_service.py``).
"""
from __future__ import annotations

import hashlib
import json as _json
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import conform_table
from ..stages.merge import (
    DELETED_COL,
    map_partitions,
    read_effective_partition,
    write_partition,
    written_partition,
)
from ..state.checkpoint import (
    commit_manifest,
    gc_unreferenced,
    load_manifest,
    verify_lock,
    writer_lock,
)

#: columns DML may never touch: the LWW identity/version triple and the
#: tombstone flag are the merge kernel's own state.
_SYSTEM_COLS = frozenset({"url", "warc_ts", "seq", DELETED_COL})


def _match_mask(live: pa.Table, expr) -> np.ndarray:
    """Boolean match mask of the compiled constraint expression over a
    table (SQL WHERE semantics: NULL predicate = no match). Expressions
    only *filter* tables, so recover the mask via a row-index column —
    one vectorized pass, no per-row Python."""
    n = live.num_rows
    ridx = pa.array(np.arange(n, dtype=np.int64))
    hit = (
        live.append_column("_ridx", ridx)
        .filter(expr)
        .column("_ridx")
        .to_numpy(zero_copy_only=False)
    )
    mask = np.zeros(n, dtype=bool)
    mask[hit] = True
    return mask


def _changed_rows(
    live: pa.Table,
    mask: np.ndarray,
    schema: pa.Schema,
    *,
    set_values: dict | None,
) -> tuple[pa.Table, int]:
    """The delta rows one partition's DML commit appends: for every url
    with >=1 matched row, its full surviving/updated row-set at
    ``(warc_ts, seq + 1)`` — or a NULL-payload tombstone when nothing
    survives. Row-valued lakes are the single-row-set special case of
    the same kernel. Returns (delta_table, matched_row_count)."""
    matched = int(mask.sum())
    if matched == 0:
        return schema.empty_table(), 0
    urls = live.column("url")
    changed_urls = pc.unique(urls.filter(pa.array(mask)))
    sel = pc.is_in(urls, value_set=changed_urls)
    sel_np = sel.to_numpy(zero_copy_only=False)
    affected = live.filter(sel)
    aff_mask = mask[sel_np]

    bump = pc.add(affected.column("seq"), pa.scalar(1, pa.int64()))
    affected = affected.set_column(
        affected.column_names.index("seq"), "seq", bump.cast(pa.int64())
    )
    if set_values is None:
        # DELETE: survivors are the NON-matched rows of each affected set
        survivors = affected.filter(pa.array(~aff_mask))
    else:
        # UPDATE: matched rows get the SET columns replaced
        survivors = affected
        am = pa.array(aff_mask)
        for col, value in set_values.items():
            t = survivors.schema.field(col).type
            scalar = pa.scalar(value, t)
            new = pc.if_else(am, scalar, survivors.column(col))
            survivors = survivors.set_column(
                survivors.column_names.index(col), col, new
            )
    # urls whose whole set vanished -> tombstone rows
    gone = pc.filter(
        changed_urls,
        pc.invert(pc.is_in(changed_urls, value_set=pc.unique(
            survivors.column("url")
        ))),
    )
    pieces = [conform_table(survivors, schema)]
    if len(gone) > 0:
        # version of each vanished url = its (single) set version + 1;
        # recover it from the affected rows (max per url is exact: the
        # effective state holds ONE version per url by LWW)
        gsel = pc.is_in(affected.column("url"), value_set=gone)
        gtab = affected.filter(gsel).group_by("url").aggregate(
            [("warc_ts", "max"), ("seq", "max")]
        )
        tomb = pa.table({
            "url": gtab.column("url"),
            "warc_ts": gtab.column("warc_ts_max"),
            "seq": gtab.column("seq_max"),
            DELETED_COL: pa.array([True] * gtab.num_rows, pa.bool_()),
        })
        pieces.append(conform_table(tomb, schema))
    delta = pa.concat_tables(pieces)
    return conform_table(delta, schema), matched


def _dml_partition(
    lake_dir: str, token: str, files: dict[int, list[str]], schema: pa.Schema,
    kind: str, renames: list, expr, set_values: dict | None, part: int,
) -> dict | None:
    """Read one candidate partition's effective state, apply the
    predicate, append ONE delta file of changed rows (None when nothing
    matched). Idempotent: the output path is a pure function of (op,
    predicate, SET, base version, partition), and a file a crashed
    attempt already wrote is reused."""
    done = written_partition(lake_dir, part, token, delta=True)
    if done is not None:
        return {**done, "matched": done["rows"]}
    eff = read_effective_partition(
        lake_dir, files[part], schema, kind=kind, renames=renames,
    )
    if DELETED_COL in eff.column_names:
        eff = eff.filter(pc.fill_null(pc.invert(eff.column(DELETED_COL)), True))
    if eff.num_rows == 0:
        return None
    delta, matched = _changed_rows(
        eff, _match_mask(eff, expr), schema, set_values=set_values
    )
    if matched == 0:
        return None
    return {
        **write_partition(lake_dir, part, token, delta, delta=True),
        "matched": matched,
    }


def _dml_commit(
    lake_dir: str,
    constraints: list,
    *,
    op_name: str,
    set_values: dict | None = None,
) -> dict:
    from ..state.zones import constraints_to_expression, plan_parts

    constraints = [list(c) for c in (constraints or [])]
    if not constraints:
        raise ValueError(
            f"{op_name} requires a non-empty predicate — an unfiltered "
            "table rewrite should be an explicit maintenance decision"
        )
    with writer_lock(lake_dir) as lock_token:
        manifest = load_manifest(lake_dir)
        if manifest is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        schema = manifest.schema
        if set_values:
            for col in set_values:
                if col in _SYSTEM_COLS:
                    raise ValueError(
                        f"cannot SET system column {col!r} "
                        f"(LWW identity/version state)"
                    )
                if col not in schema.names:
                    raise ValueError(f"unknown column {col!r} in SET")
        for spec in constraints:
            if spec[0] not in schema.names:
                raise ValueError(f"unknown column {spec[0]!r} in predicate")
        from ..state.bloomindex import load_bloom_index

        kept, plan = plan_parts(
            manifest, constraints, load_bloom_index(lake_dir)
        )
        expr = constraints_to_expression(constraints, schema)
        token = "dml-" + hashlib.sha1(
            _json.dumps(
                [op_name, constraints, sorted((set_values or {}).items()),
                 manifest.version],
                default=str,
            ).encode()
        ).hexdigest()[:12]
        results = [r for r in map_partitions(
            partial(
                _dml_partition, lake_dir, token,
                {p: manifest.part_files(p) for p in kept}, schema,
                manifest.kind, manifest.renames, expr, set_values,
            ),
            kept,
        ) if r is not None]
        rows_matched = sum(r["matched"] for r in results)
        if not results:
            verify_lock(lake_dir, lock_token)
            return {
                "op": op_name, "rows_matched": 0, "partitions_changed": 0,
                "partitions_scanned": len(kept),
                "partitions_pruned": plan["parts_total"] - plan["parts_read"],
                "version": manifest.version, "committed": False,
            }
        counters = dict(manifest.counters)
        counters["commits"] = counters.get("commits", 0) + 1
        new_manifest = manifest.successor(  # DML never moves the tailer
            {
                "op": op_name,
                "token": token,
                "predicate": constraints,
                **({"set": dict(set_values)} if set_values else {}),
                "rows_matched": rows_matched,
                "partitions_changed": len(results),
                "partitions_scanned": len(kept),
                "partitions_pruned": (
                    plan["parts_total"] - plan["parts_read"]
                ),
            },
            counters=counters,
        )
        new_manifest.fold_partition_stats(results, delta=True)
        commit_manifest(
            lake_dir, new_manifest, expected_version=manifest.version
        )
        verify_lock(lake_dir, lock_token)
        gc_unreferenced(lake_dir, new_manifest, previous=manifest)
        return {
            "op": op_name, "rows_matched": rows_matched,
            "partitions_changed": len(results),
            "partitions_scanned": len(kept),
            "partitions_pruned": plan["parts_total"] - plan["parts_read"],
            "version": new_manifest.version, "committed": True,
        }


def delete_where(lake_dir: str, constraints: list) -> dict:
    """``DELETE FROM lake WHERE <constraints>`` — see module docstring.
    ``constraints`` is the ``[col, op, value?]`` triple grammar used by
    ``read_lake(constraints=)`` and the CLI ``--constraint`` flag,
    ANDed. Returns the commit summary (rows_matched, partition and
    pruning counts, new version)."""
    return _dml_commit(lake_dir, constraints, op_name="delete_where")


def update_where(
    lake_dir: str, constraints: list, set_values: dict
) -> dict:
    """``UPDATE lake SET <set_values> WHERE <constraints>`` —
    ``set_values`` maps payload column -> new constant (cast to the
    lake schema's type; ``None`` sets NULL). System columns
    (url/warc_ts/seq/tombstone flag) are refused. See module
    docstring for versioning and feed semantics."""
    if not set_values:
        raise ValueError("update_where requires a non-empty SET")
    return _dml_commit(
        lake_dir, constraints, op_name="update_where",
        set_values=dict(set_values),
    )
