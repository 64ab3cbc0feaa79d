"""Metadata-only schema evolution: ALTER TABLE for the lake.

``alter_lake`` commits a new lake version whose SCHEMA changed — column
adds, renames, drops — without touching a single data file (the
Iceberg/Delta "schema evolution is a metadata operation" property; at
100 TB a rename that rewrote the table would be a full-lake I/O storm).
The commit is an ordinary manifest version: time travel reads every
older version under ITS OWN schema, the change feed emits ZERO rows for
the alter itself (no data changed), and retention/GC/fsck treat it like
any other snapshot.

How each operation stays correct over immutable files written under
older schemas (all mapping is BY NAME — this engine has no Iceberg
field ids — so ``alter_lake`` refuses any operation that would make a
historical name ambiguous):

* **add**: the new column simply joins the manifest schema; every read
  already null-fills schema columns a file predates
  (:func:`..schemas.conform_table`), and zone maps treat an absent
  column as all-NULL — which it is.
* **rename**: appended to the manifest's ``renames`` log. Every
  file-sourced read applies :func:`..schemas.apply_renames` before
  conforming (old files keep serving their data under the new name),
  pruned reads request the historical aliases too
  (:func:`..schemas.physical_read_columns`), and ingest maps wire
  batches still carrying the old name onto the live column
  (:func:`..schemas.evolve_wire_schema` + the merger's rename-aware
  gather). Zone-map keys and the bloom-index sidecar are remapped in
  the SAME commit — zone pruning treats an absent column as provably
  empty, so un-remapped stats would wrongly prune files holding data
  under the old name (correctness, not optimization). Any later
  rewrite (compaction, clustering, split, CoW merge) materializes the
  rename physically; the log entry then just stops matching.
* **drop**: removed from the schema (reads stop projecting it — the
  bytes stay in old files until those files are rewritten) and recorded
  in the manifest's ``dropped`` registry so the wire-schema union can
  never resurrect it. A dropped name is retired forever: re-adding it
  is refused, because old files still hold the previous generation's
  data under that name and a name-based read could not tell the two
  columns apart.

Reference analog: the reference evolves its warehouse schema as a
side effect of loads (``bq_data_service.py:142-188`` recursive field
union); explicit DDL with renames/drops is the lakehouse-native
extension of that surface.
"""
from __future__ import annotations

import json
from typing import Any

import pyarrow as pa

from ..schemas import alias_names
from ..state.checkpoint import (
    commit_manifest,
    gc_unreferenced,
    load_manifest,
    verify_lock,
    writer_lock,
)

#: Engine-owned columns DDL must never touch: the LWW/merge identity
#: (url, warc_ts, seq), the extraction output the byte-identity
#: invariant is defined over (text), and the provenance/tombstone
#: machinery columns.
RESERVED_COLUMNS = frozenset(
    ["url", "warc_ts", "seq", "text", "_src_segment", "_deleted"]
)


def _parse_type(t: Any) -> pa.DataType:
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.type_for_alias(str(t))
    except ValueError:
        if str(t) in ("timestamp[us]", "timestamp"):
            return pa.timestamp("us")
        raise ValueError(f"unknown column type {t!r}")


def alter_lake(
    lake_dir: str,
    *,
    add: dict[str, Any] | None = None,
    rename: dict[str, str] | None = None,
    drop: list[str] | None = None,
    store=None,
) -> dict:
    """Commit a metadata-only schema change. Operations apply in the
    order rename -> drop -> add (one commit); each dict/list preserves
    its own insertion order. ``add`` maps name -> arrow type (or a
    string alias like ``"float64"``); new columns are nullable and
    read as NULL for every pre-existing row. Returns a summary dict.

    Raises ``ValueError`` for anything name-based mapping cannot keep
    unambiguous: touching a reserved column, renaming onto a live /
    retired name, re-adding a dropped column, dropping or renaming a
    column that does not exist.
    """
    add = dict(add or {})
    rename = dict(rename or {})
    drop = list(drop or [])
    if not (add or rename or drop):
        raise ValueError("alter_lake: nothing to do")

    with writer_lock(lake_dir) as lock_token:
        manifest = load_manifest(lake_dir)
        if manifest is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        if manifest.schema is None:
            raise ValueError(f"lake at {lake_dir} has no committed schema")
        fields = list(manifest.schema)
        names = [f.name for f in fields]
        #: every name that ever meant something else: pre-rename
        #: aliases + dropped columns. None of them may be reused.
        retired = {old for old, _ in manifest.renames} | set(manifest.dropped)

        new_renames = [list(p) for p in manifest.renames]
        for old, new in rename.items():
            if old in RESERVED_COLUMNS or new in RESERVED_COLUMNS:
                raise ValueError(f"cannot rename reserved column {old!r} -> {new!r}")
            if old not in names:
                raise ValueError(f"cannot rename {old!r}: no such column")
            if new in names:
                raise ValueError(f"cannot rename {old!r} -> {new!r}: column exists")
            if new in retired:
                raise ValueError(
                    f"cannot rename {old!r} -> {new!r}: {new!r} is a retired "
                    "name (historical files may still store data under it)"
                )
            i = names.index(old)
            fields[i] = pa.field(new, fields[i].type)
            names[i] = new
            new_renames.append([old, new])
            retired.add(old)

        new_dropped = list(manifest.dropped)
        for name in drop:
            if name in RESERVED_COLUMNS:
                raise ValueError(f"cannot drop reserved column {name!r}")
            if name not in names:
                raise ValueError(f"cannot drop {name!r}: no such column")
            i = names.index(name)
            del fields[i], names[i]
            new_dropped.append(name)
            retired.add(name)

        for name, typ in add.items():
            if name in RESERVED_COLUMNS:
                raise ValueError(f"cannot add reserved column {name!r}")
            if name in names:
                raise ValueError(f"cannot add {name!r}: column exists")
            if name in retired:
                raise ValueError(
                    f"cannot add {name!r}: the name is retired (it was "
                    "dropped or renamed away, and historical files may "
                    "still store the old column's data under it)"
                )
            f = pa.field(name, _parse_type(typ))
            # keep engine trailing columns last (schemas._TRAILING_COLUMNS
            # contract: evolved and replayed lakes agree on column order)
            tail_at = next(
                (i for i, g in enumerate(fields)
                 if g.name in ("_src_segment", "_deleted")),
                len(fields),
            )
            fields.insert(tail_at, f)
            names.insert(tail_at, name)

        # zone-map key remap, SAME commit (correctness: zone pruning
        # treats an absent column as provably empty — old files' stats
        # must answer under the new name) + dropped keys removed
        this_rename = dict(rename)
        new_zones: dict = {}
        for rel, doc in (manifest.zones or {}).items():
            cols = {
                this_rename.get(c, c): z
                for c, z in doc.get("cols", {}).items()
                if this_rename.get(c, c) not in set(drop)
            }
            new_zones[rel] = {**doc, "cols": cols}

        new_manifest = manifest.successor(
            {
                "op": "alter",
                **({"add": {k: str(_parse_type(v)) for k, v in add.items()}}
                   if add else {}),
                **({"rename": dict(rename)} if rename else {}),
                **({"drop": list(drop)} if drop else {}),
            },
            schema=pa.schema(fields),
            zones=new_zones,
            renames=new_renames,
            dropped=new_dropped,
        )
        commit_manifest(
            lake_dir, new_manifest, expected_version=manifest.version,
            store=store,
        )
        verify_lock(lake_dir, lock_token)
        _remap_bloom_index(lake_dir, this_rename, set(drop), store=store)
        gc_unreferenced(lake_dir, new_manifest, previous=manifest)
    return {
        "version": new_manifest.version,
        "schema": [f"{f.name}:{f.type}" for f in new_manifest.schema],
        "renames": new_renames,
        "dropped": new_dropped,
    }


def _remap_bloom_index(
    lake_dir: str, rename: dict[str, str], dropped: set[str], *, store=None
) -> None:
    """Carry the bloom-index sidecar across a rename/drop: entry keys
    follow the rename (same values — the bloom hashes the column's
    bytes, which did not move) and dropped columns fall out. Bloom
    pruning is fail-open (a missing entry never skips a file), so this
    is an effectiveness carry, not a correctness requirement — unlike
    the zone remap in :func:`alter_lake`."""
    from ..state.bloomindex import _index_path, load_bloom_index
    from ..state.store import LocalFsStore

    store = store or LocalFsStore()
    index = load_bloom_index(lake_dir, store=store)
    if not index:
        return
    index["columns"] = sorted(
        {rename.get(c, c) for c in index.get("columns", [])} - dropped
    )
    index["files"] = {
        rel: {
            rename.get(c, c): ent for c, ent in (doc or {}).items()
            if rename.get(c, c) not in dropped
        }
        for rel, doc in index.get("files", {}).items()
    }
    store.put_atomic(
        _index_path(lake_dir), json.dumps(index).encode("utf-8")
    )


def schema_at(lake_dir: str, *, version: int | None = None) -> list[dict]:
    """Human/CLI view of a (possibly historical) lake schema: name,
    type, and for renamed columns the historical aliases a reader
    would also accept from old files."""
    manifest = load_manifest(lake_dir, version=version)
    if manifest is None:
        raise FileNotFoundError(f"no committed lake at {lake_dir}")
    out = []
    for f in manifest.schema or []:
        aliases = alias_names(f.name, manifest.renames)[:-1]
        out.append({
            "name": f.name,
            "type": str(f.type),
            **({"aliases": aliases} if aliases else {}),
        })
    return out
