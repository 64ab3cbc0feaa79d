"""Key-partitioned last-writer-wins merge — the engine's one shuffle.

The reference's merge semantics are implicit: BigQuery ``WRITE_APPEND``
plus a ``modified_timestamp`` on every entity, with latest-wins left to
downstream consumers (``bq_data_service.py:23,35``; timestamps stamped
at ``ejp_manuscript_xml.py:150-155,199``). This module makes them
explicit and distributed:

1. **Local pre-reduce (combiner)** — inside ``map_batches``, each block
   is reduced to at most one row per url (max ``(warc_ts, seq)``). LWW
   is associative, so this is a correct combiner; it is also the skew
   defense: a hot url contributes at most one row per block to the
   shuffle, which bounds any key's shuffle fan-in by the block count
   (the two-phase local-then-global merge of SURVEY §7.5 — explicit
   salting is subsumed because the "salt" is the block id).
2. **Stable hash partitioning** — ``part = crc32(url) % P``. crc32 is
   specified by the engine forever (not a library hash that may change
   between versions), because partition -> base-file routing must be
   stable across runs for resume correctness.
3. **Per-partition global merge** — a reduce task per touched
   partition reads ONLY its spilled delta row groups plus its own base
   partition file (the base lake is never shuffled; exchange volume is
   O(deltas)), conforms both to the evolved schema, applies LWW, and
   writes an immutable content-addressed partition file. Tombstones are
   PERSISTED (``_deleted``) so out-of-order late events in later
   micro-batches cannot resurrect deleted keys; read paths filter them
   and ``compact_lake`` drops them under a retention decision.
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as ds
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray
from ray.exceptions import RaySystemError

from ..schemas import conform_table
from ..state.checkpoint import partition_delta_relpath, partition_file_relpath

#: Marker op for rows originating from the base lake partition.
BASE_OP = "base"
DELETE_OP = "delete"

#: Sentinel partition id for dead-letter manifest rows emitted by the
#: fused map stage: ``path`` points at the quarantined-errors parquet,
#: ``rows`` counts the bad rows. The driver folds these into counters
#: instead of the delta map.
ERROR_PART = -1

#: Schema of the quarantine (dead-letter) table: the offending wire row
#: with provenance + a machine-readable error tag (the reference wraps
#: parse failures in ParseDocumentError with the source name attached,
#: ejp_xml_pipeline/transform_zip_xml/ejp_xml.py:20-42).
ERRORS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us", tz="UTC")),
        pa.field("seq", pa.int64()),
        pa.field("error", pa.string()),
        pa.field("_src_segment", pa.string()),
        pa.field("html", pa.binary()),
    ]
)


def quarantine_bad_rows(
    batch: pa.Table,
) -> tuple[pa.Table, pa.Table | None, pa.Table | None]:
    """Split a wire batch into (good rows, dead-letter rows, raw rows).

    The third table is the offending rows UNCHANGED in their original
    wire schema (minus the reader-injected ``_src_segment``) — the DLQ
    redrive input: after a fix, :func:`pipelines.cdc.redrive_errors`
    replays these raw rows through the normal ingest path with exact
    type fidelity (no lossy JSON round-trip).

    Quarantined: rows violating the WAL contract (null url / warc_ts /
    seq — unmergeable keys) and rows whose html payload is not valid
    UTF-8 (the reference raises ParseDocumentError; the engine
    previously decoded them silently with errors='replace'). The checks
    are vectorized; the per-row UTF-8 scan runs only when a whole-column
    cast fails (rare)."""
    import pyarrow.compute as pc

    if batch.num_rows == 0:
        return batch, None, None
    null_key = pc.is_null(batch.column("url"))
    for key_col in ("warc_ts", "seq"):
        if key_col in batch.column_names:
            null_key = pc.or_(null_key, pc.is_null(batch.column(key_col)))
    bad_utf8 = np.zeros(batch.num_rows, dtype=bool)
    html_as_string: pa.Array | None = None
    if "html" in batch.column_names:
        html_col = batch.column("html")
        if pa.types.is_binary(html_col.type) or pa.types.is_large_binary(html_col.type):
            try:
                # one whole-column validation cast; on success it is
                # REUSED as the decoded html (the extractor skips its
                # own cast) so the hot path pays UTF-8 validation once
                html_as_string = html_col.cast(pa.string())
            except pa.ArrowInvalid:
                for i, b in enumerate(html_col.to_pylist()):
                    if b is None:
                        continue
                    try:
                        b.decode("utf-8")
                    except UnicodeDecodeError:
                        bad_utf8[i] = True
    null_key_np = pc.fill_null(null_key, False).to_numpy(zero_copy_only=False)
    bad_any = null_key_np | bad_utf8
    if not bad_any.any():
        if html_as_string is not None:
            batch = batch.set_column(
                batch.column_names.index("html"), "html", html_as_string
            )
        return batch, None, None
    bad = batch.filter(pa.array(bad_any))
    raw = (
        bad.drop_columns(["_src_segment"])
        if "_src_segment" in bad.column_names else bad
    )
    good = batch.filter(pa.array(~bad_any))
    reasons = np.where(
        null_key_np[bad_any], "null_key_field", "invalid_utf8_html"
    )
    return good, _dead_letter_table(bad, reasons.tolist()), raw


#: Supported CHECK-constraint operators (declarative ingest-time
#: expectations, the Delta-Lake-style data-quality gate).
CONSTRAINT_OPS = (
    "<", "<=", ">", ">=", "==", "!=", "in", "not_in", "not_null", "matches",
)


def _dead_letter_table(bad: pa.Table, reasons: list[str]) -> pa.Table:
    """Project offending wire rows onto :data:`ERRORS_SCHEMA`."""
    return pa.table(
        {
            "url": bad.column("url").cast(pa.string()),
            "warc_ts": bad.column("warc_ts"),
            "seq": bad.column("seq"),
            "error": pa.array(reasons, pa.string()),
            "_src_segment": (
                bad.column("_src_segment")
                if "_src_segment" in bad.column_names
                else pa.nulls(bad.num_rows, pa.string())
            ),
            "html": (
                bad.column("html").cast(pa.binary())
                if "html" in bad.column_names
                else pa.nulls(bad.num_rows, pa.binary())
            ),
        },
        schema=ERRORS_SCHEMA,
    )


def check_constraints(
    batch: pa.Table,
    constraints: list,
    absent_columns: dict[str, list[str]] | None = None,
) -> tuple[pa.Table, pa.Table | None, pa.Table | None]:
    """Declarative ingest-time CHECK constraints (expectations): split a
    wire batch into (passing rows, dead-letter rows, raw redrive rows)
    — the same contract as :func:`quarantine_bad_rows`, so violations
    ride the existing DLQ/redrive machinery.

    Each constraint is ``(column, op[, value])`` with op from
    :data:`CONSTRAINT_OPS`. Semantics follow SQL CHECK:

    * NULL comparisons PASS (only ``not_null`` rejects nulls);
    * ``op == 'delete'`` rows are exempt (their payload columns are
      null by wire contract — expectations gate incoming data, not
      tombstones);
    * a column absent from this wire-schema version is vacuously true
      (schema evolution: the constraint starts binding when the column
      arrives). ``absent_columns`` maps a source segment name to the
      columns its own schema lacks, so rows of an older segment stay
      exempt after the batch was conformed to a newer unified schema
      (matched on the ``_src_segment`` provenance column);
    * the FIRST failing constraint names the row's quarantine reason.

    All checks are vectorized pyarrow kernels; one boolean pass per
    constraint per batch."""
    import pyarrow.compute as pc

    if batch.num_rows == 0 or not constraints:
        return batch, None, None
    n = batch.num_rows
    viol_any = np.zeros(n, dtype=bool)
    reasons = np.empty(n, dtype=object)
    exempt = np.zeros(n, dtype=bool)
    if "op" in batch.column_names:
        ex = pc.equal(batch.column("op"), "delete")
        exempt = pc.fill_null(ex, False).to_numpy(zero_copy_only=False)
    cmp_ops = {
        "<": pc.less, "<=": pc.less_equal,
        ">": pc.greater, ">=": pc.greater_equal,
        "==": pc.equal, "!=": pc.not_equal,
    }
    for spec in constraints:
        col_name, op = spec[0], spec[1]
        if op not in CONSTRAINT_OPS:
            raise ValueError(f"unknown constraint op: {op!r}")
        label = f"constraint:{col_name} {op}" + (
            f" {spec[2]}" if len(spec) > 2 else ""
        )
        if col_name not in batch.column_names:
            continue
        lacking = [s for s, cols in (absent_columns or {}).items()
                   if col_name in cols]
        if lacking and "_src_segment" in batch.column_names:
            vacuous = pc.fill_null(pc.is_in(
                batch.column("_src_segment"),
                value_set=pa.array(lacking, pa.string()),
            ), False).to_numpy(zero_copy_only=False)
        else:
            vacuous = False
        col = batch.column(col_name)
        isnull = pc.is_null(col).to_numpy(zero_copy_only=False)
        if op == "not_null":
            viol = isnull.copy()
        else:
            value = spec[2]
            if op == "in":
                ok = pc.is_in(col, value_set=pa.array(value))
            elif op == "not_in":
                ok = pc.invert(pc.is_in(col, value_set=pa.array(value)))
            elif op == "matches":
                ok = pc.match_substring_regex(
                    col.cast(pa.string()), value
                )
            else:
                ok = cmp_ops[op](col, value)
            okn = pc.fill_null(ok, False).to_numpy(zero_copy_only=False)
            viol = (~okn) & (~isnull)  # SQL CHECK: NULL passes
        viol &= ~(exempt | vacuous)
        viol &= ~viol_any  # first failing constraint keeps the reason
        reasons[viol] = label
        viol_any |= viol
    if not viol_any.any():
        return batch, None, None
    mask = pa.array(viol_any)
    bad = batch.filter(mask)
    good = batch.filter(pa.array(~viol_any))
    raw = (
        bad.drop_columns(["_src_segment"])
        if "_src_segment" in bad.column_names else bad
    )
    err = _dead_letter_table(bad, [str(r) for r in reasons[viol_any]])
    return good, err, raw


def write_dead_letters(
    errors_dir: str, err: pa.Table, raw: pa.Table | None = None
) -> str:
    """Persist a quarantine table content-addressed (idempotent on
    batch retry); returns the tagged-file path. ``raw`` (the offending
    rows in their ORIGINAL wire schema) lands beside it as
    ``errors-<h>.raw.parquet`` — the redrive input."""
    import hashlib

    from ..state.iofs import write_table_atomic

    key = hashlib.sha1()
    key.update(str(err.num_rows).encode())
    key.update(
        "\x00".join(
            f"{u}:{s}" for u, s in zip(
                err.column("url").to_pylist(), err.column("seq").to_pylist()
            )
        ).encode()
    )
    path = os.path.join(errors_dir, f"errors-{key.hexdigest()[:16]}.parquet")
    write_table_atomic(err, path)
    if raw is not None:
        write_table_atomic(raw, path[: -len(".parquet")] + ".raw.parquet")
    return path

#: Hidden lake column persisting delete markers. Tombstones MUST be
#: persisted (not just applied): events are out-of-order in ``warc_ts``
#: across micro-batches, so without a stored tombstone a later batch
#: carrying an *older* update for a deleted url would resurrect it —
#: incremental ingest would diverge from full replay. Read paths filter
#: ``_deleted`` rows out; a retention/compaction pass may drop
#: tombstones once the WAL guarantees no older events remain in flight.
DELETED_COL = "_deleted"


def _make_crc32_table() -> np.ndarray:
    """Standard reflected CRC-32 (IEEE 802.3, poly 0xEDB88320) lookup
    table — byte-identical to ``zlib.crc32`` (verified row-for-row in
    tests). Module-level constant: built once per process."""
    table = np.empty(256, dtype=np.uint32)
    for i in range(256):
        c = np.uint32(i)
        for _ in range(8):
            c = np.uint32(0xEDB88320) ^ (c >> np.uint32(1)) if c & np.uint32(1) else c >> np.uint32(1)
        table[i] = c
    return table


_CRC32_TABLE = _make_crc32_table()


def _string_buffers(urls: pa.Array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-copy (starts, ends, data) views of a string array's offsets
    and value bytes (handles the array's logical slice offset)."""
    otype = np.int64 if pa.types.is_large_string(urls.type) else np.int32
    offsets = np.frombuffer(urls.buffers()[1], dtype=otype)[
        urls.offset : urls.offset + len(urls) + 1
    ]
    buf = urls.buffers()[2]
    data = (
        np.empty(0, dtype=np.uint8) if buf is None
        else np.frombuffer(buf, dtype=np.uint8)
    )
    starts = offsets[:-1].astype(np.int64)
    ends = offsets[1:].astype(np.int64)
    return starts, ends, data


def crc32_column(urls: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Vectorized ``zlib.crc32`` over every string in the column.
    Byte-serial within a string (CRC is a sequential fold) but
    vectorized ACROSS the N strings: one numpy table-lookup step per
    byte position, so the Python-level loop is O(max_len) not O(rows).
    Urls are ~tens of bytes, so this is ~40 numpy ops per batch vs a
    per-row Python loop on the engine's hottest exchange path."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    n = len(urls)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    starts, ends, data = _string_buffers(urls)
    lens = ends - starts
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    max_len = int(lens.max())
    for k in range(max_len):
        active = lens > k
        b = data[starts[active] + k]
        c = crc[active]
        crc[active] = _CRC32_TABLE[(c ^ b) & np.uint32(0xFF)] ^ (c >> np.uint32(8))
    return crc ^ np.uint32(0xFFFFFFFF)


def stable_hash_partition(
    urls: pa.Array | pa.ChunkedArray,
    num_partitions: int,
    splits: frozenset[tuple[int, int]] | None = None,
) -> pa.Array:
    """crc32(url) % P as an int64 array, descended through the
    partition-split map when one is given (see
    ``state.checkpoint.resolve_partition``): rows whose
    ``(residue, modulus)`` was split re-route to ``crc % (2*modulus)``,
    iterated to the live covering — vectorized (one ``np.isin`` pass
    per split depth). Deterministic forever (pinned to zlib's CRC-32 —
    partition -> base-file routing must be stable across runs and
    library versions)."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    crc = crc32_column(urls).astype(np.int64)
    parts = crc % num_partitions
    if splits:
        enc_splits = np.fromiter(
            (((int(m) << 32) | int(r)) for r, m in splits),
            dtype=np.int64, count=len(splits),
        )
        mod = np.full(len(parts), num_partitions, dtype=np.int64)
        while True:
            enc = (mod << 32) | parts
            mask = np.isin(enc, enc_splits)
            if not mask.any():
                break
            mod[mask] *= 2
            parts[mask] = crc[mask] % mod[mask]
    return pa.array(parts, type=pa.int64())


def _last_per_url_indices(batch: pa.Table) -> pa.Array:
    """Row indices of the max-``(warc_ts, seq)`` row per url. Key-only
    Arrow sort (payload untouched) + run-boundary mask — cheaper than a
    full-frame sort because the ~KB ``text``/``html`` payloads move only
    once, in the final ``take``."""
    import pyarrow.compute as pc

    idx = pc.sort_indices(
        batch,
        sort_keys=[("url", "ascending"), ("warc_ts", "ascending"),
                   ("seq", "ascending")],
    )
    urls = pc.take(batch.column("url"), idx)
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    n = len(urls)
    # keep row i iff url[i] != url[i+1] (last of each sorted run)
    neq = pc.invert(pc.equal(urls.slice(0, n - 1), urls.slice(1, n)))
    mask = np.ones(n, dtype=bool)
    mask[: n - 1] = pc.fill_null(neq, True).to_numpy(zero_copy_only=False)
    return pc.take(idx, pa.array(np.flatnonzero(mask)))


def local_lww(batch: pa.Table) -> pa.Table:
    """Combiner: keep only the max-``(warc_ts, seq)`` row per url within
    one block. Deterministic (ties cannot occur: ``seq`` is unique per
    url by the WAL contract)."""
    if batch.num_rows <= 1:
        return batch
    return batch.take(_last_per_url_indices(batch))


def add_partition_column(
    batch: pa.Table, num_partitions: int,
    splits: frozenset[tuple[int, int]] | None = None,
) -> pa.Table:
    return batch.append_column(
        "part", stable_hash_partition(batch.column("url"), num_partitions, splits)
    )


def lww_reduce(table: pa.Table) -> pa.Table:
    """Global per-group LWW: keep the max-``(warc_ts, seq)`` row per
    url. Tombstone rows (``_deleted``) win like any other row and are
    RETAINED — filtering happens at read time (see :data:`DELETED_COL`)."""
    if table.num_rows <= 1:
        return table
    return table.take(_last_per_url_indices(table))


def lww_winner_rows(table: pa.Table) -> pa.Table:
    """Group-valued LWW: a url's state is a SET of rows sharing one
    ``(warc_ts, seq)`` version (the entity-table case — one page event
    fans out to many entity rows). Keep ALL rows of each url's max
    version: reduce the distinct version triples with the row-level
    kernel, then inner-join the winners back (arrow hash join)."""
    import pyarrow.compute as pc

    if table.num_rows <= 1:
        return table
    versions = table.select(["url", "warc_ts", "seq"])
    # distinct triples (group_by), then the row-level winner per url
    distinct = versions.group_by(["url", "warc_ts", "seq"]).aggregate([])
    winners = distinct.take(_last_per_url_indices(distinct))
    return table.join(winners, keys=["url", "warc_ts", "seq"], join_type="inner")


def reduce_fn_for_kind(kind: str):
    """LWW reduction matching a lake's row semantics (manifest
    ``kind``): row-valued lakes keep one winner row per url,
    group-valued (entity) lakes keep ALL rows of the winning
    ``(warc_ts, seq)`` version per url."""
    return lww_winner_rows if kind == "group" else lww_reduce


def read_effective_partition(
    lake_dir: str,
    rels: list[str],
    schema: pa.Schema,
    *,
    kind: str = "row",
    columns: list[str] | None = None,
    renames: list | None = None,
    filter: "pc.Expression | None" = None,
) -> pa.Table:
    """Effective (merge-on-read) state of one partition: read its base
    file plus any MOR delta files, conform each to ``schema``, apply
    the kind-appropriate LWW reduction. Tombstone rows are RETAINED —
    callers drop them with :func:`visible_rows`.

    ``columns`` prunes the parquet reads, but the LWW key columns
    (url, warc_ts, seq) and the tombstone flag are always read — a
    correct merge needs them — and dropped again afterwards.

    ``filter`` keeps the rows it matches. It goes below the reduction
    where that is sound: into every file's read when it reads ``url``
    alone (url IS the LWW key, so a url's versions stay or go
    together), and into the read of a partition of one file with no
    rename log whatever it reads. There a fragment scan lets row-group
    statistics skip groups before they decode; a url-only filter on a
    file of one group cuts the whole-file read instead, which costs
    less. Otherwise the filter applies AFTER the reduction (filtering
    an arbitrary column below LWW could drop the winning version and
    resurrect an older row).

    ``renames`` is the manifest's metadata-only column-rename log
    (``pipelines.ddl.alter_lake``): files written before a rename
    still store the old name, so the pruned read also requests each
    live column's historical aliases and the batch passes through
    :func:`..schemas.apply_renames` before conforming.
    """
    from ..schemas import apply_renames, physical_read_columns
    from ..state.iofs import parquet_source

    lake_schema = schema
    need = None
    if columns is not None:
        need = {"url", "warc_ts", "seq", DELETED_COL} | set(columns)
        schema = pa.schema([f for f in schema if f.name in need])
    read_names = (
        None if need is None
        else physical_read_columns(list(schema.names), renames or [])
    )
    url_only = filter is not None and _reads_url_only(filter)
    pushdown = url_only or (
        filter is not None and len(rels) == 1 and not renames
    )

    pieces = []
    for rel in rels:
        path = os.path.join(lake_dir, rel)
        # whole-file read: an s3:// object in one GET; pruned read:
        # ranged reads fetch only the columns
        source = parquet_source(path) if read_names is None else path
        if pushdown and not url_only:
            piece = _scan_matching(source, filter, read_names, lake_schema)
        else:
            f = pq.ParquetFile(source)
            if url_only and f.metadata.num_row_groups > 1:
                # statistics can skip groups; the scan reads the footer
                # a second time, which a one-group file is spared
                piece = _scan_matching(source, filter, read_names)
            else:
                piece = f.read(
                    columns=_present(read_names, f.schema_arrow.names)
                )
                if url_only:
                    piece = piece.filter(filter)
        pieces.append(conform_table(apply_renames(piece, renames), schema))
    if not pieces:
        return schema.empty_table()
    merged = pa.concat_tables(pieces)
    if len(pieces) > 1:
        merged = reduce_fn_for_kind(kind)(merged)
    if filter is not None and not pushdown:
        merged = merged.filter(filter)
    return conform_table(merged, schema)


_PARQUET = ds.ParquetFileFormat()
_LOCAL_FS = pafs.LocalFileSystem()


def _scan_matching(source, filter, read_names, lake_schema=None):
    """The rows of one parquet file (a POSIX or ``s3://`` path, or an
    object already in memory) that ``filter`` matches, through a
    fragment scan: row-group statistics skip groups, and the columns
    the filter reads are read even outside ``read_names``. Given
    ``lake_schema``, columns the file predates read as nulls, as
    conform fills them."""
    from ..state.iofs import is_s3_path

    if not isinstance(source, str):
        frag = _PARQUET.make_fragment(source)
    elif is_s3_path(source):
        fs, key = pafs.FileSystem.from_uri(source)
        frag = _PARQUET.make_fragment(key, fs)
    else:
        frag = _PARQUET.make_fragment(source, _LOCAL_FS)
    have = frag.physical_schema  # the scan's one footer read
    full = None if lake_schema is None else pa.schema(list(have) + [
        fld for fld in lake_schema if fld.name not in set(have.names)
    ])
    return frag.to_table(schema=full, filter=filter,
                         columns=_present(read_names, have.names))


def _present(names: list[str] | None, file_names: list[str]):
    return None if names is None else [c for c in names if c in set(file_names)]


def _reads_url_only(filter) -> bool:
    """Whether ``filter`` reads no column but the LWW key ``url``: it
    binds against a table of that one column."""
    try:
        pa.table({"url": pa.array([], pa.string())}).filter(filter)
    except pa.ArrowInvalid:
        return False
    return True


def visible_rows(table: pa.Table) -> pa.Table:
    """The observable rows of an effective state: tombstones dropped,
    with their flag column (a null flag counts as live)."""
    import pyarrow.compute as pc

    if DELETED_COL not in table.column_names:
        return table
    mask = pc.fill_null(pc.invert(table.column(DELETED_COL)), True)
    return table.filter(mask).drop_columns([DELETED_COL])


def count_tombstones(table: pa.Table) -> int:
    """Rows whose tombstone flag is set (a null flag counts as live)."""
    import pyarrow.compute as pc

    if DELETED_COL not in table.column_names:
        return 0
    return int(
        pc.sum(pc.fill_null(table.column(DELETED_COL), False)).as_py() or 0
    )


def _partition_relpath(part: int, token: str, delta: bool) -> str:
    return (partition_delta_relpath if delta else partition_file_relpath)(
        part, token
    )


def write_partition(
    lake_dir: str, part: int, token: str, table: pa.Table, *,
    delta: bool = False, **write_kwargs,
) -> dict:
    """Publish one partition's next base file — or, with ``delta=True``,
    one merge-on-read delta file — at its content-addressed path (a pure
    function of partition and token, so a retried write lands on the
    same file). Returns the ``{part, path, rows, bytes, tombstones}`` row
    :meth:`..state.checkpoint.LakeManifest.fold_partition_stats`
    records. An empty table writes nothing and reports ``path`` None,
    which retires a base. ``write_kwargs`` go to ``pq.write_table``."""
    from ..state.iofs import write_table_atomic

    if table.num_rows == 0:
        return {"part": part, "path": None, "rows": 0, "bytes": 0,
                "tombstones": 0}
    rel = _partition_relpath(part, token, delta)
    nbytes = write_table_atomic(
        table, os.path.join(lake_dir, rel), **write_kwargs
    )
    return {"part": part, "path": rel, "rows": table.num_rows,
            "bytes": nbytes, "tombstones": count_tombstones(table)}


def written_partition(
    lake_dir: str, part: int, token: str, *, delta: bool = False,
) -> dict | None:
    """Resume of a :func:`write_partition` call: the stats row of the
    file a previous attempt with the same token already published
    (counted from the file, ``resumed`` set), or None when there is
    none. Files are published whole, so an existing one is complete."""
    from ..state.iofs import file_exists, file_size

    rel = _partition_relpath(part, token, delta)
    path = os.path.join(lake_dir, rel)
    if not file_exists(path):
        return None
    f = pq.ParquetFile(path)
    flag = [DELETED_COL] if DELETED_COL in f.schema_arrow.names else []
    return {"part": part, "path": rel, "rows": f.metadata.num_rows,
            "bytes": file_size(path),
            "tombstones": count_tombstones(f.read(columns=flag)),
            "resumed": True}


#: Ray Data's own task options (``ray.data._internal.remote_fn``): a
#: task lost with its worker or node is retried without limit, and
#: placement is Ray's default locality-aware policy.
TASK_OPTIONS = dict(
    num_cpus=1,
    max_retries=-1,
    retry_exceptions=[RaySystemError],
    scheduling_strategy="DEFAULT",
)


# 3 retries, not -1: a rewrite that always kills its worker (say, out of
# memory on a large base plus MOR deltas) must fail the operation, not
# hang.
@ray.remote(**{**TASK_OPTIONS, "max_retries": 3})
def partition_task(fn, items: list):
    """One task's share of a partition map: ``fn(item)`` per item, each
    result its own return object, yielded as it is made so the worker
    holds one result at a time. Arrow's pools are pinned to the task's
    one CPU: the machine-wide default makes concurrent tasks thrash
    each other."""
    pa.set_cpu_count(1)
    pa.set_io_thread_count(2)
    for item in items:
        yield fn(item)


def partition_refs(fn, items: list) -> list:
    """``fn(item)`` for each item on plain Ray tasks, as one ObjectRef
    per item, in order, without waiting for them. At most one task per
    CPU: a small partition's work costs less than a task's dispatch.
    ``fn`` is shipped once."""
    if not items:
        return []
    cpus = int(ray.cluster_resources().get("CPU", 8))
    size = -(-len(items) // cpus)
    fn_ref = ray.put(fn)
    refs = []
    for i in range(0, len(items), size):
        chunk = items[i : i + size]
        out = partition_task.options(num_returns=len(chunk)).remote(
            fn_ref, chunk
        )
        refs.extend([out] if len(chunk) == 1 else out)
    return refs


def map_partitions(fn, items: list) -> list:
    """``[fn(item) for item in items]`` on :func:`partition_refs`: the
    one path every partition rewrite — ingest merge, fold, compaction,
    cluster, split, DML, branch merge, purge — and every small lake
    read runs on."""
    return ray.get(partition_refs(fn, items))


def _spill_manifest(part, rows, path, row_group) -> pa.Table:
    """Spill-manifest rows: the only data the map side returns."""
    return pa.table(
        {"part": pa.array(part, pa.int64()),
         "rows": pa.array(rows, pa.int64()),
         "path": pa.array(path, pa.string()),
         "row_group": pa.array(row_group, pa.int64())}
    )


class SpillCombiner:
    """Map-side exchange stage (replaces an all-to-all shuffle operator).

    Per input block: local LWW combine, stable-hash partition
    assignment, then split by partition and APPEND one parquet delta
    file per (partition, block) into the batch's staging directory —
    i.e. a push-based shuffle to storage (the pattern external shuffle
    services use), instead of Ray's sort-based exchange, which
    degenerates on a 64-value key (boundary sampling collapses the
    reduce side to ~1 task). Returns only tiny manifest rows.

    Idempotence: file names are content-hashes of the sub-batch keys,
    and even differently-split duplicate deliveries are harmless —
    the reduce side's LWW collapses any duplicated (url, warc_ts, seq)
    rows. On a multi-node cluster the staging dir lives on shared
    storage; single-node it's the local FS.
    """

    def __init__(self, staging_dir: str, num_partitions: int,
                 splits: frozenset[tuple[int, int]] | None = None):
        self._staging = staging_dir
        self._num_partitions = num_partitions
        self._splits = splits

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = local_lww(batch)
        return self.split_and_spill(batch)

    def split_and_spill(self, batch: pa.Table) -> pa.Table:
        """Partition-split + row-group spill WITHOUT the row-level LWW
        combine (entity spills arrive pre-reduced at event granularity
        with multiple rows per version — a row-level reduce would
        corrupt them)."""
        import hashlib

        if batch.num_rows == 0:
            # empty input block: nothing to spill, no manifest rows
            return _spill_manifest([], [], [], [])
        batch = add_partition_column(batch, self._num_partitions, self._splits)
        # One spill FILE per block, one ROW GROUP per partition inside it
        # — the reduce side reads only its own row groups, and the file
        # count stays O(blocks), not O(blocks x partitions).
        idx = pa.compute.sort_indices(batch.column("part"))
        batch = batch.take(idx)
        parts_np = batch.column("part").to_numpy(zero_copy_only=False)
        bounds = np.flatnonzero(np.diff(parts_np)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(parts_np)]))

        # Content-hash name from the url column's raw Arrow buffers
        # (normalized offsets + value bytes — equivalent to hashing the
        # joined strings, with zero per-row Python and zero copies).
        urls = batch.column("url")
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        u_starts, u_ends, u_data = _string_buffers(urls)
        key = hashlib.sha1()
        key.update((u_starts - u_starts[0]).tobytes())
        key.update(u_data[u_starts[0] : u_ends[-1]].tobytes())
        key.update(batch.column("seq").to_numpy(zero_copy_only=False).tobytes())
        name = key.hexdigest()[:20]
        os.makedirs(self._staging, exist_ok=True)
        path = os.path.join(self._staging, f"{name}.parquet")
        tmp = path + ".inprogress"
        out_part, out_rows, out_rg = [], [], []
        # Spill files are write-once/read-once scratch. Codec default
        # is MEDIUM-AWARE (measured at 1.2M events / 32 CPUs, best-of-2
        # legs): on /dev/shm (memory) compression is pure codec CPU —
        # uncompressed 3.18 s vs snappy 3.94 s headline (-19%); on disk
        # the 3-4x byte inflation costs more than the codec, so snappy
        # stays.
        codec = "NONE" if self._staging.startswith("/dev/shm") else "snappy"
        with pq.ParquetWriter(tmp, batch.schema, compression=codec) as writer:
            for rg, (s, e) in enumerate(zip(starts, ends)):
                sub = batch.slice(s, e - s)
                writer.write_table(sub, row_group_size=len(sub))
                out_part.append(int(parts_np[s]))
                out_rows.append(e - s)
                out_rg.append(rg)
        os.replace(tmp, path)
        return _spill_manifest(out_part, out_rows, [path] * len(out_part), out_rg)


def filter_purged(batch: pa.Table, value_set: "pa.Array | None") -> pa.Table:
    """Drop rows whose url is in the PURGED registry (right-to-be-
    forgotten, ``pipelines/maintenance.purge_urls``). Sits on the
    ingest edge — not only in the one-time history rewrite — so a
    replayed WAL range (rewind_watermark, restore_lake, crash retry)
    can never resurrect a purged key."""
    import pyarrow.compute as pc

    if value_set is None or len(value_set) == 0 or batch.num_rows == 0:
        return batch
    return batch.filter(
        pc.invert(pc.is_in(batch.column("url"), value_set=value_set))
    )


def purged_value_set(purged_urls) -> "pa.Array | None":
    """Constructor-side prep: the purge list as an Arrow value_set,
    built once per stage construction."""
    if not purged_urls:
        return None
    return pa.array(sorted(set(purged_urls)), pa.string())


class ExtractCombineSpill:
    """Fused map-side stage of the PAGE lake, and the base of the entity
    and nested lanes (``stages.entities``). One call per input block:

    1. the shared prelude — conform the block (one segment, or a row
       slice of one, stamped with its ``_src_segment`` provenance by
       :func:`..sources.wal.read_segment`) to the unified wire schema,
       drop purged urls, drop urls matching the exclusion pattern,
       quarantine malformed rows and CHECK violations to ``_errors``,
       then local LWW (the combiner);
    2. :meth:`rows`, the lane's row transform of the block's winners
       (here: HTML -> ``text``, ``html`` dropped);
    3. partition split + row-group spill (:class:`SpillCombiner`).

    Only tiny spill-manifest rows leave the stage, so the extracted
    payload never crosses the object store. Exclusion runs before
    quarantine, like the reference's filter-before-parse
    (``ejp_zip.py:61-63``): an excluded row reaches neither the lake
    nor ``_errors``. ``local_lww`` runs before the row transform — the
    transform is row-wise, so the spilled rows are the same either way,
    and the lane parses only winning events.
    """

    def __init__(self, staging_dir: str, num_partitions: int,
                 url_exclusion_pattern: str | None = None,
                 wire_schema: pa.Schema | None = None,
                 splits: frozenset[tuple[int, int]] | None = None,
                 errors_dir: str | None = None,
                 constraints: list | None = None,
                 absent_columns: dict[str, list[str]] | None = None,
                 purged_urls: list | None = None):
        # One stage runs per 1-CPU Ray task, but pyarrow's internal
        # thread pool defaults to the MACHINE cpu count — N tasks x
        # 32 arrow threads thrash the node (measured 13x slowdown of
        # the per-batch UDF under a 12-actor pool). Pin arrow to the
        # task's own CPU budget.
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        self._spill = SpillCombiner(staging_dir, num_partitions, splits)
        # re.match semantics: match_substring_regex is an unanchored search
        self._exclusion = (
            "^(?:" + url_exclusion_pattern + ")" if url_exclusion_pattern else None
        )
        #: when set, batches are conformed to this schema first (the
        #: schema-evolution read edge fused in, so mixed v1/v2 blocks
        #: need no separate conform operator); provenance column added
        #: alongside so conform doesn't drop it
        if wire_schema is not None and "_src_segment" not in wire_schema.names:
            wire_schema = wire_schema.append(pa.field("_src_segment", pa.string()))
        self._wire_schema = wire_schema
        self._errors_dir = errors_dir
        self._constraints = constraints
        self._absent_columns = absent_columns
        self._purged = purged_value_set(purged_urls)

    def rows(self, winners: pa.Table) -> pa.Table:
        """Page lane: the byte-identical text invariant of
        :mod:`..functions.text`, a pure function of the html bytes (no
        clock), so retries and replays produce identical text. The raw
        payload is dropped right after — nothing downstream needs it."""
        from ..functions.text import extract_text_column

        text = extract_text_column(winners.column("html"))
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        return winners.append_column("text", text).drop_columns(["html"])

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if self._wire_schema is not None and not batch.schema.equals(self._wire_schema):
            batch = conform_table(batch, self._wire_schema)
        batch = filter_purged(batch, self._purged)
        if self._exclusion is not None:
            # a null url is not excluded: quarantine names it below
            hit = pc.fill_null(
                pc.match_substring_regex(batch.column("url"), self._exclusion),
                False,
            )
            batch = batch.filter(pc.invert(hit))
        out: list[pa.Table] = []
        if self._errors_dir is not None:
            for check in (quarantine_bad_rows,
                          lambda b: check_constraints(
                              b, self._constraints, self._absent_columns)):
                batch, err, raw = check(batch)
                if err is not None:
                    path = write_dead_letters(self._errors_dir, err, raw)
                    out.append(_spill_manifest([ERROR_PART], [err.num_rows], [path], [-1]))
        if batch.num_rows:
            out.insert(0, self._spill.split_and_spill(self.rows(local_lww(batch))))
        return pa.concat_tables(out) if out else _spill_manifest([], [], [], [])


class PartitionMerger:
    """Reduce-side work for one lake partition: reads the partition's
    spilled delta row groups (plus, copy-on-write, its committed
    effective state), merges under the lake kind's LWW and writes the
    next immutable partition file to a deterministic content-addressed
    path. Returns one stats row (the partition's lineage record) — data
    never flows back through the driver.
    """

    def __init__(
        self,
        lake_dir: str,
        delta_map: dict[int, list[tuple[str, int]]],
        lake_schema: pa.Schema,
        token: str,
        *,
        kind: str,
        mode: str,
        prior_files: dict[int, list[str]],
        renames: list,
    ):
        self._kind = kind
        self._lake_dir = lake_dir
        #: part -> [(spill file, row group index)] — only row groups
        #: named here are read; stale files from crashed attempts are
        #: ignored entirely.
        self._delta_map = delta_map
        self._lake_schema = lake_schema  # already evolved (driver-side union)
        self._token = token
        #: "cow" rewrites the partition base per batch (read-optimized);
        #: "mor" appends one immutable delta file per (partition, batch)
        #: and leaves the base untouched — write amplification drops
        #: from O(partition size) to O(delta size) per micro-batch, at
        #: the cost of an LWW merge on every read until
        #: ``compact_deltas`` folds the deltas back (Hudi-MOR shape).
        if mode not in ("cow", "mor"):
            raise ValueError(f"unknown merge mode {mode!r}")
        self._mode = mode
        #: committed files per partition (base plus pending MOR deltas,
        #: ``LakeManifest.part_files``). A CoW merge folds them all into
        #: the new base (mode mixing is safe: CoW ingest doubles as
        #: compaction for the partitions it touches); a MOR merge never
        #: reads them.
        self._prior_files = prior_files
        #: manifest rename log (metadata-only DDL): base files written
        #: before a rename — and wire batches from a producer still
        #: emitting the old name — map onto the live column here.
        self._renames = renames

    def _gather_delta(self, part: int) -> pa.Table:
        """Concat + normalize this batch's spill row groups for one
        partition: tombstone flag materialized, conformed to the
        (already evolved) lake schema, which drops wire-only leftovers,
        null-fills columns this delta's schema version didn't carry and
        applies widens."""
        import pyarrow.compute as pc

        deltas = [
            pq.ParquetFile(path).read_row_group(rg)
            for path, rg in sorted(self._delta_map.get(part, []))
        ]
        delta = pa.concat_tables(deltas, promote_options="default")
        if "part" in delta.column_names:
            delta = delta.drop_columns(["part"])
        if DELETED_COL not in delta.column_names and "op" in delta.column_names:
            delta = delta.append_column(
                DELETED_COL, pc.equal(delta.column("op"), DELETE_OP)
            )
        from ..schemas import apply_renames

        return conform_table(
            apply_renames(delta, self._renames), self._lake_schema
        )

    def merge_one(self, part: int) -> dict:
        """Merge one partition. Copy-on-write: LWW over the partition's
        effective state plus this batch's rows, written as the new base
        (an empty result retires the partition). Merge-on-read: LWW over
        this batch's rows alone (cross-block, within the micro-batch),
        written as one more delta file; the base is never read. Readers
        (``read_lake`` / ``lookup_urls`` / ``lake_snapshot``) apply LWW
        over base+deltas; ``compact_deltas`` folds them back off the
        ingest path.

        Partition-level resume: the output path is a pure function of
        (token, part) and files are published whole, so an existing file
        IS this merge's result from a previous attempt of the same
        micro-batch; its stats are read back instead of redoing it."""
        mor = self._mode == "mor"
        done = written_partition(self._lake_dir, part, self._token, delta=mor)
        if done is not None:
            return {**done, "events_applied": 0}  # replay: no new events
        delta = self._gather_delta(part)
        events_applied = delta.num_rows
        if not mor:
            prior = read_effective_partition(
                self._lake_dir, self._prior_files[part],
                self._lake_schema, kind=self._kind, renames=self._renames,
            )
            if prior.num_rows:
                delta = pa.concat_tables([prior, delta])
        merged = conform_table(
            reduce_fn_for_kind(self._kind)(delta), self._lake_schema
        )
        return {
            **write_partition(
                self._lake_dir, part, self._token, merged, delta=mor
            ),
            "events_applied": events_applied,
        }
