"""Nested-entity extraction: one page fans out to multiple typed entity
streams with nested list<struct> columns.

This is the analog of the reference's document parsers: a manuscript
XML fans out to persons + manuscript + versions entity streams
(``ejp_manuscript_xml.py:549-602``), each a dict with nested
lists-of-structs built by ``extract_list`` combinators
(``extract.py:18-24``; sub-extractors ``ejp_manuscript_xml.py:92-527``).
Here a web page fans out to:

* ``page``    — url, title, counts (the manuscript-level record)
* ``link``    — one row per ``<a href>`` with ``link_index`` provenance
  (the ``node_index`` analog, ``ejp_person_xml.py:166-169``)
* ``heading`` — one row per ``<h1>``-``<h6>``

plus a nested single-table form (:func:`extract_page_records`) where
links/headings are Arrow ``list<struct>`` columns — the reference's
row-with-nested-lists shape mapped to Arrow types (SURVEY §1.4).

The patterns are compiled once per process.
"""
from __future__ import annotations

import html as html_mod
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import (
    html_to_string_array,
    strip_markup,
    strip_markup_array,
    unescape_array,
)
from .merge import ExtractCombineSpill

_TITLE_PAT = r"(?is)<title[^>]*>(.*?)</title\s*>"
_LINK_PAT = r"""(?is)<a\b[^>]*?href\s*=\s*(?:"([^"]*)"|'([^']*)')[^>]*>(.*?)</a\s*>"""
_HEADING_PAT = r"(?is)<h([1-6])[^>]*>(.*?)</h[1-6]\s*>"

_TITLE_RE = re.compile(_TITLE_PAT)
_LINK_RE = re.compile(_LINK_PAT)
_HEADING_RE = re.compile(_HEADING_PAT)


def _clean_text(fragment: str) -> str:
    """Inner markup stripped + double entity decode (same contract as
    the text invariant, applied to a fragment)."""
    return html_mod.unescape(html_mod.unescape(strip_markup(fragment)))


def parse_page_entities(url: str, raw_html: bytes | str | None) -> dict:
    """Pure per-page parser (the spec): returns title, links, headings."""
    if raw_html is None:
        return {"url": url, "title": None, "links": [], "headings": []}
    if isinstance(raw_html, bytes):
        doc = raw_html.decode("utf-8", errors="replace")
    else:
        doc = raw_html
    m = _TITLE_RE.search(doc)
    title = _clean_text(m.group(1)) if m else None
    links = []
    for i, lm in enumerate(_LINK_RE.finditer(doc)):
        href = lm.group(1) if lm.group(1) is not None else lm.group(2)
        links.append(
            {"href": html_mod.unescape(href), "anchor": _clean_text(lm.group(3)),
             "link_index": i}
        )
    headings = [
        {"level": int(hm.group(1)), "text": _clean_text(hm.group(2))}
        for hm in _HEADING_RE.finditer(doc)
    ]
    return {"url": url, "title": title, "links": links, "headings": headings}


class ParsedBatch:
    """Columnar result of :func:`parse_page_entities_batch`: per-doc
    ``title`` and counts plus FLAT link/heading component arrays (doc i
    owns flat rows ``[offsets[i], offsets[i+1])``). Consumers assemble
    either ``list<struct>`` columns (ListArray.from_arrays over the
    offsets) or fan-out rows (parent columns taken via repeat indices)
    without touching Python per row."""

    __slots__ = (
        "title", "link_counts", "link_href", "link_anchor", "link_index",
        "heading_counts", "heading_level", "heading_text",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @staticmethod
    def _offsets(counts: np.ndarray) -> pa.Array:
        return pa.array(
            np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            type=pa.int32(),
        )

    def link_list_array(self, extra: dict | None = None) -> pa.ListArray:
        names = ["href", "anchor", "link_index"]
        arrays = [self.link_href, self.link_anchor, self.link_index]
        for k, v in (extra or {}).items():
            names.append(k)
            arrays.append(v)
        return pa.ListArray.from_arrays(
            self._offsets(self.link_counts),
            pa.StructArray.from_arrays(arrays, names),
        )

    def heading_list_array(self) -> pa.ListArray:
        return pa.ListArray.from_arrays(
            self._offsets(self.heading_counts),
            pa.StructArray.from_arrays(
                [self.heading_level, self.heading_text], ["level", "text"]
            ),
        )

    def link_parent_indices(self) -> pa.Array:
        n = len(self.link_counts)
        return pa.array(
            np.repeat(np.arange(n, dtype=np.int64), self.link_counts),
            type=pa.int64(),
        )

    def heading_parent_indices(self) -> pa.Array:
        n = len(self.heading_counts)
        return pa.array(
            np.repeat(np.arange(n, dtype=np.int64), self.heading_counts),
            type=pa.int64(),
        )


def _as_string_series(arr):
    import polars as pl

    s = pl.from_arrow(arr)
    return s if s.dtype == pl.String else s.cast(pl.String)


def parse_page_entities_batch(html_col: pa.Array | pa.ChunkedArray) -> ParsedBatch:
    """Vectorized batch form of :func:`parse_page_entities` (the per-row
    function stays the spec/oracle; the parity test pins agreement).

    All matching runs as whole-column Rust-regex kernels: ``extract_all``
    finds the (short) full match fragments, one explode flattens them,
    and ``extract_groups`` pulls the capture groups out of the fragments
    — so the expensive scans touch each document once, and per-row
    Python survives only inside the entity-decode fallback for rows that
    actually contain ``&``."""
    import polars as pl

    col = html_to_string_array(html_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    df = pl.DataFrame({"html": _as_string_series(col)})
    ex = df.select(
        title=pl.col("html").str.extract(_TITLE_PAT, 1),
        lm=pl.col("html").str.extract_all(_LINK_PAT),
        hm=pl.col("html").str.extract_all(_HEADING_PAT),
    )
    # null html -> null list -> 0 entities (the spec's empty-list case)
    link_counts = (
        ex.get_column("lm").list.len().fill_null(0).to_numpy().astype(np.int64)
    )
    heading_counts = (
        ex.get_column("hm").list.len().fill_null(0).to_numpy().astype(np.int64)
    )

    lg = (
        ex.select(pl.col("lm").explode().drop_nulls().alias("m"))
        .select(pl.col("m").str.extract_groups(_LINK_PAT).alias("g"))
        .unnest("g")
    )
    # href: double-quoted (group 1) else single-quoted (group 2); an
    # empty participating group is "" (not null), same as re.group()
    href_raw = lg.select(pl.coalesce("1", "2").alias("h")).get_column("h")
    href = unescape_array(
        href_raw.to_arrow().cast(pa.string()), times=1
    )
    anchor = unescape_array(
        strip_markup_array(lg.get_column("3").to_arrow().cast(pa.string())),
        times=2,
    )
    link_index = pa.array(
        (
            np.arange(int(link_counts.sum()), dtype=np.int64)
            - np.repeat(
                np.concatenate(([0], np.cumsum(link_counts)[:-1])), link_counts
            )
        ).astype(np.int32),
        type=pa.int32(),
    )

    hg = (
        ex.select(pl.col("hm").explode().drop_nulls().alias("m"))
        .select(pl.col("m").str.extract_groups(_HEADING_PAT).alias("g"))
        .unnest("g")
    )
    heading_level = hg.get_column("1").cast(pl.Int32).to_arrow().cast(pa.int32())
    heading_text = unescape_array(
        strip_markup_array(hg.get_column("2").to_arrow().cast(pa.string())),
        times=2,
    )

    title = unescape_array(
        strip_markup_array(ex.get_column("title").to_arrow().cast(pa.string())),
        times=2,
    )
    return ParsedBatch(
        title=title,
        link_counts=link_counts,
        link_href=href,
        link_anchor=anchor,
        link_index=link_index,
        heading_counts=heading_counts,
        heading_level=heading_level,
        heading_text=heading_text,
    )


LINK_STRUCT = pa.struct(
    [("href", pa.string()), ("anchor", pa.string()), ("link_index", pa.int32())]
)
HEADING_STRUCT = pa.struct([("level", pa.int32()), ("text", pa.string())])

PAGE_RECORDS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("title", pa.string()),
        ("links", pa.list_(LINK_STRUCT)),
        ("headings", pa.list_(HEADING_STRUCT)),
        ("n_links", pa.int32()),
        ("n_headings", pa.int32()),
    ]
)

ENTITY_FANOUT_SCHEMA = pa.schema(
    [
        ("entity_type", pa.string()),
        ("url", pa.string()),
        ("title", pa.string()),      # page rows
        ("href", pa.string()),       # link rows
        ("anchor", pa.string()),     # link rows
        ("link_index", pa.int32()),  # link rows (node_index provenance)
        ("level", pa.int32()),       # heading rows
        ("text", pa.string()),       # heading rows
    ]
)


#: Entity-lake schema (the demuxed multi-entity table the reference
#: writes as 4 BQ tables; here one table with an ``entity_type``
#: discriminator + version columns + tombstone). Sparse columns are
#: null for rows of other entity kinds.
ENTITY_LAKE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("seq", pa.int64()),
        ("entity_type", pa.string()),
        ("title", pa.string()),
        ("href", pa.string()),
        ("anchor", pa.string()),
        ("link_index", pa.int32()),
        ("level", pa.int32()),
        ("text", pa.string()),
        ("_src_segment", pa.string()),
        ("_deleted", pa.bool_()),
    ]
)


def _combined(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _delete_mask(batch: pa.Table):
    """(is_delete bool array, dels table, ups table) for a wire batch."""
    if "op" in batch.column_names:
        is_del = pc.fill_null(
            pc.equal(batch.column("op"), "delete"), False
        )
    else:
        is_del = pa.array(np.zeros(batch.num_rows, dtype=bool))
    return batch.filter(is_del), batch.filter(pc.invert(is_del))


def _base_cols(t: pa.Table) -> dict:
    out = {
        "url": _combined(t.column("url")),
        "warc_ts": _combined(t.column("warc_ts")),
        "seq": _combined(t.column("seq")),
    }
    if "_src_segment" in t.column_names:
        out["_src_segment"] = _combined(t.column("_src_segment"))
    return out


def _sparse_table(schema: pa.Schema, n: int, present: dict) -> pa.Table:
    return pa.table(
        {f.name: present.get(f.name, pa.nulls(n, f.type)) for f in schema},
        schema=schema,
    )


def _entity_lake_rows(batch: pa.Table) -> pa.Table:
    """Vectorized fan-out of winning wire events into ENTITY_LAKE_SCHEMA
    rows: one ``page`` row per upsert (title from the batch kernel),
    one ``link``/``heading`` row per extracted entity (parent columns
    taken via repeat indices), one tombstone row per delete. Entity
    order within a url is carried by ``link_index``/``level``, not by
    row position."""
    dels, ups = _delete_mask(batch)
    parts = []
    if ups.num_rows:
        base = _base_cols(ups)
        p = parse_page_entities_batch(
            ups.column("html") if "html" in ups.column_names
            else pa.nulls(ups.num_rows, pa.binary())
        )
        false_arr = pa.array(np.zeros(ups.num_rows, dtype=bool))
        parts.append(_sparse_table(ENTITY_LAKE_SCHEMA, ups.num_rows, {
            **base,
            "entity_type": pa.array(["page"] * ups.num_rows, pa.string()),
            "title": p.title, "_deleted": false_arr,
        }))
        n_l = int(p.link_counts.sum())
        if n_l:
            li = p.link_parent_indices()
            parts.append(_sparse_table(ENTITY_LAKE_SCHEMA, n_l, {
                **{k: v.take(li) for k, v in base.items()},
                "entity_type": pa.array(["link"] * n_l, pa.string()),
                "href": p.link_href, "anchor": p.link_anchor,
                "link_index": p.link_index,
                "_deleted": pa.array(np.zeros(n_l, dtype=bool)),
            }))
        n_h = int(p.heading_counts.sum())
        if n_h:
            hi = p.heading_parent_indices()
            parts.append(_sparse_table(ENTITY_LAKE_SCHEMA, n_h, {
                **{k: v.take(hi) for k, v in base.items()},
                "entity_type": pa.array(["heading"] * n_h, pa.string()),
                "level": p.heading_level, "text": p.heading_text,
                "_deleted": pa.array(np.zeros(n_h, dtype=bool)),
            }))
    if dels.num_rows:
        parts.append(_sparse_table(ENTITY_LAKE_SCHEMA, dels.num_rows, {
            **_base_cols(dels),
            "_deleted": pa.array(np.ones(dels.num_rows, dtype=bool)),
        }))
    if not parts:
        return ENTITY_LAKE_SCHEMA.empty_table()
    return pa.concat_tables(parts)


class EntityExtractCombineSpill(ExtractCombineSpill):
    """Fused map side for the ENTITY lake: the shared prelude (through
    event-level local LWW), then each winning event's html parsed into
    entity rows (page/link/heading) stamped with the event's
    ``(warc_ts, seq)`` version, then partition split + row-group spill.

    Delete events emit one tombstone row so the merge can retire a
    url's previous entity rows (group-valued LWW keeps ALL rows of the
    winning version; a tombstone IS that version's only row). The
    spill takes no second row-level LWW — it would collapse the
    multi-row versions.
    """

    def rows(self, winners: pa.Table) -> pa.Table:
        return _entity_lake_rows(winners)


def entity_lake_schema(_wire: pa.Schema) -> pa.Schema:
    """lake_schema_fn hook for the entity ingest (static schema; the
    wire schema's extra columns don't apply to entity rows)."""
    return ENTITY_LAKE_SCHEMA


#: Nested single-table lake: one row per url carrying its entities as
#: Arrow ``list<struct>`` columns — the reference's row-with-nested-
#: lists shape (persons[] / versions[] built by extract_list,
#: ejp_manuscript_xml.py:549-602) committed THROUGH the lake, not just
#: parsed in flight. v2 of the link struct adds ``rel`` (NESTED column
#: add — schema evolution inside a struct element, the
#: bq_data_service.py:142-188 recursive-union case).
def nested_lake_schema(version: int = 1) -> pa.Schema:
    link_fields = [
        ("href", pa.string()), ("anchor", pa.string()),
        ("link_index", pa.int32()),
    ]
    if version >= 2:
        link_fields.append(("rel", pa.string()))
    return pa.schema(
        [
            ("url", pa.string()),
            ("warc_ts", pa.timestamp("us", tz="UTC")),
            ("seq", pa.int64()),
            ("title", pa.string()),
            ("links", pa.list_(pa.struct(link_fields))),
            ("headings", pa.list_(HEADING_STRUCT)),
            ("n_links", pa.int32()),
            ("n_headings", pa.int32()),
            ("_src_segment", pa.string()),
            ("_deleted", pa.bool_()),
        ]
    )


def _site_of(url: str) -> str:
    m = re.match(r"https?://([^/]+)", url or "")
    return m.group(1) if m else ""


def _site_of_array(urls: pa.Array) -> pa.Array:
    """Vectorized :func:`_site_of`: anchored host extraction, '' when
    absent/unmatched (re.match semantics)."""
    ex = pc.extract_regex(
        pc.coalesce(urls, pa.scalar("", pa.string())),
        pattern=r"^https?://(?P<site>[^/]+)",
    )
    return pc.coalesce(
        pc.struct_field(ex, "site"), pa.scalar("", pa.string())
    )


def _nested_lake_rows(
    batch: pa.Table, schema: pa.Schema, struct_version: int
) -> pa.Table:
    """Vectorized build of the nested single-row-per-url lake shape:
    winners become one row each with ``list<struct>`` entity columns
    (ListArray assembly over the batch kernel's offsets); deletes become
    tombstone rows with NULL nested columns (the row-valued LWW retires
    the url's previous row)."""
    dels, ups = _delete_mask(batch)
    parts = []
    if ups.num_rows:
        base = _base_cols(ups)
        p = parse_page_entities_batch(
            ups.column("html") if "html" in ups.column_names
            else pa.nulls(ups.num_rows, pa.binary())
        )
        extra = None
        if struct_version >= 2:
            page_site = _site_of_array(base["url"])
            link_site = _site_of_array(p.link_href)
            rel = pc.if_else(
                pc.equal(link_site, page_site.take(p.link_parent_indices())),
                pa.scalar("internal", pa.string()),
                pa.scalar("external", pa.string()),
            )
            extra = {"rel": _combined(rel)}
        parts.append(_sparse_table(schema, ups.num_rows, {
            **base,
            "title": p.title,
            "links": p.link_list_array(extra),
            "headings": p.heading_list_array(),
            "n_links": pa.array(
                p.link_counts.astype("int32"), type=pa.int32()),
            "n_headings": pa.array(
                p.heading_counts.astype("int32"), type=pa.int32()),
            "_deleted": pa.array(np.zeros(ups.num_rows, dtype=bool)),
        }))
    if dels.num_rows:
        parts.append(_sparse_table(schema, dels.num_rows, {
            **_base_cols(dels),
            "_deleted": pa.array(np.ones(dels.num_rows, dtype=bool)),
        }))
    if not parts:
        return schema.empty_table()
    return pa.concat_tables(parts)


class NestedExtractCombineSpill(ExtractCombineSpill):
    """Fused map side for the NESTED lake: the shared prelude (through
    event-level local LWW), then each winner parsed into ONE row with
    ``list<struct>`` entity columns, then partition split + spill.
    Row-valued LWW merges it (one row per url), so the nested columns
    ride the normal merge path — including schema evolution when
    ``struct_version=2`` adds ``rel`` inside the link struct."""

    struct_version = 1

    def rows(self, winners: pa.Table) -> pa.Table:
        return _nested_lake_rows(
            winners, nested_lake_schema(self.struct_version), self.struct_version
        )


class NestedExtractCombineSpillV2(NestedExtractCombineSpill):
    struct_version = 2


class PageEntityExtractor:
    """Actor-pool stage: page -> nested single-row records
    (``mode='nested'``) or fan-out entity rows (``mode='fanout'``,
    the M6 one-row-to-N-streams shape; split downstream with
    ``ds.filter(entity_type == ...)``)."""

    def __init__(self, mode: str = "nested", url_col: str = "url",
                 html_col: str = "html"):
        if mode not in ("nested", "fanout"):
            raise ValueError(f"unknown mode {mode!r}")
        self._mode = mode
        self._url_col = url_col
        self._html_col = html_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column(self._url_col)
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        p = parse_page_entities_batch(batch.column(self._html_col))
        n = batch.num_rows
        if self._mode == "nested":
            return pa.Table.from_arrays(
                [
                    urls,
                    p.title,
                    p.link_list_array(),
                    p.heading_list_array(),
                    pa.array(p.link_counts.astype("int32"), type=pa.int32()),
                    pa.array(p.heading_counts.astype("int32"), type=pa.int32()),
                ],
                schema=PAGE_RECORDS_SCHEMA,
            )
        # fan-out: page rows, then link rows, then heading rows (each
        # block fully columnar; entity order within a url is carried by
        # link_index / level, not by row position)
        def _sparse(schema, present):
            return pa.table(
                {
                    f.name: present.get(f.name, pa.nulls(
                        len(next(iter(present.values()))), f.type))
                    for f in schema
                },
                schema=schema,
            )

        parts = [_sparse(ENTITY_FANOUT_SCHEMA, {
            "entity_type": pa.array(["page"] * n, type=pa.string()),
            "url": urls, "title": p.title,
        })]
        if int(p.link_counts.sum()):
            parts.append(_sparse(ENTITY_FANOUT_SCHEMA, {
                "entity_type": pa.array(
                    ["link"] * int(p.link_counts.sum()),
                    type=pa.string()),
                "url": urls.take(p.link_parent_indices()),
                "href": p.link_href, "anchor": p.link_anchor,
                "link_index": p.link_index,
            }))
        if int(p.heading_counts.sum()):
            parts.append(_sparse(ENTITY_FANOUT_SCHEMA, {
                "entity_type": pa.array(
                    ["heading"] * int(p.heading_counts.sum()),
                    type=pa.string()),
                "url": urls.take(p.heading_parent_indices()),
                "level": p.heading_level, "text": p.heading_text,
            }))
        return pa.concat_tables(parts)
