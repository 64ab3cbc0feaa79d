"""Independent expected-lake oracle for the benchmark.

The expected lake is computed apart from the engine: DuckDB replays the
generated WAL segments with last-writer-wins, the winner of each url
being its max ``(warc_ts, seq)`` event among the segments committed so
far, and a url whose winner is a delete is absent. The expected ``text``
is ``functions.text.extract_text_reference`` of the winning html, the
pure-Python specification of extraction, never the engine's vectorized
extractor.

Every check returns a list of problems (empty when the engine's output
is right), so the benchmark can report all of them and a test can
assert that a wrong lake is rejected.
"""
from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.compute as pc

#: lake columns compared with the replay besides ``url``; ``content_type``
#: joins them when some segment carries it (schema-v2 segments)
COMPARED = ("warc_ts", "seq", "text", "lang", "fetch_status", "_src_segment")
CANONICAL = {
    "url": pa.string(), "warc_ts": pa.timestamp("us", tz="UTC"),
    "seq": pa.int64(), "text": pa.string(), "lang": pa.string(),
    "fetch_status": pa.int64(), "_src_segment": pa.string(),
    "content_type": pa.string(),
}


class Replay:
    """DuckDB LWW replay over a fixed list of WAL segment files."""

    def __init__(self, segment_paths: list[str], scratch_dir: str):
        self.con = duckdb.connect()
        self.con.execute(f"SET temp_directory='{scratch_dir}'")
        self.con.execute("SET threads=1")
        self.con.execute(
            "CREATE TABLE ev AS SELECT *, parse_filename(filename) AS seg "
            "FROM read_parquet(?, union_by_name=true, filename=true)",
            [list(segment_paths)],
        )
        cols = {r[0] for r in self.con.execute("DESCRIBE ev").fetchall()}
        self.columns = COMPARED + (
            ("content_type",) if "content_type" in cols else ()
        )
        self._text: dict[bytes, str] = {}

    def winners(self, upto_segment: str, urls=None, with_html=True) -> pa.Table:
        """One row per url seen in segments ``<= upto_segment`` (by
        name, the tailer's order): its winning event, deletes included.
        ``urls`` restricts the answer to those urls."""
        extra = ", content_type" if "content_type" in self.columns else ""
        html = "html, " if with_html else ""
        where = "seg <= ?" + (" AND url IN (SELECT unnest(?))" if urls else "")
        return self.con.execute(
            f"""
            SELECT url, op, warc_ts, seq, {html}lang, fetch_status,
                   seg AS _src_segment{extra}
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY url ORDER BY warc_ts DESC, seq DESC) AS rn
                FROM ev WHERE {where}
            ) WHERE rn = 1
            """,
            [upto_segment] + ([list(urls)] if urls else []),
        ).fetch_arrow_table()

    def expected(self, upto_segment: str, urls=None, columns=None) -> pa.Table:
        """The live rows a reader must see after ``upto_segment`` was
        committed (only ``urls`` when given), with the reference
        extraction of the winning html as ``text``."""
        from data_hub_ejp_xml_pipeline_ray.functions.text import (
            extract_text_reference,
        )

        columns = self.columns if columns is None else tuple(columns)
        w = self.winners(upto_segment, urls, with_html="text" in columns)
        w = w.filter(pc.not_equal(w.column("op"), "delete"))
        if "text" in columns:
            texts = []
            for h in w.column("html").to_pylist():
                if h not in self._text:
                    self._text[h] = extract_text_reference(h)
                texts.append(self._text[h])
            w = w.append_column("text", pa.array(texts, pa.string()))
        return w.select(["url", *columns])

    def close(self) -> None:
        self.con.close()


def canonical(table: pa.Table, columns) -> pa.Table:
    """``url`` + ``columns``, each cast to one type and sorted by url, so
    equal contents compare equal whatever the source's types were."""
    arrays = []
    for name in ("url", *columns):
        if name in table.column_names:
            arrays.append(table.column(name).cast(CANONICAL[name]))
        else:
            arrays.append(pa.nulls(table.num_rows, CANONICAL[name]))
    out = pa.table(arrays, names=["url", *columns])
    return out.sort_by("url").combine_chunks()


def compare(expected: pa.Table, actual: pa.Table, columns, what: str,
            limit: int = 3) -> list[str]:
    """Problems found comparing an engine result with the replay."""
    exp, act = canonical(expected, columns), canonical(actual, columns)
    if exp.equals(act):
        return []
    want = {r["url"]: r for r in exp.to_pylist()}
    got = {r["url"]: r for r in act.to_pylist()}
    problems = []
    if act.num_rows != len(got):
        problems.append(f"{what}: {act.num_rows - len(got)} duplicate url row(s)")
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong = sorted(u for u in set(want) & set(got) if want[u] != got[u])
    if missing:
        problems.append(f"{what}: {len(missing)} url(s) missing, e.g. {missing[:limit]}")
    if extra:
        problems.append(f"{what}: {len(extra)} unexpected url(s), e.g. {extra[:limit]}")
    for u in wrong[:limit]:
        diff = {c: (got[u][c], want[u][c]) for c in columns if got[u][c] != want[u][c]}
        problems.append(f"{what}: {u} differs (got, expected): {diff}")
    if len(wrong) > limit:
        problems.append(f"{what}: {len(wrong)} url(s) differ in all")
    return problems or [f"{what}: results differ"]


def apply_feed(before: pa.Table, feed: pa.Table, schema: pa.Schema) -> pa.Table:
    """Apply a change feed to a snapshot: inserts and updates replace
    the url's row, deletes remove it. The result has ``schema``."""
    kept = before.filter(pc.invert(pc.is_in(before.column("url"), feed.column("url"))))
    upserts = feed.filter(pc.not_equal(feed.column("change_op"), "delete"))
    parts = [
        pa.table([t.column(f.name).cast(f.type) if f.name in t.column_names
                  else pa.nulls(t.num_rows, f.type) for f in schema], schema=schema)
        for t in (kept, upserts)
    ]
    return pa.concat_tables(parts)


def check_feed(before: pa.Table, feed: pa.Table, after: pa.Table, what: str) -> list[str]:
    """``feed`` applied to ``before`` must give ``after``, every column."""
    got = apply_feed(before, feed, after.schema).sort_by("url")
    if got.equals(after.sort_by("url")):
        return []
    columns = [c for c in after.column_names if c in CANONICAL and c != "url"]
    return compare(after, got, columns, what)
