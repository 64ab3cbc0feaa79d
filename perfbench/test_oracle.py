"""The benchmark's correctness check must reject a wrong lake.

Ray-free: the "lake" here is built from the replay itself (a right
lake), then damaged the two ways a broken merge would damage it.

    python -m pytest perfbench/test_oracle.py -q
"""
from __future__ import annotations

import os
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

from data_hub_ejp_xml_pipeline_ray.functions.text import extract_text_reference  # noqa: E402
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal  # noqa: E402
from oracle import Replay, check_feed, compare  # noqa: E402


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    d = tmp_path_factory.mktemp("wal")
    paths = sorted(generate_wal(str(d), seed=3, n_urls=60, n_events=600,
                                n_segments=3, v2_from_segment=2))
    r = Replay(paths, str(d))
    yield r, os.path.basename(paths[-1])
    r.close()


def test_right_lake_passes(replay):
    r, last = replay
    lake = r.expected(last)
    assert lake.num_rows > 10
    assert compare(r.expected(last), lake, r.columns, "lake") == []


def test_dropped_row_is_rejected(replay):
    r, last = replay
    lake = r.expected(last)
    damaged = pa.concat_tables([lake.slice(0, 5), lake.slice(6)])
    problems = compare(r.expected(last), damaged, r.columns, "lake")
    assert problems and "missing" in problems[0]


def test_stale_version_is_rejected(replay):
    """Put a url's previous live version in place of its winner."""
    r, last = replay
    url, warc_ts, seq, html = r.con.execute(
        """
        SELECT url, warc_ts, seq, html FROM (
            SELECT *, row_number() OVER (
                PARTITION BY url ORDER BY warc_ts DESC, seq DESC) AS rn
            FROM ev) t
        WHERE rn = 2 AND op != 'delete' AND url IN (
            SELECT url FROM (
                SELECT url, op, row_number() OVER (
                    PARTITION BY url ORDER BY warc_ts DESC, seq DESC) AS rn
                FROM ev) WHERE rn = 1 AND op != 'delete')
        ORDER BY url LIMIT 1
        """
    ).fetchone()
    lake = r.expected(last).to_pylist()
    row = next(x for x in lake if x["url"] == url)
    row.update(warc_ts=warc_ts, seq=seq, text=extract_text_reference(html))
    damaged = pa.Table.from_pylist(lake, schema=r.expected(last).schema)
    problems = compare(r.expected(last), damaged, r.columns, "lake")
    assert problems and url in problems[0]


def test_feed_must_rebuild_the_next_snapshot(replay):
    r, last = replay
    before = r.expected("segment-00001.parquet")
    after = r.expected(last)
    prev = {x["url"]: x for x in before.to_pylist()}
    rows = []
    for x in after.to_pylist():
        if x["url"] not in prev:
            rows.append({**x, "change_op": "insert"})
        elif x != prev[x["url"]]:
            rows.append({**x, "change_op": "update"})
    gone = sorted(set(prev) - set(after.column("url").to_pylist()))
    rows += [{"url": u, "change_op": "delete"} for u in gone]
    assert rows
    feed = pa.Table.from_pylist(rows)
    assert check_feed(before, feed, after, "feed") == []
    for i in range(feed.num_rows):  # every change is needed
        partial = pa.concat_tables([feed.slice(0, i), feed.slice(i + 1)])
        assert check_feed(before, partial, after, "feed"), feed.slice(i, 1)
