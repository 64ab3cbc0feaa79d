"""Nested list<struct> columns through a COMMITTED, schema-evolved lake
(the reference's row-with-nested-lists warehouse shape +
bq_data_service.py:142-188 recursive schema union): v1 commits nested
entity columns; v2 adds a field INSIDE the link struct and old rows
null-fill it element-wise."""
import os

import pyarrow as pa
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_nested_ingest,
)
from data_hub_ejp_xml_pipeline_ray.schemas import conform_array
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal, naive_replay
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments
from data_hub_ejp_xml_pipeline_ray.stages.entities import parse_page_entities
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

import pyarrow.parquet as pq


def _expected_nested(wal_dir):
    tables = [pq.read_table(s.path) for s in list_segments(wal_dir)]
    final = naive_replay(tables)
    out = {}
    for url, row in final.items():
        p = parse_page_entities(url, row["html"])
        out[url] = {
            "title": p["title"],
            "links": p["links"],
            "headings": p["headings"],
        }
    return out


def test_conform_array_struct_field_add():
    s1 = pa.list_(pa.struct([("a", pa.int64()), ("b", pa.string())]))
    s2 = pa.list_(pa.struct([("a", pa.int64()), ("b", pa.string()),
                             ("c", pa.float64())]))
    arr = pa.array(
        [[{"a": 1, "b": "x"}], None, [{"a": 2, "b": "y"}, {"a": 3, "b": "z"}]],
        s1,
    )
    out = conform_array(arr, s2)
    assert out.type.equals(s2)
    assert out.to_pylist() == [
        [{"a": 1, "b": "x", "c": None}], None,
        [{"a": 2, "b": "y", "c": None}, {"a": 3, "b": "z", "c": None}],
    ]
    # sliced input: offsets handled buffer-for-buffer
    out2 = conform_array(arr.slice(1, 2), s2)
    assert out2.to_pylist() == out.to_pylist()[1:]


def test_nested_lake_commits_and_evolves(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=51, n_urls=40, n_events=300, n_segments=4,
                 delete_fraction=0.1, rich_pages=True)
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)

    # --- v1: nested columns committed and LWW-correct -----------------
    run_nested_ingest(cfg, struct_version=1)
    snap = lake_snapshot(cfg.lake_dir)
    link_type = snap.schema.field("links").type
    assert pa.types.is_list(link_type)
    assert [f.name for f in link_type.value_type] == [
        "href", "anchor", "link_index"
    ]
    expected = _expected_nested(wal)
    got = {r["url"]: r for r in snap.to_pylist()}
    assert set(got) == set(expected)
    for url, exp in expected.items():
        assert got[url]["title"] == exp["title"]
        assert got[url]["links"] == exp["links"]
        assert got[url]["headings"] == exp["headings"]
        assert got[url]["n_links"] == len(exp["links"])

    # --- v2: struct gains `rel` (nested column add) -------------------
    generate_wal(wal, seed=52, n_urls=40, n_events=150, n_segments=2,
                 start_segment=4, delete_fraction=0.1, rich_pages=True)
    run_nested_ingest(cfg, struct_version=2)
    snap2 = lake_snapshot(cfg.lake_dir)
    link_type2 = snap2.schema.field("links").type
    assert [f.name for f in link_type2.value_type] == [
        "href", "anchor", "link_index", "rel"
    ]
    expected2 = _expected_nested(wal)
    got2 = {r["url"]: r for r in snap2.to_pylist()}
    assert set(got2) == set(expected2)
    # v2 winners carry rel; urls whose winner predates v2 null-fill it
    # inside every element — both shapes must appear in this fixture
    rels = {
        lk["rel"] for r in got2.values() for lk in (r["links"] or [])
    }
    assert None in rels, "pre-evolution rows must null-fill rel"
    assert rels - {None}, "post-evolution rows must set rel"
    for url, r in got2.items():
        for lk, exp_lk in zip(r["links"] or [], expected2[url]["links"]):
            assert {k: lk[k] for k in ("href", "anchor", "link_index")} == exp_lk
    m = load_manifest(cfg.lake_dir)
    assert m.schema.field("links").type.equals(link_type2)


def test_nested_lake_change_feed_across_evolution(tmp_path):
    """The page-shaped feed works unchanged over the nested lake (one
    row per url), INCLUDING a v1->v2 diff where v2 evolved the link
    struct: v1's file conforms to the evolved schema inside the diff
    task, and new winners carry the added nested field."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import changes_between

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=51, n_urls=40, n_events=300, n_segments=4,
                 delete_fraction=0.1, rich_pages=True)
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_nested_ingest(cfg, struct_version=1)  # -> v1
    generate_wal(wal, seed=52, n_urls=40, n_events=150, n_segments=2,
                 start_segment=4, delete_fraction=0.1, rich_pages=True)
    run_nested_ingest(cfg, struct_version=2)  # -> v2 (struct adds rel)

    def winners(upto=None):
        segs = list_segments(wal)
        if upto is not None:
            segs = segs[:upto]
        best = {}
        for s in segs:
            for row in pq.read_table(s.path).to_pylist():
                key = (row["warc_ts"], row["seq"])
                cur = best.get(row["url"])
                if cur is None or key > (cur["warc_ts"], cur["seq"]):
                    best[row["url"]] = row
        return best

    old_w, new_w = winners(4), winners()
    expected_ops = {}
    for url, w in new_w.items():
        o = old_w.get(url)
        old_live = o is not None and o["op"] != "delete"
        new_live = w["op"] != "delete"
        if new_live and not old_live:
            expected_ops[url] = "insert"
        elif new_live and (w["warc_ts"], w["seq"]) != (
            o["warc_ts"], o["seq"]
        ):
            expected_ops[url] = "update"
        elif not new_live and old_live:
            expected_ops[url] = "delete"
    feed = changes_between(cfg.lake_dir, 1, 2).take_all()
    got = {r["url"]: r for r in feed}
    assert {u: r["change_op"] for u, r in got.items()} == expected_ops
    # nested payload rides the feed: live rows carry evolved structs
    live = [r for r in feed if r["change_op"] != "delete"]
    assert live and all(
        all("rel" in link for link in r["links"]) for r in live
        if r["links"]
    )
    # re-parse oracle on one live feed row's nested columns
    sample = live[0]
    p = parse_page_entities(sample["url"], new_w[sample["url"]]["html"])
    assert [
        {k: link[k] for k in ("href", "anchor", "link_index")}
        for link in sample["links"]
    ] == p["links"]
