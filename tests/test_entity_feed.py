"""Group-valued change feed (`entity_changes_between`): the unit of
change is a url's whole entity row-set; verified against an
independent winner-fold + re-parse oracle."""
import os

import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    entity_changes_between,
    run_entity_ingest,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments
from data_hub_ejp_xml_pipeline_ray.stages.entities import parse_page_entities


def _winners(wal_dir, upto=None):
    segs = list_segments(wal_dir)
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


def _entity_rows(url, html):
    parsed = parse_page_entities(url, html)
    rows = [("page", parsed["title"], None, None, None, None)]
    for link in parsed["links"]:
        rows.append(("link", None, link["href"], link["anchor"],
                     link["link_index"], None))
    for h in parsed["headings"]:
        rows.append(("heading", None, None, None, None, h["level"]))
    return sorted(map(str, rows))


def _expected_feed(wal_dir, j, k):
    old, new = _winners(wal_dir, j), _winners(wal_dir, k)
    out = {}
    for url, w in new.items():
        o = old.get(url)
        old_live = o is not None and o["op"] != "delete"
        new_live = w["op"] != "delete"
        if new_live and not old_live:
            op = "insert"
        elif new_live and (w["warc_ts"], w["seq"]) != (o["warc_ts"], o["seq"]):
            op = "update"
        elif not new_live and old_live:
            op = "delete"
        else:
            continue
        out[url] = {
            "op": op,
            "version": (w["warc_ts"], w["seq"]),
            "rows": (
                _entity_rows(url, w["html"]) if new_live else ["tombstone"]
            ),
        }
    return out


def _feed_dict(lake_dir, v1, v2, op_filter=None):
    rows = entity_changes_between(lake_dir, v1, v2).take_all()
    out = {}
    for r in rows:
        if op_filter is not None and r["change_op"] != op_filter:
            continue
        e = out.setdefault(r["url"], {
            "op": r["change_op"],
            "version": (r["warc_ts"], r["seq"]),
            "rows": [],
        })
        assert e["op"] == r["change_op"], f"mixed ops for {r['url']}"
        if r["change_op"] == "delete" and r["entity_type"] is None:
            e["rows"].append("tombstone")
            continue
        assert e["version"] == (r["warc_ts"], r["seq"])
        e["rows"].append(str((
            r["entity_type"], r["title"], r["href"], r["anchor"],
            r["link_index"], r["level"],
        )))
    for e in out.values():
        e["rows"] = sorted(e["rows"])
    return out


@pytest.fixture()
def elake(tmp_path):
    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"), seed=47, n_urls=40, n_events=480,
        n_segments=8, delete_fraction=0.15, tie_fraction=0.1,
    )
    cfg = CdcConfig(
        wal_dir=os.path.join(tmp, "wal"),
        lake_dir=os.path.join(tmp, "lake"),
        num_partitions=8,
        max_segments_per_batch=4,  # -> v1, v2
    )
    run_entity_ingest(cfg)
    return cfg


def test_row_feed_refuses_group_lake(elake):
    """changes_between's one-row-per-url diff is wrong for group-valued
    lakes — the manifest kind makes it refuse loudly."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import changes_between

    with pytest.raises(ValueError, match="entity_changes_between"):
        changes_between(elake.lake_dir, 1, 2)


def test_entity_feed_matches_reparse_oracle(elake):
    expected = _expected_feed(elake.wal_dir, 4, None)
    ops = {v["op"] for v in expected.values()}
    assert ops == {"insert", "update", "delete"}
    assert _feed_dict(elake.lake_dir, 1, 2) == expected


def test_entity_feed_initial_all_inserts(elake):
    expected = _expected_feed(elake.wal_dir, 0, 4)
    assert all(v["op"] == "insert" for v in expected.values())
    assert _feed_dict(elake.lake_dir, 0, 1) == expected


def test_entity_feed_column_pruning(elake):
    """columns=... drops unrequested entity payload while keeping the
    change identity and the entity_type discriminator."""
    rows = entity_changes_between(
        elake.lake_dir, 1, 2, columns=["entity_type"]
    ).take_all()
    assert rows and set(rows[0].keys()) == {
        "url", "change_op", "warc_ts", "seq", "entity_type",
    }
    full = _feed_dict(elake.lake_dir, 1, 2)
    got_ops = {}
    for r in rows:
        got_ops.setdefault(r["url"], set()).add(r["change_op"])
    assert {u: next(iter(v)) for u, v in got_ops.items()} == {
        u: e["op"] for u, e in full.items()
    }


def test_entity_feed_preimages(elake):
    """Pre-image mode: update urls carry BOTH versions' row-sets;
    deletes carry the old live row-set (re-parse oracle on each)."""
    old_w = _winners(elake.wal_dir, 4)
    expected = _expected_feed(elake.wal_dir, 4, None)
    rows = entity_changes_between(
        elake.lake_dir, 1, 2, preimages=True
    ).take_all()
    got = {}
    for r in rows:
        got.setdefault(r["change_op"], {}).setdefault(r["url"], []).append(
            str((r["entity_type"], r["title"], r["href"], r["anchor"],
                 r["link_index"], r["level"]))
        )
    for d in got.values():
        for u in d:
            d[u] = sorted(d[u])
    upd = {u for u, v in expected.items() if v["op"] == "update"}
    dele = {u for u, v in expected.items() if v["op"] == "delete"}
    assert set(got.get("update_postimage", {})) == upd
    assert set(got.get("update_preimage", {})) == upd
    assert set(got.get("delete", {})) == dele
    for u in upd:
        assert got["update_postimage"][u] == expected[u]["rows"]
        assert got["update_preimage"][u] == _entity_rows(
            u, old_w[u]["html"]
        )
    for u in dele:
        assert got["delete"][u] == _entity_rows(u, old_w[u]["html"])
