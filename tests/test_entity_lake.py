"""Entity-lake CDC: one WAL drives a demuxed page/link/heading table,
merged at page-version granularity (the reference's multi-entity
fan-out upgraded to exactly-once LWW)."""
import os

import pyarrow.parquet as pq

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_entity_ingest,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal, naive_replay
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments
from data_hub_ejp_xml_pipeline_ray.stages.entities import parse_page_entities


def _expected_entities(wal_dir):
    tables = [pq.read_table(s.path) for s in list_segments(wal_dir)]
    winners = naive_replay(tables)  # drops deleted urls
    expected = {}
    for url, row in winners.items():
        parsed = parse_page_entities(url, row["html"])
        rows = [("page", parsed["title"], None, None, None, None)]
        for link in parsed["links"]:
            rows.append(("link", None, link["href"], link["anchor"],
                         link["link_index"], None))
        for h in parsed["headings"]:
            rows.append(("heading", None, None, None, None, h["level"]))
        expected[url] = {
            "version": (row["warc_ts"], row["seq"]),
            "rows": sorted(map(str, rows)),
        }
    return expected


def _entity_snapshot(lake_dir):
    snap = lake_snapshot(lake_dir)
    out = {}
    for r in snap.to_pylist():
        e = out.setdefault(r["url"], {"version": (r["warc_ts"], r["seq"]), "rows": []})
        assert e["version"] == (r["warc_ts"], r["seq"]), "mixed versions for one url"
        e["rows"].append(str((r["entity_type"], r["title"], r["href"], r["anchor"],
                              r["link_index"], r["level"])))
    for e in out.values():
        e["rows"] = sorted(e["rows"])
    return out


def test_entity_ingest_matches_replay_oracle(tmp_path):
    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=41, n_urls=30, n_events=300,
                 n_segments=6, delete_fraction=0.1, tie_fraction=0.1)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "entity_lake"),
                    num_partitions=8)
    rep = run_entity_ingest(cfg)
    assert rep.commits == 1 and rep.events_applied == 300
    assert _entity_snapshot(cfg.lake_dir) == _expected_entities(cfg.wal_dir)


def test_entity_ingest_incremental_equals_single_shot(tmp_path):
    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=43, n_urls=20, n_events=200,
                 n_segments=4, delete_fraction=0.15)
    inc = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake_inc"),
                    num_partitions=4,
                    max_segments_per_batch=1)
    all_ = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                     lake_dir=os.path.join(tmp, "lake_all"),
                     num_partitions=4)
    run_entity_ingest(inc)
    run_entity_ingest(all_)
    assert _entity_snapshot(inc.lake_dir) == _entity_snapshot(all_.lake_dir)
    assert _entity_snapshot(inc.lake_dir) == _expected_entities(inc.wal_dir)


def test_entity_lake_compaction(tmp_path):
    """compact_lake is lake-agnostic: tombstone entity rows are dropped
    physically, visible state unchanged."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import compact_lake
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=59, n_urls=20, n_events=200,
                 n_segments=4, delete_fraction=0.2)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "elake"),
                    num_partitions=4)
    run_entity_ingest(cfg)
    before = _entity_snapshot(cfg.lake_dir)
    m = load_manifest(cfg.lake_dir)
    tombs = sum(v.get("tombstones", 0) for v in m.partition_meta.values())
    assert tombs > 0
    out = compact_lake(cfg.lake_dir)
    assert out["tombstones_dropped"] == tombs
    assert _entity_snapshot(cfg.lake_dir) == before
