"""Per-file bloom index (``state/bloomindex.py``): equality/membership
scan pruning on high-cardinality payload columns. Laws:

* soundness — pruning == brute force for every ``==``/``in``
  constraint probed (a bloom skip is a proof: no false negatives);
* no-false-negative — for EVERY live value of the indexed column, the
  owning partition survives the plan;
* discrimination — a ``warc_ts`` point lookup that zones cannot prune
  (per-file min/max spans nearly the whole domain) is pruned by the
  bloom to a handful of partitions;
* staleness-free — entries are keyed by immutable content-addressed
  relpaths: files rewritten by compaction lose their entries (never
  skipped until reindexed), new files are unprunable until indexed,
  and ``auto_maintain`` refreshes incrementally;
* the residual compiled expression still decides (bloom false
  positives are harmless).
"""
import os

import pyarrow.compute as pc
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    read_lake,
    run_ingest,
    scan_plan,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    auto_maintain,
    compact_lake,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state.bloomindex import (
    build_bloom_index,
    load_bloom_index,
)
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("bloomlake"))
    generate_wal(
        os.path.join(tmp, "wal"), seed=77, n_urls=120, n_events=1200,
        n_segments=4, delete_fraction=0.05, tie_fraction=0.05,
    )
    cfg = CdcConfig(
        wal_dir=os.path.join(tmp, "wal"),
        lake_dir=os.path.join(tmp, "lake"),
        num_partitions=16, retain_versions=5,
    )
    run_ingest(cfg)
    build_bloom_index(cfg.lake_dir, ["warc_ts", "text", "lang"])
    return cfg


def test_bloom_prunes_where_zones_cannot(lake):
    """A warc_ts point lookup ("the row ingested at exactly T"): every
    partition's min/max spans nearly the whole time range (urls hash
    randomly), so zones keep everything — the bloom prunes to the
    owning partition (+ ~0.8% false positives). The same probe as an
    ISO STRING must coerce identically (a cross-domain hash mismatch
    would be an unsound skip, so strings coerce or never prune)."""
    snap = lake_snapshot(lake.lake_dir)
    tss = sorted(snap.column("warc_ts").to_pylist())
    target = tss[len(tss) // 2]
    plan = scan_plan(lake.lake_dir, [["warc_ts", "==", target]])
    assert plan["skipped_by_zones"] <= 2
    assert plan["skipped_by_blooms"] >= 10
    assert plan["parts_read"] <= 4  # owners + rare false positives
    got = read_lake(
        lake.lake_dir, constraints=[["warc_ts", "==", target]]
    ).take_all()
    want = snap.filter(
        pc.equal(snap.column("warc_ts"), target)
    ).to_pylist()
    assert len(got) == len(want) >= 1
    # ISO-string probe: same rows, same pruning
    iso = target.isoformat()
    got2 = read_lake(
        lake.lake_dir, constraints=[["warc_ts", "==", iso]]
    ).take_all()
    assert len(got2) == len(want)
    plan2 = scan_plan(lake.lake_dir, [["warc_ts", "==", iso]])
    assert plan2["parts_read"] == plan["parts_read"]


def test_bloom_no_false_negative_over_every_live_value(lake):
    """For EVERY live text payload, the plan keeps the partition
    actually holding it — the pruning==brute-force law, exhaustively
    (texts are unique per row in this fixture)."""
    snap = lake_snapshot(lake.lake_dir)
    texts = snap.column("text").to_pylist()
    # probe in batches of `in` constraints to keep the test fast
    for i in range(0, len(texts), 40):
        chunk = texts[i:i + 40]
        got = read_lake(
            lake.lake_dir, constraints=[["text", "in", chunk]]
        ).take_all()
        assert sorted(r["text"] for r in got) == sorted(chunk)


def test_bloom_membership_and_string_column(lake):
    snap = lake_snapshot(lake.lake_dir)
    langs = sorted(set(snap.column("lang").to_pylist()))[:2]
    got = read_lake(
        lake.lake_dir, constraints=[["lang", "in", langs]]
    ).take_all()
    want = snap.filter(
        pc.is_in(snap.column("lang"), value_set=pc.unique(
            snap.column("lang").filter(
                pc.is_in(snap.column("lang"),
                         value_set=__import__("pyarrow").array(langs)))
        ))
    )
    assert len(got) == want.num_rows
    # a value no row has: bloom prunes EVERY partition
    plan = scan_plan(lake.lake_dir, [["lang", "==", "zz-absent"]])
    assert plan["parts_read"] <= 1  # all pruned modulo false positives
    assert read_lake(
        lake.lake_dir, constraints=[["lang", "==", "zz-absent"]]
    ).count() == 0


def test_rewritten_files_lose_entries_and_reindex(lake):
    """Compaction rewrites partitions under NEW relpaths: those files
    have no bloom entry (never skipped — sound), and a rebuild indexes
    them incrementally."""
    snap = lake_snapshot(lake.lake_dir)
    target = snap.column("warc_ts").to_pylist()[0]
    compact_lake(lake.lake_dir)
    man = load_manifest(lake.lake_dir)
    idx = load_bloom_index(lake.lake_dir)
    live = man.all_data_relpaths()
    unindexed = live - set(idx["files"])
    assert unindexed, "compaction must have produced new relpaths"
    # sound without reindex: nothing skipped wrongly
    got = read_lake(
        lake.lake_dir, constraints=[["warc_ts", "==", target]]
    ).take_all()
    assert len(got) >= 1 and got[0]["warc_ts"] == target
    # incremental rebuild covers exactly the new files
    r = build_bloom_index(lake.lake_dir)
    assert r["files_built"] == len(unindexed)
    idx2 = load_bloom_index(lake.lake_dir)
    assert set(idx2["files"]) == live
    plan = scan_plan(lake.lake_dir, [["warc_ts", "==", target]])
    assert plan["skipped_by_blooms"] > 0


def test_auto_maintain_refreshes_existing_index(lake, tmp_path):
    """A lake WITHOUT an index never builds one (opt-in); a lake WITH
    one gets new files indexed by the maintenance policy run."""
    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"), seed=5, n_urls=20, n_events=100,
        n_segments=2,
    )
    cfg = CdcConfig(
        wal_dir=os.path.join(tmp, "wal"),
        lake_dir=os.path.join(tmp, "lake"),
        num_partitions=4,
    )
    run_ingest(cfg)
    acts = auto_maintain(cfg.lake_dir)
    assert "bloom_files_indexed" not in acts
    assert load_bloom_index(cfg.lake_dir) is None
    build_bloom_index(cfg.lake_dir, ["warc_ts"])
    # new WAL -> new data files -> refresh indexes only those
    generate_wal(
        os.path.join(tmp, "wal"), seed=6, n_urls=20, n_events=100,
        n_segments=2, start_segment=2,
    )
    run_ingest(cfg)
    acts = auto_maintain(cfg.lake_dir)
    assert acts["bloom_files_indexed"] > 0
    man = load_manifest(cfg.lake_dir)
    assert set(load_bloom_index(cfg.lake_dir)["files"]) == (
        man.all_data_relpaths()
    )
