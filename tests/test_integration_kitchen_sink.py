"""Everything-at-once integration: schema evolution (v2 segments) +
corrupt rows (dead-letter) + url exclusion + a partition split
mid-stream + idempotent re-ingest + compaction, converging to the
replay oracle over the clean, non-excluded rows."""
import os

import pyarrow as pa
import pyarrow.parquet as pq

from data_hub_ejp_xml_pipeline_ray.functions.text import extract_text_reference
from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    read_errors,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    compact_lake,
    split_partition,
)
from data_hub_ejp_xml_pipeline_ray.schemas import EVENTS_SCHEMA_V1
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal, naive_replay
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

EXCLUDE = r"https://site-1\."


def _expected(wal_dir):
    import re

    tables = [pq.read_table(s.path) for s in list_segments(wal_dir)]
    final = naive_replay(tables)
    out = {}
    for url, row in final.items():
        if url is None or re.match(EXCLUDE, url):
            continue
        if row["html"] is not None:
            try:
                row["html"].decode("utf-8")
            except UnicodeDecodeError:
                continue  # engine quarantines undecodable rows
        out[url] = (row["warc_ts"], row["seq"],
                    extract_text_reference(row["html"]))
    return out


def _corrupt_segment(path, seq_base):
    from datetime import datetime, timezone

    ts = datetime(2025, 7, 1, tzinfo=timezone.utc)
    rows = {
        "op": ["update", "update"],
        "url": [None, "https://kitchen-bad.example/"],
        "warc_ts": [ts, ts],
        "seq": [seq_base, seq_base + 1],
        "html": [b"x", b"\xff\x80 bad"],
        "lang": ["en", "en"],
        "schema_version": [1, 1],
        "fetch_status": [200, 200],
    }
    pq.write_table(pa.Table.from_pydict(rows, schema=EVENTS_SCHEMA_V1), path)


def test_kitchen_sink_converges(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=71, n_urls=60, n_events=600, n_segments=6,
                 delete_fraction=0.08, tie_fraction=0.05, v2_from_segment=4)
    _corrupt_segment(os.path.join(wal, "segment-00006.parquet"), 10_000)
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4,
                    max_segments_per_batch=3,
                    url_exclusion_pattern=EXCLUDE,
                    retain_versions=None)  # keep history for the feed leg

    # first micro-batches (3 segments), then split the largest partition
    import shutil
    held = ["segment-00004.parquet", "segment-00005.parquet",
            "segment-00006.parquet"]
    for s in held:
        shutil.move(os.path.join(wal, s), tmp)
    run_ingest(cfg)
    m = load_manifest(cfg.lake_dir)
    big = max(m.partition_meta, key=lambda p: m.partition_meta[p]["rows"])
    split_partition(cfg.lake_dir, big)

    # land the rest (incl. v2 schema + corrupt segment) and re-ingest
    for s in held:
        shutil.move(os.path.join(tmp, s), os.path.join(wal, s))
    run_ingest(cfg)
    run_ingest(cfg)  # idempotent no-op

    snap = lake_snapshot(cfg.lake_dir)
    got = {
        r["url"]: (r["warc_ts"], r["seq"], r["text"])
        for r in snap.to_pylist()
    }
    assert got == _expected(wal)
    # schema evolved: v2's content_type present in the lake schema
    assert "content_type" in load_manifest(cfg.lake_dir).schema.names
    # both corrupt rows quarantined with provenance
    errs = read_errors(cfg.lake_dir)
    assert errs.num_rows == 2
    assert set(errs.column("_src_segment").to_pylist()) == {
        "segment-00006.parquet"
    }
    # compaction drops tombstones, visible state unchanged
    before = lake_snapshot(cfg.lake_dir)
    compact_lake(cfg.lake_dir)
    assert lake_snapshot(cfg.lake_dir).equals(before)

    # --- change feed + consumers across the WHOLE gauntlet ------------
    # (v1 predates the split, the v2 schema, the quarantined segment
    # AND the compaction: the apply law must still hold)
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import changes_between
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        read_view,
        refresh_live_counts,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.replicate import sync_replica

    cur = load_manifest(cfg.lake_dir).version
    state = {
        r["url"]: (r["warc_ts"], r["seq"], r["text"])
        for r in lake_snapshot(cfg.lake_dir, version=1).to_pylist()
    }
    for r in changes_between(cfg.lake_dir, 1, cur).take_all():
        if r["change_op"] == "delete":
            state.pop(r["url"], None)
        else:
            state[r["url"]] = (r["warc_ts"], r["seq"], r["text"])
    assert state == got  # apply(v1, feed(1 -> cur)) == final state

    rep = os.path.join(tmp, "replica")
    sync_replica(cfg.lake_dir, rep, at_version=1)
    r = sync_replica(cfg.lake_dir, rep)
    assert r["mode"] == "incremental"
    rep_rows = {
        r_["url"]: (r_["warc_ts"], r_["seq"], r_["text"])
        for r_ in lake_snapshot(rep).to_pylist()
    }
    assert rep_rows == got

    import collections

    view = os.path.join(tmp, "view")
    refresh_live_counts(cfg.lake_dir, view, "lang", at_version=1)
    assert refresh_live_counts(cfg.lake_dir, view)["mode"] == "incremental"
    exp_counts = collections.Counter(
        r["lang"] for r in lake_snapshot(cfg.lake_dir).to_pylist()
    )
    assert {
        v["lang"]: v["n"] for v in read_view(view).to_pylist()
    } == dict(exp_counts)


def test_round4_surface_chained(tmp_path):
    """One flow through the round-4 surface: ingest (2 commits) ->
    consumer acks the feed -> cluster -> zone-routed point lookup ->
    deep clone (fresh cursor namespace, identical state) -> restore src
    to v1 -> consumer receives the INVERSE feed -> replay re-converges
    -> SCD2 slices reconstruct every retained version on the final
    chain."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        ack_changes,
        next_changes,
        read_lake,
        scan_plan,
        scd2_history,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        clone_lake,
        cluster_lake,
        restore_lake,
    )
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import list_cursors

    wal = str(tmp_path / "wal")
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    generate_wal(wal, seed=81, n_urls=40, n_events=600, n_segments=4,
                 delete_fraction=0.12)
    cfg = CdcConfig(wal_dir=wal, lake_dir=src, num_partitions=8,
                    max_segments_per_batch=2,
                    retain_versions=None)
    run_ingest(cfg)  # v1, v2
    head = lake_snapshot(src).sort_by([("url", "ascending")])

    # consumer catches up to v2
    ds, tok = next_changes(src, "wh")
    n_feed = ds.count()
    assert n_feed > 0 and ack_changes(src, tok)

    # cluster, then a zone-routed point lookup touches ONE partition
    cluster_lake(src, "url")
    url = head.column("url")[0].as_py()
    assert scan_plan(src, [["url", "==", url]])["parts_read"] == 1
    got = read_lake(src, constraints=[["url", "==", url]]).take_all()
    assert len(got) == 1 and got[0]["url"] == url

    # deep clone: identical state, fresh cursor namespace
    clone_lake(src, dst)
    assert lake_snapshot(dst).sort_by([("url", "ascending")]).equals(
        lake_snapshot(src).sort_by([("url", "ascending")])
    )
    assert list_cursors(dst) == {}
    ds_c, tok_c = next_changes(dst, "wh")
    assert tok_c["from_version"] == 0 and ds_c is not None

    # restore src to v1: the consumer sees the inverse feed and acks
    restore_lake(src, 1)  # cluster made v3, restore -> v4
    ds_r, tok_r = next_changes(src, "wh")  # consumer acked at v2
    assert (tok_r["from_version"], tok_r["to_version"]) == (2, 4)
    assert ds_r is not None
    inv = ds_r.count()
    assert inv > 0 and ack_changes(src, tok_r)
    assert lake_snapshot(src).sort_by([("url", "ascending")]).equals(
        lake_snapshot(src, version=1).sort_by([("url", "ascending")])
    )

    # replay: same WAL re-applies the rolled-back range, re-converging
    run_ingest(cfg)
    assert lake_snapshot(src).sort_by([("url", "ascending")]).equals(head)

    # SCD2 over the whole chain (incl. cluster/restore/replay commits):
    # slicing at every retained version reconstructs that snapshot
    hist = pa.Table.from_pylist(scd2_history(src).take_all())
    import pyarrow.compute as pc

    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import list_versions

    cols = ["url", "warc_ts", "seq", "text", "lang"]
    for v in list_versions(src):
        open_at = pc.fill_null(pc.greater(hist.column("valid_to"), v), True)
        mask = pc.and_(pc.less_equal(hist.column("valid_from"), v), open_at)
        rec = hist.filter(mask).select(cols).sort_by([("url", "ascending")])
        snap = lake_snapshot(src, version=v).select(cols).sort_by(
            [("url", "ascending")]
        )
        assert rec.equals(snap), f"SCD2 slice diverged at v{v}"
