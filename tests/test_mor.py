"""Merge-on-read ingest (``CdcConfig.merge_mode="mor"``): per-batch
immutable delta files instead of base rewrites (Hudi-MOR / Paimon-LSM
shape). Laws under test:

* convergence — a MOR lake's observable state equals the CoW lake's
  (and the pure-Python replay oracle) for the same WAL;
* write amplification — MOR ingest never rewrites a committed base
  file (the partition map is unchanged across MOR commits);
* ``compact_deltas`` is a pure layout change (snapshot identical,
  tombstones KEPT);
* ``compact_lake`` over pending deltas folds them AND drops
  tombstones without resurrecting older delta rows;
* mixed mode — a CoW batch folds the partitions it touches;
* crash/resume idempotence, change feed, point lookup, split, fsck
  and history GC all see through delta files.
"""
import os

import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.functions.text import extract_text_reference
from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    changes_between,
    lake_snapshot,
    lookup_urls,
    read_lake,
    run_entity_ingest,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    auto_maintain,
    compact_deltas,
    compact_lake,
    fsck_lake,
    split_partition,
    vacuum,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal, naive_replay
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest


def _expected_lake(wal_dir):
    tables = [pq.read_table(s.path) for s in list_segments(wal_dir)]
    final = naive_replay(tables)
    return {
        url: {
            "warc_ts": row["warc_ts"],
            "seq": row["seq"],
            "text": extract_text_reference(row["html"]),
            "lang": row["lang"],
        }
        for url, row in final.items()
    }


def _snapshot_dict(lake_dir, version=None):
    table = lake_snapshot(lake_dir, version=version)
    return {
        r["url"]: {
            "warc_ts": r["warc_ts"],
            "seq": r["seq"],
            "text": r["text"],
            "lang": r["lang"],
        }
        for r in table.to_pylist()
    }


def _cfg(tmp, **kw):
    defaults = dict(
        wal_dir=os.path.join(tmp, "wal"),
        lake_dir=os.path.join(tmp, "lake"),
        num_partitions=8,
    )
    defaults.update(kw)
    return CdcConfig(**defaults)


@pytest.fixture()
def small_wal(tmp_path):
    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"),
        seed=23,
        n_urls=40,
        n_events=400,
        n_segments=8,
        delete_fraction=0.1,
        tie_fraction=0.1,
    )
    return tmp


def test_mor_matches_cow_and_oracle(small_wal):
    """Incremental MOR micro-batches converge to the same observable
    state as CoW and the pure-Python replay oracle."""
    mor = _cfg(small_wal, lake_dir=os.path.join(small_wal, "lake_mor"),
               merge_mode="mor", max_segments_per_batch=2)
    cow = _cfg(small_wal, lake_dir=os.path.join(small_wal, "lake_cow"))
    rep = run_ingest(mor)
    run_ingest(cow)
    assert rep.commits == 4
    expected = _expected_lake(mor.wal_dir)
    assert _snapshot_dict(mor.lake_dir) == expected
    assert _snapshot_dict(cow.lake_dir) == expected
    m = load_manifest(mor.lake_dir)
    assert m.delta_files, "MOR ingest must leave pending delta files"


def test_mor_never_rewrites_committed_files(small_wal):
    """Write amplification: once a delta file is committed, later MOR
    batches never rewrite or remove it — each commit only APPENDS new
    delta files (the O(delta) write path the mode exists for)."""
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=2)
    run_ingest(cfg)
    m = load_manifest(cfg.lake_dir)
    # replay the version history: every earlier version's file set is a
    # subset of the next one's
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import list_versions

    versions = list_versions(cfg.lake_dir)
    assert len(versions) >= 2
    prev = None
    for v in versions:
        mv = load_manifest(cfg.lake_dir, version=v)
        assert mv.partitions == {}, "MOR ingest must not write base files"
        files = mv.all_data_relpaths()
        if prev is not None:
            assert prev <= files
        prev = files
    assert m.all_data_relpaths() == prev


def test_compact_deltas_is_pure_layout_change(small_wal):
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=2)
    run_ingest(cfg)
    before = _snapshot_dict(cfg.lake_dir)
    m0 = load_manifest(cfg.lake_dir)
    r = compact_deltas(cfg.lake_dir)
    assert r["partitions_rewritten"] > 0 and r["delta_files_folded"] > 0
    m1 = load_manifest(cfg.lake_dir)
    assert m1.delta_files == {}
    assert m1.version == m0.version + 1
    assert _snapshot_dict(cfg.lake_dir) == before
    # tombstones are KEPT: folding deltas must not weaken the
    # late-event resurrection guard — one tombstone survives per url
    # whose WINNING event is a delete
    all_urls = {
        r["url"] for s in list_segments(cfg.wal_dir)
        for r in pq.read_table(s.path).to_pylist()
    }
    expected_tombs = len(all_urls - set(before))
    tombs_after = sum(
        m.get("tombstones", 0) for m in m1.partition_meta.values()
    )
    assert tombs_after == expected_tombs > 0
    # idempotent on a clean lake
    r2 = compact_deltas(cfg.lake_dir)
    assert r2 == {"partitions_rewritten": 0, "delta_files_folded": 0}


def test_compact_lake_folds_deltas_and_drops_tombstones(small_wal):
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=2)
    run_ingest(cfg)
    before = _snapshot_dict(cfg.lake_dir)
    r = compact_lake(cfg.lake_dir)
    assert r["tombstones_dropped"] > 0
    m = load_manifest(cfg.lake_dir)
    assert m.delta_files == {}
    assert all(
        meta.get("tombstones", 0) == 0 for meta in m.partition_meta.values()
    )
    assert _snapshot_dict(cfg.lake_dir) == before


def test_mixed_mode_cow_batch_folds_touched_partitions(tmp_path):
    """Switch modes mid-stream: the CoW phase folds the pending deltas
    of every partition it touches, and the final state still matches
    the oracle (the auto-compaction property of mode mixing)."""
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    lake = os.path.join(tmp, "lake")
    generate_wal(wal, seed=23, n_urls=40, n_events=400, n_segments=8,
                 delete_fraction=0.1, tie_fraction=0.1)
    mor = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=8,
                    merge_mode="mor")
    run_ingest(mor)  # phase 1: the whole first WAL, MOR
    assert load_manifest(lake).delta_files
    generate_wal(wal, seed=57, n_urls=40, n_events=200, n_segments=4,
                 start_segment=8, delete_fraction=0.1)
    cow = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=8,
                    merge_mode="cow")
    run_ingest(cow)  # phase 2: CoW folds what it touches
    m = load_manifest(lake)
    for part in m.partitions:
        assert part not in m.delta_files, (
            "CoW rewrite must fold the partition's pending deltas"
        )
    assert _snapshot_dict(lake) == _expected_lake(wal)


def test_mor_read_lake_dataset_and_pruning(small_wal, ray_session):
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=2)
    run_ingest(cfg)
    expected = _expected_lake(cfg.wal_dir)
    rows = read_lake(cfg.lake_dir).take_all()
    got = {r["url"]: (r["warc_ts"], r["seq"], r["text"], r["lang"])
           for r in rows}
    assert got == {u: (v["warc_ts"], v["seq"], v["text"], v["lang"])
                   for u, v in expected.items()}
    # pruned projection still sees the LWW winners
    slim = read_lake(cfg.lake_dir, columns=["url", "lang"]).take_all()
    assert sorted(slim[0].keys()) == ["lang", "url"]
    assert {r["url"]: r["lang"] for r in slim} == {
        u: v["lang"] for u, v in expected.items()
    }
    # payload filter applies AFTER the LWW reduction (never resurrects)
    import pyarrow.dataset as pads

    en = read_lake(cfg.lake_dir, filter=pads.field("lang") == "en").take_all()
    assert {r["url"] for r in en} == {
        u for u, v in expected.items() if v["lang"] == "en"
    }


def test_mor_lookup_urls(small_wal):
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=2)
    run_ingest(cfg)
    expected = _expected_lake(cfg.wal_dir)
    live = sorted(expected)[:5]
    deleted = sorted(
        {r["url"] for s in list_segments(cfg.wal_dir)
         for r in pq.read_table(s.path).to_pylist()} - set(expected)
    )
    got = lookup_urls(cfg.lake_dir, live + deleted[:2])
    assert got.column("url").to_pylist() == live
    for r in got.to_pylist():
        assert r["text"] == expected[r["url"]]["text"]


def test_mor_crash_resume_converges(small_wal, monkeypatch):
    """Kill between delta staging and manifest commit: the rerun reuses
    the already-written delta files (content-addressed paths) and
    converges — same contract as the CoW crash test. The resumed
    commit's per-partition stats (delta tombstones included, which
    maintenance plans from) equal those of an uncrashed ingest."""
    import data_hub_ejp_xml_pipeline_ray.pipelines.cdc as cdc_mod

    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=4)
    real_commit = cdc_mod.commit_manifest
    calls = {"n": 0}

    def crashing_commit(lake_dir, manifest, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:  # second micro-batch: crash before commit
            raise RuntimeError("simulated crash before manifest swap")
        return real_commit(lake_dir, manifest, **kwargs)

    monkeypatch.setattr(cdc_mod, "commit_manifest", crashing_commit)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_ingest(cfg)
    monkeypatch.setattr(cdc_mod, "commit_manifest", real_commit)
    run_ingest(cfg)  # resume
    assert _snapshot_dict(cfg.lake_dir) == _expected_lake(cfg.wal_dir)
    resumed = load_manifest(cfg.lake_dir)
    assert resumed.lineage[-1]["partitions_resumed"] > 0
    clean = _cfg(small_wal, lake_dir=os.path.join(small_wal, "clean"),
                 merge_mode="mor", max_segments_per_batch=4)
    run_ingest(clean)
    meta = load_manifest(clean.lake_dir).partition_meta
    assert sum(m.get("delta_tombstones", 0) for m in meta.values()) > 0
    assert resumed.partition_meta == meta


def test_mor_change_feed(small_wal, ray_session):
    """The change feed between two MOR versions equals the naive diff of
    the two snapshots (delta files are invisible to consumers)."""
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=4)
    run_ingest(cfg)
    versions = sorted(
        e["version"] for e in load_manifest(cfg.lake_dir).lineage
        if "segments" in e
    )
    v1, v2 = versions[0], versions[1]
    old = _snapshot_dict(cfg.lake_dir, version=v1)
    new = _snapshot_dict(cfg.lake_dir, version=v2)
    feed = {
        r["url"]: r["change_op"]
        for r in changes_between(cfg.lake_dir, v1, v2).take_all()
    }
    expected = {}
    for url in set(old) | set(new):
        if url in new and url not in old:
            expected[url] = "insert"
        elif url in old and url not in new:
            expected[url] = "delete"
        elif (new[url]["warc_ts"], new[url]["seq"]) != (
            old[url]["warc_ts"], old[url]["seq"]
        ):
            expected[url] = "update"
    assert feed == expected


def test_split_partition_with_pending_deltas(small_wal):
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=2)
    run_ingest(cfg)
    before = _snapshot_dict(cfg.lake_dir)
    m = load_manifest(cfg.lake_dir)
    part = max(m.delta_files, key=lambda p: len(m.delta_files[p]))
    r = split_partition(cfg.lake_dir, part)
    assert r["parent"] == part
    m2 = load_manifest(cfg.lake_dir)
    assert part not in m2.delta_files  # folded into the children
    assert _snapshot_dict(cfg.lake_dir) == before
    # further MOR ingest over the evolved partition map still converges
    generate_wal(cfg.wal_dir, seed=99, n_urls=40, n_events=100,
                 n_segments=2, start_segment=8, delete_fraction=0.1)
    run_ingest(cfg)
    assert _snapshot_dict(cfg.lake_dir) == _expected_lake(cfg.wal_dir)


def test_fsck_green_on_mor_lake(small_wal):
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=2)
    run_ingest(cfg)
    report = fsck_lake(cfg.lake_dir, deep=True)
    assert report["ok"], report["errors"]
    assert report["checked"]["delta_files"] > 0


def test_vacuum_keeps_live_delta_files(small_wal):
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=2)
    run_ingest(cfg)
    before = _snapshot_dict(cfg.lake_dir)
    vacuum(cfg.lake_dir, keep=1)
    assert _snapshot_dict(cfg.lake_dir) == before


def test_auto_maintain_folds_when_over_threshold(small_wal):
    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=1)
    run_ingest(cfg)  # 8 commits -> up to 8 delta files per partition
    m = load_manifest(cfg.lake_dir)
    deepest = max(len(v) for v in m.delta_files.values())
    acts = auto_maintain(
        cfg.lake_dir, max_delta_files=deepest, tombstone_ratio=1.1
    )
    assert acts["deltas_folded"] is True
    assert load_manifest(cfg.lake_dir).delta_files == {}
    assert _snapshot_dict(cfg.lake_dir) == _expected_lake(cfg.wal_dir)


def test_entity_lake_mor_matches_cow(tmp_path):
    """Group-valued lakes ride the same MOR machinery: the winning
    version's whole row-set survives the base+delta reduction."""
    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=41, n_urls=25, n_events=250,
                 n_segments=5, delete_fraction=0.1, tie_fraction=0.1)

    def entity_snapshot(lake_dir):
        out = {}
        for r in lake_snapshot(lake_dir).to_pylist():
            out.setdefault(r["url"], []).append(
                str((r["warc_ts"], r["seq"], r["entity_type"], r["title"],
                     r["href"], r["anchor"], r["link_index"], r["level"]))
            )
        return {u: sorted(v) for u, v in out.items()}

    mor = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake_mor"),
                    num_partitions=8,
                    merge_mode="mor", max_segments_per_batch=2)
    cow = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake_cow"),
                    num_partitions=8)
    run_entity_ingest(mor)
    run_entity_ingest(cow)
    assert load_manifest(mor.lake_dir).delta_files
    assert entity_snapshot(mor.lake_dir) == entity_snapshot(cow.lake_dir)
    compact_deltas(mor.lake_dir)
    assert entity_snapshot(mor.lake_dir) == entity_snapshot(cow.lake_dir)


def test_mor_schema_evolution_across_delta_files(tmp_path):
    """Schema evolution lands mid-MOR-stream: v1-era delta files pend
    under the evolved (v2) manifest schema. The merge-on-read scan
    null-fills / widens the old delta files on the fly — same union
    semantics the CoW path applies — and folding afterwards changes
    nothing observable."""
    import pyarrow as pa

    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=5, n_urls=30, n_events=300,
                 n_segments=6, v2_from_segment=3, delete_fraction=0.08)
    mor = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake_mor"),
                    num_partitions=8,
                    merge_mode="mor", max_segments_per_batch=2)
    cow = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake_cow"),
                    num_partitions=8,
                    max_segments_per_batch=2)
    run_ingest(mor)
    run_ingest(cow)
    m = load_manifest(mor.lake_dir)
    assert m.delta_files
    assert m.schema.field("fetch_status").type == pa.int64()
    assert "content_type" in m.schema.names
    snap_mor = lake_snapshot(mor.lake_dir)
    assert snap_mor.equals(lake_snapshot(cow.lake_dir))
    assert snap_mor.schema.field("fetch_status").type == pa.int64()
    by_url = {r["url"]: r for r in snap_mor.to_pylist()}
    assert any(r["content_type"] is None for r in by_url.values())
    assert any(r["content_type"] is not None for r in by_url.values())
    compact_deltas(mor.lake_dir)
    assert lake_snapshot(mor.lake_dir).equals(snap_mor)


def test_nested_lake_mor_across_struct_evolution(tmp_path):
    """The nested list<struct> lake rides MOR too: v1-struct delta
    files pending under the evolved v2 manifest null-fill the new
    struct field element-wise at scan time (recursive conform), and
    MOR equals CoW for the same WAL."""
    import shutil

    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import run_nested_ingest

    tmp = str(tmp_path)
    # wal1 = segments 0-3 (ingested under struct v1); wal2 = wal1 plus
    # segments 4-5 (the v2-era tail) — both builds see identical WALs
    wal1 = os.path.join(tmp, "wal1")
    generate_wal(wal1, seed=41, n_urls=20, n_events=120, n_segments=4,
                 delete_fraction=0.1, rich_pages=True)
    wal2 = os.path.join(tmp, "wal2")
    shutil.copytree(wal1, wal2)
    generate_wal(wal2, seed=43, n_urls=20, n_events=60, n_segments=2,
                 start_segment=4, delete_fraction=0.1, rich_pages=True)

    def build(lake, mode):
        cfg = CdcConfig(wal_dir=wal1, lake_dir=lake, num_partitions=8,
                        merge_mode=mode,
                        max_segments_per_batch=2)
        run_nested_ingest(cfg, struct_version=1)
        cfg2 = CdcConfig(wal_dir=wal2, lake_dir=lake, num_partitions=8,
                         merge_mode=mode,
                         max_segments_per_batch=2)
        run_nested_ingest(cfg2, struct_version=2)
        return lake_snapshot(lake)

    snap_mor = build(os.path.join(tmp, "lake_mor"), "mor")
    m = load_manifest(os.path.join(tmp, "lake_mor"))
    assert m.delta_files
    assert "rel" in str(m.schema.field("links").type)  # evolved
    snap_cow = build(os.path.join(tmp, "lake_cow"), "cow")
    assert snap_mor.equals(snap_cow)
    compact_deltas(os.path.join(tmp, "lake_mor"))
    assert lake_snapshot(os.path.join(tmp, "lake_mor")).equals(snap_cow)


def test_incremental_view_over_mor_lake(small_wal):
    """A feed-driven materialized view refreshed across MOR commits
    equals a from-scratch recount — the change feed hides the delta
    layout from downstream consumers."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        read_view,
        refresh_live_counts,
    )

    cfg = _cfg(small_wal, merge_mode="mor", max_segments_per_batch=4,
               retain_versions=None)
    view_dir = os.path.join(small_wal, "view")
    run_ingest(cfg)  # two MOR commits
    # full build pinned at v1, then an INCREMENTAL refresh rides the
    # v1->v2 change feed — both over pure-delta-file versions
    r1 = refresh_live_counts(cfg.lake_dir, view_dir, at_version=1)
    r2 = refresh_live_counts(cfg.lake_dir, view_dir)
    assert r1["mode"] == "full" and r2["mode"] == "incremental"
    expected = {}
    for v in _expected_lake(cfg.wal_dir).values():
        expected[v["lang"]] = expected.get(v["lang"], 0) + 1
    got = {r["lang"]: r["n"] for r in read_view(view_dir).to_pylist()}
    assert got == expected


def test_unknown_merge_mode_rejected(small_wal):
    with pytest.raises(ValueError, match="unknown merge mode"):
        run_ingest(_cfg(small_wal, merge_mode="upsert"))


@pytest.mark.parametrize("seed", [3, 17])
def test_random_mode_and_maintenance_interleaving_converges(tmp_path, seed):
    """Property: ANY interleaving of MOR/CoW ingest phases with
    maintenance ops (delta fold, tombstone compact, split, cluster,
    vacuum) converges to the replay oracle, and the lake stays
    fsck-clean (deep) at the end — the operational safety net for
    mixing the write-amplification dial with background maintenance."""
    import random

    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        cluster_lake,
        compact_lake,
    )

    rng = random.Random(seed)
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    lake = os.path.join(tmp, "lake")
    phases = [(0, 4), (4, 3), (7, 3)]
    for i, (start, n) in enumerate(phases):
        generate_wal(wal, seed=seed * 7 + i, n_urls=30, n_events=n * 40,
                     n_segments=n, start_segment=start,
                     delete_fraction=0.1, tie_fraction=0.1)
        mode = rng.choice(["mor", "cow"])
        cfg = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=8,
                        merge_mode=mode,
                        max_segments_per_batch=rng.choice([1, 2, 4]))
        run_ingest(cfg)
        op = rng.choice(["none", "fold", "compact", "split", "cluster",
                         "vacuum"])
        if op == "fold":
            compact_deltas(lake)
        elif op == "compact":
            compact_lake(lake)
        elif op == "cluster":
            cluster_lake(lake, "url")
        elif op == "vacuum":
            vacuum(lake, keep=1)
        elif op == "split":
            m = load_manifest(lake)
            parts = m.all_parts()
            if parts:
                split_partition(lake, rng.choice(parts))
    assert _snapshot_dict(lake) == _expected_lake(wal)
    report = fsck_lake(lake, deep=True)
    assert report["ok"], report["errors"]
