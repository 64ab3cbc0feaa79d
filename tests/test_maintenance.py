"""Compaction: tombstones physically dropped, state preserved, and the
late-event hazard compaction reintroduces is documented behavior."""
import os

import pyarrow.parquet as pq

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import compact_lake
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest


def test_compact_drops_tombstones_preserves_live_rows(tmp_path):
    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"), seed=17, n_urls=40, n_events=400,
        n_segments=4, delete_fraction=0.15,
    )
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=8)
    run_ingest(cfg)
    before = lake_snapshot(cfg.lake_dir)
    m = load_manifest(cfg.lake_dir)
    tombs = sum(v.get("tombstones", 0) for v in m.partition_meta.values())
    assert tombs > 0, "fixture must produce tombstones"
    physical_rows = sum(
        pq.ParquetFile(os.path.join(cfg.lake_dir, rel)).metadata.num_rows
        for rel in m.partitions.values()
    )
    assert physical_rows == before.num_rows + tombs

    out = compact_lake(cfg.lake_dir)
    assert out["tombstones_dropped"] == tombs
    m2 = load_manifest(cfg.lake_dir)
    assert m2.version == m.version + 1
    assert m2.watermark == m.watermark
    after = lake_snapshot(cfg.lake_dir)
    assert after.equals(before)  # visible state unchanged
    physical2 = sum(
        pq.ParquetFile(os.path.join(cfg.lake_dir, rel)).metadata.num_rows
        for rel in m2.partitions.values()
    )
    assert physical2 == after.num_rows  # tombstones physically gone
    # second compaction is a no-op
    out2 = compact_lake(cfg.lake_dir)
    assert out2 == {"partitions_rewritten": 0, "tombstones_dropped": 0}


def test_ingest_continues_after_compaction(tmp_path):
    """Compaction must not disturb subsequent incremental merges: new
    segments after a compact merge against the compacted partitions."""
    from data_hub_ejp_xml_pipeline_ray.functions.text import extract_text_reference
    from data_hub_ejp_xml_pipeline_ray.sources.synthetic import naive_replay
    from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments

    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=19, n_urls=30, n_events=300,
                 n_segments=6, delete_fraction=0.12)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=8,
                    max_segments_per_batch=3)
    run_ingest(cfg)  # two commits? no: 6 segments / 3 = 2 commits
    compact_lake(cfg.lake_dir)
    # more WAL lands after compaction
    generate_wal(os.path.join(tmp, "wal"), seed=77, n_urls=30, n_events=150,
                 n_segments=3, start_segment=6, delete_fraction=0.1)
    run_ingest(cfg)
    snap = {r["url"]: (r["warc_ts"], r["seq"], r["text"])
            for r in lake_snapshot(cfg.lake_dir).to_pylist()}
    tables = [pq.read_table(s.path) for s in list_segments(cfg.wal_dir)]
    expected = {
        url: (row["warc_ts"], row["seq"], extract_text_reference(row["html"]))
        for url, row in naive_replay(tables).items()
    }
    # compaction dropped tombstones; late events in the NEW segments are
    # all >= their url's prior version by generator construction for the
    # new urls, but resurrected deletes are possible for dropped
    # tombstones — assert equality on urls whose final op is live.
    assert set(snap) >= set(expected)
    for url, v in expected.items():
        assert snap[url] == v


def test_split_partition_then_ingest_converges(tmp_path):
    """Partition-count evolution: ingest half the WAL, split the
    largest partition (and one child again), ingest the rest — the
    final state must equal a clean single-shot lake AND the replay
    oracle; lookups must route through the split map."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import lookup_urls
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        split_overflowing,
        split_partition,
    )

    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"), seed=23, n_urls=120, n_events=1200,
        n_segments=6, delete_fraction=0.08, tie_fraction=0.05,
    )
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4,
                    max_segments_per_batch=3)

    # clean single-shot reference lake
    ref_cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                        lake_dir=os.path.join(tmp, "ref_lake"),
                        num_partitions=4)
    run_ingest(ref_cfg)
    expected = lake_snapshot(ref_cfg.lake_dir)

    # ingest first batch, then split the biggest partition twice
    import shutil
    shutil.move(os.path.join(tmp, "wal", "segment-00003.parquet"), tmp)
    shutil.move(os.path.join(tmp, "wal", "segment-00004.parquet"), tmp)
    shutil.move(os.path.join(tmp, "wal", "segment-00005.parquet"), tmp)
    run_ingest(cfg)
    m = load_manifest(cfg.lake_dir)
    biggest = max(m.partition_meta, key=lambda p: m.partition_meta[p]["rows"])
    out = split_partition(cfg.lake_dir, biggest)
    assert out["parent"] == biggest and out["modulus"] == 4
    m2 = load_manifest(cfg.lake_dir)
    assert [biggest, 4] in m2.splits
    assert biggest not in m2.partitions or m2.partition_meta[biggest]["modulus"] == 8
    # split one child again (depth 2) if live
    child = next(iter(out["children"]))
    out2 = split_partition(cfg.lake_dir, child)
    assert out2["modulus"] == 8

    # byte-threshold driven split touches every oversized partition
    split_overflowing(cfg.lake_dir, max_partition_bytes=1)

    # land the rest of the WAL and ingest through the split routing
    for seg in ["segment-00003.parquet", "segment-00004.parquet",
                "segment-00005.parquet"]:
        shutil.move(os.path.join(tmp, seg), os.path.join(tmp, "wal", seg))
    run_ingest(cfg)

    got = lake_snapshot(cfg.lake_dir)
    assert got.equals(expected)

    # split-aware point lookup
    some = expected.column("url").to_pylist()[:5]
    looked = lookup_urls(cfg.lake_dir, some)
    assert looked.column("url").to_pylist() == sorted(some)


def test_split_partition_on_nested_lake_preserves_state(tmp_path):
    """Maintenance ops must work on every lake shape: splitting a
    partition whose rows carry list<struct> columns preserves the
    visible state bit-for-bit."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import run_nested_ingest
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import split_partition

    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=61, n_urls=30, n_events=200,
                 n_segments=2, rich_pages=True)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_nested_ingest(cfg, struct_version=2)
    before = lake_snapshot(cfg.lake_dir)
    m = load_manifest(cfg.lake_dir)
    biggest = max(m.partition_meta, key=lambda p: m.partition_meta[p]["rows"])
    split_partition(cfg.lake_dir, biggest)
    after = lake_snapshot(cfg.lake_dir)
    assert after.equals(before)
    assert load_manifest(cfg.lake_dir).splits == [[biggest, 4]]


def test_compact_refuses_while_writer_live(tmp_path):
    """compact_lake must take the writer lock: a live writer's lease
    makes it fail fast instead of silently overwriting that writer's
    commit (regression: compact committed without lock or CAS)."""
    import pytest

    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
        ConcurrentWriterError,
        writer_lock,
    )

    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=17, n_urls=40,
                 n_events=400, n_segments=4, delete_fraction=0.15)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)
    with writer_lock(cfg.lake_dir):
        with pytest.raises(ConcurrentWriterError):
            compact_lake(cfg.lake_dir)
    # lock released: compaction proceeds normally
    assert compact_lake(cfg.lake_dir)["tombstones_dropped"] > 0


def test_cluster_lake_sorts_and_prunes_row_groups(tmp_path):
    """Sort clustering: logical state unchanged, files sorted by the
    key with bounded row groups, and row-group min/max stats become
    selective (a point lookup matches exactly one row group)."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import changes_between
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import cluster_lake

    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"), seed=23, n_urls=300, n_events=3000,
        n_segments=4,
    )
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)
    before = lake_snapshot(cfg.lake_dir)
    m = load_manifest(cfg.lake_dir)

    out = cluster_lake(cfg.lake_dir, "url", row_group_rows=16)
    assert out["partitions_rewritten"] == len(m.partitions)
    m2 = load_manifest(cfg.lake_dir)
    assert m2.version == m.version + 1 and m2.watermark == m.watermark
    after = lake_snapshot(cfg.lake_dir)
    assert after.equals(before)  # pure layout rewrite

    # every file: sorted by url, multiple bounded row groups, and
    # DISJOINT per-row-group url ranges -> point lookups prune
    probed = 0
    for rel in m2.partitions.values():
        f = pq.ParquetFile(os.path.join(cfg.lake_dir, rel))
        md = f.metadata
        if md.num_rows > 16:
            assert md.num_row_groups > 1
        col = f.schema_arrow.names.index("url")
        ranges = [
            (md.row_group(g).column(col).statistics.min,
             md.row_group(g).column(col).statistics.max)
            for g in range(md.num_row_groups)
        ]
        assert all(lo <= hi for lo, hi in ranges)
        for (_, hi), (lo2, _) in zip(ranges, ranges[1:]):
            assert hi <= lo2  # sorted file -> non-overlapping stats
        # a point lookup on the first url matches exactly one row group
        target = ranges[0][0]
        probed += 1
        assert sum(1 for lo, hi in ranges if lo <= target <= hi) == 1
    assert probed == len(m2.partitions)

    # the change feed across a cluster commit reports zero row changes
    assert changes_between(cfg.lake_dir, m.version, m2.version).count() == 0

    # bad sort key is rejected before any rewrite
    import pytest
    with pytest.raises(ValueError):
        cluster_lake(cfg.lake_dir, "no_such_column")


def test_cluster_then_ingest_converges(tmp_path):
    """Sort clustering is a pure layout rewrite: ingesting more WAL
    AFTER a cluster must converge to the clean single-shot lake (the
    merge reads the re-laid-out base files transparently)."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import cluster_lake

    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=29, n_urls=50, n_events=500,
                 n_segments=6, delete_fraction=0.1)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=8,
                    max_segments_per_batch=3)
    run_ingest(cfg)
    cluster_lake(cfg.lake_dir, "url", row_group_rows=32)
    generate_wal(os.path.join(tmp, "wal"), seed=83, n_urls=50, n_events=250,
                 n_segments=3, start_segment=6, delete_fraction=0.1)
    run_ingest(cfg)

    clean = CdcConfig(wal_dir=cfg.wal_dir,
                      lake_dir=os.path.join(tmp, "clean"),
                      num_partitions=8,
                      max_segments_per_batch=64)
    run_ingest(clean)
    a = lake_snapshot(cfg.lake_dir)
    b = lake_snapshot(clean.lake_dir)
    assert a.num_rows == b.num_rows
    assert a.sort_by("url").equals(b.sort_by("url"))


def test_cluster_lake_zorder_prunes_on_every_key(tmp_path):
    """Z-ORDER clustering: logical state unchanged, and row-group
    min/max stats stay selective for EVERY clustering column — vs
    lexicographic sort, which leaves the non-leading column
    unprunable (its per-row-group range covers everything)."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import changes_between
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import cluster_lake

    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"), seed=31, n_urls=2000, n_events=6000,
        n_segments=2,
    )
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=1)
    run_ingest(cfg)
    before = lake_snapshot(cfg.lake_dir)
    langs = sorted(set(before.column("lang").to_pylist()))
    assert len(langs) >= 3

    def coverage(rel, col_name, needle):
        f = pq.ParquetFile(os.path.join(cfg.lake_dir, rel))
        md = f.metadata
        col = f.schema_arrow.names.index(col_name)
        hit = sum(
            1 for g in range(md.num_row_groups)
            if md.row_group(g).column(col).statistics.min <= needle
            <= md.row_group(g).column(col).statistics.max
        )
        return hit / md.num_row_groups, md.num_row_groups

    # -- baseline: LINEAR sort by url -> lang stats cover everything
    cluster_lake(cfg.lake_dir, "url", row_group_rows=16)
    m1 = load_manifest(cfg.lake_dir)
    rel = next(iter(m1.partitions.values()))
    lang_cov_linear, n_groups = coverage(rel, "lang", langs[1])
    assert n_groups > 20
    assert lang_cov_linear >= 0.9  # unprunable on the non-sort column

    # -- Z-ORDER by (lang, url): both columns stay selective
    out = cluster_lake(
        cfg.lake_dir, ["lang", "url"], row_group_rows=16, method="zorder"
    )
    assert out["method"] == "zorder"
    m2 = load_manifest(cfg.lake_dir)
    assert lake_snapshot(cfg.lake_dir).equals(before)  # layout-only
    assert changes_between(cfg.lake_dir, m1.version, m2.version).count() == 0
    rel = next(iter(m2.partitions.values()))
    lang_cov_z, _ = coverage(rel, "lang", langs[1])
    url_needle = before.column("url")[before.num_rows // 2].as_py()
    url_cov_z, _ = coverage(rel, "url", url_needle)
    assert lang_cov_z <= 0.6, lang_cov_z   # prunes on lang now
    assert url_cov_z <= 0.5, url_cov_z     # AND still prunes on url
    assert lang_cov_z < lang_cov_linear

    # unknown method rejected before any rewrite
    import pytest
    with pytest.raises(ValueError):
        cluster_lake(cfg.lake_dir, ["lang", "url"], method="hilbert")


def test_rewind_watermark_backfill_converges(tmp_path):
    """Controlled backfill: rewind the watermark to the beginning and
    re-ingest — LWW replay must converge to the identical lake state;
    forward moves are refused."""
    import pytest

    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        rewind_watermark,
    )

    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=37, n_urls=60, n_events=600,
                 n_segments=3, delete_fraction=0.1)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)
    before = lake_snapshot(cfg.lake_dir)
    wm = load_manifest(cfg.lake_dir).watermark

    with pytest.raises(ValueError):
        rewind_watermark(cfg.lake_dir, "segment-99999.parquet")

    r = rewind_watermark(cfg.lake_dir, None)
    assert r["rewound"] and r["from"] == wm and r["to"] is None
    m = load_manifest(cfg.lake_dir)
    assert m.watermark is None and m.lineage[-1]["op"] == "rewind"

    res = run_ingest(cfg)
    assert res.commits >= 1 and res.watermark == wm
    assert lake_snapshot(cfg.lake_dir).equals(before)  # replay == state

    # partial rewind: reprocess only the last segment
    rewind_watermark(cfg.lake_dir, "segment-00001.parquet")
    res = run_ingest(cfg)
    assert res.commits == 1 and res.events_applied > 0
    assert lake_snapshot(cfg.lake_dir).equals(before)


def test_auto_maintain_policy_runs_due_actions(tmp_path):
    """Policy runner: decisions come from manifest stats only; each
    due action runs through the existing lock+CAS ops and the state
    stays equal to the pre-maintenance live rows."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        auto_maintain,
    )

    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=47, n_urls=60, n_events=800,
                 n_segments=2, delete_fraction=0.3)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)
    before = lake_snapshot(cfg.lake_dir)

    # high thresholds: nothing due
    a = auto_maintain(cfg.lake_dir, tombstone_ratio=0.99,
                      max_partition_bytes=1 << 40)
    assert not a["compacted"] and a["splits"] == 0 and not a["vacuumed"]
    assert a["tombstones"] > 0  # the stats were read

    # aggressive thresholds: compact + split + vacuum all fire
    a = auto_maintain(cfg.lake_dir, tombstone_ratio=0.0,
                      max_partition_bytes=1, vacuum_keep=1)
    assert a["compacted"] and a["tombstones_dropped"] > 0
    assert a["splits"] > 0 and a["vacuumed"]
    assert lake_snapshot(cfg.lake_dir).equals(before)  # live state intact

    # idempotent second pass: tombstones gone -> no compact
    a = auto_maintain(cfg.lake_dir, tombstone_ratio=0.0,
                      max_partition_bytes=1 << 40)
    assert not a["compacted"] and a["tombstones"] == 0


# ---------------------------------------------------------------------------
# clone_lake (deep snapshot clone)
# ---------------------------------------------------------------------------

def test_clone_lake_state_and_resume(tmp_path):
    """Clone == source snapshot bit-exactly; the carried watermark means
    re-tailing the same WAL is a no-op, and NEW segments apply to the
    clone independently of the source."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        clone_lake,
    )

    wal = str(tmp_path / "wal")
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    generate_wal(wal, seed=61, n_urls=30, n_events=400, n_segments=4,
                 delete_fraction=0.1)
    cfg_src = CdcConfig(wal_dir=wal, lake_dir=src, num_partitions=4)
    run_ingest(cfg_src)
    r = clone_lake(src, dst)
    assert r["files_copied"] > 0 and r["watermark"] == "segment-00003.parquet"
    a = lake_snapshot(src).sort_by([("url", "ascending")])
    b = lake_snapshot(dst).sort_by([("url", "ascending")])
    assert a.equals(b)
    mc = load_manifest(dst)
    assert mc.version == 1 and mc.zones and mc.watermark == r["watermark"]
    # same WAL -> watermark makes re-ingest a no-op on the clone
    cfg_dst = CdcConfig(wal_dir=wal, lake_dir=dst, num_partitions=4)
    assert run_ingest(cfg_dst).commits == 0
    # new segments apply to the clone only
    generate_wal(wal, seed=62, n_urls=30, n_events=100, n_segments=1,
                 start_segment=4, delete_fraction=0.0)
    assert run_ingest(cfg_dst).commits == 1
    assert lake_snapshot(dst).num_rows >= lake_snapshot(src).num_rows
    # source untouched by the clone's progress
    assert load_manifest(src).version == 1


def test_clone_lake_independent_of_source_vacuum(tmp_path):
    """The clone owns its files: vacuuming (even deleting) the source
    cannot break the clone, and vice versa."""
    import shutil

    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        clone_lake,
        vacuum,
    )

    wal = str(tmp_path / "wal")
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    generate_wal(wal, seed=63, n_urls=25, n_events=300, n_segments=2)
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=src, num_partitions=4))
    clone_lake(src, dst)
    before = lake_snapshot(dst)
    vacuum(src, keep=1)
    shutil.rmtree(src)  # even total source loss
    assert lake_snapshot(dst).equals(before)


def test_clone_refuses_nonempty_dst(tmp_path):
    import pytest

    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        clone_lake,
    )

    wal = str(tmp_path / "wal")
    src = str(tmp_path / "src")
    generate_wal(wal, seed=64, n_urls=10, n_events=100, n_segments=1)
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=src, num_partitions=2))
    dst = str(tmp_path / "dst")
    os.makedirs(dst)
    with open(os.path.join(dst, "junk"), "w") as f:
        f.write("x")
    with pytest.raises(FileExistsError):
        clone_lake(src, dst)


# ---------------------------------------------------------------------------
# restore_lake (Delta RESTORE: head rollback to a retained snapshot)
# ---------------------------------------------------------------------------

def test_restore_rolls_back_and_replay_converges(tmp_path):
    """Restore == old snapshot bit-exactly as a NEW version (history
    kept); the carried-back watermark makes the next ingest REPLAY the
    rolled-back range and converge to the pre-restore head state; the
    feed across the restore is the inverse diff."""
    import pytest

    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import changes_between
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        restore_lake,
    )

    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    generate_wal(wal, seed=71, n_urls=30, n_events=400, n_segments=4,
                 delete_fraction=0.15)
    cfg = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4,
                    max_segments_per_batch=2,
                    retain_versions=None)
    run_ingest(cfg)  # v1 (segments 0-1), v2 (segments 2-3)
    head = lake_snapshot(lake).sort_by([("url", "ascending")])
    v1 = lake_snapshot(lake, version=1).sort_by([("url", "ascending")])

    r = restore_lake(lake, 1)
    assert r["new_version"] == 3 and r["watermark"] == "segment-00001.parquet"
    assert lake_snapshot(lake).sort_by([("url", "ascending")]).equals(v1)
    # history preserved: the bad v2 is still time-travelable
    assert lake_snapshot(lake, version=2).num_rows > 0
    # restore feed (v2 -> v3) is the INVERSE of the rolled-back feed
    fwd = {r_["url"]: r_["change_op"]
           for r_ in changes_between(lake, 1, 2).take_all()}
    inv = {r_["url"]: r_["change_op"]
           for r_ in changes_between(lake, 2, 3).take_all()}
    assert set(fwd) == set(inv)
    assert all(inv[u] == "delete" for u, op in fwd.items() if op == "insert")
    # replay: same WAL re-applies segments 2-3, converging to the head
    run_ingest(cfg)
    assert lake_snapshot(lake).sort_by([("url", "ascending")]).equals(head)
    # refusals: not-older target
    with pytest.raises(ValueError):
        restore_lake(lake, 99)


def test_restore_across_split_guards_feed(tmp_path):
    """Restoring past a partition split regresses the split map: reads
    still work, but a change feed crossing that boundary is REFUSED
    (pairing assumes the map only grows)."""
    import pytest

    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import changes_between
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        restore_lake,
        split_partition,
    )

    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    generate_wal(wal, seed=72, n_urls=40, n_events=400, n_segments=2)
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4,
                         retain_versions=None))
    v1 = lake_snapshot(lake).sort_by([("url", "ascending")])
    split_partition(lake, 1)  # v2, split map grew
    restore_lake(lake, 1)     # v3, split map REGRESSED vs v2
    assert lake_snapshot(lake).sort_by([("url", "ascending")]).equals(v1)
    with pytest.raises(ValueError, match="split map regressed"):
        changes_between(lake, 2, 3)
    # non-crossing feeds still fine
    assert changes_between(lake, 1, 3).count() == 0
