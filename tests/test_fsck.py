"""fsck: the read-only integrity audit — green on a healthy lake
(shallow AND deep, across compaction/split history), and each
corruption class is detected: missing data file, stat drift, broken
partition covering, orphan files (warning only), misrouted rows."""
import json
import os
import shutil

import pyarrow.parquet as pq

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import CdcConfig, run_ingest
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    compact_lake,
    fsck_lake,
    split_partition,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
    load_manifest,
    manifest_path,
    snapshot_path,
)


def _mklake(tmp: str, **kw) -> CdcConfig:
    generate_wal(
        os.path.join(tmp, "wal"), seed=23, n_urls=60, n_events=600,
        n_segments=4, delete_fraction=0.1, **kw,
    )
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=8)
    run_ingest(cfg)
    return cfg


def test_fsck_green_on_healthy_lake_and_after_maintenance(tmp_path):
    cfg = _mklake(str(tmp_path))
    rep = fsck_lake(cfg.lake_dir, deep=True)
    assert rep["ok"], rep["errors"]
    assert rep["checked"]["partitions"] == 8
    assert rep["deep"]["partitions_scanned"] == 8

    # stays green across partition split + compaction (split map active)
    split_partition(cfg.lake_dir, 3)
    compact_lake(cfg.lake_dir)
    rep2 = fsck_lake(cfg.lake_dir, deep=True)
    assert rep2["ok"], rep2["errors"]
    assert rep2["checked"]["partitions"] == 9  # 8 - 1 split parent + 2


def test_fsck_detects_missing_data_file(tmp_path):
    cfg = _mklake(str(tmp_path))
    m = load_manifest(cfg.lake_dir)
    victim = sorted(m.partitions.items())[0][1]
    os.remove(os.path.join(cfg.lake_dir, victim))
    rep = fsck_lake(cfg.lake_dir)
    assert not rep["ok"]
    assert any("missing data file" in e for e in rep["errors"])


def test_fsck_detects_stat_drift(tmp_path):
    cfg = _mklake(str(tmp_path))
    m = load_manifest(cfg.lake_dir)
    victim = sorted(m.partitions.items())[0][1]
    with open(os.path.join(cfg.lake_dir, victim), "ab") as f:
        f.write(b"garbage-tail")  # bytes drift vs manifest stats
    rep = fsck_lake(cfg.lake_dir)
    assert not rep["ok"]
    assert any("manifest bytes" in e for e in rep["errors"])


def test_fsck_detects_broken_covering_and_snapshot_disagreement(tmp_path):
    cfg = _mklake(str(tmp_path))
    m = load_manifest(cfg.lake_dir)
    doc = m.to_json()
    # drop one partition from the live map: the covering now has a hole
    # and the retained snapshot disagrees with the manifest
    dropped = sorted(doc["partitions"])[0]
    doc["partitions"].pop(dropped)
    with open(manifest_path(cfg.lake_dir), "w") as f:
        json.dump(doc, f)
    rep = fsck_lake(cfg.lake_dir)
    assert not rep["ok"]
    assert any("tile crc32 space" in e for e in rep["errors"])
    assert any("disagrees" in e for e in rep["errors"])


def test_fsck_orphan_files_warn_but_pass(tmp_path):
    cfg = _mklake(str(tmp_path))
    m = load_manifest(cfg.lake_dir)
    src = sorted(m.partitions.items())[0][1]
    shutil.copy(
        os.path.join(cfg.lake_dir, src),
        os.path.join(cfg.lake_dir, "data", "part-99999-orphan.parquet"),
    )
    rep = fsck_lake(cfg.lake_dir)
    assert rep["ok"], rep["errors"]
    assert any("awaiting GC" in w for w in rep["warnings"])


def test_fsck_deep_detects_misrouted_rows(tmp_path):
    """Swap two partitions' data files (updating the manifest stats so
    every SHALLOW check still passes): only the deep per-url routing
    audit can see the corruption."""
    cfg = _mklake(str(tmp_path))
    m = load_manifest(cfg.lake_dir)
    (pa_, rel_a), (pb_, rel_b) = sorted(m.partitions.items())[:2]
    path_a = os.path.join(cfg.lake_dir, rel_a)
    path_b = os.path.join(cfg.lake_dir, rel_b)
    tmp_swap = path_a + ".swap"
    os.rename(path_a, tmp_swap)
    os.rename(path_b, path_a)
    os.rename(tmp_swap, path_b)

    doc = m.to_json()
    for part, path in ((pa_, path_a), (pb_, path_b)):
        meta = doc["partition_meta"][str(part)]
        meta["bytes"] = os.path.getsize(path)
        meta["rows"] = pq.ParquetFile(path).metadata.num_rows
    body = json.dumps(doc)
    with open(manifest_path(cfg.lake_dir), "w") as f:
        f.write(body)
    with open(snapshot_path(cfg.lake_dir, m.version), "w") as f:
        f.write(body)

    assert fsck_lake(cfg.lake_dir)["ok"]  # shallow can't see it
    rep = fsck_lake(cfg.lake_dir, deep=True)
    assert not rep["ok"]
    assert any("routes to a different partition" in e for e in rep["errors"])


def test_fsck_flags_dangling_tag_and_cursor(tmp_path):
    """Out-of-band snapshot deletion leaves a tag / consumer cursor
    pinning a version with no retained snapshot — fsck reports both."""
    import json

    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        ack_changes,
        next_changes,
    )
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
        cursors_path,
        snapshot_path,
        tag_version,
    )

    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    generate_wal(wal, seed=91, n_urls=20, n_events=200, n_segments=2)
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4,
                         max_segments_per_batch=1, retain_versions=None))
    tag_version(lake, "release", 1)
    _, tok = next_changes(lake, "wh")
    ack_changes(lake, tok)  # cursor at v2 (head)
    assert fsck_lake(lake)["ok"]
    # out-of-band damage: drop v1's snapshot, point the cursor at it
    os.remove(snapshot_path(lake, 1))
    with open(cursors_path(lake), "w", encoding="utf-8") as f:
        json.dump({"wh": 1}, f)
    r = fsck_lake(lake)
    assert not r["ok"]
    assert any("tag 'release'" in e for e in r["errors"])
    assert any("cursor 'wh'" in e for e in r["errors"])


def test_fsck_branch_awareness(tmp_path):
    """Branches are audited: healthy branch listed, branch-pinned
    grace files not counted as orphans, missing inherited file is an
    error, manifest-less branch dir is debris."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.branching import (
        create_branch,
    )
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import branch_dir

    tmp = str(tmp_path)
    cfg = _mklake(tmp)
    create_branch(cfg.lake_dir, "stage")
    rep = fsck_lake(cfg.lake_dir)
    assert rep["ok"], rep["errors"]
    assert rep["checked"]["branches"] == ["stage"]

    # out-of-band deletion of an inherited file breaks the branch
    bdir = branch_dir(cfg.lake_dir, "stage")
    bm = load_manifest(bdir)
    victim = sorted(bm.all_data_relpaths())[0]
    os.remove(os.path.join(bdir, victim))
    rep2 = fsck_lake(cfg.lake_dir)
    assert not rep2["ok"]
    assert any("branch 'stage'" in e and "missing data file" in e
               for e in rep2["errors"])

    # a branch dir without a committed manifest is debris (warning)
    os.makedirs(os.path.join(cfg.lake_dir, "_branches", "junk"))
    rep3 = fsck_lake(cfg.lake_dir)
    assert any("debris" in w for w in rep3["warnings"])
