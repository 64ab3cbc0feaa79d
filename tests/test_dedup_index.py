"""Incrementally-maintained exact-dedup index (`pipelines/dedup_index`):
the feed-maintained (key -> urls) state must equal the snapshot
projection after any refresh schedule, across deletes, multi-version
gaps, compaction and vacuumed history."""
import os

import pyarrow as pa
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.dedup_index import (
    dup_groups,
    index_pairs,
    refresh_dedup_index,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    compact_lake,
    vacuum,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import (
    derive_wal_from_events,
    generate_wal,
)


def _pairs(index_dir):
    t = pa.concat_tables(
        list(index_pairs(index_dir).iter_batches(batch_format="pyarrow"))
    )
    return sorted(zip(t.column("key").to_pylist(), t.column("url").to_pylist()))


def _snapshot_pairs(lake_dir, key_col="text"):
    snap = lake_snapshot(lake_dir)
    return sorted(
        (k, u)
        for k, u in zip(
            snap.column(key_col).to_pylist(), snap.column("url").to_pylist()
        )
        if k is not None
    )


def _groups(index_dir):
    t = pa.concat_tables(
        list(dup_groups(index_dir).iter_batches(batch_format="pyarrow"))
    )
    return sorted(
        zip(
            t.column("key").to_pylist(),
            t.column("n_urls").to_pylist(),
            t.column("min_url").to_pylist(),
        )
    )


@pytest.fixture()
def lake(tmp_path):
    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"), seed=47, n_urls=60, n_events=600,
        n_segments=6, delete_fraction=0.12, tie_fraction=0.1,
    )
    cfg = CdcConfig(
        wal_dir=os.path.join(tmp, "wal"),
        lake_dir=os.path.join(tmp, "lake"),
        num_partitions=8,
        max_segments_per_batch=2,  # -> v1, v2, v3
        retain_versions=None,
    )
    run_ingest(cfg)
    return cfg


def test_incremental_matches_full_rebuild(lake, tmp_path):
    idx = str(tmp_path / "idx")
    r1 = refresh_dedup_index(lake.lake_dir, idx, at_version=1)
    assert r1["mode"] == "full" and r1["lake_version"] == 1
    # one refresh spanning a multi-version gap (v1 -> v3), with the
    # generator's deletes retiring pairs along the way
    r2 = refresh_dedup_index(lake.lake_dir, idx)
    assert r2["mode"] == "incremental" and r2["lake_version"] == 3
    assert _pairs(idx) == _snapshot_pairs(lake.lake_dir)
    fresh = str(tmp_path / "idx_full")
    refresh_dedup_index(lake.lake_dir, fresh)
    assert _pairs(idx) == _pairs(fresh)
    assert _groups(idx) == _groups(fresh)


def test_refresh_idempotent_and_monotonic(lake, tmp_path):
    idx = str(tmp_path / "idx")
    refresh_dedup_index(lake.lake_dir, idx)
    r = refresh_dedup_index(lake.lake_dir, idx)
    assert r == {"refreshed": False, "mode": "noop", "lake_version": 3}
    with pytest.raises(ValueError):
        refresh_dedup_index(lake.lake_dir, idx, at_version=1)
    with pytest.raises(ValueError):
        refresh_dedup_index(lake.lake_dir, idx, key_col="lang")


def test_index_survives_compaction_crossing(lake, tmp_path):
    idx = str(tmp_path / "idx")
    refresh_dedup_index(lake.lake_dir, idx, at_version=2)
    compact_lake(lake.lake_dir)  # drops tombstones, commits a version
    r = refresh_dedup_index(lake.lake_dir, idx)
    assert r["refreshed"]
    assert _pairs(idx) == _snapshot_pairs(lake.lake_dir)


def test_stale_index_full_rebuilds_after_vacuum(lake, tmp_path):
    idx = str(tmp_path / "idx")
    refresh_dedup_index(lake.lake_dir, idx, at_version=1)
    vacuum(lake.lake_dir, keep=1)  # v1 gone: the delta no longer exists
    r = refresh_dedup_index(lake.lake_dir, idx)
    assert r["mode"] == "full"
    assert _pairs(idx) == _snapshot_pairs(lake.lake_dir)


def test_colliding_texts_form_dup_groups(tmp_path):
    """Derived colliding WAL: groups from the maintained index equal a
    direct group-by over the snapshot (the oracle query's law, checked
    here without DuckDB)."""
    tmp = str(tmp_path)
    wal, lakedir, idx = (
        os.path.join(tmp, d) for d in ("wal", "lake", "idx")
    )
    derive_wal_from_events(
        "/root/testdata/sf0.001/events.parquet", wal, n_segments=8,
        text_mod=5,
    )
    run_ingest(CdcConfig(
        wal_dir=wal, lake_dir=lakedir, num_partitions=8,
        segment_glob="segment-0000[0-3].parquet",
    ))
    refresh_dedup_index(lakedir, idx)
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=lakedir, num_partitions=8))
    r = refresh_dedup_index(lakedir, idx)
    assert r["mode"] == "incremental"
    import collections

    by_key = collections.defaultdict(list)
    for k, u in _snapshot_pairs(lakedir):
        by_key[k].append(u)
    want = sorted(
        (k, len(us), min(us)) for k, us in by_key.items() if len(us) >= 2
    )
    assert _groups(idx) == want
    assert want  # the mod derivation must actually produce duplicates


def _clusters(index_dir, max_hamming=3):
    from data_hub_ejp_xml_pipeline_ray.pipelines.dedup_index import (
        near_dup_clusters,
    )

    t = pa.concat_tables(list(
        near_dup_clusters(index_dir, max_hamming=max_hamming)
        .iter_batches(batch_format="pyarrow")
    ))
    return sorted(
        zip(t.column("url").to_pylist(), t.column("min_url").to_pylist())
    )


def test_simhash_index_incremental_matches_rebuild_and_brute_force(
    lake, tmp_path
):
    """Maintained band index == fresh rebuild == brute-force Hamming
    components over the snapshot (banding is EXACT for hamming <
    num_bands, so no recall slack in the law)."""
    from data_hub_ejp_xml_pipeline_ray.functions.hashing import (
        hamming64,
        simhash,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.dedup_index import (
        refresh_simhash_index,
    )

    idx = str(tmp_path / "sidx")
    r1 = refresh_simhash_index(lake.lake_dir, idx, at_version=1)
    assert r1["mode"] == "full"
    r2 = refresh_simhash_index(lake.lake_dir, idx)
    assert r2["mode"] == "incremental" and r2["lake_version"] == 3
    fresh = str(tmp_path / "sidx_full")
    refresh_simhash_index(lake.lake_dir, fresh)
    got = _clusters(idx)
    assert got == _clusters(fresh)
    # brute force over the snapshot
    snap_pairs = _snapshot_pairs(lake.lake_dir)
    sigs = {u: simhash(k) for k, u in snap_pairs}
    urls = sorted(sigs)
    parent = {u: u for u in urls}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(urls):
        for b in urls[i + 1:]:
            if hamming64(sigs[a], sigs[b]) <= 3:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups = {}
    for u in urls:
        groups.setdefault(find(u), []).append(u)
    want = sorted(
        (u, min(us)) for us in groups.values() if len(us) >= 2 for u in us
    )
    assert got == want


def test_simhash_index_survives_compaction_and_vacuum(lake, tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.dedup_index import (
        refresh_simhash_index,
    )

    idx = str(tmp_path / "sidx")
    refresh_simhash_index(lake.lake_dir, idx, at_version=2)
    compact_lake(lake.lake_dir)  # drops tombstones, commits a version
    r = refresh_simhash_index(lake.lake_dir, idx)
    assert r["refreshed"]
    fresh = str(tmp_path / "sidx_full")
    refresh_simhash_index(lake.lake_dir, fresh)
    assert _clusters(idx) == _clusters(fresh)
    # vacuumed base version -> full rebuild, same clusters
    stale = str(tmp_path / "sidx_stale")
    refresh_simhash_index(lake.lake_dir, stale, at_version=2)
    vacuum(lake.lake_dir, keep=1)
    r2 = refresh_simhash_index(lake.lake_dir, stale)
    assert r2["mode"] == "full"
    assert _clusters(stale) == _clusters(idx)


def test_simhash_clusters_dataset_native_matches_driver(lake, tmp_path, monkeypatch):
    """Forcing the Dataset-native clustering tail (pairs NEVER collect
    on the driver) must reproduce the driver union-find exactly."""
    import data_hub_ejp_xml_pipeline_ray.stages.dedup as dd
    from data_hub_ejp_xml_pipeline_ray.pipelines.dedup_index import (
        refresh_simhash_index,
    )

    idx = str(tmp_path / "sidx")
    refresh_simhash_index(lake.lake_dir, idx)
    driver = _clusters(idx)
    monkeypatch.setattr(dd, "PAIR_DRIVER_THRESHOLD", 0)
    native = _clusters(idx)
    assert native == driver
    assert driver  # the law is vacuous on an empty cluster set


def test_simhash_index_collision_texts_pinned_apart():
    """The oracle soundness pin: the 7 ``text_mod=7`` derived texts
    must sit strictly further than max_hamming=3 apart, so the SQL
    oracle (identical-text groups) is exact. Guards simhash kernel
    changes."""
    import itertools

    from data_hub_ejp_xml_pipeline_ray.functions.hashing import (
        hamming64,
        simhash,
    )

    sigs = [simhash(f"page rev {k}") for k in range(7)]
    assert min(
        hamming64(a, b) for a, b in itertools.combinations(sigs, 2)
    ) > 3


def test_missing_key_column_raises(lake, tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.ddl import alter_lake

    idx = str(tmp_path / "idx")
    refresh_dedup_index(lake.lake_dir, idx, key_col="lang")
    alter_lake(lake.lake_dir, rename={"lang": "language"})
    with pytest.raises(ValueError, match="not in the lake schema"):
        refresh_dedup_index(lake.lake_dir, idx, key_col="lang")


def test_fsck_index_audit(lake, tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.dedup_index import (
        fsck_index,
        refresh_dedup_index,
        refresh_simhash_index,
    )

    idx = str(tmp_path / "idx")
    refresh_dedup_index(lake.lake_dir, idx)
    refresh_simhash_index(lake.lake_dir, idx)
    rep = fsck_index(idx)
    assert rep["ok"] and set(rep["indexes"]) == {
        "_dedup_index.json", "_simhash_index.json"
    }
    assert not rep["missing_files"] and not rep["orphan_files"]
    # orphan: an unreferenced leftover file is a warning, not a failure
    import shutil

    some = next(f for f in os.listdir(idx) if f.endswith(".parquet"))
    shutil.copy(os.path.join(idx, some), os.path.join(idx, "b99999-v000099.parquet"))
    rep2 = fsck_index(idx)
    assert rep2["ok"] and rep2["orphan_files"] == ["b99999-v000099.parquet"]
    # missing referenced file -> not ok
    os.remove(os.path.join(idx, some))
    rep3 = fsck_index(idx)
    assert not rep3["ok"] and some in rep3["missing_files"]


def test_simhash_index_guards_key_and_bands(lake, tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.dedup_index import (
        refresh_simhash_index,
    )

    idx = str(tmp_path / "sidx")
    refresh_simhash_index(lake.lake_dir, idx)
    with pytest.raises(ValueError, match="num_bands"):
        refresh_simhash_index(lake.lake_dir, idx, num_bands=8)
    with pytest.raises(ValueError, match="keyed by"):
        refresh_simhash_index(lake.lake_dir, idx, key_col="lang")
