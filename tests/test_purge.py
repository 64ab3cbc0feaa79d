"""Right-to-be-forgotten purge (``maintenance.purge_urls``): history
rewrite across every retained snapshot, resurrection guards at the
ingest edge (rewind/restore/replay and FUTURE WAL events), feed
synthesis of NULL-identity deletes, preimage refusal, replica
convergence, MOR/entity lakes, crash retry, and the fsck deep audit.

Reference analog: the warehouse-side deletes the reference leaves to
BigQuery DML (``ejp_xml_pipeline/data_store/bq_data_service.py``)."""
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    changes_between,
    entity_changes_between,
    lake_snapshot,
    run_entity_ingest,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    clone_lake,
    fsck_lake,
    purge_urls,
    restore_lake,
    rewind_watermark,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
    list_purged,
    list_versions,
    load_manifest,
    tag_version,
)


def _mk_lake(tmp, *, seed=5, segments=4, glob=None, mode="cow",
             retain=10, entity=False, n_urls=40, n_events=400):
    generate_wal(
        os.path.join(tmp, "wal"), seed=seed, n_urls=n_urls,
        n_events=n_events, n_segments=segments, delete_fraction=0.1,
    )
    cfg = CdcConfig(
        wal_dir=os.path.join(tmp, "wal"), lake_dir=os.path.join(tmp, "lake"),
        num_partitions=8, max_segments_per_batch=2,
        retain_versions=retain, merge_mode=mode,
        **({"segment_glob": glob} if glob else {}),
    )
    (run_entity_ingest if entity else run_ingest)(cfg)
    return cfg


def _urls_of(table):
    return set(table.column("url").to_pylist())


def test_purge_head_history_and_registry(tmp_path):
    cfg = _mk_lake(str(tmp_path))
    before = lake_snapshot(cfg.lake_dir)
    victims = sorted(_urls_of(before))[:3]
    m0 = load_manifest(cfg.lake_dir)
    out = purge_urls(cfg.lake_dir, victims)
    assert out["purged"] and out["rows_purged"] >= 3
    assert out["version"] == m0.version + 1

    after = lake_snapshot(cfg.lake_dir)
    assert not set(victims) & _urls_of(after)
    # every RETAINED version is scrubbed (time travel cannot serve it)
    for v in list_versions(cfg.lake_dir):
        assert not set(victims) & _urls_of(
            lake_snapshot(cfg.lake_dir, version=v)
        ), f"v{v} still serves a purged url"
    # surviving rows are bit-identical
    keep = before.filter(pc.invert(pc.is_in(
        before.column("url"), value_set=pa.array(victims)
    )))
    assert after.sort_by("url").equals(keep.sort_by("url"))
    # registry records the purge at the new head version
    assert list_purged(cfg.lake_dir) == {u: out["version"] for u in victims}
    assert load_manifest(cfg.lake_dir).lineage[-1]["op"] == "purge"
    # the audit agrees: stats still consistent, no purged bytes anywhere
    report = fsck_lake(cfg.lake_dir, deep=True)
    assert report["ok"], report["errors"]
    assert report["deep"]["purged_urls_audited"] == 3


def test_purge_tagged_version_scrubbed(tmp_path):
    cfg = _mk_lake(str(tmp_path))
    versions = list_versions(cfg.lake_dir)
    tag_version(cfg.lake_dir, "release", versions[0])
    victim = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[0]
    purge_urls(cfg.lake_dir, [victim])
    # the tag still resolves, but its pinned snapshot no longer serves
    # the purged key — tags pin HISTORY, not the right to remember
    pinned = lake_snapshot(cfg.lake_dir, version=versions[0])
    assert victim not in _urls_of(pinned)


def test_purge_replay_cannot_resurrect(tmp_path):
    cfg = _mk_lake(str(tmp_path))
    victims = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[:2]
    purge_urls(cfg.lake_dir, victims)
    after = lake_snapshot(cfg.lake_dir)
    rewind_watermark(cfg.lake_dir, to=None)
    run_ingest(cfg)  # full WAL replay
    replayed = lake_snapshot(cfg.lake_dir)
    assert not set(victims) & _urls_of(replayed)
    assert replayed.sort_by("url").equals(after.sort_by("url"))


def test_purge_restore_cannot_resurrect(tmp_path):
    cfg = _mk_lake(str(tmp_path))
    versions = list_versions(cfg.lake_dir)
    victims = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[:2]
    purge_urls(cfg.lake_dir, victims)
    # roll the head back to a pre-purge version: its files were
    # scrubbed in place, and the carried-back watermark's replay is
    # filtered at the ingest edge
    restore_lake(cfg.lake_dir, versions[0])
    assert not set(victims) & _urls_of(lake_snapshot(cfg.lake_dir))
    run_ingest(cfg)  # replay the rolled-back WAL range
    assert not set(victims) & _urls_of(lake_snapshot(cfg.lake_dir))


def test_purge_blocks_future_wal_events(tmp_path):
    """The guard is not only about replay: events for a purged url
    arriving in LATER segments are dropped at the ingest edge too."""
    tmp = str(tmp_path)
    cfg = _mk_lake(tmp, glob="segment-0000[0-1].parquet")
    victim = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[0]
    purge_urls(cfg.lake_dir, [victim])
    # tail the remaining segments (they carry new events for victim)
    cfg2 = CdcConfig(
        wal_dir=cfg.wal_dir, lake_dir=cfg.lake_dir, num_partitions=8,
        retain_versions=10,
    )
    run_ingest(cfg2)
    assert victim not in _urls_of(lake_snapshot(cfg.lake_dir))


def test_purge_feed_synthesizes_delete_and_preimage_refuses(tmp_path):
    cfg = _mk_lake(str(tmp_path))
    m0 = load_manifest(cfg.lake_dir)
    victims = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[:2]
    out = purge_urls(cfg.lake_dir, victims)
    feed = changes_between(cfg.lake_dir, m0.version, out["version"]).take_all()
    dels = {r["url"]: r for r in feed if r["change_op"] == "delete"}
    assert set(victims) <= set(dels)
    for u in victims:  # NULL identity: the pre-image is gone by design
        assert dels[u]["warc_ts"] is None and dels[u]["seq"] is None
    with pytest.raises(ValueError, match="purged"):
        changes_between(
            cfg.lake_dir, m0.version, out["version"], preimages=True
        )
    # a consumer starting from scratch never saw the key: no synthesis
    fresh = changes_between(cfg.lake_dir, 0, out["version"]).take_all()
    assert not set(victims) & {r["url"] for r in fresh}


def test_purge_propagates_to_replica(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.replicate import sync_replica

    tmp = str(tmp_path)
    cfg = _mk_lake(tmp)
    replica = os.path.join(tmp, "replica")
    sync_replica(cfg.lake_dir, replica)
    victims = sorted(_urls_of(lake_snapshot(replica)))[:2]
    purge_urls(cfg.lake_dir, victims)
    sync_replica(cfg.lake_dir, replica)  # applies the synthetic deletes
    assert not set(victims) & _urls_of(lake_snapshot(replica))


def test_purge_mor_lake_scrubs_pending_deltas(tmp_path):
    cfg = _mk_lake(str(tmp_path), mode="mor")
    m = load_manifest(cfg.lake_dir)
    assert m.delta_files, "fixture must leave pending MOR deltas"
    before = lake_snapshot(cfg.lake_dir)
    victims = sorted(_urls_of(before))[:3]
    purge_urls(cfg.lake_dir, victims)
    for v in list_versions(cfg.lake_dir):
        assert not set(victims) & _urls_of(
            lake_snapshot(cfg.lake_dir, version=v)
        )
    keep = before.filter(pc.invert(pc.is_in(
        before.column("url"), value_set=pa.array(victims)
    )))
    assert lake_snapshot(cfg.lake_dir).sort_by("url").equals(
        keep.sort_by("url")
    )
    report = fsck_lake(cfg.lake_dir, deep=True)
    assert report["ok"], report["errors"]


def test_purge_entity_lake_retires_whole_group(tmp_path):
    cfg = _mk_lake(str(tmp_path), entity=True)
    m0 = load_manifest(cfg.lake_dir)
    before = lake_snapshot(cfg.lake_dir)
    victim = sorted(_urls_of(before))[0]
    n_victim_rows = len(before.filter(
        pc.equal(before.column("url"), victim)
    ))
    assert n_victim_rows >= 1
    out = purge_urls(cfg.lake_dir, [victim])
    assert out["rows_purged"] >= n_victim_rows  # history rows too
    for v in list_versions(cfg.lake_dir):
        assert victim not in _urls_of(lake_snapshot(cfg.lake_dir, version=v))
    feed = entity_changes_between(
        cfg.lake_dir, m0.version, out["version"]
    ).take_all()
    assert victim in {
        r["url"] for r in feed if r["change_op"] == "delete"
    }
    with pytest.raises(ValueError, match="purged"):
        entity_changes_between(
            cfg.lake_dir, m0.version, out["version"], preimages=True
        )


def test_purge_scd2_history_forgets(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import scd2_history

    cfg = _mk_lake(str(tmp_path))
    victim = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[0]
    purge_urls(cfg.lake_dir, [victim])
    hist = scd2_history(cfg.lake_dir).take_all()
    assert victim not in {r["url"] for r in hist}


def test_purge_repeat_is_noop(tmp_path):
    cfg = _mk_lake(str(tmp_path))
    victims = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[:2]
    out1 = purge_urls(cfg.lake_dir, victims)
    out2 = purge_urls(cfg.lake_dir, victims)
    assert out2 == {
        "purged": False, "rows_purged": 0, "files_rewritten": 0,
        "version": out1["version"],
    }
    assert list_purged(cfg.lake_dir) == {u: out1["version"] for u in victims}


def test_purge_refuses_branches(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.branching import create_branch

    cfg = _mk_lake(str(tmp_path))
    b = create_branch(cfg.lake_dir, "stage")
    victim = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[0]
    with pytest.raises(ValueError, match="branch"):
        purge_urls(cfg.lake_dir, [victim])
    with pytest.raises(ValueError, match="branch"):
        purge_urls(b["dir"], [victim])


def test_branch_fork_carries_purge_registry(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.branching import create_branch

    cfg = _mk_lake(str(tmp_path), glob="segment-0000[0-1].parquet")
    victim = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[0]
    purge_urls(cfg.lake_dir, [victim])
    b = create_branch(cfg.lake_dir, "stage")
    # branch ingest tails the remaining WAL: the guard must hold there
    run_ingest(CdcConfig(
        wal_dir=cfg.wal_dir, lake_dir=b["dir"], num_partitions=8,
        retain_versions=10,
    ))
    assert victim not in _urls_of(lake_snapshot(b["dir"]))


def test_purge_clone_carries_registry(tmp_path):
    tmp = str(tmp_path)
    cfg = _mk_lake(tmp)
    victim = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[0]
    purge_urls(cfg.lake_dir, [victim])
    clone = os.path.join(tmp, "clone")
    clone_lake(cfg.lake_dir, clone)
    assert victim in list_purged(clone)
    # a backfill on the CLONE replays the same WAL — still guarded
    rewind_watermark(clone, to=None)
    run_ingest(CdcConfig(
        wal_dir=cfg.wal_dir, lake_dir=clone, num_partitions=8,
        retain_versions=10,
    ))
    assert victim not in _urls_of(lake_snapshot(clone))


def test_purge_crash_retry_converges(tmp_path, monkeypatch):
    """Crash after the first old-snapshot rewrite, before the head
    commit: the head still serves the key; the RETRY rewrites the
    remaining files idempotently (deterministic purge names) and
    completes — final state equals a never-crashed purge."""
    from data_hub_ejp_xml_pipeline_ray.state import store as store_mod

    cfg = _mk_lake(str(tmp_path))
    victims = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[:2]
    real_store = store_mod.LOCAL_STORE
    state = {"snapshot_writes": 0}

    class CrashingStore:
        def __getattr__(self, name):
            return getattr(real_store, name)

        def put_atomic(self, path, data):
            if "_snapshots" in path:
                state["snapshot_writes"] += 1
                if state["snapshot_writes"] == 2:
                    raise RuntimeError("simulated crash mid-purge")
            real_store.put_atomic(path, data)

    monkeypatch.setattr(store_mod, "LOCAL_STORE", CrashingStore())
    with pytest.raises(RuntimeError, match="simulated crash"):
        purge_urls(cfg.lake_dir, victims)
    monkeypatch.setattr(store_mod, "LOCAL_STORE", real_store)
    out = purge_urls(cfg.lake_dir, victims)  # retry
    assert out["purged"]
    for v in list_versions(cfg.lake_dir):
        assert not set(victims) & _urls_of(
            lake_snapshot(cfg.lake_dir, version=v)
        )
    report = fsck_lake(cfg.lake_dir, deep=True)
    assert report["ok"], report["errors"]


def test_fsck_deep_detects_surviving_purged_url(tmp_path):
    """Plant a violation: register a url as purged WITHOUT scrubbing —
    the deep audit must flag every retained file still holding it."""
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import record_purged

    cfg = _mk_lake(str(tmp_path))
    victim = sorted(_urls_of(lake_snapshot(cfg.lake_dir)))[0]
    record_purged(cfg.lake_dir, [victim], load_manifest(cfg.lake_dir).version)
    report = fsck_lake(cfg.lake_dir, deep=True)
    assert not report["ok"]
    assert any("PURGED" in e for e in report["errors"])
