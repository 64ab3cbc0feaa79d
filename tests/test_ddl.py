"""Metadata-only schema evolution (``pipelines/ddl.alter_lake``):
add / rename / drop columns without rewriting data files, and the
rename log's interaction with every consumer — reads, pruned reads,
constrained scans, ingest (wire still sending old names), MOR deltas,
change feeds, SCD2 history, replicas, DML, maintenance rewrites,
branches, time travel, restore.

Oracle: ``naive_replay`` over all WAL segments, with the rename applied
to the EXPECTED dict (the rename is metadata — the logical data never
changes)."""
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    changes_between,
    lake_snapshot,
    lookup_urls,
    read_lake,
    run_ingest,
    scan_plan,
    scd2_history,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.ddl import (
    RESERVED_COLUMNS,
    alter_lake,
    schema_at,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import (
    generate_wal,
    naive_replay,
)
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest


def _cfg(tmp, **kw):
    defaults = dict(
        wal_dir=os.path.join(tmp, "wal"),
        lake_dir=os.path.join(tmp, "lake"),
        num_partitions=8,
    )
    defaults.update(kw)
    return CdcConfig(**defaults)


def _expected(wal_dir, lang_key="lang"):
    final = naive_replay([pq.read_table(s.path) for s in list_segments(wal_dir)])
    return {
        u: (row["warc_ts"], row["seq"], row["lang"]) for u, row in final.items()
    }


def _got(lake_dir, lang_key):
    snap = lake_snapshot(lake_dir)
    return {
        r["url"]: (r["warc_ts"], r["seq"], r[lang_key])
        for r in snap.to_pylist()
    }


@pytest.fixture()
def altered_lake(tmp_path):
    """Lake with a full DDL round: ingest -> rename lang->language +
    add score + drop fetch_status -> ingest more (wire STILL sends
    lang/fetch_status)."""
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=11, n_urls=40, n_events=400, n_segments=4,
                 delete_fraction=0.08, tie_fraction=0.1)
    cfg = _cfg(tmp, retain_versions=None)
    run_ingest(cfg)
    out = alter_lake(
        cfg.lake_dir,
        rename={"lang": "language"},
        add={"score": "float64"},
        drop=["fetch_status"],
    )
    generate_wal(wal, seed=23, n_urls=40, n_events=300, n_segments=3,
                 start_segment=4, delete_fraction=0.1)
    run_ingest(cfg)
    return tmp, cfg, out


def test_alter_is_metadata_only(tmp_path):
    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=7, n_urls=20, n_events=150,
                 n_segments=2)
    cfg = _cfg(tmp)
    run_ingest(cfg)
    m0 = load_manifest(cfg.lake_dir)
    files0 = {
        rel: os.path.getmtime(os.path.join(cfg.lake_dir, rel))
        for rel in m0.all_data_relpaths()
    }
    out = alter_lake(cfg.lake_dir, rename={"lang": "language"},
                     add={"score": "float64"})
    m1 = load_manifest(cfg.lake_dir)
    assert m1.version == m0.version + 1
    # not one data file touched
    assert m1.all_data_relpaths() == set(files0)
    for rel, mtime in files0.items():
        assert os.path.getmtime(os.path.join(cfg.lake_dir, rel)) == mtime
    assert m1.renames == [["lang", "language"]]
    assert out["version"] == m1.version
    # the alter commit is an empty change-feed diff
    assert changes_between(cfg.lake_dir, m0.version, m1.version).count() == 0
    # zone keys followed the rename in the SAME commit
    for doc in m1.zones.values():
        assert "language" in doc["cols"] and "lang" not in doc["cols"]


def test_lake_state_matches_oracle_across_alter(altered_lake):
    tmp, cfg, _ = altered_lake
    exp = _expected(os.path.join(tmp, "wal"))
    got = _got(cfg.lake_dir, "language")
    assert got == exp
    snap = lake_snapshot(cfg.lake_dir)
    assert "lang" not in snap.column_names
    assert "fetch_status" not in snap.column_names  # wire never resurrects
    assert snap.column("score").null_count == snap.num_rows  # added: all-NULL


def test_pruned_and_constrained_reads_through_rename(altered_lake):
    tmp, cfg, _ = altered_lake
    rows = read_lake(cfg.lake_dir, columns=["url", "language"]).take_all()
    exp = _expected(os.path.join(tmp, "wal"))
    assert {r["url"]: r["language"] for r in rows} == {
        u: v[2] for u, v in exp.items()
    }
    # constrained scan on the renamed column == brute force
    langval = next(iter(exp.values()))[2]
    got = sorted(
        r["url"] for r in
        read_lake(
            cfg.lake_dir, constraints=[["language", "==", langval]]
        ).take_all()
    )
    brute = sorted(u for u, v in exp.items() if v[2] == langval)
    assert got == brute
    # plan still answers (zones remapped, never wrongly pruning)
    plan = scan_plan(cfg.lake_dir, [["language", "==", langval]])
    assert plan["parts_read"] >= 1


def test_rename_chain_across_three_eras(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    cfg = _cfg(tmp)
    generate_wal(wal, seed=3, n_urls=30, n_events=200, n_segments=2)
    run_ingest(cfg)
    alter_lake(cfg.lake_dir, rename={"lang": "language"})
    generate_wal(wal, seed=5, n_urls=30, n_events=200, n_segments=2,
                 start_segment=2)
    run_ingest(cfg)
    alter_lake(cfg.lake_dir, rename={"language": "tongue"})
    generate_wal(wal, seed=9, n_urls=30, n_events=200, n_segments=2,
                 start_segment=4)
    run_ingest(cfg)
    m = load_manifest(cfg.lake_dir)
    assert m.renames == [["lang", "language"], ["language", "tongue"]]
    assert _got(cfg.lake_dir, "tongue") == _expected(wal)
    # aliases reported oldest-first
    ent = next(e for e in schema_at(cfg.lake_dir) if e["name"] == "tongue")
    assert ent["aliases"] == ["lang", "language"]


def test_time_travel_reads_each_version_under_its_own_schema(altered_lake):
    tmp, cfg, out = altered_lake
    pre = lake_snapshot(cfg.lake_dir, version=out["version"] - 1)
    assert "lang" in pre.column_names and "fetch_status" in pre.column_names
    assert "language" not in pre.column_names
    post = lake_snapshot(cfg.lake_dir, version=out["version"])
    assert "language" in post.column_names
    # the alter itself changed no logical rows
    assert pre.num_rows == post.num_rows
    assert pre.column("lang").to_pylist() == post.column("language").to_pylist()


def test_change_feed_across_alter_carries_new_names(altered_lake):
    tmp, cfg, out = altered_lake
    head = load_manifest(cfg.lake_dir).version
    feed = changes_between(cfg.lake_dir, out["version"] - 1, head)
    names = feed.schema().names
    assert "language" in names and "lang" not in names
    assert "fetch_status" not in names
    rows = feed.take_all()
    assert rows  # the second ingest changed things
    assert all(r["language"] is not None for r in rows
               if r["change_op"] != "delete")


def test_mor_lake_alter_with_pending_deltas(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        compact_deltas,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=31, n_urls=30, n_events=300, n_segments=4,
                 delete_fraction=0.1)
    cfg = _cfg(tmp, merge_mode="mor", max_segments_per_batch=2,
               retain_versions=None)
    run_ingest(cfg)
    m = load_manifest(cfg.lake_dir)
    assert m.delta_files  # pending deltas exist
    alter_lake(cfg.lake_dir, rename={"lang": "language"})
    assert _got(cfg.lake_dir, "language") == _expected(wal)
    # more MOR batches after the alter, wire still sends lang
    generate_wal(wal, seed=37, n_urls=30, n_events=200, n_segments=2,
                 start_segment=4)
    run_ingest(cfg)
    assert _got(cfg.lake_dir, "language") == _expected(wal)
    # folding deltas materializes the rename for the folded partitions
    compact_deltas(cfg.lake_dir)
    assert _got(cfg.lake_dir, "language") == _expected(wal)
    m2 = load_manifest(cfg.lake_dir)
    rel = next(iter(m2.partitions.values()))
    names = pq.ParquetFile(
        os.path.join(cfg.lake_dir, rel)
    ).schema_arrow.names
    assert "language" in names and "lang" not in names


def test_dml_on_renamed_column(altered_lake):
    from data_hub_ejp_xml_pipeline_ray.pipelines.dml import (
        delete_where, update_where,
    )

    tmp, cfg, _ = altered_lake
    exp = _expected(os.path.join(tmp, "wal"))
    langval = next(iter(exp.values()))[2]
    n_match = sum(1 for v in exp.values() if v[2] == langval)
    r = update_where(
        cfg.lake_dir, [["language", "==", langval]],
        {"score": 1.5},
    )
    assert r["rows_matched"] == n_match
    snap = lake_snapshot(cfg.lake_dir)
    scored = snap.filter(pc.equal(snap.column("score"), 1.5))
    assert scored.num_rows == n_match
    r2 = delete_where(cfg.lake_dir, [["language", "==", langval]])
    assert r2["rows_matched"] == n_match
    assert lake_snapshot(cfg.lake_dir).num_rows == len(exp) - n_match


def test_validation_refusals(altered_lake):
    tmp, cfg, _ = altered_lake
    lake = cfg.lake_dir
    with pytest.raises(ValueError, match="retired"):
        alter_lake(lake, add={"lang": "string"})  # rename preimage
    with pytest.raises(ValueError, match="retired"):
        alter_lake(lake, add={"fetch_status": "int64"})  # dropped
    with pytest.raises(ValueError, match="retired"):
        alter_lake(lake, rename={"language": "lang"})  # back onto alias
    with pytest.raises(ValueError, match="reserved"):
        alter_lake(lake, drop=["url"])
    with pytest.raises(ValueError, match="reserved"):
        alter_lake(lake, rename={"warc_ts": "ts"})
    with pytest.raises(ValueError, match="no such column"):
        alter_lake(lake, drop=["nope"])
    with pytest.raises(ValueError, match="exists"):
        alter_lake(lake, add={"language": "string"})
    with pytest.raises(ValueError, match="nothing to do"):
        alter_lake(lake)
    assert "url" in RESERVED_COLUMNS


def test_compaction_materializes_rename_physically(altered_lake):
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        compact_lake,
    )

    tmp, cfg, _ = altered_lake
    exp_live = _expected(os.path.join(tmp, "wal"))
    compact_lake(cfg.lake_dir)
    m = load_manifest(cfg.lake_dir)
    for rel in m.partitions.values():
        names = pq.ParquetFile(
            os.path.join(cfg.lake_dir, rel)
        ).schema_arrow.names
        assert "language" in names and "lang" not in names
    assert _got(cfg.lake_dir, "language") == exp_live


def test_scd2_history_spans_the_alter(altered_lake):
    tmp, cfg, out = altered_lake
    hist = scd2_history(cfg.lake_dir).take_all()
    names = set(hist[0].keys())
    assert "language" in names and "lang" not in names
    # reconstruction law at the head version, under the head names
    head = load_manifest(cfg.lake_dir).version
    live = {
        r["url"]: r["language"] for r in hist
        if r["valid_from"] <= head and (r["valid_to"] is None
                                        or r["valid_to"] > head)
    }
    snap = lake_snapshot(cfg.lake_dir)
    assert live == {
        r["url"]: r["language"] for r in snap.to_pylist()
    }


def test_replica_survives_source_alter(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.replicate import (
        sync_replica,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    replica = os.path.join(tmp, "replica")
    cfg = _cfg(tmp, retain_versions=None)
    generate_wal(wal, seed=41, n_urls=30, n_events=250, n_segments=2,
                 delete_fraction=0.1)
    run_ingest(cfg)
    sync_replica(cfg.lake_dir, replica)
    alter_lake(cfg.lake_dir, rename={"lang": "language"},
               add={"score": "float64"})
    generate_wal(wal, seed=43, n_urls=30, n_events=250, n_segments=2,
                 start_segment=2, delete_fraction=0.1)
    run_ingest(cfg)
    r = sync_replica(cfg.lake_dir, replica)
    assert r["mode"] == "incremental"
    got = {
        row["url"]: (row["warc_ts"], row["seq"], row["language"])
        for row in lake_snapshot(replica).to_pylist()
    }
    assert got == _expected(wal)
    rs = lake_snapshot(replica)
    assert "lang" not in rs.column_names


def test_incremental_view_fails_loud_on_renamed_source_column(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        refresh_live_counts,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    view = os.path.join(tmp, "view")
    cfg = _cfg(tmp)
    generate_wal(wal, seed=51, n_urls=30, n_events=200, n_segments=2)
    run_ingest(cfg)
    refresh_live_counts(cfg.lake_dir, view, key="lang")
    alter_lake(cfg.lake_dir, rename={"lang": "language"})
    generate_wal(wal, seed=53, n_urls=30, n_events=100, n_segments=1,
                 start_segment=2)
    run_ingest(cfg)
    with pytest.raises(ValueError, match="renamed or dropped"):
        refresh_live_counts(cfg.lake_dir, view, key="lang")
    # rebuilt under the new name, the view works
    view2 = os.path.join(tmp, "view2")
    out = refresh_live_counts(cfg.lake_dir, view2, key="language")
    exp = _expected(wal)
    import collections

    want = collections.Counter(v[2] for v in exp.values())
    assert out["keys"] == len(want)


def test_restore_across_alter_guards_the_feed(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        restore_lake,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    cfg = _cfg(tmp, retain_versions=None)
    generate_wal(wal, seed=61, n_urls=20, n_events=150, n_segments=2)
    run_ingest(cfg)
    v_pre = load_manifest(cfg.lake_dir).version
    alter_lake(cfg.lake_dir, rename={"lang": "language"})
    generate_wal(wal, seed=67, n_urls=20, n_events=100, n_segments=1,
                 start_segment=2)
    run_ingest(cfg)
    restore_lake(cfg.lake_dir, v_pre)
    m = load_manifest(cfg.lake_dir)
    assert m.renames == []  # restored snapshot's own DDL state
    assert "lang" in m.schema.names
    # diffing across the regression is refused, not wrong
    with pytest.raises(ValueError, match="regressed"):
        changes_between(cfg.lake_dir, v_pre + 1, m.version)
    # but the lake itself reads fine under the restored schema
    assert "lang" in lake_snapshot(cfg.lake_dir).column_names


def test_branch_ddl_divergence_refuses_merge(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.branching import (
        create_branch, merge_branch,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    cfg = _cfg(tmp)
    generate_wal(wal, seed=71, n_urls=20, n_events=150, n_segments=2)
    run_ingest(cfg)
    create_branch(cfg.lake_dir, "dev")
    alter_lake(cfg.lake_dir, rename={"lang": "language"})
    # branch still has the old DDL state; ingest on main so both moved
    generate_wal(wal, seed=73, n_urls=20, n_events=100, n_segments=1,
                 start_segment=2)
    run_ingest(cfg)
    with pytest.raises(RuntimeError, match="DDL state diverged"):
        merge_branch(cfg.lake_dir, "dev")


def test_bloom_index_follows_rename(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.state.bloomindex import (
        build_bloom_index, load_bloom_index,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    cfg = _cfg(tmp)
    generate_wal(wal, seed=81, n_urls=30, n_events=200, n_segments=2)
    run_ingest(cfg)
    build_bloom_index(cfg.lake_dir, ["lang"])
    alter_lake(cfg.lake_dir, rename={"lang": "language"})
    idx = load_bloom_index(cfg.lake_dir)
    assert idx["columns"] == ["language"]
    assert all("language" in doc for doc in idx["files"].values())
    # a nonexistent probe value prunes everything via the carried blooms
    plan = scan_plan(
        cfg.lake_dir, [["language", "==", "no-such-lang-value"]]
    )
    assert plan["parts_read"] == 0
    assert read_lake(
        cfg.lake_dir, constraints=[["language", "==", "no-such-lang-value"]]
    ).count() == 0


def test_lookup_urls_through_rename(altered_lake):
    tmp, cfg, _ = altered_lake
    exp = _expected(os.path.join(tmp, "wal"))
    urls = sorted(exp)[:3]
    t = lookup_urls(cfg.lake_dir, urls)
    assert t.num_rows == 3
    assert {
        r["url"]: r["language"] for r in t.to_pylist()
    } == {u: exp[u][2] for u in urls}
