"""Feed-driven replica tables (`pipelines/replicate.sync_replica`):
row-level downstream sync must converge to exactly the (filtered)
source state by applying only change-feed deltas."""
import os

import pyarrow.compute as pc
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    compact_lake,
    vacuum,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.replicate import sync_replica
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest


def _rows(lake_dir, cols=("url", "warc_ts", "seq", "lang")):
    return {
        r["url"]: tuple(r[c] for c in cols if c != "url")
        for r in lake_snapshot(lake_dir).to_pylist()
    }


@pytest.fixture()
def source(tmp_path):
    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"), seed=41, n_urls=50, n_events=500,
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


def test_unfiltered_replica_converges(source, tmp_path):
    rep = str(tmp_path / "replica")
    r1 = sync_replica(source.lake_dir, rep, at_version=1)
    assert r1["mode"] == "full" and r1["rows_upserted"] > 0
    r2 = sync_replica(source.lake_dir, rep)  # v1 -> v3 in one delta
    assert r2["mode"] == "incremental" and r2["source_version"] == 3
    assert _rows(rep) == _rows(source.lake_dir)
    # idempotent noop once caught up
    assert sync_replica(source.lake_dir, rep) == {
        "synced": False, "mode": "noop", "source_version": 3,
    }


def test_filtered_replica_predicate_exit(source, tmp_path):
    """A url updated OUT of the predicate must leave the replica."""
    langs = ("en", "de")

    def pred(t):
        return pc.is_in(
            t.column("lang"), value_set=__import__("pyarrow").array(langs)
        )

    rep = str(tmp_path / "replica")
    sync_replica(source.lake_dir, rep, predicate=pred, at_version=1)
    r = sync_replica(source.lake_dir, rep, predicate=pred)
    assert r["mode"] == "incremental"
    expected = {
        u: v for u, v in _rows(source.lake_dir).items() if v[-1] in langs
    }
    assert _rows(rep) == expected
    # the fixture must actually exercise a predicate exit: some url
    # live at v1 with lang in langs updated to a lang outside it
    assert r["rows_removed"] > 0


def test_replica_refuses_changed_filter(source, tmp_path):
    """A filtered replica later synced with a different (or no)
    predicate must be refused, never silently polluted — the filter
    identity is recorded in _replica.json."""
    import pyarrow as pa

    def only_en(t):
        return pc.equal(t.column("lang"), "en")

    rep = str(tmp_path / "replica")
    sync_replica(source.lake_dir, rep, predicate=only_en, at_version=1)
    with pytest.raises(ValueError, match="fresh replica dir"):
        sync_replica(source.lake_dir, rep)  # unfiltered sync
    with pytest.raises(ValueError, match="fresh replica dir"):
        sync_replica(source.lake_dir, rep, predicate=only_en,
                     columns=["lang"])  # changed projection
    # same tag: proceeds
    r = sync_replica(source.lake_dir, rep, predicate=only_en)
    assert r["synced"] and r["mode"] == "incremental"
    assert all(
        v[-1] == "en" for v in _rows(rep).values()
    )


def test_replica_column_pruning(source, tmp_path):
    rep = str(tmp_path / "replica")
    sync_replica(source.lake_dir, rep, columns=["lang"])
    snap = lake_snapshot(rep)
    assert sorted(snap.column_names) == ["lang", "seq", "url", "warc_ts"]
    assert _rows(rep) == _rows(source.lake_dir)


def test_replica_rebuilds_after_vacuumed_gap(source, tmp_path):
    """A replica whose base snapshot was vacuumed must rebuild from the
    0->current feed (dropping stale files), not crash."""
    rep = str(tmp_path / "replica")
    sync_replica(source.lake_dir, rep, at_version=1)
    vacuum(source.lake_dir, keep=1)  # v1 delta gone
    r = sync_replica(source.lake_dir, rep)
    assert r["mode"] == "rebuild" and r["source_version"] == 3
    assert _rows(rep) == _rows(source.lake_dir)


def test_replica_across_compaction(source, tmp_path):
    """Deletes whose tombstones were compacted away (NULL-identity feed
    rows) must still remove the urls from the replica."""
    rep = str(tmp_path / "replica")
    sync_replica(source.lake_dir, rep, at_version=1)
    compact_lake(source.lake_dir)  # -> v4, tombstones gone
    r = sync_replica(source.lake_dir, rep)
    assert r["source_version"] == 4
    assert _rows(rep) == _rows(source.lake_dir)
    # replica manifest records provenance
    m = load_manifest(rep)
    assert m.counters["source_version"] == 4
    assert m.lineage[-1]["op"] == "sync_replica"
