"""Cross-table catalog (``pipelines/catalog.py``): atomic multi-lake
snapshots over independently-committing lakes — the Nessie/Iceberg
multi-table-transaction shape. Laws tested:

* consistency: a reader resolving through the catalog NEVER sees two
  member lakes at different WAL batches, even while one lake's head has
  already advanced (crash between member ingests);
* recovery is retry: after a simulated mid-transaction crash, the next
  ``run_consistent_ingest`` converges every lake and only then advances
  the catalog;
* retention: catalog-pinned versions survive each lake's retention and
  an aggressive vacuum (rolling ``catalog`` tag), and are released when
  the catalog moves on;
* CAS: concurrent catalog committers lose cleanly.
"""
import json
import os

import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.catalog import (
    catalog_read,
    catalog_snapshot,
    commit_catalog,
    load_catalog,
    run_consistent_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import (
    generate_wal,
    naive_replay,
)
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
    ConcurrentWriterError,
    list_tags,
    load_manifest,
)


def _cfgs(tmp, **kw):
    wal = os.path.join(tmp, "wal")
    mk = lambda sub: CdcConfig(  # noqa: E731
        wal_dir=wal, lake_dir=os.path.join(tmp, sub), num_partitions=4,
        **kw,
    )
    return {"pages": mk("pages"), "mirror": mk("mirror")}


def _expected(wal_dir):
    final = naive_replay([pq.read_table(s.path) for s in list_segments(wal_dir)])
    return {u: (r["warc_ts"], r["seq"]) for u, r in final.items()}


def _ids(tbl):
    return {r["url"]: (r["warc_ts"], r["seq"]) for r in tbl.to_pylist()}


def test_consistent_ingest_and_catalog_read(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    cat = os.path.join(tmp, "cat")
    generate_wal(wal, seed=5, n_urls=30, n_events=300, n_segments=3,
                 delete_fraction=0.1)
    cfgs = _cfgs(tmp)
    out = run_consistent_ingest(cat, cfgs)
    assert out["catalog_version"] == 1
    doc = load_catalog(cat)
    assert set(doc["tables"]) == {"pages", "mirror"}
    exp = _expected(wal)
    for name in ("pages", "mirror"):
        assert _ids(catalog_snapshot(cat, name)) == exp
        # pinned Dataset read agrees with the snapshot
        got = catalog_read(cat, name, columns=["url", "warc_ts", "seq"])
        assert {
            r["url"]: (r["warc_ts"], r["seq"]) for r in got.take_all()
        } == exp
    # both lakes pinned by the rolling catalog tag
    for cfg in cfgs.values():
        tags = list_tags(cfg.lake_dir)
        assert tags.get("catalog") == load_manifest(cfg.lake_dir).version
        assert "catalog-next" not in tags


def test_crash_between_members_keeps_catalog_consistent(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    cat = os.path.join(tmp, "cat")
    generate_wal(wal, seed=7, n_urls=25, n_events=200, n_segments=2)
    cfgs = _cfgs(tmp)
    run_consistent_ingest(cat, cfgs)
    v1 = {n: load_catalog(cat)["tables"][n]["version"] for n in cfgs}
    exp1 = _expected(wal)

    # new WAL lands; simulate a crash AFTER pages ingested, BEFORE
    # mirror — by running only the pages member directly
    generate_wal(wal, seed=11, n_urls=25, n_events=200, n_segments=2,
                 start_segment=2, delete_fraction=0.15)
    run_ingest(cfgs["pages"])
    assert load_manifest(cfgs["pages"].lake_dir).version > v1["pages"]

    # the catalog still serves the OLD consistent pair — pages' head
    # moved, the catalog read did not
    doc = load_catalog(cat)
    assert doc["version"] == 1
    assert {n: doc["tables"][n]["version"] for n in cfgs} == v1
    assert _ids(catalog_snapshot(cat, "pages")) == exp1
    assert _ids(catalog_snapshot(cat, "mirror")) == exp1

    # recovery is retry: pages no-ops on the watermark, mirror catches
    # up, the catalog advances once
    out = run_consistent_ingest(cat, cfgs)
    assert out["tables"]["pages"]["commits"] == 0
    assert out["tables"]["mirror"]["commits"] >= 1
    exp2 = _expected(wal)
    assert _ids(catalog_snapshot(cat, "pages")) == exp2
    assert _ids(catalog_snapshot(cat, "mirror")) == exp2
    assert load_catalog(cat)["version"] == 2


def test_catalog_pin_survives_retention_and_vacuum(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import vacuum

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    cat = os.path.join(tmp, "cat")
    generate_wal(wal, seed=13, n_urls=20, n_events=150, n_segments=2)
    cfgs = _cfgs(tmp, retain_versions=1)
    run_consistent_ingest(cat, cfgs)
    pinned = load_catalog(cat)["tables"]["pages"]["version"]
    exp1 = _expected(wal)

    # pages advances TWICE past the pin under retain_versions=1, then
    # an aggressive vacuum sweeps everything unpinned
    for seg, seed in ((2, 17), (3, 19)):
        generate_wal(wal, seed=seed, n_urls=20, n_events=80, n_segments=1,
                     start_segment=seg)
        run_ingest(cfgs["pages"])
    vacuum(cfgs["pages"].lake_dir, keep=1)
    # the catalog-pinned version is still readable
    assert _ids(catalog_snapshot(cat, "pages")) == exp1

    # once the catalog moves on, the old pin is released
    run_ingest(cfgs["mirror"])
    run_consistent_ingest(cat, cfgs)
    vacuum(cfgs["pages"].lake_dir, keep=1)
    with pytest.raises(FileNotFoundError):
        lake_snapshot(cfgs["pages"].lake_dir, version=pinned)


def test_watermark_mismatch_refused(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    wal2 = os.path.join(tmp, "wal2")
    cat = os.path.join(tmp, "cat")
    generate_wal(wal, seed=23, n_urls=10, n_events=60, n_segments=1)
    generate_wal(wal2, seed=23, n_urls=10, n_events=60, n_segments=2)
    cfgs = _cfgs(tmp)
    cfgs["mirror"] = CdcConfig(
        wal_dir=wal2, lake_dir=cfgs["mirror"].lake_dir, num_partitions=4,
    )
    with pytest.raises(RuntimeError, match="different watermarks"):
        run_consistent_ingest(cat, cfgs)
    assert load_catalog(cat) is None  # nothing published


def test_concurrent_catalog_commit_loses_cas(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    cat = os.path.join(tmp, "cat")
    generate_wal(wal, seed=29, n_urls=10, n_events=60, n_segments=1)
    cfgs = _cfgs(tmp)
    run_consistent_ingest(cat, cfgs)

    # a racer that loaded the doc, then lost: emulate by swapping the
    # doc bytes underneath a second commit's read via direct edit
    from data_hub_ejp_xml_pipeline_ray.pipelines import catalog as catmod

    real_load = catmod.load_catalog

    def stale_load(catalog_dir, *, store=None):
        doc = real_load(catalog_dir, store=store)
        doc = json.loads(json.dumps(doc))
        doc["version"] -= 1  # serialized bytes no longer match disk
        return doc

    catmod.load_catalog, orig = stale_load, catmod.load_catalog
    try:
        with pytest.raises(ConcurrentWriterError):
            commit_catalog(
                cat, {n: (c.lake_dir, None) for n, c in cfgs.items()}
            )
    finally:
        catmod.load_catalog = orig


def test_member_leaving_catalog_releases_its_pin(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    cat = os.path.join(tmp, "cat")
    generate_wal(wal, seed=31, n_urls=10, n_events=60, n_segments=1)
    cfgs = _cfgs(tmp)
    run_consistent_ingest(cat, cfgs)
    assert "catalog" in list_tags(cfgs["mirror"].lake_dir)
    commit_catalog(cat, {"pages": (cfgs["pages"].lake_dir, None)})
    assert "catalog" not in list_tags(cfgs["mirror"].lake_dir)
    assert set(load_catalog(cat)["tables"]) == {"pages"}
