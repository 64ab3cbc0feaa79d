"""Zone maps + scan planner (``state.zones``, ``cdc.scan_plan``,
``read_lake(constraints=...)``). Laws under test:

* commit records a footer-derived zone doc for every live data file,
  carries them forward untouched, and footer-reads ONLY new files;
* a url point lookup hash-routes to exactly one partition — before and
  after a partition split;
* zone range pruning skips partitions whose [min, max] cannot match,
  and the pruned read equals the brute-force snapshot filter (the
  statistics are never load-bearing);
* merge-on-read + schema evolution: a partition is skipped only when
  EVERY file (base + deltas) is provably predicate-free; a column
  absent from a pre-evolution file prunes like all-NULL;
* LWW soundness: pruning never resurrects a superseded row (pruned
  read == filter over the post-LWW snapshot, under updates/deletes).
"""
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    read_lake,
    run_ingest,
    scan_plan,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state import zones as zones_mod
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest
from data_hub_ejp_xml_pipeline_ray.state.zones import (
    constraints_to_expression,
    file_zone_doc,
    zone_allows,
)


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([("url", "ascending"), ("seq", "ascending")])


def _pruned_equals_bruteforce(lake_dir, constraints):
    """The central law: constrained read == snapshot filtered by the
    same compiled expression (pruning is a pure optimization)."""
    snap = lake_snapshot(lake_dir)
    expr = constraints_to_expression(constraints, snap.schema)
    want = _sorted(snap.filter(expr))
    got = pa.Table.from_pylist(
        read_lake(lake_dir, constraints=constraints).take_all(),
        schema=snap.schema,
    )
    assert _sorted(got).equals(want), (
        f"pruned read diverged for {constraints}: "
        f"{_sorted(got).num_rows} vs {want.num_rows} rows"
    )
    return want.num_rows


# ---------------------------------------------------------------------------
# unit: file_zone_doc / zone_allows
# ---------------------------------------------------------------------------

def test_file_zone_doc_bounds_nulls_and_unsupported(tmp_path):
    path = str(tmp_path / "f.parquet")
    t = pa.table({
        "i": pa.array([3, None, 9], pa.int64()),
        "s": pa.array(["b", "a", None], pa.string()),
        "allnull": pa.array([None, None, None], pa.float64()),
        "bin": pa.array([b"x", b"y", b"z"], pa.binary()),
        "nested": pa.array([[1], [2], [3]], pa.list_(pa.int64())),
    })
    pq.write_table(t, path)
    doc = file_zone_doc(path)
    assert doc["rows"] == 3
    cols = doc["cols"]
    assert cols["i"] == {"r": 3, "n": 1, "t": "i", "lo": 3, "hi": 9}
    assert cols["s"] == {"r": 3, "n": 1, "t": "s", "lo": "a", "hi": "b"}
    assert cols["allnull"] == {"r": 3, "n": 3}
    assert cols["bin"] == {"x": 1}
    assert cols["nested"] == {"x": 1}


def test_zone_allows_matrix():
    cols = {
        "i": {"r": 10, "n": 0, "t": "i", "lo": 5, "hi": 9},
        "allnull": {"r": 10, "n": 10},
        "unk": {"x": 1},
        "const": {"r": 4, "n": 0, "t": "s", "lo": "en", "hi": "en"},
    }
    # range ops against [5, 9]
    assert zone_allows(cols, "i", "==", 7) and not zone_allows(cols, "i", "==", 4)
    assert zone_allows(cols, "i", "<", 6) and not zone_allows(cols, "i", "<", 5)
    assert zone_allows(cols, "i", "<=", 5) and not zone_allows(cols, "i", "<=", 4)
    assert zone_allows(cols, "i", ">", 8) and not zone_allows(cols, "i", ">", 9)
    assert zone_allows(cols, "i", ">=", 9) and not zone_allows(cols, "i", ">=", 10)
    assert zone_allows(cols, "i", "in", [1, 6]) and not zone_allows(cols, "i", "in", [1, 2])
    # != / not_in prune only a constant column
    assert zone_allows(cols, "i", "!=", 7)
    assert not zone_allows(cols, "const", "==", "fr")
    assert not zone_allows(cols, "const", "!=", "en")
    assert not zone_allows(cols, "const", "not_in", ["en", "de"])
    assert zone_allows(cols, "const", "not_in", ["fr"])
    # NULL-rejecting semantics: all-null and ABSENT columns prune everything
    for op, val in (("==", 1), ("!=", 1), ("<", 1), ("not_null",), ("matches", "x"))[:3]:
        assert not zone_allows(cols, "allnull", op, val)
    assert not zone_allows(cols, "allnull", "not_null")
    assert not zone_allows(cols, "allnull", "matches", "x")
    assert not zone_allows(cols, "absent_col", "==", 1)
    assert not zone_allows(cols, "absent_col", "not_null")
    # unknown stats never prune; incomparable values never prune
    assert zone_allows(cols, "unk", "==", 1)
    assert zone_allows(cols, "i", "==", "not-a-number")
    assert zone_allows(cols, "i", "matches", ".*")
    # no doc at all -> never prune
    assert zone_allows(None, "i", "==", 1)


def test_ts_us_normalization():
    from datetime import datetime, timezone

    from data_hub_ejp_xml_pipeline_ray.state.zones import _ts_us

    aware = datetime(2025, 1, 2, 3, 4, 5, 123456, tzinfo=timezone.utc)
    naive = datetime(2025, 1, 2, 3, 4, 5, 123456)
    assert _ts_us(aware) == _ts_us(naive) == _ts_us("2025-01-02T03:04:05.123456")
    assert _ts_us("2025-01-02T03:04:05.123456Z") == _ts_us(aware)
    assert _ts_us(1234) == 1234
    assert _ts_us("garbage") is None and _ts_us(True) is None


# ---------------------------------------------------------------------------
# integration: commit-time zone recording + carry-forward
# ---------------------------------------------------------------------------

def test_commit_records_zones_and_carries_forward(tmp_path, monkeypatch):
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    generate_wal(wal, seed=11, n_urls=80, n_events=1200, n_segments=4)
    cfg = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=8,
                    max_segments_per_batch=2)
    calls: list[str] = []
    real = zones_mod.file_zone_doc
    monkeypatch.setattr(
        zones_mod, "file_zone_doc",
        lambda p: calls.append(p) or real(p),
    )
    run_ingest(cfg)
    m = load_manifest(lake)
    live = m.all_data_relpaths()
    assert set(m.zones) == live
    # two commits, partitions rewritten per CoW batch: every footer was
    # read exactly ONCE per distinct file version (carry-forward means
    # commit 2 never re-reads commit 1's surviving files)
    assert len(calls) == len(set(calls))
    # zone bounds are real: spot-check seq min/max of one file
    rel = sorted(live)[0]
    t = pq.read_table(os.path.join(lake, rel), columns=["seq"])
    z = m.zones[rel]["cols"]["seq"]
    assert z["lo"] == pc.min(t.column("seq")).as_py()
    assert z["hi"] == pc.max(t.column("seq")).as_py()
    # warc_ts zone is epoch-us tagged
    assert m.zones[rel]["cols"]["warc_ts"]["t"] == "ts"
    # every top-level column of the file carries SOME entry (absence is
    # reserved for pre-evolution files lacking the column)
    file_schema = pq.ParquetFile(os.path.join(lake, rel)).schema_arrow
    assert set(m.zones[rel]["cols"]) == set(file_schema.names)


# ---------------------------------------------------------------------------
# integration: point lookup routing, zone range pruning, equality law
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pruning_lake(tmp_path_factory):
    """One CoW batch of v1 segments over many urls, then a second MOR
    batch of v2 segments (adds ``content_type``) over THREE urls — so
    most partitions keep a pre-evolution base with no deltas, and a few
    carry a post-evolution delta file."""
    root = tmp_path_factory.mktemp("zonelake")
    wal, lake = str(root / "wal"), str(root / "lake")
    generate_wal(wal, seed=21, n_urls=150, n_events=2500, n_segments=4,
                 delete_fraction=0.08)
    cfg = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=16)
    run_ingest(cfg)
    generate_wal(wal, seed=22, n_urls=3, n_events=60, n_segments=2,
                 start_segment=4, v2_from_segment=0, delete_fraction=0.0)
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=16,
                         merge_mode="mor"))
    return lake


def test_point_lookup_routes_to_one_partition(pruning_lake):
    snap = lake_snapshot(pruning_lake)
    url = snap.column("url")[5].as_py()
    plan = scan_plan(pruning_lake, [["url", "==", url]])
    assert plan["parts_read"] == 1
    assert plan["skipped_by_routing"] == plan["parts_total"] - 1
    n = _pruned_equals_bruteforce(pruning_lake, [["url", "==", url]])
    assert n == 1
    # membership routes to at most k partitions
    urls = [snap.column("url")[i].as_py() for i in (0, 7, 31)]
    plan = scan_plan(pruning_lake, [["url", "in", urls]])
    assert plan["parts_read"] <= 3
    _pruned_equals_bruteforce(pruning_lake, [["url", "in", urls]])


def test_zone_range_pruning_skips_and_matches(pruning_lake):
    m = load_manifest(pruning_lake)
    # pick a seq threshold between the per-partition maxima so SOME
    # partitions prune and some survive, whatever the data layout
    per_part_hi = sorted(
        max(m.zones[r]["cols"]["seq"]["hi"] for r in m.part_files(p)
            if "hi" in m.zones[r]["cols"]["seq"])
        for p in m.all_parts()
    )
    thresh = per_part_hi[len(per_part_hi) // 2]
    cons = [["seq", ">", thresh]]
    plan = scan_plan(pruning_lake, cons)
    assert 0 < plan["skipped_by_zones"] < plan["parts_total"]
    assert plan["parts_read"] + plan["skipped_by_zones"] == plan["parts_total"]
    _pruned_equals_bruteforce(pruning_lake, cons)
    # an impossible range prunes EVERYTHING without reading a byte
    plan = scan_plan(pruning_lake, [["seq", ">", 10**9]])
    assert plan["parts_read"] == 0
    assert read_lake(pruning_lake, constraints=[["seq", ">", 10**9]]).count() == 0


def test_evolution_column_prunes_pre_evolution_partitions(pruning_lake):
    m = load_manifest(pruning_lake)
    assert m.delta_files, "fixture must leave pending MOR deltas"
    cons = [["content_type", "not_null"]]
    plan = scan_plan(pruning_lake, cons)
    # only partitions holding a v2 delta file can match; the 3 urls of
    # batch 2 land in at most 3 partitions
    assert plan["parts_read"] <= 3
    assert plan["skipped_by_zones"] >= plan["parts_total"] - 3
    n = _pruned_equals_bruteforce(pruning_lake, cons)
    assert n > 0
    _pruned_equals_bruteforce(
        pruning_lake, [["content_type", "==", "text/html"]]
    )


def test_pruning_never_resurrects_superseded_rows(pruning_lake):
    """Every predicate family run against the brute-force law on a lake
    with updates, deletes and pending MOR deltas — a file-granular
    skipper would fail this (an old matching version of an updated url
    would leak back in)."""
    snap = lake_snapshot(pruning_lake)
    lang = snap.column("lang")[0].as_py()
    cutoff = snap.column("warc_ts")[snap.num_rows // 2].as_py().isoformat()
    for cons in (
        [["lang", "==", lang]],
        [["lang", "!=", lang]],
        [["warc_ts", ">=", cutoff]],
        [["warc_ts", "<", cutoff], ["lang", "==", lang]],
        [["url", "matches", r"/p/\d{3}$"]],
        [["fetch_status", "in", [200, 301]]],
        [["fetch_status", "not_in", [200]]],
    ):
        _pruned_equals_bruteforce(pruning_lake, cons)


def test_point_lookup_after_split(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        split_partition,
    )

    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    generate_wal(wal, seed=31, n_urls=60, n_events=900, n_segments=3)
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4))
    split_partition(lake, 1)
    snap = lake_snapshot(lake)
    for i in (0, 9, 23):
        url = snap.column("url")[i].as_py()
        plan = scan_plan(lake, [["url", "==", url]])
        assert plan["parts_read"] == 1
        assert _pruned_equals_bruteforce(lake, [["url", "==", url]]) == 1


def test_columns_projection_composes_with_constraints(pruning_lake):
    snap = lake_snapshot(pruning_lake)
    url = snap.column("url")[3].as_py()
    got = read_lake(
        pruning_lake, columns=["url", "lang"],
        constraints=[["url", "==", url], ["seq", ">=", 1]],
    ).take_all()
    assert len(got) == 1 and set(got[0]) == {"url", "lang"}
    assert got[0]["url"] == url


def test_entity_group_lake_constrained_read(tmp_path):
    """kind="group" lake through the planner: a url point constraint
    routes to one partition and returns the url's WHOLE entity row-set
    (group atomicity survives pruning); an entity_type constraint
    equals the brute-force filter."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import run_entity_ingest

    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    generate_wal(wal, seed=41, n_urls=50, n_events=700, n_segments=3,
                 rich_pages=True, delete_fraction=0.1)
    run_entity_ingest(CdcConfig(wal_dir=wal, lake_dir=lake,
                                num_partitions=8))
    snap = lake_snapshot(lake)
    url = snap.column("url")[0].as_py()
    plan = scan_plan(lake, [["url", "==", url]])
    assert plan["parts_read"] == 1
    got = pa.Table.from_pylist(
        read_lake(lake, constraints=[["url", "==", url]]).take_all(),
        schema=snap.schema,
    ).sort_by([("entity_type", "ascending"), ("link_index", "ascending")])
    want = snap.filter(pc.equal(snap.column("url"), url)).sort_by(
        [("entity_type", "ascending"), ("link_index", "ascending")]
    )
    assert want.num_rows > 1 and got.equals(want)
    # non-key constraint: equality law on the group lake
    et = snap.column("entity_type")[0].as_py()
    got2 = pa.Table.from_pylist(
        read_lake(lake, constraints=[["entity_type", "==", et]]).take_all(),
        schema=snap.schema,
    ).sort_by([("url", "ascending"), ("link_index", "ascending")])
    want2 = snap.filter(pc.equal(snap.column("entity_type"), et)).sort_by(
        [("url", "ascending"), ("link_index", "ascending")]
    )
    assert got2.equals(want2)


def test_zones_identical_across_crashed_commit_retry(tmp_path, monkeypatch):
    """Crash between the snapshot CAS and the pointer publish, then
    retry: the retried commit recomputes byte-identical zones (footers
    are immutable, refresh is deterministic), and the final manifest's
    zones equal a clean never-crashed lake's."""
    from data_hub_ejp_xml_pipeline_ray.state import store as store_mod

    wal = str(tmp_path / "wal")
    generate_wal(wal, seed=51, n_urls=40, n_events=500, n_segments=2)

    real_store = store_mod.LOCAL_STORE
    crashed = {"done": False}

    class CrashingStore:
        def __getattr__(self, name):
            return getattr(real_store, name)

        def put_atomic(self, path, data):
            if path.endswith("_manifest.json") and not crashed["done"]:
                crashed["done"] = True
                raise RuntimeError("simulated crash before pointer publish")
            real_store.put_atomic(path, data)

    lake_a = str(tmp_path / "lake_a")
    cfg = CdcConfig(wal_dir=wal, lake_dir=lake_a, num_partitions=4)
    monkeypatch.setattr(store_mod, "LOCAL_STORE", CrashingStore())
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_ingest(cfg)
    assert crashed["done"] and load_manifest(lake_a) is None
    run_ingest(cfg)  # retry completes the v1 commit
    monkeypatch.setattr(store_mod, "LOCAL_STORE", real_store)

    lake_b = str(tmp_path / "lake_b")
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=lake_b, num_partitions=4))
    ma, mb = load_manifest(lake_a), load_manifest(lake_b)
    assert ma.zones and ma.zones == mb.zones
    assert lake_snapshot(lake_a).sort_by([("url", "ascending")]).equals(
        lake_snapshot(lake_b).sort_by([("url", "ascending")])
    )


def test_zones_follow_maintenance_rewrites(tmp_path):
    """cluster/compact rewrite partition files under NEW content-
    addressed relpaths: the commit hook must record zones for every
    rewritten file (and drop dead entries), and the pruning law must
    keep holding on the rewritten lake."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        cluster_lake,
        compact_lake,
    )

    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    generate_wal(wal, seed=53, n_urls=60, n_events=800, n_segments=2,
                 delete_fraction=0.2)
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=8))
    before = set(load_manifest(lake).zones)
    compact_lake(lake)
    cluster_lake(lake, "lang")
    m = load_manifest(lake)
    assert set(m.zones) == m.all_data_relpaths()
    assert set(m.zones) != before, "rewrites must produce new relpaths"
    snap = lake_snapshot(lake)
    lang = snap.column("lang")[0].as_py()
    _pruned_equals_bruteforce(lake, [["lang", "==", lang]])
    url = snap.column("url")[0].as_py()
    assert scan_plan(lake, [["url", "==", url]])["parts_read"] == 1
    _pruned_equals_bruteforce(lake, [["url", "==", url]])
