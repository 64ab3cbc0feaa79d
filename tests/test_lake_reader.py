"""One lake reader: ``read_lake``, ``lookup_urls``, ``lake_snapshot``
and the change feeds all read partitions through
``stages.merge.read_effective_partition`` on the plain partition tasks.
These tests pin the reads against expectations derived from
``lake_snapshot`` on one lake that holds every layout the reader must
serve, and pin where the reads run (no Ray Data launch) and which
filters go into the parquet reads."""
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from data_hub_ejp_xml_pipeline_ray.pipelines import cdc
from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    changes_between,
    lake_snapshot,
    lookup_urls,
    read_lake,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.ddl import alter_lake
from data_hub_ejp_xml_pipeline_ray.pipelines.dml import update_where
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    compact_deltas,
    purge_urls,
    split_partition,
)
from data_hub_ejp_xml_pipeline_ray.schemas import apply_renames, conform_table
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.stages.merge import DELETED_COL
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

OLD = 2  # the CoW base's last version: before the split, deltas and rename


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    """A CoW base (v1-v2), a split, pending MOR deltas carrying an
    evolution-added column, an ``alter_lake`` rename, and more deltas
    written after it; every version retained."""
    root = tmp_path_factory.mktemp("reader")
    wal, lake_dir = str(root / "wal"), str(root / "lake")
    generate_wal(wal, seed=11, n_urls=80, n_events=1200, n_segments=6,
                 v2_from_segment=3, delete_fraction=0.1)

    def ingest(include, mode):
        run_ingest(CdcConfig(
            wal_dir=wal, lake_dir=lake_dir, num_partitions=4,
            include_pattern=include, merge_mode=mode, retain_versions=None,
            max_segments_per_batch=1,
        ))

    ingest("segment-0000[0-1]*", "cow")
    assert load_manifest(lake_dir).version == OLD
    assert split_partition(lake_dir, 0)["children"]
    ingest("segment-0000[0-3]*", "mor")
    alter_lake(lake_dir, rename={"lang": "language"})
    ingest(None, "mor")
    m = load_manifest(lake_dir)
    assert m.delta_files and m.renames and m.splits
    assert "content_type" in m.schema.names
    return lake_dir


def _rows(table: pa.Table, keys=("url",)) -> list[dict]:
    return sorted(table.to_pylist(), key=lambda r: tuple(r[k] for k in keys))


def _consume(ds) -> pa.Table:
    return pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    )


def _expected_feed(lake_dir: str, v_from: int, preimages: bool) -> list[dict]:
    """The feed between two versions, from their snapshots: the old one
    read under the head's rename log and schema. A postimage delete's
    payload is the tombstone's, which a snapshot does not hold, so
    deletes are compared by url only there."""
    new = lake_snapshot(lake_dir)
    m = load_manifest(lake_dir)
    visible = pa.schema([f for f in m.schema if f.name != DELETED_COL])
    old = conform_table(
        apply_renames(lake_snapshot(lake_dir, version=v_from), m.renames),
        visible,
    )
    o = {r["url"]: r for r in old.to_pylist()}
    n = {r["url"]: r for r in new.to_pylist()}
    rows = []
    for u, r in n.items():
        if u not in o:
            rows.append({**r, "change_op": "insert"})
        elif (r["warc_ts"], r["seq"]) != (o[u]["warc_ts"], o[u]["seq"]):
            if preimages:
                rows.append({**o[u], "change_op": "update_preimage"})
                rows.append({**r, "change_op": "update_postimage"})
            else:
                rows.append({**r, "change_op": "update"})
    for u, r in o.items():
        if u not in n:
            rows.append({**r, "change_op": "delete"} if preimages
                        else {"url": u, "change_op": "delete"})
    return sorted(rows, key=lambda r: (r["url"], r["change_op"]))


def _feed_rows(feed: pa.Table, preimages: bool) -> list[dict]:
    rows = [
        r if preimages or r["change_op"] != "delete"
        else {"url": r["url"], "change_op": "delete"}
        for r in feed.to_pylist()
    ]
    return sorted(rows, key=lambda r: (r["url"], r["change_op"]))


def test_reads_match_the_snapshot(lake):
    snap = lake_snapshot(lake)
    assert snap.num_rows > 0
    assert _rows(_consume(read_lake(lake))) == _rows(snap)

    cols = ["seq", "language", "url"]
    got = _consume(read_lake(lake, columns=cols))
    assert got.column_names == [n for n in snap.column_names if n in cols]
    assert _rows(got) == _rows(snap.select(got.column_names))

    expr = pc.field("language") == "en"
    assert _rows(_consume(read_lake(lake, filter=expr))) == _rows(
        snap.filter(expr))

    urls = snap.column("url").to_pylist()[::7] + ["http://absent.example/"]
    routed = _consume(read_lake(lake, constraints=[["url", "in", urls]]))
    want = snap.filter(pc.is_in(snap.column("url"), value_set=pa.array(urls)))
    assert want.num_rows > 1 and _rows(routed) == _rows(want)
    # constraint columns read for the filter only, then dropped
    got = _consume(read_lake(lake, columns=["seq"],
                             constraints=[["url", "in", urls]]))
    assert got.column_names == ["seq"]
    assert sorted(got.column("seq").to_pylist()) == sorted(
        want.column("seq").to_pylist())

    assert lookup_urls(lake, urls).equals(want)

    old = lake_snapshot(lake, version=OLD)
    assert "lang" in old.column_names and old.num_rows > 0
    assert _rows(_consume(read_lake(lake, version=OLD))) == _rows(old)


@pytest.mark.parametrize("preimages", [False, True])
def test_feed_matches_the_snapshots(lake, preimages):
    feed = _consume(changes_between(lake, OLD, preimages=preimages))
    assert _feed_rows(feed, preimages) == _expected_feed(lake, OLD, preimages)
    pruned = _consume(changes_between(lake, OLD, preimages=preimages,
                                      columns=["language"]))
    assert pruned.column_names == [
        "url", "change_op", "warc_ts", "seq", "language"]
    assert _rows(pruned, ("url", "change_op")) == _rows(
        feed.select(pruned.column_names), ("url", "change_op"))


def test_small_reads_build_no_dataset_launch(lake, monkeypatch):
    """Every read runs on the plain partition tasks: no parquet
    datasource, no items source, no all-to-all."""
    def no_launch(*a, **k):
        raise AssertionError("a small read launched a Ray Data plan")

    for name in ("read_parquet", "from_items"):
        monkeypatch.setattr(ray.data, name, no_launch)
    monkeypatch.setattr(ray.data.Dataset, "repartition", no_launch)
    urls = lake_snapshot(lake).column("url").to_pylist()[:5]
    assert _consume(read_lake(lake)).num_rows > 0
    assert _consume(read_lake(lake, columns=["url", "seq"])).num_rows > 0
    assert _consume(read_lake(lake, constraints=[["url", "in", urls]])
                    ).num_rows == 5
    assert _consume(read_lake(lake, version=OLD)).num_rows > 0
    assert _consume(changes_between(lake, OLD)).num_rows > 0
    assert lookup_urls(lake, urls).num_rows == 5


@pytest.fixture
def small_lake(tmp_path):
    wal, lake_dir = str(tmp_path / "wal"), str(tmp_path / "lake")
    generate_wal(wal, seed=5, n_urls=60, n_events=600, n_segments=3,
                 delete_fraction=0.1)
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=lake_dir, num_partitions=8,
                         retain_versions=None))
    return lake_dir


def _regroup(lake_dir: str) -> None:
    """Rewrite every data file of a lake in row groups of 4 rows (the
    same rows), so that a pushed filter has groups to skip."""
    import pyarrow.parquet as pq

    for root, _, names in os.walk(os.path.join(lake_dir, "data")):
        for name in names:
            path = os.path.join(root, name)
            pq.write_table(pq.read_table(path), path, row_group_size=4)


def _spy_pushdown(monkeypatch) -> list:
    """Record the filter of every fragment scan the reader pushes one
    into (reads in this process only: read_lake's run in workers)."""
    from data_hub_ejp_xml_pipeline_ray.stages import merge

    calls = []
    real = merge._PARQUET

    class Fragment:
        def __init__(self, frag):
            self.physical_schema = frag.physical_schema
            self._frag = frag

        def to_table(self, **k):
            calls.append(k["filter"])
            return self._frag.to_table(**k)

    class Format:
        def make_fragment(self, *a):
            return Fragment(real.make_fragment(*a))

    monkeypatch.setattr(merge, "_PARQUET", Format())
    return calls


def test_one_file_partitions_push_the_filter_down(small_lake, monkeypatch):
    """A partition with no deltas takes ``filter`` into a fragment scan
    of its file, whether the file holds one row group or several, a
    column the file predates reading as nulls."""
    from data_hub_ejp_xml_pipeline_ray.stages.merge import (
        read_effective_partition,
    )

    alter_lake(small_lake, add={"score": "float64"})
    snap = lake_snapshot(small_lake)
    exprs = (pc.field("lang") == "en", pc.field("score").is_null(),
             pc.field("score") > 0)
    m = load_manifest(small_lake)
    rels = m.part_files(m.all_parts()[0])
    whole = read_effective_partition(small_lake, rels, m.schema)
    for regrouped in (False, True):
        if regrouped:
            _regroup(small_lake)
        for expr in exprs:
            got = read_lake(small_lake, filter=expr, columns=["url", "lang"])
            assert sorted(got.take_all(), key=lambda r: r["url"]) == _rows(
                snap.filter(expr).select(["url", "lang"]))
    calls = _spy_pushdown(monkeypatch)
    for expr in exprs:
        t = read_effective_partition(small_lake, rels, m.schema, filter=expr)
        assert calls[-1] is expr and t.equals(whole.filter(expr))


def test_url_filters_push_into_every_file(lake, tmp_path, monkeypatch):
    """On a partition with MOR deltas and a rename log, a filter on the
    LWW key alone goes into every file's read and keeps the LWW
    winners; any other filter applies after the reduction."""
    import shutil

    from data_hub_ejp_xml_pipeline_ray.stages.merge import (
        read_effective_partition,
        visible_rows,
    )

    m = load_manifest(lake)
    part = max(m.all_parts(), key=lambda p: len(m.part_files(p)))
    calls = _spy_pushdown(monkeypatch)
    read_effective_partition(lake, m.part_files(part), m.schema,
                             renames=m.renames, filter=cdc._any_url(["u"]))
    assert not calls  # one-group files: cut whole-file reads, no scan
    copy = str(tmp_path / "lake")
    shutil.copytree(lake, copy)
    _regroup(copy)
    rels = m.part_files(part)
    assert len(rels) > 1

    def read(**k):
        return visible_rows(read_effective_partition(
            copy, rels, m.schema, renames=m.renames, **k))

    whole = read()
    urls = whole.column("url").to_pylist()[::3]
    assert _rows(read(filter=cdc._any_url(urls))) == _rows(
        whole.filter(pc.is_in(whole.column("url"), value_set=pa.array(urls))))
    import pyarrow.parquet as pq

    grouped = [r for r in rels if pq.ParquetFile(
        os.path.join(copy, r)).metadata.num_row_groups > 1]
    assert len(calls) == len(grouped) > 1
    calls.clear()
    expr = pc.field("language") == "en"
    assert _rows(read(filter=expr)) == _rows(whole.filter(expr))
    assert not calls
    assert lookup_urls(copy, urls).equals(lookup_urls(lake, urls))


def test_url_predicate_prunes_row_groups(tmp_path):
    """The lookup's url predicate is one pyarrow's row-group statistics
    prune on: on a url-sorted file only the row groups holding the
    urls are read."""
    import pyarrow.dataset as ds
    import pyarrow.parquet as pq

    path = str(tmp_path / "sorted.parquet")
    urls = [f"http://site.example/{i:05d}" for i in range(1000)]
    pq.write_table(pa.table({"url": urls}), path, row_group_size=100)
    frag = next(ds.dataset(path).get_fragments())
    pred = cdc._any_url([urls[5], urls[7], urls[950], "http://absent/"])
    assert [rg.id for rg in frag.subset(filter=pred).row_groups] == [0, 9]
    assert frag.to_table(filter=pred).num_rows == 3


def test_feed_diffs_only_changed_partitions(small_lake):
    snap = lake_snapshot(small_lake)
    url = snap.column("url")[0].as_py()
    assert update_where(small_lake, [["url", "==", url]],
                        {"lang": "xx"})["committed"]
    m_to = load_manifest(small_lake)
    m_from = load_manifest(small_lake, version=m_to.version - 1)
    assert len(cdc._feed_pair_groups(m_to, m_from)) == 1
    for pre in (False, True):
        feed = _consume(changes_between(small_lake, m_from.version,
                                        preimages=pre))
        assert _feed_rows(feed, pre) == _expected_feed(
            small_lake, m_from.version, pre)
        assert set(feed.column("url").to_pylist()) == {url}


def test_feed_blocks_are_typed(small_lake):
    """Every feed block carries the feed's schema: a group whose files
    changed but whose visible rows did not (the purge scrub) and the
    purged urls' delete rows included; the replica stays equal."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.replicate import sync_replica

    replica = os.path.join(os.path.dirname(small_lake), "replica")
    sync_replica(small_lake, replica)
    v0 = load_manifest(small_lake).version
    urls = lake_snapshot(small_lake).column("url").to_pylist()[:2]
    update_where(small_lake, [["url", "==", urls[0]]], {"lang": "xx"})
    assert compact_deltas(small_lake)["partitions_rewritten"] == 1
    purge_urls(small_lake, [urls[1]])
    feed = changes_between(small_lake, v0)
    blocks = [ray.get(r) for r in feed.to_arrow_refs()]
    assert len({b.schema for b in blocks}) == 1
    assert sum(b.num_rows for b in blocks) == 2
    assert sync_replica(small_lake, replica)["synced"]
    assert lake_snapshot(replica).equals(
        lake_snapshot(small_lake).select(lake_snapshot(replica).column_names))


def test_lookup_on_objstore_matches_posix(tmp_path, monkeypatch):
    import uuid

    import boto3
    import pyarrow.parquet as pq

    bucket = f"b-{uuid.uuid4().hex[:12]}"
    boto3.client("s3").create_bucket(Bucket=bucket)
    wal = str(tmp_path / "wal")
    generate_wal(wal, seed=9, n_urls=100, n_events=900, n_segments=3,
                 delete_fraction=0.1)
    lakes = [f"s3://{bucket}/lake", str(tmp_path / "lake")]
    for lake_dir in lakes:
        for include in ("segment-00000*", None):
            run_ingest(CdcConfig(wal_dir=wal, lake_dir=lake_dir,
                                 num_partitions=4, merge_mode="mor",
                                 include_pattern=include))
    urls = lake_snapshot(lakes[1]).column("url").to_pylist()[::9]
    want = lookup_urls(lakes[1], urls)

    def no_dataset(*a, **k):
        raise AssertionError("a lookup built a parquet dataset")

    # one whole-object GET per routed file, no per-file parquet dataset
    from data_hub_ejp_xml_pipeline_ray.state.iofs import S3_STORE

    gets = []
    real_get = S3_STORE.get_bytes

    def counted(path):
        gets.append(path)
        return real_get(path)

    monkeypatch.setattr(pq, "read_table", no_dataset)
    monkeypatch.setattr(S3_STORE, "get_bytes", counted)
    got = lookup_urls(lakes[0], urls)
    assert want.num_rows == len(urls) and got.equals(want)
    m = load_manifest(lakes[0])
    files = {f"{lakes[0]}/{rel}" for p in m.all_parts()
             for rel in m.part_files(p)}
    data_gets = [g for g in gets if g.endswith(".parquet")]
    assert data_gets and set(data_gets) <= files
    assert len(data_gets) == len(set(data_gets))

    # files of several row groups take the fragment scan, on an object
    # fetched whole (the lookup) and through ranged reads (read_lake's
    # column-pruned reads)
    monkeypatch.undo()
    for path in files:
        buf = pa.BufferOutputStream()
        pq.write_table(pq.read_table(pa.BufferReader(real_get(path))), buf,
                       row_group_size=4)
        S3_STORE.put_atomic(path, buf.getvalue().to_pybytes())
    assert lookup_urls(lakes[0], urls).equals(want)
    routed = read_lake(lakes[0], columns=["url", "seq"],
                       constraints=[["url", "in", urls]])
    assert _rows(_consume(routed)) == _rows(want.select(["url", "seq"]))
