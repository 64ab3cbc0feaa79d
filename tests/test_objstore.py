"""Object-store backend: an ``s3://`` lake against a local moto server
(started by ``conftest.ray_session``) must carry the SAME commit
protocol as POSIX (contract suite), serve parquet data through
pyarrow's S3 filesystem, and run a full CDC ingest end-to-end with
``lake_dir`` in the bucket — including crash/resume convergence under
faults injected into the driver's commit protocol. Reference analog:
the S3 storage layer at
``ejp_xml_pipeline/data_store/s3_data_service.py:8-60``."""
import json
import os
import uuid

import boto3
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    read_lake,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state import checkpoint
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
    ConcurrentWriterError,
    LakeManifest,
    commit_manifest,
    list_versions,
    load_manifest,
    writer_lock,
)
from data_hub_ejp_xml_pipeline_ray.state.store import (
    InjectedFault,
    S3Store,
    resolve_store,
)


@pytest.fixture
def bucket(ray_session):
    """A fresh bucket per test on the session's moto server."""
    name = f"b-{uuid.uuid4().hex[:12]}"
    boto3.client("s3").create_bucket(Bucket=name)
    return name


class CrashingStore:
    """Test-side wrapper around an :class:`S3Store`: the (n+1)-th
    mutating call raises :class:`InjectedFault` before it reaches the
    bucket, simulating the writer process dying between two storage
    calls of the commit protocol. Reads pass through."""

    MUTATORS = {"put_atomic", "put_if_absent", "replace_if_matches",
                "delete", "delete_if_matches"}

    def __init__(self, fail_after: int):
        self.inner = S3Store()
        self.left = fail_after

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in self.MUTATORS:
            return attr

        def mutate(*args):
            if self.left == 0:
                raise InjectedFault(f"injected crash before {name}")
            self.left -= 1
            return attr(*args)

        return mutate


def _manifest(version, wm, parts):
    return LakeManifest(
        num_partitions=4, version=version, watermark=wm, partitions=parts
    )


# ---------------------------------------------------------------------------
# Store contract / commit protocol on S3
# ---------------------------------------------------------------------------

def test_store_primitives(bucket):
    store = resolve_store(f"s3://{bucket}/x")
    assert isinstance(store, S3Store)
    p = f"s3://{bucket}/a/b.json"
    assert not store.exists(p)
    with pytest.raises(FileNotFoundError):
        store.get_bytes(p)
    assert store.put_if_absent(p, b"one")
    assert not store.put_if_absent(p, b"two")  # If-None-Match: *
    assert store.get_bytes(p) == b"one"
    assert store.size(p) == 3
    assert not store.replace_if_matches(p, b"stale", b"x")  # If-Match
    assert store.replace_if_matches(p, b"one", b"three")
    assert store.get_bytes(p) == b"three"
    assert store.list_prefix(f"s3://{bucket}/a") == [p]
    assert not store.delete_if_matches(p, b"wrong")
    assert store.delete_if_matches(p, b"three")
    assert not store.exists(p)
    assert store.delete(p) is False  # S3 DELETE is 204 either way
    store.put_atomic(p, b"four")
    assert store.delete(p) is True


def test_conditionals_single_winner_under_16way_race(bucket):
    """Conditional-write arbitration happens at the bucket: hammer each
    conditional from 16 parallel Ray tasks (each worker process builds
    its own boto3 client), exactly one winner each."""
    key = f"s3://{bucket}/race/key"

    def race(op, args):
        @ray.remote(num_cpus=0)
        def one(i):
            return getattr(resolve_store(key), op)(key, *args(i))

        return sum(ray.get([one.remote(i) for i in range(16)]))

    assert race("put_if_absent", lambda i: (f"w{i}".encode(),)) == 1
    store = resolve_store(key)
    base = store.get_bytes(key)
    assert race("replace_if_matches", lambda i: (base, f"s{i}".encode())) == 1
    cur = store.get_bytes(key)
    assert cur != base
    assert race("delete_if_matches", lambda i: (cur,)) == 1
    assert not store.exists(key)


def test_commit_chain_and_cas_on_objstore(bucket):
    lake = f"s3://{bucket}/lake"
    for v in range(1, 4):
        commit_manifest(
            lake, _manifest(v, f"seg-{v}", {0: f"data/p{v}.parquet"}),
            expected_version=v - 1,
        )
    assert list_versions(lake) == [1, 2, 3]
    assert load_manifest(lake).watermark == "seg-3"
    assert load_manifest(lake, version=2).watermark == "seg-2"
    with pytest.raises(ConcurrentWriterError):
        commit_manifest(
            lake, _manifest(3, "seg-3x", {0: "data/px.parquet"}),
            expected_version=2,
        )


def test_crash_between_snapshot_and_pointer_then_retry(bucket):
    lake = f"s3://{bucket}/lake"
    commit_manifest(
        lake, _manifest(1, "seg-1", {0: "data/p1.parquet"}),
        expected_version=0,
    )
    m2 = _manifest(2, "seg-2", {0: "data/p2.parquet"})
    # the snapshot put lands, the writer dies before the pointer swap
    with pytest.raises(InjectedFault, match="replace_if_matches"):
        commit_manifest(lake, m2, expected_version=1,
                        store=CrashingStore(fail_after=1))
    assert list_versions(lake) == [1, 2]  # orphan snapshot v2
    assert load_manifest(lake).version == 1  # pointer untouched
    commit_manifest(lake, m2, expected_version=1)
    assert load_manifest(lake).version == 2
    assert list_versions(lake) == [1, 2]


def test_writer_lock_on_objstore(bucket):
    lake = f"s3://{bucket}/lake"
    with writer_lock(lake):
        with pytest.raises(ConcurrentWriterError):
            with writer_lock(lake):
                pass
    # released: acquirable again
    with writer_lock(lake):
        pass


# ---------------------------------------------------------------------------
# Data plane: parquet through pyarrow's native S3 filesystem
# ---------------------------------------------------------------------------

def test_parquet_via_pyarrow_fs(bucket):
    from data_hub_ejp_xml_pipeline_ray.state.iofs import (
        file_size,
        list_data_files,
        write_table_atomic,
    )

    t = pa.table({"a": list(range(1000)), "b": ["x"] * 1000})
    path = f"s3://{bucket}/data/t.parquet"
    nbytes = write_table_atomic(t, path)
    assert nbytes > 0 and file_size(path) == nbytes
    assert list_data_files(f"s3://{bucket}/data") == [path]
    assert pq.read_table(path).equals(t)
    assert pq.read_table(path, columns=["a"]).column_names == ["a"]
    assert pq.ParquetFile(path).metadata.num_rows == 1000
    # Ray Data read tasks resolve s3:// from the inherited AWS_* env
    assert ray.data.read_parquet([path]).count() == 1000


# ---------------------------------------------------------------------------
# End-to-end: CDC ingest with the lake on the object store
# ---------------------------------------------------------------------------

def _wal(tmp_path, **kw):
    wal = os.path.join(str(tmp_path), "wal")
    generate_wal(wal, seed=77, n_urls=120, n_events=1500, n_segments=4,
                 delete_fraction=0.1, **kw)
    return wal


def test_ingest_e2e_on_objstore_matches_posix(bucket, tmp_path):
    wal = _wal(tmp_path)
    obj_lake = f"s3://{bucket}/lake"
    posix_lake = os.path.join(str(tmp_path), "plake")
    cfg_o = CdcConfig(wal_dir=wal, lake_dir=obj_lake, num_partitions=8)
    rep = run_ingest(cfg_o)
    assert rep.commits == 1 and rep.events_applied == 1500
    rep2 = run_ingest(cfg_o)  # strictly-greater watermark: no-op
    assert rep2.commits == 0
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=posix_lake, num_partitions=8))
    a = lake_snapshot(obj_lake)
    b = lake_snapshot(posix_lake)
    assert a.equals(b)
    # streaming read through pyarrow's S3 filesystem
    assert read_lake(obj_lake).count() == a.num_rows
    # incremental follow-up commit + retention GC on the store
    generate_wal(wal, seed=78, n_urls=120, n_events=500, n_segments=1,
                 start_segment=4)
    rep3 = run_ingest(cfg_o)
    assert rep3.commits == 1
    m = load_manifest(obj_lake)
    assert m.version == 2
    # every referenced data file exists in the bucket
    from data_hub_ejp_xml_pipeline_ray.state.iofs import file_exists

    for rel in m.all_data_relpaths():
        assert file_exists(f"{obj_lake}/{rel}")


def test_ingest_crash_resume_on_objstore(bucket, tmp_path, monkeypatch):
    wal = _wal(tmp_path)
    obj_lake = f"s3://{bucket}/lake"
    cfg = CdcConfig(wal_dir=wal, lake_dir=obj_lake, num_partitions=8,
                    max_segments_per_batch=1)
    # the driver dies inside commit 2's protocol: a commit's metadata
    # mutations are lock create, snapshot create, pointer swap (+ GC
    # deletes from commit 3 on), lock release; the 7th is commit 2's
    # pointer swap. Data files written by Ray tasks are not counted.
    crashing = CrashingStore(fail_after=6)
    monkeypatch.setattr(checkpoint, "resolve_store", lambda _p: crashing)
    with pytest.raises(InjectedFault):  # the lock release fails too
        run_ingest(cfg)
    monkeypatch.undo()
    assert load_manifest(obj_lake).version == 1
    assert list_versions(obj_lake) == [1, 2]  # orphan snapshot v2
    # the dead writer could not release its lock: expire its lease, as
    # time would, so the resume breaks it
    lock = f"{obj_lake}/{checkpoint.LOCK_NAME}"
    store = resolve_store(lock)
    doc = json.loads(store.get_bytes(lock))
    store.put_atomic(lock, json.dumps({**doc, "expires_at": 0}).encode())
    rep = run_ingest(cfg)  # resume from the committed watermark
    assert rep.watermark == sorted(os.listdir(wal))[-1]
    posix_lake = os.path.join(str(tmp_path), "plake")
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=posix_lake, num_partitions=8,
                         max_segments_per_batch=1))
    assert lake_snapshot(obj_lake).equals(lake_snapshot(posix_lake))


def test_maintenance_lifecycle_on_objstore(bucket, tmp_path):
    """The operational loop runs unchanged on the object store: MOR
    micro-batches accumulate delta files, compaction folds them, purge
    rewrites history, fsck audits state/file agreement, and a clone
    pulls the lake back to POSIX byte-identically."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        auto_maintain,
        clone_lake,
        compact_deltas,
        fsck_lake,
        purge_urls,
    )

    wal = _wal(tmp_path)
    obj_lake = f"s3://{bucket}/lake"
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=obj_lake, num_partitions=8,
                         merge_mode="mor", max_segments_per_batch=1))
    m = load_manifest(obj_lake)
    assert sum(len(v) for v in m.delta_files.values()) > 0
    before = lake_snapshot(obj_lake)
    r = compact_deltas(obj_lake)
    assert r["delta_files_folded"] > 0
    m2 = load_manifest(obj_lake)
    assert sum(len(v) for v in m2.delta_files.values()) == 0
    assert lake_snapshot(obj_lake).equals(before)
    report = fsck_lake(obj_lake, deep=True)
    assert report["ok"], report["errors"]
    # purge a live url: gone from head AND retained history
    victim = before.column("url")[0].as_py()
    out = purge_urls(obj_lake, [victim])
    assert out["purged"]
    for v in [None] + list(
        __import__(
            "data_hub_ejp_xml_pipeline_ray.state.checkpoint",
            fromlist=["list_versions"],
        ).list_versions(obj_lake)
    ):
        snap = lake_snapshot(obj_lake, version=v)
        assert victim not in set(snap.column("url").to_pylist())
    auto_maintain(obj_lake)
    report = fsck_lake(obj_lake, deep=True)
    assert report["ok"], report["errors"]
    # clone store -> POSIX: logical state identical
    dst = os.path.join(str(tmp_path), "clone")
    clone_lake(obj_lake, dst)
    assert lake_snapshot(dst).equals(lake_snapshot(obj_lake))


def test_wal_tail_from_objstore(bucket, tmp_path):
    """The reference tails S3 directly (S3HookNewFileMonitor): with the
    WAL segments in the bucket too, the tailer lists the prefix (sizes
    come with the keys, like an S3 LIST), watermark-filters, reads the
    segments through pyarrow's S3 filesystem, and commits — both ends of
    the pipeline on the object store, final state equal to the
    all-POSIX run."""
    from data_hub_ejp_xml_pipeline_ray.sources.wal import (
        list_segments,
        wal_gc,
    )
    from data_hub_ejp_xml_pipeline_ray.state.iofs import copy_file

    local_wal = _wal(tmp_path)
    obj_wal = f"s3://{bucket}/wal"
    for seg in sorted(os.listdir(local_wal)):
        copy_file(os.path.join(local_wal, seg), f"{obj_wal}/{seg}")
    segs = list_segments(obj_wal)
    assert [s.name for s in segs] == sorted(os.listdir(local_wal))
    assert all(s.size_bytes > 0 for s in segs)
    obj_lake = f"s3://{bucket}/lake"
    rep = run_ingest(CdcConfig(wal_dir=obj_wal, lake_dir=obj_lake,
                               num_partitions=8))
    assert rep.commits == 1 and rep.events_applied == 1500
    posix_lake = os.path.join(str(tmp_path), "plake")
    run_ingest(CdcConfig(wal_dir=local_wal, lake_dir=posix_lake,
                         num_partitions=8))
    assert lake_snapshot(obj_lake).equals(lake_snapshot(posix_lake))
    # WAL retention works against the bucket too (keep_last=0: every
    # segment at-or-below the committed watermark is reclaimable)
    out = wal_gc(obj_wal, [obj_lake], keep_last=0)
    assert out["reclaimed"] == 4
    assert list_segments(obj_wal) == []


def test_predicate_dml_on_objstore(bucket, tmp_path):
    """DELETE ... WHERE appends its O(matched) delta file to the bucket
    and the merge-on-read scan hides the rows — same law as POSIX."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.dml import delete_where

    wal = _wal(tmp_path)
    obj_lake = f"s3://{bucket}/lake"
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=obj_lake, num_partitions=8))
    before = lake_snapshot(obj_lake)
    langs = set(before.column("lang").to_pylist())
    target = sorted(langs)[0]
    out = delete_where(obj_lake, [["lang", "==", target]])
    assert out["rows_matched"] > 0
    after = lake_snapshot(obj_lake)
    assert target not in set(after.column("lang").to_pylist())
    assert after.num_rows == before.num_rows - out["rows_matched"]


def test_consumers_on_objstore(bucket, tmp_path):
    """Downstream consumer stores live in the bucket too: incremental
    view, replica table, and both maintained dedup indexes keep their
    state + parquet in s3:// dirs, refreshed from an objstore
    lake's change feed — every result equal to the POSIX twin."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.dedup_index import (
        fsck_index,
        index_pairs,
        refresh_dedup_index,
        refresh_simhash_index,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        read_view,
        refresh_live_counts,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.replicate import (
        sync_replica,
    )

    wal = _wal(tmp_path)
    obj_lake = f"s3://{bucket}/lake"
    posix_lake = os.path.join(str(tmp_path), "plake")
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=obj_lake, num_partitions=8))
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=posix_lake, num_partitions=8))

    ov, pv = f"s3://{bucket}/view", os.path.join(str(tmp_path), "pview")
    refresh_live_counts(obj_lake, ov)
    refresh_live_counts(posix_lake, pv)
    assert read_view(ov).equals(read_view(pv))

    orp = f"s3://{bucket}/replica"
    prp = os.path.join(str(tmp_path), "preplica")
    sync_replica(obj_lake, orp)
    sync_replica(posix_lake, prp)
    assert lake_snapshot(orp).equals(lake_snapshot(prp))

    oi, pi = f"s3://{bucket}/idx", os.path.join(str(tmp_path), "pidx")
    refresh_dedup_index(obj_lake, oi)
    refresh_dedup_index(posix_lake, pi)
    at = index_pairs(oi).take_all()
    bt = index_pairs(pi).take_all()
    assert sorted((r["key"], r["url"]) for r in at) == sorted(
        (r["key"], r["url"]) for r in bt
    )
    osim = f"s3://{bucket}/sim"
    refresh_simhash_index(obj_lake, osim)
    assert fsck_index(oi)["ok"]
    assert fsck_index(osim)["ok"]
