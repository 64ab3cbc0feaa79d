"""Phase-1 task plan: one task per segment, row slices only while a
batch has fewer segments than CPUs. How a batch is cut into tasks must
not be observable in the lake, in ``_errors`` or in provenance. Ingest
and every partition rewrite run on plain tasks, never a Dataset."""
import os

import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines import cdc
from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    read_errors,
    run_entity_ingest,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.sources.wal import SegmentMeta, list_segments
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest


def _segs(n):
    return [SegmentMeta(f"segment-{i:05d}.parquet", f"/w/{i}", 1) for i in range(n)]


def test_task_retries():
    # a phase-1 task lost with its worker retries without limit, as Ray
    # Data's did; a partition rewrite (the ingest merge among them)
    # retries 3 times, then fails the operation
    from data_hub_ejp_xml_pipeline_ray.stages import merge

    assert cdc._spill_segment._default_options["max_retries"] == -1
    assert merge.partition_task._default_options["max_retries"] == 3


def test_plan_shapes():
    # a trickle segment is one task, whatever the CPU count
    assert cdc._phase1_plan(_segs(1), [1_500], 4) == [(_segs(1)[0], None)]
    # as many segments as CPUs or more: one whole-segment task each
    plan = cdc._phase1_plan(_segs(64), [18_750] * 64, 32)
    assert [rows for _, rows in plan] == [None] * 64
    # one large segment: at most one slice per CPU, each >= 15k rows
    plan = cdc._phase1_plan(_segs(1), [60_000], 4)
    assert [rows for _, rows in plan] == [
        (0, 15_000), (15_000, 30_000), (30_000, 45_000), (45_000, 60_000)
    ]
    plan = cdc._phase1_plan(_segs(1), [40_000], 8)
    assert [rows for _, rows in plan] == [(0, 20_000), (20_000, 40_000)]
    # CPUs shared among the batch's segments; slices tile each segment
    plan = cdc._phase1_plan(_segs(2), [100_000, 20_000], 8)
    assert [(s.name[-13:-8], rows) for s, rows in plan] == [
        ("00000", (0, 25_000)), ("00000", (25_000, 50_000)),
        ("00000", (50_000, 75_000)), ("00000", (75_000, 100_000)),
        ("00001", None),
    ]


@pytest.fixture(scope="module")
def wal(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("plan_wal"))
    generate_wal(root, seed=11, n_urls=60, n_events=900, n_segments=6,
                 v2_from_segment=3)
    return root


def _errors_sorted(lake):
    return read_errors(lake).sort_by(
        [("url", "ascending"), ("seq", "ascending"), ("error", "ascending")]
    )


def _partition_rows(lake):
    m = load_manifest(lake)
    return {p: (meta.get("rows"), meta.get("delta_rows"))
            for p, meta in m.partition_meta.items()}


@pytest.mark.parametrize("lane", ["cow", "mor", "entity"])
def test_row_slices_equal_whole_segment_tasks(wal, tmp_path, monkeypatch, lane):
    """Batches of 2 segments on 4 CPUs: with the slice threshold lowered
    each segment is cut into 2 row slices; the lake, ``_errors`` and the
    per-partition row counts equal those of whole-segment tasks."""
    segs = list_segments(wal)
    ingest = run_entity_ingest if lane == "entity" else run_ingest
    kw = dict(
        wal_dir=wal, num_partitions=8, max_segments_per_batch=2,
        merge_mode="mor" if lane == "mor" else "cow",
        constraints=[["fetch_status", "<", 400]],
    )
    whole, sliced = str(tmp_path / "whole"), str(tmp_path / "sliced")
    assert len(cdc._phase1_plan(segs[:2], [150, 150], 4)) == 2
    r_whole = ingest(CdcConfig(lake_dir=whole, **kw))
    monkeypatch.setattr(cdc, "MIN_SLICE_ROWS", 50)
    assert len(cdc._phase1_plan(segs[:2], [150, 150], 4)) == 4
    r_sliced = ingest(CdcConfig(lake_dir=sliced, **kw))

    assert r_whole.commits == r_sliced.commits == 3
    assert r_whole.error_rows == r_sliced.error_rows > 0
    assert lake_snapshot(whole).equals(lake_snapshot(sliced))
    assert _errors_sorted(whole).equals(_errors_sorted(sliced))
    assert _partition_rows(whole) == _partition_rows(sliced)

    # provenance: every lake row and every dead letter names the
    # basename of the segment it came from
    names = {s.name for s in segs}
    for t in (lake_snapshot(sliced), read_errors(sliced)):
        src = t.column("_src_segment")
        assert src.null_count == 0
        assert set(src.to_pylist()) <= names
    errs = read_errors(sliced)
    assert len(set(errs.column("_src_segment").to_pylist())) > 1


def test_src_segment_matches_the_event(wal, tmp_path, monkeypatch):
    """Each lake row's ``_src_segment`` is the segment that holds its
    winning event (url, seq), sliced or not."""
    import pyarrow.parquet as pq

    monkeypatch.setattr(cdc, "MIN_SLICE_ROWS", 50)
    lake = str(tmp_path / "lake")
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=8,
                         max_segments_per_batch=2))
    where = {}
    for s in list_segments(wal):
        t = pq.read_table(s.path, columns=["url", "seq"])
        for url, seq in zip(t.column("url").to_pylist(),
                            t.column("seq").to_pylist()):
            where[(url, seq)] = os.path.basename(s.path)
    snap = lake_snapshot(lake)
    assert snap.num_rows > 0
    for url, seq, src in zip(snap.column("url").to_pylist(),
                             snap.column("seq").to_pylist(),
                             snap.column("_src_segment").to_pylist()):
        assert src == where[(url, seq)]


def test_ingest_builds_no_dataset(wal, tmp_path, monkeypatch):
    """Phase 1 and phase 2 run as plain tasks: an ingest starts no Ray
    Data execution at all."""
    import ray.data

    def no_dataset(*a, **k):
        raise AssertionError("ingest built a ray.data Dataset")

    for name in ("read_parquet", "read_json", "from_items", "from_arrow"):
        monkeypatch.setattr(ray.data, name, no_dataset)
    r = run_ingest(CdcConfig(wal_dir=wal, lake_dir=str(tmp_path / "lake"),
                             num_partitions=8))
    assert r.commits == 1 and r.events_applied == 900


def test_partition_rewrites_build_no_dataset(wal, tmp_path, monkeypatch):
    """Every operation that rewrites lake partitions runs on the shared
    plain partition tasks: fold, compaction, cluster, split, DML and a
    three-way branch merge start no Ray Data execution."""
    import ray.data

    from data_hub_ejp_xml_pipeline_ray.pipelines.branching import (
        create_branch, merge_branch,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.dml import (
        delete_where, update_where,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        cluster_lake, compact_deltas, compact_lake, split_partition,
    )
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import branch_dir

    def no_dataset(*a, **k):
        raise AssertionError("a partition rewrite built a ray.data Dataset")

    for name in ("read_parquet", "from_items", "from_arrow"):
        monkeypatch.setattr(ray.data, name, no_dataset)
    lake = str(tmp_path / "lake")

    def ingest(lake_dir, include, mode="cow"):
        return run_ingest(CdcConfig(
            wal_dir=wal, lake_dir=lake_dir, num_partitions=4,
            include_pattern=include, merge_mode=mode,
            max_segments_per_batch=1,
        ))

    ingest(lake, "segment-0000[0-1]*")
    ingest(lake, "segment-0000[0-3]*", "mor")
    assert compact_deltas(lake)["partitions_rewritten"] > 0
    assert update_where(lake, [["lang", "==", "en"]],
                        {"content_type": "text/x"})["committed"]
    assert delete_where(lake, [["lang", "==", "de"]])["committed"]
    assert split_partition(lake, 0)["children"]
    assert cluster_lake(lake)["partitions_rewritten"] > 0
    assert compact_lake(lake)["partitions_rewritten"] > 0
    create_branch(lake, "b")
    ingest(branch_dir(lake, "b"), None)
    ingest(lake, "segment-0000[0-4]*", "mor")
    assert merge_branch(lake, "b")["merged_partitions"] > 0
