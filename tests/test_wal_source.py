"""WAL tailer semantics: glob + exclusion + strictly-greater watermark
(parity with ``airflow_s3_util_extension.py:101-138`` incl. the
``:130-133`` strict comparison), and schema-unified multi-version read."""
import os

import pyarrow as pa
import pyarrow.parquet as pq

from data_hub_ejp_xml_pipeline_ray.schemas import conform_table, unify_many
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.sources.wal import (
    list_segments,
    read_segment,
    segment_footers,
    segments_after,
)


def _touch_parquet(path):
    pq.write_table(pa.table({"x": [1]}), path)


def test_list_sorted_glob_and_exclusion(tmp_path):
    d = str(tmp_path)
    for name in ["segment-00002.parquet", "segment-00000.parquet", "other.parquet",
                 "segment-00001.parquet", "segment-bad.tmp"]:
        _touch_parquet(os.path.join(d, name))
    segs = list_segments(d)
    assert [s.name for s in segs] == [
        "segment-00000.parquet", "segment-00001.parquet", "segment-00002.parquet"
    ]
    segs = list_segments(d, exclusion_pattern=r"segment-00001")
    assert [s.name for s in segs] == ["segment-00000.parquet", "segment-00002.parquet"]


def test_include_pattern_is_positive_keyspace_glob(tmp_path):
    # the reference sensor's positive key glob
    # (airflow_s3_util_extension.py:101-138): ANDed with the structural
    # wire-format glob, so a slice pattern need not restate the format
    d = str(tmp_path)
    for name in ["segment-2024-a.parquet", "segment-2024-b.parquet",
                 "segment-2025-a.parquet"]:
        _touch_parquet(os.path.join(d, name))
    segs = list_segments(d, include_pattern="segment-2024*")
    assert [s.name for s in segs] == [
        "segment-2024-a.parquet", "segment-2024-b.parquet"
    ]
    # composes with the exclusion regex (include first, then exclude)
    segs = list_segments(
        d, include_pattern="segment-2024*", exclusion_pattern=r".*-b\.parquet"
    )
    assert [s.name for s in segs] == ["segment-2024-a.parquet"]


def test_ingest_honors_include_pattern(tmp_path, ray_session):
    # the tailer only sees the included slice: ingest commits the 2024
    # segments and the watermark points at the last INCLUDED segment
    import shutil

    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        CdcConfig, load_manifest, run_ingest,
    )

    wal = os.path.join(str(tmp_path), "wal")
    generate_wal(wal, n_events=300, n_segments=3, seed=7)
    names = sorted(os.listdir(wal))
    assert len(names) == 3
    # rename to two keyspace slices: first two -> 2024, last -> 2025
    for old, new in [
        (names[0], "segment-2024-00000.parquet"),
        (names[1], "segment-2024-00001.parquet"),
        (names[2], "segment-2025-00000.parquet"),
    ]:
        shutil.move(os.path.join(wal, old), os.path.join(wal, new))
    lake = os.path.join(str(tmp_path), "lake")
    report = run_ingest(CdcConfig(
        wal_dir=wal, lake_dir=lake, num_partitions=4,
        include_pattern="segment-2024*",
    ))
    assert report.segments_processed == [
        "segment-2024-00000.parquet", "segment-2024-00001.parquet"
    ]
    assert load_manifest(lake).watermark == "segment-2024-00001.parquet"


def test_watermark_strictly_greater(tmp_path):
    d = str(tmp_path)
    for i in range(3):
        _touch_parquet(os.path.join(d, f"segment-{i:05d}.parquet"))
    segs = list_segments(d)
    assert [s.name for s in segments_after(segs, None)] == [s.name for s in segs]
    after = segments_after(segs, "segment-00001.parquet")
    assert [s.name for s in after] == ["segment-00002.parquet"]  # == watermark skipped


def test_missing_dir_is_empty():
    assert list_segments("/tmp/does/not/exist") == []


def test_unified_read_across_schema_versions(tmp_path):
    d = os.path.join(str(tmp_path), "wal")
    generate_wal(d, seed=3, n_urls=10, n_events=100, n_segments=4, v2_from_segment=2)
    segs = list_segments(d)
    wire = unify_many([sch for sch, _ in segment_footers(segs)])
    assert wire.field("fetch_status").type == pa.int64()  # widened
    assert "content_type" in wire.names
    table = pa.concat_tables(
        [conform_table(read_segment(s), wire) for s in segs]
    )
    assert table.num_rows == 100
    # v1 rows present with null content_type under the unified schema
    assert table.column("content_type").null_count > 0


def test_read_segment_row_slices_tile_the_segment(tmp_path):
    # slices that straddle row-group boundaries tile the segment exactly
    path = os.path.join(str(tmp_path), "segment-00000.parquet")
    pq.write_table(pa.table({"x": list(range(100))}), path, row_group_size=30)
    seg = list_segments(str(tmp_path))[0]
    whole = read_segment(seg)
    assert whole.column("x").to_pylist() == list(range(100))
    assert whole.column("_src_segment").unique().to_pylist() == [seg.name]
    cuts = [0, 7, 30, 31, 65, 100]
    pieces = [read_segment(seg, (a, b)) for a, b in zip(cuts, cuts[1:])]
    assert [p.num_rows for p in pieces] == [7, 23, 1, 34, 35]
    assert pa.concat_tables(pieces).equals(whole)
