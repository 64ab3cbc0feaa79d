"""JSONL wire-format WAL: the tailer's second segment encoding
(Debezium/Maxwell-style newline-delimited change records). The engine
contract is format-transparency — a jsonl WAL must produce the SAME
lake as the equivalent parquet WAL (schema evolution included), and a
mixed parquet→jsonl migration window must converge too."""
import os
import shutil

import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.schemas import unify_many
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import (
    generate_wal,
    write_segment_jsonl,
)
from data_hub_ejp_xml_pipeline_ray.sources.wal import (
    JSONL_SEGMENT_GLOB,
    list_segments,
    segment_footers,
)

GEN = dict(seed=7, n_urls=80, n_events=600, n_segments=4, v2_from_segment=2)


def _no_src(t):
    return t.drop_columns(["_src_segment"])


@pytest.fixture(scope="module")
def twin_wals(tmp_path_factory):
    """The same logical WAL written twice: parquet and jsonl."""
    root = tmp_path_factory.mktemp("jsonl_wal")
    pw, jw = str(root / "pw"), str(root / "jw")
    generate_wal(pw, **GEN)
    generate_wal(jw, segment_format="jsonl", **GEN)
    return pw, jw


def test_jsonl_schema_is_canonical(twin_wals):
    """Head-sample inference + name canon == the parquet footer schema
    (same unified wire schema from either encoding)."""
    pw, jw = twin_wals
    ps = unify_many([sch for sch, _ in segment_footers(list_segments(pw))])
    js = unify_many([
        sch for sch, _ in segment_footers(list_segments(jw, JSONL_SEGMENT_GLOB))
    ])
    assert js.equals(ps)


def test_segment_row_counts_both_formats(twin_wals):
    pw, jw = twin_wals
    n_pq = sum(n for _, n in segment_footers(list_segments(pw)))
    n_js = sum(
        n for _, n in segment_footers(list_segments(jw, JSONL_SEGMENT_GLOB))
    )
    assert n_pq == n_js == (GEN["n_events"] // GEN["n_segments"]) * GEN["n_segments"]


def test_jsonl_lake_equals_parquet_lake(twin_wals, tmp_path):
    """Format transparency: identical final lake state (rows AND lake
    schema — the jsonl string/ISO wire types canonicalize at the read
    edge, so schema evolution lands the same v2 columns)."""
    pw, jw = twin_wals
    pl, jl = str(tmp_path / "pl"), str(tmp_path / "jl")
    run_ingest(CdcConfig(wal_dir=pw, lake_dir=pl, num_partitions=4))
    r = run_ingest(CdcConfig(wal_dir=jw, lake_dir=jl, num_partitions=4,
                             segment_glob=JSONL_SEGMENT_GLOB))
    assert r.commits == 1
    a, b = lake_snapshot(pl), lake_snapshot(jl)
    assert _no_src(a).equals(_no_src(b))
    # provenance still stamps the real (jsonl) segment name
    assert b.column("_src_segment")[0].as_py().endswith(".jsonl")
    # strictly-greater watermark: rerun is a no-op
    r2 = run_ingest(CdcConfig(wal_dir=jw, lake_dir=jl, num_partitions=4,
                              segment_glob=JSONL_SEGMENT_GLOB))
    assert r2.commits == 0


def test_mixed_format_migration_window(twin_wals, tmp_path):
    """A WAL whose first half is parquet and second half jsonl (the
    format-migration scenario) converges to the pure-parquet lake."""
    pw, _ = twin_wals
    mixed = str(tmp_path / "mw")
    os.makedirs(mixed)
    segs = list_segments(pw)
    half = len(segs) // 2
    for s in segs[:half]:
        shutil.copy(s.path, os.path.join(mixed, s.name))
    for s in segs[half:]:
        write_segment_jsonl(
            pq.read_table(s.path),
            os.path.join(mixed, s.name.replace(".parquet", ".jsonl")),
        )
    pl, ml = str(tmp_path / "pl"), str(tmp_path / "ml")
    run_ingest(CdcConfig(wal_dir=pw, lake_dir=pl, num_partitions=4))
    r = run_ingest(CdcConfig(wal_dir=mixed, lake_dir=ml, num_partitions=4,
                             segment_glob="segment-*"))
    assert r.commits == 1  # one batch holding both formats
    a, b = lake_snapshot(pl), lake_snapshot(ml)
    assert _no_src(a).equals(_no_src(b))
    assert {n.rsplit(".", 1)[1] for n in b.column("_src_segment").to_pylist()} == {
        "parquet", "jsonl"
    }


def test_mixed_batch_row_slices_equal_parquet_lake(twin_wals, tmp_path,
                                                   monkeypatch):
    """Batches of one parquet and one jsonl segment, each segment cut
    into row slices (fewer segments than CPUs, slice threshold lowered):
    the jsonl slices go through the same reader and the lake equals the
    all-parquet twin's, with every row naming its own segment."""
    from data_hub_ejp_xml_pipeline_ray.pipelines import cdc

    pw, _ = twin_wals
    mixed = str(tmp_path / "mw")
    os.makedirs(mixed)
    names = set()
    for i, s in enumerate(list_segments(pw)):
        if i % 2:
            name = s.name.replace(".parquet", ".jsonl")
            write_segment_jsonl(pq.read_table(s.path), os.path.join(mixed, name))
        else:
            name = s.name
            shutil.copy(s.path, os.path.join(mixed, name))
        names.add(name)
    pl, ml = str(tmp_path / "pl"), str(tmp_path / "ml")
    run_ingest(CdcConfig(wal_dir=pw, lake_dir=pl, num_partitions=4))
    monkeypatch.setattr(cdc, "MIN_SLICE_ROWS", 40)
    segs = list_segments(mixed, "segment-*")
    assert len(cdc._phase1_plan(segs[:2], [150, 150], 4)) == 4
    r = run_ingest(CdcConfig(wal_dir=mixed, lake_dir=ml, num_partitions=4,
                             segment_glob="segment-*",
                             max_segments_per_batch=2))
    assert r.commits == 2
    a, b = lake_snapshot(pl), lake_snapshot(ml)
    assert _no_src(a).equals(_no_src(b))
    assert set(b.column("_src_segment").to_pylist()) <= names
    assert b.column("_src_segment").null_count == 0
