"""Ingest-time CHECK constraints (Delta-style expectations): violating
upsert rows land in the dead-letter quarantine with ``constraint:``
reasons and redrive-able raw siblings; SQL CHECK null semantics; delete
tombstones exempt; redrive after relaxing the constraint applies the
rows."""
import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    redrive_errors,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.schemas import EVENTS_SCHEMA_V1
from data_hub_ejp_xml_pipeline_ray.stages.merge import check_constraints


def _wal(tmp_path, rows):
    wal = str(tmp_path / "wal")
    os.makedirs(wal, exist_ok=True)
    tbl = pa.Table.from_pydict(rows, schema=EVENTS_SCHEMA_V1)
    pq.write_table(tbl, os.path.join(wal, "segment-00000.parquet"))
    return wal


def _rows(n=6):
    import datetime as dt

    base = dt.datetime(2025, 1, 1, tzinfo=dt.timezone.utc)
    return {
        "op": ["insert"] * n,
        "url": [f"https://h{i}.example/p" for i in range(n)],
        "warc_ts": [base] * n,
        "seq": list(range(n)),
        "html": [f"<p>doc {i}</p>".encode() for i in range(n)],
        "lang": ["en"] * n,
        "schema_version": [1] * n,
        "fetch_status": [200, 200, 404, 999, 888, 200],
    }


def test_violations_quarantined_and_lake_clean(tmp_path):
    wal = _wal(tmp_path, _rows())
    lake = str(tmp_path / "lake")
    cfg = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4,
                    constraints=[["fetch_status", "<", 600]])
    r = run_ingest(cfg)
    assert r.commits == 1
    snap = lake_snapshot(lake)
    assert snap.num_rows == 4  # 999 and 888 gated out
    errs = pa.concat_tables([
        pq.read_table(f) for f in glob.glob(os.path.join(lake, "_errors", "errors-*.parquet"))
        if not f.endswith(".raw.parquet")
    ])
    assert errs.num_rows == 2
    assert set(errs.column("error").to_pylist()) == {"constraint:fetch_status < 600"}


def test_redrive_after_relaxing_constraint(tmp_path):
    wal = _wal(tmp_path, _rows())
    lake = str(tmp_path / "lake")
    strict = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4,
                       constraints=[["fetch_status", "<", 600]])
    run_ingest(strict)
    assert lake_snapshot(lake).num_rows == 4
    relaxed = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4)
    rep = redrive_errors(relaxed)
    assert rep["redriven_rows"] == 2 and rep["still_bad"] == 0
    assert lake_snapshot(lake).num_rows == 6


def test_delete_tombstones_exempt(tmp_path):
    rows = _rows(3)
    rows["op"] = ["insert", "delete", "insert"]
    rows["html"] = [rows["html"][0], None, rows["html"][2]]
    rows["lang"] = ["en", None, "en"]
    rows["fetch_status"] = [200, None, 200]
    wal = _wal(tmp_path, rows)
    lake = str(tmp_path / "lake")
    cfg = CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4,
                    constraints=[["lang", "not_null"],
                                 ["fetch_status", "<", 600]])
    run_ingest(cfg)
    # the delete's null lang/fetch_status must NOT be quarantined
    assert not glob.glob(os.path.join(lake, "_errors", "errors-*.parquet"))
    assert lake_snapshot(lake).num_rows == 2


def test_null_passes_comparisons_only_not_null_rejects():
    batch = pa.table({
        "op": pa.array(["insert", "insert", "insert"]),
        "url": pa.array(["a", "b", "c"]),
        "warc_ts": pa.array([0, 0, 0], pa.timestamp("us", tz="UTC")),
        "seq": pa.array([0, 1, 2], pa.int64()),
        "fetch_status": pa.array([None, 700, 200], pa.int64()),
    })
    good, err, raw = check_constraints(batch, [["fetch_status", "<", 600]])
    assert good.num_rows == 2 and err.num_rows == 1  # NULL passes
    assert err.column("error")[0].as_py() == "constraint:fetch_status < 600"
    good, err, raw = check_constraints(batch, [["fetch_status", "not_null"]])
    assert good.num_rows == 2 and err.num_rows == 1  # NULL rejected
    # raw sibling keeps the original wire schema for redrive
    assert raw.schema.names == batch.schema.names


def test_in_matches_and_absent_column_vacuous():
    batch = pa.table({
        "op": pa.array(["insert", "insert"]),
        "url": pa.array(["https://a.example/x", "ftp://bad"]),
        "warc_ts": pa.array([0, 0], pa.timestamp("us", tz="UTC")),
        "seq": pa.array([0, 1], pa.int64()),
        "lang": pa.array(["en", "xx"]),
    })
    good, err, _ = check_constraints(
        batch, [["lang", "in", ["en", "de", "fr", "es", "zh"]],
                ["url", "matches", "^https://"],
                ["content_type", "not_null"]],  # absent: vacuously true
    )
    assert good.num_rows == 1
    assert err.num_rows == 1
    # first failing constraint names the reason
    assert err.column("error")[0].as_py().startswith("constraint:lang in")


def test_constraints_require_quarantine(tmp_path):
    wal = _wal(tmp_path, _rows())
    cfg = CdcConfig(wal_dir=wal, lake_dir=str(tmp_path / "lake"),
                    quarantine=False,
                    constraints=[["fetch_status", "<", 600]])
    with pytest.raises(ValueError, match="quarantine"):
        run_ingest(cfg)


def test_unknown_op_rejected():
    batch = pa.table({
        "url": pa.array(["a"]),
        "warc_ts": pa.array([0], pa.timestamp("us", tz="UTC")),
        "seq": pa.array([0], pa.int64()),
    })
    with pytest.raises(ValueError, match="unknown constraint op"):
        check_constraints(batch, [["url", "like", "%x%"]])


@pytest.mark.parametrize("lane", ["page", "entity", "nested"])
def test_check_on_later_column_is_batching_independent(tmp_path, lane):
    """A CHECK on a column that a later wire-schema version adds binds
    only rows whose SOURCE SEGMENT carries the column: v1 rows are
    vacuously true however segments are batched into commits, while a
    v2 row with a null in that column is quarantined either way."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        read_errors,
        run_entity_ingest,
        run_nested_ingest,
    )
    from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal

    ingest = {"page": run_ingest, "entity": run_entity_ingest,
              "nested": run_nested_ingest}[lane]
    wal = str(tmp_path / "wal")
    generate_wal(wal, seed=41, n_urls=60, n_events=240, n_segments=4,
                 v2_from_segment=2, delete_fraction=0.0)
    last = os.path.join(wal, "segment-00003.parquet")
    t = pq.read_table(last)
    i = t.column_names.index("content_type")
    nulled = pa.array([None] * 3 + t.column(i).to_pylist()[3:], pa.string())
    pq.write_table(t.set_column(i, "content_type", nulled), last)

    def run(batch):
        lake = str(tmp_path / f"lake{batch}")
        ingest(CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4,
                         max_segments_per_batch=batch,
                         constraints=[["content_type", "not_null"]]))
        errs = read_errors(lake)
        return (lake_snapshot(lake).sort_by("url"),
                errs.sort_by([("url", "ascending"), ("seq", "ascending")]))

    lake_one, errs_one = run(64)  # one commit, mixed v1/v2 blocks
    lake_two, errs_two = run(2)   # v1-only commit, then v2-only commit
    assert errs_one.num_rows == 3
    assert errs_one.equals(errs_two)
    assert lake_one.equals(lake_two)
