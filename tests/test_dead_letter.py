"""Dead-letter quarantine (M4 parity): rows with invalid-UTF-8 html or
null contract keys land in <lake>/_errors with provenance; good rows in
the same segment merge normally (reference behavior:
ParseDocumentError wrapping, ejp_xml_pipeline/transform_zip_xml/
ejp_xml.py:20-42)."""
import os
from datetime import datetime, timezone

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    read_errors,
    run_entity_ingest,
    run_ingest,
    run_nested_ingest,
)
from data_hub_ejp_xml_pipeline_ray.schemas import EVENTS_SCHEMA_V1
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest


def _corrupt_segment(path: str):
    ts = datetime(2025, 6, 1, tzinfo=timezone.utc)
    rows = {
        "op": ["update", "update", "update", "update"],
        "url": ["https://good.example/", None,
                "https://bad-utf8.example/", "https://good2.example/"],
        "warc_ts": [ts, ts, ts, ts],
        "seq": [1, 2, 3, 4],
        "html": [b"good page one", b"orphan row",
                 b"\xff\xfe broken \x80 bytes", b"good page two"],
        "lang": ["en"] * 4,
        "schema_version": [1] * 4,
        "fetch_status": [200] * 4,
    }
    pq.write_table(pa.Table.from_pydict(rows, schema=EVENTS_SCHEMA_V1), path)


def test_corrupt_rows_quarantined_good_rows_merge(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=31, n_urls=20, n_events=100, n_segments=2)
    _corrupt_segment(os.path.join(wal, "segment-00002.parquet"))
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)

    errs = read_errors(cfg.lake_dir)
    assert errs.num_rows == 2
    by_err = dict(zip(errs.column("url").to_pylist(),
                      errs.column("error").to_pylist()))
    assert by_err[None] == "null_key_field"
    assert by_err["https://bad-utf8.example/"] == "invalid_utf8_html"
    # provenance names the corrupt segment
    assert set(errs.column("_src_segment").to_pylist()) == {
        "segment-00002.parquet"
    }
    # original payload preserved for replay/debugging
    assert b"\xff\xfe broken \x80 bytes" in errs.column("html").to_pylist()

    # good rows of the SAME corrupt segment merged normally
    snap = lake_snapshot(cfg.lake_dir)
    urls = set(snap.column("url").to_pylist())
    assert {"https://good.example/", "https://good2.example/"} <= urls
    texts = dict(zip(snap.column("url").to_pylist(),
                     snap.column("text").to_pylist()))
    assert texts["https://good.example/"] == "good page one"
    # quarantined url never entered the lake
    assert "https://bad-utf8.example/" not in urls

    # counters + lineage record the quarantine
    m = load_manifest(cfg.lake_dir)
    assert m.counters.get("error_rows") == 2
    assert m.lineage[-1]["error_rows"] == 2


def test_clean_ingest_has_no_error_rows(tmp_path):
    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=33, n_urls=10, n_events=60,
                 n_segments=2)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)
    assert read_errors(cfg.lake_dir).num_rows == 0
    assert "error_rows" not in load_manifest(cfg.lake_dir).counters


def test_entity_lake_quarantines_corrupt_rows(tmp_path):
    """The demuxed entity ingest shares the dead-letter path: corrupt
    rows land in _errors, good rows fan out to entity rows."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import run_entity_ingest

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=37, n_urls=10, n_events=60, n_segments=1,
                 rich_pages=True)
    _corrupt_segment(os.path.join(wal, "segment-00001.parquet"))
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_entity_ingest(cfg)
    errs = read_errors(cfg.lake_dir)
    assert errs.num_rows == 2
    snap = lake_snapshot(cfg.lake_dir)
    urls = set(snap.column("url").to_pylist())
    assert "https://bad-utf8.example/" not in urls
    assert {"https://good.example/", "https://good2.example/"} <= urls
    # good corrupt-segment rows produced page entity rows
    pages = snap.filter(
        pa.compute.equal(snap.column("entity_type"), "page")
    )
    assert {"https://good.example/", "https://good2.example/"} <= set(
        pages.column("url").to_pylist()
    )


def test_redrive_errors_after_fix_converges_to_clean_lake(tmp_path):
    """DLQ redrive: quarantine mojibake rows, then replay them through
    the normal ingest path with a fixer (latin-1 -> utf-8 re-encode).
    The redriven lake must equal the lake from a WAL where those rows
    were valid all along; the watermark must NOT move; the queue must
    be empty afterwards."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import redrive_errors

    ts = datetime(2025, 6, 1, tzinfo=timezone.utc)

    def seg(path, htmls):
        n = len(htmls)
        rows = {
            "op": ["update"] * n,
            "url": [f"https://u{i}.example/" for i in range(n)],
            "warc_ts": [ts] * n,
            "seq": list(range(1, n + 1)),
            "html": htmls,
            "lang": ["en"] * n,
            "schema_version": [1] * n,
            "fetch_status": [200] * n,
        }
        pq.write_table(pa.Table.from_pydict(rows, schema=EVENTS_SCHEMA_V1), path)

    good = [b"page zero", b"caf\xc3\xa9 two", b"page three"]
    bad = [b"page zero", "café two".encode("latin-1"), b"page three"]

    # clean-world reference lake
    clean = str(tmp_path / "clean")
    os.makedirs(os.path.join(clean, "wal"))
    seg(os.path.join(clean, "wal", "segment-00000.parquet"), good)
    ccfg = CdcConfig(wal_dir=os.path.join(clean, "wal"),
                     lake_dir=os.path.join(clean, "lake"),
                     num_partitions=4)
    run_ingest(ccfg)

    # corrupt world: latin-1 bytes quarantined
    tmp = str(tmp_path / "dirty")
    os.makedirs(os.path.join(tmp, "wal"))
    seg(os.path.join(tmp, "wal", "segment-00000.parquet"), bad)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)
    assert read_errors(cfg.lake_dir).num_rows == 1
    wm_before = load_manifest(cfg.lake_dir).watermark

    # no-op fixer first: the row still fails, queue refills, nothing lost
    r = redrive_errors(cfg)
    assert r["redriven_rows"] == 1 and r["still_bad"] == 1
    assert read_errors(cfg.lake_dir).num_rows == 1

    def fix_latin1(t: pa.Table) -> pa.Table:
        fixed = [
            None if b is None else (
                b if _is_utf8(b) else b.decode("latin-1").encode("utf-8")
            )
            for b in t.column("html").to_pylist()
        ]
        return t.set_column(
            t.column_names.index("html"), "html", pa.array(fixed, pa.binary())
        )

    def _is_utf8(b: bytes) -> bool:
        try:
            b.decode("utf-8")
            return True
        except UnicodeDecodeError:
            return False

    r = redrive_errors(cfg, fixer=fix_latin1)
    assert r["commits"] == 1 and r["redriven_rows"] == 1 and r["still_bad"] == 0

    # queue drained, watermark pinned, lineage records the redrive
    assert read_errors(cfg.lake_dir).num_rows == 0
    m = load_manifest(cfg.lake_dir)
    assert m.watermark == wm_before
    assert m.lineage[-1]["op"] == "redrive"

    # row-for-row identical to the clean-world lake (ignoring segment
    # provenance, which truthfully names the redrive segment)
    a = lake_snapshot(cfg.lake_dir).drop_columns(["_src_segment"])
    b = lake_snapshot(ccfg.lake_dir).drop_columns(["_src_segment"])
    assert a.equals(b)

    # idempotent: nothing left to redrive
    assert redrive_errors(cfg) == {
        "redriven_rows": 0, "commits": 0, "still_bad": 0
    }

    # the tailer still sees no new WAL (watermark untouched)
    assert run_ingest(cfg).commits == 0


def test_redrive_recovers_orphaned_sidecar(tmp_path):
    """A redrive that died mid-flight leaves its sidecar; the next
    redrive restores those files into the queue and proceeds (LWW makes
    re-replaying committed rows harmless)."""
    import glob

    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import redrive_errors

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=41, n_urls=10, n_events=50, n_segments=1)
    _corrupt_segment(os.path.join(wal, "segment-00001.parquet"))
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)
    errors_dir = os.path.join(cfg.lake_dir, "_errors")
    files = sorted(glob.glob(os.path.join(errors_dir, "errors-*")))
    raws = [f for f in files if f.endswith(".raw.parquet")]
    assert raws and len(files) == 2 * len(raws)  # tagged + raw pairs

    # simulate a dead redrive: files moved into a sidecar, process gone
    sidecar = os.path.join(errors_dir, ".redrive-deadbeef")
    os.makedirs(sidecar)
    for f in files:
        os.replace(f, os.path.join(sidecar, os.path.basename(f)))
    assert read_errors(cfg.lake_dir).num_rows == 0  # queue looks empty

    # next redrive restores the sidecar and replays (rows still bad ->
    # re-quarantined, nothing lost)
    r = redrive_errors(cfg)
    assert r["redriven_rows"] == 2 and r["still_bad"] == 2
    assert not os.path.exists(sidecar)
    assert read_errors(cfg.lake_dir).num_rows == 2


def test_redrive_carries_schema_evolution(tmp_path):
    """Redriving a quarantined V2 wire row (adds content_type, widens
    fetch_status) into a lake built from V1 traffic must flow through
    the SAME schema-evolution conform as live ingest: the lake schema
    evolves at the redrive commit and the repaired row lands with its
    v2 fields."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import redrive_errors
    from data_hub_ejp_xml_pipeline_ray.schemas import EVENTS_SCHEMA_V2

    ts = datetime(2025, 6, 1, tzinfo=timezone.utc)
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=43, n_urls=10, n_events=50, n_segments=1)

    # a V2 segment with one mojibake row (quarantined) + one good row
    rows = {
        "op": ["update", "update"],
        "url": ["https://v2-bad.example/", "https://v2-good.example/"],
        "warc_ts": [ts, ts],
        "seq": [7, 8],
        "html": ["página dos".encode("latin-1"), b"pagina tres"],
        "lang": ["es", "es"],
        "schema_version": [2, 2],
        "fetch_status": [200, 200],
        "content_type": ["text/html", "text/html"],
    }
    pq.write_table(
        pa.Table.from_pydict(rows, schema=EVENTS_SCHEMA_V2),
        os.path.join(wal, "segment-00001.parquet"),
    )
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)
    assert read_errors(cfg.lake_dir).num_rows == 1

    def fix(t: pa.Table) -> pa.Table:
        fixed = [
            b.decode("latin-1").encode("utf-8")
            for b in t.column("html").to_pylist()
        ]
        return t.set_column(
            t.column_names.index("html"), "html", pa.array(fixed, pa.binary())
        )

    r = redrive_errors(cfg, fixer=fix)
    assert r["still_bad"] == 0 and r["redriven_rows"] == 1
    snap = lake_snapshot(cfg.lake_dir)
    row = {
        u: (txt, ct) for u, txt, ct in zip(
            snap.column("url").to_pylist(),
            snap.column("text").to_pylist(),
            snap.column("content_type").to_pylist(),
        )
    }
    assert row["https://v2-bad.example/"] == ("página dos", "text/html")
    assert row["https://v2-good.example/"][1] == "text/html"


def test_redrive_entity_lake_uses_entity_pipeline(tmp_path):
    """Redriving a group-valued (entity) lake's DLQ must replay through
    the ENTITY pipeline: the repaired row fans out to its entity row
    set, not a single page row."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        redrive_errors,
        run_entity_ingest,
    )

    ts = datetime(2025, 6, 1, tzinfo=timezone.utc)
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=53, n_urls=8, n_events=40, n_segments=1,
                 rich_pages=True)
    html = (
        "<html><head><title>Tít</title></head>"
        "<body><h1>H</h1></body></html>"
    )
    rows = {
        "op": ["update"],
        "url": ["https://fixme.example/"],
        "warc_ts": [ts],
        "seq": [9],
        "html": [html.encode("latin-1")],  # é -> latin-1: quarantined
        "lang": ["es"],
        "schema_version": [1],
        "fetch_status": [200],
    }
    pq.write_table(
        pa.Table.from_pydict(rows, schema=EVENTS_SCHEMA_V1),
        os.path.join(wal, "segment-00001.parquet"),
    )
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_entity_ingest(cfg)
    assert read_errors(cfg.lake_dir).num_rows == 1

    def fix(t: pa.Table) -> pa.Table:
        fixed = [
            b.decode("latin-1").encode("utf-8")
            for b in t.column("html").to_pylist()
        ]
        return t.set_column(
            t.column_names.index("html"), "html", pa.array(fixed, pa.binary())
        )

    r = redrive_errors(cfg, fixer=fix)
    assert r["still_bad"] == 0 and r["redriven_rows"] == 1
    snap = lake_snapshot(cfg.lake_dir)
    mine = snap.filter(
        pa.compute.equal(snap.column("url"), "https://fixme.example/")
    )
    # entity fan-out: page row + title heading rows, with the repaired
    # accent intact
    kinds = set(mine.column("entity_type").to_pylist())
    assert "page" in kinds and len(kinds) >= 2, kinds
    titles = mine.filter(
        pa.compute.equal(mine.column("entity_type"), "page")
    ).column("title").to_pylist()
    assert titles == ["Tít"]


def test_redrive_is_serialized_by_its_own_lease(tmp_path):
    """A second redrive while one holds the redrive lease fails fast
    (ConcurrentWriterError) instead of treating the live sidecar as an
    orphan."""
    import pytest

    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        REDRIVE_LOCK_NAME,
        redrive_errors,
    )
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
        ConcurrentWriterError,
        writer_lock,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=59, n_urls=10, n_events=50, n_segments=1)
    _corrupt_segment(os.path.join(wal, "segment-00001.parquet"))
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4)
    run_ingest(cfg)
    with writer_lock(cfg.lake_dir, lock_name=REDRIVE_LOCK_NAME):
        with pytest.raises(ConcurrentWriterError):
            redrive_errors(cfg)
    # lease released: the redrive proceeds normally afterwards
    r = redrive_errors(cfg)
    assert r["redriven_rows"] == 2


@pytest.mark.parametrize("lane", ["page", "entity", "nested"])
def test_excluded_urls_reach_neither_lake_nor_errors(tmp_path, lane):
    """Every lane drops excluded urls BEFORE quarantine (the reference
    filters names before parsing, ``ejp_zip.py:61-63``): an excluded
    url lands in neither the lake nor ``_errors``, even when its row is
    malformed, while a malformed row under a kept url is quarantined."""
    ingest = {"page": run_ingest, "entity": run_entity_ingest,
              "nested": run_nested_ingest}[lane]
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=35, n_urls=20, n_events=100, n_segments=2)
    ts = datetime(2025, 6, 1, tzinfo=timezone.utc)
    rows = {
        "op": ["update"] * 4,
        "url": ["https://skip.example/a", "https://skip.example/bad",
                "https://keep.example/", "https://keep.example/bad"],
        "warc_ts": [ts] * 4,
        "seq": [1, 2, 3, 4],
        "html": [b"<title>skipped</title>", b"\xff\xfe broken \x80",
                 b"<title>kept</title>", b"\xff\xfe broken \x80"],
        "lang": ["en"] * 4,
        "schema_version": [1] * 4,
        "fetch_status": [200] * 4,
    }
    pq.write_table(pa.Table.from_pydict(rows, schema=EVENTS_SCHEMA_V1),
                   os.path.join(wal, "segment-00002.parquet"))
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=4,
                    url_exclusion_pattern=r"https://skip\.example/")
    report = ingest(cfg)

    lake_urls = set(lake_snapshot(cfg.lake_dir).column("url").to_pylist())
    assert "https://keep.example/" in lake_urls
    assert not any(u.startswith("https://skip.") for u in lake_urls)
    assert read_errors(cfg.lake_dir).column("url").to_pylist() == [
        "https://keep.example/bad"
    ]
    assert report.error_rows == 1
