"""Multi-WAL fan-in ingest (`CdcConfig.source`): N independent WALs
merge into one lake under per-source strictly-greater watermarks, and
the result must equal a single-WAL replay of the union."""
import os

import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest


@pytest.fixture()
def two_wals(tmp_path):
    """Two WALs over OVERLAPPING urls (same seed/url universe,
    different events) — the LWW-across-sources stress."""
    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal_a"), seed=61, n_urls=40,
                 n_events=400, n_segments=4, delete_fraction=0.1)
    generate_wal(os.path.join(tmp, "wal_b"), seed=62, n_urls=40,
                 n_events=400, n_segments=4, delete_fraction=0.1)
    return tmp


def _cfg(tmp, src, lake="lake", **kw):
    return CdcConfig(
        wal_dir=os.path.join(tmp, f"wal_{src}"),
        lake_dir=os.path.join(tmp, lake),
        num_partitions=8, source=src, **kw,
    )


def test_interleaved_sources_converge_and_cursors_are_independent(
    two_wals,
):
    tmp = two_wals
    half = "segment-0000[0-1].parquet"
    assert run_ingest(_cfg(tmp, "a", segment_glob=half)).commits == 1
    assert run_ingest(_cfg(tmp, "b", segment_glob=half)).commits == 1
    m = load_manifest(os.path.join(tmp, "lake"))
    assert m.source_watermarks == {
        "a": "segment-00001.parquet", "b": "segment-00001.parquet"
    }
    assert m.watermark is None  # named sources never move the global
    # source a advances; b's cursor must not
    assert run_ingest(_cfg(tmp, "a")).commits == 1
    m = load_manifest(os.path.join(tmp, "lake"))
    assert m.source_watermarks["a"] == "segment-00003.parquet"
    assert m.source_watermarks["b"] == "segment-00001.parquet"
    assert run_ingest(_cfg(tmp, "b")).commits == 1
    # idempotent per source
    assert run_ingest(_cfg(tmp, "a")).commits == 0
    assert run_ingest(_cfg(tmp, "b")).commits == 0
    # reference: each WAL ingested alone into its own lake, then the
    # union replayed — LWW across sources == LWW across segments
    run_ingest(CdcConfig(
        wal_dir=os.path.join(tmp, "wal_a"),
        lake_dir=os.path.join(tmp, "lake_ref"),
        num_partitions=8,
        segment_glob="segment-*.parquet",
    ))
    # second WAL replays into the same reference lake via a named
    # source (global watermark already past wal_b's names otherwise)
    run_ingest(_cfg(tmp, "b", lake="lake_ref"))
    cols = ["url", "warc_ts", "seq", "text", "lang"]
    a = lake_snapshot(os.path.join(tmp, "lake")).select(cols).sort_by(
        [("url", "ascending")]
    )
    b = lake_snapshot(os.path.join(tmp, "lake_ref")).select(cols).sort_by(
        [("url", "ascending")]
    )
    assert a.equals(b)


def test_source_watermarks_survive_maintenance(two_wals):
    from data_hub_ejp_xml_pipeline_ray.pipelines.ddl import alter_lake
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        compact_lake,
    )

    tmp = two_wals
    run_ingest(_cfg(tmp, "a"))
    run_ingest(_cfg(tmp, "b"))
    lake = os.path.join(tmp, "lake")
    before = load_manifest(lake).source_watermarks
    assert set(before) == {"a", "b"}
    compact_lake(lake)
    assert load_manifest(lake).source_watermarks == before
    alter_lake(lake, add={"quality": "float64"})
    assert load_manifest(lake).source_watermarks == before
    # cursors still honored after maintenance commits: no re-ingest
    assert run_ingest(_cfg(tmp, "a")).commits == 0


def test_mixed_named_and_default_source(two_wals):
    """A default (unnamed) tailer and a named source coexist: each
    advances its own cursor."""
    tmp = two_wals
    cfg_default = CdcConfig(
        wal_dir=os.path.join(tmp, "wal_a"),
        lake_dir=os.path.join(tmp, "lake"),
        num_partitions=8,
    )
    assert run_ingest(cfg_default).commits == 1
    assert run_ingest(_cfg(tmp, "b")).commits == 1
    m = load_manifest(os.path.join(tmp, "lake"))
    assert m.watermark == "segment-00003.parquet"
    assert m.source_watermarks == {"b": "segment-00003.parquet"}
    assert run_ingest(cfg_default).commits == 0
    assert run_ingest(_cfg(tmp, "b")).commits == 0


def test_wal_gc_and_lag_per_source(two_wals):
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import wal_lag
    from data_hub_ejp_xml_pipeline_ray.sources.wal import wal_gc

    tmp = two_wals
    half = "segment-0000[0-1].parquet"
    run_ingest(_cfg(tmp, "a", segment_glob=half))
    lake = os.path.join(tmp, "lake")
    # lag: the named cursor sees 2 pending segments; the global
    # watermark is None (would claim the whole WAL pending)
    lag = wal_lag(lake, os.path.join(tmp, "wal_a"), source="a")
    assert lag["pending_segments"] == 2
    assert lag["watermark"] == "segment-00001.parquet"
    # wal_gc: plain lake dir fails closed (no global watermark) —
    # a (lake, source) consumer reclaims below the source cursor
    with pytest.raises(ValueError, match="no committed watermark"):
        wal_gc(os.path.join(tmp, "wal_a"), [lake], dry_run=True)
    rep = wal_gc(
        os.path.join(tmp, "wal_a"), [(lake, "a")],
        keep_last=0, dry_run=True,
    )
    assert rep["reclaimed"] == 2


def test_poll_with_source_times_out_when_caught_up(two_wals):
    """Regression: the poll loop's freshness probe read the GLOBAL
    watermark, which stays None for fan-in lakes — so `poll --source`
    saw every segment as fresh forever and the timeout deadline kept
    resetting (the loop never exited)."""
    import subprocess
    import sys
    import time as _time

    tmp = two_wals
    run_ingest(_cfg(tmp, "a"))  # fully caught up
    t0 = _time.monotonic()
    out = subprocess.run(
        [sys.executable, "-m", "data_hub_ejp_xml_pipeline_ray.run",
         "poll", "--wal-dir", os.path.join(tmp, "wal_a"),
         "--lake-dir", os.path.join(tmp, "lake"),
         "--num-partitions", "8", "--num-cpus", "4",
         "--source", "a", "--interval", "0.3", "--timeout", "3"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
    )
    assert out.returncode == 0, out.stderr[-2000:]
    # exited by deadline (no fresh segments), not hung until the
    # subprocess timeout
    assert _time.monotonic() - t0 < 100


def test_cross_source_schema_evolution(tmp_path):
    """Source A stays on wire v1 while source B emits v2 (extra
    column, widened type): the lake schema must widen once and A's
    rows null-fill — schema evolution is per-lake, not per-source."""
    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal_a"), seed=71, n_urls=30,
                 n_events=200, n_segments=2)
    generate_wal(os.path.join(tmp, "wal_b"), seed=72, n_urls=30,
                 n_events=200, n_segments=2, v2_from_segment=0)
    run_ingest(_cfg(tmp, "a"))
    m1 = load_manifest(os.path.join(tmp, "lake"))
    assert "content_type" not in m1.schema.names
    run_ingest(_cfg(tmp, "b"))
    m2 = load_manifest(os.path.join(tmp, "lake"))
    assert "content_type" in m2.schema.names  # v2 column arrived via B
    snap = lake_snapshot(os.path.join(tmp, "lake"))
    by_src = {}
    for url, ct in zip(snap.column("url").to_pylist(),
                       snap.column("content_type").to_pylist()):
        by_src.setdefault(ct is None, 0)
        by_src[ct is None] += 1
    assert by_src.get(True) and by_src.get(False)  # nulls + values mix
    # and A can still commit AFTER the widen without regressing schema
    generate_wal(os.path.join(tmp, "wal_a"), seed=73, n_urls=30,
                 n_events=100, n_segments=1, start_segment=2)
    assert run_ingest(_cfg(tmp, "a")).commits == 1
    m3 = load_manifest(os.path.join(tmp, "lake"))
    assert "content_type" in m3.schema.names


def test_lock_wait_lets_sources_take_turns(two_wals):
    """A live writer lease rejects fail-fast by default; with
    ``lock_wait_s`` the second source waits the lease out instead of
    burning the pass."""
    import json as _json
    import time as _time

    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
        LOCK_NAME,
        ConcurrentWriterError,
    )

    tmp = two_wals
    lake = os.path.join(tmp, "lake")
    run_ingest(_cfg(tmp, "a"))
    # simulate a concurrent writer: a lease expiring ~2 s from now
    with open(os.path.join(lake, LOCK_NAME), "w") as f:
        _json.dump({"owner": "other-writer",
                    "expires_at": _time.time() + 2.0}, f)
    with pytest.raises(ConcurrentWriterError):
        run_ingest(_cfg(tmp, "b"))
    t0 = _time.monotonic()
    r = run_ingest(_cfg(tmp, "b", lock_wait_s=15.0))
    assert r.commits == 1
    assert _time.monotonic() - t0 >= 1.0  # actually waited the lease out


def test_entity_lake_multi_source(tmp_path):
    """The per-source cursor logic is lake-kind-agnostic: the demuxed
    ENTITY lake fans in two WALs and converges to the single-WAL
    entity state."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        run_entity_ingest,
    )

    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal_a"), seed=81, n_urls=20,
                 n_events=120, n_segments=2, rich_pages=True)
    generate_wal(os.path.join(tmp, "wal_b"), seed=82, n_urls=20,
                 n_events=120, n_segments=2, rich_pages=True)
    for src in ("a", "b"):
        r = run_entity_ingest(CdcConfig(
            wal_dir=os.path.join(tmp, f"wal_{src}"),
            lake_dir=os.path.join(tmp, "elake"),
            num_partitions=8, source=src,
        ))
        assert r.commits == 1
    m = load_manifest(os.path.join(tmp, "elake"))
    assert m.kind == "group" and set(m.source_watermarks) == {"a", "b"}
    # reference: sequential single-lake ingests (default then named)
    run_entity_ingest(CdcConfig(
        wal_dir=os.path.join(tmp, "wal_a"),
        lake_dir=os.path.join(tmp, "elake_ref"),
        num_partitions=8,
    ))
    run_entity_ingest(CdcConfig(
        wal_dir=os.path.join(tmp, "wal_b"),
        lake_dir=os.path.join(tmp, "elake_ref"),
        num_partitions=8, source="b",
    ))
    a = lake_snapshot(os.path.join(tmp, "elake"))
    b = lake_snapshot(os.path.join(tmp, "elake_ref"))
    keys = [(c, "ascending") for c in
            ("url", "entity_type", "link_index", "warc_ts", "seq")]
    assert a.sort_by(keys).equals(b.sort_by(keys))
