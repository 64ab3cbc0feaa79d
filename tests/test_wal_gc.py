"""WAL segment retention (`wal_gc`): binlog purge driven by the MIN
committed watermark across every consumer lake. The strictly-greater
tail filter means a retired segment is invisible to all of them, so
GC must never outrun the slowest consumer — these tests pin that.

Reference analog: the reference keeps its S3 dumps forever and never
needed this; a 10^10-event WAL does (MySQL `PURGE BINARY LOGS` /
Kafka retention are the production analogs).
"""
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import CdcConfig, run_ingest
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments, wal_gc

from tests.test_cdc_pipeline import _expected_lake, _snapshot_dict


def _cfg(wal, lake):
    return CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4)


@pytest.fixture()
def two_consumers(tmp_path):
    """Lake A fully caught up (6 segments), lake B lagging at 4."""
    wal = str(tmp_path / "wal")
    lake_a = str(tmp_path / "lake_a")
    lake_b = str(tmp_path / "lake_b")
    generate_wal(wal, seed=21, n_urls=40, n_events=600, n_segments=4,
                 delete_fraction=0.1)
    run_ingest(_cfg(wal, lake_b))  # B stops at segment 4
    generate_wal(wal, seed=22, n_urls=40, n_events=300, n_segments=2,
                 start_segment=4)
    run_ingest(_cfg(wal, lake_a))  # A sees all 6
    return wal, lake_a, lake_b


def test_gc_respects_slowest_consumer_and_keep_last(two_consumers):
    wal, lake_a, lake_b = two_consumers
    report = wal_gc(wal, [lake_a, lake_b], keep_last=2)
    # min watermark is B's (segment 4 of 6): 4 reclaimable, keep 2.
    assert report["min_watermark"].startswith("segment-00003")
    assert report["reclaimed"] == 2 and report["kept_reclaimable"] == 2
    assert report["reclaimed_bytes"] > 0
    names = [s.name for s in list_segments(wal)]
    assert len(names) == 4 and names[0].startswith("segment-00002")

    # Idempotent: nothing newly reclaimable on a second pass.
    assert wal_gc(wal, [lake_a, lake_b], keep_last=2)["reclaimed"] == 0

    # The lagging consumer still converges: its remaining input
    # (segments strictly above its watermark) was never touched.
    run_ingest(_cfg(wal, lake_b))
    assert _snapshot_dict(lake_b) == _snapshot_dict(lake_a)


def test_gc_keep_last_zero_reclaims_everything_durable(two_consumers):
    wal, lake_a, lake_b = two_consumers
    report = wal_gc(wal, [lake_a, lake_b], keep_last=0)
    assert report["reclaimed"] == 4 and report["kept_reclaimable"] == 0
    run_ingest(_cfg(wal, lake_b))
    assert _snapshot_dict(lake_b) == _snapshot_dict(lake_a)


def test_gc_refuses_unstarted_consumer(two_consumers, tmp_path):
    wal, lake_a, _ = two_consumers
    cold = str(tmp_path / "never_started")
    with pytest.raises(ValueError, match="no committed watermark"):
        wal_gc(wal, [lake_a, cold])
    # nothing was touched by the refused call
    assert len(list_segments(wal)) == 6


def test_gc_dry_run_touches_nothing(two_consumers):
    wal, lake_a, lake_b = two_consumers
    report = wal_gc(wal, [lake_a, lake_b], keep_last=0, dry_run=True)
    assert report["reclaimed"] == 4 and report["dry_run"]
    assert len(list_segments(wal)) == 6


def test_gc_archive_moves_segments_replayably(two_consumers, tmp_path):
    wal, lake_a, lake_b = two_consumers
    archive = str(tmp_path / "archive")
    report = wal_gc(wal, [lake_a, lake_b], keep_last=0,
                    archive_dir=archive)
    assert report["reclaimed"] == 4 and report["archived_to"] == archive
    assert len(list_segments(wal)) == 2
    # the archive is itself a valid WAL prefix: a fresh tailer pointed
    # at it replays the retired history
    archived = list_segments(archive)
    assert [s.name for s in archived] == [
        f"segment-{i:05d}.parquet" for i in range(4)
    ]
    lake_c = str(tmp_path / "lake_c")
    run_ingest(_cfg(archive, lake_c))
    assert _snapshot_dict(lake_c) == _expected_lake(archive)
    remaining = {s.name for s in list_segments(wal)}
    assert remaining == {"segment-00004.parquet", "segment-00005.parquet"}


def test_gc_requires_consumers():
    with pytest.raises(ValueError, match="at least one consumer"):
        wal_gc("/nonexistent", [])
