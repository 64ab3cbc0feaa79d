"""Named version tags (the Iceberg TAG analog): a tag pins a retained
snapshot against retention pruning and vacuum until deleted, resolves
by name for time travel / export, and publishes through the store
seam's CAS primitives (rename-free, object-store-safe)."""
import json
import os

import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import vacuum
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
    delete_tag,
    list_tags,
    list_versions,
    load_manifest,
    resolve_tag,
    tag_version,
)
from data_hub_ejp_xml_pipeline_ray.state.store import InMemoryCASStore


@pytest.fixture()
def versioned_lake(tmp_path):
    """A lake with 4 committed versions (one per WAL segment)."""
    tmp = str(tmp_path)
    generate_wal(os.path.join(tmp, "wal"), seed=31, n_urls=30, n_events=200,
                 n_segments=4, delete_fraction=0.1)
    cfg = CdcConfig(wal_dir=os.path.join(tmp, "wal"),
                    lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=8,
                    max_segments_per_batch=1,
                    retain_versions=None)  # keep all history for tagging
    run_ingest(cfg)
    return cfg


def test_tag_resolves_and_lists(versioned_lake):
    lake = versioned_lake.lake_dir
    assert list_tags(lake) == {}
    v = tag_version(lake, "release-1", 2)
    assert v == 2
    head = tag_version(lake, "audit")  # default: current version
    assert head == load_manifest(lake).version
    assert list_tags(lake) == {"release-1": 2, "audit": head}
    assert resolve_tag(lake, "release-1") == 2
    with pytest.raises(KeyError):
        resolve_tag(lake, "nope")


def test_tag_pins_version_through_vacuum(versioned_lake):
    lake = versioned_lake.lake_dir
    pinned_state = lake_snapshot(lake, version=2)
    tag_version(lake, "release-1", 2)
    vacuum(lake, keep=1)
    head = load_manifest(lake).version
    assert set(list_versions(lake)) == {2, head}
    # the pinned snapshot is still fully readable (files kept too)
    assert lake_snapshot(lake, version=resolve_tag(lake, "release-1")).equals(
        pinned_state
    )
    # untagged old versions are gone
    with pytest.raises(FileNotFoundError):
        lake_snapshot(lake, version=1)


def test_deleted_tag_becomes_prunable(versioned_lake):
    lake = versioned_lake.lake_dir
    tag_version(lake, "release-1", 2)
    vacuum(lake, keep=1)
    assert delete_tag(lake, "release-1") is True
    assert delete_tag(lake, "release-1") is False  # already gone
    vacuum(lake, keep=1)
    assert list_versions(lake) == [load_manifest(lake).version]


def test_tag_survives_ingest_retention(tmp_path):
    """Normal ingest GC (retain_versions=2) must also honor tags: a
    tagged v1 stays time-travelable while untagged history rolls."""
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    generate_wal(wal, seed=32, n_urls=20, n_events=50, n_segments=1,
                 delete_fraction=0.1)
    cfg = CdcConfig(wal_dir=wal, lake_dir=os.path.join(tmp, "lake"),
                    num_partitions=8,
                    max_segments_per_batch=1, retain_versions=2)
    run_ingest(cfg)  # v1
    pinned = lake_snapshot(cfg.lake_dir)
    tag_version(cfg.lake_dir, "v1-audit", 1)
    generate_wal(wal, seed=33, n_urls=20, n_events=150, n_segments=3,
                 start_segment=1, delete_fraction=0.1)
    run_ingest(cfg)  # v2..v4; retention keeps newest 2 + the tagged v1
    versions = list_versions(cfg.lake_dir)
    assert 1 in versions and len(versions) == 3
    assert lake_snapshot(cfg.lake_dir, version=1).equals(pinned)


def test_tag_validation(versioned_lake):
    lake = versioned_lake.lake_dir
    with pytest.raises(ValueError, match="invalid tag name"):
        tag_version(lake, "bad name!")
    with pytest.raises(FileNotFoundError, match="no retained snapshot"):
        tag_version(lake, "ghost", 99)


def test_tags_cas_on_rename_free_store():
    """The tags doc publishes via put_if_absent / replace_if_matches
    only — proven on the fake object store with NO rename primitive."""
    store = InMemoryCASStore()
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
        _cas_update_tags,
    )

    _cas_update_tags("/lake", store, lambda t: {**t, "a": 1})
    _cas_update_tags("/lake", store, lambda t: {**t, "b": 2})
    raw = store.get_bytes("/lake/_tags.json")
    assert json.loads(raw) == {"a": 1, "b": 2}


def test_tag_cli(versioned_lake, capsys):
    from data_hub_ejp_xml_pipeline_ray.run import main

    lake = versioned_lake.lake_dir
    assert main(["tag", "--lake-dir", lake, "--name", "rel", "--version", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"tag": "rel", "version": 2}
    assert main(["tag", "--lake-dir", lake]) == 0
    assert json.loads(capsys.readouterr().out)["tags"] == {"rel": 2}
    assert main(["versions", "--lake-dir", lake]) == 0
    assert json.loads(capsys.readouterr().out)["tags"] == {"rel": 2}
    assert main(["tag", "--lake-dir", lake, "--name", "rel", "--delete"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "deleted": "rel", "existed": True,
    }


def test_pinned_snapshot_reader_lease(versioned_lake):
    """A long reader pins its snapshot: vacuum during the read cannot
    prune it; the pin is released (tag deleted) on exit — including on
    error — and the version becomes prunable again."""
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
        pinned_snapshot,
    )

    lake = versioned_lake.lake_dir
    with pinned_snapshot(lake, 2) as v:
        assert v == 2
        pinned_state = lake_snapshot(lake, version=2)
        vacuum(lake, keep=1)
        assert lake_snapshot(lake, version=2).equals(pinned_state)
        assert len(list_tags(lake)) == 1
    assert list_tags(lake) == {}  # lease released
    vacuum(lake, keep=1)
    with pytest.raises(FileNotFoundError):
        lake_snapshot(lake, version=2)


def test_pinned_snapshot_releases_on_error(versioned_lake):
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
        pinned_snapshot,
    )

    lake = versioned_lake.lake_dir
    with pytest.raises(RuntimeError, match="reader died"):
        with pinned_snapshot(lake):  # default: current version
            raise RuntimeError("reader died")
    assert list_tags(lake) == {}
