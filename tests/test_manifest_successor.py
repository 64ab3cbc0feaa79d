"""Every commit derives its manifest from ``LakeManifest.successor``:
the next version carries each field it does not own unchanged, and
only the per-partition stats fold touches partition state.

The unit check iterates ``dataclasses.fields(LakeManifest)``, so a
field added later that ``successor`` or the JSON round trip drops
fails here. The lake-level check runs every maintenance, DML, DDL and
history operation on one lake that has something in every field."""
import dataclasses
import json
import os

import pyarrow as pa
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.ddl import alter_lake
from data_hub_ejp_xml_pipeline_ray.pipelines.dml import delete_where
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    cluster_lake,
    compact_deltas,
    compact_lake,
    purge_urls,
    restore_lake,
    rewind_watermark,
    split_partition,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
    LakeManifest,
    load_manifest,
)

FIELDS = [f.name for f in dataclasses.fields(LakeManifest)]
#: every commit bumps the version and appends one lineage entry
CHAIN = {"version", "lineage"}
#: what a partition rewrite changes (zone maps follow the file set)
FILES = {"partitions", "partition_meta", "delta_files", "zones"}


def _sample() -> LakeManifest:
    """A manifest with a non-default value in every field."""
    values = {
        "num_partitions": 4,
        "version": 7,
        "watermark": "segment-00003.parquet",
        "source_watermarks": {"b": "segment-00001.parquet"},
        "schema": pa.schema([("url", pa.string()), ("seq", pa.int64())]),
        "partitions": {0: "data/part-00000-a.parquet"},
        "partition_meta": {0: {"rows": 3, "bytes": 10, "modulus": 8},
                           4: {"delta_rows": 1, "modulus": 8}},
        "splits": [[0, 4]],
        "lineage": [{"version": 7, "committed_at": "t", "op": "x"}],
        "counters": {"commits": 7},
        "retain_versions": 3,
        "kind": "group",
        "delta_files": {4: ["data/part-00004-b.delta.parquet"]},
        "renames": [["lang", "language"]],
        "dropped": ["fetch_status"],
        "zones": {"data/part-00000-a.parquet": {"rows": 3, "cols": {}}},
    }
    # a new field must get a sample value here before this test passes
    assert set(values) == set(FIELDS)
    return LakeManifest(**values)


def test_successor_copies_every_field_into_fresh_containers():
    m = _sample()
    before = json.dumps(m.to_json(), sort_keys=True)
    nxt = m.successor({"op": "probe"}, watermark="segment-00004.parquet")
    assert nxt.version == 8
    assert nxt.lineage[:-1] == m.lineage
    assert nxt.lineage[-1]["version"] == 8
    assert nxt.lineage[-1]["op"] == "probe"
    assert "committed_at" in nxt.lineage[-1]
    assert nxt.watermark == "segment-00004.parquet"
    for name in set(FIELDS) - CHAIN - {"watermark"}:
        old, new = getattr(m, name), getattr(nxt, name)
        assert new == old, name
        if isinstance(old, (dict, list)):
            assert new is not old, name
    # nested containers are fresh too: mutating the successor the way
    # the stats fold does never reaches back into its predecessor
    nxt.partition_meta[0]["rows"] = 99
    nxt.delta_files[4].append("data/x.delta.parquet")
    nxt.splits[0].append(1)
    nxt.lineage[0]["op"] = "changed"
    assert json.dumps(m.to_json(), sort_keys=True) == before


def test_successor_history_and_json_round_trip():
    m = _sample()
    head = dataclasses.replace(
        _sample(), version=11, retain_versions=5,
        lineage=[{"version": 11, "committed_at": "t", "op": "y"}],
    )
    nxt = m.successor({"op": "restore"}, history=head)
    assert nxt.version == 12
    assert [e["op"] for e in nxt.lineage] == ["y", "restore"]
    assert nxt.retain_versions == 3  # state, not history
    fresh = m.successor(
        {"op": "branch"}, history=LakeManifest(num_partitions=4)
    )
    assert fresh.version == 1 and len(fresh.lineage) == 1
    back = LakeManifest.from_json(json.loads(json.dumps(nxt.to_json())))
    for name in FIELDS:
        assert getattr(back, name) == getattr(nxt, name), name


def test_fold_partition_stats_base_and_delta():
    m = _sample().successor({"op": "probe"})
    m.fold_partition_stats([
        {"part": 4, "path": "data/d1.delta.parquet", "rows": 2,
         "bytes": 5, "tombstones": 1},
        {"part": 2, "path": "data/d2.delta.parquet", "rows": 1,
         "bytes": 3, "tombstones": 0},
    ], delta=True)
    assert m.delta_files[4] == [
        "data/part-00004-b.delta.parquet", "data/d1.delta.parquet",
    ]
    assert m.partition_meta[4] == {
        "delta_rows": 3, "delta_bytes": 5, "delta_tombstones": 1,
        "delta_file_count": 2, "modulus": 8,
    }
    # part 2 lives at modulus 4 (only residue 0 was split)
    assert m.partition_meta[2]["modulus"] == 4
    m.fold_partition_stats([
        {"part": 4, "path": "data/b4.parquet", "rows": 6, "bytes": 9,
         "tombstones": 2},
        {"part": 2, "path": None, "rows": 0, "bytes": 0, "tombstones": 0},
    ])
    assert m.partitions[4] == "data/b4.parquet"
    assert m.partition_meta[4] == {
        "rows": 6, "bytes": 9, "tombstones": 2, "modulus": 8,
    }
    assert 4 not in m.delta_files
    assert 2 not in m.delta_files and 2 not in m.partition_meta
    assert 2 not in m.partitions


@pytest.fixture(scope="module")
def rich_lake(tmp_path_factory):
    """A lake with something in every manifest field: a named source's
    watermark beside the default one, a DDL rename and drop, one split,
    ``retain_versions=3`` and pending MOR deltas."""
    tmp = str(tmp_path_factory.mktemp("rich"))
    lake = os.path.join(tmp, "lake")
    gen = dict(n_urls=40, n_events=240, n_segments=2, delete_fraction=0.1)
    generate_wal(os.path.join(tmp, "wal"), seed=5, **gen)
    generate_wal(os.path.join(tmp, "wal_b"), seed=6, **gen)

    def cfg(wal, **kw):
        return CdcConfig(wal_dir=os.path.join(tmp, wal), lake_dir=lake,
                         num_partitions=4, retain_versions=3, **kw)

    run_ingest(cfg("wal"))
    run_ingest(cfg("wal_b", source="b"))
    alter_lake(lake, rename={"lang": "language"}, drop=["fetch_status"])
    split_partition(lake, sorted(load_manifest(lake).partitions)[0])
    generate_wal(os.path.join(tmp, "wal"), seed=7, start_segment=2, **gen)
    run_ingest(cfg("wal", merge_mode="mor"))
    m = load_manifest(lake)
    assert m.source_watermarks and m.watermark
    assert m.renames and m.dropped and m.splits and m.delta_files
    assert m.retain_versions == 3 and m.zones
    return lake


def _check_carry(before: LakeManifest, after: LakeManifest, owned: set):
    assert after.version == before.version + 1
    assert after.lineage[:-1] == before.lineage
    assert after.lineage[-1]["version"] == after.version
    for name in set(FIELDS) - CHAIN - owned:
        assert getattr(after, name) == getattr(before, name), name


def test_every_op_carries_the_fields_it_does_not_own(rich_lake):
    lake = rich_lake
    ops = [
        ("delete_where", lambda: delete_where(
            lake, [["language", "==", "de"]]),
         {"partition_meta", "delta_files", "zones", "counters"}),
        ("alter", lambda: alter_lake(lake, add={"score": "float64"}),
         {"schema"}),
        ("compact_deltas", lambda: compact_deltas(lake), FILES),
        ("cluster", lambda: cluster_lake(lake), FILES),
        ("split", lambda: split_partition(
            lake, sorted(load_manifest(lake).partitions)[-1]),
         FILES | {"splits"}),
        ("compact", lambda: compact_lake(lake), FILES),
        ("rewind", lambda: rewind_watermark(lake, "segment-00001.parquet"),
         {"watermark"}),
        ("purge", lambda: purge_urls(
            lake, [lake_snapshot(lake).column("url")[0].as_py()]),
         FILES),
    ]
    for op, run, owned in ops:
        before = load_manifest(lake)
        run()
        after = load_manifest(lake)
        assert after.lineage[-1].get("op") == op, op
        _check_carry(before, after, owned)

    # restore takes its whole state from the target snapshot and only
    # its history (version, lineage, retention) from the head
    head = load_manifest(lake)
    target = load_manifest(lake, version=head.version - 2)
    restore_lake(lake, target.version)
    after = load_manifest(lake)
    assert after.version == head.version + 1
    assert after.lineage[:-1] == head.lineage
    assert after.lineage[-1]["op"] == "restore"
    assert after.retain_versions == head.retain_versions
    for name in set(FIELDS) - CHAIN - {"retain_versions"}:
        assert getattr(after, name) == getattr(target, name), name
