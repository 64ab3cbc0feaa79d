"""Write-audit-publish branches: zero-copy fork, isolated branch
writes, GC pinning of inherited files, audit gate, fast-forward-only
publish, crash-retry idempotence (``pipelines/branching.py``)."""
import os

import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.branching import (
    audit_branch,
    create_branch,
    delete_branch,
    list_branches,
    publish_branch,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    changes_between,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    compact_lake,
    vacuum,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import (
    generate_wal,
    naive_replay,
)
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
    branch_dir,
    load_manifest,
)


def _cfg(tmp: str, lake: str) -> CdcConfig:
    return CdcConfig(wal_dir=os.path.join(tmp, "wal"), lake_dir=lake,
                     num_partitions=8)


def _state(lake_dir: str) -> dict:
    return {
        r["url"]: (r["warc_ts"], r["seq"], r["text"])
        for r in lake_snapshot(lake_dir).to_pylist()
    }


def _expected(wal_dir: str) -> dict:
    from data_hub_ejp_xml_pipeline_ray.functions.text import (
        extract_text_reference,
    )

    tables = [pq.read_table(s.path) for s in list_segments(wal_dir)]
    return {
        url: (row["warc_ts"], row["seq"], extract_text_reference(row["html"]))
        for url, row in naive_replay(tables).items()
    }


def test_wap_fork_ingest_publish_converges(tmp_path):
    """The headline WAP law: fork -> branch tails the WAL main hasn't
    seen -> main is untouched -> publish fast-forwards main to exactly
    the replay truth, one version, watermark carried."""
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=11, n_urls=40, n_events=300, n_segments=3,
                 delete_fraction=0.1)
    run_ingest(_cfg(tmp, main))
    pre_fork = _state(main)
    fork_v = load_manifest(main).version

    info = create_branch(main, "audit")
    assert info["forked_from_version"] == fork_v
    assert list_branches(main) == ["audit"]
    bdir = branch_dir(main, "audit")
    # zero copy: the fork wrote no data files of its own
    assert not os.path.isdir(os.path.join(bdir, "data"))
    assert _state(bdir) == pre_fork  # branch reads the fork state

    # new WAL lands; the BRANCH tails it (watermark carried at fork)
    generate_wal(wal, seed=23, n_urls=40, n_events=300, n_segments=3,
                 start_segment=3, delete_fraction=0.1)
    run_ingest(_cfg(tmp, bdir))
    assert _state(bdir) == _expected(wal)
    assert _state(main) == pre_fork  # production view untouched

    out = publish_branch(main, "audit")
    assert out["new_version"] == fork_v + 1
    assert out["files_copied"] > 0
    m = load_manifest(main)
    assert m.version == fork_v + 1
    assert m.watermark == out["watermark"] is not None
    assert _state(main) == _expected(wal)
    assert list_branches(main) == []  # consumed by default
    # zones invariant holds on the published manifest
    assert set(m.zones) == set(m.all_data_relpaths())
    # the feed sees the publish as ONE ordinary version diff
    feed = changes_between(main, fork_v, fork_v + 1).take_all()
    assert len(feed) > 0
    changed = {r["url"] for r in feed}
    post = _state(main)
    for url in changed:
        assert post.get(url) != pre_fork.get(url)
    # tailing resumes on main exactly where the branch stood
    rep = run_ingest(_cfg(tmp, main))
    assert rep.segments_processed == []


def test_branch_isolation_and_delete(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=7, n_urls=20, n_events=150, n_segments=2)
    run_ingest(_cfg(tmp, main))
    before = _state(main)
    create_branch(main, "scratch")
    bdir = branch_dir(main, "scratch")
    generate_wal(wal, seed=8, n_urls=20, n_events=100, n_segments=2,
                 start_segment=2)
    run_ingest(_cfg(tmp, bdir))
    assert _state(main) == before
    delete_branch(main, "scratch")
    assert list_branches(main) == []
    assert not os.path.isdir(bdir)
    assert _state(main) == before
    # same name is reusable after delete
    create_branch(main, "scratch")
    assert list_branches(main) == ["scratch"]
    with pytest.raises(FileExistsError):
        create_branch(main, "scratch")


def test_publish_refuses_after_parent_advance(tmp_path):
    """Fast-forward-only: once main advanced past the fork point the
    audited state is no longer main's successor — refuse."""
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=3, n_urls=20, n_events=150, n_segments=2)
    run_ingest(_cfg(tmp, main))
    create_branch(main, "stale")
    generate_wal(wal, seed=4, n_urls=20, n_events=100, n_segments=2,
                 start_segment=2)
    run_ingest(_cfg(tmp, main))  # MAIN advances
    with pytest.raises(RuntimeError, match="main advanced"):
        publish_branch(main, "stale")
    delete_branch(main, "stale")


def test_parent_vacuum_pins_branch_references(tmp_path):
    """The GC law: files a live branch inherited survive parent
    compaction+vacuum; deleting the branch releases the pin."""
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=31, n_urls=30, n_events=250, n_segments=2,
                 delete_fraction=0.2)
    run_ingest(_cfg(tmp, main))
    fork_files = sorted(load_manifest(main).all_data_relpaths())
    create_branch(main, "pin")
    bdir = branch_dir(main, "pin")
    pre_fork = _state(bdir)

    # main moves on: new data + compaction supersede the fork's files,
    # then vacuum prunes history to ONLY the head snapshot
    generate_wal(wal, seed=32, n_urls=30, n_events=200, n_segments=2,
                 start_segment=2, delete_fraction=0.2)
    run_ingest(_cfg(tmp, main))
    compact_lake(main)
    vacuum(main, keep=1)
    live_now = load_manifest(main).all_data_relpaths()
    superseded = [r for r in fork_files if r not in live_now]
    assert superseded, "fixture must supersede fork-era files"
    for rel in superseded:  # pinned by the branch
        assert os.path.exists(os.path.join(main, rel)), rel
    assert _state(bdir) == pre_fork  # branch still fully readable

    delete_branch(main, "pin")
    vacuum(main, keep=1)
    assert not any(
        os.path.exists(os.path.join(main, rel)) for rel in superseded
    ), "pin released: superseded files reclaimed"


def test_audit_gate_blocks_then_admits(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=5, n_urls=20, n_events=150, n_segments=2)
    run_ingest(_cfg(tmp, main))
    create_branch(main, "gated")
    bdir = branch_dir(main, "gated")
    generate_wal(wal, seed=6, n_urls=20, n_events=100, n_segments=2,
                 start_segment=2)
    run_ingest(_cfg(tmp, bdir))

    audit = audit_branch(bdir, [["seq", "<", 0]])  # every row violates
    assert audit["violations"] == lake_snapshot(bdir).num_rows
    with pytest.raises(RuntimeError, match="audit gate failed"):
        publish_branch(main, "gated", audit_constraints=[["seq", "<", 0]])
    assert list_branches(main) == ["gated"]  # refusal keeps the branch

    out = publish_branch(
        main, "gated",
        audit_constraints=[["seq", ">=", 0], ["url", "not_null"]],
    )
    assert out["published"] == "gated"
    assert _state(main) == _expected(wal)


def test_publish_crash_retry_idempotent(tmp_path, monkeypatch):
    """A publish killed mid file-copy retries to the identical state:
    qualified target names are deterministic and content-addressed, so
    the retry skips what landed and finishes the rest."""
    import shutil as _shutil

    import data_hub_ejp_xml_pipeline_ray.pipelines.branching as br

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=41, n_urls=30, n_events=250, n_segments=2,
                 delete_fraction=0.1)
    run_ingest(_cfg(tmp, main))
    fork_v = load_manifest(main).version
    create_branch(main, "crashy")
    bdir = branch_dir(main, "crashy")
    generate_wal(wal, seed=42, n_urls=30, n_events=200, n_segments=2,
                 start_segment=2, delete_fraction=0.1)
    run_ingest(_cfg(tmp, bdir))

    calls = {"n": 0}
    real_copy = _shutil.copyfile

    def crashing_copy(src, dst):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected crash mid-publish")
        return real_copy(src, dst)

    monkeypatch.setattr(br.shutil, "copyfile", crashing_copy)
    with pytest.raises(RuntimeError, match="injected crash"):
        publish_branch(main, "crashy")
    monkeypatch.setattr(br.shutil, "copyfile", real_copy)
    # main is untouched (no manifest commit happened)
    assert load_manifest(main).version == fork_v
    out = publish_branch(main, "crashy")  # retry converges
    assert out["new_version"] == fork_v + 1
    assert _state(main) == _expected(wal)


def test_publish_retry_after_torn_copy_is_byte_equal(tmp_path, monkeypatch):
    """A publish that dies PART-WAY through writing a file must not
    leave a truncated file under the final name: the retry treats an
    existing target as a finished copy, so the next manifest would
    reference the torn bytes."""
    import hashlib
    import shutil as _shutil

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=43, n_urls=30, n_events=250, n_segments=2,
                 delete_fraction=0.1)
    run_ingest(_cfg(tmp, main))
    create_branch(main, "torn")
    bdir = branch_dir(main, "torn")
    generate_wal(wal, seed=44, n_urls=30, n_events=200, n_segments=2,
                 start_segment=2, delete_fraction=0.1)
    run_ingest(_cfg(tmp, bdir))

    def digests(lake_dir):
        out = []
        for rel in load_manifest(lake_dir).all_data_relpaths():
            with open(os.path.join(lake_dir, rel), "rb") as f:
                out.append(hashlib.sha1(f.read()).hexdigest())
        return sorted(out)

    want_files, want_rows = digests(bdir), lake_snapshot(bdir)
    real_copy = _shutil.copyfile

    def torn_copy(src, dst):
        with open(src, "rb") as f:
            data = f.read()
        with open(dst, "wb") as f:
            f.write(data[: len(data) // 2])
        raise RuntimeError("injected crash mid-copy")

    monkeypatch.setattr(_shutil, "copyfile", torn_copy)
    with pytest.raises(RuntimeError, match="injected crash"):
        publish_branch(main, "torn")
    monkeypatch.setattr(_shutil, "copyfile", real_copy)
    publish_branch(main, "torn")  # retry
    assert digests(main) == want_files
    assert lake_snapshot(main).equals(want_rows)
    assert _state(main) == _expected(wal)


def test_branch_compaction_publishes_collision_free(tmp_path):
    """A branch that compacts writes files named ``compact-<branch
    version>`` — names main's own history may already use with
    DIFFERENT content. Publish must qualify them, never clobber."""
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    # two main ingests so main's own compact-2-era names exist on disk
    generate_wal(wal, seed=51, n_urls=30, n_events=200, n_segments=2,
                 delete_fraction=0.25)
    run_ingest(_cfg(tmp, main))
    compact_lake(main)  # main writes part-*-compact-2.parquet
    create_branch(main, "folded")
    bdir = branch_dir(main, "folded")
    generate_wal(wal, seed=52, n_urls=30, n_events=200, n_segments=2,
                 start_segment=2, delete_fraction=0.25)
    run_ingest(_cfg(tmp, bdir))
    compact_lake(bdir)  # branch ALSO writes compact-<v> names
    expected = _state(bdir)
    out = publish_branch(main, "folded")
    assert out["files_copied"] > 0
    assert _state(main) == expected
    m = load_manifest(main)
    # every published branch-local file is publish-qualified
    pub = [r for r in m.all_data_relpaths() if "-pub-folded-" in r]
    assert pub, "published branch-local files must carry the qualifier"
    assert set(m.zones) == set(m.all_data_relpaths())
    # and the lake keeps working: compact + further ingest on main
    compact_lake(main)
    generate_wal(wal, seed=53, n_urls=30, n_events=100, n_segments=1,
                 start_segment=4)
    run_ingest(_cfg(tmp, main))
    assert _state(main) == _expected(wal)


def test_branch_guards(tmp_path):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=9, n_urls=10, n_events=50, n_segments=1)
    run_ingest(_cfg(tmp, main))
    create_branch(main, "a")
    with pytest.raises(ValueError, match="branch-of-a-branch"):
        create_branch(branch_dir(main, "a"), "b")
    with pytest.raises(ValueError, match="invalid branch name"):
        create_branch(main, "../evil")
    with pytest.raises(FileNotFoundError):
        publish_branch(main, "nope")
    with pytest.raises(FileNotFoundError):
        delete_branch(main, "nope")


def test_merge_branch_lww_three_way(tmp_path):
    """The merge law: when BOTH main and a branch advanced, merge_branch
    produces exactly the state of replaying both WAL streams into one
    lake (LWW commutativity) — publish refuses, merge converges."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.branching import (
        merge_branch,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=71, n_urls=40, n_events=400, n_segments=6,
                 delete_fraction=0.15)
    first4 = "segment-0000[0-3].parquet"
    cfg4 = CdcConfig(wal_dir=wal, lake_dir=main, num_partitions=8,
                     segment_glob=first4)
    run_ingest(cfg4)
    fork_v = load_manifest(main).version
    create_branch(main, "side")
    bdir = branch_dir(main, "side")
    # branch consumes ALL remaining segments (4,5); main advances by
    # segment 4 only — true divergence, overlapping on segment 4
    run_ingest(_cfg(tmp, bdir))
    run_ingest(CdcConfig(wal_dir=wal, lake_dir=main, num_partitions=8,
                         segment_glob="segment-0000[0-4].parquet"))
    assert load_manifest(main).version > fork_v
    with pytest.raises(RuntimeError, match="main advanced"):
        publish_branch(main, "side")

    out = merge_branch(main, "side")
    assert out["merged_partitions"] > 0
    assert out["watermark"] == "segment-00005.parquet"
    assert _state(main) == _expected(wal)  # both streams, one lake
    m = load_manifest(main)
    assert m.lineage[-1]["op"] == "merge"
    assert set(m.zones) == set(m.all_data_relpaths())
    assert list_branches(main) == []
    # tailing resumes past BOTH sides' consumption
    rep = run_ingest(_cfg(tmp, main))
    assert rep.segments_processed == []
    generate_wal(wal, seed=72, n_urls=40, n_events=100, n_segments=1,
                 start_segment=6, delete_fraction=0.1)
    run_ingest(_cfg(tmp, main))
    assert _state(main) == _expected(wal)


def test_merge_branch_refuses_split_divergence(tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.branching import (
        merge_branch,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        split_partition,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=81, n_urls=30, n_events=200, n_segments=2)
    run_ingest(_cfg(tmp, main))
    create_branch(main, "split")
    bdir = branch_dir(main, "split")
    part = sorted(load_manifest(bdir).partitions)[0]
    split_partition(bdir, part)
    with pytest.raises(RuntimeError, match="split maps diverged"):
        merge_branch(main, "split")
    delete_branch(main, "split")


def test_merge_branch_clears_folded_delta_stats(tmp_path):
    """A merge rewrites each branch-touched partition from main's
    effective base + pending MOR deltas, so those deltas are folded:
    no ``delta_*`` stat may outlive its delta list, or stats-driven
    maintenance plans from phantom bytes (split_overflowing used to
    split every merged partition at a threshold none of them was
    over)."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.branching import (
        merge_branch,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
        split_overflowing,
    )

    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    main = os.path.join(tmp, "lake")
    generate_wal(wal, seed=91, n_urls=40, n_events=400, n_segments=3,
                 delete_fraction=0.1)

    def cfg(lake, glob, **kw):
        return CdcConfig(wal_dir=wal, lake_dir=lake, num_partitions=4,
                         segment_glob=glob, **kw)

    run_ingest(cfg(main, "segment-00000.parquet"))
    create_branch(main, "side")
    bdir = branch_dir(main, "side")
    run_ingest(cfg(bdir, "segment-0000[0-1].parquet"))
    # main advances merge-on-read: pending deltas on the same partitions
    run_ingest(cfg(main, "segment-0000[0-2].parquet", merge_mode="mor"))
    pre = load_manifest(main)
    assert pre.delta_files
    assert all(
        pre.partition_meta[p].get("delta_bytes", 0) > 0
        for p in pre.delta_files
    )

    out = merge_branch(main, "side")
    m = load_manifest(main)
    assert out["merged_partitions"] == len(m.partitions) == 4
    assert not m.delta_files  # every partition was merged into a base
    for part, meta in m.partition_meta.items():
        if part not in m.delta_files:
            assert not [k for k in meta if k.startswith("delta_")], (
                part, meta,
            )
    largest = max(meta["bytes"] for meta in m.partition_meta.values())
    assert split_overflowing(main, largest + 1)["splits"] == 0
    assert load_manifest(main).splits == []
