"""Version history, time travel and the change-data-feed
(``changes_between``): diff semantics vs an independent pure-Python
winner fold, retention pruning, split/compaction interaction.

The reference has no change feed — its consumers re-read whole BQ
tables (``bq_data_service.py``); this is the Delta-CDF/Iceberg-
changelog-scan surface a CDC lake owes its downstreams.
"""
import os

import pyarrow.parquet as pq
import pytest

from data_hub_ejp_xml_pipeline_ray.functions.text import extract_text_reference
from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    changes_between,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    compact_lake,
    split_partition,
    vacuum,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal
from data_hub_ejp_xml_pipeline_ray.sources.wal import list_segments
from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
    list_versions,
    load_manifest,
    resolve_version_at,
    version_committed_at,
)

COLS = ["url", "change_op", "warc_ts", "seq", "text", "lang"]


def _winners(wal_dir, upto=None):
    """Winning event per url over the first ``upto`` segments,
    INCLUDING delete winners (unlike ``naive_replay``, which drops
    them — the feed needs the tombstone's identity)."""
    segs = list_segments(wal_dir)
    if upto is not None:
        segs = segs[:upto]
    best = {}
    for s in segs:
        for row in pq.read_table(s.path).to_pylist():
            key = (row["warc_ts"], row["seq"])
            cur = best.get(row["url"])
            if cur is None or key > (cur["warc_ts"], cur["seq"]):
                best[row["url"]] = row
    return best


def _expected_diff(old, new):
    out = {}
    for url, w in new.items():
        o = old.get(url)
        old_live = o is not None and o["op"] != "delete"
        new_live = w["op"] != "delete"
        if new_live and not old_live:
            op = "insert"
        elif new_live and (w["warc_ts"], w["seq"]) != (o["warc_ts"], o["seq"]):
            op = "update"
        elif not new_live and old_live:
            op = "delete"
        else:
            continue
        out[url] = {
            "change_op": op,
            "warc_ts": w["warc_ts"],
            "seq": w["seq"],
            "text": (
                extract_text_reference(w["html"])
                if w["html"] is not None else None
            ),
            "lang": w["lang"],
        }
    return out


def _feed_dict(lake_dir, v_from, v_to=None):
    table = changes_between(lake_dir, v_from, v_to).take_all()
    out = {}
    for r in table:
        assert r["url"] not in out, f"duplicate feed row for {r['url']}"
        out[r["url"]] = {c: r[c] for c in COLS if c != "url"}
    return out


def _cfg(tmp, **kw):
    defaults = dict(
        wal_dir=os.path.join(tmp, "wal"),
        lake_dir=os.path.join(tmp, "lake"),
        num_partitions=8,
    )
    defaults.update(kw)
    return CdcConfig(**defaults)


@pytest.fixture()
def wal8(tmp_path):
    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"),
        seed=23,
        n_urls=40,
        n_events=480,
        n_segments=8,
        delete_fraction=0.15,
        tie_fraction=0.1,
    )
    return tmp


def test_feed_matches_naive_diff(wal8):
    cfg = _cfg(wal8, max_segments_per_batch=4)  # exactly two commits
    report = run_ingest(cfg)
    assert report.commits == 2
    expected = _expected_diff(
        _winners(cfg.wal_dir, 4), _winners(cfg.wal_dir)
    )
    got = _feed_dict(cfg.lake_dir, 1, 2)
    ops = {v["change_op"] for v in expected.values()}
    assert ops == {"insert", "update", "delete"}  # fixture covers all three
    assert got == expected
    # v_to=None means the current version
    assert _feed_dict(cfg.lake_dir, 1) == expected


def test_initial_feed_is_all_inserts(wal8):
    cfg = _cfg(wal8, max_segments_per_batch=4)
    run_ingest(cfg)
    expected = _expected_diff({}, _winners(cfg.wal_dir, 4))
    assert all(v["change_op"] == "insert" for v in expected.values())
    assert _feed_dict(cfg.lake_dir, 0, 1) == expected


def test_unchanged_versions_empty_feed(wal8):
    cfg = _cfg(wal8, max_segments_per_batch=4)
    run_ingest(cfg)
    assert changes_between(cfg.lake_dir, 2, 2).count() == 0
    # a reversed range would invert labels and mis-pair split
    # partitions — refused, not silently wrong
    with pytest.raises(ValueError):
        changes_between(cfg.lake_dir, 2, 1)


def test_time_travel_and_retention(wal8):
    cfg = _cfg(wal8, max_segments_per_batch=2, retain_versions=2)
    report = run_ingest(cfg)
    assert report.commits == 4
    assert list_versions(cfg.lake_dir) == [3, 4]
    with pytest.raises(FileNotFoundError):
        load_manifest(cfg.lake_dir, version=1)
    with pytest.raises(FileNotFoundError):
        lake_snapshot(cfg.lake_dir, version=2)
    # retained snapshot == state after that commit (6 of 8 segments)
    snap3 = lake_snapshot(cfg.lake_dir, version=3)
    live3 = {
        u: (w["warc_ts"], w["seq"])
        for u, w in _winners(cfg.wal_dir, 6).items() if w["op"] != "delete"
    }
    got3 = {r["url"]: (r["warc_ts"], r["seq"]) for r in snap3.to_pylist()}
    assert got3 == live3
    # newest snapshot == the live manifest's state
    assert lake_snapshot(cfg.lake_dir, version=4).equals(
        lake_snapshot(cfg.lake_dir)
    )
    # pruned v1 can't feed a diff either
    with pytest.raises(FileNotFoundError):
        changes_between(cfg.lake_dir, 1, 4)


def test_gc_fails_closed_on_corrupt_snapshot(wal8):
    """An unreadable retained snapshot must ABORT the sweep (fail
    closed) — skipping it would delete that version's data files while
    it still lists as time-travelable."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import vacuum
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import snapshot_path

    cfg = _cfg(wal8, max_segments_per_batch=4, retain_versions=None)
    run_ingest(cfg)  # v1, v2
    with open(snapshot_path(cfg.lake_dir, 1), "w", encoding="utf-8") as f:
        f.write("{corrupt")
    with pytest.raises(RuntimeError, match="refusing to GC"):
        vacuum(cfg.lake_dir, keep=2)
    # current lake and the intact snapshot still read fine
    assert lake_snapshot(cfg.lake_dir).num_rows > 0
    assert lake_snapshot(cfg.lake_dir, version=2).num_rows > 0


def test_timestamp_time_travel(wal8):
    """resolve_version_at maps a wall-clock instant to the version that
    was current then (Delta TIMESTAMP AS OF)."""
    cfg = _cfg(wal8, max_segments_per_batch=2, retain_versions=None)
    run_ingest(cfg)  # v1..v4
    stamps = {
        v: version_committed_at(load_manifest(cfg.lake_dir, version=v))
        for v in list_versions(cfg.lake_dir)
    }
    assert all(stamps.values()) and sorted(stamps.values()) == [
        stamps[v] for v in sorted(stamps)
    ]
    # exactly at a commit instant -> that version; just before -> prior
    assert resolve_version_at(cfg.lake_dir, stamps[2]) == 2
    assert resolve_version_at(cfg.lake_dir, "9999-12-31T00:00:00") == 4
    with pytest.raises(FileNotFoundError):
        resolve_version_at(cfg.lake_dir, "1970-01-01T00:00:00")
    v = resolve_version_at(cfg.lake_dir, stamps[3])
    assert lake_snapshot(cfg.lake_dir, version=v).equals(
        lake_snapshot(cfg.lake_dir, version=3)
    )


def test_retain_all_history(wal8):
    cfg = _cfg(wal8, max_segments_per_batch=2, retain_versions=None)
    run_ingest(cfg)
    assert list_versions(cfg.lake_dir) == [1, 2, 3, 4]
    expected = _expected_diff(
        _winners(cfg.wal_dir, 2), _winners(cfg.wal_dir, 6)
    )
    assert _feed_dict(cfg.lake_dir, 1, 3) == expected


def test_feed_across_partition_split(wal8):
    cfg = _cfg(wal8, max_segments_per_batch=4, retain_versions=None)
    # only the first half exists yet: ingest -> v1
    segs = list_segments(os.path.join(wal8, "wal"))
    hold = os.path.join(wal8, "hold")
    os.makedirs(hold)
    for s in segs[4:]:
        os.rename(s.path, os.path.join(hold, os.path.basename(s.path)))
    run_ingest(cfg)
    manifest = load_manifest(cfg.lake_dir)
    part = sorted(manifest.partitions)[0]
    split_partition(cfg.lake_dir, part)  # -> v2 (state-preserving)
    for s in segs[4:]:
        os.rename(os.path.join(hold, os.path.basename(s.path)), s.path)
    run_ingest(cfg)  # -> v3
    assert list_versions(cfg.lake_dir) == [1, 2, 3]
    assert changes_between(cfg.lake_dir, 1, 2).count() == 0
    expected = _expected_diff(
        _winners(cfg.wal_dir, 4), _winners(cfg.wal_dir)
    )
    # the diff must resolve v3 child partitions to their v1 ancestor
    assert _feed_dict(cfg.lake_dir, 1, 3) == expected
    assert _feed_dict(cfg.lake_dir, 2, 3) == expected


def test_feed_column_pruning(wal8):
    """columns=... drops unrequested payload from the feed (and the
    read) while keeping the change identity; values must match the
    full feed's projection."""
    cfg = _cfg(wal8, max_segments_per_batch=4)
    run_ingest(cfg)
    pruned = changes_between(cfg.lake_dir, 1, 2, columns=["lang"]).take_all()
    assert set(pruned[0].keys()) == {
        "url", "change_op", "warc_ts", "seq", "lang",
    }
    full = _feed_dict(cfg.lake_dir, 1, 2)
    got = {
        r["url"]: (r["change_op"], r["warc_ts"], r["seq"], r["lang"])
        for r in pruned
    }
    exp = {
        u: (v["change_op"], v["warc_ts"], v["seq"], v["lang"])
        for u, v in full.items()
    }
    assert got == exp


def test_preimage_feed_retractions(wal8):
    """preimages=True switches to Delta-CDF retraction semantics:
    updates emit pre+post rows, deletes carry the OLD live row."""
    cfg = _cfg(wal8, max_segments_per_batch=4)
    run_ingest(cfg)
    old_w, new_w = _winners(cfg.wal_dir, 4), _winners(cfg.wal_dir)
    rows = changes_between(cfg.lake_dir, 1, 2, preimages=True).take_all()
    by_op = {}
    for r in rows:
        d = by_op.setdefault(r["change_op"], {})
        assert r["url"] not in d
        d[r["url"]] = (r["warc_ts"], r["seq"])
    base = _expected_diff(old_w, new_w)
    exp_ins = {
        u: (v["warc_ts"], v["seq"]) for u, v in base.items()
        if v["change_op"] == "insert"
    }
    exp_post = {
        u: (v["warc_ts"], v["seq"]) for u, v in base.items()
        if v["change_op"] == "update"
    }
    exp_pre = {u: (old_w[u]["warc_ts"], old_w[u]["seq"]) for u in exp_post}
    exp_del = {
        u: (old_w[u]["warc_ts"], old_w[u]["seq"]) for u, v in base.items()
        if v["change_op"] == "delete"
    }
    assert by_op.get("insert", {}) == exp_ins
    assert by_op.get("update_postimage", {}) == exp_post
    assert by_op.get("update_preimage", {}) == exp_pre
    assert by_op.get("delete", {}) == exp_del


def test_vacuum_prunes_history(wal8):
    cfg = _cfg(wal8, max_segments_per_batch=2, retain_versions=None)
    run_ingest(cfg)  # 4 commits, all retained
    assert list_versions(cfg.lake_dir) == [1, 2, 3, 4]
    res = vacuum(cfg.lake_dir, keep=2)
    assert res["retained_versions"] == [3, 4]
    with pytest.raises(FileNotFoundError):
        lake_snapshot(cfg.lake_dir, version=2)
    # retained time travel still works; the current lake is untouched
    assert lake_snapshot(cfg.lake_dir, version=4).equals(
        lake_snapshot(cfg.lake_dir)
    )
    # vacuum commits no version and leaves the standing policy alone
    m = load_manifest(cfg.lake_dir)
    assert m.version == 4 and m.retain_versions is None


def test_feed_after_compaction_reports_gone_deletes(wal8):
    cfg = _cfg(wal8, max_segments_per_batch=4, retain_versions=None)
    run_ingest(cfg)  # v1 (first half), v2 (all)
    stats = compact_lake(cfg.lake_dir)  # v3: tombstone rows dropped
    assert stats["tombstones_dropped"] > 0
    expected = _expected_diff(
        _winners(cfg.wal_dir, 4), _winners(cfg.wal_dir)
    )
    # deletes lose their identity with the tombstone: NULLed out
    for v in expected.values():
        if v["change_op"] == "delete":
            v.update(warc_ts=None, seq=None, text=None, lang=None)
    assert _feed_dict(cfg.lake_dir, 1, 3) == expected
    # tombstone -> absent emits nothing
    assert changes_between(cfg.lake_dir, 2, 3).count() == 0
    # preimage mode recovers REAL identities for the same gone rows
    # (the old live winner), where postimage mode could only say NULL
    old_w = _winners(cfg.wal_dir, 4)
    exp_del = {
        u: (old_w[u]["warc_ts"], old_w[u]["seq"])
        for u, v in expected.items() if v["change_op"] == "delete"
    }
    rows = changes_between(cfg.lake_dir, 1, 3, preimages=True).take_all()
    got_del = {
        r["url"]: (r["warc_ts"], r["seq"]) for r in rows
        if r["change_op"] == "delete"
    }
    assert got_del == exp_del


# ---------------------------------------------------------------------------
# SCD2 history (type-2 dimension view of the version chain)
# ---------------------------------------------------------------------------

def _scd2_table(lake_dir, **kw):
    import pyarrow as pa

    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import scd2_history

    rows = scd2_history(lake_dir, **kw).take_all()
    return pa.Table.from_pylist(rows) if rows else None


def _reconstruct(hist, v, cols):
    import pyarrow.compute as pc

    open_at = pc.fill_null(pc.greater(hist.column("valid_to"), v), True)
    mask = pc.and_(pc.less_equal(hist.column("valid_from"), v), open_at)
    return hist.filter(mask).select(cols).sort_by(
        [("url", "ascending")]
    )


def test_scd2_reconstructs_every_retained_version(wal8):
    """THE SCD2 law: slicing the interval table at version v rebuilds
    lake_snapshot(version=v) bit-exactly — full payload, every retained
    v — on a WAL with updates, deletes and LWW ties."""
    cfg = _cfg(wal8, max_segments_per_batch=2, retain_versions=None)
    run_ingest(cfg)  # 4 commits
    hist = _scd2_table(cfg.lake_dir)
    cols = ["url", "warc_ts", "seq", "text", "lang"]
    for v in list_versions(cfg.lake_dir):
        rec = _reconstruct(hist, v, cols)
        snap = lake_snapshot(cfg.lake_dir, version=v).select(cols).sort_by(
            [("url", "ascending")]
        )
        assert rec.equals(snap), f"SCD2 slice at v{v} diverged"
    # current rows (valid_to NULL) == live lake, exactly once per url
    import pyarrow.compute as pc

    current = hist.filter(pc.is_null(hist.column("valid_to")))
    assert current.num_rows == lake_snapshot(cfg.lake_dir).num_rows
    urls = current.column("url").to_pylist()
    assert len(set(urls)) == current.num_rows, "duplicate open interval"


def test_scd2_intervals_well_formed(wal8):
    """Per url: intervals ordered, non-overlapping, at most one open;
    a deleted-then-reinserted url leaves a GAP (closed interval, then a
    later valid_from) rather than a merged one."""
    cfg = _cfg(wal8, max_segments_per_batch=2, retain_versions=None)
    run_ingest(cfg)
    hist = _scd2_table(cfg.lake_dir)
    by_url = {}
    for r in hist.to_pylist():
        by_url.setdefault(r["url"], []).append(
            (r["valid_from"], r["valid_to"])
        )
    saw_gap = False
    for url, ivs in by_url.items():
        ivs.sort()
        opens = [iv for iv in ivs if iv[1] is None]
        assert len(opens) <= 1, f"{url}: two open intervals"
        for (f1, t1), (f2, _) in zip(ivs, ivs[1:]):
            assert t1 is not None and t1 <= f2, f"{url}: overlap"
            saw_gap = saw_gap or t1 < f2
    assert saw_gap, "fixture should produce at least one delete gap"


def test_scd2_to_version_prefix(wal8):
    """to_version truncates history to a PREFIX of the chain: identical
    intervals except closures/openings after the cutoff."""
    cfg = _cfg(wal8, max_segments_per_batch=2, retain_versions=None)
    run_ingest(cfg)
    cols = ["url", "warc_ts", "seq", "text", "lang"]
    hist2 = _scd2_table(cfg.lake_dir, to_version=2)
    rec = _reconstruct(hist2, 2, cols)
    snap = lake_snapshot(cfg.lake_dir, version=2).select(cols).sort_by(
        [("url", "ascending")]
    )
    assert rec.equals(snap)


# ---------------------------------------------------------------------------
# consumer-group cursors (next_changes / ack_changes)
# ---------------------------------------------------------------------------

def test_consumer_cursor_delivery_and_ack(wal8):
    """At-least-once delivery, exactly-once cursor advance: unacked
    batches redeliver identically; after ack the consumer sees only the
    NEXT delta; a caught-up consumer gets None."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        ack_changes,
        next_changes,
    )

    cfg = _cfg(wal8, max_segments_per_batch=4, retain_versions=None)
    run_ingest(cfg)  # v1, v2
    ds, token = next_changes(cfg.lake_dir, "warehouse")
    assert token == {"consumer": "warehouse", "from_version": 0,
                     "to_version": 2}
    first = sorted(r["url"] for r in ds.take_all())
    # crash-before-ack: the SAME batch redelivers
    ds2, token2 = next_changes(cfg.lake_dir, "warehouse")
    assert token2 == token
    assert sorted(r["url"] for r in ds2.take_all()) == first
    assert ack_changes(cfg.lake_dir, token) is True
    # caught up now
    ds3, token3 = next_changes(cfg.lake_dir, "warehouse")
    assert ds3 is None and token3["from_version"] == 2
    # replayed/stale ack is REJECTED, cursor unmoved
    assert ack_changes(cfg.lake_dir, token) is False
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import list_cursors

    assert list_cursors(cfg.lake_dir) == {"warehouse": 2}


def test_consumer_groups_are_independent(wal8):
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        ack_changes,
        next_changes,
    )

    cfg = _cfg(wal8, max_segments_per_batch=4, retain_versions=None)
    run_ingest(cfg)
    ds_a, tok_a = next_changes(cfg.lake_dir, "a")
    assert ack_changes(cfg.lake_dir, tok_a)
    ds_b, tok_b = next_changes(cfg.lake_dir, "b")
    assert tok_b["from_version"] == 0 and ds_b is not None
    assert ds_b.count() == ds_a.count()


def test_consumer_cursor_pins_retention(wal8):
    """A slow consumer's last-acked snapshot survives retention AND an
    explicit vacuum; deleting the cursor releases the pin."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
        ack_changes,
        next_changes,
    )
    from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import vacuum
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import (
        delete_cursor,
        list_cursors,
    )

    import shutil

    cfg = _cfg(wal8, max_segments_per_batch=2, retain_versions=2)
    # stage only the first 2 segments -> commit v1, ack the consumer
    first_wal = os.path.join(wal8, "wal_first")
    os.makedirs(first_wal)
    for s in list_segments(cfg.wal_dir)[:2]:
        shutil.copy(s.path, first_wal)
    run_ingest(_cfg(wal8, wal_dir=first_wal, max_segments_per_batch=2,
                    retain_versions=2))
    _, tok = next_changes(cfg.lake_dir, "slow")
    assert tok["to_version"] == 1 and ack_changes(cfg.lake_dir, tok)
    run_ingest(cfg)  # v2..v4: retention keeps last 2 + the pinned v1
    assert 1 in list_versions(cfg.lake_dir)
    vacuum(cfg.lake_dir, keep=1)
    assert 1 in list_versions(cfg.lake_dir), "vacuum must honor the pin"
    # the slow consumer can still diff FROM v1 (its snapshot survived)
    ds, tok2 = next_changes(cfg.lake_dir, "slow")
    assert tok2["from_version"] == 1 and ds is not None
    assert ds.count() > 0
    # releasing the cursor releases the pin on the next vacuum
    assert delete_cursor(cfg.lake_dir, "slow")
    vacuum(cfg.lake_dir, keep=1)
    assert 1 not in list_versions(cfg.lake_dir)
    assert list_cursors(cfg.lake_dir) == {}
