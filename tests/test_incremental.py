"""Incrementally-maintained materialized view (`pipelines/incremental`):
signed-feed refresh must land on exactly the counts a from-scratch
rebuild computes, across multi-version gaps, deletes and compaction."""
import collections
import os

import pytest

from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import (
    CdcConfig,
    lake_snapshot,
    run_ingest,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
    read_view,
    refresh_live_counts,
    refresh_live_stats,
)
from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import (
    compact_lake,
    vacuum,
)
from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal


def _view_dict(view_dir):
    return {r["lang"]: r["n"] for r in read_view(view_dir).to_pylist()}


def _recount(lake_dir):
    return dict(collections.Counter(
        r["lang"] for r in lake_snapshot(lake_dir).to_pylist()
    ))


@pytest.fixture()
def lake(tmp_path):
    tmp = str(tmp_path)
    generate_wal(
        os.path.join(tmp, "wal"), seed=31, n_urls=60, n_events=600,
        n_segments=6, delete_fraction=0.12, tie_fraction=0.1,
    )
    cfg = CdcConfig(
        wal_dir=os.path.join(tmp, "wal"),
        lake_dir=os.path.join(tmp, "lake"),
        num_partitions=8,
        max_segments_per_batch=2,  # -> v1, v2, v3
        retain_versions=None,
    )
    run_ingest(cfg)
    return cfg


def test_incremental_refresh_matches_full_rebuild(lake, tmp_path):
    view = str(tmp_path / "view")
    r1 = refresh_live_counts(lake.lake_dir, view, at_version=1)
    assert r1["mode"] == "full" and r1["lake_version"] == 1
    # one refresh spanning a multi-version gap (v1 -> v3)
    r2 = refresh_live_counts(lake.lake_dir, view)
    assert r2["mode"] == "incremental" and r2["lake_version"] == 3
    assert _view_dict(view) == _recount(lake.lake_dir)
    fresh = str(tmp_path / "view_full")
    refresh_live_counts(lake.lake_dir, fresh)
    assert _view_dict(view) == _view_dict(fresh)


def test_refresh_is_idempotent_and_monotonic(lake, tmp_path):
    view = str(tmp_path / "view")
    refresh_live_counts(lake.lake_dir, view)
    r = refresh_live_counts(lake.lake_dir, view)
    assert r == {"refreshed": False, "mode": "noop", "lake_version": 3}
    with pytest.raises(ValueError):
        refresh_live_counts(lake.lake_dir, view, at_version=1)


def test_stepwise_equals_oneshot(lake, tmp_path):
    """v1->v2->v3 one version at a time == v1->v3 in one refresh."""
    step = str(tmp_path / "step")
    refresh_live_counts(lake.lake_dir, step, at_version=1)
    refresh_live_counts(lake.lake_dir, step, at_version=2)
    refresh_live_counts(lake.lake_dir, step, at_version=3)
    shot = str(tmp_path / "shot")
    refresh_live_counts(lake.lake_dir, shot, at_version=1)
    refresh_live_counts(lake.lake_dir, shot, at_version=3)
    assert _view_dict(step) == _view_dict(shot) == _recount(lake.lake_dir)


def test_stats_view_sums_match_recount(lake, tmp_path):
    """count + sum(len(text)) per lang via ±len retraction arithmetic
    must equal a from-scratch recount of the live lake."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def add_len(t):
        chars = pc.fill_null(
            pc.utf8_length(t.column("text")), 0
        ).cast(pa.int64())
        return t.append_column("chars", chars)

    view = str(tmp_path / "sview")
    kw = dict(derive=add_len, source_cols=["text"])
    refresh_live_stats(lake.lake_dir, view, "lang", ["chars"],
                       at_version=1, **kw)
    r = refresh_live_stats(lake.lake_dir, view, "lang", ["chars"], **kw)
    assert r["mode"] == "incremental"
    got = {
        row["lang"]: (row["n"], row["chars"])
        for row in read_view(view).to_pylist()
    }
    exp = {}
    for row in lake_snapshot(lake.lake_dir).to_pylist():
        n, c = exp.get(row["lang"], (0, 0))
        exp[row["lang"]] = (n + 1, c + len(row["text"]))
    assert got == exp
    # a refresh asking for a different metric set is refused loudly
    with pytest.raises(ValueError):
        refresh_live_stats(lake.lake_dir, view, "lang", [])


def test_raw_column_sums_without_derive(lake, tmp_path):
    """sum_cols naming raw lake columns must survive projection
    pruning (regression: the pruned scan dropped them and the kernel
    crashed on the missing column)."""
    view = str(tmp_path / "rawsum")
    refresh_live_stats(lake.lake_dir, view, "lang", ["seq"], at_version=1)
    r = refresh_live_stats(lake.lake_dir, view, "lang", ["seq"])
    assert r["mode"] == "incremental"
    got = {
        row["lang"]: (row["n"], row["seq"])
        for row in read_view(view).to_pylist()
    }
    exp = {}
    for row in lake_snapshot(lake.lake_dir).to_pylist():
        n, s = exp.get(row["lang"], (0, 0))
        exp[row["lang"]] = (n + 1, s + row["seq"])
    assert got == exp


def test_composite_key_view(lake, tmp_path):
    """Multi-column keys: counts per (lang, _src_segment) maintained
    incrementally match a from-scratch recount; a re-keyed refresh is
    refused."""
    view = str(tmp_path / "ckview")
    keys = ["lang", "_src_segment"]
    refresh_live_stats(lake.lake_dir, view, keys, at_version=1)
    r = refresh_live_stats(lake.lake_dir, view, keys)
    assert r["mode"] == "incremental"
    got = {
        (row["lang"], row["_src_segment"]): row["n"]
        for row in read_view(view).to_pylist()
    }
    exp = {}
    for row in lake_snapshot(lake.lake_dir).to_pylist():
        k = (row["lang"], row["_src_segment"])
        exp[k] = exp.get(k, 0) + 1
    assert got == exp
    with pytest.raises(ValueError):
        refresh_live_stats(lake.lake_dir, view, "lang")


def test_view_rebuilds_after_vacuumed_gap(lake, tmp_path):
    """A view whose base snapshot was vacuumed must FULL-rebuild, not
    crash on the missing delta."""
    view = str(tmp_path / "view")
    refresh_live_counts(lake.lake_dir, view, at_version=1)
    vacuum(lake.lake_dir, keep=1)  # only v3 retained; v1 delta gone
    r = refresh_live_counts(lake.lake_dir, view)
    assert r == {"refreshed": True, "mode": "full", "lake_version": 3,
                 "keys": r["keys"]}
    assert _view_dict(view) == _recount(lake.lake_dir)


def test_refresh_across_compaction(lake, tmp_path):
    """Compaction (tombstones physically dropped -> 'gone' rows in the
    feed) must not perturb the counts: pre-images keep them exact."""
    view = str(tmp_path / "view")
    refresh_live_counts(lake.lake_dir, view, at_version=1)
    compact_lake(lake.lake_dir)  # -> v4
    r = refresh_live_counts(lake.lake_dir, view)
    assert r["mode"] == "incremental" and r["lake_version"] == 4
    assert _view_dict(view) == _recount(lake.lake_dir)


def test_aggregate_100k_distinct_keys_vectorized(ray_session):
    # the view-state driver bound is O(distinct keys) — at 100k keys the
    # collection must stay vectorized (Arrow refs, no per-row Python)
    # and both the signed and unsigned paths must produce exact results
    import numpy as np
    import pyarrow as pa
    import ray.data

    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import _aggregate

    n_keys, per_key = 100_000, 3
    keys = np.repeat(np.arange(n_keys), per_key)
    vals = np.ones(n_keys * per_key, dtype=np.float64)
    ops = np.tile(
        np.array(["insert", "insert", "delete"]), n_keys
    )  # signed sum per key = +1 +1 -1 = 1
    tbl = pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(vals),
        "change_op": pa.array(ops),
    })
    ds = ray.data.from_arrow(tbl).repartition(8)

    out = _aggregate(ds, ["k"], ["v"], signed=True)
    assert out.num_rows == n_keys
    import pyarrow.compute as pc
    assert pc.min(out.column("n")).as_py() == 1
    assert pc.max(out.column("n")).as_py() == 1
    assert pc.sum(out.column("v")).as_py() == n_keys

    out2 = _aggregate(ds.drop_columns(["change_op"]), ["k"], ["v"], signed=False)
    assert out2.num_rows == n_keys
    assert pc.sum(out2.column("n")).as_py() == n_keys * per_key


def _recount_max(lake_dir):
    # ground truth: max warc_ts per lang over live rows
    out = {}
    for r in lake_snapshot(lake_dir).to_pylist():
        k = r["lang"]
        if k is None:
            continue
        if k not in out or r["warc_ts"] > out[k]:
            out[k] = r["warc_ts"]
    return out


def _extrema_dict(view_dir):
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        read_extrema_view,
    )

    return {
        r["lang"]: r["warc_ts"] for r in read_extrema_view(view_dir).to_pylist()
    }


def test_extrema_view_stepwise_matches_recount(lake, tmp_path):
    """Non-invertible aggregate (MAX): affected-key recompute must land
    on exactly the recount at every version — including versions where
    a delete removed the row HOLDING a maximum (retraction arithmetic
    cannot produce the runner-up; the recompute path must)."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        refresh_live_extrema,
    )
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

    view = str(tmp_path / "xview")
    top = load_manifest(lake.lake_dir).version
    assert top >= 3
    r = refresh_live_extrema(lake.lake_dir, view, at_version=1)
    assert r["mode"] == "full"
    assert _extrema_dict(view) == {
        k: v for k, v in _recount_max_at(lake.lake_dir, 1).items()
    }
    for v in range(2, top + 1):
        r = refresh_live_extrema(lake.lake_dir, view, at_version=v)
        assert r["refreshed"] and r["mode"] == "incremental"
        assert _extrema_dict(view) == _recount_max_at(lake.lake_dir, v)
    # idempotent at head
    assert refresh_live_extrema(lake.lake_dir, view)["mode"] == "noop"
    # one-shot build == stepwise result
    view2 = str(tmp_path / "xview2")
    refresh_live_extrema(lake.lake_dir, view2)
    assert _extrema_dict(view2) == _extrema_dict(view)


def _recount_max_at(lake_dir, version):
    out = {}
    for r in lake_snapshot(lake_dir, version=version).to_pylist():
        k = r["lang"]
        if k is None:
            continue
        if k not in out or r["warc_ts"] > out[k]:
            out[k] = r["warc_ts"]
    return out


def test_extrema_view_key_contract_enforced(lake, tmp_path):
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        refresh_live_extrema,
    )

    view = str(tmp_path / "xview")
    refresh_live_extrema(lake.lake_dir, view, key="lang")
    with pytest.raises(ValueError):
        refresh_live_extrema(lake.lake_dir, view, key="fetch_status")
    with pytest.raises(ValueError):
        refresh_live_extrema(
            lake.lake_dir, view, key="lang", max_cols=("seq",)
        )


def test_extrema_view_recovers_runner_up_after_max_delete(lake, tmp_path):
    """THE non-invertible case: delete the exact row holding a lang's
    max — the feed cannot yield the runner-up; the affected-key
    recompute must."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        refresh_live_extrema,
    )

    view = str(tmp_path / "xview")
    refresh_live_extrema(lake.lake_dir, view)
    before = _extrema_dict(view)

    # find the row holding some lang's maximum and author a WAL segment
    # that deletes that url
    rows = lake_snapshot(lake.lake_dir).to_pylist()
    lang, max_ts = next(iter(sorted(before.items())))
    victim = next(
        r for r in rows if r["lang"] == lang and r["warc_ts"] == max_ts
    )
    runner_up = max(
        (r["warc_ts"] for r in rows
         if r["lang"] == lang and r["url"] != victim["url"]),
        default=None,
    )
    assert runner_up is not None and runner_up < max_ts
    seg = pa.table({
        "op": pa.array(["delete"]),
        "url": pa.array([victim["url"]]),
        "warc_ts": pa.array(
            [victim["warc_ts"]], pa.timestamp("us", tz="UTC")
        ),
        "seq": pa.array([victim["seq"] + 1], pa.int64()),
        "html": pa.array([None], pa.binary()),
        "lang": pa.array([victim["lang"]]),
        "schema_version": pa.array([1], pa.int32()),
        "fetch_status": pa.array([200], pa.int32()),
    })
    pq.write_table(seg, os.path.join(lake.wal_dir, "segment-00099.parquet"))
    run_ingest(lake)

    r = refresh_live_extrema(lake.lake_dir, view)
    assert r["mode"] == "incremental" and r["keys_recomputed"] >= 1
    after = _extrema_dict(view)
    assert after[lang] == runner_up          # runner-up recovered
    assert after == _recount_max(lake.lake_dir)  # and everything matches


def test_extrema_view_min_and_max_columns(lake, tmp_path):
    """min+max in one view: stepwise refresh matches recount for both
    directions (min is equally non-invertible)."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        read_extrema_view,
        refresh_live_extrema,
    )
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

    view = str(tmp_path / "mmview")
    top = load_manifest(lake.lake_dir).version
    refresh_live_extrema(
        lake.lake_dir, view, key="lang",
        max_cols=("warc_ts", "seq"), min_cols=("warc_ts",), at_version=1,
    )
    for v in range(2, top + 1):
        refresh_live_extrema(
            lake.lake_dir, view, key="lang",
            max_cols=("warc_ts", "seq"), min_cols=("warc_ts",), at_version=v,
        )
    got = {r["lang"]: r for r in read_extrema_view(view).to_pylist()}
    truth = {}
    for r in lake_snapshot(lake.lake_dir).to_pylist():
        k = r["lang"]
        if k is None:
            continue
        t = truth.setdefault(
            k, {"warc_ts": r["warc_ts"], "seq": r["seq"],
                "min_warc_ts": r["warc_ts"]}
        )
        t["warc_ts"] = max(t["warc_ts"], r["warc_ts"])
        t["seq"] = max(t["seq"], r["seq"])
        t["min_warc_ts"] = min(t["min_warc_ts"], r["warc_ts"])
    assert set(got) == set(truth)
    for k, t in truth.items():
        for c in ("warc_ts", "seq", "min_warc_ts"):
            assert got[k][c] == t[c], (k, c)
    # contract: changing min_cols is refused
    import pytest
    with pytest.raises(ValueError):
        refresh_live_extrema(
            lake.lake_dir, view, key="lang", max_cols=("warc_ts", "seq"),
        )


def _recount_distinct_at(lake_dir, version, col="_src_segment"):
    out = {}
    for r in lake_snapshot(lake_dir, version=version).to_pylist():
        k = r["lang"]
        if k is None:
            continue
        out.setdefault(k, set()).add(r[col])
    return {k: len(v) for k, v in out.items()}


def _distinct_dict(view_dir):
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        read_distinct_view,
    )

    t = read_distinct_view(view_dir)
    return {
        r["lang"]: r["n_distinct__src_segment"] for r in t.to_pylist()
    }


def test_distinct_view_stepwise_matches_recount(lake, tmp_path):
    """The second non-invertible aggregate (COUNT DISTINCT): deleting
    one contributor can't tell the feed whether the value survives
    elsewhere — affected-key recompute must land on the recount at
    every version, and stepwise == one-shot."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.incremental import (
        refresh_live_distinct,
    )
    from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

    view = str(tmp_path / "dview")
    top = load_manifest(lake.lake_dir).version
    assert top >= 3
    r = refresh_live_distinct(lake.lake_dir, view, at_version=1)
    assert r["mode"] == "full"
    assert _distinct_dict(view) == _recount_distinct_at(lake.lake_dir, 1)
    for v in range(2, top + 1):
        r = refresh_live_distinct(lake.lake_dir, view, at_version=v)
        assert r["refreshed"] and r["mode"] == "incremental"
        assert _distinct_dict(view) == _recount_distinct_at(lake.lake_dir, v)
    assert refresh_live_distinct(lake.lake_dir, view)["mode"] == "noop"
    view2 = str(tmp_path / "dview2")
    refresh_live_distinct(lake.lake_dir, view2)
    assert _distinct_dict(view2) == _distinct_dict(view)
    # definition contract enforced
    with pytest.raises(ValueError):
        refresh_live_distinct(lake.lake_dir, view, distinct_col="url")


def test_alter_lake_rename_fails_raw_view_loudly_but_not_derive_view(
    lake, tmp_path
):
    """The schema guard must fire for exactly the right column set: a
    view summing a RAW lake column breaks loudly when alter_lake
    renames it away (a silent feed would just miss the column); a view
    whose derive hook PRODUCES its metric is untouched by renames of
    columns it never reads."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from data_hub_ejp_xml_pipeline_ray.pipelines.ddl import alter_lake

    raw_view = str(tmp_path / "raw_view")
    refresh_live_stats(lake.lake_dir, raw_view, "lang", ["fetch_status"])

    def add_len(t):
        chars = pc.fill_null(
            pc.utf8_length(t.column("text")), 0
        ).cast(pa.int64())
        return t.append_column("chars", chars)

    derive_view = str(tmp_path / "derive_view")
    refresh_live_stats(lake.lake_dir, derive_view, "lang", ["chars"],
                       derive=add_len, source_cols=["text"])

    alter_lake(lake.lake_dir, rename={"fetch_status": "status"})

    # raw view: its sum column is gone from the schema -> loud error
    with pytest.raises(ValueError, match="not in the source lake"):
        refresh_live_stats(lake.lake_dir, raw_view, "lang",
                           ["fetch_status"])
    # derive view: reads only text, which still exists -> refreshes
    r = refresh_live_stats(lake.lake_dir, derive_view, "lang", ["chars"],
                           derive=add_len, source_cols=["text"])
    assert r["refreshed"] and r["mode"] == "incremental"
