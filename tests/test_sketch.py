"""HLL sketch: error bound vs exact distinct counts, merge laws."""
import numpy as np
import pyarrow as pa
import pytest
import ray.data

from data_hub_ejp_xml_pipeline_ray.functions.sketch import (
    empty_registers,
    estimate,
    hll_count_distinct,
    merge_registers,
    update_registers,
)


@pytest.mark.parametrize("true_n", [50, 1_000, 20_000])
def test_hll_estimate_within_bound(true_n):
    reg = empty_registers(p=12)
    update_registers(reg, [f"item-{i}" for i in range(true_n)])
    est = estimate(reg)
    # p=12 -> ~1.6% std error; allow 5 sigma
    assert abs(est - true_n) / true_n < 0.08, (est, true_n)


def test_hll_merge_is_union_and_idempotent():
    a = update_registers(empty_registers(), [f"a{i}" for i in range(500)])
    b = update_registers(empty_registers(), [f"b{i}" for i in range(500)])
    ab = merge_registers(a, b)
    # union ~= 1000
    assert abs(estimate(ab) - 1000) / 1000 < 0.08
    # idempotent (safe under task retries) + commutative
    assert np.array_equal(merge_registers(ab, ab), ab)
    assert np.array_equal(merge_registers(a, b), merge_registers(b, a))
    # overlapping sets: union of identical sets stays ~500
    aa = merge_registers(a, update_registers(empty_registers(),
                                             [f"a{i}" for i in range(500)]))
    assert abs(estimate(aa) - 500) / 500 < 0.08


def test_hll_count_distinct_dataset_matches_exact():
    rows = [{"k": f"u{i % 700}", "t": ["x", "y"][i % 2]} for i in range(5000)]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    est = hll_count_distinct(ds, "k")
    assert abs(est - 700) / 700 < 0.08
    grouped = hll_count_distinct(ds, "k", group_col="t")
    # each parity class sees either the even or odd half of u0..u699
    for g, e in grouped.items():
        exact = len({f"u{i % 700}" for i in range(5000)
                     if ["x", "y"][i % 2] == g})
        assert abs(e - exact) / exact < 0.08


def test_cms_error_bound_and_merge_laws():
    import numpy as np

    from data_hub_ejp_xml_pipeline_ray.functions.sketch import (
        cms_empty,
        cms_estimate,
        cms_merge,
        cms_update,
    )

    rng = np.random.default_rng(9)
    keys = [f"k{i}" for i in range(2000)]
    counts = rng.integers(1, 50, len(keys))
    total = int(counts.sum())
    # single-shot vs two merged halves: identical (associativity)
    whole = cms_update(cms_empty(), keys, counts)
    a = cms_update(cms_empty(), keys[:1000], counts[:1000])
    b = cms_update(cms_empty(), keys[1000:], counts[1000:])
    assert np.array_equal(cms_merge(a, b), whole)
    assert np.array_equal(cms_merge(a, b), cms_merge(b, a))
    # never underestimates; overestimates bounded by ~2e/width * total
    est = cms_estimate(whole, keys)
    assert (est >= counts).all()
    assert (est - counts).max() <= max(1, int(2 * 2.72 / whole.shape[1] * total) + 1)


def test_cms_topk_matches_exact_on_skewed_corpus():
    from data_hub_ejp_xml_pipeline_ray.functions.sketch import cms_topk_terms

    # zipf-ish corpus: term0 most frequent, long noise tail
    docs = []
    for i in range(200):
        toks = []
        for r in range(20):
            toks.append(f"term{r}" * 1)
        toks = [t for r, t in enumerate(toks) for _ in range(20 - r)]
        toks.append(f"noise{i}")
        docs.append({"text": " ".join(toks)})
    ds = ray.data.from_arrow(pa.Table.from_pylist(docs)).repartition(4)
    got = cms_topk_terms(ds, "text", k=10)
    terms = got.column("term").to_pylist()
    ests = got.column("n_approx").to_pylist()
    # exact: term r appears (20-r)*200 times
    assert terms[:5] == [f"term{r}" for r in range(5)]
    for r, (t, e) in enumerate(zip(terms, ests)):
        if t.startswith("term"):
            true = (20 - int(t[4:])) * 200
            assert true <= e <= true + 600  # eps*N slack


# ---------------------------------------------------------------------------
# t-digest
# ---------------------------------------------------------------------------

def _rank_error(data_sorted, estimate, p):
    n = len(data_sorted)
    rank = np.searchsorted(data_sorted, estimate) / n
    return abs(rank - p)


def test_tdigest_rank_error_bound():
    from data_hub_ejp_xml_pipeline_ray.functions.sketch import (
        TDIGEST_DELTA,
        tdigest_build,
        tdigest_quantile,
    )

    rng = np.random.default_rng(7)
    data = rng.lognormal(0.0, 2.0, 50_000)  # heavy-tailed
    sk = tdigest_build(data)
    ds = np.sort(data)
    for p in (0.01, 0.25, 0.5, 0.75, 0.9, 0.99):
        est = float(tdigest_quantile(sk, p))
        bound = max(4.0 * p * (1 - p) / TDIGEST_DELTA * 3.0, 0.002)
        assert _rank_error(ds, est, p) <= bound, (p, est)


def test_tdigest_merge_matches_single_build():
    from data_hub_ejp_xml_pipeline_ray.functions.sketch import (
        tdigest_build,
        tdigest_merge,
        tdigest_quantile,
    )

    rng = np.random.default_rng(11)
    parts = [rng.standard_normal(8_000) * (i + 1) for i in range(6)]
    whole = np.concatenate(parts)
    merged = tdigest_merge([tdigest_build(p) for p in parts])
    ds = np.sort(whole)
    for p in (0.05, 0.5, 0.95):
        est = float(tdigest_quantile(merged, p))
        assert _rank_error(ds, est, p) <= 0.02, p
    # merge order must not matter (up to the same bound)
    rev = tdigest_merge([tdigest_build(x) for x in reversed(parts)])
    for p in (0.05, 0.5, 0.95):
        a = _rank_error(ds, float(tdigest_quantile(merged, p)), p)
        b = _rank_error(ds, float(tdigest_quantile(rev, p)), p)
        assert abs(a - b) <= 0.02
    # serialization round-trips
    from data_hub_ejp_xml_pipeline_ray.functions.sketch import (
        tdigest_deserialize,
        tdigest_serialize,
    )
    rt = tdigest_deserialize(tdigest_serialize(merged))
    assert np.allclose(rt[0], merged[0]) and np.allclose(rt[1], merged[1])


def test_tdigest_grouped_dataset_close_to_exact():
    import ray.data

    from data_hub_ejp_xml_pipeline_ray.functions.sketch import (
        tdigest_grouped_quantiles,
    )

    rng = np.random.default_rng(3)
    g = np.repeat(["a", "b", "c"], 20_000)
    v = np.concatenate([
        rng.standard_normal(20_000),
        rng.lognormal(0, 1, 20_000),
        rng.uniform(-5, 5, 20_000),
    ])
    tbl = pa.table({"grp": pa.array(g), "val": pa.array(v)})
    ds = ray.data.from_arrow(tbl).repartition(8)
    got = tdigest_grouped_quantiles(ds, "val", [0.25, 0.5, 0.9], group_col="grp")
    for key in ("a", "b", "c"):
        vals = np.sort(v[g == key])
        for p, est in zip((0.25, 0.5, 0.9), got[key]):
            assert _rank_error(vals, est, p) <= 0.02, (key, p)
    # centroid payload stays sketch-sized (fixed partials, not values)
    from data_hub_ejp_xml_pipeline_ray.functions.sketch import (
        TDIGEST_DELTA,
        tdigest_build,
    )
    m, w = tdigest_build(v)
    assert m.size <= 2 * TDIGEST_DELTA


def test_value_quantiles_tdigest_close_to_exact_sibling():
    """The registered one-pass t-digest query tracks the exact 3-pass
    selection query within a small relative tolerance per cell."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.queries import (
        q_value_quantiles_by_type,
        q_value_quantiles_tdigest,
    )

    sf = "/root/testdata/sf0.001"
    exact = q_value_quantiles_by_type(sf).to_pandas().set_index("event_type")
    approx = q_value_quantiles_tdigest(sf).to_pandas().set_index("event_type")
    assert sorted(exact.index) == sorted(approx.index)
    for g in exact.index:
        for col in ("p25", "p50", "p75", "p90"):
            e, a = exact.loc[g, col], approx.loc[g, col]
            # value-space tolerance: 5% of the group's p90 scale
            assert abs(a - e) <= 0.05 * max(abs(exact.loc[g, "p90"]), 1.0), (
                g, col, e, a,
            )


def test_bloom_no_false_negatives_and_fp_bound():
    from data_hub_ejp_xml_pipeline_ray.functions.sketch import (
        bloom_add, bloom_contains, bloom_empty, bloom_sizes,
    )

    rng = np.random.default_rng(7)
    items = rng.integers(0, 2**63, 40_000, dtype=np.int64)
    other = rng.integers(0, 2**63, 40_000, dtype=np.int64)
    other = other[~np.isin(other, items)]
    bits = bloom_add(bloom_empty(bloom_sizes(items.size)), items)
    assert bloom_contains(bits, items).all()  # never a false negative
    assert bloom_contains(bits, other).mean() < 0.03


def test_decontaminate_bloom_equals_exact_sibling():
    """Bloom prefilter + semi-join verification returns EXACTLY the
    broadcast-set variant's row set."""
    from data_hub_ejp_xml_pipeline_ray.pipelines.queries import (
        q_decontaminate_bloom,
        q_decontaminate_ngrams,
    )

    sf = "/root/testdata/sf0.001"
    a = q_decontaminate_bloom(sf).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    b = q_decontaminate_ngrams(sf).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    assert a.equals(b)


def test_decontaminate_bloom_distributed_semijoin_path(monkeypatch):
    """Force the distributed co-group semi-join (the 100-TB path) by
    zeroing the driver threshold; the result must not change."""
    import data_hub_ejp_xml_pipeline_ray.pipelines.queries as Q

    sf = "/root/testdata/sf0.001"
    expected = Q.q_decontaminate_ngrams(sf).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    monkeypatch.setattr(Q, "DECON_CAND_DRIVER_THRESHOLD", 0)
    got = Q.q_decontaminate_bloom(sf).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    assert got.equals(expected)
