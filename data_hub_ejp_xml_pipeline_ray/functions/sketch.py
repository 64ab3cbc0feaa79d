"""HyperLogLog cardinality sketch — the mergeable-sketch operator slot:
per-batch partial sketches combine by element-wise register max, so
distinct counting runs as map_batches partials + one tiny reduce with
NO shuffle of the raw values (contrast the exact path, which must move
every distinct (key, value) pair).

Standard HLL (Flajolet et al. 2007 constants), deterministic via
blake2b hashing — no seeds, no clock. Registers are 2^p uint8; a
p=12 sketch is 4 KB and its standard error ~1.04/sqrt(2^p) = 1.6%.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


def empty_registers(p: int = 12) -> np.ndarray:
    return np.zeros(1 << p, dtype=np.uint8)


def update_registers(reg: np.ndarray, values: pa.Array | list) -> np.ndarray:
    """Fold a column of values into the registers (vectorized over the
    hash array). Nulls are skipped."""
    p = int(np.log2(len(reg)))
    vals = values.to_pylist() if isinstance(values, (pa.Array, pa.ChunkedArray)) else values
    hashes = np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(str(v).encode("utf-8"), digest_size=8).digest(),
                "little",
            )
            for v in vals
            if v is not None
        ),
        dtype=np.uint64,
    )
    if len(hashes) == 0:
        return reg
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = hashes << np.uint64(p)  # remaining 64-p bits, left-aligned
    # rank = leading zeros of `rest` + 1, capped at 64-p+1
    lz = np.full(len(rest), 64 - p, dtype=np.uint8)
    cur = rest.copy()
    found = np.zeros(len(rest), dtype=bool)
    for bit in range(64 - p):
        is_set = (cur >> np.uint64(63)) != 0
        newly = is_set & ~found
        lz[newly] = bit
        found |= is_set
        cur = cur << np.uint64(1)
    rank = (lz + 1).astype(np.uint8)
    np.maximum.at(reg, idx, rank)
    return reg


def merge_registers(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sketch union = element-wise max (associative + commutative +
    idempotent — safe under Ray task retries and any partial order)."""
    return np.maximum(a, b)


def estimate(reg: np.ndarray) -> float:
    """Standard HLL estimate with the small-range (linear counting)
    correction."""
    m = len(reg)
    est = _alpha(m) * m * m / np.sum(np.exp2(-reg.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.sum(reg == 0))
        if zeros:
            return m * np.log(m / zeros)
    return float(est)


# ---------------------------------------------------------------------------
# Count-Min sketch (heavy hitters)
# ---------------------------------------------------------------------------

CMS_DEPTH = 4
CMS_WIDTH = 1 << 12  # eps ~ e/width ~ 0.07% of total mass per estimate


def cms_empty(depth: int = CMS_DEPTH, width: int = CMS_WIDTH) -> np.ndarray:
    return np.zeros((depth, width), dtype=np.int64)


def _cms_rows(keys: list[str], depth: int, width: int) -> np.ndarray:
    """(depth, n) bucket indices — one seeded blake2b hash per row.
    Deterministic (no process-dependent ``hash()``)."""
    out = np.empty((depth, len(keys)), dtype=np.int64)
    for d in range(depth):
        salt = bytes([d])
        out[d] = [
            int.from_bytes(
                hashlib.blake2b(
                    salt + k.encode("utf-8"), digest_size=8
                ).digest(),
                "little",
            )
            % width
            for k in keys
        ]
    return out


def cms_update(
    sketch: np.ndarray, keys: list[str], counts: np.ndarray
) -> np.ndarray:
    """Fold (key, count) pairs into the sketch — vectorized scatter-add
    per depth row."""
    if len(keys) == 0:
        return sketch
    idx = _cms_rows(keys, sketch.shape[0], sketch.shape[1])
    c = np.asarray(counts, dtype=np.int64)
    for d in range(sketch.shape[0]):
        np.add.at(sketch[d], idx[d], c)
    return sketch


def cms_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sketch union = element-wise SUM (associative + commutative, so
    any partial-merge order agrees). NOT idempotent — safe under Ray
    Data's lineage re-execution (a retried block REPLACES the lost
    one, it is never double-consumed), but do not re-feed the same
    partial twice by hand."""
    return a + b


def cms_estimate(sketch: np.ndarray, keys: list[str]) -> np.ndarray:
    """Point estimates (min over depth rows) — overestimates by at most
    ~e/width of the total inserted mass, w.h.p."""
    if len(keys) == 0:
        return np.zeros(0, dtype=np.int64)
    idx = _cms_rows(keys, sketch.shape[0], sketch.shape[1])
    ests = np.stack(
        [sketch[d][idx[d]] for d in range(sketch.shape[0])], axis=0
    )
    return ests.min(axis=0)


def cms_topk_terms(
    ds,
    text_col: str = "text",
    *,
    k: int = 50,
    candidates_per_block: int = 200,
    depth: int = CMS_DEPTH,
    width: int = CMS_WIDTH,
):
    """Approximate corpus top-k terms via Count-Min + per-block
    candidate tracking — the HEAVY-HITTERS scale route: nothing
    term-cardinality-sized ever shuffles or reaches the driver, only
    (depth x width) sketch partials plus each block's local top
    ``candidates_per_block`` terms (a true heavy hitter is in the
    local top of at least one block for any realistic skew). Returns
    an Arrow table (term, n_approx) sorted desc. The exact sibling is
    ``queries.q_top_terms``."""
    import polars as pl
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select([text_col]))
        counts = (
            df.select(
                pl.col(text_col).str.to_lowercase()
                .str.extract_all(r"[a-z0-9]+").alias("term")
            )
            .explode("term")
            .drop_nulls()
            .group_by("term").agg(pl.len().cast(pl.Int64).alias("n"))
        )
        terms = counts.get_column("term").to_list()
        ns = counts.get_column("n").to_numpy()
        sk = cms_update(cms_empty(depth, width), terms, ns)
        top = counts.sort(["n", "term"], descending=[True, False]).head(
            candidates_per_block
        )
        return pa.table(
            {
                "cand": pa.array([top.get_column("term").to_list()],
                                  pa.list_(pa.string())),
                "sketch": pa.array([sk.tobytes()], pa.binary()),
            }
        )

    merged = cms_empty(depth, width)
    cands: set[str] = set()
    for b in ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        for cl, raw in zip(
            b.column("cand").to_pylist(), b.column("sketch").to_pylist()
        ):
            cands.update(cl)
            merged = cms_merge(
                merged,
                np.frombuffer(raw, dtype=np.int64).reshape(depth, width),
            )
    import pyarrow as pa

    terms = sorted(cands)
    ests = cms_estimate(merged, terms)
    order = sorted(
        range(len(terms)), key=lambda i: (-int(ests[i]), terms[i])
    )[:k]
    return pa.table(
        {"term": pa.array([terms[i] for i in order], pa.string()),
         "n_approx": pa.array([int(ests[i]) for i in order], pa.int64())}
    )


def hll_count_distinct(
    ds, column: str, *, p: int = 12, group_col: str | None = None
):
    """Distributed distinct-count over a Dataset column: per-batch
    partial sketches (map_batches), merged driver-side by register max
    (the merge is a few KB per group — never the values). With
    ``group_col``, returns ``{group: estimate}``; else a float."""
    import ray.data  # noqa: F401  (Dataset type)

    def partial(batch: pa.Table) -> pa.Table:
        if group_col is None:
            reg = update_registers(empty_registers(p), batch.column(column))
            return pa.table(
                {"g": pa.array([""], pa.string()),
                 "reg": pa.array([reg.tobytes()], pa.binary())}
            )
        # Vectorized group partitioning: dictionary-encode the key, then
        # fold each group's values in ONE update_registers call (the
        # per-row path rebuilt the leading-zero loop per value — O(rows)
        # Python). Group keys keep their ORIGINAL type in the output.
        keys = batch.column(group_col).combine_chunks()
        vals = batch.column(column).combine_chunks()
        import pyarrow.compute as _pc

        enc = _pc.dictionary_encode(keys)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        out_keys, out_regs = [], []
        for code in range(len(enc.dictionary)):
            mask = pa.array(codes == code)
            reg = update_registers(empty_registers(p), vals.filter(mask))
            out_keys.append(enc.dictionary[code].as_py())
            out_regs.append(reg.tobytes())
        return pa.table(
            {"g": pa.array(out_keys, type=keys.type),
             "reg": pa.array(out_regs, pa.binary())}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    merged: dict = {}
    for b in parts.iter_batches(batch_format="pyarrow"):
        for g, raw in zip(b.column("g").to_pylist(), b.column("reg").to_pylist()):
            reg = np.frombuffer(raw, dtype=np.uint8).copy()
            if g in merged:
                merged[g] = merge_registers(merged[g], reg)
            else:
                merged[g] = reg
    if group_col is None:
        return estimate(merged[""])
    return {g: estimate(r) for g, r in merged.items()}


# ---------------------------------------------------------------------------
# t-digest: mergeable quantile sketch (the one-pass complement to the
# engine's EXACT distributed quantiles — fixed-size partials per group,
# rank error ~ 4*q*(1-q)/delta, finest at the tails)
# ---------------------------------------------------------------------------

TDIGEST_DELTA = 200


def _k1(q: np.ndarray, delta: int) -> np.ndarray:
    """The k1 scale function (Dunning's merging t-digest): centroid
    size limits derive from equal steps in k-space, giving tail-biased
    resolution."""
    return (delta / (2.0 * np.pi)) * np.arcsin(2.0 * np.clip(q, 0.0, 1.0) - 1.0)


def _td_cluster(
    means: np.ndarray, weights: np.ndarray, delta: int
) -> tuple[np.ndarray, np.ndarray]:
    """Re-cluster weight-sorted centroids into k1 cells — VECTORIZED:
    cell id per centroid from its mid-rank quantile, then reduceat
    folds each cell's weighted mean. Input must be sorted by mean."""
    total = weights.sum()
    if total <= 0:
        return np.empty(0), np.empty(0)
    qmid = (np.cumsum(weights) - weights / 2.0) / total
    cell = np.floor(_k1(qmid, delta)).astype(np.int64)
    starts = np.flatnonzero(np.diff(cell, prepend=cell[0] - 1))
    w = np.add.reduceat(weights, starts)
    m = np.add.reduceat(means * weights, starts) / w
    return m, w


def tdigest_build(
    values, delta: int = TDIGEST_DELTA
) -> tuple[np.ndarray, np.ndarray]:
    """Sketch (means, weights) of a value array — O(n log n) sort +
    vectorized clustering, no Python loop over values."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    v = v[~np.isnan(v)]
    if v.size == 0:
        return np.empty(0), np.empty(0)
    return _td_cluster(v, np.ones(v.size), delta)


def tdigest_merge(
    sketches, delta: int = TDIGEST_DELTA
) -> tuple[np.ndarray, np.ndarray]:
    """Merge any number of (means, weights) sketches: concat, sort by
    mean, re-cluster. Associative and commutative up to the documented
    rank-error bound (tested)."""
    ms = [m for m, _ in sketches if m.size]
    ws = [w for _, w in sketches if w.size]
    if not ms:
        return np.empty(0), np.empty(0)
    m = np.concatenate(ms)
    w = np.concatenate(ws)
    order = np.argsort(m, kind="stable")
    return _td_cluster(m[order], w[order], delta)


def tdigest_quantile(sketch: tuple[np.ndarray, np.ndarray], p) -> np.ndarray:
    """Quantile estimate(s) by interpolation over centroid mid-ranks."""
    means, weights = sketch
    if means.size == 0:
        return np.asarray(np.nan if np.isscalar(p) else [np.nan] * len(p))
    cum = np.cumsum(weights) - weights / 2.0
    target = np.asarray(p, dtype=np.float64) * weights.sum()
    return np.interp(target, cum, means)


def tdigest_serialize(sketch: tuple[np.ndarray, np.ndarray]) -> bytes:
    means, weights = sketch
    return np.concatenate([means, weights]).astype(np.float64).tobytes()


def tdigest_deserialize(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    arr = np.frombuffer(raw, dtype=np.float64)
    half = arr.size // 2
    return arr[:half].copy(), arr[half:].copy()


def tdigest_grouped_quantiles(
    ds, column: str, ps, *, group_col: str | None = None,
    delta: int = TDIGEST_DELTA,
):
    """Distributed one-pass quantiles over a Dataset column: per-batch
    per-group digests (map_batches, ~delta centroids = a few KB each),
    merged driver-side — the values themselves never move. With
    ``group_col`` returns ``{group: [q_p...]}``, else a list. For exact
    answers use ``grouped_quantiles_distributed`` (3 passes); this is
    the single-pass approximation for 100-TB profile stats."""
    import pyarrow.compute as _pc

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch.column(column).combine_chunks()
        if group_col is None:
            sk = tdigest_build(vals.to_numpy(zero_copy_only=False), delta)
            return pa.table(
                {"g": pa.array([""], pa.string()),
                 "td": pa.array([tdigest_serialize(sk)], pa.binary())}
            )
        keys = batch.column(group_col).combine_chunks()
        enc = _pc.dictionary_encode(keys)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        v = vals.to_numpy(zero_copy_only=False)
        out_keys, out_td = [], []
        for code in range(len(enc.dictionary)):
            sk = tdigest_build(v[codes == code], delta)
            out_keys.append(enc.dictionary[code].as_py())
            out_td.append(tdigest_serialize(sk))
        return pa.table(
            {"g": pa.array(out_keys, type=keys.type),
             "td": pa.array(out_td, pa.binary())}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    merged: dict = {}
    for b in parts.iter_batches(batch_format="pyarrow"):
        for g, raw in zip(b.column("g").to_pylist(), b.column("td").to_pylist()):
            sk = tdigest_deserialize(raw)
            merged[g] = (
                tdigest_merge([merged[g], sk], delta) if g in merged else sk
            )
    qs = {g: tdigest_quantile(sk, ps).tolist() for g, sk in merged.items()}
    if group_col is None:
        return qs[""]
    return qs


# ---------------------------------------------------------------------------
# Bloom filter — mergeable set-membership sketch
# ---------------------------------------------------------------------------

#: ~0.8% false-positive rate at the matching k below; NO false
#: negatives ever (the property the decontamination prefilter relies
#: on: a zero-hit document is definitively clean).
BLOOM_BITS_PER_ITEM = 10
BLOOM_K = 7  # round(BITS_PER_ITEM * ln 2)

_BLOOM_H2_MULT = np.uint64(0x9E3779B97F4A7C15)


def bloom_sizes(n_items: int, bits_per_item: int = BLOOM_BITS_PER_ITEM) -> int:
    """Bit-array size (multiple of 64) for an expected item count."""
    m = max(64, int(n_items) * bits_per_item)
    return (m + 63) // 64 * 64


def bloom_empty(m_bits: int) -> np.ndarray:
    return np.zeros(m_bits // 64, dtype=np.uint64)


def _bloom_positions(bits: np.ndarray, h: np.ndarray, i: int):
    """(word, bit) arrays for probe ``i`` via Kirsch-Mitzenmacher double
    hashing g_i = h1 + i*h2 — h is already a uniform 64-bit hash
    (blake2b upstream), so h2 derives by odd multiplicative mixing."""
    m = np.uint64(bits.size * 64)
    h1 = h.astype(np.uint64)
    h2 = (h1 * _BLOOM_H2_MULT) | np.uint64(1)
    idx = (h1 + np.uint64(i) * h2) % m
    return (idx >> np.uint64(6)).astype(np.int64), idx & np.uint64(63)


def bloom_add(bits: np.ndarray, hashes, k: int = BLOOM_K) -> np.ndarray:
    """Fold a hash array in, vectorized (np.bitwise_or.at handles
    duplicate word indices). Mutates and returns ``bits``."""
    h = np.asarray(hashes, dtype=np.uint64)
    if h.size == 0:
        return bits
    for i in range(k):
        word, bit = _bloom_positions(bits, h, i)
        np.bitwise_or.at(bits, word, np.left_shift(np.uint64(1), bit))
    return bits


def bloom_contains(bits: np.ndarray, hashes, k: int = BLOOM_K) -> np.ndarray:
    """Vectorized membership test -> bool array (false positives at the
    documented rate; never false negatives)."""
    h = np.asarray(hashes, dtype=np.uint64)
    acc = np.ones(h.size, dtype=bool)
    for i in range(k):
        word, bit = _bloom_positions(bits, h, i)
        acc &= (
            (bits[word] >> bit) & np.uint64(1)
        ).astype(bool)
    return acc
