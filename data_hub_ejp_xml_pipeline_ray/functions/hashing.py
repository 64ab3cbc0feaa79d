"""Stable content-hashing kernels: shingling, MinHash, SimHash.

Every hash here is PERMANENTLY stable (blake2b / explicit arithmetic —
never Python's salted ``hash()`` or a library hash that may change
between versions), because signatures are compared across processes,
runs and machines. Used by the near-duplicate stages in
``stages/dedup.py``.
"""
from __future__ import annotations

import hashlib
import re

import numpy as np

TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

_MERSENNE_P = (1 << 61) - 1
_MAX_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def tokens_of(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def stable_hash64(data: bytes) -> int:
    """64-bit stable hash (blake2b truncation)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Word ``n``-gram shingles of a document, each hashed to uint64.
    Returns a unique array (set semantics for Jaccard)."""
    toks = tokens_of(text)
    if len(toks) < n:
        shingles = [" ".join(toks)] if toks else []
    else:
        shingles = [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
    if not shingles:
        return np.empty(0, dtype=np.uint64)
    arr = np.fromiter(
        (stable_hash64(s.encode("utf-8")) for s in shingles),
        dtype=np.uint64,
        count=len(shingles),
    )
    return np.unique(arr)


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard over two unique uint64 shingle-hash sets."""
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (len(a) + len(b) - inter)


def minhash_params(num_perm: int, seed: int = 1234) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (a, b) coefficients for the permutation family
    ``h_i(x) = (a_i * x + b_i) mod 2^64`` with odd ``a_i`` — an odd
    multiplier makes the affine map a bijection on uint64, so native
    wraparound arithmetic gives a true permutation with no bigint cost."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MAX_U64, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, _MAX_U64, size=num_perm, dtype=np.uint64)
    return a, b


def simhash(text: str) -> int:
    """64-bit SimHash over token hashes weighted by frequency."""
    toks = tokens_of(text)
    if not toks:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    from collections import Counter

    for tok, cnt in Counter(toks).items():
        h = stable_hash64(tok.encode("utf-8"))
        bits = (np.uint64(h) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), cnt, -cnt)
    out = np.uint64(0)
    for i in range(64):
        if acc[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return int(out)


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def _build_popcount16() -> np.ndarray:
    v = np.arange(1 << 16, dtype=np.uint32)
    c = np.zeros(1 << 16, dtype=np.uint8)
    for s in range(16):
        c += ((v >> s) & 1).astype(np.uint8)
    return c


#: 64 KiB popcount lookup for 16-bit values — built once per process.
_POPCOUNT16 = _build_popcount16()


def popcount64_batch(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a uint64 array (four 16-bit table
    lookups) — the batch form of :func:`hamming64`'s bit count, used by
    the all-pairs Hamming leaf of the simhash verify kernel."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    out = _POPCOUNT16[(x & np.uint64(0xFFFF)).astype(np.intp)].astype(np.int32)
    for s in (16, 32, 48):
        out += _POPCOUNT16[
            ((x >> np.uint64(s)) & np.uint64(0xFFFF)).astype(np.intp)
        ]
    return out


def simhash_band_keys(value: int, num_bands: int = 4) -> list[int]:
    """Split a 64-bit simhash into ``num_bands`` chunks; two docs within
    ``num_bands - 1`` bit flips share at least one chunk only if the
    flips avoid it — standard banded candidate generation (guaranteed
    recall for hamming distance < num_bands when flips hit distinct
    bands; verification is exact afterwards)."""
    width = 64 // num_bands
    mask = (1 << width) - 1
    return [((value >> (i * width)) & mask) | (i << width) for i in range(num_bands)]


class UnionFind:
    """Driver-side union-find over candidate duplicate pairs. The
    partitioning assumption (documented per SURVEY §2 custom-operator
    rule): the candidate PAIR set is small (dup rate bounded), even when
    the corpus is huge — pairs, not docs, flow to the driver."""

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent.setdefault(x, x)
        if p != x:
            self.parent[x] = p = self.find(p)
        return p

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller id becomes the root
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def groups(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for x in list(self.parent):
            out.setdefault(self.find(x), []).append(x)
        return out


def minhash_band_rows_batch(
    texts,
    a: np.ndarray,
    b: np.ndarray,
    num_bands: int,
    shingle_n: int,
    hash_seed: int = 42,
    _max_chunk_shingles: int = 500_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized whole-batch MinHash -> LSH band rows.

    Returns ``(band int32, band_key int64 (>>1), row_idx int64)`` —
    one row per (document, band), exploded for the bucket shuffle.

    Replaces a per-document Python loop (``shingle_hashes``, then a
    signature and one band hash per row — millions of
    interpreter-level blake2b calls per batch): ONE polars
    tokenize/shift-concat/hash pass for every shingle of every doc,
    then a chunked ``np.minimum.reduceat`` for the signatures and a
    wraparound-polynomial + fmix64 finalizer for the band keys.

    Semantics preserved from the scalar kernels: lowercased
    ``[a-z0-9]+`` tokens; a document with fewer than ``shingle_n``
    tokens contributes its whole token sequence as one shingle; an
    EMPTY document gets the all-MAX signature (so empty docs still
    bucket together and verify at Jaccard 1.0). Duplicate shingles are
    harmless under the min-reduce (min over multiset == min over set).

    The shingle hash is polars' 64-bit ``hash`` (seeded): deterministic
    across worker processes within one engine run / environment, which
    is all LSH bucketing needs — pair VERIFICATION recomputes exact
    Jaccard with the permanently-stable blake2b ``shingle_hashes``.
    LSH recall properties are hash-family-agnostic (any uniform 64-bit
    hash of the shingle strings yields the same collision analysis).
    """
    import polars as pl
    import pyarrow as pa

    num_perm = len(a)
    n_rows = len(texts)
    if n_rows == 0:
        return (np.empty(0, np.int32), np.empty(0, np.int64),
                np.empty(0, np.int64))

    tok = (
        pl.from_arrow(pa.table({"text": texts}))
        .with_row_index("rid")
        .select(
            pl.col("rid").cast(pl.Int64),
            pl.col("text").str.to_lowercase()
            .str.extract_all(r"[a-z0-9]+").alias("tk"),
        )
    )
    ex = tok.explode("tk").drop_nulls("tk")
    frames = []
    if shingle_n > 1:
        main = (
            ex.with_columns(
                *[pl.col("tk").shift(-i).alias(f"w{i}")
                  for i in range(1, shingle_n)],
                pl.col("rid").shift(-(shingle_n - 1)).alias("rid_end"),
            )
            .filter(pl.col("rid") == pl.col("rid_end"))
            .select(
                pl.col("rid"),
                pl.concat_str(
                    [pl.col("tk"),
                     *[pl.col(f"w{i}") for i in range(1, shingle_n)]],
                    separator=" ",
                ).alias("g"),
            )
        )
        frames.append(main)
        counts = tok.select(
            pl.col("rid"), pl.col("tk").list.len().alias("c")
        )
        short_rids = counts.filter(
            (pl.col("c") > 0) & (pl.col("c") < shingle_n)
        )["rid"]
        if short_rids.len():
            short = (
                ex.filter(pl.col("rid").is_in(short_rids))
                .group_by("rid", maintain_order=True)
                .agg(pl.col("tk").str.join(" ").alias("g"))
            )
            frames.append(short)
        grams = pl.concat(frames) if len(frames) > 1 else frames[0]
    else:
        grams = ex.select(pl.col("rid"), pl.col("tk").alias("g"))
    hashed = grams.select(
        pl.col("rid"), pl.col("g").hash(seed=hash_seed).alias("h")
    )
    rid = hashed["rid"].to_numpy().astype(np.int64)
    h = hashed["h"].to_numpy().astype(np.uint64)
    order = np.argsort(rid, kind="stable")
    rid, h = rid[order], h[order]

    sigs = np.full((n_rows, num_perm), _MAX_U64, dtype=np.uint64)
    if h.size:
        uniq, starts = np.unique(rid, return_index=True)
        ends = np.append(starts[1:], h.size)
        with np.errstate(over="ignore"):
            i = 0
            while i < len(uniq):
                j = i + 1
                while (j < len(uniq)
                       and ends[j - 1] - starts[i] < _max_chunk_shingles):
                    j += 1
                lo, hi = starts[i], ends[j - 1]
                vals = a[:, None] * h[lo:hi][None, :] + b[:, None]
                mins = np.minimum.reduceat(vals, starts[i:j] - lo, axis=1)
                sigs[uniq[i:j]] = mins.T
                i = j

    rows = num_perm // num_bands
    m = sigs.reshape(n_rows, num_bands, rows)
    key = np.zeros((n_rows, num_bands), np.uint64)
    mult = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        for r in range(rows):
            key = key * mult + m[:, :, r]
        key ^= key >> np.uint64(33)
        key *= np.uint64(0xFF51AFD7ED558CCD)
        key ^= key >> np.uint64(33)
        key *= np.uint64(0xC4CEB9FE1A85EC53)
        key ^= key >> np.uint64(33)

    band = np.tile(np.arange(num_bands, dtype=np.int32), n_rows)
    key_i64 = (key.reshape(-1) >> np.uint64(1)).astype(np.int64)
    row_idx = np.repeat(np.arange(n_rows, dtype=np.int64), num_bands)
    return band, key_i64, row_idx


def simhash_batch(texts, _max_chunk_pairs: int = 500_000) -> np.ndarray:
    """Vectorized whole-batch :func:`simhash` — BIT-EXACT with the
    scalar kernel (each distinct token is still blake2b-hashed, but
    once per BATCH instead of once per document, and the weighted
    bit accumulation is one chunked ``np.add.reduceat`` instead of a
    Python loop per (doc, token)). Returns a uint64 signature per row;
    empty/tokenless rows get 0, matching ``simhash("")``.

    (Tokenization lowercases via polars rather than ``str.lower`` —
    identical on ASCII, which is all ``TOKEN_RE`` admits.)"""
    import polars as pl
    import pyarrow as pa

    n_rows = len(texts)
    sigs = np.zeros(n_rows, dtype=np.uint64)
    if n_rows == 0:
        return sigs
    ex = (
        pl.from_arrow(pa.table({"text": texts}))
        .with_row_index("rid")
        .select(
            pl.col("rid").cast(pl.Int64),
            pl.col("text").str.to_lowercase()
            .str.extract_all(r"[a-z0-9]+").alias("tk"),
        )
        .explode("tk")
        .drop_nulls("tk")
    )
    if ex.height == 0:
        return sigs
    cnt = ex.group_by(["rid", "tk"]).len()
    tok_list = cnt["tk"].unique().to_list()
    hs = np.fromiter(
        (stable_hash64(t.encode("utf-8")) for t in tok_list),
        dtype=np.uint64, count=len(tok_list),
    )
    lut = pl.DataFrame(
        {"tk": tok_list, "ti": np.arange(len(tok_list), dtype=np.int64)}
    )
    j = cnt.join(lut, on="tk").sort("rid")
    rid = j["rid"].to_numpy().astype(np.int64)
    ti = j["ti"].to_numpy().astype(np.int64)
    c = j["len"].to_numpy().astype(np.int64)
    bits = (
        (hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
        & np.uint64(1)
    ).astype(bool)
    pow2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
    uniq, starts = np.unique(rid, return_index=True)
    ends = np.append(starts[1:], rid.size)
    i = 0
    while i < len(uniq):
        j_ = i + 1
        while j_ < len(uniq) and ends[j_ - 1] - starts[i] < _max_chunk_pairs:
            j_ += 1
        lo, hi = starts[i], ends[j_ - 1]
        contrib = np.where(bits[ti[lo:hi]], c[lo:hi, None], -c[lo:hi, None])
        acc = np.add.reduceat(contrib, starts[i:j_] - lo, axis=0)
        sigs[uniq[i:j_]] = ((acc > 0) * pow2).sum(axis=1, dtype=np.uint64)
        i = j_
    return sigs
