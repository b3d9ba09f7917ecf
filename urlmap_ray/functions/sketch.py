"""Mergeable cardinality sketch: K-Minimum-Values (KMV / bottom-k).

The engine's "novel sketch" slot (a 100TB pipeline needs distinct counts —
unique URLs, users, shingles — without a full-key shuffle). KMV keeps the k
smallest distinct 64-bit hashes of the value stream; the estimator is
``(k-1) * 2^64 / kth_min`` (Bar-Yossef et al. 2002, standard error
~1/sqrt(k-2)). Two properties make it the right fit here:

- **Mergeable**: the union of two sketches' hash sets, re-truncated to the
  k smallest, is the sketch of the concatenated streams — so per-batch
  sketches combine associatively in any order (shuffle-order-independent,
  unlike float sums).
- **Exact below saturation**: while fewer than k distinct values exist the
  sketch holds ALL their hashes and returns the exact count — which is what
  lets the registered query hash-match a ``COUNT(DISTINCT ...)`` SQL oracle
  at test scale while the same code degrades gracefully to a ±1/sqrt(k)
  estimate at 100TB cardinalities.

Ray shape: ``map_batches`` emits each batch's <= k candidate hashes as
rows, ``groupby(hash)`` dedups them (the shuffle moves at most
k × n_batches 8-byte keys, never the values), ``sort + limit(k)`` keeps the
global bottom-k, and the driver folds the <= k survivors into the estimate.
No driver-side set of the full key space at any point.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_U64 = np.uint64
_SPAN = float(2**64)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a well-mixed 64-bit hash for ints."""
    x = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        x += _U64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
        x = x ^ (x >> _U64(31))
    return x


def hash64_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic 64-bit hashes of a column's values (null-free).

    Integer columns hash vectorized via splitmix64; strings/binary via md5
    over the utf8 bytes — but only once per DISTINCT value in the input
    (the Python loop is over the batch's unique set, not its rows).
    """
    t = col.type
    if pa.types.is_integer(t):
        return _splitmix64(
            np.ascontiguousarray(col.cast(pa.int64()).to_numpy(zero_copy_only=False))
        )
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        enc = pc.dictionary_encode(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        )
        uniq = enc.dictionary.to_pylist()
        hs = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(
                        v if isinstance(v, bytes) else v.encode("utf-8")
                    ).digest()[:8],
                    "little",
                )
                for v in uniq
            ),
            dtype=_U64,
            count=len(uniq),
        )
        return hs[enc.indices.to_numpy(zero_copy_only=False)]
    raise TypeError(f"hash64_column: unsupported type {t}")


def kmv_estimate(hashes: np.ndarray, k: int) -> int:
    """Fold a bottom-k distinct-hash set into a cardinality estimate.

    Exact (= len) when the sketch is unsaturated; else the kth-minimum
    estimator, rounded to int.
    """
    hashes = np.unique(hashes.astype(_U64))
    if len(hashes) < k:
        return int(len(hashes))
    kth = float(np.sort(hashes)[k - 1]) + 1.0
    return int(round((k - 1) * _SPAN / kth))


def kmv_distinct(ds, *, col: str, k: int = 1024):
    """Distributed distinct-count of ``ds[col]`` via a KMV sketch.

    Returns a one-row Arrow table ``{"n_distinct": int64}``. Exact while
    the true cardinality is < k (documented saturation regime — the SQL
    oracle holds there); ±1/sqrt(k-2) relative error beyond.
    """

    # Hashes travel as sign-flipped int64 (u ^ 2^63, an order-preserving
    # bijection) because Ray Data's sort/groupby path rejects uint64.
    flip = _U64(1 << 63)

    def batch_sketch(t: pa.Table) -> pa.Table:
        c = t.column(col)
        if c.null_count:
            c = c.drop_null()
        if len(c) == 0:
            return pa.table({"h": pa.array([], pa.int64())})
        hs = np.unique(hash64_column(c))
        return pa.table({"h": pa.array((hs[:k] ^ flip).view(np.int64), pa.int64())})

    bottom = (
        ds.map_batches(batch_sketch, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .count()
        .sort("h")
        .limit(k)
    )
    signed = np.asarray(
        [r["h"] for r in bottom.select_columns(["h"]).take_all()], dtype=np.int64
    )
    hs = signed.view(_U64) ^ flip
    return pa.table({"n_distinct": pa.array([kmv_estimate(hs, k)], pa.int64())})


def kmv_distinct_per_key(ds, *, key_col: str, col: str, k: int = 2048):
    """Per-key distinct counts via keyed bottom-k sketches.

    Returns a Dataset of ``(key_col, n_distinct)``. The grouped analogue of
    :func:`kmv_distinct`, with the same mergeable/exact-below-saturation
    contract applied per key: each batch ships at most ``k`` 8-byte hashes
    PER KEY IN THE BATCH (pre-deduped, vectorized lexsort + run scan — no
    Python loop over rows), the single ``groupby(key)`` folds sketches
    whose group size is bounded by k × n_batches, and no stage ever holds
    a key's full value set. Exact while a key's true cardinality < k —
    the regime the COUNT(DISTINCT ...) GROUP BY oracle certifies at test
    scale; ±1/sqrt(k-2) relative error per key beyond it.
    """
    flip = _U64(1 << 63)

    def batch_sketch(t: pa.Table) -> pa.Table:
        t = t.select([key_col, col])
        if t.num_rows and t.column(col).null_count:
            t = t.filter(pc.is_valid(t.column(col)))
        if t.num_rows == 0:
            return pa.table(
                {
                    key_col: t.column(key_col).combine_chunks(),
                    "h": pa.array([], pa.int64()),
                }
            )
        keyc = t.column(key_col).combine_chunks()
        signed = (hash64_column(t.column(col)) ^ flip).view(np.int64)
        codes = (
            pc.dictionary_encode(keyc)
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        order = np.lexsort((signed, codes))
        sc, sh = codes[order], signed[order]
        first = np.ones(len(sc), dtype=bool)  # distinct (key, hash) pairs
        first[1:] = (sc[1:] != sc[:-1]) | (sh[1:] != sh[:-1])
        sc, sh, oidx = sc[first], sh[first], order[first]
        newk = np.ones(len(sc), dtype=bool)
        newk[1:] = sc[1:] != sc[:-1]
        starts = np.flatnonzero(newk)
        runlen = np.diff(np.append(starts, len(sc)))
        rank = np.arange(len(sc)) - np.repeat(starts, runlen)
        keep = rank < k  # hashes are sorted within a key → bottom-k
        return pa.table(
            {
                key_col: keyc.take(pa.array(oidx[keep])),
                "h": pa.array(sh[keep], pa.int64()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        hs = (
            group.column("h").to_numpy(zero_copy_only=False).astype(np.int64)
        ).view(_U64) ^ flip
        return pa.table(
            {
                key_col: group.column(key_col).slice(0, 1).combine_chunks(),
                "n_distinct": pa.array([kmv_estimate(hs, k)], pa.int64()),
            }
        )

    return (
        ds.map_batches(batch_sketch, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(key_col)
        .map_groups(fold, batch_format="pyarrow")
    )


def _mg_truncate(counts: dict, capacity: int) -> dict:
    """Misra-Gries truncation: keep <= capacity counters by subtracting the
    (capacity+1)-th largest count from all and dropping non-positives —
    the summary-merge step of Agarwal et al. 2012 ("Mergeable summaries"),
    which preserves the n/ (capacity+1) error bound under arbitrary merge
    trees."""
    if len(counts) <= capacity:
        return counts
    by_count = sorted(counts.values(), reverse=True)
    cut = by_count[capacity]
    return {v: c - cut for v, c in counts.items() if c > cut}


def mg_folded(ds, *, col: str, capacity: int, n_buckets: int):
    """The distributed part of :func:`mg_topk`: per-batch MG summaries →
    one bucketed ``groupby(hash(value) % n_buckets).map_groups`` compaction.
    Returns a Dataset of (value, n) with AT MOST ``n_buckets × capacity``
    rows — the provable bound on what the driver fold ever sees (tested by
    the ≥100-batch property test)."""

    def batch_summary(t: pa.Table) -> pa.Table:
        c = t.column(col)
        if c.null_count:
            c = c.drop_null()
        vc = pc.value_counts(c.combine_chunks())
        counts = {str(f["values"]): int(f["counts"]) for f in vc.to_pylist()}
        counts = _mg_truncate(counts, capacity)
        vals = sorted(counts)
        arr = pa.array(vals, pa.string())
        gb = (hash64_column(arr) % _U64(n_buckets)).astype(np.int64) if vals else []
        return pa.table(
            {
                "value": arr,
                "n_partial": pa.array([counts[v] for v in vals], pa.int64()),
                "gb": pa.array(gb, pa.int64()),
            }
        )

    def bucket_fold(group: pa.Table) -> pa.Table:
        # All partials for a value live in this one bucket: exact sums,
        # then MG truncation bounds the bucket's output at `capacity`.
        summed = group.group_by("value").aggregate([("n_partial", "sum")])
        counts = dict(
            zip(
                summed.column("value").to_pylist(),
                summed.column("n_partial_sum").to_pylist(),
            )
        )
        counts = _mg_truncate(counts, capacity)
        vals = sorted(counts)
        return pa.table(
            {
                "value": pa.array(vals, pa.string()),
                "n": pa.array([counts[v] for v in vals], pa.int64()),
            }
        )

    return (
        ds.map_batches(batch_summary, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gb")
        .map_groups(bucket_fold, batch_format="pyarrow")
    )


def mg_topk(ds, *, col: str, k: int = 20, capacity: int = 4096, n_buckets: int = 64):
    """Approximate top-k heavy hitters via mergeable Misra-Gries summaries.

    The bounded-exchange counterpart of the exact word count
    (textstats.vocab_topk), folded as a TWO-LEVEL merge tree so no stage —
    driver included — ever holds more than a bounded number of rows:

    1. each batch ships AT MOST ``capacity`` counter rows no matter how
       many distinct values it saw;
    2. ONE ``groupby(hash(value) % n_buckets).map_groups`` stage sums each
       value's partials (every value lands in exactly one bucket) and
       MG-truncates the bucket to <= ``capacity`` rows;
    3. the driver folds the <= ``n_buckets × capacity`` survivors —
       a CONSTANT bound, independent of the number of input batches
       (the r2 single-level fold was capacity × n_batches, which at 100 TB
       ~= 10^10 rows on the driver).

    Guarantees (Misra-Gries / Agarwal et al. 2012 mergeable summaries —
    truncation error composes additively across merge-tree levels): the
    reported count undercounts by at most 2n/(capacity+1) (one level per
    truncation stage), and counts are EXACT — hence an exact SQL-oracle
    match — whenever the true distinct-value count is <= capacity (the
    documented saturation regime: no batch, bucket, or driver truncation
    ever fires, since a bucket holds a subset of the distinct values).
    Ties broken by value ascending. Returns an Arrow table (value, n, rnk).
    """
    if k < 1 or capacity < k:
        raise ValueError(f"need 1 <= k <= capacity, got k={k} capacity={capacity}")
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")

    folded = mg_folded(
        ds, col=col, capacity=capacity, n_buckets=n_buckets
    ).take_all()  # <= n_buckets × capacity rows — constant bound
    merged = _mg_truncate({r["value"]: int(r["n"]) for r in folded}, capacity)
    top = sorted(merged.items(), key=lambda it: (-it[1], it[0]))[:k]
    return pa.table(
        {
            "value": pa.array([v for v, _ in top], pa.string()),
            "n": pa.array([c for _, c in top], pa.int64()),
            "rnk": pa.array(np.arange(1, len(top) + 1), pa.int64()),
        }
    )


def mg_topk_per_key(
    ds,
    *,
    key_col: str,
    col: str,
    k: int = 5,
    capacity: int = 1024,
    n_vbuckets: int = 16,
):
    """Per-key approximate top-k heavy hitters — the keyed member of the
    MG family (as hll_distinct_per_key is to hll_distinct): per-host top
    anchor terms, per-type top users, per-domain boilerplate signatures.

    Exchange shape, all three stages bounded like :func:`mg_topk`'s
    merge tree but with the key riding every row (no driver fold — the
    final truncation is a per-key ``map_groups``):

    1. each batch ships AT MOST ``capacity`` counter rows PER KEY it saw
       (batch-local Arrow hash-agg + per-key MG truncation);
    2. ``groupby((key, hash(value) % n_vbuckets))`` sums each value's
       partials (a value of a key lives in exactly one bucket) and
       truncates the bucket to <= capacity rows — so the next stage's
       group is <= n_vbuckets x capacity rows per key REGARDLESS of
       batch count (the r2 two-level-fold lesson, keyed);
    3. ``groupby(key)`` folds the survivors, truncates once more and
       keeps top-k by (count DESC, value ASC).

    Counts are EXACT — hence the exact SQL-oracle match — whenever a
    key's true distinct-value count is <= capacity (no truncation ever
    fires); beyond it the Agarwal et al. 2012 merge-tree bound gives
    undercount <= 3n_key/(capacity+1) (one per truncating level).
    Returns a Dataset of (key, value, n, rnk).
    """
    if k < 1 or capacity < k:
        raise ValueError(f"need 1 <= k <= capacity, got k={k} capacity={capacity}")

    def batch_summary(t: pa.Table) -> pa.Table:
        slim = t.select([key_col, col]).drop_null()
        if not slim.num_rows:
            return pa.table(
                {
                    key_col: pa.array([], pa.string()),
                    "value": pa.array([], pa.string()),
                    "n_partial": pa.array([], pa.int64()),
                    "vb": pa.array([], pa.int64()),
                }
            )
        counted = (
            pa.table(
                {
                    key_col: slim.column(key_col).cast(pa.string()),
                    "value": slim.column(col).cast(pa.string()),
                }
            )
            .group_by([key_col, "value"])
            .aggregate([([], "count_all")])
        )
        # vectorized per-key segmentation (the kmv_distinct_per_key run
        # scan): keys below capacity distinct values — the common case —
        # pass through untouched; only SATURATED keys pay the per-key
        # Python _mg_truncate, and there are at most n_rows/capacity of
        # those per batch.
        kcodes = (
            pc.dictionary_encode(counted.column(key_col).combine_chunks())
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        order = np.argsort(kcodes, kind="stable")
        kc = kcodes[order]
        starts = np.flatnonzero(np.r_[True, kc[1:] != kc[:-1]])
        runlen = np.diff(np.append(starts, len(kc)))
        keep = np.ones(len(kc), dtype=bool)
        counts_np = (
            counted.column("count_all").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        adj = counts_np[order].copy()
        for si, rl in zip(starts[runlen > capacity], runlen[runlen > capacity]):
            seg = slice(si, si + rl)
            vals_seg = counted.column("value").take(pa.array(order[seg])).to_pylist()
            trunc = _mg_truncate(dict(zip(vals_seg, adj[seg].tolist())), capacity)
            seg_keep = np.array([v in trunc for v in vals_seg], dtype=bool)
            keep[seg] = seg_keep
            kept_idx = si + np.flatnonzero(seg_keep)
            adj[kept_idx] = [trunc[vals_seg[int(j)]] for j in np.flatnonzero(seg_keep)]
        sel = order[keep]
        out = counted.take(pa.array(sel))
        arr = out.column("value").combine_chunks()
        vb = (
            (hash64_column(arr) % _U64(n_vbuckets)).astype(np.int64)
            if len(arr)
            else []
        )
        return pa.table(
            {
                key_col: out.column(key_col),
                "value": arr,
                "n_partial": pa.array(adj[keep], pa.int64()),
                "vb": pa.array(vb, pa.int64()),
            }
        )

    def bucket_fold(group: pa.Table) -> pa.Table:
        summed = group.group_by("value").aggregate([("n_partial", "sum")])
        counts = _mg_truncate(
            dict(
                zip(
                    summed.column("value").to_pylist(),
                    summed.column("n_partial_sum").to_pylist(),
                )
            ),
            capacity,
        )
        vals = sorted(counts)
        n = len(vals)
        return pa.table(
            {
                key_col: group.column(key_col).slice(0, 1).to_pylist() * n
                if n
                else pa.array([], pa.string()),
                "value": pa.array(vals, pa.string()),
                "n_partial": pa.array([counts[v] for v in vals], pa.int64()),
            }
        )

    def key_fold(group: pa.Table) -> pa.Table:
        summed = group.group_by("value").aggregate([("n_partial", "sum")])
        counts = _mg_truncate(
            dict(
                zip(
                    summed.column("value").to_pylist(),
                    summed.column("n_partial_sum").to_pylist(),
                )
            ),
            capacity,
        )
        top = sorted(counts.items(), key=lambda it: (-it[1], it[0]))[:k]
        n = len(top)
        return pa.table(
            {
                key_col: group.column(key_col).slice(0, 1).to_pylist() * n
                if n
                else pa.array([], pa.string()),
                "value": pa.array([v for v, _ in top], pa.string()),
                "n": pa.array([c for _, c in top], pa.int64()),
                "rnk": pa.array(np.arange(1, n + 1), pa.int64()),
            }
        )

    return (
        ds.map_batches(batch_summary, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([key_col, "vb"])
        .map_groups(bucket_fold, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(key_fold, batch_format="pyarrow")
    )


def _qs_compact(vals: np.ndarray, wts: np.ndarray, capacity: int):
    """Deterministic weighted-stride compaction of a sorted (value, weight)
    quantile summary down to ``capacity`` entries: pick the element at each
    of ``capacity`` evenly-spaced cumulative-weight targets, re-weighting
    to W/capacity (remainder on the last entry). Rank error per compaction
    <= W/(2*capacity); a no-op (exact) while len <= capacity."""
    if len(vals) <= capacity:
        return vals, wts
    w_total = float(wts.sum())
    cw = np.cumsum(wts)
    targets = w_total * (np.arange(capacity) + 0.5) / capacity
    idx = np.clip(np.searchsorted(cw, targets, side="left"), 0, len(vals) - 1)
    out_w = np.full(capacity, w_total / capacity)
    out_w[-1] += w_total - out_w.sum()  # keep total weight exact
    return vals[idx], out_w


def _coalesce_weighted(vals: np.ndarray, wts: np.ndarray):
    """Merge duplicate values by summing their weights — LOSSLESS (the
    weighted ECDF is unchanged), so it never costs rank error and never
    breaks the exactness contract. Returns (sorted unique values, weights)."""
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    newv = np.ones(len(vals), dtype=bool)
    newv[1:] = vals[1:] != vals[:-1]
    starts = np.flatnonzero(newv)
    return vals[starts], np.add.reduceat(wts, starts)


def quantile_summaries(ds, *, col: str, capacity: int, n_buckets: int):
    """The distributed part of :func:`quantile_sketch`: per-batch coalesced
    summaries → one bucketed compaction. Returns a Dataset of
    (v, w, exact) with AT MOST ``n_buckets × capacity`` rows — the provable
    bound on the driver fold's input (tested by the ≥100-batch property
    test)."""

    def batch_summary(t: pa.Table) -> pa.Table:
        c = t.column(col)
        if c.null_count:
            c = c.drop_null()
        raw = c.to_numpy(zero_copy_only=False).astype(np.int64)
        v, w = np.unique(raw, return_counts=True)  # lossless coalesce
        exact = len(v) <= capacity
        v, w = _qs_compact(v, w.astype(np.float64), capacity)
        return pa.table(
            {
                "v": pa.array(v, pa.int64()),
                "w": pa.array(w, pa.float64()),
                "exact": pa.array(np.full(len(v), exact)),
                "gb": pa.array(
                    (_splitmix64(v) % _U64(n_buckets)).astype(np.int64), pa.int64()
                ),
            }
        )

    def bucket_fold(group: pa.Table) -> pa.Table:
        v = group.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        w = group.column("w").to_numpy(zero_copy_only=False).astype(np.float64)
        exact = bool(pc.all(group.column("exact")).as_py())
        v, w = _coalesce_weighted(v, w)
        if len(v) > capacity:
            v, w = _qs_compact(v, w, capacity)
            exact = False
        return pa.table(
            {
                "v": pa.array(v, pa.int64()),
                "w": pa.array(w, pa.float64()),
                "exact": pa.array(np.full(len(v), exact)),
            }
        )

    return (
        ds.map_batches(batch_summary, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gb")
        .map_groups(bucket_fold, batch_format="pyarrow")
    )


def quantile_sketch(
    ds, *, col: str, qs: list[float], capacity: int = 32768, n_buckets: int = 64
):
    """Approximate quantiles of an integer column via a mergeable
    deterministic summary — the third sketch of the family (KMV:
    cardinality, Misra-Gries: heavy hitters, this: quantiles), for when
    even the distinct-value histogram of
    :func:`urlmap_ray.functions.quantiles.exact_quantiles` is too wide to
    fold (continuous-valued columns at 100 TB).

    Folded as a TWO-LEVEL merge tree (the r2 single-level fold shipped
    capacity × n_batches rows to the driver — ~10^11 at 100 TB):

    1. each batch coalesces duplicate values (lossless) and ships at most
       ``capacity`` (value, weight) rows;
    2. ONE ``groupby(hash(value) % n_buckets).map_groups`` stage merges its
       bucket's summaries — coalesce duplicates, compact to ``capacity``
       only if still wider. Hash-scatter bucketing is valid for quantile
       summaries because per-bucket compaction error is local to the
       bucket's weight and rank errors add: sum_b W_b/(2·capacity)
       = W/(2·capacity), the SAME bound as one global compaction;
    3. the driver folds the <= ``n_buckets × capacity`` survivors
       (constant bound) WITHOUT further compaction — it is the final
       estimator, so total rank error is <= 2 · W/(2·capacity) (one level
       per compacting stage).

    Exactness is tracked as data: every summary row carries an ``exact``
    flag that survives only if no lossy compaction ever fired on its path.
    While the true distinct-value count per bucket is <= capacity the flags
    all hold, weights are exact multiplicities, and the estimator reduces
    to the same pinned inverted-ECDF ceil-rank rule as ``exact_quantiles``
    — the documented saturation contract that lets the SQL oracle match
    exactly at test scale. Returns pa.Table (q, <col>).
    """
    import math

    if not qs or any(not 0.0 < q <= 1.0 for q in qs):
        raise ValueError(f"quantiles must be in (0, 1], got {qs}")
    if capacity < 2:
        raise ValueError(f"capacity must be >= 2, got {capacity}")
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")

    parts = quantile_summaries(
        ds, col=col, capacity=capacity, n_buckets=n_buckets
    ).take_all()  # <= n_buckets × capacity rows — constant bound
    if not parts:
        raise ValueError(f"cannot take quantiles of an empty column {col!r}")
    vals = np.array([r["v"] for r in parts], dtype=np.int64)
    wts = np.array([r["w"] for r in parts], dtype=np.float64)
    exact_regime = all(r["exact"] for r in parts)
    vals, wts = _coalesce_weighted(vals, wts)
    cum = np.cumsum(wts)
    w_total = float(cum[-1])
    # unsaturated ⇔ no lossy compaction anywhere ⇔ weights are exact
    # multiplicities: use exact_quantiles' pinned ceil-rank rule so the SQL
    # oracle matches; saturated summaries use the continuous weighted rank
    ranks = [math.ceil(q * w_total) if exact_regime else q * w_total for q in qs]
    picks = np.clip(np.searchsorted(cum, ranks, side="left"), 0, len(vals) - 1)
    return pa.table(
        {
            "q": pa.array(list(qs), pa.float64()),
            col: pa.array(vals[picks], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# HyperLogLog cardinality sketch

_HLL_P = 12
_HLL_M = 1 << _HLL_P  # 4096 registers, std error ~1.04/sqrt(m) = 1.6%


def hll_index_rho(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rho) of each 64-bit hash (Flajolet et al. 2007,
    the 64-bit variant): index = top p bits, rho = leading-zero run of the
    remaining 64−p bits + 1. The bit-length comes from ``np.frexp`` on a
    float64 cast — EXACT because the remaining 52 bits always fit
    float64's 53-bit mantissa (this is why p = 12 is pinned, not
    tunable)."""
    w = hashes & _U64((1 << (64 - _HLL_P)) - 1)
    _, exp = np.frexp(w.astype(np.float64))
    rho = np.where(w > 0, (64 - _HLL_P) + 1 - exp, (64 - _HLL_P) + 1).astype(np.uint8)
    return (hashes >> _U64(64 - _HLL_P)).astype(np.int64), rho


def hll_batch_registers(hashes: np.ndarray) -> np.ndarray:
    """Fold a batch of 64-bit hashes into a fresh uint8[4096] register
    array: each register the max rho of the hashes it indexes
    (:func:`hll_index_rho`)."""
    idx, rho = hll_index_rho(hashes)
    regs = np.zeros(_HLL_M, np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def hll_estimate(regs: np.ndarray) -> int:
    """Deterministic estimate from a register array: the classic raw
    harmonic mean with the linear-counting small-range correction (no
    large-range correction needed for 64-bit hashes). Floor to int64 —
    the pinned cross-engine rule. The 2^-M sum runs in fixed register
    order over a fixed-length array, so it is bit-deterministic."""
    import math

    m = _HLL_M
    alpha = 0.7213 / (1.0 + 1.079 / m)
    inv = np.ldexp(1.0, -regs.astype(np.int64))
    est = alpha * m * m / float(inv.sum())
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * math.log(m / zeros)
    return int(est)


def hll_distinct(ds, *, col: str, n_buckets: int = 32) -> int:
    """Approximate COUNT(DISTINCT col) via a distributed HyperLogLog:
    each batch ships ONE 4 KiB register row (never keys — the exchange is
    O(n_batches), independent of cardinality), a bucketed groupby folds
    them by elementwise max, and the driver folds the <= n_buckets
    surviving rows. Register max is associative + commutative, so the
    final register array — and therefore the estimate — is IDENTICAL at
    any batch split or parallelism. ~1.6% standard error at p=12; the
    linear-counting regime makes small cardinalities near-exact.

    Complements the exact-below-saturation KMV sketch (:func:`kmv_distinct`):
    KMV's exchange grows with k, HLL's is constant — at 10^10-URL seen-set
    scale this is the cheap "how many distinct" probe."""

    def batch_regs(t: pa.Table) -> pa.Table:
        h = hash64_column(t.column(col).drop_null())
        regs = hll_batch_registers(h)
        blob = regs.tobytes()
        bk = int.from_bytes(hashlib.md5(blob).digest()[:8], "little") % n_buckets
        return pa.table(
            {
                "bk": pa.array([bk], pa.int64()),
                "regs": pa.array([blob], pa.binary()),
            }
        )

    def fold(g: pa.Table) -> pa.Table:
        arrs = [
            np.frombuffer(b, np.uint8) for b in g.column("regs").to_pylist()
        ]
        return pa.table(
            {"regs": pa.array([np.maximum.reduce(arrs).tobytes()], pa.binary())}
        )

    rows = (
        ds.map_batches(batch_regs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bk")
        .map_groups(fold, batch_format="pyarrow")
        .take_all()  # <= n_buckets 4 KiB rows — constant driver bound
    )
    if not rows:
        return 0
    regs = np.maximum.reduce([np.frombuffer(r["regs"], np.uint8) for r in rows])
    return hll_estimate(regs)


def hll_distinct_per_key(ds, *, key_col: str, col: str):
    """Per-key approximate distinct counts via keyed HyperLogLog →
    Dataset of ``(key_col, n_est)``. The grouped analogue of
    :func:`hll_distinct` with a SPARSE register exchange: each batch
    ships (key, register_idx, rho) triples for its nonzero registers —
    pre-deduped to the per-(key, register) max by one vectorized lexsort
    + run scan, so a (batch, key) pair contributes at most
    ``min(n_distinct, 4096)`` 3-column rows no matter how many values it
    holds (KMV's per-key exchange grows with k; this one is hard-capped
    at m). One ``groupby(key)`` folds triples into dense registers via
    ``np.maximum.at`` — associative, so estimates are bit-identical at
    any parallelism. ~1.6% standard error per key at p=12, near-exact in
    the linear-counting regime (small keys).

    The 100-TB use: distinct-outbound-hosts per host, distinct users per
    segment — anywhere an exact per-key COUNT(DISTINCT) would shuffle
    every value."""

    def batch_sparse(t: pa.Table) -> pa.Table:
        t = t.select([key_col, col])
        if t.num_rows and t.column(col).null_count:
            t = t.filter(pc.is_valid(t.column(col)))
        keyc = t.column(key_col).combine_chunks()
        if t.num_rows == 0:
            return pa.table(
                {
                    key_col: keyc,
                    "ridx": pa.array([], pa.int32()),
                    "rho": pa.array([], pa.int32()),
                }
            )
        h = hash64_column(t.column(col))
        idx = (h >> _U64(64 - _HLL_P)).astype(np.int64)
        w = h & _U64((1 << (64 - _HLL_P)) - 1)
        _, exp = np.frexp(w.astype(np.float64))
        rho = np.where(w > 0, (64 - _HLL_P) + 1 - exp, (64 - _HLL_P) + 1).astype(
            np.int64
        )
        codes = (
            pc.dictionary_encode(keyc)
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        order = np.lexsort((-rho, idx, codes))
        kc, ic = codes[order], idx[order]
        first = np.ones(len(kc), dtype=bool)  # max-rho row per (key, ridx)
        first[1:] = (kc[1:] != kc[:-1]) | (ic[1:] != ic[:-1])
        sel = order[first]
        return pa.table(
            {
                key_col: keyc.take(pa.array(sel)),
                "ridx": pa.array(idx[sel].astype(np.int32), pa.int32()),
                "rho": pa.array(rho[sel].astype(np.int32), pa.int32()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        regs = np.zeros(_HLL_M, np.uint8)
        np.maximum.at(
            regs,
            group.column("ridx").to_numpy(zero_copy_only=False),
            group.column("rho").to_numpy(zero_copy_only=False).astype(np.uint8),
        )
        return pa.table(
            {
                key_col: group.column(key_col).slice(0, 1).combine_chunks(),
                "n_est": pa.array([hll_estimate(regs)], pa.int64()),
            }
        )

    return (
        ds.map_batches(batch_sparse, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(key_col)
        .map_groups(fold, batch_format="pyarrow")
    )


def hll_estimate_runs(rho: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Vectorized HLL estimates for RUNS of deduped (register, rho) rows,
    each run sorted by ascending register index → int64 estimate per run
    (floor). Used by the per-node HyperANF fold (``graph.neighborhood_
    sizes``), where thousands of estimates happen per bucket and the
    dense 4 KiB array per node would be waste.

    The float contract is PINNED so the distributed fold and the
    sequential reference land on identical bits: per run, ``raw =
    αm² / ((m − run_len)·2⁰ + Σ 2^−rho)`` with the Σ one
    ``np.add.reduceat`` in ascending register order, then the linear-
    counting branch ``m·ln(m/V)`` when ``raw ≤ 2.5m`` and empty
    registers exist. Any reordering of the sum would change bits —
    callers must present rows register-sorted."""
    m = _HLL_M
    alpha = 0.7213 / (1.0 + 1.079 / m)
    lens = np.diff(np.append(starts, len(rho)))
    if not len(starts):
        return np.zeros(0, np.int64)
    inv = np.ldexp(1.0, -rho.astype(np.int64))
    sums = np.add.reduceat(inv, starts)
    denom = (m - lens).astype(np.float64) + sums
    raw = alpha * m * m / denom
    v = (m - lens).astype(np.float64)
    with np.errstate(divide="ignore"):
        lin = m * np.log(np.where(v > 0, m / np.maximum(v, 1e-300), 1.0))
    est = np.where((raw <= 2.5 * m) & (lens < m), lin, raw)
    return est.astype(np.int64)


# ---------------------------------------------------------------------------
# Count-Min frequency sketch

_CMS_W = 2048  # counters per row
_CMS_D = 4  # independent rows
_CMS_SALTS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
)


def cms_batch_counts(hashes: np.ndarray) -> np.ndarray:
    """Fold a batch of 64-bit value hashes into a fresh int64[d, w]
    Count-Min counter array (Cormode & Muthukrishnan 2005): row i indexes
    by ``splitmix64(h ^ salt_i) % w`` and adds 1 per occurrence. Integer
    adds are associative, so per-batch arrays merge by elementwise sum in
    any order — the sketch is exactly mergeable, no float anywhere."""
    counts = np.zeros((_CMS_D, _CMS_W), np.int64)
    for i, salt in enumerate(_CMS_SALTS):
        idx = (_splitmix64(hashes ^ _U64(salt)) % _U64(_CMS_W)).astype(np.int64)
        np.add.at(counts[i], idx, 1)
    return counts


def cms_estimate(counts: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Point-frequency estimates for the given value hashes: the min over
    the d row counters (the classic CM upper bound — never an
    underestimate; overestimate ≤ 2n/w with prob ≥ 1 − 2^−d)."""
    ests = np.empty((_CMS_D, len(hashes)), np.int64)
    for i, salt in enumerate(_CMS_SALTS):
        idx = (_splitmix64(hashes ^ _U64(salt)) % _U64(_CMS_W)).astype(np.int64)
        ests[i] = counts[i][idx]
    return ests.min(axis=0)


def cms_counts(ds, *, col: str, n_buckets: int = 32) -> np.ndarray:
    """Distributed Count-Min fold over ``ds[col]`` → the final int64[d, w]
    counter array. Each batch ships ONE 64 KiB counter row (O(n_batches),
    cardinality-free — the frequency-query counterpart of
    :func:`hll_distinct`); a bucketed groupby sums partials elementwise
    and ≤ n_buckets rows reach the driver. Integer sums are associative
    ⇒ the array is bit-identical at any parallelism.

    The 100-TB use: approximate per-URL / per-term hit counts without a
    key shuffle — point queries, heavy-hitter confirmation, join-size
    estimation. Pair with :func:`mg_topk` (which finds WHICH keys are
    heavy; CMS answers HOW OFTEN for any key after one pass)."""

    def batch_counts(t: pa.Table) -> pa.Table:
        c = t.column(col)
        if c.null_count:
            c = c.drop_null()
        counts = (
            cms_batch_counts(hash64_column(c))
            if len(c)
            else np.zeros((_CMS_D, _CMS_W), np.int64)
        )
        blob = counts.tobytes()
        bk = int.from_bytes(hashlib.md5(blob).digest()[:8], "little") % n_buckets
        return pa.table(
            {
                "bk": pa.array([bk], pa.int64()),
                "counts": pa.array([blob], pa.binary()),
            }
        )

    def fold(g: pa.Table) -> pa.Table:
        arrs = [
            np.frombuffer(b, np.int64).reshape(_CMS_D, _CMS_W)
            for b in g.column("counts").to_pylist()
        ]
        summed = np.sum(np.stack(arrs), axis=0, dtype=np.int64)
        return pa.table({"counts": pa.array([summed.tobytes()], pa.binary())})

    rows = (
        ds.map_batches(batch_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bk")
        .map_groups(fold, batch_format="pyarrow")
        .take_all()  # <= n_buckets 64 KiB rows — constant driver bound
    )
    total = np.zeros((_CMS_D, _CMS_W), np.int64)
    for r in rows:
        total += np.frombuffer(r["counts"], np.int64).reshape(_CMS_D, _CMS_W)
    return total


# ---------------------------------------------------------------------------
# AMS second-moment (F2) sketch

_AMS_K = 64  # estimators (8 groups × 8 for the pinned median-of-means)
_AMS_SALT = _U64(0x2545F4914F6CDD1D)


def ams_batch_counters(hashes: np.ndarray) -> np.ndarray:
    """Fold a batch of value hashes into k signed AMS counters (Alon,
    Matias & Szegedy 1996): estimator j adds ``s_j(v) ∈ {±1}`` per
    occurrence, with the sign drawn from bit j of
    ``splitmix64(h ^ salt)`` (k ≤ 64 so one rehash serves all
    estimators). Integer adds ⇒ exactly mergeable in any order."""
    signs_bits = _splitmix64(hashes ^ _AMS_SALT)
    counters = np.empty(_AMS_K, np.int64)
    for j in range(_AMS_K):
        bit = ((signs_bits >> _U64(j)) & _U64(1)).astype(np.int64)
        counters[j] = int((2 * bit - 1).sum())
    return counters


def ams_f2_estimate(counters: np.ndarray) -> int:
    """F2 = Σ count(v)² estimate: mean of counter² within each of 8
    groups of 8, then the median of the 8 group means — fixed grouping
    and order, so the float chain is pinned. Floor to int64."""
    sq = counters.astype(np.float64) ** 2
    means = sq.reshape(8, 8).mean(axis=1)
    return int(np.median(means))


def ams_f2(ds, *, col: str, n_buckets: int = 32) -> int:
    """Distributed AMS F2 (repeat rate / skew) of ``ds[col]``: each batch
    ships ONE k-counter row (k = 64 int64s — O(n_batches) exchange),
    bucketed elementwise-sum fold, ≤ n_buckets rows to the driver.
    Integer counter sums are associative ⇒ bit-identical at any
    parallelism; only the final estimate touches floats, through the
    pinned median-of-means.

    The 100-TB use: detecting key skew BEFORE paying for a shuffle — F2
    ≈ n²/k for uniform keys but → n² under a hot key, so
    F2 / n (the repeat rate) says whether a groupby needs salting. The
    second-moment member of the sketch family (cardinality = KMV/HLL,
    heavy hitters = MG, quantiles = QS, frequency = CMS)."""

    def batch_counters(t: pa.Table) -> pa.Table:
        c = t.column(col)
        if c.null_count:
            c = c.drop_null()
        counters = (
            ams_batch_counters(hash64_column(c))
            if len(c)
            else np.zeros(_AMS_K, np.int64)
        )
        blob = counters.tobytes()
        bk = int.from_bytes(hashlib.md5(blob).digest()[:8], "little") % n_buckets
        return pa.table(
            {
                "bk": pa.array([bk], pa.int64()),
                "counters": pa.array([blob], pa.binary()),
            }
        )

    def fold(g: pa.Table) -> pa.Table:
        arrs = [
            np.frombuffer(b, np.int64) for b in g.column("counters").to_pylist()
        ]
        summed = np.sum(np.stack(arrs), axis=0, dtype=np.int64)
        return pa.table({"counters": pa.array([summed.tobytes()], pa.binary())})

    rows = (
        ds.map_batches(batch_counters, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bk")
        .map_groups(fold, batch_format="pyarrow")
        .take_all()  # <= n_buckets 512-byte rows
    )
    total = np.zeros(_AMS_K, np.int64)
    for r in rows:
        total += np.frombuffer(r["counters"], np.int64)
    return ams_f2_estimate(total)


# ---------------------------------------------------------------------------
# Bloom filter (membership)

_BLOOM_SALT = _U64(0x9E3779B97F4A7C15)


def bloom_positions(hashes: np.ndarray, *, m_bits: int, k: int) -> np.ndarray:
    """Bit positions set by a batch of value hashes: Kirsch-Mitzenmacher
    double hashing ``pos_i = (h1 + i*h2) mod m`` with ``h2`` forced odd
    (full period when m is a power of two). Returns the distinct sorted
    uint64 positions — the batch's whole contribution to the filter."""
    if not len(hashes):
        return np.zeros(0, _U64)
    h1 = hashes.astype(_U64, copy=False)
    h2 = _splitmix64(hashes ^ _BLOOM_SALT) | _U64(1)
    i = np.arange(k, dtype=_U64)[:, None]
    pos = (h1[None, :] + i * h2[None, :]) % _U64(m_bits)
    return np.unique(pos)


class BloomFilter:
    """A built Bloom filter: the uint8 bitmap plus the BUILD-time probe
    count ``k``, carried together so a probe can never silently run with a
    mismatched ``k`` — probing with fewer/other hash functions than the
    build used breaks the no-false-negatives guarantee without any error.
    Delegates ``tobytes``/``len`` so bitmap-level call sites keep working."""

    __slots__ = ("bitmap", "k")

    def __init__(self, bitmap: np.ndarray, k: int) -> None:
        self.bitmap = bitmap
        self.k = int(k)

    def tobytes(self) -> bytes:
        return self.bitmap.tobytes()

    def __len__(self) -> int:
        return len(self.bitmap)


def _bloom_parts(bloom, k) -> tuple[np.ndarray, int]:
    """Resolve (bitmap, k) from a BloomFilter or a raw bitmap array. An
    explicit k that disagrees with a BloomFilter's build k is an error,
    not a silent false-negative source."""
    if isinstance(bloom, BloomFilter):
        if k is not None and int(k) != bloom.k:
            raise ValueError(
                f"probe k={k} != build k={bloom.k}: probing with a different "
                "hash count than the build voids the no-false-negative "
                "guarantee"
            )
        return bloom.bitmap, bloom.k
    return bloom, 7 if k is None else int(k)


def bloom_contains(bloom, hashes: np.ndarray, *, k: int | None = None) -> np.ndarray:
    """Probe value hashes against a built filter → bool array. No false
    negatives ever; false-positive odds ≈ (1 - e^(-k·n/m))^k. Pass the
    :class:`BloomFilter` from :func:`bloom_build` (k travels with it); a
    raw bitmap is accepted for compatibility with k defaulting to 7."""
    bitmap, k = _bloom_parts(bloom, k)
    m_bits = len(bitmap) * 8
    if not len(hashes):
        return np.zeros(0, bool)
    h1 = hashes.astype(_U64, copy=False)
    h2 = _splitmix64(hashes ^ _BLOOM_SALT) | _U64(1)
    out = np.ones(len(hashes), bool)
    for i in range(k):  # k probes, each fully vectorized
        pos = (h1 + _U64(i) * h2) % _U64(m_bits)
        byte = (pos >> _U64(3)).astype(np.int64)
        bit = (_U64(1) << (pos & _U64(7))).astype(np.uint8)
        out &= (bitmap[byte] & bit) != 0
    return out


def bloom_build(
    ds, *, col: str, m_bits: int = 1 << 22, k: int = 7, n_buckets: int = 32
) -> "BloomFilter":
    """Distributed Bloom-filter build over ``ds[col]`` → a
    :class:`BloomFilter` carrying the final uint8 bitmap (m_bits/8 bytes)
    AND the build k, so probes can't mismatch the hash count. The
    membership member of the sketch family
    (cardinality = KMV/HLL, heavy hitters = MG, quantiles = QS,
    frequency = CMS, F2 = AMS): at 10^10-URL scale this is the seen-set
    / "probably already crawled" primitive — build once over the visited
    table, broadcast the bitmap, and gate candidate frontiers row-locally
    with ZERO false negatives (a dropped-as-seen URL really was seen
    unless a false positive fired, odds (1-e^(-kn/m))^k — size m to the
    corpus: 10^10 keys want m = 10^11 bits = 12.5 GB, sharded by key
    range at that point).

    Exchange shape: each batch ships ONE row — SPARSE sorted uint64
    set-bit positions while cheaper than the dense bitmap, the dense
    bitmap beyond (the hll_distinct_per_key hybrid; a small batch costs
    8 bytes/bit set, never m/8). Bit OR is associative + commutative, so
    the folded bitmap is BIT-IDENTICAL at any batch split or
    parallelism; a bucketed groupby folds partials and <= n_buckets
    rows reach the driver."""
    m_bytes = m_bits // 8

    def batch_bits(t: pa.Table) -> pa.Table:
        c = t.column(col)
        if c.null_count:
            c = c.drop_null()
        pos = bloom_positions(hash64_column(c), m_bits=m_bits, k=k) if len(c) else np.zeros(0, _U64)
        if len(pos) * 8 < m_bytes:
            form, blob = "sparse", pos.tobytes()
        else:
            dense = np.zeros(m_bytes, np.uint8)
            np.bitwise_or.at(
                dense,
                (pos >> _U64(3)).astype(np.int64),
                (_U64(1) << (pos & _U64(7))).astype(np.uint8),
            )
            form, blob = "dense", dense.tobytes()
        bk = int.from_bytes(hashlib.md5(blob).digest()[:8], "little") % n_buckets
        return pa.table(
            {
                "bk": pa.array([bk], pa.int64()),
                "form": pa.array([form], pa.string()),
                "bits": pa.array([blob], pa.binary()),
            }
        )

    def _or_into(dense: np.ndarray, form: str, blob: bytes) -> None:
        if form == "dense":
            np.bitwise_or(dense, np.frombuffer(blob, np.uint8), out=dense)
        else:
            pos = np.frombuffer(blob, _U64)
            np.bitwise_or.at(
                dense,
                (pos >> _U64(3)).astype(np.int64),
                (_U64(1) << (pos & _U64(7))).astype(np.uint8),
            )

    def fold(g: pa.Table) -> pa.Table:
        dense = np.zeros(m_bytes, np.uint8)
        for form, blob in zip(
            g.column("form").to_pylist(), g.column("bits").to_pylist()
        ):
            _or_into(dense, form, blob)
        return pa.table(
            {
                "form": pa.array(["dense"], pa.string()),
                "bits": pa.array([dense.tobytes()], pa.binary()),
            }
        )

    rows = (
        ds.map_batches(batch_bits, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bk")
        .map_groups(fold, batch_format="pyarrow")
        .take_all()  # <= n_buckets bitmap rows — constant driver bound
    )
    total = np.zeros(m_bytes, np.uint8)
    for r in rows:
        _or_into(total, r["form"], r["bits"])
    return BloomFilter(total, k)


def bloom_filter_ds(ds, bloom, *, col: str, k: int | None = None, negate: bool = False):
    """Row-local membership gate: keep rows whose ``col`` is (probably)
    in the filter — or certainly NOT in it with ``negate=True``, the
    frontier-dedup direction (zero false negatives means nothing new is
    ever wrongly dropped... new URLs survive unless an FP fires). The
    bitmap ships ONCE via ``ray.put``; every batch probes the shared
    object-store copy.

    Null rows: the build DROPS nulls, so a null was never inserted —
    null rows probe as not-present (kept under ``negate=True``, dropped
    otherwise), never hashed as a sentinel ""/0 that could collide with
    a real seen value."""
    import ray

    bitmap, k = _bloom_parts(bloom, k)
    ref = ray.put(bitmap)

    def gate(t: pa.Table) -> pa.Table:
        bm = ray.get(ref)
        c = t.column(col)
        hit = np.zeros(len(c), bool)
        if c.null_count < len(c):
            valid = pc.is_valid(c).combine_chunks().to_numpy(zero_copy_only=False)
            hit[valid] = bloom_contains(bm, hash64_column(c.drop_null()), k=k)
        mask = ~hit if negate else hit
        return t.filter(pa.array(mask))

    return ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def kmv_rolling_distinct(ds, *, day_col: str, col: str, window: int = 3, k: int = 2048):
    """Trailing-window distinct counts — rolling DAU/WAU — by MERGING
    per-day KMV sketches instead of re-scanning each window: the payoff
    of mergeable summaries applied across OVERLAPPING windows (a day's
    events are read once; its bottom-k sketch feeds every trailing
    window that covers it).

    Returns a Dataset of ``(day, n_distinct)``: for each epoch-day value
    present in ``ds[day_col]`` (int64), the distinct count of ``col``
    over days ``[day - window + 1, day]``. Windows are reported only
    for days present in the data (the pinned semantics the SQL oracle
    mirrors with a DISTINCT-day self-join).

    Scale shape: per-batch per-day bottom-k partials (the
    kmv_distinct_per_key run scan — the exchange is ≤ k 8-byte hashes
    per (batch, day)); the DISTINCT day set is pulled once to the
    driver under the CALENDAR bound (10 years of data = 3,653 rows —
    declared, not data-dependent) and broadcast; each partial row then
    replicates to the ≤ window present end-days it feeds (a ×window row
    multiplier on sketch rows, never on events) and ONE
    ``groupby(end_day)`` fold estimates each window. Exact below
    saturation (every window's true cardinality < k) — the regime the
    COUNT(DISTINCT) trailing-join oracle certifies; ±1/sqrt(k-2) per
    window beyond."""
    import ray

    flip = _U64(1 << 63)

    def batch_sketch(t: pa.Table) -> pa.Table:
        tt = t.select([day_col, col])
        if tt.num_rows and tt.column(col).null_count:
            tt = tt.filter(pc.is_valid(tt.column(col)))
        if not tt.num_rows:
            return pa.table(
                {
                    "day": pa.array([], pa.int64()),
                    "h": pa.array([], pa.int64()),
                }
            )
        day = tt.column(day_col).to_numpy(zero_copy_only=False).astype(np.int64)
        signed = (hash64_column(tt.column(col)) ^ flip).view(np.int64)
        order = np.lexsort((signed, day))
        sd, sh = day[order], signed[order]
        first = np.ones(len(sd), dtype=bool)
        first[1:] = (sd[1:] != sd[:-1]) | (sh[1:] != sh[:-1])
        sd, sh = sd[first], sh[first]
        newk = np.ones(len(sd), dtype=bool)
        newk[1:] = sd[1:] != sd[:-1]
        starts = np.flatnonzero(newk)
        runlen = np.diff(np.append(starts, len(sd)))
        rank = np.arange(len(sd)) - np.repeat(starts, runlen)
        keep = rank < k  # sorted within day → bottom-k
        return pa.table(
            {
                "day": pa.array(sd[keep], pa.int64()),
                "h": pa.array(sh[keep], pa.int64()),
            }
        )

    partials = ds.map_batches(
        batch_sketch, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # consumed twice: day-set pass + replicate pass
    day_rows = partials.groupby("day").count().take_all()  # calendar-bounded
    days = np.array(sorted(r["day"] for r in day_rows), dtype=np.int64)
    days_ref = ray.put(days)

    def replicate(t: pa.Table) -> pa.Table:
        dd = ray.get(days_ref)
        day = t.column("day").to_numpy(zero_copy_only=False)
        h = t.column("h").to_numpy(zero_copy_only=False)
        outs = []
        for off in range(window):
            e = day + off
            if not len(dd):
                continue
            pos = np.searchsorted(dd, e)
            pos_c = np.minimum(pos, len(dd) - 1)
            ok = dd[pos_c] == e  # only windows ending on a PRESENT day
            outs.append(
                pa.table(
                    {
                        "day": pa.array(e[ok], pa.int64()),
                        "h": pa.array(h[ok], pa.int64()),
                    }
                )
            )
        return (
            pa.concat_tables(outs)
            if outs
            else pa.table(
                {"day": pa.array([], pa.int64()), "h": pa.array([], pa.int64())}
            )
        )

    def fold(g: pa.Table) -> pa.Table:
        hs = (
            g.column("h").to_numpy(zero_copy_only=False).astype(np.int64)
        ).view(_U64) ^ flip
        return pa.table(
            {
                "day": g.column("day").slice(0, 1),
                "n_distinct": pa.array([kmv_estimate(hs, k)], pa.int64()),
            }
        )

    return (
        partials.map_batches(replicate, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("day")
        .map_groups(fold, batch_format="pyarrow")
    )
