"""Distributed k-means clustering over an embedding column.

Corpus curation uses k-means constantly: topic bucketing, diversity-
balanced sampling, IVF index training (``similarity.py`` trains its
cells on a sample; this is the full-data counterpart), and cluster-
based quality triage. The scale shape is the textbook one:

- **Assignment is row-local**: centroids (k × d, a few KB) broadcast
  once per iteration via ``ray.put``; every batch computes nearest-
  centroid with one matmul. The corpus never moves — no shuffle at all.
- **The update is a tiny mergeable partial**: each shard emits per-
  cluster (count, vector-sum); the driver folds k rows of d numbers.
  Exchange volume is O(actors × k × d), independent of row count.
- **Iteration state lives in actors** (graph.py's PageRank/HITS keep
  theirs as object-store bucket slices read by stateless tasks instead,
  cf. ``_pin_buckets``): embedding blocks are
  quantized ONCE and pinned in a round-robin actor pool; each Lloyd
  iteration is a round of actor RPCs, not a fresh Dataset job (a
  Dataset launch costs ~1s on a busy driver; ×iters that dominates).

**Determinism across cluster sizes — the fixed-point trick.** Float
centroid sums are summation-order-dependent, so a distributed run
would drift (last-ulp) from a single-process one and per-row
assignments near cluster boundaries could flip. Instead, embeddings
are quantized once to int64 fixed-point (``round(x * 2^20)``) and ALL
arithmetic — distances, partial sums, centroid division — is exact
integer math. Integer addition is associative and commutative, so the
fold order (hence partitioning, batch size, actor count) cannot change
any result bit: a 1-core run, a 32-core run, and the pure-numpy
reference (:func:`kmeans_reference`) produce identical labels. Ties
(exact equal distances) break to the lowest cluster id; empty clusters
keep their previous centroid; initial centroids are the vectors of the
k smallest ids. Quantization costs ~1e-6 relative distance error —
irrelevant for bucketing, and the same tradeoff the PageRank query
makes with rank_ppb.

Overflow budget (int64): |x_q| ≤ s·max|x|; with s=2^20 and unit-scale
embeddings, x·c ≤ d·2^40 ≈ 2^46 for d=64, and a centroid sum over n
members ≤ n·2^20 — safe past 10^12 rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["kmeans_assign", "kmeans_reference"]

DEFAULT_SCALE = 1 << 20


def _quantize(mat: np.ndarray, scale: int) -> np.ndarray:
    """float embeddings → int64 fixed-point (round-half-even, like
    np.round — pinned: the reference must match bit-for-bit)."""
    return np.round(np.asarray(mat, dtype=np.float64) * scale).astype(np.int64)


def _emb_matrix(t: pa.Table, vec_col: str) -> np.ndarray:
    """Zero-copy-ish fixed-size-list extraction (cf. similarity._to_matrix)."""
    col = t.column(vec_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    values = col.values.to_numpy(zero_copy_only=False)
    return values.reshape(len(col), -1)


def _assign(xq: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Nearest centroid by exact integer squared-L2; ties → lowest id.

    argmin(||x-c||²) == argmin(||c||² - 2 x·c): the ||x||² term is
    per-row constant. np.argmin returns the first minimum, which is the
    lowest cluster id."""
    cost = (cents * cents).sum(axis=1)[None, :] - 2 * (xq @ cents.T)
    return np.argmin(cost, axis=1).astype(np.int32)


def _partials(xq: np.ndarray, cents: np.ndarray, k: int):
    """(counts[k], sums[k,d]) int64 partial for one shard — mergeable by
    plain addition, order-free because everything is integer."""
    a = _assign(xq, cents)
    counts = np.bincount(a, minlength=k).astype(np.int64)
    sums = np.zeros((k, xq.shape[1]), dtype=np.int64)
    np.add.at(sums, a, xq)
    return counts, sums


def _update(cents: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """New centroids: exact floor division; empty clusters keep the old."""
    new = cents.copy()
    nz = counts > 0
    new[nz] = sums[nz] // counts[nz, None]
    return new


class _VecShard:
    """Pins a set of quantized embedding blocks; one RPC per iteration."""

    def __init__(self, block_refs, vec_col: str, id_col: str, scale: int):
        import ray

        mats, ids = [], []
        for t in map(ray.get, block_refs):
            if t.num_rows and vec_col in t.column_names:
                mats.append(_quantize(_emb_matrix(t, vec_col), scale))
                ids.append(t.column(id_col).to_numpy(zero_copy_only=False))
        self.xq = np.concatenate(mats) if mats else np.zeros((0, 1), np.int64)
        self.ids = (
            np.concatenate(ids) if ids else np.zeros(0, np.int64)
        ).astype(np.int64)

    def partial(self, cents: np.ndarray, k: int):
        if not len(self.xq):
            return np.zeros(k, np.int64), np.zeros((k, cents.shape[1]), np.int64)
        return _partials(self.xq, cents, k)

    def labels(self, cents: np.ndarray):
        if not len(self.xq):
            return self.ids, np.zeros(0, np.int32)
        return self.ids, _assign(self.xq, cents)


def kmeans_assign(
    ds,
    *,
    k: int = 8,
    iters: int = 5,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    scale: int = DEFAULT_SCALE,
):
    """Lloyd's k-means over ``ds[vec_col]`` → (id_col, cluster) Dataset.

    See the module docstring for the scale shape and the fixed-point
    determinism argument. Initial centroids are the (quantized) vectors
    of the ``k`` smallest ids — deterministic and cheap (one sort-limit
    of the id column's top-k rows, not a global sort at scale: Ray's
    sort+limit prunes, and at 100 TB you would seed from a fixed id
    list instead)."""
    import ray

    slim = ds.map_batches(
        lambda t: t.select([id_col, vec_col]), batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    seed = slim.sort(id_col).limit(k).take_all()
    if len(seed) < k:
        raise ValueError(f"k={k} but only {len(seed)} rows")
    cents = _quantize(np.asarray([r[vec_col] for r in seed], dtype=np.float64), scale)

    block_refs = slim.to_arrow_refs()
    shard_cls = ray.remote(num_cpus=1)(_VecShard)
    n_actors = max(1, min(len(block_refs), int(ray.cluster_resources().get("CPU", 8))))
    actors = [
        shard_cls.remote(block_refs[i::n_actors], vec_col, id_col, scale)
        for i in range(n_actors)
    ]
    try:
        for _ in range(iters):
            cents_ref = ray.put(cents)
            counts = np.zeros(k, np.int64)
            sums = np.zeros((k, cents.shape[1]), np.int64)
            for c, s in ray.get([a.partial.remote(cents_ref, k) for a in actors]):
                counts += c  # integer adds: fold order is irrelevant
                sums += s
            cents = _update(cents, counts, sums)
        cents_ref = ray.put(cents)
        parts = ray.get([a.labels.remote(cents_ref) for a in actors])
    finally:
        for a in actors:
            ray.kill(a)

    ids = np.concatenate([p[0] for p in parts])
    labs = np.concatenate([p[1] for p in parts])
    order = np.argsort(ids, kind="stable")
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "cluster": pa.array(labs[order].astype(np.int32), pa.int32()),
            }
        )
    )


def kmeans_reference(
    table: pa.Table,
    *,
    k: int = 8,
    iters: int = 5,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    scale: int = DEFAULT_SCALE,
) -> pa.Table:
    """Single-process ground truth: identical integer arithmetic, one
    numpy pass — the oracle the distributed path must match exactly."""
    order = np.argsort(table.column(id_col).to_numpy(zero_copy_only=False))
    table = table.take(order)
    ids = table.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    xq = _quantize(_emb_matrix(table, vec_col), scale)
    if len(ids) < k:
        raise ValueError(f"k={k} but only {len(ids)} rows")
    cents = xq[:k].copy()
    for _ in range(iters):
        counts, sums = _partials(xq, cents, k)
        cents = _update(cents, counts, sums)
    return pa.table(
        {
            id_col: pa.array(ids, pa.int64()),
            "cluster": pa.array(_assign(xq, cents), pa.int32()),
        }
    )
