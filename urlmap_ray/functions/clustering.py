"""Distributed k-means clustering over an embedding column.

Corpus curation uses k-means constantly: topic bucketing, diversity-
balanced sampling, IVF index training (``similarity.py`` trains its
cells on a sample; this is the full-data counterpart), and cluster-
based quality triage. The scale shape is the textbook one:

- **Assignment is row-local**: every block computes nearest-centroid
  with one matmul against the k × d centroids (a few KB). The corpus
  never moves — no shuffle at all.
- **The update is a tiny mergeable partial**: each block emits per-
  cluster (count, vector-sum); one fold task sums k rows of d numbers.
  Exchange volume is O(blocks × k × d), independent of row count.
- **Iteration state is pinned once** (graph.py's kernel shape): one pin
  task per block quantizes it and leaves its matrix and ids in the
  object store; each Lloyd iteration is one stateless task per pinned
  block plus the fold task, not a fresh Dataset job (a Dataset launch
  costs ~1s on a busy driver; ×iters that dominates). Centroids pass
  from task to task by ref; the driver holds refs and the O(blocks)
  row counts.

**Determinism across cluster sizes — the fixed-point trick.** Float
centroid sums are summation-order-dependent, so a distributed run
would drift (last-ulp) from a single-process one and per-row
assignments near cluster boundaries could flip. Instead, embeddings
are quantized once to int64 fixed-point (``round(x * 2^20)``) and ALL
arithmetic — distances, partial sums, centroid division — is exact
integer math. Integer addition is associative and commutative, so the
fold order (hence partitioning, batch size, task count) cannot change
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

from .graph import _blocks

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


def _pin(vec_col: str, id_col: str, scale: int, k: int, t: pa.Table):
    """Pin task over one block: its quantized matrix and ids, its ``k``
    smallest-id (ids, rows) as seed candidates, and its row count."""
    if not t.num_rows or vec_col not in t.column_names:
        empty = np.zeros(0, np.int64)
        return empty, empty, (empty, empty), 0
    xq = _quantize(_emb_matrix(t, vec_col), scale)
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    first = np.argsort(ids, kind="stable")[:k]
    return xq, ids, (ids[first], xq[first]), len(ids)


def _seed(k: int, *cands) -> np.ndarray:
    """Initial centroids: the rows of the ``k`` smallest ids over the
    blocks' seed candidates."""
    ids = np.concatenate([c[0] for c in cands])
    return np.concatenate([c[1] for c in cands])[np.argsort(ids, kind="stable")[:k]]


def _fold(cents: np.ndarray, *parts) -> np.ndarray:
    """One Lloyd update from the blocks' (counts, sums) partials: integer
    adds, so the fold order is irrelevant."""
    return _update(cents, sum(c for c, _ in parts), sum(s for _, s in parts))


def _label_block(id_col: str, ids: np.ndarray, xq: np.ndarray, cents: np.ndarray) -> pa.Table:
    return pa.table(
        {id_col: pa.array(ids, pa.int64()), "cluster": pa.array(_assign(xq, cents), pa.int32())}
    )


def kmeans_assign(
    ds,
    *,
    k: int = 8,
    iters: int = 5,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    scale: int = DEFAULT_SCALE,
):
    """Lloyd's k-means over ``ds[vec_col]`` → (id_col, cluster) Dataset,
    one output block per non-empty input block, in no promised order.

    See the module docstring for the scale shape and the fixed-point
    determinism argument. Initial centroids are the (quantized) vectors
    of the ``k`` smallest ids — deterministic and cheap: each pin task
    offers its block's ``k`` smallest-id rows and one seed task picks
    the global ``k`` (at 100 TB you would seed from a fixed id list
    instead)."""
    import ray
    import ray.data

    slim = ds.map_batches(
        lambda t: t.select([id_col, vec_col]), batch_format="pyarrow",
        zero_copy_batch=True,
    )
    pin = ray.remote(num_cpus=1)(_pin).options(num_returns=4)
    pins = [pin.remote(vec_col, id_col, scale, k, b) for b in _blocks(slim)]
    rows = ray.get([p[3] for p in pins])
    if sum(rows) < k:
        raise ValueError(f"k={k} but only {sum(rows)} rows")
    pins = [p for p, r in zip(pins, rows) if r]
    cents = ray.remote(num_cpus=1)(_seed).remote(k, *(p[2] for p in pins))
    partial = ray.remote(num_cpus=1)(_partials)
    fold = ray.remote(num_cpus=1)(_fold)
    for _ in range(iters):
        cents = fold.remote(cents, *(partial.remote(p[0], cents, k) for p in pins))
    label = ray.remote(num_cpus=1)(_label_block)
    return ray.data.from_arrow_refs([label.remote(id_col, p[1], p[0], cents) for p in pins])


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
