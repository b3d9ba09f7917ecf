"""Distributed quality-classifier TRAINING: full-batch logistic
regression over hashed n-gram features, with bit-deterministic integer
gradients — the training half of the fastText-style quality gate whose
INFERENCE half is ``quality_model.py``.

Production corpus pipelines train their quality/language filters on the
corpus itself (CCNet trains fastText on Wikipedia-vs-crawl labels; the
GPT-3/Llama data papers train LR over hashed features the same way).
The scale shape is the kmeans/PCA one (clustering.py, decomposition.py):

- **Features are pinned once per block** — one pin task per block
  leaves its hashed unigram+bigram bucket ids per doc
  (``quality_model._token_hashes`` contract: utf8proc lowercase, unicode
  whitespace split, pandas hash, splitmix64 bigram combine), flattened
  with per-doc offsets, in the object store. Text is read once and never
  re-tokenized across iterations.
- **Each GD iteration is one task round**, not a Dataset job: one
  stateless gradient task per pinned block returns one int64 gradient
  vector, and one step task folds them and returns the new weights
  (``dim`` int64, ~128 KB at 2^14) by ref — exchange volume
  O(blocks × dim), independent of row count. The driver holds refs and
  the O(blocks) doc counts.
- **Determinism across parallelism — exact-integer gradients.** The
  per-doc margin is an EXACT integer (int64 weights summed over integer
  feature multiplicities); the per-doc float chain σ(z_q / S_W) − y is
  row-local (identical IEEE ops everywhere); the residual is quantized
  to int64 (``np.round(r · S_R)``, |r| < 1 so |r_q| ≤ 2^31) BEFORE any
  summation, so gradient partials are associative integer sums — fold
  order, batch size and block count cannot change any bit. Partials are
  folded and the weight step applied in arbitrary-precision Python ints
  (the PCA contract), so no corpus size overflows. The update rounds
  ``lr · g / n`` back to weight fixed-point with nearest-ties-to-even
  integer division (:func:`_round_div`) — pinned, no float touches the
  weights. A 1-core run, a 32-core run and the single-process
  :func:`lr_reference` produce identical weights and scores.

Overflow budget: |z_q| ≤ tokens·max|w_q|; weights stay small (gradient
steps shrink as the model fits). A block's int64 gradient entry sums at
most its feature-instance count of terms |r_q| ≤ 2^31, so it cannot
overflow below 2^32 feature instances per block (a 128 MB text block
holds about 2^26); the fold across blocks is in Python ints.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .graph import _blocks
from .quality_model import _BIGRAM_MULT, _doc_sums, _token_hashes
from .sketch import _splitmix64

__all__ = ["lr_train_score", "lr_reference", "DEFAULT_DIM"]

DEFAULT_DIM = 1 << 14
S_W = 1 << 20  # weight fixed-point scale
S_R = 1 << 31  # residual quantization scale
PPB = 1_000_000_000


def _doc_feats(texts) -> tuple[np.ndarray, np.ndarray]:
    """texts → (flat int64 feature-instance array, int64 doc offsets).

    Features are unigram hashes plus adjacent-bigram combines (the
    quality_model contract), interleaved per doc: doc i owns
    ``flat[offsets[i]:offsets[i+1]]`` with multiplicity."""
    uni, offsets = _token_hashes(texts)
    n = len(offsets) - 1
    starts, ends = offsets[:-1], offsets[1:]
    if len(uni) > 1:
        big = _splitmix64(uni[:-1] * _BIGRAM_MULT + uni[1:])
        bstarts = np.minimum(starts, len(big))
        bends = np.maximum(np.minimum(ends - 1, len(big)), bstarts)
    else:
        big = np.empty(0, dtype=np.uint64)
        bstarts = bends = np.zeros(n, dtype=np.int64)
    counts = (ends - starts) + (bends - bstarts)
    out_off = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    flat = np.empty(out_off[-1], dtype=np.uint64)
    # vectorized interleave: unigram block then bigram block per doc
    uni_pos = np.repeat(out_off[:-1], ends - starts) + (
        np.arange(len(uni), dtype=np.int64) - np.repeat(starts, ends - starts)
    )
    flat[uni_pos] = uni
    nb = bends - bstarts
    if nb.sum():
        big_idx = np.repeat(bstarts, nb) + (
            np.arange(int(nb.sum()), dtype=np.int64)
            - np.repeat(np.concatenate(([0], np.cumsum(nb)[:-1])), nb)
        )
        big_pos = np.repeat(out_off[:-1] + (ends - starts), nb) + (
            np.arange(int(nb.sum()), dtype=np.int64)
            - np.repeat(np.concatenate(([0], np.cumsum(nb)[:-1])), nb)
        )
        flat[big_pos] = big[big_idx]
    return flat.astype(np.int64, copy=False), out_off


def _margins(wq: np.ndarray, bucket: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Exact int64 per-doc margins Σ w_q[feature] (with multiplicity)."""
    vals = wq[bucket] if len(bucket) else np.zeros(0, np.int64)
    return _doc_sums(vals, offsets[:-1], offsets[1:])


def _residuals_q(z_q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-local float chain, then ppb-style quantization: identical on
    every engine because no reduction happens in float."""
    z = z_q.astype(np.float64) / S_W
    p = 1.0 / (1.0 + np.exp(-z))
    return np.round((p - y.astype(np.float64)) * S_R).astype(np.int64)


def _grad(
    wq: np.ndarray, bucket: np.ndarray, offsets: np.ndarray, y: np.ndarray, dim: int
) -> np.ndarray:
    r_q = _residuals_q(_margins(wq, bucket, offsets), y)
    g = np.zeros(dim, dtype=np.int64)
    if len(bucket):
        np.add.at(g, bucket, np.repeat(r_q, np.diff(offsets)))
    return g


def _round_div(a: int, b: int) -> int:
    """Nearest integer of a/b with ties to even — exact, pinned (b > 0)."""
    q, rem = divmod(a, b)
    if 2 * rem > b or (2 * rem == b and q & 1):
        q += 1
    return q


def _step(wq: np.ndarray, g_total: list[int], n: int, lr_den: int) -> np.ndarray:
    """w_q ← w_q − round(g · S_W / (n · S_R · lr_den)), arbitrary-precision."""
    denom = n * S_R * lr_den
    out = wq.copy()
    for f, gf in enumerate(g_total):
        if gf:
            out[f] -= _round_div(gf * S_W, denom)
    return out


def _scores_table(
    ids: np.ndarray,
    wq: np.ndarray,
    bucket: np.ndarray,
    offsets: np.ndarray,
    id_col: str = "doc_id",
) -> pa.Table:
    z = _margins(wq, bucket, offsets).astype(np.float64) / S_W
    p = 1.0 / (1.0 + np.exp(-z))
    ppb = np.round(p * PPB).astype(np.int64)
    return pa.table(
        {
            id_col: pa.array(ids.astype(np.int64), pa.int64()),
            "score_ppb": pa.array(ppb, pa.int64()),
            "lr_pred": pa.array((ppb >= PPB // 2).astype(np.int64), pa.int64()),
        }
    )


def _pin(text_col: str, id_col: str, label_col: str, dim: int, t: pa.Table):
    """Pin task over one block: its docs' feature buckets (``flat % dim``),
    doc offsets, labels and ids, then its doc count."""
    if not t.num_rows:
        empty = np.zeros(0, np.int64)
        return empty, np.zeros(1, np.int64), empty, empty, 0
    flat, offsets = _doc_feats(t.column(text_col))
    y = t.column(label_col).to_numpy(zero_copy_only=False).astype(np.int64)
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    return (flat % dim).astype(np.int64), offsets, y, ids, t.num_rows


def _fold_step(wq: np.ndarray, n: int, lr_den: int, *grads) -> np.ndarray:
    """One GD step from the blocks' int64 gradients, folded exactly as
    arbitrary-precision ints."""
    return _step(wq, np.stack(grads).astype(object).sum(axis=0), n, lr_den)


def lr_train_score(
    ds,
    *,
    text_col: str = "text",
    label_col: str = "label",
    id_col: str = "doc_id",
    dim: int = DEFAULT_DIM,
    iters: int = 5,
    lr_den: int = 4,
):
    """Train full-batch LR on ``ds`` (one int64 0/1 ``label_col``), then
    score every row → (doc_id, score_ppb, lr_pred) Dataset, one block per
    non-empty input block, in no promised order.

    lr = 1/lr_den. See module docstring for the determinism contract."""
    import ray
    import ray.data

    slim = ds.map_batches(
        lambda t: t.select([id_col, text_col, label_col]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    pin = ray.remote(num_cpus=1)(_pin).options(num_returns=5)
    pins = [pin.remote(text_col, id_col, label_col, dim, b) for b in _blocks(slim)]
    docs = ray.get([p[4] for p in pins])
    n = sum(docs)
    if n == 0:
        raise ValueError("lr_train_score: empty input")
    pins = [p for p, d in zip(pins, docs) if d]
    grad = ray.remote(num_cpus=1)(_grad)
    step = ray.remote(num_cpus=1)(_fold_step)
    wq = np.zeros(dim, dtype=np.int64)
    for _ in range(iters):
        wq = step.remote(wq, n, lr_den, *(grad.remote(wq, p[0], p[1], p[2], dim) for p in pins))
    scores = ray.remote(num_cpus=1)(_scores_table)
    return ray.data.from_arrow_refs([scores.remote(p[3], wq, p[0], p[1], id_col) for p in pins])


def lr_reference(
    table: pa.Table,
    *,
    text_col: str = "text",
    label_col: str = "label",
    id_col: str = "doc_id",
    dim: int = DEFAULT_DIM,
    iters: int = 5,
    lr_den: int = 4,
) -> pa.Table:
    """Single-process ground truth: identical integer arithmetic in one
    numpy pass — the distributed path must match BIT-for-bit."""
    flat, offsets = _doc_feats(table.column(text_col))
    bucket = (flat % dim).astype(np.int64)
    y = table.column(label_col).to_numpy(zero_copy_only=False).astype(np.int64)
    ids = table.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(ids)
    wq = np.zeros(dim, dtype=np.int64)
    for _ in range(iters):
        g = _grad(wq, bucket, offsets, y, dim)
        wq = _step(wq, [int(v) for v in g], n, lr_den)
    out = _scores_table(ids, wq, bucket, offsets, id_col)
    order = np.argsort(ids, kind="stable")
    return out.take(pa.array(order, pa.int64()))
