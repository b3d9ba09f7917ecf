"""Fixed-point distributed k-means: bit-equality with the single-process
reference at any partitioning, plus the pinned edge-case semantics."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from urlmap_ray.functions.clustering import (
    _assign,
    _partials,
    _update,
    _quantize,
    kmeans_assign,
    kmeans_reference,
)


def _emb_table(n=120, d=16, seed=7):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, d)).astype(np.float32)
    return pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.reshape(-1), pa.float32()), d
            ),
        }
    )


def _labels(ds, **kw) -> pa.Table:
    # the output order is not promised: compare by id
    return pa.concat_tables(
        kmeans_assign(ds, **kw).iter_batches(batch_size=None, batch_format="pyarrow")
    ).sort_by("vec_id")


def test_reference_labels_partition_invariant(ray_session):
    tbl = _emb_table()
    expected = kmeans_reference(tbl, k=4, iters=3)
    layouts = {
        "1 block": ray.data.from_arrow(tbl).repartition(1),
        "7 blocks": ray.data.from_arrow(tbl).repartition(7),
        "a zero-row block": ray.data.from_arrow([tbl.slice(0, 0), tbl]),
        "more blocks than rows": ray.data.from_arrow(tbl).repartition(tbl.num_rows + 8),
    }
    for name, ds in layouts.items():
        assert _labels(ds, k=4, iters=3).equals(expected), f"mismatch with {name}"


def test_reference_shuffled_input_same_labels(ray_session):
    # row order / block assignment must not matter (integer partials)
    tbl = _emb_table(n=80, d=8, seed=3)
    expected = kmeans_reference(tbl, k=3, iters=4)
    perm = np.random.default_rng(0).permutation(tbl.num_rows)
    ds = ray.data.from_arrow(tbl.take(perm)).repartition(5)
    assert _labels(ds, k=3, iters=4).equals(expected)


def test_assign_tie_breaks_to_lowest_cluster():
    # two identical centroids: every row ties → cluster 0
    cents = np.array([[2, 0], [2, 0]], dtype=np.int64)
    xq = np.array([[1, 1], [3, -1]], dtype=np.int64)
    assert _assign(xq, cents).tolist() == [0, 0]


def test_update_empty_cluster_keeps_centroid():
    cents = np.array([[0, 0], [100, 100]], dtype=np.int64)
    xq = np.array([[1, 1], [3, 3]], dtype=np.int64)  # both nearest cluster 0
    counts, sums = _partials(xq, cents, 2)
    assert counts.tolist() == [2, 0]
    new = _update(cents, counts, sums)
    assert new[0].tolist() == [2, 2]  # floor((1+3)/2)
    assert new[1].tolist() == [100, 100]  # empty cluster unchanged


def test_quantize_is_round_half_even():
    q = _quantize(np.array([[0.5 / (1 << 20), 1.5 / (1 << 20)]]), 1 << 20)
    assert q.tolist() == [[0, 2]]


def test_semdedup_known_duplicates(ray_session):
    # two tight groups of near-identical vectors + lone outliers: within
    # each group only the smallest id survives; outliers always survive;
    # result identical at any partitioning
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.dedup import semdedup

    rng = np.random.default_rng(41)
    base_a = rng.normal(size=16)
    base_b = rng.normal(size=16)
    vecs, ids = [], []
    for i in range(4):  # ids 0-3: copies of A with tiny noise
        vecs.append(base_a + rng.normal(scale=1e-3, size=16))
        ids.append(i)
    for i in range(4, 8):  # ids 4-7: copies of B
        vecs.append(base_b + rng.normal(scale=1e-3, size=16))
        ids.append(i)
    for i in range(8, 20):  # ids 8-19: random (orthogonal-ish) outliers
        vecs.append(rng.normal(size=16) * 3)
        ids.append(i)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [np.asarray(v, np.float32).tolist() for v in vecs],
                pa.list_(pa.float32()),
            ),
        }
    )
    outs = []
    for parts in (1, 5):
        ds = ray.data.from_arrow(tbl).repartition(parts)
        rows = semdedup(ds, k=4, iters=3, threshold=0.9).take_all()
        outs.append({r["id"]: (r["cluster"], r["keep"]) for r in rows})
    assert outs[0] == outs[1]
    got = outs[0]
    assert len(got) == 20
    # each near-dup group keeps exactly its smallest id
    assert got[0][1] and not any(got[i][1] for i in (1, 2, 3))
    assert got[4][1] and not any(got[i][1] for i in (5, 6, 7))
    # a cross-group pair is never conflated (A vs B far apart)
    kept = [i for i, (_, k) in got.items() if k]
    assert 0 in kept and 4 in kept and len(kept) >= 10
