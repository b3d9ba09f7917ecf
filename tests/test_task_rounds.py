"""k-means, LR training and connected components run as task rounds over
pinned blocks: no O(rows) object on the driver, and iterations are not
Ray Data jobs."""

from __future__ import annotations

import sys

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from test_clustering import _emb_table
from test_components import _pairs_ds, _union_find
from test_lrtrain import _toy_table
from urlmap_ray.functions.clustering import kmeans_assign, kmeans_reference
from urlmap_ray.functions.components import connected_components
from urlmap_ray.functions.lrtrain import lr_reference, lr_train_score

BLOCKS, K, D, DIM, BUCKETS = 7, 4, 16, 256, 3


def _kmeans(iters):
    tbl = _emb_table(d=D)
    got = kmeans_assign(ray.data.from_arrow(tbl).repartition(BLOCKS), k=K, iters=iters)
    return got, kmeans_reference(tbl, k=K, iters=iters), "vec_id"


def _lr(iters):
    t = _toy_table()
    got = lr_train_score(ray.data.from_arrow(t).repartition(BLOCKS), dim=DIM, iters=iters)
    return got, lr_reference(t, dim=DIM, iters=iters), "doc_id"


def _cc(pairs):
    # split across blocks, so local contraction leaves the chain to the rounds
    got = connected_components(
        _pairs_ds(pairs).repartition(BLOCKS), buckets=BUCKETS, driver_threshold=0
    )
    want = _union_find(pairs)
    return got, pa.table({"node": sorted(want), "comp": [want[x] for x in sorted(want)]}), "node"


CASES = {
    # (the call at two sizes that must start the same Ray Data executions,
    #  the bound on each driver put or get, in elements, below the larger
    #  call's row count)
    "kmeans": ((lambda: _kmeans(1), lambda: _kmeans(5)), K * D + BLOCKS),
    "lr": ((lambda: _lr(1), lambda: _lr(5)), BLOCKS),
    "cc": (
        (lambda: _cc([(42, 7)]), lambda: _cc([(i, i + 1) for i in range(40)])),
        3 * BUCKETS + 1,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_iteration_contract(ray_session, monkeypatch, case):
    """Every array the operator's driver code puts or gets (summed over the
    values of one multi-ref get; a scalar counts one) stays within k·d +
    blocks (k-means), blocks (LR) or 3·buckets + 1 (connected components),
    all below the row count. The Ray Data executions a call starts, its
    output materialized, do not grow with ``iters`` (k-means, LR) or with
    the star rounds a chain needs over a single edge (connected
    components). Results stay equal to the references."""
    import ray
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls, bound = CASES[case]
    sizes, runs = [], []

    def size_of(v):
        if isinstance(v, np.ndarray):
            return v.size
        if isinstance(v, (pa.Array, pa.ChunkedArray)):
            return len(v)
        if isinstance(v, pa.Table):
            return v.num_rows
        if isinstance(v, (list, tuple)):  # a multi-ref get holds all of it at once
            return sum(map(size_of, v))
        return 1 if isinstance(v, (int, float, np.generic)) else 0

    real_put, real_get, real_execute = ray.put, ray.get, StreamingExecutor.execute

    def caller():
        return sys._getframe(2).f_globals.get("__name__", "")

    def put(value, *a, **kw):
        sizes.append((caller(), size_of(value)))
        return real_put(value, *a, **kw)

    def get(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        sizes.append((caller(), size_of(out)))
        return out

    def execute(self, *a, **kw):
        runs.append(1)
        return real_execute(self, *a, **kw)

    monkeypatch.setattr(ray, "put", put)
    monkeypatch.setattr(ray, "get", get)
    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    jobs = []
    for call in calls:
        sizes.clear()
        runs.clear()
        ds, want, key = call()
        got = ds.materialize()
        jobs.append(len(runs))
        ours = [size for who, size in sizes if who.startswith("urlmap_ray.")]
        assert max(ours, default=0) <= bound, sorted(ours)[-3:]
        rows = pa.concat_tables(got.iter_batches(batch_size=None, batch_format="pyarrow"))
        assert rows.sort_by(key).equals(want)
    assert bound < want.num_rows  # an O(rows) object would show
    assert jobs[0] == jobs[1], f"Dataset executions grow with the iterations: {jobs}"
