"""Microbench for the iterative block operators: k-means
(functions/clustering.py), LR training (functions/lrtrain.py) and connected
components (functions/components.py).

    python tools/iter_bench.py --sf-dir <dir> [--reps 3]

``<dir>`` holds the ``embeddings.parquet`` and ``documents.parquet`` of a
scale factor (the numbers in the change log are at sf0.01).

Starts a 2-CPU local Ray session and prints, one ``name value unit`` line
each, for ``kmeans`` (``kmeans_assign`` over ``embeddings.parquet``, k=8,
as ``embedding_kmeans`` runs it), ``lr`` (``lr_train_score`` over
``documents.parquet`` labelled ``lang == 'en'``, as ``doc_lr_train`` runs
it) and ``cc`` (``connected_components`` with ``driver_threshold=0``):

- ``<alg>_iter_s``: one iteration, ``(t(N) - t(1)) / (N - 1)`` where
  ``t(i)`` is the public call with ``iters=i`` (k-means, LR; N = 5),
  materialized, or the call with ``max_rounds=i`` over a chain through
  the document ids, its edges scattered over 16 blocks so that it needs
  more than N star rounds, until its ``RuntimeError`` (connected
  components; a round is a large and a small star);
- ``<alg>_pin_s``: ``t(1) - <alg>_iter_s``, the per-call cost outside the
  iterations (pin, seed and output; for connected components the local
  contraction and the initial checksum);
- ``<alg>_total_s``: the call as its registered query runs it, materialized
  (k-means and LR at 5 iterations; connected components over the MinHash
  near-duplicate pairs of the documents, as ``neardup_clusters``).

Each finished call is checked against its reference (``kmeans_reference``,
``lr_reference``, a sequential union-find). Timings are medians over
``--reps`` repetitions; the session is shut down at the end.
"""

from __future__ import annotations

import argparse
import logging
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

ITERS = 5


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _labels(edges):
    """(node, comp) rows of a pair table, sorted by node: a sequential
    union-find, each node labelled with its component's min id."""
    import pyarrow as pa

    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(edges.column("a").to_pylist(), edges.column("b").to_pylist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    nodes = sorted(parent)
    return pa.table({"node": pa.array(nodes, pa.int64()), "comp": pa.array([find(x) for x in nodes], pa.int64())})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sf-dir", required=True)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args(argv)

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from urlmap_ray.functions import dedup as dd
    from urlmap_ray.functions.clustering import kmeans_assign, kmeans_reference
    from urlmap_ray.functions.components import connected_components
    from urlmap_ray.functions.lrtrain import lr_reference, lr_train_score

    emb_path = os.path.join(args.sf_dir, "embeddings.parquet")
    doc_path = os.path.join(args.sf_dir, "documents.parquet")
    emb = pq.read_table(emb_path, columns=["vec_id", "embedding"])

    def label(t):
        return t.append_column("label", pc.cast(pc.equal(t.column("lang"), "en"), pa.int64()))

    docs = label(pq.read_table(doc_path, columns=["doc_id", "text", "lang"]))
    ids = sorted(docs.column("doc_id").to_pylist())
    # a chain with its edges scattered over the blocks, so local contraction
    # leaves it to the star rounds
    order = np.random.default_rng(0).permutation(len(ids) - 1)
    chain = pa.table({"a": pa.array(ids[:-1], pa.int64()), "b": pa.array(ids[1:], pa.int64())}).take(order)

    def rows(ds, key):
        return pa.concat_tables(ds.iter_batches(batch_size=None, batch_format="pyarrow")).sort_by(key)

    def kmeans(i):
        return kmeans_assign(ray.data.read_parquet(emb_path), k=8, iters=i).materialize()

    def lr(i):
        ds = ray.data.read_parquet(doc_path, columns=["doc_id", "text", "lang"])
        ds = ds.map_batches(label, batch_format="pyarrow", zero_copy_batch=True)
        return lr_train_score(ds, label_col="label", iters=i).materialize()

    def cc_rounds(i):
        try:
            connected_components(ray.data.from_arrow(chain).repartition(16), driver_threshold=0, max_rounds=i)
        except RuntimeError:
            return
        raise AssertionError(f"the chain converged within {i} rounds")

    # workers import the operator modules from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in [ROOT, os.environ.get("PYTHONPATH")] if p
    )
    os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    times = {f"{a}_{m}": [] for a in ("kmeans", "lr", "cc") for m in ("pin", "iter", "total")}
    try:
        pairs = dd.dedup_minhash_lsh(ray.data.read_parquet(doc_path), threshold=0.8).materialize()
        edges = pa.concat_tables(pairs.iter_batches(batch_size=None, batch_format="pyarrow"))
        checks = {
            "kmeans": (lambda: kmeans(ITERS), "vec_id", kmeans_reference(emb, k=8, iters=ITERS)),
            "lr": (lambda: lr(ITERS), "doc_id", lr_reference(docs, label_col="label", iters=ITERS)),
            "cc": (
                lambda: connected_components(pairs, driver_threshold=0).materialize(),
                "node",
                _labels(edges),
            ),
        }
        kmeans(1)  # warm the workers
        for _ in range(args.reps):
            for name, call in (("kmeans", kmeans), ("lr", lr), ("cc", cc_rounds)):
                t1, _ = _timed(lambda: call(1))
                tn, _ = _timed(lambda: call(ITERS))
                it = (tn - t1) / (ITERS - 1)
                times[f"{name}_iter"].append(it)
                times[f"{name}_pin"].append(t1 - it)
            for name, (call, key, want) in checks.items():
                s, ds = _timed(call)
                times[f"{name}_total"].append(s)
                assert rows(ds, key).equals(want), name
    finally:
        ray.shutdown()
    for name, vals in times.items():
        print(f"{name}_s {statistics.median(vals):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
