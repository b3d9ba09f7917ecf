"""Community detection over the undirected link graph via synchronous
label propagation (Raghavan, Albert & Kumara 2007), made deterministic.

Classic LPA is order- and tie-randomized; this implementation pins BOTH
so the result is reproducible at any parallelism, actor count or
bucketing (the property every operator in this repo's graph family
holds, cf. graph.py):

- **synchronous rounds**: every node updates from the PREVIOUS round's
  labels (no in-round propagation order to vary);
- **pinned tie-break**: the new label is the neighbor label with the
  highest count, ties broken by SMALLEST label id (= lexicographically
  smallest url, since label ids are ranks in the sorted url order);
- **fixed round count**: ``n_iters`` rounds, no convergence race.

Labels start as each node's own id; a node with no undirected neighbors
keeps its label. The output community id is the label's URL string (the
lexicographic representative the tie-break converges toward), so
communities are stable human-readable keys, not run-specific integers.

Scale shapes (the graph family's standard two regimes, identical
output, test-pinned):

- **broadcast** (n ≤ graph.SHUFFLE_MODE_NODES): the symmetric distinct
  edge closure — built ONCE with a single ``groupby(u, v)`` exchange —
  is id-mapped and dst-range-bucketed via graph._bucketed_edge_ids,
  then pinned whole-bucket into an actor pool (dst runs never split, so
  each actor computes COMPLETE per-dst label histograms). Each round is
  one RPC fan-out shipping the O(n) int64 label vector via ``ray.put``
  (8B/node — the same bound as pagerank's broadcast mode) and returning
  only (dst, new_label) pairs for nodes that have neighbors.
- **shuffle** (above it): labels live in a Dataset of (node_id, label)
  rows; each round is two bucketed pad→union→groupby exchanges — (A)
  ``groupby(src_bucket)`` scatters each node's row-local label onto its
  bucket's out-edges, (B) ``groupby(dst_bucket)`` folds per-dst label
  histograms (integer counts — summation-order-free) and rebuilds the
  bucket's dense label slice, carrying no-neighbor nodes' old labels
  forward. No O(n) object anywhere; driver state is two ints.

Both regimes share :func:`_mode_per_dst` — one vectorized
argmax-count/min-label kernel — so they are exactly identical, and
:func:`label_propagation_reference` runs the same kernel sequentially
for the expected-parquet oracle (the pagerank/HITS trust model).

Reference tie-in: the graph is "what the crawler saw" (parser.go:120-208
extraction feeds the same pure extractor); communities over it are the
natural site/topic clustering a 100 TB crawl feeds downstream sampling.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .graph import (
    _MAP_BUCKETS,
    _bucketed_edge_ids,
    _ca,
    _edge_ids_shuffle,
    _graph_buckets,
    _resolve_membership,
    _sorted_urls_ref,
    build_edges,
    node_index,
)

__all__ = ["label_propagation", "label_propagation_reference"]

_N_ITERS = 5


def _mode_per_dst(
    dst: np.ndarray, lab: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(dst ids, modal neighbor label) per distinct dst — highest count,
    ties to the smallest label. The ONE kernel all three code paths
    (broadcast actors, shuffle reduce groups, sequential reference)
    share, so results are identical on any partitioning. Inputs need not
    be sorted; duplicate (dst, lab) rows count multiply."""
    if len(dst) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    order = np.lexsort((lab, dst))
    d = dst[order]
    l = lab[order]
    # run-length counts of (dst, lab) pairs
    new_pair = np.r_[True, (np.diff(d) != 0) | (np.diff(l) != 0)]
    starts = np.flatnonzero(new_pair)
    counts = np.diff(np.r_[starts, len(d)])
    pd_, pl, pcnt = d[starts], l[starts], counts
    # per dst: max count, tie → min label. Sort (dst asc, count desc,
    # lab asc) — within each (dst, count) run labels are already
    # ascending from the first lexsort, preserved by stable sorting.
    sel = np.lexsort((pl, -pcnt, pd_))
    sd, sl = pd_[sel], pl[sel]
    firsts = np.flatnonzero(np.r_[True, np.diff(sd) != 0])
    return sd[firsts], sl[firsts]


def _sym_edges(pages_ds, nodes, *, membership: str, n_buckets: int):
    """Symmetric distinct undirected closure of the corpus link graph as
    a (src, dst) string Dataset — one ``groupby(u, v)`` exchange over the
    directed distinct edges (string pairs move once, both directions
    emitted row-locally before the dedup)."""
    from ray.data.aggregate import Count

    edges = build_edges(pages_ds, nodes, membership=membership, n_buckets=n_buckets)

    def both_ways(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": pa.chunked_array([_ca(t.column("src")), _ca(t.column("dst"))]),
                "v": pa.chunked_array([_ca(t.column("dst")), _ca(t.column("src"))]),
            }
        )

    return (
        edges.map_batches(both_ways, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["u", "v"])
        .aggregate(Count(alias_name="_n"))
        .map_batches(
            lambda t: pa.table({"src": t.column("u"), "dst": t.column("v")}),
            batch_format="pyarrow",
        )
    )


class _LpaShard:
    """Broadcast-regime actor: pins whole dst-range buckets of the
    symmetric id edge set (complete per-dst neighbor runs) and answers
    one mode query per round against the shipped label vector."""

    def __init__(self, block_refs):
        import ray

        tables = [t for t in map(ray.get, block_refs) if "dst_id" in t.column_names]
        t = (
            pa.concat_tables(tables)
            if tables
            else pa.table(
                {"src_id": pa.array([], pa.int64()), "dst_id": pa.array([], pa.int64())}
            )
        )
        self.dst = t.column("dst_id").to_numpy(zero_copy_only=False)
        self.src = t.column("src_id").to_numpy(zero_copy_only=False)

    def modes(self, labels) -> tuple[np.ndarray, np.ndarray]:
        # labels arrives as an ObjectRef — zero-copy from plasma
        return _mode_per_dst(self.dst, labels[self.src])


def label_propagation(
    pages_ds,
    nodes,
    *,
    n_iters: int = _N_ITERS,
    mode: str = "auto",
    n_buckets: int | None = None,
):
    """Deterministic synchronous LPA → Dataset of (url, community) with
    ``community`` = the final label's URL string. ``n_buckets`` overrides
    the label-bucket count (pagerank's convention — a performance knob
    only; results are bucketing-independent, test-pinned). See module
    docstring for the pinned semantics and the two scale regimes."""
    import ray
    import ray.data

    n = nodes.count()
    if n == 0:
        return ray.data.from_arrow(
            pa.table(
                {"url": pa.array([], pa.string()), "community": pa.array([], pa.string())}
            )
        )
    mode = _resolve_membership(mode, n)
    sym = _sym_edges(pages_ds, nodes, membership=mode, n_buckets=_MAP_BUCKETS)
    per_bucket = (
        _graph_buckets(n) if n_buckets is None else max(1, -(-n // n_buckets))
    )

    if mode == "shuffle":
        nb = -(-n // per_bucket)
        index_ds = node_index(nodes)[0].repartition(nb, shuffle=False).materialize()
        edges_b = (
            _edge_ids_shuffle(sym, index_ds, per_bucket=per_bucket)
            .repartition(nb, shuffle=False)
            .materialize()
        )
        return _lpa_shuffle(
            edges_b, index_ds, n=n, n_iters=n_iters, per_bucket=per_bucket
        )

    # ---- broadcast regime --------------------------------------------------
    urls_ref = _sorted_urls_ref(nodes)
    edges_b = _bucketed_edge_ids(sym, urls_ref, per_bucket)
    block_refs = edges_b.to_arrow_refs()
    shard_cls = ray.remote(num_cpus=1)(_LpaShard)
    n_actors = max(1, min(len(block_refs), int(ray.cluster_resources().get("CPU", 8))))
    actors = [shard_cls.remote(block_refs[i::n_actors]) for i in range(n_actors)]
    try:
        labels = np.arange(n, dtype=np.int64)
        for _ in range(n_iters):
            ref = ray.put(labels)
            parts = ray.get([a.modes.remote(ref) for a in actors])
            new = labels.copy()
            for d, m in parts:  # dst buckets are disjoint across actors
                new[d] = m
            labels = new
    finally:
        for a in actors:
            ray.kill(a)

    @ray.remote(num_cpus=1)
    def finish(urls_arr: pa.Array, lab: np.ndarray) -> pa.Table:
        return pa.table(
            {"url": urls_arr, "community": pc.take(urls_arr, pa.array(lab, pa.int64()))}
        )

    return ray.data.from_arrow_refs([finish.remote(urls_ref, labels)])


def _lpa_shuffle(edges_b, index_ds, *, n, n_iters, per_bucket):
    """Fully-distributed LPA (see module docstring): label state is a
    Dataset of (node_id, label) int64 rows, two bucketed exchanges per
    round, integer-only math — partition-independent by construction."""
    nb = -(-n // per_bucket)

    labels_ds = (
        index_ds.map_batches(
            lambda t: pa.table(
                {"node_id": t.column("node_id"), "label": t.column("node_id")}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .repartition(nb, shuffle=False)
        .materialize()
    )

    def label_pad(t: pa.Table) -> pa.Table:
        nid = t.column("node_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "gb": pa.array((nid // per_bucket).astype(np.int64), pa.int64()),
                "src_id": pa.array(np.full(len(nid), -1, np.int64), pa.int64()),
                "dst_id": pa.array(nid, pa.int64()),
                "lab": t.column("label"),
            }
        )

    def edge_pad(t: pa.Table) -> pa.Table:
        src = t.column("src_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "gb": pa.array((src // per_bucket).astype(np.int64), pa.int64()),
                "src_id": t.column("src_id"),
                "dst_id": t.column("dst_id"),
                "lab": pa.array(np.full(len(src), -1, np.int64), pa.int64()),
            }
        )

    def scatter(g: pa.Table) -> pa.Table:
        src = g.column("src_id").to_numpy(zero_copy_only=False)
        dst = g.column("dst_id").to_numpy(zero_copy_only=False)
        lab = g.column("lab").to_numpy(zero_copy_only=False)
        is_lab = src < 0
        b = int(g.column("gb")[0].as_py())
        lo = b * per_bucket
        hi = min(lo + per_bucket, n)
        lookup = np.zeros(hi - lo, dtype=np.int64)
        lookup[dst[is_lab] - lo] = lab[is_lab]
        e_src = src[~is_lab]
        e_dst = dst[~is_lab]
        return pa.table(
            {
                "db": pa.array((e_dst // per_bucket).astype(np.int64), pa.int64()),
                "dst_id": pa.array(e_dst, pa.int64()),
                "lab": pa.array(lookup[e_src - lo], pa.int64()),
                "is_old": pa.array(np.zeros(len(e_dst), bool)),
            }
        )

    def old_pad(t: pa.Table) -> pa.Table:
        nid = t.column("node_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "db": pa.array((nid // per_bucket).astype(np.int64), pa.int64()),
                "dst_id": t.column("node_id"),
                "lab": t.column("label"),
                "is_old": pa.array(np.ones(len(nid), bool)),
            }
        )

    def reduce_group(g: pa.Table) -> pa.Table:
        dst = g.column("dst_id").to_numpy(zero_copy_only=False)
        lab = g.column("lab").to_numpy(zero_copy_only=False)
        is_old = g.column("is_old").to_numpy(zero_copy_only=False)
        b = int(g.column("db")[0].as_py())
        lo = b * per_bucket
        hi = min(lo + per_bucket, n)
        dense = np.empty(hi - lo, dtype=np.int64)
        dense[dst[is_old] - lo] = lab[is_old]  # every node's old label routed here
        d, m = _mode_per_dst(dst[~is_old], lab[~is_old])
        dense[d - lo] = m
        return pa.table(
            {
                "node_id": pa.array(np.arange(lo, hi, dtype=np.int64), pa.int64()),
                "label": pa.array(dense, pa.int64()),
            }
        )

    for _ in range(n_iters):
        labels_ds = (
            labels_ds.map_batches(label_pad, batch_format="pyarrow", zero_copy_batch=True)
            .union(edges_b.map_batches(edge_pad, batch_format="pyarrow", zero_copy_batch=True))
            .groupby("gb")
            .map_groups(scatter, batch_format="pyarrow")
            .union(labels_ds.map_batches(old_pad, batch_format="pyarrow", zero_copy_batch=True))
            .groupby("db")
            .map_groups(reduce_group, batch_format="pyarrow")
            # pin block count: each Sort sizes its output partitions (and
            # the driver's shuffle metadata) from its input block count, so
            # without this the count compounds from round to round
            .repartition(nb, shuffle=False)
            .materialize()
        )

    # ---- attach urls: label id → label url, then node id → node url -------
    def lab_key_pad(t: pa.Table) -> pa.Table:
        lab = t.column("label").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "kb": pa.array((lab // per_bucket).astype(np.int64), pa.int64()),
                "key": t.column("label"),
                "carry": t.column("node_id"),
                "url": pa.array([None] * len(lab), pa.string()),
            }
        )

    def idx_pad(t: pa.Table) -> pa.Table:
        nid = t.column("node_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "kb": pa.array((nid // per_bucket).astype(np.int64), pa.int64()),
                "key": t.column("node_id"),
                "carry": pa.array(np.full(len(nid), -1, np.int64), pa.int64()),
                "url": t.column("url"),
            }
        )

    def map_group(g: pa.Table) -> pa.Table:
        """Resolve each row's ``key`` to the bucket's dense url slice and
        emit (node_id=carry, community_url)."""
        key = g.column("key").to_numpy(zero_copy_only=False)
        carry = g.column("carry").to_numpy(zero_copy_only=False)
        is_idx = carry < 0
        b = int(g.column("kb")[0].as_py())
        lo = b * per_bucket
        hi = min(lo + per_bucket, n)
        urls = np.empty(hi - lo, dtype=object)
        urls[key[is_idx] - lo] = np.asarray(
            g.filter(pa.array(is_idx)).column("url").to_pylist(), dtype=object
        )
        return pa.table(
            {
                "node_id": pa.array(carry[~is_idx], pa.int64()),
                "community": pa.array(urls[key[~is_idx] - lo].tolist(), pa.string()),
            }
        )

    with_comm = (
        labels_ds.map_batches(lab_key_pad, batch_format="pyarrow", zero_copy_batch=True)
        .union(index_ds.map_batches(idx_pad, batch_format="pyarrow", zero_copy_batch=True))
        .groupby("kb")
        .map_groups(map_group, batch_format="pyarrow")
    )

    def node_key_pad(t: pa.Table) -> pa.Table:
        nid = t.column("node_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "kb": pa.array((nid // per_bucket).astype(np.int64), pa.int64()),
                "key": t.column("node_id"),
                "comm": t.column("community"),
                "url": pa.array([None] * len(nid), pa.string()),
            }
        )

    def idx_pad2(t: pa.Table) -> pa.Table:
        nid = t.column("node_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "kb": pa.array((nid // per_bucket).astype(np.int64), pa.int64()),
                "key": t.column("node_id"),
                "comm": pa.array([None] * len(nid), pa.string()),
                "url": t.column("url"),
            }
        )

    def final_group(g: pa.Table) -> pa.Table:
        key = g.column("key").to_numpy(zero_copy_only=False)
        is_idx = pc.is_valid(g.column("url")).to_numpy(zero_copy_only=False)
        b = int(g.column("kb")[0].as_py())
        lo = b * per_bucket
        hi = min(lo + per_bucket, n)
        urls = np.empty(hi - lo, dtype=object)
        urls[key[is_idx] - lo] = np.asarray(
            g.filter(pa.array(is_idx)).column("url").to_pylist(), dtype=object
        )
        rows = g.filter(pa.array(~is_idx))
        return pa.table(
            {
                "url": pa.array(urls[key[~is_idx] - lo].tolist(), pa.string()),
                "community": rows.column("comm"),
            }
        )

    return (
        with_comm.map_batches(node_key_pad, batch_format="pyarrow", zero_copy_batch=True)
        .union(index_ds.map_batches(idx_pad2, batch_format="pyarrow", zero_copy_batch=True))
        .groupby("kb")
        .map_groups(final_group, batch_format="pyarrow")
    )


def label_propagation_reference(
    urls: list[str],
    links_per_url: dict[str, list[str]],
    *,
    n_iters: int = _N_ITERS,
) -> pa.Table:
    """Single-process oracle: same symmetric closure, same
    :func:`_mode_per_dst` kernel, same synchronous rounds, no Ray.
    Returns (url, community) sorted by url."""
    urls_sorted = sorted(urls)
    n = len(urls_sorted)
    if n == 0:
        return pa.table(
            {"url": pa.array([], pa.string()), "community": pa.array([], pa.string())}
        )
    idx = {u: i for i, u in enumerate(urls_sorted)}
    node_set = set(urls_sorted)
    pairs = set()
    for u, links in links_per_url.items():
        for link in links:
            if link in node_set and link != u:
                pairs.add((idx[u], idx[link]))
                pairs.add((idx[link], idx[u]))
    if pairs:
        e = np.array(sorted(pairs), dtype=np.int64)
        src, dst = e[:, 0], e[:, 1]
    else:
        src = dst = np.empty(0, np.int64)
    labels = np.arange(n, dtype=np.int64)
    for _ in range(n_iters):
        d, m = _mode_per_dst(dst, labels[src])
        new = labels.copy()
        new[d] = m
        labels = new
    return pa.table(
        {
            "url": pa.array(urls_sorted, pa.string()),
            "community": pa.array([urls_sorted[i] for i in labels], pa.string()),
        }
    )
