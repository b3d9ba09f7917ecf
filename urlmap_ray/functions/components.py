"""Distributed connected components over a pair Dataset, and cluster
labeling for near-duplicate document sets.

The near-dup operators (``functions/dedup.py``) emit verified PAIRS;
the operation a training-data pipeline actually needs is the CLUSTER —
"group all transitively-connected duplicates, keep one canonical doc
per group". That closure is connected components over the pair graph.

Algorithm: alternating **large-star / small-star** (Kiveris et al.,
"Connected Components in MapReduce and Beyond", SoCC 2014) — the
standard shuffle-based CC that converges in O(log n) rounds regardless
of component diameter (plain min-label propagation needs O(diameter)
rounds, which a chain of duplicates makes unbounded):

- large-star, grouped at EVERY endpoint u: with m = min(neighbors ∪ u),
  rewire each strictly-larger neighbor v > u to (v, m);
- small-star, grouped at the LARGER endpoint u of each edge: with
  m = min(smaller-neighbors), rewire those neighbors and u itself
  to (·, m).

Scale shapes:

- Each round is ONE task round (graph.py's ``_shuffle_round``): a map
  task per pair block cuts its rows by an int64 ``ub`` node-hash bucket,
  and a reduce task per bucket runs the star rewire vectorized (lexsort
  + run reduction — the repo's bucketed-combine pattern; no per-node
  groups, no Python loop over edges). The round moves (u, v) int64
  pairs as object refs — never documents, never a Dataset job.
- Each bucket's pairs stay in the object store between rounds — pairs
  are O(duplicate docs), a sliver of the corpus.
- Convergence is detected with an order-free checksum (count + sum +
  xor of mixed 64-bit pair hashes): each small-star reduce returns its
  bucket's partial beside its pairs, and the driver folds the
  O(buckets) partials; no round ships the pair set to the driver.
- Cluster labels attach to the full document set via the repo's
  pad→union→single-key-groupby shape (``attach_components``) — no
  broadcast of the label table, which is O(duplicate docs) and can
  rival the corpus at high dup rates.

Everything is int64 arithmetic — no float-determinism caveats.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pyarrow as pa

from .graph import (
    SHUFFLE_MODE_NODES,
    _bucket_cuts,
    _concat_parts,
    _cut,
    _shuffle_round,
    _task_parts,
)
from .pairs import EMPTY_PAIRS, distinct_pair_table

__all__ = ["connected_components", "attach_components", "url_components"]

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xC2B2AE3D27D4EB4F)


def _star_emit(t: pa.Table, step: str, nb: int):
    """Map task of a star round over one pair block: its (u, v) rows cut
    into one part per ``ub`` hash bucket of u. A large star groups every
    edge at BOTH endpoints, a small star each edge at its LARGER endpoint
    (b > a); the label round sends each node of the converged star forest
    (every pair is (comp_min, node); roots get a self row) with its comp."""
    if "a" in t.column_names:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
    else:  # a zero-row block may carry no schema
        a = b = np.empty(0, np.int64)
    if step == "large":
        u, v = np.concatenate([a, b]), np.concatenate([b, a])
    elif step == "small":
        u, v = b, a
    else:
        u, v = np.concatenate([b, a]), np.concatenate([a, a])
    ub = ((u.astype(np.uint64) * _MIX_A) >> np.uint64(40)).astype(np.int64) % nb
    order = np.argsort(ub, kind="stable")
    return _task_parts(_cut(_bucket_cuts(ub[order], 1, nb), u[order], v[order]))


def _star(step: str, *parts):
    """Reduce task of a star round over one ``ub`` bucket (every row of its
    nodes): the vectorized star rewrite (lexsort + run reduction) as a
    distinct pair table plus, after a small star, its checksum partial.
    The label round returns each node's min comp as (node, comp) rows."""
    u, v = _concat_parts(parts, 2)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    # v is sorted within each u-run, so the run min is v[start]
    starts = np.flatnonzero(np.r_[len(u) > 0, u[1:] != u[:-1]])
    if step == "labels":
        return pa.table({"node": pa.array(u[starts], pa.int64()), "comp": pa.array(v[starts], pa.int64())})
    lens = np.diff(np.append(starts, len(u)))
    m_run = np.minimum(v[starts], u[starts])
    m = np.repeat(m_run, lens)
    if step == "large":
        keep = v > u  # rewire strictly-larger neighbors to the min
        lo, hi = m[keep], v[keep]
    else:
        # neighbors here are all < u: rewire them and u itself to the
        # min; the (u, m) edge is one row per run
        keep = v != m
        lo = np.concatenate([m[keep], m_run])
        hi = np.concatenate([v[keep], u[starts]])
        sane = lo != hi  # u == m happens only for self-ish degenerates
        lo, hi = lo[sane], hi[sane]
    out = distinct_pair_table(lo, hi)
    return out, _checksum(out) if step == "small" else None


def _checksum(t: pa.Table) -> tuple[int, int, int]:
    """Order-free multiset checksum partial (count, wrapped sum, xor) of
    one pair table's mixed pair hashes — the convergence test never moves
    the pair set itself."""
    a = t.column("a").to_numpy(zero_copy_only=False).astype(np.uint64)
    b = t.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
    h = a * _MIX_A ^ (b * _MIX_B >> np.uint64(7))
    return t.num_rows, int(np.sum(h, dtype=np.uint64)), int(np.bitwise_xor.reduce(h))


def _gather(*blocks) -> tuple[pa.Table, tuple[int, int, int]]:
    """One task bucket's share of the contracted pair blocks, as one pair
    table, and its checksum partial."""
    t = pa.concat_tables([EMPTY_PAIRS, *(b for b in blocks if b.num_rows)])
    return t, _checksum(t)


def _fold_checksums(*parts) -> tuple[int, int, int]:
    """The checksum of a pair multiset from its parts' partials."""
    n, s, x = zip(*parts)
    return sum(n), sum(s) & 0xFFFFFFFFFFFFFFFF, functools.reduce(operator.xor, x)


def _union_find_labels(pairs: pa.Table) -> pa.Table:
    """Single-process union-find for the bounded small-pair-set fast path."""
    a = pairs.column("a").to_numpy(zero_copy_only=False)
    b = pairs.column("b").to_numpy(zero_copy_only=False)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for u, w in zip(a.tolist(), b.tolist()):
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[max(ru, rw)] = min(ru, rw)
    nodes = np.fromiter(parent, dtype=np.int64, count=len(parent))
    comps = np.fromiter((find(int(x)) for x in nodes), dtype=np.int64, count=len(nodes))
    order = np.argsort(nodes)
    return pa.table(
        {
            "node": pa.array(nodes[order], pa.int64()),
            "comp": pa.array(comps[order], pa.int64()),
        }
    )


def connected_components(
    pairs_ds, *, buckets: int | None = None, max_rounds: int = 64,
    driver_threshold: int = 1_048_576,
):
    """(a, b) int64 pair Dataset → (node, comp) label Dataset.

    ``comp`` is the minimum node id of the node's component. Only nodes
    that appear in at least one pair get a row (component roots label
    themselves); use :func:`attach_components` to extend labels to a
    full id column with singletons mapping to themselves.

    Alternates large-star / small-star rounds (one task round each over
    ``buckets`` node-hash buckets; by default one per session CPU, more
    when a bucket would hold over ``SHUFFLE_MODE_NODES`` pairs) until the
    pair multiset checksum is stable — O(log n) rounds.

    Hybrid knob (same shape as the crawl budget gate): when the distinct
    pair count — known after the first materialize — is at most
    ``driver_threshold`` (≤16MB of int64 pairs / a few driver seconds of
    union-find at the default 2^20), a local union-find beats launching
    ~2·log(n) task rounds whose per-round overhead dwarfs the work. Above
    it, or with ``driver_threshold=0``, the fully-distributed star rounds
    run (the 100-TB path; pair sets at high dup rates are O(corpus) and
    must never land on one machine). Labels are path-independent (min id
    of the component), so the two regimes are value-identical —
    test-asserted for both this function and url_components.
    """
    import ray
    import ray.data

    if buckets is not None and buckets < 1:
        raise ValueError(f"buckets must be at least 1, got {buckets}")

    def canon_contract(t: pa.Table) -> pa.Table:
        # canonicalize, then LOCAL CONTRACTION (Kiveris et al. §6 "local
        # aggregation"): union-find within the batch and emit each local
        # component as a star to its local min. Connectivity (hence final
        # min-labels) is preserved, while pair count and graph diameter
        # drop before anything is shuffled — batches that already hold a
        # whole component collapse it to its final star here, often
        # cutting the global star rounds to the convergence check alone.
        tbl = distinct_pair_table(
            np.minimum(t.column("a").to_numpy(zero_copy_only=False),
                       t.column("b").to_numpy(zero_copy_only=False)),
            np.maximum(t.column("a").to_numpy(zero_copy_only=False),
                       t.column("b").to_numpy(zero_copy_only=False)),
        )
        if tbl.num_rows == 0:
            return tbl
        lbl = _union_find_labels(tbl)
        node = lbl.column("node").to_numpy(zero_copy_only=False)
        comp = lbl.column("comp").to_numpy(zero_copy_only=False)
        keep = node != comp
        return distinct_pair_table(comp[keep], node[keep])

    pairs = pairs_ds.map_batches(
        canon_contract, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    n = pairs.count()  # block metadata: no execution
    if n == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "comp": pa.array([], pa.int64())})
        )
    if n <= driver_threshold:
        local = pa.concat_tables(
            pairs.iter_batches(batch_size=None, batch_format="pyarrow")
        )
        return ray.data.from_arrow(_union_find_labels(local))
    nb = buckets or max(int(ray.cluster_resources().get("CPU", 1)), -(-n // SHUFFLE_MODE_NODES))
    blocks = pairs.to_arrow_refs()
    gather = ray.remote(num_cpus=1)(_gather).options(num_returns=2)
    pairs, parts = zip(*(gather.remote(*blocks[b::nb]) for b in range(nb)))
    prev = _fold_checksums(*ray.get(list(parts)))
    emit = ray.remote(num_cpus=1)(_star_emit).options(num_returns=nb)
    star = ray.remote(num_cpus=1)(_star).options(num_returns=2)

    def star_round(step, fold, pairs):
        return _shuffle_round(emit, fold, pairs, [step] * nb, (nb,), [(step,)] * nb)

    for _ in range(max_rounds):
        pairs = [p for p, _ in star_round("large", star, pairs)]
        pairs, parts = zip(*star_round("small", star, pairs))
        cur = _fold_checksums(*ray.get(list(parts)))
        if cur == prev:
            break
        prev = cur
    else:
        # The algorithm provably converges in O(log n) rounds, so running
        # out means a bug or a pathological max_rounds. Labels derived from
        # a non-star pair set would be silently WRONG (callers drop docs
        # based on them) — fail loudly instead.
        raise RuntimeError(
            f"connected_components: no fixpoint after {max_rounds} rounds; "
            "raise max_rounds (expected O(log n) rounds) or check the input"
        )
    # converged star forest: each node's min comp in its bucket collapses
    # cross-bucket duplicate edges
    return ray.data.from_arrow_refs(star_round("labels", ray.remote(num_cpus=1)(_star), pairs))


def attach_components(ds, cc_ds, *, id_col: str = "doc_id", out_col: str = "comp"):
    """Label EVERY row of ``ds`` with its component: rows absent from the
    label Dataset are singletons labeled with their own id.

    Union of padded (id, own-id) rows with the (node, comp) labels, then
    one single-key min-groupby — the repo's standard shape for joining a
    potentially-large side without a broadcast (labels are O(duplicate
    docs): at a 50% dup rate the label table rivals the corpus)."""
    from ray.data.aggregate import Min

    def own(t: pa.Table) -> pa.Table:
        ids = t.column(id_col)
        return pa.table({"node": ids.cast(pa.int64()), "comp": ids.cast(pa.int64())})

    def lbl(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "node" not in t.column_names:
            return pa.table({"node": pa.array([], pa.int64()),
                             "comp": pa.array([], pa.int64())})
        return t.select(["node", "comp"])

    unioned = ds.map_batches(own, batch_format="pyarrow").union(
        cc_ds.map_batches(lbl, batch_format="pyarrow")
    )
    out = unioned.groupby("node").aggregate(Min("comp", alias_name=out_col))
    if id_col != "node":
        out = out.map_batches(
            lambda t: t.rename_columns([id_col, out_col]), batch_format="pyarrow"
        )
    return out


def url_components(edges_ds, nodes_ds, *, src_col: str = "src",
                   dst_col: str = "dst", url_col: str = "url", **cc_kwargs):
    """Weakly-connected components of a string-keyed (url) edge Dataset —
    the web-graph segmentation step (site clusters, dead-archipelago
    detection, per-component sampling): → (url, comp) for EVERY node in
    ``nodes_ds``, where ``comp`` is the component's minimum 63-bit url
    hash and singletons label themselves.

    Shape: one row-local hash pass per side (urls → int64 via the pandas
    siphash, top bit cleared — both the distributed path and the expected
    single-process reference hash identically; below ~10^9 nodes a 63-bit
    collision is negligible, beyond it move to 128-bit ids, the dedup
    line), then :func:`connected_components` (hybrid driver union-find /
    star rounds), then ONE union + min-groupby attaches labels to the
    full node table — the ``attach_components`` shape carrying the url
    string through native Min aggregates (strings: min skips the padded
    nulls), no per-node Python groups, no broadcast.
    """
    import pandas as pd

    def _h(col) -> np.ndarray:
        vals = np.asarray(col.to_pylist(), dtype=object)
        if not len(vals):
            return np.empty(0, dtype=np.int64)
        return (pd.util.hash_array(vals) >> np.uint64(1)).astype(np.int64)

    def hash_pairs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(_h(t.column(src_col)), pa.int64()),
                "b": pa.array(_h(t.column(dst_col)), pa.int64()),
            }
        )

    cc = connected_components(
        edges_ds.map_batches(hash_pairs, batch_format="pyarrow",
                             zero_copy_batch=True),
        **cc_kwargs,
    )

    def own(t: pa.Table) -> pa.Table:
        h = _h(t.column(url_col))
        return pa.table(
            {
                "key": pa.array(h, pa.int64()),
                "url": t.column(url_col),
                "comp": pa.array(h, pa.int64()),
            }
        )

    def lbl(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "node" not in t.column_names:
            return pa.table({"key": pa.array([], pa.int64()),
                             "url": pa.array([], pa.string()),
                             "comp": pa.array([], pa.int64())})
        return pa.table(
            {
                "key": t.column("node"),
                "url": pa.nulls(t.num_rows, pa.string()),
                "comp": t.column("comp"),
            }
        )

    from ray.data.aggregate import Min

    merged = (
        nodes_ds.map_batches(own, batch_format="pyarrow", zero_copy_batch=True)
        .union(cc.map_batches(lbl, batch_format="pyarrow", zero_copy_batch=True))
        .groupby("key")
        .aggregate(Min("comp", alias_name="comp"), Min("url", alias_name="url"))
    )
    return merged.map_batches(
        lambda t: t.select(["url", "comp"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
