"""Web-graph analytics over the corpus link graph: edge extraction,
degree distributions, PageRank, HITS, spam mass, BFS distances, k-core,
triangles, edge Jaccard, host co-citation, HyperANF neighborhood sizes
and random walks.

The reference stops at the visited-URL set; the natural next consumer of
a 100TB crawl is the link GRAPH — in/out-degree statistics and a
centrality score (PageRank/HITS) per page. Graph nodes are the corpus
pages; edges are the DISTINCT in-corpus, non-self hyperlinks extracted
by the same pure extractor the crawler uses (extract.py M1, reference
parser.go:120-208), so the graph is exactly "what the crawler saw".

**The node set enters as a Dataset**, never a Python list: at 10^10
URLs (~60B average) a driver-side url list is ~600GB of heap. Every
entry point takes ``nodes`` = a ``ray.data.Dataset`` with a distinct
``url`` column (for the registered queries that is the corpus url
column, read column-pruned), and the engine picks one of two regimes by
``nodes.count()``. Either way node identity is the sorted url buckets
(:func:`_url_buckets`), built by task rounds over the node Dataset's
blocks: a task samples each node block, one picks the boundary urls, a
map per block range-partitions its urls and a reduce per bucket sorts
them. Node ids are url ranks; each bucket's first id is a prefix sum of
the O(buckets) counts the driver fetches. The regimes differ only in the
number of url buckets:

- **Broadcast regime** (≤ ``SHUFFLE_MODE_NODES``): one bucket, sorted
  by ONE remote task and living only in the object store — the driver
  holds an ``ObjectRef``, never the strings. Membership is a per-batch
  ``pc.is_in`` probe; node ids are ``pc.index_in`` ranks against the same
  shared array (the graph calls drop an edge whose endpoint has no rank).
- **Shuffle regime** (above it): one bucket per task bucket, so no
  O(nodes) object exists anywhere. Edge endpoints are cut by the bucket
  boundaries and looked up per bucket (``pc.is_in`` / ``pc.index_in``
  against the bucket's sorted urls) by task rounds over the same
  boundaries.

Any call over a node set that repeats a url raises ``ValueError`` naming
it, in either regime.

Scale shapes:

- **Edge build is exchange-free** (:func:`build_edges`): every (src, dst)
  edge originates from exactly one page row, so "globally distinct
  edges" = per-row dedup — vectorized Arrow kernels. In the broadcast
  regime membership is applied in the extraction map; in the shuffle
  regime one task round cuts the candidate pairs by url bucket of dst and
  keeps, per bucket, the rows whose dst is one of its urls.
- **Degrees, triangles, edge Jaccard and host co-citation count on the
  pinned graph** (below) with no Ray Data exchange: :func:`degrees` pins
  the ``fwd`` and ``bwd`` layouts and counts them with one task per
  bucket; :func:`triangle_counts` and :func:`edge_jaccard` pin ``und``
  and run two task rounds (neighbour lists sorted by (deg, id), then
  wedges closed at their first endpoint's bucket) and a counting task
  per bucket; :func:`host_cocitation` pins ``bwd`` and runs two task
  rounds (each page's distinct out-hosts gathered at its bucket, then
  host pairs summed at a hash bucket of the first host).
- **Every iterative graph operator is one kernel in both regimes:
  edges pinned once as bucket slices, then rounds of stateless tasks.**
  PageRank, HITS, spam mass (:func:`spam_mass`, the uniform and the
  seeded rank over the same pins), BFS (:func:`bfs_distances`), k-core
  (:func:`kcore`), label propagation (labelprop.py), SCC and bow-tie
  (scc.py), HyperANF (:func:`neighborhood_sizes`, sparse register rows
  as state) and random walks (:func:`random_walks`, walker rows as
  state; like the others it takes the pages and the node set) all run
  on it, and so do the counting calls above. No actor pool and no
  Dataset job per iteration: tasks run on the pooled workers, retry on
  worker death, and a lost pinned array is rebuilt from lineage. Node ids are range-bucketed; a pin round cuts
  the id-mapped edges into per-bucket slices; each round is a map task
  per pinned bucket returning one part per destination bucket, and a
  reduce task per bucket folding them. PageRank pins per-src-bucket
  slices (each with its ``inv`` slice and teleport slices) and maps
  out-edges' ``rank·inv`` contributions; HITS also pins dst-bucket
  slices and runs an authority and a hub round per iteration. The
  traversals pin out-edge, reversed in-edge or symmetric-closure
  slices and keep integer state (distances, alive masks, labels,
  colours), one dense slice per bucket; each reduce also returns how
  many of its nodes changed, so a convergence loop fetches O(buckets)
  ints a round. The exchange is object refs, per-task state is one
  bucket slice, and the driver holds refs and O(buckets) numbers; no
  Ray Data execution starts after the pin round. The regimes differ
  only in the number of url buckets (:func:`_graph`): the broadcast
  regime has one, against which the extraction map maps urls to ids;
  the shuffle regime has one per task bucket and maps ids in two task
  rounds. Either attaches urls with one task per bucket against the url
  buckets spanning its ids, plus one task round per node-id column
  (labels, SCC representatives); a graph call reads its nodes and its
  pages with one Ray Data execution each and runs no exchange. The task
  bucket count (``n_buckets``; by default one per session CPU in the
  broadcast regime and one per L1 bucket in the shuffle regime) changes
  speed, never a result.
- **Results are bit-identical to the single-process references at any
  block layout, bucket count or mode** (test-asserted). Every per-dst
  sum is ``np.add.reduceat`` over the (dst, src)-sorted contribution
  run, re-sorted by each reduce, so float summation order is fixed by
  the data, not by partitioning, and the per-edge contribution is the
  same single ``rank*inv`` product as :func:`_contrib_sums`. The HITS
  hub partials and L1 normalization total are pinned to a fixed bucket
  size (:func:`_graph_buckets`), independent of the task bucket, which
  is a whole number of them: per-(src, L1 bucket) partials folded in
  bucket order, and per-L1-bucket ``np.sum`` partials folded by
  ``np.sum`` in bucket order (:func:`_l1_total`).

Dangling-node mass (pages with no outlinks) is dropped, not
redistributed — ranks sum to < 1 but the relative ordering follows the
standard "simplified PageRank" (Page et al. 1999, the formulation
without the dangling patch). Documented so the single-process oracle
(:func:`pagerank_reference`, used by expected.py) matches bit-for-bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "build_edges", "degrees", "pagerank", "pagerank_reference", "hits",
    "hits_reference", "anchor_text_index", "bfs_distances", "kcore", "triangle_counts",
    "edge_jaccard", "neighborhood_sizes", "host_graph", "host_degrees", "weighted_pagerank",
    "weighted_spam_mass", "weighted_pagerank_reference", "spam_mass", "random_walks",
    "host_cocitation", "SHUFFLE_MODE_NODES",
]

# Above this node count the broadcast rank vector (8B/node — 40MB at 5M)
# stops being "small state" and mode="auto" switches to the fully-
# distributed shuffle formulation.
SHUFFLE_MODE_NODES = 5_000_000

_DAMPING = 0.85
_N_ITERS = 10


# ---------------------------------------------------------------------------
# node-set handshake: sorted url buckets
#
# Node ids are url ranks in sorted (byte) order. The sorted url set is built
# as task rounds over the node Dataset's blocks, in ``nu`` url buckets: one
# task samples each block, one picks ``nu - 1`` boundary urls from the
# samples, a map task per block cuts its urls by those boundaries
# (:func:`_split_by`) and a reduce task per bucket sorts its urls
# (:func:`_url_sort`). The driver gets only the ``nu`` bucket counts, whose
# prefix sum gives each bucket's first id. With one bucket (the broadcast
# regime) the blocks go straight to the one sort task.


def _url_sample(k: int, t: pa.Table) -> np.ndarray:
    """About ``k`` urls of one node block, evenly strided."""
    if "url" not in t.column_names:  # a zero-row block may carry no schema
        return np.empty(0, object)
    urls = t.column("url")
    return urls.take(np.arange(0, len(urls), max(1, len(urls) // k))).to_numpy(zero_copy_only=False)


def _url_bounds(nu: int, *samples) -> np.ndarray:
    """The ``nu - 1`` boundary urls of ``nu`` url buckets: quantiles of the
    block samples."""
    s = np.sort(np.concatenate([np.empty(0, object), *samples]))
    return s[np.arange(1, nu) * len(s) // nu] if len(s) else np.full(nu - 1, "", object)


def _split_by(bounds: np.ndarray, key: str, t: pa.Table):
    """Map task of a url-bucket round: the rows of one block cut into one
    part per url bucket of their ``key`` url (bucket j holds the urls from
    ``bounds[j - 1]`` up to, not including, ``bounds[j]``). Vectorized: one
    ``np.searchsorted`` over the url column."""
    k = len(bounds) + 1
    if key not in t.column_names:  # a zero-row block may carry no schema
        return _task_parts([t] * k)
    b = np.searchsorted(bounds, t.column(key).to_numpy(zero_copy_only=False), side="right")
    order = np.argsort(b, kind="stable")
    cuts = _bucket_cuts(b[order], 1, k)
    return _task_parts([t.take(order[i:j]) for i, j in zip(cuts[:-1], cuts[1:])])


def _url_sort(*parts) -> tuple[pa.Array, int]:
    """Reduce task of one url bucket: its urls sorted, and their count. A
    url the node set repeats raises ``ValueError`` (repeats share a bucket,
    so every repeat is seen)."""
    chunks = [c for t in parts if t.num_rows for c in t.column("url").chunks]
    if not chunks:
        return pa.array([], pa.string()), 0
    arr = pa.concat_arrays(chunks)
    arr = arr.take(pc.array_sort_indices(arr))
    rep = np.flatnonzero(pc.equal(arr[1:], arr[:-1]).to_numpy(zero_copy_only=False))
    if len(rep):
        raise ValueError(f"node set repeats url {arr[int(rep[0])].as_py()!r}")
    return arr, len(arr)


def _url_buckets(blocks: list, nu: int):
    """Node blocks → (per url bucket a ref to its sorted urls, per bucket a
    ref to its count, ref to the bucket boundaries or None if ``nu`` is 1).
    Nothing is fetched; the sort tasks raise ``ValueError`` on a repeated
    url."""
    import ray

    if nu == 1:
        bounds, parts = None, [[b] for b in blocks]
    else:
        sample = ray.remote(num_cpus=1)(_url_sample)
        bounds = ray.remote(num_cpus=1)(_url_bounds).remote(
            nu, *(sample.remote(16 * nu, b) for b in blocks)
        )
        split = ray.remote(num_cpus=1)(_split_by).options(num_returns=nu)
        parts = [_part_refs(split.remote(bounds, "url", b), nu) for b in blocks]
    sort = ray.remote(num_cpus=1)(_url_sort).options(num_returns=2)
    out = [sort.remote(*(p[j] for p in parts)) for j in range(nu)]
    return [u for u, _ in out], [c for _, c in out], bounds


def _offsets(counts: list) -> np.ndarray:
    """First node id of each url bucket, then n: the prefix sum of the
    fetched bucket counts (a repeated node url raises here)."""
    import ray

    return np.concatenate([[0], np.cumsum(ray.get(counts))]).astype(np.int64)


def _blocks(ds) -> list:
    """The block refs of a Dataset, by ONE execution (``to_arrow_refs`` on
    an unexecuted mapped Dataset runs it a second time for its schema)."""
    return ds.materialize().to_arrow_refs()


# ---------------------------------------------------------------------------
# edge build


def _link_pairs(t: pa.Table, keep: pa.Array | None = None) -> pa.Table:
    """links list column → distinct non-self (src, dst) rows, keeping only
    the rows whose dst is in ``keep`` if given. Row-local and fully
    vectorized; see module docstring."""
    links = t.column("links")
    if isinstance(links, pa.ChunkedArray):
        links = links.combine_chunks()
    flat = pc.list_flatten(links)
    src = pc.take(t.column("url"), pc.list_parent_indices(links))
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    mask = pc.not_equal(flat, src)
    if keep is not None:
        mask = pc.and_(pc.is_in(flat, value_set=keep), mask)
    pairs = pa.table({"src": pc.filter(src, mask), "dst": pc.filter(flat, mask)})
    # batch-local distinct = global distinct (each src lives in one row)
    return pairs.group_by(["src", "dst"]).aggregate([])


def _extracted(pages_ds):
    from ..extract import extract_links_batch

    return pages_ds.map_batches(
        extract_links_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _member_edges(urls: pa.Array, *parts) -> pa.Table:
    """Shuffle-regime reduce task of one url bucket: the (src, dst)
    candidate rows cut to it whose dst is one of its sorted ``urls``."""
    typed = [t for t in parts if "dst" in t.column_names]  # a zero-row block may carry no schema
    if not typed:
        return pa.table({"src": pa.array([], pa.string()), "dst": pa.array([], pa.string())})
    t = pa.concat_tables(typed)
    return t.filter(pc.is_in(t.column("dst"), value_set=urls))


def build_edges(pages_ds, nodes, *, mode: str = "auto"):
    """Distinct in-corpus (src, dst) edge Dataset from a pages Dataset.

    ``nodes`` is the graph's node set as a Dataset with a distinct ``url``
    column (for the registered queries, the corpus url column — a
    column-pruned ``read_parquet``); ``mode`` ("broadcast", "shuffle" or
    "auto") resolves as for the rank calls (:func:`_rank_regime`). The
    node set is sorted into url buckets (:func:`_url_buckets`), and a
    repeated url raises ``ValueError`` here, at call time.

    - Broadcast regime (one url bucket): the extraction map keeps the
      links found in the bucket (``pc.is_in``) before its per-block
      distinct; the driver holds only the bucket's ref.
    - Shuffle regime: one task round over the distinct candidate pairs, a
      map per block cutting them by url bucket of dst (:func:`_split_by`)
      and a reduce per bucket keeping the rows whose dst is one of its
      urls (:func:`_member_edges`). No Ray Data exchange.

    Edge sources are assumed ⊆ nodes (pages ARE nodes for the corpus
    graph), matching the reference's extraction seam (parser.go:120-208:
    links come only from fetched pages).
    """
    import ray
    import ray.data

    n = nodes.count()
    mode, per_bucket = _rank_regime(max(n, 1), mode, None)
    nu = max(1, -(-n // per_bucket)) if mode == "shuffle" else 1
    urls, counts, bounds = _url_buckets(_blocks(nodes), nu)
    _offsets(counts)  # fetches the counts, so a repeated url raises now
    if nu == 1:
        keep = urls[0]

        def to_edges(t: pa.Table) -> pa.Table:
            return _link_pairs(t, ray.get(keep))

        return _extracted(pages_ds).map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
    pairs = _extracted(pages_ds).map_batches(_link_pairs, batch_format="pyarrow", zero_copy_batch=True)
    split = ray.remote(num_cpus=1)(_split_by).options(num_returns=nu)
    by_dst = [_part_refs(split.remote(bounds, "dst", b), nu) for b in _blocks(pairs)]
    member = ray.remote(num_cpus=1)(_member_edges)
    return ray.data.from_arrow_refs([member.remote(u, *(p[j] for p in by_dst)) for j, u in enumerate(urls)])


# ---------------------------------------------------------------------------
# shared deterministic primitives


def _contrib_sums(
    dst: np.ndarray,
    src: np.ndarray,
    ranks: np.ndarray,
    inv_out: np.ndarray,
    w: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-dst contribution sums over a (dst, src)-sorted run — the
    float-summation primitive of the single-process references; the rank
    kernel (:func:`_rank_map` / :func:`_rank_reduce`) computes the same
    products and sums them in the same order, so rank floats are
    bit-identical on any partitioning. ``w`` (weighted graphs, e.g. the
    host graph) multiplies each edge's contribution AFTER the rank·inv
    product — ``(ranks[src]*inv_out[src])*w`` — the pinned ordering the
    kernel and every reference share."""
    if len(dst) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    c = ranks[src] * inv_out[src]
    if w is not None:
        c = c * w
    starts = np.flatnonzero(np.r_[True, np.diff(dst) != 0])
    return dst[starts], np.add.reduceat(c, starts)


def _l1_total(v: np.ndarray, per_bucket: int) -> float:
    """Pinned L1 total of a dense non-negative score vector: per-bucket
    ``np.sum`` partials folded by ``np.sum`` in bucket order — the same
    two-level tree the HITS kernel computes distributedly (each reduce
    sums the L1 buckets of its dense slice, the driver folds the
    concatenated partials), so normalization is bit-identical across
    modes, task bucket counts and cluster sizes."""
    n = len(v)
    if n == 0:
        return 0.0
    nb = -(-n // per_bucket)
    parts = np.empty(nb, dtype=np.float64)
    for i in range(nb):
        parts[i] = np.sum(v[i * per_bucket : (i + 1) * per_bucket])
    return float(np.sum(parts))


def _graph_buckets(n: int) -> int:
    """Bucket-SIZE rule of the L1 granularity: ~100k nodes a bucket, but
    ``n / 16`` nodes (so about 16 buckets) up to 1.6M nodes and at most
    4096 buckets. HITS folds its hub partials and L1 totals over buckets
    of this size in :func:`hits_reference` and in the kernel, whatever
    the task bucket; it is also the shuffle regime's default task
    bucket."""
    return max(1, -(-n // max(16, min(4096, -(-n // 100_000)))))


# ---------------------------------------------------------------------------
# rank kernel: bucket slices pinned once, iterations as map/reduce task rounds
#
# Node ids are range-bucketed (bucket b = ids [b·per_bucket, (b+1)·per_bucket)).
# A pin round cuts the id-mapped edges into per-bucket numpy arrays that stay
# in the object store; every iteration is then one round of stateless tasks:
# a map task per pinned bucket returns one part per destination bucket
# (``num_returns=nb``), and reduce task b folds part b of every map task.
# The exchange is object refs passed from map to reduce tasks — M×R objects,
# never a Dataset job. Score state is one dense slice per bucket, held by
# ref; the driver holds refs and O(buckets) floats. Reduces re-sort what they
# receive, so results do not depend on how edges or buckets are split into
# blocks, nor on the bucket count. Both regimes run this kernel; they differ
# only in the number of sorted url buckets the graph's node ids come from
# (:func:`_graph`).


def _task_bucket(n: int, n_buckets: int) -> int:
    """per_bucket of a rank call cut into about ``n_buckets`` task buckets:
    a whole number of L1 buckets (:func:`_graph_buckets`), so each HITS
    reduce folds whole L1 chunks."""
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be at least 1, got {n_buckets}")
    l1 = _graph_buckets(n)
    n_l1 = -(-n // l1)
    return l1 * -(-n_l1 // n_buckets)


def _rank_regime(n: int, mode: str, n_buckets: int | None) -> tuple[str, int]:
    """(mode, per_bucket) of a graph call over n > 0 nodes. Without
    ``n_buckets`` the shuffle regime runs one task bucket per L1 bucket
    and the broadcast regime one per session CPU (at most one per L1
    bucket)."""
    import ray

    if mode == "auto":
        mode = "shuffle" if n > SHUFFLE_MODE_NODES else "broadcast"
    if mode not in ("broadcast", "shuffle"):
        raise ValueError(f"mode must be 'auto', 'broadcast' or 'shuffle', got {mode!r}")
    if n_buckets is None:
        n_buckets = -(-n // _graph_buckets(n))
        if mode == "broadcast":
            n_buckets = min(n_buckets, max(1, int(ray.cluster_resources().get("CPU", 1))))
    return mode, _task_bucket(n, n_buckets)


def _empty_scores(key="url", **cols):
    """The result of a graph call over an empty node set: a string column
    ``key``, then ``cols`` (name → type)."""
    import ray.data

    return ray.data.from_arrow(
        pa.table({key: pa.array([], pa.string()), **{c: pa.array([], t) for c, t in cols.items()}})
    )


def _id_pairs(t: pa.Table, urls: pa.Array) -> pa.Table:
    """(src, dst[, w]) url rows → (src_id, dst_id[, w]) rows, ids being
    ``pc.index_in`` positions in the shared sorted node array; rows with
    an endpoint outside the node set are dropped."""
    if "src" not in t.column_names:  # a zero-row block may carry no schema
        return t
    src = pc.index_in(t.column("src"), value_set=urls)
    dst = pc.index_in(t.column("dst"), value_set=urls)
    keep = pc.and_(pc.is_valid(src), pc.is_valid(dst))
    cols = {"src_id": src.filter(keep).cast(pa.int64()), "dst_id": dst.filter(keep).cast(pa.int64())}
    if "w" in t.column_names:  # weighted graphs (host graph) carry w
        cols["w"] = t.column("w").filter(keep).cast(pa.int64())
    return pa.table(cols)


def _url_ids(lo: int, urls: pa.Array, key: str, bounds, *parts) -> pa.Table:
    """Edge-round reduce task of the url bucket whose sorted urls ``urls``
    start at node id ``lo``: the url column ``key`` of its rows replaced by
    ``key_id`` (``pc.index_in`` against the bucket, which also drops the
    rows whose ``key`` is not a node). Given ``bounds``, the rows come out
    cut by url bucket of ``src`` for the next round."""
    tabs = [t for t in parts if t.num_rows]
    t = pa.concat_tables(tabs) if tabs else pa.table({})
    if t.num_rows:
        pos = pc.index_in(t.column(key), value_set=urls)
        keep = pc.is_valid(pos)
        ids = pc.add(pos.filter(keep).cast(pa.int64()), lo)
        t = t.filter(keep)
        t = t.set_column(t.schema.get_field_index(key), f"{key}_id", ids)
    return t if bounds is None else _split_by(bounds, "src", t)


def _seed_ids(lo: int, urls: pa.Array, seeds: list[str]):
    """(position in ``seeds``, node id) of the seeds found in the url
    bucket whose sorted urls ``urls`` start at node id ``lo``."""
    pos = pc.index_in(pa.array(seeds, pa.string()), value_set=urls)
    hit = pc.is_valid(pos)
    return np.flatnonzero(hit.to_numpy(zero_copy_only=False)), lo + pos.filter(hit).to_numpy().astype(np.int64)


def _id_split(t: pa.Table, col: str, offsets: np.ndarray):
    """Attach-round map task: one block's node-id column ``col``, sorted,
    cut into one part per url bucket."""
    v = np.sort(t.column(col).to_numpy())
    return _task_parts(np.split(v, np.searchsorted(v, offsets[1:-1])))


def _id_urls(lo: int, urls: pa.Array, *parts):
    """Attach-round reduce task of the url bucket starting at node id
    ``lo``: each block's ids → their urls."""
    return _task_parts([urls.take(pa.array(p - lo)) for p in parts])


def _take_urls(t: pa.Table, lo: int, ids, k: int, *args) -> pa.Table:
    """Url attach of one bucket's (node_id, *cols) block. ``args``: the
    ``k`` url buckets spanning its node ids (the first starting at id
    ``lo``), then per column in ``ids`` the urls of its sorted ids from
    each url bucket (:func:`_id_urls`), put back in row order."""
    urls = pa.chunked_array(args[:k])
    cols = {"url": urls.take(pc.subtract(t.column("node_id"), lo))}
    found = args[k:]
    nu = len(found) // max(1, len(ids))
    for c in t.column_names[1:]:
        cols[c] = t.column(c)
        if c in ids:
            i = ids.index(c)
            order = np.argsort(t.column(c).to_numpy(), kind="stable")
            cols[c] = pa.concat_arrays(found[i * nu : (i + 1) * nu]).take(pa.array(np.argsort(order)))
    return pa.table(cols)


def _url_slice(start: int, k: int, *urls) -> pa.Array:
    """``k`` urls from position ``start`` of consecutive url buckets."""
    return pa.chunked_array(urls).slice(start, k).combine_chunks()


class _RankGraph(NamedTuple):
    """A graph call's prepared graph: ``n`` nodes in task buckets of
    ``per_bucket`` ids, refs to the (src_id, dst_id[, w]) edge blocks in
    any layout, and the sorted url buckets (``urls``: one ref per bucket,
    ``offsets``: each bucket's first id, then n; one bucket in the
    broadcast regime). Ids are url ranks in sorted order."""

    n: int
    per_bucket: int
    edges: list
    urls: list
    offsets: np.ndarray

    def bounds(self) -> list[tuple[int, int]]:
        """The [lo, hi) node-id range of each task bucket."""
        return [(lo, min(lo + self.per_bucket, self.n)) for lo in range(0, self.n, self.per_bucket)]

    def lookup(self, urls: list[str]) -> np.ndarray:
        """Node ids of the sorted distinct ``urls`` (config-sized seed
        lists), -1 for a url outside the node set: one small task per url
        bucket."""
        import ray

        find = ray.remote(num_cpus=1)(_seed_ids)
        ids = np.full(len(urls), -1, np.int64)
        for pos, found in ray.get([find.remote(int(lo), u, urls) for lo, u in zip(self.offsets, self.urls)]):
            ids[pos] = found
        return ids

    def seed_ids(self, seed_urls: list[str]):
        """ObjectRef to the sorted node ids of ``seed_urls``: at most
        |seeds| ids reach the driver, and a seed outside the node set
        raises ``ValueError`` before any iteration."""
        import ray

        seeds = sorted(set(seed_urls))
        ids = self.lookup(seeds)
        missing = [s for s, i in zip(seeds, ids) if i < 0]
        if missing:
            raise ValueError(f"seed_urls not in node set: {missing[:3]}")
        return ray.put(ids)

    def pin(self, layouts) -> list[list]:
        """The traversal pin round: one :func:`_pin_split` task per edge
        block, one :func:`_pin_edges` task per bucket. Returns per layout
        (``fwd``, ``bwd``, ``und``) one pin ref per bucket; nothing reaches
        the driver."""
        import ray

        nb = len(self.bounds())
        split = ray.remote(num_cpus=1)(_pin_split).options(num_returns=2 * nb)
        parts = [_part_refs(split.remote(b, self.per_bucket, nb, False, True), 2 * nb) for b in self.edges]
        task = ray.remote(num_cpus=1)(_pin_edges).options(num_returns=len(layouts))
        pins = [
            _part_refs(
                task.remote(lo, self.per_bucket, nb, layouts, len(parts),
                            *(p[b] for p in parts), *(p[nb + b] for p in parts)),
                len(layouts),
            )
            for b, (lo, _) in enumerate(self.bounds())
        ]
        return [list(col) for col in zip(*pins)]

    def url_slices(self) -> list:
        """Per task bucket a ref to its sorted url slice (ids [lo, hi)): one
        :func:`_url_slice` task over the url buckets spanning its ids, as
        :meth:`attach` finds them. Nothing reaches the driver."""
        import ray

        task = ray.remote(num_cpus=1)(_url_slice)
        out = []
        for lo, hi in self.bounds():
            span = np.flatnonzero((self.offsets[:-1] < hi) & (self.offsets[1:] > lo))
            first = int(self.offsets[span[0]])
            out.append(task.remote(lo - first, hi - lo, *(self.urls[j] for j in span)))
        return out

    def attach(self, blocks, ids=()):
        """Per-bucket (node_id, *cols) block refs → Dataset of (url, *cols);
        each column in ``ids`` holds node ids and comes out as their urls.
        One :func:`_take_urls` task per bucket against the url buckets
        spanning its ids; each column in ``ids`` adds one task round, a map
        per block sending its ids to the url buckets holding them and a
        reduce per url bucket naming them. No Ray Data exchange."""
        import ray
        import ray.data

        nu, nb = len(self.urls), len(blocks)
        split = ray.remote(num_cpus=1)(_id_split).options(num_returns=nu)
        name = ray.remote(num_cpus=1)(_id_urls).options(num_returns=nb)
        found = []
        for c in ids:
            parts = [_part_refs(split.remote(blk, c, self.offsets), nu) for blk in blocks]
            found.append([
                _part_refs(name.remote(int(self.offsets[j]), u, *(p[j] for p in parts)), nb)
                for j, u in enumerate(self.urls)
            ])
        take = ray.remote(num_cpus=1)(_take_urls)
        out = []
        for b, (blk, (lo, hi)) in enumerate(zip(blocks, self.bounds())):
            span = np.flatnonzero((self.offsets[:-1] < hi) & (self.offsets[1:] > lo))
            out.append(take.remote(
                blk, int(self.offsets[span[0]]), ids, len(span), *(self.urls[j] for j in span),
                *(f[j][b] for f in found for j in range(nu)),
            ))
        return ray.data.from_arrow_refs(out)


def _graph(nodes, pairs, n: int, mode: str, n_buckets: int | None) -> _RankGraph:
    """The graph of a rank or traversal call over the ``n`` urls of
    ``nodes``: the (src, dst[, w]) url rows of ``pairs`` with both ends in
    the node set, mapped to node ids (url ranks), in the regime ``mode``
    resolves to. The node ids are sorted url buckets
    (:func:`_url_buckets`), one per task bucket in the shuffle regime.

    - Broadcast regime: one url bucket; one task per ``pairs`` block maps
      its edges to ids against it (:func:`_id_pairs`).
    - Shuffle regime: two task rounds over the ``pairs`` blocks: cut by
      url bucket of dst, map dst to ids in each bucket and cut by url
      bucket of src, map src to ids (:func:`_url_ids`). Each src bucket's
      (src_id, dst_id[, w]) block feeds the pin round.

    One Ray Data execution reads ``nodes`` and one ``pairs``, while the
    url buckets sort; the driver gets the url bucket counts only."""
    import ray

    mode, per_bucket = _rank_regime(n, mode, n_buckets)
    nu = -(-n // per_bucket) if mode == "shuffle" else 1
    urls, counts, bounds = _url_buckets(_blocks(nodes), nu)
    blocks = _blocks(pairs)
    if nu == 1:
        ids = ray.remote(num_cpus=1)(_id_pairs)
        edges = [ids.remote(b, urls[0]) for b in blocks]
        return _RankGraph(n, per_bucket, edges, urls, _offsets(counts))
    split = ray.remote(num_cpus=1)(_split_by).options(num_returns=nu)
    by_dst = [_part_refs(split.remote(bounds, "dst", b), nu) for b in blocks]
    offsets = _offsets(counts)
    dst_ids = ray.remote(num_cpus=1)(_url_ids).options(num_returns=nu)
    src_ids = ray.remote(num_cpus=1)(_url_ids)
    by_src = [
        _part_refs(dst_ids.remote(int(offsets[j]), urls[j], "dst", bounds, *(p[j] for p in by_dst)), nu)
        for j in range(nu)
    ]
    edges = [
        src_ids.remote(int(offsets[j]), urls[j], "src", None, *(p[j] for p in by_src))
        for j in range(nu)
    ]
    return _RankGraph(n, per_bucket, edges, urls, offsets)


def _page_graph(pages_ds, nodes, n: int, mode: str, n_buckets: int | None) -> _RankGraph:
    """The corpus link graph of :func:`pagerank`, :func:`hits` and the
    traversals: the extracted distinct non-self links as :func:`_graph`
    pairs."""
    pairs = _extracted(pages_ds).map_batches(_link_pairs, batch_format="pyarrow", zero_copy_batch=True)
    return _graph(nodes, pairs, n, mode, n_buckets)


def _task_parts(parts: list):
    """Per-bucket parts as a task's return value: Ray hands back the value
    of a ``num_returns=1`` task whole, so a single part goes unwrapped."""
    return parts[0] if len(parts) == 1 else tuple(parts)


def _part_refs(refs, k: int) -> list:
    """The refs of a ``num_returns=k`` call as a list (bare ref if k == 1)."""
    return [refs] if k == 1 else list(refs)


def _bucket_cuts(key: np.ndarray, per_bucket: int, nb: int) -> np.ndarray:
    """Row offsets where each bucket of an ascending node-id ``key`` starts
    (plus the end), so bucket b is rows ``cuts[b]:cuts[b + 1]``."""
    return np.searchsorted(key, np.arange(nb + 1, dtype=np.int64) * per_bucket)


def _cut(cuts: np.ndarray, *cols) -> list:
    """Bucket-sorted columns → one column tuple per bucket."""
    return [tuple(c[a:b] for c in cols) for a, b in zip(cuts[:-1], cuts[1:])]


def _concat_parts(parts, k: int) -> list:
    """Column-wise concatenation of part tuples (k int64 empties if none)."""
    if not parts:
        return [np.empty(0, np.int64) for _ in range(k)]
    return [np.concatenate(col) for col in zip(*parts)]


def _sorted_run_sums(key, tie, vals) -> tuple[np.ndarray, np.ndarray]:
    """Per-key sums of ``vals`` over rows sorted by (key, tie) — the fixed
    summation order the references use, whatever order rows arrive in."""
    order = np.lexsort((tie, key))
    key, vals = key[order], vals[order]
    starts = np.flatnonzero(np.r_[True, np.diff(key) != 0])
    return key[starts], np.add.reduceat(vals, starts)


def _pin_split(t: pa.Table, per_bucket: int, nb: int, weighted: bool, both: bool):
    """Pin-round map task over one block of id-mapped edges: its
    (src, dst[, w]) columns cut into one part per SRC bucket and, for HITS
    (``both``), one more per DST bucket."""
    names = ("src_id", "dst_id", "w")[: 2 + weighted]
    if "src_id" in t.column_names:
        cols = [t.column(c).to_numpy(zero_copy_only=False).astype(np.int64) for c in names]
    else:  # an edgeless graph materializes an empty-schema block
        cols = [np.empty(0, np.int64) for _ in names]
    parts = []
    for key in cols[:2] if both else cols[:1]:
        order = np.argsort(key, kind="stable")
        parts += _cut(_bucket_cuts(key[order], per_bucket, nb), *(c[order] for c in cols))
    return _task_parts(parts)


def _teleport_slices(lo: int, hi: int, n: int, damping: float, ids):
    """(base, rank0) slices for node ids [lo, hi): uniform (the pinned
    one-division floats) or, given the seed ids, mass 1/|S| only on the
    seeds (TrustRank personalization)."""
    if ids is None:
        return np.full(hi - lo, (1.0 - damping) / n), np.full(hi - lo, 1.0 / n)
    sel = ids[(ids >= lo) & (ids < hi)] - lo
    base = np.zeros(hi - lo, dtype=np.float64)
    rank0 = np.zeros(hi - lo, dtype=np.float64)
    base[sel] = (1.0 - damping) / len(ids)
    rank0[sel] = 1.0 / len(ids)
    return base, rank0


def _pin_src(lo, hi, per_bucket, nb, n, damping, teleports, *parts):
    """Pin-round reduce task for the src bucket [lo, hi): its out-edges
    sorted by (dst, src) and cut by dst bucket, the bucket's ``inv``
    slice (1 / integer out-degree or out-weight — every out-edge of these
    srcs is here), then each teleport variant's (base, rank0) slices."""
    src, dst, *w = _concat_parts(parts, 2)
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    w = w[0][order] if w else None
    out = np.zeros(hi - lo, dtype=np.int64)
    np.add.at(out, src - lo, 1 if w is None else w)
    inv = np.zeros(hi - lo, dtype=np.float64)
    nz = out > 0
    inv[nz] = 1.0 / out[nz]
    pin = {
        "lo": lo,
        "src": src,
        "dst": dst,
        "w": w,
        "inv": inv,
        "cuts": _bucket_cuts(dst, per_bucket, nb),
    }
    import ray

    slices = []
    for seeds in teleports:  # None or a seed-id ref
        ids = None if seeds is None else ray.get(seeds)
        slices += _teleport_slices(lo, hi, n, damping, ids)
    return (pin, *slices)


def _pin_buckets(edges, n, per_bucket, *, weighted=False, hits=False, damping=_DAMPING,
                 teleports=(None,)):
    """The pin round over the id-mapped edge blocks (refs): one
    :func:`_pin_split` task per block, one :func:`_pin_src` (and for HITS
    one :func:`_pin_dst`) task per bucket. Returns (src pins, dst pins,
    per teleport variant the (base, rank0) slice refs), one ref per bucket
    each; nothing reaches the driver."""
    import ray

    nb = -(-n // per_bucket)
    k = 2 * nb if hits else nb
    split = ray.remote(num_cpus=1)(_pin_split).options(num_returns=k)
    parts = [
        _part_refs(split.remote(b, per_bucket, nb, weighted, hits), k) for b in edges
    ]
    pin_src = ray.remote(num_cpus=1)(_pin_src).options(num_returns=1 + 2 * len(teleports))
    pin_dst = ray.remote(num_cpus=1)(_pin_dst)
    l1 = _graph_buckets(n)
    src_pins, dst_pins, slices = [], [], []
    for b in range(nb):
        lo, hi = b * per_bucket, min((b + 1) * per_bucket, n)
        pin, *sl = pin_src.remote(
            lo, hi, per_bucket, nb, n, damping, list(teleports), *(p[b] for p in parts)
        )
        src_pins.append(pin)
        slices.append(sl)
        if hits:
            dst_pins.append(pin_dst.remote(lo, per_bucket, l1, nb, *(p[nb + b] for p in parts)))
    inits = [([s[2 * v] for s in slices], [s[2 * v + 1] for s in slices])
             for v in range(len(teleports))]
    return src_pins, dst_pins, inits


def _shuffle_round(step, fold, pins, states, step_args, fold_args) -> list:
    """One map/reduce round: ``step`` (``num_returns=nb``) per pinned bucket
    with its state slice returns a part per destination bucket; ``fold``
    for bucket b takes its ``fold_args[b]`` and part b of every step, in
    bucket order. Returns the fold refs; nothing is fetched."""
    nb = len(pins)
    parts = [_part_refs(step.remote(p, s, *step_args), nb) for p, s in zip(pins, states)]
    return [fold.remote(*fold_args[b], *(row[b] for row in parts)) for b in range(nb)]


# ---------------------------------------------------------------------------
# PageRank


def _rank_map(pin, rank):
    """PageRank map task over one src bucket: each out-edge's contribution
    ``(rank·inv)[src]·w`` — the ``_contrib_sums`` product — cut by dst
    bucket into (dst, src, c) parts."""
    c = (rank * pin["inv"])[pin["src"] - pin["lo"]]
    if pin["w"] is not None:
        c = c * pin["w"]
    return _task_parts(_cut(pin["cuts"], pin["dst"], pin["src"], c))


def _rank_reduce(lo, damping, base, *parts) -> np.ndarray:
    """PageRank reduce task for the dst bucket at ``lo``: per-dst sums over
    the (dst, src)-sorted contributions, then ``base + damping·sums`` —
    the reference's fold, slice by slice."""
    dst, src, c = _concat_parts(parts, 3)
    new = base.copy()
    if len(dst):
        d, s = _sorted_run_sums(dst, src, c)
        np.add.at(new, d - lo, damping * s)
    return new


def _shuffle_rank_slices(edges, n, *, n_iters, damping, teleports, per_bucket, weighted):
    """PageRank kernel: pin once (:func:`_pin_buckets`), then ``n_iters``
    rounds of :func:`_rank_map` / :func:`_rank_reduce` tasks.
    ``teleports`` lists the variants (None = uniform, else a seed-id ref)
    iterated over the SAME pinned buckets — spam mass pins once for both
    ranks. Returns per variant the refs to each bucket's final rank slice.
    Bit-identical to :func:`pagerank_reference` /
    :func:`weighted_pagerank_reference`: same products, same (dst, src)
    summation order, same fold onto the teleport base."""
    import ray

    nb = -(-n // per_bucket)
    pins, _, inits = _pin_buckets(
        edges, n, per_bucket, weighted=weighted, damping=damping, teleports=teleports
    )
    step = ray.remote(num_cpus=1)(_rank_map).options(num_returns=nb)
    fold = ray.remote(num_cpus=1)(_rank_reduce)
    results = []
    for bases, ranks in inits:
        args = [(b * per_bucket, damping, base) for b, base in enumerate(bases)]
        for _ in range(n_iters):
            ranks = _shuffle_round(step, fold, pins, ranks, (), args)
        results.append(ranks)
    return results


def _ppb(v: np.ndarray) -> np.ndarray:
    return np.round(v * 1e9).astype(np.int64)


def _ppb_block(lo: int, names, divs, *vecs) -> pa.Table:
    """One bucket's final score slices → (node_id, *names) rows, each slice
    divided by its normalization total (1.0 for PageRank) and quantized
    to ppb."""
    cols = {"node_id": pa.array(np.arange(lo, lo + len(vecs[0]), dtype=np.int64))}
    for name, div, v in zip(names, divs, vecs):
        cols[name] = pa.array(_ppb(v / div), pa.int64())
    return pa.table(cols)


def _rank_loop(g: _RankGraph, *, n_iters, damping, seed_urls, weighted=False):
    """Power iteration shared by :func:`pagerank` and
    :func:`weighted_pagerank`: one teleport variant through
    :func:`_shuffle_rank_slices`, ranks quantized to ppb per bucket, urls
    attached."""
    import ray

    (ranks,) = _shuffle_rank_slices(
        g.edges,
        g.n,
        n_iters=n_iters,
        damping=damping,
        teleports=[None if seed_urls is None else g.seed_ids(seed_urls)],
        per_bucket=g.per_bucket,
        weighted=weighted,
    )
    ppb = ray.remote(num_cpus=1)(_ppb_block)
    blocks = [ppb.remote(b * g.per_bucket, ("rank_ppb",), (1.0,), r) for b, r in enumerate(ranks)]
    return g.attach(blocks)


def _mass_loop(g: _RankGraph, *, n_iters, damping, seed_urls, weighted=False):
    """Spam mass shared by :func:`spam_mass` and
    :func:`weighted_spam_mass`: the uniform and the seeded teleport
    iterate over the same pins (:func:`_shuffle_rank_slices`), each
    bucket's two final rank slices become mass (:func:`_mass_block`),
    urls attached."""
    import ray

    pr, tr = _shuffle_rank_slices(
        g.edges,
        g.n,
        n_iters=n_iters,
        damping=damping,
        teleports=[None, g.seed_ids(seed_urls)],
        per_bucket=g.per_bucket,
        weighted=weighted,
    )
    mass = ray.remote(num_cpus=1)(_mass_block)
    return g.attach([mass.remote(b * g.per_bucket, p, t) for b, (p, t) in enumerate(zip(pr, tr))])


def pagerank(
    pages_ds,
    nodes,
    *,
    n_iters: int = _N_ITERS,
    damping: float = _DAMPING,
    mode: str = "auto",
    n_buckets: int | None = None,
    seed_urls: list[str] | None = None,
):
    """PageRank over the corpus link graph → Dataset of (url, rank_ppb).

    ``nodes`` is the node set as a Dataset with a distinct ``url`` column.
    ``rank_ppb`` is the rank quantized to parts-per-billion (int64) so
    the correctness gate compares integers; the underlying floats are
    already bit-deterministic (see ``_contrib_sums``). Either ``mode``
    pins the id-mapped edges once as per-bucket slices in the object
    store and runs one map/reduce task round per iteration, with no
    O(nodes) state on the driver or in any single task's rank state.
    ``mode`` picks only how node ids are assigned and urls attached:
    "broadcast" (the ≤``SHUFFLE_MODE_NODES`` regime: ids against one
    shared sorted url array, which the result slices per bucket),
    "shuffle" (ids from one sorted url bucket per task bucket, built and
    read by task rounds, see :func:`_graph`), or "auto". ``n_buckets``
    sets the task bucket count (rounded to whole L1 buckets, see
    :func:`_task_bucket`); it changes speed only, never a result.

    ``seed_urls`` personalizes the teleport (TrustRank, Gyöngyi et al.
    2004): restart mass lands only on the seed set (p = 1/|S| on seeds,
    0 elsewhere) instead of uniformly — the spam-demotion / crawl-
    prioritization form. Seed lists are config-sized (a trusted-site
    list), so holding one as a Python list is the same contract as
    crawl seeds; every seed must be in the node set.
    """
    if seed_urls is not None and not seed_urls:
        raise ValueError("seed_urls must be non-empty when given")
    n = nodes.count()
    if n == 0:
        return _empty_scores(rank_ppb=pa.int64())
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    return _rank_loop(g, n_iters=n_iters, damping=damping, seed_urls=seed_urls)


def spam_mass(
    pages_ds,
    nodes,
    *,
    seed_urls: list[str],
    n_iters: int = _N_ITERS,
    damping: float = _DAMPING,
    mode: str = "auto",
    n_buckets: int | None = None,
):
    """Relative spam mass per page (Gyöngyi et al. 2005, "Link spam
    detection based on mass estimation") → (url, spam_mass_ppb): the
    fraction of a page's PageRank NOT backed by trusted sources,
    :func:`_mass_ppb` of the ppb uniform rank ``pr`` and the ppb TrustRank
    ``tr`` seeded by ``seed_urls``. High spam mass ⇒ rank earned from link
    structures no trusted seed reaches — the classic link-farm demotion
    signal.

    One graph build and one pin round serve both ranks: the uniform and
    the seeded teleport iterate over the same pinned buckets, and each
    bucket turns its two final rank slices into mass (:func:`_mass_block`),
    so no join is needed. Ranks are those of :func:`pagerank` and
    ``pagerank(seed_urls=...)`` bit for bit, in either ``mode`` at any
    ``n_buckets``; every seed must be in the node set."""
    if not seed_urls:
        raise ValueError("seed_urls must be non-empty")
    n = nodes.count()
    if n == 0:
        return _empty_scores(spam_mass_ppb=pa.int64())
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    return _mass_loop(g, n_iters=n_iters, damping=damping, seed_urls=seed_urls)


# ---------------------------------------------------------------------------
# HITS


def _fold_hub_partials(
    n: int, buckets: np.ndarray, srcs: np.ndarray, sums: np.ndarray
) -> np.ndarray:
    """Fold per-(bucket, src) partials into a dense per-src vector,
    adding each src's partials in ascending BUCKET order — the pinned
    deterministic fold of :func:`hits_reference`."""
    hub = np.zeros(n, dtype=np.float64)
    if len(srcs):
        s, v = _sorted_run_sums(srcs, buckets, sums)
        hub[s] = v
    return hub


def _hits_iterate(
    n: int,
    n_iters: int,
    auth_sums,  # callable(hub) -> (dst_ids, sums) with unique dst ids
    hub_parts,  # callable(auth) -> (buckets, srcs, partial_sums)
    per_bucket: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The pinned HITS iteration of :func:`hits_reference` (reference
    code; the distributed kernel is :func:`_hits_shuffle_slices`):
    auth' = Σ hub over in-edges, L1-normalize; hub' = Σ auth' over
    out-edges, L1-normalize. Normalization totals come from the
    two-level :func:`_l1_total` tree, which the kernel computes from
    per-task partials, so the two are bit-identical."""
    hub = np.full(n, 1.0 / n, dtype=np.float64)
    auth = np.zeros(n, dtype=np.float64)
    for _ in range(n_iters):
        d, s = auth_sums(hub)
        auth = np.zeros(n, dtype=np.float64)
        auth[d] = s
        tot = _l1_total(auth, per_bucket)
        if tot > 0:
            auth = auth / tot
        b, sr, ps = hub_parts(auth)
        hub = _fold_hub_partials(n, b, sr, ps)
        tot = _l1_total(hub, per_bucket)
        if tot > 0:
            hub = hub / tot
    return auth, hub


def hits(
    pages_ds,
    nodes,
    *,
    n_iters: int = _N_ITERS,
    mode: str = "auto",
    n_buckets: int | None = None,
):
    """HITS hubs/authorities over the corpus link graph → Dataset of
    (url, auth_ppb, hub_ppb) (Kleinberg 1999; L1 normalization, pinned
    update order in :func:`_hits_iterate`).

    ``nodes`` is the node set as a Dataset with a distinct ``url``
    column. Either ``mode`` pins src- and dst-bucket edge slices once and
    keeps scores as per-bucket slices in the object store — an authority
    and a hub map/reduce task round per iteration, per-task state one
    bucket slice, driver state refs, two floats and the O(buckets) L1
    partials. ``mode`` ("broadcast", "shuffle" or "auto") picks only how
    node ids are assigned and urls attached, as in :func:`pagerank`.
    Determinism: hub partials per L1 bucket folded in bucket order and
    the two-level ``_l1_total`` normalization, both at the fixed
    :func:`_graph_buckets` granularity, make the result bit-identical to
    :func:`hits_reference` at any block layout, any ``n_buckets``, either
    mode (test-asserted).
    """
    import ray

    n = nodes.count()
    if n == 0:
        return _empty_scores(auth_ppb=pa.int64(), hub_ppb=pa.int64())
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    auth, div_a, hub, div_h = _hits_shuffle_slices(
        g.edges, g.n, n_iters=n_iters, per_bucket=g.per_bucket
    )
    ppb = ray.remote(num_cpus=1)(_ppb_block)
    cols = ("auth_ppb", "hub_ppb")
    blocks = [
        ppb.remote(b * g.per_bucket, cols, (div_a, div_h), a, h)
        for b, (a, h) in enumerate(zip(auth, hub))
    ]
    return g.attach(blocks)


def _pin_dst(lo, per_bucket, l1, nb, *parts):
    """HITS pin-round reduce task for the dst bucket at ``lo``: its
    in-edges sorted by (src, dst), where each (src, L1 bucket of dst) run
    starts, and the runs cut by src bucket. A task bucket holds whole L1
    buckets, so each run is one of :func:`hits_reference`'s hub
    partials."""
    src, dst = _concat_parts(parts, 2)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    l1b = dst // l1
    run = np.r_[True, (np.diff(src) != 0) | (np.diff(l1b) != 0)]
    starts = np.flatnonzero(run) if len(src) else np.empty(0, np.int64)
    run_src = src[starts]
    return {
        "lo": lo,
        "dst": dst,
        "starts": starts,
        "run_src": run_src,
        "run_l1": l1b[starts],
        "cuts": _bucket_cuts(run_src, per_bucket, nb),
    }


def _auth_map(pin, hub, div):
    """HITS authority map task over one src bucket: each out-edge carries
    its src's normalized hub score (raw slice ÷ the previous L1 total —
    the reference's single division), cut by dst bucket into
    (dst, src, value) parts."""
    v = (hub / div)[pin["src"] - pin["lo"]]
    return _task_parts(_cut(pin["cuts"], pin["dst"], pin["src"], v))


def _hub_map(pin, auth, div):
    """HITS hub map task over one dst bucket: per-(src, L1 bucket) partial
    sums of normalized authority over the (src, dst)-sorted in-edges, cut
    by src bucket into (src, L1 bucket, partial) parts."""
    a = (auth / div)[pin["dst"] - pin["lo"]]
    sums = np.add.reduceat(a, pin["starts"]) if len(a) else np.empty(0, np.float64)
    return _task_parts(_cut(pin["cuts"], pin["run_src"], pin["run_l1"], sums))


def _score_reduce(lo, hi, l1, *parts) -> tuple[np.ndarray, np.ndarray]:
    """HITS reduce task for the bucket [lo, hi): (key, tie, value) parts
    summed per key in (key, tie) order — authority: per dst over srcs;
    hub: per src over ascending L1 buckets (:func:`_fold_hub_partials`)
    — into the bucket's raw dense slice, plus the ``np.sum`` of each of
    its L1 chunks (the :func:`_l1_total` bucket partials)."""
    key, tie, val = _concat_parts(parts, 3)
    dense = np.zeros(hi - lo, dtype=np.float64)
    if len(key):
        k, s = _sorted_run_sums(key, tie, val)
        dense[k - lo] = s
    return dense, np.array([np.sum(dense[i : i + l1]) for i in range(0, hi - lo, l1)])


def _hits_shuffle_slices(edges, n, *, n_iters, per_bucket):
    """HITS kernel: pin once (src- and dst-bucket layouts; the initial hub
    is the uniform 1/n rank0 slice), then per iteration an authority round
    (:func:`_auth_map` per src bucket) and a hub round (:func:`_hub_map`
    per dst bucket), each folded by :func:`_score_reduce`. Scores stay raw
    per-bucket slices; the driver folds each round's L1 partials, in
    bucket order, into the :func:`_l1_total` total and passes it to the
    next round as the divisor, so floats are bit-identical to
    :func:`hits_reference` for any ``per_bucket`` that is a multiple of
    the L1 bucket. Returns (auth slice refs, auth divisor, hub slice refs,
    hub divisor); a zero total divides by 1.0, as the reference skips the
    division."""
    import ray

    l1 = _graph_buckets(n)
    assert per_bucket % l1 == 0, (per_bucket, l1)
    nb = -(-n // per_bucket)
    src_pins, dst_pins, [(_, hub)] = _pin_buckets(edges, n, per_bucket, hits=True)
    auth_step = ray.remote(num_cpus=1)(_auth_map).options(num_returns=nb)
    hub_step = ray.remote(num_cpus=1)(_hub_map).options(num_returns=nb)
    fold = ray.remote(num_cpus=1)(_score_reduce).options(num_returns=2)
    bounds = [(b * per_bucket, min((b + 1) * per_bucket, n), l1) for b in range(nb)]

    def half_step(step, pins, scores, div):
        out = _shuffle_round(step, fold, pins, scores, (div,), bounds)
        tot = float(np.sum(np.concatenate(ray.get([s for _, s in out]))))
        return [d for d, _ in out], tot if tot > 0 else 1.0

    auth, div_a, div_h = None, 1.0, 1.0  # x / 1.0 is bit-exact x
    for _ in range(n_iters):
        auth, div_a = half_step(auth_step, src_pins, hub, div_h)
        hub, div_h = half_step(hub_step, dst_pins, auth, div_a)
    return auth, div_a, hub, div_h


def hits_reference(
    urls: list[str],
    links_per_url: dict[str, list[str]],
    *,
    n_iters: int = _N_ITERS,
) -> pa.Table:
    """Single-process HITS oracle — same edges, same per-bucket partial
    fold, same two-level L1 totals, no Ray. Returns
    (url, auth_ppb, hub_ppb) sorted by url."""
    urls_sorted = sorted(urls)
    n = len(urls_sorted)
    if n == 0:
        return pa.table(
            {"url": pa.array([], pa.string()),
             "auth_ppb": pa.array([], pa.int64()),
             "hub_ppb": pa.array([], pa.int64())}
        )
    idx = {u: i for i, u in enumerate(urls_sorted)}
    node_set = set(urls_sorted)
    pairs = {
        (idx[u], idx[l])
        for u, links in links_per_url.items()
        for l in links
        if l in node_set and l != u
    }
    if pairs:
        e = np.array(sorted(pairs, key=lambda p: (p[1], p[0])), dtype=np.int64)
        src, dst = e[:, 0], e[:, 1]
    else:
        src = dst = np.empty(0, np.int64)
    per_bucket = _graph_buckets(n)
    bucket = dst // per_bucket
    h_order = np.lexsort((dst, src, bucket))
    h_src, h_dst, h_bucket = src[h_order], dst[h_order], bucket[h_order]

    def auth_sums(hub):
        if len(dst) == 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        starts = np.flatnonzero(np.r_[True, np.diff(dst) != 0])
        return dst[starts], np.add.reduceat(hub[src], starts)

    def hub_parts(auth):
        if len(h_src) == 0:
            return (np.empty(0, np.int64),) * 2 + (np.empty(0, np.float64),)
        run = np.r_[True, (np.diff(h_src) != 0) | (np.diff(h_bucket) != 0)]
        starts = np.flatnonzero(run)
        return h_bucket[starts], h_src[starts], np.add.reduceat(auth[h_dst], starts)

    auth, hub = _hits_iterate(n, n_iters, auth_sums, hub_parts, per_bucket)
    return pa.table(
        {
            "url": pa.array(urls_sorted, pa.string()),
            "auth_ppb": pa.array(np.round(auth * 1e9).astype(np.int64), pa.int64()),
            "hub_ppb": pa.array(np.round(hub * 1e9).astype(np.int64), pa.int64()),
        }
    )


def pagerank_reference(
    urls: list[str],
    links_per_url: dict[str, list[str]],
    *,
    n_iters: int = _N_ITERS,
    damping: float = _DAMPING,
    seed_urls: list[str] | None = None,
) -> dict[str, int]:
    """Single-process oracle: same graph semantics, same deterministic
    summation primitive, no Ray. Used by expected.py to materialize the
    pagerank ground truth the DuckDB oracle reads. With ``seed_urls``
    this is the TrustRank personalization (Gyöngyi et al. 2004):
    teleport mass lands only on the seed set — p_v = 1/|S| on seeds,
    0 elsewhere — instead of uniformly."""
    urls_sorted = sorted(urls)
    n = len(urls_sorted)
    if n == 0:
        return {}
    idx = {u: i for i, u in enumerate(urls_sorted)}
    node_set = set(urls_sorted)
    pairs = set()
    for u, links in links_per_url.items():
        for link in links:
            if link in node_set and link != u:
                pairs.add((idx[u], idx[link]))
    if pairs:
        edges = np.array(sorted(pairs, key=lambda p: (p[1], p[0])), dtype=np.int64)
        src, dst = edges[:, 0], edges[:, 1]
    else:
        src = dst = np.empty(0, np.int64)
    out = np.bincount(src, minlength=n).astype(np.int64)
    inv_out = np.zeros(n, dtype=np.float64)
    inv_out[out > 0] = 1.0 / out[out > 0]
    if seed_urls is None:
        # pinned float path of the uniform ground truth: ONE division
        base_vec = np.full(n, (1.0 - damping) / n, dtype=np.float64)
        ranks = np.full(n, 1.0 / n, dtype=np.float64)
    else:
        ss = sorted(set(seed_urls))
        missing = [s for s in ss if s not in idx]
        if missing or not ss:
            raise ValueError(f"seed_urls not in node set: {missing[:3]}")
        p = np.zeros(n, dtype=np.float64)
        p[[idx[s] for s in ss]] = 1.0 / len(ss)
        # pinned: teleport entries are the ONE division (1-d)/|S|
        base_vec = np.zeros(n, dtype=np.float64)
        base_vec[p > 0] = (1.0 - damping) / len(ss)
        ranks = p.copy()
    for _ in range(n_iters):
        d, s = _contrib_sums(dst, src, ranks, inv_out)
        new = base_vec.copy()
        np.add.at(new, d, damping * s)
        ranks = new
    q = np.round(ranks * 1e9).astype(np.int64)
    return {u: int(q[i]) for i, u in enumerate(urls_sorted)}


def anchor_text_index(pairs_ds, *, dst_col: str = "dst", anchor_col: str = "anchor"):
    """Aggregated anchor-text signal per target URL — the classic web-corpus
    "anchor index" (inbound link text is a relevance/label signal): for each
    ``dst``, total references, distinct anchor strings, and the most frequent
    anchor (ties broken lexicographically, so the result is deterministic at
    any parallelism).

    Shape: per-batch Arrow hash-agg collapses each batch to its distinct
    (dst, anchor) pairs with partial counts — a hot target referenced by the
    same text everywhere ships one row per batch, never one per link — then
    ONE ``groupby(dst)`` folds each target's little histogram vectorized.
    Nothing lands on the driver; per-key work is the target's distinct
    anchor count. Beyond-reference operator (the reference stores raw hrefs
    only, parser.go:120-208)."""

    def partial(t: pa.Table) -> pa.Table:
        return (
            t.select([dst_col, anchor_col])
            .group_by([dst_col, anchor_col])
            .aggregate([([], "count_all")])
            .rename_columns([dst_col, anchor_col, "partial"])
        )

    def fold(g: pa.Table) -> pa.Table:
        merged = (
            g.select([anchor_col, "partial"])
            .group_by(anchor_col)
            .aggregate([("partial", "sum")])
        )
        anchors = np.asarray(merged.column(anchor_col).to_pylist(), dtype=object)
        cnts = merged.column("partial_sum").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        top = np.lexsort((anchors, -cnts))[0]
        return pa.table(
            {
                dst_col: g.column(dst_col).slice(0, 1),
                "n_refs": pa.array([int(cnts.sum())], pa.int64()),
                "n_unique_anchors": pa.array([len(cnts)], pa.int64()),
                "top_anchor": pa.array([str(anchors[top])], pa.string()),
                "top_anchor_count": pa.array([int(cnts[top])], pa.int64()),
            }
        )

    return (
        pairs_ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(dst_col)
        .map_groups(fold, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# traversal kernel: BFS, k-core, label propagation, SCC and bow-tie
#
# The rank kernel's task rounds with integer state. The pin round cuts the
# id-mapped edges into per-bucket slices in up to three layouts, each the
# distinct (key, other) pairs whose key endpoint is in the bucket, sorted by
# (other, key) and cut by the other endpoint's bucket: ``fwd`` (out-edges,
# key = src), ``bwd`` (in-edges reversed, key = dst) and ``und`` (the
# symmetric closure, key = either endpoint). In a round, the map task of a
# pinned bucket sends the other endpoint of each edge whose key endpoint its
# state slice selects (with a value of the key's state) to that endpoint's
# bucket; the reduce task of a bucket folds what it receives into its new
# dense state slice and returns it with the count of nodes that changed. A
# convergence loop fetches nb ints a round; no Ray Data execution starts
# after the pin round. labelprop.py and scc.py run their rounds on this too.


def _pin_edges(lo, per_bucket, nb, layouts, m, *parts):
    """Traversal pin-round reduce task for the bucket at ``lo``: from its
    ``m`` src-bucket parts (out-edges) and ``m`` dst-bucket parts
    (in-edges) of :func:`_pin_split`, one pin per layout."""
    out_src, out_dst = _concat_parts(parts[:m], 2)
    in_src, in_dst = _concat_parts(parts[m:], 2)
    ends = {
        "fwd": (out_src, out_dst),
        "bwd": (in_dst, in_src),
        "und": (np.r_[out_src, in_dst], np.r_[out_dst, in_src]),
    }
    pins = []
    for layout in layouts:
        key, other = ends[layout]
        other, key = np.unique(np.stack([other, key]), axis=1)  # distinct, (other, key) order
        pins.append({"lo": lo, "key": key, "other": other, "cuts": _bucket_cuts(other, per_bucket, nb)})
    return _task_parts(pins)


def _emit(pin, sel, val=None):
    """Traversal map-task body: the other endpoint (and ``val`` of the key
    endpoint) of each pinned edge whose key endpoint ``sel`` selects (every
    edge if None), one part per other-endpoint bucket."""
    k = pin["key"] - pin["lo"]
    cols = (pin["other"],) if val is None else (pin["other"], val[k])
    cuts = pin["cuts"]
    if sel is not None:
        keep = sel[k]
        cols = tuple(c[keep] for c in cols)
        cuts = np.r_[0, np.cumsum(keep)][cuts]
    return _task_parts(_cut(cuts, *cols))


def _sweep(step, fold, pins, states, per_bucket, step_args=(), fold_args=()):
    """One traversal round (:func:`_shuffle_round`): ``step`` per pinned
    bucket with its state slice and ``step_args``; ``fold`` per bucket with
    (lo, its state slice, *fold_args) and num_returns=2. Returns (new state
    slice refs, changed-count refs)."""
    fold_args = [(b * per_bucket, s, *fold_args) for b, s in enumerate(states)]
    out = _shuffle_round(step, fold, pins, states, step_args, fold_args)
    return [s for s, _ in out], [c for _, c in out]


def _init_slice(lo, hi, fill=None) -> np.ndarray:
    """A bucket's initial state slice: its node ids, or ``fill`` everywhere."""
    return np.arange(lo, hi, dtype=np.int64) if fill is None else np.full(hi - lo, fill)


def _slice_block(lo, name, values, keep=None) -> pa.Table:
    """A bucket's dense state slice as (node_id, name) rows (the ``keep``
    rows only, if given)."""
    ids = np.arange(lo, lo + len(values), dtype=np.int64)
    if keep is not None:
        ids, values = ids[keep], values[keep]
    return pa.table({"node_id": ids, name: values})


# ---------------------------------------------------------------------------
# multi-source BFS distances


def _seed_dist(lo, hi, ids) -> np.ndarray:
    """BFS state slice: distance 0 at the seed ids in [lo, hi), -1
    (unsettled) elsewhere."""
    dist = np.full(hi - lo, -1, np.int64)
    dist[ids[(ids >= lo) & (ids < hi)] - lo] = 0
    return dist


def _frontier_map(pin, dist, d):
    """BFS map task: the neighbours of the bucket's nodes at distance d − 1."""
    return _emit(pin, dist == d - 1)


def _settle(lo, dist, d, *parts):
    """BFS reduce task: the received nodes still unsettled settle at d."""
    (v,) = _concat_parts(parts, 1)
    v = v - lo
    new = dist.copy()
    new[v[dist[v] < 0]] = d
    return new, int(np.count_nonzero(new != dist))


def _bfs_rounds(g, pins, dists, radius=None) -> list:
    """BFS rounds d = 1, 2, … over ``pins`` from the dist slice refs until
    ``radius`` or a round that settles nothing → the final slice refs."""
    import ray

    step = ray.remote(num_cpus=1)(_frontier_map).options(num_returns=len(pins))
    fold = ray.remote(num_cpus=1)(_settle).options(num_returns=2)
    d = 0
    while radius is None or d < radius:
        d += 1
        dists, counts = _sweep(step, fold, pins, dists, g.per_bucket, (d,), (d,))
        if sum(ray.get(counts)) == 0:
            break
    return dists


def bfs_distances(pages_ds, nodes, seeds, *, radius=None, mode="auto", n_buckets=None):
    """Minimum link-hop distance from any seed, as (url, dist) rows.

    The graph-analytics analog of the crawler's depth-limited wave loop
    (reference crawler.go depth semantics, M4): dist d = the BFS wave a
    page would be reached in if every in-corpus link were followed (no
    same-domain / robots gating — that is the crawl engine's job).
    ``radius`` bounds exploration like ``--max-depth`` bounds the crawl;
    ``None`` runs to fixpoint. Seeds are settled at dist 0 as given,
    exactly as the crawl engine takes its seed list — a seed outside the
    node set included. Only reached pages are returned.

    Runs the traversal kernel in either ``mode`` (which, as for
    :func:`pagerank`, picks only how node ids are assigned and urls
    attached; ``n_buckets`` changes speed only): out-edges pinned once as
    bucket slices, then one map/reduce task round per distance — the map
    sends the out-neighbours of the bucket's frontier (dist d − 1), the
    reduce settles the unsettled ones at d. State is one dense dist slice
    per bucket; the driver fetches one changed count per bucket a round.
    """
    import ray
    import ray.data

    seed_urls = sorted(set(seeds))
    n = nodes.count()
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets) if n else None
    ids = g.lookup(seed_urls) if g else np.full(len(seed_urls), -1, np.int64)
    outside = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array([s for s, i in zip(seed_urls, ids) if i < 0], pa.string()),
                "dist": pa.array(np.zeros(int(np.sum(ids < 0)), np.int64)),
            }
        )
    )
    if g is None:
        return outside
    (pins,) = g.pin(("fwd",))
    init = ray.remote(num_cpus=1)(_seed_dist)
    seed_ref = ray.put(ids[ids >= 0])
    dists = _bfs_rounds(g, pins, [init.remote(lo, hi, seed_ref) for lo, hi in g.bounds()], radius)
    block = ray.remote(num_cpus=1)(_reached)
    ds = g.attach([block.remote(lo, d) for (lo, _), d in zip(g.bounds(), dists)])
    return ds.union(outside) if np.any(ids < 0) else ds


def _reached(lo, dist) -> pa.Table:
    """A bucket's settled nodes as (node_id, dist) rows."""
    return _slice_block(lo, "dist", dist, dist >= 0)


# ---------------------------------------------------------------------------
# k-core decomposition (fixed k)


def _alive_map(pin, alive):
    """k-core map task: the neighbours of the bucket's surviving nodes."""
    return _emit(pin, alive)


def _peel(lo, alive, k, *parts):
    """k-core reduce task: a survivor stays if at least max(k, 1)
    surviving neighbours sent it an edge."""
    (v,) = _concat_parts(parts, 1)
    new = alive & (np.bincount(v - lo, minlength=len(alive)) >= max(k, 1))
    return new, int(np.count_nonzero(new != alive))


def kcore(pages_ds, nodes, *, k=3, mode="auto", max_rounds=64, n_buckets=None):
    """k-core membership of the undirected link graph: (url, in_core).

    The k-core is the maximal subgraph where every node has undirected
    degree ≥ k (Seidman 1983) — the standard dense-center vs fringe
    split of a web graph. Synchronous peeling: the first survivors are the
    nodes of degree ≥ k, then each round drops the survivors with fewer
    than k surviving neighbours, until a round drops none (``max_rounds``
    bounds the peel depth; the registered toy-scale query converges in ≤4
    rounds). Isolated nodes are never in the core, even for k ≤ 0.

    Runs the traversal kernel in either ``mode`` (as :func:`bfs_distances`):
    the distinct symmetric closure pinned once as bucket slices, state one
    dense alive mask per bucket, one map/reduce task round per peel — the
    map sends each survivor's edges to its neighbours' buckets, the reduce
    counts surviving neighbours. Output: every node, flagged.
    """
    import ray

    cols = {"in_core": pa.bool_()}
    n = nodes.count()
    if n == 0:
        return _empty_scores(**cols)
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    (pins,) = g.pin(("und",))
    step = ray.remote(num_cpus=1)(_alive_map).options(num_returns=len(pins))
    fold = ray.remote(num_cpus=1)(_peel).options(num_returns=2)
    init = ray.remote(num_cpus=1)(_init_slice)
    alive = [init.remote(lo, hi, True) for lo, hi in g.bounds()]
    alive, _ = _sweep(step, fold, pins, alive, g.per_bucket, (), (k,))
    for _ in range(max_rounds):
        alive, counts = _sweep(step, fold, pins, alive, g.per_bucket, (), (k,))
        if sum(ray.get(counts)) == 0:
            break
    block = ray.remote(num_cpus=1)(_slice_block)
    return g.attach([block.remote(lo, "in_core", a) for (lo, _), a in zip(g.bounds(), alive)])


# ---------------------------------------------------------------------------
# degrees, triangles and edge Jaccard
#
# Counting tasks and rounds on the traversal pins. Node ids are url ranks, so
# ascending id is byte-wise url order: the (deg, url) orientation and url
# tie-breaks these operators define are exactly the (deg, id) ones here.
# Pairs are matched by lexsort runs over flagged rows, never by a composite
# ``a * n + b`` int64 key (which overflows above ~3·10⁹ nodes).


def _degree_block(lo, hi, fwd, bwd) -> pa.Table:
    """A bucket's (node_id, out_deg, in_deg) rows: its nodes' pinned
    distinct out- and in-edges, counted."""
    return pa.table({
        "node_id": np.arange(lo, hi, dtype=np.int64),
        "out_deg": np.bincount(fwd["key"] - lo, minlength=hi - lo),
        "in_deg": np.bincount(bwd["key"] - lo, minlength=hi - lo),
    })


def degrees(pages_ds, nodes, *, mode="auto", n_buckets=None):
    """Per-node (url, out_deg, in_deg) over the distinct in-corpus,
    non-self links; isolated pages keep (0, 0) rows.

    Runs on the traversal kernel's graph in either ``mode`` (as
    :func:`kcore`): the ``fwd`` and ``bwd`` layouts pinned once, then one
    counting task per bucket. No round."""
    import ray

    n = nodes.count()
    if n == 0:
        return _empty_scores(out_deg=pa.int64(), in_deg=pa.int64())
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    block = ray.remote(num_cpus=1)(_degree_block)
    fwd, bwd = g.pin(("fwd", "bwd"))
    return g.attach([block.remote(lo, hi, f, b) for (lo, hi), f, b in zip(g.bounds(), fwd, bwd)])


def _und_degree(lo, hi, pin) -> np.ndarray:
    """A bucket's undirected degree slice: its nodes' pinned ``und`` edges,
    counted."""
    return np.bincount(pin["key"] - lo, minlength=hi - lo)


def _nbr_map(pin, deg):
    """Triangle round-1 map task: each pinned ``und`` edge (key, other)
    sent to the other endpoint's bucket as (other, key, deg_key)."""
    k = pin["key"]
    return _task_parts(_cut(pin["cuts"], pin["other"], k, deg[k - pin["lo"]]))


def _nbr_lists(lo, deg, *parts) -> dict:
    """Triangle round-1 reduce task: each node x of the bucket with its
    neighbours y, sorted by (x, deg_y, y), and ``up`` marking
    (deg_y, y) > (deg_x, x) — so x's marked rows are its oriented
    out-list, in (deg, id) order."""
    x, y, dy = _concat_parts(parts, 3)
    order = np.lexsort((y, dy, x))
    x, y, dy = x[order], y[order], dy[order]
    dx = deg[x - lo]
    return {"x": x, "y": y, "dx": dx, "dy": dy, "up": (dy > dx) | ((dy == dx) & (y > x))}


def _tri_run_pairs(run_starts: np.ndarray, run_lens: np.ndarray):
    """All within-run unordered index pairs (i < j), vectorized per
    DISTINCT run length: one ``np.triu_indices`` per distinct degree,
    broadcast over every run of that length — the Python loop is over
    O(√m) distinct degrees, never over runs or pairs."""
    out_i, out_j = [], []
    for d in np.unique(run_lens):
        if d < 2:
            continue
        sel = run_starts[run_lens == d]
        ti, tj = np.triu_indices(int(d), k=1)
        out_i.append((sel[:, None] + ti[None, :]).ravel())
        out_j.append((sel[:, None] + tj[None, :]).ravel())
    if not out_i:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    return np.concatenate(out_i), np.concatenate(out_j)


def _wedges(s, per_bucket, nb):
    """Triangle round-2 map task: the wedges (p, q, apex) of each oriented
    out-list of the bucket (every pair p before q in it, so
    (deg_p, p) < (deg_q, q)), cut by p's bucket."""
    x, y = s["x"][s["up"]], s["y"][s["up"]]
    starts = np.flatnonzero(np.r_[True, np.diff(x) != 0])
    i, j = _tri_run_pairs(starts, np.diff(np.r_[starts, len(x)]))
    order = np.argsort(y[i], kind="stable")
    p, q, apex = y[i][order], y[j][order], x[i][order]
    return _task_parts(_cut(_bucket_cuts(p, per_bucket, nb), p, q, apex))


def _close(per_bucket, nb, edges, s, *parts):
    """Triangle round-2 reduce task for the bucket of the wedges' p: the
    wedges whose (p, q) is one of the bucket's (x, y) edges, matched by a
    lexsort over the edges and the wedges with an edge-first flag. Each
    closed wedge is one triangle {apex, p, q}, found once, at its
    (deg, id)-least apex. Returns its credits cut by bucket: its three
    nodes, or with ``edges`` its three (min, max) edges, cut by min."""
    p, q, apex = _concat_parts(parts, 3)
    m = len(s["x"])
    a, b = np.r_[s["x"], p], np.r_[s["y"], q]
    order = np.lexsort((np.arange(len(a)) >= m, b, a))
    a, b = a[order], b[order]
    new = np.ones(len(a), bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    head = order[np.maximum.accumulate(np.where(new, np.arange(len(a)), 0))]
    hit = order[(order >= m) & (head < m)] - m
    p, q, apex = p[hit], q[hit], apex[hit]
    if edges:
        lo = np.r_[np.minimum(apex, p), np.minimum(apex, q), np.minimum(p, q)]
        hi = np.r_[np.maximum(apex, p), np.maximum(apex, q), np.maximum(p, q)]
        order = np.argsort(lo, kind="stable")
        cols = (lo[order], hi[order])
    else:
        cols = (np.sort(np.r_[apex, p, q]),)
    return _task_parts(_cut(_bucket_cuts(cols[0], per_bucket, nb), *cols))


def _triangle_rounds(pages_ds, nodes, n, mode, n_buckets, edges):
    """The shared rounds of :func:`triangle_counts` and
    :func:`edge_jaccard` on the ``und`` pins: a degree task per bucket,
    round 1 (:func:`_nbr_map` / :func:`_nbr_lists`), round 2
    (:func:`_wedges` / :func:`_close`). Returns (graph, per bucket its
    degree slice ref, its neighbour-list ref and its credit part refs)."""
    import ray

    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    (pins,) = g.pin(("und",))
    nb = len(pins)
    task = ray.remote(num_cpus=1)
    deg = task(_und_degree)
    degs = [deg.remote(lo, hi, p) for (lo, hi), p in zip(g.bounds(), pins)]
    nbrs = _shuffle_round(task(_nbr_map).options(num_returns=nb), task(_nbr_lists), pins, degs, (),
                          [(lo, d) for (lo, _), d in zip(g.bounds(), degs)])
    step = task(_wedges).options(num_returns=nb)
    wedges = [_part_refs(step.remote(s, g.per_bucket, nb), nb) for s in nbrs]
    close = task(_close).options(num_returns=nb)
    credits = [
        _part_refs(close.remote(g.per_bucket, nb, edges, s, *(w[b] for w in wedges)), nb)
        for b, s in enumerate(nbrs)
    ]
    return g, degs, nbrs, [[c[b] for c in credits] for b in range(nb)]


def _tri_block(lo, deg, *parts) -> pa.Table:
    """A bucket's (node_id, n_tri, deg, clustering_ppb) rows from its
    degree slice and the triangle credits of its nodes."""
    (c,) = _concat_parts(parts, 1)
    tri = np.bincount(c - lo, minlength=len(deg))
    denom = deg * (deg - 1)
    ppb = np.where(denom >= 2, (2 * tri * 1_000_000_000) // np.maximum(denom, 1), 0)
    return pa.table({
        "node_id": np.arange(lo, lo + len(deg), dtype=np.int64),
        "n_tri": tri,
        "deg": deg,
        "clustering_ppb": ppb,
    })


def triangle_counts(pages_ds, nodes, *, mode="auto", n_buckets=None):
    """Per-node triangle participation + local clustering coefficient over
    the undirected corpus link graph → (url, n_tri, deg, clustering_ppb).

    The classic degree-ordered formulation (node-iterator++ / the GraphX
    triangleCount shape): orient every undirected edge from its lower
    (degree, url) endpoint to the higher, enumerate wedges only at each
    node's ORIENTED out-neighborhood — whose size is O(√m) by the
    degree-ordering bound, so hub nodes cannot explode the wedge set —
    and close each wedge against the edge set. Each triangle is found
    exactly once (at its unique (deg, url)-minimal apex).

    Runs on the traversal kernel's graph in either ``mode`` (as
    :func:`kcore`), the ``und`` layout pinned once: a degree task per
    bucket; round 1 sends each edge with its key's degree to the other
    endpoint, whose bucket sorts its neighbour lists by (deg, id); round 2
    sends each wedge of an oriented out-list to its first endpoint's
    bucket, which closes it against its edges and credits the triangle's
    three nodes; a task per bucket counts its credits. The wedge pairs
    vectorize per distinct degree (``_tri_run_pairs``).

    ``clustering_ppb = (2·n_tri·10^9) // (deg·(deg−1))`` — integer floor
    division, mirrored exactly by SQL ``//`` (documented int64 bound:
    per-node n_tri < 4.6·10^9; beyond that carry the division in Python
    ints). Dangling nodes keep (0, 0, 0) rows.
    """
    import ray

    n = nodes.count()
    if n == 0:
        return _empty_scores(n_tri=pa.int64(), deg=pa.int64(), clustering_ppb=pa.int64())
    g, degs, _, credits = _triangle_rounds(pages_ds, nodes, n, mode, n_buckets, False)
    block = ray.remote(num_cpus=1)(_tri_block)
    return g.attach([block.remote(lo, d, *c) for (lo, _), d, c in zip(g.bounds(), degs, credits)])


def _jaccard_block(s, *parts) -> pa.Table:
    """A bucket's (node_id, b, common, deg_a, deg_b, jaccard_ppb) rows:
    each edge (a, b), a < b, of its neighbour lists with the count of
    triangle credits it received (every credit follows its edge in the
    lexsort, and each run starts at one edge)."""
    a, b = _concat_parts(parts, 2)
    up = s["y"] > s["x"]
    x, y = s["x"][up], s["y"][up]
    order = np.lexsort((np.arange(len(x) + len(a)) >= len(x), np.r_[y, b], np.r_[x, a]))
    starts = np.flatnonzero(order < len(x))
    common = np.diff(np.r_[starts, len(order)]) - 1
    e = order[starts]
    da, db = s["dx"][up][e], s["dy"][up][e]
    denom = da + db - common
    return pa.table({
        "node_id": x[e],
        "b": y[e],
        "common": common,
        "deg_a": da,
        "deg_b": db,
        "jaccard_ppb": np.where(denom > 0, (common * 1_000_000_000) // np.maximum(denom, 1), 0),
    })


def edge_jaccard(pages_ds, nodes, *, mode="auto", n_buckets=None):
    """Per-edge common-neighbor counts + neighbor-set Jaccard over the
    undirected corpus link graph → (a, b, common, deg_a, deg_b,
    jaccard_ppb), one row per distinct undirected edge (a < b) — the
    classic link-prediction / related-page similarity signal.

    ``common = |N(a) ∩ N(b)|`` is exactly the number of triangles through
    the edge, so it runs the rounds of :func:`triangle_counts`, whose
    close credits each triangle's three (min, max) edges instead of its
    nodes; a task per bucket counts the credits of its nodes' edges.
    ``|N(a) ∪ N(b)| = deg_a + deg_b − common`` (a and b are in each
    other's neighbor sets but never in the loop-free intersection), giving
    ``jaccard_ppb = common·10⁹ // (deg_a + deg_b − common)`` — integer
    floor division mirrored exactly by the SQL oracle. Zero-triangle edges
    keep common = 0 rows.
    """
    import ray

    n = nodes.count()
    if n == 0:
        ints = dict.fromkeys(("common", "deg_a", "deg_b", "jaccard_ppb"), pa.int64())
        return _empty_scores("a", b=pa.string(), **ints)
    g, _, nbrs, credits = _triangle_rounds(pages_ds, nodes, n, mode, n_buckets, True)
    block = ray.remote(num_cpus=1)(_jaccard_block)
    ds = g.attach([block.remote(s, *c) for s, c in zip(nbrs, credits)], ids=("b",))
    return ds.rename_columns({"url": "a"})


# ---------------------------------------------------------------------------
# HyperANF neighborhood-size estimation
#
# State is sparse HyperLogLog registers on the traversal pins: per bucket the
# (node, ridx, rho) rows of its nodes sorted by (node, ridx), ``fresh``
# marking the rows the last round changed.


def _hll_seed(lo, urls) -> dict:
    """A bucket's first registers: each node's url hash as one (ridx, rho)
    row (``sketch.hll_index_rho``); all fresh."""
    from .sketch import hash64_column, hll_index_rho

    ridx, rho = hll_index_rho(hash64_column(urls))
    return {
        "node": np.arange(lo, lo + len(urls), dtype=np.int64),
        "ridx": ridx.astype(np.int16),
        "rho": rho.astype(np.int8),
        "fresh": np.ones(len(urls), bool),
    }


def _hll_map(pin, s):
    """HyperANF map task over a bucket's ``bwd`` pin: the fresh register
    rows of each in-edge's dst (the key) sent to its src's bucket as (src,
    ridx, rho). A row the last round did not change has already reached
    every predecessor, so only fresh rows travel."""
    f = s["fresh"]
    node, ridx, rho = s["node"][f], s["ridx"][f], s["rho"][f]
    first = np.searchsorted(node, pin["key"])
    cnt = np.searchsorted(node, pin["key"], "right") - first
    end = np.cumsum(cnt)
    rows = np.repeat(first - end + cnt, cnt) + np.arange(end[-1] if len(end) else 0)
    cuts = np.r_[0, end][pin["cuts"]]
    return _task_parts(_cut(cuts, np.repeat(pin["other"], cnt), ridx[rows], rho[rows]))


def _hll_fold(lo, s, *parts):
    """HyperANF reduce task: the bucket's register rows with those it
    received, the max rho kept per (node, ridx) — a stable lexsort by
    (node, ridx, -rho) with the bucket's own rows first, so an own row wins
    a tie. Returns the new state, fresh where a received row won, and how
    many did."""
    node, ridx, rho = (
        np.concatenate([s[c], *(p[i] for p in parts)]) for i, c in enumerate(("node", "ridx", "rho"))
    )
    order = np.lexsort((-rho, ridx, node))
    first = np.r_[True, (np.diff(node[order]) != 0) | (np.diff(ridx[order]) != 0)]
    sel = order[first]
    fresh = sel >= len(s["node"])
    return {"node": node[sel], "ridx": ridx[sel], "rho": rho[sel], "fresh": fresh}, int(fresh.sum())


def _hll_block(s) -> pa.Table:
    """A bucket's (node_id, n_reach_est) rows: each node's register run, in
    ridx order, through ``sketch.hll_estimate_runs``."""
    from .sketch import hll_estimate_runs

    node = s["node"]
    starts = np.flatnonzero(np.r_[True, np.diff(node) != 0])
    return pa.table({"node_id": node[starts], "n_reach_est": hll_estimate_runs(s["rho"], starts)})


def neighborhood_sizes(pages_ds, nodes, *, radius=3, mode="auto", n_buckets=None):
    """HyperANF (Boldi, Rosa & Vigna 2011): per-node estimated count of
    distinct nodes reachable within ``radius`` directed hops (the node
    itself included) → (url, n_reach_est). The neighborhood function
    without per-source BFS: every node carries a sparse HyperLogLog
    register set seeded with its own url hash, and each round folds each
    node's successors' registers into its own — register max is
    associative, so after r synchronous rounds node u's registers hold
    exactly the hash set of its ≤ r-hop out-neighborhood.

    Runs the traversal kernel in either ``mode`` (as :func:`kcore`): the
    ``bwd`` layout pinned once; state per bucket is its nodes' sparse
    (node, ridx, rho) register rows (≤ 4096 per node, the HLL cap), seeded
    from the bucket's url slice. One map/reduce task round per hop: the map
    sends each in-edge's dst registers that changed last round to the src's
    bucket, the reduce keeps the max rho per (node, register). A round that
    changes nothing ends the loop (max is idempotent). The estimate reuses
    the pinned vectorized run estimator (``sketch.hll_estimate_runs``) over
    register-sorted runs, so the sequential reference is bit-identical.
    """
    import ray

    n = nodes.count()
    if n == 0:
        return _empty_scores(n_reach_est=pa.int64())
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    (pins,) = g.pin(("bwd",))
    task = ray.remote(num_cpus=1)
    seed = task(_hll_seed)
    states = [seed.remote(lo, u) for (lo, _), u in zip(g.bounds(), g.url_slices())]
    step = task(_hll_map).options(num_returns=len(pins))
    fold = task(_hll_fold).options(num_returns=2)
    for _ in range(radius):
        states, counts = _sweep(step, fold, pins, states, g.per_bucket)
        if sum(ray.get(counts)) == 0:
            break
    block = task(_hll_block)
    return g.attach([block.remote(st) for st in states])


def host_graph(pages_ds, nodes, *, mode: str = "auto"):
    """Weighted host-level link graph: ``(src_host, dst_host, weight)``.

    Collapses the distinct page-level edges (:func:`build_edges`, i.e.
    "what the crawler saw", reference parser.go:120-208) to host→host
    rows, dropping intra-host edges — the standard substrate for
    host-level ranking (host PageRank / TrustRank seeds / spam-mass) in
    web-scale pipelines, where page-level centrality is too easy to
    manipulate with on-site link farms. ``weight`` counts the distinct
    page-level edges between the two hosts. ``mode`` is
    :func:`build_edges`'s.

    Host extraction is the repo's pinned cross-engine seam (urlmine.py
    ``_HOST_RE`` ≡ the oracle's ``regexp_extract(url,
    '^[a-z][a-z0-9+.-]*://([^/?#]+)', 1)``): one Arrow RE2 kernel per
    endpoint column, no Python loop.

    Scale shape: host pairs are counted per block FIRST (an Arrow
    ``group_by`` inside ``map_batches``), so the one ``groupby``
    exchange moves pre-aggregated (host, host, partial) rows — at web
    scale hosts are ~10^4× fewer than pages, so the exchange is tiny
    relative to the edge stream it summarizes.
    """
    from ray.data.aggregate import Sum

    from .urlmine import _HOST_RE

    edges = build_edges(pages_ds, nodes, mode=mode)

    def partials(t: pa.Table) -> pa.Table:
        src_host = pc.struct_field(
            pc.extract_regex(t.column("src"), pattern=_HOST_RE), "host"
        )
        dst_host = pc.struct_field(
            pc.extract_regex(t.column("dst"), pattern=_HOST_RE), "host"
        )
        pairs = pa.table({"src_host": src_host, "dst_host": dst_host})
        keep = pc.and_(
            pc.and_(pc.is_valid(src_host), pc.is_valid(dst_host)),
            pc.not_equal(src_host, dst_host),
        )
        agg = pairs.filter(keep).group_by(["src_host", "dst_host"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "src_host": agg.column("src_host"),
                "dst_host": agg.column("dst_host"),
                "weight": agg.column("count_all").cast(pa.int64()),
            }
        )

    return (
        edges.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("weight", alias_name="weight"))
    )


def host_degrees(host_edges_ds):
    """Per-host fan-out/fan-in over the host graph: ``(host, out_hosts,
    in_hosts, out_weight, in_weight)``.

    ``out_hosts``/``in_hosts`` count distinct neighbor hosts;
    ``out_weight``/``in_weight`` sum page-level edge multiplicity. ONE
    single-key shuffle over rows that are already host-pair aggregates
    (each input row contributes two partial rows, then a
    ``groupby(host)`` sums) — the host graph is small enough at any
    scale that this exchange is negligible.
    """
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        w = t.column("weight").cast(pa.int64())
        zero = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        one = pa.array(np.ones(t.num_rows, np.int64), pa.int64())
        out_rows = pa.table(
            {
                "host": t.column("src_host"),
                "out_hosts": one,
                "in_hosts": zero,
                "out_weight": w,
                "in_weight": zero,
            }
        )
        in_rows = pa.table(
            {
                "host": t.column("dst_host"),
                "out_hosts": zero,
                "in_hosts": one,
                "out_weight": zero,
                "in_weight": w,
            }
        )
        return pa.concat_tables([out_rows, in_rows])

    return (
        host_edges_ds.map_batches(
            partials, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("host")
        .aggregate(
            Sum("out_hosts", alias_name="out_hosts"),
            Sum("in_hosts", alias_name="in_hosts"),
            Sum("out_weight", alias_name="out_weight"),
            Sum("in_weight", alias_name="in_weight"),
        )
    )


def _ends(t: pa.Table) -> pa.Table:
    """The distinct endpoint urls of one (src, dst[, w]) block."""
    if "src" not in t.column_names:  # a zero-row block may carry no schema
        return pa.table({"url": pa.array([], pa.string())})
    ends = [t.column(c).combine_chunks().cast(pa.string()) for c in ("src", "dst")]
    return pa.table({"url": pc.unique(pa.concat_arrays(ends))})


def _distinct(*parts) -> pa.Table:
    """Reduce task of an endpoint url bucket: its distinct urls."""
    urls = [c for t in parts if t.num_rows for c in t.column("url").chunks]
    return pa.table({"url": pc.unique(pa.chunked_array(urls, pa.string()))})


def _endpoint_nodes(pairs):
    """Distinct endpoint Dataset (column ``url``) of a materialized
    (src, dst[, w]) edge Dataset — the node table a graph is born with
    when it arrives as a bare edge list. Task rounds in the
    :func:`_url_buckets` shape, no Ray Data exchange: a task per block
    takes its distinct endpoints, which are cut by sampled boundary urls
    into one bucket per ``SHUFFLE_MODE_NODES`` endpoint rows, and a task
    per bucket keeps its distinct urls."""
    import ray
    import ray.data

    task = ray.remote(num_cpus=1)
    ends = [task(_ends).remote(b) for b in pairs.to_arrow_refs()]
    nu = max(1, -(-2 * pairs.count() // SHUFFLE_MODE_NODES))
    parts = [ends]
    if nu > 1:
        sample = task(_url_sample)
        bounds = task(_url_bounds).remote(nu, *(sample.remote(16 * nu, e) for e in ends))
        split = task(_split_by).options(num_returns=nu)
        cut = [split.remote(bounds, "url", e) for e in ends]
        parts = [[c[j] for c in cut] for j in range(nu)]
    return ray.data.from_arrow_refs([task(_distinct).remote(*p) for p in parts])


def weighted_pagerank(
    edges_ds,
    *,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    weight_col: str = "weight",
    n_iters: int = _N_ITERS,
    damping: float = _DAMPING,
    mode: str = "auto",
    n_buckets: int | None = None,
    seed_urls: list[str] | None = None,
):
    """PageRank over an arbitrary WEIGHTED edge list → (url, rank_ppb).

    The host-graph centrality step (:func:`host_graph` feeds this): an
    edge of weight ``w`` carries ``w``× the contribution mass —
    ``rank[src] · w / out_weight[src]`` — i.e. PageRank on the multigraph
    the weights summarize. Node set = the distinct endpoints (derived
    distributedly, never a driver list); dangling nodes lose their mass
    exactly as in :func:`pagerank`.

    Runs the unweighted engine's kernel, the weight riding each pinned
    out-edge; ``mode`` picks, as there, only how node ids are assigned
    (the sorted endpoint array folded into the object store ≤
    ``SHUFFLE_MODE_NODES``, its sorted url buckets above) and urls
    attached. Ranks are bit-identical in either mode and to
    :func:`weighted_pagerank_reference` — the kernel computes the
    ``_contrib_sums`` product ``(rank·inv)·w`` in pinned order.

    ``seed_urls`` personalizes the teleport exactly as in
    :func:`pagerank` (TrustRank at the host level — the seed list is a
    config-sized trusted-host list): restart mass 1/|S| on seeds, 0
    elsewhere; every seed must be an edge endpoint.
    """
    if seed_urls is not None and not seed_urls:
        raise ValueError("seed_urls must be non-empty when given")
    g = _weighted_prepared(
        edges_ds,
        src_col=src_col,
        dst_col=dst_col,
        weight_col=weight_col,
        mode=mode,
        n_buckets=n_buckets,
    )
    if g is None:
        return _empty_scores(rank_ppb=pa.int64())
    return _rank_loop(g, n_iters=n_iters, damping=damping, seed_urls=seed_urls, weighted=True)


def _weighted_prepared(
    edges_ds,
    *,
    src_col: str,
    dst_col: str,
    weight_col: str,
    mode: str,
    n_buckets: int | None,
) -> _RankGraph | None:
    """Shared graph preparation for the weighted rank family: normalize
    the edge columns, derive the node set distributedly, resolve the
    regime, and map the edges to ids ONCE — so callers that run several
    teleports over the same graph (spam mass, seed-set sweeps) pay the
    id mapping a single time. Returns None for an empty graph."""

    def to_pairs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t.column(src_col).cast(pa.string()),
                "dst": t.column(dst_col).cast(pa.string()),
                "w": t.column(weight_col).cast(pa.int64()),
            }
        )

    pairs = edges_ds.map_batches(
        to_pairs, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    nodes = _endpoint_nodes(pairs).materialize()
    n = nodes.count()
    if n == 0:
        return None
    return _graph(nodes, pairs, n, mode, n_buckets)


def weighted_spam_mass(
    edges_ds,
    *,
    seed_urls: list[str],
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    weight_col: str = "weight",
    n_iters: int = _N_ITERS,
    damping: float = _DAMPING,
    mode: str = "auto",
    n_buckets: int | None = None,
):
    """Spam mass over a weighted edge list in ONE prepared pass →
    (url, spam_mass_ppb): :func:`spam_mass`'s path on the graph of
    :func:`weighted_pagerank` — the uniform and seed-personalized ranks
    share the graph preparation (node derivation, id mapping) and one
    pin of the edges, and the integer rule (:func:`_mass_ppb`) runs per
    bucket on the two rank slices. Bit-identical to composing
    :func:`weighted_pagerank` × 2 + :func:`_mass_ppb`."""
    if not seed_urls:
        raise ValueError("seed_urls must be non-empty")
    g = _weighted_prepared(
        edges_ds,
        src_col=src_col,
        dst_col=dst_col,
        weight_col=weight_col,
        mode=mode,
        n_buckets=n_buckets,
    )
    if g is None:
        return _empty_scores(spam_mass_ppb=pa.int64())
    return _mass_loop(g, n_iters=n_iters, damping=damping, seed_urls=seed_urls, weighted=True)


def _mass_ppb(pr_ppb: np.ndarray, tr_ppb: np.ndarray) -> np.ndarray:
    """The integer spam-mass rule over ppb ranks: ``max(pr − tr, 0)·10⁹
    // pr``, 0 where ``pr`` is 0. The clamp keeps the floor division on
    non-negatives, where numpy and DuckDB's ``//`` agree."""
    num = np.maximum(pr_ppb - tr_ppb, 0) * np.int64(1_000_000_000)
    mass = np.zeros(len(pr_ppb), dtype=np.int64)
    nz = pr_ppb > 0
    mass[nz] = num[nz] // pr_ppb[nz]
    return mass


def _mass_block(lo: int, pr: np.ndarray, tr: np.ndarray) -> pa.Table:
    """One bucket's (node_id, spam_mass_ppb) rows from its uniform and
    seeded rank slices: ppb quantization first (the rank contract), then
    the integer rule :func:`_mass_ppb`."""
    return pa.table(
        {
            "node_id": pa.array(np.arange(lo, lo + len(pr), dtype=np.int64)),
            "spam_mass_ppb": pa.array(_mass_ppb(_ppb(pr), _ppb(tr)), pa.int64()),
        }
    )


def weighted_pagerank_reference(
    edges: list[tuple[str, str, int]],
    *,
    n_iters: int = _N_ITERS,
    damping: float = _DAMPING,
    seed_urls: list[str] | None = None,
) -> dict[str, int]:
    """Single-process oracle for :func:`weighted_pagerank`: same node
    ordering (sorted endpoints), same pinned float path (uniform base =
    ONE division, ``(rank·inv)·w`` per edge, per-dst ``np.add.reduceat``
    over the (dst, src)-sorted run), no Ray. Duplicate (src, dst) pairs
    have their weights summed. ``seed_urls`` = the TrustRank teleport
    personalization (mass 1/|S| on seeds, 0 elsewhere)."""
    hosts = sorted({h for e in edges for h in (e[0], e[1])})
    n = len(hosts)
    if n == 0:
        return {}
    idx = {h: i for i, h in enumerate(hosts)}
    agg: dict[tuple[int, int], int] = {}
    for s, d, w in edges:
        key = (idx[d], idx[s])  # (dst_id, src_id) sort key
        agg[key] = agg.get(key, 0) + int(w)
    if agg:
        keys = sorted(agg)
        dst = np.array([k[0] for k in keys], dtype=np.int64)
        src = np.array([k[1] for k in keys], dtype=np.int64)
        w = np.array([agg[k] for k in keys], dtype=np.int64)
    else:
        dst = src = w = np.empty(0, np.int64)
    out_w = np.zeros(n, dtype=np.int64)
    np.add.at(out_w, src, w)
    inv_out = np.zeros(n, dtype=np.float64)
    inv_out[out_w > 0] = 1.0 / out_w[out_w > 0]
    if seed_urls is None:
        base_vec = np.full(n, (1.0 - damping) / n, dtype=np.float64)
        ranks = np.full(n, 1.0 / n, dtype=np.float64)
    else:
        ss = sorted(set(seed_urls))
        missing = [s for s in ss if s not in idx]
        if missing or not ss:
            raise ValueError(f"seed_urls not in node set: {missing[:3]}")
        pos = [idx[s] for s in ss]
        base_vec = np.zeros(n, dtype=np.float64)
        base_vec[pos] = (1.0 - damping) / len(ss)
        ranks = np.zeros(n, dtype=np.float64)
        ranks[pos] = 1.0 / len(ss)
    for _ in range(n_iters):
        d_, s_ = _contrib_sums(dst, src, ranks, inv_out, w)
        new = base_vec.copy()
        np.add.at(new, d_, damping * s_)
        ranks = new
    ppb = np.round(ranks * 1e9).astype(np.int64)
    return {h: int(ppb[i]) for i, h in enumerate(hosts)}


def _walkers(lo, urls) -> pa.Table:
    """A bucket's first walkers: one (start, path, cur) row per node of its
    url slice ``urls`` (which starts at node id ``lo``), its path the
    start url."""
    return pa.table({"start": urls, "path": urls, "cur": np.arange(lo, lo + len(urls), dtype=np.int64)})


def _walk_pin(lo, hi, pin, urls) -> dict:
    """A bucket's walk pin: its ``fwd`` out-edges sorted by (src, dst) once
    (``ptr``: where each node's run starts) and its url slice."""
    order = np.lexsort((pin["other"], pin["key"]))
    deg = np.bincount(pin["key"] - lo, minlength=hi - lo)
    return {"lo": lo, "dst": pin["other"][order], "ptr": np.r_[0, np.cumsum(deg)], "urls": urls}


def _walk_step(pin, s: pa.Table, t: int, per_bucket: int, nb: int):
    """Random-walk map task, step ``t``: a walker alive at node u of the
    bucket moves to out-neighbour ``H mod m`` of u's ``m`` out-neighbours
    in ascending id (= byte-wise url) order, ``H`` the md5 rule of
    :func:`random_walks` over its start url, t and u's url. A walker at a
    dead end finishes (cur −1). Each walker goes to its next node's
    bucket, a finished one to this bucket."""
    import hashlib

    cur = s.column("cur").to_numpy()
    live = np.flatnonzero(cur >= 0)
    c = cur[live] - pin["lo"]
    first = pin["ptr"][c]
    m = pin["ptr"][c + 1] - first
    go = m > 0
    live, c, first, m = live[go], c[go], first[go], m[go]
    starts = s.column("start").take(live).to_pylist()
    here = pin["urls"].take(c).to_pylist()
    h = [int(hashlib.md5(f"{w}|{t}|{u}".encode()).hexdigest()[:15], 16) for w, u in zip(starts, here)]
    h = np.array(h, np.int64)
    nxt = np.full(len(cur), -1, np.int64)
    nxt[live] = pin["dst"][first + h % m]
    dest = np.where(nxt >= 0, nxt, pin["lo"]) // per_bucket
    order = np.argsort(dest, kind="stable")
    s = s.set_column(2, "cur", pa.array(nxt)).take(order)
    cuts = _bucket_cuts(dest[order], 1, nb)
    return _task_parts([s.slice(i, j - i) for i, j in zip(cuts[:-1], cuts[1:])])


def _walk_fold(lo, urls, *parts):
    """Random-walk reduce task of the bucket whose url slice ``urls``
    starts at node id ``lo``: each walker that moved here appends its new
    node's url to its path. Returns the walkers and how many moved."""
    s = pa.concat_tables(parts)
    cur = s.column("cur").to_numpy()
    moved = cur >= 0
    path = s.column("path").combine_chunks()
    grown = pc.binary_join_element_wise(path, urls.take(np.where(moved, cur - lo, 0)), " ")
    return s.set_column(1, "path", pc.if_else(moved, grown, path)), int(moved.sum())


def random_walks(pages_ds, nodes, *, length=3, mode="auto", n_buckets=None):
    """DeepWalk-style walk-corpus generation (Perozzi et al. 2014): one
    deterministic random walk from each node over the directed corpus
    link graph → ``(start, path)`` rows, the training sequences
    graph-embedding models consume.

    Pinned step rule (mirrored op-for-op by the SQL oracle): from node
    ``u`` at step ``t`` in the walk started at ``w``, the next node is
    out-neighbor number ``H mod m`` (0-based) of ``u``'s DISTINCT
    out-neighbors in ascending byte-lexicographic order, where ``m`` is
    the out-degree and ``H = int(md5(f"{w}|{t}|{u}").hexdigest()[:15],
    16)`` — the sampling family's 60-bit md5 rule, so the choice is
    reproducible in any engine and independent of partitioning. Dead
    ends TERMINATE the walk (shorter path, never a repeat-stay). The
    md5 is a per-walker Python call — the sampling family's documented
    cross-engine-determinism cost, paid on walkers per step, never on
    edges.

    Runs the traversal kernel in either ``mode`` (as :func:`kcore`), ids
    being url ranks (ascending id = byte-wise url order): the ``fwd``
    layout pinned once and sorted by (src, dst) per bucket; a walker is a
    (start, path, cur id) row of its node's bucket, each bucket starting
    one per node of its url slice. One map/reduce task round per step: the
    map applies the md5 rule and sends each walker to its next node's
    bucket, whose reduce appends that node's url. It stops after
    ``length`` steps or a step that moves no walker (one count per bucket
    a step); no Ray Data execution starts after the pin round.
    Paths ride the walker rows as strings — at 10^10 nodes emit (walk,
    step, node) triples instead if paths outgrow block budgets."""
    import ray
    import ray.data

    n = nodes.count()
    if n == 0:
        return _empty_scores("start", path=pa.string())
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    task = ray.remote(num_cpus=1)
    slices = g.url_slices()
    nb = len(slices)
    fold_args = [(lo, u) for (lo, _), u in zip(g.bounds(), slices)]
    init = task(_walkers)
    walkers = [init.remote(lo, u) for lo, u in fold_args]
    (fwd,) = g.pin(("fwd",))
    prep = task(_walk_pin)
    pins = [prep.remote(lo, hi, p, u) for (lo, hi), p, u in zip(g.bounds(), fwd, slices)]
    step = task(_walk_step).options(num_returns=nb)
    fold = task(_walk_fold).options(num_returns=2)
    for t in range(length):
        out = _shuffle_round(step, fold, pins, walkers, (t, g.per_bucket, nb), fold_args)
        walkers = [w for w, _ in out]
        if sum(ray.get([c for _, c in out])) == 0:
            break
    return ray.data.from_arrow_refs(walkers).drop_columns(["cur"])


def _cocite_map(pin, urls, width, k):
    """Co-citation map task over one dst bucket's ``bwd`` pin: each
    in-edge as a (src, host) row, ``host`` the host of its dst
    (``_HOST_RE`` applied once to the bucket's url slice ``urls``), cut
    into the ``k`` src buckets of ``width`` ids. A dst without a host
    sends nothing."""
    from .urlmine import _HOST_RE

    hosts = pc.struct_field(pc.extract_regex(urls, pattern=_HOST_RE), "host")
    t = pa.table({"src": pin["other"], "host": hosts.take(pin["key"] - pin["lo"])})
    keep = pc.is_valid(t.column("host"))
    cuts = np.r_[0, np.cumsum(keep.to_numpy(zero_copy_only=False))][_bucket_cuts(pin["other"], width, k)]
    t = t.filter(keep)
    return _task_parts([t.slice(i, j - i) for i, j in zip(cuts[:-1], cuts[1:])])


def _cocite_pairs(max_out, nb, *parts):
    """Co-citation reduce task of one src bucket, which receives every
    out-edge of its pages: the distinct (src, host) rows sorted by (src,
    host), every pair of each page's first ``max_out`` hosts (host a <
    host b, per distinct run length as in :func:`_tri_run_pairs`), and
    the pages citing each (a, b) counted — cut by hash bucket of a."""
    from .sketch import hash64_column

    t = pa.concat_tables(parts).group_by(["src", "host"]).aggregate([])
    t = t.sort_by([("src", "ascending"), ("host", "ascending")])
    src = t.column("src").to_numpy()
    starts = np.flatnonzero(np.r_[True, np.diff(src) != 0])
    i, j = _tri_run_pairs(starts, np.minimum(np.diff(np.r_[starts, len(src)]), max_out))
    host = t.column("host")
    pairs = pa.table({"a": host.take(i), "b": host.take(j)}).group_by(["a", "b"]).aggregate([([], "count_all")])
    b = (hash64_column(pairs.column("a")) % np.uint64(nb)).astype(np.int64)
    order = np.argsort(b, kind="stable")
    cuts = _bucket_cuts(b[order], 1, nb)
    return _task_parts([pairs.take(order[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])])


def _cocite_counts(min_count, *parts) -> pa.Table:
    """Co-citation reduce task of one pair bucket: each (a, b)'s page
    counts summed, the pairs below ``min_count`` dropped."""
    t = pa.concat_tables(parts).group_by(["a", "b"]).aggregate([("count_all", "sum")])
    t = t.filter(pc.greater_equal(t.column("count_all_sum"), min_count))
    return pa.table({"host_a": t.column("a"), "host_b": t.column("b"), "n_src": t.column("count_all_sum")})


def host_cocitation(pages_ds, nodes, *, min_count: int = 2, max_out: int = 256, mode: str = "auto"):
    """Host co-citation: pairs of DISTINCT hosts linked from the same
    page → ``(host_a, host_b, n_src)`` with ``host_a < host_b`` and
    ``n_src`` = number of distinct source pages citing both — the
    classic related-domain / co-citation similarity signal (Small 1973
    co-citation, applied to the web graph), and the link-graph analogue
    of the collocation operator's "appear together" rule. Pairs cited by
    fewer than ``min_count`` pages are dropped.

    Runs on the traversal kernel's graph in either ``mode`` (as
    :func:`kcore`), the ``bwd`` layout pinned once, in two task rounds and
    no Ray Data exchange. Both rounds reduce over L1 buckets
    (:func:`_graph_buckets`: at most ~100k pages, and n/16 up to 1.6M
    nodes), not over the session's task buckets, so a task's pages and
    pairs stay bounded whatever the CPU count. Round 1: each dst bucket
    sends every in-edge as (src, dst host) to the src's L1 bucket
    (:func:`_cocite_map`), where each page's distinct hosts sort once and
    their pairs generate per DISTINCT out-degree (the triangle_counts
    trick — a Python loop over O(#distinct degrees) lengths, never over
    pairs) and pre-aggregate (:func:`_cocite_pairs`). Each page's host
    list is capped at a DECLARED ``max_out`` (a mega-hub page citing 10^4
    hosts would contribute 10^8 pairs; the cap keeps the
    lexicographically-first hosts, documented like dedup's ``max_df``
    knob — unsaturated at the gate corpora, where the SQL oracle is
    therefore exact). Round 2: a task per hash bucket of host a sums the
    counts of its pairs and applies ``min_count``
    (:func:`_cocite_counts`). Host extraction is the pinned ``_HOST_RE``
    cross-engine seam."""
    import ray
    import ray.data

    n = nodes.count()
    if n == 0:
        return _empty_scores("host_a", host_b=pa.string(), n_src=pa.int64())
    g = _page_graph(pages_ds, nodes, n, mode, None)
    (pins,) = g.pin(("bwd",))
    width = _graph_buckets(n)
    k = -(-n // width)
    task = ray.remote(num_cpus=1)
    step = task(_cocite_map).options(num_returns=k)
    hosts = [_part_refs(step.remote(p, u, width, k), k) for p, u in zip(pins, g.url_slices())]
    fold = task(_cocite_pairs).options(num_returns=k)
    pairs = [_part_refs(fold.remote(max_out, k, *(h[j] for h in hosts)), k) for j in range(k)]
    count = task(_cocite_counts)
    return ray.data.from_arrow_refs([count.remote(min_count, *(p[j] for p in pairs)) for j in range(k)])
