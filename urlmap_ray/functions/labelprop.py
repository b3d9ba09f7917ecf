"""Community detection over the undirected link graph via synchronous
label propagation (Raghavan, Albert & Kumara 2007), made deterministic.

Classic LPA is order- and tie-randomized; this implementation pins BOTH
so the result is reproducible at any parallelism or bucketing (the
property every operator in this repo's graph family holds, cf.
graph.py):

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

Scale shape: graph.py's traversal kernel, the same in both regimes. The
pin round lays out the distinct symmetric edge closure as ``und`` bucket
slices (integer work inside the pin tasks); labels are one dense int64
slice per bucket, held by ref. Each round is one map/reduce task round —
the map sends (neighbor, label) for each pinned edge, the reduce folds
per-node label histograms (integer counts — summation-order-free) with
:func:`_mode_per_dst`. No O(n) object exists on the driver or in any
task's label state; the label ids become urls in the url attach.

:func:`label_propagation_reference` runs the same :func:`_mode_per_dst`
kernel sequentially for the expected-parquet oracle (the pagerank/HITS
trust model).

Reference tie-in: the graph is "what the crawler saw" (parser.go:120-208
extraction feeds the same pure extractor); communities over it are the
natural site/topic clustering a 100 TB crawl feeds downstream sampling.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .graph import (
    _concat_parts,
    _emit,
    _empty_scores,
    _init_slice,
    _page_graph,
    _slice_block,
    _sweep,
)

__all__ = ["label_propagation", "label_propagation_reference"]

_N_ITERS = 5


def _mode_per_dst(
    dst: np.ndarray, lab: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(dst ids, modal neighbor label) per distinct dst — highest count,
    ties to the smallest label. The ONE kernel the reduce tasks and the
    sequential reference share, so results are identical on any
    partitioning. Inputs need not be sorted; duplicate (dst, lab) rows
    count multiply."""
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


def _label_map(pin, labels):
    """LPA map task: (neighbor, label) for each pinned edge of the bucket."""
    return _emit(pin, None, labels)


def _relabel(lo, labels, *parts):
    """LPA reduce task: each node that received labels takes their mode;
    the others keep theirs."""
    d, m = _mode_per_dst(*_concat_parts(parts, 2))
    new = labels.copy()
    new[d - lo] = m
    return new, int(np.count_nonzero(new != labels))


def label_propagation(
    pages_ds,
    nodes,
    *,
    n_iters: int = _N_ITERS,
    mode: str = "auto",
    n_buckets: int | None = None,
):
    """Deterministic synchronous LPA → Dataset of (url, community) with
    ``community`` = the final label's URL string. ``mode`` and
    ``n_buckets`` act as for :func:`graph.pagerank`: how ids are assigned
    and urls attached, and the task bucket count (speed only — results
    are bucketing-independent, test-pinned). See the module docstring
    for the pinned semantics."""
    import ray

    cols = {"community": pa.string()}
    n = nodes.count()
    if n == 0:
        return _empty_scores(**cols)
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    (pins,) = g.pin(("und",))
    step = ray.remote(num_cpus=1)(_label_map).options(num_returns=len(pins))
    fold = ray.remote(num_cpus=1)(_relabel).options(num_returns=2)
    init = ray.remote(num_cpus=1)(_init_slice)
    labels = [init.remote(lo, hi) for lo, hi in g.bounds()]
    for _ in range(n_iters):
        labels, _ = _sweep(step, fold, pins, labels, g.per_bucket)
    block = ray.remote(num_cpus=1)(_slice_block)
    blocks = [block.remote(lo, "community", lab) for (lo, _), lab in zip(g.bounds(), labels)]
    return g.attach(blocks, ids=("community",))


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
