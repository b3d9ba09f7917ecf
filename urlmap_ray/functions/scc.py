"""Strongly connected components of the DIRECTED link graph, via the
forward-backward coloring algorithm (Orzan 2004; Fleischer, Hendrickson
& Pınar 2000) — the decomposition behind the classic bow-tie structure
of the web (Broder et al. 2000).

Weakly connected components (functions/components.py) answer "same
site cluster?"; SCCs answer "mutually reachable?" — the core/IN/OUT
split that drives crawl-frontier analysis (pages in the giant core keep
feeding the frontier; OUT-tendril pages are sinks) and link-spam audits
(artificial cores). Edges are the same distinct in-corpus extraction
the whole graph family shares (reference parser.go:120-208 — "what the
crawler saw").

Algorithm (deterministic, synchronous — every operator contract in this
repo's graph family):

    active ← all nodes
    while active:
      1. FORWARD COLORING to fixpoint: color(v) ← own id, then each
         round color(v) ← min(color(v), min over active edges u→v of
         color(u)).  At fixpoint color(v) = the smallest active id that
         reaches v.
      2. ROOTS: r with color(r) = r.  BACKWARD SWEEP to fixpoint: flag
         f(r) ← 1; each round f(v) ← 1 if any active edge v→u has
         f(u) = 1 and color(u) = color(v).  (Paths from a color-r node
         back to r provably stay inside color r, so the color equality
         is pruning, not an approximation.)
      3. Every flagged v belongs to SCC(color(v)); its representative
         color(v) is the LEXICOGRAPHICALLY SMALLEST member (color(v) ≤ v
         and the root is flagged), so reps are stable human-readable
         URLs.  Retire flagged nodes; repeat on the rest.

Phase count is the classic FW-BW bound (expected O(log n) phases on
web-like graphs; the giant core falls out of phase 1 because the global
min id lands in or upstream of it). Production accelerators (trim-1
peeling of in/out-degree-0 tendril nodes between phases) compose
trivially with this loop and are documented, not implemented — the
phase loop alone is already fixpoint-correct.

Scale shape: graph.py's traversal kernel, the same in both regimes.
The pin round lays out each bucket's out-edges (``fwd``) and reversed
in-edges (``bwd``) as slices in the object store; the (colour, flag,
rep) state is one dense slice per bucket, held by ref (rep = -1 while a
node is active). Each propagation step is one map/reduce task round:
forward, the map sends each active node's colour along its out-edges and
the reduce takes the MIN (and marks the roots); backward, the map sends
each flagged node's colour against its in-edges and the reduce flags the
active nodes of the same colour. MIN and OR move each node one way
only, so rounds run to fixpoint on the reduces' changed counts: the
driver fetches nb ints a round and never an O(n) array. Rounds cost what BFS rounds cost —
O(diameter) rounds per phase, the algorithm's native price.

:func:`scc_reference` is a single-process iterative Tarjan with the
same min-url representative — the expected-parquet trust model of the
pagerank/kmeans family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .graph import (
    _bfs_rounds,
    _bucket_cuts,
    _concat_parts,
    _cut,
    _emit,
    _empty_scores,
    _page_graph,
    _shuffle_round,
    _slice_block,
    _sorted_run_sums,
    _sweep,
    _task_parts,
)

__all__ = ["scc", "scc_reference", "bowtie", "bowtie_reference"]


def _color_map(pin, state, backward):
    """SCC map task: each active node's colour to the other endpoint of
    its pinned edges — forward over out-edges (``fwd`` pins), backward over
    in-edges (``bwd`` pins) and from flagged nodes only."""
    color, flag, rep = state
    return _emit(pin, (rep < 0) & flag if backward else rep < 0, color)


def _color_fold(lo, state, backward, *parts):
    """SCC reduce task → (state, changed count). Forward: colour(v) ←
    MIN(colour(v), received colours), for active v; the roots (active, own
    id as colour) are flagged. Backward: active v is flagged if it
    received its own colour."""
    color, flag, rep = state
    v, c = _concat_parts(parts, 2)
    v = v - lo
    ok = rep[v] < 0
    if backward:
        new = flag.copy()
        new[v[ok & (c == color[v])]] = True
        return (color, new, rep), int(np.count_nonzero(new != flag))
    new = color.copy()
    np.minimum.at(new, v[ok], c[ok])
    roots = (rep < 0) & (new == np.arange(lo, lo + len(new)))
    return (new, roots, rep), int(np.count_nonzero(new != color))


def _scc_phase(lo, hi, state):
    """Phase boundary task → (state, active count): flagged active nodes
    retire into SCC(colour); the active rest restart with their own id as
    colour. ``state`` None is the all-active start."""
    if state is None:
        rep = np.full(hi - lo, -1, np.int64)
    else:
        color, flag, rep = state
        rep = np.where(flag & (rep < 0), color, rep)
    act = rep < 0
    color = np.where(act, np.arange(lo, hi, dtype=np.int64), -1)
    return (color, np.zeros(hi - lo, bool), rep), int(np.count_nonzero(act))


def _scc_states(g, fwd, bwd) -> list:
    """FW-BW phases over the pinned ``fwd`` / ``bwd`` slices until no node
    is active → the per-bucket final state refs (rep = the SCC's min id)."""
    import ray

    step = ray.remote(num_cpus=1)(_color_map).options(num_returns=len(fwd))
    fold = ray.remote(num_cpus=1)(_color_fold).options(num_returns=2)
    phase = ray.remote(num_cpus=1)(_scc_phase).options(num_returns=2)
    states = [None] * len(fwd)
    while True:
        out = [phase.remote(lo, hi, s) for (lo, hi), s in zip(g.bounds(), states)]
        states = [s for s, _ in out]
        if sum(ray.get([c for _, c in out])) == 0:
            return states
        for pins, backward in ((fwd, False), (bwd, True)):
            changed = 1
            while changed:
                states, counts = _sweep(step, fold, pins, states, g.per_bucket, (backward,), (backward,))
                changed = sum(ray.get(counts))


def _rep_block(lo, state) -> pa.Table:
    """A bucket's (node_id, scc_rep id) rows."""
    return _slice_block(lo, "scc_rep", state[2])


def scc(pages_ds, nodes, *, mode: str = "auto", n_buckets: int | None = None):
    """SCCs of the corpus link graph → Dataset (url, scc_rep) where
    ``scc_rep`` is the lexicographically smallest member url (singleton
    components are their own representative — build_edges drops
    self-loops, so a node with no cycle through it is a singleton).
    ``mode`` and ``n_buckets`` act as for :func:`graph.pagerank`."""
    import ray

    cols = {"scc_rep": pa.string()}
    n = nodes.count()
    if n == 0:
        return _empty_scores(**cols)
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    states = _scc_states(g, *g.pin(("fwd", "bwd")))
    block = ray.remote(num_cpus=1)(_rep_block)
    blocks = [block.remote(lo, s) for (lo, _), s in zip(g.bounds(), states)]
    return g.attach(blocks, ids=("scc_rep",))


# ---------------------------------------------------------------------------
# single-process reference (iterative Tarjan)


def scc_reference(urls: list[str], links_per_url: dict[str, list[str]]) -> dict[str, str]:
    """Iterative Tarjan over the same distinct in-corpus non-self edge
    set build_edges extracts; representative = lexicographically
    smallest member url."""
    urls_sorted = sorted(urls)
    n = len(urls_sorted)
    idx = {u: i for i, u in enumerate(urls_sorted)}
    node_set = set(urls_sorted)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, links in links_per_url.items():
        ui = idx[u]
        for l in sorted(set(links)):
            if l in node_set and l != u:
                adj[ui].append(idx[l])
    index = np.full(n, -1, np.int64)
    low = np.zeros(n, np.int64)
    on_stack = np.zeros(n, bool)
    stack: list[int] = []
    comp = np.full(n, -1, np.int64)
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(adj[v])):
                w = adj[v][j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                rep = min(members)
                for w in members:
                    comp[w] = rep
            if work:
                p, _ = work[-1]
                low[p] = min(low[p], low[v])
    return {u: urls_sorted[comp[i]] for i, u in enumerate(urls_sorted)}


# ---------------------------------------------------------------------------
# bow-tie decomposition


def _rep_sizes(pin, state, per_bucket, nb):
    """Bow-tie map task: the bucket's (rep, member count) partials, cut by
    rep bucket."""
    reps, sizes = np.unique(state[2], return_counts=True)
    return _task_parts(_cut(_bucket_cuts(reps, per_bucket, nb), reps, sizes))


def _largest(*parts) -> tuple[int, int]:
    """Bow-tie reduce task: (size, rep) of the largest SCC whose rep is in
    the bucket, ties to the smallest rep; (0, -1) if none is."""
    reps, sizes = _concat_parts(parts, 2)
    if len(reps) == 0:
        return 0, -1
    reps, sizes = _sorted_run_sums(reps, reps, sizes)
    best = int(np.argmax(sizes))  # the first maximum: the smallest rep
    return int(sizes[best]), int(reps[best])


def _core_dist(state, core) -> np.ndarray:
    """Reach-sweep state slice: distance 0 on the core, -1 elsewhere."""
    return np.where(state[2] == core, 0, -1)


def _regions(lo, state, core, out_dist, in_dist) -> pa.Table:
    """A bucket's (node_id, region) rows."""
    region = np.full(len(out_dist), "other", dtype=object)
    region[in_dist >= 0] = "in"
    region[out_dist >= 0] = "out"
    region[state[2] == core] = "core"
    return _slice_block(lo, "region", pa.array(region, pa.string()))


def bowtie(pages_ds, nodes, *, mode: str = "auto", n_buckets: int | None = None):
    """Broder et al. (2000) bow-tie classification relative to the
    LARGEST SCC → Dataset (url, region) with region ∈ {'core', 'in',
    'out', 'other'}: core = the largest SCC (ties → lexicographically
    smallest representative), in = reaches the core but not in it,
    out = reachable from the core but not in it, other = tendrils,
    tubes and disconnected pages.

    One pin round serves all of it, in either ``mode``: the :func:`scc`
    phases, then one map/reduce round that sends per-bucket (rep, size)
    partials to the rep's bucket, each reduce returning its largest
    (size, rep) for the driver to fold, then two BFS sweeps from the core
    (``graph._bfs_rounds``), along the ``fwd`` pins and against the
    ``bwd`` pins."""
    import ray

    cols = {"region": pa.string()}
    n = nodes.count()
    if n == 0:
        return _empty_scores(**cols)
    g = _page_graph(pages_ds, nodes, n, mode, n_buckets)
    fwd, bwd = g.pin(("fwd", "bwd"))
    states = _scc_states(g, fwd, bwd)
    nb = len(fwd)
    sizes = ray.remote(num_cpus=1)(_rep_sizes).options(num_returns=nb)
    largest = ray.remote(num_cpus=1)(_largest)
    best = ray.get(_shuffle_round(sizes, largest, fwd, states, (g.per_bucket, nb), [()] * nb))
    core = min(best, key=lambda p: (-p[0], p[1]))[1]
    init = ray.remote(num_cpus=1)(_core_dist)
    seeds = [init.remote(s, core) for s in states]
    out_dist = _bfs_rounds(g, fwd, seeds)
    in_dist = _bfs_rounds(g, bwd, seeds)
    block = ray.remote(num_cpus=1)(_regions)
    blocks = [
        block.remote(lo, s, core, o, i)
        for (lo, _), s, o, i in zip(g.bounds(), states, out_dist, in_dist)
    ]
    return g.attach(blocks)


def bowtie_reference(
    urls: list[str], links_per_url: dict[str, list[str]]
) -> dict[str, str]:
    """Single-process bow-tie: Tarjan SCC + two BFS sweeps."""
    comp = scc_reference(urls, links_per_url)
    from collections import Counter, deque

    sizes = Counter(comp.values())
    top = max(sizes.values())
    core_rep = min(r for r, c in sizes.items() if c == top)
    node_set = set(urls)
    fwd: dict[str, set[str]] = {u: set() for u in urls}
    bwd: dict[str, set[str]] = {u: set() for u in urls}
    for u, links in links_per_url.items():
        for l in links:
            if l in node_set and l != u:
                fwd[u].add(l)
                bwd[l].add(u)

    def reach(seeds: set[str], adj) -> set[str]:
        seen = set(seeds)
        q = deque(seeds)
        while q:
            v = q.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        return seen

    core = {u for u in urls if comp[u] == core_rep}
    reached = reach(core, fwd)
    reaches = reach(core, bwd)
    out = {}
    for u in urls:
        if u in core:
            out[u] = "core"
        elif u in reaches:
            out[u] = "in"
        elif u in reached:
            out[u] = "out"
        else:
            out[u] = "other"
    return out
