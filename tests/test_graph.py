"""Web-graph analytics (functions/graph.py): edges, degrees, PageRank, HITS.

Ground truth is the pure extractor applied single-process; PageRank's and
HITS' two distributed modes must agree bit-for-bit with each other and
with the single-process references (the deterministic-summation contract
in the module docstring).

The node set enters every entry point as a DATASET — these tests also pin
the handshake: the driver holds ObjectRefs to the sorted url buckets and
O(buckets) integers (their counts), never the url column.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from urlmap_ray.corpus import generate_corpus
from urlmap_ray.extract import extract_links
from urlmap_ray.functions.graph import (
    build_edges,
    degrees,
    pagerank,
    pagerank_reference,
)

N_PAGES = 200


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("graphcorpus")
    return generate_corpus(str(out), N_PAGES)


@pytest.fixture(scope="module")
def pages_tbl(corpus):
    return pads.dataset(corpus.pages_path, format="parquet").to_table(
        columns=["url", "html"]
    )


@pytest.fixture(scope="module")
def truth(pages_tbl):
    urls = pages_tbl.column("url").to_pylist()
    node_set = set(urls)
    links = {
        u: (extract_links(u, h) if h is not None else [])
        for u, h in zip(urls, pages_tbl.column("html").to_pylist())
    }
    edges = sorted(
        {(u, l) for u, ls in links.items() for l in ls if l in node_set and l != u}
    )
    return urls, links, edges


def _pages_ds(corpus):
    import ray.data

    return ray.data.read_parquet(corpus.pages_path, columns=["url", "html"])


def _nodes_ds(corpus):
    # the node-set handshake: a column-pruned Dataset, never a list
    import ray.data

    return ray.data.read_parquet(corpus.pages_path, columns=["url"])


def _link_pages(links, parts=1):
    """(pages, nodes) Datasets of a hand-made graph: a page per key of
    ``links`` whose html holds one ``<a href>`` per url it links to, in
    ``parts`` blocks, and its url column as the node set."""
    import ray.data

    urls = sorted(links)
    html = ["<html><body>" + "".join(f'<a href="{t}">x</a>' for t in links[u]) + "</body></html>" for u in urls]
    pages = pa.table({"url": pa.array(urls, pa.string()), "html": pa.array([h.encode() for h in html], pa.binary())})
    nodes = ray.data.from_arrow(pa.table({"url": pa.array(urls, pa.string())}))
    return ray.data.from_arrow(pages).repartition(parts), nodes


def test_build_edges_matches_pure_both_regimes(ray_session, corpus, truth):
    _, _, edges = truth
    for mode in ("broadcast", "shuffle"):
        got = sorted(
            (r["src"], r["dst"])
            for r in build_edges(_pages_ds(corpus), _nodes_ds(corpus), mode=mode).take_all()
        )
        assert got == edges, f"mode={mode}"
    assert len(edges) > N_PAGES  # corpus pages interlink


def test_degrees_match_counter_both_regimes(ray_session, corpus, truth):
    urls, _, edges = truth
    out_c, in_c = Counter(e[0] for e in edges), Counter(e[1] for e in edges)
    for mode in ("broadcast", "shuffle"):
        rows = degrees(_pages_ds(corpus), _nodes_ds(corpus), mode=mode).take_all()
        assert len(rows) == len(urls)  # isolated pages keep (0, 0) rows
        for r in rows:
            assert r["out_deg"] == out_c.get(r["url"], 0), (mode, r["url"])
            assert r["in_deg"] == in_c.get(r["url"], 0), (mode, r["url"])


def test_pagerank_broadcast_matches_reference(ray_session, corpus, truth):
    urls, links, _ = truth
    expected = pagerank_reference(urls, links)
    rows = pagerank(_pages_ds(corpus), _nodes_ds(corpus), mode="broadcast").take_all()
    got = {r["url"]: r["rank_ppb"] for r in rows}
    assert got == expected  # bit-identical floats → equal quantized ranks
    assert all(v > 0 for v in got.values())
    assert sum(got.values()) <= 1_000_000_000  # dangling mass dropped, never added


def test_pagerank_shuffle_mode_identical(ray_session, corpus, truth):
    urls, links, _ = truth
    b = pagerank(
        _pages_ds(corpus), _nodes_ds(corpus), mode="broadcast", n_iters=3, n_buckets=7
    )
    s = pagerank(
        _pages_ds(corpus), _nodes_ds(corpus), mode="shuffle", n_iters=3, n_buckets=7
    )
    got_b = {r["url"]: r["rank_ppb"] for r in b.take_all()}
    got_s = {r["url"]: r["rank_ppb"] for r in s.take_all()}
    assert got_s == got_b
    assert got_b == pagerank_reference(urls, links, n_iters=3)


def test_trustrank_modes_identical_and_match_reference(ray_session, corpus, truth):
    # personalized teleport (TrustRank): both modes bit-identical to the
    # seeded reference; non-seed-reachable nodes get zero mass
    urls, links, _ = truth
    seeds = sorted(urls)[:3]
    b = pagerank(
        _pages_ds(corpus),
        _nodes_ds(corpus),
        mode="broadcast",
        n_iters=3,
        n_buckets=7,
        seed_urls=seeds,
    )
    s = pagerank(
        _pages_ds(corpus),
        _nodes_ds(corpus),
        mode="shuffle",
        n_iters=3,
        n_buckets=7,
        seed_urls=seeds,
    )
    got_b = {r["url"]: r["rank_ppb"] for r in b.take_all()}
    got_s = {r["url"]: r["rank_ppb"] for r in s.take_all()}
    exp = pagerank_reference(urls, links, n_iters=3, seed_urls=seeds)
    assert got_s == got_b
    assert got_b == exp
    # teleport mass is concentrated: seeds hold rank, total ≤ 1e9
    assert all(exp[u] > 0 for u in seeds)
    assert sum(exp.values()) <= 1_000_000_000
    # uniform path unchanged by the refactor (pinned one-division floats)
    assert pagerank_reference(urls, links, n_iters=3) == {
        r["url"]: r["rank_ppb"]
        for r in pagerank(
            _pages_ds(corpus), _nodes_ds(corpus), mode="broadcast", n_iters=3
        ).take_all()
    }
    import pytest

    with pytest.raises(ValueError):
        pagerank_reference(urls, links, seed_urls=["https://nope.example/x"])


def test_hits_matches_reference_any_block_layout(ray_session, corpus, truth):
    """The public HITS call is bit-identical to the single-process
    reference (the kernel's block layouts and bucket counts are covered by
    ``test_shuffle_kernel_any_layout_and_bucket_count``)."""
    import numpy as np

    from urlmap_ray.functions.graph import hits, hits_reference

    urls, links, _ = truth
    exp = hits_reference(urls, links)
    exp_rows = {
        u: (a, h)
        for u, a, h in zip(
            exp.column("url").to_pylist(),
            exp.column("auth_ppb").to_pylist(),
            exp.column("hub_ppb").to_pylist(),
        )
    }
    rows = hits(_pages_ds(corpus), _nodes_ds(corpus)).take_all()
    assert {r["url"]: (r["auth_ppb"], r["hub_ppb"]) for r in rows} == exp_rows
    # sanity: scores are L1-normalized (ppb sums ≈ 1e9) and non-trivial
    assert abs(sum(exp.column("auth_ppb").to_pylist()) - 1_000_000_000) < 1000
    assert abs(sum(exp.column("hub_ppb").to_pylist()) - 1_000_000_000) < 1000
    assert np.count_nonzero(exp.column("auth_ppb").to_numpy()) > N_PAGES // 2


def _id_edges(urls, links, weighted=False):
    """The corpus link graph as (one (src_id, dst_id[, w]) table over the
    sorted node ids, the node urls, the (src, dst, w) url triples). Each
    edge weighs 1..3; ``weighted`` adds the ``w`` column and takes the
    edge endpoints as the node set, as the weighted reference does."""
    node_set = set(urls)
    pairs = sorted({(u, v) for u, vs in links.items() for v in vs if v in node_set and v != u})
    nodes = sorted({x for p in pairs for x in p}) if weighted else sorted(urls)
    idx = {u: i for i, u in enumerate(nodes)}
    cols = {
        "src_id": pa.array([idx[u] for u, _ in pairs], pa.int64()),
        "dst_id": pa.array([idx[v] for _, v in pairs], pa.int64()),
    }
    triples = [(u, v, 1 + (idx[u] + idx[v]) % 3) for u, v in pairs]
    if weighted:
        cols["w"] = pa.array([w for *_, w in triples], pa.int64())
    return pa.table(cols), nodes, triples


def _shuffle_layouts(t, per_bucket):
    """The same id-mapped edges in the block layouts the shuffle kernel
    must not care about, as lists of block refs (the kernel's input)."""
    import numpy as np
    import ray

    t = t.sort_by([("dst_id", "ascending"), ("src_id", "ascending")])
    bucket = t.column("dst_id").to_numpy() // per_bucket
    b0 = next(b for b in np.unique(bucket) if np.count_nonzero(bucket == b) >= 2)
    k = int(np.flatnonzero(bucket == b0)[0]) + 1
    return {
        "one_block": [ray.put(t)],
        "block_per_bucket": [ray.put(t.filter(bucket == b)) for b in np.unique(bucket)],
        "split_bucket": [ray.put(t[:k]), ray.put(t[k:])],
    }


def test_shuffle_kernel_any_layout_and_bucket_count(ray_session, corpus, truth):
    """The PageRank, weighted PageRank and HITS kernels are bit-identical
    to the references whatever the edge block layout — all edges in one
    block, one block per bucket, a bucket split across two blocks — at
    1, 2, 3 and one-per-L1-bucket task buckets (one bucket is Ray's
    single-return case): the HITS L1 tree stays at the reference's
    granularity whatever the task bucket. Also on an edgeless graph, the
    kernels and the public calls of both modes."""
    import numpy as np
    import ray
    import ray.data

    from urlmap_ray.functions import graph as gr

    urls, links, _ = truth
    n_iters = 3

    def ranks(edges_ds, n, per_bucket, weighted=False):
        (refs,) = gr._shuffle_rank_slices(
            edges_ds,
            n,
            n_iters=n_iters,
            damping=gr._DAMPING,
            teleports=[None],
            per_bucket=per_bucket,
            weighted=weighted,
        )
        return np.concatenate(ray.get(refs))

    def hits_scores(edges_ds, n, per_bucket):
        auth, div_a, hub, div_h = gr._hits_shuffle_slices(
            edges_ds, n, n_iters=n_iters, per_bucket=per_bucket
        )
        return np.stack(
            [np.concatenate(ray.get(auth)) / div_a, np.concatenate(ray.get(hub)) / div_h], 1
        )

    first = {}

    def check(kernel, floats, exp, where):
        """ppb equal to the reference's, and floats bit-equal to the first
        run's, which is at the reference's own bucketing (ppb rounding
        alone would hide a last-bit change)."""
        assert gr._ppb(floats).tolist() == exp, (kernel, where)
        assert np.array_equal(first.setdefault(kernel, floats), floats), (kernel, where)

    t, nodes, _ = _id_edges(urls, links)
    n = len(nodes)
    exp_pr = gr.pagerank_reference(urls, links, n_iters=n_iters)
    exp_pr = [exp_pr[u] for u in nodes]
    exp_h = gr.hits_reference(urls, links, n_iters=n_iters)
    exp_h = [list(r) for r in zip(exp_h.column("auth_ppb").to_pylist(), exp_h.column("hub_ppb").to_pylist())]
    wt, w_nodes, triples = _id_edges(urls, links, weighted=True)
    n_w = len(w_nodes)
    exp_w = gr.weighted_pagerank_reference(triples, n_iters=n_iters)
    exp_w = [exp_w[u] for u in w_nodes]

    n_l1 = -(-n // gr._graph_buckets(n))
    for k in (n_l1, 1, 2, 3):
        per_bucket, w_per_bucket = gr._task_bucket(n, k), gr._task_bucket(n_w, k)
        assert -(-n // per_bucket) == k  # this corpus cuts into exactly k
        w_layouts = _shuffle_layouts(wt, w_per_bucket)
        for name, edges_ds in _shuffle_layouts(t, per_bucket).items():
            check("pagerank", ranks(edges_ds, n, per_bucket), exp_pr, (k, name))
            check("hits", hits_scores(edges_ds, n, per_bucket), exp_h, (k, name))
            check("weighted", ranks(w_layouts[name], n_w, w_per_bucket, True), exp_w, (k, name))

    # edgeless: the kernels, and the public calls whose edge build yields no rows
    per_bucket = gr._graph_buckets(n)
    empty = [ray.put(t.slice(0, 0))]
    no_links = {u: [] for u in urls}
    exp_pr0 = gr.pagerank_reference(urls, no_links, n_iters=n_iters)
    exp_h0 = gr.hits_reference(urls, no_links, n_iters=n_iters)
    assert gr._ppb(ranks(empty, n, per_bucket)).tolist() == [exp_pr0[u] for u in nodes]
    assert gr._ppb(hits_scores(empty, n, per_bucket)).tolist() == [
        list(r) for r in zip(exp_h0.column("auth_ppb").to_pylist(), exp_h0.column("hub_ppb").to_pylist())
    ]
    pages = _pages_ds(corpus).map_batches(
        lambda b: b.set_column(1, "html", pa.nulls(b.num_rows, pa.string())),
        batch_format="pyarrow",
    )
    for mode in ("broadcast", "shuffle"):
        got = pagerank(pages, _nodes_ds(corpus), mode=mode, n_iters=n_iters, n_buckets=7)
        assert {r["url"]: r["rank_ppb"] for r in got.take_all()} == exp_pr0, mode
        got = gr.hits(pages, _nodes_ds(corpus), mode=mode, n_iters=n_iters, n_buckets=7)
        assert sorted((r["url"], r["auth_ppb"], r["hub_ppb"]) for r in got.take_all()) == list(
            zip(*(exp_h0.column(c).to_pylist() for c in ("url", "auth_ppb", "hub_ppb")))
        ), mode
        empty_w = ray.data.from_arrow(
            pa.table({c: pa.array([], pa.string()) for c in ("src_host", "dst_host")}).append_column(
                "weight", pa.array([], pa.int64())
            )
        )
        assert gr.weighted_pagerank(empty_w, mode=mode).take_all() == [], mode


def _bounded(fn, arg):
    """``fn`` as call(pages, nodes, rounds=None, **kw), ``rounds`` (if
    given) passed as its keyword ``arg``."""
    return lambda p, n, rounds=None, **kw: fn(p, n, **({arg: rounds} if rounds else {}), **kw)


def _traversals(seeds):
    """The five traversal calls, each as call(pages, nodes, rounds=None,
    **kw), ``rounds`` being its round bound (BFS ``radius``, kcore
    ``max_rounds``, LPA ``n_iters``; SCC and bow-tie have none)."""
    from urlmap_ray.functions.graph import bfs_distances, kcore
    from urlmap_ray.functions.labelprop import label_propagation
    from urlmap_ray.functions.scc import bowtie, scc

    return {
        "bfs": lambda p, n, rounds=None, **kw: bfs_distances(p, n, seeds, radius=rounds, **kw),
        "kcore": _bounded(kcore, "max_rounds"),
        "lpa": _bounded(label_propagation, "n_iters"),
        "scc": lambda p, n, rounds=None, **kw: scc(p, n, **kw),
        "bowtie": lambda p, n, rounds=None, **kw: bowtie(p, n, **kw),
    }


def _counts():
    """The counting calls on the pinned graph with a task bucket knob
    (degrees, triangles, edge Jaccard), none with a round bound, each as
    call(pages, nodes, rounds=None, **kw) like :func:`_traversals`. Host
    co-citation, which reduces over L1 buckets and has no ``n_buckets``,
    is called on its own."""
    from urlmap_ray.functions.graph import edge_jaccard, triangle_counts

    return {
        name: lambda p, n, rounds=None, fn=fn, **kw: fn(p, n, **kw)
        for name, fn in (("degrees", degrees), ("triangles", triangle_counts), ("jaccard", edge_jaccard))
    }


def _anf_and_walks():
    """HyperANF and random walks, each as call(pages, nodes, rounds=None,
    **kw) like :func:`_traversals`, ``rounds`` being HyperANF ``radius`` and
    walk ``length``."""
    from urlmap_ray.functions.graph import neighborhood_sizes, random_walks

    return {"hyperanf": _bounded(neighborhood_sizes, "radius"), "walks": _bounded(random_walks, "length")}


def _spam(seeds):
    """spam_mass from ``seeds`` as call(pages, nodes, rounds=None, **kw),
    ``rounds`` being ``n_iters``."""
    from functools import partial

    from urlmap_ray.functions.graph import spam_mass

    return _bounded(partial(spam_mass, seed_urls=seeds), "n_iters")


def _edge_calls():
    """build_edges and host_graph, the calls built on string edges."""
    from urlmap_ray.functions.graph import host_graph

    return (build_edges, host_graph)


def test_rank_rejects_bad_n_buckets(ray_session, corpus):
    """A task bucket count below one is refused before any graph work, by
    the ranks, spam mass, the traversals, the counting calls, HyperANF
    and the walks alike."""
    from urlmap_ray.functions.graph import hits

    calls = {
        "pagerank": pagerank, "hits": hits, "spam_mass": _spam(["https://x.example/"]),
        **_traversals(["https://x.example/"]), **_counts(), **_anf_and_walks(),
    }
    for mode in ("broadcast", "shuffle"):
        for bad in (0, -2):
            for name, call in calls.items():
                with pytest.raises(ValueError, match="n_buckets"):
                    call(_pages_ds(corpus), _nodes_ds(corpus), mode=mode, n_buckets=bad)


def test_shuffle_regime_contract(ray_session, corpus, truth, monkeypatch):
    """Neither regime holds an O(nodes) object on the driver: every array
    the engine's driver code puts or gets (summed over the values of one
    multi-ref get) has at most max(per_bucket, task buckets, L1 buckets)
    elements. Ray Data's own exchanges (their sort samples) are not
    counted. And iterations are task rounds, not Dataset jobs: the Ray
    Data executions a call makes do not grow with ``n_iters`` (spam mass
    too; BFS ``radius``, kcore ``max_rounds``, HyperANF ``radius``, walk
    ``length``), and a traversal, a counting call (degrees, triangles, edge
    Jaccard, host co-citation at its L1 buckets), HyperANF or the walks
    start none after their pin round.
    The shuffle regime's graph build and url attach are task rounds too: a
    shuffle-mode call starts no more Ray Data executions than the same
    call in broadcast mode. A shuffle-mode build_edges gets the url bucket
    counts and nothing larger."""
    import numpy as np
    import ray
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from urlmap_ray.functions import graph as gr
    from urlmap_ray.functions.graph import hits, host_cocitation

    urls, links, _ = truth
    n, nb = len(urls), 7
    n_l1 = -(-n // gr._graph_buckets(n))
    sizes = []

    def size_of(v):
        if isinstance(v, np.ndarray):
            return v.size
        if isinstance(v, (pa.Array, pa.ChunkedArray)):
            return len(v)
        if isinstance(v, pa.Table):
            return v.num_rows
        if isinstance(v, (list, tuple)):  # a multi-ref get holds all of it at once
            return sum(map(size_of, v))
        return 0

    real_put, real_get = ray.put, ray.get

    def caller():
        return sys._getframe(2).f_globals.get("__name__", "")

    def put(value, *a, **kw):
        sizes.append((caller(), "put", size_of(value)))
        return real_put(value, *a, **kw)

    def get(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        sizes.append((caller(), "get", size_of(out)))
        return out

    runs = []
    real_execute = StreamingExecutor.execute

    def execute(self, *a, **kw):
        runs.append(1)
        return real_execute(self, *a, **kw)

    pinned = []  # executions counted when a traversal's pin round starts
    real_pin = gr._RankGraph.pin

    def pin(self, layouts):
        pinned.append(len(runs))
        return real_pin(self, layouts)

    seeds = sorted(urls)[:3]
    calls = {}
    for mode, k in (("shuffle", nb), ("broadcast", None)):  # broadcast: its CPU default
        kw = {"mode": mode, "n_buckets": k}
        calls.update(
            {
                (mode, "pagerank", k): lambda i, kw=kw: pagerank(
                    _pages_ds(corpus), _nodes_ds(corpus), n_iters=i, **kw
                ),
                (mode, "trustrank", k): lambda i, kw=kw: pagerank(
                    _pages_ds(corpus), _nodes_ds(corpus), n_iters=i, seed_urls=seeds, **kw
                ),
                (mode, "hits", k): lambda i, kw=kw: hits(
                    _pages_ds(corpus), _nodes_ds(corpus), n_iters=i, **kw
                ),
                (mode, "spam_mass", k): lambda i, kw=kw: _spam(seeds)(
                    _pages_ds(corpus), _nodes_ds(corpus), i, **kw
                ),
            }
        )
    for mode in ("shuffle", "broadcast"):
        for k in (None, nb):
            for alg, call in {**_traversals(seeds), **_counts(), **_anf_and_walks()}.items():
                calls[(mode, alg, k)] = lambda i, call=call, kw={"mode": mode, "n_buckets": k}: (
                    call(_pages_ds(corpus), _nodes_ds(corpus), i, **kw)
                )
        calls[(mode, "cocitation", None)] = lambda i, mode=mode: (
            host_cocitation(_pages_ds(corpus), _nodes_ds(corpus), mode=mode)
        )
    monkeypatch.setattr(ray, "put", put)
    monkeypatch.setattr(ray, "get", get)
    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    monkeypatch.setattr(gr._RankGraph, "pin", pin)
    results, execs = {}, {}
    for name, call in calls.items():
        per_bucket = gr._rank_regime(n, name[0], name[2])[1]
        bound = max(per_bucket, -(-n // per_bucket), n_l1)
        assert bound < n  # an O(nodes) array would show
        jobs = []
        for k in (1, 4):
            runs.clear()
            sizes.clear()
            pinned.clear()
            ds = call(k)
            jobs.append(len(runs))
            ours = [(op, size) for who, op, size in sizes if who.startswith("urlmap_ray.")]
            results[name[:2] + (k,)] = ds.materialize()
            assert max((size for _, size in ours), default=0) <= bound, (name, sorted(ours, key=lambda x: -x[1])[:3])
            if name[1] == "hits":
                assert ("get", n_l1) in ours  # the L1 partials of one round
            if name[1] not in ("pagerank", "trustrank", "hits", "spam_mass"):
                assert pinned == [jobs[-1]], f"{name}: Dataset executions after the pin round"
        assert jobs[0] == jobs[1], f"{name}: Dataset executions grow with n_iters: {jobs}"
        execs[name] = jobs[0]
    sizes.clear()
    edges = build_edges(_pages_ds(corpus), _nodes_ds(corpus), mode="shuffle").materialize()
    ours = [(op, size) for who, op, size in sizes if who.startswith("urlmap_ray.")]
    nu = -(-n // gr._rank_regime(n, "shuffle", None)[1])
    assert nu > 1 and ("get", 0) in ours  # the url bucket counts: ints, no array
    assert max(size for _, size in ours) <= max(nu, n_l1), sorted(ours, key=lambda x: -x[1])[:3]
    monkeypatch.undo()
    assert sorted((r["src"], r["dst"]) for r in edges.take_all()) == truth[2]
    for (mode, alg, k), count in execs.items():
        if mode == "shuffle":
            twin = execs.get(("broadcast", alg, k), execs[("broadcast", alg, None)])
            assert count <= twin, f"{alg}: {count} Dataset executions in shuffle mode, {twin} in broadcast"
    for mode in ("shuffle", "broadcast"):
        assert {r["url"]: r["rank_ppb"] for r in results[(mode, "pagerank", 4)].take_all()} == (
            pagerank_reference(urls, links, n_iters=4)
        ), mode
        assert {r["url"]: r["rank_ppb"] for r in results[(mode, "trustrank", 4)].take_all()} == (
            pagerank_reference(urls, links, n_iters=4, seed_urls=seeds)
        ), mode
        assert {r["url"]: r["spam_mass_ppb"] for r in results[(mode, "spam_mass", 4)].take_all()} == (
            _spam_reference(urls, links, 4, seeds)
        ), mode
        assert {r["url"]: r["dist"] for r in results[(mode, "bfs", 4)].take_all()} == (
            _bfs_reference(truth[2], seeds, radius=4)
        ), mode


def test_repeated_node_url_raises(ray_session, corpus, truth):
    """A node set that repeats a url is refused with a ValueError naming
    the url, in both regimes, by the ranks, spam mass, the traversals, the
    counting calls (host co-citation included), HyperANF, the walks and
    the edge builds (the sort of each url bucket sees every repeat)."""
    import re

    import ray.data

    from urlmap_ray.functions.graph import hits, host_cocitation

    dup = sorted(truth[0])[17]

    def nodes():
        return _nodes_ds(corpus).union(ray.data.from_arrow(pa.table({"url": [dup]})))

    calls = {
        "pagerank": pagerank, "hits": hits, "spam_mass": _spam([dup]), "bfs": _traversals([dup])["bfs"],
        **_counts(), **_anf_and_walks(),
    }
    for mode in ("broadcast", "shuffle"):
        for name, call in calls.items():
            with pytest.raises(ValueError, match=re.escape(repr(dup))):
                call(_pages_ds(corpus), nodes(), mode=mode, n_buckets=7).materialize()
        with pytest.raises(ValueError, match=re.escape(repr(dup))):
            host_cocitation(_pages_ds(corpus), nodes(), mode=mode).materialize()
        for call in _edge_calls():  # these raise before returning their Dataset
            with pytest.raises(ValueError, match=re.escape(repr(dup))):
                call(_pages_ds(corpus), nodes(), mode=mode)


def test_shuffle_calls_log_no_schema_mismatch(ray_session, corpus):
    """Ray Data logs no "RefBundle with a different schema" warning for a
    shuffle-mode PageRank, HITS or label propagation: every block the graph
    build and url attach hand to Ray Data carries the result schema."""
    import logging

    from urlmap_ray.functions.graph import hits
    from urlmap_ray.functions.labelprop import label_propagation

    seen = []

    class Capture(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    handler = Capture(logging.WARNING)
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        for call in (pagerank, hits, label_propagation):
            call(_pages_ds(corpus), _nodes_ds(corpus), mode="shuffle", n_buckets=7).materialize()
    finally:
        logger.removeHandler(handler)
    assert not [m for m in seen if "different schema" in m], seen


def test_hits_shuffle_mode_identical(ray_session, corpus, truth):
    """HITS in both modes at n_buckets=7 is bit-identical to
    hits_reference: the L1 tree and hub partials stay at the reference's
    granularity whatever the task bucket count."""
    from urlmap_ray.functions.graph import hits, hits_reference

    urls, links, _ = truth
    exp = hits_reference(urls, links, n_iters=3)
    exp_rows = dict(
        zip(
            exp.column("url").to_pylist(),
            zip(exp.column("auth_ppb").to_pylist(), exp.column("hub_ppb").to_pylist()),
        )
    )
    for mode in ("broadcast", "shuffle"):
        got = hits(_pages_ds(corpus), _nodes_ds(corpus), mode=mode, n_iters=3, n_buckets=7)
        assert {r["url"]: (r["auth_ppb"], r["hub_ppb"]) for r in got.take_all()} == exp_rows, mode
    assert any(a > 0 for a, _ in exp_rows.values())


def test_driver_never_materializes_url_column(ray_session, corpus):
    """The node-set handshake contract (VERDICT r3 #1): no entry point
    takes a url list, the broadcast regime leaves the driver holding an
    ObjectRef (the strings live in the object store), and the entry
    module's _graph_inputs builds Datasets, not pylists."""
    import ray

    from urlmap_ray.functions import graph as gr

    # 1) no list[str] node argument anywhere in the public surface
    for fn in (gr.build_edges, gr.degrees, gr.pagerank, gr.hits, gr.host_graph, gr.host_cocitation):
        params = inspect.signature(fn).parameters
        assert "node_urls" not in params, fn.__name__
    # 2) broadcast handshake: driver holds a ref to the one url bucket, not the array
    urls, counts, bounds = gr._url_buckets(gr._blocks(_nodes_ds(corpus)), 1)
    assert isinstance(urls[0], ray.ObjectRef) and isinstance(counts[0], ray.ObjectRef)
    assert bounds is None
    # 3) the registered queries' input builder has no driver-side pylist
    import __ray_entry__ as entry

    src = inspect.getsource(entry)
    start = src.index("def _graph_inputs")
    graph_inputs_src = src[start : src.index("def page_edges")]
    assert "to_pylist" not in graph_inputs_src
    assert "read_parquet" in graph_inputs_src


def test_pagerank_rejects_bad_mode(ray_session, corpus, truth):
    """PageRank, host co-citation and the edge calls refuse an unknown
    ``mode``, the one regime knob: no graph.py function takes
    ``membership=``."""
    from urlmap_ray.functions import graph as gr

    for call in (pagerank, gr.host_cocitation, *_edge_calls()):
        with pytest.raises(ValueError, match="mode"):
            call(_pages_ds(corpus), _nodes_ds(corpus), mode="banana")
    for name, fn in inspect.getmembers(gr, inspect.isfunction):
        assert "membership" not in inspect.signature(fn).parameters, name


def test_anchor_text_index_counts_and_tiebreak(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.graph import anchor_text_index

    pairs = pa.table(
        {
            "src": pa.array([f"https://h.test/{i}" for i in range(7)]),
            "dst": pa.array(["t"] * 5 + ["u"] * 2),
            "anchor": pa.array(["beta", "alpha", "beta", "alpha", "gamma", "x", "x"]),
        }
    )
    out = {
        r["dst"]: r
        for r in anchor_text_index(
            ray.data.from_arrow(pairs).repartition(4)
        ).take_all()
    }
    t = out["t"]
    assert t["n_refs"] == 5 and t["n_unique_anchors"] == 3
    # alpha and beta both appear twice → lexicographic tie-break
    assert t["top_anchor"] == "alpha" and t["top_anchor_count"] == 2
    u = out["u"]
    assert u["n_refs"] == 2 and u["n_unique_anchors"] == 1
    assert u["top_anchor"] == "x" and u["top_anchor_count"] == 2


def test_triangle_counts_known_graph(ray_session):
    # K4 on a,b,c,d (4 triangles, each node in 3, deg 3 → C=1) plus a
    # pendant e–a (deg(a)=4, C(a)=3/6) and an isolated node f
    from urlmap_ray.functions.graph import triangle_counts

    urls = [f"https://x.org/{c}" for c in "abcdef"]
    a, b, c, d, e, f = urls
    und = [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d), (e, a)]
    links = {u: [] for u in urls}
    for s, t in und:
        links[s].append(t)  # one direction is enough — undirect dedups
    links[b].append(a)  # and a reverse duplicate must not double-count
    pages, nodes = _link_pages(links)
    for mode in ("broadcast", "shuffle"):
        for buckets in (1, 7):
            out = {
                r["url"]: (r["n_tri"], r["deg"], r["clustering_ppb"])
                for r in triangle_counts(pages, nodes, mode=mode, n_buckets=buckets).take_all()
            }
            assert out[a] == (3, 4, (2 * 3 * 10**9) // (4 * 3)), (mode, buckets)
            for u in (b, c, d):
                assert out[u] == (3, 3, 10**9), (mode, buckets)
            assert out[e] == (0, 1, 0), (mode, buckets)
            assert out[f] == (0, 0, 0), (mode, buckets)


def test_edge_jaccard_known_graph(ray_session):
    # same K4 + pendant graph as the triangle test: per-edge common
    # neighbors are the triangles through the edge, jaccard over
    # |N(a)∪N(b)| = deg_a + deg_b − common
    from urlmap_ray.functions.graph import edge_jaccard

    urls = [f"https://x.org/{c}" for c in "abcdef"]
    a, b, c, d, e, f = urls
    und = [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d), (e, a)]
    links = {u: [] for u in urls}
    for s, t in und:
        links[s].append(t)
    links[b].append(a)  # reverse duplicate must not double-count
    pages, nodes = _link_pages(links)

    # brute-force reference over undirected neighbor sets
    nbr = {u: set() for u in urls}
    for s, t in und:
        nbr[s].add(t)
        nbr[t].add(s)
    want = {}
    for s, t in und:
        lo, hi = min(s, t), max(s, t)
        common = len(nbr[lo] & nbr[hi])
        da, db = len(nbr[lo]), len(nbr[hi])
        denom = da + db - common
        want[(lo, hi)] = (common, da, db, (common * 10**9) // denom if denom else 0)

    for mode in ("broadcast", "shuffle"):
        for buckets in (1, 7):
            rows = edge_jaccard(pages, nodes, mode=mode, n_buckets=buckets).take_all()
            got = {
                (r["a"], r["b"]): (r["common"], r["deg_a"], r["deg_b"], r["jaccard_ppb"])
                for r in rows
            }
            assert got == want, (mode, buckets)
    # spot-check hand values: K4 edge (a,b) shares {c,d}
    assert want[(a, b)] == (2, 4, 3, (2 * 10**9) // 5)
    assert want[(b, c)] == (2, 3, 3, (2 * 10**9) // 4)
    assert want[(a, e)] == (0, 4, 1, 0)
    # an empty node set: no rows, the same columns
    import ray.data

    empty = edge_jaccard(pages, ray.data.from_arrow(pa.table({"url": pa.array([], pa.string())})))
    assert empty.take_all() == []
    assert empty.columns() == ["a", "b", "common", "deg_a", "deg_b", "jaccard_ppb"]


def test_triangles_and_jaccard_match_neighbour_sets(ray_session, corpus, truth):
    """On the corpus graph (many degree ties across buckets) both calls
    equal a brute-force reference over undirected neighbour sets, in both
    modes and at any bucket count."""
    from urlmap_ray.functions.graph import edge_jaccard, triangle_counts

    urls, _, edges = truth
    nbr = {u: set() for u in urls}
    for s, t in edges:
        nbr[s].add(t)
        nbr[t].add(s)
    tri_want = {}
    for u, vs in nbr.items():
        d = len(vs)
        tri = sum(len(vs & nbr[v]) for v in vs) // 2
        tri_want[u] = (tri, d, (2 * tri * 10**9) // (d * (d - 1)) if d > 1 else 0)
    jac_want = {}
    for u, vs in nbr.items():
        for v in vs:
            if u < v:
                common = len(vs & nbr[v])
                da, db = len(vs), len(nbr[v])
                jac_want[(u, v)] = (common, da, db, (common * 10**9) // (da + db - common))
    assert any(t for t, _, _ in tri_want.values())
    for mode in ("broadcast", "shuffle"):
        for nb in (None, 7):
            kw = {"mode": mode, "n_buckets": nb}
            rows = triangle_counts(_pages_ds(corpus), _nodes_ds(corpus), **kw).take_all()
            got = {r["url"]: (r["n_tri"], r["deg"], r["clustering_ppb"]) for r in rows}
            assert len(rows) == len(urls) and got == tri_want, kw
            rows = edge_jaccard(_pages_ds(corpus), _nodes_ds(corpus), **kw).take_all()
            got = {
                (r["a"], r["b"]): (r["common"], r["deg_a"], r["deg_b"], r["jaccard_ppb"])
                for r in rows
            }
            assert len(rows) == len(jac_want) and got == jac_want, kw


def test_neighborhood_sizes_hyperanf(ray_session):
    # directed path a→b→c→d plus a cycle e→f→e: radius-2 out-reach is
    # a:{a,b,c} b:{b,c,d} c:{c,d} d:{d} e:{e,f} f:{e,f}; the distributed
    # rounds must land bit-identically on the dense sequential reference
    import numpy as np

    from urlmap_ray.functions.graph import neighborhood_sizes
    from urlmap_ray.functions.sketch import (
        _HLL_M,
        _HLL_P,
        hash64_column,
        hll_estimate_runs,
    )

    urls = [f"https://n.org/{c}" for c in "abcdef"]
    a, b, c, d, e, f = urls
    direct = [(a, b), (b, c), (c, d), (e, f), (f, e)]
    links = {u: [] for u in urls}
    for s, t in direct:
        links[s].append(t)
    pages, nodes = _link_pages(links)

    # dense sequential HyperANF reference (same primitives, same rounds)
    h = hash64_column(pa.array(urls, pa.string()))
    idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    w = h & np.uint64((1 << (64 - _HLL_P)) - 1)
    _, exp = np.frexp(w.astype(np.float64))
    rho = np.where(w > 0, (64 - _HLL_P) + 1 - exp, (64 - _HLL_P) + 1).astype(np.uint8)
    regs = {}
    for i, u in enumerate(urls):
        r = np.zeros(_HLL_M, np.uint8)
        r[idx[i]] = rho[i]
        regs[u] = r
    for _ in range(2):
        regs = {
            u: np.maximum.reduce([regs[u]] + [regs[v] for v in links[u]])
            for u in urls
        }
    want = {}
    for u in urls:
        nz = np.flatnonzero(regs[u])
        want[u] = int(
            hll_estimate_runs(regs[u][nz].astype(np.int64), np.array([0]))[0]
        )

    exact = {a: 3, b: 3, c: 2, d: 1, e: 2, f: 2}
    for mode in ("broadcast", "shuffle"):
        for buckets in (1, 7, None):
            got = {
                r["url"]: r["n_reach_est"]
                for r in neighborhood_sizes(
                    pages, nodes, radius=2, mode=mode, n_buckets=buckets
                ).take_all()
            }
            assert got == want, (mode, buckets)
            for u in urls:  # linear-counting regime: within ±1 of exact
                assert abs(got[u] - exact[u]) <= 1


# ---------------------------------------------------------------------------
# multi-source BFS distances / k-core


def _bfs_reference(edges, seeds, radius=None):
    from collections import defaultdict, deque

    adj = defaultdict(list)
    for s, d in edges:
        adj[s].append(d)
    dist = {u: 0 for u in seeds}
    q = deque(seeds)
    while q:
        u = q.popleft()
        if radius is not None and dist[u] >= radius:
            continue
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def _kcore_reference(edges, k):
    from collections import defaultdict

    nbr = defaultdict(set)
    for s, d in edges:
        if s != d:
            nbr[s].add(d)
            nbr[d].add(s)
    nbr = dict(nbr)
    while True:
        drop = [u for u, vs in nbr.items() if len(vs) < k]
        if not drop:
            return set(nbr)
        for u in drop:
            for v in nbr[u]:
                nbr[v].discard(u)
            del nbr[u]


def test_bfs_distances_matches_reference_both_modes(ray_session, corpus, truth):
    from urlmap_ray.functions.graph import bfs_distances

    urls, _, edges = truth
    seed = sorted(urls)[0]
    exp = _bfs_reference(edges, [seed], radius=3)
    for mode in ("broadcast", "shuffle"):
        for nb in (None, 1, 2, 7):
            got = {
                r["url"]: r["dist"]
                for r in bfs_distances(
                    _pages_ds(corpus), _nodes_ds(corpus), [seed], radius=3, mode=mode, n_buckets=nb
                ).take_all()
            }
            assert got == exp, f"mode={mode} n_buckets={nb}"


def test_bfs_distances_fixpoint_multisource(ray_session, corpus, truth):
    from urlmap_ray.functions.graph import bfs_distances

    urls, _, edges = truth
    # a seed outside the node set is settled at dist 0 as given
    seeds = sorted(urls)[:2] + ["https://outside.example/"]
    exp = _bfs_reference(edges, seeds, radius=None)
    for mode in ("broadcast", "shuffle"):
        got = {
            r["url"]: r["dist"]
            for r in bfs_distances(
                _pages_ds(corpus), _nodes_ds(corpus), seeds, radius=None, mode=mode
            ).take_all()
        }
        assert got == exp, mode


def test_kcore_matches_peel_both_modes(ray_session, corpus, truth):
    from urlmap_ray.functions.graph import kcore

    import ray.data

    urls, _, edges = truth
    # one isolated node (every corpus page links or is linked): it stays out
    # of the core even at k=0
    lone = ray.data.from_arrow(pa.table({"url": ["https://isolated.example/"]}))
    for k in (0, 2, 3):
        core = _kcore_reference(edges, k)
        for mode in ("broadcast", "shuffle"):
            for nb in (None, 1, 2, 7):
                rows = kcore(
                    _pages_ds(corpus), _nodes_ds(corpus).union(lone), k=k, mode=mode, n_buckets=nb
                ).take_all()
                assert len(rows) == len(urls) + 1, f"k={k} mode={mode} n_buckets={nb}"
                got = {r["url"] for r in rows if r["in_core"]}
                assert got == core, f"k={k} mode={mode} n_buckets={nb}"
    assert len(_kcore_reference(edges, 0)) == len(urls)


def test_mode_per_dst_kernel():
    """Max count wins; ties break to the smallest label; unsorted and
    duplicated input rows are handled."""
    import numpy as np

    from urlmap_ray.functions.labelprop import _mode_per_dst

    dst = np.array([2, 0, 0, 0, 2, 1, 2, 2], dtype=np.int64)
    lab = np.array([9, 5, 4, 5, 9, 7, 3, 3], dtype=np.int64)
    d, m = _mode_per_dst(dst, lab)
    assert d.tolist() == [0, 1, 2]
    # dst 0: 5×2 beats 4×1 → 5; dst 1: only 7; dst 2: 9×2 ties 3×2 → 3
    assert m.tolist() == [5, 7, 3]
    d, m = _mode_per_dst(np.empty(0, np.int64), np.empty(0, np.int64))
    assert len(d) == 0 and len(m) == 0


def test_lpa_modes_identical_and_match_reference(ray_session, corpus, truth):
    """Broadcast ≡ shuffle ≡ the single-process reference at any task
    bucket count — integer counts + pinned min-label ties make LPA
    partition-independent."""
    from urlmap_ray.functions.labelprop import (
        label_propagation,
        label_propagation_reference,
    )

    urls, links, _ = truth
    ref = label_propagation_reference(urls, links, n_iters=3)
    exp = dict(zip(ref.column("url").to_pylist(), ref.column("community").to_pylist()))
    for mode in ("broadcast", "shuffle"):
        for nb in (None, 1, 2, 7):
            got = label_propagation(
                _pages_ds(corpus), _nodes_ds(corpus), mode=mode, n_iters=3, n_buckets=nb
            )
            assert {r["url"]: r["community"] for r in got.take_all()} == exp, (mode, nb)
    # sanity: propagation actually groups pages (fewer labels than nodes)
    assert len(set(exp.values())) < len(exp)


def test_host_graph_matches_pure_both_regimes(ray_session, corpus, truth):
    """host_graph == the pure per-edge host collapse (intra-host dropped,
    weight = page-edge multiplicity), in both regimes."""
    import re
    from collections import Counter

    from urlmap_ray.functions.graph import host_graph

    _, _, edges = truth
    host_re = re.compile(r"^[a-z][a-z0-9+.-]*://([^/?#]+)")

    def host(u):
        m = host_re.match(u)
        return m.group(1) if m else None

    want = Counter()
    for s, d in edges:
        hs, hd = host(s), host(d)
        if hs and hd and hs != hd:
            want[(hs, hd)] += 1

    for regime in ("broadcast", "shuffle"):
        got = {
            (r["src_host"], r["dst_host"]): r["weight"]
            for r in host_graph(_pages_ds(corpus), _nodes_ds(corpus), mode=regime).take_all()
        }
        assert got == dict(want), regime


def test_host_degrees_matches_pure(ray_session, corpus, truth):
    """host_degrees sums the host-graph rows per endpoint: distinct
    neighbor hosts + weight mass, zero-free (only hosts with edges)."""
    import re
    from collections import Counter

    from urlmap_ray.functions.graph import host_degrees, host_graph

    _, _, edges = truth
    host_re = re.compile(r"^[a-z][a-z0-9+.-]*://([^/?#]+)")
    pair_w = Counter()
    for s, d in edges:
        hs = host_re.match(s).group(1)
        hd = host_re.match(d).group(1)
        if hs != hd:
            pair_w[(hs, hd)] += 1
    want = {}
    for (hs, hd), w in pair_w.items():
        o = want.setdefault(hs, [0, 0, 0, 0])
        o[0] += 1
        o[2] += w
        i = want.setdefault(hd, [0, 0, 0, 0])
        i[1] += 1
        i[3] += w

    rows = host_degrees(host_graph(_pages_ds(corpus), _nodes_ds(corpus))).take_all()
    got = {
        r["host"]: [r["out_hosts"], r["in_hosts"], r["out_weight"], r["in_weight"]]
        for r in rows
    }
    assert got == want


def test_weighted_pagerank_modes_identical_and_match_reference(
    ray_session, corpus, truth
):
    """weighted_pagerank over the host graph: broadcast and shuffle are
    bit-identical to each other and to weighted_pagerank_reference."""
    import re
    from collections import Counter

    from urlmap_ray.functions.graph import (
        host_graph,
        weighted_pagerank,
        weighted_pagerank_reference,
    )

    _, _, edges = truth
    host_re = re.compile(r"^[a-z][a-z0-9+.-]*://([^/?#]+)")
    pair_w = Counter()
    for s, d in edges:
        hs = host_re.match(s).group(1)
        hd = host_re.match(d).group(1)
        if hs != hd:
            pair_w[(hs, hd)] += 1
    want = weighted_pagerank_reference(
        [(s, d, w) for (s, d), w in pair_w.items()], n_iters=4
    )

    hg = host_graph(_pages_ds(corpus), _nodes_ds(corpus))
    results = {}
    for mode in ("broadcast", "shuffle"):
        rows = weighted_pagerank(hg, n_iters=4, mode=mode).take_all()
        results[mode] = {r["url"]: r["rank_ppb"] for r in rows}
        assert results[mode] == want, mode
    assert results["broadcast"] == results["shuffle"]
    # centrality is a probability vector: ppb mass sums to ~1e9
    assert abs(sum(want.values()) - 1_000_000_000) < len(want) + 1000


def test_spam_mass_integer_rule():
    """The mass rule: max(pr−tr,0)·10⁹//pr, 0 when pr=0 — clamp and floor
    pinned."""
    import numpy as np

    from urlmap_ray.functions.graph import _mass_ppb

    got = _mass_ppb(np.array([1000, 300, 0, 7], np.int64), np.array([250, 900, 5, 3], np.int64))
    assert got.tolist() == [
        (750 * 10**9) // 1000,
        0,  # tr > pr clamps to 0
        0,  # pr == 0 guard
        (4 * 10**9) // 7,  # floor division
    ]


def test_weighted_pagerank_seeded_modes_identical(ray_session, corpus, truth):
    """Seed-personalized weighted pagerank (host TrustRank): both modes
    bit-identical to the seeded reference; rejects missing seeds."""
    import re
    from collections import Counter

    from urlmap_ray.functions.graph import (
        host_graph,
        weighted_pagerank,
        weighted_pagerank_reference,
    )

    _, _, edges = truth
    host_re = re.compile(r"^[a-z][a-z0-9+.-]*://([^/?#]+)")
    pair_w = Counter()
    for s, d in edges:
        hs = host_re.match(s).group(1)
        hd = host_re.match(d).group(1)
        if hs != hd:
            pair_w[(hs, hd)] += 1
    triples = [(s, d, w) for (s, d), w in pair_w.items()]
    hosts = sorted({h for t in triples for h in t[:2]})
    seeds = hosts[:2]
    want = weighted_pagerank_reference(triples, n_iters=3, seed_urls=seeds)

    hg = host_graph(_pages_ds(corpus), _nodes_ds(corpus))
    for mode in ("broadcast", "shuffle"):
        rows = weighted_pagerank(hg, n_iters=3, mode=mode, seed_urls=seeds).take_all()
        assert {r["url"]: r["rank_ppb"] for r in rows} == want, mode

    with pytest.raises(Exception, match="seed_urls"):
        weighted_pagerank(hg, n_iters=1, seed_urls=["no-such-host"]).take_all()


def _mass_rule(pr, tr):
    """{url: spam mass} of two {url: rank_ppb} maps by the integer rule."""
    import numpy as np

    from urlmap_ray.functions.graph import _mass_ppb

    keys = sorted(pr)
    mass = _mass_ppb(np.array([pr[u] for u in keys], np.int64), np.array([tr[u] for u in keys], np.int64))
    return dict(zip(keys, mass.tolist()))


def _spam_reference(urls, links, n_iters, seeds):
    """Page spam mass from pagerank_reference ×2 and the integer rule."""
    return _mass_rule(
        pagerank_reference(urls, links, n_iters=n_iters),
        pagerank_reference(urls, links, n_iters=n_iters, seed_urls=seeds),
    )


def test_weighted_spam_mass_matches_composition(ray_session, corpus, truth):
    """weighted_spam_mass (shared-prep fast path) is bit-identical in
    both regimes to composing weighted_pagerank ×2 + the mass rule."""
    import re

    from urlmap_ray.functions.graph import (
        host_graph,
        weighted_pagerank,
        weighted_spam_mass,
    )

    _, _, edges = truth
    host_re = re.compile(r"^[a-z][a-z0-9+.-]*://([^/?#]+)")
    hosts = sorted(
        {
            host_re.match(u).group(1)
            for e in edges
            for u in e
        }
    )
    seeds = hosts[:2]
    hg = host_graph(_pages_ds(corpus), _nodes_ds(corpus)).materialize()
    pr = {r["url"]: r["rank_ppb"] for r in weighted_pagerank(hg, n_iters=3).take_all()}
    tr = {r["url"]: r["rank_ppb"] for r in weighted_pagerank(hg, n_iters=3, seed_urls=seeds).take_all()}
    want = _mass_rule(pr, tr)
    assert any(v > 0 for v in want.values())  # non-vacuous: spam exists
    for mode in ("broadcast", "shuffle"):
        rows = weighted_spam_mass(hg, seed_urls=seeds, n_iters=3, mode=mode).take_all()
        assert {r["url"]: r["spam_mass_ppb"] for r in rows} == want, mode


def test_spam_mass_matches_pagerank_pair(ray_session, corpus, truth):
    """Page spam mass equals pagerank ×2 (uniform and seeded) + the mass
    rule, and the references, in both modes at any bucket count; a seed
    outside the node set and an empty seed list raise; an empty node set
    gives no rows."""
    import ray.data

    from urlmap_ray.functions.graph import spam_mass

    urls, links, _ = truth
    seeds = sorted(urls)[:3]
    want = _spam_reference(urls, links, 3, seeds)
    assert any(v > 0 for v in want.values()) and any(v == 0 for v in want.values())
    ranks = [
        {r["url"]: r["rank_ppb"] for r in pagerank(_pages_ds(corpus), _nodes_ds(corpus), n_iters=3, **kw).take_all()}
        for kw in ({}, {"seed_urls": seeds})
    ]
    assert _mass_rule(*ranks) == want
    for mode in ("broadcast", "shuffle"):
        for nb in (None, 7):
            rows = spam_mass(
                _pages_ds(corpus), _nodes_ds(corpus), seed_urls=seeds, n_iters=3, mode=mode, n_buckets=nb
            ).take_all()
            assert {r["url"]: r["spam_mass_ppb"] for r in rows} == want, (mode, nb)
    with pytest.raises(ValueError, match="seed_urls"):
        spam_mass(_pages_ds(corpus), _nodes_ds(corpus), seed_urls=["https://nope.example/x"])
    with pytest.raises(ValueError, match="seed_urls"):
        spam_mass(_pages_ds(corpus), _nodes_ds(corpus), seed_urls=[])
    empty = ray.data.from_arrow(pa.table({"url": pa.array([], pa.string())}))
    out = spam_mass(_pages_ds(corpus), empty, seed_urls=seeds)
    assert out.take_all() == [] and out.columns() == ["url", "spam_mass_ppb"]


def _walk_replay(links, length):
    """Sorted (start, path) of the md5-rule walk from every page of
    ``links``, replayed sequentially over the distinct non-self links."""
    import hashlib

    rows = []
    for w in sorted(links):
        cur = path = w
        for t in range(length):
            nb = sorted(set(links[cur]) - {cur})
            if not nb:
                break  # dead end terminates (pinned)
            h = int(hashlib.md5(f"{w}|{t}|{cur}".encode()).hexdigest()[:15], 16)
            cur = nb[h % len(nb)]
            path += " " + cur
        rows.append((w, path))
    return rows


def _random_links(seed, n, draws):
    """{url: linked urls} of ``draws`` random links over ``n`` pages."""
    import numpy as np

    rng = np.random.default_rng(seed)
    urls = [f"https://w.org/n{i:03d}" for i in range(n)]
    links = {u: [] for u in urls}
    for _ in range(draws):
        links[urls[rng.integers(n)]].append(urls[rng.integers(n)])
    return links


def test_random_walks_match_sequential_replay(ray_session):
    """Bit-identical to the sequential replay in both modes, at any bucket
    count and block layout: the md5 step rule depends only on (walk,
    step, node)."""
    from urlmap_ray.functions.graph import random_walks

    links = _random_links(5, 40, 120)
    want = _walk_replay(links, 3)
    assert any(p.count(" ") == 3 for _, p in want) and any(" " not in p for _, p in want)
    for parts in (1, 4):
        for mode in ("broadcast", "shuffle"):
            for k in (None, 7):
                out = random_walks(*_link_pages(links, parts), length=3, mode=mode, n_buckets=k).take_all()
                assert sorted((r["start"], r["path"]) for r in out) == want, (parts, mode, k)


def test_random_walks_dead_end_and_self_loop(ray_session):
    """A dead end ends the walk; a page's link to itself is no edge, so it
    is a dead end too; a 2-cycle alternates."""
    from urlmap_ray.functions.graph import random_walks

    a, b, c, d, e = (f"https://w.org/{x}" for x in "abcde")
    links = {a: [b], b: [], c: [c], d: [e], e: [d]}
    want = {a: f"{a} {b}", b: b, c: c, d: f"{d} {e} {d} {e}", e: f"{e} {d} {e} {d}"}
    for mode in ("broadcast", "shuffle"):
        for k in (None, 7):
            out = random_walks(*_link_pages(links), length=3, mode=mode, n_buckets=k).take_all()
            assert {r["start"]: r["path"] for r in out} == want, (mode, k)


def test_random_walks_modes_identical(ray_session):
    """Longer walks agree across modes and bucket counts (and with the
    replay); an empty node set gives no walks."""
    import ray.data

    from urlmap_ray.functions.graph import random_walks

    links = _random_links(13, 25, 70)
    want = _walk_replay(links, 4)
    for mode in ("broadcast", "shuffle"):
        for k in (None, 7):
            rows = random_walks(*_link_pages(links, 4), length=4, mode=mode, n_buckets=k).take_all()
            assert sorted((r["start"], r["path"]) for r in rows) == want, (mode, k)
    empty = ray.data.from_arrow(pa.table({"url": pa.array([], pa.string())}))
    assert random_walks(_link_pages(links)[0], empty).take_all() == []


def _cocite_reference(edges, min_count, max_out):
    """{(host_a, host_b): n_src} from the distinct (src, dst) links: each
    page's first ``max_out`` distinct dst hosts, every pair of them
    counted once per page, pairs below ``min_count`` dropped."""
    import re
    from collections import Counter
    from itertools import combinations

    host_re = re.compile(r"^[a-z][a-z0-9+.-]*://([^/?#]+)")
    out = {}
    for s, d in edges:
        m = host_re.match(d)
        if m:
            out.setdefault(s, set()).add(m.group(1))
    pairs = Counter(p for hs in out.values() for p in combinations(sorted(hs)[:max_out], 2))
    return {p: c for p, c in pairs.items() if c >= min_count}


def test_host_cocitation_counts_and_cap(ray_session):
    from urlmap_ray.functions.graph import host_cocitation

    links = {
        "https://s1.x/a": ["https://h1.x/", "https://h2.x/", "https://h3.x/"],
        "https://s2.x/b": ["https://h1.x/p", "https://h2.x/q"],
        "https://s3.x/c": ["https://h1.x/", "https://h2.x/other"],
    }
    for dst in ("https://h1.x/", "https://h2.x/", "https://h3.x/", "https://h1.x/p", "https://h2.x/q",
                "https://h2.x/other"):
        links[dst] = []
    for parts in (1, 3):
        for mode in ("broadcast", "shuffle"):
            out = host_cocitation(*_link_pages(links, parts), min_count=2, mode=mode).take_all()
            got = sorted((r["host_a"], r["host_b"], r["n_src"]) for r in out)
            # (h1,h2) co-cited by s1, s2 AND s3; h3 pairs only appear once
            assert got == [("h1.x", "h2.x", 3)], (parts, mode)
            # max_out=1 keeps only the lexicographically-first host per
            # page: no page contributes any pair
            assert host_cocitation(*_link_pages(links), min_count=1, max_out=1, mode=mode).take_all() == []


def test_host_cocitation_matches_reference(ray_session, corpus, truth):
    """On the corpus graph both modes equal the pure per-page host-pair
    count, uncapped and with a cap that bites; an empty node set gives no
    pairs. Both modes reduce over many L1 buckets, and the shuffle mode
    maps over one dst bucket per L1 bucket."""
    import ray.data

    from urlmap_ray.functions.graph import host_cocitation

    edges = truth[2]
    for max_out in (256, 2):
        want = _cocite_reference(edges, 2, max_out)
        assert want
        for mode in ("broadcast", "shuffle"):
            out = host_cocitation(_pages_ds(corpus), _nodes_ds(corpus), max_out=max_out, mode=mode).take_all()
            assert {(r["host_a"], r["host_b"]): r["n_src"] for r in out} == want, (max_out, mode)
    assert _cocite_reference(edges, 2, 2) != _cocite_reference(edges, 2, 256)
    empty = ray.data.from_arrow(pa.table({"url": pa.array([], pa.string())}))
    out = host_cocitation(_pages_ds(corpus), empty)
    assert out.take_all() == [] and out.columns() == ["host_a", "host_b", "n_src"]
