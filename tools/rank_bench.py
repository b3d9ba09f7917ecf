"""Microbench for the rank and traversal kernels (functions/graph.py).

    python tools/rank_bench.py [--pages 1000] [--seed 1] [--reps 3]

Makes a ``--pages`` corpus (``generate_corpus(..., seed=--seed)``; the
defaults are the perfbench ``link_rank`` corpus) in a temporary directory,
starts a 2-CPU local Ray session and prints, one ``name value unit`` line
each, first ``build_edges_total_s`` and ``build_edges_shuffle_total_s``:
``graph.build_edges`` in broadcast and in shuffle mode, materialized (the
broadcast call is what the perfbench ``link_rank`` workload times as
``resume_s``). Then, for ``pagerank`` and ``hits`` in broadcast mode at
its default bucketing (one task bucket per session CPU):

- ``<alg>_pin_s``: the pin round over the id-mapped edge blocks
  (``_pin_buckets``; HITS pins both bucket layouts), until every pinned
  slice exists;
- ``<alg>_round_s``: one map/reduce task round (HITS: one authority and
  one hub round, with the driver's fold of the L1 partials);
- ``<alg>_total_s``: the public call (``graph.pagerank`` / ``graph.hits``
  with ``mode="broadcast"``, edge build included), materialized;
- ``<alg>_build_s``: the graph build (``_page_graph``: node ids, then
  the id-mapped edges), until every edge block exists;
- ``<alg>_attach_s``: the url attach of finished per-bucket result
  blocks (``_RankGraph.attach``), materialized;

and the same five for the shuffle regime (``<alg>_shuffle_*``;
``mode="shuffle", n_iters=3, n_buckets=2``, as the perfbench
``link_rank`` workload runs it). The regimes share the kernel, so they
differ in the build and the attach.

Then, in broadcast mode at its default bucketing, the same three for the
traversals ``bfs_distances`` (from the first url, to fixpoint), ``kcore``
(k=3), ``label_propagation`` and ``scc``: ``<alg>_pin_s`` is the pin round
of the layout the algorithm reads (``_RankGraph.pin``), ``<alg>_round_s``
one map/reduce task round from the initial state (BFS: distance 1; SCC:
one forward colour round), ``<alg>_total_s`` the public call,
materialized.

Then, the same way, the two for the counting calls ``degrees``,
``triangle_counts`` and ``edge_jaccard`` and for HyperANF
``neighborhood_sizes`` (radius 3): ``<alg>_pin_s`` the pin round of the
layouts they read (``fwd`` and ``bwd``; ``und``; ``bwd``),
``<alg>_total_s`` the public call, materialized. Last, three public
calls in broadcast mode, materialized: ``random_walks_total_s``
(``random_walks``, length 3, one walk from each page),
``spam_mass_total_s`` (``spam_mass``, 3 iterations, the first three urls
as seeds) and ``host_cocitation_total_s`` (``host_cocitation``,
``min_count=2``).

Each call is checked against its reference (the distinct in-corpus link
set, ``pagerank_reference``, ``hits_reference``,
``label_propagation_reference``, ``scc_reference``, and here a sequential
BFS, peel, degree count, neighbour-set triangle and Jaccard count, dense
HyperANF, md5 walk replay, ``pagerank_reference`` ×2 plus the spam-mass
rule, and per-page distinct host pairs of the extracted links). Timings
are medians over ``--reps`` repetitions; the session is shut down at the
end.
"""

from __future__ import annotations

import argparse
import logging
import os
import statistics
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _bfs_reference(edges, seed) -> dict:
    adj: dict = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    dist, frontier = {seed: 0}, [seed]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _kcore_reference(edges, k) -> set:
    nbr: dict = {}
    for s, d in edges:
        nbr.setdefault(s, set()).add(d)
        nbr.setdefault(d, set()).add(s)
    while True:
        drop = [u for u, vs in nbr.items() if len(vs) < k]
        if not drop:
            return set(nbr)
        for u in drop:
            for v in nbr.pop(u):
                nbr[v].discard(u)


def _count_references(urls, edges):
    """Sequential (out_deg, in_deg) per url, (n_tri, deg, clustering_ppb)
    per url and (common, deg_a, deg_b, jaccard_ppb) per undirected edge
    (a, b), a < b, over the distinct edge set."""
    nbr = {u: set() for u in urls}
    for s, d in edges:
        nbr[s].add(d)
        nbr[d].add(s)
    out_c, in_c = Counter(s for s, _ in edges), Counter(d for _, d in edges)
    deg = {u: (out_c[u], in_c[u]) for u in urls}
    tri, jac = {}, {}
    for u, vs in nbr.items():
        d = len(vs)
        t = sum(len(vs & nbr[v]) for v in vs) // 2
        tri[u] = (t, d, 2 * t * 10**9 // (d * (d - 1)) if d > 1 else 0)
        for v in vs:
            if u < v:
                c, dv = len(vs & nbr[v]), len(nbr[v])
                jac[(u, v)] = (c, d, dv, c * 10**9 // (d + dv - c))
    return deg, tri, jac


def _hyperanf_reference(urls, edges, radius) -> dict:
    """Dense sequential HyperANF: a 4096-register array per url seeded with
    its own hash, ``radius`` synchronous max-folds over the out-neighbours,
    then the run estimator over the nonzero registers."""
    import numpy as np
    import pyarrow as pa

    from urlmap_ray.functions.sketch import _HLL_M, _HLL_P, hash64_column, hll_estimate_runs

    h = hash64_column(pa.array(urls, pa.string()))
    idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    w = h & np.uint64((1 << (64 - _HLL_P)) - 1)
    _, exp = np.frexp(w.astype(np.float64))
    rho = np.where(w > 0, (64 - _HLL_P) + 1 - exp, (64 - _HLL_P) + 1).astype(np.uint8)
    regs = {}
    for i, u in enumerate(urls):
        regs[u] = np.zeros(_HLL_M, np.uint8)
        regs[u][idx[i]] = rho[i]
    out = {u: [] for u in urls}
    for s, d in edges:
        out[s].append(d)
    for _ in range(radius):
        regs = {u: np.maximum.reduce([regs[u]] + [regs[v] for v in out[u]]) for u in urls}
    return {
        u: int(hll_estimate_runs(r[np.flatnonzero(r)].astype(np.int64), np.array([0]))[0])
        for u, r in regs.items()
    }


def _spam_reference(urls, links, seeds) -> dict:
    """{url: spam_mass_ppb} of the 3-iteration uniform and seeded
    ``pagerank_reference`` ranks by the integer rule."""
    from urlmap_ray.functions import graph as gr

    pr = gr.pagerank_reference(urls, links, n_iters=3)
    tr = gr.pagerank_reference(urls, links, n_iters=3, seed_urls=seeds)
    return {u: (max(pr[u] - tr[u], 0) * 10**9) // pr[u] if pr[u] > 0 else 0 for u in urls}


def _cocitation_reference(edges, min_count=2) -> dict:
    """{(host_a, host_b): n_src}: per page its distinct linked hosts, every
    pair of them counted once, pairs below ``min_count`` dropped."""
    import re
    from itertools import combinations

    host_re = re.compile(r"^[a-z][a-z0-9+.-]*://([^/?#]+)")
    hosts: dict = {}
    for s, d in edges:
        m = host_re.match(d)
        if m:
            hosts.setdefault(s, set()).add(m.group(1))
    pairs = Counter(p for hs in hosts.values() for p in combinations(sorted(hs), 2))
    return {p: c for p, c in pairs.items() if c >= min_count}


def _walk_reference(starts, edges, length) -> list:
    """Sorted (start, path) of the md5-rule walks, replayed sequentially."""
    import hashlib

    out: dict = {}
    for s, d in sorted(edges):
        out.setdefault(s, []).append(d)
    rows = []
    for w in starts:
        cur = path = w
        for t in range(length):
            nb = out.get(cur)
            if not nb:
                break
            cur = nb[int(hashlib.md5(f"{w}|{t}|{cur}".encode()).hexdigest()[:15], 16) % len(nb)]
            path += " " + cur
        rows.append((w, path))
    return sorted(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pages", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args(argv)

    import numpy as np
    import pyarrow.dataset as pads
    import ray
    import ray.data

    from urlmap_ray.corpus import generate_corpus
    from urlmap_ray.extract import extract_links
    from urlmap_ray.functions import graph as gr
    from urlmap_ray.functions import labelprop as lp
    from urlmap_ray.functions import scc as sc

    tmp = tempfile.TemporaryDirectory()
    info = generate_corpus(os.path.join(tmp.name, "corpus"), args.pages, seed=args.seed)
    tbl = pads.dataset(info.pages_path, format="parquet").to_table(columns=["url", "html"])
    urls = tbl.column("url").to_pylist()
    links = {
        u: extract_links(u, h) if h is not None else []
        for u, h in zip(urls, tbl.column("html").to_pylist())
    }
    def hits_rows(t):
        return list(zip(*(t.column(c).to_pylist() for c in ("url", "auth_ppb", "hub_ppb"))))

    exp_pr = gr.pagerank_reference(urls, links)
    exp_hits = hits_rows(gr.hits_reference(urls, links))
    shuffle = {"mode": "shuffle", "n_iters": 3, "n_buckets": 2}
    exp_pr3 = gr.pagerank_reference(urls, links, n_iters=3)
    exp_hits3 = hits_rows(gr.hits_reference(urls, links, n_iters=3))
    node_set = set(urls)
    edges = {(u, v) for u, vs in links.items() for v in vs if v in node_set and v != u}
    lpa = lp.label_propagation_reference(urls, links)
    first = min(urls)
    # name: (pin layout, map, reduce, initial state slice, map args, reduce
    # args, public call, result rows → comparable value, expected value)
    traversals = {
        "bfs_distances": (
            "fwd", gr._frontier_map, gr._settle,
            lambda lo, hi: gr._seed_dist(lo, hi, np.zeros(1, np.int64)), (1,), (1,),
            lambda p, n: gr.bfs_distances(p, n, [first], mode="broadcast"),
            lambda rows: {r["url"]: r["dist"] for r in rows}, _bfs_reference(edges, first),
        ),
        "kcore": (
            "und", gr._alive_map, gr._peel, lambda lo, hi: gr._init_slice(lo, hi, True), (), (3,),
            lambda p, n: gr.kcore(p, n, k=3, mode="broadcast"),
            lambda rows: {r["url"] for r in rows if r["in_core"]}, _kcore_reference(edges, 3),
        ),
        "label_propagation": (
            "und", lp._label_map, lp._relabel, gr._init_slice, (), (),
            lambda p, n: lp.label_propagation(p, n, mode="broadcast"),
            lambda rows: {r["url"]: r["community"] for r in rows},
            dict(zip(lpa.column("url").to_pylist(), lpa.column("community").to_pylist())),
        ),
        "scc": (
            "fwd", sc._color_map, sc._color_fold,
            lambda lo, hi: sc._scc_phase(lo, hi, None)[0], (False,), (False,),
            lambda p, n: sc.scc(p, n, mode="broadcast"),
            lambda rows: {r["url"]: r["scc_rep"] for r in rows}, sc.scc_reference(urls, links),
        ),
    }

    deg_ref, tri_ref, jac_ref = _count_references(urls, edges)
    # name: (pin layouts, public call, result rows → comparable value,
    # expected value)
    counts = {
        "degrees": (
            ("fwd", "bwd"), lambda p, n: gr.degrees(p, n, mode="broadcast"),
            lambda rows: {r["url"]: (r["out_deg"], r["in_deg"]) for r in rows}, deg_ref,
        ),
        "triangle_counts": (
            ("und",), lambda p, n: gr.triangle_counts(p, n, mode="broadcast"),
            lambda rows: {r["url"]: (r["n_tri"], r["deg"], r["clustering_ppb"]) for r in rows},
            tri_ref,
        ),
        "edge_jaccard": (
            ("und",), lambda p, n: gr.edge_jaccard(p, n, mode="broadcast"),
            lambda rows: {
                (r["a"], r["b"]): (r["common"], r["deg_a"], r["deg_b"], r["jaccard_ppb"])
                for r in rows
            },
            jac_ref,
        ),
        "neighborhood_sizes": (
            ("bwd",), lambda p, n: gr.neighborhood_sizes(p, n, radius=3, mode="broadcast"),
            lambda rows: {r["url"]: r["n_reach_est"] for r in rows},
            _hyperanf_reference(urls, sorted(edges), 3),
        ),
    }
    seeds = sorted(urls)[:3]
    # name: (public call, result rows → comparable value, expected value)
    tail = {
        "random_walks": (
            lambda p, n: gr.random_walks(p, n, length=3, mode="broadcast"),
            lambda rows: sorted((r["start"], r["path"]) for r in rows), _walk_reference(urls, edges, 3),
        ),
        "spam_mass": (
            lambda p, n: gr.spam_mass(p, n, seed_urls=seeds, n_iters=3, mode="broadcast"),
            lambda rows: {r["url"]: r["spam_mass_ppb"] for r in rows}, _spam_reference(urls, links, seeds),
        ),
        "host_cocitation": (
            lambda p, n: gr.host_cocitation(p, n, min_count=2, mode="broadcast"),
            lambda rows: {(r["host_a"], r["host_b"]): r["n_src"] for r in rows}, _cocitation_reference(edges),
        ),
    }

    def inputs():
        pages = ray.data.read_parquet(info.pages_path, columns=["url", "html"])
        return pages, ray.data.read_parquet(info.pages_path, columns=["url"])

    # workers import the graph module from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in [ROOT, os.environ.get("PYTHONPATH")] if p
    )
    os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    times = {f"build_edges{r}_total": [] for r in ("", "_shuffle")}
    times.update({
        f"{a}{r}_{m}": []
        for r in ("", "_shuffle")
        for a in ("pagerank", "hits")
        for m in ("pin", "round", "total", "build", "attach")
    })
    times.update({f"{a}_{m}": [] for a in traversals for m in ("pin", "round", "total")})
    times.update({f"{a}_{m}": [] for a in counts for m in ("pin", "total")})
    times.update({f"{a}_total": [] for a in tail})

    def done(refs):  # wait for task outputs without fetching them
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
        return refs

    def built(g):  # wait for the edge blocks (older graph modules hold a materialized Dataset)
        done(g.edges if isinstance(g.edges, list) else g.edges.to_arrow_refs())
        return g

    def check_pr(ds, exp):
        assert {r["url"]: r["rank_ppb"] for r in ds.take_all()} == exp

    def check_hits(ds, exp):
        assert sorted((r["url"], r["auth_ppb"], r["hub_ppb"]) for r in ds.take_all()) == exp

    regimes = (
        ("", {"mode": "broadcast"}, exp_pr, exp_hits),
        ("_shuffle", shuffle, exp_pr3, exp_hits3),
    )
    try:
        for tag, mode in (("", "broadcast"), ("_shuffle", "shuffle")):
            for _ in range(args.reps):
                s, ds = _timed(lambda: gr.build_edges(*inputs(), mode=mode).materialize())
                times[f"build_edges{tag}_total"].append(s)
                assert {(r["src"], r["dst"]) for r in ds.take_all()} == edges, mode
        n = len(urls)
        l1 = gr._graph_buckets(n)
        for tag, kw, want_pr, want_hits in regimes:
            mode, per_bucket = gr._rank_regime(n, kw["mode"], kw.get("n_buckets"))
            nb = -(-n // per_bucket)
            print(f"# {mode}: {nb} task buckets of {per_bucket} nodes", file=sys.stderr)
            edges = gr._page_graph(*inputs(), n, mode, kw.get("n_buckets")).edges
            rank_step = ray.remote(num_cpus=1)(gr._rank_map).options(num_returns=nb)
            rank_fold = ray.remote(num_cpus=1)(gr._rank_reduce)
            auth_step = ray.remote(num_cpus=1)(gr._auth_map).options(num_returns=nb)
            hub_step = ray.remote(num_cpus=1)(gr._hub_map).options(num_returns=nb)
            score_fold = ray.remote(num_cpus=1)(gr._score_reduce).options(num_returns=2)
            bounds = [(b * per_bucket, min((b + 1) * per_bucket, n), l1) for b in range(nb)]

            def pin(hits=False):
                src_pins, dst_pins, inits = gr._pin_buckets(edges, n, per_bucket, hits=hits)
                done(src_pins + dst_pins + inits[0][1])
                return src_pins, dst_pins, inits[0]

            def build():
                return built(gr._page_graph(*inputs(), n, mode, kw.get("n_buckets")))

            def attach_s(g, alg):
                """Seconds to attach urls to a one-iteration run's ppb blocks."""
                if alg == "pagerank":
                    cols, divs = ("rank_ppb",), (1.0,)
                    (vecs,) = gr._shuffle_rank_slices(
                        g.edges, n, n_iters=1, damping=gr._DAMPING, teleports=[None],
                        per_bucket=per_bucket, weighted=False,
                    )
                    vecs = [(v,) for v in vecs]
                else:
                    cols = ("auth_ppb", "hub_ppb")
                    auth, div_a, hub, div_h = gr._hits_shuffle_slices(
                        g.edges, n, n_iters=1, per_bucket=per_bucket
                    )
                    divs, vecs = (div_a, div_h), list(zip(auth, hub))
                ppb = ray.remote(num_cpus=1)(gr._ppb_block)
                blocks = done([ppb.remote(lo, cols, divs, *v) for (lo, _, _), v in zip(bounds, vecs)])
                return _timed(lambda: g.attach(blocks).materialize())[0]

            def l1_total(out):
                return float(np.sum(np.concatenate(ray.get([t for _, t in out]))))

            def hits_round(src_pins, dst_pins, hubs):
                out = gr._shuffle_round(auth_step, score_fold, src_pins, hubs, (1.0,), bounds)
                tot = l1_total(out)
                auths = [a for a, _ in out]
                return l1_total(
                    gr._shuffle_round(hub_step, score_fold, dst_pins, auths, (tot,), bounds)
                )

            for _ in range(args.reps):
                s, (pins, _, (bases, ranks)) = _timed(pin)
                times[f"pagerank{tag}_pin"].append(s)
                fold_args = [(lo, gr._DAMPING, base) for (lo, _, _), base in zip(bounds, bases)]
                s, _ = _timed(
                    lambda: done(
                        gr._shuffle_round(rank_step, rank_fold, pins, ranks, (), fold_args)
                    )
                )
                times[f"pagerank{tag}_round"].append(s)
                s, (srcs, dsts, (_, hubs)) = _timed(lambda: pin(hits=True))
                times[f"hits{tag}_pin"].append(s)
                s, _ = _timed(lambda: hits_round(srcs, dsts, hubs))
                times[f"hits{tag}_round"].append(s)

                for alg in ("pagerank", "hits"):
                    s, g = _timed(build)
                    times[f"{alg}{tag}_build"].append(s)
                    times[f"{alg}{tag}_attach"].append(attach_s(g, alg))

                s, ds = _timed(lambda: gr.pagerank(*inputs(), **kw).materialize())
                times[f"pagerank{tag}_total"].append(s)
                check_pr(ds, want_pr)
                s, ds = _timed(lambda: gr.hits(*inputs(), **kw).materialize())
                times[f"hits{tag}_total"].append(s)
                check_hits(ds, want_hits)

        g = gr._page_graph(*inputs(), n, "broadcast", None)
        for name, (layout, step, fold, init, margs, rargs, call, result, want) in traversals.items():
            step = ray.remote(num_cpus=1)(step).options(num_returns=len(g.bounds()))
            fold = ray.remote(num_cpus=1)(fold).options(num_returns=2)
            for _ in range(args.reps):
                s, (pins,) = _timed(lambda: [done(p) for p in g.pin((layout,))])
                times[f"{name}_pin"].append(s)
                states = [ray.put(init(lo, hi)) for lo, hi in g.bounds()]
                s, _ = _timed(
                    lambda: done(gr._sweep(step, fold, pins, states, g.per_bucket, margs, rargs)[0])
                )
                times[f"{name}_round"].append(s)
                s, ds = _timed(lambda: call(*inputs()).materialize())
                times[f"{name}_total"].append(s)
                assert result(ds.take_all()) == want, name
        for name, (layouts, call, result, want) in counts.items():
            for _ in range(args.reps):
                s, _ = _timed(lambda: [done(p) for p in g.pin(layouts)])
                times[f"{name}_pin"].append(s)
                s, ds = _timed(lambda: call(*inputs()).materialize())
                times[f"{name}_total"].append(s)
                assert result(ds.take_all()) == want, name
        for name, (call, result, want) in tail.items():
            for _ in range(args.reps):
                s, ds = _timed(lambda: call(*inputs()).materialize())
                times[f"{name}_total"].append(s)
                assert result(ds.take_all()) == want, name
    finally:
        ray.shutdown()
        tmp.cleanup()
    for name, vals in times.items():
        print(f"{name}_s {statistics.median(vals):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
