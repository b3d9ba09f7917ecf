"""Microbench for the broadcast-regime rank iterations (functions/graph.py).

    python tools/rank_bench.py [--pages 1000] [--seed 1] [--reps 3]

Makes a ``--pages`` corpus (``generate_corpus(..., seed=--seed)``; the
defaults are the perfbench ``link_rank`` corpus) in a temporary directory,
starts a 2-CPU local Ray session and prints, one ``name value unit`` line
each, for ``pagerank`` and ``hits`` in broadcast mode:

- ``<alg>_pin_s``: pinning the materialized edge blocks in the object store
  (``_pin_edge_blocks``), up to the blocks' metadata on the driver (for
  PageRank that includes the out-degree partials);
- ``<alg>_round_s``: one iteration round over the pinned blocks (HITS: one
  authority and one hub round);
- ``<alg>_total_s``: the public call (``graph.pagerank`` / ``graph.hits``
  with ``mode="broadcast"``, edge build included), materialized.

Each call is checked against ``pagerank_reference`` / ``hits_reference``.
Timings are medians over ``--reps`` repetitions; the session is shut down
at the end.
"""

from __future__ import annotations

import argparse
import logging
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


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

    tmp = tempfile.TemporaryDirectory()
    info = generate_corpus(os.path.join(tmp.name, "corpus"), args.pages, seed=args.seed)
    tbl = pads.dataset(info.pages_path, format="parquet").to_table(columns=["url", "html"])
    urls = tbl.column("url").to_pylist()
    links = {
        u: extract_links(u, h) if h is not None else []
        for u, h in zip(urls, tbl.column("html").to_pylist())
    }
    exp_pr = gr.pagerank_reference(urls, links)
    exp_hits = gr.hits_reference(urls, links)
    exp_hits = list(zip(*(exp_hits.column(c).to_pylist() for c in ("url", "auth_ppb", "hub_ppb"))))

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
    times = {f"{a}_{m}": [] for a in ("pagerank", "hits") for m in ("pin", "round", "total")}
    try:
        n = len(urls)
        per_bucket = gr._graph_buckets(n)
        urls_ref = gr._sorted_urls_ref(inputs()[1])
        edges_b = gr._bucketed_edge_ids(
            gr._edges_broadcast(inputs()[0], urls_ref), urls_ref, per_bucket
        )
        contribs = ray.remote(num_cpus=1)(gr._block_contribs)
        auth = ray.remote(num_cpus=1)(gr._block_auth)
        hub = ray.remote(num_cpus=1)(gr._block_hub)
        vec = ray.put(np.full(n, 1.0 / n))
        for _ in range(args.reps):
            s, (blocks, _) = _timed(lambda: gr._pin_edge_blocks(edges_b, per_bucket))
            times["pagerank_pin"].append(s)
            s, _ = _timed(lambda: ray.get([contribs.remote(b, vec, vec) for b in blocks]))
            times["pagerank_round"].append(s)
            s, (blocks, _) = _timed(
                lambda: gr._pin_edge_blocks(edges_b, per_bucket, hub_order=True)
            )
            times["hits_pin"].append(s)
            s, _ = _timed(
                lambda: (
                    ray.get([auth.remote(b, vec) for b in blocks]),
                    ray.get([hub.remote(b, vec) for b in blocks]),
                )
            )
            times["hits_round"].append(s)

            s, ds = _timed(lambda: gr.pagerank(*inputs(), mode="broadcast").materialize())
            times["pagerank_total"].append(s)
            assert {r["url"]: r["rank_ppb"] for r in ds.take_all()} == exp_pr
            s, ds = _timed(lambda: gr.hits(*inputs(), mode="broadcast").materialize())
            times["hits_total"].append(s)
            got = sorted((r["url"], r["auth_ppb"], r["hub_ppb"]) for r in ds.take_all())
            assert got == exp_hits
    finally:
        ray.shutdown()
        tmp.cleanup()
    for name, vals in times.items():
        print(f"{name}_s {statistics.median(vals):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
