"""The benchmark's workloads: inputs made from a seed, a cached reference
output, and one checked pass through the engine's public entry points.

``prepare`` runs outside every timed window (in a child process of the
benchmark, so its memory does not count as the driver's); a workload object
then loads its corpus and reference digests in the driver and runs passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass

from urlmap_ray.config import CrawlConfig
from urlmap_ray.corpus import CorpusInfo, generate_corpus, page_url

#: Seen-set shards for every crawl, and hash buckets for the shuffle regime
#: of the ranking calls: one per logical CPU of the session.
SEEN_SHARDS = 2
SHUFFLE_BUCKETS = 2

#: Restarts timed per pass; ``resume_s`` is their median. One restart takes
#: under a second, so a single one per pass would leave it at the mercy of
#: scheduling noise.
RESTARTS = 3


@dataclass
class Pass:
    """One pass: the job, the median of its restarts, and whether all of them
    matched the reference."""

    job_s: float
    pages: int
    resume_s: float
    ok: bool


def digest(rows) -> str:
    """Order-sensitive digest of rows of scalars (callers sort first)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(("\t".join(map(str, row)) + "\n").encode())
    return h.hexdigest()


def _write_json_atomic(path: str, obj: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1)
    os.replace(tmp, path)


class _Workload:
    name: str
    n_pages: int
    #: Passes a run makes even when its window ends sooner.
    min_passes = 1

    def __init__(self, cache_dir: str, seed: int):
        self.cache_dir = cache_dir
        self.info = self.corpus(cache_dir, seed)
        with open(os.path.join(cache_dir, "reference.json")) as f:
            self.reference = json.load(f)

    @classmethod
    def corpus(cls, cache_dir: str, seed: int) -> CorpusInfo:
        return generate_corpus(os.path.join(cache_dir, "corpus"), cls.n_pages, seed=seed)

    @classmethod
    def params(cls, seed: int) -> dict:
        """Everything the reference depends on; a cached reference with other
        params is recomputed."""
        return {"workload": cls.name, "pages": cls.n_pages, "seed": seed}

    @classmethod
    def prepare(cls, cache_dir: str, seed: int) -> None:
        """Generate the corpus and cache the reference digests, once per seed."""
        path = os.path.join(cache_dir, "reference.json")
        if os.path.exists(path):
            with open(path) as f:
                if json.load(f).get("params") == cls.params(seed):
                    return
        os.makedirs(cache_dir, exist_ok=True)
        info = cls.corpus(cache_dir, seed)
        _write_json_atomic(path, {"params": cls.params(seed), **cls.reference_digests(info)})

    @classmethod
    def reference_digests(cls, info: CorpusInfo) -> dict:
        raise NotImplementedError

    def run_pass(self, rec) -> Pass:
        raise NotImplementedError


class CrawlBudget(_Workload):
    """Budgeted BFS from every host root with robots.txt respected.

    The hot host (30% of the pages) drains ``per_host_budget`` rows per wave,
    so most waves re-gate a deferral backlog: politeness gate, wave
    orchestration and per-wave checkpoints dominate. No wave admits more
    than ``small_wave_rows`` (20 hosts x 20 rows), so every wave runs in the
    driver."""

    name = "crawl_budget"
    n_pages = 3000
    cfg = CrawlConfig(per_host_budget=20, respect_robots=True)

    @classmethod
    def params(cls, seed: int) -> dict:
        return {**super().params(seed), "config": repr(cls.cfg)}

    @classmethod
    def reference_digests(cls, info: CorpusInfo) -> dict:
        import pyarrow.parquet as pq

        from urlmap_ray.oracle import crawl_waves, load_corpus_dict
        from urlmap_ray.robotstxt import RobotsIndex

        robots = RobotsIndex(cls.cfg.user_agent)
        tbl = pq.read_table(info.robots_path)
        for origin, content in zip(
            tbl.column("origin").to_pylist(), tbl.column("content").to_pylist()
        ):
            robots.add(origin, content)
        out = crawl_waves(load_corpus_dict(info.pages_path), _host_roots(info), cls.cfg, robots)
        rows = sorted((r.url, r.depth, r.status) for r in out.results)
        return {"visited": digest(rows), "visited_rows": len(rows)}

    def _engine(self, on_wave=None):
        from urlmap_ray.pipelines.crawl import CrawlEngine

        return CrawlEngine(
            self.info,
            self.cfg,
            checkpoint_dir=os.path.join(self.cache_dir, "ckpt"),
            seen_shards=SEEN_SHARDS,
            on_wave=on_wave,
        )

    def _visited_digest(self, engine, rec) -> str:
        with rec.span("visited"):
            rows = engine.visited_dataset().take_all()
        return digest(sorted((r["url"], r["depth"], r["status"]) for r in rows))

    def run_pass(self, rec) -> Pass:
        seeds = _host_roots(self.info)
        engine = self._engine(on_wave=rec.on_wave)
        with rec.span("job"):
            t0 = time.perf_counter()
            outcome = engine.crawl(seeds)
            job_s = time.perf_counter() - t0
        ok = self._visited_digest(engine, rec) == self.reference["visited"]

        # A fresh engine restores the checkpoint just written; the frontier
        # is empty, so it must return without running a wave. The restarts
        # share that checkpoint, so one that changed it shows in the digest
        # taken after the last.
        resumes = []
        for _ in range(RESTARTS):
            restarted = self._engine()
            with rec.span("resume"):
                t0 = time.perf_counter()
                resumed = restarted.crawl(seeds, resume=True)
                resumes.append(time.perf_counter() - t0)
            ok = ok and len(resumed.waves) == len(outcome.waves)
        ok = ok and self._visited_digest(restarted, rec) == self.reference["visited"]
        pages = sum(w.admitted - w.failed for w in outcome.waves)
        return Pass(job_s, pages, statistics.median(resumes), ok)


class LinkRank(_Workload):
    """PageRank and HITS over the corpus link graph, each in its broadcast and
    its shuffle regime (shuffle at 3 iterations, as the registered queries).

    The shuffle regime uses one bucket per logical CPU. Its default rule
    gives 16 buckets at this size, which on a 2-CPU session makes each
    shuffle call 4-5 times slower and its time vary by about 20% from pass
    to pass. The results do not depend on the bucket count.

    One pass (7-28 s on a one-CPU host) is about as long as the window and
    varies by about 20%, so a run makes at least two and reports their
    median."""

    name = "link_rank"
    n_pages = 1000
    min_passes = 2
    _shuffle = {"mode": "shuffle", "n_iters": 3, "n_buckets": SHUFFLE_BUCKETS}
    calls = (
        ("pagerank", "pagerank", {"mode": "broadcast"}),
        ("pagerank_shuffle", "pagerank", _shuffle),
        ("hits", "hits", {"mode": "broadcast"}),
        ("hits_shuffle", "hits", _shuffle),
    )
    columns = {"pagerank": ("url", "rank_ppb"), "hits": ("url", "auth_ppb", "hub_ppb")}

    @classmethod
    def reference_digests(cls, info: CorpusInfo) -> dict:
        import pyarrow.dataset as pads

        from urlmap_ray.extract import extract_links
        from urlmap_ray.functions.graph import hits_reference, pagerank_reference

        tbl = pads.dataset(info.pages_path, format="parquet").to_table(columns=["url", "html"])
        urls = tbl.column("url").to_pylist()
        links = {
            u: extract_links(u, h) if h is not None else []
            for u, h in zip(urls, tbl.column("html").to_pylist())
        }
        nodes = set(urls)
        edges = sorted({(u, v) for u, vs in links.items() for v in vs if v in nodes and v != u})
        out = {"edges": digest(edges)}
        for name, fn, kw in cls.calls:
            n_iters = {"n_iters": kw["n_iters"]} if "n_iters" in kw else {}
            if fn == "pagerank":
                ranks = pagerank_reference(urls, links, **n_iters)
                out[name] = digest(sorted(ranks.items()))
            else:
                t = hits_reference(urls, links, **n_iters)
                out[name] = digest(zip(*(t.column(c).to_pylist() for c in cls.columns[fn])))
        return out

    def _inputs(self):
        import ray.data

        pages = ray.data.read_parquet(self.info.pages_path, columns=["url", "html"])
        nodes = ray.data.read_parquet(self.info.pages_path, columns=["url"])
        return pages, nodes

    def run_pass(self, rec) -> Pass:
        from urlmap_ray.functions import graph

        results = {}
        with rec.span("job"):
            t0 = time.perf_counter()
            for name, fn, kw in self.calls:
                with rec.span(f"graph.{name}"):
                    results[name] = getattr(graph, fn)(*self._inputs(), **kw).materialize()
            job_s = time.perf_counter() - t0
        ok = all(
            digest(sorted(tuple(r[c] for c in self.columns[fn]) for r in results[name].take_all()))
            == self.reference[name]
            for name, fn, _ in self.calls
        )

        # A restarted ranking job first rebuilds the edge set from the pages.
        rebuilds = []
        for _ in range(RESTARTS):
            with rec.span("resume"), rec.span("graph.edges"):
                t0 = time.perf_counter()
                edges = graph.build_edges(*self._inputs()).materialize()
                rebuilds.append(time.perf_counter() - t0)
            ok = ok and digest(sorted((r["src"], r["dst"]) for r in edges.take_all())) == (
                self.reference["edges"]
            )
        return Pass(job_s, self.info.n_pages, statistics.median(rebuilds), ok)


def _host_roots(info: CorpusInfo) -> list[str]:
    return [page_url(h, 0) for h in range(info.n_hosts)]


WORKLOADS = {w.name: w for w in (CrawlBudget, LinkRank)}


def prepare(name: str, cache_dir: str, seed: int) -> None:
    WORKLOADS[name].prepare(cache_dir, seed)
