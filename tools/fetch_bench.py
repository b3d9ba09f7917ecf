"""Microbench for the corpus fetch stage (stages/fetch.py).

    python tools/fetch_bench.py [--pages 3000] [--seed 1] [--reps 5]

Makes a ``--pages`` corpus (``generate_corpus(..., seed=--seed)``; the
defaults are the perfbench ``crawl_budget`` corpus) in a temporary
directory, starts a 2-CPU local Ray session and runs one crawl with the
``crawl_budget`` settings (``per_host_budget=20``, robots respected, every
host root a seed; every wave runs in the driver), recording each
``fetch_batch`` call it makes. It then replays those calls and prints, one
``name value unit`` line each:

- ``fetch_calls``: the recorded calls, and ``fetch_rows`` their rows;
- ``fetch_cold_s``: one crawl's calls with the row-group cache cleared
  before the crawl;
- ``fetch_warm_s``: the same with the cache kept from the replay before;
- ``row_groups_decoded``: the row groups one cold replay decodes;
- ``cache_peak_mb``: the most decoded bytes the cache held after any call
  of a cold replay.

Timings are medians over ``--reps`` replays. Every replayed output must
equal the recorded one. A build of the module without the row-group cache
(no ``fetch._CACHE``) prints the same lines, with cold and warm alike and
no decoded count or peak. The session is shut down at the end.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pages", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in [ROOT, os.environ.get("PYTHONPATH")] if p
    )
    os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    import pyarrow.parquet as pq
    import ray

    from urlmap_ray.config import CrawlConfig
    from urlmap_ray.corpus import generate_corpus, page_url
    from urlmap_ray.pipelines import crawl
    from urlmap_ray.stages import fetch

    cache = getattr(fetch, "_CACHE", None)
    calls = []

    def recorded(batch, **kw):
        out = fetch.fetch_batch(batch, **kw)
        calls.append((batch, kw, out))
        return out

    decoded = []
    real_read = pq.ParquetFile.read_row_group

    def counted(self, i, *a, **kw):
        decoded.append(i)
        return real_read(self, i, *a, **kw)

    def replay(cold: bool) -> tuple[float, int, int]:
        """(seconds, row groups decoded, peak cache bytes) of one replay."""
        if cold and cache is not None:
            cache.clear()
        decoded.clear()
        peak, total = 0, 0.0
        for batch, kw, want in calls:
            t0 = time.perf_counter()
            got = fetch.fetch_batch(batch, **kw)
            total += time.perf_counter() - t0
            assert got.equals(want), "replayed fetch differs from the crawl's"
            peak = max(peak, cache.held if cache is not None else 0)
        return total, len(decoded), peak

    tmp = tempfile.TemporaryDirectory()
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    try:
        info = generate_corpus(os.path.join(tmp.name, "corpus"), args.pages, seed=args.seed)
        cfg = CrawlConfig(per_host_budget=20, respect_robots=True)
        engine = crawl.CrawlEngine(
            info, cfg, checkpoint_dir=os.path.join(tmp.name, "ckpt"), seen_shards=2
        )
        crawl.fetch_batch = recorded
        try:
            out = engine.crawl([page_url(h, 0) for h in range(info.n_hosts)])
        finally:
            crawl.fetch_batch = fetch.fetch_batch
        assert {w.mode for w in out.waves} == {"local"}, "a wave left the driver"

        pq.ParquetFile.read_row_group = counted
        try:
            cold = [replay(cold=True) for _ in range(args.reps)]
            warm = [replay(cold=False) for _ in range(args.reps)]
        finally:
            pq.ParquetFile.read_row_group = real_read
    finally:
        ray.shutdown()
        tmp.cleanup()

    print(f"fetch_calls {len(calls)} count")
    print(f"fetch_rows {sum(b.num_rows for b, _, _ in calls)} count")
    print(f"fetch_cold_s {statistics.median(t for t, _, _ in cold):.4f} s")
    print(f"fetch_warm_s {statistics.median(t for t, _, _ in warm):.4f} s")
    if cache is not None:
        print(f"row_groups_decoded {cold[0][1]} count")
        print(f"cache_peak_mb {max(p for _, _, p in cold) / 1e6:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
