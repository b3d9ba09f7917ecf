"""Microbench for link extraction (htmlparse.py, extract.py).

    python tools/extract_bench.py [--pages 3000] [--seed 1] [--reps 5] [--batch 256]

Generates a ``--pages`` corpus in memory (``corpus.gen_pages_batch`` with
``generate_corpus``'s default host layout; the defaults are the perfbench
``crawl_budget`` corpus) and prints, one ``name value unit`` line each:

- ``iter_hrefs_us_per_page``: ``htmlparse.iter_hrefs`` over every page,
  decoded to str beforehand;
- ``extract_links_batch_us_per_page``: ``extract.extract_links_batch`` over
  ``--batch``-row Arrow batches of (url, html) with the crawl's arguments
  (``drop_html=True``) and ``with_stats=True``;
- ``fallback_frac``: the share of pages the flat-anchor scan declines, so
  that they run through the tree builder. A build of the module without
  the scan counts every page.

Timings are medians over ``--reps`` repetitions. No Ray session is started.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pages", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--batch", type=int, default=256)
    args = ap.parse_args(argv)

    import numpy as np

    from urlmap_ray import htmlparse
    from urlmap_ray.corpus import gen_pages_batch, host_layout
    from urlmap_ray.extract import extract_links_batch

    n = args.pages
    pages = gen_pages_batch(np.arange(n), host_layout(n, max(4, n // 150)), args.seed)
    pages = pages.select(["url", "html"])
    html = [b.decode("utf-8", errors="replace") for b in pages.column("html").to_pylist()]
    batches = [pages.slice(i, args.batch) for i in range(0, n, args.batch)]

    hrefs_s = _median_s(lambda: [htmlparse.iter_hrefs(h) for h in html], args.reps)
    batch_s = _median_s(
        lambda: [extract_links_batch(b, drop_html=True, with_stats=True) for b in batches],
        args.reps,
    )
    scan = getattr(htmlparse, "_flat_scan", None)
    fallback = n if scan is None else sum(scan(h, False) is None for h in html)

    print(f"iter_hrefs_us_per_page {hrefs_s / n * 1e6:.1f} us/page")
    print(f"extract_links_batch_us_per_page {batch_s / n * 1e6:.1f} us/page")
    print(f"fallback_frac {fallback / n:.4f} ratio")
    return 0


if __name__ == "__main__":
    sys.exit(main())
