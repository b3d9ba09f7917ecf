"""Corpus fetch stage — the engine's replacement for live HTTP GET (S1).

"Fetching" a frontier URL means looking its body up in the url-hash-bucketed
``pages`` Parquet corpus. Rather than a relational join (which would shuffle
the 100TB pages side), fetch does a *selective read*: it groups its batch's
URLs by bucket, and in each bucket file (written sorted by url) it takes only
the row groups whose ``url`` min/max statistics overlap the batch's range.
The pages table itself never moves; only the (small) frontier shuffles.

Each process keeps those row groups decoded in a cache keyed by (path,
mtime, size, row group), so a rewritten file is never served stale, and
bounded by :data:`ROW_GROUP_CACHE_BYTES` of decoded bytes, least recently
used evicted first. A budget crawl's drain waves touch the same hot row
groups every wave; each is decoded once per process (the driver, or a Ray
worker, which Ray Data reuses across tasks and waves).

Misses come back with ``status=0`` (the reference's network-error case,
crawler.go:323-326: a dangling link deterministically never exists, so it is
recorded failed and never retried); hits carry the corpus row's captured
HTTP status — 200 pages flow on with their body, 4xx/5xx pages surface as
error results with html nulled (crawler.go:331-334: an error body is never
parsed for links).

The reference's HTTP retry policy (client.go:63-83: 5xx/network errors
retried, bounded attempts) IS represented, as data: a corpus page with
``flaky_fails = k > 0`` returns a transient 503 (``transient=true``, no
body) on fetch attempts 1..k and its captured row from attempt k+1 on. The
frontier's ``attempt`` column (default 1) selects the behavior; the crawl
engine re-enqueues transient rows for the next wave until
``CrawlConfig.max_attempts`` is spent, then records the final 503. Worker
failures are covered by Ray task retries instead.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: Upper bound on the decoded row-group bytes one process keeps.
ROW_GROUP_CACHE_BYTES = 64 << 20

_COLUMNS = ("url", "html", "status", "flaky_fails")


class _RowGroupCache:
    """Decoded ``_COLUMNS`` of corpus row groups, LRU within the byte bound;
    per bucket path its stamp and row-group url ranges. No file stays open:
    a bucket file is opened only while its missed row groups decode."""

    def __init__(self):
        self.lock = threading.Lock()
        self.files: dict[str, tuple] = {}  # path -> (stamp, url ranges)
        self.groups: OrderedDict[tuple, pa.Table] = OrderedDict()
        self.held = 0

    def clear(self) -> None:
        with self.lock:
            self.files.clear()
            self.groups.clear()
            self.held = 0

    def overlapping(self, path: str, lo: str, hi: str) -> list[pa.Table]:
        """The decoded row groups of ``path`` whose url range meets [lo, hi]."""
        st = os.stat(path)
        stamp = (st.st_mtime_ns, st.st_size)
        with self.lock:
            entry = self.files.get(path)
            if entry is None or entry[0] != stamp:
                md = pq.read_metadata(path)
                col = md.schema.names.index("url")
                stats = (md.row_group(i).column(col).statistics for i in range(md.num_row_groups))
                ranges = [
                    (s.min, s.max) if s is not None and s.has_min_max else None for s in stats
                ]
                entry = self.files[path] = (stamp, ranges)
            keys = [
                (path, *stamp, i)
                for i, r in enumerate(entry[1])
                if r is None or (r[0] <= hi and r[1] >= lo)
            ]
            tables = [self.groups.pop(k, None) for k in keys]
            self.held -= sum(t.nbytes for t in tables if t is not None)
            if any(t is None for t in tables):
                with pq.ParquetFile(path) as pf:
                    cols = [c for c in _COLUMNS if c in pf.schema.names]
                    tables = [_decode(pf, k[-1], cols) if t is None else t for k, t in zip(keys, tables)]
            for k, t in zip(keys, tables):
                self.groups[k] = t
                self.held += t.nbytes
            while self.held > ROW_GROUP_CACHE_BYTES:
                self.held -= self.groups.popitem(last=False)[1].nbytes
            return tables


def _decode(pf: pq.ParquetFile, i: int, cols: list[str]) -> pa.Table:
    """Row group ``i`` of an open bucket file, ``flaky_fails`` zero-filled
    for older fixtures (all pages stable)."""
    tbl = pf.read_row_group(i, columns=cols)
    if "flaky_fails" not in tbl.column_names:
        tbl = tbl.append_column("flaky_fails", pa.array(np.zeros(tbl.num_rows, np.int32)))
    return tbl


_CACHE = _RowGroupCache()


def fetch_batch(batch: pa.Table, *, pages_dir: str) -> pa.Table:
    """Look up each frontier URL's body in its corpus bucket (selective read).

    Fully vectorized: per bucket the cached row groups overlapping the wanted
    url range + a ``pc.is_in`` membership filter, then one
    ``pc.index_in``/``take`` aligns hit bodies to the batch's row order
    (misses → null html, status 0)."""
    url_col = batch.column("url")
    buckets = batch.column("bucket").to_numpy(zero_copy_only=False)
    hit_parts: list[pa.Table] = []
    for b in np.unique(buckets):
        # The engine sorts the frontier by (bucket, url), so a task's wanted
        # urls are a tight range and only the row groups over it are read.
        wanted = url_col.filter(pa.array(buckets == b)).combine_chunks()
        mm = pc.min_max(wanted)
        path = f"{pages_dir}/bucket-{int(b):05d}.parquet"
        for group in _CACHE.overlapping(path, mm["min"].as_py(), mm["max"].as_py()):
            hit_parts.append(group.filter(pc.is_in(group.column("url"), value_set=wanted)))
    hits = pa.concat_tables(hit_parts) if hit_parts else pa.table(
        {
            "url": pa.array([], pa.string()),
            "html": pa.array([], pa.binary()),
            "status": pa.array([], pa.int32()),
            "flaky_fails": pa.array([], pa.int32()),
        }
    )
    idx = pc.index_in(url_col, value_set=hits.column("url").combine_chunks())
    if hits.num_rows:
        html = pc.take(hits.column("html").combine_chunks(), idx)
        status = pc.take(hits.column("status").combine_chunks(), idx).fill_null(0)
        flaky = pc.take(hits.column("flaky_fails").combine_chunks(), idx).fill_null(0)
    else:
        html = pa.nulls(batch.num_rows, pa.binary())
        status = pa.nulls(batch.num_rows, pa.int32()).fill_null(0)
        flaky = pa.nulls(batch.num_rows, pa.int32()).fill_null(0)
    # Transient-failure window (client.go:63-83 as data): while the 1-based
    # fetch attempt is within the page's flaky_fails window, the "response"
    # is a bodiless 503 and the row is flagged transient — the engine
    # decides retry-vs-final from CrawlConfig.max_attempts.
    if "attempt" in batch.column_names:
        attempt = pc.cast(batch.column("attempt"), pa.int32())
    else:
        attempt = pa.array([1] * batch.num_rows, pa.int32())
    transient = pc.less_equal(attempt, pc.cast(flaky, pa.int32()))
    status = pc.if_else(transient, pa.scalar(503, pa.int32()), pc.cast(status, pa.int32()))
    # Reference status gate (crawler.go:331-334): a non-2xx/3xx response is
    # an error result — the URL counts as visited but its body is never
    # parsed. Nulling html here keeps the extract stage status-agnostic.
    html = pc.if_else(pc.equal(status, 200), html, pa.scalar(None, pa.binary()))
    return pa.table(
        {
            "url": url_col,
            "depth": batch.column("depth"),
            "attempt": attempt,
            "status": pc.cast(status, pa.int32()),
            "transient": transient,
            "html": html,
        }
    )

