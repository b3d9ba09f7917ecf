"""Candidate-edge stages: flatten extracted links, admission-filter against
the seed (M5: domain / path-prefix, crawler.go:751-791), local pre-dedup
(combiner before the wave groupby), and the seen-set claim stage.

All operate on pyarrow batches inside map_batches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..gourl import parse as gourl_parse
from ..state.seen import SeenSet, url_hash
from ..urlnorm import URLError, extract_domain

CANDIDATE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("depth", pa.int32()),
        ("host", pa.string()),
        ("bucket", pa.int32()),
        ("attempt", pa.int32()),  # 1-based fetch attempt (transient retries)
    ]
)


def empty_candidates() -> pa.Table:
    return CANDIDATE_SCHEMA.empty_table()


def frontier_columns(urls: list[str], depths, partitions: int, attempts=None) -> pa.Table:
    """Attach host + bucket (+ attempt, default 1) columns to (url, depth)
    rows."""
    hosts = []
    for u in urls:
        try:
            hosts.append(extract_domain(u))
        except URLError:
            hosts.append("")
    buckets = (url_hash(urls) % partitions).astype(np.int32) if urls else np.zeros(0, np.int32)
    if attempts is None:
        attempts = [1] * len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "depth": pa.array(depths, pa.int32()),
            "host": pa.array(hosts, pa.string()),
            "bucket": pa.array(buckets, pa.int32()),
            "attempt": pa.array(attempts, pa.int32()),
        }
    )


class AdmissionIndex:
    """O(1)-per-link form of the queue-admission filter (crawler.go:758-775)
    generalized to a seed list: host → dir-normalized seed base paths.

    Semantics identical to is_same_path_prefix / is_same_domain against each
    seed (hostname casefolded, ports stripped, dir-normalized prefix match),
    but the link is parsed once instead of 4×|seeds| times — with thousands
    of seeds the naive loop dominated whole waves.
    """

    def __init__(self, seeds: list[str], same_path_prefix: bool):
        self.same_path_prefix = same_path_prefix
        self.by_host: dict[str, list[str]] = {}
        for seed in seeds:
            try:
                u = gourl_parse(seed)
                host = u.hostname().casefold()
                base = u.path
                if base != "/" and not base.endswith("/"):
                    base += "/"
                if base == "":
                    base = "/"
            except URLError:
                continue
            self.by_host.setdefault(host, []).append(base)
        self._prefilter: tuple | None = None

    def admits(self, link: str) -> bool:
        try:
            u = gourl_parse(link)
            host = u.hostname().casefold()
        except URLError:
            return False
        if u.host == "" or host == "":
            return False
        bases = self.by_host.get(host)
        if bases is None:
            return False
        if not self.same_path_prefix:
            return True
        path = u.path
        if path != "/" and not path.endswith("/"):
            path += "/"
        if path == "":
            path = "/"
        return any(path.startswith(b) for b in bases)


    def vector_prefilter(self):
        """(root_hosts, complex_hosts) Arrow value-sets for the vectorized
        admission path, memoized (the index is itself cached per worker, so
        these build once per seed list, not once per batch).

        root_hosts: hosts whose seed bases include "/" — in prefix mode every
        path under them admits (all dir-paths start with "/"), so membership
        alone decides. complex_hosts: hosts with non-root bases — their links
        need the per-link dir-prefix test (python fallback)."""
        if self._prefilter is None:
            root, complex_ = [], []
            for h, bases in self.by_host.items():
                (root if "/" in bases or not self.same_path_prefix else complex_).append(h)
            self._prefilter = (
                pa.array(root, pa.string()) if root else None,
                pa.array(complex_, pa.string()) if complex_ else None,
            )
        return self._prefilter


# Strict canonical-link shape the vectorized admission path handles exactly:
# lowercase ASCII host, no port/userinfo/fragment. The extractor emits
# normalized absolute URLs, so in practice ~all links match; the rest take
# the per-link parse fallback (identical semantics, just slower).
_STRICT_LINK_RE = r"^https?://(?P<vhost>[a-z0-9.\-]+)(?P<vpath>/[^?#]*)?(?:\?[^#]*)?$"


def admission_mask(links: pa.Array, idx: AdmissionIndex) -> np.ndarray:
    """Vectorized form of ``[idx.admits(l) for l in links]``.

    One Arrow regex pass splits host/path for canonical links; admission for
    hosts whose seed base is "/" (the overwhelmingly common crawl shape) is a
    single ``is_in`` membership probe. Only links that fail the strict parse
    or hit a host with non-root seed bases fall back to the per-link parser —
    memoized, and byte-identical in verdict to the vectorized path."""
    ex = pc.extract_regex(links, pattern=_STRICT_LINK_RE)
    valid = pc.is_valid(ex).to_numpy(zero_copy_only=False)
    hosts = pc.struct_field(ex, "vhost")
    root_set, complex_set = idx.vector_prefilter()
    keep = np.zeros(len(links), dtype=bool)
    if root_set is not None:
        in_root = pc.is_in(hosts, value_set=root_set).to_numpy(zero_copy_only=False)
        keep = valid & np.asarray(in_root)
    # fallback rows: strict-parse failures + complex-host hits
    fb = ~valid
    if complex_set is not None:
        in_cplx = pc.is_in(hosts, value_set=complex_set).to_numpy(zero_copy_only=False)
        fb |= valid & np.asarray(in_cplx)
    if fb.any():
        cache: dict[str, bool] = {}
        for i in np.flatnonzero(fb):
            link = links[i].as_py()
            v = cache.get(link)
            if v is None:
                v = cache[link] = idx.admits(link)
            keep[i] = v
    return keep


_ADMISSION_CACHE: dict[tuple, AdmissionIndex] = {}


def admission_index(seeds: list[str], same_path_prefix: bool) -> AdmissionIndex:
    key = (tuple(seeds), same_path_prefix)
    idx = _ADMISSION_CACHE.get(key)
    if idx is None:
        idx = _ADMISSION_CACHE[key] = AdmissionIndex(seeds, same_path_prefix)
    return idx


def admit_link(link: str, seeds: list[str], same_path_prefix: bool) -> bool:
    """Single-link form (kept for tests/oracle parity checks)."""
    return admission_index(seeds, same_path_prefix).admits(link)


def flatten_candidates(
    batch: pa.Table,
    *,
    seed_urls: list[str],
    same_domain: bool,
    same_path_prefix: bool,
    partitions: int,
) -> pa.Table:
    """results(url, depth, links) → admitted candidate rows (link, depth+1).

    Applies the reference's queue-admission filter (crawler.go:758-775)
    vectorized over the flattened edge list, then pre-dedups within the
    batch keeping min depth (combiner for the global wave groupby).
    """
    links_col = batch.column("links")
    flat = pc.list_flatten(links_col)
    if len(flat) == 0:
        return empty_candidates()
    parents = pc.list_parent_indices(links_col)
    depths = pc.add(pc.cast(batch.column("depth").take(parents), pa.int32()), 1)

    if same_domain:
        idx = admission_index(list(seed_urls), same_path_prefix)
        keep = admission_mask(flat, idx)
        tbl = pa.table({"url": flat, "depth": depths}).filter(pa.array(keep))
    else:
        tbl = pa.table({"url": flat, "depth": depths})
    # local combiner: min depth per url within this batch
    tbl = tbl.group_by("url").aggregate([("depth", "min")]).rename_columns(["url", "depth"])
    urls2 = tbl.column("url").to_pylist()
    out = frontier_columns(urls2, tbl.column("depth").to_pylist(), partitions)
    return out


def claim_batch(batch: pa.Table, *, seen: SeenSet) -> pa.Table:
    """Seen-set claim (LoadOrStore): keeps only first-time URLs.

    A plain function over the engine's ``SeenSet``: the driver-side wave
    tail calls it with the set in whichever place it lives; the distributed
    claim stage ships the distributed set (actor handles) in fn_kwargs, so
    there is nothing to warm up per wave."""
    urls = batch.column("url").to_pylist()
    if not urls:
        return batch
    return batch.filter(pa.array(seen.contains_and_add(urls)))
