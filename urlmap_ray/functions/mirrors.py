"""Mirror-site detection and DUST URL-alias rule mining — the two
content-fingerprint consumers of a crawl corpus.

A 100TB crawl wastes budget twice: on MIRROR HOSTS (whole sites serving
the same pages under another hostname) and on DUST — Different URLs with
Similar Text (Bar-Yossef et al., WWW 2007): per-site URL aliases like
session-id parameters or vanity prefixes. Both are detected from one
shared primitive: the content fingerprint ``fp = md5(text)`` (hex — the
repo's pinned cross-engine hash seam, sampling.py contract; the per-row
hashlib loop is the documented honest cost). Pages with empty text carry
no content signal and are excluded by rule on both engine and oracle
sides (``coalesce(text,'') <> ''``).

Scale shapes:

- :func:`mirror_hosts` — per-batch distinct (host, fp) partials, ONE
  bucketed ``groupby(hash(fp) % B)`` exchange that finishes the global
  distinct, emits per-fp host PAIRS (vectorized per distinct run length,
  the triangle-counting trick) plus per-host set-size partials, then one
  fused colloc-style pad→union attach resolving BOTH pair sides' sizes
  in a single ``groupby(key)`` pass, and a final (a, b) hash-agg fold.
  Exact host-pair Jaccard — no sketching needed because the exchange is
  FINGERPRINT rows (one per distinct page body), never texts, and pair
  fan-out is bounded by ``max_hosts_per_fp`` (df-pruning: a fingerprint
  on >64 hosts is boilerplate, not mirroring — the same bound the
  inverted-index and n-gram dedup families declare). The MinHash/LSH
  variant in dedup.py remains the path for NEAR-mirror detection; this
  operator is the exact-overlap instrument.
- :func:`dust_rules` — same distinct-(fp, url) exchange; within each
  fp run the lexicographically smallest URL is the canonical and every
  other member yields an (alias, canonical) pair; the pair's common
  prefix/suffix are stripped and the two mid-segments digit-templated
  (``{n}`` — the urlmine rule) into a rewrite rule; one final
  ``groupby(rule)`` counts support. Per-alias work is string-local and
  proportional to DUPLICATE pages only. Groups are capped at
  ``max_group_urls`` sorted members (declared bound — a fingerprint
  with thousands of aliases is already one rule firing repeatedly, the
  cap loses support counts, never rules).

Correctness gates: ``host_mirrors`` has a pure-SQL oracle (DuckDB md5 +
self-join); ``dust_rules`` is pinned against the single-process
reference :func:`dust_reference` (expected parquet) because longest-
common-prefix/suffix has no clean SQL rendering.
"""

from __future__ import annotations

import hashlib
import re as _re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "mirror_hosts",
    "dust_rules",
    "dust_reference",
    "MAX_HOSTS_PER_FP",
    "MAX_GROUP_URLS",
]

from .urlmine import _DIGIT_RUN, _HOST_RE

# df-prune bound: fingerprints held by more hosts than this are dropped
# from pair generation (boilerplate, not mirroring).
MAX_HOSTS_PER_FP = 64

# dust group cap: per fingerprint, at most this many (sorted) urls enter
# alias-pair generation.
MAX_GROUP_URLS = 256


def _md5_hex(texts: list) -> pa.Array:
    return pa.array(
        [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts],
        pa.string(),
    )


def _rank_codes(col) -> tuple[np.ndarray, pa.Array]:
    """Dictionary-encode a string column and remap its codes to the
    lexicographic RANKS of their values: (rank per row, rank-sorted vocab),
    so sorting ranks sorts the strings and one ``take`` decodes them."""
    enc = pc.dictionary_encode(col.combine_chunks())
    order = pc.sort_indices(enc.dictionary).to_numpy(zero_copy_only=False).astype(np.int64)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return rank[codes], enc.dictionary.take(pa.array(order, pa.int64()))


def _pairs_from_runs(
    keys: np.ndarray, vals: np.ndarray, max_run: int
) -> tuple[np.ndarray, np.ndarray]:
    """All (vals[i], vals[j]) i<j pairs within equal-``keys`` runs, runs
    longer than ``max_run`` dropped. ``keys`` must be sorted; ``vals``
    sorted within runs. Vectorized per DISTINCT run length (the
    triangle-counting wedge trick): runs of equal length stack into a
    matrix and one ``triu_indices`` emits every pair."""
    if len(keys) == 0:
        return np.empty(0, vals.dtype), np.empty(0, vals.dtype)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    lengths = np.diff(np.r_[starts, len(keys)])
    a_out: list[np.ndarray] = []
    b_out: list[np.ndarray] = []
    for h in np.unique(lengths):
        if h < 2 or h > max_run:
            continue
        sel = starts[lengths == h]
        # (n_runs, h) matrix of member values
        mat = vals[(sel[:, None] + np.arange(h)[None, :]).ravel()].reshape(
            len(sel), h
        )
        ii, jj = np.triu_indices(h, k=1)
        a_out.append(mat[:, ii].ravel())
        b_out.append(mat[:, jj].ravel())
    if not a_out:
        return np.empty(0, vals.dtype), np.empty(0, vals.dtype)
    return np.concatenate(a_out), np.concatenate(b_out)


def _host_fp_partials(t: pa.Table, *, url_col: str, text_col: str) -> pa.Table:
    """Per-batch distinct (host, fp) rows over content-bearing pages."""
    text = t.column(text_col)
    keep = pc.not_equal(pc.coalesce(text, pa.scalar("")), "")
    t = t.filter(keep)
    host = pc.struct_field(
        pc.extract_regex(t.column(url_col), pattern=_HOST_RE), "host"
    )
    fp = _md5_hex(t.column(text_col).to_pylist())
    return (
        pa.table({"host": host, "fp": fp})
        .filter(pc.is_valid(host))
        .group_by(["host", "fp"])
        .aggregate([])
    )


def mirror_hosts(
    ds,
    *,
    url_col: str = "url",
    text_col: str = "text",
    min_jaccard_ppb: int = 250_000_000,
    min_common: int = 10,
    n_buckets: int = 64,
    max_hosts_per_fp: int = MAX_HOSTS_PER_FP,
    broadcast_max_size_rows: int = 5_000_000,
):
    """Exact host-pair content overlap → (a, b, common, na, nb,
    jaccard_ppb) for pairs with ``common ≥ min_common`` and Jaccard ≥
    ``min_jaccard_ppb`` (integer ppb: ``common·10⁹ // (na+nb−common)`` —
    floor division, mirrored by SQL ``//``). ``a < b`` lexicographically.

    See module docstring for the exchange plan. The fused attach emits
    each pair row TWICE (keyed by a, then by b) next to the per-host size
    rows — one ``groupby(key)`` resolves both sides (colloc.py shape),
    then one (a, b) hash-agg recombines."""
    from .sketch import hash64_column

    def partial(t: pa.Table) -> pa.Table:
        sub = _host_fp_partials(t, url_col=url_col, text_col=text_col)
        bk = pa.array(
            hash64_column(sub.column("fp")) % n_buckets, pa.int64()
        )
        return sub.append_column("bk", bk)

    def per_bucket(g: pa.Table) -> pa.Table:
        # finish the global distinct, then per-fp host runs → pairs +
        # per-host size partials (one output table, size rows have b null).
        # Zero-copy run scan (the lines.py/sketch.py pattern): dictionary-
        # encode both columns, lexsort the int codes — host codes remapped
        # to lexicographic RANKS so in-run order (and thus a < b) matches
        # string order — and emit pairs as int ranks, decoded once via a
        # single take on the rank-sorted vocab. Strings never enter a
        # Python list.
        d = g.group_by(["fp", "host"]).aggregate([])
        fp_enc = pc.dictionary_encode(d.column("fp").combine_chunks())
        fp_idx = fp_enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        h_rank, sorted_vocab = _rank_codes(d.column("host"))
        perm = np.lexsort((h_rank, fp_idx))
        a_r, b_r = _pairs_from_runs(fp_idx[perm], h_rank[perm], max_hosts_per_fp)
        # per-host distinct-fp counts in this bucket (size partials)
        sizes = d.group_by(["host"]).aggregate([([], "count_all")])
        return pa.concat_tables(
            [
                pa.table(
                    {
                        "a": sorted_vocab.take(pa.array(a_r, pa.int64())).cast(
                            pa.string()
                        ),
                        "b": sorted_vocab.take(pa.array(b_r, pa.int64())).cast(
                            pa.string()
                        ),
                        "n_part": pa.array(
                            np.ones(len(a_r), np.int64), pa.int64()
                        ),
                    }
                ),
                pa.table(
                    {
                        "a": sizes.column("host").cast(pa.string()),
                        "b": pa.array([None] * sizes.num_rows, pa.string()),
                        "n_part": sizes.column("count_all").cast(pa.int64()),
                    }
                ),
            ]
        )

    marked = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bk")
        .map_groups(per_bucket, batch_format="pyarrow")
        .materialize()  # consumed twice (pair fold + size fold)
    )

    def split_pairs(t: pa.Table) -> pa.Table:
        if "b" not in t.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "n_part": pa.array([], pa.int64()),
                }
            )
        e = t.filter(pc.is_valid(t.column("b")))
        return e.group_by(["a", "b"]).aggregate([("n_part", "sum")]).rename_columns(
            ["a", "b", "n_part"]
        )

    def split_sizes(t: pa.Table) -> pa.Table:
        if "b" not in t.column_names:
            return pa.table(
                {"host": pa.array([], pa.string()), "n_part": pa.array([], pa.int64())}
            )
        s = t.filter(pc.is_null(t.column("b")))
        return (
            pa.table({"host": s.column("a"), "n_part": s.column("n_part")})
            .group_by(["host"])
            .aggregate([("n_part", "sum")])
            .rename_columns(["host", "n_part"])
        )

    from ray.data.aggregate import Sum

    # fold pair PARTIALS to one final row per (a, b) BEFORE the attach:
    # each pair copy in the attach picks up the full host size, so a
    # per-block partial entering twice would multiply na/nb by the
    # partial count (caught by the sf0.01 oracle gate — the single-block
    # unit test can't see it). Pair cardinality is host-pair scale, the
    # cheapest exchange in the plan.
    pairs_ds = (
        marked.map_batches(
            split_pairs, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby(["a", "b"])
        .aggregate(Sum("n_part", alias_name="n_pair"))
    )
    sizes_ds = marked.map_batches(
        split_sizes, batch_format="pyarrow", zero_copy_batch=True
    )

    def _finish_arrays(a, b, common, na, nb):
        union = na + nb - common
        jac = np.where(
            union > 0, (common * 1_000_000_000) // np.maximum(union, 1), 0
        ).astype(np.int64)
        keep = (common >= min_common) & (jac >= min_jaccard_ppb)
        return pa.table(
            {
                "a": a,
                "b": b,
                "common": pa.array(common, pa.int64()),
                "na": pa.array(na, pa.int64()),
                "nb": pa.array(nb, pa.int64()),
                "jaccard_ppb": pa.array(jac, pa.int64()),
            }
        ).filter(pa.array(keep))

    _EMPTY_OUT = pa.table(
        {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "common": pa.array([], pa.int64()),
            "na": pa.array([], pa.int64()),
            "nb": pa.array([], pa.int64()),
            "jaccard_ppb": pa.array([], pa.int64()),
        }
    )

    # --- BROADCAST regime: the size table is host-cardinality (one row per
    # (fp-bucket, host) partial, <= n_hosts * n_buckets) — when it fits the
    # declared driver bound, fold it driver-side, ship the dict once via
    # ray.put, and finish each pair row-locally. This skips the
    # union+sort+merge exchange entirely; its fixed all-to-all floors
    # dominate wall time at test scale, and at 100 TB host cardinality
    # (~10^7) still sits under the bound. Above the bound the shuffle
    # attach below is unchanged (the graph.py broadcast/shuffle regime split).
    # one collect, capped one row past the bound, decides the regime and
    # (under the bound) is the table — never an unbounded driver collect
    size_rows = sizes_ds.limit(broadcast_max_size_rows + 1).take_all()
    if len(size_rows) <= broadcast_max_size_rows:
        import ray as _ray

        folded_sizes: dict[str, int] = {}
        for r in size_rows:
            folded_sizes[r["host"]] = folded_sizes.get(r["host"], 0) + int(
                r["n_part"]
            )
        ref = _ray.put(folded_sizes)

        def finish_bcast(t: pa.Table) -> pa.Table:
            if "n_pair" not in t.column_names or t.num_rows == 0:
                return _EMPTY_OUT
            szs = _ray.get(ref)
            # pair cardinality is host-pair scale — the tiny end of the
            # plan — so a per-row dict probe here is bounded, not O(corpus)
            a = t.column("a").to_pylist()
            b = t.column("b").to_pylist()
            common = (
                t.column("n_pair").to_numpy(zero_copy_only=False).astype(np.int64)
            )
            na = np.fromiter((szs[x] for x in a), np.int64, len(a))
            nb = np.fromiter((szs[x] for x in b), np.int64, len(b))
            return _finish_arrays(t.column("a"), t.column("b"), common, na, nb)

        return pairs_ds.map_batches(
            finish_bcast, batch_format="pyarrow", zero_copy_batch=True
        )

    # --- fused attach: pair rows keyed by a AND by b, size rows by host ---
    def key_sizes(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t.column("host"),
                "a": t.column("host"),
                "b": pa.array([None] * t.num_rows, pa.string()),
                "common_p": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                "size_p": t.column("n_part"),
                "side": pa.array(np.zeros(t.num_rows, np.int8)),
            }
        )

    def key_pairs_both(t: pa.Table) -> pa.Table:
        if "n_pair" not in t.column_names:  # empty-fold schema guard
            return pa.table(
                {
                    "key": pa.array([], pa.string()),
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "common_p": pa.array([], pa.int64()),
                    "size_p": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int8()),
                }
            )
        halves = []
        for side, key_col in ((1, "a"), (2, "b")):
            halves.append(
                pa.table(
                    {
                        "key": t.column(key_col),
                        "a": t.column("a"),
                        "b": t.column("b"),
                        "common_p": t.column("n_pair"),
                        "size_p": pa.array(
                            np.zeros(t.num_rows, np.int64), pa.int64()
                        ),
                        "side": pa.array(np.full(t.num_rows, side, np.int8)),
                    }
                )
            )
        return pa.concat_tables(halves)

    unioned = sizes_ds.map_batches(
        key_sizes, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        pairs_ds.map_batches(
            key_pairs_both, batch_format="pyarrow", zero_copy_batch=True
        )
    )

    def merge(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        size_p = g.column("size_p").to_numpy(zero_copy_only=False)
        # a host's size partials arrive one per fp-bucket — fold them here
        n_key = np.int64(size_p[side == 0].sum())
        pr = g.filter(pa.array(side != 0))
        pside = pr.column("side").to_numpy(zero_copy_only=False)
        common_p = pr.column("common_p").to_numpy(zero_copy_only=False)
        is1 = pside == 1
        return pa.table(
            {
                "a": pr.column("a"),
                "b": pr.column("b"),
                # common carried only on side 1 so the final Sum doesn't double
                "common_part": pa.array(np.where(is1, common_p, 0), pa.int64()),
                "na_p": pa.array(np.where(is1, n_key, 0), pa.int64()),
                "nb_p": pa.array(np.where(is1, 0, n_key), pa.int64()),
            }
        )

    folded = (
        unioned.groupby("key")
        .map_groups(merge, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(
            Sum("common_part", alias_name="common"),
            Sum("na_p", alias_name="na"),
            Sum("nb_p", alias_name="nb"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "common": pa.array([], pa.int64()),
                "na": pa.array([], pa.int64()),
                "nb": pa.array([], pa.int64()),
                "jaccard_ppb": pa.array([], pa.int64()),
            }
        )
        if "common" not in t.column_names or t.num_rows == 0:
            return empty
        common = t.column("common").to_numpy(zero_copy_only=False)
        na = t.column("na").to_numpy(zero_copy_only=False)
        nb = t.column("nb").to_numpy(zero_copy_only=False)
        union = na + nb - common
        jac = np.where(union > 0, (common * 1_000_000_000) // np.maximum(union, 1), 0)
        out = t.append_column("jaccard_ppb", pa.array(jac.astype(np.int64), pa.int64()))
        keep = (common >= min_common) & (jac >= min_jaccard_ppb)
        return out.filter(pa.array(keep))

    return folded.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# DUST


def _dust_rule(alias: str, canon: str) -> tuple[str, str]:
    """Pinned rewrite-rule extraction for one (alias, canonical) pair:
    strip the longest common prefix, then the longest common suffix of
    the remainders, then digit-template both mid-segments (``{n}``)."""
    # longest common prefix
    p = 0
    m = min(len(alias), len(canon))
    while p < m and alias[p] == canon[p]:
        p += 1
    ra, rc = alias[p:], canon[p:]
    # longest common suffix of the remainders
    s = 0
    m2 = min(len(ra), len(rc))
    while s < m2 and ra[len(ra) - 1 - s] == rc[len(rc) - 1 - s]:
        s += 1
    mid_a = ra[: len(ra) - s]
    mid_c = rc[: len(rc) - s]
    return _re.sub(r"[0-9]+", "{n}", mid_a), _re.sub(r"[0-9]+", "{n}", mid_c)


def dust_rules(
    ds,
    *,
    url_col: str = "url",
    text_col: str = "text",
    min_support: int = 20,
    n_buckets: int = 64,
    max_group_urls: int = MAX_GROUP_URLS,
):
    """DUST rewrite-rule mining → (rule_from, rule_to, n_pairs) with
    ``n_pairs ≥ min_support``, sorted consumers' choice. See module
    docstring; ground truth is :func:`dust_reference`."""
    from .sketch import hash64_column

    def partial(t: pa.Table) -> pa.Table:
        text = t.column(text_col)
        keep = pc.not_equal(pc.coalesce(text, pa.scalar("")), "")
        t = t.filter(keep)
        fp = _md5_hex(t.column(text_col).to_pylist())
        sub = (
            pa.table({"fp": fp, "u": t.column(url_col)})
            .group_by(["fp", "u"])
            .aggregate([])
        )
        bk = pa.array(hash64_column(sub.column("fp")) % n_buckets, pa.int64())
        return sub.append_column("bk", bk)

    def per_bucket(g: pa.Table) -> pa.Table:
        # The host_mirrors run scan: (fp, url) as lexicographic ranks,
        # lexsorted; only the urls of kept run members are decoded, in
        # (fp, url) order, so a run's first member is its canonical.
        d = g.group_by(["fp", "u"]).aggregate([])
        fp, _ = _rank_codes(d.column("fp"))
        u, vocab = _rank_codes(d.column("u"))
        perm = np.lexsort((u, fp))
        fp, u = fp[perm], u[perm]
        starts = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1]])
        sizes = np.diff(np.r_[starts, len(fp)])
        pos = np.arange(len(fp)) - np.repeat(starts, sizes)  # position in run
        keep = (np.repeat(sizes, sizes) >= 2) & (pos < max_group_urls)
        members = vocab.take(pa.array(u[keep], pa.int64())).to_pylist()
        froms: list[str] = []
        tos: list[str] = []
        for url, first in zip(members, pos[keep] == 0):
            if first:
                canon = url  # sorted ⇒ lexicographic min
                continue
            f, to = _dust_rule(url, canon)
            froms.append(f)
            tos.append(to)
        return (
            pa.table(
                {
                    "rule_from": pa.array(froms, pa.string()),
                    "rule_to": pa.array(tos, pa.string()),
                }
            )
            .group_by(["rule_from", "rule_to"])
            .aggregate([([], "count_all")])
            .rename_columns(["rule_from", "rule_to", "n_part"])
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bk")
        .map_groups(per_bucket, batch_format="pyarrow")
        .groupby(["rule_from", "rule_to"])
        .aggregate(Sum("n_part", alias_name="n_pairs"))
    )

    def threshold(t: pa.Table) -> pa.Table:
        if "n_pairs" not in t.column_names:
            return pa.table(
                {
                    "rule_from": pa.array([], pa.string()),
                    "rule_to": pa.array([], pa.string()),
                    "n_pairs": pa.array([], pa.int64()),
                }
            )
        return t.filter(pc.greater_equal(t.column("n_pairs"), min_support))

    return agg.map_batches(threshold, batch_format="pyarrow", zero_copy_batch=True)


def dust_reference(
    rows: list[tuple[str, str]],
    *,
    min_support: int = 20,
    max_group_urls: int = MAX_GROUP_URLS,
) -> list[tuple[str, str, int]]:
    """Single-process ground truth for :func:`dust_rules` over (url, text)
    rows — same empty-text gate, same sorted-group cap, same rule
    extraction. Returns sorted (rule_from, rule_to, n_pairs)."""
    groups: dict[str, set] = {}
    for url, text in rows:
        if not (text or ""):
            continue
        fp = hashlib.md5(text.encode("utf-8")).hexdigest()
        groups.setdefault(fp, set()).add(url)
    counts: dict[tuple[str, str], int] = {}
    for members_set in groups.values():
        if len(members_set) < 2:
            continue
        members = sorted(members_set)[:max_group_urls]
        canon = members[0]
        for alias in members[1:]:
            r = _dust_rule(alias, canon)
            counts[r] = counts.get(r, 0) + 1
    return sorted(
        (f, t, n) for (f, t), n in counts.items() if n >= min_support
    )
