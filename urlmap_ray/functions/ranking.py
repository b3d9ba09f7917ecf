"""Term-weighting / ranked retrieval over the documents table.

The reference engine has no text ranking (it is a crawler); these are the
training-data-pipeline extensions a crawl corpus feeds next: TF-IDF keyword
extraction (per-doc salient terms — corpus labeling, topic routing) and
BM25 ranked retrieval (query → top-k documents — eval-set mining, hard
negatives). Both share the whitespace tokenizer the dedup/vocab family
pins against DuckDB (`lower().split()` ≡ `regexp_split_to_array(trim(...),
'\\s+')`), and both keep the driver's value-hash gate float-free: every
output column is integer; the float score is recomputed identically on
both sides from integer inputs (tf, df, dl, N — libm `ln` bit-matches
between CPython and DuckDB on this toolchain, verified in tests).

Scale shapes
------------
- ``tfidf_topk``: the ONLY exchange is the vocabulary build — per-batch
  (term, df) partials pre-aggregate before one term-keyed groupby, so a
  hot term ("the") contributes n_batches partial rows, never n_docs. The
  folded df table broadcasts once via ``ray.put`` (the Spark-MLlib IDF
  model assumption: the *pruned* vocabulary fits in worker memory —
  ``min_df`` bounds it; at 100 TB run with min_df >= 5). Scoring + per-doc
  top-k are then entirely row-local (a document's terms live in its own
  row), so the second pass streams with ZERO shuffle.
- ``bm25_topk``: two streaming passes, no shuffle at all. Pass 1 folds
  per-batch partials (doc count, token count, per-query-term document
  frequencies — a fixed Q+2 integers per batch) through one tiny global
  aggregate; pass 2 broadcasts those stats and keeps a per-batch partial
  top-k, merged on the driver (blocks × k rows) exactly like
  ``similarity.topk_cosine``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# ray.get on a plasma object re-UNPICKLES Python dicts on every call (only
# numpy buffers are zero-copy), so each worker memoizes the broadcast
# vocabulary by object-ref — one deserialization per worker, not per batch.
_BROADCAST_CACHE: dict[str, object] = {}


def _cached_get(ref):
    key = ref.hex()
    v = _BROADCAST_CACHE.get(key)
    if v is None:
        import ray

        if len(_BROADCAST_CACHE) > 4:  # bound worker heap across queries
            _BROADCAST_CACHE.clear()
        v = _BROADCAST_CACHE[key] = ray.get(ref)
    return v


def _tokens(text: str | None) -> list[str]:
    """The corpus tokenizer, shared with vocab/repetition (textstats.py):
    lowercase + whitespace split, pinned to DuckDB's
    regexp_split_to_array(trim(lower(text)), '\\s+')."""
    return (text or "").lower().split()


def tfidf_topk(
    ds,
    *,
    k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 1,
    n_docs: int | None = None,
    max_vocab: int = 1 << 20,
):
    """Top-k TF-IDF keywords per document.

    Returns a Dataset of (doc_id, term, tf, df, rnk) — integer-only apart
    from the term itself; rnk is 1..k per doc ordered by
    ``tf * ln(N/df)`` descending, ties broken by term ascending (the exact
    rule the SQL oracle reproduces with ROW_NUMBER). Terms with
    ``df < min_df`` are not keyword candidates (sklearn's min_df
    convention).

    The broadcast vocabulary is HARD-BOUNDED at ``max_vocab`` terms — a
    declared contract like the pivot's category cap, because Heaps' law
    means min_df alone cannot bound a web-scale vocabulary. When the pruned
    vocabulary overflows, the ``max_vocab`` terms with the LOWEST document
    frequency are kept (df-ascending, term-ascending tiebreak — the rarest
    terms carry the highest idf and are the only plausible keywords; the
    dropped high-df tail is the stopword end, sklearn's max_df convention)
    and a loud warning reports how many terms were cut. The selection runs
    as a distributed ``sort + limit``, so the driver never materializes
    more than ``max_vocab + 1`` (term, df) rows.
    """
    import ray
    from ray.data.aggregate import Sum

    if max_vocab < 1:
        raise ValueError(f"max_vocab must be >= 1, got {max_vocab}")
    if n_docs is None:
        n_docs = ds.count()
    n = int(n_docs)

    def df_partials(t: pa.Table) -> pa.Table:
        df: Counter = Counter()
        for txt in t.column(text_col).to_pylist():
            df.update(set(_tokens(txt)))
        terms = sorted(df)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "df": pa.array([df[w] for w in terms], pa.int64()),
            }
        )

    vocab = (
        ds.map_batches(df_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
    )
    if min_df > 1:
        vocab = vocab.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("df"), min_df)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    df_rows = (
        vocab.sort(["df", "term"])  # rarest first; deterministic cut
        .limit(max_vocab + 1)
        .take_all()  # <= max_vocab + 1 rows — the declared broadcast bound
    )
    if len(df_rows) > max_vocab:
        import warnings

        warnings.warn(
            f"tfidf_topk: pruned vocabulary exceeds max_vocab={max_vocab}; "
            f"keeping the {max_vocab} lowest-df terms and dropping the "
            "high-df tail (max_df/stopword convention). Raise max_vocab or "
            "min_df to change the cut.",
            stacklevel=2,
        )
        df_rows = df_rows[:max_vocab]
    df_map = {r["term"]: int(r["df"]) for r in df_rows if int(r["df"]) >= min_df}
    df_ref = ray.put(df_map)

    def score_batch(t: pa.Table) -> pa.Table:
        dfm = _cached_get(df_ref)
        out_id: list[int] = []
        out_term: list[str] = []
        out_tf: list[int] = []
        out_df: list[int] = []
        out_rnk: list[int] = []
        ids = t.column(id_col).to_pylist()
        for did, txt in zip(ids, t.column(text_col).to_pylist()):
            c = Counter(_tokens(txt))
            scored = []
            for term, tf in c.items():
                df = dfm.get(term)
                if df is None:
                    continue
                # negated score sorts descending; float negation is exact,
                # so ties fall through to the term-ascending tiebreak
                scored.append((-(tf * math.log(n / df)), term, tf, df))
            scored.sort()
            for rnk, (_, term, tf, df) in enumerate(scored[:k], 1):
                out_id.append(did)
                out_term.append(term)
                out_tf.append(tf)
                out_df.append(df)
                out_rnk.append(rnk)
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "term": pa.array(out_term, pa.string()),
                "tf": pa.array(out_tf, pa.int64()),
                "df": pa.array(out_df, pa.int64()),
                "rnk": pa.array(out_rnk, pa.int64()),
            }
        )

    return ds.map_batches(score_batch, batch_format="pyarrow", zero_copy_batch=True)


def bm25_topk(
    ds,
    query_terms: list[str],
    *,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """BM25 (Robertson/Lucene idf) top-k documents for one term query.

    Returns an Arrow table (doc_id, dl, rnk), rnk 1..k by score descending
    with doc_id-ascending tiebreak; docs matching no query term are
    excluded. Float arithmetic is mirrored expression-by-expression in the
    SQL oracle (same parenthesization, per-term contributions summed in
    query order via an ordered conditional-aggregation pivot), so the
    integer output hash-matches bit-exactly.
    """
    import ray

    qt = list(query_terms)
    if not qt or len(set(qt)) != len(qt):
        raise ValueError("query_terms must be a non-empty list of distinct terms")
    df_cols = [f"df_{j}" for j in range(len(qt))]

    def stats_partial(t: pa.Table) -> pa.Table:
        n_docs = 0
        n_tokens = 0
        dfs = [0] * len(qt)
        for txt in t.column(text_col).to_pylist():
            toks = _tokens(txt)
            n_docs += 1
            n_tokens += len(toks)
            s = set(toks)
            for j, term in enumerate(qt):
                if term in s:
                    dfs[j] += 1
        cols = {"n_docs": [n_docs], "n_tokens": [n_tokens]}
        cols.update({c: [dfs[j]] for j, c in enumerate(df_cols)})
        return pa.table({kk: pa.array(v, pa.int64()) for kk, v in cols.items()})

    totals = ds.map_batches(
        stats_partial, batch_format="pyarrow", zero_copy_batch=True
    ).sum(["n_docs", "n_tokens", *df_cols])
    if not totals or not totals.get("sum(n_docs)"):
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "dl": pa.array([], pa.int64()),
                "rnk": pa.array([], pa.int64()),
            }
        )
    n = int(totals["sum(n_docs)"])
    avgdl = int(totals["sum(n_tokens)"]) / n  # exact ints < 2^53 → one IEEE divide
    dfs = [int(totals[f"sum({c})"]) for c in df_cols]
    params_ref = ray.put((qt, dfs))

    def partial_topk(t: pa.Table) -> pa.Table:
        q_terms, q_dfs = _cached_get(params_ref)
        rows: list[tuple[float, int, int]] = []
        ids = t.column(id_col).to_pylist()
        for did, txt in zip(ids, t.column(text_col).to_pylist()):
            toks = _tokens(txt)
            dl = len(toks)
            c = Counter(toks)
            score = 0.0
            hit = False
            for j, term in enumerate(q_terms):
                tf = c.get(term, 0)
                if tf == 0:
                    continue
                hit = True
                df = q_dfs[j]
                idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
                score += idf * (tf * (k1 + 1.0)) / (
                    tf + k1 * (1.0 - b + b * dl / avgdl)
                )
            if hit:
                rows.append((score, did, dl))
        rows.sort(key=lambda r: (-r[0], r[1]))
        rows = rows[:k]
        return pa.table(
            {
                id_col: pa.array([r[1] for r in rows], pa.int64()),
                "dl": pa.array([r[2] for r in rows], pa.int64()),
                "score": pa.array([r[0] for r in rows], pa.float64()),
            }
        )

    parts = ds.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
    tables = [ray.get(r) for r in parts.materialize().to_arrow_refs()]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "dl": pa.array([], pa.int64()),
                "rnk": pa.array([], pa.int64()),
            }
        )
    merged = pa.concat_tables(tables)
    order = pc.sort_indices(
        merged,
        sort_keys=[("score", "descending"), (id_col, "ascending")],
    )
    merged = merged.take(order[: min(k, len(order))])
    return pa.table(
        {
            id_col: merged.column(id_col),
            "dl": merged.column("dl"),
            "rnk": pa.array(np.arange(1, merged.num_rows + 1), pa.int64()),
        }
    )


def build_postings(
    ds,
    *,
    min_df: int = 2,
    max_postings: int = 100,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 256,
):
    """Inverted-index build — the retrieval-side primitive of a webtext
    corpus: per term, its document frequency and a posting list of the
    ``max_postings`` SMALLEST doc ids containing it (ascending,
    comma-joined — the deterministic "first docs" cap).

    Scale shape (the vocab_topk family): per-batch partials hold each
    batch's distinct (term, df_part, capped sorted postings) rows — the
    exchange ships ≤ max_postings ids per term per batch, never tokens,
    never uncapped lists. ONE hash-bucketed groupby folds the partials
    (lexsort-run merge per bucket, the repo's bucketed-combine pattern —
    no per-term groups). df is exact (a doc lives in exactly one batch);
    the global smallest-``max_postings`` set is exact because every
    globally-smallest id is also among its own batch's smallest. Terms
    below ``min_df`` drop at the fold, after exact df is known.

    Returns a Dataset of (term, df, postings) sorted by term.
    """
    if min_df < 1 or max_postings < 1:
        raise ValueError("min_df and max_postings must be ≥ 1")
    import pandas as pd

    def partials(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        post: dict[str, list[int]] = {}
        for i, txt in zip(ids, t.column(text_col).to_pylist()):
            for w in set((txt or "").lower().split()):
                post.setdefault(w, []).append(int(i))
        terms = sorted(post)
        lists = [sorted(post[w]) for w in terms]
        h = (
            pd.util.hash_array(np.asarray(terms, dtype=object)) % n_buckets
            if terms
            else np.empty(0, dtype=np.uint64)
        )
        return pa.table(
            {
                "bucket": pa.array(h.astype(np.int64), pa.int64()),
                "term": pa.array(terms, pa.string()),
                "df_part": pa.array([len(v) for v in lists], pa.int64()),
                "post_part": pa.array(
                    [v[:max_postings] for v in lists], pa.list_(pa.int64())
                ),
            }
        )

    def fold(g: pa.Table) -> pa.Table:
        # one bucket = many terms; merge runs after a term sort (no
        # per-term groupby groups — the bucketed-combine pattern)
        order = pc.sort_indices(g, sort_keys=[("term", "ascending")])
        g = g.take(order)
        terms = g.column("term").to_pylist()
        dfs = g.column("df_part").to_numpy(zero_copy_only=False)
        posts = g.column("post_part").to_pylist()
        out_t: list[str] = []
        out_df: list[int] = []
        out_p: list[str] = []
        i, nrows = 0, len(terms)
        while i < nrows:
            j = i
            while j < nrows and terms[j] == terms[i]:
                j += 1
            df = int(dfs[i:j].sum())
            if df >= min_df:
                merged = np.sort(np.concatenate([np.asarray(p, dtype=np.int64)
                                                 for p in posts[i:j]]))
                out_t.append(terms[i])
                out_df.append(df)
                out_p.append(",".join(map(str, merged[:max_postings])))
            i = j
        return pa.table(
            {
                "term": pa.array(out_t, pa.string()),
                "df": pa.array(out_df, pa.int64()),
                "postings": pa.array(out_p, pa.string()),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(fold, batch_format="pyarrow")
        .sort("term")
    )
