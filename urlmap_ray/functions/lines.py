"""Line/paragraph-level corpus operators — the web-corpus cleaning family.

Three standard operations every large-scale text pipeline runs between
"HTML extracted" (extract.py — paragraph-joined text, reference
parser.go:120-208's output seam) and "training document":

- :func:`line_dedup` — CCNet-style corpus-wide paragraph dedup: a line
  (paragraph) survives only at its FIRST occurrence across the whole
  corpus; later occurrences are stripped from their documents.
- :func:`boilerplate_strip` — host-scoped line-frequency boilerplate
  removal: a line that appears in ≥ ``min_docs`` distinct documents of
  the same host is navigation/footer chrome, not content; drop it
  everywhere (including the first copy).
- :func:`line_filter` — C4-style row-local line gates (word-count
  bounds); no shuffle at all.

Scale shape
-----------
``line_dedup`` / ``boilerplate_strip`` are two-exchange pipelines with
BUCKETED group stages (hash buckets, never one group per key, so a
footer shared by millions of pages is just rows inside a bucket, not a
hot group):

    map_batches(explode text → (doc, line_no, line))     # row-local
    groupby(hash(line) % B)  → vectorized keep/drop mark  # exchange 1
    groupby(hash(doc)  % B)  → vectorized ordered rebuild # exchange 2

Inside each bucket the mark/rebuild is one Arrow ``sort_indices`` plus
numpy run-boundary arithmetic — no Python row loops, B Python calls
total. Choose ``n_buckets`` so one bucket's rows fit a worker's heap
(corpus_lines / B rows); at 100 TB the same pipeline runs with a
128-bit content fingerprint carried instead of paragraph bodies in
exchange 1 — the composition is unchanged, only the payload narrows.

Keep-rule determinism: the "first occurrence" owner of a line is the
minimum of ``doc_key || chr(1) || lpad(line_no, 12)`` — one sortable
string, identical in Arrow and ANSI SQL, so results are path- and
partitioning-independent.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .sketch import hash64_column
from .urlmine import _HOST_RE

_SEP = "\x01"
_LINE_BUCKETS = 64


def explode_lines(t: pa.Table, *, id_col: str = "url", text_col: str = "text") -> pa.Table:
    """One Arrow batch → one row per line: (id, line_no, line).

    ``line_no`` is 1-based within its document (matches SQL's
    ``unnest(range(1, len(..)+1))`` zip). Pure Arrow/numpy — the split,
    flatten, parent-index and arange never touch Python rows."""
    arr = t.column(text_col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    lists = pc.split_pattern(arr, "\n")
    flat = pc.list_flatten(lists)
    parents = pc.list_parent_indices(lists)
    ids = pc.take(t.column(id_col), parents)
    lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    lengths = np.nan_to_num(lengths.astype(np.float64)).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    line_no = np.arange(len(flat), dtype=np.int64) - np.repeat(starts, lengths) + 1
    return pa.table(
        {
            id_col: ids,
            "line_no": pa.array(line_no, pa.int64()),
            "line": flat,
        }
    )


def _owner_key(ids: pa.Array | pa.ChunkedArray, line_no: pa.Array | pa.ChunkedArray) -> pa.Array:
    """doc id + line ordinal as ONE lexicographically sortable string —
    ``id || chr(1) || lpad(line_no, 12, '0')``, mirrored verbatim in the
    oracle SQL so min() agrees across engines."""
    padded = pc.utf8_lpad(pc.cast(line_no, pa.string()), 12, "0")
    return pc.binary_join_element_wise(pc.cast(ids, pa.string()), padded, _SEP)


def _bucket_col(col, n_buckets: int) -> pa.Array:
    return pa.array(
        (hash64_column(col) % np.uint64(n_buckets)).astype(np.int64), pa.int64()
    )


def _col(g: pa.Table, name: str) -> pa.Array:
    c = g.column(name)
    return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c


def _run_starts(sorted_arr: pa.Array) -> np.ndarray:
    """Boolean mask: True where a sorted column's value differs from the
    previous row (run boundary). Vectorized Arrow compare, no row loop."""
    n = len(sorted_arr)
    starts = np.ones(n, dtype=bool)
    if n > 1:
        starts[1:] = pc.not_equal(
            sorted_arr.slice(1), sorted_arr.slice(0, n - 1)
        ).to_numpy(zero_copy_only=False)
    return starts


def _explode(ds, id_col: str, text_col: str):
    return ds.map_batches(
        explode_lines,
        fn_kwargs=dict(id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _reassemble(marked, *, id_col: str, text_out: str, kept_out: str, n_buckets: int):
    """(id, line_no, line, kept) rows → one row per doc with kept lines
    rejoined in line order — bucketed by hash(doc), vectorized inside:
    one sort, run-boundary diffs, reduceat counts, one binary_join."""

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("dbk", _bucket_col(t.column(id_col), n_buckets))

    def rebuild(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.string()),
                    text_out: pa.array([], pa.string()),
                    "n_lines": pa.array([], pa.int64()),
                    kept_out: pa.array([], pa.int64()),
                }
            )
        order = pc.sort_indices(
            g, sort_keys=[(id_col, "ascending"), ("line_no", "ascending")]
        )
        ids_s = _col(g, id_col).take(order)
        lines_s = _col(g, "line").take(order)
        kept_s = _col(g, "kept").take(order)
        dstart = _run_starts(ids_s)
        run_starts = np.flatnonzero(dstart)
        n_lines = np.diff(np.append(run_starts, n))
        kept_np = kept_s.to_numpy(zero_copy_only=False).astype(np.int64)
        n_kept = np.add.reduceat(kept_np, run_starts)
        kept_lines = lines_s.filter(kept_s)
        offsets = np.concatenate(([0], np.cumsum(n_kept))).astype(np.int64)
        text = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()), kept_lines),
            "\n",
        )
        return pa.table(
            {
                id_col: ids_s.take(pa.array(run_starts, pa.int64())),
                text_out: text,
                "n_lines": pa.array(n_lines, pa.int64()),
                kept_out: pa.array(n_kept, pa.int64()),
            }
        )

    return (
        marked.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dbk")
        .map_groups(rebuild, batch_format="pyarrow")
    )


def line_dedup(
    ds,
    *,
    id_col: str = "url",
    text_col: str = "text",
    n_buckets: int = _LINE_BUCKETS,
):
    """Corpus-wide exact paragraph dedup (CCNet shape): each distinct line
    survives only in the document that owns its minimum
    ``(id, line_no)`` occurrence; every other copy is dropped.

    Returns (id, text_dedup, n_lines, n_kept) — one row per input doc,
    ``text_dedup = ''`` when every line of a doc was seen earlier."""

    def add_keys(t: pa.Table) -> pa.Table:
        t = t.append_column("owner", _owner_key(t.column(id_col), t.column("line_no")))
        return t.append_column("lbk", _bucket_col(t.column("line"), n_buckets))

    def mark(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return g.drop_columns(["owner", "lbk"]).append_column(
                "kept", pa.array([], pa.bool_())
            )
        order = pc.sort_indices(
            g, sort_keys=[("line", "ascending"), ("owner", "ascending")]
        )
        lines_s = _col(g, "line").take(order)
        kept = np.zeros(n, dtype=bool)
        kept[order.to_numpy(zero_copy_only=False)] = _run_starts(lines_s)
        return g.drop_columns(["owner", "lbk"]).append_column(
            "kept", pa.array(kept, pa.bool_())
        )

    marked = (
        _explode(ds, id_col, text_col)
        .map_batches(add_keys, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lbk")
        .map_groups(mark, batch_format="pyarrow")
    )
    return _reassemble(
        marked, id_col=id_col, text_out="text_dedup", kept_out="n_kept",
        n_buckets=n_buckets,
    )


def boilerplate_strip(
    ds,
    *,
    id_col: str = "url",
    text_col: str = "text",
    min_docs: int = 3,
    n_buckets: int = _LINE_BUCKETS,
):
    """Host-scoped line-frequency boilerplate removal: a line appearing in
    ≥ ``min_docs`` DISTINCT documents of the same host (host = RE2
    authority of the doc url, the host_stats contract) is chrome — drop
    every copy. Returns (id, text_clean, n_lines, n_kept).

    The count key is ``host || chr(1) || line`` so footers with the same
    wording on different hosts are judged independently (a cross-host
    duplicate is content plagiarism — :func:`line_dedup`'s job — not
    site chrome)."""

    def add_keys(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(pc.cast(t.column(id_col), pa.string()), pattern=_HOST_RE)
        host = pc.struct_field(m, "host")
        hline = pc.binary_join_element_wise(host, t.column("line"), _SEP)
        t = t.append_column("hline", hline)
        return t.append_column("lbk", _bucket_col(hline, n_buckets))

    def mark(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return g.drop_columns(["hline", "lbk"]).append_column(
                "kept", pa.array([], pa.bool_())
            )
        order = pc.sort_indices(
            g, sort_keys=[("hline", "ascending"), (id_col, "ascending")]
        )
        h_s = _col(g, "hline").take(order)
        ids_s = _col(g, id_col).take(order)
        hstart = _run_starts(h_s)
        # a row opens a new (hline, doc) pair iff the hline run restarts
        # or the doc id changes within the run
        pair_start = hstart | _run_starts(ids_s)
        run_idx = np.cumsum(hstart) - 1
        ndocs = np.add.reduceat(pair_start.astype(np.int64), np.flatnonzero(hstart))
        kept_sorted = (ndocs < min_docs)[run_idx]
        kept = np.zeros(n, dtype=bool)
        kept[order.to_numpy(zero_copy_only=False)] = kept_sorted
        return g.drop_columns(["hline", "lbk"]).append_column(
            "kept", pa.array(kept, pa.bool_())
        )

    marked = (
        _explode(ds, id_col, text_col)
        .map_batches(add_keys, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lbk")
        .map_groups(mark, batch_format="pyarrow")
    )
    return _reassemble(
        marked, id_col=id_col, text_out="text_clean", kept_out="n_kept",
        n_buckets=n_buckets,
    )


def line_filter(
    ds,
    *,
    id_col: str = "url",
    text_col: str = "text",
    min_words: int = 1,
    max_words: int | None = None,
):
    """C4-style row-local line gate: keep lines whose word count (split on
    single spaces, SQL ``len(string_split(line, ' '))`` — an empty line
    counts 1) lies in [min_words, max_words]. No shuffle: one
    vectorized map_batches, list rebuilt via offset arithmetic.

    Returns (id, text_filtered, n_lines, n_kept) in input order."""

    def fil(t: pa.Table) -> pa.Table:
        arr = t.column(text_col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        lists = pc.split_pattern(arr, "\n")
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
        wc = pc.add(pc.count_substring(flat, " "), 1)
        keep = pc.greater_equal(wc, min_words)
        if max_words is not None:
            keep = pc.and_(keep, pc.less_equal(wc, max_words))
        keep_np = keep.to_numpy(zero_copy_only=False)
        n_rows = len(arr)
        kept_per_row = np.bincount(parents[keep_np], minlength=n_rows)
        offsets = np.concatenate(([0], np.cumsum(kept_per_row))).astype(np.int64)
        new_flat = flat.filter(keep)
        joined = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()), new_flat),
            "\n",
        )
        n_lines = np.bincount(parents, minlength=n_rows)
        return pa.table(
            {
                id_col: t.column(id_col),
                "text_filtered": joined,
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_kept": pa.array(kept_per_row, pa.int64()),
            }
        )

    return ds.map_batches(fil, batch_format="pyarrow", zero_copy_batch=True)
