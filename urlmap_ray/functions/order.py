"""Global ordering — distributed ROW_NUMBER over a declared total order.

The training-data step this serves: **curriculum ordering / shard
assignment**. A corpus ordered by a quality or difficulty signal
(curriculum learning; also "write the best documents first so a
token-budgeted run reads them") needs every row's global rank in that
order, and its output shard ``rank // shard_size``, without ever
materializing the corpus on the driver.

Scale shape: ONE range-partitioned sort (Ray Data's ``Dataset.sort``)
— the same single exchange a plain ORDER BY write would pay — then rank
assignment is embarrassingly parallel: block row-counts come from block
METADATA after ``materialize()``, the driver folds them into O(blocks)
integer offsets, and a per-block remote task adds ``arange(off, off+n)``.
The driver never holds a row. (graph.py's sorted url buckets,
``_url_buckets``, give the same ranks for a distinct url column by task
rounds over sampled boundaries; this takes any declared sort order and
full payload rows.)

Determinism contract: the declared key list must be a TOTAL order —
include a unique tiebreak column (doc_id, url). Equal-key rows would
otherwise take arbitrary ranks across runs; this function cannot detect
that cheaply, so the contract is documented rather than enforced.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["rank_by"]


def rank_by(
    ds,
    keys: list[tuple[str, str]],
    *,
    shard_size: int | None = None,
    rank_col: str = "rank",
    shard_col: str = "shard",
):
    """Dataset + declared total order → same rows + ``rank`` (0-based
    global row number) and, when ``shard_size`` is given,
    ``shard = rank // shard_size``.

    ``keys``: list of ``(column, "ascending"|"descending")``.
    """
    import ray
    import ray.data

    for _, d in keys:
        if d not in ("ascending", "descending"):
            raise ValueError(f"rank_by: bad direction {d!r}")
    sorted_ds = ds.sort(
        [k for k, _ in keys], descending=[d == "descending" for _, d in keys]
    ).materialize()

    refs: list = []
    counts: list[int] = []
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            assert meta.num_rows is not None  # known after materialize()
            if meta.num_rows == 0:
                continue  # zero-row blocks may carry an empty schema
            refs.append(ref)
            counts.append(int(meta.num_rows))
    if not refs:
        # an all-empty sort may lose the schema; fall back to the input's
        schema = sorted_ds.schema() or ds.schema()
        cols = {n: pa.array([], t) for n, t in zip(schema.names, schema.types)}
        cols[rank_col] = pa.array([], pa.int64())
        if shard_size is not None:
            cols[shard_col] = pa.array([], pa.int64())
        return ray.data.from_arrow(pa.table(cols))

    offsets = [0]
    for c in counts[:-1]:
        offsets.append(offsets[-1] + c)

    @ray.remote(num_cpus=1)
    def assign(t: pa.Table, off: int) -> pa.Table:
        rank = np.arange(off, off + t.num_rows, dtype=np.int64)
        t = t.append_column(rank_col, pa.array(rank, pa.int64()))
        if shard_size is not None:
            t = t.append_column(
                shard_col, pa.array(rank // np.int64(shard_size), pa.int64())
            )
        return t

    return ray.data.from_arrow_refs(
        [assign.remote(r, int(o)) for r, o in zip(refs, offsets)]
    )
