"""The composed pre-training data-prep pipeline as a library entry point.

This is the flow a user of the engine actually runs over a crawled corpus
(previously embedded in the driver contract's ``docs_pipeline`` query,
which now delegates here): row-local quality gates (language, minimum
length, Gopher repetition, benchmark decontamination) → MinHash near-dup
clusters over the survivors → one canonical doc per cluster →
deterministic content-hash train/val/test split.

Scale notes: the gates are one streaming pass (a single tokenization per
doc feeds both the repetition signal and the decontamination overlap —
the eval-set shingle hashes broadcast once via ``ray.put``); the ONE extra
single-key exchange performs BOTH the cluster-label attach and the split
carry (pad → union → groupby), so no driver-side keep/drop sets exist at
any point. Output: (doc_id, split) for the surviving canonical docs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def prep_docs(
    docs,
    *,
    eval_hashes: np.ndarray | None = None,
    lang: str | None = "en",
    min_words: int = 10,
    threshold: float = 0.8,
    fractions: dict[str, float] | None = None,
    sort: bool = True,
):
    """Run the composed prep flow over a documents Dataset.

    ``docs`` needs columns (doc_id:int64, text:string, lang:string —
    ``lang`` ignored when the gate is disabled with ``lang=None``).
    ``eval_hashes`` is the sorted benchmark shingle-hash array from
    :func:`urlmap_ray.functions.decontam.eval_ngram_hashes`; ``None``
    disables the decontamination gate (the other gates still run).
    Returns a Dataset (doc_id, split), globally sorted by doc_id unless
    ``sort=False`` (skip it when the consumer re-shuffles anyway, e.g. a
    partitioned write).
    """
    import ray
    from ray.data.aggregate import Max, Min

    from urlmap_ray.functions import dedup as dd
    from urlmap_ray.functions import sampling as sp
    from urlmap_ray.functions.components import connected_components
    from urlmap_ray.functions.decontam import gate_batch

    fractions = fractions or {"train": 0.8, "val": 0.1, "test": 0.1}
    ev_ref = ray.put(
        eval_hashes if eval_hashes is not None else np.array([], dtype=np.uint64)
    )

    def gate(b: pa.Table) -> pa.Table:
        # vectorized metadata gate first, then the fused row-local gate
        # (ONE tokenization per doc feeds repetition + overlap)
        if lang is not None:
            b = b.filter(pc.equal(b.column("lang"), lang))
        return gate_batch(b.select(["doc_id", "text"]), ray.get(ev_ref),
                          min_words=min_words)

    cols = ["doc_id", "text"] + (["lang"] if lang is not None else [])
    gated = (
        docs.map_batches(lambda b: b.select(cols), batch_format="pyarrow")
        .map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()  # consumed twice: pair mining + split/label rows
    )
    pairs = dd.dedup_minhash_lsh(gated, threshold=threshold)
    cc = connected_components(pairs)

    def split_rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("doc_id").cast(pa.int64()),
                "comp": b.column("doc_id").cast(pa.int64()),
                "split": b.column("split"),
            }
        )

    def label_rows(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "node" not in b.column_names:
            return pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "comp": pa.array([], pa.int64()),
                    "split": pa.array([], pa.string()),
                }
            )
        return pa.table(
            {
                "node": b.column("node"),
                "comp": b.column("comp"),
                "split": pa.array([""] * b.num_rows, pa.string()),
            }
        )

    fused = (
        sp.hash_split(gated, fractions=fractions)
        .map_batches(split_rows, batch_format="pyarrow")
        .union(cc.map_batches(label_rows, batch_format="pyarrow"))
        .groupby("node")
        .aggregate(Min("comp", alias_name="comp"), Max("split", alias_name="split"))
    )
    out = fused.map_batches(
        lambda b: pa.table(
            {"doc_id": b.column("node"), "split": b.column("split")}
        ).filter(pc.equal(b.column("comp"), b.column("node"))),
        batch_format="pyarrow",
    )
    # the global sort exists for sorted-output consumers (the driver
    # contract); sinks that re-shuffle (partitioned writes) skip it
    return out.sort("doc_id") if sort else out
