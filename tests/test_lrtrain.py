"""Distributed LR training (lrtrain.py): bit-identity to the
single-process reference across parallelisms, learning sanity, and the
pinned rounding rule."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from urlmap_ray.functions.lrtrain import (
    _round_div,
    lr_reference,
    lr_train_score,
)


def _toy_table(n: int = 120, seed: int = 7) -> pa.Table:
    # two vocabularies with overlap: label-1 docs draw from good words,
    # label-0 from bad words — separable but not trivially
    rng = np.random.RandomState(seed)
    good = ["clear", "concise", "prose", "structured", "cited", "sourced"]
    bad = ["buy", "click", "cheap", "winner", "casino", "pills"]
    noise = ["the", "and", "of", "page", "text"]
    rows, labels = [], []
    for i in range(n):
        y = i % 2
        vocab = good if y else bad
        words = [vocab[rng.randint(len(vocab))] for _ in range(8)] + [
            noise[rng.randint(len(noise))] for _ in range(4)
        ]
        rng.shuffle(words)
        rows.append(" ".join(words))
        labels.append(y)
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(rows, pa.string()),
            "label": pa.array(labels, pa.int64()),
        }
    )


def _scores(ds, **kw) -> pa.Table:
    # the output order is not promised: compare by id
    return pa.concat_tables(
        lr_train_score(ds, **kw).iter_batches(batch_size=None, batch_format="pyarrow")
    ).sort_by("doc_id")


@pytest.mark.parametrize("n_blocks", [1, 3, 8, "zero_row_block", "more_blocks_than_rows"])
def test_bit_identical_to_reference_any_parallelism(ray_session, n_blocks):
    t = _toy_table()
    want = lr_reference(t, dim=1 << 12, iters=4)
    if n_blocks == "zero_row_block":
        ds = ray.data.from_arrow([t.slice(0, 0), t])
    elif n_blocks == "more_blocks_than_rows":
        ds = ray.data.from_arrow(t).repartition(t.num_rows + 8)
    else:
        ds = ray.data.from_arrow(t).repartition(n_blocks)
    got = _scores(ds, dim=1 << 12, iters=4)
    assert got.equals(want), f"blocks={n_blocks} diverged from reference"


def test_training_learns_the_labels(ray_session):
    t = _toy_table()
    out = lr_reference(t, dim=1 << 12, iters=8)
    pred = out.column("lr_pred").to_numpy(zero_copy_only=False)
    y = t.column("label").to_numpy(zero_copy_only=False)
    acc = float((pred == y).mean())
    assert acc >= 0.95, f"separable toy corpus should fit, got acc={acc}"
    # and scores order by label
    s = out.column("score_ppb").to_numpy(zero_copy_only=False)
    assert s[y == 1].mean() > s[y == 0].mean()


def test_round_div_pinned():
    assert _round_div(7, 2) == 4  # 3.5 → even
    assert _round_div(5, 2) == 2  # 2.5 → even
    assert _round_div(-7, 2) == -4  # -3.5 → even
    assert _round_div(-5, 2) == -2  # -2.5 → even
    assert _round_div(9, 4) == 2
    assert _round_div(11, 4) == 3
    assert _round_div(-9, 4) == -2


def test_empty_and_short_docs(ray_session):
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["", "one", "two words"], pa.string()),
            "label": pa.array([0, 1, 0], pa.int64()),
        }
    )
    want = lr_reference(t, dim=256, iters=2)
    got = _scores(ray.data.from_arrow(t), dim=256, iters=2)
    assert got.equals(want)
    # the empty doc has no features: margin 0 → sigmoid 0.5 → ppb 5e8
    assert got.column("score_ppb")[0].as_py() == 500_000_000
