"""Connected components: distributed large-star/small-star vs a
single-process union-find reference, across adversarial graph shapes."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from urlmap_ray.functions.components import attach_components, connected_components


def _union_find(pairs: list[tuple[int, int]]) -> dict[int, int]:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # fully compress, then relabel every node to its component MIN
    roots = {x: find(x) for x in list(parent)}
    comp_min: dict[int, int] = {}
    for x, r in roots.items():
        comp_min[r] = min(comp_min.get(r, x), x)
    return {x: comp_min[r] for x, r in roots.items()}


def _pairs_ds(pairs: list[tuple[int, int]]):
    a = pa.array([p[0] for p in pairs], pa.int64())
    b = pa.array([p[1] for p in pairs], pa.int64())
    return ray.data.from_arrow(pa.table({"a": a, "b": b}))


def _labels(ds) -> dict[int, int]:
    t = pa.concat_tables(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    return dict(
        zip(
            t.column("node").to_pylist(),
            t.column("comp").to_pylist(),
        )
    )


GRAPHS = {
    # a long chain is the adversarial case for plain label propagation
    "chain": [(i, i + 1) for i in range(40)],
    "reverse_chain": [(i + 1, i) for i in range(40)],
    "two_components": [(0, 1), (1, 2), (10, 11), (12, 11)],
    "star": [(5, i) for i in range(6, 20)],
    "with_duplicates": [(3, 7), (7, 3), (3, 7), (7, 9)],
    "triangle_plus_isolated_edge": [(2, 4), (4, 8), (8, 2), (100, 101)],
    "single_edge": [(42, 7)],
}


@pytest.mark.parametrize("threshold", [0, 65_536], ids=["distributed", "driver"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_components_match_union_find(ray_session, name, threshold):
    pairs = GRAPHS[name]
    got = _labels(
        connected_components(_pairs_ds(pairs), buckets=8, driver_threshold=threshold)
    )
    assert got == _union_find(pairs)


def test_components_random_graphs(ray_session):
    rng = np.random.default_rng(1234)
    for trial in range(3):
        n = 120
        m = int(rng.integers(20, 140))
        a = rng.integers(0, n, size=m)
        b = rng.integers(0, n, size=m)
        keep = a != b
        pairs = list(zip(a[keep].tolist(), b[keep].tolist()))
        got = _labels(
            connected_components(_pairs_ds(pairs), buckets=16, driver_threshold=0)
        )
        assert got == _union_find(pairs), f"trial {trial}"


def test_components_contraction_across_batches(ray_session):
    """A chain split across many blocks: local contraction collapses the
    within-block runs to stars, the global rounds must still merge across
    blocks to the single component min."""
    pairs = [(i, i + 1) for i in range(60)]
    for blocks in (8, 64):  # 64 > pairs: zero-row blocks too
        ds = _pairs_ds(pairs).repartition(blocks)
        got = _labels(connected_components(ds, buckets=8, driver_threshold=0))
        assert got == _union_find(pairs), f"{blocks} blocks"
        assert set(got.values()) == {0}


def test_components_empty(ray_session):
    ds = _pairs_ds([])
    assert connected_components(ds).count() == 0
    with pytest.raises(ValueError, match="got 0"):
        connected_components(_pairs_ds([(1, 2)]), buckets=0)


def test_attach_components_labels_singletons(ray_session):
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(range(10)), pa.int64())})
    )
    cc = connected_components(_pairs_ds([(1, 4), (4, 9), (2, 3)]), buckets=4)
    out = pa.concat_tables(
        attach_components(docs, cc).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    got = dict(zip(out.column("doc_id").to_pylist(), out.column("comp").to_pylist()))
    assert got == {0: 0, 1: 1, 2: 2, 3: 2, 4: 1, 5: 5, 6: 6, 7: 7, 8: 8, 9: 1}


def test_url_components_modes_and_singletons(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.components import url_components

    # two chains + one isolated node: {a,b,c} via a→b→c, {d,e}, {f} alone
    urls = [f"https://h.example/{x}" for x in "abcdef"]
    edges = pa.table(
        {
            "src": pa.array([urls[0], urls[1], urls[3]], pa.string()),
            "dst": pa.array([urls[1], urls[2], urls[4]], pa.string()),
        }
    )
    nodes = pa.table({"url": pa.array(urls, pa.string())})
    out = {
        r["url"]: r["comp"]
        for r in url_components(
            ray.data.from_arrow(edges).repartition(2),
            ray.data.from_arrow(nodes).repartition(3),
        ).take_all()
    }
    h = (pd.util.hash_array(np.asarray(urls, dtype=object)) >> np.uint64(1)).astype(
        np.int64
    )
    hm = dict(zip(urls, (int(v) for v in h)))
    assert out[urls[0]] == out[urls[1]] == out[urls[2]] == min(
        hm[u] for u in urls[:3]
    )
    assert out[urls[3]] == out[urls[4]] == min(hm[urls[3]], hm[urls[4]])
    assert out[urls[5]] == hm[urls[5]]  # singleton labels itself
    # the forced-distributed star rounds produce identical labels
    out2 = {
        r["url"]: r["comp"]
        for r in url_components(
            ray.data.from_arrow(edges),
            ray.data.from_arrow(nodes),
            driver_threshold=0,
            buckets=4,
        ).take_all()
    }
    assert out2 == out
