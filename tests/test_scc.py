"""SCC (FW-BW coloring) + bow-tie decomposition (functions/scc.py).

Ground truth is the single-process iterative Tarjan / BFS references;
the distributed modes must match exactly (representative = min member
url — a set-valued contract, no float seams)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from urlmap_ray.corpus import generate_corpus
from urlmap_ray.extract import extract_links
from urlmap_ray.functions.scc import (
    bowtie,
    bowtie_reference,
    scc,
    scc_reference,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("scccorpus")
    return generate_corpus(str(out), 120)


@pytest.fixture(scope="module")
def truth(corpus):
    tbl = pads.dataset(corpus.pages_path, format="parquet").to_table(
        columns=["url", "html"]
    )
    urls = tbl.column("url").to_pylist()
    links = {
        u: (extract_links(u, h) if h is not None else [])
        for u, h in zip(urls, tbl.column("html").to_pylist())
    }
    return urls, links


def _ds_pair(corpus):
    import ray.data

    pages = ray.data.read_parquet(corpus.pages_path, columns=["url", "html"])
    nodes = ray.data.read_parquet(corpus.pages_path, columns=["url"])
    return pages, nodes


def _toy_graph():
    """a→{b,c,d cycle}→e; f→g tendril pair; h isolated — covers all four
    bow-tie regions (in / core / out / other)."""
    import ray.data

    def u(x):
        return f"https://toy.example/{x}"

    edges = {
        "a": ["b"],
        "b": ["c"],
        "c": ["d"],
        "d": ["b", "e"],
        "e": [],
        "f": ["g"],
        "g": [],
        "h": [],
    }
    urls = [u(x) for x in edges]
    htmls = [
        "".join(f'<a href="{u(d)}">x</a>' for d in dsts).encode()
        for dsts in edges.values()
    ]
    pages = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )
    )
    nodes = ray.data.from_arrow(pa.table({"url": pa.array(urls, pa.string())}))
    links = {u(x): [u(d) for d in dsts] for x, dsts in edges.items()}
    return pages, nodes, urls, links, u


def test_scc_both_modes_match_tarjan(ray_session, corpus, truth):
    urls, links = truth
    want = scc_reference(urls, links)
    pages, nodes = _ds_pair(corpus)
    for mode in ("broadcast", "shuffle"):
        for nb in (None, 1, 2, 7):
            got = {
                r["url"]: r["scc_rep"]
                for r in scc(pages, nodes, mode=mode, n_buckets=nb).take_all()
            }
            assert got == want, (mode, nb)
    # non-vacuous: the corpus graph has real multi-node components AND
    # singletons
    from collections import Counter

    sizes = Counter(want.values())
    assert max(sizes.values()) > 1


def test_scc_toy_graph_all_cases(ray_session):
    pages, nodes, urls, links, u = _toy_graph()
    want = scc_reference([x for x in urls], links)
    # the cycle {b,c,d} shares rep b (min member); everyone else is a
    # singleton
    assert want[u("b")] == want[u("c")] == want[u("d")] == u("b")
    assert want[u("a")] == u("a") and want[u("e")] == u("e")
    for mode in ("broadcast", "shuffle"):
        for nb in (None, 1, 2, 7):
            got = {
                r["url"]: r["scc_rep"]
                for r in scc(pages, nodes, mode=mode, n_buckets=nb).take_all()
            }
            assert got == want, (mode, nb)


def test_bowtie_matches_reference(ray_session, corpus, truth):
    urls, links = truth
    want = bowtie_reference(urls, links)
    pages, nodes = _ds_pair(corpus)
    for mode in ("broadcast", "shuffle"):
        got = {r["url"]: r["region"] for r in bowtie(pages, nodes, mode=mode).take_all()}
        assert got == want, mode
    assert "core" in set(want.values())


def test_bowtie_toy_graph_all_regions(ray_session):
    pages, nodes, urls, links, u = _toy_graph()
    want = bowtie_reference([x for x in urls], links)
    assert want == {
        u("a"): "in",
        u("b"): "core",
        u("c"): "core",
        u("d"): "core",
        u("e"): "out",
        u("f"): "other",
        u("g"): "other",
        u("h"): "other",
    }
    for mode in ("broadcast", "shuffle"):
        got = {r["url"]: r["region"] for r in bowtie(pages, nodes, mode=mode).take_all()}
        assert got == want, mode
