"""End-to-end engine ⟷ oracle equivalence on the synthetic corpus.

The sequential oracle re-implements the reference's CrawlRecursive
(crawler.go:168-276); the engine must produce the identical visited set,
per-URL depth, and sorted output — through both the driver-local and the
distributed wave paths. Plus: resume-from-checkpoint identity and the
per-row byte-identical text invariant.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from urlmap_ray.config import CrawlConfig
from urlmap_ray.corpus import generate_corpus
from urlmap_ray.extract import extract_links, extract_text
from urlmap_ray.oracle import crawl_sequential, crawl_waves, load_corpus_dict
from urlmap_ray.robotstxt import RobotsIndex

N_PAGES = 400


@pytest.fixture(scope="module")
def corpus_info(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return generate_corpus(str(out), N_PAGES)


@pytest.fixture(scope="module")
def corpus_dict(corpus_info):
    return load_corpus_dict(corpus_info.pages_path)


@pytest.fixture(scope="module")
def robots_index(corpus_info):
    idx = RobotsIndex(CrawlConfig().user_agent)
    tbl = pq.read_table(corpus_info.robots_path)
    for o, c in zip(tbl.column("origin").to_pylist(), tbl.column("content").to_pylist()):
        idx.add(o, c)
    return idx


def _engine(ray_session, corpus_info, cfg, ckpt, **kw):
    from urlmap_ray.pipelines.crawl import CrawlEngine

    return CrawlEngine(corpus_info, cfg, checkpoint_dir=ckpt, seen_shards=2, **kw)


def _depths(engine):
    return {r["url"]: r["depth"] for r in engine.visited_dataset().take_all()}


def test_text_invariant_per_row(corpus_info):
    """Every corpus row: extract_text(html) is byte-identical to text, and
    link extraction is deterministic (per-row invariant from input_hint)."""
    tbl = pads.dataset(corpus_info.pages_path, format="parquet").to_table()
    for url, html, text in zip(
        tbl.column("url").to_pylist(),
        tbl.column("html").to_pylist(),
        tbl.column("text").to_pylist(),
    ):
        assert extract_text(html) == text, url
        assert extract_links(url, html) == extract_links(url, html)


def test_engine_matches_sequential_oracle(ray_session, corpus_info, corpus_dict, tmp_path):
    oracle = crawl_sequential(corpus_dict, corpus_info.seeds[0])
    eng = _engine(ray_session, corpus_info, CrawlConfig(), str(tmp_path / "ck"))
    eng.crawl(corpus_info.seeds[0])
    assert eng.visited_urls() == oracle.output_urls
    assert _depths(eng) == {r.url: r.depth for r in oracle.results}


def test_distributed_path_matches(ray_session, corpus_info, corpus_dict, tmp_path):
    oracle = crawl_sequential(corpus_dict, corpus_info.seeds[0])
    eng = _engine(
        ray_session, corpus_info, CrawlConfig(), str(tmp_path / "ck"), small_wave_rows=0
    )
    out = eng.crawl(corpus_info.seeds[0])
    assert all(w.mode == "ray" for w in out.waves)
    assert eng.visited_urls() == oracle.output_urls
    assert _depths(eng) == {r.url: r.depth for r in oracle.results}


def test_max_depth(ray_session, corpus_info, corpus_dict, tmp_path):
    cfg = CrawlConfig(max_depth=3)
    oracle = crawl_sequential(corpus_dict, corpus_info.seeds[0], cfg)
    eng = _engine(ray_session, corpus_info, cfg, str(tmp_path / "ck"))
    eng.crawl(corpus_info.seeds[0])
    assert eng.visited_urls() == oracle.output_urls


def test_budget_and_robots(ray_session, corpus_info, corpus_dict, robots_index, tmp_path):
    cfg = CrawlConfig(per_host_budget=20, respect_robots=True, max_depth=8)
    oracle = crawl_waves(corpus_dict, corpus_info.seeds[0], cfg, robots=robots_index)
    eng = _engine(
        ray_session, corpus_info, cfg, str(tmp_path / "ck"), wave_seconds=1e9
    )
    out = eng.crawl(corpus_info.seeds[0])
    assert sum(w.deferred for w in out.waves) > 0  # budget actually bit
    assert sum(w.skipped_robots for w in out.waves) >= 0
    assert eng.visited_urls() == oracle.output_urls


def test_budget_set_invariance(corpus_dict, corpus_info, robots_index):
    """The politeness budget must never change WHICH urls are crawled."""
    free = crawl_waves(corpus_dict, corpus_info.seeds[0])
    tight = crawl_waves(corpus_dict, corpus_info.seeds[0], CrawlConfig(per_host_budget=5))
    assert free.output_urls == tight.output_urls


# Placements for the resume tests: every wave in the driver; every wave on
# Ray with the seen set on its actors from the restore on (driver_sort_limit
# 0); and a crawl that switches from driver to Ray part-way (small_wave_rows
# 15 sits inside this corpus's frontier sizes). Each resumes a prefix written
# under the other placement, so journals written in the driver are restored
# on actors and vice versa.
RESUME_PLACEMENTS = [
    pytest.param(1000, None, {"local"}, id="driver"),
    pytest.param(0, 0, {"ray"}, id="ray"),
    pytest.param(15, None, {"local", "ray"}, id="mixed"),
]


def _placed_engine(ray_session, corpus_info, cfg, ckpt, small_wave_rows, sort_limit, **kw):
    eng = _engine(ray_session, corpus_info, cfg, ckpt, small_wave_rows=small_wave_rows, **kw)
    if sort_limit is not None:
        eng.driver_sort_limit = sort_limit
    return eng


@pytest.mark.parametrize("small_wave_rows,sort_limit,modes", RESUME_PLACEMENTS)
def test_resume_identical(
    ray_session, corpus_info, corpus_dict, tmp_path, small_wave_rows, sort_limit, modes
):
    oracle = crawl_sequential(corpus_dict, corpus_info.seeds[0])
    ck = str(tmp_path / "ck")
    eng = _engine(
        ray_session, corpus_info, CrawlConfig(), ck, small_wave_rows=0 if small_wave_rows else 1000
    )
    out = eng.crawl(corpus_info.seeds[0])
    n_waves = len(out.waves)
    assert n_waves >= 4
    # Simulate a crash after wave k: drop later waves + a half-written one.
    for d in range(3, n_waves):
        shutil.rmtree(os.path.join(ck, f"wave-{d:04d}"))
    half = os.path.join(ck, f"wave-{3:04d}")
    os.makedirs(os.path.join(half, "results"), exist_ok=True)  # no manifest → incomplete
    # ... and a torn manifest in the last wave kept: that wave is incomplete too
    manifest = os.path.join(ck, f"wave-{2:04d}", "manifest.json")
    with open(manifest, "r+") as f:
        f.truncate(len(f.read()) // 2)
    eng2 = _placed_engine(
        ray_session, corpus_info, CrawlConfig(), ck, small_wave_rows, sort_limit
    )
    out2 = eng2.crawl(corpus_info.seeds[0], resume=True)
    assert [w.wave for w in out2.waves] == list(range(n_waves))
    assert {w.mode for w in out2.waves[2:]} == modes
    assert eng2.visited_urls() == oracle.output_urls


def test_resume_with_different_shard_count(
    ray_session, corpus_info, corpus_dict, tmp_path, monkeypatch
):
    """Restore works when the resuming set has a DIFFERENT shard count than
    the one that wrote the journals — shards then re-route by the current
    hash layout: in the driver for a small checkpoint, and shard-locally on
    the actors (paths shipped, URLs never relayed through the driver) above
    driver_sort_limit."""
    from urlmap_ray.pipelines.crawl import CrawlEngine
    from urlmap_ray.state.seen import SeenShard

    oracle = crawl_sequential(corpus_dict, corpus_info.seeds[0])
    ck = str(tmp_path / "ck")
    eng = _engine(ray_session, corpus_info, CrawlConfig(), ck)  # seen_shards=2
    out = eng.crawl(corpus_info.seeds[0])
    n_waves = len(out.waves)
    for d in range(3, n_waves):
        shutil.rmtree(os.path.join(ck, f"wave-{d:04d}"))
    ck_actors = str(tmp_path / "ck_actors")
    shutil.copytree(ck, ck_actors)

    filter_mods = []
    orig = SeenShard.bulk_load_files

    def spy(self, paths, filter_mod=None):
        filter_mods.append(filter_mod)
        return orig(self, paths, filter_mod)

    monkeypatch.setattr(SeenShard, "bulk_load_files", spy)
    eng2 = CrawlEngine(corpus_info, CrawlConfig(), checkpoint_dir=ck, seen_shards=3)
    eng2.crawl(corpus_info.seeds[0], resume=True)
    assert filter_mods == [3, 3, 3]  # in the driver, re-layout branch
    assert eng2.visited_urls() == oracle.output_urls

    eng3 = CrawlEngine(corpus_info, CrawlConfig(), checkpoint_dir=ck_actors, seen_shards=3)
    eng3.driver_sort_limit = 0
    eng3.crawl(corpus_info.seeds[0], resume=True)
    assert filter_mods == [3, 3, 3]  # the actors loaded their own files
    assert eng3.visited_urls() == oracle.output_urls


def test_driver_side_crawl_never_distributes(
    ray_session, corpus_info, corpus_dict, tmp_path, monkeypatch
):
    """A crawl whose waves all run in the driver, and its resume, keep the
    seen set in the driver: no shard actor is started."""
    from urlmap_ray.state.seen import SeenSet

    calls = []
    distribute = SeenSet.distribute

    def counted(self):
        calls.append(self)
        return distribute(self)

    monkeypatch.setattr(SeenSet, "distribute", counted)
    oracle = crawl_sequential(corpus_dict, corpus_info.seeds[0])
    ck = str(tmp_path / "ck")
    eng = _engine(ray_session, corpus_info, CrawlConfig(), ck)
    out = eng.crawl(corpus_info.seeds[0])
    assert {w.mode for w in out.waves} == {"local"}
    for d in range(3, len(out.waves)):
        shutil.rmtree(os.path.join(ck, f"wave-{d:04d}"))
    eng2 = _engine(ray_session, corpus_info, CrawlConfig(), ck)
    eng2.crawl(corpus_info.seeds[0], resume=True)
    assert eng2.visited_urls() == oracle.output_urls
    assert calls == []


def test_resume_after_lost_output_file(ray_session, corpus_info, corpus_dict, tmp_path):
    """A wave whose manifest lists an output file that is gone is
    incomplete: resume removes it and every later wave, and crawls them
    again to the same visited set."""
    ck = str(tmp_path / "ck")
    eng = _engine(ray_session, corpus_info, CrawlConfig(), ck)
    out = eng.crawl(corpus_info.seeds[0])
    assert {w.mode for w in out.waves} == {"local"}
    expected = eng.visited_urls()
    assert expected == crawl_sequential(corpus_dict, corpus_info.seeds[0]).output_urls
    n_waves = len(out.waves)
    assert n_waves >= 4
    mid = os.path.join(ck, f"wave-{n_waves // 2:04d}", "results")
    fetched = [f for f in sorted(os.listdir(mid)) if f != "part-rest.parquet"]
    assert fetched
    os.remove(os.path.join(mid, fetched[0]))
    eng2 = _engine(ray_session, corpus_info, CrawlConfig(), ck)
    out2 = eng2.crawl(corpus_info.seeds[0], resume=True)
    assert [w.wave for w in out2.waves] == list(range(n_waves))
    assert eng2.visited_urls() == expected


def test_wave_stats_consistency(ray_session, corpus_info, corpus_dict, tmp_path):
    ck = str(tmp_path / "ck")
    eng = _engine(ray_session, corpus_info, CrawlConfig(), ck)
    out = eng.crawl(corpus_info.seeds[0])
    oracle = crawl_sequential(corpus_dict, corpus_info.seeds[0])
    assert out.total_results == len(oracle.results)
    failed = sum(w.failed for w in out.waves)
    assert failed == sum(1 for r in oracle.results if r.status != 200)
    # The step seconds cover the wave: plan + execute + finalize lie inside
    # ``seconds``, and the seen checkpoint is timed after it.
    steps = {"plan", "execute", "finalize", "checkpoint"}
    assert all(set(w.stages) == steps for w in out.waves)
    staged = sum(sum(w.stages.values()) for w in out.waves)
    total = sum(w.seconds + w.stages["checkpoint"] for w in out.waves)
    assert 0.9 * total <= staged <= total
    # They reach the manifests, and manifests written without them restore.
    manifests = [os.path.join(ck, f"wave-{w.wave:04d}", "manifest.json") for w in out.waves]
    for path, w in zip(manifests, out.waves):
        with open(path) as f:
            m = json.load(f)
        assert m["stats"]["stages"] == w.stages
        del m["stats"]["stages"]
        with open(path, "w") as f:
            json.dump(m, f)
    resumed = _engine(ray_session, corpus_info, CrawlConfig(), ck).crawl(
        corpus_info.seeds[0], resume=True
    )
    assert len(resumed.waves) == len(out.waves)
    assert all(w.stages == {} for w in resumed.waves)


def test_driver_side_waves_record_stage_spans(ray_session, corpus_info, tmp_path):
    """In-process counterpart of perfbench's worker-side span test: with
    every wave folded in the driver, the traced stage functions record their
    spans in the driver process. A stage function bound before the tracer
    patched the module would record nothing."""
    from perfbench import trace

    trace_dir = str(tmp_path / "trace")
    os.makedirs(trace_dir)
    cfg = CrawlConfig(per_host_budget=20, respect_robots=True)
    uninstall = trace.install(trace.Recorder(trace_dir))
    try:
        eng = _engine(ray_session, corpus_info, cfg, str(tmp_path / "ck"), wave_seconds=1e9)
        out = eng.crawl(corpus_info.seeds[0])
    finally:
        uninstall()
    assert {w.mode for w in out.waves} == {"local"}
    driver = {s["name"] for s in trace.load_spans(trace_dir) if s["pid"] == os.getpid()}
    assert {"gate", "fetch", "extract", "flatten", "claim"} <= driver


def test_multi_seed(ray_session, corpus_info, corpus_dict, tmp_path):
    """Seed-list crawl = union of per-host BFS trees, shared waves."""
    seeds = corpus_info.seeds  # distinct hosts
    oracle = crawl_sequential(corpus_dict, seeds)
    eng = _engine(ray_session, corpus_info, CrawlConfig(), str(tmp_path / "ck"))
    eng.crawl(seeds)
    assert eng.visited_urls() == oracle.output_urls
    assert _depths(eng) == {r.url: r.depth for r in oracle.results}


def test_salted_budget_same_visited_set(ray_session, corpus_info, corpus_dict, tmp_path):
    """Hot-host salting splits the budgeted gate's groups; the final
    visited set must be unchanged (budget deferral never drops URLs)."""
    base_cfg = CrawlConfig(per_host_budget=20, respect_robots=True, max_depth=8)
    salted_cfg = CrawlConfig(
        per_host_budget=20, respect_robots=True, max_depth=8, hot_host_salt=4
    )
    e1 = _engine(ray_session, corpus_info, base_cfg, str(tmp_path / "a"), wave_seconds=1e9)
    e1.crawl(corpus_info.seeds[0])
    e2 = _engine(ray_session, corpus_info, salted_cfg, str(tmp_path / "b"), wave_seconds=1e9)
    out2 = e2.crawl(corpus_info.seeds[0])
    assert e1.visited_urls() == e2.visited_urls()
    # salting really split groups: deferrals still happened deterministically
    e3 = _engine(ray_session, corpus_info, salted_cfg, str(tmp_path / "c"), wave_seconds=1e9)
    out3 = e3.crawl(corpus_info.seeds[0])
    assert [w.admitted for w in out2.waves] == [w.admitted for w in out3.waves]


def test_distributed_budget_matches_oracle(
    ray_session, corpus_info, corpus_dict, robots_index, tmp_path
):
    """Budgeted+salted waves on the DISTRIBUTED path (bucketed host groupby)
    must equal the wave oracle exactly, like the local path does."""
    plain_cfg = CrawlConfig(per_host_budget=20, respect_robots=True, max_depth=8)
    salted_cfg = CrawlConfig(
        per_host_budget=20, respect_robots=True, max_depth=8, hot_host_salt=4
    )
    # sort_limit=None → hybrid path (driver-side gate); 0 → the fully
    # distributed path (bucketed groupby gate + distributed sort).
    visited = {}
    for name, cfg, sort_limit in [
        ("plain", plain_cfg, None),
        ("salted", salted_cfg, None),
        ("plain-dist", plain_cfg, 0),
        ("salted-dist", salted_cfg, 0),
    ]:
        eng = _engine(
            ray_session,
            corpus_info,
            cfg,
            str(tmp_path / name),
            wave_seconds=1e9,
            small_wave_rows=0,
        )
        if sort_limit is not None:
            eng.driver_sort_limit = sort_limit
        out = eng.crawl(corpus_info.seeds[0])
        assert all(w.mode == "ray" for w in out.waves)
        visited[name] = eng.visited_urls()
    oracle = crawl_waves(corpus_dict, corpus_info.seeds[0], plain_cfg, robots=robots_index)
    assert visited["plain"] == oracle.output_urls
    # the fully distributed path must agree with the oracle too
    assert visited["plain-dist"] == oracle.output_urls
    # salting must not change the visited set (deferral only delays), and
    # both physical strategies must agree for the same salted config
    assert visited["salted"] == visited["plain"]
    assert visited["salted-dist"] == visited["salted"]


@pytest.mark.parametrize("small_wave_rows,sort_limit,modes", RESUME_PLACEMENTS)
def test_budget_resume_identical(
    ray_session, corpus_info, tmp_path, small_wave_rows, sort_limit, modes
):
    """Kill-and-resume mid-crawl under a politeness budget: final visited
    set and depths must equal the uninterrupted run's."""
    cfg = CrawlConfig(per_host_budget=20, respect_robots=True)
    ck = str(tmp_path / "ck")
    eng = _engine(
        ray_session,
        corpus_info,
        cfg,
        ck,
        wave_seconds=1e9,
        small_wave_rows=0 if small_wave_rows else 1000,
    )
    out = eng.crawl(corpus_info.seeds[0])
    want_urls, want_depths = eng.visited_urls(), _depths(eng)
    n_waves = len(out.waves)
    assert n_waves >= 4
    cut = n_waves // 2
    for d in range(cut, n_waves):
        shutil.rmtree(os.path.join(ck, f"wave-{d:04d}"))
    os.makedirs(os.path.join(ck, f"wave-{cut:04d}", "results"), exist_ok=True)
    eng2 = _placed_engine(
        ray_session, corpus_info, cfg, ck, small_wave_rows, sort_limit, wave_seconds=1e9
    )
    out2 = eng2.crawl(corpus_info.seeds[0], resume=True)
    assert {w.mode for w in out2.waves[cut:]} == modes
    assert eng2.visited_urls() == want_urls
    assert _depths(eng2) == want_depths


def test_interrupt_partial_then_resume(ray_session, corpus_info, corpus_dict, tmp_path):
    """request_stop() at a wave boundary: completed waves stay valid partial
    output and resume=True finishes the crawl identically (main.go:182-220)."""
    oracle = crawl_sequential(corpus_dict, corpus_info.seeds[0])
    ck = str(tmp_path / "ck")
    eng = _engine(ray_session, corpus_info, CrawlConfig(), ck)
    orig = eng._checkpoint_seen_and_manifest

    def hook(d, *a, **kw):
        r = orig(d, *a, **kw)
        if d >= 1:
            eng.request_stop()
        return r

    eng._checkpoint_seen_and_manifest = hook
    out = eng.crawl(corpus_info.seeds[0])
    assert out.interrupted
    assert [w.wave for w in out.waves] == [0, 1]
    partial = eng.visited_urls()
    assert partial == sorted(partial)
    assert set(partial) < set(oracle.output_urls)

    eng2 = _engine(ray_session, corpus_info, CrawlConfig(), ck)
    out2 = eng2.crawl(corpus_info.seeds[0], resume=True)
    assert not out2.interrupted
    assert [w.wave for w in out2.waves][:2] == [0, 1]
    assert eng2.visited_urls() == oracle.output_urls


def test_error_status_pages_gate_extraction(ray_session, corpus_info, corpus_dict, tmp_path):
    """4xx/5xx corpus pages are visited but never parsed (crawler.go:331-334):
    the oracle crawl must actually hit some, the engine must report them as
    failed, and the union of all extracted links must not include any link
    reachable ONLY through an error page."""
    oracle = crawl_sequential(corpus_dict, corpus_info.seeds[0])
    errs = [r for r in oracle.results if r.status >= 400]
    assert errs, "corpus must contain reachable error pages (gate would be vacuous)"
    assert all(r.links == [] and r.error is not None for r in errs)

    eng = _engine(ray_session, corpus_info, CrawlConfig(), str(tmp_path / "ck"))
    out = eng.crawl(corpus_info.seeds[0])
    assert eng.visited_urls() == oracle.output_urls
    # engine failed counter covers misses (status 0) AND error statuses
    n_failed_oracle = sum(1 for r in oracle.results if r.status != 200)
    assert sum(w.failed for w in out.waves) == n_failed_oracle
    # per-row: error rows kept their status in the results checkpoint
    rows = {r["url"]: r["status"] for r in eng.visited_dataset().take_all()}
    for r in errs:
        assert rows[r.url] == r.status


# -- transient-failure retries (client.go:63-83 as data, VERDICT r2 #6) ----


@pytest.fixture(scope="module")
def transient_info(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_transient")
    return generate_corpus(str(out), N_PAGES, transient_rate=0.10)


@pytest.fixture(scope="module")
def transient_dict(transient_info):
    return load_corpus_dict(transient_info.pages_path)


def test_transient_corpus_shape(transient_info, corpus_info):
    """flaky_fails hits only non-root 200 pages, and flakiness never
    perturbs base content: html/text bytes equal the stable corpus's."""
    tbl = pads.dataset(transient_info.pages_path, format="parquet").to_table()
    flaky = {
        u: f
        for u, f, s in zip(
            tbl.column("url").to_pylist(),
            tbl.column("flaky_fails").to_pylist(),
            tbl.column("status").to_pylist(),
        )
        if f
    }
    assert flaky, "transient_rate=0.10 over 400 pages must mark some pages"
    assert set(flaky.values()) <= {1, 2, 3}
    statuses = dict(zip(tbl.column("url").to_pylist(), tbl.column("status").to_pylist()))
    for u in flaky:
        assert statuses[u] == 200 and not u.endswith("/")
    base = pads.dataset(corpus_info.pages_path, format="parquet").to_table()
    a = {u: h for u, h in zip(tbl.column("url").to_pylist(), tbl.column("html").to_pylist())}
    b = {u: h for u, h in zip(base.column("url").to_pylist(), base.column("html").to_pylist())}
    assert a == b


def _final_by_url(oracle):
    return {r.url: (r.depth, r.status, r.attempt) for r in oracle.results}


def test_transient_oracles_agree(transient_dict, transient_info):
    """Immediate-retry (sequential) and wave-level re-enqueue (waves) reach
    the same final (status, attempt) per URL — retries change timing, not
    outcomes, on an unbudgeted crawl."""
    cfg = CrawlConfig()
    seq = crawl_sequential(transient_dict, transient_info.seeds[0], cfg)
    wav = crawl_waves(transient_dict, transient_info.seeds[0], cfg)
    assert _final_by_url(seq) == _final_by_url(wav)
    attempts = [r.attempt for r in wav.results]
    assert max(attempts) == 3
    exhausted = [r for r in wav.results if r.status == 503 and r.attempt == 3]
    recovered = [r for r in wav.results if r.status == 200 and r.attempt > 1]
    assert exhausted and recovered


@pytest.fixture(scope="module")
def transient_info_1600(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_transient_1600")
    return generate_corpus(str(out), 1600, transient_rate=0.10)


@pytest.mark.parametrize(
    "corpus,small_wave_rows",
    [
        pytest.param("transient_info", 1000, id="1000"),
        pytest.param("transient_info", 0, id="0"),
        # Retries re-enter the frontier at their original depth, so Ray waves
        # mix depths; at this size some URLs are proposed by two blocks at
        # different depths, and only the wave min-depth groupby keeps the
        # oracle's (claim order alone leaves them one or two levels deeper).
        pytest.param("transient_info_1600", 0, id="0-1600"),
    ],
)
def test_transient_engine_matches_oracle(ray_session, request, tmp_path, corpus, small_wave_rows):
    """Engine (driver-local and distributed paths) reproduces the wave
    oracle exactly on a flaky corpus: same visited set, per-URL depth,
    final status AND final attempt count."""
    info = request.getfixturevalue(corpus)
    cfg = CrawlConfig()
    oracle = crawl_waves(load_corpus_dict(info.pages_path), info.seeds[0], cfg)
    eng = _engine(
        ray_session,
        info,
        cfg,
        str(tmp_path / f"ck{small_wave_rows}"),
        small_wave_rows=small_wave_rows,
    )
    out = eng.crawl(info.seeds[0])
    got = {
        r["url"]: (r["depth"], r["status"], r["attempt"])
        for r in eng.visited_dataset(with_attempt=True).take_all()
    }
    assert got == _final_by_url(oracle)
    assert sum(w.retried for w in out.waves) == sum(
        r.attempt - 1 for r in oracle.results
    )


def test_sub_wave_ticker_emits_progress(ray_session, corpus_info, tmp_path):
    """VERDICT r2 #5: during a distributed wave the on_tick hook fires
    periodically with fetch progress (reference progress.go:200-254)."""
    from urlmap_ray.pipelines.crawl import CrawlEngine

    ticks = []
    eng = CrawlEngine(
        corpus_info,
        CrawlConfig(),
        checkpoint_dir=str(tmp_path / "ck"),
        seen_shards=2,
        small_wave_rows=0,  # force the distributed path even on tiny waves
        on_tick=ticks.append,
        tick_seconds=0.05,
    )
    eng.crawl(corpus_info.seeds[0])
    assert ticks, "distributed waves must emit sub-wave ticks"
    for t in ticks:
        assert set(t) == {"wave", "elapsed", "frontier", "fetched", "rate"}
        assert t["elapsed"] > 0 and t["fetched"] >= 0
    # fetched is monotone within a wave
    by_wave = {}
    for t in ticks:
        by_wave.setdefault(t["wave"], []).append(t["fetched"])
    for seq in by_wave.values():
        assert seq == sorted(seq)


# -- priority-queue admission (north_rule "politeness/priority queue") -----


def test_priority_shallow_engine_matches_oracle(
    ray_session, corpus_info, corpus_dict, tmp_path
):
    """Budgeted crawl with shallow-first per-host admission: engine
    (hybrid budget path) == wave oracle on visited set, depth and status."""
    cfg = CrawlConfig(per_host_budget=25, priority="shallow")
    oracle = crawl_waves(corpus_dict, corpus_info.seeds[0], cfg)
    eng = _engine(ray_session, corpus_info, cfg, str(tmp_path / "ck"))
    eng.crawl(corpus_info.seeds[0])
    got = {
        r["url"]: (r["depth"], r["status"])
        for r in eng.visited_dataset().take_all()
    }
    assert got == {r.url: (r.depth, r.status) for r in oracle.results}


def test_priority_changes_schedule_not_set(corpus_dict, corpus_info):
    """Without a depth limit, priority reorders waves but budget deferral
    never drops URLs: the visited SET is priority-invariant; the schedule
    (claim depths / wave count) genuinely differs."""
    url_cfg = CrawlConfig(per_host_budget=25, priority="url")
    sh_cfg = CrawlConfig(per_host_budget=25, priority="shallow")
    a = crawl_waves(corpus_dict, corpus_info.seeds[0], url_cfg)
    b = crawl_waves(corpus_dict, corpus_info.seeds[0], sh_cfg)
    assert {r.url for r in a.results} == {r.url for r in b.results}
    assert {r.url: r.status for r in a.results} == {r.url: r.status for r in b.results}


def test_priority_guard():
    import pytest as _pytest

    from urlmap_ray.stages.politeness import PolitenessGate

    with _pytest.raises(ValueError):
        PolitenessGate({}, "ua", 10, False, -1, priority="bogus")


@pytest.mark.parametrize("sort_limit", [None, 0])
def test_transient_budget_paths_match_oracle(
    ray_session, transient_info, transient_dict, robots_index, tmp_path, sort_limit
):
    """Transient retries interleaved with budget deferral: retry rows must
    survive the hybrid (driver-gate) AND fully-distributed budget paths —
    engine equals the wave oracle on (depth, status, attempt) per URL."""
    cfg = CrawlConfig(per_host_budget=20, respect_robots=True)
    oracle = crawl_waves(
        transient_dict, transient_info.seeds[0], cfg, robots=robots_index
    )
    eng = _engine(
        ray_session,
        transient_info,
        cfg,
        str(tmp_path / f"ck{sort_limit}"),
        wave_seconds=1e9,
        small_wave_rows=0,
    )
    if sort_limit is not None:
        eng.driver_sort_limit = sort_limit
    eng.crawl(transient_info.seeds[0])
    got = {
        r["url"]: (r["depth"], r["status"], r["attempt"])
        for r in eng.visited_dataset(with_attempt=True).take_all()
    }
    assert got == _final_by_url(oracle)
