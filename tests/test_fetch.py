"""The corpus fetch stage against a full-read reference join, and its
per-process decoded row-group cache: row-group selection, staleness on
rewrite, decode-once in a driver-side crawl, and the byte bound."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from urlmap_ray.stages import fetch
from urlmap_ray.stages.fetch import fetch_batch


@pytest.fixture(autouse=True)
def cold_cache():
    fetch._CACHE.clear()
    yield
    fetch._CACHE.clear()


@pytest.fixture
def decoded(monkeypatch):
    """(file path, row group) of every row group read from here on."""
    reads = []
    real_init, real_read = pq.ParquetFile.__init__, pq.ParquetFile.read_row_group

    def init(self, source, *a, **kw):
        self.spied_source = source
        real_init(self, source, *a, **kw)

    def read(self, i, *a, **kw):
        reads.append((self.spied_source, i))
        return real_read(self, i, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "__init__", init)
    monkeypatch.setattr(pq.ParquetFile, "read_row_group", read)
    return reads


def _bucket_path(pages_dir, b: int) -> str:
    return os.path.join(pages_dir, f"bucket-{b:05d}.parquet")


def _write_bucket(pages_dir, b: int, rows: list[tuple], flaky: bool = True, tag: str = ""):
    """Url-sorted bucket file of (url, status, flaky_fails) rows, 4 rows a
    row group; html is ``<p>{url}{tag}</p>``."""
    rows = sorted(rows)
    cols = {
        "url": pa.array([r[0] for r in rows], pa.string()),
        "html": pa.array([f"<p>{r[0]}{tag}</p>".encode() for r in rows], pa.binary()),
        "status": pa.array([r[1] for r in rows], pa.int32()),
    }
    if flaky:
        cols["flaky_fails"] = pa.array([r[2] for r in rows], pa.int32())
    pq.write_table(pa.table(cols), _bucket_path(pages_dir, b), row_group_size=4)


@pytest.fixture
def pages_dir(tmp_path):
    d = str(tmp_path / "pages")
    os.makedirs(d)
    # bucket 0: 20 rows in 5 row groups, one 404 and two flaky pages
    _write_bucket(d, 0, [
        (f"https://a.test/p{i:02d}", 404 if i == 7 else 200, 2 if i in (3, 12) else 0)
        for i in range(20)
    ])
    # bucket 1: an older fixture without flaky_fails, 3 row groups
    _write_bucket(d, 1, [(f"https://b.test/q{i:02d}", 200, 0) for i in range(10)], flaky=False)
    return d


def _batch(rows: list[tuple]) -> pa.Table:
    """Frontier rows of (url, bucket, attempt)."""
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "depth": pa.array([1] * len(rows), pa.int32()),
            "bucket": pa.array([r[1] for r in rows], pa.int64()),
            "attempt": pa.array([r[2] for r in rows], pa.int32()),
        }
    )


OUT_SCHEMA = pa.schema(
    [
        ("url", pa.string()), ("depth", pa.int32()), ("attempt", pa.int32()),
        ("status", pa.int32()), ("transient", pa.bool_()), ("html", pa.binary()),
    ]
)


def _reference(pages_dir, batch: pa.Table) -> pa.Table:
    """fetch_batch's contract as a join against every bucket file read whole."""
    corpus = {}
    for name in os.listdir(pages_dir):
        t = pq.read_table(os.path.join(pages_dir, name)).to_pylist()
        b = int(name[len("bucket-") : -len(".parquet")])
        corpus.update({(b, r["url"]): r for r in t})
    out = {k: [] for k in ("url", "depth", "attempt", "status", "transient", "html")}
    for r in batch.to_pylist():
        page = corpus.get((r["bucket"], r["url"]))
        status = page["status"] if page else 0
        transient = r["attempt"] <= ((page or {}).get("flaky_fails") or 0)
        status = 503 if transient else status
        for k, v in (
            ("url", r["url"]), ("depth", r["depth"]), ("attempt", r["attempt"]),
            ("status", status), ("transient", transient),
            ("html", page["html"] if status == 200 else None),
        ):
            out[k].append(v)
    return pa.table(out, schema=OUT_SCHEMA)


def _cases():
    a = [f"https://a.test/p{i:02d}" for i in range(20)]
    b = [f"https://b.test/q{i:02d}" for i in range(10)]
    return {
        # spans row groups 1-2 of bucket 0 only, with a 4xx row and a flaky one
        "some_row_groups": [(a[5], 0, 1), (a[7], 0, 1), (a[9], 0, 1), (a[3], 0, 1)],
        "flaky_retry_attempts": [(a[3], 0, 2), (a[12], 0, 3), (a[12], 0, 1)],
        "no_flaky_fails_column": [(b[9], 1, 1), (b[0], 1, 1), (b[4], 1, 5)],
        "misses": [
            ("https://a.test/p05x", 0, 1),  # inside a row group's range
            ("https://zzz.test/", 0, 1),  # past every row group
            (a[2], 1, 1),  # a corpus url under the wrong bucket
            (b[1], 1, 1),
        ],
        "both_buckets_mixed": [
            (b[3], 1, 1), (a[19], 0, 1), ("https://a.test/", 0, 1), (a[0], 0, 1)
        ],
        "empty": [],
    }


@pytest.mark.parametrize("case", sorted(_cases()))
def test_fetch_matches_full_read_join(pages_dir, case):
    batch = _batch(_cases()[case])
    for _ in range(2):  # cold, then served from the cache
        got = fetch_batch(batch, pages_dir=pages_dir)
        assert got.equals(_reference(pages_dir, batch)), (case, got.to_pylist())


def test_fetch_reads_only_overlapping_row_groups(pages_dir, decoded):
    urls = [f"https://a.test/p{i:02d}" for i in (5, 9)]
    fetch_batch(_batch([(u, 0, 1) for u in urls]), pages_dir=pages_dir)
    assert [i for _, i in decoded] == [1, 2]  # rows 4-7 and 8-11 of bucket 0's five groups


def test_rewritten_bucket_is_never_served_stale(pages_dir):
    batch = _batch([("https://b.test/q02", 1, 1), ("https://b.test/q08", 1, 1)])
    before = fetch_batch(batch, pages_dir=pages_dir).column("html").to_pylist()
    assert before == [b"<p>https://b.test/q02</p>", b"<p>https://b.test/q08</p>"]
    _write_bucket(
        pages_dir, 1, [(f"https://b.test/q{i:02d}", 200, 0) for i in range(10)],
        flaky=False, tag=" rewritten",
    )
    after = fetch_batch(batch, pages_dir=pages_dir)
    assert after.column("html").to_pylist() == [
        b"<p>https://b.test/q02 rewritten</p>", b"<p>https://b.test/q08 rewritten</p>"
    ]
    assert after.equals(_reference(pages_dir, batch))


def test_cache_stays_within_its_byte_bound(pages_dir, monkeypatch, decoded):
    """With the bound at about two decoded row groups, a sweep over all of
    them evicts least recently used groups, never holds more than the
    bound, and returns what the full-read join returns."""
    group = pq.ParquetFile(_bucket_path(pages_dir, 0)).read_row_group(0)
    decoded.clear()
    bound = 2 * group.nbytes + 100
    monkeypatch.setattr(fetch, "ROW_GROUP_CACHE_BYTES", bound)
    a = [f"https://a.test/p{i:02d}" for i in range(20)]
    for sweep in range(2):
        for lo in range(0, 20, 3):
            batch = _batch([(u, 0, 1) for u in a[lo : lo + 3]])
            assert fetch_batch(batch, pages_dir=pages_dir).equals(_reference(pages_dir, batch))
            held = sum(t.nbytes for t in fetch._CACHE.groups.values())
            assert fetch._CACHE.held == held <= bound
            assert len(fetch._CACHE.groups) <= 2
    assert len(decoded) == 2 * 5  # each sweep finds every group evicted


def test_cache_holds_no_file_open(tmp_path):
    """Fetching from many bucket files leaves none of them open: the cache
    keeps each file's stamp and url ranges, and opens a file only while
    its missed row groups decode. Outputs match the full-read join, cold
    and cached."""
    d = str(tmp_path / "many")
    os.makedirs(d)
    n_files = 24
    for b in range(n_files):
        _write_bucket(d, b, [(f"https://h{b}.test/p{i}", 200, i % 2) for i in range(8)])

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    batches = [_batch([(f"https://h{b}.test/p{i}", b, 1) for i in (1, 6)]) for b in range(n_files)]
    for batch in batches * 2:
        assert fetch_batch(batch, pages_dir=d).equals(_reference(d, batch))
    assert len(fetch._CACHE.files) == n_files
    assert open_fds() <= before


def test_budget_crawl_decodes_each_row_group_once(ray_session, tmp_path, monkeypatch, decoded):
    """A driver-side budget crawl over a corpus rewritten with 16-row row
    groups matches the wave oracle and decodes every (file, row group) at
    most once, though its drain waves fetch from the same hot groups."""
    from urlmap_ray.config import CrawlConfig
    from urlmap_ray.corpus import generate_corpus
    from urlmap_ray.oracle import crawl_waves, load_corpus_dict
    from urlmap_ray.pipelines.crawl import CrawlEngine
    from urlmap_ray.robotstxt import RobotsIndex

    info = generate_corpus(str(tmp_path / "corpus"), 400)
    for name in os.listdir(info.pages_path):
        path = os.path.join(info.pages_path, name)
        pq.write_table(pq.read_table(path), path, row_group_size=16)
    cfg = CrawlConfig(per_host_budget=20, respect_robots=True)
    robots = RobotsIndex(cfg.user_agent)
    rt = pq.read_table(info.robots_path)
    for origin, content in zip(rt.column("origin").to_pylist(), rt.column("content").to_pylist()):
        robots.add(origin, content)
    oracle = crawl_waves(load_corpus_dict(info.pages_path), info.seeds[0], cfg, robots)

    decoded.clear()
    calls = []

    def spy_fetch(batch, **kw):
        calls.append(batch.num_rows)
        return fetch_batch(batch, **kw)

    monkeypatch.setattr("urlmap_ray.pipelines.crawl.fetch_batch", spy_fetch)
    eng = CrawlEngine(info, cfg, checkpoint_dir=str(tmp_path / "ck"), seen_shards=2)
    out = eng.crawl(info.seeds[0])
    assert {w.mode for w in out.waves} == {"local"}
    got = sorted((r["url"], r["depth"], r["status"]) for r in eng.visited_dataset().take_all())
    assert got == sorted((r.url, r.depth, r.status) for r in oracle.results)
    assert decoded and len(decoded) == len(set(decoded)) and len(calls) > 1
