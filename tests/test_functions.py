"""Training-data operator tests: exactness vs brute-force references on the
sf0.001 testdata tables."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from urlmap_ray.functions.dedup import (
    dedup_exact,
    dedup_minhash_lsh,
    dedup_simhash,
    embedding_neardup,
    hamming64,
    minhash_signature,
    ngram_jaccard,
    simhash64,
)
from urlmap_ray.functions.multimodal import (
    MediaFeatureExtractor,
    frame_sample_plan_batch,
    make_media_table,
    resize_stub_batch,
)
from urlmap_ray.functions.similarity import topk_cosine, topk_cosine_lsh
from urlmap_ray.functions.textstats import (
    lang_id,
    quality_batch,
    rolling_fingerprint,
    token_count_batch,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_tbl():
    return pq.read_table(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def emb_tbl():
    return pq.read_table(f"{SF}/embeddings.parquet")


def test_token_count_batch(docs_tbl):
    out = token_count_batch(docs_tbl.select(["doc_id", "text"]))
    texts = docs_tbl.column("text").to_pylist()
    got = out.column("n_tokens").to_pylist()
    assert got == [len(t.split()) for t in texts]


def test_quality_batch_counts(docs_tbl):
    out = quality_batch(docs_tbl.select(["doc_id", "text"]).slice(0, 50))
    texts = docs_tbl.column("text").to_pylist()[:50]
    assert out.column("n_chars").to_pylist() == [len(t) for t in texts]


def test_lang_id_deterministic():
    assert lang_id("the thing and the other thing") == "en"
    assert lang_id("der schnelle und der ich") == "de"
    assert lang_id("一二三四五六七八九十一二三四五") == "zh"
    assert lang_id("") == "und"


def test_rolling_fingerprint_stable():
    assert rolling_fingerprint("abc") == rolling_fingerprint("abc")
    assert rolling_fingerprint("abc") != rolling_fingerprint("abd")


def test_minhash_approximates_jaccard():
    a = "the quick brown fox jumps over the lazy dog and runs away fast today"
    b = "the quick brown fox jumps over the lazy cat and runs away fast today"
    sa, sb = minhash_signature(a), minhash_signature(b)
    est = (sa == sb).mean()
    true = ngram_jaccard(a, b)
    assert abs(est - true) < 0.25


def test_simhash_properties():
    s1 = simhash64("the quick brown fox jumps over the lazy dog " * 5)
    s2 = simhash64("the quick brown fox jumps over the lazy dog " * 5 + "extra")
    s3 = simhash64("completely different words about ray data engines and arrow")
    assert hamming64(s1, s1) == 0
    assert hamming64(s1, s2) < hamming64(s1, s3)


def test_dedup_exact_with_planted_dups(ray_session, docs_tbl):
    import ray.data

    # plant duplicates: copy first 5 texts with new ids
    texts = docs_tbl.column("text").to_pylist()
    ids = docs_tbl.column("doc_id").to_pylist()
    dup = pa.table(
        {
            "doc_id": pa.array([max(ids) + 1 + i for i in range(5)], pa.int64()),
            "text": pa.array(texts[:5], pa.string()),
        }
    )
    combined = pa.concat_tables([docs_tbl.select(["doc_id", "text"]), dup])
    out = dedup_exact(ray.data.from_arrow(combined)).to_pandas()
    assert len(out) == len(set(texts))  # one group per distinct text
    dup_groups = out[out["dup_count"] > 1]
    assert len(dup_groups) >= 5
    # representative is the min id → none of the planted ids survive
    assert not set(dup["doc_id"].to_pylist()) & set(out["doc_id"])


def test_minhash_lsh_finds_planted_neardups(ray_session, docs_tbl):
    import ray.data

    texts = docs_tbl.column("text").to_pylist()[:50]
    rows = {"doc_id": list(range(50)), "text": texts}
    # plant near-dups of doc 0 and 1: drop last 2 words
    for j, src in enumerate((0, 1)):
        rows["doc_id"].append(100 + j)
        rows["text"].append(" ".join(texts[src].split()[:-2]))
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(rows["doc_id"], pa.int64()), "text": pa.array(rows["text"])})
    )
    pairs = dedup_minhash_lsh(ds, threshold=0.7).to_pandas()
    found = set(zip(pairs["a"], pairs["b"]))
    assert (0, 100) in found and (1, 101) in found
    # verified pairs really have jaccard >= threshold
    tmap = dict(zip(rows["doc_id"], rows["text"]))
    for a, b in found:
        assert ngram_jaccard(tmap[a], tmap[b]) >= 0.7


def test_simhash_pairs_verified(ray_session, docs_tbl):
    import ray.data

    texts = docs_tbl.column("text").to_pylist()[:80]
    ids = list(range(80)) + [900]
    texts = texts + [texts[0] + " tail"]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    )
    out = dedup_simhash(ds, max_hamming=3).to_pandas()
    assert ((out["a"] == 0) & (out["b"] == 900)).any()
    assert (out["hamming"] <= 3).all()


def test_embedding_neardup_matches_bruteforce(ray_session, emb_tbl):
    import ray.data

    out = embedding_neardup(ray.data.from_arrow(emb_tbl), threshold=0.4).to_pandas()
    m = np.asarray(emb_tbl.column("embedding").to_pylist(), dtype=np.float64)
    ids = np.asarray(emb_tbl.column("vec_id").to_pylist())
    u = m / np.linalg.norm(m, axis=1, keepdims=True)
    s = u @ u.T
    expect = {
        (int(ids[i]), int(ids[j]))
        for i in range(len(ids))
        for j in range(len(ids))
        if ids[i] < ids[j] and s[i, j] >= 0.4
    }
    assert set(zip(out["a"], out["b"])) == expect


@pytest.mark.parametrize("site", ["bm25_topk", "topk_cosine", "topk_cosine_q8"])
def test_partial_topk_map_runs_once(ray_session, monkeypatch, docs_tbl, emb_tbl, site):
    """Each top-k call runs its per-block ``partial_topk`` map in ONE
    execution: ``to_arrow_refs()`` on the unexecuted mapped Dataset would
    run the whole map a second time for the schema."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from urlmap_ray.functions.ranking import bm25_topk
    from urlmap_ray.functions.similarity import topk_cosine_q8

    q = np.asarray(emb_tbl.column("embedding").to_pylist()[:2], dtype=np.float64)
    calls = {
        "bm25_topk": lambda: bm25_topk(
            ray.data.from_arrow(docs_tbl.select(["doc_id", "text"])), ["the", "data"], k=5
        ),
        "topk_cosine": lambda: topk_cosine(ray.data.from_arrow(emb_tbl), q, k=5),
        "topk_cosine_q8": lambda: topk_cosine_q8(ray.data.from_arrow(emb_tbl), q, k=5),
    }
    runs = []
    real_execute = StreamingExecutor.execute

    def names(op) -> list[str]:
        return [op.name] + [n for dep in op.input_dependencies for n in names(dep)]

    def execute(self, dag, *a, **kw):
        runs.append(names(dag))
        return real_execute(self, dag, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    assert calls[site]().num_rows
    assert sum(any("partial_topk" in n for n in ops) for ops in runs) == 1, runs


def test_topk_matches_bruteforce(ray_session, emb_tbl):
    import ray.data

    m = np.asarray(emb_tbl.column("embedding").to_pylist(), dtype=np.float64)
    ids = np.asarray(emb_tbl.column("vec_id").to_pylist())
    q = m[:2]
    out = topk_cosine(ray.data.from_arrow(emb_tbl), q, k=5)
    u = m / np.linalg.norm(m, axis=1, keepdims=True)
    qu = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = u @ qu.T
    for qi in range(2):
        order = np.lexsort((ids, -sims[:, qi]))[:5]
        expect = [int(ids[i]) for i in order]
        got = out.filter(pa.compute.equal(out.column("query_idx"), qi)).column("vec_id").to_pylist()
        assert got == expect


def test_topk_lsh_recall(ray_session, emb_tbl):
    import ray.data

    m = np.asarray(emb_tbl.column("embedding").to_pylist(), dtype=np.float64)
    q = m[:3]
    exact = topk_cosine(ray.data.from_arrow(emb_tbl), q, k=10)
    approx = topk_cosine_lsh(
        ray.data.from_arrow(emb_tbl), q, k=10, dim=m.shape[1], n_planes=8
    )
    ex = set(zip(exact.column("query_idx").to_pylist(), exact.column("vec_id").to_pylist()))
    ap = set(zip(approx.column("query_idx").to_pylist(), approx.column("vec_id").to_pylist()))
    recall = len(ex & ap) / len(ex)
    assert recall >= 0.5  # multiprobe 1-bit flips; recall bounded below


def test_media_pipeline(ray_session, docs_tbl):
    import ray.data

    media = make_media_table(docs_tbl.slice(0, 100))
    ds = ray.data.from_arrow(media).map_batches(
        MediaFeatureExtractor,
        fn_constructor_kwargs=dict(mode="deterministic-fake"),
        concurrency=(1, 2),
        batch_size=32,
        batch_format="pyarrow",
    )
    out = ds.to_pandas()
    assert len(out) == 100
    assert all(len(f) == MediaFeatureExtractor.N_FEATURES for f in out["features"])
    assert "payload" not in out.columns  # heavy bytes shed in the stage
    # determinism
    f1 = MediaFeatureExtractor()._features(b"abc")
    f2 = MediaFeatureExtractor()._features(b"abc")
    assert np.array_equal(f1, f2)
    try:
        import PIL  # noqa: F401

        has_pil = True
    except ImportError:
        has_pil = False
    if not has_pil:
        # without the optional Pillow dependency, real mode constructs
        # (audio decodes via stdlib wave) but an IMAGE row raises loudly
        # at call time instead of silently faking
        ex = MediaFeatureExtractor(mode="real")
        with pytest.raises(NotImplementedError):
            ex._features_real(b"\x89PNG...", "image")


def _wav_bytes(freq_hz: float, *, rate: int = 8000, n: int = 800, amp: float = 0.5):
    import io
    import wave

    t = np.arange(n, dtype=np.float64) / rate
    x = (np.sin(2 * np.pi * freq_hz * t) * amp * 32767).astype(np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(x.tobytes())
    return buf.getvalue()


def test_media_real_decode_wav(ray_session):
    """Real audio decode via the stdlib wave module (no optional deps):
    WAV payloads → amplitude/rate statistics; corrupt payloads → zero
    vector; video rows → zero vector (no real decoder, honest)."""
    import ray.data

    media = pa.table(
        {
            "media_id": pa.array([1, 2, 3, 4], pa.int64()),
            "payload": pa.array(
                [
                    _wav_bytes(440.0),
                    _wav_bytes(0.0, amp=0.0),  # silence
                    b"not a wav",
                    b"video bytes",
                ],
                pa.binary(),
            ),
            "media_type": pa.array(["audio", "audio", "audio", "video"]),
            "width": pa.array([0] * 4, pa.int32()),
            "height": pa.array([0] * 4, pa.int32()),
            "duration_ms": pa.array([100] * 4, pa.int32()),
        }
    )
    out = (
        ray.data.from_arrow(media)
        .map_batches(
            MediaFeatureExtractor,
            fn_constructor_kwargs=dict(mode="real"),
            concurrency=(1, 1),
            batch_size=8,
            batch_format="pyarrow",
        )
        .to_pandas()
        .set_index("media_id")
    )
    tone, silence, bad, video = (out.loc[i, "features"] for i in (1, 2, 3, 4))
    assert tone[5] > 0.3  # sine rms ≈ amp/√2 ≈ 0.35
    assert tone[7] > 0.05  # 440Hz @ 8kHz crosses zero often
    assert tone[1] == np.float32(8000 / 96000)  # sample-rate feature exact
    assert silence[5] == 0.0 and silence[6] == 0.0  # silent: no energy
    assert silence[1] == tone[1]  # same container params decode
    assert all(v == 0.0 for v in bad)  # corrupt payload → zero vector
    assert all(v == 0.0 for v in video)  # non-BMFF video payload → zeros
    # decode is deterministic
    ex = MediaFeatureExtractor(mode="real")
    assert np.array_equal(
        ex._features_wav(_wav_bytes(440.0)), ex._features_wav(_wav_bytes(440.0))
    )


def test_media_real_decode_with_pillow(ray_session):
    """Real decode path (optional Pillow dependency): PNG payloads →
    image-statistic features; corrupt payloads → zero vector. Skipped where
    Pillow isn't installed (this container)."""
    import io

    PIL_Image = pytest.importorskip("PIL.Image")
    import ray.data

    def png_bytes(rgb):
        im = PIL_Image.new("RGB", (32, 16), rgb)
        buf = io.BytesIO()
        im.save(buf, format="PNG")
        return buf.getvalue()

    media = pa.table(
        {
            "media_id": pa.array([1, 2, 3], pa.int64()),
            "payload": pa.array(
                [png_bytes((255, 0, 0)), png_bytes((0, 0, 255)), b"not an image"],
                pa.binary(),
            ),
            "media_type": pa.array(["image"] * 3, pa.string()),
            "width": pa.array([32, 32, 0], pa.int32()),
            "height": pa.array([16, 16, 0], pa.int32()),
            "duration_ms": pa.array([0, 0, 0], pa.int32()),
        }
    )
    out = (
        ray.data.from_arrow(media)
        .map_batches(
            MediaFeatureExtractor,
            fn_constructor_kwargs=dict(mode="real"),
            concurrency=(1, 1),
            batch_size=8,
            batch_format="pyarrow",
        )
        .to_pandas()
        .set_index("media_id")
    )
    red, blue, bad = out.loc[1, "features"], out.loc[2, "features"], out.loc[3, "features"]
    assert red[0] > 0.9 and red[2] < 0.1  # red-dominant means
    assert blue[2] > 0.9 and blue[0] < 0.1
    assert all(v == 0.0 for v in bad)  # corrupt payload → zero vector


def test_media_stubs(docs_tbl):
    media = make_media_table(docs_tbl.slice(0, 20))
    resized = resize_stub_batch(media, max_side=64)
    assert max(resized.column("width").to_pylist()) <= 64
    planned = frame_sample_plan_batch(media, every_ms=500)
    for t, plan in zip(
        planned.column("media_type").to_pylist(), planned.column("frame_ts_ms").to_pylist()
    ):
        assert (len(plan) > 0) == (t == "video")


def test_dedup_ngram_jaccard_exact(ray_session, docs_tbl):
    """Inverted-index pairs == brute-force pairwise exact Jaccard."""
    import ray.data

    from urlmap_ray.functions.dedup import dedup_ngram_jaccard

    sub = docs_tbl.select(["doc_id", "text"]).slice(0, 120)
    out = dedup_ngram_jaccard(ray.data.from_arrow(sub), threshold=0.6).to_pandas()
    ids = sub.column("doc_id").to_pylist()
    texts = sub.column("text").to_pylist()
    expect = {
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if ngram_jaccard(texts[i], texts[j]) >= 0.6
        # empty-shingle docs pair with nothing in the inverted index
        and texts[i].strip() and texts[j].strip()
    }
    assert set(zip(out["a"], out["b"])) == expect


def test_topk_ivf_recall(ray_session, emb_tbl):
    import ray.data

    from urlmap_ray.functions.similarity import topk_cosine_ivf

    m = np.asarray(emb_tbl.column("embedding").to_pylist(), dtype=np.float64)
    q = m[:3]
    exact = topk_cosine(ray.data.from_arrow(emb_tbl), q, k=10)
    approx = topk_cosine_ivf(
        ray.data.from_arrow(emb_tbl), q, k=10, n_centroids=8, nprobe=3
    )
    ex = set(zip(exact.column("query_idx").to_pylist(), exact.column("vec_id").to_pylist()))
    ap = set(zip(approx.column("query_idx").to_pylist(), approx.column("vec_id").to_pylist()))
    assert len(ex & ap) / len(ex) >= 0.6  # nprobe=3/8 cells


def test_sessionize_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from urlmap_ray.functions.windows import sessionize

    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "ts"])
    out = (
        sessionize(ray.data.from_arrow(ev), gap_s=1800.0)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    df = ev.to_pandas().sort_values(["user_id", "ts"], kind="stable")
    rows = []
    for uid, g in df.groupby("user_id"):
        ts = g["ts"].to_numpy()
        new_s = np.ones(len(ts), dtype=bool)
        if len(ts) > 1:
            new_s[1:] = np.diff(ts).astype("timedelta64[us]").astype(np.int64) > 1800 * 10**6
        sid = np.cumsum(new_s)
        for s in range(1, sid[-1] + 1):
            sel = ts[sid == s]
            rows.append((uid, s, sel[0], len(sel)))
    ref = pd.DataFrame(rows, columns=["user_id", "session_id", "session_start", "n_events"])
    ref = ref.sort_values(["user_id", "session_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out, ref, check_dtype=False)


def test_joins_match_pandas(ray_session):
    import pandas as pd
    import ray.data

    from urlmap_ray.functions.joins import broadcast_join, shuffle_join

    orders = pq.read_table(f"{SF}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    cust = pq.read_table(
        f"{SF}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    # broadcast: big orders stream probes small customer table
    out_b = broadcast_join(
        ray.data.from_arrow(orders), cust, left_on="o_custkey", right_on="c_custkey"
    ).to_pandas()  # right key column is not duplicated into the output
    # shuffle: native hash-partitioned Dataset.join
    out_s = shuffle_join(
        ray.data.from_arrow(orders),
        ray.data.from_arrow(cust),
        on="o_custkey",
        right_on="c_custkey",
        num_partitions=4,
    ).to_pandas()[["o_orderkey", "o_custkey", "c_nationkey"]]
    ref = (
        orders.to_pandas()
        .merge(cust.to_pandas(), left_on="o_custkey", right_on="c_custkey")
        .drop(columns=["c_custkey"])
    )
    key = ["o_orderkey", "o_custkey", "c_nationkey"]
    for out in (out_b, out_s):
        got = out.sort_values(key).reset_index(drop=True)
        want = ref.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_broadcast_join_left_keeps_unmatched(ray_session):
    import ray.data

    from urlmap_ray.functions.joins import broadcast_join

    left = pa.table({"k": pa.array([1, 2, 99], pa.int64()), "v": pa.array([10, 20, 30], pa.int64())})
    right = pa.table({"k": pa.array([1, 2], pa.int64()), "name": pa.array(["a", "b"])})
    out = broadcast_join(
        ray.data.from_arrow(left), right, left_on="k", right_on="k", how="left"
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert out["name"].tolist() == ["a", "b", None]
    inner = broadcast_join(
        ray.data.from_arrow(left), right, left_on="k", right_on="k", how="inner"
    ).to_pandas()
    assert sorted(inner["k"].tolist()) == [1, 2]


def test_broadcast_join_guards(ray_session):
    """1:N right sides and column collisions must raise, not silently
    drop/duplicate (index_in keeps only the first match)."""
    import ray.data

    from urlmap_ray.functions.joins import broadcast_join

    left = pa.table({"k": pa.array([1], pa.int64()), "v": pa.array([1], pa.int64())})
    dup_right = pa.table({"k": pa.array([1, 1], pa.int64()), "name": pa.array(["a", "b"])})
    with pytest.raises(ValueError, match="duplicate"):
        broadcast_join(ray.data.from_arrow(left), dup_right, left_on="k", right_on="k")
    clash_right = pa.table({"k": pa.array([1], pa.int64()), "v": pa.array([9], pa.int64())})
    with pytest.raises(Exception, match="collision"):
        broadcast_join(
            ray.data.from_arrow(left), clash_right, left_on="k", right_on="k"
        ).to_pandas()


def test_semi_anti_join_modes_agree(ray_session):
    """Broadcast and shuffle modes produce the same semi/anti output, and
    null keys appear in NEITHER (NOT EXISTS semantics, not SQL NOT IN)."""
    import ray.data

    from urlmap_ray.functions.joins import anti_join, semi_join

    left = pa.table(
        {
            "k": pa.array([1, 2, 3, 4, None], pa.int64()),
            "v": pa.array(["a", "b", "c", "d", "e"]),
        }
    )
    right = pa.table({"rk": pa.array([2, 4, 4, None], pa.int64())})
    lds = ray.data.from_arrow(left).repartition(3)

    def rows(ds):
        return sorted((r["k"], r["v"]) for r in ds.take_all())

    for mode in ("broadcast", "shuffle"):
        rside = ray.data.from_arrow(right) if mode == "shuffle" else right
        semi = semi_join(lds, rside, on="k", right_on="rk", mode=mode)
        anti = anti_join(lds, rside, on="k", right_on="rk", mode=mode)
        assert rows(semi) == [(2, "b"), (4, "d")], mode
        assert rows(anti) == [(1, "a"), (3, "c")], mode

    with pytest.raises(ValueError, match="mode"):
        semi_join(lds, right, on="k", right_on="rk", mode="nope")
    with pytest.raises(ValueError, match="shuffle"):
        semi_join(lds, right, on="k", right_on="rk", mode="shuffle")


def test_sessionize_invariants(ray_session):
    """Per user: session event counts sum to the user's events; session
    starts strictly increase; inter-session gaps exceed the threshold."""
    import ray.data

    from urlmap_ray.functions.windows import sessionize

    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "ts"])
    out = sessionize(ray.data.from_arrow(ev), gap_s=600.0).to_pandas()
    per_user_events = ev.to_pandas().groupby("user_id").size()
    got = out.groupby("user_id")["n_events"].sum()
    assert got.to_dict() == per_user_events.to_dict()
    raw = ev.to_pandas().sort_values(["user_id", "ts"], kind="stable")
    for uid, g in out.groupby("user_id"):
        g = g.sort_values("session_id")
        starts = g["session_start"].to_numpy()
        assert (np.diff(starts).astype("timedelta64[us]").astype(np.int64) > 0).all()
        # inter-session gaps really exceed the threshold: each session's
        # start is > gap after the previous session's LAST event
        ts = raw[raw["user_id"] == uid]["ts"].to_numpy()
        counts = g["n_events"].to_numpy()
        ends = ts[np.cumsum(counts) - 1]
        gaps = (starts[1:] - ends[:-1]).astype("timedelta64[us]").astype(np.int64)
        assert (gaps > 600 * 10**6).all()


def test_ngram_jaccard_properties():
    from hypothesis import given, settings, strategies as st

    words = st.lists(st.text(alphabet="abcd ", min_size=1, max_size=6), max_size=30)

    @settings(max_examples=50, deadline=None)
    @given(words, words)
    def check(w1, w2):
        t1, t2 = " ".join(w1), " ".join(w2)
        j12 = ngram_jaccard(t1, t2)
        assert 0.0 <= j12 <= 1.0
        assert j12 == ngram_jaccard(t2, t1)
        assert ngram_jaccard(t1, t1) == 1.0

    check()


def _wins_events_df(n=4000, seed=7):
    import pandas as pd

    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "user_id": rng.integers(0, 40, n),
            "ts": pd.to_datetime("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 86400 * 20, n), unit="s"),
            "event_id": np.arange(n),
            "value": rng.random(n) * 100,
            "event_type": rng.choice(["a", "purchase", "b"], n),
        }
    )


def test_tumbling_window_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from urlmap_ray.functions.windows import tumbling_window

    df = _wins_events_df()
    df["cents"] = np.floor(df["value"] * 100).astype("int64")
    got = (
        tumbling_window(
            ray.data.from_pandas(df).repartition(7),
            width_s=6 * 3600,
            key_col="user_id",
            ts_col="ts",
            sum_col="cents",
        )
        .to_pandas()
        .sort_values(["user_id", "window_start"])
        .reset_index(drop=True)[["user_id", "window_start", "n_events", "sum_cents"]]
    )
    exp = (
        df.assign(window_start=df.ts.dt.floor("6h"))
        .groupby(["user_id", "window_start"])
        .agg(n_events=("ts", "size"), sum_cents=("cents", "sum"))
        .reset_index()
        .sort_values(["user_id", "window_start"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_hopping_window_invariants(ray_session):
    """hop == width degenerates to tumbling; with width = 3·hop every
    event lands in exactly 3 windows; per-window membership is exact."""
    import pandas as pd
    import ray.data

    from urlmap_ray.functions.windows import hopping_window, tumbling_window

    df = _wins_events_df()
    df["cents"] = np.floor(df["value"] * 100).astype("int64")
    ds = ray.data.from_pandas(df).repartition(7)

    tumb = (
        tumbling_window(ds, width_s=6 * 3600, sum_col="cents")
        .to_pandas().sort_values(["user_id", "window_start"]).reset_index(drop=True)
    )
    degen = (
        hopping_window(ds, width_s=6 * 3600, hop_s=6 * 3600, sum_col="cents")
        .to_pandas().sort_values(["user_id", "window_start"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(degen[tumb.columns.tolist()], tumb, check_dtype=False)

    hop = hopping_window(ds, width_s=6 * 3600, hop_s=2 * 3600, sum_col="cents").to_pandas()
    assert hop["n_events"].sum() == 3 * len(df)
    assert hop["sum_cents"].sum() == 3 * df["cents"].sum()
    # brute-force check one (user, window) cell
    row = hop.sort_values(["user_id", "window_start"]).iloc[len(hop) // 2]
    w0 = row["window_start"]
    sel = df[(df.user_id == row["user_id"]) & (df.ts >= w0)
             & (df.ts < w0 + pd.Timedelta(hours=6))]
    assert len(sel) == row["n_events"] and sel["cents"].sum() == row["sum_cents"]
    # window starts must be hop-aligned (datetime64[us] → µs since epoch)
    assert (hop["window_start"].astype("int64") % (2 * 3600 * 1_000_000) == 0).all()


def test_tumbling_window_rejects_float_sum(ray_session):
    import ray.data

    from urlmap_ray.functions.windows import tumbling_window

    df = _wins_events_df(n=100)
    ds = tumbling_window(
        ray.data.from_pandas(df), width_s=3600, key_col="user_id", ts_col="ts",
        sum_col="value",
    )
    with pytest.raises(Exception, match="must be integer"):
        ds.materialize()


def test_top_n_per_key_matches_row_number(ray_session):
    import pandas as pd
    import ray.data

    from urlmap_ray.functions.windows import top_n_per_key

    df = _wins_events_df()
    # force value ties so the tiebreak path is exercised
    df["value"] = np.round(df["value"], 0)
    got = (
        top_n_per_key(
            ray.data.from_pandas(df[["user_id", "event_id", "value"]]).repartition(7),
            key_col="user_id",
            order_col="value",
            n=3,
            tiebreak_col="event_id",
        )
        .to_pandas()
        .sort_values(["user_id", "rn"])
        .reset_index(drop=True)
    )
    exp = df.sort_values(["user_id", "value", "event_id"], ascending=[True, False, True])
    exp = exp.assign(rn=exp.groupby("user_id").cumcount() + 1)
    exp = exp[exp.rn <= 3][["user_id", "event_id", "value", "rn"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["user_id", "event_id", "value", "rn"]], exp, check_dtype=False
    )


def test_asof_join_matches_merge_asof(ray_session):
    import pandas as pd
    import ray.data

    from urlmap_ray.functions.joins import asof_join

    df = _wins_events_df(n=5000)
    pur = df[df.event_type == "purchase"][["user_id", "ts", "event_id"]].rename(
        columns={"event_id": "last_purchase_id"}
    )
    left = ray.data.from_pandas(df[["user_id", "ts", "event_id"]]).repartition(5)
    right = ray.data.from_pandas(pur).repartition(3)
    for direction, how in (("backward", "left"), ("forward", "inner")):
        got = (
            asof_join(
                left,
                right,
                on="user_id",
                left_ts="ts",
                right_ts="ts",
                right_cols=["last_purchase_id"],
                how=how,
                direction=direction,
                tie_col="last_purchase_id",
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)[["event_id", "last_purchase_id"]]
        )
        exp = pd.merge_asof(
            df[["user_id", "ts", "event_id"]].sort_values("ts"),
            pur.sort_values("ts"),
            on="ts",
            by="user_id",
            direction=direction,
        )
        if how == "inner":
            exp = exp[exp.last_purchase_id.notna()]
        exp = exp.sort_values("event_id").reset_index(drop=True)[
            ["event_id", "last_purchase_id"]
        ]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_asof_join_guards(ray_session):
    import ray.data

    from urlmap_ray.functions.joins import asof_join

    df = _wins_events_df(n=50)
    ds = ray.data.from_pandas(df[["user_id", "ts", "event_id"]])
    with pytest.raises(ValueError, match="how="):
        asof_join(ds, ds, on="user_id", left_ts="ts", right_ts="ts",
                  right_cols=["event_id"], how="outer")
    with pytest.raises(ValueError, match="collision"):
        asof_join(ds, ds, on="user_id", left_ts="ts", right_ts="ts",
                  right_cols=["event_id"])


def test_range_join_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from urlmap_ray.functions.joins import range_join

    rng = np.random.default_rng(3)
    n, m = 2000, 300
    left = pd.DataFrame(
        {"k": rng.integers(0, 20, n), "p": rng.integers(0, 1000, n), "lid": np.arange(n)}
    )
    # overlapping intervals on purpose: the 1:N path must be exercised
    lo = rng.integers(0, 900, m)
    right = pd.DataFrame(
        {"k": rng.integers(0, 20, m), "lo": lo, "hi": lo + rng.integers(10, 300, m),
         "rid": np.arange(m)}
    )
    got = (
        range_join(
            ray.data.from_pandas(left).repartition(5),
            ray.data.from_pandas(right).repartition(3),
            on="k",
            left_point="p",
            right_lo="lo",
            right_hi="hi",
            right_cols=["rid"],
            how="inner",
            closed="both",
            pair_block=64,
        )
        .to_pandas()
        .sort_values(["lid", "rid"])
        .reset_index(drop=True)[["lid", "rid"]]
    )
    exp = left.merge(right, on="k")
    exp = exp[(exp.lo <= exp.p) & (exp.p <= exp.hi)][["lid", "rid"]]
    exp = exp.sort_values(["lid", "rid"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # left join keeps unmatched left rows exactly once with null rid
    got_l = range_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        on="k", left_point="p", right_lo="lo", right_hi="hi",
        right_cols=["rid"], how="left", closed="both",
    ).to_pandas()
    matched_lids = set(exp.lid)
    unmatched = got_l[got_l.rid.isna()]
    assert set(unmatched.lid) == set(left.lid) - matched_lids
    assert len(got_l) == len(exp) + len(unmatched)


def test_sessionize_with_end(ray_session):
    import ray.data

    from urlmap_ray.functions.windows import sessionize

    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "ts"])
    out = sessionize(ray.data.from_arrow(ev), gap_s=1800.0, with_end=True).to_pandas()
    assert (out.session_end >= out.session_start).all()
    # intervals within a user are disjoint and ordered
    for _, g in out.groupby("user_id"):
        g = g.sort_values("session_id")
        assert (g.session_start.to_numpy()[1:] > g.session_end.to_numpy()[:-1]).all()
    # event count conservation
    assert out.n_events.sum() == ev.num_rows


def test_kmv_exact_below_saturation(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import kmv_distinct

    rng = np.random.default_rng(5)
    vals = rng.integers(0, 200, 20000)  # 200 distinct ints, heavy repeats
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.int64())})).repartition(8)
    out = kmv_distinct(ds, col="v", k=1024)
    assert out.column("n_distinct").to_pylist() == [len(np.unique(vals))]
    # strings too (md5 path, per-unique hashing)
    svals = [f"user-{i % 137}" for i in range(5000)]
    ds = ray.data.from_arrow(pa.table({"v": pa.array(svals, pa.string())}))
    out = kmv_distinct(ds, col="v", k=512)
    assert out.column("n_distinct").to_pylist() == [137]


def test_kmv_estimate_error_bound(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import kmv_distinct

    rng = np.random.default_rng(9)
    true_n = 50_000
    vals = rng.permutation(true_n).astype(np.int64)
    k = 1024
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.int64())})).repartition(6)
    est = kmv_distinct(ds, col="v", k=k).column("n_distinct").to_pylist()[0]
    rel_err = abs(est - true_n) / true_n
    assert rel_err < 5.0 / np.sqrt(k - 2)  # 5 sigma of the published bound


def test_kmv_merge_order_independent():
    from urlmap_ray.functions.sketch import hash64_column, kmv_estimate

    vals = pa.array(np.arange(10_000, dtype=np.int64))
    hs = hash64_column(vals)
    k = 256
    a = kmv_estimate(hs, k)
    rng = np.random.default_rng(1)
    b = kmv_estimate(hs[rng.permutation(len(hs))], k)
    assert a == b


def test_hll_parallelism_independent(ray_session):
    # register max is associative: any repartition must land on the exact
    # same register array → identical estimate
    import ray.data

    from urlmap_ray.functions.sketch import hll_distinct

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 5000, 40000)
    ests = set()
    for parts, buckets in ((1, 1), (4, 8), (16, 32)):
        ds = ray.data.from_arrow(
            pa.table({"v": pa.array(vals, pa.int64())})
        ).repartition(parts)
        ests.add(hll_distinct(ds, col="v", n_buckets=buckets))
    assert len(ests) == 1


def test_hll_matches_sequential_reference_and_error(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import (
        _HLL_M,
        hash64_column,
        hll_batch_registers,
        hll_distinct,
        hll_estimate,
    )

    rng = np.random.default_rng(11)
    true_n = 30_000
    vals = rng.permutation(true_n).astype(np.int64)
    # sequential reference: chunked maximum fold over the same hashes
    regs = np.zeros(_HLL_M, np.uint8)
    for lo in range(0, len(vals), 7001):
        regs = np.maximum(
            regs, hll_batch_registers(hash64_column(pa.array(vals[lo : lo + 7001])))
        )
    want = hll_estimate(regs)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.int64())})).repartition(6)
    got = hll_distinct(ds, col="v")
    assert got == want
    assert abs(got - true_n) / true_n < 5 * 1.04 / np.sqrt(_HLL_M)  # 5 sigma


def test_hll_small_cardinality_near_exact(ray_session):
    # linear-counting regime: n << m ⇒ near-exact (±1 from the log)
    import ray.data

    from urlmap_ray.functions.sketch import hll_distinct

    svals = [f"user-{i % 137}" for i in range(5000)]
    ds = ray.data.from_arrow(pa.table({"v": pa.array(svals, pa.string())}))
    assert abs(hll_distinct(ds, col="v") - 137) <= 2
    empty = ray.data.from_arrow(pa.table({"v": pa.array([], pa.string())}))
    assert hll_distinct(empty, col="v") == 0


def test_hll_per_key_matches_dense_reference(ray_session):
    # the sparse (key, ridx, rho) exchange + keyed max fold must land on
    # the same registers as a dense per-key sequential fold, at any split
    import ray.data

    from urlmap_ray.functions.sketch import (
        hash64_column,
        hll_batch_registers,
        hll_distinct_per_key,
        hll_estimate,
    )

    rng = np.random.default_rng(17)
    keys = rng.choice(["a", "b", "c"], 30000)
    vals = rng.integers(0, 8000, 30000)
    want = {}
    for k in "abc":
        sub = vals[keys == k]
        want[k] = hll_estimate(
            hll_batch_registers(hash64_column(pa.array(sub.astype(np.int64))))
        )
    tbl = pa.table(
        {
            "k": pa.array(keys, pa.string()),
            "v": pa.array(vals, pa.int64()),
        }
    )
    for parts in (1, 9):
        ds = ray.data.from_arrow(tbl).repartition(parts)
        got = {
            r["k"]: r["n_est"]
            for r in hll_distinct_per_key(ds, key_col="k", col="v").take_all()
        }
        assert got == want
    # per-key error sanity vs exact
    for k in "abc":
        exact = len(np.unique(vals[keys == k]))
        assert abs(want[k] - exact) / exact < 0.1


def test_hll_per_key_hot_key_capped(ray_session):
    # a hot key with 100k distinct values in one batch still ships at most
    # m = 4096 sparse register rows (the structural cap KMV lacks), and
    # the estimate stays inside the published error band
    import ray.data

    from urlmap_ray.functions.sketch import (
        _HLL_M,
        hash64_column,
        hll_distinct_per_key,
    )

    vals = np.arange(100000, dtype=np.int64)
    tbl = pa.table(
        {
            "k": pa.array(["hot"] * len(vals), pa.string()),
            "v": pa.array(vals, pa.int64()),
        }
    )
    # the sparse representation is one row per touched register
    h = hash64_column(pa.array(vals))
    touched = len(np.unique((h >> np.uint64(64 - 12)).astype(np.int64)))
    assert touched <= _HLL_M
    out = hll_distinct_per_key(
        ray.data.from_arrow(tbl), key_col="k", col="v"
    ).take_all()
    assert len(out) == 1
    assert abs(out[0]["n_est"] - 100000) / 100000 < 5 * 1.04 / np.sqrt(_HLL_M)


def test_cms_overestimate_and_parallelism_independent(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import (
        cms_batch_counts,
        cms_counts,
        cms_estimate,
        hash64_column,
    )

    rng = np.random.default_rng(23)
    vals = rng.integers(0, 500, 60000).astype(np.int64)
    true = np.bincount(vals, minlength=500)
    tbl = pa.table({"v": pa.array(vals, pa.int64())})
    probe = hash64_column(pa.array(np.arange(500, dtype=np.int64)))
    outs = []
    for parts in (1, 8):
        ds = ray.data.from_arrow(tbl).repartition(parts)
        counts = cms_counts(ds, col="v", n_buckets=4)
        outs.append(counts)
        est = cms_estimate(counts, probe)
        assert (est >= true).all()  # CM never underestimates
        assert (est - true).max() <= 2 * len(vals) // 2048 + 60  # CM bound slack
    assert np.array_equal(outs[0], outs[1])  # associative integer sums
    # sequential reference = the same single-batch fold
    seq = cms_batch_counts(hash64_column(pa.array(vals, pa.int64())))
    assert np.array_equal(outs[0], seq)


def test_ams_f2_skew_detection(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import (
        ams_batch_counters,
        ams_f2,
        ams_f2_estimate,
        hash64_column,
    )

    rng = np.random.default_rng(29)
    n = 40000
    uni = rng.integers(0, 4000, n).astype(np.int64)
    hot = np.zeros(n, np.int64)
    for vals, lo, hi in ((uni, 0.5, 2.0), (hot, 0.9, 1.1)):
        true = float((np.bincount(vals - vals.min()) ** 2).sum())
        tbl = pa.table({"v": pa.array(vals, pa.int64())})
        ests = {
            ams_f2(ray.data.from_arrow(tbl).repartition(p), col="v", n_buckets=4)
            for p in (1, 6)
        }
        assert len(ests) == 1  # associative counters → identical estimate
        est = ests.pop()
        assert lo * true <= est <= hi * true, (est, true)
        # sequential same-counter reference
        assert est == ams_f2_estimate(
            ams_batch_counters(hash64_column(pa.array(vals, pa.int64())))
        )
    # skew separation: hot-key F2 ≫ uniform F2
    assert ams_f2(
        ray.data.from_arrow(pa.table({"v": pa.array(hot, pa.int64())})), col="v"
    ) > 100 * ams_f2(
        ray.data.from_arrow(pa.table({"v": pa.array(uni, pa.int64())})), col="v"
    )


def test_hash_sample_deterministic_and_rate(ray_session, docs_tbl):
    import ray.data

    from urlmap_ray.functions.sampling import hash_sample

    ds = ray.data.from_arrow(docs_tbl)
    a = sorted(r["doc_id"] for r in hash_sample(ds, rate=0.2, salt="x").take_all())
    b = sorted(r["doc_id"] for r in hash_sample(ds, rate=0.2, salt="x").take_all())
    assert a == b  # same salt → same sample, independent of execution
    # monotone in rate: the 0.2 sample contains the 0.1 sample
    small = sorted(r["doc_id"] for r in hash_sample(ds, rate=0.1, salt="x").take_all())
    assert set(small) <= set(a)
    n = docs_tbl.num_rows
    assert 0.05 * n < len(a) < 0.4 * n  # loose binomial envelope
    # different salt → a different (independent) sample
    c = sorted(r["doc_id"] for r in hash_sample(ds, rate=0.2, salt="y").take_all())
    assert c != a
    with pytest.raises(ValueError):
        hash_sample(ds, rate=1.5)


def test_hash_split_partitions_everything(ray_session, docs_tbl):
    import ray.data

    from urlmap_ray.functions.sampling import hash_split

    ds = ray.data.from_arrow(docs_tbl)
    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    rows = hash_split(ds, fractions=fr).take_all()
    assert len(rows) == docs_tbl.num_rows  # every row labeled, none dropped
    by = {}
    for r in rows:
        by.setdefault(r["split"], set()).add(r["doc_id"])
    assert set(by) <= set(fr)
    assert sum(len(v) for v in by.values()) == docs_tbl.num_rows
    assert len(by["train"]) > len(by.get("val", set()))
    # stable under re-execution and partitioning
    rows2 = hash_split(ds.repartition(7), fractions=fr).take_all()
    assert {r["doc_id"]: r["split"] for r in rows2} == {
        r["doc_id"]: r["split"] for r in rows
    }
    with pytest.raises(ValueError):
        hash_split(ds, fractions={"a": 0.5, "b": 0.6})


def test_stratified_sample_counts_and_order(ray_session, docs_tbl):
    import hashlib as hl

    import ray.data

    from urlmap_ray.functions.sampling import stratified_sample

    ds = ray.data.from_arrow(docs_tbl)
    rows = stratified_sample(ds, key_col="lang", n=3, id_col="doc_id", salt="z").take_all()
    per = {}
    for r in rows:
        per.setdefault(r["lang"], []).append(r)
    langs = set(docs_tbl.column("lang").to_pylist())
    assert set(per) == langs
    txt = {d: t for d, t in zip(docs_tbl.column("doc_id").to_pylist(),
                                docs_tbl.column("text").to_pylist())}
    for lang, rs in per.items():
        n_lang = docs_tbl.column("lang").to_pylist().count(lang)
        assert len(rs) == min(3, n_lang)
        assert sorted(r["rn"] for r in rs) == list(range(1, len(rs) + 1))
        # rank order is salted-hash order with doc_id tie-break
        ordered = sorted(rs, key=lambda r: r["rn"])
        keys = [
            (int(hl.md5(b"z" + (txt[r["doc_id"]] or "").encode()).hexdigest()[:15], 16),
             r["doc_id"])
            for r in ordered
        ]
        assert keys == sorted(keys)


def test_exact_quantiles_matches_numpy_rule(ray_session):
    import ray.data

    from urlmap_ray.functions.quantiles import exact_quantiles, value_histogram

    rng = np.random.default_rng(7)
    vals = rng.integers(0, 50, size=5000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.int64())})).repartition(8)
    qs = [0.1, 0.5, 0.9, 0.99, 1.0]
    got = exact_quantiles(ds, "v", qs)
    sv = np.sort(vals)
    import math

    for q, v in zip(got.column("q").to_pylist(), got.column("v").to_pylist()):
        # pinned rule: min value whose cumulative count reaches ceil(q*N)
        assert v == sv[math.ceil(q * len(sv)) - 1], q
    hist = {r["v"]: r["n"] for r in value_histogram(ds, "v").take_all()}
    assert sum(hist.values()) == len(vals)
    assert hist == {int(v): int(c) for v, c in zip(*np.unique(vals, return_counts=True))}
    with pytest.raises(ValueError):
        exact_quantiles(ds, "v", [0.0])


def test_group_quantiles_matches_per_key_rule(ray_session):
    import math

    import ray.data

    from urlmap_ray.functions.quantiles import group_quantiles

    rng = np.random.default_rng(11)
    keys = rng.integers(0, 4, size=4000).astype(np.int64)
    vals = (rng.integers(0, 30, size=4000) + keys * 100).astype(np.int64)
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(keys, pa.int64()), "v": pa.array(vals, pa.int64())})
    ).repartition(6)
    qs = [0.25, 0.5, 1.0]
    got = {(r["k"], r["q"]): r["v"] for r in group_quantiles(ds, "v", qs, key_col="k").take_all()}
    assert len(got) == 4 * len(qs)
    for k in range(4):
        sv = np.sort(vals[keys == k])
        for q in qs:
            assert got[(k, q)] == sv[math.ceil(q * len(sv)) - 1], (k, q)
    with pytest.raises(ValueError):
        group_quantiles(ds, "v", [1.5], key_col="k")


def test_float_quantiles_quantization_contract(ray_session):
    import math

    import ray.data

    from urlmap_ray.functions.quantiles import float_quantiles

    rng = np.random.default_rng(5)
    vals = rng.normal(10.0, 2.0, size=3000)
    ds = ray.data.from_arrow(
        pa.table({"value": pa.array(vals, pa.float64())})
    ).repartition(5)
    got = float_quantiles(ds, "value", [0.5, 0.99], scale=100)
    units = np.sort(np.floor(vals * 100).astype(np.int64))
    for q, v in zip(got.column("q").to_pylist(), got.column("value_units").to_pylist()):
        assert v == units[math.ceil(q * len(units)) - 1], q
        # contract: within 1/scale of the true float quantile
        assert abs(v / 100.0 - np.quantile(vals, q, method="inverted_cdf")) <= 0.01 + 1e-9


def test_mixture_sample_rates_and_determinism(ray_session, docs_tbl):
    import ray.data

    from urlmap_ray.functions.sampling import hash_sample, mixture_sample

    ds = ray.data.from_arrow(docs_tbl)
    rates = {"src0": 1.0, "src1": 0.5, "src2": 0.0}
    rows = mixture_sample(ds, rates=rates, default_rate=0.1, salt="m").take_all()
    by_src = {}
    for r in rows:
        by_src.setdefault(r["source"], set()).add(r["doc_id"])
    full = {}
    for r in docs_tbl.to_pylist():
        full.setdefault(r["source"], set()).add(r["doc_id"])
    assert by_src.get("src0") == full["src0"]  # rate 1.0 keeps everything
    assert "src2" not in by_src  # rate 0.0 drops everything
    assert 0 < len(by_src.get("src1", set())) < len(full["src1"])
    # per-source decisions match hash_sample at the same rate+salt (the
    # mixture IS a per-source Bernoulli family, one pass instead of K)
    half = {
        r["doc_id"]
        for r in hash_sample(ds, rate=0.5, salt="m").take_all()
        if r["source"] == "src1"
    }
    assert by_src["src1"] == half
    # partitioning-independent
    rows2 = mixture_sample(
        ds.repartition(7), rates=rates, default_rate=0.1, salt="m"
    ).take_all()
    assert {r["doc_id"] for r in rows2} == {r["doc_id"] for r in rows}
    with pytest.raises(ValueError):
        mixture_sample(ds, rates={"src0": 2.0})


def test_quality_model_matches_reference_any_parallelism(ray_session, docs_tbl):
    import ray.data

    from urlmap_ray.functions.quality_model import (
        QualityModelScorer,
        quality_model_reference,
    )

    docs = docs_tbl.select(["doc_id", "text"])
    want = {
        r["doc_id"]: (r["model_score"], r["model_keep"])
        for r in quality_model_reference(docs).to_pylist()
    }
    for parts, bs in ((1, 4096), (7, 32)):
        got = {
            r["doc_id"]: (r["model_score"], r["model_keep"])
            for r in ray.data.from_arrow(docs)
            .repartition(parts)
            .map_batches(
                QualityModelScorer,
                concurrency=(1, 2),
                batch_size=bs,
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .take_all()
        }
        assert got == want  # bit-equal at any batch size / actor count


def test_quality_model_edge_cases():
    import pyarrow as pa

    from urlmap_ray.functions.quality_model import (
        model_weights,
        quality_model_reference,
        score_batch,
    )

    w = model_weights()
    assert (w == model_weights()).all()  # deterministic model
    assert w.min() >= -512 and w.max() <= 511
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["", "one", "one two", None], pa.string()),
        }
    )
    out = score_batch(batch, w)
    ref = quality_model_reference(batch)
    assert out.equals(ref)
    scores = out.column("model_score").to_pylist()
    assert scores[0] == 0 and scores[3] == 0  # empty/null text → score 0
    # "one two" = unigrams of "one" + "two" plus exactly one bigram term
    solo = score_batch(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["one", "two"], pa.string()),
            }
        ),
        w,
    ).column("model_score")
    uni_sum = solo[0].as_py() + solo[1].as_py()
    assert abs(scores[2] - uni_sum) <= 512  # the bigram weight is bounded


def test_quality_model_whitespace_parity():
    # Arrow's split emits empty tokens at edges/runs; Python's split()
    # doesn't — score_batch must compact them (bigram adjacency included).
    import pyarrow as pa

    from urlmap_ray.functions.quality_model import (
        model_weights,
        quality_model_reference,
        score_batch,
    )

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([" x  y ", "x y", "  \t "], pa.string()),
        }
    )
    out = score_batch(batch, model_weights())
    assert out.equals(quality_model_reference(batch))
    s = out.column("model_score").to_pylist()
    assert s[0] == s[1] and s[2] == 0


def test_lm_score_matches_reference_any_parallelism(ray_session, docs_tbl):
    import ray.data

    from urlmap_ray.functions.lm import lm_reference, lm_score, lm_train

    docs = docs_tbl.select(["doc_id", "text"])
    want = {
        r["doc_id"]: (r["n_tokens"], r["logprob_ppb"])
        for r in lm_reference(docs).to_pylist()
    }
    for parts in (1, 7):
        ds = ray.data.from_arrow(docs).repartition(parts)
        vh, vc, n_total = lm_train(ds)
        got = {
            r["doc_id"]: (r["n_tokens"], r["logprob_ppb"])
            for r in lm_score(ds, vh, vc, n_total).take_all()
        }
        assert got == want  # bit-equal train+score at any partitioning


def test_dsir_matches_reference_and_separates(ray_session, docs_tbl):
    # distributed two-distribution build + broadcast scoring must be
    # bit-equal to the single-process reference at any partitioning, and
    # target-slice docs must score above the rest (the selection signal)
    import ray.data

    from urlmap_ray.functions.dsir import dsir_reference, dsir_weights

    docs = docs_tbl.select(["doc_id", "text"])
    ids = docs.column("doc_id").to_numpy()
    target = docs.filter(pa.array(ids % 5 == 2))
    want = {
        r["doc_id"]: (r["n_tokens"], r["dsir_ppb"])
        for r in dsir_reference(docs, target).to_pylist()
    }
    for parts in (1, 7):
        ds = ray.data.from_arrow(docs).repartition(parts)
        tds = ray.data.from_arrow(target)
        got = {
            r["doc_id"]: (r["n_tokens"], r["dsir_ppb"])
            for r in dsir_weights(ds, tds).take_all()
        }
        assert got == want
    in_t = [want[i][1] for i in want if i % 5 == 2]
    out_t = [want[i][1] for i in want if i % 5 != 2]
    assert np.mean(in_t) > np.mean(out_t)


def test_lm_vocab_cap_and_oov(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.lm import lm_reference, lm_score, lm_train

    # tiny corpus, max_vocab=2 → only the two most frequent tokens stay
    # in-vocab; ties at the boundary break by the pinned int64-hash order
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                ["aa aa aa bb bb cc", "aa bb cc dd", "", None], pa.string()
            ),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(3)
    vh, vc, n_total = lm_train(ds, max_vocab=2)
    assert len(vh) == 2 and n_total == 10
    got = lm_score(ds, vh, vc, n_total).take_all()
    want = {
        r["doc_id"]: (r["n_tokens"], r["logprob_ppb"])
        for r in lm_reference(docs, max_vocab=2).to_pylist()
    }
    assert {r["doc_id"]: (r["n_tokens"], r["logprob_ppb"]) for r in got} == want
    by_id = {r["doc_id"]: r for r in got}
    assert by_id[3]["n_tokens"] == 0 and by_id[3]["logprob_ppb"] == 0
    assert by_id[4]["n_tokens"] == 0
    # doc 1 (mostly in-vocab tokens) scores higher than doc 2 (more OOV)
    assert by_id[1]["logprob_ppb"] > by_id[2]["logprob_ppb"]


def test_pack_sequences_greedy_rule(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.packing import pack_group, pack_sequences

    # hand-checkable: budget 10, tokens 4+4 fit, +4 overflows; an oversize
    # doc (12) takes its own sequence with no empty gaps
    g = pa.table(
        {
            "doc_id": pa.array([5, 1, 2, 3, 4], pa.int64()),  # unsorted input
            "n_tokens": pa.array([3, 4, 4, 4, 12], pa.int64()),
        }
    )
    out = pack_group(g, budget=10)
    assert out.column("doc_id").to_pylist() == [1, 2, 3, 4, 5]
    assert out.column("seq").to_pylist() == [0, 0, 1, 2, 3]
    # distributed: partitioning-independent, buckets never share sequences
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(250)), pa.int64()),
            "text": pa.array(["w " * (i % 7) for i in range(250)], pa.string()),
        }
    )
    a = {
        (r["doc_id"]): (r["bucket"], r["seq"])
        for r in pack_sequences(
            ray.data.from_arrow(docs).repartition(5), budget=12, bucket_size=50
        ).take_all()
    }
    b = {
        (r["doc_id"]): (r["bucket"], r["seq"])
        for r in pack_sequences(
            ray.data.from_arrow(docs), budget=12, bucket_size=50
        ).take_all()
    }
    assert a == b and len(a) == 250
    assert {k // 50 for k in a} == {a[k][0] for k in a}  # bucket = id // 50
    # within a bucket no sequence exceeds the budget (oversize docs exempt)
    import collections

    tot = collections.Counter()
    toks = {i: len(("w " * (i % 7)).split()) for i in range(250)}
    for d, (bkt, s) in a.items():
        tot[(bkt, s)] += toks[d]
    for (bkt, s), t in tot.items():
        members = [d for d in a if a[d] == (bkt, s)]
        assert t <= 12 or len(members) == 1


def test_redact_pii_ordered_chain(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.pii import redact_pii, redact_pii_batch

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "mail a.b+c@sub.example.co.uk or (555) 123-4567 now",
                    "server 192.168.0.1 id 123-45-6789 backup 10.0.0.2",
                    None,
                    "no pii here",
                ],
                pa.string(),
            ),
        }
    )
    out = redact_pii_batch(t)
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows[1]["text_redacted"] == "mail <EMAIL> or <PHONE> now"
    assert rows[1]["n_email"] == 1 and rows[1]["n_phone"] == 1
    # ipv4 and ssn claim their digit runs BEFORE the looser phone rule —
    # the pinned order means phone never re-matches redacted spans
    assert rows[2]["text_redacted"] == "server <IP> id <ID> backup <IP>"
    assert rows[2]["n_ipv4"] == 2 and rows[2]["n_ssn"] == 1
    assert rows[2]["n_phone"] == 0
    assert rows[3]["text_redacted"] is None and rows[3]["n_email"] is None
    assert rows[4]["text_redacted"] == "no pii here"
    assert all(rows[4][f"n_{k}"] == 0 for k in ("email", "ipv4", "ssn", "phone"))
    # dataset wrapper: row-local, partitioning-independent
    got = sorted(
        redact_pii(ray.data.from_arrow(t).repartition(3)).take_all(),
        key=lambda r: r["doc_id"],
    )
    assert [r["text_redacted"] for r in got] == [
        rows[i]["text_redacted"] for i in (1, 2, 3, 4)
    ]


def test_hash_shuffle_global_order(ray_session):
    import hashlib

    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.sampling import hash_shuffle

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(300)), pa.int64()),
            "text": pa.array(
                [f"doc body {i % 97} {i % 13}" for i in range(300)], pa.string()
            ),
        }
    )
    out = {
        r["doc_id"]: (r["pos"], r["shard"])
        for r in hash_shuffle(
            ray.data.from_arrow(docs).repartition(7),
            n_shards=4,
            id_col="doc_id",
            salt="t",
        ).take_all()
    }
    assert len(out) == 300
    # pos is a permutation of 0..n-1 and matches the brute-force order
    expect = sorted(
        range(300),
        key=lambda i: (
            hashlib.md5(b"t" + f"doc body {i % 97} {i % 13}".encode()).hexdigest(),
            i,
        ),
    )
    assert [out[i][0] for i in expect] == list(range(300))
    # shards are contiguous ranges of the shuffled order, balanced to ±1
    assert all(out[i][1] == out[i][0] * 4 // 300 for i in out)
    # partitioning-independent
    out2 = {
        r["doc_id"]: (r["pos"], r["shard"])
        for r in hash_shuffle(
            ray.data.from_arrow(docs), n_shards=4, id_col="doc_id", salt="t"
        ).take_all()
    }
    assert out == out2


def test_bpe_train_and_encode(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.bpe import (
        bpe_token_counts,
        encode_word,
        merge_loop,
        merge_word,
        train_bpe,
    )

    # pinned left-to-right scan: "aaaa" under (a,a) -> "aa","aa"; "aaa" -> "aa","a"
    assert merge_word(("a", "a", "a", "a"), ("a", "a")) == ("aa", "aa")
    assert merge_word(("a", "a", "a"), ("a", "a")) == ("aa", "a")
    # classic Sennrich example: ("e","s") wins round 1 on newest+widest
    wc = [("low", 5), ("lower", 2), ("newest", 6), ("widest", 3)]
    merges = merge_loop(wc, n_merges=4)
    assert merges[0][1:3] == ("e", "s") and merges[0][3] == 9
    assert merges[1][1:3] == ("es", "t") and merges[1][3] == 9
    assert merges[2][1:3] == ("est", "</w>")
    # lexicographic tiebreak: equal-count pairs pick the smallest (left,right)
    tie = merge_loop([("ab", 2), ("cd", 2)], n_merges=1)
    assert tie[0][1:3] == ("a", "b")
    # encode applies lowest-rank merge first; unseen words stay chars+</w>
    ranks = {(m[1], m[2]): m[0] for m in merges}
    assert encode_word("newest", ranks) == ("n", "e", "w", "est</w>")
    assert len(encode_word("zzz", ranks)) == 4
    # distributed: train over a Dataset, counts partition-independent
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(60)), pa.int64()),
            "text": pa.array(
                [" ".join(["low", "lower", "newest", "widest"][: 1 + i % 4]) for i in range(60)],
                pa.string(),
            ),
        }
    )
    m1 = train_bpe(ray.data.from_arrow(docs).repartition(6), n_merges=5, max_words=100)
    m2 = train_bpe(ray.data.from_arrow(docs), n_merges=5, max_words=100)
    assert m1.equals(m2)
    out = {
        r["doc_id"]: r
        for r in bpe_token_counts(
            ray.data.from_arrow(docs).repartition(4), m1, concurrency=2
        ).take_all()
    }
    assert len(out) == 60
    # doc 0 = "low": trained vocab compresses it below chars+eow
    assert out[0]["n_words"] == 1 and out[0]["n_bpe_tokens"] <= 4


def test_collocations_lift_ranking(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.colloc import collocations

    # "new york" always adjacent (high lift); "the cat"/"the dog" share
    # the promiscuous "the" (low lift); singleton pairs fall to min_count
    docs = [
        "new york " * 3 + "the cat the dog the fish",
        "the mat and the hat new york",
    ] * 5
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(10), pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
    )
    out = collocations(ds.repartition(4), min_count=5, k=10).to_pylist()
    by_pair = {(r["w1"], r["w2"]): r for r in out}
    ny = by_pair[("new", "york")]
    cat = by_pair[("the", "cat")]
    assert ny["n_pair"] == 20 and ny["n_w1"] == 20 and ny["n_w2"] == 20
    assert cat["n_pair"] == 5 and cat["n_w1"] == 25 and cat["n_w2"] == 5
    assert ny["lift"] > cat["lift"]
    assert out[0]["rank"] == 0 and [r["rank"] for r in out] == sorted(
        r["rank"] for r in out
    )
    # lift values strictly follow the pinned formula
    n_uni = sum(len(d.split()) for d in docs)
    n_bi = sum(len(d.split()) - 1 for d in docs)
    import numpy as np

    expect = (
        np.float64(20) * np.float64(n_uni) * np.float64(n_uni)
    ) / (np.float64(20) * np.float64(20) * np.float64(n_bi))
    assert ny["lift"] == expect
    # partitioning independence
    out2 = collocations(ds, min_count=5, k=10).to_pylist()
    assert [
        (r["rank"], r["w1"], r["w2"], r["lift"]) for r in out
    ] == [(r["rank"], r["w1"], r["w2"], r["lift"]) for r in out2]
    # the distributed fused-attach path (forced by a zero broadcast bound)
    # is bit-identical to the broadcast fast path, lift doubles included
    out3 = collocations(
        ds.repartition(4), min_count=5, k=10, broadcast_max_unigrams=0
    ).to_pylist()
    assert [tuple(r.values()) for r in out3] == [tuple(r.values()) for r in out]


def test_binned_histogram(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.quantiles import binned_histogram

    vals = [0.0, 4.99, 5.0, 7.5, -0.1, -5.0, float("nan"), None, 12.0]
    ds = ray.data.from_arrow(
        pa.table({"value": pa.array(vals, pa.float64())})
    ).repartition(3)
    out = {r["bin"]: (r["n"], r["lo"]) for r in binned_histogram(ds, "value", width=5.0).take_all()}
    # floor semantics: negatives round toward -inf; NaN and null drop
    assert out == {
        0: (2, 0.0),
        1: (2, 5.0),
        -1: (2, -5.0),
        2: (1, 10.0),
    }
    import pytest

    with pytest.raises(ValueError):
        binned_histogram(ds, "value", width=0)


def test_funnel_strictly_after_rule(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.windows import funnel

    t0 = dt.datetime(2024, 1, 1)

    def ev(uid, sec, ty):
        return {"user_id": uid, "ts": t0 + dt.timedelta(seconds=sec), "event_type": ty}

    rows = (
        # u1 completes all three in order
        [ev(1, 0, "view"), ev(1, 10, "click"), ev(1, 20, "purchase")]
        # u2: purchase BEFORE click — funnel stops after click
        + [ev(2, 0, "view"), ev(2, 5, "purchase"), ev(2, 10, "click")]
        # u3: click at the SAME µs as view — strictly-after excludes it
        + [ev(3, 0, "view"), ev(3, 0, "click")]
        # u4: no view at all — contributes to nothing
        + [ev(4, 0, "click"), ev(4, 1, "purchase")]
        # u5: greedy earliest view (t=0), later click still matches
        + [ev(5, 50, "view"), ev(5, 0, "view"), ev(5, 60, "click")]
    )
    out = funnel(
        ray.data.from_items(rows).repartition(4),
        steps=["view", "click", "purchase"],
    )
    got = {r["step"]: r["n_keys"] for r in out.to_pylist()}
    assert got == {"view": 4, "click": 3, "purchase": 1}
    assert out.column("step_idx").to_pylist() == [0, 1, 2]


def test_group_ranks_tie_semantics(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.windows import group_ranks

    t = pa.table(
        {
            "k": pa.array([1] * 5 + [2], pa.int64()),
            "id": pa.array([10, 11, 12, 13, 14, 20], pa.int64()),
            "v": pa.array([30, 30, 20, 20, 10, 7], pa.int64()),
        }
    )
    out = sorted(
        group_ranks(
            ray.data.from_arrow(t).repartition(3),
            key_col="k",
            order_col="v",
            id_col="id",
        ).take_all(),
        key=lambda r: (r["k"], r["row_num"]),
    )
    k1 = [(r["id"], r["row_num"], r["rnk"], r["dense_rnk"], r["pct_rank"]) for r in out[:5]]
    # ties share rank (gaps) and dense_rank (no gaps); row_number breaks by id
    assert k1 == [
        (10, 1, 1, 1, 0.0),
        (11, 2, 1, 1, 0.0),
        (12, 3, 3, 2, 0.5),
        (13, 4, 3, 2, 0.5),
        (14, 5, 5, 3, 1.0),
    ]
    # singleton partition: pct_rank pinned to 0.0
    assert out[5]["pct_rank"] == 0.0 and out[5]["rnk"] == 1


def test_cohort_retention(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.windows import cohort_retention

    day = 86400.0
    t0 = dt.datetime(2024, 1, 1)  # epoch-day 19723

    def ev(uid, d):
        return {"user_id": uid, "ts": t0 + dt.timedelta(days=d)}

    rows = (
        # u1: first day 0, returns day 1 and day 2 (offsets 0,1,2)
        [ev(1, 0), ev(1, 1), ev(1, 2), ev(1, 2)]
        # u2: same cohort, never returns
        + [ev(2, 0)]
        # u3: later cohort (day 2), returns day 3
        + [ev(3, 2), ev(3, 3)]
    )
    out = {
        (r["cohort"], r["offset"]): r["n_keys"]
        for r in cohort_retention(
            ray.data.from_items(rows).repartition(3), period_s=day
        ).take_all()
    }
    base = (dt.date(2024, 1, 1) - dt.date(1970, 1, 1)).days
    assert out == {
        (base, 0): 2,
        (base, 1): 1,
        (base, 2): 1,
        (base + 2, 0): 1,
        (base + 2, 1): 1,
    }
    # pre-epoch timestamps FLOOR into the previous period (the SQL //
    # rule), they don't truncate toward zero into period 0
    pre = {
        (r["cohort"], r["offset"]): r["n_keys"]
        for r in cohort_retention(
            ray.data.from_items(
                [
                    {"user_id": 9, "ts": dt.datetime(1969, 12, 31, 23, 59)},
                    {"user_id": 9, "ts": dt.datetime(1970, 1, 1, 0, 1)},
                ]
            ),
            period_s=day,
        ).take_all()
    }
    assert pre == {(-1, 0): 1, (-1, 1): 1}


def test_url_templates(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.urlmine import url_templates

    urls = (
        [f"https://a.example/item/{i}/view" for i in (3, 17, 240)]
        + [f"https://a.example/item/{i}" for i in (9, 9, 12)]
        + ["https://b.example/about"]
    )
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(urls, pa.string())})
    ).repartition(3)
    out = {r["template"]: r for r in url_templates(ds).take_all()}
    assert out["https://a.example/item/{n}/view"]["n_urls"] == 3
    # min url is lexicographic: "17" < "240" < "3"
    assert out["https://a.example/item/{n}/view"]["example"].endswith("/17/view")
    assert out["https://a.example/item/{n}"]["n_urls"] == 3
    assert out["https://b.example/about"]["n_urls"] == 1
    assert len(out) == 3


def test_export_manifest_and_resumable_write(ray_session, tmp_path):
    import hashlib
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from urlmap_ray.pipelines.export import export_manifest

    texts = [("tok " * (i % 9)).strip() for i in range(120)]
    docs = pa.table(
        {
            "doc_id": pa.array(range(120), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(5)
    out_dir = str(tmp_path / "export")
    rows = export_manifest(
        ds, n_shards=4, bucket_size=50, budget=12, salt="t", out_dir=out_dir
    ).take_all()
    # brute-force reference: md5 order → 50-doc buckets → greedy pack
    order = sorted(range(120), key=lambda i: (hashlib.md5(b"t" + texts[i].encode()).hexdigest(), i))
    n_buckets = -(-120 // 50)  # 3
    expect = {}
    for b in range(n_buckets):
        chunk = order[b * 50 : (b + 1) * 50]
        seqs, acc = 1, 0
        toks = 0
        for j, i in enumerate(chunk):
            nt = len(texts[i].split())
            if j > 0 and acc + nt > 12:
                seqs += 1
                acc = 0
            acc += nt
            toks += nt
        expect[b] = (b * 4 // n_buckets, len(chunk), seqs, toks)
    got = {r["bucket"]: (r["shard"], r["n_docs"], r["n_seqs"], r["n_tokens"]) for r in rows}
    assert got == expect
    # one parquet per bucket, packed order inside (+ the params sidecar)
    assert os.path.exists(os.path.join(out_dir, "_params.json"))
    files = sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))
    assert files == [f"bucket={b:06d}.parquet" for b in range(n_buckets)]
    t0 = pq.read_table(os.path.join(out_dir, files[0]))
    assert t0.column("pos").to_pylist() == sorted(t0.column("pos").to_pylist())
    # resumable: delete one bucket file, re-run — it comes back, result equal
    os.remove(os.path.join(out_dir, files[1]))
    rows2 = export_manifest(
        ds, n_shards=4, bucket_size=50, budget=12, salt="t", out_dir=out_dir
    ).take_all()
    assert sorted(map(tuple, (r.values() for r in rows2))) == sorted(
        map(tuple, (r.values() for r in rows))
    )
    assert sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet")) == files
    # resume guard: same out_dir with DIFFERENT params must refuse, not mix
    import pytest

    with pytest.raises(ValueError, match="refusing to resume"):
        export_manifest(
            ds, n_shards=4, bucket_size=50, budget=13, salt="t", out_dir=out_dir
        ).take_all()
    with pytest.raises(ValueError, match="refusing to resume"):
        export_manifest(  # changed input (row total) also refuses
            ds.limit(100), n_shards=4, bucket_size=50, budget=12, salt="t",
            out_dir=out_dir,
        ).take_all()


def test_export_manifest_edges(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.pipelines.export import export_manifest

    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )
    assert export_manifest(ray.data.from_arrow(empty), bucket_size=10).take_all() == []
    # exactly one full bucket: one manifest row, shard 0
    docs = pa.table(
        {
            "doc_id": pa.array(range(10), pa.int64()),
            "text": pa.array(["a b c"] * 10, pa.string()),
        }
    )
    rows = export_manifest(
        ray.data.from_arrow(docs), n_shards=4, bucket_size=10, budget=7
    ).take_all()
    assert len(rows) == 1
    r = rows[0]
    assert (r["bucket"], r["shard"], r["n_docs"], r["n_tokens"]) == (0, 0, 10, 30)
    assert r["n_seqs"] == 5  # 3 tokens/doc, budget 7 → 2 docs per sequence


def test_host_stats_rollup(ray_session):
    import pyarrow as pa
    import ray.data

    from urlmap_ray.functions.urlmine import host_stats

    pages = pa.table(
        {
            "url": pa.array(
                [
                    "https://a.example/x",
                    "https://a.example/y?q=1",
                    "https://b.example/",
                    "https://a.example/err",
                ]
            ),
            "status": pa.array([200, 301, 204, 503], pa.int32()),
            "html": pa.array([b"12345", b"", None, b"err!"], pa.binary()),
        }
    )
    out = {
        r["host"]: (r["n_pages"], r["n_ok"], r["n_err"], r["total_bytes"])
        for r in host_stats(ray.data.from_arrow(pages).repartition(3)).take_all()
    }
    # 301 is neither ok nor err; null body counts 0 bytes
    assert out == {"a.example": (3, 1, 1, 9), "b.example": (1, 1, 0, 0)}


def test_weighted_priority_sample_matches_reference(ray_session, docs_tbl):
    import ray.data

    from urlmap_ray.functions.sampling import weighted_priority_sample

    texts = docs_tbl.column("text").to_pylist()
    ids = docs_tbl.column("doc_id").to_pylist()
    rows = []
    for i, t in zip(ids, texts):
        b = (t or "").encode("utf-8")
        u = int(hashlib.md5(b"ws-t" + b).hexdigest()[:13], 16)
        w = len(b) + 1
        rows.append((u / w, i, w))
    rows.sort()
    k = 25
    exp = sorted((i, w, p) for p, i, w in rows[:k])

    # two different partitionings must give the identical sample
    for blocks in (2, 7):
        ds = ray.data.from_arrow(docs_tbl).repartition(blocks)
        got = [
            (r["doc_id"], r["weight"], r["priority"])
            for r in weighted_priority_sample(ds, k=k, salt="ws-t")
            .sort("doc_id")
            .take_all()
        ]
        assert [(i, w) for i, w, _ in got] == [(i, w) for i, w, _ in exp]
        # bit-exact priorities (single IEEE division both sides)
        assert [p for _, _, p in got] == [p for _, _, p in exp]


def test_weighted_priority_sample_oversamples_heavy_rows(ray_session):
    import ray.data

    from urlmap_ray.functions.sampling import weighted_priority_sample

    # 50 short docs and 50 docs 100x longer: the long half must win most
    # of a k=20 sample under byte-length weighting
    tbl = pa.table(
        {
            "doc_id": pa.array(range(100), pa.int64()),
            "text": pa.array(
                ["x" * 10] * 50 + ["y" * 1000] * 50, pa.string()
            ),
        }
    )
    got = weighted_priority_sample(
        ray.data.from_arrow(tbl), k=20, salt="heavy"
    ).take_all()
    heavy = sum(1 for r in got if r["doc_id"] >= 50)
    assert heavy >= 15


def test_weighted_priority_sample_k_exceeds_n(ray_session):
    import ray.data

    from urlmap_ray.functions.sampling import weighted_priority_sample

    tbl = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()),
         "text": pa.array(["a", "bb", None], pa.string())}
    )
    got = weighted_priority_sample(ray.data.from_arrow(tbl), k=10).take_all()
    assert sorted(r["doc_id"] for r in got) == [1, 2, 3]
    # null text weighs like empty: weight 1
    assert {r["doc_id"]: r["weight"] for r in got}[3] == 1


def test_table_profile_nulls_and_types(ray_session):
    import ray.data

    from urlmap_ray.functions.profile import table_profile

    tbl = pa.table(
        {
            "a": pa.array([1, 1, 2, None, None], pa.int64()),
            "s": pa.array(["x", None, "x", "y", "z"], pa.string()),
            "f": pa.array([0.5, 0.5, 1.5, None, 2.5], pa.float64()),
        }
    )
    rows = {
        r["column"]: r
        for r in table_profile(
            ray.data.from_arrow(tbl).repartition(3), columns=["a", "s", "f"]
        ).take_all()
    }
    assert rows["a"] == {"column": "a", "n_rows": 5, "n_nulls": 2, "n_distinct": 2}
    assert rows["s"] == {"column": "s", "n_rows": 5, "n_nulls": 1, "n_distinct": 3}
    assert rows["f"] == {"column": "f", "n_rows": 5, "n_nulls": 1, "n_distinct": 3}


def test_table_profile_saturation_estimate(ray_session):
    # Above k the KMV estimate kicks in: bounded error, never exact-k.
    import ray.data

    from urlmap_ray.functions.profile import table_profile

    n = 4000
    tbl = pa.table({"v": pa.array(np.arange(n, dtype=np.int64), pa.int64())})
    (row,) = table_profile(
        ray.data.from_arrow(tbl).repartition(4), columns=["v"], k=256
    ).take_all()
    assert row["n_rows"] == n and row["n_nulls"] == 0
    assert abs(row["n_distinct"] - n) / n < 0.2


def _corr_ppb_reference(x, y):
    # exact-integer moments -> the pinned one-IEEE-op-per-step corr chain
    import math

    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    syy = sum(v * v for v in y)
    sxy = sum(a * b for a, b in zip(x, y))
    num = n * sxy - sx * sy
    d1 = n * sxx - sx * sx
    d2 = n * syy - sy * sy
    if d1 <= 0 or d2 <= 0:
        return None
    corr = float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
    return math.floor(corr * 1e9 + 0.5)


def test_cross_moments_matches_reference_any_parallelism(ray_session):
    import ray.data

    from urlmap_ray.functions.profile import cross_moments

    rng = np.random.default_rng(7)
    n = 3000
    a = rng.integers(0, 1 << 20, n).astype(np.int64)
    b = (a // 3 + rng.integers(0, 1 << 10, n)).astype(np.int64)
    c = rng.integers(-(1 << 20), 1 << 20, n).astype(np.int64)
    tbl = pa.table({"a": a, "b": b, "c": c})
    want = {
        ("a", "b"): _corr_ppb_reference([int(v) for v in a], [int(v) for v in b]),
        ("a", "c"): _corr_ppb_reference([int(v) for v in a], [int(v) for v in c]),
        ("b", "c"): _corr_ppb_reference([int(v) for v in b], [int(v) for v in c]),
    }
    outs = []
    for parts in (1, 3, 8):
        rows = cross_moments(
            ray.data.from_arrow(tbl).repartition(parts), cols=["a", "b", "c"]
        ).take_all()
        got = {(r["col_a"], r["col_b"]): r["corr_ppb"] for r in rows}
        assert all(r["n_rows"] == n for r in rows)
        assert got == want
        outs.append(sorted(rows, key=lambda r: (r["col_a"], r["col_b"])))
    # bit-identical at any parallelism
    assert outs[0] == outs[1] == outs[2]
    # correlated pair really reads as correlated, independent pair near 0
    assert want[("a", "b")] > 900_000_000
    assert abs(want[("a", "c")]) < 100_000_000


def test_cross_moments_constant_column_is_null(ray_session):
    import ray.data

    from urlmap_ray.functions.profile import cross_moments

    tbl = pa.table(
        {
            "k": pa.array([5, 5, 5, 5], pa.int64()),
            "v": pa.array([1, 2, 3, 4], pa.int64()),
        }
    )
    (row,) = cross_moments(
        ray.data.from_arrow(tbl).repartition(2), cols=["k", "v"]
    ).take_all()
    assert row["n_rows"] == 4 and row["corr_ppb"] is None

    import pytest

    with pytest.raises(ValueError):
        cross_moments(ray.data.from_arrow(tbl), cols=["k"])


def test_bloom_build_bit_identical_and_no_false_negatives(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import (
        bloom_build,
        bloom_contains,
        hash64_column,
    )

    vals = np.arange(5000, dtype=np.int64) * 7
    tbl = pa.table({"v": pa.array(vals, pa.int64())})
    maps = [
        bloom_build(
            ray.data.from_arrow(tbl).repartition(parts), col="v", m_bits=1 << 20
        )
        for parts in (1, 3, 8)
    ]
    # OR-fold is associative+commutative: bitmap identical at any split
    assert maps[0].tobytes() == maps[1].tobytes() == maps[2].tobytes()
    h_in = hash64_column(pa.array(vals, pa.int64()))
    assert bloom_contains(maps[0], h_in).all()  # no false negatives, ever
    # FP rate sanity in a disjoint key range: n=5k, m=2^20, k=7 ->
    # theoretical ~2e-9; allow generous slack
    h_out = hash64_column(pa.array(np.arange(10**6, 10**6 + 20000), pa.int64()))
    assert bloom_contains(maps[0], h_out).mean() < 0.001


def test_bloom_sparse_dense_forms_agree(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import bloom_build, bloom_contains, hash64_column

    # tiny m forces the DENSE per-batch form; compare against a large-m
    # sparse build probed on the same keys
    vals = pa.array([f"url-{i}" for i in range(300)], pa.string())
    tbl = pa.table({"v": vals})
    small = bloom_build(ray.data.from_arrow(tbl).repartition(2), col="v", m_bits=1 << 12)
    h = hash64_column(vals)
    assert bloom_contains(small, h).all()
    # dense-form batches (300 keys * 7 probes * 8B > 2^12/8 bytes) still
    # fold to the exact same bitmap as a single-partition build
    one = bloom_build(ray.data.from_arrow(tbl), col="v", m_bits=1 << 12)
    assert small.tobytes() == one.tobytes()


def test_bloom_filter_ds_gate(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import bloom_build, bloom_filter_ds

    seen = pa.table({"url": pa.array([f"u{i}" for i in range(100)], pa.string())})
    bloom = bloom_build(ray.data.from_arrow(seen), col="url", m_bits=1 << 18)
    cand = pa.table(
        {"url": pa.array([f"u{i}" for i in range(90, 110)], pa.string())}
    )
    fresh = bloom_filter_ds(
        ray.data.from_arrow(cand).repartition(3), bloom, col="url", negate=True
    ).take_all()
    got = sorted(r["url"] for r in fresh)
    # new URLs survive the seen-gate (FPs could only ever REMOVE, and
    # m is far above the knee here); seen URLs are all dropped
    assert got == [f"u{i}" for i in range(100, 110)]


def test_topk_q8_exact_ids_any_parallelism(ray_session, emb_tbl):
    import ray.data

    from urlmap_ray.functions.similarity import topk_cosine_q8

    m = np.asarray(emb_tbl.column("embedding").to_pylist(), dtype=np.float64)
    q = m[:3]
    exact = topk_cosine(ray.data.from_arrow(emb_tbl), q, k=10)
    ex = list(zip(exact.column("query_idx").to_pylist(),
                  exact.column("vec_id").to_pylist()))
    for parts in (1, 4):
        st = {}
        got = topk_cosine_q8(
            ray.data.from_arrow(emb_tbl).repartition(parts), q, k=10, stats=st
        )
        ids = list(zip(got.column("query_idx").to_pylist(),
                       got.column("vec_id").to_pylist()))
        # guaranteed exact: the error-bound band provably contains the
        # true top-k, so ids AND order match brute force exactly
        assert ids == ex
        assert 0 < st["cand_frac"] <= 1.0
    # scores are exact float64 cosine (<= 1 ulp of the dgemm brute path)
    sr = np.array(exact.column("score").to_pylist())
    sg = np.array(got.column("score").to_pylist())
    assert np.abs(sr - sg).max() < 1e-12


def test_topk_q8_band_is_selective_on_clustered_data(ray_session):
    import ray.data

    from urlmap_ray.functions.similarity import topk_cosine_q8

    # a clustered corpus: most rows are far from the query, so the
    # candidate band should touch a small fraction at full precision
    rng = np.random.default_rng(11)
    far = rng.standard_normal((4000, 32)) + 8.0
    near = rng.standard_normal((50, 32)) - 8.0
    m = np.vstack([far, near])
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(m)), pa.int64()),
            "embedding": pa.array(m.tolist(), pa.list_(pa.float64())),
        }
    )
    q = (np.zeros((1, 32)) - 8.0) + rng.standard_normal((1, 32)) * 0.1
    st = {}
    out = topk_cosine_q8(ray.data.from_arrow(tbl), q, k=10, stats=st)
    assert out.num_rows == 10
    assert set(out.column("vec_id").to_pylist()) <= set(range(4000, 4050))
    assert st["cand_frac"] < 0.25  # full-precision reads: the band only


def test_stupid_backoff_bit_equal_any_parallelism(ray_session):
    import ray.data

    from urlmap_ray.functions.lm import sb_reference, sb_score, sb_train

    rng = np.random.default_rng(9)
    words = [f"w{i}" for i in range(50)]
    texts = [
        " ".join(words[rng.integers(50)] for _ in range(rng.integers(0, 40)))
        for _ in range(200)
    ]
    texts[5] = ""  # empty doc scores (0, 0)
    docs = pa.table(
        {"doc_id": pa.array(range(200), pa.int64()), "text": pa.array(texts)}
    )
    want = sb_reference(docs)
    for parts in (1, 3, 8):
        ds = ray.data.from_arrow(docs).repartition(parts)
        got = pa.Table.from_pylist(
            sorted(sb_score(ds, sb_train(ds)).take_all(), key=lambda r: r["doc_id"])
        )
        # distributed training (capped shuffle) + scoring == the
        # sequential Counter reference, bit for bit
        assert got.equals(want)
    assert {r["doc_id"]: r["sb_ppb"] for r in want.to_pylist()}[5] == 0


def test_stupid_backoff_bigram_context_beats_backoff(ray_session):
    import ray.data

    from urlmap_ray.functions.lm import sb_score, sb_train

    # "a b" always adjacent -> bigram path: ln(c_ab/c_a) = ln(1) = 0 per
    # pair position; shuffled-vocab doc of same tokens pays ln(0.4)+unigram
    fluent = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["a b a b a b a b", "b b a a b a a b"]),
        }
    )
    ds = ray.data.from_arrow(fluent)
    got = {
        r["doc_id"]: r["sb_ppb"] for r in sb_score(ds, sb_train(ds)).take_all()
    }
    assert got[0] > got[1]  # repeated bigram structure scores higher


def test_stupid_backoff_tiny_bigram_cap_falls_back(ray_session):
    import ray.data

    from urlmap_ray.functions.lm import sb_score, sb_train

    docs = pa.table(
        {
            "doc_id": pa.array([0], pa.int64()),
            "text": pa.array(["x y x y x z"]),
        }
    )
    ds = ray.data.from_arrow(docs)
    full = sb_score(ds, sb_train(ds)).take_all()[0]["sb_ppb"]
    capped = sb_score(ds, sb_train(ds, max_bigrams=1)).take_all()[0]["sb_ppb"]
    # dropping bigrams from the table forces the alpha-discounted
    # unigram path -> strictly lower mean log-score
    assert capped < full


def test_containment_pairs_directed_semantics(ray_session):
    import ray.data

    from urlmap_ray.functions.dedup import containment_pairs

    long = " ".join(f"tok{i}" for i in range(40))
    texts = {
        0: " ".join(f"tok{i}" for i in range(10)),  # prefix of 1
        1: "lead in " + long + " trailing words here",
        2: "totally other vocabulary with nothing shared at all today",
        3: long,  # contiguous inside 1
    }
    t = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values())),
        }
    )
    for parts in (1, 3):
        out = containment_pairs(
            ray.data.from_arrow(t).repartition(parts), threshold=0.9
        ).take_all()
        got = sorted((r["contained"], r["container"]) for r in out)
        # 0 is contained in both 1 and 3, 3 in 1; the long doc 1 is NOT
        # contained in anything, and Jaccard(0,1) is far below any
        # symmetric threshold
        assert got == [(0, 1), (0, 3), (3, 1)]


def test_containment_pairs_rejects_bad_buckets(ray_session):
    import pytest
    import ray.data

    from urlmap_ray.functions.dedup import containment_pairs

    t = pa.table({"doc_id": pa.array([0], pa.int64()), "text": pa.array(["x"])})
    with pytest.raises(ValueError, match="power of two"):
        containment_pairs(ray.data.from_arrow(t), buckets=1000)


def test_mg_topk_per_key_exact_below_capacity(ray_session):
    import collections

    import ray.data

    from urlmap_ray.functions.sketch import mg_topk_per_key

    rng = np.random.default_rng(1)
    keys = rng.choice(["a", "b", "c"], 5000)
    vals = (rng.zipf(1.5, 5000) % 40).astype(str)
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    ref = {
        kk: sorted(
            collections.Counter(vals[keys == kk]).items(),
            key=lambda it: (-it[1], it[0]),
        )[:5]
        for kk in "abc"
    }
    for parts in (1, 4):
        rows = mg_topk_per_key(
            ray.data.from_arrow(t).repartition(parts), key_col="k", col="v", k=5
        ).take_all()
        got: dict = {}
        for r in sorted(rows, key=lambda r: (r["k"], r["rnk"])):
            got.setdefault(r["k"], []).append((r["value"], r["n"]))
        # distinct values per key (<=40) far below capacity -> exact at
        # any parallelism, with the pinned (n DESC, value ASC) tie-break
        assert got == ref


def test_mg_topk_per_key_saturated_keeps_heavy_hitter(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import mg_topk_per_key

    # one hot value + a sea of singletons, capacity far below distinct:
    # MG guarantees the heavy hitter survives truncation with
    # undercount <= 3n/(capacity+1)
    n = 6000
    vals = ["hot"] * 2000 + [f"v{i}" for i in range(n - 2000)]
    t = pa.table(
        {"k": pa.array(["x"] * n), "v": pa.array(vals)}
    )
    rows = mg_topk_per_key(
        ray.data.from_arrow(t).repartition(6),
        key_col="k",
        col="v",
        k=1,
        capacity=64,
        n_vbuckets=4,
    ).take_all()
    (top,) = rows
    assert top["value"] == "hot"
    assert 2000 - 3 * n // 65 <= top["n"] <= 2000


def test_kmv_rolling_distinct_exact_with_calendar_hole(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import kmv_rolling_distinct

    rng = np.random.default_rng(2)
    days = rng.integers(100, 130, 4000)
    days = days[days != 115]  # a hole: no window reported for day 115
    users = rng.integers(0, 300, len(days))
    t = pa.table(
        {"day": pa.array(days, pa.int64()), "u": pa.array(users, pa.int64())}
    )
    ref = {
        d: len(set(users[(days >= d - 2) & (days <= d)].tolist()))
        for d in sorted(set(days.tolist()))
    }
    for parts in (1, 4):
        rows = kmv_rolling_distinct(
            ray.data.from_arrow(t).repartition(parts),
            day_col="day",
            col="u",
            window=3,
            k=4096,
        ).take_all()
        got = {r["day"]: r["n_distinct"] for r in rows}
        # exact below saturation at any parallelism; day 115 absent
        assert got == ref
        assert 115 not in got


def test_kmv_rolling_distinct_saturated_estimate(ray_session):
    import ray.data

    from urlmap_ray.functions.sketch import kmv_rolling_distinct

    # one day, 20k distinct values, k=256 -> KMV estimate within ~15%
    n = 20000
    t = pa.table(
        {
            "day": pa.array(np.full(n, 7), pa.int64()),
            "u": pa.array(np.arange(n), pa.int64()),
        }
    )
    (row,) = kmv_rolling_distinct(
        ray.data.from_arrow(t).repartition(4), day_col="day", col="u", k=256
    ).take_all()
    assert abs(row["n_distinct"] - n) / n < 0.2


def test_topk_q8_tolerates_empty_blocks(ray_session, emb_tbl):
    # ADVICE r4: empty blocks (repartition leftovers / empty fragments)
    # must not crash the envelope or the partial scan
    import ray.data

    from urlmap_ray.functions.similarity import topk_cosine, topk_cosine_q8

    m = np.asarray(emb_tbl.column("embedding").to_pylist(), dtype=np.float64)
    q = m[:2]
    # far more partitions than rows guarantees some empty blocks
    ds = ray.data.from_arrow(emb_tbl.slice(0, 5)).repartition(16)
    got = topk_cosine_q8(ds, q, k=3)
    exact = topk_cosine(ray.data.from_arrow(emb_tbl.slice(0, 5)), q, k=3)
    assert got.column("vec_id").to_pylist() == exact.column("vec_id").to_pylist()


def test_bloom_filter_carries_build_k(ray_session):
    # ADVICE r4: the bitmap must carry k — building with a non-default k
    # and probing with the default silently produced false negatives
    import ray.data

    from urlmap_ray.functions.sketch import (
        bloom_build,
        bloom_contains,
        hash64_column,
    )

    vals = pa.array([f"u{i}" for i in range(500)], pa.string())
    bloom = bloom_build(
        ray.data.from_arrow(pa.table({"v": vals})), col="v", m_bits=1 << 16, k=3
    )
    assert bloom.k == 3
    h = hash64_column(vals)
    # probe through the wrapper: uses the build k, no false negatives
    assert bloom_contains(bloom, h).all()
    # an explicit conflicting k fails loudly instead of silently probing
    import pytest

    with pytest.raises(ValueError):
        bloom_contains(bloom, h, k=7)
    with pytest.raises(ValueError):
        from urlmap_ray.functions.sketch import bloom_filter_ds

        bloom_filter_ds(
            ray.data.from_arrow(pa.table({"v": vals})), bloom, col="v", k=7
        )


def test_bloom_filter_ds_null_rows(ray_session):
    # ADVICE r4: nulls are dropped at build, so a null row was never
    # inserted — it must gate as not-present (kept under negate=True,
    # dropped otherwise), never hashed as the ""/0 sentinel
    import ray.data

    from urlmap_ray.functions.sketch import bloom_build, bloom_filter_ds

    seen = pa.table({"url": pa.array(["", "a", "b"], pa.string())})
    bloom = bloom_build(ray.data.from_arrow(seen), col="url", m_bits=1 << 16)
    cand = pa.table({"url": pa.array(["a", None, "z", None], pa.string())})
    fresh = bloom_filter_ds(
        ray.data.from_arrow(cand), bloom, col="url", negate=True
    ).take_all()
    # "" IS a real seen value; the null rows must still survive the
    # negate gate (previously they hashed as "" and were wrongly dropped)
    assert sorted([r["url"] for r in fresh], key=lambda v: (v is None, v)) == [
        "z",
        None,
        None,
    ]
    kept = bloom_filter_ds(
        ray.data.from_arrow(cand), bloom, col="url", negate=False
    ).take_all()
    assert [r["url"] for r in kept] == ["a"]


def test_cross_moments_contract_violation_fails_loudly(ray_session):
    # ADVICE r4: values at/above 2^21 could overflow the int64 partial
    # sums silently — the contract must be enforced, not documented
    import ray.data

    import pytest

    from urlmap_ray.functions.profile import cross_moments

    big = pa.table(
        {
            "x": pa.array([1 << 21, 5], pa.int64()),
            "y": pa.array([1, 2], pa.int64()),
        }
    )
    with pytest.raises(Exception) as ei:
        cross_moments(ray.data.from_arrow(big), cols=["x", "y"]).take_all()
    assert "2^21" in str(ei.value)


def _mp4_bytes(
    *, dur_s: float = 120.0, timescale: int = 1000, w: int = 1920, h: int = 1080,
    fast_start: bool = True, mvhd_version: int = 0, truncate: str | None = None
):
    """Hand-built minimal ISO BMFF file: ftyp + moov(mvhd + trak(tkhd)) +
    mdat, the same role _wav_bytes plays for the audio decoder.
    ``truncate="mvhd"`` cuts the mvhd box before its duration field and
    ``truncate="tkhd"`` cuts the tkhd box to its version and flags; the
    enclosing boxes stay well-formed."""
    import struct

    def box(typ: bytes, payload: bytes) -> bytes:
        return struct.pack(">I", len(payload) + 8) + typ + payload

    if mvhd_version == 0:
        mvhd = box(
            b"mvhd",
            bytes([0, 0, 0, 0])  # version 0 + flags
            + struct.pack(">II", 0, 0)  # ctime, mtime
            + struct.pack(">I", timescale)
            + struct.pack(">I", int(dur_s * timescale))
            + b"\x00" * (4 + 2 + 10 + 36 + 24 + 4),
        )
    else:
        mvhd = box(
            b"mvhd",
            bytes([1, 0, 0, 0])
            + struct.pack(">QQ", 0, 0)
            + struct.pack(">I", timescale)
            + struct.pack(">Q", int(dur_s * timescale))
            + b"\x00" * (4 + 2 + 10 + 36 + 24 + 4),
        )
    tkhd = box(
        b"tkhd",
        bytes([0, 0, 0, 0])
        + struct.pack(">IIII", 0, 0, 1, 0)  # ctime mtime track_id reserved
        + struct.pack(">I", int(dur_s * timescale))
        + b"\x00" * (8 + 2 + 2 + 2 + 2 + 36)
        + struct.pack(">II", w << 16, h << 16),  # 16.16 fixed point
    )
    if truncate == "mvhd":
        mvhd = box(b"mvhd", mvhd[8 : 8 + 16 if mvhd_version == 0 else 8 + 24])
    elif truncate == "tkhd":
        tkhd = box(b"tkhd", tkhd[8:12])
    moov = box(b"moov", mvhd + box(b"trak", tkhd))
    ftyp = box(b"ftyp", b"isom\x00\x00\x02\x00isomiso2")
    mdat = box(b"mdat", b"\x00" * 64)
    return ftyp + (moov + mdat if fast_start else mdat + moov)


def test_media_real_decode_mp4_header(ray_session):
    """Video rows: the stdlib ISO BMFF container-header probe yields
    duration / resolution / track-count / fast-start features without any
    frame decode; corrupt or non-BMFF payloads yield the zero vector."""
    import ray.data

    payloads = [
        _mp4_bytes(),
        _mp4_bytes(fast_start=False),
        _mp4_bytes(mvhd_version=1, dur_s=7200.0),  # v1 64-bit, > 1h cap
        b"definitely not an mp4",
        _mp4_bytes()[:40],  # truncated mid-box
    ]
    media = pa.table(
        {
            "media_id": pa.array(list(range(1, 6)), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["video"] * 5, pa.string()),
            "width": pa.array([0] * 5, pa.int32()),
            "height": pa.array([0] * 5, pa.int32()),
            "duration_ms": pa.array([0] * 5, pa.int32()),
        }
    )
    out = (
        ray.data.from_arrow(media)
        .map_batches(
            MediaFeatureExtractor,
            fn_constructor_kwargs=dict(mode="real"),
            concurrency=(1, 1),
            batch_size=8,
            batch_format="pyarrow",
        )
        .to_pandas()
        .set_index("media_id")
    )
    good, late_moov, v1, junk, trunc = (out.loc[i, "features"] for i in range(1, 6))
    assert good[0] == 1.0  # parsed
    assert good[1] == np.float32(120.0 / 3600.0)  # 2-minute duration
    assert good[3] == np.float32(1920 / 4096.0)
    assert good[4] == np.float32(1080 / 4096.0)
    assert good[5] == np.float32(1 / 8.0)  # one track
    assert good[6] == 1.0  # moov before mdat: streamable
    assert late_moov[6] == 0.0  # moov after mdat
    assert late_moov[1] == good[1]  # same duration either layout
    assert v1[1] == 1.0  # 2h clamps at the 1h cap; v1 64-bit fields parse
    assert all(v == 0.0 for v in junk)
    assert all(v == 0.0 for v in trunc)
    # determinism
    ex = MediaFeatureExtractor(mode="real")
    assert np.array_equal(ex._features_mp4(_mp4_bytes()), ex._features_mp4(_mp4_bytes()))


@pytest.mark.parametrize(
    "kw",
    [
        dict(truncate="mvhd"),
        dict(truncate="mvhd", mvhd_version=1),
        dict(truncate="tkhd"),
    ],
    ids=["mvhd-v0", "mvhd-v1", "tkhd"],
)
def test_media_real_decode_mp4_truncated_header_box(kw):
    """A header box too short for the fields the probe decodes yields the
    zero vector instead of fields read from bytes outside the box."""
    ex = MediaFeatureExtractor(mode="real")
    assert ex._features_mp4(_mp4_bytes())[0] == 1.0
    assert not ex._features_mp4(_mp4_bytes(**kw)).any()


def test_topk_ivf_multi_assignment_recall(ray_session, emb_tbl):
    # multi-assignment (VERDICT r4 #7): indexing each vector under its
    # top-3 cells lifts low-nprobe recall on weakly-clustered embeddings
    import ray.data

    from urlmap_ray.functions.similarity import topk_cosine_ivf

    m = np.asarray(emb_tbl.column("embedding").to_pylist(), dtype=np.float64)
    q = m[:3]
    exact = topk_cosine(ray.data.from_arrow(emb_tbl), q, k=10)
    st: dict = {}
    approx = topk_cosine_ivf(
        ray.data.from_arrow(emb_tbl),
        q,
        k=10,
        n_centroids=8,
        nprobe=3,
        assign_cells=3,
        stats=st,
    )
    ex = set(zip(exact.column("query_idx").to_pylist(), exact.column("vec_id").to_pylist()))
    ap = set(zip(approx.column("query_idx").to_pylist(), approx.column("vec_id").to_pylist()))
    assert len(ex & ap) / len(ex) >= 0.8
    assert st["assign_cells"] == 3
    # the honesty stats record the actual candidate fraction scanned
    assert 0 < st["scan_row_frac"] <= 1.0


def test_topk_ivf_multi_assignment_sample_smaller_than_cells(ray_session, emb_tbl):
    # a 2-row dataset trains 2 centroids: assign_cells=3 is clamped to the
    # trained count instead of raising "kth out of bounds"
    import ray.data

    from urlmap_ray.functions.similarity import topk_cosine_ivf

    tiny = emb_tbl.slice(0, 2)
    q = np.asarray(tiny.column("embedding").to_pylist(), dtype=np.float64)[:1]
    exact = topk_cosine(ray.data.from_arrow(tiny), q, k=2)
    st: dict = {}
    approx = topk_cosine_ivf(
        ray.data.from_arrow(tiny),
        q,
        k=2,
        n_centroids=8,
        nprobe=3,
        assign_cells=3,
        stats=st,
    )
    assert st["assign_cells"] == 2
    assert st["scan_row_frac"] == 1.0  # every row sits in one of the 2 cells probed
    assert approx.column("vec_id").to_pylist() == exact.column("vec_id").to_pylist()
