"""Multimodal column plumbing: opaque ``binary`` payloads with typed
metadata, processed by actor-pool ``map_batches`` stages.

Two decode modes, same output schema:

- ``deterministic-fake`` (default): stable pseudo-features from the payload
  bytes, so the Ray-side plumbing — schema, batch sizing for large
  binaries, actor signature, output layout — is real and testable end to
  end in environments without codec libraries, and the media_features
  oracle is reproducible in SQL.
- ``real``: per-media-type dispatch. Audio decodes WAV payloads with the
  stdlib ``wave`` module (zero extra dependencies — always available);
  images decode via Pillow when importable (an optional dependency —
  absent in this container, so an image ROW under mode="real" raises
  NotImplementedError loudly at call time; the Pillow path is covered by
  a skipped-without-Pillow test). Video rows get a stdlib ISO BMFF
  (MP4/MOV) container-HEADER probe — ftyp/mvhd/tkhd walk yielding
  duration, resolution, track count and fast-start layout, the triage
  features a pipeline filters on before paying for decode — while frame
  decoding itself (ffmpeg) stays honestly out of scope; non-BMFF or
  corrupt payloads yield the zero vector, the same convention as the
  other decoders.

At scale: binary payloads dominate block size, so stages here should run
with small ``batch_size`` (32-128) and ``target_max_block_size`` tuned so
batch × concurrency fits the worker heap; metadata-only transforms project
the binary column away first.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("payload", pa.binary()),
        ("media_type", pa.string()),  # image | audio | video
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)


def make_media_table(docs: pa.Table, *, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Derive a deterministic media table from a documents table (payload =
    UTF-8 bytes standing in for encoded media; dims derived from content)."""
    ids = docs.column(id_col).to_pylist()
    texts = docs.column(text_col).to_pylist()
    payloads, types, ws, hs, durs = [], [], [], [], []
    for t in texts:
        b = (t or "").encode("utf-8")
        digest = hashlib.md5(b).digest()
        payloads.append(b)
        types.append(["image", "audio", "video"][digest[0] % 3])
        ws.append(64 + digest[1] % 192)
        hs.append(64 + digest[2] % 192)
        durs.append(100 + int.from_bytes(digest[3:5], "little") % 10000)
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(types, pa.string()),
            "width": pa.array(ws, pa.int32()),
            "height": pa.array(hs, pa.int32()),
            "duration_ms": pa.array(durs, pa.int32()),
        }
    )


class MediaFeatureExtractor:
    """Actor-pool stage: decode → feature-extract per media row.

    Use as ``ds.map_batches(MediaFeatureExtractor, fn_constructor_kwargs=
    {"mode": "deterministic-fake"}, concurrency=(1, N), batch_size=64,
    num_cpus=1, batch_format="pyarrow")`` — decoder state (codec contexts /
    model weights in a real deployment) is initialized once per actor here
    in ``__init__``, not per batch.
    """

    N_FEATURES = 8

    def __init__(self, mode: str = "deterministic-fake"):
        if mode == "real":
            # Decoder state loads once per ACTOR, here in __init__ — codec
            # contexts / model weights never reload per batch. Audio (WAV)
            # uses the stdlib wave module, always present; Pillow (images)
            # is optional — absent, image ROWS raise loudly at call time
            # rather than silently faking (audio-only pipelines still run).
            import wave as _wave

            self._wave = _wave
            try:
                from PIL import Image

                self._pil_image = Image
            except ImportError:
                self._pil_image = None
        elif mode != "deterministic-fake":
            raise ValueError(f"unknown decode mode: {mode}")
        self.mode = mode

    def _features(self, payload: bytes) -> np.ndarray:
        digest = hashlib.sha256(payload or b"").digest()
        return np.frombuffer(digest[: self.N_FEATURES * 4], dtype=np.uint32).astype(
            np.float32
        ) / np.float32(2**32)

    def _features_image(self, payload: bytes) -> np.ndarray:
        """Pillow decode → 8 deterministic image statistics (means/stds of
        RGB over a 16×16 thumbnail + normalized dims). A payload that fails
        to decode yields the zero vector — a corrupt image must not kill a
        100 TB job; filter on ``sum(features) == 0`` downstream."""
        import io

        if self._pil_image is None:
            raise NotImplementedError(
                "real image decoding requires Pillow — not present in this "
                "environment; use mode='deterministic-fake' for image rows"
            )
        try:
            with self._pil_image.open(io.BytesIO(payload or b"")) as im:
                im = im.convert("RGB")
                w, h = im.size
                im.thumbnail((16, 16))
                px = np.asarray(im, dtype=np.float32) / 255.0
        except Exception:
            return np.zeros(self.N_FEATURES, dtype=np.float32)
        return np.array(
            [
                px[..., 0].mean(), px[..., 1].mean(), px[..., 2].mean(),
                px[..., 0].std(), px[..., 1].std(), px[..., 2].std(),
                min(1.0, w / 4096.0), min(1.0, h / 4096.0),
            ],
            dtype=np.float32,
        )

    def _features_wav(self, payload: bytes) -> np.ndarray:
        """stdlib ``wave`` decode → 8 deterministic audio statistics
        (normalized channel count / sample rate / duration + amplitude
        stats of the PCM signal). Corrupt payloads → zero vector, the same
        convention as the image decoder."""
        import io

        try:
            with self._wave.open(io.BytesIO(payload or b"")) as w:
                nch, sw, rate = w.getnchannels(), w.getsampwidth(), w.getframerate()
                nframes = w.getnframes()
                raw = w.readframes(nframes)
            dtype = {1: np.int8, 2: np.int16, 4: np.int32}.get(sw)
            if dtype is None or rate <= 0:
                return np.zeros(self.N_FEATURES, dtype=np.float32)
            x = np.frombuffer(raw, dtype=dtype).astype(np.float32)
            if len(x):
                x = x / np.float32(2 ** (8 * sw - 1))  # → [-1, 1]
            mean_abs = float(np.abs(x).mean()) if len(x) else 0.0
            rms = float(np.sqrt((x * x).mean())) if len(x) else 0.0
            peak = float(np.abs(x).max()) if len(x) else 0.0
            zcr = (
                float(np.count_nonzero(np.signbit(x[1:]) != np.signbit(x[:-1])))
                / max(len(x) - 1, 1)
            )
            return np.array(
                [
                    min(1.0, nch / 8.0),
                    min(1.0, rate / 96_000.0),
                    min(1.0, (nframes / rate) / 3600.0),  # duration, ≤1h
                    min(1.0, sw / 4.0),
                    mean_abs, rms, peak, zcr,
                ],
                dtype=np.float32,
            )
        except Exception:
            return np.zeros(self.N_FEATURES, dtype=np.float32)

    def _features_mp4(self, payload: bytes) -> np.ndarray:
        """Container-HEADER probe for video rows: walk the ISO BMFF
        (MP4/MOV) box tree with pure stdlib byte arithmetic — ``ftyp``
        presence, ``moov/mvhd`` timescale+duration, per-``trak`` ``tkhd``
        width/height (16.16 fixed point), track count, and whether
        ``moov`` precedes ``mdat`` (fast-start / streamable). No frame is
        decoded — that genuinely needs ffmpeg — but duration / resolution
        / streamability are exactly the triage features a 100 TB video
        pipeline filters on before paying for decode. Corrupt or
        non-BMFF payloads → zero vector, the WAV/image convention."""
        try:
            data = payload or b""
            n = len(data)

            def boxes(lo: int, hi: int):
                off = lo
                while off + 8 <= hi:
                    size = int.from_bytes(data[off : off + 4], "big")
                    typ = data[off + 4 : off + 8]
                    body = off + 8
                    if size == 1:  # 64-bit largesize
                        if body + 8 > hi:
                            return
                        size = int.from_bytes(data[body : body + 8], "big")
                        body += 8
                    elif size == 0:  # box extends to end of file
                        size = hi - off
                    if size < 8 or off + size > hi:
                        return
                    yield typ, body, off + size
                    off += size

            has_ftyp = False
            moov_pos = mdat_pos = -1
            timescale = duration = 0
            widths: list[float] = []
            heights: list[float] = []
            n_tracks = 0
            for typ, body, end in boxes(0, n):
                if typ == b"ftyp":
                    has_ftyp = True
                elif typ == b"mdat" and mdat_pos < 0:
                    mdat_pos = body
                elif typ == b"moov":
                    moov_pos = body
                    for t2, b2, e2 in boxes(body, end):
                        if t2 == b"mvhd" and b2 < e2:
                            ver = data[b2]
                            # v0: 4-byte times; v1: 8-byte
                            ts_off = b2 + 4 + (16 if ver == 1 else 8)
                            dur_off = ts_off + 4
                            dlen = 8 if ver == 1 else 4
                            if dur_off + dlen > e2:  # truncated mvhd
                                return np.zeros(self.N_FEATURES, dtype=np.float32)
                            timescale = int.from_bytes(
                                data[ts_off : ts_off + 4], "big"
                            )
                            duration = int.from_bytes(
                                data[dur_off : dur_off + dlen], "big"
                            )
                        elif t2 == b"trak":
                            n_tracks += 1
                            for t3, b3, e3 in boxes(b2, e2):
                                if t3 == b"tkhd":
                                    # width/height are the LAST 8 bytes
                                    # of the tkhd box, 16.16 fixed point,
                                    # after at least the version byte
                                    if e3 - 8 < b3 + 1:  # truncated tkhd
                                        return np.zeros(self.N_FEATURES, dtype=np.float32)
                                    widths.append(
                                        int.from_bytes(
                                            data[e3 - 8 : e3 - 4], "big"
                                        )
                                        / 65536.0
                                    )
                                    heights.append(
                                        int.from_bytes(
                                            data[e3 - 4 : e3], "big"
                                        )
                                        / 65536.0
                                    )
            if not has_ftyp or moov_pos < 0:
                return np.zeros(self.N_FEATURES, dtype=np.float32)
            dur_s = duration / timescale if timescale > 0 else 0.0
            fast_start = 1.0 if (mdat_pos < 0 or moov_pos < mdat_pos) else 0.0
            w = max(widths, default=0.0)
            h = max(heights, default=0.0)
            return np.array(
                [
                    1.0,  # parsed-ok flag (zeros ⇒ corrupt, like WAV)
                    min(1.0, dur_s / 3600.0),
                    min(1.0, timescale / 1e6),
                    min(1.0, w / 4096.0),
                    min(1.0, h / 4096.0),
                    min(1.0, n_tracks / 8.0),
                    fast_start,
                    min(1.0, n / float(1 << 30)),
                ],
                dtype=np.float32,
            )
        except Exception:
            return np.zeros(self.N_FEATURES, dtype=np.float32)

    def _features_real(self, payload: bytes, media_type: str) -> np.ndarray:
        if media_type == "image":
            return self._features_image(payload)
        if media_type == "audio":
            return self._features_wav(payload)
        # video: container-header probe (no frame decode — that needs
        # ffmpeg); non-BMFF payloads yield the zero vector
        return self._features_mp4(payload)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode == "deterministic-fake":
            feats = [self._features(p) for p in batch.column("payload").to_pylist()]
        else:
            feats = [
                self._features_real(p, mt)
                for p, mt in zip(
                    batch.column("payload").to_pylist(),
                    batch.column("media_type").to_pylist(),
                )
            ]
        out = batch.drop_columns(["payload"])  # shed the heavy bytes immediately
        return out.append_column(
            "features", pa.array([f.tolist() for f in feats], pa.list_(pa.float32()))
        )


def resize_stub_batch(batch: pa.Table, *, max_side: int = 128) -> pa.Table:
    """Deterministic \"resize\": recompute target dims preserving aspect
    ratio (metadata-only; the pixel transform would live in the decoder)."""
    ws = batch.column("width").to_pylist()
    hs = batch.column("height").to_pylist()
    out_w, out_h = [], []
    for w, h in zip(ws, hs):
        scale = min(1.0, max_side / max(w, h))
        out_w.append(max(1, int(w * scale)))
        out_h.append(max(1, int(h * scale)))
    batch = batch.drop_columns(["width", "height"])
    batch = batch.append_column("width", pa.array(out_w, pa.int32()))
    batch = batch.append_column("height", pa.array(out_h, pa.int32()))
    return batch


def frame_sample_plan_batch(batch: pa.Table, *, every_ms: int = 1000) -> pa.Table:
    """Frame-sampling plan for video rows: list of timestamps to decode."""
    durs = batch.column("duration_ms").to_pylist()
    types = batch.column("media_type").to_pylist()
    plans = [
        list(range(0, d, every_ms)) if t == "video" else []
        for d, t in zip(durs, types)
    ]
    return batch.append_column("frame_ts_ms", pa.array(plans, pa.list_(pa.int32())))
