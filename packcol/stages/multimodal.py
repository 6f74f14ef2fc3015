"""Multimodal (image/audio/video) actor-pool stages.

Images/audio/video are opaque ``large_binary`` columns with typed
metadata (the `html` column treatment generalized).  Decode is REAL for
library-free formats — NETPBM P5/P6 images, concatenated-PNM "video"
streams, RIFF/WAVE PCM audio — via the pure-numpy codecs in
``functions/media.py``.  Formats that need native libraries (JPEG/PNG/
MP3/...; PIL/torchaudio are NOT in this container) remain stubbed:
``fake=True`` substitutes a deterministic pseudo-decode so the pipeline
shape stays exercised, ``fake=False`` raises ``NotImplementedError``
with the format name.

Stage shape (the 100 TB layout): callable CLASS per stage so one-time
setup happens per actor in ``__init__``; SMALL ``batch_size`` because
rows are megabyte-scale payloads; fixed output schemas so downstream
operators can plan.

Usage:
    ds.map_batches(ImageFeatureStage(), batch_format="pyarrow",
                   batch_size=64,          # small: rows are megabytes
                   concurrency=8, num_cpus=1)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

IMAGE_FEATURE_DIM = 64
AUDIO_FRAME_FEATURES = 16


class ImageFeatureStage:
    """binary image column → (width, height, 64-d thumbnail feature,
    64-bit perceptual hash).  P5/P6 payloads decode for real; other
    formats follow the fake/raise policy above."""

    def __init__(self, image_col: str = "image", fake: bool = False):
        self.image_col = image_col
        self.fake = fake
        # one-time per actor: projection for the fake-decode path
        self._proj = np.random.default_rng(0).standard_normal(
            (256, IMAGE_FEATURE_DIM)).astype(np.float32)

    def _fake(self, chunk: np.ndarray):
        hist = np.bincount(chunk, minlength=256).astype(np.float32)
        return (64 + (len(chunk) % 1024), 64 + (len(chunk) // 7 % 1024),
                hist @ self._proj, np.uint64(0))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs.fsst import buffer_view
        from ..functions.media import (decode_image, image_phash,
                                       image_thumb_features,
                                       sniff_image_format)
        col = batch.column(self.image_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        feats = np.zeros((n, IMAGE_FEATURE_DIM), dtype=np.float32)
        widths = np.zeros(n, dtype=np.int32)
        heights = np.zeros(n, dtype=np.int32)
        phash = np.zeros(n, dtype=np.uint64)
        d, offs = buffer_view(col)
        for i in range(n):  # rows are megabytes; numpy inside each row
            raw = d[offs[i]:offs[i + 1]].tobytes()
            if sniff_image_format(raw) is not None:
                img = decode_image(raw)
                heights[i], widths[i] = img.shape[0], img.shape[1]
                feats[i] = image_thumb_features(img)
                phash[i] = image_phash(img)
            elif self.fake:
                widths[i], heights[i], feats[i], phash[i] = self._fake(
                    d[offs[i]:offs[i + 1]])
            else:
                raise NotImplementedError(
                    f"image format {raw[:4]!r} is not one of the "
                    "really-decoded formats (PNM P5/P6, pure-numpy; PIL "
                    "is not in this environment); pass fake=True for "
                    "the stub")
        return pa.table({
            **{c: batch.column(c) for c in batch.column_names
               if c != self.image_col},
            "width": widths, "height": heights,
            "phash": phash.view(np.int64),
            "feature": pa.FixedSizeListArray.from_arrays(
                pa.array(feats.ravel(), type=pa.float32()),
                IMAGE_FEATURE_DIM),
        })


class ImageResizeStage:
    """binary image column → resized column (nearest-neighbor, pure
    numpy) — the decode→transform→re-encode pattern for image
    normalization pipelines.  Input and output are PNM, so downstream
    consumers see the same container they fed in."""

    def __init__(self, out_h: int, out_w: int, image_col: str = "image"):
        self.out_h, self.out_w = out_h, out_w
        self.image_col = image_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs.fsst import buffer_view
        from ..functions.media import decode_pnm, encode_pnm, resize_nearest
        col = batch.column(self.image_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d, offs = buffer_view(col)
        out = [encode_pnm(resize_nearest(
                   decode_pnm(d[offs[i]:offs[i + 1]].tobytes()),
                   self.out_h, self.out_w))
               for i in range(len(col))]
        return batch.set_column(
            batch.column_names.index(self.image_col), self.image_col,
            pa.array(out, type=pa.large_binary()))


class AudioFrameSampleStage:
    """binary audio column → per-frame feature list column
    (n_frames × AUDIO_FRAME_FEATURES) + sample_rate.  RIFF/WAVE PCM
    decodes for real (8/16/32-bit + float32); other formats follow the
    fake/raise policy."""

    def __init__(self, audio_col: str = "audio", frame_len: int = 2048,
                 max_frames: int = 64, fake: bool = False):
        self.audio_col = audio_col
        self.frame_len = frame_len
        self.max_frames = max_frames
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs.fsst import buffer_view
        from ..functions.media import audio_frame_features, decode_wav
        col = batch.column(self.audio_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d, offs = buffer_view(col)
        all_feats, frame_offs, rates = [], [0], []
        for i in range(len(col)):
            raw = d[offs[i]:offs[i + 1]].tobytes()
            if raw[:4] == b"RIFF":
                samples, rate = decode_wav(raw)
                f = audio_frame_features(samples, rate, self.frame_len,
                                         AUDIO_FRAME_FEATURES)
                f = f[:self.max_frames]
            elif self.fake:
                chunk = d[offs[i]:offs[i + 1]]
                m = float(chunk.mean()) if len(chunk) else 0.0
                s = float(chunk.std()) if len(chunk) else 0.0
                nf = min(max(len(chunk) // self.frame_len, 1),
                         self.max_frames)
                f = np.tile(np.linspace(m, m + s, AUDIO_FRAME_FEATURES,
                                        dtype=np.float32), (nf, 1))
                rate = 0
            else:
                raise NotImplementedError(
                    f"audio format {raw[:4]!r} needs a native decoder; "
                    "RIFF/WAVE decodes for real, or pass fake=True")
            all_feats.append(f)
            rates.append(rate)
            frame_offs.append(frame_offs[-1] + len(f))
        flat = (np.concatenate([f.ravel() for f in all_feats])
                if all_feats else np.zeros(0, dtype=np.float32))
        frames = pa.FixedSizeListArray.from_arrays(
            pa.array(flat, type=pa.float32()), AUDIO_FRAME_FEATURES)
        nested = pa.ListArray.from_arrays(
            pa.array(frame_offs, type=pa.int32()), frames)
        return pa.table({
            **{c: batch.column(c) for c in batch.column_names
               if c != self.audio_col},
            "sample_rate": pa.array(rates, type=pa.int32()),
            "frames": nested,
        })


class VideoFrameSampleStage:
    """binary "video" column (concatenated P5/P6 frames) → every k-th
    frame's thumbnail feature as a list column + frame count — the
    frame-sampling shape for video curation (real containers would
    swap in a real demuxer behind the same schema)."""

    def __init__(self, video_col: str = "video", every: int = 2,
                 max_frames: int = 8):
        self.video_col = video_col
        self.every = every
        self.max_frames = max_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs.fsst import buffer_view
        from ..functions.media import (decode_pnm_stream,
                                       image_thumb_features)
        col = batch.column(self.video_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d, offs = buffer_view(col)
        feats, f_offs, counts = [], [0], []
        for i in range(len(col)):
            frames = decode_pnm_stream(d[offs[i]:offs[i + 1]].tobytes())
            counts.append(len(frames))
            picked = frames[::self.every][:self.max_frames]
            for fr in picked:
                feats.append(image_thumb_features(fr))
            f_offs.append(f_offs[-1] + len(picked))
        flat = (np.concatenate([f.ravel() for f in feats])
                if feats else np.zeros(0, dtype=np.float32))
        thumb = pa.FixedSizeListArray.from_arrays(
            pa.array(flat, type=pa.float32()), IMAGE_FEATURE_DIM)
        nested = pa.ListArray.from_arrays(
            pa.array(f_offs, type=pa.int32()), thumb)
        return pa.table({
            **{c: batch.column(c) for c in batch.column_names
               if c != self.video_col},
            "n_frames": pa.array(counts, type=pa.int32()),
            "frame_features": nested,
        })
