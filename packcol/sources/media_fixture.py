"""Deterministic synthetic multimodal fixtures (images / audio).

The container has no native image/audio libraries, so the multimodal
stages decode library-free formats for real (NETPBM P5/P6, RIFF/WAVE
PCM — functions/media.py).  This module synthesizes those payloads
deterministically from closed-form formulas of the row id, so a driver
correctness query over them has a PURE-SQL oracle: widths, heights,
sample rates and frame counts are all `f(row_id)` expressible in ANSI
SQL, and exact-duplicate planting (`content g = img_id % n_distinct`)
makes phash-grouped dedup output derivable too.

Same style as sources/webtext.py: pure function of (seed, row id),
no I/O ordering dependence, identical bytes on every run/platform.

Formulas (mirrored by the driver oracles in __ray_entry__.py — change
them together):

* image ``i`` has content id ``g = i % n_distinct``;
  ``height = 16 + (g*5) % 32``, ``width = 16 + (g*7) % 40``;
  P6 (RGB) when ``g % 3 == 0`` else P5 (gray); pixels are
  ``default_rng(seed*100003 + g)`` bytes — every row with the same
  ``g`` is byte-identical (planted exact duplicates).
* audio ``i``: ``rate = (8000, 16000, 22050)[i % 3]``,
  ``n_samples = 2048*(1 + i%5) + 128*(i%7)`` (so a 2048-sample framer
  yields exactly ``1 + i%5`` frames), PCM16 sine at
  ``220 + 13*i`` Hz.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def image_dims(g: int) -> tuple[int, int]:
    """(height, width) of content id ``g`` — keep in sync with the SQL
    oracle `16 + ((img_id % N) * 5) % 32` / `... * 7) % 40`."""
    return 16 + (g * 5) % 32, 16 + (g * 7) % 40


def make_image(g: int, seed: int = 0) -> bytes:
    """Deterministic P5/P6 payload for content id ``g``."""
    from ..functions.media import encode_pnm
    h, w = image_dims(g)
    rng = np.random.default_rng(seed * 100003 + g)
    if g % 3 == 0:
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    else:
        img = rng.integers(0, 256, (h, w), dtype=np.uint8)
    return encode_pnm(img)


def images_table(n_rows: int = 48, n_distinct: int = 20,
                 seed: int = 0) -> pa.Table:
    """(img_id:int64, image:large_binary) with planted exact
    duplicates: rows i and j are byte-identical iff
    ``i % n_distinct == j % n_distinct``."""
    payloads = [make_image(g, seed) for g in range(n_distinct)]
    return pa.table({
        "img_id": pa.array(range(n_rows), type=pa.int64()),
        "image": pa.array([payloads[i % n_distinct]
                           for i in range(n_rows)],
                          type=pa.large_binary()),
    })


AUDIO_RATES = (8000, 16000, 22050)


def make_audio(i: int) -> bytes:
    """Deterministic RIFF/WAVE PCM16 payload for row ``i``."""
    from ..functions.media import encode_wav
    rate = AUDIO_RATES[i % 3]
    n = 2048 * (1 + i % 5) + 128 * (i % 7)
    t = np.arange(n, dtype=np.float64) / rate
    samples = (0.5 * np.sin(2 * np.pi * (220.0 + 13.0 * i) * t)
               ).astype(np.float32)
    return encode_wav(samples, rate)


def audio_table(n_rows: int = 24) -> pa.Table:
    """(aud_id:int64, audio:large_binary); with frame_len=2048 the
    framer yields exactly ``1 + aud_id % 5`` frames per row."""
    return pa.table({
        "aud_id": pa.array(range(n_rows), type=pa.int64()),
        "audio": pa.array([make_audio(i) for i in range(n_rows)],
                          type=pa.large_binary()),
    })


def make_video(i: int, seed: int = 0) -> bytes:
    """Deterministic "video": ``2 + i % 5`` concatenated P5/P6 frames
    (dims of content id ``i % 8``), the library-free stand-in container
    the frame-sample stage demuxes (decode_pnm_stream)."""
    n_frames = 2 + i % 5
    return b"".join(make_image(i % 8, seed=seed * 31 + f)
                    for f in range(n_frames))


def videos_table(n_rows: int = 16) -> pa.Table:
    """(vid_id:int64, video:large_binary); frame count per row is the
    closed form ``2 + vid_id % 5``."""
    return pa.table({
        "vid_id": pa.array(range(n_rows), type=pa.int64()),
        "video": pa.array([make_video(i) for i in range(n_rows)],
                          type=pa.large_binary()),
    })
