"""Pure-numpy media codecs: real decode for formats that need no
external libraries.

No PIL/libjpeg/torchaudio is required: NETPBM images (P5
grayscale / P6 RGB) and RIFF/WAVE PCM audio are simple enough to parse
with numpy alone — so the multimodal stages decode THESE formats for
real, and only exotic formats (JPEG/PNG/MP3/...) remain stubbed.  All
kernels are vectorized numpy; per-row loops exist only across rows
(rows are megabyte-scale payloads, so row-level dispatch is not the
hot path).

Formats:
* PPM/PGM binary (P6/P5): ``P6\\n<w> <h>\\n<maxval>\\n`` + raw
  samples.  maxval <= 255 (1 byte/sample).
* WAV: RIFF little-endian, PCM (format tag 1) 8/16/32-bit or IEEE
  float32 (tag 3); chunk-walked, so extra chunks (LIST, fact) are
  skipped correctly.
"""

from __future__ import annotations

import struct

import numpy as np

# ---------------------------------------------------------------------------
# NETPBM (PPM P6 / PGM P5)
# ---------------------------------------------------------------------------


def _pnm_header(buf: bytes):
    """Parse magic + 3 whitespace/comment-separated ints; returns
    (magic, width, height, maxval, data_offset)."""
    if len(buf) < 2 or buf[0:1] != b"P" or buf[1:2] not in b"56":
        raise ValueError("not a binary PPM/PGM (P5/P6) payload")
    magic = buf[:2].decode()
    pos, vals = 2, []
    while len(vals) < 3:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if buf[pos:pos + 1] == b"#":  # comment to end of line
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        vals.append(int(buf[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = vals[0], vals[1], vals[2]
    if maxval > 255:
        raise ValueError("16-bit PNM not supported")
    return magic, w, h, maxval, pos


def decode_pnm(buf: bytes) -> np.ndarray:
    """P6 → (h, w, 3) uint8; P5 → (h, w) uint8."""
    magic, w, h, _, off = _pnm_header(buf)
    ch = 3 if magic == "P6" else 1
    need = w * h * ch
    data = np.frombuffer(buf, dtype=np.uint8, count=need, offset=off)
    return data.reshape((h, w, 3) if ch == 3 else (h, w)).copy()


def encode_pnm(img: np.ndarray) -> bytes:
    """Inverse of decode_pnm (test-fixture writer)."""
    img = np.asarray(img, dtype=np.uint8)
    magic = b"P6" if img.ndim == 3 else b"P5"
    h, w = img.shape[:2]
    return magic + b"\n%d %d\n255\n" % (w, h) + img.tobytes()


def decode_pnm_stream(buf: bytes) -> list[np.ndarray]:
    """Concatenated P5/P6 frames (the "video" container for tests):
    parse frames back-to-back until the buffer is exhausted.  Frames
    decode via np.frombuffer offsets — no per-frame copy of the
    remaining buffer (a buf[pos:] slice per frame would be
    O(frames × bytes))."""
    frames, pos = [], 0
    mv = memoryview(buf)
    while pos < len(buf):
        magic, w, h, _, off = _pnm_header(mv[pos:pos + 4096].tobytes())
        ch = 3 if magic == "P6" else 1
        need = w * h * ch
        data = np.frombuffer(buf, dtype=np.uint8, count=need,
                             offset=pos + off)
        frames.append(data.reshape((h, w, 3) if ch == 3
                                   else (h, w)).copy())
        pos += off + need
    return frames


def sniff_image_format(buf: bytes) -> str | None:
    """Magic-byte dispatch: 'pnm' | None."""
    if buf[:2] in (b"P5", b"P6"):
        return "pnm"
    return None


def decode_image(buf: bytes) -> np.ndarray:
    """Decode any really-supported format (PNM P5/P6) to an
    (h, w[, ch]) uint8 array; raises ValueError on unrecognized magic
    so stages can apply their fake/raise policy."""
    if sniff_image_format(buf) == "pnm":
        return decode_pnm(buf)
    raise ValueError(f"unrecognized image magic {buf[:4]!r}")


def rgb_to_gray(img: np.ndarray) -> np.ndarray:
    """(h, w[, 3]) uint8 → (h, w) float32 luma (BT.601 weights)."""
    if img.ndim == 2:
        return img.astype(np.float32)
    f = img.astype(np.float32)
    return f[..., 0] * 0.299 + f[..., 1] * 0.587 + f[..., 2] * 0.114


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize via integer index maps (any channel
    count, zero interpolation cost)."""
    h, w = img.shape[:2]
    ri = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    ci = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return img[np.ix_(ri, ci)]


def image_thumb_features(img: np.ndarray, side: int = 8) -> np.ndarray:
    """side×side mean-pooled gray thumbnail, flattened float32 — the
    fixed-dim image feature (and the basis of the perceptual hash)."""
    g = rgb_to_gray(img)
    h, w = g.shape
    # mean-pool via box sums on a nearest-resized grid (cheap + stable)
    gr = resize_nearest(g, side * max(h // side, 1),
                        side * max(w // side, 1))
    bh, bw = gr.shape[0] // side, gr.shape[1] // side
    pooled = gr[:side * bh, :side * bw] \
        .reshape(side, bh, side, bw).mean(axis=(1, 3))
    return pooled.astype(np.float32).ravel()


def image_phash(img: np.ndarray) -> np.uint64:
    """64-bit average-hash: 8×8 thumbnail thresholded at its mean —
    the exact-dup / near-dup key for image corpora."""
    t = image_thumb_features(img, side=8)
    bits = (t > t.mean()).astype(np.uint64)
    return np.uint64((bits << np.arange(64, dtype=np.uint64)).sum())


# ---------------------------------------------------------------------------
# RIFF / WAVE
# ---------------------------------------------------------------------------


def decode_wav(buf: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes → ((n_samples, n_channels) float32 in [-1, 1],
    sample_rate).  PCM 8/16/32-bit and IEEE float32; walks chunks so
    non-data chunks are skipped."""
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(buf):
        cid = buf[pos:pos + 4]
        size = struct.unpack_from("<I", buf, pos + 4)[0]
        body = buf[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            tag, ch, rate, _, _, bits = struct.unpack_from("<HHIIHH",
                                                           body, 0)
            fmt = (tag, ch, rate, bits)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("missing fmt/data chunk")
    tag, ch, rate, bits = fmt
    if ch == 0:
        raise ValueError("corrupt WAV: fmt declares 0 channels")
    if tag == 1 and bits == 16:
        s = np.frombuffer(data, dtype="<i2").astype(np.float32) / 32768.0
    elif tag == 1 and bits == 8:  # unsigned
        s = (np.frombuffer(data, dtype=np.uint8).astype(np.float32)
             - 128.0) / 128.0
    elif tag == 1 and bits == 32:
        s = np.frombuffer(data, dtype="<i4").astype(np.float32) / 2**31
    elif tag == 3 and bits == 32:
        s = np.frombuffer(data, dtype="<f4").astype(np.float32)
    else:
        raise ValueError(f"unsupported WAV format tag={tag} bits={bits}")
    n = len(s) // ch
    return s[:n * ch].reshape(n, ch), rate


def encode_wav(samples: np.ndarray, rate: int) -> bytes:
    """PCM16 writer (test-fixture inverse of decode_wav)."""
    s = np.asarray(samples)
    if s.ndim == 1:
        s = s[:, None]
    pcm = np.clip(s * 32768.0, -32768, 32767).astype("<i2").tobytes()
    ch = s.shape[1]
    hdr = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(pcm),
                      b"WAVE", b"fmt ", 16, 1, ch, rate,
                      rate * ch * 2, ch * 2, 16, b"data", len(pcm))
    return hdr + pcm


def audio_frame_features(samples: np.ndarray, rate: int,
                         frame_len: int = 2048,
                         n_features: int = 16) -> np.ndarray:
    """(n_frames, n_features) float32: per-frame [rms, zero-crossing
    rate, spectral centroid (0-1 of Nyquist), 13-band log power
    spectrum] — all vectorized over frames via one rFFT."""
    mono = samples.mean(axis=1) if samples.ndim == 2 else samples
    n_frames = max(len(mono) // frame_len, 1)
    pad = n_frames * frame_len - len(mono)
    if pad > 0:
        mono = np.pad(mono, (0, pad))
    fr = mono[:n_frames * frame_len].reshape(n_frames, frame_len)
    rms = np.sqrt((fr ** 2).mean(axis=1))
    zcr = (np.diff(np.signbit(fr), axis=1) != 0).mean(axis=1)
    spec = np.abs(np.fft.rfft(fr, axis=1)) ** 2
    freqs = np.linspace(0.0, 1.0, spec.shape[1])
    tot = spec.sum(axis=1)
    centroid = np.where(tot > 0, (spec * freqs).sum(axis=1)
                        / np.maximum(tot, 1e-12), 0.0)
    n_bands = n_features - 3
    edges = np.linspace(0, spec.shape[1], n_bands + 1).astype(int)
    bands = np.stack([
        np.log1p(spec[:, edges[b]:max(edges[b + 1], edges[b] + 1)]
                 .sum(axis=1)) for b in range(n_bands)], axis=1)
    return np.column_stack([rms, zcr, centroid, bands]) \
        .astype(np.float32)
