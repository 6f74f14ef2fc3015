"""Per-part bloom-filter sidecars → point-lookup part pruning.

Zone maps (state/manifest.py) prune parts only for CLUSTERED or
low-cardinality columns: a ``url == x`` probe on arrival-ordered
webtext matches every part's [min, max] and scans the whole store.
The bloom sidecar closes that gap — one compact bit array per
(part, column), built in the encode task from the same pass that
computes zones, and probed BEFORE any payload read:

* **driver-side** (``plan`` in sources/plan.py): when the
  zone-surviving part set is small enough (≤ a cap), the driver loads
  only those parts' sidecars and drops disproven parts before
  scheduling any task — a point lookup on a 10^6-part store that
  zone-pruned to dozens of candidates reads a few KB of sidecar and
  schedules O(1) tasks;
* **task-side** (``part_mask`` in sources/plan.py, inside every
  encoded-domain scan task): above the cap the probe moves into the
  scan task, which reads the ~KB sidecar first and exits before
  touching the part's parquet — at open scale the probe is
  distributed, never a driver bottleneck.  Below the cap the tasks
  do not probe again.

False positives only cost a wasted scan; the filter NEVER produces
false negatives (same contract as zone maps: best-effort, lossy-never).
Hashing mirrors the reference's pack-then-hash design (hash the packed
word, not the decoded string — /root/reference/src/naive_impl/hash.rs):
values map to a 64-bit fingerprint (bytes: the rolling-hash
``fingerprints``; ints: splitmix64 of the physical int64), and k bit
positions derive from that ONE fingerprint by double hashing — the
probe side hashes the predicate scalar identically, so build and probe
agree by construction.

Sidecar format: ``<store>/_bloom/<part_id>.npz`` — per column a uint8
bit array ``<col>`` plus an int64 meta triple ``<col>/meta`` =
[k, n_keys, hash_kind] (0 = bytes, 1 = int64).  Written atomically
(tmp + rename) beside the part's manifest; a missing / stale sidecar
simply never prunes (compaction and cluster rewrites drop them).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

HASH_BYTES = 0  # string / binary: rolling-hash fingerprint of the bytes
HASH_I64 = 1    # int-like: splitmix64 of the physical int64
# string / binary: splitmix64 chain over (length, first 16 B, last 16 B)
# — O(64 B) scratch per row regardless of row length, vs the rolling
# hash's ~24 B of scratch per INPUT byte.  Middle-only differences
# collide, which for a bloom is just a false positive (wasted scan,
# never a false negative).  New sidecars build with this; the probe
# side dispatches on the kind RECORDED in each sidecar, so stores
# written before the change keep pruning correctly.
HASH_BYTES_SAMPLED = 2

BLOOM_DIR = "_bloom"
_BITS_PER_KEY = 10        # with k=7 → ~0.8% false-positive rate
_K = 7
_MAX_BITS = 1 << 23       # 1 MB cap per (part, column)
# auto-eligibility: unzoned string/binary key columns (url-ish), not
# document payloads — hashing a 100 KB html body per row would double
# encode cost for a column nobody point-probes
_AUTO_MAX_MEAN_LEN = 512


def _hash_kind(typ: pa.DataType) -> int | None:
    from ..codecs.forpack import is_int_like
    if pa.types.is_string(typ) or pa.types.is_large_string(typ) or \
            pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
        return HASH_BYTES_SAMPLED
    if is_int_like(typ) and not pa.types.is_uint64(typ):
        return HASH_I64
    return None


def _sampled_fingerprint(arr: pa.Array) -> np.ndarray:
    """(length, head 16 B, tail 16 B) → splitmix64 chain, O(64 B)
    scratch per row.  Probe and build hash single scalars and full
    columns through the same code, so they agree by construction."""
    from ..functions.text import _filled_view, _splitmix64
    d, offs = _filled_view(arr)
    n = len(offs) - 1
    lens = (offs[1:] - offs[:-1]).astype(np.uint64)
    fp = _splitmix64(lens)
    W = 16
    if len(d):
        steps = np.arange(W, dtype=offs.dtype)[None, :]
        base = offs[:-1][:, None] + steps
        head = np.where(base < offs[1:][:, None],
                        d[np.minimum(base, len(d) - 1)], 0) \
            .astype(np.uint8)
        base = offs[1:][:, None] - W + steps
        tail = np.where(base >= offs[:-1][:, None],
                        d[np.clip(base, 0, len(d) - 1)], 0) \
            .astype(np.uint8)
        hw = np.ascontiguousarray(head).view(np.uint64)  # (n, 2)
        tw = np.ascontiguousarray(tail).view(np.uint64)
    else:
        # Zero-length data buffer (every row is '' / b'' / null): the
        # head/tail words are all zero, but the mixing chain must STILL
        # run — a build column like ['alpha','','beta'] hashes its ''
        # row through the chain (the buffer is non-empty), so a scalar
        # probe of '' must take the identical path or the filter
        # FALSELY prunes parts that contain empty strings.
        hw = tw = np.zeros((n, 2), dtype=np.uint64)
    for c in range(2):
        fp = _splitmix64(fp ^ hw[:, c])
        fp = _splitmix64(fp ^ tw[:, c])
    return fp


def _fingerprint(arr: pa.Array, kind: int) -> np.ndarray:
    """uint64 fingerprint per value; nulls produce arbitrary values the
    caller must mask out (a null never equals a predicate scalar)."""
    if kind in (HASH_BYTES, HASH_BYTES_SAMPLED):
        if pa.types.is_binary(arr.type):  # same layout: zero-copy view
            arr = arr.view(pa.string())
        elif pa.types.is_large_binary(arr.type):
            arr = arr.view(pa.large_string())
        if kind == HASH_BYTES_SAMPLED:
            return _sampled_fingerprint(arr)
        from ..functions.text import fingerprints
        return fingerprints(arr)
    from ..codecs.forpack import to_int64_numpy
    from ..functions.text import _splitmix64
    v = to_int64_numpy(arr.combine_chunks()
                       if isinstance(arr, pa.ChunkedArray) else arr)
    return _splitmix64(v.view(np.uint64))


def _positions(fp: np.ndarray, m_bits: int) -> np.ndarray:
    """k×n bit positions from one fingerprint per key, double hashing:
    h_i = h1 + i*h2 (h2 odd) mod m, m a power of two."""
    from ..functions.text import _splitmix64
    h1 = fp
    h2 = _splitmix64(fp) | np.uint64(1)
    mask = np.uint64(m_bits - 1)
    return np.stack([(h1 + np.uint64(i) * h2) & mask for i in range(_K)])


def build_bloom(arr: pa.Array, kind: int) -> dict | None:
    """Bloom filter of one column's non-null values.
    Returns {"bits": uint8 ndarray, "k", "n", "hash"} or None for an
    empty / all-null column (nothing to probe → no sidecar entry,
    which conservatively never prunes eq-on-null probes)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    fp = _fingerprint(arr, kind)
    if arr.null_count:
        fp = fp[~np.asarray(arr.is_null())]
    # size by DISTINCT keys: a low-cardinality column (lang, event_type)
    # costs bytes, not bits-per-row — so blooming every hashable column
    # is affordable and the part prunes on any of them
    fp = np.unique(fp)
    n = len(fp)
    if n == 0:
        return None
    m_bits = 1 << max(int(n * _BITS_PER_KEY - 1).bit_length(), 6)
    m_bits = min(m_bits, _MAX_BITS)
    pos = _positions(fp, m_bits).ravel()
    # boolean scatter + packbits beats np.bitwise_or.at ~10x (ufunc.at
    # is a per-element Python-C roundtrip; fancy bool assignment and
    # packbits are single C passes over ≤1 MB)
    bset = np.zeros(m_bits, dtype=bool)
    bset[pos.astype(np.int64)] = True
    bits = np.packbits(bset, bitorder="little")
    # "dt" pins the hash's physical domain: an int-like probe must cast
    # the predicate scalar to the COLUMN's type before fingerprinting
    # (a timestamp[us] probe against a timestamp[ns] bloom would hash a
    # different int64 and FALSELY prune)
    return {"bits": bits, "k": _K, "n": n, "hash": kind,
            "dt": str(arr.type)}


def probe_bloom(bloom: dict, values: pa.Array) -> np.ndarray:
    """May-contain mask, one bool per value (True = possibly present)."""
    if bloom["hash"] == HASH_I64 and bloom.get("dt"):
        from ..codecs.base import str_to_type
        values = values.cast(str_to_type(bloom["dt"]))
    fp = _fingerprint(values, bloom["hash"])
    bits = bloom["bits"]
    m_bits = len(bits) << 3
    pos = _positions(fp, m_bits)  # k × n
    hit = (bits[(pos >> np.uint64(3)).astype(np.int64)] >>
           (pos & np.uint64(7)).astype(np.uint8)) & 1
    return hit.all(axis=0).astype(bool)


def auto_bloom_columns(t: pa.Table, zones: dict) -> list[str]:
    """Columns worth a bloom by default: every hashable column except
    long-string payloads (html/text, excluded by the mean-length cap —
    hashing a 100 KB body per row would double encode cost for a column
    nobody point-probes).  Zone presence is NOT an exclusion: min/max
    zones on arrival-ordered high-cardinality keys (url, user_id) span
    everything and never prune — exactly the probes blooms exist for.
    Distinct-sized filters make low-cardinality columns cost ~bytes."""
    import pyarrow.compute as pc
    out = []
    for name in t.column_names:
        col = t.column(name)
        kind = _hash_kind(col.type)
        if kind is None or len(col) == 0 or col.null_count == len(col):
            continue
        if kind in (HASH_BYTES, HASH_BYTES_SAMPLED):
            mean = pc.mean(pc.binary_length(col)).as_py()
            if mean is None or mean > _AUTO_MAX_MEAN_LEN:
                continue
        out.append(name)
    return out


def _path(store_dir: str, part_id: str) -> str:
    return os.path.join(store_dir, BLOOM_DIR, f"{part_id}.npz")


def save_blooms(store_dir: str, part_id: str,
                blooms: dict[str, dict]) -> None:
    """Atomic write of one part's bloom sidecar (skipped when empty)."""
    if not blooms:
        return
    os.makedirs(os.path.join(store_dir, BLOOM_DIR), exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    for col, b in blooms.items():
        arrays[col] = b["bits"]
        arrays[f"{col}/meta"] = np.array(
            [b["k"], b["n"], b["hash"]], dtype=np.int64)
        arrays[f"{col}/dt"] = np.array(b.get("dt", ""))
    p = _path(store_dir, part_id)
    tmp = f"{p}.tmp{os.getpid()}"
    with open(tmp, "wb") as f:
        np.savez(f, **arrays)
    os.replace(tmp, p)


def load_blooms(store_dir: str, part_id: str,
                columns: list[str] | None = None) -> dict[str, dict]:
    """Load a part's bloom sidecar ({} when absent — never prunes).
    With ``columns``, only those bit arrays are decompressed."""
    p = _path(store_dir, part_id)
    if not os.path.exists(p):
        return {}
    out: dict[str, dict] = {}
    try:
        with np.load(p) as z:
            names = [n for n in z.files
                     if not (n.endswith("/meta") or n.endswith("/dt"))]
            for col in names:
                if columns is not None and col not in columns:
                    continue
                meta = z[f"{col}/meta"]
                dt = str(z[f"{col}/dt"]) if f"{col}/dt" in z.files else ""
                out[col] = {"bits": z[col], "k": int(meta[0]),
                            "n": int(meta[1]), "hash": int(meta[2]),
                            "dt": dt or None}
    except (OSError, ValueError, KeyError):
        return {}  # corrupt sidecar: fall back to scanning (never lossy)
    return out


def bloom_may_contain(store_dir: str, part_id: str, column: str,
                      values: pa.Array) -> bool:
    """Could ANY of ``values`` be in this part's column?  Conservative:
    no sidecar / no entry / unhashable predicate type → True."""
    b = load_blooms(store_dir, part_id, [column]).get(column)
    if b is None:
        return True
    try:
        return bool(probe_bloom(b, values).any())
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, ValueError):
        return True
