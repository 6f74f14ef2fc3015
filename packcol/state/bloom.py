"""Per-part bloom filters → point-lookup part pruning.

Zone maps (state/manifest.py) prune parts only for CLUSTERED or
low-cardinality columns: a ``url == x`` probe on arrival-ordered
webtext matches every part's [min, max] and scans the whole store.
A bloom filter closes that gap — one compact bit array per
(part, column), built in the encode task from the same pass that
computes zones and stored in the part's manifest under ``blooms``
(``{column: to_record(bloom)}``).  ``plan`` (sources/plan.py) loads
every listed manifest on the driver anyway, so it probes the blooms
of the zone survivors there and drops disproven parts before any
part file is opened.  A low-cardinality column whose manifest records
exact value counts (``values``) prunes on those instead and gets no
bloom by default (``auto_bloom_columns``).

False positives only cost a wasted scan; the filter NEVER produces
false negatives (same contract as zone maps: best-effort, lossy-never).
Hashing mirrors the reference's pack-then-hash design (hash the packed
word, not the decoded string — /root/reference/src/naive_impl/hash.rs):
values map to a 64-bit fingerprint (bytes: ``_sampled_fingerprint``;
ints: splitmix64 of the physical int64), and k bit positions derive
from that ONE fingerprint by double hashing — the probe side hashes the
predicate scalar identically, so build and probe agree by construction.

Record format (JSON-safe), one per bloomed column of a manifest's
``blooms`` map: ``{"bits": base64 of the little-endian packed bit
array (a power-of-two number of bits), "k" (bit positions per key),
"n" (distinct keys), "hash" (kind: ``HASH_I64`` or
``HASH_BYTES_SAMPLED``), "dt" (the column's type)}``.  Every key is
required; ``Manifest.load`` rejects a manifest whose ``blooms`` is not
such a map (a store written when blooms lived in ``_bloom/`` sidecar
files), and ``from_record`` turns a damaged record into no bloom,
which never prunes.

Probe cost: the plan's manifests come from the per-process manifest
cache (``Manifest.cached``), which decodes a manifest's bloom bits once
per cache entry, so a probe is the bit test alone.  The probe values of
one predicate are fingerprinted once per op: ``probe_bloom`` and
``bloom_may_contain`` take a ``memo`` dict shared across the parts,
keyed on what the bit positions depend on, ``(hash kind, dt, m_bits)``.
"""

from __future__ import annotations

import base64

import numpy as np
import pyarrow as pa

HASH_I64 = 1    # int-like: splitmix64 of the physical int64
# string / binary: splitmix64 chain over (length, first 16 B, last 16 B)
# — O(64 B) scratch per row regardless of row length.  Middle-only
# differences collide, which for a bloom is just a false positive
# (wasted scan, never a false negative).  The probe side dispatches on
# the kind recorded with each bloom.
HASH_BYTES_SAMPLED = 2

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
    if kind == HASH_BYTES_SAMPLED:
        if pa.types.is_binary(arr.type):  # same layout: zero-copy view
            arr = arr.view(pa.string())
        elif pa.types.is_large_binary(arr.type):
            arr = arr.view(pa.large_string())
        return _sampled_fingerprint(arr)
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
    Returns {"bits": uint8 ndarray, "k", "n", "hash", "dt"} or None for
    an empty / all-null column (nothing to probe → no bloom, which
    conservatively never prunes eq-on-null probes)."""
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


def probe_bloom(bloom: dict, values: pa.Array,
                memo: dict | None = None) -> np.ndarray:
    """May-contain mask, one bool per value (True = possibly present).
    ``memo``: the bit positions of ``values`` by ``(hash kind, dt,
    m_bits)``, shared by the probes of one value set (one op's parts)."""
    bits = bloom["bits"]
    m_bits = len(bits) << 3
    key = (bloom["hash"], bloom["dt"], m_bits)
    pos = None if memo is None else memo.get(key)
    if pos is None:
        if bloom["hash"] == HASH_I64:
            from ..codecs.base import str_to_type
            values = values.cast(str_to_type(bloom["dt"]))
        pos = _positions(_fingerprint(values, bloom["hash"]), m_bits)
        if memo is not None:
            memo[key] = pos
    hit = (bits[(pos >> np.uint64(3)).astype(np.int64)] >>
           (pos & np.uint64(7)).astype(np.uint8)) & 1
    return hit.all(axis=0).astype(bool)


def auto_bloom_columns(t: pa.Table, skip=()) -> list[str]:
    """Columns worth a bloom by default: every hashable column except
    long-string payloads (html/text, excluded by the mean-length cap —
    hashing a 100 KB body per row would double encode cost for a column
    nobody point-probes) and the ``skip`` columns, those whose manifest
    records exact value counts (``values``), which prune eq / IN
    exactly.  Zone presence is NOT an exclusion: min/max zones on
    arrival-ordered high-cardinality keys (url, user_id) span
    everything and never prune — exactly the probes blooms exist for.
    Distinct-sized filters make low-cardinality columns cost ~bytes."""
    import pyarrow.compute as pc
    out = []
    for name in t.column_names:
        col = t.column(name)
        kind = _hash_kind(col.type)
        if name in skip or kind is None or len(col) == 0 or \
                col.null_count == len(col):
            continue
        if kind == HASH_BYTES_SAMPLED:
            mean = pc.mean(pc.binary_length(col)).as_py()
            if mean is None or mean > _AUTO_MAX_MEAN_LEN:
                continue
        out.append(name)
    return out


def to_record(b: dict) -> dict:
    """A ``build_bloom`` result as its JSON-safe manifest record."""
    return {"bits": base64.b64encode(b["bits"].tobytes()).decode("ascii"),
            "k": b["k"], "n": b["n"], "hash": b["hash"], "dt": b["dt"]}


def from_record(rec) -> dict | None:
    """A manifest bloom record as a probe-ready bloom; None when it is
    not one, or of a hash kind no probe knows (never prunes)."""
    try:
        bits = np.frombuffer(base64.b64decode(rec["bits"], validate=True),
                             dtype=np.uint8)
        b = {"bits": bits, "k": int(rec["k"]), "n": int(rec["n"]),
             "hash": int(rec["hash"]), "dt": rec["dt"]}
    except (TypeError, KeyError, ValueError, AttributeError):
        return None
    # m_bits must be a power of two (``_positions`` masks with m - 1)
    n_bits = len(bits) << 3
    ok = n_bits and not n_bits & (n_bits - 1) and \
        b["hash"] in (HASH_I64, HASH_BYTES_SAMPLED)
    return b if ok else None


def bloom_may_contain(m: dict, column: str, values: pa.Array,
                      memo: dict | None = None) -> bool:
    """Could ANY of ``values`` be in ``column`` of the part whose
    cached manifest entry (``Manifest.cached``) is ``m``?  Conservative:
    no bloom for the column / unhashable predicate type → True.
    ``memo`` as for ``probe_bloom``."""
    b = m["blooms"].get(column)
    if b is None:
        return True
    try:
        return bool(probe_bloom(b, values, memo).any())
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, ValueError):
        return True
