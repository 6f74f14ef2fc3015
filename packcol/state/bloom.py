"""Per-part key sets → exact eq / IN part pruning.

Zone maps (state/manifest.py) prune parts only for CLUSTERED or
low-cardinality columns: a ``url == x`` probe on arrival-ordered
webtext matches every part's [min, max] and scans the whole store.
A key set closes that gap: per key column of a part, the sorted set of
the 32-bit fingerprints of its distinct non-null values, built in the
encode task from the same pass that computes zones and stored in the
part's manifest under ``keys`` ({column: to_record(set)}).  ``plan``
(sources/plan.py) loads every listed manifest on the driver anyway, so
it probes the sets of the zone survivors there and drops disproven
parts before any part file is opened.  A low-cardinality column whose
manifest records exact value counts (``values``) prunes on those
instead and gets no set (``key_columns``).

Fingerprints mirror the reference's pack-then-hash design (its
``naive_impl/hash.rs``): a string or binary value hashes every one of
its bytes, word by word (``_byte_hash``), an int-like value is
splitmix64 of its physical int64 in the column's type ``dt``; both
keep the top 32 bits.  Build and probe go through the same
``fingerprints``, so a value the part holds always finds its
fingerprint: a set NEVER gives a false negative.  A probe of N values
keeps a part of n keys that holds none of them with probability about
N·n/2³².

Record format (JSON-safe), one per key column of a manifest's ``keys``
map: ``{"fp": base64 of the set's deltas bit-packed at ``width`` bits
(codecs/bitpack.py; the first delta is the smallest fingerprint),
"n" (keys), "width", "dt" (the column's type)}``.  ``from_record``
turns a damaged record into no set, which never prunes.

Probe cost: the plan's manifests come from the per-process manifest
cache (``Manifest.cached``), which decodes a manifest's sets once per
cache entry.  The probe values of one predicate are fingerprinted and
sorted once per op and ``dt`` (the ``memo`` ``bloom_may_contain``
shares across the parts), and a part's probe is one ``searchsorted``
of its set into them, O(n log N): any IN-list can be probed.
"""

from __future__ import annotations

import base64

import numpy as np
import pyarrow as pa

# auto-eligibility: key-shaped string/binary columns (url-ish), not
# document payloads — hashing a 100 KB html body per row would double
# encode cost for a column nobody point-probes
_MAX_MEAN_LEN = 512


def _is_bytes(typ: pa.DataType) -> bool:
    return pa.types.is_string(typ) or pa.types.is_large_string(typ) or \
        pa.types.is_binary(typ) or pa.types.is_large_binary(typ)


def hashable(typ: pa.DataType) -> bool:
    """Can ``fingerprints`` hash a column of type ``typ``?"""
    from ..codecs.forpack import is_int_like
    return _is_bytes(typ) or \
        (is_int_like(typ) and not pa.types.is_uint64(typ))


def _byte_hash(arr: pa.Array) -> np.ndarray:
    """uint64 hash of every byte of each value of a null-free string /
    binary array: the sum over the value's 8-byte words (the last one
    zero-filled past its end) of splitmix64(word ^ salt of its index),
    mixed with the value's length.  A word at an unaligned offset of
    the data buffer is shifted together from the two aligned words it
    straddles, so the work is per word, not per byte."""
    from ..codecs.fsst import buffer_view
    from ..functions.text import _splitmix64
    d, offs = buffer_view(arr)
    lens = np.diff(offs)
    nw = (lens + 7) >> 3
    wend = np.cumsum(nw)
    j = np.arange(wend[-1] if len(wend) else 0) - np.repeat(wend - nw, nw)
    at = np.repeat(offs[:-1], nw) + 8 * j  # the word's byte offset
    rest = np.repeat(lens, nw) - 8 * j     # the value's bytes from there
    aligned = np.zeros(len(d) // 8 + 2, dtype=np.uint64)
    aligned.view(np.uint8)[:len(d)] = d
    q, r = at >> 3, (at & 7).astype(np.uint64) << np.uint64(3)
    # (hi << 1) << (63 - r): a shift by 64 - r that gives 0 at r = 0
    words = (aligned[q] >> r) | \
        ((aligned[q + 1] << np.uint64(1)) << (np.uint64(63) - r))
    words &= ~np.uint64(0) >> (np.uint64(64) - (
        np.minimum(rest, 8).astype(np.uint64) << np.uint64(3)))
    salt = _splitmix64(np.arange(nw.max() if len(nw) else 0,
                                 dtype=np.uint64))
    cs = np.zeros(len(words) + 1, dtype=np.uint64)
    np.cumsum(_splitmix64(words ^ salt[j]), out=cs[1:])
    return _splitmix64((cs[wend] - cs[wend - nw]) ^
                       _splitmix64(lens.astype(np.uint64)))


def fingerprints(arr: pa.Array) -> np.ndarray:
    """uint32 fingerprint of each non-null value of a hashable array
    (``hashable``; an int-like array hashes in its own type)."""
    from ..codecs.forpack import to_int64_numpy
    from ..functions.text import _splitmix64
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = arr.drop_null()
    h = _byte_hash(arr) if _is_bytes(arr.type) else \
        _splitmix64(to_int64_numpy(arr).view(np.uint64))
    return (h >> np.uint64(32)).astype(np.uint32)


def key_columns(t: pa.Table, values: dict) -> list[str]:
    """The columns of one part that get a key set: every hashable
    column except long-string payloads (html/text, excluded by the
    mean-length cap), all-null columns and the columns whose manifest
    records exact value counts (``values``, which prune eq / IN
    exactly).  Zone presence is NOT an exclusion: min/max zones on
    arrival-ordered high-cardinality keys (url, user_id) span everything
    and never prune — exactly the probes key sets exist for."""
    import pyarrow.compute as pc
    out = []
    for name in t.column_names:
        col = t.column(name)
        if name in values or not hashable(col.type) or \
                col.null_count == len(col):
            continue
        if _is_bytes(col.type) and \
                pc.mean(pc.binary_length(col)).as_py() > _MAX_MEAN_LEN:
            continue
        out.append(name)
    return out


def to_record(arr: pa.Array) -> dict | None:
    """The key set of one column as its JSON-safe manifest record; None
    for a column with no non-null value (nothing to probe)."""
    from ..codecs.bitpack import bits_needed, pack
    fp = np.unique(fingerprints(arr))
    if not len(fp):
        return None
    deltas = np.diff(fp, prepend=np.uint32(0)).astype(np.uint64)
    width = bits_needed(int(deltas.max()))
    return {"fp": base64.b64encode(pack(deltas, width).tobytes())
            .decode("ascii"), "n": len(fp), "width": width,
            "dt": str(arr.type)}


def from_record(rec) -> dict | None:
    """A manifest key-set record as a probe-ready set {"fp": sorted
    uint32 fingerprints, "dt"}; None when it is not one (never
    prunes)."""
    from ..codecs.bitpack import packed_words_for, unpack
    try:
        n, width, dt = int(rec["n"]), int(rec["width"]), rec["dt"]
        words = np.frombuffer(base64.b64decode(rec["fp"], validate=True),
                              dtype=np.uint64)
    except (TypeError, KeyError, ValueError, AttributeError):
        return None
    if not (n > 0 and 0 <= width <= 32 and isinstance(dt, str)
            and len(words) == packed_words_for(n, width)):
        return None
    deltas = unpack(words, width, n)
    fp = np.cumsum(deltas)
    if fp[-1] >> np.uint64(32) or not (deltas[1:] > 0).all():
        return None
    return {"fp": fp.astype(np.uint32), "dt": dt}


def _probe_fingerprints(values: pa.Array, dt: str) -> np.ndarray | None:
    """Sorted distinct fingerprints of ``values`` as a column of type
    ``dt`` holds them; None when they cannot be hashed that way."""
    from ..codecs.base import str_to_type
    try:
        typ = str_to_type(dt)
        if _is_bytes(typ) != _is_bytes(values.type) or not hashable(typ):
            return None
        if not _is_bytes(typ):
            # an int-like probe hashes in the COLUMN's type: a
            # timestamp[us] probe against a timestamp[ns] set must
            # scale to ns, or it would FALSELY prune
            values = values.cast(typ)
        fp = np.unique(fingerprints(values))
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, ValueError):
        return None
    return fp if len(fp) else None


def bloom_may_contain(m: dict, column: str, values: pa.Array,
                      memo: dict | None = None) -> bool:
    """Could ANY of ``values`` be in ``column`` of the part whose
    cached manifest entry (``Manifest.cached``) is ``m``?  Conservative:
    no key set for the column / values that do not hash as the column's
    type → True.  ``memo``: the probe fingerprints of ``values`` by
    ``dt``, shared by the probes of one value set (one op's parts)."""
    s = m["keys"].get(column)
    if s is None:
        return True
    memo = {} if memo is None else memo
    if s["dt"] not in memo:
        memo[s["dt"]] = _probe_fingerprints(values, s["dt"])
    probe = memo[s["dt"]]
    if probe is None:
        return True
    i = np.searchsorted(probe, s["fp"])
    return bool((probe[np.minimum(i, len(probe) - 1)] == s["fp"]).any())
