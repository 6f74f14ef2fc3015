"""Per-partition lineage manifest → checkpoint/resume.

One JSON file per completed partition under ``<out_dir>/_manifest/``
(concurrent-writer-safe: no shared append), written atomically
(tmp+rename) AFTER the partition's encoded parquet lands.  A re-run
diffs the manifest against the input descriptors and skips completed
partitions; the codec decision is a deterministic function of partition
stats (stages/select.py), so re-encoding a partition reproduces
byte-identical output (`params_hash` pins this).

A manifest is the part's one metadata file.  Every writer records the
store ``format`` number (``FORMAT``) and the key set ``_KEYS``:
``rows``, ``orig_bytes``, ``enc_bytes``, ``codecs`` ({column: codec})
and their ``params_hash``, the part file's ``payload_digest``
(``file_digest64``), and four maps keyed by column: zones (an "i64"
zone with its logical type ``dt``), ``nulls``, exact value counts
(``values``) and ``keys`` (state/bloom.py key-set records, each with
its ``dt``); lineage extras such as ``input`` ride along.

Store format: ``Manifest.load``, the one reader of manifest files, is
the one place that knows it.  A manifest without the current format
number was written by an older engine (bloom filters in place of key
sets, and before those ``_bloom/`` sidecars, no ``values``, zones
without ``dt``): ``load`` raises :class:`StoreFormatError`, so every
reader indexes the keys directly and no old store is resumed (resume
identity is the part_id string; resuming under another id scheme
would write duplicate rows BESIDE the old parts).  There is no
migration: re-encode such a store into a fresh directory.

Commit rule: a part is in the store once both of its files exist,
``part-<id>.parquet`` and ``_manifest/<id>.json``.  Every writer
records the manifest after its part file lands, so the manifest's
rename commits the part; a part that moves between stores (an
upsert's publish, ``attach_store``) lands its manifest first, so
there the part file's rename commits it.  Readers see only committed parts
(``sources/plan.py::plan`` lists them); fsck reports a part file that
no manifest commits.

Read cost: ``Manifest.cached`` keeps the manifests a process has read
in a cache keyed by path and bounded by ``_CACHE_BYTES`` (least
recently used out first; an entry is charged its file's bytes plus its
decoded key sets).  An entry is valid while the file's
``(st_ino, st_mtime_ns, st_size)`` is unchanged, so a hit costs one
``os.stat`` and a miss one ``Manifest.load`` plus one decode of its
key sets; the part id alone is not a key, because annotate and
delete rewrite a manifest under the same id.  Two rewrites within one
timestamp tick could keep all three (the second reusing the inode the
first freed), so on a filesystem with whole-second timestamps a
manifest is cached only once it is older than ``_RACY_NS``; finer
timestamps are taken to be finer than two rewrites.  Entries are
shared between callers and read-only; a writer that edits a manifest
``load``s its own copy.  Reading creates nothing: only ``record``
makes the ``_manifest/`` directory.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import threading
import time

# per-process manifest cache bound: bytes of manifest files held plus
# their decoded key sets
_CACHE_BYTES = 64 << 20
# a manifest with a whole-second mtime (a filesystem with 1-2 s
# timestamps) modified less than this before the read is read but not
# cached: two rewrites inside one such tick can leave the same
# (st_ino, st_mtime_ns, st_size), the rename having freed the old inode
# for reuse.  Finer timestamps (Linux: one jiffy, <= 10 ms) are taken
# to be finer than two rewrites of one manifest, each of which also
# writes the part file
_RACY_NS = 2_000_000_000
# manifest path -> (stat signature, entry, bytes charged),
# least recently used first
_cache: collections.OrderedDict = collections.OrderedDict()
_cache_bytes = 0
_cache_lock = threading.Lock()
# the store format number and the keys every writer records (module
# docstring)
FORMAT = 1
_KEYS = ("rows", "orig_bytes", "enc_bytes", "zones", "nulls", "values",
         "keys", "codecs", "params_hash", "payload_digest")


class StoreFormatError(Exception):
    """A store written by an older engine (module docstring).  Not a
    ``ValueError``, which readers take for a corrupt manifest."""

    def __init__(self, store_dir: str, what: str):
        super().__init__(
            f"{store_dir}: {what}; the store was written by an older "
            "packcol, whose format no reader accepts: re-encode it into "
            "a fresh directory")


def _format_gap(m: dict) -> str | None:
    """What a parsed manifest lacks of the format every writer records,
    or None when it has all of it."""
    if m.get("format") != FORMAT:
        return f"format {m['format']!r}, not {FORMAT}" if "format" in m \
            else "no format number"
    missing = [k for k in _KEYS if k not in m]
    return f"no {', '.join(missing)}" if missing else None


def file_digest64(path: str) -> str:
    """Fast 64-bit content digest of one part file: position-salted
    splitmix over the bytes as uint64 words, vectorized numpy (multi-
    GB/s — the read-back is page-cache-hot right after the write).
    Not cryptographic; 64 bits is the standard fingerprint trade for
    change DETECTION (collision P ≈ n²/2⁶⁵ across compared parts)."""
    import numpy as np
    from ..functions.text import _splitmix64
    with open(path, "rb") as f:
        data = f.read()
    n = len(data)
    pad = (-n) % 8
    if pad:
        data = data + b"\0" * pad
    words = np.frombuffer(data, dtype=np.uint64)
    with np.errstate(over="ignore"):
        idx = np.arange(len(words), dtype=np.uint64) + \
            np.uint64(0x9E3779B97F4A7C15)
        h = _splitmix64(words ^ _splitmix64(idx))
        s = np.uint64(h.sum(dtype=np.uint64)) ^ np.uint64(n)
        return "%016x" % int(_splitmix64(
            np.array([s], dtype=np.uint64))[0])


class Manifest:
    def __init__(self, out_dir: str):
        self.dir = os.path.join(out_dir, "_manifest")

    def _path(self, part_id: str) -> str:
        return os.path.join(self.dir, f"{part_id}.json")

    def done_parts(self) -> set[str]:
        """Ids of the parts that have a manifest (none without the
        ``_manifest/`` directory)."""
        try:
            names = os.listdir(self.dir)
        except FileNotFoundError:
            return set()
        return {f[:-5] for f in names if f.endswith(".json")}

    def record(self, part_id: str, meta: dict) -> None:
        # every writer records AFTER its part file lands, so this is
        # the one chokepoint where a payload content digest is always
        # fresh; any stale digest in a re-recorded manifest dict is
        # overwritten.  The digest makes part identity CONTENT-based
        # (rows/enc_bytes/params_hash alone can't see a value shift
        # that keeps the same bit width) — the basis of snapshot diffs
        # (pipelines/diff.py) and deep fsck.
        part = os.path.join(os.path.dirname(self.dir),
                            f"part-{part_id}.parquet")
        if os.path.exists(part):
            meta = {**meta, "payload_digest": file_digest64(part)}
        p = self._path(part_id)
        tmp = p + ".tmp"
        os.makedirs(self.dir, exist_ok=True)
        with open(tmp, "w") as f:
            json.dump({"part_id": part_id, **meta, "format": FORMAT}, f,
                      sort_keys=True)
        os.replace(tmp, p)

    def load(self, part_id: str) -> dict:
        """The part's manifest as written, read from the file (a
        private copy the caller may edit and ``record``).  Raises
        ``StoreFormatError`` when it lacks the format every writer
        records (module docstring), ``ValueError`` when it is not a
        JSON object and ``OSError`` when it cannot be read."""
        p = self._path(part_id)
        with open(p) as f:
            try:
                m = json.load(f)
            except ValueError as e:
                raise ValueError(f"{p}: not JSON: {e}") from None
        if not isinstance(m, dict):
            raise ValueError(f"{p}: not a JSON object")
        gap = _format_gap(m)
        if gap is not None:
            raise StoreFormatError(os.path.dirname(self.dir),
                                   f"manifest of part {part_id}: {gap}")
        return m

    def cached(self, part_id: str) -> dict:
        """The part's manifest through the per-process cache (module
        docstring), its ``keys`` decoded (``bloom.from_record``; a
        damaged record is dropped, so it never prunes).
        ``load``'s errors propagate, and ``OSError`` when the manifest
        is gone.  The entry is shared: do not edit it."""
        global _cache_bytes
        p = self._path(part_id)
        now = time.time_ns()
        st = os.stat(p)
        sig = (st.st_ino, st.st_mtime_ns, st.st_size)
        with _cache_lock:
            hit = _cache.get(p)
            if hit is not None and hit[0] == sig:
                _cache.move_to_end(p)
                return hit[1]
        # the file read is at least as new as ``sig``, so an entry is
        # never older than the signature it is filed under
        from .bloom import from_record
        m = self.load(part_id)
        keys = {c: k for c, k in ((c, from_record(r)) for c, r in
                                  m["keys"].items()) if k is not None}
        m = {**m, "keys": keys}
        size = st.st_size + sum(k["fp"].nbytes for k in keys.values())
        settled = st.st_mtime_ns % 10**9 or st.st_mtime_ns <= now - _RACY_NS
        with _cache_lock:
            old = _cache.pop(p, None)
            if old is not None:
                _cache_bytes -= old[2]
            if settled and size <= _CACHE_BYTES:
                _cache[p] = (sig, m, size)
                _cache_bytes += size
                while _cache_bytes > _CACHE_BYTES:
                    _cache_bytes -= _cache.popitem(last=False)[1][2]
        return m


_ZONE_STR_MAX = 256  # don't zone-map long strings / binary payloads


def null_counts_of(t) -> dict:
    """{column: null_count} for the columns of one partition that have
    any nulls.  Stored under the manifest key "nulls"; an EMPTY dict
    still means "counted — zero nulls everywhere", which is what lets
    IS [NOT] NULL pushdown prune parts."""
    return {name: int(t.column(name).null_count)
            for name in t.column_names if t.column(name).null_count}


# a dict / rle string column with at most this many distinct values in
# a part gets exact per-part value counts (manifest key "values")
_VALUES_MAX = 64


def value_counts(arr) -> dict:
    """{value: count} of the non-null values of one column."""
    import pyarrow.compute as pc
    vc = pc.value_counts(arr)
    return {v: int(c) for v, c in zip(vc.field("values").to_pylist(),
                                      vc.field("counts").to_pylist())
            if v is not None}


def value_counts_of(t, codecs: dict) -> dict:
    """{column: value_counts} for the ``string`` columns of one
    partition that ``codecs`` (the part's {column: codec}) stores as
    dict or rle with at most ``_VALUES_MAX`` distinct values.  Stored
    under the manifest key "values"; NULL is never a key (its count is
    the "nulls" entry).  The counts are exact, so COUNT and GROUP BY
    COUNT over such a column answer from manifests alone
    (sources/encoded.py::_agg_from_manifests)."""
    import pyarrow as pa
    out = {}
    for name, codec in codecs.items():
        if codec not in ("dict", "rle") or name not in t.column_names \
                or not pa.types.is_string(t.column(name).type):
            continue
        got = value_counts(t.column(name))
        if len(got) <= _VALUES_MAX:
            out[name] = got
    return out


def compute_zones(t) -> dict:
    """Per-column min/max zone map of one partition, JSON-safe.

    Kinds: "i64" (ints / timestamps / dates / bools, physical int64),
    "f64", "str" (only when max length <= _ZONE_STR_MAX — a truncated
    max would be an incorrect upper bound, so long columns are simply
    not mapped).  Null-only and unsupported columns are omitted; a
    missing entry means "cannot prune"."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ..codecs.forpack import is_int_like
    zones: dict = {}
    for name in t.column_names:
        col = t.column(name)
        if col.null_count == len(col) or len(col) == 0:
            continue
        typ = col.type
        try:
            if pa.types.is_uint64(typ):
                # stored as a mod-2^64 reinterpret: values >= 2^63 map
                # negative, so the int64 zone order is NOT value order
                # — no zone (never pruned)
                continue
            if is_int_like(typ):
                mm = pc.min_max(col)
                lo, hi = mm["min"], mm["max"]
                phys = pa.array([lo, hi], type=typ)
                from ..codecs.forpack import to_int64_numpy
                v = to_int64_numpy(phys.combine_chunks()
                                   if isinstance(phys, pa.ChunkedArray)
                                   else phys)
                # "dt" records the logical type so predicate bounds are
                # converted in the COLUMN's physical unit (a timestamp
                # predicate against a timestamp[ns] zone must scale to
                # ns, not a guessed us)
                zones[name] = {"kind": "i64", "min": int(v[0]),
                               "max": int(v[1]), "dt": str(typ)}
            elif pa.types.is_floating(typ):
                mm = pc.min_max(col)
                lo, hi = mm["min"].as_py(), mm["max"].as_py()
                if lo is None or lo != lo or hi != hi:  # NaN-poisoned
                    continue
                zones[name] = {"kind": "f64", "min": float(lo),
                               "max": float(hi)}
            elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
                if pc.max(pc.binary_length(col)).as_py() > _ZONE_STR_MAX:
                    continue
                mm = pc.min_max(col)
                zones[name] = {"kind": "str", "min": mm["min"].as_py(),
                               "max": mm["max"].as_py()}
        except pa.ArrowNotImplementedError:
            continue
    return zones


def zone_may_match(zone: dict | None, lo, hi) -> bool:
    """Could any value in [zone.min, zone.max] fall inside [lo, hi]?
    Conservative: unknown zone → True.  lo/hi must already be in the
    zone's physical domain (int for "i64", etc.)."""
    if zone is None:
        return True
    return not (hi < zone["min"] or lo > zone["max"])


def params_hash(enc_rows_table) -> str:
    """Hash of the per-column codec decisions + params of one partition."""
    h = hashlib.sha1()
    for col, codec, params in zip(
            enc_rows_table.column("column").to_pylist(),
            enc_rows_table.column("codec").to_pylist(),
            enc_rows_table.column("params").to_pylist()):
        h.update(f"{col}|{codec}|{params}\n".encode())
    return h.hexdigest()[:16]
