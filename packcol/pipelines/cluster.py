"""Sort-clustered re-encode of an encoded store.

Zone maps only prune when the data is CLUSTERED on the filter key: a
store written in arrival order has every part spanning nearly the full
key domain, so an eq/range probe must read every part no matter how
good the per-part metadata is.  ``cluster_store`` fixes the physical
layout the Ray-Data way:

    read_encoded (streaming decode, no materialization)
      -> Dataset.sort(key)            # the one all-to-all this needs
        -> map_batches(ClusterPartWriter, batch_size=rows_per_part)

The sort is the documented inherent shuffle (same class as the
window/bucketed sorts); everything after it is embarrassingly
parallel.  Output parts hold contiguous key ranges, so their manifest
zones on the key are (near-)disjoint — an eq probe then survives to
O(1) parts instead of O(parts), and every ``read_encoded(filter=...)``
/ ``count_encoded`` / ``agg_encoded`` call on the clustered store
prunes at the driver from tiny JSON (sources/plan.py).

Sorting also helps the CODECS: a sorted key column is delta/RLE
heaven, and low-cardinality payload columns gain longer runs, so the
per-part auto-selection (stages/select.py) is re-run from scratch on
the sorted blocks rather than copying the source store's choices.

This is the generalization of the reference's "canonical form first,
then pack" discipline (normalize the layout so downstream stages get
the cheap case: /root/reference/src/kmer.rs to_canonical) applied to
whole-table physical design.

100 TB notes: rows_per_part is derived from the store's own manifest
stats so parts land at ``target_bytes`` logical regardless of row
width; part ids are content-derived (stages/encode.py::
content_part_id), so task retries rewrite the same file atomically
instead of duplicating; the driver never sees data, only the tiny
per-part metrics rows.
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..sources.plan import plan
from .encode_pipeline import DatasetPartWriter


class ClusterPartWriter(DatasetPartWriter):
    """Stateless task: one sorted batch -> one ``c-``-prefixed part
    whose manifest records the clustering key (``clustered_on``).
    Key sets too: the sort clusters ONE key, so point lookups on every
    OTHER column still need the key-set path."""

    prefix = "c-"

    def __init__(self, out_dir: str, key):
        super().__init__(out_dir)
        # str = single key; list = composite (primary first)
        self.meta = {"clustered_on": key}


def key_zone_overlap(store_dir: str, key: str) -> dict:
    """Clustering quality from manifests alone: sort the per-part key
    zones and count adjacent overlaps.  0 overlapping pairs == an eq
    probe can only ever survive in one part (plus exact-boundary
    ties)."""
    zones = [m["zones"][key] for m in plan(store_dir, []).manifests.values()
             if key in m["zones"]]
    zones.sort(key=lambda z: (z["min"], z["max"]))
    overlaps, hi = 0, None
    for z in zones:
        if hi is not None and z["min"] < hi:
            overlaps += 1
        hi = z["max"] if hi is None else max(hi, z["max"])
    return {"parts_zoned": len(zones), "overlapping_parts": overlaps}


def cluster_store(store_dir: str, dest_dir: str, key,
                  target_bytes: int = 64 << 20,
                  resume: bool = True) -> dict:
    """Re-cluster an encoded store on ``key`` into ``dest_dir``.
    ``key`` may be one column or a list (composite clustering: the
    sort is lexicographic, zones prune on the PRIMARY key and the
    secondary keys refine within primary ties — the classic
    sort-key-order trade).

    One distributed sort; decoded rows stream straight from the decode
    tasks into the sort and out through part writers — nothing
    materializes on the driver.  ``resume=True`` makes re-calls a no-op
    once the marker is present (the sort's batch boundaries are not
    bitwise-reproducible across sessions, so resume is all-or-nothing
    at store granularity, unlike encode_files' per-part resume)."""
    from ..sources.encoded import read_encoded, store_stats
    keys = [key] if isinstance(key, str) else list(key)
    marker = os.path.join(dest_dir, "_CLUSTERED")
    if resume and os.path.exists(marker):
        st = store_stats(dest_dir)
        return {**st, "skipped": True,
                **key_zone_overlap(dest_dir, keys[0])}
    os.makedirs(dest_dir, exist_ok=True)
    src = store_stats(store_dir)
    row_bytes = max(1, (src["orig_bytes"] or 1) // max(src["rows"], 1))
    rows_per_part = max(256, int(target_bytes // row_bytes))
    ds = read_encoded(store_dir).sort(keys)
    metrics = ds.map_batches(
        ClusterPartWriter(dest_dir, keys[0] if len(keys) == 1 else keys),
        batch_size=rows_per_part,
        batch_format="pyarrow").to_pandas()
    with open(marker + ".tmp", "w") as f:
        f.write(",".join(keys))
    os.replace(marker + ".tmp", marker)
    orig = int(metrics["orig_bytes"].sum())
    enc = int(metrics["enc_bytes"].sum())
    return {"parts": len(metrics), "rows": int(metrics["rows"].sum()),
            "orig_bytes": orig, "enc_bytes": enc,
            "ratio": round(orig / enc, 4) if enc else None,
            "skipped": False, **key_zone_overlap(dest_dir, keys[0])}


# ---------------------------------------------------------------------------
# Z-order (multi-dimensional) clustering
# ---------------------------------------------------------------------------

def _zorder_codes(arrs: list, spans: list[tuple], bits: int):
    """Interleave 2–4 numeric columns into one uint64 Z-value per row.

    Each column is affine-mapped from its GLOBAL store span (manifest
    zones — no data pass needed) onto ``bits``-bit grid cells, then the
    cells' bits interleave LSB-first.  Fully vectorized: bits × keys
    shift-or ops over whole arrays.  Nulls land in cell 0 (they cluster
    together at the origin; zones still reflect actual values, so
    pruning stays correct)."""
    import numpy as np
    k = len(arrs)
    out = np.zeros(len(arrs[0]), dtype=np.uint64)
    top = (1 << bits) - 1
    for j, (v, (lo, hi)) in enumerate(zip(arrs, spans)):
        v = np.asarray(v, dtype=np.float64)
        span = (hi - lo) or 1.0
        q = np.clip((v - lo) / span, 0.0, 1.0)
        q = np.nan_to_num(q, nan=0.0)
        cell = (q * top).astype(np.uint64)
        for i in range(bits):
            out |= ((cell >> np.uint64(i)) & np.uint64(1)) \
                << np.uint64(i * k + j)
    return out


def zorder_store(store_dir: str, dest_dir: str, keys: list[str],
                 bits: int | None = None,
                 target_bytes: int = 64 << 20,
                 resume: bool = True) -> dict:
    """Re-cluster an encoded store on the Z-ORDER (Morton) interleave
    of 2–4 numeric/timestamp keys, so range predicates on ANY of the
    keys prune parts — the multi-dimensional physical design a
    lexicographic composite sort can't give (its secondary key only
    refines within primary ties; a filter on the secondary alone scans
    everything).

    Same machinery as ``cluster_store``: one distributed sort (on a
    derived ``__z`` column, dropped before writing) and streaming
    re-encode through ``ClusterPartWriter``; per-part zones for every
    key are computed from the actual batch values, so pushdown
    correctness never depends on the grid mapping — a skewed column
    only makes cells uneven, never wrong.  Key spans come from the
    store's manifest zone catalog (zero data passes).

    Returns the cluster metrics plus per-key ``key_zone_overlap``."""
    import numpy as np

    from ..sources.encoded import read_encoded, store_stats
    if not 2 <= len(keys) <= 4:
        raise ValueError("zorder_store needs 2-4 keys "
                         f"(got {len(keys)}); use cluster_store for 1")
    bits = bits if bits is not None else min(16, 63 // len(keys))
    if bits * len(keys) > 63:
        raise ValueError(f"bits={bits} x {len(keys)} keys exceeds 63")
    marker = os.path.join(dest_dir, "_ZORDERED")
    if resume and os.path.exists(marker):
        st = store_stats(dest_dir)
        return {**st, "skipped": True,
                **{k: key_zone_overlap(dest_dir, k) for k in keys}}
    os.makedirs(dest_dir, exist_ok=True)
    src = store_stats(store_dir)
    spans = []
    for k in keys:
        z = src["zones"].get(k)
        if z is None or z["kind"] not in ("i64", "f64"):
            raise ValueError(
                f"key {k!r} has no numeric zone span in the source "
                "manifests (strings/all-null columns can't z-order)")
        spans.append((float(z["min"]), float(z["max"])))
    row_bytes = max(1, (src["orig_bytes"] or 1) // max(src["rows"], 1))
    rows_per_part = max(256, int(target_bytes // row_bytes))

    def add_z(batch: pa.Table) -> pa.Table:
        from ..codecs.forpack import is_int_like, to_int64_numpy
        arrs = []
        for k in keys:
            col = batch.column(k)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if is_int_like(col.type):
                arrs.append(to_int64_numpy(col).astype(np.float64))
            else:
                arrs.append(col.to_numpy(zero_copy_only=False)
                            .astype(np.float64))
        z = _zorder_codes(arrs, spans, bits)
        return batch.append_column("__z", pa.array(z.view(np.int64)))

    def drop_z(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["__z"])

    ds = read_encoded(store_dir) \
        .map_batches(add_z, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .sort("__z") \
        .map_batches(drop_z, batch_format="pyarrow",
                     zero_copy_batch=True)
    metrics = ds.map_batches(
        ClusterPartWriter(dest_dir, list(keys)),
        batch_size=rows_per_part,
        batch_format="pyarrow").to_pandas()
    with open(marker + ".tmp", "w") as f:
        f.write(",".join(keys))
    os.replace(marker + ".tmp", marker)
    orig = int(metrics["orig_bytes"].sum())
    enc = int(metrics["enc_bytes"].sum())
    return {"parts": len(metrics), "rows": int(metrics["rows"].sum()),
            "orig_bytes": orig, "enc_bytes": enc,
            "ratio": round(orig / enc, 4) if enc else None,
            "skipped": False,
            **{k: key_zone_overlap(dest_dir, k) for k in keys}}
