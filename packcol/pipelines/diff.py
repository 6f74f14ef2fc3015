"""Snapshot diff between two encoded stores.

Content-addressed part ids + lineage manifests make the part-level
diff a PURE METADATA operation: a part present in both stores with the
same (rows, enc_bytes, params_hash) identity is byte-identical output
of the same encode and cannot contribute to a row diff — at 100 TB,
two snapshots that share 99% of their parts diff by reading only the
1% that changed.  This is the incremental-pipeline primitive the north
rule's checkpoint/lineage design buys: "what changed since the last
run" without scanning either store.

Row-level diff (optional) decodes ONLY the asymmetric parts on each
side, fingerprints rows with the order-insensitive content-hash kernel
(pipelines/content_hash.py::batch_row_hashes), and anti-filters each
side against the other's fingerprint set.  Rows that merely MOVED
between parts (recompaction, re-clustering) fingerprint-cancel; only
genuinely added / removed rows surface.

Fingerprint-set semantics (documented, tested): the row diff is
SET-based on 64-bit fingerprints — a row whose multiplicity changed
(3 copies → 2) does not surface in added/removed rows, and distinct
rows colliding at 64 bits (P ≈ n²/2⁶⁵) could mask each other.  Both
are the standard trade for an 8-byte/row diff; use the exact
multiset check ``dataset_content_hash`` to detect THAT something
changed, and this module to see WHAT.

No reference analogue (the reference is a value-encoding library with
no storage); this is engine surface required by the north rule's
resumable/lineage design.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.plan import (LocalDataset, as_dataset, blocks, execute,
                            part_id, plan)

_FP_DRIVER_CAP = 16_000_000  # 8 B/fp → ~128 MB driver-side per side


def _part_identity(m: dict) -> tuple:
    """Content identity of one part.  The payload digest
    (state/manifest.py::file_digest64, stamped by every writer at
    record time) is part of it: rows/enc_bytes/params_hash alone can't
    see a value shift that keeps the same bit width."""
    return (m["rows"], m["enc_bytes"], m["params_hash"],
            m["payload_digest"])


def _manifests(store: str) -> dict[str, dict]:
    return {m["part_id"]: m for m in plan(store, []).manifests.values()}


def diff_store_parts(a_dir: str, b_dir: str) -> dict:
    """Part-level diff from manifests alone — zero payload reads.

    A part id present in both stores counts as shared only when its
    manifest identity (``_part_identity``) matches too; an
    id collision with different content lands in BOTH asymmetric sets
    (never-lossy, same stance as attach_store's collision refusal)."""
    ma, mb = _manifests(a_dir), _manifests(b_dir)

    def _same(x: dict, y: dict | None) -> bool:
        return y is not None and _part_identity(x) == _part_identity(y)

    shared, only_a, only_b = [], [], []
    for pid, m in ma.items():
        if _same(m, mb.get(pid)):
            shared.append(pid)
        else:
            only_a.append(pid)
    for pid, m in mb.items():
        if not _same(m, ma.get(pid)):
            only_b.append(pid)

    def _sums(store, pids, mans):
        return {"parts": len(pids),
                "rows": sum(mans[p]["rows"] for p in pids),
                "enc_bytes": sum(mans[p]["enc_bytes"] for p in pids)}

    return {"shared": _sums(a_dir, shared, ma),
            "only_a": _sums(a_dir, sorted(only_a), ma),
            "only_b": _sums(b_dir, sorted(only_b), mb),
            "only_a_parts": sorted(only_a),
            "only_b_parts": sorted(only_b)}


def _rows_with_fp(store: str, pids: list[str], columns):
    """Decoded rows of the given parts, plus a __fp row-fingerprint
    column (vectorized content-hash kernel); None when none of the
    parts is in the store."""
    from .content_hash import batch_row_hashes
    from .encode_pipeline import DecodePartFile
    want = set(pids)
    p = plan(store, [])
    p = p.restrict([f for f in p.parts if part_id(f) in want])
    if not p.parts:
        return None

    dec = DecodePartFile(list(columns) if columns is not None else None)

    def task(batch: pa.Table) -> pa.Table:
        t = dec(batch)
        return t.append_column(
            "__fp", pa.array(batch_row_hashes(t).view(np.int64)))

    return as_dataset(execute(p, task))


def _fp_set(ds) -> np.ndarray:
    """Sorted distinct fingerprints of a Dataset's __fp column,
    collected with a hard driver cap (8 B/fp)."""
    chunks, total = [], 0
    if ds is not None and not isinstance(ds, LocalDataset):
        ds = ds.select_columns(["__fp"])  # only fingerprints leave workers
    for b in blocks(ds) if ds is not None else ():
        v = b.column("__fp").to_numpy()
        chunks.append(v)
        total += len(v)
        if total > _FP_DRIVER_CAP:
            raise ValueError(
                f"more than {_FP_DRIVER_CAP} differing-part rows; "
                "the snapshots diverge too much for a row-level "
                "diff — compare at part level (diff_store_parts) "
                "or recompact first")
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(chunks))


def _drop_fps(batch: pa.Table, other: np.ndarray) -> pa.Table:
    """The rows of ``batch`` whose __fp is NOT in the sorted ``other``
    (binary search, vectorized membership), without the __fp column."""
    v = batch.column("__fp").to_numpy()
    if len(other):
        idx = np.searchsorted(other, v)
        idx[idx == len(other)] = 0
        keep = other[idx] != v
    else:
        keep = np.ones(len(v), dtype=bool)
    return batch.filter(pa.array(keep)).drop_columns(["__fp"])


class _AntiFp:
    """``_drop_fps`` against the broadcast other-side set (one
    object-store get per worker)."""

    def __init__(self, other_ref):
        self.other_ref = other_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray
        return _drop_fps(batch, ray.get(self.other_ref))


def _anti(rows, other: np.ndarray):
    """``rows`` (a ``_rows_with_fp`` result) without the rows whose
    fingerprint is in ``other``: on the driver for an in-process
    result, as a Ray Data ``map_batches`` otherwise."""
    import ray
    if rows is None:
        return LocalDataset(pa.table({}))
    if isinstance(rows, LocalDataset):
        return LocalDataset(_drop_fps(rows._table, other))
    return rows.map_batches(_AntiFp(ray.put(other)), batch_size=None,
                            batch_format="pyarrow")


def diff_stores(a_dir: str, b_dir: str, *, row_level: bool = True,
                columns: list[str] | None = None) -> dict:
    """Full snapshot diff: the part-level metadata diff plus (when
    ``row_level``) two Datasets of the actual changes —
    ``added_rows`` (in B, not in A) and ``removed_rows`` (in A, not in
    B) — computed ONLY over the asymmetric parts.  ``columns``
    restricts both the fingerprint and the output to a projection
    (diff by key columns instead of whole rows)."""
    meta = diff_store_parts(a_dir, b_dir)
    if not row_level:
        return meta
    rows_a = _rows_with_fp(a_dir, meta["only_a_parts"], columns)
    rows_b = _rows_with_fp(b_dir, meta["only_b_parts"], columns)
    meta["added_rows"] = _anti(rows_b, _fp_set(rows_a))
    meta["removed_rows"] = _anti(rows_a, _fp_set(rows_b))
    return meta
