"""Key-scoped upsert (MERGE) over the encoded store.

``upsert_encoded(store, ds, key)`` gives the store the last missing
mutation: *replace-or-insert by key*.  Every store row whose ``key``
appears in ``ds`` is deleted (the same zone-map + bloom pruning as
reads selects only the affected parts) and every row of ``ds`` is
appended as new content-addressed parts — so a point update rewrites
O(1) parts at 100 TB, and the new rows immediately carry the full
query-layer metadata (manifests, zone maps, bloom sidecars).

Ordering is chosen for crash-safety, not elegance:

1. **stage** — ``ds`` goes once through ``write_encoded`` into a
   private ``<store>/_upsert-<token>/`` staging store (invisible to
   readers: they list only top-level ``*.parquet``), with the store's
   codec choice (``_selection/codecs.json``) as codec overrides, so no
   codec selection runs unless a column drifted out of its codec.  A
   ``pa.Table``, a ``LocalDataset`` or a materialized Dataset of at
   most ``_LOCAL_PLAN_BYTES`` (``sources/plan.py::driver_table``) is
   staged in-process as one part; any other Dataset streams through a
   Ray Data ``map_batches``;
2. **publish** — each staged part's manifest, bloom sidecar and part
   file rename into the store (same filesystem, atomic per file);
3. **retire** — a key scan (``_KeyColDistinct``) over the published
   parts yields the replaced keys, and ``delete_where`` deletes them in
   bounded driver chunks (``_KEY_CHUNK`` distinct values per pass, each
   pass zone/bloom pruned), with the freshly published part ids
   EXCLUDED so the delete can never eat the new rows.  Both steps run
   through ``sources/plan.py::execute``: in-process on the driver when
   their plan is at most ``_LOCAL_PLAN_BYTES``, else as Ray Data
   ``map_batches`` (the key scan's result batches then stream, so the
   driver never holds more than ``_KEY_CHUNK`` keys).  The retire's
   partial rewrites keep each part's recorded codecs.  A small upsert
   thus starts no Ray Data execution at all;
4. the staging dir is removed.

A crash anywhere leaves the store readable; re-running the SAME upsert
converges: staging re-produces byte-identical content-addressed part
ids (publish overwrites the same files) and the retire pass is
idempotent.  The transient anomaly between 2 and 3 is duplicate keys
(old + new row both visible) — upsert is eventually-exact per call,
not snapshot-isolated.

Rows of ``ds`` with a NULL key are plain inserts (SQL semantics: NULL
matches no existing key).  ``ds`` holding several rows per key inserts
them all — deduplicate upstream if the key must stay unique.
"""

from __future__ import annotations

import os
import shutil
import uuid

import pyarrow as pa

from ..sources.plan import (blocks, driver_table, execute, part_id, plan,
                            read_blocks)
from ..state.bloom import _path as bloom_path
from ..state.manifest import Manifest

# Distinct key values per retire pass (bounds driver memory only).
# ONE pass is deliberately preferred over bloom-sized chunks: a bloom
# with ~1% per-value false positives saturates (P(any of N hits) ≈ 1)
# long before even 4k probe values, so chunking to "let blooms prune"
# was measured SLOWER on a 4 GB / 512-part soak (5 passes scanned
# 2059 parts / 23.1 s vs one pass 512 / 17.9 s) — the single pass does
# one vectorized membership scan per part, the honest cost on an
# unzoned key.  Large IN-lists skip bloom probing entirely
# (sources/plan.py::_BLOOM_PROBE_VALUE_CAP); zone envelopes still prune
# when the key is zoned/clustered.
_KEY_CHUNK = 1_000_000


class _KeyColDistinct:
    """Task: per-part distinct non-null values of ONE column, decoded
    from the encoded blocks — the retire pass's key source.  Emits
    O(distinct per part) rows; on the Ray path the driver holds
    ≤ _KEY_CHUNK at once."""

    def __init__(self, col: str):
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        from ..codecs import decode_any
        outs = []
        for p in batch.column("path").to_pylist():
            enc = read_blocks(p, [self.col]).get(self.col)
            if enc is None:
                continue
            vals = decode_any(enc)
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            outs.append(pa.table({self.col: pc.unique(vals).drop_null()}))
        if not outs:
            return pa.table({self.col: pa.array([], type=pa.string())})
        return pa.concat_tables(outs, promote_options="permissive")


def _transfer_part(src_dir: str, dst_dir: str, f: str,
                   transfer=os.replace) -> None:
    """Move part file ``f`` (``transfer``: ``os.replace``, or a copy)
    from store ``src_dir`` to ``dst_dir``: manifest, then bloom
    sidecar, then the part file last, so a part is never visible
    without its pruning metadata (a missing manifest only degrades to
    "cannot prune" anyway).  Overwrites what ``dst_dir`` holds."""
    pid = part_id(f) or f
    man_src, man_dst = Manifest(src_dir), Manifest(dst_dir)
    if os.path.exists(man_src._path(pid)):
        transfer(man_src._path(pid), man_dst._path(pid))
    b = bloom_path(src_dir, pid)
    if os.path.exists(b):
        dst_b = bloom_path(dst_dir, pid)
        os.makedirs(os.path.dirname(dst_b), exist_ok=True)
        transfer(b, dst_b)
    transfer(os.path.join(src_dir, f), os.path.join(dst_dir, f))


def upsert_encoded(store_dir: str, ds, key: str, *,
                   rows_per_part: int | None = None,
                   codec_overrides: dict | None = None,
                   bloom_columns="auto") -> dict:
    """MERGE ``ds`` (a ``ray.data.Dataset`` or a ``pa.Table``) into
    the store on ``key``; see module doc.  ``codec_overrides`` win over
    the store's codec choice.

    Returns {rows_inserted, parts_inserted, rows_deleted,
    parts_rewritten, parts_removed, parts_scanned}."""
    from .delete import delete_where
    from .encode_pipeline import load_store_selection, write_encoded
    if not isinstance(key, str):
        raise ValueError(
            "upsert key must be a single column name (composite keys "
            "would need tuple-IN deletes, which the predicate algebra "
            "does not express)")
    t = driver_table(ds)
    names = (t.schema if t is not None else ds.schema()).names
    if key not in names:
        raise ValueError(f"key column {key!r} not in dataset schema "
                         f"{names}")
    staging = os.path.join(store_dir, f"_upsert-{uuid.uuid4().hex[:12]}")
    try:
        w = write_encoded(
            ds if t is None else t, staging,
            codec_overrides={**load_store_selection(store_dir),
                             **(codec_overrides or {})},
            bloom_columns=bloom_columns, rows_per_part=rows_per_part)
        new_ids = []
        for f in sorted(os.listdir(staging)):
            if f.endswith(".parquet"):
                new_ids.append(part_id(f) or f)
                _transfer_part(staging, store_dir, f)
        # retire: replaced keys come from the just-published parts'
        # decoded key column (ds itself ran exactly once, above);
        # chunked so the driver never holds more than _KEY_CHUNK values
        stats = {"rows_deleted": 0, "parts_rewritten": 0,
                 "parts_removed": 0, "parts_scanned": 0}
        exclude = set(new_ids)
        if new_ids:
            pending: set = set()

            def flush():
                if not pending:
                    return
                r = delete_where(store_dir, (key, "in", sorted(pending)),
                                 exclude_parts=exclude)
                for kk in stats:
                    stats[kk] += r.get(kk, 0)
                pending.clear()

            new = plan(store_dir, []).restrict(
                [os.path.join(store_dir, f"part-{pid}.parquet")
                 for pid in new_ids])
            for b in blocks(execute(new, _KeyColDistinct(key))):
                for v in b.column(key).to_pylist():
                    pending.add(v)
                    if len(pending) >= _KEY_CHUNK:
                        flush()
            flush()
        return {"rows_inserted": w["rows"], "parts_inserted": w["parts"],
                **stats}
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def attach_store(src_dir: str, dst_dir: str, *,
                 move: bool = True) -> dict:
    """Merge every part of ``src_dir`` into ``dst_dir`` — the publish
    half of an upsert, standalone: per-part atomic renames (or copies
    with ``move=False``), manifest and bloom sidecars first, payload
    file last.  The shard-combining shape at 100 TB: attaching a
    1000-part shard to a million-part corpus is O(shard parts)
    metadata, zero decode, zero shuffle.

    A part id present in BOTH stores coalesces when the files are
    byte-identical (counted in ``parts_deduped``; the source copy is
    left in place) and raises otherwise — ids from ``encode_files``
    derive from input NAME + slice, so two different shards built from
    same-named inputs can collide, and overwriting would silently drop
    the destination's rows.  Shared-vocab stores are refused: their
    blocks reference a ``_shared/`` sidecar that is only valid under
    the source root (recompact to self-describing parts first).

    Returns {parts_attached, parts_deduped, rows_attached}."""
    import filecmp
    if os.path.isdir(os.path.join(src_dir, "_shared")):
        raise ValueError(
            f"{src_dir} uses a shared-vocab sidecar; recompact it to "
            "self-describing parts before attaching")
    os.makedirs(dst_dir, exist_ok=True)
    man_src = Manifest(src_dir)
    attached = deduped = rows = 0
    for f in sorted(os.listdir(src_dir)):
        if not f.endswith(".parquet"):
            continue
        pid = part_id(f) or f
        dest = os.path.join(dst_dir, f)
        if os.path.exists(dest):
            if not filecmp.cmp(os.path.join(src_dir, f), dest,
                               shallow=False):
                raise ValueError(
                    f"part id collision on {f}: source and destination "
                    "differ byte-wise — shards built from same-named "
                    "inputs with different content cannot attach")
            deduped += 1
            continue  # byte-identical: keep dst's copy + sidecars
        attached += 1
        if os.path.exists(man_src._path(pid)):
            rows += int(man_src.load(pid).get("rows") or 0)
        _transfer_part(src_dir, dst_dir, f,
                       os.replace if move else shutil.copy2)
    return {"parts_attached": attached, "parts_deduped": deduped,
            "rows_attached": rows}
