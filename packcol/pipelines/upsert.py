"""Key-scoped upsert (MERGE) over the encoded store.

``upsert_encoded(store, ds, key)`` gives the store the last missing
mutation: *replace-or-insert by key*.  Every store row whose ``key``
appears in ``ds`` is deleted (the same zone-map + key-set pruning as
reads selects only the affected parts) and every row of ``ds`` is
appended as new content-addressed parts — so a point update rewrites
O(1) parts at 100 TB, and the new rows immediately carry the full
query-layer metadata (one manifest per part: zone maps, value counts,
key sets).

Ordering is chosen for crash-safety, not elegance:

1. **stage** — ``ds`` goes once through ``write_encoded`` into a
   private ``<store>/_upsert-<token>/`` staging store (invisible to
   readers: they list the store's own committed parts), with the
   store's codec choice (``_selection/codecs.json``) as codec
   overrides, so no codec selection runs unless a column drifted out
   of its codec.  A
   ``pa.Table``, a ``LocalDataset`` or a materialized Dataset of at
   most ``_LOCAL_PLAN_BYTES`` (``sources/plan.py::driver_table``) is
   staged in-process as one part; any other Dataset streams through a
   Ray Data ``map_batches``;
2. **publish** — each staged part moves into the store
   (``_transfer_part``: a copy of its manifest, then the part file's
   rename, which commits the part, then the staged manifest's
   removal; same filesystem, atomic per file);
3. **retire** — a key scan (``_KeyColDistinct``) over the published
   parts yields the replaced keys, and ``delete_where`` deletes them in
   bounded driver chunks (``_KEY_CHUNK`` distinct values per pass, each
   pass pruned by the zone maps and key sets, so it scans the parts
   that hold a replaced key), with the freshly published part ids
   EXCLUDED so the delete can never eat the new rows.  Both steps run
   through ``sources/plan.py::execute``: in-process on the driver when
   their plan is at most ``_LOCAL_PLAN_BYTES``, else as Ray Data
   ``map_batches`` (the key scan's result batches then stream, so the
   driver never holds more than ``_KEY_CHUNK`` keys).  The retire's
   partial rewrites cut each part's blocks in the encoded domain
   (``delete.py``: each block keeps its codec, toksep and fsst blocks
   are never decoded), so the staging write is the upsert's one
   encode.  A small upsert thus starts no Ray Data execution at all;
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

from ..sources.plan import (ScanPart, blocks, driver_table, execute, part_id,
                            plan)
from ..state.manifest import Manifest

# Distinct key values per retire pass: a bound on driver memory only
_KEY_CHUNK = 1_000_000


class _KeyColDistinct(ScanPart):
    """Task: per-part distinct non-null values of ONE column, decoded
    from the encoded blocks — the retire pass's key source.  Emits
    O(distinct per part) rows; on the Ray path the driver holds
    ≤ _KEY_CHUNK at once."""

    def __init__(self, col: str):
        super().__init__(columns=[col])
        self.col = col

    def reduce(self, enc_of, mask, path):
        import pyarrow.compute as pc
        from ..codecs import decode_any
        vals = decode_any(enc_of[self.col])
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        return pa.table({self.col: pc.unique(vals).drop_null()})

    def empty(self):
        return pa.table({self.col: pa.array([], type=pa.string())})


def _transfer_part(src_dir: str, dst_dir: str, pid: str,
                   move: bool = True) -> None:
    """Move (``move=False``: copy) the committed part ``pid`` from store
    ``src_dir`` to ``dst_dir``, overwriting what ``dst_dir`` holds: a
    copy of the manifest lands first, then the part file, whose arrival
    commits the part in ``dst_dir``; a move removes the source manifest
    last.  Each file lands by an atomic rename, so a crash at any point
    leaves the part committed in at least one of the two stores, and a
    re-run of the move finishes it."""
    man_src = Manifest(src_dir)._path(pid)
    man_dst = Manifest(dst_dir)._path(pid)
    os.makedirs(os.path.dirname(man_dst), exist_ok=True)
    _copy_file(man_src, man_dst)
    f = f"part-{pid}.parquet"
    src, dst = os.path.join(src_dir, f), os.path.join(dst_dir, f)
    if move:
        os.replace(src, dst)
        os.remove(man_src)
    else:
        _copy_file(src, dst)


def _copy_file(src: str, dst: str) -> None:
    """Copy ``src`` to ``dst`` through a writer-unique tmp and a rename,
    so no reader sees ``dst`` half written."""
    tmp = f"{dst}.tmp-{uuid.uuid4().hex[:8]}"
    shutil.copyfile(src, tmp)
    os.replace(tmp, dst)


def upsert_encoded(store_dir: str, ds, key: str, *,
                   rows_per_part: int | None = None,
                   codec_overrides: dict | None = None) -> dict:
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
    # a store of an older format raises here, before anything is
    # published (the retire would raise after it)
    plan(store_dir, []).manifests
    staging = os.path.join(store_dir, f"_upsert-{uuid.uuid4().hex[:12]}")
    try:
        w = write_encoded(
            ds if t is None else t, staging,
            codec_overrides={**load_store_selection(store_dir),
                             **(codec_overrides or {})},
            rows_per_part=rows_per_part)
        new_ids = [part_id(f) for f in plan(staging, []).listed]
        for pid in new_ids:
            _transfer_part(staging, store_dir, pid)
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
    half of an upsert, standalone: per part ``_transfer_part`` (a move,
    or a copy with ``move=False``), so a crashed attach re-runs to
    completion.  The shard-combining shape at 100 TB: attaching a
    1000-part shard to a million-part corpus is O(shard parts)
    metadata, zero decode, zero shuffle.

    A part id committed in BOTH stores coalesces when the files are
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
    src = plan(src_dir, [])
    mans = src.manifests  # every one loads before the first move
    # a part file dst holds without its manifest is not in dst: the
    # transfer overwrites it, as a re-run of its writer would
    committed = set(plan(dst_dir, []).listed)
    attached = deduped = rows = 0
    for path in src.listed:
        f = os.path.basename(path)
        dest = os.path.join(dst_dir, f)
        if dest in committed:
            if not filecmp.cmp(path, dest, shallow=False):
                raise ValueError(
                    f"part id collision on {f}: source and destination "
                    "differ byte-wise — shards built from same-named "
                    "inputs with different content cannot attach")
            deduped += 1
            continue  # byte-identical: keep dst's copy + manifest
        attached += 1
        rows += mans[path]["rows"]
        _transfer_part(src_dir, dst_dir, part_id(path), move)
    return {"parts_attached": attached, "parts_deduped": deduped,
            "rows_attached": rows}
