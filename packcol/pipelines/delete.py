"""Predicate-scoped deletion over the encoded store.

``delete_where(store, filter)`` removes every row matching the
predicate while touching ONLY the parts that can possibly match: the
same zone-map + key-set pruning the read path uses selects the affected
parts driver-side (from the parts' manifests alone), each affected part
evaluates the predicate on packed codes — in-process below the
crossover (``sources/plan.py::execute``), else in Ray tasks — and then

* zero matching rows  → the part is left byte-identical (never
  rewritten, never decoded);
* every row matches   → the part file and its manifest are removed;
* a strict subset     → every block is cut to the surviving rows in
  the encoded domain (``codecs/base.py::subset_any``: toksep keeps the
  survivors' token ranges and gives the bytes a fresh encode of them
  would, fsst keeps their compressed bytes and its symbol tables, and
  the other codecs re-encode the survivors with the block's own codec)
  and swapped in atomically under the SAME part id through
  ``encode_pipeline.record_part``.  Each block is read once.  Only the
  columns whose old manifest holds a zone, value counts or a key set
  (and blocks that keep no validity bitmap) are decoded, to rebuild
  exactly those entries: a column never gains one by losing rows.
  The other columns take their null counts from the cut blocks'
  validity bitmaps and their ``orig_bytes`` from their rows' lengths
  (``Codec.nbytes``).

At 100 TB this is the retention / right-to-be-forgotten shape: a
point-key delete rewrites O(1) parts, not the store.  Idempotent — a
re-run of the same delete finds zero matches and changes nothing.
Rewritten parts drop their ``input`` lineage (their rows no longer
mirror any source slice), which makes them resume-stable for
``encode_files`` (same part id stays recorded) and exempt from
input-indexed spot checks.  Shared-vocab columns re-encode
self-describing on rewrite (the sidecar stays valid for the untouched
parts).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..sources.plan import (ScanPart, collect, execute, parse_filter,
                            part_columns, part_id, plan, read_blocks)
from ..state.manifest import Manifest
# not used here: perfbench/trace.py patches delete.compute_zones
from ..state.manifest import compute_zones  # noqa: F401


class _DeletePartTask(ScanPart):
    """Each affected part: predicate on packed codes → untouched (no
    matching row: no partial) / removed / rewritten-in-place."""

    def reduce(self, enc_of, mask, path):
        # mask True = row matches the predicate = DELETE
        store_dir = os.path.dirname(path)
        man = Manifest(store_dir)
        pid = part_id(path)
        n_del = int(mask.sum())
        if n_del == len(mask):
            os.remove(path)
            os.remove(man._path(pid))
            action = "removed"
        else:
            old = man.load(pid)
            _rewrite(store_dir, path, pid, enc_of, ~mask, old, {
                "rows_deleted_cum":
                    int(old.get("rows_deleted_cum", 0)) + n_del})
            action = "rewritten"
        return pa.table({"action": [action], "rows_deleted": [n_del]})

    def empty(self):
        return pa.table({"action": pa.array([], pa.string()),
                         "rows_deleted": pa.array([], pa.int64())})


def _rewrite(store_dir: str, path: str, pid: str, enc_of: dict,
             keep: np.ndarray, old: dict, meta: dict) -> None:
    """Rewrite part ``pid`` (its file ``path``) to hold the rows ``keep``,
    in the encoded domain (module docstring).  ``enc_of`` holds the
    blocks the predicate read, ``old`` is the part's manifest and
    ``meta`` the new manifest's extras."""
    from ..codecs import decode_any, get_codec, subset_any
    from ..codecs.base import validity_from_bytes
    from ..stages.encode import block_rows
    from .encode_pipeline import record_part
    names = part_columns(path)
    enc_of = {**read_blocks(path, [c for c in names if c not in enc_of]),
              **enc_of}
    only = {k: set(old[k]) for k in ("zones", "values", "keys")}
    derived = only["zones"] | only["values"] | only["keys"]
    blocks, cols, nulls, kept = [], {}, {}, pa.array(keep)
    for name in names:
        sub = subset_any(enc_of[name], keep)
        if name in derived or "validity" not in sub.buffers:
            arr = decode_any(enc_of[name]).filter(kept)
            if name in derived:
                cols[name] = arr
            n_null, nbytes = arr.null_count, arr.nbytes
        else:
            valid = validity_from_bytes(sub.buffers["validity"],
                                        sub.n_values)
            n_null = 0 if valid is None else int((~valid).sum())
            nbytes = get_codec(sub.codec).nbytes(sub)
        if n_null:
            nulls[name] = n_null
        blocks.append((name, sub, nbytes))
    record_part(store_dir, pid, block_rows(pid, blocks), pa.table(cols),
                nulls, only=only, meta=meta)


def delete_where(store_dir: str, filter,
                 exclude_parts: set[str] | None = None) -> dict:
    """Delete every row of the store matching ``filter`` (same shapes
    as ``read_encoded``: a predicate tuple or a list = conjunction).
    Only zone/key-set-surviving parts are even opened; see module doc.
    ``filter`` None raises ValueError: a delete names its rows.
    ``exclude_parts`` (part ids) are never touched even when they
    match — the upsert pipeline uses it to shield freshly inserted
    parts from the replace-keys delete.  Returns {parts_total,
    parts_scanned, parts_untouched, parts_rewritten, parts_removed,
    rows_deleted}."""
    preds, _ = parse_filter(filter, None)
    if not preds:
        raise ValueError("delete_where needs a filter: pass at least one "
                         "predicate")
    p = plan(store_dir, preds, "and")
    p = p.restrict([f for f in p.parts
                    if part_id(f) not in (exclude_parts or ())])
    res = collect(execute(p, _DeletePartTask(preds)))
    res = res.to_pydict() if res is not None else \
        {"action": [], "rows_deleted": []}
    acts = res["action"]
    return {"parts_total": len(p.listed), "parts_scanned": len(p.parts),
            "parts_untouched": len(p.parts) - len(acts),
            "parts_rewritten": acts.count("rewritten"),
            "parts_removed": acts.count("removed"),
            "rows_deleted": sum(res["rows_deleted"])}
