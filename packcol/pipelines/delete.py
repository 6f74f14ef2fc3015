"""Predicate-scoped deletion over the encoded store.

``delete_where(store, filter)`` removes every row matching the
predicate while touching ONLY the parts that can possibly match: the
same zone-map + bloom pruning the read path uses selects the affected
parts driver-side (tiny JSON / ~KB sidecars), each affected part
evaluates the predicate on packed codes — in-process below the
crossover (``sources/plan.py::execute``), else in Ray tasks — and then

* zero matching rows  → the part is left byte-identical (never
  rewritten, never decoded);
* every row matches   → the part file, its manifest and its bloom
  sidecar are removed;
* a strict subset     → the surviving rows are decoded once,
  re-encoded with the codecs the part's manifest records (no codec
  selection: the survivors are a subset of rows those codecs already
  held; ``encode_with_guard`` still re-selects a codec it does not
  know or that cannot encode them) and swapped in atomically under
  the SAME part id, with zones / blooms / null counts rebuilt.

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

import pyarrow as pa
import pyarrow.parquet as pq

from ..sources.plan import (collect, execute, parse_filter, part_id,
                            part_mask, plan)
from ..state.manifest import Manifest
# not used here: perfbench/trace.py patches delete.compute_zones
from ..state.manifest import compute_zones  # noqa: F401


class _DeletePartTask:
    """One affected part per loop turn: predicate on packed codes →
    untouched / removed / rewritten-in-place."""

    def __init__(self, store_dir: str, preds: list[tuple],
                 probe_blooms: bool = True):
        self.store_dir = store_dir
        self.preds = preds
        self.probe_blooms = probe_blooms

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.encode import decode_rows
        from ..state.bloom import _path as bloom_path
        out = {"part_id": [], "action": [], "rows_deleted": []}
        man = Manifest(self.store_dir)
        for p in batch.column("path").to_pylist():
            pid = part_id(p) or os.path.basename(p)
            # mask True = row matches the predicate = DELETE
            hit = part_mask(p, self.preds, "and",
                            probe_blooms=self.probe_blooms)
            mask = hit[1] if hit is not None else None
            n_del = int(mask.sum()) if mask is not None else 0
            if n_del == 0:
                out["part_id"].append(pid)
                out["action"].append("untouched")
                out["rows_deleted"].append(0)
                continue
            if n_del == len(mask):
                os.remove(p)
                for side in (man._path(pid),
                             bloom_path(self.store_dir, pid)):
                    if os.path.exists(side):
                        os.remove(side)
                out["part_id"].append(pid)
                out["action"].append("removed")
                out["rows_deleted"].append(n_del)
                continue
            # partial: decode survivors once, re-encode under the same
            # id with the part's recorded codecs, swap atomically
            from .encode_pipeline import write_part
            old = {}
            try:
                old = man.load(pid)
            except FileNotFoundError:
                pass
            keep = decode_rows(pq.read_table(p),
                               base_dir=os.path.dirname(p)) \
                .filter(pa.array(~mask))
            write_part(self.store_dir, pid, keep,
                       codec_overrides=old.get("codecs"), meta={
                "rows_deleted_cum":
                    int(old.get("rows_deleted_cum", 0)) + n_del})
            if part_id(p) is None:  # survivors now live in part-<pid>
                os.remove(p)
            out["part_id"].append(pid)
            out["action"].append("rewritten")
            out["rows_deleted"].append(n_del)
        return pa.table(out)


def delete_where(store_dir: str, filter,
                 exclude_parts: set[str] | None = None) -> dict:
    """Delete every row of the store matching ``filter`` (same shapes
    as ``read_encoded``: a predicate tuple or a list = conjunction).
    Only zone/bloom-surviving parts are even opened; see module doc.
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
    res = collect(execute(p, _DeletePartTask(store_dir, preds,
                                             not p.blooms_probed)))
    res = res.to_pydict() if res is not None else \
        {"action": [], "rows_deleted": []}
    acts = res["action"]
    return {"parts_total": len(p.listed), "parts_scanned": len(acts),
            "parts_untouched": acts.count("untouched"),
            "parts_rewritten": acts.count("rewritten"),
            "parts_removed": acts.count("removed"),
            "rows_deleted": sum(res["rows_deleted"])}
