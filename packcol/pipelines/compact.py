"""Compaction of encoded blocks.

Two forms (SURVEY.md §2.8):

* :func:`compact_columns` — layout compaction: regroup encoded-block rows
  into one file per column (on the driver for a driver-sized store,
  else a Ray Data shuffle keyed on ``column``), so a reader of a
  single column touches one file instead of every part.  Payloads are
  not touched — each row stays a self-describing block.
* :func:`recompact` — size compaction: decode runs of small adjacent
  partitions and re-encode them as bigger ones (no shuffle — parts are
  grouped by contiguous ranges on the driver, each group is one item
  of ``sources/plan.py::execute_rows``).  Bigger blocks amortize
  per-block dictionaries/symbol tables, improving the compression
  ratio.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..sources.plan import (as_dataset, blocks, collect, execute_rows, plan,
                            read_part)
from ..stages.encode import decode_rows, encoded_blocks


def compact_columns(enc_dir: str, dest_dir: str) -> dict:
    """Regroup encoded rows column-major: dest/<column>.parquet, each
    column's blocks sorted by ``part_id``.

    Parts of at most ``_LOCAL_PLAN_BYTES`` in all regroup on the driver
    (one ``read_part`` each, no Ray Data).  Bigger stores take a Ray
    Data ``groupby("column")``: the shuffle moves only encoded payloads
    (already compressed), and one groupby key per column keeps the
    exchange tiny."""
    import shutil
    os.makedirs(dest_dir, exist_ok=True)
    # carry the shared-vocabulary sidecar along: shared-ref toksep
    # blocks resolve params["shared_ref"] relative to the store dir,
    # so a compacted store must contain the same _shared/ files
    shared_src = os.path.join(enc_dir, "_shared")
    if os.path.isdir(shared_src):
        shutil.copytree(shared_src, os.path.join(dest_dir, "_shared"),
                        dirs_exist_ok=True)
    src = plan(enc_dir, [])
    files = src.listed

    def write_group(group: pa.Table) -> pa.Table:
        col = group.column("column")[0].as_py()
        dest = os.path.join(dest_dir, f"{col}.parquet")
        idx = pc.sort_indices(group.column("part_id"))
        pq.write_table(group.take(idx), dest + ".tmp",
                       compression="zstd", compression_level=3)
        os.replace(dest + ".tmp", dest)
        return pa.table({"column": [col], "n_blocks": [group.num_rows],
                         "bytes": [os.path.getsize(dest)]})

    if src.executor == "local":
        parts = [read_part(f) for f in files]
        t = pa.concat_tables(parts, promote_options="permissive") \
            if parts else None
        out = [] if t is None else [
            write_group(t.filter(pc.equal(t.column("column"), c)))
            for c in pc.unique(t.column("column")).to_pylist()]
    else:
        out = blocks(rd.read_parquet(files).groupby("column").map_groups(
            write_group, batch_format="pyarrow"))
    return {r["column"]: {"n_blocks": int(r["n_blocks"]),
                          "bytes": int(r["bytes"])}
            for b in out for r in b.to_pylist()}


class RecompactGroup:
    """Task: a group of small encoded part files → decode → one bigger
    re-encoded part (deterministic: new part_id = joined old ids).
    Merged parts keep the full query layer: ``write_part`` rebuilds the
    zone maps (part pruning + metadata MIN/MAX) and key sets (point
    lookups) from the decoded table in hand — without them a
    recompacted store silently degrades to full scans."""

    def __init__(self, dest_dir: str):
        self.dest_dir = dest_dir

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .encode_pipeline import write_part
        out = []
        for row in batch.to_pylist():
            paths = row["paths"]
            merged = pa.concat_tables(
                [decode_rows(read_part(p), base_dir=os.path.dirname(p))
                 for p in paths]).combine_chunks()
            out.append(write_part(
                self.dest_dir, row["new_part_id"], merged,
                meta={"inputs": [os.path.basename(p) for p in paths]}))
        return pa.Table.from_pylist(out)


def read_column(dest_dir: str, column: str):
    """Decode one column from a column-major compacted layout — reads a
    single file, never touches other columns' payloads.  Returns a
    Dataset of single-column blocks (a ``LocalDataset`` when the file
    is driver-sized, ``execute_rows``)."""
    path = os.path.join(dest_dir, f"{column}.parquet")

    def decode_file(batch: pa.Table) -> pa.Table:
        from ..codecs import decode_any
        from ..codecs.base import str_to_type
        import json as _json
        fpath = batch.column("path")[0].as_py()
        enc_rows = read_part(fpath)
        arrays, dtype = [], None
        # shared-ref blocks resolve their vocabulary sidecar relative
        # to the store directory (the _shared/ copy made by
        # compact_columns)
        for _, enc in encoded_blocks(enc_rows, os.path.dirname(fpath)):
            a = decode_any(enc)
            dtype = a.type
            arrays.append(a)
        if not arrays:
            # typed empty (a bare [] would yield a null-typed column
            # that breaks unions with real blocks)
            for p in enc_rows.column("params").to_pylist() \
                    if enc_rows.num_rows else []:
                dt = _json.loads(p).get("dtype")
                if dt:
                    dtype = str_to_type(dt)
                    break
            return pa.table({column: pa.array(
                [], dtype if dtype is not None else pa.string())})
        return pa.table({column: pa.concat_arrays(
            [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
             for a in arrays])})

    return as_dataset(execute_rows(pa.table({"path": [path]}),
                                   os.path.getsize(path), decode_file))


def recompact(enc_dir: str, dest_dir: str, merge_factor: int = 4) -> dict:
    """Merge every `merge_factor` adjacent parts into one larger part."""
    os.makedirs(dest_dir, exist_ok=True)
    src = plan(enc_dir, [])
    groups = [src.listed[i:i + merge_factor]
              for i in range(0, len(src.listed), merge_factor)]
    items = pa.table({
        "paths": pa.array(groups, pa.list_(pa.string())),
        "new_part_id": [f"c{i:05d}x{len(g)}" for i, g in enumerate(groups)]})
    res = collect(execute_rows(items, src.planned_bytes,
                               RecompactGroup(dest_dir)))
    parts = res.to_pylist() if res is not None else []
    orig = sum(p["orig_bytes"] for p in parts)
    enc = sum(p["enc_bytes"] for p in parts)
    return {"parts": len(parts), "rows": sum(p["rows"] for p in parts),
            "orig_bytes": orig, "enc_bytes": enc,
            "ratio": round(orig / enc, 4) if enc else 0.0}
