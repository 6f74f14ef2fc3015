"""Derived-column annotate over the encoded store (schema evolution).

``add_column_encoded(store, name, fn, input_columns)`` computes a new
column for every part from the part's own decoded input columns and
rewrites ONLY that part's metadata plus the new column's encoded block
— the existing blocks' encoded payload bytes are copied verbatim
(never decoded, never re-encoded).  At 100 TB this is the "annotate
the corpus with a quality score / token count / language tag" shape:
the work is O(input columns + new column) per part, not O(row bytes),
and the new column immediately joins the full query layer (zone maps,
null counts, optional bloom, codec stats, pushdown).

``drop_column_encoded(store, name)`` is the inverse: the block row
disappears from each part, n_cols and manifests adjust, the bloom
sidecar entry (if any) is stripped.  Payloads of surviving columns are
again copied verbatim.

Both are idempotent: re-running an add with the same ``fn`` rewrites
the same block under the same part id (``overwrite=True`` recomputes;
the default skips parts that already have the column — crash-resume),
and a re-dropped column is a no-op.

``fn`` receives a ``pyarrow.Table`` holding the part's
``input_columns`` and must return an array-like of the same length
(pyarrow Array/ChunkedArray, numpy array, or list) — keep it
vectorized; it runs once per part inside the scan task.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..sources.plan import collect, execute, part_id as part_id_of, plan
from ..stages.encode import encoded_blocks
from ..state.manifest import Manifest, compute_zones, null_counts_of, \
    params_hash
from .encode_pipeline import write_part_file


def _update_manifest(store_dir: str, part_id: str, enc: pa.Table,
                     add: dict | None = None,
                     drop: str | None = None,
                     replace: str | None = None) -> None:
    """Merge one column in/out of the part's manifest entry; absent
    manifests (older stores) stay absent — pruning simply won't apply.

    ``replace`` names the column whose metadata the ``add`` dict is
    authoritative for: its old zones/nulls/codecs entries are popped
    BEFORE the add is applied, so absent-in-new means absent-in-
    manifest.  Without it, an overwrite whose recomputed column is no
    longer zonable (compute_zones omits all-null / long-string
    columns) or whose null count dropped to 0 (null_counts_of omits
    zero-null columns) would keep the STALE entry and let zone /
    notnull pushdown wrongly prune parts."""
    man = Manifest(store_dir)
    try:
        m = man.load(part_id)
    except FileNotFoundError:
        return
    for key in ("zones", "nulls", "codecs"):
        d = m.get(key)
        if d is None:
            continue
        if drop is not None:
            d.pop(drop, None)
        if replace is not None:
            d.pop(replace, None)
        if add is not None and key in add:
            d.update(add[key])
    m["enc_bytes"] = sum(enc.column("enc_bytes").to_pylist())
    m["orig_bytes"] = sum(enc.column("orig_bytes").to_pylist())
    m["params_hash"] = params_hash(enc)
    if drop is not None and drop in (m.get("blooms") or []):
        m["blooms"] = [c for c in m["blooms"] if c != drop]
    man.record(part_id, m)


def _set_n_cols(enc: pa.Table, n: int) -> pa.Table:
    i = enc.schema.get_field_index("n_cols")
    return enc.set_column(i, "n_cols",
                          pa.array([n] * enc.num_rows, type=pa.int64()))


class _AddColPart:
    def __init__(self, store_dir: str, name: str, fn,
                 input_columns: list[str], overwrite: bool,
                 bloom: bool):
        self.store_dir = store_dir
        self.name = name
        self.fn = fn
        self.input_columns = input_columns
        self.overwrite = overwrite
        self.bloom = bloom

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs import decode_any
        from ..stages.encode import encode_table
        out = {"part_id": [], "action": []}
        for p in batch.column("path").to_pylist():
            part_id = part_id_of(p) or os.path.basename(p)
            enc = pq.read_table(p)
            names = enc.column("column").to_pylist()
            if self.name in names and not self.overwrite:
                out["part_id"].append(part_id)
                out["action"].append("skipped")
                continue
            missing = [c for c in self.input_columns if c not in names]
            if missing:
                raise ValueError(
                    f"part {part_id} lacks input column(s) {missing} "
                    f"(has {sorted(names)}) — annotate needs a "
                    "homogeneous store")
            blocks = dict(encoded_blocks(
                enc.filter(pa.compute.is_in(
                    enc.column("column"), pa.array(self.input_columns))),
                os.path.dirname(p)))
            t_in = pa.table({c: decode_any(blocks[c])
                             for c in self.input_columns})
            arr = self.fn(t_in)
            if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
                arr = pa.array(arr)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            if len(arr) != t_in.num_rows:
                raise ValueError(
                    f"fn returned {len(arr)} values for "
                    f"{t_in.num_rows} rows in part {part_id}")
            new_t = pa.table({self.name: arr})
            new_enc = encode_table(new_t, part_id=part_id)
            kept = enc.filter(pa.compute.not_equal(
                enc.column("column"), self.name)) \
                if self.name in names else enc
            merged = _set_n_cols(
                pa.concat_tables([kept, new_enc
                                  .select(kept.column_names)]),
                len(set(names) - {self.name}) + 1)
            write_part_file(p, merged)
            zones = compute_zones(new_t)
            add = {"zones": zones, "nulls": null_counts_of(new_t),
                   "codecs": dict(zip(
                       new_enc.column("column").to_pylist(),
                       new_enc.column("codec").to_pylist()))}
            if self.bloom:
                from ..state.bloom import (_hash_kind, build_bloom,
                                           load_blooms, save_blooms)
                kind = _hash_kind(arr.type)
                b = build_bloom(arr, kind) if kind is not None else None
                if b is not None:
                    existing = load_blooms(self.store_dir, part_id)
                    existing[self.name] = b
                    save_blooms(self.store_dir, part_id, existing)
            _update_manifest(self.store_dir, part_id, merged, add=add,
                             replace=self.name)
            out["part_id"].append(part_id)
            out["action"].append("annotated")
        return pa.table(out) if out["part_id"] else \
            pa.table({"part_id": pa.array([], pa.string()),
                      "action": pa.array([], pa.string())})


class _DropColPart:
    def __init__(self, store_dir: str, name: str):
        self.store_dir = store_dir
        self.name = name

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        out = {"part_id": [], "action": []}
        for p in batch.column("path").to_pylist():
            part_id = part_id_of(p) or os.path.basename(p)
            enc = pq.read_table(p)
            names = enc.column("column").to_pylist()
            if self.name not in names:
                out["part_id"].append(part_id)
                out["action"].append("skipped")
                continue
            if len(set(names)) <= 1:
                raise ValueError(
                    f"part {part_id} holds only {self.name!r} — "
                    "dropping the last column would empty the part; "
                    "use delete_where to remove rows instead")
            kept = _set_n_cols(
                enc.filter(pc.not_equal(enc.column("column"),
                                        self.name)),
                len(set(names)) - 1)
            write_part_file(p, kept)
            from ..state.bloom import load_blooms, save_blooms, _path
            blooms = load_blooms(self.store_dir, part_id)
            if self.name in blooms:
                del blooms[self.name]
                if blooms:
                    save_blooms(self.store_dir, part_id, blooms)
                else:
                    os.remove(_path(self.store_dir, part_id))
            _update_manifest(self.store_dir, part_id, kept,
                             drop=self.name)
            out["part_id"].append(part_id)
            out["action"].append("dropped")
        return pa.table(out) if out["part_id"] else \
            pa.table({"part_id": pa.array([], pa.string()),
                      "action": pa.array([], pa.string())})


def _run(store_dir: str, task) -> dict:
    """Run the per-part ``task`` over every part (``plan.execute``);
    {parts_total, parts_<action>: count}."""
    import collections
    p = plan(store_dir, [])
    res = collect(execute(p, task))
    acts = collections.Counter(
        res.column("action").to_pylist() if res is not None else ())
    return {"parts_total": len(p.parts),
            **{f"parts_{k}": v for k, v in acts.items()}}


def add_column_encoded(store_dir: str, name: str, fn,
                       input_columns: list[str], *,
                       overwrite: bool = False,
                       bloom: bool = False) -> dict:
    """Add derived column ``name`` = ``fn(decoded input_columns)`` to
    every part; see module doc.  Returns {parts_total,
    parts_annotated, parts_skipped}."""
    from ..sources.encoded import encoded_schema
    schema = encoded_schema(store_dir)
    missing = [c for c in input_columns if c not in schema.names]
    if missing:
        raise ValueError(f"unknown input column(s) {missing}; "
                         f"store has {sorted(schema.names)}")
    return _run(store_dir,
                _AddColPart(store_dir, name, fn, list(input_columns),
                            overwrite, bloom))


def drop_column_encoded(store_dir: str, name: str) -> dict:
    """Remove column ``name`` from every part; see module doc.
    Returns {parts_total, parts_dropped, parts_skipped}."""
    from ..sources.encoded import encoded_schema
    if name not in encoded_schema(store_dir).names:
        raise ValueError(f"unknown column {name!r}; store has "
                         f"{sorted(encoded_schema(store_dir).names)}")
    return _run(store_dir, _DropColPart(store_dir, name))


class _RenameColPart:
    def __init__(self, store_dir: str, old: str, new: str):
        self.store_dir = store_dir
        self.old = old
        self.new = new

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"part_id": [], "action": []}
        for p in batch.column("path").to_pylist():
            part_id = part_id_of(p) or os.path.basename(p)
            enc = pq.read_table(p)
            names = enc.column("column").to_pylist()
            if self.old not in names:
                out["part_id"].append(part_id)
                out["action"].append("skipped")
                continue
            if self.new in names:
                raise ValueError(
                    f"part {part_id} already has a column "
                    f"{self.new!r} — rename would collide")
            i = enc.schema.get_field_index("column")
            enc = enc.set_column(i, "column", pa.array(
                [self.new if n == self.old else n for n in names],
                type=pa.string()))
            write_part_file(p, enc)
            # manifest + bloom keys follow the rename
            man = Manifest(self.store_dir)
            try:
                m = man.load(part_id)
            except FileNotFoundError:
                m = None
            if m is not None:
                for key in ("zones", "nulls", "codecs"):
                    d = m.get(key)
                    if d is not None and self.old in d:
                        d[self.new] = d.pop(self.old)
                if self.old in (m.get("blooms") or []):
                    m["blooms"] = [self.new if c == self.old else c
                                   for c in m["blooms"]]
                man.record(part_id, m)
            from ..state.bloom import load_blooms, save_blooms
            blooms = load_blooms(self.store_dir, part_id)
            if self.old in blooms:
                blooms[self.new] = blooms.pop(self.old)
                save_blooms(self.store_dir, part_id, blooms)
            out["part_id"].append(part_id)
            out["action"].append("renamed")
        return pa.table(out) if out["part_id"] else \
            pa.table({"part_id": pa.array([], pa.string()),
                      "action": pa.array([], pa.string())})


def rename_column_encoded(store_dir: str, old: str, new: str) -> dict:
    """Rename column ``old`` → ``new`` in every part: a metadata-only
    rewrite (the block's ``column`` field plus manifest/bloom keys) —
    payload bytes copy verbatim, no decode anywhere.  Returns
    {parts_total, parts_renamed, parts_skipped}."""
    from ..sources.encoded import encoded_schema
    schema = encoded_schema(store_dir)
    if old not in schema.names:
        raise ValueError(f"unknown column {old!r}; store has "
                         f"{sorted(schema.names)}")
    if new in schema.names:
        raise ValueError(f"column {new!r} already exists")
    if old == new or not new:
        raise ValueError(f"bad rename {old!r} -> {new!r}")
    return _run(store_dir, _RenameColPart(store_dir, old, new))
