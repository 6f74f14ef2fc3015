"""Derived-column annotate over the encoded store (schema evolution).

``add_column_encoded(store, name, fn, input_columns)`` computes a new
column for every part from the part's own decoded input columns and
rewrites ONLY that part's metadata plus the new column's encoded block
— the existing blocks' encoded payload bytes are copied verbatim
(never decoded, never re-encoded).  At 100 TB this is the "annotate
the corpus with a quality score / token count / language tag" shape:
the work is O(input columns + new column) per part, not O(row bytes),
and the new column immediately joins the full query layer (zone maps,
null counts, value counts, key set, codec stats, pushdown).
Every per-column entry of the part's manifest (``_COLUMN_KEYS``,
key sets included) is replaced, dropped and renamed as one.

``drop_column_encoded(store, name)`` is the inverse: the block row
disappears from each part, n_cols and manifests adjust.  Payloads of
surviving columns are again copied verbatim.

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

import functools
import os

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.plan import (collect, execute, part_id as part_id_of, plan,
                            read_part)
from ..stages.encode import encoded_blocks
from ..state.manifest import Manifest, compute_zones, null_counts_of, \
    params_hash, value_counts_of
from ..state.bloom import key_columns
from .encode_pipeline import build_part_blooms, write_part_file

# the manifest entries keyed by column name (state/manifest.py)
_COLUMN_KEYS = ("zones", "nulls", "codecs", "values", "keys")


def _update_manifest(store_dir: str, part_id: str, enc: pa.Table,
                     add: dict | None = None,
                     drop: str | None = None,
                     replace: str | None = None) -> None:
    """Merge one column in/out of the part's manifest entry.

    ``replace`` names the column whose metadata the ``add`` dict is
    authoritative for: its old entries under every ``_COLUMN_KEYS`` key
    are popped BEFORE the add is applied, so absent-in-new means
    absent-in-manifest.  Without it, an overwrite whose recomputed
    column is no longer zonable (compute_zones omits all-null /
    long-string columns), whose null count dropped to 0 (null_counts_of
    omits zero-null columns) or that gets no key set would keep the
    STALE entry and let zone / notnull / key-set pushdown wrongly
    prune parts, and a stale "values" entry would give a wrong
    metadata COUNT."""
    man = Manifest(store_dir)
    m = man.load(part_id)
    for key in _COLUMN_KEYS:
        d = m[key]
        if drop is not None:
            d.pop(drop, None)
        if replace is not None:
            d.pop(replace, None)
        if add is not None and key in add:
            d.update(add[key])
    m["enc_bytes"] = sum(enc.column("enc_bytes").to_pylist())
    m["orig_bytes"] = sum(enc.column("orig_bytes").to_pylist())
    m["params_hash"] = params_hash(enc)
    man.record(part_id, m)


def _set_n_cols(enc: pa.Table, n: int) -> pa.Table:
    i = enc.schema.get_field_index("n_cols")
    return enc.set_column(i, "n_cols",
                          pa.array([n] * enc.num_rows, type=pa.int64()))


def _add_column(name: str, fn, input_columns: list[str],
                overwrite: bool, part_id: str, path: str,
                enc: pa.Table, names: list[str]) -> str:
    """Edit: add ``name`` = ``fn(decoded input_columns)`` to one
    part."""
    from ..codecs import decode_any
    from ..stages.encode import encode_table
    if name in names and not overwrite:
        return "skipped"
    missing = [c for c in input_columns if c not in names]
    if missing:
        raise ValueError(
            f"part {part_id} lacks input column(s) {missing} "
            f"(has {sorted(names)}) — annotate needs a homogeneous store")
    blocks = dict(encoded_blocks(
        enc.filter(pc.is_in(enc.column("column"),
                                    pa.array(input_columns))),
        os.path.dirname(path)))
    t_in = pa.table({c: decode_any(blocks[c]) for c in input_columns})
    arr = fn(t_in)
    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(arr)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) != t_in.num_rows:
        raise ValueError(f"fn returned {len(arr)} values for "
                         f"{t_in.num_rows} rows in part {part_id}")
    new_t = pa.table({name: arr})
    new_enc = encode_table(new_t, part_id=part_id)
    kept = enc.filter(pc.not_equal(enc.column("column"), name)) \
        if name in names else enc
    merged = _set_n_cols(
        pa.concat_tables([kept, new_enc.select(kept.column_names)]),
        len(set(names) - {name}) + 1)
    write_part_file(path, merged)
    codecs = dict(zip(new_enc.column("column").to_pylist(),
                      new_enc.column("codec").to_pylist()))
    values = value_counts_of(new_t, codecs)
    add = {"zones": compute_zones(new_t), "nulls": null_counts_of(new_t),
           "codecs": codecs, "values": values,
           "keys": build_part_blooms(new_t, key_columns(new_t, values))}
    _update_manifest(os.path.dirname(path), part_id, merged, add=add,
                     replace=name)
    return "annotated"


def _drop_column(name: str, part_id: str, path: str, enc: pa.Table,
                 names: list[str]) -> str:
    """Edit: remove ``name`` from one part."""
    if name not in names:
        return "skipped"
    if len(set(names)) <= 1:
        raise ValueError(
            f"part {part_id} holds only {name!r} — dropping the last "
            "column would empty the part; use delete_where to remove "
            "rows instead")
    kept = _set_n_cols(
        enc.filter(pc.not_equal(enc.column("column"), name)),
        len(set(names)) - 1)
    write_part_file(path, kept)
    _update_manifest(os.path.dirname(path), part_id, kept, drop=name)
    return "dropped"


def _rename_column(old: str, new: str, part_id: str, path: str,
                   enc: pa.Table, names: list[str]) -> str:
    """Edit: rename ``old`` to ``new`` in one part: the block's
    ``column`` field and the manifest's per-column entries."""
    if old not in names:
        return "skipped"
    if new in names:
        raise ValueError(f"part {part_id} already has a column {new!r} "
                         "— rename would collide")
    enc = enc.set_column(
        enc.schema.get_field_index("column"), "column",
        pa.array([new if n == old else n for n in names], pa.string()))
    write_part_file(path, enc)
    man = Manifest(os.path.dirname(path))
    m = man.load(part_id)
    for key in _COLUMN_KEYS:
        if old in m[key]:
            m[key][new] = m[key].pop(old)
    man.record(part_id, m)
    return "renamed"


class _EditPart:
    """Task: one column edit of each part.  ``edit(part_id, path, enc,
    names) -> action`` rewrites the part file from its block rows
    ``enc`` (block columns ``names``) and its manifest, or returns
    "skipped".  The edits work on raw block rows, not ``part_mask``'s
    blocks, because they rewrite the file."""

    def __init__(self, edit):
        self.edit = edit

    def __call__(self, batch: pa.Table) -> pa.Table:
        pids, acts = [], []
        for p in batch.column("path").to_pylist():
            pids.append(part_id_of(p))
            enc = read_part(p)
            acts.append(self.edit(pids[-1], p, enc,
                                  enc.column("column").to_pylist()))
        return pa.table({"part_id": pa.array(pids, pa.string()),
                         "action": pa.array(acts, pa.string())})


def _run(store_dir: str, edit) -> dict:
    """Run the column ``edit`` over every part (``_EditPart``,
    ``plan.execute``); {parts_total, parts_<action>: count}."""
    import collections
    p = plan(store_dir, [])
    p.manifests  # a store of an older format raises before any rewrite
    res = collect(execute(p, _EditPart(edit)))
    acts = collections.Counter(
        res.column("action").to_pylist() if res is not None else ())
    return {"parts_total": len(p.parts),
            **{f"parts_{k}": v for k, v in acts.items()}}


def add_column_encoded(store_dir: str, name: str, fn,
                       input_columns: list[str], *,
                       overwrite: bool = False) -> dict:
    """Add derived column ``name`` = ``fn(decoded input_columns)`` to
    every part; see module doc.  Returns {parts_total,
    parts_annotated, parts_skipped}."""
    from ..sources.encoded import encoded_schema
    schema = encoded_schema(store_dir)
    missing = [c for c in input_columns if c not in schema.names]
    if missing:
        raise ValueError(f"unknown input column(s) {missing}; "
                         f"store has {sorted(schema.names)}")
    return _run(store_dir, functools.partial(
        _add_column, name, fn, list(input_columns), overwrite))


def drop_column_encoded(store_dir: str, name: str) -> dict:
    """Remove column ``name`` from every part; see module doc.
    Returns {parts_total, parts_dropped, parts_skipped}."""
    from ..sources.encoded import encoded_schema
    if name not in encoded_schema(store_dir).names:
        raise ValueError(f"unknown column {name!r}; store has "
                         f"{sorted(encoded_schema(store_dir).names)}")
    return _run(store_dir, functools.partial(_drop_column, name))


def rename_column_encoded(store_dir: str, old: str, new: str) -> dict:
    """Rename column ``old`` → ``new`` in every part: a metadata-only
    rewrite (the block's ``column`` field plus manifest keys) —
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
    return _run(store_dir, functools.partial(_rename_column, old, new))
