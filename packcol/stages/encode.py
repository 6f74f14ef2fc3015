"""Encode / decode map_batches stages.

The encoded-block row schema is the engine's analogue of the reference's
``SeqVector`` (/root/reference/src/naive_impl/seq_vector.rs:19-22): one
self-describing row per (part_id, column) holding word-aligned packed
payload + params.  Everything a decoder needs travels in the row — no
side channels.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..codecs import EncodedColumn, decode_any
from ..stages.select import encode_with_guard
from ..stages.stats import column_stats

ENC_SCHEMA = pa.schema([
    ("part_id", pa.string()),
    ("column", pa.string()),
    ("codec", pa.string()),
    ("n_values", pa.int64()),
    ("params", pa.string()),
    ("payload", pa.large_binary()),
    ("orig_bytes", pa.int64()),
    ("enc_bytes", pa.int64()),
    ("n_cols", pa.int64()),   # columns in this partition → lets a
                              # decoder DETECT a mid-partition re-split
])
# the fields of a block row that make the block (EncodedColumn.from_row)
BLOCK_FIELDS = ("codec", "n_values", "params", "payload")


def encoded_blocks(enc_rows: pa.Table, base_dir: str | None = None):
    """Yield ``(column, EncodedColumn)`` for each block row of
    ``enc_rows``, in row order — the one reader of the block-row
    schema (a part file's path form: ``sources/plan.py::read_blocks``).
    ``base_dir``, the part's store directory, lets shared-vocab blocks
    resolve their sidecar."""
    cols = [enc_rows.column(k) for k in ("column", *BLOCK_FIELDS)]
    for i in range(enc_rows.num_rows):
        name, *vals = (c[i].as_py() for c in cols)
        enc = EncodedColumn.from_row(dict(zip(BLOCK_FIELDS, vals)))
        enc.base_dir = base_dir
        yield name, enc


def content_part_id(batch: pa.Table) -> str:
    """Deterministic part id from block content (schema + count +
    per-column byte sizes + bounded samples of up to 16 strided rows),
    so re-runs over the same blocks reproduce the same ids (resume).
    Bounded per block: never serializes whole multi-MB cells, but the
    per-column nbytes + strided interior samples make two blocks that
    differ only in middle rows hash differently (silent-overwrite fix)."""
    h = hashlib.sha1()
    h.update(str(batch.schema).encode())
    h.update(str(batch.num_rows).encode())
    n = batch.num_rows
    if n:
        # strided sample incl. first and last row — ≤16 rows total
        idx = np.unique(np.linspace(0, n - 1, num=min(n, 16), dtype=np.int64))
        for name in batch.column_names:
            col = batch.column(name)
            h.update(str(col.nbytes).encode())
            h.update(str(col.null_count).encode())
            for i in idx:
                v = col[int(i)].as_py()
                if isinstance(v, (bytes, str)):
                    s = v[:256]
                    h.update(s.encode() if isinstance(s, str) else s)
                    h.update(str(len(v)).encode())
                else:
                    h.update(str(v).encode())
    return h.hexdigest()[:16]


def encode_table(batch: pa.Table, part_id: str | None = None,
                 codec_overrides: dict | None = None,
                 column_encoders: dict | None = None) -> pa.Table:
    """Encode every column of a table block → encoded-block rows.

    ``column_encoders`` maps column name → ``fn(col, name) ->
    EncodedColumn`` for stateful encoders (e.g. the shared-vocab toksep
    actor); other columns go through auto-selection."""
    part_id = part_id or content_part_id(batch)
    rows = {name: [] for name in ENC_SCHEMA.names}
    for name in batch.column_names:
        col = batch.column(name)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if column_encoders and name in column_encoders:
            enc = column_encoders[name](col, name)
            if enc.enc_bytes >= col.nbytes + 96:  # same guard as auto
                from ..codecs import get_codec
                store = get_codec("store").encode(col)
                if store.enc_bytes < enc.enc_bytes:
                    enc = store
        else:
            override = (codec_overrides or {}).get(name)
            # with a valid override the stats/trial-encode pass is pure
            # overhead (selection is already decided); encode_with_guard
            # computes full stats lazily iff the override fails
            stats = None if override is not None else column_stats(col)
            enc = encode_with_guard(col, codec_name=override, stats=stats)
        if "dtype" not in enc.params and "dtype_ipc" not in enc.params:
            # every block records its logical type so encoded_schema()
            # is complete regardless of codec (the store codec carries
            # it only inside the IPC payload, which metadata-only reads
            # never touch); nested types aren't str_to_type-parseable,
            # so they ride as a serialized one-field IPC schema instead
            from ..codecs.base import str_to_type, type_to_str
            ds = type_to_str(col.type)
            try:
                str_to_type(ds)
                enc.params["dtype"] = ds
            except ValueError:
                enc.params["dtype_ipc"] = pa.schema(
                    [(name, col.type)]).serialize().to_pybytes().hex()
        r = enc.to_row()
        rows["part_id"].append(part_id)
        rows["column"].append(name)
        rows["codec"].append(r["codec"])
        rows["n_values"].append(r["n_values"])
        rows["params"].append(r["params"])
        rows["payload"].append(r["payload"])
        rows["orig_bytes"].append(col.nbytes)
        rows["enc_bytes"].append(enc.enc_bytes)
    rows["n_cols"] = [len(batch.column_names)] * len(rows["part_id"])
    return pa.table(rows, schema=ENC_SCHEMA)


def decode_rows(enc_rows: pa.Table, expect_complete: bool = True,
                base_dir: str | None = None) -> pa.Table:
    """Reassemble one partition's original table from its encoded rows.

    With expect_complete (default), raises if the rows are fewer than
    the partition's recorded column count — i.e. the encoded rows were
    re-split mid-partition (use decode_dataset's grouped path, which
    reassembles partitions first).  Pass False for deliberate column
    projections."""
    if expect_complete and enc_rows.num_rows and \
            "n_cols" in enc_rows.column_names:
        exp = enc_rows.column("n_cols")[0].as_py()
        if exp is not None and enc_rows.num_rows < exp:
            raise ValueError(
                f"incomplete partition: {enc_rows.num_rows} of {exp} "
                "column rows present (encoded rows were re-split "
                "mid-partition; decode via groupby('part_id'))")
    cols = {}
    for name, enc in encoded_blocks(enc_rows, base_dir):
        if name in cols:
            raise ValueError(
                f"duplicate encoded row for column {name!r} "
                f"(part_id collision or mixed partitions in one group)")
        cols[name] = decode_any(enc)
    return pa.table(cols)


class EncodeBatch:
    """Stateless map_batches callable: table block → encoded rows.

    Used as ``ds.map_batches(EncodeBatch(), batch_format="pyarrow",
    zero_copy_batch=True)``; pure function of the block → retry-safe.
    """

    def __init__(self, codec_overrides: dict | None = None):
        self.codec_overrides = codec_overrides

    def __call__(self, batch: pa.Table) -> pa.Table:
        return encode_table(batch, codec_overrides=self.codec_overrides)


class DecodeBatch:
    """map_batches callable over encoded rows → decoded original blocks.

    Requires each block to contain whole partitions (true when blocks are
    produced by EncodeBatch and not re-split mid-partition; enforce with
    ``groupby("part_id").map_groups`` otherwise — documented partitioning
    assumption).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        parts = []
        pid = batch.column("part_id").to_numpy(zero_copy_only=False)
        # stable unique (keep first-appearance order)
        _, first_idx = np.unique(pid, return_index=True)
        for i in np.sort(first_idx):
            mask = pid == pid[i]
            parts.append(decode_rows(batch.filter(pa.array(mask))))
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts)


class RoundtripVerify:
    """Encode→decode→compare inside one task (no extra pass over storage);
    emits one verdict row per (part, column).  The cross-partition,
    url-keyed text invariant is checked by pipelines.verify."""

    def __init__(self, codec_overrides: dict | None = None):
        self.codec_overrides = codec_overrides

    def __call__(self, batch: pa.Table) -> pa.Table:
        enc = encode_table(batch, codec_overrides=self.codec_overrides)
        dec = decode_rows(enc)
        out = {"part_id": [], "column": [], "codec": [], "ok": [],
               "orig_bytes": [], "enc_bytes": []}
        for i, name in enumerate(dec.column_names):
            a = batch.column(name)
            b = dec.column(name)
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            if isinstance(b, pa.ChunkedArray):
                b = b.combine_chunks()
            out["part_id"].append(enc.column("part_id")[0].as_py())
            out["column"].append(name)
            out["codec"].append(enc.column("codec")[i].as_py())
            out["ok"].append(bool(a.equals(b)))
            out["orig_bytes"].append(enc.column("orig_bytes")[i].as_py())
            out["enc_bytes"].append(enc.column("enc_bytes")[i].as_py())
        return pa.table(out)
