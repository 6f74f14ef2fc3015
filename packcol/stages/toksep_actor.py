"""Stateful toksep encoder actor pool with a SHARED token vocabulary.

The per-block toksep codec (codecs/toksep.py) ships its token
dictionary in every block — self-describing, but at 100 TB the same
~100 KB web vocabulary is duplicated into every 64 MB part and the
dictionary hash build repeats per block.  This stage is the actor-pool
alternative the north star names for symbol tables: build ONE
frequency-ordered vocabulary per column from a bounded sample of the
input files (deterministic — resume-safe), write it ONCE as a sidecar
next to the encoded parts, and let every actor encode against it.
Out-of-vocabulary tokens ride a small per-block patch dictionary, so
blocks stay exact on any input drift.

Decode resolves ``params["shared_ref"]`` against the part's directory
(one mmap'd read per worker process, cached), then runs the ordinary
toksep decode over shared-vocab ⊕ patch.

Follows the reference's sample-don't-scan table build
(``src/naive_impl/seq_vector/minimizers.rs:38-142``); the vocabulary
file plays the role of the reference's static symbol→code table
(naive.rs:49-74) promoted to cluster-shared state (broadcast once —
``ray.put``/sidecar — instead of re-shipped per block).

Usage:
    vocabs = build_shared_vocab(paths, ["html", "text"])
    ref = write_shared_vocab(out_dir, vocabs)
    enc = ds.map_batches(
        TokSepSharedEncoder(out_dir, columns=["html", "text"]),
        batch_format="pyarrow", concurrency=8, num_cpus=1)
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.base import EncodedColumn, type_to_str, validity_to_bytes
from ..codecs.bitpack import bits_needed, pack
from ..codecs.dictionary import ipc_deserialize_array, ipc_serialize_array
from ..codecs.fsst import buffer_view
from ..codecs.toksep import tokenize_offsets

SHARED_DIR = "_shared"
_MAX_VOCAB = 1 << 16


def _tokens_of(col: pa.Array) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        fill = (b"" if pa.types.is_binary(col.type) or
                pa.types.is_large_binary(col.type) else "")
        col = pc.fill_null(col, fill)
    d, offs = buffer_view(col)
    to = tokenize_offsets(d, offs)
    tok_type = pa.binary() if to.dtype == np.int32 else pa.large_binary()
    return pa.Array.from_buffers(
        tok_type, len(to) - 1,
        [None, pa.py_buffer(np.ascontiguousarray(to)),
         pa.py_buffer(np.ascontiguousarray(d))])


def build_shared_vocab(sample_paths: list[str], columns: list[str],
                       sample_rows_per_file: int = 2000,
                       max_files: int = 4,
                       max_vocab: int = _MAX_VOCAB) -> dict[str, pa.Array]:
    """Frequency-ordered token vocabulary per column from a bounded
    sample.  Pure function of (paths, params) → deterministic."""
    import pyarrow.parquet as pq
    toks: dict[str, list[pa.Array]] = {c: [] for c in columns}
    for p in sorted(sample_paths)[:max_files]:
        head = next(pq.ParquetFile(p).iter_batches(
            batch_size=sample_rows_per_file, columns=columns), None)
        if head is None:
            continue
        tt = pa.Table.from_batches([head])
        for c in columns:
            toks[c].append(_tokens_of(tt.column(c))
                           .cast(pa.large_binary()))
    vocabs: dict[str, pa.Array] = {}
    for c in columns:
        if not toks[c]:
            vocabs[c] = pa.array([], type=pa.large_binary())
            continue
        allt = pa.concat_arrays(toks[c])
        denc = pc.dictionary_encode(allt)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        freq = np.bincount(
            denc.indices.to_numpy(zero_copy_only=False).astype(np.int64),
            minlength=len(denc.dictionary))
        order = np.argsort(-freq, kind="stable")[:max_vocab]
        vocabs[c] = denc.dictionary.take(pa.array(order)) \
            .cast(pa.large_binary())
    return vocabs


def write_shared_vocab(out_dir: str, vocabs: dict[str, pa.Array]) -> dict:
    """Write each vocabulary once; returns {column: relative ref}."""
    os.makedirs(os.path.join(out_dir, SHARED_DIR), exist_ok=True)
    refs = {}
    for c, v in vocabs.items():
        rel = os.path.join(SHARED_DIR, f"toksep_{c}.ipc")
        path = os.path.join(out_dir, rel)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(ipc_serialize_array(v))
        os.replace(tmp, path)  # atomic: resume-safe
        refs[c] = rel
    return refs


_VOCAB_CACHE: dict[str, pa.Array] = {}


def load_shared_vocab(base_dir: str, ref: str) -> pa.Array:
    """Per-process cached read of a vocabulary sidecar."""
    path = os.path.join(base_dir, ref)
    v = _VOCAB_CACHE.get(path)
    if v is None:
        with open(path, "rb") as f:
            v = ipc_deserialize_array(f.read())
        _VOCAB_CACHE[path] = v
    return v


class TokSepSharedEncoder:
    """Actor-pool callable: toksep-encode columns against the shared
    vocabulary written in ``out_dir`` (built once per actor in
    __init__); OOV tokens go to a per-block patch dictionary."""

    def __init__(self, out_dir: str, columns: list[str]):
        self.columns = columns
        self.refs = {c: os.path.join(SHARED_DIR, f"toksep_{c}.ipc")
                     for c in columns}
        self.vocabs = {c: load_shared_vocab(out_dir, r)
                       for c, r in self.refs.items()}

    def encode_column(self, col: pa.Array, name: str) -> EncodedColumn:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        dtype = col.type
        validity = validity_to_bytes(col)
        filled = col
        if col.null_count:
            fill = (b"" if pa.types.is_binary(dtype) or
                    pa.types.is_large_binary(dtype) else "")
            filled = pc.fill_null(col, fill)
        d, offs = buffer_view(filled)
        to = tokenize_offsets(d, offs)
        ntok = len(to) - 1
        counts = np.diff(np.searchsorted(
            to, offs.astype(to.dtype, copy=False)))
        tok_type = pa.binary() if to.dtype == np.int32 \
            else pa.large_binary()
        toks = pa.Array.from_buffers(
            tok_type, ntok,
            [None, pa.py_buffer(np.ascontiguousarray(to)),
             pa.py_buffer(np.ascontiguousarray(d))])
        vocab = self.vocabs[name]
        hit = pc.index_in(toks.cast(pa.large_binary()),
                          value_set=vocab)
        idx = hit.to_numpy(zero_copy_only=False)
        oov_mask = np.isnan(idx) if idx.dtype.kind == "f" else \
            ~hit.is_valid().to_numpy(zero_copy_only=False)
        idx = np.nan_to_num(idx, nan=0.0).astype(np.int64) \
            if idx.dtype.kind == "f" else idx.astype(np.int64)
        n_shared = len(vocab)
        if oov_mask.any():
            from ..codecs.dictionary import dict_encode_indices
            oov = pc.filter(toks, pa.array(oov_mask))
            pidx, patch = dict_encode_indices(oov.cast(pa.large_binary()))
            idx[oov_mask] = n_shared + pidx
        else:
            patch = pa.array([], type=pa.large_binary())
        nd = n_shared + len(patch)
        lw = bits_needed(int(counts.max()) if n else 0)
        from ..codecs.codestream import encode_code_stream
        cs_params, buffers = encode_code_stream(idx, nd)
        params = {"len_width": lw, "n_tokens": ntok, "n_dict": nd,
                  "dtype": type_to_str(dtype),
                  "shared_ref": self.refs[name], "n_shared": n_shared,
                  **cs_params}
        buffers.update(lens=pack(counts.view(np.uint64), lw).tobytes(),
                       aux=ipc_serialize_array(patch),
                       validity=validity)
        return EncodedColumn(codec="toksep", n_values=n,
                             params=params, buffers=buffers)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.encode import ENC_SCHEMA, content_part_id
        # this standalone stage encodes exactly self.columns and stamps
        # n_cols accordingly; extra batch columns would be silently
        # dropped in a way decode_rows' expect_complete check could not
        # detect — fail loudly instead (select_columns upstream)
        if set(batch.column_names) != set(self.columns):
            raise ValueError(
                "TokSepSharedEncoder encodes exactly its configured "
                f"columns {sorted(self.columns)} but the batch has "
                f"{sorted(batch.column_names)}; select_columns() the "
                "batch first or configure the missing columns")
        part_id = content_part_id(batch)
        rows = {name: [] for name in ENC_SCHEMA.names}
        for name in self.columns:
            col = batch.column(name)
            enc = self.encode_column(col, name)
            r = enc.to_row()
            rows["part_id"].append(part_id)
            rows["column"].append(name)
            rows["codec"].append(r["codec"])
            rows["n_values"].append(r["n_values"])
            rows["params"].append(r["params"])
            rows["payload"].append(r["payload"])
            rows["orig_bytes"].append(
                col.nbytes if not isinstance(col, pa.ChunkedArray)
                else col.combine_chunks().nbytes)
            rows["enc_bytes"].append(enc.enc_bytes)
        rows["n_cols"] = [len(self.columns)] * len(rows["part_id"])
        return pa.table(rows, schema=ENC_SCHEMA)
