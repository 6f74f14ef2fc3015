"""Token+separator dictionary codec ("toksep") — dictionary encoding
lifted to *general* text tokens, lossless for ANY string/binary column.

A token is a maximal run of word bytes ([0-9A-Za-z] plus every byte
≥ 0x80, so multi-byte UTF-8 sequences never split) together with its
trailing run of separator bytes: ``"<a href=x>hi "`` tokenizes as
``"<" "a " "href=" "x>" "hi "``.  Web text — markup, URLs, prose — is
highly repetitive at this granularity, so a ⌈log2(vocab)⌉-bit code per
token beats byte-level schemes while the whole encode rides Arrow's C++
``dictionary_encode`` hash table.

This generalizes the single-space :mod:`.tokdict` codec (which it
subsumes for codec *selection* purposes on non-joinable columns) and,
like every codec here, the reference's symbol→code idea
(/root/reference/src/encoding/naive.rs:49-74) with the same word-aligned
bit-packed payload (/root/reference/src/naive_impl/seq_vector.rs:141-161).
Tokens never cross row boundaries, mirroring the reference's
SeqVecKmerIterator contract (windows never cross record bounds,
/root/reference/src/naive_impl/seq_vector.rs:183-205).

Tokens never crossing rows also means a block can be cut without
touching bytes: ``subset`` keeps the survivors' token ranges of the code
stream, drops the dictionary entries no survivor uses and re-ranks the
rest, which gives exactly the block a fresh encode of the survivors
gives; ``take`` expands only the selected rows' ranges.

Layout:
  aux      Arrow IPC token dictionary (frequency-ranked, ties in byte
           order → deterministic codes)
  payload  bit-packed token codes, all rows concatenated
  lens     bit-packed tokens-per-row
  validity null bitmap
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .base import (Codec, EncodedColumn, register, str_to_type,
                   subset_validity, type_to_str, validity_from_bytes,
                   validity_nbytes, validity_to_bytes)
from .bitpack import bits_needed, pack, unpack
from .dictionary import ipc_deserialize_array, ipc_serialize_array
from .codestream import decode_code_stream, encode_code_stream
from .fsst import _is_stringy, _offsets_nbytes, buffer_view
from .gather import take_concat


def word_class(d: np.ndarray) -> np.ndarray:
    """Bool mask: byte is a word byte ([0-9A-Za-z] or ≥0x80).  Branch-free
    comparisons (cheaper than a 256-entry gather on this data shape)."""
    low = d | np.uint8(32)          # fold A-Z onto a-z
    return (((d >= 48) & (d <= 57))
            | ((low >= 97) & (low <= 122))
            | (d >= 128))


def tokenize_offsets(d: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Token boundary offsets (includes 0 and len(d)); int32 when the
    data fits (halves the sort/merge traffic), else int64.

    A token starts where a word byte follows a non-word byte, and at
    every row start.  Both boundary sets are sorted; merge + dedupe.
    """
    idt = np.int32 if len(d) < (1 << 31) else np.int64
    if len(d) == 0:
        return np.zeros(1, dtype=idt)
    wc = word_class(d)
    cand = np.flatnonzero(wc[1:] & ~wc[:-1]).astype(idt)
    cand += 1
    merged = np.concatenate([cand, offs.astype(idt, copy=False)])
    merged.sort(kind="stable")
    keep = np.empty(len(merged), dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _token_positions(counts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in the code stream of the tokens of ``rows`` (row
    indices in any order, repeats allowed), row after row: each row's
    tokens are the range of the prefix sum of ``counts``."""
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    c = counts[rows]
    out_starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(c, out=out_starts[1:])
    pos = np.arange(out_starts[-1], dtype=np.int64)
    pos += np.repeat(starts[rows] - out_starts[:-1], c)
    return pos


def _ranked(idx: np.ndarray, dictionary: pa.Array, freq: np.ndarray,
            by_bytes: np.ndarray):
    """(codes, dictionary) over the entries ``by_bytes`` (the codes
    ``idx`` uses, in the byte order ``dict_encode_indices`` sorts a
    dictionary by), ranked by descending token count ``freq``, ties in
    that byte order: hot tokens get the small codes the escape-byte
    scheme rewards, mirroring the reference's "frequent symbols get
    short codes" permutation choice (``src/encoding/naive.rs:49-74``)."""
    order = by_bytes[np.argsort(-freq[by_bytes], kind="stable")]
    rank = np.empty(len(dictionary), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank[idx], dictionary.take(pa.array(order, pa.int64()))


def _packed(n: int, idx: np.ndarray, counts: np.ndarray,
            dictionary: pa.Array, dtype: pa.DataType,
            validity: bytes) -> EncodedColumn:
    """The toksep block of ``n`` rows with ``counts`` tokens each,
    coded ``idx`` over ``dictionary``."""
    nd = len(dictionary)
    lw = bits_needed(int(counts.max()) if n else 0)
    cs_params, buffers = encode_code_stream(idx, nd)
    params = {"len_width": lw, "n_tokens": len(idx), "n_dict": nd,
              "dtype": type_to_str(dtype), **cs_params}
    buffers.update(lens=pack(counts.view(np.uint64), lw).tobytes(),
                   aux=ipc_serialize_array(dictionary),
                   validity=validity)
    return EncodedColumn(codec=TokSepCodec.name, n_values=n,
                         params=params, buffers=buffers)


def _dictionary(enc: EncodedColumn) -> pa.Array:
    """The block's token dictionary; a shared-vocab block
    (stages/toksep_actor.py) resolves its sidecar vocabulary through
    ``enc.base_dir`` and appends its per-block OOV patch."""
    dictionary = ipc_deserialize_array(enc.buffers["aux"])
    p = enc.params
    if "shared_ref" not in p:
        return dictionary
    if enc.base_dir is None:
        raise ValueError(
            "shared-vocab toksep block: decode needs base_dir "
            "(the encoded part's directory) to resolve "
            f"{p['shared_ref']!r}")
    from ..stages.toksep_actor import load_shared_vocab
    shared = load_shared_vocab(enc.base_dir, p["shared_ref"])
    return pa.concat_arrays(
        [shared.cast(pa.large_binary()),
         dictionary.cast(pa.large_binary())]) \
        if len(dictionary) else shared


def _codes(enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
    """(token codes, tokens per row) of the block."""
    p = enc.params
    idx = decode_code_stream(p, enc.buffers, p["n_tokens"])
    counts = unpack(np.frombuffer(enc.buffers["lens"], dtype=np.uint64),
                    p["len_width"], enc.n_values).view(np.int64)
    return idx, counts


class TokSepCodec(Codec):
    name = "toksep"

    def can_encode(self, dtype: pa.DataType, stats: dict | None = None) -> bool:
        return _is_stringy(dtype)

    def encode(self, arr: pa.Array) -> EncodedColumn:
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        n = len(arr)
        dtype = arr.type
        validity = validity_to_bytes(arr)
        if arr.null_count:
            fill = b"" if (pa.types.is_binary(dtype)
                           or pa.types.is_large_binary(dtype)) else ""
            arr = pc.fill_null(arr, fill)
        d, offs = buffer_view(arr)
        tok_offs = tokenize_offsets(d, offs)
        ntok = len(tok_offs) - 1
        counts = np.diff(np.searchsorted(
            tok_offs, offs.astype(tok_offs.dtype, copy=False)))
        # zero-copy token array over the existing data buffer
        tok_type = pa.binary() if tok_offs.dtype == np.int32 \
            else pa.large_binary()
        toks = pa.Array.from_buffers(
            tok_type, ntok,
            [None, pa.py_buffer(np.ascontiguousarray(tok_offs)),
             pa.py_buffer(np.ascontiguousarray(d))])
        from .dictionary import dict_encode_indices
        idx, dictionary = dict_encode_indices(toks)
        if len(dictionary) > 1 and ntok:
            idx, dictionary = _ranked(
                idx, dictionary, np.bincount(idx, minlength=len(dictionary)),
                np.arange(len(dictionary)))
        return _packed(n, idx, counts, dictionary, dtype, validity)

    def decode(self, enc: EncodedColumn) -> pa.Array:
        return self._gather(enc, None)

    def take(self, enc: EncodedColumn, rows) -> pa.Array:
        idx = np.asarray(rows, dtype=np.int64)
        if len(idx) and (idx.min() < 0 or idx.max() >= enc.n_values):
            raise IndexError(f"row index out of range [0, {enc.n_values})")
        return self._gather(enc, idx)

    def subset(self, enc: EncodedColumn, keep: np.ndarray) -> EncodedColumn:
        if "shared_ref" in enc.params:  # re-encodes self-describing
            return super().subset(enc, keep)
        idx, counts = _codes(enc)
        idx = idx[np.repeat(keep, counts)]
        dictionary = ipc_deserialize_array(enc.buffers["aux"])
        freq = np.bincount(idx, minlength=len(dictionary))
        used = np.flatnonzero(freq)
        by_bytes = used[pc.array_sort_indices(dictionary.take(
            pa.array(used))).to_numpy()]
        data = int(freq @ _token_lengths(dictionary))
        idx, dictionary = _ranked(idx, dictionary, freq, by_bytes)
        if dictionary.type == pa.large_binary() and data < (1 << 31):
            dictionary = dictionary.cast(pa.binary())  # as encode types it
        out = _packed(int(keep.sum()), idx, counts[keep], dictionary,
                      str_to_type(enc.params["dtype"]),
                      subset_validity(enc, keep))
        out.memo["toksep_data_bytes"] = data
        return self._guarded(enc, keep, out)

    def nbytes(self, enc: EncodedColumn) -> int:
        data = enc.memo.get("toksep_data_bytes")
        if data is None:
            dictionary = _dictionary(enc)
            data = int(np.bincount(_codes(enc)[0], minlength=len(
                dictionary)) @ _token_lengths(dictionary))
        return _offsets_nbytes(enc) + data + validity_nbytes(enc)

    def _gather(self, enc: EncodedColumn, rows) -> pa.Array:
        """Rows ``rows`` of the block (all when None), decoded."""
        n = enc.n_values if rows is None else len(rows)
        dtype = str_to_type(enc.params["dtype"])
        idx, counts = _codes(enc)
        if rows is not None:
            idx = idx[_token_positions(counts, rows)]
            counts = counts[rows]
        # gather token bytes via Arrow take: the take result's data
        # buffer IS the concatenation and its offsets the cumulative
        # lengths, all in C++ (codecs/gather.py::take_concat)
        out, cs = take_concat(_dictionary(enc), idx)
        # row offsets: token-level cumsum sliced at row boundaries
        tok_row_offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=tok_row_offs[1:])
        row_offs = cs[tok_row_offs]
        large = (pa.types.is_large_string(dtype)
                 or pa.types.is_large_binary(dtype))
        off_arr = row_offs if large else row_offs.astype(np.int32)
        arr = pa.Array.from_buffers(
            dtype, n,
            [None, pa.py_buffer(np.ascontiguousarray(off_arr)),
             pa.py_buffer(np.ascontiguousarray(out))])
        valid = validity_from_bytes(enc.buffers.get("validity", b""),
                                    enc.n_values)
        if valid is not None:
            if rows is not None:
                valid = valid[rows]
            arr = pc.if_else(pa.array(valid), arr, pa.nulls(n, type=dtype))
        return arr


def _token_lengths(dictionary: pa.Array) -> np.ndarray:
    """Byte length of each token of ``dictionary``."""
    large = dictionary.type in (pa.large_binary(), pa.large_string())
    offs = np.frombuffer(dictionary.buffers()[1], dtype=np.int64 if large
                         else np.int32)[dictionary.offset:
                                        dictionary.offset
                                        + len(dictionary) + 1]
    return np.diff(offs.astype(np.int64))


register(TokSepCodec())
