"""Codec contract + encoded-column container.

The contract generalizes the reference's ``Encoding`` trait
(/root/reference/src/encoding/mod.rs:14-23): ``decode(encode(col)) == col``
bit-identical, including nulls.  An :class:`EncodedColumn` is
self-describing — everything needed to decode (codec name, params,
auxiliary buffers such as dictionaries / symbol tables, validity bitmap)
travels inside it, mirroring ``SeqVector``'s self-contained serde form
(/root/reference/src/naive_impl/seq_vector.rs:18-22).

Besides ``encode`` / ``decode`` a codec answers three questions about a
block, each with a default that decodes it:

* ``take(enc, rows)`` — some rows, equal to ``decode(enc).take(rows)``;
* ``subset(enc, keep)`` — the block cut to the rows of a boolean mask,
  a block whose decode equals ``decode(enc).filter(keep)`` (a rewrite
  after a delete; the reference's ``SeqVector`` slices its packed
  buffer without decoding, ``src/naive_impl/seq_vector.rs:141-161``);
* ``nbytes(enc)`` — ``decode(enc).nbytes``, the logical size a
  manifest records as ``orig_bytes``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa


# ---------------------------------------------------------------------------
# Arrow type <-> string (params are JSON; the type must round-trip exactly)
# ---------------------------------------------------------------------------

_SIMPLE_TYPES = {
    "bool": pa.bool_(),
    "int8": pa.int8(), "int16": pa.int16(), "int32": pa.int32(), "int64": pa.int64(),
    "uint8": pa.uint8(), "uint16": pa.uint16(), "uint32": pa.uint32(), "uint64": pa.uint64(),
    "float": pa.float32(), "double": pa.float64(),
    "string": pa.string(), "large_string": pa.large_string(),
    "binary": pa.binary(), "large_binary": pa.large_binary(),
    "date32[day]": pa.date32(), "date64[ms]": pa.date64(),
}


def type_to_str(t: pa.DataType) -> str:
    return str(t)


def str_to_type(s: str) -> pa.DataType:
    if s in _SIMPLE_TYPES:
        return _SIMPLE_TYPES[s]
    if s.startswith("timestamp["):
        inner = s[len("timestamp["):-1]
        if ", tz=" in inner:
            unit, tz = inner.split(", tz=")
            return pa.timestamp(unit, tz=tz)
        return pa.timestamp(inner)
    if s.startswith("time32["):
        return pa.time32(s[len("time32["):-1])
    if s.startswith("time64["):
        return pa.time64(s[len("time64["):-1])
    if s.startswith("duration["):
        return pa.duration(s[len("duration["):-1])
    if s.startswith("decimal128("):
        prec, scale = s[len("decimal128("):-1].split(",")
        return pa.decimal128(int(prec), int(scale))
    raise ValueError(f"unsupported arrow type string: {s!r}")


# ---------------------------------------------------------------------------
# EncodedColumn
# ---------------------------------------------------------------------------

@dataclass
class EncodedColumn:
    """Self-describing encoded column block.

    buffers: named binary buffers — by convention ``payload`` (packed words,
    analogous to SeqVector's u64 backing), ``aux`` (Arrow-IPC dictionary /
    symbol table), ``offsets`` (packed string offsets), ``validity``
    (LSB-first packed null bitmap, empty when no nulls).
    """

    codec: str
    n_values: int
    params: dict = field(default_factory=dict)
    buffers: dict = field(default_factory=dict)   # str -> bytes
    # runtime-only (never serialized): directory for resolving shared
    # sidecar refs (params["shared_ref"]) written next to encoded parts
    base_dir: str | None = None
    # runtime-only: what a codec derived from the buffers once and reads
    # again within one scan (fsst's unpacked row offsets; the decoded
    # bytes of a cut toksep block, which its ``nbytes`` reads)
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def enc_bytes(self) -> int:
        return sum(len(b) for b in self.buffers.values()) + len(
            json.dumps(self.params, separators=(",", ":"))
        )

    # -- flat (Arrow-row) form: buffers packed into one large_binary --------
    def to_row(self) -> dict:
        names = sorted(self.buffers)
        blob = b"".join(self.buffers[n] for n in names)
        sizes = {n: len(self.buffers[n]) for n in names}
        return {
            "codec": self.codec,
            "n_values": self.n_values,
            "params": json.dumps({"_buf_sizes": sizes, **self.params},
                                 separators=(",", ":")),
            "payload": blob,
        }

    @classmethod
    def from_row(cls, row: dict) -> "EncodedColumn":
        params = json.loads(row["params"])
        sizes = params.pop("_buf_sizes")
        blob = row["payload"]
        buffers, pos = {}, 0
        for n in sorted(sizes):
            buffers[n] = bytes(blob[pos:pos + sizes[n]])
            pos += sizes[n]
        return cls(codec=row["codec"], n_values=int(row["n_values"]),
                   params=params, buffers=buffers)


# ---------------------------------------------------------------------------
# validity (null bitmap) helpers — LSB-first packed bits
# ---------------------------------------------------------------------------

def validity_to_bytes(arr: pa.Array) -> bytes:
    """Packed is_valid bitmap; empty bytes when the array has no nulls."""
    if arr.null_count == 0:
        return b""
    valid = arr.is_valid().to_numpy(zero_copy_only=False).astype(np.uint8)
    return np.packbits(valid, bitorder="little").tobytes()


def validity_from_bytes(b: bytes, n: int) -> np.ndarray | None:
    """Boolean is_valid array of length n, or None when no nulls recorded."""
    if not b:
        return None
    bits = np.unpackbits(np.frombuffer(b, dtype=np.uint8), bitorder="little")
    return bits[:n].astype(bool)


def subset_validity(enc: "EncodedColumn", keep: np.ndarray) -> bytes:
    """The validity buffer of the rows ``keep`` (a boolean mask) of a
    block that stores one, as ``validity_to_bytes`` would write it."""
    valid = validity_from_bytes(enc.buffers.get("validity", b""),
                                enc.n_values)
    if valid is None or valid[keep].all():
        return b""
    return np.packbits(valid[keep].astype(np.uint8),
                       bitorder="little").tobytes()


def validity_nbytes(enc: "EncodedColumn") -> int:
    """Bytes of the null bitmap of ``decode(enc)`` (part of its
    ``nbytes``): one bit per row when the block has nulls."""
    return -(-enc.n_values // 8) if enc.buffers.get("validity") else 0


def apply_validity(arr: pa.Array, valid: np.ndarray | None) -> pa.Array:
    """Re-attach a null bitmap to a fully-valid decoded array."""
    if valid is None:
        return arr
    if pa.types.is_floating(arr.type) or pa.types.is_integer(arr.type):
        return pa.array(arr.to_numpy(zero_copy_only=False), type=arr.type,
                        mask=~valid)
    # generic: replace invalid slots with null via if_else
    import pyarrow.compute as pc
    nulls = pa.nulls(len(arr), type=arr.type)
    return pc.if_else(pa.array(valid), arr, nulls)


# ---------------------------------------------------------------------------
# Codec ABC + registry
# ---------------------------------------------------------------------------

class Codec:
    """Lossless per-column codec (contract = reference Encoding trait E1)."""

    name: str = "base"

    def can_encode(self, dtype: pa.DataType, stats: dict | None = None) -> bool:
        raise NotImplementedError

    def encode(self, arr: pa.Array) -> EncodedColumn:
        raise NotImplementedError

    def decode(self, enc: EncodedColumn) -> pa.Array:
        raise NotImplementedError

    def take(self, enc: EncodedColumn, rows) -> pa.Array:
        """Rows ``rows`` (integer indices: any order, repeats allowed)
        of the block, equal to ``decode(enc).take(rows)``, which is the
        default; a codec with random access decodes only those rows."""
        return self.decode(enc).take(rows)

    def subset(self, enc: EncodedColumn, keep: np.ndarray) -> EncodedColumn:
        """The block cut to the rows where the boolean mask ``keep`` is
        True: its decode equals ``decode(enc).filter(keep)``.  The
        default re-encodes those rows with this codec through
        ``encode_with_guard`` (which re-selects when the codec cannot
        hold them) and keeps the block's recorded logical type; a codec
        whose packed form can be cut directly does so."""
        from ..stages.select import encode_with_guard
        out = encode_with_guard(self.decode(enc).filter(pa.array(keep)),
                                codec_name=self.name)
        if "dtype" not in out.params and "dtype_ipc" not in out.params:
            out.params.update({k: enc.params[k] for k in
                               ("dtype", "dtype_ipc") if k in enc.params})
        return out

    def nbytes(self, enc: EncodedColumn) -> int:
        """``decode(enc).nbytes``, the default; a codec that knows its
        rows' lengths sums them instead."""
        return self.decode(enc).nbytes

    def _guarded(self, enc: EncodedColumn, keep: np.ndarray,
                 cut: EncodedColumn) -> EncodedColumn:
        """``cut``, this codec's ``subset`` of ``enc`` made in the packed
        form, unless it fails ``encode_with_guard``'s size guard (a cut
        keeps tables sized for every row of the block, so a block cut
        to a few rows can outgrow them raw): then the default's
        re-encode of those rows."""
        from ..stages.select import not_smaller_than_raw
        if not_smaller_than_raw(cut, self.nbytes(cut)):
            return Codec.subset(self, enc, keep)
        return cut


_REGISTRY: dict[str, Codec] = {}


def register(codec: Codec) -> Codec:
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    return _REGISTRY[name]


def all_codecs() -> dict[str, Codec]:
    return dict(_REGISTRY)


def decode_any(enc: EncodedColumn) -> pa.Array:
    return get_codec(enc.codec).decode(enc)


def take_any(enc: EncodedColumn, rows) -> pa.Array:
    """Rows ``rows`` of a block (``Codec.take``): the decode of a read
    that returns only some of a block's rows."""
    return get_codec(enc.codec).take(enc, rows)


def subset_any(enc: EncodedColumn, keep: np.ndarray) -> EncodedColumn:
    """The block cut to the rows of the boolean mask ``keep``
    (``Codec.subset``): the rewrite of a part that lost rows."""
    return get_codec(enc.codec).subset(enc, keep)
