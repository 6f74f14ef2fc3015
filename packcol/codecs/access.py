"""Encoded-domain predicates: filters evaluated on packed codes.

The reference's packed buffer answers reads without a full decode
(`SeqVector::get_kmer_u64` / `Kmer::get`, its
``src/naive_impl/seq_vector.rs:96-103`` and ``src/kmer.rs:46-53``).
Here every predicate of a part scan (``eval_pred``) evaluates on the
block's packed form where its codec has one: dictionary codes (dict,
rle), integer deltas (for, bitpack) and compressed bytes (fsst
equality and IN).  Other codecs and ops decode the block, which stays
exact.  The rows a read returns then decode through
``codecs/base.py::take_any``.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa

from .base import EncodedColumn, str_to_type, validity_from_bytes
from .dictionary import ipc_deserialize_array


# ---------------------------------------------------------------------------
# encoded-domain predicates: evaluate filters on packed codes without
# materializing values — the classic lightweight-compression payoff.
# Order-preserving dictionaries (H3) make range predicates a code-range
# comparison; FOR/delta make them integer bounds on deltas.
# ---------------------------------------------------------------------------

def _dict_codes(enc: EncodedColumn) -> np.ndarray:
    from .bitpack import unpack
    words = np.frombuffer(enc.buffers["payload"], dtype=np.uint64)
    return unpack(words, enc.params["width"], enc.n_values)


def _rle_row_codes(enc: EncodedColumn) -> np.ndarray:
    """Per-row 0-based dictionary codes of an RLE block (-1 = null):
    unpack run values + lengths and repeat — O(rows) small ints, the
    dictionary values are never materialized."""
    from .bitpack import unpack
    p = enc.params
    nr = p["n_runs"]
    vals = unpack(np.frombuffer(enc.buffers["payload"], dtype=np.uint64),
                  p["val_width"], nr).view(np.int64)
    lens = unpack(np.frombuffer(enc.buffers["lens"], dtype=np.uint64),
                  p["len_width"], nr).view(np.int64)
    return np.repeat(vals, lens) - 1


def _code_domain(enc: EncodedColumn):
    """(row codes int64 with -1=null, sorted dictionary) for the two
    dictionary-backed codecs, else None.  Both sort their vocabulary
    (H3), so value predicates become code-interval tests."""
    if enc.codec == "dict":
        codes = _dict_codes(enc).astype(np.int64)
        valid = validity_from_bytes(enc.buffers.get("validity", b""),
                                    enc.n_values)
        if valid is not None:
            codes = np.where(valid, codes, -1)
        return codes, ipc_deserialize_array(enc.buffers["aux"])
    if enc.codec == "rle":
        return _rle_row_codes(enc), ipc_deserialize_array(
            enc.buffers["aux"])
    return None


# codecs that record nulls EXCLUSIVELY in the "validity" buffer (empty
# buffer == no nulls); rle uses run code 0, "store" embeds them in the
# raw array — anything else falls back to decode for null tests.
_VALIDITY_CODECS = frozenset(
    {"dict", "for", "bitpack", "delta", "decfloat", "fsst",
     "tokdict", "toksep"})


def _predicate_int(value, dtype_str: str | None) -> int:
    """Physical int64 of a predicate scalar for for/bitpack comparison —
    accepts plain ints or logical values (datetime, date, bool) of the
    column's dtype."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    from .forpack import to_int64_numpy
    t = str_to_type(dtype_str) if dtype_str else None
    try:
        return int(to_int64_numpy(pa.array([value], type=t))[0])
    except (pa.ArrowInvalid, pa.ArrowTypeError) as e:
        raise TypeError(
            f"predicate value {value!r} ({type(value).__name__}) is not "
            f"comparable with this column's logical type "
            f"{dtype_str or 'int64'}; pass a value of that type") from e


def filter_eq(enc: EncodedColumn, value) -> np.ndarray:
    """Boolean mask of rows equal to `value`, computed on codes
    (dict / rle), deltas (for / bitpack) or compressed bytes (fsst,
    ``fsst.py::match_values``); other codecs, uint64 for / bitpack
    blocks and the fsst fallbacks decode the block."""
    if enc.codec == "fsst":
        from .fsst import match_values
        mask = match_values(enc, [value])
        if mask is not None:
            return mask
    valid = validity_from_bytes(enc.buffers.get("validity", b""),
                                enc.n_values)
    cd = _code_domain(enc)
    if cd is not None:
        codes, dictionary = cd
        import pyarrow.compute as pc
        idx = pc.index_in(pa.array([value], type=dictionary.type),
                          value_set=dictionary)[0].as_py()
        if idx is None:
            return np.zeros(enc.n_values, dtype=bool)
        return codes == np.int64(idx)  # null rows are -1: never match
    if enc.codec in ("for", "bitpack") and \
            enc.params.get("dtype") != "uint64":
        # (uint64 is stored as a mod-2^64 reinterpret whose int64 order
        # differs from value order — decode fallback below stays exact)
        p = enc.params
        from .bitpack import unpack
        base = int(p["base"])
        target = _predicate_int(value, p.get("dtype")) - base
        if target < 0 or (p["width"] < 64 and target >= (1 << p["width"])):
            return np.zeros(enc.n_values, dtype=bool)
        words = np.frombuffer(enc.buffers["payload"], dtype=np.uint64)
        mask = unpack(words, p["width"], enc.n_values) == np.uint64(target)
    else:
        from .base import decode_any
        import pyarrow.compute as pc
        return pc.equal(decode_any(enc), value).fill_null(False) \
            .to_numpy(zero_copy_only=False)
    if valid is not None:
        mask &= valid
    return mask


def filter_in(enc: EncodedColumn, values) -> np.ndarray:
    """Mask of rows whose value is in `values` (an IN-list), computed on
    codes / deltas / compressed bytes like filter_eq — one set test
    over the packed stream instead of len(values) eq passes."""
    if enc.codec == "fsst":
        from .fsst import match_values
        mask = match_values(enc, list(values))
        if mask is not None:
            return mask
    valid = validity_from_bytes(enc.buffers.get("validity", b""),
                                enc.n_values)
    import pyarrow.compute as pc
    cd = _code_domain(enc)
    if cd is not None:
        codes, dictionary = cd
        idx = pc.index_in(pa.array(list(values), type=dictionary.type),
                          value_set=dictionary)
        hit = np.array([i for i in idx.to_pylist() if i is not None],
                       dtype=np.int64)
        if len(hit) == 0:
            return np.zeros(enc.n_values, dtype=bool)
        return np.isin(codes, hit)  # null rows are -1: never match
    if enc.codec in ("for", "bitpack") and \
            enc.params.get("dtype") != "uint64":
        p = enc.params
        from .bitpack import unpack
        base = int(p["base"])
        cap = (1 << p["width"]) - 1 if p["width"] < 64 else (1 << 64) - 1
        targets = []
        for v in values:
            t = _predicate_int(v, p.get("dtype")) - base
            if 0 <= t <= cap:
                targets.append(t)
        if not targets:
            return np.zeros(enc.n_values, dtype=bool)
        words = np.frombuffer(enc.buffers["payload"], dtype=np.uint64)
        mask = np.isin(unpack(words, p["width"], enc.n_values),
                       np.array(targets, dtype=np.uint64))
    else:
        from .base import decode_any
        arr = decode_any(enc)
        return pc.is_in(arr, value_set=pa.array(list(values),
                                                type=arr.type)) \
            .fill_null(False).to_numpy(zero_copy_only=False)
    if valid is not None:
        mask &= valid
    return mask


def filter_range(enc: EncodedColumn, lo, hi) -> np.ndarray:
    """Mask of lo <= value <= hi computed in the ENCODED domain:

    * dict — codes are order-preserving (sorted dictionary, the
      LexHasher property H3), so the range becomes a code interval;
    * for / bitpack — the range becomes integer bounds on the packed
      deltas (no value reconstruction);
    * anything else — decode fallback (still correct, not pushed)."""
    valid = validity_from_bytes(enc.buffers.get("validity", b""),
                                enc.n_values)
    cd = _code_domain(enc)
    if cd is not None:
        codes, dictionary = cd
        dvals = dictionary.to_pylist()
        import bisect
        lo_code = bisect.bisect_left(dvals, lo)
        hi_code = bisect.bisect_right(dvals, hi) - 1
        if hi_code < lo_code:
            return np.zeros(enc.n_values, dtype=bool)
        # null rows are -1 and lo_code >= 0: never match
        return (codes >= np.int64(lo_code)) & (codes <= np.int64(hi_code))
    if enc.codec in ("for", "bitpack") and \
            enc.params.get("dtype") != "uint64":
        from .bitpack import unpack
        p = enc.params
        base = int(p["base"])
        cap = (1 << p["width"]) - 1 if p["width"] < 64 else (1 << 64) - 1
        lo_t = max(_predicate_int(lo, p.get("dtype")) - base, 0)
        hi_t = min(_predicate_int(hi, p.get("dtype")) - base, cap)
        if hi_t < lo_t:
            return np.zeros(enc.n_values, dtype=bool)
        words = np.frombuffer(enc.buffers["payload"], dtype=np.uint64)
        deltas = unpack(words, p["width"], enc.n_values)
        mask = (deltas >= np.uint64(lo_t)) & (deltas <= np.uint64(hi_t))
    else:
        import pyarrow.compute as pc
        from .base import decode_any
        arr = decode_any(enc)
        mask = pc.and_(pc.greater_equal(arr, lo),
                       pc.less_equal(arr, hi)).fill_null(False) \
            .to_numpy(zero_copy_only=False)
        return mask
    if valid is not None:
        mask &= valid
    return mask


def filter_prefix(enc: EncodedColumn, prefix: str) -> np.ndarray:
    """Mask of string rows starting with ``prefix`` (SQL LIKE 'p%'),
    evaluated on the dictionary VOCABULARY for dict/rle blocks —
    O(vocab) starts_with, then one code-interval test over the packed
    codes (the sorted vocabulary makes prefix matches contiguous).
    Row values are never reconstructed; other codecs decode (still
    correct, not pushed)."""
    import pyarrow.compute as pc
    cd = _code_domain(enc)
    if cd is not None:
        codes, dictionary = cd
        try:
            m = pc.starts_with(dictionary, pattern=prefix) \
                .fill_null(False)
        except (pa.ArrowNotImplementedError, pa.ArrowTypeError,
                pa.ArrowInvalid):
            cd = None  # non-string vocabulary → decode fallback
        else:
            hit = np.flatnonzero(m.to_numpy(zero_copy_only=False))
            if len(hit) == 0:
                return np.zeros(enc.n_values, dtype=bool)
            lo_c, hi_c = int(hit[0]), int(hit[-1])
            if hi_c - lo_c + 1 == len(hit):  # sorted vocab: contiguous
                return (codes >= np.int64(lo_c)) & \
                       (codes <= np.int64(hi_c))
            return np.isin(codes, hit)  # defensive (unsorted vocab)
    from .base import decode_any
    return pc.starts_with(decode_any(enc), pattern=prefix) \
        .fill_null(False).to_numpy(zero_copy_only=False)


def filter_null(enc: EncodedColumn, want_null: bool = True) -> np.ndarray:
    """Mask of null (``want_null=True``) or non-null rows.  Validity-
    bitmap codecs answer from the bitmap alone (an absent bitmap means
    zero nulls); rle answers from run code 0; 'store' and any unknown
    codec decode (nulls live inside the raw array)."""
    if enc.codec == "rle":
        mask = _rle_row_codes(enc) < 0
    else:
        valid = validity_from_bytes(enc.buffers.get("validity", b""),
                                    enc.n_values)
        if valid is not None:
            mask = ~valid
        elif enc.codec in _VALIDITY_CODECS:
            mask = np.zeros(enc.n_values, dtype=bool)
        else:
            import pyarrow.compute as pc
            from .base import decode_any
            mask = pc.is_null(decode_any(enc)) \
                .to_numpy(zero_copy_only=False)
    return mask if want_null else ~mask


def eval_pred(enc: EncodedColumn, pred: tuple) -> np.ndarray:
    """Dispatch one normalized predicate ``(col, op, lo, hi)`` against
    an encoded block — the single entry point the part-scan tasks
    (filter / count / aggregate) use."""
    _, op, lo, hi = pred
    if op == "eq":
        return filter_eq(enc, lo)
    if op == "in":
        return filter_in(enc, lo)
    if op == "range":
        return filter_range(enc, lo, hi)
    if op == "prefix":
        return filter_prefix(enc, lo)
    if op == "isnull":
        return filter_null(enc, True)
    if op == "notnull":
        return filter_null(enc, False)
    raise ValueError(f"unknown predicate op {op!r}")
