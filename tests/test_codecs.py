"""Roundtrip tests for every codec: decode(encode(x)) == x bit-identical,
incl. nulls — the reference's Encoding-trait contract
(/root/reference/src/encoding/mod.rs:14-23) generalized.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packcol.codecs import (DeltaCodec, DictionaryCodec, EncodedColumn,
                            ForCodec, FsstCodec, PassthroughCodec, RleCodec,
                            get_codec)

CODECS = {
    "dict": DictionaryCodec(),
    "rle": RleCodec(),
    "for": ForCodec(),
    "delta": DeltaCodec(),
    "fsst": FsstCodec(),
    "store": PassthroughCodec(),
}


def roundtrip(codec, arr: pa.Array) -> pa.Array:
    enc = codec.encode(arr)
    # through the flat Arrow-row form too (what the pipeline stores)
    enc2 = EncodedColumn.from_row(enc.to_row())
    out = get_codec(enc2.codec).decode(enc2)
    assert out.type == arr.type, (out.type, arr.type)
    assert len(out) == len(arr)
    assert out.equals(arr) or out.to_pylist() == arr.to_pylist(), (
        codec.name, arr.type)
    return out


RNG = np.random.default_rng(42)

STRING_ARRAYS = [
    pa.array(["en", "de", "en", "en", "fr", "de"] * 50),
    pa.array(["same"] * 100),
    pa.array([], type=pa.string()),
    pa.array(["", "a", "", "bb", ""] * 10),
    pa.array(["x", None, "y", None, None, "x"] * 20),
    pa.array([f"https://d{i%7}.example.com/p/{i}" for i in range(300)]),
    pa.array(["héllo wörld", "日本語テキスト", "ascii", "😀😀😀"] * 25),
    pa.array([f"doc {i}" for i in range(100)], type=pa.large_string()),
]

BINARY_ARRAYS = [
    pa.array([b"\x00\xff\x01", b"", b"\xfe" * 50, None] * 10,
             type=pa.binary()),
    pa.array([RNG.bytes(40) for _ in range(50)], type=pa.large_binary()),
]

INT_ARRAYS = [
    pa.array(np.arange(1000, dtype=np.int64)),
    pa.array(RNG.integers(-5, 5, 200), type=pa.int32()),
    pa.array([7] * 64, type=pa.int64()),
    pa.array([None, 1, 2, None, 3], type=pa.int64()),
    pa.array([-(2**62), 2**62, 0, -1], type=pa.int64()),
    pa.array([], type=pa.int64()),
    pa.array(RNG.integers(0, 2**15, 300), type=pa.uint16()),
    pa.array([True, False, None, True] * 25, type=pa.bool_()),
    pa.array(np.datetime64("2026-01-01", "us")
             + RNG.integers(0, 10**9, 200).astype("timedelta64[us]"),
             type=pa.timestamp("us")),
]


@pytest.mark.parametrize("arr", STRING_ARRAYS + BINARY_ARRAYS + INT_ARRAYS,
                         ids=range(len(STRING_ARRAYS + BINARY_ARRAYS
                                       + INT_ARRAYS)))
@pytest.mark.parametrize("name", ["dict", "rle", "store"])
def test_generic_codecs_roundtrip(name, arr):
    roundtrip(CODECS[name], arr)


@pytest.mark.parametrize("arr", INT_ARRAYS, ids=range(len(INT_ARRAYS)))
@pytest.mark.parametrize("name", ["for", "delta"])
def test_int_codecs_roundtrip(name, arr):
    roundtrip(CODECS[name], arr)


@pytest.mark.parametrize("arr", STRING_ARRAYS + BINARY_ARRAYS,
                         ids=range(len(STRING_ARRAYS + BINARY_ARRAYS)))
def test_fsst_roundtrip(arr):
    roundtrip(CODECS["fsst"], arr)


def test_dict_two_bit_parity():
    """A 4-value column must pack to exactly 2 bits/value (reference
    parity: 4-symbol alphabet → 2-bit codes, naive.rs:116-124)."""
    n = 4096
    arr = pa.array(list("ACGT") * (n // 4))
    enc = CODECS["dict"].encode(arr)
    assert enc.params["width"] == 2
    assert len(enc.buffers["payload"]) == n * 2 // 8

    # order-preserving codes: sorted dictionary ⇒ code order == value order
    from packcol.codecs.dictionary import ipc_deserialize_array
    d = ipc_deserialize_array(enc.buffers["aux"])
    assert d.to_pylist() == sorted(d.to_pylist())


def test_rle_run_compression():
    arr = pa.array(["en"] * 5000 + ["de"] * 5000)
    enc = CODECS["rle"].encode(arr)
    assert enc.params["n_runs"] == 2
    assert enc.enc_bytes < 600


def test_for_timestamp_width():
    base = np.datetime64("2026-01-01T00:00:00", "us")
    ts = base + np.arange(1000).astype("timedelta64[us]")
    enc = CODECS["for"].encode(pa.array(ts, type=pa.timestamp("us")))
    assert enc.params["width"] == 10  # deltas 0..999
    assert len(enc.buffers["payload"]) <= 1000 * 10 // 8 + 8


def test_fsst_compresses_text():
    text = ["the quick brown fox jumps over the lazy dog " * 20
            for _ in range(200)]
    arr = pa.array(text)
    enc = CODECS["fsst"].encode(arr)
    raw = sum(len(t) for t in text)
    assert len(enc.buffers["payload"]) < raw * 0.75
    roundtrip(CODECS["fsst"], arr)


def test_fsst_no_cross_boundary_match():
    # "ab" frequent; strings ending 'a' followed by strings starting 'b'
    arr = pa.array(["ab" * 30, "a", "b", "ab" * 30, "a", "b"] * 30)
    roundtrip(CODECS["fsst"], arr)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=80)), max_size=120))
def test_property_strings_all_codecs(xs):
    arr = pa.array(xs, type=pa.string())
    for name in ("dict", "rle", "fsst", "store"):
        roundtrip(CODECS[name], arr)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(),
                          st.integers(min_value=-(2**63), max_value=2**63 - 1)),
                max_size=120))
def test_property_ints_all_codecs(xs):
    arr = pa.array(xs, type=pa.int64())
    for name in ("dict", "rle", "for", "delta", "store"):
        roundtrip(CODECS[name], arr)


def test_point_access():
    """Row reads (``take_any``) match full decode (SeqVector::get
    parity)."""
    from packcol.codecs import take_any
    cases = [
        ("dict", pa.array(["en", "de", None, "fr", "en"] * 10)),
        ("for", pa.array([100, None, 250, 7, 99999] * 10, type=pa.int64())),
        ("rle", pa.array(["a"] * 20 + ["b"] * 15 + [None] * 5 + ["c"] * 10)),
        ("fsst", pa.array(["hello world", "foo bar", None] * 10)),
        ("store", pa.array([1.5, 2.5, None] * 10)),
    ]
    for name, arr in cases:
        enc = CODECS[name].encode(arr)
        full = CODECS[name].decode(enc)
        for i in [0, 1, len(arr) // 2, len(arr) - 1]:
            assert take_any(enc, [i]).to_pylist() == [full[i].as_py()], \
                (name, i)


def test_order_preserving_codes_sort():
    """H3 (LexHasher) parity: sorting by dictionary CODES equals sorting
    by plaintext values — range partitioning / sorts can run on encoded
    data without decoding."""
    import json
    rng = np.random.default_rng(9)
    vals = [f"key-{rng.integers(0, 1000):04d}" for _ in range(500)]
    arr = pa.array(vals)
    enc = CODECS["dict"].encode(arr)
    from packcol.codecs.bitpack import unpack
    codes = unpack(np.frombuffer(enc.buffers["payload"], dtype=np.uint64),
                   enc.params["width"], len(arr))
    order_by_code = np.argsort(codes, kind="stable")
    order_by_value = np.argsort(np.array(vals), kind="stable")
    np.testing.assert_array_equal(order_by_code, order_by_value)


def test_encoded_domain_filters():
    """Predicates evaluated on packed codes, never decoding values."""
    from packcol.codecs.access import filter_eq, filter_range
    vals = ["banana", "apple", None, "cherry", "apple", "date", "banana"]
    arr = pa.array(vals)
    enc = CODECS["dict"].encode(arr)
    exp_eq = [v == "apple" for v in vals]
    assert filter_eq(enc, "apple").tolist() == exp_eq
    assert filter_eq(enc, "missing").sum() == 0
    exp_rng = [v is not None and "b" <= v <= "cz" for v in vals]
    assert filter_range(enc, "b", "cz").tolist() == exp_rng

    ints = pa.array([10, 25, None, 40, 25], type=pa.int64())
    enc_for = CODECS["for"].encode(ints)
    assert filter_eq(enc_for, 25).tolist() == [False, True, False, False,
                                               True]
    assert filter_eq(enc_for, 9999).sum() == 0
    # range on FOR deltas: bounds clamp to the block's [base, base+cap]
    assert filter_range(enc_for, 20, 40).tolist() == [False, True, False,
                                                      True, True]
    assert filter_range(enc_for, -5, 10).tolist() == [True, False, False,
                                                      False, False]
    assert filter_range(enc_for, 41, 100).sum() == 0
    assert filter_range(enc_for, 40, 10).sum() == 0  # inverted bounds


def test_filter_range_timestamp_and_fallback():
    """Timestamp predicates coerce to the physical int64 on FOR blocks;
    non-pushable codecs fall back to decode and stay correct."""
    from datetime import datetime
    from packcol.codecs.access import filter_eq, filter_range
    ts = [datetime(2024, 1, d) for d in (1, 5, 9, 13)]
    arr = pa.array([ts[0], ts[1], None, ts[2], ts[3]],
                   type=pa.timestamp("us"))
    enc = CODECS["for"].encode(arr)
    assert filter_eq(enc, ts[1]).tolist() == [False, True, False, False,
                                              False]
    got = filter_range(enc, datetime(2024, 1, 4), datetime(2024, 1, 10))
    assert got.tolist() == [False, True, False, True, False]
    # decode-fallback path (rle has no range pushdown)
    vals = pa.array([5, 5, 5, 9, 9, None, 2], type=pa.int64())
    enc_rle = CODECS["rle"].encode(vals)
    assert filter_range(enc_rle, 3, 8).tolist() == [True, True, True,
                                                    False, False, False,
                                                    False]


def test_float_special_values():
    """NaN / inf / -0.0 / null survive dict, rle and store."""
    import math
    special = pa.array([1.5, float("nan"), None, float("inf"),
                        float("-inf"), -0.0, 0.0, float("nan")])
    for name in ("dict", "rle", "store"):
        enc = EncodedColumn.from_row(CODECS[name].encode(special).to_row())
        dec = get_codec(enc.codec).decode(enc)
        for x, y in zip(special.to_pylist(), dec.to_pylist()):
            if x is None:
                assert y is None
            elif isinstance(x, float) and math.isnan(x):
                assert math.isnan(y)
            else:
                assert x == y


def test_tokdict_roundtrips():
    from packcol.codecs import TokenDictCodec
    c = TokenDictCodec()
    cases = [
        pa.array(["hello world", "", None, "one", "a b c d", ""]),
        pa.array(["the cat sat"] * 100),
        pa.array([f"doc {i} body text" for i in range(200)],
                 type=pa.large_string()),
    ]
    for arr in cases:
        enc = EncodedColumn.from_row(c.encode(arr).to_row())
        dec = get_codec("tokdict").decode(enc)
        assert dec.to_pylist() == arr.to_pylist()
        assert dec.type == arr.type
    # structural guard rejects non-joinable text
    import pytest as _pytest
    with _pytest.raises(ValueError):
        c.encode(pa.array(["double  space"]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(
    st.none(),
    st.lists(st.text(alphabet="abcXYZ09", min_size=1, max_size=8),
             max_size=10).map(" ".join)), max_size=60))
def test_tokdict_property(xs):
    from packcol.codecs import TokenDictCodec
    arr = pa.array(xs, type=pa.string())
    c = TokenDictCodec()
    enc = EncodedColumn.from_row(c.encode(arr).to_row())
    dec = get_codec("tokdict").decode(enc)
    assert dec.to_pylist() == arr.to_pylist()


def test_decfloat_roundtrips():
    from packcol.codecs import DecimalFloatCodec
    c = DecimalFloatCodec()
    cases = [
        pa.array([6.55, 12.31, None, 0.01, -3.99] * 50),
        pa.array([1.0, 2.0, 3.0]),
        pa.array([], type=pa.float64()),
        pa.array([0.5, -0.25], type=pa.float32()),
    ]
    for arr in cases:
        enc = EncodedColumn.from_row(c.encode(arr).to_row())
        dec = get_codec("decfloat").decode(enc)
        assert dec.to_pylist() == arr.to_pylist()
        assert dec.type == arr.type
    # a 2-decimal column packs far below 8 B/value
    big = pa.array(np.round(np.random.default_rng(1).uniform(0, 100, 4000),
                            2))
    enc = c.encode(big)
    assert len(enc.buffers["payload"]) < 4000 * 2.5
    # irregular floats rejected → selection falls back
    import pytest as _pytest
    with _pytest.raises(ValueError):
        c.encode(pa.array([0.123456789]))
    from packcol.stages.select import encode_with_guard
    out = encode_with_guard(pa.array(np.random.default_rng(2).normal(size=500)),
                            codec_name="decfloat")
    assert out.codec != "decfloat"   # fell back cleanly


class TestBitpackCodec:
    """Standalone bitpack codec (no frame): the unmodified analogue of
    the reference's fixed-width packing (naive.rs:116-124)."""

    def test_roundtrip_and_width(self):
        import json
        from packcol.codecs import get_codec
        arr = pa.array([0, 3, 7, 2, 5, None, 7], type=pa.int64())
        enc = get_codec("bitpack").encode(arr)
        assert enc.params["width"] == 3  # max=7 → 3 bits
        assert enc.params["base"] == 0
        assert get_codec("bitpack").decode(enc).equals(arr)

    def test_rejects_negative(self):
        from packcol.codecs import get_codec
        with pytest.raises(ValueError, match="non-negative"):
            get_codec("bitpack").encode(pa.array([-1, 2, 3]))
        assert not get_codec("bitpack").can_encode(
            pa.int64(), {"n": 3, "min": -1, "max": 3})

    def test_point_access_and_filter(self):
        import numpy as np
        from packcol.codecs import get_codec
        from packcol.codecs import take_any
        from packcol.codecs.access import filter_eq
        vals = [5, 9, 5, 0, 1023, 5]
        enc = get_codec("bitpack").encode(pa.array(vals, type=pa.int64()))
        assert [take_any(enc, [i])[0].as_py()
                for i in range(len(vals))] == vals
        np.testing.assert_array_equal(
            filter_eq(enc, 5), np.array([1, 0, 1, 0, 0, 1], dtype=bool))

    def test_timestamps(self):
        from packcol.codecs import get_codec
        arr = pa.array([1_000_000, 2_000_000, 1_500_000],
                       type=pa.timestamp("us"))
        enc = get_codec("bitpack").encode(arr)
        assert get_codec("bitpack").decode(enc).equals(arr)


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.one_of(st.integers(-10**12, 10**12), st.none()),
                  min_size=1, max_size=200),
    codec=st.sampled_from(["for", "bitpack", "delta", "rle", "dict",
                           "store"]),
    bounds=st.tuples(st.integers(-10**12, 10**12),
                     st.integers(-10**12, 10**12)),
)
def test_filter_range_matches_plaintext_property(vals, codec, bounds):
    """For every codec (pushed or decode-fallback) and any int column,
    filter_range == the plaintext mask; nulls never match."""
    from packcol.codecs import get_codec
    from packcol.codecs.access import filter_range
    arr = pa.array(vals, type=pa.int64())
    try:
        enc = get_codec(codec).encode(arr)
    except ValueError:
        return  # codec's own guard rejected the column (e.g. rle gain)
    lo, hi = min(bounds), max(bounds)
    got = filter_range(enc, lo, hi)
    exp = [v is not None and lo <= v <= hi for v in vals]
    assert got.tolist() == exp


def test_uint64_full_range_roundtrip():
    """Regression: uint64 values >= 2^63 crashed to_int64_numpy (safe
    cast); they now reinterpret mod 2^64 and roundtrip bit-exactly."""
    arr = pa.array([0, 2**63, 2**64 - 1, 5, None], type=pa.uint64())
    for name in ("for", "delta", "store", "dict"):
        roundtrip(CODECS[name], arr)


def test_negative_zero_store_fallback():
    """Regression: decfloat mapped -0.0 to +0.0; selection now refuses
    the codec for columns containing -0.0."""
    from packcol.stages.encode import decode_rows, encode_table
    t = pa.table({"v": pa.array([-0.0, 1.5, 2.25, 0.0])})
    dec = decode_rows(encode_table(t, part_id="p"))
    got = dec.column("v").combine_chunks().to_numpy(zero_copy_only=False)
    exp = t.column("v").combine_chunks().to_numpy(zero_copy_only=False)
    assert got.tobytes() == exp.tobytes()


def test_toksep_roundtrips():
    from packcol.codecs import TokSepCodec
    c = TokSepCodec()
    cases = [
        pa.array(["hello world", "", None, "<b>html!</b>", "a  b\tc\n", ""]),
        pa.array(["<html><body>the cat sat</body></html>"] * 100),
        pa.array([f"https://x.com/p/{i}?q=1" for i in range(200)],
                 type=pa.large_string()),
        pa.array([b"\x00\xff\x80raw", b"", None], type=pa.binary()),
        pa.array([b"bin \x01 tok"] * 50, type=pa.large_binary()),
        pa.array(["héllo wörld", "日本語 text", ""], type=pa.string()),
        pa.array([], type=pa.string()),
        pa.array([None, None], type=pa.string()),
        pa.array(["***###***", "no word bytes at all!?"]),
    ]
    for arr in cases:
        enc = EncodedColumn.from_row(c.encode(arr).to_row())
        dec = get_codec("toksep").decode(enc)
        assert dec.to_pylist() == arr.to_pylist()
        assert dec.type == arr.type


def test_toksep_compresses_markup():
    from packcol.codecs import TokSepCodec
    rows = ["<html><head><title>p</title></head><body>word%d common tail"
            "</body></html>" % (i % 50) for i in range(500)]
    arr = pa.array(rows)
    enc = TokSepCodec().encode(arr)
    assert enc.enc_bytes < arr.nbytes * 0.5
    # tokens never cross rows: rows ending in word bytes followed by
    # rows starting with word bytes stay distinct
    arr2 = pa.array(["abc", "def", "abcdef"] * 40)
    enc2 = EncodedColumn.from_row(TokSepCodec().encode(arr2).to_row())
    assert get_codec("toksep").decode(enc2).to_pylist() == arr2.to_pylist()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=60)), max_size=60))
def test_toksep_property(xs):
    from packcol.codecs import TokSepCodec
    arr = pa.array(xs, type=pa.string())
    enc = EncodedColumn.from_row(TokSepCodec().encode(arr).to_row())
    dec = get_codec("toksep").decode(enc)
    assert dec.to_pylist() == arr.to_pylist()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=70000),
       st.lists(st.integers(min_value=0, max_value=69999),
                min_size=0, max_size=300))
def test_codestream_roundtrip_property(nd, codes):
    from packcol.codecs.codestream import (decode_code_stream,
                                           encode_code_stream)
    idx = np.array([c % nd for c in codes], dtype=np.int64)
    params, bufs = encode_code_stream(idx, nd)
    out = decode_code_stream(params, bufs, len(idx))
    assert np.array_equal(out, idx)


def test_take_concat_matches_concat_gather():
    """The Arrow-take gather and the generic numpy gather agree
    byte-for-byte (take_concat replaced concat_gather in the token
    codecs' decode hot path, round 4)."""
    from packcol.codecs.gather import concat_gather, take_concat
    rng = np.random.default_rng(7)
    toks = ["".join(rng.choice(list("abcdef"), rng.integers(0, 9)))
            for _ in range(200)]  # includes empty tokens
    vocab = pa.array(toks, type=pa.large_binary())
    idx = rng.integers(0, len(toks), 5000).astype(np.int64)
    from packcol.codecs.fsst import buffer_view
    dd, doffs = buffer_view(vocab)
    out_a, cs_a = concat_gather(dd, doffs[:-1][idx], np.diff(doffs)[idx])
    out_b, cs_b = take_concat(vocab, idx)
    assert np.array_equal(cs_a, cs_b)
    assert np.array_equal(out_a, out_b)
    # sliced (non-zero offset) dictionary
    out_c, cs_c = take_concat(vocab.slice(0)[:], idx)
    assert np.array_equal(out_a, out_c) and np.array_equal(cs_a, cs_c)
    # empty idx / empty dictionary
    o, c = take_concat(vocab, np.empty(0, np.int64))
    assert len(o) == 0 and list(c) == [0]
    o, c = take_concat(pa.array([], type=pa.large_binary()),
                       np.empty(0, np.int64))
    assert len(o) == 0 and list(c) == [0]


def test_tokdict_doubled_vocab_rows():
    """tokdict decode via the doubled (token | token+space) vocabulary:
    empty rows, single-token rows, and trailing-space-free joins."""
    from packcol.codecs import get_codec
    from packcol.codecs.tokdict import TokenDictCodec
    arr = pa.array(["", "one", "a b", "x y z", None, "", "a a a a"])
    enc = EncodedColumn.from_row(TokenDictCodec().encode(arr).to_row())
    assert get_codec(enc.codec).decode(enc).to_pylist() == arr.to_pylist()
