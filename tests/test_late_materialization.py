"""Late materialization: row-selective decode (``take_any``) and
equality / IN evaluated on FSST's compressed bytes.

* ``take_any(enc, idx)`` equals ``decode_any(enc).take(idx)`` and
  ``subset_any(enc, keep)`` decodes to ``decode_any(enc).filter(keep)``
  for every registered codec; a cut toksep block is byte for byte a
  fresh encode of its rows;
* fsst ``filter_eq`` / ``filter_in`` equal ``pc.equal`` / ``pc.is_in``
  on the decoded block, including probes that hold a byte only a later
  round uses as a code;
* the numpy expansion table equals a dict-built one;
* a point or IN read of a webtext store never decodes an fsst block,
  and unpacks each fsst block's row offsets once.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packcol.codecs import (all_codecs, decode_any, get_codec, subset_any,
                            take_any)
from packcol.codecs import fsst
from packcol.codecs.access import filter_eq, filter_in
from packcol.sources.webtext import write_webtext

RNG = np.random.default_rng(13)

_URLS = [f"https://d{i % 7}.example.com/p/{i}?q={i * 37 % 101}"
         for i in range(400)]


def _one_round_fsst(arr: pa.Array, mp):
    """An fsst block of a single symbol-table round."""
    with mp.context() as m:
        m.setattr(fsst, "_MAX_ROUNDS", 1)
        enc = get_codec("fsst").encode(arr)
    assert len(enc.params["rounds"]) == 1
    return enc


def _shared_toksep(arr: pa.Array, base_dir: str):
    """A shared-vocabulary toksep block, resolved through ``base_dir``."""
    from packcol.stages.toksep_actor import (TokSepSharedEncoder,
                                             write_shared_vocab)
    vocab = pa.array([b"the ", b"a ", b"cat", b"sat "], pa.large_binary())
    write_shared_vocab(base_dir, {"c": vocab})
    enc = TokSepSharedEncoder(base_dir, ["c"]).encode_column(arr, "c")
    enc.base_dir = base_dir
    return enc


@pytest.fixture(scope="module")
def blocks(tmp_path_factory) -> list:
    """(label, block) pairs covering every registered codec, with nulls
    wherever the codec admits them."""
    words = pa.array(["the cat sat", None, "a cat", "", "the the cat"] * 12)
    ints = pa.array([7, None, 250, 3, 99999, 7] * 10, type=pa.int64())
    cases = [
        ("dict", pa.array(["en", "de", None, "fr", "en"] * 10)),
        ("rle", pa.array(["a"] * 20 + ["b"] * 15 + [None] * 5 + ["c"] * 10)),
        ("for", ints),
        ("bitpack", ints),
        ("delta", pa.array(np.cumsum(RNG.integers(0, 9, 60)))),
        ("decfloat", pa.array([1.25, None, 3.5, -0.75] * 15)),
        ("store", pa.array([1.5, 2.5, None] * 10)),
        ("fsst", pa.array(_URLS[:200] + [None, "", "héllo wörld"] * 5)),
        ("fsst", pa.array([u.encode() for u in _URLS[:100]] + [None, b""],
                          type=pa.binary())),
        ("tokdict", pa.array(["the cat", "a cat sat", None, ""] * 15)),
        ("toksep", words),
    ]
    out = []
    for name, arr in cases:
        enc = get_codec(name).encode(arr)
        assert enc.codec == name
        out.append((name, enc))
    with pytest.MonkeyPatch.context() as m:
        out.append(("fsst-1round",
                    _one_round_fsst(pa.array(_URLS[:120] + [None]), m)))
    out.append(("toksep-shared",
                _shared_toksep(words, str(tmp_path_factory.mktemp("sv")))))
    return out


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_take_any_equals_decode_take(blocks, data):
    """Property: every codec's ``take`` equals decode-then-take, for
    empty, repeated and unsorted indices."""
    assert {b.codec for _, b in blocks} == set(all_codecs())
    for label, enc in blocks:
        n = enc.n_values
        idx = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n),
                        label=label)
        for rows in (idx, [], [n - 1, 0, n - 1], list(range(n))[::-1]):
            rows = np.array(rows, dtype=np.int64)
            want = decode_any(enc).take(pa.array(rows, pa.int64()))
            got = take_any(enc, rows)
            assert got.type == want.type, label
            assert got.equals(want), (label, rows.tolist())


def test_take_any_rejects_out_of_range():
    for name in ("fsst", "toksep"):
        enc = get_codec(name).encode(pa.array(_URLS[:10]))
        for bad in ([10], [-1]):
            with pytest.raises(IndexError):
                take_any(enc, bad)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subset_any_equals_decode_filter(blocks, data):
    """Property: every codec's ``subset`` decodes to decode-then-filter
    for random, empty, full and single-row keeps, keeps the block's
    logical type record, and ``nbytes`` equals the decoded ``nbytes``
    of the block and of its cut."""
    assert {b.codec for _, b in blocks} == set(all_codecs())
    for label, enc in blocks:
        n = enc.n_values
        assert get_codec(enc.codec).nbytes(enc) == \
            decode_any(enc).nbytes, label
        rnd = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n), label=label))
        single = np.zeros(n, dtype=bool)
        single[data.draw(st.integers(0, n - 1), label=label)] = True
        for keep in (rnd, np.zeros(n, bool), np.ones(n, bool), single):
            want = decode_any(enc).filter(pa.array(keep))
            sub = subset_any(enc, keep)
            got = decode_any(sub)
            assert sub.n_values == int(keep.sum()), label
            assert got.type == want.type, label
            assert got.equals(want), (label, np.flatnonzero(keep))
            assert get_codec(sub.codec).nbytes(sub) == got.nbytes, label
            if "dtype" in enc.params:
                assert sub.params["dtype"] == enc.params["dtype"], label


def test_toksep_subset_is_a_fresh_encode(webtext_store):
    """Tokens never cross rows, so cutting a toksep block to some rows
    gives byte for byte (params and buffers) the block a fresh encode
    of those rows gives: the same code ranges, the dictionary without
    the entries no survivor uses, ranked by survivor count.  Under the
    size guard, too, the part stores what a re-encode stored."""
    from packcol.sources.plan import part_files, read_blocks
    from packcol.stages.encode import BLOCK_FIELDS, block_rows, encode_table
    _, out = webtext_store
    arrs = [pa.array(["the cat sat", None, "a cat", "", "the the cat"]
                     * 12)]
    for path in part_files(out):
        for enc in read_blocks(path, ["html", "text"]).values():
            assert enc.codec == "toksep"
            arrs.append(decode_any(enc))
    codec = get_codec("toksep")
    rng = np.random.default_rng(5)
    for arr in arrs:
        n = len(arr)
        enc = codec.encode(arr)
        single = np.zeros(n, dtype=bool)
        single[n // 2] = True
        for keep in (rng.random(n) < 0.7, rng.random(n) < 0.05, single,
                     np.zeros(n, dtype=bool)):
            sub = subset_any(enc, keep)
            rows = arr.filter(pa.array(keep))
            assert block_rows("p", [("c", sub, 0)]).select(
                BLOCK_FIELDS).equals(encode_table(
                    pa.table({"c": rows}), part_id="p",
                    codec_overrides={"c": "toksep"}).select(BLOCK_FIELDS))
            assert sub.codec == "toksep" or keep.sum() < 10
            if sub.codec == "toksep":
                fresh = codec.encode(rows)
                assert list(sub.params.items()) == \
                    list(fresh.params.items())
                assert sub.buffers == fresh.buffers


def test_cut_to_few_rows_keeps_the_size_guard():
    """A cut keeps tables sized for every row of its block; cut to a few
    rows it takes the guarded re-encode instead, so the rows are stored
    as a re-encode would store them."""
    from packcol.stages.encode import BLOCK_FIELDS, block_rows, encode_table
    arr = pa.array(_URLS)
    for name in ("fsst", "toksep"):
        enc = get_codec(name).encode(arr)
        for k in (1, 3):
            keep = np.zeros(len(arr), dtype=bool)
            keep[::len(arr) // k] = True
            rows = arr.filter(pa.array(keep))
            sub = subset_any(enc, keep)
            assert decode_any(sub).equals(rows)
            assert block_rows("p", [("c", sub, 0)]).select(
                BLOCK_FIELDS).equals(encode_table(
                    pa.table({"c": rows}), part_id="p",
                    codec_overrides={"c": name}).select(BLOCK_FIELDS)), \
                (name, k)


# ------------------------------------------------------------ fsst equality

def _later_round_bytes(enc) -> set:
    """Byte values used as a code by some round r ≥ 2 but not by
    round 1: the bytes a union-of-codes rejection gets wrong."""
    rounds = enc.params["rounds"]
    first = set(rounds[0][0]) if rounds else set()
    return {c for codes, _ in rounds[1:] for c in codes} - first


def _random_block(seed: int) -> pa.Array:
    rng = np.random.default_rng(seed)
    urls = [_URLS[i] for i in rng.integers(0, len(_URLS), 300)]
    extra = ["", "日本語テキスト/ü", "qu" * 9, "\x01\x02" * 5, None]
    vals = urls + [extra[i] for i in rng.integers(0, len(extra), 40)]
    rng.shuffle(vals)
    return pa.array(vals)


def _same_outcome(got_fn, want_fn):
    """Both calls return the same mask, or both raise the same type."""
    try:
        want = want_fn()
    except Exception as e:  # noqa: BLE001 - the decode path's own error
        with pytest.raises(type(e)):
            got_fn()
        return
    got = got_fn()
    np.testing.assert_array_equal(
        got, want.fill_null(False).to_numpy(zero_copy_only=False))


def _check_block(arr: pa.Array, probes: list, in_lists: list):
    enc = get_codec("fsst").encode(arr)
    assert enc.codec == "fsst"
    for v in probes:
        _same_outcome(lambda: filter_eq(enc, v), lambda: pc.equal(arr, v))
    for vs in in_lists:
        _same_outcome(lambda: filter_in(enc, vs),
                      lambda: pc.is_in(arr, value_set=pa.array(
                          vs, type=arr.type)))
    return enc


def test_fsst_compressed_equality_matches_decode():
    """eq / IN masks on compressed bytes equal the decoded answers on
    random multi-round blocks."""
    later_hits = 0
    for seed in range(6):
        arr = _random_block(seed)
        enc = get_codec("fsst").encode(arr)
        assert len(enc.params["rounds"]) >= 2
        rows = [v for v in arr.to_pylist() if v is not None]
        later = _later_round_bytes(enc)
        # rows holding a byte that only a later round uses as a code
        tricky = [v for v in rows if later & set(v.encode())]
        later_hits += len(tricky)
        longest = max(rows, key=len)
        probes = (rows[:25] + tricky[:10] +
                  ["", "nope", longest + "x", longest * 3,
                   "日本語テキスト/ü", *[chr(b) for b in sorted(later)][:5]])
        in_lists = [probes[:8], tricky[:4] + [""], [], ["nope"],
                    rows[:5] * 2, rows * 2,       # longer than the block
                    ["", None], [rows[0], 5]]     # non-string members
        probes += [None, 5, 1.5, b"abc"]          # decode-path fallbacks
        _check_block(arr, probes, in_lists)
    assert later_hits  # the per-round rejection rule was exercised


def test_fsst_compressed_equality_binary_and_nulls():
    vals = [u.encode() for u in _URLS[:150]] + [None, b"", b"\xff\xfe"]
    arr = pa.array(vals * 2, type=pa.binary())
    probes = [b"", b"\xff\xfe", vals[3], vals[3] + b"\x00", "nope",
              _URLS[4], None]
    _check_block(arr, probes, [[b"", vals[7]], [_URLS[9], b"\xff\xfe"]])
    # the null rows are stored as "": only the real "" rows match
    enc = get_codec("fsst").encode(arr)
    assert filter_eq(enc, b"").sum() == 2


def test_fsst_compressed_equality_one_round_block(monkeypatch):
    arr = pa.array(_URLS[:200] + [None, ""])
    enc = _one_round_fsst(arr, monkeypatch)
    for v in (_URLS[17], "", "nope"):
        np.testing.assert_array_equal(
            filter_eq(enc, v),
            pc.equal(arr, v).fill_null(False).to_numpy(zero_copy_only=False))
    assert filter_in(enc, [_URLS[1], _URLS[2], "x"]).sum() == 2


# ------------------------------------------------ stores: table and reads

@pytest.fixture(scope="module")
def webtext_store(tmp_path_factory, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    wt = str(tmp_path_factory.mktemp("lm_src"))
    out = str(tmp_path_factory.mktemp("lm_store"))
    encode_files(write_webtext(wt, n_rows=2000, n_parts=2, seed=11), out,
                 target_bytes=1 << 19)
    return wt, out


def _dict_expansion_table(rounds):
    """The expansion table built the straightforward way: one Python
    bytes value per byte, composed round by round."""
    exp = {b: bytes([b]) for b in range(256)}
    for codes, digrams in rounds:
        for c, dg in zip(codes, digrams):
            exp[int(c)] = exp[dg >> 8] + exp[dg & 255]
    return exp


def test_expansion_table_matches_dict_build(webtext_store):
    from packcol.sources.plan import part_files, read_blocks
    _, out = webtext_store
    n_blocks = 0
    for path in part_files(out):
        enc = read_blocks(path, ["url"])["url"]
        if enc.codec != "fsst":
            continue
        n_blocks += 1
        rounds = enc.params["rounds"]
        table, lens = fsst.build_expansion_table(rounds)
        for b, v in _dict_expansion_table(rounds).items():
            assert lens[b] == len(v)
            assert table[b, :len(v)].tobytes() == v
    assert n_blocks


def test_point_and_in_reads_never_decode_fsst(webtext_store, monkeypatch):
    import pyarrow.parquet as pq

    from packcol.sources.encoded import read_encoded
    from packcol.sources.plan import part_files, read_blocks
    wt, out = webtext_store
    assert any(read_blocks(p, ["url"])["url"].codec == "fsst"
               for p in part_files(out))
    truth = pq.read_table(wt).select(["url", "lang"])
    urls = truth.column("url").to_pylist()

    def no_decode(self, enc):
        raise AssertionError("fsst block decoded in full")

    monkeypatch.setattr(fsst.FsstCodec, "decode", no_decode)
    want_rows = lambda keys: sorted(  # noqa: E731
        (u, lg) for u, lg in zip(urls, truth.column("lang").to_pylist())
        if u in keys)
    for flt, keys in ((("url", "==", urls[5]), {urls[5]}),
                      (("url", "in", [urls[3], urls[1500], "nope"]),
                       {urls[3], urls[1500]})):
        df = read_encoded(out, columns=["url", "lang"],
                          filter=flt).to_pandas()
        got = sorted(zip(df["url"], df["lang"]))
        assert got == want_rows(keys)


def test_point_read_unpacks_fsst_rows_once(tmp_path, ray_session,
                                           monkeypatch):
    """The mask (``match_values``) and the output rows (``take``) of a
    filtered read share one ``_stored_rows`` unpack per fsst block."""
    import pyarrow.parquet as pq

    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    from packcol.sources.plan import part_files, read_blocks
    wt, out = str(tmp_path / "src"), str(tmp_path / "store")
    encode_files(write_webtext(wt, n_rows=1000, n_parts=1, seed=3), out,
                 target_bytes=1 << 30)
    (path,) = part_files(out)
    n_fsst = sum(enc.codec == "fsst" for enc in
                 read_blocks(path, ["url", "lang"]).values())
    assert n_fsst
    url = pq.read_table(wt).column("url")[7].as_py()
    calls, orig = [], fsst._stored_rows
    monkeypatch.setattr(fsst, "_stored_rows",
                        lambda enc: calls.append(enc) or orig(enc))
    got = read_encoded(out, columns=["url", "lang"],
                       filter=("url", "==", url)).to_pandas()
    assert list(got["url"]) == [url]
    assert len(calls) == n_fsst
