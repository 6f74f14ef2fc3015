"""Per-part bloom sidecars (state/bloom.py) + IN-list pushdown:
point-lookup part pruning for columns zone maps can't help with
(arrival-ordered high-cardinality keys), and the (col, "in", [...])
predicate on packed codes (codecs/access.py::filter_in)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.sources.webtext import write_webtext
from packcol.state.bloom import (HASH_BYTES, HASH_I64, bloom_may_contain,
                                 build_bloom, load_blooms, probe_bloom,
                                 save_blooms)


# ---------------------------------------------------------------- unit

def test_bloom_no_false_negatives_and_low_fpr():
    keys = pa.array([f"https://ex.com/p{i}" for i in range(5000)])
    b = build_bloom(keys, HASH_BYTES)
    present = probe_bloom(b, keys)
    assert present.all()  # NEVER a false negative
    absent = probe_bloom(
        b, pa.array([f"https://other.com/x{i}" for i in range(20000)]))
    assert absent.mean() < 0.02  # ~0.8% design point, generous bound


def test_bloom_distinct_sizing():
    # low-cardinality column → tiny filter (sized by DISTINCT keys)
    many_rows = pa.array(["de", "en", "fr"] * 10000)
    b = build_bloom(many_rows, HASH_BYTES)
    assert b["n"] == 3
    assert len(b["bits"]) <= 64


def test_bloom_timestamp_unit_safety():
    import datetime as dt
    ts = pa.array([dt.datetime(2024, 1, 1) + dt.timedelta(hours=i)
                   for i in range(500)]).cast(pa.timestamp("ns"))
    b = build_bloom(ts, HASH_I64)
    # probe with a naturally us-inferred scalar: the stored dtype must
    # drive the cast, else this present key would falsely prune
    assert probe_bloom(b, pa.array([dt.datetime(2024, 1, 1, 5)]))[0]
    assert not probe_bloom(b, pa.array([dt.datetime(2030, 1, 1)]))[0]


def test_bloom_nulls_and_binary():
    arr = pa.array(["a", None, "b"])
    b = build_bloom(arr, HASH_BYTES)
    assert b["n"] == 2
    bn = build_bloom(pa.array([b"\x00\xff", b"xy"], type=pa.binary()),
                     HASH_BYTES)
    assert probe_bloom(bn, pa.array([b"\x00\xff"], type=pa.binary()))[0]
    assert build_bloom(pa.array([None, None], type=pa.string()),
                       HASH_BYTES) is None


def test_bloom_sidecar_roundtrip(tmp_path):
    d = str(tmp_path)
    b = build_bloom(pa.array(["k1", "k2"]), HASH_BYTES)
    save_blooms(d, "p0", {"url": b})
    lb = load_blooms(d, "p0")
    assert sorted(lb) == ["url"]
    assert np.array_equal(lb["url"]["bits"], b["bits"])
    assert bloom_may_contain(d, "p0", "url", pa.array(["k1"]))
    assert not bloom_may_contain(d, "p0", "url", pa.array(["nope"]))
    # conservative fallbacks: missing part / column / corrupt file
    assert bloom_may_contain(d, "zz", "url", pa.array(["nope"]))
    assert bloom_may_contain(d, "p0", "other", pa.array(["nope"]))
    with open(os.path.join(d, "_bloom", "p0.npz"), "wb") as f:
        f.write(b"garbage")
    assert bloom_may_contain(d, "p0", "url", pa.array(["nope"]))


# --------------------------------------------------------- access layer

def _enc(values, codec=None):
    from packcol.stages.select import encode_with_guard
    return encode_with_guard(pa.array(values), codec)


def test_filter_in_dict_and_forpack():
    from packcol.codecs.access import filter_in
    langs = ["de", "en", "fr", "it", "nl"] * 40
    enc = _enc(langs, "dict")
    mask = filter_in(enc, ("de", "nl", "zz"))
    exp = np.array([v in ("de", "nl") for v in langs])
    assert np.array_equal(mask, exp)
    assert not filter_in(enc, ("zz",)).any()
    ints = list(range(100, 300))
    enci = _enc(ints, "for")
    m2 = filter_in(enci, (150, 299, 9999))
    assert np.flatnonzero(m2).tolist() == [50, 199]


def test_filter_in_decode_fallback():
    from packcol.codecs.access import filter_in
    vals = [1.5, 2.5, 3.5, None] * 10
    enc = _enc(vals)
    mask = filter_in(enc, (2.5,))
    assert mask.sum() == 10
    assert not mask[3]  # null never matches


# ----------------------------------------------------------- store e2e

@pytest.fixture(scope="module")
def bstore(tmp_path_factory, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    wt = str(tmp_path_factory.mktemp("wt_bloom"))
    out = str(tmp_path_factory.mktemp("store_bloom"))
    paths = write_webtext(wt, n_rows=4000, n_parts=8, seed=7)
    encode_files(paths, out, target_bytes=1 << 19)
    return wt, out, paths


def test_encode_writes_bloom_sidecars(bstore):
    from packcol.sources.encoded import store_stats
    _, out, _ = bstore
    parts = len([f for f in os.listdir(out) if f.endswith(".parquet")])
    assert len(os.listdir(os.path.join(out, "_bloom"))) == parts
    st = store_stats(out)
    # url (key), lang (low-card) and warc_ts (int-like) covered;
    # html/text payloads excluded by the mean-length cap
    assert st["blooms"].get("url") == parts
    assert st["blooms"].get("lang") == parts
    assert "html" not in st["blooms"] and "text" not in st["blooms"]


def test_point_lookup_prunes_to_matching_parts(bstore):
    from packcol.sources.encoded import read_encoded
    from packcol.sources.plan import plan
    _, out, paths = bstore
    url = pq.read_table(paths[3], columns=["url"]).column("url")[17].as_py()
    rec = plan(out, [("url", "eq", url, url)]).record
    surv, pruned = rec["zone_survivors"], rec["parts_scanned"]
    assert surv > 2 * pruned  # most parts disproven driver-side
    got = read_encoded(out, columns=["url", "text"],
                       filter=("url", "==", url)).to_pandas()
    assert list(got["url"]) == [url]


def test_read_encoded_in_filter_matches_parquet(bstore):
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out, paths = bstore
    u1 = pq.read_table(paths[1], columns=["url"]).column("url")[3].as_py()
    u2 = pq.read_table(paths[6], columns=["url"]).column("url")[9].as_py()
    got = read_encoded(out, columns=["url", "lang"],
                       filter=("url", "in", [u1, u2])).to_pandas()
    assert sorted(got["url"]) == sorted([u1, u2])
    exp = rd.read_parquet(wt).to_pandas()
    got2 = read_encoded(out, columns=["url"],
                        filter=("lang", "in", ["de", "fr"])).to_pandas()
    assert sorted(got2["url"]) == sorted(
        exp[exp["lang"].isin(["de", "fr"])]["url"])


def test_count_encoded_in_and_absent(bstore):
    from packcol.sources.encoded import count_encoded
    import ray.data as rd
    wt, out, _ = bstore
    exp = rd.read_parquet(wt).to_pandas()
    n = count_encoded(out, ("lang", "in", ["de", "fr"]))
    assert n == int(exp["lang"].isin(["de", "fr"]).sum())
    # absent key: bloom disproves every part → zero without any scan
    assert count_encoded(out, ("url", "==", "https://absent.example/")) == 0


def test_conjunction_in_plus_range(bstore):
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out, _ = bstore
    exp = rd.read_parquet(wt).to_pandas()
    lo = exp["warc_ts"].quantile(0.2)
    hi = exp["warc_ts"].quantile(0.6)
    got = read_encoded(out, columns=["url"],
                       filter=[("lang", "in", ["de", "en"]),
                               ("warc_ts", "between", lo, hi)]).to_pandas()
    want = exp[exp["lang"].isin(["de", "en"]) &
               (exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi)]
    assert sorted(got["url"]) == sorted(want["url"])


def test_bloom_columns_opt_out_and_explicit(tmp_path_factory, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded, store_stats
    wt = str(tmp_path_factory.mktemp("wt_noboom"))
    paths = write_webtext(wt, n_rows=600, n_parts=2, seed=3)
    out_none = str(tmp_path_factory.mktemp("store_noboom"))
    encode_files(paths, out_none, target_bytes=1 << 19, bloom_columns=None)
    assert not os.path.isdir(os.path.join(out_none, "_bloom"))
    out_url = str(tmp_path_factory.mktemp("store_urlboom"))
    encode_files(paths, out_url, target_bytes=1 << 19,
                 bloom_columns=["url"])
    assert list(store_stats(out_url)["blooms"]) == ["url"]
    # a store without sidecars still answers correctly (never lossy)
    url = pq.read_table(paths[0], columns=["url"]).column("url")[0].as_py()
    got = read_encoded(out_none, columns=["url"],
                       filter=("url", "==", url)).to_pandas()
    assert list(got["url"]) == [url]


def test_sampled_hash_build_and_legacy_probe_compat():
    """New sidecars build with HASH_BYTES_SAMPLED; a sidecar recorded
    with the legacy rolling-hash kind still probes correctly (the
    probe dispatches on the kind stored IN the sidecar)."""
    from packcol.state.bloom import (HASH_BYTES_SAMPLED, _hash_kind,
                                     build_bloom, probe_bloom)
    vals = pa.array([f"https://h{i}.example.com/p/{i*7}" for i in
                     range(500)] + ["", "x", "y" * 40])
    assert _hash_kind(vals.type) == HASH_BYTES_SAMPLED
    for kind in (HASH_BYTES, HASH_BYTES_SAMPLED):
        b = build_bloom(vals, kind)
        assert b["hash"] == kind
        # zero false negatives on every inserted value, either kind
        assert probe_bloom(b, vals).all()
        misses = pa.array([f"https://miss{i}.other.org/{i}"
                           for i in range(2000)])
        fpr = probe_bloom(b, misses).mean()
        assert fpr < 0.05, (kind, fpr)


def test_sampled_hash_distinguishes_head_tail_len():
    """The sampled fingerprint separates values differing in length,
    head, or tail (middle-only differences MAY collide by design)."""
    from packcol.state.bloom import _sampled_fingerprint
    vals = pa.array(["abcdef", "abcdeg", "xbcdef", "abcdef0",
                     "a" * 100, "a" * 101, "b" + "a" * 99,
                     "a" * 99 + "b", ""])
    fp = _sampled_fingerprint(vals)
    assert len(set(fp.tolist())) == len(vals)


def test_empty_string_scalar_probe_matches_mixed_column_build():
    """Regression: a scalar probe of '' (or b'') against a bloom built
    from a MIXED column (['alpha','','beta']) must hit.  The build
    hashes the '' row through the head/tail splitmix chain (the column
    buffer is non-empty); the probe's single-scalar buffer IS empty, so
    a length-only shortcut there made the fingerprints disagree and the
    filter falsely pruned parts containing empty strings."""
    from packcol.state.bloom import (HASH_BYTES_SAMPLED, build_bloom,
                                     probe_bloom)
    for vals, probe in [
        (pa.array(["alpha", "", "beta"]), pa.array([""])),
        (pa.array([b"alpha", b"", b"beta"], type=pa.binary()),
         pa.array([b""], type=pa.binary())),
    ]:
        b = build_bloom(vals, HASH_BYTES_SAMPLED)
        assert probe_bloom(b, probe)[0], vals.type
    # and the converse orientation: all-empty build, mixed-batch probe
    b = build_bloom(pa.array(["", "", ""]), HASH_BYTES_SAMPLED)
    assert probe_bloom(b, pa.array(["x", ""])).tolist() == [False, True] \
        or probe_bloom(b, pa.array(["x", ""]))[1]  # fp on 'x' allowed


def test_empty_string_filter_not_pruned_end_to_end(tmp_path, ray_session):
    """A store part containing url='' must survive bloom pruning for
    filter=('url','==','')."""
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    t = pa.table({
        "url": pa.array(["https://a.example/1", "", "https://b.example/2"]),
        "text": pa.array(["aa", "bb", "cc"]),
    })
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    store = str(tmp_path / "store")
    encode_files([str(src / "p0.parquet")], store, bloom_columns=["url"])
    got = read_encoded(store, columns=["url", "text"],
                       filter=("url", "==", "")).to_pandas()
    assert list(got["url"]) == [""] and list(got["text"]) == ["bb"]
